//! Scale-out shard router: N independent simulated PIM machines behind one
//! batch API (ARCHITECTURE.md §10).
//!
//! One [`PimZdTree`] models one UPMEM-class machine; [`ShardedZdTree`] is
//! the multi-rank deployment. The Morton key space is partitioned by a
//! [`PlacementTable`] (a prefix trie with rendezvous-hashed leaf owners),
//! each leaf cell owned by exactly one **rank** — an independent
//! [`PimZdTree`] with its own modules, channel, metrics registry, trace
//! journal, and fault plane. Batched operations scatter to the owning
//! ranks, execute **concurrently** on the work-stealing executor, and
//! gather with an index-ordered collect, so every rank's journal and
//! metrics snapshot stays byte-identical at any host thread count: rank
//! interleaving is quarantined to wall-clock, exactly like module
//! interleaving inside one machine.
//!
//! kNN is **bound-and-prune**: each query runs on its home rank first; the
//! k-th candidate distance bounds a ball box, and only the ranks whose
//! cells that box crosses are asked for more. Those widen requests are
//! **coalesced** per foreign rank — the push-pull rule one level up: where
//! a cluster of queries wants the same region, the region is pulled to the
//! host once, not once per query. Requests sorted by Morton key are cut
//! into runs whose union box stays within a fixed multiple of the smallest
//! member's ball box (`coalesce_widen`); one box per run is fetched and
//! its points are handed to every member, each filtering by its own ball.
//! The volume rule keeps both sides' work bounded on any input, and a lone
//! query is a run of one. Box queries scatter to exactly the ranks whose
//! leaves intersect. Skew-driven **rebalancing**
//! generalizes the fault plane's dead-module re-homing to "hot rank → cold
//! rank". Ranks run concurrently, so a phase costs what its slowest rank
//! costs, and a rank's PIM time is the sum over rounds of its *busiest
//! module*: when that straggler path, over the window since the last check,
//! is more imbalanced across ranks than a threshold, the router splits the
//! hottest leaf cells and migrates them while a move still lowers the
//! hotter of the two ranks, recording every placement change in the table
//! *before* moving data, so routing stays authoritative mid-migration.

pub mod placement;

pub use placement::{CellId, PlacementTable};

use crate::config::PimZdConfig;
use crate::costs::{self, COALESCE_CYCLES, MERGE_CYCLES, ROUTE_CYCLES};
use crate::frag::{push_candidate, NullSink};
use crate::host::PimZdTree;
use crate::knn::{ball_box, cut_runs, COALESCE_VOLUME_FACTOR};
use crate::stats::{OpBreakdown, OpStats};
use pim_geom::{coord_bits_for_dim, Aabb, Metric, Point};
use pim_memsim::{CpuMeter, CpuModel};
use pim_sim::{FaultPlan, MachineConfig, Metrics};
use pim_zorder::ZKey;
use rayon::prelude::*;
use rustc_hash::FxHashMap;
use std::collections::BTreeMap;

/// Initial uniform refinement depth of the placement trie
/// (`2^(D·INITIAL_LEVELS)` leaves: 512 in 3D — enough cells per rank that
/// rendezvous placement balances uniform data).
const INITIAL_LEVELS: u32 = 3;
/// Seed of the rendezvous placement hash.
const PLACEMENT_SEED: u64 = 2026;
/// Depth of the heat probes: routed keys are counted per level-
/// `HEAT_LEVELS` prefix, bounding rebalancer resolution (clamped to the
/// grid depth, see [`heat_level`]).
const HEAT_LEVELS: u32 = 10;
/// Upper bound on split/migrate actions per rebalance trigger.
const MAX_ACTIONS: u64 = 12;

/// The heat-probe depth on a `d`-dimensional grid.
fn heat_level(d: usize) -> u32 {
    HEAT_LEVELS.clamp(1, coord_bits_for_dim(d) - 1)
}

/// Configuration of the shard router.
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Number of ranks (independent simulated machines). Must be ≥ 1.
    pub n_ranks: usize,
    /// Rebalance after an operation when the straggler-path imbalance of
    /// the window since the last check exceeds this ratio (max/mean over
    /// ranks of Σ per-round busiest-module cycles; 1.0 = perfectly
    /// balanced).
    pub rebalance_threshold: f64,
    /// Whether the router rebalances automatically at batch boundaries.
    pub auto_rebalance: bool,
}

impl ShardConfig {
    /// Defaults for `n_ranks` ranks: auto-rebalance at 1.6× imbalance.
    pub fn new(n_ranks: usize) -> Self {
        ShardConfig { n_ranks, rebalance_threshold: 1.6, auto_rebalance: true }
    }
}

/// Per-operation measurement of a sharded batch: the per-rank [`OpStats`]
/// plus the cross-rank aggregate.
#[derive(Clone, Debug, Default)]
pub struct ShardOpStats {
    /// This operation's stats per rank (default for ranks it never touched).
    pub per_rank: Vec<OpStats>,
    /// Cross-rank aggregate: work fields (bytes, cycles, rounds) are sums;
    /// time fields are straggler times — per scatter phase, the slowest
    /// participating rank sets the phase time (concurrent ranks overlap),
    /// and sequential work (routing, merging, migrations) adds directly.
    /// `worst_imbalance` here is the **busy-cycle imbalance across ranks**
    /// (max/mean of per-rank PIM cycles), not the intra-rank module figure.
    pub agg: OpStats,
    /// Σ over queries of the number of ranks the query was sent to.
    pub rank_touches: u64,
    /// kNN widening: (query, foreign rank) pairs whose ball crossed onto
    /// that rank.
    pub widen_requests: u64,
    /// kNN widening: boxes actually scattered for those requests (one per
    /// coalesced run; equal to `widen_requests` when nothing coalesced).
    pub widen_fetches: u64,
    /// Rebalance actions (cell splits + leaf moves) this operation
    /// triggered.
    pub rebalance_actions: u64,
}

impl ShardOpStats {
    fn fresh(n_ranks: usize) -> Self {
        ShardOpStats { per_rank: vec![OpStats::default(); n_ranks], ..Default::default() }
    }

    /// Busy-cycle imbalance across ranks for this operation: max/mean of
    /// per-rank PIM cycles, idle ranks counted as zero (1.0 when no rank
    /// did PIM work).
    pub fn busy_cycle_imbalance(&self) -> f64 {
        let total: u64 = self.per_rank.iter().map(|s| s.pim_cycles).sum();
        if total == 0 || self.per_rank.is_empty() {
            return 1.0;
        }
        let max = self.per_rank.iter().map(|s| s.pim_cycles).max().unwrap_or(0);
        max as f64 / (total as f64 / self.per_rank.len() as f64)
    }

    /// Mean number of ranks each query touched (the cross-shard fan-out
    /// ratio; 1.0 = every query stayed on its home rank).
    pub fn fanout(&self) -> f64 {
        if self.agg.batch_ops == 0 {
            1.0
        } else {
            self.rank_touches as f64 / self.agg.batch_ops as f64
        }
    }
}

/// Runs `f` on every rank with a non-empty part, concurrently on the
/// work-stealing executor, gathering results (and each touched rank's
/// [`OpStats`]) with an index-ordered collect. Empty parts are skipped
/// entirely — the rank is not touched and reports `None` — because the
/// underlying batch ops early-return on empty input without refreshing
/// their stats.
fn scatter<const D: usize, T, R>(
    ranks: &mut [PimZdTree<D>],
    parts: Vec<Vec<T>>,
    f: impl Fn(&mut PimZdTree<D>, &[T]) -> R + Sync,
) -> Vec<Option<(R, OpStats)>>
where
    T: Send,
    R: Send,
{
    ranks
        .par_iter_mut()
        .zip(parts.into_par_iter())
        .map(|(rank, part)| {
            if part.is_empty() {
                None
            } else {
                let out = f(rank, &part);
                Some((out, rank.last_op_stats().clone()))
            }
        })
        .collect()
}

/// A point batch routed to its home ranks.
struct Routed<const D: usize> {
    /// The batch's points per home rank.
    parts: Vec<Vec<Point<D>>>,
    /// Each part's original batch positions.
    pos: Vec<Vec<usize>>,
    /// `(Morton key, home rank)` per item, in batch order.
    homes: Vec<(u64, u32)>,
}

/// One kNN widen request: query `qi`'s ball box crosses onto a foreign rank.
#[derive(Clone, Copy, Debug, PartialEq)]
struct WidenReq<const D: usize> {
    /// The query's Morton key.
    key: u64,
    /// The query's batch position.
    qi: usize,
    /// The box around the query's home k-th distance.
    ball: Aabb<D>,
}

/// Coalesces one foreign rank's widen requests into fetch runs: sorts
/// `reqs` by `(key, qi)` — Morton order keeps spatial neighbours adjacent —
/// and cuts the sorted list greedily into runs, returning each run's
/// `(union box, length)` in order. A request joins the open run only while
/// the run's union box stays within [`COALESCE_VOLUME_FACTOR`] × the volume
/// of the run's *smallest* ball box. That bounds the work on both sides: no
/// member is handed more than that factor times its own box's worth of
/// points to filter, and a run of two or more fetches at most the factor ×
/// the smallest member's volume — no more (at factor 2) than its members'
/// boxes sum to. Far-apart or differently sized balls fail the test and
/// stay runs of one, the plain per-query fetch.
fn coalesce_widen<const D: usize>(reqs: &mut [WidenReq<D>]) -> Vec<(Aabb<D>, usize)> {
    reqs.sort_unstable_by_key(|r| (r.key, r.qi));
    // A run's accumulator: its union box and its smallest member's volume.
    let runs = cut_runs(
        reqs.iter(),
        |r| (r.ball, r.ball.volume()),
        |(bx, min_vol), r| {
            let grown = bx.union(&r.ball);
            let smallest = r.ball.volume().min(*min_vol);
            (grown.volume() <= COALESCE_VOLUME_FACTOR.saturating_mul(smallest))
                .then_some((grown, smallest))
        },
    );
    runs.into_iter().map(|((bx, _), len)| (bx, len)).collect()
}

/// The sharded index: N [`PimZdTree`] ranks behind one batch API (see the
/// module docs).
pub struct ShardedZdTree<const D: usize> {
    cfg: ShardConfig,
    placement: PlacementTable<D>,
    ranks: Vec<PimZdTree<D>>,
    /// Routed-key heat per level-`HEAT_LEVELS` Morton prefix, cleared at
    /// every rebalance so each window measures fresh skew.
    heat: FxHashMap<u64, u64>,
    /// Per-rank `sum_max_cycles` (the straggler path: Σ over rounds of the
    /// busiest module's cycles) at the start of the current rebalance
    /// window.
    cycles_base: Vec<u64>,
    meter: CpuMeter,
    cpu_model: CpuModel,
    metrics: Metrics,
    rank_metrics: Vec<Metrics>,
    last_stats: ShardOpStats,
    leaf_moves: u64,
    cell_splits: u64,
    migrated_points: u64,
}

impl<const D: usize> ShardedZdTree<D> {
    /// Builds the sharded index over `points`: each rank is an independent
    /// machine of `machine`'s geometry, built (untimed, like the
    /// single-rank warmup) over the points its cells own; the router's own
    /// meter runs on `machine.cpu` too.
    pub fn build(
        points: &[Point<D>],
        cfg: ShardConfig,
        zcfg: PimZdConfig,
        machine: MachineConfig,
    ) -> Self {
        assert!(cfg.n_ranks > 0, "a sharded tree needs at least one rank");
        let placement = PlacementTable::new(PLACEMENT_SEED, cfg.n_ranks, INITIAL_LEVELS);
        let mut parts: Vec<Vec<Point<D>>> = vec![Vec::new(); cfg.n_ranks];
        for p in points {
            parts[placement.owner_of_point(p) as usize].push(*p);
        }
        let ranks: Vec<PimZdTree<D>> =
            parts.iter().map(|part| PimZdTree::build(part, zcfg, machine)).collect();
        let cycles_base = ranks.iter().map(|r| r.sim_stats().sum_max_cycles).collect();
        ShardedZdTree {
            cfg,
            placement,
            ranks,
            heat: FxHashMap::default(),
            cycles_base,
            meter: CpuMeter::new(machine.cpu),
            cpu_model: CpuModel::new(machine.cpu),
            metrics: Metrics::disabled(),
            rank_metrics: vec![Metrics::disabled(); cfg.n_ranks],
            last_stats: ShardOpStats::default(),
            leaf_moves: 0,
            cell_splits: 0,
            migrated_points: 0,
        }
    }

    /// Number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Total stored points across all ranks.
    pub fn len(&self) -> usize {
        self.ranks.iter().map(PimZdTree::len).sum()
    }

    /// Whether every rank is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The placement table (routing directory).
    pub fn placement(&self) -> &PlacementTable<D> {
        &self.placement
    }

    /// Read access to one rank (tests and benches inspect per-rank state).
    pub fn rank(&self, r: usize) -> &PimZdTree<D> {
        &self.ranks[r]
    }

    /// Statistics of the most recent sharded batch operation.
    pub fn last_shard_stats(&self) -> &ShardOpStats {
        &self.last_stats
    }

    /// The aggregate [`OpStats`] of the most recent operation (same shape
    /// the single-rank API reports, so bench plumbing is shared).
    pub fn last_op_stats(&self) -> &OpStats {
        &self.last_stats.agg
    }

    /// Lifetime rebalance counters: `(leaf moves, cell splits, migrated
    /// points)`.
    pub fn rebalance_counters(&self) -> (u64, u64, u64) {
        (self.leaf_moves, self.cell_splits, self.migrated_points)
    }

    /// Attaches a fault plan to one rank (each rank has an independent
    /// fault plane; see [`PimZdTree::set_fault_plan`]).
    pub fn set_fault_plan_on(&mut self, rank: usize, plan: Option<FaultPlan>) {
        self.ranks[rank].set_fault_plan(plan);
    }

    /// Attaches per-rank trace journals, returning the journal handles in
    /// rank order. Each rank journals its own rounds into its own buffer,
    /// so multi-rank traces are byte-identical at any thread count; merge
    /// them for reporting with `trace_summary <file> <file>…`.
    pub fn attach_journals(&mut self) -> Vec<pim_sim::Journal> {
        self.ranks
            .iter_mut()
            .map(|r| {
                let journal = pim_sim::Journal::new();
                r.set_journal(Some(journal.clone()));
                journal
            })
            .collect()
    }

    /// Attaches a metrics handle. The router publishes shard-level series
    /// (`shard_*`) into it directly; each rank gets its **own** registry
    /// stamped with a `("shard", "<r>")` base label, kept separate so
    /// concurrent ranks never contend and snapshots stay deterministic.
    /// Call [`Self::merge_rank_metrics`] once before snapshotting to fold
    /// the rank registries into the attached handle. Pass
    /// [`Metrics::disabled`] to detach everything.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        if metrics.enabled() {
            for (r, rank) in self.ranks.iter_mut().enumerate() {
                let handle = Metrics::enabled_new();
                handle.with(|reg| reg.set_base_labels(&[("shard", &r.to_string())]));
                rank.set_metrics(handle.clone());
                self.rank_metrics[r] = handle;
            }
        } else {
            for (r, rank) in self.ranks.iter_mut().enumerate() {
                rank.set_metrics(Metrics::disabled());
                self.rank_metrics[r] = Metrics::disabled();
            }
        }
        self.metrics = metrics;
    }

    /// Folds every rank's registry into the handle given to
    /// [`Self::set_metrics`], in rank order. Counters add, so call this
    /// exactly once, after the measured work (merging twice would double
    /// the rank counters).
    pub fn merge_rank_metrics(&self) {
        self.metrics.with(|target| {
            for rm in &self.rank_metrics {
                rm.with(|src| target.merge_from(src));
            }
        });
    }

    // -----------------------------------------------------------------
    // Measurement scaffolding
    // -----------------------------------------------------------------

    fn begin_op(&mut self) -> ShardOpStats {
        self.meter.start_measurement();
        ShardOpStats::fresh(self.ranks.len())
    }

    /// Folds one concurrent scatter phase into `acc`: per-rank stats add;
    /// the aggregate's time components take the **max** over participating
    /// ranks (the straggler sets the phase time), work counters sum.
    fn fold_concurrent<R>(acc: &mut ShardOpStats, phase: &[Option<(R, OpStats)>]) {
        let mut total = OpStats::default();
        let mut straggler = OpBreakdown::default();
        for (r, slot) in phase.iter().enumerate() {
            if let Some((_, s)) = slot {
                acc.per_rank[r].add(s);
                total.add(s);
                straggler.cpu_s = straggler.cpu_s.max(s.breakdown.cpu_s);
                straggler.pim_s = straggler.pim_s.max(s.breakdown.pim_s);
                straggler.comm_s = straggler.comm_s.max(s.breakdown.comm_s);
            }
        }
        total.breakdown = straggler;
        acc.agg.add(&total);
    }

    /// Folds one **sequential** rank operation (migrations run one rank at
    /// a time) into `acc`: everything adds, including time.
    fn fold_sequential(acc: &mut ShardOpStats, rank: usize, s: &OpStats) {
        acc.per_rank[rank].add(s);
        acc.agg.add(s);
    }

    fn finish_op(
        &mut self,
        mut acc: ShardOpStats,
        op: &'static str,
        batch_ops: u64,
        elements: u64,
    ) {
        if self.cfg.auto_rebalance {
            self.check_rebalance(&mut acc);
        }
        let host = self.meter.stats();
        acc.agg.breakdown.cpu_s += self.cpu_model.time_seconds(&host);
        acc.agg.cpu_cycles += host.work_cycles + host.span_cycles;
        acc.agg.cpu_dram_bytes += host.dram_bytes;
        acc.agg.batch_ops = batch_ops;
        acc.agg.elements = elements;
        acc.agg.worst_imbalance = acc.busy_cycle_imbalance();
        if self.metrics.enabled() {
            let (moves, splits, migrated) =
                (self.leaf_moves, self.cell_splits, self.migrated_points);
            let leaves = self.placement.n_leaves() as f64;
            self.metrics.with(|m| {
                let ol: &[(&str, &str)] = &[("op", op)];
                m.add("shard_batches_total", ol, 1);
                m.add("shard_batch_ops_total", ol, batch_ops);
                m.add("shard_elements_returned_total", ol, elements);
                m.add("shard_rank_touches_total", ol, acc.rank_touches);
                m.add("shard_widen_requests_total", &[], acc.widen_requests);
                m.add("shard_widen_fetches_total", &[], acc.widen_fetches);
                m.set_gauge("shard_leaves", &[], leaves);
                m.set_gauge("shard_leaf_moves", &[], moves as f64);
                m.set_gauge("shard_cell_splits", &[], splits as f64);
                m.set_gauge("shard_migrated_points", &[], migrated as f64);
            });
        }
        self.last_stats = acc;
    }

    /// Routes points to their home ranks, recording heat probes: the one
    /// Morton encode and placement-trie walk each routed item gets.
    fn route_points(&mut self, pts: &[Point<D>]) -> Routed<D> {
        let n = self.ranks.len();
        let mut routed = Routed {
            parts: vec![Vec::new(); n],
            pos: vec![Vec::new(); n],
            homes: Vec::with_capacity(pts.len()),
        };
        let hl = heat_level(D);
        let shift = ZKey::<D>::BITS - hl * D as u32;
        for (i, p) in pts.iter().enumerate() {
            let key = ZKey::<D>::encode(p).0;
            let r = self.placement.owner_of_key(key);
            routed.parts[r as usize].push(*p);
            routed.pos[r as usize].push(i);
            routed.homes.push((key, r));
            *self.heat.entry(key >> shift).or_insert(0) += 1;
        }
        self.meter.work(pts.len() as u64 * ROUTE_CYCLES);
        routed
    }

    // -----------------------------------------------------------------
    // Batched operations
    // -----------------------------------------------------------------

    /// Inserts a batch of points (multiset semantics), each on its home
    /// rank.
    pub fn batch_insert(&mut self, points: &[Point<D>]) {
        if points.is_empty() {
            return;
        }
        let mut acc = self.begin_op();
        let parts = self.route_points(points).parts;
        let phase = scatter(&mut self.ranks, parts, |rank, part| rank.batch_insert(part));
        Self::fold_concurrent(&mut acc, &phase);
        acc.rank_touches += points.len() as u64;
        self.finish_op(acc, "insert", points.len() as u64, points.len() as u64);
    }

    /// Deletes one stored instance per request point (multiset semantics),
    /// returning the number removed.
    pub fn batch_delete(&mut self, points: &[Point<D>]) -> usize {
        if points.is_empty() {
            return 0;
        }
        let mut acc = self.begin_op();
        let parts = self.route_points(points).parts;
        let phase = scatter(&mut self.ranks, parts, |rank, part| rank.batch_delete(part));
        Self::fold_concurrent(&mut acc, &phase);
        let removed: usize = phase.iter().filter_map(|s| s.as_ref().map(|(r, _)| *r)).sum();
        acc.rank_touches += points.len() as u64;
        self.finish_op(acc, "delete", points.len() as u64, points.len() as u64);
        removed
    }

    /// Batched point membership, each query answered by its home rank.
    pub fn batch_contains(&mut self, pts: &[Point<D>]) -> Vec<bool> {
        if pts.is_empty() {
            return Vec::new();
        }
        let mut acc = self.begin_op();
        let Routed { parts, pos, .. } = self.route_points(pts);
        let phase = scatter(&mut self.ranks, parts, |rank, part| rank.batch_contains(part));
        Self::fold_concurrent(&mut acc, &phase);
        let mut out = vec![false; pts.len()];
        for (r, slot) in phase.iter().enumerate() {
            if let Some((found, _)) = slot {
                for (j, &qi) in pos[r].iter().enumerate() {
                    out[qi] = found[j];
                }
            }
        }
        acc.rank_touches += pts.len() as u64;
        self.finish_op(acc, "contains", pts.len() as u64, pts.len() as u64);
        out
    }

    /// Routes box queries to every rank whose leaves intersect them.
    /// Returns per-rank boxes, per-rank query positions, and Σ touches.
    #[allow(clippy::type_complexity)]
    fn route_boxes(&mut self, queries: &[Aabb<D>]) -> (Vec<Vec<Aabb<D>>>, Vec<Vec<usize>>, u64) {
        let n = self.ranks.len();
        let mut parts: Vec<Vec<Aabb<D>>> = vec![Vec::new(); n];
        let mut pos: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut touches = 0u64;
        let mut hit = Vec::with_capacity(n);
        for (qi, q) in queries.iter().enumerate() {
            self.placement.ranks_intersecting(q, &mut hit);
            for &r in &hit {
                parts[r as usize].push(*q);
                pos[r as usize].push(qi);
                touches += 1;
            }
        }
        self.meter.work(queries.len() as u64 * costs::ROUTE_BOX_CYCLES);
        (parts, pos, touches)
    }

    /// Batched BoxCount: exact count per box, summed over the intersecting
    /// ranks (each stored point lives on exactly one rank, so the sum is
    /// exact).
    pub fn batch_box_count(&mut self, queries: &[Aabb<D>]) -> Vec<u64> {
        if queries.is_empty() {
            return Vec::new();
        }
        let mut acc = self.begin_op();
        let (parts, pos, touches) = self.route_boxes(queries);
        let phase = scatter(&mut self.ranks, parts, |rank, part| rank.batch_box_count(part));
        Self::fold_concurrent(&mut acc, &phase);
        let mut out = vec![0u64; queries.len()];
        for (r, slot) in phase.iter().enumerate() {
            if let Some((counts, _)) = slot {
                for (j, &qi) in pos[r].iter().enumerate() {
                    out[qi] += counts[j];
                }
            }
        }
        acc.rank_touches += touches;
        self.finish_op(acc, "box_count", queries.len() as u64, queries.len() as u64);
        out
    }

    /// Batched BoxFetch: the stored points in each box, gathered across
    /// ranks and canonically sorted by coordinates (the single-rank API
    /// leaves the order unspecified; the shard gather makes it canonical so
    /// results are comparable across any placement state).
    pub fn batch_box_fetch(&mut self, queries: &[Aabb<D>]) -> Vec<Vec<Point<D>>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let mut acc = self.begin_op();
        let (parts, pos, touches) = self.route_boxes(queries);
        let phase = scatter(&mut self.ranks, parts, |rank, part| rank.batch_box_fetch(part));
        Self::fold_concurrent(&mut acc, &phase);
        let mut out: Vec<Vec<Point<D>>> = vec![Vec::new(); queries.len()];
        for (slot, pos) in phase.into_iter().zip(&pos) {
            let Some((fetched, _)) = slot else { continue };
            for (part, &qi) in fetched.into_iter().zip(pos) {
                if out[qi].is_empty() {
                    // The first contributing rank's vector is the result's.
                    out[qi] = part;
                } else {
                    out[qi].extend_from_slice(&part);
                }
            }
        }
        let elements: u64 = out.iter().map(|v| v.len() as u64).sum();
        self.meter.work(elements * MERGE_CYCLES);
        for v in &mut out {
            v.sort_unstable_by_key(|a| a.coords);
        }
        acc.rank_touches += touches;
        self.finish_op(acc, "box_fetch", queries.len() as u64, elements);
        out
    }

    /// Batched k-nearest-neighbor by bound-and-prune scatter-gather:
    ///
    /// 1. every query runs as a full kNN on its **home** rank (the rank
    ///    owning its key);
    /// 2. the k-th home candidate bounds a ball box (the universe when the
    ///    home rank returned fewer than k);
    /// 3. a query whose ball crosses a cell boundary files one **widen
    ///    request** with each other rank whose leaves the ball intersects —
    ///    for a **bounded box fetch**, not a kNN search: a foreign rank can
    ///    only contribute points within the home bound, and a widened query
    ///    point lies outside the foreign rank's cells, where its kNN anchor
    ///    would degrade toward the root and cost far more than the fetch;
    /// 4. each rank's requests are coalesced (`coalesce_widen`): sorted
    ///    by `(query key, query index)` and cut into runs whose union box
    ///    holds at most `COALESCE_VOLUME_FACTOR` (2) × the volume of the
    ///    run's smallest ball box, and **one box per run** is scattered. A
    ///    cluster of queries inside one ball's reach thus pulls the region
    ///    once; far-apart queries stay runs of one. The rule bounds host
    ///    work on any input: a member sifts through at most that factor ×
    ///    its own box's worth of points, and a run never fetches more than
    ///    its members' boxes sum to;
    /// 5. the host hands a run's points to every member, keeps those inside
    ///    the member's own ball box (exactly what its own fetch would have
    ///    returned), evaluates the exact metric over them (the same
    ///    fine-filter role it plays inside single-rank kNN) and merges by
    ///    `(distance, coords)` — byte-identical to the single-rank result,
    ///    since each stored point lives on exactly one rank and every
    ///    global top-k point is within the home bound. Every (member,
    ///    fetched point) pair and the grouping pass are charged to the
    ///    host meter.
    ///
    /// [`ShardOpStats::widen_requests`] and
    /// [`ShardOpStats::widen_fetches`] count steps 3 and 4.
    ///
    /// Results follow the single-rank contract: ≤ k `(comparable distance,
    /// point)` pairs, distinct points, sorted by `(distance, coords)`.
    pub fn batch_knn(
        &mut self,
        queries: &[Point<D>],
        k: usize,
        metric: Metric,
    ) -> Vec<Vec<(u64, Point<D>)>> {
        if queries.is_empty() || k == 0 {
            return vec![Vec::new(); queries.len()];
        }
        let mut acc = self.begin_op();
        let Routed { parts, pos, homes } = self.route_points(queries);
        let home = scatter(&mut self.ranks, parts, |rank, part| rank.batch_knn(part, k, metric));
        Self::fold_concurrent(&mut acc, &home);
        let mut out: Vec<Vec<(u64, Point<D>)>> = vec![Vec::new(); queries.len()];
        for (slot, pos) in home.into_iter().zip(&pos) {
            let Some((res, _)) = slot else { continue };
            for (v, &qi) in res.into_iter().zip(pos) {
                out[qi] = v;
            }
        }
        acc.rank_touches += queries.len() as u64;

        // Bound-and-prune widening: which foreign ranks does each query's
        // ball reach?
        let n = self.ranks.len();
        let mut reqs: Vec<Vec<WidenReq<D>>> = vec![Vec::new(); n];
        if n > 1 {
            self.meter.work(queries.len() as u64 * ROUTE_CYCLES);
            let mut hit = Vec::with_capacity(n);
            for (qi, (q, &(key, home_rank))) in queries.iter().zip(&homes).enumerate() {
                let bound = if out[qi].len() == k { out[qi][k - 1].0 } else { u64::MAX };
                let ball = ball_box::<D>(q, bound, metric);
                self.placement.ranks_intersecting(&ball, &mut hit);
                for &r in hit.iter().filter(|&&r| r != home_rank) {
                    reqs[r as usize].push(WidenReq { key, qi, ball });
                }
            }
        }
        acc.widen_requests = reqs.iter().map(|r| r.len() as u64).sum();
        acc.rank_touches += acc.widen_requests;
        if acc.widen_requests > 0 {
            // Pull once per cluster: each rank's requests coalesce into
            // runs, and one box per run is scattered.
            self.meter.work(acc.widen_requests * COALESCE_CYCLES);
            let runs: Vec<Vec<(Aabb<D>, usize)>> =
                reqs.iter_mut().map(|r| coalesce_widen(r)).collect();
            acc.widen_fetches = runs.iter().map(|r| r.len() as u64).sum();
            let boxes = runs.iter().map(|r| r.iter().map(|&(bx, _)| bx).collect()).collect();
            let widen = scatter(&mut self.ranks, boxes, |rank, part| rank.batch_box_fetch(part));
            Self::fold_concurrent(&mut acc, &widen);
            // Fine filter + merge are host work, like single-rank step 5. A
            // run's points go to every member: the member's own ball box
            // picks out exactly what its own fetch would have returned, and
            // each survivor is held against the query's sorted, distinct
            // home list, which `push_candidate` keeps sorted, distinct
            // (duplicate stored copies collapse, as `batch_knn` promises)
            // and at most k long — the single-rank answer bit for bit, with
            // no list ever growing past k.
            let mut considered = 0u64;
            for ((slot, runs), reqs) in widen.iter().zip(&runs).zip(&reqs) {
                let Some((fetched, _)) = slot else { continue };
                let mut members = reqs.iter();
                for (part, &(_, len)) in fetched.iter().zip(runs) {
                    considered += (part.len() * len) as u64;
                    for m in members.by_ref().take(len) {
                        let q = &queries[m.qi];
                        for p in part.iter().filter(|p| m.ball.contains(p)) {
                            let cand = (metric.cmp_dist(q, p), *p);
                            push_candidate(&mut out[m.qi], k, cand, &mut NullSink);
                        }
                    }
                }
            }
            self.meter.work(considered * costs::widen_filter_cycles(D));
        }
        let elements = (queries.len() as u64).saturating_mul(k as u64);
        self.finish_op(acc, "knn", queries.len() as u64, elements);
        out
    }

    // -----------------------------------------------------------------
    // Skew-driven rebalancing
    // -----------------------------------------------------------------

    /// Checks the straggler-path imbalance of the window since the last
    /// check and, when it exceeds the threshold, splits or migrates the
    /// hottest leaves of the hottest rank (≤ `MAX_ACTIONS` actions, and
    /// only moves that lower the hotter of the two ranks). Runs
    /// automatically at batch boundaries when `auto_rebalance` is set; this
    /// entry point lets callers with `auto_rebalance` off trigger it
    /// manually between batches. Returns the number of actions taken.
    pub fn rebalance_now(&mut self) -> u64 {
        let mut acc = ShardOpStats::fresh(self.ranks.len());
        self.meter.start_measurement();
        let actions = self.check_rebalance(&mut acc);
        // Migrations are no queries: only their cost is the operation's.
        (acc.agg.batch_ops, acc.agg.elements) = (0, 0);
        acc.agg.worst_imbalance = acc.busy_cycle_imbalance();
        self.last_stats = acc;
        actions
    }

    fn check_rebalance(&mut self, acc: &mut ShardOpStats) -> u64 {
        let n = self.ranks.len();
        if n < 2 {
            return 0;
        }
        // What a rank's window cost in time: its straggler path. A sum over
        // modules would hide a rank whose whole load sits on one of them.
        let deltas: Vec<u64> = self
            .ranks
            .iter()
            .zip(&self.cycles_base)
            .map(|(r, base)| r.sim_stats().sum_max_cycles - base)
            .collect();
        let total: u64 = deltas.iter().sum();
        if total == 0 {
            return 0;
        }
        let mean = total as f64 / n as f64;
        let max = *deltas.iter().max().unwrap();
        if (max as f64) / mean <= self.cfg.rebalance_threshold {
            return 0;
        }
        let total_heat: u64 = self.heat.values().sum();
        if total_heat == 0 {
            self.reset_window();
            return 0;
        }
        if self.metrics.enabled() {
            self.metrics.with(|m| m.add("shard_rebalance_triggers_total", &[], 1));
        }
        let hl = heat_level(D);
        let fair = total_heat / n as u64;
        let mut actions = 0u64;
        while actions < MAX_ACTIONS {
            // Re-derive per-leaf heat from the probe map under the current
            // placement (splits refine it between iterations). BTreeMaps
            // keep every argmax independent of hash iteration order.
            self.meter.work(self.heat.len() as u64 * ROUTE_CYCLES);
            let mut per_rank_leaves: Vec<BTreeMap<CellId, u64>> = vec![BTreeMap::new(); n];
            let mut rank_heat = vec![0u64; n];
            let shift = ZKey::<D>::BITS - hl * D as u32;
            for (&prefix, &h) in &self.heat {
                let key = prefix << shift;
                let cell = self.placement.cell_of_key(key);
                let owner = self.placement.owner_of_key(key) as usize;
                rank_heat[owner] += h;
                *per_rank_leaves[owner].entry(cell).or_insert(0) += h;
            }
            // Migrate from the *heat*-hottest rank. Cycle imbalance is the
            // trigger, but cycles weigh a query by what its home search
            // costs (a filament query costs many uniform ones) and include
            // the coalesced widen fetches served for other ranks' queries;
            // routing heat is what placement can actually move.
            let (hot, _) = rank_heat
                .iter()
                .enumerate()
                .max_by_key(|&(i, &h)| (h, std::cmp::Reverse(i)))
                .unwrap();
            let leaf_heat = &per_rank_leaves[hot];
            // Hot rank already at (or below) its fair share: done.
            if rank_heat[hot] <= fair || leaf_heat.is_empty() {
                break;
            }
            let (&leaf, &lh) =
                leaf_heat.iter().max_by_key(|&(c, &h)| (h, std::cmp::Reverse(*c))).unwrap();
            if lh > fair && leaf.level < hl {
                // The single leaf is hotter than a whole fair share: refine
                // it so heat becomes divisible (the Varden filament case —
                // a point mass no move can balance). Only while the leaf is
                // coarser than the heat probes: a leaf at (or below) probe
                // granularity maps every one of its probes to one child, so
                // splitting it just renames the hot cell and bounces the
                // same points between ranks once per action.
                let kids = self.placement.split(leaf);
                self.cell_splits += 1;
                for (kc, owner) in kids {
                    if owner != hot as u32 {
                        self.move_cell_points(kc, hot, owner as usize, acc);
                    }
                }
            } else {
                // Move the leaf to the heat-coldest rank — while that is a
                // descent: the receiver must end up cooler than the donor
                // was, or the leaf (hotter than the gap between them) would
                // only trade places with itself until the budget ran out.
                let (cold, _) = rank_heat.iter().enumerate().min_by_key(|&(i, &h)| (h, i)).unwrap();
                if rank_heat[cold] + lh >= rank_heat[hot] {
                    break;
                }
                self.placement.set_owner(leaf, cold as u32);
                self.leaf_moves += 1;
                self.move_cell_points(leaf, hot, cold, acc);
            }
            actions += 1;
        }
        acc.rebalance_actions += actions;
        if self.metrics.enabled() && actions > 0 {
            self.metrics.with(|m| m.add("shard_rebalance_actions_total", &[], actions));
        }
        self.reset_window();
        actions
    }

    /// Migrates the points of `cell` from rank `from` to rank `to` through
    /// the public timed ops (fetch → delete → insert), so migration cost is
    /// fully accounted and journaled on both ranks. The placement table was
    /// already updated by the caller, so queries racing the migration in
    /// program order route consistently.
    fn move_cell_points(&mut self, cell: CellId, from: usize, to: usize, acc: &mut ShardOpStats) {
        let bx = cell.aabb::<D>();
        let fetched = self.ranks[from].batch_box_fetch(&[bx]);
        Self::fold_sequential(acc, from, &self.ranks[from].last_op_stats().clone());
        let pts = &fetched[0];
        if pts.is_empty() {
            return;
        }
        let removed = self.ranks[from].batch_delete(pts);
        Self::fold_sequential(acc, from, &self.ranks[from].last_op_stats().clone());
        debug_assert_eq!(removed, pts.len(), "cell fetch and delete must agree");
        self.ranks[to].batch_insert(pts);
        Self::fold_sequential(acc, to, &self.ranks[to].last_op_stats().clone());
        self.migrated_points += pts.len() as u64;
    }

    fn reset_window(&mut self) {
        self.heat.clear();
        for (base, rank) in self.cycles_base.iter_mut().zip(&self.ranks) {
            *base = rank.sim_stats().sum_max_cycles;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PimZdConfig;
    use crate::knn::BallRun;

    fn pts(n: u32, seed: u32) -> Vec<Point<3>> {
        (0..n)
            .map(|i| {
                let x = i.wrapping_mul(2654435761).wrapping_add(seed) % (1 << 21);
                let y = i.wrapping_mul(40503).wrapping_add(seed * 7) % (1 << 21);
                let z = i.wrapping_mul(2246822519).wrapping_add(seed * 13) % (1 << 21);
                Point::new([x, y, z])
            })
            .collect()
    }

    fn build_pair(n_ranks: usize, data: &[Point<3>]) -> (ShardedZdTree<3>, PimZdTree<3>) {
        let zcfg = PimZdConfig::throughput_optimized(data.len().max(1) as u64, 16);
        let machine = MachineConfig::with_modules(16);
        let mut scfg = ShardConfig::new(n_ranks);
        scfg.auto_rebalance = false;
        let sharded = ShardedZdTree::build(data, scfg, zcfg, machine);
        let single = PimZdTree::build(data, zcfg, machine);
        (sharded, single)
    }

    #[test]
    fn sharded_queries_match_single_rank() {
        let data = pts(4000, 1);
        let (mut sh, mut single) = build_pair(4, &data);
        assert_eq!(sh.len(), single.len());

        let queries = pts(64, 99);
        assert_eq!(sh.batch_contains(&queries), single.batch_contains(&queries));
        assert_eq!(
            sh.batch_knn(&queries, 5, Metric::L2),
            single.batch_knn(&queries, 5, Metric::L2)
        );

        let boxes: Vec<Aabb<3>> = queries
            .iter()
            .map(|q| {
                let half = 1u32 << 18;
                let lo = Point::new(q.coords.map(|c| c.saturating_sub(half)));
                let hi = Point::new(q.coords.map(|c| (c + half).min((1 << 21) - 1)));
                Aabb::new(lo, hi)
            })
            .collect();
        assert_eq!(sh.batch_box_count(&boxes), single.batch_box_count(&boxes));
        let mut want = single.batch_box_fetch(&boxes);
        for v in &mut want {
            v.sort_unstable_by_key(|a| a.coords);
        }
        assert_eq!(sh.batch_box_fetch(&boxes), want);
    }

    #[test]
    fn sharded_updates_match_single_rank() {
        let data = pts(2000, 3);
        let (mut sh, mut single) = build_pair(3, &data);
        let extra = pts(500, 77);
        sh.batch_insert(&extra);
        single.batch_insert(&extra);
        assert_eq!(sh.len(), single.len());
        let removed_s = sh.batch_delete(&extra[..200]);
        let removed_1 = single.batch_delete(&extra[..200]);
        assert_eq!(removed_s, removed_1);
        let queries = pts(32, 5);
        assert_eq!(
            sh.batch_knn(&queries, 3, Metric::L1),
            single.batch_knn(&queries, 3, Metric::L1)
        );
    }

    #[test]
    fn knn_crosses_shard_boundaries() {
        // Two adjacent points in different cells: a 2-NN from either side
        // must find both, proving the widen phase reaches foreign ranks.
        let data = pts(3000, 9);
        let (mut sh, mut single) = build_pair(8, &data);
        let stats_fanout_before = sh.last_shard_stats().fanout();
        let queries = pts(128, 31);
        let got = sh.batch_knn(&queries, 10, Metric::L2);
        let want = single.batch_knn(&queries, 10, Metric::L2);
        assert_eq!(got, want);
        let st = sh.last_shard_stats();
        assert!(st.fanout() > 1.0, "10-NN over 8 ranks must widen sometimes: {}", st.fanout());
        assert!(st.fanout() >= stats_fanout_before || stats_fanout_before == 1.0);
    }

    #[test]
    fn rebalance_preserves_results() {
        let data = pts(2000, 11);
        let zcfg = PimZdConfig::throughput_optimized(data.len() as u64, 16);
        let machine = MachineConfig::with_modules(16);
        let mut scfg = ShardConfig::new(4);
        scfg.auto_rebalance = true;
        scfg.rebalance_threshold = 1.01; // trigger aggressively
        let mut sh = ShardedZdTree::build(&data, scfg, zcfg, machine);
        let mut single = PimZdTree::build(&data, zcfg, machine);
        // Skewed queries: all in one corner, heating one rank.
        let hot: Vec<Point<3>> = (0..256u32).map(|i| Point::new([i % 64, i / 64, 3])).collect();
        for _ in 0..4 {
            sh.batch_knn(&hot, 3, Metric::L2);
        }
        let (moves, splits, migrated) = sh.rebalance_counters();
        assert!(
            moves + splits > 0,
            "skewed load must trigger rebalancing (moves={moves} splits={splits} migrated={migrated})"
        );
        assert_eq!(sh.len(), data.len(), "migration preserves the multiset size");
        let queries = pts(64, 13);
        assert_eq!(
            sh.batch_knn(&queries, 5, Metric::L2),
            single.batch_knn(&queries, 5, Metric::L2)
        );
        assert_eq!(sh.batch_contains(&data[..100]), single.batch_contains(&data[..100]));
    }

    /// A query for the grouping properties: a centre on a coarse lattice
    /// (equal keys are common) and a radius exponent, from 0 to far past the
    /// lattice pitch.
    fn run_input() -> impl proptest::prelude::Strategy<Value = (Point<3>, u32)> {
        use proptest::prelude::*;
        (0u32..6, 0u32..6, 0u32..6, 0u32..5)
            .prop_map(|(x, y, z, e)| (Point::new([1000 + 40 * x, 1000 + 40 * y, 1000 + 40 * z]), e))
    }

    /// `v` in another arrival order.
    fn permuted<T: Clone>(v: &[T], shuffle: u64) -> Vec<T> {
        let mut out = v.to_vec();
        for i in 1..out.len() {
            out.swap(i, (shuffle.rotate_left(i as u32) % (i as u64 + 1)) as usize);
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The grouping contract of [`cut_runs`] under both accumulators —
        /// the union box of [`coalesce_widen`] and the covering ball of the
        /// kNN ball phase — on clustered, scattered and mixed-size input.
        /// The factor is spelled out: the rule is "at most twice".
        #[test]
        fn coalesced_runs_partition_cover_and_bound(
            input in proptest::collection::vec(run_input(), 0..40),
            metric in 0usize..3,
            shuffle in 0u64..u64::MAX,
        ) {
            use proptest::prelude::*;
            let metric = [Metric::L1, Metric::L2, Metric::Linf][metric];
            let mut reqs: Vec<WidenReq<3>> = input
                .iter()
                .enumerate()
                .map(|(qi, (q, e))| WidenReq {
                    key: ZKey::<3>::encode(q).0,
                    qi,
                    ball: ball_box::<3>(q, (1u64 << (3 * e)) - 1, Metric::Linf),
                })
                .collect();
            let runs = coalesce_widen(&mut reqs);
            // Sorted by (key, qi), and the runs partition that order.
            prop_assert!(reqs.windows(2).all(|w| (w[0].key, w[0].qi) < (w[1].key, w[1].qi)));
            prop_assert!(runs.iter().all(|&(_, len)| len > 0));
            prop_assert_eq!(runs.iter().map(|&(_, len)| len).sum::<usize>(), reqs.len());
            let mut rest = &reqs[..];
            for &(bx, len) in &runs {
                let (members, tail) = rest.split_at(len);
                rest = tail;
                let smallest = members.iter().map(|m| m.ball.volume()).min().unwrap();
                prop_assert!(members.iter().all(|m| bx.contains_box(&m.ball)));
                prop_assert!(bx.volume() <= 2 * smallest);
            }
            // Any arrival order of the same requests gives the same runs.
            let mut again = permuted(&reqs, shuffle);
            prop_assert_eq!(coalesce_widen(&mut again), runs);
            prop_assert_eq!(again, reqs);

            // The ball instance: `(key, qid, query, comparable radius)`, the
            // radius a universe one now and then.
            let ball_runs = |items: &mut Vec<(u64, usize, Point<3>, u64)>| {
                items.sort_unstable_by_key(|&(key, qid, ..)| (key, qid));
                cut_runs(
                    items.iter(),
                    |&&(.., q, r)| BallRun::start(metric, &q, r, u64::MAX),
                    |run, &&(.., q, r)| run.join(metric, &q, r, u64::MAX),
                )
            };
            let mut items: Vec<(u64, usize, Point<3>, u64)> = input
                .iter()
                .enumerate()
                .map(|(qid, (q, e))| {
                    let r = if qid % 7 == 6 { u64::MAX } else { (1u64 << (3 * e)) - 1 };
                    (ZKey::<3>::encode(q).0, qid, *q, r)
                })
                .collect();
            let runs = ball_runs(&mut items);
            prop_assert_eq!(runs.iter().map(|&(_, len)| len).sum::<usize>(), items.len());
            let linear = |r: u64| if metric == Metric::L2 { pim_geom::isqrt_ceil(r) } else { r };
            let mut rest = &items[..];
            for (run, len) in &runs {
                let (members, tail) = rest.split_at(*len);
                rest = tail;
                prop_assert_eq!(run.centre, members[0].2);
                if run.bound == u64::MAX {
                    prop_assert!(members.iter().all(|m| m.3 == u64::MAX));
                    continue;
                }
                // Every member's ball inside the run's, by the triangle
                // inequality, and the run's at most twice the smallest.
                let r_min = members.iter().map(|m| linear(m.3)).min().unwrap();
                let big = linear(run.bound);
                for &(.., q, r) in members {
                    prop_assert!(r != u64::MAX);
                    prop_assert!(linear(r) + linear(metric.cmp_dist(&run.centre, &q)) <= big);
                }
                prop_assert!((big as u128).pow(3) <= 2 * (r_min as u128).pow(3));
                // A run of one is the query's own ball, untouched.
                prop_assert!(*len > 1 || run.bound == members[0].3);
            }
            let mut again = permuted(&items, shuffle);
            prop_assert_eq!(ball_runs(&mut again), runs);
        }
    }

    #[test]
    fn ball_box_l2_contains_the_ball() {
        let q = Point::new([100u32, 100, 100]);
        let b = ball_box::<3>(&q, 25, Metric::L2); // radius 5
        assert!(b.contains(&Point::new([95, 100, 100])));
        assert!(b.contains(&Point::new([105, 104, 97])));
        assert_eq!(ball_box::<3>(&q, u64::MAX, Metric::L2), Aabb::universe());
    }
}
