//! Batched k-nearest-neighbor queries (Alg. 3) with the §6 two-stage
//! coarse/fine metric execution.
//!
//! (1) SEARCH records each query's trace and its *anchor* — the lowest
//! path node whose lazy counter guarantees ≥ k true points (we require
//! SC ≥ 2k, which by Lemma 3.1 implies T ≥ k). (2) A best-k traversal of the
//! anchor's subtree yields k candidates under the *coarse* metric (ℓ1 on the
//! PIM side — additions only; UPMEM multiplies cost 32 cycles). (3) The
//! k-th candidate distance defines a sphere per query, and the queries are
//! cut into **runs** that share one sphere (below). (4) One ball traversal
//! per run, from the lowest node of its centre's trace that contains the
//! run's sphere, gathers every point inside it (√D-inflated, for ℓ2).
//! (5) The host evaluates the exact target metric over the collected set,
//! once per member — the fine-grained stage — and emits each final k.
//!
//! **Runs** are the push-pull rule (§3.3) applied to the ball phase: where
//! a cluster of queries wants the same region, the region is pulled to the
//! host once, not once per query. The queries are ordered by `(Morton key,
//! qid)` — Morton order keeps spatial neighbours adjacent — and that order
//! is cut greedily (`cut_runs`): a query joins the open run only while the
//! run's *covering ball* — centred on the run's first query, radius
//! `R = max over members (r_i + dist(centre, q_i))` by the triangle
//! inequality — keeps `R^D ≤ COALESCE_VOLUME_FACTOR · r_min^D` (factor 2). A
//! member's own ball lies inside the covering ball, so the fine filter sees
//! a superset of the member's true k nearest (and only stored points): the
//! answers are those of one traversal per query, bit for bit. The volume
//! rule bounds both sides on any input: a member sifts through at most that
//! factor × its own ball's worth of points, and a run of two or more
//! fetches at most the factor × its smallest member's volume — no more (at
//! factor 2) than its members' balls sum to. A query with no such
//! neighbour is a run of one, whose task is the per-query one.
//!
//! Steps 2 and 4 are the two modes of one `Probe`, [`KnnTask`], run by
//! the shared engine in `traverse.rs`; this file says what the probe
//! does inside a fragment and with a reply, and drives the five steps.

use crate::frag::{
    knn_bound, push_candidate, AnchorLoc, CostSink, Edge, Fragment, MetaId, RemoteRef,
};
use crate::host::{PimZdTree, L0_META};
use crate::inline::InlineVec;
use crate::module::{KnnReply, KnnTask, REPLY_INLINE};
use crate::soa::{fine_select, CoordBlock};
use crate::traverse::{Hop, Probe, Walk};
use pim_geom::{isqrt_ceil, max_coord_for_dim, Aabb, Metric, Point};
use pim_memsim::CpuMeter;
use pim_zorder::prefix::Prefix;

/// Cap on the up-front reservation of a query's best-k list (`k` is caller
/// input; anything larger grows on demand).
const MAX_CANDS_RESERVE: usize = 1024;

/// A coalesced run may span at most this many times the volume of its
/// smallest member: the covering ball of a ball-phase run here, the union
/// box of a widen-fetch run in the shard router.
pub(crate) const COALESCE_VOLUME_FACTOR: u128 = 2;
/// Host cycles charged per item ordered and cut into runs (a merge step
/// plus a routing step, as the router prices them).
pub(crate) const COALESCE_CYCLES: u64 = 32;

/// Cuts `items`, in the order given, greedily into runs: an item joins the
/// open run when `join` returns the run's grown accumulator, and otherwise
/// starts the next run with `start`. Returns each run's `(accumulator,
/// length)`. The one loop behind both coalescing steps; what a run may span
/// is the accumulator's business.
pub(crate) fn cut_runs<T, S>(
    items: impl IntoIterator<Item = T>,
    start: impl Fn(&T) -> S,
    join: impl Fn(&S, &T) -> Option<S>,
) -> Vec<(S, usize)> {
    let mut runs: Vec<(S, usize)> = Vec::new();
    for item in items {
        if let Some((state, len)) = runs.last_mut() {
            if let Some(grown) = join(state, &item) {
                (*state, *len) = (grown, *len + 1);
                continue;
            }
        }
        runs.push((start(&item), 1));
    }
    runs
}

/// The covering ball of a ball-phase run. Radii come in two forms: the
/// metric's *comparable* one, which tasks carry (squared for ℓ2), and the
/// linear one the triangle inequality and the volume rule need (`⌈√·⌉` of
/// it for ℓ2, so every rounding widens the ball).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct BallRun<const D: usize> {
    /// The run's first query.
    pub centre: Point<D>,
    /// Comparable radius around `centre` covering every member's ball
    /// (`u64::MAX` = the universe).
    pub bound: u64,
    /// The smallest member radius, linear.
    pub r_min: u64,
}

/// The comparable radius `bound` as a length along an axis (`⌈√·⌉` for ℓ2).
fn linear_radius(metric: Metric, bound: u64) -> u64 {
    match metric {
        Metric::L2 => isqrt_ceil(bound),
        Metric::L1 | Metric::Linf => bound,
    }
}

impl<const D: usize> BallRun<D> {
    /// A run of one: the query's own ball, untouched.
    pub fn start(metric: Metric, q: &Point<D>, bound: u64) -> Self {
        BallRun { centre: *q, bound, r_min: linear_radius(metric, bound) }
    }

    /// The run with the ball of comparable radius `bound` around `q` in it,
    /// if the covering ball stays within [`COALESCE_VOLUME_FACTOR`] × the
    /// smallest member's volume. Universe balls join each other and
    /// nothing else.
    pub fn join(&self, metric: Metric, q: &Point<D>, bound: u64) -> Option<Self> {
        if self.bound == u64::MAX || bound == u64::MAX {
            return (self.bound == bound).then_some(*self);
        }
        let r = linear_radius(metric, bound);
        let reach = r + linear_radius(metric, metric.cmp_dist(&self.centre, q));
        let radius = linear_radius(metric, self.bound).max(reach);
        let r_min = self.r_min.min(r);
        let volume = |r: u64| u128::from(r).checked_pow(D as u32);
        if volume(radius)? > COALESCE_VOLUME_FACTOR.saturating_mul(volume(r_min)?) {
            return None;
        }
        let bound = match metric {
            Metric::L2 => radius.saturating_mul(radius),
            Metric::L1 | Metric::Linf => radius,
        };
        Some(BallRun { centre: self.centre, bound, r_min })
    }
}

/// Best-k (`ball == false`): `found` is the sorted list of the `k` nearest
/// distinct points seen so far and the bound is its k-th distance. Ball
/// (`ball == true`): `found` is every point within the fixed radius
/// `bound`, unsorted, duplicates and all — the fine filter re-evaluates
/// the target metric anyway.
impl<const D: usize> Probe<D> for KnnTask<D> {
    type Found = Vec<(u64, Point<D>)>;

    fn qid(&self) -> u32 {
        self.qid
    }

    fn reply_qid(reply: &KnnReply<D>) -> u32 {
        reply.qid
    }

    fn target(&self) -> (MetaId, u32) {
        (self.meta, self.node)
    }

    fn aimed(self, meta: MetaId, node: u32, bound: u64) -> Self {
        KnnTask { meta, node, bound, ..self }
    }

    fn bound(&self, found: &Self::Found) -> u64 {
        if self.ball {
            self.bound
        } else {
            knn_bound(found, self.k as usize).min(self.bound)
        }
    }

    fn step(
        &self,
        frag: &Fragment<D>,
        start: u32,
        found: &mut Self::Found,
        frontier: &mut Vec<Edge<D>>,
        sink: &mut impl CostSink,
    ) {
        if self.ball {
            frag.local_ball(start, &self.q, self.bound, self.metric, found, frontier, sink);
        } else {
            frag.local_knn(start, &self.q, self.k as usize, self.metric, found, frontier, sink);
        }
    }

    fn reply(
        &self,
        found: &mut Self::Found,
        frontier: &[Edge<D>],
        covered: &[MetaId],
    ) -> KnnReply<D> {
        let cands = found.clone();
        found.clear();
        KnnReply {
            qid: self.qid,
            cands,
            frontier: InlineVec::from_slice(frontier),
            covered: InlineVec::from_slice(covered),
        }
    }

    fn absorb(
        &self,
        found: &mut Self::Found,
        reply: KnnReply<D>,
        meter: &mut CpuMeter,
        frontier: &mut Vec<Hop>,
    ) -> InlineVec<MetaId, REPLY_INLINE> {
        frontier.extend(reply.frontier.iter().map(|(r, d)| (r.meta, u32::MAX, *d)));
        if self.ball {
            debug_assert!(reply.cands.iter().all(|c| c.0 <= self.bound));
            meter.work(8 * reply.cands.len() as u64);
            if found.is_empty() {
                // The reply's one allocation becomes the walk's.
                *found = reply.cands;
            } else {
                found.extend_from_slice(&reply.cands);
            }
        } else {
            for c in reply.cands {
                meter.work(30);
                let mut sink = PimZdTree::<D>::l0_sink(meter);
                push_candidate(found, self.k as usize, c, &mut sink);
            }
        }
        reply.covered
    }
}

impl<const D: usize> PimZdTree<D> {
    /// Batched exact k-nearest-neighbor query under `metric`. Results are
    /// sorted by (comparable distance, coordinates); ℓ2 distances are
    /// squared.
    ///
    /// The ball phase runs once per *run* of queries, not once per query:
    /// queries in Morton order whose spheres fit one covering ball of at
    /// most twice (`COALESCE_VOLUME_FACTOR`) the smallest sphere's volume share
    /// one traversal, and each takes its k nearest from the shared set (see
    /// the module docs for the rule and why no answer changes). The host
    /// meter is charged `COALESCE_CYCLES` (32) per query for the grouping pass
    /// and the fine filter per (member, collected point) pair; a registry,
    /// when attached, gets `host_knn_ball_queries_total` and
    /// `host_knn_ball_runs_total`.
    pub fn batch_knn(
        &mut self,
        queries: &[Point<D>],
        k: usize,
        metric: Metric,
    ) -> Vec<Vec<(u64, Point<D>)>> {
        if queries.is_empty() {
            return Vec::new();
        }
        self.phased("knn", |t| {
            t.measured(queries.len() as u64, |t| {
                let out = t.knn_inner(queries, k, metric);
                let elements: u64 = out.iter().map(|v| v.len() as u64).sum();
                (out, elements)
            })
        })
    }

    fn knn_inner(
        &mut self,
        queries: &[Point<D>],
        k: usize,
        metric: Metric,
    ) -> Vec<Vec<(u64, Point<D>)>> {
        let n = queries.len();
        // Empty tree or k = 0: every query answers with no neighbors. The
        // root is captured here so no later step needs to touch `self.l0`
        // unguarded.
        let l0_root = match self.l0.as_ref() {
            Some(l0) if k > 0 => l0.root,
            _ => return vec![Vec::new(); n],
        };
        let two_stage = self.cfg.toggles.coarse_fine_knn && metric.needs_multiplication();
        let coarse = if two_stage { Metric::L1 } else { metric };

        // Step 1: SEARCH with anchors (SC ≥ 2k ⇒ T ≥ k by Lemma 3.1).
        let want = (k as u64).saturating_mul(2);
        let s = self.batch_search_internal(queries, want);

        // Step 2: best-k traversal of the anchor subtrees (coarse metric).
        let mut walks: Vec<Walk<D, KnnTask<D>>> = (0..n)
            .map(|qid| {
                let (meta, node) = match &s.anchors[qid] {
                    Some(a) => (a.meta, a.node),
                    // No anchor (tiny tree): start at the root.
                    None => (L0_META, l0_root),
                };
                let mut walk = Walk::new(KnnTask {
                    qid: qid as u32,
                    meta,
                    node,
                    q: queries[qid],
                    k: k.min(u32::MAX as usize) as u32,
                    bound: u64::MAX,
                    metric: coarse,
                    ball: false,
                });
                walk.found = Vec::with_capacity(k.min(MAX_CANDS_RESERVE));
                walk
            })
            .collect();
        self.traverse(&mut walks);

        // Step 3: sphere radius per query.
        let mut fine: Vec<u64> = self.bufs.take_vec();
        let mut radii: Vec<u64> = self.bufs.take_vec();
        for w in walks.iter_mut() {
            let x = if w.found.len() >= k { w.found[k - 1].0 } else { u64::MAX };
            // Radius under the coarse metric guaranteed to contain the true
            // k nearest under the target metric.
            radii.push(if x == u64::MAX {
                u64::MAX
            } else if two_stage {
                // Tighten first: evaluate the *fine* metric on the k coarse
                // candidates host-side (k cheap CPU multiplies). The k-th
                // fine distance r₂ upper-bounds the true k-th ℓ2 distance,
                // so the true kNN all lie within ℓ1 ≤ √D·r₂ ≤ √D·x.
                self.meter.work(6 * D as u64 * w.found.len() as u64);
                fine.clear();
                fine.extend(w.found.iter().map(|(_, p)| metric.cmp_dist(&w.probe.q, p)));
                fine.sort_unstable();
                let r2_sq = fine[k - 1];
                let r2 = isqrt_ceil(r2_sq);
                Metric::anchor_inflate(r2, D)
            } else {
                x
            });
            w.found.clear();
        }
        self.bufs.put_vec(fine);

        // The queries in `(Morton key, qid)` order, cut into runs that share
        // one covering ball (module docs).
        let mut order: Vec<u32> = self.bufs.take_vec();
        order.extend(0..n as u32);
        order.sort_unstable_by_key(|&qid| (s.keys[qid as usize], qid));
        self.meter.work(n as u64 * COALESCE_CYCLES);
        let member = |&qid: &u32| (&queries[qid as usize], radii[qid as usize]);
        let runs = cut_runs(
            order.iter().map(member),
            |&(q, r)| BallRun::start(coarse, q, r),
            |run, &(q, r)| run.join(coarse, q, r),
        );
        self.bufs.put_vec(radii);

        // Each run takes over one of the finished walks, storage and all,
        // and enters at the lowest node of its centre's trace that contains
        // the covering ball.
        let mut first = 0;
        for (j, (run, len)) in runs.iter().enumerate() {
            self.meter.work(30);
            let hops = &s.hops[order[first] as usize];
            let (meta, node) =
                self.lowest_trace_node_containing(hops, &run.centre, run.bound, coarse);
            let w = &mut walks[j];
            w.restart(KnnTask {
                qid: j as u32,
                meta,
                node,
                q: run.centre,
                bound: run.bound,
                ball: true,
                ..w.probe
            });
            first += len;
        }

        // Step 4: collect everything inside the covering balls.
        self.traverse(&mut walks[..runs.len()]);
        self.sys.metrics().with(|m| {
            m.add("host_knn_ball_queries_total", &[], n as u64);
            m.add("host_knn_ball_runs_total", &[], runs.len() as u64);
        });

        // Step 5: fine filtering on the CPU (§6) — a run's points go
        // lane-major into one reused block, once, and the SoA distance
        // kernel streams it through a bounded max-heap per member (k results
        // in (distance, coords) order, duplicates dropped). One aggregated
        // charge per run stands for the per-(member, point) charges.
        let _span = pim_obs::span("fine_filter");
        let mut block = CoordBlock::new();
        let mut out = vec![Vec::new(); n];
        let mut members = order.iter();
        for (w, (_, len)) in walks.iter().zip(&runs) {
            self.meter.work(6 * D as u64 * (w.found.len() * len) as u64);
            block.refill(w.found.iter().map(|(_, p)| p));
            for &qid in members.by_ref().take(*len) {
                out[qid as usize] = fine_select(&block, &queries[qid as usize], metric, k);
            }
        }
        self.bufs.put_vec(order);
        out
    }

    /// Finds the deepest node on the query's (meta-granularity) trace whose
    /// box contains the ball of comparable radius `radius` around `q`; the
    /// trace is the host-visible L0 path plus the hop chain.
    fn lowest_trace_node_containing(
        &mut self,
        hops: &[RemoteRef<D>],
        q: &Point<D>,
        radius: u64,
        metric: Metric,
    ) -> (MetaId, u32) {
        // kNN on an empty tree returns before reaching this step; the hop
        // fallback keeps the path structurally panic-free regardless.
        let Some(l0) = self.l0.as_ref() else {
            return (hops.first().map_or(L0_META, |r| r.meta), u32::MAX);
        };
        let mut best = (L0_META, l0.root);
        if radius == u64::MAX {
            return best;
        }
        // Clipping to the grid is safe: no point lies outside it.
        let ball = ball_box(q, radius, metric);
        let contains = |p: &Prefix<D>| p.to_box().contains_box(&ball);

        // The L0 part of the path; the ref it leaves L0 through is the
        // first hop of the chain below.
        let key = pim_zorder::ZKey::<D>::encode(q);
        let mut sink = Self::l0_sink(&mut self.meter);
        if let Some((_, AnchorLoc::Local(node))) =
            l0.lowest_on_path(key, 12, |p, _| contains(p), &mut sink)
        {
            best = (L0_META, node);
        }
        // Then the hop chain (fragment roots).
        for r in hops {
            self.meter.work(12);
            if contains(&r.prefix) {
                best = (r.meta, u32::MAX);
            }
        }
        best
    }
}

/// The axis-aligned box guaranteed to contain every point within comparable
/// distance `bound` of `q` (`bound` is squared for ℓ2), clamped to the
/// grid. `u64::MAX` means "unbounded" and yields the universe.
pub(crate) fn ball_box<const D: usize>(q: &Point<D>, bound: u64, metric: Metric) -> Aabb<D> {
    if bound == u64::MAX {
        return Aabb::universe();
    }
    let m = max_coord_for_dim(D) as u64;
    let half = linear_radius(metric, bound).min(m);
    let mut lo = [0u32; D];
    let mut hi = [0u32; D];
    for i in 0..D {
        let c = q.coords[i] as u64;
        lo[i] = c.saturating_sub(half) as u32;
        hi[i] = (c + half).min(m) as u32;
    }
    Aabb::new(Point::new(lo), Point::new(hi))
}
