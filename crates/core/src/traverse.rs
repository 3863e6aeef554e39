//! The push-pull batched traversal (§3.3) behind kNN and box queries.
//!
//! Every query that follows *all* subtrees meeting a region — the best-k and
//! ball phases of kNN, BoxCount, BoxFetch — runs the same skeleton: seed on
//! L0 (at the node the caller's descent chose: a box's or a ball run's split
//! node, `Fragment::split_from`), dedup the frontier, count per-meta demand,
//! **pull** hot fragments to the host or **push** tasks to their modules,
//! fold the replies, repeat.
//! That skeleton lives here once, as a host loop ([`PimZdTree::traverse`])
//! and, in [`crate::module::chase`], its module-side half.
//!
//! What differs between the kinds is a [`Probe`]: the task type the modules
//! receive (`KnnTask`, `BoxTask` — the wire structs, mode flag included).
//! A probe supplies
//!
//! * its **fragment-local step**, generic over [`CostSink`], so one body
//!   charges the host meter (L0, pulled fragments) or a `PimCtx` (pushed),
//! * its **pruning bound** (`u64::MAX` for boxes),
//! * what it **accumulates** ([`Probe::Found`]) — per query on the host, per
//!   reply on a module,
//! * how a module **cuts a reply** from that and how the host **absorbs** one.
//!
//! SEARCH is not a probe: it follows a single successor per query, pulls in
//! an inner loop and tracks anchors, none of which this loop should branch
//! on.

use crate::frag::{CostSink, Edge, Fragment, HostSink, MetaId};
use crate::host::{held_in, PimZdTree, Reroutable, L0_META};
use crate::inline::InlineVec;
use crate::module::{chase, REPLY_INLINE};
use pim_geom::Metric;
use pim_memsim::CpuMeter;
use pim_sim::Wire;

/// A frontier entry: `(fragment, start node, lower bound)`; `u32::MAX`
/// starts at the fragment's root.
pub(crate) type Hop = (MetaId, u32, u64);

/// Safety valve: a correct traversal descends the meta-tree, so hitting
/// this means a routing bug.
const MAX_ROUNDS: usize = 1000;

/// Covered metas a query remembers in place: a kNN ball or a small box
/// rarely spans more fragments than this.
const VISITED_INLINE: usize = 4;

/// One kind of traversal, described by its task; see the module docs.
pub(crate) trait Probe<const D: usize>:
    Reroutable<D> + Wire + Copy + Send + 'static
{
    /// What the traversal gathers.
    type Found: Default;

    /// Query index within the batch.
    fn qid(&self) -> u32;
    /// Query index a reply answers.
    fn reply_qid(reply: &Self::Reply) -> u32;
    /// The fragment and node the task enters ([`L0_META`] = the host's L0).
    fn target(&self) -> (MetaId, u32);
    /// This probe as the task for one frontier entry, carrying the host's
    /// current bound.
    fn aimed(self, meta: MetaId, node: u32, bound: u64) -> Self;
    /// Subtrees whose lower bound exceeds this are not worth entering.
    fn bound(&self, found: &Self::Found) -> u64;
    /// Explores `frag` below `start`, gathering into `found` and listing the
    /// remote subtrees still worth a visit.
    fn step(
        &self,
        frag: &Fragment<D>,
        start: u32,
        found: &mut Self::Found,
        frontier: &mut Vec<Edge<D>>,
        sink: &mut impl CostSink,
    );
    /// Module side: cuts the reply from what the task gathered, leaving
    /// `found` empty (storage kept) for the next task.
    fn reply(
        &self,
        found: &mut Self::Found,
        frontier: &[Edge<D>],
        covered: &[MetaId],
    ) -> Self::Reply;
    /// Host side: folds a reply's payload into `found` and its surfaced
    /// subtrees into `frontier`; returns the masters it covered.
    fn absorb(
        &self,
        found: &mut Self::Found,
        reply: Self::Reply,
        meter: &mut CpuMeter,
        frontier: &mut Vec<Hop>,
    ) -> InlineVec<MetaId, REPLY_INLINE>;
}

/// One query's traversal state.
pub(crate) struct Walk<const D: usize, K: Probe<D>> {
    /// The query; its target is where the traversal starts.
    pub probe: K,
    /// Everything gathered so far.
    pub found: K::Found,
    frontier: Vec<Hop>,
    /// Masters whose payloads were already covered (refs to them may still
    /// arrive via other paths).
    visited: InlineVec<MetaId, VISITED_INLINE>,
    /// Whether the probe's target has been entered — by [`PimZdTree::traverse`]
    /// seeding the walk, or before the walk existed ([`Self::resume`]).
    entered: bool,
}

impl<const D: usize, K: Probe<D>> Walk<D, K> {
    pub fn new(probe: K) -> Self {
        Walk {
            probe,
            found: K::Found::default(),
            frontier: Vec::new(),
            visited: InlineVec::new(),
            entered: false,
        }
    }

    /// Re-arms a finished walk for another traversal, keeping its storage
    /// and whatever the caller leaves in `found`.
    pub fn restart(&mut self, probe: K) {
        self.probe = probe;
        // Entries beyond the final bound may be left over.
        self.frontier.clear();
        self.visited.clear();
        self.entered = false;
    }

    /// Picks a fresh walk up where a module left it: the probe's first task
    /// already ran there (riding another round) and `reply` is its answer,
    /// so [`PimZdTree::traverse`] has only the reply's frontier to visit.
    pub fn resume(&mut self, reply: K::Reply, meter: &mut CpuMeter) {
        self.entered = true;
        self.absorb(reply, meter);
    }

    /// Folds one reply into the walk.
    fn absorb(&mut self, reply: K::Reply, meter: &mut CpuMeter) {
        let covered = self.probe.absorb(&mut self.found, reply, meter, &mut self.frontier);
        for m in covered.iter() {
            if !self.visited.contains(m) {
                self.visited.push(*m);
            }
        }
    }

    fn bound(&self) -> u64 {
        self.probe.bound(&self.found)
    }

    /// Runs the probe's step on a host-resident fragment; what it could not
    /// enter joins the frontier (`remote` is scratch). Returns the nodes the
    /// step entered.
    fn step_on_host(
        &mut self,
        frag: &Fragment<D>,
        node: u32,
        sink: HostSink<'_>,
        remote: &mut Vec<Edge<D>>,
    ) -> u64 {
        let start = if node == u32::MAX { frag.root } else { node };
        remote.clear();
        let mut sink = Counted { sink, nodes: 0 };
        self.probe.step(frag, start, &mut self.found, remote, &mut sink);
        self.frontier.extend(remote.iter().map(|(r, d)| (r.meta, u32::MAX, *d)));
        sink.nodes
    }
}

/// A host sink that counts the nodes a step enters.
struct Counted<'a> {
    sink: HostSink<'a>,
    nodes: u64,
}

impl CostSink for Counted<'_> {
    fn op(&mut self, n: u64) {
        self.sink.op(n);
    }
    fn mem(&mut self, off: u64, bytes: u64) {
        self.sink.mem(off, bytes);
    }
    fn dist_n(&mut self, metric: Metric, d: usize, n: u64) {
        self.sink.dist_n(metric, d, n);
    }
    fn enter(&mut self, off: u64) {
        self.nodes += 1;
        self.sink.enter(off);
    }
    fn enter_box(&mut self, off: u64, d: usize) {
        self.nodes += 1;
        self.sink.enter_box(off, d);
    }
}

impl<const D: usize> PimZdTree<D> {
    /// Runs every walk's traversal to exhaustion: L0 and pulled fragments on
    /// the host, everything else in PIM rounds.
    ///
    /// Steady state allocates nothing per query per round: `rest` and
    /// `remote` are pooled scratch, and a walk's frontier trades buffers
    /// with `rest` instead of being rebuilt.
    pub(crate) fn traverse<K: Probe<D>>(&mut self, walks: &mut [Walk<D, K>]) {
        let mut remote: Vec<Edge<D>> = self.bufs.take_vec();
        let mut rest: Vec<Hop> = self.bufs.take_vec();
        let mut demand = self.bufs.take_demand();

        // Seed: a walk starts inside L0 (host) or at a fragment.
        for w in walks.iter_mut().filter(|w| !w.entered) {
            w.entered = true;
            match (w.probe.target(), self.l0.as_ref()) {
                ((L0_META, node), Some(l0)) => {
                    let sink = Self::l0_sink(&mut self.meter);
                    self.range_nodes += w.step_on_host(l0, node, sink, &mut remote);
                }
                // No L0 (empty tree): nothing to visit.
                ((L0_META, _), None) => {}
                ((meta, node), _) => w.frontier.push((meta, node, 0)),
            }
        }

        for round in 0.. {
            assert!(round < MAX_ROUNDS, "traversal failed to converge: routing bug");

            // Several refs may name one target (keep the smallest lower
            // bound); targets whose masters were already covered drop out.
            for w in walks.iter_mut() {
                let Walk { frontier, visited, .. } = w;
                if frontier.len() > 1 {
                    frontier.sort_unstable();
                    frontier.dedup_by_key(|(meta, node, _)| (*meta, *node));
                }
                frontier.retain(|(meta, ..)| !visited.contains(meta));
            }

            demand.clear();
            for w in walks.iter() {
                let bound = w.bound();
                for (meta, _, _) in w.frontier.iter().filter(|(.., lb)| *lb <= bound) {
                    *demand.entry(*meta).or_insert(0) += 1;
                }
            }
            if demand.is_empty() {
                break;
            }

            // Pull phase.
            let to_pull = self.pull_candidates(&demand);
            if !to_pull.is_empty() {
                self.pull_fragments(&to_pull);
                for w in walks.iter_mut().filter(|w| !w.frontier.is_empty()) {
                    // The walk's entries move to `rest`; what survives goes
                    // back, into the (empty) buffer it got in exchange.
                    std::mem::swap(&mut w.frontier, &mut rest);
                    for &(meta, node, lb) in &rest {
                        let Some((frag, addr)) = held_in(&self.held, &to_pull, meta) else {
                            w.frontier.push((meta, node, lb));
                            continue;
                        };
                        // The bound tightens as the walk's own entries land.
                        if lb > w.bound() || w.visited.contains(&meta) {
                            continue;
                        }
                        w.visited.push(meta);
                        let sink = HostSink { meter: &mut self.meter, base_addr: *addr };
                        self.range_nodes += w.step_on_host(frag, node, sink, &mut remote);
                    }
                    rest.clear();
                }
                // Newly exposed targets may themselves be pulled.
                continue;
            }

            // Push phase.
            let mut tasks: Vec<Vec<K>> = self.task_matrix();
            for w in walks.iter_mut() {
                let bound = w.bound();
                for &(meta, node, lb) in &w.frontier {
                    if lb <= bound && !w.visited.contains(&meta) {
                        let module = self.master_module(meta) as usize;
                        tasks[module].push(w.probe.aimed(meta, node, bound));
                    }
                }
                w.frontier.clear();
            }
            let replies = self.robust_round(tasks, |_, m, ctx, t| chase(m, ctx, t));
            for reply in replies.into_iter().flatten() {
                walks[K::reply_qid(&reply) as usize].absorb(reply, &mut self.meter);
            }
        }
        self.bufs.put_vec(remote);
        self.bufs.put_vec(rest);
        self.bufs.put_demand(demand);
    }
}
