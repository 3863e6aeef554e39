//! Top-down batched SEARCH (Alg. 1) with push-pull load balancing (§3.3).
//!
//! A batch traverses L0 on the host, then descends the meta-tree in BSP
//! rounds. Before each push round the host examines per-meta demand: while
//! the busiest module would receive more than `imbalance_factor`× the
//! average load, meta-nodes attracting more than their layer's K threshold
//! are *pulled* — their master storage is fetched (caches excluded) and
//! searched on the CPU. Everything else is *pushed* to the PIM modules,
//! which traverse their masters and caches locally.
//!
//! The batch is walked in Morton order (Alg. 1 step 1). Every descent —
//! through L0, a pulled fragment or a module's row — resumes where the
//! previous key's walk in the same fragment left off
//! ([`Fragment::search_from`](crate::frag::Fragment::search_from)), so a
//! key re-reads only the nodes below its common prefix with its
//! predecessor. Every result stays indexed by query.

use crate::costs;
use crate::frag::{Cursor, HostSink, MetaId, RemoteRef, SearchEnd};
use crate::host::{held_in, PimZdTree};
use crate::inline::InlineVec;
use crate::module::{
    handle_search, search_step, Anchor, BestK, SearchReply, SearchTask, SearchVerdict,
};
use pim_geom::Point;
use pim_memsim::costs as host_costs;
use pim_zorder::ZKey;

/// Where one query's search ended.
#[derive(Clone, Copy, Debug)]
pub enum QueryEnd {
    /// The index is empty.
    Empty,
    /// Ended in an L0 leaf.
    L0Leaf {
        /// Whether the key was present.
        found: bool,
    },
    /// The key's insertion point is a compressed-edge split inside L0.
    L0Diverge,
    /// Ended in a leaf of fragment `meta`.
    FragLeaf {
        /// Owning fragment.
        meta: MetaId,
        /// Whether the key was present.
        found: bool,
    },
    /// The key's insertion point is inside fragment `meta`.
    FragDiverge {
        /// Owning fragment.
        meta: MetaId,
    },
}

impl QueryEnd {
    /// Whether the searched key was found in a leaf.
    pub fn found(&self) -> bool {
        matches!(self, QueryEnd::L0Leaf { found: true } | QueryEnd::FragLeaf { found: true, .. })
    }
}

/// Result of a batched search.
pub struct BatchSearch<const D: usize> {
    /// Morton keys of the batch (computed once, reused by the caller).
    pub keys: Vec<ZKey<D>>,
    /// Per-query end.
    pub ends: Vec<QueryEnd>,
    /// Per-query deepest path node with counter ≥ the requested threshold
    /// — or what best-k found below it, where the SEARCH round ran that too.
    pub anchors: Vec<Anchor<D>>,
    /// Per-query chain of meta hops taken below L0 (the search trace at
    /// meta granularity, which kNN step 3 walks). A chain is as deep as the
    /// layers below L0, so it lives in place.
    pub hops: Vec<InlineVec<RemoteRef<D>, 2>>,
    /// The qids in `(key, qid)` order, the batch's one sort (Alg. 1 step 1)
    /// and, keys being injective, its points' `(key, coords)` order. Pooled:
    /// the op that consumes it hands it back to `RoundBuffers`.
    pub order: Vec<u32>,
}

/// Safety valve: a correct meta-tree descent can never need this many
/// rounds; hitting it means a routing bug, so fail loudly.
const MAX_ROUNDS: usize = 1000;

/// Rayon grain for the batch Morton encode: big enough that the
/// per-chunk spawn cost vanishes, small enough to load-balance.
const ENCODE_CHUNK: usize = 4096;

impl<const D: usize> PimZdTree<D> {
    /// The host's price of one Morton encode under the `fast_zorder`
    /// toggle (Table 3).
    pub(crate) fn zorder_cycles(&self) -> u64 {
        if self.cfg.toggles.fast_zorder {
            host_costs::zorder_fast_cycles(D)
        } else {
            costs::zorder_naive_cycles(D)
        }
    }

    /// Charges and computes the batch's Morton keys (fast path or the
    /// Table 3 naive path).
    pub(crate) fn encode_batch(&mut self, pts: &[Point<D>]) -> Vec<ZKey<D>> {
        let _span = pim_obs::span("encode_batch");
        self.meter.work(pts.len() as u64 * self.zorder_cycles());
        // Parallel encode: pure per-point, written at input indices, so the
        // key vector is identical at any thread count. The simulated cost
        // was charged above, independent of host parallelism.
        use rayon::prelude::*;
        if self.cfg.toggles.fast_zorder {
            // Resolve the codec (CPUID probe + deposit masks) exactly once
            // per batch on the calling thread; the `Copy` encoder is then
            // shared by every worker chunk. A regression test below pins
            // this at one resolution per batch, not one per chunk.
            let enc = pim_zorder::ZEncoder::<D>::new();
            let mut keys = vec![ZKey::<D>(0); pts.len()];
            keys.par_chunks_mut(ENCODE_CHUNK)
                .zip(pts.par_chunks(ENCODE_CHUNK))
                .for_each(|(dst, src)| enc.encode_into(src, dst));
            keys
        } else {
            pts.par_iter().map(ZKey::<D>::encode_naive).collect()
        }
    }

    /// Batched top-down search. `best_k` (kNN) also tracks, per query, the
    /// deepest path node whose (lazy) counter is at least 2k, and lets the
    /// module a search ends on run the best-k step from it in the same round
    /// ([`handle_search`]).
    pub(crate) fn batch_search_internal(
        &mut self,
        pts: &[Point<D>],
        best_k: Option<BestK>,
    ) -> BatchSearch<D> {
        let want_anchor = best_k.map_or(0, |b| b.want_anchor());
        let keys = self.encode_batch(pts);
        let n = keys.len();
        let mut ends: Vec<QueryEnd> = vec![QueryEnd::Empty; n];
        let mut anchors: Vec<Anchor<D>> = vec![Anchor::None; n];
        let mut hops = vec![InlineVec::new(); n];

        // Alg. 1 step 1: the queries in (key, qid) order, charged at the
        // rate of insert's grouping sort. Stable, so the order is the same
        // at any thread count. An empty tree sorts too: insert bootstraps
        // L0 from this order.
        let mut order: Vec<u32> = self.bufs.take_vec();
        {
            let _span = pim_obs::span("sort_batch");
            self.meter.work(n as u64 * costs::BATCH_SORT_PER_KEY);
            order.extend(0..n as u32);
            pim_zorder::sort::par_radix_sort_stable_by_u64(&mut order, |&q| keys[q as usize].0);
        }
        // An empty tree answers every query with `QueryEnd::Empty`.
        let Some(l0) = self.l0.as_ref() else {
            return BatchSearch { keys, ends, anchors, hops, order };
        };

        // ---- L0 traversal on the host ----
        // `pending` stays in key order from here on: the pull loop keeps
        // it, and each round's forwards are sorted back into it.
        let mut pending: Vec<(u32, RemoteRef<D>)> = self.bufs.take_vec();
        // The other half of the double buffer `pending` is refilled into.
        let mut next: Vec<(u32, RemoteRef<D>)> = self.bufs.take_vec();
        let mut demand = self.bufs.take_demand();
        {
            let _span = pim_obs::span("l0_traverse");
            let mut sink = Self::l0_sink(&mut self.meter);
            let mut cursor = Cursor::default();
            for &q in &order {
                let (qid, key) = (q as usize, keys[q as usize]);
                if !l0.root_node().prefix.covers(key) {
                    ends[qid] = QueryEnd::L0Diverge;
                    continue;
                }
                match search_step(l0, key, want_anchor, &mut anchors[qid], &mut cursor, &mut sink) {
                    (SearchEnd::Leaf(_), found) => ends[qid] = QueryEnd::L0Leaf { found },
                    (SearchEnd::Stub(_), _) => unreachable!("L0 holds real leaves"),
                    (SearchEnd::Diverge { .. }, _) => ends[qid] = QueryEnd::L0Diverge,
                    (SearchEnd::Remote(r), _) => {
                        hops[qid].push(r);
                        pending.push((q, r));
                    }
                }
            }
            self.search_nodes += cursor.entered;
        }

        // ---- Meta-tree descent: pull then push, per round ----
        // The pull loop's cursors, one per hop depth below where a query
        // enters the pulled set.
        let mut cursors: Vec<Cursor<D>> = self.bufs.take_vec();
        let mut rounds = 0usize;
        while !pending.is_empty() {
            rounds += 1;
            assert!(rounds < MAX_ROUNDS, "search failed to converge: routing bug");

            // Pull phase (Alg. 1 step 2).
            loop {
                demand.clear();
                for (_, r) in &pending {
                    *demand.entry(r.meta).or_insert(0) += 1;
                }
                let to_pull = self.pull_candidates(&demand);
                if to_pull.is_empty() {
                    break;
                }
                self.pull_fragments(&to_pull);
                for (qid, mut r) in pending.drain(..) {
                    // Chase through the fragments this step pulled, host-
                    // side, until the query leaves them.
                    for depth in 0.. {
                        let Some((frag, addr)) = held_in(&self.held, &to_pull, r.meta) else {
                            next.push((qid, r));
                            break;
                        };
                        if cursors.len() == depth {
                            cursors.push(Cursor::default());
                        }
                        let mut sink = HostSink { meter: &mut self.meter, base_addr: *addr };
                        let (q, meta, cursor) = (qid as usize, frag.meta, &mut cursors[depth]);
                        let anchor = &mut anchors[q];
                        match search_step(frag, keys[q], want_anchor, anchor, cursor, &mut sink) {
                            (SearchEnd::Leaf(_), found) => {
                                ends[q] = QueryEnd::FragLeaf { meta, found };
                                break;
                            }
                            (SearchEnd::Stub(_), _) => {
                                unreachable!("pulled masters hold real leaves")
                            }
                            (SearchEnd::Diverge { .. }, _) => {
                                ends[q] = QueryEnd::FragDiverge { meta };
                                break;
                            }
                            (SearchEnd::Remote(r2), _) => {
                                hops[q].push(r2);
                                r = r2;
                            }
                        }
                    }
                }
                self.search_nodes += cursors.iter().map(|c| c.entered).sum::<u64>();
                cursors.clear();
                std::mem::swap(&mut pending, &mut next);
                if pending.is_empty() {
                    break;
                }
            }
            if pending.is_empty() {
                break;
            }

            // Push phase (Alg. 1 steps 3–4). The directory routes each hop:
            // a ref's embedded module field goes stale once recovery
            // migrates a master (fault-free, the two always agree).
            let mut tasks: Vec<Vec<SearchTask<D>>> = self.task_matrix();
            for (qid, r) in &pending {
                let module = self.dir.metas.get(&r.meta).map_or(r.module, |e| e.module);
                tasks[module as usize].push(SearchTask {
                    qid: *qid,
                    key: keys[*qid as usize],
                    meta: r.meta,
                    best_k: best_k.map(|b| (b, pts[*qid as usize])),
                });
            }
            let replies: Vec<Vec<SearchReply<D>>> = self.robust_round(tasks, handle_search);

            let _span = pim_obs::span("decode_replies");
            pending.clear();
            for reply in replies.into_iter().flatten() {
                let qid = reply.qid as usize;
                self.touch_query_state(qid, true);
                if !matches!(reply.anchor, Anchor::None) {
                    anchors[qid] = reply.anchor;
                }
                match reply.verdict {
                    SearchVerdict::Done { meta, found, .. } => {
                        ends[qid] = QueryEnd::FragLeaf { meta, found };
                    }
                    SearchVerdict::Diverge { meta } => {
                        ends[qid] = QueryEnd::FragDiverge { meta };
                    }
                    SearchVerdict::Forward { to } => {
                        hops[qid].push(to);
                        pending.push((reply.qid, to));
                    }
                }
            }
            // Back into (key, qid) order, so the next round's rows are sorted.
            let key_of = |&(q, _): &(u32, RemoteRef<D>)| keys[q as usize].0;
            pim_zorder::sort::par_radix_sort_keyed(&mut pending, key_of, |a, b| a.0.cmp(&b.0));
        }
        self.bufs.put_vec(pending);
        self.bufs.put_vec(next);
        self.bufs.put_vec(cursors);
        self.bufs.put_demand(demand);

        BatchSearch { keys, ends, anchors, hops, order }
    }

    /// Public batched point-membership query (the SEARCH of Alg. 1 used as
    /// an operation in its own right).
    pub fn batch_contains(&mut self, pts: &[Point<D>]) -> Vec<bool> {
        self.phased("search", |t| {
            t.measured(pts.len() as u64, |t| {
                let s = t.batch_search_internal(pts, None);
                t.bufs.put_vec(s.order);
                let out: Vec<bool> = s.ends.iter().map(QueryEnd::found).collect();
                let n = out.len() as u64;
                (out, n)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::config::PimZdConfig;
    use crate::host::PimZdTree;
    use pim_sim::MachineConfig;
    use pim_workloads::uniform;

    #[test]
    fn contains_finds_built_points() {
        let pts = uniform::<3>(4_000, 1);
        let cfg = PimZdConfig::throughput_optimized(4_000, 16);
        let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(16));
        let found = t.batch_contains(&pts[..200]);
        assert!(found.iter().all(|&f| f), "every built point must be found");
        let absent = uniform::<3>(100, 999);
        let found = t.batch_contains(&absent);
        let hits = found.iter().filter(|&&f| f).count();
        assert!(hits <= 1, "random points should not be present");
    }

    #[test]
    fn contains_works_in_skew_mode() {
        let pts = uniform::<3>(8_000, 2);
        let cfg = PimZdConfig::skew_resistant(16);
        let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(16));
        let found = t.batch_contains(&pts[..300]);
        assert!(found.iter().all(|&f| f));
    }

    #[test]
    fn search_charges_communication() {
        let pts = uniform::<3>(4_000, 3);
        let cfg = PimZdConfig::throughput_optimized(4_000, 8);
        let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(8));
        let _ = t.batch_contains(&pts[..500]);
        let s = t.last_op_stats();
        assert!(s.channel_bytes > 0, "searches must move bytes");
        assert!(s.rounds >= 1);
        assert!(s.breakdown.total_s() > 0.0);
    }

    #[test]
    fn empty_tree_search() {
        let cfg = PimZdConfig::throughput_optimized(16, 4);
        let mut t = PimZdTree::<3>::new(cfg, MachineConfig::with_modules(4));
        let q = uniform::<3>(5, 4);
        assert_eq!(t.batch_contains(&q), vec![false; 5]);
    }

    /// SEARCH's order is a permutation of the batch in `(key, qid)` order,
    /// on an empty tree (which insert bootstraps L0 from) as on a built one.
    #[test]
    fn order_is_the_batch_in_key_then_qid_order() {
        let built = uniform::<3>(3_000, 5);
        let mut shuffled = uniform::<3>(400, 6);
        shuffled.extend_from_within(..100);
        let mut reversed = shuffled.clone();
        reversed.sort_by_key(pim_zorder::ZKey::<3>::encode);
        reversed.reverse();
        let batches = [
            shuffled.clone(),
            reversed,
            vec![built[7]; 50],
            [&built[..200], &built[..200], &shuffled[..50]].concat(),
        ];
        let cfg = PimZdConfig::throughput_optimized(3_000, 8);
        let machine = MachineConfig::with_modules(8);
        let mut trees = [PimZdTree::new(cfg, machine), PimZdTree::build(&built, cfg, machine)];
        for t in &mut trees {
            for batch in &batches {
                let s = t.batch_search_internal(batch, None);
                let mut seen = vec![false; batch.len()];
                for &q in &s.order {
                    assert!(!std::mem::replace(&mut seen[q as usize], true), "qid {q} twice");
                }
                assert!(seen.iter().all(|&b| b), "order misses a qid");
                let key = |q: u32| (s.keys[q as usize], q);
                assert!(s.order.windows(2).all(|w| key(w[0]) < key(w[1])));
            }
        }
    }

    /// The batch encode must resolve its codec exactly once per batch —
    /// not once per rayon chunk — even when the batch spans many chunks.
    /// The counter is thread-local and the encoder is constructed on the
    /// calling thread, so the assertion is exact under the parallel test
    /// harness.
    #[test]
    fn one_codec_resolution_per_encode_batch() {
        use pim_zorder::ZEncoder;
        let cfg = PimZdConfig::throughput_optimized(16, 4);
        assert!(cfg.toggles.fast_zorder, "fast path must be default");
        let mut t = PimZdTree::<3>::new(cfg, MachineConfig::with_modules(4));
        // Far more points than the encode grain, so a per-chunk
        // re-derivation would show up as many resolutions.
        let pts = uniform::<3>(20_000, 7);
        let before = ZEncoder::<3>::resolutions();
        let keys = t.encode_batch(&pts);
        assert_eq!(ZEncoder::<3>::resolutions() - before, 1);
        let again = t.encode_batch(&pts);
        assert_eq!(ZEncoder::<3>::resolutions() - before, 2);
        assert_eq!(keys, again);
        // And the hoisted kernel agrees with the reference encode.
        for (p, k) in pts.iter().zip(&keys) {
            assert_eq!(*k, pim_zorder::ZKey::encode(p));
        }
    }
}
