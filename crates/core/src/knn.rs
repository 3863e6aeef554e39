//! Batched k-nearest-neighbor queries (Alg. 3) with the §6 two-stage
//! coarse/fine metric execution.
//!
//! Per query: (1) SEARCH records the trace and the *anchor* — the lowest
//! path node whose lazy counter guarantees ≥ k true points (we require
//! SC ≥ 2k, which by Lemma 3.1 implies T ≥ k). (2) Push-pull branch-and-
//! bound over the anchor's subtree yields k candidates under the *coarse*
//! metric (ℓ1 on the PIM side — additions only; UPMEM multiplies cost 32
//! cycles). (3) The k-th candidate distance defines a sphere; the lowest
//! trace node containing it is found host-side. (4) Push-pull collection
//! gathers every point inside the (√D-inflated, for ℓ2) sphere. (5) The
//! host evaluates the exact target metric over the collected set — the
//! fine-grained stage — and emits the final k.

use crate::frag::{knn_bound, push_candidate, HostSink, MetaId, RemoteRef};
use crate::host::PimZdTree;
use crate::inline::InlineVec;
use crate::module::{handle_knn, KnnReply, KnnTask};
use crate::soa::{fine_select, CoordBlock};
use pim_geom::{isqrt_ceil, Aabb, Metric, Point};
use pim_zorder::prefix::Prefix;

/// Exploration target: a node in L0 (host) or in a fragment.
#[derive(Clone, Copy, Debug)]
enum Target<const D: usize> {
    L0(u32),
    Frag { meta: MetaId, module: u32, node: u32 },
}

/// Per-query exploration state.
struct QState<const D: usize> {
    q: Point<D>,
    /// Best-k candidates (coarse distance, point) — best-k mode only.
    cands: Vec<(u64, Point<D>)>,
    /// Sphere-collection candidates, stored lane-major so the step-5 fine
    /// filter runs as an auto-vectorized SoA distance kernel — ball mode
    /// only. The coarse distance is dropped on entry: the fine filter
    /// re-evaluates the target metric anyway.
    block: CoordBlock<D>,
    /// Ball candidates the current round's replies carry for this query,
    /// summed first so `block` is sized for all of them at once.
    incoming: usize,
    frontier: Vec<(Target<D>, u64)>,
    /// Fixed collection radius in ball mode; `None` = best-k mode.
    ball: Option<u64>,
    /// Metas whose master payloads were already covered for this query
    /// (prevents double-collection when refs arrive via multiple paths).
    visited: InlineVec<MetaId, VISITED_INLINE>,
}

impl<const D: usize> QState<D> {
    fn bound(&self, k: usize) -> u64 {
        match self.ball {
            Some(r) => r,
            None => knn_bound(&self.cands, k),
        }
    }
}

const MAX_ROUNDS: usize = 1000;

/// Covered metas a query remembers in place: a kNN ball rarely spans more
/// fragments than this.
const VISITED_INLINE: usize = 4;

/// Cap on the up-front reservation of a query's best-k list (`k` is caller
/// input; anything larger grows on demand).
const MAX_CANDS_RESERVE: usize = 1024;

impl<const D: usize> PimZdTree<D> {
    /// Batched exact k-nearest-neighbor query under `metric`. Results are
    /// sorted by (comparable distance, coordinates); ℓ2 distances are
    /// squared.
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
        let want = (2 * k as u64).max(1);
        let s = self.batch_search_internal(queries, want);

        // Step 2: best-k exploration of the anchor subtrees (coarse metric).
        let mut states: Vec<QState<D>> = (0..n)
            .map(|qid| {
                let start = match &s.anchors[qid] {
                    Some(a) if a.meta == 0 => Target::L0(a.node),
                    Some(a) => Target::Frag { meta: a.meta, module: a.module, node: a.node },
                    // No anchor (tiny tree): start at the root.
                    None => Target::L0(l0_root),
                };
                QState {
                    q: queries[qid],
                    cands: Vec::with_capacity(k.min(MAX_CANDS_RESERVE)),
                    block: CoordBlock::new(),
                    incoming: 0,
                    frontier: vec![(start, 0)],
                    ball: None,
                    visited: InlineVec::new(),
                }
            })
            .collect();
        self.explore(&mut states, k, coarse);

        // Step 3: sphere radius per query and the lowest trace node
        // containing it. Each state is then re-armed in place for the ball
        // phase, keeping the storage step 2 grew.
        let mut fine: Vec<u64> = self.bufs.take_vec();
        for (qid, st) in states.iter_mut().enumerate() {
            let x = if st.cands.len() >= k { st.cands[k - 1].0 } else { u64::MAX };
            // Radius under the coarse metric guaranteed to contain the true
            // k nearest under the target metric.
            let radius = if x == u64::MAX {
                u64::MAX
            } else if two_stage {
                // Tighten first: evaluate the *fine* metric on the k coarse
                // candidates host-side (k cheap CPU multiplies). The k-th
                // fine distance r₂ upper-bounds the true k-th ℓ2 distance,
                // so the true kNN all lie within ℓ1 ≤ √D·r₂ ≤ √D·x.
                self.meter.work(6 * D as u64 * st.cands.len() as u64);
                fine.clear();
                fine.extend(st.cands.iter().map(|(_, p)| metric.cmp_dist(&st.q, p)));
                fine.sort_unstable();
                let r2_sq = fine[k - 1];
                let r2 = isqrt_ceil(r2_sq);
                Metric::anchor_inflate(r2, D)
            } else {
                x
            };
            self.meter.work(30);
            let start = self.lowest_trace_node_containing(&s.hops[qid], &st.q, radius, coarse);
            st.frontier.clear();
            st.frontier.push((start, 0));
            st.visited.clear();
            st.ball = Some(radius);
        }
        self.bufs.put_vec(fine);

        // Step 4: collect everything inside the spheres.
        self.explore(&mut states, usize::MAX, coarse);

        // Step 5: fine filtering on the CPU (§6) — the SoA distance kernel
        // streams the collected lanes through a bounded max-heap, which is
        // observationally the old sort/dedup/truncate (same k results, same
        // (distance, coords) order, duplicates dropped). One aggregated
        // charge replaces the per-candidate charges: same total.
        let _span = pim_obs::span("fine_filter");
        let mut out = Vec::with_capacity(n);
        for st in states {
            self.meter.work(6 * D as u64 * st.block.len() as u64);
            out.push(fine_select(&st.block, &st.q, metric, k));
        }
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
    ) -> Target<D> {
        // kNN on an empty tree returns before reaching this step; the hop
        // fallback keeps the path structurally panic-free regardless.
        let Some(l0) = self.l0.as_ref() else {
            return match hops.first() {
                Some(r) => Target::Frag { meta: r.meta, module: r.module, node: u32::MAX },
                None => Target::L0(u32::MAX),
            };
        };
        let mut best = Target::L0(l0.root);
        if radius == u64::MAX {
            return best;
        }
        // Axis half-width of the ball's bounding box.
        let hw = match metric {
            Metric::L2 => isqrt_ceil(radius),
            _ => radius,
        };
        let m = pim_geom::max_coord_for_dim(D) as i64;
        let lo = Point::new(q.coords.map(|c| (c as i64 - hw as i64).clamp(0, m) as u32));
        let hi = Point::new(q.coords.map(|c| (c as i64 + hw as i64).clamp(0, m) as u32));
        let ball_box = Aabb::new(lo, hi);
        // Clipping to the grid is safe: no point lies outside it.
        let contains = |p: &Prefix<D>| p.to_box().contains_box(&ball_box);

        // Descend the L0 path.
        let key = pim_zorder::ZKey::<D>::encode(q);
        let mut cur = l0.root;
        loop {
            self.meter.work(12);
            let node = l0.node(cur);
            if !node.prefix.covers(key) {
                break;
            }
            if contains(&node.prefix) {
                best = Target::L0(cur);
            }
            match &node.kind {
                crate::frag::BKind::Internal { left, right } => {
                    let side = node.prefix.side_of(key);
                    let child = if side == 0 { left } else { right };
                    match child {
                        crate::frag::ChildRef::Local(c) => cur = *c,
                        crate::frag::ChildRef::Remote(_) => break,
                    }
                }
                _ => break,
            }
        }
        // Then the hop chain (fragment roots).
        for r in hops {
            self.meter.work(12);
            if contains(&r.prefix) {
                best = Target::Frag { meta: r.meta, module: r.module, node: u32::MAX };
            }
        }
        best
    }

    /// The shared push-pull exploration engine (steps 2 and 4). Processes
    /// every query's frontier to exhaustion, using the host for L0 and
    /// pulled fragments and PIM rounds for the rest.
    ///
    /// Steady state allocates nothing per query per round: `rest` and
    /// `remote` are pooled scratch, a query's frontier trades buffers with
    /// `rest` instead of being rebuilt, and queries with nothing pending are
    /// skipped outright.
    fn explore(&mut self, states: &mut [QState<D>], k: usize, metric: Metric) {
        let mut rest: Vec<(Target<D>, u64)> = self.bufs.take_vec();
        let mut remote: Vec<(RemoteRef<D>, u64)> = self.bufs.take_vec();
        let mut demand = self.bufs.take_demand();
        let frag_target =
            |r: &RemoteRef<D>| Target::Frag { meta: r.meta, module: r.module, node: u32::MAX };
        let mut rounds = 0;
        loop {
            rounds += 1;
            assert!(rounds < MAX_ROUNDS, "kNN exploration failed to converge");

            // Host phase: L0 targets.
            for st in states.iter_mut() {
                if st.frontier.is_empty() {
                    continue;
                }
                let frontier = std::mem::take(&mut st.frontier);
                for &(t, lb) in &frontier {
                    if lb > st.bound(k) {
                        continue;
                    }
                    match t {
                        Target::L0(node) => {
                            // No L0 (empty tree): nothing to visit there.
                            let Some(l0) = self.l0.as_ref() else { continue };
                            let mut sink = Self::l0_sink(&mut self.meter);
                            remote.clear();
                            match st.ball {
                                Some(r) => l0.local_ball(
                                    node,
                                    &st.q,
                                    r,
                                    metric,
                                    &mut st.block,
                                    &mut remote,
                                    &mut sink,
                                ),
                                None => l0.local_knn(
                                    node,
                                    &st.q,
                                    k,
                                    metric,
                                    &mut st.cands,
                                    &mut remote,
                                    &mut sink,
                                ),
                            }
                            rest.extend(remote.iter().map(|(r, d)| (frag_target(r), *d)));
                        }
                        other => rest.push((other, lb)),
                    }
                }
                st.frontier = std::mem::replace(&mut rest, frontier);
                rest.clear();
            }

            // Dedup frontiers (multiple stubs/refs may name the same
            // target; keep the smallest lower bound) and drop targets whose
            // masters were already covered.
            for st in states.iter_mut() {
                let QState { frontier, visited, .. } = st;
                if frontier.len() > 1 {
                    frontier.sort_unstable_by_key(|(t, d)| (frontier_key(t), *d));
                    frontier.dedup_by_key(|(t, _)| frontier_key(t));
                }
                frontier.retain(|(t, _)| match t {
                    Target::Frag { meta, .. } => !visited.contains(meta),
                    Target::L0(_) => true,
                });
            }

            // Gather fragment demand.
            demand.clear();
            for st in states.iter() {
                for (t, lb) in &st.frontier {
                    if *lb > st.bound(k) {
                        continue;
                    }
                    if let Target::Frag { meta, .. } = t {
                        *demand.entry(*meta).or_insert(0) += 1;
                    }
                }
            }
            if demand.is_empty() {
                break;
            }

            // Pull phase.
            let to_pull = self.pull_candidates(&demand);
            let pulled = self.pull_fragments(&to_pull);
            if !pulled.is_empty() {
                for st in states.iter_mut() {
                    if st.frontier.is_empty() {
                        continue;
                    }
                    let frontier = std::mem::take(&mut st.frontier);
                    for &(t, lb) in &frontier {
                        let Target::Frag { meta, node, .. } = t else {
                            rest.push((t, lb));
                            continue;
                        };
                        let Some((frag, addr)) = pulled.get(&meta) else {
                            rest.push((t, lb));
                            continue;
                        };
                        if lb > st.bound(k) || st.visited.contains(&meta) {
                            continue;
                        }
                        st.visited.push(meta);
                        let start = if node == u32::MAX { frag.root } else { node };
                        let mut sink = HostSink { meter: &mut self.meter, base_addr: *addr };
                        remote.clear();
                        match st.ball {
                            Some(r) => frag.local_ball(
                                start,
                                &st.q,
                                r,
                                metric,
                                &mut st.block,
                                &mut remote,
                                &mut sink,
                            ),
                            None => frag.local_knn(
                                start,
                                &st.q,
                                k,
                                metric,
                                &mut st.cands,
                                &mut remote,
                                &mut sink,
                            ),
                        }
                        rest.extend(remote.iter().map(|(r, d)| (frag_target(r), *d)));
                    }
                    st.frontier = std::mem::replace(&mut rest, frontier);
                    rest.clear();
                }
                // Newly exposed targets may themselves be pulled/host-local:
                // loop back to the host phase.
                continue;
            }

            // Push phase.
            let mut tasks: Vec<Vec<KnnTask<D>>> = self.task_matrix();
            for (qid, st) in states.iter_mut().enumerate() {
                let bound = st.bound(k);
                for &(t, lb) in &st.frontier {
                    if lb > bound {
                        continue;
                    }
                    let Target::Frag { meta, module, node } = t else { unreachable!() };
                    if st.visited.contains(&meta) {
                        continue;
                    }
                    // Directory-authoritative routing (the frontier ref's
                    // module hint goes stale across a recovery migration).
                    let module = self.dir.metas.get(&meta).map_or(module, |e| e.module);
                    tasks[module as usize].push(KnnTask {
                        qid: qid as u32,
                        meta,
                        node,
                        q: st.q,
                        k: k.min(u32::MAX as usize) as u32,
                        bound,
                        metric,
                        ball: st.ball.is_some(),
                    });
                }
                st.frontier.clear();
            }
            let replies: Vec<Vec<KnnReply<D>>> =
                self.robust_round(tasks, |_, m, ctx, t| handle_knn(m, ctx, t));
            for reply in replies.iter().flatten() {
                let st = &mut states[reply.qid as usize];
                if st.ball.is_some() {
                    st.incoming += reply.cands.len();
                }
            }
            for reply in replies.into_iter().flatten() {
                let st = &mut states[reply.qid as usize];
                for m in reply.covered.iter() {
                    if !st.visited.contains(m) {
                        st.visited.push(*m);
                    }
                }
                match st.ball {
                    Some(r) => {
                        st.block.reserve(std::mem::take(&mut st.incoming));
                        for c in reply.cands.iter().filter(|c| c.0 <= r) {
                            self.meter.work(8);
                            st.block.push(&c.1);
                        }
                    }
                    None => {
                        for c in reply.cands {
                            self.meter.work(30);
                            let mut sink = Self::l0_sink(&mut self.meter);
                            push_candidate(&mut st.cands, k, c, &mut sink);
                        }
                    }
                }
                st.frontier.extend(reply.frontier.iter().map(|(r, d)| (frag_target(r), *d)));
            }
        }
        self.bufs.put_vec(rest);
        self.bufs.put_vec(remote);
        self.bufs.put_demand(demand);
    }
}

/// Dedup key for frontier targets.
fn frontier_key<const D: usize>(t: &Target<D>) -> (u8, u64, u32) {
    match t {
        Target::L0(n) => (0, 0, *n),
        Target::Frag { meta, node, .. } => (1, *meta, *node),
    }
}

#[cfg(test)]
mod tests {
    use crate::config::PimZdConfig;
    use crate::host::PimZdTree;
    use pim_geom::{Metric, Point};
    use pim_sim::MachineConfig;
    use pim_workloads::uniform;

    fn brute(data: &[Point<3>], q: &Point<3>, k: usize, metric: Metric) -> Vec<(u64, Point<3>)> {
        let mut all: Vec<(u64, Point<3>)> =
            data.iter().map(|p| (metric.cmp_dist(q, p), *p)).collect();
        all.sort_unstable_by_key(|(d, p)| (*d, p.coords));
        all.dedup();
        all.truncate(k);
        all
    }

    #[test]
    fn knn_matches_brute_force_throughput_mode() {
        let pts = uniform::<3>(4_000, 1);
        let cfg = PimZdConfig::throughput_optimized(4_000, 16);
        let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(16));
        let queries: Vec<Point<3>> = pts.iter().step_by(200).copied().collect();
        for k in [1usize, 5, 20] {
            let got = t.batch_knn(&queries, k, Metric::L2);
            for (i, q) in queries.iter().enumerate() {
                assert_eq!(got[i], brute(&pts, q, k, Metric::L2), "q#{i} k={k}");
            }
        }
    }

    #[test]
    fn knn_matches_brute_force_skew_mode() {
        let pts = uniform::<3>(6_000, 2);
        let cfg = PimZdConfig::skew_resistant(16);
        let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(16));
        let queries: Vec<Point<3>> = uniform::<3>(10, 3);
        let got = t.batch_knn(&queries, 10, Metric::L2);
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(got[i], brute(&pts, q, 10, Metric::L2), "q#{i}");
        }
    }

    #[test]
    fn knn_l1_metric_single_stage() {
        let pts = uniform::<3>(2_000, 4);
        let cfg = PimZdConfig::throughput_optimized(2_000, 8);
        let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(8));
        let q = pts[17];
        let got = t.batch_knn(&[q], 7, Metric::L1);
        assert_eq!(got[0], brute(&pts, &q, 7, Metric::L1));
    }

    #[test]
    fn knn_without_coarse_fine_still_exact() {
        let pts = uniform::<3>(2_000, 5);
        let mut cfg = PimZdConfig::throughput_optimized(2_000, 8);
        cfg.toggles.coarse_fine_knn = false;
        let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(8));
        let q = pts[99];
        let got = t.batch_knn(&[q], 5, Metric::L2);
        assert_eq!(got[0], brute(&pts, &q, 5, Metric::L2));
    }

    #[test]
    fn knn_k_exceeding_n_returns_everything() {
        let pts = uniform::<3>(50, 6);
        let cfg = PimZdConfig::throughput_optimized(50, 4);
        let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(4));
        let got = t.batch_knn(&[pts[0]], 100, Metric::L2);
        assert_eq!(got[0].len(), 50);
    }
}
