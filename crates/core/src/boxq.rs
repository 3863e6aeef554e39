//! Orthogonal range queries: BoxCount and BoxFetch (§4.4).
//!
//! Execution "closely follows that of SEARCH, where push-pull search is
//! applied level by level", except that every node *intersecting* the box is
//! tracked. Counts are exact: fully-covered subtrees answer from their
//! (locally exact) counts when they are fragment-local, and are descended
//! otherwise so each master reports exactly.

use crate::frag::{HostSink, MetaId, RemoteRef};
use crate::host::PimZdTree;
use crate::inline::InlineVec;
use crate::module::{handle_box, BoxReply, BoxTask};
use pim_geom::{Aabb, Point};

/// Per-query traversal state.
struct BState<const D: usize> {
    query: Aabb<D>,
    count: u64,
    points: Vec<Point<D>>,
    frontier: Vec<(MetaId, u32, u32)>, // (meta, module, node)
    visited: InlineVec<MetaId, 4>,
}

const MAX_ROUNDS: usize = 1000;

impl<const D: usize> PimZdTree<D> {
    /// Batched BoxCount: exact number of stored points in each box.
    pub fn batch_box_count(&mut self, queries: &[Aabb<D>]) -> Vec<u64> {
        self.phased("box_count", |t| {
            t.measured(queries.len() as u64, |t| {
                let out = t.box_inner(queries, false).0;
                let n = out.len() as u64;
                (out, n)
            })
        })
    }

    /// Batched BoxFetch: the stored points in each box (unspecified order).
    pub fn batch_box_fetch(&mut self, queries: &[Aabb<D>]) -> Vec<Vec<Point<D>>> {
        self.phased("box_fetch", |t| {
            t.measured(queries.len() as u64, |t| {
                let out = t.box_inner(queries, true).1;
                let elements = out.iter().map(|v| v.len() as u64).sum();
                (out, elements)
            })
        })
    }

    fn box_inner(&mut self, queries: &[Aabb<D>], fetch: bool) -> (Vec<u64>, Vec<Vec<Point<D>>>) {
        let n = queries.len();
        // No L0 (empty tree): nothing to traverse.
        let Some(l0) = self.l0.as_ref() else {
            return (vec![0; n], vec![Vec::new(); n]);
        };
        let mut states: Vec<BState<D>> = queries
            .iter()
            .map(|b| BState {
                query: *b,
                count: 0,
                points: Vec::new(),
                frontier: Vec::new(),
                visited: InlineVec::new(),
            })
            .collect();
        // Pooled scratch, shared by every query of every round.
        let mut remote: Vec<RemoteRef<D>> = self.bufs.take_vec();
        let mut rest: Vec<(MetaId, u32, u32)> = self.bufs.take_vec();
        let mut demand = self.bufs.take_demand();
        let frontier_entry = |r: &RemoteRef<D>| (r.meta, r.module, u32::MAX);

        // L0 phase on the host.
        let mut sink = Self::l0_sink(&mut self.meter);
        for st in states.iter_mut() {
            remote.clear();
            if fetch {
                l0.local_box_fetch(l0.root, &st.query, &mut st.points, &mut remote, &mut sink);
            } else {
                st.count = l0.local_box_count(l0.root, &st.query, &mut remote, &mut sink);
            }
            st.frontier.extend(remote.iter().map(frontier_entry));
        }

        let mut rounds = 0;
        loop {
            rounds += 1;
            assert!(rounds < MAX_ROUNDS, "box query failed to converge");

            // Dedup + visited filter.
            for st in states.iter_mut() {
                let BState { frontier, visited, .. } = st;
                if frontier.len() > 1 {
                    frontier.sort_unstable();
                    frontier.dedup_by_key(|(m, _, n2)| (*m, *n2));
                }
                frontier.retain(|(m, _, _)| !visited.contains(m));
            }

            demand.clear();
            for st in &states {
                for (m, _, _) in &st.frontier {
                    *demand.entry(*m).or_insert(0) += 1;
                }
            }
            if demand.is_empty() {
                break;
            }

            // Pull phase.
            let to_pull = self.pull_candidates(&demand);
            if !to_pull.is_empty() {
                let pulled = self.pull_fragments(&to_pull);
                for st in states.iter_mut() {
                    if st.frontier.is_empty() {
                        continue;
                    }
                    let frontier = std::mem::take(&mut st.frontier);
                    for &(meta, module, node) in &frontier {
                        let Some((frag, addr)) = pulled.get(&meta) else {
                            rest.push((meta, module, node));
                            continue;
                        };
                        if st.visited.contains(&meta) {
                            continue;
                        }
                        st.visited.push(meta);
                        let start = if node == u32::MAX { frag.root } else { node };
                        let mut sink = HostSink { meter: &mut self.meter, base_addr: *addr };
                        remote.clear();
                        if fetch {
                            frag.local_box_fetch(
                                start,
                                &st.query,
                                &mut st.points,
                                &mut remote,
                                &mut sink,
                            );
                        } else {
                            st.count +=
                                frag.local_box_count(start, &st.query, &mut remote, &mut sink);
                        }
                        rest.extend(remote.iter().map(frontier_entry));
                    }
                    st.frontier = std::mem::replace(&mut rest, frontier);
                    rest.clear();
                }
                continue;
            }

            // Push phase.
            let mut tasks: Vec<Vec<BoxTask<D>>> = self.task_matrix();
            for (qid, st) in states.iter_mut().enumerate() {
                for &(meta, module, node) in &st.frontier {
                    if st.visited.contains(&meta) {
                        continue;
                    }
                    // Directory-authoritative routing (the frontier ref's
                    // module hint goes stale across a recovery migration).
                    let module = self.dir.metas.get(&meta).map_or(module, |e| e.module);
                    tasks[module as usize].push(BoxTask {
                        qid: qid as u32,
                        meta,
                        node,
                        query: st.query,
                        fetch,
                    });
                }
                st.frontier.clear();
            }
            if tasks.iter().all(Vec::is_empty) {
                self.bufs.put_matrix(tasks);
                break;
            }
            let replies: Vec<Vec<BoxReply<D>>> =
                self.robust_round(tasks, |_, m, ctx, t| handle_box(m, ctx, t));
            for reply in replies.into_iter().flatten() {
                let st = &mut states[reply.qid as usize];
                for m in reply.covered.iter() {
                    if !st.visited.contains(m) {
                        st.visited.push(*m);
                    }
                }
                st.count += reply.count;
                self.meter.work(reply.points.len() as u64 * 4);
                if st.points.is_empty() {
                    // The reply's one allocation becomes the result's.
                    st.points = reply.points;
                } else {
                    st.points.extend_from_slice(&reply.points);
                }
                st.frontier.extend(reply.frontier.iter().map(frontier_entry));
            }
        }
        self.bufs.put_vec(remote);
        self.bufs.put_vec(rest);
        self.bufs.put_demand(demand);

        let counts =
            states.iter().map(|st| if fetch { st.points.len() as u64 } else { st.count }).collect();
        let points = states.into_iter().map(|st| st.points).collect();
        (counts, points)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::PimZdConfig;
    use crate::host::PimZdTree;
    use pim_geom::{Aabb, Point};
    use pim_sim::MachineConfig;
    use pim_workloads::{box_queries, box_side_for_expected, uniform};

    fn sorted(mut v: Vec<Point<3>>) -> Vec<Point<3>> {
        v.sort_unstable_by_key(|p| p.coords);
        v
    }

    #[test]
    fn box_count_matches_scan_throughput_mode() {
        let pts = uniform::<3>(5_000, 1);
        let cfg = PimZdConfig::throughput_optimized(5_000, 16);
        let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(16));
        let side = box_side_for_expected::<3>(5_000, 50.0);
        let boxes = box_queries(&pts, 30, side, 2);
        let got = t.batch_box_count(&boxes);
        for (i, b) in boxes.iter().enumerate() {
            let want = pts.iter().filter(|p| b.contains(p)).count() as u64;
            assert_eq!(got[i], want, "box #{i}");
        }
    }

    #[test]
    fn box_fetch_matches_scan_skew_mode() {
        let pts = uniform::<3>(6_000, 2);
        let cfg = PimZdConfig::skew_resistant(16);
        let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(16));
        let side = box_side_for_expected::<3>(6_000, 20.0);
        let boxes = box_queries(&pts, 20, side, 3);
        let got = t.batch_box_fetch(&boxes);
        for (i, b) in boxes.iter().enumerate() {
            let want: Vec<Point<3>> = pts.iter().filter(|p| b.contains(p)).copied().collect();
            assert_eq!(sorted(got[i].clone()), sorted(want), "box #{i}");
        }
    }

    #[test]
    fn universe_box_returns_all() {
        let pts = uniform::<3>(2_000, 3);
        let cfg = PimZdConfig::throughput_optimized(2_000, 8);
        let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(8));
        let got = t.batch_box_count(&[Aabb::universe()]);
        assert_eq!(got[0], 2_000);
        let fetched = t.batch_box_fetch(&[Aabb::universe()]);
        assert_eq!(fetched[0].len(), 2_000);
    }

    #[test]
    fn empty_tree_box_queries() {
        let cfg = PimZdConfig::throughput_optimized(16, 4);
        let mut t = PimZdTree::<3>::new(cfg, MachineConfig::with_modules(4));
        assert_eq!(t.batch_box_count(&[Aabb::universe()]), vec![0]);
        assert!(t.batch_box_fetch(&[Aabb::universe()])[0].is_empty());
    }
}
