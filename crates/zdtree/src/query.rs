//! Point membership along the key path, the brute-force oracles, and the
//! parallel unmetered batch queries. kNN and the orthogonal range queries
//! (BoxCount / BoxFetch) are the engine's ([`crate::engine`]), reached
//! through the tree's inherent forwards.

use crate::costs;
use crate::engine::charge_batch_state;
use crate::node::NodeKind;
use crate::tree::ZdTree;
use pim_geom::{Aabb, Metric, Point};
use pim_memsim::CpuMeter;
use pim_zorder::ZKey;

impl<const D: usize> ZdTree<D> {
    /// Whether the exact point is stored (point lookup along the key path).
    pub fn contains(&self, p: &Point<D>, meter: &mut CpuMeter) -> bool {
        meter.work(costs::zorder_fast_cycles(D));
        let key = ZKey::<D>::encode(p);
        let mut cur = match self.core.root {
            Some(r) => r,
            None => return false,
        };
        loop {
            self.core.charge_visit(cur, meter);
            let node = self.node(cur);
            if !node.prefix.covers(key) {
                return false;
            }
            match &node.kind {
                NodeKind::Leaf { points } => {
                    self.core.charge_leaf_points(cur, points.len(), meter);
                    meter.work(points.len() as u64 * costs::LEAF_SCAN_PER_POINT);
                    return points.iter().any(|(k, q)| *k == key && q == p);
                }
                NodeKind::Internal { left, right } => {
                    cur = if key.bit(node.prefix.len) == 0 { *left } else { *right };
                }
            }
        }
    }

    /// Batch point-membership queries.
    pub fn batch_contains(&self, queries: &[Point<D>], meter: &mut CpuMeter) -> Vec<bool> {
        charge_batch_state(queries.len(), meter);
        queries.iter().map(|q| self.contains(q, meter)).collect()
    }
}

/// Brute-force oracles used by tests across the workspace.
pub mod oracle {
    use super::*;

    /// k smallest (distance, coords) pairs by linear scan.
    pub fn knn<const D: usize>(
        data: &[Point<D>],
        q: &Point<D>,
        k: usize,
        metric: Metric,
    ) -> Vec<(u64, Point<D>)> {
        let mut all: Vec<(u64, Point<D>)> =
            data.iter().map(|p| (metric.cmp_dist(q, p), *p)).collect();
        all.sort_unstable_by_key(|(d, p)| (*d, p.coords));
        all.truncate(k);
        all
    }

    /// Linear-scan box count.
    pub fn box_count<const D: usize>(data: &[Point<D>], b: &Aabb<D>) -> u64 {
        data.iter().filter(|p| b.contains(p)).count() as u64
    }

    /// Linear-scan box fetch (unsorted).
    pub fn box_fetch<const D: usize>(data: &[Point<D>], b: &Aabb<D>) -> Vec<Point<D>> {
        data.iter().filter(|p| b.contains(p)).copied().collect()
    }
}

/// Sorts fetched points canonically for comparisons in tests.
pub fn sort_points<const D: usize>(mut pts: Vec<Point<D>>) -> Vec<Point<D>> {
    pts.sort_unstable_by_key(|p| (ZKey::<D>::encode(p), p.coords));
    pts
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_memsim::{CpuConfig, CpuMeter};
    use pim_workloads::{cosmos_like, uniform};
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn meter() -> CpuMeter {
        CpuMeter::new(CpuConfig::xeon())
    }

    #[test]
    fn contains_finds_stored_points_only() {
        let pts = uniform::<3>(2_000, 1);
        let t = ZdTree::<3>::build(&pts, 16);
        let mut m = meter();
        for p in pts.iter().take(50) {
            assert!(t.contains(p, &mut m));
        }
        let absent = uniform::<3>(50, 777);
        for p in &absent {
            if !pts.contains(p) {
                assert!(!t.contains(p, &mut m));
            }
        }
    }

    #[test]
    fn knn_matches_brute_force_uniform() {
        let pts = uniform::<3>(3_000, 2);
        let t = ZdTree::<3>::build(&pts, 16);
        let mut m = meter();
        let queries = uniform::<3>(40, 3);
        for q in &queries {
            for k in [1usize, 5, 32] {
                let got = t.knn(q, k, Metric::L2, &mut m);
                let want = oracle::knn(&pts, q, k, Metric::L2);
                assert_eq!(got, want, "q={q:?} k={k}");
            }
        }
    }

    #[test]
    fn knn_matches_brute_force_l1_and_linf() {
        let pts = cosmos_like::<3>(2_000, 5);
        let t = ZdTree::<3>::build(&pts, 8);
        let mut m = meter();
        let q = pts[100];
        for metric in [Metric::L1, Metric::Linf] {
            assert_eq!(t.knn(&q, 10, metric, &mut m), oracle::knn(&pts, &q, 10, metric));
        }
    }

    #[test]
    fn knn_with_k_larger_than_n_returns_all() {
        let pts = uniform::<3>(10, 4);
        let t = ZdTree::<3>::build(&pts, 4);
        let mut m = meter();
        let got = t.knn(&pts[0], 100, Metric::L2, &mut m);
        assert_eq!(got.len(), 10);
    }

    #[test]
    fn knn_of_stored_point_starts_at_zero_distance() {
        let pts = uniform::<3>(500, 6);
        let t = ZdTree::<3>::build(&pts, 16);
        let mut m = meter();
        let got = t.knn(&pts[7], 1, Metric::L2, &mut m);
        assert_eq!(got[0].0, 0);
    }

    #[test]
    fn box_queries_match_brute_force() {
        let pts = uniform::<3>(3_000, 7);
        let t = ZdTree::<3>::build(&pts, 16);
        let mut m = meter();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        for _ in 0..50 {
            let c = pts[rng.random_range(0..pts.len())];
            let side = 1u32 << rng.random_range(10..20);
            let lo = Point::new(c.coords.map(|x| x.saturating_sub(side / 2)));
            let hi = Point::new(c.coords.map(|x| {
                (x as u64 + side as u64 / 2).min(pim_geom::max_coord_for_dim(3) as u64) as u32
            }));
            let b = Aabb::new(lo, hi);
            assert_eq!(t.box_count(&b, &mut m), oracle::box_count(&pts, &b));
            let got = sort_points(t.box_fetch(&b, &mut m));
            let want = sort_points(oracle::box_fetch(&pts, &b));
            assert_eq!(got, want);
        }
    }

    #[test]
    fn box_covering_universe_returns_everything() {
        let pts = uniform::<3>(1_000, 9);
        let t = ZdTree::<3>::build(&pts, 16);
        let mut m = meter();
        let u = Aabb::<3>::universe();
        assert_eq!(t.box_count(&u, &mut m), 1_000);
        assert_eq!(t.box_fetch(&u, &mut m).len(), 1_000);
    }

    #[test]
    fn queries_on_empty_tree() {
        let t = ZdTree::<3>::new(16);
        let mut m = meter();
        assert!(t.knn(&Point::origin(), 5, Metric::L2, &mut m).is_empty());
        assert_eq!(t.box_count(&Aabb::universe(), &mut m), 0);
        assert!(!t.contains(&Point::origin(), &mut m));
    }

    #[test]
    fn knn_traffic_grows_with_cold_cache() {
        // A cold large tree forces misses; the same queries again are warm.
        let pts = uniform::<3>(60_000, 10);
        let t = ZdTree::<3>::build(&pts, 16);
        let mut m = CpuMeter::new(CpuConfig {
            llc: pim_memsim::CacheConfig::tiny(64 * 1024),
            ..CpuConfig::xeon()
        });
        let q = pts[0];
        let _ = t.knn(&q, 10, Metric::L2, &mut m);
        let cold = m.stats().dram_bytes;
        assert!(cold > 0, "cold traversal must touch DRAM");
    }
}

/// Parallel, unmetered batch queries (rayon). These are for *functional*
/// use of the baseline as a library or oracle — measurement runs use the
/// sequential metered variants so the cost accounting stays deterministic.
///
/// Determinism audit: `collect` writes each reply at its query's input
/// index, the `map_init` scratch is a *disabled* meter (no observable
/// state), and each per-query closure reads only `&self` — so the output
/// is identical at any thread count.
impl<const D: usize> ZdTree<D> {
    /// Parallel batch kNN (unmetered).
    pub fn par_batch_knn(
        &self,
        queries: &[Point<D>],
        k: usize,
        metric: Metric,
    ) -> Vec<Vec<(u64, Point<D>)>> {
        use rayon::prelude::*;
        queries
            .par_iter()
            .map_init(pim_memsim::CpuMeter::disabled, |m, q| self.knn(q, k, metric, m))
            .collect()
    }

    /// Parallel batch box count (unmetered).
    pub fn par_batch_box_count(&self, queries: &[Aabb<D>]) -> Vec<u64> {
        use rayon::prelude::*;
        queries
            .par_iter()
            .map_init(pim_memsim::CpuMeter::disabled, |m, b| self.box_count(b, m))
            .collect()
    }

    /// Parallel batch box fetch (unmetered).
    pub fn par_batch_box_fetch(&self, queries: &[Aabb<D>]) -> Vec<Vec<Point<D>>> {
        use rayon::prelude::*;
        queries
            .par_iter()
            .map_init(pim_memsim::CpuMeter::disabled, |m, b| self.box_fetch(b, m))
            .collect()
    }

    /// Parallel batch membership (unmetered).
    pub fn par_batch_contains(&self, queries: &[Point<D>]) -> Vec<bool> {
        use rayon::prelude::*;
        queries
            .par_iter()
            .map_init(pim_memsim::CpuMeter::disabled, |m, q| self.contains(q, m))
            .collect()
    }
}

#[cfg(test)]
mod par_tests {
    use super::*;
    use pim_memsim::{CpuConfig, CpuMeter};
    use pim_workloads::uniform;

    #[test]
    fn parallel_batches_match_sequential() {
        let pts = uniform::<3>(5_000, 21);
        let t = ZdTree::build(&pts, 16);
        let queries = uniform::<3>(200, 22);
        let mut m = CpuMeter::new(CpuConfig::xeon());
        assert_eq!(
            t.par_batch_knn(&queries, 7, Metric::L2),
            t.batch_knn(&queries, 7, Metric::L2, &mut m)
        );
        assert_eq!(t.par_batch_contains(&pts[..100]), vec![true; 100]);
        let side = pim_workloads::box_side_for_expected::<3>(5_000, 20.0);
        let boxes = pim_workloads::box_queries(&pts, 50, side, 23);
        assert_eq!(t.par_batch_box_count(&boxes), t.batch_box_count(&boxes, &mut m));
        let a: Vec<usize> = t.par_batch_box_fetch(&boxes).iter().map(Vec::len).collect();
        let b: Vec<usize> = t.batch_box_fetch(&boxes, &mut m).iter().map(Vec::len).collect();
        assert_eq!(a, b);
    }
}
