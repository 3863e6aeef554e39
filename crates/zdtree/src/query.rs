//! Queries: point membership, k-nearest-neighbor, and orthogonal range
//! (BoxCount / BoxFetch).
//!
//! kNN uses bounded best-first branch-and-bound with exact integer metric
//! comparisons and a deterministic `(distance, coordinates)` tie rule, so
//! results are reproducible and comparable bit-for-bit against the
//! brute-force oracle in tests.

use crate::costs;
use crate::node::{NodeId, NodeKind};
use crate::tree::ZdTree;
use pim_geom::{Aabb, Metric, Point};
use pim_memsim::CpuMeter;
use pim_zorder::ZKey;
use std::collections::BinaryHeap;

/// A kNN candidate ordered by (distance, coordinates) — `BinaryHeap` keeps
/// the *worst* candidate on top.
#[derive(PartialEq, Eq, Debug, Clone, Copy)]
struct Cand<const D: usize> {
    dist: u64,
    coords: [u32; D],
}

impl<const D: usize> Ord for Cand<D> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.dist, self.coords).cmp(&(other.dist, other.coords))
    }
}

impl<const D: usize> PartialOrd for Cand<D> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<const D: usize> ZdTree<D> {
    /// Whether the exact point is stored (point lookup along the key path).
    pub fn contains(&self, p: &Point<D>, meter: &mut CpuMeter) -> bool {
        meter.work(costs::zorder_fast_cycles(D));
        let key = ZKey::<D>::encode(p);
        let mut cur = match self.root {
            Some(r) => r,
            None => return false,
        };
        loop {
            self.charge_visit(cur, meter);
            let node = self.node(cur);
            if !node.prefix.covers(key) {
                return false;
            }
            match &node.kind {
                NodeKind::Leaf { points } => {
                    self.charge_leaf_points(cur, points.len(), meter);
                    meter.work(points.len() as u64 * 2);
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
        self.charge_batch_state(queries.len(), meter);
        queries.iter().map(|q| self.contains(q, meter)).collect()
    }

    /// The `k` nearest stored points to `q` under `metric`, sorted by
    /// (distance, coordinates). Returns fewer when the tree is smaller.
    pub fn knn(
        &self,
        q: &Point<D>,
        k: usize,
        metric: Metric,
        meter: &mut CpuMeter,
    ) -> Vec<(u64, Point<D>)> {
        let mut heap: BinaryHeap<Cand<D>> = BinaryHeap::with_capacity(k.min(self.len()) + 1);
        if let Some(r) = self.root {
            if k > 0 {
                self.knn_rec(r, q, k, metric, &mut heap, meter);
            }
        }
        let mut out: Vec<(u64, Point<D>)> =
            heap.into_iter().map(|c| (c.dist, Point::new(c.coords))).collect();
        out.sort_unstable_by_key(|(d, p)| (*d, p.coords));
        out
    }

    fn knn_rec(
        &self,
        id: NodeId,
        q: &Point<D>,
        k: usize,
        metric: Metric,
        heap: &mut BinaryHeap<Cand<D>>,
        meter: &mut CpuMeter,
    ) {
        self.charge_visit(id, meter);
        let node = self.node(id);
        match &node.kind {
            NodeKind::Leaf { points } => {
                self.charge_leaf_points(id, points.len(), meter);
                for (_, p) in points {
                    meter.work(costs::dist_cycles(D));
                    let cand = Cand { dist: metric.cmp_dist(q, p), coords: p.coords };
                    if heap.len() < k {
                        meter.work(costs::HEAP_OP);
                        heap.push(cand);
                    } else if cand < *heap.peek().unwrap() {
                        meter.work(costs::HEAP_OP);
                        heap.pop();
                        heap.push(cand);
                    }
                }
            }
            NodeKind::Internal { left, right } => {
                // Visit the child nearer to q first; prune on the bound.
                meter.work(2 * costs::box_test_cycles(D));
                let lb = self.node(*left).bbox();
                let rb = self.node(*right).bbox();
                let ld = lb.min_dist(q, metric);
                let rd = rb.min_dist(q, metric);
                let order = if ld <= rd {
                    [(ld, *left), (rd, *right)]
                } else {
                    [(rd, *right), (ld, *left)]
                };
                for (d, child) in order {
                    let prune = heap.len() == k && d > heap.peek().unwrap().dist;
                    if !prune {
                        self.knn_rec(child, q, k, metric, heap, meter);
                    }
                }
            }
        }
    }

    /// Batch kNN.
    pub fn batch_knn(
        &self,
        queries: &[Point<D>],
        k: usize,
        metric: Metric,
        meter: &mut CpuMeter,
    ) -> Vec<Vec<(u64, Point<D>)>> {
        self.charge_batch_state(queries.len(), meter);
        queries.iter().map(|q| self.knn(q, k, metric, meter)).collect()
    }

    /// Number of stored points inside the box (BoxCount).
    pub fn box_count(&self, query: &Aabb<D>, meter: &mut CpuMeter) -> u64 {
        match self.root {
            Some(r) => self.box_count_rec(r, query, meter),
            None => 0,
        }
    }

    fn box_count_rec(&self, id: NodeId, query: &Aabb<D>, meter: &mut CpuMeter) -> u64 {
        self.charge_visit(id, meter);
        meter.work(costs::box_test_cycles(D));
        let node = self.node(id);
        let nb = node.bbox();
        if !query.intersects(&nb) {
            return 0;
        }
        if query.contains_box(&nb) {
            // Whole subtree inside: the count answers without descent.
            return node.count as u64;
        }
        match &node.kind {
            NodeKind::Leaf { points } => {
                self.charge_leaf_points(id, points.len(), meter);
                meter.work(points.len() as u64 * costs::box_test_cycles(D));
                points.iter().filter(|(_, p)| query.contains(p)).count() as u64
            }
            NodeKind::Internal { left, right } => {
                self.box_count_rec(*left, query, meter) + self.box_count_rec(*right, query, meter)
            }
        }
    }

    /// All stored points inside the box (BoxFetch), sorted by key order.
    pub fn box_fetch(&self, query: &Aabb<D>, meter: &mut CpuMeter) -> Vec<Point<D>> {
        let mut out = Vec::new();
        if let Some(r) = self.root {
            self.box_fetch_rec(r, query, &mut out, meter);
        }
        out
    }

    fn box_fetch_rec(
        &self,
        id: NodeId,
        query: &Aabb<D>,
        out: &mut Vec<Point<D>>,
        meter: &mut CpuMeter,
    ) {
        self.charge_visit(id, meter);
        meter.work(costs::box_test_cycles(D));
        let node = self.node(id);
        let nb = node.bbox();
        if !query.intersects(&nb) {
            return;
        }
        if query.contains_box(&nb) {
            self.emit_subtree(id, out, meter);
            return;
        }
        match &node.kind {
            NodeKind::Leaf { points } => {
                self.charge_leaf_points(id, points.len(), meter);
                for (_, p) in points {
                    meter.work(costs::box_test_cycles(D));
                    if query.contains(p) {
                        meter.work(costs::EMIT);
                        out.push(*p);
                    }
                }
            }
            NodeKind::Internal { left, right } => {
                self.box_fetch_rec(*left, query, out, meter);
                self.box_fetch_rec(*right, query, out, meter);
            }
        }
    }

    /// Emits every point of a fully-covered subtree.
    fn emit_subtree(&self, id: NodeId, out: &mut Vec<Point<D>>, meter: &mut CpuMeter) {
        match &self.node(id).kind {
            NodeKind::Leaf { points } => {
                self.charge_leaf_points(id, points.len(), meter);
                meter.work(points.len() as u64 * costs::EMIT);
                out.extend(points.iter().map(|(_, p)| *p));
            }
            NodeKind::Internal { left, right } => {
                let (l, r) = (*left, *right);
                self.charge_visit(l, meter);
                self.charge_visit(r, meter);
                self.emit_subtree(l, out, meter);
                self.emit_subtree(r, out, meter);
            }
        }
    }

    /// Batch box counts.
    pub fn batch_box_count(&self, queries: &[Aabb<D>], meter: &mut CpuMeter) -> Vec<u64> {
        self.charge_batch_state(queries.len(), meter);
        queries.iter().map(|b| self.box_count(b, meter)).collect()
    }

    /// Batch box fetches.
    pub fn batch_box_fetch(&self, queries: &[Aabb<D>], meter: &mut CpuMeter) -> Vec<Vec<Point<D>>> {
        self.charge_batch_state(queries.len(), meter);
        queries.iter().map(|b| self.box_fetch(b, meter)).collect()
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
