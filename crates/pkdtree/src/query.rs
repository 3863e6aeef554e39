//! kd-tree queries: kNN and orthogonal range, instrumented like the zd-tree
//! baseline so Fig. 5 compares like for like.

use crate::tree::{PkNodeId, PkNodeKind, PkdTree};
use pim_geom::{Aabb, Metric, Point};
use pim_memsim::CpuMeter;
use std::collections::BinaryHeap;

const HEAP_OP: u64 = 30;
const EMIT: u64 = 4;

#[derive(PartialEq, Eq, Clone, Copy)]
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

impl<const D: usize> PkdTree<D> {
    /// The `k` nearest stored points under `metric`, sorted by
    /// (distance, coordinates) — same contract as `ZdTree::knn`.
    pub fn knn(
        &self,
        q: &Point<D>,
        k: usize,
        metric: Metric,
        meter: &mut CpuMeter,
    ) -> Vec<(u64, Point<D>)> {
        let mut heap: BinaryHeap<Cand<D>> = BinaryHeap::with_capacity(k.min(self.len()) + 1);
        if let Some(r) = self.root() {
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
        id: PkNodeId,
        q: &Point<D>,
        k: usize,
        metric: Metric,
        heap: &mut BinaryHeap<Cand<D>>,
        meter: &mut CpuMeter,
    ) {
        self.charge_visit(id, meter);
        match &self.node(id).kind {
            PkNodeKind::Leaf { points } => {
                self.charge_leaf_points(id, points.len(), meter);
                for p in points {
                    meter.work(6 * D as u64);
                    let cand = Cand { dist: metric.cmp_dist(q, p), coords: p.coords };
                    if heap.len() < k {
                        meter.work(HEAP_OP);
                        heap.push(cand);
                    } else if cand < *heap.peek().unwrap() {
                        meter.work(HEAP_OP);
                        heap.pop();
                        heap.push(cand);
                    }
                }
            }
            PkNodeKind::Internal { left, right, .. } => {
                meter.work(16 * D as u64);
                let ld = self.node(*left).bbox.min_dist(q, metric);
                let rd = self.node(*right).bbox.min_dist(q, metric);
                let order = if ld <= rd {
                    [(ld, *left), (rd, *right)]
                } else {
                    [(rd, *right), (ld, *left)]
                };
                for (d, child) in order {
                    if !(heap.len() == k && d > heap.peek().unwrap().dist) {
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

    /// BoxCount.
    pub fn box_count(&self, query: &Aabb<D>, meter: &mut CpuMeter) -> u64 {
        match self.root() {
            Some(r) => self.box_count_rec(r, query, meter),
            None => 0,
        }
    }

    fn box_count_rec(&self, id: PkNodeId, query: &Aabb<D>, meter: &mut CpuMeter) -> u64 {
        self.charge_visit(id, meter);
        meter.work(8 * D as u64);
        let node = self.node(id);
        if !query.intersects(&node.bbox) {
            return 0;
        }
        if query.contains_box(&node.bbox) {
            return node.count as u64;
        }
        match &node.kind {
            PkNodeKind::Leaf { points } => {
                self.charge_leaf_points(id, points.len(), meter);
                meter.work(points.len() as u64 * 8 * D as u64);
                points.iter().filter(|p| query.contains(p)).count() as u64
            }
            PkNodeKind::Internal { left, right, .. } => {
                self.box_count_rec(*left, query, meter) + self.box_count_rec(*right, query, meter)
            }
        }
    }

    /// BoxFetch.
    pub fn box_fetch(&self, query: &Aabb<D>, meter: &mut CpuMeter) -> Vec<Point<D>> {
        let mut out = Vec::new();
        if let Some(r) = self.root() {
            self.box_fetch_rec(r, query, &mut out, meter);
        }
        out
    }

    fn box_fetch_rec(
        &self,
        id: PkNodeId,
        query: &Aabb<D>,
        out: &mut Vec<Point<D>>,
        meter: &mut CpuMeter,
    ) {
        self.charge_visit(id, meter);
        meter.work(8 * D as u64);
        let node = self.node(id);
        if !query.intersects(&node.bbox) {
            return;
        }
        if query.contains_box(&node.bbox) {
            self.emit_subtree(id, out, meter);
            return;
        }
        match &node.kind {
            PkNodeKind::Leaf { points } => {
                self.charge_leaf_points(id, points.len(), meter);
                for p in points {
                    meter.work(8 * D as u64);
                    if query.contains(p) {
                        meter.work(EMIT);
                        out.push(*p);
                    }
                }
            }
            PkNodeKind::Internal { left, right, .. } => {
                self.box_fetch_rec(*left, query, out, meter);
                self.box_fetch_rec(*right, query, out, meter);
            }
        }
    }

    /// Emits every point of a fully-covered subtree, charged as
    /// `ZdTree::emit_subtree` is: the caller has visited `id`; each child
    /// costs one visit (cycles and the record read) before the descent.
    fn emit_subtree(&self, id: PkNodeId, out: &mut Vec<Point<D>>, meter: &mut CpuMeter) {
        match &self.node(id).kind {
            PkNodeKind::Leaf { points } => {
                self.charge_leaf_points(id, points.len(), meter);
                meter.work(points.len() as u64 * EMIT);
                out.extend_from_slice(points);
            }
            PkNodeKind::Internal { left, right, .. } => {
                let (l, r) = (*left, *right);
                self.charge_visit(l, meter);
                self.charge_visit(r, meter);
                self.emit_subtree(l, out, meter);
                self.emit_subtree(r, out, meter);
            }
        }
    }

    /// Batch BoxCount.
    pub fn batch_box_count(&self, queries: &[Aabb<D>], meter: &mut CpuMeter) -> Vec<u64> {
        self.charge_batch_state(queries.len(), meter);
        queries.iter().map(|b| self.box_count(b, meter)).collect()
    }

    /// Batch BoxFetch.
    pub fn batch_box_fetch(&self, queries: &[Aabb<D>], meter: &mut CpuMeter) -> Vec<Vec<Point<D>>> {
        self.charge_batch_state(queries.len(), meter);
        queries.iter().map(|b| self.box_fetch(b, meter)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_memsim::CpuConfig;
    use pim_workloads::{osm_like, uniform};

    fn meter() -> CpuMeter {
        CpuMeter::new(CpuConfig::xeon())
    }

    fn brute_knn(
        data: &[Point<3>],
        q: &Point<3>,
        k: usize,
        metric: Metric,
    ) -> Vec<(u64, Point<3>)> {
        let mut all: Vec<(u64, Point<3>)> =
            data.iter().map(|p| (metric.cmp_dist(q, p), *p)).collect();
        all.sort_unstable_by_key(|(d, p)| (*d, p.coords));
        all.truncate(k);
        all
    }

    #[test]
    fn knn_matches_brute_force() {
        let pts = uniform::<3>(3_000, 1);
        let t = PkdTree::<3>::build(&pts, 16);
        let mut m = meter();
        for q in uniform::<3>(30, 2) {
            for k in [1usize, 7, 25] {
                assert_eq!(t.knn(&q, k, Metric::L2, &mut m), brute_knn(&pts, &q, k, Metric::L2));
            }
        }
    }

    #[test]
    fn knn_on_skewed_data() {
        let pts = osm_like::<3>(2_000, 3);
        let t = PkdTree::<3>::build(&pts, 16);
        let mut m = meter();
        let q = pts[500];
        assert_eq!(t.knn(&q, 10, Metric::L2, &mut m), brute_knn(&pts, &q, 10, Metric::L2));
    }

    #[test]
    fn box_queries_match_brute_force() {
        let pts = uniform::<3>(3_000, 4);
        let t = PkdTree::<3>::build(&pts, 16);
        let mut m = meter();
        for (i, c) in pts.iter().step_by(100).enumerate() {
            let side = 1u32 << (10 + (i % 10));
            let lo = Point::new(c.coords.map(|x| x.saturating_sub(side / 2)));
            let hi = Point::new(c.coords.map(|x| {
                (x as u64 + side as u64 / 2).min(pim_geom::max_coord_for_dim(3) as u64) as u32
            }));
            let b = Aabb::new(lo, hi);
            let want = pts.iter().filter(|p| b.contains(p)).count() as u64;
            assert_eq!(t.box_count(&b, &mut m), want);
            assert_eq!(t.box_fetch(&b, &mut m).len() as u64, want);
        }
    }

    #[test]
    fn queries_after_updates_stay_correct() {
        let pts = uniform::<3>(2_000, 5);
        let extra = uniform::<3>(500, 6);
        let mut t = PkdTree::<3>::build(&pts, 16);
        let mut m = meter();
        t.batch_delete(&pts[..1_000], &mut m);
        t.batch_insert(&extra, &mut m);
        let mut data: Vec<Point<3>> = pts[1_000..].to_vec();
        data.extend_from_slice(&extra);
        let q = extra[0];
        assert_eq!(t.knn(&q, 12, Metric::L2, &mut m), brute_knn(&data, &q, 12, Metric::L2));
    }

    #[test]
    fn empty_tree_queries() {
        let t = PkdTree::<3>::new(8);
        let mut m = meter();
        assert!(t.knn(&Point::origin(), 3, Metric::L2, &mut m).is_empty());
        assert_eq!(t.box_count(&Aabb::universe(), &mut m), 0);
    }
}
