//! Batch updates with weight-balance partial reconstruction.
//!
//! Pkd-tree keeps its object-median structure nearly balanced under updates
//! by *reconstruction*: whenever an update leaves a child holding more than
//! `BALANCE_ALPHA` of its parent's points, the whole subtree is rebuilt at
//! the object median. This is the standard amortized-O(log²n) scheme the
//! Pkd-tree paper adopts (and the rebuilding cost is exactly what the
//! PIM-zd-tree paper's §2.2 criticizes in PIM contexts — we faithfully keep
//! it, it is a *shared-memory* baseline).

use crate::tree::{dim_key, tight_box, PkNode, PkNodeId, PkNodeKind, PkdTree, BALANCE_ALPHA};
use pim_geom::Point;
use pim_memsim::CpuMeter;
use pim_zdtree_base::costs;
use pim_zdtree_base::engine::charge_batch_state;

impl<const D: usize> PkdTree<D> {
    /// Inserts a batch (multiset semantics).
    pub fn batch_insert(&mut self, points: &[Point<D>], meter: &mut CpuMeter) {
        if points.is_empty() {
            return;
        }
        meter.work(points.len() as u64 * costs::STAGE_PER_POINT);
        charge_batch_state(points.len(), meter);
        let mut pts = points.to_vec();
        self.core.root = Some(match self.core.root {
            None => self.build_subtree(&mut pts, meter),
            Some(r) => self.insert_rec(r, &mut pts, meter),
        });
        self.core.n_points += points.len();
    }

    /// Deletes a batch; each element removes at most one stored instance.
    /// Returns the number removed.
    pub fn batch_delete(&mut self, points: &[Point<D>], meter: &mut CpuMeter) -> usize {
        if points.is_empty() || self.core.root.is_none() {
            return 0;
        }
        meter.work(points.len() as u64 * costs::STAGE_PER_POINT);
        charge_batch_state(points.len(), meter);
        let mut pts = points.to_vec();
        let mut removed = 0usize;
        self.core.root = self.remove_rec(self.core.root.unwrap(), &mut pts, &mut removed, meter);
        self.core.n_points -= removed;
        removed
    }

    /// Sequential charged object-median build (fresh subtrees in updates).
    pub(crate) fn build_subtree(&mut self, pts: &mut [Point<D>], meter: &mut CpuMeter) -> PkNodeId {
        debug_assert!(!pts.is_empty());
        meter.work(pts.len() as u64 * costs::PARTITION_PER_POINT);
        if pts.len() <= self.core.leaf_cap {
            return self.core.alloc_charged(
                PkNode {
                    bbox: tight_box(pts),
                    count: pts.len() as u32,
                    kind: PkNodeKind::Leaf { points: pts.to_vec() },
                },
                meter,
            );
        }
        let bbox = tight_box(pts);
        let dim = crate::tree::widest_dim(&bbox);
        let m = pts.len() / 2;
        pts.select_nth_unstable_by_key(m, |p| dim_key(p, dim));
        let split = dim_key(&pts[m], dim);
        let count = pts.len() as u32;
        let (lp, rp) = pts.split_at_mut(m);
        let left = self.build_subtree(lp, meter);
        let right = self.build_subtree(rp, meter);
        self.core.alloc_charged(
            PkNode { bbox, count, kind: PkNodeKind::Internal { dim, split, left, right } },
            meter,
        )
    }

    /// Collects a subtree's points and rebuilds it balanced.
    fn rebuild(&mut self, id: PkNodeId, meter: &mut CpuMeter) -> PkNodeId {
        let mut all = Vec::with_capacity(self.node(id).count as usize);
        self.core.collect_points(id, &mut all);
        meter.work(all.len() as u64 * costs::GATHER_PER_POINT);
        self.core.release_subtree(id);
        self.build_subtree(&mut all, meter)
    }

    /// Whether an internal node with child counts `(lc, rc)` violates the
    /// weight-balance invariant.
    fn unbalanced(lc: u32, rc: u32) -> bool {
        let total = (lc + rc) as f64;
        (lc as f64) > BALANCE_ALPHA * total + 1.0 || (rc as f64) > BALANCE_ALPHA * total + 1.0
    }

    fn insert_rec(
        &mut self,
        id: PkNodeId,
        pts: &mut Vec<Point<D>>,
        meter: &mut CpuMeter,
    ) -> PkNodeId {
        if pts.is_empty() {
            return id;
        }
        self.core.charge_visit(id, meter);
        match &self.node(id).kind {
            PkNodeKind::Leaf { points } => {
                let mut merged = points.clone();
                self.core.charge_leaf_points(id, merged.len(), meter);
                merged.append(pts);
                if merged.len() <= self.core.leaf_cap {
                    let bbox = tight_box(&merged);
                    let n = self.core.rewrite(id, meter);
                    n.bbox = bbox;
                    n.count = merged.len() as u32;
                    n.kind = PkNodeKind::Leaf { points: merged };
                    id
                } else {
                    self.core.release(id);
                    self.build_subtree(&mut merged, meter)
                }
            }
            PkNodeKind::Internal { dim, split, left, right } => {
                let (dim, split, left, right) = (*dim, *split, *left, *right);
                meter.work(pts.len() as u64 * costs::ROUTE_PER_POINT);
                let (mut lp, mut rp): (Vec<Point<D>>, Vec<Point<D>>) =
                    pts.drain(..).partition(|p| dim_key(p, dim) < split);
                let new_left = self.insert_rec(left, &mut lp, meter);
                let new_right = self.insert_rec(right, &mut rp, meter);
                let (lc, rc) = (self.node(new_left).count, self.node(new_right).count);
                let bbox = self.node(new_left).bbox.union(&self.node(new_right).bbox);
                let n = self.core.rewrite(id, meter);
                n.count = lc + rc;
                n.bbox = bbox;
                n.kind = PkNodeKind::Internal { dim, split, left: new_left, right: new_right };
                if Self::unbalanced(lc, rc) {
                    self.rebuild(id, meter)
                } else {
                    id
                }
            }
        }
    }

    fn remove_rec(
        &mut self,
        id: PkNodeId,
        pts: &mut Vec<Point<D>>,
        removed: &mut usize,
        meter: &mut CpuMeter,
    ) -> Option<PkNodeId> {
        if pts.is_empty() {
            return Some(id);
        }
        self.core.charge_visit(id, meter);
        match &self.node(id).kind {
            PkNodeKind::Leaf { points } => {
                self.core.charge_leaf_points(id, points.len(), meter);
                meter.work(points.len() as u64 * costs::LEAF_SCAN_PER_POINT);
                let mut kept = points.clone();
                // Each requested point removes at most one instance.
                pts.retain(|target| {
                    if let Some(pos) = kept.iter().position(|p| p == target) {
                        kept.swap_remove(pos);
                        *removed += 1;
                        false
                    } else {
                        true // not here; an ancestor may try elsewhere (no-op)
                    }
                });
                if kept.is_empty() {
                    self.core.release(id);
                    None
                } else {
                    let bbox = tight_box(&kept);
                    let n = self.core.rewrite(id, meter);
                    n.bbox = bbox;
                    n.count = kept.len() as u32;
                    n.kind = PkNodeKind::Leaf { points: kept };
                    Some(id)
                }
            }
            PkNodeKind::Internal { dim, split, left, right } => {
                let (dim, split, left, right) = (*dim, *split, *left, *right);
                meter.work(pts.len() as u64 * costs::ROUTE_PER_POINT);
                let (mut lp, mut rp): (Vec<Point<D>>, Vec<Point<D>>) =
                    pts.drain(..).partition(|p| dim_key(p, dim) < split);
                let nl = self.remove_rec(left, &mut lp, removed, meter);
                let nr = self.remove_rec(right, &mut rp, removed, meter);
                let (Some(l), Some(r)) = (nl, nr) else {
                    // An emptied child takes this node with it.
                    self.core.release(id);
                    return nl.or(nr);
                };
                let (lc, rc) = (self.node(l).count, self.node(r).count);
                let bbox = self.node(l).bbox.union(&self.node(r).bbox);
                let n = self.core.rewrite(id, meter);
                n.count = lc + rc;
                n.bbox = bbox;
                n.kind = PkNodeKind::Internal { dim, split, left: l, right: r };
                if (n.count as usize) <= self.core.leaf_cap || Self::unbalanced(lc, rc) {
                    Some(self.rebuild(id, meter))
                } else {
                    Some(id)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_memsim::{CpuConfig, CpuMeter};
    use pim_workloads::uniform;

    fn meter() -> CpuMeter {
        CpuMeter::new(CpuConfig::xeon())
    }

    fn sorted(mut v: Vec<Point<3>>) -> Vec<Point<3>> {
        v.sort_unstable_by_key(|p| p.coords);
        v
    }

    #[test]
    fn staged_inserts_preserve_multiset_and_balance() {
        let pts = uniform::<3>(8_000, 1);
        let mut t = PkdTree::<3>::new(16);
        let mut m = meter();
        for chunk in pts.chunks(500) {
            t.batch_insert(chunk, &mut m);
            t.check_invariants();
        }
        assert_eq!(sorted(t.all_points()), sorted(pts));
    }

    #[test]
    fn inserts_keep_depth_logarithmic() {
        // Adversarial sorted inserts would degrade an unbalanced kd-tree;
        // reconstruction must keep depth O(log n).
        let mut pts = uniform::<3>(4_000, 2);
        pts.sort_unstable_by_key(|p| p.coords);
        let mut t = PkdTree::<3>::new(8);
        let mut m = meter();
        for chunk in pts.chunks(250) {
            t.batch_insert(chunk, &mut m);
        }
        t.check_invariants();
        fn depth(t: &PkdTree<3>, id: crate::tree::PkNodeId) -> usize {
            match &t.node(id).kind {
                PkNodeKind::Leaf { .. } => 1,
                PkNodeKind::Internal { left, right, .. } => {
                    1 + depth(t, *left).max(depth(t, *right))
                }
            }
        }
        let d = depth(&t, t.root().unwrap());
        assert!(d <= 26, "depth {d} suggests balancing is broken");
    }

    #[test]
    fn delete_everything() {
        let pts = uniform::<3>(2_000, 3);
        let mut t = PkdTree::<3>::build(&pts, 16);
        let mut m = meter();
        assert_eq!(t.batch_delete(&pts, &mut m), 2_000);
        assert!(t.is_empty());
        t.check_invariants();
    }

    #[test]
    fn delete_half_keeps_other_half() {
        let pts = uniform::<3>(4_000, 4);
        let mut t = PkdTree::<3>::build(&pts, 16);
        let mut m = meter();
        let (del, keep) = pts.split_at(2_000);
        assert_eq!(t.batch_delete(del, &mut m), 2_000);
        t.check_invariants();
        assert_eq!(sorted(t.all_points()), sorted(keep.to_vec()));
    }

    #[test]
    fn duplicate_instances_delete_one_at_a_time() {
        let p = Point::new([3u32, 3, 3]);
        let mut t = PkdTree::<3>::new(4);
        let mut m = meter();
        t.batch_insert(&[p; 5], &mut m);
        assert_eq!(t.batch_delete(&[p, p], &mut m), 2);
        assert_eq!(t.len(), 3);
        t.check_invariants();
    }

    #[test]
    fn delete_absent_is_noop() {
        let pts = uniform::<3>(500, 5);
        let mut t = PkdTree::<3>::build(&pts, 16);
        let mut m = meter();
        let absent = uniform::<3>(100, 888);
        let r = t.batch_delete(&absent, &mut m);
        assert!(r <= 1);
        t.check_invariants();
    }
}
