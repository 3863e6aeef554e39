//! Batch insertions and deletions.
//!
//! Both operations preserve the *canonical* compressed structure: after any
//! update the tree is identical to one freshly built from the resulting
//! point set (history independence, §1 — "the structure is independent of
//! the order of data point insertions"). Insertion merges a sorted batch
//! down the tree in O(k·log(1 + n/k)) work (Lemma 2.1 (iv)); deletion
//! splices emptied nodes and collapses small subtrees back into leaves.

use crate::costs;
use crate::engine::charge_batch_state;
use crate::node::{Keyed, Node, NodeId, NodeKind};
use crate::tree::{is_leaf_set, keyed_sorted, set_prefix, ZdTree};
use pim_geom::Point;
use pim_memsim::CpuMeter;
use pim_zorder::prefix::Prefix;

impl<const D: usize> ZdTree<D> {
    /// Inserts a batch of points (multiset semantics: duplicates stack).
    pub fn batch_insert(&mut self, points: &[Point<D>], meter: &mut CpuMeter) {
        if points.is_empty() {
            return;
        }
        // Batch preprocessing: key computation + sort.
        meter.work(points.len() as u64 * (costs::zorder_fast_cycles(D) + costs::SORT_PER_KEY));
        charge_batch_state(points.len(), meter);
        let items = keyed_sorted(points);
        self.core.root = Some(match self.core.root {
            None => self.build_subtree(&items, meter),
            Some(r) => self.merge(r, &items, meter),
        });
        self.core.n_points += points.len();
    }

    /// Deletes a batch of points. Each batch element removes at most one
    /// stored instance of that exact point; absent points are ignored.
    /// Returns the number of points actually removed.
    pub fn batch_delete(&mut self, points: &[Point<D>], meter: &mut CpuMeter) -> usize {
        if points.is_empty() || self.core.root.is_none() {
            return 0;
        }
        meter.work(points.len() as u64 * (costs::zorder_fast_cycles(D) + costs::SORT_PER_KEY));
        charge_batch_state(points.len(), meter);
        let items = keyed_sorted(points);
        let mut removed = 0usize;
        self.core.root = self.remove(self.core.root.unwrap(), &items, &mut removed, meter);
        self.core.n_points -= removed;
        removed
    }

    /// Builds the canonical subtree over sorted `items` with arena
    /// allocation (used for fresh subtrees hanging off a merge).
    pub(crate) fn build_subtree(&mut self, items: &[Keyed<D>], meter: &mut CpuMeter) -> NodeId {
        debug_assert!(!items.is_empty());
        if is_leaf_set(items, self.core.leaf_cap) {
            return self.core.alloc_charged(
                Node {
                    prefix: set_prefix(items),
                    count: items.len() as u32,
                    kind: NodeKind::Leaf { points: items.to_vec() },
                },
                meter,
            );
        }
        let pre = set_prefix(items);
        let split = items.partition_point(|(k, _)| k.bit(pre.len) == 0);
        let left = self.build_subtree(&items[..split], meter);
        let right = self.build_subtree(&items[split..], meter);
        self.core.alloc_charged(
            Node {
                prefix: pre,
                count: items.len() as u32,
                kind: NodeKind::Internal { left, right },
            },
            meter,
        )
    }

    /// Merges sorted `items` into the subtree at `id`, returning the new
    /// subtree root (ids may change as nodes split or collapse).
    fn merge(&mut self, id: NodeId, items: &[Keyed<D>], meter: &mut CpuMeter) -> NodeId {
        if items.is_empty() {
            return id;
        }
        self.core.charge_visit(id, meter);
        let np = self.node(id).prefix;
        let ncount = self.node(id).count as usize;
        let total = ncount + items.len();

        // Divergence of the batch from this node's prefix: because items are
        // sorted, the minimum common-prefix length over the batch is reached
        // at the first or last item (prefix lengths are an ultrametric).
        let first = items.first().unwrap().0;
        let last = items.last().unwrap().0;
        let b = first.common_prefix_len(np.key).min(last.common_prefix_len(np.key));

        if b < np.len {
            // The batch escapes this node's prefix: a new canonical node
            // appears at depth b (the LCP of the union set).
            if total <= self.core.leaf_cap {
                // Small union: collapse everything into one leaf.
                let mut all = Vec::with_capacity(total);
                self.core.collect_points(id, &mut all);
                self.core.charge_leaf_points(id, ncount, meter);
                self.core.release_subtree(id);
                all.extend_from_slice(items);
                all.sort_unstable_by_key(|(k, p)| (*k, p.coords));
                meter.work(total as u64 * costs::SORT_PER_KEY);
                return self.build_subtree(&all, meter);
            }
            let new_pre = Prefix::new(np.key, b);
            let node_side = np.key.bit(b);
            let split = items.partition_point(|(k, _)| k.bit(b) == 0);
            let (zero_items, one_items) = items.split_at(split);
            let (same, other) =
                if node_side == 0 { (zero_items, one_items) } else { (one_items, zero_items) };
            debug_assert!(!other.is_empty(), "divergence implies an escaping item");
            let merged_same = self.merge(id, same, meter);
            let built_other = self.build_subtree(other, meter);
            let (left, right) = if node_side == 0 {
                (merged_same, built_other)
            } else {
                (built_other, merged_same)
            };
            return self.core.alloc_charged(
                Node {
                    prefix: new_pre,
                    count: total as u32,
                    kind: NodeKind::Internal { left, right },
                },
                meter,
            );
        }

        // Batch entirely under this node's prefix.
        match &self.node(id).kind {
            NodeKind::Leaf { points } => {
                // Merge two sorted runs.
                let mut merged = Vec::with_capacity(total);
                let (mut i, mut j) = (0, 0);
                let old = points.clone();
                self.core.charge_leaf_points(id, old.len(), meter);
                meter.work(total as u64 * costs::MERGE_PER_KEY);
                while i < old.len() && j < items.len() {
                    if (old[i].0, old[i].1.coords) <= (items[j].0, items[j].1.coords) {
                        merged.push(old[i]);
                        i += 1;
                    } else {
                        merged.push(items[j]);
                        j += 1;
                    }
                }
                merged.extend_from_slice(&old[i..]);
                merged.extend_from_slice(&items[j..]);

                if is_leaf_set(&merged, self.core.leaf_cap) {
                    let pre = set_prefix(&merged);
                    let n = self.core.rewrite(id, meter);
                    n.prefix = pre;
                    n.count = merged.len() as u32;
                    n.kind = NodeKind::Leaf { points: merged };
                    id
                } else {
                    // Leaf overflows: rebuild this subtree canonically.
                    self.core.release(id);
                    self.build_subtree(&merged, meter)
                }
            }
            NodeKind::Internal { left, right } => {
                let (left, right) = (*left, *right);
                let split = items.partition_point(|(k, _)| k.bit(np.len) == 0);
                let (li, ri) = items.split_at(split);
                let new_left = self.merge(left, li, meter);
                let new_right = self.merge(right, ri, meter);
                let n = self.core.rewrite(id, meter);
                n.count = total as u32;
                n.kind = NodeKind::Internal { left: new_left, right: new_right };
                id
            }
        }
    }

    /// Removes sorted `items` from the subtree at `id`; returns the
    /// replacement root (`None` when the subtree empties).
    fn remove(
        &mut self,
        id: NodeId,
        items: &[Keyed<D>],
        removed: &mut usize,
        meter: &mut CpuMeter,
    ) -> Option<NodeId> {
        if items.is_empty() {
            return Some(id);
        }
        self.core.charge_visit(id, meter);
        let np = self.node(id).prefix;
        // Restrict the batch to the keys this node can contain.
        let (lo, hi) = np.key_range();
        let start = items.partition_point(|(k, _)| k.0 < lo);
        let end = items.partition_point(|(k, _)| k.0 <= hi);
        let items = &items[start..end];
        if items.is_empty() {
            return Some(id);
        }

        match &self.node(id).kind {
            NodeKind::Leaf { points } => {
                let old = points.clone();
                self.core.charge_leaf_points(id, old.len(), meter);
                meter.work((old.len() + items.len()) as u64 * costs::MERGE_PER_KEY);
                // Two-pointer multiset difference: each batch element removes
                // at most one matching stored instance.
                let mut kept: Vec<Keyed<D>> = Vec::with_capacity(old.len());
                let mut j = 0usize;
                let mut consumed = vec![false; items.len()];
                for entry in &old {
                    while j < items.len()
                        && (items[j].0, items[j].1.coords) < (entry.0, entry.1.coords)
                    {
                        j += 1;
                    }
                    // Find an unconsumed exact match at or after j.
                    let mut jj = j;
                    let mut matched = false;
                    while jj < items.len() && items[jj].0 == entry.0 {
                        if !consumed[jj] && items[jj].1 == entry.1 {
                            consumed[jj] = true;
                            matched = true;
                            break;
                        }
                        jj += 1;
                    }
                    if matched {
                        *removed += 1;
                    } else {
                        kept.push(*entry);
                    }
                }
                if kept.is_empty() {
                    self.core.release(id);
                    None
                } else {
                    let pre = set_prefix(&kept);
                    let n = self.core.rewrite(id, meter);
                    n.prefix = pre;
                    n.count = kept.len() as u32;
                    n.kind = NodeKind::Leaf { points: kept };
                    Some(id)
                }
            }
            NodeKind::Internal { left, right } => {
                let (left, right) = (*left, *right);
                let split = items.partition_point(|(k, _)| k.bit(np.len) == 0);
                let (li, ri) = items.split_at(split);
                let nl = self.remove(left, li, removed, meter);
                let nr = self.remove(right, ri, removed, meter);
                let (Some(l), Some(r)) = (nl, nr) else {
                    // Splice: compression forbids single-child nodes.
                    self.core.release(id);
                    return nl.or(nr);
                };
                let count = self.node(l).count + self.node(r).count;
                if (count as usize) <= self.core.leaf_cap {
                    // Collapse the small subtree back into one leaf.
                    let mut all = Vec::with_capacity(count as usize);
                    self.core.collect_points(l, &mut all);
                    self.core.collect_points(r, &mut all);
                    all.sort_unstable_by_key(|(k, p)| (*k, p.coords));
                    self.core.release_subtree(l);
                    self.core.release_subtree(r);
                    let pre = set_prefix(&all);
                    let n = self.core.rewrite(id, meter);
                    n.prefix = pre;
                    n.count = count;
                    n.kind = NodeKind::Leaf { points: all };
                } else {
                    let n = self.core.rewrite(id, meter);
                    n.count = count;
                    n.kind = NodeKind::Internal { left: l, right: r };
                }
                Some(id)
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

    /// Reference: rebuild from scratch and compare the stored multiset.
    fn assert_same_set(t: &ZdTree<3>, expect: &[Point<3>]) {
        let fresh = ZdTree::<3>::build(expect, t.leaf_cap());
        assert_eq!(t.all_points(), fresh.all_points());
        assert_eq!(t.node_count(), fresh.node_count(), "structure not canonical");
    }

    #[test]
    fn insert_into_empty_builds_canonically() {
        let pts = uniform::<3>(3_000, 1);
        let mut t = ZdTree::<3>::new(16);
        t.batch_insert(&pts, &mut meter());
        t.check_invariants();
        assert_same_set(&t, &pts);
    }

    #[test]
    fn staged_inserts_match_fresh_build() {
        let pts = uniform::<3>(6_000, 2);
        let mut t = ZdTree::<3>::new(16);
        let mut m = meter();
        for chunk in pts.chunks(1_000) {
            t.batch_insert(chunk, &mut m);
            t.check_invariants();
        }
        assert_same_set(&t, &pts);
    }

    #[test]
    fn insert_duplicates_stack() {
        let p = Point::new([9u32, 9, 9]);
        let mut t = ZdTree::<3>::new(4);
        let mut m = meter();
        t.batch_insert(&[p; 10], &mut m);
        t.batch_insert(&[p; 10], &mut m);
        assert_eq!(t.len(), 20);
        t.check_invariants();
    }

    #[test]
    fn delete_everything_empties_tree() {
        let pts = uniform::<3>(2_000, 3);
        let mut t = ZdTree::<3>::build(&pts, 16);
        let mut m = meter();
        let removed = t.batch_delete(&pts, &mut m);
        assert_eq!(removed, 2_000);
        assert!(t.is_empty());
        t.check_invariants();
    }

    #[test]
    fn delete_half_matches_fresh_build() {
        let pts = uniform::<3>(4_000, 4);
        let mut t = ZdTree::<3>::build(&pts, 16);
        let mut m = meter();
        let (del, keep) = pts.split_at(2_000);
        let removed = t.batch_delete(del, &mut m);
        assert_eq!(removed, 2_000);
        t.check_invariants();
        assert_same_set(&t, keep);
    }

    #[test]
    fn delete_absent_points_is_noop() {
        let pts = uniform::<3>(500, 5);
        let absent = uniform::<3>(100, 999);
        let mut t = ZdTree::<3>::build(&pts, 16);
        let mut m = meter();
        let removed = t.batch_delete(&absent, &mut m);
        assert!(removed <= 1, "random collision at most");
        t.check_invariants();
    }

    #[test]
    fn delete_one_duplicate_instance_at_a_time() {
        let p = Point::new([1u32, 2, 3]);
        let mut t = ZdTree::<3>::new(4);
        let mut m = meter();
        t.batch_insert(&[p; 3], &mut m);
        assert_eq!(t.batch_delete(&[p], &mut m), 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.batch_delete(&[p; 5], &mut m), 2);
        assert!(t.is_empty());
    }

    #[test]
    fn interleaved_updates_stay_canonical() {
        let pts = uniform::<3>(3_000, 6);
        let extra = uniform::<3>(1_000, 7);
        let mut t = ZdTree::<3>::build(&pts, 8);
        let mut m = meter();
        t.batch_delete(&pts[..1_500], &mut m);
        t.batch_insert(&extra, &mut m);
        t.check_invariants();
        let mut expect: Vec<Point<3>> = pts[1_500..].to_vec();
        expect.extend_from_slice(&extra);
        assert_same_set(&t, &expect);
    }

    #[test]
    fn updates_charge_the_meter() {
        let pts = uniform::<3>(1_000, 8);
        let mut t = ZdTree::<3>::new(16);
        let mut m = meter();
        t.batch_insert(&pts, &mut m);
        let s = m.stats();
        assert!(s.work_cycles > 0);
        assert!(s.dram_bytes > 0);
    }
}
