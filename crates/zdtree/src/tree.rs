//! The tree structure: construction, accessors, and invariants.

use crate::engine::{BinTree, TreeNode};
use crate::node::{Keyed, Node, NodeId, NodeKind};
use pim_geom::Point;
use pim_zorder::prefix::Prefix;
use pim_zorder::ZKey;
use rayon::prelude::*;

/// Below this many items, recursion proceeds sequentially (task-spawn
/// overhead would dominate).
const PAR_CUTOFF: usize = 4096;

/// A shared-memory batch-dynamic zd-tree.
///
/// ```
/// use pim_zdtree_base::ZdTree;
/// use pim_geom::{Metric, Point};
/// use pim_memsim::CpuMeter;
///
/// let pts: Vec<Point<2>> = (0..100u32).map(|i| Point::new([i * 7, i * 13])).collect();
/// let tree = ZdTree::build(&pts, 8);
/// let mut meter = CpuMeter::disabled();
/// let nn = tree.knn(&Point::new([50, 100]), 3, Metric::L2, &mut meter);
/// assert_eq!(nn.len(), 3);
/// ```
pub struct ZdTree<const D: usize> {
    /// Arena, root, leaf capacity (exceeded only by duplicate keys) and
    /// point count; the metered queries run here.
    pub(crate) core: BinTree<Node<D>, D>,
}

crate::baseline_surface!(ZdTree, Node);

/// Encodes and sorts a batch: the standard preprocessing of every operation.
/// Sorting is by (key, point) so duplicate keys have a canonical order —
/// with that total key, even the *unstable* parallel sort yields one
/// canonical permutation at any thread count.
pub(crate) fn keyed_sorted<const D: usize>(points: &[Point<D>]) -> Vec<Keyed<D>> {
    let mut items: Vec<Keyed<D>> = points.par_iter().map(|p| (ZKey::<D>::encode(p), *p)).collect();
    items.par_sort_unstable_by_key(|(k, p)| (*k, p.coords));
    items
}

/// Whether a canonical (sub)tree over `items` is a single leaf: few enough
/// points, or an unsplittable run of duplicate keys.
#[inline]
pub(crate) fn is_leaf_set<const D: usize>(items: &[Keyed<D>], leaf_cap: usize) -> bool {
    items.len() <= leaf_cap || items.first().unwrap().0 == items.last().unwrap().0
}

/// The canonical prefix of a sorted, non-empty item set: LCP(first, last).
#[inline]
pub(crate) fn set_prefix<const D: usize>(items: &[Keyed<D>]) -> Prefix<D> {
    let first = items.first().unwrap().0;
    let last = items.last().unwrap().0;
    Prefix::new(first, first.common_prefix_len(last))
}

/// Number of arena nodes the canonical tree over `items` occupies.
fn count_nodes<const D: usize>(items: &[Keyed<D>], leaf_cap: usize) -> usize {
    if items.is_empty() {
        return 0;
    }
    if is_leaf_set(items, leaf_cap) {
        return 1;
    }
    let pre = set_prefix(items);
    let split = items.partition_point(|(k, _)| k.bit(pre.len) == 0);
    let (l, r) = items.split_at(split);
    if items.len() >= PAR_CUTOFF {
        let (a, b) = rayon::join(|| count_nodes(l, leaf_cap), || count_nodes(r, leaf_cap));
        1 + a + b
    } else {
        1 + count_nodes(l, leaf_cap) + count_nodes(r, leaf_cap)
    }
}

/// Fills `arena` (a slice sized by [`count_nodes`]) with the canonical tree
/// over `items` in DFS preorder; the subtree root lands at `arena\[0\]`, whose
/// global id is `base`.
fn fill<const D: usize>(
    arena: &mut [Option<Node<D>>],
    items: &[Keyed<D>],
    base: NodeId,
    leaf_cap: usize,
) {
    debug_assert!(!items.is_empty());
    if is_leaf_set(items, leaf_cap) {
        arena[0] = Some(Node {
            prefix: set_prefix(items),
            count: items.len() as u32,
            kind: NodeKind::Leaf { points: items.to_vec() },
        });
        return;
    }
    let pre = set_prefix(items);
    let split = items.partition_point(|(k, _)| k.bit(pre.len) == 0);
    let (li, ri) = items.split_at(split);
    let ln = count_nodes(li, leaf_cap);
    let (root_slot, rest) = arena.split_first_mut().unwrap();
    let (l_arena, r_arena) = rest.split_at_mut(ln);
    *root_slot = Some(Node {
        prefix: pre,
        count: items.len() as u32,
        kind: NodeKind::Internal { left: base + 1, right: base + 1 + ln as NodeId },
    });
    if items.len() >= PAR_CUTOFF {
        rayon::join(
            || fill(l_arena, li, base + 1, leaf_cap),
            || fill(r_arena, ri, base + 1 + ln as NodeId, leaf_cap),
        );
    } else {
        fill(l_arena, li, base + 1, leaf_cap);
        fill(r_arena, ri, base + 1 + ln as NodeId, leaf_cap);
    }
}

impl<const D: usize> ZdTree<D> {
    /// Default leaf capacity used throughout the evaluation.
    pub const DEFAULT_LEAF_CAP: usize = 16;

    /// Builds the canonical tree over `points` in parallel (O(n) work after
    /// the sort, O(polylog) span — Lemma 2.1 (ii)).
    pub fn build(points: &[Point<D>], leaf_cap: usize) -> Self {
        if points.is_empty() {
            return Self::new(leaf_cap);
        }
        let items = keyed_sorted(points);
        let n_nodes = count_nodes(&items, leaf_cap);
        let core =
            BinTree::bulk(leaf_cap, items.len(), n_nodes, |arena| fill(arena, &items, 0, leaf_cap));
        Self { core }
    }

    /// Resident bytes of the structure (arena + leaf points), for space
    /// accounting (Theorem 5.1 comparisons).
    pub fn resident_bytes(&self) -> u64 {
        let mut bytes = 0u64;
        for n in self.core.nodes() {
            bytes += Node::<D>::NODE_BYTES;
            if let NodeKind::Leaf { points } = &n.kind {
                bytes += points.len() as u64 * Node::<D>::POINT_BYTES;
            }
        }
        bytes
    }

    /// Exhaustively checks the canonical-structure invariants; panics with a
    /// description on violation. Test-only by convention (O(n log n)).
    pub fn check_invariants(&self) {
        let Some(root) = self.core.root else {
            assert_eq!(self.len(), 0, "empty root but n_points > 0");
            return;
        };
        let total = self.check_node(root, None);
        assert_eq!(total as usize, self.len(), "n_points mismatch");
    }

    fn check_node(&self, id: NodeId, parent_region: Option<(Prefix<D>, u8)>) -> u32 {
        let n = self.node(id);
        if let Some((ppre, side)) = parent_region {
            assert!(n.prefix.len > ppre.len, "child prefix must extend parent");
            let region = ppre.child(side);
            assert!(region.covers_prefix(&n.prefix), "child prefix outside its routing region");
        }
        match &n.kind {
            NodeKind::Leaf { points } => {
                assert!(!points.is_empty(), "empty leaf must be omitted");
                assert!(
                    points.len() <= self.leaf_cap() || points.windows(2).all(|w| w[0].0 == w[1].0),
                    "oversized leaf without duplicate keys"
                );
                assert!(points.windows(2).all(|w| w[0].0 <= w[1].0), "leaf points unsorted");
                let pre = set_prefix(points);
                assert_eq!(pre.key, n.prefix.key, "leaf prefix key mismatch");
                assert_eq!(pre.len, n.prefix.len, "leaf prefix not canonical LCP");
                for (k, p) in points {
                    assert_eq!(*k, ZKey::<D>::encode(p), "stale key");
                    assert!(n.prefix.covers(*k), "point outside leaf prefix");
                }
                assert_eq!(n.count as usize, points.len(), "leaf count mismatch");
                points.len() as u32
            }
            NodeKind::Internal { left, right } => {
                let lc = self.check_node(*left, Some((n.prefix, 0)));
                let rc = self.check_node(*right, Some((n.prefix, 1)));
                assert_eq!(n.count, lc + rc, "internal count mismatch");
                assert!(lc > 0 && rc > 0, "compression violated: empty child");
                n.count
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_workloads::uniform;

    #[test]
    fn build_empty_and_tiny() {
        let t = ZdTree::<3>::build(&[], 4);
        assert!(t.is_empty());
        t.check_invariants();

        let pts = vec![Point::new([1u32, 2, 3])];
        let t = ZdTree::<3>::build(&pts, 4);
        assert_eq!(t.len(), 1);
        t.check_invariants();
    }

    #[test]
    fn build_uniform_is_canonical() {
        let pts = uniform::<3>(10_000, 42);
        let t = ZdTree::<3>::build(&pts, 16);
        assert_eq!(t.len(), 10_000);
        t.check_invariants();
        // 2n + O(1) nodes for leaf_cap = 1; far fewer for 16. Sanity bounds:
        assert!(t.node_count() < 2 * 10_000);
    }

    #[test]
    fn build_handles_duplicate_keys_beyond_leaf_cap() {
        let p = Point::new([5u32, 5, 5]);
        let pts = vec![p; 100];
        let t = ZdTree::<3>::build(&pts, 4);
        assert_eq!(t.len(), 100);
        t.check_invariants();
        assert_eq!(t.node_count(), 1, "all duplicates in one leaf");
    }

    #[test]
    fn build_is_history_independent() {
        // The canonical structure depends only on the point set: building
        // from a permuted input yields an identical traversal structure.
        let pts = uniform::<3>(5_000, 7);
        let mut shuffled = pts.clone();
        shuffled.reverse();
        let a = ZdTree::<3>::build(&pts, 8);
        let b = ZdTree::<3>::build(&shuffled, 8);
        assert_eq!(a.all_points(), b.all_points());
        assert_eq!(a.node_count(), b.node_count());
    }

    #[test]
    fn all_points_returns_sorted_keys() {
        let pts = uniform::<3>(2_000, 9);
        let t = ZdTree::<3>::build(&pts, 16);
        let all = t.all_points();
        assert_eq!(all.len(), 2_000);
        assert!(all.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn leaf_cap_one_gives_binary_tree_with_2n_nodes() {
        let pts = uniform::<3>(1_000, 11);
        let t = ZdTree::<3>::build(&pts, 1);
        t.check_invariants();
        // Exactly 2n - 1 nodes when all keys are distinct.
        let distinct: std::collections::HashSet<u64> =
            pts.iter().map(|p| ZKey::<3>::encode(p).0).collect();
        assert_eq!(t.node_count(), 2 * distinct.len() - 1);
    }

    #[test]
    fn resident_bytes_scales_with_n() {
        let small = ZdTree::<3>::build(&uniform::<3>(1_000, 1), 16);
        let large = ZdTree::<3>::build(&uniform::<3>(10_000, 1), 16);
        assert!(large.resident_bytes() > 5 * small.resident_bytes());
    }
}
