//! Structure and construction of the object-median kd-tree.

use pim_geom::{Aabb, Point};
use pim_zdtree_base::engine::{BinTree, Kind, TreeNode};

/// Handle into the node arena.
pub use pim_zdtree_base::engine::NodeId as PkNodeId;

/// Weight-balance factor: a child may hold at most this fraction of its
/// parent's points (plus slack) before the subtree is rebuilt. Pkd-tree
/// calls this the imbalance ratio; 0.7 is its default regime.
pub const BALANCE_ALPHA: f64 = 0.7;

/// Payload of a kd-tree node.
#[derive(Clone, Debug)]
pub enum PkNodeKind<const D: usize> {
    /// Internal split node.
    Internal {
        /// Split dimension.
        dim: u8,
        /// The object median's full order key along `dim`
        /// (`(coords[dim], coords)`): points strictly below go left, the
        /// median and everything above go right. Storing the complete key
        /// makes routing a total order, so updates are deterministic even
        /// with duplicate coordinates.
        split: (u32, [u32; D]),
        /// Left child.
        left: PkNodeId,
        /// Right child.
        right: PkNodeId,
    },
    /// Leaf bucket.
    Leaf {
        /// Unordered point bucket.
        points: Vec<Point<D>>,
    },
}

/// One node: tight bounding box + subtree count + payload.
#[derive(Clone, Debug)]
pub struct PkNode<const D: usize> {
    /// Tight bounding box of the subtree's points.
    pub bbox: Aabb<D>,
    /// Number of points below.
    pub count: u32,
    /// Payload.
    pub kind: PkNodeKind<D>,
}

/// What the Pkd-tree supplies to the engine: its stored tight box and bare
/// points as leaf entries.
impl<const D: usize> TreeNode<D> for PkNode<D> {
    type Item = Point<D>;

    // Regions disjoint from the zd-tree's.
    const NODE_REGION: u64 = 1 << 42;
    const POINTS_REGION: u64 = 1 << 43;
    const NODE_BYTES: u64 = 56;
    const POINT_BYTES: u64 = Point::<D>::wire_bytes();

    #[inline]
    fn bbox(&self) -> Aabb<D> {
        self.bbox
    }

    #[inline]
    fn count(&self) -> u32 {
        self.count
    }

    #[inline]
    fn kind(&self) -> Kind<'_, Point<D>> {
        match &self.kind {
            PkNodeKind::Leaf { points } => Kind::Leaf(points),
            PkNodeKind::Internal { left, right, .. } => Kind::Internal(*left, *right),
        }
    }

    #[inline]
    fn point(item: &Point<D>) -> &Point<D> {
        item
    }
}

/// The parallel batch-dynamic kd-tree.
pub struct PkdTree<const D: usize> {
    /// Arena, root, leaf capacity and point count; kNN and the range
    /// queries run here, instrumented exactly as the zd-tree's are.
    pub(crate) core: BinTree<PkNode<D>, D>,
}

pim_zdtree_base::baseline_surface!(PkdTree, PkNode);

/// Tight bounding box of a point set (assumed non-empty).
pub(crate) fn tight_box<const D: usize>(pts: &[Point<D>]) -> Aabb<D> {
    let mut b = Aabb::point(pts[0]);
    for p in &pts[1..] {
        b.expand(p);
    }
    b
}

/// Widest dimension of a box (ties to the lowest index).
pub(crate) fn widest_dim<const D: usize>(b: &Aabb<D>) -> u8 {
    let mut best = 0usize;
    let mut width = 0u64;
    for i in 0..D {
        let w = (b.hi.coords[i] - b.lo.coords[i]) as u64;
        if w > width {
            width = w;
            best = i;
        }
    }
    best as u8
}

/// Deterministic total order along `dim` with full-coordinate tiebreak.
#[inline]
pub(crate) fn dim_key<const D: usize>(p: &Point<D>, dim: u8) -> (u32, [u32; D]) {
    (p.coords[dim as usize], p.coords)
}

const PAR_CUTOFF: usize = 4096;

/// Number of arena nodes for `n` points (object-median halves exactly).
fn count_nodes(n: usize, leaf_cap: usize) -> usize {
    if n <= leaf_cap {
        1
    } else {
        let m = n / 2;
        1 + count_nodes(m, leaf_cap) + count_nodes(n - m, leaf_cap)
    }
}

/// Fills `arena` with the kd-tree over `pts` (mutated in place by median
/// partitioning); the subtree root lands at `arena\[0\]` with global id `base`.
fn fill<const D: usize>(
    arena: &mut [Option<PkNode<D>>],
    pts: &mut [Point<D>],
    base: PkNodeId,
    leaf_cap: usize,
) {
    debug_assert!(!pts.is_empty());
    if pts.len() <= leaf_cap {
        arena[0] = Some(PkNode {
            bbox: tight_box(pts),
            count: pts.len() as u32,
            kind: PkNodeKind::Leaf { points: pts.to_vec() },
        });
        return;
    }
    let bbox = tight_box(pts);
    let dim = widest_dim(&bbox);
    let m = pts.len() / 2;
    pts.select_nth_unstable_by_key(m, |p| dim_key(p, dim));
    let split = dim_key(&pts[m], dim);
    let (lp, rp) = pts.split_at_mut(m);
    let ln = count_nodes(m, leaf_cap);
    let (root_slot, rest) = arena.split_first_mut().unwrap();
    let (la, ra) = rest.split_at_mut(ln);
    *root_slot = Some(PkNode {
        bbox,
        count: (lp.len() + rp.len()) as u32,
        kind: PkNodeKind::Internal { dim, split, left: base + 1, right: base + 1 + ln as PkNodeId },
    });
    if lp.len() + rp.len() >= PAR_CUTOFF {
        // Each side writes a disjoint, pre-sized arena slice at ids fixed
        // by `count_nodes` — layout is thread-count independent.
        rayon::join(
            || fill(la, lp, base + 1, leaf_cap),
            || fill(ra, rp, base + 1 + ln as PkNodeId, leaf_cap),
        );
    } else {
        fill(la, lp, base + 1, leaf_cap);
        fill(ra, rp, base + 1 + ln as PkNodeId, leaf_cap);
    }
}

impl<const D: usize> PkdTree<D> {
    /// Default leaf capacity (Pkd-tree favours larger buckets than zd-tree).
    pub const DEFAULT_LEAF_CAP: usize = 32;

    /// Parallel bulk build.
    pub fn build(points: &[Point<D>], leaf_cap: usize) -> Self {
        if points.is_empty() {
            return Self::new(leaf_cap);
        }
        let mut pts = points.to_vec();
        let n_nodes = count_nodes(pts.len(), leaf_cap);
        let core =
            BinTree::bulk(leaf_cap, pts.len(), n_nodes, |arena| fill(arena, &mut pts, 0, leaf_cap));
        Self { core }
    }

    /// Structural invariants; panics on violation (tests only — O(n log n)).
    pub fn check_invariants(&self) {
        let Some(root) = self.core.root else {
            assert_eq!(self.len(), 0);
            return;
        };
        let total = self.check_node(root);
        assert_eq!(total as usize, self.len(), "n_points mismatch");
    }

    fn check_node(&self, id: PkNodeId) -> u32 {
        let n = self.node(id);
        match &n.kind {
            PkNodeKind::Leaf { points } => {
                assert!(!points.is_empty(), "empty leaf");
                for p in points {
                    assert!(n.bbox.contains(p), "point escapes leaf bbox");
                }
                assert_eq!(n.count as usize, points.len());
                points.len() as u32
            }
            PkNodeKind::Internal { dim, split, left, right } => {
                let (lc, rc) = (self.check_node(*left), self.check_node(*right));
                assert_eq!(n.count, lc + rc, "count mismatch");
                assert!(lc > 0 && rc > 0, "empty child must be spliced");
                let lb = &self.node(*left).bbox;
                let rb = &self.node(*right).bbox;
                assert!(n.bbox.contains_box(lb) && n.bbox.contains_box(rb));
                // The split key separates the sides along `dim`.
                assert!(lb.hi.coords[*dim as usize] <= split.0);
                assert!(rb.hi.coords[*dim as usize] >= split.0);
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
    fn build_and_invariants() {
        let pts = uniform::<3>(10_000, 1);
        let t = PkdTree::<3>::build(&pts, 32);
        assert_eq!(t.len(), 10_000);
        t.check_invariants();
    }

    #[test]
    fn build_empty_and_single() {
        let t = PkdTree::<3>::build(&[], 8);
        assert!(t.is_empty());
        t.check_invariants();
        let t = PkdTree::<3>::build(&[Point::new([1u32, 2, 3])], 8);
        assert_eq!(t.len(), 1);
        t.check_invariants();
    }

    #[test]
    fn object_median_build_is_balanced() {
        let pts = uniform::<3>(8_192, 2);
        let t = PkdTree::<3>::build(&pts, 8);
        // Perfect halving: depth ≤ log2(n/cap) + 2.
        fn depth<const D: usize>(t: &PkdTree<D>, id: PkNodeId) -> usize {
            match &t.node(id).kind {
                PkNodeKind::Leaf { .. } => 1,
                PkNodeKind::Internal { left, right, .. } => {
                    1 + depth(t, *left).max(depth(t, *right))
                }
            }
        }
        let d = depth(&t, t.root().unwrap());
        assert!(d <= 13, "depth {d} too deep for 8k points / cap 8");
    }

    #[test]
    fn duplicate_points_build() {
        let pts = vec![Point::new([5u32, 5, 5]); 100];
        let t = PkdTree::<3>::build(&pts, 8);
        assert_eq!(t.len(), 100);
        t.check_invariants();
    }

    #[test]
    fn all_points_preserves_multiset() {
        let pts = uniform::<3>(3_000, 3);
        let t = PkdTree::<3>::build(&pts, 16);
        let mut got = t.all_points();
        let mut want = pts.clone();
        got.sort_unstable_by_key(|p| p.coords);
        want.sort_unstable_by_key(|p| p.coords);
        assert_eq!(got, want);
    }
}
