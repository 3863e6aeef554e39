//! Arena nodes of the compressed z-order radix tree.

use crate::engine::{Kind, TreeNode};
use pim_geom::{Aabb, Point};
use pim_zorder::prefix::Prefix;
use pim_zorder::ZKey;

pub use crate::engine::NodeId;

/// A point paired with its Morton key (keys are computed once on entry and
/// carried alongside; recomputation is a measured cost, not a hidden one).
pub type Keyed<const D: usize> = (ZKey<D>, Point<D>);

/// Payload of a node.
#[derive(Clone, Debug)]
pub enum NodeKind<const D: usize> {
    /// Two-child internal node (compression guarantees exactly two).
    Internal {
        /// Child covering the 0-side of the split bit.
        left: NodeId,
        /// Child covering the 1-side.
        right: NodeId,
    },
    /// Leaf holding its points sorted by key.
    Leaf {
        /// Points sorted by Morton key.
        points: Vec<Keyed<D>>,
    },
}

/// One node of the tree.
#[derive(Clone, Debug)]
pub struct Node<const D: usize> {
    /// The key prefix this node covers. For an internal node the split is at
    /// bit `prefix.len`; for a leaf it is the common prefix of its keys.
    pub prefix: Prefix<D>,
    /// Number of points in this subtree.
    pub count: u32,
    /// Internal links or points.
    pub kind: NodeKind<D>,
}

/// What the zd-tree supplies to the engine: the exact box of the prefix
/// (§2.3 stores bounding boxes on all nodes) and keyed leaf entries.
impl<const D: usize> TreeNode<D> for Node<D> {
    type Item = Keyed<D>;

    const NODE_REGION: u64 = 1 << 40;
    const POINTS_REGION: u64 = 1 << 41;
    /// Prefix + count + links, padded.
    const NODE_BYTES: u64 = 48;
    /// The 8 B key and the coordinates.
    const POINT_BYTES: u64 = 8 + Point::<D>::wire_bytes();

    #[inline]
    fn bbox(&self) -> Aabb<D> {
        self.prefix.to_box()
    }

    #[inline]
    fn count(&self) -> u32 {
        self.count
    }

    #[inline]
    fn kind(&self) -> Kind<'_, Keyed<D>> {
        match &self.kind {
            NodeKind::Leaf { points } => Kind::Leaf(points),
            NodeKind::Internal { left, right } => Kind::Internal(*left, *right),
        }
    }

    #[inline]
    fn point(item: &Keyed<D>) -> &Point<D> {
        &item.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bbox_of_leaf_prefix_contains_its_points() {
        let pts: Vec<Keyed<3>> = [[1u32, 2, 3], [1, 2, 4]]
            .into_iter()
            .map(|c| {
                let p = Point::new(c);
                (ZKey::<3>::encode(&p), p)
            })
            .collect();
        let lcp = pts[0].0.common_prefix_len(pts[1].0);
        let n = Node::<3> {
            prefix: Prefix::new(pts[0].0, lcp),
            count: 2,
            kind: NodeKind::Leaf { points: pts.clone() },
        };
        for (_, p) in &pts {
            assert!(n.bbox().contains(p));
        }
    }

    #[test]
    fn address_regions_are_disjoint() {
        // A billion nodes still keeps the regions apart.
        const LAST: u64 = Node::<3>::NODE_REGION + (1 << 30) * Node::<3>::NODE_BYTES;
        const { assert!(LAST < Node::<3>::POINTS_REGION) };
    }
}
