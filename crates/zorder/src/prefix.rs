//! Key-prefix algebra: the bridge between Morton keys and geometry.
//!
//! A node of a zd-tree covers exactly the points whose keys share a given
//! bit prefix. That set is an axis-aligned box: the prefix pins the top bits
//! of every coordinate and leaves the rest free. [`prefix_box`] materializes
//! that box, and the child/sibling helpers implement the radix-tree
//! navigation used by every tree in this workspace.

use crate::ZKey;
use pim_geom::{Aabb, Point};

/// The exact bounding box of all points whose key starts with the first
/// `len` bits of `key`.
///
/// One decode: the low corner is the truncated key's point. Key bit `i`
/// (0 = most significant) is bit `COORD_BITS - 1 - i / D` of coordinate
/// `i % D`, so the free key bits `len..BITS` are exactly the low
/// `(BITS - len + j) / D` bits of coordinate `j` — the count of
/// `i ≡ j (mod D)` in that range — and the high corner sets them all.
/// [`crate::naive::prefix_box`] decodes both range endpoints instead and is
/// the oracle this form is tested against.
#[inline]
pub fn prefix_box<const D: usize>(key: ZKey<D>, len: u32) -> Aabb<D> {
    let lo: Point<D> = key.truncate(len).decode();
    let mut hi = lo;
    for (j, c) in hi.coords.iter_mut().enumerate() {
        *c |= (1u32 << ((ZKey::<D>::BITS - len + j as u32) / D as u32)) - 1;
    }
    Aabb::new(lo, hi)
}

/// A prefix (a node's identity in the radix tree): canonical key bits plus
/// prefix length.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Prefix<const D: usize> {
    /// Canonical representative: `key.truncate(len)`.
    pub key: ZKey<D>,
    /// Number of significant leading bits.
    pub len: u32,
}

impl<const D: usize> Prefix<D> {
    /// The root prefix (empty, covers everything).
    #[inline]
    pub fn root() -> Self {
        Self { key: ZKey(0), len: 0 }
    }

    /// Builds a prefix from an arbitrary key, canonicalizing.
    #[inline]
    pub fn new(key: ZKey<D>, len: u32) -> Self {
        Self { key: key.truncate(len), len }
    }

    /// Whether `k` lies under this prefix.
    #[inline]
    pub fn covers(&self, k: ZKey<D>) -> bool {
        k.has_prefix(self.key, self.len)
    }

    /// Whether `other` is equal to or a descendant of this prefix.
    #[inline]
    pub fn covers_prefix(&self, other: &Prefix<D>) -> bool {
        other.len >= self.len && other.key.has_prefix(self.key, self.len)
    }

    /// The child prefix extended by one bit (`side` ∈ {0, 1}).
    #[inline]
    pub fn child(&self, side: u8) -> Self {
        debug_assert!(self.len < ZKey::<D>::BITS);
        debug_assert!(side <= 1);
        let bit_pos = ZKey::<D>::BITS - 1 - self.len;
        let key = ZKey(self.key.0 | ((side as u64) << bit_pos));
        Self { key, len: self.len + 1 }
    }

    /// Which child of this prefix the key `k` descends into.
    #[inline]
    pub fn side_of(&self, k: ZKey<D>) -> u8 {
        debug_assert!(self.covers(k));
        k.bit(self.len)
    }

    /// The exact bounding box of this prefix.
    #[inline]
    pub fn to_box(&self) -> Aabb<D> {
        prefix_box(self.key, self.len)
    }

    /// The dimension this prefix's *next* split cuts (key bits cycle through
    /// dimensions): useful for diagnostics and plotting.
    #[inline]
    pub fn split_dim(&self) -> usize {
        (self.len as usize) % D
    }

    /// Inclusive raw-key range covered by this prefix.
    #[inline]
    pub fn key_range(&self) -> (u64, u64) {
        self.key.prefix_range(self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_prefix_box_is_universe() {
        let b = Prefix::<3>::root().to_box();
        assert_eq!(b, Aabb::<3>::universe());
    }

    #[test]
    fn prefix_box_contains_exactly_covered_points() {
        // Deterministic sample: a prefix either covers a key and its box
        // contains the point, or neither.
        let anchor = Point::new([700_000u32, 1_500_000, 321]);
        let ak = ZKey::<3>::encode(&anchor);
        for len in [0u32, 1, 5, 12, 33, 63] {
            let pre = Prefix::new(ak, len);
            let bx = pre.to_box();
            assert!(bx.contains(&anchor));
            for s in 0..100u64 {
                let h = |x: u64| x.wrapping_mul(0x9E3779B97F4A7C15) >> 43; // 21 bits
                let p = Point::new([h(s) as u32, h(s + 7) as u32, h(s + 13) as u32]);
                let k = ZKey::<3>::encode(&p);
                assert_eq!(pre.covers(k), bx.contains(&p), "len={len} s={s}");
            }
        }
    }

    #[test]
    fn children_partition_parent() {
        let p = Prefix::new(ZKey::<2>::encode(&Point::new([123u32, 456])), 10);
        let c0 = p.child(0);
        let c1 = p.child(1);
        let (lo, hi) = p.key_range();
        let (l0, h0) = c0.key_range();
        let (l1, h1) = c1.key_range();
        assert_eq!(lo, l0);
        assert_eq!(h0 + 1, l1);
        assert_eq!(h1, hi);
    }

    #[test]
    fn side_of_matches_child_cover() {
        let p = Prefix::new(ZKey::<3>::encode(&Point::new([9u32, 9, 9])), 7);
        let inside = p.to_box();
        // Take the two box corners — both are covered, possibly on either side.
        for q in [inside.lo, inside.hi] {
            let k = ZKey::<3>::encode(&q);
            let s = p.side_of(k);
            assert!(p.child(s).covers(k));
            assert!(!p.child(1 - s).covers(k));
        }
    }

    #[test]
    fn covers_prefix_is_partial_order() {
        let a = Prefix::new(ZKey::<2>::encode(&Point::new([0u32, 0])), 4);
        let b = a.child(0).child(1);
        assert!(a.covers_prefix(&b));
        assert!(!b.covers_prefix(&a));
        assert!(a.covers_prefix(&a));
    }

    #[test]
    fn split_dim_cycles() {
        let mut p = Prefix::<3>::root();
        let dims: Vec<usize> = (0..6)
            .map(|_| {
                let d = p.split_dim();
                p = p.child(0);
                d
            })
            .collect();
        assert_eq!(dims, vec![0, 1, 2, 0, 1, 2]);
    }
}
