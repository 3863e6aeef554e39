//! Naive O(bits) bit-wise Morton interleaving.
//!
//! This is the implementation "most prior academic works adopt" (§6) and the
//! baseline removed in the Table 3 "Fast z-order" ablation. It is also the
//! obviously-correct specification the fast path is tested against.

use crate::ZKey;
use pim_geom::{Aabb, Point};

/// Encodes a point by interleaving bits one at a time, most significant
/// first, dimension 0 first.
#[inline]
pub fn encode<const D: usize>(p: &Point<D>) -> ZKey<D> {
    let b = ZKey::<D>::COORD_BITS;
    let mut key = 0u64;
    for t in (0..b).rev() {
        // t = coordinate bit position, high to low.
        for j in 0..D {
            key = (key << 1) | ((p.coords[j] as u64 >> t) & 1);
        }
    }
    ZKey(key)
}

/// Decodes by de-interleaving one bit at a time.
#[inline]
pub fn decode<const D: usize>(key: ZKey<D>) -> Point<D> {
    let b = ZKey::<D>::COORD_BITS;
    let mut coords = [0u32; D];
    for i in 0..ZKey::<D>::BITS {
        let bit = key.bit(i) as u32;
        let j = (i as usize) % D;
        let t = b - 1 - i / D as u32;
        coords[j] |= bit << t;
    }
    Point::new(coords)
}

/// The box of a key prefix by decoding both endpoints of its key range:
/// filling the free low key bits with 0s/1s fills the free low bits of every
/// coordinate with 0s/1s, so the decoded endpoints are the box corners. The
/// oracle for the single-decode [`crate::prefix::prefix_box`].
pub fn prefix_box<const D: usize>(key: ZKey<D>, len: u32) -> Aabb<D> {
    let (lo, hi) = key.prefix_range(len);
    Aabb::new(ZKey::<D>(lo).decode(), ZKey::<D>(hi).decode())
}

/// Number of word operations the naive encoder performs — used by the cost
/// model when the fast-z-order optimization is ablated (Table 3).
#[inline]
pub const fn op_count<const D: usize>() -> u64 {
    // Two ops (shift+or) per output bit.
    2 * ZKey::<D>::BITS as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_roundtrip() {
        let pts = [
            Point::new([5u32, 9, 1]),
            Point::new([0, 0, 0]),
            Point::new([(1 << 21) - 1, (1 << 21) - 1, (1 << 21) - 1]),
        ];
        for p in pts {
            assert_eq!(decode(encode(&p)), p);
        }
    }

    #[test]
    fn naive_2d_example() {
        // x = 0b10, y = 0b01 in a 2-bit world → interleaved (x first) 1001.
        // With 31-bit coords the pattern sits at the bottom of the key.
        let p = Point::new([2u32, 1]);
        let k = encode(&p);
        assert_eq!(k.0 & 0b1111, 0b1001);
    }

    #[test]
    fn op_count_reflects_bits() {
        assert_eq!(op_count::<3>(), 2 * 63);
        assert_eq!(op_count::<2>(), 2 * 62);
    }
}
