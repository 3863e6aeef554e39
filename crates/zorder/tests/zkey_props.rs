//! Property tests: the fast gap-interleave encoder must be observationally
//! identical to the naive per-bit interleave on every dimension class —
//! 2D/3D take the magic-mask paths, 4D+ the generic spreader — and decoding
//! must invert encoding everywhere.

use pim_geom::Point;
use pim_zorder::prefix::prefix_box;
use pim_zorder::{naive, ZKey};
use proptest::prelude::*;

/// Single-decode `prefix_box` against the two-decode oracle, for the
/// `BITS`-bit key cut out of `raw`, at every prefix length.
fn check_prefix_boxes<const D: usize>(raw: u64) {
    let key = ZKey::<D>(raw & ((1u64 << ZKey::<D>::BITS) - 1));
    for len in 0..=ZKey::<D>::BITS {
        assert_eq!(prefix_box(key, len), naive::prefix_box(key, len), "D={D} {key:?} len={len}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// 2D: `spread2` magic-mask path vs naive interleave, full 31-bit coords.
    #[test]
    fn fast_encode_matches_naive_2d(x in 0..1u32 << 31, y in 0..1u32 << 31) {
        let p = Point::new([x, y]);
        let fast = ZKey::<2>::encode(&p);
        prop_assert_eq!(fast, ZKey::<2>::encode_naive(&p));
        prop_assert_eq!(fast.decode(), p);
    }

    /// 3D: the paper's `Split_By_Three` path vs naive, full 21-bit coords.
    #[test]
    fn fast_encode_matches_naive_3d(
        x in 0..1u32 << 21,
        y in 0..1u32 << 21,
        z in 0..1u32 << 21,
    ) {
        let p = Point::new([x, y, z]);
        let fast = ZKey::<3>::encode(&p);
        prop_assert_eq!(fast, ZKey::<3>::encode_naive(&p));
        prop_assert_eq!(fast.decode(), p);
    }

    /// 4D: generic per-bit spreader vs naive (15-bit coords).
    #[test]
    fn fast_encode_matches_naive_4d(
        a in 0..1u32 << 15,
        b in 0..1u32 << 15,
        c in 0..1u32 << 15,
        d in 0..1u32 << 15,
    ) {
        let p = Point::new([a, b, c, d]);
        let fast = ZKey::<4>::encode(&p);
        prop_assert_eq!(fast, ZKey::<4>::encode_naive(&p));
        prop_assert_eq!(fast.decode(), p);
    }

    /// 6D: generic spreader at the 60-bit budget boundary (10-bit coords).
    #[test]
    fn fast_encode_matches_naive_6d(
        a in 0..1u32 << 10,
        b in 0..1u32 << 10,
        c in 0..1u32 << 10,
        d in 0..1u32 << 10,
        e in 0..1u32 << 10,
        f in 0..1u32 << 10,
    ) {
        let p = Point::new([a, b, c, d, e, f]);
        let fast = ZKey::<6>::encode(&p);
        prop_assert_eq!(fast, ZKey::<6>::encode_naive(&p));
        prop_assert_eq!(fast.decode(), p);
    }

    /// Integer order on fast keys equals integer order on naive keys —
    /// the property the zd-tree actually relies on.
    #[test]
    fn fast_keys_sort_like_naive_keys(
        x1 in 0..1u32 << 21, y1 in 0..1u32 << 21, z1 in 0..1u32 << 21,
        x2 in 0..1u32 << 21, y2 in 0..1u32 << 21, z2 in 0..1u32 << 21,
    ) {
        let p = Point::new([x1, y1, z1]);
        let q = Point::new([x2, y2, z2]);
        let fast = ZKey::<3>::encode(&p).cmp(&ZKey::<3>::encode(&q));
        let naive = ZKey::<3>::encode_naive(&p).cmp(&ZKey::<3>::encode_naive(&q));
        prop_assert_eq!(fast, naive);
    }

    /// The query kernels' node boxes: one decode plus the free-bit masks
    /// must equal decoding both ends of the key range, on every dimension
    /// class and at every prefix length (0 = universe, `BITS` = one point).
    #[test]
    fn prefix_box_matches_two_decode_oracle(raw in 0..=u64::MAX) {
        check_prefix_boxes::<2>(raw);
        check_prefix_boxes::<3>(raw);
        check_prefix_boxes::<4>(raw);
        check_prefix_boxes::<6>(raw);
    }
}
