//! Distance metrics and their "comparable form".
//!
//! All metrics return a `u64` that orders pairs the same way the true metric
//! does: ℓ1 and ℓ∞ return the exact distance, while ℓ2 returns the *squared*
//! distance (avoiding square roots keeps everything exact on the integer
//! grid). The paper's two-stage kNN filter (§6) relies on the inequality
//! `‖x‖₂ ≤ ‖x‖₁ ≤ √D·‖x‖₂`, exposed here as [`Metric::anchor_inflate`].

use crate::point::Point;

/// A distance metric on the integer grid.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Metric {
    /// Manhattan distance — cheap on PIM cores (additions only).
    L1,
    /// Euclidean distance (compared in squared form) — requires
    /// multiplications, which are slow on UPMEM PIM cores.
    L2,
    /// Chebyshev distance.
    Linf,
}

impl Metric {
    /// Distance between two points in this metric's comparable form
    /// (ℓ2 squared; ℓ1/ℓ∞ exact).
    #[inline]
    pub fn cmp_dist<const D: usize>(self, a: &Point<D>, b: &Point<D>) -> u64 {
        match self {
            Metric::L1 => a.l1(b),
            Metric::L2 => a.l2_sq(b),
            Metric::Linf => a.linf(b),
        }
    }

    /// Whether evaluating this metric needs multiplications (slow on BLIMP
    /// PIM cores; drives the §6 coarse/fine execution split).
    #[inline]
    pub const fn needs_multiplication(self) -> bool {
        matches!(self, Metric::L2)
    }

    /// Given the ℓ1 distance `l1` of the k-th nearest neighbor under ℓ1,
    /// returns an ℓ1 radius guaranteed to contain the k-th nearest neighbor
    /// under ℓ2 in `D` dimensions.
    ///
    /// From `‖x‖₂ ≤ ‖x‖₁ ≤ √D ‖x‖₂`: if the ℓ1-kNN is at ℓ1 distance `x`,
    /// the ℓ2-kNN has ℓ2 distance ≤ x, hence ℓ1 distance ≤ √D·x. We round
    /// √D up via an integer ceiling on the squared comparison to stay exact.
    #[inline]
    pub fn anchor_inflate(l1: u64, d: usize) -> u64 {
        // ceil(sqrt(d) * l1) computed exactly: smallest r with r² ≥ d·l1².
        let target = (d as u128) * (l1 as u128) * (l1 as u128);
        let mut r = ((d as f64).sqrt() * l1 as f64) as u64;
        while (r as u128) * (r as u128) < target {
            r += 1;
        }
        r
    }
}

/// `⌈√v⌉` exactly: the smallest `r` with `r² ≥ v`. The `f64` square root
/// seeds the answer and two integer loops correct it — above 2^53 the
/// conversion to `f64` rounds `v` itself, so `(v as f64).sqrt().ceil()` alone
/// can come out one too small.
#[inline]
pub fn isqrt_ceil(v: u64) -> u64 {
    let sq = |r: u64| u128::from(r) * u128::from(r);
    let mut r = (v as f64).sqrt() as u64;
    while sq(r) < u128::from(v) {
        r += 1;
    }
    while r > 0 && sq(r - 1) >= u128::from(v) {
        r -= 1;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isqrt_ceil_is_exact_where_f64_is_not() {
        let exact = |v: u64| {
            let r = isqrt_ceil(v);
            assert!(
                u128::from(r) * u128::from(r) >= u128::from(v),
                "isqrt_ceil({v}) = {r} too small"
            );
            assert!(
                r == 0 || u128::from(r - 1) * u128::from(r - 1) < u128::from(v),
                "isqrt_ceil({v}) = {r} too large"
            );
            r
        };
        assert_eq!(exact(0), 0);
        assert_eq!(exact(1), 1);
        assert_eq!(exact(2), 2);
        assert_eq!(exact(u64::MAX), 1 << 32);
        // Perfect squares and their neighbours, small and up to (2^32 - 1)².
        for r in [
            2u64,
            3,
            5,
            1 << 10,
            (1 << 21) - 1,
            1 << 26,
            (1 << 26) + 1,
            94_906_266,
            3_037_000_500,
            (1 << 32) - 1,
        ] {
            assert_eq!(exact(r * r), r);
            assert_eq!(exact(r * r - 1), r);
            assert_eq!(exact(r * r + 1), r + 1);
        }
        // Above 2^53 the float-only form is off by one: `r² + 1` rounds to
        // the perfect square `r²` as an `f64`, whose root is not rounded up.
        let float_only = |v: u64| (v as f64).sqrt().ceil() as u64;
        for r in [(1u64 << 27) + 1, (1 << 30) + 1, (1 << 32) - 1] {
            assert_eq!(exact(r * r + 1), r + 1);
            assert_eq!(float_only(r * r + 1), r, "the inexact form this replaces");
        }
    }

    #[test]
    fn cmp_dist_dispatches() {
        let a = Point::new([0u32, 0]);
        let b = Point::new([3u32, 4]);
        assert_eq!(Metric::L1.cmp_dist(&a, &b), 7);
        assert_eq!(Metric::L2.cmp_dist(&a, &b), 25);
        assert_eq!(Metric::Linf.cmp_dist(&a, &b), 4);
    }

    #[test]
    fn anchor_inflate_exact_squares() {
        // d = 4 → factor exactly 2.
        assert_eq!(Metric::anchor_inflate(10, 4), 20);
        // d = 1 → identity.
        assert_eq!(Metric::anchor_inflate(123, 1), 123);
    }

    #[test]
    fn anchor_inflate_is_sound_for_d3() {
        // r = anchor_inflate(x, 3) must satisfy r ≥ √3·x, i.e. r² ≥ 3x².
        for x in [0u64, 1, 2, 7, 1000, 1 << 20] {
            let r = Metric::anchor_inflate(x, 3);
            assert!((r as u128) * (r as u128) >= 3 * (x as u128) * (x as u128));
            // And not absurdly large (within +2 of the true ceiling).
            if x > 0 {
                let lower = ((3.0f64).sqrt() * x as f64).floor() as u64;
                assert!(r <= lower + 2);
            }
        }
    }

    #[test]
    fn only_l2_needs_multiplication() {
        assert!(Metric::L2.needs_multiplication());
        assert!(!Metric::L1.needs_multiplication());
        assert!(!Metric::Linf.needs_multiplication());
    }
}
