//! Multi-dimensional points, axis-aligned boxes, and distance metrics.
//!
//! This crate is the geometric foundation of the PIM-zd-tree reproduction.
//! Points live on an integer grid (datasets are quantized to at most
//! [`MAX_COORD_BITS`] bits per dimension so that Morton keys fit in a `u64`),
//! which keeps every distance computation exact and deterministic — an
//! important property both for the simulator's reproducibility and for the
//! paper's coarse/fine two-stage kNN filtering, whose correctness argument
//! relies on exact metric inequalities.
//!
//! The crate also provides the two dataset diagnostics used by the paper's
//! theory (§5): *bounded ratio* (Definition 1) and the *expansion constant*
//! (Definition 2).

#![deny(missing_docs)]
#![allow(clippy::needless_range_loop)] // idiomatic for [T; D] const-generic arrays

pub mod aabb;
pub mod diagnostics;
pub mod metric;
pub mod point;
pub mod quantize;

pub use aabb::Aabb;
pub use diagnostics::{bounded_ratio, estimate_expansion_constant};
pub use metric::{isqrt_ceil, Metric};
pub use point::Point;
pub use quantize::Quantizer;

/// Maximum number of bits per coordinate for any supported dimension.
///
/// With `D` dimensions, `D * bits` must be at most 63 so a Morton key fits in
/// a `u64` with the sign bit free: 2D uses 31 bits, 3D uses 21 bits, 4D 15,
/// and so on. [`coord_bits_for_dim`] computes the per-dimension budget.
pub const MAX_COORD_BITS: u32 = 31;

/// Number of coordinate bits used per dimension for dimension `D`.
///
/// This is `min(31, 63 / D)`, matching the paper's 64-bit key layout (its
/// example packs 3 × 21-bit coordinates into a 64-bit key).
#[inline]
pub const fn coord_bits_for_dim(d: usize) -> u32 {
    let b = (63 / d) as u32;
    if b > MAX_COORD_BITS {
        MAX_COORD_BITS
    } else {
        b
    }
}

/// Largest representable coordinate value for dimension `D` (inclusive).
#[inline]
pub const fn max_coord_for_dim(d: usize) -> u32 {
    ((1u64 << coord_bits_for_dim(d)) - 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_bits_match_paper_layout() {
        assert_eq!(coord_bits_for_dim(2), 31);
        assert_eq!(coord_bits_for_dim(3), 21);
        assert_eq!(coord_bits_for_dim(4), 15);
        assert_eq!(coord_bits_for_dim(5), 12);
    }

    #[test]
    fn keys_fit_in_u64() {
        for d in 1..=8 {
            assert!(d as u32 * coord_bits_for_dim(d) <= 63, "dim {d} overflows");
        }
    }

    #[test]
    fn max_coord_consistent() {
        assert_eq!(max_coord_for_dim(3), (1 << 21) - 1);
        assert_eq!(max_coord_for_dim(2), (1 << 31) - 1);
    }
}
