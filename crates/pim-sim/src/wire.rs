//! Wire-size accounting for host⇄PIM transfers.
//!
//! Every value crossing the memory channel implements [`Wire`], reporting
//! the number of bytes it occupies in a transfer buffer. The simulator sums
//! these to charge communication — the paper's "communication amount" metric
//! (§2.1) and half of the Fig. 5 memory-traffic series.

/// Size of a value as serialized into a host⇄PIM transfer buffer.
pub trait Wire {
    /// Wire size shared by **every** value of this type, when one exists.
    ///
    /// `Some(n)` promises `wire_bytes()` returns `n` for all values, which
    /// lets containers skip the per-element walk: `Vec<u32>` reports
    /// `len * 4` in O(1) instead of iterating — and wire sizing runs on
    /// every metered round. Types with value-dependent sizes (task structs
    /// carrying `Vec`s, `Option`) keep the `None` default and are summed
    /// element by element as before.
    const FIXED: Option<u64> = None;

    /// Number of bytes this value occupies on the wire.
    fn wire_bytes(&self) -> u64;
}

/// Keyed checksum over a transfer's framing metadata.
///
/// The simulator models transfer *sizes*, not payload bits, so the checksum
/// covers what exists in the model: the round, the module, and the byte
/// count, mixed under a key. The fault plane flips bits in a corrupted
/// reply's checksum; [`validate_checksum`] then rejects it — corruption is
/// always detected, never silently consumed (the failure model's third
/// axiom, see `pim_sim::fault`).
///
/// ```
/// use pim_sim::wire::{checksum64, validate_checksum};
/// let sum = checksum64(0xfeed, 7, 3, 4096);
/// assert!(validate_checksum(0xfeed, 7, 3, 4096, sum));
/// assert!(!validate_checksum(0xfeed, 7, 3, 4096, sum ^ 1));
/// ```
pub fn checksum64(key: u64, round: u64, module: u32, payload_bytes: u64) -> u64 {
    crate::placement::finalize64(
        key.wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(round)
            .wrapping_mul(0xbf58476d1ce4e5b9)
            .wrapping_add(module as u64)
            .wrapping_mul(0x94d049bb133111eb)
            .wrapping_add(payload_bytes),
    )
}

/// Recomputes the checksum and compares it to the one that arrived.
pub fn validate_checksum(key: u64, round: u64, module: u32, payload_bytes: u64, got: u64) -> bool {
    checksum64(key, round, module, payload_bytes) == got
}

/// Keyed content checksum over a byte slice, built by chaining
/// [`checksum64`] over 8-byte words (the word index plays the `round` role,
/// the word's width the `module` role, so a moved, resized, or reordered
/// word changes the digest even when its bytes do not). This is the
/// per-section integrity primitive of the checkpoint/WAL durability layer:
/// the framing checksum covers transfer metadata, this one covers stored
/// payload bits.
///
/// ```
/// use pim_sim::wire::checksum_bytes;
/// let sum = checksum_bytes(0xfeed, b"fragment payload");
/// assert_eq!(sum, checksum_bytes(0xfeed, b"fragment payload"));
/// assert_ne!(sum, checksum_bytes(0xfeed, b"fragment pay1oad"));
/// assert_ne!(sum, checksum_bytes(0xbeef, b"fragment payload"));
/// ```
pub fn checksum_bytes(key: u64, data: &[u8]) -> u64 {
    // Seed with the length so `"ab" + "c"` never collides with `"a" + "bc"`.
    let mut acc = checksum64(key, data.len() as u64, 0, data.len() as u64);
    for (i, chunk) in data.chunks(8).enumerate() {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        acc = checksum64(acc, i as u64, chunk.len() as u32, u64::from_le_bytes(word));
    }
    acc
}

/// FNV-1a offset basis: every fingerprint starts here.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one value into an FNV-1a fingerprint. This is the one unkeyed
/// hash fold of the repository: serving result fingerprints,
/// `PimZdTree::data_digest` and every pinned digest of a rendered
/// artifact are made of it (a byte string folds byte by byte, [`fnv1a`]).
pub fn fnv_fold(fp: u64, v: u64) -> u64 {
    (fp ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// FNV-1a over a byte string.
///
/// ```
/// use pim_sim::wire::{fnv1a, FNV_OFFSET};
/// assert_eq!(fnv1a(b""), FNV_OFFSET);
/// assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |fp, &b| fnv_fold(fp, u64::from(b)))
}

impl Wire for () {
    const FIXED: Option<u64> = Some(0);

    fn wire_bytes(&self) -> u64 {
        0
    }
}

macro_rules! prim_wire {
    ($($t:ty),*) => {
        $(impl Wire for $t {
            const FIXED: Option<u64> = Some(core::mem::size_of::<$t>() as u64);

            #[inline]
            fn wire_bytes(&self) -> u64 {
                core::mem::size_of::<$t>() as u64
            }
        })*
    };
}
prim_wire!(u8, u16, u32, u64, i8, i16, i32, i64, usize, f32, f64);

/// Sum of two element-wise fixed sizes, when both exist (const contexts
/// can't use `Option::zip`/`map` yet).
const fn fixed_sum(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a + b),
        _ => None,
    }
}

impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn wire_bytes(&self) -> u64 {
        match T::FIXED {
            // O(1) for fixed-size elements — rows of primitive replies and
            // key/coordinate pairs dominate metered rounds.
            Some(per) => self.len() as u64 * per,
            None => self.iter().map(Wire::wire_bytes).sum(),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn wire_bytes(&self) -> u64 {
        // A presence byte plus the payload.
        1 + self.as_ref().map_or(0, Wire::wire_bytes)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const FIXED: Option<u64> = fixed_sum(A::FIXED, B::FIXED);

    #[inline]
    fn wire_bytes(&self) -> u64 {
        self.0.wire_bytes() + self.1.wire_bytes()
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    const FIXED: Option<u64> = fixed_sum(fixed_sum(A::FIXED, B::FIXED), C::FIXED);

    #[inline]
    fn wire_bytes(&self) -> u64 {
        self.0.wire_bytes() + self.1.wire_bytes() + self.2.wire_bytes()
    }
}

impl<T: Wire> Wire for &T {
    const FIXED: Option<u64> = T::FIXED;

    #[inline]
    fn wire_bytes(&self) -> u64 {
        (*self).wire_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_report_their_size() {
        assert_eq!(5u32.wire_bytes(), 4);
        assert_eq!(5u64.wire_bytes(), 8);
        assert_eq!(().wire_bytes(), 0);
    }

    #[test]
    fn containers_sum_elements() {
        assert_eq!(vec![1u32, 2, 3].wire_bytes(), 12);
        assert_eq!((1u32, 2u64).wire_bytes(), 12);
        assert_eq!(Some(7u32).wire_bytes(), 5);
        assert_eq!(Option::<u32>::None.wire_bytes(), 1);
    }

    #[test]
    fn fixed_size_fast_path_agrees_with_elementwise_sum() {
        // Fixed where every value has one size...
        assert_eq!(<u32 as Wire>::FIXED, Some(4));
        assert_eq!(<(u64, u32) as Wire>::FIXED, Some(12));
        assert_eq!(<(u8, u16, u32) as Wire>::FIXED, Some(7));
        assert_eq!(<&u64 as Wire>::FIXED, Some(8));
        assert_eq!(<() as Wire>::FIXED, Some(0));
        // ...None where sizes are value-dependent.
        assert_eq!(<Vec<u32> as Wire>::FIXED, None);
        assert_eq!(<Option<u32> as Wire>::FIXED, None);

        // The O(1) Vec path must report exactly what iteration would.
        let v: Vec<(u64, u32)> = vec![(1, 2), (3, 4), (5, 6)];
        assert_eq!(v.wire_bytes(), v.iter().map(Wire::wire_bytes).sum::<u64>());
        assert_eq!(v.wire_bytes(), 36);
        // Nested: the outer Vec's elements are variable-size, so it sums.
        let nested: Vec<Vec<u32>> = vec![vec![1], vec![2, 3]];
        assert_eq!(nested.wire_bytes(), 12);
    }

    #[test]
    fn checksum_bytes_detects_flips_truncation_and_keys() {
        let data: Vec<u8> = (0..37).collect();
        let sum = checksum_bytes(0x5eed, &data);
        assert_eq!(sum, checksum_bytes(0x5eed, &data), "deterministic");
        assert_ne!(sum, checksum_bytes(0x5eee, &data), "key-dependent");
        assert_ne!(sum, checksum_bytes(0x5eed, &data[..36]), "length-dependent");
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(sum, checksum_bytes(0x5eed, &flipped), "bit {bit} of byte {i}");
            }
        }
        // Word boundaries must not alias: moving a byte across the 8-byte
        // chunk edge changes the digest.
        assert_ne!(checksum_bytes(1, &[0; 8]), checksum_bytes(1, &[0; 9]));
    }

    #[test]
    fn checksum_detects_any_field_change() {
        let sum = checksum64(1, 2, 3, 4);
        assert!(validate_checksum(1, 2, 3, 4, sum));
        assert!(!validate_checksum(9, 2, 3, 4, sum));
        assert!(!validate_checksum(1, 9, 3, 4, sum));
        assert!(!validate_checksum(1, 2, 9, 4, sum));
        assert!(!validate_checksum(1, 2, 3, 9, sum));
        for bit in 0..64 {
            assert!(!validate_checksum(1, 2, 3, 4, sum ^ (1 << bit)));
        }
    }
}
