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
    let mut z = key
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(round)
        .wrapping_mul(0xbf58476d1ce4e5b9)
        .wrapping_add(module as u64)
        .wrapping_mul(0x94d049bb133111eb)
        .wrapping_add(payload_bytes);
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58476d1ce4e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
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

/// Error from [`Dec`]: the buffer ended before the requested value.
///
/// Carries the offset and width of the failed read so durability errors can
/// say *where* a checkpoint or WAL file went short.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShortRead {
    /// Byte offset the read started at.
    pub offset: usize,
    /// Bytes the read needed.
    pub wanted: usize,
    /// Bytes the buffer had left.
    pub available: usize,
}

impl std::fmt::Display for ShortRead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "short read at offset {}: wanted {} bytes, {} available",
            self.offset, self.wanted, self.available
        )
    }
}

/// Little-endian byte encoder for durable artifacts (checkpoint sections,
/// WAL records). The simulator's [`Wire`] trait accounts transfer *sizes*;
/// `Enc`/[`Dec`] are its byte-level counterpart for state that must survive
/// a process restart, sharing the same fixed-width little-endian layout the
/// wire sizes assume.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes encoded so far, borrowed.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends `keys.len()` interleaved point records — a little-endian
    /// `u64` key followed by one little-endian `u32` per lane — gathered
    /// straight from structure-of-arrays lanes. This fuses the AoS
    /// re-materialization a caller would otherwise do into the buffer
    /// write itself (one reservation, no intermediate pairs); the byte
    /// stream is identical to encoding each record field by field.
    pub fn keyed_points(&mut self, keys: &[u64], lanes: &[&[u32]]) {
        debug_assert!(lanes.iter().all(|l| l.len() == keys.len()));
        self.buf.reserve(keys.len() * (8 + 4 * lanes.len()));
        for (i, k) in keys.iter().enumerate() {
            self.buf.extend_from_slice(&k.to_le_bytes());
            for lane in lanes {
                self.buf.extend_from_slice(&lane[i].to_le_bytes());
            }
        }
    }

    /// Appends a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern — restores are
    /// bit-exact, never round-tripped through decimal.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends raw bytes (length is NOT encoded; pair with
    /// [`Self::u64`] when the decoder can't infer it).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Little-endian byte decoder matching [`Enc`]. Every read is
/// bounds-checked and returns [`ShortRead`] instead of panicking — a
/// truncated checkpoint must surface as a typed error, never an abort.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decodes from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current read offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ShortRead> {
        if self.remaining() < n {
            return Err(ShortRead { offset: self.pos, wanted: n, available: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, ShortRead> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ShortRead> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("take(4) returned 4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ShortRead> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("take(8) returned 8 bytes")))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, ShortRead> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("take(8) returned 8 bytes")))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, ShortRead> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool` (any nonzero byte is `true`).
    pub fn bool(&mut self) -> Result<bool, ShortRead> {
        Ok(self.u8()? != 0)
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], ShortRead> {
        self.take(n)
    }

    /// Reads a `u32` count of elements that each occupy at least
    /// `min_element_bytes`, and refuses one the rest of the buffer cannot
    /// hold — so a decoder may size an allocation by the result without a
    /// crafted or damaged count turning four bytes into a 32 GiB request.
    pub fn count(&mut self, min_element_bytes: usize) -> Result<usize, ShortRead> {
        let n = self.u32()? as usize;
        let wanted = n.saturating_mul(min_element_bytes);
        if wanted > self.remaining() {
            return Err(ShortRead { offset: self.pos, wanted, available: self.remaining() });
        }
        Ok(n)
    }
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
    fn enc_dec_roundtrip_every_width() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xdead_beef);
        e.u64(u64::MAX - 3);
        e.i64(-42);
        e.f64(-0.0); // signed zero must survive bit-exactly
        e.bool(true);
        e.bytes(b"tail");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.bool().unwrap());
        assert_eq!(d.bytes(4).unwrap(), b"tail");
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn dec_reports_short_reads_with_position() {
        let mut d = Dec::new(&[1, 2, 3]);
        assert_eq!(d.u8().unwrap(), 1);
        let err = d.u64().unwrap_err();
        assert_eq!(err, ShortRead { offset: 1, wanted: 8, available: 2 });
        // A failed read consumes nothing.
        assert_eq!(d.u8().unwrap(), 2);
    }

    #[test]
    fn count_is_bounded_by_what_the_buffer_can_hold() {
        let mut e = Enc::new();
        e.u32(2);
        e.u64(10);
        e.u64(11);
        e.u32(u32::MAX);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.count(8).unwrap(), 2, "two u64s follow and fit");
        d.bytes(16).unwrap();
        let err = d.count(8).unwrap_err();
        assert_eq!(err, ShortRead { offset: 24, wanted: u32::MAX as usize * 8, available: 0 });
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
