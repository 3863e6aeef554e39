//! The byte codec of the durable formats (checkpoint images, WAL records).
//!
//! One trait, [`Codec`], says how a value is written, how it is read back,
//! and how few bytes it can take. It is implemented once per primitive
//! (fixed-width little-endian; `usize` travels as `u64`, `f64` as its bit
//! pattern), once per container (`Vec<T>` is a `u32` count and the
//! elements, `Option<T>` a tag byte and the value, arrays their elements,
//! tuples their members in order), and by `record!` and `tagged!` for
//! everything else: a record is one list of fields that expands into both
//! directions. Struct literals evaluate their fields in the order written,
//! so the list *is* the layout; there is no second copy of it to drift.
//!
//! Decoding is strict and bounds-checked. A short buffer, a tag or `bool`
//! byte that names no value, a count the rest of the buffer cannot hold,
//! and bytes left over after a value all come back as a [`DecodeError`] —
//! never a panic, an oversized allocation, or a guessed value.

use crate::checkpoint::DurabilityError;

/// A value with a durable byte layout.
pub trait Codec: Sized {
    /// The fewest bytes any value of the type encodes to. A decoded count of
    /// elements is refused when the rest of the buffer cannot hold that many
    /// of them, so a damaged count never sizes an allocation.
    const MIN: usize;

    /// Appends the value's bytes.
    fn encode(&self, e: &mut Enc);

    /// Reads one value from the decoder's position.
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError>;
}

/// Why bytes did not decode, and where. `Copy` and allocation-free: every
/// read returns it, and an error holding a `String` made a restore 10–20 %
/// slower.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// A read of `wanted` bytes at `offset` found only `available`.
    Short { offset: usize, wanted: usize, available: usize },
    /// The byte at `offset` names no value of `ty`.
    Tag { offset: usize, ty: &'static str, tag: u8 },
    /// The value ending at `offset` left `n` bytes unread.
    Leftover { offset: usize, n: usize },
    /// The value at `offset` is whole but not valid, for the reason given.
    Invalid { offset: usize, why: &'static str },
}

impl DecodeError {
    /// Where the decode failed.
    pub fn offset(&self) -> usize {
        match *self {
            Self::Short { offset, .. }
            | Self::Tag { offset, .. }
            | Self::Leftover { offset, .. }
            | Self::Invalid { offset, .. } => offset,
        }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Short { wanted, available, .. } => {
                write!(f, "short read: wanted {wanted} bytes, {available} available")?
            }
            Self::Tag { ty, tag, .. } => write!(f, "unknown {ty} tag {tag}")?,
            Self::Leftover { n, .. } => write!(f, "{n} bytes left over")?,
            Self::Invalid { why, .. } => f.write_str(why)?,
        }
        write!(f, " at offset {}", self.offset())
    }
}

/// Little-endian byte encoder.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the encoder, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes (no length is written).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends any encodable value.
    pub fn put<T: Codec>(&mut self, v: &T) {
        v.encode(self);
    }

    /// Appends a sequence as `Vec<T>` lays it out — a `u32` count, then the
    /// elements — from any exact-size iterator, so a sequence need not be
    /// collected to be written.
    pub fn seq<'a, T: Codec + 'a>(&mut self, items: impl ExactSizeIterator<Item = &'a T>) {
        self.put(&(items.len() as u32));
        for v in items {
            v.encode(self);
        }
    }

    /// Appends `keys.len()` point records — a `u64` key, then one `u32` per
    /// lane — gathered straight from structure-of-arrays lanes in one
    /// reservation. The bytes are those of encoding each `(key, coords)`
    /// pair field by field.
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
}

/// Bounds-checked little-endian byte decoder.
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

    fn short(&self, wanted: usize) -> DecodeError {
        DecodeError::Short { offset: self.pos, wanted, available: self.remaining() }
    }

    /// Reads `n` raw bytes. A failed read consumes nothing.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(self.short(n));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads any decodable value.
    pub fn get<T: Codec>(&mut self) -> Result<T, DecodeError> {
        T::decode(self)
    }

    /// Reads a `u32` count of elements of at least `min_element_bytes`
    /// each, refusing one the rest of the buffer cannot hold.
    pub fn count(&mut self, min_element_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.get::<u32>()? as usize;
        let wanted = n.saturating_mul(min_element_bytes);
        if wanted > self.remaining() {
            return Err(self.short(wanted));
        }
        Ok(n)
    }
}

/// Decodes a `T` that must fill `bytes` exactly: leftover bytes mean the
/// value was damaged in a way its own layout hid.
pub fn decode_exact<T: Codec>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut d = Dec::new(bytes);
    let v = d.get()?;
    match d.remaining() {
        0 => Ok(v),
        n => Err(DecodeError::Leftover { offset: d.pos(), n }),
    }
}

macro_rules! little_endian {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            const MIN: usize = std::mem::size_of::<$t>();

            fn encode(&self, e: &mut Enc) {
                e.buf.extend_from_slice(&self.to_le_bytes());
            }

            fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
                let bytes = d.bytes(std::mem::size_of::<$t>())?;
                Ok(Self::from_le_bytes(bytes.try_into().expect("the width read")))
            }
        }
    )*};
}
little_endian!(u8, u32, u64, i64, f64);

impl Codec for usize {
    const MIN: usize = 8;

    fn encode(&self, e: &mut Enc) {
        (*self as u64).encode(e);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(u64::decode(d)? as usize)
    }
}

impl<T: Codec> Codec for Vec<T> {
    const MIN: usize = 4;

    fn encode(&self, e: &mut Enc) {
        e.seq(self.iter());
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let n = d.count(T::MIN)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(d.get()?);
        }
        Ok(v)
    }
}

impl<T: Codec> Codec for std::sync::Arc<T> {
    const MIN: usize = T::MIN;

    fn encode(&self, e: &mut Enc) {
        (**self).encode(e);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(Self::new(d.get()?))
    }
}

impl<T: Codec + Copy + Default, const N: usize> Codec for [T; N] {
    const MIN: usize = N * T::MIN;

    fn encode(&self, e: &mut Enc) {
        for v in self {
            v.encode(e);
        }
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let mut a = [T::default(); N];
        for v in &mut a {
            *v = d.get()?;
        }
        Ok(a)
    }
}

macro_rules! tuple {
    ($($t:ident . $i:tt),*) => {
        impl<$($t: Codec),*> Codec for ($($t,)*) {
            const MIN: usize = 0 $(+ $t::MIN)*;

            fn encode(&self, e: &mut Enc) {
                $(self.$i.encode(e);)*
            }

            fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
                Ok(($(d.get::<$t>()?,)*))
            }
        }
    };
}
tuple!(A.0, B.1);
tuple!(A.0, B.1, C.2);

/// Implements [`Codec`] for structs from one field list each:
/// `record! { [generics] Type { field: FieldType, ... } }`. Fields are
/// written, read and counted toward `MIN` in the order listed; the listed
/// types must be the fields' own, or the expansion does not compile.
macro_rules! record {
    ($([$($g:tt)*] $ty:ty { $($f:tt: $t:ty),* $(,)? })*) => {$(
        impl<$($g)*> $crate::codec::Codec for $ty {
            const MIN: usize = 0 $(+ <$t as $crate::codec::Codec>::MIN)*;

            fn encode(&self, e: &mut $crate::codec::Enc) {
                $(<$t as $crate::codec::Codec>::encode(&self.$f, e);)*
            }

            fn decode(
                d: &mut $crate::codec::Dec<'_>,
            ) -> Result<Self, $crate::codec::DecodeError> {
                Ok(Self { $($f: d.get::<$t>()?),* })
            }
        }
    )*};
}
pub(crate) use record;

/// Implements [`Codec`] for enums as a `u8` tag and the variant's fields:
/// `tagged! { [generics] Type { 0 => Unit, 1 => Tuple(a, b), 2 => Struct { x } } }`.
/// A tag no variant claims is an error. `MIN` is the tag byte
/// alone, a lower bound for every variant.
macro_rules! tagged {
    ($([$($g:tt)*] $ty:ty {
        $($tag:literal => $v:ident $(($($x:ident),*))? $({$($f:ident),*})?),* $(,)?
    })*) => {$(
        impl<$($g)*> $crate::codec::Codec for $ty {
            const MIN: usize = 1;

            fn encode(&self, e: &mut $crate::codec::Enc) {
                match self {
                    $(Self::$v $(($($x),*))? $({$($f),*})? => {
                        e.put::<u8>(&$tag);
                        $($(e.put($x);)*)?
                        $($(e.put($f);)*)?
                    })*
                }
            }

            fn decode(
                d: &mut $crate::codec::Dec<'_>,
            ) -> Result<Self, $crate::codec::DecodeError> {
                let offset = d.pos();
                Ok(match d.get::<u8>()? {
                    $($tag => Self::$v
                        $(($({ let $x = d.get()?; $x }),*))?
                        $({$($f: d.get()?),*})?,)*
                    tag => {
                        let ty = stringify!($ty);
                        return Err($crate::codec::DecodeError::Tag { offset, ty, tag });
                    }
                })
            }
        }
    )*};
}
pub(crate) use tagged;

/// `bool` is a tag too: 0 or 1, nothing else.
impl Codec for bool {
    const MIN: usize = 1;

    fn encode(&self, e: &mut Enc) {
        e.put(&(*self as u8));
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let offset = d.pos();
        match d.get::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::Tag { offset, ty: "bool", tag }),
        }
    }
}

tagged! { [T: Codec] Option<T> { 0 => None, 1 => Some(v) } }

/// The header every durable artifact opens with.
struct Header {
    magic: [u8; 8],
    version: u32,
    dims: u32,
}

record! { [] Header { magic: [u8; 8], version: u32, dims: u32 } }

/// Bytes of [`Header`].
pub(crate) const HEADER_BYTES: usize = <Header as Codec>::MIN;

/// Writes an artifact header for `D`-dimensional points.
pub(crate) fn write_header<const D: usize>(e: &mut Enc, magic: [u8; 8], version: u32) {
    e.put(&Header { magic, version, dims: D as u32 });
}

/// Reads an artifact header and checks it, in this order, against the
/// artifact's magic, the version this build reads and `D`.
pub(crate) fn read_header<const D: usize>(
    d: &mut Dec<'_>,
    artifact: &'static str,
    magic: [u8; 8],
    version: u32,
) -> Result<(), DurabilityError> {
    let at = d.pos() + d.remaining();
    let h: Header = d.get().map_err(|_| DurabilityError::Truncated { artifact, offset: at })?;
    if h.magic != magic {
        return Err(DurabilityError::BadMagic { artifact });
    }
    if h.version != version {
        return Err(DurabilityError::BadVersion { artifact, found: h.version, supported: version });
    }
    if h.dims != D as u32 {
        return Err(DurabilityError::DimMismatch { artifact, found: h.dims, expected: D as u32 });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_of<T: Codec>(v: &T) -> Vec<u8> {
        let mut e = Enc::new();
        e.put(v);
        e.into_bytes()
    }

    type Mixed = (u8, u32, (u64, i64, (f64, bool, usize)));

    #[test]
    fn primitives_roundtrip_at_their_width() {
        let v: Mixed = (7, 0xdead_beef, (u64::MAX - 3, -42, (-0.0, true, 9)));
        let bytes = bytes_of(&v);
        assert_eq!(bytes.len(), 1 + 4 + 8 + 8 + 8 + 1 + 8);
        assert_eq!(Mixed::MIN, bytes.len());
        let back: Mixed = decode_exact(&bytes).unwrap();
        assert_eq!(back.0, 7);
        assert_eq!(back.2 .2 .0.to_bits(), (-0.0f64).to_bits(), "signed zero bit-exact");
        assert_eq!(bytes_of(&back), bytes);
    }

    #[test]
    fn short_reads_report_their_position_and_consume_nothing() {
        let mut d = Dec::new(&[1, 2, 3]);
        assert_eq!(d.get::<u8>().unwrap(), 1);
        assert_eq!(
            d.get::<u64>().unwrap_err().to_string(),
            "short read: wanted 8 bytes, 2 available at offset 1"
        );
        assert_eq!(d.get::<u8>().unwrap(), 2);
    }

    #[test]
    fn counts_are_bounded_by_what_the_buffer_can_hold() {
        let mut bytes = bytes_of(&vec![10u64, 11]);
        assert_eq!(decode_exact::<Vec<u64>>(&bytes).unwrap(), [10, 11]);
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_exact::<Vec<u64>>(&bytes).unwrap_err(),
            DecodeError::Short { offset: 4, wanted: u32::MAX as usize * 8, available: 16 }
        );
    }

    #[test]
    fn tags_and_bools_outside_their_values_are_errors() {
        let err = decode_exact::<Option<u32>>(&[2, 0, 0, 0, 0]).unwrap_err();
        assert_eq!(err.to_string(), "unknown Option<T> tag 2 at offset 0");
        assert_eq!(decode_exact::<Option<u32>>(&[0]).unwrap(), None);
        assert_eq!(
            decode_exact::<bool>(&[5]).unwrap_err(),
            DecodeError::Tag { offset: 0, ty: "bool", tag: 5 }
        );
    }

    #[test]
    fn leftover_bytes_are_an_error() {
        let err = decode_exact::<u32>(&[0; 5]).unwrap_err();
        assert_eq!(err, DecodeError::Leftover { offset: 4, n: 1 });
    }

    #[test]
    fn keyed_points_match_a_field_by_field_write() {
        let (keys, xs, ys) = ([5u64, 6], [1u32, 2], [3u32, 4]);
        let mut fused = Enc::new();
        fused.keyed_points(&keys, &[&xs, &ys]);
        let pairs = [(5u64, [1u32, 3]), (6, [2, 4])];
        let mut plain = Enc::new();
        for p in &pairs {
            plain.put(p);
        }
        assert_eq!(fused.into_bytes(), plain.into_bytes());
    }
}
