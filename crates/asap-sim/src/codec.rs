//! The one binary codec idiom behind checkpoints and wire frames.
//!
//! [`Encoder`]/[`Decoder`] move little-endian primitives; [`Codec`] says how
//! a whole type crosses them. Every serialized type implements `Codec`
//! once, and its field order is written once: either by [`codec_struct!`]
//! / [`codec_enum!`] (a field list, or a tag byte plus fields per variant)
//! or, for types that validate after decoding, by a short hand-written
//! impl. Encoding is canonical, so encode → decode → re-encode is
//! byte-identical:
//!
//! * integers are fixed-width little-endian, `bool` is one byte (0 or 1);
//! * `usize` lengths, counts and sizes are widened to `u64`;
//! * `Vec<T>`, `Rc<[T]>` and `String` are a `u64` count then the items;
//! * `Option<T>` is a `bool` tag then the value; arrays and tuples are their
//!   items in order, with no prefix;
//! * `DetHashMap`/`DetHashSet` are a count then the entries sorted by key.
//!
//! Decoding is panic-free and allocation-bounded. Every count is checked
//! against the unread bytes ([`Decoder::get_count`]) and preallocation is
//! capped, so a corrupt count costs an error, not memory. A checkpoint
//! decoder also knows the world's peer and document counts
//! ([`Decoder::bound_ids`]): every [`PeerId`] and [`DocId`] decoded through
//! it is range-checked in one place. A wire decoder stays unbounded.
//!
//! Foreign types the orphan rule keeps out of `Codec` (asap-core's Bloom
//! filters) ride a local marker type through [`CodecAs`], named in a field
//! list as `field as Marker`.

use asap_overlay::collections::{DetHashMap, DetHashSet};
use asap_overlay::PeerId;
use asap_workload::{DocId, InterestSet, KeywordId};
use std::fmt;
use std::hash::Hash;
use std::rc::Rc;

/// Typed decode failure. Every malformed input maps to one of these —
/// decoding never panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the field being read.
    UnexpectedEof,
    /// The first eight bytes are not the checkpoint magic.
    BadMagic,
    /// Recognized magic, unknown version word.
    UnsupportedVersion(u16),
    /// An enum discriminant byte outside the defined range.
    BadTag,
    /// Bytes left over after the final field.
    TrailingBytes,
    /// The trailing FNV-1a checksum does not match the body.
    BadChecksum,
    /// A structurally valid field with an out-of-range or inconsistent
    /// value (id past the peer/doc space, zero RNG state, invalid plan...).
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnexpectedEof => write!(f, "unexpected end of checkpoint data"),
            Self::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            Self::BadTag => write!(f, "unknown enum tag in checkpoint data"),
            Self::TrailingBytes => write!(f, "trailing bytes after checkpoint data"),
            Self::BadChecksum => write!(f, "checkpoint checksum mismatch"),
            Self::Invalid(what) => write!(f, "invalid checkpoint field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Continue appending to an existing buffer (wire frames encode into
    /// the caller's output buffer in place).
    pub fn from_bytes(buf: Vec<u8>) -> Self {
        Self { buf }
    }

    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Lengths and counts are always widened to `u64` on the wire.
    #[inline]
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Raw bytes, no length prefix (magic, fixed-width blobs).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// A count then every item: the `Vec<T>` image of a borrowed slice.
    pub fn put_slice<T: Codec>(&mut self, items: &[T]) {
        self.put_len(items.len());
        for item in items {
            item.encode(self);
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes written so far, e.g. to checksum a body in place.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Overwrite already-written bytes at `at` (length placeholders).
    pub fn patch(&mut self, at: usize, bytes: &[u8]) {
        if let Some(dst) = self.buf.get_mut(at..at + bytes.len()) {
            dst.copy_from_slice(bytes);
        }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian reader.
#[derive(Debug)]
pub struct Decoder<'b> {
    buf: &'b [u8],
    pos: usize,
    /// Exclusive upper bounds on decoded peer and doc ids; `usize::MAX`
    /// (unbounded) until [`Decoder::bound_ids`].
    num_peers: usize,
    num_docs: usize,
}

impl<'b> Decoder<'b> {
    pub fn new(buf: &'b [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            num_peers: usize::MAX,
            num_docs: usize::MAX,
        }
    }

    /// Range-check every [`PeerId`] and [`DocId`] decoded from here on
    /// against the world they must index (a checkpoint, once its header is
    /// read).
    pub fn bound_ids(&mut self, num_peers: usize, num_docs: usize) {
        self.num_peers = num_peers;
        self.num_docs = num_docs;
    }

    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Raw byte slice of exactly `n` bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'b [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Exactly `N` bytes as an array.
    #[inline]
    fn get_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut b = [0u8; N];
        b.copy_from_slice(self.get_bytes(N)?);
        Ok(b)
    }

    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.get_bytes(1)?[0])
    }

    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.get_array()?))
    }

    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.get_array()?))
    }

    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.get_array()?))
    }

    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool byte out of range")),
        }
    }

    /// A scalar length value: must fit in `usize`, no further guarantees.
    /// Use [`Decoder::get_count`] for item counts that gate allocation.
    pub fn get_len(&mut self) -> Result<usize, CodecError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| CodecError::Invalid("length exceeds usize"))
    }

    /// An item count: like [`Decoder::get_len`] but additionally bounded by
    /// the bytes still unread, so a corrupted count can never drive an
    /// oversized allocation (every item occupies at least one byte).
    pub fn get_count(&mut self) -> Result<usize, CodecError> {
        let n = self.get_len()?;
        if n > self.remaining() {
            return Err(CodecError::UnexpectedEof);
        }
        Ok(n)
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let n = self.get_count()?;
        let bytes = self.get_bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Invalid("string not UTF-8"))
    }

    /// Decode one value of any [`Codec`] type.
    #[inline]
    pub fn get<T: Codec>(&mut self) -> Result<T, CodecError> {
        T::decode(self)
    }

    /// Assert the input is fully consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }
}

/// A type with one canonical binary image.
///
/// `decode` must never panic: malformed input is a [`CodecError`].
pub trait Codec: Sized {
    fn encode(&self, enc: &mut Encoder);
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError>;
}

/// The codec of a foreign type `T`, implemented on a local marker type
/// (the orphan rule forbids `impl Codec for` a type and trait both foreign
/// to the implementing crate). Field lists name it as `field as Marker`.
pub trait CodecAs<T> {
    fn encode(v: &T, enc: &mut Encoder);
    fn decode(dec: &mut Decoder<'_>) -> Result<T, CodecError>;
}

/// Cap on the bytes preallocated from a decoded count; larger collections
/// grow as their items actually decode.
const PREALLOC_BYTES: usize = 1 << 20;

/// Capacity to reserve for `n` decoded items of `T`: exact up to
/// [`PREALLOC_BYTES`], so a corrupt count cannot reserve more than that.
fn prealloc<T>(n: usize) -> usize {
    n.min(PREALLOC_BYTES / std::mem::size_of::<T>().max(1))
}

macro_rules! codec_int {
    ($($t:ty => $put:ident, $get:ident;)*) => {$(
        impl Codec for $t {
            #[inline]
            fn encode(&self, enc: &mut Encoder) {
                enc.$put(*self);
            }
            #[inline]
            fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
                dec.$get()
            }
        }
    )*};
}

codec_int! {
    u8 => put_u8, get_u8;
    u16 => put_u16, get_u16;
    u32 => put_u32, get_u32;
    u64 => put_u64, get_u64;
    bool => put_bool, get_bool;
    usize => put_len, get_len;
}

impl Codec for String {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.get_str()
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_slice(self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let n = dec.get_count()?;
        let mut v = Vec::with_capacity(prealloc::<T>(n));
        for _ in 0..n {
            v.push(T::decode(dec)?);
        }
        Ok(v)
    }
}

impl<T: Codec> Codec for Rc<[T]> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_slice(self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Vec::<T>::decode(dec)?.into())
    }
}

impl<T: Codec> Codec for Box<T> {
    fn encode(&self, enc: &mut Encoder) {
        (**self).encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Box::new(T::decode(dec)?))
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bool(self.is_some());
        if let Some(v) = self {
            v.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        if dec.get_bool()? {
            Ok(Some(T::decode(dec)?))
        } else {
            Ok(None)
        }
    }
}

impl<T: Codec + Copy + Default, const N: usize> Codec for [T; N] {
    fn encode(&self, enc: &mut Encoder) {
        for v in self {
            v.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let mut out = [T::default(); N];
        for v in out.iter_mut() {
            *v = T::decode(dec)?;
        }
        Ok(out)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
        self.2.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(dec)?, B::decode(dec)?, C::decode(dec)?))
    }
}

/// Entries sorted by key: the canonical order of an unordered map.
impl<K: Codec + Ord + Hash + Eq, V: Codec> Codec for DetHashMap<K, V> {
    fn encode(&self, enc: &mut Encoder) {
        let mut items: Vec<(&K, &V)> = self.iter().collect();
        items.sort_unstable_by(|a, b| a.0.cmp(b.0));
        enc.put_len(items.len());
        for (k, v) in items {
            k.encode(enc);
            v.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let n = dec.get_count()?;
        let mut map = DetHashMap::default();
        for _ in 0..n {
            let k = K::decode(dec)?;
            map.insert(k, V::decode(dec)?);
        }
        Ok(map)
    }
}

/// Elements sorted ascending: the canonical order of an unordered set.
impl<K: Codec + Ord + Hash + Eq> Codec for DetHashSet<K> {
    fn encode(&self, enc: &mut Encoder) {
        let mut items: Vec<&K> = self.iter().collect();
        items.sort_unstable();
        enc.put_len(items.len());
        for k in items {
            k.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let n = dec.get_count()?;
        let mut set = DetHashSet::default();
        for _ in 0..n {
            set.insert(K::decode(dec)?);
        }
        Ok(set)
    }
}

impl Codec for PeerId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.0);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let id = dec.get_u32()?;
        if (id as usize) < dec.num_peers {
            Ok(PeerId(id))
        } else {
            Err(CodecError::Invalid("peer id out of range"))
        }
    }
}

impl Codec for DocId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.0);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let id = dec.get_u32()?;
        if (id as usize) < dec.num_docs {
            Ok(DocId(id))
        } else {
            Err(CodecError::Invalid("doc id out of range"))
        }
    }
}

impl Codec for KeywordId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.0);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(KeywordId(dec.get_u32()?))
    }
}

impl Codec for InterestSet {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u16(self.0);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(InterestSet(dec.get_u16()?))
    }
}

/// `impl Codec` for a struct from its field list, in wire order:
///
/// ```ignore
/// codec_struct!(CachedAd { topics, version, filter as Bloom, stale });
/// codec_struct!(PendingSearch { requester, terms, term_hashes = Vec::new() });
/// ```
///
/// `field` uses the field type's [`Codec`]; `field as Marker` uses
/// `Marker`'s [`CodecAs`]; `field = expr` is not serialized and decodes as
/// `expr`. Every field of the struct must be listed.
#[macro_export]
macro_rules! codec_struct {
    ($ty:ty { $($field:ident $(as $via:ty)? $(= $skip:expr)?),* $(,)? }) => {
        impl $crate::checkpoint::Codec for $ty {
            fn encode(&self, enc: &mut $crate::checkpoint::Encoder) {
                $( $crate::codec_struct!(@enc enc, &self.$field $(, as $via)? $(, = $skip)?); )*
            }
            fn decode(
                dec: &mut $crate::checkpoint::Decoder<'_>,
            ) -> Result<Self, $crate::checkpoint::CodecError> {
                Ok(Self {
                    $( $field: $crate::codec_struct!(@dec dec, $field $(, as $via)? $(, = $skip)?), )*
                })
            }
        }
    };
    (@enc $enc:ident, $v:expr) => {
        $crate::checkpoint::Codec::encode($v, $enc)
    };
    (@enc $enc:ident, $v:expr, as $via:ty) => {
        <$via as $crate::checkpoint::CodecAs<_>>::encode($v, $enc)
    };
    (@enc $enc:ident, $v:expr, = $skip:expr) => {
        ()
    };
    (@dec $dec:ident, $field:ident) => {
        $crate::checkpoint::Codec::decode($dec)?
    };
    (@dec $dec:ident, $field:ident, as $via:ty) => {
        <$via as $crate::checkpoint::CodecAs<_>>::decode($dec)?
    };
    (@dec $dec:ident, $field:ident, = $skip:expr) => {
        $skip
    };
}

/// `impl Codec` for an enum: per variant, its tag byte and its fields in
/// wire order (tuple variants name a binding per field). Unknown tags decode
/// to [`CodecError::BadTag`].
///
/// ```ignore
/// codec_enum!(Forwarding {
///     0 => Direct,
///     1 => Flood { ttl },
///     2 => Walk { budget },
/// });
/// codec_enum!(AdPayload { 0 => Full(snap), 1 => Patch { source, patch as Bloom } });
/// ```
#[macro_export]
macro_rules! codec_enum {
    ($ty:ty {
        $($tag:literal => $variant:ident
            $( ( $($tf:ident $(as $tvia:ty)?),* ) )?
            $( { $($sf:ident $(as $svia:ty)?),* } )?
        ),* $(,)?
    }) => {
        impl $crate::checkpoint::Codec for $ty {
            fn encode(&self, enc: &mut $crate::checkpoint::Encoder) {
                match self {
                    $( Self::$variant $( ( $($tf),* ) )? $( { $($sf),* } )? => {
                        enc.put_u8($tag);
                        $( $( $crate::codec_struct!(@enc enc, $tf $(, as $tvia)?); )* )?
                        $( $( $crate::codec_struct!(@enc enc, $sf $(, as $svia)?); )* )?
                    } )*
                }
            }
            fn decode(
                dec: &mut $crate::checkpoint::Decoder<'_>,
            ) -> Result<Self, $crate::checkpoint::CodecError> {
                match dec.get_u8()? {
                    $( $tag => Ok(Self::$variant
                        $( ( $( $crate::codec_struct!(@dec dec, $tf $(, as $tvia)?) ),* ) )?
                        $( { $( $sf: $crate::codec_struct!(@dec dec, $sf $(, as $svia)?) ),* } )?
                    ), )*
                    _ => Err($crate::checkpoint::CodecError::BadTag),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec>(v: &T) -> Vec<u8> {
        let mut enc = Encoder::new();
        v.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = T::decode(&mut dec).unwrap();
        dec.finish().unwrap();
        let mut enc2 = Encoder::new();
        back.encode(&mut enc2);
        assert_eq!(bytes, enc2.into_bytes(), "re-encode differs");
        bytes
    }

    #[test]
    fn primitive_roundtrip() {
        let mut enc = Encoder::new();
        enc.put_u8(0xAB);
        enc.put_u16(0xBEEF);
        enc.put_u32(0xDEAD_BEEF);
        enc.put_u64(0x0123_4567_89AB_CDEF);
        enc.put_bool(true);
        enc.put_bool(false);
        enc.put_len(42);
        enc.put_str("hello ünïcode");
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_u8().unwrap(), 0xAB);
        assert_eq!(dec.get_u16().unwrap(), 0xBEEF);
        assert_eq!(dec.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert!(dec.get_bool().unwrap());
        assert!(!dec.get_bool().unwrap());
        assert_eq!(dec.get_len().unwrap(), 42);
        assert_eq!(dec.get_str().unwrap(), "hello ünïcode");
        dec.finish().unwrap();
    }

    #[test]
    fn decoder_rejects_truncation() {
        let mut enc = Encoder::new();
        enc.put_u64(7);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes[..5]);
        assert_eq!(dec.get_u64(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn decoder_rejects_bad_bool() {
        let bytes = [2u8];
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(dec.get_bool(), Err(CodecError::Invalid(_))));
    }

    #[test]
    fn decoder_flags_trailing_bytes() {
        let bytes = [0u8; 3];
        let mut dec = Decoder::new(&bytes);
        dec.get_u8().unwrap();
        assert_eq!(dec.finish(), Err(CodecError::TrailingBytes));
    }

    #[test]
    fn count_guard_rejects_oversized_counts() {
        // A count of u64::MAX with only a few bytes behind it must be
        // rejected before any allocation happens.
        let mut enc = Encoder::new();
        enc.put_u64(u64::MAX);
        enc.put_u8(0);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(dec.get_count().is_err());
        assert!(Decoder::new(&bytes).get::<Vec<u8>>().is_err());
    }

    #[test]
    fn generic_impls_match_the_primitive_layout() {
        // A count, then items; a bool tag, then the value; tuples and
        // arrays flat.
        let v: Vec<(u32, Option<u64>)> = vec![(1, Some(2)), (3, None)];
        let bytes = roundtrip(&v);
        let mut enc = Encoder::new();
        enc.put_len(2);
        enc.put_u32(1);
        enc.put_bool(true);
        enc.put_u64(2);
        enc.put_u32(3);
        enc.put_bool(false);
        assert_eq!(bytes, enc.into_bytes());
        roundtrip(&[7u64, 8, 9]);
        roundtrip(&(String::from("x"), 5usize, true));
        let terms: Rc<[KeywordId]> = vec![KeywordId(4), KeywordId(1)].into();
        roundtrip(&terms);
    }

    #[test]
    fn maps_and_sets_encode_sorted_by_key() {
        let mut map = DetHashMap::default();
        for k in [9u32, 1, 5] {
            map.insert(k, u64::from(k) * 10);
        }
        let bytes = roundtrip(&map);
        let sorted: Vec<(u32, u64)> = vec![(1, 10), (5, 50), (9, 90)];
        let mut enc = Encoder::new();
        sorted.encode(&mut enc);
        assert_eq!(bytes, enc.into_bytes());
        let set: DetHashSet<PeerId> = [PeerId(3), PeerId(0), PeerId(2)].into_iter().collect();
        let bytes = roundtrip(&set);
        let mut enc = Encoder::new();
        vec![PeerId(0), PeerId(2), PeerId(3)].encode(&mut enc);
        assert_eq!(bytes, enc.into_bytes());
    }

    #[test]
    fn bounded_decoder_checks_ids() {
        let mut enc = Encoder::new();
        PeerId(9).encode(&mut enc);
        DocId(4).encode(&mut enc);
        let bytes = enc.into_bytes();
        // Unbounded (wire) decoders accept any id.
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get::<PeerId>(), Ok(PeerId(9)));
        assert_eq!(dec.get::<DocId>(), Ok(DocId(4)));
        let mut dec = Decoder::new(&bytes);
        dec.bound_ids(9, 5);
        assert!(matches!(dec.get::<PeerId>(), Err(CodecError::Invalid(_))));
        let mut dec = Decoder::new(&bytes[4..]);
        dec.bound_ids(10, 4);
        assert!(matches!(dec.get::<DocId>(), Err(CodecError::Invalid(_))));
    }

    #[derive(Debug, PartialEq)]
    struct Pair {
        a: u32,
        b: Vec<u8>,
        derived: usize,
    }
    crate::codec_struct!(Pair { b, a, derived = 7 });

    #[derive(Debug, PartialEq)]
    enum Shape {
        Unit,
        Tuple(u8, u16),
        Named { x: u64, y: bool },
    }
    crate::codec_enum!(Shape {
        0 => Unit,
        1 => Tuple(p, q),
        5 => Named { y, x },
    });

    #[test]
    fn macros_write_fields_in_list_order() {
        let p = Pair { a: 1, b: vec![2], derived: 0 };
        let bytes = roundtrip(&p);
        assert_eq!(bytes, [1, 0, 0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 0]);
        assert_eq!(Decoder::new(&bytes).get::<Pair>().unwrap().derived, 7);

        assert_eq!(roundtrip(&Shape::Unit), [0]);
        assert_eq!(roundtrip(&Shape::Tuple(3, 4)), [1, 3, 4, 0]);
        assert_eq!(
            roundtrip(&Shape::Named { x: 2, y: true }),
            [5, 1, 2, 0, 0, 0, 0, 0, 0, 0]
        );
        assert_eq!(Decoder::new(&[4]).get::<Shape>(), Err(CodecError::BadTag));
    }
}
