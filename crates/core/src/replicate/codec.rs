//! The replication layer's binary codec: framed, typed, positional.
//!
//! Frame layout: 4-byte magic `RSKB`, format version (`u8`), payload
//! kind (`u8`), then the payload's fields in declaration order. Nothing
//! in the body is tagged or named — the kind byte fixes the payload
//! type, and the type fixes the layout:
//!
//! * integers are minimal LEB128;
//! * an `f64` is its IEEE-754 bits, little-endian;
//! * a `bool` or an `Option`'s presence flag is one byte, 0 or 1 —
//!   except the optional fingerprint of a sparse bucket row
//!   ([`super::SparseBucketRows`]), one varint: 0 for none, otherwise
//!   the fingerprint plus one;
//! * an enum is one tag byte, then its variant's fields;
//! * a sequence is a LEB128 count, then its elements;
//! * a key is its fixed-width little-endian byte form
//!   ([`rsk_hash::HashKey::put_le`]), the bytes its hash digests.
//!
//! Decoding is **total**: truncation maps to
//! [`ReplicateError::Truncated`], a foreign version byte to
//! [`ReplicateError::UnsupportedFormat`], and anything else malformed
//! (bad magic, an unknown kind or enum tag, a flag byte other than 0 or
//! 1, an overlong or overflowing varint, an integer too large for its
//! field, trailing bytes) to [`ReplicateError::Corrupt`]. No input of
//! any shape panics. Every value has exactly one encoding, so a payload
//! that decodes re-encodes bit-identically.

use crate::config::{Depth, EmergencyPolicy, MiceFilterConfig, ReliableConfig};
use rsk_api::{Key, ReplicateError};

/// Leading magic of every replication payload.
const MAGIC: [u8; 4] = *b"RSKB";
/// Current format version. Version 1 encoded a tagged value tree with
/// field names, version 2 kept 24-bit fingerprints in every bucket of a
/// concurrent or slim payload, and version 3 carried a config flag, a
/// lock-free failure gauge, dense sequential hints, a second live-row
/// form and a repeated slim extras field, which version 4 drops;
/// versions refuse each other's payloads.
const VERSION: u8 = 4;

/// What a replication payload carries — byte 6 of the frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// A full [`super::SketchSnapshot`] of a sequential sketch.
    SequentialSnapshot,
    /// A full [`super::ConcurrentSnapshot`].
    ConcurrentSnapshot,
    /// A full [`super::EpochedSnapshot`] of a rotating window.
    EpochedSnapshot,
    /// A full [`super::ShardedSnapshot`] of a shard group.
    ShardedSnapshot,
    /// A [`super::SlimSummary`] query-only digest.
    SlimSummary,
    /// A [`super::ConcurrentDelta`] since the last cut.
    ConcurrentDelta,
    /// An [`super::EpochedDelta`] since the last cut.
    EpochedDelta,
    /// A [`super::ShardedDelta`] since the last cut.
    ShardedDelta,
    /// A [`super::SlimShards`] routed slim digest group.
    ShardedSlim,
}

impl PayloadKind {
    fn as_byte(self) -> u8 {
        match self {
            PayloadKind::SequentialSnapshot => 1,
            PayloadKind::ConcurrentSnapshot => 2,
            PayloadKind::EpochedSnapshot => 3,
            PayloadKind::ShardedSnapshot => 4,
            PayloadKind::SlimSummary => 5,
            PayloadKind::ConcurrentDelta => 6,
            PayloadKind::EpochedDelta => 7,
            PayloadKind::ShardedDelta => 8,
            PayloadKind::ShardedSlim => 9,
        }
    }

    fn from_byte(b: u8) -> Result<Self, ReplicateError> {
        Ok(match b {
            1 => PayloadKind::SequentialSnapshot,
            2 => PayloadKind::ConcurrentSnapshot,
            3 => PayloadKind::EpochedSnapshot,
            4 => PayloadKind::ShardedSnapshot,
            5 => PayloadKind::SlimSummary,
            6 => PayloadKind::ConcurrentDelta,
            7 => PayloadKind::EpochedDelta,
            8 => PayloadKind::ShardedDelta,
            9 => PayloadKind::ShardedSlim,
            other => {
                return Err(ReplicateError::Corrupt(format!(
                    "unknown payload kind {other}"
                )))
            }
        })
    }
}

impl std::fmt::Display for PayloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            PayloadKind::SequentialSnapshot => "sequential snapshot",
            PayloadKind::ConcurrentSnapshot => "concurrent snapshot",
            PayloadKind::EpochedSnapshot => "epoched snapshot",
            PayloadKind::ShardedSnapshot => "sharded snapshot",
            PayloadKind::SlimSummary => "slim summary",
            PayloadKind::ConcurrentDelta => "concurrent delta",
            PayloadKind::EpochedDelta => "epoched delta",
            PayloadKind::ShardedDelta => "sharded delta",
            PayloadKind::ShardedSlim => "sharded slim summary",
        };
        f.write_str(name)
    }
}

/// Sniff the payload kind of a replication frame without decoding its
/// body — how [`rsk_api::Replicate::apply_bytes`] impls (and wire
/// servers) dispatch on self-describing payloads.
///
/// # Errors
/// Same totality contract as full decoding: truncated headers, bad
/// magic and foreign versions all surface as typed errors.
pub fn payload_kind(bytes: &[u8]) -> Result<PayloadKind, ReplicateError> {
    if bytes.len() < 6 {
        return Err(ReplicateError::Truncated);
    }
    if bytes[..4] != MAGIC {
        return Err(ReplicateError::Corrupt(
            "bad magic: not a replication payload".into(),
        ));
    }
    if bytes[4] != VERSION {
        return Err(ReplicateError::UnsupportedFormat { version: bytes[4] });
    }
    PayloadKind::from_byte(bytes[5])
}

/// Encode `value` into a framed binary payload of the given kind.
pub(crate) fn to_bytes<T: Wire>(kind: PayloadKind, value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind.as_byte());
    value.put(&mut out);
    out
}

/// Decode a framed payload that must carry `expected`, rejecting any
/// other kind as [`ReplicateError::Incompatible`] and any byte left
/// over as [`ReplicateError::Corrupt`].
pub(crate) fn from_bytes<T: Wire>(
    expected: PayloadKind,
    bytes: &[u8],
) -> Result<T, ReplicateError> {
    let kind = payload_kind(bytes)?;
    if kind != expected {
        return Err(ReplicateError::Incompatible(format!(
            "expected a {expected} payload, got a {kind}"
        )));
    }
    let mut r = Reader {
        bytes: &bytes[6..],
        pos: 0,
    };
    let value = T::get(&mut r)?;
    if r.remaining() > 0 {
        return Err(ReplicateError::Corrupt(format!(
            "{} trailing bytes after the payload",
            r.remaining()
        )));
    }
    Ok(value)
}

/// A value with a positional RSKB encoding.
pub(crate) trait Wire: Sized {
    /// Append the encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Decode one value, consuming exactly the bytes [`Wire::put`] wrote.
    fn get(r: &mut Reader<'_>) -> Result<Self, ReplicateError>;
}

/// Implement [`Wire`] for a struct as its fields, in the order listed —
/// by convention, declaration order.
macro_rules! wire_struct {
    ($name:ident $(<$k:ident>)? { $($field:ident),+ $(,)? }) => {
        impl$(<$k: rsk_api::Key>)? $crate::replicate::codec::Wire for $name$(<$k>)? {
            fn put(&self, out: &mut Vec<u8>) {
                $($crate::replicate::codec::Wire::put(&self.$field, out);)+
            }
            fn get(
                r: &mut $crate::replicate::codec::Reader<'_>,
            ) -> Result<Self, rsk_api::ReplicateError> {
                Ok(Self {
                    $($field: $crate::replicate::codec::Wire::get(r)?,)+
                })
            }
        }
    };
}
pub(crate) use wire_struct;

/// Append a sequence: its count, then each element through `item`.
pub(crate) fn put_seq<T>(items: &[T], out: &mut Vec<u8>, mut item: impl FnMut(&T, &mut Vec<u8>)) {
    put_uleb(items.len() as u64, out);
    for x in items {
        item(x, out);
    }
}

fn put_uleb(mut n: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (n & 0x7f) as u8;
        n >>= 7;
        if n == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

impl Wire for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        put_uleb(*self, out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ReplicateError> {
        r.uleb()
    }
}

impl Wire for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        put_uleb(u64::from(*self), out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ReplicateError> {
        u32::try_from(r.uleb()?)
            .map_err(|_| ReplicateError::Corrupt("integer overflows u32".into()))
    }
}

impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        put_uleb(*self as u64, out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ReplicateError> {
        usize::try_from(r.uleb()?)
            .map_err(|_| ReplicateError::Corrupt("integer overflows usize".into()))
    }
}

impl Wire for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ReplicateError> {
        let mut bits = [0u8; 8];
        bits.copy_from_slice(r.take(8)?);
        Ok(f64::from_bits(u64::from_le_bytes(bits)))
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ReplicateError> {
        match r.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(ReplicateError::Corrupt(format!(
                "invalid flag byte {other}"
            ))),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(x) = self {
            x.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ReplicateError> {
        bool::get(r)?.then(|| T::get(r)).transpose()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(self, out, T::put);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ReplicateError> {
        r.seq(T::get)
    }
}

macro_rules! wire_tuple {
    ($($t:ident $i:tt),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$i.put(out);)+
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, ReplicateError> {
                Ok(($($t::get(r)?,)+))
            }
        }
    };
}

wire_tuple!(A 0, B 1);
wire_tuple!(A 0, B 1, C 2);

/// A sparse bucket row: `(index, fingerprint, yes, no)` with the
/// fingerprint folded into one varint, 0 for none and otherwise the
/// fingerprint plus one. Fingerprints are 32-bit, so the shift never
/// wraps for a real bucket.
impl Wire for (u32, Option<u64>, u64, u64) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.map_or(0, |fp| fp.wrapping_add(1)).put(out);
        self.2.put(out);
        self.3.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ReplicateError> {
        let index = Wire::get(r)?;
        let id = u64::get(r)?.checked_sub(1);
        Ok((index, id, Wire::get(r)?, Wire::get(r)?))
    }
}

impl Wire for Depth {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Depth::Auto => out.push(0),
            Depth::Fixed(d) => {
                out.push(1);
                d.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ReplicateError> {
        match r.byte()? {
            0 => Ok(Depth::Auto),
            1 => Ok(Depth::Fixed(Wire::get(r)?)),
            other => Err(bad_tag("depth", other)),
        }
    }
}

impl Wire for EmergencyPolicy {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            EmergencyPolicy::Disabled => out.push(0),
            EmergencyPolicy::ExactTable => out.push(1),
            EmergencyPolicy::SpaceSaving(slots) => {
                out.push(2);
                slots.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ReplicateError> {
        match r.byte()? {
            0 => Ok(EmergencyPolicy::Disabled),
            1 => Ok(EmergencyPolicy::ExactTable),
            2 => Ok(EmergencyPolicy::SpaceSaving(Wire::get(r)?)),
            other => Err(bad_tag("emergency policy", other)),
        }
    }
}

wire_struct!(MiceFilterConfig {
    memory_fraction,
    counter_bits,
    arrays,
});

wire_struct!(ReliableConfig {
    memory_bytes,
    lambda,
    r_w,
    r_lambda,
    depth,
    mice_filter,
    emergency,
    seed,
});

/// The error for an enum tag byte no variant claims.
pub(crate) fn bad_tag(what: &str, tag: u8) -> ReplicateError {
    ReplicateError::Corrupt(format!("invalid {what} tag {tag}"))
}

/// Cursor over a payload body.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn byte(&mut self) -> Result<u8, ReplicateError> {
        let b = *self.bytes.get(self.pos).ok_or(ReplicateError::Truncated)?;
        self.pos = self.pos.saturating_add(1);
        Ok(b)
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ReplicateError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(ReplicateError::Truncated)?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Minimal LEB128 `u64`: rejects encodings longer than 10 bytes,
    /// overflowing high bits and padded forms (a final zero group), so
    /// each value has exactly one accepted encoding.
    fn uleb(&mut self) -> Result<u64, ReplicateError> {
        let mut n = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            let bits = u64::from(byte & 0x7f);
            if shift == 63 && bits > 1 {
                return Err(ReplicateError::Corrupt("varint overflows u64".into()));
            }
            n |= bits << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err(ReplicateError::Corrupt(
                        "varint is not in its shortest form".into(),
                    ));
                }
                return Ok(n);
            }
        }
        Err(ReplicateError::Corrupt(
            "varint longer than 10 bytes".into(),
        ))
    }

    /// A count prefix: additionally bounded by the bytes that remain,
    /// since every element occupies at least one byte.
    fn count(&mut self) -> Result<usize, ReplicateError> {
        let n = self.uleb()?;
        if n > self.remaining() as u64 {
            return Err(ReplicateError::Truncated);
        }
        Ok(n as usize)
    }

    /// A counted sequence, each element decoded by `item`. The up-front
    /// reservation never exceeds the bytes that remain: an element in
    /// memory can be far larger than its one-byte minimum on the wire,
    /// so a hostile count in a short body must not size the allocation.
    pub(crate) fn seq<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, ReplicateError>,
    ) -> Result<Vec<T>, ReplicateError> {
        let n = self.count()?;
        let fit = self.remaining().checked_div(std::mem::size_of::<T>());
        let mut out = Vec::with_capacity(n.min(fit.unwrap_or(n)));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// A key in its fixed-width byte form.
    pub(crate) fn key<K: Key>(&mut self) -> Result<K, ReplicateError> {
        K::from_le(self.take(K::BYTES)?)
            .ok_or_else(|| ReplicateError::Corrupt("malformed key bytes".into()))
    }
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects)] // small fixed test data
mod tests {
    use super::*;
    use crate::replicate::{
        ConcurrentDelta, ConcurrentSnapshot, EpochedDelta, EpochedSnapshot, ShardedDelta,
        ShardedSnapshot, SketchSnapshot, SlimShards, SlimSummary,
    };
    use crate::ReliableSketch;
    use proptest::prelude::*;
    use rsk_api::StreamSummary;

    /// A small but fully populated typed payload.
    fn snapshot_bytes() -> Vec<u8> {
        let mut sk = ReliableSketch::<u64>::builder()
            .memory_bytes(2 * 1024)
            .error_tolerance(25)
            .seed(3)
            .build_sequential::<u64>();
        for i in 0..600u64 {
            sk.insert(&(i % 90), 1 + i % 4);
        }
        sk.snapshot().to_bytes()
    }

    /// Decode `bytes` as every payload type (each must be total).
    fn decode_as_every_payload(bytes: &[u8]) {
        let _ = payload_kind(bytes);
        let _ = from_bytes::<SketchSnapshot<u64>>(PayloadKind::SequentialSnapshot, bytes);
        let _ = from_bytes::<SketchSnapshot<[u8; 13]>>(PayloadKind::SequentialSnapshot, bytes);
        let _ = from_bytes::<ConcurrentSnapshot<u64>>(PayloadKind::ConcurrentSnapshot, bytes);
        let _ = from_bytes::<EpochedSnapshot<u64>>(PayloadKind::EpochedSnapshot, bytes);
        let _ = from_bytes::<ShardedSnapshot<u32>>(PayloadKind::ShardedSnapshot, bytes);
        let _ = from_bytes::<SlimSummary>(PayloadKind::SlimSummary, bytes);
        let _ = from_bytes::<ConcurrentDelta<u64>>(PayloadKind::ConcurrentDelta, bytes);
        let _ = from_bytes::<EpochedDelta<u128>>(PayloadKind::EpochedDelta, bytes);
        let _ = from_bytes::<ShardedDelta<u64>>(PayloadKind::ShardedDelta, bytes);
        let _ = from_bytes::<SlimShards>(PayloadKind::ShardedSlim, bytes);
    }

    #[test]
    fn header_is_checked() {
        let good = snapshot_bytes();
        assert_eq!(
            payload_kind(&good).unwrap(),
            PayloadKind::SequentialSnapshot
        );

        assert_eq!(payload_kind(&good[..5]), Err(ReplicateError::Truncated));
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            payload_kind(&bad_magic),
            Err(ReplicateError::Corrupt(_))
        ));
        for version in [1, 2, 3, 9] {
            let mut foreign = good.clone();
            foreign[4] = version;
            assert_eq!(
                payload_kind(&foreign),
                Err(ReplicateError::UnsupportedFormat { version })
            );
            assert_eq!(
                SketchSnapshot::<u64>::from_bytes(&foreign).unwrap_err(),
                ReplicateError::UnsupportedFormat { version }
            );
        }
        let mut alien_kind = good;
        alien_kind[5] = 200;
        assert!(matches!(
            payload_kind(&alien_kind),
            Err(ReplicateError::Corrupt(_))
        ));
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = snapshot_bytes();
        for cut in 0..bytes.len() {
            assert!(
                SketchSnapshot::<u64>::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes"
            );
        }
        // and trailing garbage after a valid payload
        let mut padded = bytes;
        padded.push(0);
        assert!(matches!(
            SketchSnapshot::<u64>::from_bytes(&padded),
            Err(ReplicateError::Corrupt(_))
        ));
    }

    #[test]
    fn hostile_counts_and_varints_are_rejected() {
        let header = &snapshot_bytes()[..6];
        // a width list claiming 2^40 entries in a short body; the
        // config in front of it is valid
        let mut bytes = header.to_vec();
        ReliableConfig::default().put(&mut bytes);
        bytes.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x20]);
        bytes.extend_from_slice(&[0; 16]);
        assert_eq!(
            SketchSnapshot::<u64>::from_bytes(&bytes).unwrap_err(),
            ReplicateError::Truncated
        );

        // an 11-byte varint where the config's first integer belongs
        let mut long = header.to_vec();
        long.extend_from_slice(&[0xff; 11]);
        assert!(matches!(
            SketchSnapshot::<u64>::from_bytes(&long),
            Err(ReplicateError::Corrupt(_))
        ));
    }

    #[test]
    fn padded_varints_are_rejected() {
        let bytes = snapshot_bytes();
        // The body opens with the config's `memory_bytes` varint;
        // rewrite it in a padded (non-minimal) form.
        let end = 6 + bytes[6..].iter().position(|b| b & 0x80 == 0).unwrap();
        let mut padded = bytes[..end].to_vec();
        padded.push(bytes[end] | 0x80);
        padded.push(0);
        padded.extend_from_slice(&bytes[end + 1..]);
        assert!(SketchSnapshot::<u64>::from_bytes(&bytes).is_ok());
        assert!(matches!(
            SketchSnapshot::<u64>::from_bytes(&padded),
            Err(ReplicateError::Corrupt(_))
        ));

        let mut r = Reader {
            bytes: &[0x81, 0x00],
            pos: 0,
        };
        assert!(matches!(r.uleb(), Err(ReplicateError::Corrupt(_))));
    }

    #[test]
    fn flags_and_tags_are_checked() {
        let mut r = Reader {
            bytes: &[2],
            pos: 0,
        };
        assert!(matches!(bool::get(&mut r), Err(ReplicateError::Corrupt(_))));
        let mut r = Reader {
            bytes: &[7],
            pos: 0,
        };
        assert!(matches!(
            Depth::get(&mut r),
            Err(ReplicateError::Corrupt(_))
        ));
        // 2^32 does not fit a u32 field
        let mut wide = Vec::new();
        (1u64 << 32).put(&mut wide);
        let mut r = Reader {
            bytes: &wide,
            pos: 0,
        };
        assert!(matches!(u32::get(&mut r), Err(ReplicateError::Corrupt(_))));
    }

    #[test]
    fn sparse_row_ids_take_one_varint() {
        let rows: [(u32, Option<u64>, u64, u64); 3] = [
            (3, None, 1, 2),
            (3, Some(0), 1, 2),
            (300, Some(0xff_ffff), 0, 9),
        ];
        let wire: [&[u8]; 3] = [
            &[3, 0, 1, 2],
            &[3, 1, 1, 2],
            &[0xac, 0x02, 0x80, 0x80, 0x80, 0x08, 0, 9],
        ];
        for (row, want) in rows.iter().zip(wire) {
            let mut out = Vec::new();
            row.put(&mut out);
            assert_eq!(out, want, "{row:?}");
            let mut r = Reader {
                bytes: &out,
                pos: 0,
            };
            assert_eq!(<(u32, Option<u64>, u64, u64)>::get(&mut r).unwrap(), *row);
            assert_eq!(r.pos, out.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Totality: arbitrary bytes never panic the decoder — they decode
        /// or they error, whatever payload type is asked for.
        #[test]
        fn prop_decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
            decode_as_every_payload(&bytes);
        }

        /// Same, but past a valid header of every kind so the body
        /// decoders themselves are exercised rather than the magic check.
        #[test]
        fn prop_decode_body_is_total(
            kind in 1u8..10,
            body in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            let mut bytes = Vec::with_capacity(body.len() + 6);
            bytes.extend_from_slice(&MAGIC);
            bytes.push(VERSION);
            bytes.push(kind);
            bytes.extend_from_slice(&body);
            decode_as_every_payload(&bytes);
        }

        /// Unsigned varints roundtrip at every magnitude.
        #[test]
        fn prop_uleb_roundtrips(n in any::<u64>()) {
            let mut out = Vec::new();
            put_uleb(n, &mut out);
            let mut r = Reader { bytes: &out, pos: 0 };
            prop_assert_eq!(r.uleb().unwrap(), n);
            prop_assert_eq!(r.pos, out.len());
        }
    }
}
