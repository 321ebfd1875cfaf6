//! The length-prefixed binary wire protocol.
//!
//! Every frame on the wire is
//!
//! ```text
//! [len: u32 LE] [version: u8] [opcode: u8] [body: len − 2 bytes]
//! ```
//!
//! where `len` counts the payload (version byte onward). Integers are
//! little-endian throughout; there is no padding and no alignment. The
//! full frame catalogue, body layouts, and error-code table live in
//! `docs/PROTOCOL.md`.
//!
//! Decoding is strict: unknown opcodes, version mismatches, truncated
//! bodies, trailing bytes, and oversized counts are all rejected with a
//! typed [`ProtocolError`] rather than being guessed at. A server never
//! tears down a connection over a malformed *payload* (it answers
//! [`Response::Error`] and keeps reading); only an unparseable *frame
//! header* or an oversized length kills the connection, because after
//! that the byte stream has no trustworthy resynchronisation point.
//!
//! # Examples
//!
//! ```
//! use rsk_serve::protocol::{Request, Response};
//!
//! let req = Request::QueryCertified { tenant: 7, key: 0xfeed };
//! let bytes = req.encode();
//! assert_eq!(Request::decode(&bytes).unwrap(), req);
//!
//! let resp = Response::Certified { value: 41, max_possible_error: 3, slack: 0, epoch: 2 };
//! assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
//! ```

use rsk_api::KeySet;
use std::io::{self, Read, Write};

/// Protocol version spoken by this crate. A frame carrying any other
/// version is rejected with [`ProtocolError::BadVersion`].
pub const VERSION: u8 = 1;

/// Hard ceiling on the payload length a peer may declare, sized for the
/// largest legitimate frame: a full replication snapshot of a tenant
/// window ([`Request::PushDelta`] / [`Response::Snapshot`]); max-size
/// ingest batches fit with two orders of magnitude to spare. Anything
/// larger is treated as a framing attack / corruption and the
/// connection dies. A snapshot that genuinely exceeds this is refused
/// at the application layer with [`ErrorCode::ReplicateRefused`]
/// instead of poisoning the stream.
pub const MAX_FRAME_LEN: u32 = 1 << 23;

/// Most items a single `Ingest` frame may carry. Larger batches are
/// refused with [`ErrorCode::BatchTooLarge`] — this is the server-side
/// half of the backpressure contract (the client-side half is the
/// bounded credit window in `rsk-load`).
pub const MAX_BATCH: usize = 1 << 14;

/// Typed decode failure. `Display` explains each case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Payload ended before the advertised structure was complete.
    Truncated,
    /// Payload continued past the advertised structure.
    TrailingBytes,
    /// First payload byte was not [`VERSION`].
    BadVersion(u8),
    /// Opcode byte names no known frame.
    UnknownOpcode(u8),
    /// Declared length exceeds [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// A count field exceeds its documented ceiling.
    CountTooLarge(u32),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A structured field is well-formed bytes but violates the frame's
    /// canonical-form rules (e.g. an unsorted explicit key set, an
    /// inverted range, or mask-pattern bits outside the mask). Canonical
    /// form is required so that decode∘encode is the identity — a frame
    /// that decodes must re-encode to the exact same bytes.
    NonCanonical(&'static str),
}

impl core::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Truncated => write!(f, "frame body truncated"),
            Self::TrailingBytes => write!(f, "frame body has trailing bytes"),
            Self::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            Self::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            Self::Oversized(n) => write!(f, "declared frame length {n} exceeds {MAX_FRAME_LEN}"),
            Self::CountTooLarge(n) => write!(f, "declared count {n} exceeds ceiling"),
            Self::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            Self::NonCanonical(what) => write!(f, "field violates canonical form: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Machine-readable error class carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Payload failed to decode; the offending frame is dropped.
    Malformed = 1,
    /// `Ingest` batch exceeded [`MAX_BATCH`] items (backpressure).
    BatchTooLarge = 2,
    /// Server is at its connection ceiling; the connection closes after
    /// this frame.
    TooManyConnections = 3,
    /// A `Merge` was refused by the sketch layer (shape/seed mismatch).
    MergeRefused = 4,
    /// The request named a tenant the server refuses to materialise.
    BadTenant = 5,
    /// A replication operation was refused: the payload was corrupt,
    /// truncated, or incompatible with the tenant's window, or the
    /// requested snapshot does not fit in [`MAX_FRAME_LEN`].
    ReplicateRefused = 6,
}

impl ErrorCode {
    fn from_u8(code: u8) -> Option<Self> {
        Some(match code {
            1 => Self::Malformed,
            2 => Self::BatchTooLarge,
            3 => Self::TooManyConnections,
            4 => Self::MergeRefused,
            5 => Self::BadTenant,
            6 => Self::ReplicateRefused,
            _ => return None,
        })
    }
}

/// Which replication payload a [`Request::Snapshot`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SnapshotKind {
    /// Complete window state ([`rsk_api::Replicate::snapshot_bytes`]).
    Full = 0,
    /// Buckets dirtied since the last cut, falling back to a full
    /// snapshot when no cut exists
    /// ([`rsk_api::Replicate::delta_bytes`]).
    Delta = 1,
    /// Query-only slim digest ([`rsk_api::Replicate::slim_bytes`]).
    Slim = 2,
}

impl SnapshotKind {
    fn from_u8(kind: u8) -> Option<Self> {
        Some(match kind {
            0 => Self::Full,
            1 => Self::Delta,
            2 => Self::Slim,
            _ => return None,
        })
    }
}

/// Client → server frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Fold a batch of `(key, value)` updates into `tenant`'s active
    /// generation. At most [`MAX_BATCH`] items.
    Ingest {
        /// Target tenant id (materialised on first touch).
        tenant: u32,
        /// `(key, value)` updates, applied in order.
        items: Vec<(u64, u64)>,
    },
    /// Point estimate only (no certification) for `key` in `tenant`.
    Query {
        /// Target tenant id.
        tenant: u32,
        /// Flow key to estimate.
        key: u64,
    },
    /// Certified estimate: value, maximum possible error, and the value
    /// the tenant's window dropped.
    QueryCertified {
        /// Target tenant id.
        tenant: u32,
        /// Flow key to certify.
        key: u64,
    },
    /// Rotate `tenant`'s epoch window: the active generation freezes
    /// (serving wait-free reads) and a fresh one starts absorbing.
    Seal {
        /// Target tenant id.
        tenant: u32,
    },
    /// Fold tenant `src`'s window into tenant `dst`'s active generation.
    Merge {
        /// Receiving tenant id.
        dst: u32,
        /// Donor tenant id (left untouched).
        src: u32,
    },
    /// Capture a replication payload of `tenant`'s window: a full
    /// snapshot, a dirty-bucket delta since the last cut, or a slim
    /// query-only digest (see [`SnapshotKind`]).
    Snapshot {
        /// Tenant whose window to capture.
        tenant: u32,
        /// Payload family to produce.
        kind: SnapshotKind,
    },
    /// Apply a replication payload (full snapshot or delta — payloads
    /// are self-describing) to `tenant`'s window. This is how a replica
    /// server receives shipped state.
    PushDelta {
        /// Tenant window to apply the payload to (materialised on first
        /// touch).
        tenant: u32,
        /// A payload produced by [`Request::Snapshot`] with
        /// [`SnapshotKind::Full`] or [`SnapshotKind::Delta`].
        payload: Vec<u8>,
    },
    /// The `k` heaviest keys of `tenant`'s visible window, each with its
    /// certified error, plus the floor every unreported key is
    /// guaranteed to sit under (see `docs/PROTOCOL.md` § Certification).
    TopK {
        /// Target tenant id.
        tenant: u32,
        /// How many entries to report (the server caps at the tenant's
        /// top-K capacity).
        k: u32,
    },
    /// Certified subpopulation weight: the total value carried by a
    /// [`KeySet`]-selected key subset of `tenant`'s visible window, with
    /// a sound `[lo, hi + slack]` interval (see `docs/PROTOCOL.md`
    /// § Certification). Explicit sets are capped at [`MAX_BATCH`] keys
    /// and must arrive sorted strictly increasing (canonical form).
    Subpop {
        /// Target tenant id.
        tenant: u32,
        /// Predicate selecting the key subset.
        set: KeySet,
    },
    /// Server-wide counters.
    Stats,
    /// Ask the server to stop accepting and drain.
    Shutdown,
}

/// Server → client frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `Ingest` landed; `accepted` echoes the item count.
    IngestAck {
        /// Items folded in.
        accepted: u32,
    },
    /// Point estimate for a `Query`.
    Value {
        /// The estimate.
        value: u64,
    },
    /// Certified answer: truth ∈ `[value − max_possible_error − slack, value + slack]`
    /// where `slack` is the value the tenant's window dropped (see
    /// `docs/PROTOCOL.md` § Certification).
    Certified {
        /// Point estimate.
        value: u64,
        /// Maximum possible overcount baked into `value`.
        max_possible_error: u64,
        /// Value the window's insertion failures dropped.
        slack: u64,
        /// Epoch index the answer was computed at.
        epoch: u64,
    },
    /// `Seal` completed; `epoch` is the new active epoch index.
    Sealed {
        /// New active epoch index.
        epoch: u64,
    },
    /// `Merge` completed.
    Merged,
    /// A replication payload captured by [`Request::Snapshot`].
    Snapshot {
        /// Self-describing replication payload (sniff with
        /// `rsk_core::replicate::payload_kind`).
        payload: Vec<u8>,
    },
    /// A [`Request::PushDelta`] payload was applied to the tenant's
    /// window.
    Replicated,
    /// Certified heavy hitters for a [`Request::TopK`]: for each entry
    /// `(key, count, error)`, truth ∈ `[count − error − slack, count + slack]`;
    /// every key *not* listed has window truth at most `floor + slack`.
    TopK {
        /// Epoch index the answer was computed at.
        epoch: u64,
        /// Value the window's insertion failures dropped.
        slack: u64,
        /// Guaranteed ceiling on every unreported key's window count
        /// (before slack).
        floor: u64,
        /// `(key, count, error)` triples, heaviest first. Empty when the
        /// tenant's window cannot certify an answer (e.g. freshly
        /// restored from a replica payload) — `floor` is then `u64::MAX`.
        entries: Vec<(u64, u64, u64)>,
    },
    /// Certified subpopulation weight for a [`Request::Subpop`]: the
    /// subset's true total weight lies in `[lo, hi + slack]`, and
    /// `lo ≤ estimate ≤ hi`. `hi == u64::MAX` marks a vacuous upper
    /// bound (non-enumerable subset on an enumeration-only window).
    Subpop {
        /// Point estimate of the subset's total weight.
        estimate: u64,
        /// Certified lower bound on the true subset weight.
        lo: u64,
        /// Certified upper bound before slack (it already charges the
        /// window's dropped value).
        hi: u64,
        /// Always 0: `[lo, hi]` alone contains the truth.
        slack: u64,
        /// Epoch index the answer was computed at.
        epoch: u64,
    },
    /// Server-wide counters.
    Stats(StatsReply),
    /// Acknowledges `Shutdown`; the server stops accepting.
    ShuttingDown,
    /// Request-level failure. The connection stays open unless the code
    /// says otherwise.
    Error {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable detail (truncated to 64 KiB on the wire).
        message: String,
    },
}

/// Body of [`Response::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsReply {
    /// Tenants materialised so far.
    pub tenants: u32,
    /// Live connections at the moment of the snapshot.
    pub connections: u32,
    /// Items folded in across all tenants.
    pub items_ingested: u64,
    /// `Query` + `QueryCertified` frames answered.
    pub queries: u64,
    /// `Seal` frames processed.
    pub seals: u64,
    /// `Merge` frames processed.
    pub merges: u64,
    /// Ingest batches refused for exceeding [`MAX_BATCH`].
    pub rejected_batches: u64,
    /// Connections refused at the connection ceiling.
    pub rejected_connections: u64,
    /// Successful `Snapshot` captures plus `PushDelta` applications.
    pub replications: u64,
}

mod opcode {
    pub const INGEST: u8 = 0x01;
    pub const QUERY: u8 = 0x02;
    pub const QUERY_CERTIFIED: u8 = 0x03;
    pub const SEAL: u8 = 0x04;
    pub const MERGE: u8 = 0x05;
    pub const STATS: u8 = 0x06;
    pub const SHUTDOWN: u8 = 0x07;
    pub const SNAPSHOT: u8 = 0x08;
    pub const PUSH_DELTA: u8 = 0x09;
    // 0x0A is retired (docs/PROTOCOL.md): never reuse it.
    pub const TOP_K: u8 = 0x0B;
    pub const SUBPOP: u8 = 0x0C;

    pub const INGEST_ACK: u8 = 0x81;
    pub const VALUE: u8 = 0x82;
    pub const CERTIFIED: u8 = 0x83;
    pub const SEALED: u8 = 0x84;
    pub const MERGED: u8 = 0x85;
    pub const STATS_REPLY: u8 = 0x86;
    pub const SHUTTING_DOWN: u8 = 0x87;
    pub const SNAPSHOT_REPLY: u8 = 0x88;
    pub const REPLICATED: u8 = 0x89;
    pub const TOP_K_REPLY: u8 = 0x8A;
    pub const SUBPOP_REPLY: u8 = 0x8B;
    pub const ERROR: u8 = 0xFF;

    /// Key-set shape tags inside a `SUBPOP` body.
    pub const KEYSET_EXPLICIT: u8 = 0;
    pub const KEYSET_RANGE: u8 = 1;
    pub const KEYSET_MASK: u8 = 2;
}

/// Cursor over a payload with strict bounds checking.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        let b = *self.buf.get(self.pos).ok_or(ProtocolError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let end = self.pos.checked_add(4).ok_or(ProtocolError::Truncated)?;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or(ProtocolError::Truncated)?;
        self.pos = end;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4-byte slice")))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let end = self.pos.checked_add(8).ok_or(ProtocolError::Truncated)?;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or(ProtocolError::Truncated)?;
        self.pos = end;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self.pos.checked_add(n).ok_or(ProtocolError::Truncated)?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or(ProtocolError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// A `[len: u32][bytes]` field; the declared length is bounded by
    /// [`MAX_FRAME_LEN`] and checked against the bytes actually present
    /// before any allocation happens.
    fn blob(&mut self) -> Result<Vec<u8>, ProtocolError> {
        let len = self.u32()?;
        if len > MAX_FRAME_LEN {
            return Err(ProtocolError::CountTooLarge(len));
        }
        Ok(self.bytes(len as usize)?.to_vec())
    }

    /// A `[count: u32]` run of `size`-byte records that ends the frame:
    /// the count is capped at [`MAX_BATCH`] and cross-checked against
    /// the bytes that actually arrived before anything is allocated for
    /// it, so a lying count fails as `CountTooLarge`, `Truncated` or
    /// `TrailingBytes`, in that order of precedence.
    fn records<T>(
        &mut self,
        size: usize,
        mut record: impl FnMut(&mut Self) -> Result<T, ProtocolError>,
    ) -> Result<Vec<T>, ProtocolError> {
        let count = self.u32()?;
        if count as usize > MAX_BATCH {
            return Err(ProtocolError::CountTooLarge(count));
        }
        let declared = (count as usize)
            .checked_mul(size)
            .ok_or(ProtocolError::CountTooLarge(count))?;
        let remaining = self.buf.len() - self.pos;
        if remaining != declared {
            return Err(if remaining < declared {
                ProtocolError::Truncated
            } else {
                ProtocolError::TrailingBytes
            });
        }
        let mut out = Vec::with_capacity(count as usize);
        for _ in 0..count {
            out.push(record(self)?);
        }
        Ok(out)
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtocolError::TrailingBytes)
        }
    }
}

fn decode_header(payload: &[u8]) -> Result<(u8, Reader<'_>), ProtocolError> {
    let mut r = Reader::new(payload);
    let version = r.u8()?;
    if version != VERSION {
        return Err(ProtocolError::BadVersion(version));
    }
    let op = r.u8()?;
    Ok((op, r))
}

impl Request {
    /// Serialise to a payload (version byte onward, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.push(VERSION);
        match self {
            Self::Ingest { tenant, items } => {
                out.push(opcode::INGEST);
                out.extend_from_slice(&tenant.to_le_bytes());
                out.extend_from_slice(&(items.len() as u32).to_le_bytes());
                for (k, v) in items {
                    out.extend_from_slice(&k.to_le_bytes());
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Self::Query { tenant, key } => {
                out.push(opcode::QUERY);
                out.extend_from_slice(&tenant.to_le_bytes());
                out.extend_from_slice(&key.to_le_bytes());
            }
            Self::QueryCertified { tenant, key } => {
                out.push(opcode::QUERY_CERTIFIED);
                out.extend_from_slice(&tenant.to_le_bytes());
                out.extend_from_slice(&key.to_le_bytes());
            }
            Self::Seal { tenant } => {
                out.push(opcode::SEAL);
                out.extend_from_slice(&tenant.to_le_bytes());
            }
            Self::Merge { dst, src } => {
                out.push(opcode::MERGE);
                out.extend_from_slice(&dst.to_le_bytes());
                out.extend_from_slice(&src.to_le_bytes());
            }
            Self::Snapshot { tenant, kind } => {
                out.push(opcode::SNAPSHOT);
                out.extend_from_slice(&tenant.to_le_bytes());
                out.push(*kind as u8);
            }
            Self::PushDelta { tenant, payload } => {
                out.push(opcode::PUSH_DELTA);
                out.extend_from_slice(&tenant.to_le_bytes());
                out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                out.extend_from_slice(payload);
            }
            Self::TopK { tenant, k } => {
                out.push(opcode::TOP_K);
                out.extend_from_slice(&tenant.to_le_bytes());
                out.extend_from_slice(&k.to_le_bytes());
            }
            Self::Subpop { tenant, set } => {
                out.push(opcode::SUBPOP);
                out.extend_from_slice(&tenant.to_le_bytes());
                match set {
                    KeySet::Explicit(keys) => {
                        out.push(opcode::KEYSET_EXPLICIT);
                        out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
                        for k in keys {
                            out.extend_from_slice(&k.to_le_bytes());
                        }
                    }
                    KeySet::Range { start, end } => {
                        out.push(opcode::KEYSET_RANGE);
                        out.extend_from_slice(&start.to_le_bytes());
                        out.extend_from_slice(&end.to_le_bytes());
                    }
                    KeySet::Mask { pattern, mask } => {
                        out.push(opcode::KEYSET_MASK);
                        out.extend_from_slice(&pattern.to_le_bytes());
                        out.extend_from_slice(&mask.to_le_bytes());
                    }
                }
            }
            Self::Stats => out.push(opcode::STATS),
            Self::Shutdown => out.push(opcode::SHUTDOWN),
        }
        out
    }

    /// Parse a payload. Strict: rejects version/opcode/length anomalies.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let (op, mut r) = decode_header(payload)?;
        let req = match op {
            opcode::INGEST => Self::Ingest {
                tenant: r.u32()?,
                items: r.records(16, |r| Ok((r.u64()?, r.u64()?)))?,
            },
            opcode::QUERY => Self::Query {
                tenant: r.u32()?,
                key: r.u64()?,
            },
            opcode::QUERY_CERTIFIED => Self::QueryCertified {
                tenant: r.u32()?,
                key: r.u64()?,
            },
            opcode::SEAL => Self::Seal { tenant: r.u32()? },
            opcode::MERGE => Self::Merge {
                dst: r.u32()?,
                src: r.u32()?,
            },
            opcode::SNAPSHOT => {
                let tenant = r.u32()?;
                let raw = r.u8()?;
                let kind = SnapshotKind::from_u8(raw).ok_or(ProtocolError::UnknownOpcode(raw))?;
                Self::Snapshot { tenant, kind }
            }
            opcode::PUSH_DELTA => Self::PushDelta {
                tenant: r.u32()?,
                payload: r.blob()?,
            },
            opcode::TOP_K => Self::TopK {
                tenant: r.u32()?,
                k: r.u32()?,
            },
            opcode::SUBPOP => {
                let tenant = r.u32()?;
                let tag = r.u8()?;
                let set = match tag {
                    opcode::KEYSET_EXPLICIT => {
                        let keys = r.records(8, Reader::u64)?;
                        if !keys.windows(2).all(|w| w[0] < w[1]) {
                            return Err(ProtocolError::NonCanonical(
                                "explicit key set must be sorted strictly increasing",
                            ));
                        }
                        KeySet::Explicit(keys)
                    }
                    opcode::KEYSET_RANGE => {
                        let start = r.u64()?;
                        let end = r.u64()?;
                        if start > end {
                            return Err(ProtocolError::NonCanonical("range start exceeds end"));
                        }
                        KeySet::Range { start, end }
                    }
                    opcode::KEYSET_MASK => {
                        let pattern = r.u64()?;
                        let mask = r.u64()?;
                        if pattern & !mask != 0 {
                            return Err(ProtocolError::NonCanonical(
                                "mask pattern has bits outside the mask",
                            ));
                        }
                        KeySet::Mask { pattern, mask }
                    }
                    other => return Err(ProtocolError::UnknownOpcode(other)),
                };
                Self::Subpop { tenant, set }
            }
            opcode::STATS => Self::Stats,
            opcode::SHUTDOWN => Self::Shutdown,
            other => return Err(ProtocolError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serialise to a payload (version byte onward, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.push(VERSION);
        match self {
            Self::IngestAck { accepted } => {
                out.push(opcode::INGEST_ACK);
                out.extend_from_slice(&accepted.to_le_bytes());
            }
            Self::Value { value } => {
                out.push(opcode::VALUE);
                out.extend_from_slice(&value.to_le_bytes());
            }
            Self::Certified {
                value,
                max_possible_error,
                slack,
                epoch,
            } => {
                out.push(opcode::CERTIFIED);
                out.extend_from_slice(&value.to_le_bytes());
                out.extend_from_slice(&max_possible_error.to_le_bytes());
                out.extend_from_slice(&slack.to_le_bytes());
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            Self::Sealed { epoch } => {
                out.push(opcode::SEALED);
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            Self::Merged => out.push(opcode::MERGED),
            Self::Snapshot { payload } => {
                out.push(opcode::SNAPSHOT_REPLY);
                out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                out.extend_from_slice(payload);
            }
            Self::Replicated => out.push(opcode::REPLICATED),
            Self::TopK {
                epoch,
                slack,
                floor,
                entries,
            } => {
                out.push(opcode::TOP_K_REPLY);
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&slack.to_le_bytes());
                out.extend_from_slice(&floor.to_le_bytes());
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for (key, count, error) in entries {
                    out.extend_from_slice(&key.to_le_bytes());
                    out.extend_from_slice(&count.to_le_bytes());
                    out.extend_from_slice(&error.to_le_bytes());
                }
            }
            Self::Subpop {
                estimate,
                lo,
                hi,
                slack,
                epoch,
            } => {
                out.push(opcode::SUBPOP_REPLY);
                for word in [estimate, lo, hi, slack, epoch] {
                    out.extend_from_slice(&word.to_le_bytes());
                }
            }
            Self::Stats(s) => {
                out.push(opcode::STATS_REPLY);
                out.extend_from_slice(&s.tenants.to_le_bytes());
                out.extend_from_slice(&s.connections.to_le_bytes());
                for ctr in [
                    s.items_ingested,
                    s.queries,
                    s.seals,
                    s.merges,
                    s.rejected_batches,
                    s.rejected_connections,
                    s.replications,
                ] {
                    out.extend_from_slice(&ctr.to_le_bytes());
                }
            }
            Self::ShuttingDown => out.push(opcode::SHUTTING_DOWN),
            Self::Error { code, message } => {
                out.push(opcode::ERROR);
                out.push(*code as u8);
                let msg = message.as_bytes();
                let len = msg.len().min(u16::MAX as usize);
                out.extend_from_slice(&(len as u16).to_le_bytes());
                out.extend_from_slice(&msg[..len]);
            }
        }
        out
    }

    /// Parse a payload. Strict: rejects version/opcode/length anomalies.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let (op, mut r) = decode_header(payload)?;
        let resp = match op {
            opcode::INGEST_ACK => Self::IngestAck { accepted: r.u32()? },
            opcode::VALUE => Self::Value { value: r.u64()? },
            opcode::CERTIFIED => Self::Certified {
                value: r.u64()?,
                max_possible_error: r.u64()?,
                slack: r.u64()?,
                epoch: r.u64()?,
            },
            opcode::SEALED => Self::Sealed { epoch: r.u64()? },
            opcode::MERGED => Self::Merged,
            opcode::SNAPSHOT_REPLY => Self::Snapshot { payload: r.blob()? },
            opcode::REPLICATED => Self::Replicated,
            opcode::TOP_K_REPLY => Self::TopK {
                epoch: r.u64()?,
                slack: r.u64()?,
                floor: r.u64()?,
                entries: r.records(24, |r| Ok((r.u64()?, r.u64()?, r.u64()?)))?,
            },
            opcode::SUBPOP_REPLY => Self::Subpop {
                estimate: r.u64()?,
                lo: r.u64()?,
                hi: r.u64()?,
                slack: r.u64()?,
                epoch: r.u64()?,
            },
            opcode::STATS_REPLY => Self::Stats(StatsReply {
                tenants: r.u32()?,
                connections: r.u32()?,
                items_ingested: r.u64()?,
                queries: r.u64()?,
                seals: r.u64()?,
                merges: r.u64()?,
                rejected_batches: r.u64()?,
                rejected_connections: r.u64()?,
                replications: r.u64()?,
            }),
            opcode::SHUTTING_DOWN => Self::ShuttingDown,
            opcode::ERROR => {
                let raw = r.u8()?;
                let code = ErrorCode::from_u8(raw).ok_or(ProtocolError::UnknownOpcode(raw))?;
                let len = u16::from_le_bytes(r.bytes(2)?.try_into().expect("2-byte slice"));
                let message = core::str::from_utf8(r.bytes(len as usize)?)
                    .map_err(|_| ProtocolError::BadUtf8)?
                    .to_owned();
                Self::Error { code, message }
            }
            other => return Err(ProtocolError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Write one `[len][payload]` frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN as usize);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Read one frame. `Ok(None)` means the peer closed cleanly between
/// frames; a close mid-frame, or a declared length over
/// [`MAX_FRAME_LEN`], is an error.
///
/// Timeout-friendly: on a reader with a read timeout, `WouldBlock` /
/// `TimedOut` surface only while *no* frame has started (an idle
/// connection the caller may poll again). Once the first header byte
/// has arrived the frame is committed and timeouts are retried
/// internally, so a slow-but-live peer cannot desynchronise the stream.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if filled > 0
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            ProtocolError::Oversized(len),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    let mut got = 0;
    while got < payload.len() {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a frame body",
                ))
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted
                        | io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(payload))
}

/// Convenience: frame and send a request.
pub fn send_request<W: Write>(w: &mut W, req: &Request) -> io::Result<()> {
    write_frame(w, &req.encode())
}

/// Convenience: frame and send a response.
pub fn send_response<W: Write>(w: &mut W, resp: &Response) -> io::Result<()> {
    write_frame(w, &resp.encode())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests() -> Vec<Request> {
        vec![
            Request::Ingest {
                tenant: 3,
                items: vec![(1, 2), (u64::MAX, 1), (0xdead_beef, 77)],
            },
            Request::Ingest {
                tenant: 0,
                items: vec![],
            },
            Request::Query {
                tenant: 9,
                key: u64::MAX,
            },
            Request::QueryCertified { tenant: 0, key: 0 },
            Request::Seal { tenant: u32::MAX },
            Request::Merge { dst: 1, src: 2 },
            Request::Snapshot {
                tenant: 7,
                kind: SnapshotKind::Full,
            },
            Request::Snapshot {
                tenant: 7,
                kind: SnapshotKind::Delta,
            },
            Request::Snapshot {
                tenant: 0,
                kind: SnapshotKind::Slim,
            },
            Request::PushDelta {
                tenant: 7,
                payload: vec![0x52, 0x53, 0x4B, 0x42, 1, 3],
            },
            Request::PushDelta {
                tenant: 0,
                payload: vec![],
            },
            Request::TopK { tenant: 4, k: 10 },
            Request::TopK {
                tenant: u32::MAX,
                k: 0,
            },
            Request::Subpop {
                tenant: 2,
                set: KeySet::explicit(vec![3, 1, 4, 1, 5, 9, 2, 6]),
            },
            Request::Subpop {
                tenant: 0,
                set: KeySet::explicit(vec![]),
            },
            Request::Subpop {
                tenant: 8,
                set: KeySet::range(100, 200),
            },
            Request::Subpop {
                tenant: 8,
                set: KeySet::range(7, 7),
            },
            Request::Subpop {
                tenant: 1,
                set: KeySet::mask(0x0a00_0000_0000_0000, 0xff00_0000_0000_0000),
            },
            Request::Subpop {
                tenant: 1,
                set: KeySet::mask(0, 0),
            },
            Request::Stats,
            Request::Shutdown,
        ]
    }

    fn responses() -> Vec<Response> {
        vec![
            Response::IngestAck { accepted: 2048 },
            Response::Value { value: 12 },
            Response::Certified {
                value: u64::MAX,
                max_possible_error: 25,
                slack: 45,
                epoch: 3,
            },
            Response::Sealed { epoch: 8 },
            Response::Merged,
            Response::Snapshot {
                payload: vec![0x52, 0x53, 0x4B, 0x42, 1, 2, 0, 0],
            },
            Response::Snapshot { payload: vec![] },
            Response::Replicated,
            Response::TopK {
                epoch: 3,
                slack: 45,
                floor: 1200,
                entries: vec![
                    (0xdead_beef, 9000, 25),
                    (7, 8000, 0),
                    (u64::MAX, 1201, 1201),
                ],
            },
            Response::TopK {
                epoch: 0,
                slack: 0,
                floor: u64::MAX,
                entries: vec![],
            },
            Response::Subpop {
                estimate: 4096,
                lo: 4000,
                hi: 4200,
                slack: 45,
                epoch: 3,
            },
            Response::Subpop {
                estimate: 0,
                lo: 0,
                hi: u64::MAX,
                slack: 0,
                epoch: 0,
            },
            Response::Stats(StatsReply {
                tenants: 4,
                connections: 16,
                items_ingested: 1 << 40,
                queries: 123,
                seals: 4,
                merges: 1,
                rejected_batches: 9,
                rejected_connections: 2,
                replications: 3,
            }),
            Response::ShuttingDown,
            Response::Error {
                code: ErrorCode::BatchTooLarge,
                message: "batch of 99999 exceeds 16384".into(),
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in requests() {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in responses() {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        for req in requests() {
            let full = req.encode();
            for cut in 0..full.len() {
                let err = Request::decode(&full[..cut]).unwrap_err();
                assert!(
                    matches!(err, ProtocolError::Truncated | ProtocolError::TrailingBytes),
                    "{req:?} cut at {cut}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for req in requests() {
            let mut bytes = req.encode();
            bytes.push(0);
            assert_eq!(
                Request::decode(&bytes).unwrap_err(),
                ProtocolError::TrailingBytes,
                "{req:?}"
            );
        }
    }

    #[test]
    fn version_and_opcode_anomalies() {
        assert_eq!(
            Request::decode(&[9, opcode::STATS]).unwrap_err(),
            ProtocolError::BadVersion(9)
        );
        assert_eq!(
            Request::decode(&[VERSION, 0x42]).unwrap_err(),
            ProtocolError::UnknownOpcode(0x42)
        );
        // Response opcodes are not valid requests and vice versa.
        assert!(Request::decode(&Response::Merged.encode()).is_err());
        assert!(Response::decode(&Request::Stats.encode()).is_err());
    }

    #[test]
    fn retired_slim_query_opcode_is_unknown() {
        // A frame of the retired 0x0A opcode (tenant 5, key 7) is
        // malformed, like any opcode the server does not know.
        let mut bytes = vec![VERSION, 0x0A];
        bytes.extend_from_slice(&5u32.to_le_bytes());
        bytes.extend_from_slice(&7u64.to_le_bytes());
        assert_eq!(
            Request::decode(&bytes).unwrap_err(),
            ProtocolError::UnknownOpcode(0x0A)
        );
    }

    #[test]
    fn ingest_count_lies_are_rejected() {
        // Declared count larger than the bytes present.
        let mut bytes = vec![VERSION, opcode::INGEST];
        bytes.extend_from_slice(&1u32.to_le_bytes()); // tenant
        bytes.extend_from_slice(&5u32.to_le_bytes()); // claims 5 items
        bytes.extend_from_slice(&[0u8; 16]); // carries 1
        assert_eq!(
            Request::decode(&bytes).unwrap_err(),
            ProtocolError::Truncated
        );

        // Declared count over MAX_BATCH is refused before allocation.
        let mut bytes = vec![VERSION, opcode::INGEST];
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Request::decode(&bytes).unwrap_err(),
            ProtocolError::CountTooLarge(u32::MAX)
        );
    }

    #[test]
    fn top_k_count_lies_are_rejected() {
        // Declared entry count larger than the bytes present.
        let mut bytes = vec![VERSION, opcode::TOP_K_REPLY];
        bytes.extend_from_slice(&[0u8; 24]); // epoch, slack, floor
        bytes.extend_from_slice(&5u32.to_le_bytes()); // claims 5 entries
        bytes.extend_from_slice(&[0u8; 24]); // carries 1
        assert_eq!(
            Response::decode(&bytes).unwrap_err(),
            ProtocolError::Truncated
        );

        // Declared count over MAX_BATCH is refused before allocation.
        let mut bytes = vec![VERSION, opcode::TOP_K_REPLY];
        bytes.extend_from_slice(&[0u8; 24]);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Response::decode(&bytes).unwrap_err(),
            ProtocolError::CountTooLarge(u32::MAX)
        );
    }

    #[test]
    fn subpop_count_lies_are_rejected() {
        // Declared key count larger than the bytes present.
        let mut bytes = vec![VERSION, opcode::SUBPOP];
        bytes.extend_from_slice(&1u32.to_le_bytes()); // tenant
        bytes.push(opcode::KEYSET_EXPLICIT);
        bytes.extend_from_slice(&5u32.to_le_bytes()); // claims 5 keys
        bytes.extend_from_slice(&[0u8; 8]); // carries 1
        assert_eq!(
            Request::decode(&bytes).unwrap_err(),
            ProtocolError::Truncated
        );

        // Declared count over MAX_BATCH is refused before allocation.
        let mut bytes = vec![VERSION, opcode::SUBPOP];
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(opcode::KEYSET_EXPLICIT);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Request::decode(&bytes).unwrap_err(),
            ProtocolError::CountTooLarge(u32::MAX)
        );
    }

    #[test]
    fn subpop_non_canonical_forms_are_rejected() {
        // Unsorted explicit keys: would not re-encode to the same bytes.
        let mut bytes = vec![VERSION, opcode::SUBPOP];
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(opcode::KEYSET_EXPLICIT);
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&9u64.to_le_bytes());
        bytes.extend_from_slice(&3u64.to_le_bytes());
        assert!(matches!(
            Request::decode(&bytes).unwrap_err(),
            ProtocolError::NonCanonical(_)
        ));

        // Duplicate keys are equally non-canonical (strictly increasing).
        let mut bytes = vec![VERSION, opcode::SUBPOP];
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(opcode::KEYSET_EXPLICIT);
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&3u64.to_le_bytes());
        bytes.extend_from_slice(&3u64.to_le_bytes());
        assert!(matches!(
            Request::decode(&bytes).unwrap_err(),
            ProtocolError::NonCanonical(_)
        ));

        // An inverted range selects nothing representable.
        let mut bytes = vec![VERSION, opcode::SUBPOP];
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(opcode::KEYSET_RANGE);
        bytes.extend_from_slice(&10u64.to_le_bytes());
        bytes.extend_from_slice(&3u64.to_le_bytes());
        assert!(matches!(
            Request::decode(&bytes).unwrap_err(),
            ProtocolError::NonCanonical(_)
        ));

        // Pattern bits outside the mask can never match any key.
        let mut bytes = vec![VERSION, opcode::SUBPOP];
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(opcode::KEYSET_MASK);
        bytes.extend_from_slice(&0xffu64.to_le_bytes());
        bytes.extend_from_slice(&0x0fu64.to_le_bytes());
        assert!(matches!(
            Request::decode(&bytes).unwrap_err(),
            ProtocolError::NonCanonical(_)
        ));

        // An unknown key-set tag names no predicate shape.
        let mut bytes = vec![VERSION, opcode::SUBPOP];
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(9);
        assert_eq!(
            Request::decode(&bytes).unwrap_err(),
            ProtocolError::UnknownOpcode(9)
        );
    }

    #[test]
    fn replication_field_lies_are_rejected() {
        // Declared payload length larger than the bytes present.
        let mut bytes = vec![VERSION, opcode::PUSH_DELTA];
        bytes.extend_from_slice(&1u32.to_le_bytes()); // tenant
        bytes.extend_from_slice(&5u32.to_le_bytes()); // claims 5 bytes
        bytes.push(0); // carries 1
        assert_eq!(
            Request::decode(&bytes).unwrap_err(),
            ProtocolError::Truncated
        );

        // Declared length over MAX_FRAME_LEN is refused before allocation.
        let mut bytes = vec![VERSION, opcode::PUSH_DELTA];
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Request::decode(&bytes).unwrap_err(),
            ProtocolError::CountTooLarge(u32::MAX)
        );

        // An unknown snapshot-kind byte names no payload family.
        let mut bytes = vec![VERSION, opcode::SNAPSHOT];
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(9);
        assert_eq!(
            Request::decode(&bytes).unwrap_err(),
            ProtocolError::UnknownOpcode(9)
        );
    }

    #[test]
    fn framing_round_trips_and_rejects_oversize() {
        let req = Request::Seal { tenant: 5 };
        let mut wire = Vec::new();
        send_request(&mut wire, &req).unwrap();
        let mut cursor = io::Cursor::new(wire);
        let payload = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(Request::decode(&payload).unwrap(), req);
        // Clean EOF between frames → None.
        assert!(read_frame(&mut cursor).unwrap().is_none());

        // A length prefix over MAX_FRAME_LEN is an immediate error.
        let huge = (MAX_FRAME_LEN + 1).to_le_bytes();
        let mut cursor = io::Cursor::new(huge.to_vec());
        assert!(read_frame(&mut cursor).is_err());

        // EOF inside a header is an error, not a clean close.
        let mut cursor = io::Cursor::new(vec![1u8, 0]);
        assert!(read_frame(&mut cursor).is_err());
    }
}
