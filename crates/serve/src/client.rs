//! Blocking client for the `rsk-serve` wire protocol.
//!
//! One request / one response per call, over a buffered `TcpStream`.
//! The pipelined high-throughput path lives in [`crate::load`]; this
//! type is the simple correctness-first surface the end-to-end tests
//! and the control operations (seal, merge, stats, shutdown) use.
//!
//! # Examples
//!
//! ```
//! use rsk_serve::{Client, ServeConfig, ServerHandle};
//!
//! let server = ServerHandle::start(ServeConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//!
//! client.ingest(1, &[(42, 10), (42, 5)]).unwrap();
//! let answer = client.query_certified(1, 42).unwrap();
//! assert!(answer.contains(15));
//!
//! drop(client);
//! server.shutdown();
//! ```

use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};

use rsk_api::{CertifiedWeight, KeySet};

use crate::protocol::{
    read_frame, send_request, ErrorCode, ProtocolError, Request, Response, SnapshotKind, StatsReply,
};
pub use crate::tenant::CertifiedAnswer;

/// A decoded [`Response::TopK`]: the tenant's certified heavy hitters
/// plus the metadata needed to interpret them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopKAnswer {
    /// Epoch index the answer was computed at.
    pub epoch: u64,
    /// The window's dropped value: each entry's interval and the floor
    /// widen by this much (see [`CertifiedAnswer::slack`]).
    pub slack: u64,
    /// Guaranteed ceiling on every unreported key's window count
    /// (before slack). `u64::MAX` means the window cannot certify an
    /// answer (e.g. freshly restored from a replica payload).
    pub floor: u64,
    /// `(key, count, error)` triples, heaviest first: truth ∈
    /// `[count − error − slack, count + slack]`.
    pub entries: Vec<(u64, u64, u64)>,
}

impl TopKAnswer {
    /// Does entry `i`'s certified interval (widened by `slack`) contain
    /// `truth`?
    pub fn entry_contains(&self, i: usize, truth: u64) -> bool {
        let (_, count, error) = self.entries[i];
        let lower = count.saturating_sub(error + self.slack);
        lower <= truth && truth <= count.saturating_add(self.slack)
    }
}

/// A decoded [`Response::Subpop`]: a certified subpopulation weight
/// plus the epoch it was computed at. The weight's interval contract is
/// [`CertifiedWeight`]'s: `lo ≤ truth ≤ hi + slack`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubpopAnswer {
    /// The certified aggregate: estimate, bounds, and slack.
    pub weight: CertifiedWeight,
    /// Epoch index the answer was computed at.
    pub epoch: u64,
}

impl SubpopAnswer {
    /// Does the certified interval contain `truth`?
    pub fn contains(&self, truth: u64) -> bool {
        self.weight.contains(truth)
    }
}

/// Anything a request/response exchange can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server's bytes did not decode.
    Protocol(ProtocolError),
    /// The server answered with an error frame.
    Server {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server answered with a well-formed frame of the wrong kind.
    Unexpected(Response),
    /// The connection closed before a response arrived.
    Disconnected,
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "transport error: {e}"),
            Self::Protocol(e) => write!(f, "protocol error: {e}"),
            Self::Server { code, message } => write!(f, "server error ({code:?}): {message}"),
            Self::Unexpected(resp) => write!(f, "unexpected response frame: {resp:?}"),
            Self::Disconnected => write!(f, "connection closed mid-exchange"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        Self::Protocol(e)
    }
}

/// Blocking request/response client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect to a running server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        send_request(&mut self.writer, req)?;
        io::Write::flush(&mut self.writer)?;
        let payload = read_frame(&mut self.reader)?.ok_or(ClientError::Disconnected)?;
        let resp = Response::decode(&payload)?;
        if let Response::Error { code, message } = resp {
            return Err(ClientError::Server { code, message });
        }
        Ok(resp)
    }

    /// Fold `items` into `tenant`; returns the accepted count.
    pub fn ingest(&mut self, tenant: u32, items: &[(u64, u64)]) -> Result<u32, ClientError> {
        match self.call(&Request::Ingest {
            tenant,
            items: items.to_vec(),
        })? {
            Response::IngestAck { accepted } => Ok(accepted),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Point estimate for `key` in `tenant`.
    pub fn query(&mut self, tenant: u32, key: u64) -> Result<u64, ClientError> {
        match self.call(&Request::Query { tenant, key })? {
            Response::Value { value } => Ok(value),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Certified estimate for `key` in `tenant`.
    pub fn query_certified(
        &mut self,
        tenant: u32,
        key: u64,
    ) -> Result<CertifiedAnswer, ClientError> {
        match self.call(&Request::QueryCertified { tenant, key })? {
            Response::Certified {
                value,
                max_possible_error,
                slack,
                epoch,
            } => Ok(CertifiedAnswer {
                value,
                max_possible_error,
                slack,
                epoch,
            }),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Rotate `tenant`'s epoch window; returns the new epoch index.
    pub fn seal(&mut self, tenant: u32) -> Result<u64, ClientError> {
        match self.call(&Request::Seal { tenant })? {
            Response::Sealed { epoch } => Ok(epoch),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Fold tenant `src`'s window into tenant `dst`.
    pub fn merge(&mut self, dst: u32, src: u32) -> Result<(), ClientError> {
        match self.call(&Request::Merge { dst, src })? {
            Response::Merged => Ok(()),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Capture a replication payload of `tenant`'s window.
    ///
    /// The returned bytes are self-describing: feed them to
    /// [`Client::push_delta`] on another server (full snapshots and
    /// deltas) or decode them locally with `SlimSummary::from_bytes`
    /// (slim digests).
    pub fn snapshot(&mut self, tenant: u32, kind: SnapshotKind) -> Result<Vec<u8>, ClientError> {
        match self.call(&Request::Snapshot { tenant, kind })? {
            Response::Snapshot { payload } => Ok(payload),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Apply a shipped replication payload (full snapshot or delta) to
    /// `tenant`'s window on this server.
    pub fn push_delta(&mut self, tenant: u32, payload: &[u8]) -> Result<(), ClientError> {
        match self.call(&Request::PushDelta {
            tenant,
            payload: payload.to_vec(),
        })? {
            Response::Replicated => Ok(()),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// The `k` heaviest keys of `tenant`'s visible window, each with its
    /// certified error, plus the floor every unreported key sits under.
    pub fn top_k(&mut self, tenant: u32, k: u32) -> Result<TopKAnswer, ClientError> {
        match self.call(&Request::TopK { tenant, k })? {
            Response::TopK {
                epoch,
                slack,
                floor,
                entries,
            } => Ok(TopKAnswer {
                epoch,
                slack,
                floor,
                entries,
            }),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Certified subpopulation weight of `set` in `tenant`'s visible
    /// window: the subset's true total value lies within the returned
    /// interval (`lo ≤ truth ≤ hi + slack`). Explicit sets are capped
    /// at the wire batch ceiling; range and mask predicates travel as
    /// two words regardless of how many keys they select.
    pub fn subpop(&mut self, tenant: u32, set: &KeySet) -> Result<SubpopAnswer, ClientError> {
        match self.call(&Request::Subpop {
            tenant,
            set: set.clone(),
        })? {
            Response::Subpop {
                estimate,
                lo,
                hi,
                slack,
                epoch,
            } => Ok(SubpopAnswer {
                weight: CertifiedWeight {
                    estimate,
                    lo,
                    hi,
                    slack,
                },
                epoch,
            }),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Server-wide counters.
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Ask the server to stop accepting and drain.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(ClientError::Unexpected(other)),
        }
    }
}
