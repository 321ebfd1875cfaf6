//! # rsk-serve — the multi-tenant ReliableSketch service
//!
//! A network front end for the workspace's sketches: a thread-per-core
//! TCP server speaking a length-prefixed binary protocol, holding one
//! [`EpochedConcurrent`](rsk_core::EpochedConcurrent) window per tenant
//! behind a striped tenant map. Certified queries travel the
//! [`ConcurrentErrorSensing`](rsk_api::ConcurrentErrorSensing) path, so
//! every answer carries its maximum possible error plus the value the
//! window's insertion failures dropped — the server's accuracy contract
//! is the sketch's, end to end.
//!
//! The crate has no async runtime and no external dependencies beyond
//! the workspace: `std::net` blocking sockets, plain threads, and the
//! lock-free sketches doing the actual concurrency work.
//!
//! | Layer | Module | Job |
//! |---|---|---|
//! | wire | [`protocol`] | frames, opcodes, strict decode |
//! | state | [`tenant`] | striped tenant map, epoch windows |
//! | server | [`server`] | accept loops, dispatch, backpressure |
//! | client | [`client`] | blocking request/response surface |
//! | load | [`load`] | pipelined generator + certified validation |
//!
//! The wire format is specified in `docs/PROTOCOL.md`.
//!
//! # Examples
//!
//! ```
//! use rsk_serve::{Client, ServeConfig, ServerHandle};
//!
//! // An ephemeral server on loopback.
//! let server = ServerHandle::start(ServeConfig::default()).unwrap();
//!
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.ingest(7, &[(0xfeed, 100), (0xbeef, 1)]).unwrap();
//!
//! let answer = client.query_certified(7, 0xfeed).unwrap();
//! assert!(answer.contains(100));
//!
//! // Epoch rotation: the active generation freezes, queries span both.
//! client.seal(7).unwrap();
//! client.ingest(7, &[(0xfeed, 10)]).unwrap();
//! assert!(client.query_certified(7, 0xfeed).unwrap().contains(110));
//!
//! drop(client);
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod load;
pub mod protocol;
pub mod server;
pub mod tenant;

pub use client::{Client, ClientError, SubpopAnswer, TopKAnswer};
pub use load::{run as run_load, LoadConfig, LoadReport};
pub use protocol::{ErrorCode, ProtocolError, Request, Response, SnapshotKind, StatsReply};
pub use server::{ServeConfig, ServerHandle, ServerStats};
pub use tenant::{CertifiedAnswer, SketchSpec, Tenant, TenantMap, DEFAULT_TOPK_CAPACITY};
