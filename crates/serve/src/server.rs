//! The thread-per-core TCP server.
//!
//! No async runtime: a fixed pool of accept threads (one per core by
//! default) blocks on a shared `std::net::TcpListener`, and each
//! accepted connection gets a plain blocking handler thread. The data
//! plane scales because the per-tenant sketches absorb concurrent
//! ingest lock-free — threads are an OS-level concern here, not a
//! throughput mechanism, so the simplest possible threading model wins.
//!
//! Backpressure is layered:
//!
//! - **connection ceiling** — accepts beyond `max_connections` are
//!   answered with a [`Response::Error`] carrying
//!   [`ErrorCode::TooManyConnections`] and closed immediately;
//! - **batch ceiling** — `Ingest` frames carrying more than `max_batch`
//!   items are refused with [`ErrorCode::BatchTooLarge`] (the frame is
//!   consumed; the connection lives on);
//! - **TCP flow control** — each connection's acks are written to the
//!   same socket the requests arrive on, so a client that stops reading
//!   acks eventually stops being able to write. `rsk-load`'s bounded
//!   credit window (see [`crate::load`]) is the cooperating client half.
//!
//! Shutdown: a `Shutdown` frame (or [`ServerHandle::shutdown`]) flips a
//! flag, wakes every accept thread with a loopback dial, and joins all
//! threads. Connection handlers poll the flag via a read timeout, so
//! idle connections notice within [`POLL_INTERVAL`].

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use crate::protocol::{
    read_frame, send_response, ErrorCode, ProtocolError, Request, Response, SnapshotKind,
    StatsReply, MAX_BATCH, MAX_FRAME_LEN,
};
use crate::tenant::{SketchSpec, TenantMap};

/// How often a blocked connection handler re-checks the stop flag.
pub const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Server configuration; `Default` is a loopback ephemeral-port setup
/// sized for tests.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `"127.0.0.1:0"` for an ephemeral port.
    pub addr: String,
    /// Accept threads sharing the listener. `0` means one per
    /// available core.
    pub accept_threads: usize,
    /// Live-connection ceiling; accepts beyond it are refused.
    pub max_connections: usize,
    /// Per-frame ingest batch ceiling (≤ [`MAX_BATCH`]).
    pub max_batch: usize,
    /// Tenant-map lock stripes.
    pub stripes: usize,
    /// Sketch parameters for every tenant window.
    pub spec: SketchSpec,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            accept_threads: 0,
            max_connections: 256,
            max_batch: MAX_BATCH,
            stripes: 16,
            spec: SketchSpec::default(),
        }
    }
}

/// Monotonic server-wide counters (all relaxed: they are observability,
/// not synchronisation).
#[derive(Default)]
pub struct ServerStats {
    items_ingested: AtomicU64,
    queries: AtomicU64,
    seals: AtomicU64,
    merges: AtomicU64,
    rejected_batches: AtomicU64,
    rejected_connections: AtomicU64,
    malformed_frames: AtomicU64,
    replications: AtomicU64,
}

impl ServerStats {
    /// Items folded in across all tenants.
    pub fn items_ingested(&self) -> u64 {
        self.items_ingested.load(Ordering::Relaxed)
    }

    /// `Query` + `QueryCertified` frames answered.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Ingest batches refused for exceeding the batch ceiling.
    pub fn rejected_batches(&self) -> u64 {
        self.rejected_batches.load(Ordering::Relaxed)
    }

    /// Connections refused: at the connection ceiling, or because no
    /// handler thread could be spawned for them.
    pub fn rejected_connections(&self) -> u64 {
        self.rejected_connections.load(Ordering::Relaxed)
    }

    /// Malformed payloads answered with an error frame.
    pub fn malformed_frames(&self) -> u64 {
        self.malformed_frames.load(Ordering::Relaxed)
    }

    /// Replication frames served: snapshots captured plus payloads
    /// applied (`Snapshot` + `PushDelta`, successes only).
    pub fn replications(&self) -> u64 {
        self.replications.load(Ordering::Relaxed)
    }
}

struct Shared {
    tenants: TenantMap,
    stats: ServerStats,
    stop: AtomicBool,
    live_connections: AtomicUsize,
    max_connections: usize,
    max_batch: usize,
    /// Handles of connection threads not yet seen finished; each accept
    /// reaps the finished ones, so this tracks the live connections
    /// rather than every connection ever served.
    conn_handles: Mutex<Vec<JoinHandle<()>>>,
}

/// A running server: its bound address, its threads, and its state.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handles: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// Bind `config.addr` and start accepting.
    pub fn start(config: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr as &str)?;
        let addr = listener.local_addr()?;
        let threads = if config.accept_threads == 0 {
            std::thread::available_parallelism().map_or(2, |n| n.get())
        } else {
            config.accept_threads
        };
        let shared = Arc::new(Shared {
            tenants: TenantMap::new(config.stripes, config.spec),
            stats: ServerStats::default(),
            stop: AtomicBool::new(false),
            live_connections: AtomicUsize::new(0),
            max_connections: config.max_connections.max(1),
            max_batch: config.max_batch.clamp(1, MAX_BATCH),
            conn_handles: Mutex::new(Vec::new()),
        });
        let listener = Arc::new(listener);
        let mut server = Self {
            addr,
            shared,
            accept_handles: Vec::new(),
        };
        for i in 0..threads.max(1) {
            let listener = Arc::clone(&listener);
            let shared = Arc::clone(&server.shared);
            let spawned = std::thread::Builder::new()
                .name(format!("rsk-serve-accept-{i}"))
                .spawn(move || accept_loop(&listener, &shared, addr));
            match spawned {
                Ok(handle) => server.accept_handles.push(handle),
                Err(e) => {
                    // stop the accept threads already running, so a
                    // failed start leaves no thread or bound port behind
                    server.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(server)
    }

    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live server-wide counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Tenants materialised so far.
    pub fn tenant_count(&self) -> usize {
        self.shared.tenants.len()
    }

    /// The sketch spec every tenant window is built from.
    pub fn spec(&self) -> &SketchSpec {
        self.shared.tenants.spec()
    }

    /// Stop accepting, wake blocked threads, and join everything.
    /// Idempotent; also invoked by a wire-level `Shutdown` frame.
    pub fn shutdown(mut self) {
        request_stop(&self.shared, self.addr);
        for h in self.accept_handles.drain(..) {
            let _ = h.join();
        }
        let handles: Vec<_> = self.shared.conn_handles.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// Block until every accept thread exits (i.e. until a wire-level
    /// `Shutdown` arrives). Used by the `rsk-serve` binary.
    pub fn join(mut self) {
        for h in self.accept_handles.drain(..) {
            let _ = h.join();
        }
        let handles: Vec<_> = self.shared.conn_handles.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

fn request_stop(shared: &Shared, addr: SocketAddr) {
    if shared.stop.swap(true, Ordering::SeqCst) {
        return;
    }
    // Wake every accept thread: each dial unblocks one accept() call.
    for _ in 0..64 {
        if TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err() {
            break;
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, addr: SocketAddr) {
    while !shared.stop.load(Ordering::SeqCst) {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => continue,
        };
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        if shared.live_connections.load(Ordering::SeqCst) >= shared.max_connections {
            shared
                .stats
                .rejected_connections
                .fetch_add(1, Ordering::Relaxed);
            let mut w = BufWriter::new(&stream);
            let _ = send_response(
                &mut w,
                &Response::Error {
                    code: ErrorCode::TooManyConnections,
                    message: format!(
                        "server is at its {} connection ceiling",
                        shared.max_connections
                    ),
                },
            );
            let _ = w.flush();
            continue;
        }
        shared.live_connections.fetch_add(1, Ordering::SeqCst);
        let shared2 = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("rsk-serve-conn".into())
            .spawn(move || {
                let _ = handle_connection(stream, &shared2, addr);
                shared2.live_connections.fetch_sub(1, Ordering::SeqCst);
            });
        match spawned {
            Ok(handle) => {
                let mut handles = shared.conn_handles.lock();
                for done in handles.extract_if(.., |h| h.is_finished()) {
                    let _ = done.join();
                }
                handles.push(handle);
            }
            Err(_) => {
                // the unspawned closure dropped the stream, closing the
                // connection: give its slot back and keep accepting
                shared.live_connections.fetch_sub(1, Ordering::SeqCst);
                shared
                    .stats
                    .rejected_connections
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared, addr: SocketAddr) -> io::Result<()> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) => return Ok(()),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => return Err(e),
        };
        let response = match Request::decode(&payload) {
            Ok(request) => {
                let is_shutdown = matches!(request, Request::Shutdown);
                let resp = dispatch(request, shared);
                if is_shutdown {
                    send_response(&mut writer, &resp)?;
                    writer.flush()?;
                    request_stop(shared, addr);
                    return Ok(());
                }
                resp
            }
            Err(e) => {
                shared
                    .stats
                    .malformed_frames
                    .fetch_add(1, Ordering::Relaxed);
                Response::Error {
                    code: ErrorCode::Malformed,
                    message: malformed_message(&e),
                }
            }
        };
        send_response(&mut writer, &response)?;
        writer.flush()?;
    }
}

fn malformed_message(e: &ProtocolError) -> String {
    format!("malformed payload: {e}")
}

fn dispatch(request: Request, shared: &Shared) -> Response {
    match request {
        Request::Ingest { tenant, items } => {
            if items.len() > shared.max_batch {
                shared
                    .stats
                    .rejected_batches
                    .fetch_add(1, Ordering::Relaxed);
                return Response::Error {
                    code: ErrorCode::BatchTooLarge,
                    message: format!(
                        "batch of {} exceeds the {}-item ceiling",
                        items.len(),
                        shared.max_batch
                    ),
                };
            }
            shared.tenants.get_or_create(tenant).ingest(&items);
            shared
                .stats
                .items_ingested
                .fetch_add(items.len() as u64, Ordering::Relaxed);
            Response::IngestAck {
                accepted: items.len() as u32,
            }
        }
        Request::Query { tenant, key } => {
            shared.stats.queries.fetch_add(1, Ordering::Relaxed);
            Response::Value {
                value: shared.tenants.get_or_empty(tenant).query(key),
            }
        }
        Request::QueryCertified { tenant, key } => {
            shared.stats.queries.fetch_add(1, Ordering::Relaxed);
            let ans = shared.tenants.get_or_empty(tenant).certified(key);
            Response::Certified {
                value: ans.value,
                max_possible_error: ans.max_possible_error,
                slack: ans.slack,
                epoch: ans.epoch,
            }
        }
        Request::Seal { tenant } => {
            shared.stats.seals.fetch_add(1, Ordering::Relaxed);
            Response::Sealed {
                epoch: shared.tenants.get_or_create(tenant).seal(),
            }
        }
        Request::Merge { dst, src } => match shared.tenants.merge(dst, src) {
            Ok(()) => {
                shared.stats.merges.fetch_add(1, Ordering::Relaxed);
                Response::Merged
            }
            Err(e) => Response::Error {
                code: ErrorCode::MergeRefused,
                message: e.to_string(),
            },
        },
        Request::Snapshot { tenant, kind } => {
            // a delta cut moves the tenant's replication baseline, so it
            // is a write; full and slim captures only read
            let source = match kind {
                SnapshotKind::Delta => shared.tenants.get_or_create(tenant),
                SnapshotKind::Full | SnapshotKind::Slim => shared.tenants.get_or_empty(tenant),
            };
            match source.replicate_payload(kind) {
                Ok(payload) => {
                    // +2 for the version and opcode bytes, +4 for the
                    // blob length field.
                    if payload.len() + 6 > MAX_FRAME_LEN as usize {
                        Response::Error {
                            code: ErrorCode::ReplicateRefused,
                            message: format!(
                                "snapshot of {} bytes exceeds the {MAX_FRAME_LEN}-byte frame ceiling",
                                payload.len()
                            ),
                        }
                    } else {
                        shared.stats.replications.fetch_add(1, Ordering::Relaxed);
                        Response::Snapshot { payload }
                    }
                }
                Err(e) => Response::Error {
                    code: ErrorCode::ReplicateRefused,
                    message: e.to_string(),
                },
            }
        }
        Request::PushDelta { tenant, payload } => {
            match shared.tenants.get_or_create(tenant).apply_replica(&payload) {
                Ok(()) => {
                    shared.stats.replications.fetch_add(1, Ordering::Relaxed);
                    Response::Replicated
                }
                Err(e) => Response::Error {
                    code: ErrorCode::ReplicateRefused,
                    message: e.to_string(),
                },
            }
        }
        Request::TopK { tenant, k } => {
            shared.stats.queries.fetch_add(1, Ordering::Relaxed);
            let (top, slack, epoch) = shared.tenants.get_or_empty(tenant).top_k(k as usize);
            Response::TopK {
                epoch,
                slack,
                floor: top.guaranteed_floor(),
                entries: top
                    .entries
                    .iter()
                    .map(|e| (e.key, e.count, e.error))
                    .collect(),
            }
        }
        Request::Subpop { tenant, set } => {
            shared.stats.queries.fetch_add(1, Ordering::Relaxed);
            let (w, epoch) = shared.tenants.get_or_empty(tenant).subpop(&set);
            Response::Subpop {
                estimate: w.estimate,
                lo: w.lo,
                hi: w.hi,
                slack: w.slack,
                epoch,
            }
        }
        Request::Stats => Response::Stats(StatsReply {
            tenants: shared.tenants.len() as u32,
            connections: shared.live_connections.load(Ordering::SeqCst) as u32,
            items_ingested: shared.stats.items_ingested(),
            queries: shared.stats.queries(),
            seals: shared.stats.seals.load(Ordering::Relaxed),
            merges: shared.stats.merges.load(Ordering::Relaxed),
            rejected_batches: shared.stats.rejected_batches(),
            rejected_connections: shared.stats.rejected_connections(),
            replications: shared.stats.replications(),
        }),
        Request::Shutdown => Response::ShuttingDown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use rsk_core::SlimSummary;

    fn tiny() -> ServeConfig {
        ServeConfig {
            accept_threads: 2,
            stripes: 4,
            spec: SketchSpec {
                memory_bytes: 64 * 1024,
                error_tolerance: 25,
                seed: 7,
            },
            ..ServeConfig::default()
        }
    }

    #[test]
    fn serve_ingest_query_seal_merge_stats() {
        let server = ServerHandle::start(tiny()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();

        assert_eq!(client.ingest(1, &[(42, 10), (42, 5), (7, 3)]).unwrap(), 3);
        let ans = client.query_certified(1, 42).unwrap();
        assert!(ans.contains(15), "{ans:?}");
        assert_eq!(client.query(1, 99).unwrap(), 0);

        let sealed = client.seal(1).unwrap();
        assert_eq!(sealed, 1);
        client.ingest(1, &[(42, 1)]).unwrap();
        assert!(client.query_certified(1, 42).unwrap().contains(16));

        client.ingest(2, &[(42, 100)]).unwrap();
        client.merge(2, 1).unwrap();
        assert!(client.query_certified(2, 42).unwrap().contains(116));
        // Tenant 1 unchanged by the merge.
        assert!(client.query_certified(1, 42).unwrap().contains(16));

        let stats = client.stats().unwrap();
        assert_eq!(stats.items_ingested, 5);
        assert_eq!(stats.seals, 1);
        assert_eq!(stats.merges, 1);
        assert!(stats.tenants >= 2);

        drop(client);
        server.shutdown();
    }

    #[test]
    fn serve_subpop_answers_certified_aggregates() {
        use rsk_api::KeySet;

        let server = ServerHandle::start(tiny()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();

        client
            .ingest(1, &[(10, 100), (11, 200), (12, 300), (500, 9)])
            .unwrap();
        client.seal(1).unwrap();
        client.ingest(1, &[(10, 50)]).unwrap();

        // Explicit, range, and mask predicates all certify the truth.
        let ans = client
            .subpop(1, &KeySet::explicit(vec![10, 11, 12]))
            .unwrap();
        assert!(ans.contains(650), "{ans:?}");
        assert_eq!(ans.epoch, 1);
        let ans = client.subpop(1, &KeySet::range(10, 12)).unwrap();
        assert!(ans.contains(650), "{ans:?}");
        // mask = !0b111 constrains all but the low 3 bits: {8..=15} ∩ keys.
        let ans = client.subpop(1, &KeySet::mask(8, !0b111u64)).unwrap();
        assert!(ans.contains(650), "{ans:?}");

        // The empty subset is exactly zero; the full universe covers the
        // total stream weight.
        let ans = client.subpop(1, &KeySet::explicit(vec![])).unwrap();
        assert_eq!(ans.weight.estimate, 0);
        assert_eq!(ans.weight.hi, 0);
        let ans = client.subpop(1, &KeySet::mask(0, 0)).unwrap();
        assert!(ans.contains(659), "{ans:?}");

        drop(client);
        server.shutdown();
    }

    #[test]
    fn oversized_batch_is_refused_but_connection_survives() {
        let mut config = tiny();
        config.max_batch = 4;
        let server = ServerHandle::start(config).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();

        let big: Vec<(u64, u64)> = (0..8).map(|i| (i, 1)).collect();
        let err = client.ingest(3, &big).unwrap_err();
        assert!(matches!(
            err,
            crate::client::ClientError::Server {
                code: ErrorCode::BatchTooLarge,
                ..
            }
        ));
        // Same connection keeps working.
        assert_eq!(client.ingest(3, &[(1, 1)]).unwrap(), 1);
        assert_eq!(server.stats().rejected_batches(), 1);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn replication_ships_a_tenant_across_servers() {
        let primary = ServerHandle::start(tiny()).unwrap();
        let replica = ServerHandle::start(tiny()).unwrap();
        let mut src = Client::connect(primary.local_addr()).unwrap();
        let mut dst = Client::connect(replica.local_addr()).unwrap();

        // Full snapshot ships the whole window.
        src.ingest(1, &[(42, 10), (7, 3)]).unwrap();
        let full = src.snapshot(1, SnapshotKind::Full).unwrap();
        dst.push_delta(1, &full).unwrap();
        assert!(dst.query_certified(1, 42).unwrap().contains(10));

        // A delta cut establishes the baseline; subsequent cuts ship
        // only dirtied buckets, which the replica folds on top.
        let baseline = src.snapshot(1, SnapshotKind::Delta).unwrap();
        dst.push_delta(1, &baseline).unwrap();
        src.ingest(1, &[(42, 5)]).unwrap();
        let delta = src.snapshot(1, SnapshotKind::Delta).unwrap();
        assert!(delta.len() < baseline.len(), "delta should undercut full");
        dst.push_delta(1, &delta).unwrap();
        assert!(dst.query_certified(1, 42).unwrap().contains(15));

        // Slim payloads answer standalone: the replica's digest, decoded
        // locally, certifies the same truth.
        let slim = src.snapshot(1, SnapshotKind::Slim).unwrap();
        assert!(slim.len() < full.len());
        let replica_slim = dst.snapshot(1, SnapshotKind::Slim).unwrap();
        let digest = SlimSummary::from_bytes(&replica_slim).unwrap();
        assert!(digest.query_with_error(&42u64).contains(15));

        // Garbage is refused without poisoning the connection.
        let err = dst.push_delta(1, b"not a payload").unwrap_err();
        assert!(matches!(
            err,
            crate::client::ClientError::Server {
                code: ErrorCode::ReplicateRefused,
                ..
            }
        ));
        assert!(dst.query_certified(1, 42).unwrap().contains(15));

        // Both sides counted their replication frames.
        assert!(src.stats().unwrap().replications >= 3);
        assert!(dst.stats().unwrap().replications >= 3);

        drop((src, dst));
        primary.shutdown();
        replica.shutdown();
    }

    #[test]
    fn finished_connection_threads_are_reaped() {
        let server = ServerHandle::start(tiny()).unwrap();
        let shared = Arc::clone(&server.shared);
        for i in 0..200u64 {
            let mut client = Client::connect(server.local_addr()).unwrap();
            assert_eq!(client.ingest(1, &[(i, 1)]).unwrap(), 1);
            drop(client);
            // the handler sees the hang-up before the next accept
            while shared.live_connections.load(Ordering::SeqCst) > 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let retained = shared.conn_handles.lock().len();
        let live = shared.live_connections.load(Ordering::SeqCst);
        assert!(
            retained <= live + 8,
            "{retained} connection handles kept for {live} live connections"
        );
        server.shutdown();
    }

    #[test]
    fn wire_shutdown_stops_the_server() {
        let server = ServerHandle::start(tiny()).unwrap();
        let addr = server.local_addr();
        let mut client = Client::connect(addr).unwrap();
        client.shutdown().unwrap();
        drop(client);
        server.join();
        // The listener is gone (give the OS a beat to reap it).
        std::thread::sleep(Duration::from_millis(50));
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }
}
