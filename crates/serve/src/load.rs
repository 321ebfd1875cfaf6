//! The load generator behind the `rsk-load` binary and the `fig_serve`
//! repro target.
//!
//! Drives a running server with `tenants × connections` concurrent
//! pipelined ingest streams (Zipf-skewed keys, deterministic per-worker
//! seeds), then probes each tenant's hottest keys with certified
//! queries and checks every answer against the exact ground truth the
//! generator tracked while ingesting. A top-K probe phase then fetches
//! each tenant's certified heavy hitters and holds them to both halves
//! of the top-K contract: every reported entry's interval must contain
//! the exact truth, and every true heavy key above the advertised
//! `floor + slack` must appear in the reply. A subpopulation probe
//! phase follows: per tenant, one certified aggregate query for each
//! predicate shape (explicit hot set, range, mask, empty), each checked
//! against the exact subset weight summed from the tracked truth.
//!
//! ## Backpressure: the client half
//!
//! Each connection pipelines `Ingest` frames under a bounded **credit
//! window**: at most `window` batches may be in flight unacknowledged.
//! A dedicated ack-reader thread retires credits as `IngestAck` frames
//! arrive; when the writer finds the window exhausted it records one
//! **stall event** and yields until credit frees up. Stall counts are
//! the honest client-side backpressure signal reported by
//! [`LoadReport::stalls`] — TCP flow control and the server's batch
//! ceiling are the other two layers (see [`crate::server`]).
//!
//! ## Replication probes
//!
//! With [`LoadConfig::replicate`] set, a final phase ships every tenant
//! to a second server — one full snapshot, then two delta cuts
//! straddling a `Seal` — and probes the **replica** against the same
//! tracked truth twice: with certified queries, and through the
//! replica's slim payload (`Snapshot{Slim}`), fetched once per tenant
//! and decoded locally the way a collector would. The byte counts of
//! the full versus delta ships land in the report, so the delta path's
//! advantage is measured, not assumed.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rsk_api::{KeySet, StreamSummary};
use rsk_core::SlimSummary;
use rsk_stream::zipf::ZipfSampler;
use rsk_stream::GroundTruth;

use crate::client::{CertifiedAnswer, Client, ClientError};
use crate::protocol::{read_frame, send_request, Request, Response, SnapshotKind};

/// Load shape. `Default` is the full run; [`LoadConfig::quick`] is the
/// CI-sized configuration (still ≥ 10⁶ updates end-to-end).
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address, e.g. `"127.0.0.1:4901"`.
    pub addr: String,
    /// Distinct tenants to drive.
    pub tenants: u32,
    /// Concurrent connections per tenant.
    pub connections: u32,
    /// Updates each connection sends.
    pub items_per_connection: usize,
    /// Items per `Ingest` frame.
    pub batch: usize,
    /// Credit window: max unacknowledged batches in flight.
    pub window: usize,
    /// Zipf skew of the simulated flow keys.
    pub skew: f64,
    /// Key universe per tenant.
    pub universe: u64,
    /// Master seed; per-worker seeds derive from it.
    pub seed: u64,
    /// Certified probes per tenant (hottest keys first).
    pub probes: usize,
    /// Second server to replicate every tenant to (full snapshot, then
    /// delta ships across a seal), probing the replica for certified
    /// answers. `None` skips the replication phase.
    pub replicate: Option<String>,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:4901".into(),
            tenants: 8,
            connections: 8,
            items_per_connection: 262_144,
            batch: 2048,
            window: 8,
            skew: 1.1,
            universe: 100_000,
            seed: 42,
            probes: 128,
            replicate: None,
        }
    }
}

impl LoadConfig {
    /// CI-sized run: 4 tenants × 4 connections × 65 536 updates
    /// = 1 048 576 end-to-end updates.
    pub fn quick(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            tenants: 4,
            connections: 4,
            items_per_connection: 65_536,
            batch: 2048,
            window: 8,
            universe: 20_000,
            probes: 64,
            ..Self::default()
        }
    }

    /// Total updates this configuration pushes.
    pub fn total_updates(&self) -> u64 {
        u64::from(self.tenants) * u64::from(self.connections) * self.items_per_connection as u64
    }
}

/// What a load run measured. Count fields are deterministic for a fixed
/// [`LoadConfig`]; timing fields are wall-clock and volatile.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Updates acknowledged end-to-end.
    pub total_updates: u64,
    /// `Ingest` frames sent.
    pub batches: u64,
    /// Credit-window stall events across all connections.
    pub stalls: u64,
    /// Certified probes issued.
    pub probes: u64,
    /// Probes whose certified interval (widened by the advertised
    /// slack) contained the exact ground truth.
    pub probes_contained: u64,
    /// Tenants driven.
    pub tenants: u32,
    /// Connections per tenant.
    pub connections: u32,
    /// Ingest wall-clock.
    pub elapsed: Duration,
    /// Millions of updates per second over the ingest phase.
    pub mupdates_per_sec: f64,
    /// Median certified-query round-trip, microseconds.
    pub p50_us: u64,
    /// 99th-percentile certified-query round-trip, microseconds.
    pub p99_us: u64,
    /// Server-side items counter after the run (should equal
    /// `total_updates` plus whatever earlier runs folded in).
    pub server_items: u64,
    /// Server-side refused batches (batch-ceiling backpressure).
    pub server_rejected_batches: u64,
    /// Top-K entries returned across all tenants and verified against
    /// exact ground truth.
    pub topk_probes: u64,
    /// Top-K entries whose certified interval (widened by the advertised
    /// slack) contained the exact truth.
    pub topk_contained: u64,
    /// True heavy keys whose exact count cleared the advertised
    /// `floor + slack` yet were missing from the top-K reply — the
    /// certified-recall contract says this is always 0.
    pub topk_recall_misses: u64,
    /// Subpopulation-weight probes issued (explicit / range / mask /
    /// empty predicate shapes per tenant).
    pub subpop_probes: u64,
    /// Subpopulation probes whose certified interval contained the
    /// exact subset truth.
    pub subpop_contained: u64,
    /// Certified + slim probes issued against the replica (0 when no
    /// replica was configured).
    pub replica_probes: u64,
    /// Replica probes whose certified interval contained the truth.
    pub replica_contained: u64,
    /// Bytes shipped in the initial full snapshots, summed over tenants.
    pub replicate_full_bytes: u64,
    /// Bytes shipped in the delta cuts, summed over tenants.
    pub replicate_delta_bytes: u64,
}

/// Ingest result of one pipelined connection.
struct ConnResult {
    truth: GroundTruth<u64>,
    batches: u64,
    stalls: u64,
    sent: u64,
}

/// Drive one pipelined connection: writer on this thread, ack reader on
/// a helper thread, bounded by the credit window.
fn drive_connection(
    cfg: &LoadConfig,
    tenant: u32,
    conn_index: u32,
) -> Result<ConnResult, ClientError> {
    let stream = TcpStream::connect(&cfg.addr as &str)?;
    stream.set_nodelay(true).ok();
    let mut writer = BufWriter::new(stream.try_clone()?);

    let n_batches = cfg.items_per_connection.div_ceil(cfg.batch.max(1));
    let outstanding = Arc::new(AtomicUsize::new(0));
    let acked_items = Arc::new(AtomicU64::new(0));

    let reader_outstanding = Arc::clone(&outstanding);
    let reader_acked = Arc::clone(&acked_items);
    let reader_stream = stream.try_clone()?;
    let reader = std::thread::Builder::new()
        .name(format!("rsk-load-ack-{tenant}-{conn_index}"))
        .spawn(move || -> Result<(), ClientError> {
            let mut r = BufReader::new(reader_stream);
            let mut remaining = n_batches;
            while remaining > 0 {
                let payload = read_frame(&mut r)?.ok_or(ClientError::Disconnected)?;
                match Response::decode(&payload)? {
                    Response::IngestAck { accepted } => {
                        reader_acked.fetch_add(u64::from(accepted), Ordering::Relaxed);
                        reader_outstanding.fetch_sub(1, Ordering::Release);
                        remaining -= 1;
                    }
                    Response::Error { code, message } => {
                        return Err(ClientError::Server { code, message })
                    }
                    other => return Err(ClientError::Unexpected(other)),
                }
            }
            Ok(())
        })
        .expect("spawn ack reader");

    // Deterministic per-worker key stream.
    let worker_seed = cfg
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(tenant) << 32 | u64::from(conn_index));
    let mut sampler = ZipfSampler::new(cfg.universe.max(1), cfg.skew, worker_seed);

    let mut truth: GroundTruth<u64> = GroundTruth::new();
    let mut stalls = 0u64;
    let mut sent = 0u64;
    let mut batch = Vec::with_capacity(cfg.batch);
    for _ in 0..n_batches {
        batch.clear();
        while batch.len() < cfg.batch
            && sent + (batch.len() as u64) < cfg.items_per_connection as u64
        {
            let key = sampler.sample();
            batch.push((key, 1u64));
            truth.insert(&key, 1);
        }
        sent += batch.len() as u64;

        // Credit window: one stall event per exhausted-window episode.
        if outstanding.load(Ordering::Acquire) >= cfg.window.max(1) {
            stalls += 1;
            while outstanding.load(Ordering::Acquire) >= cfg.window.max(1) {
                std::thread::yield_now();
            }
        }
        outstanding.fetch_add(1, Ordering::AcqRel);
        send_request(
            &mut writer,
            &Request::Ingest {
                tenant,
                items: batch.clone(),
            },
        )?;
        writer.flush()?;
    }

    // Drain: wait for the ack reader to retire every credit, then close
    // our write half so the server sees a clean EOF.
    reader.join().expect("ack reader panicked")?;
    debug_assert_eq!(outstanding.load(Ordering::Acquire), 0);
    stream.shutdown(Shutdown::Both).ok();
    Ok(ConnResult {
        truth,
        batches: n_batches as u64,
        stalls,
        sent,
    })
}

/// Run the full load: parallel pipelined ingest, then certified probes
/// validated against exact ground truth.
pub fn run(cfg: &LoadConfig) -> Result<LoadReport, ClientError> {
    let started = Instant::now();
    let mut workers = Vec::new();
    for tenant in 0..cfg.tenants {
        for conn in 0..cfg.connections {
            let cfg = cfg.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("rsk-load-{tenant}-{conn}"))
                    .spawn(move || drive_connection(&cfg, tenant, conn))
                    .expect("spawn load worker"),
            );
        }
    }
    let mut tenant_truth: HashMap<u32, GroundTruth<u64>> = HashMap::new();
    let mut batches = 0u64;
    let mut stalls = 0u64;
    let mut total = 0u64;
    for (i, w) in workers.into_iter().enumerate() {
        let result = w.join().expect("load worker panicked")?;
        let tenant = (i as u32) / cfg.connections;
        let truth = tenant_truth.entry(tenant).or_default();
        for (k, v) in result.truth.iter() {
            truth.insert(k, v);
        }
        batches += result.batches;
        stalls += result.stalls;
        total += result.sent;
    }
    let elapsed = started.elapsed();

    // Probe phase: certified queries over each tenant's hottest keys,
    // checked against the exact truth (deterministic per config).
    let mut latencies: Vec<u64> = Vec::new();
    let mut probes = 0u64;
    let mut contained = 0u64;
    for tenant in 0..cfg.tenants {
        // `to_pairs` enumerates in deterministic first-occurrence order,
        // so a stable sort by count needs no defensive key tiebreak.
        let mut hottest = tenant_truth[&tenant].to_pairs();
        hottest.sort_by_key(|&(_, v)| core::cmp::Reverse(v));
        let mut client = Client::connect(&cfg.addr as &str)?;
        for (key, count) in hottest.into_iter().take(cfg.probes) {
            let probe_started = Instant::now();
            let answer = client.query_certified(tenant, key)?;
            latencies.push(
                probe_started
                    .elapsed()
                    .as_micros()
                    .min(u128::from(u64::MAX)) as u64,
            );
            probes += 1;
            if answer.contains(count) {
                contained += 1;
            }
        }
    }
    latencies.sort_unstable();
    let percentile = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx.min(latencies.len() - 1)]
    };

    // Top-K probe phase: fetch each tenant's certified heavy hitters
    // and hold them to both halves of the contract — containment of the
    // exact truth per entry, and recall of every true heavy key above
    // the advertised floor.
    let mut topk_probes = 0u64;
    let mut topk_contained = 0u64;
    let mut topk_recall_misses = 0u64;
    {
        let k = cfg.probes.clamp(1, crate::tenant::DEFAULT_TOPK_CAPACITY);
        let mut client = Client::connect(&cfg.addr as &str)?;
        for tenant in 0..cfg.tenants {
            let truth = &tenant_truth[&tenant];
            let answer = client.top_k(tenant, k as u32)?;
            for (i, &(key, _, _)) in answer.entries.iter().enumerate() {
                topk_probes += 1;
                if answer.entry_contains(i, truth.freq(&key)) {
                    topk_contained += 1;
                }
            }
            let cutoff = answer.floor.saturating_add(answer.slack);
            let reported: Vec<u64> = answer.entries.iter().map(|e| e.0).collect();
            for (key, count) in truth.iter() {
                if count > cutoff && !reported.contains(key) {
                    topk_recall_misses += 1;
                }
            }
        }
    }

    // Subpopulation probe phase: per tenant, one aggregate query for
    // each predicate shape — an explicit set of the hottest keys, a
    // range over the low half of the universe, a mask (subnet-style)
    // predicate, and the empty set — each checked against the exact
    // subset weight the generator tracked.
    let mut subpop_probes = 0u64;
    let mut subpop_contained = 0u64;
    {
        let mut client = Client::connect(&cfg.addr as &str)?;
        for tenant in 0..cfg.tenants {
            let truth = &tenant_truth[&tenant];
            let mut hottest = truth.to_pairs();
            hottest.sort_by_key(|&(_, v)| core::cmp::Reverse(v));
            let hot: Vec<u64> = hottest
                .iter()
                .take(cfg.probes.clamp(1, crate::protocol::MAX_BATCH))
                .map(|&(k, _)| k)
                .collect();
            let sets = [
                KeySet::explicit(hot),
                KeySet::range(0, cfg.universe / 2),
                KeySet::mask(0b11, 0b111),
                KeySet::explicit(vec![]),
            ];
            for set in sets {
                let want: u64 = truth
                    .iter()
                    .filter(|(k, _)| set.contains(**k))
                    .map(|(_, v)| v)
                    .sum();
                let answer = client.subpop(tenant, &set)?;
                subpop_probes += 1;
                if answer.contains(want) {
                    subpop_contained += 1;
                }
            }
        }
    }

    // Replication phase: ship each tenant to the replica — one full
    // snapshot, then two delta cuts straddling a seal — and hold the
    // replica to the same certified contract as the primary.
    let mut replica_probes = 0u64;
    let mut replica_contained = 0u64;
    let mut replicate_full_bytes = 0u64;
    let mut replicate_delta_bytes = 0u64;
    if let Some(replica_addr) = &cfg.replicate {
        let mut src = Client::connect(&cfg.addr as &str)?;
        let mut dst = Client::connect(replica_addr as &str)?;
        for tenant in 0..cfg.tenants {
            let truth = tenant_truth.get_mut(&tenant).expect("tenant was driven");
            let mut hottest = truth.to_pairs();
            hottest.sort_by_key(|&(_, v)| core::cmp::Reverse(v));
            let hot: Vec<u64> = hottest
                .into_iter()
                .take(cfg.probes.max(1))
                .map(|(k, _)| k)
                .collect();
            let extra: Vec<(u64, u64)> = hot.iter().map(|&k| (k, 1u64)).collect();

            // Ship 1: the first delta cut carries a full snapshot (it
            // establishes the dirty-bitmap baseline on the primary).
            let full = src.snapshot(tenant, SnapshotKind::Delta)?;
            replicate_full_bytes += full.len() as u64;
            dst.push_delta(tenant, &full)?;

            // Ship 2: dirty the hot keys, cut a (small) delta.
            src.ingest(tenant, &extra)?;
            for &k in &hot {
                truth.insert(&k, 1);
            }
            let d1 = src.snapshot(tenant, SnapshotKind::Delta)?;
            replicate_delta_bytes += d1.len() as u64;
            dst.push_delta(tenant, &d1)?;

            // Ship 3: seal (one rotation — the delta carries the frozen
            // generation's changes plus the fresh active), dirty again.
            src.seal(tenant)?;
            src.ingest(tenant, &extra)?;
            for &k in &hot {
                truth.insert(&k, 1);
            }
            let d2 = src.snapshot(tenant, SnapshotKind::Delta)?;
            replicate_delta_bytes += d2.len() as u64;
            dst.push_delta(tenant, &d2)?;

            // The replica must now certify the same truth, over both
            // the full window and its slim digest. A digest that fails
            // to decode misses every slim probe.
            let slim = dst.snapshot(tenant, SnapshotKind::Slim)?;
            let digest = SlimSummary::from_bytes(&slim).ok();
            for &k in &hot {
                let want = truth.freq(&k);
                replica_probes += 2;
                let certified = dst.query_certified(tenant, k)?;
                if certified.contains(want) {
                    replica_contained += 1;
                }
                let slim_hit = digest.as_ref().is_some_and(|d| {
                    let est = d.query_with_error(&k);
                    CertifiedAnswer {
                        value: est.value,
                        max_possible_error: est.max_possible_error,
                        ..certified
                    }
                    .contains(want)
                });
                replica_contained += u64::from(slim_hit);
            }
        }
    }

    let mut control = Client::connect(&cfg.addr as &str)?;
    let stats = control.stats()?;

    let secs = elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    Ok(LoadReport {
        total_updates: total,
        batches,
        stalls,
        probes,
        probes_contained: contained,
        tenants: cfg.tenants,
        connections: cfg.connections,
        elapsed,
        mupdates_per_sec: total as f64 / secs / 1e6,
        p50_us: percentile(0.50),
        p99_us: percentile(0.99),
        server_items: stats.items_ingested,
        server_rejected_batches: stats.rejected_batches,
        topk_probes,
        topk_contained,
        topk_recall_misses,
        subpop_probes,
        subpop_contained,
        replica_probes,
        replica_contained,
        replicate_full_bytes,
        replicate_delta_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServeConfig, ServerHandle};
    use crate::tenant::SketchSpec;

    #[test]
    fn tiny_load_round_trips_and_certifies() {
        let server = ServerHandle::start(ServeConfig {
            accept_threads: 2,
            spec: SketchSpec {
                memory_bytes: 128 * 1024,
                error_tolerance: 25,
                seed: 3,
            },
            ..ServeConfig::default()
        })
        .unwrap();
        let cfg = LoadConfig {
            addr: server.local_addr().to_string(),
            tenants: 2,
            connections: 2,
            items_per_connection: 4096,
            batch: 512,
            window: 4,
            universe: 2_000,
            probes: 16,
            ..LoadConfig::default()
        };
        let report = run(&cfg).unwrap();
        assert_eq!(report.total_updates, cfg.total_updates());
        assert_eq!(report.server_items, cfg.total_updates());
        assert_eq!(report.probes, 32);
        assert_eq!(
            report.probes_contained, report.probes,
            "every certified interval must contain the exact truth"
        );
        assert_eq!(report.batches, 2 * 2 * 8);
        // Two tenants × k = 16 heavy hitters (the summaries hold far
        // more than 16 promoted elephants at this load).
        assert_eq!(report.topk_probes, 2 * 16);
        assert_eq!(
            report.topk_contained, report.topk_probes,
            "every top-K interval must contain the exact truth"
        );
        assert_eq!(
            report.topk_recall_misses, 0,
            "no true heavy key above floor + slack may go unreported"
        );
        // Two tenants × four predicate shapes.
        assert_eq!(report.subpop_probes, 2 * 4);
        assert_eq!(
            report.subpop_contained, report.subpop_probes,
            "every subpopulation interval must contain the exact subset truth"
        );
        assert_eq!(report.replica_probes, 0, "no replica was configured");
        server.shutdown();
    }

    #[test]
    fn load_replicates_every_tenant_to_a_second_server() {
        let spec = SketchSpec {
            memory_bytes: 128 * 1024,
            error_tolerance: 25,
            seed: 3,
        };
        let primary = ServerHandle::start(ServeConfig {
            accept_threads: 2,
            spec,
            ..ServeConfig::default()
        })
        .unwrap();
        let replica = ServerHandle::start(ServeConfig {
            accept_threads: 2,
            spec,
            ..ServeConfig::default()
        })
        .unwrap();
        let cfg = LoadConfig {
            addr: primary.local_addr().to_string(),
            replicate: Some(replica.local_addr().to_string()),
            tenants: 2,
            connections: 2,
            items_per_connection: 4096,
            batch: 512,
            window: 4,
            universe: 2_000,
            probes: 16,
            ..LoadConfig::default()
        };
        let report = run(&cfg).unwrap();
        // tenants × hot keys × two query paths (certified + slim).
        assert_eq!(report.replica_probes, 2 * 16 * 2);
        assert_eq!(
            report.replica_contained, report.replica_probes,
            "every replica answer must contain the exact truth"
        );
        assert!(
            report.replicate_delta_bytes < report.replicate_full_bytes,
            "two delta cuts ({} B) must undercut the full snapshots ({} B)",
            report.replicate_delta_bytes,
            report.replicate_full_bytes
        );
        // The replica counted its replication frames: 3 applied ships
        // plus 1 slim capture per tenant.
        assert_eq!(replica.stats().replications(), 2 * 4);
        primary.shutdown();
        replica.shutdown();
    }
}
