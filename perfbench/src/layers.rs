//! Per-layer metrics of a traced run.
//!
//! Entry points nest inside each other in the program (hash → filter →
//! sketch; protocol → tenant → epoch → atomic), so a span around the
//! outer call cannot tell its layers apart. Instead the workload's
//! recorded inputs — a prefix of its stream, its query keys and its
//! subpopulation rotation — are replayed through each layer's public
//! entry point on its own. Each figure is the median of [`REPS`] replays.
//! Workloads then overwrite the counters their real run exposes (for
//! example the contended retries of `embed-shared`) and add the mice
//! filter's figures, read from the filter they actually run.

use std::hint::black_box;
use std::time::Instant;

use rsk_api::{ConcurrentErrorSensing, ErrorSensing, KeySet, Replicate, SubpopulationWeight, TopK};
use rsk_core::{AtomicMiceFilter, MiceFilter, ReliableConfig};
use rsk_hash::HashFamily;
use rsk_serve::protocol::{Request, Response};
use rsk_serve::{Client, SketchSpec, TenantMap, DEFAULT_TOPK_CAPACITY};

use crate::common::*;
use crate::embed_seq::{LAMBDA, MEMORY};
use crate::server::Server;
use crate::Opts;

/// Replays per measurement.
pub const REPS: usize = 3;

/// Every per-layer metric of a traced run: `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, &str); 53] = [
    ("hash.index_ns", "ns", "lower"),
    ("hash.calls_per_insert", "calls", "lower"),
    ("hash.calls_per_query", "calls", "lower"),
    ("filter.insert_ns", "ns", "lower"),
    ("filter.absorb_ratio", "ratio", "higher"),
    ("filter.saturation_ratio", "ratio", "lower"),
    ("sketch.insert_ns", "ns", "lower"),
    ("sketch.query_ns", "ns", "lower"),
    ("sketch.stop_layer_mean", "layers", "lower"),
    ("sketch.insert_failures", "count", "lower"),
    ("sketch.dropped_value", "updates", "lower"),
    ("sketch.decode_ms", "ms", "lower"),
    ("atomic.insert_ns", "ns", "lower"),
    ("atomic.retries_per_mitem", "count", "lower"),
    ("atomic.saturations", "count", "lower"),
    ("atomic.insert_failures", "count", "lower"),
    ("atomic.dropped_value", "updates", "lower"),
    ("atomic.query_ns", "ns", "lower"),
    ("atomic.writer_wait_ms", "ms", "lower"),
    ("simd.batch_ns", "ns", "lower"),
    ("simd.loop_ns", "ns", "lower"),
    ("epoch.rotate_us", "us", "lower"),
    ("epoch.query_ns", "ns", "lower"),
    ("topk.answer_us", "us", "lower"),
    ("topk.miss_bound", "updates", "lower"),
    ("subpop.dense_us", "us", "lower"),
    ("subpop.decode_us", "us", "lower"),
    ("subpop.rel_width", "ratio", "lower"),
    ("replicate.cut_us", "us", "lower"),
    ("replicate.apply_us", "us", "lower"),
    ("replicate.delta_bytes", "bytes", "lower"),
    ("merge.us", "us", "lower"),
    ("merge.overlay_query_ns", "ns", "lower"),
    ("protocol.decode_ns_per_item", "ns", "lower"),
    ("protocol.encode_ns", "ns", "lower"),
    ("protocol.bytes_per_update", "bytes", "lower"),
    ("tenant.ingest_ns_per_item", "ns", "lower"),
    ("tenant.certified_ns", "ns", "lower"),
    ("tenant.seal_us", "us", "lower"),
    ("server.overhead_ingest_us", "us", "lower"),
    ("server.overhead_query_us", "us", "lower"),
    ("server.cpu_us_per_kupd", "us", "lower"),
    ("server.rss_mb", "MB", "lower"),
    ("server.items", "count", "higher"),
    ("server.queries", "count", "higher"),
    ("server.rejected", "count", "lower"),
    ("e2e.traced.ingest_mups", "Mupd/s", "higher"),
    ("e2e.plain.ingest_mups", "Mupd/s", "higher"),
    ("e2e.traced.query_p50_us", "us", "lower"),
    ("e2e.plain.query_p50_us", "us", "lower"),
    ("e2e.traced.ingest_p90_us", "us", "lower"),
    ("e2e.plain.ingest_p90_us", "us", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

/// The recorded inputs a traced run replays.
pub struct ProbeInput<'a> {
    pub items: &'a [(u64, u64)],
    pub keys: &'a [u64],
    pub sets: &'a [KeySet],
}

/// Median of `REPS` runs of `f`.
fn med(mut f: impl FnMut() -> f64) -> f64 {
    let mut v: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median(&mut v)
}

fn ns_per(a: Instant, n: usize) -> f64 {
    secs(a, Instant::now()) * 1e9 / n.max(1) as f64
}

/// Per-insert ns of the sequential sketch's mice filter: `items` replayed
/// through a [`MiceFilter`] of the shape `config` gives the sketch.
pub fn seq_filter_ns(items: &[(u64, u64)], config: &ReliableConfig) -> f64 {
    let fc = config.mice_filter.unwrap_or_default();
    med(|| {
        let mut f = MiceFilter::new(
            config.filter_bytes(),
            fc.arrays,
            fc.counter_bits,
            config.filter_threshold().max(1),
            config.seed,
        )
        .expect("filter fits its budget");
        let a = Instant::now();
        for (k, v) in items {
            black_box(f.insert(k, *v));
        }
        ns_per(a, items.len())
    })
}

/// Per-insert ns and absorb ratio (inserts the filter absorbs whole /
/// inserts) of a concurrent window's mice filter: each generation's input
/// in `gens` replayed through a fresh [`AtomicMiceFilter`] of the shape
/// `config` gives one generation.
pub fn atomic_filter(gens: &[&[(u64, u64)]], config: &ReliableConfig) -> (f64, f64) {
    let fc = config.mice_filter.unwrap_or_default();
    let n: usize = gens.iter().map(|g| g.len()).sum();
    let mut absorbed = 0usize;
    let ns = med(|| {
        let mut t = 0.0;
        absorbed = 0;
        for items in gens {
            let f = AtomicMiceFilter::new(
                config.filter_bytes(),
                fc.arrays,
                fc.counter_bits,
                config.filter_threshold().max(1),
                config.seed,
            )
            .expect("filter fits its budget");
            let a = Instant::now();
            for (k, v) in *items {
                absorbed += usize::from(f.insert(k, *v) == 0);
            }
            t += secs(a, Instant::now());
        }
        t * 1e9 / n.max(1) as f64
    });
    (ns, absorbed as f64 / n.max(1) as f64)
}

/// Replay `p` through every layer but the mice filter (the workloads
/// measure their own). `wire` adds a short replay over a real server
/// connection for the `server.*` metrics.
pub fn probe(p: &ProbeInput, o: &Opts, wire: bool) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let items = p.items;
    let keys = p.keys;
    let n = items.len();
    let seq = || {
        reliablesketch::builder()
            .memory_bytes(MEMORY)
            .error_tolerance(LAMBDA)
    };
    let spec = SketchSpec::default();
    let tenant_cfg = || {
        reliablesketch::builder()
            .memory_bytes(spec.memory_bytes)
            .error_tolerance(spec.error_tolerance)
            .seed(spec.seed)
    };

    // rsk_hash: one bucket-index evaluation
    let config = seq().config();
    let geometry = config.geometry();
    let hashes = HashFamily::new(geometry.depth(), config.seed);
    let w0 = geometry.width(0);
    m.set(
        "hash.index_ns",
        med(|| {
            let a = Instant::now();
            let mut acc = 0usize;
            for (k, _) in items {
                acc ^= hashes.index(0, k, w0);
            }
            black_box(acc);
            ns_per(a, n)
        }),
        "ns",
    );

    // sketch: filter + bucket layers, sequential
    let mut last = None;
    m.set(
        "sketch.insert_ns",
        med(|| {
            let mut sk = seq().build_sequential::<u64>();
            let a = Instant::now();
            for b in items.chunks(BATCH) {
                sk.insert_batch(b);
            }
            let t = ns_per(a, n);
            last = Some(sk);
            t
        }),
        "ns",
    );
    let sk = last.expect("replayed");
    m.set(
        "sketch.query_ns",
        med(|| {
            let a = Instant::now();
            for k in keys {
                black_box(sk.query_with_error(k));
            }
            ns_per(a, keys.len())
        }),
        "ns",
    );
    m.extend(&crate::embed_seq::live_layers(&sk));
    drop(sk);

    // atomic: one writer, then two pinned writers contending
    let mut last = None;
    m.set(
        "atomic.insert_ns",
        med(|| {
            let c = tenant_cfg().build_concurrent::<u64>();
            let a = Instant::now();
            for (k, v) in items {
                c.insert_concurrent(k, *v);
            }
            let t = ns_per(a, n);
            last = Some(c);
            t
        }),
        "ns",
    );
    let c = last.expect("replayed");
    m.set(
        "atomic.query_ns",
        med(|| {
            let a = Instant::now();
            for k in keys {
                black_box(c.query_with_error(k));
            }
            ns_per(a, keys.len())
        }),
        "ns",
    );
    drop(c);
    let pl = Placement::fixed();
    let mut waits = Vec::new();
    let mut contended = None;
    for _ in 0..REPS {
        let c = tenant_cfg().build_concurrent::<u64>();
        let (_, wait) = two_writers(items, &pl, &mut Tracer::new(false), &mut Vec::new(), |b| {
            c.insert_batch(b)
        });
        waits.push(wait * 1e3);
        contended = Some(c);
    }
    let c = contended.expect("replayed");
    let st = c.array().stats();
    m.set(
        "atomic.retries_per_mitem",
        st.retries() as f64 * 1e6 / n.max(1) as f64,
        "count",
    );
    m.set("atomic.saturations", st.saturations() as f64, "count");
    m.set(
        "atomic.insert_failures",
        c.insertion_failures() as f64,
        "count",
    );
    m.set("atomic.dropped_value", c.dropped_value() as f64, "updates");
    m.set("atomic.writer_wait_ms", median(&mut waits), "ms");
    drop(c);

    // simd: the same items through the window's batch prefix and item loop
    let window = || {
        tenant_cfg()
            .top_k(DEFAULT_TOPK_CAPACITY)
            .build_epoched_concurrent::<u64>()
    };
    m.set(
        "simd.batch_ns",
        med(|| {
            let w = window();
            let a = Instant::now();
            for b in items.chunks(BATCH) {
                w.insert_batch(b);
            }
            ns_per(a, n)
        }),
        "ns",
    );
    m.set(
        "simd.loop_ns",
        med(|| {
            let w = window();
            let a = Instant::now();
            for (k, v) in items {
                w.insert_shared(k, *v);
            }
            ns_per(a, n)
        }),
        "ns",
    );

    // epoch, topk, subpop, replicate, merge on a two-generation window;
    // the last `ships` chunks are held back to make real deltas
    let tail = (n / 64).clamp(1, 16 * BATCH);
    let ships = 8.min(n / tail);
    let body = &items[..n - ships * tail];
    let half = body.len() / 2;
    let mut rotates = Vec::new();
    let mut w = window();
    for _ in 0..REPS {
        w = window();
        w.insert_batch(&body[..half]);
        let a = Instant::now();
        w.rotate();
        rotates.push(secs(a, Instant::now()) * 1e6);
        w.insert_batch(&body[half..]);
    }
    m.set("epoch.rotate_us", median(&mut rotates), "us");
    m.set(
        "epoch.query_ns",
        med(|| {
            let a = Instant::now();
            for k in keys {
                black_box(w.query_with_error_concurrent(k));
            }
            ns_per(a, keys.len())
        }),
        "ns",
    );
    let mut top = w.certified_top_k(TOPK_K);
    let mut topk = Vec::new();
    for _ in 0..16 {
        let a = Instant::now();
        top = w.certified_top_k(TOPK_K);
        topk.push(secs(a, Instant::now()) * 1e6);
    }
    m.set("topk.answer_us", median(&mut topk), "us");
    m.set("topk.miss_bound", top.miss_bound as f64, "updates");
    let (mut dense, mut decode, mut width) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        for set in p.sets {
            let a = Instant::now();
            let ans = w.subpopulation_weight(set);
            let us = secs(a, Instant::now()) * 1e6;
            if set
                .enumerate(rsk_core::subpop::DENSE_ENUMERATION_LIMIT)
                .is_some()
            {
                dense.push(us);
                width.push(ans.width() as f64 / ans.estimate.max(1) as f64);
            } else {
                decode.push(us);
            }
        }
    }
    m.set("subpop.dense_us", median(&mut dense), "us");
    m.set("subpop.decode_us", median(&mut decode), "us");
    m.set("subpop.rel_width", median(&mut width), "ratio");
    let mut mirror = window();
    let (mut cuts, mut applies, mut deltas) = (Vec::new(), Vec::new(), Vec::new());
    for (j, chunk) in items[body.len()..].chunks(tail).enumerate() {
        w.insert_batch(chunk);
        let a = Instant::now();
        let cut = w.delta_bytes().map_err(|e| format!("delta cut: {e}"))?;
        let b = Instant::now();
        mirror
            .apply_bytes(&cut)
            .map_err(|e| format!("delta apply: {e}"))?;
        cuts.push(secs(a, b) * 1e6);
        applies.push(secs(b, Instant::now()) * 1e6);
        if j > 0 {
            deltas.push(cut.len() as f64);
        }
    }
    m.set("replicate.cut_us", median(&mut cuts), "us");
    m.set("replicate.apply_us", median(&mut applies), "us");
    m.set("replicate.delta_bytes", median(&mut deltas), "bytes");
    let mut rollup = window();
    m.set(
        "merge.us",
        med(|| {
            rollup = window();
            let a = Instant::now();
            rollup.merge_window_from(&w).expect("same spec");
            secs(a, Instant::now()) * 1e6
        }),
        "us",
    );
    m.set(
        "merge.overlay_query_ns",
        med(|| {
            let a = Instant::now();
            for k in keys {
                black_box(rollup.query_with_error_concurrent(k));
            }
            ns_per(a, keys.len())
        }),
        "ns",
    );
    drop((w, mirror, rollup));

    // protocol: Ingest frames of the stream, and certified-query codecs
    let frames: Vec<Vec<u8>> = items
        .chunks(BATCH)
        .map(|b| {
            Request::Ingest {
                tenant: 1,
                items: b.to_vec(),
            }
            .encode()
        })
        .collect();
    m.set(
        "protocol.encode_ns",
        med(|| {
            let a = Instant::now();
            for b in items.chunks(BATCH) {
                black_box(
                    Request::Ingest {
                        tenant: 1,
                        items: b.to_vec(),
                    }
                    .encode(),
                );
            }
            ns_per(a, frames.len())
        }),
        "ns",
    );
    m.set(
        "protocol.decode_ns_per_item",
        med(|| {
            let a = Instant::now();
            for f in &frames {
                black_box(Request::decode(f).expect("own frame decodes"));
            }
            ns_per(a, n)
        }),
        "ns",
    );
    let bytes: usize = frames.iter().map(Vec::len).sum();
    m.set(
        "protocol.bytes_per_update",
        bytes as f64 / n.max(1) as f64,
        "bytes",
    );
    let query_codec_ns = med(|| {
        let a = Instant::now();
        for k in keys {
            let q = Request::QueryCertified { tenant: 1, key: *k }.encode();
            black_box(Request::decode(&q).ok());
            let r = Response::Certified {
                value: *k,
                max_possible_error: 1,
                slack: 0,
                epoch: 0,
            }
            .encode();
            black_box(Response::decode(&r).ok());
        }
        ns_per(a, keys.len())
    });

    // tenant: the server's state layer without the wire
    let mut map = TenantMap::new(16, spec);
    m.set(
        "tenant.ingest_ns_per_item",
        med(|| {
            map = TenantMap::new(16, spec);
            let t = map.get_or_create(1);
            let a = Instant::now();
            for b in items.chunks(BATCH) {
                t.ingest(b);
            }
            ns_per(a, n)
        }),
        "ns",
    );
    let t = map.get_or_create(1);
    m.set(
        "tenant.certified_ns",
        med(|| {
            let a = Instant::now();
            for k in keys {
                black_box(t.certified(*k));
            }
            ns_per(a, keys.len())
        }),
        "ns",
    );
    m.set(
        "tenant.seal_us",
        med(|| {
            let a = Instant::now();
            t.seal();
            secs(a, Instant::now()) * 1e6
        }),
        "us",
    );

    // server: a short replay over one pinned connection
    for name in [
        "server.overhead_ingest_us",
        "server.overhead_query_us",
        "server.cpu_us_per_kupd",
        "server.rss_mb",
        "server.items",
        "server.queries",
        "server.rejected",
    ] {
        m.set(name, 0.0, unit(name));
    }
    if wire {
        let ingest_inproc_us = (m.get("protocol.encode_ns").unwrap_or(0.0)
            + BATCH as f64
                * (m.get("protocol.decode_ns_per_item").unwrap_or(0.0)
                    + m.get("tenant.ingest_ns_per_item").unwrap_or(0.0)))
            / 1e3;
        let query_inproc_us = (query_codec_ns + m.get("tenant.certified_ns").unwrap_or(0.0)) / 1e3;
        wire_probe(p, o, &mut m, ingest_inproc_us, query_inproc_us)?;
    }
    Ok(m)
}

fn unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map_or("count", |(_, u, _)| u)
}

/// Replay a prefix of the inputs over a real server: RTT medians minus
/// the in-process cost of the same requests, plus process figures.
fn wire_probe(
    p: &ProbeInput,
    o: &Opts,
    m: &mut Metrics,
    ingest_inproc_us: f64,
    query_inproc_us: f64,
) -> Result<(), String> {
    let server = Server::start(o.serve_bin.as_deref())?;
    let mut c = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let pid = server.pid();
    let cpu0 = pid.as_deref().and_then(proc_cpu_seconds);
    let (mut ingest, mut query) = (Vec::new(), Vec::new());
    let mut sent = 0u64;
    for b in p.items.chunks(BATCH).take(512) {
        let a = Instant::now();
        c.ingest(1, b).map_err(|e| format!("probe ingest: {e}"))?;
        ingest.push(secs(a, Instant::now()) * 1e6);
        sent += b.len() as u64;
    }
    for k in p.keys.iter().take(4096) {
        let a = Instant::now();
        c.query_certified(1, *k)
            .map_err(|e| format!("probe query: {e}"))?;
        query.push(secs(a, Instant::now()) * 1e6);
    }
    let stats = c.stats().map_err(|e| format!("probe stats: {e}"))?;
    if let Some(pid) = pid.as_deref() {
        if let (Some(a), Some(b)) = (cpu0, proc_cpu_seconds(pid)) {
            m.set(
                "server.cpu_us_per_kupd",
                (b - a) * 1e6 / (sent as f64 / 1e3),
                "us",
            );
        }
        let kb = proc_status_kb(pid, "VmHWM:").unwrap_or(0);
        m.set("server.rss_mb", kb as f64 / 1024.0, "MB");
    }
    server.stop(c)?;
    if stats.items_ingested != sent {
        return Err(format!(
            "probe server ingested {} of {sent} items",
            stats.items_ingested
        ));
    }
    m.set(
        "server.overhead_ingest_us",
        median(&mut ingest) - ingest_inproc_us,
        "us",
    );
    m.set(
        "server.overhead_query_us",
        median(&mut query) - query_inproc_us,
        "us",
    );
    m.set("server.items", stats.items_ingested as f64, "count");
    m.set("server.queries", stats.queries as f64, "count");
    m.set(
        "server.rejected",
        (stats.rejected_batches + stats.rejected_connections) as f64,
        "count",
    );
    Ok(())
}
