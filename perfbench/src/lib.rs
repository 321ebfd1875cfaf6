//! The repository's benchmark: closed-loop workloads driven through
//! public APIs, every answer checked against an exact oracle built at
//! set-up, plus a traced mode that reports per-layer metrics.
//!
//! | workload | system under test | layers it exercises |
//! |---|---|---|
//! | `embed-seq` | one thread, in-process `ReliableSketch` at paper defaults | `rsk_hash`, `filter`, `sketch`, `subpop`, `replicate` |
//! | `embed-shared` | two pinned writers on one `EpochedConcurrent` window | `atomic`, atomic `filter`, `simd` prefix, `epoch`, `topk`, `subpop`, `replicate` |
//!
//! A traced run of either workload also replays its inputs through the
//! server's layers (`protocol`, `tenant`, `merge`) and over one pinned
//! connection to a real `rsk-serve` ([`layers::probe`]).
//!
//! See `README.md` beside this crate for the metric definitions and the
//! layer → metric → workload map.

pub mod common;
pub mod embed_seq;
pub mod embed_shared;
pub mod layers;
pub mod server;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use common::{iqm, median, percentile, Metrics, Outcome, Tracer};

/// Input sizes of one run. [`Scale::full`] is the benchmark;
/// [`Scale::test`] keeps the same shapes small enough for unit tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `embed-seq` stream length (paper: 10 M items per 1 MB).
    pub seq_items: usize,
    /// `embed-shared` stream length (both generations together).
    pub shared_items: usize,
    /// Extra set-ups timed before the measured rounds.
    pub setup_reps: usize,
    /// Stream prefix replayed through each layer in a traced run.
    pub probe_items: usize,
    /// Rounds run even when `--seconds` has elapsed.
    pub min_rounds: usize,
}

impl Scale {
    pub fn full() -> Self {
        Self {
            seq_items: 10_000_000,
            shared_items: 5_000_000,
            setup_reps: 61,
            probe_items: 1_000_000,
            min_rounds: 3,
        }
    }

    pub fn test() -> Self {
        Self {
            seq_items: 200_000,
            shared_items: 200_000,
            setup_reps: 2,
            probe_items: 50_000,
            min_rounds: 2,
        }
    }
}

/// Options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `rsk-serve` binary the traced run's wire probe starts; `None`
    /// runs the same server library in-process (tests only: no process
    /// metrics).
    pub serve_bin: Option<PathBuf>,
    /// Where a traced run writes its spans.
    pub out_dir: PathBuf,
    pub scale: Scale,
}

/// The benchmark's workloads.
pub const WORKLOADS: [&str; 2] = ["embed-seq", "embed-shared"];

/// Run workload `name`. `Err` means an operation failed outright (error
/// reply, transport or protocol failure): the run has no result.
pub fn run(name: &str, o: &Opts) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(o.trace);
    let out = match name {
        "embed-seq" => embed_seq::run(o, &mut tracer)?,
        "embed-shared" => embed_shared::run(o, &mut tracer)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    if o.trace {
        let counters: Vec<(String, f64)> = out
            .metrics
            .0
            .iter()
            .map(|(n, v, _)| (n.clone(), *v))
            .collect();
        let path = o.out_dir.join(format!("spans-{name}-{}.jsonl", o.seed));
        tracer
            .write(&path, &counters)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(out)
}

/// Runs rounds until `--seconds` have passed (and at least
/// `min_rounds`).
pub struct Clock {
    deadline: Instant,
    min_rounds: usize,
}

impl Clock {
    pub fn new(o: &Opts) -> Self {
        Self {
            deadline: Instant::now() + Duration::from_secs_f64(o.seconds),
            min_rounds: o.scale.min_rounds,
        }
    }

    pub fn more(&self, rounds: usize) -> bool {
        rounds < self.min_rounds || Instant::now() < self.deadline
    }
}

/// Timing samples of one class of rounds (traced or untraced).
///
/// Latencies are collected per round; [`Samples::end_round`] reduces them
/// to that round's percentiles, and the reported figure is the
/// interquartile mean of the per-round figures ([`common::iqm`]).
#[derive(Debug, Default)]
pub struct Samples {
    /// Mupd/s over each round's ingest phase.
    pub ingest_rate: Vec<f64>,
    /// This round's µs per batch of [`common::BATCH`] updates.
    pub ingest_lat: Vec<f64>,
    /// This round's µs per certified point query (block means).
    pub query_lat: Vec<f64>,
    pub topk_lat: Vec<f64>,
    /// This round's µs per subpopulation answer, one per shape of the
    /// rotation.
    pub subpop_lat: Vec<f64>,
    /// This round's µs per ship (cut + apply).
    pub replicate_lat: Vec<f64>,
    /// Per-round percentiles, indexed by the `ROUND_*` constants.
    per_round: [Vec<f64>; 7],
}

pub const ROUND_INGEST_P50: usize = 0;
pub const ROUND_INGEST_P90: usize = 1;
pub const ROUND_QUERY_P50: usize = 2;
pub const ROUND_QUERY_P90: usize = 3;
pub const ROUND_TOPK_P50: usize = 4;
const ROUND_SUBPOP_P50: usize = 5;
const ROUND_REPLICATE_P50: usize = 6;

impl Samples {
    /// Close a round: reduce its latency samples to percentiles.
    pub fn end_round(&mut self) {
        let figures = [
            percentile(&mut self.ingest_lat, 0.50),
            percentile(&mut self.ingest_lat, 0.90),
            percentile(&mut self.query_lat, 0.50),
            percentile(&mut self.query_lat, 0.90),
            percentile(&mut self.topk_lat, 0.50),
            percentile(&mut self.subpop_lat, 0.50),
            percentile(&mut self.replicate_lat, 0.50),
        ];
        for (slot, v) in self.per_round.iter_mut().zip(figures) {
            slot.push(v);
        }
        for buf in [
            &mut self.ingest_lat,
            &mut self.query_lat,
            &mut self.topk_lat,
            &mut self.subpop_lat,
            &mut self.replicate_lat,
        ] {
            buf.clear();
        }
    }

    /// Interquartile mean over rounds of one per-round percentile.
    pub fn over_rounds(&self, which: usize) -> f64 {
        iqm(&mut self.per_round[which].clone())
    }

    /// The end-to-end metrics. `setup` holds seconds per set-up; `checks`
    /// holds `fail_ratio`, `aae` and `rss_mb`.
    pub fn end_to_end(&mut self, setup: &mut [f64], checks: [f64; 3]) -> Metrics {
        let [fail_ratio, aae, rss_mb] = checks;
        let mut m = Metrics::default();
        m.set("setup_s", median(setup), "s");
        m.set("ingest_mups", iqm(&mut self.ingest_rate), "Mupd/s");
        m.set("ingest_p50_us", self.over_rounds(ROUND_INGEST_P50), "us");
        m.set("ingest_p90_us", self.over_rounds(ROUND_INGEST_P90), "us");
        m.set("query_p50_us", self.over_rounds(ROUND_QUERY_P50), "us");
        m.set("query_p90_us", self.over_rounds(ROUND_QUERY_P90), "us");
        m.set("topk_p50_us", self.over_rounds(ROUND_TOPK_P50), "us");
        m.set("subpop_p50_us", self.over_rounds(ROUND_SUBPOP_P50), "us");
        m.set(
            "replicate_p50_us",
            self.over_rounds(ROUND_REPLICATE_P50),
            "us",
        );
        m.set("fail_ratio", fail_ratio, "ratio");
        m.set("aae", aae, "updates");
        m.set("rss_mb", rss_mb, "MB");
        m
    }
}

/// Finish a workload's metrics: the untraced end-to-end set, or — in a
/// traced run — the per-layer set plus the traced rounds' end-to-end
/// figures and the tracing overhead on ingest throughput.
pub fn finish_metrics(
    o: &Opts,
    samples: &mut [Samples; 2],
    setup: &mut [f64],
    checks: [f64; 3],
    layers: Metrics,
) -> Metrics {
    let plain = samples[0].end_to_end(setup, checks);
    if !o.trace {
        return plain;
    }
    let traced = samples[1].end_to_end(setup, checks);
    let mut m = layers;
    for name in ["ingest_mups", "query_p50_us", "ingest_p90_us"] {
        m.set(
            &format!("e2e.traced.{name}"),
            traced.get(name).unwrap_or(0.0),
            unit_of(name),
        );
        m.set(
            &format!("e2e.plain.{name}"),
            plain.get(name).unwrap_or(0.0),
            unit_of(name),
        );
    }
    let (t, p) = (
        traced.get("ingest_mups").unwrap_or(0.0),
        plain.get("ingest_mups").unwrap_or(0.0),
    );
    let overhead = if t > 0.0 { (p / t - 1.0) * 100.0 } else { 0.0 };
    m.set("trace.overhead_pct", overhead, "%");
    m
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_mups") {
        "Mupd/s"
    } else {
        "us"
    }
}
