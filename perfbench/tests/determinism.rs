//! The benchmark's own checks: a seed fixes the request sequence and every
//! deterministic count, and the metric lists match BENCHMARK.json.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.
//! A traced run's wire probe starts the server library in-process here;
//! the benchmark proper starts the `rsk-serve` binary.

use perfbench::common::Outcome;
use perfbench::layers::PER_LAYER;
use perfbench::{Opts, Scale};

fn run_with(workload: &str, seed: u64, trace: bool) -> Outcome {
    let opts = Opts {
        seed,
        seconds: 0.0,
        trace,
        serve_bin: None,
        out_dir: std::env::temp_dir().join("perfbench-tests"),
        scale: Scale::test(),
    };
    let out = perfbench::run(workload, &opts).expect("no operation fails");
    assert!(out.correct, "{workload} seed {seed}: {:?}", out.notes);
    out
}

fn run(workload: &str, seed: u64) -> Outcome {
    run_with(workload, seed, false)
}

fn spec() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root")
}

#[test]
fn same_seed_same_requests_and_counts() {
    let a = run("embed-seq", 7);
    let b = run("embed-seq", 7);
    assert_eq!(a.counts, b.counts);
    for name in [
        "request_digest",
        "fail_numerator",
        "aae_bits",
        "items",
        "delta_bytes",
    ] {
        assert!(a.count(name).is_some(), "embed-seq reports {name}");
    }
    let c = run("embed-seq", 8);
    assert_ne!(
        a.count("request_digest"),
        c.count("request_digest"),
        "another seed, another request sequence"
    );
}

#[test]
fn shared_window_requests_follow_the_seed() {
    let a = run("embed-shared", 7);
    let b = run("embed-shared", 7);
    let c = run("embed-shared", 8);
    assert_eq!(a.count("request_digest"), b.count("request_digest"));
    assert_ne!(a.count("request_digest"), c.count("request_digest"));
}

#[test]
fn traced_run_reports_every_layer_and_the_server_counts() {
    let a = run_with("embed-seq", 5, true);
    let b = run_with("embed-seq", 5, true);
    for (name, _, _) in PER_LAYER {
        assert!(a.metrics.get(name).is_some(), "{name} measured");
    }
    // the wire probe sends the first 50 000 updates of the stream; the
    // server must count exactly those
    assert_eq!(a.metrics.get("server.items"), Some(50_000.0));
    for name in [
        "server.items",
        "server.queries",
        "server.rejected",
        "replicate.delta_bytes",
        "sketch.insert_failures",
        "sketch.dropped_value",
        "filter.saturation_ratio",
        "filter.absorb_ratio",
    ] {
        assert_eq!(a.metrics.get(name), b.metrics.get(name), "{name}");
    }
    let shared = run_with("embed-shared", 5, true);
    for (name, _, _) in PER_LAYER {
        assert!(shared.metrics.get(name).is_some(), "{name} measured");
    }
}

#[test]
fn every_end_to_end_metric_is_reported() {
    let out = run("embed-seq", 3);
    let spec = spec();
    for (name, _, _) in &out.metrics.0 {
        assert!(
            spec.contains(&format!("\"name\": \"{name}\"")),
            "{name} declared"
        );
    }
    assert_eq!(out.metrics.0.len(), spec.matches("\"bound\"").count());
}

#[test]
fn per_layer_list_matches_benchmark_json() {
    let spec = spec();
    let per_layer = &spec[spec.find("\"per_layer\"").expect("per_layer key")..];
    for (name, unit, better) in PER_LAYER {
        let entry = format!(
            "\"name\": \"{name}\",\n      \"unit\": \"{unit}\",\n      \"better\": \"{better}\""
        );
        assert!(
            per_layer.contains(&entry),
            "{name} declared with unit {unit}"
        );
    }
    assert_eq!(per_layer.matches("\"name\"").count(), PER_LAYER.len());
}
