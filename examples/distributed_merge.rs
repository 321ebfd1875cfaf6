//! Distributed aggregation: per-shard summarize, fold centrally.
//!
//! Network-wide measurement shards traffic across devices (ToR switches,
//! NIC queues, worker cores). Each shard keeps its own ReliableSketch;
//! a collector merges them into one summary that still carries certified
//! per-key error intervals — something plain counter sketches cannot do
//! (they merge, but cannot tell you which answers went bad).
//!
//! ```sh
//! cargo run --release --example distributed_merge
//! ```

use reliablesketch::core::EmergencyPolicy;
use reliablesketch::prelude::*;
use std::thread;
use std::time::Instant;

const SHARDS: usize = 4;
const ITEMS: usize = 4_000_000;
const MEMORY: usize = 512 * 1024; // per shard
const LAMBDA: u64 = 25;
const SEED: u64 = 2026;

fn build() -> ReliableSketch<u64> {
    ReliableSketch::<u64>::builder()
        .memory_bytes(MEMORY)
        .error_tolerance(LAMBDA)
        .emergency(EmergencyPolicy::ExactTable)
        .seed(SEED) // identical seeds across shards: a merge precondition
        .build_sequential()
}

fn main() {
    let stream = Dataset::IpTrace.generate(ITEMS, 7);
    let truth = GroundTruth::from_items(&stream);
    println!(
        "stream: {} items, {} distinct keys, {} shards x {} KB",
        ITEMS,
        truth.distinct(),
        SHARDS,
        MEMORY / 1024
    );

    // --- phase 1: each shard summarizes its slice on its own thread ----
    let t0 = Instant::now();
    let shards: Vec<ReliableSketch<u64>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..SHARDS)
            .map(|s| {
                let slice: Vec<Item<u64>> =
                    stream.iter().skip(s).step_by(SHARDS).copied().collect();
                scope.spawn(move || {
                    let mut sk = build();
                    for it in &slice {
                        sk.insert(&it.key, it.value);
                    }
                    sk
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let ingest = t0.elapsed();

    // --- phase 2: the collector folds the shards ----------------------
    let t1 = Instant::now();
    let merged = merge_all(shards).expect("identically configured shards");
    let fold = t1.elapsed();
    println!(
        "ingest {:.0} ms on {SHARDS} threads, fold {:.2} ms",
        ingest.as_secs_f64() * 1e3,
        fold.as_secs_f64() * 1e3
    );

    // --- phase 3: audit the merged summary against the ground truth ---
    //
    // Merging relaxes the a-priori `error ≤ Λ` ceiling (two shards can
    // elect different heavy candidates into one bucket), but the error
    // stays *sensed*: every key whose error exceeds Λ must also carry an
    // MPE above Λ, so the collector can tell exactly which answers to
    // distrust — the property plain counter sketches lose on merge.
    let mut outliers = 0u64;
    let mut flagged = 0u64;
    let mut silent_outliers = 0u64;
    let mut broken_intervals = 0u64;
    let mut worst_mpe = 0u64;
    let mut aae = 0.0f64;
    for (k, f) in truth.iter() {
        let est = merged.query_with_error(k);
        let err = est.value.abs_diff(f);
        if err > LAMBDA {
            outliers += 1;
            if est.max_possible_error <= LAMBDA {
                silent_outliers += 1; // error above Λ yet not flagged: bad
            }
        }
        if est.max_possible_error > LAMBDA {
            flagged += 1;
        }
        if !est.contains(f) {
            broken_intervals += 1;
        }
        worst_mpe = worst_mpe.max(est.max_possible_error);
        aae += err as f64;
    }
    aae /= truth.distinct() as f64;

    println!("merged summary ({} bytes model):", merged.memory_bytes());
    println!("  AAE               : {aae:.3}");
    println!("  outliers (>Λ={LAMBDA})  : {outliers}");
    println!("  keys flagged MPE>Λ: {flagged} (self-reported uncertainty)");
    println!("  silent outliers   : {silent_outliers} (must be 0 — errors stay sensed)");
    println!("  broken intervals  : {broken_intervals} (must be 0 — certified)");
    println!("  worst sensed MPE  : {worst_mpe}");
    println!(
        "  top-5 heavy hitters: {:?}",
        merged
            .heavy_hitters(10_000)
            .into_iter()
            .take(5)
            .map(|(k, e)| (k, e.value))
            .collect::<Vec<_>>()
    );

    assert_eq!(broken_intervals, 0, "certified intervals must never lie");
    assert_eq!(silent_outliers, 0, "every outlier must be self-flagged");
}
