//! Differential tests: the Tofino behavioural model versus the CPU
//! reference on identical streams.
//!
//! The switch encoding (§5.2) is *not* bit-identical to Algorithm 1 —
//! saturated subtraction loses negative overshoot and replacement is
//! deferred one packet — but both must satisfy the same per-key error
//! bound, and their estimates must stay close on unstressed workloads.

use reliablesketch::core::{Depth, ReliableConfig, ReliableSketch};
use reliablesketch::dataplane::TofinoReliable;
use reliablesketch::prelude::*;

fn cpu_raw_six_layers(mem: usize, lambda: u64, seed: u64) -> ReliableSketch<u64> {
    // match the switch model's shape: raw (no filter), six layers
    ReliableSketch::new(ReliableConfig {
        memory_bytes: mem,
        lambda,
        mice_filter: None,
        depth: Depth::Fixed(6),
        seed,
        ..Default::default()
    })
}

#[test]
fn both_satisfy_lambda_on_ample_memory() {
    let stream = Dataset::Hadoop.generate(150_000, 11);
    let truth = GroundTruth::from_items(&stream);
    let (mem, lambda) = (192 * 1024, 25u64);

    let mut cpu = cpu_raw_six_layers(mem, lambda, 11);
    let mut sw = TofinoReliable::<u64>::new(mem, lambda, 11);
    for it in &stream {
        cpu.insert(&it.key, it.value);
        sw.insert(&it.key, it.value);
    }
    for (k, f) in truth.iter() {
        assert!(cpu.query(k).abs_diff(f) <= lambda, "cpu outlier at {k}");
        assert!(sw.query(k).abs_diff(f) <= lambda, "switch outlier at {k}");
    }
}

#[test]
fn estimates_stay_close_between_models() {
    let stream = Dataset::Hadoop.generate(100_000, 12);
    let truth = GroundTruth::from_items(&stream);
    let (mem, lambda) = (128 * 1024, 25u64);

    let mut cpu = cpu_raw_six_layers(mem, lambda, 12);
    let mut sw = TofinoReliable::<u64>::new(mem, lambda, 12);
    for it in &stream {
        cpu.insert(&it.key, it.value);
        sw.insert(&it.key, it.value);
    }
    // identical seeds → identical bucket placement; the only divergence is
    // the switch's simplified update rules, bounded by 2Λ per key
    let mut max_gap = 0u64;
    for (k, _) in truth.iter() {
        max_gap = max_gap.max(cpu.query(k).abs_diff(sw.query(k)));
    }
    assert!(max_gap <= 2 * lambda, "models diverged by {max_gap} (> 2Λ)");
}

#[test]
fn switch_certified_intervals_hold() {
    let stream = Dataset::WebStream.generate(120_000, 13);
    let truth = GroundTruth::from_items(&stream);
    let mut sw = TofinoReliable::<u64>::new(256 * 1024, 25, 13);
    for it in &stream {
        sw.insert(&it.key, it.value);
    }
    if sw.insertion_failures() == 0 {
        for (k, f) in truth.iter() {
            let est = sw.query_with_error(k);
            assert!(est.contains(f), "switch interval misses truth at {k}");
        }
    }
}

#[test]
fn recirculation_cost_is_bounded() {
    // one recirculation per lock event; locks are bounded by the number of
    // buckets times... in practice a tiny fraction of traffic (§5.2)
    let stream = Dataset::IpTrace.generate(200_000, 14);
    let mut sw = TofinoReliable::<u64>::new(64 * 1024, 25, 14);
    for it in &stream {
        sw.insert(&it.key, it.value);
    }
    let rate = sw.recirculations() as f64 / stream.len() as f64;
    assert!(rate < 0.05, "recirculation rate {rate} too high");
}

#[test]
fn batched_pipeline_matches_batched_software() {
    // the batch ingestion paths agree end to end: the FPGA pipeline fed
    // through run_batched answers exactly like the software sketch fed
    // through insert_batch on the same geometry and seed
    use reliablesketch::core::{EmergencyPolicy, LayerGeometry, BUCKET_BYTES};
    use reliablesketch::dataplane::FpgaPipeline;

    let geometry = LayerGeometry::derive(3_000, 22, 2.0, 2.5, Depth::Fixed(8));
    let items: Vec<(u64, u64)> = Dataset::IpTrace
        .generate(80_000, 15)
        .iter()
        .map(|it| (it.key, it.value))
        .collect();

    let mut hw = FpgaPipeline::<u64>::new(&geometry, 15);
    hw.run_batched(&items, 512);

    let mut sw = ReliableSketch::<u64>::with_geometry(
        ReliableConfig {
            memory_bytes: geometry.total_buckets() * BUCKET_BYTES,
            lambda: geometry.total_lambda().max(1),
            depth: Depth::Fixed(geometry.depth()),
            mice_filter: None,
            emergency: EmergencyPolicy::ExactTable,
            seed: 15,
            ..Default::default()
        },
        geometry.clone(),
    );
    sw.insert_batch(&items);

    for &(k, _) in items.iter().take(5_000) {
        let h = hw.query(&k);
        let s = sw.query_with_error(&k);
        assert_eq!(
            (h.value, h.max_possible_error),
            (s.value, s.max_possible_error),
            "batched hardware/software divergence at key {k}"
        );
    }
}
