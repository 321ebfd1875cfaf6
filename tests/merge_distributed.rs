//! Integration tests of the distributed-aggregation extension: shard a
//! stream across identically configured sketches, merge, and verify the
//! certified-interval contract against the combined ground truth — the
//! "summarize per shard, fold centrally" workflow of network-wide
//! measurement.

use reliablesketch::core::EmergencyPolicy;
use reliablesketch::prelude::*;

const MEMORY: usize = 256 * 1024;
const LAMBDA: u64 = 25;
const SEED: u64 = 99;

fn build() -> ReliableSketch<u64> {
    ReliableSketch::<u64>::builder()
        .memory_bytes(MEMORY)
        .error_tolerance(LAMBDA)
        .emergency(EmergencyPolicy::ExactTable)
        .seed(SEED)
        .build_sequential()
}

/// Partition a stream round-robin over `n` shards, as a packet spraying
/// load balancer would.
fn shard_stream(stream: &[Item<u64>], n: usize) -> Vec<ReliableSketch<u64>> {
    let mut shards: Vec<_> = (0..n).map(|_| build()).collect();
    for (i, it) in stream.iter().enumerate() {
        shards[i % n].insert(&it.key, it.value);
    }
    shards
}

#[test]
fn four_shard_merge_intervals_contain_truth() {
    let stream = Dataset::IpTrace.generate(400_000, 11);
    let truth = GroundTruth::from_items(&stream);
    let merged = merge_all(shard_stream(&stream, 4)).expect("same-config shards merge");

    assert!(merged.is_merged());
    let mut worst_mpe = 0;
    for (k, f) in truth.iter() {
        let est = merged.query_with_error(k);
        assert!(est.contains(f), "key {k}: {f} ∉ {est:?}");
        worst_mpe = worst_mpe.max(est.max_possible_error);
    }
    // merged MPEs are data-dependent but must stay honest; on a real
    // trace at this budget they remain small multiples of Λ
    assert!(worst_mpe > 0, "MPE should be sensing something");
}

#[test]
fn merged_accuracy_tracks_single_pass() {
    // merging k shards may cost accuracy, but on a realistic trace the
    // degradation must stay bounded (each shard sees a thinner stream, so
    // per-shard collisions are rarer)
    let stream = Dataset::WebStream.generate(300_000, 12);
    let truth = GroundTruth::from_items(&stream);

    let mut single = build();
    for it in &stream {
        single.insert(&it.key, it.value);
    }
    let merged = merge_all(shard_stream(&stream, 4)).unwrap();

    let (mut aae_single, mut aae_merged) = (0.0f64, 0.0f64);
    for (k, f) in truth.iter() {
        aae_single += single.query(k).abs_diff(f) as f64;
        aae_merged += merged.query(k).abs_diff(f) as f64;
    }
    aae_single /= truth.distinct() as f64;
    aae_merged /= truth.distinct() as f64;
    assert!(
        aae_merged <= (aae_single + 1.0) * 20.0,
        "merged AAE {aae_merged:.3} blew up vs single-pass {aae_single:.3}"
    );
}

#[test]
fn merge_then_continue_streaming() {
    // fold two shards, then keep ingesting into the merged sketch: the
    // contract must hold across the merge boundary
    let stream = Dataset::Hadoop.generate(200_000, 13);
    let (first, second) = stream.split_at(100_000);

    let mut shards = shard_stream(first, 2);
    let tail = shards.pop().unwrap();
    let mut merged = shards.pop().unwrap();
    merged.merge(&tail).unwrap();

    for it in second {
        merged.insert(&it.key, it.value);
    }
    let truth = GroundTruth::from_items(&stream);
    for (k, f) in truth.iter() {
        let est = merged.query_with_error(k);
        assert!(est.contains(f), "key {k}: {f} ∉ {est:?}");
    }
}

#[test]
fn heavy_hitters_survive_merging() {
    let stream = Dataset::Zipf { skew: 1.3 }.generate(300_000, 14);
    let truth = GroundTruth::from_items(&stream);
    let merged = merge_all(shard_stream(&stream, 3)).unwrap();

    let threshold = 2_000;
    let reported: Vec<u64> = merged
        .heavy_hitters(threshold)
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    // recall: every key with f ≥ threshold + worst-case slack must appear
    for k in truth.keys_above(threshold + 3 * LAMBDA) {
        assert!(reported.contains(&k), "elephant {k} missing after merge");
    }
    // soundness: every report's certified interval reaches the threshold
    for (k, est) in merged.heavy_hitters(threshold) {
        assert!(est.value >= threshold, "reported {k} below threshold");
        assert!(est.contains(truth.freq(&k)), "dishonest interval for {k}");
    }
}

#[test]
fn mixed_value_weights_merge_soundly() {
    // byte-counting mode: values are packet sizes, not 1
    let stream = Dataset::IpTrace.generate(150_000, 15);
    let mut a = build();
    let mut b = build();
    let mut truth_map = std::collections::HashMap::new();
    for (i, it) in stream.iter().enumerate() {
        let bytes = 64 + (it.key % 1400); // deterministic size per key
        if i % 2 == 0 {
            a.insert(&it.key, bytes);
        } else {
            b.insert(&it.key, bytes);
        }
        *truth_map.entry(it.key).or_insert(0u64) += bytes;
    }
    a.merge(&b).unwrap();
    for (&k, &f) in &truth_map {
        let est = a.query_with_error(&k);
        assert!(est.contains(f), "key {k}: {f} ∉ {est:?}");
    }
}
