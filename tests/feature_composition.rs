//! Cross-feature integration: the beyond-paper extensions compose.
//!
//! A realistic deployment uses several extensions at once — shards that
//! merge, windows that rotate, snapshots taken mid-pipeline. These tests
//! drive the combinations end-to-end through the public umbrella API and
//! check the one property that must survive every composition: certified
//! intervals containing the truth.

use reliablesketch::core::epoch::EpochedReliable;
use reliablesketch::core::replicate::SketchSnapshot;
use reliablesketch::core::EmergencyPolicy;
use reliablesketch::prelude::*;
use std::collections::HashMap;

const MEMORY: usize = 128 * 1024;
const LAMBDA: u64 = 25;
const SEED: u64 = 321;

fn build() -> ReliableSketch<u64> {
    ReliableSketch::<u64>::builder()
        .memory_bytes(MEMORY)
        .error_tolerance(LAMBDA)
        .emergency(EmergencyPolicy::ExactTable)
        .seed(SEED)
        .build_sequential()
}

/// Shards merge, the merged sketch is snapshotted, the restored sketch
/// keeps streaming: every answer stays certified and the merge flag
/// survives persistence.
#[test]
fn merge_then_snapshot_then_resume() {
    let stream = Dataset::IpTrace.generate(200_000, 41);
    let mut truth: HashMap<u64, u64> = HashMap::new();

    let mut a = build();
    let mut b = build();
    for (i, it) in stream.iter().enumerate() {
        if i % 2 == 0 {
            a.insert(&it.key, it.value);
        } else {
            b.insert(&it.key, it.value);
        }
        *truth.entry(it.key).or_insert(0) += it.value;
    }
    a.merge(&b).unwrap();

    let bytes = a.snapshot().to_bytes();
    let parsed = SketchSnapshot::<u64>::from_bytes(&bytes).unwrap();
    let mut restored = ReliableSketch::restore(parsed).unwrap();
    assert!(restored.is_merged(), "merge hints must survive persistence");

    let tail = Dataset::IpTrace.generate(50_000, 42);
    for it in &tail {
        restored.insert(&it.key, it.value);
        *truth.entry(it.key).or_insert(0) += it.value;
    }
    for (&k, &f) in &truth {
        let est = restored.query_with_error(&k);
        assert!(est.contains(f), "key {k}: {f} ∉ {est:?}");
    }
}

/// Retired epochs from independent shards merge into a long-horizon
/// roll-up whose intervals cover the archived history.
#[test]
fn epoch_rollup_across_shards() {
    let mut windows: Vec<EpochedReliable<u64>> = (0..2)
        .map(|_| {
            EpochedReliable::<u64>::builder()
                .memory_bytes(MEMORY)
                .error_tolerance(LAMBDA)
                .emergency(EmergencyPolicy::ExactTable)
                .seed(SEED)
                .build_epoched()
        })
        .collect();
    let mut archived_truth: HashMap<u64, u64> = HashMap::new();
    let mut live_truth: HashMap<u64, u64> = HashMap::new();
    let mut rollup: Option<ReliableSketch<u64>> = None;

    for round in 0..6u64 {
        let stream = Dataset::WebStream.generate(40_000, 100 + round);
        for (i, it) in stream.iter().enumerate() {
            windows[i % 2].insert(&it.key, it.value);
            *live_truth.entry(it.key).or_insert(0) += it.value;
        }
        // rotate both shards; retired epochs land in one merged roll-up
        for w in &mut windows {
            if let Some(retired) = w.rotate() {
                match &mut rollup {
                    None => rollup = Some(retired),
                    Some(acc) => acc.merge(&retired).unwrap(),
                }
            }
        }
        // after the second rotation, the previous round's mass has left
        // every visible window and lives in the roll-up
        if round >= 2 {
            for (k, v) in live_truth.drain() {
                *archived_truth.entry(k).or_insert(0) += v;
            }
        }
    }

    let rollup = rollup.expect("epochs retired");
    // the roll-up plus the still-visible windows cover everything; for
    // fully archived keysets the roll-up alone must not undershoot when
    // combined with visible-window answers
    for (&k, &f) in archived_truth.iter().take(2_000) {
        let mut est = rollup.query_with_error(&k);
        for w in &windows {
            let e = w.query_with_error(&k);
            est.value += e.value;
            est.max_possible_error += e.max_possible_error;
        }
        let live = live_truth.get(&k).copied().unwrap_or(0);
        assert!(
            est.contains(f + live),
            "key {k}: archived {f} + live {live} ∉ {est:?}"
        );
    }
}

/// Epoched windows snapshot generation-by-generation and reassemble.
#[test]
fn epoched_window_snapshots_per_generation() {
    let mut w: EpochedReliable<u64> = EpochedReliable::<u64>::builder()
        .memory_bytes(MEMORY)
        .error_tolerance(LAMBDA)
        .emergency(EmergencyPolicy::ExactTable)
        .seed(SEED)
        .build_epoched();
    let stream = Dataset::Hadoop.generate(120_000, 51);
    for (i, it) in stream.iter().enumerate() {
        if i == 60_000 {
            w.rotate();
        }
        w.insert(&it.key, it.value);
    }

    // persist both generations independently, restore, and reassemble
    let active_bytes = w.active().snapshot().to_bytes();
    let frozen_bytes = w.frozen().unwrap().snapshot().to_bytes();
    let active =
        ReliableSketch::<u64>::restore(SketchSnapshot::from_bytes(&active_bytes).unwrap()).unwrap();
    let frozen =
        ReliableSketch::<u64>::restore(SketchSnapshot::from_bytes(&frozen_bytes).unwrap()).unwrap();

    let truth = GroundTruth::from_items(&stream);
    for (k, f) in truth.iter().take(3_000) {
        let a = active.query_with_error(k);
        let z = frozen.query_with_error(k);
        let combined = Estimate {
            value: a.value + z.value,
            max_possible_error: a.max_possible_error + z.max_possible_error,
        };
        assert_eq!(combined, w.query_with_error(k), "key {k}");
        assert!(combined.contains(f), "key {k}: {f} ∉ {combined:?}");
    }
}

/// Under key churn (flows retiring over time), the epoched window answers
/// recent-interval queries far more accurately than a single ever-growing
/// sketch, whose buckets fill with dead keys' residue — the regime the
/// epoch machinery exists for.
#[test]
fn epochs_beat_static_sketch_under_churn() {
    use reliablesketch::stream::churn::ChurnModel;

    let model = ChurnModel {
        active_keys: 5_000,
        rotation_period: 50_000,
        churn_fraction: 0.5,
        skew: 1.0,
    };
    let stream = model.generate(600_000, 71);
    let interval = 100_000usize;

    let mut window: EpochedReliable<u64> = EpochedReliable::<u64>::builder()
        .memory_bytes(64 * 1024)
        .error_tolerance(LAMBDA)
        .emergency(EmergencyPolicy::ExactTable)
        .seed(SEED)
        .build_epoched();
    let mut static_sketch = ReliableSketch::<u64>::builder()
        .memory_bytes(2 * 64 * 1024) // same total budget as both generations
        .error_tolerance(LAMBDA)
        .emergency(EmergencyPolicy::ExactTable)
        .seed(SEED)
        .build_sequential::<u64>();

    for (i, it) in stream.iter().enumerate() {
        if i > 0 && i % interval == 0 {
            window.rotate();
        }
        window.insert(&it.key, it.value);
        static_sketch.insert(&it.key, it.value);
    }

    // the operator's question: traffic per flow over the visible window
    let window_truth = GroundTruth::from_items(&stream[4 * interval..]);
    let (mut aae_window, mut aae_static) = (0.0f64, 0.0f64);
    for (k, f) in window_truth.iter() {
        aae_window += window.query(k).abs_diff(f) as f64;
        aae_static += static_sketch.query(k).abs_diff(f) as f64;
    }
    let n = window_truth.distinct() as f64;
    aae_window /= n;
    aae_static /= n;
    assert!(
        aae_window * 2.0 < aae_static,
        "epoching should cut window error at least 2x under churn: \
         window {aae_window:.2} vs static {aae_static:.2}"
    );
}

/// The sharded concurrent wrapper and sequential merging agree on the
/// certified-coverage property over the same stream.
#[test]
fn concurrent_shards_match_merge_semantics() {
    use reliablesketch::core::concurrent::ShardedReliable;
    use reliablesketch::core::ReliableConfig;

    let stream = Dataset::IpTrace.generate(150_000, 61);
    let items: Vec<(u64, u64)> = stream.iter().map(|it| (it.key, it.value)).collect();
    let truth = GroundTruth::from_items(&stream);

    let config = ReliableConfig {
        memory_bytes: MEMORY,
        lambda: LAMBDA,
        emergency: EmergencyPolicy::ExactTable,
        seed: SEED,
        ..Default::default()
    };
    let sharded = ShardedReliable::<u64>::new(config, 4);
    sharded.ingest_parallel(&items, 4);

    for (k, f) in truth.iter().take(5_000) {
        let est = sharded.query_shared(k);
        assert!(est.contains(f), "key {k}: {f} ∉ {est:?}");
    }
}
