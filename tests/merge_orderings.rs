//! Merge-order robustness: folding shards in any order or grouping must
//! keep every certified interval honest.
//!
//! The per-bucket union rule is commutative on answers (tested at bucket
//! level in `rsk-core`), but tie-breaking and hint propagation could in
//! principle make different fold *orders* produce different — though
//! individually still sound — summaries. These tests pin down the
//! property that actually matters to a collector: whatever order the
//! shard reports arrive in, the folded answers contain the combined
//! truth.

use reliablesketch::core::EmergencyPolicy;
use reliablesketch::prelude::*;
use std::collections::HashMap;

fn build(seed: u64) -> ReliableSketch<u64> {
    ReliableSketch::<u64>::builder()
        .memory_bytes(24 * 1024)
        .error_tolerance(25)
        .emergency(EmergencyPolicy::ExactTable)
        .seed(seed)
        .build_sequential()
}

/// Three shards over one stream, folded in every permutation and both
/// groupings; each fold must cover the truth for every key.
#[test]
fn all_fold_orders_stay_sound() {
    let stream = Dataset::IpTrace.generate(90_000, 17);
    let mut truth: HashMap<u64, u64> = HashMap::new();
    let shards: Vec<ReliableSketch<u64>> = {
        let mut v: Vec<_> = (0..3).map(|_| build(55)).collect();
        for (i, it) in stream.iter().enumerate() {
            v[i % 3].insert(&it.key, it.value);
            *truth.entry(it.key).or_insert(0) += it.value;
        }
        v
    };

    let orders: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    for order in orders {
        // left fold: (a ⊕ b) ⊕ c
        let mut acc = shards[order[0]].clone();
        acc.merge(&shards[order[1]]).unwrap();
        acc.merge(&shards[order[2]]).unwrap();

        // right-ish grouping: a ⊕ (b ⊕ c)
        let mut bc = shards[order[1]].clone();
        bc.merge(&shards[order[2]]).unwrap();
        let mut acc2 = shards[order[0]].clone();
        acc2.merge(&bc).unwrap();

        for (&k, &f) in truth.iter() {
            let left = acc.query_with_error(&k);
            let right = acc2.query_with_error(&k);
            assert!(left.contains(f), "order {order:?} left fold broke key {k}");
            assert!(
                right.contains(f),
                "order {order:?} right fold broke key {k}"
            );
        }
    }
}

/// Folding a shard into itself repeatedly (an aggregation bug a collector
/// could realistically have) must still never produce a lying interval —
/// the answer legitimately covers "the stream counted twice".
#[test]
fn double_counting_is_over_but_never_dishonest() {
    let stream = Dataset::Hadoop.generate(60_000, 19);
    let mut a = build(77);
    let mut truth: HashMap<u64, u64> = HashMap::new();
    for it in &stream {
        a.insert(&it.key, it.value);
        *truth.entry(it.key).or_insert(0) += it.value;
    }
    let copy = a.clone();
    a.merge(&copy).unwrap();
    for (&k, &f) in truth.iter() {
        let est = a.query_with_error(&k);
        // the merged sketch legitimately describes stream+stream
        assert!(est.contains(2 * f), "key {k}: 2×{f} ∉ {est:?}");
        assert!(est.value >= 2 * f, "double count lost mass at {k}");
    }
}

/// Mixed-provenance folds: a snapshot-restored shard merges exactly like
/// the original it was persisted from.
#[test]
fn restored_shards_merge_identically() {
    let stream = Dataset::WebStream.generate(80_000, 23);
    let mut a = build(88);
    let mut b = build(88);
    for (i, it) in stream.iter().enumerate() {
        if i % 2 == 0 {
            a.insert(&it.key, it.value);
        } else {
            b.insert(&it.key, it.value);
        }
    }
    let b_restored = ReliableSketch::<u64>::restore(b.snapshot()).unwrap();

    let mut direct = a.clone();
    direct.merge(&b).unwrap();
    let mut via_snapshot = a.clone();
    via_snapshot.merge(&b_restored).unwrap();

    for it in stream.iter().take(10_000) {
        assert_eq!(
            direct.query_with_error(&it.key),
            via_snapshot.query_with_error(&it.key),
            "divergence at {}",
            it.key
        );
    }
}
