//! The whole stack is generic over the key type; these tests run the core
//! guarantee with the key encodings real deployments use — 32-bit flow
//! IDs, 64-bit IP pairs (default everywhere else), 128-bit identifiers
//! and 13-byte network 5-tuples.

use reliablesketch::prelude::*;
use reliablesketch::stream::datasets::to_five_tuples;

fn check_guarantee<K: reliablesketch::api::Key>(items: &[(K, u64)], memory: usize, lambda: u64) {
    let mut sk = ReliableSketch::<K>::builder()
        .memory_bytes(memory)
        .error_tolerance(lambda)
        .seed(3)
        .build_sequential::<K>();
    let mut truth = std::collections::HashMap::new();
    for (k, v) in items {
        sk.insert(k, *v);
        *truth.entry(*k).or_insert(0u64) += v;
    }
    assert_eq!(sk.insertion_failures(), 0, "sized to avoid failures");
    for (k, f) in &truth {
        let est = sk.query_with_error(k);
        assert!(est.contains(*f), "{f} ∉ {est:?}");
        assert!(est.max_possible_error <= lambda);
    }
}

#[test]
fn u32_keys() {
    let items: Vec<(u32, u64)> = (0..60_000u32).map(|i| (i % 900, 1)).collect();
    check_guarantee(&items, 64 * 1024, 25);
}

#[test]
fn u64_keys() {
    let items: Vec<(u64, u64)> = (0..60_000u64).map(|i| (i % 900, 1)).collect();
    check_guarantee(&items, 64 * 1024, 25);
}

#[test]
fn u128_keys() {
    let items: Vec<(u128, u64)> = (0..60_000u128)
        .map(|i| (((i % 900) << 64) | 0xffff, 1))
        .collect();
    check_guarantee(&items, 64 * 1024, 25);
}

#[test]
fn five_tuple_keys_on_real_workload() {
    let stream = Dataset::Hadoop.generate(80_000, 5);
    let tuples = to_five_tuples(&stream);
    let items: Vec<([u8; 13], u64)> = tuples.iter().map(|it| (it.key, it.value)).collect();
    check_guarantee(&items, 96 * 1024, 25);
}

#[test]
fn five_tuple_and_u64_views_agree() {
    // the same logical stream keyed two ways gives the same per-key truth
    let stream = Dataset::Hadoop.generate(40_000, 6);
    let tuples = to_five_tuples(&stream);

    let mut sk64 = ReliableSketch::<u64>::builder()
        .memory_bytes(96 * 1024)
        .error_tolerance(25)
        .seed(9)
        .build_sequential::<u64>();
    let mut sk13 = ReliableSketch::<[u8; 13]>::builder()
        .memory_bytes(96 * 1024)
        .error_tolerance(25)
        .seed(9)
        .build_sequential::<[u8; 13]>();
    for (a, b) in stream.iter().zip(&tuples) {
        sk64.insert(&a.key, a.value);
        sk13.insert(&b.key, b.value);
    }
    let truth = GroundTruth::from_items(&stream);
    for ((k64, f), t) in truth.iter().zip(tuples.iter()) {
        // both views answer within Λ of the same truth (different hashes,
        // so estimates differ, but the guarantee binds both)
        let e64 = sk64.query_with_error(k64);
        assert!(e64.value.abs_diff(f) <= 25);
        let _ = t;
    }
    for it in &tuples {
        let e13 = sk13.query_with_error(&it.key);
        assert!(e13.max_possible_error <= 25);
    }
}
