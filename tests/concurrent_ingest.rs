//! Concurrent-correctness suite for the lock-free multi-core data path.
//!
//! Two properties are pinned here:
//!
//! 1. **Determinism** — `ShardedReliable::ingest_parallel` produces
//!    per-key estimates *identical* to a sequential `insert` replay of
//!    the same stream, for every shard/worker combination in {1, 2, 4, 8},
//!    for random streams over 3–13 shards and 2–8 workers, filtered and
//!    raw, and under a Zipf-3.0 stream whose hot shard phase 2 claims
//!    first. The two-phase design (parallel shard-affine partitioning,
//!    then shard-owned application in stream order) makes the parallel
//!    result bit-for-bit reproducible whatever order the shards are
//!    claimed in.
//! 2. **Linearizable soundness** — when producers outnumber shards and
//!    race on the same atomic buckets, the certified-interval guarantee
//!    still holds for every key: estimates never undershoot, and the MPE
//!    stays within Λ.

use proptest::prelude::*;
use reliablesketch::core::atomic::ConcurrentReliable;
use reliablesketch::core::concurrent::ShardedReliable;
use reliablesketch::core::{EmergencyPolicy, MiceFilterConfig, ReliableConfig};
use reliablesketch::prelude::*;
use rsk_api::ConcurrentSummary;
use std::collections::HashMap;

const MEMORY: usize = 512 * 1024;
const LAMBDA: u64 = 25;
const SEED: u64 = 77;

/// Paper-default configuration — since the concurrent path reached
/// feature parity this includes the (atomic) mice filter, so the
/// deterministic equivalence tests below cover the filtered variant.
fn config() -> ReliableConfig {
    ReliableConfig {
        memory_bytes: MEMORY,
        lambda: LAMBDA,
        emergency: EmergencyPolicy::ExactTable,
        seed: SEED,
        ..Default::default()
    }
}

/// The paper's "Raw" variant: no mice filter. Contended-producer stress
/// tests use this to pin the strict no-undershoot guarantee of the
/// bucket CAS path alone (the filtered path's contended guarantee is
/// covered in `concurrent_parity.rs`).
fn raw_config() -> ReliableConfig {
    ReliableConfig {
        mice_filter: None,
        ..config()
    }
}

/// Paper defaults at `mem` bytes, filtered or raw.
fn variant(mem: usize, seed: u64, raw: bool) -> ReliableConfig {
    ReliableConfig {
        memory_bytes: mem,
        seed,
        mice_filter: if raw {
            None
        } else {
            Some(MiceFilterConfig::default())
        },
        ..Default::default()
    }
}

/// Sequential oracle: the one-item-at-a-time shared path.
fn replay(cfg: ReliableConfig, shards: usize, items: &[(u64, u64)]) -> ShardedReliable<u64> {
    let sk = ShardedReliable::<u64>::new(cfg, shards);
    for (k, v) in items {
        sk.insert_shared(k, *v);
    }
    sk
}

fn zipf_items(n: usize, seed: u64) -> (Vec<(u64, u64)>, HashMap<u64, u64>) {
    let stream = Dataset::Zipf { skew: 1.0 }.generate(n, seed);
    let items: Vec<(u64, u64)> = stream.iter().map(|it| (it.key, it.value)).collect();
    let mut truth = HashMap::new();
    for (k, v) in &items {
        *truth.entry(*k).or_insert(0u64) += v;
    }
    (items, truth)
}

/// All 16 shard × worker combinations agree exactly with the sequential
/// replay — and with each other.
#[test]
fn parallel_ingest_identical_to_sequential_all_combinations() {
    let (items, truth) = zipf_items(60_000, 5);

    for shards in [1usize, 2, 4, 8] {
        let sequential = ShardedReliable::<u64>::new(config(), shards);
        for (k, v) in &items {
            sequential.insert_shared(k, *v);
        }

        for workers in [1usize, 2, 4, 8] {
            let parallel = ShardedReliable::<u64>::new(config(), shards);
            assert_eq!(parallel.ingest_parallel(&items, workers), items.len());

            for (k, &f) in &truth {
                let p = parallel.query_shared(k);
                let s = sequential.query_shared(k);
                assert_eq!(
                    p, s,
                    "estimate diverged at key {k} ({shards} shards, {workers} workers)"
                );
                assert!(
                    p.contains(f),
                    "guarantee broken at key {k}: {f} ∉ {p:?} \
                     ({shards} shards, {workers} workers)"
                );
            }
            assert_eq!(
                parallel.insertion_failures(),
                sequential.insertion_failures()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bit-equality across worker counts, shard counts and the filtered
    /// and raw configurations: always equal to a sequential replay.
    #[test]
    fn prop_worker_and_shard_counts_are_bit_identical(
        ops in proptest::collection::vec((0u64..400, 1u64..6), 1..800),
        workers in 2usize..9,
        shards in 3usize..14,
        raw in proptest::bool::ANY,
    ) {
        let cfg = variant(96 * 1024, 7, raw);
        let oracle = replay(cfg.clone(), shards, &ops);

        let parallel = ShardedReliable::<u64>::new(cfg, shards);
        parallel.ingest_parallel(&ops, workers);

        for k in ops.iter().map(|(k, _)| *k) {
            prop_assert_eq!(parallel.query_shared(&k), oracle.query_shared(&k));
        }
        prop_assert_eq!(parallel.insertion_failures(), oracle.insertion_failures());
    }
}

/// Contended skew: Zipf 3.0 routes the rank-1 key's mass to one shard,
/// the one phase 2 claims first. Answers, certified intervals and
/// failure counts must agree with the sequential oracle at every worker
/// count. The filtered 2-worker case ingests through
/// `&dyn ConcurrentSummary`, so trait dispatch reaches the same path.
#[test]
fn contended_skew_stress_is_deterministic_and_bounded() {
    let stream = Dataset::Zipf { skew: 3.0 }.generate(60_000, 21);
    let items: Vec<(u64, u64)> = stream.iter().map(|it| (it.key, it.value)).collect();
    let truth = GroundTruth::from_items(&stream);

    for raw in [false, true] {
        let cfg = variant(256 * 1024, 21, raw);
        let oracle = replay(cfg.clone(), 16, &items);
        for workers in [2usize, 4, 8] {
            let sk = ShardedReliable::<u64>::new(cfg.clone(), 16);
            let ingested = if !raw && workers == 2 {
                let dyn_sk: &dyn ConcurrentSummary<u64> = &sk;
                dyn_sk.ingest_parallel(&items, workers)
            } else {
                sk.ingest_parallel(&items, workers)
            };
            assert_eq!(ingested, items.len());
            assert_eq!(sk.insertion_failures(), oracle.insertion_failures());
            for (k, f) in truth.iter() {
                let est = sk.query_shared(k);
                assert_eq!(
                    est,
                    oracle.query_shared(k),
                    "divergence at key {k}, raw={raw}, {workers}w"
                );
                assert!(
                    est.contains(f),
                    "guarantee broken at key {k}: {f} ∉ {est:?}"
                );
            }
        }
    }
}

/// Worker count beyond the shard count neither deadlocks nor changes the
/// answer (phase 2 simply leaves surplus workers without a shard).
#[test]
fn more_workers_than_shards_is_harmless() {
    let (items, _) = zipf_items(20_000, 8);
    let wide = ShardedReliable::<u64>::new(config(), 2);
    wide.ingest_parallel(&items, 8);
    let narrow = ShardedReliable::<u64>::new(config(), 2);
    narrow.ingest_parallel(&items, 2);
    for (k, _) in &items {
        assert_eq!(wide.query_shared(k), narrow.query_shared(k));
    }
}

/// Stress: 8 producer threads race through `&self` into 2 shards — four
/// producers per shard contending on the same CAS buckets. The election
/// outcomes are nondeterministic but the guarantee must survive: no
/// undershoot, MPE ≤ Λ, every certified interval contains the truth.
#[test]
fn producers_outnumber_shards_stress() {
    const PRODUCERS: usize = 8;
    let (items, truth) = zipf_items(120_000, 13);
    let sketch = ShardedReliable::<u64>::new(raw_config(), 2);

    let slice_len = items.len().div_ceil(PRODUCERS);
    std::thread::scope(|scope| {
        for part in items.chunks(slice_len) {
            let sketch = &sketch;
            scope.spawn(move || {
                for (k, v) in part {
                    sketch.insert_shared(k, *v);
                }
            });
        }
    });

    assert_eq!(sketch.insertion_failures(), 0, "undersized for this test");
    for (k, &f) in &truth {
        let est = sketch.query_shared(k);
        assert!(est.value >= f, "undershoot at key {k}: {est:?} < {f}");
        assert!(
            est.max_possible_error <= LAMBDA,
            "MPE above Λ at key {k}: {est:?}"
        );
        assert!(est.contains(f), "key {k}: {f} ∉ {est:?}");
    }
}

/// The same stress on a single unsharded `ConcurrentReliable` — maximum
/// contention, every producer on every bucket — through the
/// `ConcurrentSummary` trait object surface.
#[test]
fn trait_object_ingest_under_contention() {
    let (items, truth) = zipf_items(60_000, 21);
    let sketch = ConcurrentReliable::<u64>::new(raw_config());
    let dyn_sketch: &dyn ConcurrentSummary<u64> = &sketch;
    assert_eq!(dyn_sketch.ingest_parallel(&items, 8), items.len());

    for (k, &f) in &truth {
        let est = sketch.query_with_error(k);
        assert!(est.contains(f), "key {k}: {f} ∉ {est:?}");
        assert!(est.max_possible_error <= LAMBDA);
    }
    assert_eq!(sketch.insertion_failures(), 0);
}

/// Weighted values cross the per-layer lock boundaries identically in
/// the parallel and sequential paths.
#[test]
fn weighted_streams_stay_deterministic() {
    let items: Vec<(u64, u64)> = (0..50_000u64)
        .map(|i| (i % 701, 1 + (i % 29) * 3))
        .collect();
    let sequential = ShardedReliable::<u64>::new(config(), 4);
    for (k, v) in &items {
        sequential.insert_shared(k, *v);
    }
    let parallel = ShardedReliable::<u64>::new(config(), 4);
    parallel.ingest_parallel(&items, 4);
    for k in 0..701u64 {
        assert_eq!(parallel.query_shared(&k), sequential.query_shared(&k));
    }
}

/// The memory budget is split with no remainder loss and the guarantee
/// holds on an awkward (prime) budget and shard count.
#[test]
fn odd_budgets_split_exactly() {
    let cfg = ReliableConfig {
        memory_bytes: 300_007, // prime: maximal remainder pressure
        ..config()
    };
    let sketch = ShardedReliable::<u64>::new(cfg.clone(), 7);
    let budgets: usize = (0..7).map(|i| sketch.shard(i).config().memory_bytes).sum();
    assert_eq!(budgets, cfg.memory_bytes);

    let (items, truth) = zipf_items(30_000, 3);
    sketch.ingest_parallel(&items, 4);
    if sketch.insertion_failures() == 0 {
        for (k, &f) in &truth {
            assert!(sketch.query_shared(k).contains(f));
        }
    }
}
