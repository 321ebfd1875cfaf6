//! Batched ingest ≡ item loop, bit-for-bit.
//!
//! Every sketch flavour has a batched ingest path (`insert_batch` /
//! `ingest_batched`) that hashes the layer-0 prefix of each 64-item
//! chunk in one tight loop before applying the items. Its contract is
//! that results are **bit-identical to the scalar item loop** — same
//! answers, same certified intervals, same filter state, same emergency
//! entries, same stats accounting. This suite pins exactly that, with
//! the same discipline as `tests/concurrent_ingest.rs`: every batched
//! flavour is compared against a sequential one-item-at-a-time oracle
//! over the same stream. (The file name predates the removal of the
//! vectorized variant of the batch prefix; the contract is unchanged.)
//! Property-test depth honors `PROPTEST_CASES` (the suites below use the
//! default proptest config, which reads it).

use proptest::prelude::*;
use reliablesketch::core::{ConcurrentReliable, EpochedConcurrent, MiceFilterConfig};
use reliablesketch::hash::HashFamily;
use reliablesketch::prelude::*;

fn config(mem: usize, seed: u64, raw: bool) -> ReliableConfig {
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

/// Keys that are *not* in any generated stream (emergency/ghost probes).
const GHOST_KEYS: std::ops::Range<u64> = 5_000_000..5_000_040;

/// Compare two sequential sketches observationally: answers + intervals
/// for every given key and for ghost keys (which exercises filter state
/// and emergency entries), plus failure/drop/stat accounting.
fn assert_seq_identical(a: &ReliableSketch<u64>, b: &ReliableSketch<u64>, keys: &[u64]) {
    for k in keys
        .iter()
        .chain(GHOST_KEYS.clone().collect::<Vec<_>>().iter())
    {
        assert_eq!(a.query_with_error(k), b.query_with_error(k), "key {k}");
    }
    assert_eq!(a.insertion_failures(), b.insertion_failures());
    assert_eq!(a.dropped_value(), b.dropped_value());
    assert_eq!(a.stats().inserts(), b.stats().inserts());
    assert_eq!(
        a.stats().avg_insert_hash_calls(),
        b.stats().avg_insert_hash_calls(),
        "hash-call accounting must be identical"
    );
}

/// Compare two concurrent sketches observationally (single-owner runs
/// are deterministic, so exact equality is the contract).
fn assert_conc_identical(a: &ConcurrentReliable<u64>, b: &ConcurrentReliable<u64>, keys: &[u64]) {
    for k in keys
        .iter()
        .chain(GHOST_KEYS.clone().collect::<Vec<_>>().iter())
    {
        assert_eq!(a.query_with_error(k), b.query_with_error(k), "key {k}");
    }
    assert_eq!(a.insertion_failures(), b.insertion_failures());
    assert_eq!(a.dropped_value(), b.dropped_value());
    assert_eq!(
        a.array().stats().saturations(),
        b.array().stats().saturations(),
        "saturation events must fire in the same order and count"
    );
}

proptest! {
    /// `ReliableSketch`: batched ingest ≡ item loop, across batch sizes,
    /// value distributions (zero values included) and filtered/raw.
    #[test]
    fn prop_sequential_batched_equals_item_loop(
        ops in proptest::collection::vec((0u64..300, 0u64..6), 1..1200),
        batch in 1usize..300,
        raw in proptest::bool::ANY,
    ) {
        let cfg = config(48 * 1024, 11, raw);
        let mut oracle = ReliableSketch::<u64>::new(cfg.clone());
        for (k, v) in &ops {
            if *v > 0 {
                oracle.insert(k, *v);
            }
        }
        let mut batched = ReliableSketch::<u64>::new(cfg);
        let processed = batched.ingest_batched(ops.iter().copied(), batch);
        prop_assert_eq!(processed, ops.len());
        let keys: Vec<u64> = ops.iter().map(|(k, _)| *k).collect();
        assert_seq_identical(&batched, &oracle, &keys);
    }

    /// `ConcurrentReliable`: batched ingest ≡ `insert_concurrent` loop,
    /// with and without the mice filter and the top-K layer.
    #[test]
    fn prop_concurrent_batched_equals_item_loop(
        ops in proptest::collection::vec((0u64..300, 0u64..6), 1..1200),
        batch in 1usize..300,
        raw in proptest::bool::ANY,
        topk in proptest::bool::ANY,
    ) {
        let cfg = config(48 * 1024, 13, raw);
        let build = |cfg: ReliableConfig| {
            let sk = ConcurrentReliable::<u64>::new(cfg);
            if topk { sk.with_top_k(8) } else { sk }
        };
        let oracle = build(cfg.clone());
        for (k, v) in &ops {
            oracle.insert_concurrent(k, *v);
        }
        let batched = build(cfg);
        let processed = batched.ingest_batched(ops.iter().copied(), batch);
        prop_assert_eq!(processed, ops.len());
        let keys: Vec<u64> = ops.iter().map(|(k, _)| *k).collect();
        assert_conc_identical(&batched, &oracle, &keys);
        for k in [3usize, 8] {
            prop_assert_eq!(batched.certified_top_k(k), oracle.certified_top_k(k));
        }
    }

    /// `ShardedReliable`: one-caller batched partition ≡ `insert_shared`
    /// loop, across shard counts.
    #[test]
    fn prop_sharded_batched_equals_item_loop(
        ops in proptest::collection::vec((0u64..400, 1u64..6), 1..1000),
        batch in 1usize..200,
        shards in 2usize..10,
        raw in proptest::bool::ANY,
    ) {
        let cfg = config(96 * 1024, 7, raw);
        let oracle = ShardedReliable::<u64>::new(cfg.clone(), shards);
        for (k, v) in &ops {
            oracle.insert_shared(k, *v);
        }
        let batched = ShardedReliable::<u64>::new(cfg, shards);
        let processed = batched.ingest_batched(ops.iter().copied(), batch);
        prop_assert_eq!(processed, ops.len());
        for (k, _) in &ops {
            prop_assert_eq!(batched.query_shared(k), oracle.query_shared(k));
        }
        prop_assert_eq!(batched.insertion_failures(), oracle.insertion_failures());
    }

    /// `EpochedConcurrent`: batched inserts land in the active
    /// generation exactly like the shared item loop, across a rotation.
    #[test]
    fn prop_epoched_batched_equals_item_loop(
        ops in proptest::collection::vec((0u64..200, 1u64..5), 2..600),
        batch in 1usize..100,
        raw in proptest::bool::ANY,
    ) {
        let cfg = config(48 * 1024, 19, raw);
        let split = ops.len() / 2;

        let mut oracle = EpochedConcurrent::<u64>::new(cfg.clone());
        let mut batched = EpochedConcurrent::<u64>::new(cfg);
        for (k, v) in &ops[..split] {
            oracle.insert_shared(k, *v);
        }
        for chunk in ops[..split].chunks(batch) {
            batched.insert_batch(chunk);
        }
        oracle.rotate();
        batched.rotate();
        for (k, v) in &ops[split..] {
            oracle.insert_shared(k, *v);
        }
        for chunk in ops[split..].chunks(batch) {
            batched.insert_batch(chunk);
        }

        for (k, _) in &ops {
            prop_assert_eq!(
                batched.query_with_error_concurrent(k),
                oracle.query_with_error_concurrent(k)
            );
            prop_assert_eq!(
                batched.active().query_with_error(k),
                oracle.active().query_with_error(k)
            );
        }
        prop_assert_eq!(batched.insertion_failures(), oracle.insertion_failures());
    }
}

/// Deterministic sweep over the ISSUE's full batch-size span (1..=4096),
/// including every boundary around the 64-item chunk and the 4-lane
/// group, on a heavy-tailed stream for all four flavours.
#[test]
fn batch_size_sweep_uniform_and_zipf() {
    let uniform: Vec<(u64, u64)> = (0..30_000u64)
        .map(|i| (i.wrapping_mul(2_654_435_761) % 700, 1 + i % 5))
        .collect();
    let zipf: Vec<(u64, u64)> = Dataset::Zipf { skew: 1.2 }
        .generate(30_000, 42)
        .iter()
        .map(|it| (it.key, it.value))
        .collect();
    for (name, items) in [("uniform", uniform), ("zipf", zipf)] {
        let keys: Vec<u64> = items.iter().map(|(k, _)| *k).collect();
        for raw in [false, true] {
            let cfg = config(64 * 1024, 5, raw);

            let mut seq_oracle = ReliableSketch::<u64>::new(cfg.clone());
            let conc_oracle = ConcurrentReliable::<u64>::new(cfg.clone());
            for &(k, v) in &items {
                seq_oracle.insert(&k, v);
                conc_oracle.insert_concurrent(&k, v);
            }

            for batch in [1usize, 2, 3, 4, 5, 7, 8, 16, 63, 64, 65, 129, 1024, 4096] {
                let mut seq = ReliableSketch::<u64>::new(cfg.clone());
                assert_eq!(
                    seq.ingest_batched(items.iter().copied(), batch),
                    items.len()
                );
                assert_seq_identical(&seq, &seq_oracle, &keys);

                let conc = ConcurrentReliable::<u64>::new(cfg.clone());
                assert_eq!(
                    conc.ingest_batched(items.iter().copied(), batch),
                    items.len(),
                    "{name} raw={raw} batch={batch}"
                );
                assert_conc_identical(&conc, &conc_oracle, &keys);
            }
        }
    }
}

/// Build `n` distinct keys that all land in layer-0 bucket of `probe`'s
/// geometry — the adversarial near-collision set stressing the lock-in
/// rule (every item fights over one Error-Sensible bucket, maximizing
/// elections, lock diversions and descents).
fn colliding_keys(seed: u64, width: usize, n: usize) -> Vec<u64> {
    // Both sketch flavours build `HashFamily::new(depth, config.seed)`,
    // so row 0 of a fresh family over the same seed is the layer-0 hash.
    let family = HashFamily::new(1, seed);
    let target = family.index(0, &0u64, width);
    let mut keys = vec![0u64];
    let mut candidate = 1u64;
    while keys.len() < n {
        if family.index(0, &candidate, width) == target {
            keys.push(candidate);
        }
        candidate += 1;
    }
    keys
}

/// Adversarial near-collision stream: heavy values concentrated on one
/// layer-0 bucket. Saturation ordering, lock diversions and emergency
/// entries must all match the item loop exactly — this is the stream
/// where an out-of-order apply bug would surface.
#[test]
fn adversarial_near_collisions_stay_bit_identical() {
    let cfg = config(16 * 1024, 23, true);
    let probe = ConcurrentReliable::<u64>::new(cfg.clone());
    let w0 = probe.geometry().width(0);
    let keys = colliding_keys(23, w0, 48);

    // interleave the colliders adversarially: bursts, alternations and
    // value spikes that force lock-in and layer descent
    let mut items: Vec<(u64, u64)> = Vec::new();
    for round in 0..400u64 {
        for (i, &k) in keys.iter().enumerate() {
            let v = 1 + ((round + i as u64) % 7) * 11;
            items.push((k, v));
            if i % 5 == 0 {
                items.push((keys[(i * 7 + 3) % keys.len()], 40));
            }
        }
    }

    let mut seq_oracle = ReliableSketch::<u64>::new(cfg.clone());
    let conc_oracle = ConcurrentReliable::<u64>::new(cfg.clone());
    for &(k, v) in &items {
        seq_oracle.insert(&k, v);
        conc_oracle.insert_concurrent(&k, v);
    }

    for batch in [1usize, 4, 64, 65, 1024] {
        let mut seq = ReliableSketch::<u64>::new(cfg.clone());
        seq.ingest_batched(items.iter().copied(), batch);
        assert_seq_identical(&seq, &seq_oracle, &keys);

        let conc = ConcurrentReliable::<u64>::new(cfg.clone());
        conc.ingest_batched(items.iter().copied(), batch);
        assert_conc_identical(&conc, &conc_oracle, &keys);
    }
}

/// Filter state parity, observed exhaustively: on a mouse-dominated
/// stream most keys live entirely in the mice filter, so per-key
/// equality of answers *and* intervals pins the filter's cell state.
#[test]
fn mice_filter_state_is_identical_after_batched_ingest() {
    let cfg = config(64 * 1024, 31, false);
    let items: Vec<(u64, u64)> = (0..40_000u64).map(|i| (i % 9000, 1)).collect();

    let conc_oracle = ConcurrentReliable::<u64>::new(cfg.clone());
    for &(k, v) in &items {
        conc_oracle.insert_concurrent(&k, v);
    }
    let batched = ConcurrentReliable::<u64>::new(cfg);
    batched.insert_batch(&items);

    assert!(batched.has_filter());
    let all_keys: Vec<u64> = (0..9000).collect();
    assert_conc_identical(&batched, &conc_oracle, &all_keys);
}

/// The ingest wrappers flush partial trailing batches on every flavour.
#[test]
fn ingest_batched_partial_flush_on_concurrent_flavours() {
    for (n, batch) in [(0usize, 8usize), (7, 8), (64, 64), (1001, 33)] {
        let cfg = config(32 * 1024, 3, false);
        let conc = ConcurrentReliable::<u64>::new(cfg.clone());
        assert_eq!(
            conc.ingest_batched((0..n as u64).map(|i| (i % 13, 1)), batch),
            n
        );
        for k in 0..13u64 {
            let truth = n as u64 / 13 + u64::from(k < n as u64 % 13);
            assert!(conc.query_with_error(&k).contains(truth), "key {k}");
        }

        let sharded = ShardedReliable::<u64>::new(cfg, 4);
        assert_eq!(
            sharded.ingest_batched((0..n as u64).map(|i| (i % 13, 1)), batch),
            n
        );
    }
}
