//! Feature-parity suite for the lock-free data path: the concurrent
//! types run the paper's *full* §3.3 design (mice filter + emergency
//! store), support epoch windows, and merge — with the sequential
//! `ReliableSketch` as the differential reference.
//!
//! Acceptance pins:
//!
//! 1. Filtered `ConcurrentReliable` driven by **one** worker is
//!    query-equivalent (value *and* MPE) to the filtered sequential
//!    sketch on the same stream.
//! 2. `merge(seq, conc)` certifies the combined stream exactly like a
//!    single-sketch replay of it does.
//! 3. Mice-filter saturation/promotion boundaries behave identically on
//!    both paths, and the mouse→elephant crossover under contention
//!    keeps every certified interval.

use reliablesketch::core::atomic::ConcurrentReliable;
use reliablesketch::core::concurrent::ShardedReliable;
use reliablesketch::core::{
    EmergencyPolicy, LayerGeometry, MiceFilterConfig, ReliableConfig, ATOMIC_BUCKET_BYTES,
};
use reliablesketch::prelude::*;
use rsk_api::ConcurrentSummary;
use std::collections::HashMap;

const SEED: u64 = 4242;

fn filtered_config(counter_bits: u32) -> ReliableConfig {
    ReliableConfig {
        memory_bytes: 128 * 1024,
        lambda: 25,
        mice_filter: Some(MiceFilterConfig {
            counter_bits,
            ..Default::default()
        }),
        emergency: EmergencyPolicy::ExactTable,
        seed: SEED,
        ..Default::default()
    }
}

/// The geometry `ConcurrentReliable::new` derives, materialized so a
/// sequential twin can be built over the *same* layer schedule.
fn atomic_geometry(config: &ReliableConfig) -> LayerGeometry {
    LayerGeometry::derive(
        (config.layer_bytes() / ATOMIC_BUCKET_BYTES).max(1),
        config.layer_lambda(),
        config.r_w,
        config.r_lambda,
        config.depth,
    )
}

fn twins(config: &ReliableConfig) -> (ConcurrentReliable<u64>, ReliableSketch<u64>) {
    let geometry = atomic_geometry(config);
    (
        ConcurrentReliable::with_geometry(config.clone(), geometry.clone()),
        ReliableSketch::with_geometry(config.clone(), geometry),
    )
}

/// A mixed stream: heavy elephants, a mouse tail, and weighted values
/// that straddle the filter threshold.
fn mixed_items(n: usize, seed: u64) -> (Vec<(u64, u64)>, HashMap<u64, u64>) {
    let stream = Dataset::Zipf { skew: 1.2 }.generate(n, seed);
    let items: Vec<(u64, u64)> = stream.iter().map(|it| (it.key, it.value)).collect();
    let mut truth = HashMap::new();
    for (k, v) in &items {
        *truth.entry(*k).or_insert(0u64) += v;
    }
    (items, truth)
}

/// Acceptance pin 1: the filtered concurrent sketch, one worker, answers
/// bit-for-bit like the filtered sequential sketch — through both the
/// item loop and the `ingest_parallel(…, 1)` trait path.
#[test]
fn filtered_one_worker_equals_filtered_sequential() {
    for bits in [2u32, 8] {
        let config = filtered_config(bits);
        let (atomic, mut classic) = twins(&config);
        assert!(atomic.has_filter() && classic.has_filter(), "bits={bits}");
        let (items, truth) = mixed_items(80_000, 11);
        assert_eq!(atomic.ingest_parallel(&items, 1), items.len());
        for &(k, v) in &items {
            classic.insert(&k, v);
        }
        for (k, &f) in &truth {
            let a = atomic.query_with_error(k);
            let c = rsk_api::ErrorSensing::query_with_error(&classic, k);
            assert_eq!(
                (a.value, a.max_possible_error),
                (c.value, c.max_possible_error),
                "bits={bits}: filtered divergence at key {k}"
            );
            assert!(a.contains(f), "bits={bits} key {k}: {f} ∉ {a:?}");
        }
        assert_eq!(atomic.insertion_failures(), classic.insertion_failures());
        assert_eq!(atomic.mpe_ceiling(), classic.mpe_ceiling());
    }
}

/// Weights at and above the packed count's `2²⁸ − 1` ceiling: the excess
/// a saturated atomic bucket clips goes to the emergency store, so the
/// one-worker `ExactTable` twin answers exactly like the sequential
/// sketch, whose counters are unbounded.
#[test]
fn saturating_weights_one_worker_equal_sequential() {
    let config = filtered_config(2);
    let (atomic, mut classic) = twins(&config);
    let items = [
        (7u64, 1u64 << 30),
        (9, (1 << 28) - 2),
        (9, 1 << 28),
        (11, 3),
        (7, 1 << 29),
        (7, 1),
    ];
    assert_eq!(atomic.ingest_parallel(&items, 1), items.len());
    let mut truth: HashMap<u64, u64> = HashMap::new();
    for &(k, v) in &items {
        classic.insert(&k, v);
        *truth.entry(k).or_insert(0) += v;
    }
    for (k, &f) in &truth {
        let a = atomic.query_with_error(k);
        let c = rsk_api::ErrorSensing::query_with_error(&classic, k);
        assert_eq!(a, c, "saturating divergence at key {k}");
        assert!(a.contains(f), "key {k}: {f} ∉ {a:?}");
    }
}

/// Mice-filter boundary behavior, pinned value-by-value against the
/// sequential filter: absorption below the threshold, the exact
/// saturation crossover, and the split of a value straddling it.
#[test]
fn mice_saturation_and_promotion_boundaries_match_sequential() {
    let config = filtered_config(8); // threshold = min(255, λ₁) = 15
    let (atomic, mut classic) = twins(&config);
    let threshold = config.filter_threshold();
    assert_eq!(threshold, 15);

    let mouse = 7_001u64;
    // creep up to one unit below the threshold: everything absorbed,
    // nothing reaches the bucket layers on either path
    for _ in 0..threshold - 1 {
        atomic.insert_concurrent(&mouse, 1);
        classic.insert(&mouse, 1);
    }
    let (a, c) = (
        atomic.query_with_error(&mouse),
        rsk_api::ErrorSensing::query_with_error(&classic, &mouse),
    );
    assert_eq!(
        (a.value, a.max_possible_error),
        (c.value, c.max_possible_error)
    );
    assert_eq!(
        a.value,
        threshold - 1,
        "unsaturated mouse answers its counter"
    );

    // the promotion insert: crosses the threshold, from here on the key
    // lives in the bucket layers of both paths
    atomic.insert_concurrent(&mouse, 1);
    classic.insert(&mouse, 1);
    for _ in 0..500 {
        atomic.insert_concurrent(&mouse, 1);
        classic.insert(&mouse, 1);
    }
    let (a, c) = (
        atomic.query_with_error(&mouse),
        rsk_api::ErrorSensing::query_with_error(&classic, &mouse),
    );
    assert_eq!(
        (a.value, a.max_possible_error),
        (c.value, c.max_possible_error)
    );
    assert!(
        a.contains(threshold + 500),
        "promoted elephant lost mass: {a:?}"
    );

    // a single value straddling the boundary splits: threshold absorbed,
    // remainder into layer 0 — identically on both paths
    let straddler = 7_002u64;
    atomic.insert_concurrent(&straddler, threshold + 9);
    classic.insert(&straddler, threshold + 9);
    let (a, c) = (
        atomic.query_with_error(&straddler),
        rsk_api::ErrorSensing::query_with_error(&classic, &straddler),
    );
    assert_eq!(
        (a.value, a.max_possible_error),
        (c.value, c.max_possible_error)
    );
    assert!(a.contains(threshold + 9));
}

/// Mouse→elephant crossover under contention: eight producers promote
/// the same keys through the atomic filter simultaneously. Every
/// certified interval holds the truth, and the MPE ceiling holds.
#[test]
fn contended_promotion_keeps_the_guarantee() {
    let config = filtered_config(2);
    let sketch = ConcurrentReliable::<u64>::new(config);
    const PRODUCERS: u64 = 8;
    const PER_KEY: u64 = 40; // well past the 2-bit threshold of 3
    const KEYS: u64 = 2_000;
    std::thread::scope(|s| {
        for _ in 0..PRODUCERS {
            let sketch = &sketch;
            s.spawn(move || {
                for i in 0..PER_KEY * KEYS {
                    sketch.insert_concurrent(&(i % KEYS), 1);
                }
            });
        }
    });
    assert_eq!(sketch.insertion_failures(), 0);
    let truth = PRODUCERS * PER_KEY;
    for k in 0..KEYS {
        let est = sketch.query_with_error(&k);
        assert!(est.contains(truth), "key {k}: {truth} ∉ {est:?}");
        assert!(est.max_possible_error <= sketch.mpe_ceiling());
    }
}

/// Acceptance pin 2: folding a sequential shard into a concurrent
/// collector certifies the combined stream, exactly as a single sketch
/// replaying the whole stream does.
#[test]
fn merge_seq_into_conc_matches_single_sketch_replay() {
    let config = filtered_config(2);
    let geometry = atomic_geometry(&config);
    let mut seq = ReliableSketch::<u64>::with_geometry(config.clone(), geometry.clone());
    let mut collector = ConcurrentReliable::<u64>::with_geometry(config.clone(), geometry.clone());
    let replay = ConcurrentReliable::<u64>::with_geometry(config, geometry);

    let (items, truth) = mixed_items(60_000, 29);
    for (i, &(k, v)) in items.iter().enumerate() {
        if i % 2 == 0 {
            seq.insert(&k, v);
        } else {
            collector.insert_concurrent(&k, v);
        }
        replay.insert_concurrent(&k, v);
    }
    collector.merge_from_sequential(&seq).unwrap();
    assert!(collector.is_merged());

    for (k, &f) in &truth {
        let merged = collector.query_with_error(k);
        let rep = replay.query_with_error(k);
        // both certify the same combined truth…
        assert!(merged.contains(f), "key {k}: {f} ∉ merged {merged:?}");
        assert!(rep.contains(f), "key {k}: {f} ∉ replay {rep:?}");
        // …and the merged answer never reports less than the replay's
        // certified floor (it may carry extra, honestly-reported
        // cross-shard ambiguity in its MPE)
        assert!(merged.value >= rep.lower_bound(), "key {k}");
    }
}

/// Distributed scenario end-to-end: two sites ingest in parallel on
/// sharded sketches, the collector merges them shard-wise, and every
/// combined count stays certified.
#[test]
fn sharded_sites_merge_after_parallel_ingest() {
    let config = filtered_config(2);
    let mut site_a = ShardedReliable::<u64>::new(config.clone(), 4);
    let site_b = ShardedReliable::<u64>::new(config, 4);
    let (items, truth) = mixed_items(80_000, 37);
    let (half_a, half_b) = items.split_at(items.len() / 2);
    site_a.ingest_parallel(half_a, 4);
    site_b.ingest_parallel(half_b, 4);
    site_a.merge(&site_b).unwrap();
    for (k, &f) in &truth {
        let est = site_a.query_shared(k);
        assert!(est.contains(f), "key {k}: {f} ∉ {est:?}");
    }
}

/// Epoch windows on the lock-free path: rotate across three measurement
/// intervals with parallel producers, check the visible window against
/// the window truth, and roll retired epochs into a long-horizon
/// aggregate via `Merge`.
#[test]
fn epoched_concurrent_windows_and_rollup() {
    use rsk_api::Merge;
    let mut window = EpochedConcurrent::<u64>::builder()
        .memory_bytes(128 * 1024)
        .error_tolerance(25)
        .emergency(EmergencyPolicy::ExactTable)
        .seed(SEED)
        .build_epoched_concurrent();

    let mut rollup: Option<ConcurrentReliable<u64>> = None;
    let mut epoch_truth: [HashMap<u64, u64>; 2] = [HashMap::new(), HashMap::new()];
    let mut all_truth: HashMap<u64, u64> = HashMap::new();

    for epoch in 0..3 {
        let (items, truth) = mixed_items(30_000, 100 + epoch);
        // one worker: the filtered window path stays exact
        window.ingest_parallel(&items, 1);
        for (k, v) in &truth {
            *all_truth.entry(*k).or_insert(0) += v;
        }
        epoch_truth.swap(0, 1);
        epoch_truth[1] = truth;
        if epoch < 2 {
            if let Some(retired) = window.rotate() {
                match &mut rollup {
                    None => rollup = Some(retired),
                    Some(acc) => acc.merge(&retired).unwrap(),
                }
            }
        }
    }

    assert_eq!(window.epoch(), 2);
    assert_eq!(window.insertion_failures(), 0);
    // visible window = frozen epoch 1 + active epoch 2
    let mut window_truth = epoch_truth[1].clone();
    for (k, v) in &epoch_truth[0] {
        *window_truth.entry(*k).or_insert(0) += v;
    }
    for (&k, &f) in &window_truth {
        let est = window.query_with_error(&k);
        assert!(est.contains(f), "key {k}: window truth {f} ∉ {est:?}");
        assert!(est.max_possible_error <= window.mpe_ceiling());
    }
    // roll-up (epoch 0) + visible window = the whole history
    let rollup = rollup.expect("epoch 0 retired");
    for (&k, &f) in &all_truth {
        let win = window.query_with_error(&k);
        let old = rollup.query_with_error(&k);
        let total = Estimate {
            value: win.value + old.value,
            max_possible_error: win.max_possible_error + old.max_possible_error,
        };
        assert!(total.contains(f), "key {k}: {f} ∉ {total:?}");
    }
}

/// The certified top-K layer rides the same parity claim as the sketch
/// beneath it: a geometry-matched one-worker concurrent sketch maintains
/// the *identical* summary — same entries, same counts, same certified
/// error fields, same miss bound — as the sequential twin on the same
/// stream. The sequential answer certifies entries by the summary's own
/// pairs, the concurrent one by the point query, which one worker keeps
/// equal to the twin's: its entries are the summary keys with the 16
/// largest point-query values. Both answers contain the exact truth.
#[test]
fn one_worker_topk_is_bit_equal_to_sequential() {
    const CAPACITY: usize = 64;
    let config = filtered_config(8);
    let (atomic, classic) = twins(&config);
    let atomic = atomic.with_top_k(CAPACITY);
    let mut classic = classic.with_top_k(CAPACITY);
    let (items, truth) = mixed_items(60_000, 61);
    assert_eq!(atomic.ingest_parallel(&items, 1), items.len());
    for &(k, v) in &items {
        classic.insert(&k, v);
    }

    let a = atomic.top_k_summary().expect("layer enabled");
    let c = classic.top_k_summary().expect("layer enabled");
    assert_eq!(a.entries_desc(), c.entries_desc(), "summary divergence");
    assert_eq!(a.miss_bound(), c.miss_bound());

    let (ta, tc) = (atomic.certified_top_k(16), classic.certified_top_k(16));
    for e in &ta.entries {
        let est = rsk_api::ErrorSensing::query_with_error(&classic, &e.key);
        assert_eq!(
            (e.count, e.error),
            (est.value, est.max_possible_error),
            "key {}",
            e.key
        );
    }
    // the summary keys' point-query values, largest first
    let mut values: Vec<u64> = c
        .entries_desc()
        .iter()
        .map(|e| rsk_api::ErrorSensing::query_with_error(&classic, &e.key).value)
        .collect();
    values.sort_unstable_by(|x, y| y.cmp(x));
    let counts: Vec<u64> = ta.entries.iter().map(|e| e.count).collect();
    assert_eq!(counts, values[..16]);
    assert_eq!(ta.next_count, values.get(16).copied().unwrap_or(0));
    assert_eq!(ta.miss_bound, tc.miss_bound);
    assert_eq!(
        tc.entries.len(),
        16,
        "a 60k-item Zipf stream has 16 elephants"
    );
    for e in ta.entries.iter().chain(&tc.entries) {
        assert!(
            e.contains(truth[&e.key]),
            "key {}: truth {} ∉ [{}, {}]",
            e.key,
            truth[&e.key],
            e.lower_bound(),
            e.count
        );
    }
}

/// Sealed-epoch top-K reads agree with rollup merges: the summary the
/// sealed generation keeps after rotation is bit-equal to the summary a
/// one-worker twin of that generation holds, and the window's
/// two-generation answer tells the same heavy-hitter story as folding
/// the generations into one collector via `Merge`.
#[test]
fn sealed_epoch_topk_reads_match_rollup_merge() {
    const CAPACITY: usize = 64;
    let config = filtered_config(8);
    let mut window = EpochedConcurrent::<u64>::new(config.clone()).with_top_k(CAPACITY);
    let gen_a = ConcurrentReliable::<u64>::new(config.clone()).with_top_k(CAPACITY);
    let mut rollup = ConcurrentReliable::<u64>::new(config).with_top_k(CAPACITY);

    let (items_a, truth_a) = mixed_items(40_000, 71);
    let (items_b, truth_b) = mixed_items(40_000, 72);
    window.ingest_parallel(&items_a, 1);
    gen_a.ingest_parallel(&items_a, 1);
    assert!(window.rotate().is_none(), "no frozen generation yet");

    // the sealed generation keeps its own summary, which nothing writes
    // after rotation; it matches the twin bit-for-bit
    let sealed = window
        .frozen()
        .and_then(ConcurrentReliable::top_k_summary)
        .expect("sealed summary");
    let twin = gen_a.top_k_summary().expect("layer enabled");
    assert_eq!(sealed.entries_desc(), twin.entries_desc());
    assert_eq!(sealed.miss_bound(), twin.miss_bound());

    window.ingest_parallel(&items_b, 1);
    rollup.ingest_parallel(&items_b, 1);
    rollup.merge(&gen_a).unwrap();

    let mut truth = truth_a;
    for (k, v) in &truth_b {
        *truth.entry(*k).or_insert(0) += v;
    }
    let win = window.certified_top_k(8);
    let fold = rollup.certified_top_k(8);
    assert_eq!(win.entries.len(), 8);
    assert_eq!(fold.entries.len(), 8);
    // both views certify the combined truth entry-by-entry…
    for e in win.entries.iter().chain(&fold.entries) {
        assert!(
            e.contains(truth[&e.key]),
            "key {}: combined truth {} ∉ [{}, {}]",
            e.key,
            truth[&e.key],
            e.lower_bound(),
            e.count
        );
    }
    // …and name the same heavy hitters (ordering within the set may
    // differ: the window sums both generations' point queries, the fold
    // queries one merged sketch)
    let keys = |t: &CertifiedTopK<u64>| {
        let mut v: Vec<u64> = t.entries.iter().map(|e| e.key).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(keys(&win), keys(&fold));
}

/// Subpopulation aggregates ride the same parity claim: a
/// geometry-matched one-worker concurrent sketch answers every dense
/// predicate with the *identical* `estimate`, `lo`, `hi` and `slack` as
/// the sequential twin.
#[test]
fn one_worker_subpop_is_bit_equal_to_sequential() {
    let config = filtered_config(8);
    let (atomic, mut classic) = twins(&config);
    let (items, truth) = mixed_items(60_000, 83);
    assert_eq!(atomic.ingest_parallel(&items, 1), items.len());
    for &(k, v) in &items {
        classic.insert(&k, v);
    }

    let mut hot: Vec<(u64, u64)> = truth.iter().map(|(&k, &v)| (k, v)).collect();
    hot.sort_by_key(|&(k, v)| (std::cmp::Reverse(v), k));
    let anchor = hot[0].0;

    let probes = [
        KeySet::explicit(vec![]),
        KeySet::explicit(hot.iter().map(|&(k, _)| k).take(64).collect()),
        // both endpoints inclusive: 1001 members
        KeySet::range(anchor.saturating_sub(500), anchor.saturating_add(500)),
        KeySet::mask(anchor & !0xff, !0xffu64),
    ];
    for set in &probes {
        let a = atomic.subpopulation_weight(set);
        let c = rsk_api::SubpopulationWeight::subpopulation_weight(&classic, set);
        assert_eq!(a, c, "dense divergence on {set:?}");
        assert_eq!(c.slack, 0, "sequential reads carry no slack");
        // both intervals still contain the exact subset truth
        let t: u64 = truth
            .iter()
            .filter(|(k, _)| set.contains(**k))
            .map(|(_, v)| v)
            .sum();
        assert!(a.contains(t) && c.contains(t), "truth escaped on {set:?}");
    }
}

/// The redesigned `ConcurrentErrorSensing` surface — the path `rsk-serve`
/// answers `QueryCertified` through — is bit-for-bit equal to the
/// sequential `query_with_error` in the uncontended one-worker
/// differential, including through a trait object (the trait is
/// object-safe by design).
#[test]
fn concurrent_error_sensing_trait_is_bit_equal_to_sequential() {
    let config = filtered_config(8);
    let (atomic, mut classic) = twins(&config);
    let (items, truth) = mixed_items(60_000, 23);
    assert_eq!(atomic.ingest_parallel(&items, 1), items.len());
    for &(k, v) in &items {
        classic.insert(&k, v);
    }
    let certified: &dyn ConcurrentErrorSensing<u64> = &atomic;
    for (k, &f) in &truth {
        let a = certified.query_with_error_concurrent(k);
        let c = rsk_api::ErrorSensing::query_with_error(&classic, k);
        assert_eq!(
            (a.value, a.max_possible_error),
            (c.value, c.max_possible_error),
            "trait-path divergence at key {k}"
        );
        assert!(a.contains(f), "key {k}: {f} ∉ {a:?}");
    }
}
