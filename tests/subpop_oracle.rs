//! Oracle-differential suite for certified subpopulation-weight queries:
//! race [`SubpopulationWeight`] answers against exact [`GroundTruth`]
//! subset sums over Zipf, churning, and adversarial streams, across all
//! four sketch flavours and all three [`KeySet`] predicate shapes.
//!
//! The single contract under test is containment: for every flavour,
//! predicate, and stream, `lo ≤ Σ_{k ∈ set} f(k) ≤ hi + slack`. The
//! probed shapes deliberately include both boundary subsets — the empty
//! set (must answer exactly zero) and the full 2⁶⁴ universe (vacuous
//! upper bound, but still sound) — plus dense member-enumerated sets and
//! ranges wide enough to force the tracked-key decode path.

use std::collections::HashSet;

use proptest::prelude::*;
use reliablesketch::core::{EmergencyPolicy, MiceFilterConfig};
use reliablesketch::prelude::*;
use rsk_stream::adversarial::{round_robin, single_heavy};
use rsk_stream::churn::ChurnModel;

/// Generous for the ≤ 20 K-item streams of this suite: the contract is
/// about aggregate certification logic, not memory pressure, so failed
/// insertions (whose dropped mass would widen `hi`) stay out of the
/// picture.
const MEMORY: usize = 128 * 1024;
const LAMBDA: u64 = 25;
const TOPK_CAPACITY: usize = 64;

fn base(seed: u64) -> SketchBuilder {
    reliablesketch::builder()
        .memory_bytes(MEMORY)
        .error_tolerance(LAMBDA)
        .mice_filter(MiceFilterConfig::default())
        .emergency(EmergencyPolicy::ExactTable)
        .seed(seed)
}

/// All four flavours over the same stream, as trait objects: the
/// sequential and epoched sketches carry the certified top-K layer (so
/// its `miss_bound` tightening is inside the containment race too), the
/// atomic and sharded ones answer from the plain `mpe_ceiling`.
fn flavours(stream: &[Item<u64>], seed: u64) -> Vec<(&'static str, Box<dyn SubpopulationWeight>)> {
    let mut seq = base(seed).top_k(TOPK_CAPACITY).build_sequential::<u64>();
    for it in stream {
        seq.insert(&it.key, it.value);
    }
    assert_eq!(seq.insertion_failures(), 0, "memory is generous by design");

    let atomic = base(seed).build_concurrent::<u64>();
    for it in stream {
        atomic.insert_concurrent(&it.key, it.value);
    }

    let sharded = base(seed).build_sharded::<u64>(4);
    for it in stream {
        sharded.insert_shared(&it.key, it.value);
    }

    // the epoched window rotates mid-stream, so the answer must span the
    // frozen and active generations
    let mut epoched = base(seed)
        .build_epoched_concurrent::<u64>()
        .with_top_k(TOPK_CAPACITY);
    let (first, second) = stream.split_at(stream.len() / 2);
    for it in first {
        epoched.insert_shared(&it.key, it.value);
    }
    epoched.rotate();
    for it in second {
        epoched.insert_shared(&it.key, it.value);
    }

    vec![
        ("sequential", Box::new(seq)),
        ("atomic", Box::new(atomic)),
        ("sharded", Box::new(sharded)),
        ("epoched", Box::new(epoched)),
    ]
}

/// The probed predicate shapes, anchored on keys the stream actually
/// carries (stream keys are hashed across the full u64 space, so blind
/// ranges would select nothing): explicit hot sets, a range and a
/// /56-style mask neighbourhood around a live key, a megakey decode
/// range, and both boundary subsets.
fn shapes(truth: &GroundTruth<u64>) -> Vec<(String, KeySet)> {
    let mut pairs = truth.to_pairs();
    pairs.sort_by_key(|&(_, v)| core::cmp::Reverse(v));
    let hot: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();
    let anchor = hot.first().copied().unwrap_or(0);
    let mut explicit_mixed: Vec<u64> = hot.iter().copied().take(12).collect();
    explicit_mixed.push(anchor ^ 0x5555_5555); // absent key contributes zero
    vec![
        ("empty".into(), KeySet::explicit(vec![])),
        ("hot12+absent".into(), KeySet::explicit(explicit_mixed)),
        (
            "hot512".into(),
            KeySet::explicit(hot.iter().copied().take(512).collect()),
        ),
        (
            "dense range".into(),
            KeySet::range(anchor.saturating_sub(1_000), anchor.saturating_add(1_000)),
        ),
        (
            "decode range".into(),
            KeySet::range(
                anchor.saturating_sub(1 << 21),
                anchor.saturating_add(1 << 21),
            ),
        ),
        ("mask /56".into(), KeySet::mask(anchor & !0xff, !0xffu64)),
        ("universe".into(), KeySet::mask(0, 0)),
    ]
}

fn exact(truth: &GroundTruth<u64>, set: &KeySet) -> u64 {
    truth
        .iter()
        .filter(|(k, _)| set.contains(**k))
        .map(|(_, v)| v)
        .sum()
}

/// The containment race: every flavour × every shape, plus structural
/// sanity and the empty-set identity.
fn race(stream: &[Item<u64>], seed: u64) {
    let truth = GroundTruth::from_items(stream);
    let probes = shapes(&truth);
    for (name, sk) in flavours(stream, seed) {
        for (shape, set) in &probes {
            let w = sk.subpopulation_weight(set);
            let t = exact(&truth, set);
            assert!(
                w.contains(t),
                "{name}/{shape}: truth {t} outside [{}, {}] (est {}, slack {})",
                w.lower_bound(),
                w.upper_bound(),
                w.estimate,
                w.slack
            );
            assert!(
                w.lo <= w.estimate && w.estimate <= w.hi,
                "{name}/{shape}: estimate outside [lo, hi]"
            );
        }
        assert_eq!(
            sk.subpopulation_weight(&KeySet::explicit(vec![])),
            CertifiedWeight::zero(),
            "{name}: the empty subset answers exactly zero"
        );
        // the full universe is vacuous on every flavour, yet its lower
        // bound must stay sound against the whole-stream total
        let uni = sk.subpopulation_weight(&KeySet::mask(0, 0));
        assert!(uni.is_vacuous(), "{name}: universe hi must saturate");
        assert!(uni.lo <= truth.total(), "{name}: universe lo overshoots");
    }
}

#[test]
fn zipf_subset_sums_stay_certified_on_all_flavours() {
    let stream = Dataset::Zipf { skew: 1.2 }.generate(60_000, 17);
    race(&stream, 17);
}

#[test]
fn single_heavy_elephant_dominates_its_neighbourhood() {
    let stream = single_heavy(50_000, 0.4, 2_000, 9);
    race(&stream, 9);

    // the elephant's own singleton subset must certify a weight close to
    // 40% of the stream on the sequential flavour
    let truth = GroundTruth::from_items(&stream);
    let (heavy, f) = truth
        .iter()
        .max_by_key(|&(_, v)| v)
        .map(|(k, v)| (*k, v))
        .unwrap();
    let built = flavours(&stream, 9);
    let (_, seq) = &built[0];
    let w = seq.subpopulation_weight(&KeySet::explicit(vec![heavy]));
    assert!(w.contains(f));
    assert!(w.lower_bound() > f / 2, "elephant weight under-certified");
}

#[test]
fn round_robin_flat_stream_keeps_every_interval_honest() {
    race(&round_robin(40_000, 200, 11), 11);
}

#[test]
fn churn_rotations_keep_subset_sums_certified() {
    let stream = ChurnModel {
        active_keys: 1_000,
        rotation_period: 5_000,
        churn_fraction: 0.3,
        skew: 1.2,
    }
    .generate(60_000, 13);
    race(&stream, 13);
}

/// Dense answers must agree with the sum of the point queries they are
/// defined as — checked key-by-key on the sequential flavour, where the
/// two sides are independently computable.
#[test]
fn dense_estimate_is_exactly_the_point_query_sum() {
    let stream = Dataset::Zipf { skew: 1.1 }.generate(30_000, 23);
    let truth = GroundTruth::from_items(&stream);
    let mut sk = base(23).build_sequential::<u64>();
    for it in &stream {
        sk.insert(&it.key, it.value);
    }
    let mut pairs = truth.to_pairs();
    pairs.sort_by_key(|&(_, v)| core::cmp::Reverse(v));
    let members: Vec<u64> = pairs.iter().map(|&(k, _)| k).take(256).collect();
    let w = sk.subpopulation_weight(&KeySet::explicit(members.clone()));
    let uniq: HashSet<u64> = members.iter().copied().collect();
    let expect: u64 = uniq.iter().map(|k| sk.query_with_error(k).value).sum();
    assert_eq!(w.estimate, expect);
    assert_eq!(w.slack, 0, "sequential reads carry no slack");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Zipf streams across skews and seeds: the full flavour × shape
    /// containment race on every generated stream.
    #[test]
    fn prop_zipf_streams_stay_certified(
        skew in 0.8f64..1.6,
        items in 5_000usize..15_000,
        seed in 0u64..1_000,
    ) {
        let stream = Dataset::Zipf { skew }.generate(items, seed);
        race(&stream, seed);
    }

    /// Churning populations: elephants retire mid-stream, so subsets mix
    /// live, stale, and never-seen keys.
    #[test]
    fn prop_churn_streams_stay_certified(
        active in 100u64..2_000,
        fraction in 0.0f64..0.5,
        seed in 0u64..1_000,
    ) {
        let items = 12_000;
        let stream = ChurnModel {
            active_keys: active,
            rotation_period: items / 8,
            churn_fraction: fraction,
            skew: 1.1,
        }
        .generate(items, seed);
        race(&stream, seed);
    }

    /// Adversarial shapes: one overwhelming elephant over a mice tail,
    /// and the perfectly flat stream where no subset dominates.
    #[test]
    fn prop_adversarial_streams_stay_certified(
        share in 0.1f64..0.6,
        mice in 100u64..2_000,
        keys in 10u64..500,
        seed in 0u64..1_000,
    ) {
        race(&single_heavy(10_000, share, mice, seed), seed);
        race(&round_robin(10_000, keys, seed), seed);
    }
}
