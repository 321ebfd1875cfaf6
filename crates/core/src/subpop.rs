//! Certified subpopulation-weight queries (ROADMAP item 2).
//!
//! A *subpopulation-weight* query asks for the total value carried by a
//! predicate-selected key subset — Cohen & Kaplan's workhorse aggregate
//! (*Sketch-Based Estimation of Subpopulation-Weight*), answered here
//! from ReliableSketch's **certified per-key bounds** instead of tail
//! probabilities: every answer is a [`CertifiedWeight`] whose interval
//! provably contains the exact subset sum, extending the paper's "100%
//! confidence" story from point queries to aggregates.
//!
//! Two evaluation paths, chosen per query by the predicate's size:
//!
//! * **Dense** — sets that enumerate within
//!   [`DENSE_ENUMERATION_LIMIT`]: sum the per-key certified intervals
//!   member by member. `estimate = hi = Σ f̂(k)` and
//!   `lo = Σ (f̂(k) − MPE)` — sound because each per-key interval is.
//! * **Decode** — larger or unbounded sets (big ranges, short masks,
//!   the full universe): sum the certified intervals of the sketch's
//!   *tracked* keys that fall in the set (bucket candidates, top-K
//!   entries, emergency remainders), then charge every possibly-present
//!   untracked key its certified per-key ceiling — the top-K layer's
//!   [`TopKSummary::miss_bound`](crate::topk::TopKSummary::miss_bound)
//!   when enabled, the sketch's `mpe_ceiling` plus the emergency
//!   store's untracked ceiling otherwise. An unbounded
//!   predicate saturates `hi` to a vacuous-but-sound [`u64::MAX`].
//!
//! ## Soundness
//!
//! The dense path inherits the point-query guarantee verbatim. The
//! decode path's untracked-key charge rests on a structural fact of the
//! query walk (`ReliableSketch::query_traced`): for a key that is a
//! candidate nowhere and untracked by the emergency store, every term
//! added to the estimate — the mice-filter count, each visited bucket's
//! `NO` counter, the emergency store's untracked ceiling `u` (a
//! SpaceSaving store's miss bound, 0 otherwise) — is also added to the
//! MPE, so `f̂ = MPE ≤ mpe_ceiling + u` and therefore
//! `truth ≤ f̂ ≤ mpe_ceiling + u`. Three documented caveats:
//!
//! * **Merged sketches** (`is_merged()`): the `MPE ≤ Λ` ceiling becomes
//!   data-dependent, so the untracked charge degrades to [`u64::MAX`]
//!   (the answer is vacuous unless the set is fully tracked); a merged
//!   top-K layer's `miss_bound` stays finite and sound, so flavours with
//!   the layer enabled keep a meaningful bound.
//! * **Concurrent flavours without a top-K layer** carry the same
//!   fingerprint-aliasing caveat as merged concurrent point queries: an
//!   untracked key aliased onto a candidate fingerprint can read that
//!   candidate's `YES` count. The `miss_bound` charge is alias-free (it
//!   is maintained from the stream side, not the bucket side).
//! * **Dropped mass**: under [`crate::EmergencyPolicy::Disabled`] a
//!   failed insert's value leaves the sketch entirely, so the total
//!   dropped value is charged once onto `hi` (zero in any configuration
//!   that keeps the paper's guarantee intact).
//!
//! The oracle-differential suite (`tests/subpop_oracle.rs`) races every
//! flavour × predicate shape × stream family against exact ground-truth
//! subset sums; `tests/concurrent_parity.rs` pins the 1-worker
//! concurrent dense path bit-equal to the sequential twin.

#![deny(clippy::arithmetic_side_effects)]

use crate::atomic::ConcurrentReliable;
use crate::concurrent::ShardedReliable;
use crate::emergency::EmergencyStore;
use crate::epoch::{EpochedConcurrent, Generation};
use crate::sketch::ReliableSketch;
use rsk_api::{CertifiedWeight, ErrorSensing, Estimate, KeySet, SubpopulationWeight};
use std::collections::HashSet;

/// Largest predicate cardinality evaluated member-by-member (the dense
/// path); larger sets fall back to the tracked-key decode. 4096 keys is
/// a /52 mask over the full space — comfortably past the subset sizes a
/// telemetry dashboard sweeps — while keeping worst-case query cost at a
/// few thousand layer walks.
pub const DENSE_ENUMERATION_LIMIT: usize = 4096;

/// Sum the per-key certified intervals of an enumerated member list.
fn dense(keys: &[u64], dropped: u64, query: impl Fn(&u64) -> Estimate) -> CertifiedWeight {
    let mut estimate = 0u64;
    let mut lo = 0u64;
    for k in keys {
        let est = query(k);
        estimate = estimate.saturating_add(est.value);
        lo = lo.saturating_add(est.lower_bound());
    }
    CertifiedWeight {
        estimate,
        lo,
        hi: estimate.saturating_add(dropped),
        slack: 0,
    }
}

/// Tracked-key decode: certified sums over `tracked ∩ set`, plus the
/// per-key ceiling charged to every possibly-present untracked member.
fn decode(
    set: &KeySet,
    tracked: Vec<u64>,
    per_untracked_ceiling: u64,
    dropped: u64,
    query: impl Fn(&u64) -> Estimate,
) -> CertifiedWeight {
    let members: HashSet<u64> = tracked.into_iter().filter(|k| set.contains(*k)).collect();
    let mut estimate = 0u64;
    let mut lo = 0u64;
    for k in &members {
        let est = query(k);
        estimate = estimate.saturating_add(est.value);
        lo = lo.saturating_add(est.lower_bound());
    }
    match set.cardinality() {
        Some(n) => {
            // never saturates: `members` is a subset of `set`
            let untracked = n.saturating_sub(members.len() as u64);
            CertifiedWeight {
                estimate,
                lo,
                hi: estimate
                    .saturating_add(untracked.saturating_mul(per_untracked_ceiling))
                    .saturating_add(dropped),
                slack: 0,
            }
        }
        // the full 2⁶⁴ universe: hi is vacuous
        None => CertifiedWeight {
            estimate,
            lo,
            hi: u64::MAX,
            slack: 0,
        },
    }
}

/// Decode inputs of one generation: its enumerable tracked keys
/// (emergency remainders and the top-K summary's monitored keys) and its
/// per-untracked-key ceiling — the summary's miss bound when `top_k`
/// gives one, else `mpe_ceiling` plus the emergency store's untracked
/// ceiling, and vacuous once `merged`.
fn decode_inputs(
    merged: bool,
    mpe_ceiling: u64,
    emergency: &EmergencyStore<u64>,
    top_k: Option<(Vec<u64>, u64)>,
) -> (Vec<u64>, u64) {
    let mut tracked: Vec<u64> = emergency.tracked().into_iter().map(|(k, ..)| k).collect();
    let mut ceiling = if merged {
        u64::MAX
    } else {
        mpe_ceiling.saturating_add(emergency.untracked_ceiling())
    };
    if let Some((keys, miss_bound)) = top_k {
        ceiling = ceiling.min(miss_bound);
        tracked.extend(keys);
    }
    (tracked, ceiling)
}

/// [`decode_inputs`] of one lock-free generation.
fn concurrent_inputs(g: &ConcurrentReliable<u64>) -> (Vec<u64>, u64) {
    // read the summary before locking the emergency store: an insert
    // holds the summary's lock while its seed query takes the store's
    let top_k = g.top_k_candidates();
    decode_inputs(g.is_merged(), g.mpe_ceiling(), &g.emergency.lock(), top_k)
}

impl SubpopulationWeight for ReliableSketch<u64> {
    /// Sequential evaluation: the decode path enumerates real bucket
    /// candidates, so the tracked inventory is complete and the
    /// untracked charge alias-free.
    fn subpopulation_weight(&self, set: &KeySet) -> CertifiedWeight {
        let dropped = self.dropped_value();
        if let Some(keys) = set.enumerate(DENSE_ENUMERATION_LIMIT) {
            return dense(&keys, dropped, |k| self.query_with_error(k));
        }
        let (mut tracked, ceiling) = decode_inputs(
            self.is_merged(),
            self.mpe_ceiling(),
            &self.emergency,
            self.top_k_candidates(),
        );
        tracked.extend(self.candidate_keys());
        decode(set, tracked, ceiling, dropped, |k| self.query_with_error(k))
    }
}

impl SubpopulationWeight for ConcurrentReliable<u64> {
    /// Lock-free evaluation through a shared reference; single-owner
    /// histories answer bit-for-bit like the sequential twin.
    fn subpopulation_weight(&self, set: &KeySet) -> CertifiedWeight {
        let dropped = self.dropped_value();
        if let Some(keys) = set.enumerate(DENSE_ENUMERATION_LIMIT) {
            return dense(&keys, dropped, |k| self.query_with_error(k));
        }
        let (tracked, ceiling) = concurrent_inputs(self);
        decode(set, tracked, ceiling, dropped, |k| self.query_with_error(k))
    }
}

impl SubpopulationWeight for ShardedReliable<u64> {
    /// Key-partitioned evaluation: each member consults exactly its
    /// shard (dense) and each untracked key belongs to exactly one
    /// shard, so the per-key ceiling is the shard maximum.
    fn subpopulation_weight(&self, set: &KeySet) -> CertifiedWeight {
        let dropped = (0..self.shards())
            .map(|i| self.shard(i).dropped_value())
            .fold(0u64, u64::saturating_add);
        if let Some(keys) = set.enumerate(DENSE_ENUMERATION_LIMIT) {
            return dense(&keys, dropped, |k| self.query_shared(k));
        }
        let mut tracked = Vec::new();
        let mut ceiling = 0u64;
        for i in 0..self.shards() {
            let (t, c) = concurrent_inputs(self.shard(i));
            tracked.extend(t);
            ceiling = ceiling.max(c);
        }
        decode(set, tracked, ceiling, dropped, |k| self.query_shared(k))
    }
}

impl SubpopulationWeight for EpochedConcurrent<u64> {
    /// Window evaluation over both visible generations: per-key queries
    /// sum the generations' certified answers, the untracked charge sums
    /// the generations' ceilings (a key absent from both summaries has
    /// window truth ≤ their sum), and `hi` charges the window's
    /// dropped value.
    fn subpopulation_weight(&self, set: &KeySet) -> CertifiedWeight {
        let dropped = self.dropped_value();
        if let Some(keys) = set.enumerate(DENSE_ENUMERATION_LIMIT) {
            return dense(&keys, dropped, |k| self.query_with_error(k));
        }
        let (mut tracked, mut ceiling) = concurrent_inputs(self.active());
        if let Some(frozen) = self.frozen() {
            let (t, c) = concurrent_inputs(frozen);
            tracked.extend(t);
            ceiling = ceiling.saturating_add(c);
        }
        decode(set, tracked, ceiling, dropped, |k| self.query_with_error(k))
    }
}

/// A slim digest answers dense queries standalone — its per-key
/// intervals stay certified (`truth ∈ [value − MPE, value]`, modulo the
/// fingerprint-aliasing caveat its module documents). Non-enumerable
/// sets are *enumeration-limited*: the digest holds fingerprints, not
/// keys, so no tracked inventory exists and the answer is vacuous
/// (`hi = u64::MAX` — sound, excludes nothing).
impl SubpopulationWeight for crate::replicate::SlimSummary {
    fn subpopulation_weight(&self, set: &KeySet) -> CertifiedWeight {
        if let Some(keys) = set.enumerate(DENSE_ENUMERATION_LIMIT) {
            // the digest carries the source's total dropped mass, so the
            // Disabled-policy undercount is charged exactly as at the source
            return dense(&keys, self.dropped, |k| self.query_with_error(k));
        }
        CertifiedWeight {
            estimate: 0,
            lo: 0,
            hi: u64::MAX,
            slack: 0,
        }
    }
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects)] // small fixed test data
mod tests {
    use super::*;
    use crate::config::{EmergencyPolicy, ReliableConfig};
    use crate::epoch::EpochedConcurrent;
    use std::collections::HashMap;

    const MEMORY: usize = 128 * 1024;
    const LAMBDA: u64 = 25;

    fn config(seed: u64) -> ReliableConfig {
        ReliableConfig::builder()
            .memory_bytes(MEMORY)
            .error_tolerance(LAMBDA)
            .emergency(EmergencyPolicy::ExactTable)
            .seed(seed)
            .config()
    }

    /// Deterministic zipf-ish stream: key i ∈ [0, n_keys) gets mass
    /// ∝ 1/(i+1), shuffled by a multiplicative hop.
    fn stream(n: usize, n_keys: u64, seed: u64) -> (Vec<(u64, u64)>, HashMap<u64, u64>) {
        let mut items = Vec::with_capacity(n);
        let mut truth = HashMap::new();
        let mut x = seed | 1;
        for _ in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // bias toward small ranks
            let r = (x >> 33) % (n_keys * (n_keys + 1) / 2).max(1);
            let mut k = 0u64;
            let mut acc = n_keys;
            while acc <= r && k + 1 < n_keys {
                k += 1;
                acc += n_keys - k;
            }
            let v = 1 + (x % 3);
            items.push((k, v));
            *truth.entry(k).or_insert(0) += v;
        }
        (items, truth)
    }

    fn truth_sum(truth: &HashMap<u64, u64>, set: &KeySet) -> u64 {
        truth
            .iter()
            .filter(|(k, _)| set.contains(**k))
            .map(|(_, v)| v)
            .sum()
    }

    fn shapes(n_keys: u64) -> Vec<KeySet> {
        vec![
            KeySet::explicit(vec![]),
            KeySet::explicit(vec![0, 1, 2, 7, n_keys / 2, n_keys + 100]),
            KeySet::range(0, n_keys / 4),
            KeySet::range(n_keys, n_keys + 50), // all absent
            KeySet::mask(0b101, 0b111),
            KeySet::mask(0, 0),        // full universe (decode, vacuous hi)
            KeySet::range(0, 1 << 20), // decode with known cardinality
        ]
    }

    fn assert_contains(w: CertifiedWeight, truth: u64, what: &str) {
        assert!(
            w.contains(truth),
            "{what}: truth {truth} outside [{}, {}] (est {}, slack {})",
            w.lower_bound(),
            w.upper_bound(),
            w.estimate,
            w.slack
        );
        assert!(
            w.lo <= w.estimate && w.estimate <= w.hi,
            "{what}: estimate outside [lo, hi]"
        );
    }

    #[test]
    fn sequential_intervals_contain_truth_across_shapes() {
        let (items, truth) = stream(60_000, 1_000, 7);
        let mut sk = ReliableSketch::<u64>::new(config(1));
        for (k, v) in &items {
            rsk_api::StreamSummary::insert(&mut sk, k, *v);
        }
        assert_eq!(sk.insertion_failures(), 0);
        for set in shapes(1_000) {
            let w = sk.subpopulation_weight(&set);
            assert_contains(w, truth_sum(&truth, &set), &format!("{set:?}"));
        }
        // empty set answers exactly zero
        assert_eq!(
            sk.subpopulation_weight(&KeySet::explicit(vec![])),
            CertifiedWeight::zero()
        );
    }

    #[test]
    fn sequential_dense_estimate_matches_point_query_sum() {
        let (items, _) = stream(30_000, 500, 11);
        let mut sk = ReliableSketch::<u64>::new(config(2));
        for (k, v) in &items {
            rsk_api::StreamSummary::insert(&mut sk, k, *v);
        }
        let set = KeySet::range(10, 200);
        let w = sk.subpopulation_weight(&set);
        let expect: u64 = (10..=200u64).map(|k| sk.query_with_error(&k).value).sum();
        assert_eq!(w.estimate, expect);
        assert_eq!(w.hi, expect);
        assert_eq!(w.slack, 0, "no flavour reports a slack");
    }

    #[test]
    fn full_universe_decode_is_vacuous_but_contains_total() {
        let (items, truth) = stream(20_000, 400, 3);
        let mut sk = ReliableSketch::<u64>::new(config(3));
        for (k, v) in &items {
            rsk_api::StreamSummary::insert(&mut sk, k, *v);
        }
        let total: u64 = truth.values().sum();
        let w = sk.subpopulation_weight(&KeySet::mask(0, 0));
        assert!(w.is_vacuous());
        assert_contains(w, total, "full universe");
        // the tracked lower bound is still informative, not zero
        assert!(w.lo > 0);
    }

    #[test]
    fn concurrent_intervals_contain_truth_across_shapes() {
        let (items, truth) = stream(60_000, 1_000, 13);
        let sk = ConcurrentReliable::<u64>::new(config(4));
        for (k, v) in &items {
            sk.insert_concurrent(k, *v);
        }
        for set in shapes(1_000) {
            let w = sk.subpopulation_weight(&set);
            assert_contains(w, truth_sum(&truth, &set), &format!("{set:?}"));
        }
    }

    #[test]
    fn topk_layer_tightens_the_untracked_charge() {
        let (items, truth) = stream(60_000, 1_000, 17);
        let plain = ConcurrentReliable::<u64>::new(config(5));
        let tk = ConcurrentReliable::<u64>::new(config(5)).with_top_k(64);
        for (k, v) in &items {
            plain.insert_concurrent(k, *v);
            tk.insert_concurrent(k, *v);
        }
        let set = KeySet::range(0, 1 << 20); // decode path, 2²⁰ members
        let loose = plain.subpopulation_weight(&set);
        let tight = tk.subpopulation_weight(&set);
        assert_contains(loose, truth_sum(&truth, &set), "plain decode");
        assert_contains(tight, truth_sum(&truth, &set), "topk decode");
        assert!(
            tight.width() < loose.width(),
            "miss_bound charge {} must beat mpe_ceiling charge {}",
            tight.width(),
            loose.width()
        );
    }

    #[test]
    fn sharded_intervals_contain_truth_across_shapes() {
        let (items, truth) = stream(60_000, 1_000, 19);
        let sk = ShardedReliable::<u64>::new(config(6), 4);
        for (k, v) in &items {
            sk.insert_shared(k, *v);
        }
        for set in shapes(1_000) {
            let w = sk.subpopulation_weight(&set);
            assert_contains(w, truth_sum(&truth, &set), &format!("{set:?}"));
        }
    }

    #[test]
    fn epoched_window_covers_both_generations() {
        let (items, truth) = stream(40_000, 800, 23);
        let mut window = EpochedConcurrent::<u64>::new(config(7)).with_top_k(64);
        let (first, second) = items.split_at(items.len() / 2);
        for (k, v) in first {
            window.insert_shared(k, *v);
        }
        window.rotate();
        for (k, v) in second {
            window.insert_shared(k, *v);
        }
        for set in shapes(800) {
            let w = window.subpopulation_weight(&set);
            assert_contains(w, truth_sum(&truth, &set), &format!("{set:?}"));
        }
        // the window charges its dropped value onto hi, never slack
        let m = KeySet::explicit(vec![1, 2, 3]);
        assert_eq!(window.subpopulation_weight(&m).slack, 0);
    }

    #[test]
    fn merged_sketch_decode_is_vacuous_unless_fully_tracked() {
        use rsk_api::Merge;
        let (items, truth) = stream(30_000, 600, 29);
        let mut a = ReliableSketch::<u64>::new(config(8));
        let mut b = ReliableSketch::<u64>::new(config(8));
        for (i, (k, v)) in items.iter().enumerate() {
            if i % 2 == 0 {
                rsk_api::StreamSummary::insert(&mut a, k, *v);
            } else {
                rsk_api::StreamSummary::insert(&mut b, k, *v);
            }
        }
        a.merge(&b).unwrap();
        assert!(a.is_merged());
        let big = KeySet::range(0, 1 << 20);
        let w = a.subpopulation_weight(&big);
        assert!(w.is_vacuous(), "merged untracked charge must be vacuous");
        assert_contains(w, truth_sum(&truth, &big), "merged decode");
        // dense evaluation keeps certified (merged) per-key intervals
        let small = KeySet::range(0, 100);
        assert_contains(
            a.subpopulation_weight(&small),
            truth_sum(&truth, &small),
            "merged dense",
        );
    }

    #[test]
    fn slim_digest_answers_dense_queries() {
        use crate::replicate::SlimSummary;
        let (items, truth) = stream(30_000, 600, 31);
        let mut sk = ReliableSketch::<u64>::new(config(9));
        for (k, v) in &items {
            rsk_api::StreamSummary::insert(&mut sk, k, *v);
        }
        let slim = SlimSummary::from_sequential(&sk);
        for set in [
            KeySet::explicit(vec![0, 5, 9, 700]),
            KeySet::range(0, 150),
            KeySet::mask(0b10, 0b11),
        ] {
            let w = slim.subpopulation_weight(&set);
            assert_contains(w, truth_sum(&truth, &set), &format!("slim {set:?}"));
        }
        // non-enumerable: enumeration-limited, vacuous but sound
        let w = slim.subpopulation_weight(&KeySet::range(0, 1 << 20));
        assert!(w.is_vacuous());
    }
}
