//! The Error-Sensible Bucket (paper §3.1) — the basic counting unit of
//! ReliableSketch.
//!
//! A bucket holds a candidate key (`ID`) and two vote counters (`YES`,
//! `NO`). Insertions run an election (Boyer–Moore style with weighted
//! votes): matching keys vote `YES`, colliding keys vote `NO`, and when the
//! negatives reach the positives the candidate is replaced and the counters
//! swap. The crucial, often-undervalued property (the paper's Key Technique
//! I) is that **`NO` certifies the collision volume**: at query time the
//! bucket can bound its own error.
//!
//! Query contract (proved by induction in the paper's §3.1 discussion):
//!
//! * if `ID == e`: `f(e) ∈ [YES − NO, YES]` — answer `YES`, MPE `NO`;
//! * if `ID != e`: `f(e) ∈ [0, NO]` — answer `NO`, MPE `NO`.
//!
//! [`step`] is Algorithm 1's one per-bucket rule. [`EsBucket`] runs it
//! with `λ = u64::MAX` (Figure 1's workflow never locks); the layered
//! sketches run it layer by layer through [`crate::sketch`]'s descent,
//! the lock-free one on its packed words; the FPGA model runs it in its
//! pipeline's read stage.

use rsk_api::{Estimate, Key};

/// What one Algorithm-1 step leaves behind: see [`step`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Step {
    /// The bucket's new `YES`.
    pub yes: u64,
    /// The bucket's new `NO`.
    pub no: u64,
    /// Does the inserted key replace the candidate (the `YES`/`NO` swap)?
    pub takes_over: bool,
    /// Value the bucket diverted: it descends to the next layer.
    pub leftover: u64,
    /// Excess `YES` could not hold past the ceiling: the caller sends it
    /// down the failure path (a query stops at the key's own bucket).
    pub clipped: u64,
}

/// Algorithm 1's step on one bucket, as a pure function: insert `value`
/// into a bucket holding `(YES, NO)` with lock threshold `lambda`,
/// where `matches` says whether the inserted key is the candidate.
///
/// * a matching key adds to `YES`, even when the bucket is locked;
/// * a lock (`NO + value > λ` and `YES > λ`) absorbs `λ − NO` and
///   diverts the rest — a merged bucket already above `λ` diverts all;
/// * any other key votes `NO`, and takes over once `NO ≥ YES`: the old
///   `YES` becomes the new `NO`. An empty bucket needs no special case,
///   `(0, 0)` turns into `(value, 0)` like a first insertion.
///
/// `YES` saturates at `ceiling` (`u64::MAX`, or the packed word's count
/// field), and `NO` saturates at `u64::MAX`. Value is conserved:
/// `YES + NO` grows by `value − leftover − clipped`, and a step that
/// clips leaves no leftover.
#[inline]
pub fn step(matches: bool, yes: u64, no: u64, value: u64, lambda: u64, ceiling: u64) -> Step {
    let mut out = Step {
        yes,
        no,
        ..Step::default()
    };
    if matches {
        let absorbed = value.min(ceiling.saturating_sub(yes));
        out.yes = yes + absorbed;
        out.clipped = value - absorbed;
    } else if no.saturating_add(value) > lambda && yes > lambda {
        let room = lambda.saturating_sub(no);
        out.no = no + room;
        out.leftover = value - room;
    } else {
        let votes = no.saturating_add(value);
        if votes >= yes {
            out.yes = votes.min(ceiling);
            out.no = yes;
            out.takes_over = true;
            out.clipped = value - out.yes.saturating_sub(no);
        } else {
            out.no = votes;
        }
    }
    out
}

/// An Error-Sensible Bucket.
///
/// The paper's hardware layout gives each bucket a 32-bit `YES`, 16-bit
/// `NO` and 32-bit `ID` (§6.1.1); we keep `u64` fields for generality and
/// account the modeled widths in [`crate::config::ReliableConfig`].
///
/// ```
/// use rsk_core::EsBucket;
///
/// // the worked example of the paper's Figure 2 (keys A = 1, B = 2)
/// let mut bucket = EsBucket::new();
/// bucket.insert(&1u64, 2);
/// bucket.insert(&1u64, 3);
/// bucket.insert(&2u64, 10); // B outvotes A: replacement + swap
///
/// let a = bucket.query(&1u64);
/// assert_eq!((a.value, a.max_possible_error), (5, 5));
/// let b = bucket.query(&2u64);
/// assert_eq!((b.value, b.max_possible_error), (10, 5));
/// // both certified intervals contain the truth (f(A)=5, f(B)=10)
/// assert!(a.contains(5) && b.contains(10));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EsBucket<K: Key> {
    id: Option<K>,
    yes: u64,
    no: u64,
}

impl<K: Key> Default for EsBucket<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key> EsBucket<K> {
    /// An empty bucket (`ID` null, both counters zero).
    #[inline]
    pub const fn new() -> Self {
        Self {
            id: None,
            yes: 0,
            no: 0,
        }
    }

    /// Current candidate key, if any.
    #[inline]
    pub fn id(&self) -> Option<&K> {
        self.id.as_ref()
    }

    /// Positive votes for the candidate.
    #[inline]
    pub fn yes(&self) -> u64 {
        self.yes
    }

    /// Negative votes — the certified collision volume (= the bucket's MPE).
    #[inline]
    pub fn no(&self) -> u64 {
        self.no
    }

    /// Is the bucket in its initial state?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.id.is_none() && self.yes == 0 && self.no == 0
    }

    /// Insert `⟨key, value⟩` (Figure 1: voting phase then replacement
    /// phase) — [`step`] with no lock threshold. The counters saturate at
    /// `u64::MAX` instead of overflowing.
    #[inline]
    pub fn insert(&mut self, key: &K, value: u64) {
        if value > 0 {
            self.apply(key, value, u64::MAX);
        }
    }

    /// Run [`step`] for `key` on this bucket with lock threshold `lambda`
    /// and commit it; returns `(leftover, clipped)`.
    #[inline]
    pub(crate) fn apply(&mut self, key: &K, value: u64, lambda: u64) -> (u64, u64) {
        let s = step(
            self.id.as_ref() == Some(key),
            self.yes,
            self.no,
            value,
            lambda,
            u64::MAX,
        );
        if s.takes_over {
            self.id = Some(*key);
        }
        (self.yes, self.no) = (s.yes, s.no);
        (s.leftover, s.clipped)
    }

    /// Query the value sum of `key`, returning the estimate and its MPE.
    #[inline]
    pub fn query(&self, key: &K) -> Estimate {
        let value = if self.id.as_ref() == Some(key) {
            self.yes
        } else {
            self.no
        };
        Estimate {
            value,
            max_possible_error: self.no,
        }
    }

    /// Reset to the initial state.
    #[inline]
    pub fn clear(&mut self) {
        self.id = None;
        self.yes = 0;
        self.no = 0;
    }

    /// Fold another bucket *that observed the same key population* into
    /// this one (the per-bucket step of [`crate::merge`] — both sketches
    /// must share geometry and hash seeds so bucket `(i, j)` saw the same
    /// keys in both shards).
    ///
    /// The union rule preserves the §3.1 interval contract against the
    /// *combined* per-bucket masses `f(e) = f¹(e) + f²(e)`:
    ///
    /// * same candidate (or one side empty): `YES′ = y₁+y₂`,
    ///   `NO′ = n₁+n₂`. Bounds add, so all three contract clauses carry.
    /// * different candidates `a=(y₁,n₁)`, `b=(y₂,n₂)`: shard 2 ranks `a`
    ///   as a non-candidate, so `f(a) ⩽ y₁ + n₂`; symmetrically
    ///   `f(b) ⩽ y₂ + n₁`; any third key `c` satisfies `f(c) ⩽ n₁ + n₂`.
    ///   The winner `w` is the candidate with the larger cross bound
    ///   `y_w + n_l`, and
    ///   `YES′ = y_w + n_l`, `NO′ = max(y_l + n_w, n₁ + n₂)`.
    ///
    ///   Checks: `YES′ ⩾ f(w)` by the cross bound; `NO′` covers both the
    ///   loser and third keys; the candidate lower bound holds because
    ///   `YES′ − NO′ ⩽ (y_w + n_l) − (y_l + n_w) ⩽ y_w − n_w ⩽ f_w(w)`;
    ///   and `YES′ ⩾ NO′` (the bucket invariant) because
    ///   `y_w + n_l ⩾ y_l + n_w` by winner choice and
    ///   `y_w + n_l ⩾ n_w + n_l` by the per-shard `y ⩾ n` invariant.
    ///
    /// Sums saturate at `u64::MAX`: counters restored from a replication
    /// payload are unbounded, and a saturated bound is vacuous but never
    /// wraps below the truth.
    pub fn merge_union(&mut self, other: &Self) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other.clone();
            return;
        }
        if self.id == other.id {
            self.yes = self.yes.saturating_add(other.yes);
            self.no = self.no.saturating_add(other.no);
            return;
        }
        let (y1, n1) = (self.yes, self.no);
        let (y2, n2) = (other.yes, other.no);
        let self_wins = y1.saturating_add(n2) >= y2.saturating_add(n1);
        let (id_w, y_w, n_w, y_l, n_l) = if self_wins {
            (self.id, y1, n1, y2, n2)
        } else {
            (other.id, y2, n2, y1, n1)
        };
        self.id = id_w;
        self.yes = y_w.saturating_add(n_l);
        self.no = y_l.saturating_add(n_w).max(n1.saturating_add(n2));
    }

    /// Reassemble a bucket from raw fields (the snapshot module and the
    /// concurrent read-out path, which lifts packed atomic words into
    /// fingerprint-space buckets).
    #[inline]
    pub(crate) fn from_parts(id: Option<K>, yes: u64, no: u64) -> Self {
        Self { id, yes, no }
    }
}

/// A sketch's grid of Error-Sensible buckets, layer by layer (§3.2),
/// with the per-bucket divert hints a merge sets: the one bucket grid
/// of the sequential sketch, of every merge operand, of the lock-free
/// sketch's sealed merge overlay and of the slim digest's union.
///
/// A hinted bucket "may have diverted keys deeper" in some operand, so
/// it never satisfies Algorithm 2's stop rule (see [`crate::merge`]).
/// `hints` stays empty — zero cost — until the first [`Self::union`].
#[derive(Debug, Clone)]
pub(crate) struct Layers<K: Key> {
    pub(crate) buckets: Vec<Vec<EsBucket<K>>>,
    pub(crate) hints: Vec<Vec<bool>>,
}

impl<K: Key> Layers<K> {
    /// Empty buckets, `widths[i]` of them in layer `i`, and no hints.
    pub(crate) fn new(widths: &[usize]) -> Self {
        Self {
            buckets: widths.iter().map(|&w| vec![EsBucket::new(); w]).collect(),
            hints: Vec::new(),
        }
    }

    /// Algorithm 2's read of bucket `(layer, index)` on behalf of `id`:
    /// `(matches, YES, NO, hinted)`, as [`crate::sketch::walk`] takes it.
    #[inline]
    pub(crate) fn read(&self, layer: usize, index: usize, id: &K) -> (bool, u64, u64, bool) {
        let b = &self.buckets[layer][index];
        let hinted = self.hints.get(layer).is_some_and(|l| l[index]);
        (b.id.as_ref() == Some(id), b.yes, b.no, hinted)
    }

    /// The layers in order, each a slice of buckets.
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, Vec<EsBucket<K>>> {
        self.buckets.iter()
    }

    /// Has a merge touched this grid?
    pub(crate) fn is_merged(&self) -> bool {
        !self.hints.is_empty()
    }

    /// Union `other` (same widths) into this grid bucket-wise with
    /// [`EsBucket::merge_union`], keeping the divert hints: a merged
    /// bucket is hinted when either operand hinted it or either
    /// operand's bucket may have diverted keys deeper. Every lock leaves
    /// `NO == λᵢ < YES` and freezes the bucket, so `YES > NO ∧ NO ⩾ λᵢ`
    /// covers all diverting buckets; it also fires on buckets that
    /// merely filled `NO` to `λᵢ`, a sound over-approximation.
    pub(crate) fn union(&mut self, other: &Self, lambdas: &[u64]) {
        if self.hints.is_empty() {
            self.hints = self.buckets.iter().map(|l| vec![false; l.len()]).collect();
        }
        for (i, (layer, theirs)) in self.buckets.iter_mut().zip(&other.buckets).enumerate() {
            let diverted = |b: &EsBucket<K>| b.yes > b.no && b.no >= lambdas[i];
            let their_hints = other.hints.get(i);
            for (j, (bucket, their_bucket)) in layer.iter_mut().zip(theirs).enumerate() {
                let hinted = self.hints[i][j]
                    || their_hints.is_some_and(|l| l[j])
                    || diverted(bucket)
                    || diverted(their_bucket);
                bucket.merge_union(their_bucket);
                self.hints[i][j] = hinted;
            }
        }
    }

    /// The same grid with every candidate of layer `i` mapped through
    /// `f(i, _)` (keys to the per-layer fingerprints of the lock-free
    /// sketch and slim digest).
    pub(crate) fn map_ids<U: Key>(&self, f: impl Fn(usize, &K) -> U) -> Layers<U> {
        Layers {
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .map(|(i, layer)| {
                    layer
                        .iter()
                        .map(|b| EsBucket::from_parts(b.id.as_ref().map(|k| f(i, k)), b.yes, b.no))
                        .collect()
                })
                .collect(),
            hints: self.hints.clone(),
        }
    }

    /// Empty every bucket and drop the hints.
    pub(crate) fn clear(&mut self) {
        self.buckets.iter_mut().flatten().for_each(EsBucket::clear);
        self.hints.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The worked example of Figure 2: start empty, insert ⟨A,2⟩, ⟨A,3⟩,
    /// ⟨B,10⟩, then query A and B.
    #[test]
    fn paper_figure2_example() {
        let (a, b) = (1u64, 2u64);
        let mut bk = EsBucket::new();

        bk.insert(&a, 2);
        assert_eq!(bk.id(), Some(&a));
        assert_eq!((bk.yes(), bk.no()), (2, 0));

        bk.insert(&a, 3);
        assert_eq!((bk.yes(), bk.no()), (5, 0));

        bk.insert(&b, 10); // NO reaches 10 ≥ YES 5 → replacement + swap
        assert_eq!(bk.id(), Some(&b));
        assert_eq!((bk.yes(), bk.no()), (10, 5));

        let qa = bk.query(&a);
        assert_eq!((qa.value, qa.max_possible_error), (5, 5));
        let qb = bk.query(&b);
        assert_eq!((qb.value, qb.max_possible_error), (10, 5));
    }

    #[test]
    fn empty_bucket_answers_zero_exactly() {
        let bk = EsBucket::<u64>::new();
        let q = bk.query(&7);
        assert_eq!(q.value, 0);
        assert_eq!(q.max_possible_error, 0);
        assert!(bk.is_empty());
    }

    #[test]
    fn first_insert_captures_bucket() {
        let mut bk = EsBucket::new();
        bk.insert(&9u64, 4);
        assert_eq!(bk.id(), Some(&9));
        assert_eq!((bk.yes(), bk.no()), (4, 0));
    }

    #[test]
    fn tie_goes_to_the_newcomer() {
        // NO == YES triggers replacement ("less than or equal", §3.1)
        let mut bk = EsBucket::new();
        bk.insert(&1u64, 5);
        bk.insert(&2u64, 5); // NO=5 ≥ YES=5 → replace
        assert_eq!(bk.id(), Some(&2));
        assert_eq!((bk.yes(), bk.no()), (5, 5));
    }

    #[test]
    fn counters_saturate_instead_of_overflowing() {
        let mut bk = EsBucket::new();
        bk.insert(&1u64, u64::MAX);
        bk.insert(&1u64, 1);
        assert_eq!((bk.id(), bk.yes(), bk.no()), (Some(&1), u64::MAX, 0));
        bk.insert(&2u64, u64::MAX); // NO saturates, and the tie takes over
        assert_eq!((bk.id(), bk.yes(), bk.no()), (Some(&2), u64::MAX, u64::MAX));
    }

    #[test]
    fn zero_value_is_a_noop() {
        let mut bk = EsBucket::new();
        bk.insert(&1u64, 0);
        assert!(bk.is_empty());
    }

    #[test]
    fn clear_resets() {
        let mut bk = EsBucket::new();
        bk.insert(&1u64, 5);
        bk.clear();
        assert!(bk.is_empty());
    }

    /// Reference checker: replay any insertion sequence and verify the §3.1
    /// interval contract for every key involved.
    fn check_contract(ops: &[(u64, u64)]) {
        let mut bk = EsBucket::new();
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &(k, v) in ops {
            bk.insert(&k, v);
            *truth.entry(k).or_insert(0) += v;

            // invariant: YES ≥ NO whenever a candidate is present (the
            // replacement rule restores it immediately)
            if bk.id().is_some() {
                assert!(bk.yes() >= bk.no(), "YES {} < NO {}", bk.yes(), bk.no());
            }

            for (&key, &f) in &truth {
                let q = bk.query(&key);
                assert!(
                    q.contains(f),
                    "key {key}: truth {f} outside [{}, {}] after {ops:?}",
                    q.lower_bound(),
                    q.value
                );
            }
            // unseen key: estimate NO bounds it (f = 0 ≤ NO trivially) and
            // the interval must contain 0
            let q = bk.query(&0xffff_ffff_ffff_ffff);
            assert!(q.contains(0));
        }
    }

    #[test]
    fn contract_on_handcrafted_sequences() {
        check_contract(&[(1, 1), (2, 1), (1, 1), (3, 5), (3, 1), (2, 2)]);
        check_contract(&[(1, 100), (2, 99), (2, 2), (1, 1)]);
        check_contract(&[(5, 1); 10]);
        check_contract(&[(1, 1), (2, 1), (3, 1), (4, 1), (5, 1)]);
    }

    #[test]
    fn yes_plus_no_equals_total_inserted() {
        // every inserted unit lands in exactly one of YES/NO (swap preserves
        // the sum)
        let mut bk = EsBucket::new();
        let ops = [(1u64, 3u64), (2, 4), (1, 2), (3, 9), (2, 1)];
        let mut total = 0;
        for (k, v) in ops {
            bk.insert(&k, v);
            total += v;
            assert_eq!(bk.yes() + bk.no(), total);
        }
    }

    #[test]
    fn merge_union_same_candidate_adds_fields() {
        let mut a = EsBucket::new();
        a.insert(&1u64, 5);
        a.insert(&2u64, 2); // ID=1, YES=5, NO=2
        let mut b = EsBucket::new();
        b.insert(&1u64, 7);
        b.insert(&3u64, 3); // ID=1, YES=7, NO=3
        a.merge_union(&b);
        assert_eq!(a.id(), Some(&1));
        assert_eq!((a.yes(), a.no()), (12, 5));
    }

    #[test]
    fn merge_union_empty_sides() {
        let mut a = EsBucket::new();
        a.insert(&1u64, 5);
        let snapshot = a.clone();
        a.merge_union(&EsBucket::new());
        assert_eq!(a, snapshot);

        let mut empty = EsBucket::new();
        empty.merge_union(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn merge_union_different_candidates_keeps_contract() {
        // shard 1: f(10)=8, f(11)=2 → ID=10, YES=8, NO=2
        let mut a = EsBucket::new();
        a.insert(&10u64, 8);
        a.insert(&11u64, 2);
        // shard 2: f(11)=5 → ID=11, YES=5, NO=0
        let mut b = EsBucket::new();
        b.insert(&11u64, 5);
        a.merge_union(&b);
        // combined truth: f(10)=8, f(11)=7
        let qa = a.query(&10u64);
        let qb = a.query(&11u64);
        assert!(qa.contains(8), "10: {qa:?}");
        assert!(qb.contains(7), "11: {qb:?}");
        assert!(a.yes() >= a.no(), "bucket invariant broken");
    }

    proptest! {
        /// For arbitrary insertion sequences the query contract holds for
        /// all keys at all times.
        #[test]
        fn prop_interval_contract(ops in proptest::collection::vec((0u64..8, 1u64..20), 1..200)) {
            check_contract(&ops);
        }

        /// Merging two buckets that observed disjoint slices of one stream
        /// preserves the interval contract against the combined truth, for
        /// every key and any split point.
        #[test]
        fn prop_merge_union_contract(
            ops in proptest::collection::vec((0u64..6, 1u64..15), 2..200),
            assign in proptest::collection::vec(proptest::bool::ANY, 200),
        ) {
            let mut shard1 = EsBucket::new();
            let mut shard2 = EsBucket::new();
            let mut truth: HashMap<u64, u64> = HashMap::new();
            for (idx, &(k, v)) in ops.iter().enumerate() {
                if assign[idx % assign.len()] {
                    shard1.insert(&k, v);
                } else {
                    shard2.insert(&k, v);
                }
                *truth.entry(k).or_insert(0) += v;
            }
            shard1.merge_union(&shard2);
            if shard1.id().is_some() {
                prop_assert!(shard1.yes() >= shard1.no());
            }
            for (&k, &f) in &truth {
                let q = shard1.query(&k);
                prop_assert!(q.contains(f),
                    "key {}: truth {} outside [{}, {}]", k, f, q.lower_bound(), q.value);
            }
            // an unseen key still gets a sound (zero-containing) interval
            prop_assert!(shard1.query(&0xdead_beef).contains(0));
        }

        /// Merge is commutative on the answer level: both orders give the
        /// same certified interval for every key.
        #[test]
        fn prop_merge_union_commutes(
            ops1 in proptest::collection::vec((0u64..5, 1u64..10), 0..60),
            ops2 in proptest::collection::vec((0u64..5, 1u64..10), 0..60),
        ) {
            let mut a = EsBucket::new();
            for (k, v) in &ops1 { a.insert(k, *v); }
            let mut b = EsBucket::new();
            for (k, v) in &ops2 { b.insert(k, *v); }

            let mut ab = a.clone();
            ab.merge_union(&b);
            let mut ba = b.clone();
            ba.merge_union(&a);

            for k in 0u64..5 {
                prop_assert_eq!(ab.query(&k), ba.query(&k), "key {}", k);
            }
        }

        /// The candidate's YES−NO never exceeds its true sum, and YES never
        /// undershoots it.
        #[test]
        fn prop_candidate_bounds(ops in proptest::collection::vec((0u64..4, 1u64..10), 1..100)) {
            let mut bk = EsBucket::new();
            let mut truth: HashMap<u64, u64> = HashMap::new();
            for (k, v) in ops {
                bk.insert(&k, v);
                *truth.entry(k).or_insert(0) += v;
                if let Some(&id) = bk.id() {
                    let f = truth[&id];
                    prop_assert!(bk.yes() >= f);
                    prop_assert!(bk.yes() - bk.no() <= f);
                }
            }
        }

        /// Per-key answers are monotone non-decreasing over the stream —
        /// inserting anything can only raise (or keep) any key's estimate:
        /// a matching insert raises YES; a colliding insert raises NO (the
        /// miss answer), and a replacement swap hands the old YES to NO.
        #[test]
        fn prop_answers_monotone(ops in proptest::collection::vec((0u64..5, 1u64..10), 1..150)) {
            let mut bk = EsBucket::new();
            let mut last: HashMap<u64, u64> = HashMap::new();
            for (k, v) in ops {
                bk.insert(&k, v);
                for key in 0u64..5 {
                    let q = bk.query(&key).value;
                    let prev = last.insert(key, q).unwrap_or(0);
                    prop_assert!(q >= prev,
                        "estimate of {key} dropped {prev} → {q}");
                }
            }
        }

        /// NO bounds the sum of every non-candidate key.
        #[test]
        fn prop_no_bounds_others(ops in proptest::collection::vec((0u64..4, 1u64..10), 1..100)) {
            let mut bk = EsBucket::new();
            let mut truth: HashMap<u64, u64> = HashMap::new();
            for (k, v) in ops {
                bk.insert(&k, v);
                *truth.entry(k).or_insert(0) += v;
                for (&key, &f) in &truth {
                    if bk.id() != Some(&key) {
                        prop_assert!(f <= bk.no(),
                            "non-candidate {key} has f={f} > NO={}", bk.no());
                    }
                }
            }
        }
    }
}
