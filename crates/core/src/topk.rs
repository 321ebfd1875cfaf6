//! Error-certified top-K heavy hitters over elephant promotion.
//!
//! A capacity-bounded Space-Saving summary (Metwally et al.) grafted
//! onto ReliableSketch's mice filter: a key is *offered* to the summary
//! exactly when the filter passes value through (elephant promotion) —
//! or on every insert for the raw, filter-less variants. The crucial
//! twist over plain Space-Saving is what an entry stores:
//!
//! * `count` is seeded from the sketch's own post-insert estimate
//!   `f̂(e)` — an upper bound on the key's true sum — and from then on
//!   tracks every passed value exactly, so it *stays* an upper bound;
//! * `error` is the sketch's certified per-key Maximum Possible Error at
//!   claim time, so `truth ∈ [count − error, count]` for every entry —
//!   error bars plain Space-Saving cannot produce.
//!
//! ## The answer rule
//!
//! Every flavour's top-K answer ends in `top`: candidate keys with
//! certificates, sorted by value, then the first `k` with the next value
//! as `next_count`. Where one writer feeds the summary, its entries
//! are the candidates and their own `(count, error)` the certificates.
//! Lock-free sketches and windows `rank` each monitored key by their own
//! point query instead: two writers racing one claim can count the same
//! update in the claim's seed and in an offer, pushing `count − error`
//! above the truth, and a window must sum its generations anyway. Their
//! summary counts then only rank keys, evict and bound misses, which an
//! overcount keeps sound. Their candidates come in heap order, so keys
//! whose point-query values tie come in no fixed order: an answer
//! certifies no order among equal values.
//!
//! ## Layout and ties
//!
//! The entries sit in one `Vec` in binary min-heap order, beside a map
//! from each key to its position. Every count change takes a stamp from
//! a counter, and the heap orders entries by count ascending, then by
//! stamp descending. So among equal counts the entry whose count
//! changed last sits nearest the root: it is evicted first, and the
//! summary's own answers list it first. A raise, a claim and an
//! eviction each cost O(log k) for k slots. Only promoted elephants
//! reach the summary, so the sketch's own insert stays O(1).
//!
//! ## The recall certificate
//!
//! [`TopKSummary::miss_bound`] is an upper bound on the true sum of any
//! key the summary does **not** track, maintained from three monotone
//! sources: the promotion threshold (an untracked key may have absorbed
//! at most that much in the filter), the minimum monitored count once
//! the summary is full (rejected and evicted keys were at or below it),
//! and a floor raised by [`TopKSummary::merge_from`] (absent-side
//! charges). Together with the (k+1)-th tracked count this yields
//! [`rsk_api::CertifiedTopK::guaranteed_floor`]: any key whose true sum
//! clears the floor is provably reported. `tests/topk_oracle.rs` races
//! this certificate against the exact oracle on zipf, churn and
//! adversarial streams.

#![deny(clippy::arithmetic_side_effects)]

use core::cmp::Reverse;
use rsk_api::{CertifiedTopK, Estimate, Key, MergeError, TopKEntry};
use std::collections::{HashMap, HashSet};

/// Model bytes per summary slot (key 8, count 8, error 4, position 4) —
/// what an entry costs in the paper-style accounting of
/// [`rsk_api::MemoryFootprint`].
pub const TOPK_ENTRY_BYTES: usize = 24;

/// Each distinct key of `candidates` (first occurrence kept) with its
/// certificate from `query`, stable-sorted by value, descending.
pub(crate) fn rank<K: Key>(
    candidates: impl IntoIterator<Item = K>,
    mut query: impl FnMut(&K) -> Estimate,
) -> Vec<(K, Estimate)> {
    let mut seen = HashSet::new();
    let mut ranked: Vec<(K, Estimate)> = candidates
        .into_iter()
        .filter(|key| seen.insert(*key))
        .map(|key| (key, query(&key)))
        .collect();
    ranked.sort_by_key(|(_, est)| Reverse(est.value));
    ranked
}

/// The first `k` ranked entries, with the `(k+1)`-th value as
/// `next_count`.
pub(crate) fn top<K>(ranked: Vec<(K, Estimate)>, miss_bound: u64, k: usize) -> CertifiedTopK<K> {
    let next_count = ranked.get(k).map_or(0, |(_, est)| est.value);
    let entries = ranked
        .into_iter()
        .take(k)
        .map(|(key, est)| TopKEntry {
            key,
            count: est.value,
            error: est.max_possible_error,
        })
        .collect();
    CertifiedTopK {
        entries,
        miss_bound,
        next_count,
    }
}

/// One monitored key.
#[derive(Debug, Clone)]
struct Entry<K> {
    key: K,
    count: u64,
    error: u64,
    /// When `count` last changed.
    stamp: u64,
}

impl<K> Entry<K> {
    /// Does `self` go before `other` in heap order (count ascending,
    /// then the later change first)?
    fn below(&self, other: &Self) -> bool {
        (self.count, Reverse(self.stamp)) < (other.count, Reverse(other.stamp))
    }
}

/// The Space-Saving summary (see the module docs).
///
/// # Examples
///
/// ```
/// use rsk_core::topk::TopKSummary;
/// use rsk_api::Estimate;
///
/// let mut tk = TopKSummary::<u64>::new(2, 0);
/// tk.offer(&7, 10, || Estimate::exact(10));
/// tk.offer(&8, 3, || Estimate::exact(3));
/// tk.offer(&7, 5, || unreachable!("monitored keys never re-query"));
/// let ans = tk.certified_top_k(2);
/// assert_eq!(ans.entries[0].key, 7);
/// assert_eq!(ans.entries[0].count, 15);
/// assert!(ans.entries[0].contains(15));
/// ```
#[derive(Debug, Clone)]
pub struct TopKSummary<K: Key> {
    capacity: usize,
    /// Promotion threshold of the mice filter in front (0 when raw).
    threshold: u64,
    /// Monotone floor raised by merges (absent-side charges and
    /// truncation); 0 for a summary that only ever ingested.
    floor: u64,
    /// The monitored entries in heap order: the root is the next
    /// eviction.
    heap: Vec<Entry<K>>,
    /// Each monitored key's position in `heap`.
    index: HashMap<K, usize>,
    /// The last stamp taken.
    clock: u64,
}

impl<K: Key> TopKSummary<K> {
    /// An empty summary monitoring at most `capacity` keys (clamped to
    /// ≥ 1), promoted past `threshold` (the mice-filter saturation
    /// point; pass 0 for raw sketches that offer every insert).
    pub fn new(capacity: usize, threshold: u64) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            threshold,
            floor: 0,
            heap: Vec::with_capacity(capacity),
            index: HashMap::with_capacity(capacity),
            clock: 0,
        }
    }

    /// Maximum number of monitored keys.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently monitored keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Is nothing monitored yet?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Is every slot taken (evictions from here on)?
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len() == self.capacity
    }

    /// Is `key` currently monitored?
    #[inline]
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// The certified `(count, error)` pair of a monitored key.
    #[inline]
    pub(crate) fn get(&self, key: &K) -> Option<(u64, u64)> {
        self.index.get(key).map(|&pos| {
            let entry = &self.heap[pos];
            (entry.count, entry.error)
        })
    }

    /// Smallest monitored count (0 when empty).
    #[inline]
    pub fn min_count(&self) -> u64 {
        self.heap.first().map_or(0, |root| root.count)
    }

    /// Certified upper bound on the true sum of any key **not** in the
    /// summary. Monotone nondecreasing over the summary's lifetime, so
    /// the certificate covers keys evicted or rejected at any point in
    /// the past.
    pub fn miss_bound(&self) -> u64 {
        let mut mb = self.floor.max(self.threshold);
        if self.is_full() {
            mb = mb.max(self.min_count());
        }
        mb
    }

    /// Offer `passed` units of a key that just cleared the promotion
    /// boundary. A monitored key's count rises by `passed`; an
    /// unmonitored key is seeded from `estimate` — the sketch's
    /// *post-insert* certified estimate, whose `value` covers the key's
    /// full mass (filter residue included) and whose MPE becomes the
    /// entry's permanent error bar — and takes a free slot, or the
    /// root's when the summary is full and it outweighs the root.
    /// `estimate` is only invoked on that claim path, never for
    /// already-monitored keys.
    pub fn offer<F>(&mut self, key: &K, passed: u64, estimate: F)
    where
        F: FnOnce() -> Estimate,
    {
        if let Some(&pos) = self.index.get(key) {
            let count = self.heap[pos].count.saturating_add(passed);
            if count > self.heap[pos].count {
                let stamp = self.tick();
                let entry = &mut self.heap[pos];
                entry.count = count;
                entry.stamp = stamp;
                self.sift_down(pos);
            }
            return;
        }
        let est = estimate();
        if self.is_full() && est.value <= self.min_count() {
            return; // rejected — truth ≤ est.value ≤ min_count ≤ miss_bound()
        }
        let entry = Entry {
            key: *key,
            count: est.value,
            error: est.max_possible_error,
            stamp: self.tick(),
        };
        if self.is_full() {
            let evicted = core::mem::replace(&mut self.heap[0], entry);
            self.index.remove(&evicted.key);
            self.index.insert(*key, 0);
            self.sift_down(0);
        } else {
            self.push(entry);
        }
    }

    /// The top-`k` answer certified by the summary's own `(count, error)`
    /// pairs, sound where one writer feeds it (entries by count
    /// descending; among equal counts, the last changed first).
    pub fn certified_top_k(&self, k: usize) -> CertifiedTopK<K> {
        let mut sorted: Vec<&Entry<K>> = self.heap.iter().collect();
        // stamps are unique, so the unstable sort has one outcome
        sorted.sort_unstable_by_key(|e| Reverse((e.count, e.stamp)));
        let ranked = sorted
            .into_iter()
            .map(|e| {
                let est = Estimate {
                    value: e.count,
                    max_possible_error: e.error,
                };
                (e.key, est)
            })
            .collect();
        top(ranked, self.miss_bound(), k)
    }

    /// The monitored keys, in no particular order, and the miss bound:
    /// what a top-K answer ranks and charges.
    pub(crate) fn candidates(&self) -> (Vec<K>, u64) {
        let keys = self.heap.iter().map(|e| e.key).collect();
        (keys, self.miss_bound())
    }

    /// Every monitored entry, count descending (= the full-capacity
    /// answer's entry list).
    pub fn entries_desc(&self) -> Vec<TopKEntry<K>> {
        self.certified_top_k(self.len()).entries
    }

    /// Union-merge (Agarwal et al.'s mergeable-summaries rule): keys on
    /// either side keep the sum of both sides' certified fields, a key
    /// absent from one side is charged that side's miss bound on *both*
    /// `count` and `error` (its mass there is unknown but bounded), the
    /// result is truncated back to capacity, and the floor rises to
    /// cover both the summed miss bounds and anything truncated away —
    /// so the merged certificate stays sound.
    ///
    /// # Errors
    /// [`MergeError::Incompatible`] when the capacities differ.
    pub fn merge_from(&mut self, other: &TopKSummary<K>) -> Result<(), MergeError> {
        if self.capacity != other.capacity {
            return Err(MergeError::Incompatible(format!(
                "top-K capacity mismatch ({} vs {})",
                self.capacity, other.capacity
            )));
        }
        let mb_self = self.miss_bound();
        let mb_other = other.miss_bound();
        let mut from_other: HashMap<K, (u64, u64)> = other
            .entries_desc()
            .iter()
            .map(|e| (e.key, (e.count, e.error)))
            .collect();
        let mut merged: Vec<(K, u64, u64)> =
            Vec::with_capacity(self.len().saturating_add(other.len()));
        for e in self.entries_desc() {
            match from_other.remove(&e.key) {
                Some((c, err)) => {
                    merged.push((
                        e.key,
                        e.count.saturating_add(c),
                        e.error.saturating_add(err),
                    ));
                }
                None => merged.push((
                    e.key,
                    e.count.saturating_add(mb_other),
                    e.error.saturating_add(mb_other),
                )),
            }
        }
        for e in other.entries_desc() {
            if let Some((c, err)) = from_other.remove(&e.key) {
                merged.push((
                    e.key,
                    c.saturating_add(mb_self),
                    err.saturating_add(mb_self),
                ));
            }
        }
        merged.sort_by_key(|&(_, c, _)| Reverse(c));
        let mut floor = self
            .floor
            .max(other.floor)
            .max(mb_self.saturating_add(mb_other));
        if merged.len() > self.capacity {
            // truncated entries' counts upper-bound their truths
            floor = floor.max(merged[self.capacity].1);
            merged.truncate(self.capacity);
        }
        let threshold = self.threshold.max(other.threshold);
        *self = Self::from_rows(self.capacity, threshold, floor, merged)
            .map_err(MergeError::Incompatible)?;
        Ok(())
    }

    /// A summary holding `(key, count, error)` rows, in
    /// [`Self::entries_desc`] order or any other: a stable sort by count
    /// restores the order `entries_desc` lists, ties included (the rows
    /// take their stamps in reverse, so the first listed of two equal
    /// counts changed last), and a captured summary rebuilds with the
    /// same eviction order.
    ///
    /// # Errors
    /// A description of the fault when a key repeats or the rows
    /// outnumber `capacity`.
    pub(crate) fn from_rows(
        capacity: usize,
        threshold: u64,
        floor: u64,
        mut rows: Vec<(K, u64, u64)>,
    ) -> Result<Self, String> {
        let mut summary = Self::new(capacity, threshold);
        if rows.len() > summary.capacity {
            return Err(format!(
                "{} summary rows for {} slots",
                rows.len(),
                summary.capacity
            ));
        }
        summary.floor = floor;
        rows.sort_by_key(|&(_, count, _)| Reverse(count));
        for &(key, count, error) in rows.iter().rev() {
            if summary.contains(&key) {
                return Err("a key repeats among the summary rows".into());
            }
            let stamp = summary.tick();
            summary.push(Entry {
                key,
                count,
                error,
                stamp,
            });
        }
        Ok(summary)
    }

    /// Forget everything (capacity and threshold survive).
    pub fn clear(&mut self) {
        self.heap.clear();
        self.index.clear();
        self.clock = 0;
        self.floor = 0;
    }

    /// Model memory footprint: every slot costs [`TOPK_ENTRY_BYTES`].
    pub fn memory_bytes(&self) -> usize {
        self.capacity.saturating_mul(TOPK_ENTRY_BYTES)
    }

    /// A fresh stamp (a `u64` clock that one summary cannot wrap).
    fn tick(&mut self) -> u64 {
        self.clock = self.clock.wrapping_add(1);
        self.clock
    }

    /// Add an entry in a free slot.
    fn push(&mut self, entry: Entry<K>) {
        debug_assert!(self.len() < self.capacity);
        let pos = self.heap.len();
        self.index.insert(entry.key, pos);
        self.heap.push(entry);
        self.sift_up(pos);
    }

    /// Record where the entry at `pos` now sits.
    fn place(&mut self, pos: usize) {
        if let Some(slot) = self.index.get_mut(&self.heap[pos].key) {
            *slot = pos;
        }
    }

    /// Move the entry at `start`, whose index row already says `start`,
    /// toward the root past every entry it goes before.
    #[allow(clippy::arithmetic_side_effects)] // positions stay below `capacity`, a `Vec` length
    fn sift_up(&mut self, start: usize) {
        let mut pos = start;
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if !self.heap[pos].below(&self.heap[parent]) {
                break;
            }
            self.heap.swap(pos, parent);
            self.place(pos);
            pos = parent;
        }
        if pos != start {
            self.place(pos);
        }
    }

    /// Move the entry at `start`, whose index row already says `start`,
    /// toward the leaves past every child that goes before it.
    #[allow(clippy::arithmetic_side_effects)] // positions stay below `capacity`, a `Vec` length
    fn sift_down(&mut self, start: usize) {
        let mut pos = start;
        let len = self.heap.len();
        loop {
            let left = 2 * pos + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.heap[right].below(&self.heap[left]) {
                right
            } else {
                left
            };
            if !self.heap[child].below(&self.heap[pos]) {
                break;
            }
            self.heap.swap(pos, child);
            self.place(pos);
            pos = child;
        }
        if pos != start {
            self.place(pos);
        }
    }
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects)] // small fixed test data
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// Structural integrity: every entry keeps heap order with its
    /// parent, and the index maps each monitored key to its position.
    fn validate(tk: &TopKSummary<u64>) {
        assert!(tk.len() <= tk.capacity, "over capacity");
        assert_eq!(tk.index.len(), tk.len(), "index size != entries");
        for (pos, entry) in tk.heap.iter().enumerate() {
            assert_eq!(tk.index.get(&entry.key), Some(&pos), "index out of sync");
            if pos > 0 {
                let parent = &tk.heap[(pos - 1) / 2];
                assert!(!entry.below(parent), "heap order broken at {pos}");
            }
        }
    }

    /// A naive Space-Saving with the same tie rule: `(key, count, error,
    /// stamp)` rows, a linear scan for the next eviction and a sort for
    /// listing.
    #[derive(Debug, Clone)]
    struct Model {
        capacity: usize,
        threshold: u64,
        floor: u64,
        rows: Vec<(u64, u64, u64, u64)>,
        clock: u64,
    }

    impl Model {
        fn new(capacity: usize, threshold: u64) -> Self {
            Self {
                capacity: capacity.max(1),
                threshold,
                floor: 0,
                rows: Vec::new(),
                clock: 0,
            }
        }

        fn tick(&mut self) -> u64 {
            self.clock += 1;
            self.clock
        }

        /// The next eviction: least count, then the latest stamp.
        fn min_pos(&self) -> Option<usize> {
            (0..self.rows.len())
                .min_by_key(|&i| (self.rows[i].1, core::cmp::Reverse(self.rows[i].3)))
        }

        fn min_count(&self) -> u64 {
            self.min_pos().map_or(0, |i| self.rows[i].1)
        }

        fn miss_bound(&self) -> u64 {
            let mb = self.floor.max(self.threshold);
            if self.rows.len() == self.capacity {
                mb.max(self.min_count())
            } else {
                mb
            }
        }

        fn offer(&mut self, key: u64, passed: u64, est: Estimate) {
            if let Some(i) = self.rows.iter().position(|r| r.0 == key) {
                if passed > 0 {
                    let stamp = self.tick();
                    self.rows[i].1 += passed;
                    self.rows[i].3 = stamp;
                }
                return;
            }
            let row = (key, est.value, est.max_possible_error, 0);
            if self.rows.len() < self.capacity {
                let stamp = self.tick();
                self.rows.push((row.0, row.1, row.2, stamp));
            } else if est.value > self.min_count() {
                let (i, stamp) = (self.min_pos().unwrap(), self.tick());
                self.rows[i] = (row.0, row.1, row.2, stamp);
            }
        }

        fn entries_desc(&self) -> Vec<TopKEntry<u64>> {
            let mut rows = self.rows.clone();
            rows.sort_by_key(|r| core::cmp::Reverse((r.1, r.3)));
            rows.into_iter()
                .map(|(key, count, error, _)| TopKEntry { key, count, error })
                .collect()
        }

        fn get(&self, key: u64) -> Option<(u64, u64)> {
            self.rows.iter().find(|r| r.0 == key).map(|r| (r.1, r.2))
        }

        /// The union-merge rule, then a rebuild that stamps the rows
        /// from the last listed to the first.
        fn merge(&mut self, other: &Model) {
            let (mb_self, mb_other) = (self.miss_bound(), other.miss_bound());
            let mut rows: Vec<(u64, u64, u64)> = Vec::new();
            for e in self.entries_desc() {
                let (c, err) = other.get(e.key).unwrap_or((mb_other, mb_other));
                rows.push((e.key, e.count + c, e.error + err));
            }
            for e in other.entries_desc() {
                if self.get(e.key).is_none() {
                    rows.push((e.key, e.count + mb_self, e.error + mb_self));
                }
            }
            rows.sort_by_key(|r| core::cmp::Reverse(r.1));
            let mut floor = self.floor.max(other.floor).max(mb_self + mb_other);
            if rows.len() > self.capacity {
                floor = floor.max(rows[self.capacity].1);
                rows.truncate(self.capacity);
            }
            let mut merged = Model::new(self.capacity, self.threshold.max(other.threshold));
            merged.floor = floor;
            for &(key, count, error) in rows.iter().rev() {
                let stamp = merged.tick();
                merged.rows.push((key, count, error, stamp));
            }
            *self = merged;
        }
    }

    /// Offer `ops` (key, passed value, estimate inflation) to a summary
    /// and its model, seeding claims from the running truth plus the
    /// inflation, and compare the two after every step.
    fn drive_twins(
        tk: &mut TopKSummary<u64>,
        model: &mut Model,
        truth: &mut HashMap<u64, u64>,
        ops: &[(u64, u64, u64)],
    ) -> Result<(), TestCaseError> {
        for &(key, v, inflate) in ops {
            let t = truth.entry(key).or_insert(0);
            *t += v;
            let est = Estimate {
                value: *t + inflate,
                max_possible_error: inflate,
            };
            tk.offer(&key, v, || est);
            model.offer(key, v, est);
            assert_twins(tk, model)?;
        }
        Ok(())
    }

    fn assert_twins(tk: &TopKSummary<u64>, model: &Model) -> Result<(), TestCaseError> {
        validate(tk);
        prop_assert_eq!(tk.entries_desc(), model.entries_desc());
        prop_assert_eq!(tk.miss_bound(), model.miss_bound());
        prop_assert_eq!(tk.min_count(), model.min_count());
        Ok(())
    }

    #[test]
    fn among_equal_counts_the_last_raised_is_listed_and_evicted_first() {
        let mut tk = TopKSummary::<u64>::new(3, 0);
        tk.offer(&1, 5, || Estimate::exact(5));
        tk.offer(&2, 4, || Estimate::exact(4));
        tk.offer(&3, 3, || Estimate::exact(3));
        tk.offer(&3, 2, || unreachable!());
        tk.offer(&2, 1, || unreachable!());
        let keys: Vec<u64> = tk.entries_desc().iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![2, 3, 1], "all at 5: the last raised first");
        tk.offer(&9, 6, || Estimate::exact(6));
        assert!(!tk.contains(&2), "the last raised is evicted first");
        let keys: Vec<u64> = tk.entries_desc().iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![9, 3, 1]);
        validate(&tk);
    }

    /// Drive a summary with *exact* estimates (a perfect sketch): counts
    /// must then equal the truth for monitored keys.
    fn exact_drive(ops: &[(u64, u64)], capacity: usize) -> (TopKSummary<u64>, HashMap<u64, u64>) {
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut tk = TopKSummary::<u64>::new(capacity, 0);
        for &(k, v) in ops {
            let t = truth.entry(k).or_insert(0);
            *t += v;
            let now = *t;
            tk.offer(&k, v, || Estimate::exact(now));
        }
        (tk, truth)
    }

    #[test]
    fn monitored_counts_track_exactly() {
        let ops: Vec<(u64, u64)> = (0..500u64).map(|i| (i % 7, 1 + i % 3)).collect();
        let (tk, truth) = exact_drive(&ops, 16);
        assert_eq!(tk.len(), 7);
        for e in tk.entries_desc() {
            assert_eq!(e.count, truth[&e.key], "key {}", e.key);
            assert_eq!(e.error, 0);
        }
    }

    #[test]
    fn entries_sorted_descending_with_next_count() {
        let ops: Vec<(u64, u64)> = (0..40u64).flat_map(|k| vec![(k, k + 1); 1]).collect();
        let (tk, _) = exact_drive(&ops, 32);
        let ans = tk.certified_top_k(5);
        assert_eq!(ans.entries.len(), 5);
        for w in ans.entries.windows(2) {
            assert!(w[0].count >= w[1].count);
        }
        // keys 8..40 monitored (32 slots), top-5 are 35..40 with counts 36..41
        assert_eq!(ans.entries[0].count, 40);
        assert_eq!(ans.next_count, 35);
    }

    #[test]
    fn eviction_prefers_min_and_miss_bound_is_monotone() {
        let mut tk = TopKSummary::<u64>::new(4, 2);
        let mut last_mb = tk.miss_bound();
        assert_eq!(last_mb, 2, "threshold floors the miss bound");
        for k in 0..32u64 {
            let est = Estimate {
                value: 3 + k,
                max_possible_error: 2,
            };
            tk.offer(&k, 1, || est);
            let mb = tk.miss_bound();
            assert!(mb >= last_mb, "miss bound regressed: {last_mb} -> {mb}");
            last_mb = mb;
            validate(&tk);
        }
        assert_eq!(tk.len(), 4);
        // the four largest seeds survive
        let keys: Vec<u64> = tk.entries_desc().iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![31, 30, 29, 28]);
    }

    #[test]
    fn rejected_keys_stay_under_miss_bound() {
        let mut tk = TopKSummary::<u64>::new(2, 0);
        tk.offer(&1, 100, || Estimate::exact(100));
        tk.offer(&2, 90, || Estimate::exact(90));
        // summary full at min 90: a key worth 50 is rejected…
        tk.offer(&3, 50, || Estimate::exact(50));
        assert!(!tk.contains(&3));
        assert!(tk.miss_bound() >= 50);
        // …and a key worth 95 evicts the 90
        tk.offer(&4, 95, || Estimate::exact(95));
        assert!(tk.contains(&4) && !tk.contains(&2));
        assert_eq!(tk.miss_bound(), 95);
    }

    #[test]
    fn merge_unions_and_charges_absent_side() {
        let mut a = TopKSummary::<u64>::new(4, 0);
        let mut b = TopKSummary::<u64>::new(4, 0);
        a.offer(&1, 100, || Estimate::exact(100));
        a.offer(&2, 50, || Estimate::exact(50));
        b.offer(&1, 40, || Estimate::exact(40));
        b.offer(&3, 70, || Estimate::exact(70));
        let (mb_a, mb_b) = (a.miss_bound(), b.miss_bound());
        assert_eq!((mb_a, mb_b), (0, 0), "neither side is full");
        a.merge_from(&b).unwrap();
        let by_key: HashMap<u64, TopKEntry<u64>> =
            a.entries_desc().into_iter().map(|e| (e.key, e)).collect();
        assert_eq!(by_key[&1].count, 140);
        assert_eq!(by_key[&2].count, 50);
        assert_eq!(by_key[&3].count, 70);
        // with empty-side miss bounds of zero the union is exact
        assert_eq!(by_key[&1].error, 0);
        assert_eq!(a.miss_bound(), 0);
    }

    #[test]
    fn merge_truncation_raises_the_floor() {
        let mut a = TopKSummary::<u64>::new(2, 0);
        let mut b = TopKSummary::<u64>::new(2, 0);
        a.offer(&1, 100, || Estimate::exact(100));
        a.offer(&2, 60, || Estimate::exact(60));
        b.offer(&3, 80, || Estimate::exact(80));
        b.offer(&4, 10, || Estimate::exact(10));
        let charged = a.miss_bound() + b.miss_bound(); // 60 + 10
        a.merge_from(&b).unwrap();
        // union {1:100+10, 3:80+60, 2:60+10, 4:10+60} keeps {110, 140}… sorted:
        // 3 at 140, 1 at 110; dropped max count is 2 at 70
        let keys: Vec<u64> = a.entries_desc().iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![3, 1]);
        assert!(a.miss_bound() >= charged.max(70));
    }

    #[test]
    fn merge_capacity_mismatch_refused() {
        let mut a = TopKSummary::<u64>::new(2, 0);
        let b = TopKSummary::<u64>::new(4, 0);
        assert!(matches!(a.merge_from(&b), Err(MergeError::Incompatible(_))));
    }

    #[test]
    fn clear_resets_but_keeps_shape() {
        let ops: Vec<(u64, u64)> = (0..100u64).map(|i| (i % 11, 1)).collect();
        let (mut tk, _) = exact_drive(&ops, 8);
        tk.clear();
        assert!(tk.is_empty());
        assert_eq!(tk.capacity(), 8);
        assert_eq!(tk.miss_bound(), 0);
        validate(&tk);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Structural integrity and certificate soundness under
        /// arbitrary exact-estimate op streams: every monitored count
        /// equals the truth, every unmonitored truth is ≤ miss_bound,
        /// and the heap stays consistent.
        #[test]
        fn prop_exact_offers_certify(
            ops in proptest::collection::vec((0u64..60, 1u64..9), 1..400),
            capacity in 1usize..24,
        ) {
            let (tk, truth) = exact_drive(&ops, capacity);
            validate(&tk);
            let mb = tk.miss_bound();
            let monitored: HashMap<u64, u64> = tk
                .entries_desc()
                .into_iter()
                .map(|e| (e.key, e.count))
                .collect();
            for (&k, &t) in &truth {
                match monitored.get(&k) {
                    Some(&c) => prop_assert!(c >= t, "count {} under truth {} for {}", c, t, k),
                    None => prop_assert!(t <= mb, "missed key {} truth {} > miss bound {}", k, t, mb),
                }
            }
            // the recall certificate never lies: keys above the floor
            // are all reported
            let ans = tk.certified_top_k(capacity.min(5));
            let floor = ans.guaranteed_floor();
            let reported: Vec<u64> = ans.entries.iter().map(|e| e.key).collect();
            for (&k, &t) in &truth {
                if t > floor {
                    prop_assert!(reported.contains(&k),
                        "truth {} clears floor {} but key {} unreported", t, floor, k);
                }
            }
        }

        /// The summary answers exactly like the naive model, ties
        /// included: offers with exact and inflated seeds, zero raises,
        /// evictions, one merge, and offers after it.
        #[test]
        fn prop_matches_the_naive_model(
            ops_a in proptest::collection::vec((0u64..16, 0u64..9, 0u64..4), 0..120),
            ops_b in proptest::collection::vec((0u64..16, 0u64..9, 0u64..4), 0..120),
            ops_after in proptest::collection::vec((0u64..16, 0u64..9, 0u64..4), 0..60),
            capacity in 1usize..13,
            thresholds in (0u64..3, 0u64..3),
        ) {
            let (mut a, mut model_a) = (TopKSummary::new(capacity, thresholds.0), Model::new(capacity, thresholds.0));
            let (mut b, mut model_b) = (TopKSummary::new(capacity, thresholds.1), Model::new(capacity, thresholds.1));
            let (mut truth_a, mut truth_b) = (HashMap::new(), HashMap::new());
            drive_twins(&mut a, &mut model_a, &mut truth_a, &ops_a)?;
            drive_twins(&mut b, &mut model_b, &mut truth_b, &ops_b)?;
            a.merge_from(&b).unwrap();
            model_a.merge(&model_b);
            assert_twins(&a, &model_a)?;
            for (k, v) in truth_b {
                *truth_a.entry(k).or_insert(0) += v;
            }
            drive_twins(&mut a, &mut model_a, &mut truth_a, &ops_after)?;
        }

        /// Merged certificates stay sound: counts upper-bound combined
        /// truths within their error bars, absent keys stay under the
        /// merged miss bound.
        #[test]
        fn prop_merge_certifies(
            ops_a in proptest::collection::vec((0u64..30, 1u64..9), 1..200),
            ops_b in proptest::collection::vec((0u64..30, 1u64..9), 1..200),
            capacity in 1usize..12,
        ) {
            let (mut a, truth_a) = exact_drive(&ops_a, capacity);
            let (b, truth_b) = exact_drive(&ops_b, capacity);
            a.merge_from(&b).unwrap();
            validate(&a);
            let mut truth = truth_a;
            for (k, v) in truth_b {
                *truth.entry(k).or_insert(0) += v;
            }
            let mb = a.miss_bound();
            let monitored: HashMap<u64, TopKEntry<u64>> =
                a.entries_desc().into_iter().map(|e| (e.key, e)).collect();
            for (&k, &t) in &truth {
                match monitored.get(&k) {
                    Some(e) => prop_assert!(e.contains(t) || e.count >= t,
                        "merged entry {:?} lost truth {}", e, t),
                    None => prop_assert!(t <= mb,
                        "merged miss bound {} lost key {} truth {}", mb, k, t),
                }
            }
        }
    }
}
