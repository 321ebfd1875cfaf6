//! Error-certified top-K heavy hitters over elephant promotion.
//!
//! A capacity-bounded StreamSummary (Metwally et al.'s Space-Saving
//! layout: a doubly-linked list of *count buckets*, each holding the
//! doubly-linked list of its entries) grafted onto ReliableSketch's mice
//! filter: a key is *offered* to the summary exactly when the filter
//! passes value through (elephant promotion) — or on every insert for
//! the raw, filter-less variants. The crucial twist over plain
//! Space-Saving is what an entry stores:
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
//! Every flavour's top-K answer is `rank` then `top`: each candidate
//! key with a certificate, sorted by value, then the first `k` with the
//! next value as `next_count`. Where one writer feeds the summary, its
//! own `(count, error)` is the certificate. Lock-free sketches and
//! windows answer each monitored key with their own point query
//! instead: two writers racing one claim can count the same update in
//! the claim's seed and in an offer, pushing `count − error` above the
//! truth, and a window must sum its generations anyway. Their summary
//! counts then only rank keys, evict and bound misses, which an
//! overcount keeps sound.
//!
//! Monitored-key updates are O(1) for unit increments (the classic
//! bucket hop); weighted increments walk at most the count buckets they
//! cross. Admission and eviction are O(1) amortized: a newly promoted
//! elephant's seed estimate sits near the filter threshold, i.e. near
//! the bottom of the bucket list.
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

use rsk_api::{CertifiedTopK, Estimate, Key, MergeError, TopKEntry};
use std::collections::{HashMap, HashSet};

/// Slab null pointer.
const NIL: usize = usize::MAX;

/// Model bytes per summary slot (key 8, count 8, error 4, links 4) —
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
    ranked.sort_by_key(|(_, est)| core::cmp::Reverse(est.value));
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

/// One count bucket: all entries sharing `count`, in a doubly-linked
/// list of buckets ordered by ascending count.
#[derive(Debug, Clone)]
struct BucketNode {
    count: u64,
    /// First entry slot of this bucket's entry list.
    head: usize,
    /// Bucket with the next-lower count.
    prev: usize,
    /// Bucket with the next-higher count.
    next: usize,
}

/// One monitored key.
#[derive(Debug, Clone)]
struct EntryNode<K> {
    key: K,
    error: u64,
    bucket: usize,
    prev: usize,
    next: usize,
}

/// The count-bucket doubly-linked-list summary (see the module docs).
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
    entries: Vec<EntryNode<K>>,
    free_entries: Vec<usize>,
    buckets: Vec<BucketNode>,
    free_buckets: Vec<usize>,
    /// Bucket with the smallest count (NIL when empty).
    lowest: usize,
    /// Bucket with the largest count (NIL when empty).
    highest: usize,
    index: HashMap<K, usize>,
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
            entries: Vec::with_capacity(capacity),
            free_entries: Vec::new(),
            buckets: Vec::with_capacity(capacity.min(64)),
            free_buckets: Vec::new(),
            lowest: NIL,
            highest: NIL,
            index: HashMap::with_capacity(capacity),
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
        self.index.len()
    }

    /// Is nothing monitored yet?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
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
        self.index.get(key).map(|&slot| {
            let entry = &self.entries[slot];
            (self.buckets[entry.bucket].count, entry.error)
        })
    }

    /// Smallest monitored count (0 when empty).
    #[inline]
    pub fn min_count(&self) -> u64 {
        if self.lowest == NIL {
            0
        } else {
            self.buckets[self.lowest].count
        }
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
    /// boundary. Monitored keys take the O(1) bucket hop; unmonitored
    /// keys are seeded from `estimate` — the sketch's *post-insert*
    /// certified estimate, whose `value` covers the key's full mass
    /// (filter residue included) and whose MPE becomes the entry's
    /// permanent error bar. `estimate` is only invoked on that claim
    /// path, never for already-monitored keys.
    pub fn offer<F>(&mut self, key: &K, passed: u64, estimate: F)
    where
        F: FnOnce() -> Estimate,
    {
        if let Some(&slot) = self.index.get(key) {
            self.increase(slot, passed);
            return;
        }
        let est = estimate();
        if !self.is_full() {
            self.admit(*key, est.value, est.max_possible_error);
        } else if est.value > self.min_count() {
            self.evict_min();
            self.admit(*key, est.value, est.max_possible_error);
        }
        // else: rejected — truth ≤ est.value ≤ min_count ≤ miss_bound()
    }

    /// The top-`k` answer certified by the summary's own `(count, error)`
    /// pairs, sound where one writer feeds it (entries by count
    /// descending; ties in deterministic claim order).
    pub fn certified_top_k(&self, k: usize) -> CertifiedTopK<K> {
        let (keys, miss_bound) = self.candidates();
        let own = |key: &K| {
            let (value, max_possible_error) = self.get(key).expect("candidates are monitored");
            Estimate {
                value,
                max_possible_error,
            }
        };
        top(rank(keys, own), miss_bound, k)
    }

    /// The monitored keys, count descending (ties in claim order), and
    /// the miss bound: what a top-K answer ranks and charges.
    pub(crate) fn candidates(&self) -> (Vec<K>, u64) {
        let mut keys = Vec::with_capacity(self.len());
        let mut b = self.highest;
        while b != NIL {
            let mut e = self.buckets[b].head;
            while e != NIL {
                keys.push(self.entries[e].key);
                e = self.entries[e].next;
            }
            b = self.buckets[b].prev;
        }
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
        merged.sort_by_key(|&(_, c, _)| core::cmp::Reverse(c));
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
    /// restores the order `entries_desc` lists, ties included, so a
    /// captured summary rebuilds with the same eviction order.
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
        rows.sort_by_key(|&(_, count, _)| core::cmp::Reverse(count));
        // ascending pushes keep the rebuild O(n): each key lands at the
        // top of the bucket list
        for &(key, count, error) in rows.iter().rev() {
            if summary.contains(&key) {
                return Err("a key repeats among the summary rows".into());
            }
            summary.push_highest(key, count, error);
        }
        Ok(summary)
    }

    /// Forget everything (capacity and threshold survive).
    pub fn clear(&mut self) {
        self.reset_slabs();
        self.floor = 0;
    }

    /// Model memory footprint: every slot costs [`TOPK_ENTRY_BYTES`].
    pub fn memory_bytes(&self) -> usize {
        self.capacity.saturating_mul(TOPK_ENTRY_BYTES)
    }

    // ---- internal slab plumbing ----

    fn reset_slabs(&mut self) {
        self.entries.clear();
        self.free_entries.clear();
        self.buckets.clear();
        self.free_buckets.clear();
        self.lowest = NIL;
        self.highest = NIL;
        self.index.clear();
    }

    fn alloc_entry(&mut self, node: EntryNode<K>) -> usize {
        match self.free_entries.pop() {
            Some(slot) => {
                self.entries[slot] = node;
                slot
            }
            None => {
                let slot = self.entries.len();
                self.entries.push(node);
                slot
            }
        }
    }

    fn alloc_bucket(&mut self, node: BucketNode) -> usize {
        match self.free_buckets.pop() {
            Some(slot) => {
                self.buckets[slot] = node;
                slot
            }
            None => {
                let slot = self.buckets.len();
                self.buckets.push(node);
                slot
            }
        }
    }

    /// Link a fresh bucket holding `count` directly after bucket `prev`
    /// (NIL = becomes the new lowest).
    fn insert_bucket_after(&mut self, prev: usize, count: u64) -> usize {
        let next = if prev == NIL {
            self.lowest
        } else {
            self.buckets[prev].next
        };
        let b = self.alloc_bucket(BucketNode {
            count,
            head: NIL,
            prev,
            next,
        });
        if prev == NIL {
            self.lowest = b;
        } else {
            self.buckets[prev].next = b;
        }
        if next == NIL {
            self.highest = b;
        } else {
            self.buckets[next].prev = b;
        }
        b
    }

    /// Unlink and free bucket `b` if no entry lives in it.
    fn remove_bucket_if_empty(&mut self, b: usize) {
        if self.buckets[b].head != NIL {
            return;
        }
        let (prev, next) = (self.buckets[b].prev, self.buckets[b].next);
        if prev == NIL {
            self.lowest = next;
        } else {
            self.buckets[prev].next = next;
        }
        if next == NIL {
            self.highest = prev;
        } else {
            self.buckets[next].prev = prev;
        }
        self.free_buckets.push(b);
    }

    /// Unlink entry `slot` from its bucket's entry list (the bucket node
    /// itself is left in place — callers decide its fate).
    fn detach_entry(&mut self, slot: usize) {
        let (b, prev, next) = {
            let e = &self.entries[slot];
            (e.bucket, e.prev, e.next)
        };
        if prev == NIL {
            self.buckets[b].head = next;
        } else {
            self.entries[prev].next = next;
        }
        if next != NIL {
            self.entries[next].prev = prev;
        }
    }

    /// Push entry `slot` at the front of bucket `b`'s entry list.
    fn attach_entry(&mut self, slot: usize, b: usize) {
        let head = self.buckets[b].head;
        self.entries[slot].bucket = b;
        self.entries[slot].prev = NIL;
        self.entries[slot].next = head;
        if head != NIL {
            self.entries[head].prev = slot;
        }
        self.buckets[b].head = slot;
    }

    /// Find (or create) the bucket for `count`, walking upward from the
    /// bucket after `from` (`from` = NIL starts at the lowest bucket).
    fn bucket_for(&mut self, from: usize, count: u64) -> usize {
        let mut prev = from;
        let mut cur = if from == NIL {
            self.lowest
        } else {
            self.buckets[from].next
        };
        while cur != NIL && self.buckets[cur].count < count {
            prev = cur;
            cur = self.buckets[cur].next;
        }
        if cur != NIL && self.buckets[cur].count == count {
            cur
        } else {
            self.insert_bucket_after(prev, count)
        }
    }

    /// Move monitored entry `slot` up by `v` (the Space-Saving bucket
    /// hop; O(1) for unit increments).
    fn increase(&mut self, slot: usize, v: u64) {
        if v == 0 {
            return;
        }
        let old_bucket = self.entries[slot].bucket;
        let new_count = self.buckets[old_bucket].count.saturating_add(v);
        self.detach_entry(slot);
        let target = self.bucket_for(old_bucket, new_count);
        self.attach_entry(slot, target);
        self.remove_bucket_if_empty(old_bucket);
    }

    /// Claim a slot for `key` with a seeded certified pair.
    fn admit(&mut self, key: K, count: u64, error: u64) {
        debug_assert!(self.len() < self.capacity);
        let slot = self.alloc_entry(EntryNode {
            key,
            error,
            bucket: NIL,
            prev: NIL,
            next: NIL,
        });
        let b = self.bucket_for(NIL, count);
        self.attach_entry(slot, b);
        self.index.insert(key, slot);
    }

    /// Drop one entry from the lowest bucket (deterministically its
    /// most recently attached entry).
    fn evict_min(&mut self) {
        let b = self.lowest;
        debug_assert!(b != NIL);
        let slot = self.buckets[b].head;
        self.detach_entry(slot);
        self.index.remove(&self.entries[slot].key);
        self.free_entries.push(slot);
        self.remove_bucket_if_empty(b);
    }

    /// Append a key at the top of the bucket list (rebuild path only —
    /// requires `count` ≥ every monitored count).
    fn push_highest(&mut self, key: K, count: u64, error: u64) {
        debug_assert!(self.highest == NIL || count >= self.buckets[self.highest].count);
        let b = if self.highest != NIL && self.buckets[self.highest].count == count {
            self.highest
        } else {
            self.insert_bucket_after(self.highest, count)
        };
        let slot = self.alloc_entry(EntryNode {
            key,
            error,
            bucket: NIL,
            prev: NIL,
            next: NIL,
        });
        self.attach_entry(slot, b);
        self.index.insert(key, slot);
    }

    /// Structural integrity check used by the property tests: bucket
    /// counts strictly ascend, links are mutually consistent, the index
    /// maps exactly the linked entries.
    #[cfg(test)]
    fn validate(&self) {
        let mut seen = 0usize;
        let mut b = self.lowest;
        let mut prev_b = NIL;
        let mut prev_count = None::<u64>;
        while b != NIL {
            let bucket = &self.buckets[b];
            assert_eq!(bucket.prev, prev_b, "bucket back-link broken");
            if let Some(pc) = prev_count {
                assert!(pc < bucket.count, "bucket counts must strictly ascend");
            }
            assert!(bucket.head != NIL, "empty bucket left in the list");
            let mut e = bucket.head;
            let mut prev_e = NIL;
            while e != NIL {
                let entry = &self.entries[e];
                assert_eq!(entry.bucket, b, "entry bucket back-ref broken");
                assert_eq!(entry.prev, prev_e, "entry back-link broken");
                assert_eq!(self.index.get(&entry.key), Some(&e), "index out of sync");
                seen = seen.saturating_add(1);
                prev_e = e;
                e = entry.next;
            }
            prev_count = Some(bucket.count);
            prev_b = b;
            b = bucket.next;
        }
        assert_eq!(self.highest, prev_b, "highest pointer stale");
        assert_eq!(seen, self.index.len(), "index size != linked entries");
        assert!(seen <= self.capacity, "over capacity");
    }
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects)] // small fixed test data
mod tests {
    use super::*;
    use proptest::prelude::*;

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
            tk.validate();
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
        tk.validate();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Structural integrity and certificate soundness under
        /// arbitrary exact-estimate op streams: every monitored count
        /// equals the truth, every unmonitored truth is ≤ miss_bound,
        /// and the linked structure stays consistent.
        #[test]
        fn prop_exact_offers_certify(
            ops in proptest::collection::vec((0u64..60, 1u64..9), 1..400),
            capacity in 1usize..24,
        ) {
            let (tk, truth) = exact_drive(&ops, capacity);
            tk.validate();
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
            a.validate();
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
