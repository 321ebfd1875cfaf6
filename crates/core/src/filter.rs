//! The mice filter (paper §3.3, "Accuracy Optimization").
//!
//! The first layer of ReliableSketch is its largest, and on mouse-heavy
//! traffic most of its 80-bit buckets end up locked, burned on keys that
//! only ever needed a few units of budget. The paper's remedy: replace the
//! first layer with a CU sketch whose small counters saturate at the first
//! layer's threshold. Each counter "records up to λ₁", behaving exactly
//! like a bucket's `NO` field without the election machinery — roughly 10×
//! cheaper per cell.
//!
//! Semantics implemented here:
//!
//! * **insert**: let `c` be the minimum mapped counter. The filter absorbs
//!   `a = min(threshold − c, v)` via a conservative update (only counters
//!   below `c + a` are raised) and passes the remaining `v − a` on to the
//!   bucket layers.
//! * **query**: the minimum mapped counter `c` joins the estimate *and* the
//!   MPE (it plays the role of a `NO`); if `c < threshold` the key never
//!   left the filter and the query stops here.
//!
//! Because the filter's contribution to any key's error is at most its
//! saturation value, the sketch builds its bucket layers against
//! `Λ − threshold` (see [`crate::config::ReliableConfig::layer_lambda`]),
//! preserving the end-to-end `≤ Λ` guarantee.
//!
//! One [`MiceFilter`] serves every sketch flavour: the sequential
//! [`crate::ReliableSketch`] is its single writer, and the lock-free
//! [`crate::atomic::ConcurrentReliable`] shares it between threads (see
//! the type docs for the concurrency contract).

use crate::config::ReliableConfig;
use rsk_api::{Key, MergeError};
use rsk_hash::HashFamily;
use std::sync::atomic::{AtomicU64, Ordering};

/// Seed salt separating the mice-filter hash family from the per-layer
/// families.
const FILTER_SEED_SALT: u64 = 0xf11e_d0f1_1e00;

/// Most CU rows a filter supports (matches
/// [`crate::config::ReliableConfig::validate`]'s `arrays ≤ 8` bound; lets
/// the hot path use stack scratch instead of heap allocation).
const MAX_ARRAYS: usize = 8;

/// CU filter with saturating counters (the paper's mice filter), updated
/// lock-free through `&self`.
///
/// Counters are packed into `AtomicU64` *lanes* (e.g. 32 × 2-bit counters
/// per word with the paper's §6.1.1 defaults) and every state change is a
/// single CAS on one lane:
///
/// * the CU step scans the key's counters and picks the minimum `m`; the
///   conservative update raises the key's other counters to at least
///   `m + a`, `a = min(threshold − m, v)`, with CAS-max loops (monotone,
///   so retries are rare and ABA-free);
/// * only then does one CAS on the min counter's lane **claim** the
///   absorption, `m → m + a` (a failed CAS rescans — another thread moved
///   the filter forward).
///
/// ### Concurrency contract
///
/// Uncontended (a single writer such as [`crate::ReliableSketch`], or one
/// owner per key range as in
/// [`crate::concurrent::ShardedReliable::ingest_parallel`]) every insert
/// is exactly the CU step of the [module docs](crate::filter), counter
/// for counter. Under contention the filter stays exact: a claim lands
/// only while its row still holds `m` and every other row of the key
/// already holds `m + a`, so each landed claim of a key reads a floor at
/// least as high as the previous one's `m + a`. A key's minimum therefore
/// never trails the mass the filter absorbed for it, and that mass never
/// exceeds `threshold`. A lost claim leaves raised rows behind, which can
/// only overcount, and the filter's contribution counts in the MPE. The
/// saturation rule is exact too (a key's counters all reach `threshold`
/// before any of its mass enters the bucket layers).
///
/// ```
/// use rsk_core::filter::MiceFilter;
///
/// let f = MiceFilter::new(4096, 2, 8, 3, 42).unwrap();
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         let f = &f;
///         s.spawn(move || {
///             for k in 0..100u64 {
///                 f.insert(&k, 1); // mice: absorbed, nothing passes
///             }
///         });
///     }
/// });
/// let (c, saturated) = f.query(&7u64);
/// assert!(c >= 3 && saturated, "4 inserts crossed the threshold");
/// let (c, saturated) = f.query(&0xdead_beefu64);
/// assert_eq!(saturated, c >= 3); // saturation is exactly "min ≥ threshold"
/// ```
#[derive(Debug)]
pub struct MiceFilter {
    lanes: Vec<AtomicU64>,
    lanes_per_row: usize,
    /// Physical bits per packed counter: the smallest power of two ≥ the
    /// configured width. Grows on merge so uncapped counter sums fit.
    lane_bits: u32,
    width: usize,
    arrays: usize,
    threshold: u64,
    counter_bits: u32,
    hashes: HashFamily,
}

/// [`MiceFilter`] under the name the lock-free sketch's callers import.
pub type AtomicMiceFilter = MiceFilter;

impl Clone for MiceFilter {
    fn clone(&self) -> Self {
        Self {
            lanes: self
                .lanes
                .iter()
                .map(|lane| AtomicU64::new(lane.load(Ordering::Acquire)))
                .collect(),
            hashes: self.hashes.clone(),
            ..*self
        }
    }
}

impl MiceFilter {
    /// Build a filter over `memory_bytes` of `counter_bits`-wide counters
    /// in `arrays` rows, saturating at `threshold`.
    ///
    /// Returns `None` when the budget is too small to host at least one
    /// counter per row.
    pub fn new(
        memory_bytes: usize,
        arrays: usize,
        counter_bits: u32,
        threshold: u64,
        seed: u64,
    ) -> Option<Self> {
        assert!(arrays > 0 && arrays <= MAX_ARRAYS);
        assert!(counter_bits > 0 && counter_bits <= 32);
        assert!(threshold > 0, "a zero-threshold filter filters nothing");
        debug_assert!(threshold < (1u64 << counter_bits));
        let total_counters = memory_bytes * 8 / counter_bits as usize;
        let width = total_counters / arrays;
        if width == 0 {
            return None;
        }
        let lane_bits = counter_bits.next_power_of_two();
        let counters_per_lane = (64 / lane_bits) as usize;
        let lanes_per_row = width.div_ceil(counters_per_lane);
        let lanes = (0..arrays * lanes_per_row)
            .map(|_| AtomicU64::new(0))
            .collect();
        Some(Self {
            lanes,
            lanes_per_row,
            lane_bits,
            width,
            arrays,
            threshold,
            counter_bits,
            hashes: HashFamily::new(arrays, seed),
        })
    }

    /// The filter `config` asks for, or `None` for the raw variant (or a
    /// budget too small for one counter per row). Every sketch flavour
    /// builds its filter here, so identically configured sketches hold
    /// hash-identical filters.
    pub(crate) fn for_config(config: &ReliableConfig) -> Option<Self> {
        config.mice_filter.as_ref().and_then(|fc| {
            Self::new(
                config.filter_bytes(),
                fc.arrays,
                fc.counter_bits,
                config.filter_threshold().max(1),
                config.seed ^ FILTER_SEED_SALT,
            )
        })
    }

    /// Saturation value.
    #[inline]
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Counters per row.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    #[inline]
    pub fn arrays(&self) -> usize {
        self.arrays
    }

    /// Modeled memory footprint in bytes, accounted at the *configured*
    /// counter width (the physical lanes round odd widths up to a power of
    /// two, and widen after a merge).
    pub fn memory_bytes(&self) -> usize {
        self.arrays * self.width * self.counter_bits as usize / 8
    }

    /// Number of hash evaluations per operation (for Figure 16 accounting).
    #[inline]
    pub fn hash_calls(&self) -> u64 {
        self.arrays as u64
    }

    #[inline]
    fn lane_mask(&self) -> u64 {
        if self.lane_bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.lane_bits) - 1
        }
    }

    /// `(lane index, bit shift)` of counter `idx` in row `row`.
    #[inline]
    fn locate(&self, row: usize, idx: usize) -> (usize, u32) {
        let per_lane = (64 / self.lane_bits) as usize;
        (
            row * self.lanes_per_row + idx / per_lane,
            (idx % per_lane) as u32 * self.lane_bits,
        )
    }

    #[inline]
    fn load_counter(&self, lane: usize, shift: u32) -> u64 {
        (self.lanes[lane].load(Ordering::Acquire) >> shift) & self.lane_mask()
    }

    /// Raise the counter at `(lane, shift)` to at least `target`
    /// (CAS-max; monotone, so a lost race only ever means someone raised
    /// it further).
    fn raise_to(&self, lane: usize, shift: u32, target: u64) {
        let mask = self.lane_mask();
        let cell = &self.lanes[lane];
        let mut current = cell.load(Ordering::Acquire);
        loop {
            if (current >> shift) & mask >= target {
                return;
            }
            let next = (current & !(mask << shift)) | (target << shift);
            match cell.compare_exchange_weak(current, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Insert `⟨key, value⟩` through a shared reference; returns the value
    /// that passes through to the bucket layers (0 if fully absorbed).
    pub fn insert<K: Key>(&self, key: &K, value: u64) -> u64 {
        let mask = self.lane_mask();
        let mut at = [(0usize, 0u32); MAX_ARRAYS];
        for (row, slot) in at.iter_mut().enumerate().take(self.arrays) {
            *slot = self.locate(row, self.hashes.index(row, key, self.width));
        }
        loop {
            // scan the key's counters, tracking the minimum and the lane
            // word it was read from (the CAS comparand)
            let mut min = u64::MAX;
            let mut min_row = 0usize;
            let mut min_word = 0u64;
            for (row, &(lane, shift)) in at.iter().enumerate().take(self.arrays) {
                let word = self.lanes[lane].load(Ordering::Acquire);
                let c = (word >> shift) & mask;
                if c < min {
                    min = c;
                    min_row = row;
                    min_word = word;
                }
            }
            if min >= self.threshold {
                return value; // saturated: everything descends
            }
            let absorbed = (self.threshold - min).min(value);
            let target = min + absorbed;
            // conservative update of the other rows first, so a claim
            // that lands finds every other row already at its target
            for (row, &(lane, shift)) in at.iter().enumerate().take(self.arrays) {
                if row != min_row {
                    self.raise_to(lane, shift, target);
                }
            }
            // then claim the absorption with one CAS on the min counter;
            // a lost race means the filter state moved — rescan (the
            // raises stay, and only ever overcount)
            let (lane, shift) = at[min_row];
            let next = (min_word & !(mask << shift)) | (target << shift);
            if self.lanes[lane]
                .compare_exchange(min_word, next, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            // the leftover goes down only once every row holds the target,
            // which keeps the query's early-stop rule sound
            return value - absorbed;
        }
    }

    /// Query the filter's contribution for `key`: `(contribution,
    /// saturated)`. If not saturated, no completed insert of `key` ever
    /// reached the bucket layers.
    pub fn query<K: Key>(&self, key: &K) -> (u64, bool) {
        let mut min = u64::MAX;
        for row in 0..self.arrays {
            let (lane, shift) = self.locate(row, self.hashes.index(row, key, self.width));
            min = min.min(self.load_counter(lane, shift));
        }
        (min, min >= self.threshold)
    }

    /// All counters as plain rows (snapshots, merges and tests).
    pub(crate) fn rows_snapshot(&self) -> Vec<Vec<u64>> {
        self.lanes
            .chunks(self.lanes_per_row)
            .map(|lanes| {
                let mut row = Vec::with_capacity(self.width);
                for (word, n) in self.row_lanes(lanes) {
                    row.extend(self.lane_counters(word, n));
                }
                row
            })
            .collect()
    }

    /// One row's lane words, each with the number of counters it holds:
    /// a whole lane, but for the padding slots past `width` in the row's
    /// last lane.
    fn row_lanes<'a>(&'a self, lanes: &'a [AtomicU64]) -> impl Iterator<Item = (u64, usize)> + 'a {
        let per_lane = (64 / self.lane_bits) as usize;
        lanes
            .iter()
            .zip((0..self.width).step_by(per_lane))
            .map(move |(lane, first)| {
                let n = per_lane.min(self.width.saturating_sub(first));
                (lane.load(Ordering::Acquire), n)
            })
    }

    /// The first `n` counters packed in lane `word`, lowest bits first.
    fn lane_counters(&self, mut word: u64, n: usize) -> impl Iterator<Item = u64> {
        let (bits, mask) = (self.lane_bits, self.lane_mask());
        (0..n).map(move |_| {
            let c = word & mask;
            word = word.checked_shr(bits).unwrap_or(0);
            c
        })
    }

    /// Every counter, row by row, read off the packed lanes.
    fn counters(&self) -> impl Iterator<Item = u64> + '_ {
        self.lanes
            .chunks(self.lanes_per_row)
            .flat_map(|lanes| self.row_lanes(lanes))
            .flat_map(|(word, n)| self.lane_counters(word, n))
    }

    /// The largest counter: what any one key's filter contribution can
    /// reach, since a key's query is a minimum over its counters. At
    /// most the threshold for an unmerged filter.
    pub(crate) fn max_counter(&self) -> u64 {
        self.counters().max().unwrap_or(0)
    }

    /// The counters that differ from `base`, a clone of this filter at
    /// its current lane width (a replication cut's baseline), as
    /// row-major `(row, index, current value)` triples: a delta's filter
    /// part.
    pub(crate) fn changed_since(&self, base: &Self) -> Vec<(u32, u32, u64)> {
        debug_assert_eq!(self.lane_bits, base.lane_bits, "baseline lanes differ");
        let (bits, mask) = (self.lane_bits, self.lane_mask());
        let per_lane = (64 / bits) as usize;
        let mut out = Vec::new();
        for (l, (lane, old)) in self.lanes.iter().zip(&base.lanes).enumerate() {
            let word = lane.load(Ordering::Acquire);
            let mut changed = word ^ old.load(Ordering::Acquire);
            let (row, first) = (l / self.lanes_per_row, (l % self.lanes_per_row) * per_lane);
            while changed != 0 {
                let slot = changed.trailing_zeros() / bits;
                let shift = slot * bits;
                let index = first + slot as usize;
                out.push((row as u32, index as u32, (word >> shift) & mask));
                changed &= !(mask << shift);
            }
        }
        out
    }

    /// Overwrite all counters from persisted rows (snapshot restore).
    /// [`Self::store_rows`] re-derives the physical lane width, so even
    /// post-merge counter sums above the configured width restore
    /// faithfully.
    ///
    /// # Errors
    /// Describes the problem when `rows` does not match this filter's
    /// logical shape.
    pub(crate) fn restore_rows(&mut self, rows: &[Vec<u64>]) -> Result<(), String> {
        if rows.len() != self.arrays || rows.iter().any(|r| r.len() != self.width) {
            return Err("snapshot filter shape mismatch".into());
        }
        self.store_rows(rows);
        Ok(())
    }

    /// Overwrite individual counters from a replication delta's
    /// `(row, index, value)` triples. Validates every triple before
    /// touching state, so an error leaves the filter unchanged.
    ///
    /// # Errors
    /// Describes the offending triple (out-of-range coordinates, or a
    /// value too wide for the physical lanes — deltas never carry merged
    /// counter sums, those paths ship full snapshots).
    pub(crate) fn overwrite_counters(&mut self, diffs: &[(u32, u32, u64)]) -> Result<(), String> {
        let mask = self.lane_mask();
        for &(row, idx, v) in diffs {
            if row as usize >= self.arrays || idx as usize >= self.width {
                return Err(format!(
                    "filter delta coordinate ({row}, {idx}) out of range"
                ));
            }
            if v > mask {
                return Err(format!("filter delta counter {v} exceeds the lane width"));
            }
        }
        for &(row, idx, v) in diffs {
            let (lane, shift) = self.locate(row as usize, idx as usize);
            let w = self.lanes[lane].get_mut();
            *w = (*w & !(mask << shift)) | (v << shift);
        }
        Ok(())
    }

    /// Replace the packed storage with `rows` (each `width` long), one
    /// lane word per chunk of counters, widening the physical lanes so
    /// the largest value fits (merged counter sums are *not* re-capped at
    /// the threshold — see [`Self::merge_from`] for why).
    fn store_rows(&mut self, rows: &[Vec<u64>]) {
        // the OR of all values has the largest value's bit length
        let any = rows
            .iter()
            .map(|row| row.iter().fold(0, |acc, &v| acc | v))
            .fold(0, |acc, v| acc | v);
        let needed = (64 - any.leading_zeros()).max(self.counter_bits);
        let bits = needed.next_power_of_two().min(64);
        let per_lane = (64 / bits) as usize;
        self.lane_bits = bits;
        self.lanes_per_row = self.width.div_ceil(per_lane);
        let mut lanes = Vec::with_capacity(self.arrays * self.lanes_per_row);
        lanes.extend(
            rows.iter()
                .flat_map(|row| row.chunks(per_lane))
                .map(|chunk| {
                    // first counter in the low bits, as `locate` reads them
                    let word = chunk
                        .iter()
                        .rev()
                        .fold(0, |word: u64, &v| word.checked_shl(bits).unwrap_or(0) | v);
                    AtomicU64::new(word)
                }),
        );
        self.lanes = lanes;
    }

    /// Fold another filter (same shape, same seeds) into this one by
    /// counter-wise addition — the filter half of [`crate::merge`].
    ///
    /// Sums are *not* re-capped at the threshold: per shard each counter
    /// upper-bounds what that shard absorbed, so only the uncapped sum
    /// keeps the merged contribution an upper bound (a key absorbing
    /// `threshold` in both shards carries `2·threshold` of mass), and the
    /// lanes widen until the sums fit. The saturation rule
    /// `min ⩾ threshold` still recognizes every key that reached the
    /// bucket layers in either shard, because that shard's counters were
    /// already at the threshold.
    ///
    /// # Errors
    /// [`MergeError::ShapeMismatch`] for filters of a different shape. The
    /// caller is responsible for seed equality (checked at the sketch
    /// level via the configuration).
    pub fn merge_from(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.width != other.width
            || self.arrays != other.arrays
            || self.threshold != other.threshold
            || self.counter_bits != other.counter_bits
        {
            return Err(MergeError::ShapeMismatch);
        }
        let mut rows = self.rows_snapshot();
        for (row, other_row) in rows.iter_mut().zip(other.rows_snapshot()) {
            for (c, o) in row.iter_mut().zip(other_row) {
                *c = c.saturating_add(o);
            }
        }
        self.store_rows(&rows);
        Ok(())
    }

    /// Reset all counters (requires exclusive access for a consistent
    /// result; concurrent readers only ever observe valid lane words).
    pub fn clear(&mut self) {
        for lane in &mut self.lanes {
            *lane.get_mut() = 0;
        }
    }

    /// Fraction of counters at saturation (diagnostics).
    pub fn saturation_ratio(&self) -> f64 {
        let sat = self.counters().filter(|&c| c >= self.threshold).count();
        sat as f64 / (self.arrays * self.width) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The plain CU filter the packed one must equal on a single writer:
    /// one `u64` per counter, no lanes, no CAS.
    struct ReferenceFilter {
        counters: Vec<Vec<u64>>,
        width: usize,
        threshold: u64,
        counter_bits: u32,
        hashes: HashFamily,
    }

    impl ReferenceFilter {
        fn new(
            memory_bytes: usize,
            arrays: usize,
            counter_bits: u32,
            threshold: u64,
            seed: u64,
        ) -> Option<Self> {
            let width = memory_bytes * 8 / counter_bits as usize / arrays;
            (width > 0).then(|| Self {
                counters: vec![vec![0u64; width]; arrays],
                width,
                threshold,
                counter_bits,
                hashes: HashFamily::new(arrays, seed),
            })
        }

        fn width(&self) -> usize {
            self.width
        }

        fn memory_bytes(&self) -> usize {
            self.counters.len() * self.width * self.counter_bits as usize / 8
        }

        fn insert<K: Key>(&mut self, key: &K, value: u64) -> u64 {
            let min = self.min_counter(key);
            if min >= self.threshold {
                return value;
            }
            let absorbed = (self.threshold - min).min(value);
            let target = min + absorbed;
            for (i, row) in self.counters.iter_mut().enumerate() {
                let idx = self.hashes.index(i, key, self.width);
                // conservative update: only raise counters below the target
                if row[idx] < target {
                    row[idx] = target;
                }
            }
            value - absorbed
        }

        fn query<K: Key>(&self, key: &K) -> (u64, bool) {
            let min = self.min_counter(key);
            (min, min >= self.threshold)
        }

        fn saturation_ratio(&self) -> f64 {
            let total: usize = self.counters.iter().map(|r| r.len()).sum();
            let sat: usize = self
                .counters
                .iter()
                .flat_map(|r| r.iter())
                .filter(|&&c| c >= self.threshold)
                .count();
            sat as f64 / total as f64
        }

        fn min_counter<K: Key>(&self, key: &K) -> u64 {
            let mut min = u64::MAX;
            for (i, row) in self.counters.iter().enumerate() {
                let idx = self.hashes.index(i, key, self.width);
                min = min.min(row[idx]);
            }
            min
        }
    }

    fn filter(threshold: u64) -> MiceFilter {
        MiceFilter::new(4096, 2, 8, threshold, 42).unwrap()
    }

    #[test]
    fn absorbs_until_threshold_then_passes() {
        let f = filter(3);
        let k = 7u64;
        assert_eq!(f.insert(&k, 1), 0); // absorbed
        assert_eq!(f.insert(&k, 1), 0);
        assert_eq!(f.insert(&k, 1), 0);
        assert_eq!(f.insert(&k, 1), 1); // saturated: passes through
        assert_eq!(f.insert(&k, 5), 5);
        let (c, sat) = f.query(&k);
        assert_eq!(c, 3);
        assert!(sat);
    }

    #[test]
    fn splits_value_across_the_boundary() {
        let f = filter(3);
        let k = 9u64;
        // 5 arrives at an empty filter: absorb 3, pass 2
        assert_eq!(f.insert(&k, 5), 2);
        let (c, sat) = f.query(&k);
        assert_eq!(c, 3);
        assert!(sat);
    }

    #[test]
    fn unsaturated_key_reports_not_saturated() {
        let f = filter(3);
        f.insert(&1u64, 2);
        let (c, sat) = f.query(&1u64);
        assert!(c >= 2 && !sat, "c={c} sat={sat}");
        // an unseen key is also unsaturated (assuming no full collision)
        let (_, sat2) = f.query(&0xdead_beefu64);
        assert!(!sat2 || f.saturation_ratio() > 0.0);
    }

    #[test]
    fn contribution_bounds_absorbed_amount() {
        // min-counter ≥ amount the filter absorbed for the key, and the
        // filter never passes through more than was inserted
        let f = filter(3);
        let mut absorbed: HashMap<u64, u64> = HashMap::new();
        let keys: Vec<u64> = (0..500).collect();
        for round in 0..4u64 {
            for &k in &keys {
                let v = 1 + (k + round) % 3;
                let passed = f.insert(&k, v);
                assert!(passed <= v);
                *absorbed.entry(k).or_insert(0) += v - passed;
            }
        }
        for (&k, &a) in &absorbed {
            let (c, sat) = f.query(&k);
            assert!(c >= a.min(f.threshold()), "key {k}: c={c} < absorbed {a}");
            assert!(a <= f.threshold(), "absorbed more than threshold");
            if !sat {
                // key never left the filter: everything it inserted is here
                assert!(c >= a);
            }
        }
    }

    #[test]
    fn memory_accounting_2bit() {
        // 1000 bytes of 2-bit counters in 2 rows = 4000 counters, 2000/row
        let f = MiceFilter::new(1000, 2, 2, 3, 1).unwrap();
        assert_eq!(f.width(), 2000);
        assert_eq!(f.memory_bytes(), 1000);
        assert_eq!(f.hash_calls(), 2);
    }

    #[test]
    fn too_small_budget_is_none() {
        assert!(MiceFilter::new(0, 2, 8, 3, 1).is_none());
    }

    #[test]
    fn clear_resets() {
        let mut f = filter(3);
        f.insert(&1u64, 3);
        assert!(f.saturation_ratio() > 0.0);
        f.clear();
        assert_eq!(f.saturation_ratio(), 0.0);
        assert_eq!(f.query(&1u64), (0, false));
    }

    #[test]
    fn atomic_matches_sequential_single_thread() {
        let mut seq = ReferenceFilter::new(2048, 2, 8, 5, 99).unwrap();
        let atomic = MiceFilter::new(2048, 2, 8, 5, 99).unwrap();
        assert_eq!(seq.width(), atomic.width());
        assert_eq!(seq.memory_bytes(), atomic.memory_bytes());
        for i in 0..20_000u64 {
            let (k, v) = (i % 700, 1 + i % 4);
            assert_eq!(seq.insert(&k, v), atomic.insert(&k, v), "insert {i}");
        }
        for k in 0..700u64 {
            assert_eq!(seq.query(&k), atomic.query(&k), "key {k}");
        }
        assert_eq!(seq.saturation_ratio(), atomic.saturation_ratio());
    }

    #[test]
    fn contended_inserts_are_exact() {
        // Two writers race over 8 keys, released together by a spin
        // barrier: per key, the final minimum covers everything the
        // filter absorbed, and that never exceeds the threshold.
        use std::sync::atomic::AtomicUsize;
        for (bits, threshold, arrays) in [(2, 3, 2), (8, 3, 2), (8, 100, 3), (16, 5_000, 3)] {
            for seed in 0..400u64 {
                let f = MiceFilter::new(4096, arrays, bits, threshold, seed).unwrap();
                let ready = AtomicUsize::new(0);
                let step = (threshold / 16).max(1);
                let absorbed: Vec<[u64; 8]> = std::thread::scope(|s| {
                    let writers: Vec<_> = (0..2u64)
                        .map(|t| {
                            let (f, ready) = (&f, &ready);
                            s.spawn(move || {
                                ready.fetch_add(1, Ordering::AcqRel);
                                while ready.load(Ordering::Acquire) < 2 {
                                    std::hint::spin_loop();
                                }
                                let mut local = [0u64; 8];
                                for i in 0..8 * (threshold / step + 2) {
                                    let (k, v) = (i % 8, step * (1 + (i / 8 + t) % 2));
                                    local[k as usize] += v - f.insert(&k, v);
                                }
                                local
                            })
                        })
                        .collect();
                    writers.into_iter().map(|w| w.join().unwrap()).collect()
                });
                for k in 0..8u64 {
                    let a = absorbed[0][k as usize] + absorbed[1][k as usize];
                    let (c, _) = f.query(&k);
                    assert!(
                        a <= threshold && c >= a,
                        "shape ({bits}, {threshold}, {arrays}) seed {seed} key {k}: min {c}, absorbed {a}"
                    );
                }
            }
        }
    }

    #[test]
    fn atomic_merge_widens_lanes_and_adds_uncapped() {
        // threshold 3 in 2-bit lanes: a merged sum of 6 does not fit the
        // original width, so the merge must widen the physical lanes
        let mut a = MiceFilter::new(256, 2, 2, 3, 5).unwrap();
        let b = MiceFilter::new(256, 2, 2, 3, 5).unwrap();
        let k = 11u64;
        a.insert(&k, 10);
        b.insert(&k, 10);
        a.merge_from(&b).unwrap();
        let (c, sat) = a.query(&k);
        assert_eq!(c, 6, "sums must not be re-capped at the threshold");
        assert!(sat);

        let mismatched = MiceFilter::new(256, 2, 2, 2, 5).unwrap();
        assert!(a.merge_from(&mismatched).is_err());
    }

    proptest! {
        /// The atomic filter replays any single-threaded operation
        /// sequence bit-for-bit like the sequential CU filter: same
        /// pass-through value on every insert, same (contribution,
        /// saturated) answer for every key.
        #[test]
        fn prop_atomic_equals_sequential(
            ops in proptest::collection::vec((0u64..64, 1u64..6), 1..400),
            threshold in 1u64..16,
            arrays in 1usize..4,
            bits in 5u32..9,
        ) {
            let mut seq = ReferenceFilter::new(256, arrays, bits, threshold, 7).unwrap();
            let atomic = MiceFilter::new(256, arrays, bits, threshold, 7).unwrap();
            for (k, v) in ops {
                prop_assert_eq!(seq.insert(&k, v), atomic.insert(&k, v));
            }
            for k in 0..64u64 {
                prop_assert_eq!(seq.query(&k), atomic.query(&k), "key {}", k);
            }
        }

        /// Conservation: passed-through value never exceeds inserted value,
        /// and the filter's per-key contribution is an overestimate of what
        /// it absorbed, capped at the threshold.
        #[test]
        fn prop_filter_conservation(
            ops in proptest::collection::vec((0u64..64, 1u64..6), 1..400),
            threshold in 1u64..16,
        ) {
            let f = MiceFilter::new(256, 2, 8, threshold.min(255), 7).unwrap();
            let mut absorbed: HashMap<u64, u64> = HashMap::new();
            for (k, v) in ops {
                let passed = f.insert(&k, v);
                prop_assert!(passed <= v);
                *absorbed.entry(k).or_insert(0) += v - passed;
            }
            for (&k, &a) in &absorbed {
                prop_assert!(a <= f.threshold());
                let (c, sat) = f.query(&k);
                prop_assert!(c >= a, "contribution {c} < absorbed {a}");
                if a == f.threshold() {
                    prop_assert!(sat);
                }
            }
        }

        /// A replication delta's filter part: after a copy of the lanes
        /// and further inserts, the counters listed as changed are the row
        /// diff of `rows_snapshot()` before and after — and again after a
        /// merge widened the lanes and a fresh copy was taken.
        #[test]
        fn prop_changed_since_equals_row_diff(
            rounds in proptest::collection::vec(
                proptest::collection::vec((0u64..64, 1u64..6), 0..150),
                3,
            ),
            bits in 1u32..9,
        ) {
            let threshold = (1u64 << bits) - 1;
            let mut f = MiceFilter::new(200, 2, bits, threshold, 7).unwrap();
            for (k, v) in &rounds[0] {
                f.insert(k, *v);
            }
            let row_diff = |before: &[Vec<u64>], after: &[Vec<u64>]| {
                let mut out = Vec::new();
                for (r, (b, a)) in before.iter().zip(after).enumerate() {
                    for (j, (&b, &a)) in b.iter().zip(a).enumerate() {
                        if b != a {
                            out.push((r as u32, j as u32, a));
                        }
                    }
                }
                out
            };
            for (merge, ops) in [(false, &rounds[1]), (true, &rounds[2])] {
                if merge {
                    let twin = f.clone();
                    f.merge_from(&twin).unwrap();
                }
                let (base, before) = (f.clone(), f.rows_snapshot());
                for (k, v) in ops {
                    f.insert(k, *v);
                }
                prop_assert_eq!(f.changed_since(&base), row_diff(&before, &f.rows_snapshot()));
            }
        }

        /// The scans of the packed lanes read what the unpacked rows of
        /// the plain reference filter hold, and so does `rows_snapshot`:
        /// at every lane width, on a fresh filter and after each of up to
        /// 69 self-merges (which double every counter, widen the lanes to
        /// 64 bits and then saturate), whether or not a row fills its last
        /// lane.
        #[test]
        fn prop_lane_scans_equal_the_row_fold(
            ops in proptest::collection::vec((0u64..64, 1u64..6), 0..300),
            width in 1usize..100,
            bits in 1u32..9,
            merges in 0usize..70,
        ) {
            let memory = (width * 2 * bits as usize).div_ceil(8);
            let threshold = (1u64 << bits) - 1;
            let mut f = MiceFilter::new(memory, 2, bits, threshold, 7).unwrap();
            let mut reference = ReferenceFilter::new(memory, 2, bits, threshold, 7).unwrap();
            for (k, v) in &ops {
                prop_assert_eq!(f.insert(k, *v), reference.insert(k, *v));
            }
            for round in 0..=merges {
                if round > 0 {
                    let twin = f.clone();
                    f.merge_from(&twin).unwrap();
                    for c in reference.counters.iter_mut().flatten() {
                        *c = c.saturating_mul(2);
                    }
                }
                let max = reference.counters.iter().flatten().copied().max();
                prop_assert_eq!(f.max_counter(), max.unwrap_or(0), "round {}", round);
                prop_assert_eq!(f.saturation_ratio(), reference.saturation_ratio(), "round {}", round);
                prop_assert_eq!(&f.rows_snapshot(), &reference.counters, "round {}", round);
            }
        }

        /// Rows survive `restore_rows` → `rows_snapshot` unchanged at every
        /// lane width (values up to `u64::MAX` widen the lanes to 64 bits),
        /// whether or not a row's width fills its last lane, and the
        /// restored filter answers like the reference holding those rows.
        #[test]
        fn prop_rows_round_trip_through_lanes(
            pool in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 128), 1..5),
            width in 1usize..100,
            bits in 1u32..9,
            value_bits in 0u32..65,
        ) {
            let arrays = pool.len();
            let memory = (width * arrays * bits as usize).div_ceil(8);
            let threshold = (1u64 << bits) - 1;
            let mut f = MiceFilter::new(memory, arrays, bits, threshold, 7).unwrap();
            let rows: Vec<Vec<u64>> = pool
                .iter()
                .map(|row| {
                    row[..f.width()]
                        .iter()
                        .map(|&v| v.checked_shr(64 - value_bits).unwrap_or(0))
                        .collect()
                })
                .collect();
            f.restore_rows(&rows).unwrap();
            prop_assert_eq!(f.rows_snapshot(), rows.clone());
            let mut reference = ReferenceFilter::new(memory, arrays, bits, threshold, 7).unwrap();
            reference.counters = rows;
            for k in 0..64u64 {
                prop_assert_eq!(f.query(&k), reference.query(&k), "key {}", k);
            }
        }
    }
}
