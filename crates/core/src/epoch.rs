//! Epoch rotation — bounded-history summaries for long-running streams.
//!
//! A single ReliableSketch summarizes *everything it ever saw*; its
//! counters only grow. Telemetry pipelines instead want a bounded,
//! recent window ("flows of the last measurement interval"), which
//! network devices implement with the classic **two-generation scheme**:
//! an *active* structure absorbs traffic while a *frozen* one serves the
//! previous interval, and on each epoch boundary the generations rotate.
//! The paper's switch deployment (§6.5.3) reads the sketch out per
//! interval in exactly this style.
//!
//! [`Epoched`] packages the scheme once, generic over its
//! [`Generation`] type:
//!
//! * [`insert`](rsk_api::StreamSummary::insert) feeds the active
//!   generation;
//! * [`query`](rsk_api::StreamSummary::query) answers over the **visible
//!   window** — the frozen epoch plus the active partial epoch — by
//!   summing both generations' answers and MPEs (both certified, so the
//!   sum is);
//! * [`rotate`](Epoched::rotate) retires the frozen generation
//!   (returning it for archival), freezes the active one, and starts a
//!   fresh epoch.
//!
//! The guarantee carries per window: if neither visible generation had
//! an insertion failure, every key's window estimate is within `2Λ`
//! (each generation contributes at most `Λ`), and the reported MPE is
//! always an honest per-key certificate.
//!
//! Two generation types instantiate it:
//!
//! * [`EpochedReliable`] rotates [`ReliableSketch`]es: `&mut` inserts,
//!   and any `Λ`;
//! * [`EpochedConcurrent`] rotates lock-free [`ConcurrentReliable`]
//!   sketches, so any number of producer threads feed the active
//!   generation through `&self` while the frozen generation serves
//!   **wait-free reads** — a sealed generation's atomic words are never
//!   CASed again, so window queries against it are plain loads with no
//!   retry loop (and no lock at all unless the generation recorded
//!   insertion failures).
//!
//! ```
//! use rsk_core::epoch::EpochedReliable;
//! use rsk_api::{ErrorSensing, StreamSummary};
//!
//! let mut window = EpochedReliable::<u64>::builder()
//!     .memory_bytes(64 * 1024)
//!     .error_tolerance(25)
//!     .build_epoched();
//!
//! window.insert(&7u64, 100);
//! window.rotate(); // epoch 0 frozen, epoch 1 active
//! window.insert(&7u64, 50);
//! assert!(window.query_with_error(&7u64).contains(150)); // both epochs visible
//!
//! let retired = window.rotate(); // epoch 0 drops out of the window
//! assert!(retired.is_some());
//! assert!(window.query_with_error(&7u64).contains(50));
//! ```

#![deny(clippy::arithmetic_side_effects)]

use crate::atomic::ConcurrentReliable;
use crate::config::{ReliableConfig, SketchBuilder};
use crate::sketch::ReliableSketch;
use crate::topk::{rank, top, TopKSummary};
use core::marker::PhantomData;
use rsk_api::{
    Algorithm, CertifiedTopK, Clear, ConcurrentErrorSensing, ConcurrentSummary, ErrorSensing,
    Estimate, Key, MemoryFootprint, Merge, MergeError, StreamSummary, TopK,
};

/// One sketch inside a window: the active generation that takes
/// inserts, or the frozen one sealed at the last
/// [`rotate`](Epoched::rotate). Queries, memory and clearing come from
/// the summary traits; these are the few inherent operations the window
/// needs on top.
pub trait Generation<K: Key>: ErrorSensing<K> + MemoryFootprint + Clear {
    /// An empty generation built from `config`, with a top-K layer of
    /// `top_k` slots when given.
    fn empty(config: ReliableConfig, top_k: Option<usize>) -> Self;
    /// Attach a top-K layer of `capacity` slots.
    fn enable_top_k(&mut self, capacity: usize);
    /// Insert operations that could not place their full value.
    fn insertion_failures(&self) -> u64;
    /// Value those failures dropped (nonzero only under
    /// [`crate::EmergencyPolicy::Disabled`]).
    fn dropped_value(&self) -> u64;
    /// Worst-case MPE the generation can report for any key.
    fn mpe_ceiling(&self) -> u64;
    /// The top-K summary's monitored keys and miss bound, if a layer is
    /// attached: what top-K answers and subpopulation decodes read.
    fn top_k_candidates(&self) -> Option<(Vec<K>, u64)>;
}

impl<K: Key> Generation<K> for ReliableSketch<K> {
    fn empty(config: ReliableConfig, top_k: Option<usize>) -> Self {
        top_k.into_iter().fold(Self::new(config), Self::with_top_k)
    }
    fn enable_top_k(&mut self, capacity: usize) {
        ReliableSketch::enable_top_k(self, capacity);
    }
    fn insertion_failures(&self) -> u64 {
        ReliableSketch::insertion_failures(self)
    }
    fn dropped_value(&self) -> u64 {
        ReliableSketch::dropped_value(self)
    }
    fn mpe_ceiling(&self) -> u64 {
        ReliableSketch::mpe_ceiling(self)
    }
    fn top_k_candidates(&self) -> Option<(Vec<K>, u64)> {
        self.top_k_summary().map(TopKSummary::candidates)
    }
}

impl<K: Key> Generation<K> for ConcurrentReliable<K> {
    fn empty(config: ReliableConfig, top_k: Option<usize>) -> Self {
        top_k.into_iter().fold(Self::new(config), Self::with_top_k)
    }
    fn enable_top_k(&mut self, capacity: usize) {
        ConcurrentReliable::enable_top_k(self, capacity);
    }
    fn insertion_failures(&self) -> u64 {
        ConcurrentReliable::insertion_failures(self)
    }
    fn dropped_value(&self) -> u64 {
        ConcurrentReliable::dropped_value(self)
    }
    fn mpe_ceiling(&self) -> u64 {
        ConcurrentReliable::mpe_ceiling(self)
    }
    fn top_k_candidates(&self) -> Option<(Vec<K>, u64)> {
        self.topk.as_ref().map(|tk| tk.lock().candidates())
    }
}

/// Two-generation rotating window over sketches of type `G`.
///
/// Rotation is exclusive (`&mut`): quiesce producers at the epoch
/// boundary (network pipelines do this anyway: the measurement interval
/// ends, the readout runs, the next interval starts). Retired
/// generations can be archived or folded into a long-horizon roll-up
/// via [`rsk_api::Merge`].
#[derive(Debug, Clone)]
pub struct Epoched<K: Key, G> {
    active: G,
    frozen: Option<G>,
    config: ReliableConfig,
    epoch: u64,
    /// Top-K capacity carried across rotations: each fresh active
    /// generation is built with its own summary of this capacity.
    top_k: Option<usize>,
    /// Epoch index at the last replication cut (see
    /// [`crate::replicate`]): `None` until the window first ships a
    /// delta, after which deltas describe "since epoch `cut_epoch`".
    cut_epoch: Option<u64>,
    key: PhantomData<K>,
}

/// Two-generation rotating window over sequential [`ReliableSketch`]es.
pub type EpochedReliable<K> = Epoched<K, ReliableSketch<K>>;

/// Two-generation rotating window over lock-free
/// [`ConcurrentReliable`] sketches: shared-`&self` ingestion into the
/// active epoch, wait-free reads of the sealed one. Between rotations
/// the data path is exactly [`ConcurrentReliable`]'s: CAS-only bucket
/// updates, no mutex, the mice filter running lock-free in front when
/// configured.
///
/// # Examples
///
/// ```
/// use rsk_core::epoch::EpochedConcurrent;
/// use rsk_api::{ErrorSensing, StreamSummary};
///
/// let mut window = EpochedConcurrent::<u64>::builder()
///     .memory_bytes(64 * 1024)
///     .error_tolerance(25)
///     .build_epoched_concurrent();
///
/// // epoch 0: four producers through a shared reference
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         let w = &window;
///         s.spawn(move || {
///             for _ in 0..25u64 {
///                 w.insert_shared(&7u64, 1);
///             }
///         });
///     }
/// });
/// window.rotate(); // seal epoch 0; reads of it are now wait-free
/// window.insert_shared(&7u64, 50);
/// assert!(window.query_with_error(&7u64).contains(150)); // both epochs
///
/// let retired = window.rotate(); // epoch 0 leaves the window
/// assert!(retired.is_some());
/// assert!(window.query_with_error(&7u64).contains(50));
/// ```
pub type EpochedConcurrent<K> = Epoched<K, ConcurrentReliable<K>>;

impl<K: Key, G: Generation<K>> Epoched<K, G> {
    /// Start building with paper-default parameters (finish with
    /// [`SketchBuilder::build_epoched`] or
    /// [`SketchBuilder::build_epoched_concurrent`]).
    pub fn builder() -> SketchBuilder {
        ReliableConfig::builder()
    }

    /// Build from a validated configuration; both generations use it.
    ///
    /// # Panics
    /// Panics if the configuration fails validation, or, for
    /// [`EpochedConcurrent`], if `Λ` exceeds the packed atomic error
    /// field (see [`ConcurrentReliable::new`]).
    pub fn new(config: ReliableConfig) -> Self {
        Self::from_parts(config.clone(), G::empty(config, None), None, 0, None)
    }

    /// A window of already-built generations at `epoch`, whose future
    /// generations track `top_k` slots (also how a replica restores
    /// one). The replication cut starts unset.
    pub(crate) fn from_parts(
        config: ReliableConfig,
        active: G,
        frozen: Option<G>,
        epoch: u64,
        top_k: Option<usize>,
    ) -> Self {
        Self {
            active,
            frozen,
            config,
            epoch,
            top_k,
            cut_epoch: None,
            key: PhantomData,
        }
    }

    /// Attach an error-certified top-K layer of `capacity` slots to the
    /// window: the active generation tracks its elephants from now on,
    /// and every future generation starts with its own summary of the
    /// same capacity, which it keeps once sealed, so
    /// [`TopK::certified_top_k`] answers over the visible window. An
    /// already-frozen generation keeps whatever summary it had when
    /// sealed (none, if enabled after the fact — the window then answers
    /// vacuously until it rotates out).
    pub fn enable_top_k(&mut self, capacity: usize) {
        self.top_k = Some(capacity.max(1));
        self.active.enable_top_k(capacity);
    }

    /// Builder-style [`Self::enable_top_k`].
    #[must_use]
    pub fn with_top_k(mut self, capacity: usize) -> Self {
        self.enable_top_k(capacity);
        self
    }

    /// Index of the currently active epoch (starts at 0, +1 per rotation).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The configuration shared by both generations.
    pub fn config(&self) -> &ReliableConfig {
        &self.config
    }

    /// The generation currently absorbing inserts.
    pub fn active(&self) -> &G {
        &self.active
    }

    /// The sealed previous epoch, if one exists.
    pub fn frozen(&self) -> Option<&G> {
        self.frozen.as_ref()
    }

    /// Seal the active epoch and start a new one.
    ///
    /// The previously frozen generation — now outside the visible window —
    /// is returned so callers can archive it or [`rsk_api::Merge`] it
    /// into a long-horizon roll-up. Exclusive: producers must be
    /// quiescent across the call (the borrow checker enforces it for
    /// scoped threads).
    pub fn rotate(&mut self) -> Option<G> {
        self.rotate_to(G::empty(self.config.clone(), self.top_k))
    }

    /// [`Self::rotate`] with `next` as the new active generation (a
    /// replica moves in the one a rotation delta restored).
    pub(crate) fn rotate_to(&mut self, next: G) -> Option<G> {
        let sealed = core::mem::replace(&mut self.active, next);
        self.epoch = self.epoch.saturating_add(1);
        self.frozen.replace(sealed)
    }

    /// Insertion failures across the visible window (active + frozen).
    pub fn insertion_failures(&self) -> u64 {
        self.active
            .insertion_failures()
            .saturating_add(self.frozen.as_ref().map_or(0, G::insertion_failures))
    }

    /// Value the visible window's failures dropped (active + frozen):
    /// the most any window answer can undercount its truth.
    pub fn dropped_value(&self) -> u64 {
        self.active
            .dropped_value()
            .saturating_add(self.frozen.as_ref().map_or(0, G::dropped_value))
    }

    /// Worst-case MPE over the window: one per-generation ceiling per
    /// visible generation (data-dependent if a generation was merged —
    /// see [`ReliableSketch::mpe_ceiling`]).
    pub fn mpe_ceiling(&self) -> u64 {
        let generations = if self.frozen.is_some() { 2 } else { 1 };
        self.active.mpe_ceiling().saturating_mul(generations)
    }
}

impl<K: Key> EpochedReliable<K> {
    /// Heavy hitters of the visible window: candidates from either
    /// generation whose *window* estimate reaches `threshold`, sorted by
    /// estimate descending.
    pub fn heavy_hitters(&self, threshold: u64) -> Vec<(K, Estimate)> {
        let candidates = self.active.candidate_keys();
        let sealed = self.frozen.iter().flat_map(ReliableSketch::candidate_keys);
        let mut hh = rank(candidates.chain(sealed), |k| self.query_with_error(k));
        hh.retain(|(_, est)| est.value >= threshold);
        hh
    }
}

impl<K: Key> EpochedConcurrent<K> {
    // ---- crate-internal access for the replication layer ----

    /// Exclusive access to the active generation (replica apply).
    pub(crate) fn active_mut(&mut self) -> &mut ConcurrentReliable<K> {
        &mut self.active
    }

    /// Exclusive access to the frozen generation (replica apply).
    pub(crate) fn frozen_mut(&mut self) -> Option<&mut ConcurrentReliable<K>> {
        self.frozen.as_mut()
    }

    /// Drop every top-K summary in the window (replica apply paths:
    /// counters changed without promotion events, so any summary is
    /// stale). The configured capacity survives, so post-rotation
    /// generations resume tracking.
    pub(crate) fn invalidate_top_k(&mut self) {
        self.active.invalidate_top_k();
        if let Some(frozen) = self.frozen.as_mut() {
            frozen.invalidate_top_k();
        }
    }

    /// Epoch index at the last replication cut.
    pub(crate) fn cut_epoch(&self) -> Option<u64> {
        self.cut_epoch
    }

    /// Record the replication cut at the current epoch.
    pub(crate) fn set_cut_epoch(&mut self) {
        self.cut_epoch = Some(self.epoch);
    }

    /// Lock-free insert into the active epoch through a shared reference.
    #[inline]
    pub fn insert_shared(&self, key: &K, value: u64) {
        self.active.insert_concurrent(key, value);
    }

    /// Batched insert into the active epoch — delegates to
    /// [`ConcurrentReliable::insert_batch`], so the result is
    /// bit-identical to an [`Self::insert_shared`] item loop.
    #[inline]
    pub fn insert_batch(&self, items: &[(K, u64)]) {
        self.active.insert_batch(items);
    }

    /// Always 0: the mice filter is exact under contention, so no window
    /// answer trails its truth while producers race. Kept only because
    /// the benchmark's `embed-shared` workload calls it
    /// (perfbench/src/embed_shared.rs:212).
    pub fn contention_undershoot_bound(&self) -> u64 {
        0
    }

    /// Fold another window's *entire visible mass* (active + frozen
    /// generations) into this window's active generation — the
    /// cross-tenant aggregation primitive of a served deployment
    /// (`Merge` frame): after the call, this window answers for both
    /// tenants' histories while `other` is left untouched.
    ///
    /// Both windows must have been built from the same configuration.
    /// Exclusive on `self` (`&mut`): quiesce this window's producers, as
    /// for [`rotate`](Self::rotate). The active generation becomes a
    /// merged overlay (`is_merged()` on it turns true), so the a-priori
    /// `MPE ≤ Λ` ceiling relaxes to the data-dependent merged bound —
    /// every interval stays certified.
    ///
    /// # Errors
    /// Propagates the [`MergeError`] of the underlying
    /// [`ConcurrentReliable`] merge (mismatched shape or seeds).
    pub fn merge_window_from(&mut self, other: &Self) -> Result<(), MergeError> {
        self.active.merge(&other.active)?;
        if let Some(frozen) = &other.frozen {
            self.active.merge(frozen)?;
        }
        Ok(())
    }
}

impl<K: Key, G: Generation<K>> StreamSummary<K> for Epoched<K, G> {
    #[inline]
    fn insert(&mut self, key: &K, value: u64) {
        self.active.insert(key, value);
    }

    #[inline]
    fn query(&self, key: &K) -> u64 {
        self.query_with_error(key).value
    }
}

impl<K: Key, G: Generation<K>> ErrorSensing<K> for Epoched<K, G> {
    /// Sum both visible generations' certified answers; each interval is
    /// certified, so the sum is (saturating, so a generation restored
    /// from a replication payload with huge counters reads vacuous
    /// rather than wrapped).
    fn query_with_error(&self, key: &K) -> Estimate {
        let mut est = self.active.query_with_error(key);
        if let Some(frozen) = &self.frozen {
            let old = frozen.query_with_error(key);
            est.value = est.value.saturating_add(old.value);
            est.max_possible_error = est
                .max_possible_error
                .saturating_add(old.max_possible_error);
        }
        est
    }
}

impl<K: Key + Send + Sync> ConcurrentErrorSensing<K> for EpochedConcurrent<K> {
    /// Certified read over the visible window through a shared reference:
    /// the sealed generation is read **wait-free** (its atomic words are
    /// never CASed again — plain loads, no retry loop) and the active
    /// generation lock-free; each generation's interval is certified, so
    /// their sum is. This is the `QueryCertified` path of a served
    /// deployment.
    #[inline]
    fn query_with_error_concurrent(&self, key: &K) -> Estimate {
        self.query_with_error(key)
    }
}

impl<K: Key + Send + Sync> ConcurrentSummary<K> for EpochedConcurrent<K> {
    #[inline]
    fn insert_concurrent(&self, key: &K, value: u64) {
        self.insert_shared(key, value);
    }

    #[inline]
    fn query_concurrent(&self, key: &K) -> u64 {
        self.query_with_error(key).value
    }

    fn ingest_parallel(&self, items: &[(K, u64)], n_workers: usize) -> usize {
        self.active.ingest_parallel(items, n_workers)
    }
}

impl<K: Key, G: Generation<K>> TopK<K> for Epoched<K, G> {
    /// Certified heavy hitters of the visible window: the monitored keys
    /// of the active generation's summary, then of the sealed
    /// generation's own (first occurrence wins), each answered with the
    /// **window** point query so `count`/`error` cover both epochs.
    /// Unmonitored keys are charged the sum of the generations' miss
    /// bounds; a visible generation without a summary has an unbounded
    /// miss (`u64::MAX`), which saturates the answer into a vacuous one.
    fn certified_top_k(&self, k: usize) -> CertifiedTopK<K> {
        let Some((mut keys, mut miss_bound)) = self.active.top_k_candidates() else {
            return CertifiedTopK::vacuous();
        };
        if let Some(frozen) = &self.frozen {
            let (sealed, miss) = frozen.top_k_candidates().unwrap_or((Vec::new(), u64::MAX));
            keys.extend(sealed);
            miss_bound = miss_bound.saturating_add(miss);
        }
        top(rank(keys, |key| self.query_with_error(key)), miss_bound, k)
    }

    fn top_k_capacity(&self) -> Option<usize> {
        self.top_k
    }
}

impl<K: Key, G: Generation<K>> MemoryFootprint for Epoched<K, G> {
    fn memory_bytes(&self) -> usize {
        let sealed = self.frozen.as_ref().map_or(0, G::memory_bytes);
        self.active.memory_bytes().saturating_add(sealed)
    }
}

impl<K: Key> Algorithm for EpochedReliable<K> {
    fn name(&self) -> String {
        "Ours(Epoched)".into()
    }
}

impl<K: Key> Algorithm for EpochedConcurrent<K> {
    fn name(&self) -> String {
        "OursAtomic(Epoched)".into()
    }
}

impl<K: Key, G: Generation<K>> Clear for Epoched<K, G> {
    /// Drop both generations and restart at epoch 0 (a configured top-K
    /// layer stays enabled, with an emptied summary).
    fn clear(&mut self) {
        self.active.clear();
        self.frozen = None;
        self.epoch = 0;
        self.cut_epoch = None;
    }
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects)] // small fixed test data
mod tests {
    use super::*;
    use crate::config::EmergencyPolicy;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::collections::HashMap;

    /// A window over generation type `G`: Λ = 25, exact emergency table.
    fn window_of<G: Generation<u64>>(memory: usize, seed: u64) -> Epoched<u64, G> {
        Epoched::new(
            ReliableConfig::builder()
                .memory_bytes(memory)
                .error_tolerance(25)
                .emergency(EmergencyPolicy::ExactTable)
                .seed(seed)
                .config(),
        )
    }

    fn window() -> EpochedReliable<u64> {
        window_of(32 * 1024, 17)
    }

    fn concurrent_window() -> EpochedConcurrent<u64> {
        window_of(64 * 1024, 23)
    }

    #[test]
    fn fresh_window_is_empty_epoch_zero() {
        let w = window();
        assert_eq!(w.epoch(), 0);
        assert!(w.frozen().is_none());
        assert_eq!(w.query(&1), 0);
    }

    fn spans_two_epochs_exactly<G: Generation<u64>>(mut w: Epoched<u64, G>) {
        w.insert(&1, 10); // epoch 0

        assert!(w.rotate().is_none(), "nothing retired on first rotation");
        w.insert(&1, 20); // epoch 1
        assert_eq!(w.epoch(), 1);
        assert!(w.query_with_error(&1).contains(30), "both epochs visible");

        let retired = w.rotate().expect("epoch 0 retires");
        assert!(retired.query_with_error(&1).contains(10));
        w.insert(&1, 40); // epoch 2
        assert!(
            w.query_with_error(&1).contains(60),
            "epoch 0 left the window"
        );
        assert_eq!(w.mpe_ceiling(), 2 * w.active().mpe_ceiling());
    }

    #[test]
    fn window_spans_two_epochs_exactly() {
        spans_two_epochs_exactly(window());
        spans_two_epochs_exactly(concurrent_window());
    }

    #[test]
    fn window_estimates_cover_window_truth_on_real_trace() {
        use rsk_stream::Dataset;
        let stream = Dataset::IpTrace.generate(120_000, 3);
        let mut w = window();
        let mut window_truth: [HashMap<u64, u64>; 2] = [HashMap::new(), HashMap::new()];

        for (i, it) in stream.iter().enumerate() {
            if i > 0 && i % 30_000 == 0 {
                w.rotate();
                window_truth.swap(0, 1);
                window_truth[1] = HashMap::new();
            }
            w.insert(&it.key, it.value);
            *window_truth[1].entry(it.key).or_insert(0) += it.value;
        }

        let mut combined: HashMap<u64, u64> = window_truth[1].clone();
        if w.frozen().is_some() {
            for (k, v) in &window_truth[0] {
                *combined.entry(*k).or_insert(0) += v;
            }
        }
        for (&k, &f) in &combined {
            let est = w.query_with_error(&k);
            assert!(est.contains(f), "key {k}: window truth {f} ∉ {est:?}");
            assert!(est.max_possible_error <= w.mpe_ceiling());
        }
    }

    #[test]
    fn heavy_hitters_report_window_totals() {
        let mut w = window();
        for _ in 0..500 {
            w.insert(&42, 10);
        }
        w.rotate();
        for _ in 0..100 {
            w.insert(&42, 10);
        }
        let hh = w.heavy_hitters(5_000);
        assert_eq!(hh.first().map(|(k, _)| *k), Some(42));
        assert!(hh[0].1.contains(6_000));
    }

    #[test]
    fn failures_aggregate_across_generations() {
        // tiny window under heavy distinct-key pressure fails in both
        // generations; the wrapper reports the sum of the visible two
        let mut w: EpochedReliable<u64> = EpochedReliable::<u64>::builder()
            .memory_bytes(1024)
            .error_tolerance(5)
            .raw()
            .seed(3)
            .build_epoched();
        for i in 0..40_000u64 {
            w.insert(&i, 1);
        }
        let first = w.active().insertion_failures();
        assert!(first > 0);
        w.rotate();
        for i in 0..40_000u64 {
            w.insert(&(i + 1_000_000), 1);
        }
        assert_eq!(
            w.insertion_failures(),
            first + w.active().insertion_failures()
        );
    }

    fn clear_restarts<G: Generation<u64>>(mut w: Epoched<u64, G>) {
        w.insert(&1, 5);
        w.rotate();
        w.insert(&1, 5);
        Clear::clear(&mut w);
        assert_eq!(w.epoch(), 0);
        assert!(w.frozen().is_none());
        assert_eq!(w.query(&1), 0);
    }

    #[test]
    fn clear_restarts_the_window() {
        clear_restarts(window());
        clear_restarts(concurrent_window());
    }

    #[test]
    fn memory_doubles_once_frozen_exists() {
        let mut w = window();
        let single = w.memory_bytes();
        w.rotate();
        assert_eq!(w.memory_bytes(), 2 * single);
        assert_eq!(w.mpe_ceiling(), 2 * w.active().mpe_ceiling());
    }

    /// Rotate four rounds through `w`, folding every retired epoch into
    /// a roll-up; roll-up + visible window must answer for the whole
    /// history. Returns the roll-up.
    fn roll_up_via_merge<G: Generation<u64> + Merge>(mut w: Epoched<u64, G>) -> G {
        let mut rollup: Option<G> = None;
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for round in 0..4u64 {
            for i in 0..5_000u64 {
                let k = i % 100;
                w.insert(&k, 1 + round);
                *truth.entry(k).or_insert(0) += 1 + round;
            }
            if let Some(retired) = w.rotate() {
                match &mut rollup {
                    None => rollup = Some(retired),
                    Some(acc) => acc.merge(&retired).unwrap(),
                }
            }
        }
        // roll-up + visible window = the whole history
        let rollup = rollup.unwrap();
        for (&k, &f) in &truth {
            let win = w.query_with_error(&k);
            let old = rollup.query_with_error(&k);
            let total = Estimate {
                value: win.value + old.value,
                max_possible_error: win.max_possible_error + old.max_possible_error,
            };
            assert!(total.contains(f), "key {k}: {f} ∉ {total:?}");
        }
        rollup
    }

    #[test]
    fn retired_epochs_can_roll_up_via_merge() {
        roll_up_via_merge(window());
        assert!(roll_up_via_merge(concurrent_window()).is_merged());
    }

    #[test]
    fn concurrent_window_multi_producer_epochs() {
        // four producers per epoch race directly on the window; rotation
        // at each quiescent boundary; every window answer holds its truth
        let mut w = concurrent_window();
        for epoch in 0..3u64 {
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let w = &w;
                    s.spawn(move || {
                        for i in 0..5_000u64 {
                            w.insert_shared(&((i + t) % 200), 1 + epoch);
                        }
                    });
                }
            });
            if epoch < 2 {
                w.rotate();
            }
        }
        // visible window: epochs 1 (frozen) and 2 (active)
        let mut window_truth: HashMap<u64, u64> = HashMap::new();
        for t in 0..4u64 {
            for i in 0..5_000u64 {
                *window_truth.entry((i + t) % 200).or_insert(0) += 2 + 3;
            }
        }
        assert_eq!(w.insertion_failures(), 0);
        for (&k, &f) in &window_truth {
            let est = w.query_with_error(&k);
            assert!(est.contains(f), "key {k}: window truth {f} ∉ {est:?}");
            assert!(est.max_possible_error <= w.mpe_ceiling());
        }
    }

    #[test]
    fn merge_window_from_absorbs_both_generations() {
        let mut a = concurrent_window();
        let mut b = concurrent_window();
        // tenant b spans two generations: 30 frozen + 12 active on key 9
        b.insert_shared(&9, 30);
        b.rotate();
        b.insert_shared(&9, 12);
        a.insert_shared(&9, 100);
        a.merge_window_from(&b).unwrap();
        assert!(a.query_with_error(&9).contains(142));
        assert!(a.active().is_merged());
        // the donor window is untouched
        assert!(b.query_with_error(&9).contains(42));

        // mismatched configurations refuse with a typed error
        let other_seed = EpochedConcurrent::<u64>::builder()
            .memory_bytes(64 * 1024)
            .error_tolerance(25)
            .emergency(EmergencyPolicy::ExactTable)
            .seed(99)
            .build_epoched_concurrent();
        assert_eq!(
            a.merge_window_from(&other_seed),
            Err(MergeError::SeedMismatch)
        );
    }

    #[test]
    fn concurrent_certified_reads_match_error_sensing() {
        let mut w = concurrent_window();
        w.insert_shared(&5, 40);
        w.rotate();
        w.insert_shared(&5, 2);
        let seq = w.query_with_error(&5);
        let conc = w.query_with_error_concurrent(&5);
        assert_eq!(seq, conc, "shared-reference read must match &self read");
        assert!(conc.contains(42));
    }

    /// The window contract on one interleaving of inserts (`(key,
    /// value, roll)`, rotating first when `roll == 0`): every key's
    /// window estimate covers its two-epoch window truth.
    fn window_contract<G: Generation<u64>>(
        ops: &[(u64, u64, u8)],
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let mut w: Epoched<u64, G> = window_of(8 * 1024, seed);
        let mut prev: HashMap<u64, u64> = HashMap::new();
        let mut cur: HashMap<u64, u64> = HashMap::new();
        for &(k, v, roll) in ops {
            if roll == 0 {
                w.rotate();
                prev = core::mem::take(&mut cur);
            }
            w.insert(&k, v);
            *cur.entry(k).or_insert(0) += v;
        }
        for k in 0u64..60 {
            let f = cur.get(&k).copied().unwrap_or(0)
                + if w.frozen().is_some() {
                    prev.get(&k).copied().unwrap_or(0)
                } else {
                    0
                };
            let est = w.query_with_error(&k);
            prop_assert!(
                est.contains(f),
                "key {}: window truth {} ∉ [{}, {}]",
                k,
                f,
                est.lower_bound(),
                est.value
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Arbitrary interleavings of inserts and rotations, on either
        /// generation type: the window estimate always covers the
        /// two-epoch window truth.
        #[test]
        fn prop_window_contract(
            ops in proptest::collection::vec((0u64..60, 1u64..8, 0u8..12), 1..600),
            seed in 0u64..8,
            concurrent in proptest::bool::ANY,
        ) {
            if concurrent {
                window_contract::<ConcurrentReliable<u64>>(&ops, seed)?;
            } else {
                window_contract::<ReliableSketch<u64>>(&ops, seed)?;
            }
        }
    }
}
