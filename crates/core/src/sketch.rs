//! The full ReliableSketch (paper §3.2): Error-Sensible buckets organized
//! in layers under Double Exponential Control, with the lock mechanism
//! diverting error-increasing insertions downward.
//!
//! * **Insert** follows Algorithm 1 layer by layer: `descend` runs the
//!   one per-bucket rule, [`crate::bucket::step`], on the key's bucket in
//!   each layer until the value comes to rest, for this sketch and the
//!   lock-free one alike. Note one fidelity detail: the paper's
//!   pseudocode (lines 10–11) updates `B.NO` before computing the
//!   leftover, which as literally written subtracts zero; we implement
//!   the prose semantics — the bucket absorbs `λ_i − NO_old`, the
//!   remainder `v − (λ_i − NO_old)` moves to the next layer. The
//!   leftover past the last layer and any count `step` clips at
//!   `u64::MAX` are insertion failures.
//! * **Query** follows Algorithm 2 ([`walk`]), accumulating `YES`/`NO`
//!   contributions and the Maximum Possible Error (`Σ NO`), stopping at
//!   the first unlocked / replaceable / matching bucket.
//!
//! ### The guarantee
//!
//! As long as no insertion fails, for **every** key
//! `f̂(e) − f(e) ∈ [0, MPE(e)]` and `MPE(e) ≤ filter_threshold + Σ λ_i ≤ Λ`.
//! This is a *deterministic* consequence of the lock invariant
//! `NO_i ≤ λ_i`; randomness only enters in whether insertions fail, which
//! Theorem 4 bounds by `Δ`. The property tests at the bottom of this file
//! machine-check the deterministic part on arbitrary streams.

use crate::bucket::Layers;
use crate::config::{ReliableConfig, SketchBuilder, BUCKET_BYTES};
use crate::emergency::EmergencyStore;
use crate::filter::MiceFilter;
use crate::geometry::LayerGeometry;
use crate::stats::{InsertTrace, QueryTrace, SketchStats, StopLayer};
use crate::topk::{rank, TopKSummary};
use rsk_api::{
    Algorithm, CertifiedTopK, Clear, ErrorSensing, Estimate, Key, MemoryFootprint, StreamSummary,
    TopK,
};
use rsk_hash::HashFamily;

/// ReliableSketch: stream summary with all-keys error control.
///
/// ```
/// use rsk_core::ReliableSketch;
/// use rsk_api::{StreamSummary, ErrorSensing};
///
/// let mut sk = ReliableSketch::<u64>::builder()
///     .memory_bytes(64 * 1024)
///     .error_tolerance(25)
///     .build_sequential();
/// for pkt in 0..1000u64 {
///     sk.insert(&(pkt % 10), 1); // ten keys, 100 each
/// }
/// let est = sk.query_with_error(&3);
/// assert!(est.contains(100));
/// assert!(est.max_possible_error <= 25);
/// ```
#[derive(Debug, Clone)]
pub struct ReliableSketch<K: Key> {
    config: ReliableConfig,
    geometry: LayerGeometry,
    /// The §3.3 mice filter: the packed type the lock-free sketch shares
    /// between threads, with this sketch as its single writer.
    pub(crate) filter: Option<MiceFilter>,
    /// The bucket layers, with the divert hints only [`crate::merge`]
    /// sets: merged queries keep descending wherever either shard might
    /// have pushed a key deeper.
    pub(crate) layers: Layers<K>,
    hashes: HashFamily,
    pub(crate) emergency: EmergencyStore<K>,
    pub(crate) stats: SketchStats,
    /// The error-certified top-K layer ([`crate::topk`]), fed by
    /// elephant promotion; `None` — zero cost — unless enabled through
    /// [`Self::enable_top_k`].
    pub(crate) topk: Option<TopKSummary<K>>,
}

impl<K: Key> ReliableSketch<K> {
    /// Start building with paper-default parameters (1 MB, Λ=25, R_w=2,
    /// R_λ=2.5, 20 % 2-bit mice filter).
    pub fn builder() -> SketchBuilder {
        ReliableConfig::builder()
    }

    /// Construct from a full configuration.
    ///
    /// # Panics
    /// Panics if the configuration fails validation.
    pub fn new(config: ReliableConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid ReliableConfig: {e}"));
        let geometry = config.geometry();
        Self::with_geometry(config, geometry)
    }

    /// Construct with an explicit layer schedule, bypassing the Double
    /// Exponential Control derivation — the hook the ablation studies in
    /// [`crate::ablation`] use to compare schedules (e.g. the arithmetic
    /// sequences §3.2 warns against) under otherwise identical machinery.
    pub fn with_geometry(config: ReliableConfig, geometry: LayerGeometry) -> Self {
        let filter = MiceFilter::for_config(&config);
        let layers = Layers::new(geometry.widths());
        let hashes = HashFamily::new(geometry.depth(), config.seed);
        let emergency = EmergencyStore::new(config.emergency);
        let stats = SketchStats::new(geometry.depth());
        Self {
            config,
            geometry,
            filter,
            layers,
            hashes,
            emergency,
            stats,
            topk: None,
        }
    }

    /// Attach the error-certified top-K layer ([`crate::topk`]): a
    /// `capacity`-slot Space-Saving summary claimed whenever the mice
    /// filter promotes an elephant (every insert for the raw variant),
    /// each claim seeded from this sketch's own certified post-insert
    /// estimate. Enable *before* ingesting — the summary only witnesses
    /// promotions that happen after it exists. Replaces any previous
    /// layer.
    pub fn enable_top_k(&mut self, capacity: usize) {
        let threshold = self.filter.as_ref().map_or(0, MiceFilter::threshold);
        self.topk = Some(TopKSummary::new(capacity, threshold));
    }

    /// Builder-style [`Self::enable_top_k`].
    #[must_use]
    pub fn with_top_k(mut self, capacity: usize) -> Self {
        self.enable_top_k(capacity);
        self
    }

    /// The attached top-K summary, if enabled.
    pub fn top_k_summary(&self) -> Option<&TopKSummary<K>> {
        self.topk.as_ref()
    }

    /// The configuration this sketch was built from.
    pub fn config(&self) -> &ReliableConfig {
        &self.config
    }

    /// The materialized layer geometry.
    pub fn geometry(&self) -> &LayerGeometry {
        &self.geometry
    }

    /// Operation statistics (hash calls, stop layers, failures).
    pub fn stats(&self) -> &SketchStats {
        &self.stats
    }

    /// Number of insert operations that could not place their full value
    /// (the guarantee is void only for these).
    pub fn insertion_failures(&self) -> u64 {
        self.emergency.failures()
    }

    /// Total value dropped by failed inserts (nonzero only with
    /// [`crate::EmergencyPolicy::Disabled`]).
    pub fn dropped_value(&self) -> u64 {
        self.emergency.dropped_value()
    }

    /// Does the mice filter exist (false for the paper's "Raw" variant)?
    pub fn has_filter(&self) -> bool {
        self.filter.is_some()
    }

    /// Insert and return the full trace (stop layer, hash calls, failure).
    pub fn insert_traced(&mut self, key: &K, value: u64) -> InsertTrace {
        self.insert_traced_at(key, value, None)
    }

    /// [`Self::insert_traced`] with an optional precomputed layer-0 bucket
    /// index — the hook [`Self::insert_batch`] uses to amortize hashing.
    /// Hash-call accounting is identical either way: a walk that reaches
    /// layer 0 counts one call for it, precomputed or not. The mice filter
    /// runs first, so when it absorbs the item a precomputed index goes
    /// unused and is not counted in `hash_calls`, although the batch
    /// prefix loop evaluated it.
    fn insert_traced_at(&mut self, key: &K, value: u64, idx0: Option<usize>) -> InsertTrace {
        let (trace, passed) = self.insert_passed_at(key, value, idx0);
        // elephant promotion: value cleared the filter (or the sketch is
        // raw) — offer it to the top-K layer *after* the insert landed,
        // so an unmonitored key's claim is seeded from the certified
        // post-insert estimate (an upper bound on its full mass)
        if passed > 0 && self.topk.is_some() {
            if let Some(mut tk) = self.topk.take() {
                tk.offer(key, passed, || self.query_unrecorded(key).estimate);
                self.topk = Some(tk);
            }
        }
        trace
    }

    /// The Algorithm-1 insert; returns the trace together with the value
    /// that cleared the mice filter (0 when fully absorbed — a mouse).
    fn insert_passed_at(&mut self, key: &K, value: u64, idx0: Option<usize>) -> (InsertTrace, u64) {
        let mut trace = InsertTrace {
            stop: StopLayer::Filter,
            hash_calls: 0,
            failed_remainder: 0,
        };
        let mut v = value;
        if let Some(f) = &self.filter {
            trace.hash_calls = f.hash_calls();
            v = f.insert(key, v);
            if v == 0 {
                self.stats.record_insert(&trace);
                return (trace, 0);
            }
        }
        let (visited, lost) = descend(self.geometry.depth(), v, |i, v| {
            let j = match (i, idx0) {
                (0, Some(j)) => j,
                _ => self.hashes.index(i, key, self.geometry.width(i)),
            };
            self.layers.buckets[i][j].apply(key, v, self.geometry.lambda(i))
        });
        trace.hash_calls += visited as u64;
        trace.stop = StopLayer::Layer(visited - 1);
        // the leftover past the last layer, or a count the ceiling
        // clipped: an insertion failure
        if lost > 0 {
            self.emergency.record(key, lost);
            trace.stop = StopLayer::Failed;
            trace.failed_remainder = lost;
        }
        self.stats.record_insert(&trace);
        (trace, v)
    }

    /// Insert a batch of items, amortizing the layer-0 hash over a tight
    /// precompute loop per 64-item chunk (the dominant hash: most items
    /// that clear the mice filter stop in the first layer or two).
    ///
    /// Semantically identical to calling [`rsk_api::StreamSummary::insert`]
    /// per item in order — same buckets, same traces, same stats — so the
    /// batched and item-at-a-time paths are interchangeable.
    /// `tests/simd_parity.rs` pins the batched path bit-identical to the
    /// item loop.
    ///
    /// Returns the number of insertion failures within the batch.
    pub fn insert_batch(&mut self, items: &[(K, u64)]) -> u64 {
        const CHUNK: usize = 64;
        let mut failed = 0u64;
        let w0 = self.geometry.width(0);
        let mut idx0 = [0usize; CHUNK];
        for chunk in items.chunks(CHUNK) {
            for (slot, (k, _)) in idx0.iter_mut().zip(chunk) {
                *slot = self.hashes.index(0, k, w0);
            }
            for (&(k, v), &j) in chunk.iter().zip(&idx0) {
                if v > 0 && self.insert_traced_at(&k, v, Some(j)).stop == StopLayer::Failed {
                    failed += 1;
                }
            }
        }
        failed
    }

    /// Drain an item stream through [`Self::insert_batch`] in batches of
    /// `batch_size` (clamped to ≥ 1), buffering only one batch at a time.
    /// Returns the number of items processed.
    pub fn ingest_batched<I>(&mut self, stream: I, batch_size: usize) -> usize
    where
        I: IntoIterator<Item = (K, u64)>,
    {
        drain_batched(stream, batch_size, |batch| {
            self.insert_batch(batch);
        })
    }

    /// Query and return the full trace (estimate, layers visited, hash
    /// calls).
    pub fn query_traced(&self, key: &K) -> QueryTrace {
        let trace = self.query_unrecorded(key);
        self.stats.record_query(&trace);
        trace
    }

    /// [`Self::query_traced`] without counting it in [`Self::stats`]: the
    /// top-K layer's seed estimate is part of an insert, and a decode's
    /// candidate reads ([`Self::candidates`]) are not point queries.
    #[inline]
    fn query_unrecorded(&self, key: &K) -> QueryTrace {
        let mut est = 0u64;
        let mut mpe = 0u64;
        let mut hash_calls = 0u64;
        let mut layers_visited = 0usize;
        let mut descend = true;

        if let Some(f) = &self.filter {
            hash_calls += f.hash_calls();
            let (c, saturated) = f.query(key);
            est += c;
            mpe += c;
            descend = saturated;
        }

        if descend {
            let (e, m, visited) = walk(self.geometry.lambdas(), |i| {
                let j = self.hashes.index(i, key, self.geometry.width(i));
                self.layers.read(i, j, key)
            });
            est = est.saturating_add(e);
            mpe = mpe.saturating_add(m);
            layers_visited = visited;
            hash_calls += visited as u64;
        }

        // remainders recorded by the emergency store (exact or bounded)
        let (ev, eo) = self.emergency.query(key);
        est = est.saturating_add(ev);
        mpe = mpe.saturating_add(eo);

        QueryTrace {
            estimate: Estimate {
                value: est,
                max_possible_error: mpe,
            },
            layers_visited,
            hash_calls,
        }
    }

    /// Keys currently held as bucket candidates, with their estimates —
    /// the decodable content of the sketch.
    /// [`Self::stats`] does not count these reads as queries.
    pub fn candidates(&self) -> Vec<(K, Estimate)> {
        let mut seen = std::collections::HashSet::new();
        self.candidate_keys()
            .filter(|k| seen.insert(*k))
            .map(|k| (k, self.query_unrecorded(&k).estimate))
            .collect()
    }

    /// Every bucket's candidate key, layer by layer, repeats included.
    pub(crate) fn candidate_keys(&self) -> impl Iterator<Item = K> + '_ {
        self.layers.iter().flatten().filter_map(|b| b.id().copied())
    }

    /// Candidates whose estimate reaches `threshold` (heavy hitters),
    /// by estimate descending.
    ///
    /// With the all-keys guarantee intact, every key with
    /// `f(e) ≥ threshold + Λ` is reported and every report satisfies
    /// `f̂ ≥ threshold`.
    pub fn heavy_hitters(&self, threshold: u64) -> Vec<(K, Estimate)> {
        let mut hh = rank(self.candidate_keys(), |k| self.query_unrecorded(k).estimate);
        hh.retain(|(_, est)| est.value >= threshold);
        hh
    }

    /// Worst-case MPE the structure can report for any key:
    /// `filter_threshold + Σ λ_i` (≤ Λ by construction).
    ///
    /// **Caveat:** this ceiling applies to sketches that ingested their
    /// stream directly. After [`rsk_api::Merge::merge`] the reported MPEs
    /// remain *certified* (intervals still contain the truth) but are no
    /// longer a-priori bounded by `Λ` — check [`Self::is_merged`].
    pub fn mpe_ceiling(&self) -> u64 {
        self.config.filter_threshold() + self.geometry.total_lambda()
    }

    /// Has this sketch absorbed another via [`rsk_api::Merge::merge`]?
    ///
    /// Merged sketches keep the interval guarantee (`truth ∈ [f̂ − MPE,
    /// f̂]` for every key) but the `MPE ≤ Λ` ceiling becomes
    /// data-dependent; see [`crate::merge`].
    pub fn is_merged(&self) -> bool {
        self.layers.is_merged()
    }
}

/// Algorithm 2's layer walk, the one copy of its stop rule that every
/// bucket-layer read calls, the FPGA model's in `rsk-dataplane`
/// included. `bucket(i)` reads the key's bucket in layer `i` as
/// `(matches, YES, NO, hinted)`. The walk adds `YES` (the key's
/// own bucket) or `NO` (anyone else's) to the estimate and `NO` to the
/// MPE, and stops at the first bucket that is unlocked (`NO < λᵢ`),
/// replaceable (`YES == NO`) or the key's own — unless a merge hinted
/// that the key may have descended past it in some operand (see
/// [`crate::merge`]). Returns `(estimate, MPE, layers visited)`; the
/// sums saturate, because counters restored from a replication payload
/// are unbounded (a saturated answer is vacuous, never wrapped).
#[inline]
pub fn walk(
    lambdas: &[u64],
    mut bucket: impl FnMut(usize) -> (bool, u64, u64, bool),
) -> (u64, u64, usize) {
    let (mut est, mut mpe) = (0u64, 0u64);
    for (i, &lambda) in lambdas.iter().enumerate() {
        let (matches, yes, no, hinted) = bucket(i);
        est = est.saturating_add(if matches { yes } else { no });
        mpe = mpe.saturating_add(no);
        if !hinted && (no < lambda || yes == no || matches) {
            return (est, mpe, i + 1);
        }
    }
    (est, mpe, lambdas.len())
}

/// Algorithm 1's layer descent, the one copy of its loop that every
/// bucket-layer insert calls. `step_at(i, v)` runs
/// [`crate::bucket::step`] for value `v` on the key's bucket in layer
/// `i`, commits it and returns `(leftover, clipped)`. The descent ends
/// at the first step that leaves no leftover — a clipping step leaves
/// none — or past the last of `depth` layers. Returns `(layers visited,
/// value lost)`: the leftover past the last layer or the clipped excess,
/// which the caller sends down the failure path.
#[inline]
pub(crate) fn descend(
    depth: usize,
    value: u64,
    mut step_at: impl FnMut(usize, u64) -> (u64, u64),
) -> (usize, u64) {
    let mut v = value;
    for i in 0..depth {
        let (leftover, clipped) = step_at(i, v);
        if leftover == 0 {
            return (i + 1, clipped);
        }
        v = leftover;
    }
    (depth, v)
}

/// Drain `stream` into `insert_batch` in batches of `batch_size`
/// (clamped to ≥ 1), buffering only one batch at a time: the body of
/// every sketch flavour's `ingest_batched`. Returns the number of items
/// processed.
pub(crate) fn drain_batched<K, I>(
    stream: I,
    batch_size: usize,
    mut insert_batch: impl FnMut(&[(K, u64)]),
) -> usize
where
    I: IntoIterator<Item = (K, u64)>,
{
    let batch_size = batch_size.max(1);
    let mut buffer = Vec::with_capacity(batch_size);
    let mut total = 0usize;
    for item in stream {
        buffer.push(item);
        if buffer.len() == batch_size {
            insert_batch(&buffer);
            total += buffer.len();
            buffer.clear();
        }
    }
    insert_batch(&buffer);
    total + buffer.len()
}

impl<K: Key> StreamSummary<K> for ReliableSketch<K> {
    #[inline]
    fn insert(&mut self, key: &K, value: u64) {
        if value == 0 {
            return;
        }
        self.insert_traced(key, value);
    }

    #[inline]
    fn query(&self, key: &K) -> u64 {
        self.query_traced(key).estimate.value
    }
}

impl<K: Key> ErrorSensing<K> for ReliableSketch<K> {
    #[inline]
    fn query_with_error(&self, key: &K) -> Estimate {
        self.query_traced(key).estimate
    }
}

impl<K: Key> MemoryFootprint for ReliableSketch<K> {
    fn memory_bytes(&self) -> usize {
        let filter = self.filter.as_ref().map_or(0, |f| f.memory_bytes());
        let layers = self.geometry.total_buckets() * BUCKET_BYTES;
        let topk = self.topk.as_ref().map_or(0, TopKSummary::memory_bytes);
        filter + layers + topk + self.emergency.memory_bytes()
    }
}

impl<K: Key> TopK<K> for ReliableSketch<K> {
    fn certified_top_k(&self, k: usize) -> CertifiedTopK<K> {
        self.topk
            .as_ref()
            .map_or_else(CertifiedTopK::vacuous, |tk| tk.certified_top_k(k))
    }

    fn top_k_capacity(&self) -> Option<usize> {
        self.topk.as_ref().map(TopKSummary::capacity)
    }
}

impl<K: Key> Algorithm for ReliableSketch<K> {
    fn name(&self) -> String {
        if self.has_filter() {
            "Ours".into()
        } else {
            "Ours(Raw)".into()
        }
    }
}

impl<K: Key> Clear for ReliableSketch<K> {
    fn clear(&mut self) {
        if let Some(f) = &mut self.filter {
            f.clear();
        }
        self.layers.clear();
        self.emergency.clear();
        self.stats.reset();
        if let Some(tk) = &mut self.topk {
            tk.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Depth, EmergencyPolicy, MiceFilterConfig};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn small_sketch(mem: usize, lambda: u64) -> ReliableSketch<u64> {
        ReliableSketch::<u64>::builder()
            .memory_bytes(mem)
            .error_tolerance(lambda)
            .seed(1)
            .build_sequential()
    }

    #[test]
    fn single_key_is_exactish() {
        let mut sk = small_sketch(16 * 1024, 25);
        for _ in 0..1000 {
            sk.insert(&42u64, 1);
        }
        let est = sk.query_with_error(&42);
        assert!(est.contains(1000), "est {est:?}");
        assert!(est.max_possible_error <= 25);
    }

    #[test]
    fn guarantee_holds_without_failures_many_keys() {
        let mut sk = small_sketch(64 * 1024, 25);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        // 2000 keys, zipf-ish sizes via k*k spacing
        for k in 0u64..2000 {
            let f = 1 + (k % 50) * (k % 7);
            for _ in 0..f {
                sk.insert(&k, 1);
            }
            *truth.entry(k).or_insert(0) += f;
        }
        assert_eq!(sk.insertion_failures(), 0, "undersized for this test");
        let lambda = sk.config().lambda;
        for (&k, &f) in &truth {
            let est = sk.query_with_error(&k);
            assert!(est.contains(f), "key {k}: {f} ∉ {est:?}");
            assert!(est.value - f <= lambda, "outlier at key {k}");
            assert!(est.max_possible_error <= lambda);
        }
    }

    #[test]
    fn raw_variant_has_no_filter_and_same_guarantee() {
        let mut sk: ReliableSketch<u64> = ReliableSketch::<u64>::builder()
            .memory_bytes(64 * 1024)
            .error_tolerance(25)
            .raw()
            .seed(2)
            .build_sequential();
        assert!(!sk.has_filter());
        assert_eq!(sk.name(), "Ours(Raw)");
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for i in 0..20_000u64 {
            let k = i % 700;
            sk.insert(&k, 1);
            *truth.entry(k).or_insert(0) += 1;
        }
        if sk.insertion_failures() == 0 {
            for (&k, &f) in &truth {
                let est = sk.query_with_error(&k);
                assert!(est.contains(f));
                assert!(est.value - f <= 25);
            }
        }
    }

    #[test]
    fn mpe_ceiling_is_within_lambda() {
        for lambda in [5u64, 25, 100] {
            let sk = small_sketch(32 * 1024, lambda);
            assert!(
                sk.mpe_ceiling() <= lambda,
                "ceiling {} > Λ {lambda}",
                sk.mpe_ceiling()
            );
        }
    }

    #[test]
    fn weighted_inserts_split_across_lock_boundary() {
        // large values must be carried across layers without loss
        let mut sk: ReliableSketch<u64> = ReliableSketch::<u64>::builder()
            .memory_bytes(8 * 1024)
            .error_tolerance(25)
            .emergency(EmergencyPolicy::ExactTable)
            .seed(3)
            .build_sequential();
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for i in 0..3000u64 {
            let k = i % 101;
            let v = 1 + (i % 37) * 11;
            sk.insert(&k, v);
            *truth.entry(k).or_insert(0) += v;
        }
        // with the exact emergency table, estimates stay within Λ bounds
        for (&k, &f) in &truth {
            let est = sk.query_with_error(&k);
            assert!(est.contains(f), "key {k}: {f} ∉ {est:?}");
        }
    }

    #[test]
    fn unseen_keys_never_underflow() {
        let mut sk = small_sketch(16 * 1024, 25);
        for i in 0..5000u64 {
            sk.insert(&(i % 50), 1);
        }
        for ghost in 10_000u64..10_100 {
            let est = sk.query_with_error(&ghost);
            assert!(est.contains(0), "ghost key {ghost}: {est:?}");
        }
    }

    #[test]
    fn forced_failures_are_counted() {
        // one bucket per layer, two layers, no filter, tiny λ: three
        // mutually colliding heavy keys must overflow the structure, and
        // a candidate's YES clipped at u64::MAX fails by the clipped unit
        let cfg = ReliableConfig {
            memory_bytes: 2 * BUCKET_BYTES,
            lambda: 2,
            r_w: 2.0,
            r_lambda: 2.0,
            depth: Depth::Fixed(2),
            mice_filter: None,
            emergency: EmergencyPolicy::Disabled,
            seed: 4,
        };
        let colliding: Vec<(u64, u64)> = (0..300u64).map(|i| (i % 3, 1)).collect();
        let saturating = vec![(7u64, u64::MAX), (7, 1)];
        for (stream, exact) in [(colliding, None), (saturating, Some((1, 1)))] {
            let mut sk: ReliableSketch<u64> = ReliableSketch::new(cfg.clone());
            for &(k, v) in &stream {
                sk.insert(&k, v);
            }
            assert!(sk.insertion_failures() > 0);
            assert!(sk.dropped_value() > 0);
            if let Some(exact) = exact {
                assert_eq!((sk.insertion_failures(), sk.dropped_value()), exact);
            }
        }
    }

    #[test]
    fn exact_emergency_restores_guarantee_under_failures() {
        let cfg = ReliableConfig {
            memory_bytes: 4 * BUCKET_BYTES,
            lambda: 2,
            r_w: 2.0,
            r_lambda: 2.0,
            depth: Depth::Fixed(2),
            mice_filter: None,
            emergency: EmergencyPolicy::ExactTable,
            seed: 4,
        };
        let mut sk: ReliableSketch<u64> = ReliableSketch::new(cfg);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for i in 0..900u64 {
            let k = i % 7;
            sk.insert(&k, 1);
            *truth.entry(k).or_insert(0) += 1;
        }
        assert!(sk.insertion_failures() > 0, "test should force failures");
        for (&k, &f) in &truth {
            let est = sk.query_with_error(&k);
            assert!(est.contains(f), "key {k}: {f} ∉ {est:?}");
        }
    }

    #[test]
    fn heavy_hitters_are_found() {
        let mut sk = small_sketch(64 * 1024, 25);
        for i in 0..10_000u64 {
            sk.insert(&(i % 1000), 1); // everyone gets 10
        }
        for _ in 0..5000 {
            sk.insert(&7777u64, 1); // one elephant
        }
        let hh = sk.heavy_hitters(1000);
        assert!(hh.iter().any(|(k, _)| *k == 7777), "elephant missing");
        assert!(hh[0].0 == 7777);
        assert!(hh[0].1.value >= 5000);
    }

    #[test]
    fn top_k_layer_certifies_the_elephants() {
        let mut sk = small_sketch(64 * 1024, 25).with_top_k(8);
        assert_eq!(rsk_api::TopK::top_k_capacity(&sk), Some(8));
        for i in 0..10_000u64 {
            sk.insert(&(i % 1000), 1); // everyone gets 10 (mice)
        }
        for e in 0..3u64 {
            for _ in 0..5_000 - 1_000 * e {
                sk.insert(&(7_000 + e), 1); // elephants: 5000, 4000, 3000
            }
        }
        let ans = rsk_api::TopK::certified_top_k(&sk, 3);
        assert_eq!(ans.entries.len(), 3);
        let keys: Vec<u64> = ans.entries.iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![7000, 7001, 7002]);
        for (e, truth) in ans.entries.iter().zip([5000u64, 4000, 3000]) {
            assert!(e.contains(truth), "{e:?} lost truth {truth}");
        }
        // each true elephant count dwarfs the floor: recall is certified
        assert!(ans.recall_certified(), "floor {}", ans.guaranteed_floor());
        // disabled layer answers vacuously
        let raw = small_sketch(64 * 1024, 25);
        assert_eq!(rsk_api::TopK::top_k_capacity(&raw), None);
        assert_eq!(
            rsk_api::TopK::certified_top_k(&raw, 3),
            rsk_api::CertifiedTopK::vacuous()
        );
        // object safety
        let dyn_tk: &dyn rsk_api::TopK<u64> = &sk;
        assert_eq!(dyn_tk.certified_top_k(1).entries[0].key, 7000);
    }

    #[test]
    fn stats_track_hash_calls() {
        let mut sk = small_sketch(64 * 1024, 25);
        for i in 0..1000u64 {
            sk.insert(&i, 1);
        }
        assert_eq!(sk.stats().inserts(), 1000);
        // 2-array filter: at least 2 hash calls per insert
        assert!(sk.stats().avg_insert_hash_calls() >= 2.0);
        for i in 0..1000u64 {
            sk.query(&i);
        }
        assert_eq!(sk.stats().queries(), 1000);
        assert!(sk.stats().avg_query_hash_calls() >= 2.0);

        // the top-K layer's seed estimates are part of an insert: 64
        // elephants rotate through 16 slots, seeding again and again
        let mut tk = small_sketch(64 * 1024, 25).with_top_k(16);
        for i in 0..50_000u64 {
            tk.insert(&(i % 64), 1);
        }
        assert!(tk.top_k_summary().is_some_and(|s| s.is_full()));
        assert_eq!(tk.stats().queries(), 0);
        tk.query(&3);
        assert_eq!(tk.stats().queries(), 1);

        // a decode reads every candidate, but counts no point query
        assert!(!tk.candidates().is_empty());
        assert!(!tk.heavy_hitters(0).is_empty());
        assert_eq!(tk.stats().queries(), 1);
    }

    #[test]
    fn clear_resets_content() {
        let mut sk = small_sketch(16 * 1024, 25);
        for i in 0..1000u64 {
            sk.insert(&i, 3);
        }
        rsk_api::Clear::clear(&mut sk);
        for i in 0..1000u64 {
            let est = sk.query_with_error(&i);
            assert_eq!(est.value, 0);
        }
        assert_eq!(sk.stats().inserts(), 0);
    }

    #[test]
    fn zero_value_insert_is_noop() {
        let mut sk = small_sketch(16 * 1024, 25);
        sk.insert(&1u64, 0);
        assert_eq!(sk.stats().inserts(), 0);
        assert_eq!(sk.query(&1), 0);
    }

    #[test]
    fn memory_footprint_close_to_budget() {
        for budget in [16 * 1024usize, 64 * 1024, 1 << 20] {
            let sk = small_sketch(budget, 25);
            let used = sk.memory_bytes();
            assert!(used <= budget, "{used} > {budget}");
            assert!(used as f64 > budget as f64 * 0.95, "{used} ≪ {budget}");
        }
    }

    #[test]
    fn eight_bit_filter_variant_works() {
        let mut sk: ReliableSketch<u64> = ReliableSketch::<u64>::builder()
            .memory_bytes(64 * 1024)
            .error_tolerance(25)
            .mice_filter(MiceFilterConfig {
                counter_bits: 8,
                ..Default::default()
            })
            .seed(5)
            .build_sequential();
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for i in 0..30_000u64 {
            let k = i % 900;
            sk.insert(&k, 1);
            *truth.entry(k).or_insert(0) += 1;
        }
        assert_eq!(sk.insertion_failures(), 0);
        for (&k, &f) in &truth {
            let est = sk.query_with_error(&k);
            assert!(est.contains(f));
            assert!(est.value - f <= 25);
        }
    }

    #[test]
    fn insert_batch_is_identical_to_item_loop() {
        for raw in [false, true] {
            let build = || {
                let mut b = ReliableSketch::<u64>::builder()
                    .memory_bytes(32 * 1024)
                    .error_tolerance(25)
                    .seed(17);
                if raw {
                    b = b.raw();
                }
                b.build_sequential::<u64>()
            };
            let items: Vec<(u64, u64)> = (0..30_000u64).map(|i| (i % 997, 1 + i % 5)).collect();
            let mut batched = build();
            batched.insert_batch(&items);
            let mut looped = build();
            for &(k, v) in &items {
                looped.insert(&k, v);
            }
            for k in 0..997u64 {
                assert_eq!(
                    batched.query_with_error(&k),
                    looped.query_with_error(&k),
                    "raw={raw} key={k}"
                );
            }
            assert_eq!(batched.stats().inserts(), looped.stats().inserts());
            assert_eq!(
                batched.stats().avg_insert_hash_calls(),
                looped.stats().avg_insert_hash_calls(),
                "batch hashing must be accounted identically"
            );
        }
    }

    #[test]
    fn ingest_batched_drains_arbitrary_stream_lengths() {
        // lengths that are not multiples of the batch size exercise the
        // final partial flush
        for (n, batch) in [(0usize, 8usize), (7, 8), (64, 64), (1000, 33)] {
            let mut sk = small_sketch(32 * 1024, 25);
            let processed = sk.ingest_batched((0..n as u64).map(|i| (i % 13, 1)), batch);
            assert_eq!(processed, n);
            assert_eq!(sk.stats().inserts(), n as u64);
        }
    }

    #[test]
    fn insert_batch_reports_failures() {
        let cfg = ReliableConfig {
            memory_bytes: 2 * BUCKET_BYTES,
            lambda: 2,
            r_w: 2.0,
            r_lambda: 2.0,
            depth: Depth::Fixed(2),
            mice_filter: None,
            emergency: EmergencyPolicy::Disabled,
            seed: 4,
        };
        let mut sk: ReliableSketch<u64> = ReliableSketch::new(cfg);
        let items: Vec<(u64, u64)> = (0..300u64).map(|i| (i % 3, 1)).collect();
        let failed = sk.insert_batch(&items);
        assert!(failed > 0);
        assert_eq!(failed, sk.insertion_failures());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The deterministic guarantee: on any stream, for every key,
        /// either some insertion failed or
        /// `0 ≤ f̂(e) − f(e) ≤ MPE(e) ≤ Λ`.
        #[test]
        fn prop_all_keys_controlled(
            ops in proptest::collection::vec((0u64..300, 1u64..8), 1..2000),
            seed in 0u64..32,
            raw in proptest::bool::ANY,
        ) {
            let mut b = ReliableSketch::<u64>::builder()
                .memory_bytes(8 * 1024)
                .error_tolerance(25)
                .seed(seed);
            if raw { b = b.raw(); }
            let mut sk: ReliableSketch<u64> = b.build_sequential();
            let mut truth: HashMap<u64, u64> = HashMap::new();
            for (k, v) in ops {
                sk.insert(&k, v);
                *truth.entry(k).or_insert(0) += v;
            }
            if sk.insertion_failures() == 0 {
                for (&k, &f) in &truth {
                    let est = sk.query_with_error(&k);
                    prop_assert!(est.value >= f,
                        "undershoot key {}: {} < {}", k, est.value, f);
                    prop_assert!(est.value - f <= est.max_possible_error,
                        "MPE lies for key {}", k);
                    prop_assert!(est.max_possible_error <= 25,
                        "MPE {} > Λ", est.max_possible_error);
                }
            }
        }

        /// With the exact emergency table the interval contract holds even
        /// for deliberately overloaded sketches.
        #[test]
        fn prop_emergency_interval_contract(
            ops in proptest::collection::vec((0u64..50, 1u64..30), 1..800),
            seed in 0u64..16,
        ) {
            let cfg = ReliableConfig {
                memory_bytes: 16 * BUCKET_BYTES,
                lambda: 5,
                r_w: 2.0,
                r_lambda: 2.0,
                depth: Depth::Fixed(3),
                mice_filter: None,
                emergency: EmergencyPolicy::ExactTable,
                seed,
            };
            let mut sk: ReliableSketch<u64> = ReliableSketch::new(cfg);
            let mut truth: HashMap<u64, u64> = HashMap::new();
            for (k, v) in ops {
                sk.insert(&k, v);
                *truth.entry(k).or_insert(0) += v;
            }
            for (&k, &f) in &truth {
                let est = sk.query_with_error(&k);
                prop_assert!(est.contains(f), "key {}: {} ∉ {:?}", k, f, est);
            }
        }

        /// Lock invariant: no bucket's NO ever exceeds its layer threshold.
        #[test]
        fn prop_lock_invariant(
            ops in proptest::collection::vec((0u64..100, 1u64..12), 1..600),
            seed in 0u64..16,
        ) {
            let mut sk: ReliableSketch<u64> = ReliableSketch::<u64>::builder()
                .memory_bytes(4 * 1024)
                .error_tolerance(25)
                .raw()
                .seed(seed)
                .build_sequential();
            for (k, v) in ops {
                sk.insert(&k, v);
            }
            for (i, layer) in sk.layers.iter().enumerate() {
                let lambda = sk.geometry.lambda(i);
                for b in layer {
                    prop_assert!(b.no() <= lambda,
                        "layer {} NO {} > λ {}", i, b.no(), lambda);
                }
            }
        }
    }
}
