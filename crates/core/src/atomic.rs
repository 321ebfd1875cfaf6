//! Lock-free atomic bucket layers — the multi-core hot path.
//!
//! The paper scales ReliableSketch across FPGA/Tofino *pipeline stages*;
//! on CPUs the analogue is scaling across cores, and the lesson of "Fast
//! Concurrent Data Sketches" (Rinberg et al., PPoPP '20) is that lock-free
//! ingestion beats lock-based designs by an order of magnitude. This
//! module rebuilds the Error-Sensible bucket for that regime:
//!
//! * **One `AtomicU64` word per bucket.** The paper's §6.1.1 hardware
//!   layout (32-bit `YES`, 16-bit `NO`, 32-bit `ID` = 80 bits) does not
//!   fit a single CAS word, so the concurrent bucket stores a key
//!   *fingerprint* instead of the full ID and packs
//!   `fingerprint(36 − e) | count(28) | error(e)` into 64 bits. `error`
//!   is the bucket's `NO` field, and the lock invariant `NO ≤ λ_i` lets
//!   it be exactly as wide as the layer threshold: `e` is `λ_i`'s bit
//!   width, at most 12 (enforced at construction). A key's fingerprint
//!   is its 32-bit hash, and a bucket keeps `min(32, 36 − e)` bits of
//!   it: all 32 wherever `λ_i < 16` (every layer at the paper's
//!   `Λ = 25`), 24 at the widest threshold.
//! * **CAS capture of the lock-in rule.** One insertion step — vote,
//!   lock-divert, or candidate replacement with the `YES`/`NO` swap — is
//!   Algorithm 1's one per-bucket rule, [`crate::bucket::step`], run on
//!   the unpacked word with the count ceiling [`COUNT_MAX`] and committed
//!   with a single compare-and-swap, so every bucket transition is atomic
//!   and the per-bucket invariants (`YES ≥ NO` for candidates,
//!   `NO ≤ λ_i`) hold under any interleaving. The layer loop around it is
//!   the sequential sketch's too (`sketch::descend`).
//! * **Relaxed counters for stats.** CAS retries, failures and
//!   saturation events are `Relaxed` atomics off the decision path, each
//!   written only by the step that retried, failed or saturated: no
//!   shared counter is written on every insert.
//!
//! ### What survives concurrency
//!
//! Each CAS is a linearization point, so a parallel execution is
//! equivalent to *some* sequential stream in which each `⟨key, value⟩`
//! insertion may be split into per-layer sub-insertions. ReliableSketch
//! is closed under such splits (weighted insertions already split across
//! the lock boundary), so the structural guarantees survive: estimates
//! never undershoot the truth, `MPE(e) ≤ Σ λ_i ≤ Λ` for every key, and a
//! locked bucket stays locked. What is *not* preserved under concurrent
//! interleaving is bit-for-bit determinism of the election outcomes —
//! that is restored one level up by
//! [`crate::concurrent::ShardedReliable::ingest_parallel`], which applies
//! each shard's sub-stream in stream order from a single owner.
//!
//! ### Feature parity with the sequential sketch
//!
//! The concurrent path implements the paper's *full* §3.3 design, not just
//! the "Raw" variant:
//!
//! * **Mice filter** — [`ConcurrentReliable`] honors
//!   [`crate::MiceFilterConfig`] with the [`crate::filter::MiceFilter`]
//!   the sequential sketch runs too (CU counters packed into `AtomicU64`
//!   lanes, one-CAS conditional increment), so mouse flows are absorbed
//!   before they burn first-layer buckets;
//! * **Emergency store** — failures are recorded under the configured
//!   policy behind a mutex only failures touch;
//! * **Windows** — [`crate::epoch::EpochedConcurrent`] rotates generations
//!   of this structure for bounded-history summaries;
//! * **Merging** — [`rsk_api::Merge`] is implemented for
//!   [`ConcurrentReliable`] and [`crate::concurrent::ShardedReliable`]
//!   (packed words are read out into the bucket grid the sequential
//!   sketch holds, in fingerprint space, and unioned into a sealed
//!   overlay — see [`crate::merge`]), and
//!   [`ConcurrentReliable::merge_from_sequential`] folds in a sequential
//!   [`crate::ReliableSketch`] twin through the same code path.
//!
//! ### Caveats vs. [`crate::ReliableSketch`]
//!
//! * Fingerprinting adds a `2⁻³²` (at most `2⁻²⁴`, at the widest
//!   threshold) per-colliding-pair chance of two keys aliasing inside one
//!   bucket, the trade the paper's own 32-bit `ID` field makes against
//!   `u64` keys: an alias answers with the other key's `YES`, which can
//!   lift the certified lower bound past the truth.
//! * `count` saturates at `2²⁸ − 1` per bucket (the sequential sketch's
//!   `YES` at `u64::MAX`). The step returns the excess it clipped, and
//!   the descent sends it down the failure path as it does any leftover
//!   past the last layer: an insertion failure, kept by the emergency
//!   store or counted in `dropped_value()`. Saturation events are also
//!   counted in [`AtomicStats::saturations`].
//!
//! # Examples
//!
//! Shared-reference ingestion from four threads, with the certified
//! interval (§3.1's Maximum Possible Error) intact at the end:
//!
//! ```
//! use rsk_core::atomic::ConcurrentReliable;
//! use rsk_core::ReliableConfig;
//!
//! let sk = ConcurrentReliable::<u64>::new(ReliableConfig {
//!     memory_bytes: 64 * 1024,
//!     seed: 7,
//!     ..Default::default() // paper defaults: Λ=25, 20% 2-bit mice filter
//! });
//! std::thread::scope(|s| {
//!     for t in 0..4u64 {
//!         let sk = &sk;
//!         s.spawn(move || {
//!             for i in 0..1000u64 {
//!                 sk.insert_concurrent(&(i % 10), 1 + t % 2);
//!             }
//!         });
//!     }
//! });
//! let est = sk.query_with_error(&3);
//! // 600 units of true mass, and the MPE ceiling Λ = 25, survive any
//! // interleaving
//! assert!(est.contains(600));
//! assert!(est.max_possible_error <= 25);
//! ```

use crate::bucket::{step, EsBucket, Layers};
use crate::config::ReliableConfig;
use crate::emergency::EmergencyStore;
use crate::epoch::Generation;
use crate::filter::MiceFilter;
use crate::geometry::LayerGeometry;
use crate::sketch::{descend, drain_batched, walk};
use crate::topk::{rank, top, TopKSummary};
use parking_lot::Mutex;
use rsk_api::{
    Algorithm, CertifiedTopK, Clear, ErrorSensing, Estimate, Key, MemoryFootprint, StreamSummary,
    TopK,
};
use rsk_hash::{splitmix64, HashFamily};
use std::sync::atomic::{AtomicU64, Ordering};

/// Physical size of one atomic bucket: a single 64-bit word.
pub const ATOMIC_BUCKET_BYTES: usize = 8;

/// Bits of the packed word holding the candidate count (`YES`).
const COUNT_BITS: u32 = 28;
/// Largest layer threshold a packed word certifies: the error field
/// (`NO`) is at most 12 bits wide.
pub const ERR_MAX: u64 = (1 << 12) - 1;
/// Largest representable `YES`; additions saturate here.
pub const COUNT_MAX: u64 = (1 << COUNT_BITS) - 1;
/// Mask of the widest fingerprint field, 36 bits at `λ = 0`. A layer
/// with threshold `λ` keeps the low `36 − e` bits of a key's 32-bit
/// fingerprint (`layer_fp`), `e` being `λ`'s bit width.
pub const FP_MASK: u64 = (1 << (64 - COUNT_BITS)) - 1;

/// Width of the error field at a layer with threshold `lambda`: the bits
/// `NO ≤ λ` needs, 0 at `λ = 0`.
#[inline]
fn err_bits(lambda: u64) -> u32 {
    u64::BITS - lambda.leading_zeros()
}

/// The fingerprint a layer with threshold `lambda` stores for a key
/// whose full fingerprint is `fp`: the low bits its error field leaves.
#[inline]
pub(crate) fn layer_fp(fp: u64, lambda: u64) -> u64 {
    fp & (FP_MASK >> err_bits(lambda))
}

/// Do a layer fingerprint and bucket fields fit the packed word of a
/// layer with threshold `lambda`?
pub(crate) fn fits_word(fp: u64, count: u64, err: u64, lambda: u64) -> bool {
    let e = err_bits(lambda);
    fp <= FP_MASK >> e && count <= COUNT_MAX && err >> e == 0
}

#[inline]
fn pack(fp: u64, count: u64, err: u64, lambda: u64) -> u64 {
    debug_assert!(fits_word(fp, count, err, lambda));
    let e = err_bits(lambda);
    (fp << (COUNT_BITS + e)) | (count << e) | err
}

#[inline]
fn unpack(word: u64, lambda: u64) -> (u64, u64, u64) {
    let e = err_bits(lambda);
    (
        word >> (COUNT_BITS + e),
        (word >> e) & COUNT_MAX,
        word & ((1 << e) - 1),
    )
}

/// [`step`] on a packed word of a layer with threshold `lambda`, for a
/// key whose full fingerprint is `fp`: unpack, step with the count
/// ceiling [`COUNT_MAX`], pack. Returns `(new_word, leftover, clipped)`:
/// the committed bucket state, the value that must descend to the next
/// layer, and the excess the `count` field could not hold. The new `NO`
/// always fits the error field: a lock stops it at `λ`, and a takeover
/// hands it an old `YES` that no lock guarded, so `YES ≤ λ`.
#[inline]
pub(crate) fn step_word(word: u64, fp: u64, value: u64, lambda: u64) -> (u64, u64, u64) {
    let (bfp, yes, no) = unpack(word, lambda);
    let fp = layer_fp(fp, lambda);
    let s = step(bfp == fp, yes, no, value, lambda, COUNT_MAX);
    let id = if s.takes_over { fp } else { bfp };
    (pack(id, s.yes, s.no, lambda), s.leftover, s.clipped)
}

/// Relaxed operation counters of an [`AtomicBucketArray`].
#[derive(Debug, Default)]
pub struct AtomicStats {
    retries: AtomicU64,
    saturations: AtomicU64,
}

impl AtomicStats {
    /// CAS attempts that lost a race and retried (contention gauge).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Bucket-count saturation events: steps whose `count` clipped at
    /// [`COUNT_MAX`]. Each clipped excess is an insertion failure, kept
    /// by the emergency store or counted as dropped value.
    pub fn saturations(&self) -> u64 {
        self.saturations.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.retries.store(0, Ordering::Relaxed);
        self.saturations.store(0, Ordering::Relaxed);
    }

    /// Add a peer's `(retries, saturations)` (the stats half of
    /// [`rsk_api::Merge`]; a sequential peer reports none).
    pub(crate) fn absorb(&self, (retries, saturations): (u64, u64)) {
        self.retries.fetch_add(retries, Ordering::Relaxed);
        self.saturations.fetch_add(saturations, Ordering::Relaxed);
    }
}

/// The layered lock-free bucket store: geometry-shaped `AtomicU64` words
/// plus relaxed statistics. Hashing and key handling live one level up in
/// [`ConcurrentReliable`]; this type deals in `(layer, index, fingerprint)`
/// coordinates only.
#[derive(Debug)]
pub struct AtomicBucketArray {
    words: Vec<AtomicU64>,
    /// One bit per bucket word, set on CAS commit: the replication
    /// layer's "touched since the last cut" map (see
    /// [`crate::replicate`]). Kept as its own word array so the hot path
    /// pays one relaxed load (and a `fetch_or` only on the first touch)
    /// per committed step.
    dirty: Vec<AtomicU64>,
    offsets: Vec<usize>,
    widths: Vec<usize>,
    lambdas: Vec<u64>,
    stats: AtomicStats,
}

impl AtomicBucketArray {
    /// Allocate zeroed buckets for `geometry`.
    ///
    /// # Panics
    /// Panics if any layer threshold exceeds [`ERR_MAX`] — the packed
    /// error field is at most 12 bits and cannot certify larger
    /// per-layer budgets.
    pub fn new(geometry: &LayerGeometry) -> Self {
        let widths = geometry.widths().to_vec();
        let lambdas = geometry.lambdas().to_vec();
        assert!(
            lambdas.iter().all(|&l| l <= ERR_MAX),
            "layer threshold exceeds the packed error field ({ERR_MAX})"
        );
        let mut offsets = Vec::with_capacity(widths.len());
        let mut total = 0usize;
        for &w in &widths {
            offsets.push(total);
            total += w;
        }
        let words = (0..total).map(|_| AtomicU64::new(0)).collect();
        let dirty = (0..total.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        Self {
            words,
            dirty,
            offsets,
            widths,
            lambdas,
            stats: AtomicStats::default(),
        }
    }

    /// Number of layers.
    #[inline]
    pub fn depth(&self) -> usize {
        self.widths.len()
    }

    /// Buckets in layer `i`.
    #[inline]
    pub fn width(&self, layer: usize) -> usize {
        self.widths[layer]
    }

    /// Total buckets across all layers.
    #[inline]
    pub fn total_buckets(&self) -> usize {
        self.words.len()
    }

    /// Operation statistics.
    pub fn stats(&self) -> &AtomicStats {
        &self.stats
    }

    /// Apply one layer step for the key with full fingerprint
    /// `fingerprint` at `(layer, index)` with a CAS loop (the transition
    /// is `step_word`); returns
    /// `(leftover, clipped)`: the value that must descend, and the excess
    /// a saturated count could not hold, which must not.
    #[inline]
    pub fn insert_step(
        &self,
        layer: usize,
        index: usize,
        fingerprint: u64,
        value: u64,
    ) -> (u64, u64) {
        let global = self.offsets[layer] + index;
        let cell = &self.words[global];
        let lambda = self.lambdas[layer];
        let mut current = cell.load(Ordering::Acquire);
        loop {
            let (next, leftover, clipped) = step_word(current, fingerprint, value, lambda);
            match cell.compare_exchange_weak(current, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    if clipped > 0 {
                        self.stats.saturations.fetch_add(1, Ordering::Relaxed);
                    }
                    self.mark_dirty(global);
                    return (leftover, clipped);
                }
                Err(actual) => {
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    current = actual;
                }
            }
        }
    }

    /// Flag bucket `global` as touched since the last replication cut.
    /// Check-before-or keeps the steady state (bit already set) to one
    /// relaxed load; losing the `fetch_or` race is harmless — the bit
    /// only ever turns on between cuts.
    #[inline]
    fn mark_dirty(&self, global: usize) {
        let bit = 1u64 << (global & 63);
        let word = &self.dirty[global >> 6];
        if word.load(Ordering::Relaxed) & bit == 0 {
            word.fetch_or(bit, Ordering::Relaxed);
        }
    }

    /// Read bucket `(layer, index)` as `(fingerprint, yes, no)`, the
    /// fingerprint as wide as the layer keeps it.
    #[inline]
    pub fn read(&self, layer: usize, index: usize) -> (u64, u64, u64) {
        unpack(
            self.words[self.offsets[layer] + index].load(Ordering::Acquire),
            self.lambdas[layer],
        )
    }

    /// Read every packed word out into a fingerprint-space bucket grid
    /// — the bridge into [`crate::merge`]'s union machinery. A zero word
    /// is an empty bucket (every insertion leaves a nonzero count behind,
    /// so the encoding is unambiguous).
    pub(crate) fn read_out(&self) -> Layers<u64> {
        let buckets = (0..self.depth())
            .map(|layer| {
                (0..self.width(layer))
                    .map(|j| {
                        let (fp, yes, no) = self.read(layer, j);
                        if (fp, yes, no) == (0, 0, 0) {
                            EsBucket::new()
                        } else {
                            EsBucket::from_parts(Some(fp), yes, no)
                        }
                    })
                    .collect()
            })
            .collect();
        Layers {
            buckets,
            hints: Vec::new(),
        }
    }

    /// Per-layer indices of buckets touched since the last
    /// [`Self::clear_dirty`] (ascending within each layer). This is the
    /// work list a replication delta serializes.
    pub(crate) fn dirty_indices(&self) -> Vec<Vec<u32>> {
        let mut out: Vec<Vec<u32>> = self.widths.iter().map(|_| Vec::new()).collect();
        for (layer, (&off, &w)) in self.offsets.iter().zip(&self.widths).enumerate() {
            for j in 0..w {
                let global = off + j;
                if self.dirty[global >> 6].load(Ordering::Acquire) & (1u64 << (global & 63)) != 0 {
                    out[layer].push(j as u32);
                }
            }
        }
        out
    }

    /// Drop every dirty flag — the replication cut point. Exclusive
    /// access guarantees no in-flight insertion can race the clear.
    pub(crate) fn clear_dirty(&mut self) {
        for w in &mut self.dirty {
            *w.get_mut() = 0;
        }
    }

    /// Overwrite bucket `(layer, index)` with explicit fields (replica
    /// restore/apply paths; exclusive access). The fields must fit the
    /// layer's packed word — the caller validates with `fits_word`
    /// before reaching here.
    pub(crate) fn store_bucket(&mut self, layer: usize, index: usize, fp: u64, yes: u64, no: u64) {
        let global = self.offsets[layer] + index;
        *self.words[global].get_mut() = pack(fp, yes, no, self.lambdas[layer]);
    }

    /// Zero every bucket word, keeping the operation statistics (used
    /// when merging seals the live words into an overlay).
    pub(crate) fn zero_words(&mut self) {
        for w in &mut self.words {
            *w.get_mut() = 0;
        }
    }

    /// Zero every bucket and reset statistics (requires exclusive access
    /// for a consistent result; concurrent readers only ever observe valid
    /// bucket words).
    pub fn reset(&mut self) {
        self.zero_words();
        self.clear_dirty();
        self.stats.reset();
    }
}

/// Add `n` to a failure counter, saturating: a counter restored from a
/// replication payload may already sit near `u64::MAX`, and a wrapped
/// count of zero would let queries skip the emergency store.
pub(crate) fn add_failures(failures: &AtomicU64, n: u64) {
    // the closure always returns `Some`, so the update cannot fail
    let _ = failures.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |f| {
        Some(f.saturating_add(n))
    });
}

/// Salt separating the fingerprint hash from the per-layer index family.
const FP_SALT: u64 = 0xf19e_5a1e_0ff5_eeda;

/// The fingerprint-hash seed a sketch built from `seed` uses — shared
/// with [`crate::replicate::SlimSummary`], which must re-derive the same
/// fingerprints standalone from a configuration alone.
#[inline]
pub(crate) fn fp_seed_for(seed: u64) -> u32 {
    splitmix64(seed ^ FP_SALT) as u32
}

/// The 32-bit fingerprint of `key` under the fingerprint seed
/// [`fp_seed_for`] derives — the one rule every sketch and slim digest
/// maps keys by. A bucket stores its layer's `layer_fp` of it.
#[inline]
pub(crate) fn fingerprint<K: Key>(key: &K, fp_seed: u32) -> u64 {
    u64::from(key.hash32(fp_seed))
}

/// A keyed bucket grid in fingerprint space: each candidate maps to the
/// fingerprint its layer stores — how a sequential sketch enters the
/// merge and slim-digest machinery beside the packed words.
pub(crate) fn fingerprint_layers<K: Key>(
    layers: &Layers<K>,
    lambdas: &[u64],
    fp_seed: u32,
) -> Layers<u64> {
    layers.map_ids(|i, k| layer_fp(fingerprint(k, fp_seed), lambdas[i]))
}

/// Lock-free ReliableSketch over an [`AtomicBucketArray`]: shared-`&self`
/// insertion from any number of threads, with the paper's §3.3 mice
/// filter (when configured) running lock-free in front of the bucket
/// layers and the configured emergency policy serviced off the hot path
/// behind a mutex that only failures touch.
///
/// # Examples
///
/// ```
/// use rsk_core::atomic::ConcurrentReliable;
/// use rsk_core::ReliableConfig;
///
/// // paper defaults: Λ = 25, 20% of memory on a 2-bit 2-array CU filter
/// let sk = ConcurrentReliable::<u64>::new(ReliableConfig {
///     memory_bytes: 64 * 1024,
///     seed: 7,
///     ..Default::default()
/// });
/// assert!(sk.has_filter());
/// std::thread::scope(|s| {
///     for t in 0..4u64 {
///         let sk = &sk;
///         s.spawn(move || {
///             for i in 0..1000u64 {
///                 sk.insert_concurrent(&(i % 10), 1 + t % 2);
///             }
///         });
///     }
/// });
/// let est = sk.query_with_error(&3); // true sum: 600
/// assert!(est.contains(600));
/// assert!(est.max_possible_error <= 25); // MPE ≤ Λ under any schedule
/// ```
#[derive(Debug)]
pub struct ConcurrentReliable<K: Key> {
    config: ReliableConfig,
    geometry: LayerGeometry,
    hashes: HashFamily,
    fp_seed: u32,
    pub(crate) filter: Option<MiceFilter>,
    pub(crate) array: AtomicBucketArray,
    pub(crate) failures: AtomicU64,
    pub(crate) emergency: Mutex<EmergencyStore<K>>,
    /// The error-certified top-K layer ([`crate::topk`]). The mutex is
    /// touched only on the promotion path — when the mice filter passes
    /// value through (elephant traffic; every insert for the raw
    /// variant) — so mouse-dominated hot paths never contend on it; the
    /// bucket transitions that feed monitored counts were each committed
    /// by the existing one-CAS step before the offer is taken.
    pub(crate) topk: Option<Mutex<TopKSummary<K>>>,
    /// The sealed union of merged operands, in fingerprint space with
    /// unbounded counters (merged `NO` fields can exceed the packed
    /// word's 12-bit error field, so the union cannot live in the
    /// `AtomicU64` words themselves). `None` — zero cost — until a merge.
    /// Queries walk the overlay *and* the live atomic words (which keep
    /// absorbing post-merge insertions) like two epoch generations.
    pub(crate) merged: Option<Layers<u64>>,
    /// Baselines recorded at the last replication cut (see
    /// [`crate::replicate`]); `None` until the sketch first ships a
    /// delta, and again after every merge, whose overlay the dirty bits
    /// do not cover: the next ship is then a full snapshot.
    pub(crate) cut: Option<crate::replicate::ReplicaCut>,
}

impl<K: Key> ConcurrentReliable<K> {
    /// Build from a configuration, honoring `config.mice_filter`: the
    /// filter takes its configured fraction of `memory_bytes` as packed
    /// atomic CU lanes, and the remaining budget buys
    /// `layer_bytes / ATOMIC_BUCKET_BYTES` single-word buckets shaped
    /// against the residual tolerance `Λ − threshold` (exactly like
    /// [`crate::ReliableSketch::new`]). With `mice_filter: None` this is
    /// the paper's "Raw" variant and the whole budget goes to buckets.
    ///
    /// # Panics
    /// Panics on invalid configurations, or when `Λ` yields a layer
    /// threshold above [`ERR_MAX`] (the packed error field is at most 12
    /// bits wide, a narrower domain than [`crate::ReliableSketch`]'s unbounded
    /// `u64` counters — tolerances up to `Λ = 4095` are always safe).
    pub fn new(config: ReliableConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid ReliableConfig: {e}"));
        let buckets = (config.layer_bytes() / ATOMIC_BUCKET_BYTES).max(1);
        let geometry = LayerGeometry::derive(
            buckets,
            config.layer_lambda(),
            config.r_w,
            config.r_lambda,
            config.depth,
        );
        Self::with_geometry(config, geometry)
    }

    /// Build with an explicit layer schedule (tests and ablations; also
    /// how the differential suite pins this variant to the exact geometry
    /// of a [`crate::ReliableSketch`] twin). The mice filter is still
    /// derived from `config`, identically to the sequential constructor,
    /// so twins share filter shape and hash seeds too.
    pub fn with_geometry(config: ReliableConfig, geometry: LayerGeometry) -> Self {
        let filter = MiceFilter::for_config(&config);
        let array = AtomicBucketArray::new(&geometry);
        let hashes = HashFamily::new(geometry.depth(), config.seed);
        let fp_seed = fp_seed_for(config.seed);
        let emergency = Mutex::new(EmergencyStore::new(config.emergency));
        Self {
            config,
            geometry,
            hashes,
            fp_seed,
            filter,
            array,
            failures: AtomicU64::new(0),
            emergency,
            topk: None,
            merged: None,
            cut: None,
        }
    }

    /// The configuration this sketch was built from.
    pub fn config(&self) -> &ReliableConfig {
        &self.config
    }

    /// The materialized layer geometry.
    pub fn geometry(&self) -> &LayerGeometry {
        &self.geometry
    }

    /// The underlying bucket store (contention and saturation stats).
    pub fn array(&self) -> &AtomicBucketArray {
        &self.array
    }

    /// Does the mice filter exist (false for the paper's "Raw" variant)?
    pub fn has_filter(&self) -> bool {
        self.filter.is_some()
    }

    /// The lock-free mice filter, if configured.
    pub fn filter(&self) -> Option<&MiceFilter> {
        self.filter.as_ref()
    }

    /// Attach the error-certified top-K layer ([`crate::topk`]),
    /// mirroring [`crate::ReliableSketch::enable_top_k`]: offers happen
    /// only when the atomic mice filter passes value through, so the
    /// guarding mutex sees elephant traffic only. Enable *before*
    /// ingesting. Single-owner histories are bit-for-bit equal to the
    /// sequential twin's summary.
    pub fn enable_top_k(&mut self, capacity: usize) {
        let threshold = self.filter.as_ref().map_or(0, MiceFilter::threshold);
        self.topk = Some(Mutex::new(TopKSummary::new(capacity, threshold)));
    }

    /// Builder-style [`Self::enable_top_k`].
    #[must_use]
    pub fn with_top_k(mut self, capacity: usize) -> Self {
        self.enable_top_k(capacity);
        self
    }

    /// Clone of the attached top-K summary, if enabled (read under its
    /// mutex; the merge layer uses this to union summaries).
    pub fn top_k_summary(&self) -> Option<TopKSummary<K>> {
        self.topk.as_ref().map(|tk| tk.lock().clone())
    }

    /// Drop the top-K layer — replica apply paths call this because a
    /// restored bucket image carries no promotion history, so any
    /// existing summary would certify a stream it never witnessed.
    pub(crate) fn invalidate_top_k(&mut self) {
        self.topk = None;
    }

    /// Has this sketch absorbed another via [`rsk_api::Merge`] (or
    /// [`Self::merge_from_sequential`])? Merged sketches keep the
    /// certified-interval guarantee but the `MPE ≤ Λ` ceiling becomes
    /// data-dependent, exactly as for [`crate::ReliableSketch::is_merged`].
    pub fn is_merged(&self) -> bool {
        self.merged.is_some()
    }

    /// Insert operations that overflowed every layer.
    pub fn insertion_failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Total value dropped by failures (nonzero only with
    /// [`crate::EmergencyPolicy::Disabled`]). Like the point query, it
    /// takes the emergency mutex only once an insertion has failed.
    pub fn dropped_value(&self) -> u64 {
        if self.failures.load(Ordering::Relaxed) == 0 {
            0
        } else {
            self.emergency.lock().dropped_value()
        }
    }

    /// 32-bit fingerprint of `key`.
    #[inline]
    pub(crate) fn fingerprint(&self, key: &K) -> u64 {
        fingerprint(key, self.fp_seed)
    }

    /// Lock-free insertion through a shared reference.
    #[inline]
    pub fn insert_concurrent(&self, key: &K, value: u64) {
        if value == 0 {
            return;
        }
        let fp = self.fingerprint(key);
        let idx0 = self.hashes.index(0, key, self.geometry.width(0));
        self.insert_prehashed(key, value, fp, idx0);
    }

    /// The walk after the batch-amortized prefix (fingerprint and layer-0
    /// index already computed). The mice filter — when configured — runs
    /// first, exactly like the sequential Algorithm-1 front end: only the
    /// value it passes through descends into the bucket layers.
    #[inline]
    fn insert_prehashed(&self, key: &K, value: u64, fp: u64, idx0: usize) {
        let mut v = value;
        if let Some(f) = &self.filter {
            v = f.insert(key, v);
            if v == 0 {
                return; // absorbed: a mouse never touches a bucket
            }
        }
        // one CAS per layer; the leftover past the last layer or a
        // clipped count is an insertion failure
        let (_, lost) = descend(self.geometry.depth(), v, |i, v| {
            let j = if i == 0 {
                idx0
            } else {
                self.hashes.index(i, key, self.geometry.width(i))
            };
            self.array.insert_step(i, j, fp, v)
        });
        if lost > 0 {
            add_failures(&self.failures, 1);
            self.emergency.lock().record(key, lost);
        }
        // elephant promotion: offer the passed value to the top-K layer
        // after every CAS of this insert committed, so an unmonitored
        // key's claim is seeded from the certified post-insert estimate
        if let Some(tk) = &self.topk {
            tk.lock().offer(key, v, || self.query_with_error(key));
        }
    }

    /// Insert a batch, amortizing fingerprint and layer-0 hashing over a
    /// tight precompute loop per 64-item chunk. Semantically identical to
    /// calling [`Self::insert_concurrent`] per item in order.
    pub fn insert_batch(&self, items: &[(K, u64)]) {
        const CHUNK: usize = 64;
        let w0 = self.geometry.width(0);
        let mut idx0 = [0usize; CHUNK];
        let mut fps = [0u64; CHUNK];
        for chunk in items.chunks(CHUNK) {
            for (s, (k, _)) in chunk.iter().enumerate() {
                idx0[s] = self.hashes.index(0, k, w0);
                fps[s] = self.fingerprint(k);
            }
            for (s, &(k, v)) in chunk.iter().enumerate() {
                if v > 0 {
                    self.insert_prehashed(&k, v, fps[s], idx0[s]);
                }
            }
        }
    }

    /// Drain an item stream through [`Self::insert_batch`] in batches of
    /// `batch_size` (clamped to ≥ 1), buffering only one batch at a time.
    /// Returns the number of items processed.
    pub fn ingest_batched<I>(&self, stream: I, batch_size: usize) -> usize
    where
        I: IntoIterator<Item = (K, u64)>,
    {
        drain_batched(stream, batch_size, |batch| self.insert_batch(batch))
    }

    /// Algorithm-2 point query with its certified error interval. The
    /// filter contribution (a `NO` in disguise) joins both the estimate
    /// and the MPE; an unsaturated key never descended, so the walk stops
    /// at the filter. After a merge, the sealed overlay is walked in
    /// addition to the live words (two generations of one stream). Sums
    /// saturate: counters restored from a replication payload are
    /// unbounded, and a saturated answer is vacuous but never wraps.
    pub fn query_with_error(&self, key: &K) -> Estimate {
        let fp = self.fingerprint(key);
        let mut est = 0u64;
        let mut mpe = 0u64;
        let mut descend = true;
        if let Some(f) = &self.filter {
            let (c, saturated) = f.query(key);
            est += c;
            mpe += c;
            descend = saturated;
        }
        if descend {
            let lambdas = self.geometry.lambdas();
            let index = |i| self.hashes.index(i, key, self.geometry.width(i));
            if let Some(overlay) = &self.merged {
                let (e, m, _) = walk(lambdas, |i| {
                    overlay.read(i, index(i), &layer_fp(fp, lambdas[i]))
                });
                est = est.saturating_add(e);
                mpe = mpe.saturating_add(m);
            }
            let (e, m, _) = walk(lambdas, |i| {
                let (bfp, yes, no) = self.array.read(i, index(i));
                (bfp == layer_fp(fp, lambdas[i]), yes, no, false)
            });
            est = est.saturating_add(e);
            mpe = mpe.saturating_add(m);
        }
        if self.failures.load(Ordering::Relaxed) > 0 {
            let (ev, eo) = self.emergency.lock().query(key);
            est = est.saturating_add(ev);
            mpe = mpe.saturating_add(eo);
        }
        Estimate {
            value: est,
            max_possible_error: mpe,
        }
    }

    /// Worst-case MPE this structure can report for any key:
    /// `filter_threshold + Σ λ_i ≤ Λ` (the same split as
    /// [`crate::ReliableSketch::mpe_ceiling`]; the ceiling becomes
    /// data-dependent after a merge — check [`Self::is_merged`]).
    pub fn mpe_ceiling(&self) -> u64 {
        self.config.filter_threshold() + self.geometry.total_lambda()
    }

    // ---- crate-internal access for the merge and replication modules ----

    /// The operand view a peer reads while merging: the sealed overlay
    /// unioned with the live words, or the live words alone before any
    /// merge.
    pub(crate) fn effective_layers(&self) -> Layers<u64> {
        let live = self.array.read_out();
        match &self.merged {
            None => live,
            Some(overlay) => {
                let mut grid = overlay.clone();
                grid.union(&live, self.geometry.lambdas());
                grid
            }
        }
    }

    /// Seal the live atomic words into the merged overlay and zero them,
    /// so post-merge insertions accumulate in a fresh generation.
    /// Operation statistics survive. The replication cut is dropped: the
    /// dirty bits do not cover the overlay, and the merge may have
    /// widened the filter lanes the cut's baseline copied.
    pub(crate) fn seal_into_overlay(&mut self) {
        self.merged = Some(self.effective_layers());
        self.array.zero_words();
        self.cut = None;
    }

    /// Clone of the peer's emergency store (read under its mutex).
    pub(crate) fn peer_emergency(&self) -> EmergencyStore<K> {
        self.emergency.lock().clone()
    }

    /// Record a replication cut: clear the dirty map and copy the filter
    /// lanes the next delta diffs against.
    pub(crate) fn set_replica_cut(&mut self) {
        self.array.clear_dirty();
        let filter = self.filter.clone();
        self.cut = Some(crate::replicate::ReplicaCut { filter });
    }
}

impl<K: Key> StreamSummary<K> for ConcurrentReliable<K> {
    #[inline]
    fn insert(&mut self, key: &K, value: u64) {
        self.insert_concurrent(key, value);
    }

    #[inline]
    fn query(&self, key: &K) -> u64 {
        self.query_with_error(key).value
    }
}

impl<K: Key> ErrorSensing<K> for ConcurrentReliable<K> {
    #[inline]
    fn query_with_error(&self, key: &K) -> Estimate {
        ConcurrentReliable::query_with_error(self, key)
    }
}

impl<K: Key> MemoryFootprint for ConcurrentReliable<K> {
    fn memory_bytes(&self) -> usize {
        let filter = self.filter.as_ref().map_or(0, MiceFilter::memory_bytes);
        let overlay = self.merged.as_ref().map_or(0, |_| {
            self.array.total_buckets() * crate::config::BUCKET_BYTES
        });
        let topk = self.topk.as_ref().map_or(0, |tk| tk.lock().memory_bytes());
        filter
            + self.array.total_buckets() * ATOMIC_BUCKET_BYTES
            + overlay
            + topk
            + self.emergency.lock().memory_bytes()
    }
}

impl<K: Key> TopK<K> for ConcurrentReliable<K> {
    /// The summary's monitored keys, each certified by this sketch's own
    /// point query (the lock-free answer rule of [`crate::topk`]).
    fn certified_top_k(&self, k: usize) -> CertifiedTopK<K> {
        self.top_k_candidates()
            .map_or_else(CertifiedTopK::vacuous, |(keys, miss_bound)| {
                top(rank(keys, |key| self.query_with_error(key)), miss_bound, k)
            })
    }

    fn top_k_capacity(&self) -> Option<usize> {
        self.topk.as_ref().map(|tk| tk.lock().capacity())
    }
}

impl<K: Key> Algorithm for ConcurrentReliable<K> {
    fn name(&self) -> String {
        if self.has_filter() {
            "OursAtomic".into()
        } else {
            "OursAtomic(Raw)".into()
        }
    }
}

impl<K: Key> Clear for ConcurrentReliable<K> {
    fn clear(&mut self) {
        if let Some(f) = &mut self.filter {
            f.clear();
        }
        self.array.reset();
        self.failures.store(0, Ordering::Relaxed);
        self.emergency.lock().clear();
        if let Some(tk) = &self.topk {
            tk.lock().clear();
        }
        self.merged = None;
        self.cut = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Depth, EmergencyPolicy, MiceFilterConfig};
    use crate::sketch::ReliableSketch;
    use proptest::prelude::*;

    #[test]
    fn word_roundtrip() {
        // the error field is λ's bit width; the fingerprint takes the rest
        for (lambda, fp_bits) in [(0, 36), (1, 35), (13, 32), (ERR_MAX, 24)] {
            let fp_max = (1u64 << fp_bits) - 1;
            assert_eq!(layer_fp(FP_MASK, lambda), fp_max);
            for (fp, count, err) in [(0, 0, 0), (1, 2, lambda / 2), (fp_max, COUNT_MAX, lambda)] {
                assert!(fits_word(fp, count, err, lambda));
                assert_eq!(
                    unpack(pack(fp, count, err, lambda), lambda),
                    (fp, count, err)
                );
            }
            assert!(!fits_word(fp_max + 1, 0, 0, lambda));
            assert!(!fits_word(0, 0, 1 << err_bits(lambda), lambda));
        }
    }

    #[test]
    fn zero_threshold_layers_keep_all_32_fingerprint_bits() {
        // two keys whose fingerprints agree on their low 24 bits: a
        // layer at λ = ERR_MAX keeps only those and aliases them, a
        // λ = 0 layer keeps all 32 and tells them apart
        let fp_seed = fp_seed_for(3);
        let mut seen = std::collections::HashMap::new();
        let (a, b) = (0u64..)
            .find_map(|k| {
                let low = fingerprint(&k, fp_seed) & 0xFF_FFFF;
                seen.insert(low, k).map(|other| (other, k))
            })
            .unwrap();
        let (fa, fb) = (fingerprint(&a, fp_seed), fingerprint(&b, fp_seed));
        assert_ne!(fa, fb);
        assert_eq!(layer_fp(fa, ERR_MAX), layer_fp(fb, ERR_MAX));
        // one λ = 0 layer of one bucket, its seat held by `a`
        let sk = ConcurrentReliable::<u64>::with_geometry(
            ReliableConfig {
                memory_bytes: 8,
                seed: 3,
                mice_filter: None,
                ..Default::default()
            },
            LayerGeometry::custom(vec![1], vec![0]).unwrap(),
        );
        sk.insert_concurrent(&a, 100);
        assert!(sk.query_with_error(&a).contains(100));
        assert!(sk.query_with_error(&b).contains(0), "b read a's seat");
    }

    #[test]
    fn step_word_matches_bucket_election() {
        // Figure 2's worked example on the packed word (λ large: no lock)
        let mut w = 0u64;
        let (a, b) = (1u64, 2u64);
        let step = |w: &mut u64, fp, v| {
            let (next, left, _) = step_word(*w, fp, v, ERR_MAX);
            *w = next;
            left
        };
        assert_eq!(step(&mut w, a, 2), 0);
        assert_eq!(unpack(w, ERR_MAX), (a, 2, 0));
        assert_eq!(step(&mut w, a, 3), 0);
        assert_eq!(unpack(w, ERR_MAX), (a, 5, 0));
        assert_eq!(step(&mut w, b, 10), 0); // NO 10 ≥ YES 5 → replace + swap
        assert_eq!(unpack(w, ERR_MAX), (b, 10, 5));
    }

    #[test]
    fn step_word_lock_diverts() {
        // λ = 4, bucket captured by fp 1 with YES 10, NO 3: a colliding 5
        // absorbs 1 (to NO = λ) and diverts 4
        let w = pack(1, 10, 3, 4);
        let (next, left, _) = step_word(w, 2, 5, 4);
        assert_eq!(unpack(next, 4), (1, 10, 4));
        assert_eq!(left, 4);
        // a matching key is absorbed fully even when locked
        let (next, left, _) = step_word(next, 1, 7, 4);
        assert_eq!(unpack(next, 4), (1, 17, 4));
        assert_eq!(left, 0);
    }

    #[test]
    fn step_word_count_saturates() {
        let w = pack(3, COUNT_MAX - 1, 0, ERR_MAX);
        let (next, left, clipped) = step_word(w, 3, 10, ERR_MAX);
        assert_eq!(unpack(next, ERR_MAX), (3, COUNT_MAX, 0));
        assert_eq!(left, 0);
        assert_eq!(clipped, 9);
    }

    #[test]
    fn clipped_count_is_an_accounted_failure() {
        let sk = ConcurrentReliable::<u64>::new(ReliableConfig {
            memory_bytes: 64 * 1024,
            seed: 5,
            emergency: EmergencyPolicy::Disabled,
            ..Default::default()
        });
        let truth = 1u64 << 30;
        sk.insert_concurrent(&7, truth);
        assert_eq!(sk.insertion_failures(), 1);
        assert_eq!(sk.array().stats().saturations(), 1);
        let est = sk.query_with_error(&7);
        assert!(
            est.value + sk.dropped_value() >= truth,
            "{est:?} + dropped {} < {truth}",
            sk.dropped_value()
        );
    }

    #[test]
    fn array_rejects_oversized_lambda() {
        let geometry = LayerGeometry::custom(vec![4], vec![ERR_MAX + 1]).unwrap();
        let r = std::panic::catch_unwind(|| AtomicBucketArray::new(&geometry));
        assert!(r.is_err());
    }

    fn twin_pair_with(
        geometry: &LayerGeometry,
        filter: Option<MiceFilterConfig>,
        seed: u64,
    ) -> (ConcurrentReliable<u64>, ReliableSketch<u64>) {
        let config = ReliableConfig {
            memory_bytes: geometry.total_buckets() * ATOMIC_BUCKET_BYTES,
            lambda: geometry.total_lambda().max(1),
            depth: Depth::Fixed(geometry.depth()),
            mice_filter: filter,
            emergency: EmergencyPolicy::ExactTable,
            seed,
            ..Default::default()
        };
        let atomic = ConcurrentReliable::with_geometry(config.clone(), geometry.clone());
        let classic = ReliableSketch::with_geometry(config, geometry.clone());
        (atomic, classic)
    }

    fn twin_pair(
        geometry: &LayerGeometry,
        seed: u64,
    ) -> (ConcurrentReliable<u64>, ReliableSketch<u64>) {
        let config = ReliableConfig {
            memory_bytes: geometry.total_buckets() * ATOMIC_BUCKET_BYTES,
            lambda: geometry.total_lambda().max(1),
            depth: Depth::Fixed(geometry.depth()),
            mice_filter: None,
            emergency: EmergencyPolicy::ExactTable,
            seed,
            ..Default::default()
        };
        let atomic = ConcurrentReliable::with_geometry(config.clone(), geometry.clone());
        let classic = ReliableSketch::with_geometry(config, geometry.clone());
        (atomic, classic)
    }

    #[test]
    fn single_thread_equals_classic_sketch() {
        let geometry = LayerGeometry::derive(2_000, 25, 2.0, 2.5, Depth::Auto);
        let (atomic, mut classic) = twin_pair(&geometry, 9);
        let items: Vec<(u64, u64)> = (0..40_000u64).map(|i| (i % 1_111, 1 + i % 3)).collect();
        for &(k, v) in &items {
            atomic.insert_concurrent(&k, v);
            classic.insert(&k, v);
        }
        for k in 0..1_111u64 {
            let a = atomic.query_with_error(&k);
            let c = rsk_api::ErrorSensing::query_with_error(&classic, &k);
            assert_eq!(
                (a.value, a.max_possible_error),
                (c.value, c.max_possible_error)
            );
        }
        assert_eq!(atomic.insertion_failures(), classic.insertion_failures());
    }

    #[test]
    fn insert_batch_equals_item_loop() {
        let geometry = LayerGeometry::derive(1_000, 25, 2.0, 2.5, Depth::Auto);
        let config = ReliableConfig {
            memory_bytes: geometry.total_buckets() * ATOMIC_BUCKET_BYTES,
            seed: 4,
            ..Default::default()
        };
        let batched = ConcurrentReliable::<u64>::with_geometry(config.clone(), geometry.clone());
        let looped = ConcurrentReliable::<u64>::with_geometry(config, geometry);
        let items: Vec<(u64, u64)> = (0..20_000u64).map(|i| (i % 500, 1 + i % 7)).collect();
        batched.insert_batch(&items);
        for &(k, v) in &items {
            looped.insert_concurrent(&k, v);
        }
        for k in 0..500u64 {
            assert_eq!(batched.query_with_error(&k), looped.query_with_error(&k));
        }
    }

    #[test]
    fn filtered_single_thread_equals_classic_sketch() {
        // the acceptance differential: the full filtered variant, one
        // producer, is query-equivalent to the filtered sequential sketch
        let geometry = LayerGeometry::derive(2_000, 22, 2.0, 2.5, Depth::Auto);
        let (atomic, mut classic) = twin_pair_with(
            &geometry,
            Some(MiceFilterConfig {
                counter_bits: 8,
                ..Default::default()
            }),
            31,
        );
        assert!(atomic.has_filter() && classic.has_filter());
        // heavy mouse tail plus a few elephants: both sides of the filter
        // boundary are exercised
        let items: Vec<(u64, u64)> = (0..60_000u64)
            .map(|i| {
                if i % 5 == 0 {
                    (i % 40, 3)
                } else {
                    (1_000 + i % 9_000, 1)
                }
            })
            .collect();
        for &(k, v) in &items {
            atomic.insert_concurrent(&k, v);
            classic.insert(&k, v);
        }
        for k in (0..40u64).chain(1_000..10_000) {
            let a = atomic.query_with_error(&k);
            let c = rsk_api::ErrorSensing::query_with_error(&classic, &k);
            assert_eq!(
                (a.value, a.max_possible_error),
                (c.value, c.max_possible_error),
                "filtered divergence at key {k}"
            );
        }
        assert_eq!(atomic.insertion_failures(), classic.insertion_failures());
        assert_eq!(atomic.mpe_ceiling(), classic.mpe_ceiling());
    }

    #[test]
    fn filtered_contention_keeps_the_guarantee() {
        // 8 producers hammer the same mice keys through the shared-`&self`
        // path: every certified interval holds the truth, and the MPE
        // ceiling survives any interleaving.
        let sk = ConcurrentReliable::<u64>::new(ReliableConfig {
            memory_bytes: 256 * 1024,
            emergency: EmergencyPolicy::ExactTable,
            seed: 41,
            ..Default::default()
        });
        assert!(sk.has_filter());
        let (threads, per_thread, keys) = (8u64, 8_000u64, 500u64);
        std::thread::scope(|s| {
            for t in 0..threads {
                let sk = &sk;
                s.spawn(move || {
                    for i in 0..per_thread {
                        sk.insert_concurrent(&((t + i) % keys), 1 + i % 2);
                    }
                });
            }
        });
        assert_eq!(sk.insertion_failures(), 0);
        // every key's true mass: each thread contributes per_thread/keys
        // values from the 1,2 cycle — recompute exactly
        let mut truth = vec![0u64; keys as usize];
        for t in 0..threads {
            for i in 0..per_thread {
                truth[((t + i) % keys) as usize] += 1 + i % 2;
            }
        }
        for (k, &f) in truth.iter().enumerate() {
            let est = sk.query_with_error(&(k as u64));
            assert!(est.contains(f), "key {k}: truth {f} ∉ {est:?}");
            assert!(est.max_possible_error <= sk.mpe_ceiling());
        }
    }

    #[test]
    fn concurrent_inserts_keep_the_guarantee() {
        // raw variant: the bucket CAS path alone is strictly linearizable
        // — no undershoot under any contention
        let sk = ConcurrentReliable::<u64>::new(ReliableConfig {
            memory_bytes: 256 * 1024,
            mice_filter: None,
            emergency: EmergencyPolicy::ExactTable,
            seed: 3,
            ..Default::default()
        });
        let n_threads = 8u64;
        let per_thread = 20_000u64;
        std::thread::scope(|s| {
            for t in 0..n_threads {
                let sk = &sk;
                s.spawn(move || {
                    for i in 0..per_thread {
                        sk.insert_concurrent(&((t * per_thread + i) % 2_000), 1);
                    }
                });
            }
        });
        let total = n_threads * per_thread;
        let mut recovered = 0u64;
        for k in 0..2_000u64 {
            let est = sk.query_with_error(&k);
            let truth = total / 2_000;
            assert!(est.value >= truth, "undershoot at {k}: {est:?}");
            assert!(est.max_possible_error <= 25, "MPE blew past Λ at {k}");
            assert!(est.contains(truth), "key {k}: {truth} ∉ {est:?}");
            recovered += est.value - est.max_possible_error.min(est.value);
        }
        assert!(recovered <= total, "lower bounds must not exceed the mass");
    }

    /// Two writers, released by a barrier, race 6 shared keys into a
    /// 1 MB sketch whose 4-slot top-K layer is always full. Racing one
    /// claim can count an update in both the claim's seed and an offer,
    /// so a summary's `count − error` can pass the truth; every reported
    /// entry must still contain its truth, and every key above the
    /// guaranteed floor must be reported. Raw and filtered, unit and
    /// ×1 000 values, 50 seeds each, alone and on a window rotated
    /// between the halves.
    #[test]
    fn racing_writers_keep_top_k_entries_certified() {
        use crate::epoch::EpochedConcurrent;
        const KEYS: u64 = 6;
        const PER_WRITER: u64 = 2_000;
        fn value(t: u64, i: u64, scale: u64) -> u64 {
            (1 + (i + t) % 5) * scale
        }
        fn race(items: std::ops::Range<u64>, scale: u64, insert: impl Fn(u64, u64) + Sync) {
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                for t in 0..2 {
                    let (barrier, insert, items) = (&barrier, &insert, items.clone());
                    s.spawn(move || {
                        barrier.wait();
                        for i in items {
                            insert(i % KEYS, value(t, i, scale));
                        }
                    });
                }
            });
        }
        fn check(top: &CertifiedTopK<u64>, truth: &[u64], what: &str) {
            assert_eq!(top.entries.len(), 4, "{what}: a full layer reports 4");
            for e in &top.entries {
                let f = truth[e.key as usize];
                assert!(e.contains(f), "{what}: key {} truth {f} ∉ {e:?}", e.key);
            }
            let floor = top.guaranteed_floor();
            for (k, &f) in (0u64..).zip(truth) {
                let reported = top.entries.iter().any(|e| e.key == k);
                assert!(
                    reported || f <= floor,
                    "{what}: key {k} ({f}) over {floor} missed"
                );
            }
        }
        for scale in [1, 1_000] {
            let mut truth = [0u64; KEYS as usize];
            for t in 0..2 {
                for i in 0..PER_WRITER {
                    truth[(i % KEYS) as usize] += value(t, i, scale);
                }
            }
            for raw in [true, false] {
                for seed in 0..50 {
                    let mut config = ReliableConfig::builder().memory_bytes(1 << 20).seed(seed);
                    if raw {
                        config = config.raw();
                    }
                    let config = config.config();
                    let what = format!("scale {scale}, raw {raw}, seed {seed}");
                    let sk = ConcurrentReliable::<u64>::new(config.clone()).with_top_k(4);
                    race(0..PER_WRITER, scale, |k, v| sk.insert_concurrent(&k, v));
                    check(&sk.certified_top_k(4), &truth, &what);

                    let mut window = EpochedConcurrent::<u64>::new(config).with_top_k(4);
                    race(0..PER_WRITER / 2, scale, |k, v| window.insert_shared(&k, v));
                    window.rotate();
                    race(PER_WRITER / 2..PER_WRITER, scale, |k, v| {
                        window.insert_shared(&k, v)
                    });
                    check(
                        &window.certified_top_k(4),
                        &truth,
                        &format!("window, {what}"),
                    );
                }
            }
        }
    }

    #[test]
    fn clear_resets_everything() {
        let mut sk = ConcurrentReliable::<u64>::new(ReliableConfig {
            memory_bytes: 16 * 1024,
            seed: 5,
            ..Default::default()
        });
        for i in 0..5_000u64 {
            sk.insert_concurrent(&(i % 100), 2);
        }
        Clear::clear(&mut sk);
        for k in 0..100u64 {
            assert_eq!(sk.query_with_error(&k).value, 0);
        }
        assert_eq!(sk.insertion_failures(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Single-threaded, the atomic path is bit-for-bit the classic
        /// sketch (same geometry, seed and emergency policy) on arbitrary
        /// streams, with and without the mice filter — fingerprint
        /// collisions aside, which the key range here makes vanishingly
        /// unlikely.
        #[test]
        fn prop_atomic_equals_classic(
            ops in proptest::collection::vec((0u64..300, 1u64..8), 1..1500),
            seed in 0u64..32,
            filtered in proptest::bool::ANY,
        ) {
            let geometry = LayerGeometry::derive(256, 25, 2.0, 2.5, Depth::Fixed(5));
            let filter = filtered.then(|| MiceFilterConfig {
                counter_bits: 8,
                ..Default::default()
            });
            let (atomic, mut classic) = twin_pair_with(&geometry, filter, seed);
            for &(k, v) in &ops {
                atomic.insert_concurrent(&k, v);
                classic.insert(&k, v);
            }
            for k in 0..300u64 {
                let a = atomic.query_with_error(&k);
                let c = rsk_api::ErrorSensing::query_with_error(&classic, &k);
                prop_assert_eq!((a.value, a.max_possible_error), (c.value, c.max_possible_error), "key {}", k);
            }
        }

        /// The packed-word lock invariant: NO never exceeds λ after any
        /// step, and value is conserved on every step, saturating ones
        /// included (absorbed + leftover + clipped = inserted). Weights
        /// scaled by 2²⁴ reach the 2²⁸ count ceiling within a few steps.
        #[test]
        fn prop_step_word_invariants(
            ops in proptest::collection::vec((0u64..6, 1u64..40, proptest::bool::ANY), 1..200),
            lambda in 0u64..64,
        ) {
            let mut w = 0u64;
            for (fp, v, heavy) in ops {
                let v = if heavy { v << 24 } else { v };
                let (yes0, no0) = { let (_, y, n) = unpack(w, lambda); (y, n) };
                let (next, left, clipped) = step_word(w, fp, v, lambda);
                let (_, yes1, no1) = unpack(next, lambda);
                prop_assert!(no1 <= lambda.max(no0), "NO {} above λ {}", no1, lambda);
                prop_assert!(yes1 >= no1 || no1 <= lambda);
                prop_assert!(clipped == 0 || left == 0, "a clipping step diverted value");
                prop_assert_eq!(
                    yes1 + no1 + left + clipped,
                    yes0 + no0 + v,
                    "value not conserved"
                );
                w = next;
            }
        }
    }
}
