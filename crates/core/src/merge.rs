//! Merging ReliableSketches — the distributed-aggregation extension.
//!
//! Network-wide measurement (the deployment the paper's Tofino/FPGA
//! sections target) naturally shards a stream across devices or cores:
//! each shard summarizes its slice, a collector folds the shards into one
//! summary. Linear sketches (CM, Count) merge by adding counters;
//! election-based structures like ReliableSketch need more care, because a
//! bucket's `ID/YES/NO` triple is the outcome of a *local* election and
//! two shards may have elected different candidates.
//!
//! This module implements [`rsk_api::Merge`] for
//! [`ReliableSketch`] under the precondition that
//! both instances share an identical configuration (hence identical layer
//! geometry and hash seeds — bucket `(i, j)` observed the same key
//! population in every shard).
//!
//! ## What is preserved, and what is not
//!
//! * **Preserved — certified intervals.** For every key `e`, the merged
//!   sketch answers `f̂(e)` with `f(e) ∈ [f̂(e) − MPE, f̂(e)]`, where `f`
//!   is the sum over *both* input streams. This is the property that
//!   makes ReliableSketch "reliable", and it survives merging.
//! * **Relaxed — the a-priori `MPE ≤ Λ` ceiling.** Two shards can elect
//!   different heavy candidates into the same bucket; the merged bucket
//!   must honestly report that ambiguity as error, which can exceed the
//!   per-shard lock threshold. The error stays *sensed* (the MPE says how
//!   bad it is) but is no longer capped by `Λ` in the worst case. A
//!   merged sketch reports [`is_merged() ==
//!   true`](crate::ReliableSketch::is_merged).
//!
//! ## How soundness is kept
//!
//! Two mechanisms, mirroring the two places a per-shard argument uses
//! local history:
//!
//! 1. **Bucket union rule** ([`EsBucket::merge_union`](crate::EsBucket::merge_union)):
//!    per-bucket fields are combined so that all three §3.1 contract
//!    clauses hold against the *combined* per-bucket masses. See the
//!    method docs for the case analysis.
//! 2. **Divert hints.** A per-shard query may stop early ("this bucket is
//!    unlocked / replaceable / mine, so the key never went deeper") —
//!    inferences that are only valid against that shard's history. Any
//!    bucket that was locked in *either* shard may have diverted keys
//!    deeper in that shard, so the merged sketch flags it, and flagged
//!    buckets never satisfy a stop condition: merged queries keep walking
//!    down and pick the diverted mass back up from the (also merged)
//!    deeper buckets. Flagging is conservative — the indicator
//!    `YES > NO ∧ NO ⩾ λᵢ` is implied by every lock — costing only
//!    tightness, never soundness.
//!
//! Top-K layers ([`crate::topk::TopKSummary`]) union key-wise: keys
//! monitored on both sides sum counts and errors, keys monitored on one
//! side are charged the other side's miss bound on both fields, and
//! truncation back to capacity raises the miss bound — every surviving
//! entry stays certified against the *combined* stream. Presence and
//! capacity of the layer are checked before any operand is touched
//! (the layer is a builder sidecar, so config equality cannot vouch for
//! it).
//!
//! The mice filters add counter-wise without re-capping (each shard's
//! counter upper-bounds that shard's absorbed mass), and emergency stores
//! merge policy-wise; see
//! [`MiceFilter::merge_from`](crate::filter::MiceFilter::merge_from) and
//! [`EmergencyStore::merge_from`](crate::emergency::EmergencyStore::merge_from).
//! Every flavour holds the same [`MiceFilter`], so sequential and
//! concurrent operands fold their filters alike.
//!
//! ## Concurrent operands
//!
//! The same machinery serves the lock-free types: every operand is one
//! crate-private bucket-grid type, `Layers`, in fingerprint space. A
//! [`ConcurrentReliable`] reads its packed `AtomicU64` words out into
//! [`EsBucket<u64>`](crate::EsBucket) layers, and a sequential twin maps
//! its candidate keys to the same per-layer fingerprints. The collector
//! seals its own words into a merged overlay (merged `NO` fields can
//! exceed the packed word's error field, so the union cannot live in the
//! atomic words) and unions each operand into it by exactly the rule the
//! sequential impl uses. Post-merge insertions keep flowing lock-free
//! into the (zeroed) atomic words; queries walk overlay + live words like
//! two epoch generations. Three aggregation shapes are supported; the
//! first and third fold one peer view through one code path:
//!
//! * `conc.merge(&conc)` — [`rsk_api::Merge`] for [`ConcurrentReliable`];
//! * `sharded.merge(&sharded)` — shard-wise, for
//!   [`crate::concurrent::ShardedReliable`] pairs built
//!   from the same configuration;
//! * [`ConcurrentReliable::merge_from_sequential`] — folds a sequential
//!   [`ReliableSketch`] twin (same config, same geometry) into a
//!   concurrent collector.
//!
//! Candidate identity in concurrent operands is the per-layer
//! fingerprint (32 bits, 24 at the widest threshold), so merging
//! inherits the atomic path's per-colliding-pair aliasing caveat;
//! aliasing only ever inflates estimates.
//!
//! ## Example
//!
//! ```
//! use rsk_core::{merge_all, ReliableSketch};
//! use rsk_api::{ErrorSensing, Merge, StreamSummary};
//!
//! let build = || {
//!     ReliableSketch::<u64>::builder()
//!         .memory_bytes(64 * 1024)
//!         .error_tolerance(25)
//!         .seed(7)
//!         .build_sequential::<u64>()
//! };
//! let mut shard_a = build();
//! let mut shard_b = build();
//! for i in 0..5_000u64 {
//!     shard_a.insert(&(i % 100), 1); // keys 0..100, 50 each
//!     shard_b.insert(&(i % 50), 1); // keys 0..50, 100 each
//! }
//! shard_a.merge(&shard_b).unwrap();
//! let est = shard_a.query_with_error(&7);
//! assert!(est.contains(150)); // 50 + 100, certified
//! assert!(shard_a.is_merged());
//! ```

use crate::atomic::{add_failures, fingerprint_layers, fp_seed_for, ConcurrentReliable};
use crate::bucket::Layers;
use crate::concurrent::ShardedReliable;
use crate::config::ReliableConfig;
use crate::emergency::EmergencyStore;
use crate::filter::MiceFilter;
use crate::geometry::LayerGeometry;
use crate::topk::TopKSummary;
use crate::ReliableSketch;
use rsk_api::{Key, Merge, MergeError};

/// Check top-K layer compatibility *before* any operand is mutated:
/// the layer is a builder sidecar (not part of [`ReliableConfig`]), so
/// config equality does not cover it. Presence must match (an operand
/// without a summary has unknown elephants — the union could not charge
/// its misses), and capacities must agree (the eviction floor argument
/// is per-capacity). Returns the summaries' shared capacity check as a
/// typed error; `Ok(())` when neither operand tracks top-K.
fn check_topk_compat<K: Key>(
    mine: Option<&TopKSummary<K>>,
    theirs: Option<&TopKSummary<K>>,
) -> Result<(), MergeError> {
    match (mine, theirs) {
        (Some(a), Some(b)) if a.capacity() != b.capacity() => {
            Err(MergeError::Incompatible("top-K capacity mismatch".into()))
        }
        (Some(_), Some(_)) | (None, None) => Ok(()),
        _ => Err(MergeError::Incompatible("top-K presence mismatch".into())),
    }
}

/// Classify a configuration mismatch: identical up to the seed means the
/// structures are congruent but hashed differently ([`SeedMismatch`]);
/// anything else changed the geometry or feature set ([`ShapeMismatch`]).
///
/// [`SeedMismatch`]: MergeError::SeedMismatch
/// [`ShapeMismatch`]: MergeError::ShapeMismatch
fn config_merge_error(mine: &ReliableConfig, theirs: &ReliableConfig) -> MergeError {
    let mut reseeded = mine.clone();
    reseeded.seed = theirs.seed;
    if reseeded == *theirs {
        MergeError::SeedMismatch
    } else {
        MergeError::ShapeMismatch
    }
}

/// Fold the peer's mice filter into `mine`. Both operands must carry one
/// (the merge checks shapes before touching a counter) or neither.
fn merge_filters(
    mine: Option<&mut MiceFilter>,
    theirs: Option<&MiceFilter>,
) -> Result<(), MergeError> {
    match (mine, theirs) {
        (Some(mine), Some(theirs)) => mine.merge_from(theirs),
        (None, None) => Ok(()),
        _ => Err(MergeError::Incompatible(
            "mice filter presence mismatch".into(),
        )),
    }
}

impl<K: Key> Merge for ReliableSketch<K> {
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.config() != other.config() {
            return Err(config_merge_error(self.config(), other.config()));
        }
        if self.geometry() != other.geometry() {
            return Err(MergeError::ShapeMismatch);
        }
        check_topk_compat(self.topk.as_ref(), other.topk.as_ref())?;
        merge_filters(self.filter.as_mut(), other.filter.as_ref())?;
        self.layers.union(&other.layers, other.geometry().lambdas());
        self.emergency.merge_from(&other.emergency)?;
        self.stats.absorb(&other.stats);
        if let (Some(mine), Some(theirs)) = (&mut self.topk, &other.topk) {
            mine.merge_from(theirs)?;
        }
        Ok(())
    }
}

/// What a lock-free collector folds in from one operand, in fingerprint
/// space: a [`ConcurrentReliable`] peer or a sequential twin.
struct Peer<'a, K: Key> {
    config: &'a ReliableConfig,
    geometry: &'a LayerGeometry,
    layers: Layers<u64>,
    filter: Option<&'a MiceFilter>,
    emergency: EmergencyStore<K>,
    failures: u64,
    /// `(retries, saturations)` for [`crate::atomic::AtomicStats`].
    stats: (u64, u64),
    topk: Option<TopKSummary<K>>,
}

impl<K: Key> ConcurrentReliable<K> {
    /// Fold `peer` into this sketch. Ordering matters for failure
    /// atomicity: every fallible check (configuration, geometry, top-K,
    /// filter presence and shape) runs *before*
    /// [`Self::seal_into_overlay`] zeroes the live words, so an error
    /// return leaves the sketch unsealed and `is_merged()` false. (The
    /// emergency merge after sealing can only fail on a policy mismatch,
    /// which config equality rules out.)
    fn fold(&mut self, peer: Peer<'_, K>) -> Result<(), MergeError> {
        if self.config() != peer.config {
            return Err(config_merge_error(self.config(), peer.config));
        }
        if self.geometry() != peer.geometry {
            return Err(MergeError::ShapeMismatch);
        }
        check_topk_compat(self.top_k_summary().as_ref(), peer.topk.as_ref())?;
        merge_filters(self.filter.as_mut(), peer.filter)?;
        self.seal_into_overlay();
        self.merged
            .as_mut()
            .expect("sealed above")
            .union(&peer.layers, peer.geometry.lambdas());
        self.emergency.lock().merge_from(&peer.emergency)?;
        add_failures(&self.failures, peer.failures);
        self.array.stats().absorb(peer.stats);
        if let (Some(mine), Some(theirs)) = (&self.topk, &peer.topk) {
            mine.lock().merge_from(theirs)?;
        }
        Ok(())
    }

    /// Fold a *sequential* [`ReliableSketch`] twin (same configuration,
    /// same explicit geometry — build both via `with_geometry`) into this
    /// concurrent collector: candidate keys map to the fingerprints
    /// their layers store, then the ordinary union machinery applies.
    /// This is the mixed-deployment aggregation path — e.g. edge devices
    /// running the sequential sketch, a multi-core collector running the
    /// atomic one.
    ///
    /// # Errors
    /// Rejects mismatched configurations, geometries, or filter shapes
    /// with the [`MergeError`] naming the violated precondition.
    pub fn merge_from_sequential(&mut self, other: &ReliableSketch<K>) -> Result<(), MergeError> {
        let fp_seed = fp_seed_for(other.config().seed);
        self.fold(Peer {
            config: other.config(),
            geometry: other.geometry(),
            layers: fingerprint_layers(&other.layers, other.geometry().lambdas(), fp_seed),
            filter: other.filter.as_ref(),
            emergency: other.emergency.clone(),
            failures: other.insertion_failures(),
            stats: (0, 0),
            topk: other.topk.clone(),
        })
    }
}

impl<K: Key> Merge for ConcurrentReliable<K> {
    /// Fold another lock-free sketch (identical configuration, hence
    /// identical geometry, fingerprint seed and filter shape) into this
    /// one. Both operands' packed words are read out into fingerprint-
    /// space [`crate::EsBucket`] unions held in a sealed overlay; this
    /// sketch's atomic words are zeroed and keep absorbing post-merge
    /// insertions lock-free. Mice filters add counter-wise (lanes widen
    /// so the uncapped sums fit), emergency stores merge policy-wise.
    ///
    /// Merging is an exclusive (`&mut`) operation: quiesce producers
    /// first, exactly as for [`crate::epoch::EpochedConcurrent::rotate`].
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        let stats = other.array.stats();
        self.fold(Peer {
            config: other.config(),
            geometry: other.geometry(),
            layers: other.effective_layers(),
            filter: other.filter.as_ref(),
            emergency: other.peer_emergency(),
            failures: other.insertion_failures(),
            stats: (stats.retries(), stats.saturations()),
            topk: other.top_k_summary(),
        })
    }
}

impl<K: Key> Merge for ShardedReliable<K> {
    /// Shard-wise merge: both sketches must have been built from the same
    /// configuration and shard count (which pins the router seed and every
    /// per-shard seed, so shard `i` observed the same key population in
    /// both operands).
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.shards() != other.shards() {
            return Err(MergeError::ShapeMismatch);
        }
        if self.router_seed() != other.router_seed() {
            return Err(MergeError::SeedMismatch);
        }
        for i in 0..self.shards() {
            let theirs = other.shard(i);
            self.shard_mut(i).merge(theirs)?;
        }
        Ok(())
    }
}

/// Fold an iterator of identically configured shards into one sketch.
///
/// Convenience wrapper over repeated [`Merge::merge`]; the first shard
/// becomes the accumulator.
///
/// # Errors
/// Propagates any pairwise [`MergeError`], and rejects an empty iterator
/// as [`MergeError::Incompatible`].
pub fn merge_all<K: Key>(
    shards: impl IntoIterator<Item = ReliableSketch<K>>,
) -> Result<ReliableSketch<K>, MergeError> {
    let mut iter = shards.into_iter();
    let mut acc = iter
        .next()
        .ok_or_else(|| MergeError::Incompatible("no shards to merge".into()))?;
    for shard in iter {
        acc.merge(&shard)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Depth, EmergencyPolicy, ReliableConfig, BUCKET_BYTES};
    use crate::geometry::LayerGeometry;
    use proptest::prelude::*;
    use rsk_api::{Clear, ErrorSensing, StreamSummary};
    use std::collections::HashMap;

    fn shard(seed: u64) -> ReliableSketch<u64> {
        ReliableSketch::<u64>::builder()
            .memory_bytes(32 * 1024)
            .error_tolerance(25)
            .emergency(EmergencyPolicy::ExactTable)
            .seed(seed)
            .build_sequential()
    }

    #[test]
    fn merge_rejects_config_mismatch() {
        let mut a = shard(1);
        assert!(a.merge(&shard(2)).is_err(), "different seeds must fail");

        let b: ReliableSketch<u64> = ReliableSketch::<u64>::builder()
            .memory_bytes(64 * 1024)
            .error_tolerance(25)
            .emergency(EmergencyPolicy::ExactTable)
            .seed(1)
            .build_sequential();
        assert!(a.merge(&b).is_err(), "different memory must fail");

        let c: ReliableSketch<u64> = ReliableSketch::<u64>::builder()
            .memory_bytes(32 * 1024)
            .error_tolerance(50)
            .emergency(EmergencyPolicy::ExactTable)
            .seed(1)
            .build_sequential();
        assert!(a.merge(&c).is_err(), "different Λ must fail");
    }

    #[test]
    fn merge_rejects_filter_presence_mismatch() {
        // same config except the mice filter — config inequality catches it
        let mut a = shard(1);
        let raw: ReliableSketch<u64> = ReliableSketch::<u64>::builder()
            .memory_bytes(32 * 1024)
            .error_tolerance(25)
            .emergency(EmergencyPolicy::ExactTable)
            .raw()
            .seed(1)
            .build_sequential();
        assert!(a.merge(&raw).is_err());
    }

    #[test]
    fn merging_empty_shard_changes_nothing() {
        let mut a = shard(3);
        for i in 0..2000u64 {
            a.insert(&(i % 80), 1);
        }
        let before: Vec<_> = (0..80u64).map(|k| a.query_with_error(&k)).collect();
        a.merge(&shard(3)).unwrap();
        assert!(a.is_merged());
        for (k, prev) in (0..80u64).zip(before) {
            let now = a.query_with_error(&k);
            assert_eq!(now.value, prev.value, "key {k} answer changed");
            assert!(now.max_possible_error >= prev.max_possible_error);
        }
    }

    #[test]
    fn split_stream_merge_is_sound_for_all_keys() {
        let mut a = shard(4);
        let mut b = shard(4);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for i in 0..30_000u64 {
            let k = i % 500;
            let v = 1 + k % 3;
            if i % 2 == 0 {
                a.insert(&k, v);
            } else {
                b.insert(&k, v);
            }
            *truth.entry(k).or_insert(0) += v;
        }
        a.merge(&b).unwrap();
        for (&k, &f) in &truth {
            let est = a.query_with_error(&k);
            assert!(est.contains(f), "key {k}: {f} ∉ {est:?}");
        }
        // the combined operation history is reported
        assert_eq!(a.stats().inserts(), 30_000);
    }

    /// The adversarial corner the divert hints exist for: both shards lock
    /// the same bucket around *different* heavy candidates, and mice keys
    /// divert deeper in one shard. Forced via a single-bucket custom
    /// geometry so all keys collide.
    #[test]
    fn both_locked_different_candidates_stays_sound() {
        let config = ReliableConfig {
            memory_bytes: 3 * BUCKET_BYTES,
            lambda: 10,
            r_w: 2.0,
            r_lambda: 2.0,
            depth: Depth::Fixed(3),
            mice_filter: None,
            emergency: EmergencyPolicy::ExactTable,
            seed: 9,
        };
        let geometry = LayerGeometry::custom(vec![1, 1, 1], vec![5, 3, 2]).unwrap();
        let build = || ReliableSketch::with_geometry(config.clone(), geometry.clone());

        let (heavy_a, heavy_b) = (111u64, 222u64);
        let mut a = build();
        let mut b = build();
        let mut truth: HashMap<u64, u64> = HashMap::new();

        // shard A: elect heavy_a, then lock layer 1 with mice traffic
        a.insert(&heavy_a, 100);
        *truth.entry(heavy_a).or_insert(0) += 100;
        // shard B: elect heavy_b
        b.insert(&heavy_b, 80);
        *truth.entry(heavy_b).or_insert(0) += 80;
        for m in 0..30u64 {
            let mouse = 1000 + m;
            a.insert(&mouse, 1);
            b.insert(&mouse, 1);
            *truth.entry(mouse).or_insert(0) += 2;
        }

        a.merge(&b).unwrap();
        for (&k, &f) in &truth {
            let est = a.query_with_error(&k);
            assert!(est.contains(f), "key {k}: {f} ∉ {est:?}");
        }
    }

    #[test]
    fn post_merge_insertion_remains_sound() {
        let mut a = shard(5);
        let mut b = shard(5);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for i in 0..10_000u64 {
            let k = i % 300;
            if i % 2 == 0 {
                a.insert(&k, 1);
            } else {
                b.insert(&k, 1);
            }
            *truth.entry(k).or_insert(0) += 1;
        }
        a.merge(&b).unwrap();
        // keep streaming into the merged sketch
        for i in 0..10_000u64 {
            let k = i % 300;
            a.insert(&k, 2);
            *truth.entry(k).or_insert(0) += 2;
        }
        for (&k, &f) in &truth {
            let est = a.query_with_error(&k);
            assert!(est.contains(f), "key {k}: {f} ∉ {est:?}");
        }
    }

    #[test]
    fn merge_all_folds_many_shards() {
        let shards: Vec<ReliableSketch<u64>> = (0..4)
            .map(|s| {
                let mut sk = shard(6);
                for i in 0..5_000u64 {
                    sk.insert(&((i + s * 13) % 200), 1);
                }
                sk
            })
            .collect();
        let merged = merge_all(shards).unwrap();
        assert!(merged.is_merged());
        assert_eq!(merged.stats().inserts(), 20_000);
        // every key got 25 per shard per residue class; spot-check bounds
        for k in 0..200u64 {
            let est = merged.query_with_error(&k);
            assert!(est.value >= 25, "key {k} undershoots: {est:?}");
        }
    }

    #[test]
    fn merge_all_rejects_empty() {
        assert!(merge_all(Vec::<ReliableSketch<u64>>::new()).is_err());
    }

    #[test]
    fn clear_resets_merged_flag() {
        let mut a = shard(7);
        a.merge(&shard(7)).unwrap();
        assert!(a.is_merged());
        Clear::clear(&mut a);
        assert!(!a.is_merged());
    }

    // ---- concurrent operands ----

    fn conc_config(seed: u64) -> ReliableConfig {
        ReliableConfig {
            memory_bytes: 32 * 1024,
            lambda: 25,
            emergency: EmergencyPolicy::ExactTable,
            seed,
            ..Default::default()
        }
    }

    fn conc_shard(seed: u64) -> crate::atomic::ConcurrentReliable<u64> {
        crate::atomic::ConcurrentReliable::new(conc_config(seed))
    }

    #[test]
    fn concurrent_merge_rejects_mismatches() {
        let mut a = conc_shard(1);
        assert!(
            a.merge(&conc_shard(2)).is_err(),
            "different seeds must fail"
        );
        let bigger = crate::atomic::ConcurrentReliable::<u64>::new(ReliableConfig {
            memory_bytes: 64 * 1024,
            ..conc_config(1)
        });
        assert!(a.merge(&bigger).is_err(), "different memory must fail");
        let raw = crate::atomic::ConcurrentReliable::<u64>::new(ReliableConfig {
            mice_filter: None,
            ..conc_config(1)
        });
        assert!(a.merge(&raw).is_err(), "filter presence must fail");
    }

    #[test]
    fn concurrent_split_stream_merge_is_sound() {
        // filtered lock-free shards over a split stream: the merged
        // intervals must contain the combined truth for every key
        let mut a = conc_shard(4);
        let b = conc_shard(4);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for i in 0..30_000u64 {
            let k = i % 500;
            let v = 1 + k % 3;
            if i % 2 == 0 {
                a.insert_concurrent(&k, v);
            } else {
                b.insert_concurrent(&k, v);
            }
            *truth.entry(k).or_insert(0) += v;
        }
        a.merge(&b).unwrap();
        assert!(a.is_merged());
        for (&k, &f) in &truth {
            let est = a.query_with_error(&k);
            assert!(est.contains(f), "key {k}: {f} ∉ {est:?}");
        }
    }

    #[test]
    fn concurrent_post_merge_insertion_remains_sound() {
        let mut a = conc_shard(5);
        let b = conc_shard(5);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for i in 0..10_000u64 {
            let k = i % 300;
            if i % 2 == 0 {
                a.insert_concurrent(&k, 1);
            } else {
                b.insert_concurrent(&k, 1);
            }
            *truth.entry(k).or_insert(0) += 1;
        }
        a.merge(&b).unwrap();
        // keep streaming into the merged sketch — lock-free, from threads
        std::thread::scope(|s| {
            for _ in 0..2 {
                let a = &a;
                s.spawn(move || {
                    for i in 0..5_000u64 {
                        a.insert_concurrent(&(i % 300), 2);
                    }
                });
            }
        });
        for i in 0..5_000u64 {
            *truth.entry(i % 300).or_insert(0) += 4;
        }
        for (&k, &f) in &truth {
            let est = a.query_with_error(&k);
            assert!(est.contains(f), "key {k}: {f} ∉ {est:?}");
        }
    }

    #[test]
    fn sequential_folds_into_concurrent_collector() {
        // the mixed-deployment path: a sequential edge sketch and a
        // concurrent collector twin (same config, same geometry), merged,
        // must certify the combined stream — and agree with a single
        // sketch that replayed everything, up to the union's extra
        // (honestly reported) ambiguity
        let config = conc_config(6);
        let geometry = LayerGeometry::derive(
            config.layer_bytes() / crate::atomic::ATOMIC_BUCKET_BYTES,
            config.layer_lambda(),
            config.r_w,
            config.r_lambda,
            config.depth,
        );
        let mut seq = ReliableSketch::<u64>::with_geometry(config.clone(), geometry.clone());
        let mut conc = crate::atomic::ConcurrentReliable::<u64>::with_geometry(
            config.clone(),
            geometry.clone(),
        );
        let replay = crate::atomic::ConcurrentReliable::<u64>::with_geometry(config, geometry);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for i in 0..20_000u64 {
            let k = i % 400;
            let v = 1 + k % 4;
            if i % 2 == 0 {
                seq.insert(&k, v);
            } else {
                conc.insert_concurrent(&k, v);
            }
            replay.insert_concurrent(&k, v);
            *truth.entry(k).or_insert(0) += v;
        }
        conc.merge_from_sequential(&seq).unwrap();
        assert!(conc.is_merged());
        for (&k, &f) in &truth {
            let est = conc.query_with_error(&k);
            let rep = replay.query_with_error(&k);
            assert!(est.contains(f), "key {k}: {f} ∉ {est:?}");
            assert!(rep.contains(f), "key {k}: replay lost {f}");
            assert!(
                est.value >= rep.lower_bound(),
                "key {k}: merged answer below the replay's certified floor"
            );
        }
        assert_eq!(conc.insertion_failures(), 0);
    }

    #[test]
    fn mixed_merge_orders_agree_and_stay_sound() {
        // merge "associativity" on the soundness level: folding three
        // operands (two concurrent, one sequential) in different orders
        // yields certified intervals for the combined truth either way.
        // (Bit-identical answers across orders are not promised: divert
        // hints are computed on intermediate unions, so different fold
        // orders may report different, equally honest MPEs.)
        let config = conc_config(7);
        let geometry = LayerGeometry::derive(
            config.layer_bytes() / crate::atomic::ATOMIC_BUCKET_BYTES,
            config.layer_lambda(),
            config.r_w,
            config.r_lambda,
            config.depth,
        );
        let build_conc = || {
            crate::atomic::ConcurrentReliable::<u64>::with_geometry(
                config.clone(),
                geometry.clone(),
            )
        };
        let build_seq = || ReliableSketch::<u64>::with_geometry(config.clone(), geometry.clone());

        let mut truth: HashMap<u64, u64> = HashMap::new();
        let (mut a1, mut a2) = (build_conc(), build_conc());
        let (b1, b2) = (build_conc(), build_conc());
        let (mut s1, mut s2) = (build_seq(), build_seq());
        for i in 0..15_000u64 {
            let k = i % 350;
            let v = 1 + k % 2;
            match i % 3 {
                0 => {
                    a1.insert_concurrent(&k, v);
                    a2.insert_concurrent(&k, v);
                }
                1 => {
                    b1.insert_concurrent(&k, v);
                    b2.insert_concurrent(&k, v);
                }
                _ => {
                    s1.insert(&k, v);
                    s2.insert(&k, v);
                }
            }
            *truth.entry(k).or_insert(0) += v;
        }
        // order 1: (a ∪ b) ∪ seq ; order 2: (a ∪ seq) ∪ b
        a1.merge(&b1).unwrap();
        a1.merge_from_sequential(&s1).unwrap();
        a2.merge_from_sequential(&s2).unwrap();
        a2.merge(&b2).unwrap();
        for (&k, &f) in &truth {
            let e1 = a1.query_with_error(&k);
            let e2 = a2.query_with_error(&k);
            assert!(e1.contains(f), "order 1, key {k}: {f} ∉ {e1:?}");
            assert!(e2.contains(f), "order 2, key {k}: {f} ∉ {e2:?}");
        }
    }

    #[test]
    fn sharded_merge_is_shard_wise_and_checked() {
        use crate::concurrent::ShardedReliable;
        let config = conc_config(8);
        let mut a = ShardedReliable::<u64>::new(config.clone(), 4);
        let b = ShardedReliable::<u64>::new(config.clone(), 4);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for i in 0..40_000u64 {
            let k = i % 900;
            if i % 2 == 0 {
                a.insert_shared(&k, 1);
            } else {
                b.insert_shared(&k, 1);
            }
            *truth.entry(k).or_insert(0) += 1;
        }
        a.merge(&b).unwrap();
        for (&k, &f) in &truth {
            let est = a.query_shared(&k);
            assert!(est.contains(f), "key {k}: {f} ∉ {est:?}");
        }

        let wrong_count = ShardedReliable::<u64>::new(config, 8);
        assert!(a.merge(&wrong_count).is_err());
        let wrong_seed = ShardedReliable::<u64>::new(conc_config(9), 4);
        assert!(a.merge(&wrong_seed).is_err());
    }

    #[test]
    fn merged_top_k_certifies_combined_elephants() {
        use rsk_api::TopK;
        let mut a = shard(11).with_top_k(8);
        let mut b = shard(11).with_top_k(8);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        // shared mice noise plus disjoint elephants per shard
        for i in 0..4_000u64 {
            let k = i % 400;
            a.insert(&k, 1);
            b.insert(&k, 1);
            *truth.entry(k).or_insert(0) += 2;
        }
        for _ in 0..3_000 {
            a.insert(&9001, 1);
            *truth.entry(9001).or_insert(0) += 1;
        }
        for _ in 0..2_000 {
            b.insert(&9002, 1);
            *truth.entry(9002).or_insert(0) += 1;
        }
        a.merge(&b).unwrap();
        let top = a.certified_top_k(2);
        let keys: Vec<u64> = top.entries.iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![9001, 9002]);
        for e in &top.entries {
            assert!(
                e.contains(truth[&e.key]),
                "key {}: {} ∉ [{}, {}]",
                e.key,
                truth[&e.key],
                e.lower_bound(),
                e.count
            );
        }
    }

    #[test]
    fn merge_rejects_top_k_mismatch_before_mutating() {
        use rsk_api::TopK;
        let mut a = shard(12).with_top_k(8);
        a.insert(&1, 500);
        let before = a.certified_top_k(1);

        // presence mismatch: peer has no layer
        let plain = shard(12);
        assert!(matches!(a.merge(&plain), Err(MergeError::Incompatible(_))));
        // capacity mismatch
        let narrow = shard(12).with_top_k(4);
        assert!(matches!(a.merge(&narrow), Err(MergeError::Incompatible(_))));
        // a failed merge left the sketch untouched
        assert!(!a.is_merged());
        assert_eq!(a.certified_top_k(1), before);

        // concurrent twin rejects the same way, before sealing
        let mut ca = conc_shard(12);
        ca.enable_top_k(8);
        assert!(ca.merge(&conc_shard(12)).is_err());
        assert!(!ca.is_merged());
        let seq_plain = ReliableSketch::<u64>::new(conc_config(12));
        assert!(ca.merge_from_sequential(&seq_plain).is_err());
        assert!(!ca.is_merged());
    }

    #[test]
    fn concurrent_and_mixed_merges_union_top_k() {
        use rsk_api::TopK;
        let config = conc_config(13);
        let geometry = LayerGeometry::derive(
            config.layer_bytes() / crate::atomic::ATOMIC_BUCKET_BYTES,
            config.layer_lambda(),
            config.r_w,
            config.r_lambda,
            config.depth,
        );
        let mut collector = crate::atomic::ConcurrentReliable::<u64>::with_geometry(
            config.clone(),
            geometry.clone(),
        )
        .with_top_k(8);
        let peer = crate::atomic::ConcurrentReliable::<u64>::with_geometry(
            config.clone(),
            geometry.clone(),
        )
        .with_top_k(8);
        let mut edge = ReliableSketch::<u64>::with_geometry(config, geometry).with_top_k(8);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for i in 0..3_000u64 {
            let k = i % 300;
            collector.insert_concurrent(&k, 1);
            peer.insert_concurrent(&k, 1);
            edge.insert(&k, 1);
            *truth.entry(k).or_insert(0) += 3;
        }
        for _ in 0..2_000 {
            peer.insert_concurrent(&7001, 1);
            *truth.entry(7001).or_insert(0) += 1;
        }
        for _ in 0..1_500 {
            edge.insert(&7002, 1);
            *truth.entry(7002).or_insert(0) += 1;
        }
        collector.merge(&peer).unwrap();
        collector.merge_from_sequential(&edge).unwrap();
        let top = collector.certified_top_k(2);
        let keys: Vec<u64> = top.entries.iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![7001, 7002]);
        for e in &top.entries {
            assert!(
                e.contains(truth[&e.key]),
                "key {}: {} ∉ [{}, {}]",
                e.key,
                truth[&e.key],
                e.lower_bound(),
                e.count
            );
        }
    }

    #[test]
    fn concurrent_clear_resets_merged_state() {
        let mut a = conc_shard(10);
        for i in 0..2_000u64 {
            a.insert_concurrent(&(i % 50), 1);
        }
        a.merge(&conc_shard(10)).unwrap();
        assert!(a.is_merged());
        Clear::clear(&mut a);
        assert!(!a.is_merged());
        for k in 0..50u64 {
            assert_eq!(a.query_with_error(&k).value, 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Certified intervals survive merging: any stream, any 3-way shard
        /// assignment, every key's combined truth is inside the merged
        /// interval (exact emergency tables make the contract
        /// unconditional).
        #[test]
        fn prop_merged_intervals_contain_combined_truth(
            ops in proptest::collection::vec((0u64..200, 1u64..6, 0usize..3), 1..1500),
            seed in 0u64..16,
        ) {
            let build = || {
                let config = ReliableConfig {
                    memory_bytes: 6 * 1024,
                    lambda: 25,
                    emergency: EmergencyPolicy::ExactTable,
                    seed,
                    ..Default::default()
                };
                ReliableSketch::<u64>::new(config)
            };
            let mut shards = [build(), build(), build()];
            let mut truth: HashMap<u64, u64> = HashMap::new();
            for (k, v, s) in ops {
                shards[s].insert(&k, v);
                *truth.entry(k).or_insert(0) += v;
            }
            let [a, b, c] = shards;
            let merged = merge_all([a, b, c]).unwrap();
            for (&k, &f) in &truth {
                let est = merged.query_with_error(&k);
                prop_assert!(est.contains(f),
                    "key {}: {} ∉ [{}, {}]", k, f, est.lower_bound(), est.value);
            }
        }

        /// Merging never lowers an answer below either shard's own answer
        /// floor: the merged upper bound still dominates the combined
        /// truth even when buckets were locked on both sides (raw variant,
        /// tiny memory, heavy collisions).
        #[test]
        fn prop_merge_under_pressure(
            ops in proptest::collection::vec((0u64..20, 1u64..40, proptest::bool::ANY), 1..600),
            seed in 0u64..8,
        ) {
            let config = ReliableConfig {
                memory_bytes: 8 * BUCKET_BYTES,
                lambda: 6,
                r_w: 2.0,
                r_lambda: 2.0,
                depth: Depth::Fixed(3),
                mice_filter: None,
                emergency: EmergencyPolicy::ExactTable,
                seed,
            };
            let mut a = ReliableSketch::<u64>::new(config.clone());
            let mut b = ReliableSketch::<u64>::new(config);
            let mut truth: HashMap<u64, u64> = HashMap::new();
            for (k, v, to_a) in ops {
                if to_a { a.insert(&k, v); } else { b.insert(&k, v); }
                *truth.entry(k).or_insert(0) += v;
            }
            a.merge(&b).unwrap();
            for (&k, &f) in &truth {
                let est = a.query_with_error(&k);
                prop_assert!(est.contains(f),
                    "key {}: {} ∉ [{}, {}]", k, f, est.lower_bound(), est.value);
            }
        }
    }
}
