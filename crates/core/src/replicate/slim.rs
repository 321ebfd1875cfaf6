//! Slim summaries: query-only digests in the spirit of SF-sketch's
//! "fat insert, slim query" split.
//!
//! A [`SlimSummary`] distills a sketch into the minimum a collector
//! needs to answer point queries with certified intervals: the occupied
//! buckets of the effective layer union (fingerprint space), the layer
//! schedule, divert hints, and the emergency remainders. Mice-filter
//! counters — the bulk of a snapshot at typical configurations — do
//! *not* travel; the filter's threshold is substituted for the unknown
//! per-key contribution, which widens every answer by at most
//! [`SlimSummary::slack`] while keeping the certified-interval
//! guarantee (`truth ∈ [value − MPE, value]`, modulo the same
//! fingerprint-aliasing caveat carried by merged concurrent sketches,
//! which also operate in fingerprint space). A digest keeps the low 24
//! bits of every fingerprint, the narrowest packed word's width, so its
//! rows stay compact and its answers carry `2⁻²⁴` aliasing odds where
//! the source's words keep up to 32.
//!
//! The emergency store travels in two parts. Its tracked rows become
//! *extras*, `(fingerprint, value)` pairs, and each raises only the
//! upper end of an answer (value and MPE alike): a key that shares a
//! row's fingerprint reads an upper bound, never another key's remainder
//! as exact. The bound on every untracked key (a SpaceSaving store's
//! miss bound) joins `filter_slack`, which every answer already carries.
//!
//! Every source reduces to the fingerprint-space bucket grid a merge
//! builds (a window unions its generations), shipped in the replication
//! layer's one sparse form: strictly ascending rows, binary-searched.

use super::codec::{self, wire_struct, PayloadKind};
use crate::atomic::{
    fingerprint, fingerprint_layers, fp_seed_for, layer_fp, ConcurrentReliable, ERR_MAX,
};
use crate::bucket::Layers;
use crate::concurrent::{route, ShardedReliable};
use crate::config::ReliableConfig;
use crate::epoch::EpochedConcurrent;
use crate::geometry::LayerGeometry;
use crate::sketch::{walk, ReliableSketch};
use rsk_api::{Estimate, Key, ReplicateError};
use rsk_hash::HashFamily;

/// A standalone query-only digest of one sketch (or one unioned window).
///
/// Built by the `from_*` constructors, shipped via
/// [`rsk_api::Replicate::slim_bytes`], and queried with
/// [`Self::query_with_error`] from nothing but the payload — the
/// receiving side needs no sketch of its own.
#[derive(Debug, Clone)]
pub struct SlimSummary {
    /// The source sketch's configuration (hash seeds travel here).
    pub config: ReliableConfig,
    /// Materialized layer widths.
    pub widths: Vec<usize>,
    /// Materialized lock thresholds.
    pub lambdas: Vec<u64>,
    /// Occupied buckets of the effective layer union, ascending by
    /// index: `(index, fingerprint, yes, no)` — `None` for a bucket
    /// holding pure collision volume.
    pub layers: super::SparseBucketRows,
    /// Divert-hinted bucket indices per layer, ascending.
    pub hints: Vec<Vec<u32>>,
    /// Emergency remainders as `(fingerprint, value)` pairs, ascending.
    /// An answer adds `value` to its estimate and to its MPE alike, so a
    /// pair raises only the upper end.
    pub extras: Vec<(u64, u64)>,
    /// Σ of the source generations' observed filter counter ceilings,
    /// substituted for the unknown per-key filter contributions, plus
    /// each generation's emergency untracked ceiling (a SpaceSaving
    /// store's miss bound). Every answer carries it on value and MPE.
    /// The filter part is at most the configured threshold per unmerged
    /// generation and grows counter-wise under merges (filters add
    /// without re-capping).
    pub filter_slack: u64,
    /// Total value the source dropped through failed insertions under
    /// [`crate::EmergencyPolicy::Disabled`] (zero in any configuration
    /// that keeps the paper's guarantee intact). Point answers share the
    /// source's undercount caveat; the aggregate layer charges this once
    /// onto subset upper bounds, exactly as it does for the source.
    pub dropped: u64,
    /// Documented worst-case widening vs the source's certified answer.
    slack: u64,
}

wire_struct!(SlimSummary {
    config,
    widths,
    lambdas,
    layers,
    hints,
    extras,
    filter_slack,
    dropped,
    slack,
});

impl SlimSummary {
    /// Distill a sequential [`ReliableSketch`] (keys map to the same
    /// per-layer fingerprints [`ConcurrentReliable`] stores, so slim
    /// payloads from either source are interchangeable on the collector
    /// side).
    pub fn from_sequential<K: Key>(sketch: &ReliableSketch<K>) -> Self {
        let fp_seed = fp_seed_for(sketch.config().seed);
        distill(
            sketch.config(),
            sketch.geometry(),
            &fingerprint_layers(&sketch.layers, sketch.geometry().lambdas(), fp_seed),
            sketch.emergency.tracked(),
            sketch
                .filter
                .as_ref()
                .map_or(0, filter_ceiling)
                .saturating_add(sketch.emergency.untracked_ceiling()),
            sketch.dropped_value(),
            1,
        )
    }

    /// Distill a [`ConcurrentReliable`] (overlay and live words unioned).
    pub fn from_concurrent<K: Key>(sketch: &ConcurrentReliable<K>) -> Self {
        Self::from_generations(&[sketch])
    }

    /// Distill a whole [`EpochedConcurrent`] window: both visible
    /// generations union into one digest (the same soundness argument as
    /// [`rsk_api::Merge`]), with the slack accounting for one filter
    /// threshold and one lambda budget per generation.
    pub fn from_epoched<K: Key>(window: &EpochedConcurrent<K>) -> Self {
        let generations: Vec<_> = std::iter::once(window.active())
            .chain(window.frozen())
            .collect();
        Self::from_generations(&generations)
    }

    /// One digest of the union of `generations` (at least one, all of
    /// one configuration).
    fn from_generations<K: Key>(generations: &[&ConcurrentReliable<K>]) -> Self {
        let first = generations[0];
        let mut layers = first.effective_layers();
        let (mut extras, mut filter_slack, mut dropped) = (Vec::new(), 0u64, 0u64);
        for (n, generation) in generations.iter().enumerate() {
            if n > 0 {
                layers.union(&generation.effective_layers(), first.geometry().lambdas());
            }
            let emergency = generation.emergency.lock();
            extras.extend(emergency.tracked());
            filter_slack = filter_slack
                .saturating_add(generation.filter().map_or(0, filter_ceiling))
                .saturating_add(emergency.untracked_ceiling());
            dropped = dropped.saturating_add(emergency.dropped_value());
        }
        distill(
            first.config(),
            first.geometry(),
            &layers,
            extras,
            filter_slack,
            dropped,
            generations.len() as u64,
        )
    }

    /// Point query with a certified interval, standalone from the
    /// payload: the layer walk mirrors the source sketch's
    /// (`query_with_error`), with the filter threshold substituted for
    /// the unknown filter contribution.
    pub fn query_with_error<K: Key>(&self, key: &K) -> Estimate {
        let hashes = HashFamily::new(self.widths.len(), self.config.seed);
        let fp = digest_fp(fingerprint(key, fp_seed_for(self.config.seed)));
        let (walked, walked_mpe, _) = walk(&self.lambdas, |i| {
            let j = hashes.index(i, key, self.widths[i]) as u32;
            let (id, yes, no) = match self.layers[i].binary_search_by_key(&j, |e| e.0) {
                Ok(pos) => {
                    let (_, id, yes, no) = self.layers[i][pos];
                    (id, yes, no)
                }
                Err(_) => (None, 0, 0),
            };
            let hinted = self.hints[i].binary_search(&j).is_ok();
            (id == Some(fp), yes, no, hinted)
        });
        let mut est = self.filter_slack.saturating_add(walked);
        let mut mpe = self.filter_slack.saturating_add(walked_mpe);
        for &(efp, value) in &self.extras {
            if efp == fp {
                est = est.saturating_add(value);
                mpe = mpe.saturating_add(value);
            }
        }
        Estimate {
            value: est,
            max_possible_error: mpe,
        }
    }

    /// The point estimate alone (an upper bound on the truth).
    pub fn query<K: Key>(&self, key: &K) -> u64 {
        self.query_with_error(key).value
    }

    /// Conservative planning figure for how much wider this digest's
    /// answers run than the source's certified answers:
    /// `filter_slack + generations × Σ λ_i`, fixed at distill time.
    ///
    /// For a single-generation source, any key that descends past the
    /// mice filter gets the *identical* layer walk, so its answer exceeds
    /// the source's by at most the filter and emergency substitutions
    /// (≤ the first term, barring extras aliased by fingerprint); the
    /// `generations × Σ λ_i` term budgets the walk a mouse key (answered
    /// from the filter alone at the source) performs here.
    /// Union digests — epoched windows with a frozen generation, merged
    /// sources — additionally inherit the same data-dependent pessimism
    /// as [`rsk_api::Merge`]. The certified interval returned by
    /// [`Self::query_with_error`] holds in every case; `slack` only
    /// calibrates expectations against the primary.
    pub fn slack(&self) -> u64 {
        self.slack
    }

    /// Encode with the replication layer's framed binary codec
    /// ([`PayloadKind::SlimSummary`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        codec::to_bytes(PayloadKind::SlimSummary, self)
    }

    /// Decode and shape-check a framed payload produced by
    /// [`Self::to_bytes`].
    ///
    /// # Errors
    /// Total over arbitrary input — see [`ReplicateError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ReplicateError> {
        let slim: SlimSummary = codec::from_bytes(PayloadKind::SlimSummary, bytes)?;
        slim.validate()?;
        Ok(slim)
    }

    fn validate(&self) -> Result<(), ReplicateError> {
        let depth = self.widths.len();
        if depth == 0 || self.widths.contains(&0) {
            return Err(ReplicateError::Corrupt("degenerate layer schedule".into()));
        }
        if self.lambdas.len() != depth {
            return Err(ReplicateError::Corrupt(
                "slim summary lock thresholds disagree with the schedule".into(),
            ));
        }
        super::check_sparse(&self.widths, &self.layers, |r| r.0)?;
        super::check_sparse(&self.widths, &self.hints, |&j| j)
    }
}

/// Per-shard slim digests plus the routing seed, so a collector answers
/// for a [`ShardedReliable`] by routing each query exactly like the
/// source did.
#[derive(Debug, Clone)]
pub struct SlimShards {
    /// The routing-hash seed.
    pub router_seed: u32,
    /// One digest per shard, in shard order.
    pub shards: Vec<SlimSummary>,
}

wire_struct!(SlimShards {
    router_seed,
    shards,
});

impl SlimShards {
    /// Distill every shard of a [`ShardedReliable`].
    pub fn from_sharded<K: Key>(sketch: &ShardedReliable<K>) -> Self {
        SlimShards {
            router_seed: sketch.router_seed(),
            shards: (0..sketch.shards())
                .map(|i| SlimSummary::from_concurrent(sketch.shard(i)))
                .collect(),
        }
    }

    /// Point query with a certified interval, routed to the owning
    /// shard's digest.
    pub fn query_with_error<K: Key>(&self, key: &K) -> Estimate {
        self.shards[route(key, self.router_seed, self.shards.len())].query_with_error(key)
    }

    /// Worst-case per-answer widening: the maximum of the shard slacks
    /// (each query consults exactly one shard).
    pub fn slack(&self) -> u64 {
        self.shards
            .iter()
            .map(SlimSummary::slack)
            .max()
            .unwrap_or(0)
    }

    /// Encode with the replication layer's framed binary codec
    /// ([`PayloadKind::ShardedSlim`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        codec::to_bytes(PayloadKind::ShardedSlim, self)
    }

    /// Decode and shape-check a framed payload produced by
    /// [`Self::to_bytes`].
    ///
    /// # Errors
    /// Total over arbitrary input — see [`ReplicateError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ReplicateError> {
        let shards: SlimShards = codec::from_bytes(PayloadKind::ShardedSlim, bytes)?;
        if shards.shards.is_empty() {
            return Err(ReplicateError::Corrupt(
                "sharded slim summary carries no shards".into(),
            ));
        }
        for shard in &shards.shards {
            shard.validate()?;
        }
        Ok(shards)
    }
}

/// The largest value any one key's filter contribution can reach: the
/// maximum counter across all rows (a key's query is a min over its
/// lanes). At most the configured threshold for an unmerged filter.
fn filter_ceiling(filter: &crate::filter::MiceFilter) -> u64 {
    filter
        .rows_snapshot()
        .into_iter()
        .flatten()
        .max()
        .unwrap_or(0)
}

/// The fingerprint a digest keeps of a key's (or a bucket's): its low 24
/// bits, the layer fingerprint at the widest threshold a packed word
/// certifies.
fn digest_fp(fp: u64) -> u64 {
    layer_fp(fp, ERR_MAX)
}

/// Build the digest. `extras` are the sources' tracked emergency rows;
/// each travels as `(fingerprint, value)`, charged to the value and the
/// MPE alike: the digest cannot tell keys that share a fingerprint
/// apart, so a row only ever raises the upper end.
fn distill<K: Key>(
    config: &ReliableConfig,
    geometry: &LayerGeometry,
    layers: &Layers<u64>,
    extras: Vec<(K, u64, u64)>,
    filter_slack: u64,
    dropped: u64,
    gens: u64,
) -> SlimSummary {
    let (mut slim_layers, slim_hints) = layers.to_sparse();
    for row in slim_layers.iter_mut().flatten() {
        row.1 = row.1.map(digest_fp);
    }
    let fp_seed = fp_seed_for(config.seed);
    let mut extras: Vec<(u64, u64)> = extras
        .into_iter()
        .map(|(k, value, _)| (digest_fp(fingerprint(&k, fp_seed)), value))
        .collect();
    // a deterministic payload, whatever the stores' iteration order
    extras.sort_unstable();

    SlimSummary {
        config: config.clone(),
        widths: geometry.widths().to_vec(),
        lambdas: geometry.lambdas().to_vec(),
        layers: slim_layers,
        hints: slim_hints,
        extras,
        filter_slack,
        dropped,
        slack: filter_slack.saturating_add(gens.saturating_mul(geometry.total_lambda())),
    }
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects)] // small fixed test data
mod tests {
    use super::*;
    use crate::config::EmergencyPolicy;
    use rsk_api::{ErrorSensing, Merge, Replicate, StreamSummary};
    use rsk_stream::zipf::ZipfSampler;

    fn config(seed: u64) -> ReliableConfig {
        ReliableConfig {
            memory_bytes: 32 * 1024,
            emergency: EmergencyPolicy::ExactTable,
            seed,
            ..Default::default()
        }
    }

    /// `truth ∈ [value − MPE, value]` and `value ≤ source + slack`.
    fn assert_certified(est: Estimate, source: Estimate, truth: u64, slack: u64, key: u64) {
        assert!(
            est.value >= truth,
            "key {key}: {} < truth {truth}",
            est.value
        );
        assert!(
            est.value.saturating_sub(est.max_possible_error) <= truth,
            "key {key}: lower bound {} above truth {truth}",
            est.value - est.max_possible_error
        );
        assert!(
            est.value <= source.value + slack,
            "key {key}: slim {} vs source {} + slack {slack}",
            est.value,
            source.value
        );
    }

    fn zipf_truth(seed: u64, n: usize) -> (Vec<(u64, u64)>, std::collections::HashMap<u64, u64>) {
        let mut zipf = ZipfSampler::new(2_000, 1.1, seed);
        let items: Vec<(u64, u64)> = (0..n).map(|_| (zipf.sample(), 1)).collect();
        let mut truth = std::collections::HashMap::new();
        for (k, v) in &items {
            *truth.entry(*k).or_insert(0) += v;
        }
        (items, truth)
    }

    #[test]
    fn slim_concurrent_stays_certified() {
        let (items, truth) = zipf_truth(11, 60_000);
        let sk = ConcurrentReliable::<u64>::new(config(11));
        for (k, v) in &items {
            sk.insert_concurrent(k, *v);
        }
        let slim = SlimSummary::from_concurrent(&sk);
        for k in 0..2_000u64 {
            let t = truth.get(&k).copied().unwrap_or(0);
            assert_certified(
                slim.query_with_error(&k),
                sk.query_with_error(&k),
                t,
                slim.slack(),
                k,
            );
        }
    }

    #[test]
    fn slim_sequential_matches_concurrent_distillation() {
        let (items, truth) = zipf_truth(12, 40_000);
        let mut sk = ReliableSketch::<u64>::new(config(12));
        for (k, v) in &items {
            sk.insert(k, *v);
        }
        let slim = SlimSummary::from_sequential(&sk);
        for k in 0..2_000u64 {
            let t = truth.get(&k).copied().unwrap_or(0);
            assert_certified(
                slim.query_with_error(&k),
                sk.query_with_error(&k),
                t,
                slim.slack(),
                k,
            );
        }
    }

    #[test]
    fn slim_epoched_covers_both_generations() {
        let (items, truth) = zipf_truth(13, 40_000);
        let mut window = EpochedConcurrent::<u64>::new(config(13));
        let (first, second) = items.split_at(items.len() / 2);
        for (k, v) in first {
            window.insert_shared(k, *v);
        }
        window.rotate();
        for (k, v) in second {
            window.insert_shared(k, *v);
        }
        let slim = SlimSummary::from_epoched(&window);
        // a window digest is a union of two generations, so it inherits
        // merge-grade pessimism — assert the certified interval, not the
        // single-generation slack bound
        for k in 0..2_000u64 {
            let t = truth.get(&k).copied().unwrap_or(0);
            let est = slim.query_with_error(&k);
            assert!(est.value >= t, "key {k}");
            assert!(
                est.value.saturating_sub(est.max_possible_error) <= t,
                "key {k}"
            );
        }
    }

    #[test]
    fn slim_merged_sketch_stays_certified() {
        let (items, truth) = zipf_truth(14, 40_000);
        let (left, right) = items.split_at(items.len() / 2);
        let a = ConcurrentReliable::<u64>::new(config(14));
        let b = ConcurrentReliable::<u64>::new(config(14));
        for (k, v) in left {
            a.insert_concurrent(k, *v);
        }
        for (k, v) in right {
            b.insert_concurrent(k, *v);
        }
        let mut a = a;
        a.merge(&b).unwrap();
        let slim = SlimSummary::from_concurrent(&a);
        for k in 0..2_000u64 {
            let t = truth.get(&k).copied().unwrap_or(0);
            let est = slim.query_with_error(&k);
            assert!(est.value >= t, "key {k}");
            assert!(
                est.value.saturating_sub(est.max_possible_error) <= t,
                "key {k}"
            );
        }
    }

    #[test]
    fn slim_sharded_routes_like_the_source() {
        let (items, truth) = zipf_truth(15, 40_000);
        let sk = ShardedReliable::<u64>::new(config(15), 4);
        for (k, v) in &items {
            sk.insert_shared(k, *v);
        }
        let slim = SlimShards::from_sharded(&sk);
        let bytes = slim.to_bytes();
        let back = SlimShards::from_bytes(&bytes).unwrap();
        for k in 0..2_000u64 {
            let t = truth.get(&k).copied().unwrap_or(0);
            let est = back.query_with_error(&k);
            assert!(est.value >= t, "key {k}");
            assert!(
                est.value.saturating_sub(est.max_possible_error) <= t,
                "key {k}"
            );
            assert!(
                est.value <= sk.query_shared(&k).value + back.slack(),
                "key {k}"
            );
        }
    }

    #[test]
    fn slim_extras_cover_emergency_remainders() {
        let tight = ReliableConfig {
            memory_bytes: 4 * crate::config::BUCKET_BYTES,
            lambda: 2,
            depth: crate::config::Depth::Fixed(2),
            mice_filter: None,
            emergency: EmergencyPolicy::ExactTable,
            seed: 16,
            ..Default::default()
        };
        let sk = ConcurrentReliable::<u64>::new(tight);
        let mut truth = std::collections::HashMap::new();
        for i in 0..2_000u64 {
            sk.insert_concurrent(&(i % 7), 1);
            *truth.entry(i % 7).or_insert(0) += 1;
        }
        assert!(sk.insertion_failures() > 0, "must exercise the store");
        let slim = SlimSummary::from_concurrent(&sk);
        assert!(!slim.extras.is_empty());
        for k in 0..7u64 {
            let est = slim.query_with_error(&k);
            assert!(est.value >= truth[&k], "key {k}");
            assert!(est.value.saturating_sub(est.max_possible_error) <= truth[&k]);
        }
    }

    #[test]
    fn slim_bytes_roundtrip_and_reject_garbage() {
        let sk = ConcurrentReliable::<u64>::new(config(17));
        for i in 0..10_000u64 {
            sk.insert_concurrent(&(i % 100), 1);
        }
        let slim = SlimSummary::from_concurrent(&sk);
        let bytes = slim.to_bytes();
        let back = SlimSummary::from_bytes(&bytes).unwrap();
        for k in 0..150u64 {
            assert_eq!(back.query_with_error(&k), slim.query_with_error(&k));
        }
        assert_eq!(back.slack(), slim.slack());

        assert!(SlimSummary::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        assert!(SlimSummary::from_bytes(b"not a payload").is_err());
        // rows out of order would mislead the binary searches
        let mut shuffled = slim.clone();
        shuffled.layers[0].swap(0, 1);
        assert!(matches!(
            SlimSummary::from_bytes(&shuffled.to_bytes()),
            Err(ReplicateError::Corrupt(_))
        ));
        // a snapshot payload is not a slim summary
        let snap = sk.snapshot_bytes().unwrap();
        assert!(matches!(
            SlimSummary::from_bytes(&snap),
            Err(ReplicateError::Incompatible(_))
        ));
    }

    #[test]
    fn slim_is_much_smaller_than_a_snapshot() {
        let sk = ConcurrentReliable::<u64>::new(ReliableConfig {
            memory_bytes: 256 * 1024,
            seed: 18,
            ..Default::default()
        });
        for i in 0..50_000u64 {
            sk.insert_concurrent(&(i % 500), 1);
        }
        let slim = SlimSummary::from_concurrent(&sk).to_bytes();
        let snap = sk.snapshot_bytes().unwrap();
        assert!(
            slim.len() * 3 < snap.len(),
            "slim {} bytes vs snapshot {} bytes",
            slim.len(),
            snap.len()
        );
    }
}
