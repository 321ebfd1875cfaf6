//! Multi-core ingestion on lock-free shards — a beyond-the-paper
//! extension.
//!
//! The paper demonstrates ReliableSketch on pipelined hardware (FPGA,
//! Tofino); on CPU servers the natural analogue is concurrent ingestion.
//! This module partitions the key space over `S` independent
//! [`ConcurrentReliable`] shards, each a complete lock-free ReliableSketch
//! over its sub-stream (see [`crate::atomic`] for the single-word CAS
//! bucket design), so the per-key `Λ` guarantee is preserved verbatim —
//! the shards simply split the memory budget, remainder included.
//!
//! ### The hot path
//!
//! Earlier revisions locked a `Mutex` per shard and paid a bounded-channel
//! send per item. Both are gone:
//!
//! * [`ShardedReliable::insert_shared`] routes one item to its shard and
//!   inserts with CAS only — any number of producer threads may call it
//!   through `&self` with no lock anywhere on the path.
//! * [`ShardedReliable::ingest_parallel`] runs two barrier-free phases
//!   over scoped threads: workers first partition chunk-affine slices of
//!   the input into per-shard batch buffers (pure local work, one routing
//!   hash per item), then apply whole shards — each by exactly one owner,
//!   flushing every chunk's buffer in chunk order via
//!   [`ConcurrentReliable::insert_batch`]. No per-item channel send, no
//!   mutex, and each shard is applied in stream order — which makes the
//!   result *bit-for-bit identical* to a sequential
//!   [`ShardedReliable::insert_shared`] replay of the same stream, for
//!   every shard and worker count. The root `concurrent_ingest` suite
//!   pins this equivalence.
//!
//! ### Phase-2 scheduling
//!
//! Phase 1 tells exactly how many items each shard received, so phase 2
//! sorts the shards heaviest first (ties by index) and workers claim
//! them off one shared atomic ticket in that order. This is Graham's LPT
//! list schedule: a skew-heated hot shard starts at once instead of
//! convoying the batch tail, and the makespan stays within
//! `4/3 − 1/(3w)` of the best whole-shard schedule for `w` workers (see
//! `docs/CONCURRENCY.md`). A shard is never split, so the claim order
//! moves only the wall clock, never an answer.
//!
//! ### Seeds and memory
//!
//! Per-shard hash seeds are drawn from the [`SplitMix64`] stream of the
//! master seed (not a linear offset, which left shard families
//! correlated), and `memory_bytes` is split as evenly as possible with
//! the remainder spread over the first `memory_bytes % S` shards so the
//! budgets sum exactly to the configured total.
//!
//! ### Feature parity
//!
//! Shards run the paper's full §3.3 design: the mice filter (when
//! configured) is an atomic CU filter inside every shard, and two
//! same-configuration [`ShardedReliable`]s merge shard-wise via
//! [`rsk_api::Merge`] (see [`crate::merge`]) for distributed aggregation.
//!
//! # Examples
//!
//! Deterministic parallel ingestion — the two-phase path gives the same
//! answers as a sequential replay, filter included:
//!
//! ```
//! use rsk_core::concurrent::ShardedReliable;
//! use rsk_core::ReliableConfig;
//!
//! let items: Vec<(u64, u64)> = (0..40_000u64).map(|i| (i % 997, 1)).collect();
//! let config = ReliableConfig { memory_bytes: 256 * 1024, seed: 9, ..Default::default() };
//!
//! let parallel = ShardedReliable::<u64>::new(config.clone(), 4);
//! parallel.ingest_parallel(&items, 4);
//!
//! let replay = ShardedReliable::<u64>::new(config, 4);
//! for (k, v) in &items {
//!     replay.insert_shared(k, *v);
//! }
//! for k in 0..997u64 {
//!     assert_eq!(parallel.query_shared(&k), replay.query_shared(&k));
//! }
//! let truth = items.iter().filter(|(key, _)| *key == 7).count() as u64;
//! assert!(parallel.query_shared(&7).contains(truth));
//! ```

use crate::atomic::ConcurrentReliable;
use crate::config::ReliableConfig;
use rsk_api::{
    Algorithm, ConcurrentErrorSensing, ConcurrentSummary, ErrorSensing, Estimate, Key,
    MemoryFootprint, StreamSummary,
};
use rsk_hash::SplitMix64;
use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The shard `key` routes to among `shards`: a multiply-shift of the
/// key's 32-bit digest under `router_seed`. The sharded sketch and its
/// slim digest both route through it, so they agree on every key.
#[inline]
pub(crate) fn route<K: Key>(key: &K, router_seed: u32, shards: usize) -> usize {
    ((u64::from(key.hash32(router_seed)) * shards as u64) >> 32) as usize
}

/// Key-partitioned lock-free ReliableSketch for shared (`&self`)
/// ingestion from many threads.
pub struct ShardedReliable<K: Key> {
    shards: Vec<ConcurrentReliable<K>>,
    router_seed: u32,
}

impl<K: Key> ShardedReliable<K> {
    /// Split `config.memory_bytes` over `n_shards` lock-free sketches.
    ///
    /// The division distributes the remainder (`memory_bytes % n_shards`)
    /// one byte per leading shard, so no budget is silently dropped, and
    /// per-shard seeds come from a SplitMix64 stream over `config.seed`.
    ///
    /// Shards honor `config.mice_filter`: each builds its own
    /// [`MiceFilter`](crate::filter::MiceFilter) from its
    /// budget slice (see [`ConcurrentReliable::new`]), so the sharded
    /// path runs the paper's full filtered variant.
    ///
    /// # Panics
    /// Panics if `n_shards == 0`, if a per-shard budget is invalid, or if
    /// `config.lambda` yields a layer threshold above
    /// [`crate::atomic::ERR_MAX`] (= 4095) — the packed atomic bucket
    /// stores the error in at most 12 bits, unlike the unbounded `u64` fields of
    /// [`crate::ReliableSketch`].
    pub fn new(config: ReliableConfig, n_shards: usize) -> Self {
        assert!(n_shards > 0, "need at least one shard");
        let base = config.memory_bytes / n_shards;
        let remainder = config.memory_bytes % n_shards;
        let mut seeds = SplitMix64::new(config.seed);
        let mut allotted = 0usize;
        let shards = (0..n_shards)
            .map(|i| {
                let budget = base + usize::from(i < remainder);
                allotted += budget;
                ConcurrentReliable::new(ReliableConfig {
                    memory_bytes: budget,
                    seed: seeds.next_u64(),
                    ..config.clone()
                })
            })
            .collect();
        assert_eq!(
            allotted, config.memory_bytes,
            "shard budgets must sum to the configured total"
        );
        Self {
            shards,
            router_seed: seeds.next_u64() as u32 ^ SHARD_SALT,
        }
    }

    /// Reassemble a sketch from individually restored shards (the
    /// replication layer's full-snapshot path).
    pub(crate) fn from_restored_shards(
        shards: Vec<ConcurrentReliable<K>>,
        router_seed: u32,
    ) -> Self {
        assert!(!shards.is_empty(), "a sharded sketch needs ≥ 1 shard");
        Self {
            shards,
            router_seed,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a key routes to (diagnostics and tests).
    #[inline]
    pub fn shard_of(&self, key: &K) -> usize {
        route(key, self.router_seed, self.shards.len())
    }

    /// Direct access to shard `i` (diagnostics and tests).
    pub fn shard(&self, i: usize) -> &ConcurrentReliable<K> {
        &self.shards[i]
    }

    /// Mutable access to shard `i` (the shard-wise [`rsk_api::Merge`]).
    pub(crate) fn shard_mut(&mut self, i: usize) -> &mut ConcurrentReliable<K> {
        &mut self.shards[i]
    }

    /// The routing-hash seed (merge compatibility checks).
    pub(crate) fn router_seed(&self) -> u32 {
        self.router_seed
    }

    /// Lock-free insert through a shared reference.
    #[inline]
    pub fn insert_shared(&self, key: &K, value: u64) {
        self.shards[self.shard_of(key)].insert_concurrent(key, value);
    }

    /// Insert a batch from one caller: order-preserving shard partition,
    /// then each shard's sub-stream through
    /// [`ConcurrentReliable::insert_batch`]. Keys never share a shard
    /// across the partition boundary, so this is bit-identical to an
    /// in-order [`Self::insert_shared`] loop — the same argument that
    /// makes [`Self::ingest_parallel`] deterministic, pinned by
    /// `tests/simd_parity.rs`.
    pub fn insert_batch(&self, items: &[(K, u64)]) {
        let mut per_shard: Vec<Vec<(K, u64)>> = vec![Vec::new(); self.shards.len()];
        for &(k, v) in items {
            per_shard[self.shard_of(&k)].push((k, v));
        }
        for (shard, part) in per_shard.iter().enumerate() {
            if !part.is_empty() {
                self.shards[shard].insert_batch(part);
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
        crate::sketch::drain_batched(stream, batch_size, |batch| self.insert_batch(batch))
    }

    /// Query with certified error through a shared reference.
    #[inline]
    pub fn query_shared(&self, key: &K) -> Estimate {
        self.shards[self.shard_of(key)].query_with_error(key)
    }

    /// Total insertion failures across shards.
    pub fn insertion_failures(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.insertion_failures())
            .fold(0, u64::saturating_add)
    }

    /// Total CAS retries across shards (contention gauge; 0 when every
    /// shard was only ever touched by one thread at a time).
    pub fn cas_retries(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.array().stats().retries())
            .sum()
    }

    /// Ingest `items` with `n_workers` threads in two barrier-free
    /// phases: parallel shard-affine partitioning, then shard-owned batch
    /// application in stream order, heaviest shard first (see the module
    /// docs). Deterministic: the result is identical to a sequential
    /// [`Self::insert_shared`] replay for every worker count.
    ///
    /// Returns the number of items processed.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsk_core::concurrent::ShardedReliable;
    /// use rsk_core::ReliableConfig;
    ///
    /// let config = ReliableConfig { memory_bytes: 128 * 1024, seed: 3, ..Default::default() };
    /// let items: Vec<(u64, u64)> = (0..20_000u64).map(|i| (i % 500, 1)).collect();
    ///
    /// let parallel = ShardedReliable::<u64>::new(config.clone(), 4);
    /// assert_eq!(parallel.ingest_parallel(&items, 4), items.len());
    ///
    /// // bit-identical to the one-item-at-a-time shared path
    /// let replay = ShardedReliable::<u64>::new(config, 4);
    /// items.iter().for_each(|(k, v)| replay.insert_shared(k, *v));
    /// assert_eq!(parallel.query_shared(&7), replay.query_shared(&7));
    /// ```
    pub fn ingest_parallel(&self, items: &[(K, u64)], n_workers: usize) -> usize
    where
        K: Send + Sync,
    {
        let n_workers = n_workers.max(1).min(items.len().max(1));
        let n_shards = self.shards.len();
        if n_workers == 1 {
            for (k, v) in items {
                self.insert_shared(k, *v);
            }
            return items.len();
        }

        // Phase 1: chunk-affine partitioning. Chunks are contiguous, so
        // concatenating one shard's buffers in chunk order reproduces that
        // shard's sub-stream in stream order.
        let chunk_len = items.len().div_ceil(n_workers).max(1);
        let partitions: Vec<Vec<Vec<(K, u64)>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks(chunk_len)
                .map(|part| {
                    scope.spawn(move || {
                        let mut per_shard: Vec<Vec<(K, u64)>> = vec![Vec::new(); n_shards];
                        for &(k, v) in part {
                            per_shard[self.shard_of(&k)].push((k, v));
                        }
                        per_shard
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        // Phase 2: apply each shard's batches from exactly one worker in
        // chunk (= stream) order; flushes on distinct shards proceed in
        // parallel with no synchronization beyond the bucket CAS. Workers
        // claim shards heaviest first; the sort is stable, so ties keep
        // index order.
        let loads: Vec<usize> = (0..n_shards)
            .map(|shard| partitions.iter().map(|chunk| chunk[shard].len()).sum())
            .collect();
        let mut order: Vec<usize> = (0..n_shards).collect();
        order.sort_by_key(|&shard| Reverse(loads[shard]));
        let ticket = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..n_workers.min(n_shards) {
                scope.spawn(|| {
                    while let Some(&shard) = order.get(ticket.fetch_add(1, Ordering::Relaxed)) {
                        for chunk in &partitions {
                            self.shards[shard].insert_batch(&chunk[shard]);
                        }
                    }
                });
            }
        });
        items.len()
    }
}

impl<K: Key> StreamSummary<K> for ShardedReliable<K> {
    #[inline]
    fn insert(&mut self, key: &K, value: u64) {
        self.insert_shared(key, value);
    }

    #[inline]
    fn query(&self, key: &K) -> u64 {
        self.query_shared(key).value
    }
}

impl<K: Key> ErrorSensing<K> for ShardedReliable<K> {
    #[inline]
    fn query_with_error(&self, key: &K) -> Estimate {
        self.query_shared(key)
    }
}

impl<K: Key + Send + Sync> ConcurrentErrorSensing<K> for ShardedReliable<K> {
    /// Route to the key's shard and answer with its certified interval —
    /// identical to [`ShardedReliable::query_shared`], exposed through
    /// the shared-reference trait so served deployments can hold the
    /// sharded sketch as a `dyn ConcurrentErrorSensing` tenant.
    #[inline]
    fn query_with_error_concurrent(&self, key: &K) -> Estimate {
        self.query_shared(key)
    }
}

impl<K: Key + Send + Sync> ConcurrentSummary<K> for ShardedReliable<K> {
    #[inline]
    fn insert_concurrent(&self, key: &K, value: u64) {
        self.insert_shared(key, value);
    }

    #[inline]
    fn query_concurrent(&self, key: &K) -> u64 {
        self.query_shared(key).value
    }

    fn ingest_parallel(&self, items: &[(K, u64)], n_workers: usize) -> usize {
        ShardedReliable::ingest_parallel(self, items, n_workers)
    }
}

impl<K: Key + Send + Sync> ConcurrentErrorSensing<K> for ConcurrentReliable<K> {
    /// The lock-free certified read: walk the layers with plain atomic
    /// loads ([`ConcurrentReliable::query_with_error`]) and report the
    /// Maximum Possible Error alongside the estimate. Uncontended
    /// single-writer histories answer bit-for-bit like the sequential
    /// twin, and racing writers keep every interval certified.
    #[inline]
    fn query_with_error_concurrent(&self, key: &K) -> Estimate {
        self.query_with_error(key)
    }
}

impl<K: Key + Send + Sync> ConcurrentSummary<K> for ConcurrentReliable<K> {
    #[inline]
    fn insert_concurrent(&self, key: &K, value: u64) {
        ConcurrentReliable::insert_concurrent(self, key, value);
    }

    #[inline]
    fn query_concurrent(&self, key: &K) -> u64 {
        self.query_with_error(key).value
    }

    /// Chunked concurrent ingestion into one lock-free sketch. Unlike the
    /// sharded version this interleaves bucket elections and is therefore
    /// not deterministic, but the semantic guarantee (estimates bound the
    /// truth within `Λ`) is preserved under any interleaving.
    fn ingest_parallel(&self, items: &[(K, u64)], n_workers: usize) -> usize {
        let n_workers = n_workers.max(1).min(items.len().max(1));
        let chunk_len = items.len().div_ceil(n_workers).max(1);
        std::thread::scope(|scope| {
            for part in items.chunks(chunk_len) {
                scope.spawn(move || self.insert_batch(part));
            }
        });
        items.len()
    }
}

impl<K: Key> MemoryFootprint for ShardedReliable<K> {
    fn memory_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.memory_bytes()).sum()
    }
}

impl<K: Key> Algorithm for ShardedReliable<K> {
    fn name(&self) -> String {
        format!("Ours(x{})", self.shards.len())
    }
}

/// Salt separating the shard-routing hash from the per-layer families.
const SHARD_SALT: u32 = 0x05aa_bbcd;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn config(mem: usize) -> ReliableConfig {
        ReliableConfig {
            memory_bytes: mem,
            seed: 11,
            ..Default::default()
        }
    }

    #[test]
    fn sharded_matches_guarantee() {
        let sh = ShardedReliable::<u64>::new(config(256 * 1024), 4);
        assert_eq!(sh.shards(), 4);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for i in 0..50_000u64 {
            let k = i % 3000;
            sh.insert_shared(&k, 1);
            *truth.entry(k).or_insert(0) += 1;
        }
        assert_eq!(sh.insertion_failures(), 0);
        for (&k, &f) in &truth {
            let est = sh.query_shared(&k);
            assert!(est.contains(f), "key {k}: {f} ∉ {est:?}");
            assert!(est.value - f <= 25);
        }
    }

    #[test]
    fn parallel_ingest_is_identical_to_sequential() {
        let items: Vec<(u64, u64)> = (0..40_000u64).map(|i| (i % 1777, 1 + i % 3)).collect();

        let seq = ShardedReliable::<u64>::new(config(256 * 1024), 4);
        for (k, v) in &items {
            seq.insert_shared(k, *v);
        }
        for workers in [2usize, 4, 8] {
            let par = ShardedReliable::<u64>::new(config(256 * 1024), 4);
            assert_eq!(par.ingest_parallel(&items, workers), items.len());
            for k in 0..1777u64 {
                assert_eq!(
                    par.query_shared(&k),
                    seq.query_shared(&k),
                    "divergence at key {k} with {workers} workers"
                );
            }
            assert_eq!(par.insertion_failures(), seq.insertion_failures());
        }
    }

    #[test]
    fn memory_budget_sums_exactly_across_shards() {
        // a budget that does NOT divide evenly: the remainder must land in
        // the leading shards instead of being dropped
        let total = (1 << 20) + 7;
        let sh = ShardedReliable::<u64>::new(config(total), 8);
        let budgets: Vec<usize> = (0..8).map(|i| sh.shard(i).config().memory_bytes).collect();
        assert_eq!(budgets.iter().sum::<usize>(), total);
        assert!(budgets.iter().all(|&b| {
            let base = total / 8;
            b == base || b == base + 1
        }));
        let used = sh.memory_bytes();
        assert!(used <= total);
        assert!(
            used > total * 9 / 10,
            "shards should use most of the budget"
        );
        assert_eq!(sh.name(), "Ours(x8)");
    }

    #[test]
    fn shard_seeds_are_decorrelated() {
        // SplitMix64-derived seeds: no two shards share a seed, and the
        // same key maps to different layer-0 buckets in (almost) all shards
        let sh = ShardedReliable::<u64>::new(config(1 << 20), 8);
        let seeds: std::collections::HashSet<u64> =
            (0..8).map(|i| sh.shard(i).config().seed).collect();
        assert_eq!(seeds.len(), 8, "duplicate shard seeds");
        let key = 0xdead_beefu64;
        let indexes: std::collections::HashSet<usize> = (0..8)
            .map(|i| {
                let s = sh.shard(i);
                rsk_hash::HashFamily::new(s.geometry().depth(), s.config().seed).index(
                    0,
                    &key,
                    s.geometry().width(0),
                )
            })
            .collect();
        assert!(indexes.len() >= 6, "layer-0 placements look correlated");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ShardedReliable::<u64>::new(config(1 << 20), 0);
    }

    #[test]
    #[should_panic(expected = "packed error field")]
    fn oversized_lambda_rejected() {
        // the atomic bucket stores NO in 12 bits: tolerances whose layer
        // thresholds exceed ERR_MAX are a documented construction panic
        let cfg = ReliableConfig {
            lambda: 100_000,
            ..config(1 << 20)
        };
        ShardedReliable::<u64>::new(cfg, 4);
    }
}
