//! The contender registry — every algorithm configuration the harness can
//! race, behind one abstraction.
//!
//! Before this module, each `fig_*` generator privately instantiated
//! `Ours`/`Ours(Raw)`/baselines, and the lock-free path
//! (`ConcurrentReliable`, `ShardedReliable`, `EpochedConcurrent`, merged
//! overlays) never appeared in a paper figure even though its relaxed CAS
//! semantics are exactly where accuracy could silently regress (cf. *Fast
//! Concurrent Data Sketches*: relaxed concurrent sketches need their own
//! error analysis). Now every figure and table iterates over
//! [`Contender`]s: a *name*, a *build-from-memory-budget* factory, an
//! *ingest* strategy (sequential, batched, or N-worker parallel), a
//! *query* path, and [`ContenderMeta`] describing the configuration
//! (filtered/raw, shard count, worker count, windowed, merged,
//! deterministic or not).
//!
//! ## Determinism and the report-rot gate
//!
//! `results/REPORT.md` is regenerated by `repro all --quick` and diffed
//! byte-for-byte in CI, so the accuracy scenarios register only
//! **run-to-run deterministic** contenders:
//!
//! * `OursAtomic`/`OursAtomic(Raw)` at 1 worker — single-owner atomic
//!   ingestion is bit-equal to the sequential sketch (pinned by
//!   `tests/concurrent_parity.rs` and re-asserted in every report);
//! * `Ours(xS)@Ww` — `ShardedReliable::ingest_parallel` is deterministic
//!   for *every* worker count by construction (one owner per shard in
//!   stream order), so multi-worker rows are reproducible;
//! * `OursEpoch` (1 worker) and `OursMerged` — rotation points and merge
//!   schedules are fixed functions of the stream.
//!
//! Truly contended configurations (`OursAtomic@Nw`, N > 1) interleave
//! bucket elections nondeterministically; they appear in the throughput
//! figure and the contention-envelope table of
//! [`crate::fig_concurrent`], both marked volatile so the committed
//! report never depends on a thread schedule.
//!
//! # Examples
//!
//! Race the sequential sketch against its 1-worker atomic twin — the
//! registry's headline parity claim:
//!
//! ```
//! use rsk_exp::contender::Contender;
//! use rsk_stream::Dataset;
//!
//! let stream = Dataset::Hadoop.generate(20_000, 1);
//! let seq = Contender::ours(25).run(64 * 1024, 1, &stream);
//! let atomic = Contender::atomic(25, false, 1).run(64 * 1024, 1, &stream);
//! for it in &stream {
//!     assert_eq!(seq.query(&it.key), atomic.query(&it.key));
//! }
//! ```

use crate::ExpContext;
use rsk_api::{
    CertifiedTopK, CertifiedWeight, ConcurrentSummary, ErrorSensing, Estimate, KeySet, Merge,
    Sketch, StreamSummary, SubpopulationWeight, TopK,
};
use rsk_baselines::factory::Baseline;
use rsk_baselines::SpaceSaving;
use rsk_core::{
    ConcurrentReliable, EpochedConcurrent, ReliableConfig, ReliableSketch, ShardedReliable,
    SlimSummary,
};
use rsk_dataplane::TofinoReliable;
use rsk_stream::{to_pairs, Item};

/// How a contender feeds a materialized stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestMode {
    /// One item at a time through `StreamSummary::insert`.
    Sequential,
    /// `workers`-thread lock-free ingestion through `ConcurrentSummary`.
    Parallel {
        /// Producer thread count.
        workers: usize,
    },
    /// Two-generation window: first half, rotate, second half; queries
    /// read the sealed generation wait-free plus the active one.
    Windowed {
        /// Producer thread count per generation.
        workers: usize,
    },
    /// Twin sketches ingest one half each, then fold via `Merge` into a
    /// sealed overlay.
    Merged,
}

impl IngestMode {
    /// Short display form for tables (`seq`, `par:4`, `win:1`, `merge`).
    pub fn describe(&self) -> String {
        match self {
            IngestMode::Sequential => "seq".into(),
            IngestMode::Parallel { workers } => format!("par:{workers}"),
            IngestMode::Windowed { workers } => format!("win:{workers}"),
            IngestMode::Merged => "merge".into(),
        }
    }

    /// Worker count involved in ingestion (1 for sequential/merged).
    pub fn workers(&self) -> usize {
        match self {
            IngestMode::Sequential | IngestMode::Merged => 1,
            IngestMode::Parallel { workers } | IngestMode::Windowed { workers } => *workers,
        }
    }
}

/// Registry metadata: what configuration a contender runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContenderMeta {
    /// Ingest strategy.
    pub mode: IngestMode,
    /// Mice filter on (the paper's default) vs the Raw variant.
    pub filtered: bool,
    /// Shard count (1 = unsharded).
    pub shards: usize,
    /// Is the whole run bit-reproducible across repetitions and thread
    /// schedules? Only deterministic contenders may appear in tables the
    /// report-rot gate diffs.
    pub deterministic: bool,
    /// Can it answer `query_with_error` (certified MPE intervals)?
    pub sensing: bool,
    /// Is it one of the nine competitor baselines (vs a ReliableSketch
    /// variant)?
    pub baseline: bool,
    /// Is it a hardware dataplane model (read-only registration: listed
    /// by `repro contenders` and raced by the testbed figure, but
    /// outside the CPU accuracy registries, whose Λ is packet-valued)?
    pub dataplane: bool,
}

impl ContenderMeta {
    fn ours_sequential() -> Self {
        Self {
            mode: IngestMode::Sequential,
            filtered: true,
            shards: 1,
            deterministic: true,
            sensing: true,
            baseline: false,
            dataplane: false,
        }
    }
}

/// A built contender, ready to absorb one stream and answer point queries.
///
/// The trait is object safe; [`Contender::build`] returns
/// `Box<dyn ContenderInstance>`.
pub trait ContenderInstance {
    /// Insert a single item (the bisection searches ingest this way).
    fn insert(&mut self, key: &u64, value: u64);

    /// Feed a whole stream using the contender's native strategy —
    /// sequential loop, batched, N-worker parallel, windowed, or merged.
    fn ingest(&mut self, stream: &[Item<u64>]);

    /// Feed a whole stream through the contender's *single-core batched*
    /// hot path (`insert_batch`: a scalar layer-0 hash prefix per
    /// 64-item chunk, then the in-order item walk), `batch` items at a
    /// time. Returns `false` when the contender has
    /// no batched surface (baselines, the Tofino model) — callers report
    /// the throughput column as unsupported. Probing with an empty
    /// stream is side-effect-free.
    fn ingest_batched(&mut self, _stream: &[Item<u64>], _batch: usize) -> bool {
        false
    }

    /// Point-query the value sum of `key`.
    fn query(&self, key: &u64) -> u64;

    /// Certified interval, for error-sensing contenders (`None` for
    /// baselines, which have no MPE machinery).
    fn query_with_error(&self, _key: &u64) -> Option<Estimate> {
        None
    }

    /// Model memory footprint in bytes.
    fn memory_bytes(&self) -> usize;

    /// Insertion failures observed so far (0 for baselines, which have no
    /// failure concept).
    fn insertion_failures(&self) -> u64 {
        0
    }

    /// Certified top-`k` report, for contenders carrying the error-backed
    /// top-K layer (`None` elsewhere).
    fn certified_top_k(&self, _k: usize) -> Option<CertifiedTopK<u64>> {
        None
    }

    /// Heaviest-`k` listing as `(key, count, error)` triples, descending
    /// by count — for any contender with a top-K surface, certified
    /// (`OursTopK`) or merely heap-maintained (Space-Saving). `None` for
    /// contenders without one.
    fn top_entries(&self, _k: usize) -> Option<Vec<(u64, u64, u64)>> {
        None
    }

    /// Certified subpopulation weight over a predicate-selected key set
    /// (`None` for contenders without the aggregate layer — baselines
    /// and the dataplane model, which have no per-key certified bounds
    /// to sum).
    fn subpopulation_weight(&self, _set: &KeySet) -> Option<CertifiedWeight> {
        None
    }

    /// Diagnostic counters as `(label, count)` pairs — e.g.
    /// `("recirculations", n)` for the Tofino model. Empty for contenders
    /// without such machinery.
    fn diagnostics(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Look up one diagnostic counter by label (0 when absent).
    fn diagnostic(&self, name: &str) -> u64 {
        self.diagnostics()
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// Sequential ReliableSketch (the paper's `Ours` / `Ours(Raw)`).
struct OursInstance(ReliableSketch<u64>);

impl ContenderInstance for OursInstance {
    fn insert(&mut self, key: &u64, value: u64) {
        StreamSummary::insert(&mut self.0, key, value);
    }
    fn ingest(&mut self, stream: &[Item<u64>]) {
        for it in stream {
            StreamSummary::insert(&mut self.0, &it.key, it.value);
        }
    }
    fn ingest_batched(&mut self, stream: &[Item<u64>], batch: usize) -> bool {
        self.0
            .ingest_batched(stream.iter().map(|it| (it.key, it.value)), batch);
        true
    }
    fn query(&self, key: &u64) -> u64 {
        StreamSummary::query(&self.0, key)
    }
    fn query_with_error(&self, key: &u64) -> Option<Estimate> {
        Some(ErrorSensing::query_with_error(&self.0, key))
    }
    fn memory_bytes(&self) -> usize {
        rsk_api::MemoryFootprint::memory_bytes(&self.0)
    }
    fn insertion_failures(&self) -> u64 {
        self.0.insertion_failures()
    }
    fn certified_top_k(&self, k: usize) -> Option<CertifiedTopK<u64>> {
        self.0
            .top_k_capacity()
            .map(|_| TopK::certified_top_k(&self.0, k))
    }
    fn top_entries(&self, k: usize) -> Option<Vec<(u64, u64, u64)>> {
        self.certified_top_k(k).map(|t| {
            t.entries
                .iter()
                .map(|e| (e.key, e.count, e.error))
                .collect()
        })
    }
    fn subpopulation_weight(&self, set: &KeySet) -> Option<CertifiedWeight> {
        Some(SubpopulationWeight::subpopulation_weight(&self.0, set))
    }
}

/// Space-Saving driven through its native top-K surface — the reference
/// heavy-hitter contender the certified layer races in the top-K tables.
struct SpaceSavingInstance(SpaceSaving<u64>);

impl ContenderInstance for SpaceSavingInstance {
    fn insert(&mut self, key: &u64, value: u64) {
        StreamSummary::insert(&mut self.0, key, value);
    }
    fn ingest(&mut self, stream: &[Item<u64>]) {
        for it in stream {
            StreamSummary::insert(&mut self.0, &it.key, it.value);
        }
    }
    fn query(&self, key: &u64) -> u64 {
        StreamSummary::query(&self.0, key)
    }
    fn memory_bytes(&self) -> usize {
        rsk_api::MemoryFootprint::memory_bytes(&self.0)
    }
    fn top_entries(&self, k: usize) -> Option<Vec<(u64, u64, u64)>> {
        Some(self.0.top().into_iter().take(k).collect())
    }
}

/// Any boxed baseline (CM, CU, SS, Elastic, …).
struct BaselineInstance(Box<dyn Sketch<u64>>);

impl ContenderInstance for BaselineInstance {
    fn insert(&mut self, key: &u64, value: u64) {
        self.0.insert(key, value);
    }
    fn ingest(&mut self, stream: &[Item<u64>]) {
        for it in stream {
            self.0.insert(&it.key, it.value);
        }
    }
    fn query(&self, key: &u64) -> u64 {
        self.0.query(key)
    }
    fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }
}

/// One lock-free sketch fed by `workers` producer threads.
struct AtomicInstance {
    sk: ConcurrentReliable<u64>,
    workers: usize,
}

impl ContenderInstance for AtomicInstance {
    fn insert(&mut self, key: &u64, value: u64) {
        self.sk.insert_concurrent(key, value);
    }
    fn ingest(&mut self, stream: &[Item<u64>]) {
        let pairs = to_pairs(stream);
        ConcurrentSummary::ingest_parallel(&self.sk, &pairs, self.workers);
    }
    fn ingest_batched(&mut self, stream: &[Item<u64>], batch: usize) -> bool {
        self.sk
            .ingest_batched(stream.iter().map(|it| (it.key, it.value)), batch);
        true
    }
    fn query(&self, key: &u64) -> u64 {
        self.sk.query_with_error(key).value
    }
    fn query_with_error(&self, key: &u64) -> Option<Estimate> {
        Some(self.sk.query_with_error(key))
    }
    fn memory_bytes(&self) -> usize {
        rsk_api::MemoryFootprint::memory_bytes(&self.sk)
    }
    fn insertion_failures(&self) -> u64 {
        self.sk.insertion_failures()
    }
    fn subpopulation_weight(&self, set: &KeySet) -> Option<CertifiedWeight> {
        Some(SubpopulationWeight::subpopulation_weight(&self.sk, set))
    }
}

/// Key-partitioned shards, deterministic two-phase parallel ingestion.
struct ShardedInstance {
    sk: ShardedReliable<u64>,
    workers: usize,
}

impl ContenderInstance for ShardedInstance {
    fn insert(&mut self, key: &u64, value: u64) {
        self.sk.insert_shared(key, value);
    }
    fn ingest(&mut self, stream: &[Item<u64>]) {
        let pairs = to_pairs(stream);
        self.sk.ingest_parallel(&pairs, self.workers);
    }
    fn ingest_batched(&mut self, stream: &[Item<u64>], batch: usize) -> bool {
        self.sk
            .ingest_batched(stream.iter().map(|it| (it.key, it.value)), batch);
        true
    }
    fn query(&self, key: &u64) -> u64 {
        self.sk.query_shared(key).value
    }
    fn query_with_error(&self, key: &u64) -> Option<Estimate> {
        Some(self.sk.query_shared(key))
    }
    fn memory_bytes(&self) -> usize {
        rsk_api::MemoryFootprint::memory_bytes(&self.sk)
    }
    fn insertion_failures(&self) -> u64 {
        self.sk.insertion_failures()
    }
    fn subpopulation_weight(&self, set: &KeySet) -> Option<CertifiedWeight> {
        Some(SubpopulationWeight::subpopulation_weight(&self.sk, set))
    }
}

/// The Tofino behavioural model (read-only registration: it joins the
/// listing and the testbed figure, not the CPU accuracy sweeps).
struct TofinoInstance(TofinoReliable<u64>);

impl ContenderInstance for TofinoInstance {
    fn insert(&mut self, key: &u64, value: u64) {
        StreamSummary::insert(&mut self.0, key, value);
    }
    fn ingest(&mut self, stream: &[Item<u64>]) {
        for it in stream {
            StreamSummary::insert(&mut self.0, &it.key, it.value);
        }
    }
    fn query(&self, key: &u64) -> u64 {
        StreamSummary::query(&self.0, key)
    }
    fn query_with_error(&self, key: &u64) -> Option<Estimate> {
        Some(self.0.query_with_error(key))
    }
    fn memory_bytes(&self) -> usize {
        rsk_api::MemoryFootprint::memory_bytes(&self.0)
    }
    fn insertion_failures(&self) -> u64 {
        self.0.insertion_failures()
    }
    fn diagnostics(&self) -> Vec<(&'static str, u64)> {
        vec![("recirculations", self.0.recirculations())]
    }
}

/// Two-generation window: rotate at mid-stream, read the sealed epoch.
struct EpochedInstance {
    sk: EpochedConcurrent<u64>,
    workers: usize,
}

impl ContenderInstance for EpochedInstance {
    fn insert(&mut self, key: &u64, value: u64) {
        self.sk.insert_shared(key, value);
    }
    fn ingest(&mut self, stream: &[Item<u64>]) {
        let (first, second) = stream.split_at(stream.len() / 2);
        if !first.is_empty() {
            ConcurrentSummary::ingest_parallel(self.sk.active(), &to_pairs(first), self.workers);
        }
        self.sk.rotate(); // seal the first epoch; reads of it are wait-free
        if !second.is_empty() {
            ConcurrentSummary::ingest_parallel(self.sk.active(), &to_pairs(second), self.workers);
        }
    }
    fn ingest_batched(&mut self, stream: &[Item<u64>], batch: usize) -> bool {
        if stream.is_empty() {
            return true; // capability probe: don't rotate the window
        }
        // same window schedule as `ingest`, batched within each epoch
        let (first, second) = stream.split_at(stream.len() / 2);
        for chunk in to_pairs(first).chunks(batch.max(1)) {
            self.sk.insert_batch(chunk);
        }
        self.sk.rotate();
        for chunk in to_pairs(second).chunks(batch.max(1)) {
            self.sk.insert_batch(chunk);
        }
        true
    }
    fn query(&self, key: &u64) -> u64 {
        ErrorSensing::query_with_error(&self.sk, key).value
    }
    fn query_with_error(&self, key: &u64) -> Option<Estimate> {
        Some(ErrorSensing::query_with_error(&self.sk, key))
    }
    fn memory_bytes(&self) -> usize {
        rsk_api::MemoryFootprint::memory_bytes(&self.sk)
    }
    fn insertion_failures(&self) -> u64 {
        self.sk.insertion_failures()
    }
    fn subpopulation_weight(&self, set: &KeySet) -> Option<CertifiedWeight> {
        Some(SubpopulationWeight::subpopulation_weight(&self.sk, set))
    }
}

/// Twin collectors ingest one half each; `Merge` folds them into a sealed
/// overlay that keeps answering (and absorbing) afterwards.
struct MergedInstance {
    config: ReliableConfig,
    sk: ConcurrentReliable<u64>,
}

impl ContenderInstance for MergedInstance {
    fn insert(&mut self, key: &u64, value: u64) {
        self.sk.insert_concurrent(key, value);
    }
    fn ingest(&mut self, stream: &[Item<u64>]) {
        let (first, second) = stream.split_at(stream.len() / 2);
        let twin = atomic_twin(self.config.clone());
        self.sk.insert_batch(&to_pairs(first));
        twin.insert_batch(&to_pairs(second));
        self.sk
            .merge(&twin)
            .expect("twin built from the identical configuration");
    }
    fn ingest_batched(&mut self, stream: &[Item<u64>], batch: usize) -> bool {
        if stream.is_empty() {
            return true; // capability probe: don't merge an empty twin
        }
        let (first, second) = stream.split_at(stream.len() / 2);
        let twin = atomic_twin(self.config.clone());
        self.sk.ingest_batched(to_pairs(first), batch);
        twin.ingest_batched(to_pairs(second), batch);
        self.sk
            .merge(&twin)
            .expect("twin built from the identical configuration");
        true
    }
    fn query(&self, key: &u64) -> u64 {
        self.sk.query_with_error(key).value
    }
    fn query_with_error(&self, key: &u64) -> Option<Estimate> {
        Some(self.sk.query_with_error(key))
    }
    fn memory_bytes(&self) -> usize {
        rsk_api::MemoryFootprint::memory_bytes(&self.sk)
    }
    fn insertion_failures(&self) -> u64 {
        self.sk.insertion_failures()
    }
    fn subpopulation_weight(&self, set: &KeySet) -> Option<CertifiedWeight> {
        Some(SubpopulationWeight::subpopulation_weight(&self.sk, set))
    }
}

/// Sequential sketch whose queries run through a distilled
/// [`SlimSummary`] — exactly what a collector holding only the shipped
/// slim digest can answer (the replication layer's query-only path).
/// The digest is re-distilled lazily after any insert, and
/// `memory_bytes` reports the digest's **wire size**, because that is
/// what the collector stores.
struct SlimInstance {
    sk: ReliableSketch<u64>,
    slim: core::cell::OnceCell<SlimSummary>,
}

impl SlimInstance {
    fn slim(&self) -> &SlimSummary {
        self.slim
            .get_or_init(|| SlimSummary::from_sequential(&self.sk))
    }
}

impl ContenderInstance for SlimInstance {
    fn insert(&mut self, key: &u64, value: u64) {
        StreamSummary::insert(&mut self.sk, key, value);
        self.slim = core::cell::OnceCell::new(); // digest is stale now
    }
    fn ingest(&mut self, stream: &[Item<u64>]) {
        for it in stream {
            StreamSummary::insert(&mut self.sk, &it.key, it.value);
        }
        self.slim = core::cell::OnceCell::new();
    }
    fn query(&self, key: &u64) -> u64 {
        self.slim().query_with_error(key).value
    }
    fn query_with_error(&self, key: &u64) -> Option<Estimate> {
        Some(self.slim().query_with_error(key))
    }
    fn memory_bytes(&self) -> usize {
        self.slim().to_bytes().len()
    }
    fn insertion_failures(&self) -> u64 {
        self.sk.insertion_failures()
    }
    fn subpopulation_weight(&self, set: &KeySet) -> Option<CertifiedWeight> {
        Some(SubpopulationWeight::subpopulation_weight(self.slim(), set))
    }
    fn diagnostics(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("slim_bytes", self.slim().to_bytes().len() as u64),
            ("slim_slack", self.slim().slack()),
        ]
    }
}

type BuildFn = Box<dyn Fn(usize, u64) -> Box<dyn ContenderInstance>>;

/// A registered algorithm configuration: label, metadata, and a factory
/// from `(memory_bytes, seed)` to a runnable instance.
pub struct Contender {
    label: String,
    meta: ContenderMeta,
    build: BuildFn,
}

fn reliable_config(memory_bytes: usize, lambda: u64, raw: bool, seed: u64) -> ReliableConfig {
    ReliableConfig {
        memory_bytes,
        lambda,
        mice_filter: if raw {
            None
        } else {
            Some(rsk_core::MiceFilterConfig::default())
        },
        seed,
        ..Default::default()
    }
}

/// Build a lock-free sketch over the *sequential* layer geometry, so the
/// atomic contenders run the exact elections `Ours` runs (the registry's
/// bit-parity claim). `ConcurrentReliable::new` would otherwise derive a
/// wider schedule from its denser 8-byte packed buckets.
fn atomic_twin(config: ReliableConfig) -> ConcurrentReliable<u64> {
    let geometry = config.geometry();
    ConcurrentReliable::with_geometry(config, geometry)
}

impl Contender {
    /// Display label, stable across figures and CSVs.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Registry metadata.
    pub fn meta(&self) -> &ContenderMeta {
        &self.meta
    }

    /// Build an empty instance at a memory budget.
    pub fn build(&self, memory_bytes: usize, seed: u64) -> Box<dyn ContenderInstance> {
        (self.build)(memory_bytes, seed)
    }

    /// Build and ingest in one step.
    pub fn run(
        &self,
        memory_bytes: usize,
        seed: u64,
        stream: &[Item<u64>],
    ) -> Box<dyn ContenderInstance> {
        let mut inst = self.build(memory_bytes, seed);
        inst.ingest(stream);
        inst
    }

    /// Adapt to the `SketchFactory` shape the `rsk-metrics` bisection
    /// searches consume (single-item ingestion through `StreamSummary`).
    pub fn sketch_factory(&self) -> impl Fn(usize, u64) -> Box<dyn Sketch<u64>> + '_ {
        move |mem, seed| {
            Box::new(ContenderSketch {
                label: self.label.clone(),
                inner: self.build(mem, seed),
            })
        }
    }

    /// The paper-default sequential ReliableSketch (`Ours`).
    pub fn ours(lambda: u64) -> Self {
        Self {
            label: "Ours".into(),
            meta: ContenderMeta::ours_sequential(),
            build: Box::new(move |mem, seed| {
                Box::new(OursInstance(ReliableSketch::<u64>::new(reliable_config(
                    mem, lambda, false, seed,
                ))))
            }),
        }
    }

    /// The no-mice-filter sequential variant (`Ours(Raw)`).
    pub fn ours_raw(lambda: u64) -> Self {
        Self {
            label: "Ours(Raw)".into(),
            meta: ContenderMeta {
                filtered: false,
                ..ContenderMeta::ours_sequential()
            },
            build: Box::new(move |mem, seed| {
                Box::new(OursInstance(ReliableSketch::<u64>::new(reliable_config(
                    mem, lambda, true, seed,
                ))))
            }),
        }
    }

    /// The sequential sketch with the certified top-K layer enabled
    /// (`OursTopK`): identical point-query accuracy to `Ours`, plus a
    /// Space-Saving heavy-hitter summary whose per-entry error fields
    /// are the sketch's certified bounds. Deterministic.
    pub fn ours_topk(lambda: u64, capacity: usize) -> Self {
        Self {
            label: "OursTopK".into(),
            meta: ContenderMeta::ours_sequential(),
            build: Box::new(move |mem, seed| {
                Box::new(OursInstance(
                    ReliableSketch::<u64>::new(reliable_config(mem, lambda, false, seed))
                        .with_top_k(capacity),
                ))
            }),
        }
    }

    /// Space-Saving as a top-K contender (`SS`), answering through its
    /// native monitored-entry listing — the baseline the certified layer
    /// is raced against. Its per-entry error fields are inherited
    /// min-counts, with no sketch-certified bound behind them.
    pub fn spacesaving_topk() -> Self {
        Self {
            label: "SS".into(),
            meta: ContenderMeta {
                filtered: false,
                sensing: false,
                baseline: true,
                ..ContenderMeta::ours_sequential()
            },
            build: Box::new(move |mem, seed| {
                Box::new(SpaceSavingInstance(SpaceSaving::new(mem, seed)))
            }),
        }
    }

    /// One of the nine competitor baselines.
    pub fn baseline(b: Baseline) -> Self {
        Self {
            label: b.label().to_string(),
            meta: ContenderMeta {
                filtered: false, // no mice-filter concept in the baselines
                sensing: false,
                baseline: true,
                ..ContenderMeta::ours_sequential()
            },
            build: Box::new(move |mem, seed| Box::new(BaselineInstance(b.build(mem, seed)))),
        }
    }

    /// The lock-free sketch (`OursAtomic` / `OursAtomic(Raw)`) fed by
    /// `workers` producers. 1 worker is deterministic and bit-equal to the
    /// sequential twin; more workers interleave elections (volatile).
    pub fn atomic(lambda: u64, raw: bool, workers: usize) -> Self {
        let base = if raw { "OursAtomic(Raw)" } else { "OursAtomic" };
        let label = if workers == 1 {
            base.to_string()
        } else {
            format!("{base}@{workers}w")
        };
        Self {
            label,
            meta: ContenderMeta {
                mode: IngestMode::Parallel { workers },
                filtered: !raw,
                deterministic: workers == 1,
                ..ContenderMeta::ours_sequential()
            },
            build: Box::new(move |mem, seed| {
                Box::new(AtomicInstance {
                    sk: atomic_twin(reliable_config(mem, lambda, raw, seed)),
                    workers,
                })
            }),
        }
    }

    /// `shards` lock-free shards splitting the budget, ingested by
    /// `workers` threads, heaviest shard first. Deterministic at every
    /// worker count.
    pub fn sharded(lambda: u64, shards: usize, workers: usize) -> Self {
        Self {
            label: format!("Ours(x{shards})@{workers}w"),
            meta: ContenderMeta {
                mode: IngestMode::Parallel { workers },
                shards,
                ..ContenderMeta::ours_sequential()
            },
            build: Box::new(move |mem, seed| {
                Box::new(ShardedInstance {
                    sk: ShardedReliable::new(reliable_config(mem, lambda, false, seed), shards),
                    workers,
                })
            }),
        }
    }

    /// The Tofino behavioural model (`Ours(Tofino)`), registered
    /// **read-only**: it appears in `repro contenders` and drives
    /// the fig20 testbed sweep through the registry, but stays out of the
    /// CPU accuracy registries because its tolerance is byte-valued
    /// (`Λ_bytes`), not packet-valued. The factory maps `memory_bytes`
    /// to switch SRAM.
    pub fn tofino(lambda_bytes: u64) -> Self {
        Self {
            label: "Ours(Tofino)".into(),
            meta: ContenderMeta {
                filtered: false, // the switch program runs the raw layers
                dataplane: true,
                ..ContenderMeta::ours_sequential()
            },
            build: Box::new(move |mem, seed| {
                Box::new(TofinoInstance(TofinoReliable::new(mem, lambda_bytes, seed)))
            }),
        }
    }

    /// Two-generation concurrent window (`OursEpoch`): rotate mid-stream,
    /// wait-free sealed-generation reads. Deterministic at 1 worker.
    pub fn epoched(lambda: u64, workers: usize) -> Self {
        let label = if workers == 1 {
            "OursEpoch".to_string()
        } else {
            format!("OursEpoch@{workers}w")
        };
        Self {
            label,
            meta: ContenderMeta {
                mode: IngestMode::Windowed { workers },
                deterministic: workers == 1,
                ..ContenderMeta::ours_sequential()
            },
            build: Box::new(move |mem, seed| {
                Box::new(EpochedInstance {
                    sk: EpochedConcurrent::new(reliable_config(mem, lambda, false, seed)),
                    workers,
                })
            }),
        }
    }

    /// Query-only slim digest (`OursSlim`): the sequential sketch ingests
    /// at the full budget, then every query runs through a distilled
    /// [`SlimSummary`] — the SF-sketch-style replication payload.
    /// Deterministic; memory is reported as the digest's wire size.
    pub fn slim(lambda: u64) -> Self {
        Self {
            label: "OursSlim".into(),
            meta: ContenderMeta::ours_sequential(),
            build: Box::new(move |mem, seed| {
                Box::new(SlimInstance {
                    sk: ReliableSketch::<u64>::new(reliable_config(mem, lambda, false, seed)),
                    slim: core::cell::OnceCell::new(),
                })
            }),
        }
    }

    /// Merged-overlay configuration (`OursMerged`): twin collectors take
    /// one half-stream each, then fold via `Merge`. Deterministic.
    pub fn merged(lambda: u64) -> Self {
        Self {
            label: "OursMerged".into(),
            meta: ContenderMeta {
                mode: IngestMode::Merged,
                ..ContenderMeta::ours_sequential()
            },
            build: Box::new(move |mem, seed| {
                let config = reliable_config(mem, lambda, false, seed);
                Box::new(MergedInstance {
                    sk: atomic_twin(config.clone()),
                    config,
                })
            }),
        }
    }
}

impl core::fmt::Debug for Contender {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Contender")
            .field("label", &self.label)
            .field("meta", &self.meta)
            .finish_non_exhaustive()
    }
}

/// A contender instance viewed as an ordinary `Box<dyn Sketch<u64>>` —
/// the adapter behind [`Contender::sketch_factory`], which lets the
/// memory-bisection searches of `rsk-metrics` probe any registered
/// contender.
pub struct ContenderSketch {
    label: String,
    inner: Box<dyn ContenderInstance>,
}

impl StreamSummary<u64> for ContenderSketch {
    fn insert(&mut self, key: &u64, value: u64) {
        self.inner.insert(key, value);
    }
    fn query(&self, key: &u64) -> u64 {
        self.inner.query(key)
    }
}

impl rsk_api::MemoryFootprint for ContenderSketch {
    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
}

impl rsk_api::Algorithm for ContenderSketch {
    fn name(&self) -> String {
        self.label.clone()
    }
}

/// The deterministic concurrent lineup: atomic filtered + raw at 1
/// worker, sharded at the context's largest worker count, a windowed
/// configuration, and a merged overlay. The sharded contender answers
/// bit-identically at every worker count (`tests/concurrent_ingest.rs`
/// pins it), so accuracy tables carry one row of it;
/// `every_worker_count` registers it at each count of the context
/// instead, for the tables that set the counts side by side (Figure 10's
/// throughput, the concurrent-path target). Honors the context's
/// `--contenders` filter.
pub fn concurrent_contenders(
    ctx: &ExpContext,
    lambda: u64,
    every_worker_count: bool,
) -> Vec<Contender> {
    let mut v = vec![
        Contender::atomic(lambda, false, 1),
        Contender::atomic(lambda, true, 1),
    ];
    let largest = ctx.workers.iter().max();
    for w in &ctx.workers {
        if every_worker_count || Some(w) == largest {
            v.push(Contender::sharded(lambda, DEFAULT_SHARDS, *w));
        }
    }
    v.push(Contender::epoched(lambda, 1));
    v.push(Contender::merged(lambda));
    v.retain(|c| ctx.keep(c.label()));
    v
}

/// Shard count of the registered sharded contenders (splitting the same
/// total budget as every other contender, for a fair memory axis).
pub const DEFAULT_SHARDS: usize = 4;

/// The dataplane model lineup — registered read-only (listing + testbed
/// figure; outside the CPU accuracy registries, whose Λ is
/// packet-valued). `lambda_bytes` is the byte-domain tolerance.
pub fn dataplane_contenders(ctx: &ExpContext, lambda_bytes: u64) -> Vec<Contender> {
    let mut v = vec![Contender::tofino(lambda_bytes)];
    v.retain(|c| ctx.keep(c.label()));
    v
}

/// The full accuracy registry: `Ours`, the given baselines, then the
/// concurrent lineup. This is the row order of every registry-driven
/// table (`Ours` first, as the figures' reference series).
pub fn full_registry(ctx: &ExpContext, baselines: &[Baseline], lambda: u64) -> Vec<Contender> {
    let mut v = sequential_registry(ctx, baselines, lambda);
    v.extend(concurrent_contenders(ctx, lambda, false));
    if ctx.keep("OursSlim") {
        v.push(Contender::slim(lambda));
    }
    v
}

/// `Ours` plus baselines only — the parameter studies and bisection
/// searches, where multi-worker ingestion has no bearing on the result.
pub fn sequential_registry(
    ctx: &ExpContext,
    baselines: &[Baseline],
    lambda: u64,
) -> Vec<Contender> {
    let mut v = vec![Contender::ours(lambda)];
    for &b in baselines {
        v.push(Contender::baseline(b));
    }
    v.retain(|c| ctx.keep(c.label()));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsk_stream::Dataset;

    fn stream() -> Vec<Item<u64>> {
        Dataset::Hadoop.generate(30_000, 5)
    }

    #[test]
    fn every_constructor_builds_and_answers() {
        let s = stream();
        let truth = rsk_stream::GroundTruth::from_items(&s);
        let contenders = [
            Contender::ours(25),
            Contender::ours_raw(25),
            Contender::baseline(Baseline::CmAcc),
            Contender::atomic(25, false, 1),
            Contender::atomic(25, true, 2),
            Contender::sharded(25, 4, 2),
            Contender::epoched(25, 1),
            Contender::merged(25),
            Contender::slim(25),
        ];
        for c in &contenders {
            let inst = c.run(128 * 1024, 1, &s);
            assert!(inst.memory_bytes() > 0, "{}", c.label());
            // every non-baseline preserves the one-sided bound at this
            // generous budget: estimates never undershoot the truth
            if !c.meta().baseline {
                assert_eq!(inst.insertion_failures(), 0, "{}", c.label());
                for (k, f) in truth.iter().take(500) {
                    let q = inst.query(k);
                    assert!(q >= f, "{} undershoots key {k}: {q} < {f}", c.label());
                }
            }
        }
    }

    #[test]
    fn labels_and_meta_encode_configuration() {
        assert_eq!(Contender::atomic(25, false, 1).label(), "OursAtomic");
        assert_eq!(Contender::atomic(25, true, 4).label(), "OursAtomic(Raw)@4w");
        assert_eq!(Contender::sharded(25, 4, 2).label(), "Ours(x4)@2w");
        assert!(Contender::atomic(25, false, 1).meta().deterministic);
        assert!(!Contender::atomic(25, false, 4).meta().deterministic);
        assert!(Contender::sharded(25, 8, 8).meta().deterministic);
        assert!(!Contender::baseline(Baseline::SpaceSaving).meta().sensing);
        assert_eq!(Contender::epoched(25, 2).meta().mode.describe(), "win:2");
    }

    #[test]
    fn atomic_one_worker_is_bitwise_sequential() {
        let s = stream();
        let seq = Contender::ours(25).run(256 * 1024, 9, &s);
        let atomic = Contender::atomic(25, false, 1).run(256 * 1024, 9, &s);
        let raw_seq = Contender::ours_raw(25).run(256 * 1024, 9, &s);
        let raw_atomic = Contender::atomic(25, true, 1).run(256 * 1024, 9, &s);
        for it in &s {
            assert_eq!(seq.query(&it.key), atomic.query(&it.key));
            assert_eq!(raw_seq.query(&it.key), raw_atomic.query(&it.key));
        }
    }

    #[test]
    fn sharded_ingest_is_worker_count_invariant() {
        let s = stream();
        let w1 = Contender::sharded(25, 4, 1).run(256 * 1024, 3, &s);
        let w4 = Contender::sharded(25, 4, 4).run(256 * 1024, 3, &s);
        for it in &s {
            assert_eq!(w1.query(&it.key), w4.query(&it.key));
        }
    }

    #[test]
    fn policy_and_dataplane_metadata() {
        let hw = Contender::tofino(1_000);
        assert_eq!(hw.label(), "Ours(Tofino)");
        assert!(hw.meta().dataplane && !hw.meta().baseline);
        let ctx = ExpContext::default();
        assert_eq!(dataplane_contenders(&ctx, 1_000).len(), 1);
        // read-only: never part of the CPU accuracy registry
        let reg = crate::contender::full_registry(&ctx, &[], 25);
        assert!(reg.iter().all(|c| !c.meta().dataplane));
    }

    #[test]
    fn tofino_contender_runs_and_reports_recirculations() {
        let s = stream();
        let inst = Contender::tofino(100).run(64 * 1024, 1, &s);
        assert!(inst.memory_bytes() > 0);
        assert!(inst.query_with_error(&s[0].key).is_some(), "sensing model");
        let diags = inst.diagnostics();
        assert_eq!(diags[0].0, "recirculations");
    }

    #[test]
    fn windowed_and_merged_cover_the_whole_stream() {
        let s = stream();
        let truth = rsk_stream::GroundTruth::from_items(&s);
        for c in [Contender::epoched(25, 1), Contender::merged(25)] {
            let inst = c.run(512 * 1024, 7, &s);
            for (k, f) in truth.iter().take(300) {
                let est = inst.query_with_error(k).expect("sensing contender");
                assert!(est.contains(f), "{}: {f} ∉ {est:?}", c.label());
            }
        }
    }

    #[test]
    fn slim_contender_answers_through_the_digest() {
        let s = stream();
        let truth = rsk_stream::GroundTruth::from_items(&s);
        let ours = Contender::ours(25).run(256 * 1024, 7, &s);
        let slim = Contender::slim(25).run(256 * 1024, 7, &s);
        for (k, f) in truth.iter().take(300) {
            let est = slim.query_with_error(k).expect("sensing contender");
            assert!(
                est.contains(f) || est.value.saturating_sub(f) <= slim.diagnostic("slim_slack"),
                "slim answer for {k} strays: {f} vs {est:?}"
            );
            // the digest never answers below the full sketch's floor
            assert!(slim.query(k) >= ours.query(k));
        }
        // a collector stores the wire digest, not the full sketch
        assert!(
            slim.memory_bytes() * 3 < ours.memory_bytes(),
            "digest {} B vs sketch {} B",
            slim.memory_bytes(),
            ours.memory_bytes()
        );
        assert!(slim.diagnostic("slim_bytes") > 0);
    }

    #[test]
    fn sketch_factory_adapts_to_metrics_searches() {
        let c = Contender::sharded(25, 2, 1);
        let factory = c.sketch_factory();
        let mut sk = factory(128 * 1024, 1);
        sk.insert(&7, 40);
        assert!(sk.query(&7) >= 40);
        assert_eq!(rsk_api::Algorithm::name(sk.as_ref()), "Ours(x2)@1w");
    }
}
