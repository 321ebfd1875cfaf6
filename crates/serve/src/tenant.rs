//! The sharded multi-tenant sketch map.
//!
//! Each tenant owns one [`EpochedConcurrent`] window, constructed
//! through [`reliablesketch::builder()`], which starts rsk-core's one
//! [`reliablesketch::SketchBuilder`] — the exact construction path
//! applications and the quickstart use, so a tenant's sketch is
//! configured like any other.
//!
//! The map is striped: tenant ids hash across `stripes` independent
//! `RwLock<HashMap<…>>` buckets so tenant *lookup* never serialises the
//! data plane. Within a tenant, a second `RwLock` arbitrates the only
//! two access modes the window has:
//!
//! - **shared** (`read()`): batched ingest via `insert_shared` and
//!   certified queries via `query_with_error_concurrent` — both take
//!   `&self` and run lock-free inside the sketch, so any number of
//!   connections proceed in parallel;
//! - **exclusive** (`write()`): `Seal` (epoch rotation) and `Merge`,
//!   the two genuinely exclusive operations.
//!
//! Merges lock the two tenants in ascending-id order, so concurrent
//! `Merge {a→b}` / `Merge {b→a}` requests cannot deadlock.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;
use rsk_api::{
    CertifiedTopK, CertifiedWeight, ConcurrentErrorSensing, Estimate, KeySet, MergeError,
    Replicate, ReplicateError, SubpopulationWeight, TopK,
};
use rsk_core::EpochedConcurrent;

use crate::protocol::SnapshotKind;

/// Top-K slots every tenant window tracks. The layer is always on —
/// its memory cost is `capacity × 24` bytes plus the index, two orders
/// of magnitude under the default per-tenant budget — so the `TopK`
/// frame needs no per-tenant configuration.
pub const DEFAULT_TOPK_CAPACITY: usize = 128;

/// Sketch parameters every tenant is built with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchSpec {
    /// Memory budget per tenant window generation, in bytes.
    pub memory_bytes: usize,
    /// Error tolerance Λ.
    pub error_tolerance: u64,
    /// Master hash seed (shared by all tenants so windows stay
    /// merge-compatible).
    pub seed: u64,
}

impl Default for SketchSpec {
    fn default() -> Self {
        Self {
            memory_bytes: 256 * 1024,
            error_tolerance: 25,
            seed: 0x5eed_5eed,
        }
    }
}

impl SketchSpec {
    fn build(&self) -> EpochedConcurrent<u64> {
        reliablesketch::builder()
            .memory_bytes(self.memory_bytes)
            .error_tolerance(self.error_tolerance)
            .seed(self.seed)
            .top_k(DEFAULT_TOPK_CAPACITY)
            .build_epoched_concurrent::<u64>()
    }
}

/// A certified answer plus the window metadata a client needs to
/// interpret it (see `docs/PROTOCOL.md` § Certification).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertifiedAnswer {
    /// Point estimate: never an undercount beyond `slack`.
    pub value: u64,
    /// Maximum possible overcount baked into `value`.
    pub max_possible_error: u64,
    /// The value the window's insertion failures dropped. Tenants run
    /// `EmergencyPolicy::Disabled`, which drops a failed insertion's
    /// remainder, so `value` can undercount by up to this much; 0 while
    /// no insertion has failed.
    pub slack: u64,
    /// Epoch index the answer was computed at.
    pub epoch: u64,
}

impl CertifiedAnswer {
    /// Does the certified interval (widened by `slack`) contain `truth`?
    pub fn contains(&self, truth: u64) -> bool {
        let lower = self
            .value
            .saturating_sub(self.max_possible_error + self.slack);
        lower <= truth && truth <= self.value.saturating_add(self.slack)
    }
}

/// One tenant: an id and its epoch window.
pub struct Tenant {
    id: u32,
    window: RwLock<EpochedConcurrent<u64>>,
}

impl Tenant {
    /// The tenant id this window serves.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Fold a batch of updates into the active generation (shared lock;
    /// the inserts themselves are lock-free) through the window's batch
    /// prefix, bit-identical to an item loop.
    pub fn ingest(&self, items: &[(u64, u64)]) {
        self.window.read().insert_batch(items);
    }

    /// Point estimate for `key` across the window.
    pub fn query(&self, key: u64) -> u64 {
        self.certified(key).value
    }

    /// Certified estimate for `key`, with the window's dropped value as
    /// its slack and the epoch attached.
    pub fn certified(&self, key: u64) -> CertifiedAnswer {
        let window = self.window.read();
        let est: Estimate = window.query_with_error_concurrent(&key);
        CertifiedAnswer {
            value: est.value,
            max_possible_error: est.max_possible_error,
            slack: window.dropped_value(),
            epoch: window.epoch(),
        }
    }

    /// The `k` heaviest keys of the visible window with their certified
    /// errors, plus the window's dropped value as the slack and the
    /// epoch. The answer is computed under the shared lock: candidate
    /// collection takes each generation's summary mutex (the sealed
    /// one's is never contended), and each candidate is then answered
    /// by a lock-free window point query.
    pub fn top_k(&self, k: usize) -> (CertifiedTopK<u64>, u64, u64) {
        let window = self.window.read();
        let top = window.certified_top_k(k);
        (top, window.dropped_value(), window.epoch())
    }

    /// Certified subpopulation weight of `set` across the visible
    /// window, with the window's epoch attached. Answered under the
    /// shared lock — the aggregate walks the same lock-free read paths
    /// as certified point queries, and its `hi` already charges the
    /// window's dropped value.
    pub fn subpop(&self, set: &KeySet) -> (CertifiedWeight, u64) {
        let window = self.window.read();
        (window.subpopulation_weight(set), window.epoch())
    }

    /// Rotate the epoch window; returns the new active epoch index.
    pub fn seal(&self) -> u64 {
        let mut window = self.window.write();
        window.rotate();
        window.epoch()
    }

    /// Capture a replication payload of this tenant's window.
    ///
    /// `Full` and `Slim` read the window under the shared lock (captures
    /// are lock-free inside the sketch); `Delta` takes the exclusive
    /// lock because cutting updates the dirty-bitmap baseline.
    ///
    /// # Errors
    /// Propagates the sketch layer's [`ReplicateError`].
    pub fn replicate_payload(&self, kind: SnapshotKind) -> Result<Vec<u8>, ReplicateError> {
        match kind {
            SnapshotKind::Full => self.window.read().snapshot_bytes(),
            SnapshotKind::Delta => self.window.write().delta_bytes(),
            SnapshotKind::Slim => self.window.read().slim_bytes(),
        }
    }

    /// Apply a shipped replication payload (full snapshot or delta —
    /// payloads are self-describing) to this tenant's window.
    ///
    /// # Errors
    /// Propagates the sketch layer's [`ReplicateError`]; on error the
    /// window is untouched.
    pub fn apply_replica(&self, payload: &[u8]) -> Result<(), ReplicateError> {
        self.window.write().apply_bytes(payload)
    }

    /// Insertion failures accumulated across the window's generations.
    pub fn insertion_failures(&self) -> u64 {
        self.window.read().insertion_failures()
    }
}

/// Striped tenant id → [`Tenant`] map.
pub struct TenantMap {
    stripes: Vec<RwLock<HashMap<u32, Arc<Tenant>>>>,
    spec: SketchSpec,
    /// The never-written window that reads of unknown tenants answer
    /// from (see [`Self::get_or_empty`]), built from `spec` on the first
    /// such read. It stands in for every unknown id, so its own `id()`
    /// (0) names none of them.
    empty: OnceLock<Arc<Tenant>>,
}

impl TenantMap {
    /// Create a map with `stripes` lock stripes (rounded up to 1).
    pub fn new(stripes: usize, spec: SketchSpec) -> Self {
        let stripes = stripes.max(1);
        Self {
            stripes: (0..stripes).map(|_| RwLock::new(HashMap::new())).collect(),
            spec,
            empty: OnceLock::new(),
        }
    }

    fn fresh(&self, tenant: u32) -> Arc<Tenant> {
        Arc::new(Tenant {
            id: tenant,
            window: RwLock::new(self.spec.build()),
        })
    }

    fn stripe(&self, tenant: u32) -> &RwLock<HashMap<u32, Arc<Tenant>>> {
        // Tenant ids are small and often sequential; spread them with a
        // multiplicative mix so neighbouring ids land on distinct stripes.
        let mixed = (u64::from(tenant)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.stripes[(mixed >> 32) as usize % self.stripes.len()]
    }

    /// Fetch `tenant`'s window, materialising it on first touch.
    pub fn get_or_create(&self, tenant: u32) -> Arc<Tenant> {
        let stripe = self.stripe(tenant);
        if let Some(t) = stripe.read().get(&tenant) {
            return Arc::clone(t);
        }
        let mut map = stripe.write();
        Arc::clone(map.entry(tenant).or_insert_with(|| self.fresh(tenant)))
    }

    /// Fetch `tenant`'s window only if it already exists.
    pub fn get(&self, tenant: u32) -> Option<Arc<Tenant>> {
        self.stripe(tenant).read().get(&tenant).cloned()
    }

    /// Fetch `tenant`'s window for a read without materialising it. A
    /// tenant nobody wrote to has truth 0 for every key, so one shared
    /// empty window answers its reads exactly, with the answers a freshly
    /// created window would give. Callers must only read through it.
    pub(crate) fn get_or_empty(&self, tenant: u32) -> Arc<Tenant> {
        self.get(tenant)
            .unwrap_or_else(|| Arc::clone(self.empty.get_or_init(|| self.fresh(0))))
    }

    /// Tenants materialised so far.
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.read().len()).sum()
    }

    /// True when no tenant has been materialised.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The spec every tenant window is built from.
    pub fn spec(&self) -> &SketchSpec {
        &self.spec
    }

    /// Fold tenant `src`'s whole window (both generations) into tenant
    /// `dst`'s active generation. Locks are taken in ascending tenant-id
    /// order so opposing merges cannot deadlock.
    pub fn merge(&self, dst: u32, src: u32) -> Result<(), MergeError> {
        if dst == src {
            return Err(MergeError::Incompatible(
                "cannot merge a tenant into itself".into(),
            ));
        }
        let dst_t = self.get_or_create(dst);
        let src_t = self.get_or_create(src);
        if dst < src {
            let mut d = dst_t.window.write();
            let s = src_t.window.read();
            d.merge_window_from(&s)
        } else {
            let s = src_t.window.read();
            let mut d = dst_t.window.write();
            d.merge_window_from(&s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> TenantMap {
        TenantMap::new(
            8,
            SketchSpec {
                memory_bytes: 64 * 1024,
                error_tolerance: 25,
                seed: 99,
            },
        )
    }

    #[test]
    fn tenants_materialise_once_and_stay_isolated() {
        let map = map();
        assert!(map.is_empty());
        let a = map.get_or_create(1);
        let b = map.get_or_create(2);
        assert!(Arc::ptr_eq(&a, &map.get_or_create(1)));
        assert_eq!(map.len(), 2);

        a.ingest(&[(7, 100)]);
        assert!(a.certified(7).contains(100));
        // Tenant 2 never saw key 7.
        assert!(b.certified(7).contains(0));
        assert_eq!(b.certified(7).value, 0);
    }

    #[test]
    fn seal_freezes_and_queries_span_the_window() {
        let map = map();
        let t = map.get_or_create(9);
        t.ingest(&[(1, 50)]);
        let e0 = t.certified(1).epoch;
        assert_eq!(t.seal(), e0 + 1);
        t.ingest(&[(1, 25)]);
        let ans = t.certified(1);
        assert!(ans.contains(75), "window spans both generations: {ans:?}");
        // No insertion failed, so no answer is widened.
        assert_eq!(ans.slack, 0);
    }

    #[test]
    fn merge_folds_both_generations_and_rejects_self() {
        let map = map();
        let a = map.get_or_create(1);
        let b = map.get_or_create(2);
        a.ingest(&[(5, 10)]);
        a.seal();
        a.ingest(&[(5, 20)]);
        b.ingest(&[(5, 7)]);
        map.merge(2, 1).unwrap();
        assert!(b.certified(5).contains(37));
        // Donor unchanged.
        assert!(a.certified(5).contains(30));
        assert!(matches!(map.merge(3, 3), Err(MergeError::Incompatible(_))));
    }

    #[test]
    fn top_k_spans_the_window_and_certifies() {
        let map = map();
        let t = map.get_or_create(4);
        // elephant split across a seal, plus mice noise
        t.ingest(&[(0xbeef, 4_000)]);
        for m in 0..200u64 {
            t.ingest(&[(m, 1)]);
        }
        t.seal();
        t.ingest(&[(0xbeef, 2_000), (0xcafe, 3_000)]);
        let (top, slack, epoch) = t.top_k(2);
        assert_eq!(epoch, 1);
        let keys: Vec<u64> = top.entries.iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![0xbeef, 0xcafe]);
        assert!(top.entries[0].contains(6_000));
        assert!(top.entries[1].contains(3_000));
        assert!(top.recall_certified());
        // same slack contract as certified point queries
        assert_eq!(slack, t.certified(0xbeef).slack);
    }

    #[test]
    fn subpop_spans_the_window_and_certifies() {
        let map = map();
        let t = map.get_or_create(6);
        // Subset weight split across a seal.
        t.ingest(&[(10, 100), (11, 200), (500, 9)]);
        t.seal();
        t.ingest(&[(10, 50), (12, 300)]);

        let (w, epoch) = t.subpop(&KeySet::range(10, 12));
        assert_eq!(epoch, 1);
        assert!(w.contains(650), "{w:?}");

        // Empty subsets are exactly zero.
        let (empty, _) = t.subpop(&KeySet::explicit(vec![]));
        assert_eq!(empty, CertifiedWeight::zero());

        // Subset answers charge the dropped value onto `hi`, never slack.
        let (three, _) = t.subpop(&KeySet::explicit(vec![10, 11, 12]));
        assert_eq!(three.slack, 0);
    }

    #[test]
    fn answers_after_insertion_failures_charge_the_dropped_value() {
        // Weights past 2^28 overflow the lock-free count field; tenants
        // run `EmergencyPolicy::Disabled`, so each clipped excess is
        // dropped, and every answer must still contain its truth.
        let map = map();
        let t = map.get_or_create(3);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for round in 0..2u64 {
            let mut batch: Vec<(u64, u64)> = (0..300u64).map(|k| (k, 1 + k % 3)).collect();
            batch.extend((1..=8u64).map(|k| (1_000 + k, (1 << 28) + k * 1_000 + round)));
            for &(k, v) in &batch {
                *truth.entry(k).or_insert(0) += v;
            }
            t.ingest(&batch);
            if round == 0 {
                t.seal();
            }
        }
        let slack = t.certified(0).slack;
        assert!(slack > 0, "the heavy weights must fail");
        for (&k, &f) in &truth {
            let ans = t.certified(k);
            assert_eq!(ans.slack, slack);
            assert!(ans.contains(f), "key {k}: truth {f} ∉ {ans:?}");
        }
        let (top, top_slack, _) = t.top_k(16);
        assert_eq!(top_slack, slack);
        assert!(!top.entries.is_empty());
        for e in &top.entries {
            let f = truth[&e.key];
            assert!(
                e.count.saturating_sub(e.error + slack) <= f && f <= e.count + slack,
                "entry {e:?}: truth {f} outside the interval ± {slack}"
            );
        }
    }

    #[test]
    fn opposing_merges_do_not_deadlock() {
        let map = Arc::new(map());
        for t in [1u32, 2] {
            map.get_or_create(t).ingest(&[(1, 1)]);
        }
        let m1 = Arc::clone(&map);
        let m2 = Arc::clone(&map);
        let h1 = std::thread::spawn(move || {
            for _ in 0..200 {
                m1.merge(1, 2).unwrap();
            }
        });
        let h2 = std::thread::spawn(move || {
            for _ in 0..200 {
                m2.merge(2, 1).unwrap();
            }
        });
        h1.join().unwrap();
        h2.join().unwrap();
    }
}
