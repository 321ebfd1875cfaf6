//! Parameterization of ReliableSketch (paper §3.2 "Parameter
//! Configurations" and §6.1.1 experimental defaults).
//!
//! The structure is governed by:
//!
//! * `Λ` (`lambda`) — the user's error tolerance;
//! * `R_w` — geometric decay rate of layer widths (`w_i = ⌈W(R_w−1)/R_w^i⌉`);
//! * `R_λ` — geometric decay rate of lock thresholds
//!   (`λ_i = ⌊Λ(R_λ−1)/R_λ^i⌋`, so `Σ λ_i ≤ Λ`);
//! * `d` — the number of layers (paper recommends `d ≥ 7`; `Auto` derives
//!   it from the width decay);
//! * the mice filter (§3.3) and emergency store (§3.3) options.
//!
//! Defaults follow §6.1.1: `R_w = 2`, `R_λ = 2.5`, `Λ = 25`, mice filter
//! on 20 % of memory with 2-bit counters and 2 arrays.

use crate::epoch::Generation;
use crate::geometry::LayerGeometry;
use crate::{
    ConcurrentReliable, EpochedConcurrent, EpochedReliable, ReliableSketch, ShardedReliable,
};
use rsk_api::Key;

/// Modeled size of one Error-Sensible bucket in bytes: 32-bit `YES` +
/// 16-bit `NO` + 32-bit `ID` (§6.1.1) = 80 bits = 10 bytes.
pub const BUCKET_BYTES: usize = 10;

/// How the number of layers is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Depth {
    /// Derive `d` from the width decay: the last layer is the deepest one
    /// whose nominal (un-ceiled) width is still ≥ 1, clamped to `[7, 32]`.
    Auto,
    /// Use exactly this many layers (clamped to ≥ 1).
    Fixed(usize),
}

/// Mice-filter configuration (§3.3 accuracy optimization, §6.1.1 defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiceFilterConfig {
    /// Fraction of the total memory budget given to the filter
    /// (paper default: 20 %).
    pub memory_fraction: f64,
    /// Counter width in bits (paper experiments: 2; §3.3 notes 8-bit
    /// counters are adequate in general). Saturation value is
    /// `min(2^bits − 1, λ_1)`.
    pub counter_bits: u32,
    /// Number of CU arrays (the paper's Figure 16 uses a "2-array mice
    /// filter").
    pub arrays: usize,
}

impl Default for MiceFilterConfig {
    fn default() -> Self {
        Self {
            memory_fraction: 0.20,
            counter_bits: 2,
            arrays: 2,
        }
    }
}

/// What to do with the value that survives all `d` layers (an *insertion
/// failure*, §3.3 "Emergency Solution").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmergencyPolicy {
    /// Drop the remainder and only count the failure — the paper's
    /// accuracy-evaluation setting ("chose not to include them in our
    /// accuracy evaluation", §3.3).
    Disabled,
    /// Record remainders exactly in a hash table (CPU deployment).
    ExactTable,
    /// Record remainders in a bounded SpaceSaving-style table with the
    /// given number of slots (Theorem 4 sizes it as `Δ₂ ln(1/Δ)`).
    SpaceSaving(usize),
}

/// Full configuration of a [`crate::ReliableSketch`]. Replication
/// payloads carry every field, and [`Self::geometry`] floors the layer
/// thresholds exactly as §3.2 does.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliableConfig {
    /// Total memory budget in bytes (filter + bucket layers).
    pub memory_bytes: usize,
    /// Error tolerance `Λ`.
    pub lambda: u64,
    /// Width decay rate `R_w` (recommended range 2–10, best ≈ 2; §6.4.1).
    pub r_w: f64,
    /// Threshold decay rate `R_λ` (recommended range 2–10, best ≈ 2.5;
    /// §6.4.2).
    pub r_lambda: f64,
    /// Layer-count policy.
    pub depth: Depth,
    /// Mice filter (§3.3); `None` is the paper's "Raw" variant.
    pub mice_filter: Option<MiceFilterConfig>,
    /// Emergency store policy.
    pub emergency: EmergencyPolicy,
    /// Master seed for the per-layer hash family.
    pub seed: u64,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        Self {
            memory_bytes: 1 << 20, // 1 MB, the paper's default
            lambda: 25,            // the paper's default Λ
            r_w: 2.0,
            r_lambda: 2.5,
            depth: Depth::Auto,
            mice_filter: Some(MiceFilterConfig::default()),
            emergency: EmergencyPolicy::Disabled,
            seed: DEFAULT_SEED,
        }
    }
}

/// Stable default hash seed (experiments override it per repetition).
pub const DEFAULT_SEED: u64 = 0x5eed_0f5e_ed0f_5eed;

impl ReliableConfig {
    /// Start building a configuration from defaults.
    pub fn builder() -> SketchBuilder {
        SketchBuilder {
            config: Self::default(),
            top_k: None,
        }
    }

    /// Memory reserved for the mice filter, in bytes.
    pub fn filter_bytes(&self) -> usize {
        match &self.mice_filter {
            Some(f) => (self.memory_bytes as f64 * f.memory_fraction) as usize,
            None => 0,
        }
    }

    /// Memory available to the bucket layers, in bytes.
    pub fn layer_bytes(&self) -> usize {
        self.memory_bytes - self.filter_bytes()
    }

    /// Total number of Error-Sensible buckets the budget affords.
    pub fn total_buckets(&self) -> usize {
        self.layer_bytes() / BUCKET_BYTES
    }

    /// Saturation value of the mice filter: `min(2^bits − 1, λ₁)`.
    ///
    /// Returns 0 when no filter is configured.
    pub fn filter_threshold(&self) -> u64 {
        match &self.mice_filter {
            None => 0,
            Some(f) => {
                let cap = (1u64 << f.counter_bits) - 1;
                let lambda1 = nominal_lambda1(self.lambda, self.r_lambda);
                cap.min(lambda1)
            }
        }
    }

    /// Error budget left to the bucket layers after the filter's share.
    ///
    /// The filter's counters saturate at [`Self::filter_threshold`], which
    /// is exactly the filter's worst-case contribution to a key's error, so
    /// the layers are built against `Λ − threshold` to keep the total MPE
    /// within `Λ`.
    pub fn layer_lambda(&self) -> u64 {
        self.lambda - self.filter_threshold().min(self.lambda)
    }

    /// Materialize the layer geometry for this configuration.
    pub fn geometry(&self) -> LayerGeometry {
        LayerGeometry::derive(
            self.total_buckets(),
            self.layer_lambda(),
            self.r_w,
            self.r_lambda,
            self.depth,
        )
    }

    /// Validate parameter sanity; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.lambda == 0 {
            return Err("Λ must be positive".into());
        }
        if self.r_w <= 1.0 || self.r_w.is_nan() {
            return Err(format!("R_w must be > 1, got {}", self.r_w));
        }
        if self.r_lambda <= 1.0 || self.r_lambda.is_nan() {
            return Err(format!("R_λ must be > 1, got {}", self.r_lambda));
        }
        if let Some(f) = &self.mice_filter {
            if !(0.0..1.0).contains(&f.memory_fraction) {
                return Err(format!(
                    "filter fraction out of range: {}",
                    f.memory_fraction
                ));
            }
            if f.counter_bits == 0 || f.counter_bits > 32 {
                return Err(format!(
                    "filter counter bits out of range: {}",
                    f.counter_bits
                ));
            }
            if f.arrays == 0 || f.arrays > 8 {
                return Err(format!("filter arrays out of range: {}", f.arrays));
            }
        }
        if self.total_buckets() == 0 {
            return Err("memory budget affords zero buckets".into());
        }
        Ok(())
    }
}

/// The nominal first-layer threshold `⌊Λ(R_λ−1)/R_λ⌋`.
pub(crate) fn nominal_lambda1(lambda: u64, r_lambda: f64) -> u64 {
    ((lambda as f64) * (r_lambda - 1.0) / r_lambda).floor() as u64
}

/// The one builder for every deployment shape: configure the sketch
/// once (memory, `Λ`, decay rates, depth, mice filter, emergency
/// policy, seed, top-K layer), then pick the shape with the final
/// `build_*` call. Obtain one from [`ReliableConfig::builder`] (or the
/// umbrella crate's `reliablesketch::builder()`).
///
/// The top-K capacity is a builder field, not a [`ReliableConfig`] one:
/// the query layer is orthogonal to the sketch geometry, so payloads
/// and merge compatibility checks never see it. Every shape that
/// carries the layer attaches it after construction.
///
/// # Examples
///
/// ```
/// use rsk_api::{ConcurrentErrorSensing, ConcurrentSummary, ErrorSensing, StreamSummary};
/// use rsk_core::ReliableConfig;
///
/// // one configuration …
/// let spec = ReliableConfig::builder()
///     .memory_bytes(64 * 1024)
///     .error_tolerance(25)
///     .seed(7);
///
/// // … four deployment shapes
/// let mut seq = spec.clone().build_sequential::<u64>();
/// let conc = spec.clone().build_concurrent::<u64>();
/// let sharded = spec.clone().build_sharded::<u64>(4);
/// let window = spec.build_epoched_concurrent::<u64>();
///
/// seq.insert(&42u64, 10);
/// conc.insert_concurrent(&42u64, 10);
/// sharded.insert_shared(&42u64, 10);
/// window.insert_shared(&42u64, 10);
///
/// // every shape certifies the same truth
/// assert!(seq.query_with_error(&42u64).contains(10));
/// assert!(conc.query_with_error_concurrent(&42u64).contains(10));
/// assert!(sharded.query_with_error_concurrent(&42u64).contains(10));
/// assert!(window.query_with_error_concurrent(&42u64).contains(10));
/// ```
#[derive(Debug, Clone)]
#[must_use = "a builder does nothing until a `config` or `build_*` call"]
pub struct SketchBuilder {
    config: ReliableConfig,
    top_k: Option<usize>,
}

impl SketchBuilder {
    /// Total memory budget in bytes (layers + mice filter).
    pub fn memory_bytes(mut self, bytes: usize) -> Self {
        self.config.memory_bytes = bytes;
        self
    }

    /// Error tolerance `Λ`: the worst estimation error the sketch may
    /// make on any key while the guarantee holds.
    pub fn error_tolerance(mut self, lambda: u64) -> Self {
        self.config.lambda = lambda;
        self
    }

    /// Width decay rate `R_w`.
    pub fn r_w(mut self, r: f64) -> Self {
        self.config.r_w = r;
        self
    }

    /// Threshold decay rate `R_λ`.
    pub fn r_lambda(mut self, r: f64) -> Self {
        self.config.r_lambda = r;
        self
    }

    /// Layer-count policy.
    pub fn depth(mut self, d: Depth) -> Self {
        self.config.depth = d;
        self
    }

    /// Enable the mice filter with the given settings.
    pub fn mice_filter(mut self, cfg: MiceFilterConfig) -> Self {
        self.config.mice_filter = Some(cfg);
        self
    }

    /// Disable the mice filter (the paper's "Raw" variant).
    pub fn raw(mut self) -> Self {
        self.config.mice_filter = None;
        self
    }

    /// Policy for keys that suffer an insertion failure.
    pub fn emergency(mut self, policy: EmergencyPolicy) -> Self {
        self.config.emergency = policy;
        self
    }

    /// Master hash seed (per-layer and per-shard seeds derive from it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Size the structure from a confidence target, per Theorem 4: given
    /// the expected stream mass `n` and the acceptable all-keys failure
    /// probability `delta` (must be `< 1/4`), choose the depth as the root
    /// of the theorem's equation and attach a SpaceSaving emergency layer
    /// of `Δ₂·ln(1/Δ)` slots.
    ///
    /// The memory budget and `Λ` still come from the other builder calls;
    /// this only derives the *shape* parameters the proof prescribes.
    pub fn confidence(mut self, n: u64, delta: f64) -> Self {
        let c = &self.config;
        let d = crate::theory::solve_depth(n, c.lambda, delta, c.r_w, c.r_lambda);
        let slots = crate::theory::emergency_slots(delta, c.r_w, c.r_lambda);
        // the theorem's d counts bucket layers before the emergency store;
        // keep at least the practical recommendation of §3.2 (d ≥ 7)
        self.config.depth = Depth::Fixed(d.max(7));
        self.config.emergency = EmergencyPolicy::SpaceSaving(slots);
        self
    }

    /// Attach an error-certified top-K layer of `capacity` slots: the
    /// built sketch tracks its elephants in a Space-Saving summary whose
    /// per-entry overestimation is the sketch's certified error, and
    /// answers [`rsk_api::TopK::certified_top_k`]. Supported by the
    /// sequential, concurrent and both epoched shapes; the sharded
    /// shape refuses at build time (shard-local summaries cannot
    /// certify one global miss floor).
    pub fn top_k(mut self, capacity: usize) -> Self {
        self.top_k = Some(capacity);
        self
    }

    /// The validated configuration this builder hands every shape.
    ///
    /// # Panics
    /// Panics if the configuration fails validation.
    pub fn config(self) -> ReliableConfig {
        self.config
            .validate()
            .unwrap_or_else(|e| panic!("invalid ReliableConfig: {e}"));
        self.config
    }

    /// The validated configuration and the top-K capacity.
    fn split(self) -> (ReliableConfig, Option<usize>) {
        let top_k = self.top_k;
        (self.config(), top_k)
    }

    /// Single-threaded [`ReliableSketch`] — the paper's reference
    /// structure.
    ///
    /// # Panics
    /// Panics if the configuration fails validation.
    pub fn build_sequential<K: Key>(self) -> ReliableSketch<K> {
        let (config, top_k) = self.split();
        ReliableSketch::empty(config, top_k)
    }

    /// Lock-free [`ConcurrentReliable`] for shared-reference ingestion
    /// from any number of threads.
    ///
    /// # Panics
    /// Panics if the configuration fails validation, or if `Λ` exceeds
    /// the packed atomic error field (see [`ConcurrentReliable::new`]).
    pub fn build_concurrent<K: Key>(self) -> ConcurrentReliable<K> {
        let (config, top_k) = self.split();
        ConcurrentReliable::empty(config, top_k)
    }

    /// Key-partitioned [`ShardedReliable`] over `n_shards` lock-free
    /// shards (deterministic parallel ingestion).
    ///
    /// # Panics
    /// Panics if [`top_k`](Self::top_k) was requested (the sharded
    /// shape carries no top-K layer), if the configuration fails
    /// validation, or if a shard's budget slice is too small to
    /// construct (see [`ShardedReliable::new`]).
    pub fn build_sharded<K: Key>(self, n_shards: usize) -> ShardedReliable<K> {
        assert!(
            self.top_k.is_none(),
            "the sharded shape does not support a top-K layer"
        );
        ShardedReliable::new(self.config(), n_shards)
    }

    /// Two-generation rotating window over sequential sketches.
    ///
    /// # Panics
    /// Panics if the configuration fails validation.
    pub fn build_epoched<K: Key>(self) -> EpochedReliable<K> {
        let (config, top_k) = self.split();
        top_k
            .into_iter()
            .fold(EpochedReliable::new(config), EpochedReliable::with_top_k)
    }

    /// Two-generation rotating window over lock-free sketches — the
    /// multi-tenant serving shape (`rsk-serve` builds one per tenant).
    ///
    /// # Panics
    /// Panics as [`Self::build_concurrent`] does.
    pub fn build_epoched_concurrent<K: Key>(self) -> EpochedConcurrent<K> {
        let (config, top_k) = self.split();
        top_k.into_iter().fold(
            EpochedConcurrent::new(config),
            EpochedConcurrent::with_top_k,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_section_611() {
        let c = ReliableConfig::default();
        assert_eq!(c.memory_bytes, 1 << 20);
        assert_eq!(c.lambda, 25);
        assert_eq!(c.r_w, 2.0);
        assert_eq!(c.r_lambda, 2.5);
        let f = c.mice_filter.unwrap();
        assert_eq!(f.memory_fraction, 0.20);
        assert_eq!(f.counter_bits, 2);
        assert_eq!(f.arrays, 2);
    }

    #[test]
    fn memory_split_respects_filter_fraction() {
        let c = ReliableConfig::default();
        assert_eq!(c.filter_bytes(), (1 << 20) / 5);
        assert_eq!(c.layer_bytes(), (1 << 20) - (1 << 20) / 5);
        assert_eq!(c.total_buckets(), c.layer_bytes() / BUCKET_BYTES);
    }

    #[test]
    fn raw_variant_gives_all_memory_to_layers() {
        let c = ReliableConfig::builder().raw().config();
        assert_eq!(c.filter_bytes(), 0);
        assert_eq!(c.layer_bytes(), c.memory_bytes);
        assert_eq!(c.filter_threshold(), 0);
        assert_eq!(c.layer_lambda(), c.lambda);
    }

    #[test]
    fn filter_threshold_is_min_of_cap_and_lambda1() {
        // defaults: 2-bit counters cap at 3; λ₁ = ⌊25·1.5/2.5⌋ = 15 → 3
        let c = ReliableConfig::default();
        assert_eq!(c.filter_threshold(), 3);
        assert_eq!(c.layer_lambda(), 22);

        // 8-bit counters cap at 255; λ₁ = 15 → 15
        let c8 = ReliableConfig::builder()
            .mice_filter(MiceFilterConfig {
                counter_bits: 8,
                ..Default::default()
            })
            .config();
        assert_eq!(c8.filter_threshold(), 15);
        assert_eq!(c8.layer_lambda(), 10);
    }

    #[test]
    fn nominal_lambda1_examples() {
        assert_eq!(nominal_lambda1(25, 2.5), 15);
        assert_eq!(nominal_lambda1(100, 2.0), 50);
        assert_eq!(nominal_lambda1(5, 2.5), 3);
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let bad = |c: ReliableConfig| c.validate().is_err();
        let d = ReliableConfig::default;
        assert!(bad(ReliableConfig {
            memory_bytes: 10,
            ..d()
        }));
        assert!(bad(ReliableConfig { lambda: 0, ..d() }));
        assert!(bad(ReliableConfig { r_w: 1.0, ..d() }));
        assert!(bad(ReliableConfig {
            r_lambda: 0.5,
            ..d()
        }));
        assert!(bad(ReliableConfig {
            mice_filter: Some(MiceFilterConfig {
                memory_fraction: 1.5,
                ..Default::default()
            }),
            ..d()
        }));
        assert!(ReliableConfig::default().validate().is_ok());
    }

    #[test]
    fn setters_reach_the_config() {
        let c = ReliableConfig::builder()
            .r_w(3.0)
            .r_lambda(4.0)
            .depth(Depth::Fixed(9))
            .emergency(EmergencyPolicy::ExactTable)
            .config();
        assert_eq!((c.r_w, c.r_lambda), (3.0, 4.0));
        assert_eq!(c.depth, Depth::Fixed(9));
        assert_eq!(c.emergency, EmergencyPolicy::ExactTable);
    }

    #[test]
    #[should_panic(expected = "invalid ReliableConfig")]
    fn config_panics_on_invalid() {
        let _ = ReliableConfig::builder().error_tolerance(0).config();
    }

    #[test]
    fn confidence_builder_applies_theorem4() {
        let c = ReliableConfig::builder()
            .error_tolerance(25)
            .confidence(10_000_000, 1e-10)
            .config();
        match c.depth {
            Depth::Fixed(d) => assert!((7..=32).contains(&d), "depth {d}"),
            Depth::Auto => panic!("confidence must pin the depth"),
        }
        match c.emergency {
            EmergencyPolicy::SpaceSaving(slots) => {
                // Δ₂·ln(1/Δ) = 1875 · ln(1e10) ≈ 43_173
                assert!((40_000..=46_000).contains(&slots), "slots {slots}");
            }
            other => panic!("expected SpaceSaving emergency, got {other:?}"),
        }
    }
}
