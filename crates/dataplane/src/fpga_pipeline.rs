//! Cycle-level simulation of the FPGA insertion pipeline (paper §5.1).
//!
//! [`super::fpga::FpgaModel`] models *resources and timing analytically*;
//! this module actually clocks the design. The paper's Verilog pipeline
//! accepts one key per clock and completes an insertion 41 clocks later;
//! for that to be functionally correct, back-to-back packets that touch
//! the same bucket must see each other's not-yet-committed updates — a
//! classic read-after-write hazard that hardware resolves with a
//! *forwarding (bypass) network* rather than stalls, since stalls would
//! break the one-key-per-clock line rate.
//!
//! Each read stage runs Algorithm 1's one per-bucket rule,
//! [`rsk_core::bucket::step`], and the query is the software's Algorithm-2
//! walk, [`rsk_core::sketch::walk`]: what this model adds is the pipeline
//! and its forwarding of in-flight writes.
//!
//! The simulator models the paper's stage layout:
//!
//! ```text
//! [ hash ×8 ][ layer 1: read|write ][ layer 2: read|write ] … [ emergency ]
//! ```
//!
//! which for the paper's 16-layer configuration gives `8 + 2·16 + 1 = 41`
//! stages — the latency Table 3 reports. Each `read` stage performs the
//! layer's Algorithm-1 step against the bucket memory *with forwarding
//! from the in-flight `write` stage of the same layer*; each `write`
//! stage commits at the end of the clock. Forwarding can be switched off
//! ([`FpgaPipeline::set_forwarding`]) to demonstrate that the hazard is
//! real: without it, bursts to one bucket corrupt the election.
//!
//! Functional equivalence with the software sketch is exact and tested:
//! after draining, the pipeline's memory answers every query identically
//! to [`rsk_core::ReliableSketch`] built on the same geometry and seed.

use rsk_api::{Estimate, Key};
use rsk_core::bucket::step;
use rsk_core::sketch::walk;
use rsk_core::LayerGeometry;
use rsk_hash::HashFamily;

/// Hash-unit latency in clocks (the `Hash` module of Table 3).
pub const HASH_STAGES: usize = 8;

/// One bucket in the pipeline's block RAM: `(ID, YES, NO)`.
type Bucket<K> = (Option<K>, u64, u64);

/// A packet in flight through the pipeline.
#[derive(Debug, Clone)]
struct Txn<K: Key> {
    key: K,
    /// Value still to be placed (0 once the insertion finished).
    remaining: u64,
    /// Excess a saturated `YES` clipped: bound for the emergency stack.
    clipped: u64,
    /// Bucket indices per layer, computed by the hash stages.
    indices: Vec<usize>,
    /// Write scheduled for the current layer's write stage, if any.
    pending: Option<(usize, usize, Bucket<K>)>,
}

/// Cycle-level model of the fully pipelined FPGA insertion datapath.
///
/// ```
/// use rsk_core::{Depth, LayerGeometry};
/// use rsk_dataplane::FpgaPipeline;
///
/// let geometry = LayerGeometry::derive(83_886, 22, 2.0, 2.5, Depth::Fixed(16));
/// let mut pipe = FpgaPipeline::<u64>::new(&geometry, 7);
/// assert_eq!(pipe.depth(), 41); // the paper's insertion latency
///
/// let items: Vec<(u64, u64)> = (0..1_000u64).map(|i| (i % 37, 1)).collect();
/// pipe.run(&items);
/// // line rate: n keys + drain latency
/// assert_eq!(pipe.clock(), 1_000 + 41);
/// assert!(pipe.query(&5).value >= 27);
/// ```
#[derive(Debug, Clone)]
pub struct FpgaPipeline<K: Key> {
    widths: Vec<usize>,
    lambdas: Vec<u64>,
    memory: Vec<Vec<Bucket<K>>>,
    hashes: HashFamily,
    /// `stages[s]` holds the transaction currently in stage `s`.
    stages: Vec<Option<Txn<K>>>,
    /// Remainders that survived every layer (the emergency stack).
    emergency: Vec<(K, u64)>,
    forwarding: bool,
    clock: u64,
    accepted: u64,
}

impl<K: Key> FpgaPipeline<K> {
    /// Build the pipeline for a layer schedule and hash seed.
    pub fn new(geometry: &LayerGeometry, seed: u64) -> Self {
        let widths = geometry.widths().to_vec();
        let lambdas = geometry.lambdas().to_vec();
        let memory = widths.iter().map(|&w| vec![(None, 0, 0); w]).collect();
        let stage_count = HASH_STAGES + 2 * widths.len() + 1;
        Self {
            hashes: HashFamily::new(widths.len(), seed),
            memory,
            stages: vec![None; stage_count],
            emergency: Vec::new(),
            forwarding: true,
            clock: 0,
            accepted: 0,
            widths,
            lambdas,
        }
    }

    /// Total pipeline stages (= insertion latency in clocks).
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// Clocks elapsed so far.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Keys accepted so far (one per clock — the design never stalls).
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Remainders that overflowed into the emergency stack.
    pub fn emergency_stack(&self) -> &[(K, u64)] {
        &self.emergency
    }

    /// Enable or disable the forwarding network (on by default; turning
    /// it off exists to demonstrate the RAW hazard in tests and docs).
    pub fn set_forwarding(&mut self, on: bool) {
        self.forwarding = on;
    }

    /// Compute the hash stages for one packet ahead of time (the per-batch
    /// amortized prefix of [`Self::run_batched`]).
    fn prepare(&self, key: K, value: u64) -> Txn<K> {
        Txn {
            key,
            remaining: value,
            clipped: 0,
            indices: (0..self.widths.len())
                .map(|i| self.hashes.index(i, &key, self.widths[i]))
                .collect(),
            pending: None,
        }
    }

    /// Clock the pipeline once, optionally accepting a new key.
    pub fn tick(&mut self, input: Option<(K, u64)>) {
        let txn = input.map(|(key, value)| self.prepare(key, value));
        self.tick_prepared(txn);
    }

    /// Clock the pipeline once with an already-hashed transaction.
    fn tick_prepared(&mut self, input: Option<Txn<K>>) {
        // evaluate read stages against current memory + forwarded writes,
        // then commit all write stages at end of clock, then shift
        let depth = self.widths.len();
        let layer_of_read = move |s: usize| -> Option<usize> {
            if s >= HASH_STAGES && (s - HASH_STAGES).is_multiple_of(2) {
                let i = (s - HASH_STAGES) / 2;
                (i < depth).then_some(i)
            } else {
                None
            }
        };

        // 1. read/decide stages (each sees the write stage one ahead)
        for s in (0..self.stages.len()).rev() {
            let Some(layer) = layer_of_read(s) else {
                continue;
            };
            // forwarded state from the transaction in this layer's write
            // stage (entered one clock earlier)
            let forwarded: Option<(usize, Bucket<K>)> = if self.forwarding {
                self.stages
                    .get(s + 1)
                    .and_then(|t| t.as_ref())
                    .and_then(|t| t.pending.as_ref())
                    .and_then(|&(l, j, state)| (l == layer).then_some((j, state)))
            } else {
                None
            };
            let Some(txn) = self.stages[s].as_mut() else {
                continue;
            };
            txn.pending = None;
            if txn.remaining == 0 {
                continue;
            }
            let j = txn.indices[layer];
            let (id, yes, no) = match forwarded {
                Some((fj, state)) if fj == j => state,
                _ => self.memory[layer][j],
            };
            let s = step(
                id == Some(txn.key),
                yes,
                no,
                txn.remaining,
                self.lambdas[layer],
                u64::MAX,
            );
            let id = if s.takes_over { Some(txn.key) } else { id };
            txn.remaining = s.leftover;
            txn.clipped = s.clipped;
            txn.pending = Some((layer, j, (id, s.yes, s.no)));
        }

        // 2. commit write stages (end of clock); take() so every pending
        // write commits exactly once — a stale pending re-committing at a
        // later stage would clobber younger transactions' writes
        for s in 0..self.stages.len() {
            if layer_of_read(s).is_some() {
                continue; // writes live in odd offsets
            }
            let Some(txn) = self.stages[s].as_mut() else {
                continue;
            };
            if let Some((layer, j, state)) = txn.pending.take() {
                self.memory[layer][j] = state;
            }
        }

        // 3. retire the last stage (emergency commit: the leftover past
        // the last layer, or a clipped count) and shift
        if let Some(txn) = self.stages.last().cloned().flatten() {
            let lost = txn.remaining + txn.clipped;
            if lost > 0 {
                self.emergency.push((txn.key, lost));
            }
        }
        for s in (1..self.stages.len()).rev() {
            self.stages[s] = self.stages[s - 1].take();
        }
        self.stages[0] = input.inspect(|_| {
            self.accepted += 1;
        });
        self.clock += 1;
    }

    /// Feed a whole stream at line rate (one key per clock) and drain.
    ///
    /// Ingestion is batched internally (see [`Self::run_batched`]); the
    /// cycle accounting is unchanged — one accepted key per clock, no
    /// idle gaps between batches.
    pub fn run<'a>(&mut self, items: impl IntoIterator<Item = &'a (K, u64)>) {
        const BATCH: usize = 256;
        let mut buffer = Vec::with_capacity(BATCH);
        for &(k, v) in items {
            buffer.push((k, v));
            if buffer.len() == BATCH {
                self.feed_batch(&buffer);
                buffer.clear();
            }
        }
        self.feed_batch(&buffer);
        self.drain();
    }

    /// Feed a materialized stream in `batch_size`-item batches and drain.
    ///
    /// Each batch's hash stages are evaluated in one tight loop per layer
    /// before any packet enters the pipeline — the software analogue of
    /// the hardware's dedicated hash units, and the same amortization
    /// [`rsk_core::ReliableSketch::insert_batch`] applies on the CPU path.
    /// Functionally identical to [`Self::run`]: same memory image, same
    /// clock count (`n + depth`).
    pub fn run_batched(&mut self, items: &[(K, u64)], batch_size: usize) {
        for batch in items.chunks(batch_size.max(1)) {
            self.feed_batch(batch);
        }
        self.drain();
    }

    /// Pre-hash `batch` layer by layer, then clock it in back to back.
    fn feed_batch(&mut self, batch: &[(K, u64)]) {
        let mut txns: Vec<Txn<K>> = batch
            .iter()
            .map(|&(key, value)| Txn {
                key,
                remaining: value,
                clipped: 0,
                indices: vec![0; self.widths.len()],
                pending: None,
            })
            .collect();
        for i in 0..self.widths.len() {
            let w = self.widths[i];
            for t in &mut txns {
                t.indices[i] = self.hashes.index(i, &t.key, w);
            }
        }
        for t in txns {
            self.tick_prepared(Some(t));
        }
    }

    /// Clock until the pipeline is empty.
    pub fn drain(&mut self) {
        while self.stages.iter().any(Option::is_some) {
            self.tick(None);
        }
    }

    /// Algorithm-2 query over the committed memory (plus the emergency
    /// stack), for comparing against the software implementation. Sums
    /// saturate, as the software's do.
    pub fn query(&self, key: &K) -> Estimate {
        let (est, mpe, _) = walk(&self.lambdas, |i| {
            let (id, yes, no) = self.memory[i][self.hashes.index(i, key, self.widths[i])];
            (id.as_ref() == Some(key), yes, no, false)
        });
        let rem = self
            .emergency
            .iter()
            .filter(|(k, _)| k == key)
            .fold(0u64, |sum, (_, v)| sum.saturating_add(*v));
        Estimate {
            value: est.saturating_add(rem),
            max_possible_error: mpe,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rsk_api::{ErrorSensing, StreamSummary};
    use rsk_core::{Depth, EmergencyPolicy, ReliableConfig, ReliableSketch, BUCKET_BYTES};

    fn software_twin(geometry: &LayerGeometry, seed: u64) -> ReliableSketch<u64> {
        let config = ReliableConfig {
            memory_bytes: geometry.total_buckets() * BUCKET_BYTES,
            lambda: geometry.total_lambda().max(1),
            depth: Depth::Fixed(geometry.depth()),
            mice_filter: None,
            emergency: EmergencyPolicy::ExactTable,
            seed,
            ..Default::default()
        };
        ReliableSketch::with_geometry(config, geometry.clone())
    }

    fn check_against_software(geometry: &LayerGeometry, seed: u64, items: &[(u64, u64)]) {
        let mut hw = FpgaPipeline::<u64>::new(geometry, seed);
        hw.run(items);
        let mut sw = software_twin(geometry, seed);
        for &(k, v) in items {
            sw.insert(&k, v);
        }
        let keys: std::collections::HashSet<u64> = items.iter().map(|&(k, _)| k).collect();
        for k in keys {
            let h = hw.query(&k);
            let s = sw.query_with_error(&k);
            assert_eq!(
                (h.value, h.max_possible_error),
                (s.value, s.max_possible_error),
                "hardware/software divergence at key {k}"
            );
        }
    }

    #[test]
    fn paper_configuration_has_41_stages() {
        let geometry = LayerGeometry::derive(83_886, 22, 2.0, 2.5, Depth::Fixed(16));
        let p = FpgaPipeline::<u64>::new(&geometry, 1);
        assert_eq!(p.depth(), 41, "8 hash + 2·16 layer + 1 emergency");
    }

    #[test]
    fn line_rate_cycle_accounting() {
        let geometry = LayerGeometry::derive(1_000, 22, 2.0, 2.5, Depth::Fixed(8));
        let mut p = FpgaPipeline::<u64>::new(&geometry, 1);
        let items: Vec<(u64, u64)> = (0..10_000u64).map(|i| (i % 37, 1)).collect();
        p.run(&items);
        // n keys at one per clock + drain = n + depth clocks
        assert_eq!(p.accepted(), 10_000);
        assert_eq!(p.clock(), 10_000 + p.depth() as u64);
    }

    #[test]
    fn back_to_back_same_key_needs_forwarding() {
        // A, B, B into one bucket: with forwarding the election ends at
        // (B, 2, 1); without it, the stale read corrupts the count
        let geometry = LayerGeometry::custom(vec![1], vec![100]).unwrap();
        let stream = [(1u64, 1u64), (2, 1), (2, 1)];

        let mut good = FpgaPipeline::<u64>::new(&geometry, 3);
        good.run(&stream);
        assert_eq!(good.query(&2).value, 2);

        let mut bad = FpgaPipeline::<u64>::new(&geometry, 3);
        bad.set_forwarding(false);
        bad.run(&stream);
        assert_ne!(
            bad.query(&2).value,
            2,
            "without forwarding the RAW hazard must corrupt the election"
        );
    }

    #[test]
    fn equivalent_to_software_on_real_trace_shape() {
        let geometry = LayerGeometry::derive(2_000, 25, 2.0, 2.5, Depth::Auto);
        let items: Vec<(u64, u64)> = (0..60_000u64)
            .map(|i| (rsk_hash::splitmix64(i % 1_500), 1 + i % 3))
            .collect();
        check_against_software(&geometry, 7, &items);
    }

    #[test]
    fn run_batched_is_identical_to_run() {
        let geometry = LayerGeometry::derive(1_500, 25, 2.0, 2.5, Depth::Auto);
        let items: Vec<(u64, u64)> = (0..20_000u64)
            .map(|i| (rsk_hash::splitmix64(i % 700), 1 + i % 4))
            .collect();
        let mut streamed = FpgaPipeline::<u64>::new(&geometry, 5);
        streamed.run(&items);
        // batch sizes that do and do not divide the stream length
        for batch in [1usize, 64, 333, 50_000] {
            let mut batched = FpgaPipeline::<u64>::new(&geometry, 5);
            batched.run_batched(&items, batch);
            assert_eq!(batched.accepted(), streamed.accepted());
            assert_eq!(batched.clock(), streamed.clock(), "batch={batch}");
            for &(k, _) in items.iter().take(2_000) {
                assert_eq!(batched.query(&k), streamed.query(&k), "batch={batch}");
            }
        }
    }

    #[test]
    fn five_tuple_keys_flow_through_the_pipeline() {
        // the generic-key path on the hardware model: 13-byte 5-tuples
        let geometry = LayerGeometry::derive(512, 25, 2.0, 2.5, Depth::Fixed(4));
        let mut hw = FpgaPipeline::<[u8; 13]>::new(&geometry, 3);
        let mut tuple = [0u8; 13];
        let items: Vec<([u8; 13], u64)> = (0..5_000u64)
            .map(|i| {
                tuple[0] = (i % 40) as u8;
                tuple[12] = 6; // TCP
                (tuple, 1)
            })
            .collect();
        hw.run(&items);
        tuple[0] = 7;
        let est = hw.query(&tuple);
        assert!(est.value >= 125, "flow undercounted: {est:?}");
        assert_eq!(hw.accepted(), 5_000);
    }

    #[test]
    fn emergency_stack_collects_overflow() {
        // tiny structure, colliding heavy keys: failures must surface in
        // the stack and still be answered by query()
        let geometry = LayerGeometry::custom(vec![1, 1], vec![2, 1]).unwrap();
        let items: Vec<(u64, u64)> = (0..300u64).map(|i| (i % 3, 1)).collect();
        let mut p = FpgaPipeline::<u64>::new(&geometry, 5);
        p.run(&items);
        assert!(!p.emergency_stack().is_empty());
        for k in 0..3u64 {
            assert!(p.query(&k).value >= 100, "stack remainders not counted");
        }
    }

    #[test]
    fn saturated_count_clips_to_the_emergency_stack() {
        // YES saturates at u64::MAX; the clipped unit fails into the
        // stack exactly as the software sketch fails it
        let geometry = LayerGeometry::custom(vec![4, 2], vec![8, 3]).unwrap();
        let items = [(7u64, u64::MAX), (7, 1)];
        check_against_software(&geometry, 1, &items);
        let mut hw = FpgaPipeline::<u64>::new(&geometry, 1);
        hw.run(&items);
        assert_eq!(hw.emergency_stack(), &[(7, 1)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Hardware (cycle-level, forwarding) and software agree exactly
        /// on arbitrary streams and geometries.
        #[test]
        fn prop_pipeline_equals_software(
            widths in proptest::collection::vec(1usize..8, 1..4),
            lambda0 in 1u64..32,
            seed in 0u64..32,
            ops in proptest::collection::vec((0u64..32, 1u64..10), 1..300),
        ) {
            let lambdas: Vec<u64> = (0..widths.len()).map(|i| lambda0 >> i).collect();
            let geometry = LayerGeometry::custom(widths, lambdas).unwrap();
            check_against_software(&geometry, seed, &ops);
        }

        /// Interleaving idle clocks (gaps in the packet feed) never
        /// changes the result.
        #[test]
        fn prop_idle_gaps_are_transparent(
            ops in proptest::collection::vec((0u64..16, 1u64..6, 0u8..3), 1..200),
            seed in 0u64..16,
        ) {
            let geometry = LayerGeometry::custom(vec![4, 2], vec![8, 3]).unwrap();
            let mut gappy = FpgaPipeline::<u64>::new(&geometry, seed);
            let mut dense = FpgaPipeline::<u64>::new(&geometry, seed);
            for &(k, v, gap) in &ops {
                gappy.tick(Some((k, v)));
                for _ in 0..gap {
                    gappy.tick(None);
                }
                dense.tick(Some((k, v)));
            }
            gappy.drain();
            dense.drain();
            for k in 0u64..16 {
                prop_assert_eq!(gappy.query(&k), dense.query(&k), "key {}", k);
            }
        }
    }
}
