//! Differential testing against a paper-literal reference interpreter.
//!
//! This file transliterates Algorithm 1 (insert) and Algorithm 2 (query)
//! from the paper as directly as Rust allows — no filter, no statistics,
//! no layering tricks — and checks that the production implementation in
//! `rsk-core` computes *identical* answers on thousands of random
//! streams, seeds and geometries. The single deliberate deviation is
//! shared with the production code and documented in DESIGN.md: the
//! pseudocode's lines 10–11 update `B.NO` before computing the leftover
//! (which would subtract zero), so both implementations follow the
//! paper's prose instead (absorb `λᵢ − NO_old`, divert the rest).
//!
//! The reference uses the same public `HashFamily` the sketch uses, so
//! bucket placement matches bit-for-bit.

use proptest::prelude::*;
use reliablesketch::core::{Depth, EmergencyPolicy, ReliableConfig, ReliableSketch};
use reliablesketch::hash::HashFamily;
use reliablesketch::prelude::*;

/// Paper-literal ReliableSketch: Algorithms 1 and 2, nothing else.
struct Reference {
    widths: Vec<usize>,
    lambdas: Vec<u64>,
    /// `(id, yes, no)` triples; `id = None` is the null candidate.
    buckets: Vec<Vec<(Option<u64>, u64, u64)>>,
    hashes: HashFamily,
    /// Remainders that survived all layers (the emergency hash table).
    leftovers: std::collections::HashMap<u64, u64>,
}

impl Reference {
    fn new(widths: Vec<usize>, lambdas: Vec<u64>, seed: u64) -> Self {
        let buckets = widths.iter().map(|&w| vec![(None, 0, 0); w]).collect();
        let hashes = HashFamily::new(widths.len(), seed);
        Self {
            widths,
            lambdas,
            buckets,
            hashes,
            leftovers: std::collections::HashMap::new(),
        }
    }

    /// Algorithm 1.
    fn insert(&mut self, e: u64, mut v: u64) {
        for i in 0..self.widths.len() {
            let j = self.hashes.index(i, &e, self.widths[i]);
            let lambda_i = self.lambdas[i];
            let b = &mut self.buckets[i][j];

            // lines 4–7: matching ID
            if b.0 == Some(e) {
                b.1 += v;
                return;
            }
            // lines 8–12: lock triggered (prose semantics for line 11)
            if b.2.saturating_add(v) > lambda_i && b.1 > lambda_i {
                let absorbed = lambda_i.saturating_sub(b.2);
                b.2 = lambda_i.max(b.2);
                v -= absorbed;
                continue;
            }
            // lines 14–19: negative vote, possible replacement
            b.2 += v;
            if b.2 >= b.1 {
                b.0 = Some(e);
                core::mem::swap(&mut b.1, &mut b.2);
            }
            return;
        }
        // insertion failure: remainder goes to the emergency hash table
        *self.leftovers.entry(e).or_insert(0) += v;
    }

    /// Algorithm 2.
    fn query(&self, e: u64) -> (u64, u64) {
        let mut f_hat = 0u64;
        let mut mpe = 0u64;
        for i in 0..self.widths.len() {
            let j = self.hashes.index(i, &e, self.widths[i]);
            let b = &self.buckets[i][j];
            if b.0 == Some(e) {
                f_hat += b.1;
            } else {
                f_hat += b.2;
            }
            mpe += b.2;
            // line 12: stop conditions
            if b.2 < self.lambdas[i] || b.1 == b.2 || b.0 == Some(e) {
                break;
            }
        }
        let rem = self.leftovers.get(&e).copied().unwrap_or(0);
        (f_hat + rem, mpe)
    }
}

/// Build the production sketch with an explicit schedule matching the
/// reference exactly (raw variant, exact emergency table).
fn production(widths: &[usize], lambdas: &[u64], seed: u64) -> ReliableSketch<u64> {
    let config = ReliableConfig {
        memory_bytes: widths.iter().sum::<usize>() * reliablesketch::core::BUCKET_BYTES,
        lambda: lambdas.iter().sum::<u64>().max(1),
        depth: Depth::Fixed(widths.len()),
        mice_filter: None,
        emergency: EmergencyPolicy::ExactTable,
        seed,
        ..Default::default()
    };
    let geometry =
        reliablesketch::core::LayerGeometry::custom(widths.to_vec(), lambdas.to_vec()).unwrap();
    ReliableSketch::with_geometry(config, geometry)
}

fn check_equivalence(widths: Vec<usize>, lambdas: Vec<u64>, seed: u64, ops: &[(u64, u64)]) {
    let mut reference = Reference::new(widths.clone(), lambdas.clone(), seed);
    let mut sketch = production(&widths, &lambdas, seed);
    for &(k, v) in ops {
        reference.insert(k, v);
        sketch.insert(&k, v);
    }
    let keys: std::collections::HashSet<u64> = ops.iter().map(|&(k, _)| k).collect();
    for &k in keys.iter().chain([&u64::MAX]) {
        let (ref_est, ref_mpe) = reference.query(k);
        let est = sketch.query_with_error(&k);
        assert_eq!(
            (est.value, est.max_possible_error),
            (ref_est, ref_mpe),
            "divergence for key {k} (widths {widths:?}, λ {lambdas:?}, seed {seed})"
        );
    }
}

#[test]
fn paper_default_geometry_matches() {
    // the production default schedule, replayed through the reference
    let sketch = ReliableSketch::<u64>::builder()
        .memory_bytes(64 * 1024)
        .error_tolerance(25)
        .raw()
        .seed(5)
        .build_sequential::<u64>();
    let widths = sketch.geometry().widths().to_vec();
    let lambdas = sketch.geometry().lambdas().to_vec();
    let ops: Vec<(u64, u64)> = (0..40_000u64).map(|i| (i % 900, 1 + i % 4)).collect();
    check_equivalence(widths, lambdas, 5, &ops);
}

#[test]
fn degenerate_single_bucket_layers_match() {
    // λ floored to zero in deep layers: the "one candidate, divert
    // everyone else" degenerate regime
    let ops: Vec<(u64, u64)> = (0..500u64).map(|i| (i % 7, 1)).collect();
    check_equivalence(vec![1, 1, 1], vec![3, 1, 0], 9, &ops);
}

#[test]
fn heavy_values_crossing_locks_match() {
    let ops: Vec<(u64, u64)> = (0..300u64).map(|i| (i % 5, 17 + (i % 23) * 11)).collect();
    check_equivalence(vec![4, 2, 1], vec![20, 8, 3], 11, &ops);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The production implementation and the paper-literal interpreter
    /// agree on every answer for arbitrary streams and geometries.
    #[test]
    fn prop_production_equals_reference(
        widths in proptest::collection::vec(1usize..16, 1..5),
        seed in 0u64..64,
        lambda0 in 0u64..40,
        ops in proptest::collection::vec((0u64..64, 1u64..12), 1..400),
    ) {
        // geometric-ish λ schedule derived from λ₀ (any schedule is legal)
        let lambdas: Vec<u64> = (0..widths.len())
            .map(|i| lambda0 >> i)
            .collect();
        check_equivalence(widths, lambdas, seed, &ops);
    }

    /// Same agreement under adversarial all-same-key and all-distinct
    /// extremes.
    #[test]
    fn prop_equivalence_at_extremes(
        seed in 0u64..32,
        reps in 1usize..300,
        distinct in proptest::bool::ANY,
    ) {
        let ops: Vec<(u64, u64)> = (0..reps as u64)
            .map(|i| (if distinct { i } else { 42 }, 1))
            .collect();
        check_equivalence(vec![3, 2, 1], vec![10, 4, 1], seed, &ops);
    }
}
