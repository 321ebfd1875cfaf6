//! Schedule ablations — empirical backing for the paper's §3.2 claim
//! that *"modifying either parameter to follow an arithmetic sequence
//! would thoroughly undermine the complexity"* of ReliableSketch.
//!
//! Three alternative schedules are provided, each runnable through the
//! unchanged sketch machinery via
//! [`ReliableSketch::with_geometry`](crate::ReliableSketch::with_geometry):
//!
//! * [`uniform_schedule`] — `d` equal-width layers with equal thresholds
//!   `λ_i = Λ/d` (both sequences arithmetic — the fully degenerate case);
//! * [`arithmetic_width_schedule`] — widths decay linearly, thresholds
//!   keep the paper's geometric decay (isolates the width sequence);
//! * [`single_layer_schedule`] — one giant layer holding the whole error
//!   budget: an array of Error-Sensible buckets with no control at all
//!   (what Key Technique I gives you *without* Key Technique II).
//!
//! The module tests compare insertion failures at equal memory: the
//! geometric schedule strictly dominates, which is the observable form of
//! the double-exponential survival bound.

use crate::config::Depth;
use crate::geometry::LayerGeometry;

/// Equal widths, equal thresholds (`λ_i = ⌊Λ/d⌋`, remainder to layer 1).
pub fn uniform_schedule(total_buckets: usize, lambda: u64, depth: usize) -> LayerGeometry {
    assert!(depth > 0 && total_buckets >= depth);
    let base_w = total_buckets / depth;
    let mut widths = vec![base_w; depth];
    widths[0] += total_buckets - base_w * depth;
    let base_l = lambda / depth as u64;
    let mut lambdas = vec![base_l; depth];
    lambdas[0] += lambda - base_l * depth as u64;
    LayerGeometry::custom(widths, lambdas).expect("uniform schedule is well-formed")
}

/// Linearly decaying widths (`w_i ∝ d + 1 − i`), geometric thresholds.
pub fn arithmetic_width_schedule(
    total_buckets: usize,
    lambda: u64,
    r_lambda: f64,
    depth: usize,
) -> LayerGeometry {
    assert!(depth > 0 && total_buckets >= depth * (depth + 1) / 2);
    let weight_sum = depth * (depth + 1) / 2;
    let widths: Vec<usize> = (0..depth)
        .map(|i| (total_buckets * (depth - i) / weight_sum).max(1))
        .collect();
    // thresholds: keep the paper's geometric sequence
    let reference =
        LayerGeometry::derive(total_buckets, lambda, 2.0, r_lambda, Depth::Fixed(depth));
    LayerGeometry::custom(widths, reference.lambdas().to_vec())
        .expect("arithmetic width schedule is well-formed")
}

/// A single undivided layer with the entire error budget.
pub fn single_layer_schedule(total_buckets: usize, lambda: u64) -> LayerGeometry {
    LayerGeometry::custom(vec![total_buckets.max(1)], vec![lambda])
        .expect("single layer is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EmergencyPolicy, ReliableConfig};
    use crate::sketch::ReliableSketch;
    use rsk_api::StreamSummary;
    use rsk_hash::splitmix64;
    use rsk_stream::zipf::ZipfSampler;

    /// Overloaded regime where schedules differ sharply: 150 K items of a
    /// Zipf(8 000, 1.0) stream into 3 000 buckets, Λ = 25, d = 8.
    const BUCKETS: usize = 3_000;
    const ITEMS: usize = 150_000;

    fn failures(geometry: LayerGeometry, seed: u64) -> u64 {
        // identical configs except the schedule; mice filter off so the
        // comparison isolates the layer geometry
        let config = ReliableConfig {
            memory_bytes: geometry.total_buckets() * crate::config::BUCKET_BYTES,
            lambda: 25,
            mice_filter: None,
            emergency: EmergencyPolicy::Disabled,
            seed,
            ..Default::default()
        };
        let mut sk: ReliableSketch<u64> = ReliableSketch::with_geometry(config, geometry);
        let mut zipf = ZipfSampler::new(8_000, 1.0, seed ^ 9);
        for _ in 0..ITEMS {
            sk.insert(&splitmix64(zipf.sample()), 1);
        }
        sk.insertion_failures()
    }

    fn total_failures(geometry: &LayerGeometry) -> u64 {
        (0..3u64).map(|s| failures(geometry.clone(), s)).sum()
    }

    #[test]
    fn geometric_beats_uniform_on_failures() {
        let geo = LayerGeometry::derive(BUCKETS, 25, 2.0, 2.5, Depth::Fixed(8));
        let uni = uniform_schedule(BUCKETS, 25, 8);
        let (g, u) = (total_failures(&geo), total_failures(&uni));
        assert!(g * 2 < u, "geometric {g} failures vs uniform {u}");
    }

    #[test]
    fn geometric_beats_arithmetic_widths() {
        let geo = LayerGeometry::derive(BUCKETS, 25, 2.0, 2.5, Depth::Fixed(8));
        let ari = arithmetic_width_schedule(BUCKETS, 25, 2.5, 8);
        let (g, a) = (total_failures(&geo), total_failures(&ari));
        assert!(g * 2 < a, "geometric {g} failures vs arithmetic-width {a}");
    }

    #[test]
    fn single_layer_fails_hard() {
        let geo = LayerGeometry::derive(BUCKETS, 25, 2.0, 2.5, Depth::Fixed(8));
        let single = single_layer_schedule(BUCKETS, 25);
        let (g, s) = (total_failures(&geo), total_failures(&single));
        assert!(g < s, "layered {g} failures vs single-layer {s}");
    }

    #[test]
    fn schedules_are_well_formed() {
        let u = uniform_schedule(1_000, 25, 8);
        assert_eq!(u.total_buckets(), 1_000);
        assert_eq!(u.total_lambda(), 25);
        let a = arithmetic_width_schedule(1_000, 25, 2.5, 8);
        assert!(a.total_buckets() <= 1_000);
        assert!(a.total_lambda() <= 25);
        let s = single_layer_schedule(64, 25);
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn custom_rejects_malformed() {
        assert!(LayerGeometry::custom(vec![], vec![]).is_err());
        assert!(LayerGeometry::custom(vec![1, 2], vec![1]).is_err());
        assert!(LayerGeometry::custom(vec![0], vec![1]).is_err());
    }
}
