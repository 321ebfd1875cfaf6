//! Beyond-paper ablation: the Double Exponential Control schedule versus
//! the alternatives §3.2 dismisses, measured head-to-head.
//!
//! For each memory budget, four schedules run the *identical* sketch
//! machinery on the identical stream (raw variant, same seeds): the
//! paper's geometric schedule, the uniform schedule (both sequences
//! arithmetic), arithmetic-width/geometric-λ, and a single undivided
//! layer. Reported: insertion failures, dropped value, and outliers — the
//! observable collapse the paper's complexity argument predicts.

use crate::ExpContext;
use rsk_core::ablation::{arithmetic_width_schedule, single_layer_schedule, uniform_schedule};
use rsk_core::{
    Depth, EmergencyPolicy, LayerGeometry, ReliableConfig, ReliableSketch, BUCKET_BYTES,
};
use rsk_metrics::report::fmt_bytes;
use rsk_metrics::{evaluate, Table};
use rsk_stream::Dataset;

/// Schedule ablation table.
pub fn ablation(ctx: &ExpContext) -> Vec<Table> {
    let (stream, truth) = ctx.load(Dataset::IpTrace);
    let mut t = Table::new(
        "Ablation: layer schedules at equal memory (raw variant, Λ=25, IP trace)",
        &[
            "memory",
            "schedule",
            "failures",
            "dropped value",
            "# outliers",
        ],
    );

    for &paper_mb in &[1usize, 2] {
        let mem = ctx.scale_mem(paper_mb << 20);
        let buckets = mem / BUCKET_BYTES;
        let depth = 8usize;
        let schedules: Vec<(&str, LayerGeometry)> = vec![
            (
                "geometric (paper)",
                LayerGeometry::derive(buckets, 25, 2.0, 2.5, Depth::Fixed(depth)),
            ),
            ("uniform", uniform_schedule(buckets, 25, depth)),
            (
                "arithmetic widths",
                arithmetic_width_schedule(buckets, 25, 2.5, depth),
            ),
            ("single layer", single_layer_schedule(buckets, 25)),
        ];
        for (name, geometry) in schedules {
            let config = ReliableConfig {
                memory_bytes: geometry.total_buckets() * BUCKET_BYTES,
                lambda: 25,
                mice_filter: None,
                emergency: EmergencyPolicy::Disabled,
                seed: ctx.seed,
                ..Default::default()
            };
            let mut sk: ReliableSketch<u64> = ReliableSketch::with_geometry(config, geometry);
            for it in &stream {
                rsk_api::StreamSummary::insert(&mut sk, &it.key, it.value);
            }
            let rep = evaluate(&sk, &truth, 25);
            t.row(vec![
                fmt_bytes(mem),
                name.into(),
                sk.insertion_failures().to_string(),
                sk.dropped_value().to_string(),
                rep.outliers.to_string(),
            ]);
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_table_shape() {
        let ctx = ExpContext {
            items: 40_000,
            quick: true,
            ..Default::default()
        };
        let t = &ablation(&ctx)[0];
        assert_eq!(t.len(), 8); // 2 budgets × 4 schedules
        assert!(t.to_csv().contains("geometric (paper)"));
    }
}
