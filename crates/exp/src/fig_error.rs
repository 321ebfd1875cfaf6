//! Figures 8 and 9: average absolute error (AAE) and average relative
//! error (ARE) versus memory, on the IP trace and the skew-3.0 synthetic
//! stream.
//!
//! Expected shape (§6.2.3): at 4 MB ReliableSketch is comparable to
//! Elastic and CU, ≈1.6–2× better than CM, ≈1.3–1.7× better than Coco and
//! ≈9–11× better than SS on AAE (18–37× on ARE) — SS pays for answering
//! `min_count` on the mass of unmonitored mice keys. The registered
//! concurrent contenders ride the same sweep: the 1-worker atomic rows
//! reproduce the sequential rows digit-for-digit, sharded rows pay a
//! small accuracy tax for splitting the budget, and the windowed/merged
//! rows stay within their documented MPE ceilings.

use crate::scenario::{AccuracyMetric, Scenario};
use crate::ExpContext;
use rsk_baselines::factory::Baseline;
use rsk_metrics::Table;
use rsk_stream::Dataset;

/// The Figure 8/9 competitor set: single CM/CU variants (accurate).
const ERROR_SET: [Baseline; 5] = [
    Baseline::CmAcc,
    Baseline::CuAcc,
    Baseline::Elastic,
    Baseline::SpaceSaving,
    Baseline::Coco,
];

/// Figure 8: AAE vs memory.
pub fn fig8(ctx: &ExpContext) -> Vec<Table> {
    vec![
        error_table(
            ctx,
            Dataset::IpTrace,
            AccuracyMetric::Aae,
            "Figure 8a: AAE, IP trace",
        ),
        error_table(
            ctx,
            Dataset::Zipf { skew: 3.0 },
            AccuracyMetric::Aae,
            "Figure 8b: AAE, synthetic skew 3.0",
        ),
    ]
}

/// Figure 9: ARE vs memory.
pub fn fig9(ctx: &ExpContext) -> Vec<Table> {
    vec![
        error_table(
            ctx,
            Dataset::IpTrace,
            AccuracyMetric::Are,
            "Figure 9a: ARE, IP trace",
        ),
        error_table(
            ctx,
            Dataset::Zipf { skew: 3.0 },
            AccuracyMetric::Are,
            "Figure 9b: ARE, synthetic skew 3.0",
        ),
    ]
}

fn error_table(ctx: &ExpContext, ds: Dataset, metric: AccuracyMetric, title: &str) -> Table {
    let sc = Scenario::new(ctx, ds, 25);
    sc.sweep_table(&ctx.registry(&ERROR_SET, 25), metric, title)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_and_9_shapes() {
        let ctx = ExpContext {
            items: 30_000,
            quick: true,
            ..Default::default()
        };
        let t8 = fig8(&ctx);
        let t9 = fig9(&ctx);
        assert_eq!(t8.len(), 2);
        assert_eq!(t9.len(), 2);
        // Ours + 5 baselines + concurrent lineup (2 atomic + 1 sharded at
        // the largest default worker count + epoch + merged) + slim digest
        assert_eq!(t8[0].len(), 6 + 5 + 1);
        let csv = t8[0].to_csv();
        assert!(csv.contains("\nOursAtomic,"));
        assert!(csv.contains("\nOurs(x4)@4w,"));
    }

    #[test]
    fn aae_decreases_with_memory_for_ours() {
        let ctx = ExpContext {
            items: 60_000,
            quick: true,
            ..Default::default()
        };
        let t = &fig8(&ctx)[0];
        let csv = t.to_csv();
        let ours: Vec<f64> = csv
            .lines()
            .find(|l| l.starts_with("Ours,"))
            .unwrap()
            .split(',')
            .skip(1)
            .map(|c| c.parse().unwrap())
            .collect();
        assert!(
            ours.first().unwrap() >= ours.last().unwrap(),
            "AAE should shrink with memory: {ours:?}"
        );
    }

    #[test]
    fn atomic_row_equals_sequential_row() {
        let ctx = ExpContext {
            items: 30_000,
            quick: true,
            ..Default::default()
        };
        let csv = fig9(&ctx)[0].to_csv();
        let row = |p: &str| -> String {
            csv.lines()
                .find(|l| l.starts_with(p))
                .unwrap()
                .split_once(',')
                .unwrap()
                .1
                .to_string()
        };
        assert_eq!(row("Ours,"), row("OursAtomic,"));
    }
}
