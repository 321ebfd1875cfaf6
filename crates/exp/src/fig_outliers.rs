//! Figures 4 and 6: number of outliers among **all keys** versus memory.
//!
//! * Figure 4 varies the tolerance (`Λ = 5` and `Λ = 25`) on the IP trace;
//! * Figure 6 fixes `Λ = 25` and varies the dataset (Web Stream,
//!   University Data Center, synthetic Zipf 0.3 / 3.0).
//!
//! Expected shape (paper §6.2.1): ReliableSketch reaches zero outliers at
//! the smallest memory (≈1 MB at Λ=25 paper scale), while CM/CU-fast stay
//! in the thousands across the sweep and even CM/CU-acc need multiples of
//! the memory. The lock-free contenders hit zero in the same regime: the
//! 1-worker atomic rows are identical to `Ours`, and sharded rows reach
//! zero slightly later (each shard works from a budget slice).

use crate::scenario::{AccuracyMetric, Scenario};
use crate::ExpContext;
use rsk_baselines::factory::Baseline;
use rsk_metrics::Table;
use rsk_stream::Dataset;

/// Figure 4: outliers vs memory on the IP trace, Λ ∈ {5, 25}.
pub fn fig4(ctx: &ExpContext) -> Vec<Table> {
    [5u64, 25]
        .iter()
        .map(|&lambda| {
            sweep_table(
                ctx,
                Dataset::IpTrace,
                lambda,
                &format!("Figure 4 (Λ={lambda}): # outliers vs memory, IP trace"),
            )
        })
        .collect()
}

/// Figure 6: outliers vs memory across datasets, Λ = 25.
pub fn fig6(ctx: &ExpContext) -> Vec<Table> {
    let cases = [
        (Dataset::WebStream, "Figure 6a: Web Stream"),
        (Dataset::DataCenter, "Figure 6b: University Data Center"),
        (Dataset::Zipf { skew: 0.3 }, "Figure 6c: Synthetic skew 0.3"),
        (Dataset::Zipf { skew: 3.0 }, "Figure 6d: Synthetic skew 3.0"),
    ];
    cases
        .iter()
        .map(|(ds, title)| {
            sweep_table(
                ctx,
                *ds,
                25,
                &format!("{title} (# outliers vs memory, Λ=25)"),
            )
        })
        .collect()
}

fn sweep_table(ctx: &ExpContext, ds: Dataset, lambda: u64, title: &str) -> Table {
    let sc = Scenario::new(ctx, ds, lambda);
    sc.sweep_table(
        &ctx.registry(&Baseline::ACCURACY_SET, lambda),
        AccuracyMetric::Outliers,
        title,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> ExpContext {
        ExpContext {
            items: 40_000,
            quick: true,
            ..Default::default()
        }
    }

    #[test]
    fn fig4_produces_two_tables_with_all_contenders() {
        let ts = fig4(&tiny_ctx());
        assert_eq!(ts.len(), 2);
        for t in &ts {
            // Ours + 8 baselines + concurrent lineup + slim digest
            assert_eq!(t.len(), 9 + 5 + 1);
        }
        assert!(ts[1].to_csv().contains("\nOursEpoch,"));
    }

    #[test]
    fn ours_beats_cm_fast_at_matched_memory() {
        // the paper's qualitative claim on any dataset: at the largest
        // sweep point ReliableSketch has (near-)zero outliers, CM_fast many
        let ctx = tiny_ctx();
        let t = &fig4(&ctx)[1]; // Λ=25
        let csv = t.to_csv();
        let ours_line: Vec<&str> = csv
            .lines()
            .find(|l| l.starts_with("Ours,"))
            .unwrap()
            .split(',')
            .collect();
        let cm_line: Vec<&str> = csv
            .lines()
            .find(|l| l.starts_with("CM_fast"))
            .unwrap()
            .split(',')
            .collect();
        let ours_last: u64 = ours_line.last().unwrap().parse().unwrap();
        let cm_last: u64 = cm_line.last().unwrap().parse().unwrap();
        assert!(
            ours_last <= cm_last,
            "Ours {ours_last} should not exceed CM_fast {cm_last}"
        );
    }
}
