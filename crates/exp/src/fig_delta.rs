//! Empirical all-keys failure probability — measuring `Δ` directly
//! (beyond-paper validation of Theorem 4).
//!
//! The paper proves `Pr[∃ key with error > Λ] ⩽ Δ`, with `Δ` shrinking
//! double-exponentially in the layer budget. This experiment measures the
//! left-hand side: for each memory point we run many independent hash
//! seeds and count the fraction of runs with at least one outlier, plus
//! the fraction with at least one *insertion failure* (the event the
//! proof actually bounds — outliers are impossible without one).
//!
//! Expected shape: both fractions fall off a cliff as memory passes the
//! `N/Λ`-proportional knee — far steeper than any single-exponential
//! baseline decay — and the outlier fraction is dominated by the failure
//! fraction at every point.

use crate::ExpContext;
use rsk_api::StreamSummary;
use rsk_core::ReliableSketch;
use rsk_metrics::report::fmt_bytes;
use rsk_metrics::Table;
use rsk_stream::Dataset;

/// Memory sweep clustered around the zero-outlier knee (≈0.9 MB at paper
/// scale on the IP trace).
fn knee_sweep(ctx: &ExpContext) -> Vec<usize> {
    let paper_points: &[usize] = if ctx.quick {
        &[600 << 10, 800 << 10, 1 << 20]
    } else {
        &[
            500 << 10,
            600 << 10,
            700 << 10,
            800 << 10,
            900 << 10,
            1 << 20,
            1200 << 10,
            1500 << 10,
        ]
    };
    paper_points.iter().map(|&p| ctx.scale_mem(p)).collect()
}

/// The measured-Δ table: one row per variant, one column per memory.
pub fn delta(ctx: &ExpContext) -> Vec<Table> {
    let sweep = knee_sweep(ctx);
    let reps = ctx.repetitions();
    let (stream, truth) = ctx.load(Dataset::IpTrace);
    let lambda = 25u64;

    let mut headers: Vec<String> = vec!["measurement".into()];
    headers.extend(sweep.iter().map(|&m| fmt_bytes(m)));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        format!(
            "Empirical Δ: fraction of {reps} seeds with any outlier (IP trace, Λ={lambda}, \
             {} items)",
            ctx.items
        ),
        &headers_ref,
    );

    for raw in [false, true] {
        let mut outlier_row = vec![if raw {
            "outlier runs (Raw)".to_string()
        } else {
            "outlier runs".to_string()
        }];
        let mut failure_row = vec![if raw {
            "failure runs (Raw)".to_string()
        } else {
            "failure runs".to_string()
        }];
        let mut worst_row = vec![if raw {
            "worst #outliers (Raw)".to_string()
        } else {
            "worst #outliers".to_string()
        }];
        for &mem in &sweep {
            let mut outlier_runs = 0u64;
            let mut failure_runs = 0u64;
            let mut worst = 0u64;
            for rep in 0..reps {
                let mut b = ReliableSketch::<u64>::builder()
                    .memory_bytes(mem)
                    .error_tolerance(lambda)
                    .seed(ctx.seed.wrapping_mul(1000).wrapping_add(rep));
                if raw {
                    b = b.raw();
                }
                let mut sk: ReliableSketch<u64> = b.build_sequential();
                for it in &stream {
                    sk.insert(&it.key, it.value);
                }
                let outliers = truth
                    .iter()
                    .filter(|(k, f)| sk.query(k).abs_diff(*f) > lambda)
                    .count() as u64;
                if outliers > 0 {
                    outlier_runs += 1;
                }
                if sk.insertion_failures() > 0 {
                    failure_runs += 1;
                }
                worst = worst.max(outliers);
            }
            outlier_row.push(format!("{outlier_runs}/{reps}"));
            failure_row.push(format!("{failure_runs}/{reps}"));
            worst_row.push(worst.to_string());
        }
        t.row(outlier_row);
        t.row(failure_row);
        t.row(worst_row);
    }

    // reference: the paper's measured zero-outlier knee (§6.2.1 reports
    // 0.91 MB for the 10 M-item IP trace), scaled to this run — the
    // empirical cliff should land at or before this marker
    let knee = ctx.scale_mem((0.91 * (1 << 20) as f64) as usize);
    let mut reference = vec!["paper knee (0.91MB scaled)".to_string()];
    for &mem in &sweep {
        reference.push(if mem >= knee {
            "≥knee".into()
        } else {
            "<knee".into()
        });
    }
    t.row(reference);

    // statistical honesty: "0/R failed" only rules out Δ above the Wilson
    // 95 % upper bound; report that ceiling per memory point
    let mut ceiling = vec!["Δ ruled out (95% Wilson)".to_string()];
    for _ in &sweep {
        ceiling.push(format!(
            "≥{:.3}",
            rsk_metrics::zero_event_upper_bound(reps, 1.96)
        ));
    }
    t.row(ceiling);

    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_runs_and_shows_the_cliff() {
        let ctx = ExpContext {
            items: 150_000,
            quick: true,
            seed: 3,
            ..Default::default()
        };
        let tables = delta(&ctx);
        assert_eq!(tables.len(), 1);
        let csv = tables[0].to_csv();
        // the largest memory point must be failure-free for the filtered
        // variant (this is the paper's headline regime)
        let first_row: Vec<&str> = csv
            .lines()
            .find(|l| l.starts_with("outlier runs,"))
            .expect("outlier row")
            .split(',')
            .collect();
        assert_eq!(
            *first_row.last().unwrap(),
            "0/5",
            "outliers persist at the top of the sweep: {csv}"
        );
    }

    #[test]
    fn knee_sweep_is_increasing() {
        let ctx = ExpContext::default();
        let sweep = knee_sweep(&ctx);
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
    }
}
