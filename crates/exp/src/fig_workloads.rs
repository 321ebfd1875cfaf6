//! Shifting and adversarial workloads across the full registry — the
//! workload-diversity closure of the evaluation.
//!
//! The paper-default scenarios measure static Zipf-like populations;
//! this target sweeps **every** registered contender (baselines, the
//! concurrent lineup, the slim digest) under the traffic the stream
//! crate's stress generators were built for, inside the CI-gated report:
//!
//! * **churn** — a quarter of the live flows retires every eighth of the
//!   stream ([`rsk_stream::churn::ChurnModel`]), so the elephant set
//!   keeps shifting under the summaries;
//! * **bursty** — rotating hot keys inject on/off bursts over a Zipf
//!   background ([`rsk_stream::churn::bursty`]): sudden takeovers, the
//!   worst realistic election pattern;
//! * **adversarial** — one elephant carries 30% of the stream over
//!   uniform mice ([`rsk_stream::adversarial::single_heavy`]), the
//!   mice-filter/elephant split's stress case;
//! * **replay** — a regime-shift capture (Zipf first half, bursty second
//!   half) round-tripped through the binary trace format
//!   ([`rsk_stream::io`]), so the measured stream is exactly what a user
//!   replaying their own capture would feed the harness.
//!
//! All four streams are deterministic in `(ctx.items, ctx.seed)` and the
//! registry rows are the deterministic lineup, so the tables sit inside
//! the report-rot gate like every other registry scenario.

use crate::scenario::{AccuracyMetric, Scenario};
use crate::ExpContext;
use rsk_baselines::factory::Baseline;
use rsk_metrics::Table;
use rsk_stream::churn::ChurnModel;
use rsk_stream::{adversarial, churn, io, Dataset};

/// The `workloads` target: one full-registry outlier sweep per workload.
pub fn workloads(ctx: &ExpContext) -> Vec<Table> {
    let registry = ctx.registry(&Baseline::ACCURACY_SET, 25);

    let churn_model = ChurnModel {
        active_keys: 2_000,
        rotation_period: (ctx.items / 8).max(1),
        churn_fraction: 0.25,
        skew: 1.1,
    };
    let churn_sc = Scenario::churn(ctx, &churn_model, 25);
    let bursty_sc =
        Scenario::from_stream(ctx, churn::bursty(ctx.items, 2_000, 256, 0.2, ctx.seed), 25);
    let adversarial_sc = Scenario::from_stream(
        ctx,
        adversarial::single_heavy(ctx.items, 0.3, 50_000, ctx.seed),
        25,
    );
    let replay_sc = replay_scenario(ctx);

    vec![
        churn_sc.sweep_table(
            &registry,
            AccuracyMetric::Outliers,
            "Churning flows: outliers vs memory (full registry)",
        ),
        bursty_sc.sweep_table(
            &registry,
            AccuracyMetric::Outliers,
            "Bursty takeovers: outliers vs memory (full registry)",
        ),
        adversarial_sc.sweep_table(
            &registry,
            AccuracyMetric::Outliers,
            "Adversarial single-heavy: outliers vs memory (full registry)",
        ),
        replay_sc.sweep_table(
            &registry,
            AccuracyMetric::Outliers,
            "Replayed regime-shift trace: outliers vs memory (full registry)",
        ),
    ]
}

/// Build the regime-shift capture, persist it in the binary trace
/// format, and measure the **replayed** copy — exercising the exact
/// read path a user's own capture takes. Falls back to the in-memory
/// stream if the trace directory is unwritable (the answers are
/// identical either way; the round-trip is asserted when it happens).
fn replay_scenario(ctx: &ExpContext) -> Scenario<'_> {
    let half = ctx.items / 2;
    let mut trace = Dataset::IpTrace.generate(half, ctx.seed);
    trace.extend(churn::bursty(
        ctx.items - half,
        2_000,
        256,
        0.2,
        ctx.seed ^ 0x7ace,
    ));

    let path = ctx.out_dir.join("workloads_trace.rskt");
    let replayed = io::write_binary(&path, &trace)
        .and_then(|()| io::read_binary(&path))
        .ok();
    let stream = match replayed {
        Some(r) => {
            assert_eq!(r, trace, "binary trace round-trip must be exact");
            r
        }
        None => trace,
    };
    Scenario::from_stream(ctx, stream, 25)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_sweep_the_full_registry() {
        let dir = std::env::temp_dir().join(format!("rsk_workloads_{}", std::process::id()));
        let ctx = ExpContext {
            items: 30_000,
            quick: true,
            out_dir: dir.clone(),
            ..Default::default()
        };
        let ts = workloads(&ctx);
        assert_eq!(ts.len(), 4);
        for t in &ts {
            assert_eq!(t.len(), 9 + 5 + 1, "{}", t.title());
            let csv = t.to_csv();
            assert!(csv.contains("\nOursMerged,"), "{}", t.title());
            assert!(csv.contains("\nOursSlim,"), "{}", t.title());
        }
        // the replay trace landed on disk in the binary format
        assert!(dir.join("workloads_trace.rskt").exists());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn replay_scenario_round_trips_through_the_trace_format() {
        let dir = std::env::temp_dir().join(format!("rsk_replay_{}", std::process::id()));
        let ctx = ExpContext {
            items: 5_000,
            quick: true,
            out_dir: dir.clone(),
            ..Default::default()
        };
        let sc = replay_scenario(&ctx);
        assert_eq!(sc.stream.len(), ctx.items);
        assert_eq!(
            io::read_binary(&dir.join("workloads_trace.rskt")).unwrap(),
            sc.stream
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}
