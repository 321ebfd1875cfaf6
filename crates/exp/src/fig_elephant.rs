//! Figure 7: number of outliers among **frequent keys** (`f(e) > T`),
//! worst case over repeated hash seeds — the heavy-hitter scenario.
//!
//! The paper uses `T = 100` and `T = 1000`, memory from 200 KB to 4 MB,
//! Λ = 25, and reports the worst of 100 seeds. Competitors here are the
//! data-plane-capable set (PRECISION, Elastic, HashPipe) plus SS.
//!
//! Expected shape (§6.2.2): ReliableSketch reaches zero at the smallest
//! memory; SS needs ≈1.8× more at T=100 and is comparable at T=1000;
//! Elastic/HashPipe/PRECISION retain outliers across the sweep. The
//! concurrent contenders protect elephants exactly as the sequential
//! sketch does — worst-case zero in the same memory regime, at every
//! registered worker count.

use crate::scenario::{sweep_table_shell, AccuracyMetric, Scenario};
use crate::{Contender, ExpContext};
use rsk_baselines::factory::Baseline;
use rsk_metrics::Table;
use rsk_stream::churn::ChurnModel;
use rsk_stream::Dataset;

/// Figure 7: worst-case outliers among frequent keys, T ∈ {100, 1000}.
pub fn fig7(ctx: &ExpContext) -> Vec<Table> {
    [100u64, 1000]
        .iter()
        .map(|&t| elephant_table(ctx, t))
        .collect()
}

fn elephant_table(ctx: &ExpContext, threshold: u64) -> Table {
    let sc = Scenario::new(ctx, Dataset::IpTrace, 25);
    // scale the frequency threshold with the stream so the frequent-key
    // population matches the paper's (12,718 at T=100 / 1,625 at T=1000)
    let scaled_t =
        ((threshold as f64) * ctx.items as f64 / crate::PAPER_ITEMS as f64).max(2.0) as u64;
    let hot = sc.truth.keys_above(scaled_t);

    let sweep = {
        // paper: 200 KB – 4 MB
        let mut pts = vec![ctx.scale_mem(200 * 1024)];
        pts.extend(ctx.memory_sweep());
        pts.sort_unstable();
        pts.dedup();
        pts
    };
    let reps = ctx.repetitions();
    sc.worst_case_subset_table(
        &ctx.registry(&Baseline::ELEPHANT_SET, 25),
        &hot,
        &sweep,
        &format!(
            "Figure 7 (T={threshold}, scaled {scaled_t}): worst-case outliers among {} frequent keys over {reps} seeds",
            hot.len()
        ),
    )
}

/// Entries the top-K race asks each contender for.
const TOPK_K: usize = 16;
/// Capacity of the certified top-K layer in the race (matching the
/// serve tier's `DEFAULT_TOPK_CAPACITY`).
const TOPK_CAPACITY: usize = 128;

/// The top-K companion to Figure 7: the certified top-K layer
/// (`OursTopK`) raced against Space-Saving — recall of the true heaviest
/// keys plus the certified per-entry error only the sketch-backed
/// summary can advertise — under static Zipf elephants and under a
/// churning population, then the full accuracy registry (plus
/// `OursTopK`) swept over the churn stream.
pub fn topk(ctx: &ExpContext) -> Vec<Table> {
    let racers = [
        Contender::ours_topk(25, TOPK_CAPACITY),
        Contender::spacesaving_topk(),
    ];
    let sc = Scenario::new(ctx, Dataset::IpTrace, 25);
    let (static_recall, static_err) = topk_race(ctx, &sc, &racers, "IpTrace");

    let churn = churn_scenario(ctx);
    let (churn_recall, churn_err) = topk_race(ctx, &churn, &racers, "churning elephants");

    let mut registry = ctx.registry(&Baseline::ELEPHANT_SET, 25);
    if ctx.keep("OursTopK") {
        registry.push(Contender::ours_topk(25, TOPK_CAPACITY));
    }
    let outliers = churn.sweep_table(
        &registry,
        AccuracyMetric::Outliers,
        "Churning elephants: outliers vs memory (accuracy registry + OursTopK)",
    );
    vec![static_recall, static_err, churn_recall, churn_err, outliers]
}

/// The churning-population workload of the top-K tables: a quarter of
/// the live flows retire every eighth of the stream, so yesterday's
/// elephants keep vanishing under the summaries.
fn churn_scenario(ctx: &ExpContext) -> Scenario<'_> {
    let model = ChurnModel {
        active_keys: 2_000,
        rotation_period: (ctx.items / 8).max(1),
        churn_fraction: 0.25,
        skew: 1.1,
    };
    Scenario::churn(ctx, &model, 25)
}

/// Race the top-K contenders over one scenario: a recall table (fraction
/// of reported keys that are true top-`TOPK_K` heavy hitters; `*` marks
/// answers the summary certifies from its own k-th/(k+1)-th gap, no
/// oracle needed) and a max-certified-error table (`—` where the
/// contender has no certified bound to report).
fn topk_race(
    ctx: &ExpContext,
    sc: &Scenario<'_>,
    racers: &[Contender],
    tag: &str,
) -> (Table, Table) {
    let sweep = ctx.memory_sweep();
    let mut recall_t = sweep_table_shell(
        &format!("Top-{TOPK_K} recall on {tag} (* = recall certified by the summary itself)"),
        &sweep,
    );
    let mut err_t = sweep_table_shell(
        &format!("Top-{TOPK_K} max certified per-entry error on {tag} (— = no certified bound)"),
        &sweep,
    );

    // a reported key counts as a hit if its true count reaches the k-th
    // largest true count — tie-tolerant, so boundary ties between equal
    // counts never penalize either contender
    let mut pairs = sc.truth.to_pairs();
    pairs.sort_by_key(|&(_, v)| core::cmp::Reverse(v));
    let t_k = pairs.get(TOPK_K - 1).map_or(0, |&(_, v)| v);

    for c in racers {
        let mut recall_row = vec![c.label().to_string()];
        let mut err_row = vec![c.label().to_string()];
        for &mem in &sweep {
            let inst = c.run(mem, ctx.seed, &sc.stream);
            let entries = inst
                .top_entries(TOPK_K)
                .expect("registered top-K contender");
            let hits = entries
                .iter()
                .filter(|&&(k, _, _)| sc.truth.freq(&k) >= t_k)
                .count()
                .min(TOPK_K);
            let recall = hits as f64 / TOPK_K as f64;
            let certified = inst.certified_top_k(TOPK_K);
            let star = certified.as_ref().is_some_and(|t| t.recall_certified());
            recall_row.push(format!("{recall:.3}{}", if star { "*" } else { "" }));
            err_row.push(match &certified {
                Some(t) => t
                    .entries
                    .iter()
                    .map(|e| e.error)
                    .max()
                    .unwrap_or(0)
                    .to_string(),
                None => "—".into(),
            });
        }
        recall_t.row(recall_row);
        err_t.row(err_row);
    }
    (recall_t, err_t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_shapes() {
        let ctx = ExpContext {
            items: 30_000,
            quick: true,
            ..Default::default()
        };
        let ts = fig7(&ctx);
        assert_eq!(ts.len(), 2);
        for t in &ts {
            // Ours + 4 competitors + concurrent lineup + slim digest
            assert_eq!(t.len(), 5 + 5 + 1);
            assert!(t.to_csv().contains("\nOursMerged,"));
        }
    }

    #[test]
    fn topk_race_certifies_perfect_recall() {
        let ctx = ExpContext {
            items: 30_000,
            quick: true,
            ..Default::default()
        };
        let ts = topk(&ctx);
        assert_eq!(ts.len(), 5);

        // the certified layer recalls every true elephant at every
        // budget of the quick sweep, and says so itself (the `*`)
        let recall_csv = ts[0].to_csv();
        let ours = recall_csv
            .lines()
            .find(|l| l.starts_with("OursTopK,"))
            .expect("OursTopK row");
        for cell in ours.split(',').skip(1) {
            assert_eq!(cell, "1.000*", "recall must be perfect and certified");
        }
        assert!(recall_csv.contains("\nSS,"));

        // the error table: numeric bounds for the certified layer, an
        // explicit dash for Space-Saving, which has none to offer
        let err_csv = ts[1].to_csv();
        let ss = err_csv
            .lines()
            .find(|l| l.starts_with("SS,"))
            .expect("SS row");
        assert!(ss.split(',').skip(1).all(|c| c == "—"));
        let ours_err = err_csv
            .lines()
            .find(|l| l.starts_with("OursTopK,"))
            .expect("OursTopK row");
        assert!(ours_err
            .split(',')
            .skip(1)
            .all(|c| c.parse::<u64>().is_ok()));

        // the churn registry sweep carries OursTopK alongside the full
        // accuracy lineup
        let churn_csv = ts[4].to_csv();
        assert!(churn_csv.contains("\nOursTopK,"));
        assert!(churn_csv.contains("\nOursMerged,"));
    }
}
