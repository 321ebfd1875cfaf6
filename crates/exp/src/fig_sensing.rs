//! Figures 17 and 18: the error-sensing experiments.
//!
//! * **Fig 17** — for sampled mice and elephant keys, report the sensed
//!   interval `[f̂ − MPE, f̂]` and verify it contains the actual value
//!   (scatter plots in the paper; here a containment census plus sample
//!   rows). The census runs over **every sensing contender** in the
//!   registry — sequential, atomic, sharded, windowed and merged — so
//!   the certified-interval guarantee is checked on the lock-free path
//!   too; expected outcome is zero violations for each while no
//!   insertion fails.
//! * **Fig 18a** — bucket keys by actual absolute error; per bucket, the
//!   mean sensed error tracks the actual error (`y = x`).
//! * **Fig 18b** — mean sensed vs actual error as memory grows
//!   (1000–2500 KB paper scale): both shrink with memory.

use crate::contender::Contender;
use crate::ExpContext;
use rsk_api::ErrorSensing;
use rsk_core::ReliableSketch;
use rsk_metrics::error::sensed_vs_actual;
use rsk_metrics::report::fmt_bytes;
use rsk_metrics::Table;
use rsk_stream::Dataset;

fn build(ctx: &ExpContext, mem: usize) -> (ReliableSketch<u64>, rsk_stream::GroundTruth<u64>) {
    let (stream, truth) = ctx.load(Dataset::IpTrace);
    let mut sk: ReliableSketch<u64> = ReliableSketch::<u64>::builder()
        .memory_bytes(mem)
        .error_tolerance(25)
        .seed(ctx.seed)
        .build_sequential();
    for it in &stream {
        rsk_api::StreamSummary::insert(&mut sk, &it.key, it.value);
    }
    (sk, truth)
}

/// Figure 17: sensed intervals contain the truth, for mice and elephants,
/// for every sensing contender in the registry.
///
/// Containment is unconditional as long as no insertion fails (the
/// deterministic half of the paper's guarantee); the census therefore
/// also reports the failure count — at the paper's default parameters it
/// is zero and so are the violations, on the sequential *and* lock-free
/// paths.
pub fn fig17(ctx: &ExpContext) -> Vec<Table> {
    let mem = ctx.scale_mem(2 << 20);
    let (stream, truth) = ctx.load(Dataset::IpTrace);

    let mut census = Table::new(
        "Figure 17: sensed-interval containment census (Λ=25, 2MB paper scale)",
        &[
            "contender",
            "key class",
            "keys",
            "contained",
            "violations",
            "failures",
        ],
    );
    // paper's classes: mice = value ≤ 400, elephants = value ∈ [4000, 4400]
    // (scaled to this run)
    let scale = ctx.items as f64 / crate::PAPER_ITEMS as f64;
    let mice_cap = (400.0 * scale).max(4.0) as u64;
    let ele_lo = (4000.0 * scale).max(40.0) as u64;
    let ele_hi = (4400.0 * scale).max(60.0) as u64;
    let classes = [("mice", 1u64, mice_cap), ("elephant", ele_lo, ele_hi)];

    let mut contenders = vec![Contender::ours(25)];
    contenders.retain(|c| ctx.keep(c.label()));
    contenders.extend(ctx.concurrent_registry(25));

    // sample rows come from the first contender in the (filtered) lineup
    let mut samples = Table::new(
        format!(
            "Figure 17 samples: sensed intervals ({})",
            contenders.first().map_or("none", |c| c.label())
        ),
        &["class", "actual", "estimate", "MPE", "interval"],
    );

    for (ci, c) in contenders.iter().enumerate() {
        if !c.meta().sensing {
            continue;
        }
        let inst = c.run(mem, ctx.seed, &stream);
        for (class, lo, hi) in classes {
            let mut keys = 0u64;
            let mut contained = 0u64;
            let mut sampled = 0;
            for (k, f) in truth.iter() {
                if f < lo || f > hi {
                    continue;
                }
                keys += 1;
                let est = inst.query_with_error(k).expect("sensing contender");
                if est.contains(f) {
                    contained += 1;
                }
                if ci == 0 && sampled < 5 {
                    sampled += 1;
                    samples.row(vec![
                        class.into(),
                        f.to_string(),
                        est.value.to_string(),
                        est.max_possible_error.to_string(),
                        format!("[{}, {}]", est.lower_bound(), est.value),
                    ]);
                }
            }
            census.row(vec![
                c.label().to_string(),
                class.into(),
                keys.to_string(),
                contained.to_string(),
                (keys - contained).to_string(),
                inst.insertion_failures().to_string(),
            ]);
        }
    }
    vec![census, samples]
}

/// Figure 18: sensed error vs actual error, and vs memory.
pub fn fig18(ctx: &ExpContext) -> Vec<Table> {
    // 18a: bucket by actual error at the default budget
    let (sk, truth) = build(ctx, ctx.scale_mem(1 << 20));
    let mut a = Table::new(
        "Figure 18a: mean sensed error vs actual error (y=x reference)",
        &["actual error", "mean sensed error", "mean actual error"],
    );
    for (actual, sensed, act) in sensed_vs_actual(&sk, &truth, 20) {
        a.row(vec![
            actual.to_string(),
            format!("{sensed:.3}"),
            format!("{act:.3}"),
        ]);
    }

    // 18b: sweep memory 1000–2500 KB (paper scale)
    let mut b = Table::new(
        "Figure 18b: sensed vs actual error as memory grows",
        &["memory", "mean sensed", "mean actual (AAE)"],
    );
    for paper_kb in [1000usize, 1250, 1500, 2000, 2500] {
        let mem = ctx.scale_mem(paper_kb * 1024);
        let (sk, truth) = build(ctx, mem);
        let mut sensed_sum = 0.0f64;
        let mut actual_sum = 0.0f64;
        let mut n = 0u64;
        for (k, f) in truth.iter() {
            let est = sk.query_with_error(k);
            sensed_sum += est.max_possible_error as f64;
            actual_sum += est.value.abs_diff(f) as f64;
            n += 1;
        }
        b.row(vec![
            fmt_bytes(mem),
            format!("{:.3}", sensed_sum / n as f64),
            format!("{:.3}", actual_sum / n as f64),
        ]);
    }
    vec![a, b]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpContext {
        ExpContext {
            items: 50_000,
            quick: true,
            ..Default::default()
        }
    }

    #[test]
    fn fig17_zero_violations_without_failures() {
        let ts = fig17(&tiny());
        let census = &ts[0];
        let csv = census.to_csv();
        // one row per (sensing contender, class); concurrent rows included
        assert!(csv.contains("\nOursAtomic,"));
        assert!(csv.contains(",elephant,"));
        for line in csv.lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            let violations: u64 = cells[4].parse().unwrap();
            let failures: u64 = cells[5].parse().unwrap();
            if failures == 0 {
                assert_eq!(violations, 0, "interval violated: {line}");
            }
        }
    }

    #[test]
    fn fig18_sensed_dominates_actual() {
        let ts = fig18(&tiny());
        for line in ts[1].to_csv().lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            let sensed: f64 = cells[1].parse().unwrap();
            let actual: f64 = cells[2].parse().unwrap();
            assert!(
                sensed >= actual - 1e-9,
                "sensed error must upper-bound actual: {line}"
            );
        }
    }
}
