//! Concurrent-path accuracy at paper fidelity — the evaluation the
//! ROADMAP left open after the lock-free rebuild.
//!
//! PR 2/3 made `ConcurrentReliable`, `ShardedReliable` and
//! `EpochedConcurrent` *fast* and *feature-complete*; this module
//! measures whether they are **correct at paper fidelity**, i.e. whether
//! the near-100 % all-keys confidence the paper claims for the
//! sequential sketch survives the CAS races of the atomic path. Four
//! tables:
//!
//! * **summary** — ARE/AAE/outliers/max error/failures per registered
//!   contender at the default 1 MB (paper-scale) budget, plus the max
//!   estimate deviation against the sequential twin. Expected: the
//!   filtered 1-worker atomic row deviates by **exactly 0** from `Ours`
//!   (and raw@1w from `Ours(Raw)`); sharded rows at every worker count
//!   agree with each other; windowed/merged rows stay within their
//!   documented MPE ceilings.
//! * **full correctness** — fraction of hash seeds with *zero* outliers
//!   per contender (the paper's all-keys confidence, measured on the
//!   lock-free path). Expected: 1.0 at the default budget for every
//!   ReliableSketch variant.
//! * **error sensing** — certified-interval containment census on the
//!   concurrent contenders. Expected: zero violations while no insertion
//!   fails.
//! * **contention envelope** (volatile) — truly contended multi-worker
//!   ingestion into *one* atomic sketch on a heavy-head stream: no
//!   estimate may undershoot its truth, and the Λ ceiling must hold,
//!   under a real thread race.

use crate::contender::{concurrent_contenders, Contender};
use crate::scenario::Scenario;
use crate::ExpContext;
use rsk_api::ConcurrentSummary;
use rsk_core::{ConcurrentReliable, MiceFilterConfig, ReliableConfig};
use rsk_metrics::report::fmt_bytes;
use rsk_metrics::Table;
use rsk_stream::{to_pairs, Dataset};

/// All four concurrent-path tables (the `concurrent` repro target).
pub fn concurrent(ctx: &ExpContext) -> Vec<Table> {
    let sc = Scenario::new(ctx, Dataset::IpTrace, 25);
    let mem = ctx.scale_mem(1 << 20);
    vec![
        summary_table(ctx, &sc, mem),
        full_correctness_table(ctx, &sc, mem),
        sensing_table(ctx, &sc, mem),
        contention_envelope_table(ctx),
    ]
}

/// Contenders this module races: both sequential references plus the
/// deterministic concurrent lineup, sharded at every worker count.
fn lineup(ctx: &ExpContext) -> Vec<Contender> {
    let mut v = vec![Contender::ours(25), Contender::ours_raw(25)];
    v.retain(|c| ctx.keep(c.label()));
    v.extend(concurrent_contenders(ctx, 25, true));
    v
}

fn summary_table(ctx: &ExpContext, sc: &Scenario<'_>, mem: usize) -> Table {
    let mut t = Table::new(
        format!(
            "Concurrent-path summary: IP trace, Λ=25, {} (paper-scale 1MB)",
            fmt_bytes(mem)
        ),
        &[
            "contender",
            "mode",
            "ARE",
            "AAE",
            "# outliers",
            "max |err|",
            "failures",
            "max dev vs seq twin",
        ],
    );
    // sequential twins answer as the deviation reference; their own rows
    // reuse these instances instead of re-ingesting
    let ref_filtered = Contender::ours(25).run(mem, ctx.seed, &sc.stream);
    let ref_raw = Contender::ours_raw(25).run(mem, ctx.seed, &sc.stream);
    for c in lineup(ctx) {
        let owned;
        let inst: &dyn crate::ContenderInstance = match c.label() {
            "Ours" => ref_filtered.as_ref(),
            "Ours(Raw)" => ref_raw.as_ref(),
            _ => {
                owned = c.run(mem, ctx.seed, &sc.stream);
                owned.as_ref()
            }
        };
        let rep = sc.evaluate(inst);
        let reference = if c.meta().filtered {
            ref_filtered.as_ref()
        } else {
            ref_raw.as_ref()
        };
        let max_dev = sc
            .truth
            .iter()
            .map(|(k, _)| inst.query(k).abs_diff(reference.query(k)))
            .max()
            .unwrap_or(0);
        let mut row = vec![c.label().to_string(), c.meta().mode.describe()];
        row.extend(rep.cells());
        row.push(inst.insertion_failures().to_string());
        row.push(max_dev.to_string());
        t.row(row);
    }
    t
}

fn full_correctness_table(ctx: &ExpContext, sc: &Scenario<'_>, mem: usize) -> Table {
    let mut t = Table::new(
        format!(
            "Full correctness: seeds with zero outliers out of {} (IP trace, Λ=25, {})",
            ctx.repetitions(),
            fmt_bytes(mem)
        ),
        &["contender", "fully correct seeds", "rate"],
    );
    for (label, clean, reps) in sc.full_correctness_rows(&lineup(ctx), mem) {
        t.row(vec![
            label,
            format!("{clean}/{reps}"),
            format!("{:.2}", clean as f64 / reps as f64),
        ]);
    }
    t
}

fn sensing_table(ctx: &ExpContext, sc: &Scenario<'_>, mem: usize) -> Table {
    let mut t = Table::new(
        format!(
            "Error sensing on the lock-free path: interval containment ({})",
            fmt_bytes(mem)
        ),
        &["contender", "keys", "contained", "violations", "failures"],
    );
    for c in lineup(ctx) {
        if !c.meta().sensing {
            continue;
        }
        let inst = c.run(mem, ctx.seed, &sc.stream);
        let mut keys = 0u64;
        let mut contained = 0u64;
        for (k, f) in sc.truth.iter() {
            keys += 1;
            let est = inst.query_with_error(k).expect("sensing contender");
            if est.contains(f) {
                contained += 1;
            }
        }
        t.row(vec![
            c.label().to_string(),
            keys.to_string(),
            contained.to_string(),
            (keys - contained).to_string(),
            inst.insertion_failures().to_string(),
        ]);
    }
    t
}

/// Truly contended ingestion into one atomic sketch (no shards, several
/// workers racing the same buckets) on the heavy-head skew-3.0 stream —
/// the interleaving is nondeterministic, so the table is volatile, but
/// the *bounds* it checks hold under every schedule.
fn contention_envelope_table(ctx: &ExpContext) -> Table {
    let sc = Scenario::new(ctx, Dataset::Zipf { skew: 3.0 }, 25);
    let mem = ctx.scale_mem(1 << 20);
    let workers = ctx.workers.iter().copied().max().unwrap_or(4).max(2);
    let mut t = Table::new(
        format!(
            "Contention envelope: OursAtomic under {workers}-worker same-key races ({}, skew 3.0)",
            fmt_bytes(mem)
        ),
        &[
            "contender",
            "undershoots",
            "# outliers (|err| > Λ)",
            "failures",
        ],
    )
    .mark_volatile();
    for raw in [false, true] {
        let config = ReliableConfig {
            memory_bytes: mem,
            lambda: 25,
            mice_filter: if raw {
                None
            } else {
                Some(MiceFilterConfig::default())
            },
            seed: ctx.seed,
            ..Default::default()
        };
        let sk = ConcurrentReliable::<u64>::new(config);
        sk.ingest_parallel(&to_pairs(&sc.stream), workers);
        let mut undershoots = 0u64;
        let mut outliers = 0u64;
        for (k, f) in sc.truth.iter() {
            let est = sk.query_with_error(k).value;
            if est < f {
                undershoots += 1;
            }
            if est.abs_diff(f) > 25 {
                outliers += 1;
            }
        }
        t.row(vec![
            if raw { "OursAtomic(Raw)" } else { "OursAtomic" }.into(),
            undershoots.to_string(),
            outliers.to_string(),
            sk.insertion_failures().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpContext {
        ExpContext {
            items: 30_000,
            quick: true,
            ..Default::default()
        }
    }

    #[test]
    fn atomic_one_worker_row_deviates_zero_from_ours() {
        let ctx = tiny();
        let ts = concurrent(&ctx);
        assert_eq!(ts.len(), 4);
        let csv = ts[0].to_csv();
        for label in ["OursAtomic,", "OursAtomic(Raw),"] {
            let row = csv
                .lines()
                .find(|l| l.starts_with(label))
                .unwrap_or_else(|| panic!("row {label} missing in:\n{csv}"));
            assert!(
                row.ends_with(",0"),
                "1-worker atomic must match its sequential twin exactly: {row}"
            );
        }
    }

    #[test]
    fn sensing_has_zero_violations_without_failures() {
        let ctx = tiny();
        let ts = concurrent(&ctx);
        for line in ts[2].to_csv().lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            let violations: u64 = cells[3].parse().unwrap();
            let failures: u64 = cells[4].parse().unwrap();
            if failures == 0 {
                assert_eq!(violations, 0, "containment violated: {line}");
            }
        }
    }

    #[test]
    fn contention_envelope_is_volatile_and_exact() {
        let ctx = tiny();
        let ts = concurrent(&ctx);
        let t = &ts[3];
        assert!(t.is_volatile());
        for line in t.to_csv().lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells[1], "0", "an estimate undershot its truth: {line}");
        }
    }
}
