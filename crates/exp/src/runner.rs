//! Target dispatch and output emission — the engine behind the `repro`
//! binary, exposed as a library so the root integration suite drives the
//! exact code path CI gates.
//!
//! A *target* is one figure/table generator (`fig8`, `table1`,
//! `concurrent`, …); *groups* (`all`, `accuracy`, `speed`, …) expand to
//! target lists. [`run_and_write`] runs the expansion, prints every
//! table, saves one CSV per table under `ctx.out_dir`
//! (`<target>_<index>.csv`), and — when the invocation covers the `all`
//! group — regenerates `results/REPORT.md` from the same run.
//!
//! ## The regenerated report
//!
//! `REPORT.md` opens with a provenance header (exact command line, item
//! count, seed, quick-vs-full mode, worker counts, contender filter and
//! the resolved registry) so a stale or hand-edited report is
//! distinguishable from a regenerated one at a glance. CI re-runs
//! `repro all --quick` and fails on any diff (the report-rot gate), which
//! only works because every unmasked cell is run-to-run deterministic:
//! wall-clock tables are [volatile](rsk_metrics::Table::is_volatile) and
//! rendered as a pointer to their CSV instead of their cells.
//!
//! # Examples
//!
//! ```
//! use rsk_exp::{runner, ExpContext};
//!
//! let ctx = ExpContext { items: 2_000, quick: true, ..Default::default() };
//! // `table1` is closed-form: runs instantly and emits two tables
//! let tables = runner::run_target("table1", &ctx);
//! assert_eq!(tables.len(), 2);
//! assert_eq!(runner::expand("hardware"), vec!["table3", "table4", "fig20"]);
//! assert!(runner::expand("no-such-target").is_empty());
//! ```

use crate::{
    fig_ablation, fig_concurrent, fig_delta, fig_elephant, fig_error, fig_hash_calls, fig_intro,
    fig_layers, fig_outliers, fig_params, fig_replicate, fig_sensing, fig_serve, fig_subpop,
    fig_testbed, fig_throughput, fig_workloads, fig_zero_mem, tables, ExpContext, Table,
};
use rsk_baselines::factory::Baseline;
use std::path::PathBuf;

/// Every concrete target, in report order.
pub const ALL_TARGETS: [&str; 29] = [
    "table1",
    "table3",
    "table4",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "topk",
    "subpop",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "ablation",
    "intro",
    "delta",
    "concurrent",
    "workloads",
    "serve",
    "replicate",
];

/// Expand a target or group name; empty means the name is unknown.
pub fn expand(target: &str) -> Vec<&'static str> {
    match target {
        "all" => ALL_TARGETS.to_vec(),
        "accuracy" => vec![
            "fig4", "fig5", "fig6", "fig7", "topk", "subpop", "fig8", "fig9",
        ],
        "speed" => vec!["fig10", "fig16", "serve"],
        "params" => vec!["fig11", "fig12", "fig13", "fig14", "fig15"],
        "hardware" => vec!["table3", "table4", "fig20"],
        "beyond" => vec![
            "ablation",
            "intro",
            "delta",
            "concurrent",
            "workloads",
            "replicate",
        ],
        // the registry listing: not in `all`, so the report omits it
        "contenders" => vec!["contenders"],
        t => ALL_TARGETS.iter().copied().filter(|&x| x == t).collect(),
    }
}

/// Run one concrete target.
pub fn run_target(name: &str, ctx: &ExpContext) -> Vec<Table> {
    match name {
        "table1" => tables::table1(ctx),
        "table3" => tables::table3(ctx),
        "table4" => tables::table4(ctx),
        "fig4" => fig_outliers::fig4(ctx),
        "fig5" => fig_zero_mem::fig5(ctx),
        "fig6" => fig_outliers::fig6(ctx),
        "fig7" => fig_elephant::fig7(ctx),
        "topk" => fig_elephant::topk(ctx),
        "subpop" => fig_subpop::subpop(ctx),
        "fig8" => fig_error::fig8(ctx),
        "fig9" => fig_error::fig9(ctx),
        "fig10" => fig_throughput::fig10(ctx),
        "fig11" => fig_params::fig11(ctx),
        "fig12" => fig_params::fig12(ctx),
        "fig13" => fig_params::fig13(ctx),
        "fig14" => fig_params::fig14(ctx),
        "fig15" => fig_params::fig15(ctx),
        "fig16" => fig_hash_calls::fig16(ctx),
        "fig17" => fig_sensing::fig17(ctx),
        "fig18" => fig_sensing::fig18(ctx),
        "fig19" => fig_layers::fig19(ctx),
        "fig20" => fig_testbed::fig20(ctx),
        "ablation" => fig_ablation::ablation(ctx),
        "intro" => fig_intro::intro(ctx),
        "delta" => fig_delta::delta(ctx),
        "concurrent" => fig_concurrent::concurrent(ctx),
        "workloads" => fig_workloads::workloads(ctx),
        "serve" => fig_serve::serve(ctx),
        "replicate" => fig_replicate::replicate(ctx),
        "contenders" => vec![contenders(ctx)],
        _ => unreachable!("expand() filtered targets"),
    }
}

/// The contender registry, one row per contender: the CPU registry at
/// Λ = 25 first, then the read-only dataplane models (whose Λ is
/// byte-domain in the testbed figure; the listing reuses 25).
fn contenders(ctx: &ExpContext) -> Table {
    let mut table = Table::new(
        "Contender registry",
        &[
            "label", "mode", "shards", "filter", "sensing", "determ.", "baseline", "plane",
        ],
    );
    let mut registry = ctx.registry(&Baseline::ACCURACY_SET, 25);
    registry.extend(ctx.dataplane_registry(25));
    for c in registry {
        let m = c.meta();
        table.row(vec![
            c.label().to_string(),
            m.mode.describe(),
            m.shards.to_string(),
            (if m.filtered { "mice" } else { "raw" }).to_string(),
            m.sensing.to_string(),
            m.deterministic.to_string(),
            m.baseline.to_string(),
            (if m.dataplane { "hw" } else { "cpu" }).to_string(),
        ]);
    }
    table
}

/// Everything one invocation produced.
#[derive(Debug)]
pub struct RunSummary {
    /// Concrete targets that ran, in order.
    pub targets: Vec<&'static str>,
    /// CSV files written (one per emitted table).
    pub csv_files: Vec<PathBuf>,
    /// `REPORT.md` path, if this invocation regenerated it (only the
    /// `all` group does).
    pub report: Option<PathBuf>,
}

/// Run `target` (a name or group), print tables, write CSVs, and — for
/// `all` — regenerate `REPORT.md`. `invocation` is echoed into the
/// provenance header exactly as the user typed it.
///
/// Unknown targets return `Ok` with an empty `targets` list so callers
/// can print usage.
pub fn run_and_write(
    target: &str,
    ctx: &ExpContext,
    invocation: &str,
) -> std::io::Result<RunSummary> {
    let targets = expand(target);
    let mut csv_files = Vec::new();
    if targets.is_empty() {
        return Ok(RunSummary {
            targets,
            csv_files,
            report: None,
        });
    }

    let write_report = target == "all";
    let mut report = String::new();
    if write_report {
        report.push_str(&provenance_header(ctx, invocation));
    }

    for name in &targets {
        let started = std::time::Instant::now();
        let tables = run_target(name, ctx);
        if write_report {
            report.push_str(&format!("\n## target `{name}`\n\n"));
        }
        for (idx, t) in tables.iter().enumerate() {
            println!("{t}");
            let file = ctx.out_dir.join(format!("{name}_{idx}.csv"));
            if let Err(e) = t.save_csv(&file) {
                eprintln!("warning: could not write {}: {e}", file.display());
            } else {
                csv_files.push(file);
            }
            if write_report {
                if t.is_volatile() {
                    report.push_str(&format!(
                        "### {}\n\n*(wall-clock measurements — host-dependent by nature, \
                         so the committed report elides them; see `{name}_{idx}.csv` from a \
                         local run)*\n\n",
                        t.title()
                    ));
                } else {
                    report.push_str(&format!("{t}\n"));
                }
            }
        }
        eprintln!("# {name} done in {:.1}s", started.elapsed().as_secs_f64());
    }

    let report_path = if write_report {
        let path = ctx.out_dir.join("REPORT.md");
        std::fs::create_dir_all(&ctx.out_dir)?;
        std::fs::write(&path, report)?;
        eprintln!("# regenerated report: {}", path.display());
        Some(path)
    } else {
        None
    };

    Ok(RunSummary {
        targets,
        csv_files,
        report: report_path,
    })
}

/// The provenance header of `REPORT.md`: the exact command, every knob
/// that shapes the numbers, and the resolved contender registry.
pub fn provenance_header(ctx: &ExpContext, invocation: &str) -> String {
    let mut s = String::from(
        "# ReliableSketch reproduction report\n\n\
         <!-- Regenerated by `repro`; do NOT hand-edit. CI re-runs the command\n\
              below and fails on any diff (report-rot gate). -->\n\n\
         ## Provenance\n\n",
    );
    s.push_str(&format!("* command: `{invocation}`\n"));
    s.push_str(&format!(
        "* items: {} ({} mode; paper scale is {})\n",
        ctx.items,
        if ctx.quick { "quick" } else { "full" },
        crate::PAPER_ITEMS
    ));
    s.push_str(&format!("* seed: {}\n", ctx.seed));
    s.push_str(&format!("* workers: {:?}\n", ctx.workers));
    s.push_str(&format!(
        "* contender filter: {}\n",
        match &ctx.contenders {
            Some(p) => p.join(","),
            None => "(none)".into(),
        }
    ));
    s.push_str("* registry: ");
    let reg = ctx.registry(&rsk_baselines::factory::Baseline::ACCURACY_SET, 25);
    let labels: Vec<String> = reg
        .iter()
        .map(|c| {
            format!(
                "{} [{}{}]",
                c.label(),
                c.meta().mode.describe(),
                if c.meta().deterministic {
                    ""
                } else {
                    ", volatile"
                }
            )
        })
        .collect();
    s.push_str(&labels.join(", "));
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_expand_and_cover_all() {
        assert_eq!(expand("all").len(), ALL_TARGETS.len());
        for group in ["accuracy", "speed", "params", "hardware", "beyond"] {
            for t in expand(group) {
                assert!(ALL_TARGETS.contains(&t), "{group} expands to unknown {t}");
            }
        }
        assert_eq!(expand("fig8"), vec!["fig8"]);
        assert!(expand("bogus").is_empty());
        assert!(expand("all").contains(&"concurrent"));
    }

    #[test]
    fn contenders_lists_the_filtered_registry_outside_all() {
        assert!(!expand("all").contains(&"contenders"));
        let ctx = ExpContext {
            workers: vec![2, 4],
            contenders: Some(vec!["x4".into()]),
            ..Default::default()
        };
        let tables = run_target("contenders", &ctx);
        let csv = tables[0].to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("label,mode,shards,filter,sensing,determ.,baseline,plane")
        );
        // the accuracy registry races the sharded flavour at the largest
        // worker count only
        let rows: Vec<&str> = lines.collect();
        assert_eq!(rows, ["Ours(x4)@4w,par:4,4,mice,true,true,false,cpu"]);
    }

    #[test]
    fn provenance_names_the_command_and_registry() {
        let ctx = ExpContext {
            quick: true,
            items: 1_000,
            ..Default::default()
        };
        let h = provenance_header(&ctx, "repro all --quick");
        assert!(h.contains("command: `repro all --quick`"));
        assert!(h.contains("quick mode"));
        assert!(h.contains("OursAtomic [par:1]"));
        assert!(h.contains("do NOT hand-edit"));
    }
}
