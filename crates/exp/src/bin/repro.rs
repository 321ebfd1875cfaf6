//! `repro` — regenerate every table and figure of the ReliableSketch
//! evaluation through the contender registry.
//!
//! ```text
//! repro <target> [--items N] [--seed S] [--quick] [--out DIR]
//!               [--workers W1,W2,..] [--contenders PAT1,PAT2,..]
//!
//! targets:
//!   table1 table3 table4
//!   fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14
//!   fig15 fig16 fig17 fig18 fig19 fig20 topk subpop ablation intro
//!   delta concurrent workloads serve replicate
//!   contenders the contender registry, one row each (not in `all`)
//!   all        every target above but `contenders`; also regenerates
//!              REPORT.md
//!   accuracy   fig4 fig5 fig6 fig7 topk subpop fig8 fig9
//!   speed      fig10 fig16 serve
//!   params     fig11 fig12 fig13 fig14 fig15
//!   hardware   table3 table4 fig20
//!   beyond     ablation intro delta concurrent workloads replicate
//! ```
//!
//! Tables print to stdout and are saved as CSV under `--out`
//! (default `results/`). `--workers` sets the worker counts the parallel
//! contenders register at (default 1,2,4); `--contenders` keeps only
//! registry labels containing one of the comma-separated patterns.
//! Running the `all` group additionally regenerates
//! `results/REPORT.md` with a provenance header; CI re-runs
//! `repro all --quick` and fails on any report diff. Defaults run at 1 M
//! items with memory scaled accordingly; use `--items 10000000` for
//! paper scale.

use rsk_exp::{runner, ExpContext};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let target = args[0].clone();
    let mut ctx = ExpContext::default();

    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--items" => {
                i += 1;
                ctx.items = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--items needs a number"));
            }
            "--seed" => {
                i += 1;
                ctx.seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--quick" => {
                ctx.quick = true;
                if ctx.items > 100_000 {
                    ctx.items = 100_000;
                }
            }
            "--out" => {
                i += 1;
                ctx.out_dir = args
                    .get(i)
                    .map(std::path::PathBuf::from)
                    .unwrap_or_else(|| die("--out needs a path"));
            }
            "--workers" => {
                i += 1;
                ctx.workers = args
                    .get(i)
                    .and_then(|v| {
                        v.split(',')
                            .map(|w| w.parse::<usize>().ok().filter(|&w| w > 0))
                            .collect::<Option<Vec<usize>>>()
                    })
                    .filter(|w| !w.is_empty())
                    .unwrap_or_else(|| die("--workers needs a comma-separated list like 1,2,4"));
            }
            "--contenders" => {
                i += 1;
                ctx.contenders = Some(
                    args.get(i)
                        .map(|v| v.split(',').map(str::to_string).collect::<Vec<_>>())
                        .filter(|p: &Vec<String>| !p.is_empty())
                        .unwrap_or_else(|| die("--contenders needs a comma-separated list")),
                );
            }
            other => die(&format!("unknown flag {other}")),
        }
        i += 1;
    }

    let invocation = format!("repro {}", args.join(" "));
    eprintln!(
        "# repro: {target} | items={} seed={} quick={} workers={:?} out={}",
        ctx.items,
        ctx.seed,
        ctx.quick,
        ctx.workers,
        ctx.out_dir.display()
    );

    match runner::run_and_write(&target, &ctx, &invocation) {
        Ok(summary) if summary.targets.is_empty() => {
            eprintln!("unknown target '{target}'\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(summary) => {
            eprintln!(
                "# wrote {} CSV file(s) under {}",
                summary.csv_files.len(),
                ctx.out_dir.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2)
}

const USAGE: &str = "usage: repro <target> [--items N] [--seed S] [--quick] [--out DIR]
                    [--workers W1,W2,..] [--contenders PAT1,PAT2,..]
targets: table1 table3 table4 fig4..fig20 topk subpop ablation intro delta
         concurrent workloads serve replicate contenders
groups : all accuracy speed params hardware beyond";
