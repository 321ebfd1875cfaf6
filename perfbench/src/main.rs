//! `perfbench` — run one workload of the benchmark and print its result
//! as one JSON object on stdout.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--serve-bin PATH] [--out-dir DIR]
//! ```
//!
//! `run.py` builds this binary and `rsk-serve`, then calls it; see
//! README.md. Exit status 1 means an operation failed (error reply,
//! transport or protocol failure) and no result was printed; 2 is a
//! usage error.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::exit;

use perfbench::common::json_num;
use perfbench::layers::PER_LAYER;
use perfbench::{Opts, Scale, WORKLOADS};

fn usage(err: &str) -> ! {
    eprintln!("perfbench: {err}");
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 [--serve-bin PATH] [--out-dir DIR]",
        WORKLOADS.join("|")
    );
    exit(2)
}

fn value(flag: &str, v: Option<String>) -> String {
    v.unwrap_or_else(|| usage(&format!("{flag} needs a value")))
}

fn main() {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        serve_bin: None,
        out_dir: PathBuf::from("perfbench/out"),
        scale: Scale::full(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let v = value(&arg, args.next());
        match arg.as_str() {
            "--workload" => workload = Some(v),
            "--seed" => opts.seed = v.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => opts.seconds = v.parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => opts.trace = v == "1",
            "--serve-bin" => opts.serve_bin = Some(PathBuf::from(v)),
            "--out-dir" => opts.out_dir = PathBuf::from(v),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }

    let out = match perfbench::run(&workload, &opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            exit(1);
        }
    };

    // Exactly the declared metric set, in a fixed order.
    let names: Vec<(&str, &str)> = if opts.trace {
        PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
    } else {
        out.metrics
            .0
            .iter()
            .map(|(n, _, u)| (n.as_str(), u.as_str()))
            .collect()
    };
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let Some(v) = out.metrics.get(name) else {
            eprintln!("perfbench: {workload}: metric {name} was not measured");
            exit(1);
        };
        if i > 0 {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_num(v)
        );
    }
    let counts: Vec<String> = out
        .counts
        .iter()
        .map(|(n, v)| format!("\"{n}\":{v}"))
        .collect();
    let notes: Vec<String> = out
        .notes
        .iter()
        .map(|n| format!("\"{}\"", n.replace('\\', "\\\\").replace('"', "'")))
        .collect();
    // An operation that fails outright aborts the run above, so a printed
    // result never carries failed operations.
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":0,\"metrics\":{{{metrics}}},\"counts\":{{{}}},\"placement\":{},\"notes\":[{}]}}",
        out.correct,
        out.attempted,
        counts.join(","),
        out.placement,
        notes.join(",")
    );
}
