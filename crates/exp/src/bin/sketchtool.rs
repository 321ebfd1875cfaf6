//! `sketchtool` — practitioner CLI for ReliableSketch.
//!
//! ```text
//! sketchtool <command> [flags]
//!
//! commands:
//!   generate   synthesize a workload trace to a file
//!              --dataset ip|web|dc|hadoop|zipf:<skew>  --items N
//!              --seed S  --out FILE  [--format bin|csv]
//!   analyze    summarize a trace with certified error intervals
//!              --trace FILE  [--memory BYTES] [--lambda Λ]
//!              [--top K] [--threshold T] [--audit] [--seed S]
//!   compare    run the competitor set on a trace, one line each
//!              --trace FILE  [--memory BYTES] [--lambda Λ] [--seed S]
//!   size       closed-form sizing from Theorems 4–5
//!              --items N  [--lambda Λ] [--delta Δ] [--rw R] [--rlambda R]
//!   contenders list the experiment harness's contender registry
//!              [--lambda Λ] [--workers W1,W2,..] [--contenders PATS]
//!
//! BYTES accepts K/M suffixes (e.g. 512K, 2M). Traces are the formats of
//! `rsk_stream::io`: `bin` (16-byte LE key/value records) or `csv`
//! (`key,value` lines); `analyze`/`compare` pick the format from the
//! file extension.
//! ```

use rsk_api::{MemoryFootprint, StreamSummary};
use rsk_baselines::factory::Baseline;
use rsk_core::{EmergencyPolicy, ReliableSketch};
use rsk_stream::{io as trace_io, Dataset, GroundTruth, Item};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let flags = Flags::parse(&args[1..]);
    let result = match command.as_str() {
        "generate" => generate(&flags),
        "analyze" => analyze(&flags),
        "compare" => compare(&flags),
        "size" => size(&flags),
        "stats" => stats(&flags),
        "contenders" => contenders(&flags),
        "--help" | "-h" | "help" => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Minimal `--flag value` parser (no external deps, like `repro`).
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Self {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i].trim_start_matches("--").to_string();
            if let Some(value) = args.get(i + 1) {
                if !value.starts_with("--") {
                    pairs.push((key, value.clone()));
                    i += 2;
                    continue;
                }
            }
            pairs.push((key, String::new())); // boolean flag
            i += 1;
        }
        Self(pairs)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value '{v}'")),
        }
    }

    fn bytes(&self, key: &str, default: usize) -> Result<usize, String> {
        let Some(v) = self.get(key) else {
            return Ok(default);
        };
        let (digits, mult) = match v.chars().last() {
            Some('K') | Some('k') => (&v[..v.len() - 1], 1 << 10),
            Some('M') | Some('m') => (&v[..v.len() - 1], 1 << 20),
            Some('G') | Some('g') => (&v[..v.len() - 1], 1 << 30),
            _ => (v, 1),
        };
        digits
            .parse::<usize>()
            .map(|n| n * mult)
            .map_err(|_| format!("--{key}: bad byte count '{v}'"))
    }
}

fn parse_dataset(spec: &str) -> Result<Dataset, String> {
    match spec {
        "ip" => Ok(Dataset::IpTrace),
        "web" => Ok(Dataset::WebStream),
        "dc" => Ok(Dataset::DataCenter),
        "hadoop" => Ok(Dataset::Hadoop),
        other => {
            if let Some(skew) = other.strip_prefix("zipf:") {
                let skew: f64 = skew
                    .parse()
                    .map_err(|_| format!("bad zipf skew '{skew}'"))?;
                Ok(Dataset::Zipf { skew })
            } else {
                Err(format!(
                    "unknown dataset '{other}' (ip|web|dc|hadoop|zipf:<skew>)"
                ))
            }
        }
    }
}

fn load_trace(path: &Path) -> Result<Vec<Item<u64>>, String> {
    let by_ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    let stream = match by_ext {
        "csv" => trace_io::read_csv(path),
        _ => trace_io::read_binary(path),
    };
    stream.map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn generate(flags: &Flags) -> Result<(), String> {
    let dataset = parse_dataset(flags.get("dataset").unwrap_or("ip"))?;
    let items: usize = flags.num("items", 1_000_000)?;
    let seed: u64 = flags.num("seed", 1)?;
    let out = PathBuf::from(
        flags
            .get("out")
            .ok_or_else(|| "--out FILE is required".to_string())?,
    );
    let format = flags.get("format").unwrap_or("bin");

    let stream = dataset.generate(items, seed);
    match format {
        "bin" => trace_io::write_binary(&out, &stream),
        "csv" => trace_io::write_csv(&out, &stream),
        other => return Err(format!("unknown format '{other}'")),
    }
    .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    let truth = GroundTruth::from_items(&stream);
    println!(
        "wrote {} items ({} distinct keys) to {}",
        items,
        truth.distinct(),
        out.display()
    );
    Ok(())
}

fn analyze(flags: &Flags) -> Result<(), String> {
    let trace = PathBuf::from(
        flags
            .get("trace")
            .ok_or_else(|| "--trace FILE is required".to_string())?,
    );
    let memory = flags.bytes("memory", 1 << 20)?;
    let lambda: u64 = flags.num("lambda", 25)?;
    let top: usize = flags.num("top", 10)?;
    let seed: u64 = flags.num("seed", 1)?;
    let stream = load_trace(&trace)?;

    let mut sk = ReliableSketch::<u64>::builder()
        .memory_bytes(memory)
        .error_tolerance(lambda)
        .emergency(EmergencyPolicy::ExactTable)
        .seed(seed)
        .build_sequential::<u64>();
    let t0 = std::time::Instant::now();
    for it in &stream {
        sk.insert(&it.key, it.value);
    }
    let secs = t0.elapsed().as_secs_f64();

    println!(
        "{} items in {:.0} ms ({:.1} M items/s), {} bytes of sketch, Λ = {lambda}",
        stream.len(),
        secs * 1e3,
        stream.len() as f64 / secs / 1e6,
        sk.memory_bytes(),
    );
    println!(
        "insertion failures: {} (emergency table holds the remainders)",
        sk.insertion_failures()
    );

    let threshold: u64 = flags.num(
        "threshold",
        (stream.iter().map(|i| i.value).sum::<u64>() / 1000).max(lambda),
    )?;
    let hh = sk.heavy_hitters(threshold);
    println!(
        "\ntop {} keys with estimate ≥ {threshold} (certified intervals):",
        top.min(hh.len())
    );
    println!(
        "{:>20}  {:>12}  {:>12}  {:>6}",
        "key", "estimate", "lower", "MPE"
    );
    for (k, est) in hh.iter().take(top) {
        println!(
            "{:>20}  {:>12}  {:>12}  {:>6}",
            k,
            est.value,
            est.lower_bound(),
            est.max_possible_error
        );
    }

    if flags.has("audit") {
        let truth = GroundTruth::from_items(&stream);
        let report = rsk_metrics::evaluate(&sk, &truth, lambda);
        println!(
            "\naudit vs exact oracle: {} keys, outliers {}, AAE {:.3}, ARE {:.4}, max |err| {}",
            report.keys, report.outliers, report.aae, report.are, report.max_abs_error
        );
    }
    Ok(())
}

fn compare(flags: &Flags) -> Result<(), String> {
    let trace = PathBuf::from(
        flags
            .get("trace")
            .ok_or_else(|| "--trace FILE is required".to_string())?,
    );
    let memory = flags.bytes("memory", 1 << 20)?;
    let lambda: u64 = flags.num("lambda", 25)?;
    let seed: u64 = flags.num("seed", 1)?;
    let stream = load_trace(&trace)?;
    let truth = GroundTruth::from_items(&stream);

    println!(
        "{} items, {} distinct keys, {} bytes per sketch, Λ = {lambda}",
        stream.len(),
        truth.distinct(),
        memory
    );
    println!(
        "{:<20}  {:>7}  {:>9}  {:>9}  {:>9}  {:>10}",
        "algorithm", "mode", "outliers", "AAE", "ARE", "ins Mops/s"
    );
    let ctx = rsk_exp::ExpContext {
        seed,
        ..Default::default()
    };
    let mut registry = ctx.registry(&Baseline::ACCURACY_SET, lambda);
    registry.insert(1, rsk_exp::Contender::ours_raw(lambda));
    for c in registry {
        let mut inst = c.build(memory, seed);
        let t0 = std::time::Instant::now();
        inst.ingest(&stream);
        let mops = stream.len() as f64 / t0.elapsed().as_secs_f64() / 1e6;
        let report = rsk_metrics::evaluate_with(|k| inst.query(k), &truth, lambda);
        println!(
            "{:<20}  {:>7}  {:>9}  {:>9.3}  {:>9.4}  {:>10.1}",
            c.label(),
            c.meta().mode.describe(),
            report.outliers,
            report.aae,
            report.are,
            mops
        );
    }
    Ok(())
}

fn size(flags: &Flags) -> Result<(), String> {
    let n: u64 = flags.num("items", 10_000_000)?;
    let lambda: u64 = flags.num("lambda", 25)?;
    let delta: f64 = flags.num("delta", 1e-10)?;
    let r_w: f64 = flags.num("rw", 2.0)?;
    let r_lambda: f64 = flags.num("rlambda", 2.5)?;
    if !(0.0..0.25).contains(&delta) {
        return Err("--delta must be in (0, 1/4) per Theorem 4".into());
    }

    use rsk_core::theory;
    let buckets = theory::recommended_buckets(n, lambda, r_w, r_lambda);
    let depth = theory::solve_depth(n, lambda, delta, r_w, r_lambda).max(7);
    let slots = theory::emergency_slots(delta, r_w, r_lambda);
    println!("sizing for N = {n}, Λ = {lambda}, Δ = {delta:.1e}, R_w = {r_w}, R_λ = {r_lambda}");
    println!(
        "  §3.2 recommended buckets : {buckets} ({} bytes)",
        buckets * rsk_core::BUCKET_BYTES
    );
    println!("  Theorem 4 depth d        : {depth} layers");
    println!("  emergency SpaceSaving    : {slots} slots (Δ₂·ln(1/Δ))");
    println!(
        "  space / time complexity  : O(N/Λ + ln(1/Δ)) = {:.0} units, amortized {:.4} ops/insert",
        theory::space_units(n, lambda, delta),
        theory::amortized_time(n, lambda, delta)
    );
    println!(
        "\nbuilder: ReliableSketch::builder().error_tolerance({lambda}).confidence({n}, {delta:.1e})"
    );
    Ok(())
}

/// List the experiment harness's contender registry — the exact lineup
/// `repro` races, with each contender's ingest mode and determinism.
fn contenders(flags: &Flags) -> Result<(), String> {
    let lambda: u64 = flags.num("lambda", 25)?;
    let mut ctx = rsk_exp::ExpContext::default();
    if let Some(w) = flags.get("workers") {
        ctx.workers = w
            .split(',')
            .map(|x| x.parse::<usize>().map_err(|_| format!("bad worker '{x}'")))
            .collect::<Result<Vec<_>, _>>()?;
    }
    if let Some(p) = flags.get("contenders") {
        ctx.contenders = Some(p.split(',').map(str::to_string).collect());
    }
    println!(
        "{:<20} {:<7} {:>6} {:>7} {:>8} {:>8} {:>9} {:>6}",
        "label", "mode", "shards", "filter", "sensing", "determ.", "baseline", "plane"
    );
    // CPU registry first, then the read-only dataplane models (whose Λ
    // is byte-domain in the testbed figure; the listing reuses --lambda)
    let mut registry = ctx.registry(&Baseline::ACCURACY_SET, lambda);
    registry.extend(ctx.dataplane_registry(lambda));
    for c in registry {
        let m = c.meta();
        println!(
            "{:<20} {:<7} {:>6} {:>7} {:>8} {:>8} {:>9} {:>6}",
            c.label(),
            m.mode.describe(),
            m.shards,
            if m.filtered { "mice" } else { "raw" },
            m.sensing,
            m.deterministic,
            m.baseline,
            if m.dataplane { "hw" } else { "cpu" }
        );
    }
    Ok(())
}

/// Exact one-pass trace statistics (no sketch involved) — what an
/// operator checks before choosing Λ and a memory budget.
fn stats(flags: &Flags) -> Result<(), String> {
    let trace = PathBuf::from(
        flags
            .get("trace")
            .ok_or_else(|| "--trace FILE is required".to_string())?,
    );
    let stream = load_trace(&trace)?;
    let truth = GroundTruth::from_items(&stream);

    let mut freqs: Vec<u64> = truth.iter().map(|(_, f)| f).collect();
    freqs.sort_unstable_by(|a, b| b.cmp(a));
    let total: u64 = truth.total();
    let distinct = truth.distinct();
    let top10_mass: u64 = freqs.iter().take(10).sum();
    let median = freqs[distinct / 2];
    let p99 = freqs[distinct / 100];

    println!(
        "{}: {} items, {} distinct keys",
        trace.display(),
        stream.len(),
        distinct
    );
    println!("  total value        : {total}");
    println!("  max / p99 / median : {} / {p99} / {median}", freqs[0]);
    println!(
        "  top-10 key share   : {:.1}%",
        100.0 * top10_mass as f64 / total as f64
    );
    println!(
        "  mean value per key : {:.1}",
        total as f64 / distinct as f64
    );
    let lambda = 25u64;
    println!(
        "  keys above Λ={lambda}    : {} ({:.2}% of keys)",
        truth.keys_above(lambda).len(),
        100.0 * truth.keys_above(lambda).len() as f64 / distinct as f64
    );
    println!(
        "\nrule of thumb (§3.2): memory ≈ N/Λ buckets; for Λ = {lambda}: {} buckets = {} KB",
        total / lambda,
        total / lambda * rsk_core::BUCKET_BYTES as u64 / 1024
    );
    Ok(())
}

const USAGE: &str = "usage: sketchtool <generate|analyze|compare|stats|size|contenders> [flags]
  generate   --dataset ip|web|dc|hadoop|zipf:<skew> --items N --seed S --out FILE [--format bin|csv]
  analyze    --trace FILE [--memory BYTES] [--lambda L] [--top K] [--threshold T] [--audit]
  compare    --trace FILE [--memory BYTES] [--lambda L] [--seed S]
  stats      --trace FILE
  size       --items N [--lambda L] [--delta D] [--rw R] [--rlambda R]
  contenders [--lambda L] [--workers W1,W2,..] [--contenders PAT1,PAT2,..]";

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flag_parsing_pairs_and_booleans() {
        let f = flags(&["--memory", "512K", "--audit", "--top", "5"]);
        assert_eq!(f.get("memory"), Some("512K"));
        assert!(f.has("audit"));
        assert_eq!(f.num::<usize>("top", 10).unwrap(), 5);
        assert_eq!(f.num::<usize>("missing", 10).unwrap(), 10);
        assert!(f.num::<usize>("memory", 0).is_err(), "512K is not a usize");
    }

    #[test]
    fn byte_suffixes() {
        let f = flags(&[
            "--a", "512K", "--b", "2M", "--c", "1G", "--d", "77", "--e", "junk",
        ]);
        assert_eq!(f.bytes("a", 0).unwrap(), 512 << 10);
        assert_eq!(f.bytes("b", 0).unwrap(), 2 << 20);
        assert_eq!(f.bytes("c", 0).unwrap(), 1 << 30);
        assert_eq!(f.bytes("d", 0).unwrap(), 77);
        assert_eq!(f.bytes("missing", 42).unwrap(), 42);
        assert!(f.bytes("e", 0).is_err());
    }

    #[test]
    fn dataset_specs() {
        assert_eq!(parse_dataset("ip").unwrap(), Dataset::IpTrace);
        assert_eq!(parse_dataset("hadoop").unwrap(), Dataset::Hadoop);
        assert_eq!(
            parse_dataset("zipf:1.5").unwrap(),
            Dataset::Zipf { skew: 1.5 }
        );
        assert!(parse_dataset("zipf:abc").is_err());
        assert!(parse_dataset("nope").is_err());
    }

    #[test]
    fn contenders_listing_runs() {
        contenders(&flags(&["--workers", "1,2", "--contenders", "Ours"])).unwrap();
        assert!(contenders(&flags(&["--workers", "x"])).is_err());
    }

    #[test]
    fn generate_analyze_roundtrip_via_tempdir() {
        let dir = std::env::temp_dir().join(format!("sketchtool-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("t.csv");
        let f = flags(&[
            "--dataset",
            "zipf:1.2",
            "--items",
            "20000",
            "--seed",
            "4",
            "--out",
            out.to_str().unwrap(),
            "--format",
            "csv",
        ]);
        generate(&f).unwrap();
        let f = flags(&[
            "--trace",
            out.to_str().unwrap(),
            "--memory",
            "64K",
            "--audit",
        ]);
        analyze(&f).unwrap();
        let f = flags(&["--trace", out.to_str().unwrap()]);
        stats(&f).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
