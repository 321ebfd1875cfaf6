//! Heavy-hitter detection — the paper's motivating network scenario
//! (§1): find every flow above a rate threshold with **no false verdicts
//! beyond the certified band**.
//!
//! A sketch with only per-query confidence mislabels thousands of mice
//! flows when a million keys are screened; ReliableSketch's all-keys
//! guarantee makes the report reliable: every flow with
//! `f ≥ T + Λ` is reported, nothing below `T − Λ` can be.
//!
//! ```sh
//! cargo run --release --example heavy_hitters
//! ```

use reliablesketch::baselines::CmSketch;
use reliablesketch::prelude::*;

const THRESHOLD: u64 = 1_000; // "frequent" cutoff T
const LAMBDA: u64 = 25;
const MEMORY: usize = 256 * 1024;

fn main() {
    let stream = Dataset::IpTrace.generate(2_000_000, 7);
    let truth = GroundTruth::from_items(&stream);

    // ReliableSketch report
    let mut ours = ReliableSketch::<u64>::builder()
        .memory_bytes(MEMORY)
        .error_tolerance(LAMBDA)
        .build_sequential::<u64>();
    for it in &stream {
        ours.insert(&it.key, it.value);
    }
    let report = ours.heavy_hitters(THRESHOLD);

    // CM sketch "report" at the same memory: every candidate key must be
    // re-queried, and overestimation mislabels mice as heavy
    let mut cm = CmSketch::<u64>::fast(MEMORY, 7);
    for it in &stream {
        cm.insert(&it.key, it.value);
    }

    let actual_heavy: std::collections::HashSet<u64> =
        truth.keys_above(THRESHOLD).into_iter().collect();

    // score ReliableSketch
    let mut ours_false_pos = 0;
    for (k, est) in &report {
        // certified: anything reported is at least T − Λ in truth
        assert!(est.lower_bound() >= THRESHOLD.saturating_sub(LAMBDA) || actual_heavy.contains(k));
        if !actual_heavy.contains(k) && truth.freq(k) < THRESHOLD - LAMBDA {
            ours_false_pos += 1;
        }
    }
    let ours_found = report
        .iter()
        .filter(|(k, _)| actual_heavy.contains(k))
        .count();

    // score CM over all keys (the screening scenario of §1)
    let mut cm_false_pos = 0;
    let mut cm_found = 0;
    for (k, f) in truth.iter() {
        let flagged = cm.query(k) >= THRESHOLD;
        match (flagged, f >= THRESHOLD) {
            (true, true) => cm_found += 1,
            (true, false) if f < THRESHOLD - LAMBDA => cm_false_pos += 1,
            _ => {}
        }
    }

    println!(
        "flows: {} total, {} truly heavy (f ≥ {THRESHOLD})",
        truth.distinct(),
        actual_heavy.len()
    );
    println!("\nReliableSketch ({} KB):", MEMORY / 1024);
    println!(
        "  reported {} flows, {ours_found} true heavies, {ours_false_pos} hard false positives",
        report.len()
    );
    println!("  insertion failures: {}", ours.insertion_failures());
    println!("\nCM_fast at the same memory:");
    println!("  flagged {cm_found} true heavies, {cm_false_pos} hard false positives");
    println!(
        "\nhard false positive = flow below T−Λ flagged as heavy; \
         ReliableSketch certifies zero of these unless an insertion fails"
    );

    // top-10 report
    println!("\ntop flows by certified estimate:");
    for (k, est) in report.iter().take(10) {
        println!(
            "  flow {k:>20}: estimate {:>7} (truth {:>7}, interval [{}, {}])",
            est.value,
            truth.freq(k),
            est.lower_bound(),
            est.upper_bound()
        );
    }
}
