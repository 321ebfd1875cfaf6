//! Figure 10: insertion and query throughput (Mpps) of every contender at
//! the default 1 MB (paper scale) budget.
//!
//! Expected shape (§6.3): Ours(Raw) ≈ 51 Mpps insertion — comparable to
//! CM_fast/Coco/HashPipe, ≈1.4× over CU_fast and Elastic, several times
//! over CM_acc/CU_acc/SS; the mice filter halves Ours' raw speed (2 extra
//! hash calls per op) while buying the Figure 4 accuracy. The concurrent
//! contenders report *ingestion* throughput at their registered worker
//! counts — the sharded rows are where multi-worker wall-clock wins show
//! up. Absolute Mpps differ per host; ratios are the result. The table
//! is volatile: committed reports elide it, CSVs keep the measurements.

use crate::contender::{concurrent_contenders, Contender};
use crate::scenario::Scenario;
use crate::ExpContext;
use rsk_baselines::factory::Baseline;
use rsk_metrics::throughput::time_mpps;
use rsk_metrics::Table;
use rsk_stream::Dataset;

/// Batch size of the single-core batched-ingest column.
const BATCH: usize = 1024;

/// Figure 10: throughput of all contenders.
pub fn fig10(ctx: &ExpContext) -> Vec<Table> {
    let sc = Scenario::new(ctx, Dataset::IpTrace, 25);
    let mem = ctx.scale_mem(1 << 20);
    let mut t = Table::new(
        "Figure 10: throughput (Mpps), IP trace, 1 MB (paper scale)",
        &[
            "algorithm",
            "mode",
            "insert Mpps",
            "batched Mpps (1-core)",
            "query Mpps",
        ],
    )
    .mark_volatile();

    let mut contenders: Vec<Contender> = Vec::new();
    if ctx.keep("Ours") {
        contenders.push(Contender::ours(25));
    }
    if ctx.keep("Ours(Raw)") {
        contenders.push(Contender::ours_raw(25));
    }
    for b in Baseline::THROUGHPUT_SET {
        if ctx.keep(b.label()) {
            contenders.push(Contender::baseline(b));
        }
    }
    contenders.extend(concurrent_contenders(ctx, 25, true));
    // the truly contended configuration belongs here: wall-clock is what
    // multi-worker atomic ingestion is for
    for &w in &ctx.workers {
        if w > 1 && ctx.keep("OursAtomic") {
            contenders.push(Contender::atomic(25, false, w));
        }
    }

    for c in contenders {
        let mut inst = c.build(mem, ctx.seed);
        let ins = time_mpps(sc.stream.len(), || inst.ingest(&sc.stream));
        let mut sink = 0u64;
        let qry = time_mpps(sc.stream.len(), || {
            for it in &sc.stream {
                sink = sink.wrapping_add(inst.query(&it.key));
            }
        });
        if sink == u64::MAX {
            eprintln!("improbable checksum {sink}");
        }
        // the single-core batched hot path (the layer-0 hash prefix per
        // chunk, then the in-order walk), on a fresh twin so neither
        // measurement pollutes the other; "—" where the contender has no
        // batched surface
        let mut twin = c.build(mem, ctx.seed);
        let batched = if twin.ingest_batched(&[], BATCH) {
            let mpps = time_mpps(sc.stream.len(), || {
                twin.ingest_batched(&sc.stream, BATCH);
            });
            format!("{mpps:.2}")
        } else {
            "—".to_string()
        };
        t.row(vec![
            c.label().to_string(),
            c.meta().mode.describe(),
            format!("{ins:.2}"),
            batched,
            format!("{qry:.2}"),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_measures_everyone_and_is_volatile() {
        let ctx = ExpContext {
            items: 20_000,
            quick: true,
            ..Default::default()
        };
        let t = &fig10(&ctx)[0];
        assert!(t.is_volatile());
        // Ours, Ours(Raw), 9 baselines, concurrent lineup, contended atomic
        let concurrent = 4 + crate::DEFAULT_WORKERS.len();
        let contended = crate::DEFAULT_WORKERS.iter().filter(|&&w| w > 1).count();
        assert_eq!(t.len(), 11 + concurrent + contended);
        let mut batched_rows = 0;
        for line in t.to_csv().lines().skip(1) {
            let cols: Vec<&str> = line.split(',').collect();
            let mpps: f64 = cols[2].parse().unwrap();
            assert!(mpps > 0.0, "non-positive throughput in {line}");
            // the batched column is a positive Mpps for every contender
            // with a batched surface, "—" for the rest
            if cols[3] != "—" {
                batched_rows += 1;
                let batched: f64 = cols[3].parse().unwrap();
                assert!(batched > 0.0, "non-positive batched Mpps in {line}");
            }
            let qry: f64 = cols[4].parse().unwrap();
            assert!(qry > 0.0, "non-positive query Mpps in {line}");
        }
        // Ours, Ours(Raw), and the concurrent lineup all expose the
        // batched hot path; the 9 baselines never do
        assert_eq!(batched_rows, 2 + concurrent + contended);
    }
}
