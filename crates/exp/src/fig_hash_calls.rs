//! Figure 16: average number of hash-function calls per insertion and per
//! query, versus memory.
//!
//! Expected shape (§6.4.4): Ours(Raw) falls quickly with memory and
//! stabilizes at 1 (almost every key finishes in layer 1); the 2-array
//! mice-filter variant stabilizes at ≈3 (2 filter calls plus 1 layer);
//! CM_fast is constant at 3 by construction. Smaller instances push keys
//! deeper and cost more calls — the paper's argument for not starving
//! ReliableSketch of memory.

use crate::ExpContext;
use rsk_core::ReliableSketch;
use rsk_metrics::report::fmt_bytes;
use rsk_metrics::Table;
use rsk_stream::Dataset;

/// Figure 16: hash calls per operation vs memory.
pub fn fig16(ctx: &ExpContext) -> Vec<Table> {
    let (stream, truth) = ctx.load(Dataset::IpTrace);
    let sweep = ctx.memory_sweep();

    let mut headers: Vec<String> = vec!["algorithm".into()];
    headers.extend(sweep.iter().map(|&m| fmt_bytes(m)));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut ti = Table::new("Figure 16a: avg hash calls per insertion", &headers_ref);
    let mut tq = Table::new("Figure 16b: avg hash calls per query", &headers_ref);

    for raw in [false, true] {
        let label = if raw { "Ours(Raw)" } else { "Ours" };
        let mut row_i = vec![label.to_string()];
        let mut row_q = vec![label.to_string()];
        for &mem in &sweep {
            let mut b = ReliableSketch::<u64>::builder()
                .memory_bytes(mem)
                .error_tolerance(25)
                .seed(ctx.seed);
            if raw {
                b = b.raw();
            }
            let mut sk: ReliableSketch<u64> = b.build_sequential();
            for it in &stream {
                sk.insert_traced(&it.key, it.value);
            }
            row_i.push(format!("{:.3}", sk.stats().avg_insert_hash_calls()));
            for (k, _) in truth.iter() {
                sk.query_traced(k);
            }
            row_q.push(format!("{:.3}", sk.stats().avg_query_hash_calls()));
        }
        ti.row(row_i);
        tq.row(row_q);
    }

    // CM_fast computes d = 3 hashes for every operation, invariably
    let cm_row = |t: &mut Table| {
        let mut row = vec!["CM_fast".to_string()];
        row.extend(sweep.iter().map(|_| "3.000".to_string()));
        t.row(row);
    };
    cm_row(&mut ti);
    cm_row(&mut tq);

    vec![ti, tq]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig16_shape_and_filter_overhead() {
        let ctx = ExpContext {
            items: 30_000,
            quick: true,
            ..Default::default()
        };
        let ts = fig16(&ctx);
        assert_eq!(ts.len(), 2);
        let csv = ts[0].to_csv();
        let parse_row = |prefix: &str| -> Vec<f64> {
            csv.lines()
                .find(|l| l.starts_with(prefix))
                .unwrap()
                .split(',')
                .skip(1)
                .map(|c| c.parse().unwrap())
                .collect()
        };
        let ours = parse_row("Ours,");
        let raw = parse_row("Ours(Raw)");
        // the filter always costs its 2 calls: Ours ≥ 2, and at the largest
        // memory the raw variant approaches 1
        assert!(ours.iter().all(|&c| c >= 2.0));
        assert!(*raw.last().unwrap() < 2.5, "raw calls: {raw:?}");
    }
}
