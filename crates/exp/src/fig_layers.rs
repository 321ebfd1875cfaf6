//! Figure 19: the error-controlling mechanics.
//!
//! * **Fig 19a** — how many keys "belong" to each layer, where a key
//!   belongs to the layer in which its latest-arriving item concluded its
//!   insertion. Expected: faster-than-exponential decay across layers —
//!   a handful of layers do all the work and the deep ones exist to kill
//!   stragglers (§6.5.2).
//! * **Fig 19b** — all keys' absolute errors sorted descending (against
//!   CM at equal memory): Ours is capped at Λ, CM's head blows far past
//!   it.

use crate::ExpContext;
use rsk_api::StreamSummary;
use rsk_baselines::CmSketch;
use rsk_core::{ReliableSketch, StopLayer};
use rsk_metrics::error::error_distribution;
use rsk_metrics::report::fmt_bytes;
use rsk_metrics::Table;
use rsk_stream::Dataset;
use std::collections::HashMap;

/// Figure 19a: keys per stopping layer at several memory budgets.
pub fn fig19a(ctx: &ExpContext) -> Table {
    let (stream, _) = ctx.load(Dataset::IpTrace);
    let paper_kbs = [1000usize, 1100, 1250, 2000];

    // first pass to know the deepest layer across budgets; failed inserts
    // are tracked separately (usize::MAX sentinel)
    const FAILED: usize = usize::MAX;
    let mut per_budget: Vec<(String, HashMap<usize, u64>)> = Vec::new();
    let mut max_depth = 0usize;
    for &kb in &paper_kbs {
        let mem = ctx.scale_mem(kb * 1024);
        let mut sk: ReliableSketch<u64> = ReliableSketch::<u64>::builder()
            .memory_bytes(mem)
            .error_tolerance(25)
            .seed(ctx.seed)
            .build_sequential();
        // track each key's last stop layer (filter = layer 0)
        let mut last_stop: HashMap<u64, usize> = HashMap::new();
        for it in &stream {
            let trace = sk.insert_traced(&it.key, it.value);
            let layer = match trace.stop {
                StopLayer::Filter => 0,
                StopLayer::Layer(i) => i + 1,
                StopLayer::Failed => FAILED,
            };
            last_stop.insert(it.key, layer);
        }
        let mut hist: HashMap<usize, u64> = HashMap::new();
        for (_, layer) in last_stop {
            *hist.entry(layer).or_insert(0) += 1;
            if layer != FAILED {
                max_depth = max_depth.max(layer);
            }
        }
        per_budget.push((fmt_bytes(mem), hist));
    }

    let mut headers: Vec<String> = vec!["layer".into()];
    headers.extend(per_budget.iter().map(|(m, _)| m.clone()));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Figure 19a: # keys whose last item stopped in each layer (0 = mice filter)",
        &headers_ref,
    );
    for layer in 0..=max_depth {
        let mut row = vec![layer.to_string()];
        for (_, hist) in &per_budget {
            row.push(hist.get(&layer).copied().unwrap_or(0).to_string());
        }
        t.row(row);
    }
    let mut failed_row = vec!["failed".to_string()];
    for (_, hist) in &per_budget {
        failed_row.push(hist.get(&FAILED).copied().unwrap_or(0).to_string());
    }
    t.row(failed_row);
    t
}

/// Figure 19b: sorted error distribution, Ours vs CM, with the Λ target
/// line. Reported at log-spaced ratio points of the key population.
pub fn fig19b(ctx: &ExpContext) -> Table {
    let (stream, truth) = ctx.load(Dataset::IpTrace);
    let mem = ctx.scale_mem(1 << 20);

    let mut ours: ReliableSketch<u64> = ReliableSketch::<u64>::builder()
        .memory_bytes(mem)
        .error_tolerance(25)
        .seed(ctx.seed)
        .build_sequential();
    let mut cm = CmSketch::<u64>::fast(mem, ctx.seed);
    for it in &stream {
        ours.insert(&it.key, it.value);
        cm.insert(&it.key, it.value);
    }
    let dist_ours = error_distribution(&ours, &truth);
    let dist_cm = error_distribution(&cm, &truth);
    let n = dist_ours.len();

    let mut t = Table::new(
        "Figure 19b: absolute error at descending rank (ratio of keys), Λ target = 25",
        &["key ratio", "Ours", "CM_fast", "target"],
    );
    for &ratio in &[1e-5f64, 1e-4, 1e-3, 1e-2, 1e-1, 0.5, 1.0] {
        let idx = (((n as f64) * ratio) as usize).min(n - 1);
        t.row(vec![
            format!("{ratio:e}"),
            dist_ours[idx].to_string(),
            dist_cm[idx].to_string(),
            "25".into(),
        ]);
    }
    t
}

/// Figure 19 wrapper.
pub fn fig19(ctx: &ExpContext) -> Vec<Table> {
    vec![fig19a(ctx), fig19b(ctx)]
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
    fn fig19a_counts_decay() {
        let t = fig19a(&tiny());
        assert!(t.len() >= 2);
        let csv = t.to_csv();
        // layer-0 (filter) + layer-1 keys dominate layer counts near the tail
        let first_data: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
        let head: u64 = first_data[1].parse().unwrap();
        assert!(head > 0, "filter should hold keys");
    }

    #[test]
    fn fig19b_ours_capped_at_lambda() {
        let t = fig19b(&tiny());
        for line in t.to_csv().lines().skip(1) {
            let ours: u64 = line.split(',').nth(1).unwrap().parse().unwrap();
            assert!(ours <= 25, "Ours error beyond Λ: {line}");
        }
    }
}
