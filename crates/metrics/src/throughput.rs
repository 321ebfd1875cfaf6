//! Wall-clock throughput in Mpps (paper §6.1.3, Figure 10).
//!
//! The paper measures 10 M inserts and 10 M queries on a pinned CPU with
//! `-O2`. Absolute numbers depend on the host; the harness reports Mpps
//! for *every algorithm under the same conditions*, which preserves the
//! ratios the paper's Figure 10 is about. This module is the cheap
//! single-shot measurement the `repro` binary uses; the benchmark
//! (`BENCHMARK.json` and `perfbench/`) reports the median and spread of
//! repeated runs, end to end and per layer.

use rsk_api::StreamSummary;
use rsk_stream::Item;
use std::time::Instant;

/// Insert the whole stream once, returning million-operations-per-second.
pub fn measure_insert_mpps<S>(sketch: &mut S, items: &[Item<u64>]) -> f64
where
    S: StreamSummary<u64> + ?Sized,
{
    assert!(!items.is_empty());
    let start = Instant::now();
    for it in items {
        sketch.insert(&it.key, it.value);
    }
    mpps(items.len(), start)
}

/// Query every item's key once, returning Mpps. The checksum foils
/// dead-code elimination.
pub fn measure_query_mpps<S>(sketch: &S, items: &[Item<u64>]) -> f64
where
    S: StreamSummary<u64> + ?Sized,
{
    assert!(!items.is_empty());
    let start = Instant::now();
    let mut sink = 0u64;
    for it in items {
        sink = sink.wrapping_add(sketch.query(&it.key));
    }
    let elapsed = mpps(items.len(), start);
    // keep `sink` observable
    if sink == u64::MAX {
        eprintln!("improbable checksum {sink}");
    }
    elapsed
}

/// Time an arbitrary bulk operation over `ops` items and report Mpps.
///
/// The closure-based twin of [`measure_insert_mpps`] for ingestion paths
/// that are not single-item `StreamSummary` loops — the contender registry
/// times multi-worker `ingest_parallel` and merge-then-ingest pipelines
/// with this.
///
/// ```
/// use rsk_metrics::throughput::time_mpps;
///
/// let mut sum = 0u64;
/// let mpps = time_mpps(10_000, || {
///     for i in 0..10_000u64 {
///         sum = sum.wrapping_add(i);
///     }
/// });
/// assert!(mpps > 0.0 && mpps.is_finite());
/// ```
pub fn time_mpps(ops: usize, f: impl FnOnce()) -> f64 {
    assert!(ops > 0, "cannot time zero operations");
    let start = Instant::now();
    f();
    mpps(ops, start)
}

fn mpps(ops: usize, start: Instant) -> f64 {
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    ops as f64 / secs / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[derive(Default)]
    struct Noop(HashMap<u64, u64>);
    impl StreamSummary<u64> for Noop {
        fn insert(&mut self, k: &u64, v: u64) {
            *self.0.entry(*k).or_insert(0) += v;
        }
        fn query(&self, k: &u64) -> u64 {
            self.0.get(k).copied().unwrap_or(0)
        }
    }

    #[test]
    fn throughput_is_positive_and_finite() {
        let items: Vec<Item<u64>> = (0..10_000u64).map(Item::unit).collect();
        let mut s = Noop::default();
        let ins = measure_insert_mpps(&mut s, &items);
        let qry = measure_query_mpps(&s, &items);
        assert!(ins.is_finite() && ins > 0.0);
        assert!(qry.is_finite() && qry > 0.0);
    }

    #[test]
    #[should_panic]
    fn empty_stream_rejected() {
        let mut s = Noop::default();
        measure_insert_mpps(&mut s, &[]);
    }
}
