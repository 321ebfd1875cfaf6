//! Windowed, multi-core, distributed: the lock-free path at feature
//! parity with the sequential sketch.
//!
//! Two "sites" each run an `EpochedConcurrent` window (lock-free atomic
//! buckets with the paper's §3.3 mice filter in front), fed by parallel
//! producers per measurement interval. At every epoch boundary the
//! windows rotate; retired generations are folded into a long-horizon
//! roll-up with `Merge`. At the end, one site's roll-up absorbs the
//! other's — distributed aggregation across lock-free sketches — and an
//! edge device running the *sequential* sketch is merged in too.
//!
//! ```sh
//! cargo run --release --example concurrent_windows
//! ```

use reliablesketch::core::atomic::ConcurrentReliable;
use reliablesketch::core::{EmergencyPolicy, LayerGeometry, ReliableConfig, ATOMIC_BUCKET_BYTES};
use reliablesketch::prelude::*;
use std::collections::HashMap;

const EPOCHS: u64 = 3;
const ITEMS_PER_EPOCH: usize = 400_000;

fn config() -> ReliableConfig {
    ReliableConfig {
        memory_bytes: 256 * 1024,
        lambda: 25,
        emergency: EmergencyPolicy::ExactTable,
        seed: 7,
        ..Default::default() // paper defaults: 20% 2-bit CU mice filter
    }
}

fn main() {
    let mut sites: Vec<EpochedConcurrent<u64>> =
        (0..2).map(|_| EpochedConcurrent::new(config())).collect();
    let mut rollups: Vec<Option<ConcurrentReliable<u64>>> = vec![None, None];
    let mut truth: HashMap<u64, u64> = HashMap::new();

    for epoch in 0..EPOCHS {
        for (s, site) in sites.iter_mut().enumerate() {
            let stream = Dataset::DataCenter.generate(ITEMS_PER_EPOCH, 10 * epoch + s as u64);
            let items: Vec<(u64, u64)> = stream.iter().map(|it| (it.key, it.value)).collect();
            for (k, v) in &items {
                *truth.entry(*k).or_insert(0) += v;
            }
            // four producer threads through the shared reference
            site.ingest_parallel(&items, 4);
            let active = site.active();
            println!(
                "epoch {epoch}, site {s}: {} items, filter saturation {:.1}%, CAS retries {}",
                items.len(),
                active
                    .filter()
                    .map_or(0.0, |f| f.saturation_ratio() * 100.0),
                active.array().stats().retries(),
            );
        }
        // interval boundary: rotate, archive the retiring generation
        for (s, site) in sites.iter_mut().enumerate() {
            if let Some(retired) = site.rotate() {
                match &mut rollups[s] {
                    None => rollups[s] = Some(retired),
                    Some(acc) => acc.merge(&retired).expect("same config"),
                }
            }
        }
    }

    // drain the windows into the roll-ups: rotate twice so both visible
    // generations retire
    for (s, site) in sites.iter_mut().enumerate() {
        for _ in 0..2 {
            if let Some(retired) = site.rotate() {
                match &mut rollups[s] {
                    None => rollups[s] = Some(retired),
                    Some(acc) => acc.merge(&retired).expect("same config"),
                }
            }
        }
    }

    // distributed aggregation: site 1's roll-up folds into site 0's
    let mut collector = rollups[0].take().expect("site 0 saw traffic");
    collector
        .merge(rollups[1].as_ref().expect("site 1 saw traffic"))
        .expect("identical configurations");

    // an edge device running the *sequential* sketch joins the aggregate:
    // build it over the collector's exact geometry, then fold it in
    let geometry = LayerGeometry::derive(
        (config().layer_bytes() / ATOMIC_BUCKET_BYTES).max(1),
        config().layer_lambda(),
        config().r_w,
        config().r_lambda,
        config().depth,
    );
    let mut edge = ReliableSketch::<u64>::with_geometry(config(), geometry);
    let stream = Dataset::DataCenter.generate(ITEMS_PER_EPOCH, 99);
    for it in &stream {
        edge.insert(&it.key, it.value);
        *truth.entry(it.key).or_insert(0) += it.value;
    }
    collector
        .merge_from_sequential(&edge)
        .expect("twin geometry");

    // verify: every key of the combined history is certified
    let mut checked = 0u64;
    let mut widest = 0u64;
    for (k, &f) in truth.iter().take(20_000) {
        let est = collector.query_with_error(k);
        assert!(est.contains(f), "key {k}: {f} ∉ {est:?}");
        widest = widest.max(est.width());
        checked += 1;
    }
    println!(
        "merged collector: {} sites × {EPOCHS} epochs + 1 sequential edge, \
         {checked} keys certified, widest interval {widest}, merged={}",
        sites.len(),
        collector.is_merged(),
    );
}
