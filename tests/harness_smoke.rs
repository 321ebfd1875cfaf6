//! Smoke tests of the measurement harness end to end: metrics, bisection
//! search, throughput and the dataplane models all compose through the
//! public API.

use reliablesketch::dataplane::{FpgaModel, TofinoReliable};
use reliablesketch::metrics::{
    evaluate, measure_insert_mpps, measure_query_mpps, min_memory_for_zero_outliers, SearchOptions,
};
use reliablesketch::prelude::*;

#[test]
fn metrics_pipeline_end_to_end() {
    let stream = Dataset::Hadoop.generate(100_000, 1);
    let truth = GroundTruth::from_items(&stream);
    let mut sk = ReliableSketch::<u64>::builder()
        .memory_bytes(64 * 1024)
        .error_tolerance(25)
        .build_sequential::<u64>();
    let mpps = measure_insert_mpps(&mut sk, &stream);
    assert!(mpps > 0.0);
    let rep = evaluate(&sk, &truth, 25);
    assert_eq!(rep.keys, truth.distinct());
    assert!(rep.aae >= 0.0 && rep.are >= 0.0);
    let q = measure_query_mpps(&sk, &stream);
    assert!(q > 0.0);
}

#[test]
fn bisection_finds_budget_for_ours() {
    let stream = Dataset::Hadoop.generate(60_000, 2);
    let truth = GroundTruth::from_items(&stream);
    let opts = SearchOptions {
        min_bytes: 2 * 1024,
        max_bytes: 256 * 1024,
        resolution: 2 * 1024,
        seeds: 2,
    };
    let found = min_memory_for_zero_outliers(
        &|mem, seed| {
            Box::new(
                ReliableSketch::<u64>::builder()
                    .memory_bytes(mem)
                    .error_tolerance(25)
                    .seed(seed)
                    .build_sequential::<u64>(),
            )
        },
        &stream,
        &truth,
        25,
        opts,
    );
    let budget = found.expect("256 KB must suffice for 60k items");
    assert!(budget <= 256 * 1024);

    // verify the found budget really is clean for the probed seeds
    for seed in 0..2 {
        let mut sk = ReliableSketch::<u64>::builder()
            .memory_bytes(budget)
            .error_tolerance(25)
            .seed(seed)
            .build_sequential::<u64>();
        for it in &stream {
            sk.insert(&it.key, it.value);
        }
        assert_eq!(evaluate(&sk, &truth, 25).outliers, 0);
    }
}

#[test]
fn tofino_model_matches_cpu_semantics_loosely() {
    // the dataplane variant must satisfy the same Λ bound when unstressed
    let stream = Dataset::Hadoop.generate(100_000, 3);
    let truth = GroundTruth::from_items(&stream);
    let mut sw = TofinoReliable::<u64>::new(128 * 1024, 25, 3);
    for it in &stream {
        sw.insert(&it.key, it.value);
    }
    let rep = evaluate(&sw, &truth, 25);
    assert_eq!(rep.outliers, 0, "switch model outliers");
}

#[test]
fn fpga_model_reports_paper_throughput() {
    let sk = ReliableSketch::<u64>::builder()
        .memory_bytes(1 << 20)
        .error_tolerance(25)
        .build_sequential::<u64>();
    let model = FpgaModel::synthesize(sk.geometry());
    let sustained = model.throughput_mips(10_000_000);
    assert!((sustained - 339.0).abs() < 1.0, "≈340M insertions/s");
    let (lut, _, bram) = model.utilization();
    assert!(lut < 0.05, "tiny logic footprint");
    assert!(bram < 0.5, "BRAM is the binding resource");
}

#[test]
fn repro_binary_exists_and_prints_usage() {
    // `repro` is part of the workspace; its library surface is exercised
    // by rsk-exp's own tests. Here: the theory table target is callable
    // through the library path used by the binary.
    let tables = rsk_exp_shim();
    assert!(!tables.is_empty());
}

fn rsk_exp_shim() -> Vec<String> {
    // rsk-exp is not a dependency of the umbrella crate (it is a harness,
    // not API); emulate its table-1 target through rsk-core's theory
    // module to make sure the closed forms stay exposed.
    reliablesketch::core::theory::table1(10_000_000, 25, 0.05, 1e-10)
        .into_iter()
        .map(|r| r.family.to_string())
        .collect()
}
