//! Root integration suite for the experiment harness's contender
//! registry (ISSUE 4): every registered contender survives a quick
//! table-1/error scenario, the filtered sequential and filtered 1-worker
//! atomic contenders agree bit-for-bit, and `repro all --quick` (driven
//! through the same `runner` code path as the binary and the CI
//! report-rot gate) writes the expected result files.

use reliablesketch::prelude::*;
use rsk_exp::{runner, scenario::Scenario, Contender, ExpContext};

fn quick_ctx(items: usize) -> ExpContext {
    ExpContext {
        items,
        quick: true,
        ..Default::default()
    }
}

/// Satellite requirement 1: every contender of the full registry runs a
/// quick error scenario end to end and honors the one-sided guarantee.
#[test]
fn every_registered_contender_runs_a_quick_error_scenario() {
    let ctx = quick_ctx(30_000);
    let sc = Scenario::new(&ctx, Dataset::Hadoop, 25);
    let registry = ctx.registry(
        &reliablesketch::baselines::factory::Baseline::ACCURACY_SET,
        25,
    );
    // Ours + 8 baselines + 2 atomic + one sharded row (at the largest
    // worker count) + epoched + merged + slim digest
    assert_eq!(registry.len(), 9 + 5 + 1);
    for c in &registry {
        let inst = c.run(128 * 1024, ctx.seed, &sc.stream);
        let rep = sc.evaluate(inst.as_ref());
        assert_eq!(rep.keys, sc.truth.distinct(), "{}", c.label());
        assert!(rep.aae >= 0.0 && rep.are >= 0.0, "{}", c.label());
        if !c.meta().baseline {
            // ReliableSketch variants never undershoot and certify their
            // answers
            assert_eq!(inst.insertion_failures(), 0, "{}", c.label());
            assert!(c.meta().sensing, "{}", c.label());
            for (k, f) in sc.truth.iter().take(200) {
                let est = inst.query_with_error(k).expect("sensing contender");
                assert!(est.contains(f), "{}: {f} ∉ {est:?}", c.label());
            }
        }
    }
}

/// Satellite requirement 2: filtered sequential ≡ filtered 1-worker
/// atomic, bit for bit — value and certified MPE — across datasets and
/// memory budgets.
#[test]
fn filtered_sequential_and_one_worker_atomic_agree_bitwise() {
    for (ds, items, mem) in [
        (Dataset::IpTrace, 60_000, 256 * 1024),
        (Dataset::Zipf { skew: 3.0 }, 40_000, 96 * 1024),
    ] {
        let ctx = quick_ctx(items);
        let sc = Scenario::new(&ctx, ds, 25);
        let seq = Contender::ours(25).run(mem, ctx.seed, &sc.stream);
        let atomic = Contender::atomic(25, false, 1).run(mem, ctx.seed, &sc.stream);
        for (k, _) in sc.truth.iter() {
            assert_eq!(seq.query(k), atomic.query(k), "value diverged at {k}");
            assert_eq!(
                seq.query_with_error(k),
                atomic.query_with_error(k),
                "MPE diverged at {k}"
            );
        }
        // and the sweep-table cells they produce are therefore identical
        let t = sc.sweep_table(
            &[Contender::ours(25), Contender::atomic(25, false, 1)],
            rsk_exp::scenario::AccuracyMetric::Aae,
            "parity",
        );
        let csv = t.to_csv();
        let tail = |p: &str| -> String {
            csv.lines()
                .find(|l| l.starts_with(p))
                .unwrap()
                .split_once(',')
                .unwrap()
                .1
                .to_string()
        };
        assert_eq!(tail("Ours,"), tail("OursAtomic,"));
    }
}

/// Satellite requirement 3: `repro all --quick` emits one CSV per table
/// and regenerates REPORT.md with the provenance header and the
/// concurrent contenders' rows.
#[test]
fn repro_all_quick_writes_expected_result_files() {
    let out = std::env::temp_dir().join(format!("rsk-exp-contenders-{}", std::process::id()));
    let ctx = ExpContext {
        items: 5_000,
        quick: true,
        out_dir: out.clone(),
        ..Default::default()
    };
    let summary = runner::run_and_write("all", &ctx, "repro all --quick").expect("run_and_write");

    assert_eq!(summary.targets, runner::expand("all"));
    assert!(summary.targets.contains(&"concurrent"));
    // every target wrote at least its first table's CSV
    for t in &summary.targets {
        let first = out.join(format!("{t}_0.csv"));
        assert!(first.is_file(), "missing {}", first.display());
    }

    let report_path = summary.report.expect("`all` regenerates REPORT.md");
    let report = std::fs::read_to_string(&report_path).unwrap();
    // provenance header: command, mode, seed, registry
    assert!(report.contains("command: `repro all --quick`"));
    assert!(report.contains("do NOT hand-edit"));
    assert!(report.contains("* seed: 1"));
    assert!(report.contains("quick mode"));
    // the concurrent path is visible in the report: atomic (filtered +
    // raw), sharded at ≥ 2 worker counts, epoched and merged rows
    assert!(report.contains("OursAtomic"));
    assert!(report.contains("OursAtomic(Raw)"));
    assert!(report.contains("Ours(x4)@1w"));
    assert!(report.contains("Ours(x4)@2w"));
    assert!(report.contains("OursEpoch"));
    assert!(report.contains("OursMerged"));
    // wall-clock tables are masked, not embedded
    assert!(report.contains("wall-clock measurements"));

    std::fs::remove_dir_all(&out).ok();
}

/// The registry honors `--workers` and `--contenders` filters — the knobs
/// the `repro` binary forwards.
#[test]
fn registry_filters_apply() {
    let ctx = ExpContext {
        workers: vec![2, 8],
        contenders: Some(vec!["x4".into()]),
        ..quick_ctx(1_000)
    };
    let labels = |reg: Vec<rsk_exp::contender::Contender>| -> Vec<String> {
        reg.iter().map(|c| c.label().to_string()).collect()
    };
    // accuracy tables carry one sharded row, at the largest count
    assert_eq!(labels(ctx.concurrent_registry(25)), vec!["Ours(x4)@8w"]);
    assert_eq!(
        labels(rsk_exp::contender::concurrent_contenders(&ctx, 25, true)),
        vec!["Ours(x4)@2w", "Ours(x4)@8w"]
    );
}
