//! Workspace-layout contract: the umbrella crate must re-export every
//! member crate as a module, and the builder round-trip documented in the
//! crate root must keep working, for every deployment shape the one
//! builder ends in. Guards the Cargo workspace wiring itself — a crate
//! dropped from the umbrella's manifest or `pub use` list fails here
//! before anything subtler does.

use reliablesketch::core::EmergencyPolicy;
use reliablesketch::prelude::*;

/// Every re-exported module resolves, and key items live where the crate
/// docs say they do.
#[test]
fn umbrella_reexports_resolve() {
    // hash: seeded hashing is reachable through the umbrella path.
    let h = reliablesketch::hash::murmur3_x86_32(&42u64.to_le_bytes(), 7);
    assert_eq!(
        h,
        reliablesketch::hash::murmur3_x86_32(&42u64.to_le_bytes(), 7)
    );

    // api: the trait surface is nameable through the umbrella.
    fn assert_traits<T: reliablesketch::api::StreamSummary<u64> + reliablesketch::api::Clear>() {}
    assert_traits::<reliablesketch::core::ReliableSketch<u64>>();

    // core: config type round-trips through the module path.
    let config = reliablesketch::core::ReliableConfig::default();
    assert!(config.validate().is_ok());

    // stream: datasets enumerate.
    let items = reliablesketch::stream::Dataset::Zipf { skew: 1.1 }.generate(100, 7);
    assert_eq!(items.len(), 100);

    // baselines: the factory knows the competitor set.
    assert!(!reliablesketch::baselines::factory::Baseline::ACCURACY_SET.is_empty());

    // metrics + dataplane: representative items resolve.
    let _ = std::any::type_name::<reliablesketch::metrics::error::ErrorReport>();
    let tofino = reliablesketch::dataplane::TofinoReliable::<u64>::new(64 * 1024, 25, 1);
    let _ = tofino;
}

/// The builder round-trip from the crate-root docs, verbatim semantics:
/// an estimate's certified interval contains the truth and respects Λ.
#[test]
fn crate_doc_builder_roundtrip_works() {
    let mut sk = ReliableSketch::<u64>::builder()
        .memory_bytes(64 * 1024)
        .error_tolerance(25)
        .build_sequential::<u64>();
    sk.insert(&42u64, 10);
    let est = sk.query_with_error(&42);
    assert!(est.value >= 10 && est.value <= 10 + est.max_possible_error);
    assert!(est.max_possible_error <= 25);
}

/// The prelude exposes the workhorse types without module paths.
#[test]
fn prelude_surface_is_complete() {
    let config = ReliableConfig {
        memory_bytes: 32 * 1024,
        seed: 3,
        ..Default::default()
    };
    let mut a = ReliableSketch::<u64>::new(config.clone());
    let mut b = ReliableSketch::<u64>::new(config);
    for i in 0..5_000u64 {
        a.insert(&(i % 50), 1);
        b.insert(&(i % 50), 2);
    }
    let merged = merge_all([a, b]).expect("same-config sketches merge");
    let est = merged.query_with_error(&7u64);
    assert!(est.contains(100 + 200), "merged truth inside interval");

    let items = [Item::new(1u64, 2), Item::new(1u64, 3)];
    let truth = GroundTruth::from_items(&items);
    assert_eq!(truth.freq(&1), 5);
}

fn spec() -> SketchBuilder {
    reliablesketch::builder()
        .memory_bytes(64 * 1024)
        .error_tolerance(25)
        .emergency(EmergencyPolicy::ExactTable)
        .seed(11)
}

#[test]
fn all_shapes_certify_the_same_truth() {
    let mut seq = spec().build_sequential::<u64>();
    let conc = spec().build_concurrent::<u64>();
    let sharded = spec().build_sharded::<u64>(4);
    for i in 0..20_000u64 {
        let k = i % 300;
        seq.insert(&k, 1);
        conc.insert_concurrent(&k, 1);
        sharded.insert_shared(&k, 1);
    }
    // All shapes share one validated config; layer geometry and
    // collision patterns differ per execution model (atomic buckets
    // are wider, shards reseed), so the cross-shape pin is certified
    // containment — the bit-for-bit differential lives in
    // tests/concurrent_parity.rs over geometry-matched twins.
    for k in 0..300u64 {
        let truth = 20_000 / 300 + u64::from(k < 20_000 % 300);
        let s = seq.query_with_error(&k);
        let c = conc.query_with_error_concurrent(&k);
        let sh = sharded.query_with_error_concurrent(&k);
        for est in [s, c, sh] {
            assert!(est.contains(truth), "key {k}: {truth} ∉ {est:?}");
        }
    }
}

#[test]
fn epoched_shapes_rotate() {
    let mut w = spec().build_epoched::<u64>();
    w.insert(&1, 5);
    w.rotate();
    w.insert(&1, 6);
    assert!(w.query_with_error(&1).contains(11));

    let mut cw = spec().build_epoched_concurrent::<u64>();
    cw.insert_shared(&1, 5);
    cw.rotate();
    cw.insert_shared(&1, 6);
    assert!(cw.query_with_error_concurrent(&1).contains(11));
}

#[test]
fn top_k_sidecar_reaches_every_supported_shape() {
    let mut seq = spec().top_k(8).build_sequential::<u64>();
    let conc = spec().top_k(8).build_concurrent::<u64>();
    let mut win = spec().top_k(8).build_epoched::<u64>();
    let cwin = spec().top_k(8).build_epoched_concurrent::<u64>();
    for sk_cap in [
        seq.top_k_capacity(),
        conc.top_k_capacity(),
        win.top_k_capacity(),
        cwin.top_k_capacity(),
    ] {
        assert_eq!(sk_cap, Some(8));
    }
    for _ in 0..5_000 {
        seq.insert(&7, 1);
        conc.insert_concurrent(&7, 1);
        win.insert(&7, 1);
        cwin.insert_concurrent(&7, 1);
    }
    for top in [
        seq.certified_top_k(1),
        conc.certified_top_k(1),
        win.certified_top_k(1),
        cwin.certified_top_k(1),
    ] {
        assert_eq!(top.entries.len(), 1);
        assert_eq!(top.entries[0].key, 7);
        assert!(top.entries[0].contains(5_000));
        assert!(top.recall_certified());
    }
    // unconfigured sketches answer vacuously instead of guessing
    let plain = spec().build_sequential::<u64>();
    assert_eq!(plain.top_k_capacity(), None);
    assert!(plain.certified_top_k(1).entries.is_empty());
}

#[test]
#[should_panic(expected = "sharded shape does not support")]
fn sharded_shape_refuses_top_k() {
    let _ = spec().top_k(8).build_sharded::<u64>(4);
}
