//! Replication-layer acceptance: the binary codec, delta shipping, and
//! the wire path are held to their contracts end-to-end.
//!
//! Property tests (satellite coverage for the `replicate` module):
//!
//! 1. **Codec round-trips** — `encode → decode → encode` is the
//!    identity on valid payloads, and a restored sketch answers every
//!    query exactly like the original.
//! 2. **Rejection totality** — truncations of valid payloads and
//!    arbitrary garbage always come back as typed errors, never panics
//!    or misparses.
//! 3. **`apply_delta` ≡ `merge_from_sequential`** — a replica kept in
//!    sync by dirty-bitmap deltas reproduces the source *exactly*
//!    (state replication), and therefore stays inside the certified
//!    interval a merge-based collector derives from the same sequential
//!    edge — the two shipping strategies agree on every answer they
//!    certify.
//!
//! The wire test at the bottom is the acceptance pin: a tenant window
//! replicated over real loopback TCP (full snapshot, then two delta
//! ships straddling a seal) answers every probed key within its
//! certified bound on the replica.

use proptest::prelude::*;
use reliablesketch::prelude::*;

const MEM: usize = 16 * 1024;
const LAMBDA: u64 = 25;

fn config(seed: u64) -> ReliableConfig {
    ReliableConfig {
        memory_bytes: MEM,
        lambda: LAMBDA,
        seed,
        ..Default::default()
    }
}

/// A concurrent sketch over the *sequential* layer geometry, so answers
/// are bit-comparable with `ReliableSketch` (the workspace's parity
/// convention, cf. `tests/concurrent_parity.rs`).
fn atomic_twin(seed: u64) -> ConcurrentReliable<u64> {
    let cfg = config(seed);
    let geometry = cfg.geometry();
    ConcurrentReliable::with_geometry(cfg, geometry)
}

fn zipfish_stream(items: usize, seed: u64) -> Vec<(u64, u64)> {
    let mut x = seed | 1;
    (0..items)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // skewed small-universe keys so buckets collide and layers fill
            let key = (x >> 33) % 700;
            (key, 1 + (x >> 7) % 3)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Codec round-trip: decode∘encode ≡ identity on the bytes, and the
    /// restored sketch is answer-for-answer identical. The lock-free
    /// inputs (a merged sketch with overlay and live rows, a window after
    /// one rotation, and a delta) decode by applying them to a replica,
    /// whose own snapshot then re-encodes the source's bytes.
    #[test]
    fn prop_binary_codec_roundtrips_identity(seed in 1u64..1 << 48, items in 400usize..2_000) {
        use reliablesketch::core::replicate::{payload_kind, PayloadKind};

        let stream = zipfish_stream(items, seed);
        let mut sk = ReliableSketch::<u64>::new(config(seed));
        for (k, v) in &stream {
            sk.insert(k, *v);
        }
        let snapshot = sk.snapshot();
        let bytes = snapshot.to_bytes();
        let decoded = SketchSnapshot::<u64>::from_bytes(&bytes).expect("own bytes decode");
        prop_assert_eq!(&decoded.to_bytes(), &bytes, "re-encode must be bit-identical");
        let restored = ReliableSketch::restore(decoded).expect("valid snapshot restores");
        for (k, _) in stream.iter().take(300) {
            let a = sk.query_with_error(k);
            let b = restored.query_with_error(k);
            prop_assert_eq!(a.value, b.value);
            prop_assert_eq!(a.max_possible_error, b.max_possible_error);
        }

        let (first, second) = stream.split_at(stream.len() / 2);
        let fed = |items: &[(u64, u64)]| {
            let sk = ConcurrentReliable::<u64>::new(config(seed));
            for (k, v) in items {
                sk.insert_concurrent(k, *v);
            }
            sk
        };
        // live words keep absorbing after the merge seals the overlay
        let mut merged = fed(first);
        merged.merge(&fed(second)).expect("identical configuration");
        for (k, v) in second {
            merged.insert_concurrent(k, *v);
        }
        let bytes = merged.snapshot_bytes().expect("in-process snapshot");
        let mut replica = ConcurrentReliable::<u64>::new(config(seed));
        replica.apply_bytes(&bytes).expect("own bytes apply");
        prop_assert!(replica.snapshot_bytes().unwrap() == bytes, "merged snapshot");

        let mut window = EpochedConcurrent::<u64>::new(config(seed));
        for (k, v) in first {
            window.insert_shared(k, *v);
        }
        window.rotate();
        for (k, v) in second {
            window.insert_shared(k, *v);
        }
        let bytes = window.snapshot_bytes().expect("in-process snapshot");
        let mut window_replica = EpochedConcurrent::<u64>::new(config(seed));
        window_replica.apply_bytes(&bytes).expect("own bytes apply");
        prop_assert!(window_replica.snapshot_bytes().unwrap() == bytes, "window snapshot");

        let mut source = fed(first);
        let mut mirror = ConcurrentReliable::<u64>::new(config(seed));
        mirror.apply_bytes(&source.delta_bytes().unwrap()).expect("baseline applies");
        for (k, v) in second {
            source.insert_concurrent(k, *v);
        }
        let delta = source.delta_bytes().expect("delta cut");
        prop_assert_eq!(payload_kind(&delta), Ok(PayloadKind::ConcurrentDelta));
        mirror.apply_bytes(&delta).expect("own delta applies");
        prop_assert!(mirror.snapshot_bytes().unwrap() == source.snapshot_bytes().unwrap());

        for (k, _) in stream.iter().take(300) {
            prop_assert_eq!(replica.query_with_error(k), merged.query_with_error(k));
            prop_assert_eq!(window_replica.query_with_error(k), window.query_with_error(k));
            prop_assert_eq!(mirror.query_with_error(k), source.query_with_error(k));
        }
    }

    /// Rejection totality: every truncation of a valid payload and any
    /// byte soup decodes to a typed error — never a panic, never a
    /// silent misparse back to success.
    #[test]
    fn prop_truncation_and_garbage_are_rejected(
        seed in 1u64..1 << 48,
        frac in 0.0f64..1.0,
        junk in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut sk = ReliableSketch::<u64>::new(config(seed));
        for (k, v) in zipfish_stream(300, seed) {
            sk.insert(&k, v);
        }
        let bytes = sk.snapshot_bytes().expect("in-process snapshot");
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assume!(cut < bytes.len());
        prop_assert!(SketchSnapshot::<u64>::from_bytes(&bytes[..cut]).is_err());
        // garbage: either a typed error, or (vanishingly unlikely) a
        // genuinely valid frame — in which case it must re-encode
        // bit-for-bit, proving no aliasing
        if let Ok(s) = SketchSnapshot::<u64>::from_bytes(&junk) {
            prop_assert_eq!(s.to_bytes(), junk);
        }
        // a valid payload of the wrong kind is refused, not misread
        prop_assert!(matches!(
            SlimSummary::from_bytes(&bytes),
            Err(ReplicateError::Incompatible(_))
        ));
    }

    /// Delta shipping reproduces the source exactly, and agrees with the
    /// merge path: a replica fed `apply_delta` answers bit-for-bit like
    /// the source sketch, and every such answer lies inside the
    /// certified interval a collector gets by `merge_from_sequential`
    /// of the same edge stream.
    #[test]
    fn prop_apply_delta_matches_merge_from_sequential(
        seed in 1u64..1 << 48,
        dirt in proptest::collection::vec((0u64..700, 1u64..4), 1..120),
    ) {
        let base = zipfish_stream(1_200, seed);

        // the sequential edge ingests everything (base + dirt)
        let mut seq = ReliableSketch::<u64>::new(config(seed));
        for (k, v) in base.iter().chain(&dirt) {
            seq.insert(k, *v);
        }

        // the source ingests the base, cuts a full baseline to the
        // replica, then absorbs the dirt in two randomly split delta
        // rounds
        let mut source = atomic_twin(seed);
        for (k, v) in &base {
            source.insert_concurrent(k, *v);
        }
        let mut replica = atomic_twin(seed);
        replica.apply_bytes(&source.delta_bytes().expect("baseline cut")).expect("full apply");
        let split = dirt.len() / 2;
        for round in [&dirt[..split], &dirt[split..]] {
            for (k, v) in round {
                source.insert_concurrent(k, *v);
            }
            replica.apply_bytes(&source.delta_bytes().expect("delta cut")).expect("delta apply");
        }

        // the merge-path collector folds the whole edge in one merge
        let mut collector = atomic_twin(seed);
        collector.merge_from_sequential(&seq).expect("identical configuration");

        for (k, _) in base.iter().take(250).chain(&dirt) {
            let direct = source.query_with_error(k);
            let shipped = replica.query_with_error(k);
            prop_assert_eq!(direct.value, shipped.value, "delta ship must replicate state");
            prop_assert_eq!(direct.max_possible_error, shipped.max_possible_error);
            // single-threaded atomic over sequential geometry is
            // bit-equal to the sequential edge, so the shipped answer
            // must sit inside the merge path's certified interval
            let merged = collector.query_with_error(k);
            prop_assert!(
                merged.value >= shipped.value
                    && shipped.value >= merged.value.saturating_sub(merged.max_possible_error),
                "merge path certifies [{} - {}, {}], delta path answered {}",
                merged.value, merged.max_possible_error, merged.value, shipped.value
            );
        }
    }
}

/// A full snapshot costs a small multiple of the sketch's memory, for
/// a sequential sketch and for a rotated two-generation window: buckets
/// travel as positional fields, never as named, tagged values.
#[test]
fn full_snapshots_stay_within_a_small_multiple_of_memory() {
    let stream = Dataset::IpTrace.generate(400_000, 7);
    let mut seq = ReliableSketch::<u64>::new(config(7));
    for it in &stream {
        seq.insert(&it.key, it.value);
    }
    let mut window = EpochedConcurrent::<u64>::new(config(7));
    let (first, second) = stream.split_at(stream.len() / 2);
    for it in first {
        window.insert_shared(&it.key, it.value);
    }
    window.rotate();
    for it in second {
        window.insert_shared(&it.key, it.value);
    }
    assert!(window.frozen().is_some());

    for (name, bytes, memory) in [
        (
            "sequential",
            seq.snapshot_bytes().unwrap().len(),
            seq.memory_bytes(),
        ),
        (
            "window",
            window.snapshot_bytes().unwrap().len(),
            window.memory_bytes(),
        ),
    ] {
        assert!(
            bytes * 4 <= memory * 9,
            "{name}: a {bytes} B snapshot of a {memory} B sketch exceeds 2.25x"
        );
    }
}

/// A full snapshot from a server built with another `SketchSpec` is
/// refused on the wire — it would resize the tenant's window — and the
/// connection keeps serving.
#[test]
fn wire_refuses_a_snapshot_of_a_foreign_spec() {
    use rsk_serve::Client;
    use rsk_serve::{ClientError, ErrorCode, ServeConfig, ServerHandle, SketchSpec, SnapshotKind};

    let start = |memory_bytes| {
        ServerHandle::start(ServeConfig {
            accept_threads: 1,
            spec: SketchSpec {
                memory_bytes,
                error_tolerance: LAMBDA,
                seed: 0xfeed,
            },
            ..ServeConfig::default()
        })
        .unwrap()
    };
    let (small, large) = (start(64 * 1024), start(128 * 1024));
    let mut src = Client::connect(small.local_addr()).unwrap();
    let mut dst = Client::connect(large.local_addr()).unwrap();

    let tenant = 4;
    src.ingest(tenant, &[(42, 10), (7, 3)]).unwrap();
    dst.ingest(tenant, &[(42, 5)]).unwrap();
    let before = dst.query_certified(tenant, 42).unwrap();

    let foreign = src.snapshot(tenant, SnapshotKind::Full).unwrap();
    let err = dst.push_delta(tenant, &foreign).unwrap_err();
    assert!(
        matches!(
            err,
            ClientError::Server {
                code: ErrorCode::ReplicateRefused,
                ..
            }
        ),
        "{err:?}"
    );
    assert_eq!(dst.query_certified(tenant, 42).unwrap(), before);
    assert_eq!(dst.ingest(tenant, &[(42, 1)]).unwrap(), 1);

    drop((src, dst));
    small.shutdown();
    large.shutdown();
}

/// Filter rows, overlay rows and emergency entries arrive in a payload as
/// unbounded counters, and no decoder can tell a crafted one from a
/// merged one. Every certified read over them saturates instead of
/// overflowing: the answers turn vacuous, but never panic and never
/// wrap below the truth.
#[test]
fn crafted_counters_saturate_instead_of_overflowing() {
    use reliablesketch::core::replicate::{EmergencyState, EpochedSnapshot};
    use reliablesketch::core::{Depth, EmergencyPolicy, BUCKET_BYTES};

    const HUGE: u64 = u64::MAX - 1;
    let cfg = ReliableConfig {
        memory_bytes: 64 * 1024,
        emergency: EmergencyPolicy::ExactTable,
        seed: 31,
        ..Default::default()
    };
    // 100 keys, 400 units each
    let primary = ConcurrentReliable::<u64>::new(cfg.clone());
    for i in 0..40_000u64 {
        primary.insert_concurrent(&(i % 100), 1);
    }
    let truth = 400;
    // ship an edited snapshot the way a hostile peer would
    let ship = |snapshot| {
        let crafted = ConcurrentReliable::restore(snapshot).unwrap();
        let mut replica = ConcurrentReliable::<u64>::new(cfg.clone());
        replica
            .apply_bytes(&crafted.snapshot_bytes().unwrap())
            .unwrap();
        replica
    };
    let contains_truth = |sk: &ConcurrentReliable<u64>| {
        for k in 0..100u64 {
            let est = sk.query_with_error(&k);
            assert!(est.contains(truth), "key {k}: {truth} ∉ {est:?}");
        }
    };

    // Mice-filter rows near the top of the range.
    let mut snapshot = primary.snapshot();
    for row in snapshot.filter_rows.as_mut().unwrap() {
        row.fill(HUGE);
    }
    contains_truth(&ship(snapshot));

    // The merge overlay of a merged sketch, every row near the top.
    let mut merged = ConcurrentReliable::<u64>::new(cfg.clone());
    merged.merge(&primary).unwrap();
    let mut snapshot = merged.snapshot();
    for row in snapshot
        .overlay
        .as_mut()
        .unwrap()
        .layers
        .iter_mut()
        .flatten()
    {
        (row.2, row.3) = (HUGE, HUGE);
    }
    let crafted = snapshot.clone();
    let replica = ship(snapshot);
    contains_truth(&replica);

    // Merges, slim digests and windows over the crafted state answer at
    // least the truth.
    let mut collector = ConcurrentReliable::<u64>::new(cfg.clone());
    collector.merge(&replica).unwrap();
    collector.merge(&replica).unwrap();
    let digest = SlimSummary::from_bytes(&collector.slim_bytes().unwrap()).unwrap();
    let window = EpochedConcurrent::restore(EpochedSnapshot {
        epoch: 1,
        active: crafted.clone(),
        frozen: Some(crafted),
    })
    .unwrap();
    let mut replica_window = EpochedConcurrent::<u64>::new(cfg.clone());
    replica_window
        .apply_bytes(&window.snapshot_bytes().unwrap())
        .unwrap();
    let window_digest = SlimSummary::from_bytes(&replica_window.slim_bytes().unwrap()).unwrap();
    for k in 0..100u64 {
        for (name, est) in [
            ("collector", collector.query_with_error(&k)),
            ("digest", digest.query_with_error(&k)),
            ("window", replica_window.query_with_error(&k)),
            ("window digest", window_digest.query_with_error(&k)),
        ] {
            assert!(est.value >= truth, "{name}, key {k}: {est:?}");
        }
    }

    // An exact emergency table near the top, with the failure gauges
    // saturated, keeps taking failures.
    let tight = ReliableConfig {
        memory_bytes: 4 * BUCKET_BYTES,
        lambda: 2,
        depth: Depth::Fixed(2),
        mice_filter: None,
        emergency: EmergencyPolicy::ExactTable,
        seed: 10,
        ..Default::default()
    };
    let mut snapshot = ConcurrentReliable::<u64>::new(tight.clone()).snapshot();
    snapshot.emergency = EmergencyState::Exact {
        entries: (0..7u64).map(|k| (k, HUGE)).collect(),
        failures: u64::MAX,
    };
    let crafted = ConcurrentReliable::restore(snapshot).unwrap();
    let mut replica = ConcurrentReliable::<u64>::new(tight);
    replica
        .apply_bytes(&crafted.snapshot_bytes().unwrap())
        .unwrap();
    for i in 0..2_000u64 {
        replica.insert_concurrent(&(i % 7), 1);
    }
    assert_eq!(replica.insertion_failures(), u64::MAX);
    for k in 0..7u64 {
        let est = replica.query_with_error(&k);
        assert!(est.value >= 2_000 / 7, "key {k}: {est:?}");
    }

    // A raw sequential sketch whose candidates' YES counters sit near the
    // top keeps absorbing inserts of a candidate key.
    let raw = ReliableConfig {
        memory_bytes: 16 * 1024,
        mice_filter: None,
        seed: 32,
        ..Default::default()
    };
    let mut primary = ReliableSketch::<u64>::new(raw.clone());
    for i in 0..2_000u64 {
        primary.insert(&(i % 100), 1);
    }
    let mut snapshot = primary.snapshot();
    for bucket in snapshot.layers.iter_mut().flatten() {
        if let Some(&id) = bucket.id() {
            bucket.insert(&id, HUGE - bucket.yes());
        }
    }
    let mut replica = ReliableSketch::<u64>::new(raw);
    replica.apply_bytes(&snapshot.to_bytes()).unwrap();
    for _ in 0..5 {
        replica.insert(&3, 1);
    }
    let est = replica.query_with_error(&3);
    assert!(est.value >= 25, "key 3: {est:?}");

    // Failure gauges, rebuilt from the emergency states' failures, sum
    // saturating across a window's generations and across shards.
    let gauged = |failures| {
        let mut snapshot = ConcurrentReliable::<u64>::new(cfg.clone()).snapshot();
        snapshot.emergency = EmergencyState::Exact {
            entries: Vec::new(),
            failures,
        };
        snapshot
    };
    let window = EpochedConcurrent::restore(EpochedSnapshot {
        epoch: 1,
        active: gauged(1),
        frozen: Some(gauged(u64::MAX)),
    })
    .unwrap();
    assert_eq!(window.insertion_failures(), u64::MAX);
    let mut snapshot = ShardedReliable::<u64>::new(cfg.clone(), 2).snapshot();
    snapshot.shards = vec![gauged(u64::MAX), gauged(1)];
    let sharded = ShardedReliable::restore(snapshot).unwrap();
    assert_eq!(sharded.insertion_failures(), u64::MAX);
}

/// A 2 KB sketch whose exact emergency table fills on `zipfish_stream`.
fn overloaded_exact_config() -> ReliableConfig {
    ReliableConfig {
        memory_bytes: 2 * 1024,
        emergency: reliablesketch::core::EmergencyPolicy::ExactTable,
        seed: 5,
        ..Default::default()
    }
}

/// One history fed to two `ExactTable` sketches encodes to the same
/// bytes in every payload family: the exact table travels sorted by key
/// bytes, not in its hash map's per-instance order. Rows that repeat a
/// key or leave that order are refused.
#[test]
fn exact_table_payloads_are_canonical() {
    use reliablesketch::core::replicate::EmergencyState;

    let cfg = overloaded_exact_config();
    let stream = zipfish_stream(60_000, 3);
    let (first, second) = stream.split_at(stream.len() / 2);
    let payloads = || {
        let mut seq = ReliableSketch::<u64>::new(cfg.clone());
        let mut conc = ConcurrentReliable::<u64>::new(cfg.clone());
        let mut window = EpochedConcurrent::<u64>::new(cfg.clone());
        let mut sharded = ShardedReliable::<u64>::new(cfg.clone(), 2);
        let mut out = Vec::new();
        // the first cuts are full payloads; after the rotation the window
        // ships a rotation delta, the others plain deltas
        for (round, items) in [first, second].into_iter().enumerate() {
            if round == 1 {
                window.rotate();
            }
            for (k, v) in items {
                seq.insert(k, *v);
                conc.insert_concurrent(k, *v);
                window.insert_shared(k, *v);
                sharded.insert_shared(k, *v);
            }
            out.extend([
                ("sequential", seq.snapshot_bytes().unwrap()),
                ("concurrent", conc.snapshot_bytes().unwrap()),
                ("concurrent cut", conc.delta_bytes().unwrap()),
                ("window", window.snapshot_bytes().unwrap()),
                ("window cut", window.delta_bytes().unwrap()),
                ("sharded", sharded.snapshot_bytes().unwrap()),
                ("sharded cut", sharded.delta_bytes().unwrap()),
            ]);
        }
        for failures in [
            seq.insertion_failures(),
            conc.insertion_failures(),
            window.active().insertion_failures(),
            window.frozen().unwrap().insertion_failures(),
            sharded.shard(0).insertion_failures(),
            sharded.shard(1).insertion_failures(),
        ] {
            assert!(failures > 0, "every exact table must hold rows");
        }
        (out, seq, conc)
    };
    let (a, seq, conc) = payloads();
    let (b, _, _) = payloads();
    for (i, ((name, x), (_, y))) in a.iter().zip(&b).enumerate() {
        assert!(x == y, "payload {i} ({name}): one history, two encodings");
    }

    // a repeated key, or two rows swapped, is refused
    let EmergencyState::Exact { entries: rows, .. } = seq.snapshot().emergency else {
        panic!("an ExactTable sketch captures exact rows");
    };
    assert!(rows.len() >= 2);
    let mut repeated = rows.clone();
    repeated.insert(1, (rows[0].0, 1));
    let mut swapped = rows.clone();
    swapped.swap(0, 1);
    for entries in [repeated, swapped] {
        let edit = |emergency: &mut EmergencyState<u64>| {
            let EmergencyState::Exact { entries: e, .. } = emergency else {
                unreachable!()
            };
            *e = entries.clone();
        };
        let mut snapshot = seq.snapshot();
        edit(&mut snapshot.emergency);
        let mut replica = ReliableSketch::<u64>::new(cfg.clone());
        let refused = replica.apply_bytes(&snapshot.to_bytes());
        assert!(
            matches!(refused, Err(ReplicateError::Corrupt(_))),
            "{refused:?}"
        );
        let mut snapshot = conc.snapshot();
        edit(&mut snapshot.emergency);
        let refused = ConcurrentReliable::restore(snapshot);
        assert!(matches!(refused, Err(ReplicateError::Corrupt(_))));
    }
}

/// The acceptance pin: a tenant window replicated over real loopback
/// TCP — one full snapshot, then two delta ships straddling an epoch
/// seal — answers every probed key within its certified bound on the
/// replica, through both the full-window and slim-digest query paths.
#[test]
fn wire_replication_stays_certified_across_seals() {
    use rsk_serve::{CertifiedAnswer, Client, ServeConfig, ServerHandle, SketchSpec, SnapshotKind};
    use std::collections::HashMap;

    let spec = SketchSpec {
        memory_bytes: 128 * 1024,
        error_tolerance: LAMBDA,
        seed: 0xfeed,
    };
    let primary = ServerHandle::start(ServeConfig {
        accept_threads: 2,
        spec,
        ..ServeConfig::default()
    })
    .unwrap();
    let replica = ServerHandle::start(ServeConfig {
        accept_threads: 2,
        spec,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut src = Client::connect(primary.local_addr()).unwrap();
    let mut dst = Client::connect(replica.local_addr()).unwrap();

    let tenant = 9;
    let mut truth: HashMap<u64, u64> = HashMap::new();
    let ingest = |client: &mut Client, truth: &mut HashMap<u64, u64>, salt: u64| {
        let items: Vec<(u64, u64)> = (0..400u64)
            .map(|i| {
                let x = (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((x >> 40) % 300, 1 + (x >> 13) % 5)
            })
            .collect();
        for (k, v) in &items {
            *truth.entry(*k).or_insert(0) += v;
        }
        client.ingest(tenant, &items).unwrap();
    };

    // Full snapshot first (the cut doubles as the delta baseline) …
    ingest(&mut src, &mut truth, 1);
    let full = src.snapshot(tenant, SnapshotKind::Delta).unwrap();
    dst.push_delta(tenant, &full).unwrap();

    // … then delta ship 1 within the same epoch …
    ingest(&mut src, &mut truth, 2);
    let d1 = src.snapshot(tenant, SnapshotKind::Delta).unwrap();
    assert!(d1.len() < full.len(), "delta must undercut the snapshot");
    dst.push_delta(tenant, &d1).unwrap();

    // … then a seal (epoch rotation) and delta ship 2 across it.
    src.seal(tenant).unwrap();
    ingest(&mut src, &mut truth, 3);
    let d2 = src.snapshot(tenant, SnapshotKind::Delta).unwrap();
    dst.push_delta(tenant, &d2).unwrap();

    // Every probed key must certify on the replica, via the replicated
    // window and via the replica's slim payload, decoded here as a
    // collector would.
    let digest = SlimSummary::from_bytes(&dst.snapshot(tenant, SnapshotKind::Slim).unwrap())
        .expect("the replica's slim payload decodes");
    for (k, want) in &truth {
        let certified = dst.query_certified(tenant, *k).unwrap();
        assert!(
            certified.contains(*want),
            "replica misses key {k}: truth {want}, answer {certified:?}"
        );
        let est = digest.query_with_error(k);
        let slim = CertifiedAnswer {
            value: est.value,
            max_possible_error: est.max_possible_error,
            ..certified
        };
        assert!(
            slim.contains(*want),
            "slim digest misses key {k}: truth {want}, answer {slim:?}"
        );
    }

    // The replica's answers match the primary's bit-for-bit: delta
    // shipping is state replication, not approximation.
    for k in truth.keys() {
        let a = src.query_certified(tenant, *k).unwrap();
        let b = dst.query_certified(tenant, *k).unwrap();
        assert_eq!(a.value, b.value);
        assert_eq!(a.max_possible_error, b.max_possible_error);
        assert_eq!(a.epoch, b.epoch);
    }

    drop((src, dst));
    primary.shutdown();
    replica.shutdown();
}
