//! End-to-end exercise of the `rsk-serve` service over real loopback
//! TCP: multiple tenants, concurrent pipelining clients per tenant, an
//! epoch seal in the middle of the stream, and certified answers
//! checked against exact ground truth.
//!
//! The acceptance pins:
//!
//! 1. **Certified containment** — for every key a tenant ingested, the
//!    certified interval (widened by the advertised slack) contains the
//!    exact ground truth, even though four clients raced on the same
//!    keys and an epoch rotation happened mid-stream.
//! 2. **Tenant isolation** — a key hammered into one tenant certifies
//!    as ≈ absent in every other tenant, with a tight upper bound, not
//!    just a vacuously wide interval.
//! 3. **Accounting** — the server's counters agree with what the
//!    clients actually sent.
//! 4. **Certified top-K** — each tenant's top-K report names tenant 0's
//!    heavy key only for tenant 0, every reported interval (slack-
//!    widened) contains the exact truth, and every key above
//!    `floor + slack` is reported.
//! 5. **Reads never create a tenant** — every read opcode on ids nobody
//!    wrote to answers like a freshly created window, and the server
//!    still holds no tenant afterwards.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};

use rsk_api::KeySet;
use rsk_serve::{
    Client, ServeConfig, ServerHandle, SketchSpec, SnapshotKind, SubpopAnswer, TenantMap,
};

const TENANTS: u32 = 3;
const CLIENTS_PER_TENANT: usize = 4;
const BATCHES_PER_CLIENT: usize = 16;
const BATCH: usize = 256;
/// A key only tenant 0 ever sends, used for the isolation pin.
const HEAVY_KEY: u64 = 0x00de_ad00_beef;
const HEAVY_PER_BATCH: u64 = 512;

/// Deterministic per-client batch: keys 0..240 shared by *all* tenants
/// (so isolation is doing real work), values scaled by tenant so each
/// tenant's ground truth is distinct.
fn batch_items(tenant: u32, client: usize, batch: usize) -> Vec<(u64, u64)> {
    let mut items = Vec::with_capacity(BATCH + 1);
    let mut x = 0x9e37_79b9u64 ^ (u64::from(tenant) << 40) ^ ((client as u64) << 20) ^ batch as u64;
    for _ in 0..BATCH {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let key = (x >> 33) % 240;
        let value = 1 + (x >> 7) % (4 + u64::from(tenant));
        items.push((key, value));
    }
    if tenant == 0 && client == 0 {
        items.push((HEAVY_KEY, HEAVY_PER_BATCH));
    }
    items
}

#[test]
fn multi_tenant_certified_end_to_end() {
    let server = ServerHandle::start(ServeConfig {
        accept_threads: 2,
        stripes: 4,
        spec: SketchSpec {
            memory_bytes: 256 * 1024,
            error_tolerance: 25,
            seed: 0xface,
        },
        ..ServeConfig::default()
    })
    .expect("bind loopback server");
    let addr = server.local_addr();

    // One barrier per tenant: all its clients pause at half-stream, one
    // seals the epoch, then everyone resumes. Exactly one rotation, so
    // both window generations hold half the stream each.
    let barriers: Vec<Arc<Barrier>> = (0..TENANTS)
        .map(|_| Arc::new(Barrier::new(CLIENTS_PER_TENANT)))
        .collect();

    let mut workers = Vec::new();
    for tenant in 0..TENANTS {
        for client_idx in 0..CLIENTS_PER_TENANT {
            let barrier = Arc::clone(&barriers[tenant as usize]);
            workers.push(std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut truth: HashMap<u64, u64> = HashMap::new();
                for batch in 0..BATCHES_PER_CLIENT {
                    if batch == BATCHES_PER_CLIENT / 2 {
                        barrier.wait();
                        if client_idx == 0 {
                            let epoch = client.seal(tenant).expect("seal");
                            assert_eq!(epoch, 1, "exactly one rotation per tenant");
                        }
                        barrier.wait();
                    }
                    let items = batch_items(tenant, client_idx, batch);
                    for (k, v) in &items {
                        *truth.entry(*k).or_insert(0) += v;
                    }
                    let accepted = client.ingest(tenant, &items).expect("ingest");
                    assert_eq!(accepted as usize, items.len());
                }
                (tenant, truth)
            }));
        }
    }

    let mut tenant_truth: HashMap<u32, HashMap<u64, u64>> = HashMap::new();
    for w in workers {
        let (tenant, truth) = w.join().expect("client thread");
        let agg = tenant_truth.entry(tenant).or_default();
        for (k, v) in truth {
            *agg.entry(k).or_insert(0) += v;
        }
    }
    // Items each tenant's clients sent: the common stream, plus tenant
    // 0's heavy-key rider (one item per batch from client 0).
    let total_sent: u64 = (0..TENANTS)
        .map(|t| {
            (CLIENTS_PER_TENANT * BATCHES_PER_CLIENT * BATCH) as u64
                + if t == 0 { BATCHES_PER_CLIENT as u64 } else { 0 }
        })
        .sum();

    // Pin 1: certified containment for every (tenant, key), across a
    // sealed window written by racing clients.
    let mut checker = Client::connect(addr).expect("connect checker");
    for (&tenant, truth) in &tenant_truth {
        for (&key, &count) in truth {
            let answer = checker.query_certified(tenant, key).expect("certified");
            assert!(
                answer.contains(count),
                "tenant {tenant} key {key}: truth {count} outside {answer:?}"
            );
            assert!(answer.epoch >= 1, "answers come from the sealed window");
        }
    }

    // Pin 2: isolation. Tenant 0 hammered HEAVY_KEY; every other tenant
    // must certify it as (near) absent — a *tight* bound, far below the
    // donor's count, not merely a sound one.
    let heavy_truth = tenant_truth[&0][&HEAVY_KEY];
    assert_eq!(heavy_truth, HEAVY_PER_BATCH * BATCHES_PER_CLIENT as u64);
    for tenant in 1..TENANTS {
        let answer = checker
            .query_certified(tenant, HEAVY_KEY)
            .expect("certified");
        assert!(
            answer.contains(0),
            "absent key must certify zero: {answer:?}"
        );
        assert!(
            answer.value + answer.slack < heavy_truth / 4,
            "tenant {tenant} leaked tenant 0's heavy key: {answer:?}"
        );
    }

    // Pin 3: accounting.
    let stats = checker.stats().expect("stats");
    assert_eq!(stats.tenants, TENANTS);
    assert_eq!(stats.items_ingested, total_sent);
    assert_eq!(stats.seals, u64::from(TENANTS));

    // Pin 4: certified top-K over the sealed, racing-client window.
    for (&tenant, truth) in &tenant_truth {
        let answer = checker.top_k(tenant, 32).expect("top-k");
        assert!(answer.epoch >= 1, "answers come from the sealed window");
        assert!(!answer.entries.is_empty());
        for (i, &(key, _, _)) in answer.entries.iter().enumerate() {
            assert!(
                answer.entry_contains(i, truth[&key]),
                "tenant {tenant} key {key}: truth {} outside reported interval {:?} ± slack {}",
                truth[&key],
                answer.entries[i],
                answer.slack
            );
        }
        // recall: anything the floor contract says must be reported, is
        let cutoff = answer.floor.saturating_add(answer.slack);
        for (&key, &count) in truth {
            assert!(
                count <= cutoff || answer.entries.iter().any(|e| e.0 == key),
                "tenant {tenant} key {key}: truth {count} clears floor+slack {cutoff} yet unreported"
            );
        }
        // the hammered key tops tenant 0's report and nobody else's
        let reports_heavy = answer.entries.iter().any(|e| e.0 == HEAVY_KEY);
        if tenant == 0 {
            assert_eq!(answer.entries[0].0, HEAVY_KEY, "heavy key must rank first");
        } else {
            assert!(!reports_heavy, "tenant {tenant} reported tenant 0's key");
        }
    }

    drop(checker);
    server.shutdown();
}

#[test]
fn reads_of_unknown_tenants_create_nothing() {
    let spec = SketchSpec {
        memory_bytes: 64 * 1024,
        error_tolerance: 25,
        seed: 0xface,
    };
    let server = ServerHandle::start(ServeConfig {
        accept_threads: 1,
        stripes: 4,
        spec,
        ..ServeConfig::default()
    })
    .expect("bind loopback server");

    // The reference: a window materialised in-process, never written.
    let fresh = TenantMap::new(1, spec).get_or_create(0);
    let full = fresh.replicate_payload(SnapshotKind::Full).expect("full");
    let slim = fresh.replicate_payload(SnapshotKind::Slim).expect("slim");
    let (top, top_slack, top_epoch) = fresh.top_k(8);
    let set = KeySet::range(0, 1 << 20);
    let (weight, subpop_epoch) = fresh.subpop(&set);

    let mut client = Client::connect(server.local_addr()).expect("connect");
    for tenant in 1_000..1_256u32 {
        let key = u64::from(tenant) * 7;
        assert_eq!(client.query(tenant, key).unwrap(), fresh.query(key));
        assert_eq!(
            client.query_certified(tenant, key).unwrap(),
            fresh.certified(key)
        );
        let answer = client.top_k(tenant, 8).unwrap();
        assert_eq!(
            (answer.epoch, answer.slack, answer.floor),
            (top_epoch, top_slack, top.guaranteed_floor())
        );
        assert!(answer.entries.is_empty() && top.entries.is_empty());
        assert_eq!(
            client.subpop(tenant, &set).unwrap(),
            SubpopAnswer {
                weight,
                epoch: subpop_epoch
            }
        );
        assert_eq!(client.snapshot(tenant, SnapshotKind::Full).unwrap(), full);
        assert_eq!(client.snapshot(tenant, SnapshotKind::Slim).unwrap(), slim);
    }
    assert_eq!(client.stats().unwrap().tenants, 0);

    drop(client);
    server.shutdown();
}
