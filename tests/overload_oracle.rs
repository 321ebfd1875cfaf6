//! Overload oracle: certified answers after insertion failures.
//!
//! Paper §3.3 sends a remainder that survives every layer to an
//! emergency store, and Theorem 4 treats a `Δ₂ ln(1/Δ)`-slot SpaceSaving
//! as a virtual `(d+1)`-th layer. This suite overloads every flavour on
//! purpose — undersized memory, weights at or above the lock-free
//! path's 28-bit count field, adversarial streams — and races every
//! certified answer against the exact truth with no tolerated miss: each
//! point interval `[value − MPE, value]`, and each subset interval over a
//! few [`KeySet`] shapes, must contain it. Each SpaceSaving run must
//! evict (more distinct failed keys than slots), so the certificate for
//! evicted keys is on the line.
//!
//! `EmergencyPolicy::Disabled` is left out on purpose: it drops the
//! remainders and its point answers are not charged for them, so after a
//! failure they may undercount by up to `dropped_value()`. That policy
//! documents the gap rather than certifying across it.

use std::collections::HashSet;

use reliablesketch::core::{EmergencyPolicy, StopLayer};
use reliablesketch::prelude::*;
use rsk_stream::adversarial::{heavy_values, single_heavy};

const SEED: u64 = 1;
const POLICIES: [EmergencyPolicy; 3] = [
    EmergencyPolicy::ExactTable,
    EmergencyPolicy::SpaceSaving(4),
    EmergencyPolicy::SpaceSaving(64),
];

/// The truth, the probed subsets and every miss seen so far.
struct Race {
    truth: GroundTruth<u64>,
    shapes: Vec<(&'static str, KeySet, u64)>,
    misses: Vec<String>,
}

impl Race {
    /// Subsets around the heaviest key: dense member lists (hottest and
    /// coldest keys, an absent key), a mask neighbourhood, a range wide
    /// enough for the tracked-key decode path, and the universe.
    fn new(stream: &[Item<u64>]) -> Self {
        let truth = GroundTruth::from_items(stream);
        let mut pairs = truth.to_pairs();
        pairs.sort_by_key(|&(k, v)| (core::cmp::Reverse(v), k));
        let hot: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();
        let anchor = hot[0];
        let sets = [
            (
                "hot16+absent",
                KeySet::explicit(
                    hot.iter()
                        .take(16)
                        .copied()
                        .chain([anchor ^ 0x5555])
                        .collect(),
                ),
            ),
            (
                "hot512",
                KeySet::explicit(hot.iter().take(512).copied().collect()),
            ),
            (
                "cold512",
                KeySet::explicit(hot.iter().rev().take(512).copied().collect()),
            ),
            ("mask /56", KeySet::mask(anchor & !0xff, !0xff)),
            (
                "decode range",
                KeySet::range(
                    anchor.saturating_sub(1 << 21),
                    anchor.saturating_add(1 << 21),
                ),
            ),
            ("universe", KeySet::mask(0, 0)),
        ];
        let shapes = sets
            .into_iter()
            .map(|(name, set)| {
                let exact = truth
                    .iter()
                    .filter(|(k, _)| set.contains(**k))
                    .fold(0u64, |sum, (_, v)| sum.saturating_add(v));
                (name, set, exact)
            })
            .collect();
        Race {
            truth,
            shapes,
            misses: Vec::new(),
        }
    }

    /// Every key's point interval contains its truth.
    fn points(&mut self, name: &str, query: impl Fn(&u64) -> Estimate) {
        let outside: Vec<_> = self
            .truth
            .iter()
            .map(|(k, f)| (*k, f, query(k)))
            .filter(|(_, f, est)| !est.contains(*f))
            .collect();
        if let Some(first) = outside.first() {
            self.misses.push(format!(
                "{name}: {} of {} keys outside their interval, e.g. {first:?}",
                outside.len(),
                self.truth.distinct()
            ));
        }
    }

    /// Every probed subset's interval contains its exact sum.
    fn weights(&mut self, name: &str, sk: &dyn SubpopulationWeight) {
        for (shape, set, exact) in &self.shapes {
            let w = sk.subpopulation_weight(set);
            if !w.contains(*exact) {
                self.misses
                    .push(format!("{name}/{shape}: sum {exact} outside {w:?}"));
            }
        }
    }

    /// Both checks on one sketch.
    fn flavour<S: ErrorSensing<u64> + SubpopulationWeight>(&mut self, name: &str, sk: &S) {
        self.points(name, |k| sk.query_with_error(k));
        self.weights(name, sk);
    }

    /// Both checks on the slim digest a collector decodes from `payload`.
    fn digest(&mut self, name: &str, payload: Vec<u8>) {
        let digest = SlimSummary::from_bytes(&payload).unwrap();
        let name = format!("{name} digest");
        self.points(&name, |k| digest.query_with_error(k));
        self.weights(&name, &digest);
    }
}

fn config(memory: usize, policy: EmergencyPolicy) -> ReliableConfig {
    ReliableConfig {
        memory_bytes: memory,
        emergency: policy,
        seed: SEED,
        ..Default::default()
    }
}

/// Race every flavour and its digest under every certifying policy.
fn race(label: &str, stream: &[Item<u64>], memory: usize) {
    let (first, second) = stream.split_at(stream.len() / 2);
    for policy in POLICIES {
        let config = config(memory, policy);
        let mut race = Race::new(stream);

        // The sequential sketch, a merge of its two halves, and a replica
        // restored from its snapshot bytes.
        let mut seq = ReliableSketch::<u64>::new(config.clone());
        let mut failed = HashSet::new();
        for it in stream {
            if seq.insert_traced(&it.key, it.value).stop == StopLayer::Failed {
                failed.insert(it.key);
            }
        }
        let mut merged = ReliableSketch::<u64>::new(config.clone());
        let mut other = ReliableSketch::<u64>::new(config.clone());
        for it in first {
            merged.insert(&it.key, it.value);
        }
        for it in second {
            other.insert(&it.key, it.value);
        }
        merged.merge(&other).unwrap();
        let mut replica = ReliableSketch::<u64>::new(config.clone());
        replica.apply_bytes(&seq.snapshot_bytes().unwrap()).unwrap();
        for (name, sk) in [
            ("sequential", &seq),
            ("merged", &merged),
            ("replica", &replica),
        ] {
            race.flavour(name, sk);
            race.digest(name, sk.slim_bytes().unwrap());
        }

        // Both windows, rotated mid-stream so the answer spans the frozen
        // and the active generation. (Only the lock-free window distills
        // a digest or answers subset queries.)
        let mut window = EpochedReliable::<u64>::new(config.clone());
        let mut shared = EpochedConcurrent::<u64>::new(config.clone());
        for it in first {
            window.insert(&it.key, it.value);
            shared.insert_shared(&it.key, it.value);
        }
        window.rotate();
        shared.rotate();
        for it in second {
            window.insert(&it.key, it.value);
            shared.insert_shared(&it.key, it.value);
        }
        race.points("window", |k| window.query_with_error(k));
        race.flavour("lock-free window", &shared);
        race.digest("lock-free window", shared.slim_bytes().unwrap());

        // The lock-free sketch and four lock-free shards.
        let atomic = ConcurrentReliable::<u64>::new(config.clone());
        let sharded = ShardedReliable::<u64>::new(config.clone(), 4);
        for it in stream {
            atomic.insert_concurrent(&it.key, it.value);
            sharded.insert_shared(&it.key, it.value);
        }
        race.flavour("lock-free", &atomic);
        race.digest("lock-free", atomic.slim_bytes().unwrap());
        race.flavour("sharded", &sharded);
        let digest = SlimShards::from_bytes(&sharded.slim_bytes().unwrap()).unwrap();
        race.points("sharded digest", |k| digest.query_with_error(k));

        if let EmergencyPolicy::SpaceSaving(slots) = policy {
            assert!(
                failed.len() > slots,
                "{label}/{policy:?}: {} distinct keys failed, {slots} slots: nothing evicted",
                failed.len()
            );
        }
        assert!(
            race.misses.is_empty(),
            "{label}/{policy:?}:\n{}",
            race.misses.join("\n")
        );
    }
}

#[test]
fn ip_trace_into_an_undersized_sketch() {
    race(
        "IpTrace, 2 KB",
        &Dataset::IpTrace.generate(50_000, SEED),
        2 * 1024,
    );
}

#[test]
fn weights_past_the_packed_count_field() {
    // every weight ≥ 2²⁸, one past the lock-free word's 28-bit count
    let stream: Vec<Item<u64>> = Dataset::IpTrace
        .generate(50_000, SEED)
        .into_iter()
        .map(|it| Item::new(it.key, (1 << 28) + it.key % 1024))
        .collect();
    race("IpTrace ≥ 2²⁸, 16 KB", &stream, 16 * 1024);
}

#[test]
fn single_heavy_elephant_overloads() {
    race(
        "single heavy, 2 KB",
        &single_heavy(40_000, 0.4, 5_000, SEED),
        2 * 1024,
    );
}

#[test]
fn heavy_values_overload() {
    race(
        "heavy values, 2 KB",
        &heavy_values(20_000, 500, 1_000, SEED),
        2 * 1024,
    );
}
