//! Cross-algorithm integration tests: all sketches behave sanely on the
//! same streams, and their characteristic error *signs* hold (CM/CU never
//! undershoot, HashPipe/Frequent never overshoot, SS brackets the truth).

use reliablesketch::baselines::factory::Baseline;
use reliablesketch::baselines::{CmSketch, CuSketch, Frequent, HashPipe, SpaceSaving};
use reliablesketch::prelude::*;

fn load() -> (Vec<Item<u64>>, GroundTruth<u64>) {
    let stream = Dataset::IpTrace.generate(200_000, 77);
    let truth = GroundTruth::from_items(&stream);
    (stream, truth)
}

#[test]
fn cm_and_cu_overestimate_cu_dominates() {
    let (stream, truth) = load();
    let mut cm = CmSketch::<u64>::fast(64 * 1024, 1);
    let mut cu = CuSketch::<u64>::fast(64 * 1024, 1);
    for it in &stream {
        cm.insert(&it.key, it.value);
        cu.insert(&it.key, it.value);
    }
    for (k, f) in truth.iter() {
        let (qcm, qcu) = (cm.query(k), cu.query(k));
        assert!(qcm >= f && qcu >= f, "L1 sketches never undershoot");
        assert!(qcu <= qcm, "conservative update dominates");
    }
}

#[test]
fn hashpipe_and_frequent_underestimate() {
    let (stream, truth) = load();
    let mut hp = HashPipe::<u64>::new(64 * 1024, 2);
    let mut fq = Frequent::<u64>::new(64 * 1024, 2);
    for it in &stream {
        hp.insert(&it.key, it.value);
        fq.insert(&it.key, it.value);
    }
    for (k, f) in truth.iter() {
        assert!(hp.query(k) <= f, "HashPipe overshoot at {k}");
        assert!(fq.query(k) <= f, "Frequent overshoot at {k}");
    }
}

#[test]
fn spacesaving_brackets_monitored_keys() {
    let (stream, truth) = load();
    let mut ss = SpaceSaving::<u64>::new(64 * 1024, 3);
    for it in &stream {
        ss.insert(&it.key, it.value);
    }
    for (k, count, err) in ss.top() {
        let f = truth.freq(&k);
        assert!(count >= f, "SS count below truth");
        assert!(count - err <= f, "SS lower bound above truth");
    }
}

#[test]
fn every_algorithm_finds_the_mega_elephant() {
    // one flow carries 30% of a 200k strem; every summary must rank it
    // at (near) the top
    let mut stream = Dataset::IpTrace.generate(140_000, 4);
    let elephant = 0x0e1e_fa4bu64;
    stream.extend((0..60_000).map(|_| Item::unit(elephant)));
    // interleave deterministically so recency doesn't trivialize pipes
    let mut interleaved = Vec::with_capacity(stream.len());
    let (head, tail) = stream.split_at(140_000);
    let mut ti = tail.iter();
    for (i, it) in head.iter().enumerate() {
        interleaved.push(*it);
        if i % 7 < 3 {
            if let Some(t) = ti.next() {
                interleaved.push(*t);
            }
        }
    }
    interleaved.extend(ti.copied());

    for b in Baseline::THROUGHPUT_SET {
        let mut sk = b.build(128 * 1024, 5);
        for it in &interleaved {
            sk.insert(&it.key, it.value);
        }
        let est = sk.query(&elephant);
        assert!(est >= 30_000, "{} lost the elephant: {est}", sk.name());
    }

    let mut ours = ReliableSketch::<u64>::builder()
        .memory_bytes(128 * 1024)
        .error_tolerance(25)
        .build_sequential::<u64>();
    for it in &interleaved {
        ours.insert(&it.key, it.value);
    }
    let est = ours.query_with_error(&elephant);
    assert!(est.contains(60_000), "Ours must bracket the elephant");
}

#[test]
fn oracle_agrees_with_itself_across_apis() {
    let (stream, truth) = load();
    let mut rebuilt = GroundTruth::<u64>::new();
    for it in &stream {
        rebuilt.insert(&it.key, it.value);
    }
    assert_eq!(rebuilt.total(), truth.total());
    assert_eq!(rebuilt.distinct(), truth.distinct());
    for (k, f) in truth.iter() {
        assert_eq!(rebuilt.query(k), f);
        assert!(rebuilt.query_with_error(k).contains(f));
    }
}
