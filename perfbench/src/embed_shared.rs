//! `embed-shared`: two writers (= the guest's CPUs, each pinned) share one
//! `EpochedConcurrent` window built exactly like a served tenant —
//! `reliablesketch::builder()` with the server's default `SketchSpec` and
//! `.top_k(DEFAULT_TOPK_CAPACITY)` — over a 5 M-update IpTrace-shaped
//! stream, 2.5 M per generation (the paper's memory ratio at 256 KB).
//!
//! Each round builds a fresh window (a set-up sample), then:
//! 1. both writers call `insert_batch` on alternate batches of the first
//!    half; one `rotate()`; the same for the second half;
//! 2. both threads answer certified queries for every distinct key across
//!    the two generations, in alternate blocks;
//! 3. certified top-K answers and the subpopulation shape rotation;
//! 4. eight `delta_bytes` cuts, each after a small tail of updates,
//!    applied to a mirror window.
//!
//! Writer interleaving makes answers vary slightly between rounds, so
//! every round's answers are checked against the oracle (with the
//! documented contention slack) and the counts are averaged.

use std::collections::HashMap;
use std::sync::Barrier;
use std::time::Instant;

use rsk_api::{
    CertifiedTopK, CertifiedWeight, ConcurrentErrorSensing, ErrorSensing, Estimate, Replicate,
    SubpopulationWeight, TopK,
};
use rsk_core::EpochedConcurrent;
use rsk_serve::{SketchSpec, DEFAULT_TOPK_CAPACITY};

use crate::common::*;
use crate::{finish_metrics, layers, Clock, Opts, Samples};

/// Certified top-K requests per round.
const TOPK_CALLS: usize = 16;
/// Delta ships per round, and updates ingested before each cut.
const SHIPS: usize = 8;
const TAIL: usize = 16 * BATCH;

/// The builder of a served tenant's window.
fn tenant() -> reliablesketch::SketchBuilder {
    let spec = SketchSpec::default();
    reliablesketch::builder()
        .memory_bytes(spec.memory_bytes)
        .error_tolerance(spec.error_tolerance)
        .seed(spec.seed)
        .top_k(DEFAULT_TOPK_CAPACITY)
}

/// A window built like a served tenant.
fn build() -> EpochedConcurrent<u64> {
    tenant().build_epoched_concurrent()
}

pub fn run(o: &Opts, tr: &mut Tracer) -> Result<Outcome, String> {
    let pl = Placement::fixed();
    pin_current_thread(pl.main);

    let items = ip_trace(o.scale.shared_items, o.seed);
    let tail = ip_trace(SHIPS * TAIL, o.seed ^ 0x7a11);
    let (keys, truth) = oracle(&items);
    let index: HashMap<u64, u64> = keys.iter().copied().zip(truth.iter().copied()).collect();
    let mut by_truth: Vec<(u64, u64)> = index.iter().map(|(k, t)| (*k, *t)).collect();
    by_truth.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    by_truth.truncate(4 * DEFAULT_TOPK_CAPACITY);
    let sets = subpop_rotation(&keys, o.seed);
    let set_truth: Vec<u64> = sets.iter().map(|s| set_truth(s, &keys, &truth)).collect();
    let mirror_keys: Vec<u64> = keys
        .iter()
        .step_by((keys.len() / 4096).max(1))
        .copied()
        .collect();
    let mut request = Digest::default();
    for &(k, v) in items.iter().chain(&tail) {
        request.word(k);
        request.word(v);
    }
    sets.iter().for_each(|s| digest_set(&mut request, s));

    let mut answers = vec![Estimate::exact(0); keys.len()];
    let mut sub_answers = vec![CertifiedWeight::zero(); sets.len()];

    // Resident growth is measured from here: inputs and oracle excluded.
    let rss_base = rss_kb();
    let mut setup = Vec::new();
    for _ in 0..o.scale.setup_reps {
        let a = Instant::now();
        let w = build();
        setup.push(secs(a, Instant::now()));
        std::hint::black_box(&w);
    }

    let mut out = Outcome {
        correct: true,
        ..Default::default()
    };
    let mut samples = [Samples::default(), Samples::default()];
    let (mut numerators, mut aaes) = (Vec::new(), Vec::new());
    let (mut waits, mut rotates, mut cuts, mut applies, mut deltas) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut live = Metrics::default();
    let mut rss_mb = 0.0;
    let per_round =
        (items.len() + tail.len() + keys.len() + TOPK_CALLS + sets.len() + SHIPS) as u64;
    let half = items.len() / 2;
    let clock = Clock::new(o);
    let mut rounds = 0usize;
    while clock.more(rounds) {
        let traced = o.trace && rounds.is_multiple_of(2);
        tr.on = traced;
        let s = &mut samples[usize::from(traced)];
        let a = Instant::now();
        let mut w = build();
        setup.push(secs(a, Instant::now()));

        let mut ingest = 0.0;
        for (g, slice) in [&items[..half], &items[half..]].into_iter().enumerate() {
            if g == 1 {
                let a = Instant::now();
                w.rotate();
                let b = Instant::now();
                rotates.push(secs(a, b) * 1e6);
                tr.span("epoch.rotate", 0, a, b, 1);
            }
            let (wall, wait) =
                two_writers(slice, &pl, tr, &mut s.ingest_lat, |b| w.insert_batch(b));
            ingest += wall;
            waits.push(wait * 1e3);
        }
        s.ingest_rate.push(items.len() as f64 / ingest / 1e6);
        let frozen = w.frozen().expect("rotated once");
        let gens = [w.active(), frozen];
        let retries: u64 = gens.iter().map(|g| g.array().stats().retries()).sum();
        let saturations: u64 = gens.iter().map(|g| g.array().stats().saturations()).sum();
        // the filters as the two writers left them, before the ship tails
        let filter_saturation = if rounds == 0 {
            gens.iter()
                .filter_map(|g| g.filter())
                .map(|f| f.saturation_ratio())
                .sum::<f64>()
                / 2.0
        } else {
            0.0
        };

        two_readers(&w, &keys, &mut answers, &pl, tr, &mut s.query_lat);

        let ph = tr.open();
        let p0 = Instant::now();
        let mut top = CertifiedTopK::vacuous();
        let mut t = p0;
        for _ in 0..TOPK_CALLS {
            top = w.certified_top_k(TOPK_K);
            let t2 = Instant::now();
            s.topk_lat.push(secs(t, t2) * 1e6);
            tr.span("window.certified_top_k", ph, t, t2, 1);
            t = t2;
        }
        tr.close(ph, "phase.topk", 0, p0, t, TOPK_CALLS);

        let ph = tr.open();
        let p0 = Instant::now();
        let mut t = p0;
        for (set, ans) in sets.iter().zip(sub_answers.iter_mut()) {
            *ans = w.subpopulation_weight(set);
            let t2 = Instant::now();
            s.subpop_lat.push(secs(t, t2) * 1e6);
            tr.span("window.subpopulation_weight", ph, t, t2, 1);
            t = t2;
        }
        tr.close(ph, "phase.subpop", 0, p0, t, sets.len());

        let failures = w.insertion_failures();
        let dropped = w.active().dropped_value() + frozen.dropped_value();
        let mut mirror = build();
        let ph = tr.open();
        let p0 = Instant::now();
        for (j, chunk) in tail.chunks(TAIL).enumerate() {
            w.insert_batch(chunk);
            let a = Instant::now();
            let cut = w.delta_bytes().map_err(|e| format!("delta cut: {e}"))?;
            let b = Instant::now();
            mirror
                .apply_bytes(&cut)
                .map_err(|e| format!("delta apply: {e}"))?;
            let c = Instant::now();
            s.replicate_lat.push(secs(a, c) * 1e6);
            tr.span("replicate.cut", ph, a, b, cut.len());
            tr.span("replicate.apply", ph, b, c, cut.len());
            cuts.push(secs(a, b) * 1e6);
            applies.push(secs(b, c) * 1e6);
            if j > 0 {
                deltas.push(cut.len() as f64);
            }
        }
        tr.close(ph, "phase.replicate", 0, p0, Instant::now(), SHIPS);
        s.end_round();
        tr.on = false;
        // Once: returning freed pages to the kernel every round would make
        // later rounds fault their heap back in while timed.
        if rounds == 0 {
            rss_mb = rss_kb().saturating_sub(rss_base) as f64 / 1024.0;
        }

        // Untimed: check this round against the oracle.
        if mirror_keys
            .iter()
            .any(|k| mirror.query_with_error(k) != w.query_with_error(k))
        {
            out.fail("mirror window answers differ from the source after delta ships".into());
        }
        let slack = w.contention_undershoot_bound() * 2;
        let mut audit = Audit::default();
        let mut abs_err = 0u64;
        for (a, &t) in answers.iter().zip(&truth) {
            audit.point(a.lower_bound().saturating_sub(slack), a.value + slack, t);
            abs_err += a.value.abs_diff(t);
        }
        for (ans, &t) in sub_answers.iter().zip(&set_truth) {
            audit.subpop(ans.lower_bound(), ans.upper_bound(), t);
        }
        for e in &top.entries {
            let t = index.get(&e.key).copied().unwrap_or(0);
            audit.entry(e.lower_bound().saturating_sub(slack), e.count + slack, t);
        }
        let floor = top.guaranteed_floor().saturating_add(slack);
        audit.recall_misses(
            by_truth
                .iter()
                .filter(|(k, t)| *t > floor && !top.entries.iter().any(|e| e.key == *k))
                .count() as u64,
        );
        audit.verdict(dropped, &format!("embed-shared round {rounds}"), &mut out);
        numerators.push((failures + audit.misses) as f64);
        aaes.push(abs_err as f64 / keys.len() as f64);
        if rounds == 0 {
            live.set(
                "atomic.retries_per_mitem",
                retries as f64 * 1e6 / items.len() as f64,
                "count",
            );
            live.set("atomic.saturations", saturations as f64, "count");
            live.set("atomic.insert_failures", failures as f64, "count");
            live.set("atomic.dropped_value", dropped as f64, "updates");
            live.set("topk.miss_bound", top.miss_bound as f64, "updates");
            live.set("filter.saturation_ratio", filter_saturation, "ratio");
        }
        rounds += 1;
    }

    let layer_metrics = if o.trace {
        let mut m = layers::probe(
            &layers::ProbeInput {
                items: &items[..o.scale.probe_items.min(items.len())],
                keys: &keys[..keys.len().min(65_536)],
                sets: &sets,
            },
            o,
            true,
        )?;
        m.extend(&live);
        let (insert_ns, absorb) =
            layers::atomic_filter(&[&items[..half], &items[half..]], &tenant().config());
        m.set("filter.insert_ns", insert_ns, "ns");
        m.set("filter.absorb_ratio", absorb, "ratio");
        m.set("atomic.writer_wait_ms", median(&mut waits), "ms");
        m.set("epoch.rotate_us", median(&mut rotates), "us");
        m.set(
            "topk.answer_us",
            samples[1].over_rounds(crate::ROUND_TOPK_P50),
            "us",
        );
        m.set("replicate.cut_us", median(&mut cuts), "us");
        m.set("replicate.apply_us", median(&mut applies), "us");
        m.set("replicate.delta_bytes", median(&mut deltas), "bytes");
        m
    } else {
        Metrics::default()
    };
    let numerator = iqm(&mut numerators);
    let aae = iqm(&mut aaes);
    out.metrics = finish_metrics(
        o,
        &mut samples,
        &mut setup,
        [numerator / per_round as f64, aae, rss_mb],
        layer_metrics,
    );
    out.attempted = per_round * rounds as u64;
    out.counts = vec![
        ("request_digest".into(), request.finish()),
        ("items".into(), items.len() as u64),
    ];
    out.notes.push(format!("rounds={rounds}"));
    out.placement = pl.report();
    Ok(out)
}

/// Both threads answer certified queries for alternate blocks of `keys`.
fn two_readers(
    w: &EpochedConcurrent<u64>,
    keys: &[u64],
    answers: &mut [Estimate],
    pl: &Placement,
    tr: &mut Tracer,
    lat: &mut Vec<f64>,
) {
    let mut parts: [Vec<(&[u64], &mut [Estimate])>; 2] = [Vec::new(), Vec::new()];
    for (i, pair) in keys
        .chunks(QUERY_BLOCK)
        .zip(answers.chunks_mut(QUERY_BLOCK))
        .enumerate()
    {
        parts[i % 2].push(pair);
    }
    let ph = tr.open();
    let barrier = Barrier::new(2);
    let [p0, p1] = parts;
    let results: Vec<(Instant, Instant, Vec<f64>, Tracer)> = std::thread::scope(|sc| {
        let handles: Vec<_> = [p0, p1]
            .into_iter()
            .enumerate()
            .map(|(t, part)| {
                let mut ttr = tr.for_thread(t as u8 + 1);
                let barrier = &barrier;
                let cpu = pl.writers[t];
                sc.spawn(move || {
                    pin_current_thread(cpu);
                    let mut lat = Vec::with_capacity(part.len());
                    barrier.wait();
                    let start = Instant::now();
                    let mut t0 = start;
                    for (kb, ab) in part {
                        for (k, a) in kb.iter().zip(ab.iter_mut()) {
                            *a = w.query_with_error_concurrent(k);
                        }
                        let t1 = Instant::now();
                        lat.push(secs(t0, t1) * 1e6 / kb.len() as f64);
                        ttr.span("window.query_with_error_concurrent", ph, t0, t1, kb.len());
                        t0 = t1;
                    }
                    (start, t0, lat, ttr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect()
    });
    let start = results.iter().map(|r| r.0).min().expect("two readers");
    let end = results.iter().map(|r| r.1).max().expect("two readers");
    for (_, _, l, ttr) in results {
        lat.extend(l);
        tr.absorb(ttr);
    }
    tr.close(ph, "phase.query", 0, start, end, keys.len());
}
