//! `embed-seq`: the paper's own CPU experiment. One pinned thread drives
//! an in-process sequential `ReliableSketch` at paper defaults (1 MB,
//! Λ = 25, mice filter on, no top-K layer, `EmergencyPolicy::Disabled`)
//! over a 10 M-update IpTrace-shaped stream.
//!
//! Each round builds a fresh sketch (a set-up sample), then:
//! 1. ingests the stream in fixed-size `insert_batch` calls;
//! 2. asks `query_with_error` for every distinct key, in blocks;
//! 3. decodes a certified top-K from the sketch's candidates;
//! 4. answers the subpopulation shape rotation;
//! 5. ships two snapshot cuts to a mirror sketch.
//!
//! Rounds are deterministic: every round must reproduce round 0's answer
//! digest, and round 0's answers are checked against the oracle.

use std::collections::HashMap;
use std::time::Instant;

use rsk_api::{CertifiedWeight, ErrorSensing, Estimate, Replicate, SubpopulationWeight};
use rsk_core::ReliableSketch;

use crate::common::*;
use crate::{finish_metrics, layers, Clock, Opts, Samples};

/// Paper default memory budget.
pub const MEMORY: usize = 1 << 20;
/// Paper default error tolerance Λ.
pub const LAMBDA: u64 = 25;
/// Snapshot ships per round.
const SHIPS: usize = 2;

fn build() -> ReliableSketch<u64> {
    reliablesketch::builder()
        .memory_bytes(MEMORY)
        .error_tolerance(LAMBDA)
        .build_sequential()
}

pub fn run(o: &Opts, tr: &mut Tracer) -> Result<Outcome, String> {
    let pl = Placement::fixed();
    pin_current_thread(pl.main);

    // Inputs and the oracle come from the seed; none of this is timed.
    let items = ip_trace(o.scale.seq_items, o.seed);
    let (keys, truth) = oracle(&items);
    let sets = subpop_rotation(&keys, o.seed);
    let set_truth: Vec<u64> = sets.iter().map(|s| set_truth(s, &keys, &truth)).collect();
    let mirror_keys: Vec<u64> = keys
        .iter()
        .step_by((keys.len() / 4096).max(1))
        .copied()
        .collect();
    let mut request = Digest::default();
    items.iter().for_each(|&(k, v)| {
        request.word(k);
        request.word(v);
    });
    keys.iter().for_each(|&k| request.word(k));
    sets.iter().for_each(|s| digest_set(&mut request, s));

    let mut answers = vec![Estimate::exact(0); keys.len()];
    let mut sub_answers = vec![CertifiedWeight::zero(); sets.len()];

    // Set-up: sketch construction only, repeated.
    // Resident growth is measured from here: inputs and oracle excluded.
    let rss_base = rss_kb();
    let mut setup = Vec::new();
    for _ in 0..o.scale.setup_reps {
        let a = Instant::now();
        let sk = build();
        setup.push(secs(a, Instant::now()));
        std::hint::black_box(&sk);
    }

    let mut out = Outcome {
        correct: true,
        ..Default::default()
    };
    let mut samples = [Samples::default(), Samples::default()];
    let mut live = Metrics::default();
    let mut first: Option<u64> = None;
    let (mut numerator, mut aae, mut delta_bytes) = (0u64, 0.0f64, 0u64);
    let mut rss_mb = 0.0;
    let per_round = (items.len() + keys.len() + sets.len() + 1 + SHIPS) as u64;
    let clock = Clock::new(o);
    let mut rounds = 0usize;
    while clock.more(rounds) {
        let traced = o.trace && rounds.is_multiple_of(2);
        tr.on = traced;
        let s = &mut samples[usize::from(traced)];
        let a = Instant::now();
        let mut sk = build();
        setup.push(secs(a, Instant::now()));

        let ph = tr.open();
        let p0 = Instant::now();
        let mut t = p0;
        let mut block = BlockTimer::new(p0);
        for batch in items.chunks(BATCH) {
            sk.insert_batch(batch);
            let t2 = Instant::now();
            block.tick(t2, &mut s.ingest_lat);
            tr.span("sketch.insert_batch", ph, t, t2, batch.len());
            t = t2;
        }
        block.flush(&mut s.ingest_lat);
        tr.close(ph, "phase.ingest", 0, p0, t, items.len());
        s.ingest_rate.push(items.len() as f64 / secs(p0, t) / 1e6);

        let ph = tr.open();
        let p0 = Instant::now();
        let mut t = p0;
        for (blk, ans) in keys
            .chunks(QUERY_BLOCK)
            .zip(answers.chunks_mut(QUERY_BLOCK))
        {
            for (k, a) in blk.iter().zip(ans.iter_mut()) {
                *a = sk.query_with_error(k);
            }
            let t2 = Instant::now();
            s.query_lat.push(secs(t, t2) * 1e6 / blk.len() as f64);
            tr.span("sketch.query_with_error", ph, t, t2, blk.len());
            t = t2;
        }
        tr.close(ph, "phase.query", 0, p0, t, keys.len());

        // No top-K layer at paper defaults: the certified top-K is the
        // heaviest decoded candidates, each with its certified interval.
        let a = Instant::now();
        let mut top = sk.heavy_hitters(0);
        top.truncate(TOPK_K);
        let b = Instant::now();
        s.topk_lat.push(secs(a, b) * 1e6);
        tr.span("sketch.heavy_hitters", 0, a, b, 1);

        let ph = tr.open();
        let p0 = Instant::now();
        let mut t = p0;
        for (set, w) in sets.iter().zip(sub_answers.iter_mut()) {
            *w = sk.subpopulation_weight(set);
            let t2 = Instant::now();
            s.subpop_lat.push(secs(t, t2) * 1e6);
            tr.span("sketch.subpopulation_weight", ph, t, t2, 1);
            t = t2;
        }
        tr.close(ph, "phase.subpop", 0, p0, t, sets.len());

        let mut mirror = build();
        let ph = tr.open();
        let p0 = Instant::now();
        let mut cut_len = 0;
        for _ in 0..SHIPS {
            let a = Instant::now();
            let cut = sk.delta_bytes().map_err(|e| format!("snapshot cut: {e}"))?;
            let b = Instant::now();
            mirror
                .apply_bytes(&cut)
                .map_err(|e| format!("snapshot apply: {e}"))?;
            let c = Instant::now();
            s.replicate_lat.push(secs(a, c) * 1e6);
            tr.span("replicate.cut", ph, a, b, cut.len());
            tr.span("replicate.apply", ph, b, c, cut.len());
            cut_len = cut.len() as u64;
        }
        tr.close(ph, "phase.replicate", 0, p0, Instant::now(), SHIPS);
        s.end_round();
        tr.on = false;
        // Once: returning freed pages to the kernel every round would make
        // later rounds fault their heap back in while timed.
        if rounds == 0 {
            rss_mb = rss_kb().saturating_sub(rss_base) as f64 / 1024.0;
        }

        // Untimed from here: digest this round's answers, check round 0.
        if mirror_keys
            .iter()
            .any(|k| mirror.query_with_error(k) != sk.query_with_error(k))
        {
            out.fail("mirror sketch answers differ from the source after a ship".into());
        }
        let mut d = Digest::default();
        for a in &answers {
            d.word(a.value);
            d.word(a.max_possible_error);
        }
        for w in &sub_answers {
            [w.estimate, w.lo, w.hi, w.slack]
                .iter()
                .for_each(|x| d.word(*x));
        }
        for (k, e) in &top {
            [*k, e.value, e.max_possible_error]
                .iter()
                .for_each(|x| d.word(*x));
        }
        d.word(sk.insertion_failures());
        d.word(sk.dropped_value());
        d.word(cut_len);
        match first {
            Some(d0) if d0 != d.finish() => {
                out.fail(format!("round {rounds} answers differ from round 0"))
            }
            Some(_) => {}
            None => {
                first = Some(d.finish());
                delta_bytes = cut_len;
                let c = check(
                    &sk,
                    &items,
                    &keys,
                    &truth,
                    &answers,
                    &set_truth,
                    &sub_answers,
                    &top,
                    &mut out,
                );
                numerator = c.0;
                aae = c.1;
                if o.trace {
                    live = live_layers(&sk);
                    live.extend(&filter_layers(&sk, &items));
                }
            }
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
        m
    } else {
        Metrics::default()
    };
    let fail_ratio = numerator as f64 / per_round as f64;
    out.metrics = finish_metrics(
        o,
        &mut samples,
        &mut setup,
        [fail_ratio, aae, rss_mb],
        layer_metrics,
    );
    out.attempted = per_round * rounds as u64;
    out.counts = vec![
        ("request_digest".into(), request.finish()),
        ("fail_numerator".into(), numerator),
        ("aae_bits".into(), aae.to_bits()),
        ("items".into(), items.len() as u64),
        ("delta_bytes".into(), delta_bytes),
    ];
    out.notes.push(format!("rounds={rounds}"));
    out.placement = pl.report();
    Ok(out)
}

/// Oracle check of one round's answers (see [`Audit`]): returns the
/// `fail_ratio` numerator (insertion failures + certificate misses +
/// top-K misses) and the mean absolute error over every distinct key.
///
/// A twin sketch replays the stream one `insert_traced` call at a time,
/// which is documented to leave the same state as `insert_batch`; its
/// traces attribute every dropped value to its key, so each point answer
/// can be held to its own key's losses.
#[allow(clippy::too_many_arguments)]
fn check(
    sk: &ReliableSketch<u64>,
    items: &[(u64, u64)],
    keys: &[u64],
    truth: &[u64],
    answers: &[Estimate],
    set_truth: &[u64],
    sub_answers: &[CertifiedWeight],
    top: &[(u64, Estimate)],
    out: &mut Outcome,
) -> (u64, f64) {
    let mut twin = build();
    let mut own_dropped: HashMap<u64, u64> = HashMap::new();
    for (k, v) in items {
        let rem = twin.insert_traced(k, *v).failed_remainder;
        if rem > 0 {
            *own_dropped.entry(*k).or_default() += rem;
        }
    }
    if keys
        .iter()
        .zip(answers)
        .any(|(k, a)| twin.query_with_error(k) != *a)
    {
        out.fail("a per-item replay answers differently from the insert_batch run".into());
    }
    let mut audit = Audit::default();
    let mut abs_err = 0u64;
    for ((k, a), &t) in keys.iter().zip(answers).zip(truth) {
        let own = own_dropped.get(k).copied().unwrap_or(0);
        audit.attributed_point(a.lower_bound(), a.upper_bound(), t, own);
        abs_err += a.value.abs_diff(t);
    }
    for (w, &t) in sub_answers.iter().zip(set_truth) {
        audit.subpop(w.lower_bound(), w.upper_bound(), t);
    }
    let index: HashMap<u64, u64> = keys.iter().copied().zip(truth.iter().copied()).collect();
    for (k, e) in top {
        let t = index.get(k).copied().unwrap_or(0);
        audit.entry(e.lower_bound(), e.upper_bound(), t);
    }
    // recall: every key whose truth exceeds the k-th reported estimate
    // must be reported (estimates never undercount a sound key)
    let kth = top.last().map_or(u64::MAX, |(_, e)| e.value);
    audit.recall_misses(
        keys.iter()
            .zip(truth)
            .filter(|(k, &t)| t > kth && !top.iter().any(|(tk, _)| tk == *k))
            .count() as u64,
    );
    audit.verdict(sk.dropped_value(), "embed-seq", out);
    (
        sk.insertion_failures() + audit.misses,
        abs_err as f64 / keys.len() as f64,
    )
}

/// Per-layer counters the real run exposes through public accessors.
pub fn live_layers(sk: &ReliableSketch<u64>) -> Metrics {
    let st = sk.stats();
    let hist = st.stop_histogram();
    let inserts = st.inserts().max(1) as f64;
    let visited: f64 = hist
        .iter()
        .enumerate()
        .map(|(i, &c)| i as f64 * c as f64)
        .sum::<f64>()
        + st.failures() as f64 * (hist.len() - 1) as f64;
    let mut decode = Vec::new();
    for _ in 0..3 {
        let a = Instant::now();
        std::hint::black_box(sk.candidates());
        decode.push(secs(a, Instant::now()) * 1e3);
    }
    let mut m = Metrics::default();
    m.set("hash.calls_per_insert", st.avg_insert_hash_calls(), "calls");
    m.set("hash.calls_per_query", st.avg_query_hash_calls(), "calls");
    m.set("sketch.stop_layer_mean", visited / inserts, "layers");
    m.set(
        "sketch.insert_failures",
        sk.insertion_failures() as f64,
        "count",
    );
    m.set("sketch.dropped_value", sk.dropped_value() as f64, "updates");
    m.set("sketch.decode_ms", median(&mut decode), "ms");
    m
}

/// The mice filter's figures after the full stream: absorb and saturation
/// ratios read from the live sketch, and the per-insert time of a filter
/// of the same shape replaying the whole stream.
fn filter_layers(sk: &ReliableSketch<u64>, items: &[(u64, u64)]) -> Metrics {
    let st = sk.stats();
    let threshold = sk.config().filter_threshold().max(1);
    let rows = sk.snapshot().filter_rows.unwrap_or_default();
    let counters: usize = rows.iter().map(Vec::len).sum();
    let saturated = rows.iter().flatten().filter(|&&c| c >= threshold).count();
    let mut m = Metrics::default();
    m.set(
        "filter.absorb_ratio",
        st.stop_histogram()[0] as f64 / st.inserts().max(1) as f64,
        "ratio",
    );
    m.set(
        "filter.saturation_ratio",
        saturated as f64 / counters.max(1) as f64,
        "ratio",
    );
    m.set(
        "filter.insert_ns",
        layers::seq_filter_ns(items, sk.config()),
        "ns",
    );
    m
}
