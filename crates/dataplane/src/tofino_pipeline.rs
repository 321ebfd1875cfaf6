//! Slot-level model of the Tofino deployment's *recirculation asynchrony*
//! (paper §5.2, Challenge II).
//!
//! [`super::tofino::TofinoReliable`] applies lock flags synchronously —
//! the right behavioural abstraction, but a real switch cannot do it: a
//! packet discovers `NO = λ` in a *later* stage than the flag lives in,
//! so it must be **recirculated** to write the flag on a second pass.
//! Until that pass completes, packets keep entering the pipeline and
//! taking the unlocked path through the same bucket.
//!
//! This module models exactly that window:
//!
//! * every ingress packet occupies one pipeline **slot**; a recirculated
//!   packet re-enters `recirc_latency` slots later and occupies another
//!   slot (the throughput cost the paper accepts);
//! * a packet that pushes `NO` to the threshold clamps `NO = λ`,
//!   schedules the flag write for `now + recirc_latency`, and carries its
//!   overflow onward *on the second pass* — so its descent into deeper
//!   layers is delayed;
//! * packets arriving in the window see `NO = λ` but `LOCKED` still
//!   unset, recirculate *again* (duplicate recirculations are real — no
//!   packet can know another flag-write is in flight), and their values
//!   descend late as well.
//!
//! The buckets, their stage A/B step and their readout are the
//! behavioural model's own (the switch grid in `tofino`): this model
//! differs only in what a threshold hit does, so with
//! `recirc_latency = 0` it collapses to the behavioural one (verified by
//! a differential test).
//!
//! Accuracy semantics under the
//! switch encoding are *two-sided*: overshoot remains covered by the
//! reported MPE (answers are sums of `NO`-style registers), but the
//! threshold-crossing path — saturated subtraction of the full arriving
//! value from `DIFF` while only part of it stays in `NO` — can
//! *under-count the displaced candidate* by up to the diverted overflow.
//! This is a property of the §5.2 encoding itself (the synchronous model
//! shares it), which is why Fig 20 evaluates the two-sided outlier
//! criterion `|err| ≤ Λ` rather than the CPU version's one-sided
//! interval, and one mechanistic reason the testbed needs somewhat more
//! SRAM for zero outliers than the CPU experiments (Fig 4). The
//! recirculation window widens that effect slightly and costs duplicate
//! recirculation passes, which this model quantifies.

use rsk_api::{Estimate, Key};
use std::collections::VecDeque;

use crate::tofino::SwitchGrid;

/// A packet on its recirculation pass: set the flag of bucket `flag`,
/// then resume the insertion below its layer with the remaining `value`.
#[derive(Debug, Clone)]
struct Recirculated<K> {
    due_slot: u64,
    flag: (usize, usize),
    key: K,
    value: u64,
}

/// Slot-accurate Tofino variant with asynchronous lock flags.
#[derive(Debug, Clone)]
pub struct TofinoPipeline<K: Key> {
    grid: SwitchGrid<K>,
    recirc_latency: u64,
    in_flight: VecDeque<Recirculated<K>>,
    slot: u64,
    ingress_packets: u64,
}

impl<K: Key> TofinoPipeline<K> {
    /// Build like [`super::tofino::TofinoReliable::new`], with the given
    /// recirculation latency in pipeline slots (switch reality: roughly
    /// one pipeline length; 0 collapses to the synchronous model).
    pub fn new(sram_bytes: usize, lambda: u64, seed: u64, recirc_latency: u64) -> Self {
        Self {
            grid: SwitchGrid::new(sram_bytes, lambda, seed),
            recirc_latency,
            in_flight: VecDeque::new(),
            slot: 0,
            ingress_packets: 0,
        }
    }

    /// Total recirculation passes (each consumed a pipeline slot).
    pub fn recirculations(&self) -> u64 {
        self.grid.recirculations
    }

    /// Pipeline slots consumed: ingress packets + recirculation passes —
    /// the denominator of the effective line rate.
    pub fn slots_consumed(&self) -> u64 {
        self.ingress_packets + self.recirculations()
    }

    /// Fraction of pipeline capacity lost to recirculation.
    pub fn recirculation_overhead(&self) -> f64 {
        if self.ingress_packets == 0 {
            0.0
        } else {
            self.recirculations() as f64 / self.slots_consumed() as f64
        }
    }

    /// Values that fell past the last layer (control-plane territory).
    pub fn insertion_failures(&self) -> u64 {
        self.grid.failures
    }

    /// Ingest one packet (one ingress slot), first letting any due
    /// recirculated packets complete their second pass.
    pub fn insert(&mut self, key: &K, value: u64) {
        self.slot += 1;
        self.ingress_packets += 1;
        self.drain_due();
        self.pass(*key, value, 0);
    }

    /// Let every in-flight recirculated packet land (end of stream).
    pub fn flush(&mut self) {
        self.slot = u64::MAX;
        self.drain_due();
        self.slot = self.ingress_packets; // keep monotone for reuse
    }

    fn drain_due(&mut self) {
        while let Some(front) = self.in_flight.front() {
            if front.due_slot > self.slot {
                break;
            }
            let p = self.in_flight.pop_front().expect("front exists");
            let (layer, index) = p.flag;
            self.grid.lock(layer, index);
            self.pass(p.key, p.value, layer + 1);
        }
    }

    /// One pipeline pass from `start_layer`. Challenge II,
    /// asynchronously: a threshold hit schedules its flag write one
    /// recirculation away and carries the overflow on the second pass,
    /// so packets in the window still see the bucket unlocked.
    fn pass(&mut self, key: K, v: u64, start_layer: usize) {
        if let Some((layer, index, overflow)) = self.grid.pass(&key, v, start_layer) {
            self.in_flight.push_back(Recirculated {
                due_slot: self.slot.saturating_add(self.recirc_latency),
                flag: (layer, index),
                key,
                value: overflow,
            });
        }
    }

    /// Query with the certified interval (the behavioural model's
    /// readout).
    pub fn query_with_error(&self, key: &K) -> Estimate {
        self.grid.query_with_error(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tofino::TofinoReliable;
    use proptest::prelude::*;
    use rsk_api::StreamSummary;
    use rsk_stream::Dataset;

    /// Zero-latency recirculation collapses to the synchronous
    /// behavioural model, answer for answer.
    #[test]
    fn zero_latency_equals_behavioural_model() {
        let stream = Dataset::IpTrace.generate(120_000, 5);
        let mut sync = TofinoReliable::<u64>::new(16 * 1024, 25, 9);
        let mut pipe = TofinoPipeline::<u64>::new(16 * 1024, 25, 9, 0);
        for it in &stream {
            sync.insert(&it.key, it.value);
            pipe.insert(&it.key, it.value);
        }
        pipe.flush();
        for it in stream.iter().take(20_000) {
            let a = sync.query_with_error(&it.key);
            let b = pipe.query_with_error(&it.key);
            assert_eq!(
                (a.value, a.max_possible_error),
                (b.value, b.max_possible_error),
                "divergence at {}",
                it.key
            );
        }
        assert_eq!(sync.recirculations(), pipe.recirculations());
    }

    #[test]
    fn latency_window_costs_extra_recirculations() {
        let stream = Dataset::IpTrace.generate(200_000, 6);
        let run = |latency: u64| {
            let mut pipe = TofinoPipeline::<u64>::new(8 * 1024, 25, 3, latency);
            for it in &stream {
                pipe.insert(&it.key, it.value);
            }
            pipe.flush();
            pipe.recirculations()
        };
        let instant = run(0);
        let realistic = run(64);
        let slow = run(1024);
        assert!(
            realistic >= instant,
            "async flags cannot reduce recirculations: {realistic} < {instant}"
        );
        assert!(
            slow >= realistic,
            "longer windows admit more duplicates: {slow} < {realistic}"
        );
    }

    #[test]
    fn overhead_fraction_is_small_at_paper_scale_ratio() {
        // the paper's deployment tolerates recirculation because it is
        // rare; at a sane SRAM/traffic ratio the overhead stays < 5 %
        let stream = Dataset::IpTrace.generate(400_000, 7);
        let mut pipe = TofinoPipeline::<u64>::new(64 * 1024, 25, 11, 64);
        for it in &stream {
            pipe.insert(&it.key, it.value);
        }
        pipe.flush();
        let overhead = pipe.recirculation_overhead();
        assert!(
            overhead < 0.05,
            "recirculation overhead {overhead:.3} too high"
        );
        assert_eq!(
            pipe.slots_consumed(),
            400_000 + pipe.recirculations(),
            "every recirculation must consume a slot"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The switch encoding's two-sided accuracy contract survives the
        /// asynchronous window: at adequate memory, every key's error
        /// stays within Λ (Fig 20's outlier criterion) and overshoot is
        /// covered by the reported MPE. A strict one-sided bound does
        /// NOT hold for this variant — see the module docs.
        #[test]
        fn prop_async_flags_keep_two_sided_contract(
            ops in proptest::collection::vec((0u64..60, 1u64..5), 1..800),
            latency in 0u64..200,
            seed in 0u64..16,
        ) {
            let lambda = 25u64;
            let mut pipe = TofinoPipeline::<u64>::new(64 * 1024, lambda, seed, latency);
            let mut truth = std::collections::HashMap::new();
            for (k, v) in ops {
                pipe.insert(&k, v);
                *truth.entry(k).or_insert(0u64) += v;
            }
            pipe.flush();
            prop_assume!(pipe.insertion_failures() == 0);
            for (&k, &f) in &truth {
                let est = pipe.query_with_error(&k);
                prop_assert!(est.value.abs_diff(f) <= lambda,
                    "outlier at {}: est {} truth {}", k, est.value, f);
                if est.value > f {
                    prop_assert!(est.value - f <= est.max_possible_error,
                        "overshoot beyond MPE at {}", k);
                }
            }
        }
    }
}
