//! # rsk-exp — reproduction harness
//!
//! One module per table/figure family of the paper's evaluation (§6).
//! Every module exposes `run(&ExpContext) -> Vec<Table>`; the [`runner`]
//! module dispatches on target names (`fig4`, `table3`, `all`, …), prints
//! the tables, writes CSVs under `results/` and — for `all` — regenerates
//! `results/REPORT.md` with a provenance header.
//!
//! Algorithms enter experiments through the [`contender`] **registry**: a
//! [`contender::Contender`] bundles a label, a build-from-memory-budget
//! factory, an ingest strategy (sequential, batched, or N-worker
//! parallel) and configuration metadata, so the lock-free path
//! (`OursAtomic`, sharded, epoched, merged overlays) is measured in the
//! same sweeps as the sequential sketch and the nine baselines. The
//! [`scenario`] module holds the shared sweep runners the `fig_*` modules
//! build their tables with.
//!
//! ## Scaling
//!
//! The paper's experiments process 10 M items against 0.25–4 MB sketches.
//! Laptop-scale runs default to 1 M items, and **memory axes are scaled by
//! the same factor**, which preserves the collision pressure (items per
//! bucket) and therefore the *shape* of every curve: who wins, by what
//! factor, and where crossovers fall. `--items 10000000` restores paper
//! scale; `--quick` drops to 100 K items for CI smoke runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rsk_api::Sketch;
use rsk_baselines::factory::Baseline;
use rsk_core::{MiceFilterConfig, ReliableConfig, ReliableSketch};
use rsk_stream::{Dataset, GroundTruth, Item};
use std::path::PathBuf;

pub mod contender;
pub mod fig_ablation;
pub mod fig_concurrent;
pub mod fig_delta;
pub mod fig_elephant;
pub mod fig_error;
pub mod fig_hash_calls;
pub mod fig_intro;
pub mod fig_layers;
pub mod fig_outliers;
pub mod fig_params;
pub mod fig_replicate;
pub mod fig_sensing;
pub mod fig_serve;
pub mod fig_subpop;
pub mod fig_testbed;
pub mod fig_throughput;
pub mod fig_workloads;
pub mod fig_zero_mem;
pub mod runner;
pub mod scenario;
pub mod tables;

pub use contender::{Contender, ContenderInstance, ContenderMeta, IngestMode};
pub use rsk_metrics::Table;

/// Item count of every evaluation in the paper (§6.1.2).
pub const PAPER_ITEMS: usize = 10_000_000;

/// Shared experiment context.
#[derive(Debug, Clone)]
pub struct ExpContext {
    /// Items per generated stream.
    pub items: usize,
    /// Base seed; repetitions offset from it.
    pub seed: u64,
    /// Shrink sweeps for CI smoke runs.
    pub quick: bool,
    /// Directory for CSV output.
    pub out_dir: PathBuf,
    /// Worker counts the parallel contenders register at (`--workers`).
    pub workers: Vec<usize>,
    /// Label filters from `--contenders` (comma-separated, substring
    /// match); `None` keeps every registered contender.
    pub contenders: Option<Vec<String>>,
}

impl Default for ExpContext {
    fn default() -> Self {
        Self {
            items: 1_000_000,
            seed: 1,
            quick: false,
            out_dir: PathBuf::from("results"),
            workers: DEFAULT_WORKERS.to_vec(),
            contenders: None,
        }
    }
}

/// Worker counts registered by default (`--workers` overrides).
pub const DEFAULT_WORKERS: [usize; 3] = [1, 2, 4];

impl ExpContext {
    /// Scale a paper-scale byte count to this run's stream length.
    pub fn scale_mem(&self, paper_bytes: usize) -> usize {
        let f = self.items as f64 / PAPER_ITEMS as f64;
        ((paper_bytes as f64 * f) as usize).max(1024)
    }

    /// The paper's standard memory sweep (0.25–4 MB at paper scale),
    /// scaled to this run.
    pub fn memory_sweep(&self) -> Vec<usize> {
        let points: &[usize] = if self.quick {
            &[1 << 19, 1 << 20, 1 << 21, 1 << 22]
        } else {
            &[
                1 << 18, // 0.25 MB
                1 << 19, // 0.5 MB
                1 << 20, // 1 MB
                3 << 19, // 1.5 MB
                1 << 21, // 2 MB
                3 << 20, // 3 MB
                1 << 22, // 4 MB
            ]
        };
        points.iter().map(|&p| self.scale_mem(p)).collect()
    }

    /// Generate a dataset stream plus its ground truth.
    pub fn load(&self, ds: Dataset) -> (Vec<Item<u64>>, GroundTruth<u64>) {
        let stream = ds.generate(self.items, self.seed);
        let truth = GroundTruth::from_items(&stream);
        (stream, truth)
    }

    /// Number of repetitions for worst-case experiments (paper: 100).
    pub fn repetitions(&self) -> u64 {
        if self.quick {
            5
        } else {
            20
        }
    }

    /// Does `label` survive the `--contenders` filter?
    pub fn keep(&self, label: &str) -> bool {
        match &self.contenders {
            None => true,
            Some(pats) => pats.iter().any(|p| label.contains(p.as_str())),
        }
    }

    /// The full registry for accuracy scenarios: `Ours`, the given
    /// baselines, then the deterministic concurrent lineup (see
    /// [`contender::full_registry`]).
    pub fn registry(&self, baselines: &[Baseline], lambda: u64) -> Vec<Contender> {
        contender::full_registry(self, baselines, lambda)
    }

    /// `Ours` + baselines only (parameter studies, bisection searches).
    pub fn sequential_registry(&self, baselines: &[Baseline], lambda: u64) -> Vec<Contender> {
        contender::sequential_registry(self, baselines, lambda)
    }

    /// The deterministic concurrent lineup alone, with one sharded row
    /// (see [`contender::concurrent_contenders`]).
    pub fn concurrent_registry(&self, lambda: u64) -> Vec<Contender> {
        contender::concurrent_contenders(self, lambda, false)
    }

    /// The dataplane models (read-only registrations; byte-domain Λ).
    pub fn dataplane_registry(&self, lambda_bytes: u64) -> Vec<Contender> {
        contender::dataplane_contenders(self, lambda_bytes)
    }
}

/// Build "Ours" with an explicit `(R_w, R_λ)` (parameter studies).
pub fn build_ours_params(
    memory_bytes: usize,
    lambda: u64,
    r_w: f64,
    r_lambda: f64,
    seed: u64,
) -> Box<dyn Sketch<u64>> {
    Box::new(ReliableSketch::<u64>::new(ReliableConfig {
        memory_bytes,
        lambda,
        r_w,
        r_lambda,
        mice_filter: Some(MiceFilterConfig::default()),
        seed,
        ..Default::default()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_scaling_follows_items() {
        let ctx = ExpContext {
            items: 1_000_000,
            ..Default::default()
        };
        assert_eq!(ctx.scale_mem(10 << 20), 1 << 20);
        let full = ExpContext {
            items: PAPER_ITEMS,
            ..Default::default()
        };
        assert_eq!(full.scale_mem(1 << 20), 1 << 20);
    }

    #[test]
    fn sweep_is_increasing() {
        let ctx = ExpContext::default();
        let sweep = ctx.memory_sweep();
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sweep.len(), 7);
    }

    #[test]
    fn registry_contains_ours_first_then_baselines_then_concurrent() {
        let ctx = ExpContext::default();
        let reg = ctx.registry(&Baseline::ACCURACY_SET, 25);
        assert_eq!(reg[0].label(), "Ours");
        // Ours + 8 baselines + (2 atomic + 1 sharded + epoch + merged)
        // + the OursSlim query-only digest
        assert_eq!(reg.len(), 9 + 5 + 1);
        assert_eq!(reg.last().unwrap().label(), "OursSlim");
        let sk = reg[0].sketch_factory()(64 * 1024, 1);
        assert_eq!(sk.name(), "Ours");
        assert!(reg.iter().any(|c| c.label() == "OursAtomic"));
        assert!(reg.iter().any(|c| c.label() == "Ours(x4)@4w"));
    }

    #[test]
    fn contender_filter_prunes_the_registry() {
        let ctx = ExpContext {
            contenders: Some(vec!["Ours".into()]),
            ..Default::default()
        };
        let reg = ctx.registry(&Baseline::ACCURACY_SET, 25);
        assert!(reg.iter().all(|c| c.label().contains("Ours")));
        let atomic_only = ExpContext {
            contenders: Some(vec!["Atomic".into()]),
            ..Default::default()
        };
        let reg = atomic_only.concurrent_registry(25);
        assert_eq!(reg.len(), 2); // filtered + raw, 1 worker each
    }

    #[test]
    fn context_loads_streams() {
        let ctx = ExpContext {
            items: 10_000,
            ..Default::default()
        };
        let (stream, truth) = ctx.load(Dataset::Hadoop);
        assert_eq!(stream.len(), 10_000);
        assert_eq!(truth.total(), 10_000);
    }
}
