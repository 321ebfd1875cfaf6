//! # rsk-core — ReliableSketch
//!
//! A from-scratch Rust implementation of **ReliableSketch** (Wu et al.,
//! *Approaching 100% Confidence in Stream Summary through ReliableSketch*,
//! arXiv 2406.00376 / IMC 2025): a stream summary whose estimation error is
//! controlled below a user tolerance `Λ` **for all keys simultaneously**
//! with failure probability `Δ` that can practically be driven below
//! 10⁻¹⁰.
//!
//! ## Structure
//!
//! * [`bucket::EsBucket`] — the Error-Sensible Bucket (Key Technique I):
//!   an election cell whose `NO` counter certifies its own worst-case
//!   error; its module also holds the crate's one bucket grid (layers
//!   plus merge divert hints), which the sequential sketch, every merge
//!   operand, the lock-free merge overlay and the slim digest share;
//! * [`geometry::LayerGeometry`] — the Double Exponential Control schedule
//!   (Key Technique II): widths and lock thresholds both decay
//!   geometrically;
//! * [`filter::MiceFilter`] — the §3.3 CU mice filter, its counters
//!   packed into `AtomicU64` lanes; the sequential and lock-free sketches
//!   run this one type ([`filter::AtomicMiceFilter`] is an alias);
//! * [`emergency::EmergencyStore`] — the §3.3 emergency solution for
//!   insertion failures (exact table, or a SpaceSaving
//!   [`topk::TopKSummary`] whose miss bound certifies evicted keys);
//! * [`ReliableSketch`] — the full layered structure with the lock
//!   mechanism, mice filter and emergency store; its module holds
//!   Algorithm 2's layer walk, the one copy of the query stop rule that
//!   every bucket-layer read (sequential, atomic, merged overlay, slim
//!   digest) calls;
//! * [`theory`] — the paper's closed-form results (Theorems 4–5, Table 1);
//! * [`atomic::AtomicBucketArray`] / [`atomic::ConcurrentReliable`] — the
//!   lock-free multi-core data path: fingerprint/count/error packed in one
//!   `AtomicU64` per bucket, every Algorithm-1 step committed by a single
//!   CAS, with the atomic mice filter in front when configured (full
//!   feature parity with the sequential sketch — no mutex, no channel on
//!   the hot path);
//! * [`concurrent::ShardedReliable`] — key-partitioned multi-core
//!   ingestion over lock-free shards with a deterministic two-phase
//!   `ingest_parallel`;
//! * [`epoch::Epoched`] — the two-generation rotating window, written
//!   once and generic over its [`epoch::Generation`]:
//!   [`epoch::EpochedReliable`] rotates sequential sketches,
//!   [`epoch::EpochedConcurrent`] lock-free ones;
//! * [`topk::TopKSummary`] — the error-certified top-K layer: a
//!   Space-Saving min-heap claimed on elephant promotion whose
//!   entries carry the sketch's certified per-key error, behind the
//!   [`rsk_api::TopK`] trait on every sketch flavour;
//! * [`subpop`] — certified subpopulation-weight queries (Cohen &
//!   Kaplan's aggregate): the total value of a [`rsk_api::KeySet`]-selected
//!   key subset with a sound [`rsk_api::CertifiedWeight`] interval summed
//!   from the per-key certified bounds, behind the object-safe
//!   [`rsk_api::SubpopulationWeight`] trait on every sketch flavour;
//! * [`merge`] — distributed aggregation: [`rsk_api::Merge`] for the
//!   sequential sketch, both concurrent types, and mixed
//!   sequential→concurrent folds;
//! * [`replicate`] — the replication layer: a compact
//!   binary codec with versioned headers, full snapshots for every
//!   sketch type, dirty-bitmap deltas that ship only the buckets touched
//!   since the last cut, and [`replicate::SlimSummary`] query-only
//!   digests, all behind the uniform [`rsk_api::Replicate`] trait.
//!
//! ## Quick start
//!
//! ```
//! use rsk_core::ReliableSketch;
//! use rsk_api::{StreamSummary, ErrorSensing};
//!
//! let mut sk = ReliableSketch::<u64>::builder()
//!     .memory_bytes(256 * 1024) // 256 KB
//!     .error_tolerance(25)      // Λ
//!     .build_sequential();
//!
//! for i in 0..100_000u64 {
//!     sk.insert(&(i % 1000), 1);
//! }
//!
//! let est = sk.query_with_error(&42);
//! assert!(est.contains(100));                  // truth ∈ [f̂−MPE, f̂]
//! assert!(est.max_possible_error <= 25);       // MPE ≤ Λ
//! assert_eq!(sk.insertion_failures(), 0);      // guarantee intact
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod atomic;
pub mod bucket;
pub mod concurrent;
pub mod config;
pub mod emergency;
pub mod epoch;
pub mod filter;
pub mod geometry;
pub mod merge;
pub mod replicate;
pub mod sketch;
pub mod stats;
pub mod subpop;
pub mod theory;
pub mod topk;

pub use atomic::{AtomicBucketArray, ConcurrentReliable, ATOMIC_BUCKET_BYTES};
pub use bucket::EsBucket;
pub use concurrent::ShardedReliable;
pub use config::{
    Depth, EmergencyPolicy, MiceFilterConfig, ReliableConfig, SketchBuilder, BUCKET_BYTES,
    DEFAULT_SEED,
};
pub use epoch::{EpochedConcurrent, EpochedReliable};
pub use filter::{AtomicMiceFilter, MiceFilter};
pub use geometry::LayerGeometry;
pub use merge::merge_all;
pub use replicate::{SketchSnapshot, SlimShards, SlimSummary};
pub use sketch::ReliableSketch;
pub use stats::{InsertTrace, QueryTrace, SketchStats, StopLayer};
pub use subpop::DENSE_ENUMERATION_LIMIT;
pub use topk::TopKSummary;
