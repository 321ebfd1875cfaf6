//! Replication — checkpoint, ship and mirror sketches.
//!
//! This module generalizes the original checkpoint/restore path into a
//! full replication layer, the software analogue of the paper's
//! collector deployments: a measurement process periodically *cuts* its
//! sketch state and ships it to a collector (crash recovery, interval
//! hand-off, or a live read replica). Four payload families cover the
//! spectrum from durable checkpoints to low-byte-count live mirroring:
//!
//! * **Snapshots** — complete plain-data mirrors of a sketch's logical
//!   state. [`SketchSnapshot`] covers the sequential
//!   [`crate::ReliableSketch`]; [`ConcurrentSnapshot`],
//!   [`EpochedSnapshot`] and [`ShardedSnapshot`] cover the lock-free
//!   types (packed live words and the sealed merge overlay are captured
//!   separately, so `is_merged()` round-trips faithfully).
//! * **Deltas** — only what changed since the previous cut.
//!   [`crate::atomic::AtomicBucketArray`] keeps a one-bit-per-bucket
//!   dirty map set on CAS commit, so a [`ConcurrentDelta`] serializes
//!   exactly the buckets touched since the last cut (entries carry the
//!   *current* packed fields — applying a delta is idempotent
//!   replacement, never addition). [`EpochedDelta`] and [`ShardedDelta`]
//!   lift this to windows and shard groups. When a delta cannot describe
//!   the gap (first ship, a merge mutated the sealed overlay, more than
//!   one window rotation), the capture side transparently falls back to
//!   a full snapshot — payloads are self-describing, so the apply side
//!   never needs to know in advance.
//! * **Slim summaries** — [`SlimSummary`] distills a sketch into a
//!   query-only digest (occupied buckets and certified error structure,
//!   no mice-filter counters), in the spirit of SF-sketch's
//!   "fat insert, slim query" split. It answers
//!   [`query_with_error`](SlimSummary::query_with_error) standalone from
//!   nothing but the payload, with certified intervals widened by at
//!   most a documented [`slack`](SlimSummary::slack).
//! * **Binary codec** — every payload travels in one compact format: a
//!   self-describing header (magic + version + payload kind), then the
//!   payload's fields in declaration order, untagged, with minimal
//!   LEB128 integers and keys in their fixed-width byte form; see
//!   [`payload_kind`] for sniffing and the `to_bytes`/`from_bytes` pairs
//!   on each payload type. Decoding is *total*: truncated, corrupt or
//!   alien input returns a typed [`rsk_api::ReplicateError`], never a
//!   panic.
//!
//! The uniform entry point is the [`rsk_api::Replicate`] trait
//! (`snapshot_bytes` / `delta_bytes` / `slim_bytes` / `apply_bytes`),
//! implemented here for [`crate::ReliableSketch`],
//! [`crate::atomic::ConcurrentReliable`],
//! [`crate::epoch::EpochedConcurrent`] and
//! [`crate::concurrent::ShardedReliable`]. A full snapshot applied
//! through it replaces a sketch of the *same* shape: a payload naming
//! another configuration or layer schedule is refused as
//! [`rsk_api::ReplicateError::Incompatible`] before anything is
//! allocated for it.
//!
//! ```
//! use rsk_core::atomic::ConcurrentReliable;
//! use rsk_core::ReliableConfig;
//! use rsk_api::Replicate;
//!
//! let config = ReliableConfig { memory_bytes: 32 * 1024, seed: 7, ..Default::default() };
//! let mut primary = ConcurrentReliable::<u64>::new(config.clone());
//! let mut replica = ConcurrentReliable::<u64>::new(config);
//! for i in 0..20_000u64 {
//!     primary.insert_concurrent(&(i % 300), 1);
//! }
//! // first ship: a full snapshot (and the cut baseline for future deltas)
//! replica.apply_bytes(&primary.delta_bytes().unwrap()).unwrap();
//! // touch a few keys, then ship only the dirty buckets
//! for i in 0..100u64 {
//!     primary.insert_concurrent(&(i % 5), 2);
//! }
//! replica.apply_bytes(&primary.delta_bytes().unwrap()).unwrap();
//! assert_eq!(replica.query_with_error(&3), primary.query_with_error(&3));
//! ```

mod codec;
mod concurrent;
mod sequential;
mod slim;

pub use codec::{payload_kind, PayloadKind};
pub use concurrent::{
    ConcurrentDelta, ConcurrentSnapshot, EpochedDelta, EpochedSnapshot, GenPayload, OverlayState,
    ShardedDelta, ShardedSnapshot,
};
pub use sequential::{BucketState, EmergencyState, SketchSnapshot};
pub use slim::{SlimShards, SlimSummary};

use crate::config::ReliableConfig;
use crate::filter::MiceFilter;
use crate::geometry::LayerGeometry;
use rsk_api::ReplicateError;

/// Sparse occupied-bucket rows, layer by layer:
/// `(index, fingerprint, yes, no)` — the fingerprint is `None` for a
/// bucket holding pure collision volume.
pub type SparseBucketRows = Vec<Vec<(u32, Option<u64>, u64, u64)>>;

/// Baselines remembered at a replication cut, stored inside a
/// [`crate::atomic::ConcurrentReliable`]: the next delta diffs the mice
/// filter against `filter_rows` and falls back to a full snapshot when
/// `merge_epoch` no longer matches (a merge mutated the sealed overlay,
/// which the dirty bitmap does not cover).
#[derive(Debug)]
pub(crate) struct ReplicaCut {
    pub(crate) filter_rows: Option<Vec<Vec<u64>>>,
    pub(crate) merge_epoch: u64,
}

/// The check every full-payload apply runs first: a payload whose
/// configuration, layer widths or lock thresholds differ from the
/// receiver's is refused before anything is allocated for it (its
/// schedule could name any size at all).
pub(crate) fn check_shape(
    receiver: &ReliableConfig,
    geometry: &LayerGeometry,
    config: &ReliableConfig,
    widths: &[usize],
    lambdas: &[u64],
) -> Result<(), ReplicateError> {
    if config != receiver || widths != geometry.widths() || lambdas != geometry.lambdas() {
        return Err(ReplicateError::Incompatible(
            "snapshot configuration or layer schedule does not match the replica".into(),
        ));
    }
    Ok(())
}

/// Install a snapshot's mice-filter rows into the sketch it restores:
/// both carry a filter (the rows must match its shape) or neither does.
pub(crate) fn restore_filter(
    filter: Option<&mut MiceFilter>,
    rows: Option<&[Vec<u64>]>,
) -> Result<(), ReplicateError> {
    match (filter, rows) {
        (Some(f), Some(rows)) => f.restore_rows(rows).map_err(ReplicateError::Corrupt),
        (None, None) => Ok(()),
        _ => Err(ReplicateError::Corrupt(
            "snapshot filter presence mismatch".into(),
        )),
    }
}
