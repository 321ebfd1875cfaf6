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
//!   separately, so `is_merged()` round-trips faithfully). Live words,
//!   the merge overlay and the slim digest ship fingerprint grids as
//!   [`SparseBucketRows`], and divert hints travel as index lists, both
//!   written and checked in this module: strictly ascending per layer,
//!   and decoding refuses any other order. Counters inside a payload are
//!   unbounded (merged state has no fixed ceiling), so every read over
//!   them saturates.
//! * **Deltas** — only what changed since the previous cut.
//!   [`crate::atomic::AtomicBucketArray`] keeps a one-bit-per-bucket
//!   dirty map set on CAS commit, so a [`ConcurrentDelta`] serializes
//!   exactly the buckets touched since the last cut (entries carry the
//!   *current* packed fields — applying a delta is idempotent
//!   replacement, never addition). [`EpochedDelta`] and [`ShardedDelta`]
//!   lift this to windows and shard groups. When a delta cannot describe
//!   the gap (first ship, a merge since the last cut, more than one
//!   window rotation), the capture side transparently falls back to
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

#![deny(clippy::arithmetic_side_effects)]

mod codec;
mod concurrent;
mod sequential;
mod slim;

pub use codec::{payload_kind, PayloadKind};
pub use concurrent::{
    ConcurrentDelta, ConcurrentSnapshot, EpochedDelta, EpochedSnapshot, GenPayload, OverlayState,
    ShardedDelta, ShardedSnapshot,
};
pub use sequential::{EmergencyState, SketchSnapshot};
pub use slim::{SlimShards, SlimSummary};

use crate::bucket::{EsBucket, Layers};
use crate::config::ReliableConfig;
use crate::filter::MiceFilter;
use crate::geometry::LayerGeometry;
use rsk_api::{Key, ReplicateError};

/// Sparse occupied-bucket rows, layer by layer:
/// `(index, fingerprint, yes, no)` — the fingerprint is `None` for a
/// bucket holding pure collision volume.
pub type SparseBucketRows = Vec<Vec<(u32, Option<u64>, u64, u64)>>;

impl<K: Key> Layers<K> {
    /// The divert hints as ascending index lists: one per layer of a
    /// merged grid, none for a grid no merge has touched.
    pub(crate) fn hint_lists(&self) -> Vec<Vec<u32>> {
        self.hints
            .iter()
            .map(|layer| {
                (0..)
                    .zip(layer)
                    .filter_map(|(j, &h)| h.then_some(j))
                    .collect()
            })
            .collect()
    }

    /// Set the hints from lists [`check_sparse`] accepted: an empty
    /// outer list leaves the grid unmerged.
    pub(crate) fn set_hint_lists(&mut self, lists: &[Vec<u32>]) {
        self.hints = lists
            .iter()
            .zip(&self.buckets)
            .map(|(list, layer)| {
                let mut hinted = vec![false; layer.len()];
                list.iter().for_each(|&j| hinted[j as usize] = true);
                hinted
            })
            .collect();
    }
}

impl Layers<u64> {
    /// The sparse wire form of a fingerprint-space grid, as the merge
    /// overlay and the slim digest ship it: occupied buckets and hinted
    /// indices, one strictly ascending list per layer each.
    pub(crate) fn to_sparse(&self) -> (SparseBucketRows, Vec<Vec<u32>>) {
        let rows = self
            .iter()
            .map(|layer| {
                layer
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| !b.is_empty())
                    .map(|(j, b)| (j as u32, b.id().copied(), b.yes(), b.no()))
                    .collect()
            })
            .collect();
        let mut hints = self.hint_lists();
        hints.resize(self.buckets.len(), Vec::new());
        (rows, hints)
    }

    /// Rebuild a grid of `widths` from its sparse wire form, refusing
    /// rows and hints that [`check_sparse`] refuses. The grid comes back
    /// hinted (possibly with no flag set): only merged grids travel this
    /// way.
    pub(crate) fn from_sparse(
        widths: &[usize],
        rows: SparseBucketRows,
        hints: &[Vec<u32>],
    ) -> Result<Self, ReplicateError> {
        check_sparse(widths, &rows, |r| r.0)?;
        check_sparse(widths, hints, |&j| j)?;
        let mut grid = Layers::new(widths);
        grid.set_hint_lists(hints);
        for (i, layer) in rows.into_iter().enumerate() {
            for (j, id, yes, no) in layer {
                grid.buckets[i][j as usize] = EsBucket::from_parts(id, yes, no);
            }
        }
        Ok(grid)
    }
}

/// The rule every sparse decoder applies to bucket rows and hint lists:
/// one list per layer of `widths`, each strictly ascending by the bucket
/// `index` (readers binary-search them, and the encoder never writes
/// another order) and in range.
pub(crate) fn check_sparse<T>(
    widths: &[usize],
    lists: &[Vec<T>],
    index: impl Fn(&T) -> u32,
) -> Result<(), ReplicateError> {
    if lists.len() != widths.len() {
        return Err(ReplicateError::Corrupt(
            "sparse bucket lists disagree with the layer schedule".into(),
        ));
    }
    for (i, (list, &w)) in lists.iter().zip(widths).enumerate() {
        let ascending = list.windows(2).all(|p| index(&p[0]) < index(&p[1]));
        if !ascending || list.last().is_some_and(|e| index(e) as usize >= w) {
            return Err(ReplicateError::Corrupt(format!(
                "layer {i} bucket indices are out of range or not strictly ascending"
            )));
        }
    }
    Ok(())
}

/// Baselines remembered at a replication cut, stored inside a
/// [`crate::atomic::ConcurrentReliable`]: the next delta lists the mice
/// filter counters that differ from `filter`, a copy of its packed
/// lanes. A merge drops the cut (the dirty bitmap does not cover its
/// overlay), so the baseline never meets lanes a merge widened.
#[derive(Debug)]
pub(crate) struct ReplicaCut {
    pub(crate) filter: Option<MiceFilter>,
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
