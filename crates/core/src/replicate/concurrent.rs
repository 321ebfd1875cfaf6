//! Replication payloads for the lock-free types:
//! [`ConcurrentReliable`], [`EpochedConcurrent`] and [`ShardedReliable`].
//!
//! Snapshots mirror a sketch's complete logical state; deltas carry only
//! the buckets whose dirty bit is set (plus changed mice-filter counters
//! and the emergency remainder). Live words travel as
//! [`super::SparseBucketRows`], each row with its fingerprint, and the
//! failure gauge is rebuilt from the emergency state's failures. Delta
//! entries hold *current* packed fields — applying one is idempotent
//! replacement, never addition — so a re-shipped delta cannot corrupt a
//! replica. Capture transparently widens to a full snapshot whenever a
//! delta could not describe the gap: no prior cut, a merge since the
//! cut (every merge drops the cut when it seals its overlay), or more
//! than one window rotation since the cut. The cut keeps a copy of the
//! mice filter's packed lanes, and a delta lists the counters that
//! differ from it.

use super::codec::{self, bad_tag, wire_struct, PayloadKind, Reader, Wire};
use super::sequential::EmergencyState;
use super::{check_shape, check_sparse, SparseBucketRows};
use crate::atomic::{fits_word, ConcurrentReliable, ERR_MAX};
use crate::bucket::Layers;
use crate::concurrent::ShardedReliable;
use crate::config::ReliableConfig;
use crate::epoch::EpochedConcurrent;
use crate::geometry::LayerGeometry;
use rsk_api::{Key, Replicate, ReplicateError, TopK};

/// The sealed merge overlay of a merged sketch, sparsely encoded.
#[derive(Debug, Clone)]
pub struct OverlayState {
    /// Occupied overlay buckets, layer by layer:
    /// `(index, fingerprint, yes, no)` — the fingerprint is `None` for a
    /// bucket holding pure collision volume.
    pub layers: SparseBucketRows,
    /// Indices of merge-flagged (divert-hinted) buckets, layer by layer.
    pub hints: Vec<Vec<u32>>,
}

wire_struct!(OverlayState { layers, hints });

/// A complete mirror of a [`ConcurrentReliable`]'s logical state.
#[derive(Debug, Clone)]
pub struct ConcurrentSnapshot<K> {
    /// The configuration the sketch was built from.
    pub config: ReliableConfig,
    /// Materialized layer widths.
    pub widths: Vec<usize>,
    /// Materialized lock thresholds.
    pub lambdas: Vec<u64>,
    /// Occupied live packed words: `(index, fingerprint, yes, no)` per
    /// layer, strictly ascending by index; a live word always has a
    /// fingerprint.
    pub words: SparseBucketRows,
    /// The sealed merge overlay, if the sketch was merged.
    pub overlay: Option<OverlayState>,
    /// Mice-filter counter rows, if the filter exists.
    pub filter_rows: Option<Vec<Vec<u64>>>,
    /// Emergency-store contents; their failures rebuild the gauge.
    pub emergency: EmergencyState<K>,
}

wire_struct!(ConcurrentSnapshot<K> {
    config,
    widths,
    lambdas,
    words,
    overlay,
    filter_rows,
    emergency,
});

/// Buckets touched since the last replication cut, plus the emergency
/// store, which cannot be diffed cheaply, shipped whole.
#[derive(Debug, Clone)]
pub struct ConcurrentDelta<K> {
    /// The configuration of the sketch that cut the delta (the replica
    /// must match it exactly).
    pub config: ReliableConfig,
    /// Dirty packed words with their *current* fields, in the form of
    /// [`ConcurrentSnapshot::words`] — replace semantics.
    pub words: SparseBucketRows,
    /// Mice-filter counters that changed since the cut:
    /// `(row, index, current value)`. `None` when the sketch has no
    /// filter.
    pub filter_diff: Option<Vec<(u32, u32, u64)>>,
    /// Emergency-store contents (shipped whole; replace).
    pub emergency: EmergencyState<K>,
}

wire_struct!(ConcurrentDelta<K> {
    config,
    words,
    filter_diff,
    emergency,
});

/// What one generation ships at a cut: a delta when the dirty map tells
/// the whole story since the previous cut, otherwise a full snapshot.
#[derive(Debug, Clone)]
pub enum GenPayload<K> {
    /// The generation's complete state.
    Full(ConcurrentSnapshot<K>),
    /// Only what changed since the previous cut.
    Delta(ConcurrentDelta<K>),
}

impl<K: Key> Wire for GenPayload<K> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            GenPayload::Full(s) => {
                out.push(0);
                s.put(out);
            }
            GenPayload::Delta(d) => {
                out.push(1);
                d.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ReplicateError> {
        match r.byte()? {
            0 => Ok(GenPayload::Full(Wire::get(r)?)),
            1 => Ok(GenPayload::Delta(Wire::get(r)?)),
            other => Err(bad_tag("generation payload", other)),
        }
    }
}

/// A complete mirror of an [`EpochedConcurrent`] window.
#[derive(Debug, Clone)]
pub struct EpochedSnapshot<K> {
    /// The window's epoch index at capture.
    pub epoch: u64,
    /// The active generation.
    pub active: ConcurrentSnapshot<K>,
    /// The sealed previous epoch, if one exists.
    pub frozen: Option<ConcurrentSnapshot<K>>,
}

wire_struct!(EpochedSnapshot<K> {
    epoch,
    active,
    frozen,
});

/// What changed in a window since the last cut, spanning at most one
/// rotation (two or more rotations discard state a delta cannot
/// describe, so capture falls back to an [`EpochedSnapshot`]).
#[derive(Debug, Clone)]
pub struct EpochedDelta<K> {
    /// The epoch the replica must be at for this delta to apply.
    pub base_epoch: u64,
    /// The primary's epoch after this delta (`base_epoch` or
    /// `base_epoch + 1`).
    pub epoch: u64,
    /// With one rotation: the final changes to the generation that was
    /// active at the cut and is now frozen. `None` without a rotation
    /// (a frozen generation is sealed — it cannot change).
    pub frozen: Option<GenPayload<K>>,
    /// The active generation's changes — always [`GenPayload::Full`]
    /// after a rotation (the generation is new).
    pub active: GenPayload<K>,
}

wire_struct!(EpochedDelta<K> {
    base_epoch,
    epoch,
    frozen,
    active,
});

/// A complete mirror of a [`ShardedReliable`] (per-shard snapshots plus
/// the routing seed the replica needs to agree on key placement).
#[derive(Debug, Clone)]
pub struct ShardedSnapshot<K> {
    /// The routing-hash seed.
    pub router_seed: u32,
    /// One snapshot per shard, in shard order.
    pub shards: Vec<ConcurrentSnapshot<K>>,
}

wire_struct!(ShardedSnapshot<K> {
    router_seed,
    shards,
});

/// Per-shard cut payloads (each shard independently ships a delta or
/// falls back to a full snapshot).
#[derive(Debug, Clone)]
pub struct ShardedDelta<K> {
    /// The routing-hash seed (must match the replica's).
    pub router_seed: u32,
    /// One payload per shard, in shard order.
    pub shards: Vec<GenPayload<K>>,
}

wire_struct!(ShardedDelta<K> {
    router_seed,
    shards,
});

/// Reject live rows that break the sparse rule, lack a fingerprint or
/// overflow their layer's packed word, before anything is mutated.
fn check_words(words: &SparseBucketRows, geometry: &LayerGeometry) -> Result<(), ReplicateError> {
    check_sparse(geometry.widths(), words, |r| r.0)?;
    for (i, layer) in words.iter().enumerate() {
        for &(j, fp, yes, no) in layer {
            if !fp.is_some_and(|fp| fits_word(fp, yes, no, geometry.lambda(i))) {
                return Err(ReplicateError::Corrupt(format!(
                    "live bucket ({i}, {j}) lacks a fingerprint or overflows the packed word"
                )));
            }
        }
    }
    Ok(())
}

impl<K: Key> ConcurrentReliable<K> {
    /// Capture a plain-data mirror of the sketch's full logical state
    /// (live packed words, sealed overlay, filter counters, emergency
    /// remainder). Like the sequential
    /// [`crate::ReliableSketch::snapshot`], operation statistics are not
    /// persisted.
    pub fn snapshot(&self) -> ConcurrentSnapshot<K> {
        let array = self.array();
        let words = (0..array.depth())
            .map(|i| {
                (0..array.width(i))
                    .filter_map(|j| {
                        let (fp, yes, no) = array.read(i, j);
                        (fp != 0 || yes != 0 || no != 0).then_some((j as u32, Some(fp), yes, no))
                    })
                    .collect()
            })
            .collect();
        ConcurrentSnapshot {
            config: self.config().clone(),
            widths: self.geometry().widths().to_vec(),
            lambdas: self.geometry().lambdas().to_vec(),
            words,
            overlay: self.merged.as_ref().map(|grid| {
                let (layers, hints) = grid.to_sparse();
                OverlayState { layers, hints }
            }),
            filter_rows: self.filter().map(|f| f.rows_snapshot()),
            emergency: self.emergency.lock().capture(),
        }
    }

    /// Rebuild a sketch from a [`ConcurrentSnapshot`].
    ///
    /// # Errors
    /// [`ReplicateError::Corrupt`] for invalid configurations, malformed
    /// schedules, out-of-range or out-of-order bucket entries, live
    /// entries without a fingerprint, filter-shape mismatches, exact
    /// emergency rows out of order, or SpaceSaving rows that repeat a key
    /// or outnumber the slots; [`ReplicateError::Incompatible`] for an
    /// emergency policy mismatch.
    pub fn restore(snapshot: ConcurrentSnapshot<K>) -> Result<Self, ReplicateError> {
        snapshot
            .config
            .validate()
            .map_err(ReplicateError::Corrupt)?;
        if let Some(&l) = snapshot.lambdas.iter().find(|&&l| l > ERR_MAX) {
            return Err(ReplicateError::Corrupt(format!(
                "layer threshold {l} exceeds the packed error field ({ERR_MAX})"
            )));
        }
        let geometry = LayerGeometry::custom(snapshot.widths, snapshot.lambdas)
            .map_err(ReplicateError::Corrupt)?;
        check_words(&snapshot.words, &geometry)?;
        let overlay = snapshot
            .overlay
            .map(|o| Layers::from_sparse(geometry.widths(), o.layers, &o.hints))
            .transpose()?;

        let mut sk = ConcurrentReliable::with_geometry(snapshot.config, geometry);
        super::restore_filter(sk.filter.as_mut(), snapshot.filter_rows.as_deref())?;
        sk.merged = overlay;
        sk.emergency.get_mut().install(snapshot.emergency)?;
        sk.store_words(&snapshot.words);
        Ok(sk)
    }

    /// Write checked live rows into the words, and set the failure gauge
    /// to the installed emergency store's failures: queries skip the
    /// store while the gauge reads 0.
    fn store_words(&mut self, words: &SparseBucketRows) {
        for (i, layer) in words.iter().enumerate() {
            for &(j, fp, yes, no) in layer {
                self.array
                    .store_bucket(i, j as usize, fp.unwrap_or(0), yes, no);
            }
        }
        *self.failures.get_mut() = self.emergency.get_mut().failures();
    }

    /// Full snapshot that *also* records a replication cut, so the next
    /// [`Self::delta`] can ship only what changes from here.
    fn full_cut(&mut self) -> ConcurrentSnapshot<K> {
        let snapshot = self.snapshot();
        self.set_replica_cut();
        snapshot
    }

    /// Cut a replication payload: the buckets dirtied since the last cut
    /// (plus filter and emergency state), or a full snapshot when no
    /// cut exists yet or a merge has dropped it since.
    /// Exclusive (`&mut`): producers must be quiescent across the cut,
    /// as for [`rsk_api::Merge`].
    pub fn delta(&mut self) -> GenPayload<K> {
        let Some(cut) = &self.cut else {
            return GenPayload::Full(self.full_cut());
        };
        let filter_diff = match (self.filter(), &cut.filter) {
            (Some(f), Some(base)) => Some(f.changed_since(base)),
            (None, None) => None,
            // filter presence cannot change over a sketch's lifetime;
            // a disagreeing cut is stale — recover with a full payload
            _ => return GenPayload::Full(self.full_cut()),
        };
        let dirty = self.array().dirty_indices();
        let words = dirty
            .iter()
            .enumerate()
            .map(|(i, idxs)| {
                idxs.iter()
                    .map(|&j| {
                        let (fp, yes, no) = self.array().read(i, j as usize);
                        (j, Some(fp), yes, no)
                    })
                    .collect()
            })
            .collect();
        let delta = ConcurrentDelta {
            config: self.config().clone(),
            words,
            filter_diff,
            emergency: self.emergency.lock().capture(),
        };
        self.set_replica_cut();
        GenPayload::Delta(delta)
    }

    /// Overwrite this replica's dirty state with a [`ConcurrentDelta`]
    /// cut from a primary it mirrors.
    ///
    /// All-or-nothing: every validation runs before the first write, so
    /// an error leaves the replica exactly as it was.
    ///
    /// # Errors
    /// [`ReplicateError::Incompatible`] when the delta's configuration
    /// (or filter/emergency shape) does not match this sketch;
    /// [`ReplicateError::Corrupt`] for entries that break the sparse
    /// rule, lack a fingerprint or do not fit the packed word, or exact
    /// emergency rows out of order.
    pub fn apply_delta(&mut self, delta: ConcurrentDelta<K>) -> Result<(), ReplicateError> {
        if delta.config != *self.config() {
            return Err(ReplicateError::Incompatible(
                "delta configuration does not match the replica".into(),
            ));
        }
        check_words(&delta.words, self.geometry())?;
        if self.filter().is_some() != delta.filter_diff.is_some() {
            return Err(ReplicateError::Incompatible(
                "delta filter presence mismatch".into(),
            ));
        }
        // Stage the emergency replacement on a clone so shape errors
        // surface before any write reaches the live sketch.
        let mut staged = self.peer_emergency();
        staged.install(delta.emergency)?;

        if let Some(diffs) = &delta.filter_diff {
            self.filter
                .as_mut()
                .expect("presence checked above")
                .overwrite_counters(diffs)
                .map_err(ReplicateError::Corrupt)?;
        }
        *self.emergency.get_mut() = staged;
        self.store_words(&delta.words);
        // Replicated counters arrive without their promotion history, so
        // any top-K summary on this replica is stale: drop it and answer
        // vacuously (mirrors full-snapshot restores, which never carry
        // a summary).
        self.invalidate_top_k();
        Ok(())
    }

    /// Apply either arm of a [`GenPayload`]: a delta in place, or a full
    /// snapshot as wholesale replacement (configuration and layer
    /// schedule must match — a generation payload targets a specific
    /// slot).
    pub fn apply(&mut self, payload: GenPayload<K>) -> Result<(), ReplicateError> {
        match payload {
            GenPayload::Full(s) => {
                self.check_snapshot_shape(&s)?;
                *self = ConcurrentReliable::restore(s)?;
                Ok(())
            }
            GenPayload::Delta(d) => self.apply_delta(d),
        }
    }

    /// [`check_shape`] of a full snapshot against this sketch.
    fn check_snapshot_shape(&self, s: &ConcurrentSnapshot<K>) -> Result<(), ReplicateError> {
        check_shape(
            self.config(),
            self.geometry(),
            &s.config,
            &s.widths,
            &s.lambdas,
        )
    }
}

impl<K: Key> Replicate for ConcurrentReliable<K> {
    fn snapshot_bytes(&self) -> Result<Vec<u8>, ReplicateError> {
        Ok(codec::to_bytes(
            PayloadKind::ConcurrentSnapshot,
            &self.snapshot(),
        ))
    }

    fn slim_bytes(&self) -> Result<Vec<u8>, ReplicateError> {
        Ok(super::SlimSummary::from_concurrent(self).to_bytes())
    }

    fn delta_bytes(&mut self) -> Result<Vec<u8>, ReplicateError> {
        Ok(match self.delta() {
            GenPayload::Full(s) => codec::to_bytes(PayloadKind::ConcurrentSnapshot, &s),
            GenPayload::Delta(d) => codec::to_bytes(PayloadKind::ConcurrentDelta, &d),
        })
    }

    fn apply_bytes(&mut self, payload: &[u8]) -> Result<(), ReplicateError> {
        match codec::payload_kind(payload)? {
            PayloadKind::ConcurrentSnapshot => self.apply(GenPayload::Full(codec::from_bytes(
                PayloadKind::ConcurrentSnapshot,
                payload,
            )?)),
            PayloadKind::ConcurrentDelta => {
                self.apply_delta(codec::from_bytes(PayloadKind::ConcurrentDelta, payload)?)
            }
            other => Err(ReplicateError::Incompatible(format!(
                "cannot apply a {other} payload to a concurrent sketch"
            ))),
        }
    }
}

impl<K: Key> EpochedConcurrent<K> {
    /// Capture a plain-data mirror of the whole window (both visible
    /// generations and the epoch index).
    pub fn snapshot(&self) -> EpochedSnapshot<K> {
        EpochedSnapshot {
            epoch: self.epoch(),
            active: self.active().snapshot(),
            frozen: self.frozen().map(ConcurrentReliable::snapshot),
        }
    }

    /// Rebuild a window from an [`EpochedSnapshot`].
    ///
    /// # Errors
    /// Propagates the generation-level [`ReplicateError`]s, plus
    /// [`ReplicateError::Incompatible`] when the two generations were
    /// built from different configurations (a window shares one).
    pub fn restore(snapshot: EpochedSnapshot<K>) -> Result<Self, ReplicateError> {
        Self::restore_window(snapshot, None)
    }

    /// [`Self::restore`] into a window whose future generations track
    /// `top_k` slots: a replica keeps its own capacity.
    fn restore_window(s: EpochedSnapshot<K>, top_k: Option<usize>) -> Result<Self, ReplicateError> {
        let active = ConcurrentReliable::restore(s.active)?;
        let frozen = s.frozen.map(ConcurrentReliable::restore).transpose()?;
        let config = active.config().clone();
        if frozen.as_ref().is_some_and(|f| f.config() != &config) {
            return Err(ReplicateError::Incompatible(
                "window generations disagree on configuration".into(),
            ));
        }
        let window = Self::from_parts(config, active, frozen, s.epoch, top_k);
        Ok(window)
    }

    /// Full window snapshot that also records the replication cut on
    /// every visible generation and the window itself.
    fn full_window_cut(&mut self) -> EpochedSnapshot<K> {
        let epoch = self.epoch();
        let active = self.active_mut().full_cut();
        let frozen = self.frozen_mut().map(ConcurrentReliable::full_cut);
        self.set_cut_epoch();
        EpochedSnapshot {
            epoch,
            active,
            frozen,
        }
    }

    /// Cut a window delta spanning at most one rotation; `None` means a
    /// delta cannot describe the gap and the caller should ship
    /// [`Self::full_window_cut`] instead.
    fn window_delta(&mut self) -> Option<EpochedDelta<K>> {
        let base = self.cut_epoch()?;
        let epoch = self.epoch();
        match epoch.checked_sub(base)? {
            0 => {
                let active = self.active_mut().delta();
                self.set_cut_epoch();
                Some(EpochedDelta {
                    base_epoch: base,
                    epoch,
                    frozen: None,
                    active,
                })
            }
            1 => {
                // The generation that was active at the cut moved to the
                // frozen slot, its cut state traveling with it.
                let frozen = self.frozen_mut().map(ConcurrentReliable::delta);
                let active = self.active_mut().delta();
                self.set_cut_epoch();
                Some(EpochedDelta {
                    base_epoch: base,
                    epoch,
                    frozen,
                    active,
                })
            }
            _ => None,
        }
    }

    /// Advance this replica window by one [`EpochedDelta`].
    ///
    /// All-or-nothing: for a rotation delta the incoming active
    /// generation is restored *before* any live state mutates, so an
    /// error leaves the window exactly as it was.
    fn apply_window_delta(&mut self, delta: EpochedDelta<K>) -> Result<(), ReplicateError> {
        if delta.base_epoch != self.epoch() {
            return Err(ReplicateError::Incompatible(format!(
                "delta expects the replica at epoch {}, found {}",
                delta.base_epoch,
                self.epoch()
            )));
        }
        match delta.epoch.checked_sub(delta.base_epoch) {
            Some(0) => {
                if delta.frozen.is_some() {
                    return Err(ReplicateError::Corrupt(
                        "rotation-free window delta carries a frozen part".into(),
                    ));
                }
                self.active_mut().apply(delta.active)?;
                // Replica windows track counters, not promotion history:
                // no generation's top-K summary survives an apply.
                self.invalidate_top_k();
                Ok(())
            }
            Some(1) => {
                let GenPayload::Full(s) = delta.active else {
                    return Err(ReplicateError::Corrupt(
                        "rotation delta must carry a full active generation".into(),
                    ));
                };
                self.active().check_snapshot_shape(&s)?;
                let next = ConcurrentReliable::restore(s)?;
                if let Some(frozen_part) = delta.frozen {
                    // final changes to the generation that is rotating out
                    // of the active slot
                    self.active_mut().apply(frozen_part)?;
                }
                self.rotate_to(next);
                self.invalidate_top_k();
                Ok(())
            }
            _ => Err(ReplicateError::Corrupt(
                "window delta spans more than one rotation".into(),
            )),
        }
    }
}

impl<K: Key> Replicate for EpochedConcurrent<K> {
    fn snapshot_bytes(&self) -> Result<Vec<u8>, ReplicateError> {
        Ok(codec::to_bytes(
            PayloadKind::EpochedSnapshot,
            &self.snapshot(),
        ))
    }

    fn slim_bytes(&self) -> Result<Vec<u8>, ReplicateError> {
        Ok(super::SlimSummary::from_epoched(self).to_bytes())
    }

    fn delta_bytes(&mut self) -> Result<Vec<u8>, ReplicateError> {
        Ok(match self.window_delta() {
            Some(d) => codec::to_bytes(PayloadKind::EpochedDelta, &d),
            None => codec::to_bytes(PayloadKind::EpochedSnapshot, &self.full_window_cut()),
        })
    }

    fn apply_bytes(&mut self, payload: &[u8]) -> Result<(), ReplicateError> {
        match codec::payload_kind(payload)? {
            PayloadKind::EpochedSnapshot => {
                let s: EpochedSnapshot<K> =
                    codec::from_bytes(PayloadKind::EpochedSnapshot, payload)?;
                for generation in std::iter::once(&s.active).chain(&s.frozen) {
                    self.active().check_snapshot_shape(generation)?;
                }
                *self = Self::restore_window(s, self.top_k_capacity())?;
                Ok(())
            }
            PayloadKind::EpochedDelta => {
                self.apply_window_delta(codec::from_bytes(PayloadKind::EpochedDelta, payload)?)
            }
            other => Err(ReplicateError::Incompatible(format!(
                "cannot apply a {other} payload to an epoched window"
            ))),
        }
    }
}

impl<K: Key> ShardedReliable<K> {
    /// Capture a plain-data mirror of every shard plus the routing seed.
    pub fn snapshot(&self) -> ShardedSnapshot<K> {
        ShardedSnapshot {
            router_seed: self.router_seed(),
            shards: (0..self.shards())
                .map(|i| self.shard(i).snapshot())
                .collect(),
        }
    }

    /// Rebuild a sharded sketch from a [`ShardedSnapshot`]. The replica
    /// starts unplaced (topology hints do not travel).
    ///
    /// # Errors
    /// Propagates shard-level [`ReplicateError`]s; an empty shard list is
    /// [`ReplicateError::Corrupt`].
    pub fn restore(snapshot: ShardedSnapshot<K>) -> Result<Self, ReplicateError> {
        if snapshot.shards.is_empty() {
            return Err(ReplicateError::Corrupt(
                "sharded snapshot carries no shards".into(),
            ));
        }
        let shards = snapshot
            .shards
            .into_iter()
            .map(ConcurrentReliable::restore)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedReliable::from_restored_shards(
            shards,
            snapshot.router_seed,
        ))
    }

    /// Cut one payload per shard (each independently a delta or a full
    /// snapshot — see [`ConcurrentReliable::delta`]).
    pub fn delta(&mut self) -> ShardedDelta<K> {
        let router_seed = self.router_seed();
        let shards = (0..self.shards())
            .map(|i| self.shard_mut(i).delta())
            .collect();
        ShardedDelta {
            router_seed,
            shards,
        }
    }

    /// Apply a [`ShardedDelta`] shard by shard.
    ///
    /// Atomic *per shard* but not across shards: if shard `i` fails, the
    /// shards before it have already advanced. A replica in that state
    /// answers stale (still certified) values for the failed shards'
    /// keys and should be healed with a full snapshot.
    ///
    /// # Errors
    /// [`ReplicateError::Incompatible`] on routing-seed or shard-count
    /// mismatch, plus shard-level errors.
    pub fn apply_delta(&mut self, delta: ShardedDelta<K>) -> Result<(), ReplicateError> {
        self.check_routing(delta.router_seed, delta.shards.len())?;
        for (i, payload) in delta.shards.into_iter().enumerate() {
            self.shard_mut(i).apply(payload)?;
        }
        Ok(())
    }

    /// Refuse a payload routed with another seed or shard count.
    fn check_routing(&self, router_seed: u32, shards: usize) -> Result<(), ReplicateError> {
        if router_seed != self.router_seed() {
            return Err(ReplicateError::Incompatible(
                "sharded payload routing seed does not match the replica".into(),
            ));
        }
        if shards != self.shards() {
            return Err(ReplicateError::Incompatible(format!(
                "sharded payload carries {shards} shards, replica has {}",
                self.shards()
            )));
        }
        Ok(())
    }
}

impl<K: Key> Replicate for ShardedReliable<K> {
    fn snapshot_bytes(&self) -> Result<Vec<u8>, ReplicateError> {
        Ok(codec::to_bytes(
            PayloadKind::ShardedSnapshot,
            &self.snapshot(),
        ))
    }

    fn slim_bytes(&self) -> Result<Vec<u8>, ReplicateError> {
        Ok(super::SlimShards::from_sharded(self).to_bytes())
    }

    fn delta_bytes(&mut self) -> Result<Vec<u8>, ReplicateError> {
        Ok(codec::to_bytes(PayloadKind::ShardedDelta, &self.delta()))
    }

    fn apply_bytes(&mut self, payload: &[u8]) -> Result<(), ReplicateError> {
        match codec::payload_kind(payload)? {
            PayloadKind::ShardedSnapshot => {
                let s: ShardedSnapshot<K> =
                    codec::from_bytes(PayloadKind::ShardedSnapshot, payload)?;
                self.check_routing(s.router_seed, s.shards.len())?;
                for (i, shard) in s.shards.iter().enumerate() {
                    self.shard(i).check_snapshot_shape(shard)?;
                }
                *self = Self::restore(s)?;
                Ok(())
            }
            PayloadKind::ShardedDelta => {
                self.apply_delta(codec::from_bytes(PayloadKind::ShardedDelta, payload)?)
            }
            other => Err(ReplicateError::Incompatible(format!(
                "cannot apply a {other} payload to a sharded sketch"
            ))),
        }
    }
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects)] // small fixed test data
mod tests {
    use super::*;
    use crate::config::EmergencyPolicy;
    use proptest::prelude::*;
    use rsk_api::{ErrorSensing, Merge};

    fn config(seed: u64) -> ReliableConfig {
        ReliableConfig {
            memory_bytes: 32 * 1024,
            emergency: EmergencyPolicy::ExactTable,
            seed,
            ..Default::default()
        }
    }

    fn loaded(seed: u64) -> ConcurrentReliable<u64> {
        let sk = ConcurrentReliable::<u64>::new(config(seed));
        for i in 0..20_000u64 {
            sk.insert_concurrent(&(i % 400), 1 + i % 5);
        }
        sk
    }

    fn answers_match(a: &ConcurrentReliable<u64>, b: &ConcurrentReliable<u64>, keys: u64) {
        for k in 0..keys {
            assert_eq!(a.query_with_error(&k), b.query_with_error(&k), "key {k}");
        }
    }

    #[test]
    fn concurrent_snapshot_roundtrips() {
        let sk = loaded(1);
        let restored = ConcurrentReliable::restore(sk.snapshot()).unwrap();
        answers_match(&sk, &restored, 500);
        assert_eq!(restored.insertion_failures(), sk.insertion_failures());
    }

    #[test]
    fn merged_overlay_roundtrips() {
        let mut a = loaded(2);
        let b = loaded(2);
        a.merge(&b).unwrap();
        assert!(a.is_merged());
        let restored = ConcurrentReliable::restore(a.snapshot()).unwrap();
        assert!(restored.is_merged());
        answers_match(&a, &restored, 500);
    }

    /// Overlay rows and live rows travel strictly ascending, as slim
    /// digest rows do; any other order, a duplicate index included, is
    /// refused, and so is a live row without a fingerprint. A refused
    /// snapshot or delta leaves the replica untouched.
    #[test]
    fn out_of_order_overlay_rows_are_refused() {
        // layer-0 rows swapped, duplicated and, for live rows, stripped
        // of their first fingerprint
        let crafted = |rows: &Vec<(u32, Option<u64>, u64, u64)>, live: bool| {
            let (mut swapped, mut duplicated, mut bare) =
                (rows.clone(), rows.clone(), rows.clone());
            swapped.swap(0, 1);
            duplicated.insert(1, rows[0]);
            bare[0].1 = None;
            [Some(swapped), Some(duplicated), live.then_some(bare)]
                .into_iter()
                .flatten()
        };
        let mut merged = loaded(21);
        merged.merge(&loaded(21)).unwrap();
        let snapshot = merged.snapshot();
        for rows in crafted(&snapshot.overlay.as_ref().unwrap().layers[0], false) {
            let mut s = snapshot.clone();
            s.overlay.as_mut().unwrap().layers[0] = rows;
            assert!(matches!(
                ConcurrentReliable::restore(s),
                Err(ReplicateError::Corrupt(_))
            ));
        }
        assert!(ConcurrentReliable::restore(snapshot).unwrap().is_merged());

        let mut primary = loaded(22);
        let mut replica = ConcurrentReliable::<u64>::new(config(22));
        replica
            .apply_bytes(&primary.delta_bytes().unwrap())
            .unwrap();
        for i in 0..2_000u64 {
            primary.insert_concurrent(&(i % 400), 1);
        }
        let GenPayload::Delta(delta) = primary.delta() else {
            panic!("a cut exists, so the second ship is a delta");
        };
        let (snapshot, before) = (primary.snapshot(), replica.snapshot_bytes().unwrap());
        for rows in crafted(&snapshot.words[0], true) {
            let mut s = snapshot.clone();
            s.words[0] = rows;
            let refused =
                replica.apply_bytes(&codec::to_bytes(PayloadKind::ConcurrentSnapshot, &s));
            assert!(matches!(refused, Err(ReplicateError::Corrupt(_))));
        }
        for rows in crafted(&delta.words[0], true) {
            let mut d = delta.clone();
            d.words[0] = rows;
            let refused = replica.apply_bytes(&codec::to_bytes(PayloadKind::ConcurrentDelta, &d));
            assert!(matches!(refused, Err(ReplicateError::Corrupt(_))));
        }
        assert!(
            replica.snapshot_bytes().unwrap() == before,
            "a refusal mutated"
        );
        replica.apply_delta(delta).unwrap();
        answers_match(&primary, &replica, 500);
    }

    #[test]
    fn delta_shipping_mirrors_primary() {
        let mut primary = loaded(3);
        let mut replica = ConcurrentReliable::<u64>::new(config(3));

        // first ship: no cut yet, must be a full snapshot
        let first = primary.delta_bytes().unwrap();
        assert_eq!(
            codec::payload_kind(&first).unwrap(),
            PayloadKind::ConcurrentSnapshot
        );
        replica.apply_bytes(&first).unwrap();
        answers_match(&primary, &replica, 500);

        // touch a handful of keys; the next ship is a (much smaller) delta
        for i in 0..200u64 {
            primary.insert_concurrent(&(i % 5), 3);
        }
        let second = primary.delta_bytes().unwrap();
        assert_eq!(
            codec::payload_kind(&second).unwrap(),
            PayloadKind::ConcurrentDelta
        );
        assert!(
            second.len() * 4 < first.len(),
            "delta {} bytes vs full {} bytes",
            second.len(),
            first.len()
        );
        replica.apply_bytes(&second).unwrap();
        answers_match(&primary, &replica, 500);

        // a delta with nothing new is near-empty and still sound
        let third = primary.delta_bytes().unwrap();
        replica.apply_bytes(&third).unwrap();
        answers_match(&primary, &replica, 500);
    }

    #[test]
    fn deltas_are_idempotent() {
        let mut primary = loaded(4);
        let mut replica = ConcurrentReliable::<u64>::new(config(4));
        replica
            .apply_bytes(&primary.delta_bytes().unwrap())
            .unwrap();
        for i in 0..50u64 {
            primary.insert_concurrent(&i, 2);
        }
        let delta = primary.delta_bytes().unwrap();
        replica.apply_bytes(&delta).unwrap();
        replica.apply_bytes(&delta).unwrap(); // replay changes nothing
        answers_match(&primary, &replica, 500);
    }

    #[test]
    fn merge_forces_full_fallback() {
        let mut primary = loaded(5);
        let mut replica = ConcurrentReliable::<u64>::new(config(5));
        replica
            .apply_bytes(&primary.delta_bytes().unwrap())
            .unwrap();

        let other = loaded(5);
        primary.merge(&other).unwrap();
        let ship = primary.delta_bytes().unwrap();
        assert_eq!(
            codec::payload_kind(&ship).unwrap(),
            PayloadKind::ConcurrentSnapshot,
            "a merge invalidates the dirty-bit story"
        );
        replica.apply_bytes(&ship).unwrap();
        assert!(replica.is_merged());
        answers_match(&primary, &replica, 500);

        // and once re-cut, deltas resume
        primary.insert_concurrent(&7, 9);
        let next = primary.delta_bytes().unwrap();
        assert_eq!(
            codec::payload_kind(&next).unwrap(),
            PayloadKind::ConcurrentDelta
        );
        replica.apply_bytes(&next).unwrap();
        answers_match(&primary, &replica, 500);
    }

    #[test]
    fn incompatible_and_corrupt_deltas_leave_replica_untouched() {
        let mut primary = loaded(6);
        let mut replica = ConcurrentReliable::<u64>::new(config(6));
        replica
            .apply_bytes(&primary.delta_bytes().unwrap())
            .unwrap();
        let before: Vec<_> = (0..500u64).map(|k| replica.query_with_error(&k)).collect();

        // config mismatch
        let mut foreign = ConcurrentReliable::<u64>::new(config(999));
        foreign.insert_concurrent(&1, 1);
        foreign.delta_bytes().unwrap(); // cut
        foreign.insert_concurrent(&1, 1);
        let bad = foreign.delta_bytes().unwrap();
        assert!(matches!(
            replica.apply_bytes(&bad),
            Err(ReplicateError::Incompatible(_))
        ));

        // out-of-range bucket index
        let corrupt = ConcurrentDelta::<u64> {
            config: replica.config().clone(),
            words: vec![vec![(u32::MAX, Some(1), 1, 0)]; replica.geometry().depth()],
            filter_diff: replica.filter().map(|_| Vec::new()),
            emergency: EmergencyState::Exact {
                entries: vec![],
                failures: 0,
            },
        };
        assert!(matches!(
            replica.apply_delta(corrupt),
            Err(ReplicateError::Corrupt(_))
        ));

        // truncated frame
        let good = primary.snapshot_bytes().unwrap();
        assert!(replica.apply_bytes(&good[..good.len() / 2]).is_err());

        for (k, exp) in before.iter().enumerate() {
            assert_eq!(replica.query_with_error(&(k as u64)), *exp);
        }
    }

    #[test]
    fn epoched_window_replicates_across_rotations() {
        let mut primary = EpochedConcurrent::<u64>::new(config(7));
        let mut replica = EpochedConcurrent::<u64>::new(config(7));
        for i in 0..10_000u64 {
            primary.insert_shared(&(i % 300), 1);
        }

        // ship 1: full (no cut yet)
        let s1 = primary.delta_bytes().unwrap();
        assert_eq!(
            codec::payload_kind(&s1).unwrap(),
            PayloadKind::EpochedSnapshot
        );
        replica.apply_bytes(&s1).unwrap();

        // ship 2: same epoch, pure delta
        for i in 0..100u64 {
            primary.insert_shared(&(i % 7), 2);
        }
        let s2 = primary.delta_bytes().unwrap();
        assert_eq!(codec::payload_kind(&s2).unwrap(), PayloadKind::EpochedDelta);
        replica.apply_bytes(&s2).unwrap();

        // ship 3: one rotation in between
        primary.insert_shared(&11, 5);
        primary.rotate();
        for i in 0..500u64 {
            primary.insert_shared(&(i % 40), 1);
        }
        let s3 = primary.delta_bytes().unwrap();
        assert_eq!(codec::payload_kind(&s3).unwrap(), PayloadKind::EpochedDelta);
        replica.apply_bytes(&s3).unwrap();
        assert_eq!(replica.epoch(), primary.epoch());

        for k in 0..300u64 {
            assert_eq!(
                replica.query_with_error(&k),
                primary.query_with_error(&k),
                "key {k}"
            );
        }

        // ship 4: two rotations — delta cannot describe it, full fallback
        primary.rotate();
        primary.rotate();
        let s4 = primary.delta_bytes().unwrap();
        assert_eq!(
            codec::payload_kind(&s4).unwrap(),
            PayloadKind::EpochedSnapshot
        );
        replica.apply_bytes(&s4).unwrap();
        for k in 0..300u64 {
            assert_eq!(replica.query_with_error(&k), primary.query_with_error(&k));
        }
    }

    /// A full window apply keeps the replica's top-K capacity, so the
    /// generations it rotates in afterwards track their elephants and
    /// certify entries again.
    #[test]
    fn window_applies_keep_the_top_k_capacity() {
        let cfg = ReliableConfig {
            memory_bytes: 64 * 1024,
            ..config(23)
        };
        let mut primary = EpochedConcurrent::<u64>::new(cfg.clone());
        for i in 0..10_000u64 {
            primary.insert_shared(&(i % 300), 1);
        }
        let mut replica = EpochedConcurrent::<u64>::new(cfg).with_top_k(16);
        // the first cut ships the full window, as a snapshot does
        for payload in [primary.delta_bytes(), primary.snapshot_bytes()] {
            replica.apply_bytes(&payload.unwrap()).unwrap();
            assert_eq!(replica.top_k_capacity(), Some(16));
        }
        for _ in 0..2 {
            replica.rotate();
            for i in 0..5_000u64 {
                replica.insert_shared(&(i % 50), 1 + i % 3);
            }
        }
        let top = replica.certified_top_k(4);
        assert_eq!(top.entries.len(), 4);
        assert!(top.miss_bound < u64::MAX, "{top:?}");
    }

    #[test]
    fn epoched_delta_on_wrong_base_is_rejected() {
        let mut primary = EpochedConcurrent::<u64>::new(config(8));
        let mut replica = EpochedConcurrent::<u64>::new(config(8));
        primary.insert_shared(&1, 1);
        replica
            .apply_bytes(&primary.delta_bytes().unwrap())
            .unwrap();
        primary.insert_shared(&2, 1);
        let delta = primary.delta_bytes().unwrap();
        replica.rotate(); // replica drifts ahead
        assert!(matches!(
            replica.apply_bytes(&delta),
            Err(ReplicateError::Incompatible(_))
        ));
    }

    #[test]
    fn foreign_schedules_are_refused_before_allocation() {
        let cfg = ReliableConfig {
            memory_bytes: 64 * 1024,
            ..config(20)
        };
        let mut window = EpochedConcurrent::<u64>::new(cfg.clone());
        for i in 0..2_000u64 {
            window.insert_shared(&(i % 50), 1);
        }
        let before: Vec<_> = (0..50u64).map(|k| window.query_with_error(&k)).collect();

        // The window's own configuration, but a one-layer schedule of
        // 2^33 buckets: restoring it would allocate 64 GiB.
        let mut huge = window.active().snapshot();
        huge.widths = vec![1 << 33];
        huge.lambdas = vec![1];
        huge.words = vec![Vec::new()];
        let crafted = codec::to_bytes(
            PayloadKind::EpochedSnapshot,
            &EpochedSnapshot {
                epoch: 0,
                active: huge.clone(),
                frozen: None,
            },
        );
        assert!(matches!(
            window.apply_bytes(&crafted),
            Err(ReplicateError::Incompatible(_))
        ));

        // The same schedule through a rotation delta, a generation
        // payload and a sharded snapshot.
        let rotation = codec::to_bytes(
            PayloadKind::EpochedDelta,
            &EpochedDelta {
                base_epoch: 0,
                epoch: 1,
                frozen: None,
                active: GenPayload::Full(huge.clone()),
            },
        );
        assert!(matches!(
            window.apply_bytes(&rotation),
            Err(ReplicateError::Incompatible(_))
        ));
        let mut generation = ConcurrentReliable::<u64>::new(cfg.clone());
        assert!(matches!(
            generation.apply(GenPayload::Full(huge.clone())),
            Err(ReplicateError::Incompatible(_))
        ));
        let mut sharded = ShardedReliable::<u64>::new(cfg, 1);
        let crafted = codec::to_bytes(
            PayloadKind::ShardedSnapshot,
            &ShardedSnapshot {
                router_seed: sharded.router_seed(),
                shards: vec![huge],
            },
        );
        assert!(matches!(
            sharded.apply_bytes(&crafted),
            Err(ReplicateError::Incompatible(_))
        ));

        for (k, exp) in before.iter().enumerate() {
            assert_eq!(window.query_with_error(&(k as u64)), *exp);
        }
    }

    #[test]
    fn sharded_snapshot_and_delta_roundtrip() {
        let mut primary = ShardedReliable::<u64>::new(config(9), 4);
        for i in 0..20_000u64 {
            primary.insert_shared(&(i % 500), 1 + i % 3);
        }
        let restored = ShardedReliable::restore(primary.snapshot()).unwrap();
        for k in 0..500u64 {
            assert_eq!(restored.query_shared(&k), primary.query_shared(&k));
        }

        let mut replica = ShardedReliable::<u64>::new(config(9), 4);
        replica
            .apply_bytes(&primary.delta_bytes().unwrap())
            .unwrap();
        for i in 0..100u64 {
            primary.insert_shared(&(i % 11), 2);
        }
        let ship = primary.delta_bytes().unwrap();
        assert_eq!(
            codec::payload_kind(&ship).unwrap(),
            PayloadKind::ShardedDelta
        );
        replica.apply_bytes(&ship).unwrap();
        for k in 0..500u64 {
            assert_eq!(replica.query_shared(&k), primary.query_shared(&k));
        }

        // shard-count mismatch is refused
        let mut narrow = ShardedReliable::<u64>::new(config(9), 2);
        primary.insert_shared(&1, 1);
        let next = primary.delta_bytes().unwrap();
        assert!(matches!(
            narrow.apply_bytes(&next),
            Err(ReplicateError::Incompatible(_))
        ));
    }

    #[test]
    fn emergency_state_travels_in_deltas() {
        // tiny raw sketch so failures hit the exact table
        let tight = ReliableConfig {
            memory_bytes: 4 * crate::config::BUCKET_BYTES,
            lambda: 2,
            depth: crate::config::Depth::Fixed(2),
            mice_filter: None,
            emergency: EmergencyPolicy::ExactTable,
            seed: 10,
            ..Default::default()
        };
        let mut primary = ConcurrentReliable::<u64>::new(tight.clone());
        let mut replica = ConcurrentReliable::<u64>::new(tight);
        replica
            .apply_bytes(&primary.delta_bytes().unwrap())
            .unwrap();
        for i in 0..2_000u64 {
            primary.insert_concurrent(&(i % 7), 1);
        }
        assert!(primary.insertion_failures() > 0, "must exercise the store");
        replica
            .apply_bytes(&primary.delta_bytes().unwrap())
            .unwrap();
        assert_eq!(replica.insertion_failures(), primary.insertion_failures());
        answers_match(&primary, &replica, 10);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Ship a delta after every round of random inserts; the replica
        /// answers exactly like the primary at every cut.
        #[test]
        fn prop_delta_replay_mirrors_primary(
            rounds in proptest::collection::vec(
                proptest::collection::vec((0u64..200, 1u64..6), 1..120),
                1..6,
            ),
            seed in 0u64..1000,
        ) {
            let mut primary = ConcurrentReliable::<u64>::new(config(seed));
            let mut replica = ConcurrentReliable::<u64>::new(config(seed));
            for round in rounds {
                for (k, v) in round {
                    primary.insert_concurrent(&k, v);
                }
                replica.apply_bytes(&primary.delta_bytes().unwrap()).unwrap();
                for k in 0..200u64 {
                    prop_assert_eq!(
                        replica.query_with_error(&k),
                        primary.query_with_error(&k)
                    );
                }
            }
        }
    }
}
