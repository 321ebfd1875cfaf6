//! Checkpoint / restore for the sequential [`ReliableSketch`].
//!
//! A snapshot is a plain-data mirror of the sketch — configuration,
//! layer schedule, bucket fields, mice-filter counters, emergency
//! remainders and merge hints — independent of the in-memory
//! representation, so it is stable across versions of this crate that
//! keep the same logical structure. Snapshots persist and ship as the
//! replication layer's framed binary via [`SketchSnapshot::to_bytes`].
//!
//! Operation statistics ([`crate::SketchStats`]) are *not* persisted;
//! a restored sketch starts with fresh counters, mirroring how a
//! restarted process would.
//!
//! ```
//! use rsk_core::ReliableSketch;
//! use rsk_api::{ErrorSensing, StreamSummary};
//!
//! let mut sk = ReliableSketch::<u64>::builder()
//!     .memory_bytes(16 * 1024)
//!     .error_tolerance(25)
//!     .build_sequential::<u64>();
//! for i in 0..10_000u64 {
//!     sk.insert(&(i % 100), 1);
//! }
//!
//! let bytes = sk.snapshot().to_bytes();
//! let restored = ReliableSketch::<u64>::restore(
//!     rsk_core::replicate::SketchSnapshot::from_bytes(&bytes).unwrap(),
//! ).unwrap();
//! assert_eq!(restored.query_with_error(&7u64), sk.query_with_error(&7u64));
//! ```

use super::codec::{self, bad_tag, put_seq, wire_struct, PayloadKind, Reader, Wire};
use crate::bucket::{EsBucket, Layers};
use crate::config::ReliableConfig;
use crate::geometry::LayerGeometry;
use crate::sketch::ReliableSketch;
use rsk_api::{Key, Replicate, ReplicateError};

/// A persisted bucket: a presence byte, the candidate key's bytes when
/// present, then `YES` and `NO`.
impl<K: Key> Wire for EsBucket<K> {
    fn put(&self, out: &mut Vec<u8>) {
        self.id().is_some().put(out);
        if let Some(k) = self.id() {
            k.put_le(out);
        }
        self.yes().put(out);
        self.no().put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ReplicateError> {
        let id = bool::get(r)?.then(|| r.key()).transpose()?;
        Ok(EsBucket::from_parts(id, Wire::get(r)?, Wire::get(r)?))
    }
}

/// Persisted emergency-store contents (policy-shaped).
#[derive(Debug, Clone)]
pub enum EmergencyState<K> {
    /// Counters of the `Disabled` policy.
    Disabled {
        /// Failed insert operations.
        failures: u64,
        /// Total value dropped.
        dropped_value: u64,
    },
    /// Contents of the `ExactTable` policy.
    Exact {
        /// `(key, remainder)` pairs, strictly ascending by the key's byte
        /// form.
        entries: Vec<(K, u64)>,
        /// Failed insert operations.
        failures: u64,
    },
    /// Contents of the `SpaceSaving` policy.
    SpaceSaving {
        /// `(key, count, overestimate)` slots.
        slots: Vec<(K, u64, u64)>,
        /// Failed insert operations.
        failures: u64,
    },
}

impl<K: Key> Wire for EmergencyState<K> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            EmergencyState::Disabled {
                failures,
                dropped_value,
            } => {
                out.push(0);
                failures.put(out);
                dropped_value.put(out);
            }
            EmergencyState::Exact { entries, failures } => {
                out.push(1);
                put_seq(entries, out, |(k, v), out| {
                    k.put_le(out);
                    v.put(out);
                });
                failures.put(out);
            }
            EmergencyState::SpaceSaving { slots, failures } => {
                out.push(2);
                put_seq(slots, out, |(k, count, over), out| {
                    k.put_le(out);
                    count.put(out);
                    over.put(out);
                });
                failures.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ReplicateError> {
        Ok(match r.byte()? {
            0 => EmergencyState::Disabled {
                failures: Wire::get(r)?,
                dropped_value: Wire::get(r)?,
            },
            1 => EmergencyState::Exact {
                entries: r.seq(|r| Ok((r.key()?, Wire::get(r)?)))?,
                failures: Wire::get(r)?,
            },
            2 => EmergencyState::SpaceSaving {
                slots: r.seq(|r| Ok((r.key()?, Wire::get(r)?, Wire::get(r)?)))?,
                failures: Wire::get(r)?,
            },
            other => return Err(bad_tag("emergency state", other)),
        })
    }
}

/// A complete, self-describing checkpoint of a [`ReliableSketch`].
#[derive(Debug, Clone)]
pub struct SketchSnapshot<K: Key> {
    /// The configuration the sketch was built from.
    pub config: ReliableConfig,
    /// Materialized layer widths (persisted explicitly so snapshots of
    /// custom-geometry sketches restore faithfully).
    pub widths: Vec<usize>,
    /// Materialized lock thresholds.
    pub lambdas: Vec<u64>,
    /// Bucket fields, layer by layer.
    pub layers: Vec<Vec<EsBucket<K>>>,
    /// Mice-filter counter rows, if the filter exists.
    pub filter_rows: Option<Vec<Vec<u64>>>,
    /// Emergency-store contents.
    pub emergency: EmergencyState<K>,
    /// Merge-hinted bucket indices, one strictly ascending list per
    /// layer once the sketch was merged, none before.
    pub divert_hints: Vec<Vec<u32>>,
}

wire_struct!(SketchSnapshot<K> {
    config,
    widths,
    lambdas,
    layers,
    filter_rows,
    emergency,
    divert_hints,
});

impl<K: Key> SketchSnapshot<K> {
    /// Encode with the replication layer's framed binary codec
    /// ([`PayloadKind::SequentialSnapshot`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        codec::to_bytes(PayloadKind::SequentialSnapshot, self)
    }

    /// Decode a framed binary payload produced by [`Self::to_bytes`].
    ///
    /// # Errors
    /// Total over arbitrary input — see [`ReplicateError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ReplicateError> {
        codec::from_bytes(PayloadKind::SequentialSnapshot, bytes)
    }
}

impl<K: Key> ReliableSketch<K> {
    /// Capture a plain-data checkpoint of the sketch's full logical state.
    pub fn snapshot(&self) -> SketchSnapshot<K> {
        SketchSnapshot {
            config: self.config().clone(),
            widths: self.geometry().widths().to_vec(),
            lambdas: self.geometry().lambdas().to_vec(),
            layers: self.layers.buckets.clone(),
            filter_rows: self.filter.as_ref().map(|f| f.rows_snapshot()),
            emergency: self.emergency.capture(),
            divert_hints: self.layers.hint_lists(),
        }
    }

    /// Rebuild a sketch from a checkpoint.
    ///
    /// # Errors
    /// Returns [`ReplicateError::Corrupt`] for snapshots whose
    /// configuration fails validation, whose schedule is malformed, or
    /// whose contents do not match the schedule (wrong layer count or
    /// width, hints out of range or order, filter shape mismatch, exact
    /// emergency rows out of order, SpaceSaving rows that repeat a key or
    /// outnumber the slots), and [`ReplicateError::Incompatible`] for an
    /// emergency policy mismatch.
    pub fn restore(snapshot: SketchSnapshot<K>) -> Result<Self, ReplicateError> {
        snapshot
            .config
            .validate()
            .map_err(ReplicateError::Corrupt)?;
        let geometry = LayerGeometry::custom(snapshot.widths, snapshot.lambdas)
            .map_err(ReplicateError::Corrupt)?;
        if snapshot.layers.len() != geometry.depth() {
            return Err(ReplicateError::Corrupt(format!(
                "snapshot has {} layers, schedule {}",
                snapshot.layers.len(),
                geometry.depth()
            )));
        }
        for (i, layer) in snapshot.layers.iter().enumerate() {
            if layer.len() != geometry.width(i) {
                return Err(ReplicateError::Corrupt(format!(
                    "layer {i} has {} buckets, schedule {}",
                    layer.len(),
                    geometry.width(i)
                )));
            }
        }
        if !snapshot.divert_hints.is_empty() {
            super::check_sparse(geometry.widths(), &snapshot.divert_hints, |&j| j)?;
        }

        let mut sketch = ReliableSketch::with_geometry(snapshot.config, geometry);
        super::restore_filter(sketch.filter.as_mut(), snapshot.filter_rows.as_deref())?;
        sketch.emergency.install(snapshot.emergency)?;
        sketch.layers = Layers {
            buckets: snapshot.layers,
            hints: Vec::new(),
        };
        sketch.layers.set_hint_lists(&snapshot.divert_hints);
        Ok(sketch)
    }
}

impl<K: Key> Replicate for ReliableSketch<K> {
    fn snapshot_bytes(&self) -> Result<Vec<u8>, ReplicateError> {
        Ok(self.snapshot().to_bytes())
    }

    fn slim_bytes(&self) -> Result<Vec<u8>, ReplicateError> {
        Ok(super::SlimSummary::from_sequential(self).to_bytes())
    }

    /// Sequential sketches track no dirty state, so a "delta" is always
    /// a full snapshot — a contract-valid (if maximal) superset of the
    /// changes since the last cut.
    fn delta_bytes(&mut self) -> Result<Vec<u8>, ReplicateError> {
        self.snapshot_bytes()
    }

    fn apply_bytes(&mut self, payload: &[u8]) -> Result<(), ReplicateError> {
        let snapshot = SketchSnapshot::from_bytes(payload)?;
        super::check_shape(
            self.config(),
            self.geometry(),
            &snapshot.config,
            &snapshot.widths,
            &snapshot.lambdas,
        )?;
        *self = ReliableSketch::restore(snapshot)?;
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects)] // small fixed test data
mod tests {
    use super::*;
    use crate::config::EmergencyPolicy;
    use rsk_api::{ErrorSensing, Merge, StreamSummary};

    fn loaded(seed: u64) -> ReliableSketch<u64> {
        let mut sk = ReliableSketch::<u64>::builder()
            .memory_bytes(16 * 1024)
            .error_tolerance(25)
            .emergency(EmergencyPolicy::ExactTable)
            .seed(seed)
            .build_sequential::<u64>();
        for i in 0..20_000u64 {
            sk.insert(&(i % 400), 1 + i % 5);
        }
        sk
    }

    fn answers_match(a: &ReliableSketch<u64>, b: &ReliableSketch<u64>, keys: u64) {
        for k in 0..keys {
            assert_eq!(a.query_with_error(&k), b.query_with_error(&k), "key {k}");
        }
    }

    #[test]
    fn binary_roundtrip_preserves_every_answer() {
        let sk = loaded(8);
        let bytes = sk.snapshot().to_bytes();
        let restored =
            ReliableSketch::restore(SketchSnapshot::from_bytes(&bytes).unwrap()).unwrap();
        answers_match(&sk, &restored, 500);
        assert_eq!(restored.insertion_failures(), sk.insertion_failures());
    }

    #[test]
    fn replicate_trait_ships_sequential_state() {
        let mut primary = loaded(10);
        let mut replica = ReliableSketch::<u64>::builder()
            .memory_bytes(16 * 1024)
            .error_tolerance(25)
            .emergency(EmergencyPolicy::ExactTable)
            .seed(10)
            .build_sequential::<u64>();
        replica
            .apply_bytes(&primary.delta_bytes().unwrap())
            .unwrap();
        answers_match(&primary, &replica, 500);
        // a slim payload is not a snapshot: apply must refuse, untouched
        let slim = primary.slim_bytes().unwrap();
        assert!(matches!(
            replica.apply_bytes(&slim),
            Err(ReplicateError::Incompatible(_))
        ));
        answers_match(&primary, &replica, 500);
    }

    #[test]
    fn restored_sketch_keeps_streaming_soundly() {
        let sk = loaded(2);
        let mut restored = ReliableSketch::restore(sk.snapshot()).unwrap();
        let mut resumed = sk.clone();
        for i in 0..5_000u64 {
            restored.insert(&(i % 400), 2);
            resumed.insert(&(i % 400), 2);
        }
        answers_match(&resumed, &restored, 500);
    }

    #[test]
    fn raw_variant_roundtrips() {
        let mut sk = ReliableSketch::<u64>::builder()
            .memory_bytes(16 * 1024)
            .error_tolerance(25)
            .raw()
            .seed(3)
            .build_sequential::<u64>();
        for i in 0..5_000u64 {
            sk.insert(&(i % 100), 1);
        }
        let restored = ReliableSketch::restore(sk.snapshot()).unwrap();
        answers_match(&sk, &restored, 150);
    }

    #[test]
    fn merged_sketch_roundtrips_with_hints() {
        let mut a = loaded(4);
        let b = loaded(4);
        a.merge(&b).unwrap();
        assert!(a.is_merged());
        let restored = ReliableSketch::restore(a.snapshot()).unwrap();
        assert!(restored.is_merged());
        answers_match(&a, &restored, 500);
    }

    #[test]
    fn spacesaving_emergency_roundtrips() {
        use crate::config::{Depth, ReliableConfig, BUCKET_BYTES};
        let config = ReliableConfig {
            memory_bytes: 4 * BUCKET_BYTES,
            lambda: 2,
            depth: Depth::Fixed(2),
            mice_filter: None,
            emergency: EmergencyPolicy::SpaceSaving(8),
            seed: 5,
            ..Default::default()
        };
        let mut sk = ReliableSketch::<u64>::new(config);
        for i in 0..2_000u64 {
            sk.insert(&(i % 7), 1);
        }
        assert!(sk.insertion_failures() > 0, "must exercise the store");
        let restored = ReliableSketch::restore(sk.snapshot()).unwrap();
        answers_match(&sk, &restored, 10);
        assert_eq!(restored.insertion_failures(), sk.insertion_failures());
    }

    #[test]
    fn every_config_shape_roundtrips_through_bytes() {
        use crate::config::{Depth, MiceFilterConfig, ReliableConfig, BUCKET_BYTES};
        let configs = [
            ReliableConfig {
                memory_bytes: 64 * BUCKET_BYTES,
                lambda: 9,
                depth: Depth::Fixed(3),
                mice_filter: None,
                emergency: EmergencyPolicy::ExactTable,
                seed: 11,
                ..Default::default()
            },
            ReliableConfig {
                memory_bytes: 48 * BUCKET_BYTES,
                lambda: 4,
                r_w: 3.5,
                r_lambda: 2.25,
                depth: Depth::Fixed(2),
                mice_filter: None,
                emergency: EmergencyPolicy::SpaceSaving(6),
                seed: u64::MAX,
            },
            ReliableConfig {
                memory_bytes: 8 * 1024,
                mice_filter: Some(MiceFilterConfig {
                    memory_fraction: 0.3,
                    counter_bits: 8,
                    arrays: 3,
                }),
                emergency: EmergencyPolicy::SpaceSaving(40),
                ..Default::default()
            },
        ];
        for config in configs {
            let mut sk = ReliableSketch::<u64>::new(config.clone());
            for i in 0..3_000u64 {
                sk.insert(&(i % 61), 1 + i % 3);
            }
            let bytes = sk.snapshot().to_bytes();
            let back = SketchSnapshot::<u64>::from_bytes(&bytes).unwrap();
            assert_eq!(back.config, config);
            assert_eq!(back.to_bytes(), bytes);
            let restored = ReliableSketch::restore(back).unwrap();
            answers_match(&sk, &restored, 61);
            assert_eq!(restored.insertion_failures(), sk.insertion_failures());
        }
    }

    #[test]
    fn apply_refuses_a_snapshot_of_another_shape() {
        let primary = loaded(12);
        let mut replica = ReliableSketch::<u64>::builder()
            .memory_bytes(8 * 1024)
            .error_tolerance(25)
            .emergency(EmergencyPolicy::ExactTable)
            .seed(12)
            .build_sequential::<u64>();
        replica.insert(&3, 4);
        let before = replica.query_with_error(&3);
        assert!(matches!(
            replica.apply_bytes(&primary.snapshot_bytes().unwrap()),
            Err(ReplicateError::Incompatible(_))
        ));
        assert_eq!(replica.query_with_error(&3), before);
    }

    #[test]
    fn five_tuple_keys_roundtrip() {
        let mut sk = ReliableSketch::<[u8; 13]>::builder()
            .memory_bytes(8 * 1024)
            .error_tolerance(25)
            .seed(6)
            .build_sequential::<[u8; 13]>();
        let mut tuple = [0u8; 13];
        for i in 0..2_000u64 {
            tuple[0] = (i % 50) as u8;
            sk.insert(&tuple, 1);
        }
        let bytes = sk.snapshot().to_bytes();
        let restored =
            ReliableSketch::<[u8; 13]>::restore(SketchSnapshot::from_bytes(&bytes).unwrap())
                .unwrap();
        for b in 0..50u8 {
            tuple[0] = b;
            assert_eq!(
                restored.query_with_error(&tuple),
                sk.query_with_error(&tuple)
            );
        }
    }

    #[test]
    fn corrupted_snapshots_are_rejected() {
        let sk = loaded(7);

        let mut s = sk.snapshot();
        s.layers.pop();
        assert!(ReliableSketch::restore(s).is_err(), "missing layer");

        let mut s = sk.snapshot();
        s.layers[0].pop();
        assert!(ReliableSketch::restore(s).is_err(), "short layer");

        let mut s = sk.snapshot();
        s.filter_rows = None;
        assert!(ReliableSketch::restore(s).is_err(), "filter mismatch");

        let mut s = sk.snapshot();
        s.emergency = EmergencyState::Disabled {
            failures: 0,
            dropped_value: 0,
        };
        assert!(
            matches!(
                ReliableSketch::restore(s),
                Err(ReplicateError::Incompatible(_))
            ),
            "policy mismatch"
        );

        let mut s = sk.snapshot();
        s.config.lambda = 0;
        assert!(ReliableSketch::restore(s).is_err(), "invalid config");

        let mut s = sk.snapshot();
        s.divert_hints = vec![vec![0, 1, 2]];
        assert!(ReliableSketch::restore(s).is_err(), "bad hint shape");
    }
}
