//! The emergency store (paper §3.3, "Emergency Solution").
//!
//! When an item's value survives all `d` layers, the insertion has
//! *failed*: without remediation the sketch may under-count that key and
//! the zero-outlier guarantee is void. The paper's remedy is a small side
//! table — "a small hash table or a SpaceSaving structure" — that records
//! the uninserted remainders. Theorem 4 sizes a SpaceSaving of
//! `Δ₂ ln(1/Δ)` slots as the virtual `(d+1)`-th layer.
//!
//! Three policies are provided, mirroring
//! [`crate::config::EmergencyPolicy`]:
//!
//! * **Disabled** — count failures, drop the value (the paper's accuracy
//!   evaluation runs this way to show the raw structure). Point answers
//!   are not charged for the dropped value, so once an insertion has
//!   failed they can undercount by up to [`EmergencyStore::dropped_value`];
//! * **ExactTable** — unbounded hash map, exact remainders (CPU servers);
//! * **SpaceSaving** — a bounded [`TopKSummary`] (promotion threshold 0)
//!   over the remainders, the Space-Saving min-heap the certified top-K
//!   layer runs. A remainder joins at `miss_bound + v` with error
//!   `miss_bound` and evicts the least count (of equal counts, the one
//!   changed last); a tracked key answers its `(count, error)`, and every
//!   other key — one the summary rejected or evicted included — answers
//!   `(miss_bound, miss_bound)`. So the virtual layer certifies every key,
//!   as Theorem 4's argument needs.
//!
//! The store's layout is private to this module. The subset queries and
//! the slim digest read it through two accessors: `tracked`, the per-key
//! rows, and `untracked_ceiling`, the bound on every other key.

#![deny(clippy::arithmetic_side_effects)]

use crate::replicate::EmergencyState;
use crate::topk::TopKSummary;
use rsk_api::{Estimate, Key, MergeError, ReplicateError};
use std::collections::HashMap;

/// Side store for insertion-failure remainders.
#[derive(Debug, Clone)]
pub struct EmergencyStore<K: Key> {
    /// Failed insert operations.
    failures: u64,
    /// Value dropped by failed inserts (nonzero only under `Disabled`).
    dropped_value: u64,
    table: Table<K>,
}

/// Where a policy keeps its remainders.
#[derive(Debug, Clone)]
enum Table<K: Key> {
    /// `Disabled`: nowhere.
    None,
    /// `ExactTable`: every remainder, by key.
    Exact(HashMap<K, u64>),
    /// `SpaceSaving(n)`: a threshold-0 summary of `n` slots.
    SpaceSaving(TopKSummary<K>),
}

impl<K: Key> EmergencyStore<K> {
    /// Build from the configured policy.
    pub fn new(policy: crate::config::EmergencyPolicy) -> Self {
        use crate::config::EmergencyPolicy::*;
        let table = match policy {
            Disabled => Table::None,
            ExactTable => Table::Exact(HashMap::new()),
            SpaceSaving(slots) => Table::SpaceSaving(TopKSummary::new(slots, 0)),
        };
        Self {
            failures: 0,
            dropped_value: 0,
            table,
        }
    }

    /// Record a failed remainder. Every sum saturates: a store restored
    /// from a replication payload may hold counters near `u64::MAX`.
    pub fn record(&mut self, key: &K, value: u64) {
        self.failures = self.failures.saturating_add(1);
        match &mut self.table {
            Table::None => self.dropped_value = self.dropped_value.saturating_add(value),
            Table::Exact(table) => {
                let slot = table.entry(*key).or_insert(0);
                *slot = slot.saturating_add(value);
            }
            Table::SpaceSaving(summary) => {
                // an untracked key's earlier remainders sum to at most the
                // miss bound
                let miss = summary.miss_bound();
                summary.offer(key, value, || Estimate {
                    value: miss.saturating_add(value),
                    max_possible_error: miss,
                });
            }
        }
    }

    /// The stored remainder estimate and its overestimate bound for
    /// `key`: its tracked row, or the untracked ceiling on both fields.
    pub fn query(&self, key: &K) -> (u64, u64) {
        match &self.table {
            Table::None => (0, 0),
            Table::Exact(table) => (table.get(key).copied().unwrap_or(0), 0),
            Table::SpaceSaving(summary) => summary.get(key).unwrap_or_else(|| {
                let miss = summary.miss_bound();
                (miss, miss)
            }),
        }
    }

    /// The remainders tracked by key, as `(key, value, overestimate)` rows
    /// with `truth ∈ [value − overestimate, value]` (SpaceSaving rows by
    /// count, descending).
    pub(crate) fn tracked(&self) -> Vec<(K, u64, u64)> {
        match &self.table {
            Table::None => Vec::new(),
            Table::Exact(table) => table.iter().map(|(k, &v)| (*k, v, 0)).collect(),
            Table::SpaceSaving(summary) => summary
                .entries_desc()
                .into_iter()
                .map(|e| (e.key, e.count, e.error))
                .collect(),
        }
    }

    /// Upper bound on the remainder of any key [`Self::tracked`] omits:
    /// the summary's miss bound under SpaceSaving, 0 otherwise. (Value
    /// `Disabled` drops is not charged here; see [`Self::dropped_value`].)
    pub(crate) fn untracked_ceiling(&self) -> u64 {
        match &self.table {
            Table::SpaceSaving(summary) => summary.miss_bound(),
            _ => 0,
        }
    }

    /// Number of failed insert operations observed.
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Total value dropped (only nonzero under `Disabled`).
    pub fn dropped_value(&self) -> u64 {
        self.dropped_value
    }

    /// Modeled memory footprint in bytes (key + 64-bit counter per entry;
    /// SpaceSaving also carries the overestimate field).
    pub fn memory_bytes(&self) -> usize {
        let key = core::mem::size_of::<K>();
        match &self.table {
            Table::None => 0,
            Table::Exact(table) => table.len().saturating_mul(key.saturating_add(8)),
            Table::SpaceSaving(summary) => {
                summary.capacity().saturating_mul(key.saturating_add(16))
            }
        }
    }

    /// Fold another store into this one. Both must run the same policy.
    /// Sums saturate, as in [`Self::record`].
    ///
    /// * `Disabled` — failure and dropped-value counters add;
    /// * `Exact` — remainder tables add key-wise;
    /// * `SpaceSaving` — [`TopKSummary::merge_from`]: a key on one side
    ///   only is charged the other side's miss bound, which keeps every
    ///   key, tracked or not, certified against the combined remainders.
    ///
    /// # Errors
    /// [`MergeError::Incompatible`] for mixed policies or SpaceSaving
    /// capacities; `self` is then unchanged.
    pub fn merge_from(&mut self, other: &Self) -> Result<(), MergeError> {
        match (&mut self.table, &other.table) {
            (Table::None, Table::None) => {}
            (Table::Exact(table), Table::Exact(theirs)) => {
                for (k, v) in theirs {
                    let slot = table.entry(*k).or_insert(0);
                    *slot = slot.saturating_add(*v);
                }
            }
            (Table::SpaceSaving(summary), Table::SpaceSaving(theirs)) => {
                summary.merge_from(theirs)?;
            }
            _ => return Err(MergeError::Incompatible("emergency policy mismatch".into())),
        }
        self.failures = self.failures.saturating_add(other.failures);
        self.dropped_value = self.dropped_value.saturating_add(other.dropped_value);
        Ok(())
    }

    /// Reset, keeping the policy.
    pub fn clear(&mut self) {
        self.failures = 0;
        self.dropped_value = 0;
        match &mut self.table {
            Table::None => {}
            Table::Exact(table) => table.clear(),
            Table::SpaceSaving(summary) => summary.clear(),
        }
    }

    /// The replication form of this store's contents.
    pub(crate) fn capture(&self) -> EmergencyState<K> {
        let failures = self.failures;
        match &self.table {
            Table::None => EmergencyState::Disabled {
                failures,
                dropped_value: self.dropped_value,
            },
            Table::Exact(table) => {
                let mut entries: Vec<(K, u64)> = table.iter().map(|(k, v)| (*k, *v)).collect();
                entries.sort_by_cached_key(|(k, _)| key_bytes(k));
                EmergencyState::Exact { entries, failures }
            }
            Table::SpaceSaving(_) => EmergencyState::SpaceSaving {
                slots: self.tracked(),
                failures,
            },
        }
    }

    /// Replace the contents with `state`, captured from a store of the
    /// same policy. Exact rows travel strictly ascending by key bytes, the
    /// one order [`Self::capture`] writes. SpaceSaving rows rebuild the
    /// summary in any order: a threshold-0 summary's miss bound is its
    /// minimum count when full and 0 otherwise, so the rows alone restore
    /// the certificate.
    ///
    /// # Errors
    /// [`ReplicateError::Incompatible`] for another policy's state, and
    /// [`ReplicateError::Corrupt`] for exact rows out of that order (a
    /// repeated key included) or SpaceSaving rows that repeat a key or
    /// outnumber the slots; `self` is then unchanged.
    pub(crate) fn install(&mut self, state: EmergencyState<K>) -> Result<(), ReplicateError> {
        let (failures, dropped_value, table) = match (&self.table, state) {
            (
                Table::None,
                EmergencyState::Disabled {
                    failures,
                    dropped_value,
                },
            ) => (failures, dropped_value, Table::None),
            (Table::Exact(_), EmergencyState::Exact { entries, failures }) => {
                if !entries
                    .windows(2)
                    .all(|p| key_bytes(&p[0].0) < key_bytes(&p[1].0))
                {
                    return Err(ReplicateError::Corrupt(
                        "exact emergency rows are not strictly ascending by key".into(),
                    ));
                }
                (failures, 0, Table::Exact(entries.into_iter().collect()))
            }
            (Table::SpaceSaving(summary), EmergencyState::SpaceSaving { slots, failures }) => {
                let summary = TopKSummary::from_rows(summary.capacity(), 0, 0, slots)
                    .map_err(ReplicateError::Corrupt)?;
                (failures, 0, Table::SpaceSaving(summary))
            }
            _ => {
                return Err(ReplicateError::Incompatible(
                    "snapshot emergency policy mismatch".into(),
                ))
            }
        };
        *self = Self {
            failures,
            dropped_value,
            table,
        };
        Ok(())
    }
}

/// A key's byte form: exact-table rows travel sorted by it, so one table
/// always encodes to the same bytes.
fn key_bytes<K: Key>(key: &K) -> Vec<u8> {
    let mut out = Vec::with_capacity(K::BYTES);
    key.put_le(&mut out);
    out
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects)] // small fixed test data
mod tests {
    use super::*;
    use crate::config::EmergencyPolicy;

    #[test]
    fn disabled_counts_and_drops() {
        let mut e = EmergencyStore::<u64>::new(EmergencyPolicy::Disabled);
        e.record(&1, 5);
        e.record(&2, 3);
        assert_eq!(e.failures(), 2);
        assert_eq!(e.dropped_value(), 8);
        assert_eq!(e.query(&1), (0, 0));
        assert_eq!(e.memory_bytes(), 0);
    }

    #[test]
    fn exact_table_is_exact() {
        let mut e = EmergencyStore::<u64>::new(EmergencyPolicy::ExactTable);
        e.record(&1, 5);
        e.record(&1, 2);
        e.record(&2, 3);
        assert_eq!(e.query(&1), (7, 0));
        assert_eq!(e.query(&2), (3, 0));
        assert_eq!(e.query(&3), (0, 0));
        assert_eq!(e.failures(), 3);
        assert!(e.memory_bytes() > 0);
    }

    #[test]
    fn spacesaving_overwrites_minimum() {
        let mut e = EmergencyStore::<u64>::new(EmergencyPolicy::SpaceSaving(2));
        e.record(&1, 10);
        e.record(&2, 5);
        e.record(&3, 1); // evicts key 2 (min count 5): count 6, over 5
        assert_eq!(e.query(&1), (10, 0));
        // evicted key 2 (truth 5) answers the miss bound, the min count 6
        assert_eq!(e.query(&2), (6, 6));
        assert_eq!(e.query(&3), (6, 5));
        // overestimate bound holds: true 1 ∈ [6−5, 6]
        let (est, over) = e.query(&3);
        assert!(est - over <= 1 && 1 <= est);
    }

    #[test]
    fn spacesaving_estimates_never_undershoot() {
        let mut e = EmergencyStore::<u64>::new(EmergencyPolicy::SpaceSaving(4));
        let mut truth = std::collections::HashMap::new();
        // adversarial rotation forcing evictions
        for i in 0..100u64 {
            let k = i % 9;
            e.record(&k, 1 + i % 3);
            *truth.entry(k).or_insert(0u64) += 1 + i % 3;
        }
        for (&k, &f) in &truth {
            let (est, over) = e.query(&k);
            assert!(est >= f, "estimate must include count");
            assert!(est.saturating_sub(over) <= f, "lower bound exceeds truth");
        }
    }

    #[test]
    fn spacesaving_rows_restore_the_certificate_in_any_order() {
        let mut e = EmergencyStore::<u64>::new(EmergencyPolicy::SpaceSaving(3));
        for i in 0..40u64 {
            e.record(&(i % 7), 1 + i % 4);
        }
        let EmergencyState::SpaceSaving {
            mut slots,
            failures,
        } = e.capture()
        else {
            panic!("policy-shaped capture");
        };
        slots.reverse();
        let mut back = EmergencyStore::<u64>::new(EmergencyPolicy::SpaceSaving(3));
        back.install(EmergencyState::SpaceSaving {
            slots: slots.clone(),
            failures,
        })
        .unwrap();
        for k in 0..8u64 {
            assert_eq!(back.query(&k), e.query(&k), "key {k}");
        }
        let sorted = |store: &EmergencyStore<u64>| {
            let mut rows = store.tracked();
            rows.sort_unstable();
            rows
        };
        assert_eq!(sorted(&back), sorted(&e));
        // a repeated key or one row too many is refused, untouched
        for bad in [
            vec![slots[0], slots[0]],
            [slots.clone(), vec![(99, 1, 0)]].concat(),
        ] {
            let refused = back.install(EmergencyState::SpaceSaving {
                slots: bad,
                failures,
            });
            assert!(matches!(refused, Err(ReplicateError::Corrupt(_))));
            assert_eq!(sorted(&back), sorted(&e));
        }
    }

    #[test]
    fn clear_resets_all_variants() {
        for policy in [
            EmergencyPolicy::Disabled,
            EmergencyPolicy::ExactTable,
            EmergencyPolicy::SpaceSaving(4),
        ] {
            let mut e = EmergencyStore::<u64>::new(policy);
            e.record(&1, 5);
            e.clear();
            assert_eq!(e.failures(), 0);
            assert_eq!(e.query(&1), (0, 0));
        }
    }
}
