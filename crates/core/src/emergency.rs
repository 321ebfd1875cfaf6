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
//!   evaluation runs this way to show the raw structure);
//! * **ExactTable** — unbounded hash map, exact remainders (CPU servers);
//! * **SpaceSaving** — bounded table with the classic Metwally et al.
//!   overwrite-the-minimum rule; its per-key overestimate is bounded by
//!   the minimum counter, which we surface in the MPE.

use rsk_api::{Key, MergeError};
use std::collections::HashMap;

/// Side store for insertion-failure remainders.
#[derive(Debug, Clone)]
pub enum EmergencyStore<K: Key> {
    /// Drop remainders; only statistics are kept.
    Disabled {
        /// Number of failed insert operations.
        failures: u64,
        /// Total value dropped.
        dropped_value: u64,
    },
    /// Exact hash table of remainders.
    Exact {
        /// Remainder per key.
        table: HashMap<K, u64>,
        /// Number of failed insert operations.
        failures: u64,
    },
    /// Bounded SpaceSaving-style table.
    SpaceSaving {
        /// `(key, count, overestimate)` slots.
        slots: Vec<(K, u64, u64)>,
        /// Capacity in slots.
        capacity: usize,
        /// Number of failed insert operations.
        failures: u64,
    },
}

impl<K: Key> EmergencyStore<K> {
    /// Build from the configured policy.
    pub fn new(policy: crate::config::EmergencyPolicy) -> Self {
        use crate::config::EmergencyPolicy::*;
        match policy {
            Disabled => Self::Disabled {
                failures: 0,
                dropped_value: 0,
            },
            ExactTable => Self::Exact {
                table: HashMap::new(),
                failures: 0,
            },
            SpaceSaving(cap) => Self::SpaceSaving {
                slots: Vec::with_capacity(cap.max(1)),
                capacity: cap.max(1),
                failures: 0,
            },
        }
    }

    /// Record a failed remainder. Every sum saturates: a store restored
    /// from a replication payload may hold counters near `u64::MAX`.
    pub fn record(&mut self, key: &K, value: u64) {
        match self {
            Self::Disabled {
                failures,
                dropped_value,
            } => {
                *failures = failures.saturating_add(1);
                *dropped_value = dropped_value.saturating_add(value);
            }
            Self::Exact { table, failures } => {
                *failures = failures.saturating_add(1);
                let slot = table.entry(*key).or_insert(0);
                *slot = slot.saturating_add(value);
            }
            Self::SpaceSaving {
                slots,
                capacity,
                failures,
            } => {
                *failures = failures.saturating_add(1);
                if let Some(slot) = slots.iter_mut().find(|s| s.0 == *key) {
                    slot.1 = slot.1.saturating_add(value);
                    return;
                }
                if slots.len() < *capacity {
                    slots.push((*key, value, 0));
                    return;
                }
                // overwrite the minimum (Metwally et al. 2005): the evicted
                // count becomes the newcomer's overestimate
                let (idx, _) = slots
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.1)
                    .expect("capacity ≥ 1");
                let min = slots[idx].1;
                slots[idx] = (*key, min.saturating_add(value), min);
            }
        }
    }

    /// The stored remainder estimate and its overestimate bound for `key`.
    pub fn query(&self, key: &K) -> (u64, u64) {
        match self {
            Self::Disabled { .. } => (0, 0),
            Self::Exact { table, .. } => (table.get(key).copied().unwrap_or(0), 0),
            Self::SpaceSaving { slots, .. } => slots
                .iter()
                .find(|s| s.0 == *key)
                .map(|s| (s.1, s.2))
                .unwrap_or((0, 0)),
        }
    }

    /// Number of failed insert operations observed.
    pub fn failures(&self) -> u64 {
        match self {
            Self::Disabled { failures, .. }
            | Self::Exact { failures, .. }
            | Self::SpaceSaving { failures, .. } => *failures,
        }
    }

    /// Total value dropped (only nonzero under `Disabled`).
    pub fn dropped_value(&self) -> u64 {
        match self {
            Self::Disabled { dropped_value, .. } => *dropped_value,
            _ => 0,
        }
    }

    /// Modeled memory footprint in bytes (key + 64-bit counter per entry;
    /// SpaceSaving also carries the overestimate field).
    pub fn memory_bytes(&self) -> usize {
        let key = core::mem::size_of::<K>();
        match self {
            Self::Disabled { .. } => 0,
            Self::Exact { table, .. } => table.len() * (key + 8),
            Self::SpaceSaving { capacity, .. } => capacity * (key + 16),
        }
    }

    /// Fold another store into this one. Both must run the same policy.
    /// Sums saturate, as in [`Self::record`].
    ///
    /// * `Disabled` — failure and dropped-value counters add;
    /// * `Exact` — remainder tables add key-wise;
    /// * `SpaceSaving` — `self` keeps its capacity; each foreign slot is
    ///   added to a matching slot (counts and overestimates add), appended
    ///   if there is room, or folded over the minimum slot with the
    ///   classic Metwally rule, preserving the `truth ⩾ count −
    ///   overestimate` lower-bound contract.
    ///
    /// # Errors
    /// [`MergeError::Incompatible`] for mixed policies.
    pub fn merge_from(&mut self, other: &Self) -> Result<(), MergeError> {
        match (self, other) {
            (
                Self::Disabled {
                    failures,
                    dropped_value,
                },
                Self::Disabled {
                    failures: f2,
                    dropped_value: d2,
                },
            ) => {
                *failures = failures.saturating_add(*f2);
                *dropped_value = dropped_value.saturating_add(*d2);
                Ok(())
            }
            (
                Self::Exact { table, failures },
                Self::Exact {
                    table: t2,
                    failures: f2,
                },
            ) => {
                *failures = failures.saturating_add(*f2);
                for (k, v) in t2 {
                    let slot = table.entry(*k).or_insert(0);
                    *slot = slot.saturating_add(*v);
                }
                Ok(())
            }
            (
                Self::SpaceSaving {
                    slots,
                    capacity,
                    failures,
                },
                Self::SpaceSaving {
                    slots: s2,
                    failures: f2,
                    ..
                },
            ) => {
                *failures = failures.saturating_add(*f2);
                for (key, count, over) in s2 {
                    if let Some(slot) = slots.iter_mut().find(|s| s.0 == *key) {
                        slot.1 = slot.1.saturating_add(*count);
                        slot.2 = slot.2.saturating_add(*over);
                    } else if slots.len() < *capacity {
                        slots.push((*key, *count, *over));
                    } else {
                        let (idx, _) = slots
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, s)| s.1)
                            .expect("capacity ≥ 1");
                        let min = slots[idx].1;
                        slots[idx] = (*key, min.saturating_add(*count), min.saturating_add(*over));
                    }
                }
                Ok(())
            }
            _ => Err(MergeError::Incompatible("emergency policy mismatch".into())),
        }
    }

    /// Reset, keeping the policy.
    pub fn clear(&mut self) {
        match self {
            Self::Disabled {
                failures,
                dropped_value,
            } => {
                *failures = 0;
                *dropped_value = 0;
            }
            Self::Exact { table, failures } => {
                table.clear();
                *failures = 0;
            }
            Self::SpaceSaving {
                slots, failures, ..
            } => {
                slots.clear();
                *failures = 0;
            }
        }
    }
}

#[cfg(test)]
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
        assert_eq!(e.query(&2), (0, 0));
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
            if est > 0 {
                assert!(est >= f.min(est), "estimate must include count");
                assert!(est.saturating_sub(over) <= f, "lower bound exceeds truth");
            }
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
