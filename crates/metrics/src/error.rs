//! Accuracy metrics (paper §6.1.3).
//!
//! * **# Outliers** — keys whose absolute estimation error exceeds the
//!   user threshold `Λ` (the paper's headline metric);
//! * **AAE** — mean absolute error over all keys;
//! * **ARE** — mean relative error over all keys;
//! * plus the max error and the full sorted error distribution used by
//!   Figure 19b.

use rsk_api::StreamSummary;
use rsk_stream::GroundTruth;

/// Accuracy summary of one sketch against the exact oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorReport {
    /// Keys with `|f̂ − f| > Λ`.
    pub outliers: u64,
    /// Average absolute error.
    pub aae: f64,
    /// Average relative error.
    pub are: f64,
    /// Largest absolute error observed.
    pub max_abs_error: u64,
    /// Number of keys evaluated.
    pub keys: usize,
}

impl ErrorReport {
    /// Did every key stay within the tolerance?
    pub fn zero_outliers(&self) -> bool {
        self.outliers == 0
    }

    /// The report as result-table cells, in the column order the
    /// contender-registry tables use: `ARE`, `AAE`, `# outliers`,
    /// `max |error|`. Formatting is fixed here so every per-contender row
    /// across the harness prints identically.
    pub fn cells(&self) -> Vec<String> {
        vec![
            format!("{:.4}", self.are),
            format!("{:.3}", self.aae),
            self.outliers.to_string(),
            self.max_abs_error.to_string(),
        ]
    }
}

/// Evaluate `sketch` on every key of the oracle with tolerance `lambda`.
///
/// ```
/// use rsk_core::ReliableSketch;
/// use rsk_api::StreamSummary;
/// use rsk_metrics::evaluate;
/// use rsk_stream::{Dataset, GroundTruth};
///
/// let stream = Dataset::Hadoop.generate(50_000, 1);
/// let truth = GroundTruth::from_items(&stream);
/// let mut sk = ReliableSketch::<u64>::builder()
///     .memory_bytes(64 * 1024)
///     .error_tolerance(25)
///     .build_sequential::<u64>();
/// for it in &stream {
///     sk.insert(&it.key, it.value);
/// }
/// let report = evaluate(&sk, &truth, 25);
/// assert!(report.zero_outliers()); // the paper's headline claim
/// ```
pub fn evaluate<S>(sketch: &S, truth: &GroundTruth<u64>, lambda: u64) -> ErrorReport
where
    S: StreamSummary<u64> + ?Sized,
{
    evaluate_with(|k| sketch.query(k), truth, lambda)
}

/// Evaluate an arbitrary point-query function on every oracle key.
///
/// This is [`evaluate`] for answerers that are not `StreamSummary` trait
/// objects — the contender registry of `rsk-exp` evaluates lock-free
/// sketches through their shared-reference query paths this way.
///
/// ```
/// use rsk_metrics::evaluate_with;
/// use rsk_stream::{GroundTruth, Item};
///
/// let stream: Vec<Item<u64>> = (0..100u64).map(Item::unit).collect();
/// let truth = GroundTruth::from_items(&stream);
/// let rep = evaluate_with(|k| truth.freq(k) + 3, &truth, 25);
/// assert_eq!(rep.outliers, 0);
/// assert!((rep.aae - 3.0).abs() < 1e-12);
/// ```
pub fn evaluate_with(
    query: impl Fn(&u64) -> u64,
    truth: &GroundTruth<u64>,
    lambda: u64,
) -> ErrorReport {
    evaluate_entries(query, lambda, truth.iter().map(|(k, f)| (*k, f)))
}

/// Evaluate only the given subset of keys (e.g. the frequent keys of
/// Figure 7).
pub fn evaluate_subset<S>(
    sketch: &S,
    truth: &GroundTruth<u64>,
    lambda: u64,
    keys: &[u64],
) -> ErrorReport
where
    S: StreamSummary<u64> + ?Sized,
{
    evaluate_subset_with(|k| sketch.query(k), truth, lambda, keys)
}

/// [`evaluate_subset`] for an arbitrary point-query function — the
/// contender registry's frequent-key (heavy-hitter) scenarios.
pub fn evaluate_subset_with(
    query: impl Fn(&u64) -> u64,
    truth: &GroundTruth<u64>,
    lambda: u64,
    keys: &[u64],
) -> ErrorReport {
    evaluate_entries(query, lambda, keys.iter().map(|&k| (k, truth.freq(&k))))
}

fn evaluate_entries(
    query: impl Fn(&u64) -> u64,
    lambda: u64,
    keys: impl Iterator<Item = (u64, u64)>,
) -> ErrorReport {
    let mut outliers = 0u64;
    let mut abs_sum = 0.0f64;
    let mut rel_sum = 0.0f64;
    let mut max_abs = 0u64;
    let mut n = 0usize;
    for (k, f) in keys {
        let est = query(&k);
        let abs = est.abs_diff(f);
        if abs > lambda {
            outliers += 1;
        }
        abs_sum += abs as f64;
        if f > 0 {
            rel_sum += abs as f64 / f as f64;
        }
        max_abs = max_abs.max(abs);
        n += 1;
    }
    ErrorReport {
        outliers,
        aae: if n == 0 { 0.0 } else { abs_sum / n as f64 },
        are: if n == 0 { 0.0 } else { rel_sum / n as f64 },
        max_abs_error: max_abs,
        keys: n,
    }
}

/// Absolute error of every key, sorted descending — Figure 19b's "error
/// distribution" series.
pub fn error_distribution<S>(sketch: &S, truth: &GroundTruth<u64>) -> Vec<u64>
where
    S: StreamSummary<u64> + ?Sized,
{
    let mut errs: Vec<u64> = truth
        .iter()
        .map(|(k, f)| sketch.query(k).abs_diff(f))
        .collect();
    errs.sort_unstable_by(|a, b| b.cmp(a));
    errs
}

/// Mean absolute *sensed* error vs mean absolute *actual* error, bucketed
/// by actual error — Figure 18a's two series (only meaningful for
/// error-sensing sketches).
pub fn sensed_vs_actual<S>(
    sketch: &S,
    truth: &GroundTruth<u64>,
    max_actual: u64,
) -> Vec<(u64, f64, f64)>
where
    S: rsk_api::ErrorSensing<u64> + ?Sized,
{
    // bucket index = actual absolute error
    let mut sums = vec![(0u64, 0.0f64, 0.0f64); (max_actual + 1) as usize];
    for (k, f) in truth.iter() {
        let est = sketch.query_with_error(k);
        let actual = est.value.abs_diff(f);
        if actual <= max_actual {
            let b = &mut sums[actual as usize];
            b.0 += 1;
            b.1 += est.max_possible_error as f64;
            b.2 += actual as f64;
        }
    }
    sums.iter()
        .enumerate()
        .filter(|(_, (n, _, _))| *n > 0)
        .map(|(a, (n, sensed, actual))| (a as u64, sensed / *n as f64, actual / *n as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsk_api::{Estimate, StreamSummary};
    use rsk_stream::Item;

    /// Deterministic fake sketch: answers truth + fixed error per key.
    struct Skewed {
        truth: GroundTruth<u64>,
        extra: u64,
    }
    impl StreamSummary<u64> for Skewed {
        fn insert(&mut self, _: &u64, _: u64) {}
        fn query(&self, k: &u64) -> u64 {
            self.truth.freq(k)
                + if (*k).is_multiple_of(2) {
                    self.extra
                } else {
                    0
                }
        }
    }
    impl rsk_api::ErrorSensing<u64> for Skewed {
        fn query_with_error(&self, k: &u64) -> Estimate {
            Estimate {
                value: self.query(k),
                max_possible_error: self.extra,
            }
        }
    }

    fn oracle(n: u64) -> GroundTruth<u64> {
        let items: Vec<Item<u64>> = (0..n).map(|k| Item::new(k, 10 + k)).collect();
        GroundTruth::from_items(&items)
    }

    #[test]
    fn outlier_counting() {
        let truth = oracle(100);
        let sk = Skewed {
            truth: truth.clone(),
            extra: 30,
        };
        // even keys (50 of them) err by 30 > Λ=25; odd keys exact
        let rep = evaluate(&sk, &truth, 25);
        assert_eq!(rep.outliers, 50);
        assert_eq!(rep.keys, 100);
        assert_eq!(rep.max_abs_error, 30);
        assert!(!rep.zero_outliers());
        // with Λ=30 nothing is an outlier
        assert!(evaluate(&sk, &truth, 30).zero_outliers());
    }

    #[test]
    fn aae_and_are() {
        let truth = oracle(2); // keys 0 (f=10), 1 (f=11)
        let sk = Skewed {
            truth: truth.clone(),
            extra: 5,
        };
        let rep = evaluate(&sk, &truth, 100);
        assert!((rep.aae - 2.5).abs() < 1e-12); // (5 + 0)/2
        assert!((rep.are - 0.25).abs() < 1e-12); // (0.5 + 0)/2
    }

    #[test]
    fn subset_evaluation() {
        let truth = oracle(100);
        let sk = Skewed {
            truth: truth.clone(),
            extra: 30,
        };
        let evens: Vec<u64> = (0..100).filter(|k| k % 2 == 0).collect();
        let rep = evaluate_subset(&sk, &truth, 25, &evens);
        assert_eq!(rep.outliers, 50);
        assert_eq!(rep.keys, 50);
    }

    #[test]
    fn distribution_is_sorted_descending() {
        let truth = oracle(10);
        let sk = Skewed {
            truth: truth.clone(),
            extra: 7,
        };
        let d = error_distribution(&sk, &truth);
        assert_eq!(d.len(), 10);
        assert!(d.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(d[0], 7);
        assert_eq!(*d.last().unwrap(), 0);
    }

    #[test]
    fn sensed_vs_actual_buckets() {
        let truth = oracle(100);
        let sk = Skewed {
            truth: truth.clone(),
            extra: 3,
        };
        let rows = sensed_vs_actual(&sk, &truth, 10);
        // two buckets: actual 0 (odd keys) and actual 3 (even keys)
        assert_eq!(rows.len(), 2);
        let zero = rows.iter().find(|r| r.0 == 0).unwrap();
        let three = rows.iter().find(|r| r.0 == 3).unwrap();
        assert!((zero.1 - 3.0).abs() < 1e-12); // sensed MPE is 3 everywhere
        assert!((three.2 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_oracle_yields_zeros() {
        let truth = GroundTruth::new();
        let sk = Skewed {
            truth: truth.clone(),
            extra: 0,
        };
        let rep = evaluate(&sk, &truth, 25);
        assert_eq!(rep.keys, 0);
        assert_eq!(rep.aae, 0.0);
    }
}
