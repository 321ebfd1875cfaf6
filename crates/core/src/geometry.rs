//! Layer geometry: the Double Exponential Control schedule (paper §3.2,
//! Key Technique II).
//!
//! Both the widths and the lock thresholds decrease geometrically:
//!
//! * `w_i = ⌈W(R_w−1)/R_w^i⌉` — so `Σ w_i ≈ W` total buckets;
//! * `λ_i = ⌊Λ(R_λ−1)/R_λ^i⌋` — so `Σ λ_i ≤ Λ` total error budget.
//!
//! The paper proves (Theorems 2–4) that with this schedule the population
//! escaping layer `i` shrinks doubly exponentially, which is what buys the
//! `1 − Δ` *joint* guarantee at `O(N/Λ)` space. Changing either sequence to
//! arithmetic decay "would thoroughly undermine the complexity" (§3.2) —
//! the ablation bench `parameter_ablation` demonstrates this empirically.

#![deny(clippy::arithmetic_side_effects)]

use crate::config::Depth;

/// Widths and thresholds of every layer, as materialized for one sketch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerGeometry {
    widths: Vec<usize>,
    lambdas: Vec<u64>,
}

impl LayerGeometry {
    /// Build an explicit schedule (ablation studies, custom research
    /// configurations).
    ///
    /// # Errors
    /// Rejects empty schedules, mismatched lengths and zero widths. Note
    /// that *no* monotonicity or budget constraint is imposed — that is
    /// the point of an ablation hook — but `Σ λ_i` still caps the MPE the
    /// resulting sketch can certify.
    pub fn custom(widths: Vec<usize>, lambdas: Vec<u64>) -> Result<Self, String> {
        if widths.is_empty() {
            return Err("empty schedule".into());
        }
        if widths.len() != lambdas.len() {
            return Err(format!(
                "width/lambda arity mismatch: {} vs {}",
                widths.len(),
                lambdas.len()
            ));
        }
        if widths.contains(&0) {
            return Err("zero-width layer".into());
        }
        Ok(Self { widths, lambdas })
    }

    /// Derive the schedule for `total_buckets` buckets, error budget
    /// `lambda`, decay rates `r_w`/`r_lambda` and the given depth policy.
    /// Thresholds are the paper's floors, so deep layers may get `λ_i = 0`
    /// (one-candidate buckets that lock at once).
    ///
    /// Guarantees on the result:
    /// * at least one layer, every width ≥ 1;
    /// * `Σ widths ≤ total_buckets` (the first layer absorbs rounding);
    /// * `Σ lambdas ≤ lambda`;
    /// * widths non-increasing, lambdas non-increasing.
    pub fn derive(
        total_buckets: usize,
        lambda: u64,
        r_w: f64,
        r_lambda: f64,
        depth: Depth,
    ) -> Self {
        assert!(total_buckets >= 1, "need at least one bucket");
        assert!(r_w > 1.0 && r_lambda > 1.0);

        let d = match depth {
            Depth::Fixed(d) => d.max(1),
            Depth::Auto => {
                // deepest layer whose nominal width is still ≥ 1:
                // W(R_w−1)/R_w^d ≥ 1  ⇔  d ≤ log_{R_w}(W(R_w−1))
                let raw = ((total_buckets as f64) * (r_w - 1.0)).ln() / r_w.ln();
                (raw.floor() as usize).clamp(7, 32)
            }
        };

        let w = total_buckets as f64;
        let mut widths: Vec<usize> = (1..=d)
            .map(|i| ((w * (r_w - 1.0)) / r_w.powi(i as i32)).ceil().max(1.0) as usize)
            .collect();

        // Rounding perturbs the total by up to d buckets. Spend any unused
        // budget on the widest layer, and absorb any overshoot by trimming
        // the deepest layer still above one bucket — both operations keep
        // the width sequence non-increasing.
        let sum: usize = widths.iter().sum();
        if let Some(spare) = total_buckets.checked_sub(sum) {
            widths[0] = widths[0].saturating_add(spare);
        } else {
            let mut excess = sum.saturating_sub(total_buckets);
            while excess > 0 {
                match widths.iter().rposition(|&w| w > 1) {
                    Some(i) => {
                        let next = widths.get(i.saturating_add(1)).copied().unwrap_or(1);
                        let take = excess.min(widths[i].saturating_sub(next));
                        let take = take.max(1).min(widths[i].saturating_sub(1));
                        widths[i] = widths[i].saturating_sub(take);
                        excess = excess.saturating_sub(take);
                    }
                    // every layer is already at the 1-bucket floor
                    // (total_buckets < d); accept the overshoot
                    None => break,
                }
            }
        }

        let mut lambdas = Vec::with_capacity(d);
        let mut budget = lambda;
        for i in 1..=d {
            let nominal =
                ((lambda as f64) * (r_lambda - 1.0) / r_lambda.powi(i as i32)).floor() as u64;
            let li = nominal.min(budget);
            lambdas.push(li);
            budget = budget.saturating_sub(li);
        }

        Self { widths, lambdas }
    }

    /// Number of layers `d`.
    #[inline]
    pub fn depth(&self) -> usize {
        self.widths.len()
    }

    /// Width of layer `i` (0-based).
    #[inline]
    pub fn width(&self, i: usize) -> usize {
        self.widths[i]
    }

    /// Lock threshold of layer `i` (0-based).
    #[inline]
    pub fn lambda(&self, i: usize) -> u64 {
        self.lambdas[i]
    }

    /// All widths.
    #[inline]
    pub fn widths(&self) -> &[usize] {
        &self.widths
    }

    /// All thresholds.
    #[inline]
    pub fn lambdas(&self) -> &[u64] {
        &self.lambdas
    }

    /// Total buckets across layers.
    pub fn total_buckets(&self) -> usize {
        self.widths.iter().sum()
    }

    /// Total error budget actually allocated (`Σ λ_i`).
    pub fn total_lambda(&self) -> u64 {
        self.lambdas.iter().sum()
    }
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects)] // small fixed test data
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_default_schedule() {
        // W = 83886 buckets (0.8 MB / 10 B), Λ' = 22, R_w = 2, R_λ = 2.5
        let g = LayerGeometry::derive(83_886, 22, 2.0, 2.5, Depth::Auto);
        // widths halve: ≈ 41943, 20972, 10486, …
        assert!(g.width(0) > g.width(1) && g.width(1) > g.width(2));
        assert!((g.width(0) as f64 / g.width(1) as f64 - 2.0).abs() < 0.1);
        // λ: ⌊22·1.5/2.5⌋=13, ⌊22·1.5/6.25⌋=5, ⌊22·1.5/15.625⌋=2, 0, …
        assert_eq!(g.lambda(0), 13);
        assert_eq!(g.lambda(1), 5);
        assert_eq!(g.lambda(2), 2);
        assert_eq!(g.lambda(3), 0);
        assert!(g.total_lambda() <= 22);
        assert!(g.total_buckets() <= 83_886);
        // Auto depth: log2(83886) ≈ 16.3 → d = 16
        assert_eq!(g.depth(), 16);
    }

    #[test]
    fn fixed_depth_respected() {
        let g = LayerGeometry::derive(1000, 25, 2.0, 2.5, Depth::Fixed(7));
        assert_eq!(g.depth(), 7);
        let g1 = LayerGeometry::derive(1000, 25, 2.0, 2.5, Depth::Fixed(0));
        assert_eq!(g1.depth(), 1);
    }

    #[test]
    fn tiny_budgets_still_work() {
        let g = LayerGeometry::derive(1, 1, 2.0, 2.0, Depth::Auto);
        assert!(g.depth() >= 1);
        assert!(g.total_buckets() >= 1);
        let g = LayerGeometry::derive(8, 2, 8.0, 8.0, Depth::Fixed(3));
        assert!(g.widths().iter().all(|&w| w >= 1));
    }

    #[test]
    fn higher_rw_concentrates_buckets_in_layer1() {
        let g2 = LayerGeometry::derive(10_000, 25, 2.0, 2.5, Depth::Fixed(8));
        let g8 = LayerGeometry::derive(10_000, 25, 8.0, 2.5, Depth::Fixed(8));
        let share = |g: &LayerGeometry| g.width(0) as f64 / g.total_buckets() as f64;
        assert!(share(&g8) > share(&g2));
        assert!(share(&g8) > 0.8); // (R_w−1)/R_w = 7/8
    }

    proptest! {
        #[test]
        fn prop_invariants(
            buckets in 1usize..200_000,
            lambda in 1u64..10_000,
            r_w in 1.2f64..10.0,
            r_l in 1.2f64..10.0,
            d in 1usize..24,
        ) {
            let g = LayerGeometry::derive(buckets, lambda, r_w, r_l, Depth::Fixed(d));
            prop_assert_eq!(g.depth(), d);
            prop_assert!(g.total_lambda() <= lambda);
            prop_assert!(g.widths().iter().all(|&w| w >= 1));
            // non-increasing sequences
            prop_assert!(g.widths().windows(2).all(|w| w[0] >= w[1]));
            prop_assert!(g.lambdas().windows(2).all(|l| l[0] >= l[1]));
            // budget respected whenever it is satisfiable (d ≤ buckets)
            if d <= buckets {
                prop_assert!(g.total_buckets() <= buckets,
                    "Σw = {} > W = {}", g.total_buckets(), buckets);
            }
        }
    }
}
