//! Cost oracles for the greedy learner.
//!
//! Algorithm 1 scores a candidate configuration by
//! `c_J = Σ_{I ∈ H_{J,y_J}} (z_I − y_I²/|I|)` where `y_I` estimates the
//! interval weight `p(I)` (from the main sample, Step 2) and `z_I` estimates
//! the power sum `Σ_{i∈I} p_i²` (median of collision estimates, Step 4).
//! The per-piece term `z_I − y_I²/|I|` is the plug-in estimate of the
//! flattening SSE `Σ_{i∈I} p_i² − p(I)²/|I|` (Equation 12).
//!
//! Two oracles implement the same interface:
//!
//! * [`SampleCostOracle`] — the real thing, backed by sample sets: `y` and
//!   `z` are `O(log m)` prefix-sum queries on the sorted [`SampleSet`]s,
//!   so the greedy re-asks instead of caching;
//! * [`ExactCostOracle`] — plugs in the true `p(I)` and `Σ p_i²`; used by
//!   tests and ablations to isolate the greedy's convergence behaviour from
//!   sampling noise.

use khist_dist::{DenseDistribution, Interval};
use khist_oracle::{MedianBooster, SampleSet};

/// Interval-cost interface consumed by the greedy learner.
pub trait CostOracle {
    /// Estimate `y_I` of the interval weight `p(I)`.
    fn weight(&self, iv: Interval) -> f64;

    /// Estimate `z_I` of the interval power sum `Σ_{i∈I} p_i²`.
    fn power(&self, iv: Interval) -> f64;

    /// Plug-in flattening-SSE estimate `z_I − y_I²/|I|`.
    ///
    /// May be negative under sampling noise; the greedy only compares sums
    /// of these values, which the analysis (Equations 13–18) accounts for.
    fn piece_cost(&self, iv: Interval) -> f64 {
        self.power(iv) - self.weight(iv).powi(2) / iv.len() as f64
    }
}

/// Cost oracle backed by the paper's sample statistics.
pub struct SampleCostOracle<'a> {
    main: &'a SampleSet,
    booster: MedianBooster<'a>,
}

impl<'a> SampleCostOracle<'a> {
    /// Builds the oracle from the main sample (for `y`) and the `r`
    /// collision sets (for `z`).
    pub fn new(main: &'a SampleSet, collision_sets: &'a [SampleSet]) -> Self {
        SampleCostOracle {
            main,
            booster: MedianBooster::new(collision_sets),
        }
    }
}

impl CostOracle for SampleCostOracle<'_> {
    fn weight(&self, iv: Interval) -> f64 {
        self.main.empirical_mass(iv)
    }

    fn power(&self, iv: Interval) -> f64 {
        self.booster.absolute_median(iv)
    }
}

/// Cost oracle that reads the true distribution (noise-free ablation).
pub struct ExactCostOracle<'a> {
    p: &'a DenseDistribution,
}

impl<'a> ExactCostOracle<'a> {
    /// Wraps the true distribution.
    pub fn new(p: &'a DenseDistribution) -> Self {
        ExactCostOracle { p }
    }
}

impl CostOracle for ExactCostOracle<'_> {
    fn weight(&self, iv: Interval) -> f64 {
        self.p.interval_mass(iv)
    }

    fn power(&self, iv: Interval) -> f64 {
        self.p.interval_power_sum(iv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use khist_dist::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn iv(lo: usize, hi: usize) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    #[test]
    fn exact_oracle_matches_distribution() {
        let p = generators::zipf(20, 1.0).unwrap();
        let o = ExactCostOracle::new(&p);
        let i = iv(2, 7);
        assert_eq!(o.weight(i), p.interval_mass(i));
        assert_eq!(o.power(i), p.interval_power_sum(i));
        assert!((o.piece_cost(i) - p.flatten_sse(i)).abs() < 1e-15);
    }

    #[test]
    fn exact_piece_cost_zero_on_flat() {
        let p = DenseDistribution::uniform(16).unwrap();
        let o = ExactCostOracle::new(&p);
        assert!(o.piece_cost(iv(0, 15)).abs() < 1e-15);
        assert!(o.piece_cost(iv(3, 9)).abs() < 1e-15);
    }

    #[test]
    fn sample_oracle_estimates_converge() {
        let p = generators::two_level(32, 0.25, 0.75).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let main = SampleSet::draw(&p, 50_000, &mut rng);
        let sets = SampleSet::draw_many(&p, 5_000, 9, &mut rng);
        let o = SampleCostOracle::new(&main, &sets);
        let heavy = iv(0, 7);
        assert!((o.weight(heavy) - 0.75).abs() < 0.02);
        let truth = p.interval_power_sum(heavy);
        assert!(
            (o.power(heavy) - truth).abs() < 0.02,
            "z = {} vs {truth}",
            o.power(heavy)
        );
        // piece_cost approximates the flatten SSE
        assert!((o.piece_cost(heavy) - p.flatten_sse(heavy)).abs() < 0.03);
    }
}
