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
//! * [`SampleCostOracle`] — the real thing, backed by sample sets. Built
//!   once per window for the greedy's endpoint list `E`, it stores the
//!   main sample's hit-count prefix and every collision lane's pair-count
//!   prefix, as integers, at the `≤ 2|E|+2` points
//!   `B = {0, n} ∪ E ∪ (E+1)` where the greedy's intervals start and end.
//!   A query is two binary searches in `B`, integer differences and one
//!   median over lanes in a reused buffer — no allocation — and returns
//!   the bits [`SampleSet::empirical_mass`] and
//!   [`khist_oracle::MedianBooster::absolute_median`] return;
//! * [`ExactCostOracle`] — plugs in the true `p(I)` and `Σ p_i²`; used by
//!   tests and ablations to isolate the greedy's convergence behaviour from
//!   sampling noise.

use std::cell::Cell;

use khist_dist::{DenseDistribution, Interval};
use khist_oracle::collision::{absolute_collision_estimate, median_in_place};
use khist_oracle::{choose2, SampleSet};

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

/// Cost oracle backed by the paper's sample statistics, tabulated at the
/// interval bounds of one greedy run.
pub struct SampleCostOracle<'a> {
    main: &'a SampleSet,
    sets: &'a [SampleSet],
    /// The tabulation points `B`, sorted and distinct.
    points: Vec<usize>,
    /// Per point: the main sample's hits below it.
    hits: Vec<u64>,
    /// Per point, one row of `r`: each lane's collision pairs below it.
    pairs: Vec<u64>,
    /// Per lane: `C(m_j, 2)`, the absolute estimator's denominator.
    lane_pairs: Vec<u64>,
    /// The per-lane estimates of one `power` query, reused across queries.
    scratch: Cell<Vec<f64>>,
}

impl<'a> SampleCostOracle<'a> {
    /// Builds the oracle from the main sample (for `y`) and the `r`
    /// collision sets (for `z`), tabulated for intervals over `endpoints`
    /// in `[0, n)`: those starting at `0` or at some `e` or `e + 1`, and
    /// ending at `n − 1` or at some `e` or `e − 1`. Other intervals are
    /// answered from the sets directly, with the same result.
    pub fn new(
        n: usize,
        main: &'a SampleSet,
        collision_sets: &'a [SampleSet],
        endpoints: &[usize],
    ) -> Self {
        let mut points: Vec<usize> = endpoints
            .iter()
            .flat_map(|&e| [e, e.saturating_add(1)])
            .chain([0, n])
            .collect();
        points.sort_unstable();
        points.dedup();
        let hits = points.iter().map(|&x| main.counts_below(x).0).collect();
        let pairs = points
            .iter()
            .flat_map(|&x| collision_sets.iter().map(move |s| s.counts_below(x).1))
            .collect();
        SampleCostOracle {
            main,
            sets: collision_sets,
            points,
            hits,
            pairs,
            lane_pairs: collision_sets.iter().map(|s| choose2(s.total())).collect(),
            scratch: Cell::new(Vec::with_capacity(collision_sets.len())),
        }
    }

    /// Table rows of `iv`'s bounds `lo` and `hi + 1`, when both are
    /// tabulated points.
    fn rows(&self, iv: Interval) -> Option<(usize, usize)> {
        let lo = self.points.binary_search(&iv.lo()).ok()?;
        let end = self.points.binary_search(&iv.hi().checked_add(1)?).ok()?;
        Some((lo, end))
    }
}

impl CostOracle for SampleCostOracle<'_> {
    fn weight(&self, iv: Interval) -> f64 {
        let total = self.main.total();
        if total == 0 {
            return 0.0;
        }
        let hits = self
            .rows(iv)
            .and_then(|(lo, end)| Some(self.hits.get(end)? - self.hits.get(lo)?))
            .unwrap_or_else(|| self.main.count_in(iv));
        hits as f64 / total as f64
    }

    fn power(&self, iv: Interval) -> f64 {
        let r = self.sets.len();
        let rows = self
            .rows(iv)
            .and_then(|(lo, end)| Some((self.pairs.get(lo * r..)?, self.pairs.get(end * r..)?)));
        let mut z = self.scratch.take();
        z.clear();
        match rows {
            // absolute_collision_estimate's arithmetic on tabulated counts.
            Some((below_lo, below_end)) => {
                z.extend(below_lo.iter().zip(below_end).zip(&self.lane_pairs).map(
                    |((lo, end), &pairs)| match pairs {
                        0 => 0.0,
                        _ => (end - lo) as f64 / pairs as f64,
                    },
                ))
            }
            None => z.extend(self.sets.iter().map(|s| absolute_collision_estimate(s, iv))),
        }
        let median = median_in_place(&mut z).unwrap_or(0.0);
        self.scratch.set(z);
        median
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
        let endpoints: Vec<usize> = (0..32).collect();
        let o = SampleCostOracle::new(32, &main, &sets, &endpoints);
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

    #[test]
    fn sample_oracle_matches_set_formulas_bit_for_bit() {
        // The tables must return exactly what the sets' own queries return:
        // on tabulated bounds and off them, for odd and even lane counts
        // (an even count averages the middle two), and in the 0.0 cases (an
        // empty main sample, a lane too small to hold a pair).
        use khist_oracle::MedianBooster;
        let p = generators::zipf(40, 1.1).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let main = SampleSet::draw(&p, 500, &mut rng);
        let mut lanes = SampleSet::draw_many(&p, 60, 4, &mut rng);
        lanes.push(SampleSet::from_samples(vec![7]));
        let empty = SampleSet::from_samples(vec![]);
        let endpoints = [0, 3, 4, 9, 20, 39];
        for main in [&main, &empty] {
            for r in [3, 4, 5] {
                let sets = &lanes[..r];
                let o = SampleCostOracle::new(40, main, sets, &endpoints);
                let booster = MedianBooster::new(sets);
                for lo in 0..40 {
                    for hi in lo..40 {
                        let i = iv(lo, hi);
                        assert_eq!(
                            o.weight(i).to_bits(),
                            main.empirical_mass(i).to_bits(),
                            "{i}"
                        );
                        assert_eq!(
                            o.power(i).to_bits(),
                            booster.absolute_median(i).to_bits(),
                            "{i}"
                        );
                    }
                }
            }
        }
    }
}
