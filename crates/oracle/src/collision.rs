//! Collision-probability estimators (Lemma 1 and Goldreich–Ron).
//!
//! Two distinct normalizations appear in the paper and must not be confused:
//!
//! * **Absolute** (Algorithm 1, Lemma 1): `coll(S_I) / C(|S|, 2)` is an
//!   unbiased estimator of the *restricted power sum* `Σ_{i∈I} p_i²` — the
//!   pair `(s, t)` collides "in `I`" when both samples equal the same value
//!   that lies in `I`. Lemma 1: with `m ≥ 24/ε²` samples the error is at
//!   most `ε·p(I)` with probability ≥ 3/4.
//! * **Conditional** (Algorithms 3–4, Eq. (1)–(2)): `coll(S_I) / C(|S_I|, 2)`
//!   estimates the conditional norm `‖p_I‖₂²`, which equals `1/|I|` exactly
//!   when `p_I` is uniform — the flatness criterion of the testers.
//!
//! Both come with median-of-`r` boosting ([`MedianBooster`]): the median of
//! `r` independent estimates is within the error bound with probability
//! `1 − exp(−Ω(r))` (Chernoff), which is how the testers drive the
//! per-interval failure probability below `1/6n²` for a union bound over all
//! `≤ n²` intervals.

use khist_dist::Interval;

use crate::sample_set::{choose2, SampleSet};

/// Absolute estimator `coll(S_I) / C(m, 2)` of `Σ_{i∈I} p_i²` (Lemma 1).
///
/// Returns `0.0` when the set has fewer than two samples (no pairs exist).
pub fn absolute_collision_estimate(set: &SampleSet, iv: Interval) -> f64 {
    let pairs = choose2(set.total());
    if pairs == 0 {
        return 0.0;
    }
    set.collisions_in(iv) as f64 / pairs as f64
}

/// Conditional estimator `coll(S_I) / C(|S_I|, 2)` of `‖p_I‖₂²`
/// (Goldreich–Ron, Eq. (1)–(2)); `None` when fewer than two samples hit `I`.
pub fn conditional_collision_estimate(set: &SampleSet, iv: Interval) -> Option<f64> {
    let hits = set.count_in(iv);
    if hits < 2 {
        return None;
    }
    Some(set.collisions_in(iv) as f64 / choose2(hits) as f64)
}

/// Median over the defined values of an iterator; `None` when all are `None`.
fn median_of(values: impl Iterator<Item = f64>) -> Option<f64> {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v.get(mid).copied()
    } else {
        // lint:allow(checked-indexing): mid >= 1 because v is non-empty with even length
        Some((v[mid - 1] + v[mid]) / 2.0)
    }
}

/// Median-of-`r` boosting over independent sample sets `S¹, …, Sʳ`.
///
/// This is the `z_I` computation shared by Algorithm 1 (absolute flavour)
/// and Algorithms 3–4 (conditional flavour).
#[derive(Debug, Clone, Copy)]
pub struct MedianBooster<'a> {
    sets: &'a [SampleSet],
}

impl<'a> MedianBooster<'a> {
    /// Wraps `r` independent sample sets.
    pub fn new(sets: &'a [SampleSet]) -> Self {
        MedianBooster { sets }
    }

    /// Number of sets `r`.
    pub fn r(&self) -> usize {
        self.sets.len()
    }

    /// The underlying sets.
    pub fn sets(&self) -> &'a [SampleSet] {
        self.sets
    }

    /// Median of absolute estimates — Algorithm 1's `z_I`.
    ///
    /// Returns `0.0` when there are no sets (vacuous but total).
    pub fn absolute_median(&self, iv: Interval) -> f64 {
        median_of(self.sets.iter().map(|s| absolute_collision_estimate(s, iv))).unwrap_or(0.0)
    }

    /// Median of the *defined* conditional estimates — Algorithms 3–4's
    /// `z_I`. `None` when no set has ≥ 2 hits in `I` (the testers never
    /// reach this case because the light-interval early-accept fires first).
    pub fn conditional_median(&self, iv: Interval) -> Option<f64> {
        median_of(
            self.sets
                .iter()
                .filter_map(|s| conditional_collision_estimate(s, iv)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use khist_dist::{generators, DenseDistribution};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn iv(lo: usize, hi: usize) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    #[test]
    fn absolute_estimate_tiny_exact() {
        // Samples {1, 1, 2}: C(3,2) = 3 pairs; 1 colliding pair at value 1.
        let s = SampleSet::from_samples(vec![1, 1, 2]);
        assert!((absolute_collision_estimate(&s, iv(0, 5)) - 1.0 / 3.0).abs() < 1e-12);
        assert!((absolute_collision_estimate(&s, iv(2, 5)) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn absolute_estimate_empty_and_singleton() {
        let s = SampleSet::from_samples(vec![]);
        assert_eq!(absolute_collision_estimate(&s, iv(0, 3)), 0.0);
        let s = SampleSet::from_samples(vec![2]);
        assert_eq!(absolute_collision_estimate(&s, iv(0, 3)), 0.0);
    }

    #[test]
    fn conditional_estimate_tiny_exact() {
        // In I = [0,1]: samples {1, 1, 0} → 3 hits, C(3,2) = 3, collisions 1.
        let s = SampleSet::from_samples(vec![1, 1, 0, 7]);
        let z = conditional_collision_estimate(&s, iv(0, 1)).unwrap();
        assert!((z - 1.0 / 3.0).abs() < 1e-12);
        // fewer than 2 hits → None
        assert!(conditional_collision_estimate(&s, iv(7, 7)).is_none());
        assert!(conditional_collision_estimate(&s, iv(3, 5)).is_none());
    }

    #[test]
    fn absolute_estimator_is_unbiased_on_uniform() {
        // E[coll/C(m,2)] = Σ p_i² = 1/n for uniform; check the empirical
        // mean over repetitions is close.
        let d = DenseDistribution::uniform(50).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let full = iv(0, 49);
        let mut acc = 0.0;
        let reps = 300;
        for _ in 0..reps {
            let s = SampleSet::draw(&d, 100, &mut rng);
            acc += absolute_collision_estimate(&s, full);
        }
        let mean = acc / reps as f64;
        assert!((mean - 0.02).abs() < 0.004, "mean = {mean}, expected 0.02");
    }

    #[test]
    fn absolute_estimator_restricted_interval() {
        // two_level: first 2 of 10 elements carry mass 0.8 (0.4 each).
        // Σ_{i∈[0,1]} p_i² = 2·0.16 = 0.32.
        let d = generators::two_level(10, 0.2, 0.8).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let mut acc = 0.0;
        let reps = 200;
        for _ in 0..reps {
            let s = SampleSet::draw(&d, 200, &mut rng);
            acc += absolute_collision_estimate(&s, iv(0, 1));
        }
        let mean = acc / reps as f64;
        assert!((mean - 0.32).abs() < 0.02, "mean = {mean}, expected 0.32");
    }

    #[test]
    fn conditional_estimator_detects_uniform_vs_skewed() {
        let mut rng = StdRng::seed_from_u64(5);
        let uniform = DenseDistribution::uniform(64).unwrap();
        let skewed = generators::two_level(64, 0.1, 0.9).unwrap();
        let full = iv(0, 63);
        let su = SampleSet::draw(&uniform, 4000, &mut rng);
        let ss = SampleSet::draw(&skewed, 4000, &mut rng);
        let zu = conditional_collision_estimate(&su, full).unwrap();
        let zs = conditional_collision_estimate(&ss, full).unwrap();
        // uniform: ‖p‖₂² = 1/64 ≈ 0.0156; skewed is much larger
        assert!((zu - 1.0 / 64.0).abs() < 0.01, "zu = {zu}");
        assert!(zs > 3.0 * zu, "zs = {zs} should exceed 3·zu = {}", 3.0 * zu);
    }

    #[test]
    fn lemma1_concentration_bound_holds_empirically() {
        // Lemma 1: m ≥ 24/ε² ⇒ P[|ẑ − Σ_I p²| > ε·p(I)] < 1/4.
        // Use ε = 0.5, m = 96, a Zipf distribution, and check the failure
        // rate over many trials stays well under 1/4.
        let eps = 0.5;
        let m = 96;
        let d = generators::zipf(40, 1.0).unwrap();
        let target_iv = iv(0, 9);
        let truth: f64 = (0..10).map(|i| d.mass(i) * d.mass(i)).sum();
        let slack = eps * d.interval_mass(target_iv);
        let mut rng = StdRng::seed_from_u64(123);
        let mut failures = 0;
        let trials = 400;
        for _ in 0..trials {
            let s = SampleSet::draw(&d, m, &mut rng);
            let z = absolute_collision_estimate(&s, target_iv);
            if (z - truth).abs() > slack {
                failures += 1;
            }
        }
        let rate = failures as f64 / trials as f64;
        assert!(rate < 0.25, "failure rate {rate} ≥ 1/4 breaks Lemma 1");
    }

    #[test]
    fn median_booster_basics() {
        let sets = vec![
            SampleSet::from_samples(vec![0, 0, 1]), // abs est over [0,1]: 1/3
            SampleSet::from_samples(vec![0, 1, 2]), // 0
            SampleSet::from_samples(vec![0, 0, 0]), // 3/3 = 1
        ];
        let b = MedianBooster::new(&sets);
        assert_eq!(b.r(), 3);
        let z = b.absolute_median(iv(0, 1));
        assert!(
            (z - 1.0 / 3.0).abs() < 1e-12,
            "median should be 1/3, got {z}"
        );
    }

    #[test]
    fn median_booster_even_count_averages() {
        let sets = vec![
            SampleSet::from_samples(vec![0, 0]), // est 1
            SampleSet::from_samples(vec![0, 1]), // est 0
        ];
        let b = MedianBooster::new(&sets);
        assert!((b.absolute_median(iv(0, 1)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn median_booster_conditional_skips_undefined() {
        let sets = vec![
            SampleSet::from_samples(vec![5]),    // <2 hits → skipped
            SampleSet::from_samples(vec![5, 5]), // est 1.0
            SampleSet::from_samples(vec![5, 6]), // est 0.0
        ];
        let b = MedianBooster::new(&sets);
        let z = b.conditional_median(iv(5, 6)).unwrap();
        assert!((z - 0.5).abs() < 1e-12);
        // interval nobody hits twice
        assert!(b.conditional_median(iv(0, 1)).is_none());
    }

    #[test]
    fn median_boosting_reduces_spread() {
        // Variance of the median of r estimates should be well below the
        // variance of a single estimate.
        let d = generators::zipf(32, 1.0).unwrap();
        let full = iv(0, 31);
        let truth: f64 = d.l2_norm_sq();
        let mut rng = StdRng::seed_from_u64(9);
        let mut single_err = Vec::new();
        let mut boosted_err = Vec::new();
        for _ in 0..120 {
            let sets = SampleSet::draw_many(&d, 64, 9, &mut rng);
            let b = MedianBooster::new(&sets);
            single_err.push((absolute_collision_estimate(&sets[0], full) - truth).abs());
            boosted_err.push((b.absolute_median(full) - truth).abs());
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&boosted_err) < mean(&single_err),
            "boosted {} vs single {}",
            mean(&boosted_err),
            mean(&single_err)
        );
    }
}
