//! Dense distributions over `[n]` with `O(1)` interval statistics.
//!
//! `DenseDistribution` is the substrate's ground truth: an explicit pmf
//! plus prefix sums of `p` and `p²`, so the quantities every algorithm in
//! the paper consumes per interval `I` — the weight `p(I)`, the restricted
//! power sum `Σ_{i∈I} p_i²`, and the flattening SSE
//! `Σ_{i∈I} p_i² − p(I)²/|I|` (Equation 12) — cost two subtractions.
//! Sampling is inverse-CDF (`O(log n)` per draw); see
//! [`crate::sampler::AliasSampler`] for the `O(1)` alternative.

use rand::Rng;

use crate::error::DistError;
use crate::interval::Interval;

/// An explicit probability distribution over the domain `{0, …, n−1}`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseDistribution {
    pmf: Vec<f64>,
    /// `prefix_mass[i] = Σ_{j<i} p_j`, length `n + 1`.
    prefix_mass: Vec<f64>,
    /// `prefix_power[i] = Σ_{j<i} p_j²`, length `n + 1`.
    prefix_power: Vec<f64>,
}

impl DenseDistribution {
    /// Builds a distribution from non-negative weights, normalizing them.
    ///
    /// Fails on an empty slice ([`DistError::EmptyDomain`]), any negative
    /// or non-finite weight ([`DistError::BadParameter`]), or zero total
    /// ([`DistError::ZeroTotalMass`]).
    pub fn from_weights(weights: &[f64]) -> Result<Self, DistError> {
        if weights.is_empty() {
            return Err(DistError::EmptyDomain);
        }
        if let Some(w) = weights.iter().find(|w| !w.is_finite() || **w < 0.0) {
            return Err(DistError::BadParameter {
                reason: format!("weight {w} is negative or not finite"),
            });
        }
        let total: f64 = weights.iter().sum();
        if !total.is_finite() {
            return Err(DistError::BadParameter {
                reason: format!("weights sum to {total}"),
            });
        }
        if total <= 0.0 {
            return Err(DistError::ZeroTotalMass);
        }
        let pmf: Vec<f64> = weights.iter().map(|w| w / total).collect();
        Ok(Self::from_normalized(pmf))
    }

    /// Builds a distribution from an (already normalized) pmf.
    ///
    /// Fails like [`DenseDistribution::from_weights`], plus
    /// [`DistError::BadParameter`] when the mass is not 1 within `1e-6`
    /// (the residual rounding is then renormalized away exactly).
    pub fn from_pmf(pmf: Vec<f64>) -> Result<Self, DistError> {
        if pmf.is_empty() {
            return Err(DistError::EmptyDomain);
        }
        let total: f64 = pmf.iter().sum();
        if (total - 1.0).abs() > 1e-6 {
            return Err(DistError::BadParameter {
                reason: format!("pmf sums to {total}, not 1"),
            });
        }
        Self::from_weights(&pmf)
    }

    /// The uniform distribution over `[n]`.
    pub fn uniform(n: usize) -> Result<Self, DistError> {
        if n == 0 {
            return Err(DistError::EmptyDomain);
        }
        Ok(Self::from_normalized(vec![1.0 / n as f64; n]))
    }

    fn from_normalized(pmf: Vec<f64>) -> Self {
        let n = pmf.len();
        let mut prefix_mass = Vec::with_capacity(n + 1);
        let mut prefix_power = Vec::with_capacity(n + 1);
        prefix_mass.push(0.0);
        prefix_power.push(0.0);
        let (mut m, mut q) = (0.0f64, 0.0f64);
        for &p in &pmf {
            m += p;
            q += p * p;
            prefix_mass.push(m);
            prefix_power.push(q);
        }
        DenseDistribution {
            pmf,
            prefix_mass,
            prefix_power,
        }
    }

    /// Domain size `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.pmf.len()
    }

    /// Probability mass of element `i`.
    ///
    /// # Panics
    /// Panics when `i ≥ n`.
    #[inline]
    pub fn mass(&self, i: usize) -> f64 {
        self.pmf[i]
    }

    /// The pmf as a slice.
    #[inline]
    pub fn pmf(&self) -> &[f64] {
        &self.pmf
    }

    /// The pmf as an owned vector.
    pub fn to_vec(&self) -> Vec<f64> {
        self.pmf.clone()
    }

    /// Interval weight `p(I) = Σ_{i∈I} p_i` in `O(1)`.
    ///
    /// # Panics
    /// Panics when the interval escapes the domain.
    #[inline]
    pub fn interval_mass(&self, iv: Interval) -> f64 {
        assert!(
            iv.hi() < self.n(),
            "interval {iv} outside domain {}",
            self.n()
        );
        self.prefix_mass[iv.hi() + 1] - self.prefix_mass[iv.lo()]
    }

    /// Restricted power sum `Σ_{i∈I} p_i²` in `O(1)`.
    ///
    /// # Panics
    /// Panics when the interval escapes the domain.
    #[inline]
    pub fn interval_power_sum(&self, iv: Interval) -> f64 {
        assert!(
            iv.hi() < self.n(),
            "interval {iv} outside domain {}",
            self.n()
        );
        self.prefix_power[iv.hi() + 1] - self.prefix_power[iv.lo()]
    }

    /// Flattening SSE of `I` (Equation 12):
    /// `Σ_{i∈I} p_i² − p(I)²/|I|` — the squared `ℓ₂` cost of replacing
    /// `p` on `I` by its mean. Clamped at 0 against rounding.
    pub fn flatten_sse(&self, iv: Interval) -> f64 {
        let mass = self.interval_mass(iv);
        (self.interval_power_sum(iv) - mass * mass / iv.len() as f64).max(0.0)
    }

    /// Squared `ℓ₂` norm `‖p‖₂² = Σ p_i²` (the collision probability).
    pub fn l2_norm_sq(&self) -> f64 {
        *self.prefix_power.last().expect("prefix array non-empty")
    }

    /// Shannon entropy in nats (`0·ln 0 = 0`).
    pub fn entropy(&self) -> f64 {
        -self
            .pmf
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| p * p.ln())
            .sum::<f64>()
    }

    /// Whether `p` restricted to `iv` is flat: the interval carries no
    /// mass (≤ `tol`), or every element is within relative tolerance
    /// `tol` of the interval mean (§2's "uniform or zero" criterion).
    pub fn is_flat(&self, iv: Interval, tol: f64) -> bool {
        let mass = self.interval_mass(iv);
        if mass <= tol {
            return true;
        }
        let mean = mass / iv.len() as f64;
        self.pmf[iv.lo()..=iv.hi()]
            .iter()
            .all(|&p| (p - mean).abs() <= tol * mean)
    }

    /// Draws one sample by inverse-CDF binary search (`O(log n)`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        // Smallest i with prefix_mass[i + 1] > u.
        let idx = self.prefix_mass[1..].partition_point(|&c| c <= u);
        idx.min(self.n() - 1)
    }

    /// Draws `m` i.i.d. samples.
    pub fn sample_many<R: Rng + ?Sized>(&self, m: usize, rng: &mut R) -> Vec<usize> {
        (0..m).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn iv(lo: usize, hi: usize) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    #[test]
    fn from_weights_normalizes() {
        let d = DenseDistribution::from_weights(&[1.0, 3.0]).unwrap();
        assert_eq!(d.n(), 2);
        assert!((d.mass(0) - 0.25).abs() < 1e-15);
        assert!((d.mass(1) - 0.75).abs() < 1e-15);
        assert!((d.pmf().iter().sum::<f64>() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn constructors_validate() {
        assert!(DenseDistribution::from_weights(&[]).is_err());
        assert!(DenseDistribution::from_weights(&[1.0, -0.5]).is_err());
        assert!(DenseDistribution::from_weights(&[f64::NAN]).is_err());
        assert!(DenseDistribution::from_weights(&[0.0, 0.0]).is_err());
        assert!(DenseDistribution::uniform(0).is_err());
        assert!(DenseDistribution::from_pmf(vec![0.3, 0.3]).is_err());
        assert!(DenseDistribution::from_pmf(vec![0.25; 4]).is_ok());
        // Individually finite weights whose sum overflows to +inf.
        assert!(DenseDistribution::from_weights(&[1e308, 1e308]).is_err());
    }

    #[test]
    fn interval_statistics_match_naive() {
        let d = DenseDistribution::from_weights(&[1.0, 2.0, 3.0, 4.0, 0.0, 6.0]).unwrap();
        for lo in 0..6 {
            for hi in lo..6 {
                let i = iv(lo, hi);
                let mass: f64 = (lo..=hi).map(|j| d.mass(j)).sum();
                let pow: f64 = (lo..=hi).map(|j| d.mass(j) * d.mass(j)).sum();
                assert!((d.interval_mass(i) - mass).abs() < 1e-14, "{i}");
                assert!((d.interval_power_sum(i) - pow).abs() < 1e-14, "{i}");
                let mean = mass / i.len() as f64;
                let sse: f64 = (lo..=hi).map(|j| (d.mass(j) - mean).powi(2)).sum();
                assert!((d.flatten_sse(i) - sse).abs() < 1e-13, "{i}");
            }
        }
    }

    #[test]
    fn flatten_sse_zero_on_flat_pieces() {
        let d = DenseDistribution::uniform(16).unwrap();
        assert!(d.flatten_sse(iv(0, 15)) < 1e-18);
        assert!(d.flatten_sse(iv(3, 11)) < 1e-18);
    }

    #[test]
    fn l2_norm_and_entropy() {
        let u = DenseDistribution::uniform(8).unwrap();
        assert!((u.l2_norm_sq() - 0.125).abs() < 1e-15);
        assert!((u.entropy() - (8.0f64).ln()).abs() < 1e-12);
        let point = DenseDistribution::from_weights(&[0.0, 1.0]).unwrap();
        assert!((point.l2_norm_sq() - 1.0).abs() < 1e-15);
        assert!(point.entropy().abs() < 1e-15);
    }

    #[test]
    fn is_flat_criteria() {
        let d = DenseDistribution::from_weights(&[1.0, 1.0, 2.0, 2.0, 0.0, 0.0]).unwrap();
        assert!(d.is_flat(iv(0, 1), 1e-9));
        assert!(d.is_flat(iv(2, 3), 1e-9));
        assert!(d.is_flat(iv(4, 5), 1e-9)); // zero mass
        assert!(!d.is_flat(iv(1, 2), 1e-9));
        assert!(!d.is_flat(iv(0, 5), 1e-9));
    }

    #[test]
    fn sampling_matches_pmf() {
        let d = DenseDistribution::from_weights(&[1.0, 0.0, 3.0, 4.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let m = 200_000;
        let mut counts = [0usize; 4];
        for s in d.sample_many(m, &mut rng) {
            counts[s] += 1;
        }
        assert_eq!(counts[1], 0, "zero-mass element sampled");
        for (i, &c) in counts.iter().enumerate() {
            let freq = c as f64 / m as f64;
            assert!(
                (freq - d.mass(i)).abs() < 0.01,
                "element {i}: freq {freq} vs mass {}",
                d.mass(i)
            );
        }
    }

    #[test]
    fn sample_always_in_domain() {
        let d = DenseDistribution::uniform(3).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        assert!(d.sample_many(10_000, &mut rng).iter().all(|&s| s < 3));
    }
}
