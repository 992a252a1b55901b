//! Tiling histograms: piecewise-constant functions on a partition of `[n]`.
//!
//! A *tiling `k`-histogram* (the paper's Definition 1) is determined by
//! `k` consecutive intervals covering `[n]` and one density per interval.
//! This type stores the `k + 1` piece boundaries plus the `k` densities —
//! the `O(k)`-numbers representation the introduction advertises — and
//! answers evaluation in `O(log k)` and squared-`ℓ₂` distance to a dense
//! distribution in `O(k)` (via the distribution's prefix sums).

use crate::dense::DenseDistribution;
use crate::error::DistError;
use crate::interval::Interval;

/// A piecewise-constant function on a tiling of `[0, n)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TilingHistogram {
    /// Piece boundaries: `bounds[0] = 0 < bounds[1] < … < bounds[k] = n`;
    /// piece `j` covers `bounds[j] ..= bounds[j+1] − 1`.
    bounds: Vec<usize>,
    /// Density (per-element value) of each piece.
    values: Vec<f64>,
}

impl TilingHistogram {
    /// Builds a histogram from explicit boundaries and per-piece densities.
    ///
    /// `bounds` must be strictly increasing, start at 0, and have exactly
    /// one more entry than `values`; densities must be finite.
    pub fn new(bounds: Vec<usize>, values: Vec<f64>) -> Result<Self, DistError> {
        if bounds.len() != values.len() + 1 || values.is_empty() {
            return Err(DistError::BadTiling {
                reason: format!(
                    "{} boundaries do not delimit {} pieces",
                    bounds.len(),
                    values.len()
                ),
            });
        }
        if bounds[0] != 0 {
            return Err(DistError::BadTiling {
                reason: format!("first boundary is {}, not 0", bounds[0]),
            });
        }
        if let Some(w) = bounds.windows(2).find(|w| w[0] >= w[1]) {
            return Err(DistError::BadTiling {
                reason: format!("boundaries not strictly increasing at {} ≥ {}", w[0], w[1]),
            });
        }
        if let Some(v) = values.iter().find(|v| !v.is_finite()) {
            return Err(DistError::BadParameter {
                reason: format!("piece value {v} is not finite"),
            });
        }
        Ok(TilingHistogram { bounds, values })
    }

    /// The single-piece histogram with uniform density `1/n`.
    pub fn uniform(n: usize) -> Result<Self, DistError> {
        if n == 0 {
            return Err(DistError::EmptyDomain);
        }
        TilingHistogram::new(vec![0, n], vec![1.0 / n as f64])
    }

    /// Flattens `p` onto the partition given by interior `cuts` (each cut
    /// is the first index of a new piece): each piece gets its mean
    /// density `p(I)/|I|` — the `ℓ₂`-optimal values for that partition
    /// (Equation 11).
    ///
    /// `cuts` must be strictly increasing and lie in `(0, n)`; an empty
    /// slice yields the single-piece flattening.
    pub fn project(p: &DenseDistribution, cuts: &[usize]) -> Result<Self, DistError> {
        let n = p.n();
        let mut bounds = Vec::with_capacity(cuts.len() + 2);
        bounds.push(0);
        for &c in cuts {
            if c == 0 || c >= n {
                return Err(DistError::BadTiling {
                    reason: format!("cut {c} outside (0, {n})"),
                });
            }
            bounds.push(c);
        }
        bounds.push(n);
        let mut values = Vec::with_capacity(bounds.len() - 1);
        for w in bounds.windows(2) {
            let iv = Interval::new(w[0], w[1] - 1)?;
            values.push(p.interval_mass(iv) / iv.len() as f64);
        }
        TilingHistogram::new(bounds, values)
    }

    /// Builds a histogram from `(interval, density)` pieces that must tile
    /// `[0, n)` in order.
    pub fn from_pieces(pieces: &[(Interval, f64)], n: usize) -> Result<Self, DistError> {
        if pieces.is_empty() || n == 0 {
            return Err(DistError::EmptyDomain);
        }
        let mut bounds = Vec::with_capacity(pieces.len() + 1);
        let mut values = Vec::with_capacity(pieces.len());
        let mut expected = 0usize;
        for &(iv, v) in pieces {
            if iv.lo() != expected {
                return Err(DistError::BadTiling {
                    reason: format!("piece {iv} does not start at {expected}"),
                });
            }
            bounds.push(iv.lo());
            values.push(v);
            expected = iv.hi() + 1;
        }
        if expected != n {
            return Err(DistError::BadTiling {
                reason: format!("pieces cover [0, {expected}), domain is [0, {n})"),
            });
        }
        bounds.push(n);
        TilingHistogram::new(bounds, values)
    }

    /// Domain size `n`.
    #[inline]
    pub fn n(&self) -> usize {
        *self.bounds.last().expect("bounds non-empty")
    }

    /// Number of pieces `k`.
    #[inline]
    pub fn piece_count(&self) -> usize {
        self.values.len()
    }

    /// Iterates over `(interval, density)` pieces in order.
    pub fn pieces(&self) -> impl Iterator<Item = (Interval, f64)> + '_ {
        self.bounds.windows(2).zip(&self.values).map(|(w, &v)| {
            (
                Interval::new(w[0], w[1] - 1).expect("boundaries strictly increasing"),
                v,
            )
        })
    }

    /// Interior piece boundaries (every `bounds` entry except 0 and `n`).
    pub fn interior_cuts(&self) -> &[usize] {
        &self.bounds[1..self.bounds.len() - 1]
    }

    /// Density at element `i` in `O(log k)`.
    ///
    /// # Panics
    /// Panics when `i ≥ n`.
    pub fn evaluate(&self, i: usize) -> f64 {
        assert!(i < self.n(), "index {i} outside domain {}", self.n());
        let piece = self.bounds.partition_point(|&b| b <= i) - 1;
        self.values[piece]
    }

    /// Expands to a dense vector of densities.
    pub fn to_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n());
        for (iv, v) in self.pieces() {
            out.extend(std::iter::repeat_n(v, iv.len()));
        }
        out
    }

    /// Total mass `Σ |I|·v_I`.
    pub fn total_mass(&self) -> f64 {
        self.pieces().map(|(iv, v)| iv.len() as f64 * v).sum()
    }

    /// Whether the histogram is a distribution within tolerance: mass
    /// `1 ± tol` and no density below `−tol`.
    pub fn is_distribution(&self, tol: f64) -> bool {
        (self.total_mass() - 1.0).abs() <= tol && self.values.iter().all(|&v| v >= -tol)
    }

    /// The same partition rescaled to total mass 1.
    pub fn normalized(&self) -> Result<TilingHistogram, DistError> {
        let total = self.total_mass();
        if total <= 0.0 {
            return Err(DistError::ZeroTotalMass);
        }
        TilingHistogram::new(
            self.bounds.clone(),
            self.values.iter().map(|v| v / total).collect(),
        )
    }

    /// Materializes the histogram as a dense distribution (normalizing).
    pub fn to_distribution(&self) -> Result<DenseDistribution, DistError> {
        DenseDistribution::from_weights(&self.to_vec())
    }

    /// Squared `ℓ₂` distance `‖p − H‖₂²` to a dense distribution in
    /// `O(k)`: per piece, `Σ_{i∈I}(p_i − v)² = pow(I) − 2v·p(I) + v²|I|`.
    ///
    /// # Panics
    /// Panics when the domains differ.
    pub fn l2_sq_to(&self, p: &DenseDistribution) -> f64 {
        assert_eq!(self.n(), p.n(), "domain mismatch");
        let mut acc = 0.0;
        for (iv, v) in self.pieces() {
            acc +=
                p.interval_power_sum(iv) - 2.0 * v * p.interval_mass(iv) + v * v * iv.len() as f64;
        }
        acc.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: usize, hi: usize) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    #[test]
    fn new_validates_structure() {
        assert!(TilingHistogram::new(vec![0, 4, 8], vec![0.1, 0.15]).is_ok());
        assert!(TilingHistogram::new(vec![0, 4], vec![0.1, 0.2]).is_err()); // count
        assert!(TilingHistogram::new(vec![1, 4], vec![0.1]).is_err()); // start
        assert!(TilingHistogram::new(vec![0, 4, 4], vec![0.1, 0.2]).is_err()); // order
        assert!(TilingHistogram::new(vec![0, 4], vec![f64::NAN]).is_err());
        assert!(TilingHistogram::new(vec![0], vec![]).is_err());
    }

    #[test]
    fn uniform_is_distribution() {
        let h = TilingHistogram::uniform(8).unwrap();
        assert_eq!(h.piece_count(), 1);
        assert!(h.is_distribution(1e-15));
        assert!((h.evaluate(3) - 0.125).abs() < 1e-15);
        assert!(TilingHistogram::uniform(0).is_err());
    }

    #[test]
    fn project_uses_interval_means() {
        let p = DenseDistribution::from_weights(&[4.0, 2.0, 1.0, 1.0]).unwrap();
        let h = TilingHistogram::project(&p, &[2]).unwrap();
        assert_eq!(h.piece_count(), 2);
        assert!((h.evaluate(0) - 0.375).abs() < 1e-15);
        assert!((h.evaluate(3) - 0.125).abs() < 1e-15);
        assert!(h.is_distribution(1e-12));
        assert_eq!(h.interior_cuts(), vec![2]);
        // invalid cuts
        assert!(TilingHistogram::project(&p, &[0]).is_err());
        assert!(TilingHistogram::project(&p, &[4]).is_err());
    }

    #[test]
    fn from_pieces_round_trip() {
        let pieces = vec![(iv(0, 2), 0.1), (iv(3, 7), 0.14)];
        let h = TilingHistogram::from_pieces(&pieces, 8).unwrap();
        let collected: Vec<(Interval, f64)> = h.pieces().collect();
        assert_eq!(collected, pieces);
        // defects
        assert!(TilingHistogram::from_pieces(&[(iv(1, 7), 0.1)], 8).is_err());
        assert!(TilingHistogram::from_pieces(&[(iv(0, 6), 0.1)], 8).is_err());
        assert!(TilingHistogram::from_pieces(&[(iv(0, 2), 0.1), (iv(4, 7), 0.1)], 8).is_err());
        assert!(TilingHistogram::from_pieces(&[], 8).is_err());
    }

    #[test]
    fn evaluate_and_to_vec_agree() {
        let h = TilingHistogram::new(vec![0, 3, 8, 16], vec![0.1, 0.06, 0.05]).unwrap();
        let v = h.to_vec();
        assert_eq!(v.len(), 16);
        for (i, &x) in v.iter().enumerate() {
            assert!((h.evaluate(i) - x).abs() < 1e-18, "index {i}");
        }
    }

    #[test]
    fn total_mass_and_normalize() {
        let h = TilingHistogram::new(vec![0, 2, 4], vec![0.5, 0.25]).unwrap();
        assert!((h.total_mass() - 1.5).abs() < 1e-15);
        assert!(!h.is_distribution(1e-9));
        let n = h.normalized().unwrap();
        assert!(n.is_distribution(1e-12));
        assert!((n.evaluate(0) / n.evaluate(2) - 2.0).abs() < 1e-12);
        let zero = TilingHistogram::new(vec![0, 4], vec![0.0]).unwrap();
        assert!(zero.normalized().is_err());
    }

    #[test]
    fn l2_sq_matches_naive() {
        let p = DenseDistribution::from_weights(&[1.0, 5.0, 2.0, 2.0, 3.0, 3.0]).unwrap();
        let h = TilingHistogram::project(&p, &[2, 4]).unwrap();
        let naive: f64 = (0..6).map(|i| (p.mass(i) - h.evaluate(i)).powi(2)).sum();
        assert!((h.l2_sq_to(&p) - naive).abs() < 1e-15);
        // Projection onto the trivial partition: SSE = ‖p‖² − 1/n.
        let flat = TilingHistogram::project(&p, &[]).unwrap();
        let expect = p.l2_norm_sq() - 1.0 / 6.0;
        assert!((flat.l2_sq_to(&p) - expect).abs() < 1e-15);
    }

    #[test]
    fn to_distribution_normalizes() {
        let h = TilingHistogram::new(vec![0, 2, 4], vec![0.75, 0.25]).unwrap();
        let d = h.to_distribution().unwrap();
        let scale = 1.0 / h.total_mass();
        for i in 0..4 {
            assert!((d.mass(i) - h.evaluate(i) * scale).abs() < 1e-15);
        }
    }
}
