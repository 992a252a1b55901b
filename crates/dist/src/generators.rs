//! Instance generators: the workload families the paper's algorithms are
//! exercised on, plus the hard instances behind its lower bound.
//!
//! In-class instances (exact tiling histograms): [`staircase`],
//! [`two_level`], [`spike_comb`], [`random_tiling_histogram`],
//! [`random_tiling_histogram_distinct`]. Out-of-class shapes: [`zipf`],
//! [`geometric`], [`discrete_gaussian`], [`mixture`]. Far instances with
//! analytically known distances: [`zigzag`] (`ℓ₁`-far with cost ≈ c),
//! [`spike_comb`] at small `k` (`ℓ₂`-far, SSE ≥ `(s − ⌈k/2⌉)/(2s²)`),
//! [`half_empty_perturbation`] (the classical uniformity hard case,
//! generalized per-segment). The Theorem 5 YES/NO ensemble lives in
//! [`lower_bound`] and is re-exported here.

use rand::Rng;

use crate::dense::DenseDistribution;
use crate::error::DistError;
use crate::interval::{equal_partition, Interval};
use crate::tiling::TilingHistogram;

pub mod lower_bound;

pub use lower_bound::{no_instance, yes_instance, LowerBoundInstance};

/// The increasing staircase: `k` equal-length segments, segment `j`
/// carrying weight proportional to `j + 1` (distinct adjacent densities,
/// flat inside each segment) — an exact tiling `k`-histogram.
pub fn staircase(n: usize, k: usize) -> Result<DenseDistribution, DistError> {
    let parts = equal_partition(n, k)?;
    let mut w = vec![0.0f64; n];
    for (j, iv) in parts.iter().enumerate() {
        let per_element = (j + 1) as f64 / iv.len() as f64;
        for slot in &mut w[iv.lo()..=iv.hi()] {
            *slot = per_element;
        }
    }
    DenseDistribution::from_weights(&w)
}

/// Two-level histogram: the first `⌈split·n⌉` elements share `head_mass`
/// uniformly, the rest share `1 − head_mass` uniformly. `split` and
/// `head_mass` must lie in `(0, 1)` and both levels must be non-empty.
pub fn two_level(n: usize, split: f64, head_mass: f64) -> Result<DenseDistribution, DistError> {
    if n == 0 {
        return Err(DistError::EmptyDomain);
    }
    if !(0.0 < split && split < 1.0 && 0.0 < head_mass && head_mass < 1.0) {
        return Err(DistError::BadParameter {
            reason: format!("split {split} and head_mass {head_mass} must lie in (0, 1)"),
        });
    }
    // ceil with a rounding guard so e.g. 0.2·10 lands on 2, not 3.
    let head_len = ((split * n as f64) - 1e-9).ceil().max(1.0) as usize;
    if head_len >= n {
        return Err(DistError::BadParameter {
            reason: format!("head of length {head_len} leaves no tail in [0, {n})"),
        });
    }
    let mut w = vec![(1.0 - head_mass) / (n - head_len) as f64; n];
    for slot in &mut w[..head_len] {
        *slot = head_mass / head_len as f64;
    }
    DenseDistribution::from_weights(&w)
}

/// Zipf law: `p_i ∝ (i + 1)^{−s}` with `s ≥ 0`.
pub fn zipf(n: usize, s: f64) -> Result<DenseDistribution, DistError> {
    if !(s.is_finite() && s >= 0.0) {
        return Err(DistError::BadParameter {
            reason: format!("zipf exponent {s} must be a finite non-negative number"),
        });
    }
    if n == 0 {
        return Err(DistError::EmptyDomain);
    }
    let w: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-s)).collect();
    DenseDistribution::from_weights(&w)
}

/// Geometric decay: `p_i ∝ r^i` with `r ∈ (0, 1]` (monotone
/// non-increasing; `r = 1` is uniform).
pub fn geometric(n: usize, r: f64) -> Result<DenseDistribution, DistError> {
    if !(r.is_finite() && 0.0 < r && r <= 1.0) {
        return Err(DistError::BadParameter {
            reason: format!("geometric ratio {r} must lie in (0, 1]"),
        });
    }
    if n == 0 {
        return Err(DistError::EmptyDomain);
    }
    let mut w = Vec::with_capacity(n);
    let mut cur = 1.0f64;
    for _ in 0..n {
        w.push(cur);
        cur *= r;
    }
    DenseDistribution::from_weights(&w)
}

/// Discretized Gaussian: `p_i ∝ exp(−(i − mean)²/(2·sd²))`, `sd > 0`.
pub fn discrete_gaussian(n: usize, mean: f64, sd: f64) -> Result<DenseDistribution, DistError> {
    if !(sd.is_finite() && sd > 0.0 && mean.is_finite()) {
        return Err(DistError::BadParameter {
            reason: format!("gaussian mean {mean} / sd {sd} invalid"),
        });
    }
    if n == 0 {
        return Err(DistError::EmptyDomain);
    }
    let w: Vec<f64> = (0..n)
        .map(|i| {
            let z = (i as f64 - mean) / sd;
            (-0.5 * z * z).exp()
        })
        .collect();
    DenseDistribution::from_weights(&w)
}

/// Convex mixture `Σ_j w_j · p_j` of distributions over one domain
/// (weights are renormalized).
pub fn mixture(components: &[(f64, DenseDistribution)]) -> Result<DenseDistribution, DistError> {
    let Some(((_, first), rest)) = components.split_first() else {
        return Err(DistError::BadParameter {
            reason: "mixture needs at least one component".into(),
        });
    };
    let n = first.n();
    if let Some((_, q)) = rest.iter().find(|(_, q)| q.n() != n) {
        return Err(DistError::BadParameter {
            reason: format!("mixture component domains differ: {} vs {n}", q.n()),
        });
    }
    if let Some((w, _)) = components.iter().find(|(w, _)| !w.is_finite() || *w < 0.0) {
        return Err(DistError::BadParameter {
            reason: format!("mixture weight {w} is negative or not finite"),
        });
    }
    let mut w = vec![0.0f64; n];
    for (weight, q) in components {
        for (slot, &p) in w.iter_mut().zip(q.pmf()) {
            *slot += weight * p;
        }
    }
    DenseDistribution::from_weights(&w)
}

/// Alternating zigzag around uniform: `p_i = (1 ± c)/n` (`+` on even
/// indices). Requires `c ∈ (0, 1)` and even `n ≥ 2` so the weights are a
/// distribution exactly; its `ℓ₁` distance from every `k ≪ n` histogram is
/// ≈ `c` and its `k = 1` flattening SSE is exactly `c²/n`.
pub fn zigzag(n: usize, c: f64) -> Result<DenseDistribution, DistError> {
    if !(c.is_finite() && 0.0 < c && c < 1.0) {
        return Err(DistError::BadParameter {
            reason: format!("zigzag amplitude {c} must lie in (0, 1)"),
        });
    }
    if n == 0 {
        return Err(DistError::EmptyDomain);
    }
    if !n.is_multiple_of(2) {
        return Err(DistError::BadParameter {
            reason: format!("zigzag needs an even domain, got n = {n}"),
        });
    }
    let w: Vec<f64> = (0..n)
        .map(|i| if i % 2 == 0 { 1.0 + c } else { 1.0 - c })
        .collect();
    DenseDistribution::from_weights(&w)
}

/// Comb of `s` single-point spikes of mass `1/s` each, evenly spaced at
/// `(2i+1)·n/(2s)`, zero elsewhere. An exact tiling `(2s+1)`-histogram
/// whose distance from small-`k` histograms is analytic: any `k`-piece
/// flattening misses ≥ `s − ⌈k/2⌉` spikes, each costing ≥ `1/(2s²)` in
/// SSE (a missed spike of mass `1/s` flattened over ≥ 2 points). Requires
/// `n ≥ 2s`.
pub fn spike_comb(n: usize, s: usize) -> Result<DenseDistribution, DistError> {
    if n == 0 {
        return Err(DistError::EmptyDomain);
    }
    if s == 0 || 2 * s > n {
        return Err(DistError::BadParameter {
            reason: format!("spike count {s} must satisfy 1 ≤ s ≤ n/2 (n = {n})"),
        });
    }
    let mut w = vec![0.0f64; n];
    for i in 0..s {
        w[(2 * i + 1) * n / (2 * s)] = 1.0;
    }
    DenseDistribution::from_weights(&w)
}

/// Chooses `⌊len/2⌋` distinct positions of `iv` uniformly at random
/// (partial Fisher–Yates).
fn random_half<R: Rng + ?Sized>(iv: Interval, rng: &mut R) -> Vec<usize> {
    let mut idx: Vec<usize> = (iv.lo()..=iv.hi()).collect();
    let half = idx.len() / 2;
    for j in 0..half {
        let pick = rng.random_range(j..idx.len());
        idx.swap(j, pick);
    }
    idx.truncate(half);
    idx
}

/// Replaces the conditional distribution of `iv` (carrying `mass`) by
/// "uniform on a random half": `⌊len/2⌋` random positions share `mass`
/// equally, the rest drop to zero. Bucket marginals are preserved
/// exactly.
fn perturb_half_empty<R: Rng + ?Sized>(w: &mut [f64], iv: Interval, mass: f64, rng: &mut R) {
    let chosen = random_half(iv, rng);
    let per = mass / chosen.len() as f64;
    for slot in &mut w[iv.lo()..=iv.hi()] {
        *slot = 0.0;
    }
    for i in chosen {
        w[i] = per;
    }
}

/// The staircase with the first `t` of its `k` segments perturbed to
/// "uniform on a random half" (segment volumes preserved exactly).
///
/// `k = t = 1` is the classical uniformity-testing hard instance: uniform
/// on a random half of the domain, `‖p‖₂² = 2/n`, `ℓ₁` distance 1 from
/// uniform yet `ℓ₂` distance only `1/√n`. Requires `1 ≤ t ≤ k` and
/// segments of length ≥ 2.
pub fn half_empty_perturbation<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    t: usize,
    rng: &mut R,
) -> Result<DenseDistribution, DistError> {
    if t == 0 || t > k {
        return Err(DistError::BadParameter {
            reason: format!("must perturb between 1 and k = {k} segments, got {t}"),
        });
    }
    let base = staircase(n, k)?;
    let parts = equal_partition(n, k)?;
    let mut w = base.to_vec();
    for iv in parts.iter().take(t) {
        if iv.len() < 2 {
            return Err(DistError::BadParameter {
                reason: format!("segment {iv} too short to half-empty"),
            });
        }
        let mass = base.interval_mass(*iv);
        perturb_half_empty(&mut w, *iv, mass, rng);
    }
    DenseDistribution::from_weights(&w)
}

/// A uniformly random tiling `k`-histogram: `k − 1` distinct random cuts
/// and i.i.d. random piece densities in `[0.1, 1)`. Returns the raw
/// (unnormalized) histogram together with its normalized distribution.
pub fn random_tiling_histogram<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    rng: &mut R,
) -> Result<(TilingHistogram, DenseDistribution), DistError> {
    if n == 0 {
        return Err(DistError::EmptyDomain);
    }
    if k == 0 || k > n {
        return Err(DistError::BadParameter {
            reason: format!("cannot place {k} pieces on {n} points"),
        });
    }
    let mut cuts = std::collections::BTreeSet::new();
    while cuts.len() < k - 1 {
        cuts.insert(rng.random_range(1..n));
    }
    let mut bounds: Vec<usize> = Vec::with_capacity(k + 1);
    bounds.push(0);
    bounds.extend(cuts);
    bounds.push(n);
    let values: Vec<f64> = (0..k).map(|_| rng.random_range(0.1..1.0)).collect();
    finish_random_histogram(bounds, values)
}

/// Like [`random_tiling_histogram`], but engineered to be *unambiguously*
/// `k`-piece: boundaries are jittered around the equal partition (every
/// piece keeps length ≥ `n/(2k)`) and adjacent densities differ by at
/// least 0.2 absolutely (≥ 20 % relatively), so learners and testers see
/// exactly `k` well-separated levels. Requires `n ≥ 2k`.
pub fn random_tiling_histogram_distinct<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    rng: &mut R,
) -> Result<(TilingHistogram, DenseDistribution), DistError> {
    if n == 0 {
        return Err(DistError::EmptyDomain);
    }
    if k == 0 || 2 * k > n {
        return Err(DistError::BadParameter {
            reason: format!("need n ≥ 2k for distinct pieces (n = {n}, k = {k})"),
        });
    }
    let mut bounds: Vec<usize> = Vec::with_capacity(k + 1);
    bounds.push(0);
    for j in 1..k {
        let base = j * n / k;
        let amp = n / (4 * k);
        let jitter = if amp == 0 {
            0i64
        } else {
            rng.random_range(0..=2 * amp as u64) as i64 - amp as i64
        };
        let prev = *bounds.last().expect("bounds non-empty");
        let b = (base as i64 + jitter)
            .max(prev as i64 + 1)
            .min((n - (k - j)) as i64) as usize;
        bounds.push(b);
    }
    bounds.push(n);
    let mut values: Vec<f64> = Vec::with_capacity(k);
    for _ in 0..k {
        let v = loop {
            let v: f64 = rng.random_range(0.25..1.0);
            match values.last() {
                Some(&prev) if (v - prev).abs() < 0.2 => continue,
                _ => break v,
            }
        };
        values.push(v);
    }
    finish_random_histogram(bounds, values)
}

fn finish_random_histogram(
    bounds: Vec<usize>,
    values: Vec<f64>,
) -> Result<(TilingHistogram, DenseDistribution), DistError> {
    let h = TilingHistogram::new(bounds, values)?;
    let d = h.to_distribution()?;
    Ok((h, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_normalized(p: &DenseDistribution) {
        let total: f64 = p.pmf().iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "total {total}");
        assert!(p.pmf().iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn every_generator_returns_a_distribution() {
        let mut rng = StdRng::seed_from_u64(1);
        let singles: Vec<DenseDistribution> = vec![
            staircase(64, 4).unwrap(),
            two_level(64, 0.25, 0.75).unwrap(),
            zipf(64, 1.1).unwrap(),
            geometric(64, 0.97).unwrap(),
            discrete_gaussian(64, 30.0, 8.0).unwrap(),
            zigzag(64, 0.9).unwrap(),
            spike_comb(64, 8).unwrap(),
            half_empty_perturbation(64, 4, 2, &mut rng).unwrap(),
            random_tiling_histogram(64, 5, &mut rng).unwrap().1,
            random_tiling_histogram_distinct(64, 5, &mut rng).unwrap().1,
            yes_instance(64, 4).unwrap().dist,
            no_instance(64, 4, &mut rng).unwrap().dist,
            mixture(&[
                (0.5, discrete_gaussian(64, 16.0, 4.0).unwrap()),
                (0.5, discrete_gaussian(64, 48.0, 4.0).unwrap()),
            ])
            .unwrap(),
        ];
        for p in &singles {
            assert_eq!(p.n(), 64);
            assert_normalized(p);
        }
    }

    #[test]
    fn staircase_structure() {
        let p = staircase(12, 3).unwrap();
        // Segment masses ∝ 1, 2, 3.
        let iv = |a, b| Interval::new(a, b).unwrap();
        assert!((p.interval_mass(iv(0, 3)) - 1.0 / 6.0).abs() < 1e-12);
        assert!((p.interval_mass(iv(4, 7)) - 2.0 / 6.0).abs() < 1e-12);
        assert!((p.interval_mass(iv(8, 11)) - 3.0 / 6.0).abs() < 1e-12);
        // Flat inside, stepped across.
        assert!(p.is_flat(iv(0, 3), 1e-9));
        assert!(p.is_flat(iv(4, 7), 1e-9));
        assert!(!p.is_flat(iv(2, 6), 1e-9));
        // k = 1 degenerates to uniform.
        let u = staircase(8, 1).unwrap();
        assert!((u.mass(0) - 0.125).abs() < 1e-15);
    }

    #[test]
    fn two_level_masses() {
        // First 2 of 10 elements carry 0.8 (0.4 each).
        let p = two_level(10, 0.2, 0.8).unwrap();
        assert!((p.mass(0) - 0.4).abs() < 1e-12);
        assert!((p.mass(5) - 0.025).abs() < 1e-12);
        // 0.02 · 256 → six head elements.
        let p = two_level(256, 0.02, 0.9).unwrap();
        let head: f64 = (0..6).map(|i| p.mass(i)).sum();
        assert!((head - 0.9).abs() < 1e-9);
        assert!(p.mass(6) < p.mass(5) / 10.0);
        assert!(two_level(10, 0.0, 0.5).is_err());
        assert!(two_level(10, 0.5, 1.5).is_err());
        assert!(two_level(1, 0.5, 0.5).is_err());
    }

    #[test]
    fn zipf_and_geometric_are_monotone() {
        for p in [zipf(50, 1.2).unwrap(), geometric(50, 0.9).unwrap()] {
            for i in 1..50 {
                assert!(p.mass(i) <= p.mass(i - 1) + 1e-15);
            }
        }
        // zipf(·, 0) is uniform.
        let u = zipf(10, 0.0).unwrap();
        assert!((u.mass(3) - 0.1).abs() < 1e-12);
        assert!(zipf(10, -1.0).is_err());
        assert!(geometric(10, 0.0).is_err());
        assert!(geometric(10, 1.5).is_err());
    }

    #[test]
    fn gaussian_peaks_at_mean() {
        let p = discrete_gaussian(64, 20.0, 5.0).unwrap();
        let argmax = (0..64)
            .max_by(|&a, &b| p.mass(a).total_cmp(&p.mass(b)))
            .unwrap();
        assert_eq!(argmax, 20);
        assert!(discrete_gaussian(64, 20.0, 0.0).is_err());
    }

    #[test]
    fn mixture_combines_and_validates() {
        let a = DenseDistribution::from_weights(&[1.0, 0.0]).unwrap();
        let b = DenseDistribution::from_weights(&[0.0, 1.0]).unwrap();
        let m = mixture(&[(0.25, a.clone()), (0.75, b.clone())]).unwrap();
        assert!((m.mass(0) - 0.25).abs() < 1e-12);
        assert!(mixture(&[]).is_err());
        let c3 = DenseDistribution::uniform(3).unwrap();
        assert!(mixture(&[(0.5, a.clone()), (0.5, c3)]).is_err());
        assert!(mixture(&[(-1.0, a), (2.0, b)]).is_err());
    }

    #[test]
    fn zigzag_exact_form() {
        let p = zigzag(64, 0.8).unwrap();
        for i in 0..64 {
            let expect = if i % 2 == 0 { 1.8 / 64.0 } else { 0.2 / 64.0 };
            assert!((p.mass(i) - expect).abs() < 1e-14, "at {i}");
        }
        assert!(zigzag(63, 0.8).is_err());
        assert!(zigzag(64, 0.0).is_err());
        assert!(zigzag(64, 1.0).is_err());
    }

    #[test]
    fn spike_comb_structure() {
        let p = spike_comb(64, 8).unwrap();
        let spikes: Vec<usize> = (0..64).filter(|&i| p.mass(i) > 0.0).collect();
        assert_eq!(spikes, vec![4, 12, 20, 28, 36, 44, 52, 60]);
        for &s in &spikes {
            assert!((p.mass(s) - 0.125).abs() < 1e-12);
        }
        assert!(spike_comb(64, 0).is_err());
        assert!(spike_comb(8, 5).is_err());
    }

    #[test]
    fn half_empty_preserves_segment_masses() {
        let mut rng = StdRng::seed_from_u64(3);
        let base = staircase(128, 4).unwrap();
        let p = half_empty_perturbation(128, 4, 4, &mut rng).unwrap();
        for iv in equal_partition(128, 4).unwrap() {
            assert!(
                (p.interval_mass(iv) - base.interval_mass(iv)).abs() < 1e-9,
                "segment {iv} mass changed"
            );
            // Exactly half the segment's elements went silent.
            let zeros = (iv.lo()..=iv.hi()).filter(|&i| p.mass(i) == 0.0).count();
            assert_eq!(zeros, iv.len() / 2, "segment {iv}");
        }
        // Classical hard instance: ‖p‖₂² = 2/n.
        let h = half_empty_perturbation(1024, 1, 1, &mut rng).unwrap();
        assert!((h.l2_norm_sq() - 2.0 / 1024.0).abs() < 1e-9);
        assert!(half_empty_perturbation(64, 4, 0, &mut rng).is_err());
        assert!(half_empty_perturbation(64, 4, 5, &mut rng).is_err());
    }

    #[test]
    fn random_histograms_are_valid_and_k_piece() {
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..20 {
            let k = 2 + trial % 5;
            let (h, d) = random_tiling_histogram(60, k, &mut rng).unwrap();
            assert_eq!(h.piece_count(), k);
            assert_eq!(d.n(), 60);
            assert_normalized(&d);
            let (h, d) = random_tiling_histogram_distinct(60, k, &mut rng).unwrap();
            assert_eq!(h.piece_count(), k);
            assert_normalized(&d);
            // Distinct variant: adjacent densities separated, decent pieces.
            let pieces: Vec<(Interval, f64)> = h.pieces().collect();
            for w in pieces.windows(2) {
                assert!(
                    (w[0].1 - w[1].1).abs() >= 0.2 - 1e-12,
                    "adjacent densities too close: {} vs {}",
                    w[0].1,
                    w[1].1
                );
            }
            for (iv, _) in &pieces {
                assert!(iv.len() >= 60 / (2 * k), "piece {iv} too short for k = {k}");
            }
        }
        assert!(random_tiling_histogram(10, 11, &mut rng).is_err());
        assert!(random_tiling_histogram_distinct(10, 6, &mut rng).is_err());
    }

    #[test]
    fn distinct_histogram_has_zero_k_flattening_cost() {
        let mut rng = StdRng::seed_from_u64(9);
        let (h, d) = random_tiling_histogram_distinct(96, 4, &mut rng).unwrap();
        // Projecting d on h's own cuts recovers d exactly.
        let proj = TilingHistogram::project(&d, h.interior_cuts()).unwrap();
        assert!(proj.l2_sq_to(&d) < 1e-12);
    }
}
