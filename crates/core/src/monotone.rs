//! Monotonicity testing via histogram reduction (BKR04 lineage, §1.3).
//!
//! The paper's related work singles out monotone-distribution testing as a
//! consumer of histogram approximations: "Several works in property testing
//! of distributions approximate the distribution by a small histogram
//! distribution and use this representation as an essential way in their
//! algorithm BKR04". This module implements that reduction:
//!
//! 1. **Birgé bucketing** — a monotone (non-increasing) distribution over
//!    `[n]` is `ε`-close in `ℓ₁` to its flattening over the *oblivious*
//!    geometric partition with bucket lengths `⌊(1+δ)ʲ⌋`, which has only
//!    `O(log(n)/δ)` buckets. So "monotone" reduces to "a specific
//!    `O(log n/ε)`-piece histogram whose bucket averages are non-increasing".
//! 2. **Empirical bucket means** — estimated from samples with one
//!    `SampleSet`, exactly the machinery of the main algorithms.
//! 3. **Isotonic projection (PAV)** — the pool-adjacent-violators algorithm
//!    computes the closest non-increasing step function to the bucket
//!    means; the tester accepts iff the projection distance plus the
//!    in-bucket flattening slack is small.
//!
//! [`pav_non_increasing`] (weighted least-squares isotonic regression) is a
//! classical substrate implemented from scratch and reusable on its own.

use khist_dist::{DistError, Interval, TilingHistogram};
use khist_oracle::{check_eps, SampleSet};

use crate::tester::TestOutcome;

/// The tester's budget, defined with every other budget in
/// [`khist_oracle::budget`].
pub use khist_oracle::monotonicity_budget;

/// The Birgé partition of `[n]`: consecutive intervals with lengths
/// `⌊(1+delta)ʲ⌋` (at least 1), `O(log(n)/delta)` buckets total.
pub fn birge_partition(n: usize, delta: f64) -> Result<Vec<Interval>, DistError> {
    if n == 0 {
        return Err(DistError::EmptyDomain);
    }
    if !(delta > 0.0 && delta <= 1.0) {
        return Err(DistError::BadParameter {
            reason: format!("delta = {delta} must be in (0, 1]"),
        });
    }
    let mut out = Vec::new();
    let mut lo = 0usize;
    let mut j = 0i32;
    while lo < n {
        let len = ((1.0 + delta).powi(j).floor() as usize).max(1);
        let hi = (lo + len - 1).min(n - 1);
        // lint:allow(no-panic): hi = max(lo, ...) >= lo by construction
        out.push(Interval::new(lo, hi).expect("lo ≤ hi"));
        lo = hi + 1;
        j += 1;
    }
    Ok(out)
}

/// Weighted least-squares isotonic regression onto *non-increasing*
/// sequences (pool-adjacent-violators).
///
/// Returns the non-increasing `fit` minimizing `Σ wᵢ (fitᵢ − valuesᵢ)²`.
///
/// # Panics
/// Panics when inputs are empty, lengths differ, or a weight is
/// non-positive.
pub fn pav_non_increasing(values: &[f64], weights: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "pav on empty input");
    assert_eq!(values.len(), weights.len(), "pav length mismatch");
    assert!(
        weights.iter().all(|&w| w > 0.0),
        "pav weights must be positive"
    );
    // Blocks of pooled indices: (mean, weight, count).
    let mut blocks: Vec<(f64, f64, usize)> = Vec::with_capacity(values.len());
    for (&v, &w) in values.iter().zip(weights) {
        blocks.push((v, w, 1));
        // Non-increasing constraint: previous mean must be ≥ current mean;
        // pool while violated (previous < current).
        while blocks.len() >= 2 {
            // lint:allow(checked-indexing): len >= 2 is the loop condition
            let cur = blocks[blocks.len() - 1];
            // lint:allow(checked-indexing): len >= 2 is the loop condition
            let prev = blocks[blocks.len() - 2];
            if prev.0 >= cur.0 {
                break;
            }
            let w_total = prev.1 + cur.1;
            let mean = (prev.0 * prev.1 + cur.0 * cur.1) / w_total;
            blocks.pop();
            blocks.pop();
            blocks.push((mean, w_total, prev.2 + cur.2));
        }
    }
    let mut out = Vec::with_capacity(values.len());
    for (mean, _, count) in blocks {
        out.extend(std::iter::repeat_n(mean, count));
    }
    out
}

/// Report of a monotonicity test.
#[derive(Debug, Clone, PartialEq)]
pub struct MonotonicityReport {
    /// Accept (consistent with a non-increasing distribution) or reject.
    pub outcome: TestOutcome,
    /// `ℓ₁` distance between the empirical Birgé flattening and its best
    /// non-increasing fit.
    pub isotonic_distance: f64,
    /// The decision threshold (`ε/2`).
    pub threshold: f64,
    /// Number of Birgé buckets used.
    pub buckets: usize,
    /// Samples consumed.
    pub samples_used: usize,
    /// On accept, the monotone histogram the test fitted: the Birgé
    /// flattening's isotonic projection, renormalized (a learned summary).
    pub fit: Option<TilingHistogram>,
}

/// Tests whether the sampled distribution is non-increasing (vs `ε`-far in
/// `ℓ₁` from every non-increasing distribution) from a pre-drawn sample
/// multiset (to draw it from a [`khist_oracle::SampleOracle`], run a
/// [`Monotone`](crate::api::Monotone) request).
pub fn test_monotone_from_set(
    n: usize,
    eps: f64,
    set: &SampleSet,
) -> Result<MonotonicityReport, DistError> {
    check_eps(eps)?;
    if set.is_empty() {
        return Err(DistError::BadParameter {
            reason: "need at least one sample".into(),
        });
    }
    // Birgé resolution δ = ε/2: flattening a truly monotone p over these
    // buckets moves it by ≤ ε/2 in ℓ₁ (Birgé's bound), so the isotonic
    // residual of a monotone p stays below the ε/2 threshold w.h.p.
    let partition = birge_partition(n, eps / 2.0)?;
    let buckets = partition.len();
    // Empirical bucket densities (bucket mass / length).
    let densities: Vec<f64> = partition
        .iter()
        .map(|iv| set.empirical_mass(*iv) / iv.len() as f64)
        .collect();
    let lengths: Vec<f64> = partition.iter().map(|iv| iv.len() as f64).collect();
    // Project onto non-increasing step functions; weights = bucket lengths
    // so the least-squares pooling matches mass-weighted flattening.
    let fit = pav_non_increasing(&densities, &lengths);
    // ℓ₁ distance between the two step functions.
    let isotonic_distance: f64 = densities
        .iter()
        .zip(&fit)
        .zip(&lengths)
        .map(|((d, f), len)| (d - f).abs() * len)
        .sum();
    let threshold = eps / 2.0;
    let accepted = isotonic_distance <= threshold;
    let fit = if accepted {
        let pieces: Vec<(Interval, f64)> = partition.into_iter().zip(fit).collect();
        Some(TilingHistogram::from_pieces(&pieces, n)?.normalized()?)
    } else {
        None
    };
    Ok(MonotonicityReport {
        outcome: if accepted {
            TestOutcome::Accept
        } else {
            TestOutcome::Reject
        },
        isotonic_distance,
        threshold,
        buckets,
        samples_used: set.total() as usize,
        fit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Monotone, Session};
    use khist_dist::{generators, DenseDistribution};
    use khist_oracle::{DenseOracle, SampleOracle};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn birge_partition_covers_domain_geometrically() {
        let parts = birge_partition(1000, 0.5).unwrap();
        assert!(khist_dist::interval::is_tiling(&parts, 1000));
        // O(log n / delta) buckets — far fewer than n
        assert!(parts.len() < 40, "got {} buckets", parts.len());
        // lengths non-decreasing
        for w in parts.windows(2) {
            assert!(w[1].len() >= w[0].len() || w[1].hi() == 999);
        }
        assert!(birge_partition(0, 0.5).is_err());
        assert!(birge_partition(10, 0.0).is_err());
        assert!(birge_partition(10, 2.0).is_err());
    }

    #[test]
    fn pav_identity_on_sorted_input() {
        let v = [5.0, 4.0, 4.0, 1.0];
        let w = [1.0, 1.0, 1.0, 1.0];
        assert_eq!(pav_non_increasing(&v, &w), v.to_vec());
    }

    #[test]
    fn pav_pools_single_violation() {
        // [1, 3] violates non-increasing → pooled to their mean 2.
        let fit = pav_non_increasing(&[1.0, 3.0], &[1.0, 1.0]);
        assert_eq!(fit, vec![2.0, 2.0]);
    }

    #[test]
    fn pav_weighted_pooling() {
        // weights 3 and 1: pooled mean = (1·3 + 5·1)/4 = 2
        let fit = pav_non_increasing(&[1.0, 5.0], &[3.0, 1.0]);
        assert_eq!(fit, vec![2.0, 2.0]);
    }

    #[test]
    fn pav_cascading_pools() {
        let fit = pav_non_increasing(&[1.0, 2.0, 3.0], &[1.0, 1.0, 1.0]);
        assert_eq!(fit, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn pav_output_is_non_increasing_and_optimal_vs_input() {
        let v = [0.3, 0.5, 0.1, 0.4, 0.2, 0.2, 0.6];
        let w = [1.0, 2.0, 1.0, 3.0, 1.0, 1.0, 2.0];
        let fit = pav_non_increasing(&v, &w);
        for pair in fit.windows(2) {
            assert!(pair[0] >= pair[1] - 1e-12);
        }
        // PAV is the least-squares projection: any other monotone candidate
        // must cost at least as much. Spot-check against a few.
        let cost = |f: &[f64]| -> f64 {
            f.iter()
                .zip(&v)
                .zip(&w)
                .map(|((a, b), wt)| wt * (a - b) * (a - b))
                .sum()
        };
        let pav_cost = cost(&fit);
        let mean = v.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>() / w.iter().sum::<f64>();
        assert!(pav_cost <= cost(&vec![mean; v.len()]) + 1e-12);
        assert!(pav_cost <= cost(&[0.6, 0.5, 0.4, 0.3, 0.25, 0.2, 0.1]) + 1e-12);
    }

    #[test]
    #[should_panic(expected = "pav on empty input")]
    fn pav_rejects_empty() {
        pav_non_increasing(&[], &[]);
    }

    fn majority(p: &DenseDistribution, eps: f64, m: usize, seed: u64) -> TestOutcome {
        let mut rng = StdRng::seed_from_u64(seed);
        let accepts = (0..9)
            .filter(|_| {
                let mut session = Session::from_dense(p, rng.random());
                session
                    .run_one(Monotone::eps(eps).samples(m))
                    .unwrap()
                    .accepted()
            })
            .count();
        if accepts > 4 {
            TestOutcome::Accept
        } else {
            TestOutcome::Reject
        }
    }

    #[test]
    fn accepts_monotone_distributions() {
        let m = monotonicity_budget(512, 0.3, 1.0).unwrap();
        for p in [
            generators::zipf(512, 1.0).unwrap(),
            generators::geometric(512, 0.99).unwrap(),
            DenseDistribution::uniform(512).unwrap(),
        ] {
            assert_eq!(majority(&p, 0.3, m, 1), TestOutcome::Accept);
        }
    }

    #[test]
    fn rejects_increasing_distribution() {
        // Reversed zipf is as far from non-increasing as it gets.
        let z = generators::zipf(512, 1.2).unwrap();
        let rev: Vec<f64> = z.to_vec().into_iter().rev().collect();
        let p = DenseDistribution::from_pmf(rev).unwrap();
        let m = monotonicity_budget(512, 0.3, 1.0).unwrap();
        assert_eq!(majority(&p, 0.3, m, 2), TestOutcome::Reject);
    }

    #[test]
    fn rejects_bimodal() {
        let p = generators::mixture(&[
            (
                0.5,
                generators::discrete_gaussian(512, 100.0, 30.0).unwrap(),
            ),
            (
                0.5,
                generators::discrete_gaussian(512, 400.0, 30.0).unwrap(),
            ),
        ])
        .unwrap();
        let m = monotonicity_budget(512, 0.3, 1.0).unwrap();
        assert_eq!(majority(&p, 0.3, m, 3), TestOutcome::Reject);
    }

    #[test]
    fn monotone_fit_is_monotone_distribution() {
        let p = generators::zipf(256, 1.3).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let set = SampleSet::draw(&p, 50_000, &mut rng);
        let report = test_monotone_from_set(256, 0.2, &set).unwrap();
        let fit = report.fit.expect("an accepted test carries its fit");
        assert!(fit.is_distribution(1e-9));
        let v = fit.to_vec();
        for pair in v.windows(2) {
            assert!(pair[0] >= pair[1] - 1e-12, "fit not monotone");
        }
        // close to the truth in l1
        let err = khist_dist::distance::l1_fn(&v, &p.to_vec());
        assert!(err < 0.15, "fit l1 error {err}");
    }

    #[test]
    fn validation_errors() {
        let set = SampleSet::from_samples(vec![0, 1]);
        assert!(test_monotone_from_set(8, 1.5, &set).is_err());
        let empty = SampleSet::from_samples(vec![]);
        assert!(test_monotone_from_set(8, 0.3, &empty).is_err());
    }

    #[test]
    fn report_fields_are_consistent() {
        let p = generators::geometric(128, 0.95).unwrap();
        let set = DenseOracle::new(&p, 5).draw_set(20_000);
        let rep = test_monotone_from_set(128, 0.3, &set).unwrap();
        assert_eq!(rep.samples_used, 20_000);
        assert!(rep.buckets > 3 && rep.buckets < 128);
        assert!(rep.isotonic_distance >= 0.0);
        assert!((rep.threshold - 0.15).abs() < 1e-12);
    }

    mod pav_props {
        use super::super::pav_non_increasing;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_output_non_increasing(
                pairs in proptest::collection::vec((0.0f64..1.0, 0.1f64..5.0), 1..40),
            ) {
                let (v, w): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
                let fit = pav_non_increasing(&v, &w);
                prop_assert_eq!(fit.len(), v.len());
                for pair in fit.windows(2) {
                    prop_assert!(pair[0] >= pair[1] - 1e-12);
                }
            }

            #[test]
            fn prop_idempotent(
                pairs in proptest::collection::vec((0.0f64..1.0, 0.1f64..5.0), 1..40),
            ) {
                let (v, w): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
                let once = pav_non_increasing(&v, &w);
                let twice = pav_non_increasing(&once, &w);
                for (a, b) in once.iter().zip(&twice) {
                    prop_assert!((a - b).abs() < 1e-9);
                }
            }

            #[test]
            fn prop_preserves_weighted_mean(
                pairs in proptest::collection::vec((0.0f64..1.0, 0.1f64..5.0), 1..40),
            ) {
                // Pooling replaces blocks by weighted means, so the overall
                // weighted mean is invariant (mass conservation of the fit).
                let (v, w): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
                let fit = pav_non_increasing(&v, &w);
                let mean = |xs: &[f64]| -> f64 {
                    xs.iter().zip(&w).map(|(x, wt)| x * wt).sum::<f64>()
                        / w.iter().sum::<f64>()
                };
                prop_assert!((mean(&v) - mean(&fit)).abs() < 1e-9);
            }

            #[test]
            fn prop_beats_constant_fit(
                pairs in proptest::collection::vec((0.0f64..1.0, 0.1f64..5.0), 2..40),
                c in 0.0f64..1.0,
            ) {
                // The constant function c is monotone, so PAV (the optimal
                // monotone fit) can never cost more.
                let (v, w): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
                let fit = pav_non_increasing(&v, &w);
                let cost = |f: &[f64]| -> f64 {
                    f.iter().zip(&v).zip(&w)
                        .map(|((a, b), wt)| wt * (a - b) * (a - b)).sum()
                };
                prop_assert!(cost(&fit) <= cost(&vec![c; v.len()]) + 1e-9);
            }
        }
    }
}
