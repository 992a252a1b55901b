//! Collision-based uniformity testing — the `k = 1` ancestor of the
//! paper's testers (§1.3).
//!
//! A uniform distribution is a tiling 1-histogram, so uniformity testing is
//! the base case of the paper's problem. The lineage the paper cites:
//! Goldreich–Ron observed that the pairwise collision rate of a sample
//! estimates `‖p‖₂²`, Batu et al. turned that into an `Õ(√n)` `ℓ₁`
//! uniformity tester, and Paninski proved `Θ(√n)` optimal. This module
//! implements the classic standalone collision tester; its agreement with
//! the general tester at `k = 1` is verified in tests and it serves as an
//! independent cross-check in the harness.
//!
//! Decision rule: accept iff the collision statistic
//! `ẑ = coll(S)/C(m, 2)` satisfies `ẑ ≤ (1 + ε²) / n`. Under uniformity
//! `E[ẑ] = 1/n`; any `p` with `‖p − u‖₂² > 2ε²/n` (in particular any `p`
//! that is `ε√2`-far in `ℓ₁` scaled appropriately) pushes
//! `E[ẑ] = ‖p‖₂² = 1/n + ‖p − u‖₂²` past the threshold.

use khist_dist::{DistError, Interval};
use khist_oracle::{absolute_collision_estimate, check_eps, SampleSet};

use crate::tester::Decision;

/// The tester's budget, defined with every other budget in
/// [`khist_oracle::budget`].
pub use khist_oracle::UniformityBudget;

/// Report of a uniformity test: accept (looks uniform) or reject
/// (collision excess detected), on the collision statistic `ẑ` against
/// the threshold `(1 + ε²)/n`.
pub type UniformityReport = Decision;

/// Tests uniformity from a pre-drawn sample multiset (to draw it from a
/// [`khist_oracle::SampleOracle`], run a
/// [`Uniformity`](crate::api::Uniformity) request).
pub fn test_uniformity_from_set(
    n: usize,
    eps: f64,
    set: &SampleSet,
) -> Result<UniformityReport, DistError> {
    if n == 0 {
        return Err(DistError::EmptyDomain);
    }
    check_eps(eps)?;
    if set.total() < 2 {
        return Err(DistError::BadParameter {
            reason: "need at least two samples".into(),
        });
    }
    let full = Interval::full(n)?;
    let statistic = absolute_collision_estimate(set, full);
    let threshold = (1.0 + eps * eps) / n as f64;
    Ok(Decision::new(statistic, threshold, set.total() as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Session, Uniformity};
    use crate::tester::TestOutcome;
    use khist_dist::{generators, DenseDistribution};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn majority(p: &DenseDistribution, eps: f64, scale: f64, seed: u64) -> TestOutcome {
        let budget = UniformityBudget::calibrated(p.n(), eps, scale).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let accepts = (0..9)
            .filter(|_| {
                let mut session = Session::from_dense(p, rng.random());
                session
                    .run_one(Uniformity::eps(eps).budget(budget))
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
    fn accepts_uniform() {
        let p = DenseDistribution::uniform(1024).unwrap();
        assert_eq!(majority(&p, 0.4, 0.1, 1), TestOutcome::Accept);
    }

    #[test]
    fn rejects_half_support_uniform() {
        // The classical hard instance at its own threshold scale.
        let mut rng = StdRng::seed_from_u64(2);
        let p = generators::half_empty_perturbation(1024, 1, 1, &mut rng).unwrap();
        // ‖p‖₂² = 2/n, double the uniform collision rate → strongly rejected.
        assert_eq!(majority(&p, 0.4, 0.1, 3), TestOutcome::Reject);
    }

    #[test]
    fn rejects_zipf() {
        let p = generators::zipf(512, 1.0).unwrap();
        assert_eq!(majority(&p, 0.3, 0.1, 4), TestOutcome::Reject);
    }

    #[test]
    fn statistic_estimates_l2_norm() {
        let p = generators::two_level(256, 0.5, 0.9).unwrap();
        let mut session = Session::from_dense(&p, 5);
        let budget = UniformityBudget { m: 50_000 };
        let rep = session
            .run_one(Uniformity::eps(0.3).budget(budget))
            .unwrap();
        assert!((rep.statistic.unwrap() - p.l2_norm_sq()).abs() < 0.002);
        assert_eq!(rep.samples_spent, 50_000);
    }

    #[test]
    fn budget_rejects_extreme_parameters() {
        assert!(UniformityBudget::calibrated(1, 0.3, 1.0).is_err());
        assert!(UniformityBudget::calibrated(64, 0.0, 1.0).is_err());
        assert!(UniformityBudget::calibrated(64, 0.3, 0.0).is_err());
        let err = UniformityBudget::theoretical(usize::MAX, 1e-80).unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
    }

    #[test]
    fn agrees_with_general_tester_at_k1() {
        // The k = 1 instance of the paper's ℓ₂ tester and the standalone
        // uniformity tester should agree on clear-cut instances. The far
        // instance must be far *in ℓ₂ at the general tester's ε*: six
        // elements sharing 90% of the mass give ‖p − u‖₂ ≈ 0.36 > 0.3.
        // (A milder skew like two_level(256, 0.1, 0.8) is only ≈ 0.15-far
        // in ℓ₂ and the general tester rightly accepts it at ε = 0.3.)
        use crate::api::TestL2;
        use khist_oracle::L2TesterBudget;
        let mut rng = StdRng::seed_from_u64(6);
        let uniform = DenseDistribution::uniform(256).unwrap();
        let skewed = generators::two_level(256, 0.02, 0.9).unwrap();
        let l2_budget = L2TesterBudget::calibrated(256, 0.3, 0.05).unwrap();
        for (p, expect_accept) in [(&uniform, true), (&skewed, false)] {
            let mut session = Session::from_dense(p, rng.random());
            let general = session
                .run_one(TestL2::k(1).eps(0.3).budget(l2_budget))
                .unwrap()
                .accepted();
            let standalone = majority(p, 0.3, 0.1, 7).is_accept();
            assert_eq!(general, expect_accept, "general tester wrong");
            assert_eq!(standalone, expect_accept, "standalone tester wrong");
        }
    }

    #[test]
    fn budget_scales_with_sqrt_n() {
        let b1 = UniformityBudget::theoretical(1 << 10, 0.5).unwrap();
        let b2 = UniformityBudget::theoretical(1 << 14, 0.5).unwrap();
        let ratio = b2.m as f64 / b1.m as f64;
        assert!((ratio - 4.0).abs() < 0.05, "√n scaling broken: {ratio}");
    }

    #[test]
    fn validation_errors() {
        let set = SampleSet::from_samples(vec![0, 1, 2]);
        assert!(test_uniformity_from_set(0, 0.3, &set).is_err());
        assert!(test_uniformity_from_set(8, 1.2, &set).is_err());
        let tiny = SampleSet::from_samples(vec![0]);
        assert!(test_uniformity_from_set(8, 0.3, &tiny).is_err());
    }
}
