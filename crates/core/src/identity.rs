//! `ℓ₂` closeness and identity testing via collision statistics.
//!
//! The paper's related work (§1.3) situates its testers in the lineage of
//! closeness/identity testing [BFR+00, BFF+01]: the same collision machinery
//! that estimates `‖p‖₂²` (Lemma 1) estimates distances between two
//! distributions, because
//!
//! `‖p − q‖₂² = ‖p‖₂² + ‖q‖₂² − 2⟨p, q⟩`,
//!
//! where self-collisions inside a `p`-sample estimate `‖p‖₂²` and
//! *cross*-collisions between a `p`-sample and a `q`-sample estimate
//! `⟨p, q⟩` ([`SampleSet::cross_collisions_in`]). This module implements
//!
//! * [`l2_distance_sq_estimate`] — the unbiased plug-in estimator of
//!   `‖p − q‖₂²` from two sample sets;
//! * [`test_closeness_l2_from_sets`] — sample-only closeness testing:
//!   accept iff the estimate is below `ε²/2` (both sides of the promise
//!   gap ≥ 2/3 at budget `m = Θ(√(‖p‖₂ + ‖q‖₂})/ε²)`-style sizes;
//!   calibrated budgets as everywhere);
//! * [`test_identity_l2_from_set`] — identity against an *explicitly
//!   known* `q` (the `q`-side statistics are computed exactly, halving the
//!   variance).
//!
//! Both take pre-drawn sample sets; the [`IdentityL2`](crate::api::IdentityL2)
//! and [`ClosenessL2`](crate::api::ClosenessL2) requests draw them from a
//! [`khist_oracle::SampleOracle`].
//!
//! These are cross-checks and companions, not part of the paper's theorem
//! set; the harness uses them to validate the far-instance generators from
//! a second angle.

use khist_dist::{DenseDistribution, DistError, Interval};
use khist_oracle::{absolute_collision_estimate, check_eps, SampleSet};

use crate::tester::Decision;

/// Unbiased estimate of `‖p − q‖₂²` from one sample set per distribution.
///
/// Returns `None` when either set has fewer than two samples.
pub fn l2_distance_sq_estimate(set_p: &SampleSet, set_q: &SampleSet, n: usize) -> Option<f64> {
    if set_p.total() < 2 || set_q.total() < 2 || n == 0 {
        return None;
    }
    let full = Interval::full(n).ok()?;
    let p_sq = absolute_collision_estimate(set_p, full);
    let q_sq = absolute_collision_estimate(set_q, full);
    let cross = set_p.cross_collisions_in(set_q, full) as f64
        / (set_p.total() as f64 * set_q.total() as f64);
    Some((p_sq + q_sq - 2.0 * cross).max(0.0))
}

/// Report of a closeness/identity test: accept (close in `ℓ₂`) or
/// reject, on the `‖p − q‖₂²` estimate against the threshold `ε²/2`.
pub type ClosenessReport = Decision;

/// Tests `‖p − q‖₂ ≤ ε/√2` vs `‖p − q‖₂ > ε` from pre-drawn sample
/// sets, one per side.
pub fn test_closeness_l2_from_sets(
    set_p: &SampleSet,
    set_q: &SampleSet,
    n: usize,
    eps: f64,
) -> Result<ClosenessReport, DistError> {
    check_eps(eps)?;
    let statistic =
        l2_distance_sq_estimate(set_p, set_q, n).ok_or_else(|| DistError::BadParameter {
            reason: "need at least two samples per side".into(),
        })?;
    let samples_used = set_p.total() as usize + set_q.total() as usize;
    Ok(Decision::new(statistic, eps * eps / 2.0, samples_used))
}

/// Tests identity `p = q` (vs `‖p − q‖₂ > ε`) against an explicitly known
/// `q` from a pre-drawn `p`-sample: the `q`-side moments are exact, only
/// `‖p‖₂²` and `⟨p, q⟩` are estimated. `p` is reached only through its
/// samples; `q` stays an explicit [`DenseDistribution`] by design —
/// identity testing *means* comparing sample access against a known
/// description.
pub fn test_identity_l2_from_set(
    set_p: &SampleSet,
    known_q: &DenseDistribution,
    n: usize,
    eps: f64,
) -> Result<ClosenessReport, DistError> {
    check_eps(eps)?;
    if n != known_q.n() {
        return Err(DistError::BadParameter {
            reason: format!("domain mismatch: {n} vs {}", known_q.n()),
        });
    }
    if set_p.total() < 2 {
        return Err(DistError::BadParameter {
            reason: "need at least two samples".into(),
        });
    }
    let full = Interval::full(n)?;
    let p_sq = absolute_collision_estimate(set_p, full);
    // ⟨p, q⟩ estimated by E_{x∼p}[q(x)] — each sample contributes q(x).
    let mut inner = 0.0;
    for &v in set_p.unique_values() {
        inner += set_p.occurrences(v) as f64 * known_q.mass(v);
    }
    inner /= set_p.total() as f64;
    let statistic = (p_sq + known_q.l2_norm_sq() - 2.0 * inner).max(0.0);
    Ok(Decision::new(
        statistic,
        eps * eps / 2.0,
        set_p.total() as usize,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ClosenessL2, IdentityL2, Session};
    use khist_dist::generators;
    use khist_oracle::{DenseOracle, SampleOracle};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn estimate_converges_to_true_distance() {
        let p = generators::zipf(64, 1.0).unwrap();
        let q = DenseDistribution::uniform(64).unwrap();
        let truth = khist_dist::distance::l2_sq_fn(&p.to_vec(), &q.to_vec());
        let mut rng = StdRng::seed_from_u64(1);
        let mut acc = 0.0;
        let reps = 100;
        for _ in 0..reps {
            let sp = SampleSet::draw(&p, 2000, &mut rng);
            let sq = SampleSet::draw(&q, 2000, &mut rng);
            acc += l2_distance_sq_estimate(&sp, &sq, 64).unwrap();
        }
        let mean = acc / reps as f64;
        assert!((mean - truth).abs() < 0.003, "mean {mean} vs truth {truth}");
    }

    #[test]
    fn estimate_zero_for_identical() {
        let p = generators::discrete_gaussian(64, 30.0, 8.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut acc = 0.0;
        for _ in 0..50 {
            let a = SampleSet::draw(&p, 3000, &mut rng);
            let b = SampleSet::draw(&p, 3000, &mut rng);
            acc += l2_distance_sq_estimate(&a, &b, 64).unwrap();
        }
        assert!(acc / 50.0 < 0.001, "self-distance {}", acc / 50.0);
    }

    #[test]
    fn estimate_undefined_for_tiny_sets() {
        let a = SampleSet::from_samples(vec![1]);
        let b = SampleSet::from_samples(vec![1, 2]);
        assert!(l2_distance_sq_estimate(&a, &b, 8).is_none());
        assert!(l2_distance_sq_estimate(&b, &a, 8).is_none());
    }

    fn majority_closeness(
        p: &DenseDistribution,
        q: &DenseDistribution,
        eps: f64,
        m: usize,
        seed: u64,
    ) -> bool {
        let mut rng = StdRng::seed_from_u64(seed);
        let accepts = (0..9)
            .filter(|_| {
                let set_p = DenseOracle::new(p, rng.random()).draw_set(m);
                let set_q = DenseOracle::new(q, rng.random()).draw_set(m);
                test_closeness_l2_from_sets(&set_p, &set_q, p.n(), eps)
                    .unwrap()
                    .outcome
                    .is_accept()
            })
            .count();
        accepts > 4
    }

    #[test]
    fn closeness_accepts_identical_and_rejects_far() {
        let p = generators::zipf(128, 1.0).unwrap();
        let u = DenseDistribution::uniform(128).unwrap();
        // ‖zipf(1) − u‖₂ over n = 128 is ≈ 0.2; test at ε = 0.15.
        assert!(
            majority_closeness(&p, &p, 0.15, 6000, 3),
            "identical rejected"
        );
        assert!(
            !majority_closeness(&p, &u, 0.15, 6000, 4),
            "far pair accepted"
        );
    }

    #[test]
    fn identity_accepts_identical_and_rejects_far() {
        let q = generators::discrete_gaussian(128, 64.0, 20.0).unwrap();
        let far = generators::two_level(128, 0.05, 0.8).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut ok_same = 0;
        let mut ok_far = 0;
        let identity = || IdentityL2::against(q.clone()).eps(0.2).samples(5000);
        for _ in 0..9 {
            let mut session_q = Session::from_dense(&q, rng.random());
            if session_q.run_one(identity()).unwrap().accepted() {
                ok_same += 1;
            }
            let mut session_far = Session::from_dense(&far, rng.random());
            if !session_far.run_one(identity()).unwrap().accepted() {
                ok_far += 1;
            }
        }
        assert!(
            ok_same > 4,
            "identity rejected the true distribution {ok_same}/9"
        );
        assert!(
            ok_far > 4,
            "identity accepted a far distribution {ok_far}/9"
        );
    }

    #[test]
    fn validation_errors() {
        let p = DenseDistribution::uniform(8).unwrap();
        let q = DenseDistribution::uniform(9).unwrap();
        let q8 = DenseDistribution::uniform(8).unwrap();
        let mut session = Session::from_dense(&p, 1);
        let closeness = |q: &DenseDistribution| ClosenessL2::against(q.clone());
        assert!(session
            .run_one(closeness(&q).eps(0.3).samples(100))
            .is_err());
        assert!(session
            .run_one(closeness(&q8).eps(1.5).samples(100))
            .is_err());
        assert!(session.run_one(closeness(&q8).eps(0.3).samples(1)).is_err());
        let identity = |q: &DenseDistribution| IdentityL2::against(q.clone());
        assert!(session.run_one(identity(&q).eps(0.3).samples(100)).is_err());
        assert!(session
            .run_one(identity(&q8).eps(0.0).samples(100))
            .is_err());
        assert!(session.run_one(identity(&q8).eps(0.3).samples(1)).is_err());
    }

    #[test]
    fn cross_validates_far_generators() {
        // Independent check of the far-instance generators: the closeness
        // tester sees the Theorem 5 NO instance as far from its own YES.
        let mut rng = StdRng::seed_from_u64(7);
        let yes = generators::yes_instance(128, 4).unwrap();
        let no = generators::no_instance(128, 4, &mut rng).unwrap();
        // ‖yes − no‖₂²: within the perturbed bucket (32 elems, density
        // 1/64), half doubled half zeroed → 32·(1/64)² = 1/128 → ℓ₂ ≈ 0.088.
        assert!(
            !majority_closeness(&yes.dist, &no.dist, 0.06, 20_000, 8),
            "closeness tester blind to the NO perturbation"
        );
    }
}
