//! The assembled tiling-`k`-histogram testers (Theorems 3 and 4).
//!
//! Both testers take `r` independent sample sets of size `m` (the budgets
//! of [`khist_oracle::L2TesterBudget`] / [`khist_oracle::L1TesterBudget`]),
//! wrap them in the corresponding flatness test, and run the Algorithm 2
//! partition search. To draw the sets from a [`khist_oracle::SampleOracle`],
//! run a [`TestL2`](crate::api::TestL2) / [`TestL1`](crate::api::TestL1)
//! request through [`run_analyses`](crate::api::run_analyses) or a
//! [`Session`](crate::api::Session). Guarantees (at the theoretical
//! budgets):
//!
//! * **Theorem 3 (`ℓ₂`)** — if `p` is a tiling `k`-histogram, accept with
//!   probability ≥ 2/3; if `p` is `ε`-far in `ℓ₂` from every tiling
//!   `k`-histogram, reject with probability ≥ 2/3. Samples
//!   `O(ε⁻⁴ ln² n)`, time `O(ε⁻⁴ k ln³ n)`.
//! * **Theorem 4 (`ℓ₁`)** — the same with `ℓ₁` distance; samples
//!   `Õ(ε⁻⁵ √(kn))`.

use khist_dist::DistError;
use khist_oracle::{check_eps, SampleSet};

use crate::flatness::{FlatnessTest, L1Flatness, L2Flatness};
use crate::partition_search::partition_search;

/// Verdict of a property test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestOutcome {
    /// The distribution was accepted as a tiling `k`-histogram.
    Accept,
    /// The distribution was rejected (`ε`-far with the stated probability).
    Reject,
}

impl TestOutcome {
    /// Convenience: `true` for [`TestOutcome::Accept`].
    pub fn is_accept(&self) -> bool {
        matches!(self, TestOutcome::Accept)
    }
}

/// The verdict of a single-statistic test (uniformity, identity,
/// closeness): accept iff the measured statistic is at most the
/// threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Accept (the statistic is within the threshold) or reject.
    pub outcome: TestOutcome,
    /// The measured statistic: the collision rate `ẑ` (uniformity) or the
    /// `‖p − q‖₂²` estimate (identity, closeness).
    pub statistic: f64,
    /// The decision threshold: `(1 + ε²)/n` (uniformity) or `ε²/2`
    /// (identity, closeness).
    pub threshold: f64,
    /// Samples consumed.
    pub samples_used: usize,
}

impl Decision {
    /// Decides `statistic` against `threshold`: accept iff
    /// `statistic <= threshold`.
    pub(crate) fn new(statistic: f64, threshold: f64, samples_used: usize) -> Decision {
        let outcome = if statistic <= threshold {
            TestOutcome::Accept
        } else {
            TestOutcome::Reject
        };
        Decision {
            outcome,
            statistic,
            threshold,
            samples_used,
        }
    }
}

/// Full report of one tester invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestReport {
    /// Accept/reject verdict.
    pub outcome: TestOutcome,
    /// Bucket starts discovered before the verdict (diagnostic: on accept,
    /// these witness a flat partition).
    pub cuts: Vec<usize>,
    /// Flatness queries issued.
    pub probes: usize,
    /// Total samples drawn (`r·m`).
    pub samples_used: usize,
}

/// Runs the `ℓ₂` tester (Algorithm 2 + `testFlatness-ℓ₂`) on pre-drawn
/// sample sets (the flatness thresholds are normalized per set, so sets
/// of slightly different sizes — e.g. reservoir lanes of a shared
/// streaming draw — are handled correctly).
pub fn test_l2_from_sets(
    n: usize,
    k: usize,
    eps: f64,
    sets: &[SampleSet],
) -> Result<TestReport, DistError> {
    search_from_sets(n, k, eps, sets, || L2Flatness::new(sets, eps))
}

/// Runs the `ℓ₁` tester (Algorithm 2 + `testFlatness-ℓ₁`) on pre-drawn
/// sample sets (per-set-normalized thresholds, like
/// [`test_l2_from_sets`]).
pub fn test_l1_from_sets(
    n: usize,
    k: usize,
    eps: f64,
    sets: &[SampleSet],
) -> Result<TestReport, DistError> {
    search_from_sets(n, k, eps, sets, || L1Flatness::new(sets, eps, k, n))
}

/// Both testers' body: validates the sets, builds the flatness test
/// over them and runs the partition search.
fn search_from_sets<F: FlatnessTest>(
    n: usize,
    k: usize,
    eps: f64,
    sets: &[SampleSet],
    flatness: impl FnOnce() -> F,
) -> Result<TestReport, DistError> {
    validate(n, k, eps, sets)?;
    let search = partition_search(n, k, &flatness());
    Ok(TestReport {
        outcome: if search.accepted {
            TestOutcome::Accept
        } else {
            TestOutcome::Reject
        },
        cuts: search.cuts,
        probes: search.probes,
        samples_used: sets.iter().map(|s| s.total() as usize).sum(),
    })
}

fn validate(n: usize, k: usize, eps: f64, sets: &[SampleSet]) -> Result<(), DistError> {
    if n == 0 {
        return Err(DistError::EmptyDomain);
    }
    if k == 0 {
        return Err(DistError::BadParameter {
            reason: "k must be ≥ 1".into(),
        });
    }
    check_eps(eps)?;
    // Every decision fraction is normalized by its own set's count, so the
    // sets need not be equal-sized — but an empty set carries no evidence
    // and almost surely signals a broken split upstream.
    if sets.is_empty() || sets.iter().any(|s| s.total() == 0) {
        return Err(DistError::BadParameter {
            reason: "need non-empty sample sets".into(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Session, TestL1, TestL2};
    use khist_dist::{generators, DenseDistribution};
    use khist_oracle::{L1TesterBudget, L2TesterBudget};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Majority verdict over repeated runs — the paper's testers only
    /// guarantee 2/3 success, so tests vote.
    fn majority_l2(
        p: &DenseDistribution,
        k: usize,
        eps: f64,
        scale: f64,
        seed: u64,
    ) -> TestOutcome {
        let budget = L2TesterBudget::calibrated(p.n(), eps, scale).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut accepts = 0;
        let runs = 7;
        for _ in 0..runs {
            let mut session = Session::from_dense(p, rng.random());
            if session
                .run_one(TestL2::k(k).eps(eps).budget(budget))
                .unwrap()
                .accepted()
            {
                accepts += 1;
            }
        }
        if accepts * 2 > runs {
            TestOutcome::Accept
        } else {
            TestOutcome::Reject
        }
    }

    fn majority_l1(
        p: &DenseDistribution,
        k: usize,
        eps: f64,
        scale: f64,
        seed: u64,
    ) -> TestOutcome {
        let budget = L1TesterBudget::calibrated(p.n(), k, eps, scale).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut accepts = 0;
        let runs = 7;
        for _ in 0..runs {
            let mut session = Session::from_dense(p, rng.random());
            if session
                .run_one(TestL1::k(k).eps(eps).budget(budget))
                .unwrap()
                .accepted()
            {
                accepts += 1;
            }
        }
        if accepts * 2 > runs {
            TestOutcome::Accept
        } else {
            TestOutcome::Reject
        }
    }

    #[test]
    fn l2_accepts_uniform() {
        let p = DenseDistribution::uniform(128).unwrap();
        assert_eq!(majority_l2(&p, 1, 0.3, 0.05, 1), TestOutcome::Accept);
    }

    #[test]
    fn l2_accepts_random_k_histograms() {
        let mut rng = StdRng::seed_from_u64(2);
        for trial in 0..3 {
            let (_, p) = generators::random_tiling_histogram_distinct(96, 4, &mut rng).unwrap();
            assert_eq!(
                majority_l2(&p, 4, 0.3, 0.05, 10 + trial),
                TestOutcome::Accept,
                "trial {trial}"
            );
        }
    }

    #[test]
    fn l2_rejects_spike_comb() {
        // spike_comb(128, 16) is ℓ₂-far from 4-histograms (certified by DP
        // in baseline tests: SSE ≥ (16−2)/(2·256) ≈ 0.027 → ℓ₂ ≈ 0.16).
        let p = generators::spike_comb(128, 16).unwrap();
        assert_eq!(majority_l2(&p, 4, 0.15, 0.05, 3), TestOutcome::Reject);
    }

    #[test]
    fn l2_accepts_histogram_with_generous_k() {
        // spike comb IS a (2s+1)-histogram; with k large enough it must pass
        let p = generators::spike_comb(64, 4).unwrap();
        assert_eq!(majority_l2(&p, 9, 0.3, 0.05, 4), TestOutcome::Accept);
    }

    #[test]
    fn l1_accepts_yes_instance() {
        let inst = generators::yes_instance(128, 4).unwrap();
        assert_eq!(
            majority_l1(&inst.dist, 4, 0.4, 0.01, 5),
            TestOutcome::Accept
        );
    }

    #[test]
    fn l1_rejects_no_instance() {
        let mut rng = StdRng::seed_from_u64(6);
        let inst = generators::no_instance(128, 4, &mut rng).unwrap();
        assert_eq!(
            majority_l1(&inst.dist, 4, 0.4, 0.02, 7),
            TestOutcome::Reject
        );
    }

    #[test]
    fn l1_rejects_zigzag() {
        let p = generators::zigzag(128, 0.95).unwrap();
        assert_eq!(majority_l1(&p, 4, 0.4, 0.02, 8), TestOutcome::Reject);
    }

    #[test]
    fn l1_accepts_staircase() {
        let p = generators::staircase(120, 5).unwrap();
        assert_eq!(majority_l1(&p, 5, 0.4, 0.01, 9), TestOutcome::Accept);
    }

    #[test]
    fn report_fields_are_consistent() {
        let p = DenseDistribution::uniform(64).unwrap();
        let budget = L2TesterBudget::calibrated(64, 0.3, 0.02).unwrap();
        let mut session = Session::from_dense(&p, 10);
        let rep = session
            .run_one(TestL2::k(2).eps(0.3).budget(budget))
            .unwrap();
        assert_eq!(rep.samples_spent, budget.r * budget.m);
        assert!(rep.probes.unwrap() > 0);
        if rep.accepted() {
            assert!(rep.cuts.len() < 2);
        }
    }

    #[test]
    fn validation_errors() {
        let p = DenseDistribution::uniform(8).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let budget = L2TesterBudget::calibrated(8, 0.3, 0.1).unwrap();
        let mut session = Session::from_dense(&p, 1);
        assert!(session
            .run_one(TestL2::k(0).eps(0.3).budget(budget))
            .is_err());
        let sets = SampleSet::draw_many(&p, 16, 3, &mut rng);
        assert!(test_l2_from_sets(0, 2, 0.3, &sets).is_err());
        assert!(test_l2_from_sets(8, 2, 1.5, &sets).is_err());
        assert!(test_l1_from_sets(8, 2, 0.3, &[]).is_err());
        // empty sets carry no evidence and signal a broken split
        let with_empty = [sets[0].clone(), SampleSet::from_samples(vec![])];
        assert!(test_l2_from_sets(8, 2, 0.3, &with_empty).is_err());
        assert!(test_l1_from_sets(8, 2, 0.3, &with_empty).is_err());
    }

    #[test]
    fn unequal_set_sizes_are_accepted() {
        // Streaming backends serve reservoir lanes that can differ by a few
        // samples; per-set-normalized thresholds handle that directly.
        let p = generators::staircase(64, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let sets = vec![
            SampleSet::draw(&p, 4000, &mut rng),
            SampleSet::draw(&p, 3900, &mut rng),
            SampleSet::draw(&p, 4100, &mut rng),
        ];
        let rep = test_l2_from_sets(64, 4, 0.25, &sets).unwrap();
        assert_eq!(rep.samples_used, 12_000);
        assert!(test_l1_from_sets(64, 4, 0.4, &sets).is_ok());
    }

    #[test]
    fn accept_report_witnesses_partition() {
        // On a staircase, accepting runs must produce cuts whose flattening
        // is close to p — the cuts are a *witness* of near-k-histogram
        // structure, even if the binary search overshoots a boundary by an
        // element or two within the flatness slack.
        let p = generators::staircase(64, 4).unwrap();
        let budget = L2TesterBudget::calibrated(64, 0.2, 0.2).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let mut best_witness_err = f64::INFINITY;
        let mut accepts = 0;
        for _ in 0..7 {
            let mut session = Session::from_dense(&p, rng.random());
            let rep = session
                .run_one(TestL2::k(4).eps(0.2).budget(budget))
                .unwrap();
            if rep.accepted() {
                accepts += 1;
                let h = khist_dist::TilingHistogram::project(&p, &rep.cuts).unwrap();
                best_witness_err = best_witness_err.min(h.l2_sq_to(&p));
            }
        }
        assert!(
            accepts >= 4,
            "staircase should be accepted by majority, got {accepts}/7"
        );
        assert!(
            best_witness_err < 5e-3,
            "witness partitions too far from p: best err {best_witness_err}"
        );
    }
}
