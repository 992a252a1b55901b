//! Algorithm 1 — the greedy priority `k`-histogram learner — and the
//! Theorem 2 acceleration.
//!
//! The learner draws
//!
//! * one main sample `S` of size `ℓ = ln(12n²)/(2ξ²)` (interval weights
//!   `y_I = |S_I|/ℓ`), and
//! * `r = ln(6n²)` collision sets of `m = 24/ξ²` samples each (power-sum
//!   estimates `z_I` = median of `coll(Sʲ_I)/C(|Sʲ|,2)`),
//!
//! with `ξ = ε/(k·ln(1/ε))`, then runs `q = k·ln(1/ε)` greedy iterations.
//! Each iteration scores every candidate interval `J` by the estimated cost
//! of the tiling obtained by inserting `(J, y_J)` at top priority
//! (`c_J = Σ_I (z_I − y_I²/|I|)`, maintained incrementally by
//! [`TilingState`]) and commits the minimizer. Theorem 1:
//! `‖p − H‖₂² ≤ ‖p − H*‖₂² + 5ε`.
//!
//! [`CandidatePolicy`] selects the enumeration strategy:
//!
//! * [`CandidatePolicy::All`] — all `C(n+1, 2)` intervals (Algorithm 1
//!   verbatim, `Õ(n²)` time per iteration);
//! * [`CandidatePolicy::SampleEndpoints`] — Theorem 2: only intervals whose
//!   endpoints lie in `T′ = {i−1, i, i+1 : i ∈ S}`. Intervals outside this
//!   set have weight ≤ ξ w.h.p., and Lemma 2 shows ignoring them costs at
//!   most `4ξ` per iteration (total degradation `8ε`);
//! * [`CandidatePolicy::Grid`] — endpoints on a fixed stride (an ablation
//!   showing why *sample-adaptive* endpoints matter on skewed data).

use khist_dist::{DistError, Interval, PriorityHistogram, TilingHistogram};
use khist_oracle::{LearnerBudget, SampleOracle, SampleSet};

use crate::api::SamplePlan;
use crate::cost::{CostOracle, SampleCostOracle};
use crate::tiling_state::TilingState;

/// Candidate-interval enumeration strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidatePolicy {
    /// All `O(n²)` intervals — Algorithm 1 as stated (Theorem 1).
    All,
    /// Intervals with endpoints in the sample-derived set `T′` — Theorem 2.
    SampleEndpoints,
    /// Intervals with endpoints on multiples of the given stride (ablation).
    Grid(usize),
}

/// Parameters of a greedy run.
#[derive(Debug, Clone, Copy)]
pub struct GreedyParams {
    /// Number of histogram pieces `k` being targeted.
    pub k: usize,
    /// Accuracy parameter `ε`.
    pub eps: f64,
    /// Sample budget (see [`LearnerBudget`]).
    pub budget: LearnerBudget,
    /// Candidate enumeration policy.
    pub policy: CandidatePolicy,
    /// Cap on the number of endpoints used by
    /// [`CandidatePolicy::SampleEndpoints`]. The theoretical algorithm uses
    /// all `≤ 3ℓ` of them; at large calibrated budgets that squares into an
    /// impractically large candidate set, so the endpoint list is evenly
    /// subsampled down to this cap (`0` disables the cap). E9(b) measures
    /// the effect.
    pub max_endpoints: usize,
}

impl GreedyParams {
    /// Algorithm 1 defaults (exhaustive candidates).
    pub fn new(k: usize, eps: f64, budget: LearnerBudget) -> Self {
        GreedyParams {
            k,
            eps,
            budget,
            policy: CandidatePolicy::All,
            max_endpoints: 0,
        }
    }

    /// Theorem 2 defaults (sample-endpoint candidates, capped at 128
    /// endpoints).
    pub fn fast(k: usize, eps: f64, budget: LearnerBudget) -> Self {
        GreedyParams {
            k,
            eps,
            budget,
            policy: CandidatePolicy::SampleEndpoints,
            max_endpoints: 128,
        }
    }
}

/// Diagnostics of a greedy run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedyStats {
    /// Greedy iterations executed (`q`).
    pub iterations: usize,
    /// Candidate intervals scored across all iterations.
    pub candidates_evaluated: usize,
    /// Total samples drawn (`ℓ + r·m`).
    pub samples_used: usize,
    /// Endpoints used for candidate generation (post-cap), when applicable.
    pub endpoints_used: usize,
}

/// Result of a greedy run.
#[derive(Debug, Clone)]
pub struct GreedyOutcome {
    /// The raw priority histogram Algorithm 1 constructs (3 entries per
    /// iteration: left trim, `J`, right trim).
    pub priority: PriorityHistogram,
    /// The induced tiling with estimated densities `y_I/|I|` — the learned
    /// approximation of `p`.
    pub tiling: TilingHistogram,
    /// Run diagnostics.
    pub stats: GreedyStats,
}

impl GreedyOutcome {
    /// The learned histogram renormalized to total mass 1 (estimated piece
    /// weights sum to `1 ± O(ξ)`; renormalizing projects back into `D_n`).
    pub fn normalized_tiling(&self) -> Result<TilingHistogram, DistError> {
        self.tiling.normalized()
    }
}

/// Draws the budgeted samples through a [`SampleOracle`] and runs the
/// greedy learner.
///
/// The main sample and the `r` collision sets are requested through the
/// single-analysis [`SamplePlan`] (one [`SampleOracle::draw_batch`] call),
/// so streaming backends serve them from a single pass with disjoint lanes
/// — batch the learner with testers via [`crate::api::Session`] to share
/// that pass further.
pub fn learn<O: SampleOracle + ?Sized>(
    oracle: &mut O,
    params: &GreedyParams,
) -> Result<GreedyOutcome, DistError> {
    let (main, sets) = SamplePlan::learner(&params.budget).draw(oracle)?;
    let main = main.ok_or_else(|| DistError::BadParameter {
        reason: "learner budget requests an empty main sample".into(),
    })?;
    learn_from_samples(oracle.domain_size(), &main, &sets, params)
}

/// Runs the greedy learner on pre-drawn samples (the entry point for real
/// data: feed it a main sample and `r` independent collision samples).
pub fn learn_from_samples(
    n: usize,
    main: &SampleSet,
    collision_sets: &[SampleSet],
    params: &GreedyParams,
) -> Result<GreedyOutcome, DistError> {
    if n == 0 {
        return Err(DistError::EmptyDomain);
    }
    if params.k == 0 {
        return Err(DistError::BadParameter {
            reason: "k must be ≥ 1".into(),
        });
    }
    if collision_sets.is_empty() {
        return Err(DistError::BadParameter {
            reason: "need ≥ 1 collision sample set".into(),
        });
    }
    let oracle = SampleCostOracle::new(main, collision_sets);
    let endpoints = candidate_endpoints(n, main, params);
    let samples_used = main.total() as usize
        + collision_sets
            .iter()
            .map(|s| s.total() as usize)
            .sum::<usize>();
    let mut outcome = greedy_with_oracle(n, &oracle, &endpoints, params.budget.q)?;
    outcome.stats.samples_used = samples_used;
    Ok(outcome)
}

/// The greedy loop over an arbitrary [`CostOracle`] and endpoint set.
///
/// This is Algorithm 1's core, separated from sampling so it can run
/// against the noise-free [`crate::cost::ExactCostOracle`] — tests use that
/// to verify the *optimization* behaviour (convergence to the DP optimum as
/// `q` grows) independently of estimation error.
pub fn greedy_with_oracle(
    n: usize,
    oracle: &impl CostOracle,
    endpoints: &[usize],
    q: usize,
) -> Result<GreedyOutcome, DistError> {
    if n == 0 {
        return Err(DistError::EmptyDomain);
    }
    let candidates = enumerate_candidates(endpoints);
    if candidates.is_empty() {
        return Err(DistError::BadParameter {
            reason: "no candidate intervals".into(),
        });
    }

    let mut state = TilingState::full_domain(n, oracle)?;
    let mut priority = PriorityHistogram::new();
    let mut stats = GreedyStats {
        iterations: 0,
        candidates_evaluated: 0,
        samples_used: 0,
        endpoints_used: endpoints.len(),
    };

    for _ in 0..q {
        let mut best: Option<(f64, Interval)> = None;
        for &j in &candidates {
            let cost = state.preview_insert(j, oracle);
            stats.candidates_evaluated += 1;
            match best {
                Some((b, _)) if b <= cost => {}
                _ => best = Some((cost, j)),
            }
        }
        // lint:allow(no-panic): the candidate loop above always runs at least once
        let (_, j_min) = best.expect("candidates is non-empty");
        let created = state.insert(j_min, oracle);
        // Record the new pieces at a fresh shared priority, each with its
        // estimated density y_I/|I| (the paper's (I_L, y_{I_L}, r),
        // (J, y_J, r), (I_R, y_{I_R}, r) — values stored as densities,
        // cf. Theorem 2's H_{J, p(J)/|J|}).
        priority.push_level(
            created
                .iter()
                .map(|&iv| (iv, oracle.weight(iv) / iv.len() as f64)),
        );
        stats.iterations += 1;
    }

    // Materialize the learned tiling: estimated density per piece.
    let pieces: Vec<(Interval, f64)> = state
        .pieces()
        .map(|iv| (iv, oracle.weight(iv) / iv.len() as f64))
        .collect();
    let tiling = TilingHistogram::from_pieces(&pieces, n)?;
    Ok(GreedyOutcome {
        priority,
        tiling,
        stats,
    })
}

/// The endpoint set implied by the candidate policy.
fn candidate_endpoints(n: usize, main: &SampleSet, params: &GreedyParams) -> Vec<usize> {
    let mut endpoints = match params.policy {
        CandidatePolicy::All => (0..n).collect::<Vec<usize>>(),
        CandidatePolicy::SampleEndpoints => {
            let t = main.endpoint_candidates(n);
            if t.is_empty() {
                vec![0, n - 1]
            } else {
                t
            }
        }
        CandidatePolicy::Grid(stride) => {
            let stride = stride.max(1);
            let mut g: Vec<usize> = (0..n).step_by(stride).collect();
            // lint:allow(no-panic): (0..n).step_by(s) is non-empty because n > 0 is validated upstream
            if *g.last().expect("non-empty") != n - 1 {
                g.push(n - 1);
            }
            g
        }
    };
    if params.max_endpoints > 0 && endpoints.len() > params.max_endpoints {
        let keep = params.max_endpoints;
        let len = endpoints.len();
        endpoints = (0..keep)
            // lint:allow(checked-indexing): i*(len-1)/(keep-1) <= len-1 for i < keep
            .map(|i| endpoints[i * (len - 1) / (keep - 1)])
            .collect();
        endpoints.dedup();
    }
    endpoints
}

/// All intervals `[a, b]` with `a ≤ b` drawn from the endpoint set.
fn enumerate_candidates(endpoints: &[usize]) -> Vec<Interval> {
    let mut out = Vec::with_capacity(endpoints.len() * (endpoints.len() + 1) / 2);
    for (i, &a) in endpoints.iter().enumerate() {
        // lint:allow(checked-indexing): i comes from enumerate() over this slice
        for &b in &endpoints[i..] {
            // lint:allow(no-panic): endpoints are sorted, so a <= b within the tail slice
            out.push(Interval::new(a, b).expect("endpoints sorted"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use khist_baseline::v_optimal;
    use khist_dist::{generators, DenseDistribution};
    use khist_oracle::DenseOracle;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn run(
        p: &DenseDistribution,
        k: usize,
        eps: f64,
        scale: f64,
        policy: CandidatePolicy,
        seed: u64,
    ) -> GreedyOutcome {
        let mut rng = StdRng::seed_from_u64(seed);
        let budget = LearnerBudget::calibrated(p.n(), k, eps, scale).unwrap();
        let params = GreedyParams {
            k,
            eps,
            budget,
            policy,
            max_endpoints: 96,
        };
        let mut oracle = DenseOracle::new(p, rng.random());
        learn(&mut oracle, &params).unwrap()
    }

    #[test]
    fn recovers_exact_two_histogram() {
        let p = generators::two_level(32, 0.25, 0.75).unwrap();
        let out = run(&p, 2, 0.1, 0.05, CandidatePolicy::All, 11);
        let err = out.tiling.l2_sq_to(&p);
        assert!(err < 0.01, "err = {err}");
        assert!(out.stats.iterations >= 2);
    }

    #[test]
    fn theorem1_gap_bound_random_histograms() {
        // ‖p−H‖₂² ≤ ‖p−H*‖₂² + 5ε on in-class instances (where OPT = 0).
        let eps = 0.1;
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..3 {
            let (_, p) = generators::random_tiling_histogram_distinct(48, 3, &mut rng).unwrap();
            let out = run(&p, 3, eps, 0.05, CandidatePolicy::All, 100 + trial);
            let opt = v_optimal(&p, 3).unwrap().sse;
            let got = out.tiling.l2_sq_to(&p);
            assert!(
                got <= opt + 5.0 * eps,
                "trial {trial}: got {got}, opt {opt}, bound {}",
                opt + 5.0 * eps
            );
        }
    }

    #[test]
    fn theorem1_gap_bound_out_of_class() {
        // Gaussian is not a k-histogram; gap to the optimal k-histogram must
        // still be ≤ 5ε (in practice far smaller).
        let eps = 0.15;
        let p = generators::discrete_gaussian(64, 30.0, 9.0).unwrap();
        let out = run(&p, 4, eps, 0.05, CandidatePolicy::All, 21);
        let opt = v_optimal(&p, 4).unwrap().sse;
        let got = out.tiling.l2_sq_to(&p);
        assert!(got <= opt + 5.0 * eps, "got {got}, opt {opt}");
    }

    #[test]
    fn fast_variant_matches_theorem2_bound() {
        let eps = 0.15;
        let mut rng = StdRng::seed_from_u64(9);
        let (_, p) = generators::random_tiling_histogram_distinct(64, 3, &mut rng).unwrap();
        let out = run(&p, 3, eps, 0.05, CandidatePolicy::SampleEndpoints, 33);
        let opt = v_optimal(&p, 3).unwrap().sse;
        let got = out.tiling.l2_sq_to(&p);
        assert!(got <= opt + 8.0 * eps, "got {got}, opt {opt}");
    }

    #[test]
    fn fast_variant_evaluates_fewer_candidates() {
        let p = generators::zipf(128, 1.0).unwrap();
        let slow = run(&p, 3, 0.2, 0.02, CandidatePolicy::All, 7);
        let fast = run(&p, 3, 0.2, 0.02, CandidatePolicy::SampleEndpoints, 7);
        assert!(
            fast.stats.candidates_evaluated < slow.stats.candidates_evaluated,
            "fast {} vs slow {}",
            fast.stats.candidates_evaluated,
            slow.stats.candidates_evaluated
        );
    }

    #[test]
    fn grid_policy_runs() {
        let p = generators::zipf(64, 1.0).unwrap();
        let out = run(&p, 3, 0.2, 0.02, CandidatePolicy::Grid(8), 3);
        assert!(out.tiling.is_distribution(0.5)); // grossly normalized
        assert!(out.stats.endpoints_used <= 10);
    }

    #[test]
    fn priority_histogram_matches_tiling() {
        // The recorded priority histogram must evaluate identically to the
        // final tiling (same estimated densities).
        let p = generators::two_level(24, 0.5, 0.9).unwrap();
        let out = run(&p, 2, 0.2, 0.05, CandidatePolicy::All, 13);
        let from_priority = out.priority.to_tiling(24).unwrap();
        for i in 0..24 {
            assert!(
                (from_priority.evaluate(i) - out.tiling.evaluate(i)).abs() < 1e-12,
                "mismatch at {i}"
            );
        }
    }

    #[test]
    fn normalized_tiling_is_distribution() {
        let p = generators::zipf(32, 1.5).unwrap();
        let out = run(&p, 3, 0.2, 0.05, CandidatePolicy::All, 17);
        let norm = out.normalized_tiling().unwrap();
        assert!(norm.is_distribution(1e-9));
    }

    #[test]
    fn stats_are_populated() {
        let p = generators::zipf(32, 1.0).unwrap();
        let out = run(&p, 2, 0.2, 0.05, CandidatePolicy::All, 19);
        assert!(out.stats.samples_used > 0);
        assert!(out.stats.candidates_evaluated > 0);
        assert_eq!(out.stats.endpoints_used, 32);
        let budget = LearnerBudget::calibrated(32, 2, 0.2, 0.05).unwrap();
        assert_eq!(out.stats.iterations, budget.q);
    }

    #[test]
    fn rejects_bad_inputs() {
        let p = DenseDistribution::uniform(8).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let budget = LearnerBudget::calibrated(8, 2, 0.2, 0.1).unwrap();
        let mut params = GreedyParams::new(0, 0.2, budget);
        let mut oracle = DenseOracle::new(&p, 1);
        assert!(learn(&mut oracle, &params).is_err());
        params.k = 2;
        let main = SampleSet::draw(&p, 10, &mut rng);
        assert!(learn_from_samples(8, &main, &[], &params).is_err());
        assert!(learn_from_samples(0, &main, std::slice::from_ref(&main), &params).is_err());
    }

    #[test]
    fn exact_oracle_converges_to_dp_optimum() {
        // With the noise-free oracle, all endpoints, and the paper's q, the
        // greedy must land within the (1−1/k)^q convergence term of the DP
        // optimum — on random distributions, not just histograms.
        use crate::cost::ExactCostOracle;
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..5 {
            let weights: Vec<f64> = (0..40)
                .map(|_| rand::Rng::random_range(&mut rng, 0.01..1.0))
                .collect();
            let p = DenseDistribution::from_weights(&weights).unwrap();
            let k = 2 + trial % 3;
            let q = 4 * k; // generous: (1−1/k)^{4k} ≈ e⁻⁴ ≈ 0.018
            let oracle = ExactCostOracle::new(&p);
            let endpoints: Vec<usize> = (0..40).collect();
            let out = greedy_with_oracle(40, &oracle, &endpoints, q).unwrap();
            let opt = v_optimal(&p, k).unwrap().sse;
            let initial = p.flatten_sse(Interval::full(40).unwrap());
            let got = out.tiling.l2_sq_to(&p);
            // error contraction: gap ≤ (1−1/k)^q · (initial − opt)
            let bound = opt + 0.02 * (initial - opt) + 1e-12;
            assert!(
                got <= bound + 0.05 * initial,
                "trial {trial}: greedy {got} vs contraction bound {bound} (opt {opt})"
            );
        }
    }

    #[test]
    fn exact_oracle_zero_error_on_histograms() {
        // In-class instance + exact oracle → exact recovery within q steps.
        use crate::cost::ExactCostOracle;
        let p = generators::staircase(36, 3).unwrap();
        let oracle = ExactCostOracle::new(&p);
        let endpoints: Vec<usize> = (0..36).collect();
        let out = greedy_with_oracle(36, &oracle, &endpoints, 6).unwrap();
        assert!(
            out.tiling.l2_sq_to(&p) < 1e-15,
            "err = {}",
            out.tiling.l2_sq_to(&p)
        );
    }

    #[test]
    fn more_iterations_never_hurt_much() {
        // Greedy error decreases (weakly) in expectation; with exact budget
        // q and 3q, final error comparable. Smoke guard against divergence.
        let p = generators::discrete_gaussian(48, 20.0, 6.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut budget = LearnerBudget::calibrated(48, 4, 0.2, 0.05).unwrap();
        let params = GreedyParams::new(4, 0.2, budget);
        let mut oracle = DenseOracle::new(&p, rng.random());
        let out1 = learn(&mut oracle, &params).unwrap();
        budget.q *= 3;
        let params3 = GreedyParams::new(4, 0.2, budget);
        let mut oracle = DenseOracle::new(&p, rng.random());
        let out3 = learn(&mut oracle, &params3).unwrap();
        assert!(out3.tiling.l2_sq_to(&p) < out1.tiling.l2_sq_to(&p) + 0.05);
    }
}
