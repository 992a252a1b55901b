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
//!
//! What each step costs, for an endpoint list `E` (`|E|(|E|+1)/2`
//! candidates; 8,256 at the default cap of 128):
//!
//! * once per run, [`SampleCostOracle`] tabulates the samples' integer
//!   prefix counts at the `≤ 2|E|+2` interval bounds, and every
//!   candidate's own cost is computed into a table (up to 2¹⁸ entries;
//!   above that it is re-read from the oracle in each iteration);
//! * once per iteration, each endpoint's left and right trim — the two
//!   sides of the piece holding it — is costed (`2|E|` oracle calls);
//! * per candidate, the score `total − removed + added` takes one map walk
//!   over the cached costs of the pieces it overlaps (`removed`) and three
//!   table reads (`added`): no oracle call and no allocation.
//!
//! Scores, and so every learned histogram, are bit-identical to costing
//! each candidate from the sample sets directly.

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
    /// subsampled down to this cap (`0` disables the cap; `1` is rejected,
    /// since subsampling keeps both ends). E9(b) measures the effect.
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

/// The learner's raw entry point: draws the budgeted samples through a
/// [`SampleOracle`], runs the greedy learner, and returns the whole
/// [`GreedyOutcome`] — the priority histogram, the uncompressed tiling
/// and the candidate counts, which a [`Learn`](crate::api::Learn)
/// report (the `k`-piece compression) does not carry.
///
/// The main sample and the `r` collision sets come from
/// [`SamplePlan::learner`] (one [`SampleOracle::draw_lanes`] call, the
/// draw a `Learn` request with the same budget makes), so streaming
/// backends serve them from a single pass with disjoint lanes.
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
///
/// Fails when `n == 0`, `k == 0`, no collision set is given, or
/// `max_endpoints == 1` (`0` means no cap; a cap must keep `≥ 2`
/// endpoints).
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
    if params.max_endpoints == 1 {
        return Err(DistError::BadParameter {
            reason: "max_endpoints must be 0 (no cap) or ≥ 2".into(),
        });
    }
    let endpoints = candidate_endpoints(n, main, params);
    let oracle = SampleCostOracle::new(n, main, collision_sets, &endpoints);
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
///
/// The candidates are every `[e_a, e_b]` with `a ≤ b` over `endpoints`,
/// which must be non-empty, non-decreasing and below `n`. Each iteration
/// scores all of them and commits the first minimizer. The oracle is asked
/// for each candidate's own cost once per run and for each endpoint's trims
/// once per iteration, so scoring a candidate costs one walk over the
/// cached costs of the pieces it overlaps.
pub fn greedy_with_oracle(
    n: usize,
    oracle: &impl CostOracle,
    endpoints: &[usize],
    q: usize,
) -> Result<GreedyOutcome, DistError> {
    if n == 0 {
        return Err(DistError::EmptyDomain);
    }
    let mut candidates = Candidates::new(n, endpoints, oracle)?;
    let mut state = TilingState::full_domain(n, oracle)?;
    let mut priority = PriorityHistogram::new();
    let mut stats = GreedyStats {
        iterations: 0,
        candidates_evaluated: 0,
        samples_used: 0,
        endpoints_used: endpoints.len(),
    };

    for _ in 0..q {
        let j_min = candidates.best(&state, oracle, |_| stats.candidates_evaluated += 1)?;
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

/// Most entries [`Candidates`]' own-cost table may hold (2 MiB of `f64`).
/// The Theorem 2 default (128 endpoints: 8,256 candidates) fits far under
/// it. Exhaustive candidates on a large domain (`n = 2048`: 2.1M) do not;
/// they read each candidate's own cost from the oracle in every iteration
/// instead — the same function, so the same bits.
const OWN_COST_TABLE_CAP: usize = 1 << 18;

/// The candidate intervals `[e_a, e_b]`, `a ≤ b`, over a sorted endpoint
/// list, with what scoring them needs from the cost oracle: each
/// candidate's own cost, once per run, and each endpoint's trims, once per
/// iteration.
///
/// Inserting `J = [e_a, e_b]` replaces the pieces it overlaps by the left
/// trim of the piece holding `e_a`, `J` itself, and the right trim of the
/// piece holding `e_b`. So the score `total − removed + added` needs one
/// walk over the overlapped pieces' cached costs (`removed`) and three
/// looked-up costs (`added`).
struct Candidates<'e> {
    endpoints: &'e [usize],
    /// `piece_cost([e_a, e_b])` in candidate order (by `a`, then `b ≥ a`);
    /// `None` above [`OWN_COST_TABLE_CAP`].
    own: Option<Vec<f64>>,
    /// Per endpoint `e`: the cost of `[s, e − 1]`, `s` being the start of
    /// the piece holding `e`; `None` when `s = e`.
    left: Vec<Option<f64>>,
    /// Per endpoint `e`: the cost of `[e + 1, t]`, `t` being the end of the
    /// piece holding `e`; `None` when `t = e`.
    right: Vec<Option<f64>>,
}

impl<'e> Candidates<'e> {
    /// Checks the endpoint list and tabulates each candidate's own cost.
    fn new(n: usize, endpoints: &'e [usize], oracle: &impl CostOracle) -> Result<Self, DistError> {
        let bad = |reason: String| Err(DistError::BadParameter { reason });
        let Some(&last) = endpoints.last() else {
            return bad("no candidate intervals".into());
        };
        if !endpoints.is_sorted() {
            return bad("candidate endpoints must be non-decreasing".into());
        }
        if last >= n {
            return bad(format!("candidate endpoint {last} is outside [0, {n})"));
        }
        let len = endpoints.len();
        let own = if len.saturating_mul(len + 1) / 2 <= OWN_COST_TABLE_CAP {
            let mut own = Vec::with_capacity(len * (len + 1) / 2);
            for (a, &lo) in endpoints.iter().enumerate() {
                for &hi in endpoints.iter().skip(a) {
                    own.push(oracle.piece_cost(Interval::new(lo, hi)?));
                }
            }
            Some(own)
        } else {
            None
        };
        Ok(Candidates {
            endpoints,
            own,
            left: vec![None; len],
            right: vec![None; len],
        })
    }

    /// Scores every candidate against `state` — the total cost the tiling
    /// would have after inserting it — passing each score to `scored` in
    /// candidate order, and returns the first minimizer.
    fn best(
        &mut self,
        state: &TilingState,
        oracle: &impl CostOracle,
        mut scored: impl FnMut(f64),
    ) -> Result<Interval, DistError> {
        for ((&e, left), right) in self
            .endpoints
            .iter()
            .zip(&mut self.left)
            .zip(&mut self.right)
        {
            let piece = state.piece_containing(e);
            *left = if piece.lo() < e {
                Some(oracle.piece_cost(Interval::new(piece.lo(), e - 1)?))
            } else {
                None
            };
            *right = if piece.hi() > e {
                Some(oracle.piece_cost(Interval::new(e + 1, piece.hi())?))
            } else {
                None
            };
        }
        let total = state.total_cost();
        let mut own = self.own.as_deref().map(<[f64]>::iter);
        let mut best: Option<(f64, Interval)> = None;
        for (a, (&lo, &left)) in self.endpoints.iter().zip(&self.left).enumerate() {
            for (&hi, &right) in self.endpoints.iter().zip(&self.right).skip(a) {
                let j = Interval::new(lo, hi)?;
                // J's own cost, then the left trim, then the right trim:
                // the order fixes the score's bits.
                let mut added = match own.as_mut().and_then(Iterator::next) {
                    Some(&cost) => cost,
                    None => oracle.piece_cost(j),
                };
                if let Some(cost) = left {
                    added += cost;
                }
                if let Some(cost) = right {
                    added += cost;
                }
                let cost = total - state.overlap_cost(j) + added;
                scored(cost);
                match best {
                    Some((b, _)) if b <= cost => {}
                    _ => best = Some((cost, j)),
                }
            }
        }
        best.map(|(_, j)| j).ok_or_else(|| DistError::BadParameter {
            reason: "no candidate intervals".into(),
        })
    }
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
            // lint:allow(checked-indexing): i*(len-1)/(keep-1) <= len-1 for i < keep, and keep >= 2 is validated upstream
            .map(|i| endpoints[i * (len - 1) / (keep - 1)])
            .collect();
        endpoints.dedup();
    }
    endpoints
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
    fn rejects_a_one_endpoint_cap() {
        // Subsampling to one endpoint would divide by keep − 1 = 0.
        let p = generators::zipf(64, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let main = SampleSet::draw(&p, 500, &mut rng);
        let sets = SampleSet::draw_many(&p, 100, 3, &mut rng);
        let budget = LearnerBudget::calibrated(64, 2, 0.2, 0.05).unwrap();
        let mut params = GreedyParams::fast(2, 0.2, budget);
        params.max_endpoints = 1;
        assert!(matches!(
            learn_from_samples(64, &main, &sets, &params),
            Err(DistError::BadParameter { .. })
        ));
        // 0 means no cap; 2 is the smallest cap.
        for (cap, used) in [(2, 2), (0, main.endpoint_candidates(64).len())] {
            params.max_endpoints = cap;
            let out = learn_from_samples(64, &main, &sets, &params).unwrap();
            assert_eq!(out.stats.endpoints_used, used, "cap {cap}");
        }
    }

    #[test]
    fn rejects_decreasing_endpoints() {
        use crate::cost::ExactCostOracle;
        let p = DenseDistribution::uniform(16).unwrap();
        let oracle = ExactCostOracle::new(&p);
        assert!(matches!(
            greedy_with_oracle(16, &oracle, &[0, 9, 4, 15], 2),
            Err(DistError::BadParameter { .. })
        ));
        // Repeated endpoints only repeat candidates.
        assert!(greedy_with_oracle(16, &oracle, &[0, 4, 4, 15], 2).is_ok());
    }

    #[test]
    fn rejects_endpoints_outside_the_domain() {
        use crate::cost::ExactCostOracle;
        let p = DenseDistribution::uniform(16).unwrap();
        let oracle = ExactCostOracle::new(&p);
        for endpoints in [&[0, 16][..], &[3, 40], &[]] {
            assert!(
                matches!(
                    greedy_with_oracle(16, &oracle, endpoints, 2),
                    Err(DistError::BadParameter { .. })
                ),
                "{endpoints:?}"
            );
        }
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

/// The reference learner: Algorithm 1's loop in its direct form — an
/// explicit candidate list, each candidate previewed on its own, every cost
/// read from the sample sets — which the tabulated loop must match bit for
/// bit: every candidate's score in every iteration, hence the same inserts,
/// `total_cost` bits, pieces, densities and candidate count.
#[cfg(test)]
mod reference_tests {
    use super::*;
    use khist_dist::{generators, DenseDistribution};
    use khist_oracle::MedianBooster;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The sample cost oracle without tables: every query reads the sets.
    struct ReferenceOracle<'a> {
        main: &'a SampleSet,
        booster: MedianBooster<'a>,
    }

    impl CostOracle for ReferenceOracle<'_> {
        fn weight(&self, iv: Interval) -> f64 {
            self.main.empirical_mass(iv)
        }

        fn power(&self, iv: Interval) -> f64 {
            self.booster.absolute_median(iv)
        }
    }

    /// All intervals `[a, b]` with `a ≤ b` drawn from the endpoint set.
    fn enumerate_candidates(endpoints: &[usize]) -> Vec<Interval> {
        let mut out = Vec::with_capacity(endpoints.len() * (endpoints.len() + 1) / 2);
        for (i, &a) in endpoints.iter().enumerate() {
            for &b in &endpoints[i..] {
                out.push(Interval::new(a, b).expect("endpoints sorted"));
            }
        }
        out
    }

    /// One candidate's score, computed on its own: the total, less the
    /// cached costs of the pieces `j` overlaps (summed in tiling order),
    /// plus `j`, the left trim and the right trim, each costed afresh.
    fn preview_insert(
        total_cost: f64,
        pieces: &[(Interval, f64)],
        j: Interval,
        oracle: &impl CostOracle,
    ) -> f64 {
        let first = pieces.partition_point(|(iv, _)| iv.hi() < j.lo());
        let first_lo = pieces[first].0.lo();
        let mut last_hi = j.hi();
        let removed: f64 = pieces[first..]
            .iter()
            .take_while(|(iv, _)| iv.lo() <= j.hi())
            .map(|&(iv, cost)| {
                last_hi = iv.hi();
                cost
            })
            .sum();
        let mut added = oracle.piece_cost(j);
        if first_lo < j.lo() {
            added += oracle.piece_cost(Interval::new(first_lo, j.lo() - 1).expect("left trim"));
        }
        if last_hi > j.hi() {
            added += oracle.piece_cost(Interval::new(j.hi() + 1, last_hi).expect("right trim"));
        }
        total_cost - removed + added
    }

    /// One greedy iteration: every candidate's score bits in candidate
    /// order, the interval committed and the committed total's bits.
    struct Step {
        scores: Vec<u64>,
        inserted: Interval,
        total: u64,
    }

    /// The reference loop; returns its steps and its final tiling.
    fn reference_run(
        n: usize,
        oracle: &ReferenceOracle,
        endpoints: &[usize],
        q: usize,
    ) -> (Vec<Step>, TilingState) {
        let candidates = enumerate_candidates(endpoints);
        let mut state = TilingState::full_domain(n, oracle).unwrap();
        let mut steps = Vec::new();
        for _ in 0..q {
            // A piece's cached cost is the oracle's answer when it was
            // inserted; the oracle is a pure function, so asking again
            // gives the same bits.
            let pieces: Vec<(Interval, f64)> = state
                .pieces()
                .map(|iv| (iv, oracle.piece_cost(iv)))
                .collect();
            let mut scores = Vec::with_capacity(candidates.len());
            let mut best: Option<(f64, Interval)> = None;
            for &j in &candidates {
                let cost = preview_insert(state.total_cost(), &pieces, j, oracle);
                scores.push(cost.to_bits());
                match best {
                    Some((b, _)) if b <= cost => {}
                    _ => best = Some((cost, j)),
                }
            }
            let (_, inserted) = best.expect("candidates is non-empty");
            state.insert(inserted, oracle);
            let total = state.total_cost().to_bits();
            steps.push(Step {
                scores,
                inserted,
                total,
            });
        }
        (steps, state)
    }

    /// The tabulated loop, stepped the way `greedy_with_oracle` steps it.
    fn tabulated_run(
        n: usize,
        oracle: &SampleCostOracle,
        endpoints: &[usize],
        q: usize,
    ) -> Vec<Step> {
        let mut candidates = Candidates::new(n, endpoints, oracle).unwrap();
        let mut state = TilingState::full_domain(n, oracle).unwrap();
        (0..q)
            .map(|_| {
                let mut scores = Vec::new();
                let inserted = candidates
                    .best(&state, oracle, |cost| scores.push(cost.to_bits()))
                    .unwrap();
                state.insert(inserted, oracle);
                let total = state.total_cost().to_bits();
                Step {
                    scores,
                    inserted,
                    total,
                }
            })
            .collect()
    }

    /// Asserts that one window learns exactly as the reference learns it.
    fn assert_matches_reference(
        n: usize,
        main: &SampleSet,
        sets: &[SampleSet],
        params: &GreedyParams,
    ) {
        let q = params.budget.q;
        let endpoints = candidate_endpoints(n, main, params);
        let reference = ReferenceOracle {
            main,
            booster: MedianBooster::new(sets),
        };
        let (expected, final_state) = reference_run(n, &reference, &endpoints, q);
        let tabulated = SampleCostOracle::new(n, main, sets, &endpoints);
        let got = tabulated_run(n, &tabulated, &endpoints, q);
        assert_eq!(got.len(), expected.len());
        for (i, (got, want)) in got.iter().zip(&expected).enumerate() {
            let first_diff = got
                .scores
                .iter()
                .zip(&want.scores)
                .position(|(a, b)| a != b);
            assert_eq!(first_diff, None, "iteration {i}: first differing score");
            assert_eq!(got.scores.len(), want.scores.len(), "iteration {i}");
            assert_eq!(got.inserted, want.inserted, "iteration {i}: inserted");
            assert_eq!(got.total, want.total, "iteration {i}: total_cost bits");
        }
        // The public entry point ends where the reference ends.
        let out = learn_from_samples(n, main, sets, params).unwrap();
        let want: Vec<(Interval, u64)> = final_state
            .pieces()
            .map(|iv| (iv, (reference.weight(iv) / iv.len() as f64).to_bits()))
            .collect();
        let got: Vec<(Interval, u64)> = out
            .tiling
            .pieces()
            .map(|(iv, d)| (iv, d.to_bits()))
            .collect();
        assert_eq!(got, want, "final pieces and density bits");
        let per_iteration = enumerate_candidates(&endpoints).len();
        assert_eq!(out.stats.candidates_evaluated, q * per_iteration);
        assert_eq!(out.stats.iterations, q);
    }

    fn budget(ell: usize, r: usize, m: usize, q: usize) -> LearnerBudget {
        LearnerBudget {
            xi: 0.01,
            ell,
            r,
            m,
            q,
        }
    }

    /// Draws one window's samples and checks it against the reference.
    fn check_window(p: &DenseDistribution, params: &GreedyParams, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = params.budget;
        let main = SampleSet::draw(p, b.ell, &mut rng);
        let sets = SampleSet::draw_many(p, b.m, b.r, &mut rng);
        assert_matches_reference(p.n(), &main, &sets, params);
    }

    fn probe_shapes() -> Vec<DenseDistribution> {
        vec![
            DenseDistribution::uniform(256).unwrap(),
            generators::zipf(256, 1.1).unwrap(),
            generators::staircase(256, 8).unwrap(),
        ]
    }

    #[test]
    fn probe_budget_windows_match_reference() {
        // The watch-default window: 128 capped endpoints, 8,256 candidates.
        let params = GreedyParams::fast(8, 0.1, budget(3094, 3, 302, 19));
        for (seed, p) in probe_shapes().iter().enumerate() {
            check_window(p, &params, seed as u64);
        }
    }

    #[test]
    fn small_budget_windows_match_reference() {
        let params = GreedyParams::fast(8, 0.1, budget(700, 3, 100, 19));
        for (seed, p) in probe_shapes().iter().enumerate() {
            check_window(p, &params, 10 + seed as u64);
        }
    }

    #[test]
    fn e1_workloads_match_reference_under_all_candidates() {
        // E1's four shapes at its quick n, built as its workload family
        // builds them, with exhaustive candidates.
        let n = 128;
        let nf = n as f64;
        let shapes = [
            generators::zipf(n, 1.2).unwrap(),
            generators::discrete_gaussian(n, nf / 2.0, nf / 12.0).unwrap(),
            generators::mixture(&[
                (
                    0.5,
                    generators::discrete_gaussian(n, nf * 0.25, nf / 20.0).unwrap(),
                ),
                (
                    0.5,
                    generators::discrete_gaussian(n, nf * 0.75, nf / 20.0).unwrap(),
                ),
            ])
            .unwrap(),
            generators::staircase(n, 8).unwrap(),
        ];
        let budget = LearnerBudget::calibrated(n, 4, 0.1, 0.03).unwrap();
        let mut params = GreedyParams::new(4, 0.1, budget);
        params.policy = CandidatePolicy::All;
        for (seed, p) in shapes.iter().enumerate() {
            check_window(p, &params, 20 + seed as u64);
        }
    }

    #[test]
    fn even_lane_count_and_empty_main_match_reference() {
        // An even r averages the middle two lane estimates.
        let p = generators::zipf(256, 1.1).unwrap();
        check_window(&p, &GreedyParams::fast(8, 0.1, budget(700, 4, 100, 19)), 30);
        // No main sample: every weight is 0.0 and the endpoints fall back
        // to the domain's ends.
        let mut rng = StdRng::seed_from_u64(31);
        let sets = SampleSet::draw_many(&p, 100, 3, &mut rng);
        let empty = SampleSet::from_samples(vec![]);
        let params = GreedyParams::fast(8, 0.1, budget(0, 3, 100, 19));
        assert_matches_reference(256, &empty, &sets, &params);
    }

    #[test]
    fn above_the_table_cap_matches_reference() {
        // 768 endpoints make 295,296 candidates, over the own-cost table's
        // cap, so each candidate's own cost is read from the oracle.
        let n = 768;
        let p = generators::staircase(n, 8).unwrap();
        let mut params = GreedyParams::new(2, 0.3, budget(2000, 3, 200, 3));
        params.policy = CandidatePolicy::All;
        let endpoints: Vec<usize> = (0..n).collect();
        let main = SampleSet::from_samples(vec![0]);
        let oracle = SampleCostOracle::new(n, &main, &[], &endpoints);
        assert!(Candidates::new(n, &endpoints, &oracle)
            .unwrap()
            .own
            .is_none());
        assert!(Candidates::new(n, &endpoints[..128], &oracle)
            .unwrap()
            .own
            .is_some());
        check_window(&p, &params, 40);
    }
}
