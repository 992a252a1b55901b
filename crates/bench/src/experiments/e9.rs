//! E9 — ablations of the design choices DESIGN.md calls out.
//!
//! Four small studies, each isolating one knob of the reproduction:
//!
//! * **(a) median-of-r boosting** — split a fixed collision budget into
//!   `r ∈ {1, 3, 9, 27}` sets; more sets buy outlier robustness (the
//!   Chernoff argument) at the price of per-set resolution.
//! * **(b) candidate policy** — All vs SampleEndpoints vs fixed grids on a
//!   skewed workload: sample-adaptive endpoints concentrate where the mass
//!   is, which blind grids cannot.
//! * **(c) iteration count** — the paper's `q = k·ln(1/ε)`: fewer
//!   iterations under-fit; extra iterations buy little (the `(1−1/k)^q`
//!   term is already spent).
//! * **(d) piece growth & compression** — the learned tiling stays within
//!   the `2q+1`-piece bound and compressing to `k` pieces costs only the
//!   projection error.

use khist_baseline::v_optimal;
use khist_core::compress::compress_to_k;
use khist_core::greedy::{CandidatePolicy, GreedyParams};
use khist_dist::generators;
use khist_oracle::LearnerBudget;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::runner::{parallel_map, seed_for};
use crate::table::{fmt, Table};

/// Runs E9 and returns its tables (a–d).
pub fn run(quick: bool) -> Vec<Table> {
    let trials = if quick { 3 } else { 8 };
    vec![
        ablation_r(trials),
        ablation_policy(trials),
        ablation_q(trials),
        ablation_pieces(trials),
    ]
}

fn ablation_r(trials: usize) -> Table {
    let n = 128;
    let k = 4;
    let eps = 0.1;
    let p = generators::discrete_gaussian(n, 64.0, 14.0).expect("valid");
    let base = LearnerBudget::calibrated(n, k, eps, 0.02).expect("budget");
    let total_collision = 27 * (base.m / 4).max(64);
    let rows = parallel_map(vec![1usize, 3, 9, 27], |&r| {
        let mut budget = base;
        budget.r = r;
        budget.m = total_collision / r;
        let mut errs = Vec::with_capacity(trials);
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(seed_for(91, &[r, t]));
            let out = super::learn_sampled(
                &p,
                &GreedyParams {
                    k,
                    eps,
                    budget,
                    policy: CandidatePolicy::All,
                    max_endpoints: 0,
                },
                &mut rng,
            )
            .expect("learner runs");
            errs.push(out.tiling.l2_sq_to(&p));
        }
        vec![
            r.to_string(),
            fmt::int(budget.m),
            fmt::sci(khist_stats::mean(&errs)),
            fmt::sci(khist_stats::quantile(&errs, 0.95).unwrap_or(f64::NAN)),
        ]
    });
    let mut t = Table::new(
        "E9a median-of-r under a fixed collision budget",
        format!("gaussian, n = {n}, k = {k}; r sets of m samples, r*m = {total_collision}; learner final l2sq error"),
        &["r", "m per set", "mean err", "p95 err"],
    );
    for r in rows {
        t.push_row(r);
    }
    t
}

fn ablation_policy(trials: usize) -> Table {
    let n = 256;
    let k = 6;
    let eps = 0.1;
    let p = generators::zipf(n, 1.5).expect("valid");
    let opt = v_optimal(&p, k).expect("DP succeeds").sse;
    let budget = LearnerBudget::calibrated(n, k, eps, 0.02).expect("budget");
    let policies: Vec<(&str, CandidatePolicy, usize)> = vec![
        ("all intervals", CandidatePolicy::All, 0),
        ("sample endpoints", CandidatePolicy::SampleEndpoints, 128),
        ("grid stride 4", CandidatePolicy::Grid(4), 0),
        ("grid stride 16", CandidatePolicy::Grid(16), 0),
    ];
    let rows = parallel_map((0..policies.len()).collect(), |&pi| {
        let (name, policy, cap) = policies[pi];
        let mut gaps = Vec::with_capacity(trials);
        let mut cands = 0usize;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(seed_for(92, &[pi, t]));
            let out = super::learn_sampled(
                &p,
                &GreedyParams {
                    k,
                    eps,
                    budget,
                    policy,
                    max_endpoints: cap,
                },
                &mut rng,
            )
            .expect("learner runs");
            gaps.push((out.tiling.l2_sq_to(&p) - opt).max(0.0));
            cands = out.stats.candidates_evaluated;
        }
        vec![
            name.to_string(),
            fmt::int(cands),
            fmt::sci(khist_stats::mean(&gaps)),
        ]
    });
    let mut t = Table::new(
        "E9b candidate policy on skewed data",
        format!("zipf(1.5), n = {n}, k = {k}; gap vs the exact optimum"),
        &["policy", "candidates", "mean gap"],
    );
    for r in rows {
        t.push_row(r);
    }
    t
}

fn ablation_q(trials: usize) -> Table {
    let n = 128;
    let k = 4;
    let eps = 0.1;
    let p = generators::discrete_gaussian(n, 64.0, 14.0).expect("valid");
    let opt = v_optimal(&p, k).expect("DP succeeds").sse;
    let base = LearnerBudget::calibrated(n, k, eps, 0.02).expect("budget");
    let mut t = Table::new(
        "E9c iteration count q",
        format!(
            "gaussian, n = {n}, k = {k}; paper prescribes q = k·ln(1/eps) = {}",
            base.q
        ),
        &["q", "q / paper q", "mean gap"],
    );
    let q_values = vec![(base.q / 4).max(1), (base.q / 2).max(1), base.q, base.q * 2];
    let results = parallel_map(q_values, |&q| {
        let mut budget = base;
        budget.q = q;
        let mut gaps = Vec::with_capacity(trials);
        for tr in 0..trials {
            let mut rng = StdRng::seed_from_u64(seed_for(93, &[q, tr]));
            let out = super::learn_sampled(
                &p,
                &GreedyParams {
                    k,
                    eps,
                    budget,
                    policy: CandidatePolicy::All,
                    max_endpoints: 0,
                },
                &mut rng,
            )
            .expect("learner runs");
            gaps.push((out.tiling.l2_sq_to(&p) - opt).max(0.0));
        }
        (q, khist_stats::mean(&gaps))
    });
    for (q, gap) in results {
        t.push_row(vec![
            q.to_string(),
            fmt::f3(q as f64 / base.q as f64),
            fmt::sci(gap),
        ]);
    }
    t
}

fn ablation_pieces(trials: usize) -> Table {
    let n = 256;
    let k = 5;
    let eps = 0.1;
    let budget = LearnerBudget::calibrated(n, k, eps, 0.02).expect("budget");
    let results = parallel_map((0..trials).collect(), |&t| {
        let mut rng = StdRng::seed_from_u64(seed_for(94, &[t]));
        let (_, p) =
            generators::random_tiling_histogram_distinct(n, k, &mut rng).expect("valid instance");
        let out = super::learn_sampled(&p, &GreedyParams::fast(k, eps, budget), &mut rng)
            .expect("learner runs");
        let raw_pieces = out.tiling.piece_count();
        let bound = 2 * out.stats.iterations + 1;
        let raw_err = out.tiling.l2_sq_to(&p);
        let compressed = compress_to_k(&out.tiling, k).expect("compression succeeds");
        let comp_err = compressed.l2_sq_to(&p);
        (raw_pieces, bound, raw_err, comp_err)
    });
    let mut t = Table::new(
        "E9d piece growth and compression",
        format!("random {k}-histograms, n = {n}; raw output vs compress_to_k({k})"),
        &[
            "trial",
            "raw pieces",
            "bound 2q+1",
            "raw err",
            "compressed err",
        ],
    );
    for (i, (pieces, bound, raw, comp)) in results.iter().enumerate() {
        t.push_row(vec![
            i.to_string(),
            pieces.to_string(),
            bound.to_string(),
            fmt::sci(*raw),
            fmt::sci(*comp),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_four_tables() {
        let tables = run(true);
        assert_eq!(tables.len(), 4);
        for t in &tables {
            assert!(!t.rows.is_empty(), "{} is empty", t.title);
        }
    }

    #[test]
    fn piece_bound_respected() {
        let tables = run(true);
        let d = &tables[3];
        for row in &d.rows {
            let pieces: usize = row[1].parse().unwrap();
            let bound: usize = row[2].parse().unwrap();
            assert!(pieces <= bound, "piece bound violated: {row:?}");
        }
    }
}
