//! E7 — the learning curve: error vs sample budget.
//!
//! **Paper claim (§3).** `Õ((k/ε)² ln n)` samples suffice for an additive
//! `O(ε)` gap — so error should fall steadily as the budget grows, and the
//! greedy should track the sample-then-DP strawman while reading *far*
//! fewer interval statistics.
//!
//! **Reproduction.** Fix workload, `n`, `k`; sweep the calibration scale
//! (i.e. the sample budget); report mean gap-to-optimal for the greedy and
//! for sample-then-DP at the identical total budget.

use khist_baseline::{sample_then_dp, v_optimal};
use khist_core::greedy::GreedyParams;
use khist_dist::generators;
use khist_oracle::LearnerBudget;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::runner::{parallel_map, seed_for};
use crate::table::{fmt, Table};

/// Runs E7 and returns its table.
pub fn run(quick: bool) -> Vec<Table> {
    let n = 512;
    let k = 6;
    let eps = 0.1;
    let scales: &[f64] = if quick {
        &[0.002, 0.01, 0.05]
    } else {
        &[0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1]
    };
    let trials = if quick { 3 } else { 6 };

    let p = generators::zipf(n, 1.1).expect("valid zipf");
    let opt = v_optimal(&p, k).expect("DP succeeds").sse;

    let rows = parallel_map(scales.to_vec(), |&scale| {
        let budget = LearnerBudget::calibrated(n, k, eps, scale).expect("budget");
        let total = budget.total_samples().expect("fits usize");
        let mut greedy_gaps = Vec::with_capacity(trials);
        let mut sdp_gaps = Vec::with_capacity(trials);
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(seed_for(7, &[(scale * 1e6) as usize, t]));
            let out = super::learn_sampled(&p, &GreedyParams::fast(k, eps, budget), &mut rng)
                .expect("learner runs");
            greedy_gaps.push((out.tiling.l2_sq_to(&p) - opt).max(0.0));
            let sdp = sample_then_dp(&p, k, total, &mut rng).expect("baseline runs");
            sdp_gaps.push((sdp.sse_vs_truth - opt).max(0.0));
        }
        vec![
            fmt::f3(scale),
            fmt::int(budget.ell),
            fmt::int(total),
            fmt::sci(khist_stats::mean(&greedy_gaps)),
            fmt::sci(khist_stats::mean(&sdp_gaps)),
        ]
    });

    let mut t = Table::new(
        "E7 learning curve",
        format!(
            "zipf(1.1), n = {n}, k = {k}, eps = {eps}; gap = l2sq error minus the optimal {opt:.2e}, mean of {trials} trials"
        ),
        &["scale", "ell", "total samples", "greedy gap", "sample+DP gap"],
    );
    for r in rows {
        t.push_row(r);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_error_decreases_with_budget() {
        let tables = run(true);
        let rows = &tables[0].rows;
        let first_gap: f64 = rows.first().unwrap()[3].parse().unwrap();
        let last_gap: f64 = rows.last().unwrap()[3].parse().unwrap();
        assert!(
            last_gap <= first_gap * 1.5 + 1e-6,
            "gap should not grow with budget: {first_gap} -> {last_gap}"
        );
    }
}
