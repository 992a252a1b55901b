//! E3 — Theorem 3: the `ℓ₂` tester's correctness and budget growth.
//!
//! **Paper claim.** Algorithm 2 with `testFlatness-ℓ₂` accepts tiling
//! `k`-histograms and rejects distributions `ε`-far in `ℓ₂`, each with
//! probability ≥ 2/3, from `O(ε⁻⁴ ln² n)` samples.
//!
//! **Reproduction.** Sweep `n` at fixed `(k, ε)`. YES instances are random
//! `k`-histograms; the NO instance is a spike comb whose `ℓ₂` distance to
//! the class is *certified* by the exact v-optimal DP before use (its
//! distance is domain-size independent, making the sweep fair). Report
//! accept/reject rates with Wilson 95 % intervals and the (formula-driven)
//! sample budget, whose growth column shows the `ln² n` shape: quadrupling
//! `n` multiplies the budget by `(ln 4n / ln n)² ≈ 1.1–1.6`, nowhere near
//! linear.

use khist_baseline::v_optimal;
use khist_core::api::{Session, TestL2};
use khist_dist::generators;
use khist_oracle::L2TesterBudget;
use khist_stats::SuccessCounter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::runner::{parallel_map, seed_for};
use crate::table::{fmt, Table};

/// Runs E3 and returns its tables.
pub fn run(quick: bool) -> Vec<Table> {
    let ns: &[usize] = if quick {
        &[128, 256]
    } else {
        &[128, 256, 512, 1024, 2048]
    };
    let k = 4;
    let eps = 0.15;
    let scale = 0.05;
    let trials = if quick { 10 } else { 30 };
    let spikes = 16;

    let rows = parallel_map(ns.to_vec(), |&n| {
        let budget = L2TesterBudget::calibrated(n, eps, scale).expect("budget");

        // NO instance, certified ε-far in ℓ₂ by the exact DP.
        let far = generators::spike_comb(n, spikes).expect("valid comb");
        let cert = v_optimal(&far, k).expect("DP succeeds").l2_distance();
        assert!(
            cert > eps,
            "spike comb not certified far at n = {n}: {cert}"
        );

        let mut yes_counter = SuccessCounter::new();
        let mut no_counter = SuccessCounter::new();
        let mut rng = StdRng::seed_from_u64(seed_for(3, &[n]));
        let test = || TestL2::k(k).eps(eps).budget(budget);
        // The NO instance is fixed for the whole row: one session (one
        // alias table) serves every trial's sample sets.
        let mut far_session = Session::from_dense(&far, rng.random());
        for _ in 0..trials {
            let (_, p) = generators::random_tiling_histogram_distinct(n, k, &mut rng)
                .expect("valid instance");
            let mut p_session = Session::from_dense(&p, rng.random());
            let report = p_session.run_one(test()).expect("tester runs");
            yes_counter.record(report.accepted());
            let report = far_session.run_one(test()).expect("tester runs");
            no_counter.record(!report.accepted());
        }
        let yes_ci = yes_counter.interval(1.96);
        let no_ci = no_counter.interval(1.96);
        vec![
            n.to_string(),
            fmt::int(budget.total_samples().expect("fits usize")),
            fmt::f3(cert),
            yes_counter.to_string(),
            format!("[{:.2},{:.2}]", yes_ci.lo, yes_ci.hi),
            no_counter.to_string(),
            format!("[{:.2},{:.2}]", no_ci.lo, no_ci.hi),
            fmt::ok(yes_counter.rate() >= 2.0 / 3.0 && no_counter.rate() >= 2.0 / 3.0),
        ]
    });

    let mut t = Table::new(
        "E3 Theorem 3 l2 tester",
        format!(
            "k = {k}, eps = {eps}, scale {scale}, {trials} trials/row; YES = random {k}-histograms, NO = spike comb (DP-certified far)"
        ),
        &["n", "samples", "NO l2-dist", "accept YES", "95% CI", "reject NO", "95% CI", ">=2/3"],
    );
    for r in rows {
        t.push_row(r);
    }

    // Budget-shape companion: contrast the ln²n formula against linear n.
    let mut shape = Table::new(
        "E3 budget growth vs domain",
        "the l2 budget's ln^2 n growth: each row shows samples(n)/samples(min n) vs n/min n",
        &["n", "samples", "budget ratio", "domain ratio"],
    );
    let base = L2TesterBudget::calibrated(ns[0], eps, scale)
        .expect("budget")
        .total_samples()
        .expect("fits usize") as f64;
    for &n in ns {
        let b = L2TesterBudget::calibrated(n, eps, scale)
            .expect("budget")
            .total_samples()
            .expect("fits usize");
        shape.push_row(vec![
            n.to_string(),
            fmt::int(b),
            fmt::f3(b as f64 / base),
            fmt::f3(n as f64 / ns[0] as f64),
        ]);
    }

    vec![t, shape]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_meets_two_thirds() {
        let tables = run(true);
        for row in &tables[0].rows {
            assert_eq!(row.last().unwrap(), "yes", "2/3 guarantee failed: {row:?}");
        }
    }

    #[test]
    fn budget_growth_is_sublinear() {
        let tables = run(true);
        let shape = &tables[1];
        let last = shape.rows.last().unwrap();
        let budget_ratio: f64 = last[2].parse().unwrap();
        let domain_ratio: f64 = last[3].parse().unwrap();
        assert!(
            budget_ratio < domain_ratio,
            "budget grew as fast as the domain"
        );
    }
}
