//! Distribution shape analysis: the full tester toolbox on one dataset —
//! through one `Session` and ONE shared sample draw.
//!
//! Run with: `cargo run --release --example shape_analysis`
//!
//! Given only samples of an unknown distribution, run the whole battery —
//! uniformity (k = 1 lineage), k-histogram structure (the paper's
//! Theorem 3 at three different k), monotonicity (the BKR04-style
//! histogram reduction) and identity against a reference — and print a
//! structural profile. Before the analysis API this cost one sample draw
//! *per probe*; a `Session` batch computes the shared `SamplePlan` and
//! draws once, which is exactly the workflow the property-testing
//! literature envisions: cheap sample-only probes before any expensive
//! full-data processing.

use khist::prelude::*;

fn profile(name: &str, p: &DenseDistribution, seed: u64) {
    let n = p.n();
    println!("── {name} (n = {n}) ──");

    let reference = khist::dist::generators::zipf(n, 1.0).unwrap();
    let mut session = Session::from_dense(p, seed);
    let reports = session
        .run(&[
            Uniformity::eps(0.3).scale(0.1).into(),
            Monotone::eps(0.3).into(),
            TestL2::k(2).eps(0.2).scale(0.05).into(),
            TestL2::k(4).eps(0.2).scale(0.05).into(),
            TestL2::k(8).eps(0.2).scale(0.05).into(),
            IdentityL2::against(reference)
                .eps(0.15)
                .samples(20_000)
                .into(),
        ])
        .unwrap();

    let uni = &reports[0];
    println!(
        "  uniform?        {:?}  (collision stat {:.2e} vs threshold {:.2e}, {} samples)",
        uni.verdict.unwrap(),
        uni.statistic.unwrap(),
        uni.threshold.unwrap(),
        uni.samples_spent
    );
    let mono = &reports[1];
    println!(
        "  non-increasing? {:?}  (isotonic residual {:.3} vs {:.3})",
        mono.verdict.unwrap(),
        mono.statistic.unwrap(),
        mono.threshold.unwrap()
    );
    for (k, rep) in [2usize, 4, 8].iter().zip(&reports[2..5]) {
        println!(
            "  {k:>2}-histogram?   {:?}  ({} probes)",
            rep.verdict.unwrap(),
            rep.probes.unwrap()
        );
    }
    let id = &reports[5];
    println!(
        "  = zipf(1.0)?    {:?}  (‖p−q‖₂² estimate {:.2e})",
        id.verdict.unwrap(),
        id.statistic.unwrap()
    );
    println!(
        "  cost: {} samples drawn once, {} consumed across {} probes\n",
        session.samples_drawn(),
        reports.iter().map(|r| r.samples_spent).sum::<usize>(),
        reports.len()
    );
}

fn main() {
    let n = 512;

    let subjects: Vec<(&str, DenseDistribution)> = vec![
        ("uniform", DenseDistribution::uniform(n).unwrap()),
        ("zipf(1.0)", khist::dist::generators::zipf(n, 1.0).unwrap()),
        (
            "staircase-4",
            khist::dist::generators::staircase(n, 4).unwrap(),
        ),
        (
            "bimodal",
            khist::dist::generators::mixture(&[
                (
                    0.5,
                    khist::dist::generators::discrete_gaussian(n, 128.0, 30.0).unwrap(),
                ),
                (
                    0.5,
                    khist::dist::generators::discrete_gaussian(n, 384.0, 30.0).unwrap(),
                ),
            ])
            .unwrap(),
        ),
    ];
    for (i, (name, p)) in subjects.iter().enumerate() {
        profile(name, p, 2024 + i as u64);
    }
    println!(
        "Reading the profiles: uniform passes every structural test but is\n\
         not zipf; zipf's heavy head makes it non-uniform and not even a\n\
         2-histogram in ℓ₂, yet perfectly monotone and identical to itself;\n\
         the staircase and bimodal shapes pass the ℓ₂ histogram tests even\n\
         at k = 2 because their ℓ₂ distance to coarse histograms is tiny —\n\
         the norm-sensitivity the paper's ℓ₁ tester (and its √(kn) price)\n\
         exists to overcome; the staircase (ascending) and the bimodal\n\
         shape both fail monotonicity."
    );
}
