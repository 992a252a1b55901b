//! End-to-end tester correctness (Theorems 3 and 4) with *certified*
//! far-ness: every NO instance is first verified ε-far via the exact DPs
//! before the tester is required to reject it.

use khist::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Majority verdict over `runs` tester invocations.
fn vote_l2(p: &DenseDistribution, k: usize, eps: f64, scale: f64, seed: u64, runs: usize) -> bool {
    let budget = L2TesterBudget::calibrated(p.n(), eps, scale).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let accepts = (0..runs)
        .filter(|_| {
            let mut session = Session::from_dense(p, rand::Rng::random(&mut rng));
            session
                .run_one(TestL2::k(k).eps(eps).budget(budget))
                .unwrap()
                .accepted()
        })
        .count();
    accepts * 2 > runs
}

fn vote_l1(p: &DenseDistribution, k: usize, eps: f64, scale: f64, seed: u64, runs: usize) -> bool {
    let budget = L1TesterBudget::calibrated(p.n(), k, eps, scale).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let accepts = (0..runs)
        .filter(|_| {
            let mut session = Session::from_dense(p, rand::Rng::random(&mut rng));
            session
                .run_one(TestL1::k(k).eps(eps).budget(budget))
                .unwrap()
                .accepted()
        })
        .count();
    accepts * 2 > runs
}

#[test]
fn l2_completeness_on_random_histograms() {
    let mut rng = StdRng::seed_from_u64(100);
    for trial in 0..4u64 {
        let k = 2 + (trial as usize % 3);
        let (_, p) =
            khist::dist::generators::random_tiling_histogram_distinct(128, k, &mut rng).unwrap();
        assert!(
            vote_l2(&p, k, 0.3, 0.05, 200 + trial, 7),
            "trial {trial}: YES instance rejected"
        );
    }
}

#[test]
fn l2_soundness_on_certified_far_instance() {
    let k = 4;
    let eps = 0.15;
    let p = khist::dist::generators::spike_comb(128, 16).unwrap();
    // Certify: optimal k-histogram really is ε-far in ℓ₂.
    let opt = v_optimal(&p, k).unwrap();
    assert!(
        opt.l2_distance() > eps,
        "instance not certified far: ℓ₂ distance {} ≤ ε = {eps}",
        opt.l2_distance()
    );
    assert!(
        !vote_l2(&p, k, eps, 0.05, 1, 7),
        "certified-far instance accepted"
    );
}

#[test]
fn l2_monotone_in_k_on_spikes() {
    // spike_comb(96, 8) is a (2·8+1 = 17)-histogram: far for k = 4, in-class
    // for k = 17.
    let p = khist::dist::generators::spike_comb(96, 8).unwrap();
    assert!(!vote_l2(&p, 4, 0.2, 0.05, 2, 7), "k = 4 should reject");
    assert!(vote_l2(&p, 17, 0.2, 0.05, 3, 7), "k = 17 should accept");
}

#[test]
fn l1_completeness_on_yes_ensemble() {
    for (n, k, seed) in [(128usize, 4usize, 10u64), (256, 8, 11), (96, 2, 12)] {
        let inst = khist::dist::generators::yes_instance(n, k).unwrap();
        assert!(
            vote_l1(&inst.dist, k, 0.4, 0.02, seed, 7),
            "YES instance (n={n}, k={k}) rejected"
        );
    }
}

#[test]
fn l1_soundness_on_certified_no_ensemble() {
    // The Theorem 5 NO instance's ℓ₁ distance scales like 2/k (one
    // perturbed bucket of mass 2/k), so single-bucket certification only
    // works for small k; for larger k, perturb every bucket.
    let mut rng = StdRng::seed_from_u64(500);
    let eps = 0.2;

    let single = khist::dist::generators::no_instance(128, 4, &mut rng).unwrap();
    let cert = l1_flatten_optimal(&single.dist, 4).unwrap();
    assert!(
        cert.certifies_far(eps),
        "(n=128,k=4) not certified: flatten {} (lower bound {})",
        cert.flatten_cost,
        cert.l1_lower_bound()
    );
    assert!(
        !vote_l1(&single.dist, 4, eps * 2.0, 0.02, 20, 7),
        "certified-far NO instance (n=128, k=4) accepted"
    );

    let all = khist::dist::generators::half_empty_perturbation(256, 8, 8, &mut rng).unwrap();
    let cert = l1_flatten_optimal(&all, 8).unwrap();
    assert!(
        cert.certifies_far(2.0 * eps),
        "fully perturbed (n=256,k=8) not certified: lower bound {}",
        cert.l1_lower_bound()
    );
    assert!(
        !vote_l1(&all, 8, 2.0 * eps, 0.02, 21, 7),
        "certified-far fully-perturbed instance accepted"
    );
}

#[test]
fn l1_soundness_on_zigzag() {
    let eps = 0.35;
    let p = khist::dist::generators::zigzag(128, 0.95).unwrap();
    let cert = l1_flatten_optimal(&p, 4).unwrap();
    assert!(
        cert.certifies_far(eps),
        "zigzag lower bound {}",
        cert.l1_lower_bound()
    );
    assert!(
        !vote_l1(&p, 4, eps, 0.02, 30, 7),
        "certified-far zigzag accepted"
    );
}

#[test]
fn testers_respect_uniformity_special_case() {
    // k = 1 testing is uniformity testing (the paper's §1.3 connection).
    let uniform = DenseDistribution::uniform(256).unwrap();
    assert!(vote_l2(&uniform, 1, 0.3, 0.05, 40, 7));
    assert!(vote_l1(&uniform, 1, 0.4, 0.02, 41, 7));
    // "Uniform on a random half" — the classical hard instance — separates
    // the two norms: its ℓ₁ distance from uniform is 1 (the ℓ₁ tester must
    // reject), but its ℓ₂ distance is only 1/√n ≈ 0.06 (the ℓ₂ tester at
    // ε = 0.3 rightly accepts — this is exactly why ℓ₂ testing is possible
    // with polylog samples while ℓ₁ needs Ω(√n), Theorem 5).
    let mut rng = StdRng::seed_from_u64(42);
    let half = khist::dist::generators::half_empty_perturbation(256, 1, 1, &mut rng).unwrap();
    assert!(
        !vote_l1(&half, 1, 0.4, 0.02, 44, 7),
        "half-empty accepted by ℓ₁ @ k=1"
    );
    assert!(
        vote_l2(&half, 1, 0.3, 0.05, 43, 7),
        "half-empty is only 1/√n-far in ℓ₂ and should pass the ε = 0.3 ℓ₂ test"
    );
}

#[test]
fn sample_complexity_grows_sublinearly_in_n() {
    // The point of the paper: the ℓ₁ tester's budget grows like √n, not n.
    let b1 = L1TesterBudget::calibrated(1 << 10, 4, 0.3, 0.01).unwrap();
    let b2 = L1TesterBudget::calibrated(1 << 14, 4, 0.3, 0.01).unwrap();
    let sample_ratio = b2.total_samples().unwrap() as f64 / b1.total_samples().unwrap() as f64;
    let domain_ratio = 16.0;
    assert!(
        sample_ratio < domain_ratio / 2.0,
        "budget ratio {sample_ratio} not sublinear vs domain ratio {domain_ratio}"
    );
}
