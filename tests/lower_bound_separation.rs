//! The Theorem 5 separation, end to end: the ensemble fools the tester at
//! tiny budgets and is caught at √(kn)-scale budgets.

use khist::lower_bound::{distinguishing_rate, CollisionDistinguisher};
use khist::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn l1_tester_separates_the_ensemble() {
    let n = 128;
    let k = 4;
    let eps = 0.4;
    let budget = L1TesterBudget::calibrated(n, k, eps, 0.02).unwrap();
    let mut rng = StdRng::seed_from_u64(1);

    let yes = khist::dist::generators::yes_instance(n, k).unwrap();
    let mut yes_accepts = 0;
    for _ in 0..7 {
        let mut session = Session::from_dense(&yes.dist, rand::Rng::random(&mut rng));
        if session
            .run_one(TestL1::k(k).eps(eps).budget(budget))
            .unwrap()
            .accepted()
        {
            yes_accepts += 1;
        }
    }
    assert!(yes_accepts >= 5, "YES accepted only {yes_accepts}/7");

    let mut no_rejects = 0;
    for _ in 0..7 {
        let no = khist::dist::generators::no_instance(n, k, &mut rng).unwrap();
        let mut session = Session::from_dense(&no.dist, rand::Rng::random(&mut rng));
        if !session
            .run_one(TestL1::k(k).eps(eps).budget(budget))
            .unwrap()
            .accepted()
        {
            no_rejects += 1;
        }
    }
    assert!(no_rejects >= 5, "NO rejected only {no_rejects}/7");
}

#[test]
fn ensemble_is_information_theoretically_hard_at_low_budget() {
    // With a budget far below √(kn), even the bespoke collision
    // distinguisher (which knows the partition!) stays near chance.
    let n = 4096;
    let k = 8;
    let sqrt_kn = ((n * k) as f64).sqrt() as usize; // ≈ 181
    let tiny = sqrt_kn / 16; // ≈ 11 samples
    let d = CollisionDistinguisher::default();
    let mut rng = StdRng::seed_from_u64(2);
    let rate = distinguishing_rate(n, k, tiny, 300, &d, &mut rng).unwrap();
    assert!(
        rate < 0.72,
        "rate {rate} too high at budget {tiny} ≪ √(kn) = {sqrt_kn}"
    );
}

#[test]
fn ensemble_is_distinguishable_above_threshold() {
    let n = 4096;
    let k = 8;
    let sqrt_kn = ((n * k) as f64).sqrt() as usize;
    let generous = sqrt_kn * 40;
    let d = CollisionDistinguisher::default();
    let mut rng = StdRng::seed_from_u64(3);
    let rate = distinguishing_rate(n, k, generous, 120, &d, &mut rng).unwrap();
    assert!(
        rate > 0.9,
        "rate {rate} too low at budget {generous} ≫ √(kn)"
    );
}

#[test]
fn threshold_grows_with_sqrt_nk_shape() {
    // Coarse two-point exponent check (the full sweep is experiment E5):
    // quadrupling n·k should roughly double the threshold.
    let d = CollisionDistinguisher::default();
    let mut rng = StdRng::seed_from_u64(4);
    let m_small = khist::lower_bound::threshold_samples(256, 4, 0.8, 80, &d, &mut rng).unwrap();
    let m_large = khist::lower_bound::threshold_samples(1024, 4, 0.8, 80, &d, &mut rng).unwrap();
    let ratio = m_large as f64 / m_small as f64;
    assert!(
        ratio > 1.2 && ratio < 8.0,
        "threshold ratio {ratio} wildly off the √4 = 2 prediction ({m_small} → {m_large})"
    );
}

#[test]
fn yes_and_no_have_identical_bucket_marginals() {
    // The lower bound's indistinguishability hinges on identical
    // bucket-level statistics; verify the construction delivers that.
    let mut rng = StdRng::seed_from_u64(5);
    let yes = khist::dist::generators::yes_instance(240, 6).unwrap();
    let no = khist::dist::generators::no_instance(240, 6, &mut rng).unwrap();
    for (a, b) in yes.partition.iter().zip(&no.partition) {
        assert_eq!(a, b);
        assert!(
            (yes.dist.interval_mass(*a) - no.dist.interval_mass(*b)).abs() < 1e-9,
            "bucket {a} marginal differs"
        );
    }
}
