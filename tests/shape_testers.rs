//! Cross-crate integration of the extension testers (uniformity, identity,
//! monotonicity) and the stream-to-sample bridge.

use khist::monotone::monotonicity_budget;
use khist::prelude::*;
use khist::uniformity::test_uniformity_from_set;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn reservoir_feeds_every_tester() {
    // One long stream; reservoirs produce the samples for three different
    // testers, all of which must reach the right verdict.
    let mut rng = StdRng::seed_from_u64(42);
    let n = 256;
    let p = khist::dist::generators::zipf(n, 1.1).unwrap();

    let mut res = Reservoir::new(60_000);
    for _ in 0..500_000 {
        res.offer(p.sample(&mut rng) as u32, &mut rng);
    }
    let set = res.to_sample_set();

    // zipf is not uniform…
    let uni = test_uniformity_from_set(n, 0.3, &set).unwrap();
    assert_eq!(uni.outcome, TestOutcome::Reject);
    // …but is monotone non-increasing…
    let mono = khist::monotone::test_monotone_from_set(n, 0.3, &set).unwrap();
    assert_eq!(mono.outcome, TestOutcome::Accept);
    // …and the collision statistic matches the true l2 norm.
    assert!((uni.statistic - p.l2_norm_sq()).abs() < 0.01);
}

#[test]
fn identity_tester_distinguishes_learned_models() {
    // Learn a histogram from distribution A, then use the identity tester
    // to check fresh samples of A against the model (accept) and samples of
    // a drifted B against the same model (reject).
    let mut rng = StdRng::seed_from_u64(7);
    let n = 128;
    let a = khist::dist::generators::staircase(n, 4).unwrap();
    let b = khist::dist::generators::two_level(n, 0.1, 0.8).unwrap();

    let budget = LearnerBudget::calibrated(n, 4, 0.1, 0.05).unwrap();
    let mut oracle = DenseOracle::new(&a, rand::Rng::random(&mut rng));
    let model = learn(&mut oracle, &GreedyParams::new(4, 0.1, budget))
        .unwrap()
        .normalized_tiling()
        .unwrap()
        .to_distribution()
        .unwrap();

    let identity = || IdentityL2::against(model.clone()).eps(0.2).samples(8000);
    let mut same_ok = 0;
    let mut drift_ok = 0;
    for _ in 0..9 {
        let mut session_a = Session::from_dense(&a, rand::Rng::random(&mut rng));
        if session_a.run_one(identity()).unwrap().accepted() {
            same_ok += 1;
        }
        let mut session_b = Session::from_dense(&b, rand::Rng::random(&mut rng));
        if !session_b.run_one(identity()).unwrap().accepted() {
            drift_ok += 1;
        }
    }
    assert!(same_ok > 4, "model rejected its own source {same_ok}/9");
    assert!(drift_ok > 4, "model accepted drifted data {drift_ok}/9");
}

#[test]
fn monotonicity_and_khistogram_testers_are_orthogonal() {
    let mut rng = StdRng::seed_from_u64(11);
    let n = 256;
    // A 3-histogram that is NOT monotone (middle piece heaviest).
    let h = TilingHistogram::from_pieces(
        &[
            (Interval::new(0, 63).unwrap(), 0.2 / 64.0),
            (Interval::new(64, 191).unwrap(), 0.7 / 128.0),
            (Interval::new(192, 255).unwrap(), 0.1 / 64.0),
        ],
        n,
    )
    .unwrap();
    let p = h.to_distribution().unwrap();

    // k-histogram tester accepts (majority).
    let tb = L2TesterBudget::calibrated(n, 0.25, 0.05).unwrap();
    let accepts = (0..7)
        .filter(|_| {
            let mut session = Session::from_dense(&p, rand::Rng::random(&mut rng));
            session
                .run_one(TestL2::k(3).eps(0.25).budget(tb))
                .unwrap()
                .accepted()
        })
        .count();
    assert!(
        accepts >= 4,
        "3-histogram rejected by l2 tester {accepts}/7"
    );

    // monotonicity tester rejects (majority).
    let m = monotonicity_budget(n, 0.3, 1.0).unwrap();
    let rejects = (0..7)
        .filter(|_| {
            let mut session = Session::from_dense(&p, rand::Rng::random(&mut rng));
            !session
                .run_one(Monotone::eps(0.3).samples(m))
                .unwrap()
                .accepted()
        })
        .count();
    assert!(rejects >= 4, "non-monotone histogram accepted {rejects}/7");
}

#[test]
fn cli_pipeline_matches_library_results() {
    // The CLI's record-file learn path and the library's direct path agree
    // on an easy instance.
    let mut rng = StdRng::seed_from_u64(13);
    let p = khist::dist::generators::two_level(64, 0.25, 0.75).unwrap();
    let samples = p.sample_many(40_000, &mut rng);
    let path = std::env::temp_dir().join(format!("khist-shape-cli-{}.txt", std::process::id()));
    let text: String = samples.iter().map(|s| format!("{s}\n")).collect();
    std::fs::write(&path, text).unwrap();
    let report = khist::app::dispatch(khist::app::Command::Learn(khist::app::Options {
        path: path.to_string_lossy().into_owned(),
        k: 2,
        eps: 0.15,
        n: 64,
        seed: 0,
        json: false,
        ..Default::default()
    }))
    .unwrap();
    std::fs::remove_file(&path).ok();
    assert!(report.contains("2-piece"), "{report}");
    // Direct library path:
    let budget = LearnerBudget::calibrated(64, 2, 0.15, 0.05).unwrap();
    let mut oracle = DenseOracle::new(&p, rand::Rng::random(&mut rng));
    let out = learn(&mut oracle, &GreedyParams::fast(2, 0.15, budget)).unwrap();
    let compressed = compress_to_k(&out.tiling, 2).unwrap();
    assert!(compressed.l2_sq_to(&p) < 0.01);
}
