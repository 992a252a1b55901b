//! The analysis API's sample-reuse guarantee, verified from outside:
//!
//! 1. `Session::run` over {learn, test-ℓ₂, uniformity} against a
//!    `ReplayOracle` capture is **bit-identical** to running the three
//!    kernels on the same replayed sets (property test);
//! 2. every analysis kind run through `run_analyses` reports what its
//!    kernel returns on the request's own plan, drawn from an identically
//!    seeded oracle;
//! 3. a whole batch on a `RecordFileOracle` costs exactly **one**
//!    streaming pass over the file;
//! 4. reports serde-round-trip through JSON text.

use khist::api::{
    plan_for, run_analyses, Analysis, AnalysisKind, Learn, Report, TestL2, Uniformity,
};
use khist::identity::{test_closeness_l2_from_sets, test_identity_l2_from_set};
use khist::monotone::test_monotone_from_set;
use khist::oracle::stream_seed;
use khist::prelude::*;
use khist::tester::{test_l1_from_sets, test_l2_from_sets};
use khist::uniformity::{test_uniformity_from_set, UniformityBudget};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;

/// The shared plan `(main, r, m)` of a {learn, test_l2, uniformity} batch,
/// mirrored from the engine: main = max(ℓ, m_u), r = max(r_learn, r_l2),
/// m = max(m_learn, m_l2).
fn shared_plan(
    lb: &LearnerBudget,
    l2: &L2TesterBudget,
    ub: &UniformityBudget,
) -> (usize, usize, usize) {
    (lb.ell.max(ub.m), lb.r.max(l2.r), lb.m.max(l2.m))
}

fn batch(
    k: usize,
    eps: f64,
    lb: LearnerBudget,
    l2: L2TesterBudget,
    ub: UniformityBudget,
) -> Vec<Analysis> {
    vec![
        Learn::k(k).eps(eps).budget(lb).into(),
        TestL2::k(k).eps(eps).budget(l2).into(),
        Uniformity::eps(eps).budget(ub).into(),
    ]
}

/// Runs the session batch and the kernels on the *same* captured sets and
/// asserts bit-identical results.
fn assert_session_matches_legacy(p: &DenseDistribution, k: usize, eps: f64, seed: u64) {
    let n = p.n();
    let lb = LearnerBudget::calibrated(n, k, eps, 0.02).unwrap();
    let l2 = L2TesterBudget::calibrated(n, eps, 0.02).unwrap();
    let ub = UniformityBudget::calibrated(n, eps, 0.05).unwrap();

    // Capture one shared draw.
    let mut dense = DenseOracle::new(p, seed);
    let (main_size, r, m) = shared_plan(&lb, &l2, &ub);
    let recorded = dense.draw_lanes(main_size, r, m);
    let main = recorded[0].clone();
    let sets = recorded[1..].to_vec();

    // Engine path: replay the capture through a Session.
    let mut session = Session::new(Box::new(ReplayOracle::from_sets(n, recorded.clone())), seed);
    let reports = session.run(&batch(k, eps, lb, l2, ub)).unwrap();

    // Kernel path: the three kernels on the same sets.
    let params = GreedyParams {
        k,
        eps,
        budget: lb,
        policy: CandidatePolicy::SampleEndpoints,
        max_endpoints: 128,
    };
    let legacy_learn = learn_from_samples(n, &main, &sets[..lb.r], &params).unwrap();
    let legacy_hist = compress_to_k(&legacy_learn.tiling, k)
        .unwrap()
        .normalized()
        .unwrap();
    let legacy_l2 = test_l2_from_sets(n, k, eps, &sets[..l2.r]).unwrap();
    let legacy_uni = test_uniformity_from_set(n, eps, &main).unwrap();

    // Bit-identical learner output.
    assert_eq!(reports[0].analysis, AnalysisKind::Learn);
    let session_hist = reports[0].histogram.as_ref().unwrap();
    assert_eq!(session_hist, &legacy_hist, "learned histograms diverge");
    assert_eq!(reports[0].samples_spent, legacy_learn.stats.samples_used);

    // Bit-identical tester verdict, cuts and probes.
    assert_eq!(reports[1].verdict, Some(legacy_l2.outcome));
    assert_eq!(reports[1].cuts, legacy_l2.cuts);
    assert_eq!(reports[1].probes, Some(legacy_l2.probes));
    assert_eq!(reports[1].samples_spent, legacy_l2.samples_used);

    // Bit-identical uniformity statistic.
    assert_eq!(reports[2].verdict, Some(legacy_uni.outcome));
    assert_eq!(reports[2].statistic, Some(legacy_uni.statistic));
    assert_eq!(reports[2].threshold, Some(legacy_uni.threshold));
    assert_eq!(reports[2].samples_spent, legacy_uni.samples_used);
}

#[test]
fn session_batch_is_bit_identical_to_legacy_on_replayed_capture() {
    let p = khist::dist::generators::zipf(96, 1.1).unwrap();
    assert_session_matches_legacy(&p, 3, 0.2, 7);
    let p = khist::dist::generators::staircase(64, 4).unwrap();
    assert_session_matches_legacy(&p, 4, 0.25, 8);
}

mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Satellite: the sample-reuse guarantee as a property over seeds
        /// and instances.
        #[test]
        fn prop_session_equals_legacy_on_same_sets(
            seed in 0u64..u64::MAX,
            k in 2usize..5,
            pick in 0usize..3,
        ) {
            let p = match pick {
                0 => khist::dist::generators::zipf(64, 1.0).unwrap(),
                1 => khist::dist::generators::staircase(64, 4).unwrap(),
                _ => khist::dist::generators::discrete_gaussian(64, 30.0, 9.0).unwrap(),
            };
            assert_session_matches_legacy(&p, k, 0.25, seed);
        }
    }
}

/// A kernel's result in a report's terms.
#[derive(Debug, Default)]
struct KernelResult {
    verdict: Option<TestOutcome>,
    histogram: Option<TilingHistogram>,
    statistic: Option<f64>,
    threshold: Option<f64>,
    cuts: Vec<usize>,
    probes: Option<usize>,
    samples_spent: usize,
}

#[test]
fn every_kind_reports_what_its_kernel_returns() {
    let n = 64;
    let p = khist::dist::generators::zipf(n, 1.0).unwrap();
    let q = DenseDistribution::uniform(n).unwrap();
    let (k, eps, seed) = (3, 0.3, 41);
    let lb = LearnerBudget::calibrated(n, k, eps, 0.02).unwrap();
    let l1 = L1TesterBudget { r: 7, m: 2_000 };
    let l2 = L2TesterBudget { r: 9, m: 1_500 };
    let requests: Vec<Analysis> = vec![
        Learn::k(k).eps(eps).budget(lb).into(),
        TestL1::k(k).eps(eps).budget(l1).into(),
        TestL2::k(k).eps(eps).budget(l2).into(),
        Uniformity::eps(eps)
            .budget(UniformityBudget { m: 3_000 })
            .into(),
        IdentityL2::against(q.clone())
            .eps(eps)
            .samples(3_000)
            .into(),
        ClosenessL2::against(q.clone())
            .eps(eps)
            .samples(3_000)
            .into(),
        Monotone::eps(eps).samples(5_000).into(),
    ];
    let kinds: Vec<AnalysisKind> = requests.iter().map(Analysis::kind).collect();
    assert_eq!(kinds, AnalysisKind::ALL);
    for request in requests {
        let kind = request.kind();
        let batch = [request];
        let (reports, _) = run_analyses(&mut DenseOracle::new(&p, seed), seed, &batch).unwrap();
        let report = &reports[0];
        let plan = plan_for(&batch, n).unwrap();
        let (main, sets) = plan.draw(&mut DenseOracle::new(&p, seed)).unwrap();
        let main = main.as_ref();
        let mut want = KernelResult::default();
        match kind {
            AnalysisKind::Learn => {
                let params = GreedyParams {
                    k,
                    eps,
                    budget: lb,
                    policy: CandidatePolicy::SampleEndpoints,
                    max_endpoints: 128,
                };
                let out = learn_from_samples(n, main.unwrap(), &sets, &params).unwrap();
                let summary = compress_to_k(&out.tiling, k).unwrap();
                want.histogram = Some(summary.normalized().unwrap());
                want.samples_spent = out.stats.samples_used;
            }
            AnalysisKind::TestL1 | AnalysisKind::TestL2 => {
                let tr = if kind == AnalysisKind::TestL1 {
                    test_l1_from_sets(n, k, eps, &sets)
                } else {
                    test_l2_from_sets(n, k, eps, &sets)
                }
                .unwrap();
                want.verdict = Some(tr.outcome);
                want.cuts = tr.cuts;
                want.probes = Some(tr.probes);
                want.samples_spent = tr.samples_used;
            }
            AnalysisKind::Uniformity => {
                let ur = test_uniformity_from_set(n, eps, main.unwrap()).unwrap();
                want.verdict = Some(ur.outcome);
                want.statistic = Some(ur.statistic);
                want.threshold = Some(ur.threshold);
                want.samples_spent = ur.samples_used;
            }
            AnalysisKind::IdentityL2 | AnalysisKind::ClosenessL2 => {
                let set_p = main.unwrap();
                let cr = if kind == AnalysisKind::IdentityL2 {
                    test_identity_l2_from_set(set_p, &q, n, eps)
                } else {
                    // The q side is drawn outside the plan, as large as
                    // the p side and seeded from the run's seed and the
                    // request's index in its batch.
                    let mut q_oracle = DenseOracle::new(&q, stream_seed(seed, 0));
                    let set_q = q_oracle.draw_set(set_p.total() as usize);
                    test_closeness_l2_from_sets(set_p, &set_q, n, eps)
                }
                .unwrap();
                want.verdict = Some(cr.outcome);
                want.statistic = Some(cr.statistic);
                want.threshold = Some(cr.threshold);
                want.samples_spent = cr.samples_used;
            }
            AnalysisKind::Monotone => {
                let set = main.unwrap();
                let mr = test_monotone_from_set(n, eps, set).unwrap();
                want.verdict = Some(mr.outcome);
                want.statistic = Some(mr.isotonic_distance);
                want.threshold = Some(mr.threshold);
                want.samples_spent = mr.samples_used;
                want.histogram = mr.fit;
            }
        }
        let bits = |x: Option<f64>| x.map(f64::to_bits);
        assert_eq!(report.analysis, kind);
        assert_eq!(report.verdict, want.verdict, "{kind} verdict");
        assert_eq!(
            bits(report.statistic),
            bits(want.statistic),
            "{kind} statistic"
        );
        assert_eq!(
            bits(report.threshold),
            bits(want.threshold),
            "{kind} threshold"
        );
        assert_eq!(report.cuts, want.cuts, "{kind} cuts");
        assert_eq!(report.probes, want.probes, "{kind} probes");
        assert_eq!(report.samples_spent, want.samples_spent, "{kind} samples");
        assert_eq!(report.histogram, want.histogram, "{kind} histogram");
    }
}

#[test]
fn record_file_batch_costs_exactly_one_pass() {
    // The hot-path win the shared plan exists for: learner + tester +
    // uniformity on a record file stream the file once, not three times.
    let mut rng = StdRng::seed_from_u64(19);
    let p = khist::dist::generators::staircase(64, 4).unwrap();
    let samples = p.sample_many(50_000, &mut rng);
    let path = std::env::temp_dir().join(format!("khist-api-onepass-{}.txt", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    for s in &samples {
        writeln!(f, "{s}").unwrap();
    }
    drop(f);

    let mut oracle = RecordFileOracle::open(&path, 64, 11).unwrap();
    assert_eq!(oracle.passes(), 0, "open's scan is not a draw pass");
    let lb = LearnerBudget::calibrated(64, 4, 0.25, 0.02).unwrap();
    let l2 = L2TesterBudget::calibrated(64, 0.25, 0.02).unwrap();
    let ub = UniformityBudget::calibrated(64, 0.25, 0.05).unwrap();
    let (reports, ledger) = run_analyses(&mut oracle, 11, &batch(4, 0.25, lb, l2, ub)).unwrap();
    assert_eq!(reports.len(), 3);
    assert_eq!(
        oracle.passes(),
        1,
        "a 3-analysis batch must stream the file exactly once"
    );
    assert_eq!(ledger.iter().filter(|e| e.label == "draw").count(), 1);

    // Contrast: the same three analyses as separate runs cost one pass
    // each.
    let mut oracle = RecordFileOracle::open(&path, 64, 11).unwrap();
    for analysis in batch(4, 0.25, lb, l2, ub) {
        run_analyses(&mut oracle, 11, &[analysis]).unwrap();
    }
    assert_eq!(oracle.passes(), 3, "three separate runs cost three passes");

    std::fs::remove_file(&path).ok();
}

#[test]
fn session_reports_round_trip_through_json() {
    let p = khist::dist::generators::zipf(64, 1.0).unwrap();
    let mut session = Session::from_dense(&p, 23);
    let reports = session
        .run(&[
            Learn::k(3).eps(0.2).scale(0.02).into(),
            TestL2::k(3).eps(0.3).scale(0.02).into(),
            Uniformity::eps(0.3).scale(0.05).into(),
        ])
        .unwrap();
    for report in &reports {
        let json = report.to_json();
        let back = Report::from_json(&json).unwrap();
        assert_eq!(&back, report, "round trip changed the report: {json}");
        // and the JSON is parseable as plain structured text
        let value = serde::json::from_str(&json).unwrap();
        assert_eq!(
            value.get("seed").and_then(|v| v.as_u64()),
            Some(23),
            "seed missing from {json}"
        );
    }
}

#[test]
fn session_ledger_accounts_for_sharing() {
    // Drawn-once semantics: the oracle paid for max(requirements), while
    // the analyses' nominal spends sum to more — that difference is the
    // sharing win.
    let p = khist::dist::generators::zipf(128, 1.0).unwrap();
    let mut session = Session::from_dense(&p, 3);
    let reports = session
        .run(&[
            Learn::k(3).eps(0.2).scale(0.02).into(),
            TestL2::k(3).eps(0.3).scale(0.02).into(),
            Uniformity::eps(0.3).scale(0.05).into(),
        ])
        .unwrap();
    let drawn = session.samples_drawn();
    let spent: usize = reports.iter().map(|r| r.samples_spent).sum();
    assert!(
        spent > drawn,
        "no sharing happened: spent {spent} ≤ drawn {drawn}"
    );
}
