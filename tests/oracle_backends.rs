//! Integration tests of the `SampleOracle` seam: the same generic
//! algorithm code must behave identically across backends, and the
//! streaming record-file path must carry the full CLI workflow end to end.

use khist::api::run_analyses;
use khist::app::{render_learn, render_test, run_analyze_with};
use khist::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;

/// Writes samples to a unique temp record file; returns its path.
fn temp_records(samples: &[usize], tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("khist-it-{tag}-{}.txt", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("temp file writable");
    writeln!(f, "# integration test data").unwrap();
    for &s in samples {
        writeln!(f, "{s}").unwrap();
    }
    path
}

#[test]
fn replay_of_dense_draws_reproduces_learner_outcome() {
    // Capture a DenseOracle workload, replay it, and check the learner is a
    // deterministic function of the oracle: identical tilings, bit for bit.
    let p = khist::dist::generators::two_level(64, 0.25, 0.75).unwrap();
    let budget = LearnerBudget::calibrated(64, 2, 0.15, 0.02).unwrap();
    let params = GreedyParams::fast(2, 0.15, budget);

    let mut dense = DenseOracle::new(&p, 99);
    let recorded = dense.draw_lanes(budget.ell, budget.r, budget.m);

    let mut live = DenseOracle::new(&p, 99);
    let from_live = learn(&mut live, &params).unwrap();
    let mut replay = ReplayOracle::from_sets(64, recorded);
    let from_replay = learn(&mut replay, &params).unwrap();

    assert_eq!(from_live.stats, from_replay.stats);
    for i in 0..64 {
        assert_eq!(from_live.tiling.evaluate(i), from_replay.tiling.evaluate(i));
    }
}

#[test]
fn generic_entry_points_accept_dyn_oracles() {
    // The seam is object-safe: algorithms run over `&mut dyn SampleOracle`,
    // the shape a runtime-selected backend registry would use.
    let p = khist::dist::generators::staircase(64, 4).unwrap();
    let mut dense = DenseOracle::new(&p, 5);
    let oracle: &mut dyn SampleOracle = &mut dense;
    let budget = L2TesterBudget::calibrated(64, 0.25, 0.05).unwrap();
    let request = TestL2::k(4).eps(0.25).budget(budget);
    let (reports, _) = run_analyses(oracle, 5, &[request.into()]).unwrap();
    assert_eq!(reports[0].samples_spent, budget.r * budget.m);
}

#[test]
fn record_file_learner_recovers_two_level_histogram() {
    // End-to-end through the streaming backend: synthesize a record file,
    // learn via RecordFileOracle, and expect the two-level structure back.
    let mut rng = StdRng::seed_from_u64(31);
    let p = khist::dist::generators::two_level(64, 0.25, 0.75).unwrap();
    let path = temp_records(&p.sample_many(40_000, &mut rng), "learn");

    let mut oracle = RecordFileOracle::open(&path, 64, 17).unwrap();
    let available = oracle.records() as usize;
    let learn = ["learn".to_string()];
    let (reports, _) = run_analyze_with(&mut oracle, 2, 0.15, &learn, available, 17).unwrap();
    let report = render_learn(&reports[0]);
    assert!(report.contains("2-piece"), "report: {report}");
    let found = (14..=18).any(|b| report.contains(&format!("{b}]")));
    assert!(found, "no boundary near 16 in: {report}");

    std::fs::remove_file(&path).ok();
}

#[test]
fn record_file_and_replay_testers_agree_on_clear_instances() {
    let mut rng = StdRng::seed_from_u64(7);
    for (dist, expect_accept) in [
        (khist::dist::generators::staircase(64, 4).unwrap(), true),
        (khist::dist::generators::spike_comb(64, 8).unwrap(), false),
    ] {
        let samples = dist.sample_many(80_000, &mut rng);
        let path = temp_records(&samples, "agree");

        let l2 = ["l2".to_string()];
        let mut streaming = RecordFileOracle::open(&path, 64, 3).unwrap();
        let (reports, _) =
            run_analyze_with(&mut streaming, 4, 0.25, &l2, samples.len(), 3).unwrap();
        let verdict_file = render_test(&reports[0], 4);
        // The same records replayed as the tester's 7 equal chunks.
        let m = samples.len() / 7;
        let chunks = samples
            .chunks_exact(m)
            .take(7)
            .map(<[usize]>::to_vec)
            .collect();
        let mut replay = ReplayOracle::from_raw(64, chunks);
        let (reports, _) = run_analyze_with(&mut replay, 4, 0.25, &l2, samples.len(), 0).unwrap();
        let verdict_mem = render_test(&reports[0], 4);

        let want = if expect_accept { "Accept" } else { "Reject" };
        assert!(verdict_file.contains(want), "file path: {verdict_file}");
        assert!(verdict_mem.contains(want), "mem path: {verdict_mem}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn record_file_oracle_memory_is_budget_bounded() {
    // The acceptance-criterion shape in miniature: the reservoirs hold at
    // most the requested sample counts no matter how long the file is, so
    // learn never materializes the record stream.
    let mut rng = StdRng::seed_from_u64(13);
    let p = khist::dist::generators::zipf(128, 1.1).unwrap();
    let samples = p.sample_many(120_000, &mut rng);
    let path = temp_records(&samples, "bounded");

    let mut oracle = RecordFileOracle::open(&path, 128, 1).unwrap();
    assert_eq!(oracle.records(), 120_000);
    // Request far less than the file holds: the draw is exactly the
    // requested size (uniform subsample), not the file size.
    let sets = oracle.draw_lanes(2_000, 3, 500);
    assert_eq!(
        sets.iter().map(|s| s.total()).collect::<Vec<_>>(),
        vec![2_000, 500, 500, 500]
    );
    std::fs::remove_file(&path).ok();
}
