//! Push≡pull determinism and the Monitor's acceptance criteria.
//!
//! The streaming redesign's contract: a record stream *pushed* through
//! `Monitor::ingest` (tumbling windows) produces reports **bit-identical**
//! to *pulling* the same records from a file through
//! `Session::open_records` with the same seed — push and pull are two
//! transports for one sampling process. On top of that:
//!
//! * a multi-analysis snapshot performs zero oracle draws beyond the
//!   frozen window (ledger-asserted);
//! * a million-event stream runs in budget-bounded memory;
//! * drift reports replay bit-identically under a fixed seed.

use khist::prelude::*;
use proptest::prelude::*;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};

/// Writes records to a unique temp file; returns its path.
fn temp_records(records: &[usize], tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "khist-pushpull-{tag}-{}-{unique}.txt",
        std::process::id()
    ));
    let mut f = std::fs::File::create(&path).expect("temp file writable");
    for &r in records {
        writeln!(f, "{r}").unwrap();
    }
    path
}

/// The standing batch both transports run: learner (main lane + sets) +
/// ℓ₂ tester (sets) + uniformity (main lane). The batch shares one plan,
/// a main lane plus `r` sets, so this property runs the weighted lane
/// shape only; `khist_oracle`'s sink tests cover every shape.
fn batch(n: usize) -> Vec<Analysis> {
    let _ = n;
    vec![
        Learn::k(3).eps(0.25).scale(0.05).into(),
        TestL2::k(3).eps(0.3).scale(0.05).into(),
        Uniformity::eps(0.3).scale(0.2).into(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite: `Monitor::ingest` over a record stream yields
    /// bit-identical reports to `Session::open_records` on the same file
    /// and seed (acceptance criterion).
    #[test]
    fn prop_pushed_window_equals_pulled_file(
        records in proptest::collection::vec(0usize..32, 300..900),
        seed in 0u64..u64::MAX,
    ) {
        let n = 32;
        // Push: one tumbling window spanning the whole stream.
        let mut monitor = Monitor::builder(n)
            .seed(seed)
            .tumbling(records.len() as u64)
            .analyses(batch(n))
            .build()
            .unwrap();
        let mut windows = monitor.ingest(&records).unwrap();
        prop_assert_eq!(windows.len(), 1);
        let pushed = windows.pop().unwrap();
        prop_assert!(pushed.complete);
        prop_assert_eq!(pushed.seen, records.len() as u64);

        // Pull: the same records as a file, the same batch and seed.
        let path = temp_records(&records, "prop");
        let mut session = Session::open_records(&path, n, seed).unwrap();
        let pulled = session.run(&batch(n)).unwrap();
        std::fs::remove_file(&path).ok();

        prop_assert_eq!(&pushed.reports, &pulled);
    }

    /// Drift reports are bit-identical under replay with a fixed seed
    /// (acceptance criterion), and a different seed changes the sampling.
    #[test]
    fn prop_drift_reports_replay_bit_identically(
        records in proptest::collection::vec(0usize..32, 600..1000),
        seed in 0u64..u64::MAX,
    ) {
        let span = (records.len() / 2) as u64;
        let run = |seed: u64| {
            let mut monitor = Monitor::builder(32)
                .seed(seed)
                .tumbling(span)
                .analyses(batch(32))
                .build()
                .unwrap();
            monitor.ingest(&records).unwrap()
        };
        let (a, b) = (run(seed), run(seed));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), 2);
        prop_assert!(a[1].drift.is_some(), "second window carries drift");
        // A different seed resamples (reports may or may not differ, but
        // the recorded seed always does).
        let c = run(seed ^ 1);
        prop_assert!(c[0].reports[0].seed != a[0].reports[0].seed);
    }
}

/// Acceptance criterion: a 1M-event stream runs in budget-bounded memory
/// and a {learn, l2, uniformity} snapshot performs zero new oracle draws
/// beyond the frozen window, asserted via the ledger.
#[test]
fn million_event_stream_is_budget_bounded_and_draw_free() {
    let n = 64;
    let span = 100_000u64;
    let standing: Vec<Analysis> = vec![
        Learn::k(4).eps(0.25).scale(0.02).into(),
        TestL2::k(4).eps(0.3).scale(0.02).into(),
        Uniformity::eps(0.3).scale(0.1).into(),
    ];
    let mut monitor = Monitor::builder(n)
        .seed(42)
        .tumbling(span)
        .analyses(standing.clone())
        .build()
        .unwrap();
    let budget = monitor.plan().total_samples().unwrap();

    // 1M synthetic events, pushed in arrival-sized chunks, one span at a
    // time. The monitor may hold at most `budget` samples at any time; the
    // stream itself is never stored.
    let p = khist::dist::generators::staircase(n, 4).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    use rand::SeedableRng;
    let drawn = |monitor: &Monitor| {
        let draw = monitor.ledger().iter().find(|e| e.label == "draw");
        draw.map_or(0, |e| e.samples as u64)
    };
    let mut windows = Vec::new();
    for _ in 0..10 {
        let before = drawn(&monitor);
        let mut completed = Vec::new();
        for _ in 0..20 {
            let chunk = p.sample_many(5_000, &mut rng);
            completed.extend(monitor.ingest(&chunk).unwrap());
        }
        // Zero new draws beyond the frozen window: the span's one window
        // grows the ledger's "draw" total by exactly its kept samples —
        // and the engine consumed the frozen lanes exactly (an extra draw
        // would have panicked the replay oracle).
        assert_eq!(completed.len(), 1, "one window per span");
        assert_eq!(drawn(&monitor) - before, completed[0].kept);
        windows.extend(completed);
    }
    assert_eq!(monitor.seen(), 1_000_000);
    assert_eq!(windows.len(), 10);
    for window in &windows {
        assert!(
            window.kept as usize <= budget,
            "window kept {} > budget {budget}",
            window.kept
        );
    }
    // The ledger keeps one lifetime total per label: 1 draw + one per
    // standing analysis, however many windows ran.
    assert_eq!(monitor.ledger().len(), 1 + standing.len());
    // Drift is reported from the second window on.
    assert!(windows[0].drift.is_none());
    assert!(windows[1..].iter().all(|w| w.drift.is_some()));
}

/// The pushed window's JSON survives the CLI's JSONL round trip.
#[test]
fn window_reports_round_trip_through_json() {
    let mut monitor = Monitor::builder(16)
        .seed(5)
        .tumbling(500)
        .analyses(vec![Uniformity::eps(0.3).scale(0.5).into()])
        .build()
        .unwrap();
    let records: Vec<usize> = (0..1200).map(|i| (i * 13 + 5) % 16).collect();
    let mut windows = monitor.ingest(&records).unwrap();
    windows.extend(monitor.flush());
    assert_eq!(windows.len(), 3);
    assert!(!windows[2].complete, "flushed tail is partial");
    for window in windows {
        let line = window.to_json();
        assert!(!line.contains('\n'), "JSONL must be one line: {line}");
        assert_eq!(WindowReport::from_json(&line).unwrap(), window);
    }
}
