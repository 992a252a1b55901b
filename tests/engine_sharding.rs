//! Sharding is semantics-free: the keyed multi-stream `Engine`'s
//! acceptance criteria.
//!
//! For every stream key, an `Engine` — at *any* shard count, any batch
//! boundaries, and any interleaving with other streams — must emit
//! `WindowReport`s bit-identical to a dedicated single-threaded `Monitor`
//! fed that stream's records with the derived seed
//! `Engine::stream_seed(base_seed, key)` (and the matching stream tag),
//! including the flush of partial tails. The monitor layer's push≡pull
//! property lifted one level up: sharding is a transport, not a semantic.

use khist::prelude::*;
use proptest::prelude::*;

/// The standing batch every stream runs: learner (main lane + sets) +
/// ℓ₂ tester (sets) + uniformity (main lane), read from one shared plan
/// of a main lane plus `r` sets (the weighted lane shape) per window.
/// Budgets are explicit and small so the short windows this test drives
/// always fill every lane (a window much thinner than its plan can leave
/// a weighted lane empty, which the learner rejects — for a monitor and a
/// dedicated engine stream alike).
fn batch() -> Vec<Analysis> {
    let mut learner = LearnerBudget::calibrated(32, 3, 0.25, 1.0).unwrap();
    learner.ell = 80;
    learner.r = 6;
    learner.m = 30;
    vec![
        Learn::k(3).eps(0.25).budget(learner).into(),
        TestL2::k(3)
            .eps(0.3)
            .budget(L2TesterBudget { r: 6, m: 40 })
            .into(),
        Uniformity::eps(0.3)
            .budget(UniformityBudget { m: 60 })
            .into(),
    ]
}

const KEYS: [&str; 4] = ["api", "web", "batch", "edge"];

/// A dedicated single-threaded monitor run over one stream's records:
/// the reference the engine must match bit for bit.
fn dedicated_monitor(
    n: usize,
    window: Window,
    base_seed: u64,
    key: &str,
    records: &[usize],
) -> Vec<WindowReport> {
    let mut monitor = Monitor::builder(n)
        .seed(Engine::stream_seed(base_seed, key))
        .stream(key)
        .window(window)
        .analyses(batch())
        .build()
        .unwrap();
    let mut windows = monitor.ingest(records).unwrap();
    windows.extend(monitor.flush());
    windows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Acceptance criterion: `Engine` with shards ∈ {1, 2, 4} produces
    /// per-stream `WindowReport` sequences bit-identical to a dedicated
    /// `Monitor` per stream (same seed derivation), including the flush
    /// of partial tails, over tumbling windows and sliding windows of two,
    /// three and four panes.
    #[test]
    fn prop_engine_streams_equal_dedicated_monitors(
        // Interleaved keyed records: (key index, value) pairs. The length
        // is deliberately not span-aligned so flushes cover partial tails.
        records in proptest::collection::vec((0usize..KEYS.len(), 0usize..32), 200..700),
        base_seed in 0u64..u64::MAX,
        cut in 0.0f64..1.0,
    ) {
        let n = 32;
        let span = 120u64;
        let windows = [
            Window::Tumbling { span },
            Window::Sliding { span, step: 60 },
            Window::Sliding { span, step: 40 },
            Window::Sliding { span, step: 30 },
        ];
        let keyed: Vec<(String, usize)> = records
            .iter()
            .map(|&(k, v)| (KEYS[k].to_string(), v))
            .collect();
        // Split the stream at an arbitrary point so windows straddle
        // ingest_batch calls.
        let split = ((keyed.len() as f64) * cut) as usize;

        for window in windows {
            for shards in [1usize, 2, 4] {
                let mut engine = Engine::builder(n)
                    .seed(base_seed)
                    .shards(shards)
                    .window(window)
                    .analyses(batch())
                    .build()
                    .unwrap();
                let mut got = engine.ingest_batch(&keyed[..split]).unwrap();
                got.extend(engine.ingest_batch(&keyed[split..]).unwrap());
                got.extend(engine.flush_debut_ordered().unwrap());

                let mut covered = 0;
                for key in KEYS {
                    let mine: Vec<usize> = keyed
                        .iter()
                        .filter(|(k, _)| k == key)
                        .map(|&(_, v)| v)
                        .collect();
                    let want = dedicated_monitor(n, window, base_seed, key, &mine);
                    let stream_reports: Vec<WindowReport> = got
                        .iter()
                        .filter(|r| r.stream.as_deref() == Some(key))
                        .cloned()
                        .collect();
                    prop_assert_eq!(
                        &stream_reports,
                        &want,
                        "stream {} @ {} shards, {:?}",
                        key,
                        shards,
                        window
                    );
                    covered += stream_reports.len();
                }
                prop_assert_eq!(covered, got.len(), "no report escapes its stream");
            }
        }
    }

    /// One large batch (2 048 to 4 200 interleaved records, every key
    /// debuting inside it) must reach each stream in arrival order:
    /// per-stream reports bit-identical to a dedicated monitor, for
    /// shards ∈ {1, 2, 4, 8}.
    #[test]
    fn prop_large_batches_are_bit_identical(
        records in proptest::collection::vec(
            (0usize..KEYS.len(), 0usize..32),
            2048..4200,
        ),
        base_seed in 0u64..u64::MAX,
    ) {
        let n = 32;
        let span = 600u64;
        let keyed: Vec<(String, usize)> = records
            .iter()
            .map(|&(k, v)| (KEYS[k].to_string(), v))
            .collect();
        prop_assert!(keyed.len() >= 2048);

        for shards in [1usize, 2, 4, 8] {
            let mut engine = Engine::builder(n)
                .seed(base_seed)
                .shards(shards)
                .tumbling(span)
                .analyses(batch())
                .build()
                .unwrap();
            // One big batch: every key debuts inside it, and the rest of
            // its records follow in the same call.
            let mut got = engine.ingest_batch(&keyed).unwrap();
            got.extend(engine.flush_debut_ordered().unwrap());

            let mut covered = 0;
            for key in KEYS {
                let mine: Vec<usize> = keyed
                    .iter()
                    .filter(|(k, _)| k == key)
                    .map(|&(_, v)| v)
                    .collect();
                let want = dedicated_monitor(n, Window::Tumbling { span }, base_seed, key, &mine);
                let stream_reports: Vec<WindowReport> = got
                    .iter()
                    .filter(|r| r.stream.as_deref() == Some(key))
                    .cloned()
                    .collect();
                prop_assert_eq!(
                    &stream_reports,
                    &want,
                    "stream {} @ {} shards (one large batch)",
                    key,
                    shards
                );
                covered += stream_reports.len();
            }
            prop_assert_eq!(covered, got.len(), "no report escapes its stream");
        }
    }
}

/// The standing batch `khist watch --key-field 0 --n 16 --every 64 --run
/// l2,uniformity` builds: seven 9-sample l2 sets, so a 64-record window
/// leaves one of them empty now and then, whatever its values. At base
/// seed 0 stream `m`'s first window does.
fn starving_batch() -> Vec<Analysis> {
    vec![
        TestL2::k(8)
            .eps(0.1)
            .budget(L2TesterBudget { r: 7, m: 9 })
            .into(),
        Uniformity::eps(0.1)
            .budget(UniformityBudget { m: 64 })
            .into(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A stream whose window starves an l2 lane, among healthy ones, at
    /// random batch boundaries: every stream's reports, the failed window
    /// included, equal a dedicated monitor's at shards ∈ {1, 2, 4, 8}.
    #[test]
    fn prop_a_starving_stream_costs_only_its_own_window(
        records in proptest::collection::vec((0usize..KEYS.len(), 0usize..16), 300..900),
        cuts in proptest::collection::vec(0usize..1_200, 0..8),
    ) {
        // Every fourth record is also one of `m`'s: 75 to 225 of them.
        let mut keyed: Vec<(&str, usize)> = Vec::new();
        for (i, &(k, v)) in records.iter().enumerate() {
            keyed.push((KEYS[k], v));
            if i % 4 == 0 {
                keyed.push(("m", (v * 5) % 16));
            }
        }
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(keyed.len())).collect();
        bounds.push(0);
        bounds.push(keyed.len());
        bounds.sort_unstable();

        for shards in [1usize, 2, 4, 8] {
            let mut engine = Engine::builder(16)
                .shards(shards)
                .tumbling(64)
                .analyses(starving_batch())
                .build()
                .unwrap();
            let mut got = Vec::new();
            for call in bounds.windows(2) {
                got.extend(engine.ingest_batch(&keyed[call[0]..call[1]]).unwrap());
            }
            got.extend(engine.flush_debut_ordered().unwrap());
            prop_assert!(
                got.iter().any(|w| w.complete && w.error.is_some()),
                "m's first window starves"
            );

            for key in KEYS.into_iter().chain(["m"]) {
                let mine: Vec<usize> = keyed
                    .iter()
                    .filter(|(k, _)| *k == key)
                    .map(|&(_, v)| v)
                    .collect();
                let mut monitor = Monitor::builder(16)
                    .seed(Engine::stream_seed(0, key))
                    .stream(key)
                    .tumbling(64)
                    .analyses(starving_batch())
                    .build()
                    .unwrap();
                let mut want = monitor.ingest(&mine).unwrap();
                want.extend(monitor.flush());
                let stream_reports: Vec<WindowReport> = got
                    .iter()
                    .filter(|r| r.stream.as_deref() == Some(key))
                    .cloned()
                    .collect();
                prop_assert_eq!(&stream_reports, &want, "stream {} @ {} shards", key, shards);
            }
        }
    }
}

/// A deterministic adversarial layout: one hot stream contributes short
/// *consecutive runs* of records, alternating with filler from the other
/// keys across one 2 825-record batch, so any reordering of a stream's
/// records between the route and its shard would corrupt that stream's
/// window contents.
#[test]
fn hot_stream_runs_in_one_large_batch_keep_arrival_order() {
    let n = 32;
    let span = 400u64;
    let len = 2048 + 777;
    // Alternate runs of 5 records of the hot key with runs of filler.
    let keyed: Vec<(String, usize)> = (0..len)
        .map(|i| {
            let key = if (i / 5) % 2 == 0 { "hot" } else { KEYS[i % 3] };
            (key.to_string(), (i * 13 + i / 7) % n)
        })
        .collect();

    for shards in [1usize, 2, 4, 8] {
        let mut engine = Engine::builder(n)
            .seed(41)
            .shards(shards)
            .tumbling(span)
            .analyses(batch())
            .build()
            .unwrap();
        let mut got = engine.ingest_batch(&keyed).unwrap();
        got.extend(engine.flush_debut_ordered().unwrap());

        for key in ["hot", KEYS[0], KEYS[1], KEYS[2]] {
            let mine: Vec<usize> = keyed
                .iter()
                .filter(|(k, _)| k == key)
                .map(|&(_, v)| v)
                .collect();
            let want = dedicated_monitor(n, Window::Tumbling { span }, 41, key, &mine);
            let stream_reports: Vec<WindowReport> = got
                .iter()
                .filter(|r| r.stream.as_deref() == Some(key))
                .cloned()
                .collect();
            assert_eq!(stream_reports, want, "stream {key} @ {shards} shards");
        }
    }
}

/// The flushed tail of every stream is reported (partial windows
/// included) — nothing is dropped, and flushing is idempotent in the
/// `Monitor` sense: the still-live partial window is re-reported
/// identically, never advanced.
#[test]
fn flush_covers_every_partial_tail() {
    let n = 32;
    let mut engine = Engine::builder(n)
        .seed(5)
        .shards(3)
        .tumbling(1_000)
        .analyses(batch())
        .build()
        .unwrap();
    // 150 records per stream: no window ever completes.
    let keyed: Vec<(String, usize)> = (0..600)
        .map(|i| (KEYS[i % KEYS.len()].to_string(), (i * 7) % n))
        .collect();
    assert!(engine.ingest_batch(&keyed).unwrap().is_empty());
    let tails = engine.flush_debut_ordered().unwrap();
    assert_eq!(tails.len(), KEYS.len());
    for tail in &tails {
        assert!(!tail.complete);
        assert_eq!(tail.seen, 150);
        assert_eq!(
            tail.reports.len(),
            batch().len(),
            "tail thick enough to analyze"
        );
    }
    // Tails match the dedicated monitors' flushes.
    for key in KEYS {
        let mine: Vec<usize> = keyed
            .iter()
            .filter(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .collect();
        let want = dedicated_monitor(n, Window::Tumbling { span: 1_000 }, 5, key, &mine);
        let got: Vec<WindowReport> = tails
            .iter()
            .filter(|r| r.stream.as_deref() == Some(key))
            .cloned()
            .collect();
        assert_eq!(got, want, "stream {key}");
    }
    // A second flush re-reports the same still-live tails (the partial
    // window is not consumed), exactly like a dedicated monitor would.
    assert_eq!(engine.flush_debut_ordered().unwrap(), tails);
}

/// The engine's output order is deterministic — every `ingest_batch` call
/// returns its reports sorted by (stream, window id), and the flush returns
/// its tails in stream debut order — and stable across repeated identical
/// runs.
#[test]
fn engine_output_order_is_deterministic() {
    let run = || {
        let mut engine = Engine::builder(32)
            .seed(9)
            .shards(4)
            .tumbling(200)
            .analyses(batch())
            .build()
            .unwrap();
        let keyed: Vec<(String, usize)> = (0..2_000)
            .map(|i| (KEYS[(i * 13) % KEYS.len()].to_string(), (i * 11) % 32))
            .collect();
        (
            engine.ingest_batch(&keyed).unwrap(),
            engine.flush_debut_ordered().unwrap(),
        )
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "identical runs produce identical interleavings");
    let order: Vec<(Option<&str>, u64)> =
        a.0.iter()
            .map(|r| (r.stream.as_deref(), r.window))
            .collect();
    let mut sorted = order.clone();
    sorted.sort();
    assert_eq!(
        order, sorted,
        "ingest_batch reports sorted by (stream, window)"
    );
    // KEYS[(i * 13) % 4] debuts the keys in KEYS order; each holds one tail.
    let tails: Vec<Option<&str>> = a.1.iter().map(|r| r.stream.as_deref()).collect();
    assert_eq!(tails, KEYS.map(Some), "flush returns tails in debut order");
}

/// Exact output equality across shard counts: reports — completed
/// windows and flushed tails alike — are bit-identical at 1, 2, 4 and 8
/// shards. With identical batch boundaries the whole interleaving
/// matches, so the comparison is exact output equality, not per-stream
/// filtering.
#[test]
fn reports_bit_identical_across_shard_counts_1_2_4_8() {
    let keys = ["api", "web", "batch", "edge", "ops"];
    let keyed: Vec<(String, usize)> = (0..4_000)
        .map(|i| (keys[(i * 13) % keys.len()].to_string(), (i * 7) % 32))
        .collect();
    let run = |shards: usize| {
        let mut engine = Engine::builder(32)
            .seed(11)
            .shards(shards)
            .tumbling(300)
            .analysis(Uniformity::eps(0.3).budget(UniformityBudget { m: 40 }))
            .build()
            .unwrap();
        let mut out = engine.ingest_batch(&keyed[..1_500]).unwrap();
        out.extend(engine.ingest_batch(&keyed[1_500..]).unwrap());
        out.extend(engine.flush_debut_ordered().unwrap());
        out
    };
    let reference = run(1);
    assert!(
        reference.iter().any(|w| w.complete) && reference.iter().any(|w| !w.complete),
        "fixture covers both completed windows and partial tails"
    );
    for shards in [2usize, 4, 8] {
        assert_eq!(run(shards), reference, "{shards} shards");
    }
}

/// First-arrival order of keys must not leak into the output. Internally
/// each shard groups records per slot (an ordered map, not a randomized
/// hasher), so feeding the same records with streams debuting in opposite
/// orders yields reports that differ only by the per-call sort.
#[test]
fn key_arrival_order_does_not_change_reports() {
    let run = |reverse: bool| {
        let mut engine = Engine::builder(32)
            .seed(9)
            .shards(3)
            .tumbling(200)
            .analyses(batch())
            .build()
            .unwrap();
        let mut keys: Vec<&str> = KEYS.to_vec();
        if reverse {
            keys.reverse();
        }
        // Debut every stream in the chosen order, then interleave evenly.
        let mut keyed: Vec<(String, usize)> = keys.iter().map(|k| (k.to_string(), 0)).collect();
        keyed.extend((0..3_000).map(|i| (KEYS[(i * 7) % KEYS.len()].to_string(), (i * 11) % 32)));
        let mut out = engine.ingest_batch(&keyed).unwrap();
        out.extend(engine.flush_debut_ordered().unwrap());
        out.sort_by(|a, b| (&a.stream, a.window).cmp(&(&b.stream, b.window)));
        out
    };
    assert_eq!(
        run(false),
        run(true),
        "report content independent of key debut order"
    );
}
