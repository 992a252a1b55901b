//! Fleet rollups are shard-free: the acceptance criteria for
//! `Engine::fleet_report` and `FleetSummary::merge`.
//!
//! The engine composes its fleet report by folding per-shard
//! `FleetSummary` partials, so two properties carry the whole feature:
//! the fold must be associative and commutative **at the bit level** (any
//! shard count and any merge grouping collapse to the same state), and
//! the end-to-end `FleetReport` must be bit-identical
//! for shards ∈ {1, 2, 4, 8} over the same keyed records — the fleet
//! analogue of `tests/engine_sharding.rs`.

use khist::fleet::{FleetSummary, WindowObservation};
use khist::prelude::*;
use proptest::prelude::*;

/// The standing batch every stream runs (same shapes as the sharding
/// test: weighted, set, and main lanes all exercised), with explicit
/// small budgets so short windows always fill every lane.
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

/// Raw material for one arbitrary window observation, as a 4-tuple the
/// vendored proptest shim can generate (it offers range and tuple
/// strategies only — flags and optional fields are decoded from `bits`).
type RawObs = (u32, u64, u64, u64);

fn raw_observation() -> impl Strategy<Value = RawObs> {
    (0u32..16, 0u64..8, 0u64..500, 0u64..100_000)
}

/// Decodes a raw tuple into a caller-contract-respecting observation.
/// Drift scores are present ~70% of the time so partials routinely cross
/// the sketch's exact→binned collapse boundary when merged.
fn decode(raw: RawObs) -> WindowObservation {
    let (debut, window, seen, bits) = raw;
    let alarmed = bits & 2 != 0;
    let verdicts = ((bits >> 3) % 4) as u32;
    WindowObservation {
        debut,
        window,
        seen,
        kept: seen / 3,
        complete: bits & 1 != 0,
        alarmed,
        first_alarm: alarmed && bits & 4 != 0,
        verdicts,
        rejects: (((bits >> 5) % 4) as u32).min(verdicts),
        drift_score: (bits % 10 < 7).then(|| (bits % 4_999 + 1) as f64 * 1e-3),
    }
}

fn summarize(debuts: u32, observations: &[RawObs]) -> FleetSummary {
    let mut s = FleetSummary::new();
    for _ in 0..debuts {
        s.observe_debut();
    }
    for &o in observations {
        s.observe_window(decode(o));
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `FleetSummary::merge` is associative and commutative bit for bit —
    /// the algebra that makes shard count and merge grouping invisible in
    /// the rollup.
    #[test]
    fn prop_fleet_merge_associative_and_commutative(
        xs in proptest::collection::vec(raw_observation(), 0..160),
        ys in proptest::collection::vec(raw_observation(), 0..160),
        zs in proptest::collection::vec(raw_observation(), 0..160),
        (da, db, dc) in (0u32..6, 0u32..6, 0u32..6),
    ) {
        let a = summarize(da, &xs);
        let b = summarize(db, &ys);
        let c = summarize(dc, &zs);

        // Commutativity: a ⊕ b == b ⊕ a.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba, "merge must be commutative");

        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut left = ab;
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right, "merge must be associative");

        // And the fold renders identically however grouped — the JSON
        // line is the bit-identity witness the e2e layers compare.
        let keys: Vec<String> = (0..16).map(|i| format!("s{i}")).collect();
        let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
        prop_assert_eq!(
            left.report(|debut| keys.get(debut as usize).copied()).to_json(),
            right.report(|debut| keys.get(debut as usize).copied()).to_json()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Acceptance criterion: `Engine::fleet_report` is bit-identical for
    /// shards ∈ {1, 2, 4, 8} over the same keyed records — rendered JSON
    /// compared as strings, the strongest equality the wire offers.
    #[test]
    fn prop_fleet_report_bit_identical_across_shard_counts(
        records in proptest::collection::vec((0usize..KEYS.len(), 0usize..32), 200..600),
        base_seed in 0u64..u64::MAX,
        cut in 0.0f64..1.0,
    ) {
        let keyed: Vec<(String, usize)> = records
            .iter()
            .map(|&(k, v)| (KEYS[k].to_string(), v))
            .collect();
        let split = ((keyed.len() as f64) * cut) as usize;
        let mut reference: Option<String> = None;
        for shards in [1usize, 2, 4, 8] {
            let mut engine = Engine::builder(32)
                .seed(base_seed)
                .shards(shards)
                .tumbling(120)
                .analyses(batch())
                .build()
                .unwrap();
            engine.ingest_batch(&keyed[..split]).unwrap();
            engine.ingest_batch(&keyed[split..]).unwrap();
            engine.flush_debut_ordered().unwrap();
            let line = engine.fleet_report().to_json();
            match &reference {
                None => reference = Some(line),
                Some(want) => prop_assert_eq!(&line, want, "{} shards", shards),
            }
        }
    }
}

/// The rollup's counters reconcile with the reports the engine actually
/// emitted — streams, windows, record totals, and alarm counts are all
/// derivable from the `WindowReport` stream, and the fleet line must
/// agree with that derivation exactly.
#[test]
fn fleet_report_reconciles_with_window_reports() {
    let mut engine = Engine::builder(32)
        .seed(3)
        .shards(4)
        .tumbling(120)
        .analyses(batch())
        .build()
        .unwrap();
    let keyed: Vec<(String, usize)> = (0..2_000)
        .map(|i| (KEYS[(i * 7) % KEYS.len()].to_string(), (i * 5) % 32))
        .collect();
    let mut reports = engine.ingest_batch(&keyed).unwrap();
    reports.extend(engine.flush_debut_ordered().unwrap());
    let fleet = engine.fleet_report();

    assert_eq!(fleet.streams, KEYS.len() as u64);
    assert_eq!(
        fleet.windows_complete,
        reports.iter().filter(|r| r.complete).count() as u64
    );
    assert_eq!(
        fleet.windows_partial,
        reports.iter().filter(|r| !r.complete).count() as u64
    );
    assert_eq!(
        fleet.records_seen,
        reports.iter().map(|r| r.seen).sum::<u64>()
    );
    assert_eq!(
        fleet.records_kept,
        reports.iter().map(|r| r.kept).sum::<u64>()
    );
    assert_eq!(
        fleet.alarm_windows,
        reports.iter().filter(|r| !r.all_quiet()).count() as u64
    );
    let alarming: std::collections::BTreeSet<&str> = reports
        .iter()
        .filter(|r| !r.all_quiet())
        .filter_map(|r| r.stream.as_deref())
        .collect();
    assert_eq!(fleet.alarming_streams, alarming.len() as u64);
    assert_eq!(
        fleet.drift_observations,
        reports
            .iter()
            .filter_map(|r| r.drift.as_ref())
            .filter(|d| d.statistic.is_some())
            .count() as u64
    );
    // The JSON line round-trips (the wire shape serve/watch share).
    let line = fleet.to_json();
    assert!(FleetReport::is_fleet_line(&line));
    assert_eq!(FleetReport::from_json(&line).unwrap(), fleet);
}
