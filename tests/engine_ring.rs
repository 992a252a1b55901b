//! Consistent-hash routing: the `Engine`'s virtual-node ring acceptance
//! criteria.
//!
//! Two properties anchor the ring design. First, **routing is invisible**:
//! a stream's reports are bit-identical at every ring size (1, 2, 4, 8
//! shards) and across any resize history, because `stream_seed` derives
//! from the key alone and migration moves `MonitorState`s without
//! touching them. Second, **resizing is cheap**: growing N → N+1 shards
//! migrates at most 2/(N+1) of live streams (expected ~1/(N+1); the
//! factor 2 absorbs virtual-node placement variance), where the old
//! `hash mod N` routing would have re-keyed (N-1)/N of them.

use khist::prelude::*;
use proptest::prelude::*;

const N: usize = 32;

/// A cheap standing batch — these tests exercise routing, not analysis.
fn batch() -> Vec<Analysis> {
    vec![Uniformity::eps(0.3).budget(UniformityBudget { m: 40 }).into()]
}

fn engine(shards: usize, span: u64) -> Engine {
    Engine::builder(N)
        .seed(11)
        .shards(shards)
        .tumbling(span)
        .analyses(batch())
        .build()
        .unwrap()
}

/// Interleaved records over `streams` distinct keys, salted so every
/// proptest case routes a fresh key population.
fn population(streams: usize, salt: u64) -> Vec<(String, usize)> {
    (0..streams)
        .map(|i| (format!("tenant-{salt:016x}-{i}"), i % N))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Acceptance criterion: growing the ring N → N+1 migrates at most
    /// 2/(N+1) of live streams, for every N in {2, 4, 8} over ~2 000
    /// streams — and shrinking straight back returns exactly the streams
    /// that left (the ring for N shards is a prefix of the ring for N+1,
    /// so the old owners are still there).
    #[test]
    fn prop_growing_the_ring_migrates_at_most_two_over_n_plus_one(salt in 0u64..u64::MAX) {
        let streams = 2_000usize;
        let keyed = population(streams, salt);
        for n in [2usize, 4, 8] {
            let mut engine = engine(n, 1_000_000);
            engine.ingest_batch(&keyed).unwrap();
            prop_assert_eq!(engine.streams(), streams);

            let moved = engine.resize(n + 1).unwrap();
            prop_assert!(
                moved * (n + 1) <= 2 * streams,
                "{} -> {} shards moved {} of {} streams (bound {})",
                n, n + 1, moved, streams, 2 * streams / (n + 1)
            );
            // The new shard is not starved either: consistent hashing
            // still spreads load (expected streams/(n+1) arrivals).
            prop_assert!(
                moved * (n + 1) * 2 >= streams,
                "{} -> {} shards moved only {} streams", n, n + 1, moved
            );
            prop_assert_eq!(engine.resize(n).unwrap(), moved, "shrink undoes the grow");
        }
    }
}

/// Acceptance criterion: per-stream reports — completed windows and
/// flushed tails alike — are bit-identical at ring sizes 1, 2, 4, and 8.
/// With identical batch boundaries the whole sorted interleaving matches,
/// so the comparison is exact output equality, not per-stream filtering.
#[test]
fn reports_bit_identical_across_ring_sizes_1_2_4_8() {
    let keys = ["api", "web", "batch", "edge", "ops"];
    let keyed: Vec<(String, usize)> = (0..4_000)
        .map(|i| (keys[(i * 13) % keys.len()].to_string(), (i * 7) % N))
        .collect();
    let run = |shards: usize| {
        let mut engine = engine(shards, 300);
        let mut out = engine.ingest_batch(&keyed[..1_500]).unwrap();
        out.extend(engine.ingest_batch(&keyed[1_500..]).unwrap());
        out.extend(engine.flush().unwrap());
        out
    };
    let reference = run(1);
    assert!(
        reference.iter().any(|w| w.complete) && reference.iter().any(|w| !w.complete),
        "fixture covers both completed windows and partial tails"
    );
    for shards in [2usize, 4, 8] {
        assert_eq!(run(shards), reference, "ring size {shards}");
    }
}

/// Resizing mid-stream is invisible in the reports: ingest half on 2
/// shards, grow to 5, drain the rest — bit-identical to a never-resized
/// single-shard engine with the same batch boundaries.
#[test]
fn resize_mid_stream_preserves_reports() {
    let keys = ["api", "web", "batch"];
    let keyed: Vec<(String, usize)> = (0..3_000)
        .map(|i| (keys[(i * 5) % keys.len()].to_string(), (i * 11) % N))
        .collect();
    let run = |resize_to: Option<usize>| {
        let mut engine = engine(2, 400);
        let mut out = engine.ingest_batch(&keyed[..1_300]).unwrap();
        if let Some(shards) = resize_to {
            engine.resize(shards).unwrap();
        }
        out.extend(engine.ingest_batch(&keyed[1_300..]).unwrap());
        out.extend(engine.flush().unwrap());
        out
    };
    assert_eq!(run(Some(5)), run(None), "grow mid-stream");
    assert_eq!(run(Some(1)), run(None), "collapse to one shard mid-stream");
}

/// The single-shard ring is a working degenerate case: everything routes
/// to shard 0, resizing to the same size is a no-op, and resizing to zero
/// is rejected.
#[test]
fn single_shard_ring_degenerates_cleanly() {
    let mut engine = engine(1, 500);
    let keyed = population(50, 0xdead);
    engine.ingest_batch(&keyed).unwrap();
    assert_eq!(engine.streams(), 50);
    assert_eq!(engine.shards(), 1);
    assert_eq!(engine.resize(1).unwrap(), 0, "same-size resize moves nothing");
    assert!(engine.resize(0).is_err(), "zero shards is rejected");
    // Growing from one shard still obeys the migration bound.
    let moved = engine.resize(2).unwrap();
    assert!(moved <= 50, "{moved} of 50 moved");
    assert_eq!(engine.shards(), 2);
    assert_eq!(engine.streams(), 50, "no stream lost in migration");
}
