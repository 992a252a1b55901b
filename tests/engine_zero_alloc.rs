//! Proof that the warm keyed ingest path is allocation-free.
//!
//! PR 7's pipeline contract: once every stream key has debuted and every
//! scratch buffer has grown to the workload's high-water mark, a call to
//! `Engine::ingest_batch` that completes no window performs **zero** heap
//! allocations — on the caller thread and on every shard worker. This file
//! installs a counting global allocator and measures the delta directly.
//!
//! The counter is process-global, so this file holds exactly one `#[test]`
//! (integration tests are separate binaries; within one binary the default
//! harness would interleave tests on multiple threads and contaminate the
//! count). It loops over one standing batch of each lane shape, and for
//! each over shard counts 1 (no workers: every job inline), 2 and 4
//! (persistent workers), each with a large (8 192-record) and a small
//! (512-record) batch — every combination must be allocation-free warm.

use alloc_counter::CountingAllocator;
use khist::prelude::*;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Standing batches with small explicit budgets, one per lane shape: a
/// main set plus sets (a weighted main lane and six lanes), the main set
/// alone (one lane), and sets alone (six round-robin lanes).
fn standing_batches() -> [(&'static str, Vec<Analysis>); 3] {
    let l2 = || -> Analysis {
        TestL2::k(3)
            .eps(0.3)
            .budget(L2TesterBudget { r: 6, m: 40 })
            .into()
    };
    let uniformity = || -> Analysis {
        Uniformity::eps(0.3)
            .budget(UniformityBudget { m: 60 })
            .into()
    };
    [
        ("weighted", vec![l2(), uniformity()]),
        ("single-lane", vec![uniformity()]),
        ("round-robin", vec![l2()]),
    ]
}

const KEYS: [&str; 8] = [
    "api", "web", "batch", "edge", "cron", "etl", "mobile", "backfill",
];

/// One batch of keyed records: round-robin keys, values sweeping the
/// domain. Identical every call, so a warm replay touches no new state.
fn batch(n: usize, records: usize) -> Vec<(&'static str, usize)> {
    (0..records)
        .map(|i| (KEYS[i % KEYS.len()], (i * 7 + i / 3) % n))
        .collect()
}

fn engine(shards: usize, standing: &[Analysis]) -> Engine {
    Engine::builder(64)
        .seed(0xA110C)
        .shards(shards)
        // A span far beyond what the test feeds: no window ever completes,
        // so the measured calls stay on the pure ingest path.
        .tumbling(1_000_000_000)
        .analyses(standing.to_vec())
        .build()
        .unwrap()
}

#[test]
fn warm_ingest_batch_allocates_nothing() {
    let large = batch(64, 8192);
    let small = batch(64, 512);
    for (lanes, standing) in standing_batches() {
        let plan = engine(1, &standing).plan();
        let shape = match (plan.main(), plan.r()) {
            (_, 0) => "single-lane",
            (0, _) => "round-robin",
            _ => "weighted",
        };
        assert_eq!(shape, lanes, "{plan:?}");
        for shards in [1usize, 2, 4] {
            for (size, records) in [("large", &large), ("small", &small)] {
                let mut engine = engine(shards, &standing);
                // Warm-up: debut every key, push every reservoir past its
                // fill phase, and let every scratch buffer (shard buckets,
                // counting-sort slots, mailbox round-trip buffers)
                // reach steady-state capacity.
                for _ in 0..3 {
                    let reports = engine.ingest_batch(records).unwrap();
                    assert!(reports.is_empty(), "span must outlast the test feed");
                }

                let before = ALLOC.allocations();
                let reports = engine.ingest_batch(records).unwrap();
                let delta = ALLOC.allocations() - before;
                assert!(reports.is_empty(), "span must outlast the test feed");
                assert_eq!(
                    delta, 0,
                    "warm {size}-batch ingest_batch with {lanes} lanes on {shards} \
                     shard(s) performed {delta} heap allocation(s); the warm path \
                     must not allocate"
                );
            }
        }
    }
}
