//! Criterion bench: keyed multi-stream `Engine` ingest throughput.
//!
//! The fleet-monitoring hot path: one `ingest_batch` round of interleaved
//! keyed records across 1 000 tenant streams, sized so that every stream
//! completes exactly one window per iteration — so each iteration pays
//! the full per-window workload (standing batch + drift bookkeeping) a
//! thousand times, which is the CPU-bound work sharding fans out.
//!
//! Per iteration, `STREAMS × SPAN` records are ingested; divide that by
//! the reported per-iteration time for records/sec. Sharded output is
//! bit-identical to 1-shard output per stream (property-tested in
//! `tests/engine_sharding.rs`), so this bench pins the *speed* side of
//! that trade: on a ≥ 4-core machine the multi-shard rows should beat the
//! 1-shard row wall-clock.
//!
//! An `engine_scaling` group re-runs the cold windowed workload fed in
//! watch-shaped sub-batches (4096·shards records per call) — the scaling
//! curve the shards=4 vs shards=1 acceptance bar reads from, with the
//! host's core count printed alongside.
//!
//! A second group measures the *warm steady state* at fleet scale: an
//! engine already holding 100 000 debuted streams ingests batches that
//! complete no window, so each iteration pays only the allocation-free
//! pipeline (key-table lookup → route → counting-sort → reservoir
//! skip-sampling). This is the path `tests/engine_zero_alloc.rs` proves
//! heap-silent; the bench pins its speed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use khist_core::api::{Analysis, Engine, TestL2, Uniformity};
use khist_core::uniformity::UniformityBudget;
use khist_dist::generators;
use khist_oracle::L2TesterBudget;
use rand::{rngs::StdRng, SeedableRng};

/// Tenant streams per iteration.
const STREAMS: usize = 1_000;
/// Records per stream per iteration (= the tumbling span, so every stream
/// closes exactly one window per iteration and flushes nothing).
const SPAN: usize = 500;

fn standing() -> Vec<Analysis> {
    vec![
        TestL2::k(4)
            .eps(0.3)
            .budget(L2TesterBudget { r: 8, m: 40 })
            .into(),
        Uniformity::eps(0.3)
            .budget(UniformityBudget { m: 120 })
            .into(),
    ]
}

fn bench_engine_throughput(c: &mut Criterion) {
    let n = 256;
    let p = generators::staircase(n, 4).expect("valid staircase");
    let mut rng = StdRng::seed_from_u64(7);
    // One round of keyed records, interleaved round-robin over the fleet:
    // every stream receives exactly SPAN records per iteration.
    let values = p.sample_many(STREAMS * SPAN, &mut rng);
    let records: Vec<(String, usize)> = values
        .into_iter()
        .enumerate()
        .map(|(i, v)| (format!("tenant-{:04}", i % STREAMS), v))
        .collect();

    let mut group = c.benchmark_group("engine_ingest_1k_streams");
    group.sample_size(10);
    for &shards in &[1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
            b.iter(|| {
                let mut engine = Engine::builder(n)
                    .seed(7)
                    .shards(shards)
                    .tumbling(SPAN as u64)
                    .analyses(standing())
                    .build()
                    .expect("valid engine config");
                let reports = engine.ingest_batch(&records).expect("clean ingest");
                assert_eq!(reports.len(), STREAMS, "one window per stream");
                reports.len()
            });
        });
    }
    group.finish();
}

/// Streams in the scaling group: enough per-window work to shard out, few
/// enough that routing cost stays visible next to the analysis compute.
const SCALE_STREAMS: usize = 256;
/// Records per stream in the scaling group (= the tumbling span).
const SCALE_SPAN: usize = 500;

/// The scaling curve: a *cold* engine (workers spawned, nothing debuted)
/// ingests a full windowed workload fed in the CLI watch feed shape —
/// sub-batches of `4096 · shards` records — so each iteration pays the
/// debuts, the route, the shard fan-out, and one completed window per
/// stream. This is the group the shards=4 ≥ 1.8×
/// shards=1 acceptance bar reads from (on a ≥ 4-core host; the recorded
/// `cores` line tells the baseline curator what this run could express).
fn bench_engine_scaling(c: &mut Criterion) {
    let n = 256;
    let p = generators::staircase(n, 4).expect("valid staircase");
    let mut rng = StdRng::seed_from_u64(17);
    let values = p.sample_many(SCALE_STREAMS * SCALE_SPAN, &mut rng);
    let records: Vec<(String, usize)> = values
        .into_iter()
        .enumerate()
        .map(|(i, v)| (format!("tenant-{:03}", i % SCALE_STREAMS), v))
        .collect();
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    println!("engine_scaling cores: {cores}");

    let mut group = c.benchmark_group("engine_scaling");
    group.sample_size(10);
    for &shards in &[1usize, 2, 4, 8] {
        let chunk = 4096 * shards;
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
            b.iter(|| {
                let mut engine = Engine::builder(n)
                    .seed(17)
                    .shards(shards)
                    .tumbling(SCALE_SPAN as u64)
                    .analyses(standing())
                    .build()
                    .expect("valid engine config");
                let mut windows = 0usize;
                for slice in records.chunks(chunk) {
                    windows += engine.ingest_batch(slice).expect("clean ingest").len();
                }
                assert_eq!(windows, SCALE_STREAMS, "one window per stream");
                windows
            });
        });
    }
    group.finish();
}

/// Streams in the warm fleet-scale group.
const WARM_STREAMS: usize = 100_000;
/// Records per warm iteration (5 per stream, round-robin interleaved).
const WARM_BATCH: usize = 500_000;

fn bench_warm_ingest_100k_streams(c: &mut Criterion) {
    let n = 256;
    let p = generators::staircase(n, 4).expect("valid staircase");
    let mut rng = StdRng::seed_from_u64(11);
    let values = p.sample_many(WARM_BATCH, &mut rng);
    let records: Vec<(String, usize)> = values
        .into_iter()
        .enumerate()
        .map(|(i, v)| (format!("tenant-{:06}", i % WARM_STREAMS), v))
        .collect();

    let mut group = c.benchmark_group("engine_warm_ingest_100k_streams");
    group.sample_size(10);
    for &shards in &[1usize, 2, 4, 8] {
        // Build and warm the engine once per shard count: every key
        // debuted, every scratch buffer at steady-state capacity. The
        // span is far beyond the records any measurement feeds, so the
        // timed iterations stay on the pure ingest path.
        let mut engine = Engine::builder(n)
            .seed(11)
            .shards(shards)
            .tumbling(1_000_000_000)
            .analyses(standing())
            .build()
            .expect("valid engine config");
        let reports = engine.ingest_batch(&records).expect("clean warm-up ingest");
        assert!(reports.is_empty(), "warm-up must not complete windows");
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, _| {
            b.iter(|| {
                let reports = engine.ingest_batch(&records).expect("clean warm ingest");
                assert!(reports.is_empty(), "warm batches complete no window");
                reports.len()
            });
        });
    }
    group.finish();
}

/// The rollup itself: fold the per-shard `FleetSummary` partials and
/// render the `FleetReport` for a fleet that has completed one window on
/// every stream. This is the whole cost of serve's `FLEET` verb and of
/// each `watch --fleet` line — the accumulation side rides the window
/// pipeline for free (zero extra oracle draws), so the fold + render is
/// the only part left to pin, and it must stay trivially cheap next to
/// ingest.
fn bench_fleet_rollup(c: &mut Criterion) {
    let n = 256;
    let p = generators::staircase(n, 4).expect("valid staircase");
    let mut rng = StdRng::seed_from_u64(13);
    let values = p.sample_many(STREAMS * SPAN, &mut rng);
    let records: Vec<(String, usize)> = values
        .into_iter()
        .enumerate()
        .map(|(i, v)| (format!("tenant-{:04}", i % STREAMS), v))
        .collect();

    let mut group = c.benchmark_group("fleet_rollup");
    group.sample_size(10);
    for &shards in &[1usize, 4] {
        let mut engine = Engine::builder(n)
            .seed(13)
            .shards(shards)
            .tumbling(SPAN as u64)
            .analyses(standing())
            .build()
            .expect("valid engine config");
        let reports = engine.ingest_batch(&records).expect("clean ingest");
        assert_eq!(reports.len(), STREAMS, "one window per stream");
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, _| {
            b.iter(|| {
                let fleet = engine.fleet_report();
                assert_eq!(fleet.streams as usize, STREAMS);
                fleet.top_drift.len()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_engine_throughput,
    bench_engine_scaling,
    bench_warm_ingest_100k_streams,
    bench_fleet_rollup
);
criterion_main!(benches);
