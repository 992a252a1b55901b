//! What a stream keeps once its first window completes: its drift
//! baseline at no more than 12 bytes per distinct value, plus a small
//! constant.
//!
//! Every keyed stream holds its last complete window's merged sample as
//! the baseline its next window's drift check reads. This file installs a
//! counting global allocator and measures the live heap bytes an engine
//! gains between two points: every stream has debuted and holds records
//! in window 0, and every stream has completed window 0 and holds one
//! record of window 1. Both points hold one pane of lanes per stream, so
//! the growth is what a completed window leaves behind.
//!
//! The standing batch is one uniformity test whose single lane holds a
//! whole window, so every record is kept and the test knows each
//! window's distinct values. The counter is process-global, so this file
//! holds exactly one `#[test]` (see `tests/engine_zero_alloc.rs`).

use alloc_counter::CountingAllocator;
use khist::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Streams per engine: enough that the engine's own buffers are noise next
/// to the per-stream bound.
const STREAMS: usize = 16;

/// Bytes a baseline may take per distinct value: a four-byte value and
/// an eight-byte count.
const PER_VALUE: usize = 12;

/// What a stream's first completed window adds besides its baseline's
/// values, with room to spare: the ledger's first totals (`draw` and
/// `uniformity`, a four-entry buffer of 32-byte entries) and the baseline
/// queue, which holds one 40-byte entry for a one-pane window.
const PER_STREAM: usize = 256;

#[test]
fn a_completed_window_keeps_at_most_twelve_bytes_per_distinct_value() {
    let keys: Vec<String> = (0..STREAMS).map(|s| format!("stream-{s}")).collect();
    for (n, span) in [(256usize, 1_000usize), (65_536, 20_000)] {
        let mut engine = Engine::builder(n)
            .seed(31)
            .tumbling(span as u64)
            .analysis(Uniformity::eps(0.3).budget(UniformityBudget { m: span }))
            .build()
            .unwrap();
        // Each stream's window 0 and the first record of its window 1.
        let mut rng = StdRng::seed_from_u64(n as u64);
        let records: Vec<Vec<usize>> = keys
            .iter()
            .map(|_| (0..=span).map(|_| rng.random_range(0..n)).collect())
            .collect();
        let distinct: usize = records
            .iter()
            .map(|stream| {
                let mut window = stream[..span].to_vec();
                window.sort_unstable();
                window.dedup();
                window.len()
            })
            .sum();
        // One record per stream per call, in key order, so every call has
        // the same shape and the engine's scratch stops growing after the
        // first.
        let mut call = |i: usize| {
            let batch: Vec<(&str, usize)> = keys
                .iter()
                .zip(&records)
                .map(|(key, stream)| (key.as_str(), stream[i]))
                .collect();
            engine.ingest_batch(&batch).unwrap()
        };
        for i in 0..2 {
            assert!(call(i).is_empty());
        }

        let before = ALLOC.live_bytes();
        let mut windows = 0;
        for i in 2..=span {
            for window in call(i) {
                assert!(window.complete && window.error.is_none(), "{window}");
                assert_eq!(window.kept, span as u64, "the lane keeps every record");
                windows += 1;
            }
        }
        let grown = ALLOC.live_bytes().saturating_sub(before);
        assert_eq!(windows, STREAMS, "every stream completes window 0");
        let bound = PER_VALUE * distinct + PER_STREAM * STREAMS;
        eprintln!(
            "n = {n}, span = {span}: {grown} live bytes over {STREAMS} streams and \
             {distinct} distinct values (bound {bound})"
        );
        assert!(
            grown <= bound,
            "n = {n}, span = {span}: {STREAMS} streams grew by {grown} live bytes \
             ({:.1} per distinct value over {distinct}); the bound is {bound} \
             ({PER_VALUE} per distinct value plus {PER_STREAM} per stream)",
            grown as f64 / distinct as f64,
        );
    }
}
