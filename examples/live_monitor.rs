//! A production-style live monitor: push events in, get windowed
//! verdicts and drift alarms out.
//!
//! Run with: `cargo run --release --example live_monitor`
//!
//! The scenario: a service emits events keyed by a bucketed attribute
//! (latency bucket, shard id, price band …). Healthy traffic follows a
//! coarse 4-segment histogram. Mid-stream, a routing bug concentrates a
//! quarter of the traffic onto two hot buckets — total volume unchanged,
//! so throughput dashboards stay flat. The [`Monitor`] sees it twice
//! over:
//!
//! 1. the standing `ℓ₂` histogram test per window stops accepting
//!    ("traffic no longer looks like ≤ 4 flat segments"), and
//! 2. the window-to-window drift check rejects ("this window's sample is
//!    far from the last one's") — the closeness-testing view of the same
//!    event, needing no model of either side.
//!
//! (Subtler faults that move little `ℓ₂` mass — e.g. fragmentation inside
//! segments — are the `ℓ₁` tester's territory; see the `drift_detection`
//! example.) The monitor never stores the stream: each window keeps only
//! its plan-shaped reservoir lanes, and every verdict is computed from
//! those frozen lanes with zero additional draws.

use khist::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 256; // bucketed attribute domain
    let k = 4; // expected number of segments
    let span = 25_000u64; // records per tumbling window

    // Healthy traffic: 4 segments, flat inside each.
    let healthy = khist::dist::generators::staircase(n, k).unwrap();
    // Regressed traffic: a quarter of the volume collapses onto two hot
    // buckets (a routing bug); the rest still follows the segments.
    let hot = khist::dist::generators::spike_comb(n, 2).unwrap();
    let faulty = khist::dist::generators::mixture(&[(0.75, healthy.clone()), (0.25, hot)]).unwrap();

    let mut monitor = Monitor::builder(n)
        .seed(7)
        .tumbling(span)
        .analyses([
            TestL2::k(k).eps(0.3).scale(0.05).into(),
            Uniformity::eps(0.3).scale(0.1).into(),
        ])
        .build()
        .unwrap();
    println!(
        "monitoring [0, {n}) with tumbling windows of {span} records; \
         {} samples kept per window (plan {:?}-ish)\n",
        monitor.plan().total_samples().unwrap(),
        (
            monitor.plan().main(),
            monitor.plan().r(),
            monitor.plan().m()
        ),
    );
    println!(
        "{:<8}{:<10}{:>10}{:>12}{:>12}",
        "window", "source", "l2-test", "drift", "kept"
    );

    // The event loop: batches arrive, get pushed, reports fall out at
    // window boundaries. Windows 0–4 healthy, 5–9 faulty.
    let mut stream_rng = StdRng::seed_from_u64(42);
    for window in 0..10u64 {
        let source = if window < 5 { &healthy } else { &faulty };
        let label = if window < 5 { "healthy" } else { "FAULTY" };
        // Events arrive in small batches, as they would from a socket.
        let mut reports = Vec::new();
        let mut remaining = span;
        while remaining > 0 {
            let chunk = remaining.min(1_000) as usize;
            let events = source.sample_many(chunk, &mut stream_rng);
            reports.extend(monitor.ingest(&events).unwrap());
            remaining -= chunk as u64;
        }
        for report in reports {
            let shape = report.reports[0]
                .verdict
                .map(|v| format!("{v:?}"))
                .unwrap_or_default();
            let drift = report
                .drift
                .as_ref()
                .map(|d| if d.accepted() { "quiet" } else { "ALARM" })
                .unwrap_or("-");
            println!(
                "{:<8}{:<10}{:>10}{:>12}{:>12}",
                report.window, label, shape, drift, report.kept
            );
        }
    }

    println!(
        "\nledger: {} windows frozen, {} total samples served, stream never stored",
        monitor.windows(),
        monitor
            .ledger()
            .iter()
            .filter(|e| e.label == "draw")
            .map(|e| e.samples)
            .sum::<usize>(),
    );
    println!(
        "(the same monitor drives `khist watch -` on stdin: every verdict \
         above is recomputable\n from the frozen window + seed alone)"
    );
}
