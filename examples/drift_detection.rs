//! Structure-drift monitoring, push-based: the `ℓ₁` shape tester and the
//! window-to-window closeness check side by side.
//!
//! Run with: `cargo run --release --example drift_detection`
//!
//! A monitoring pipeline receives events keyed by a bucketed attribute.
//! While the system is healthy the attribute distribution is a coarse
//! step function (a k-histogram: a few customer segments, each internally
//! uniform). A regression then fragments the distribution inside one
//! segment — overall segment volumes stay identical, so mean/volume
//! dashboards see nothing.
//!
//! Two sample-based detectors watch the same pushed windows of a
//! [`Monitor`]:
//!
//! * the **`ℓ₁` tester** (Theorem 4) checks each window against the model
//!   "is this *any* k-histogram?" — it needs only `Õ(√(kn))` samples and
//!   no baseline;
//! * the **drift check** compares each window's sample against the
//!   previous window's (`ℓ₂` closeness from two sample sets, the
//!   Diakonikolas–Kane–Nikishkin setting) — no model at all, only the
//!   frozen baseline window.
//!
//! The run demonstrates a *separation*, not redundancy: the ℓ₁ tester
//! alarms on every faulty window, while the ℓ₂ drift check stays quiet
//! throughout — fragmenting segments moves `Θ(1)` of `ℓ₁` mass but only
//! `O(‖p‖₂²) ≈ O(1/n)` of squared-`ℓ₂` mass, far below any constant
//! closeness threshold. This is the paper's `ℓ₁` vs `ℓ₂` gap made
//! operational: faults like this are exactly why the `Õ(ε⁻⁵√(kn))`-sample
//! ℓ₁ tester earns its keep next to the cheap `ℓ₂` machinery. (For an
//! `ℓ₂`-visible fault where the drift check *does* fire, see the
//! `live_monitor` example.)

use khist::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 256; // bucketed attribute domain
    let k = 4; // expected number of segments
    let eps = 0.4;
    let span = 20_000u64;

    // Healthy traffic: 4 segments with different volumes, flat inside.
    let healthy = khist::dist::generators::staircase(n, k).unwrap();
    // Faulty traffic: same segment volumes, but inside every segment half
    // the buckets go silent and the other half doubles (a sharding bug).
    let mut gen_rng = StdRng::seed_from_u64(314);
    let faulty = khist::dist::generators::half_empty_perturbation(n, k, k, &mut gen_rng).unwrap();

    let mut monitor = Monitor::builder(n)
        .seed(99)
        .tumbling(span)
        .analyses([TestL1::k(k).eps(eps).scale(0.02).into()])
        .build()
        .unwrap();

    println!(
        "monitoring with ℓ₁ tester + ℓ₂ drift: n = {n}, k = {k}, ε = {eps}; \
         windows of {span} records (ℓ₁ budget wants {}, lanes keep what arrives)",
        monitor.plan().total_samples().unwrap()
    );
    println!(
        "{:<8}{:<12}{:>10}{:>10}",
        "window", "source", "shape", "drift"
    );

    let mut stream_rng = StdRng::seed_from_u64(2718);
    let batches = 10u64;
    let mut shape_alarms = [0u32; 2];
    let mut drift_alarms = [0u32; 2];
    for batch in 0..batches {
        // First half of the run is healthy, second half is faulty.
        let (label, source) = if batch < batches / 2 {
            ("healthy", &healthy)
        } else {
            ("FAULTY", &faulty)
        };
        let events = source.sample_many(span as usize, &mut stream_rng);
        for report in monitor.ingest(&events).unwrap() {
            let shape_alarm = !report.reports[0].accepted();
            let drift_alarm = report.drift.as_ref().is_some_and(|d| !d.accepted());
            let faulty_side = usize::from(label == "FAULTY");
            shape_alarms[faulty_side] += u32::from(shape_alarm);
            drift_alarms[faulty_side] += u32::from(drift_alarm);
            println!(
                "{:<8}{:<12}{:>10}{:>10}",
                report.window,
                label,
                if shape_alarm { "ALARM" } else { "ok" },
                match report.drift.as_ref() {
                    None => "-",
                    Some(d) if d.accepted() => "quiet",
                    Some(_) => "ALARM",
                },
            );
        }
    }

    println!(
        "\nshape alarms   — healthy: {}/{h}, faulty: {}/{f}",
        shape_alarms[0],
        shape_alarms[1],
        h = batches / 2,
        f = batches - batches / 2
    );
    println!(
        "drift alarms   — healthy: {}/{h}, faulty: {}/{f}",
        drift_alarms[0],
        drift_alarms[1],
        h = batches / 2,
        f = batches - batches / 2
    );
    println!(
        "(each verdict is guaranteed correct with probability ≥ 2/3 at the\n\
         theoretical budget; production use would vote over a few windows.\n\
         The ℓ₂ drift check staying quiet is the point: this fault moves\n\
         Θ(1) ℓ₁ mass but only O(1/n) squared-ℓ₂ mass — the paper's ℓ₁/ℓ₂\n\
         separation, and the reason the √(kn)-sample ℓ₁ tester exists.)"
    );
}
