//! One `Session`, one draw, four answers: the shared-sample-plan win.
//!
//! Run with: `cargo run --release --example batch_analyze`
//!
//! A single `Session::run` batch answers *learn a histogram* plus three
//! testers (ℓ₂ structure, uniformity, monotonicity) from ONE shared
//! sample draw. The session ledger shows the accounting: the oracle paid
//! for `max` of the requirements once, while the analyses "spent" their
//! nominal budgets against the same sets — the gap is the hot-path win,
//! which on a `RecordFileOracle` is literally the difference between one
//! file pass and four.

use khist::prelude::*;

fn main() {
    let n = 1024;
    let k = 6;

    // An e-commerce-ish order-value attribute: lognormal-like, monotone
    // after the mode, definitely not uniform.
    let p = khist::dist::generators::mixture(&[
        (0.7, khist::dist::generators::geometric(n, 0.995).unwrap()),
        (
            0.3,
            khist::dist::generators::discrete_gaussian(n, 300.0, 40.0).unwrap(),
        ),
    ])
    .unwrap();

    let mut session = Session::from_dense(&p, 42);
    let batch: Vec<Analysis> = vec![
        Learn::k(k).eps(0.1).scale(0.01).into(),
        TestL2::k(k).eps(0.25).scale(0.05).into(),
        Uniformity::eps(0.3).scale(0.1).into(),
        Monotone::eps(0.3).into(),
    ];
    let reports = session.run(&batch).unwrap();

    println!(
        "batch of {} analyses over [0, {n}), seed {}:",
        reports.len(),
        session.seed()
    );
    for report in &reports {
        println!("  {report}");
    }

    let learned = reports[0].histogram.as_ref().unwrap();
    println!("\nlearned {k}-piece summary:",);
    for (iv, v) in learned.pieces() {
        println!("  {iv}  density {v:.6}");
    }

    // --- The ledger: where the sharing shows up ---------------------------
    println!("\nper-analysis sample-spend ledger:");
    for entry in session.ledger() {
        println!(
            "  {:<12} {:>9} samples  {:>8.3} ms",
            entry.label,
            entry.samples,
            entry.seconds * 1e3
        );
    }
    let drawn = session.samples_drawn();
    let spent: usize = reports.iter().map(|r| r.samples_spent).sum();
    println!(
        "\ndrawn once: {drawn} samples — consumed by analyses: {spent} \
         ({:.1}× reuse; on a record file this is 1 pass instead of {})",
        spent as f64 / drawn as f64,
        reports.len()
    );

    // Structured output for machines: the same reports as a JSON array.
    println!("\nfirst report as JSON:\n{}", reports[1].to_json());
}
