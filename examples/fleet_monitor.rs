//! A fleet monitor: 100 tenant streams through one keyed [`Engine`], one
//! hot tenant drifts, and the engine alarms on exactly that tenant.
//!
//! Run with: `cargo run --release --example fleet_monitor`
//!
//! The scenario: a multi-tenant service emits per-tenant events over a
//! bucketed attribute (latency bucket, price band, shard id …). Every
//! tenant's traffic follows the same healthy 4-segment histogram — until
//! a deploy regresses ONE tenant, collapsing a third of its volume onto
//! two hot buckets. Fleet-level dashboards barely move: the hot tenant is
//! 1% of total volume, so the aggregate distribution shifts by ~0.3% of
//! mass. Per-stream monitoring is the only way to see it.
//!
//! The [`Engine`] demultiplexes the interleaved keyed event stream onto
//! per-tenant window state machines (here across 4 worker shards), and
//! each tenant gets its own standing `ℓ₂` test and window-to-window drift
//! check — the two-sample closeness statistic needs no model of either
//! window, just the frozen reservoir lanes. Sharding is semantics-free:
//! any `--shards`-style fan-out yields bit-identical per-tenant reports
//! (property-tested in `tests/engine_sharding.rs`), so the fleet scales
//! across cores without changing a single verdict.

use khist::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 256; // bucketed attribute domain
    let tenants = 100;
    let span = 4_000u64; // records per tumbling window, per tenant
    let hot_tenant = "tenant-042";

    // Healthy traffic: 4 flat segments. Regressed traffic: a third of the
    // volume collapses onto two hot buckets.
    let healthy = khist::dist::generators::staircase(n, 4).unwrap();
    let spikes = khist::dist::generators::spike_comb(n, 2).unwrap();
    let regressed =
        khist::dist::generators::mixture(&[(0.67, healthy.clone()), (0.33, spikes)]).unwrap();

    let mut engine = Engine::builder(n)
        .seed(7)
        .shards(4)
        .tumbling(span)
        .analyses([TestL2::k(4).eps(0.3).scale(0.05).into()])
        .build()
        .unwrap();
    println!(
        "fleet: {tenants} tenant streams on {} shards, tumbling windows of {span} records, \
         {} samples kept per window per tenant\n",
        engine.shards(),
        engine.plan().total_samples().unwrap(),
    );

    // Two phases, one fleet-wide window each: every tenant healthy, then
    // one tenant regressed. Events arrive interleaved across tenants, as
    // they would from a real ingest pipe.
    let mut source = StdRng::seed_from_u64(1);
    let keys: Vec<String> = (0..tenants).map(|t| format!("tenant-{t:03}")).collect();
    let mut alarms: Vec<(String, u64)> = Vec::new();
    for (phase, label) in [(0u64, "all healthy"), (1, "one tenant regressed")] {
        let mut batch: Vec<(String, usize)> = Vec::with_capacity(tenants * span as usize);
        for i in 0..tenants * span as usize {
            let key = &keys[i % tenants];
            let p = if phase == 1 && key == hot_tenant {
                &regressed
            } else {
                &healthy
            };
            batch.push((key.clone(), p.sample(&mut source)));
        }
        let reports = engine.ingest_batch(&batch).unwrap();
        let mut quiet = 0;
        for report in &reports {
            if report.all_quiet() {
                quiet += 1;
            } else {
                alarms.push((report.stream.clone().unwrap(), report.window));
                let drift = report.drift.as_ref().expect("window 1 has a baseline");
                println!(
                    "  ALARM {} window {}: l2-test {:?}, drift {:?} (statistic {:.3e} vs {:.3e})",
                    report.stream.as_deref().unwrap(),
                    report.window,
                    report.reports[0].verdict.unwrap(),
                    drift.verdict.unwrap(),
                    drift.statistic.unwrap(),
                    drift.threshold.unwrap(),
                );
            }
        }
        println!(
            "phase \"{label}\": {} windows reported, {quiet} quiet, {} alarming\n",
            reports.len(),
            reports.len() - quiet
        );
    }

    // The control-plane accessors answer fleet questions without touching
    // a single report: how many tenants, who they are (debut order), and
    // what each one has sent. `khist serve`'s STATS replies are built from
    // exactly these calls.
    let roster = engine.stream_seen();
    assert_eq!(roster.len(), engine.streams());
    assert!(
        roster
            .iter()
            .map(|&(key, _)| key)
            .eq(keys.iter().map(String::as_str)),
        "stream_seen reports tenants in debut order"
    );
    let per_tenant = roster.first().map_or(0, |&(_, seen)| seen);
    assert!(
        roster.iter().all(|&(_, seen)| seen == per_tenant),
        "round-robin interleave feeds every tenant evenly"
    );
    println!(
        "ingested {} records over {} streams ({per_tenant} per tenant); alarms: {alarms:?}",
        engine.seen(),
        engine.streams(),
    );
    assert_eq!(
        alarms,
        vec![(hot_tenant.to_string(), 1)],
        "exactly the hot tenant's second window must alarm"
    );
    println!("✓ only {hot_tenant} was paged — 99 healthy tenants stayed quiet");

    // The fleet rollup tells the same story from one aggregate line —
    // composed purely from the window reports above (zero extra oracle
    // draws), bit-identical for any shard count, and exactly what
    // `khist watch --fleet` / `khist serve`'s FLEET verb emit as JSONL.
    let fleet = engine.fleet_report();
    println!(
        "\nfleet rollup: {}/{} streams alarming, {} windows, drift p50 {:.3} p99 {:.3}",
        fleet.alarming_streams,
        fleet.streams,
        fleet.windows_complete + fleet.windows_partial,
        fleet.drift_p50.unwrap_or(f64::NAN),
        fleet.drift_p99.unwrap_or(f64::NAN),
    );
    for (rank, top) in fleet.top_drift.iter().enumerate() {
        println!(
            "  #{} {} — drift severity {:.2} (window {})",
            rank + 1,
            top.stream,
            top.score,
            top.window
        );
    }
    assert_eq!(
        (fleet.streams, fleet.alarming_streams),
        (tenants as u64, 1),
        "the rollup counts exactly 1 alarming stream out of 100"
    );
    let leader = fleet
        .top_drift
        .first()
        .expect("phase 2 produced drift scores");
    assert_eq!(
        leader.stream, hot_tenant,
        "the hot tenant ranks #1 by drift"
    );
    assert!(
        leader.score > 1.0,
        "the leader's severity (statistic/threshold) shows a rejection"
    );
    assert!(
        fleet.top_drift[1..].iter().all(|t| t.score < 1.0),
        "every runner-up stayed below its drift threshold"
    );
    println!("✓ the fleet line ranks {hot_tenant} #1 and counts 1/100 alarming streams");
}
