//! # khist — sub-linear approximation and testing of k-histogram distributions
//!
//! A Rust implementation of
//! *Indyk, Levi, Rubinfeld: "Approximating and Testing k-Histogram
//! Distributions in Sub-linear Time", PODS 2012*, together with the exact
//! offline optima and classical database-histogram baselines the paper is
//! measured against.
//!
//! ## What this library does
//!
//! A distribution `p` over `[n]` is a **k-histogram** when its probability
//! mass function is piecewise constant with `k` pieces. Given only i.i.d.
//! samples from `p`, this library can
//!
//! 1. **Learn** a `k`-histogram whose squared `ℓ₂` error is within an
//!    additive `O(ε)` of the best possible ([`api::Learn`], Theorems 1–2),
//!    using `Õ((k/ε)² ln n)` samples — far fewer than the `Ω(n)` any
//!    pointwise method needs;
//! 2. **Test** whether `p` even is a `k`-histogram, or is `ε`-far from every
//!    one, in `ℓ₂` (`O(ε⁻⁴ ln² n)` samples) or `ℓ₁` (`Õ(ε⁻⁵ √(kn))`
//!    samples) — [`api::TestL2`] / [`api::TestL1`], Theorems 3–4 — plus the
//!    companion uniformity, identity, closeness and monotonicity testers;
//! 3. Reproduce the paper's `Ω(√(kn))` **lower bound** empirically
//!    (`khist::lower_bound`, Theorem 5).
//!
//! ## Crate map
//!
//! | module (re-export) | source crate | contents |
//! |---|---|---|
//! | [`api`] | `khist-core` | **the front door**: typed requests, pull `Session` / push `Monitor` / keyed multi-stream `Engine`, shared `SamplePlan`, serde `Report` |
//! | [`dist`] | `khist-dist` | distributions, intervals, histograms, distances, generators |
//! | [`oracle`] | `khist-oracle` | the pull `SampleOracle` seam + backends, the push `SampleSink`/`WindowedSink` ingest layer, sample multisets, collision estimators, budgets |
//! | [`stats`] | `khist-stats` | summaries, Wilson intervals, scaling fits |
//! | [`fleet`] | `khist-fleet` | mergeable fleet rollups: counters, drift quantile sketch, top-K drifting streams |
//! | [`baseline`] | `khist-baseline` | exact v-optimal DP, `ℓ₁` DP, equi-width/depth, MaxDiff, greedy-merge |
//! | [`greedy`], [`tester`], [`flatness`], [`mod@partition_search`], [`lower_bound`], [`cost`], [`tiling_state`] | `khist-core` | the paper's algorithms |
//!
//! ## Architecture: pull (Session) and push (Monitor) over one engine
//!
//! Every workload enters through a typed [`api::Analysis`] request and
//! returns a structured [`api::Report`]. There are two front doors over
//! the same engine — the pull-based [`api::Session`] (you ask, it draws)
//! and the push-based [`api::Monitor`] (the stream arrives, windows
//! answer):
//!
//! ```text
//!  Learn::k(6).eps(0.1)  TestL2::k(6)  TestL1::k(6)  Uniformity::eps(0.3)
//!  IdentityL2::against(q)  ClosenessL2::against(q)  Monotone::eps(0.3)
//!            │                    │                        │
//!            └────────────────────┼────────────────────────┘
//!                                 ▼           typed Analysis requests
//!          ┌──────────────────────┴──────────────────────┐
//!   PULL   │ Session::run(&[…])                          │   PUSH
//!          │                        Monitor::ingest(&[…])│
//!          ▼                                             ▼
//!   SamplePlan::for_batch                     WindowedSink (SampleSink)
//!          │ max(ℓ), max(r), max(m)             │ plan-shaped reservoir
//!          │ ONE draw shared by all             │ lanes; tumbling/sliding
//!          ▼                                    │ windows, O(budget) memory
//!   trait SampleOracle                          ▼ window closes
//!    ┌─────┼──────────────┐            WindowSnapshot ──▶ ReplayOracle
//!    ▼     ▼              ▼                     │ frozen lanes, zero new
//!  Dense  RecordFile   Replay ◀─────────────────┘ draws (same engine!)
//!  Oracle Oracle       Oracle
//!    │ alias │ one-pass   │ pre-drawn           ▼
//!    │ table │ reservoir  │ buffers      WindowReport {reports, drift}
//!    ▼       ▼ splitting  ▼                     │ ℓ₂ closeness vs the
//!   Vec<Report>  (verdict/histogram,            │ previous window
//!                statistic, samples spent,      ▼
//!                budget, seed, wall time;  `khist watch --json` (JSONL)
//!                serde → `khist … --json`)
//! ```
//!
//! Batching matters on streaming backends: a `Session::run` over
//! {learn, test-`ℓ₂`, uniformity} draws **once** — a single pass over a
//! [`oracle::RecordFileOracle`]'s file — where the pre-API free functions
//! cost one pass each. The per-algorithm free functions (`greedy::learn`,
//! `tester::test_l2`, …) remain as thin shims over the same
//! [`api::SamplePlan`] layer.
//!
//! Push and pull are two transports for one sampling process: a tumbling
//! window pushed into a [`oracle::WindowedSink`] freezes lanes
//! bit-identical to replaying the same records through a
//! `RecordFileOracle` with the same seed, so `Monitor` reports match
//! `Session::open_records` reports exactly (property-tested in
//! `tests/monitor_push_pull.rs`).
//!
//! For fleets of keyed streams (per-tenant, per-endpoint), the
//! [`api::Engine`] lifts the same property one level up: stream keys hash
//! onto a shared-nothing pool of worker shards, each owning the pure
//! per-stream state machines ([`api::Monitor`]) for its keys, with
//! per-stream seeds derived as `Engine::stream_seed(base_seed, key)` — so
//! a sharded run is **bit-identical per stream** to a dedicated
//! single-threaded `Monitor` on that stream's records, for any shard
//! count (property-tested in `tests/engine_sharding.rs`).
//!
//! ## Budgets
//!
//! Every sample budget has checked `total_samples`,
//! `calibrated`/`theoretical` constructors and a serde round-trip:
//!
//! | budget | params | shape | feeds |
//! |---|---|---|---|
//! | [`oracle::LearnerBudget`] | `(n, k, ε)` | `ℓ = ln(12n²)/2ξ²`, `r = ln(6n²)`, `m = 24/ξ²` | [`api::Learn`] |
//! | [`oracle::L2TesterBudget`] | `(n, ε)` | `r = 16·ln(6n²)`, `m = 64·ln n·ε⁻⁴` | [`api::TestL2`] |
//! | [`oracle::L1TesterBudget`] | `(n, k, ε)` | `r = 16·ln(6n²)`, `m = 2¹³√(kn)·ε⁻⁵` | [`api::TestL1`] |
//! | [`uniformity::UniformityBudget`] | `(n, ε)` | `m = 16√n·ε⁻⁴` | [`api::Uniformity`] (+ identity/closeness defaults) |
//!
//! Extreme parameters (`ε = 1e-300`, `n = usize::MAX`) produce a
//! [`dist::DistError`] instead of silently overflowing.
//!
//! ## Quickstart
//!
//! ```
//! use khist::prelude::*;
//!
//! // The unknown distribution: a Zipf over 256 values (not a k-histogram).
//! let p = khist::dist::generators::zipf(256, 1.1).unwrap();
//!
//! // One session = one oracle + one seed. Any backend works: an explicit
//! // pmf (here), a streamed record file, or a replayed capture.
//! let mut session = Session::from_dense(&p, 7);
//!
//! // One batch, one shared draw: learn a 6-piece histogram AND test
//! // 6-histogram-ness AND check uniformity from the same samples.
//! let reports = session
//!     .run(&[
//!         Learn::k(6).eps(0.1).scale(0.01).into(),
//!         TestL2::k(6).eps(0.3).scale(0.02).into(),
//!         Uniformity::eps(0.3).scale(0.05).into(),
//!     ])
//!     .unwrap();
//!
//! // Structured reports: histogram out of the learner…
//! let learned = reports[0].histogram.as_ref().unwrap();
//! let opt = v_optimal(&p, 6).unwrap();
//! assert!(learned.l2_sq_to(&p) - opt.sse < 8.0 * 0.1, "Theorem 2 bound");
//! // …verdicts out of the testers, and JSON out of everything.
//! assert!(reports[2].verdict.is_some());
//! let round_trip = khist::api::Report::from_json(&reports[0].to_json()).unwrap();
//! assert_eq!(round_trip, reports[0]);
//! ```

#![forbid(unsafe_code)]
// missing_docs is enforced centrally via [workspace.lints] in the root Cargo.toml.

pub mod app;

/// The README's code samples compile and run as doctests (via
/// `include_str!`), so the front-page quickstart can never rot.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
mod readme_doctests {}

pub use khist_baseline as baseline;
pub use khist_dist as dist;
pub use khist_fleet as fleet;
pub use khist_oracle as oracle;
pub use khist_stats as stats;

pub use khist_core::{
    api, compress, cost, flatness, greedy, identity, lower_bound, monotone, partition_search,
    tester, tiling_state, uniformity,
};

/// One-line imports for the common workflow.
pub mod prelude {
    pub use khist_baseline::{
        equi_depth, equi_width, greedy_merge, l1_flatten_optimal, max_diff, sample_then_dp,
        v_optimal,
    };
    pub use khist_core::api::{
        Analysis, AnalysisKind, BudgetSpec, ClosenessL2, Engine, EngineBuilder, FleetReport,
        FleetSummary, IdentityL2, Learn, Monitor, MonitorBuilder, Monotone, Report, SamplePlan,
        Session, TestL1, TestL2, TopStream, Uniformity, WindowReport,
    };
    pub use khist_core::compress::compress_to_k;
    pub use khist_core::greedy::{learn, learn_from_samples, CandidatePolicy, GreedyParams};
    pub use khist_core::identity::{test_closeness_l2, test_identity_l2};
    pub use khist_core::tester::{test_l1, test_l2, TestOutcome};
    pub use khist_core::uniformity::{test_uniformity, UniformityBudget};
    pub use khist_dist::{DenseDistribution, Interval, PriorityHistogram, TilingHistogram};
    pub use khist_oracle::{
        DenseOracle, L1TesterBudget, L2TesterBudget, LearnerBudget, RecordFileOracle, ReplayOracle,
        Reservoir, SampleOracle, SampleSet, SampleSink, Window, WindowSnapshot, WindowedSink,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let p = DenseDistribution::uniform(4).unwrap();
        assert_eq!(p.n(), 4);
        let _ = LearnerBudget::calibrated(4, 1, 0.5, 0.5).unwrap();
        let _session = Session::from_dense(&p, 1);
        let _analysis: Analysis = Learn::k(1).eps(0.5).scale(0.5).into();
    }
}
