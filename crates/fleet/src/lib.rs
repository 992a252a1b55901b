#![forbid(unsafe_code)]
//! Cross-stream fleet analytics: mergeable rollup summaries.
//!
//! The engine layer answers questions about *one* stream per report; this
//! crate answers the fleet-shaped ones — "which of my 10k streams changed
//! this window?", "did the fleet rejection rate spike?" — without a single
//! extra oracle draw. Each shard folds the [`WindowObservation`]s it
//! already produces into a [`FleetSummary`]; summaries merge shard-wise
//! (associatively **and** commutatively, bit-exactly) into one
//! [`FleetReport`].
//!
//! The merge laws are load-bearing: the engine guarantees its fleet rollup
//! is bit-identical for every shard count, which holds exactly when a
//! summary is a pure function of the *multiset* of observations,
//! independent of how they were partitioned. Every component here is
//! built for that:
//!
//! - counters are integer sums ([`khist_stats::SuccessCounter::merge`]);
//! - the [`DriftSketch`] quantile sketch stores an order-canonical exact
//!   stash while small and collapses to fixed log-scale bins past a
//!   deterministic count threshold — never a sample, never a clock;
//! - the [`TopDrift`] heap keeps per-stream maxima under a strict total
//!   order (score first, stream debut order as the tie-break).
//!
//! Nothing in this crate knows about engines, monitors, or oracles: the
//! caller extracts a [`WindowObservation`] from each window report and
//! names the top-K streams, by debut index, only when rendering a
//! [`FleetReport`].

mod report;
mod sketch;
mod summary;
mod topk;

pub use report::{FleetReport, TopStream};
pub use sketch::DriftSketch;
pub use summary::{FleetSummary, WindowObservation};
pub use topk::{DriftEntry, TopDrift, TOP_K};
