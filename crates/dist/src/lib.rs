//! # khist-dist — the distribution substrate of the `khist` workspace
//!
//! Everything the PODS 2012 reproduction manipulates lives here:
//!
//! * [`DenseDistribution`] — explicit pmfs with `O(1)` interval weight /
//!   power-sum / flattening-SSE queries (Equations 11–12) and inverse-CDF
//!   sampling;
//! * [`Interval`] + [`interval`] — the closed index intervals of the
//!   paper's `[a, b]` notation, with partition helpers;
//! * [`TilingHistogram`] — the `O(k)`-numbers piecewise-constant
//!   representation (Definition 1), with `O(k)` distance evaluation;
//! * [`PriorityHistogram`] — Definition 2's prioritized interval lists,
//!   the exact form Algorithm 1 outputs;
//! * [`distance`] — `ℓ₁` / squared-`ℓ₂` / Hellinger distances;
//! * [`sampler`] — `O(1)` Walker–Vose alias sampling;
//! * [`generators`] — workload families and the Theorem 5 hard-instance
//!   ensemble.

#![forbid(unsafe_code)]
// missing_docs is enforced centrally via [workspace.lints] in the root Cargo.toml.

mod dense;
pub mod distance;
mod error;
pub mod generators;
pub mod interval;
mod priority;
pub mod sampler;
mod tiling;

pub use dense::DenseDistribution;
pub use error::DistError;
pub use interval::Interval;
pub use priority::PriorityHistogram;
pub use tiling::TilingHistogram;
