//! The PODS 2012 algorithms: sub-linear learning and testing of k-histogram
//! distributions.
//!
//! This crate implements the paper's contributions on top of the substrates
//! in `khist-dist` (distributions, histograms) and `khist-oracle` (sample
//! sets, collision estimators):
//!
//! * [`greedy`] — **Algorithm 1** (Theorem 1): the greedy priority-histogram
//!   learner that repeatedly inserts the interval minimizing the estimated
//!   `ℓ₂²` cost, and its **Theorem 2** acceleration that enumerates only
//!   intervals whose endpoints are samples (±1) instead of all `O(n²)`;
//! * [`cost`] / [`tiling_state`] — the estimated-cost machinery behind the
//!   greedy: `c_J = Σ_{I ∈ H_{J,y_J}} (z_I − y_I²/|I|)` maintained
//!   incrementally over the induced tiling;
//! * [`flatness`] — **Algorithm 3** (`testFlatness-ℓ₂`) and **Algorithm 4**
//!   (`testFlatness-ℓ₁`), the collision-based interval flatness tests;
//! * [`mod@partition_search`] — **Algorithm 2**: the binary-search partitioner
//!   that tries to cover `[n]` with `k` flat intervals;
//! * [`tester`] — the assembled testers of **Theorem 3** (`ℓ₂`) and
//!   **Theorem 4** (`ℓ₁`);
//! * [`lower_bound`] — the **Theorem 5** distinguishing harness over the
//!   YES/NO ensemble from `khist_dist::generators::lower_bound`.
//!
//! Every algorithm entry point is generic over
//! [`khist_oracle::SampleOracle`] — the sample-access model of §2 made into
//! a seam. The [`api`] module is the front door above them all: typed
//! [`api::Analysis`] requests run through one [`api::Session`] engine that
//! computes a shared [`api::SamplePlan`] per batch and returns uniform,
//! serde-serializable [`api::Report`]s. The per-algorithm free functions
//! remain as thin shims over the same plan layer.
//!
//! # Example: learn a histogram from samples
//!
//! ```
//! use khist_core::api::{Learn, Session};
//! use khist_dist::generators;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let (_, p) = generators::random_tiling_histogram_distinct(64, 3, &mut rng).unwrap();
//! // Any SampleOracle backend works here; Session::from_dense simulates
//! // sample access to the explicit pmf.
//! let mut session = Session::from_dense(&p, 1);
//! let report = session.run_one(Learn::k(3).eps(0.1).scale(0.02)).unwrap();
//! let learned = report.histogram.as_ref().unwrap();
//! assert!(learned.l2_sq_to(&p) < 0.05);
//! ```

#![forbid(unsafe_code)]
// missing_docs is enforced centrally via [workspace.lints] in the root Cargo.toml.

pub mod api;
pub mod compress;
pub mod cost;
pub mod engine;
pub mod flatness;
pub mod greedy;
pub mod identity;
pub mod lower_bound;
pub mod monitor;
pub mod monotone;
pub mod partition_search;
pub mod tester;
pub mod tiling_state;
pub mod uniformity;

pub use api::{
    plan_for, run_analyses, run_analyses_with_plan, Analysis, AnalysisKind, BudgetSpec,
    ClosenessL2, Engine, EngineBuilder, IdentityL2, Learn, LedgerEntry, Monitor, MonitorBuilder,
    Monotone, Report, SamplePlan, Session, TestL1, TestL2, Uniformity, WindowReport,
};
pub use compress::compress_to_k;
pub use cost::{CostOracle, ExactCostOracle, SampleCostOracle};
pub use flatness::{FlatnessTest, L1Flatness, L2Flatness};
pub use greedy::{
    greedy_with_oracle, learn, learn_from_samples, CandidatePolicy, GreedyOutcome, GreedyParams,
};
pub use identity::{
    test_closeness_l2, test_closeness_l2_from_sets, test_identity_l2, test_identity_l2_from_set,
    ClosenessReport,
};
pub use monotone::{
    birge_partition, pav_non_increasing, test_monotone_non_increasing, MonotonicityReport,
};
pub use partition_search::{partition_search, PartitionOutcome};
pub use tester::{test_l1, test_l2, TestOutcome, TestReport};
pub use tiling_state::TilingState;
pub use uniformity::{test_uniformity, UniformityBudget, UniformityReport};
