//! The front door: typed analysis requests, one engine, shared sample
//! plans, structured reports.
//!
//! Before this layer existed, every algorithm was its own free function
//! with its own budget struct and its own draw call — running a learner,
//! an `ℓ₂` tester and a uniformity check against the same data cost three
//! independent sample draws (three full file passes on a
//! [`RecordFileOracle`]). This module unifies the caller-facing surface:
//!
//! ```text
//!   Learn::k(6).eps(0.1)   TestL2::k(6)   Uniformity::eps(0.3)  …
//!            │                  │                  │    (typed requests)
//!            └──────────────────┼──────────────────┘
//!                               ▼
//!                     Session::run(&[…])           (one engine)
//!                               │
//!                        SamplePlan::for_batch     (max over requirements)
//!                               │  one draw_lanes(main, r, m)
//!                               ▼
//!                      trait SampleOracle          (khist-oracle)
//! ```
//!
//! * [`Analysis`] — one typed request per algorithm, built with fluent
//!   builders (`Learn::k(6).eps(0.1).scale(0.01)`). The paper's three
//!   analyses are one request shape: [`Learn`], [`TestL2`] and [`TestL1`]
//!   are aliases of [`HistogramRequest`] (`k`, `ε`, a scale and an
//!   optional budget), told apart by their budget type. Every request
//!   either carries an explicit budget or derives a calibrated one at run
//!   time from [`khist_oracle::budget`], where every budget formula lives.
//! * [`SamplePlan`] — the engine computes one plan across the whole batch:
//!   a main set sized to the *largest* single-set requirement and `r` sets
//!   sized to the largest per-set requirement, drawn **once** and shared.
//!   Each analysis consumes a view (a prefix of the sets, or the main
//!   set); extra samples only reduce estimator variance. Sharing draws
//!   correlates the analyses' randomness — each verdict keeps its own
//!   guarantee, but joint failure probabilities no longer multiply.
//! * [`Session`] — owns a boxed [`SampleOracle`], the seed, and a ledger
//!   of samples spent per analysis.
//! * [`Report`] — one uniform result shape (verdict/histogram, statistic,
//!   samples spent, budget, seed, wall time), serde-serializable so `khist
//!   … --json` can emit it.
//!
//! [`run_analyses`] is the one way to run a sampled analysis:
//! [`Session::run`] calls it, and every [`Monitor`] window runs
//! [`run_analyses_with_plan`] on its frozen lanes. The kernels behind it
//! (`test_l2_from_sets`, …) take pre-drawn sets. [`crate::greedy::learn`]
//! is the learner's raw entry point: it draws a `Learn` request's plan
//! and returns the whole greedy outcome.
//!
//! [`Session`] *pulls*: every run draws fresh samples on demand. Its
//! streaming peer is the push-based [`Monitor`] (re-exported here from
//! [`crate::monitor`]): records are `ingest`ed as they arrive, reservoir
//! windows freeze at span boundaries, and each frozen window answers the
//! same typed [`Analysis`] batch — plus window-to-window drift checks —
//! without a single new draw. For *many* keyed streams at once, the
//! [`Engine`] (re-exported from [`crate::engine`]) hashes stream keys
//! onto a pool of shared-nothing worker shards, each owning the
//! per-stream [`Monitor`]s for its keys — bit-identical per stream to a
//! dedicated `Monitor`, for any shard count.
//!
//! # Example
//!
//! ```
//! use khist_core::api::{Analysis, Learn, Session, TestL2, Uniformity};
//! use khist_dist::generators;
//!
//! let p = generators::zipf(128, 1.1).unwrap();
//! let mut session = Session::from_dense(&p, 7);
//! let reports = session
//!     .run(&[
//!         Learn::k(4).eps(0.2).scale(0.02).into(),
//!         TestL2::k(4).eps(0.3).scale(0.02).into(),
//!         Uniformity::eps(0.3).scale(0.05).into(),
//!     ])
//!     .unwrap();
//! assert_eq!(reports.len(), 3);
//! assert!(reports[0].histogram.is_some());
//! assert!(reports[1].verdict.is_some());
//! // One shared draw served all three analyses:
//! assert_eq!(session.ledger().iter().filter(|e| e.label == "draw").count(), 1);
//! ```

use std::time::Instant;

use khist_dist::{DenseDistribution, DistError, Interval, TilingHistogram};
use khist_oracle::{
    stream_seed, DenseOracle, L1TesterBudget, L2TesterBudget, LearnerBudget, RecordFileOracle,
    SampleOracle, SampleSet,
};
use serde::{Deserialize, Error as SerdeError, Serialize, Value};

pub use crate::engine::{Engine, EngineBuilder};
pub use crate::monitor::{Monitor, MonitorBuilder, WindowReport};
pub use khist_fleet::{FleetReport, FleetSummary, TopStream};

use crate::compress::compress_to_k;
use crate::greedy::{learn_from_samples, GreedyParams};
use crate::identity::{test_closeness_l2_from_sets, test_identity_l2_from_set};
use crate::monotone::{monotonicity_budget, test_monotone_from_set};
use crate::tester::{test_l1_from_sets, test_l2_from_sets, Decision, TestOutcome, TestReport};
use crate::uniformity::{test_uniformity_from_set, UniformityBudget};

/// Which algorithm a request or report refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalysisKind {
    /// Algorithm 1/Theorem 2 greedy learning.
    Learn,
    /// Theorem 4 `ℓ₁` histogram testing.
    TestL1,
    /// Theorem 3 `ℓ₂` histogram testing.
    TestL2,
    /// Collision-based uniformity testing.
    Uniformity,
    /// `ℓ₂` identity testing against a known distribution.
    IdentityL2,
    /// `ℓ₂` closeness testing against a sampled distribution.
    ClosenessL2,
    /// Monotonicity testing via Birgé bucketing + PAV.
    Monotone,
}

impl AnalysisKind {
    /// Every kind, in report order — the source of truth for "what can I
    /// ask for" error messages and exhaustive iteration.
    pub const ALL: [AnalysisKind; 7] = [
        AnalysisKind::Learn,
        AnalysisKind::TestL1,
        AnalysisKind::TestL2,
        AnalysisKind::Uniformity,
        AnalysisKind::IdentityL2,
        AnalysisKind::ClosenessL2,
        AnalysisKind::Monotone,
    ];

    /// Stable lowercase name used in reports and JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            AnalysisKind::Learn => "learn",
            AnalysisKind::TestL1 => "test_l1",
            AnalysisKind::TestL2 => "test_l2",
            AnalysisKind::Uniformity => "uniformity",
            AnalysisKind::IdentityL2 => "identity_l2",
            AnalysisKind::ClosenessL2 => "closeness_l2",
            AnalysisKind::Monotone => "monotone",
        }
    }

    /// Parses the stable name back into a kind. Matching is
    /// case-insensitive and ignores surrounding whitespace (`"Learn"`,
    /// `" TEST_L2 "` and `"learn"` all parse); serialized output always
    /// uses the canonical lowercase [`as_str`](AnalysisKind::as_str) form.
    pub fn parse(name: &str) -> Option<Self> {
        let name = name.trim();
        AnalysisKind::ALL
            .into_iter()
            .find(|kind| kind.as_str().eq_ignore_ascii_case(name))
    }
}

impl std::fmt::Display for AnalysisKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A `(k, ε)` request over tiling `k`-histograms, run on a budget of type
/// `B`: [`Learn`] learns one, [`TestL2`] and [`TestL1`] test whether the
/// distribution is one. The three are aliases of this one type and share
/// its builder.
#[derive(Debug, Clone)]
pub struct HistogramRequest<B> {
    k: usize,
    eps: f64,
    scale: f64,
    budget: Option<B>,
}

/// Request: learn a `k`-piece histogram (Algorithm 1 / Theorem 2). The
/// learner runs [`GreedyParams::fast`]: Theorem 2 sample-endpoint
/// candidates capped at 128 endpoints.
pub type Learn = HistogramRequest<LearnerBudget>;

/// Request: test whether the distribution is a tiling `k`-histogram in
/// `ℓ₂` (Theorem 3).
pub type TestL2 = HistogramRequest<L2TesterBudget>;

/// Request: test whether the distribution is a tiling `k`-histogram in
/// `ℓ₁` (Theorem 4).
pub type TestL1 = HistogramRequest<L1TesterBudget>;

impl<B> HistogramRequest<B> {
    /// Starts a request targeting `k` pieces. Defaults: `ε = 0.1`,
    /// `scale = 1` (the paper's full budget — pass
    /// [`scale`](HistogramRequest::scale) to run at experiment scale).
    pub fn k(k: usize) -> Self {
        HistogramRequest {
            k,
            eps: 0.1,
            scale: 1.0,
            budget: None,
        }
    }

    /// Sets the accuracy parameter `ε ∈ (0, 1)`.
    pub fn eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Scales the derived budget by `scale ∈ (0, 1]` (ignored when an
    /// explicit [`budget`](HistogramRequest::budget) is set).
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Uses an explicit budget instead of deriving one from `(n, k, ε)`
    /// (`(n, ε)` for [`TestL2`]).
    pub fn budget(mut self, budget: B) -> Self {
        self.budget = Some(budget);
        self
    }
}

/// Request: collision-based uniformity test (the `k = 1` base case).
#[derive(Debug, Clone)]
pub struct Uniformity {
    eps: f64,
    scale: f64,
    budget: Option<UniformityBudget>,
}

impl Uniformity {
    /// Starts a uniformity request at accuracy `ε` (`scale = 1` default).
    pub fn eps(eps: f64) -> Self {
        Uniformity {
            eps,
            scale: 1.0,
            budget: None,
        }
    }

    /// Scales the derived budget by `scale ∈ (0, 1]`.
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Uses an explicit budget instead of deriving one from `(n, ε)`.
    pub fn budget(mut self, budget: UniformityBudget) -> Self {
        self.budget = Some(budget);
        self
    }
}

/// Request: `ℓ₂` identity test of the sampled distribution against an
/// explicitly known `q` (`q`'s moments computed exactly).
#[derive(Debug, Clone)]
pub struct IdentityL2 {
    q: DenseDistribution,
    eps: f64,
    scale: f64,
    m: Option<usize>,
}

impl IdentityL2 {
    /// Starts an identity request against the known distribution `q`
    /// (`ε = 0.1`, sample size derived like the uniformity budget unless
    /// [`samples`](IdentityL2::samples) overrides it).
    pub fn against(q: DenseDistribution) -> Self {
        IdentityL2 {
            q,
            eps: 0.1,
            scale: 1.0,
            m: None,
        }
    }

    /// Sets the accuracy parameter `ε ∈ (0, 1)`.
    pub fn eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Scales the derived sample size by `scale ∈ (0, 1]`.
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Uses an explicit sample size.
    pub fn samples(mut self, m: usize) -> Self {
        self.m = Some(m);
        self
    }
}

/// Request: `ℓ₂` closeness test of the sampled distribution against a
/// second explicit distribution `q`, with `q` reached by sampling too
/// (cross-collision statistics on both sides).
///
/// `q`'s samples are drawn from a [`DenseOracle`] seeded deterministically
/// from the session seed — they are *not* part of the shared plan, which
/// only covers the unknown `p`. To compare two arbitrary oracles, draw a
/// set from each and call [`crate::identity::test_closeness_l2_from_sets`].
#[derive(Debug, Clone)]
pub struct ClosenessL2 {
    q: DenseDistribution,
    eps: f64,
    scale: f64,
    m: Option<usize>,
}

impl ClosenessL2 {
    /// Starts a closeness request against `q` (`ε = 0.1`, sample size
    /// derived like the uniformity budget unless
    /// [`samples`](ClosenessL2::samples) overrides it).
    pub fn against(q: DenseDistribution) -> Self {
        ClosenessL2 {
            q,
            eps: 0.1,
            scale: 1.0,
            m: None,
        }
    }

    /// Sets the accuracy parameter `ε ∈ (0, 1)`.
    pub fn eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Scales the derived sample size by `scale ∈ (0, 1]`.
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Uses an explicit per-side sample size.
    pub fn samples(mut self, m: usize) -> Self {
        self.m = Some(m);
        self
    }
}

/// Request: monotonicity (non-increasing) test via Birgé bucketing.
#[derive(Debug, Clone)]
pub struct Monotone {
    eps: f64,
    scale: f64,
    m: Option<usize>,
}

impl Monotone {
    /// Starts a monotonicity request at accuracy `ε` (`scale = 1`,
    /// sample size from [`monotonicity_budget`] unless
    /// [`samples`](Monotone::samples) overrides it).
    pub fn eps(eps: f64) -> Self {
        Monotone {
            eps,
            scale: 1.0,
            m: None,
        }
    }

    /// Scales the derived sample size by `scale ∈ (0, 1]`.
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Uses an explicit sample size.
    pub fn samples(mut self, m: usize) -> Self {
        self.m = Some(m);
        self
    }
}

/// A typed analysis request — the single argument type of
/// [`Session::run`]. Build one via the fluent request builders and
/// `.into()` (every request type converts).
#[derive(Debug, Clone)]
pub enum Analysis {
    /// Learn a `k`-histogram.
    Learn(Learn),
    /// `ℓ₁` histogram test.
    TestL1(TestL1),
    /// `ℓ₂` histogram test.
    TestL2(TestL2),
    /// Uniformity test.
    Uniformity(Uniformity),
    /// Identity test against a known distribution.
    IdentityL2(IdentityL2),
    /// Closeness test against a sampled distribution.
    ClosenessL2(ClosenessL2),
    /// Monotonicity test.
    Monotone(Monotone),
}

impl Analysis {
    /// The request's kind.
    pub fn kind(&self) -> AnalysisKind {
        match self {
            Analysis::Learn(_) => AnalysisKind::Learn,
            Analysis::TestL1(_) => AnalysisKind::TestL1,
            Analysis::TestL2(_) => AnalysisKind::TestL2,
            Analysis::Uniformity(_) => AnalysisKind::Uniformity,
            Analysis::IdentityL2(_) => AnalysisKind::IdentityL2,
            Analysis::ClosenessL2(_) => AnalysisKind::ClosenessL2,
            Analysis::Monotone(_) => AnalysisKind::Monotone,
        }
    }
}

macro_rules! impl_into_analysis {
    ($($req:ident),*) => {$(
        impl From<$req> for Analysis {
            fn from(req: $req) -> Analysis {
                Analysis::$req(req)
            }
        }
    )*};
}

impl_into_analysis!(
    Learn,
    TestL1,
    TestL2,
    Uniformity,
    IdentityL2,
    ClosenessL2,
    Monotone
);

/// The budget an analysis actually ran with — carried in every [`Report`]
/// and serialized with it.
#[derive(Debug, Clone, PartialEq)]
pub enum BudgetSpec {
    /// Learner budget (`ξ`, `ℓ`, `r`, `m`, `q`).
    Learner(LearnerBudget),
    /// `ℓ₂` tester budget (`r`, `m`).
    L2(L2TesterBudget),
    /// `ℓ₁` tester budget (`r`, `m`).
    L1(L1TesterBudget),
    /// A single sample set of `m` draws (uniformity, identity, closeness,
    /// monotonicity).
    Fixed {
        /// Samples requested.
        m: usize,
    },
}

impl BudgetSpec {
    /// The draw this budget needs: `ℓ` main + `r × m` for the learner,
    /// `r × m` for the set testers, one set of `m` otherwise.
    fn plan(&self) -> SamplePlan {
        match self {
            BudgetSpec::Learner(b) => SamplePlan::learner(b),
            BudgetSpec::L2(b) => SamplePlan::sets(b.r, b.m),
            BudgetSpec::L1(b) => SamplePlan::sets(b.r, b.m),
            BudgetSpec::Fixed { m } => SamplePlan::single(*m),
        }
    }
}

impl Serialize for BudgetSpec {
    fn serialize(&self) -> Value {
        match self {
            BudgetSpec::Learner(b) => b.serialize(),
            BudgetSpec::L2(b) => b.serialize(),
            BudgetSpec::L1(b) => b.serialize(),
            BudgetSpec::Fixed { m } => {
                Value::map([("kind", Value::Str("fixed".into())), ("m", m.serialize())])
            }
        }
    }
}

impl Deserialize for BudgetSpec {
    fn deserialize(value: &Value) -> Result<Self, SerdeError> {
        let kind = value
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| SerdeError::new("budget spec missing 'kind'"))?;
        Ok(match kind {
            k if k == LearnerBudget::KIND => {
                BudgetSpec::Learner(LearnerBudget::deserialize(value)?)
            }
            k if k == L2TesterBudget::KIND => BudgetSpec::L2(L2TesterBudget::deserialize(value)?),
            k if k == L1TesterBudget::KIND => BudgetSpec::L1(L1TesterBudget::deserialize(value)?),
            "fixed" => BudgetSpec::Fixed {
                m: usize::deserialize(
                    value
                        .get("m")
                        .ok_or_else(|| SerdeError::new("fixed budget missing 'm'"))?,
                )?,
            },
            other => return Err(SerdeError::new(format!("unknown budget kind '{other}'"))),
        })
    }
}

/// The uniform result of one analysis.
///
/// Optional fields are populated where they make sense: `histogram` for
/// learning (and the isotonic fit for an accepted monotonicity test),
/// `verdict`/`statistic`/`threshold` for the testers, `cuts`/`probes` for
/// the partition-search testers. Serde-serializable; the JSON shape is
/// what `khist learn/test/analyze --json` emit.
///
/// Equality compares the analytical result — everything *except*
/// `wall_seconds`, which varies run to run even for bit-identical draws.
#[derive(Debug, Clone)]
pub struct Report {
    /// Which analysis produced this report.
    pub analysis: AnalysisKind,
    /// Domain size the analysis ran over.
    pub n: usize,
    /// Accept/reject verdict (testers only).
    pub verdict: Option<TestOutcome>,
    /// Learned/fitted histogram (learner; accepted monotonicity tests).
    pub histogram: Option<TilingHistogram>,
    /// Decision statistic (collision estimate, isotonic distance, …).
    pub statistic: Option<f64>,
    /// Decision threshold the statistic was compared against.
    pub threshold: Option<f64>,
    /// Bucket boundaries discovered by partition search (testers).
    pub cuts: Vec<usize>,
    /// Flatness probes issued by partition search (testers).
    pub probes: Option<usize>,
    /// Samples this analysis consumed (its view of the shared draw).
    pub samples_spent: usize,
    /// The budget the analysis ran with.
    pub budget: BudgetSpec,
    /// Session seed (reproducibility: same oracle + seed ⇒ same report).
    pub seed: u64,
    /// Wall-clock seconds spent executing the analysis (excluding the
    /// shared draw, which the session ledger accounts separately).
    pub wall_seconds: f64,
}

impl PartialEq for Report {
    fn eq(&self, other: &Self) -> bool {
        self.analysis == other.analysis
            && self.n == other.n
            && self.verdict == other.verdict
            && self.histogram == other.histogram
            && self.statistic == other.statistic
            && self.threshold == other.threshold
            && self.cuts == other.cuts
            && self.probes == other.probes
            && self.samples_spent == other.samples_spent
            && self.budget == other.budget
            && self.seed == other.seed
    }
}

impl Report {
    /// A report of `analysis` over `[0, n)` with its budget and seed and
    /// no result yet: every report starts here, and the analysis that
    /// produced it fills in its result fields.
    pub(crate) fn new(analysis: AnalysisKind, n: usize, budget: BudgetSpec, seed: u64) -> Report {
        Report {
            analysis,
            n,
            verdict: None,
            histogram: None,
            statistic: None,
            threshold: None,
            cuts: Vec::new(),
            probes: None,
            samples_spent: 0,
            budget,
            seed,
            wall_seconds: 0.0,
        }
    }

    /// Records the verdict of a single-statistic test (uniformity,
    /// identity, closeness, monotonicity, drift): its outcome, the
    /// statistic and threshold it compared, and the samples it read.
    pub(crate) fn decide(&mut self, decision: Decision) {
        self.verdict = Some(decision.outcome);
        self.statistic = Some(decision.statistic);
        self.threshold = Some(decision.threshold);
        self.samples_spent = decision.samples_used;
    }

    /// Records the verdict of a partition-search tester (the `ℓ₂`/`ℓ₁`
    /// histogram tests): its outcome, cuts, probes and samples read.
    fn decide_by_search(&mut self, search: TestReport) {
        self.verdict = Some(search.outcome);
        self.cuts = search.cuts;
        self.probes = Some(search.probes);
        self.samples_spent = search.samples_used;
    }

    /// `true` when the verdict is accept (testers) — `false` for reports
    /// without a verdict.
    pub fn accepted(&self) -> bool {
        matches!(self.verdict, Some(TestOutcome::Accept))
    }

    /// Renders the report as compact JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string(&self.serialize())
            // lint:allow(no-panic): serialize() routes every float through finite_or_null
            .expect("reports serialize finite numbers only (non-finite statistics become null)")
    }

    /// Parses a report back from JSON text.
    pub fn from_json(text: &str) -> Result<Self, SerdeError> {
        Report::deserialize(&serde::json::from_str(text)?)
    }
}

/// The workspace's single wall-clock door (enforced by khist-lint's
/// `wall-clock` rule, which budgets `crates/core` exactly one clock read:
/// this one): runs `f` and returns its result plus elapsed wall seconds.
/// Everything in the crate that reports a time — the batch executor's
/// draw and per-analysis timers, `Monitor`'s drift check — calls this
/// instead of touching `Instant`, so "what observed time" stays
/// answerable by reading one function.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// The JSON writer rejects non-finite floats outright; reports encode a
/// non-finite statistic/threshold (a degenerate estimator, not a bug in
/// the writer) as an explicit `null`, which deserializes back to `None`.
fn finite_or_null(v: Option<f64>) -> Value {
    match v {
        Some(x) if x.is_finite() => Value::F64(x),
        _ => Value::Null,
    }
}

impl Serialize for Report {
    fn serialize(&self) -> Value {
        let histogram = match &self.histogram {
            None => Value::Null,
            Some(h) => Value::Seq(
                h.pieces()
                    .map(|(iv, density)| {
                        Value::map([
                            ("lo", iv.lo().serialize()),
                            ("hi", iv.hi().serialize()),
                            ("density", density.serialize()),
                        ])
                    })
                    .collect(),
            ),
        };
        Value::map([
            ("analysis", Value::Str(self.analysis.as_str().into())),
            ("n", self.n.serialize()),
            (
                "verdict",
                match self.verdict {
                    None => Value::Null,
                    Some(TestOutcome::Accept) => Value::Str("accept".into()),
                    Some(TestOutcome::Reject) => Value::Str("reject".into()),
                },
            ),
            ("histogram", histogram),
            ("statistic", finite_or_null(self.statistic)),
            ("threshold", finite_or_null(self.threshold)),
            ("cuts", self.cuts.serialize()),
            ("probes", self.probes.serialize()),
            ("samples_spent", self.samples_spent.serialize()),
            ("budget", self.budget.serialize()),
            ("seed", self.seed.serialize()),
            ("wall_seconds", self.wall_seconds.serialize()),
        ])
    }
}

impl Deserialize for Report {
    fn deserialize(value: &Value) -> Result<Self, SerdeError> {
        let req = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| SerdeError::new(format!("report missing field '{key}'")))
        };
        let analysis = AnalysisKind::parse(
            req("analysis")?
                .as_str()
                .ok_or_else(|| SerdeError::new("'analysis' must be a string"))?,
        )
        .ok_or_else(|| SerdeError::new("unknown analysis kind"))?;
        let n = usize::deserialize(req("n")?)?;
        let verdict = match req("verdict")? {
            Value::Null => None,
            Value::Str(s) if s == "accept" => Some(TestOutcome::Accept),
            Value::Str(s) if s == "reject" => Some(TestOutcome::Reject),
            other => return Err(SerdeError::new(format!("bad verdict {other:?}"))),
        };
        let histogram = match req("histogram")? {
            Value::Null => None,
            Value::Seq(items) => {
                let pieces = items
                    .iter()
                    .map(|item| {
                        let lo = usize::deserialize(
                            item.get("lo")
                                .ok_or_else(|| SerdeError::new("piece missing 'lo'"))?,
                        )?;
                        let hi = usize::deserialize(
                            item.get("hi")
                                .ok_or_else(|| SerdeError::new("piece missing 'hi'"))?,
                        )?;
                        let density = f64::deserialize(
                            item.get("density")
                                .ok_or_else(|| SerdeError::new("piece missing 'density'"))?,
                        )?;
                        let iv = Interval::new(lo, hi)
                            .map_err(|e| SerdeError::new(format!("bad piece: {e}")))?;
                        Ok((iv, density))
                    })
                    .collect::<Result<Vec<_>, SerdeError>>()?;
                Some(
                    TilingHistogram::from_pieces(&pieces, n)
                        .map_err(|e| SerdeError::new(format!("bad histogram: {e}")))?,
                )
            }
            other => return Err(SerdeError::new(format!("bad histogram {other:?}"))),
        };
        Ok(Report {
            analysis,
            n,
            verdict,
            histogram,
            statistic: Option::deserialize(req("statistic")?)?,
            threshold: Option::deserialize(req("threshold")?)?,
            cuts: Vec::deserialize(req("cuts")?)?,
            probes: Option::deserialize(req("probes")?)?,
            samples_spent: usize::deserialize(req("samples_spent")?)?,
            budget: BudgetSpec::deserialize(req("budget")?)?,
            seed: u64::deserialize(req("seed")?)?,
            wall_seconds: f64::deserialize(req("wall_seconds")?)?,
        })
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: ", self.analysis)?;
        match (&self.verdict, &self.histogram) {
            (Some(v), _) => write!(f, "{v:?}")?,
            (None, Some(h)) => write!(f, "{}-piece histogram", h.piece_count())?,
            (None, None) => write!(f, "done")?,
        }
        if let (Some(s), Some(t)) = (self.statistic, self.threshold) {
            write!(f, " (statistic {s:.4e} vs threshold {t:.4e})")?;
        }
        write!(f, " [{} samples]", self.samples_spent)
    }
}

/// One analysis resolved against a concrete domain: the analysis and the
/// budget it runs with.
struct Resolved {
    analysis: Analysis,
    budget: BudgetSpec,
}

/// Resolves every analysis of a batch against domain size `n`.
fn resolve_all(analyses: &[Analysis], n: usize) -> Result<Vec<Resolved>, DistError> {
    analyses
        .iter()
        .map(|analysis| {
            Ok(Resolved {
                analysis: analysis.clone(),
                budget: resolve(analysis, n)?,
            })
        })
        .collect()
}

/// The budget `analysis` runs with over the domain `[0, n)`: its explicit
/// budget, or the calibrated default.
fn resolve(analysis: &Analysis, n: usize) -> Result<BudgetSpec, DistError> {
    Ok(match analysis {
        Analysis::Learn(req) => BudgetSpec::Learner(match req.budget {
            Some(b) => b,
            None => LearnerBudget::calibrated(n, req.k, req.eps, req.scale)?,
        }),
        Analysis::TestL2(req) => BudgetSpec::L2(match req.budget {
            Some(b) => b,
            None => L2TesterBudget::calibrated(n, req.eps, req.scale)?,
        }),
        Analysis::TestL1(req) => BudgetSpec::L1(match req.budget {
            Some(b) => b,
            None => L1TesterBudget::calibrated(n, req.k, req.eps, req.scale)?,
        }),
        Analysis::Uniformity(req) => BudgetSpec::Fixed {
            m: match req.budget {
                Some(b) => b.m,
                None => UniformityBudget::calibrated(n, req.eps, req.scale)?.m,
            },
        },
        Analysis::IdentityL2(req) => BudgetSpec::Fixed {
            m: match req.m {
                Some(m) => m,
                None => UniformityBudget::calibrated(n, req.eps, req.scale)?.m,
            },
        },
        Analysis::ClosenessL2(req) => BudgetSpec::Fixed {
            m: match req.m {
                Some(m) => m,
                None => UniformityBudget::calibrated(n, req.eps, req.scale)?.m,
            },
        },
        Analysis::Monotone(req) => BudgetSpec::Fixed {
            m: match req.m {
                Some(m) => m,
                None => monotonicity_budget(n, req.eps, req.scale)?,
            },
        },
    })
}

/// The shared draw for a batch of analyses: one main set sized to the
/// largest single-set requirement plus `r` sets sized to the largest
/// per-set requirement, drawn in a single oracle call.
///
/// Every analysis in the batch consumes a *view*: the learner takes the
/// main set and the first `r_learn` sets, the testers a prefix of the
/// sets, the single-set analyses the main set. Reusing one draw is what
/// makes a batch on a [`RecordFileOracle`] cost exactly one file pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplePlan {
    main: usize,
    r: usize,
    m: usize,
}

impl SamplePlan {
    /// The plan of a single learner run: `ℓ` main + `r × m` collision
    /// samples. [`crate::greedy::learn`] draws through this.
    pub fn learner(budget: &LearnerBudget) -> SamplePlan {
        SamplePlan {
            main: budget.ell,
            r: budget.r,
            m: budget.m,
        }
    }

    /// The plan of a pure set-based tester ([`TestL1`], [`TestL2`]): `r`
    /// sets of `m`.
    pub fn sets(r: usize, m: usize) -> SamplePlan {
        SamplePlan { main: 0, r, m }
    }

    /// The plan of a single-set analysis (uniformity, identity,
    /// monotonicity): one set of `m`.
    pub fn single(m: usize) -> SamplePlan {
        SamplePlan {
            main: m,
            r: 0,
            m: 0,
        }
    }

    /// The smallest plan every one of `plans` fits: the maximum of each
    /// dimension.
    fn for_plans(plans: impl IntoIterator<Item = SamplePlan>) -> SamplePlan {
        plans.into_iter().fold(
            SamplePlan {
                main: 0,
                r: 0,
                m: 0,
            },
            |acc, plan| SamplePlan {
                main: acc.main.max(plan.main),
                r: acc.r.max(plan.r),
                m: acc.m.max(plan.m),
            },
        )
    }

    /// Main-set size of the plan.
    pub fn main(&self) -> usize {
        self.main
    }

    /// Number of equal-size sets in the plan.
    pub fn r(&self) -> usize {
        self.r
    }

    /// Per-set size of the plan.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Total samples the plan requests, checked against overflow.
    pub fn total_samples(&self) -> Result<usize, DistError> {
        self.r
            .checked_mul(self.m)
            .and_then(|sets| self.main.checked_add(sets))
            .ok_or_else(|| DistError::BadParameter {
                reason: format!(
                    "sample plan overflow: {} + {}·{} exceeds usize",
                    self.main, self.r, self.m
                ),
            })
    }

    /// Executes the plan: **one** [`SampleOracle::draw_lanes`] call,
    /// split into the main set (when `main > 0`) and the `r` sets. An
    /// empty plan draws nothing.
    ///
    /// Fails when the backend returns the wrong number of lanes.
    #[allow(clippy::type_complexity)] // (Option<main>, Vec<extra>) mirrors the plan's two-part draw
    pub fn draw<O: SampleOracle + ?Sized>(
        &self,
        oracle: &mut O,
    ) -> Result<(Option<SampleSet>, Vec<SampleSet>), DistError> {
        if self.main == 0 && self.r == 0 {
            return Ok((None, Vec::new()));
        }
        let mut lanes = oracle.draw_lanes(self.main, self.r, self.m);
        let want = self.r + usize::from(self.main > 0);
        if lanes.len() != want {
            return Err(DistError::BadParameter {
                reason: format!("oracle returned {} sets for a batch of {want}", lanes.len()),
            });
        }
        let main = (self.main > 0).then(|| lanes.remove(0));
        Ok((main, lanes))
    }
}

/// One line of a session's sample ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// `"draw"` for the shared plan execution, otherwise the analysis name
    /// ([`AnalysisKind::as_str`]).
    pub label: &'static str,
    /// Samples drawn (for `"draw"`) or consumed by the analysis's view.
    pub samples: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
}

impl Serialize for LedgerEntry {
    fn serialize(&self) -> Value {
        Value::map([
            ("label", Value::Str(self.label.into())),
            ("samples", self.samples.serialize()),
            // Elapsed time is finite by construction, but the JSON writer
            // rejects non-finite floats outright — route through the same
            // boundary every other float takes.
            ("seconds", finite_or_null(Some(self.seconds))),
        ])
    }
}

/// A sampling session: one oracle, one seed, any number of analyses.
///
/// [`Session::run`] executes a batch through a shared [`SamplePlan`]; the
/// per-call ledger records the single draw and each analysis's spend.
pub struct Session {
    oracle: Box<dyn SampleOracle>,
    seed: u64,
    ledger: Vec<LedgerEntry>,
}

impl Session {
    /// Wraps an already-constructed oracle. The seed is recorded in every
    /// report for reproducibility — pass the same value the oracle was
    /// seeded with.
    pub fn new(oracle: Box<dyn SampleOracle>, seed: u64) -> Self {
        Session {
            oracle,
            seed,
            ledger: Vec::new(),
        }
    }

    /// Session over an explicit distribution via a seeded [`DenseOracle`].
    pub fn from_dense(p: &DenseDistribution, seed: u64) -> Self {
        Session::new(Box::new(DenseOracle::new(p, seed)), seed)
    }

    /// Session streaming a record file via a seeded [`RecordFileOracle`]
    /// (`n_override = 0` infers the domain from the data).
    pub fn open_records(
        path: impl Into<std::path::PathBuf>,
        n_override: usize,
        seed: u64,
    ) -> Result<Self, DistError> {
        Ok(Session::new(
            Box::new(RecordFileOracle::open(path, n_override, seed)?),
            seed,
        ))
    }

    /// Domain size of the underlying oracle.
    pub fn domain_size(&self) -> usize {
        self.oracle.domain_size()
    }

    /// The recorded seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The cumulative sample ledger across all `run` calls.
    pub fn ledger(&self) -> &[LedgerEntry] {
        &self.ledger
    }

    /// Total samples drawn from the oracle so far (sum of `"draw"` ledger
    /// entries — what the oracle paid, as opposed to what analyses
    /// consumed, which overlaps under sharing).
    pub fn samples_drawn(&self) -> usize {
        self.ledger
            .iter()
            .filter(|e| e.label == "draw")
            .map(|e| e.samples)
            .sum()
    }

    /// Runs a batch of analyses against one shared [`SamplePlan`] — a
    /// single oracle draw serves every analysis in `analyses`. Reports
    /// come back in request order.
    pub fn run(&mut self, analyses: &[Analysis]) -> Result<Vec<Report>, DistError> {
        let (reports, ledger) = run_analyses(&mut *self.oracle, self.seed, analyses)?;
        self.ledger.extend(ledger);
        Ok(reports)
    }

    /// Runs a single analysis (sugar for `run(&[analysis.into()])`).
    pub fn run_one(&mut self, analysis: impl Into<Analysis>) -> Result<Report, DistError> {
        let mut reports = self.run(&[analysis.into()])?;
        reports.pop().ok_or_else(|| DistError::BadParameter {
            reason: "engine returned no report for a one-request batch".into(),
        })
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("domain_size", &self.oracle.domain_size())
            .field("seed", &self.seed)
            .field("ledger_entries", &self.ledger.len())
            .finish()
    }
}

/// Resolves a batch against domain size `n` and returns the shared
/// [`SamplePlan`] it needs — what [`Session::run`] computes before
/// drawing, exposed so callers (the [`Monitor`]'s
/// lane sizing, cost estimators) can answer "how many samples would this
/// batch take?" without running it.
pub fn plan_for(analyses: &[Analysis], n: usize) -> Result<SamplePlan, DistError> {
    let resolved = resolve_all(analyses, n)?;
    Ok(SamplePlan::for_plans(
        resolved.iter().map(|r| r.budget.plan()),
    ))
}

/// The engine behind [`Session::run`], usable with a *borrowed* oracle
/// (the CLI streams through an oracle it also needs for budget clamping,
/// so it cannot hand ownership to a session).
///
/// Returns the reports in request order plus the ledger entries of this
/// run (the `"draw"` entry first).
#[allow(clippy::type_complexity)] // (reports, ledger) is the documented batch contract
pub fn run_analyses<O: SampleOracle + ?Sized>(
    oracle: &mut O,
    seed: u64,
    analyses: &[Analysis],
) -> Result<(Vec<Report>, Vec<LedgerEntry>), DistError> {
    let resolved = resolve_all(analyses, oracle.domain_size())?;
    let plan = SamplePlan::for_plans(resolved.iter().map(|r| r.budget.plan()));
    run_resolved(oracle, seed, resolved, plan)
}

/// Runs a batch against an *explicitly chosen* plan instead of the
/// batch-derived maximum — the [`Monitor`] path,
/// where the reservoir lanes were shaped once at configuration time and
/// every snapshot must issue exactly that draw (so a frozen window's
/// [`ReplayOracle`](khist_oracle::ReplayOracle) serves it verbatim).
///
/// Every analysis must *fit* the plan (its own requirement no larger in
/// any dimension); a batch that needs more than the plan provides is an
/// error naming the offending analysis, not a silent under-sample.
#[allow(clippy::type_complexity)] // (reports, ledger) is the documented batch contract
pub fn run_analyses_with_plan<O: SampleOracle + ?Sized>(
    oracle: &mut O,
    seed: u64,
    analyses: &[Analysis],
    plan: SamplePlan,
) -> Result<(Vec<Report>, Vec<LedgerEntry>), DistError> {
    let resolved = resolve_all(analyses, oracle.domain_size())?;
    for item in &resolved {
        let req = item.budget.plan();
        if req.main > plan.main || req.r > plan.r || req.m > plan.m {
            return Err(DistError::BadParameter {
                reason: format!(
                    "analysis '{}' needs a draw of main {} + {}×{} but the configured plan \
                     provides main {} + {}×{}; include it in the standing batch or shrink \
                     its budget",
                    item.analysis.kind(),
                    req.main,
                    req.r,
                    req.m,
                    plan.main,
                    plan.r,
                    plan.m
                ),
            });
        }
    }
    run_resolved(oracle, seed, resolved, plan)
}

/// Shared executor: one draw of `plan`, then every resolved analysis
/// consumes its view.
#[allow(clippy::type_complexity)] // (reports, ledger) is the documented batch contract
fn run_resolved<O: SampleOracle + ?Sized>(
    oracle: &mut O,
    seed: u64,
    resolved: Vec<Resolved>,
    plan: SamplePlan,
) -> Result<(Vec<Report>, Vec<LedgerEntry>), DistError> {
    let n = oracle.domain_size();
    plan.total_samples()?; // fail fast on absurd combined plans
    let (draw, draw_seconds) = timed(|| plan.draw(oracle));
    let (main, sets) = draw?;
    let drawn = main.as_ref().map_or(0, |s| s.total() as usize)
        + sets.iter().map(|s| s.total() as usize).sum::<usize>();
    let mut ledger = vec![LedgerEntry {
        label: "draw",
        samples: drawn,
        seconds: draw_seconds,
    }];
    let mut reports = Vec::with_capacity(resolved.len());
    for (index, item) in resolved.into_iter().enumerate() {
        let (report, wall_seconds) = timed(|| execute(&item, n, seed, index, main.as_ref(), &sets));
        let mut report = report?;
        report.wall_seconds = wall_seconds;
        ledger.push(LedgerEntry {
            label: report.analysis.as_str(),
            samples: report.samples_spent,
            seconds: report.wall_seconds,
        });
        reports.push(report);
    }
    Ok((reports, ledger))
}

/// Executes one resolved analysis against its view of the shared draw
/// (its caller times it).
fn execute(
    item: &Resolved,
    n: usize,
    seed: u64,
    index: usize,
    main: Option<&SampleSet>,
    sets: &[SampleSet],
) -> Result<Report, DistError> {
    let main_view = || {
        main.ok_or_else(|| DistError::BadParameter {
            reason: "shared plan has no main set (engine bug)".into(),
        })
    };
    // lint:allow(checked-indexing): the plan drew budget.plan().r sets for this analysis
    let view = &sets[..item.budget.plan().r];
    let mut report = Report::new(item.analysis.kind(), n, item.budget.clone(), seed);
    match &item.analysis {
        Analysis::Learn(req) => {
            let BudgetSpec::Learner(budget) = item.budget else {
                // lint:allow(no-panic): resolve() pairs Learn with a learner budget one match arm up
                unreachable!("learn resolves to a learner budget");
            };
            let params = GreedyParams::fast(req.k, req.eps, budget);
            let outcome = learn_from_samples(n, main_view()?, view, &params)?;
            let summary = compress_to_k(&outcome.tiling, req.k)?;
            report.histogram = Some(summary.normalized()?);
            report.samples_spent = outcome.stats.samples_used;
        }
        Analysis::TestL2(req) => {
            report.decide_by_search(test_l2_from_sets(n, req.k, req.eps, view)?)
        }
        Analysis::TestL1(req) => {
            report.decide_by_search(test_l1_from_sets(n, req.k, req.eps, view)?)
        }
        Analysis::Uniformity(req) => {
            report.decide(test_uniformity_from_set(n, req.eps, main_view()?)?)
        }
        Analysis::IdentityL2(req) => {
            report.decide(test_identity_l2_from_set(main_view()?, &req.q, n, req.eps)?)
        }
        Analysis::ClosenessL2(req) => {
            let set_p = main_view()?;
            if req.q.n() != n {
                return Err(DistError::BadParameter {
                    reason: format!("closeness domain mismatch: {n} vs {}", req.q.n()),
                });
            }
            // q's draw is outside the shared plan (different distribution);
            // its seed is split deterministically from the session seed and
            // the request's position so batches stay reproducible. Derived
            // via stream_seed — the one sanctioned SplitMix64 door — so
            // this split shares its provenance rule with every other seed
            // in the workspace (khist-lint's seed-discipline rule).
            let q_seed = stream_seed(seed, index as u64);
            let mut q_oracle = DenseOracle::new(&req.q, q_seed);
            let set_q = q_oracle.draw_set(set_p.total() as usize);
            report.decide(test_closeness_l2_from_sets(set_p, &set_q, n, req.eps)?);
        }
        Analysis::Monotone(req) => {
            let mr = test_monotone_from_set(n, req.eps, main_view()?)?;
            report.decide(Decision {
                outcome: mr.outcome,
                statistic: mr.isotonic_distance,
                threshold: mr.threshold,
                samples_used: mr.samples_used,
            });
            report.histogram = mr.fit;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use khist_dist::generators;

    #[test]
    fn builders_convert_into_analysis() {
        let q = DenseDistribution::uniform(8).unwrap();
        let all: Vec<Analysis> = vec![
            Learn::k(3).eps(0.2).scale(0.1).into(),
            TestL1::k(3).eps(0.4).scale(0.01).into(),
            TestL2::k(3).eps(0.3).scale(0.05).into(),
            Uniformity::eps(0.3).scale(0.1).into(),
            IdentityL2::against(q.clone()).eps(0.2).samples(500).into(),
            ClosenessL2::against(q).eps(0.2).samples(500).into(),
            Monotone::eps(0.3).samples(1000).into(),
        ];
        let kinds: Vec<&str> = all.iter().map(|a| a.kind().as_str()).collect();
        assert_eq!(
            kinds,
            [
                "learn",
                "test_l1",
                "test_l2",
                "uniformity",
                "identity_l2",
                "closeness_l2",
                "monotone"
            ]
        );
        for kind in kinds {
            assert_eq!(AnalysisKind::parse(kind).unwrap().as_str(), kind);
        }
        assert!(AnalysisKind::parse("bogus").is_none());
    }

    #[test]
    fn analysis_kind_parse_is_case_insensitive() {
        for kind in AnalysisKind::ALL {
            let upper = kind.as_str().to_uppercase();
            assert_eq!(AnalysisKind::parse(&upper), Some(kind), "{upper}");
            let padded = format!("  {}  ", kind.as_str());
            assert_eq!(AnalysisKind::parse(&padded), Some(kind), "{padded:?}");
        }
        assert_eq!(AnalysisKind::parse("Learn"), Some(AnalysisKind::Learn));
        assert_eq!(AnalysisKind::parse("TEST_L2"), Some(AnalysisKind::TestL2));
        assert!(
            AnalysisKind::parse("l2").is_none(),
            "CLI aliases stay CLI-side"
        );
    }

    #[test]
    fn plan_maximizes_over_requirements() {
        let plan = SamplePlan::for_plans([
            SamplePlan {
                main: 100,
                r: 5,
                m: 30,
            },
            SamplePlan::sets(9, 20),
            SamplePlan::single(250),
        ]);
        assert_eq!(
            plan,
            SamplePlan {
                main: 250,
                r: 9,
                m: 30
            }
        );
        assert_eq!(plan.total_samples().unwrap(), 250 + 9 * 30);
    }

    #[test]
    fn plan_overflow_is_reported() {
        let plan = SamplePlan::sets(usize::MAX / 2, 3);
        assert!(plan.total_samples().is_err());
    }

    #[test]
    fn session_runs_batch_with_one_draw() {
        let p = generators::zipf(64, 1.0).unwrap();
        let mut session = Session::from_dense(&p, 3);
        let reports = session
            .run(&[
                Learn::k(3).eps(0.2).scale(0.02).into(),
                TestL2::k(3).eps(0.3).scale(0.02).into(),
                Uniformity::eps(0.3).scale(0.1).into(),
            ])
            .unwrap();
        assert_eq!(reports.len(), 3);
        assert!(reports[0].histogram.is_some() && reports[0].verdict.is_none());
        assert!(reports[1].verdict.is_some());
        assert!(reports[2].statistic.is_some());
        // ledger: one draw + three analyses
        assert_eq!(session.ledger().len(), 4);
        assert_eq!(session.ledger()[0].label, "draw");
        assert!(session.samples_drawn() > 0);
        // every analysis's spend is at most what was drawn
        for entry in &session.ledger()[1..] {
            assert!(entry.samples <= session.samples_drawn(), "{entry:?}");
        }
    }

    #[test]
    fn session_is_seed_reproducible() {
        let p = generators::two_level(64, 0.3, 0.8).unwrap();
        let batch: Vec<Analysis> = vec![
            Learn::k(2).eps(0.2).scale(0.02).into(),
            Uniformity::eps(0.3).scale(0.1).into(),
        ];
        let run = |seed: u64| {
            let mut s = Session::from_dense(&p, seed);
            s.run(&batch).unwrap()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn run_one_matches_single_batch() {
        let p = generators::zipf(64, 1.0).unwrap();
        let mut a = Session::from_dense(&p, 5);
        let mut b = Session::from_dense(&p, 5);
        let one = a.run_one(TestL2::k(2).eps(0.3).scale(0.02)).unwrap();
        let batch = b.run(&[TestL2::k(2).eps(0.3).scale(0.02).into()]).unwrap();
        assert_eq!(one, batch[0]);
    }

    #[test]
    fn identity_and_closeness_run_against_known_q() {
        let p = generators::discrete_gaussian(64, 30.0, 10.0).unwrap();
        let mut session = Session::from_dense(&p, 9);
        let reports = session
            .run(&[
                IdentityL2::against(p.clone()).eps(0.3).samples(4000).into(),
                ClosenessL2::against(p.clone())
                    .eps(0.3)
                    .samples(4000)
                    .into(),
            ])
            .unwrap();
        // testing p against itself: both must accept (clear-cut instance)
        assert!(reports[0].accepted(), "{}", reports[0]);
        assert!(reports[1].accepted(), "{}", reports[1]);
    }

    #[test]
    fn closeness_rejects_domain_mismatch() {
        let p = DenseDistribution::uniform(64).unwrap();
        let q = DenseDistribution::uniform(32).unwrap();
        let mut session = Session::from_dense(&p, 1);
        assert!(session
            .run(&[ClosenessL2::against(q.clone()).samples(100).into()])
            .is_err());
        assert!(session
            .run(&[IdentityL2::against(q).samples(100).into()])
            .is_err());
    }

    #[test]
    fn monotone_accept_carries_fit() {
        let p = generators::geometric(128, 0.97).unwrap();
        let mut session = Session::from_dense(&p, 2);
        let report = session.run_one(Monotone::eps(0.3).samples(20_000)).unwrap();
        assert!(report.accepted());
        let fit = report.histogram.as_ref().expect("accepted fit present");
        let v = fit.to_vec();
        for pair in v.windows(2) {
            assert!(pair[0] >= pair[1] - 1e-12);
        }
    }

    #[test]
    fn bad_requests_surface_errors() {
        let p = DenseDistribution::uniform(16).unwrap();
        let mut session = Session::from_dense(&p, 1);
        assert!(session.run(&[Learn::k(0).scale(0.1).into()]).is_err());
        assert!(session.run(&[TestL2::k(2).eps(1.5).into()]).is_err());
        // microscopic ε overflows the derived budget → error, not wrap
        assert!(session.run(&[TestL2::k(2).eps(1e-100).into()]).is_err());
    }

    #[test]
    fn report_display_is_informative() {
        let p = generators::zipf(64, 1.0).unwrap();
        let mut session = Session::from_dense(&p, 4);
        let rep = session.run_one(Uniformity::eps(0.3).scale(0.1)).unwrap();
        let text = rep.to_string();
        assert!(
            text.contains("uniformity") && text.contains("samples"),
            "{text}"
        );
    }

    #[test]
    fn report_json_round_trips() {
        let p = generators::zipf(64, 1.0).unwrap();
        let mut session = Session::from_dense(&p, 8);
        let reports = session
            .run(&[
                Learn::k(3).eps(0.2).scale(0.02).into(),
                TestL2::k(3).eps(0.3).scale(0.02).into(),
                Uniformity::eps(0.3).scale(0.1).into(),
                Monotone::eps(0.3).samples(5000).into(),
            ])
            .unwrap();
        for report in reports {
            let json = report.to_json();
            let back = Report::from_json(&json).unwrap_or_else(|e| {
                panic!("round trip failed for {json}: {e}");
            });
            assert_eq!(back, report, "json: {json}");
        }
    }

    #[test]
    fn report_json_rejects_malformed() {
        assert!(Report::from_json("{}").is_err());
        assert!(Report::from_json("not json").is_err());
        let p = DenseDistribution::uniform(32).unwrap();
        let mut session = Session::from_dense(&p, 1);
        let rep = session.run_one(Uniformity::eps(0.3).scale(0.1)).unwrap();
        let tampered = rep.to_json().replace("\"uniformity\"", "\"bogus\"");
        assert!(Report::from_json(&tampered).is_err());
    }

    #[test]
    fn budget_spec_serde_round_trips() {
        let specs = [
            BudgetSpec::Learner(LearnerBudget::calibrated(128, 3, 0.2, 0.1).unwrap()),
            BudgetSpec::L2(L2TesterBudget::calibrated(128, 0.3, 0.1).unwrap()),
            BudgetSpec::L1(L1TesterBudget::calibrated(128, 3, 0.3, 0.01).unwrap()),
            BudgetSpec::Fixed { m: 512 },
        ];
        for spec in specs {
            let text = serde::json::to_string(&spec.serialize()).unwrap();
            let back = BudgetSpec::deserialize(&serde::json::from_str(&text).unwrap()).unwrap();
            assert_eq!(back, spec, "text: {text}");
        }
    }
}
