//! The push-based front door: a long-lived [`Monitor`], the pure
//! per-stream state machine over a live record stream.
//!
//! [`Session`](crate::api::Session) is pull-based and one-shot: every
//! answer draws fresh samples through a
//! [`SampleOracle`](khist_oracle::SampleOracle). A process that *receives*
//! events — a socket, a log tail, a metrics pipe — needs the dual: push
//! records in as they arrive, get reports out at window boundaries.
//!
//! ```text
//!   ingest(&[records]) ──▶ WindowedSink (plan-shaped reservoir lanes)
//!                              │ window closes every `span` records
//!                              ▼
//!                        WindowSnapshot ──ReplayOracle──▶ standing batch
//!                              │                          (zero new draws)
//!                              ├──▶ Vec<Report>  (learn / test / …)
//!                              └──▶ drift Report (ℓ₂ closeness vs the
//!                                   newest disjoint earlier window)
//! ```
//!
//! A [`Monitor`] is I/O-free: windowing, frozen-lane bookkeeping, drift
//! baselines, and the deterministic window→report computation. It owns no
//! channels, no files, no clocks beyond the per-report wall timers (which
//! [`Report`] equality ignores) — a monitor is a pure function of the
//! records pushed into it and its seed, which is what makes it safe to
//! farm out to worker threads. Callers use one directly for a single
//! stream; the keyed multi-stream [`Engine`](crate::engine::Engine) owns
//! one `Monitor` per stream across a pool of shards.
//!
//! The monitor is configured once with a *standing batch* of
//! [`Analysis`] requests; their shared [`SamplePlan`] shapes the sink's
//! reservoir lanes, so every completed window already holds exactly the
//! draw the batch needs. Freezing a window into a
//! [`ReplayOracle`] and running the engine
//! over it therefore performs **zero oracle draws beyond the frozen
//! window** — the replay would panic if the engine asked for more, and each
//! window grows the ledger's `"draw"` total by exactly its kept samples.
//! The ledger keeps one lifetime total per label, so a monitor's memory is
//! bounded by its sample plan however many windows it reports.
//!
//! Determinism: a tumbling window `w` freezes lanes bit-identical to
//! writing the same records to a file and running
//! [`Session::open_records`](crate::api::Session::open_records) with seed
//! [`window_seed`]`(seed, w)` (window 0: the seed itself) — push and pull
//! are two transports for one sampling process. Property-tested in
//! `tests/monitor_push_pull.rs`.
//!
//! Drift checks follow Diakonikolas–Kane–Nikishkin-style closeness
//! testing between two sample windows: both sides are *samples*, so the
//! cross-collision `ℓ₂` statistic
//! ([`test_closeness_l2_from_sets`], at ε = 0.25)
//! applies directly, with no model of either window. That statistic reads
//! only per-value counts (self- and cross-collisions), so a monitor keeps
//! each baseline window as its distinct values and their counts — 12 bytes
//! per distinct value — and rebuilds the [`SampleSet`] when a drift check
//! reads it.
//!
//! # Example
//!
//! ```
//! use khist_core::api::{Learn, Monitor, TestL2, Uniformity};
//! use khist_dist::generators;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let p = generators::staircase(64, 4).unwrap();
//! let mut source = StdRng::seed_from_u64(99);
//! let mut monitor = Monitor::builder(64)
//!     .seed(7)
//!     .tumbling(2_000)
//!     .analyses([
//!         Learn::k(4).eps(0.25).scale(0.05).into(),
//!         TestL2::k(4).eps(0.3).scale(0.05).into(),
//!         Uniformity::eps(0.3).scale(0.2).into(),
//!     ])
//!     .build()
//!     .unwrap();
//!
//! // Feed two windows' worth of events, as they "arrive".
//! let events = p.sample_many(4_000, &mut source);
//! let windows = monitor.ingest(&events).unwrap();
//! assert_eq!(windows.len(), 2);
//! assert_eq!(windows[0].reports.len(), 3);
//! assert!(windows[0].drift.is_none(), "first window has no predecessor");
//! assert!(windows[1].drift.is_some(), "second window is compared to the first");
//! ```

use std::sync::Arc;

use khist_dist::DistError;
use khist_oracle::{
    ReplayOracle, SampleSet, SampleSink, SinkShape, Window, WindowSnapshot, WindowedSink,
};
use serde::{Deserialize, Error as SerdeError, Serialize, Value};

use crate::api::{
    plan_for, run_analyses_with_plan, Analysis, AnalysisKind, BudgetSpec, LedgerEntry, Report,
    SamplePlan,
};
use crate::identity::test_closeness_l2_from_sets;

pub use khist_oracle::window_seed;

/// Everything one completed (or flushed) window produced: identification,
/// coverage counters, the standing batch's reports, and the drift check
/// against the previous window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReport {
    /// The stream this window belongs to: `None` for a plain single-stream
    /// [`Monitor`], the stream key for reports emitted by the keyed
    /// multi-stream [`Engine`](crate::engine::Engine) (or a monitor tagged
    /// via [`MonitorBuilder::stream`]).
    pub stream: Option<String>,
    /// Window id (0-based, per stream).
    pub window: u64,
    /// Global index of the window's first record (inclusive).
    pub start: u64,
    /// Global index one past the window's last record.
    pub end: u64,
    /// Records the window observed.
    pub seen: u64,
    /// Samples retained in the window's reservoir lanes.
    pub kept: u64,
    /// `false` for end-of-stream flushes of a partial window.
    pub complete: bool,
    /// The standing batch's reports, in request order.
    pub reports: Vec<Report>,
    /// `ℓ₂` closeness of this window's sample against the newest
    /// *disjoint* completed window's (`None` until one exists — for
    /// tumbling windows that is simply the previous window; sliding
    /// windows skip their overlapping predecessors, whose shared retained
    /// records would bias the collision statistic toward accept).
    pub drift: Option<Report>,
    /// Why the window carries only its counts: its analysis failed on the
    /// window's sample (a tester lane the sub-linear sample left empty, a
    /// tail too thin to analyze). `None` for every analyzed window.
    pub error: Option<String>,
}

impl WindowReport {
    /// `true` when every tester in the window accepted **and** the drift
    /// check (when present) accepted — the "nothing to page about" check.
    pub fn all_quiet(&self) -> bool {
        self.reports
            .iter()
            .chain(self.drift.iter())
            .all(|r| r.verdict.is_none() || r.accepted())
    }

    /// Renders the report as compact JSON (one line — `khist watch --json`
    /// emits one such line per window).
    pub fn to_json(&self) -> String {
        serde::json::to_string(&self.serialize())
            // lint:allow(no-panic): serialize() routes every float through finite_or_null
            .expect("window reports serialize finite numbers only")
    }

    /// Parses a window report back from JSON text.
    pub fn from_json(text: &str) -> Result<Self, SerdeError> {
        WindowReport::deserialize(&serde::json::from_str(text)?)
    }
}

impl Serialize for WindowReport {
    /// `error` comes last and only when set, so an analyzed window's bytes
    /// do not mention it.
    fn serialize(&self) -> Value {
        let mut value = Value::map([
            (
                "stream",
                match &self.stream {
                    None => Value::Null,
                    Some(s) => Value::Str(s.clone()),
                },
            ),
            ("window", self.window.serialize()),
            ("start", self.start.serialize()),
            ("end", self.end.serialize()),
            ("seen", self.seen.serialize()),
            ("kept", self.kept.serialize()),
            ("complete", self.complete.serialize()),
            (
                "reports",
                Value::Seq(self.reports.iter().map(Serialize::serialize).collect()),
            ),
            ("drift", self.drift.serialize()),
        ]);
        if let (Value::Map(fields), Some(error)) = (&mut value, &self.error) {
            fields.push(("error".into(), Value::Str(error.clone())));
        }
        value
    }
}

impl Deserialize for WindowReport {
    fn deserialize(value: &Value) -> Result<Self, SerdeError> {
        let req = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| SerdeError::new(format!("window report missing field '{key}'")))
        };
        // `stream` is optional for backward compatibility with pre-engine
        // JSONL captures, which had no stream tag.
        let stream = match value.get("stream") {
            None | Some(Value::Null) => None,
            Some(Value::Str(s)) => Some(s.clone()),
            Some(other) => {
                return Err(SerdeError::new(format!("bad stream tag {other:?}")));
            }
        };
        Ok(WindowReport {
            stream,
            window: u64::deserialize(req("window")?)?,
            start: u64::deserialize(req("start")?)?,
            end: u64::deserialize(req("end")?)?,
            seen: u64::deserialize(req("seen")?)?,
            kept: u64::deserialize(req("kept")?)?,
            complete: bool::deserialize(req("complete")?)?,
            reports: Vec::deserialize(req("reports")?)?,
            drift: Option::deserialize(req("drift")?)?,
            error: Option::deserialize(value.get("error").unwrap_or(&Value::Null))?,
        })
    }
}

impl std::fmt::Display for WindowReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(stream) = &self.stream {
            write!(f, "[{stream}] ")?;
        }
        write!(
            f,
            "window {} [{}, {}){}: {} seen, {} kept",
            self.window,
            self.start,
            self.end,
            if self.complete { "" } else { " partial" },
            self.seen,
            self.kept
        )?;
        for report in &self.reports {
            write!(f, "\n  {report}")?;
        }
        if let Some(drift) = &self.drift {
            write!(f, "\n  drift vs baseline window: {drift}")?;
        }
        if let Some(error) = &self.error {
            write!(f, "\n  error: {error}")?;
        }
        Ok(())
    }
}

/// Configures one stream's sampling and windows, and what they are built
/// into: `T` is a [`Monitor`]'s stream label ([`MonitorBuilder`], from
/// [`Monitor::builder`]) or an [`Engine`](crate::engine::Engine)'s shard
/// count ([`EngineBuilder`](crate::engine::EngineBuilder), from
/// [`Engine::builder`](crate::engine::Engine::builder)). An engine stream
/// is a monitor, so both are configured by the same methods.
#[derive(Debug, Clone)]
pub struct StreamBuilder<T> {
    n: usize,
    seed: u64,
    window: Window,
    analyses: Vec<Analysis>,
    /// The monitor's stream label or the engine's shard count.
    pub(crate) target: T,
}

/// Configures a [`Monitor`]; obtained from [`Monitor::builder`].
pub type MonitorBuilder = StreamBuilder<Option<String>>;

impl<T> StreamBuilder<T> {
    /// The defaults over the domain `[0, n)`: seed 0, tumbling windows of
    /// 100 000 records, an empty standing batch.
    pub(crate) fn new(n: usize, target: T) -> Self {
        StreamBuilder {
            n,
            seed: 0,
            window: Window::Tumbling { span: 100_000 },
            analyses: Vec::new(),
            target,
        }
    }

    /// Seeds the sampling (default 0). A monitor samples with `seed`; an
    /// engine's stream `key` samples with
    /// [`Engine::stream_seed`](crate::engine::Engine::stream_seed)`(seed,
    /// key)`, so the base seed plus the key fully determine a stream's
    /// randomness. Same seed + same stream ⇒ bit-identical window and
    /// drift reports.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Uses tumbling (disjoint, back-to-back) windows of `span` records —
    /// the default, with a span of 100 000.
    pub fn tumbling(mut self, span: u64) -> Self {
        self.window = Window::Tumbling { span };
        self
    }

    /// Uses sliding windows covering `span` records, completing every
    /// `step` records (`step` must divide `span`).
    pub fn sliding(mut self, span: u64, step: u64) -> Self {
        self.window = Window::Sliding { span, step };
        self
    }

    /// Sets the window policy explicitly.
    pub fn window(mut self, window: Window) -> Self {
        self.window = window;
        self
    }

    /// Sets the standing batch run on every completed window. The batch's
    /// shared [`SamplePlan`] also shapes the reservoir lanes, so it must
    /// be non-empty.
    pub fn analyses(mut self, batch: impl IntoIterator<Item = Analysis>) -> Self {
        self.analyses = batch.into_iter().collect();
        self
    }

    /// Appends one request to the standing batch.
    pub fn analysis(mut self, request: impl Into<Analysis>) -> Self {
        self.analyses.push(request.into());
        self
    }

    /// Validates the configuration once into the spec its streams share,
    /// returned with the seed and the target.
    pub(crate) fn spec(self) -> Result<(Arc<StreamSpec>, u64, T), DistError> {
        let spec = StreamSpec::new(self.n, self.window, self.analyses)?;
        Ok((spec, self.seed, self.target))
    }
}

impl MonitorBuilder {
    /// Tags every emitted [`WindowReport`] with a stream label. The keyed
    /// [`Engine`](crate::engine::Engine) tags its per-stream reports with
    /// the stream key; setting the same label here makes a dedicated
    /// single-stream monitor's reports bit-identical to the engine's —
    /// which is exactly how the sharding-is-semantics-free property is
    /// tested.
    pub fn stream(mut self, label: impl Into<String>) -> Self {
        self.target = Some(label.into());
        self
    }

    /// Builds the monitor: resolves the standing batch into a plan and
    /// shapes the window sink's lanes from it.
    pub fn build(self) -> Result<Monitor, DistError> {
        let (spec, seed, stream) = self.spec()?;
        Ok(Monitor::new(&spec, seed, stream))
    }
}

/// Accuracy parameter of every window-to-window `ℓ₂` drift check.
const DRIFT_EPS: f64 = 0.25;

/// What every stream of one configuration shares, validated once: the
/// window sink's shape, the standing batch and the batch's shared plan.
/// [`StreamBuilder::spec`] builds one: a [`MonitorBuilder`] for its
/// monitor, an [`EngineBuilder`](crate::engine::EngineBuilder) to share,
/// by `Arc`, with the monitor of every stream key — so the two front
/// doors agree on what counts as a valid configuration, and a stream's
/// debut re-validates nothing.
pub(crate) struct StreamSpec {
    pub(crate) shape: SinkShape,
    pub(crate) analyses: Vec<Analysis>,
    pub(crate) plan: SamplePlan,
}

impl StreamSpec {
    /// Validates a standing batch over the domain `[0, n)` under `window`
    /// and resolves its plan and lane shape.
    pub(crate) fn new(
        n: usize,
        window: Window,
        analyses: Vec<Analysis>,
    ) -> Result<Arc<StreamSpec>, DistError> {
        if analyses.is_empty() {
            return Err(DistError::BadParameter {
                reason: "a standing batch needs at least one analysis — its sample plan sizes \
                         the window's reservoir lanes"
                    .into(),
            });
        }
        let plan = plan_for(&analyses, n)?;
        plan.total_samples()?;
        let shape = SinkShape::new(n, window, plan.main(), plan.r(), plan.m())?;
        Ok(Arc::new(StreamSpec {
            shape,
            analyses,
            plan,
        }))
    }
}

/// A completed window's merged sample as the drift check reads it: its
/// distinct values (below the sink's 2³² domain bound, so four bytes
/// each) and their counts, in exact-size storage. A count is bounded only
/// by the window's kept samples, so it keeps all 64 bits.
struct Baseline {
    /// One past the window's last record.
    end: u64,
    values: Box<[u32]>,
    counts: Box<[u64]>,
}

/// A long-lived, push-based analysis pipeline over a record stream — the
/// streaming peer of [`Session`](crate::api::Session). See the [module
/// docs](self) for the data flow and determinism contract.
///
/// A `Monitor` talks to nothing but its own memory — no files, sockets or
/// channels — so a pool of them can be processed on worker threads with no
/// coordination beyond ownership (the [`Engine`](crate::engine::Engine)
/// does exactly that, one monitor per stream key). What reporting spends
/// is kept as per-label totals in [`ledger`](Monitor::ledger), so a
/// monitor's memory stays bounded however long its stream runs.
pub struct Monitor {
    spec: Arc<StreamSpec>,
    stream: Option<String>,
    sink: WindowedSink,
    /// The last [`Window::panes`] completed windows' merged samples,
    /// oldest first — drift baselines, each kept as its counts
    /// ([`Baseline`]: at most 12 bytes per distinct value), in a queue
    /// sized to that count on the first completed window. The closeness
    /// statistic assumes the two samples are independent, so a window is
    /// only ever compared against the newest *disjoint* baseline
    /// (`baseline.end ≤ window.start`), which is the oldest one kept once
    /// windows have advanced a full span: sliding windows overlap their
    /// immediate predecessors and literally share retained records with
    /// them, which would inflate cross-collisions and bias the check
    /// toward accept. A tumbling window has one pane, so this reduces to
    /// comparing consecutive windows.
    baselines: std::collections::VecDeque<Baseline>,
    /// Per-label spend totals (see [`ledger`](Monitor::ledger)).
    ledger: Vec<LedgerEntry>,
    emitted: u64,
}

impl Monitor {
    /// Starts configuring a monitor over the domain `[0, n)`. The domain
    /// must be declared up front — a push stream cannot be pre-scanned the
    /// way [`Session::open_records`](crate::api::Session::open_records)
    /// scans a file.
    pub fn builder(n: usize) -> MonitorBuilder {
        StreamBuilder::new(n, None)
    }

    /// A fresh monitor of a validated spec — cheap, so the
    /// [`Engine`](crate::engine::Engine) calls it at each stream key's
    /// debut; [`MonitorBuilder::build`] is the validating public entry.
    pub(crate) fn new(spec: &Arc<StreamSpec>, seed: u64, stream: Option<String>) -> Self {
        Monitor {
            spec: Arc::clone(spec),
            stream,
            sink: spec.shape.sink(seed),
            baselines: std::collections::VecDeque::new(),
            ledger: Vec::new(),
            emitted: 0,
        }
    }

    /// Domain size records must lie in.
    pub fn domain_size(&self) -> usize {
        self.spec.shape.domain_size()
    }

    /// The monitor's base seed.
    pub fn seed(&self) -> u64 {
        self.sink.seed()
    }

    /// The stream label stamped on every emitted report.
    pub fn stream(&self) -> Option<&str> {
        self.stream.as_deref()
    }

    /// Total records ingested so far.
    pub fn seen(&self) -> u64 {
        self.sink.seen()
    }

    /// Completed windows reported so far.
    pub fn windows(&self) -> u64 {
        self.emitted
    }

    /// The standing batch.
    pub fn analyses(&self) -> &[Analysis] {
        &self.spec.analyses
    }

    /// The shared plan shaping every window's lanes.
    pub fn plan(&self) -> SamplePlan {
        self.spec.plan
    }

    /// The configured window policy.
    pub fn window(&self) -> Window {
        self.sink.window()
    }

    /// What the stream has cost so far, as per-label lifetime totals:
    /// `"draw"` (the samples of every frozen window — each window's kept
    /// samples, since reporting touches nothing beyond the freeze) and
    /// each analysis name, with samples and wall seconds summed over every
    /// window and [`snapshot`](Monitor::snapshot), labels in the order
    /// they were first charged. Bounded: one entry per label, however
    /// long the stream runs; nothing drains it.
    pub fn ledger(&self) -> &[LedgerEntry] {
        &self.ledger
    }

    /// Folds one run's ledger into the per-label totals.
    fn charge(&mut self, entries: Vec<LedgerEntry>) {
        for entry in entries {
            match self.ledger.iter_mut().find(|t| t.label == entry.label) {
                Some(total) => {
                    total.samples += entry.samples;
                    total.seconds += entry.seconds;
                }
                None => self.ledger.push(entry),
            }
        }
    }

    /// Ingests a batch of records in arrival order, reporting every window
    /// that completed during the batch (often none — reports appear every
    /// `span`/`step` records). A window whose analysis fails is still
    /// reported, with its counts and the reason in
    /// [`error`](WindowReport::error). Fails only on a record the monitor
    /// cannot take: one outside `[0, n)`, or the first record of a pane
    /// whose lane reservation the allocator refuses. The records before it
    /// remain ingested, and the windows they completed are reported by the
    /// next call.
    pub fn ingest(&mut self, records: &[usize]) -> Result<Vec<WindowReport>, DistError> {
        self.sink.push_all(records)?;
        let snaps = self.sink.drain_completed();
        Ok(snaps
            .into_iter()
            .map(|snap| self.report_window(snap))
            .collect())
    }

    /// Reports any still-unreported data: completed-but-uncollected
    /// windows, then the current partial window (when it holds records).
    /// Call at end of stream so the tail is not dropped silently.
    ///
    /// A tail can be arbitrarily short — streams do not end span-aligned —
    /// so its lanes may be too thin for the standing batch (an empty
    /// collision lane, a one-record sample). Such a tail is reported like
    /// any failed window: counts only, with the reason in
    /// [`error`](WindowReport::error). Flushing takes no record, so it
    /// cannot fail.
    pub fn flush(&mut self) -> Vec<WindowReport> {
        let mut snaps = self.sink.drain_completed();
        let tail = self.sink.snapshot();
        if tail.seen > 0 {
            snaps.push(tail);
        }
        snaps
            .into_iter()
            .map(|snap| self.report_window(snap))
            .collect()
    }

    /// Answers an on-demand batch from the *current* (possibly partial)
    /// window, without waiting for it to complete and without disturbing
    /// ingestion or the drift baseline. The batch may be any sub-batch
    /// whose requirements fit the standing plan (the frozen lanes cannot
    /// serve a larger draw — that returns an error, never a fresh draw).
    pub fn snapshot(&mut self, analyses: &[Analysis]) -> Result<Vec<Report>, DistError> {
        let snap = self.sink.snapshot();
        let mut replay = snap.replay();
        let (reports, ledger) =
            run_analyses_with_plan(&mut replay, snap.seed, analyses, self.spec.plan)?;
        debug_assert_eq!(
            replay.remaining(),
            0,
            "a snapshot must consume exactly the frozen window"
        );
        self.charge(ledger);
        Ok(reports)
    }

    /// The merged sample of the newest completed window that is
    /// *disjoint* from a window starting at `start` — the only sound drift
    /// baseline (overlapping sliding windows share retained records, which
    /// would bias the collision statistic toward accept) — rebuilt from
    /// its counts.
    fn disjoint_baseline(&self, start: u64) -> Option<SampleSet> {
        let baseline = self.baselines.iter().rev().find(|b| b.end <= start)?;
        Some(SampleSet::from_runs(
            baseline
                .values
                .iter()
                .zip(&baseline.counts)
                .map(|(&v, &c)| (v as usize, c)),
        ))
    }

    /// Reports one frozen window and, when it is complete, advances the
    /// drift baselines and the window count, whether or not its analysis
    /// succeeded: a failed analysis leaves the counts and the reason.
    fn report_window(&mut self, mut snap: WindowSnapshot) -> WindowReport {
        // Merge the drift baseline up front, then *move* the frozen lanes
        // into the replay oracle — finalizing a window clones no sample
        // sets (amortized window finalization; the public
        // `WindowSnapshot::replay` keeps its borrowing, cloning form).
        let current = snap.merged();
        let replay = ReplayOracle::from_sets(snap.n, std::mem::take(&mut snap.lanes));
        let analyzed = self.analyze(replay, &current, snap.start, snap.seed);
        if snap.complete {
            let keep = self.sink.window().panes();
            if self.baselines.len() == keep {
                self.baselines.pop_front();
            }
            self.baselines.reserve_exact(keep - self.baselines.len());
            self.baselines.push_back(Baseline {
                end: snap.end,
                values: current.runs().map(|(v, _)| v as u32).collect(),
                counts: current.runs().map(|(_, c)| c).collect(),
            });
            self.emitted += 1;
        }
        let (reports, drift, error) = match analyzed {
            Ok((reports, drift)) => (reports, drift, None),
            Err(e) => (Vec::new(), None, Some(e.to_string())),
        };
        WindowReport {
            stream: self.stream.clone(),
            window: snap.window,
            start: snap.start,
            end: snap.end,
            seen: snap.seen,
            kept: snap.kept,
            complete: snap.complete,
            reports,
            drift,
            error,
        }
    }

    /// Runs the standing batch over a frozen window's lanes, then the drift
    /// check of its merged sample against the newest disjoint baseline.
    fn analyze(
        &mut self,
        mut replay: ReplayOracle,
        current: &SampleSet,
        start: u64,
        seed: u64,
    ) -> Result<(Vec<Report>, Option<Report>), DistError> {
        let (reports, ledger) =
            run_analyses_with_plan(&mut replay, seed, &self.spec.analyses, self.spec.plan)?;
        debug_assert_eq!(
            replay.remaining(),
            0,
            "a window report must consume exactly the frozen window"
        );
        self.charge(ledger);
        let drift = match self.disjoint_baseline(start) {
            Some(baseline) if baseline.total() >= 2 && current.total() >= 2 => {
                Some(self.drift_between(&baseline, current, seed)?)
            }
            _ => None,
        };
        Ok((reports, drift))
    }

    /// Builds the closeness [`Report`] between two window samples.
    fn drift_between(
        &self,
        baseline: &SampleSet,
        current: &SampleSet,
        seed: u64,
    ) -> Result<Report, DistError> {
        // Timing goes through the api.rs wall-clock boundary: the drift
        // *verdict* is a pure function of the two sample sets; only the
        // report's wall_seconds metadata (excluded from PartialEq) ever
        // sees the clock.
        let n = self.domain_size();
        let (closeness, wall_seconds) =
            crate::api::timed(|| test_closeness_l2_from_sets(baseline, current, n, DRIFT_EPS));
        let cr = closeness?;
        let budget = BudgetSpec::Fixed { m: cr.samples_used };
        let mut report = Report::new(AnalysisKind::ClosenessL2, n, budget, seed);
        report.decide(cr);
        report.wall_seconds = wall_seconds;
        Ok(report)
    }
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("domain_size", &self.domain_size())
            .field("seed", &self.seed())
            .field("stream", &self.stream)
            .field("window", &self.sink.window())
            .field("standing_analyses", &self.spec.analyses.len())
            .field("seen", &self.sink.seen())
            .field("windows", &self.emitted)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Learn, TestL1, TestL2, Uniformity};
    use crate::uniformity::UniformityBudget;
    use khist_dist::{generators, DenseDistribution};
    use khist_oracle::L2TesterBudget;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn standing() -> Vec<Analysis> {
        vec![
            Learn::k(3).eps(0.25).scale(0.05).into(),
            TestL2::k(3).eps(0.3).scale(0.05).into(),
            Uniformity::eps(0.3).scale(0.2).into(),
        ]
    }

    fn events_from(p: &DenseDistribution, count: usize, seed: u64) -> Vec<usize> {
        p.sample_many(count, &mut StdRng::seed_from_u64(seed))
    }

    fn events(n: usize, count: usize, seed: u64) -> Vec<usize> {
        events_from(&generators::staircase(n, 3).unwrap(), count, seed)
    }

    #[test]
    fn builder_rejects_bad_configs() {
        assert!(Monitor::builder(64).build().is_err(), "empty batch");
        assert!(Monitor::builder(64)
            .analyses(standing())
            .sliding(100, 33)
            .build()
            .is_err());
        assert!(Monitor::builder(0).analyses(standing()).build().is_err());
    }

    #[test]
    fn windows_report_and_drift_baseline_advances() {
        let mut monitor = Monitor::builder(64)
            .seed(5)
            .tumbling(3_000)
            .analyses(standing())
            .build()
            .unwrap();
        let stream = events(64, 7_500, 1);
        let windows = monitor.ingest(&stream).unwrap();
        assert_eq!(windows.len(), 2);
        assert!(windows[0].drift.is_none());
        let drift = windows[1].drift.as_ref().expect("window 1 has baseline");
        assert_eq!(drift.analysis, AnalysisKind::ClosenessL2);
        // Same distribution in both windows: drift must accept.
        assert!(drift.accepted(), "{drift}");
        assert!(windows.iter().all(|w| w.complete && w.seen == 3_000));
        assert_eq!(monitor.windows(), 2);
        // Flush reports the 1 500-record tail as a partial window.
        let tail = monitor.flush();
        assert_eq!(tail.len(), 1);
        assert!(!tail[0].complete);
        assert_eq!(tail[0].seen, 1_500);
        assert_eq!(
            monitor.windows(),
            2,
            "partial windows do not advance the baseline"
        );
    }

    #[test]
    fn window_reports_consume_only_the_frozen_window() {
        let mut monitor = Monitor::builder(64)
            .seed(9)
            .tumbling(4_000)
            .analyses(standing())
            .build()
            .unwrap();
        let windows = monitor.ingest(&events(64, 4_000, 2)).unwrap();
        assert_eq!(windows.len(), 1);
        // Ledger: one freeze-draw plus one entry per standing analysis —
        // and the draw served exactly the window's kept samples, proving
        // zero draws beyond the frozen window (the replay oracle would
        // have panicked on any extra draw).
        let draws: Vec<_> = monitor
            .ledger()
            .iter()
            .filter(|e| e.label == "draw")
            .collect();
        assert_eq!(draws.len(), 1);
        assert_eq!(draws[0].samples as u64, windows[0].kept);
        assert_eq!(monitor.ledger().len(), 1 + standing().len());
    }

    #[test]
    fn on_demand_snapshot_serves_sub_batches_and_rejects_oversized() {
        let mut monitor = Monitor::builder(64)
            .seed(3)
            .tumbling(10_000)
            .analyses(standing())
            .build()
            .unwrap();
        monitor.ingest(&events(64, 2_500, 3)).unwrap();
        // Mid-window, a sub-batch of the standing analyses is served from
        // the partial lanes.
        let reports = monitor
            .snapshot(&[Uniformity::eps(0.3).scale(0.2).into()])
            .unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].statistic.is_some());
        // A batch needing more than the configured lanes is refused.
        let err = monitor
            .snapshot(&[TestL1::k(3).eps(0.3).scale(0.5).into()])
            .unwrap_err()
            .to_string();
        assert!(err.contains("configured plan"), "{err}");
    }

    #[test]
    fn drift_flags_a_distribution_change() {
        let mut monitor = Monitor::builder(64)
            .seed(11)
            .tumbling(5_000)
            .analyses(vec![Uniformity::eps(0.3).scale(1.0).into()])
            .build()
            .unwrap();
        let steady = generators::staircase(64, 3).unwrap();
        let shifted = generators::spike_comb(64, 8).unwrap();
        monitor.ingest(&events_from(&steady, 5_000, 1)).unwrap();
        monitor.ingest(&events_from(&steady, 2_500, 2)).unwrap();
        monitor.ingest(&events_from(&steady, 2_500, 4)).unwrap();
        // Source changes: the completed window's report flags it.
        monitor.ingest(&events_from(&shifted, 2_500, 3)).unwrap();
        let windows = monitor.ingest(&events_from(&shifted, 2_500, 5)).unwrap();
        let drift = windows[0].drift.as_ref().unwrap();
        assert!(!drift.accepted(), "shift must be flagged: {drift}");
    }

    #[test]
    fn monitor_reports_are_replay_deterministic() {
        let stream = events(64, 9_000, 8);
        let run = || {
            let mut monitor = Monitor::builder(64)
                .seed(21)
                .tumbling(4_000)
                .analyses(standing())
                .build()
                .unwrap();
            let mut windows = monitor.ingest(&stream).unwrap();
            windows.extend(monitor.flush());
            windows
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "fixed seed + same stream ⇒ bit-identical reports");
        assert_eq!(a.len(), 3);
        assert!(a[1].drift.is_some());
    }

    #[test]
    fn flush_degrades_to_counts_only_on_a_tiny_tail() {
        // Streams do not end span-aligned: a 1-record tail leaves the
        // learner's collision lanes empty, which must degrade to a
        // counts-only report with the reason, not fail the flush
        // (regression test).
        let mut monitor = Monitor::builder(64)
            .seed(1)
            .tumbling(1_000)
            .analyses(standing())
            .build()
            .unwrap();
        let mut stream = events(64, 2_000, 9);
        stream.push(3);
        let mut windows = monitor.ingest(&stream).unwrap();
        windows.extend(monitor.flush());
        assert_eq!(windows.len(), 3);
        assert!(windows[0].complete && windows[1].complete);
        let tail = &windows[2];
        assert!(!tail.complete);
        assert_eq!((tail.seen, tail.start, tail.end), (1, 2_000, 2_001));
        assert!(tail.reports.is_empty(), "tail too thin to analyze");
        assert!(tail.drift.is_none());
        assert_eq!(tail.error.as_deref(), Some("total mass is zero"));
        // The reason rides in the JSON line, last, and in the human text.
        let json = tail.to_json();
        assert!(
            json.ends_with(r#""drift":null,"error":"total mass is zero"}"#),
            "{json}"
        );
        assert_eq!(&WindowReport::from_json(&json).unwrap(), tail);
        assert!(
            tail.to_string().ends_with("\n  error: total mass is zero"),
            "{tail}"
        );
        // A tail that *can* carry the batch still gets full reports.
        let mut monitor = Monitor::builder(64)
            .seed(1)
            .tumbling(1_000)
            .analyses(standing())
            .build()
            .unwrap();
        monitor.ingest(&events(64, 1_500, 10)).unwrap();
        let windows = monitor.flush();
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].reports.len(), standing().len());
    }

    #[test]
    fn a_failed_window_is_a_counted_window() {
        // At seed 27, window 0 leaves one of seven 9-sample l2 sets empty
        // and window 1 does not. The failed window is reported with its
        // counts and the reason, counts as a completed window, and is the
        // next window's drift baseline.
        use crate::uniformity::UniformityBudget;
        use khist_oracle::L2TesterBudget;
        let mut monitor = Monitor::builder(16)
            .seed(27)
            .tumbling(64)
            .analyses(vec![
                TestL2::k(8)
                    .eps(0.1)
                    .budget(L2TesterBudget { r: 7, m: 9 })
                    .into(),
                Uniformity::eps(0.1)
                    .budget(UniformityBudget { m: 64 })
                    .into(),
            ])
            .build()
            .unwrap();
        let records: Vec<usize> = (0..128).map(|i| (i * 5) % 16).collect();
        let windows = monitor.ingest(&records).unwrap();
        assert_eq!(windows.len(), 2);
        let failed = &windows[0];
        assert!(failed.complete && failed.reports.is_empty() && failed.drift.is_none());
        assert_eq!((failed.seen, failed.start, failed.end), (64, 0, 64));
        assert_eq!(
            failed.error.as_deref(),
            Some("bad parameter: need non-empty sample sets")
        );
        assert_eq!((windows[1].reports.len(), &windows[1].error), (2, &None));
        assert!(windows[1].drift.is_some(), "window 0 is the baseline");
        assert_eq!(monitor.windows(), 2);
    }

    #[test]
    fn window_report_json_round_trips() {
        let mut monitor = Monitor::builder(64)
            .seed(13)
            .tumbling(3_000)
            .analyses(standing())
            .build()
            .unwrap();
        let windows = monitor.ingest(&events(64, 6_000, 5)).unwrap();
        for report in windows {
            let json = report.to_json();
            let back = WindowReport::from_json(&json)
                .unwrap_or_else(|e| panic!("round trip failed for {json}: {e}"));
            assert_eq!(back, report, "json: {json}");
        }
        assert!(WindowReport::from_json("{}").is_err());
    }

    #[test]
    fn stream_tag_flows_into_reports_and_json() {
        let mut monitor = Monitor::builder(64)
            .seed(13)
            .stream("tenant-7")
            .tumbling(2_000)
            .analyses(vec![Uniformity::eps(0.3).scale(0.5).into()])
            .build()
            .unwrap();
        let mut windows = monitor.ingest(&events(64, 2_500, 5)).unwrap();
        windows.extend(monitor.flush());
        assert_eq!(windows.len(), 2);
        for window in &windows {
            assert_eq!(window.stream.as_deref(), Some("tenant-7"));
            let json = window.to_json();
            assert!(json.contains("\"stream\":\"tenant-7\""), "{json}");
            assert_eq!(&WindowReport::from_json(&json).unwrap(), window);
            assert!(window.to_string().starts_with("[tenant-7] "));
        }
        // Untagged monitors serialize a null stream and omit the prefix,
        // and pre-engine JSON without the field still parses.
        let mut untagged = Monitor::builder(64)
            .seed(13)
            .tumbling(2_000)
            .analyses(vec![Uniformity::eps(0.3).scale(0.5).into()])
            .build()
            .unwrap();
        let window = untagged
            .ingest(&events(64, 2_000, 5))
            .unwrap()
            .pop()
            .unwrap();
        let json = window.to_json();
        assert!(json.contains("\"stream\":null"), "{json}");
        let legacy = json.replacen("\"stream\":null,", "", 1);
        assert_eq!(WindowReport::from_json(&legacy).unwrap(), window);
    }

    #[test]
    fn sliding_monitor_emits_every_step() {
        let mut monitor = Monitor::builder(64)
            .seed(2)
            .sliding(4_000, 1_000)
            .analyses(vec![Uniformity::eps(0.3).scale(0.5).into()])
            .build()
            .unwrap();
        let windows = monitor.ingest(&events(64, 9_000, 6)).unwrap();
        // First completion at 4 000, then every 1 000: 6 windows.
        assert_eq!(windows.len(), 6);
        assert_eq!((windows[0].start, windows[0].end), (0, 4_000));
        assert_eq!((windows[5].start, windows[5].end), (5_000, 9_000));
        // Drift baselines must be *disjoint*: overlapping sliding windows
        // share retained records, which would bias the closeness statistic
        // toward accept. Windows 1–3 overlap every completed predecessor;
        // window 4 [4000, 8000) is the first with a disjoint baseline
        // (window 0, ending at 4000).
        assert!(windows[..4].iter().all(|w| w.drift.is_none()));
        assert!(windows[4].drift.is_some());
        assert!(windows[5].drift.is_some());
    }

    #[test]
    fn state_machine_is_usable_bare() {
        // The engine's view: a monitor fed its stream in arbitrary pieces
        // reports the same windows and keeps the same ledger as one fed
        // the stream whole.
        let build = || {
            Monitor::builder(64)
                .seed(5)
                .tumbling(2_000)
                .analyses(standing())
                .build()
                .unwrap()
        };
        let stream = events(64, 4_500, 1);
        let mut whole = build();
        let windows = whole.ingest(&stream).unwrap();
        assert_eq!(windows.len(), 2);
        let mut pieces = build();
        let mut piece_windows = Vec::new();
        for piece in stream.chunks(333) {
            piece_windows.extend(pieces.ingest(piece).unwrap());
        }
        assert_eq!(windows, piece_windows);
        // Ledger totals match up to wall time (which varies run to run).
        let spend = |m: &Monitor| -> Vec<(&str, usize)> {
            m.ledger().iter().map(|e| (e.label, e.samples)).collect()
        };
        assert_eq!(spend(&whole), spend(&pieces));
        assert_eq!(whole.ledger().len(), 1 + standing().len());
    }

    #[test]
    fn ledger_stays_one_total_per_label() {
        // Many windows and a snapshot: the ledger keeps one lifetime total
        // per label instead of one entry per window and analysis.
        let mut monitor = Monitor::builder(64)
            .seed(8)
            .tumbling(500)
            .analyses(standing())
            .build()
            .unwrap();
        let windows = monitor.ingest(&events(64, 6_250, 4)).unwrap();
        assert_eq!(windows.len(), 12);
        monitor.snapshot(&standing()).unwrap();
        assert_eq!(monitor.ledger().len(), 1 + standing().len());
        let draw = monitor.ledger().iter().find(|e| e.label == "draw").unwrap();
        let kept: u64 = windows.iter().map(|w| w.kept).sum();
        assert!(
            draw.samples as u64 > kept,
            "the snapshot's draw is charged too"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A baseline kept as its counts drifts exactly like the merged
        /// sample it came from: over random streams that narrow to four
        /// values halfway (so drift both accepts and rejects), batch
        /// boundaries and windows (tumbling, and sliding with one to three
        /// panes), each of the three lane shapes, and domains up to 2³²
        /// (values near the top when the domain is that large), every
        /// window's drift is `None` or its statistic, threshold and
        /// outcome bits equal the closeness kernel's over a twin sink's
        /// `merged()` samples, against the newest earlier completed
        /// window that ends at or before the window's start.
        #[test]
        fn prop_drift_equals_the_kernel_over_a_twin_sinks_merged_samples(
            wide in proptest::collection::vec(0usize..4_096, 0..1_500),
            narrow in proptest::collection::vec(0usize..4, 0..1_500),
            cuts in proptest::collection::vec(0usize..3_000, 0..5),
            small_n in 2usize..4_096,
            huge in 0usize..2,
            step in 20u64..200,
            panes in 1u64..4,
            sliding in 0usize..2,
            lanes in 0usize..3,
            seed in 0u64..1_000,
        ) {
            let n = if huge == 1 { 1usize << 32 } else { small_n };
            let records: Vec<usize> = wide.iter().chain(&narrow).map(|&v| n - 1 - v % n).collect();
            let window = if sliding == 1 {
                Window::Sliding { span: step * panes, step }
            } else {
                Window::Tumbling { span: step * panes }
            };
            let l2 = || -> Analysis {
                TestL2::k(3).eps(0.3).budget(L2TesterBudget { r: 3, m: 12 }).into()
            };
            let uniformity = || -> Analysis {
                Uniformity::eps(0.3).budget(UniformityBudget { m: 16 }).into()
            };
            let batch = match lanes {
                0 => vec![l2(), uniformity()],
                1 => vec![uniformity()],
                _ => vec![l2()],
            };
            let mut monitor = Monitor::builder(n)
                .seed(seed)
                .window(window)
                .analyses(batch)
                .build()
                .unwrap();
            let mut twin = monitor.spec.shape.sink(seed);
            let mut bounds: Vec<usize> = cuts.iter().map(|&cut| cut.min(records.len())).collect();
            bounds.extend([0, records.len()]);
            bounds.sort_unstable();
            let (mut windows, mut snaps) = (Vec::new(), Vec::new());
            for piece in bounds.windows(2) {
                let piece = &records[piece[0]..piece[1]];
                windows.extend(monitor.ingest(piece).unwrap());
                twin.push_all(piece).unwrap();
                snaps.extend(twin.drain_completed());
            }
            prop_assert_eq!(windows.len(), snaps.len());
            let mut earlier: Vec<(u64, SampleSet)> = Vec::new();
            for (window, snap) in windows.iter().zip(snaps) {
                let merged = snap.merged();
                let baseline = earlier.iter().rev().find(|(end, _)| *end <= snap.start);
                let want = match baseline {
                    Some((_, base)) if window.error.is_none() && base.total() >= 2 && merged.total() >= 2 => {
                        Some(test_closeness_l2_from_sets(base, &merged, n, DRIFT_EPS).unwrap())
                    }
                    _ => None,
                };
                match (&window.drift, want) {
                    (None, None) => {}
                    (Some(drift), Some(want)) => {
                        prop_assert_eq!(drift.statistic.map(f64::to_bits), Some(want.statistic.to_bits()));
                        prop_assert_eq!(drift.threshold.map(f64::to_bits), Some(want.threshold.to_bits()));
                        prop_assert_eq!(drift.verdict, Some(want.outcome));
                    }
                    (got, want) => prop_assert!(false, "window {}: drift {:?}, kernel {:?}", window.window, got, want),
                }
                earlier.push((snap.end, merged));
            }
        }
    }
}
