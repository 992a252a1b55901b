//! `trace`: where the time of one workload goes, layer by layer.
//!
//! Two passes over a workload's input, timed from outside the program by
//! spans around calls into each layer's public functions. Spans stay in
//! memory; the command prints their summary at the end.
//!
//! 1. **Engine pass**: the calls keyed `khist watch` makes, in its order.
//!    `BufRead::read_line` → `protocol::parse_data_line` → chunks of
//!    `--chunk` records → `Engine::ingest_batch` → `WindowReport::to_json`
//!    and one write per line; `Engine::fleet_report` after every chunk
//!    that reported a window (`--fleet`); `Engine::flush_debut_ordered` at
//!    the end of the input. Its per-stream reports must equal those of the
//!    capture (`--cli`), `wall_seconds` aside.
//! 2. **Kernel pass**: per stream, a `WindowedSink` shaped like the
//!    engine's (`SinkShape::new(n, window, plan.main(), plan.r(),
//!    plan.m())`, seeded with `Engine::stream_seed`) re-derives every
//!    frozen window, and each analysis kernel is timed on it:
//!    `run_analyses_with_plan` over `WindowSnapshot::replay()`, then
//!    `learn_from_samples` and `compress_to_k`, `test_l2_from_sets`,
//!    `test_uniformity_from_set` and `test_closeness_l2_from_sets`. Each
//!    result must equal the capture's report. The standing batch comes
//!    from the `budget` objects in the capture's own reports.
//!
//! A layer's self time is its span minus the spans inside it. Inside
//! `ingest_batch` and `flush_debut_ordered` the analyses are the
//! `wall_seconds` of the reports the call returns, so the engine's own
//! time is the call's time minus those. With more than one shard the
//! analyses of different shards overlap, so that split is approximate.

// lint:allow-file(wall-clock): a benchmark times each layer from outside the program, so reading the clock is its job

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::time::Instant;

use khist_core::api::{
    plan_for, run_analyses_with_plan, Analysis, AnalysisKind, BudgetSpec, Engine, FleetReport,
    Learn, SamplePlan, TestL2, Uniformity, WindowReport,
};
use khist_core::compress::compress_to_k;
use khist_core::greedy::{learn_from_samples, GreedyParams};
use khist_core::identity::test_closeness_l2_from_sets;
use khist_core::tester::test_l2_from_sets;
use khist_core::uniformity::{test_uniformity_from_set, UniformityBudget};
use khist_oracle::{
    L2TesterBudget, LearnerBudget, SampleSet, SampleSink, SinkShape, Window, WindowSnapshot,
};
use khist_serve::protocol::{parse_data_line, DataLine};
use serde::{Serialize, Value};

use crate::check::Tally;
use crate::{number, to_json, Flags};

/// Accuracy of the window-to-window drift check: the `EngineBuilder`
/// default, which neither `watch` nor `serve` changes.
const DRIFT_EPS: f64 = 0.25;

/// The CLI's `--k` and `--eps` defaults, which every workload keeps.
const K: usize = 8;
const EPS: f64 = 0.1;

/// Kernel mismatch messages kept in the summary.
const KEPT_MESSAGES: usize = 10;

/// One traced workload.
struct Config {
    input: String,
    cli: String,
    sink: String,
    n: usize,
    every: u64,
    shards: usize,
    chunk: usize,
    seed: u64,
    k: usize,
    eps: f64,
    fleet: bool,
}

impl Config {
    fn from_flags(flags: &Flags) -> Result<Config, String> {
        Ok(Config {
            input: flags.text("input")?.to_string(),
            cli: flags.text("cli")?.to_string(),
            sink: flags.text("sink")?.to_string(),
            n: flags.value("n")?,
            every: flags.value("every")?,
            shards: flags.value("shards")?,
            chunk: flags.value("chunk")?,
            seed: flags.value("seed")?,
            k: K,
            eps: EPS,
            fleet: flags.switch("fleet"),
        })
    }
}

/// Seconds since `t`.
fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn fail(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `total / count × scale`, when anything was counted.
fn per(total: f64, count: u64, scale: f64) -> Option<f64> {
    (count > 0).then(|| total / count as f64 * scale)
}

/// Nearest-rank percentile `p` (0–100) of `values`.
fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.max(1) - 1).copied()
}

/// The capture's window reports per stream, in window order.
fn load_capture(path: &str) -> Result<BTreeMap<String, Vec<WindowReport>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut streams: BTreeMap<String, Vec<WindowReport>> = BTreeMap::new();
    for line in text
        .lines()
        .filter(|line| !FleetReport::is_fleet_line(line))
    {
        let report = WindowReport::from_json(line).map_err(fail)?;
        let key = report
            .stream
            .clone()
            .ok_or("a window line without a stream key")?;
        streams.entry(key).or_default().push(report);
    }
    Ok(streams)
}

/// Budgets of the standing batch, for the kernel calls.
#[derive(Default)]
struct Budgets {
    learn: Option<LearnerBudget>,
    l2: Option<L2TesterBudget>,
    uniformity: bool,
}

/// The standing batch, rebuilt from the budgets carried by the reports of
/// the capture's first complete window, so the trace never re-derives how
/// the CLI sizes budgets.
fn standing_batch(
    capture: &BTreeMap<String, Vec<WindowReport>>,
    k: usize,
    eps: f64,
) -> Result<(Vec<Analysis>, Budgets), String> {
    let window = capture
        .values()
        .flatten()
        .find(|w| w.complete && !w.reports.is_empty())
        .ok_or("the capture has no complete window with reports")?;
    let mut budgets = Budgets::default();
    let mut batch = Vec::new();
    for report in &window.reports {
        batch.push(match (report.analysis, &report.budget) {
            (AnalysisKind::Learn, BudgetSpec::Learner(b)) => {
                budgets.learn = Some(*b);
                Learn::k(k).eps(eps).budget(*b).into()
            }
            (AnalysisKind::TestL2, BudgetSpec::L2(b)) => {
                budgets.l2 = Some(*b);
                TestL2::k(k).eps(eps).budget(*b).into()
            }
            (AnalysisKind::Uniformity, BudgetSpec::Fixed { m }) => {
                budgets.uniformity = true;
                Uniformity::eps(eps)
                    .budget(UniformityBudget { m: *m })
                    .into()
            }
            (kind, _) => return Err(format!("the trace does not cover '{kind}' reports")),
        });
    }
    Ok((batch, budgets))
}

/// Spans and counts of the engine pass.
#[derive(Default)]
struct EnginePass {
    wall: f64,
    records: u64,
    read: f64,
    parse: f64,
    /// Seconds of each `ingest_batch` call, and the windows it returned.
    calls: Vec<f64>,
    call_windows: Vec<u64>,
    /// Σ `wall_seconds` of the reports `ingest_batch` returned.
    ingest_analyses: f64,
    flush: f64,
    /// Building the engine and dropping it (which joins its workers).
    lifecycle: f64,
    /// Σ `wall_seconds` of the reports `flush_debut_ordered` returned.
    flush_analyses: f64,
    /// Seconds of each `fleet_report` call.
    fleet: Vec<f64>,
    render: f64,
    write: f64,
    /// Σ `wall_seconds` per analysis (`drift` for the drift checks).
    by_analysis: BTreeMap<&'static str, f64>,
    complete: u64,
    partial: u64,
    streams: usize,
    uniformity: Tally,
    l2: Tally,
    drift: Tally,
    reports: BTreeMap<String, Vec<WindowReport>>,
}

impl EnginePass {
    /// Renders and writes each report (one write per line, as the CLI's
    /// flushed stdout makes them) and files it under its stream. Returns
    /// the reports' summed `wall_seconds`.
    fn emit(&mut self, reports: Vec<WindowReport>, sink: &mut File) -> Result<f64, String> {
        let mut analyses = 0.0;
        for report in reports {
            let t = Instant::now();
            let line = format!("{}\n", report.to_json());
            let rendered = Instant::now();
            sink.write_all(line.as_bytes()).map_err(fail)?;
            self.render += (rendered - t).as_secs_f64();
            self.write += since(rendered);
            let walls = report
                .reports
                .iter()
                .map(|r| (r.analysis.as_str(), r.wall_seconds))
                .chain(report.drift.iter().map(|d| ("drift", d.wall_seconds)));
            for (kind, wall) in walls {
                *self.by_analysis.entry(kind).or_default() += wall;
                analyses += wall;
            }
            if report.complete {
                self.complete += 1;
            } else {
                self.partial += 1;
            }
            Tally::window(&mut self.uniformity, &mut self.l2, &mut self.drift, &report);
            let key = report.stream.clone().unwrap_or_default();
            self.reports.entry(key).or_default().push(report);
        }
        Ok(analyses)
    }

    /// Builds, renders and writes one fleet rollup line.
    fn emit_fleet(&mut self, engine: &Engine, sink: &mut File) -> Result<(), String> {
        let t = Instant::now();
        let rollup = engine.fleet_report();
        let built = Instant::now();
        let line = format!("{}\n", rollup.to_json());
        let rendered = Instant::now();
        sink.write_all(line.as_bytes()).map_err(fail)?;
        self.fleet.push((built - t).as_secs_f64());
        self.render += (rendered - built).as_secs_f64();
        self.write += since(rendered);
        Ok(())
    }

    /// One chunk: `ingest_batch`, its window lines, and a rollup line when
    /// it reported a window and the workload rolls up.
    fn ingest(
        &mut self,
        engine: &mut Engine,
        arena: &str,
        spans: &[(usize, usize, usize)],
        sink: &mut File,
        fleet: bool,
    ) -> Result<(), String> {
        let t = Instant::now();
        let records: Vec<(&str, usize)> = spans
            .iter()
            .map(|&(start, end, value)| (&arena[start..end], value))
            .collect();
        let framed = Instant::now();
        let reports = engine.ingest_batch(&records).map_err(fail)?;
        self.parse += (framed - t).as_secs_f64();
        self.calls.push(since(framed));
        self.call_windows.push(reports.len() as u64);
        let reported = !reports.is_empty();
        self.ingest_analyses += self.emit(reports, sink)?;
        if fleet && reported {
            self.emit_fleet(engine, sink)?;
        }
        Ok(())
    }
}

/// The engine pass: the calls keyed `khist watch` makes, each timed.
fn engine_pass(cfg: &Config, batch: &[Analysis]) -> Result<EnginePass, String> {
    let started = Instant::now();
    let mut pass = EnginePass::default();
    let mut engine = Engine::builder(cfg.n)
        .seed(cfg.seed)
        .shards(cfg.shards)
        .tumbling(cfg.every)
        .analyses(batch.to_vec())
        .build()
        .map_err(fail)?;
    pass.lifecycle = since(started);
    let file = File::open(&cfg.input).map_err(|e| format!("{}: {e}", cfg.input))?;
    let mut input = BufReader::new(file);
    let mut sink = File::create(&cfg.sink).map_err(|e| format!("{}: {e}", cfg.sink))?;
    let mut line = String::with_capacity(256);
    let mut arena = String::with_capacity(cfg.chunk * 8);
    let mut spans: Vec<(usize, usize, usize)> = Vec::with_capacity(cfg.chunk);
    let mut lineno = 0;
    loop {
        let t = Instant::now();
        line.clear();
        let read = input.read_line(&mut line).map_err(fail)?;
        let was_read = Instant::now();
        pass.read += (was_read - t).as_secs_f64();
        if read == 0 {
            break;
        }
        lineno += 1;
        if let DataLine::Record { key, value } = parse_data_line(&line, lineno, 0, cfg.n)? {
            let start = arena.len();
            arena.push_str(key);
            spans.push((start, arena.len(), value));
            pass.records += 1;
        }
        pass.parse += since(was_read);
        if spans.len() >= cfg.chunk {
            pass.ingest(&mut engine, &arena, &spans, &mut sink, cfg.fleet)?;
            spans.clear();
            arena.clear();
        }
    }
    // Like the CLI, ingest the last (possibly empty) chunk before the tails.
    pass.ingest(&mut engine, &arena, &spans, &mut sink, cfg.fleet)?;
    let t = Instant::now();
    let tails = engine.flush_debut_ordered().map_err(fail)?;
    pass.flush = since(t);
    pass.flush_analyses = pass.emit(tails, &mut sink)?;
    if cfg.fleet {
        pass.emit_fleet(&engine, &mut sink)?;
    }
    pass.streams = engine.streams();
    let t = Instant::now();
    drop(engine);
    pass.lifecycle += since(t);
    pass.wall = since(started);
    Ok(pass)
}

/// The input's records per stream, in debut order.
fn read_streams(path: &str, n: usize) -> Result<Vec<(String, Vec<usize>)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut slots: BTreeMap<&str, usize> = BTreeMap::new();
    let mut streams: Vec<(String, Vec<usize>)> = Vec::new();
    for (index, line) in text.lines().enumerate() {
        if let DataLine::Record { key, value } = parse_data_line(line, index + 1, 0, n)? {
            let slot = *slots.entry(key).or_insert_with(|| {
                streams.push((key.to_string(), Vec::new()));
                streams.len() - 1
            });
            streams[slot].1.push(value);
        }
    }
    Ok(streams)
}

/// The frozen lanes as the plan drew them: `(main set, the other sets)`.
fn split_lanes(lanes: &[SampleSet], plan: SamplePlan) -> (Option<&SampleSet>, &[SampleSet]) {
    if plan.r() == 0 {
        (lanes.first(), &[])
    } else if plan.main() == 0 {
        (None, lanes)
    } else {
        match lanes.split_first() {
            Some((main, sets)) => (Some(main), sets),
            None => (None, &[]),
        }
    }
}

/// Spans and counts of the kernel pass.
#[derive(Default)]
struct KernelPass {
    wall: f64,
    records: u64,
    push: f64,
    frozen: u64,
    freeze: f64,
    analyzed: u64,
    batch: Vec<f64>,
    learn: Vec<f64>,
    candidates: u64,
    compress: f64,
    l2: f64,
    l2_windows: u64,
    probes: u64,
    uniformity: f64,
    uniformity_windows: u64,
    drift: f64,
    drift_checks: u64,
    mismatches: u64,
    messages: Vec<String>,
}

/// One frozen window, its merged sample, and the drift baseline before it.
struct Frozen<'a> {
    key: &'a str,
    snap: WindowSnapshot,
    merged: SampleSet,
    baseline: Option<&'a SampleSet>,
}

impl KernelPass {
    fn mismatch(&mut self, message: String) {
        self.mismatches += 1;
        if self.messages.len() < KEPT_MESSAGES {
            self.messages.push(message);
        }
    }

    /// Times every kernel on one frozen window and checks each result
    /// against the capture's report for it.
    fn analyze(
        &mut self,
        cfg: &Config,
        batch: &[Analysis],
        plan: SamplePlan,
        budgets: &Budgets,
        window: &Frozen,
        expected: Option<&WindowReport>,
    ) -> Result<(), String> {
        let Frozen {
            key,
            snap,
            merged,
            baseline,
        } = window;
        let id = snap.window;
        let Some(expected) = expected else {
            self.mismatch(format!("stream {key}: window {id} is not in the capture"));
            return Ok(());
        };
        if (expected.window, expected.complete, expected.seen) != (id, snap.complete, snap.seen) {
            self.mismatch(format!(
                "stream {key}: window {id} differs from the capture"
            ));
        }
        if expected.reports.is_empty() {
            // A tail too thin to analyze: the program reported counts only.
            return Ok(());
        }
        self.analyzed += 1;
        let find = |kind: AnalysisKind| expected.reports.iter().find(|r| r.analysis == kind);
        let t = Instant::now();
        let (reports, _) =
            run_analyses_with_plan(&mut snap.replay(), snap.seed, batch, plan).map_err(fail)?;
        self.batch.push(since(t));
        if reports != expected.reports {
            self.mismatch(format!("stream {key}: window {id}: batch reports differ"));
        }
        let (main, sets) = split_lanes(&snap.lanes, plan);
        if let Some(budget) = budgets.learn {
            let main = main.ok_or("the learner's plan has no main set")?;
            let view = sets.get(..budget.r).ok_or("too few collision sets")?;
            let params = GreedyParams::fast(cfg.k, cfg.eps, budget);
            let t = Instant::now();
            let outcome = learn_from_samples(cfg.n, main, view, &params).map_err(fail)?;
            let learned = Instant::now();
            let histogram = compress_to_k(&outcome.tiling, cfg.k)
                .and_then(|summary| summary.normalized())
                .map_err(fail)?;
            self.learn.push((learned - t).as_secs_f64());
            self.compress += since(learned);
            self.candidates += outcome.stats.candidates_evaluated as u64;
            if find(AnalysisKind::Learn).and_then(|r| r.histogram.as_ref()) != Some(&histogram) {
                self.mismatch(format!(
                    "stream {key}: window {id}: learned histogram differs"
                ));
            }
        }
        if let Some(budget) = budgets.l2 {
            let view = sets.get(..budget.r).ok_or("too few tester sets")?;
            let t = Instant::now();
            let tested = test_l2_from_sets(cfg.n, cfg.k, cfg.eps, view).map_err(fail)?;
            self.l2 += since(t);
            self.l2_windows += 1;
            self.probes += tested.probes as u64;
            let same = find(AnalysisKind::TestL2).is_some_and(|r| {
                r.verdict == Some(tested.outcome)
                    && r.cuts == tested.cuts
                    && r.probes == Some(tested.probes)
            });
            if !same {
                self.mismatch(format!("stream {key}: window {id}: l2 test differs"));
            }
        }
        if budgets.uniformity {
            let main = main.ok_or("the uniformity plan has no main set")?;
            let t = Instant::now();
            let tested = test_uniformity_from_set(cfg.n, cfg.eps, main).map_err(fail)?;
            self.uniformity += since(t);
            self.uniformity_windows += 1;
            let same = find(AnalysisKind::Uniformity).is_some_and(|r| {
                r.verdict == Some(tested.outcome) && r.statistic == Some(tested.statistic)
            });
            if !same {
                self.mismatch(format!(
                    "stream {key}: window {id}: uniformity test differs"
                ));
            }
        }
        let baseline = baseline.filter(|b| b.total() >= 2 && merged.total() >= 2);
        match (baseline, &expected.drift) {
            (Some(baseline), Some(drift)) => {
                let t = Instant::now();
                let checked = test_closeness_l2_from_sets(baseline, merged, cfg.n, DRIFT_EPS)
                    .map_err(fail)?;
                self.drift += since(t);
                self.drift_checks += 1;
                if drift.statistic != Some(checked.statistic) {
                    self.mismatch(format!("stream {key}: window {id}: drift check differs"));
                }
            }
            (None, None) => {}
            _ => self.mismatch(format!("stream {key}: window {id}: drift presence differs")),
        }
        Ok(())
    }
}

/// The kernel pass: every frozen window re-derived, every kernel timed.
fn kernel_pass(
    cfg: &Config,
    batch: &[Analysis],
    budgets: &Budgets,
    capture: &BTreeMap<String, Vec<WindowReport>>,
) -> Result<KernelPass, String> {
    let started = Instant::now();
    let plan = plan_for(batch, cfg.n).map_err(fail)?;
    let window = Window::Tumbling { span: cfg.every };
    let shape = SinkShape::new(cfg.n, window, plan.main(), plan.r(), plan.m()).map_err(fail)?;
    let mut pass = KernelPass::default();
    for (key, records) in read_streams(&cfg.input, cfg.n)? {
        let mut expected = capture
            .get(&key)
            .map(Vec::as_slice)
            .unwrap_or_default()
            .iter();
        let mut sink = shape.sink(Engine::stream_seed(cfg.seed, &key));
        let mut baseline: Option<SampleSet> = None;
        pass.records += records.len() as u64;
        for slice in records.chunks(cfg.every as usize) {
            let t = Instant::now();
            sink.push_all(slice).map_err(fail)?;
            let pushed = Instant::now();
            let frozen: Vec<(WindowSnapshot, SampleSet)> = sink
                .drain_completed()
                .into_iter()
                .map(|snap| {
                    let merged = snap.merged();
                    (snap, merged)
                })
                .collect();
            pass.push += (pushed - t).as_secs_f64();
            pass.freeze += since(pushed);
            for (snap, merged) in frozen {
                pass.frozen += 1;
                let window = Frozen {
                    key: &key,
                    snap,
                    merged,
                    baseline: baseline.as_ref(),
                };
                pass.analyze(cfg, batch, plan, budgets, &window, expected.next())?;
                baseline = Some(window.merged);
            }
        }
        if sink.seen() % cfg.every != 0 {
            let t = Instant::now();
            let snap = sink.snapshot();
            let merged = snap.merged();
            pass.freeze += since(t);
            pass.frozen += 1;
            let window = Frozen {
                key: &key,
                snap,
                merged,
                baseline: baseline.as_ref(),
            };
            pass.analyze(cfg, batch, plan, budgets, &window, expected.next())?;
        }
        if let Some(extra) = expected.next() {
            pass.mismatch(format!(
                "stream {key}: window {} was not re-derived",
                extra.window
            ));
        }
    }
    pass.wall = since(started);
    Ok(pass)
}

/// The per-layer metrics, self times and checks as one JSON value.
fn summary(e: &EnginePass, k: &KernelPass, mismatched: &[String]) -> Value {
    let windows = e.complete + e.partial;
    let ingest: f64 = e.calls.iter().sum();
    let fleet: f64 = e.fleet.iter().sum();
    let analysis = |kind: &str| e.by_analysis.get(kind).copied().unwrap_or_default();
    let analyses: f64 = e.by_analysis.values().sum();
    let spans = e.read + e.parse + e.render + e.write + ingest + e.flush + e.lifecycle + fleet;
    let drained: Vec<f64> = e
        .call_windows
        .iter()
        .filter(|&&w| w > 0)
        .map(|&w| w as f64)
        .collect();
    let learned: f64 = k.learn.iter().sum();
    let ms = |seconds: Option<f64>| seconds.map(|s| s * 1e3);
    let metrics: Vec<(&str, Option<f64>)> = vec![
        ("app.read_ns_per_rec", per(e.read, e.records, 1e9)),
        ("app.parse_ns_per_rec", per(e.parse, e.records, 1e9)),
        ("app.render_us_per_window", per(e.render, windows, 1e6)),
        ("app.write_us_per_window", per(e.write, windows, 1e6)),
        ("engine.ingest_batch_ms_p50", ms(percentile(&e.calls, 50.0))),
        ("engine.ingest_batch_ms_p90", ms(percentile(&e.calls, 90.0))),
        (
            "engine.self_ns_per_rec",
            per(ingest - e.ingest_analyses, e.records, 1e9),
        ),
        ("engine.flush_ms", Some(e.flush * 1e3)),
        ("engine.debuts", Some(e.streams as f64)),
        ("engine.calls", Some(e.calls.len() as f64)),
        ("engine.windows_complete", Some(e.complete as f64)),
        ("engine.windows_partial", Some(e.partial as f64)),
        ("oracle.push_ns_per_rec", per(k.push, k.records, 1e9)),
        ("oracle.freeze_us_per_window", per(k.freeze, k.frozen, 1e6)),
        (
            "api.batch_ms_per_window",
            ms(per(k.batch.iter().sum(), k.analyzed, 1.0)),
        ),
        ("greedy.learn_ms_p50", ms(percentile(&k.learn, 50.0))),
        ("greedy.learn_ms_p90", ms(percentile(&k.learn, 90.0))),
        (
            "greedy.candidates_per_window",
            per(k.candidates as f64, k.analyzed, 1.0),
        ),
        ("greedy.ns_per_candidate", per(learned, k.candidates, 1e9)),
        (
            "greedy.compress_us_per_window",
            per(k.compress, k.learn.len() as u64, 1e6),
        ),
        ("tester.l2_us_per_window", per(k.l2, k.l2_windows, 1e6)),
        (
            "tester.l2_probes_per_window",
            per(k.probes as f64, k.l2_windows, 1.0),
        ),
        (
            "uniformity.us_per_window",
            per(k.uniformity, k.uniformity_windows, 1e6),
        ),
        ("drift.us_per_window", per(k.drift, k.drift_checks, 1e6)),
        ("fleet.report_us", per(fleet, e.fleet.len() as u64, 1e6)),
        ("uniformity.reject_frac", e.uniformity.fraction()),
        ("tester.l2_reject_frac", e.l2.fraction()),
        ("drift.alarm_frac", e.drift.fraction()),
        ("greedy.share", Some(analysis("learn") / e.wall)),
        ("analyses.share", Some(analyses / e.wall)),
        ("serve.windows_per_drain_p90", percentile(&drained, 90.0)),
        ("trace.coverage", Some(spans / e.wall)),
    ];
    let self_times = [
        ("app.read", e.read),
        ("app.parse", e.parse),
        ("app.render", e.render),
        ("app.write", e.write),
        ("engine", ingest - e.ingest_analyses + e.lifecycle),
        ("engine.flush", e.flush - e.flush_analyses),
        ("fleet", fleet),
        ("greedy", analysis("learn")),
        ("tester", analysis("test_l2")),
        ("uniformity", analysis("uniformity")),
        ("drift", analysis("drift")),
    ];
    let named = |pairs: Vec<(&str, Option<f64>)>| {
        Value::Map(
            pairs
                .into_iter()
                .map(|(name, value)| (name.to_string(), number(value)))
                .collect(),
        )
    };
    Value::map([
        ("wall_s", number(Some(e.wall))),
        ("kernel_wall_s", number(Some(k.wall))),
        ("records", e.records.serialize()),
        ("metrics", named(metrics)),
        (
            "self_s",
            named(self_times.iter().map(|&(n, s)| (n, Some(s))).collect()),
        ),
        (
            "checks",
            Value::map([
                ("streams_mismatched", (mismatched.len() as u64).serialize()),
                ("mismatched", mismatched.to_vec().serialize()),
                ("kernel_windows", k.analyzed.serialize()),
                ("kernel_mismatches", k.mismatches.serialize()),
                ("messages", k.messages.serialize()),
            ]),
        ),
    ])
}

/// `trace`: both passes, then one JSON line of per-layer metrics, self
/// times and checks.
pub fn run(flags: &Flags) -> Result<String, String> {
    let cfg = Config::from_flags(flags)?;
    if cfg.every == 0 || cfg.chunk == 0 {
        return Err("--every and --chunk must be positive".into());
    }
    let capture = load_capture(&cfg.cli)?;
    let (batch, budgets) = standing_batch(&capture, cfg.k, cfg.eps)?;
    let engine = engine_pass(&cfg, &batch)?;
    let mut mismatched: Vec<String> = capture
        .iter()
        .filter(|&(key, reports)| engine.reports.get(key) != Some(reports))
        .map(|(key, _)| key.clone())
        .collect();
    mismatched.extend(
        engine
            .reports
            .keys()
            .filter(|key| !capture.contains_key(*key))
            .cloned(),
    );
    let kernel = kernel_pass(&cfg, &batch, &budgets, &capture)?;
    to_json(&summary(&engine, &kernel, &mismatched))
}
