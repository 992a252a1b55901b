//! Support logic for the `khist` command-line tool.
//!
//! The binary in `src/bin/khist.rs` is a thin shell around these functions
//! so the argument handling, file parsing and report formatting are unit
//! tested like any other library code.
//!
//! Input format: one non-negative integer per line (blank lines and `#`
//! comments ignored) — the raw samples/records of a data set, exactly the
//! access model of the paper. The domain size is `max + 1` unless
//! overridden with `--n`.
//!
//! Every command is a thin shell over the typed analysis API
//! ([`khist_core::api`]). `learn`, `test` and `analyze` share one runner:
//! it builds one [`Analysis`] batch — `learn` alone, the `--norm` tester
//! alone, or `analyze`'s `--run` list — and runs it through one shared
//! [`SamplePlan`](khist_core::api::SamplePlan) — a single streaming pass
//! over the record file no matter how many analyses ride on it. `learn`,
//! `test`, `analyze` and `summarize` stream their record file through a
//! [`RecordFileOracle`] (fixed-size reservoirs, so a multi-million-line
//! file never gets materialized by the analyses). Randomness comes from
//! `--seed` (default 0), so every run is reproducible. `--json` swaps the
//! human rendering for the serde [`Report`] JSON.

use khist_core::api::{
    run_analyses, Analysis, AnalysisKind, Engine, FleetReport, Learn, LedgerEntry, Monitor,
    Monotone, Report, TestL1, TestL2, Uniformity, WindowReport,
};
use khist_core::monotone::monotonicity_budget;
use khist_core::uniformity::UniformityBudget;
use khist_oracle::{
    empirical_distribution, parse_record, L1TesterBudget, L2TesterBudget, LearnerBudget,
    RecordFileOracle, SampleOracle, SampleSet, Window,
};
use khist_serve::protocol::{parse_data_line, write_line, DataLine, Driver, Line, Sink};
use khist_serve::ServerConfig;
use serde::{Serialize, Value};

/// The analysis names `--run` accepts, listed verbatim in error messages.
const VALID_RUNS: &str = "learn, l1, l2, uniformity, monotone";

/// Every `khist` flag, at its default until [`parse_args`] sets it. The
/// parser accepts every flag for every subcommand; each subcommand reads
/// the fields it uses.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Input path (`-` = stdin for `watch`; empty for `serve`).
    pub path: String,
    /// Number of pieces for `learn`/`l1`/`l2` (`--k`).
    pub k: usize,
    /// Accuracy parameter (`--eps`).
    pub eps: f64,
    /// Domain size (`--n`; `0` = infer from a record file).
    pub n: usize,
    /// `test`'s norm, `"l1"` or `"l2"` (`--norm`).
    pub norm: String,
    /// RNG seed for the sampling oracle and the window reservoirs
    /// (`--seed`).
    pub seed: u64,
    /// Emit the serde reports as JSON instead of human text (`--json`).
    pub json: bool,
    /// Report cadence in records: the window span, or the step of a
    /// sliding window covering four steps (`--every`).
    pub every: u64,
    /// Sliding windows instead of tumbling ones (`--window`).
    pub sliding: bool,
    /// Which analyses to run (`--run learn,l2,uniformity`).
    pub runs: Vec<String>,
    /// Which of the two whitespace-separated fields per line is the
    /// stream key (`--key-field`; `None` = un-keyed single-stream input;
    /// `serve` copies it into `serve.key_field`, 0 when unset).
    pub key_field: Option<usize>,
    /// Worker shards stream keys are hashed onto (`--shards`; `1` =
    /// unsharded).
    pub shards: usize,
    /// Interleave fleet-level rollup lines next to the per-stream output:
    /// one after every chunk that reported a window, plus a final rollup
    /// after the tails (`--fleet`; keyed `watch` only).
    pub fleet: bool,
    /// `serve`'s reactor settings: `--socket`, `--control`, `--stdin`
    /// (implied when no `--socket` is given), `--batch`, `--flush-ms`,
    /// `--conn-buffer` and `--budget`, plus the key field.
    pub serve: ServerConfig,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            path: String::new(),
            k: 8,
            eps: 0.1,
            n: 0,
            norm: "l2".into(),
            seed: 0,
            json: false,
            every: 100_000,
            sliding: false,
            runs: vec!["learn".into(), "l2".into(), "uniformity".into()],
            key_field: None,
            shards: 1,
            fleet: false,
            serve: ServerConfig {
                stdin: false,
                ..ServerConfig::default()
            },
        }
    }
}

/// Parsed command-line request: a subcommand and its [`Options`].
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Learn a `k`-histogram from the samples in a file.
    Learn(Options),
    /// Test whether the file's distribution is a tiling `k`-histogram.
    Test(Options),
    /// Run a batch of analyses through one shared sample plan.
    Analyze(Options),
    /// Monitor a record stream push-style: windowed reports + drift.
    Watch(Options),
    /// Serve keyed ingest over Unix sockets / stdin: the reactor in
    /// [`khist_serve`], with `watch --key-field`'s analysis options.
    Serve(Options),
    /// Print summary statistics of the file's empirical distribution.
    Summarize(Options),
    /// Print usage.
    Help,
}

/// Parses CLI arguments (past the binary name).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let sub = match it.next() {
        None => return Ok(Command::Help),
        Some(s) => s.as_str(),
    };
    let mut o = Options::default();
    let mut path: Option<String> = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => {
                o.serve.socket = Some(it.next().ok_or("--socket requires a path")?.into())
            }
            "--control" => {
                o.serve.control = Some(it.next().ok_or("--control requires a path")?.into())
            }
            "--stdin" => o.serve.stdin = true,
            "--batch" => o.serve.batch_records = next_positive(&mut it, "--batch", "")?,
            "--flush-ms" => o.serve.flush_ms = next_parsed(&mut it, "--flush-ms")?,
            "--conn-buffer" => o.serve.conn_buffer = next_positive(&mut it, "--conn-buffer", "")?,
            "--budget" => o.serve.global_budget = next_positive(&mut it, "--budget", "")?,
            "--k" => o.k = next_parsed(&mut it, "--k")?,
            "--eps" => o.eps = next_parsed(&mut it, "--eps")?,
            "--n" => o.n = next_parsed(&mut it, "--n")?,
            "--seed" => o.seed = next_parsed(&mut it, "--seed")?,
            "--every" => o.every = next_positive(&mut it, "--every", "")?,
            "--key-field" => {
                let field: usize = next_parsed(&mut it, "--key-field")?;
                if field > 1 {
                    return Err(format!(
                        "--key-field must be 0 or 1 (keyed records carry exactly two \
                         whitespace-separated fields per line), got {field}"
                    ));
                }
                o.key_field = Some(field);
            }
            "--shards" => o.shards = next_positive(&mut it, "--shards", " (1 = unsharded)")?,
            "--json" => o.json = true,
            "--fleet" => o.fleet = true,
            "--norm" => {
                o.norm = it.next().ok_or("--norm requires a value")?.clone();
                if o.norm != "l1" && o.norm != "l2" {
                    return Err(format!("--norm must be l1 or l2, got {}", o.norm));
                }
            }
            "--window" => {
                let window = it.next().ok_or("--window requires a value")?.to_lowercase();
                if window != "tumbling" && window != "sliding" {
                    return Err(format!(
                        "--window must be tumbling or sliding, got {window}"
                    ));
                }
                o.sliding = window == "sliding";
            }
            "--run" => {
                let list = it.next().ok_or("--run requires a value")?;
                o.runs = list.split(',').map(|s| s.trim().to_lowercase()).collect();
                for run in &o.runs {
                    if !matches!(
                        run.as_str(),
                        "learn" | "l1" | "l2" | "uniformity" | "monotone"
                    ) {
                        return Err(format!(
                            "--run got unknown analysis '{run}'; valid analyses: {VALID_RUNS}"
                        ));
                    }
                }
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => {
                if path.replace(other.to_string()).is_some() {
                    return Err("multiple input paths given".into());
                }
            }
        }
    }
    let command: fn(Options) -> Command = match sub {
        "learn" => Command::Learn,
        "test" => Command::Test,
        "analyze" => Command::Analyze,
        "watch" => Command::Watch,
        "serve" => Command::Serve,
        "summarize" => Command::Summarize,
        "help" | "--help" | "-h" => return Ok(Command::Help),
        other => return Err(format!("unknown subcommand {other}")),
    };
    if sub == "watch" && o.key_field.is_none() {
        if o.shards > 1 {
            return Err(
                "--shards needs --key-field: sharding distributes keyed streams, and \
                 un-keyed input is a single stream"
                    .into(),
            );
        }
        if o.fleet {
            return Err(
                "--fleet needs --key-field: the fleet rollup aggregates keyed \
                 streams, and un-keyed input is a single stream"
                    .into(),
            );
        }
    }
    if sub == "serve" {
        if path.is_some() {
            return Err(
                "serve takes no input path: records arrive over --socket and/or stdin".into(),
            );
        }
        // No socket means stdin is the only possible source.
        o.serve.stdin |= o.serve.socket.is_none();
        o.serve.key_field = o.key_field.unwrap_or(0);
    } else {
        o.path = path.ok_or("missing input path")?;
    }
    let command = command(o);
    require_declared_domain(&command)?;
    Ok(command)
}

/// Rejects a command that needs an explicit `--n` and has none: keyed
/// `watch`, `watch -` and `serve` read input that no one can pre-scan to
/// infer its domain. [`parse_args`] checks this, so the CLI reports it as
/// a flag error; [`dispatch`] checks it again for commands built by hand.
fn require_declared_domain(command: &Command) -> Result<(), String> {
    match command {
        Command::Watch(o) if o.n == 0 && o.key_field.is_some() => Err(
            "watch --key-field needs an explicit --n: keyed records cannot be \
             pre-scanned by the record-file oracle to infer their domain"
                .into(),
        ),
        Command::Watch(o) if o.n == 0 && o.path == "-" => Err(
            "watch - (stdin) needs an explicit --n: a live stream cannot be \
             pre-scanned to infer its domain"
                .into(),
        ),
        Command::Serve(o) if o.n == 0 => Err(
            "serve needs an explicit --n: a live stream cannot be pre-scanned to \
             infer its domain"
                .into(),
        ),
        _ => Ok(()),
    }
}

/// [`next_parsed`], rejecting zero with `"{flag} must be positive{note}"`.
fn next_positive<'a, T: std::str::FromStr + Default + PartialEq>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
    note: &str,
) -> Result<T, String> {
    let value = next_parsed(it, flag)?;
    if value == T::default() {
        return Err(format!("{flag} must be positive{note}"));
    }
    Ok(value)
}

fn next_parsed<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<T, String> {
    it.next()
        .ok_or_else(|| format!("{flag} requires a value"))?
        .parse()
        .map_err(|_| format!("invalid value for {flag}"))
}

/// Renders a learn [`Report`] as the human piece table.
pub fn render_learn(report: &Report) -> String {
    let Some(histogram) = &report.histogram else {
        return format!("{report}\n");
    };
    let mut text = format!(
        "learned {}-piece histogram over [0, {}) from {} samples\n",
        histogram.piece_count(),
        report.n,
        report.samples_spent,
    );
    for (iv, v) in histogram.pieces() {
        text.push_str(&format!(
            "  [{:>6}, {:>6}]  density {:.6e}  mass {:.4}\n",
            iv.lo(),
            iv.hi(),
            v,
            v * iv.len() as f64
        ));
    }
    text
}

/// The tester's split of `available` records: `r` equal sets of `m`.
fn tester_split(available: usize) -> Result<(usize, usize), String> {
    let r = 7usize.min(available / 2).max(1);
    let m = available / r;
    if m < 2 {
        return Err("not enough samples to test".into());
    }
    Ok((r, m))
}

/// Renders a tester [`Report`] as the human verdict line.
pub fn render_test(report: &Report, k: usize) -> String {
    let norm = match report.analysis {
        AnalysisKind::TestL1 => "l1",
        _ => "l2",
    };
    let verdict = report
        .verdict
        .map(|v| format!("{v:?}"))
        .unwrap_or_else(|| "?".into());
    let cuts = if report.cuts.is_empty() {
        String::new()
    } else {
        format!(", cuts at {:?}", report.cuts)
    };
    format!(
        "{norm} tiling {k}-histogram test over [0, {}): {verdict} ({} samples, {} probes{cuts})\n",
        report.n,
        report.samples_spent,
        report.probes.unwrap_or(0),
    )
}

/// Builds the `analyze` batch from the `--run` list, every budget clamped
/// to the records actually available: the paper's learner budget with
/// Theorem 2 candidates, the testers' `r` equal sets.
fn analyze_batch(
    n: usize,
    k: usize,
    eps: f64,
    available: usize,
    runs: &[String],
) -> Result<Vec<Analysis>, String> {
    runs.iter()
        .map(|run| match run.as_str() {
            "learn" => {
                let budget = budget_for_data(n, k, eps, available)?;
                Ok(Learn::k(k).eps(eps).budget(budget).into())
            }
            "l1" => {
                let (r, m) = tester_split(available)?;
                Ok(TestL1::k(k).eps(eps).budget(L1TesterBudget { r, m }).into())
            }
            "l2" => {
                let (r, m) = tester_split(available)?;
                Ok(TestL2::k(k).eps(eps).budget(L2TesterBudget { r, m }).into())
            }
            "uniformity" => {
                let derived = UniformityBudget::calibrated(n, eps, 1.0).map_err(fmt_err)?;
                let m = derived.m.min(available).max(2);
                Ok(Uniformity::eps(eps).budget(UniformityBudget { m }).into())
            }
            "monotone" => {
                let m = monotonicity_budget(n, eps, 1.0)
                    .map_err(fmt_err)?
                    .min(available)
                    .max(1);
                Ok(Monotone::eps(eps).samples(m).into())
            }
            other => Err(format!(
                "unknown analysis '{other}'; valid analyses: {VALID_RUNS}"
            )),
        })
        .collect()
}

/// Runs an `analyze` batch against any [`SampleOracle`]: one shared
/// sample plan, one draw, all reports plus the run's ledger.
///
/// Each analysis's budget is clamped to `available` *individually*, but
/// the combined plan (max main + max sets across the batch) can still
/// exceed what a finite record file holds; in that case the streaming
/// backend fills every reservoir lane proportionally and the analyses run
/// on correspondingly fewer samples than their nominal budgets. That is
/// graceful degradation, not an error: the per-set-normalized testers
/// stay valid, and every `Report.samples_spent` / ledger entry records
/// the *actual* counts consumed, so under-sampling is visible.
#[allow(clippy::type_complexity)] // the oracle-threading signature is the API, not incidental
pub fn run_analyze_with<O: SampleOracle + ?Sized>(
    oracle: &mut O,
    k: usize,
    eps: f64,
    runs: &[String],
    available: usize,
    seed: u64,
) -> Result<(Vec<Report>, Vec<LedgerEntry>), String> {
    let batch = analyze_batch(oracle.domain_size(), k, eps, available, runs)?;
    run_analyses(oracle, seed, &batch).map_err(fmt_err)
}

/// The runner of `learn`, `test` and `analyze`: opens the record file and
/// runs `runs` through [`run_analyze_with`] — one pass over the file.
fn run_file(o: &Options, runs: &[String]) -> Result<(Vec<Report>, Vec<LedgerEntry>), String> {
    let mut oracle = RecordFileOracle::open(&o.path, o.n, o.seed).map_err(fmt_err)?;
    let available = oracle.records() as usize;
    let out = run_analyze_with(&mut oracle, o.k, o.eps, runs, available, o.seed)?;
    debug_assert_eq!(oracle.passes(), 1, "one pass per file command");
    Ok(out)
}

/// Renders an `analyze` run: one line per report, then the sample ledger.
pub fn render_analyze(reports: &[Report], ledger: &[LedgerEntry]) -> String {
    let n = reports.first().map_or(0, |r| r.n);
    let mut text = format!(
        "analyzed [0, {n}): {} analyses from one shared draw\n",
        reports.len()
    );
    for report in reports {
        text.push_str(&format!("  {report}\n"));
    }
    text.push_str("ledger:\n");
    for entry in ledger {
        text.push_str(&format!(
            "  {:<12} {:>10} samples  {:.3}s\n",
            entry.label, entry.samples, entry.seconds
        ));
    }
    text
}

/// Serializes a batch of reports as one JSON array (the `--json` output of
/// `khist analyze`).
pub fn reports_to_json(reports: &[Report]) -> String {
    let values: Vec<Value> = reports.iter().map(Serialize::serialize).collect();
    serde::json::to_string(&Value::Seq(values))
        .expect("reports serialize finite numbers only (non-finite statistics become null)")
}

/// How many steps a sliding `khist watch` window covers.
const SLIDING_STEPS: u64 = 4;

/// Renders one [`FleetReport`] as `watch --fleet`'s one-line human
/// summary (its JSON line is the [`Driver`]'s, `FLEET`'s reply).
pub fn render_fleet(report: &FleetReport) -> String {
    let mut text = format!(
        "fleet: {}/{} streams alarming, {} windows ({} partial), {} records, {} alarm windows",
        report.alarming_streams,
        report.streams,
        report.windows_complete + report.windows_partial,
        report.windows_partial,
        report.records_seen,
        report.alarm_windows,
    );
    if let (Some(p50), Some(p99)) = (report.drift_p50, report.drift_p99) {
        text.push_str(&format!(", drift p50 {p50:.3} p99 {p99:.3}"));
    }
    if let Some(top) = report.top_drift.first() {
        text.push_str(&format!(
            ", top drift {} ({:.3} @ window {})",
            top.stream, top.score, top.window
        ));
    }
    text.push('\n');
    text
}

/// The window policy `--every` and `--window` select (sliding windows
/// cover [`SLIDING_STEPS`] steps of `every`), and the standing batch
/// sized to the window's span — the setup `watch` and `serve` share.
fn window_and_batch(o: &Options) -> Result<(Window, Vec<Analysis>), String> {
    let every = o.every;
    let window = if o.sliding {
        let span = every
            .checked_mul(SLIDING_STEPS)
            .ok_or_else(|| format!("--every {every} overflows the sliding span"))?;
        Window::Sliding { span, step: every }
    } else {
        Window::Tumbling { span: every }
    };
    let (Window::Tumbling { span } | Window::Sliding { span, .. }) = window;
    let batch = analyze_batch(o.n, o.k, o.eps, span as usize, &o.runs)?;
    Ok((window, batch))
}

/// The sharded [`Engine`] keyed `watch` and `serve` run: one [`Monitor`]
/// per stream key over [`window_and_batch`]'s window and batch.
fn keyed_engine(o: &Options) -> Result<Engine, String> {
    let (window, batch) = window_and_batch(o)?;
    Engine::builder(o.n)
        .seed(o.seed)
        .shards(o.shards)
        .analyses(batch)
        .window(window)
        .build()
        .map_err(fmt_err)
}

/// Where `watch` writes: human text or JSON lines on `out`, each through
/// [`write_line`]. Once the consumer hangs up nothing more is written
/// and `open` turns false. It is keyed `watch`'s [`Sink`], `--fleet`
/// rollups included.
struct WatchSink<'a, W> {
    out: &'a mut W,
    json: bool,
    fleet: bool,
    open: bool,
}

impl<W: std::io::Write> Sink for WatchSink<'_, W> {
    fn emit(&mut self, line: Line<'_>) -> Result<(), String> {
        let text = match line {
            line if self.json => line.to_json(),
            Line::Window(report) => format!("{report}\n"),
            Line::Rollup(report, _) => render_fleet(report),
        };
        if self.open {
            self.open = write_line(self.out, &text).map_err(fmt_err)?;
        }
        Ok(())
    }

    fn wants_rollup(&self) -> bool {
        self.fleet
    }
}

/// Feeds `each` every line of `input` with its number, through one reused
/// buffer (no per-line allocation), until the input ends or `each`
/// returns `false`.
fn each_line<R: std::io::BufRead>(
    mut input: R,
    mut each: impl FnMut(&str, usize) -> Result<bool, String>,
) -> Result<(), String> {
    let mut line = String::with_capacity(256);
    for lineno in 1.. {
        line.clear();
        let read = input
            .read_line(&mut line)
            .map_err(|e| format!("read failed at line {lineno}: {e}"))?;
        if read == 0 || !each(&line, lineno)? {
            break;
        }
    }
    Ok(())
}

/// Streams records from `input` through a push-based [`Monitor`], writing
/// one report per completed window to `out` as soon as the 1,024-record
/// chunk that completes it is ingested, without waiting for EOF. A window
/// completed mid-chunk waits for the chunk to fill (or for EOF), so on a
/// slow source a report can lag its window by up to 1,023 records. The
/// final partial window is flushed at end of stream. Returns a human
/// summary line (empty in JSON mode, which emits pure JSONL).
///
/// Memory is bounded by the standing batch's sample plan — the stream is
/// never stored, so `watch` handles unbounded input.
pub fn run_watch<R: std::io::BufRead, W: std::io::Write>(
    input: R,
    out: &mut W,
    opts: &Options,
) -> Result<String, String> {
    if opts.n == 0 {
        return Err("watch needs a declared domain (--n)".into());
    }
    let mut sink = WatchSink {
        out,
        json: opts.json,
        fleet: opts.fleet,
        open: true,
    };
    if let Some(field) = opts.key_field {
        return run_watch_keyed(input, &mut sink, opts, field);
    }
    if opts.fleet {
        return Err(
            "--fleet needs --key-field: the fleet rollup aggregates keyed streams, and \
             un-keyed input is a single stream"
                .into(),
        );
    }
    let (window, batch) = window_and_batch(opts)?;
    let mut monitor = Monitor::builder(opts.n)
        .seed(opts.seed)
        .analyses(batch)
        .window(window)
        .build()
        .map_err(fmt_err)?;

    let mut windows = 0u64;
    let mut emit = |sink: &mut WatchSink<'_, W>, reports: Vec<WindowReport>| {
        windows += reports.len() as u64;
        reports.iter().try_for_each(|r| sink.emit(Line::Window(r)))
    };
    let mut buffer: Vec<usize> = Vec::with_capacity(1024);
    each_line(input, |line, lineno| {
        if let Some(value) = parse_record(line, lineno)? {
            buffer.push(value);
        }
        if buffer.len() >= 1024 {
            emit(&mut sink, monitor.ingest(&buffer).map_err(fmt_err)?)?;
            buffer.clear();
        }
        Ok(sink.open)
    })?;
    if sink.open {
        let mut reports = monitor.ingest(&buffer).map_err(fmt_err)?;
        reports.extend(monitor.flush());
        emit(&mut sink, reports)?;
    }
    if opts.json || !sink.open {
        return Ok(String::new());
    }
    Ok(format!(
        "watched {} records over {windows} windows ({} samples/window kept at most)\n",
        monitor.seen(),
        monitor.plan().total_samples().map_err(fmt_err)?,
    ))
}

/// The keyed flavour of [`run_watch`]: demultiplexes `key value` lines
/// onto a sharded [`Engine`] (one [`Monitor`] per stream key) and emits
/// every stream's window reports as they complete, tagged by stream.
/// Per-stream output is bit-identical for every `--shards` value; the
/// interleaving is deterministic (sorted by stream, then window, within
/// each ingested chunk).
///
/// Lines go through serve's data plane — the same framing, errors and
/// parse-time domain check ([`parse_data_line`]) and the same keyed
/// [`Driver`] — so a capture replayed here and pushed through `khist
/// serve` produces the same per-stream JSONL, failed windows included.
fn run_watch_keyed<R: std::io::BufRead, W: std::io::Write>(
    input: R,
    sink: &mut WatchSink<'_, W>,
    opts: &Options,
    field: usize,
) -> Result<String, String> {
    let mut driver = Driver::new(keyed_engine(opts)?);
    // Each chunk costs one mailbox round per busy shard, so the chunk must
    // be big enough to amortize the handoff: scale it with the shard count
    // so every worker gets thousands of records per round. Memory stays
    // bounded (chunk × ~word-sized records). A window's report waits for
    // its chunk to fill or for EOF, so on a slow source it can lag the
    // window by up to a chunk of records, more than a span when `--every`
    // is below 4,096 × shards.
    let chunk = 4096 * opts.shards;
    each_line(input, |line, lineno| {
        if let DataLine::Record { key, value } = parse_data_line(line, lineno, field, opts.n)? {
            driver.pending.push(key, value);
        }
        if driver.pending.len() >= chunk {
            driver.drain(sink)?;
        }
        Ok(sink.open)
    })?;
    if sink.open {
        driver.finish(sink)?;
    }
    if opts.json || !sink.open {
        return Ok(String::new());
    }
    let engine = driver.engine();
    Ok(format!(
        "watched {} records from {} streams over {} windows on {} shard{}\n",
        engine.seen(),
        engine.streams(),
        driver.windows(),
        engine.shards(),
        if engine.shards() == 1 { "" } else { "s" },
    ))
}

/// Renders `summarize`'s basic statistics of `set` over the domain `[0, n)`.
fn render_summary(set: &SampleSet, n: usize) -> Result<String, String> {
    let emp = empirical_distribution(set, n).map_err(fmt_err)?;
    Ok(format!(
        "samples: {}\ndomain: [0, {n})\ndistinct values: {}\nentropy: {:.4} nats (max {:.4})\ncollision rate ‖p̂‖₂²: {:.6e} (uniform floor {:.6e})\n",
        set.total(),
        set.distinct(),
        emp.entropy(),
        (n as f64).ln(),
        emp.l2_norm_sq(),
        1.0 / n as f64
    ))
}

/// Usage text for `help`.
pub fn usage() -> &'static str {
    "khist — k-histogram learning and testing from samples (PODS 2012)\n\
     \n\
     usage:\n\
     \x20 khist learn     <records.txt> [--k K] [--eps E] [--n N] [--seed S] [--json]\n\
     \x20 khist test      <records.txt> [--k K] [--eps E] [--n N] [--norm l1|l2] [--seed S] [--json]\n\
     \x20 khist analyze   <records.txt> [--k K] [--eps E] [--n N] [--seed S] [--json]\n\
     \x20                 [--run learn,l1,l2,uniformity,monotone]\n\
     \x20 khist watch     <records.txt|-> [--every N] [--window tumbling|sliding]\n\
     \x20                 [--key-field 0|1] [--shards N] [--fleet]\n\
     \x20                 [--k K] [--eps E] [--n N] [--seed S] [--json] [--run ...]\n\
     \x20 khist serve     --n N [--socket PATH] [--control PATH] [--stdin]\n\
     \x20                 [--key-field 0|1] [--shards N] [--every N] [--window ...]\n\
     \x20                 [--batch R] [--flush-ms MS] [--conn-buffer B] [--budget B]\n\
     \x20                 [--k K] [--eps E] [--seed S] [--run ...]\n\
     \x20 khist summarize <records.txt> [--n N]\n\
     \n\
     input: one integer record per line; '#' comments and blank lines ignored.\n\
     The domain defaults to [0, max_record]; override with --n.\n\
     learn/test/analyze stream the file through fixed-size reservoirs\n\
     (constant memory in the file length); --seed (default 0) fixes the\n\
     subsample. analyze runs its whole batch (default learn,l2,uniformity)\n\
     from ONE shared sample draw — a single pass over the file. --json\n\
     emits the structured report(s) instead of human text.\n\
     \n\
     watch ingests the stream push-style ('-' = stdin; stdin requires --n)\n\
     and reports every N records (--every, default 100000): the analysis\n\
     batch plus an l2 drift check against the previous window. Sliding\n\
     windows cover 4 steps of N. Memory stays bounded by the sample\n\
     budget however long the stream runs; --json emits one JSON object\n\
     per window (JSONL).\n\
     \n\
     keyed watch: with --key-field F (0 or 1), each line carries TWO\n\
     whitespace-separated fields — a stream key and an integer record;\n\
     field F is the key. Every key gets its own windows, reports and\n\
     drift baseline (per-stream cadence, reports tagged \"stream\"), and\n\
     --shards N (default 1, must be > 0) fans the streams across N worker\n\
     shards. Per-stream output is bit-identical for every shard count.\n\
     Keyed watch requires an explicit --n; --shards > 1 requires\n\
     --key-field. Un-keyed (single-field) lines are rejected with their\n\
     line number. --fleet (requires --key-field) interleaves fleet-level\n\
     rollup lines — stream/window/alarm counters, drift-severity\n\
     quantiles, the top drifting streams — after every chunk that\n\
     reported a window plus a final rollup after the tails; in JSON mode\n\
     these are {\"fleet\":true,...} JSONL lines, identical byte-for-byte\n\
     to serve's FLEET replies over the same records.\n\
     \n\
     serve runs keyed watch as a long-lived process: a single-threaded\n\
     reactor accepts 'key value' lines on a Unix socket (--socket) and/or\n\
     stdin, drains them into the sharded engine every --batch records or\n\
     --flush-ms milliseconds, and emits per-window JSONL on stdout —\n\
     bit-identical per stream to watch --key-field --json. A bad line\n\
     poisons only its own connection (ERR reply with the line number);\n\
     --conn-buffer and --budget bound per-connection and global buffering\n\
     (slow producers are parked, never buffered unboundedly). --control\n\
     opens a second socket answering STATS (fleet totals), STATS <key>\n\
     (mid-window snapshot + sample ledger), FLEET (the fleet rollup as\n\
     one {\"fleet\":true,...} JSON line — watch --fleet's closing line,\n\
     byte-for-byte), SUB (subscribe to the JSONL feed, fleet lines\n\
     included) and SHUTDOWN (flush tails in debut order, then exit).\n\
     With no --socket, serve reads stdin and exits at EOF.\n"
}

/// Clamps the paper's budget to the data actually available in the file.
fn budget_for_data(
    n: usize,
    k: usize,
    eps: f64,
    available: usize,
) -> Result<LearnerBudget, String> {
    let mut budget = LearnerBudget::calibrated(n, k, eps, 1.0).map_err(fmt_err)?;
    let total = budget.total_samples().map_err(fmt_err)?;
    if total > available {
        let scale = available as f64 / total as f64;
        budget = LearnerBudget::calibrated(n, k, eps, scale.clamp(1e-9, 1.0)).map_err(fmt_err)?;
        // The calibrated floors may still exceed tiny files; final clamp.
        while budget.total_samples().map_err(fmt_err)? > available && budget.r > 3 {
            budget.r -= 2;
        }
        // Data is scarcer than the paper's budget, so none of it should go
        // unused: the main sample absorbs whatever the collision sets leave.
        let fixed = budget.r * budget.m;
        if fixed < available {
            budget.ell = (available - fixed).max(16);
        }
    }
    Ok(budget)
}

fn fmt_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Entry point shared by the binary: dispatches a parsed command.
///
/// `learn`, `test`, `analyze` and `summarize` stream the record file
/// through a [`RecordFileOracle`] — the file is scanned once for
/// validation (domain violations against `--n` fail here with the
/// offending line) and then streamed per draw. `learn`, `test` and
/// `analyze` serve their batch from one draw, i.e. one pass; `summarize`
/// draws every record.
pub fn dispatch(cmd: Command) -> Result<String, String> {
    let open = |path: &str, n: usize, seed: u64| -> Result<RecordFileOracle, String> {
        RecordFileOracle::open(path, n, seed).map_err(fmt_err)
    };
    require_declared_domain(&cmd)?;
    match cmd {
        Command::Help => Ok(usage().to_string()),
        Command::Learn(o) => {
            let (reports, _) = run_file(&o, &["learn".into()])?;
            let report = &reports[0];
            Ok(if o.json {
                format!("{}\n", report.to_json())
            } else {
                render_learn(report)
            })
        }
        Command::Test(o) => {
            let (reports, _) = run_file(&o, std::slice::from_ref(&o.norm))?;
            let report = &reports[0];
            Ok(if o.json {
                format!("{}\n", report.to_json())
            } else {
                render_test(report, o.k)
            })
        }
        Command::Analyze(o) => {
            let (reports, ledger) = run_file(&o, &o.runs)?;
            Ok(if o.json {
                format!("{}\n", reports_to_json(&reports))
            } else {
                render_analyze(&reports, &ledger)
            })
        }
        Command::Watch(mut o) => {
            if o.n == 0 {
                // A file input can be pre-scanned the way `learn`/`test`
                // do it; reuse the oracle's validating scan.
                o.n = open(&o.path, 0, o.seed)?.domain_size();
            }
            let stdout = std::io::stdout();
            if o.path == "-" {
                let stdin = std::io::stdin();
                run_watch(stdin.lock(), &mut stdout.lock(), &o)
            } else {
                let file = std::fs::File::open(&o.path).map_err(|e| format!("{}: {e}", o.path))?;
                run_watch(std::io::BufReader::new(file), &mut stdout.lock(), &o)
            }
        }
        Command::Serve(o) => {
            let engine = keyed_engine(&o)?;
            let stdout = std::io::stdout();
            let summary = khist_serve::run(engine, o.serve, &mut stdout.lock())?;
            // Stdout is the JSONL window feed; the human summary goes to
            // stderr so the feed stays machine-parseable.
            eprintln!(
                "served {} records from {} streams over {} windows on {} shard{}",
                summary.records,
                summary.streams,
                summary.windows,
                summary.shards,
                if summary.shards == 1 { "" } else { "s" },
            );
            Ok(String::new())
        }
        Command::Summarize(o) => {
            let mut oracle = open(&o.path, o.n, 0)?;
            let set = oracle.draw_set(oracle.records() as usize);
            render_summary(&set, oracle.domain_size())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::io::Write;
    use std::path::Path;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// Writes samples to a unique temp record file.
    fn temp_file(samples: &[usize], tag: &str) -> String {
        let path = std::env::temp_dir().join(format!("khist-app-{tag}-{}.txt", std::process::id()));
        let mut f = std::fs::File::create(&path).expect("temp file writable");
        for &s in samples {
            writeln!(f, "{s}").unwrap();
        }
        path.to_string_lossy().into_owned()
    }

    /// Writes raw text to a unique temp record file.
    fn temp_text(text: &str, tag: &str) -> String {
        let path = std::env::temp_dir().join(format!("khist-app-{tag}-{}.txt", std::process::id()));
        std::fs::write(&path, text).expect("temp file writable");
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn parse_args_learn_defaults() {
        let cmd = parse_args(&strings(&["learn", "data.txt"])).unwrap();
        assert_eq!(
            cmd,
            Command::Learn(Options {
                path: "data.txt".into(),
                k: 8,
                eps: 0.1,
                n: 0,
                seed: 0,
                json: false,
                ..Options::default()
            })
        );
    }

    #[test]
    fn parse_args_flags() {
        let cmd = parse_args(&strings(&[
            "test", "d.txt", "--k", "4", "--eps", "0.3", "--norm", "l1", "--seed", "9", "--json",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Test(Options {
                path: "d.txt".into(),
                k: 4,
                eps: 0.3,
                n: 0,
                norm: "l1".into(),
                seed: 9,
                json: true,
                ..Options::default()
            })
        );
    }

    #[test]
    fn parse_args_analyze() {
        let cmd = parse_args(&strings(&["analyze", "d.txt", "--k", "3"])).unwrap();
        match cmd {
            Command::Analyze(o) => {
                assert_eq!(o.k, 3);
                assert!(!o.json);
                assert_eq!(o.runs, vec!["learn", "l2", "uniformity"]);
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse_args(&strings(&[
            "analyze",
            "d.txt",
            "--run",
            "l1,monotone",
            "--json",
        ]))
        .unwrap();
        match cmd {
            Command::Analyze(o) => {
                assert!(o.json);
                assert_eq!(o.runs, vec!["l1", "monotone"]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(&strings(&["analyze", "d.txt", "--run", "bogus"])).is_err());
    }

    #[test]
    fn parse_args_serve() {
        // No socket: stdin is implied.
        let cmd = parse_args(&strings(&["serve", "--n", "64"])).unwrap();
        match cmd {
            Command::Serve(o) => {
                let s = &o.serve;
                assert!(s.stdin && s.socket.is_none() && s.control.is_none());
                assert_eq!((s.key_field, s.batch_records, s.flush_ms), (0, 4096, 50));
            }
            other => panic!("unexpected {other:?}"),
        }
        // A socket suppresses implied stdin unless --stdin is explicit.
        let cmd = parse_args(&strings(&[
            "serve",
            "--n",
            "64",
            "--socket",
            "/tmp/k.sock",
            "--control",
            "/tmp/c.sock",
            "--key-field",
            "1",
            "--shards",
            "4",
            "--batch",
            "512",
            "--flush-ms",
            "10",
            "--conn-buffer",
            "1024",
            "--budget",
            "8192",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(o) => {
                let s = &o.serve;
                assert!(!s.stdin);
                assert_eq!(s.socket.as_deref(), Some(Path::new("/tmp/k.sock")));
                assert_eq!(s.control.as_deref(), Some(Path::new("/tmp/c.sock")));
                assert_eq!(
                    (
                        s.key_field,
                        o.shards,
                        s.batch_records,
                        s.flush_ms,
                        s.conn_buffer,
                        s.global_budget
                    ),
                    (1, 4, 512, 10, 1024, 8192)
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(&strings(&["serve", "extra.txt", "--n", "64"])).is_err());
        assert!(parse_args(&strings(&["serve", "--n", "64", "--batch", "0"])).is_err());
        assert!(parse_args(&strings(&["analyze"])).is_err());
    }

    #[test]
    fn parse_args_watch() {
        let cmd = parse_args(&strings(&[
            "watch", "-", "--every", "5000", "--window", "sliding", "--n", "64", "--json",
        ]))
        .unwrap();
        match cmd {
            Command::Watch(o) => {
                assert_eq!(o.path, "-");
                assert_eq!(o.every, 5000);
                assert!(o.sliding);
                assert_eq!(o.n, 64);
                assert!(o.json);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(&strings(&["watch", "-", "--every", "0"])).is_err());
        assert!(parse_args(&strings(&["watch", "-", "--window", "hopping"])).is_err());
        assert!(parse_args(&strings(&["watch"])).is_err());
    }

    #[test]
    fn run_errors_list_valid_analyses() {
        let err = parse_args(&strings(&["analyze", "d.txt", "--run", "bogus"])).unwrap_err();
        assert!(
            err.contains("bogus") && err.contains("learn, l1, l2, uniformity, monotone"),
            "unhelpful error: {err}"
        );
        // --run matching is case-insensitive.
        let cmd = parse_args(&strings(&["analyze", "d.txt", "--run", "Learn,L2"])).unwrap();
        match cmd {
            Command::Analyze(o) => assert_eq!(o.runs, vec!["learn", "l2"]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn watch_streams_windows_and_flushes_tail() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let p = khist_dist::generators::staircase(64, 4).unwrap();
        let samples = p.sample_many(10_500, &mut rng);
        let text: String = samples
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join("\n");
        let opts = Options {
            k: 4,
            eps: 0.25,
            n: 64,
            seed: 7,
            every: 4_000,
            sliding: false,
            runs: strings(&["learn", "l2", "uniformity"]),
            json: false,
            key_field: None,
            shards: 1,
            fleet: false,
            ..Options::default()
        };
        let mut out = Vec::new();
        let summary = run_watch(text.as_bytes(), &mut out, &opts).unwrap();
        let rendered = String::from_utf8(out).unwrap();
        // Two complete windows plus the flushed 2 500-record tail.
        assert_eq!(rendered.matches("window ").count(), 3, "{rendered}");
        assert!(rendered.contains("partial"), "{rendered}");
        assert!(rendered.contains("drift vs baseline window"), "{rendered}");
        assert!(summary.contains("10500 records"), "{summary}");
        assert!(summary.contains("3 windows"), "{summary}");
    }

    #[test]
    fn watch_json_emits_one_parsable_line_per_window() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let p = khist_dist::generators::staircase(64, 4).unwrap();
        let samples = p.sample_many(9_000, &mut rng);
        let text: String = samples
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join("\n");
        let opts = Options {
            k: 4,
            eps: 0.25,
            n: 64,
            seed: 3,
            every: 3_000,
            sliding: false,
            runs: strings(&["l2", "uniformity"]),
            json: true,
            key_field: None,
            shards: 1,
            fleet: false,
            ..Options::default()
        };
        let mut out = Vec::new();
        let summary = run_watch(text.as_bytes(), &mut out, &opts).unwrap();
        assert!(summary.is_empty(), "JSON mode must emit pure JSONL");
        let rendered = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            let report = WindowReport::from_json(line)
                .unwrap_or_else(|e| panic!("line {i} not a WindowReport: {e}\n{line}"));
            assert_eq!(report.window as usize, i);
            assert_eq!(report.reports.len(), 2);
            assert_eq!(report.drift.is_some(), i > 0);
        }
    }

    #[test]
    fn watch_rejects_streams_it_cannot_size() {
        let opts = Options {
            k: 2,
            eps: 0.3,
            n: 0,
            seed: 0,
            every: 100,
            sliding: false,
            runs: strings(&["uniformity"]),
            json: false,
            key_field: None,
            shards: 1,
            fleet: false,
            ..Options::default()
        };
        let mut out = Vec::new();
        let err = run_watch("1\n2\n".as_bytes(), &mut out, &opts).unwrap_err();
        assert!(err.contains("--n"), "{err}");

        let err = dispatch(Command::Watch(Options {
            path: "-".into(),
            k: 2,
            eps: 0.3,
            n: 0,
            seed: 0,
            every: 100,
            sliding: false,
            runs: strings(&["uniformity"]),
            json: false,
            key_field: None,
            shards: 1,
            fleet: false,
            ..Options::default()
        }))
        .unwrap_err();
        assert!(err.contains("--n") && err.contains("stdin"), "{err}");
    }

    #[test]
    fn watch_reports_bad_records_with_line_numbers() {
        let opts = Options {
            k: 2,
            eps: 0.3,
            n: 16,
            seed: 0,
            every: 100,
            sliding: false,
            runs: strings(&["uniformity"]),
            json: false,
            key_field: None,
            shards: 1,
            fleet: false,
            ..Options::default()
        };
        let mut out = Vec::new();
        let err = run_watch("1\nfoo\n".as_bytes(), &mut out, &opts).unwrap_err();
        assert!(err.contains("line 2") && err.contains("foo"), "{err}");
        let mut out = Vec::new();
        let err = run_watch("1\n99\n".as_bytes(), &mut out, &opts).unwrap_err();
        assert!(err.contains("record 99"), "{err}");
    }

    #[test]
    fn parse_args_keyed_watch_flags() {
        let cmd = parse_args(&strings(&[
            "watch",
            "-",
            "--key-field",
            "0",
            "--shards",
            "4",
            "--n",
            "64",
        ]))
        .unwrap();
        match cmd {
            Command::Watch(o) => {
                assert_eq!(o.key_field, Some(0));
                assert_eq!(o.shards, 4);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Flag hardening: --shards 0 and out-of-range --key-field are
        // rejected at parse time, --shards > 1 requires --key-field.
        let err = parse_args(&strings(&["watch", "-", "--shards", "0"])).unwrap_err();
        assert!(err.contains("--shards must be positive"), "{err}");
        let err = parse_args(&strings(&["watch", "-", "--key-field", "2"])).unwrap_err();
        assert!(err.contains("--key-field must be 0 or 1"), "{err}");
        let err = parse_args(&strings(&["watch", "-", "--shards", "2"])).unwrap_err();
        assert!(err.contains("--shards needs --key-field"), "{err}");
        // --fleet rides on keyed watch only.
        let err = parse_args(&strings(&["watch", "-", "--fleet", "--n", "64"])).unwrap_err();
        assert!(err.contains("--fleet needs --key-field"), "{err}");
        let cmd = parse_args(&strings(&[
            "watch",
            "-",
            "--key-field",
            "0",
            "--fleet",
            "--n",
            "64",
        ]))
        .unwrap();
        match cmd {
            Command::Watch(o) => assert!(o.fleet),
            other => panic!("unexpected {other:?}"),
        }
        // Documented in --help.
        let help = usage();
        assert!(
            help.contains("--key-field") && help.contains("--shards"),
            "{help}"
        );
        assert!(help.contains("--fleet") && help.contains("FLEET"), "{help}");
    }

    fn keyed_opts(shards: usize, json: bool) -> Options {
        Options {
            k: 2,
            eps: 0.25,
            n: 64,
            seed: 7,
            every: 1_000,
            sliding: false,
            runs: strings(&["l2", "uniformity"]),
            json,
            key_field: Some(0),
            shards,
            fleet: false,
            ..Options::default()
        }
    }

    /// Three interleaved tenant streams as `key value` lines.
    fn keyed_text(records: usize) -> String {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let p = khist_dist::generators::staircase(64, 2).unwrap();
        let keys = ["api", "web", "batch"];
        p.sample_many(records, &mut rng)
            .iter()
            .enumerate()
            .map(|(i, v)| format!("{} {v}", keys[i % keys.len()]))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn keyed_watch_demultiplexes_streams_and_shards_are_invisible() {
        let text = keyed_text(7_500); // 2 500 records per stream
        let run = |shards: usize| {
            let mut out = Vec::new();
            let summary = run_watch(text.as_bytes(), &mut out, &keyed_opts(shards, true)).unwrap();
            assert!(summary.is_empty(), "JSON mode emits pure JSONL");
            String::from_utf8(out).unwrap()
        };
        let single = run(1);
        let sharded = run(3);
        // Every line is a stream-tagged WindowReport; per-stream sequences
        // are in window order and bit-identical across shard counts (the
        // global interleaving may differ — chunk boundaries scale with the
        // shard count — but no stream's reports may).
        let parse = |text: &str| -> Vec<WindowReport> {
            text.lines()
                .map(|l| WindowReport::from_json(l).unwrap_or_else(|e| panic!("{e}: {l}")))
                .collect()
        };
        let (a, b) = (parse(&single), parse(&sharded));
        // 2 windows + 1 partial tail per stream.
        assert_eq!(a.len(), 9);
        assert_eq!(b.len(), 9);
        for key in ["api", "web", "batch"] {
            let of = |rs: &[WindowReport]| -> Vec<WindowReport> {
                rs.iter()
                    .filter(|w| w.stream.as_deref() == Some(key))
                    .cloned()
                    .collect()
            };
            let windows = of(&a);
            assert_eq!(windows, of(&b), "stream {key} must not change with shards");
            assert_eq!(windows.len(), 3, "stream {key}");
            assert!(windows[0].complete && windows[1].complete && !windows[2].complete);
            assert!(
                windows.windows(2).all(|w| w[0].window < w[1].window),
                "stream {key} reports in window order"
            );
            assert_eq!(windows[2].seen, 500, "flushed tail of stream {key}");
        }
        // Human rendering tags the stream too.
        let mut out = Vec::new();
        let summary = run_watch(text.as_bytes(), &mut out, &keyed_opts(2, false)).unwrap();
        let rendered = String::from_utf8(out).unwrap();
        assert!(rendered.contains("[api] window 0"), "{rendered}");
        assert!(summary.contains("3 streams"), "{summary}");
        assert!(summary.contains("2 shards"), "{summary}");
    }

    #[test]
    fn keyed_watch_fleet_interleaves_rollup_lines() {
        let text = keyed_text(7_500); // 2 500 records per stream
        let mut opts = keyed_opts(2, true);
        opts.fleet = true;
        let mut out = Vec::new();
        run_watch(text.as_bytes(), &mut out, &opts).unwrap();
        let rendered = String::from_utf8(out).unwrap();
        let (fleet_lines, stream_lines): (Vec<&str>, Vec<&str>) = rendered
            .lines()
            .partition(|l| FleetReport::is_fleet_line(l));
        // The per-stream feed is exactly what --fleet-less watch emits
        // (compared minus wall time, the one field that varies per run).
        let mut plain = Vec::new();
        run_watch(text.as_bytes(), &mut plain, &keyed_opts(2, true)).unwrap();
        let skeleton = |lines: &[&str]| -> Vec<(Option<String>, u64, u64, bool, bool)> {
            lines
                .iter()
                .map(|l| {
                    let w = WindowReport::from_json(l).unwrap_or_else(|e| panic!("{e}: {l}"));
                    (
                        w.stream.clone(),
                        w.window,
                        w.seen,
                        w.complete,
                        w.all_quiet(),
                    )
                })
                .collect()
        };
        let plain = String::from_utf8(plain).unwrap();
        assert_eq!(
            skeleton(&stream_lines),
            skeleton(&plain.lines().collect::<Vec<_>>()),
            "--fleet must not perturb the per-stream lines"
        );
        // Rollup lines parse, grow monotonically, and the closing one
        // covers the whole stream (tails included).
        assert!(!fleet_lines.is_empty());
        let rollups: Vec<FleetReport> = fleet_lines
            .iter()
            .map(|l| FleetReport::from_json(l).unwrap_or_else(|e| panic!("{e}: {l}")))
            .collect();
        for pair in rollups.windows(2) {
            assert!(pair[0].records_seen <= pair[1].records_seen);
        }
        let last = rollups.last().unwrap();
        assert_eq!(last.streams, 3);
        assert_eq!(last.records_seen, 7_500);
        assert_eq!(last.windows_partial, 3, "one flushed tail per stream");
        // Human mode renders the rollup as a prefixed summary line.
        let mut opts = keyed_opts(1, false);
        opts.fleet = true;
        let mut out = Vec::new();
        run_watch(text.as_bytes(), &mut out, &opts).unwrap();
        let rendered = String::from_utf8(out).unwrap();
        assert!(rendered.contains("fleet: "), "{rendered}");
        // Un-keyed --fleet is rejected even when the options are built
        // programmatically (parse_args already rejects the flag combo).
        let mut opts = keyed_opts(1, false);
        opts.key_field = None;
        opts.fleet = true;
        let mut out = Vec::new();
        let err = run_watch("1\n2\n".as_bytes(), &mut out, &opts).unwrap_err();
        assert!(err.contains("--fleet needs --key-field"), "{err}");
    }

    #[test]
    fn keyed_watch_rejects_unkeyed_input_with_line_numbers() {
        let opts = keyed_opts(1, false);
        let mut out = Vec::new();
        let err = run_watch("api 3\n17\n".as_bytes(), &mut out, &opts).unwrap_err();
        assert!(
            err.contains("line 2") && err.contains("un-keyed"),
            "unhelpful error: {err}"
        );
        let mut out = Vec::new();
        let err = run_watch("api 3 9\n".as_bytes(), &mut out, &opts).unwrap_err();
        assert!(
            err.contains("line 1") && err.contains("exactly two"),
            "{err}"
        );
        let mut out = Vec::new();
        let err = run_watch("api foo\n".as_bytes(), &mut out, &opts).unwrap_err();
        assert!(err.contains("line 1") && err.contains("foo"), "{err}");
        // Out-of-domain records fail at parse time, naming their line.
        let mut out = Vec::new();
        let err = run_watch("api 3\nweb 99\n".as_bytes(), &mut out, &opts).unwrap_err();
        assert!(err.contains("line 2") && err.contains("record 99"), "{err}");
        // --key-field 1 swaps the roles: "value key" lines.
        let mut opts = keyed_opts(1, false);
        opts.key_field = Some(1);
        let mut out = Vec::new();
        assert!(run_watch("3 api\n".as_bytes(), &mut out, &opts).is_ok());

        // Keyed watch cannot infer a domain: dispatch demands --n.
        let err = dispatch(Command::Watch(Options {
            path: "-".into(),
            k: 2,
            eps: 0.3,
            n: 0,
            seed: 0,
            every: 100,
            sliding: false,
            runs: strings(&["uniformity"]),
            json: false,
            key_field: Some(0),
            shards: 2,
            fleet: false,
            ..Options::default()
        }))
        .unwrap_err();
        assert!(err.contains("--n") && err.contains("key"), "{err}");
    }

    #[test]
    fn keyed_watch_emits_partial_tails_in_debut_order() {
        // No stream ever completes a window (every = 1_000, 300 records
        // each), so everything the command emits is flushed tails. Those
        // must come out in *debut* order — "web" connected first — not
        // lexicographic order (which would put "api" first), and
        // regardless of the shard count.
        let mut text = String::new();
        for i in 0..300 {
            text.push_str(&format!("web {}\napi {}\n", (i * 7) % 64, (i * 11) % 64));
        }
        for shards in [1usize, 2] {
            let mut out = Vec::new();
            run_watch(text.as_bytes(), &mut out, &keyed_opts(shards, true)).unwrap();
            let rendered = String::from_utf8(out).unwrap();
            let tails: Vec<WindowReport> = rendered
                .lines()
                .map(|l| WindowReport::from_json(l).unwrap_or_else(|e| panic!("{e}: {l}")))
                .collect();
            let order: Vec<&str> = tails.iter().filter_map(|w| w.stream.as_deref()).collect();
            assert_eq!(order, ["web", "api"], "debut order @ {shards} shards");
            assert!(tails.iter().all(|w| !w.complete && w.seen == 300));
        }
    }

    #[test]
    fn parse_args_seed_flag() {
        let cmd = parse_args(&strings(&["learn", "d.txt", "--seed", "12345"])).unwrap();
        match cmd {
            Command::Learn(o) => assert_eq!(o.seed, 12345),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(&strings(&["learn", "d.txt", "--seed"])).is_err());
        assert!(parse_args(&strings(&["learn", "d.txt", "--seed", "-1"])).is_err());
    }

    #[test]
    fn parse_args_errors() {
        assert!(parse_args(&strings(&["learn"])).is_err());
        assert!(parse_args(&strings(&["learn", "a", "b"])).is_err());
        assert!(parse_args(&strings(&["learn", "a", "--k"])).is_err());
        assert!(parse_args(&strings(&["learn", "a", "--k", "x"])).is_err());
        assert!(parse_args(&strings(&["learn", "a", "--bogus", "1"])).is_err());
        assert!(parse_args(&strings(&["test", "a", "--norm", "l3"])).is_err());
        assert!(parse_args(&strings(&["frobnicate", "a"])).is_err());
        // A missing `--n` that the input cannot supply is a flag error.
        for args in [
            &["watch", "keyed.txt", "--key-field", "0"][..],
            &["watch", "-"],
            &["serve"],
            &["serve", "--n", "0"],
        ] {
            let err = parse_args(&strings(args)).unwrap_err();
            assert!(err.contains("needs an explicit --n"), "{args:?}: {err}");
        }
    }

    #[test]
    fn parse_args_empty_is_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&strings(&["help"])).unwrap(), Command::Help);
    }

    #[test]
    fn parse_samples_handles_comments_and_blanks() {
        // Record files skip `#` comments and blank lines and trim padding.
        let path = temp_text("# header\n3\n\n 7 \n0\n", "comments");
        let mut oracle = RecordFileOracle::open(&path, 0, 1).unwrap();
        assert_eq!(oracle.records(), 3);
        assert_eq!(oracle.domain_size(), 8);
        assert_eq!(oracle.draw_set(3), SampleSet::from_samples(vec![3, 7, 0]));
        let summary = dispatch(Command::Summarize(Options {
            path: path.clone(),
            n: 0,
            ..Options::default()
        }))
        .unwrap();
        assert!(summary.contains("samples: 3\ndomain: [0, 8)"), "{summary}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_samples_rejects_garbage() {
        for (tag, text, expect) in [
            ("garbage", "1\nfoo\n", "line 2: not an integer record: foo"),
            ("negative", "-3\n", "line 1: not an integer record: -3"),
            ("empty", "", "no records in input"),
            ("only-comments", "# only comments\n", "no records in input"),
        ] {
            let path = temp_text(text, tag);
            let err = dispatch(Command::Summarize(Options {
                path: path.clone(),
                n: 0,
                ..Options::default()
            }))
            .unwrap_err();
            assert!(err.contains(expect), "{tag}: {err}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn dispatch_learn_streams_record_file() {
        // The full CLI path: record file → RecordFileOracle → analysis API.
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let p = khist_dist::generators::two_level(64, 0.25, 0.75).unwrap();
        let path = temp_file(&p.sample_many(30_000, &mut rng), "learn");
        let learn = |json: bool| {
            Command::Learn(Options {
                path: path.clone(),
                k: 2,
                eps: 0.15,
                n: 64,
                seed: 7,
                json,
                ..Options::default()
            })
        };
        let report = dispatch(learn(false)).unwrap();
        assert!(report.contains("2-piece"), "report: {report}");
        assert!(report.contains("[0, 64)"), "report: {report}");
        // Reproducible: the same seed yields the same report.
        let again = dispatch(learn(false)).unwrap();
        assert_eq!(report, again);
        // --json emits the structured report and round-trips.
        let json = dispatch(learn(true)).unwrap();
        let parsed = Report::from_json(json.trim()).unwrap();
        assert_eq!(parsed.analysis, AnalysisKind::Learn);
        assert_eq!(parsed.seed, 7);
        assert!(parsed.histogram.is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dispatch_test_streams_record_file() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let flat = khist_dist::generators::staircase(64, 4).unwrap();
        let path = temp_file(&flat.sample_many(100_000, &mut rng), "test");
        let verdict = dispatch(Command::Test(Options {
            path: path.clone(),
            k: 4,
            eps: 0.25,
            n: 64,
            norm: "l2".into(),
            seed: 3,
            json: false,
            ..Options::default()
        }))
        .unwrap();
        assert!(verdict.contains("Accept"), "{verdict}");
        let json = dispatch(Command::Test(Options {
            path: path.clone(),
            k: 4,
            eps: 0.25,
            n: 64,
            norm: "l2".into(),
            seed: 3,
            json: true,
            ..Options::default()
        }))
        .unwrap();
        let parsed = Report::from_json(json.trim()).unwrap();
        assert_eq!(parsed.analysis, AnalysisKind::TestL2);
        assert!(parsed.accepted(), "{json}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn end_to_end_test_verdicts() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let verdict = |samples: &[usize], k: usize, eps: f64, tag: &str| {
            let path = temp_file(samples, tag);
            let verdict = dispatch(Command::Test(Options {
                path: path.clone(),
                k,
                eps,
                n: 64,
                norm: "l2".into(),
                seed: 3,
                json: false,
                ..Options::default()
            }))
            .unwrap();
            std::fs::remove_file(&path).ok();
            verdict
        };
        let flat = khist_dist::generators::staircase(64, 4).unwrap();
        let samples = flat.sample_many(100_000, &mut rng);
        let v = verdict(&samples, 4, 0.25, "verdict-flat");
        assert!(v.contains("Accept"), "{v}");

        // A spike comb is far from every 2-histogram.
        let spiky = khist_dist::generators::spike_comb(64, 8).unwrap();
        let samples = spiky.sample_many(100_000, &mut rng);
        let v = verdict(&samples, 2, 0.2, "verdict-spiky");
        assert!(v.contains("Reject"), "{v}");
    }

    #[test]
    fn dispatch_analyze_runs_batch_from_one_pass() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        let p = khist_dist::generators::staircase(64, 4).unwrap();
        let path = temp_file(&p.sample_many(60_000, &mut rng), "analyze");
        let human = dispatch(Command::Analyze(Options {
            path: path.clone(),
            k: 4,
            eps: 0.25,
            n: 64,
            seed: 5,
            json: false,
            runs: strings(&["learn", "l2", "uniformity", "monotone"]),
            ..Options::default()
        }))
        .unwrap();
        assert!(human.contains("4 analyses"), "{human}");
        assert!(human.contains("ledger:"), "{human}");
        assert!(human.contains("draw"), "{human}");

        let json = dispatch(Command::Analyze(Options {
            path: path.clone(),
            k: 4,
            eps: 0.25,
            n: 64,
            seed: 5,
            json: true,
            runs: strings(&["learn", "l2", "uniformity"]),
            ..Options::default()
        }))
        .unwrap();
        let value = serde::json::from_str(json.trim()).expect("valid JSON");
        let reports = value.as_seq().expect("JSON array");
        assert_eq!(reports.len(), 3);
        let kinds: Vec<&str> = reports
            .iter()
            .map(|r| r.get("analysis").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(kinds, ["learn", "test_l2", "uniformity"]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn analyze_on_oracle_is_one_pass() {
        // The shared-plan guarantee at the app layer: a whole batch costs
        // the streaming backend exactly one pass after open's scan.
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let p = khist_dist::generators::staircase(64, 4).unwrap();
        let path = temp_file(&p.sample_many(40_000, &mut rng), "onepass");
        let mut oracle = RecordFileOracle::open(&path, 64, 9).unwrap();
        let available = oracle.records() as usize;
        let runs = strings(&["learn", "l2", "uniformity"]);
        let (reports, ledger) =
            run_analyze_with(&mut oracle, 4, 0.25, &runs, available, 9).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(oracle.passes(), 1, "batch must cost exactly one pass");
        assert_eq!(ledger.iter().filter(|e| e.label == "draw").count(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dispatch_learn_rejects_out_of_domain_record() {
        // An explicit --n smaller than a record must produce a clear error
        // (not a panic deep inside sample-set construction).
        let path = temp_file(&[1, 2, 99], "baddomain");
        let err = dispatch(Command::Learn(Options {
            path: path.clone(),
            k: 2,
            eps: 0.2,
            n: 50,
            seed: 0,
            json: false,
            ..Options::default()
        }))
        .unwrap_err();
        assert!(
            err.contains("record 99") && err.contains("[0, 50)"),
            "unhelpful error: {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn summarize_reports_entropy() {
        let samples: Vec<usize> = (0..64).flat_map(|v| std::iter::repeat_n(v, 10)).collect();
        let path = temp_file(&samples, "summarize");
        let report = dispatch(Command::Summarize(Options {
            path: path.clone(),
            n: 0,
            ..Options::default()
        }))
        .unwrap();
        assert!(report.contains("samples: 640"), "{report}");
        assert!(report.contains("distinct values: 64"), "{report}");
        assert!(report.contains("entropy"), "{report}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn budget_respects_available_data() {
        let b = budget_for_data(256, 4, 0.1, 5_000).unwrap();
        assert!(
            b.total_samples().unwrap() <= 5_000 || b.r == 3,
            "budget {} exceeds data 5000 with r = {}",
            b.total_samples().unwrap(),
            b.r
        );
    }

    #[test]
    fn dispatch_help() {
        let text = dispatch(Command::Help).unwrap();
        assert!(text.contains("usage"));
        assert!(text.contains("--seed"));
        assert!(text.contains("analyze"));
        assert!(text.contains("--json"));
    }

    #[test]
    fn dispatch_missing_file() {
        let err = dispatch(Command::Summarize(Options {
            path: "/nonexistent/x.txt".into(),
            n: 0,
            ..Options::default()
        }))
        .unwrap_err();
        assert!(err.contains("/nonexistent/x.txt"));

        let err = dispatch(Command::Learn(Options {
            path: "/nonexistent/x.txt".into(),
            k: 2,
            eps: 0.2,
            n: 0,
            seed: 0,
            json: false,
            ..Options::default()
        }))
        .unwrap_err();
        assert!(err.contains("/nonexistent/x.txt"));
    }
}
