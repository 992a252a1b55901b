//! Line protocols: data-plane record framing and buffering, the keyed
//! driver, the control-plane request language, plus the JSON rendering
//! of control replies.
//!
//! The data plane is shared with `khist watch --key-field`, which parses
//! its input with [`parse_data_line`] and runs it through the same
//! [`Driver`]: two whitespace-separated fields per line, blank lines and
//! `#` comments skipped — so a file replayed through `watch` and the same
//! records pushed through a socket produce bit-identical per-stream
//! JSONL, failing windows included. Each record is validated against the
//! declared domain *at parse time*: the engine ingests batches from many
//! connections at once, and a domain error surfacing there could not be
//! pinned on the connection (and line) that sent it.

use std::fmt::Write;

use khist_core::api::{Engine, FleetReport, WindowReport};
use serde::{Serialize, Value};

/// One parsed data-plane line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataLine<'a> {
    /// A keyed record: `key` borrowed from the input line.
    Record {
        /// The stream key field.
        key: &'a str,
        /// The record value, already domain-checked.
        value: usize,
    },
    /// A blank line or `#` comment — skipped, but still numbered.
    Skip,
}

/// Parses one data line (`key value`, or `value key` for `field == 1`),
/// with the parse-time domain check described in the
/// [module docs](self).
///
/// Errors are the one-line human messages sent back as
/// `ERR line <n>: …` replies.
pub fn parse_data_line(
    line: &str,
    lineno: usize,
    field: usize,
    n: usize,
) -> Result<DataLine<'_>, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(DataLine::Skip);
    }
    let mut fields = trimmed.split_whitespace();
    let (Some(first), Some(second)) = (fields.next(), fields.next()) else {
        return Err(format!(
            "line {lineno}: keyed records carry two whitespace-separated fields (key and \
             value), got an un-keyed line: {trimmed}"
        ));
    };
    if fields.next().is_some() {
        let total = 3 + fields.count();
        return Err(format!(
            "line {lineno}: keyed records carry exactly two fields (key and value), got \
             {total}: {trimmed}"
        ));
    }
    let (key, value_text) = if field == 0 {
        (first, second)
    } else {
        (second, first)
    };
    let value: usize = value_text
        .parse()
        .map_err(|_| format!("line {lineno}: not an integer record: {value_text}"))?;
    if value >= n {
        return Err(format!(
            "line {lineno}: record {value} outside the declared domain [0, {n})"
        ));
    }
    Ok(DataLine::Record { key, value })
}

/// Parsed-but-uningested records: keys in one arena addressed by spans,
/// exactly the zero-copy shape [`Engine::ingest_batch`] wants. A
/// [`Driver`] buffers through it between drains: `khist serve`'s
/// size-or-deadline drains, and `khist watch --key-field`'s chunks.
#[derive(Debug, Default)]
pub struct Pending {
    arena: String,
    spans: Vec<(usize, usize, usize)>,
    bytes: usize,
}

/// Per-record bookkeeping overhead charged against the global budget on
/// top of the key bytes (span + value storage).
const RECORD_OVERHEAD: usize = 24;

impl Pending {
    /// Buffers one record, copying its key into the arena.
    pub fn push(&mut self, key: &str, value: usize) {
        let start = self.arena.len();
        self.arena.push_str(key);
        self.spans.push((start, self.arena.len(), value));
        self.bytes += key.len() + RECORD_OVERHEAD;
    }

    /// Whether no record is buffered.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Buffered records.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Buffered bytes as serve's global budget counts them: key bytes
    /// plus a fixed per-record overhead.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Ingests every buffered record as one batch and empties the buffer
    /// (keeping its capacity), returning the windows the batch completed.
    fn drain_into(&mut self, engine: &mut Engine) -> Result<Vec<WindowReport>, String> {
        let records: Vec<(&str, usize)> = self
            .spans
            .iter()
            .map(|&(start, end, value)| (self.arena.get(start..end).unwrap_or(""), value))
            .collect();
        let result = engine.ingest_batch(&records).map_err(|e| e.to_string());
        self.spans.clear();
        self.arena.clear();
        self.bytes = 0;
        result
    }
}

/// One line a [`Driver`] emits.
#[derive(Debug, Clone, Copy)]
pub enum Line<'a> {
    /// A window report, failed windows included.
    Window(&'a WindowReport),
    /// The fleet rollup and its `{"fleet":true,…}` line.
    Rollup(&'a FleetReport, &'a str),
}

impl Line<'_> {
    /// The line as JSON, newline included: how `khist serve` and `khist
    /// watch --key-field --json` print it.
    pub fn to_json(self) -> String {
        match self {
            Line::Window(report) => format!("{}\n", report.to_json()),
            Line::Rollup(_, line) => line.to_string(),
        }
    }
}

/// Writes one line and flushes it, so live output never waits in a
/// buffer. `Ok(false)` means the consumer hung up (broken pipe): for a
/// streaming tool that is a normal way to stop (`khist watch … | head`),
/// not an error.
pub fn write_line(out: &mut impl std::io::Write, line: &str) -> std::io::Result<bool> {
    match out.write_all(line.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(false),
        Err(e) => Err(e),
    }
}

/// Where a [`Driver`]'s lines go: a keyed front end says only how it
/// renders and delivers them.
pub trait Sink {
    /// Emits one line.
    fn emit(&mut self, line: Line<'_>) -> Result<(), String>;
    /// Whether a fleet rollup would reach anyone now; the driver builds
    /// none that no one takes.
    fn wants_rollup(&self) -> bool;
}

/// The keyed sequence `khist watch --key-field` and `khist serve` share,
/// over the [`Engine`] and a [`Pending`] buffer. Each front end keeps its
/// input loop (when to [`drain`](Driver::drain)) and a [`Sink`] (where
/// lines go); the driver does the rest, the same way for both:
///
/// 1. a drain is one [`Engine::ingest_batch`] call over the buffer;
/// 2. it emits one line per window report;
/// 3. then a rollup, when the drain reported a window;
/// 4. at the end, [`finish`](Driver::finish) drains once more, flushes
///    the tails in debut order, and emits the closing rollup.
///
/// **One failure unit, the window.** A window whose analysis fails (a
/// tester lane its sub-linear sample left empty, say) is a window line
/// like any other, with the reason in its `error` field, so one stream's
/// starved window never stops the others and what it costs does not
/// depend on where drains fall. An engine error (a pane whose lane
/// reservation the allocator refuses) is returned as `Err`: the engine
/// delivers none of that call's windows, so the run ends there.
///
/// The rollup is built once per fleet change. Only a call that debuted a
/// stream, reported a window or failed can change it, so between such
/// calls every rollup and [`fleet_line`](Driver::fleet_line) reuses the
/// last one.
pub struct Driver {
    /// The records buffered for the next drain.
    pub pending: Pending,
    engine: Engine,
    /// The rollup and its line as last built; `None` once a call may
    /// have changed them.
    rollup: Option<(FleetReport, String)>,
    windows: u64,
}

impl Driver {
    /// A driver over `engine`, with nothing buffered.
    pub fn new(engine: Engine) -> Driver {
        Driver {
            pending: Pending::default(),
            engine,
            rollup: None,
            windows: 0,
        }
    }

    /// The engine, for control-plane queries.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The engine, for calls that leave the fleet as it is (a `STATS
    /// <key>` snapshot).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Window reports emitted so far (completed windows plus tails).
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// The fleet rollup as one `{"fleet":true,…}` line: `FLEET`'s reply,
    /// and `khist watch --fleet --json`'s rollup line, byte for byte.
    pub fn fleet_line(&mut self) -> &str {
        &self.rollup().1
    }

    /// Ingests the buffered records as one batch and emits its window
    /// lines and, when there were any, a rollup.
    pub fn drain(&mut self, sink: &mut impl Sink) -> Result<(), String> {
        let streams = self.engine.streams();
        let outcome = self.pending.drain_into(&mut self.engine);
        if self.engine.streams() != streams || outcome.is_err() {
            self.rollup = None;
        }
        if self.emit(&outcome?, sink)? {
            self.emit_rollup(sink)?;
        }
        Ok(())
    }

    /// Ends the run: a last drain (of a possibly empty buffer), every
    /// stream's tail in debut order, then the closing rollup.
    pub fn finish(&mut self, sink: &mut impl Sink) -> Result<(), String> {
        self.drain(sink)?;
        let tails = self.engine.flush_debut_ordered();
        self.emit(&tails.map_err(|e| e.to_string())?, sink)?;
        self.emit_rollup(sink)
    }

    /// Emits a line per report and returns whether there was one.
    fn emit(&mut self, reports: &[WindowReport], sink: &mut impl Sink) -> Result<bool, String> {
        if !reports.is_empty() {
            self.rollup = None;
        }
        for report in reports {
            sink.emit(Line::Window(report))?;
            self.windows += 1;
        }
        Ok(!reports.is_empty())
    }

    /// Emits the rollup, when the sink takes one.
    fn emit_rollup(&mut self, sink: &mut impl Sink) -> Result<(), String> {
        if sink.wants_rollup() {
            let (report, line) = self.rollup();
            sink.emit(Line::Rollup(report, line))?;
        }
        Ok(())
    }

    /// The rollup and its line, built again only after a change.
    fn rollup(&mut self) -> &(FleetReport, String) {
        let engine = &self.engine;
        self.rollup.get_or_insert_with(|| {
            let report = engine.fleet_report();
            let line = format!("{}\n", report.to_json());
            (report, line)
        })
    }
}

/// One parsed control-plane request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlRequest<'a> {
    /// `STATS` — fleet totals plus per-stream `seen`, debut order.
    Stats,
    /// `STATS <key>` — one stream's mid-window snapshot + ledger.
    StatsKey(&'a str),
    /// `SUB` — subscribe this connection to the JSONL window feed.
    Subscribe,
    /// `FLEET` — the fleet rollup as one `{"fleet":true,…}` JSON line.
    Fleet,
    /// `SHUTDOWN` — flush all tails (debut order) and exit.
    Shutdown,
}

/// Parses one control line; `Ok(None)` for blanks and `#` comments.
pub fn parse_control_line(line: &str, lineno: usize) -> Result<Option<ControlRequest<'_>>, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let mut fields = trimmed.split_whitespace();
    let verb = fields.next().unwrap_or("");
    let arg = fields.next();
    if fields.next().is_some() {
        return Err(format!(
            "line {lineno}: control requests carry at most one argument: {trimmed}"
        ));
    }
    match (verb, arg) {
        ("STATS", None) => Ok(Some(ControlRequest::Stats)),
        ("STATS", Some(key)) => Ok(Some(ControlRequest::StatsKey(key))),
        ("SUB", None) => Ok(Some(ControlRequest::Subscribe)),
        ("FLEET", None) => Ok(Some(ControlRequest::Fleet)),
        ("SHUTDOWN", None) => Ok(Some(ControlRequest::Shutdown)),
        _ => Err(format!(
            "line {lineno}: unknown control request (expected STATS, STATS <key>, SUB, \
             FLEET, or SHUTDOWN): {trimmed}"
        )),
    }
}

/// Renders a [`Value`] as one reply line; serialization cannot fail for
/// the values this module builds (every float routes through
/// `finite_or_null`), but a `Result` stays a `Result`.
fn reply_line(value: &Value) -> String {
    match serde::json::to_string(value) {
        Ok(text) => format!("{text}\n"),
        Err(e) => format!("{{\"error\":\"unserializable reply: {e}\"}}\n"),
    }
}

/// The `STATS` reply: one JSON line of fleet totals plus debut-ordered
/// per-stream `seen` counts, straight off the engine's control-plane
/// accessors (nothing is recomputed from window reports), written
/// straight into one `String`.
pub fn stats_summary(engine: &Engine) -> String {
    let mut line = format!(
        "{{\"streams\":{},\"records\":{},\"windows\":{},\"shards\":{},\"per_stream\":[",
        engine.streams(),
        engine.seen(),
        engine.windows(),
        engine.shards(),
    );
    for (i, (key, seen)) in engine.stream_seen().into_iter().enumerate() {
        line.push_str(if i == 0 { "{\"key\":" } else { ",{\"key\":" });
        serde::json::write_string(key, &mut line);
        let _ = write!(line, ",\"seen\":{seen}}}");
    }
    line.push_str("]}\n");
    line
}

/// The `STATS <key>` reply: one JSON line holding the stream's
/// coordinates, an on-demand snapshot (the standing batch run against
/// the current partial window via [`Engine::snapshot`]) and the
/// stream's retained sample ledger ([`Engine::ledger`]).
///
/// A snapshot can legitimately fail — an empty partial window has
/// nothing to analyze — so the reply carries either `snapshot` (a
/// report array) or `snapshot_error` (a message), never both.
pub fn stats_key(engine: &mut Engine, key: &str) -> String {
    let Some(state) = engine.stream_state(key) else {
        return reply_line(&Value::map([(
            "error",
            Value::Str(format!("unknown stream key: {key}")),
        )]));
    };
    let seen = state.seen();
    let windows = state.windows();
    let shard = engine.shard_of(key);
    let analyses = engine.analyses().to_vec();
    let (snapshot, snapshot_error) = match engine.snapshot(key, &analyses) {
        Ok(reports) => (
            Value::Seq(reports.iter().map(Serialize::serialize).collect()),
            Value::Null,
        ),
        Err(e) => (Value::Null, Value::Str(e.to_string())),
    };
    let ledger: Vec<Value> = engine
        .ledger(key)
        .unwrap_or(&[])
        .iter()
        .map(Serialize::serialize)
        .collect();
    reply_line(&Value::map([
        ("key", Value::Str(key.to_string())),
        ("shard", shard.serialize()),
        ("seen", seen.serialize()),
        ("windows", windows.serialize()),
        ("snapshot", snapshot),
        ("snapshot_error", snapshot_error),
        ("ledger", Value::Seq(ledger)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// What the parser properties build lines from: keys, verbs,
    /// separators, digits, and the inputs a parser trips on (NUL,
    /// non-ASCII digits and spaces, signs, a byte-order mark, integers
    /// past `u64`, and a 70,000-byte token).
    fn pieces() -> Vec<String> {
        let mut pieces: Vec<String> = [
            "api",
            "STATS",
            "SUB",
            "FLEET",
            "SHUTDOWN",
            " ",
            "\t",
            "#",
            "\0",
            "7",
            "42",
            "-1",
            "+3",
            "\u{663}",
            "\u{ff11}",
            "\u{3000}",
            "\u{85}",
            "\u{e9}",
            "\u{feff}",
            "18446744073709551615",
            "18446744073709551616",
            "340282366920938463463374607431768211456",
        ]
        .map(String::from)
        .to_vec();
        pieces.push("k".repeat(70_000));
        pieces
    }

    fn line_of(picks: &[usize]) -> String {
        let pieces = pieces();
        picks
            .iter()
            .map(|&i| pieces[i % pieces.len()].as_str())
            .collect()
    }

    /// A [`Sink`] that keeps every line it is given as JSON; it takes
    /// rollups only when `rollups` is set.
    #[derive(Default)]
    struct Lines {
        rollups: bool,
        lines: Vec<String>,
    }

    impl Sink for Lines {
        fn emit(&mut self, line: Line<'_>) -> Result<(), String> {
            self.lines.push(line.to_json());
            Ok(())
        }

        fn wants_rollup(&self) -> bool {
            self.rollups
        }
    }

    /// The `STATS` reply rendered through a [`Value`] tree: the reference
    /// whose bytes [`stats_summary`]'s hand-written line must match.
    fn stats_summary_by_value(engine: &Engine) -> String {
        let per_stream: Vec<Value> = engine
            .stream_seen()
            .into_iter()
            .map(|(key, seen)| {
                Value::map([
                    ("key", Value::Str(key.to_string())),
                    ("seen", seen.serialize()),
                ])
            })
            .collect();
        reply_line(&Value::map([
            ("streams", engine.streams().serialize()),
            ("records", engine.seen().serialize()),
            ("windows", engine.windows().serialize()),
            ("shards", engine.shards().serialize()),
            ("per_stream", Value::Seq(per_stream)),
        ]))
    }

    /// What the `STATS` property builds keys from: the characters JSON
    /// escapes (quote, backslash, control characters) and non-ASCII ones.
    const KEY_PIECES: [&str; 14] = [
        "a",
        "\"",
        "\\",
        "\n",
        "\r",
        "\t",
        "\u{0}",
        "\u{1f}",
        "\u{7f}",
        "\u{e9}",
        "\u{2603}",
        "\u{feff}",
        "\u{1d11e}",
        "k7",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn prop_data_lines_never_panic_and_errors_name_their_line(
            picks in proptest::collection::vec(0usize..64, 0..12),
            lineno in 0usize..usize::MAX,
            field in 0usize..2,
            n in 1usize..1_000,
        ) {
            let line = line_of(&picks);
            match parse_data_line(&line, lineno, field, n) {
                Ok(DataLine::Record { key, value }) => {
                    prop_assert!(value < n);
                    prop_assert!(!key.is_empty() && !key.contains(char::is_whitespace));
                }
                Ok(DataLine::Skip) => {}
                Err(msg) => prop_assert!(msg.starts_with(&format!("line {lineno}: ")), "{msg}"),
            }
        }

        #[test]
        fn prop_control_lines_never_panic_and_errors_name_their_line(
            picks in proptest::collection::vec(0usize..64, 0..12),
            lineno in 0usize..usize::MAX,
        ) {
            if let Err(msg) = parse_control_line(&line_of(&picks), lineno) {
                prop_assert!(msg.starts_with(&format!("line {lineno}: ")), "{msg}");
            }
        }

        #[test]
        fn prop_stats_lines_equal_the_value_rendering(
            picks in proptest::collection::vec(0usize..64, 0..48),
        ) {
            let mut engine = Engine::builder(64)
                .tumbling(4)
                .analysis(khist_core::api::Uniformity::eps(0.3))
                .build()
                .unwrap();
            // Up to 16 keys of one to three pieces, three records each.
            let records: Vec<(String, usize)> = picks
                .chunks(3)
                .map(|c| {
                    let key: String = c
                        .iter()
                        .take(1 + c[0] % 3)
                        .map(|&p| KEY_PIECES[p % KEY_PIECES.len()])
                        .collect();
                    (key, c[c.len() - 1])
                })
                .collect();
            // A failing window leaves the counts STATS reports in place.
            let _ = engine.ingest_batch(&[&records[..], &records, &records].concat());
            prop_assert_eq!(stats_summary(&engine), stats_summary_by_value(&engine));
        }
    }

    #[test]
    fn data_lines_mirror_watch_framing() {
        assert_eq!(
            parse_data_line("api 7", 1, 0, 100).unwrap(),
            DataLine::Record {
                key: "api",
                value: 7
            }
        );
        assert_eq!(
            parse_data_line("7 api", 3, 1, 100).unwrap(),
            DataLine::Record {
                key: "api",
                value: 7
            }
        );
        assert_eq!(parse_data_line("  ", 4, 0, 100).unwrap(), DataLine::Skip);
        assert_eq!(
            parse_data_line("# note", 5, 0, 100).unwrap(),
            DataLine::Skip
        );

        let err = parse_data_line("lonely", 6, 0, 100).unwrap_err();
        assert!(err.starts_with("line 6:"), "{err}");
        let err = parse_data_line("a b c", 7, 0, 100).unwrap_err();
        assert!(err.contains("exactly two fields"), "{err}");
        let err = parse_data_line("api nope", 8, 0, 100).unwrap_err();
        assert!(err.contains("not an integer"), "{err}");
    }

    #[test]
    fn data_lines_check_the_domain_at_parse_time() {
        assert!(parse_data_line("api 99", 1, 0, 100).is_ok());
        let err = parse_data_line("api 100", 2, 0, 100).unwrap_err();
        assert!(
            err.contains("outside the declared domain [0, 100)"),
            "{err}"
        );
    }

    #[test]
    fn control_lines_parse_the_five_verbs() {
        assert_eq!(
            parse_control_line("STATS", 1).unwrap(),
            Some(ControlRequest::Stats)
        );
        assert_eq!(
            parse_control_line("STATS api", 2).unwrap(),
            Some(ControlRequest::StatsKey("api"))
        );
        assert_eq!(
            parse_control_line("SUB", 3).unwrap(),
            Some(ControlRequest::Subscribe)
        );
        assert_eq!(
            parse_control_line("FLEET", 4).unwrap(),
            Some(ControlRequest::Fleet)
        );
        assert_eq!(
            parse_control_line("SHUTDOWN", 5).unwrap(),
            Some(ControlRequest::Shutdown)
        );
        assert_eq!(parse_control_line("# hi", 6).unwrap(), None);
        let err = parse_control_line("FLUSH", 7).unwrap_err();
        assert!(err.contains("FLEET"), "error lists the verbs: {err}");
        assert!(parse_control_line("SUB now", 8).is_err());
        assert!(parse_control_line("FLEET api", 9).is_err());
    }

    #[test]
    fn fleet_replies_are_single_fleet_marked_lines() {
        use khist_core::api::{FleetReport, Uniformity};
        let engine = Engine::builder(64)
            .tumbling(4)
            .analysis(Uniformity::eps(0.3))
            .build()
            .unwrap();
        let mut driver = Driver::new(engine);
        for (key, value) in [("api", 1), ("api", 2), ("api", 3), ("api", 1), ("web", 2)] {
            driver.pending.push(key, value);
        }
        driver.drain(&mut Lines::default()).unwrap();
        let line = driver.fleet_line().to_string();
        assert!(line.ends_with('\n') && line.matches('\n').count() == 1);
        assert!(FleetReport::is_fleet_line(&line), "{line}");
        let report = FleetReport::from_json(line.trim()).unwrap();
        assert_eq!(report.streams, 2);
        assert_eq!(report.windows_complete, 1);
        assert_eq!(report.records_seen, 4, "only the completed window counts");
    }

    /// The engine `khist watch --key-field 0 --n 16 --every 64 --run
    /// l2,uniformity --seed 0` runs: stream `m`'s first window leaves an
    /// l2 lane empty and fails, stream `a`'s windows do not.
    fn starving_engine() -> Engine {
        use khist_core::api::{TestL2, Uniformity};
        use khist_core::uniformity::UniformityBudget;
        use khist_oracle::L2TesterBudget;
        Engine::builder(16)
            .tumbling(64)
            .analysis(TestL2::k(8).eps(0.1).budget(L2TesterBudget { r: 7, m: 9 }))
            .analysis(Uniformity::eps(0.1).budget(UniformityBudget { m: 64 }))
            .build()
            .unwrap()
    }

    /// `FLEET`'s reply, checked against a rollup built afresh.
    fn fleet_reply(driver: &mut Driver) -> String {
        let fresh = format!("{}\n", driver.engine().fleet_report().to_json());
        assert_eq!(driver.fleet_line(), fresh);
        fresh
    }

    #[test]
    fn every_rollup_and_fleet_reply_is_the_engines_current_fleet() {
        let mut driver = Driver::new(starving_engine());
        let mut sink = Lines {
            rollups: true,
            lines: Vec::new(),
        };
        let push = |driver: &mut Driver, key: &str, records: usize| {
            for i in 0..records {
                driver.pending.push(key, i % 16);
            }
        };
        let mut replies = vec![fleet_reply(&mut driver)];

        // Debuts only: no window, so no line, but two more streams.
        push(&mut driver, "a", 10);
        push(&mut driver, "m", 10);
        driver.drain(&mut sink).unwrap();
        assert!(sink.lines.is_empty(), "{:?}", sink.lines);
        replies.push(fleet_reply(&mut driver));

        // A window: its line, then a rollup.
        push(&mut driver, "a", 54);
        driver.drain(&mut sink).unwrap();
        assert_eq!(sink.lines.len(), 2, "{:?}", sink.lines);
        replies.push(fleet_reply(&mut driver));
        assert_eq!(sink.lines[1], replies[2]);

        // `m`'s window starves an l2 lane while `a` completes its second:
        // both are window lines, `m`'s with the reason, then a rollup.
        push(&mut driver, "m", 54);
        push(&mut driver, "a", 64);
        driver.drain(&mut sink).unwrap();
        assert_eq!(sink.lines.len(), 5, "{:?}", sink.lines);
        let failed = WindowReport::from_json(&sink.lines[3]).unwrap();
        assert_eq!(
            (failed.stream.as_deref(), failed.complete),
            (Some("m"), true)
        );
        assert_eq!(
            failed.error.as_deref(),
            Some("bad parameter: need non-empty sample sets")
        );
        replies.push(fleet_reply(&mut driver));
        assert_eq!(sink.lines[4], replies[3]);

        // No debut and no window: no line, and the fleet is as it was.
        push(&mut driver, "a", 5);
        driver.drain(&mut sink).unwrap();
        assert_eq!(sink.lines.len(), 5, "{:?}", sink.lines);
        assert_eq!(fleet_reply(&mut driver), replies[3]);

        // The end: `a`'s tail, then the closing rollup.
        driver.finish(&mut sink).unwrap();
        assert_eq!(sink.lines.len(), 7, "{:?}", sink.lines);
        replies.push(fleet_reply(&mut driver));
        assert_eq!(sink.lines[6], replies[4]);
        assert_eq!(driver.windows(), 4);

        // Each of these calls changed the fleet, so a stale reply differs.
        for pair in replies.windows(2) {
            assert_ne!(pair[0], pair[1]);
        }
    }

    #[test]
    fn stats_replies_are_single_json_lines() {
        use khist_core::api::Uniformity;
        let mut engine = Engine::builder(64)
            .tumbling(100)
            .analysis(Uniformity::eps(0.3))
            .build()
            .unwrap();
        engine
            .ingest_batch(&[("api", 1usize), ("web", 2), ("api", 3)])
            .unwrap();

        let summary = stats_summary(&engine);
        assert!(summary.ends_with('\n') && summary.matches('\n').count() == 1);
        let value = serde::json::from_str(summary.trim()).unwrap();
        assert_eq!(value.get("streams").and_then(Value::as_u64), Some(2));
        assert_eq!(value.get("records").and_then(Value::as_u64), Some(3));
        let per_stream = value.get("per_stream").and_then(Value::as_seq).unwrap();
        // Debut order: api first, then web.
        assert_eq!(
            per_stream[0].get("key").and_then(Value::as_str),
            Some("api")
        );

        let keyed = stats_key(&mut engine, "api");
        let value = serde::json::from_str(keyed.trim()).unwrap();
        assert_eq!(value.get("seen").and_then(Value::as_u64), Some(2));
        assert!(value.get("snapshot").is_some());
        assert!(!value
            .get("ledger")
            .and_then(Value::as_seq)
            .unwrap()
            .is_empty());

        let missing = stats_key(&mut engine, "ghost");
        let value = serde::json::from_str(missing.trim()).unwrap();
        assert!(value
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("unknown stream key"));
    }
}
