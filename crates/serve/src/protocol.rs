//! Line protocols: data-plane record framing and buffering, the
//! control-plane request language, plus the JSON rendering of control
//! replies.
//!
//! The data plane is shared with `khist watch --key-field`, which parses
//! its input with [`parse_data_line`] and buffers it in [`Pending`]: two
//! whitespace-separated fields per line, blank lines and `#` comments
//! skipped — so a file replayed through `watch` and the same records
//! pushed through a socket produce bit-identical per-stream JSONL. Each
//! record is validated against the declared domain *at parse time*: the
//! engine ingests batches from many connections at once, and a domain
//! error surfacing there could not be pinned on the connection (and line)
//! that sent it.

use khist_core::api::{Engine, WindowReport};
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
/// exactly the zero-copy shape [`Engine::ingest_batch`] wants. Both keyed
/// front ends buffer through it: `khist serve` between drains, and
/// `khist watch --key-field` per chunk.
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
    pub fn drain_into(&mut self, engine: &mut Engine) -> Result<Vec<WindowReport>, String> {
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
/// accessors (nothing is recomputed from window reports).
pub fn stats_summary(engine: &Engine) -> String {
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

/// The `FLEET` reply: the engine's fleet rollup as one
/// `{"fleet":true,…}` JSON line — byte-identical to the fleet lines
/// `khist watch --fleet` emits over the same records (the rollup carries
/// no wall time), so a dashboard can poll serve and replay `watch`
/// offline against the same capture and diff the two.
pub fn fleet(engine: &Engine) -> String {
    format!("{}\n", engine.fleet_report().to_json())
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
        let mut engine = Engine::builder(64)
            .tumbling(4)
            .analysis(Uniformity::eps(0.3))
            .build()
            .unwrap();
        engine
            .ingest_batch(&[
                ("api", 1usize),
                ("api", 2),
                ("api", 3),
                ("api", 1),
                ("web", 2),
            ])
            .unwrap();
        let line = fleet(&engine);
        assert!(line.ends_with('\n') && line.matches('\n').count() == 1);
        assert!(FleetReport::is_fleet_line(&line), "{line}");
        let report = FleetReport::from_json(line.trim()).unwrap();
        assert_eq!(report.streams, 2);
        assert_eq!(report.windows_complete, 1);
        assert_eq!(report.records_seen, 4, "only the completed window counts");
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
