//! `check`: output checks on a JSONL capture, made with the program's
//! own parsers. Every window line must parse with
//! `WindowReport::from_json` and every fleet line with
//! `FleetReport::from_json`; each stream's window ids must run 0, 1, 2, …
//! with at most one partial window, last. The summary also tallies the
//! testers' verdicts: the workloads' values are uniform, so every reject
//! is a false alarm.

use std::collections::BTreeMap;

use khist_core::api::{AnalysisKind, FleetReport, WindowReport};
use serde::{Serialize, Value};

use crate::{to_json, Flags};

/// Error messages kept in the summary (every error is counted).
const KEPT_ERRORS: usize = 10;

/// Rejects among verdicts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Reject verdicts.
    pub rejects: u64,
    /// All verdicts.
    pub verdicts: u64,
}

impl Tally {
    /// Counts one verdict.
    pub fn add(&mut self, rejected: bool) {
        self.verdicts += 1;
        self.rejects += u64::from(rejected);
    }

    /// Rejects over verdicts (`None` without verdicts).
    pub fn fraction(self) -> Option<f64> {
        (self.verdicts > 0).then(|| self.rejects as f64 / self.verdicts as f64)
    }

    /// Counts the verdicts of one window's reports and drift check.
    pub fn window(uniformity: &mut Tally, l2: &mut Tally, drift: &mut Tally, w: &WindowReport) {
        for report in w.reports.iter().filter(|r| r.verdict.is_some()) {
            match report.analysis {
                AnalysisKind::Uniformity => uniformity.add(!report.accepted()),
                AnalysisKind::TestL2 => l2.add(!report.accepted()),
                _ => {}
            }
        }
        if let Some(check) = &w.drift {
            drift.add(!check.accepted());
        }
    }

    fn to_value(self) -> Value {
        Value::Seq(vec![self.rejects.serialize(), self.verdicts.serialize()])
    }
}

/// One stream's window lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamWindows {
    /// Stream key.
    pub key: String,
    /// Complete windows.
    pub complete: u64,
    /// Partial windows (end-of-input flushes).
    pub partial: u64,
}

/// What a capture holds.
#[derive(Debug, Default)]
pub struct Summary {
    /// Lines read.
    pub lines: u64,
    /// Fleet rollup lines.
    pub fleet_lines: u64,
    /// Window counts per stream, in order of first appearance.
    pub streams: Vec<StreamWindows>,
    /// Uniformity verdicts.
    pub uniformity: Tally,
    /// `ℓ₂` tester verdicts.
    pub l2: Tally,
    /// Drift checks (a reject is an alarm).
    pub drift: Tally,
    /// Errors found.
    pub errors: u64,
    /// The first few error messages.
    pub messages: Vec<String>,
}

impl Summary {
    fn error(&mut self, message: String) {
        self.errors += 1;
        if self.messages.len() < KEPT_ERRORS {
            self.messages.push(message);
        }
    }

    fn to_value(&self) -> Value {
        let stream = |s: &StreamWindows| {
            Value::Seq(vec![
                s.key.serialize(),
                s.complete.serialize(),
                s.partial.serialize(),
            ])
        };
        Value::map([
            ("lines", self.lines.serialize()),
            (
                "windows",
                self.streams
                    .iter()
                    .map(|s| s.complete + s.partial)
                    .sum::<u64>()
                    .serialize(),
            ),
            ("fleet_lines", self.fleet_lines.serialize()),
            ("errors", self.errors.serialize()),
            ("messages", self.messages.serialize()),
            (
                "streams",
                Value::Seq(self.streams.iter().map(stream).collect()),
            ),
            ("uniformity", self.uniformity.to_value()),
            ("l2", self.l2.to_value()),
            ("drift", self.drift.to_value()),
        ])
    }
}

/// Checks every line of a capture.
pub fn summarize(text: &str) -> Summary {
    let mut summary = Summary::default();
    let mut slots: BTreeMap<String, usize> = BTreeMap::new();
    for (index, line) in text.lines().enumerate() {
        let lineno = index + 1;
        summary.lines += 1;
        if FleetReport::is_fleet_line(line) {
            summary.fleet_lines += 1;
            if let Err(e) = FleetReport::from_json(line) {
                summary.error(format!("line {lineno}: bad fleet line: {e}"));
            }
            continue;
        }
        let report = match WindowReport::from_json(line) {
            Ok(report) => report,
            Err(e) => {
                summary.error(format!("line {lineno}: bad window line: {e}"));
                continue;
            }
        };
        let Some(key) = report.stream.clone() else {
            summary.error(format!("line {lineno}: window line without a stream key"));
            continue;
        };
        let slot = match slots.get(&key) {
            Some(&slot) => slot,
            None => {
                slots.insert(key.clone(), summary.streams.len());
                summary.streams.push(StreamWindows {
                    key,
                    complete: 0,
                    partial: 0,
                });
                summary.streams.len() - 1
            }
        };
        let stream = &mut summary.streams[slot];
        let due = stream.complete + stream.partial;
        let problem = if stream.partial > 0 {
            Some(format!(
                "line {lineno}: stream {}: window {} after its partial window",
                stream.key, report.window
            ))
        } else if report.window != due {
            Some(format!(
                "line {lineno}: stream {}: window {} where window {due} was due",
                stream.key, report.window
            ))
        } else {
            None
        };
        if report.complete {
            stream.complete += 1;
        } else {
            stream.partial += 1;
        }
        if let Some(problem) = problem {
            summary.error(problem);
        }
        Tally::window(
            &mut summary.uniformity,
            &mut summary.l2,
            &mut summary.drift,
            &report,
        );
    }
    summary
}

/// `check`: summarizes the capture `--jsonl` as one JSON line.
pub fn run(flags: &Flags) -> Result<String, String> {
    let path = flags.text("jsonl")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    to_json(&summarize(&text).to_value())
}

#[cfg(test)]
mod tests {
    use super::*;
    use khist_core::api::{Engine, Uniformity};

    /// A small keyed run as `watch --fleet --json` would print it.
    fn capture() -> Vec<String> {
        let mut engine = Engine::builder(64)
            .seed(3)
            .tumbling(50)
            .analysis(Uniformity::eps(0.3))
            .build()
            .unwrap();
        let records: Vec<(&str, usize)> = (0..230)
            .map(|i| (if i % 3 == 0 { "b" } else { "a" }, (i * 7) % 64))
            .collect();
        let mut lines: Vec<String> = engine
            .ingest_batch(&records)
            .unwrap()
            .iter()
            .map(WindowReport::to_json)
            .collect();
        lines.push(engine.fleet_report().to_json());
        let tails = engine.flush_debut_ordered().unwrap();
        lines.extend(tails.iter().map(WindowReport::to_json));
        lines
    }

    #[test]
    fn a_well_formed_capture_passes() {
        let summary = summarize(&capture().join("\n"));
        assert_eq!(summary.errors, 0, "{:?}", summary.messages);
        assert_eq!(summary.fleet_lines, 1);
        // 153 records of "a" and 77 of "b" over windows of 50.
        let counts: Vec<(&str, u64, u64)> = summary
            .streams
            .iter()
            .map(|s| (s.key.as_str(), s.complete, s.partial))
            .collect();
        assert_eq!(counts, [("a", 3, 1), ("b", 1, 1)]);
        assert!(summary.uniformity.verdicts >= 4);
        assert!(summary.drift.verdicts >= 2);
    }

    #[test]
    fn malformed_and_out_of_order_lines_are_errors() {
        let mut lines = capture();
        let first = lines[0].clone();
        lines.push(first);
        lines.push("{\"stream\":\"a\"}".into());
        lines.push("not json".into());
        let summary = summarize(&lines.join("\n"));
        assert_eq!(summary.errors, 3, "{:?}", summary.messages);
        assert!(summary.messages[0].contains("after its partial window"));
    }
}
