//! The mergeable per-shard rollup: [`FleetSummary`].

use khist_stats::SuccessCounter;

use crate::report::{FleetReport, TopStream};
use crate::sketch::DriftSketch;
use crate::topk::{DriftEntry, TopDrift};

/// What one window report contributes to the fleet rollup, pre-digested
/// by the caller (the engine) so this crate stays ignorant of report
/// shapes and oracles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowObservation {
    /// Global debut index of the stream that produced the window.
    pub debut: u32,
    /// Per-stream window id.
    pub window: u64,
    /// Records the window observed.
    pub seen: u64,
    /// Samples the window retained.
    pub kept: u64,
    /// `false` for end-of-stream flushes of a partial window.
    pub complete: bool,
    /// `true` when the window was *not* all-quiet (some tester or the
    /// drift check rejected).
    pub alarmed: bool,
    /// `true` when this is the stream's first alarmed window ever — the
    /// caller tracks per-stream alarm state so the summary can count
    /// *streams* (not windows) without holding per-stream memory.
    pub first_alarm: bool,
    /// Standing testers that returned a verdict in this window.
    pub verdicts: u32,
    /// How many of those verdicts were rejections.
    pub rejects: u32,
    /// Drift severity: the drift check's `statistic / threshold` (so > 1
    /// means the check rejected), when the window had a drift report.
    pub drift_score: Option<f64>,
}

/// One shard's (or one engine's) fleet rollup: counters, a drift-severity
/// quantile sketch, and the top-K drifting streams.
///
/// Everything here is a pure function of the multiset of
/// [`WindowObservation`]s (plus the debut count), so
/// [`FleetSummary::merge`] is associative and commutative bit-for-bit —
/// the property that makes the engine's fleet report identical for every
/// shard count and batch partitioning.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetSummary {
    /// Streams that have debuted.
    streams: u64,
    /// Streams that have alarmed at least once.
    alarming_streams: u64,
    /// Completed windows observed.
    windows_complete: u64,
    /// Flushed partial windows observed.
    windows_partial: u64,
    /// Sum of window `seen` counts.
    records_seen: u64,
    /// Sum of window `kept` counts.
    records_kept: u64,
    /// Alarmed windows over all windows.
    alarms: SuccessCounter,
    /// Rejected verdicts over all standing-tester verdicts.
    rejections: SuccessCounter,
    /// Quantile sketch over drift severities.
    drift: DriftSketch,
    /// Top-K drifting streams by severity.
    top: TopDrift,
}

impl FleetSummary {
    /// Creates an empty summary. Allocation-free (the engine embeds one
    /// per shard and `mem::take`s shards on the warm batch path).
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one stream debut.
    // lint:hot-path
    pub fn observe_debut(&mut self) {
        self.streams += 1;
    }

    /// Absorbs one window's contribution.
    ///
    /// Called on the window-completion path inside shard workers — every
    /// step is integer arithmetic plus the bounded sketch/top-K updates;
    /// nothing allocates once the sketch stash has grown.
    // lint:hot-path
    pub fn observe_window(&mut self, obs: WindowObservation) {
        if obs.complete {
            self.windows_complete += 1;
        } else {
            self.windows_partial += 1;
        }
        self.records_seen += obs.seen;
        self.records_kept += obs.kept;
        self.alarms.record(obs.alarmed);
        for i in 0..obs.verdicts {
            self.rejections.record(i < obs.rejects);
        }
        if obs.first_alarm {
            self.alarming_streams += 1;
        }
        if let Some(score) = obs.drift_score {
            self.drift.observe(score);
            self.top.offer(DriftEntry {
                debut: obs.debut,
                score,
                window: obs.window,
            });
        }
    }

    /// Merges another summary in (shard-wise fold). Associative and
    /// commutative at the bit level: counters are integer sums
    /// ([`SuccessCounter::merge`]), the sketch and top-K carry their own
    /// merge laws, and nothing depends on arrival order.
    pub fn merge(&mut self, other: &FleetSummary) {
        self.streams += other.streams;
        self.alarming_streams += other.alarming_streams;
        self.windows_complete += other.windows_complete;
        self.windows_partial += other.windows_partial;
        self.records_seen += other.records_seen;
        self.records_kept += other.records_kept;
        self.alarms.merge(&other.alarms);
        self.rejections.merge(&other.rejections);
        self.drift.merge(&other.drift);
        self.top.merge(&other.top);
    }

    /// Streams that have debuted.
    pub fn streams(&self) -> u64 {
        self.streams
    }

    /// Renders the rollup. `key_of(i)` names the stream with debut index
    /// `i`; it is called once per top-K entry only, so naming costs the
    /// same at any fleet size. A debut `key_of` cannot name renders as
    /// `"stream-<debut>"` — defensive only; the engine names every stream
    /// it has.
    pub fn report<'k>(&self, key_of: impl Fn(u32) -> Option<&'k str>) -> FleetReport {
        let windows = self.alarms.trials();
        let verdicts = self.rejections.trials();
        FleetReport {
            streams: self.streams,
            alarming_streams: self.alarming_streams,
            windows_complete: self.windows_complete,
            windows_partial: self.windows_partial,
            records_seen: self.records_seen,
            records_kept: self.records_kept,
            alarm_windows: self.alarms.successes(),
            alarm_rate: (windows > 0).then(|| self.alarms.rate()),
            rejected_verdicts: self.rejections.successes(),
            verdicts,
            rejection_rate: (verdicts > 0).then(|| self.rejections.rate()),
            drift_observations: self.drift.count(),
            drift_min: self.drift.min(),
            drift_p50: self.drift.quantile(0.50),
            drift_p90: self.drift.quantile(0.90),
            drift_p99: self.drift.quantile(0.99),
            drift_max: self.drift.max(),
            top_drift: self
                .top
                .entries()
                .map(|d| TopStream {
                    stream: key_of(d.debut)
                        .map_or_else(|| format!("stream-{}", d.debut), str::to_string),
                    score: d.score,
                    window: d.window,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(debut: u32, window: u64, alarmed: bool, drift: Option<f64>) -> WindowObservation {
        WindowObservation {
            debut,
            window,
            seen: 100,
            kept: 40,
            complete: true,
            alarmed,
            first_alarm: alarmed && window == 0,
            verdicts: 2,
            rejects: u32::from(alarmed),
            drift_score: drift,
        }
    }

    #[test]
    fn counters_accumulate_and_report() {
        let mut s = FleetSummary::new();
        s.observe_debut();
        s.observe_debut();
        s.observe_window(obs(0, 0, false, None));
        s.observe_window(obs(1, 0, true, Some(2.0)));
        let keys = ["api", "web"];
        let r = s.report(|debut| keys.get(debut as usize).copied());
        assert_eq!(r.streams, 2);
        assert_eq!(r.alarming_streams, 1);
        assert_eq!(r.windows_complete, 2);
        assert_eq!(r.records_seen, 200);
        assert_eq!(r.records_kept, 80);
        assert_eq!((r.alarm_windows, r.alarm_rate), (1, Some(0.5)));
        assert_eq!((r.rejected_verdicts, r.verdicts), (1, 4));
        assert_eq!(r.drift_observations, 1);
        assert_eq!(r.top_drift.len(), 1);
        assert_eq!(r.top_drift[0].stream, "web");
        assert_eq!(r.top_drift[0].score, 2.0);
    }

    #[test]
    fn empty_summary_reports_nulls_not_sentinels() {
        let r = FleetSummary::new().report(|_| None);
        assert_eq!(r.alarm_rate, None);
        assert_eq!(r.rejection_rate, None);
        assert_eq!(r.drift_p50, None);
        assert!(r.top_drift.is_empty());
    }

    #[test]
    fn merge_matches_single_feed() {
        let observations: Vec<WindowObservation> = (0..50)
            .map(|i| obs(i % 7, (i / 7) as u64, i % 5 == 0, Some(0.1 * i as f64)))
            .collect();
        let mut whole = FleetSummary::new();
        for _ in 0..7 {
            whole.observe_debut();
        }
        for &o in &observations {
            whole.observe_window(o);
        }
        // Partition by stream (the engine's sharding law: a stream's
        // observations never split across summaries).
        let mut parts: Vec<FleetSummary> = (0..7)
            .map(|shard| {
                let mut s = FleetSummary::new();
                s.observe_debut();
                for &o in observations.iter().filter(|o| o.debut == shard) {
                    s.observe_window(o);
                }
                s
            })
            .collect();
        let mut folded = parts.remove(0);
        for p in &parts {
            folded.merge(p);
        }
        assert_eq!(folded, whole);
    }

    #[test]
    fn unknown_debut_renders_defensively() {
        let mut s = FleetSummary::new();
        s.observe_window(obs(9, 3, true, Some(1.5)));
        let r = s.report(|_| None);
        assert_eq!(r.top_drift[0].stream, "stream-9");
    }
}
