//! Push-based sample ingestion: [`SampleSink`] and [`WindowedSink`].
//!
//! The pull-side seam ([`SampleOracle`](crate::SampleOracle)) assumes the
//! caller can *draw* whenever an algorithm needs samples. A process that
//! receives events — a socket, a log tail, a metrics pipe — cannot: records
//! arrive when they arrive, and the analysis must run over whatever the
//! current window holds. This module is the pull seam's push-side mirror:
//!
//! ```text
//!   events ──push──▶ WindowedSink ──window closes──▶ WindowSnapshot
//!                    │  reservoir lanes                │ frozen lanes
//!                    │  (plan-shaped)                  ▼
//!                    │                           ReplayOracle ──▶ the same
//!                    └── O(sample budget) memory        algorithms as pull
//! ```
//!
//! A [`WindowedSink`] is configured with the *lane shape* of a
//! [`SampleOracle::draw_lanes`](crate::SampleOracle::draw_lanes) draw
//! (`main`, `r`, `m` — see [`WindowedSink::new`]) and each pane fills one
//! `Lanes`, the fixed-size [`Reservoir`](crate::Reservoir) lanes, router
//! and SplitMix64 seed streams that
//! [`RecordFileOracle`](crate::RecordFileOracle) pours a file into.
//! Consequence: pushing a record stream into window 0 of a sink seeded
//! with `s` leaves the lanes **bit-identical** to writing the same records
//! to a file and drawing the same plan through
//! `RecordFileOracle::open(path, n, s)` — push and pull are two transports
//! for one sampling process (property-tested below over random plans, and
//! through whole reports in `tests/monitor_push_pull.rs` at the workspace
//! root).
//!
//! One pane model serves both window policies: a window is
//! [`Window::panes`] consecutive *panes*, each filling its own lanes, and
//! a window completes when its newest pane fills. Freezing takes the
//! oldest pane's reservoirs as they are and folds each newer pane into
//! them lane by lane through
//! [`Reservoir::merge`](crate::Reservoir::merge).
//!
//! * [`Window::Tumbling`] — one pane per window, so windows are
//!   consecutive disjoint spans and each freezes its lanes exactly (no
//!   resampling): the bit-identity above holds per window (window `w > 0`
//!   uses the derived seed [`window_seed`]`(s, w)`).
//! * [`Window::Sliding`] — `span / step` panes of `step` records; a
//!   window completes every `step` records and covers the last `span`.
//!   Merged lanes are statistically a weighted union, *not* bit-identical
//!   to a pull over the same records (the merge resamples).
//!
//! Memory is `O(lane sizes × panes)` — the sample budget — regardless of
//! how many records stream through.

use std::collections::VecDeque;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use khist_dist::DistError;

use crate::oracle::{
    check_domain, check_lane_bytes, lane_shape, stream_seed, LaneKind, Lanes, ReplayOracle,
};
use crate::sample_set::SampleSet;

/// Salt mixed into the seed stream that drives sliding-window pane merges,
/// so merge randomness never collides with lane randomness.
const MERGE_SALT: u64 = 0x6d65_7267_655f_7631; // "merge_v1"

/// The lane-seed base of window (pane) `w` of a sink seeded with `base`.
///
/// Window 0 uses `base` itself — that is what makes a pushed first window
/// bit-identical to a pull through a `RecordFileOracle` opened with the
/// same seed, whose first draw also starts at stream 0 of `base`. Later
/// windows use SplitMix64-derived streams so their randomness is fresh but
/// still reproducible from `(base, w)` alone.
pub fn window_seed(base: u64, w: u64) -> u64 {
    if w == 0 {
        base
    } else {
        stream_seed(base, w)
    }
}

/// Windowing policy of a [`WindowedSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// Consecutive disjoint windows of `span` records each.
    Tumbling {
        /// Records per window.
        span: u64,
    },
    /// Overlapping windows of `span` records, advancing every `step`
    /// records (`step` must divide `span`).
    Sliding {
        /// Records covered by each emitted window.
        span: u64,
        /// Records between consecutive window completions.
        step: u64,
    },
}

impl Window {
    /// Records per pane: the whole span (tumbling) or one step (sliding).
    fn pane_span(&self) -> u64 {
        match *self {
            Window::Tumbling { span } => span,
            Window::Sliding { step, .. } => step,
        }
    }

    /// Panes per emitted window: 1 for a tumbling window, `span / step`
    /// for a sliding one. A sink holds at most this many panes, and a
    /// window's newest disjoint predecessor completed this many windows
    /// before it.
    pub fn panes(&self) -> usize {
        match *self {
            Window::Tumbling { .. } => 1,
            Window::Sliding { span, step } => (span / step) as usize,
        }
    }
}

/// A frozen view of one window: the lane sample sets, in draw order, plus
/// the bookkeeping a report needs.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// Window id: 0-based, in completion order (a mid-window snapshot
    /// carries the id its window completes as).
    pub window: u64,
    /// Domain size the sink was declared over.
    pub n: usize,
    /// Global index of the first record in the window (inclusive).
    pub start: u64,
    /// Global index one past the last record in the window.
    pub end: u64,
    /// Records the window observed (`end - start`).
    pub seen: u64,
    /// Samples retained across all lanes.
    pub kept: u64,
    /// The lane-seed base of this window — passing it alongside the frozen
    /// lanes reproduces the reports exactly.
    pub seed: u64,
    /// Whether the window closed naturally (`false` for mid-window
    /// snapshots and end-of-stream flushes).
    pub complete: bool,
    /// Frozen lanes, in the draw order of the plan the sink was shaped by.
    pub lanes: Vec<SampleSet>,
}

impl WindowSnapshot {
    /// Wraps the frozen lanes in a [`ReplayOracle`] so the ordinary
    /// analysis engine can consume them — every draw is served from the
    /// window, and a draw beyond it panics instead of silently sampling
    /// fresh data.
    pub fn replay(&self) -> ReplayOracle {
        ReplayOracle::from_sets(self.n, self.lanes.clone())
    }

    /// The union of all lanes as one multiset — the window's full retained
    /// sample, which drift checks compare across windows. Built in one
    /// pass over the lanes' sorted runs ([`SampleSet::merge`]).
    pub fn merged(&self) -> SampleSet {
        SampleSet::merge(&self.lanes)
    }
}

/// Push-side sample ingestion: the receiving end of a record stream.
///
/// Object-safe, like the pull seam — `&mut dyn SampleSink` works wherever
/// a sink is expected.
pub trait SampleSink {
    /// The domain size `n` records must lie in.
    fn domain_size(&self) -> usize;

    /// Ingests one record. Fails (without consuming the record) when the
    /// record lies outside `[0, n)`, or when the sink cannot reserve the
    /// lanes of the window the record opens.
    fn push(&mut self, value: usize) -> Result<(), DistError>;

    /// Ingests a batch of records in order; stops at the first bad record.
    fn push_all(&mut self, values: &[usize]) -> Result<(), DistError> {
        for &v in values {
            self.push(v)?;
        }
        Ok(())
    }

    /// Total records ingested so far.
    fn seen(&self) -> u64;

    /// Freezes the *current* (possibly partial) window without disturbing
    /// ingestion.
    fn snapshot(&self) -> WindowSnapshot;
}

/// One pane of reservoir lanes: the unit of window rotation.
#[derive(Debug, Clone)]
struct Pane {
    /// Lane-seed base: `window_seed(sink seed, i)` for the sink's pane
    /// `i`. Window `w`'s oldest pane is pane `w`, so its seed is the
    /// window's.
    seed: u64,
    /// Global record index of the pane's first record.
    start: u64,
    /// The pane's lanes, on streams `0, 1, …` of `seed`.
    lanes: Lanes,
}

/// The validated lane shape of a [`WindowedSink`] — everything about a
/// sink *except* its seed and live state.
///
/// Validation (domain, window policy, lane sizes) happens once in
/// [`SinkShape::new`]; [`SinkShape::sink`] then stamps out a sink for any
/// seed without re-checking or re-deriving anything. A process that owns
/// thousands of keyed streams with identical configuration — the
/// multi-stream engine in `khist-core` — shares one shape across all of
/// them and pays only a `Vec` clone per stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkShape {
    n: usize,
    window: Window,
    /// Lane capacities behind an `Arc`: stamping a sink per stream shares
    /// one allocation across every stream of the engine, so a million idle
    /// streams hold a million pointers, not a million `Vec`s.
    sizes: Arc<[usize]>,
    kind: LaneKind,
}

impl SinkShape {
    /// Validates a sink configuration over domain `[0, n)` whose lanes
    /// are those of [`draw_lanes`](crate::SampleOracle::draw_lanes)`(main,
    /// r, m)`: one lane of `main` (when `r == 0`), `r` round-robin lanes
    /// of `m` (when `main == 0`), or a weighted `main` lane plus `r` lanes
    /// of `m` (both positive).
    ///
    /// Fails on a zero domain or one above `2³²` values (the most a
    /// four-byte lane slot holds), degenerate windows (zero span; a
    /// sliding step that is zero or does not divide the span), a plan that
    /// retains no samples, or lanes whose bytes exceed `isize::MAX`.
    pub fn new(
        n: usize,
        window: Window,
        main: usize,
        r: usize,
        m: usize,
    ) -> Result<Self, DistError> {
        let bad = |reason: String| DistError::BadParameter { reason };
        if n == 0 {
            return Err(bad("sink domain must be non-empty".into()));
        }
        check_domain(n)?;
        match window {
            Window::Tumbling { span: 0 } => {
                return Err(bad("tumbling window span must be positive".into()));
            }
            Window::Sliding { span, step } if step == 0 || span == 0 || span % step != 0 => {
                return Err(bad(format!(
                    "sliding window needs step > 0 dividing span, got span {span} step {step}"
                )));
            }
            _ => {}
        }
        if main == 0 && r == 0 {
            return Err(bad(
                "window plan retains no samples (main = 0, r = 0)".into()
            ));
        }
        if r > 0 && m == 0 {
            return Err(bad(format!("window plan has {r} sets of zero samples")));
        }
        let (kind, sizes) = lane_shape(main, r, m);
        check_lane_bytes(&sizes)?;
        Ok(SinkShape {
            n,
            window,
            sizes: sizes.into(),
            kind,
        })
    }

    /// Domain size records must lie in.
    pub fn domain_size(&self) -> usize {
        self.n
    }

    /// The window policy.
    pub fn window(&self) -> Window {
        self.window
    }

    /// Lane capacities in draw order (`[main?, m, m, …]`).
    pub fn lane_sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Stamps out an empty sink of this shape seeded with `seed` — the
    /// cheap per-stream constructor (no re-validation, no `Vec` copy: the
    /// lane sizes are shared behind an `Arc`).
    pub fn sink(&self, seed: u64) -> WindowedSink {
        WindowedSink {
            n: self.n,
            seed,
            window: self.window,
            sizes: Arc::clone(&self.sizes),
            kind: self.kind,
            panes: VecDeque::new(),
            seen: 0,
            next_pane_id: 0,
            next_window_id: 0,
            completed: VecDeque::new(),
        }
    }
}

/// The [`SampleSink`] implementation: plan-shaped reservoir lanes behind
/// tumbling or sliding windows. See the [module docs](self) for the
/// push≡pull bit-identity contract.
#[derive(Debug, Clone)]
pub struct WindowedSink {
    n: usize,
    seed: u64,
    window: Window,
    sizes: Arc<[usize]>,
    kind: LaneKind,
    panes: VecDeque<Pane>,
    seen: u64,
    next_pane_id: u64,
    next_window_id: u64,
    completed: VecDeque<WindowSnapshot>,
}

impl WindowedSink {
    /// Builds a sink over domain `[0, n)`: sugar for
    /// [`SinkShape::new`]`(…)?.`[`sink`](SinkShape::sink)`(seed)`. See
    /// [`SinkShape::new`] for the lane-shape contract and failure modes.
    pub fn new(
        n: usize,
        seed: u64,
        window: Window,
        main: usize,
        r: usize,
        m: usize,
    ) -> Result<Self, DistError> {
        Ok(SinkShape::new(n, window, main, r, m)?.sink(seed))
    }

    /// The configured window policy.
    pub fn window(&self) -> Window {
        self.window
    }

    /// The construction seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Lane capacities in draw order (`[main?, m, m, …]`).
    pub fn lane_sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Samples currently retained across all live panes — bounded by
    /// `Σ lane_sizes ×` [`Window::panes`] no matter how long the stream
    /// is.
    pub fn kept(&self) -> u64 {
        self.panes
            .iter()
            .flat_map(|p| p.lanes.reservoirs())
            .map(|r| r.len() as u64)
            .sum()
    }

    /// Completed windows not yet collected.
    pub fn pending(&self) -> usize {
        self.completed.len()
    }

    /// Removes and returns the windows that completed since the last call,
    /// oldest first. The returned `Vec` takes the queue's buffer, so a
    /// sink between windows holds none.
    pub fn drain_completed(&mut self) -> Vec<WindowSnapshot> {
        std::mem::take(&mut self.completed).into()
    }

    /// Opens the next pane, reserving its lanes in full; the sink's first
    /// pane also sizes the pane deque to [`Window::panes`] slots. A
    /// refused reservation is an error and consumes no pane id.
    fn new_pane(&mut self) -> Result<Pane, DistError> {
        let seed = window_seed(self.seed, self.next_pane_id);
        let lanes = Lanes::new(seed, 0, self.kind, &self.sizes)?;
        let panes = self.window.panes();
        self.panes
            .try_reserve_exact(panes - self.panes.len())
            .map_err(|_| panes_refused(panes))?;
        self.next_pane_id += 1;
        Ok(Pane {
            seed,
            start: self.seen,
            lanes,
        })
    }

    /// Freezes window `id`: every [`WindowSnapshot`] is built here.
    /// `oldest` is the window's oldest pane by value — the pane that
    /// retires when the window completes, a clone for a mid-window
    /// snapshot, `None` before the window's first record. Each pane of
    /// `newer` (oldest first) folds into its reservoirs lane by lane
    /// through [`Reservoir::merge`](crate::Reservoir::merge), on a merge
    /// stream derived from `(seed, id)` that only a second pane draws
    /// from, so a one-pane window freezes its reservoirs as they stand.
    fn freeze<'a>(
        &self,
        oldest: Option<Pane>,
        newer: impl Iterator<Item = &'a Pane> + Clone,
        id: u64,
        complete: bool,
    ) -> WindowSnapshot {
        let seed = oldest
            .as_ref()
            .map_or_else(|| window_seed(self.seed, id), |p| p.seed);
        let start = oldest.as_ref().map_or(self.seen, |p| p.start);
        let seen = oldest.as_ref().map_or(0, |p| p.lanes.seen())
            + newer.clone().map(|p| p.lanes.seen()).sum::<u64>();
        let lanes: Vec<SampleSet> = match oldest {
            None => vec![SampleSet::from_samples(Vec::new()); self.sizes.len()],
            Some(pane) => {
                let mut merge_rng = StdRng::seed_from_u64(stream_seed(self.seed ^ MERGE_SALT, id));
                let reservoirs = pane.lanes.into_reservoirs().into_iter().enumerate();
                reservoirs
                    .map(|(lane, reservoir)| {
                        newer
                            .clone()
                            // lint:allow(checked-indexing): every pane is built with sizes.len() lanes
                            .map(|p| &p.lanes.reservoirs()[lane])
                            .fold(reservoir, |acc, r| acc.merge(r, &mut merge_rng))
                            .into_sample_set()
                    })
                    .collect()
            }
        };
        WindowSnapshot {
            window: id,
            n: self.n,
            start,
            end: start + seen,
            seen,
            kept: lanes.iter().map(SampleSet::total).sum(),
            seed,
            complete,
            lanes,
        }
    }

    /// Handles a pane reaching its span: once the deque holds a whole
    /// window, the window completes and its oldest pane retires into the
    /// snapshot.
    fn complete_pane(&mut self) {
        if self.panes.len() == self.window.panes() {
            let id = self.next_window_id;
            self.next_window_id += 1;
            let oldest = self.panes.pop_front();
            let snap = self.freeze(oldest, self.panes.iter(), id, true);
            self.completed.push_back(snap);
        }
    }
}

/// Builds the out-of-domain rejection. Kept out of line so the error
/// formatting (the only allocation `push` could reach) stays off the
/// record-accepting hot path.
#[cold]
fn out_of_domain(value: usize, n: usize) -> DistError {
    DistError::BadParameter {
        reason: format!(
            "record {value} outside declared domain [0, {n}); widen the domain or drop the record"
        ),
    }
}

/// Builds the error of a pane deque the allocator refused.
#[cold]
fn panes_refused(panes: usize) -> DistError {
    DistError::BadParameter {
        reason: format!(
            "cannot reserve a window of {panes} panes; shrink the span or widen the step"
        ),
    }
}

impl SampleSink for WindowedSink {
    fn domain_size(&self) -> usize {
        self.n
    }

    // lint:hot-path
    fn push(&mut self, value: usize) -> Result<(), DistError> {
        if value >= self.n {
            return Err(out_of_domain(value, self.n));
        }
        let pane_span = self.window.pane_span();
        let needs_new_pane = self
            .panes
            .back()
            .is_none_or(|p| p.lanes.seen() >= pane_span);
        if needs_new_pane {
            let pane = self.new_pane()?;
            self.panes.push_back(pane);
        }
        // lint:allow(no-panic): the needs_new_pane branch above guarantees a back pane
        let pane = self.panes.back_mut().expect("pane just ensured");
        pane.lanes.offer(value);
        self.seen += 1;
        if pane.lanes.seen() == pane_span {
            self.complete_pane();
        }
        Ok(())
    }

    fn seen(&self) -> u64 {
        self.seen
    }

    fn snapshot(&self) -> WindowSnapshot {
        let oldest = self.panes.front().cloned();
        let newer = self.panes.iter().skip(1);
        self.freeze(oldest, newer, self.next_window_id, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{RecordFileOracle, SampleOracle};
    use crate::reservoir::Reservoir;
    use crate::test_util::temp_records;

    fn stream(len: usize, n: usize) -> Vec<usize> {
        (0..len).map(|i| (i * 7 + i * i) % n).collect()
    }

    #[test]
    fn rejects_degenerate_configurations() {
        assert!(WindowedSink::new(0, 1, Window::Tumbling { span: 10 }, 5, 0, 0).is_err());
        assert!(WindowedSink::new(8, 1, Window::Tumbling { span: 0 }, 5, 0, 0).is_err());
        assert!(WindowedSink::new(8, 1, Window::Sliding { span: 10, step: 3 }, 5, 0, 0).is_err());
        assert!(WindowedSink::new(8, 1, Window::Sliding { span: 10, step: 0 }, 5, 0, 0).is_err());
        assert!(WindowedSink::new(8, 1, Window::Tumbling { span: 10 }, 0, 0, 0).is_err());
        assert!(WindowedSink::new(8, 1, Window::Tumbling { span: 10 }, 0, 3, 0).is_err());
    }

    #[test]
    fn rejects_out_of_domain_records() {
        let mut sink = WindowedSink::new(8, 1, Window::Tumbling { span: 10 }, 5, 0, 0).unwrap();
        assert!(sink.push(7).is_ok());
        let err = sink.push(8).unwrap_err().to_string();
        assert!(err.contains("record 8") && err.contains("[0, 8)"), "{err}");
        assert_eq!(sink.seen(), 1, "bad record must not count");
    }

    #[test]
    fn tumbling_windows_rotate_at_span() {
        let mut sink = WindowedSink::new(16, 3, Window::Tumbling { span: 100 }, 20, 0, 0).unwrap();
        sink.push_all(&stream(250, 16)).unwrap();
        let done = sink.drain_completed();
        assert_eq!(done.len(), 2);
        assert_eq!((done[0].start, done[0].end), (0, 100));
        assert_eq!((done[1].start, done[1].end), (100, 200));
        assert!(done.iter().all(|w| w.complete && w.seen == 100));
        assert_eq!(done[0].window, 0);
        assert_eq!(done[0].seed, 3, "window 0 must use the base seed");
        assert_eq!(done[1].seed, window_seed(3, 1));
        // The live partial window holds the remaining 50 records.
        let partial = sink.snapshot();
        assert_eq!((partial.start, partial.end), (200, 250));
        assert!(!partial.complete);
        assert_eq!(sink.pending(), 0);
    }

    #[test]
    fn single_lane_window_matches_record_file_draw_set() {
        // Push≡pull, draw_set shape: one lane of `main`.
        let records = stream(500, 32);
        let mut sink = WindowedSink::new(32, 11, Window::Tumbling { span: 500 }, 60, 0, 0).unwrap();
        sink.push_all(&records).unwrap();
        let window = sink.drain_completed().pop().unwrap();
        let path = temp_records(&records, "single");
        let mut oracle = RecordFileOracle::open(&path, 32, 11).unwrap();
        assert_eq!(window.lanes, vec![oracle.draw_set(60)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn round_robin_window_matches_record_file_draw_sets() {
        // Push≡pull, draw_sets shape: r round-robin lanes of m.
        let records = stream(700, 32);
        let mut sink = WindowedSink::new(32, 13, Window::Tumbling { span: 700 }, 0, 5, 40).unwrap();
        sink.push_all(&records).unwrap();
        let window = sink.drain_completed().pop().unwrap();
        let path = temp_records(&records, "rr");
        let mut oracle = RecordFileOracle::open(&path, 32, 13).unwrap();
        assert_eq!(window.lanes, oracle.draw_sets(5, 40));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn weighted_window_matches_record_file_draw_lanes() {
        // Push≡pull, weighted shape: main + r lanes.
        let records = stream(2000, 32);
        let mut sink =
            WindowedSink::new(32, 17, Window::Tumbling { span: 2000 }, 120, 3, 50).unwrap();
        sink.push_all(&records).unwrap();
        let window = sink.drain_completed().pop().unwrap();
        let path = temp_records(&records, "batch");
        let mut oracle = RecordFileOracle::open(&path, 32, 17).unwrap();
        assert_eq!(window.lanes, oracle.draw_lanes(120, 3, 50));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn memory_stays_bounded_by_lane_sizes() {
        let mut sink =
            WindowedSink::new(64, 1, Window::Tumbling { span: 1 << 20 }, 100, 4, 25).unwrap();
        for i in 0..200_000usize {
            sink.push(i % 64).unwrap();
        }
        assert!(sink.kept() <= 100 + 4 * 25, "kept {}", sink.kept());
        assert_eq!(sink.seen(), 200_000);
    }

    #[test]
    fn sliding_windows_overlap_and_advance_by_step() {
        let mut sink = WindowedSink::new(
            16,
            5,
            Window::Sliding {
                span: 200,
                step: 50,
            },
            30,
            0,
            0,
        )
        .unwrap();
        sink.push_all(&stream(320, 16)).unwrap();
        let done = sink.drain_completed();
        // First window completes at record 200, then every 50: 200, 250, 300.
        assert_eq!(done.len(), 3);
        assert_eq!((done[0].start, done[0].end), (0, 200));
        assert_eq!((done[1].start, done[1].end), (50, 250));
        assert_eq!((done[2].start, done[2].end), (100, 300));
        assert_eq!(done[2].window, 2);
        assert!(done.iter().all(|w| w.seen == 200 && w.kept <= 30));
        // Snapshot covers the live tail: panes at 150..320.
        let snap = sink.snapshot();
        assert_eq!((snap.start, snap.end), (150, 320));
    }

    #[test]
    fn snapshots_are_deterministic() {
        let run = || {
            let mut sink = WindowedSink::new(
                16,
                9,
                Window::Sliding {
                    span: 100,
                    step: 25,
                },
                20,
                2,
                10,
            )
            .unwrap();
            sink.push_all(&stream(260, 16)).unwrap();
            (sink.drain_completed(), sink.snapshot())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn snapshot_replay_and_merge_round_trip() {
        let mut sink = WindowedSink::new(16, 2, Window::Tumbling { span: 300 }, 40, 2, 20).unwrap();
        sink.push_all(&stream(300, 16)).unwrap();
        let window = sink.drain_completed().pop().unwrap();
        assert_eq!(window.kept, 40 + 2 * 20);
        let merged = window.merged();
        assert_eq!(merged.total(), window.kept);
        let mut replay = window.replay();
        assert_eq!(replay.domain_size(), 16);
        let served = replay.draw_set(0);
        assert_eq!(served, window.lanes[0]);
        assert_eq!(replay.remaining(), 2);
        assert_eq!(replay.replayed(), 1);
    }

    #[test]
    fn shape_stamps_out_identical_sinks_cheaply() {
        // One validated shape, many per-stream sinks: a sink stamped from
        // a shape must behave bit-identically to one built directly.
        let shape = SinkShape::new(32, Window::Tumbling { span: 200 }, 30, 2, 10).unwrap();
        assert_eq!(shape.domain_size(), 32);
        assert_eq!(shape.lane_sizes(), &[30, 10, 10]);
        let records = stream(450, 32);
        for seed in [1u64, 7, 999] {
            let mut stamped = shape.sink(seed);
            let mut direct =
                WindowedSink::new(32, seed, Window::Tumbling { span: 200 }, 30, 2, 10).unwrap();
            stamped.push_all(&records).unwrap();
            direct.push_all(&records).unwrap();
            assert_eq!(stamped.drain_completed(), direct.drain_completed());
            assert_eq!(stamped.snapshot(), direct.snapshot());
        }
        // Shape validation rejects the same degenerate configs as the sink.
        assert!(SinkShape::new(0, Window::Tumbling { span: 10 }, 5, 0, 0).is_err());
        assert!(SinkShape::new(8, Window::Tumbling { span: 10 }, 0, 0, 0).is_err());
    }

    #[test]
    fn shape_rejects_lanes_beyond_isize_max_bytes() {
        // Four bytes a slot: one lane of ⌊isize::MAX / 4⌋ slots is the
        // largest plan an allocation can hold; a slot more is refused at
        // construction, before any record arrives.
        let window = Window::Tumbling { span: 10 };
        let largest = isize::MAX as usize / 4;
        assert!(SinkShape::new(256, window, largest, 0, 0).is_ok());
        let err = SinkShape::new(256, window, largest + 1, 0, 0)
            .unwrap_err()
            .to_string();
        assert!(err.contains("isize::MAX"), "{err}");
        // Lanes that fit one by one can still overflow together.
        let err = SinkShape::new(256, window, 1, 4, usize::MAX / 8)
            .unwrap_err()
            .to_string();
        assert!(err.contains("isize::MAX"), "{err}");
    }

    #[test]
    fn domains_up_to_two_to_the_32_fit_a_slot() {
        let window = Window::Tumbling { span: 10 };
        let max = 1usize << 32;
        assert_eq!(
            SinkShape::new(max, window, 5, 0, 0).unwrap().domain_size(),
            max
        );
        let err = SinkShape::new(max + 1, window, 5, 0, 0)
            .unwrap_err()
            .to_string();
        assert!(err.contains("domain size 4294967297 exceeds 2^32"), "{err}");
        let path = temp_records(&[0, 3], "wide");
        assert_eq!(
            RecordFileOracle::open(&path, max, 1).unwrap().domain_size(),
            max
        );
        let err = RecordFileOracle::open(&path, max + 1, 1)
            .unwrap_err()
            .to_string();
        assert!(err.contains("domain size 4294967297 exceeds 2^32"), "{err}");
        std::fs::remove_file(&path).ok();
        // An inferred domain is held to the same limit.
        let path = temp_records(&[0, u32::MAX as usize], "widest");
        assert_eq!(
            RecordFileOracle::open(&path, 0, 1).unwrap().domain_size(),
            max
        );
        std::fs::remove_file(&path).ok();
        let path = temp_records(&[0, max], "too-wide");
        let err = RecordFileOracle::open(&path, 0, 1).unwrap_err().to_string();
        assert!(err.contains("domain size 4294967297 exceeds 2^32"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn largest_slot_value_pushes_as_it_pulls() {
        // Push ≡ pull at the slot boundary: records at u32::MAX in a
        // domain of 2³² freeze to the lanes a record-file draw returns,
        // with the value intact.
        let n = 1usize << 32;
        let top = u32::MAX as usize;
        let records: Vec<usize> = (0..300)
            .map(|i| if i % 3 == 0 { top } else { top - i % 7 })
            .collect();
        let window = Window::Tumbling { span: 300 };
        let mut sink = WindowedSink::new(n, 29, window, 40, 3, 20).unwrap();
        sink.push_all(&records).unwrap();
        let frozen = sink.drain_completed().pop().unwrap();
        let path = temp_records(&records, "boundary");
        let mut oracle = RecordFileOracle::open(&path, n, 29).unwrap();
        let pulled = oracle.draw_lanes(40, 3, 20);
        std::fs::remove_file(&path).ok();
        assert_eq!(frozen.lanes, pulled);
        assert!(frozen.lanes.iter().all(|s| s.occurrences(top) > 0));
        assert!(frozen.merged().unique_values().iter().all(|&v| v <= top));
    }

    #[test]
    fn a_tumbling_window_is_a_one_pane_sliding_window() {
        // Every lane shape, window ids and seeds included, completed and
        // mid-window alike.
        let records = stream(1_050, 32);
        for (main, r, m) in [(40, 0, 0), (0, 3, 20), (40, 3, 20)] {
            let build = |window| WindowedSink::new(32, 23, window, main, r, m).unwrap();
            let mut tumbling = build(Window::Tumbling { span: 200 });
            let mut sliding = build(Window::Sliding {
                span: 200,
                step: 200,
            });
            assert_eq!(tumbling.snapshot(), sliding.snapshot());
            let mut windows = Vec::new();
            for chunk in records.chunks(150) {
                tumbling.push_all(chunk).unwrap();
                sliding.push_all(chunk).unwrap();
                let done = tumbling.drain_completed();
                assert_eq!(done, sliding.drain_completed());
                assert_eq!(tumbling.snapshot(), sliding.snapshot());
                windows.extend(done.iter().map(|w| (w.window, w.seed)));
            }
            let want: Vec<(u64, u64)> = (0..5).map(|w| (w, window_seed(23, w))).collect();
            assert_eq!(windows, want);
        }
    }

    /// What every window must freeze to: a whole stream's panes kept side
    /// by side (pane `i` holds records `[i·step, (i+1)·step)` on the lanes
    /// of `window_seed(seed, i)`), window `w` covering panes
    /// `w..w + panes`, frozen by the plain clone-and-merge fold: clone the
    /// oldest pane's reservoir, merge each newer one into it by reference
    /// and sort a copy of the result.
    struct Reference {
        n: usize,
        seed: u64,
        window: Window,
        kind: LaneKind,
        sizes: Vec<usize>,
        panes: Vec<Lanes>,
        seen: u64,
    }

    impl Reference {
        fn new(n: usize, seed: u64, window: Window, main: usize, r: usize, m: usize) -> Self {
            let (kind, sizes) = lane_shape(main, r, m);
            Reference {
                n,
                seed,
                window,
                kind,
                sizes,
                panes: Vec::new(),
                seen: 0,
            }
        }

        fn push(&mut self, value: usize) {
            if self.seen.is_multiple_of(self.window.pane_span()) {
                let seed = window_seed(self.seed, self.panes.len() as u64);
                self.panes
                    .push(Lanes::new(seed, 0, self.kind, &self.sizes).unwrap());
            }
            self.panes.last_mut().unwrap().offer(value);
            self.seen += 1;
        }

        /// Windows completed so far.
        fn completed(&self) -> u64 {
            let full = self.seen / self.window.pane_span();
            (full + 1).saturating_sub(self.window.panes() as u64)
        }

        /// Window `w` over the records pushed so far.
        fn freeze(&self, w: u64, complete: bool) -> WindowSnapshot {
            let first = (w as usize).min(self.panes.len());
            let last = (first + self.window.panes()).min(self.panes.len());
            let panes = &self.panes[first..last];
            let start = if panes.is_empty() {
                self.seen
            } else {
                w * self.window.pane_span()
            };
            let seen: u64 = panes.iter().map(Lanes::seen).sum();
            let mut merge_rng = StdRng::seed_from_u64(stream_seed(self.seed ^ MERGE_SALT, w));
            let lanes: Vec<SampleSet> = (0..self.sizes.len())
                .map(|lane| {
                    panes
                        .iter()
                        .map(|p| &p.reservoirs()[lane])
                        .fold(None::<Reservoir>, |acc, r| match acc {
                            None => Some(r.clone()),
                            Some(a) => Some(a.merge(r, &mut merge_rng)),
                        })
                        .map_or_else(
                            || SampleSet::from_samples(Vec::new()),
                            |r| r.to_sample_set(),
                        )
                })
                .collect();
            WindowSnapshot {
                window: w,
                n: self.n,
                start,
                end: start + seen,
                seen,
                kept: lanes.iter().map(SampleSet::total).sum(),
                seed: window_seed(self.seed, w),
                complete,
                lanes,
            }
        }
    }

    #[test]
    fn a_pane_deque_too_large_to_reserve_is_an_error() {
        let window = Window::Sliding {
            span: 1 << 62,
            step: 1,
        };
        let mut sink = WindowedSink::new(8, 1, window, 5, 0, 0).unwrap();
        let err = sink.push(3).unwrap_err().to_string();
        assert!(err.contains("cannot reserve a window of"), "{err}");
        assert_eq!(sink.seen(), 0, "a refused record is not ingested");
        assert_eq!(
            sink.snapshot().lanes,
            vec![SampleSet::from_samples(Vec::new())]
        );
    }

    #[test]
    fn sink_is_object_safe() {
        let mut sink = WindowedSink::new(8, 1, Window::Tumbling { span: 4 }, 4, 0, 0).unwrap();
        let dyn_sink: &mut dyn SampleSink = &mut sink;
        dyn_sink.push_all(&[1, 2, 3]).unwrap();
        assert_eq!(dyn_sink.seen(), 3);
        assert_eq!(dyn_sink.snapshot().seen, 3);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Push ≡ pull over random plans of every lane shape: a
            /// tumbling window spanning the records freezes exactly the
            /// lanes `RecordFileOracle::draw_lanes` draws from a file of
            /// the same records with the same seed.
            #[test]
            fn prop_window_lanes_equal_record_file_draw_lanes(
                main in 1usize..200,
                r in 0usize..6,
                m in 1usize..200,
                sets_only in 0u32..2,
                n in 1usize..65,
                values in proptest::collection::vec(0usize..64, 1..1501),
                seed in 0u64..u64::MAX,
            ) {
                // One lane (r = 0), sets alone or a main lane plus sets.
                let main = if r > 0 && sets_only == 1 { 0 } else { main };
                let records: Vec<usize> = values.iter().map(|v| v % n).collect();
                let span = records.len() as u64;
                let mut sink =
                    WindowedSink::new(n, seed, Window::Tumbling { span }, main, r, m).unwrap();
                sink.push_all(&records).unwrap();
                let window = sink.drain_completed().pop().unwrap();
                let path = temp_records(&records, "prop");
                let mut oracle = RecordFileOracle::open(&path, n, seed).unwrap();
                let pulled = oracle.draw_lanes(main, r, m);
                std::fs::remove_file(&path).ok();
                prop_assert_eq!(window.lanes, pulled);
            }

            /// One window path: over random plans of every lane shape,
            /// windows of one to four panes, random push cuts and random
            /// snapshot points, every completed and mid-window snapshot
            /// equals the reference fold bit for bit.
            #[test]
            fn prop_snapshots_equal_the_reference_fold(
                main in 1usize..120,
                r in 0usize..5,
                m in 1usize..120,
                sets_only in 0u32..2,
                n in 1usize..65,
                panes in 1u64..5,
                step in 1u64..80,
                tumbling in 0u32..2,
                values in proptest::collection::vec(0usize..64, 0..900),
                cuts in proptest::collection::vec((1usize..150, 0u32..2), 1..40),
                seed in 0u64..u64::MAX,
            ) {
                let main = if r > 0 && sets_only == 1 { 0 } else { main };
                let window = if panes == 1 && tumbling == 1 {
                    Window::Tumbling { span: step }
                } else {
                    Window::Sliding { span: panes * step, step }
                };
                let mut sink = WindowedSink::new(n, seed, window, main, r, m).unwrap();
                let mut reference = Reference::new(n, seed, window, main, r, m);
                prop_assert_eq!(sink.snapshot(), reference.freeze(0, false));
                let records: Vec<usize> = values.iter().map(|v| v % n).collect();
                let mut rest = &records[..];
                let mut drained = 0;
                for &(cut, snapshot) in cuts.iter().cycle() {
                    let (chunk, tail) = rest.split_at(cut.min(rest.len()));
                    sink.push_all(chunk).unwrap();
                    chunk.iter().for_each(|&v| reference.push(v));
                    let done = reference.completed();
                    let want: Vec<WindowSnapshot> =
                        (drained..done).map(|w| reference.freeze(w, true)).collect();
                    prop_assert_eq!(sink.drain_completed(), want);
                    drained = done;
                    if snapshot == 1 {
                        prop_assert_eq!(sink.snapshot(), reference.freeze(done, false));
                    }
                    if tail.is_empty() {
                        break;
                    }
                    rest = tail;
                }
                prop_assert_eq!(sink.snapshot(), reference.freeze(drained, false));
            }

            /// The one-pass union equals folding the lanes pairwise, each
            /// step rebuilding the set from both sides' raw samples —
            /// over empty lanes, a single lane and repeated values.
            #[test]
            fn prop_merged_equals_pairwise_fold(
                lanes in proptest::collection::vec(
                    proptest::collection::vec(0usize..24, 0..40),
                    0..7,
                ),
            ) {
                let sets: Vec<SampleSet> =
                    lanes.iter().cloned().map(SampleSet::from_samples).collect();
                let raw = |set: &SampleSet| -> Vec<usize> {
                    set.unique_values()
                        .iter()
                        .flat_map(|&v| std::iter::repeat_n(v, set.occurrences(v) as usize))
                        .collect()
                };
                let folded = sets.iter().fold(SampleSet::from_samples(Vec::new()), |acc, set| {
                    SampleSet::from_samples([raw(&acc), raw(set)].concat())
                });
                let snap = WindowSnapshot {
                    window: 0,
                    n: 24,
                    start: 0,
                    end: 0,
                    seen: 0,
                    kept: 0,
                    seed: 0,
                    complete: false,
                    lanes: sets,
                };
                prop_assert_eq!(snap.merged(), folded);
            }
        }
    }
}
