//! The sample-access seam: [`SampleOracle`] and its backends.
//!
//! Every algorithm in the paper interacts with the unknown `p ∈ D_n`
//! exclusively through i.i.d. draws — the sample-access model of §2 — yet
//! the first cut of this reproduction hard-wired every entry point to a
//! concrete [`DenseDistribution`]. This module makes sample access a
//! first-class abstraction so the same algorithm code runs against an
//! explicit pmf, a record file too large to materialize, or a replayed
//! capture:
//!
//! ```text
//!                 ┌────────────────────────────────────┐
//!                 │ khist-core algorithms (generic)    │
//!                 │ learn · test_l1/l2 · uniformity …  │
//!                 └──────────────────┬─────────────────┘
//!                                    │  trait SampleOracle
//!                  ┌─────────────────┼──────────────────┐
//!                  ▼                 ▼                  ▼
//!          ┌──────────────┐  ┌────────────────┐  ┌──────────────┐
//!          │ DenseOracle  │  │RecordFileOracle│  │ ReplayOracle │
//!          │ alias table, │  │ one-pass       │  │ pre-drawn    │
//!          │ parallel     │  │ reservoir      │  │ buffers,     │
//!          │ lanes        │  │ lanes          │  │ deterministic│
//!          └──────────────┘  └────────────────┘  └──────────────┘
//! ```
//!
//! Every backend implements one draw, [`SampleOracle::draw_lanes`], and
//! every draw splits into lanes by one rule (`lane_shape`). Reproducibility
//! is seed-based: each lane consumes one *stream* derived deterministically
//! from `(seed, stream_index)` via a SplitMix64 mix, so [`DenseOracle`] may
//! fan the lanes out across threads and still produce output bit-identical
//! to a sequential run (verified by property test below), and a record
//! stream poured into `Lanes` fills the same lanes whether it is pulled
//! from a file or pushed into a [`crate::sink::WindowedSink`].

use std::cell::Cell;
use std::collections::VecDeque;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use khist_dist::{sampler::AliasSampler, DenseDistribution, DistError};

use crate::reservoir::Reservoir;
use crate::sample_set::SampleSet;

/// Sample access to an unknown distribution over `[n]` — the only channel
/// the paper's algorithms are allowed to use.
///
/// Implementations own their randomness (seeded at construction), so the
/// algorithms themselves stay deterministic functions of the oracle.
/// The trait is object-safe: `&mut dyn SampleOracle` works wherever an
/// oracle is expected.
pub trait SampleOracle {
    /// The domain size `n` of the underlying distribution.
    fn domain_size(&self) -> usize;

    /// Draws the lanes of one sample plan: a main set of `main` plus `r`
    /// sets of `m` — Algorithm 1's `ℓ` samples and `S¹, …, Sʳ`, or the
    /// sets alone of Algorithms 2–4. The lanes come back in draw order:
    /// one lane of `main` when `r == 0`, the `r` sets when `main == 0`,
    /// and otherwise the main lane followed by the `r` sets. Lane `i`
    /// consumes seed stream `i` of the draw, so the lanes are independent.
    fn draw_lanes(&mut self, main: usize, r: usize, m: usize) -> Vec<SampleSet>;

    /// Draws one fresh set of `m` i.i.d. samples (a one-lane draw).
    fn draw_set(&mut self, m: usize) -> SampleSet {
        let mut lanes = self.draw_lanes(m, 0, 0);
        lanes
            .pop()
            .unwrap_or_else(|| SampleSet::from_samples(Vec::new()))
    }

    /// Draws `r` independent sets of `m` samples each — the `S¹, …, Sʳ` of
    /// Algorithms 1–4. No draw at all when `r == 0`.
    fn draw_sets(&mut self, r: usize, m: usize) -> Vec<SampleSet> {
        if r == 0 {
            return Vec::new();
        }
        self.draw_lanes(0, r, m)
    }
}

/// Deterministic per-stream seed derivation (SplitMix64 finalizer over the
/// base seed and the stream index). Stream `i` of a given oracle always
/// maps to the same RNG state, independent of thread scheduling. Shared
/// with the push-based [`crate::sink`] layer, whose lanes must consume the
/// same seed streams as the pull backends for push≡pull bit-identity, and
/// with the keyed multi-stream engine in `khist-core`, which derives each
/// stream's seed as `stream_seed(base_seed, hash(key))` so a sharded run
/// stays bit-identical per stream to a dedicated single-stream monitor.
pub fn stream_seed(base: u64, stream: u64) -> u64 {
    let mut z = base ^ stream.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Below this many total samples a parallel fan-out costs more in thread
/// setup than it saves; [`DenseOracle`] draws the lanes one by one (which
/// is bit-identical anyway).
const PARALLEL_DRAW_THRESHOLD: usize = 1 << 13;

/// How a draw of `main` plus `r` sets of `m` deals records to its lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaneKind {
    /// One lane of `main` (`r == 0`): every record to lane 0.
    Single,
    /// `r` lanes of `m` (`main == 0`): record `t` to lane `t mod r`.
    RoundRobin,
    /// A main lane plus `r` lanes of `m`: each record to lane `i` with
    /// probability `sizes[i] / Σ sizes`, drawn from the assignment stream.
    Weighted,
}

/// The lane rule every draw follows, pulled or pushed: the kind and the
/// lane sizes in draw order (`[main?, m, …, m]`) of a draw of `main` plus
/// `r` sets of `m`.
pub(crate) fn lane_shape(main: usize, r: usize, m: usize) -> (LaneKind, Vec<usize>) {
    if r == 0 {
        (LaneKind::Single, vec![main])
    } else if main == 0 {
        (LaneKind::RoundRobin, vec![m; r])
    } else {
        let sizes = std::iter::once(main).chain(std::iter::repeat_n(m, r));
        (LaneKind::Weighted, sizes.collect())
    }
}

/// Values a lane slot holds: a kept sample is a `u32`, so every record of
/// a domain of at most `2³²` values fits one.
const MAX_DOMAIN: u64 = 1 << 32;

/// Bytes of one lane slot.
const SLOT_BYTES: u128 = std::mem::size_of::<u32>() as u128;

/// Rejects a domain of `n > 2³²` values, whose records do not fit a lane
/// slot.
pub(crate) fn check_domain(n: usize) -> Result<(), DistError> {
    if n as u64 > MAX_DOMAIN {
        return Err(DistError::BadParameter {
            reason: format!(
                "domain size {n} exceeds 2^32, the most values a four-byte sample slot holds"
            ),
        });
    }
    Ok(())
}

/// Bytes the lanes of `sizes` reserve (a zero-size lane keeps one slot).
fn lane_bytes(sizes: &[usize]) -> u128 {
    sizes.iter().map(|&m| m.max(1) as u128).sum::<u128>() * SLOT_BYTES
}

/// Rejects lanes of `sizes` whose bytes exceed `isize::MAX`, the most any
/// allocation can hold.
pub(crate) fn check_lane_bytes(sizes: &[usize]) -> Result<(), DistError> {
    let bytes = lane_bytes(sizes);
    if bytes > isize::MAX as u128 {
        return Err(DistError::BadParameter {
            reason: format!(
                "sample lanes of {} slots need {bytes} bytes, more than the isize::MAX = {} \
                 bytes an allocation can hold",
                bytes / SLOT_BYTES,
                isize::MAX
            ),
        });
    }
    Ok(())
}

/// Builds the error of lanes whose reservation the allocator refused.
/// Kept out of line so the error formatting stays off the record-accepting
/// hot path of [`crate::sink::WindowedSink`]'s `push`, which opens a pane's
/// lanes on its first record.
#[cold]
fn lanes_refused(sizes: &[usize]) -> DistError {
    DistError::BadParameter {
        reason: format!(
            "cannot reserve {} bytes for {} sample lanes; shrink the window or the sample budget",
            lane_bytes(sizes),
            sizes.len()
        ),
    }
}

/// Record→lane assignment of one [`Lanes`].
#[derive(Debug, Clone)]
enum LaneRouter {
    Single,
    RoundRobin {
        lanes: u64,
    },
    /// Lane `i` owns `[cum[i-1], cum[i])` of `0..total`.
    Weighted {
        cum: Vec<u64>,
        total: u64,
        assign: StdRng,
    },
}

/// The reservoir lanes of one draw: lane `i` is a [`Reservoir`] fed from
/// seed stream `first + i`, and a weighted draw assigns records from
/// stream `first + lanes`. [`RecordFileOracle`] pours a file into one and
/// each pane of a [`crate::sink::WindowedSink`] fills one as records
/// arrive, so push ≡ pull holds by construction.
#[derive(Debug, Clone)]
pub(crate) struct Lanes {
    reservoirs: Vec<Reservoir>,
    rngs: Vec<StdRng>,
    router: LaneRouter,
    /// Records offered so far.
    seen: u64,
}

impl Lanes {
    /// Empty lanes of `sizes` (dealt as `kind`) on the streams of `seed`
    /// starting at `first`, each reserving its full size up front. Fails,
    /// instead of aborting, when the allocator refuses a reservation.
    pub(crate) fn new(
        seed: u64,
        first: u64,
        kind: LaneKind,
        sizes: &[usize],
    ) -> Result<Self, DistError> {
        let stream = |i: usize| StdRng::seed_from_u64(stream_seed(seed, first + i as u64));
        let router = match kind {
            LaneKind::Single => LaneRouter::Single,
            LaneKind::RoundRobin => LaneRouter::RoundRobin {
                lanes: sizes.len() as u64,
            },
            LaneKind::Weighted => {
                let cum: Vec<u64> = sizes
                    .iter()
                    .scan(0u64, |acc, &m| {
                        *acc += m as u64;
                        Some(*acc)
                    })
                    .collect();
                let total = cum.last().copied().unwrap_or(0);
                let assign = stream(sizes.len());
                LaneRouter::Weighted { cum, total, assign }
            }
        };
        // A zero-size lane of a weighted draw owns an empty share of the
        // assignment range, so it never receives a record.
        let mut reservoirs = Vec::with_capacity(sizes.len());
        for &m in sizes {
            let reservoir = Reservoir::try_new(m.max(1)).map_err(|_| lanes_refused(sizes))?;
            reservoirs.push(reservoir);
        }
        Ok(Lanes {
            reservoirs,
            rngs: (0..sizes.len()).map(stream).collect(),
            router,
            seen: 0,
        })
    }

    /// Routes the next record, a value of a domain [`check_domain`]
    /// accepted, to its lane and offers it to that lane's reservoir.
    // lint:hot-path
    pub(crate) fn offer(&mut self, value: usize) {
        let lane = match &mut self.router {
            LaneRouter::Single => 0,
            LaneRouter::RoundRobin { lanes } => (self.seen % *lanes) as usize,
            LaneRouter::Weighted { cum, total, assign } => {
                let x = assign.random_range(0..*total);
                cum.partition_point(|&c| c <= x)
            }
        };
        debug_assert!(u32::try_from(value).is_ok(), "a checked domain fits a slot");
        // lint:allow(checked-indexing): the router returns an index below the lane count
        self.reservoirs[lane].offer(value as u32, &mut self.rngs[lane]);
        self.seen += 1;
    }

    /// Records offered so far.
    pub(crate) fn seen(&self) -> u64 {
        self.seen
    }

    /// The lanes' reservoirs, in draw order.
    pub(crate) fn reservoirs(&self) -> &[Reservoir] {
        &self.reservoirs
    }

    /// The lanes' reservoirs by value, in draw order.
    pub(crate) fn into_reservoirs(self) -> Vec<Reservoir> {
        self.reservoirs
    }

    /// The lanes' samples, in draw order.
    pub(crate) fn into_sets(self) -> Vec<SampleSet> {
        self.reservoirs
            .into_iter()
            .map(Reservoir::into_sample_set)
            .collect()
    }
}

/// Sample oracle over an explicit [`DenseDistribution`]: the simulation
/// backend every experiment uses.
///
/// Sampling goes through a Walker–Vose [`AliasSampler`] (`O(1)` per draw;
/// the table is built once at construction instead of per call), and
/// [`draw_lanes`](SampleOracle::draw_lanes) fans the lanes out across
/// threads. Per-lane RNG streams are split from the construction seed, so
/// results are reproducible regardless of thread count.
#[derive(Debug, Clone)]
pub struct DenseOracle {
    n: usize,
    sampler: AliasSampler,
    seed: u64,
    next_stream: u64,
}

impl DenseOracle {
    /// Builds the oracle (and its alias table) for `p`, with all randomness
    /// derived from `seed`.
    pub fn new(p: &DenseDistribution, seed: u64) -> Self {
        DenseOracle {
            n: p.n(),
            sampler: AliasSampler::new(p),
            seed,
            next_stream: 0,
        }
    }

    /// The construction seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of sample streams consumed so far.
    pub fn streams_used(&self) -> u64 {
        self.next_stream
    }

    fn set_for_stream(&self, stream: u64, m: usize) -> SampleSet {
        let mut rng = StdRng::seed_from_u64(stream_seed(self.seed, stream));
        SampleSet::from_samples(self.sampler.sample_many(m, &mut rng))
    }

    /// Sequential reference implementation of
    /// [`draw_sets`](SampleOracle::draw_sets): consumes the same streams in
    /// the same order, so its output is bit-identical to the parallel path.
    /// Exists for the equivalence property test and the throughput bench.
    pub fn draw_sets_sequential(&mut self, r: usize, m: usize) -> Vec<SampleSet> {
        (0..r).map(|_| self.draw_set(m)).collect()
    }

    /// Draws one set per entry of `sizes`, set `i` from stream `first + i`
    /// — fanned across threads when the work is large enough. Because each
    /// set depends only on its stream seed, the output is bit-identical to
    /// drawing the streams one by one.
    fn draw_streams(&self, first: u64, sizes: &[usize]) -> Vec<SampleSet> {
        let count = sizes.len();
        let total: usize = sizes.iter().sum();
        let workers = if total < PARALLEL_DRAW_THRESHOLD {
            1
        } else {
            std::thread::available_parallelism().map_or(1, |p| p.get().min(count))
        };
        if workers <= 1 {
            return sizes
                .iter()
                .enumerate()
                .map(|(i, &m)| self.set_for_stream(first + i as u64, m))
                .collect();
        }
        // Shared-nothing fan-out: each worker pulls stream indices from an
        // atomic counter, seeds its own RNG from (seed, stream), and writes
        // into its slot. Output depends only on the stream seeds, never on
        // scheduling.
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<SampleSet>>> = (0..count).map(|_| Mutex::new(None)).collect();
        crossbeam::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|_| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    // lint:allow(checked-indexing): i < count == sizes.len() == slots.len()
                    let set = self.set_for_stream(first + i as u64, sizes[i]);
                    // lint:allow(checked-indexing): i < count == slots.len()
                    let slot = &slots[i];
                    // lint:allow(no-panic): lock holders never panic
                    *slot.lock().expect("slot lock never poisoned") = Some(set);
                });
            }
        })
        // lint:allow(no-panic): a panicked sampling worker must abort loudly, not return bad sets
        .expect("sampling worker panicked");
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    // lint:allow(no-panic): lock holders never panic
                    .expect("slot lock never poisoned")
                    // lint:allow(no-panic): the worker loop covers every index below count
                    .expect("every stream index visited")
            })
            .collect()
    }
}

impl SampleOracle for DenseOracle {
    fn domain_size(&self) -> usize {
        self.n
    }

    fn draw_lanes(&mut self, main: usize, r: usize, m: usize) -> Vec<SampleSet> {
        // i.i.d. draws need no router: each lane is its own stream.
        let (_, sizes) = lane_shape(main, r, m);
        let first = self.next_stream;
        self.next_stream += sizes.len() as u64;
        self.draw_streams(first, &sizes)
    }
}

/// Sample oracle that replays pre-drawn sets in order: for deterministic
/// tests, for replaying a captured workload, and for feeding already-split
/// in-memory data through the generic algorithm entry points.
///
/// Requested sizes are ignored — each draw returns the next recorded set
/// verbatim (replay semantics).
///
/// # Panics
/// Draws past the recorded buffers panic: a replay that runs dry means the
/// workload being replayed diverged from the captured one.
#[derive(Debug, Clone)]
pub struct ReplayOracle {
    n: usize,
    sets: VecDeque<SampleSet>,
    replayed: usize,
}

impl ReplayOracle {
    /// Replays `sets` (in order) over a domain of size `n`.
    pub fn from_sets(n: usize, sets: Vec<SampleSet>) -> Self {
        ReplayOracle {
            n,
            sets: sets.into(),
            replayed: 0,
        }
    }

    /// Replays raw sample buffers (in order) over a domain of size `n`.
    pub fn from_raw(n: usize, buffers: Vec<Vec<usize>>) -> Self {
        Self::from_sets(
            n,
            buffers.into_iter().map(SampleSet::from_samples).collect(),
        )
    }

    /// Number of recorded sets not yet replayed.
    pub fn remaining(&self) -> usize {
        self.sets.len()
    }

    /// Number of recorded sets served so far — together with
    /// [`remaining`](ReplayOracle::remaining), the passes-style counter
    /// that lets callers assert a workload consumed *exactly* the recorded
    /// capture and drew nothing beyond it (any extra draw panics).
    pub fn replayed(&self) -> usize {
        self.replayed
    }
}

impl SampleOracle for ReplayOracle {
    fn domain_size(&self) -> usize {
        self.n
    }

    fn draw_lanes(&mut self, main: usize, r: usize, m: usize) -> Vec<SampleSet> {
        let lanes = lane_shape(main, r, m).1.len();
        (0..lanes)
            .map(|_| {
                let set = self.sets.pop_front().unwrap_or_else(|| {
                    // lint:allow(no-panic): replaying past the recording is a harness bug, not a data error
                    panic!(
                        "ReplayOracle exhausted: all {} recorded sets already replayed",
                        self.replayed
                    )
                });
                self.replayed += 1;
                set
            })
            .collect()
    }
}

/// Streaming sample oracle over a line-oriented record file (the `khist`
/// CLI's input format: one non-negative integer per line, `#` comments and
/// blank lines ignored).
///
/// [`open`](RecordFileOracle::open) makes one validation pass (count the
/// records, infer or check the domain) and stores only the path and
/// metadata. Each draw then re-streams the file through fixed-capacity
/// [`Reservoir`]s, so memory stays `O(samples requested)` no matter how
/// many records the file holds — a multi-million-line file is learned
/// without ever materializing a `Vec` of all records.
///
/// Splitting semantics: every [`draw_lanes`](SampleOracle::draw_lanes)
/// call makes **one pass** and deals the records to disjoint lanes, one
/// reservoir per lane:
///
/// * `r` sets alone are dealt round-robin, so with `m ≤ ⌊records/r⌋`
///   every set holds exactly `m` records;
/// * a main lane plus `r` sets (the learner's `ℓ` main + `r × m`
///   collision split) gets each record with probability proportional to
///   the lane's requested size;
/// * separate draw *calls* each re-stream the file, so sets from different
///   calls resample the same records — draw all the lanes in one call
///   when independence across sets matters.
///
/// A reservoir holds a uniform without-replacement subsample of its lane;
/// when the stream is i.i.d. records from `p` and much longer than the
/// capacity, that is the paper's sample model up to `O(m/records)`
/// corrections (see [`Reservoir`]).
///
/// The population is frozen at `open` time: records appended to the file
/// after the scan are ignored by later draws (safe on live logs), while
/// *rewriting* the scanned prefix is a contract violation.
///
/// # Panics
/// Draws panic if the scanned prefix of the file is rewritten between
/// `open` and the draw (vanishes, or its records no longer parse or escape
/// the domain), and when the requested lanes cannot be reserved: their
/// bytes exceed `isize::MAX` or the allocator refuses them.
#[derive(Debug, Clone)]
pub struct RecordFileOracle {
    path: PathBuf,
    n: usize,
    records: u64,
    seed: u64,
    next_stream: u64,
    passes: Cell<u64>,
}

/// Parses line `lineno` of a record file: `Ok(None)` for blanks and `#`
/// comments, the record for a (whitespace-padded) non-negative integer,
/// and a message naming the line for anything else.
pub fn parse_record(line: &str, lineno: usize) -> Result<Option<usize>, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    trimmed
        .parse::<usize>()
        .map(Some)
        .map_err(|_| format!("line {lineno}: not an integer record: {trimmed}"))
}

impl RecordFileOracle {
    /// Opens a record file, scanning it once to count records and fix the
    /// domain: `n_override` when positive (every record must fit, or the
    /// scan fails with the offending line), else `max record + 1`. Fails
    /// when the domain exceeds `2³²` values, the most a lane slot holds.
    pub fn open(path: impl Into<PathBuf>, n_override: usize, seed: u64) -> Result<Self, DistError> {
        check_domain(n_override)?;
        let path = path.into();
        let file = std::fs::File::open(&path).map_err(|e| DistError::BadParameter {
            reason: format!("{}: {e}", path.display()),
        })?;
        let mut records = 0u64;
        let mut max = 0usize;
        for (idx, line) in std::io::BufReader::new(file).lines().enumerate() {
            let line = line.map_err(|e| DistError::BadParameter {
                reason: format!("{}: read failed at line {}: {e}", path.display(), idx + 1),
            })?;
            let record = parse_record(&line, idx + 1)
                .map_err(|reason| DistError::BadParameter { reason })?;
            if let Some(value) = record {
                if n_override > 0 && value >= n_override {
                    return Err(DistError::BadParameter {
                        reason: format!(
                            "line {}: record {value} outside declared domain [0, {n_override}); \
                             raise --n or drop it to infer the domain from the data",
                            idx + 1
                        ),
                    });
                }
                max = max.max(value);
                records += 1;
            }
        }
        if records == 0 {
            return Err(DistError::BadParameter {
                reason: format!("{}: no records in input", path.display()),
            });
        }
        let n = if n_override > 0 {
            n_override
        } else {
            max.saturating_add(1)
        };
        check_domain(n)?;
        Ok(RecordFileOracle {
            n,
            path,
            records,
            seed,
            next_stream: 0,
            passes: Cell::new(0),
        })
    }

    /// The file being streamed.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of records counted by the `open` scan — the data actually
    /// available, which callers use to clamp sample budgets.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Number of streaming passes made over the file since `open` (the
    /// validation scan is not counted). Every draw call costs exactly one
    /// pass regardless of how many sets it serves, so batched entry points
    /// — and the analysis API's shared sample plan on top of them — keep
    /// this at one per workload. Tests assert on it.
    pub fn passes(&self) -> u64 {
        self.passes.get()
    }

    /// One streaming pass over the *scanned prefix*, offering every
    /// record to `lanes` in file order. Records appended after `open`'s
    /// scan are ignored — the oracle's population is frozen at open time,
    /// so a live log being appended to mid-draw stays well-defined
    /// (appended records were never part of the counted/validated
    /// population).
    fn pour(&self, lanes: &mut Lanes) {
        let file = std::fs::File::open(&self.path).unwrap_or_else(|e| {
            // lint:allow(no-panic): open() already validated the file; a vanished file is unrecoverable
            panic!("{}: vanished after scan: {e}", self.path.display());
        });
        self.passes.set(self.passes.get() + 1);
        for (idx, line) in std::io::BufReader::new(file).lines().enumerate() {
            if lanes.seen() >= self.records {
                break;
            }
            let line = line.unwrap_or_else(|e| {
                // lint:allow(no-panic): the record file was readable at open(); mid-draw I/O failure is unrecoverable
                panic!(
                    "{}: read failed at line {} after clean scan: {e}",
                    self.path.display(),
                    idx + 1
                );
            });
            match parse_record(&line, idx + 1) {
                Ok(Some(value)) => {
                    assert!(
                        value < self.n,
                        "{}: rewritten after scan: line {} record {value} outside [0, {})",
                        self.path.display(),
                        idx + 1,
                        self.n
                    );
                    lanes.offer(value);
                }
                Ok(None) => {}
                // lint:allow(no-panic): a record that parsed at open() but not now means the file was rewritten
                Err(e) => panic!("{}: rewritten after scan: {e}", self.path.display()),
            }
        }
    }
}

impl SampleOracle for RecordFileOracle {
    fn domain_size(&self) -> usize {
        self.n
    }

    fn draw_lanes(&mut self, main: usize, r: usize, m: usize) -> Vec<SampleSet> {
        let (kind, sizes) = lane_shape(main, r, m);
        // One stream per lane, plus a weighted draw's assignment stream.
        let first = self.next_stream;
        self.next_stream += sizes.len() as u64 + u64::from(kind == LaneKind::Weighted);
        if sizes.iter().all(|&size| size == 0) {
            return sizes
                .iter()
                .map(|_| SampleSet::from_samples(Vec::new()))
                .collect();
        }
        let mut lanes = check_lane_bytes(&sizes)
            .and_then(|()| Lanes::new(self.seed, first, kind, &sizes))
            .unwrap_or_else(|e| {
                // lint:allow(no-panic): draw_lanes has no error channel, and a plan no allocation can hold cannot be drawn
                panic!("{}: {e}", self.path.display())
            });
        self.pour(&mut lanes);
        lanes.into_sets()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::empirical::empirical_distribution;
    use crate::test_util::temp_records;
    use khist_dist::generators;
    use std::io::Write;

    fn zipf64() -> DenseDistribution {
        generators::zipf(64, 1.1).unwrap()
    }

    #[test]
    fn dense_oracle_draws_m_samples_in_domain() {
        let p = zipf64();
        let mut oracle = DenseOracle::new(&p, 7);
        assert_eq!(oracle.domain_size(), 64);
        let set = oracle.draw_set(500);
        assert_eq!(set.total(), 500);
        assert!(set.unique_values().iter().all(|&v| v < 64));
        assert_eq!(oracle.streams_used(), 1);
    }

    #[test]
    fn dense_oracle_is_reproducible_per_seed() {
        let p = zipf64();
        let mut a = DenseOracle::new(&p, 42);
        let mut b = DenseOracle::new(&p, 42);
        assert_eq!(a.draw_set(200), b.draw_set(200));
        assert_eq!(a.draw_sets(3, 100), b.draw_sets(3, 100));
        let mut c = DenseOracle::new(&p, 43);
        assert_ne!(a.draw_set(200), c.draw_set(200));
    }

    #[test]
    fn dense_oracle_successive_draws_differ() {
        let p = zipf64();
        let mut oracle = DenseOracle::new(&p, 9);
        let a = oracle.draw_set(300);
        let b = oracle.draw_set(300);
        assert_ne!(a, b, "successive streams must be independent");
    }

    #[test]
    fn dense_parallel_equals_sequential_large() {
        // Large enough (r·m ≥ threshold) to actually exercise the threaded
        // path on multi-core machines.
        let p = zipf64();
        let mut par = DenseOracle::new(&p, 11);
        let mut seq = DenseOracle::new(&p, 11);
        let a = par.draw_sets(16, 4096);
        let b = seq.draw_sets_sequential(16, 4096);
        assert_eq!(a, b);
        assert_eq!(par.streams_used(), seq.streams_used());
    }

    #[test]
    fn dense_draw_lanes_matches_per_set_draws() {
        // A threaded main + sets draw must be bit-identical to drawing
        // its lanes one draw_set at a time. Total is above the parallel
        // threshold so the fan-out path is exercised.
        let p = zipf64();
        let sizes = [6000usize, 1500, 1500, 1500];
        let mut batched = DenseOracle::new(&p, 23);
        let batch = batched.draw_lanes(6000, 3, 1500);
        let mut one_by_one = DenseOracle::new(&p, 23);
        let manual: Vec<SampleSet> = sizes.iter().map(|&m| one_by_one.draw_set(m)).collect();
        assert_eq!(batch, manual);
        assert_eq!(batched.streams_used(), one_by_one.streams_used());
    }

    #[test]
    fn dense_stream_counter_is_call_shape_independent() {
        // draw_set / draw_sets interleavings consume the same streams.
        let p = zipf64();
        let mut a = DenseOracle::new(&p, 5);
        let mut b = DenseOracle::new(&p, 5);
        let a1 = a.draw_set(64);
        let a2 = a.draw_sets(3, 64);
        let a3 = a.draw_set(64);
        let b_all = b.draw_sets_sequential(5, 64);
        assert_eq!(a1, b_all[0]);
        assert_eq!(a2, b_all[1..4]);
        assert_eq!(a3, b_all[4]);
    }

    #[test]
    fn dense_oracle_matches_distribution_statistically() {
        let p = generators::two_level(32, 0.5, 0.9).unwrap();
        let mut oracle = DenseOracle::new(&p, 3);
        let set = oracle.draw_set(200_000);
        let emp = empirical_distribution(&set, 32).unwrap();
        let err = khist_dist::distance::l1_fn(&emp.to_vec(), &p.to_vec());
        assert!(err < 0.02, "empirical l1 error {err}");
    }

    #[test]
    fn replay_oracle_returns_recorded_sets_in_order() {
        let mut replay = ReplayOracle::from_raw(8, vec![vec![1, 2], vec![3, 3, 4]]);
        assert_eq!(replay.domain_size(), 8);
        assert_eq!(replay.remaining(), 2);
        let first = replay.draw_set(999); // size request ignored
        assert_eq!(first.total(), 2);
        let second = replay.draw_set(0);
        assert_eq!(second.occurrences(3), 2);
        assert_eq!(replay.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "ReplayOracle exhausted")]
    fn replay_oracle_panics_when_dry() {
        let mut replay = ReplayOracle::from_raw(4, vec![vec![0]]);
        let _ = replay.draw_set(1);
        let _ = replay.draw_set(1);
    }

    #[test]
    fn oracle_trait_is_object_safe() {
        let p = zipf64();
        let mut dense = DenseOracle::new(&p, 1);
        let mut replay = ReplayOracle::from_raw(64, vec![vec![1, 2, 3]]);
        let oracles: Vec<&mut dyn SampleOracle> = vec![&mut dense, &mut replay];
        for oracle in oracles {
            assert_eq!(oracle.domain_size(), 64);
            assert!(oracle.draw_set(3).total() >= 3);
        }
    }

    #[test]
    fn parse_record_skips_comments_and_blanks_and_names_bad_lines() {
        let lines = ["# header", "3", "", " 7 ", "0"];
        let parsed: Vec<Option<usize>> = lines
            .iter()
            .enumerate()
            .map(|(i, line)| parse_record(line, i + 1).unwrap())
            .collect();
        assert_eq!(parsed, [None, Some(3), None, Some(7), Some(0)]);
        assert_eq!(
            parse_record("foo", 2).unwrap_err(),
            "line 2: not an integer record: foo"
        );
        assert!(parse_record("-3", 1).is_err());
    }

    #[test]
    fn record_file_scan_infers_domain_and_counts() {
        let path = temp_records(&[0, 5, 2, 5, 9], "scan");
        let oracle = RecordFileOracle::open(&path, 0, 1).unwrap();
        assert_eq!(oracle.domain_size(), 10);
        assert_eq!(oracle.records(), 5);
        let explicit = RecordFileOracle::open(&path, 16, 1).unwrap();
        assert_eq!(explicit.domain_size(), 16);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_file_rejects_out_of_domain_with_clear_message() {
        let path = temp_records(&[0, 99, 2], "domain");
        let err = RecordFileOracle::open(&path, 50, 1).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("record 99") && msg.contains("[0, 50)") && msg.contains("line 3"),
            "unhelpful message: {msg}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_file_rejects_garbage_and_empty() {
        let path = temp_records(&[], "empty");
        assert!(RecordFileOracle::open(&path, 0, 1).is_err());
        std::fs::remove_file(&path).ok();

        let path =
            std::env::temp_dir().join(format!("khist-oracle-bad-{}.txt", std::process::id()));
        std::fs::write(&path, "1\nfoo\n").unwrap();
        let err = RecordFileOracle::open(&path, 0, 1).unwrap_err().to_string();
        assert!(err.contains("line 2") && err.contains("foo"), "{err}");
        std::fs::remove_file(&path).ok();

        assert!(RecordFileOracle::open("/nonexistent/khist.txt", 0, 1).is_err());
    }

    #[test]
    fn record_file_full_capacity_draw_returns_all_records() {
        let records = vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        let path = temp_records(&records, "full");
        let mut oracle = RecordFileOracle::open(&path, 0, 7).unwrap();
        let set = oracle.draw_set(records.len());
        assert_eq!(set, SampleSet::from_samples(records.clone()));
        // Oversized requests also keep everything.
        let set = oracle.draw_set(10 * records.len());
        assert_eq!(set, SampleSet::from_samples(records));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_file_draw_sets_splits_disjointly() {
        let records: Vec<usize> = (0..90).map(|i| i % 30).collect();
        let path = temp_records(&records, "split");
        let mut oracle = RecordFileOracle::open(&path, 0, 13).unwrap();
        // m = records/r → round-robin lanes fill exactly, disjointly.
        let sets = oracle.draw_sets(3, 30);
        assert!(sets.iter().all(|s| s.total() == 30));
        let merged = SampleSet::merge(&sets);
        assert_eq!(merged, SampleSet::from_samples(records));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_file_weighted_draw_fills_heterogeneous_lanes() {
        let records: Vec<usize> = (0..10_000).map(|i| i % 40).collect();
        let path = temp_records(&records, "batch");
        let mut oracle = RecordFileOracle::open(&path, 0, 99).unwrap();
        let sets = oracle.draw_lanes(400, 2, 100);
        assert_eq!(sets.len(), 3);
        // With records ≫ Σ sizes every lane fills to capacity.
        assert_eq!(sets[0].total(), 400);
        assert_eq!(sets[1].total(), 100);
        assert_eq!(sets[2].total(), 100);
        assert!(sets
            .iter()
            .all(|s| s.unique_values().iter().all(|&v| v < 40)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_file_ignores_records_appended_after_open() {
        // Live-log scenario: the population is frozen at open time, so an
        // appended tail — even one outside the inferred domain — neither
        // panics nor changes what a draw returns.
        let records = vec![4, 2, 7, 2, 1];
        let path = temp_records(&records, "append");
        let mut oracle = RecordFileOracle::open(&path, 0, 5).unwrap();
        let before = oracle.draw_set(records.len());
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        writeln!(f, "9999").unwrap();
        writeln!(f, "not-a-record").unwrap();
        drop(f);
        let after = oracle.draw_set(records.len());
        assert_eq!(before, SampleSet::from_samples(records));
        assert_eq!(after, before);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_file_draws_are_seed_reproducible() {
        let records: Vec<usize> = (0..500).map(|i| (i * 7) % 25).collect();
        let path = temp_records(&records, "seed");
        let mut a = RecordFileOracle::open(&path, 0, 21).unwrap();
        let mut b = RecordFileOracle::open(&path, 0, 21).unwrap();
        assert_eq!(a.draw_set(50), b.draw_set(50));
        assert_eq!(a.draw_sets(4, 100), b.draw_sets(4, 100));
        assert_eq!(a.draw_lanes(60, 1, 30), b.draw_lanes(60, 1, 30));
        let mut c = RecordFileOracle::open(&path, 0, 22).unwrap();
        assert_ne!(a.draw_set(50), c.draw_set(50));
        std::fs::remove_file(&path).ok();
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Satellite: parallel `draw_sets` is bit-identical to
            /// sequential for the same seed (acceptance criterion).
            #[test]
            fn prop_parallel_draw_sets_equals_sequential(
                seed in 0u64..u64::MAX,
                r in 1usize..10,
                m in 1usize..240,
            ) {
                let p = zipf64();
                let mut par = DenseOracle::new(&p, seed);
                let mut seq = DenseOracle::new(&p, seed);
                prop_assert_eq!(par.draw_sets(r, m), seq.draw_sets_sequential(r, m));
            }

            /// Satellite: a `ReplayOracle` built from a `DenseOracle`'s
            /// output reproduces it exactly.
            #[test]
            fn prop_replay_reproduces_dense_output(
                seed in 0u64..u64::MAX,
                r in 1usize..6,
                m in 1usize..120,
            ) {
                let p = zipf64();
                let mut dense = DenseOracle::new(&p, seed);
                let main = dense.draw_set(m);
                let sets = dense.draw_sets(r, m);
                let mut recorded = vec![main.clone()];
                recorded.extend(sets.iter().cloned());
                let mut replay = ReplayOracle::from_sets(64, recorded);
                prop_assert_eq!(replay.draw_set(m), main);
                prop_assert_eq!(replay.draw_sets(r, m), sets);
            }

            /// Satellite: streaming a materialized file at full capacity
            /// returns exactly the file's records — the oracle agrees with
            /// `empirical_distribution` on every count.
            #[test]
            fn prop_record_file_matches_empirical_counts(
                records in proptest::collection::vec(0usize..50, 1..250),
                seed in 0u64..u64::MAX,
            ) {
                let path = temp_records(&records, "prop");
                let mut oracle = RecordFileOracle::open(&path, 50, seed).unwrap();
                let streamed = oracle.draw_set(records.len());
                let direct = SampleSet::from_samples(records.clone());
                std::fs::remove_file(&path).ok();
                prop_assert_eq!(&streamed, &direct);
                let from_stream = empirical_distribution(&streamed, 50).unwrap();
                let from_direct = empirical_distribution(&direct, 50).unwrap();
                for i in 0..50 {
                    prop_assert!((from_stream.mass(i) - from_direct.mass(i)).abs() < 1e-15);
                }
            }
        }
    }
}
