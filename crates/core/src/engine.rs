//! The keyed multi-stream ingest path: an [`Engine`] over a shared-nothing
//! pool of [`Monitor`] shards.
//!
//! A single [`Monitor`] watches one stream on one core. Real deployments
//! watch *many* keyed streams at once — per-tenant, per-shard, per-endpoint
//! latency histograms — and the per-window workload (the standing batch
//! plus the Diakonikolas–Kane–Nikishkin-style `ℓ₂` closeness drift check)
//! is exactly the CPU-bound work worth scaling out:
//!
//! ```text
//!   ingest_batch(&[(key, value), …])
//!        │  route, on the caller thread: one key-table lookup per
//!        ▼  record gives its debut index and (shard, slot); a debut is
//!           placed in arrival order, on the home shard of its FNV-1a
//!           hash; each record appends (slot, value) to that bucket
//!   ┌─────────┐  ┌─────────┐       ┌─────────┐   shard ingest: one job per
//!   │ shard 0 │  │ shard 1 │  ...  │ shard S │   busy shard groups its
//!   │ ┌─────┐ │  │ ┌─────┐ │       │ ┌─────┐ │   bucket per stream, in
//!   │ │state│ │  │ │state│ │       │ │state│ │   arrival order, and ingests;
//!   │ │state│ │  │ └─────┘ │       │ │state│ │   one *persistent* worker
//!   │ └─────┘ │  └─────────┘       │ └─────┘ │   thread per shard, parked
//!   └─────────┘                    └─────────┘   when idle; shard slabs
//!        │              │               │        travel by value through
//!        └──────────────┴───────────────┘        a one-job mailbox
//!                       ▼                        state = Monitor of one
//!     Vec<WindowReport> tagged by stream,        stream key (a slab slot
//!     sorted by (stream, window)                 in debut order)
//! ```
//!
//! There is one route and one dispatch. The route walks the caller's
//! records once, in arrival order, so every shard's bucket — and every
//! stream's slice of it — is in arrival order too. The dispatch runs a
//! call's shard jobs inline on the caller thread when there is at most
//! one and over the workers otherwise.
//!
//! # The allocation-free batch pipeline
//!
//! Steady-state `ingest_batch` (every key already debuted, no window
//! closing) performs **zero heap allocations** — asserted by a
//! counting-allocator integration test (`tests/engine_zero_alloc.rs`):
//!
//! * keys resolve through the key table, a `HashMap<Box<str>, u32>` under
//!   `std`'s per-process keyed hasher: `get(&str)` builds no `String`;
//! * records append to per-shard buckets that keep their capacity across
//!   batches;
//! * each shard groups its bucket with a counting sort over reused
//!   scratch (counts / touched-slot list / scatter buffer);
//! * shard jobs move through the workers' one-job mailboxes by value
//!   (`mem::take` of the shard slab — no copy, no channel allocation) and
//!   move back when collected. When a call has at most one job it runs
//!   inline on the caller thread — no handoff at all.
//!
//! # Sharding is semantics-free
//!
//! Each stream key `k` gets its own [`Monitor`] seeded with
//! [`Engine::stream_seed`]`(base_seed, k)` — a SplitMix64 stream derived
//! from the engine's base seed and a deterministic (FNV-1a) hash of the
//! key. The monitor is the stream's one record: its key, window state,
//! drift baselines and ledger (every monitor shares the configuration
//! validated once at build); the shard adds only the stream's debut index
//! and alarm flag for the fleet rollup. A state depends on nothing but its
//! own records and seed, and
//! shards share nothing, so for every stream the engine's reports are
//! **bit-identical** to a dedicated single-threaded [`Monitor`] built with
//! `Monitor::builder(n).seed(Engine::stream_seed(base, key)).stream(key)`
//! and fed that stream's records — for *any* shard count, any batch
//! boundaries, and any interleaving with other streams. The push≡pull
//! property of the monitor layer lifts one level up: sharding is a
//! transport, not a semantic. Property-tested in
//! `tests/engine_sharding.rs`.
//!
//! Each key is placed once, at debut, on its home shard
//! `mix64(FNV-1a(key)) mod shards` and never moves; the engine keeps each
//! stream's `(shard, slot)` by debut index, so placement costs nothing on
//! the warm path. Which shard holds a stream is invisible in its reports
//! (`tests/engine_sharding.rs`).
//!
//! # The control plane
//!
//! Operators interrogate one stream mid-window without disturbing it:
//! [`Engine::snapshot`] answers an on-demand sub-batch from the stream's
//! current partial window (on the caller thread, against the owning
//! shard's slab — it touches one stream, so there is nothing to fan out),
//! [`Engine::ledger`] reports the stream's lifetime sample/time spend —
//! its monitor's per-label totals, bounded, with nothing to drain — and
//! [`Engine::stream_seen`] lists debut-ordered per-stream record counts.
//! `khist serve` exposes exactly these as its `STATS` requests.
//!
//! # Example
//!
//! ```
//! use khist_core::api::{Engine, TestL2, Uniformity};
//! use khist_dist::generators;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let p = generators::staircase(64, 4).unwrap();
//! let mut source = StdRng::seed_from_u64(3);
//! let mut engine = Engine::builder(64)
//!     .seed(7)
//!     .shards(2)
//!     .tumbling(1_000)
//!     .analyses([
//!         TestL2::k(4).eps(0.3).scale(0.05).into(),
//!         Uniformity::eps(0.3).scale(0.2).into(),
//!     ])
//!     .build()
//!     .unwrap();
//!
//! // Interleaved keyed records: two tenants, one window each.
//! let values = p.sample_many(2_000, &mut source);
//! let keyed: Vec<(String, usize)> = values
//!     .into_iter()
//!     .enumerate()
//!     .map(|(i, v)| (format!("tenant-{}", i % 2), v))
//!     .collect();
//! let reports = engine.ingest_batch(&keyed).unwrap();
//! assert_eq!(reports.len(), 2);
//! assert_eq!(reports[0].stream.as_deref(), Some("tenant-0"));
//! assert_eq!(reports[1].stream.as_deref(), Some("tenant-1"));
//! assert_eq!(engine.streams(), 2);
//! ```

// lint:allow(default-hasher): the key table is keyed per process on purpose, and only looked up, never iterated
use std::collections::HashMap;
use std::sync::Arc;

use crossbeam::Courier;
use khist_dist::DistError;
use khist_fleet::{FleetReport, FleetSummary, WindowObservation};
use khist_oracle::{stream_seed, Window};

use crate::api::{Analysis, LedgerEntry, Report, SamplePlan};
use crate::monitor::{Monitor, StreamBuilder, StreamSpec, WindowReport};

/// One shard's answer to a batch: every window report, failed windows
/// included, plus every stream that could not take its records. Streams
/// are independent state machines, so one stream's refused record does
/// not stop its shard-mates — the shard keeps going and reports both.
type ShardOutcome = (Vec<WindowReport>, Vec<(String, DistError)>);

/// FNV-1a 64-bit hash of a stream key: the stream's seed and home shard.
///
/// Shard routing and per-stream seed derivation must be deterministic
/// across processes and platforms — `std`'s default hasher is randomized
/// per process, which would make "which shard owns tenant X" and "what
/// seed does tenant X sample with" unreproducible. FNV-1a is stable,
/// tiny, and good enough for short keys. A key is hashed this way once,
/// at its debut (the key table hashes with its own per-process key).
fn key_hash(key: &str) -> u64 {
    key.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Full-avalanche 64-bit finalizer (MurmurHash3's `fmix64`). Raw FNV-1a
/// over short ASCII keys clusters its outputs in a narrow band, so its low
/// bits make a poor bucket index: one multiply–xor–shift cascade on top
/// spreads every input bit across every output bit before the hash picks
/// a home shard. Not a seed path: seeds derive from the *unmixed* FNV
/// hash via `stream_seed`, so report bytes do not depend on placement.
fn mix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// The home shard of a key with FNV-1a hash `hash` in a pool of `shards`
/// shards: `mix64(hash) mod shards`. Consulted at debut and by
/// [`Engine::shard_of`] only; a debuted stream keeps its `(shard, slot)`.
fn home_shard(hash: u64, shards: usize) -> u32 {
    (mix64(hash) % shards as u64) as u32
}

/// One stream owned by a shard: its [`Monitor`] (which holds the key,
/// the window state and the ledger) plus what the fleet rollup needs.
struct StreamSlot {
    state: Monitor,
    /// The stream's global debut index (its id in the engine's key
    /// table) — the fleet rollup's stream key.
    debut: u32,
    /// Whether the stream has ever produced a non-quiet window; gates the
    /// fleet rollup's "alarming streams" counter to first alarms only.
    alarmed: bool,
}

impl StreamSlot {
    /// Files one call's reports into the shard's outcome, digested into
    /// the shard's fleet partial first. Runs inside shard workers at
    /// window production. A failed window counts like any other: it has
    /// no verdicts and no drift, so it is a quiet one.
    // lint:hot-path
    fn file(
        &mut self,
        reports: Vec<WindowReport>,
        fleet: &mut FleetSummary,
        out: &mut Vec<WindowReport>,
    ) {
        for w in &reports {
            let alarmed = !w.all_quiet();
            let first_alarm = alarmed && !self.alarmed;
            if first_alarm {
                self.alarmed = true;
            }
            let mut verdicts = 0u32;
            let mut rejects = 0u32;
            for r in &w.reports {
                if r.verdict.is_some() {
                    verdicts += 1;
                    if !r.accepted() {
                        rejects += 1;
                    }
                }
            }
            fleet.observe_window(WindowObservation {
                debut: self.debut,
                window: w.window,
                seen: w.seen,
                kept: w.kept,
                complete: w.complete,
                alarmed,
                first_alarm,
                verdicts,
                rejects,
                drift_score: w.drift.as_ref().and_then(drift_severity),
            });
        }
        out.extend(reports);
    }
}

/// One worker's worth of streams, plus its reusable batch scratch. Shards
/// share nothing: every stream key hashes to exactly one shard, and only
/// the thread running the [`Job`] that holds the slab ever touches its
/// states.
///
/// `Default` is derived so the engine can `mem::take` a shard — an
/// allocation-free move — into a job by value and reinstall it when the
/// job lands.
#[derive(Default)]
struct Shard {
    /// Slots in debut order — the shard-local slab the engine's
    /// `(shard, slot)` homes point into.
    slots: Vec<StreamSlot>,
    /// Counting-sort scratch: per-slot record count, doubling as the
    /// scatter cursor. Sized to `slots.len()`, zero between batches.
    counts: Vec<usize>,
    /// Slots touched by the current batch (those with `counts > 0`).
    touched: Vec<u32>,
    /// `(slot, start, end)` group extents into `grouped`, in slot order.
    spans: Vec<(u32, usize, usize)>,
    /// The batch's record values scattered into per-slot contiguous runs.
    grouped: Vec<usize>,
    /// The current batch's `(slot, value)` records routed to this shard,
    /// in arrival order; emptied (capacity kept) by the ingest job.
    routed: Vec<(u32, usize)>,
    /// The shard's fleet rollup partial, accumulated at window production
    /// inside the worker (zero extra oracle draws) and folded shard-wise
    /// by [`Engine::fleet_report`].
    fleet: FleetSummary,
}

/// Normalizes a drift report into one severity score: `statistic /
/// threshold` when the check publishes a positive threshold (> 1 means the
/// check rejected that window), the raw statistic otherwise. `None` when
/// the check produced no statistic (e.g. a window too small to score).
fn drift_severity(r: &Report) -> Option<f64> {
    let s = r.statistic?;
    match r.threshold {
        Some(t) if t > 0.0 => Some(s / t),
        _ => Some(s),
    }
}

/// The group pass of a shard's batch: groups the routed records per
/// stream slot with a counting sort over the shard's reused scratch. The
/// scatter walks the records in arrival order, so each stream's run keeps
/// its arrival order — the bit-identity invariant the route hangs on.
// lint:hot-path
fn group_by_slot(
    routed: &[(u32, usize)],
    counts: &mut [usize],
    touched: &mut Vec<u32>,
    spans: &mut Vec<(u32, usize, usize)>,
    grouped: &mut Vec<usize>,
) {
    for &(slot, _) in routed {
        // lint:allow(checked-indexing): the engine only routes interned slots here
        let c = &mut counts[slot as usize];
        if *c == 0 {
            touched.push(slot);
        }
        *c += 1;
    }
    // Ascending slot index == per-shard debut order: deterministic.
    touched.sort_unstable();
    let mut offset = 0usize;
    for &slot in touched.iter() {
        // lint:allow(checked-indexing): touched slots were counted above
        let count = counts[slot as usize];
        spans.push((slot, offset, offset + count));
        // Repurpose the count as the scatter cursor.
        // lint:allow(checked-indexing): same touched slot
        counts[slot as usize] = offset;
        offset += count;
    }
    grouped.clear();
    grouped.resize(routed.len(), 0);
    for &(slot, value) in routed {
        // lint:allow(checked-indexing): cursor stays within this slot's span
        let cursor = &mut counts[slot as usize];
        // lint:allow(checked-indexing): spans tile 0..routed.len() exactly
        grouped[*cursor] = value;
        *cursor += 1;
    }
}

impl Shard {
    /// Ingests one shard's share of a keyed batch, handed over in `routed`
    /// as `(slot, value)` records in arrival order. Records are grouped
    /// per stream with a counting sort over reused scratch (see
    /// [`group_by_slot`] — preserving each stream's arrival order, the
    /// only order a stream's state can observe) and each touched stream
    /// ingests its group independently; a failing stream does not stop
    /// its shard-mates.
    ///
    /// Slot index order is debut order, so the processing order is
    /// deterministic for every batch partitioning — and the whole pass
    /// allocates nothing once the scratch has grown to the working size.
    fn ingest_routed(&mut self) -> ShardOutcome {
        if self.counts.len() < self.slots.len() {
            self.counts.resize(self.slots.len(), 0);
        }
        group_by_slot(
            &self.routed,
            &mut self.counts,
            &mut self.touched,
            &mut self.spans,
            &mut self.grouped,
        );
        let mut outcome = ShardOutcome::default();
        for j in 0..self.spans.len() {
            // lint:allow(checked-indexing): j < spans.len() by the loop bound
            let (slot_idx, start, end) = self.spans[j];
            // Reset the scratch count before the next batch.
            // lint:allow(checked-indexing): touched slot, in bounds as above
            self.counts[slot_idx as usize] = 0;
            let Some(slot) = self.slots.get_mut(slot_idx as usize) else {
                continue; // unreachable: the engine interned slot_idx into this shard
            };
            // lint:allow(checked-indexing): span extents tile the grouped buffer
            let group = &self.grouped[start..end];
            match slot.state.ingest(group) {
                Ok(reports) => slot.file(reports, &mut self.fleet, &mut outcome.0),
                Err(e) => outcome
                    .1
                    .push((slot.state.stream().unwrap_or_default().to_string(), e)),
            }
        }
        self.touched.clear();
        self.spans.clear();
        self.routed.clear();
        outcome
    }

    /// Flushes every stream the shard owns, in debut order.
    fn flush(&mut self) -> ShardOutcome {
        let mut outcome = ShardOutcome::default();
        for slot in &mut self.slots {
            let reports = slot.state.flush();
            slot.file(reports, &mut self.fleet, &mut outcome.0);
        }
        outcome
    }
}

/// What a [`Job`] does to its slab.
enum Task {
    /// Ingest the records routed into the shard's `routed` bucket.
    Ingest,
    /// Flush every stream the shard owns.
    Flush,
}

/// One unit of engine work: `task` on shard `index`'s slab, run in place
/// (inline, or on a persistent worker that hands the same value back) and
/// then landed by [`Engine::land`]. The slab moves in by value, so each
/// buffer's capacity survives the round trip.
struct Job {
    index: usize,
    shard: Shard,
    task: Task,
    outcome: ShardOutcome,
}

impl Job {
    /// Moves shard `index`'s slab out of `home` (an allocation-free
    /// `mem::take`) into a job running `task` on it.
    fn new(index: usize, home: &mut Shard, task: Task) -> Job {
        Job {
            index,
            shard: std::mem::take(home),
            task,
            outcome: ShardOutcome::default(),
        }
    }

    fn run(&mut self) {
        self.outcome = match self.task {
            Task::Ingest => self.shard.ingest_routed(),
            Task::Flush => self.shard.flush(),
        }
    }
}

/// The deterministic error for a record the engine could not route — the
/// loud replacement for what used to be a silent `continue`. Only
/// reachable through states the routing invariants make unreachable
/// (a key-table id without a home, or one homed outside the pool); if
/// one ever trips, the batch fails with this instead of dropping the
/// record.
#[cold]
fn lost_record(key: &str) -> DistError {
    DistError::BadParameter {
        reason: format!(
            "internal: a record for stream '{key}' could not be routed \
             (key table entry missing); failing the batch instead of \
             silently dropping the record"
        ),
    }
}

/// Configures an [`Engine`]; obtained from [`Engine::builder`]. Its
/// stream settings are a [`Monitor`]'s ([`StreamBuilder`]); the engine
/// adds its shard count.
pub type EngineBuilder = StreamBuilder<usize>;

impl EngineBuilder {
    /// Number of worker shards stream keys are hashed onto (default 1).
    /// More shards parallelize the per-window analysis work across cores;
    /// the per-stream output is bit-identical for every shard count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.target = shards;
        self
    }

    /// Builds the engine: validates the configuration once (shard count,
    /// standing batch, window policy, lane shape) so that per-stream state
    /// creation on first contact with a new key is cheap and infallible,
    /// and spawns the persistent worker pool (one parked thread per shard;
    /// none for a single-shard engine, which always runs inline).
    pub fn build(self) -> Result<Engine, DistError> {
        if self.target == 0 {
            return Err(DistError::BadParameter {
                reason: "engine needs at least one shard (1 = unsharded)".into(),
            });
        }
        // The monitor's validator, shared verbatim: an engine stream is a
        // monitor, so what is invalid there must be invalid here.
        let (spec, seed, count) = self.spec()?;
        let mut shards = Vec::with_capacity(count);
        shards.resize_with(count, Shard::default);
        // Persistent workers: spawned once here, parked on their mailbox
        // between batches. A 1-shard engine has no workers at all.
        let workers = Engine::spawn_workers(count);
        Ok(Engine {
            seed,
            spec,
            shards,
            workers,
            keys: KeyTable::default(),
            homes: Vec::new(),
            jobs: Vec::new(),
            outcomes: Vec::new(),
        })
    }
}

/// The key table: each stream key's debut index. It hashes with `std`'s
/// per-process random SipHash key, so a client that picks its stream keys
/// cannot pile them onto one probe chain; it is only looked up, never
/// iterated, so that key decides no order and no byte. A warm lookup,
/// `get(&str)`, allocates nothing.
// lint:allow(default-hasher): the key table is keyed per process on purpose, and only looked up, never iterated
type KeyTable = HashMap<Box<str>, u32>;

/// A keyed multi-stream ingest engine: [`Monitor`] semantics per stream
/// key, scaled across a shared-nothing pool of worker shards. See the
/// [module docs](self) for the architecture, the allocation-free batch
/// pipeline, and the sharding-is-semantics-free contract.
pub struct Engine {
    seed: u64,
    /// The validated configuration every stream's [`Monitor`] shares.
    spec: Arc<StreamSpec>,
    shards: Vec<Shard>,
    /// Persistent shard workers, one per shard (none for a 1-shard
    /// engine); a call's jobs go to them in turn (see
    /// [`Engine::run_jobs`]). Dropping the engine parks-then-joins them.
    workers: Vec<Courier<Job, Job>>,
    /// Each stream key's debut index, touched only on the caller thread.
    keys: KeyTable,
    /// Each stream's `(shard, slot)`, indexed by debut. The stream's key
    /// is its monitor's label ([`Monitor::stream`]).
    homes: Vec<(u32, u32)>,
    /// Jobs queued for [`Engine::run_jobs`]; empty between calls.
    jobs: Vec<Job>,
    /// Per-call shard outcomes, drained by [`Engine::settle`].
    outcomes: Vec<ShardOutcome>,
}

impl Engine {
    /// Starts configuring an engine over the domain `[0, n)` (shared by
    /// every stream — keyed streams of differing domains belong in
    /// separate engines).
    pub fn builder(n: usize) -> EngineBuilder {
        StreamBuilder::new(n, 1)
    }

    /// The seed stream `key` samples with under base seed `base`: the
    /// SplitMix64 stream of the key's deterministic FNV-1a hash. A
    /// dedicated [`Monitor`] seeded with this value (and tagged via
    /// [`MonitorBuilder::stream`](StreamBuilder::stream))
    /// reproduces the engine's reports for that stream bit for bit.
    pub fn stream_seed(base: u64, key: &str) -> u64 {
        stream_seed(base, key_hash(key))
    }

    /// Domain size records must lie in.
    pub fn domain_size(&self) -> usize {
        self.spec.shape.domain_size()
    }

    /// The engine's base seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of distinct stream keys seen so far.
    pub fn streams(&self) -> usize {
        self.homes.len()
    }

    /// Per-stream `(key, records seen)` totals in **debut order** — the
    /// order in which each key's first record reached the engine, which is
    /// independent of shard count and stable across calls — read from
    /// each stream's monitor, so callers (the `STATS` control plane,
    /// `examples/fleet_monitor.rs`) never recompute totals from window
    /// reports.
    pub fn stream_seen(&self) -> Vec<(&str, u64)> {
        self.homes
            .iter()
            .filter_map(|&home| self.monitor(home))
            .map(|m| (m.stream().unwrap_or_default(), m.seen()))
            .collect()
    }

    /// Total records ingested across all streams.
    pub fn seen(&self) -> u64 {
        self.states().map(|s| s.seen()).sum()
    }

    /// Total completed windows reported across all streams.
    pub fn windows(&self) -> u64 {
        self.states().map(|s| s.windows()).sum()
    }

    /// The shared plan shaping every stream's lanes.
    pub fn plan(&self) -> SamplePlan {
        self.spec.plan
    }

    /// The per-stream window policy.
    pub fn window(&self) -> Window {
        self.spec.shape.window()
    }

    /// The standing batch every stream runs.
    pub fn analyses(&self) -> &[Analysis] {
        &self.spec.analyses
    }

    /// Read access to one stream's state machine (e.g. to check `seen`
    /// for a single tenant).
    pub fn stream_state(&self, key: &str) -> Option<&Monitor> {
        self.monitor(self.home(key)?)
    }

    /// The `(shard, slot)` of `key`'s stream, once it has debuted.
    fn home(&self, key: &str) -> Option<(u32, u32)> {
        self.homes.get(*self.keys.get(key)? as usize).copied()
    }

    /// The monitor at a stream's home: the one way to a stream, behind
    /// every per-stream accessor.
    fn monitor(&self, (shard, slot): (u32, u32)) -> Option<&Monitor> {
        let shard = self.shards.get(shard as usize)?;
        shard.slots.get(slot as usize).map(|s| &s.state)
    }

    /// The shard `key` lives on (or will, from its debut). Pure in
    /// `(key, shard count)`: independent of debut order.
    pub fn shard_of(&self, key: &str) -> usize {
        home_shard(key_hash(key), self.shards.len()) as usize
    }

    /// Registers a debuting key (cold path): creates the stream's slot
    /// (and monitor) on its home shard, enters the key in the key table
    /// and returns its debut index. The key's FNV-1a hash gives both the
    /// home shard and the seed. The caller has just missed `key` in the
    /// key table.
    fn debut(&mut self, key: &str) -> u32 {
        let hash = key_hash(key);
        let shard = home_shard(hash, self.shards.len());
        let Some(home) = self.shards.get_mut(shard as usize) else {
            // Unreachable: home shards are < shards.len() by construction;
            // the route fails loudly on an id without a home.
            return u32::MAX;
        };
        let debut = self.homes.len() as u32;
        self.homes.push((shard, home.slots.len() as u32));
        home.slots.push(StreamSlot {
            state: Monitor::new(&self.spec, stream_seed(self.seed, hash), Some(key.into())),
            debut,
            alarmed: false,
        });
        home.fleet.observe_debut();
        self.keys.insert(key.into(), debut);
        debut
    }

    /// Spawns the persistent worker pool for `shards` shards: one parked
    /// thread per shard, each owning one end of a one-job mailbox and
    /// running every [`Job`] it is handed in place. A
    /// pool of one (or zero) shards has no workers — every job runs
    /// inline on the caller thread.
    fn spawn_workers(shards: usize) -> Vec<Courier<Job, Job>> {
        if shards <= 1 {
            return Vec::new();
        }
        (0..shards)
            .map(|i| {
                Courier::spawn(&format!("khist-shard-{i}"), |mut job: Job| {
                    job.run();
                    job
                })
            })
            .collect()
    }

    /// Answers an on-demand sub-batch from one stream's *current*
    /// (possibly partial) window — "what does tenant X look like right
    /// now", mid-window, without waiting for the window to complete and
    /// without disturbing ingestion or the drift baseline. It touches one
    /// stream, so it runs on the caller thread against the owning shard's
    /// slab (every slab is home between calls); the sample spend is
    /// charged to the stream's ledger.
    ///
    /// The batch may be any sub-batch whose requirements fit the standing
    /// plan — the frozen lanes cannot serve a larger draw (that errors,
    /// never triggers a fresh draw). Unknown keys error.
    pub fn snapshot(&mut self, key: &str, analyses: &[Analysis]) -> Result<Vec<Report>, DistError> {
        let slot = self.home(key).and_then(|(shard, slot)| {
            let shard = self.shards.get_mut(shard as usize)?;
            shard.slots.get_mut(slot as usize)
        });
        match slot {
            Some(slot) => slot.state.snapshot(analyses),
            None => Err(DistError::BadParameter {
                reason: format!("unknown stream key '{key}'"),
            }),
        }
    }

    /// One stream's ledger ([`Monitor::ledger`]): per-label lifetime
    /// totals (`"draw"` plus each analysis name — samples and wall seconds
    /// summed over every completed window and [`Engine::snapshot`] of the
    /// stream), one entry per label however long the stream runs. `None`
    /// for keys the engine has never seen.
    pub fn ledger(&self, key: &str) -> Option<&[LedgerEntry]> {
        self.stream_state(key).map(Monitor::ledger)
    }

    /// The fleet-wide rollup: every shard's partial folded into one
    /// [`FleetReport`], naming only its top-K streams, each read from the
    /// stream's monitor. Composed purely from the window reports
    /// the shards already produced — **zero extra oracle draws** — and
    /// bit-identical for every shard count and batch partitioning,
    /// because the fold is associative and commutative (see
    /// [`khist_fleet::FleetSummary::merge`]).
    pub fn fleet_report(&self) -> FleetReport {
        let mut total = FleetSummary::new();
        for shard in &self.shards {
            total.merge(&shard.fleet);
        }
        total.report(|debut| {
            let &home = self.homes.get(debut as usize)?;
            self.monitor(home)?.stream()
        })
    }

    /// Ingests a batch of keyed records in arrival order — the engine's
    /// main entry point. The route runs on the caller thread: each
    /// record's key is looked up once in the key table, and the record
    /// joins its home shard's bucket in arrival order, debuts placed in
    /// the order they first appear. Busy shards then group their buckets
    /// per stream and ingest: they move by value to the persistent workers
    /// (shared-nothing: a shard's states are touched only by the job
    /// holding its slab), or run inline on the caller thread when only one
    /// is busy, and completed windows come back sorted by
    /// `(stream, window id)` — a deterministic interleaving with every
    /// stream's reports in window order.
    ///
    /// A warm call — every key debuted, no window completing — performs
    /// zero heap allocations (see the [module docs](self)).
    ///
    /// A window whose analysis fails is reported like any other, with its
    /// counts and the reason in [`WindowReport::error`], exactly as a
    /// dedicated [`Monitor`] on that stream reports it. So the call fails
    /// only on a record a stream cannot take (one outside `[0, n)`, or
    /// the first of a pane whose lane reservation the allocator refuses)
    /// or on a broken routing invariant. Such a record stops only its own
    /// stream, while every other stream ingests its full slice; the call
    /// then returns the error of the lexicographically smallest failing
    /// key, as a [`DistError::Stream`] naming it (a deterministic choice
    /// for every shard count), and delivers none of the call's windows:
    /// treat it as the end of the run.
    pub fn ingest_batch<K: AsRef<str>>(
        &mut self,
        records: &[(K, usize)],
    ) -> Result<Vec<WindowReport>, DistError> {
        self.route(records)?;
        for (index, shard) in self.shards.iter_mut().enumerate() {
            if !shard.routed.is_empty() {
                self.jobs.push(Job::new(index, shard, Task::Ingest));
            }
        }
        self.run_jobs();
        self.settle()
    }

    /// The route: appends each record, as `(slot, value)`, to its home
    /// shard's bucket in arrival order, placing a debuting key where it
    /// first appears — so debut numbering is the order of first
    /// appearance. A warm record costs one key-table lookup and one push.
    // lint:hot-path
    fn route<K: AsRef<str>>(&mut self, records: &[(K, usize)]) -> Result<(), DistError> {
        for (key, value) in records {
            let key = key.as_ref();
            let id = match self.keys.get(key) {
                Some(&id) => id,
                None => self.debut(key),
            };
            let home = self.homes.get(id as usize).and_then(|&(shard, slot)| {
                let shard = self.shards.get_mut(shard as usize)?;
                Some((&mut shard.routed, slot))
            });
            let Some((routed, slot)) = home else {
                debug_assert!(false, "stream id {id} has no home in the pool");
                for shard in &mut self.shards {
                    shard.routed.clear();
                }
                return Err(lost_record(key));
            };
            routed.push((slot, *value));
        }
        Ok(())
    }

    /// The one dispatch: runs every queued job and lands it back home.
    /// Jobs run inline on the caller thread when the pool has no workers
    /// or at most one job is queued (a handoff would buy no parallelism
    /// and cost two context switches); otherwise job `j` goes to worker
    /// `j mod workers`, every job is submitted before any is collected,
    /// and collection is in submission order — deterministic regardless
    /// of which worker finishes first. A call queues at most one job per
    /// shard (and there are as many workers as shards), so no worker is
    /// handed a second job before its first is collected.
    fn run_jobs(&mut self) {
        let mut jobs = std::mem::take(&mut self.jobs);
        let workers = self.workers.len();
        if workers == 0 || jobs.len() <= 1 {
            for mut job in jobs.drain(..) {
                job.run();
                self.land(job);
            }
        } else {
            let count = jobs.len();
            for (j, job) in jobs.drain(..).enumerate() {
                // lint:allow(checked-indexing): j % workers < workers == workers.len()
                self.workers[j % workers].submit(job);
            }
            for j in 0..count {
                // lint:allow(checked-indexing): j % workers < workers == workers.len()
                let job = self.workers[j % workers].collect();
                self.land(job);
            }
        }
        // The emptied queue keeps its capacity for the next call.
        self.jobs = jobs;
    }

    /// Returns a finished job's slab to its pool slot and queues its
    /// outcome for [`Engine::settle`].
    fn land(&mut self, job: Job) {
        // lint:allow(checked-indexing): jobs carry the index they were taken from
        self.shards[job.index] = job.shard;
        self.outcomes.push(job.outcome);
    }

    /// Flushes every stream: completed-but-uncollected windows, then each
    /// stream's partial tail (when it holds records) — one job per shard
    /// that holds streams, dispatched like
    /// [`ingest_batch`](Engine::ingest_batch)'s (inline when there is only
    /// one). Flushing takes no record, so it does not fail on data; the
    /// `Result` is kept for a broken routing invariant. Reports come back
    /// in stream **debut order** (the order each key's first record
    /// reached the engine), windows in id order within a stream. This is
    /// the order live tools emit end-of-stream tails in: `khist watch
    /// --key-field` and `khist serve` both finish with it, so tail output
    /// lines up with the order streams appeared, not with key spelling.
    pub fn flush_debut_ordered(&mut self) -> Result<Vec<WindowReport>, DistError> {
        for (index, shard) in self.shards.iter_mut().enumerate() {
            if !shard.slots.is_empty() {
                self.jobs.push(Job::new(index, shard, Task::Flush));
            }
        }
        self.run_jobs();
        // settle sorts by (stream, window); the stable re-sort on the
        // debut index keeps each stream's windows in id order.
        let mut tails = self.settle()?;
        tails.sort_by_key(|report| {
            let id = report.stream.as_deref().and_then(|key| self.keys.get(key));
            id.copied().unwrap_or(u32::MAX)
        });
        Ok(tails)
    }

    /// Merges the per-shard outcomes collected by the current call into
    /// its result: the reports, sorted, or — when any stream could not
    /// take its records — the error of the lexicographically smallest
    /// failing key as a [`DistError::Stream`] naming that key
    /// (deterministic for every shard count; worker completion order is
    /// not).
    fn settle(&mut self) -> Result<Vec<WindowReport>, DistError> {
        let mut reports = Vec::new();
        let mut errors = Vec::new();
        for (shard_reports, shard_errors) in self.outcomes.drain(..) {
            reports.extend(shard_reports);
            errors.extend(shard_errors);
        }
        if let Some((key, cause)) = errors.into_iter().min_by(|a, b| a.0.cmp(&b.0)) {
            return Err(DistError::Stream {
                key,
                cause: Box::new(cause),
            });
        }
        Engine::sort_reports(&mut reports);
        Ok(reports)
    }

    /// The engine's deterministic output order: by stream key, then window
    /// id (every stream's reports stay in window order; the global
    /// interleaving is reproducible regardless of shard count or
    /// scheduling).
    fn sort_reports(reports: &mut [WindowReport]) {
        reports
            .sort_by(|a, b| (a.stream.as_deref(), a.window).cmp(&(b.stream.as_deref(), b.window)));
    }

    fn states(&self) -> impl Iterator<Item = &Monitor> {
        self.shards
            .iter()
            .flat_map(|s| s.slots.iter().map(|slot| &slot.state))
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("domain_size", &self.domain_size())
            .field("seed", &self.seed)
            .field("shards", &self.shards.len())
            .field("streams", &self.streams())
            .field("window", &self.window())
            .field("standing_analyses", &self.spec.analyses.len())
            .field("seen", &self.seen())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Learn, Monitor, TestL2, Uniformity};
    use crate::uniformity::UniformityBudget;
    use khist_dist::generators;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};
    use std::collections::BTreeMap;

    fn standing() -> Vec<Analysis> {
        vec![
            Learn::k(3).eps(0.25).scale(0.05).into(),
            TestL2::k(3).eps(0.3).scale(0.05).into(),
            Uniformity::eps(0.3).scale(0.2).into(),
        ]
    }

    /// Interleaved keyed records over `keys`, round-robin with a keyed
    /// offset so streams differ.
    fn keyed_events(n: usize, count: usize, keys: &[&str], seed: u64) -> Vec<(String, usize)> {
        let p = generators::staircase(n, 3).unwrap();
        let values = p.sample_many(count, &mut StdRng::seed_from_u64(seed));
        values
            .into_iter()
            .enumerate()
            .map(|(i, v)| (keys[i % keys.len()].to_string(), v))
            .collect()
    }

    fn engine(shards: usize, span: u64) -> Engine {
        Engine::builder(64)
            .seed(11)
            .shards(shards)
            .tumbling(span)
            .analyses(standing())
            .build()
            .unwrap()
    }

    /// Every stream key, in debut order.
    fn debut_keys(engine: &Engine) -> Vec<&str> {
        engine
            .stream_seen()
            .into_iter()
            .map(|(key, _)| key)
            .collect()
    }

    /// A dedicated monitor reproducing one engine stream, fed `records`.
    fn dedicated(key: &str, span: u64, records: &[usize]) -> Vec<WindowReport> {
        let mut monitor = Monitor::builder(64)
            .seed(Engine::stream_seed(11, key))
            .stream(key)
            .tumbling(span)
            .analyses(standing())
            .build()
            .unwrap();
        let mut want = monitor.ingest(records).unwrap();
        want.extend(monitor.flush());
        want
    }

    #[test]
    fn builder_rejects_bad_configs() {
        assert!(
            Engine::builder(64)
                .shards(0)
                .analyses(standing())
                .build()
                .is_err(),
            "zero shards"
        );
        assert!(Engine::builder(64).build().is_err(), "empty batch");
        assert!(Engine::builder(0).analyses(standing()).build().is_err());
    }

    #[test]
    fn keyed_ingest_routes_and_tags_streams() {
        let mut engine = engine(3, 1_000);
        let records = keyed_events(64, 4_000, &["api", "web"], 1);
        let reports = engine.ingest_batch(&records).unwrap();
        // 2 000 records per stream, span 1 000: two windows each, sorted
        // by (stream, window).
        assert_eq!(reports.len(), 4);
        let tags: Vec<(&str, u64)> = reports
            .iter()
            .map(|r| (r.stream.as_deref().unwrap(), r.window))
            .collect();
        assert_eq!(tags, [("api", 0), ("api", 1), ("web", 0), ("web", 1)]);
        assert_eq!(engine.streams(), 2);
        assert_eq!(debut_keys(&engine), ["api", "web"]);
        assert_eq!(engine.seen(), 4_000);
        assert_eq!(engine.windows(), 4);
        assert!(reports.iter().all(|r| r.reports.len() == standing().len()));
        // Per-stream state is inspectable.
        assert_eq!(engine.stream_state("api").unwrap().seen(), 2_000);
        assert!(engine.stream_state("nope").is_none());
    }

    #[test]
    fn stream_keys_come_back_in_debut_order() {
        // Debut order — not lexicographic, not shard order.
        let mut eng = engine(3, 1_000);
        eng.ingest_batch(&[("zeta", 1usize)]).unwrap();
        let batch = vec![
            ("mid".to_string(), 2usize),
            ("alpha".to_string(), 3),
            ("mid".to_string(), 4),
        ];
        eng.ingest_batch(&batch).unwrap();
        assert_eq!(debut_keys(&eng), ["zeta", "mid", "alpha"]);
        // Stable across calls and shard counts.
        let mut other = engine_with_shards_and_same_records();
        assert_eq!(debut_keys(&other), ["zeta", "mid", "alpha"]);
        fn engine_with_shards_and_same_records() -> Engine {
            let mut e = Engine::builder(64)
                .seed(11)
                .shards(1)
                .tumbling(1_000)
                .analyses(vec![
                    Learn::k(3).eps(0.25).scale(0.05).into(),
                    TestL2::k(3).eps(0.3).scale(0.05).into(),
                    Uniformity::eps(0.3).scale(0.2).into(),
                ])
                .build()
                .unwrap();
            e.ingest_batch(&[("zeta", 1usize)]).unwrap();
            let batch = vec![
                ("mid".to_string(), 2usize),
                ("alpha".to_string(), 3),
                ("mid".to_string(), 4),
            ];
            e.ingest_batch(&batch).unwrap();
            e
        }
        let _ = other.flush_debut_ordered();

        // One 4 400-record batch whose keys first arrive at staggered
        // positions, the last at record 3 500: at every shard count the
        // debut order is first-arrival order, and the flushed tails come
        // back in it. Even records go to the newest key and odd ones cycle
        // over the keys seen so far, so every key gets 400–789 records:
        // enough to fill its lanes, short of a 1 000-record window.
        let names = [
            "zeta", "mid", "alpha", "omega", "beta", "kappa", "delta", "eta",
        ];
        let firsts = [0usize, 1, 37, 512, 1_400, 2_047, 2_900, 3_500];
        let staggered: Vec<(&str, usize)> = (0..4_400usize)
            .map(|j| {
                let seen = firsts.iter().filter(|&&first| first <= j).count();
                let key = match firsts.iter().position(|&first| first == j) {
                    Some(i) => names[i],
                    None if j % 2 == 0 => names[seen - 1],
                    None => names[(j / 2) % seen],
                };
                (key, (j * 13 + j / 7) % 64)
            })
            .collect();
        for shards in [1usize, 2, 4, 8] {
            let mut sharded = engine(shards, 1_000);
            let reports = sharded.ingest_batch(&staggered).unwrap();
            assert!(reports.is_empty(), "no window completes");
            assert_eq!(debut_keys(&sharded), names, "@ {shards} shards");
            let tails = sharded.flush_debut_ordered().unwrap();
            let order: Vec<&str> = tails.iter().map(|t| t.stream.as_deref().unwrap()).collect();
            assert_eq!(order, names, "tails @ {shards} shards");
        }
    }

    #[test]
    fn shard_count_never_changes_per_stream_output() {
        let keys = ["api", "web", "batch", "mobile", "edge"];
        let records = keyed_events(64, 10_000, &keys, 2);
        let run = |shards: usize| {
            let mut engine = engine(shards, 500);
            // Split across two calls to exercise batch boundaries.
            let mut reports = engine.ingest_batch(&records[..3_333]).unwrap();
            reports.extend(engine.ingest_batch(&records[3_333..]).unwrap());
            reports.extend(engine.flush_debut_ordered().unwrap());
            reports
        };
        let single = run(1);
        for shards in [2, 3, 8] {
            let sharded = run(shards);
            // Same multiset of reports; per-stream subsequences identical.
            for key in keys {
                let of = |rs: &[WindowReport]| -> Vec<WindowReport> {
                    rs.iter()
                        .filter(|r| r.stream.as_deref() == Some(key))
                        .cloned()
                        .collect()
                };
                assert_eq!(of(&single), of(&sharded), "stream {key} @ {shards} shards");
            }
        }
    }

    #[test]
    fn engine_stream_matches_dedicated_monitor() {
        // The tentpole contract, unit-sized (the property test in
        // tests/engine_sharding.rs drives it harder): engine reports for a
        // key == dedicated Monitor with the derived seed and stream tag.
        let keys = ["tenant-a", "tenant-b", "tenant-c"];
        let records = keyed_events(64, 6_000, &keys, 3);
        let mut engine = engine(2, 700);
        let mut got = engine.ingest_batch(&records).unwrap();
        got.extend(engine.flush_debut_ordered().unwrap());
        for key in keys {
            let mine: Vec<usize> = records
                .iter()
                .filter(|(k, _)| k == key)
                .map(|&(_, v)| v)
                .collect();
            let want = dedicated(key, 700, &mine);
            let stream_reports: Vec<WindowReport> = got
                .iter()
                .filter(|r| r.stream.as_deref() == Some(key))
                .cloned()
                .collect();
            assert_eq!(stream_reports, want, "stream {key}");
        }
    }

    #[test]
    fn duplicate_keys_within_one_batch_group_in_arrival_order() {
        // The same key appearing in many disjoint positions of one batch
        // must see its records in arrival order — bit-identical to a
        // dedicated monitor fed the same subsequence.
        // The keys slice repeats "dup" in disjoint positions, so every
        // round-robin pass scatters the key across the batch.
        let span = 500u64;
        let batch = keyed_events(64, 5_000, &["dup", "other", "dup", "dup", "other"], 2);
        for shards in [1usize, 2, 4] {
            let mut eng = engine(shards, span);
            let mut got = eng.ingest_batch(&batch).unwrap();
            got.extend(eng.flush_debut_ordered().unwrap());
            for key in ["dup", "other"] {
                let mine: Vec<usize> = batch
                    .iter()
                    .filter(|(k, _)| k == key)
                    .map(|&(_, v)| v)
                    .collect();
                let want = dedicated(key, span, &mine);
                let stream_reports: Vec<WindowReport> = got
                    .iter()
                    .filter(|r| r.stream.as_deref() == Some(key))
                    .cloned()
                    .collect();
                assert_eq!(stream_reports, want, "stream {key} @ {shards} shards");
            }
        }
    }

    #[test]
    fn empty_batches_and_empty_slices_are_no_ops() {
        let mut eng = engine(2, 500);
        let empty: [(String, usize); 0] = [];
        assert!(eng.ingest_batch(&empty).unwrap().is_empty());
        assert_eq!(eng.streams(), 0);
        // An engine with streams but an empty batch stays warm.
        eng.ingest_batch(&[("quiet", 1usize), ("quiet", 2), ("quiet", 3)])
            .unwrap();
        assert!(eng.ingest_batch(&empty).unwrap().is_empty());
        assert_eq!(eng.streams(), 1);
        assert_eq!(eng.seen(), 3);
    }

    #[test]
    fn debut_and_window_completion_in_the_same_batch() {
        // A key's very first batch immediately completes windows: the
        // debut path (slot creation) and the report path run in one call
        // and must still match a dedicated monitor bit for bit.
        let span = 250u64;
        let records: Vec<usize> = (0..1_000usize).map(|i| (i * 11) % 64).collect();
        for shards in [1usize, 2, 4] {
            let mut eng = engine(shards, span);
            // Prime the engine with another stream so the debuting key is
            // not the only slot in its shard.
            eng.ingest_batch(&[("primer", 5usize), ("primer", 6), ("primer", 7)])
                .unwrap();
            let batch: Vec<(String, usize)> = records
                .iter()
                .map(|&v| ("newcomer".to_string(), v))
                .collect();
            let mut got = eng.ingest_batch(&batch).unwrap();
            got.retain(|r| r.stream.as_deref() == Some("newcomer"));
            got.extend(
                eng.flush_debut_ordered()
                    .unwrap()
                    .into_iter()
                    .filter(|r| r.stream.as_deref() == Some("newcomer")),
            );
            let want = dedicated("newcomer", span, &records);
            assert_eq!(got, want, "@ {shards} shards");
            assert_eq!(got.len(), 4, "four complete windows, no tail");
        }
    }

    #[test]
    fn errors_name_the_problem_and_keep_prior_records() {
        let mut engine = engine(2, 1_000);
        engine
            .ingest_batch(&[("ok", 1usize), ("ok", 2), ("ok", 3)])
            .unwrap();
        let err = engine
            .ingest_batch(&[("ok", 99usize)])
            .unwrap_err()
            .to_string();
        assert!(err.contains("record 99"), "{err}");
        assert_eq!(engine.seen(), 3, "bad record must not count");
        // Batched path: a bad record stops only its own stream; every
        // other stream's records stay ingested.
        let batch = vec![("a".to_string(), 1usize), ("b".to_string(), 999)];
        let err = engine.ingest_batch(&batch).unwrap_err().to_string();
        assert!(err.contains("record 999"), "{err}");
        assert_eq!(engine.stream_state("a").unwrap().seen(), 1);
        assert_eq!(engine.stream_state("b").unwrap().seen(), 0);
    }

    #[test]
    fn healthy_streams_never_lose_reports_to_a_failing_neighbor() {
        // At n = 16, 64-record windows and seven 9-sample l2 sets, stream
        // "m"'s first window leaves an l2 lane empty, whatever its values,
        // and stream "a"'s does not. Both complete a window in one call:
        // the call succeeds, "a"'s window arrives in it, and "m"'s failed
        // window is reported with its counts, each bit-identical to a
        // dedicated monitor's.
        use crate::uniformity::UniformityBudget;
        use khist_oracle::L2TesterBudget;
        let batch = || -> Vec<Analysis> {
            vec![
                TestL2::k(8)
                    .eps(0.1)
                    .budget(L2TesterBudget { r: 7, m: 9 })
                    .into(),
                Uniformity::eps(0.1)
                    .budget(UniformityBudget { m: 64 })
                    .into(),
            ]
        };
        let records: Vec<usize> = (0..64).map(|i| (i * 5) % 16).collect();
        let keyed: Vec<(&str, usize)> =
            records.iter().flat_map(|&v| [("a", v), ("m", v)]).collect();
        for shards in [1usize, 2] {
            let mut engine = Engine::builder(16)
                .shards(shards)
                .tumbling(64)
                .analyses(batch())
                .build()
                .unwrap();
            let got = engine.ingest_batch(&keyed).unwrap();
            for (key, window) in ["a", "m"].into_iter().zip(&got) {
                let mut monitor = Monitor::builder(16)
                    .seed(Engine::stream_seed(0, key))
                    .stream(key)
                    .tumbling(64)
                    .analyses(batch())
                    .build()
                    .unwrap();
                let want = monitor.ingest(&records).unwrap();
                assert_eq!(
                    want,
                    std::slice::from_ref(window),
                    "stream {key} @ {shards} shards"
                );
            }
            assert_eq!(got.len(), 2, "{got:?}");
            assert_eq!((got[0].reports.len(), &got[0].error), (2, &None));
            let starved = &got[1];
            assert!(starved.complete && starved.reports.is_empty() && starved.drift.is_none());
            assert_eq!(
                starved.error.as_deref(),
                Some("bad parameter: need non-empty sample sets")
            );
            assert_eq!(engine.windows(), 2, "a failed window still counts");
        }
    }

    #[test]
    fn a_failing_call_names_the_smallest_failing_stream() {
        // "zeta" and "mid" both fail in one call, "zeta" first in arrival
        // order; the error names "mid" at every shard count.
        let batch = [("zeta", 900usize), ("alpha", 1), ("mid", 700), ("ok", 3)];
        for shards in [1usize, 2, 4, 8] {
            let mut engine = engine(shards, 1_000);
            let err = engine.ingest_batch(&batch).unwrap_err();
            let cause = DistError::BadParameter {
                reason: "record 700 outside declared domain [0, 64); widen the domain or \
                         drop the record"
                    .into(),
            };
            assert_eq!(
                err,
                DistError::Stream {
                    key: "mid".into(),
                    cause: Box::new(cause.clone()),
                },
                "@ {shards} shards"
            );
            assert_eq!(err.to_string(), format!("stream 'mid': {cause}"));
        }
    }

    #[test]
    fn stream_seeds_differ_per_key_and_are_stable() {
        let a = Engine::stream_seed(7, "tenant-a");
        let b = Engine::stream_seed(7, "tenant-b");
        assert_ne!(a, b);
        assert_eq!(a, Engine::stream_seed(7, "tenant-a"), "derivation is pure");
        assert_ne!(a, Engine::stream_seed(8, "tenant-a"), "base seed matters");
    }

    #[test]
    fn flush_reports_partial_tails_for_every_stream() {
        let mut engine = engine(2, 1_000);
        let records = keyed_events(64, 900, &["x", "y", "z"], 5);
        assert!(engine.ingest_batch(&records).unwrap().is_empty());
        let tails = engine.flush_debut_ordered().unwrap();
        assert_eq!(tails.len(), 3);
        assert!(tails.iter().all(|t| !t.complete && t.seen == 300));
        let keys: Vec<&str> = tails.iter().map(|t| t.stream.as_deref().unwrap()).collect();
        assert_eq!(keys, ["x", "y", "z"], "debut order");
    }

    #[test]
    fn home_shards_are_pure_in_range_and_balanced() {
        // The mix64 finalizer is what keeps this balanced: raw FNV-1a over
        // short keys clusters, and `hash mod N` would inherit the clusters.
        let hashes: Vec<u64> = (0..10_000).map(|i| key_hash(&format!("key-{i}"))).collect();
        for shards in [1usize, 2, 3, 8, 13] {
            let mut load = vec![0usize; shards];
            for &hash in &hashes {
                let home = home_shard(hash, shards) as usize;
                assert!(home < shards, "shard {home} of {shards}");
                assert_eq!(home, home_shard(hash, shards) as usize, "pure in the hash");
                load[home] += 1;
            }
            let fair = hashes.len() as f64 / shards as f64;
            for (shard, &count) in load.iter().enumerate() {
                assert!(
                    (count as f64 - fair).abs() <= 0.1 * fair,
                    "shard {shard} of {shards} holds {count} keys (fair {fair:.0})"
                );
            }
        }
        // Debuting keys land where shard_of says they live.
        let mut eng = engine(3, 100_000);
        let keys: Vec<String> = (0..50).map(|i| format!("tenant-{i}")).collect();
        let batch: Vec<(&str, usize)> = keys.iter().map(|k| (k.as_str(), 1)).collect();
        eng.ingest_batch(&batch).unwrap();
        assert_eq!(eng.streams(), 50);
        for &home in &eng.homes {
            let key = eng.monitor(home).and_then(Monitor::stream).unwrap();
            assert_eq!(eng.shard_of(key), home.0 as usize, "{key}");
        }
    }

    #[test]
    fn snapshot_answers_mid_window_and_routes_over_workers() {
        // 2 shards → the query really crosses a Courier mailbox.
        let mut engine = engine(2, 10_000);
        let records = keyed_events(64, 5_000, &["api", "web"], 9);
        assert!(
            engine.ingest_batch(&records).unwrap().is_empty(),
            "mid-window"
        );
        let sub = vec![Uniformity::eps(0.3).scale(0.2).into()];
        let reports = engine.snapshot("api", &sub).unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].statistic.is_some());
        // Bit-identical to a dedicated monitor's snapshot of the same
        // records — the control plane is as semantics-free as ingest.
        let mine: Vec<usize> = records
            .iter()
            .filter(|(k, _)| k == "api")
            .map(|&(_, v)| v)
            .collect();
        let mut monitor = Monitor::builder(64)
            .seed(Engine::stream_seed(11, "api"))
            .stream("api")
            .tumbling(10_000)
            .analyses(standing())
            .build()
            .unwrap();
        monitor.ingest(&mine).unwrap();
        assert_eq!(monitor.snapshot(&sub).unwrap(), reports);
        // Unknown keys error; the engine stays usable.
        assert!(engine.snapshot("nope", &sub).is_err());
        assert_eq!(engine.stream_state("api").unwrap().seen(), 2_500);
    }

    #[test]
    fn ledger_retains_bounded_per_label_totals() {
        let mut engine = engine(2, 500);
        let records = keyed_events(64, 4_000, &["api", "web"], 4);
        engine.ingest_batch(&records).unwrap();
        // 4 windows per stream, but the ledger stays one entry per label.
        let ledger = engine.ledger("api").unwrap();
        let labels: Vec<&str> = ledger.iter().map(|e| e.label).collect();
        assert_eq!(
            labels.len(),
            1 + standing().len(),
            "draw + one per analysis"
        );
        assert!(labels.contains(&"draw"));
        let draw = ledger.iter().find(|e| e.label == "draw").unwrap();
        assert!(draw.samples > 0);
        // A snapshot's spend folds into the same totals (give the partial
        // window some records to freeze first).
        let before = draw.samples;
        engine
            .ingest_batch(&keyed_events(64, 600, &["api", "web"], 8))
            .unwrap();
        engine
            .snapshot("api", &[Uniformity::eps(0.3).scale(0.2).into()])
            .unwrap();
        let after = engine
            .ledger("api")
            .unwrap()
            .iter()
            .find(|e| e.label == "draw")
            .unwrap()
            .samples;
        assert!(
            after > before,
            "snapshot spend ledgered: {after} vs {before}"
        );
        assert!(engine.ledger("nope").is_none());
    }

    #[test]
    fn stream_seen_reports_debut_ordered_totals() {
        let mut engine = engine(3, 1_000);
        engine
            .ingest_batch(&[("zeta", 1usize), ("zeta", 2)])
            .unwrap();
        engine
            .ingest_batch(&[("alpha".to_string(), 3usize), ("zeta".to_string(), 4)])
            .unwrap();
        assert_eq!(engine.streams(), 2);
        assert_eq!(engine.stream_seen(), [("zeta", 3), ("alpha", 1)]);
    }

    #[test]
    fn interner_survives_table_growth() {
        // Push well past the key table's initial capacity so lookup keeps
        // resolving every key across several regrows.
        let mut eng = engine(4, 100_000);
        for i in 0..500usize {
            let key = format!("stream-{i}");
            eng.ingest_batch(&[(key.as_str(), i % 64)]).unwrap();
        }
        assert_eq!(eng.streams(), 500);
        for i in 0..500usize {
            let key = format!("stream-{i}");
            let state = eng.stream_state(&key).unwrap();
            assert_eq!(state.seen(), 1, "{key}");
        }
        // Debut order is the numeric creation order.
        let keys = debut_keys(&eng);
        assert_eq!(keys[0], "stream-0");
        assert_eq!(keys[499], "stream-499");
    }

    #[test]
    fn key_tables_hash_keys_per_engine() {
        // The key table's hasher is keyed per table, so knowing where one
        // table puts a key tells a client nothing about another's; the
        // key's home shard is its fixed FNV-1a hash's in both.
        use std::hash::BuildHasher;
        let (a, b) = (engine(4, 1_000), engine(4, 1_000));
        let key = "tenant-7";
        assert_ne!(a.keys.hasher().hash_one(key), b.keys.hasher().hash_one(key));
        assert_eq!(a.shard_of(key), b.shard_of(key));
    }

    /// Stream keys a byte-level table could confuse: the empty key,
    /// prefix pairs, NUL and non-ASCII bytes (`é` precomposed and
    /// decomposed) — then 300 plain keys, enough to regrow the key table
    /// several times.
    fn adversarial_keys() -> Vec<String> {
        let odd = [
            "", "a", "ab", "abc", "\0", "a\0", "\0a", "é", "e\u{301}", "日本", "🦀", " ",
        ];
        let mut keys: Vec<String> = odd.iter().map(|key| key.to_string()).collect();
        keys.extend((0..300).map(|i| format!("k{i}")));
        keys
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The key table against a plain reference — first-appearance
        /// order plus `BTreeMap` counts — at shards 1, 2 and 4 with random
        /// batch boundaries: `stream_seen`'s order and counts, every
        /// `stream_state`, every stream's shard, and one fleet rollup for
        /// every shard count. Half the records go to the twelve odd keys,
        /// so their windows complete and drift.
        #[test]
        fn prop_key_table_matches_a_plain_reference(
            picks in proptest::collection::vec((0usize..312, 0usize..2, 0usize..64), 1..3_000),
            cuts in proptest::collection::vec(0usize..3_000, 0..6),
        ) {
            let keys = adversarial_keys();
            let records: Vec<(&str, usize)> = picks
                .iter()
                .map(|&(key, odd, value)| (keys[if odd == 0 { key % 12 } else { key }].as_str(), value))
                .collect();
            let mut order = Vec::new();
            let mut counts = BTreeMap::new();
            for &(key, _) in &records {
                let count = counts.entry(key).or_insert(0u64);
                if *count == 0 {
                    order.push(key);
                }
                *count += 1;
            }
            let want: Vec<(&str, u64)> = order.iter().map(|&key| (key, counts[key])).collect();
            let mut bounds: Vec<usize> = cuts.iter().map(|&cut| cut.min(records.len())).collect();
            bounds.extend([0, records.len()]);
            bounds.sort_unstable();
            let mut fleets = Vec::new();
            for shards in [1usize, 2, 4] {
                let mut engine = Engine::builder(64)
                    .seed(3)
                    .shards(shards)
                    .tumbling(32)
                    .analysis(Uniformity::eps(0.3).budget(UniformityBudget { m: 32 }))
                    .build()
                    .unwrap();
                for batch in bounds.windows(2) {
                    engine.ingest_batch(&records[batch[0]..batch[1]]).unwrap();
                }
                prop_assert_eq!(engine.stream_seen(), want.clone());
                for &(key, count) in &want {
                    prop_assert_eq!(engine.stream_state(key).map(Monitor::seen), Some(count));
                }
                prop_assert!(engine.stream_state("never").is_none());
                for &home in &engine.homes {
                    let key = engine.monitor(home).and_then(Monitor::stream).unwrap();
                    prop_assert_eq!(engine.shard_of(key), home.0 as usize, "{:?}", key);
                }
                fleets.push(engine.fleet_report().to_json());
            }
            prop_assert_eq!(&fleets[0], &fleets[1]);
            prop_assert_eq!(&fleets[0], &fleets[2]);
        }
    }
}
