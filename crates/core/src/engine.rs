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
//!        │  route, on the caller thread: one FNV-1a hash per record,
//!        ▼  reused for the interner probe and, at debut, the home-shard
//!           placement; debuts are interned in arrival order; each record
//!           appends (slot, value) to its home shard's bucket
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
//! Steady-state `ingest_batch` (every key already interned, no window
//! closing) performs **zero heap allocations** — asserted by a
//! counting-allocator integration test (`tests/engine_zero_alloc.rs`):
//!
//! * keys resolve through the interner's open-addressing table (hash +
//!   probe, no `String`, no `BTreeMap`);
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
//! `mix64(FNV-1a(key)) mod shards` and never moves; the interner caches
//! the `(shard, slot)` coordinates, so placement costs nothing on the
//! warm path. Which shard holds a stream is invisible in its reports
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

use std::sync::Arc;

use crossbeam::Courier;
use khist_dist::DistError;
use khist_fleet::{FleetReport, FleetSummary, WindowObservation};
use khist_oracle::{stream_seed, Window};

use crate::api::{Analysis, LedgerEntry, Report, SamplePlan};
use crate::monitor::{Monitor, StreamSpec, WindowReport};

/// One shard's answer to a batch: everything that succeeded, plus every
/// per-stream failure. Streams are independent state machines, so one
/// stream's bad record must not discard another stream's already-computed
/// window reports — the shard keeps going and reports both.
type ShardOutcome = (Vec<WindowReport>, Vec<(String, DistError)>);

/// FNV-1a 64-bit hash of a stream key.
///
/// Shard routing and per-stream seed derivation must be deterministic
/// across processes and platforms — `std`'s default hasher is randomized
/// per process, which would make "which shard owns tenant X" and "what
/// seed does tenant X sample with" unreproducible. FNV-1a is stable,
/// tiny, and good enough for short keys. Each key is hashed once per
/// batch appearance; the [`Interner`] caches the hash at debut so rehash
/// and shard routing never recompute it.
// lint:hot-path
fn key_hash(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in key.as_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Full-avalanche 64-bit finalizer (MurmurHash3's `fmix64`). Raw FNV-1a
/// over short ASCII keys clusters its outputs in a narrow band, so its low
/// bits make a poor bucket index: one multiply–xor–shift cascade on top
/// spreads every input bit across every output bit before the hash picks
/// a home shard or an interner probe start. Not a seed path: seeds derive
/// from the *unmixed* FNV hash via `stream_seed`, so report bytes do not
/// depend on placement.
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
/// [`Engine::shard_of`] only; interned keys carry their coordinates.
fn home_shard(hash: u64, shards: usize) -> u32 {
    (mix64(hash) % shards as u64) as u32
}

/// One interned stream key: its cached hash and its home `(shard, slot)`.
struct KeyEntry {
    key: String,
    hash: u64,
    shard: u32,
    slot: u32,
}

/// The engine's key interner: a debut-ordered slab of [`KeyEntry`] plus an
/// open-addressing hash table over it. Steady-state resolution is an
/// FNV-1a hash, a linear probe, and one short key comparison — no
/// allocation, no `String` construction, no tree walk. Debut (the only
/// cold path) allocates the entry and, rarely, regrows the table.
///
/// The table stores `entry index + 1` so `0` marks an empty bucket; its
/// length is always a power of two; the probe start index runs the raw
/// FNV-1a hash through [`mix64`] (the same finalizer [`home_shard`]
/// applies) so short-key clustering cannot pile entries into one probe
/// chain — the *stored* hash stays raw, because seeds derive from it. Stream counts
/// are capped at `u32` range (4 billion keys) by the id width — far
/// beyond the slab sizes the monitor layer supports in memory anyway.
struct Interner {
    entries: Vec<KeyEntry>,
    table: Vec<u32>,
}

impl Interner {
    fn new() -> Self {
        Interner {
            entries: Vec::new(),
            table: vec![0; 64],
        }
    }

    /// Steady-state key resolution: no allocation, no `String`.
    // lint:hot-path
    fn lookup(&self, key: &str, hash: u64) -> Option<u32> {
        let mask = self.table.len() - 1;
        let mut i = (mix64(hash) as usize) & mask;
        loop {
            // lint:allow(checked-indexing): i is masked onto the table length
            let probe = self.table[i];
            if probe == 0 {
                return None;
            }
            let id = probe - 1;
            // lint:allow(checked-indexing): the table only stores ids of live entries
            let entry = &self.entries[id as usize];
            if entry.hash == hash && entry.key == key {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// The entry of `key`, hashing it first: the control plane's lookup
    /// (the route reuses the hash it already holds).
    fn find(&self, key: &str) -> Option<&KeyEntry> {
        let id = self.lookup(key, key_hash(key))?;
        self.entries.get(id as usize)
    }

    /// Registers a debuting key (cold path: allocates the entry, may
    /// regrow the table). Caller guarantees `key` is not present.
    fn insert(&mut self, key: &str, hash: u64, shard: u32, slot: u32) -> u32 {
        let id = self.entries.len() as u32;
        self.entries.push(KeyEntry {
            key: key.to_string(),
            hash,
            shard,
            slot,
        });
        // Keep load factor below 3/4 so probe chains stay short.
        if self.entries.len() * 4 > self.table.len() * 3 {
            self.grow();
        } else {
            Self::place(&mut self.table, hash, id);
        }
        id
    }

    fn grow(&mut self) {
        let mut table = vec![0u32; self.table.len() * 2];
        for (id, entry) in self.entries.iter().enumerate() {
            Self::place(&mut table, entry.hash, id as u32);
        }
        self.table = table;
    }

    fn place(table: &mut [u32], hash: u64, id: u32) {
        let mask = table.len() - 1;
        let mut i = (mix64(hash) as usize) & mask;
        // lint:allow(checked-indexing): i is masked onto the table length
        while table[i] != 0 {
            i = (i + 1) & mask;
        }
        // lint:allow(checked-indexing): i is masked onto the table length
        table[i] = id + 1;
    }
}

/// One stream owned by a shard: its [`Monitor`] (which holds the key,
/// the window state and the ledger) plus what the fleet rollup needs.
struct StreamSlot {
    state: Monitor,
    /// The stream's global debut index (engine interner id) — the fleet
    /// rollup's stream key.
    debut: u32,
    /// Whether the stream has ever produced a non-quiet window; gates the
    /// fleet rollup's "alarming streams" counter to first alarms only.
    alarmed: bool,
}

impl StreamSlot {
    /// Files one call's result into the shard's outcome: reports (seen by
    /// the fleet partial first) or the error, under the stream's key.
    fn file(
        &mut self,
        result: Result<Vec<WindowReport>, DistError>,
        fleet: &mut FleetSummary,
        (out, errors): &mut ShardOutcome,
    ) {
        match result {
            Ok(reports) => {
                observe_windows(fleet, self, &reports);
                out.extend(reports);
            }
            Err(e) => errors.push((self.state.stream().unwrap_or_default().to_string(), e)),
        }
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
    /// Slots in debut order — the shard-local slab the interner's
    /// `(shard, slot)` coordinates point into.
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

/// Digests freshly produced window reports into the shard's fleet partial.
/// Runs inside shard workers at window production, so stashed reports
/// (collected later after a partial batch failure) are never re-counted.
// lint:hot-path
fn observe_windows(fleet: &mut FleetSummary, slot: &mut StreamSlot, reports: &[WindowReport]) {
    for w in reports {
        let alarmed = !w.all_quiet();
        let first_alarm = alarmed && !slot.alarmed;
        if first_alarm {
            slot.alarmed = true;
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
            debut: slot.debut,
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
            let result = slot.state.ingest(group);
            slot.file(result, &mut self.fleet, &mut outcome);
        }
        self.touched.clear();
        self.spans.clear();
        self.routed.clear();
        outcome
    }

    /// Flushes every stream the shard owns, in debut order; a failing
    /// stream does not stop its shard-mates.
    fn flush(&mut self) -> ShardOutcome {
        let mut outcome = ShardOutcome::default();
        for slot in &mut self.slots {
            let result = slot.state.flush();
            slot.file(result, &mut self.fleet, &mut outcome);
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
/// (an interned id without a backing entry, or one homed outside the
/// pool); if one ever trips, the batch fails with this instead of
/// dropping the record.
#[cold]
fn lost_record(key: &str) -> DistError {
    DistError::BadParameter {
        reason: format!(
            "internal: a record for stream '{key}' could not be routed \
             (interner entry missing); failing the batch instead of \
             silently dropping the record"
        ),
    }
}

/// Configures an [`Engine`]; obtained from [`Engine::builder`].
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    n: usize,
    seed: u64,
    shards: usize,
    window: Window,
    analyses: Vec<Analysis>,
}

impl EngineBuilder {
    /// Seeds the engine (default 0). Every stream samples with the derived
    /// seed [`Engine::stream_seed`]`(seed, key)`, so the base seed plus
    /// the key fully determine a stream's randomness.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of worker shards stream keys are hashed onto (default 1).
    /// More shards parallelize the per-window analysis work across cores;
    /// the per-stream output is bit-identical for every shard count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Uses tumbling windows of `span` records per stream — the default,
    /// with a span of 100 000.
    pub fn tumbling(mut self, span: u64) -> Self {
        self.window = Window::Tumbling { span };
        self
    }

    /// Uses sliding windows covering `span` records, completing every
    /// `step` records (`step` must divide `span`), per stream.
    pub fn sliding(mut self, span: u64, step: u64) -> Self {
        self.window = Window::Sliding { span, step };
        self
    }

    /// Sets the window policy explicitly.
    pub fn window(mut self, window: Window) -> Self {
        self.window = window;
        self
    }

    /// Sets the standing batch every stream runs on every completed
    /// window. The batch's shared [`SamplePlan`] shapes every stream's
    /// reservoir lanes, so it must be non-empty.
    pub fn analyses(mut self, batch: impl IntoIterator<Item = Analysis>) -> Self {
        self.analyses = batch.into_iter().collect();
        self
    }

    /// Appends one request to the standing batch.
    pub fn analysis(mut self, request: impl Into<Analysis>) -> Self {
        self.analyses.push(request.into());
        self
    }

    /// Builds the engine: validates the configuration once (shard count,
    /// standing batch, window policy, lane shape) so that per-stream state
    /// creation on first contact with a new key is cheap and infallible,
    /// and spawns the persistent worker pool (one parked thread per shard;
    /// none for a single-shard engine, which always runs inline).
    pub fn build(self) -> Result<Engine, DistError> {
        if self.shards == 0 {
            return Err(DistError::BadParameter {
                reason: "engine needs at least one shard (1 = unsharded)".into(),
            });
        }
        // The monitor's validator, shared verbatim: an engine stream is a
        // monitor, so what is invalid there must be invalid here.
        let spec = StreamSpec::new(self.n, self.window, self.analyses)?;
        let mut shards = Vec::with_capacity(self.shards);
        shards.resize_with(self.shards, Shard::default);
        // Persistent workers: spawned once here, parked on their mailbox
        // between batches. A 1-shard engine has no workers at all.
        let workers = Engine::spawn_workers(self.shards);
        Ok(Engine {
            seed: self.seed,
            spec,
            shards,
            workers,
            interner: Interner::new(),
            jobs: Vec::new(),
            outcomes: Vec::new(),
            stashed: Vec::new(),
        })
    }
}

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
    /// The key interner, touched only on the caller thread.
    interner: Interner,
    /// Jobs queued for [`Engine::run_jobs`]; empty between calls.
    jobs: Vec<Job>,
    /// Per-call shard outcomes, drained by [`Engine::settle`].
    outcomes: Vec<ShardOutcome>,
    /// Reports computed by healthy streams during a call that returned an
    /// error for some *other* stream. Streams are independent, so those
    /// reports are valid and must not be lost — they are delivered (in
    /// sorted position) by the next successful
    /// [`ingest_batch`](Engine::ingest_batch) or
    /// [`flush_debut_ordered`](Engine::flush_debut_ordered).
    stashed: Vec<WindowReport>,
}

impl Engine {
    /// Starts configuring an engine over the domain `[0, n)` (shared by
    /// every stream — keyed streams of differing domains belong in
    /// separate engines).
    pub fn builder(n: usize) -> EngineBuilder {
        EngineBuilder {
            n,
            seed: 0,
            shards: 1,
            window: Window::Tumbling { span: 100_000 },
            analyses: Vec::new(),
        }
    }

    /// The seed stream `key` samples with under base seed `base`: the
    /// SplitMix64 stream of the key's deterministic FNV-1a hash. A
    /// dedicated [`Monitor`] seeded with this value (and tagged via
    /// [`MonitorBuilder::stream`](crate::monitor::MonitorBuilder::stream))
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
        self.interner.entries.len()
    }

    /// Per-stream `(key, records seen)` totals in **debut order** —
    /// served straight from the interner slab and each stream's state, so
    /// callers (the `STATS` control plane, `examples/fleet_monitor.rs`)
    /// never recompute totals from window reports.
    pub fn stream_seen(&self) -> Vec<(&str, u64)> {
        self.interner
            .entries
            .iter()
            .map(|e| (e.key.as_str(), self.monitor(e).map_or(0, Monitor::seen)))
            .collect()
    }

    /// All stream keys seen so far, in **debut order** — the order in
    /// which each key's first record reached the engine, which is
    /// independent of shard count and stable across calls. Borrowed
    /// straight from the interner's slab; nothing is re-sorted or
    /// re-hashed per call.
    pub fn stream_keys(&self) -> Vec<&str> {
        self.interner
            .entries
            .iter()
            .map(|e| e.key.as_str())
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
        self.monitor(self.interner.find(key)?)
    }

    /// The monitor an interned entry points at: the one way from a key to
    /// its stream, behind every per-stream accessor.
    fn monitor(&self, entry: &KeyEntry) -> Option<&Monitor> {
        let shard = self.shards.get(entry.shard as usize)?;
        shard.slots.get(entry.slot as usize).map(|s| &s.state)
    }

    /// The shard `key` lives on (or will, from its debut). Pure in
    /// `(key, shard count)`: independent of debut order.
    pub fn shard_of(&self, key: &str) -> usize {
        home_shard(key_hash(key), self.shards.len()) as usize
    }

    /// Interns a debuting key (cold path): creates the stream's slot (and
    /// state machine) on its home shard and returns its id. `hash` is the
    /// key's FNV-1a hash from the route, reused for the home shard *and*
    /// the cached entry (the "hash computed once" contract). The caller
    /// has just missed `key` in the interner.
    fn debut(&mut self, key: &str, hash: u64) -> u32 {
        let shard_idx = home_shard(hash, self.shards.len()) as usize;
        let Some(shard) = self.shards.get_mut(shard_idx) else {
            // Unreachable: home shards are < shards.len() by construction;
            // keep the no-panic discipline anyway.
            return 0;
        };
        let slot = shard.slots.len() as u32;
        // The interner assigns ids densely in debut order, so the id this
        // insert will return is the current entry count.
        let debut = self.interner.entries.len() as u32;
        let seed = Engine::stream_seed(self.seed, key);
        shard.slots.push(StreamSlot {
            state: Monitor::new(&self.spec, seed, Some(key.to_string())),
            debut,
            alarmed: false,
        });
        shard.fleet.observe_debut();
        self.interner.insert(key, hash, shard_idx as u32, slot)
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
        let slot = self.interner.find(key).and_then(|entry| {
            let shard = self.shards.get_mut(entry.shard as usize)?;
            shard.slots.get_mut(entry.slot as usize)
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
    /// [`FleetReport`], with top-K entries resolved through the
    /// debut-ordered key table. Composed purely from the window reports
    /// the shards already produced — **zero extra oracle draws** — and
    /// bit-identical for every shard count and batch partitioning,
    /// because the fold is associative and commutative (see
    /// [`khist_fleet::FleetSummary::merge`]).
    pub fn fleet_report(&self) -> FleetReport {
        let mut total = FleetSummary::new();
        for shard in &self.shards {
            total.merge(&shard.fleet);
        }
        total.report(&self.stream_keys())
    }

    /// Ingests a batch of keyed records in arrival order — the engine's
    /// main entry point. The route runs on the caller thread: each
    /// record's key is hashed once — the hash feeds the interner probe,
    /// the home-shard placement, and the cached entry — and the record
    /// joins its home shard's bucket in arrival order, debuts interned in
    /// the order they first appear. Busy shards then group their buckets
    /// per stream and ingest: they move by value to the persistent workers
    /// (shared-nothing: a shard's states are touched only by the job
    /// holding its slab), or run inline on the caller thread when only one
    /// is busy, and completed windows come back sorted by
    /// `(stream, window id)` — a deterministic interleaving with every
    /// stream's reports in window order.
    ///
    /// A warm call — every key interned, no window completing — performs
    /// zero heap allocations (see the [module docs](self)).
    ///
    /// Streams fail *independently*: a record outside `[0, n)` (or a
    /// failing standing analysis) stops only its own stream — exactly
    /// what would happen to a dedicated [`Monitor`] on that stream —
    /// while every other stream ingests its full slice.
    /// When any stream failed, the call returns the error of the
    /// lexicographically smallest failing key (a deterministic choice for
    /// every shard count), and the reports the healthy streams computed
    /// during the call are *not* lost: they are delivered, in sorted
    /// position, by the next successful `ingest_batch` or
    /// [`flush_debut_ordered`](Engine::flush_debut_ordered).
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
    /// shard's bucket in arrival order, interning a debuting key where it
    /// first appears — so debut numbering is the order of first
    /// appearance. A warm record costs one hash, one probe and one push.
    // lint:hot-path
    fn route<K: AsRef<str>>(&mut self, records: &[(K, usize)]) -> Result<(), DistError> {
        for (key, value) in records {
            let key = key.as_ref();
            let hash = key_hash(key);
            let id = match self.interner.lookup(key, hash) {
                Some(id) => id,
                None => self.debut(key, hash),
            };
            let home = self.interner.entries.get(id as usize).and_then(|entry| {
                let shard = self.shards.get_mut(entry.shard as usize)?;
                Some((&mut shard.routed, entry.slot))
            });
            let Some((routed, slot)) = home else {
                debug_assert!(false, "interned id {id} has no home in the pool");
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
    /// one), with the same independent-failure contract. Reports come back
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
            report.stream.as_deref().map_or(u32::MAX, |key| {
                self.interner.lookup(key, key_hash(key)).unwrap_or(u32::MAX)
            })
        });
        Ok(tails)
    }

    /// Merges the per-shard outcomes collected by the current call into
    /// its result. On full success, the computed reports — plus any
    /// reports stashed by an earlier failing call — come back sorted. When
    /// any stream failed, the healthy streams' reports are stashed for the
    /// next successful call and the error of the lexicographically
    /// smallest failing key is returned (deterministic for every shard
    /// count; worker completion order is not).
    fn settle(&mut self) -> Result<Vec<WindowReport>, DistError> {
        let mut reports = Vec::new();
        let mut first_error: Option<(String, DistError)> = None;
        for (shard_reports, shard_errors) in self.outcomes.drain(..) {
            reports.extend(shard_reports);
            for (key, e) in shard_errors {
                let smaller = match &first_error {
                    Some((held, _)) => key < *held,
                    None => true,
                };
                if smaller {
                    first_error = Some((key, e));
                }
            }
        }
        if let Some((_, e)) = first_error {
            self.stashed.append(&mut reports);
            return Err(e);
        }
        reports.append(&mut self.stashed);
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
    use khist_dist::generators;
    use rand::{rngs::StdRng, SeedableRng};

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
        want.extend(monitor.flush().unwrap());
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
        assert_eq!(engine.stream_keys(), ["api", "web"]);
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
        assert_eq!(eng.stream_keys(), ["zeta", "mid", "alpha"]);
        // Stable across calls and shard counts.
        let mut other = engine_with_shards_and_same_records();
        assert_eq!(other.stream_keys(), ["zeta", "mid", "alpha"]);
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
            assert_eq!(sharded.stream_keys(), names, "@ {shards} shards");
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
        // Stream "good" completes a window in the same call in which
        // stream "bad" hits an out-of-domain record. The call errors, but
        // good's already-computed report must surface on the next
        // successful call — and stay bit-identical to a dedicated monitor.
        let span = 500u64;
        let good_records: Vec<usize> = (0..span as usize).map(|i| (i * 7) % 64).collect();
        let mut batch: Vec<(String, usize)> = good_records
            .iter()
            .map(|&v| ("good".to_string(), v))
            .collect();
        batch.push(("bad".to_string(), 9_999));
        let mut engine = engine(2, span);
        let err = engine.ingest_batch(&batch).unwrap_err().to_string();
        assert!(err.contains("record 9999"), "{err}");
        // The stashed window arrives with the next successful call.
        let delivered = engine.flush_debut_ordered().unwrap();
        let good: Vec<WindowReport> = delivered
            .iter()
            .filter(|r| r.stream.as_deref() == Some("good"))
            .cloned()
            .collect();
        assert_eq!(good.len(), 1, "window 0 delivered, not lost: {delivered:?}");
        let mut monitor = Monitor::builder(64)
            .seed(Engine::stream_seed(11, "good"))
            .stream("good")
            .tumbling(span)
            .analyses(standing())
            .build()
            .unwrap();
        let want = monitor.ingest(&good_records).unwrap();
        assert_eq!(good, want, "stashed report still bit-identical");
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
        for entry in &eng.interner.entries {
            assert_eq!(
                eng.shard_of(&entry.key),
                entry.shard as usize,
                "{}",
                entry.key
            );
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
        let labels: Vec<&str> = ledger.iter().map(|e| e.label.as_str()).collect();
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
        // Push well past the initial 64-bucket table so lookup keeps
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
        let keys = eng.stream_keys();
        assert_eq!(keys[0], "stream-0");
        assert_eq!(keys[499], "stream-499");
    }
}
