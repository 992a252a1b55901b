//! Reservoir sampling: uniform fixed-size samples from unbounded streams.
//!
//! The learner and testers consume i.i.d. samples; when the data arrives as
//! a stream of records (the monitoring scenario of the `drift_detection`
//! example) a reservoir turns "the stream so far" into a uniform sample of
//! fixed size `capacity` without storing the stream.
//!
//! # Skip sampling (Algorithm L)
//!
//! The classic Algorithm R draws one random number per offered record to
//! decide whether it replaces a held item — `O(records)` RNG calls, and the
//! RNG dominates the per-record cost even though almost every record is
//! discarded. This implementation uses Vitter-style *skip sampling* in the
//! variant known as Algorithm L (Li 1994): once the reservoir is full it
//! draws, in `O(1)`, *how many upcoming records will be skipped* before the
//! next acceptance, and then passes over them with a counter decrement and
//! no RNG at all. Only an acceptance costs randomness (three draws: the
//! replaced slot, the `W` update, and the next skip), so a stream of `N`
//! records through a capacity-`k` reservoir costs `O(k · (1 + log(N/k)))`
//! expected RNG calls instead of `O(N)`.
//!
//! The kept-set law is exactly that of Algorithm R — a uniform sample
//! without replacement of the offered records (this is property-tested
//! against a per-record reference implementation below).
//!
//! # Seed-stream contract
//!
//! A reservoir owns no RNG: every call threads one in, and each *lane* of a
//! windowed sink or record-file oracle feeds its reservoir from a dedicated
//! `StdRng` seeded by `stream_seed(seed, lane)` (see
//! [`crate::oracle::stream_seed`]). Skip sampling changes how
//! *many* values are drawn from that stream, not which stream is used, so
//! the push path ([`crate::sink::WindowedSink`]) and the pull path
//! ([`crate::oracle::RecordFileOracle`]'s internal pour) — which both
//! offer record `t` to the same `Lanes` (one router, the same per-lane
//! RNGs) — remain bit-identical to each other by construction.
//!
//! Note the statistical caveat (documented rather than hidden): a reservoir
//! produces a uniform sample *without replacement* of the observed records.
//! When the stream is itself i.i.d. from `p` and the stream length is much
//! larger than `capacity`, the reservoir's contents are distributed like
//! i.i.d. draws from `p` up to `O(capacity/stream_len)` corrections, which
//! is the regime the monitoring examples run in.
//!
//! # Slot width
//!
//! A kept record is a `u32` slot: the records are values of a domain
//! `[0, n)`, and windowed sinks and record-file oracles reject a domain of
//! more than `2³²` values when they are built, so four bytes hold any
//! record and every lane costs half the memory of a `usize` slot.

use std::collections::TryReserveError;

use rand::Rng;

use crate::sample_set::SampleSet;

/// Algorithm L state, live only once the reservoir is full.
///
/// `w` is the running estimate of the largest "priority" in the reservoir
/// (each update multiplies by a fresh `u^(1/k)`); `gap` is the number of
/// upcoming records to pass over before the next acceptance, distributed
/// `Geometric(w)`.
#[derive(Debug, Clone, Copy)]
struct SkipState {
    gap: u64,
    w: f64,
}

/// A fixed-capacity uniform reservoir over a stream of `u32` records.
///
/// See the [module docs](self) for the skip-sampling algorithm and the
/// seed-stream contract. The public surface is deliberately small: offer
/// records one at a time, snapshot the kept set, or merge two reservoirs
/// lane-wise for sliding windows.
#[derive(Debug, Clone)]
pub struct Reservoir {
    items: Vec<u32>,
    capacity: usize,
    seen: u64,
    /// `None` until the first post-full offer (and after a `merge`);
    /// initialized lazily so clones, merges and snapshots need no RNG.
    skip: Option<SkipState>,
}

/// Uniform draw in the half-open unit interval flipped to `(0, 1]`, so its
/// logarithm is always finite (`ln(0)` would poison the skip arithmetic).
fn positive_unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    1.0 - rng.random::<f64>()
}

/// Draws the next `Geometric(w)` skip length: `floor(ln(u) / ln(1 - w))`.
///
/// Total for every representable `w` in `[0, 1]`: `w == 1` gives a `-inf`
/// denominator and a gap of 0 (accept immediately), and the saturating
/// float-to-int cast turns any overflow into `u64::MAX` (skip practically
/// forever) rather than wrapping.
fn next_gap<R: Rng + ?Sized>(w: f64, rng: &mut R) -> u64 {
    let denom = (1.0 - w).ln();
    let gap = (positive_unit(rng).ln() / denom).floor();
    gap as u64
}

impl Reservoir {
    /// Creates an empty reservoir holding at most `capacity` records.
    ///
    /// # Panics
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        Self::empty(capacity, Vec::with_capacity(capacity))
    }

    /// Like [`Reservoir::new`], but a refused reservation of the
    /// `capacity` slots is an error instead of an abort.
    pub(crate) fn try_new(capacity: usize) -> Result<Self, TryReserveError> {
        let mut items = Vec::new();
        items.try_reserve_exact(capacity)?;
        Ok(Self::empty(capacity, items))
    }

    fn empty(capacity: usize, items: Vec<u32>) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        Reservoir {
            items,
            capacity,
            seen: 0,
            skip: None,
        }
    }

    /// Initializes the skip state on the first post-full offer: `W` starts
    /// at `u^(1/k)` and the first gap is drawn from it. Two RNG draws.
    fn ensure_skip<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        if self.skip.is_none() {
            let k = self.capacity as f64;
            let w = (positive_unit(rng).ln() / k).exp();
            let gap = next_gap(w, rng);
            self.skip = Some(SkipState { gap, w });
        }
    }

    /// After an acceptance: shrink `W` by a fresh `u^(1/k)` factor and draw
    /// the next gap. Two RNG draws.
    fn advance_skip<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let k = self.capacity as f64;
        if let Some(s) = self.skip.as_mut() {
            s.w *= (positive_unit(rng).ln() / k).exp();
            s.gap = next_gap(s.w, rng);
        }
    }

    /// Offers one stream record.
    ///
    /// Fill phase: records are kept verbatim until `capacity` is reached
    /// (no RNG). After that, skipped records cost one counter decrement and
    /// an accepted record costs three RNG draws (slot, `W` update, next
    /// gap) — drawn in that fixed order, which is part of the determinism
    /// contract.
    // lint:hot-path
    pub fn offer<R: Rng + ?Sized>(&mut self, value: u32, rng: &mut R) {
        if self.items.len() < self.capacity {
            self.items.push(value);
            self.seen += 1;
            return;
        }
        self.ensure_skip(rng);
        self.seen += 1;
        let skipping = match self.skip.as_mut() {
            Some(s) if s.gap > 0 => {
                s.gap -= 1;
                true
            }
            _ => false,
        };
        if !skipping {
            let j = rng.random_range(0..self.capacity);
            // lint:allow(checked-indexing): j < capacity == items.len() by the range above
            self.items[j] = value;
            self.advance_skip(rng);
        }
    }

    /// Number of records offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Number of records currently held (`min(capacity, seen)`).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the reservoir holds no records yet.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Borrows the current sample.
    pub fn items(&self) -> &[u32] {
        &self.items
    }

    /// Snapshots the current contents as a [`SampleSet`].
    pub fn to_sample_set(&self) -> SampleSet {
        let mut items = self.items.clone();
        items.sort_unstable();
        SampleSet::from_sorted_slots(&items)
    }

    /// Consumes the reservoir into a [`SampleSet`] without copying the
    /// kept records: the slots are sorted in place and read once — the
    /// way to finalize a window whose reservoir will not be offered any
    /// further records.
    pub fn into_sample_set(mut self) -> SampleSet {
        self.items.sort_unstable();
        SampleSet::from_sorted_slots(&self.items)
    }

    /// Merges two reservoirs into one whose contents approximate a uniform
    /// sample of the *union* of the two observed streams, weighted by how
    /// many records each side has seen.
    ///
    /// The merge repeatedly picks a side with probability proportional to
    /// the records it still represents (its `seen` count, minus one per
    /// item already taken — a pick consumes one record of the underlying
    /// stream) and moves a uniformly random item across. The result has
    /// capacity `max` of the two capacities and `seen` equal to the sum,
    /// so merges chain associatively enough for windowed sinks to fold a
    /// sliding window's panes lane by lane
    /// ([`WindowedSink`](crate::sink::WindowedSink)).
    ///
    /// The merged reservoir's skip schedule restarts as if freshly filled;
    /// in this workspace merged reservoirs are only ever snapshotted (a
    /// frozen window), never offered further records.
    ///
    /// Deterministic for a fixed `rng` state.
    pub fn merge<R: Rng + ?Sized>(&self, other: &Reservoir, rng: &mut R) -> Reservoir {
        let capacity = self.capacity.max(other.capacity);
        let mut a = self.items.clone();
        let mut b = other.items.clone();
        let mut weight_a = self.seen as f64;
        let mut weight_b = other.seen as f64;
        let mut items = Vec::with_capacity(capacity.min(a.len() + b.len()));
        while items.len() < capacity && (!a.is_empty() || !b.is_empty()) {
            let from_a = if b.is_empty() {
                true
            } else if a.is_empty() {
                false
            } else {
                rng.random::<f64>() * (weight_a + weight_b) < weight_a
            };
            let src = if from_a { &mut a } else { &mut b };
            let j = rng.random_range(0..src.len());
            items.push(src.swap_remove(j));
            if from_a {
                weight_a -= 1.0;
            } else {
                weight_b -= 1.0;
            }
        }
        Reservoir {
            items,
            capacity,
            seen: self.seen + other.seen,
            skip: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn fills_up_to_capacity_first() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut r = Reservoir::new(4);
        assert!(r.is_empty());
        for v in [10, 11, 12] {
            r.offer(v, &mut rng);
        }
        assert_eq!(r.items(), &[10, 11, 12]);
        r.offer(13, &mut rng);
        assert_eq!(r.len(), 4);
        assert_eq!(r.seen(), 4);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut r = Reservoir::new(8);
        for v in 0..10_000 {
            r.offer(v % 100, &mut rng);
        }
        assert_eq!(r.len(), 8);
        assert_eq!(r.seen(), 10_000);
    }

    #[test]
    fn each_record_equally_likely_to_survive() {
        // Stream 0..20 through a capacity-5 reservoir many times; each
        // record should survive with probability 5/20 = 0.25.
        let trials = 20_000;
        let mut survival = [0u32; 20];
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..trials {
            let mut r = Reservoir::new(5);
            for v in 0..20 {
                r.offer(v, &mut rng);
            }
            for &v in r.items() {
                survival[v as usize] += 1;
            }
        }
        for (v, &count) in survival.iter().enumerate() {
            let p = count as f64 / trials as f64;
            assert!((p - 0.25).abs() < 0.02, "record {v}: survival {p}");
        }
    }

    /// Reference per-record Algorithm R, as shipped before skip sampling:
    /// one `random_range(0..seen)` draw per post-full record.
    fn algorithm_r_reference<R: Rng + ?Sized>(
        records: &[u32],
        capacity: usize,
        rng: &mut R,
    ) -> Vec<u32> {
        let mut items = Vec::with_capacity(capacity);
        for (i, &v) in records.iter().enumerate() {
            let seen = i as u64 + 1;
            if items.len() < capacity {
                items.push(v);
            } else {
                let j = rng.random_range(0..seen);
                if (j as usize) < capacity {
                    items[j as usize] = v;
                }
            }
        }
        items
    }

    #[test]
    fn skip_sampling_kept_sets_match_per_record_law() {
        // Exchangeability with the old per-record implementation: stream
        // positions 0..60 through capacity-6 reservoirs under both
        // algorithms; every position's survival frequency should be ~0.1
        // under both, and the two algorithms should agree within noise
        // (~8σ margins at 30k trials, so this is not flaky).
        let trials = 30_000;
        let records: Vec<u32> = (0..60).collect();
        let mut new_hits = [0u32; 60];
        let mut old_hits = [0u32; 60];
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..trials {
            let mut r = Reservoir::new(6);
            for &v in &records {
                r.offer(v, &mut rng);
            }
            for &v in r.items() {
                new_hits[v as usize] += 1;
            }
            for &v in &algorithm_r_reference(&records, 6, &mut rng) {
                old_hits[v as usize] += 1;
            }
        }
        let expected = 6.0 / 60.0;
        for v in 0..60 {
            let p_new = new_hits[v] as f64 / trials as f64;
            let p_old = old_hits[v] as f64 / trials as f64;
            assert!(
                (p_new - expected).abs() < 0.015,
                "position {v}: skip-sampling survival {p_new}"
            );
            assert!(
                (p_new - p_old).abs() < 0.015,
                "position {v}: skip {p_new} vs per-record {p_old}"
            );
        }
    }

    /// RNG wrapper that counts how many raw draws pass through it.
    struct CountingRng {
        inner: StdRng,
        calls: u64,
    }

    impl RngCore for CountingRng {
        fn next_u64(&mut self) -> u64 {
            self.calls += 1;
            self.inner.next_u64()
        }
    }

    #[test]
    fn skip_sampling_uses_sublinear_rng_calls() {
        // 100k records through capacity 8: Algorithm L accepts about
        // k·ln(N/k) ≈ 75 records, each costing a handful of raw draws.
        // The old per-record scheme used ≥ 100_000 draws.
        let mut rng = CountingRng {
            inner: StdRng::seed_from_u64(5),
            calls: 0,
        };
        let mut r = Reservoir::new(8);
        for v in 0..100_000 {
            r.offer(v % 64, &mut rng);
        }
        assert_eq!(r.seen(), 100_000);
        assert!(
            rng.calls < 2_000,
            "expected O(k log(N/k)) RNG calls, used {}",
            rng.calls
        );
    }

    #[test]
    fn snapshot_and_reset() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut r = Reservoir::new(3);
        for v in [7, 7, 9] {
            r.offer(v, &mut rng);
        }
        let set = r.to_sample_set();
        assert_eq!(set.total(), 3);
        assert_eq!(set.occurrences(7), 2);
        // Windowed sinks reset a lane by replacing its reservoir with a
        // fresh one of the same capacity, which starts in the fill phase.
        r = Reservoir::new(r.capacity());
        assert!(r.is_empty());
        assert_eq!(r.seen(), 0);
        assert_eq!(r.capacity(), 3);
        for v in [1, 2, 3] {
            r.offer(v, &mut rng);
        }
        assert_eq!(r.items(), &[1, 2, 3]);
    }

    #[test]
    fn into_sample_set_matches_snapshot() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut r = Reservoir::new(5);
        for v in [3, 1, 4, 1, 5, 9, 2, 6] {
            r.offer(v, &mut rng);
        }
        let snapshot = r.to_sample_set();
        let moved = r.into_sample_set();
        assert_eq!(snapshot, moved);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        Reservoir::new(0);
    }

    #[test]
    fn merge_combines_contents_and_counters() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut a = Reservoir::new(4);
        let mut b = Reservoir::new(4);
        for _ in 0..3 {
            a.offer(1, &mut rng);
        }
        for _ in 0..2 {
            b.offer(2, &mut rng);
        }
        let merged = a.merge(&b, &mut rng);
        assert_eq!(merged.seen(), 5);
        assert_eq!(merged.capacity(), 4);
        assert_eq!(merged.len(), 4);
        assert!(merged.items().iter().all(|&v| v == 1 || v == 2));
        // Everything fits when the union is below capacity.
        let small = Reservoir::new(8).merge(&a, &mut rng);
        assert_eq!(small.len(), 3);
        assert_eq!(small.seen(), 3);
    }

    #[test]
    fn merge_is_deterministic_per_rng_state() {
        let mut fill = StdRng::seed_from_u64(6);
        let mut a = Reservoir::new(16);
        let mut b = Reservoir::new(16);
        for v in 0..200 {
            a.offer(v % 10, &mut fill);
            b.offer(10 + v % 10, &mut fill);
        }
        let mut r1 = StdRng::seed_from_u64(99);
        let mut r2 = StdRng::seed_from_u64(99);
        assert_eq!(a.merge(&b, &mut r1).items(), a.merge(&b, &mut r2).items());
    }

    #[test]
    fn merge_weights_sides_by_records_seen() {
        // Side A saw 9× the records of side B; its items should dominate
        // the merged sample roughly 9:1.
        let trials = 2_000;
        let mut rng = StdRng::seed_from_u64(7);
        let mut from_a = 0u32;
        let mut total = 0u32;
        for _ in 0..trials {
            let mut a = Reservoir::new(10);
            let mut b = Reservoir::new(10);
            for t in 0..900 {
                a.offer(0, &mut rng);
                if t < 100 {
                    b.offer(1, &mut rng);
                }
            }
            let merged = a.merge(&b, &mut rng);
            for &v in merged.items() {
                total += 1;
                if v == 0 {
                    from_a += 1;
                }
            }
        }
        let share = from_a as f64 / total as f64;
        assert!((share - 0.9).abs() < 0.05, "A share {share}");
    }
}
