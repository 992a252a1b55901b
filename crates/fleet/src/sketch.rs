//! A deterministic, bounded-memory quantile sketch over drift scores.
//!
//! The sketch must satisfy two constraints the usual streaming sketches
//! (GK, KLL, t-digest) do not give for free:
//!
//! 1. **bit-exact merge algebra** — merging per-shard sketches must be
//!    associative and commutative at the bit level, or the engine's
//!    "fleet report is identical for every shard count" guarantee dies;
//! 2. **no randomness, no clocks** — the whole workspace's determinism
//!    discipline (seed-discipline / wall-clock lint rules) applies.
//!
//! Both fall out of one invariant: the sketch state is a pure function of
//! the *multiset* of observed scores. While the total count is at most
//! [`DriftSketch::EXACT_CAP`] the scores are kept exactly, order-canonical
//! (sorted by [`f64::total_cmp`]); past the cap the stash collapses —
//! permanently, because "collapsed" is itself a function of the count —
//! into fixed log-scale bins. Integer bin counts add, the exact stash is a
//! canonical sorted multiset, and min/max are exact, so merge order can
//! never show through.

/// Bounded-memory quantile sketch over non-negative-ish drift scores.
///
/// Exact below [`DriftSketch::EXACT_CAP`] observations, log-binned above
/// (64 bins spanning `2⁻²⁰ ..= 2¹²` plus under/overflow edges, ~½-octave
/// resolution — drift severities are scale-free ratios, so relative error
/// is the right resolution measure). Non-finite scores are ignored: a
/// poisoned statistic must not poison the fleet rollup.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftSketch {
    /// Total finite scores observed.
    count: u64,
    /// Exact stash, sorted by `total_cmp`; empty once collapsed.
    exact: Vec<f64>,
    /// Log-scale bins; only populated once `count > EXACT_CAP`.
    bins: [u64; Self::BINS],
    /// Exact smallest score (`+∞` when empty).
    min: f64,
    /// Exact largest score (`−∞` when empty).
    max: f64,
}

impl Default for DriftSketch {
    fn default() -> Self {
        DriftSketch {
            count: 0,
            exact: Vec::new(),
            bins: [0; Self::BINS],
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl DriftSketch {
    /// Observations kept exactly before the sketch collapses to bins.
    pub const EXACT_CAP: usize = 256;
    /// Total bin count: one underflow edge, 62 interior log-scale bins,
    /// one overflow edge.
    const BINS: usize = 64;
    /// `log2` of the lowest interior bin edge.
    const LO_EXP: f64 = -20.0;
    /// `log2` of the highest interior bin edge.
    const HI_EXP: f64 = 12.0;

    /// Creates an empty sketch. Allocation-free: the exact stash grows
    /// lazily on first observation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total finite scores observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact smallest observed score, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest observed score, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Whether the exact stash has collapsed into bins. A function of
    /// `count` alone — that is what makes merging order-insensitive.
    fn binned(&self) -> bool {
        self.count > Self::EXACT_CAP as u64
    }

    /// Absorbs one drift score. Ignores non-finite input.
    ///
    /// Runs on the window-completion path (not per record): the insertion
    /// sort over the bounded stash and the log-bin arithmetic are both
    /// O([`Self::EXACT_CAP`]) worst-case and allocation-free once the
    /// stash has grown.
    // lint:hot-path
    pub fn observe(&mut self, score: f64) {
        if !score.is_finite() {
            return;
        }
        self.count += 1;
        if score < self.min {
            self.min = score;
        }
        if score > self.max {
            self.max = score;
        }
        if self.binned() {
            if !self.exact.is_empty() {
                self.collapse();
            }
            self.bins[Self::bin_of(score)] += 1;
        } else {
            // Keep the stash order-canonical so merge order cannot leak.
            let at = self.exact.partition_point(|x| x.total_cmp(&score).is_lt());
            self.exact.insert(at, score);
        }
    }

    /// Moves the exact stash into the bins (the one-way collapse).
    fn collapse(&mut self) {
        for v in std::mem::take(&mut self.exact) {
            self.bins[Self::bin_of(v)] += 1;
        }
    }

    /// Merges another sketch in. Bit-exactly associative and commutative:
    /// the merged state equals the state of a single sketch fed the union
    /// multiset, whatever the grouping.
    pub fn merge(&mut self, other: &DriftSketch) {
        self.count += other.count;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        if self.binned() {
            self.collapse();
            for &v in &other.exact {
                self.bins[Self::bin_of(v)] += 1;
            }
            for (mine, theirs) in self.bins.iter_mut().zip(other.bins.iter()) {
                *mine += *theirs;
            }
        } else {
            // Total ≤ EXACT_CAP ⇒ both sides are still exact stashes.
            for &v in &other.exact {
                let at = self.exact.partition_point(|x| x.total_cmp(&v).is_lt());
                self.exact.insert(at, v);
            }
        }
    }

    /// The empirical `q`-quantile. `None` when the sketch is empty.
    ///
    /// Below the collapse threshold this routes through
    /// [`khist_stats::quantile`] on the exact stash — the same type-7
    /// estimator every experiment table uses. Once binned it answers with
    /// the geometric midpoint of the bin holding the target rank, clamped
    /// to the exact observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if !self.binned() {
            return khist_stats::quantile(&self.exact, q);
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * (self.count - 1) as f64) as u64).min(self.count - 1);
        let mut seen = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if c > 0 && target < seen {
                return Some(Self::representative(i).clamp(self.min, self.max));
            }
        }
        Some(self.max) // unreachable: bins sum to count once binned
    }

    /// Which bin a finite score lands in: 0 under the low edge (including
    /// zero and negatives — unbiased collision estimators can dip below
    /// zero), `BINS − 1` at or above the high edge, geometric in between.
    fn bin_of(v: f64) -> usize {
        let interior = (Self::BINS - 2) as f64;
        let span = Self::HI_EXP - Self::LO_EXP;
        if v <= 0.0 {
            return 0;
        }
        let exp = v.log2();
        if exp < Self::LO_EXP {
            return 0;
        }
        if exp >= Self::HI_EXP {
            return Self::BINS - 1;
        }
        let idx = 1.0 + (exp - Self::LO_EXP) * interior / span;
        (idx as usize).clamp(1, Self::BINS - 2)
    }

    /// A deterministic representative value for a bin: the geometric
    /// midpoint for interior bins, the edges for the flanks (queries clamp
    /// to the exact min/max anyway).
    fn representative(bin: usize) -> f64 {
        let interior = (Self::BINS - 2) as f64;
        let span = Self::HI_EXP - Self::LO_EXP;
        if bin == 0 {
            return 0.0;
        }
        if bin >= Self::BINS - 1 {
            return f64::INFINITY;
        }
        ((bin as f64 - 0.5) * span / interior + Self::LO_EXP).exp2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_of(values: impl IntoIterator<Item = f64>) -> DriftSketch {
        let mut s = DriftSketch::new();
        for v in values {
            s.observe(v);
        }
        s
    }

    #[test]
    fn empty_sketch_answers_none() {
        let s = DriftSketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn exact_mode_matches_stats_quantile() {
        let values: Vec<f64> = (0..100).map(|i| (i as f64) / 7.0).collect();
        let s = sketch_of(values.iter().copied());
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(s.quantile(q), khist_stats::quantile(&values, q), "q={q}");
        }
        assert_eq!(s.min(), Some(0.0));
        assert_eq!(s.max(), Some(99.0 / 7.0));
    }

    #[test]
    fn non_finite_scores_are_ignored() {
        let s = sketch_of([1.0, f64::NAN, f64::INFINITY, 2.0]);
        assert_eq!(s.count(), 2);
        assert_eq!(s.quantile(1.0), Some(2.0));
    }

    #[test]
    fn collapse_is_a_function_of_count_and_stays_accurate() {
        // 10_000 log-uniform-ish values: binned mode must answer within
        // the ~half-octave bin resolution.
        let values: Vec<f64> = (0..10_000)
            .map(|i| ((i % 640) as f64 / 64.0).exp2())
            .collect();
        let s = sketch_of(values.iter().copied());
        assert_eq!(s.count(), 10_000);
        let exact = khist_stats::quantile(&values, 0.5).unwrap();
        let approx = s.quantile(0.5).unwrap();
        let ratio = approx / exact;
        assert!(
            (0.5..2.0).contains(&ratio),
            "binned p50 {approx} vs exact {exact}"
        );
        // Extremes are exact regardless of binning.
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.min(), Some(1.0));
    }

    #[test]
    fn merge_equals_single_feed_exact_and_binned() {
        for chunk in [10usize, 400] {
            let values: Vec<f64> = (0..3 * chunk).map(|i| (i as f64).sin().abs()).collect();
            let whole = sketch_of(values.iter().copied());
            let mut parts: Vec<DriftSketch> = values
                .chunks(chunk)
                .map(|c| sketch_of(c.iter().copied()))
                .collect();
            let mut merged = parts.remove(0);
            for p in &parts {
                merged.merge(p);
            }
            assert_eq!(merged, whole, "chunk={chunk}");
        }
    }

    #[test]
    fn merge_is_commutative_across_the_collapse_boundary() {
        let a = sketch_of((0..200).map(|i| i as f64));
        let b = sketch_of((0..200).map(|i| (i as f64) * 0.5));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert!(ab.count() as usize > DriftSketch::EXACT_CAP);
    }
}
