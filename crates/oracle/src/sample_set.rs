//! Compressed sample multisets with logarithmic interval queries.
//!
//! Every algorithm in the paper repeatedly asks, for an interval `I ⊆ [n]`:
//! *how many samples landed in `I`* (`|S_I|`) and *how many pairwise
//! collisions happened inside `I`* (`coll(S_I) = Σ_{i∈I} C(occ(i,S_I), 2)`).
//! Algorithm 1 asks this for up to `O(n²)` intervals, the testers for
//! `O(k log n)` binary-search probes — so both queries must be cheap.
//!
//! [`SampleSet`] stores the sorted *unique* sample values with
//! multiplicities plus two prefix-sum arrays (of multiplicities and of
//! per-value pair counts), answering both queries with two binary searches.
//! The `(value, count)` runs ([`SampleSet::runs`]) determine the rest, so
//! a set kept for later can be stored as its runs alone and rebuilt with
//! [`SampleSet::from_runs`] (a monitor's drift baseline is).

// lint:allow-file(checked-indexing): this file is prefix-sum arithmetic; every
// index comes from partition_point/binary_search over the same arrays, which
// are built with exactly len(values)+1 entries.

use rand::Rng;

use khist_dist::{DenseDistribution, Interval};

/// An immutable multiset of `m` samples from `[n]`, preprocessed for
/// `O(log m)` interval hit-count and collision-count queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleSet {
    /// Total number of samples `m` (with multiplicity).
    total: u64,
    /// Sorted distinct sample values.
    values: Vec<usize>,
    /// `count_prefix[j] = Σ_{t<j} occ(values[t])`; length `values.len()+1`.
    count_prefix: Vec<u64>,
    /// `pair_prefix[j] = Σ_{t<j} C(occ(values[t]), 2)`; same length.
    pair_prefix: Vec<u64>,
}

/// `C(c, 2) = c·(c−1)/2` — the number of unordered pairs among `c`
/// identical samples, i.e. the collisions one value with multiplicity `c`
/// contributes. Total (`0` for `c < 2`).
///
/// This is the single collision-count kernel shared by [`SampleSet`]'s
/// pair prefix sums and the estimators in [`crate::collision`], so the
/// two layers can never disagree on what "a collision" is.
#[inline]
pub fn choose2(c: u64) -> u64 {
    c * (c.saturating_sub(1)) / 2
}

impl SampleSet {
    /// Builds a sample set from raw draws (any order, duplicates expected).
    pub fn from_samples(mut samples: Vec<usize>) -> Self {
        samples.sort_unstable();
        Self::from_runs(runs(&samples))
    }

    /// Builds a sample set from a reservoir's sorted four-byte slots, read
    /// in place (no `usize` copy of the samples).
    pub(crate) fn from_sorted_slots(sorted: &[u32]) -> Self {
        debug_assert!(sorted.is_sorted(), "slots must be sorted");
        Self::from_runs(runs(sorted).map(|(v, occ)| (v as usize, occ)))
    }

    /// Builds the set from its `(value, occurrences)` runs, as
    /// [`SampleSet::runs`] yields them: values strictly increasing, each
    /// with a positive count. One push per distinct value.
    pub fn from_runs(runs: impl IntoIterator<Item = (usize, u64)>) -> Self {
        let mut values = Vec::new();
        let mut count_prefix = vec![0u64];
        let mut pair_prefix = vec![0u64];
        let mut count_total = 0u64;
        let mut pair_total = 0u64;
        for (v, occ) in runs {
            debug_assert!(
                occ > 0 && values.last().is_none_or(|&last| last < v),
                "runs must be strictly increasing with positive counts"
            );
            values.push(v);
            count_total += occ;
            pair_total += choose2(occ);
            count_prefix.push(count_total);
            pair_prefix.push(pair_total);
        }
        SampleSet {
            total: count_total,
            values,
            count_prefix,
            pair_prefix,
        }
    }

    /// Draws `m` i.i.d. samples from `dist` and builds the set.
    pub fn draw<R: Rng + ?Sized>(dist: &DenseDistribution, m: usize, rng: &mut R) -> Self {
        Self::from_samples(dist.sample_many(m, rng))
    }

    /// Draws `r` independent sets of `m` samples each (the `S¹, …, Sʳ` of
    /// Algorithms 1–4).
    pub fn draw_many<R: Rng + ?Sized>(
        dist: &DenseDistribution,
        m: usize,
        r: usize,
        rng: &mut R,
    ) -> Vec<Self> {
        (0..r).map(|_| Self::draw(dist, m, rng)).collect()
    }

    /// Total number of samples `m` (with multiplicity).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether the set holds no samples.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of distinct sample values.
    pub fn distinct(&self) -> usize {
        self.values.len()
    }

    /// Sorted distinct sample values.
    pub fn unique_values(&self) -> &[usize] {
        &self.values
    }

    /// The set's `(value, occurrences)` runs in increasing value order:
    /// everything it holds, since the prefix sums derive from the counts.
    /// [`SampleSet::from_runs`] rebuilds an equal set from them.
    pub fn runs(&self) -> impl ExactSizeIterator<Item = (usize, u64)> + '_ {
        self.values
            .iter()
            .zip(self.count_prefix.windows(2))
            .map(|(&v, prefix)| (v, prefix[1] - prefix[0]))
    }

    /// Multiplicity of element `x` in the multiset.
    pub fn occurrences(&self, x: usize) -> u64 {
        match self.values.binary_search(&x) {
            Ok(idx) => self.count_prefix[idx + 1] - self.count_prefix[idx],
            Err(_) => 0,
        }
    }

    /// Index range `[a, b)` into `values` covered by the interval.
    #[inline]
    fn value_range(&self, iv: Interval) -> (usize, usize) {
        let a = self.values.partition_point(|&v| v < iv.lo());
        let b = self.values.partition_point(|&v| v <= iv.hi());
        (a, b)
    }

    /// Hit count `|S_I|` in `O(log m)`.
    pub fn count_in(&self, iv: Interval) -> u64 {
        let (a, b) = self.value_range(iv);
        self.count_prefix[b] - self.count_prefix[a]
    }

    /// Collision count `coll(S_I) = Σ_{i∈I} C(occ(i, S_I), 2)` in `O(log m)`.
    pub fn collisions_in(&self, iv: Interval) -> u64 {
        let (a, b) = self.value_range(iv);
        self.pair_prefix[b] - self.pair_prefix[a]
    }

    /// Hit and collision counts over `[0, x)` in `O(log m)`: the prefix
    /// sums that [`SampleSet::count_in`] and [`SampleSet::collisions_in`]
    /// difference, so `count_in([lo, hi])` equals
    /// `counts_below(hi + 1).0 − counts_below(lo).0` (likewise for pairs).
    pub fn counts_below(&self, x: usize) -> (u64, u64) {
        let j = self.values.partition_point(|&v| v < x);
        (self.count_prefix[j], self.pair_prefix[j])
    }

    /// Total collision count over the whole domain.
    pub fn collisions_total(&self) -> u64 {
        self.pair_prefix.last().copied().unwrap_or(0)
    }

    /// Empirical interval mass `|S_I| / m` — the `y_I` of Algorithm 1.
    ///
    /// Returns `0.0` for an empty set.
    pub fn empirical_mass(&self, iv: Interval) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.count_in(iv) as f64 / self.total as f64
    }

    /// The candidate endpoint set `T′` of Theorem 2: every sampled value and
    /// its immediate neighbours `{max(i−1, 0), i, min(i+1, n−1)}`, sorted and
    /// deduplicated.
    pub fn endpoint_candidates(&self, n: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(3 * self.values.len());
        for &v in &self.values {
            if v > 0 {
                out.push(v - 1);
            }
            out.push(v);
            if v + 1 < n {
                out.push(v + 1);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Cross-collision count between two sample sets restricted to `iv`:
    /// the number of pairs `(a, b) ∈ S × T` with `a = b ∈ I`.
    ///
    /// `E[cross/(|S|·|T|)] = Σ_{i∈I} p_i·q_i` — the inner-product estimator
    /// behind `ℓ₂` closeness/identity testing ([BFF+01]; see
    /// `khist_core::identity`). Runs in `O(distinct(S) + distinct(T))`.
    pub fn cross_collisions_in(&self, other: &SampleSet, iv: Interval) -> u64 {
        let (a0, a1) = self.value_range(iv);
        let (b0, b1) = other.value_range(iv);
        let mut total = 0u64;
        let mut i = a0;
        let mut j = b0;
        while i < a1 && j < b1 {
            match self.values[i].cmp(&other.values[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let occ_a = self.count_prefix[i + 1] - self.count_prefix[i];
                    let occ_b = other.count_prefix[j + 1] - other.count_prefix[j];
                    total += occ_a * occ_b;
                    i += 1;
                    j += 1;
                }
            }
        }
        total
    }

    /// The multiset union of `sets`: every sample of every set, with
    /// multiplicity. One pass over the sets' sorted `(value, count)` runs,
    /// summing each value's counts across the sets; equal to building the
    /// set from all their samples at once.
    pub fn merge(sets: &[SampleSet]) -> SampleSet {
        let mut heads = vec![0usize; sets.len()];
        Self::from_runs(std::iter::from_fn(|| {
            let v = sets
                .iter()
                .zip(&heads)
                .filter_map(|(set, &h)| set.values.get(h))
                .min()
                .copied()?;
            let mut occ = 0;
            for (set, h) in sets.iter().zip(heads.iter_mut()) {
                if set.values.get(*h) == Some(&v) {
                    occ += set.count_prefix[*h + 1] - set.count_prefix[*h];
                    *h += 1;
                }
            }
            Some((v, occ))
        }))
    }
}

/// The `(value, occurrences)` runs of a sorted slice.
fn runs<T: Copy + PartialEq>(sorted: &[T]) -> impl Iterator<Item = (T, u64)> + '_ {
    sorted
        .chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn iv(lo: usize, hi: usize) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    /// Naive O(m²-ish) reference implementations.
    fn naive_count(samples: &[usize], i: Interval) -> u64 {
        samples.iter().filter(|&&s| i.contains(s)).count() as u64
    }

    fn naive_collisions(samples: &[usize], i: Interval) -> u64 {
        let mut coll = 0u64;
        for (a, &x) in samples.iter().enumerate() {
            for &y in &samples[a + 1..] {
                if x == y && i.contains(x) {
                    coll += 1;
                }
            }
        }
        coll
    }

    #[test]
    fn choose2_matches_pair_enumeration() {
        assert_eq!(choose2(0), 0);
        assert_eq!(choose2(1), 0);
        assert_eq!(choose2(2), 1);
        assert_eq!(choose2(3), 3);
        assert_eq!(choose2(4), 6);
        // Naive check: count pairs (i, j) with i < j < c.
        for c in 0u64..50 {
            let mut pairs = 0;
            for i in 0..c {
                pairs += c - 1 - i;
            }
            assert_eq!(choose2(c), pairs, "c = {c}");
        }
    }

    #[test]
    fn empty_set_behaviour() {
        let s = SampleSet::from_samples(vec![]);
        assert!(s.is_empty());
        assert_eq!(s.total(), 0);
        assert_eq!(s.count_in(iv(0, 10)), 0);
        assert_eq!(s.collisions_in(iv(0, 10)), 0);
        assert_eq!(s.empirical_mass(iv(0, 10)), 0.0);
        assert!(s.endpoint_candidates(10).is_empty());
    }

    #[test]
    fn counts_match_naive_small() {
        let raw = vec![3, 1, 3, 3, 7, 1, 9];
        let s = SampleSet::from_samples(raw.clone());
        assert_eq!(s.total(), 7);
        assert_eq!(s.distinct(), 4);
        for lo in 0..10 {
            for hi in lo..10 {
                let i = iv(lo, hi);
                assert_eq!(s.count_in(i), naive_count(&raw, i), "count {i}");
                assert_eq!(s.collisions_in(i), naive_collisions(&raw, i), "coll {i}");
            }
        }
    }

    #[test]
    fn occurrences_per_value() {
        let s = SampleSet::from_samples(vec![5, 5, 5, 2]);
        assert_eq!(s.occurrences(5), 3);
        assert_eq!(s.occurrences(2), 1);
        assert_eq!(s.occurrences(3), 0);
    }

    #[test]
    fn collision_counts_choose_two() {
        // 4 copies of one value → C(4,2) = 6 collisions.
        let s = SampleSet::from_samples(vec![8, 8, 8, 8]);
        assert_eq!(s.collisions_in(iv(8, 8)), 6);
        assert_eq!(s.collisions_total(), 6);
        assert_eq!(s.collisions_in(iv(0, 7)), 0);
    }

    #[test]
    fn empirical_mass_fraction() {
        let s = SampleSet::from_samples(vec![0, 0, 1, 9]);
        assert!((s.empirical_mass(iv(0, 1)) - 0.75).abs() < 1e-12);
        assert!((s.empirical_mass(iv(9, 9)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn endpoint_candidates_include_neighbours() {
        let s = SampleSet::from_samples(vec![0, 5, 9]);
        let t = s.endpoint_candidates(10);
        assert_eq!(t, vec![0, 1, 4, 5, 6, 8, 9]);
    }

    #[test]
    fn endpoint_candidates_clamp_at_domain_edges() {
        let s = SampleSet::from_samples(vec![0, 9]);
        let t = s.endpoint_candidates(10);
        // 0 has no left neighbour; 9 has no right neighbour within [10]
        assert_eq!(t, vec![0, 1, 8, 9]);
    }

    #[test]
    fn runs_rebuild_the_empty_set_and_a_single_top_value() {
        for samples in [vec![], vec![u32::MAX as usize; 3]] {
            let set = SampleSet::from_samples(samples);
            assert_eq!(SampleSet::from_runs(set.runs()), set);
        }
        let top = SampleSet::from_samples(vec![u32::MAX as usize; 3]);
        assert_eq!(top.runs().collect::<Vec<_>>(), [(u32::MAX as usize, 3)]);
        assert_eq!(SampleSet::from_samples(vec![]).runs().len(), 0);
    }

    #[test]
    fn draw_produces_m_samples_in_domain() {
        let d = DenseDistribution::uniform(32).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let s = SampleSet::draw(&d, 1000, &mut rng);
        assert_eq!(s.total(), 1000);
        assert!(s.unique_values().iter().all(|&v| v < 32));
    }

    #[test]
    fn draw_many_produces_independent_sets() {
        let d = DenseDistribution::uniform(16).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let sets = SampleSet::draw_many(&d, 50, 7, &mut rng);
        assert_eq!(sets.len(), 7);
        assert!(sets.iter().all(|s| s.total() == 50));
        // overwhelmingly unlikely that two sets coincide
        assert!(sets.windows(2).any(|w| w[0] != w[1]));
    }

    fn naive_cross(a: &[usize], b: &[usize], i: Interval) -> u64 {
        let mut total = 0u64;
        for &x in a {
            for &y in b {
                if x == y && i.contains(x) {
                    total += 1;
                }
            }
        }
        total
    }

    #[test]
    fn cross_collisions_small_exact() {
        let a = SampleSet::from_samples(vec![1, 1, 2, 5]);
        let b = SampleSet::from_samples(vec![1, 2, 2, 9]);
        // pairs in [0,9]: value 1 → 2·1 = 2, value 2 → 1·2 = 2; total 4
        assert_eq!(a.cross_collisions_in(&b, iv(0, 9)), 4);
        assert_eq!(a.cross_collisions_in(&b, iv(2, 9)), 2);
        assert_eq!(a.cross_collisions_in(&b, iv(6, 9)), 0);
        // symmetric
        assert_eq!(b.cross_collisions_in(&a, iv(0, 9)), 4);
    }

    #[test]
    fn cross_collisions_estimates_inner_product() {
        // E[cross/(mA·mB)] = Σ p_i q_i; check with p = q = uniform(32):
        // inner product = 1/32.
        let d = DenseDistribution::uniform(32).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let mut acc = 0.0;
        let reps = 200;
        for _ in 0..reps {
            let a = SampleSet::draw(&d, 200, &mut rng);
            let b = SampleSet::draw(&d, 200, &mut rng);
            acc += a.cross_collisions_in(&b, iv(0, 31)) as f64 / (200.0 * 200.0);
        }
        let mean = acc / reps as f64;
        assert!((mean - 1.0 / 32.0).abs() < 0.003, "mean = {mean}");
    }

    #[test]
    fn merge_concatenates_multisets() {
        let a = SampleSet::from_samples(vec![1, 1, 2]);
        let b = SampleSet::from_samples(vec![2, 3]);
        let m = SampleSet::merge(&[a, b]);
        assert_eq!(m.total(), 5);
        assert_eq!(m.occurrences(1), 2);
        assert_eq!(m.occurrences(2), 2);
        assert_eq!(m.occurrences(3), 1);
        // collisions: C(2,2) + C(2,2) = 2
        assert_eq!(m.collisions_total(), 2);
    }

    proptest! {
        #[test]
        fn prop_counts_match_naive(raw in proptest::collection::vec(0usize..40, 0..200),
                                   lo in 0usize..40, len in 1usize..40) {
            let s = SampleSet::from_samples(raw.clone());
            let hi = (lo + len - 1).min(39);
            let i = iv(lo, hi);
            prop_assert_eq!(s.count_in(i), naive_count(&raw, i));
            prop_assert_eq!(s.collisions_in(i), naive_collisions(&raw, i));
        }

        #[test]
        fn prop_prefix_invariants(raw in proptest::collection::vec(0usize..60, 0..300)) {
            let s = SampleSet::from_samples(raw.clone());
            prop_assert_eq!(s.total(), raw.len() as u64);
            // Sum of per-point counts over the full domain equals m.
            if !raw.is_empty() {
                let full = iv(0, 59);
                prop_assert_eq!(s.count_in(full), raw.len() as u64);
                prop_assert_eq!(s.collisions_in(full), s.collisions_total());
            }
            // Distinct values are sorted and unique.
            let vals = s.unique_values();
            prop_assert!(vals.windows(2).all(|w| w[0] < w[1]));
        }

        #[test]
        fn prop_count_additive_over_split(raw in proptest::collection::vec(0usize..50, 1..200),
                                          at in 1usize..50) {
            let s = SampleSet::from_samples(raw);
            let left = iv(0, at - 1);
            let right = iv(at, 49);
            let full = iv(0, 49);
            prop_assert_eq!(s.count_in(left) + s.count_in(right), s.count_in(full));
            // collisions are also additive across a split (collisions are
            // within identical values, which never straddle a split)
            prop_assert_eq!(
                s.collisions_in(left) + s.collisions_in(right),
                s.collisions_in(full)
            );
        }

        #[test]
        fn prop_cross_collisions_match_naive(
            a in proptest::collection::vec(0usize..25, 0..120),
            b in proptest::collection::vec(0usize..25, 0..120),
            lo in 0usize..25, len in 1usize..25,
        ) {
            let sa = SampleSet::from_samples(a.clone());
            let sb = SampleSet::from_samples(b.clone());
            let i = iv(lo, (lo + len - 1).min(24));
            prop_assert_eq!(sa.cross_collisions_in(&sb, i), naive_cross(&a, &b, i));
            prop_assert_eq!(sa.cross_collisions_in(&sb, i), sb.cross_collisions_in(&sa, i));
        }

        /// `SampleSet` → runs → `SampleSet` is the identity, and the runs
        /// are the naive per-value counts: values at either end of the
        /// four-byte domain, a few of them with counts above 2¹⁶.
        #[test]
        fn prop_runs_round_trip(
            values in proptest::collection::vec(0usize..1_000, 0..200),
            heavy in proptest::collection::vec((0usize..1_000, 65_000u64..70_000), 0..3),
            top in 0usize..2,
        ) {
            let base = if top == 1 { u32::MAX as usize - 999 } else { 0 };
            let mut samples: Vec<usize> = values.iter().map(|&v| base + v).collect();
            for &(v, count) in &heavy {
                samples.extend(std::iter::repeat_n(base + v, count as usize));
            }
            let mut naive = std::collections::BTreeMap::new();
            for &v in &samples {
                *naive.entry(v).or_insert(0u64) += 1;
            }
            let set = SampleSet::from_samples(samples);
            let runs: Vec<(usize, u64)> = set.runs().collect();
            prop_assert_eq!(&runs, &naive.into_iter().collect::<Vec<_>>());
            prop_assert_eq!(SampleSet::from_runs(runs), set);
        }

        #[test]
        fn prop_merge_counts_add(a in proptest::collection::vec(0usize..30, 0..80),
                                 b in proptest::collection::vec(0usize..30, 0..80)) {
            let sa = SampleSet::from_samples(a.clone());
            let sb = SampleSet::from_samples(b.clone());
            let merged = SampleSet::merge(&[sa, sb]);
            let mut concat = a;
            concat.extend(b);
            let direct = SampleSet::from_samples(concat);
            prop_assert_eq!(merged, direct);
        }
    }
}
