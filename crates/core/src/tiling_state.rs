//! Incremental tiling maintenance for the greedy learner.
//!
//! Step 8 of Algorithm 1 forms `H_{J,y_J}` by inserting `(J, y_J, r_max+1)`
//! and *re-trimming* the neighbouring intervals so they no longer intersect
//! `J`. Operationally the priority histogram therefore always induces a
//! **tiling** of `[n]`: inserting `J` deletes every piece it fully covers
//! and trims the two straddling pieces. [`TilingState`] maintains that
//! tiling in a `BTreeMap` keyed by piece start, together with the running
//! cost `Σ_I (z_I − y_I²/|I|)`, so that
//!
//! * previewing a candidate insertion costs `O(overlap + log k)` cost-oracle
//!   calls (the greedy's hot loop), and
//! * committing an insertion is the same plus map surgery.

use khist_dist::{DistError, Interval};

use crate::cost::CostOracle;

/// A tiling of `[0, n−1]` with cached per-piece costs.
#[derive(Debug, Clone)]
pub struct TilingState {
    n: usize,
    /// piece start → (piece end inclusive, cached piece cost)
    pieces: std::collections::BTreeMap<usize, (usize, f64)>,
    total_cost: f64,
}

impl TilingState {
    /// The initial state: a single piece covering the whole domain.
    ///
    /// Algorithm 1 starts from the empty priority histogram; its first
    /// insertion produces `{I_L, J, I_R}`, which is exactly what inserting
    /// `J` into the full-domain single piece yields, so the two formulations
    /// coincide from the first iteration onward.
    pub fn full_domain(n: usize, oracle: &impl CostOracle) -> Result<Self, DistError> {
        let full = Interval::full(n)?;
        let cost = oracle.piece_cost(full);
        let mut pieces = std::collections::BTreeMap::new();
        pieces.insert(0, (n - 1, cost));
        Ok(TilingState {
            n,
            pieces,
            total_cost: cost,
        })
    }

    /// Domain size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of pieces in the current tiling.
    pub fn piece_count(&self) -> usize {
        self.pieces.len()
    }

    /// Current total estimated cost `Σ_I (z_I − y_I²/|I|)`.
    pub fn total_cost(&self) -> f64 {
        self.total_cost
    }

    /// Iterates over the pieces in order.
    pub fn pieces(&self) -> impl Iterator<Item = Interval> + '_ {
        self.pieces
            .iter()
            // lint:allow(no-panic): lo <= hi holds for every stored piece
            .map(|(&lo, &(hi, _))| Interval::new(lo, hi).expect("valid piece"))
    }

    /// Start of the piece containing `i`: the last piece starting ≤ `i`.
    /// The pieces overlapping an interval `j` are then the map range
    /// `piece_start(j.lo())..=j.hi()`, in tiling order.
    fn piece_start(&self, i: usize) -> usize {
        *self
            .pieces
            .range(..=i)
            .next_back()
            // lint:allow(no-panic): the tiling always has a piece starting at index 0
            .expect("tiling always covers index 0")
            .0
    }

    /// The total cost the state would have after inserting `j`, without
    /// mutating anything. This is the greedy's candidate score `c_J`.
    pub fn preview_insert(&self, j: Interval, oracle: &impl CostOracle) -> f64 {
        debug_assert!(j.hi() < self.n);
        let first_lo = self.piece_start(j.lo());
        let mut last_hi = j.hi();
        let removed: f64 = self
            .pieces
            .range(first_lo..=j.hi())
            .map(|(_, &(hi, cost))| {
                last_hi = hi;
                cost
            })
            .sum();
        let mut added = oracle.piece_cost(j);
        if first_lo < j.lo() {
            // lint:allow(no-panic): first_lo < j.lo() guards the trim bounds
            added += oracle.piece_cost(Interval::new(first_lo, j.lo() - 1).expect("left trim"));
        }
        if last_hi > j.hi() {
            // lint:allow(no-panic): last_hi > j.hi() guards the trim bounds
            added += oracle.piece_cost(Interval::new(j.hi() + 1, last_hi).expect("right trim"));
        }
        self.total_cost - removed + added
    }

    /// Inserts `j` at top priority: deletes covered pieces, trims straddling
    /// ones, and returns the newly created pieces (left trim, `j`, right
    /// trim — in order) so the caller can record them in the priority
    /// histogram with their values.
    pub fn insert(&mut self, j: Interval, oracle: &impl CostOracle) -> Vec<Interval> {
        debug_assert!(j.hi() < self.n);
        let first_lo = self.piece_start(j.lo());
        let mut last_hi = j.hi();
        while let Some((&lo, &(hi, cost))) = self.pieces.range(first_lo..=j.hi()).next() {
            self.pieces.remove(&lo);
            self.total_cost -= cost;
            last_hi = hi;
        }
        let mut created = Vec::with_capacity(3);
        if first_lo < j.lo() {
            // lint:allow(no-panic): first_lo < j.lo() guards the trim bounds
            let trim = Interval::new(first_lo, j.lo() - 1).expect("left trim");
            created.push(trim);
        }
        created.push(j);
        if last_hi > j.hi() {
            // lint:allow(no-panic): last_hi > j.hi() guards the trim bounds
            let trim = Interval::new(j.hi() + 1, last_hi).expect("right trim");
            created.push(trim);
        }
        for &iv in &created {
            let cost = oracle.piece_cost(iv);
            self.pieces.insert(iv.lo(), (iv.hi(), cost));
            self.total_cost += cost;
        }
        created
    }

    /// Interior cut positions of the current tiling (piece starts except 0).
    pub fn interior_cuts(&self) -> Vec<usize> {
        self.pieces.keys().copied().filter(|&s| s != 0).collect()
    }

    /// Validates the tiling invariant (contiguous cover of `[0, n−1]`);
    /// test/debug helper.
    pub fn check_invariants(&self) -> bool {
        let mut expected = 0usize;
        for (&lo, &(hi, _)) in &self.pieces {
            if lo != expected || hi < lo {
                return false;
            }
            expected = hi + 1;
        }
        expected == self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ExactCostOracle;
    use khist_dist::{generators, DenseDistribution};
    use proptest::prelude::*;

    fn iv(lo: usize, hi: usize) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    #[test]
    fn full_domain_initial_state() {
        let p = generators::zipf(16, 1.0).unwrap();
        let o = ExactCostOracle::new(&p);
        let st = TilingState::full_domain(16, &o).unwrap();
        assert_eq!(st.piece_count(), 1);
        assert!((st.total_cost() - p.flatten_sse(iv(0, 15))).abs() < 1e-15);
        assert!(st.check_invariants());
    }

    #[test]
    fn insert_middle_splits_into_three() {
        let p = generators::zipf(16, 1.0).unwrap();
        let o = ExactCostOracle::new(&p);
        let mut st = TilingState::full_domain(16, &o).unwrap();
        let created = st.insert(iv(5, 9), &o);
        assert_eq!(created, vec![iv(0, 4), iv(5, 9), iv(10, 15)]);
        assert_eq!(st.piece_count(), 3);
        assert!(st.check_invariants());
        let expect = p.flatten_sse(iv(0, 4)) + p.flatten_sse(iv(5, 9)) + p.flatten_sse(iv(10, 15));
        assert!((st.total_cost() - expect).abs() < 1e-14);
    }

    #[test]
    fn insert_prefix_and_suffix() {
        let p = DenseDistribution::uniform(10).unwrap();
        let o = ExactCostOracle::new(&p);
        let mut st = TilingState::full_domain(10, &o).unwrap();
        let created = st.insert(iv(0, 3), &o);
        assert_eq!(created, vec![iv(0, 3), iv(4, 9)]);
        let created = st.insert(iv(7, 9), &o);
        assert_eq!(created, vec![iv(4, 6), iv(7, 9)]);
        assert_eq!(st.interior_cuts(), vec![4, 7]);
        assert!(st.check_invariants());
    }

    #[test]
    fn insert_covering_everything_resets() {
        let p = generators::zipf(12, 0.7).unwrap();
        let o = ExactCostOracle::new(&p);
        let mut st = TilingState::full_domain(12, &o).unwrap();
        st.insert(iv(3, 5), &o);
        st.insert(iv(7, 9), &o);
        assert!(st.piece_count() > 1);
        let created = st.insert(iv(0, 11), &o);
        assert_eq!(created, vec![iv(0, 11)]);
        assert_eq!(st.piece_count(), 1);
        assert!(st.check_invariants());
    }

    #[test]
    fn insert_absorbing_interior_breakpoints() {
        // Inserting an interval covering existing cuts removes them.
        let p = DenseDistribution::uniform(20).unwrap();
        let o = ExactCostOracle::new(&p);
        let mut st = TilingState::full_domain(20, &o).unwrap();
        st.insert(iv(4, 7), &o); // pieces [0,3][4,7][8,19]
        st.insert(iv(12, 13), &o); // [0,3][4,7][8,11][12,13][14,19]
        assert_eq!(st.piece_count(), 5);
        let created = st.insert(iv(5, 15), &o);
        // left trim [4,4], J, right trim [16,19]
        assert_eq!(created, vec![iv(4, 4), iv(5, 15), iv(16, 19)]);
        assert_eq!(st.piece_count(), 4); // [0,3][4,4][5,15][16,19]
        assert!(st.check_invariants());
    }

    #[test]
    fn preview_matches_commit() {
        let p = generators::discrete_gaussian(24, 10.0, 4.0).unwrap();
        let o = ExactCostOracle::new(&p);
        let mut st = TilingState::full_domain(24, &o).unwrap();
        st.insert(iv(6, 11), &o);
        st.insert(iv(18, 20), &o);
        for (lo, hi) in [
            (0usize, 23usize),
            (3, 8),
            (11, 18),
            (22, 23),
            (0, 0),
            (6, 11),
        ] {
            let j = iv(lo, hi);
            let preview = st.preview_insert(j, &o);
            let mut copy = st.clone();
            copy.insert(j, &o);
            assert!(
                (preview - copy.total_cost()).abs() < 1e-12,
                "preview {preview} vs committed {} for {j}",
                copy.total_cost()
            );
            assert!(copy.check_invariants());
        }
    }

    #[test]
    fn exact_cost_equals_projection_sse() {
        // With the exact oracle, total_cost equals the SSE of projecting p
        // onto the state's partition.
        let p = generators::zipf(32, 1.3).unwrap();
        let o = ExactCostOracle::new(&p);
        let mut st = TilingState::full_domain(32, &o).unwrap();
        st.insert(iv(0, 3), &o);
        st.insert(iv(10, 17), &o);
        st.insert(iv(24, 31), &o);
        let cuts = st.interior_cuts();
        let h = khist_dist::TilingHistogram::project(&p, &cuts).unwrap();
        assert!((st.total_cost() - h.l2_sq_to(&p)).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_random_insertions_keep_invariants(
            ops in proptest::collection::vec((0usize..40, 0usize..40), 1..25),
        ) {
            let n = 40;
            let p = DenseDistribution::uniform(n).unwrap();
            let o = ExactCostOracle::new(&p);
            let mut st = TilingState::full_domain(n, &o).unwrap();
            for &(a, b) in &ops {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                let j = iv(lo, hi);
                let preview = st.preview_insert(j, &o);
                let created = st.insert(j, &o);
                prop_assert!(st.check_invariants());
                prop_assert!((preview - st.total_cost()).abs() < 1e-9);
                prop_assert!(created.contains(&j));
                prop_assert!(created.len() <= 3);
            }
            // piece count grows by at most 2 per insertion
            prop_assert!(st.piece_count() <= 1 + 2 * ops.len());
        }

        #[test]
        fn prop_cost_tracks_projection(
            ops in proptest::collection::vec((0usize..30, 0usize..30), 1..12),
            ws in proptest::collection::vec(0.01f64..1.0, 30),
        ) {
            let p = DenseDistribution::from_weights(&ws).unwrap();
            let o = ExactCostOracle::new(&p);
            let mut st = TilingState::full_domain(30, &o).unwrap();
            for &(a, b) in &ops {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                st.insert(iv(lo, hi), &o);
            }
            let h = khist_dist::TilingHistogram::project(&p, &st.interior_cuts()).unwrap();
            prop_assert!((st.total_cost() - h.l2_sq_to(&p)).abs() < 1e-9,
                         "state {} vs projection {}", st.total_cost(), h.l2_sq_to(&p));
        }
    }
}
