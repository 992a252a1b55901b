//! Incremental tiling maintenance for the greedy learner.
//!
//! Step 8 of Algorithm 1 forms `H_{J,y_J}` by inserting `(J, y_J, r_max+1)`
//! and *re-trimming* the neighbouring intervals so they no longer intersect
//! `J`. Operationally the priority histogram therefore always induces a
//! **tiling** of `[n]`: inserting `J` deletes every piece it fully covers
//! and trims the two straddling pieces. [`TilingState`] keeps that tiling
//! as a `Vec` of pieces sorted by start (at most `2q + 1` of them after `q`
//! insertions), each with its cached cost, plus the running total
//! `Σ_I (z_I − y_I²/|I|)`, so that
//!
//! * scoring a candidate `J` in the greedy's hot loop makes no cost-oracle
//!   call: the cost it removes is [`TilingState::overlap_cost`], one binary
//!   search for the piece holding `J`'s start and a walk summing cached
//!   costs up to the piece holding its end, and the greedy costs what it
//!   adds (`J` and the trims of the pieces holding its ends, found with
//!   [`TilingState::piece_containing`]) once per window or iteration, not
//!   per candidate;
//! * committing an insertion makes one oracle call per new piece (`≤ 3`)
//!   plus one splice of the piece list.

use khist_dist::{DistError, Interval};

use crate::cost::CostOracle;

/// A tiling of `[0, n−1]` with cached per-piece costs.
#[derive(Debug, Clone)]
pub struct TilingState {
    n: usize,
    /// `(start, end inclusive, cached cost)` per piece, in tiling order: the
    /// first piece starts at 0 and each next one where the last ended.
    pieces: Vec<(usize, usize, f64)>,
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
        Ok(TilingState {
            n,
            pieces: vec![(0, n - 1, cost)],
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
            .map(|&(lo, hi, _)| Interval::new(lo, hi).expect("valid piece"))
    }

    /// Position in tiling order of the piece holding index `i` (`i < n`):
    /// the last piece starting at or before `i`.
    fn piece_index(&self, i: usize) -> usize {
        debug_assert!(i < self.n);
        // The first piece starts at 0, so at least one piece starts at or
        // before `i` and the partition point is at least 1.
        self.pieces.partition_point(|&(lo, _, _)| lo <= i) - 1
    }

    /// The piece holding index `i` (`i < n`).
    pub fn piece_containing(&self, i: usize) -> Interval {
        self.pieces
            .get(self.piece_index(i))
            .and_then(|&(lo, hi, _)| Interval::new(lo, hi).ok())
            // lint:allow(no-panic): piece_index is in bounds because the tiling always has a piece starting at 0, and lo <= hi holds for every stored piece
            .expect("tiling always covers index 0")
    }

    /// The cached costs of the pieces `j` overlaps, summed in tiling order
    /// (from the piece holding `j.lo()` through the one holding `j.hi()`):
    /// what inserting `j` removes from [`TilingState::total_cost`]. The
    /// greedy's score for `j` is `total_cost − overlap_cost(j) + added`,
    /// `added` being the cost of `j` plus, when non-empty, the left trim
    /// and then the right trim.
    pub fn overlap_cost(&self, j: Interval) -> f64 {
        debug_assert!(j.hi() < self.n);
        self.pieces
            .iter()
            .skip(self.piece_index(j.lo()))
            .take_while(|&&(lo, _, _)| lo <= j.hi())
            .map(|&(_, _, cost)| cost)
            .sum()
    }

    /// Inserts `j` at top priority: deletes covered pieces, trims straddling
    /// ones, and returns the newly created pieces (left trim, `j`, right
    /// trim — in order) so the caller can record them in the priority
    /// histogram with their values.
    pub fn insert(&mut self, j: Interval, oracle: &impl CostOracle) -> Vec<Interval> {
        debug_assert!(j.hi() < self.n);
        let overlapped = self.piece_index(j.lo())..=self.piece_index(j.hi());
        let removed = self.pieces.get(overlapped.clone()).unwrap_or_default();
        let first_lo = removed.first().map_or(j.lo(), |&(lo, _, _)| lo);
        let last_hi = removed.last().map_or(j.hi(), |&(_, hi, _)| hi);
        // Removed costs leave in tiling order, then created ones join in
        // order: that order fixes `total_cost`'s bits.
        self.total_cost = removed.iter().fold(self.total_cost, |t, &(_, _, c)| t - c);
        let mut created = Vec::with_capacity(3);
        if first_lo < j.lo() {
            // lint:allow(no-panic): first_lo < j.lo() guards the trim bounds
            created.push(Interval::new(first_lo, j.lo() - 1).expect("left trim"));
        }
        created.push(j);
        if last_hi > j.hi() {
            // lint:allow(no-panic): last_hi > j.hi() guards the trim bounds
            created.push(Interval::new(j.hi() + 1, last_hi).expect("right trim"));
        }
        let total_cost = &mut self.total_cost;
        self.pieces.splice(
            overlapped,
            created.iter().map(|&iv| {
                let cost = oracle.piece_cost(iv);
                *total_cost += cost;
                (iv.lo(), iv.hi(), cost)
            }),
        );
        created
    }

    /// Interior cut positions of the current tiling (piece starts except 0).
    pub fn interior_cuts(&self) -> Vec<usize> {
        self.pieces.iter().skip(1).map(|&(lo, _, _)| lo).collect()
    }

    /// Validates the tiling invariant (contiguous cover of `[0, n−1]`);
    /// test/debug helper.
    pub fn check_invariants(&self) -> bool {
        // Each piece starts where the last one ended; the last ends at n − 1.
        let end = self.pieces.iter().try_fold(0, |start, &(lo, hi, _)| {
            (lo == start && lo <= hi).then_some(hi + 1)
        });
        end == Some(self.n)
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

    /// The greedy's score for inserting `j`, from the state's primitives:
    /// the total, less the overlapped pieces, plus `j`, the left trim and
    /// the right trim.
    fn preview(st: &TilingState, j: Interval, o: &impl CostOracle) -> f64 {
        let first = st.piece_containing(j.lo());
        let last = st.piece_containing(j.hi());
        let mut added = o.piece_cost(j);
        if first.lo() < j.lo() {
            added += o.piece_cost(iv(first.lo(), j.lo() - 1));
        }
        if last.hi() > j.hi() {
            added += o.piece_cost(iv(j.hi() + 1, last.hi()));
        }
        st.total_cost() - st.overlap_cost(j) + added
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
            let preview = preview(&st, j, &o);
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

    /// The tiling as a plain list of `(piece, cost)`, updated the direct
    /// way: drop the pieces `j` overlaps, subtracting their costs in tiling
    /// order, then add the left trim, `j` and the right trim, in order.
    struct PlainTiling {
        pieces: Vec<(Interval, f64)>,
        total: f64,
    }

    impl PlainTiling {
        fn new(n: usize, o: &impl CostOracle) -> Self {
            let cost = o.piece_cost(iv(0, n - 1));
            PlainTiling {
                pieces: vec![(iv(0, n - 1), cost)],
                total: cost,
            }
        }

        fn overlapped(&self, j: Interval) -> std::ops::RangeInclusive<usize> {
            let first = self.pieces.iter().position(|(p, _)| p.hi() >= j.lo());
            let last = self.pieces.iter().rposition(|(p, _)| p.lo() <= j.hi());
            first.unwrap()..=last.unwrap()
        }

        /// The overlapped pieces' costs as a left fold from the first one.
        fn overlap_cost(&self, j: Interval) -> f64 {
            self.pieces[self.overlapped(j)]
                .iter()
                .map(|&(_, cost)| cost)
                .reduce(|sum, cost| sum + cost)
                .unwrap()
        }

        fn insert(&mut self, j: Interval, o: &impl CostOracle) -> Vec<Interval> {
            let overlapped = self.overlapped(j);
            let at = *overlapped.start();
            let first_lo = self.pieces[at].0.lo();
            let last_hi = self.pieces[*overlapped.end()].0.hi();
            for (_, cost) in self.pieces.drain(overlapped) {
                self.total -= cost;
            }
            let mut created = Vec::new();
            if first_lo < j.lo() {
                created.push(iv(first_lo, j.lo() - 1));
            }
            created.push(j);
            if last_hi > j.hi() {
                created.push(iv(j.hi() + 1, last_hi));
            }
            for (offset, &piece) in created.iter().enumerate() {
                let cost = o.piece_cost(piece);
                self.total += cost;
                self.pieces.insert(at + offset, (piece, cost));
            }
            created
        }
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
                let preview = preview(&st, j, &o);
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

        /// Every step's arithmetic, bit for bit: the total after each
        /// insert, the pieces, the created pieces and the overlap cost of
        /// random intervals equal the plain list's.
        #[test]
        fn prop_state_matches_a_plain_list_bit_for_bit(
            ops in proptest::collection::vec((0usize..48, 0usize..48), 1..40),
            probes in proptest::collection::vec((0usize..48, 0usize..48), 8),
            ws in proptest::collection::vec(0.01f64..1.0, 48),
        ) {
            let n = 48;
            let p = DenseDistribution::from_weights(&ws).unwrap();
            let o = ExactCostOracle::new(&p);
            let mut st = TilingState::full_domain(n, &o).unwrap();
            let mut plain = PlainTiling::new(n, &o);
            for &(a, b) in &ops {
                let j = iv(a.min(b), a.max(b));
                prop_assert_eq!(st.insert(j, &o), plain.insert(j, &o));
                prop_assert_eq!(st.total_cost().to_bits(), plain.total.to_bits());
                let pieces: Vec<Interval> = plain.pieces.iter().map(|&(piece, _)| piece).collect();
                prop_assert_eq!(st.pieces().collect::<Vec<_>>(), pieces);
                for &(c, d) in &probes {
                    let probe = iv(c.min(d), c.max(d));
                    prop_assert_eq!(
                        st.overlap_cost(probe).to_bits(),
                        plain.overlap_cost(probe).to_bits()
                    );
                }
            }
        }
    }
}
