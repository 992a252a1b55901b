//! A fixed-size top-K of drifting streams under a strict total order.
//!
//! Entries are keyed by the stream's *debut index* (its id in the engine's
//! key table — debut order is the workspace's canonical stream order)
//! and ranked by drift score, highest first, with earlier debut winning
//! ties. Per stream the structure keeps the best observation seen so far,
//! so the state is a pure function of the per-stream maxima: an entry can
//! only be displaced by ≥ `TOP_K` streams whose final entries outrank it,
//! which is exactly what makes fold-order (and therefore shard count and
//! merge grouping) invisible in the result.

use std::cmp::Ordering;

/// How many drifting streams the rollup ranks.
pub const TOP_K: usize = 8;

/// One stream's best drift observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftEntry {
    /// The stream's global debut index (its engine key-table id).
    pub debut: u32,
    /// The drift severity score (finite by construction).
    pub score: f64,
    /// The window id that produced the score.
    pub window: u64,
}

impl DriftEntry {
    /// Ranking order: higher score first, then earlier debut. Strict for
    /// distinct streams (debut indices are unique), which is what keeps
    /// eviction deterministic.
    fn rank(&self, other: &DriftEntry) -> Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then(self.debut.cmp(&other.debut))
    }

    /// Per-stream "best observation" order: higher score wins; on an
    /// exactly tied score the *earliest* window wins (first to reach the
    /// severity), so replays and merges agree on which window is cited.
    fn improves(&self, current: &DriftEntry) -> bool {
        match self.score.total_cmp(&current.score) {
            Ordering::Greater => true,
            Ordering::Equal => self.window < current.window,
            Ordering::Less => false,
        }
    }
}

/// Fixed-capacity top-[`TOP_K`] drifting streams, kept sorted by rank
/// (score descending, debut ascending). `Default` is allocation-free.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TopDrift {
    entries: [Option<DriftEntry>; TOP_K],
    len: usize,
}

impl TopDrift {
    /// Creates an empty ranking.
    pub fn new() -> Self {
        Self::default()
    }

    /// The ranked entries, best first.
    pub fn entries(&self) -> impl Iterator<Item = &DriftEntry> {
        self.entries.iter().take(self.len).flatten()
    }

    /// Number of ranked streams (≤ [`TOP_K`]).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no stream has drifted yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Offers one observation. Updates the stream's entry if it already
    /// ranks, inserts if there is room, otherwise displaces the worst
    /// entry when the candidate outranks it.
    ///
    /// Runs on the window-completion path; everything is a scan over a
    /// [`TOP_K`]-sized array — allocation-free by construction.
    // lint:hot-path
    pub fn offer(&mut self, candidate: DriftEntry) {
        for i in 0..self.len {
            let Some(existing) = &mut self.entries[i] else {
                continue; // unreachable: slots below len are always occupied
            };
            if existing.debut == candidate.debut {
                if candidate.improves(existing) {
                    *existing = candidate;
                    self.restore_order();
                }
                return;
            }
        }
        if self.len < TOP_K {
            self.entries[self.len] = Some(candidate);
            self.len += 1;
            self.restore_order();
            return;
        }
        let Some(worst) = &self.entries[TOP_K - 1] else {
            return; // unreachable: len == TOP_K fills every slot
        };
        if candidate.rank(worst) == Ordering::Less {
            self.entries[TOP_K - 1] = Some(candidate);
            self.restore_order();
        }
    }

    /// Re-sorts the fixed array after one entry changed (insertion sort:
    /// at most [`TOP_K`] swaps, no allocation).
    fn restore_order(&mut self) {
        let live = &mut self.entries[..self.len];
        live.sort_by(|a, b| match (a, b) {
            (Some(a), Some(b)) => a.rank(b),
            // Unreachable: live slots are always Some.
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => Ordering::Equal,
        });
    }

    /// Merges another ranking in: key-wise best per stream, then the top
    /// [`TOP_K`] of the union — associative and commutative because the
    /// result is the top-K of the per-stream maxima however grouped.
    pub fn merge(&mut self, other: &TopDrift) {
        for entry in other.entries() {
            self.offer(*entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(debut: u32, score: f64, window: u64) -> DriftEntry {
        DriftEntry {
            debut,
            score,
            window,
        }
    }

    #[test]
    fn ranks_by_score_then_debut() {
        let mut top = TopDrift::new();
        top.offer(e(3, 1.0, 0));
        top.offer(e(1, 2.0, 0));
        top.offer(e(2, 2.0, 0));
        let order: Vec<u32> = top.entries().map(|d| d.debut).collect();
        assert_eq!(order, [1, 2, 3], "score desc, debut asc on ties");
    }

    #[test]
    fn keeps_per_stream_maximum() {
        let mut top = TopDrift::new();
        top.offer(e(5, 1.0, 0));
        top.offer(e(5, 3.0, 2));
        top.offer(e(5, 2.0, 4));
        assert_eq!(top.len(), 1);
        let best = top.entries().next().unwrap();
        assert_eq!((best.score, best.window), (3.0, 2));
    }

    #[test]
    fn evicts_only_when_outranked() {
        let mut top = TopDrift::new();
        for i in 0..TOP_K as u32 {
            top.offer(e(i, 10.0 + i as f64, 0));
        }
        top.offer(e(99, 1.0, 0)); // below everything: rejected
        assert!(top.entries().all(|d| d.debut != 99));
        top.offer(e(99, 1000.0, 1)); // above everything: displaces the worst
        assert_eq!(top.entries().next().unwrap().debut, 99);
        assert_eq!(top.len(), TOP_K);
    }

    #[test]
    fn merge_is_top_k_of_per_stream_maxima() {
        let mut a = TopDrift::new();
        let mut b = TopDrift::new();
        for i in 0..6u32 {
            a.offer(e(i, i as f64, 0));
            b.offer(e(i + 3, (i + 3) as f64 * 2.0, 1));
        }
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");
        // Stream 3..=5 appear in both; the doubled score must win.
        for d in ab.entries().filter(|d| (3..6).contains(&d.debut)) {
            assert_eq!(d.score, d.debut as f64 * 2.0);
            assert_eq!(d.window, 1);
        }
    }
}
