//! Sampling oracle, sample multisets and collision estimators.
//!
//! The model of §2 of the paper: algorithms see an unknown `p ∈ D_n` only
//! through i.i.d. samples. This crate provides
//!
//! * [`SampleOracle`] — the *pull*-side sample-access seam every algorithm
//!   is generic over. Its one draw, [`SampleOracle::draw_lanes`], returns
//!   the lanes of a main set plus `r` sets, and three backends implement
//!   it: [`DenseOracle`] (explicit pmf + alias table, lanes drawn in
//!   parallel), [`RecordFileOracle`] (one pass over a line-oriented record
//!   file, split into reservoir lanes) and [`ReplayOracle`] (pre-drawn
//!   buffers for deterministic replay);
//! * [`SampleSink`] — the *push*-side mirror for live streams:
//!   [`WindowedSink`] routes pushed records into plan-shaped reservoir
//!   lanes behind tumbling/sliding [`Window`]s, bit-identical (tumbling
//!   window 0) to replaying the same records through [`RecordFileOracle`];
//!   frozen [`WindowSnapshot`]s feed the algorithms via [`ReplayOracle`];
//! * [`SampleSet`] — a compressed sorted multiset of samples supporting the
//!   two queries every algorithm in the paper performs per interval `I`:
//!   the hit count `|S_I|` and the collision count
//!   `coll(S_I) = Σ_{i∈I} C(occ(i, S_I), 2)`, both in `O(log m)`;
//! * [`collision`] — the two collision-probability estimators: *absolute*
//!   (`coll(S_I)/C(|S|,2)` → `Σ_{i∈I} p_i²`, Lemma 1) and *conditional*
//!   (`coll(S_I)/C(|S_I|,2)` → `‖p_I‖₂²`, Goldreich–Ron Eq. (1)–(2)), plus
//!   median-of-`r` boosting;
//! * [`budget`] — every analysis's sample-size formula: the paper's
//!   (`theoretical`) and scaled-down `calibrated` profiles that keep the
//!   functional form in `n`, `k`, `ε` (checked arithmetic, serde
//!   round-trip), the uniformity and monotonicity budgets, and the one
//!   `ε` check ([`check_eps`]);
//! * [`empirical`] — empirical distributions built from sample sets.

#![forbid(unsafe_code)]
// missing_docs is enforced centrally via [workspace.lints] in the root Cargo.toml.

pub mod budget;
pub mod collision;
pub mod empirical;
pub mod oracle;
pub mod reservoir;
pub mod sample_set;
pub mod sink;

pub use budget::{
    check_eps, monotonicity_budget, L1TesterBudget, L2TesterBudget, LearnerBudget, UniformityBudget,
};
pub use collision::{absolute_collision_estimate, conditional_collision_estimate, MedianBooster};
pub use empirical::empirical_distribution;
pub use oracle::{
    parse_record, stream_seed, DenseOracle, RecordFileOracle, ReplayOracle, SampleOracle,
};
pub use reservoir::Reservoir;
pub use sample_set::{choose2, SampleSet};
pub use sink::{window_seed, SampleSink, SinkShape, Window, WindowSnapshot, WindowedSink};

#[cfg(test)]
pub(crate) mod test_util {
    use std::io::Write;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Writes records to a unique temp file (one per call, per process);
    /// returns its path. Shared by the oracle and sink test modules.
    pub(crate) fn temp_records(records: &[usize], tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "khist-oracle-{tag}-{}-{unique}.txt",
            std::process::id()
        ));
        let mut f = std::fs::File::create(&path).expect("temp file writable");
        writeln!(f, "# generated by khist-oracle tests").unwrap();
        for &r in records {
            writeln!(f, "{r}").unwrap();
        }
        path
    }
}
