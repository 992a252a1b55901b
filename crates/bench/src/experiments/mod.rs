//! One module per experiment (see the crate docs and DESIGN.md §5 for the
//! index). Every experiment exposes `run(quick: bool) -> Vec<Table>`;
//! `quick` shrinks grids and trial counts for smoke runs.

pub mod e1;
pub mod e10;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;

use khist_core::greedy::{learn, GreedyOutcome, GreedyParams};
use khist_dist::{generators, DenseDistribution, DistError};
use khist_oracle::DenseOracle;

/// Samples-and-learns from an explicit pmf through a freshly seeded
/// [`DenseOracle`] (one `rng.random()` seed per run).
pub(crate) fn learn_sampled<R: rand::Rng + ?Sized>(
    p: &DenseDistribution,
    params: &GreedyParams,
    rng: &mut R,
) -> Result<GreedyOutcome, DistError> {
    let mut oracle = DenseOracle::new(p, rng.random());
    learn(&mut oracle, params)
}

/// The shared workload family used by the learning experiments: the
/// attribute shapes the database-histogram literature models (skewed,
/// bell-shaped, multimodal) plus an exact in-class instance.
pub(crate) fn workloads(n: usize) -> Vec<(&'static str, DenseDistribution)> {
    vec![
        ("zipf(1.2)", generators::zipf(n, 1.2).expect("valid zipf")),
        (
            "gaussian",
            generators::discrete_gaussian(n, n as f64 / 2.0, n as f64 / 12.0)
                .expect("valid gaussian"),
        ),
        (
            "bimodal",
            generators::mixture(&[
                (
                    0.5,
                    generators::discrete_gaussian(n, n as f64 * 0.25, n as f64 / 20.0)
                        .expect("valid component"),
                ),
                (
                    0.5,
                    generators::discrete_gaussian(n, n as f64 * 0.75, n as f64 / 20.0)
                        .expect("valid component"),
                ),
            ])
            .expect("valid mixture"),
        ),
        (
            "staircase",
            generators::staircase(n, 8).expect("valid staircase"),
        ),
    ]
}

/// Dispatches an experiment by name ("e1" … "e9").
pub fn run_by_name(name: &str, quick: bool) -> Option<Vec<crate::Table>> {
    match name {
        "e1" => Some(e1::run(quick)),
        "e2" => Some(e2::run(quick)),
        "e3" => Some(e3::run(quick)),
        "e4" => Some(e4::run(quick)),
        "e5" => Some(e5::run(quick)),
        "e6" => Some(e6::run(quick)),
        "e7" => Some(e7::run(quick)),
        "e8" => Some(e8::run(quick)),
        "e9" => Some(e9::run(quick)),
        "e10" => Some(e10::run(quick)),
        _ => None,
    }
}

/// All experiment names in order.
pub const ALL: [&str; 10] = ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_family_is_well_formed() {
        for (name, p) in workloads(64) {
            assert_eq!(p.n(), 64, "{name}");
            let total: f64 = p.pmf().iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "{name}");
        }
    }

    #[test]
    fn dispatch_rejects_unknown() {
        assert!(run_by_name("e42", true).is_none());
    }
}
