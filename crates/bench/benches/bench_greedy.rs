//! Criterion bench: greedy learner runtime (Theorem 1 vs Theorem 2).
//!
//! Benchmarks the full learn-from-samples path (sampling excluded — samples
//! are drawn once per size outside the timed region) for the exhaustive and
//! the sample-endpoint candidate policies across domain sizes. The paper's
//! claim: exhaustive grows ~n², fast stays budget-bound. One more input is
//! the window keyed `khist watch` learns by default, timed with no process
//! or I/O around it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use khist_core::greedy::{learn_from_samples, CandidatePolicy, GreedyParams};
use khist_dist::{generators, DenseDistribution};
use khist_oracle::{LearnerBudget, SampleSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_greedy(c: &mut Criterion) {
    let mut group = c.benchmark_group("greedy_learner");
    group.sample_size(10);
    let k = 4;
    let eps = 0.1;
    for &n in &[128usize, 256, 512] {
        let p = generators::zipf(n, 1.2).expect("valid zipf");
        let budget = LearnerBudget::calibrated(n, k, eps, 0.02).expect("budget");
        let mut rng = StdRng::seed_from_u64(n as u64);
        let main = SampleSet::draw(&p, budget.ell, &mut rng);
        let sets = SampleSet::draw_many(&p, budget.m, budget.r, &mut rng);

        group.bench_with_input(BenchmarkId::new("exhaustive", n), &n, |b, _| {
            let params = GreedyParams {
                k,
                eps,
                budget,
                policy: CandidatePolicy::All,
                max_endpoints: 0,
            };
            b.iter(|| learn_from_samples(n, &main, &sets, &params).expect("learner runs"));
        });
        group.bench_with_input(BenchmarkId::new("sample_endpoints", n), &n, |b, _| {
            let params = GreedyParams {
                k,
                eps,
                budget,
                policy: CandidatePolicy::SampleEndpoints,
                max_endpoints: 128,
            };
            b.iter(|| learn_from_samples(n, &main, &sets, &params).expect("learner runs"));
        });
    }
    // Keyed `watch --n 256 --every 1000` with the default batch and
    // `--k 8 --eps 0.1`: the CLI clamps the learner to the 1,000-record
    // window, ℓ = 772 plus r = 3 sets of m = 76, q = 19 (ξ is not read by
    // the learner). Uniform values give Theorem 2's full 128 endpoints:
    // 156,864 candidates per window.
    let n = 256;
    let p = DenseDistribution::uniform(n).expect("valid uniform");
    let budget = LearnerBudget {
        xi: 0.01,
        ell: 772,
        r: 3,
        m: 76,
        q: 19,
    };
    let mut rng = StdRng::seed_from_u64(1000);
    let main = SampleSet::draw(&p, budget.ell, &mut rng);
    let sets = SampleSet::draw_many(&p, budget.m, budget.r, &mut rng);
    let params = GreedyParams::fast(8, 0.1, budget);
    group.bench_with_input(BenchmarkId::new("watch_default_window", n), &n, |b, _| {
        b.iter(|| learn_from_samples(n, &main, &sets, &params).expect("learner runs"));
    });
    group.finish();
}

criterion_group!(benches, bench_greedy);
criterion_main!(benches);
