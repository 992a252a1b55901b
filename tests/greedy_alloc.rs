//! Proof that the greedy learner's allocations do not scale with its
//! candidate count.
//!
//! At the default window budget (`n = 256`, `ℓ = 3094`, `r = 3`,
//! `m = 302`, `q = 19`, 128 capped endpoints) the learner scores 8,256
//! candidates in each of 19 iterations. Scoring must not allocate: the
//! candidates' own costs are tabulated once per call and each endpoint's
//! trims once per iteration, into buffers allocated once per call. What
//! remains is a fixed set of per-call tables plus a few allocations per
//! committed insertion (the new pieces, a priority level, the tiling's
//! piece list growing), so one `learn_from_samples` call stays within
//! `4·q + 64` allocations.
//!
//! The counter is process-global, so this file holds exactly one `#[test]`
//! (see `tests/engine_zero_alloc.rs`).

use alloc_counter::CountingAllocator;
use khist::dist::generators;
use khist::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[test]
fn learner_allocations_do_not_grow_with_candidates() {
    let n = 256;
    let budget = LearnerBudget {
        xi: 0.01,
        ell: 3094,
        r: 3,
        m: 302,
        q: 19,
    };
    let params = GreedyParams::fast(8, 0.1, budget);
    let p = generators::zipf(n, 1.1).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let main = SampleSet::draw(&p, budget.ell, &mut rng);
    let sets = SampleSet::draw_many(&p, budget.m, budget.r, &mut rng);

    let before = ALLOC.allocations();
    let out = learn_from_samples(n, &main, &sets, &params).unwrap();
    let delta = ALLOC.allocations() - before;

    assert_eq!(out.stats.iterations, budget.q);
    assert_eq!(out.stats.candidates_evaluated, budget.q * 128 * 129 / 2);
    let bound = (4 * budget.q + 64) as u64;
    assert!(
        delta <= bound,
        "one learn_from_samples call made {delta} allocations for {} candidates; \
         the bound is {bound}",
        out.stats.candidates_evaluated
    );
}
