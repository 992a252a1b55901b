//! E6 — the introduction's motivation: v-optimal quality vs classical
//! database histograms.
//!
//! **Paper claim (§1).** V-optimal ("least-squares") histograms are the
//! quality target; prior sampling work only handled equi-depth and
//! compressed histograms, which are different (and weaker for `ℓ₂` error).
//!
//! **Reproduction.** For each workload: the exact v-optimal DP (full data),
//! the paper's sampled greedy (raw, and compressed to `k` pieces), the
//! sample-then-DP strawman at the same sample budget, and the classical
//! full-data heuristics. Columns report `ℓ₂²` error, construction time and
//! pieces used — the "who wins, by how much" table.

use std::time::Instant;

use khist_baseline::{equi_depth, equi_width, greedy_merge, max_diff, sample_then_dp, v_optimal};
use khist_core::compress::compress_to_k;
use khist_core::greedy::GreedyParams;
use khist_oracle::LearnerBudget;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::runner::{parallel_map, seed_for};
use crate::table::{fmt, Table};

/// Runs E6 and returns its table.
pub fn run(quick: bool) -> Vec<Table> {
    let n = if quick { 256 } else { 512 };
    let k = 8;
    let eps = 0.1;
    let scale = 0.01;
    let workloads = super::workloads(n);

    let rows: Vec<Vec<Vec<String>>> = parallel_map((0..workloads.len()).collect(), |&wi| {
        let (name, p) = &workloads[wi];
        let budget = LearnerBudget::calibrated(n, k, eps, scale).expect("budget");
        let mut rng = StdRng::seed_from_u64(seed_for(6, &[wi]));
        let mut out: Vec<Vec<String>> = Vec::new();
        let mut push = |method: &str, sse: f64, ms: f64, pieces: usize, samples: usize| {
            out.push(vec![
                name.to_string(),
                method.to_string(),
                fmt::sci(sse),
                fmt::f3(ms),
                pieces.to_string(),
                if samples == 0 {
                    "full data".into()
                } else {
                    fmt::int(samples)
                },
            ]);
        };

        let t0 = Instant::now();
        let vo = v_optimal(p, k).expect("DP succeeds");
        push(
            "v-optimal DP",
            vo.sse,
            t0.elapsed().as_secs_f64() * 1e3,
            vo.histogram.piece_count(),
            0,
        );

        let t0 = Instant::now();
        let g = super::learn_sampled(p, &GreedyParams::fast(k, eps, budget), &mut rng)
            .expect("learner runs");
        let g_ms = t0.elapsed().as_secs_f64() * 1e3;
        push(
            "greedy (paper, raw)",
            g.tiling.l2_sq_to(p),
            g_ms,
            g.tiling.piece_count(),
            budget.total_samples().expect("fits usize"),
        );

        let t0 = Instant::now();
        let ck = compress_to_k(&g.tiling, k).expect("compression succeeds");
        push(
            "greedy + compress-k",
            ck.l2_sq_to(p),
            g_ms + t0.elapsed().as_secs_f64() * 1e3,
            ck.piece_count(),
            budget.total_samples().expect("fits usize"),
        );

        let t0 = Instant::now();
        let sdp = sample_then_dp(p, k, budget.total_samples().expect("fits usize"), &mut rng)
            .expect("baseline runs");
        push(
            "sample+DP (CMN98-style)",
            sdp.sse_vs_truth,
            t0.elapsed().as_secs_f64() * 1e3,
            sdp.histogram.piece_count(),
            budget.total_samples().expect("fits usize"),
        );

        type Builder = fn(
            &khist_dist::DenseDistribution,
            usize,
        ) -> Result<khist_dist::TilingHistogram, khist_dist::DistError>;
        let heuristics: [(&str, Builder); 4] = [
            ("greedy-merge", greedy_merge),
            ("max-diff", max_diff),
            ("equi-depth", equi_depth),
            ("equi-width", equi_width),
        ];
        for (label, build) in heuristics {
            let t0 = Instant::now();
            let h = build(p, k).expect("heuristic runs");
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            push(label, h.l2_sq_to(p), ms, h.piece_count(), 0);
        }
        out
    });

    let mut t = Table::new(
        "E6 histogram construction shoot-out",
        format!(
            "n = {n}, k = {k}; sampled methods see {} samples, others read the full pmf",
            LearnerBudget::calibrated(n, k, eps, scale)
                .expect("budget")
                .total_samples()
                .expect("fits usize")
        ),
        &["workload", "method", "l2sq error", "ms", "pieces", "input"],
    );
    for group in rows {
        for r in group {
            t.push_row(r);
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_voptimal_dominates() {
        let tables = run(true);
        let t = &tables[0];
        // group rows by workload and check v-optimal has the smallest error
        let mut best: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
        let mut vopt: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
        for row in &t.rows {
            let workload = row[0].clone();
            let err: f64 = row[2].parse().unwrap();
            if row[1] == "v-optimal DP" {
                vopt.insert(workload.clone(), err);
            }
            let e = best.entry(workload).or_insert(f64::INFINITY);
            // only full-k methods compete (raw greedy may use more pieces)
            if row[1] != "greedy (paper, raw)" && err < *e {
                *e = err;
            }
        }
        for (w, &v) in &vopt {
            assert!(
                v <= best[w] + 1e-9,
                "{w}: v-optimal {v} beaten by {}",
                best[w]
            );
        }
    }
}
