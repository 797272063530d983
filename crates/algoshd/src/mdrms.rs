//! **MDRMS** — the regret-ratio (RMS) baseline, after Asudeh et al.'s
//! compact-maxima algorithm.
//!
//! Greedily builds a size-`r` set minimizing the maximum *regret-ratio*
//! over a discretized function space: at each step it adds the tuple whose
//! inclusion lowers the current worst ratio the most. This is the wrong
//! objective for rank-regret — the paper's point — so the output's rank
//! behaviour can collapse (Figures 13–21: "MDRMS fails to have a
//! reasonable output rank-regret"), and it is *not shift invariant*.
//!
//! The original MDRMS partitions the function space geometrically; this
//! re-implementation discretizes by sampling, which preserves the
//! objective, the speed profile and both failure modes (see DESIGN.md).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rrm_core::{utility, Dataset, ExecPolicy, Parallelism, UtilitySpace};

use crate::common::batch_top1_scores;

/// Options for [`crate::MdrmsSolver`].
#[derive(Debug, Clone, Copy)]
pub struct MdrmsOptions {
    /// Number of sampled directions discretizing the function space.
    pub samples: usize,
    /// RNG seed.
    pub seed: u64,
    /// Cap on candidate tuples scanned per greedy round (the skyline is
    /// used when smaller; otherwise an even subsample). Keeps the
    /// `O(r · candidates · samples)` cost bounded.
    pub max_candidates: usize,
    /// Data-parallelism for the per-round candidate scan and the top-1
    /// scoring pass. Engine-level contexts override the default; picks
    /// are identical at any thread count.
    pub exec: ExecPolicy,
}

impl Default for MdrmsOptions {
    fn default() -> Self {
        Self { samples: 2_000, seed: 0x3A15, max_candidates: 20_000, exec: ExecPolicy::default() }
    }
}

/// Greedy RMS over a sampled function space, as resumable state: each pick
/// depends only on earlier picks, so one growing prefix answers every size
/// budget — the prepared handle keeps it alive and extends it on demand
/// (the size-`r` answer is always the first `r` picks of the size-`r'`
/// answer for `r' ≥ r`). Answers carry no certificate: the greedy does not
/// even optimize rank.
pub(crate) struct GreedyRms {
    dirs: Vec<Vec<f64>>,
    top1: Vec<f64>,
    candidates: Vec<u32>,
    best_scores: Vec<f64>,
    in_set: Vec<bool>,
    chosen: Vec<u32>,
    /// Set when no candidate remains or the worst ratio reached zero —
    /// further budget cannot add picks.
    done: bool,
    /// Thread policy for the per-round candidate scans.
    pol: Parallelism,
}

impl GreedyRms {
    pub(crate) fn new(data: &Dataset, space: &dyn UtilitySpace, opts: MdrmsOptions) -> Self {
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let dirs: Vec<Vec<f64>> =
            (0..opts.samples).map(|_| space.sample_direction(&mut rng)).collect();
        let top1 = batch_top1_scores(data, &dirs, opts.exec.parallelism);

        // Candidates: skyline when affordable, else an even subsample of it.
        let sky = rrm_skyline::skyline(data);
        let candidates: Vec<u32> = if sky.len() <= opts.max_candidates {
            sky
        } else {
            let step = sky.len() as f64 / opts.max_candidates as f64;
            (0..opts.max_candidates).map(|i| sky[(i as f64 * step) as usize]).collect()
        };

        let best_scores = vec![f64::NEG_INFINITY; dirs.len()];
        let in_set = vec![false; data.n()];
        Self {
            dirs,
            top1,
            candidates,
            best_scores,
            in_set,
            chosen: Vec::new(),
            done: false,
            pol: opts.exec.parallelism,
        }
    }

    /// Extend the greedy sequence to `r` picks (or until it saturates) and
    /// return the first `min(r, picks)` of them.
    pub(crate) fn prefix(&mut self, data: &Dataset, r: usize) -> Vec<u32> {
        while self.chosen.len() < r && !self.done {
            let pick = best_addition(
                data,
                &self.candidates,
                &self.dirs,
                &self.top1,
                &self.best_scores,
                &self.in_set,
                self.pol,
            );
            let Some(t) = pick else {
                self.done = true;
                break;
            };
            self.in_set[t as usize] = true;
            self.chosen.push(t);
            let row = data.row(t as usize);
            for (b, u) in self.best_scores.iter_mut().zip(&self.dirs) {
                let s = utility::dot(u, row);
                if s > *b {
                    *b = s;
                }
            }
            // Early exit: ratio already zero everywhere.
            if worst_ratio(&self.best_scores, &self.top1) <= 0.0 {
                self.done = true;
            }
        }
        self.chosen[..r.min(self.chosen.len())].to_vec()
    }
}

fn worst_ratio(best_scores: &[f64], top1: &[f64]) -> f64 {
    best_scores
        .iter()
        .zip(top1)
        .map(|(&b, &t)| if t > 0.0 { ((t - b) / t).clamp(0.0, 1.0) } else { 0.0 })
        .fold(0.0, f64::max)
}

/// The candidate whose addition minimizes the resulting worst ratio,
/// chunked over `pol`'s worker threads.
///
/// The per-chunk winner is merged through a strict total order on
/// `(ratio, index)`, so the pick is identical at any thread count (and to
/// a plain sequential scan).
fn best_addition(
    data: &Dataset,
    candidates: &[u32],
    dirs: &[Vec<f64>],
    top1: &[f64],
    best_scores: &[f64],
    in_set: &[bool],
    pol: Parallelism,
) -> Option<u32> {
    let chunk = candidates.len().div_ceil(pol.threads().max(1)).max(1);
    rrm_par::par_map_reduce(
        candidates,
        chunk,
        pol,
        |_, cand_chunk| {
            let mut local_best: Option<(f64, u32)> = None;
            for &t in cand_chunk {
                if in_set[t as usize] {
                    continue;
                }
                let row = data.row(t as usize);
                let mut worst = 0.0f64;
                for ((u, &b), &w1) in dirs.iter().zip(best_scores).zip(top1) {
                    let s = utility::dot(u, row).max(b);
                    let ratio = if w1 > 0.0 { ((w1 - s) / w1).clamp(0.0, 1.0) } else { 0.0 };
                    if ratio > worst {
                        worst = ratio;
                    }
                }
                let better = match local_best {
                    None => true,
                    Some((bw, bt)) => worst < bw || (worst == bw && t < bt),
                };
                if better {
                    local_best = Some((worst, t));
                }
            }
            local_best
        },
        |a, b| match (a, b) {
            (None, b) => b,
            (a, None) => a,
            (Some((aw, at)), Some((bw, bt))) => {
                if bw < aw || (bw == aw && bt < at) {
                    Some((bw, bt))
                } else {
                    Some((aw, at))
                }
            }
        },
    )
    .flatten()
    .map(|(_, t)| t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrm_core::FullSpace;
    use rrm_core::{Budget, RrmError, Solution, Solver, SolverCtx};
    use rrm_data::synthetic::independent;
    use rrm_eval::{estimate_rank_regret_seq, estimate_regret_ratio};

    /// One MDRMS solve on a fresh handle.
    fn mdrms(
        data: &Dataset,
        r: usize,
        space: &dyn UtilitySpace,
        opts: MdrmsOptions,
    ) -> Result<Solution, RrmError> {
        let solver = crate::MdrmsSolver::new(opts);
        solver.solve_rrm_ctx(data, r, space, &Budget::UNLIMITED, &SolverCtx::default())
    }

    fn table1() -> Dataset {
        Dataset::from_rows(&[
            [0.0, 1.0],
            [0.4, 0.95],
            [0.57, 0.75],
            [0.79, 0.6],
            [0.2, 0.5],
            [0.35, 0.3],
            [1.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn table1_r1_picks_t4() {
        // "the solutions for RRM and RMS are {t3} and {t4} respectively".
        let sol = mdrms(&table1(), 1, &FullSpace::new(2), MdrmsOptions::default()).unwrap();
        assert_eq!(sol.indices, vec![3], "RMS picks t4 (lowest regret-ratio)");
    }

    #[test]
    fn table1_shift_changes_answer() {
        // Figure 2's +4 shift on A2 makes RMS chase A1 and pick t7 —
        // the paper's shift-invariance counterexample.
        let shifted = table1().shift(&[0.0, 4.0]);
        let sol = mdrms(&shifted, 1, &FullSpace::new(2), MdrmsOptions::default()).unwrap();
        assert_eq!(sol.indices, vec![6], "after the shift RMS picks t7");
    }

    #[test]
    fn ratio_decreases_with_r() {
        let data = independent(500, 3, 81);
        let mut prev = f64::INFINITY;
        for r in [1usize, 3, 6] {
            let sol = mdrms(&data, r, &FullSpace::new(3), MdrmsOptions::default()).unwrap();
            let e = estimate_regret_ratio(&data, &sol.indices, &FullSpace::new(3), 4000, 82);
            assert!(e.max_ratio <= prev + 0.02, "r={r}: {} > {prev}", e.max_ratio);
            prev = e.max_ratio;
        }
    }

    #[test]
    fn optimizes_ratio_not_rank() {
        // MDRMS should get a decent ratio; its rank-regret is whatever it
        // is (often bad) — we only check it returns a full-size answer.
        let data = independent(800, 4, 83);
        let sol = mdrms(&data, 8, &FullSpace::new(4), MdrmsOptions::default()).unwrap();
        assert!(sol.size() <= 8);
        let ratio =
            estimate_regret_ratio(&data, &sol.indices, &FullSpace::new(4), 4000, 84).max_ratio;
        assert!(ratio < 0.25, "greedy RMS ratio too weak: {ratio}");
        let _rank =
            estimate_rank_regret_seq(&data, &sol.indices, &FullSpace::new(4), 2000, 85).max_rank;
    }

    #[test]
    fn rejects_zero_budget() {
        let data = independent(10, 2, 86);
        assert!(mdrms(&data, 0, &FullSpace::new(2), MdrmsOptions::default()).is_err());
    }
}
