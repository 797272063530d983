//! **MDRRRr** — the randomized k-set baseline of Asudeh et al.
//!
//! Instead of exact region enumeration, sample directions, collect the
//! distinct top-k sets observed, and hit those. Faster
//! (`O(|W|(nd + k log k))` in the paper's accounting), works for
//! restricted spaces, but the output's rank-regret is **not** guaranteed —
//! unsampled k-set regions can be missed, which is exactly the quality gap
//! the paper's figures display at scale.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rrm_core::{
    Algorithm, AnytimeSearch, Bounds, Dataset, ExecPolicy, Parallelism, RrmError, Solution,
    TerminatedBy, UtilitySpace,
};

use crate::anytime::{regret_over_dirs, threshold_search, uniform_top_set, ThresholdOutcome};
use crate::common::batch_topk;
use crate::mdrrr::hit_ksets_capped;

/// Options for [`crate::MdrrrRSolver`].
#[derive(Debug, Clone, Copy)]
pub struct MdrrrROptions {
    /// Number of sampled directions used to discover k-sets.
    pub samples: usize,
    /// RNG seed.
    pub seed: u64,
    /// Bound-and-prune the RRM feasibility probes: abort a hitting-set
    /// cover once it provably exceeds the size budget `r`
    /// (answer-equivalent; disable only to measure the pruning win).
    pub prune: bool,
    /// Data-parallelism for the k-set discovery scoring pass. Engine-level
    /// contexts override the default; the discovered k-set family is
    /// identical at any thread count.
    pub exec: ExecPolicy,
}

impl Default for MdrrrROptions {
    fn default() -> Self {
        Self { samples: 20_000, seed: 0x5EED, prune: true, exec: ExecPolicy::default() }
    }
}

/// Prefix fraction of the sampled pool used as the coarse frame.
const COARSE_FRACTION: usize = 16;
/// Minimum coarse pool size for the coarse pass to be worth running.
const COARSE_MIN_DIRS: usize = 16;

/// The per-solve probe environment of the MDRRRr RRM search (doubling +
/// binary search on `k` over the sampled k-set families).
pub(crate) struct SampledSearch<'a> {
    pub data: &'a Dataset,
    pub r: usize,
    /// Hitting-set pick cap (`usize::MAX` = pruning disabled).
    pub pick_cap: usize,
    pub pol: Parallelism,
}

impl SampledSearch<'_> {
    pub(crate) fn pick_cap(r: usize, prune: bool) -> usize {
        if prune {
            r
        } else {
            usize::MAX
        }
    }

    /// One capped hitting probe over a k-set family. Counts picks as
    /// nodes, records prunes, offers feasible results (their threshold
    /// is the sound upper bound over the sampled pool).
    pub(crate) fn probe(
        &self,
        k: usize,
        ksets: &[Vec<u32>],
        lower: usize,
        search: &mut AnytimeSearch,
    ) -> Option<Vec<u32>> {
        let probe = hit_ksets_capped(self.data.n(), ksets, self.pick_cap);
        search.note_nodes(probe.picks);
        if !probe.complete {
            search.note_pruned_probe();
            return None;
        }
        if probe.ids.len() <= self.r {
            search.offer(probe.ids.clone(), k, lower);
            Some(probe.ids)
        } else {
            None
        }
    }

    /// Offer the uniform-direction top-`r` fallback incumbent, with its
    /// measured regret over the full sampled pool as the upper bound.
    pub(crate) fn offer_fallback(&self, dirs: &[Vec<f64>], search: &mut AnytimeSearch) {
        let fallback = uniform_top_set(self.data, &[], self.r);
        let upper = regret_over_dirs(self.data, &fallback, dirs, self.pol);
        search.offer(fallback, upper, 1);
    }

    /// Coarse-to-fine first incumbent: solve over the prefix
    /// `dirs[..samples/16]` of the pool (cheap — fewer directions to
    /// score and fewer k-sets to hit), then measure that answer over the
    /// full pool for a sound frame-relative upper bound. Coarse probes
    /// never consume the deterministic probe budget.
    pub(crate) fn coarse_incumbent(&self, dirs: &[Vec<f64>], search: &mut AnytimeSearch) {
        let mc = dirs.len() / COARSE_FRACTION;
        if mc < COARSE_MIN_DIRS {
            return;
        }
        let coarse = &dirs[..mc];
        let mut sub = AnytimeSearch::unlimited();
        let outcome = threshold_search(self.data.n(), &mut sub, |k, lower, sub| {
            let ksets = ksets_from_dirs(self.data, k, coarse, self.pol);
            Ok(self.probe(k, &ksets, lower, sub))
        });
        search.report.nodes += sub.report.nodes;
        search.report.pruned_probes += sub.report.pruned_probes;
        let Ok(outcome) = outcome else { return };
        if let Some((_, ids)) = outcome.best {
            let upper = regret_over_dirs(self.data, &ids, dirs, self.pol);
            search.offer(ids, upper, 1);
        }
    }

    /// Assemble the final [`Solution`]. MDRRRr certifies nothing
    /// (`certified_regret` stays `None`); its bounds are relative to the
    /// sampled pool only.
    pub(crate) fn finish(
        &self,
        outcome: ThresholdOutcome<Vec<u32>>,
        search: AnytimeSearch,
    ) -> Result<Solution, RrmError> {
        match outcome.terminated {
            TerminatedBy::Completed => {
                // Unreachable `None`: at k = n the only k-set is the whole
                // dataset and any single tuple hits it.
                let (best_k, ids) = outcome.best.expect("hitting at k = n is a single tuple");
                Solution::new(ids, None, Algorithm::MdrrrR, self.data).map(|s| {
                    s.with_bounds(Bounds { lower: best_k, upper: best_k })
                        .with_report(search.report)
                })
            }
            t => {
                let (ids, upper) = search
                    .incumbent
                    .best()
                    .expect("an active cutoff offers a fallback incumbent before searching");
                Solution::new(ids, None, Algorithm::MdrrrR, self.data).map(|s| {
                    s.with_bounds(Bounds { lower: outcome.lower, upper })
                        .with_termination(t)
                        .with_report(search.report)
                })
            }
        }
    }
}

/// The sampled direction pool (deterministic per seed and sample count —
/// the prepared path caches it per sample count and reuses it for every
/// threshold).
pub(crate) fn sampled_dirs(space: &dyn UtilitySpace, opts: MdrrrROptions) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    (0..opts.samples).map(|_| space.sample_direction(&mut rng)).collect()
}

/// Distinct top-k sets observed across the given directions. The scoring
/// pass (`O(|dirs| · n · d)`) is chunked over `pol`'s threads; dedup and
/// ordering below keep the family deterministic.
pub(crate) fn ksets_from_dirs(
    data: &Dataset,
    k: usize,
    dirs: &[Vec<f64>],
    pol: Parallelism,
) -> Vec<Vec<u32>> {
    let lists = batch_topk(data, dirs, k, pol);
    let mut seen: HashSet<Vec<u32>> = HashSet::with_capacity(lists.len() / 4);
    for mut l in lists {
        l.sort_unstable();
        seen.insert(l);
    }
    // HashSet iteration order is randomized per process; the greedy cover
    // downstream tie-breaks by list order, so sort to keep the whole
    // algorithm deterministic for a fixed seed.
    let mut ksets: Vec<Vec<u32>> = seen.into_iter().collect();
    ksets.sort_unstable();
    ksets
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrm_core::{Budget, Solver, SolverCtx};
    use rrm_core::{FullSpace, WeakRankingSpace};
    use rrm_data::synthetic::{anticorrelated, independent};
    use rrm_eval::estimate_rank_regret_seq;

    /// MDRRRr for RRR on a fresh handle.
    fn mdrrr_r(
        data: &Dataset,
        k: usize,
        space: &dyn UtilitySpace,
        opts: MdrrrROptions,
    ) -> Result<Solution, RrmError> {
        crate::MdrrrRSolver::new(opts).solve_rrr_ctx(
            data,
            k,
            space,
            &Budget::UNLIMITED,
            &SolverCtx::default(),
        )
    }

    /// MDRRRr adapted to RRM on a fresh handle.
    fn mdrrr_r_rrm(
        data: &Dataset,
        r: usize,
        space: &dyn UtilitySpace,
        opts: MdrrrROptions,
    ) -> Result<Solution, RrmError> {
        crate::MdrrrRSolver::new(opts).solve_rrm_ctx(
            data,
            r,
            space,
            &Budget::UNLIMITED,
            &SolverCtx::default(),
        )
    }

    fn opts(samples: usize, seed: u64) -> MdrrrROptions {
        MdrrrROptions { samples, seed, ..Default::default() }
    }

    #[test]
    fn hits_every_sampled_kset() {
        let data = independent(100, 3, 51);
        let sol = mdrrr_r(&data, 3, &FullSpace::new(3), opts(3000, 52)).unwrap();
        // Regret over a fresh sample shouldn't stray far above k on this
        // easy instance (no guarantee, but the mechanism must basically
        // work).
        let est = estimate_rank_regret_seq(&data, &sol.indices, &FullSpace::new(3), 3000, 53);
        assert!(est.max_rank <= 12, "estimated regret {}", est.max_rank);
        assert_eq!(sol.certified_regret, None);
        assert_eq!(sol.algorithm, Algorithm::MdrrrR);
    }

    #[test]
    fn rrm_adapter_respects_budget() {
        let data = anticorrelated(300, 3, 54);
        for r in [4usize, 8] {
            let sol = mdrrr_r_rrm(&data, r, &FullSpace::new(3), opts(2000, 55)).unwrap();
            assert!(sol.size() <= r, "r={r}: {}", sol.size());
        }
    }

    #[test]
    fn supports_restricted_space() {
        let data = anticorrelated(200, 4, 56);
        let space = WeakRankingSpace::new(4, 2);
        let sol = mdrrr_r_rrm(&data, 8, &space, opts(2000, 57)).unwrap();
        assert!(sol.size() <= 8);
        // Output must do reasonably on the restricted space itself.
        let est = estimate_rank_regret_seq(&data, &sol.indices, &space, 3000, 58);
        assert!(est.max_rank < data.n() / 2);
    }

    #[test]
    fn fewer_samples_weaker_quality() {
        // The no-guarantee failure mode: with very few samples the hitting
        // set misses regions. We only check it still returns something
        // valid and small.
        let data = anticorrelated(400, 4, 59);
        let sol = mdrrr_r(&data, 2, &FullSpace::new(4), opts(20, 60)).unwrap();
        assert!(!sol.indices.is_empty());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let data = independent(50, 3, 61);
        assert!(mdrrr_r(&data, 2, &FullSpace::new(4), opts(100, 62)).is_err());
    }
}
