//! [`Solver`] implementations for the high-dimensional algorithms:
//! HDRRM (the paper's) and the Table III baselines MDRRR, MDRRRr, MDRC
//! and MDRMS.
//!
//! Each solver owns its options struct and answers through its prepared
//! handle; the handle maps the engine-facing [`Budget`] caps onto whatever
//! machinery the algorithm actually has — sample counts for the randomized
//! ones, k-set/LP limits for MDRRR — and ignores the ones that do not
//! apply.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rrm_core::{
    cache_bounded, rrr_via_rrm_search_with, Algorithm, AnytimeSearch, AppliedUpdate, Budget,
    Cutoff, Dataset, PreparedSolver, RrmError, Solution, Solver, SolverCtx, UtilitySpace,
    PREPARED_CACHE_CAP,
};

use crate::anytime::threshold_search;
use crate::hdrrm::{HdrrmOptions, PreparedHdrrm};
use crate::ksets::KsetLimits;
use crate::mdrc::{mdrc_anytime, MdrcOptions};
use crate::mdrms::{GreedyRms, MdrmsOptions};
use crate::mdrrr::{hit_ksets, mdrrr, rrm_search_with};
use crate::mdrrr_r::{ksets_from_dirs, sampled_dirs, MdrrrROptions, SampledSearch};

/// **HDRRM** (paper Section V): discretize-and-cover with a certificate
/// over the discretized direction set (Theorem 10).
#[derive(Debug, Clone, Default)]
pub struct HdrrmSolver {
    pub options: HdrrmOptions,
}

impl HdrrmSolver {
    pub fn new(options: HdrrmOptions) -> Self {
        Self { options }
    }
}

impl Solver for HdrrmSolver {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Hdrrm
    }

    fn prepare_ctx(
        &self,
        data: &Dataset,
        space: &dyn UtilitySpace,
        ctx: &SolverCtx,
    ) -> Result<Box<dyn PreparedSolver>, RrmError> {
        self.ensure_supported(data, space)?;
        let mut options = self.options;
        options.exec = ctx.exec.or(options.exec);
        Ok(Box::new(PreparedHdrrmSolver { inner: PreparedHdrrm::new(data, space, options)? }))
    }
}

/// [`PreparedHdrrm`] behind the [`PreparedSolver`] contract.
struct PreparedHdrrmSolver {
    inner: PreparedHdrrm,
}

impl PreparedSolver for PreparedHdrrmSolver {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Hdrrm
    }

    fn dataset(&self) -> &Dataset {
        self.inner.dataset()
    }

    fn solve_rrm(&self, r: usize, budget: &Budget) -> Result<Solution, RrmError> {
        self.inner.solve_rrm(r, budget)
    }

    fn solve_rrr(&self, k: usize, budget: &Budget) -> Result<Solution, RrmError> {
        self.inner.solve_rrr(k, budget)
    }

    fn apply_update(&self, upd: &AppliedUpdate) -> Option<Box<dyn PreparedSolver>> {
        Some(Box::new(PreparedHdrrmSolver { inner: self.inner.apply_update(upd) }))
    }
}

/// **MDRRR** (Asudeh et al.): exact k-set enumeration — certified, but
/// full-space only and practical only on small inputs. The [`Budget`]
/// enumeration/LP caps map directly onto [`KsetLimits`].
#[derive(Debug, Clone, Default)]
pub struct MdrrrSolver {
    pub limits: KsetLimits,
}

impl MdrrrSolver {
    pub fn new(limits: KsetLimits) -> Self {
        Self { limits }
    }
}

impl Solver for MdrrrSolver {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Mdrrr
    }

    fn prepare_ctx(
        &self,
        data: &Dataset,
        space: &dyn UtilitySpace,
        ctx: &SolverCtx,
    ) -> Result<Box<dyn PreparedSolver>, RrmError> {
        self.ensure_supported(data, space)?;
        let mut limits = self.limits;
        limits.exec = ctx.exec.or(limits.exec);
        Ok(Box::new(PreparedMdrrr { data: data.clone(), limits, memo: Mutex::new(HashMap::new()) }))
    }
}

/// MDRRR bound to one dataset: k-set enumerations (the expensive, LP-heavy
/// part) are memoized per `(k, effective limits)`, so the RRM adaptation's
/// threshold search — and any repeated query — re-enumerates nothing.
struct PreparedMdrrr {
    data: Dataset,
    limits: KsetLimits,
    memo: Mutex<HashMap<(usize, usize, usize), Solution>>,
}

impl PreparedMdrrr {
    fn budgeted(&self, budget: &Budget) -> KsetLimits {
        let mut limits = self.limits;
        if let Some(cap) = budget.max_enumerations {
            limits.max_ksets = limits.max_ksets.min(cap);
        }
        if let Some(cap) = budget.max_lp_calls {
            limits.max_lp_calls = limits.max_lp_calls.min(cap);
        }
        limits
    }

    fn probe(&self, k: usize, limits: KsetLimits) -> Result<Solution, RrmError> {
        let key = (k, limits.max_ksets, limits.max_lp_calls);
        if let Some(sol) = self.memo.lock().expect("MDRRR memo poisoned").get(&key) {
            return Ok(sol.clone());
        }
        let sol = mdrrr(&self.data, k, limits)?;
        let sol = cache_bounded(
            &mut self.memo.lock().expect("MDRRR memo poisoned"),
            key,
            sol,
            8 * PREPARED_CACHE_CAP,
        );
        Ok(sol)
    }
}

impl PreparedSolver for PreparedMdrrr {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Mdrrr
    }

    fn dataset(&self) -> &Dataset {
        &self.data
    }

    fn solve_rrm(&self, r: usize, budget: &Budget) -> Result<Solution, RrmError> {
        let limits = self.budgeted(budget);
        rrm_search_with(&self.data, r, budget.effective_cutoff(), |k| self.probe(k, limits))
    }

    fn solve_rrr(&self, k: usize, budget: &Budget) -> Result<Solution, RrmError> {
        self.probe(k, self.budgeted(budget))
    }
}

/// **MDRRRr** (Asudeh et al.): randomized k-set discovery — restricted
/// spaces yes, guarantee no.
#[derive(Debug, Clone, Default)]
pub struct MdrrrRSolver {
    pub options: MdrrrROptions,
}

impl MdrrrRSolver {
    pub fn new(options: MdrrrROptions) -> Self {
        Self { options }
    }
}

impl Solver for MdrrrRSolver {
    fn algorithm(&self) -> Algorithm {
        Algorithm::MdrrrR
    }

    fn prepare_ctx(
        &self,
        data: &Dataset,
        space: &dyn UtilitySpace,
        ctx: &SolverCtx,
    ) -> Result<Box<dyn PreparedSolver>, RrmError> {
        self.ensure_supported(data, space)?;
        let mut options = self.options;
        options.exec = ctx.exec.or(options.exec);
        Ok(Box::new(PreparedMdrrrR {
            data: data.clone(),
            space: space.clone_box(),
            options,
            dirs: Mutex::new(HashMap::new()),
            ksets: Mutex::new(HashMap::new()),
        }))
    }
}

/// MDRRRr bound to one dataset + space: the sampled direction pool is
/// drawn once per sample count (it is seed-deterministic) and the observed
/// k-set families are memoized per `(k, samples)`, so repeated thresholds
/// and the whole RRM search skip the `O(samples · n · d)` scoring.
struct PreparedMdrrrR {
    data: Dataset,
    space: Box<dyn UtilitySpace>,
    options: MdrrrROptions,
    dirs: Mutex<HashMap<usize, Arc<Vec<Vec<f64>>>>>,
    ksets: Mutex<KsetCache>,
}

/// Observed k-set families keyed by `(k, samples)`.
type KsetCache = HashMap<(usize, usize), Arc<Vec<Vec<u32>>>>;

impl PreparedMdrrrR {
    fn budgeted(&self, budget: &Budget) -> MdrrrROptions {
        let mut options = self.options;
        if let Some(m) = budget.samples {
            options.samples = m;
        }
        options
    }

    fn dirs(&self, opts: MdrrrROptions) -> Arc<Vec<Vec<f64>>> {
        if let Some(dirs) = self.dirs.lock().expect("direction cache poisoned").get(&opts.samples) {
            return dirs.clone();
        }
        let dirs = Arc::new(sampled_dirs(self.space.as_ref(), opts));
        cache_bounded(
            &mut self.dirs.lock().expect("direction cache poisoned"),
            opts.samples,
            dirs,
            PREPARED_CACHE_CAP,
        )
    }

    /// The memoized k-set family for one threshold (`k` must already be
    /// clamped to `n`).
    fn kset_family(&self, k: usize, opts: MdrrrROptions) -> Arc<Vec<Vec<u32>>> {
        let key = (k, opts.samples);
        let cached = self.ksets.lock().expect("k-set cache poisoned").get(&key).cloned();
        match cached {
            Some(ksets) => ksets,
            None => {
                // Scoring outside the lock: deterministic, so racers can
                // safely duplicate it instead of serializing.
                let ksets = Arc::new(ksets_from_dirs(
                    &self.data,
                    k,
                    &self.dirs(opts),
                    opts.exec.parallelism,
                ));
                // The key carries k (legitimately many values per search),
                // so allow more entries than the per-budget caches do.
                cache_bounded(
                    &mut self.ksets.lock().expect("k-set cache poisoned"),
                    key,
                    ksets,
                    8 * PREPARED_CACHE_CAP,
                )
            }
        }
    }

    fn probe(&self, k: usize, opts: MdrrrROptions) -> Result<Solution, RrmError> {
        if k == 0 {
            return Err(RrmError::Unsupported("rank-regret thresholds start at 1".into()));
        }
        let k = k.min(self.data.n());
        let ksets = self.kset_family(k, opts);
        let ids = hit_ksets(self.data.n(), &ksets);
        Solution::new(ids, None, Algorithm::MdrrrR, &self.data)
    }
}

impl PreparedSolver for PreparedMdrrrR {
    fn algorithm(&self) -> Algorithm {
        Algorithm::MdrrrR
    }

    fn dataset(&self) -> &Dataset {
        &self.data
    }

    fn solve_rrm(&self, r: usize, budget: &Budget) -> Result<Solution, RrmError> {
        if r == 0 {
            return Err(RrmError::OutputSizeTooSmall { requested: 0, minimum: 1 });
        }
        let opts = self.budgeted(budget);
        let dirs = self.dirs(opts);
        let env = SampledSearch {
            data: &self.data,
            r,
            pick_cap: SampledSearch::pick_cap(r, opts.prune),
            pol: opts.exec.parallelism,
        };
        let mut search = AnytimeSearch::new(budget.effective_cutoff(), budget.max_enumerations);
        if search.cutoff() != Cutoff::None {
            env.offer_fallback(&dirs, &mut search);
        }
        env.coarse_incumbent(&dirs, &mut search);
        let outcome = threshold_search(self.data.n(), &mut search, |k, lower, search| {
            let ksets = self.kset_family(k, opts);
            Ok(env.probe(k, &ksets, lower, search))
        })?;
        env.finish(outcome, search)
    }

    fn solve_rrr(&self, k: usize, budget: &Budget) -> Result<Solution, RrmError> {
        self.probe(k, self.budgeted(budget))
    }
}

/// **MDRC** (Asudeh et al.): recursive angle-space partitioning — fast,
/// no certificate, full space only, and no native RRR mode (the
/// representative direction falls back to [`rrr_via_rrm_search_with`]).
#[derive(Debug, Clone, Default)]
pub struct MdrcSolver {
    pub options: MdrcOptions,
}

impl MdrcSolver {
    pub fn new(options: MdrcOptions) -> Self {
        Self { options }
    }
}

impl Solver for MdrcSolver {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Mdrc
    }

    fn prepare_ctx(
        &self,
        data: &Dataset,
        space: &dyn UtilitySpace,
        ctx: &SolverCtx,
    ) -> Result<Box<dyn PreparedSolver>, RrmError> {
        self.ensure_supported(data, space)?;
        Ok(Box::new(PreparedMdrc {
            data: data.clone(),
            space: space.clone_box(),
            options: MdrcOptions { exec: ctx.exec.or(self.options.exec), ..self.options },
            memo: Mutex::new(HashMap::new()),
        }))
    }
}

/// MDRC bound to one dataset: the partition refinement is adaptive in `r`
/// with little reusable sub-structure, so the prepared handle memoizes
/// whole solutions per size budget — repeat queries (and every probe of
/// the RRR-via-RRM search) are free after the first.
struct PreparedMdrc {
    data: Dataset,
    space: Box<dyn UtilitySpace>,
    options: MdrcOptions,
    /// Keyed by `(r, effective cell-evaluation cap)`: a counter-cut
    /// partial answer must not be served to an unlimited query (or vice
    /// versa).
    memo: Mutex<HashMap<(usize, usize), Solution>>,
}

impl PreparedMdrc {
    fn rrm_memo(&self, r: usize, budget: &Budget) -> Result<Solution, RrmError> {
        let cutoff = budget.effective_cutoff();
        if matches!(cutoff, Cutoff::TimeBudget(_)) {
            // Wall-clock cutoffs are nondeterministic — never cache (or
            // serve a cached answer for) a time-cut solve.
            return mdrc_anytime(
                &self.data,
                r,
                self.space.as_ref(),
                self.options,
                cutoff,
                budget.max_enumerations,
            );
        }
        let cap = match cutoff {
            Cutoff::CounterBudget => budget.max_enumerations.unwrap_or(usize::MAX),
            _ => usize::MAX,
        };
        let key = (r, cap);
        if let Some(sol) = self.memo.lock().expect("MDRC memo poisoned").get(&key) {
            return Ok(sol.clone());
        }
        let sol = mdrc_anytime(
            &self.data,
            r,
            self.space.as_ref(),
            self.options,
            cutoff,
            budget.max_enumerations,
        )?;
        // Both key parts are request-supplied, so the memo is bounded like
        // the other per-request caches (the RRR search probes many `r`).
        Ok(cache_bounded(
            &mut self.memo.lock().expect("MDRC memo poisoned"),
            key,
            sol,
            8 * PREPARED_CACHE_CAP,
        ))
    }
}

impl PreparedSolver for PreparedMdrc {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Mdrc
    }

    fn dataset(&self) -> &Dataset {
        &self.data
    }

    fn solve_rrm(&self, r: usize, budget: &Budget) -> Result<Solution, RrmError> {
        self.rrm_memo(r, budget)
    }

    fn solve_rrr(&self, k: usize, budget: &Budget) -> Result<Solution, RrmError> {
        rrr_via_rrm_search_with(
            "MDRC",
            &self.data,
            k,
            self.space.as_ref(),
            budget,
            self.options.exec,
            |r| self.rrm_memo(r, budget),
        )
    }
}

/// **MDRMS**: the regret-*ratio* (RMS) baseline — optimizes the wrong
/// objective by design; included for the paper's comparison. No native
/// RRR mode.
#[derive(Debug, Clone, Default)]
pub struct MdrmsSolver {
    pub options: MdrmsOptions,
}

impl MdrmsSolver {
    pub fn new(options: MdrmsOptions) -> Self {
        Self { options }
    }
}

impl Solver for MdrmsSolver {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Mdrms
    }

    fn prepare_ctx(
        &self,
        data: &Dataset,
        space: &dyn UtilitySpace,
        ctx: &SolverCtx,
    ) -> Result<Box<dyn PreparedSolver>, RrmError> {
        self.ensure_supported(data, space)?;
        let mut options = self.options;
        options.exec = ctx.exec.or(options.exec);
        Ok(Box::new(PreparedMdrms {
            data: data.clone(),
            space: space.clone_box(),
            options,
            greedy: Mutex::new(HashMap::new()),
        }))
    }
}

/// MDRMS bound to one dataset + space: the sampled directions, top-1
/// scores and the greedy pick sequence live across queries (one per
/// effective sample count). `mdrms(r)` is a prefix of `mdrms(r')` for
/// `r' ≥ r`, so a larger budget extends the cached sequence in place and a
/// smaller one slices it.
struct PreparedMdrms {
    data: Dataset,
    space: Box<dyn UtilitySpace>,
    options: MdrmsOptions,
    /// One resumable greedy state per effective sample count, each behind
    /// its own lock: queries for the *same* budget serialize (the prefix
    /// is mutable state), queries for different budgets do not.
    greedy: Mutex<HashMap<usize, Arc<Mutex<GreedyRms>>>>,
}

impl PreparedMdrms {
    fn budgeted(&self, budget: &Budget) -> MdrmsOptions {
        let mut options = self.options;
        if let Some(m) = budget.samples {
            options.samples = m;
        }
        options
    }

    fn rrm_with(&self, r: usize, opts: MdrmsOptions) -> Result<Solution, RrmError> {
        if r == 0 {
            return Err(RrmError::OutputSizeTooSmall { requested: 0, minimum: 1 });
        }
        let state = self.greedy.lock().expect("greedy cache poisoned").get(&opts.samples).cloned();
        let state = match state {
            Some(state) => state,
            None => {
                // Build outside the outer lock (direction sampling and
                // top-1 scoring are the heavy part), then insert-or-reuse.
                let built =
                    Arc::new(Mutex::new(GreedyRms::new(&self.data, self.space.as_ref(), opts)));
                cache_bounded(
                    &mut self.greedy.lock().expect("greedy cache poisoned"),
                    opts.samples,
                    built,
                    PREPARED_CACHE_CAP,
                )
            }
        };
        // Same-budget queries serialize here — the greedy prefix is
        // resumable *mutable* state; extending it concurrently would race.
        let chosen = state.lock().expect("greedy state poisoned").prefix(&self.data, r);
        Solution::new(chosen, None, Algorithm::Mdrms, &self.data)
    }
}

impl PreparedSolver for PreparedMdrms {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Mdrms
    }

    fn dataset(&self) -> &Dataset {
        &self.data
    }

    fn solve_rrm(&self, r: usize, budget: &Budget) -> Result<Solution, RrmError> {
        self.rrm_with(r, self.budgeted(budget))
    }

    fn solve_rrr(&self, k: usize, budget: &Budget) -> Result<Solution, RrmError> {
        let opts = self.budgeted(budget);
        rrr_via_rrm_search_with(
            "MDRMS",
            &self.data,
            k,
            self.space.as_ref(),
            budget,
            opts.exec,
            |r| self.rrm_with(r, opts),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrm_core::{FullSpace, SolverCtx, WeakRankingSpace};

    fn small() -> Dataset {
        rrm_data::synthetic::independent(120, 3, 7)
    }

    fn ctx() -> SolverCtx {
        SolverCtx::default()
    }

    #[test]
    fn hdrrm_solver_budget_maps_to_sample_override() {
        let solver = HdrrmSolver::default();
        let sol = solver
            .solve_rrm_ctx(&small(), 8, &FullSpace::new(3), &Budget::with_samples(150), &ctx())
            .unwrap();
        assert_eq!(sol.algorithm, Algorithm::Hdrrm);
        assert!(sol.size() <= 8);
    }

    #[test]
    fn mdrrr_solver_rejects_restricted_space() {
        let solver = MdrrrSolver::default();
        let err = solver
            .solve_rrm_ctx(&small(), 5, &WeakRankingSpace::new(3, 1), &Budget::default(), &ctx())
            .unwrap_err();
        assert!(matches!(err, RrmError::Unsupported(_)), "{err}");
    }

    #[test]
    fn mdrc_solver_gains_rrr_through_search() {
        let data = rrm_data::synthetic::independent(150, 3, 9);
        let solver = MdrcSolver::default();
        let sol = solver
            .solve_rrr_ctx(&data, 20, &FullSpace::new(3), &Budget::with_samples(128), &ctx())
            .unwrap();
        assert_eq!(sol.algorithm, Algorithm::Mdrc);
        assert!(sol.certified_regret.is_none(), "MDRC must not claim a certificate");
        assert!(sol.size() >= 1);
    }

    #[test]
    fn mdrms_solver_runs_both_directions() {
        let data = rrm_data::synthetic::correlated(150, 3, 11);
        let solver = MdrmsSolver::default();
        let rrm = solver
            .solve_rrm_ctx(&data, 6, &FullSpace::new(3), &Budget::with_samples(300), &ctx())
            .unwrap();
        assert!(rrm.size() <= 6);
        let rrr = solver
            .solve_rrr_ctx(&data, 30, &FullSpace::new(3), &Budget::with_samples(128), &ctx())
            .unwrap();
        assert_eq!(rrr.algorithm, Algorithm::Mdrms);
    }

    #[test]
    fn prepared_mdrms_prefix_property_under_interleaved_budgets() {
        // Queries arriving out of size order must not perturb the greedy
        // sequence: ask big, then small, then medium, and compare with a
        // fresh handle per query.
        let data = rrm_data::synthetic::anticorrelated(120, 3, 9);
        let space = FullSpace::new(3);
        let budget = Budget::with_samples(300);
        let solver = MdrmsSolver::default();
        let prepared = solver.prepare(&data, &space).unwrap();
        for r in [8usize, 2, 5] {
            let fresh = solver.solve_rrm_ctx(&data, r, &space, &budget, &ctx()).unwrap();
            assert_eq!(prepared.solve_rrm(r, &budget).unwrap(), fresh, "r={r}");
        }
    }

    #[test]
    fn capability_queries_mirror_the_enum() {
        assert!(HdrrmSolver::default().has_regret_guarantee());
        assert!(MdrrrSolver::default().has_regret_guarantee());
        assert!(!MdrcSolver::default().has_regret_guarantee());
        assert!(!MdrmsSolver::default().has_regret_guarantee());
        assert!(MdrrrRSolver::default().supports_restricted_space());
        assert!(!MdrcSolver::default().supports_restricted_space());
    }

    #[test]
    fn mdrc_memo_stays_bounded_under_distinct_budgets() {
        let data = rrm_data::synthetic::independent(40, 3, 12);
        let space = FullSpace::new(3);
        let solver = MdrcSolver::default();
        let warm = PreparedMdrc {
            data: data.clone(),
            space: space.clone_box(),
            options: solver.options,
            memo: Mutex::new(HashMap::new()),
        };
        let cap = 8 * PREPARED_CACHE_CAP;
        // A client streaming distinct size budgets past the memo cap.
        for r in 1..=cap + 12 {
            let sol = warm.solve_rrm(r, &Budget::UNLIMITED).unwrap();
            if r % 29 == 0 || r > cap {
                let fresh = solver.solve_rrm_ctx(&data, r, &space, &Budget::UNLIMITED, &ctx());
                assert_eq!(sol, fresh.unwrap(), "r={r}");
            }
        }
        assert_eq!(warm.memo.lock().unwrap().len(), cap, "memo must stop growing at its cap");
    }
}
