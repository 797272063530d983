//! The shared solver contract: every rank-regret algorithm in the
//! workspace — the paper's 2DRRM/HDRRM and the Table III baselines —
//! implements [`Solver`], so engines, benchmarks and tests can treat
//! "an algorithm" as a value.
//!
//! The trait folds in the capability matrix that used to live only on
//! [`Algorithm`]: whether the solver certifies a rank-regret bound,
//! whether it accepts restricted utility spaces (the RRRM variant), and
//! which dataset dimensionalities it handles. Callers check capabilities
//! through [`Solver::ensure_supported`] and get a uniform
//! [`RrmError::Unsupported`] instead of per-algorithm ad-hoc failures.
//!
//! [`Budget`] is the cross-algorithm resource knob: each solver maps the
//! caps onto its own machinery (k-set enumeration limits, LP call limits,
//! sampled-direction counts) and ignores the ones that do not apply.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::anytime::Cutoff;
use crate::approx::ApproxSpec;
use crate::dataset::Dataset;
use crate::error::RrmError;
use crate::exec::{ExecPolicy, SolverCtx};
use crate::problem::{Algorithm, Solution};
use crate::rank;
use crate::space::UtilitySpace;

/// The dataset dimensionalities a solver accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimRange {
    /// Smallest accepted `d`.
    pub min: usize,
    /// Largest accepted `d` (`None` = unbounded).
    pub max: Option<usize>,
}

impl DimRange {
    pub const fn exactly(d: usize) -> Self {
        Self { min: d, max: Some(d) }
    }

    pub const fn at_least(min: usize) -> Self {
        Self { min, max: None }
    }

    pub fn contains(&self, d: usize) -> bool {
        d >= self.min && self.max.is_none_or(|m| d <= m)
    }
}

impl std::fmt::Display for DimRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.max {
            Some(m) if m == self.min => write!(f, "d = {}", self.min),
            Some(m) => write!(f, "{} <= d <= {}", self.min, m),
            None => write!(f, "d >= {}", self.min),
        }
    }
}

/// Cross-algorithm resource budget. `Default` means unlimited: each
/// solver falls back to its own options.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Budget {
    /// Cap on enumerated candidate structures (k-sets, partition cells,
    /// threshold probes in the anytime searches).
    pub max_enumerations: Option<usize>,
    /// Cap on LP feasibility checks.
    pub max_lp_calls: Option<usize>,
    /// Override for sampled-direction counts in randomized solvers
    /// (HDRRM's `|Da|`, MDRRRr/MDRMS direction samples).
    pub samples: Option<usize>,
    /// In-solve cutoff for the anytime (cuttable) solvers. With
    /// [`Cutoff::None`] the counters above still fold into an implicit
    /// [`Cutoff::CounterBudget`] via [`Budget::effective_cutoff`], so
    /// exhausting a counter yields a gap-annotated partial `Solution`
    /// instead of ad-hoc truncation.
    pub cutoff: Cutoff,
    /// Requested approximation fidelity, set when the request asked for
    /// the sampled-ε tier (`Request::approx`). The sampled solver reads
    /// its `(eps, delta)` from here; exact solvers ignore it (the engine
    /// routes approximate requests away from them or through
    /// `approx::reduce` first).
    pub approx: Option<ApproxSpec>,
}

impl Budget {
    pub const UNLIMITED: Budget = Budget {
        max_enumerations: None,
        max_lp_calls: None,
        samples: None,
        cutoff: Cutoff::None,
        approx: None,
    };

    /// Budget with a sampled-direction override, the knob benchmarks use
    /// most.
    pub fn with_samples(samples: usize) -> Self {
        Budget { samples: Some(samples), ..Budget::UNLIMITED }
    }

    /// Budget with an explicit in-solve cutoff.
    pub fn with_cutoff(cutoff: Cutoff) -> Self {
        Budget { cutoff, ..Budget::UNLIMITED }
    }

    /// Budget carrying a sampled-ε fidelity request.
    pub fn with_approx(spec: ApproxSpec) -> Self {
        Budget { approx: Some(spec), ..Budget::UNLIMITED }
    }

    /// The cutoff the anytime solvers actually run under: an explicit
    /// cutoff wins; otherwise a set *work* counter (`max_enumerations` /
    /// `max_lp_calls`) folds into the deterministic
    /// [`Cutoff::CounterBudget`]; otherwise none. A `samples` override
    /// merely parameterizes the problem frame — it cannot exhaust
    /// mid-search, so it does not imply a cutoff.
    pub fn effective_cutoff(&self) -> Cutoff {
        match self.cutoff {
            Cutoff::None if self.max_enumerations.is_some() || self.max_lp_calls.is_some() => {
                Cutoff::CounterBudget
            }
            c => c,
        }
    }
}

/// A rank-regret algorithm as a value: both problem directions plus the
/// capability queries of the paper's Table III.
pub trait Solver: Send + Sync {
    /// Which [`Algorithm`] this solver implements.
    fn algorithm(&self) -> Algorithm;

    /// Display name (the paper's spelling, e.g. `MDRRRr`).
    fn name(&self) -> &'static str {
        self.algorithm().name()
    }

    /// Does the solver certify a rank-regret bound for its output?
    fn has_regret_guarantee(&self) -> bool {
        self.algorithm().has_regret_guarantee()
    }

    /// Can the solver handle restricted utility spaces (RRRM)?
    fn supports_restricted_space(&self) -> bool {
        self.algorithm().supports_restricted_space()
    }

    /// Accepted dataset dimensionalities.
    fn supported_dims(&self) -> DimRange {
        self.algorithm().supported_dims()
    }

    /// Bind this solver to one dataset + utility space, building all the
    /// dataset-dependent state (Pareto frontiers, discretization grids,
    /// candidate pools, ...) **once** so that many queries with varying
    /// `r`/`k` can be answered cheaply through the returned
    /// [`PreparedSolver`]. Preparation is purely a caching contract, never
    /// an approximation: a warm, reused handle answers exactly as a fresh
    /// one would.
    ///
    /// The prepared handle is `Send + Sync`; read-only queries against it
    /// may run concurrently. Capability checks
    /// ([`Solver::ensure_supported`]) run here, so a prepared handle never
    /// fails a query for capability reasons.
    ///
    /// Convenience form of [`Solver::prepare_ctx`] under the default
    /// [`SolverCtx`].
    fn prepare(
        &self,
        data: &Dataset,
        space: &dyn UtilitySpace,
    ) -> Result<Box<dyn PreparedSolver>, RrmError> {
        self.prepare_ctx(data, space, &SolverCtx::default())
    }

    /// [`Solver::prepare`] under an explicit execution context — the one
    /// entry point every solver implements. The prepared handle
    /// *captures* the context's [`ExecPolicy`]: every later query runs its
    /// chunked kernels under that policy, and solutions are bit-identical
    /// at any thread count (`tests/parallel_parity.rs` enforces this).
    fn prepare_ctx(
        &self,
        data: &Dataset,
        space: &dyn UtilitySpace,
        ctx: &SolverCtx,
    ) -> Result<Box<dyn PreparedSolver>, RrmError>;

    /// Rank-regret *minimization* (RRM / RRRM): best set of ≤ `r` tuples,
    /// answered by a freshly prepared handle. Bind the handle yourself
    /// ([`Solver::prepare_ctx`]) to amortize preparation over many queries.
    fn solve_rrm_ctx(
        &self,
        data: &Dataset,
        r: usize,
        space: &dyn UtilitySpace,
        budget: &Budget,
        ctx: &SolverCtx,
    ) -> Result<Solution, RrmError> {
        self.prepare_ctx(data, space, ctx)?.solve_rrm(r, budget)
    }

    /// Rank-regret *representative* (RRR): smallest set with regret ≤ `k`,
    /// answered by a freshly prepared handle (see
    /// [`Solver::solve_rrm_ctx`]).
    fn solve_rrr_ctx(
        &self,
        data: &Dataset,
        k: usize,
        space: &dyn UtilitySpace,
        budget: &Budget,
        ctx: &SolverCtx,
    ) -> Result<Solution, RrmError> {
        self.prepare_ctx(data, space, ctx)?.solve_rrr(k, budget)
    }

    /// Uniform capability check: dimensionality and space restrictions.
    /// Every [`Solver::prepare_ctx`] calls this first, so each capability
    /// mismatch surfaces as the same graceful [`RrmError::Unsupported`].
    fn ensure_supported(&self, data: &Dataset, space: &dyn UtilitySpace) -> Result<(), RrmError> {
        let dims = self.supported_dims();
        if !dims.contains(data.dim()) {
            return Err(RrmError::Unsupported(format!(
                "{} requires {dims}, got d = {}",
                self.name(),
                data.dim()
            )));
        }
        if space.dim() != data.dim() {
            return Err(RrmError::DimensionMismatch { expected: data.dim(), got: space.dim() });
        }
        if !space.is_full() && !self.supports_restricted_space() {
            return Err(RrmError::Unsupported(format!(
                "{} does not support restricted utility spaces (Table III)",
                self.name()
            )));
        }
        Ok(())
    }
}

/// A [`Solver`] bound to one dataset and utility space: the
/// *prepare-once / query-many* half of the API.
///
/// Construction happens through [`Solver::prepare`], which front-loads all
/// per-dataset work; `solve_rrm`/`solve_rrr` then answer individual
/// queries cheaply and repeatedly. Handles are `Send + Sync` so one
/// prepared instance can serve concurrent read-only queries (the serving
/// workload of the paper: many users, one dataset, varying `r`/`k`).
///
/// Cached state is a performance contract, not a different algorithm: a
/// warm handle that has answered other queries must return exactly what a
/// freshly prepared handle returns for the same query.
/// `tests/session_parity.rs` enforces this for every registered solver.
pub trait PreparedSolver: Send + Sync {
    /// Which [`Algorithm`] answered.
    fn algorithm(&self) -> Algorithm;

    /// The dataset this handle was prepared on.
    fn dataset(&self) -> &Dataset;

    /// Rank-regret *minimization* for one size budget `r`.
    fn solve_rrm(&self, r: usize, budget: &Budget) -> Result<Solution, RrmError>;

    /// Rank-regret *representative* for one threshold `k`.
    fn solve_rrr(&self, k: usize, budget: &Budget) -> Result<Solution, RrmError>;

    /// Display name (the paper's spelling).
    fn name(&self) -> &'static str {
        self.algorithm().name()
    }

    /// Incrementally rebind this handle to the post-update dataset,
    /// patching cached state instead of re-deriving it from scratch.
    ///
    /// Returns `None` when the solver's state is not incrementally
    /// maintainable (the default): callers fall back to a fresh
    /// [`Solver::prepare`] against `upd.new`. When `Some`, the returned
    /// handle must answer every query **bit-identically** to a freshly
    /// prepared handle over `upd.new` — incremental maintenance is a
    /// performance contract, never an approximation (the same contract as
    /// [`Solver::prepare`] itself; `tests/incremental.rs` enforces it).
    fn apply_update(&self, upd: &crate::update::AppliedUpdate) -> Option<Box<dyn PreparedSolver>> {
        let _ = upd;
        None
    }
}

/// Cap for prepared-solver side caches keyed by *request-supplied* values
/// (budget sample counts, enumeration limits). A long-lived session
/// answering untrusted requests must not grow memory with every distinct
/// budget it sees: entries up to the cap are cached for the session's
/// lifetime, further variants are computed but not retained.
pub const PREPARED_CACHE_CAP: usize = 16;

/// Insert-or-reuse with a size bound: returns the cached value for `key`
/// when present; otherwise caches `value` if the map holds fewer than
/// `cap` entries, and returns it either way (uncached beyond the cap —
/// correct but unamortized, which is the right failure mode for a
/// hostile stream of distinct budgets).
pub fn cache_bounded<K: Eq + std::hash::Hash, V: Clone>(
    map: &mut HashMap<K, V>,
    key: K,
    value: V,
    cap: usize,
) -> V {
    if let Some(existing) = map.get(&key) {
        return existing.clone();
    }
    if map.len() < cap {
        map.insert(key, value.clone());
    }
    value
}

/// Generic RRR fallback for solvers with no native representative mode
/// (MDRC, MDRMS): exponential-then-binary search over the size budget
/// `r`, accepting the smallest `r` whose solution's rank-regret —
/// *estimated* on a deterministic direction sample — meets the threshold.
/// `solve_rrm` answers one size probe; prepared solvers pass their
/// memoized query path, so the whole search reuses cached per-dataset
/// state.
///
/// The result inherits the inner solver's (lack of) certificate:
/// `certified_regret` is `None`, because the estimate is not a guarantee.
/// The per-probe regret
/// estimate (the `O(m · n · d)` inner loop) is chunked over `exec`'s
/// threads; its direction sample is drawn once, sequentially, so the
/// estimate is identical at any thread count.
pub fn rrr_via_rrm_search_with(
    name: &str,
    data: &Dataset,
    k: usize,
    space: &dyn UtilitySpace,
    budget: &Budget,
    exec: ExecPolicy,
    mut solve_rrm: impl FnMut(usize) -> Result<Solution, RrmError>,
) -> Result<Solution, RrmError> {
    if k == 0 {
        return Err(RrmError::Unsupported("rank-regret thresholds start at 1".into()));
    }
    let n = data.n();
    let m = budget.samples.unwrap_or(512).max(1);
    let mut rng = StdRng::seed_from_u64(0x5EA7C4);
    let dirs: Vec<Vec<f64>> = (0..m).map(|_| space.sample_direction(&mut rng)).collect();
    let estimate = |sol: &Solution| -> usize {
        rank::max_rank_regret(data, &dirs, &sol.indices, exec.parallelism)
            .expect("at least one direction")
    };
    let mut attempt = |r: usize| -> Result<Option<(Solution, usize)>, RrmError> {
        match solve_rrm(r) {
            Ok(sol) => {
                let est = estimate(&sol);
                Ok(Some((sol, est)))
            }
            // "This r is below the solver's minimum output size" is an
            // expected probe outcome; the search just moves to a larger r.
            Err(RrmError::OutputSizeTooSmall { .. }) => Ok(None),
            // Everything else — notably `Internal` contract violations —
            // must surface, not be mistaken for infeasibility.
            Err(e) => Err(e),
        }
    };

    // Exponential phase: find any feasible size, remembering the largest
    // size already proven infeasible so the binary phase does not re-probe
    // below it (the same scheme as the MDRRR and 2DRRR searches).
    let mut hi = 1usize;
    let mut largest_infeasible = 0usize;
    let mut feasible: Option<(usize, Solution)> = None;
    loop {
        if let Some((sol, est)) = attempt(hi)? {
            if est <= k {
                feasible = Some((hi, sol));
                break;
            }
        }
        if hi >= n {
            break;
        }
        largest_infeasible = hi;
        hi = (hi * 2).min(n);
    }
    let (mut hi, mut best) = match feasible {
        Some((r, sol)) => (r, sol),
        None => {
            return Err(RrmError::Unsupported(format!(
                "{name} could not reach rank-regret <= {k} even with r = {n}"
            )))
        }
    };

    // Binary phase: shrink to the smallest feasible size.
    let mut lo = largest_infeasible + 1;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match attempt(mid)? {
            Some((sol, est)) if est <= k => {
                hi = mid;
                best = sol;
            }
            _ => lo = mid + 1,
        }
    }
    Ok(best)
}

/// Options for [`BruteForceSolver`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BruteForceOptions {
    /// Directions sampled to evaluate each candidate subset.
    pub samples: usize,
    /// RNG seed for the direction sample.
    pub seed: u64,
    /// Refuse datasets larger than this (subset enumeration blows up).
    pub max_tuples: usize,
    /// Data-parallelism for the per-direction rank tables. Engine-level
    /// contexts ([`SolverCtx`]) override the default.
    pub exec: ExecPolicy,
}

impl Default for BruteForceOptions {
    fn default() -> Self {
        Self { samples: 4096, seed: 0xB01_DFACE, max_tuples: 20, exec: ExecPolicy::default() }
    }
}

/// Exhaustive search over candidate subsets, the reference implementation
/// behind tests and the parity harness. Exact over its sampled direction
/// set; only usable on tiny datasets (`n ≤ max_tuples`).
#[derive(Debug, Clone, Default)]
pub struct BruteForceSolver {
    pub options: BruteForceOptions,
}

impl BruteForceSolver {
    /// Per-direction ranks of every tuple: `ranks[dir][tuple]`.
    ///
    /// Directions are drawn sequentially (the RNG stream is part of the
    /// algorithm's identity), then the `O(n²)`-per-direction rank counting
    /// — the table's dominant cost — is chunked over the exec policy's
    /// threads. Per-direction rows are independent, so the table is
    /// identical at any thread count.
    fn rank_table(&self, data: &Dataset, space: &dyn UtilitySpace, m: usize) -> Vec<Vec<usize>> {
        let mut rng = StdRng::seed_from_u64(self.options.seed);
        let dirs: Vec<Vec<f64>> = (0..m).map(|_| space.sample_direction(&mut rng)).collect();
        let n = data.n();
        let soa = data.soa();
        // O(n²) rank counting dominates each direction's cost.
        let chunk = rrm_par::adaptive_chunk(dirs.len(), n * n);
        let per_chunk =
            rrm_par::par_chunks(&dirs, chunk, self.options.exec.parallelism, |_, dirs_chunk| {
                let mut scratch = crate::kernel::ScoreScratch::new();
                let mut rows = vec![Vec::new(); dirs_chunk.len()];
                crate::kernel::for_each_scores(soa, dirs_chunk, &mut scratch, |di, scores| {
                    rows[di] = (0..n as u32).map(|i| rank::rank_of_index(scores, i)).collect();
                });
                rows
            });
        per_chunk.into_iter().flatten().collect()
    }

    /// Best subset of size ≤ `r`: minimal worst-case (over directions)
    /// best-member rank. Returns `(indices, regret)`.
    fn best_subset(ranks: &[Vec<usize>], n: usize, r: usize) -> (Vec<u32>, usize) {
        let r = r.min(n);
        let mut best_set: Vec<u32> = Vec::new();
        let mut best_regret = usize::MAX;
        // Enumerate subsets of size exactly r (regret is monotone in set
        // growth, so smaller subsets never beat the best r-subset).
        let mut subset: Vec<u32> = (0..r as u32).collect();
        loop {
            let mut worst = 0usize;
            for per_dir in ranks {
                let best_rank = subset.iter().map(|&i| per_dir[i as usize]).min().expect("r >= 1");
                worst = worst.max(best_rank);
                if worst >= best_regret {
                    break; // cannot beat the incumbent
                }
            }
            if worst < best_regret {
                best_regret = worst;
                best_set = subset.clone();
            }
            // Next lexicographic r-combination of 0..n.
            let mut i = r;
            loop {
                if i == 0 {
                    return (best_set, best_regret);
                }
                i -= 1;
                if (subset[i] as usize) < n - (r - i) {
                    subset[i] += 1;
                    for j in i + 1..r {
                        subset[j] = subset[j - 1] + 1;
                    }
                    break;
                }
            }
        }
    }

    fn check_size(&self, data: &Dataset) -> Result<(), RrmError> {
        if data.n() > self.options.max_tuples {
            return Err(RrmError::Unsupported(format!(
                "brute force enumerates subsets; n = {} exceeds max_tuples = {}",
                data.n(),
                self.options.max_tuples
            )));
        }
        Ok(())
    }

    /// A copy of this solver with the context's execution policy applied
    /// (an explicit engine policy overrides the options' default).
    fn with_ctx(&self, ctx: &SolverCtx) -> BruteForceSolver {
        let mut options = self.options;
        options.exec = ctx.exec.or(options.exec);
        BruteForceSolver { options }
    }
}

impl Solver for BruteForceSolver {
    fn algorithm(&self) -> Algorithm {
        Algorithm::BruteForce
    }

    fn prepare_ctx(
        &self,
        data: &Dataset,
        space: &dyn UtilitySpace,
        ctx: &SolverCtx,
    ) -> Result<Box<dyn PreparedSolver>, RrmError> {
        self.check_size(data)?;
        self.ensure_supported(data, space)?;
        Ok(Box::new(PreparedBruteForce {
            options: self.with_ctx(ctx).options,
            data: data.clone(),
            space: space.clone_box(),
            tables: Mutex::new(HashMap::new()),
        }))
    }
}

/// [`BruteForceSolver`] bound to one dataset: the per-direction rank table
/// (the expensive `O(m · n log n)` part) is computed once per sample count
/// and shared by every query; each query is then just the subset
/// enumeration.
pub struct PreparedBruteForce {
    options: BruteForceOptions,
    data: Dataset,
    space: Box<dyn UtilitySpace>,
    /// Rank tables keyed by the effective sample count `m` (the budget can
    /// override the option, so different queries may need different
    /// tables; each is deterministic per `m`).
    tables: Mutex<HashMap<usize, Arc<Vec<Vec<usize>>>>>,
}

impl PreparedBruteForce {
    fn table(&self, budget: &Budget) -> Arc<Vec<Vec<usize>>> {
        let m = budget.samples.unwrap_or(self.options.samples).max(1);
        if let Some(table) = self.tables.lock().expect("rank-table cache poisoned").get(&m) {
            return table.clone();
        }
        // Compute outside the lock: concurrent misses duplicate the
        // deterministic work instead of blocking each other.
        let solver = BruteForceSolver { options: self.options };
        let table = Arc::new(solver.rank_table(&self.data, self.space.as_ref(), m));
        cache_bounded(
            &mut self.tables.lock().expect("rank-table cache poisoned"),
            m,
            table,
            PREPARED_CACHE_CAP,
        )
    }
}

impl PreparedSolver for PreparedBruteForce {
    fn algorithm(&self) -> Algorithm {
        Algorithm::BruteForce
    }

    fn dataset(&self) -> &Dataset {
        &self.data
    }

    fn solve_rrm(&self, r: usize, budget: &Budget) -> Result<Solution, RrmError> {
        if r == 0 {
            return Err(RrmError::OutputSizeTooSmall { requested: 0, minimum: 1 });
        }
        let ranks = self.table(budget);
        let (set, regret) = BruteForceSolver::best_subset(&ranks, self.data.n(), r);
        Solution::new(set, Some(regret), Algorithm::BruteForce, &self.data)
    }

    fn solve_rrr(&self, k: usize, budget: &Budget) -> Result<Solution, RrmError> {
        if k == 0 {
            return Err(RrmError::Unsupported("rank-regret thresholds start at 1".into()));
        }
        let ranks = self.table(budget);
        for r in 1..=self.data.n() {
            let (set, regret) = BruteForceSolver::best_subset(&ranks, self.data.n(), r);
            if regret <= k {
                return Solution::new(set, Some(regret), Algorithm::BruteForce, &self.data);
            }
        }
        Err(RrmError::Internal("brute force failed to reach regret 1 with the full dataset".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{FullSpace, WeakRankingSpace};

    /// The default execution context, for fresh-handle solves in tests.
    fn ctx() -> SolverCtx {
        SolverCtx::default()
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
    fn rrr_search_propagates_internal_errors() {
        // The RRR-via-RRM fallback must surface a misbehaving inner
        // solver's Internal error, not translate it into "infeasible".
        let data = table1();
        let err = rrr_via_rrm_search_with(
            "broken",
            &data,
            3,
            &FullSpace::new(2),
            &Budget::with_samples(16),
            ExecPolicy::default(),
            // Empty output: the contract violation Solution::new types.
            |_| Solution::new(vec![], None, Algorithm::Mdrc, &data),
        )
        .unwrap_err();
        assert!(matches!(&err, RrmError::Internal(msg) if msg.contains("empty")), "{err}");
    }

    #[test]
    fn dim_range_contains() {
        assert!(DimRange::exactly(2).contains(2));
        assert!(!DimRange::exactly(2).contains(3));
        assert!(DimRange::at_least(2).contains(17));
        assert!(!DimRange::at_least(2).contains(1));
        assert_eq!(DimRange::exactly(2).to_string(), "d = 2");
        assert_eq!(DimRange::at_least(2).to_string(), "d >= 2");
    }

    #[test]
    fn budget_default_is_unlimited() {
        assert_eq!(Budget::default(), Budget::UNLIMITED);
        assert_eq!(Budget::with_samples(100).samples, Some(100));
    }

    #[test]
    fn effective_cutoff_folds_counters() {
        use std::time::Duration;
        // Unlimited: no cutoff at all.
        assert_eq!(Budget::UNLIMITED.effective_cutoff(), Cutoff::None);
        // A samples override is a frame parameter, not a work counter.
        assert_eq!(Budget::with_samples(10).effective_cutoff(), Cutoff::None);
        // Any set work counter folds into the deterministic counter cutoff.
        let b = Budget { max_enumerations: Some(5), ..Budget::UNLIMITED };
        assert_eq!(b.effective_cutoff(), Cutoff::CounterBudget);
        let b = Budget { max_lp_calls: Some(5), ..Budget::UNLIMITED };
        assert_eq!(b.effective_cutoff(), Cutoff::CounterBudget);
        // An explicit cutoff wins over the counter fold.
        let b = Budget {
            max_enumerations: Some(5),
            cutoff: Cutoff::TimeBudget(Duration::from_millis(50)),
            ..Budget::UNLIMITED
        };
        assert_eq!(b.effective_cutoff(), Cutoff::TimeBudget(Duration::from_millis(50)));
        assert_eq!(
            Budget::with_cutoff(Cutoff::GapAtMost(0.25)).effective_cutoff(),
            Cutoff::GapAtMost(0.25)
        );
    }

    #[test]
    fn brute_force_finds_the_paper_example_optimum() {
        // Table I: the best single representative is t3 (index 2) with
        // rank-regret 3.
        let solver = BruteForceSolver::default();
        let sol = solver
            .solve_rrm_ctx(&table1(), 1, &FullSpace::new(2), &Budget::default(), &ctx())
            .unwrap();
        assert_eq!(sol.indices, vec![2]);
        assert_eq!(sol.certified_regret, Some(3));
        assert_eq!(sol.algorithm, Algorithm::BruteForce);
    }

    #[test]
    fn brute_force_rrr_matches_duality() {
        let solver = BruteForceSolver::default();
        // Threshold 3 is achievable with one tuple (t3), so RRR returns 1.
        let sol = solver
            .solve_rrr_ctx(&table1(), 3, &FullSpace::new(2), &Budget::default(), &ctx())
            .unwrap();
        assert_eq!(sol.size(), 1);
        // Threshold 1 needs every envelope tuple.
        let sol = solver
            .solve_rrr_ctx(&table1(), 1, &FullSpace::new(2), &Budget::default(), &ctx())
            .unwrap();
        assert_eq!(sol.certified_regret, Some(1));
        assert!(sol.size() >= 2);
    }

    #[test]
    fn brute_force_respects_restricted_space() {
        let solver = BruteForceSolver::default();
        let sol = solver
            .solve_rrm_ctx(&table1(), 1, &WeakRankingSpace::new(2, 1), &Budget::default(), &ctx())
            .unwrap();
        assert!(sol.certified_regret.unwrap() <= 3);
    }

    #[test]
    fn brute_force_rejects_large_inputs() {
        let rows: Vec<[f64; 2]> = (0..50).map(|i| [i as f64, 50.0 - i as f64]).collect();
        let data = Dataset::from_rows(&rows).unwrap();
        let solver = BruteForceSolver::default();
        let err = solver
            .solve_rrm_ctx(&data, 2, &FullSpace::new(2), &Budget::default(), &ctx())
            .unwrap_err();
        assert!(matches!(err, RrmError::Unsupported(_)));
    }

    #[test]
    fn ensure_supported_reports_uniform_errors() {
        let solver = BruteForceSolver::default();
        // Space dimension mismatch.
        let err = solver.ensure_supported(&table1(), &FullSpace::new(3)).unwrap_err();
        assert!(matches!(err, RrmError::DimensionMismatch { expected: 2, got: 3 }));
    }

    #[test]
    fn cache_bounded_stops_growing_at_the_cap() {
        let mut map: HashMap<usize, usize> = HashMap::new();
        for key in 0..10 {
            assert_eq!(cache_bounded(&mut map, key, key * 10, 3), key * 10);
        }
        assert_eq!(map.len(), 3, "entries beyond the cap must not be retained");
        // Cached keys keep returning the stored value...
        assert_eq!(cache_bounded(&mut map, 0, 999, 3), 0);
        // ...and uncached keys still compute correctly, just unretained.
        assert_eq!(cache_bounded(&mut map, 42, 420, 3), 420);
        assert_eq!(map.len(), 3);
    }

    #[test]
    fn warm_brute_force_handle_matches_fresh_handles() {
        let solver = BruteForceSolver::default();
        let space = FullSpace::new(2);
        let budget = Budget::with_samples(256);
        let prepared = solver.prepare(&table1(), &space).unwrap();
        assert_eq!(prepared.algorithm(), Algorithm::BruteForce);
        assert_eq!(prepared.dataset().n(), 7);
        // One warm handle answers many r and k values, identically to a
        // fresh handle per call.
        for r in 1..=4 {
            let fresh = solver.solve_rrm_ctx(&table1(), r, &space, &budget, &ctx()).unwrap();
            assert_eq!(prepared.solve_rrm(r, &budget).unwrap(), fresh, "r={r}");
        }
        for k in 1..=3 {
            let fresh = solver.solve_rrr_ctx(&table1(), k, &space, &budget, &ctx()).unwrap();
            assert_eq!(prepared.solve_rrr(k, &budget).unwrap(), fresh, "k={k}");
        }
        // Zero parameters stay typed errors on the prepared path too.
        assert!(matches!(prepared.solve_rrm(0, &budget), Err(RrmError::OutputSizeTooSmall { .. })));
        assert!(matches!(prepared.solve_rrr(0, &budget), Err(RrmError::Unsupported(_))));
    }

    #[test]
    fn prepare_rejects_unsupported_inputs() {
        // Oversized dataset and capability mismatches fail at prepare time,
        // so a handle that exists can always answer.
        let rows: Vec<[f64; 2]> = (0..50).map(|i| [i as f64, 50.0 - i as f64]).collect();
        let big = Dataset::from_rows(&rows).unwrap();
        let solver = BruteForceSolver::default();
        assert!(matches!(solver.prepare(&big, &FullSpace::new(2)), Err(RrmError::Unsupported(_))));
        assert!(matches!(
            solver.prepare(&table1(), &FullSpace::new(3)),
            Err(RrmError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn brute_force_is_bit_identical_across_thread_counts() {
        use crate::exec::ExecPolicy;
        let solver = BruteForceSolver::default();
        let space = FullSpace::new(2);
        let budget = Budget::with_samples(128);
        let baseline = solver
            .solve_rrm_ctx(
                &table1(),
                2,
                &space,
                &budget,
                &SolverCtx::with_exec(ExecPolicy::sequential()),
            )
            .unwrap();
        for threads in [2usize, 7] {
            let ctx = SolverCtx::with_exec(ExecPolicy::threads(threads));
            assert_eq!(
                solver.solve_rrm_ctx(&table1(), 2, &space, &budget, &ctx).unwrap(),
                baseline,
                "threads={threads}"
            );
            let prepared = solver.prepare_ctx(&table1(), &space, &ctx).unwrap();
            assert_eq!(prepared.solve_rrm(2, &budget).unwrap(), baseline, "threads={threads}");
        }
    }

    #[test]
    fn budget_sample_override_is_honoured() {
        let solver = BruteForceSolver::default();
        // One sampled direction: the certificate is that direction's rank.
        let sol = solver
            .solve_rrm_ctx(&table1(), 1, &FullSpace::new(2), &Budget::with_samples(1), &ctx())
            .unwrap();
        assert!(sol.certified_regret.unwrap() <= 3);
    }
}
