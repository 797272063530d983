//! Sampled-ε approximate solving: the confidence-certified answer tier.
//!
//! For `n` in the millions even preparing an exact solver is expensive.
//! This module promotes the direction-sampling estimators that grew up in
//! `rrm_eval` into first-class *solvers*: draw `m` utility directions from
//! the query space, solve the covering problem exactly over that sample,
//! and report the set's measured worst rank over the sample as its regret.
//!
//! # Confidence semantics
//!
//! For a fixed set `S`, each sampled direction is an independent Bernoulli
//! observation of the event "the rank of `S` under this direction exceeds
//! the reported `k̂`". Over the returned set the observed rate is 0 (by
//! construction `k̂` is the sampled maximum), so by Hoeffding's inequality
//! with `m = ceil(ln(2/δ) / (2ε²))` draws, with probability at least
//! `1 - δ` over the sample, the true direction-space measure on which the
//! rank of `S` exceeds `k̂` is at most `ε`. That statement rides the
//! solution as [`TerminatedBy::Sampled`]`{ eps, delta, directions }`; it is
//! a fidelity certificate, not an early-stop marker.
//!
//! # Determinism
//!
//! Directions are drawn *sequentially* from a seeded [`StdRng`] (the
//! stream is part of the answer's identity); only the per-direction
//! scoring/top-k work is chunked over threads, with fixed chunk boundaries
//! and in-order merges per the [`rrm_par`] contract. Greedy cover runs
//! sequentially under a strict total order. Answers are therefore
//! bit-identical at any thread count (`tests/approx.rs` enforces 1/2/7).

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::anytime::{Bounds, TerminatedBy};
use crate::dataset::Dataset;
use crate::error::RrmError;
use crate::exec::{ExecPolicy, Parallelism, SolverCtx};
use crate::kernel;
use crate::problem::{Algorithm, Solution};
use crate::rank;
use crate::solver::{Budget, PreparedSolver, Solver};
use crate::space::UtilitySpace;

/// Default `ε`: tolerated measure of the direction space on which the
/// reported regret may be exceeded.
pub const DEFAULT_EPS: f64 = 0.05;
/// Default `δ`: probability (over the direction draw) that the `ε`
/// statement fails.
pub const DEFAULT_DELTA: f64 = 0.05;
/// Direction-stream seed for [`SampledSolver`] (and `approx::reduce`):
/// constant so sampled answers are reproducible across runs and layers.
pub const DEFAULT_SEED: u64 = 0x5A3D_5EED;
/// Floor on the sampled direction count: even very loose `(ε, δ)` pairs
/// probe a handful of directions so the cover problem is non-degenerate.
const MIN_DIRECTIONS: usize = 16;

/// Hoeffding sample size `m = ceil(ln(2/δ) / (2ε²))` for a one-sided
/// `(ε, δ)` statement about an exceedance rate.
pub fn hoeffding_directions(eps: f64, delta: f64) -> usize {
    let m = ((2.0 / delta).ln() / (2.0 * eps * eps)).ceil();
    (m as usize).max(MIN_DIRECTIONS)
}

/// A sampled-ε fidelity request: the `(ε, δ)` pair of the Hoeffding
/// confidence statement the answer must carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxSpec {
    /// Tolerated exceedance measure, in `(0, 1)`.
    pub eps: f64,
    /// Failure probability of the statement, in `(0, 1)`.
    pub delta: f64,
}

impl Default for ApproxSpec {
    fn default() -> Self {
        Self { eps: DEFAULT_EPS, delta: DEFAULT_DELTA }
    }
}

impl ApproxSpec {
    /// A validated spec (both parameters must lie strictly in `(0, 1)`).
    pub fn new(eps: f64, delta: f64) -> Result<Self, RrmError> {
        let spec = Self { eps, delta };
        spec.validate()?;
        Ok(spec)
    }

    /// Reject parameters outside `(0, 1)` (or non-finite).
    pub fn validate(&self) -> Result<(), RrmError> {
        for (name, v) in [("eps", self.eps), ("delta", self.delta)] {
            if !v.is_finite() || v <= 0.0 || v >= 1.0 {
                return Err(RrmError::Unsupported(format!(
                    "approx {name} must lie strictly between 0 and 1, got {v}"
                )));
            }
        }
        Ok(())
    }

    /// The Hoeffding direction count this spec requires.
    pub fn directions(&self) -> usize {
        hoeffding_directions(self.eps, self.delta)
    }
}

/// Requested answer fidelity, the new first-class request dimension:
/// exact solving (the default) or the sampled-ε tier.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Fidelity {
    /// Exact within the chosen algorithm's frame (the pre-existing tier).
    #[default]
    Exact,
    /// Sampled-ε with a Hoeffding `(eps, delta)` confidence statement.
    Approx { eps: f64, delta: f64 },
}

impl Fidelity {
    /// The approximation spec, when this fidelity is approximate.
    pub fn spec(&self) -> Option<ApproxSpec> {
        match *self {
            Fidelity::Exact => None,
            Fidelity::Approx { eps, delta } => Some(ApproxSpec { eps, delta }),
        }
    }

    pub fn is_approx(&self) -> bool {
        matches!(self, Fidelity::Approx { .. })
    }

    /// Wire/report name: `"exact"` or `"approx"`.
    pub fn name(&self) -> &'static str {
        match self {
            Fidelity::Exact => "exact",
            Fidelity::Approx { .. } => "approx",
        }
    }
}

/// Draw `m` directions from `space`, sequentially from one seeded stream
/// (deterministic regardless of thread count).
pub fn sample_directions(space: &dyn UtilitySpace, m: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m).map(|_| space.sample_direction(&mut rng)).collect()
}

/// Per-direction top-`k` tuple indices (best first, ties by index), in
/// direction order. Scoring is chunked over `pol`; chunk boundaries depend
/// only on the input sizes and results are concatenated in chunk order, so
/// the output is identical at any thread count.
pub fn per_direction_top(
    data: &Dataset,
    dirs: &[Vec<f64>],
    k: usize,
    pol: Parallelism,
) -> Vec<Vec<u32>> {
    assert!(k >= 1, "top-k needs k >= 1");
    let soa = data.soa();
    let chunk = rrm_par::adaptive_chunk(dirs.len(), data.n() * data.dim());
    let per_chunk = rrm_par::par_chunks(dirs, chunk, pol, |_, chunk_dirs| {
        let mut scores: Vec<f64> = Vec::new();
        let mut scratch = rank::TopKScratch::new();
        let mut out = Vec::with_capacity(chunk_dirs.len());
        for u in chunk_dirs {
            kernel::scores_into(soa, u, &mut scores);
            let mut top = Vec::new();
            rank::top_k_into(&scores, k, &mut scratch, &mut top);
            out.push(top);
        }
        out
    });
    per_chunk.into_iter().flatten().collect()
}

/// Greedy set cover over the sampled directions: repeatedly pick the tuple
/// present in the most still-uncovered top lists (ties broken by smallest
/// tuple index — a strict total order, so the pick is deterministic no
/// matter how the candidate map is iterated). Returns the picks and
/// whether every direction got covered within `cap`.
fn greedy_cover(tops: &[&[u32]], cap: Option<usize>) -> (Vec<u32>, bool) {
    let m = tops.len();
    let mut covered = vec![false; m];
    let mut remaining = m;
    let mut count: HashMap<u32, usize> = HashMap::new();
    let mut dirs_of: HashMap<u32, Vec<u32>> = HashMap::new();
    for (dj, top) in tops.iter().enumerate() {
        for &i in *top {
            *count.entry(i).or_insert(0) += 1;
            dirs_of.entry(i).or_default().push(dj as u32);
        }
    }
    let mut picks = Vec::new();
    while remaining > 0 {
        if cap.is_some_and(|c| picks.len() >= c) {
            return (picks, false);
        }
        let (&best, _) = count
            .iter()
            .filter(|&(_, &c)| c > 0)
            .max_by(|(ia, ca), (ib, cb)| ca.cmp(cb).then(ib.cmp(ia)))
            .expect("an uncovered direction always has an unpicked top tuple");
        picks.push(best);
        for dj in dirs_of.remove(&best).unwrap_or_default() {
            let dj = dj as usize;
            if !covered[dj] {
                covered[dj] = true;
                remaining -= 1;
                for t in tops[dj] {
                    if let Some(c) = count.get_mut(t) {
                        *c = c.saturating_sub(1);
                    }
                }
            }
        }
        count.remove(&best);
    }
    (picks, true)
}

/// The sampled RRM solve with every knob explicit; [`SampledSolver`] and
/// the engine's approximate dispatch both route here. `samples` overrides
/// the Hoeffding direction count derived from `spec` (the `Budget.samples`
/// contract every randomized solver honours).
pub fn solve_rrm_sampled_with(
    data: &Dataset,
    r: usize,
    space: &dyn UtilitySpace,
    spec: ApproxSpec,
    samples: Option<usize>,
    seed: u64,
    exec: ExecPolicy,
) -> Result<Solution, RrmError> {
    if r == 0 {
        return Err(RrmError::OutputSizeTooSmall { requested: 0, minimum: 1 });
    }
    if space.dim() != data.dim() {
        return Err(RrmError::DimensionMismatch { expected: data.dim(), got: space.dim() });
    }
    spec.validate()?;
    let n = data.n();
    let m = samples.unwrap_or_else(|| spec.directions()).max(1);
    let dirs = sample_directions(space, m, seed);
    let pol = exec.parallelism;

    // Doubling phase over the rank threshold k: find some k whose greedy
    // cover fits in r picks. Each round recomputes the per-direction
    // top-k lists (O(m·n) via quickselect); the binary phase below never
    // rescoreds — top-k lists are nested, so smaller thresholds are
    // prefixes of the feasible round's lists.
    let mut k = 1usize;
    let mut prev_infeasible = 0usize;
    let (tops, k_feasible, picks) = loop {
        let tops = per_direction_top(data, &dirs, k, pol);
        let slices: Vec<&[u32]> = tops.iter().map(|t| t.as_slice()).collect();
        let (picks, full) = greedy_cover(&slices, Some(r));
        if full {
            break (tops, k, picks);
        }
        if k >= n {
            // At k = n every list is the whole dataset, so one pick covers
            // everything; reaching here means a broken invariant.
            return Err(RrmError::Internal("sampled greedy cover infeasible even at k = n".into()));
        }
        prev_infeasible = k;
        k = (k * 2).min(n);
    };

    // Binary phase: tightest k the greedy cover still fits at, slicing
    // prefixes of the feasible round's lists.
    let mut lo = prev_infeasible + 1;
    let mut hi = k_feasible;
    let mut best = picks;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let slices: Vec<&[u32]> = tops.iter().map(|t| &t[..mid.min(t.len())]).collect();
        match greedy_cover(&slices, Some(r)) {
            (picks, true) => {
                hi = mid;
                best = picks;
            }
            _ => lo = mid + 1,
        }
    }

    // The reported regret is the *measured* sampled maximum of the chosen
    // set — sound regardless of how the heuristic search got there.
    let k_hat = rank::max_rank_regret(data, &dirs, &best, pol).expect("m >= 1");
    Ok(Solution::new(best, Some(k_hat), Algorithm::Sampled, data)?
        .with_bounds(Bounds { lower: 1, upper: k_hat })
        .with_termination(TerminatedBy::Sampled {
            eps: spec.eps,
            delta: spec.delta,
            directions: m,
        }))
}

/// The sampled RRR solve: smallest greedy cover at threshold `k` over the
/// sampled directions (every direction is covered by its own rank-1 tuple,
/// so the cover always exists). See [`solve_rrm_sampled_with`] for the
/// knob and determinism contracts.
pub fn solve_rrr_sampled_with(
    data: &Dataset,
    k: usize,
    space: &dyn UtilitySpace,
    spec: ApproxSpec,
    samples: Option<usize>,
    seed: u64,
    exec: ExecPolicy,
) -> Result<Solution, RrmError> {
    if k == 0 {
        return Err(RrmError::Unsupported("rank-regret thresholds start at 1".into()));
    }
    if space.dim() != data.dim() {
        return Err(RrmError::DimensionMismatch { expected: data.dim(), got: space.dim() });
    }
    spec.validate()?;
    let m = samples.unwrap_or_else(|| spec.directions()).max(1);
    let dirs = sample_directions(space, m, seed);
    let pol = exec.parallelism;
    let tops = per_direction_top(data, &dirs, k.min(data.n()), pol);
    let slices: Vec<&[u32]> = tops.iter().map(|t| t.as_slice()).collect();
    let (picks, full) = greedy_cover(&slices, None);
    debug_assert!(full, "uncapped greedy cover always completes");
    let k_hat = rank::max_rank_regret(data, &dirs, &picks, pol).expect("m >= 1");
    Ok(Solution::new(picks, Some(k_hat), Algorithm::Sampled, data)?
        .with_bounds(Bounds { lower: 1, upper: k_hat })
        .with_termination(TerminatedBy::Sampled {
            eps: spec.eps,
            delta: spec.delta,
            directions: m,
        }))
}

/// Options for [`SampledSolver`]: the fallback fidelity when the budget
/// carries none, the direction-stream seed, and the execution policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledOptions {
    /// Fidelity used when the `Budget` carries no [`ApproxSpec`].
    pub spec: ApproxSpec,
    /// Seed of the sequential direction stream (part of the answer's
    /// identity, like every randomized solver's seed in this workspace).
    pub seed: u64,
    /// Data-parallelism for scoring/top-k. Engine-level [`SolverCtx`]
    /// policies override this default.
    pub exec: ExecPolicy,
}

impl Default for SampledOptions {
    fn default() -> Self {
        Self { spec: ApproxSpec::default(), seed: DEFAULT_SEED, exec: ExecPolicy::default() }
    }
}

/// The sampled-ε tier as a registered [`Solver`]: `Algorithm::Sampled` in
/// the engine roster, dispatched like any exact algorithm but answering
/// with a Hoeffding-certified sampled solution.
#[derive(Debug, Clone, Default)]
pub struct SampledSolver {
    pub options: SampledOptions,
}

impl Solver for SampledSolver {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Sampled
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
        // Warm the column-major scoring layout now: it is the only
        // dataset-shaped state the sampled tier reuses across queries.
        let _ = data.soa();
        Ok(Box::new(PreparedSampled { options, data: data.clone(), space: space.clone_box() }))
    }
}

/// [`SampledSolver`] bound to one dataset + space. The SoA scoring layout
/// is built at prepare time and shared (via the dataset's internal `Arc`)
/// by every query; directions are re-drawn per query from the constant
/// seed, so a warm handle answers bit for bit like a fresh one.
pub struct PreparedSampled {
    options: SampledOptions,
    data: Dataset,
    space: Box<dyn UtilitySpace>,
}

impl PreparedSolver for PreparedSampled {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Sampled
    }

    fn dataset(&self) -> &Dataset {
        &self.data
    }

    fn solve_rrm(&self, r: usize, budget: &Budget) -> Result<Solution, RrmError> {
        let spec = budget.approx.unwrap_or(self.options.spec);
        solve_rrm_sampled_with(
            &self.data,
            r,
            self.space.as_ref(),
            spec,
            budget.samples,
            self.options.seed,
            self.options.exec,
        )
    }

    fn solve_rrr(&self, k: usize, budget: &Budget) -> Result<Solution, RrmError> {
        let spec = budget.approx.unwrap_or(self.options.spec);
        solve_rrr_sampled_with(
            &self.data,
            k,
            self.space.as_ref(),
            spec,
            budget.samples,
            self.options.seed,
            self.options.exec,
        )
    }
}

/// A dataset shrunk by sampled top-rank screening, with the certificate
/// needed to transfer solutions back to the full data.
#[derive(Debug, Clone)]
pub struct Reduced {
    /// The reduced dataset (rows of `kept`, in ascending original order).
    pub data: Dataset,
    /// Original indices of the kept rows, ascending.
    pub kept: Vec<u32>,
    /// The per-direction depth `L` the reduction certifies: for every
    /// sampled direction and every `k ≤ L`, the top-`k` of the reduced
    /// data maps (through `kept`) to exactly the top-`k` of the full data.
    pub rank_fidelity: usize,
    /// Number of sampled directions the screen used.
    pub directions: usize,
}

impl Reduced {
    /// Map reduced-row indices back to original dataset indices.
    pub fn original_indices(&self, reduced: &[u32]) -> Vec<u32> {
        reduced.iter().map(|&i| self.kept[i as usize]).collect()
    }
}

/// Shrink `data` to the union of per-direction top-`per_direction` tuples
/// over `m` sampled directions — the coreset fed to exact solvers on the
/// approximate path.
///
/// Candidate-loss certificate: scores are per-tuple, so dropping rows
/// never changes a kept row's score, and `kept` is ascending so the
/// index tie-break order is preserved. Hence for every *sampled* direction
/// `u` and every `k ≤ per_direction`, `top_k(u, reduced)` maps through
/// [`Reduced::original_indices`] to `top_k(u, full)` — any solution whose
/// sampled regret is at most `per_direction` transfers with its sampled
/// regret unchanged. Directions outside the sample are covered only by the
/// Hoeffding statement of the re-evaluation the engine performs after
/// solving on the coreset.
pub fn reduce(
    data: &Dataset,
    space: &dyn UtilitySpace,
    per_direction: usize,
    m: usize,
    seed: u64,
    exec: ExecPolicy,
) -> Result<Reduced, RrmError> {
    if per_direction == 0 {
        return Err(RrmError::Unsupported("reduce needs a per-direction depth >= 1".into()));
    }
    if m == 0 {
        return Err(RrmError::Unsupported("reduce needs at least one direction".into()));
    }
    if space.dim() != data.dim() {
        return Err(RrmError::DimensionMismatch { expected: data.dim(), got: space.dim() });
    }
    let dirs = sample_directions(space, m, seed);
    let depth = per_direction.min(data.n());
    let tops = per_direction_top(data, &dirs, depth, exec.parallelism);
    let mut kept: Vec<u32> = tops.into_iter().flatten().collect();
    kept.sort_unstable();
    kept.dedup();
    Ok(Reduced { data: data.subset(&kept), kept, rank_fidelity: depth, directions: m })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::FullSpace;

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
    fn hoeffding_count_matches_the_formula() {
        // eps = 0.1, delta = 0.05: ln(40) / 0.02 = 184.44… -> 185.
        assert_eq!(hoeffding_directions(0.1, 0.05), 185);
        // Loose parameters hit the floor.
        assert_eq!(hoeffding_directions(0.5, 0.5), MIN_DIRECTIONS);
        // Tighter eps dominates quadratically.
        assert!(hoeffding_directions(0.01, 0.05) > 50 * hoeffding_directions(0.1, 0.05));
        assert_eq!(ApproxSpec { eps: 0.1, delta: 0.05 }.directions(), 185);
    }

    #[test]
    fn spec_validation_rejects_out_of_range() {
        assert!(ApproxSpec::new(0.1, 0.05).is_ok());
        for (eps, delta) in [(0.0, 0.1), (1.0, 0.1), (0.1, 0.0), (0.1, 1.0), (-0.2, 0.1)] {
            let err = ApproxSpec::new(eps, delta).unwrap_err();
            assert!(err.to_string().contains("between 0 and 1"), "{eps},{delta}: {err}");
        }
        assert!(ApproxSpec::new(f64::NAN, 0.5).is_err());
    }

    #[test]
    fn fidelity_roundtrips_its_spec() {
        assert_eq!(Fidelity::default(), Fidelity::Exact);
        assert_eq!(Fidelity::Exact.spec(), None);
        assert!(!Fidelity::Exact.is_approx());
        assert_eq!(Fidelity::Exact.name(), "exact");
        let f = Fidelity::Approx { eps: 0.1, delta: 0.02 };
        assert_eq!(f.spec(), Some(ApproxSpec { eps: 0.1, delta: 0.02 }));
        assert!(f.is_approx());
        assert_eq!(f.name(), "approx");
    }

    #[test]
    fn greedy_cover_is_deterministic_and_minimal_on_small_cases() {
        // Directions 0,1 covered by tuple 3; direction 2 only by tuple 7.
        let tops: Vec<&[u32]> = vec![&[3, 5], &[3, 9], &[7]];
        let (picks, full) = greedy_cover(&tops, None);
        assert!(full);
        assert_eq!(picks, vec![3, 7]);
        // Capped below the needed size: reports failure.
        let (_, full) = greedy_cover(&tops, Some(1));
        assert!(!full);
        // Ties break to the smallest tuple index.
        let tops: Vec<&[u32]> = vec![&[8, 2], &[2, 8]];
        let (picks, full) = greedy_cover(&tops, Some(1));
        assert!(full);
        assert_eq!(picks, vec![2]);
    }

    #[test]
    fn sampled_rrm_finds_the_paper_optimum_on_table1() {
        let data = table1();
        let spec = ApproxSpec { eps: 0.05, delta: 0.05 };
        let sol = solve_rrm_sampled_with(
            &data,
            1,
            &FullSpace::new(2),
            spec,
            None,
            DEFAULT_SEED,
            ExecPolicy::sequential(),
        )
        .unwrap();
        // Table I: the best single representative is t3 (index 2), regret 3.
        assert_eq!(sol.indices, vec![2]);
        assert_eq!(sol.certified_regret, Some(3));
        assert_eq!(sol.algorithm, Algorithm::Sampled);
        let m = spec.directions();
        assert_eq!(
            sol.terminated_by,
            TerminatedBy::Sampled { eps: 0.05, delta: 0.05, directions: m }
        );
        assert_eq!(sol.bounds, Some(Bounds { lower: 1, upper: 3 }));
    }

    #[test]
    fn sampled_rrr_covers_the_threshold() {
        let data = table1();
        let sol = solve_rrr_sampled_with(
            &data,
            3,
            &FullSpace::new(2),
            ApproxSpec::default(),
            Some(256),
            DEFAULT_SEED,
            ExecPolicy::sequential(),
        )
        .unwrap();
        assert!(sol.certified_regret.unwrap() <= 3);
        assert_eq!(sol.size(), 1, "threshold 3 is achievable with t3 alone");
        // Threshold 1 needs every sampled rank-1 tuple.
        let sol = solve_rrr_sampled_with(
            &data,
            1,
            &FullSpace::new(2),
            ApproxSpec::default(),
            Some(256),
            DEFAULT_SEED,
            ExecPolicy::sequential(),
        )
        .unwrap();
        assert_eq!(sol.certified_regret, Some(1));
        assert!(sol.size() >= 2);
    }

    #[test]
    fn sampled_answers_are_bit_identical_across_thread_counts() {
        let data = table1();
        let solver = SampledSolver::default();
        let space = FullSpace::new(2);
        let budget = Budget::with_samples(128);
        let baseline = solver
            .solve_rrm_ctx(
                &data,
                2,
                &space,
                &budget,
                &SolverCtx::with_exec(ExecPolicy::sequential()),
            )
            .unwrap();
        for threads in [2usize, 7] {
            let ctx = SolverCtx::with_exec(ExecPolicy::threads(threads));
            assert_eq!(
                solver.solve_rrm_ctx(&data, 2, &space, &budget, &ctx).unwrap(),
                baseline,
                "threads={threads}"
            );
            let prepared = solver.prepare_ctx(&data, &space, &ctx).unwrap();
            assert_eq!(prepared.solve_rrm(2, &budget).unwrap(), baseline, "threads={threads}");
        }
    }

    #[test]
    fn budget_spec_overrides_the_solver_default() {
        let data = table1();
        let solver = SampledSolver::default();
        let budget = Budget::with_approx(ApproxSpec { eps: 0.2, delta: 0.2 });
        let sol = solver
            .solve_rrm_ctx(&data, 1, &FullSpace::new(2), &budget, &SolverCtx::default())
            .unwrap();
        match sol.terminated_by {
            TerminatedBy::Sampled { eps, delta, directions } => {
                assert_eq!((eps, delta), (0.2, 0.2));
                assert_eq!(directions, hoeffding_directions(0.2, 0.2));
            }
            other => panic!("expected a sampled certificate, got {other:?}"),
        }
    }

    #[test]
    fn zero_parameters_stay_typed_errors() {
        let data = table1();
        let solver = SampledSolver::default();
        let ctx = SolverCtx::default();
        assert!(matches!(
            solver.solve_rrm_ctx(&data, 0, &FullSpace::new(2), &Budget::UNLIMITED, &ctx),
            Err(RrmError::OutputSizeTooSmall { .. })
        ));
        assert!(matches!(
            solver.solve_rrr_ctx(&data, 0, &FullSpace::new(2), &Budget::UNLIMITED, &ctx),
            Err(RrmError::Unsupported(_))
        ));
        let bad = Budget::with_approx(ApproxSpec { eps: 2.0, delta: 0.1 });
        assert!(matches!(
            solver.solve_rrm_ctx(&data, 1, &FullSpace::new(2), &bad, &ctx),
            Err(RrmError::Unsupported(_))
        ));
    }

    #[test]
    fn reduce_preserves_sampled_top_k_prefixes() {
        let data = table1();
        let space = FullSpace::new(2);
        let depth = 3;
        let m = 64;
        let red = reduce(&data, &space, depth, m, DEFAULT_SEED, ExecPolicy::sequential()).unwrap();
        assert!(red.data.n() <= data.n());
        assert_eq!(red.rank_fidelity, depth);
        assert_eq!(red.directions, m);
        assert!(red.kept.windows(2).all(|w| w[0] < w[1]), "kept must be ascending");
        // The certificate: for every sampled direction and k <= depth, the
        // reduced top-k maps to the full top-k.
        let dirs = sample_directions(&space, m, DEFAULT_SEED);
        for k in 1..=depth {
            let full_tops = per_direction_top(&data, &dirs, k, Parallelism::Sequential);
            let red_tops = per_direction_top(&red.data, &dirs, k, Parallelism::Sequential);
            for (f, r) in full_tops.iter().zip(&red_tops) {
                assert_eq!(&red.original_indices(r), f, "k={k}");
            }
        }
    }

    #[test]
    fn reduce_rejects_degenerate_parameters() {
        let data = table1();
        let space = FullSpace::new(2);
        assert!(reduce(&data, &space, 0, 8, 1, ExecPolicy::sequential()).is_err());
        assert!(reduce(&data, &space, 2, 0, 1, ExecPolicy::sequential()).is_err());
        assert!(reduce(&data, &FullSpace::new(3), 2, 8, 1, ExecPolicy::sequential()).is_err());
    }
}
