//! Trait-driven solver evaluation: run any [`Solver`] and measure what it
//! actually delivers over a utility space — wall-clock, output size, the
//! solver's own certificate, and the sampled rank-regret estimate the
//! paper reports. The bench harness's `measure_solver` is a thin adapter
//! over this, so "evaluate an algorithm" is one call regardless of which
//! of the eight algorithms it is.

use std::time::Instant;

use rrm_core::{Algorithm, Budget, Dataset, PreparedSolver, RrmError, Solver, UtilitySpace};

use crate::rank_regret::estimate_rank_regret;

/// What one solver run delivered.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverReport {
    pub algorithm: Algorithm,
    /// Representative set size.
    pub size: usize,
    /// The solver's own certificate, when its algorithm provides one.
    pub certified_regret: Option<usize>,
    /// Sampled worst rank over the space (the paper's estimator).
    pub estimated_regret: usize,
    /// `estimated_regret` as a percentage of `n` (the paper's
    /// cross-dataset normalization).
    pub estimated_regret_percent: f64,
    /// Wall-clock seconds spent inside the solver.
    pub seconds: f64,
}

fn report(
    sol: &rrm_core::Solution,
    data: &Dataset,
    space: &dyn UtilitySpace,
    eval_samples: usize,
    seed: u64,
    seconds: f64,
) -> SolverReport {
    let estimated = estimate_rank_regret(data, &sol.indices, space, eval_samples, seed).max_rank;
    SolverReport {
        algorithm: sol.algorithm,
        size: sol.size(),
        certified_regret: sol.certified_regret,
        estimated_regret: estimated,
        estimated_regret_percent: 100.0 * estimated as f64 / data.n() as f64,
        seconds,
    }
}

/// Run an RRM query through the trait — a freshly prepared handle, so
/// `seconds` covers preparation plus the query — and evaluate the result.
pub fn evaluate_rrm(
    solver: &dyn Solver,
    data: &Dataset,
    r: usize,
    space: &dyn UtilitySpace,
    budget: &Budget,
    eval_samples: usize,
    seed: u64,
) -> Result<SolverReport, RrmError> {
    let start = Instant::now();
    let sol = solver.solve_rrm_ctx(data, r, space, budget, &rrm_core::SolverCtx::default())?;
    let seconds = start.elapsed().as_secs_f64();
    Ok(report(&sol, data, space, eval_samples, seed, seconds))
}

/// [`evaluate_rrm`]'s RRR counterpart.
pub fn evaluate_rrr(
    solver: &dyn Solver,
    data: &Dataset,
    k: usize,
    space: &dyn UtilitySpace,
    budget: &Budget,
    eval_samples: usize,
    seed: u64,
) -> Result<SolverReport, RrmError> {
    let start = Instant::now();
    let sol = solver.solve_rrr_ctx(data, k, space, budget, &rrm_core::SolverCtx::default())?;
    let seconds = start.elapsed().as_secs_f64();
    Ok(report(&sol, data, space, eval_samples, seed, seconds))
}

/// Run an RRM query through a *prepared* handle and evaluate the result.
/// `seconds` covers only the query — preparation happened earlier and is
/// the caller's to time (the amortization benches report both).
pub fn evaluate_rrm_prepared(
    prepared: &dyn PreparedSolver,
    r: usize,
    space: &dyn UtilitySpace,
    budget: &Budget,
    eval_samples: usize,
    seed: u64,
) -> Result<SolverReport, RrmError> {
    let start = Instant::now();
    let sol = prepared.solve_rrm(r, budget)?;
    let seconds = start.elapsed().as_secs_f64();
    Ok(report(&sol, prepared.dataset(), space, eval_samples, seed, seconds))
}

/// [`evaluate_rrm_prepared`]'s RRR counterpart.
pub fn evaluate_rrr_prepared(
    prepared: &dyn PreparedSolver,
    k: usize,
    space: &dyn UtilitySpace,
    budget: &Budget,
    eval_samples: usize,
    seed: u64,
) -> Result<SolverReport, RrmError> {
    let start = Instant::now();
    let sol = prepared.solve_rrr(k, budget)?;
    let seconds = start.elapsed().as_secs_f64();
    Ok(report(&sol, prepared.dataset(), space, eval_samples, seed, seconds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrm_core::{BruteForceSolver, FullSpace};

    #[test]
    fn brute_force_report_on_a_tiny_dataset() {
        let data = Dataset::from_rows(&[[0.0, 1.0], [0.57, 0.75], [1.0, 0.0]]).unwrap();
        let solver = BruteForceSolver::default();
        let rep = evaluate_rrm(&solver, &data, 1, &FullSpace::new(2), &Budget::default(), 2_000, 7)
            .unwrap();
        assert_eq!(rep.algorithm, Algorithm::BruteForce);
        assert_eq!(rep.size, 1);
        assert!(rep.estimated_regret >= 1 && rep.estimated_regret <= 3);
        assert!(rep.estimated_regret_percent <= 100.0);
        assert!(rep.seconds >= 0.0);
        // The certificate and the estimate agree on this trivial input.
        assert_eq!(rep.certified_regret.unwrap(), rep.estimated_regret);
    }

    #[test]
    fn prepared_report_matches_fresh_handle_report() {
        let data = Dataset::from_rows(&[[0.0, 1.0], [0.57, 0.75], [1.0, 0.0]]).unwrap();
        let solver = BruteForceSolver::default();
        let space = FullSpace::new(2);
        let fresh = evaluate_rrm(&solver, &data, 1, &space, &Budget::default(), 2_000, 7).unwrap();
        let prepared = solver.prepare(&data, &space).unwrap();
        let rep = evaluate_rrm_prepared(prepared.as_ref(), 1, &space, &Budget::default(), 2_000, 7)
            .unwrap();
        // Identical everything except wall-clock.
        assert_eq!(rep.algorithm, fresh.algorithm);
        assert_eq!(rep.size, fresh.size);
        assert_eq!(rep.certified_regret, fresh.certified_regret);
        assert_eq!(rep.estimated_regret, fresh.estimated_regret);
        let rrr = evaluate_rrr_prepared(prepared.as_ref(), 2, &space, &Budget::default(), 2_000, 7)
            .unwrap();
        assert_eq!(rrr.algorithm, Algorithm::BruteForce);
    }

    #[test]
    fn errors_pass_through_untouched() {
        let rows: Vec<[f64; 2]> = (0..60).map(|i| [i as f64, 60.0 - i as f64]).collect();
        let data = Dataset::from_rows(&rows).unwrap();
        let solver = BruteForceSolver::default();
        let err = evaluate_rrm(&solver, &data, 2, &FullSpace::new(2), &Budget::default(), 100, 7)
            .unwrap_err();
        assert!(matches!(err, RrmError::Unsupported(_)));
    }
}
