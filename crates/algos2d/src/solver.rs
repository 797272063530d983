//! [`Solver`] implementations for the 2D algorithms: the paper's exact
//! dynamic program (2DRRM) and the interval-cover baseline of Asudeh et
//! al. (2DRRR).
//!
//! Both are planar (`d = 2` exactly); the trait's `supported_dims`
//! advertises that, and `prepare_ctx` turns it into a uniform
//! `RrmError::Unsupported` before building any state.

use rrm_core::{
    Algorithm, AppliedUpdate, Budget, Dataset, PreparedSolver, RrmError, Solution, Solver,
    SolverCtx, UtilitySpace,
};

use crate::rrm2d::{Prepared2d, Rrm2dOptions};
use crate::rrr2d::PreparedRrr2d;

/// **2DRRM** (paper Section IV): exact RRM/RRRM via the dual-line sweep,
/// exact RRR via binary search on the DP.
#[derive(Debug, Clone, Default)]
pub struct TwoDRrmSolver {
    pub options: Rrm2dOptions,
}

impl TwoDRrmSolver {
    pub fn new(options: Rrm2dOptions) -> Self {
        Self { options }
    }
}

impl Solver for TwoDRrmSolver {
    fn algorithm(&self) -> Algorithm {
        Algorithm::TwoDRrm
    }

    fn prepare_ctx(
        &self,
        data: &Dataset,
        space: &dyn UtilitySpace,
        ctx: &SolverCtx,
    ) -> Result<Box<dyn PreparedSolver>, RrmError> {
        self.ensure_supported(data, space)?;
        // An explicit engine policy overrides the options' default.
        let options = Rrm2dOptions { exec: ctx.exec.or(self.options.exec), ..self.options };
        Ok(Box::new(PreparedTwoDRrm { inner: Prepared2d::new(data, space, options)? }))
    }
}

/// [`Prepared2d`] behind the [`PreparedSolver`] contract (the 2D solvers
/// take no budget knobs, so the budget is ignored).
struct PreparedTwoDRrm {
    inner: Prepared2d,
}

impl PreparedSolver for PreparedTwoDRrm {
    fn algorithm(&self) -> Algorithm {
        Algorithm::TwoDRrm
    }

    fn dataset(&self) -> &Dataset {
        self.inner.dataset()
    }

    fn solve_rrm(&self, r: usize, _budget: &Budget) -> Result<Solution, RrmError> {
        self.inner.solve_rrm(r)
    }

    fn solve_rrr(&self, k: usize, _budget: &Budget) -> Result<Solution, RrmError> {
        self.inner.solve_rrr(k)
    }

    fn apply_update(&self, upd: &AppliedUpdate) -> Option<Box<dyn PreparedSolver>> {
        Some(Box::new(PreparedTwoDRrm { inner: self.inner.apply_update(upd) }))
    }
}

/// **2DRRR** (Asudeh et al.): native RRR via rank-window interval cover
/// (size ≤ optimal, regret ≤ 2k−1), adapted to RRM with doubling + binary
/// search. No certificate tight enough to count as a guarantee, and no
/// restricted-space mode (Table III).
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoDRrrSolver;

impl Solver for TwoDRrrSolver {
    fn algorithm(&self) -> Algorithm {
        Algorithm::TwoDRrr
    }

    fn prepare_ctx(
        &self,
        data: &Dataset,
        space: &dyn UtilitySpace,
        ctx: &SolverCtx,
    ) -> Result<Box<dyn PreparedSolver>, RrmError> {
        self.ensure_supported(data, space)?;
        Ok(Box::new(PreparedTwoDRrr {
            inner: PreparedRrr2d::new_with_exec(data, space, ctx.exec)?,
        }))
    }
}

/// [`PreparedRrr2d`] behind the [`PreparedSolver`] contract.
struct PreparedTwoDRrr {
    inner: PreparedRrr2d,
}

impl PreparedSolver for PreparedTwoDRrr {
    fn algorithm(&self) -> Algorithm {
        Algorithm::TwoDRrr
    }

    fn dataset(&self) -> &Dataset {
        self.inner.dataset()
    }

    fn solve_rrm(&self, r: usize, _budget: &Budget) -> Result<Solution, RrmError> {
        self.inner.solve_rrm(r)
    }

    fn solve_rrr(&self, k: usize, _budget: &Budget) -> Result<Solution, RrmError> {
        self.inner.solve_rrr(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrm_core::FullSpace;

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
    fn two_d_solvers_reject_hd_data() {
        let data = Dataset::from_rows(&[[0.1, 0.2, 0.3], [0.3, 0.2, 0.1]]).unwrap();
        let err = TwoDRrrSolver
            .solve_rrm_ctx(&data, 1, &FullSpace::new(3), &Budget::default(), &Default::default())
            .unwrap_err();
        assert!(matches!(err, RrmError::Unsupported(_)), "{err}");
    }

    #[test]
    fn two_d_rrr_solver_covers_threshold() {
        let solver = TwoDRrrSolver;
        let sol = solver
            .solve_rrr_ctx(
                &table1(),
                2,
                &FullSpace::new(2),
                &Budget::default(),
                &Default::default(),
            )
            .unwrap();
        assert!(sol.certified_regret.unwrap() <= 3); // 2k-1
        assert_eq!(sol.algorithm, Algorithm::TwoDRrr);
        assert!(!solver.algorithm().supports_restricted_space());
    }
}
