//! 2D rank-regret algorithms (paper Section IV).
//!
//! * [`rrm2d`] — **2DRRM**, the paper's exact dynamic program over the dual
//!   line arrangement: optimal RRM/RRRM solutions in 2D (Theorem 4),
//!   `O(n² log n)` time (Theorem 5).
//! * [`rrr2d`] — **2DRRR**, the baseline of Asudeh et al.: for a threshold
//!   `k` it covers the weight range with per-tuple "rank ≤ k" windows,
//!   guaranteeing size ≤ optimal and rank-regret ≤ 2k − 1; adapted to RRM
//!   with the doubling + binary search of Section V-B.2.
//! * [`pareto`] — the full size/regret trade-off curve from one prepared
//!   sweep state. The exact RRR solver built on 2DRRM ("2DRRM can be easily
//!   adopted for RRR by a binary search") is [`Prepared2d::solve_rrr`].
//!
//! All solvers accept either the full space `L` or a restricted 2D space
//! rendered onto a weight interval `[c0, c1]` (Section IV-C).

pub mod matrix;
pub mod pareto;
pub mod rrm2d;
pub mod rrr2d;
pub mod solver;

pub use pareto::{pareto_frontier, ParetoPoint};
pub use rrm2d::{weight_interval, Prepared2d, Rrm2dOptions};
pub use rrr2d::PreparedRrr2d;
pub use solver::{TwoDRrmSolver, TwoDRrrSolver};
