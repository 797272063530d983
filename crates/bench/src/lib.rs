//! Shared infrastructure for the experiment harness.
//!
//! The `repro` binary (`cargo run --release -p bench --bin repro -- <id>`)
//! regenerates each table/figure of the paper; this library holds the
//! pieces it shares with its subcommand modules: timed runs, the
//! algorithm roster — resolved through the [`Solver`] trait, so the
//! harness never calls algorithm crates directly — and sweep
//! configuration for quick vs full mode.

pub mod anytime_bench;
pub mod approx_bench;
pub mod incremental_bench;
pub mod serve_bench;

use std::time::Instant;

use rank_regret::{Engine, Tuning};
use rrm_core::{Budget, Dataset, PreparedSolver, Solver, UtilitySpace};
use rrm_hd::{HdrrmOptions, MdrmsOptions, MdrrrROptions};

/// One measured run of one algorithm.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub algorithm: &'static str,
    /// Total wall-clock: `prepare_seconds + query_seconds`.
    pub seconds: f64,
    /// Time spent building dataset-bound state ([`Solver::prepare`]);
    /// zero for [`measure_solver`], which prepares a fresh handle inside
    /// the timed query.
    pub prepare_seconds: f64,
    /// Time spent answering the query itself.
    pub query_seconds: f64,
    /// Measured rank-regret over the query space (sampled estimator).
    pub regret: usize,
    /// The solver's own certificate, when it provides one.
    pub certified: Option<usize>,
    pub size: usize,
}

/// Experiment scale: `quick` finishes a full `repro all` in minutes;
/// `full` mirrors the paper's parameters (hours at the top sizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Full,
}

impl Scale {
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// Evaluation sample count (the paper uses 100 000).
    pub fn eval_samples(self) -> usize {
        match self {
            Scale::Quick => 20_000,
            Scale::Full => 100_000,
        }
    }

    /// HDRRM options: quick mode trades the δ guarantee down (fewer `Da`
    /// samples) to keep sweeps fast; full mode uses the paper's δ = 0.03.
    pub fn hdrrm(self) -> HdrrmOptions {
        match self {
            Scale::Quick => HdrrmOptions { delta: 0.1, ..Default::default() },
            Scale::Full => HdrrmOptions::default(),
        }
    }

    pub fn mdrrr_r(self) -> MdrrrROptions {
        match self {
            Scale::Quick => MdrrrROptions { samples: 5_000, ..Default::default() },
            Scale::Full => MdrrrROptions { samples: 50_000, ..Default::default() },
        }
    }

    pub fn mdrms(self) -> MdrmsOptions {
        match self {
            Scale::Quick => MdrmsOptions { samples: 1_000, ..Default::default() },
            Scale::Full => MdrmsOptions { samples: 5_000, ..Default::default() },
        }
    }

    /// The scale-tuned [`Engine`] — the harness resolves every algorithm
    /// through its registry, so solver construction/dispatch stays defined
    /// in one place (`Engine::with_tuning`).
    pub fn engine(self) -> Engine {
        Engine::with_tuning(&Tuning {
            hdrrm: self.hdrrm(),
            mdrrr_r: self.mdrrr_r(),
            mdrms: self.mdrms(),
            ..Default::default()
        })
    }
}

/// Time a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed().as_secs_f64())
}

/// The uniform header every `BENCH_*.json` starts with: schema version,
/// experiment id, and machine metadata (core count, target arch, and the
/// `target-cpu` the binary was compiled for, best-effort from `RUSTFLAGS`).
/// Returned as a brace-less fragment so writers embed it as the first
/// fields of their top-level object.
pub fn bench_meta(experiment: &str) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let target_cpu = std::env::var("RUSTFLAGS")
        .ok()
        .and_then(|flags| {
            flags
                .split("target-cpu=")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "generic".to_string());
    format!(
        "\"schema_version\":1,\"experiment\":\"{experiment}\",\
         \"machine\":{{\"cores\":{cores},\"target_arch\":\"{}\",\"target_cpu\":\"{}\"}}",
        std::env::consts::ARCH,
        target_cpu,
    )
}

/// Run one RRM query through the [`Solver`] trait and measure its output
/// quality over `space`. Thin harness adapter over
/// [`rrm_eval::evaluate_rrm`] — the measurement logic lives there, this
/// just maps it onto [`Outcome`] and panics on solver errors (a failing
/// roster entry should abort the experiment loudly).
pub fn measure_solver(
    solver: &dyn Solver,
    data: &Dataset,
    r: usize,
    space: &dyn UtilitySpace,
    eval_samples: usize,
) -> Outcome {
    let report =
        rrm_eval::evaluate_rrm(solver, data, r, space, &Budget::UNLIMITED, eval_samples, 0xE7A1)
            .unwrap_or_else(|e| panic!("{}: {e}", solver.name()));
    Outcome {
        algorithm: solver.name(),
        seconds: report.seconds,
        prepare_seconds: 0.0,
        query_seconds: report.seconds,
        regret: report.estimated_regret,
        certified: report.certified_regret,
        size: report.size,
    }
}

/// Run one RRM query through an already-prepared handle and measure it.
/// `prepare_seconds` is the (amortized) preparation time the caller
/// measured — it is recorded in the outcome but `query_seconds` is what
/// this query actually cost.
pub fn measure_prepared(
    prepared: &dyn PreparedSolver,
    r: usize,
    space: &dyn UtilitySpace,
    budget: &Budget,
    eval_samples: usize,
    prepare_seconds: f64,
) -> Outcome {
    let report = rrm_eval::evaluate_rrm_prepared(prepared, r, space, budget, eval_samples, 0xE7A1)
        .unwrap_or_else(|e| panic!("{}: {e}", prepared.name()));
    Outcome {
        algorithm: prepared.name(),
        seconds: prepare_seconds + report.seconds,
        prepare_seconds,
        query_seconds: report.seconds,
        regret: report.estimated_regret,
        certified: report.certified_regret,
        size: report.size,
    }
}

/// A seeded synthetic generator `(n, d, seed) -> Dataset`.
pub type Generator = fn(usize, usize, u64) -> Dataset;

/// The synthetic distributions of the paper's figures, in their order.
pub const SYNTHETICS: [(&str, Generator); 3] = [
    ("independent", rrm_data::synthetic::independent),
    ("correlated", rrm_data::synthetic::correlated),
    ("anti-correlated", rrm_data::synthetic::anticorrelated),
];

#[cfg(test)]
mod tests {
    use super::*;
    use rrm_core::FullSpace;

    #[test]
    fn timed_returns_value_and_duration() {
        let (v, s) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(s >= 0.0);
    }

    #[test]
    fn measure_solver_goes_through_the_trait() {
        let data = rrm_data::synthetic::independent(100, 2, 0);
        let engine = Scale::Quick.engine();
        let solver = engine.solver(rrm_core::Algorithm::TwoDRrm).unwrap();
        let out = measure_solver(solver, &data, 3, &FullSpace::new(2), 500);
        assert_eq!(out.algorithm, "2DRRM");
        assert!(out.size <= 3);
        assert!(out.certified.is_some());
        assert!(out.regret >= 1);
        // Fresh handle per query: all time is query time.
        assert_eq!(out.prepare_seconds, 0.0);
        assert_eq!(out.seconds, out.query_seconds);
    }

    #[test]
    fn measure_prepared_splits_the_timing() {
        let data = rrm_data::synthetic::independent(100, 2, 0);
        let engine = Scale::Quick.engine();
        let solver = engine.solver(rrm_core::Algorithm::TwoDRrm).unwrap();
        let (prepared, prep_secs) =
            timed(|| solver.prepare(&data, &FullSpace::new(2)).expect("preparable"));
        let out = measure_prepared(
            prepared.as_ref(),
            3,
            &FullSpace::new(2),
            &Budget::UNLIMITED,
            500,
            prep_secs,
        );
        assert_eq!(out.algorithm, "2DRRM");
        assert_eq!(out.prepare_seconds, prep_secs);
        assert!((out.seconds - (out.prepare_seconds + out.query_seconds)).abs() < 1e-12);
        // Same answer as a fresh handle.
        let fresh = measure_solver(solver, &data, 3, &FullSpace::new(2), 500);
        assert_eq!(out.size, fresh.size);
        assert_eq!(out.certified, fresh.certified);
        assert_eq!(out.regret, fresh.regret);
    }

    #[test]
    fn scale_engine_resolves_every_algorithm() {
        let engine = Scale::Quick.engine();
        for algo in rrm_core::Algorithm::ALL {
            let solver = engine.solver(algo).unwrap_or_else(|| panic!("{algo} missing"));
            assert_eq!(solver.algorithm(), algo);
        }
    }

    #[test]
    fn bench_meta_is_a_valid_json_fragment() {
        let meta = bench_meta("serve");
        assert!(meta.starts_with("\"schema_version\":1,"), "{meta}");
        assert!(meta.contains("\"experiment\":\"serve\""), "{meta}");
        assert!(meta.contains("\"cores\":"), "{meta}");
        assert!(meta.contains("\"target_cpu\":"), "{meta}");
        // Embeds into an object without breaking JSON syntax.
        let doc = format!("{{{meta},\"entries\":[]}}");
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn scale_parameters() {
        assert!(Scale::Quick.eval_samples() < Scale::Full.eval_samples());
        assert!(Scale::Quick.hdrrm().delta > Scale::Full.hdrrm().delta);
        assert!(Scale::Quick.mdrrr_r().samples < Scale::Full.mdrrr_r().samples);
    }
}
