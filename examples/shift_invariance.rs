//! Theorem 1 in action: rank-regret answers survive attribute shifts,
//! regret-ratio (RMS) answers do not.
//!
//! Reproduces the paper's Figure 1 → Figure 2 demonstration: adding +4 to
//! attribute A2 (think °C → a different zero point) flips the RMS choice
//! from t4 to t7 — a tuple with the *worst possible* rank on A2 — while
//! the RRM choice stays t3.
//!
//! Run with: `cargo run --release --example shift_invariance`

use rank_regret::prelude::*;
use rrm_eval::{estimate_regret_ratio, exact_rank_regret_2d};
use rrm_hd::MdrmsSolver;

fn main() -> Result<(), RrmError> {
    let data = Dataset::from_rows(&[
        [0.00, 1.00], // t1
        [0.40, 0.95], // t2
        [0.57, 0.75], // t3
        [0.79, 0.60], // t4
        [0.20, 0.50], // t5
        [0.35, 0.30], // t6
        [1.00, 0.00], // t7
    ])?;
    let shifted = data.shift(&[0.0, 4.0]); // Figure 2: +4 on A2

    println!("dataset: Table I of the paper; shift: A2 += 4\n");
    println!("{:<26} {:>10} {:>10}", "query (r = 1)", "original", "shifted");

    // RRM via the exact 2D solver.
    let rrm_a = rank_regret::minimize(&data).size(1).solve()?;
    let rrm_b = rank_regret::minimize(&shifted).size(1).solve()?;
    println!(
        "{:<26} {:>10} {:>10}",
        "RRM (rank-regret)",
        format!("t{}", rrm_a.indices[0] + 1),
        format!("t{}", rrm_b.indices[0] + 1)
    );
    assert_eq!(rrm_a.indices, rrm_b.indices, "Theorem 1: shift invariant");

    // RMS via the MDRMS baseline.
    let rms = |d: &Dataset| {
        MdrmsSolver::default().prepare(d, &FullSpace::new(2))?.solve_rrm(1, &Budget::UNLIMITED)
    };
    let rms_a = rms(&data)?;
    let rms_b = rms(&shifted)?;
    println!(
        "{:<26} {:>10} {:>10}",
        "RMS (regret-ratio)",
        format!("t{}", rms_a.indices[0] + 1),
        format!("t{}", rms_b.indices[0] + 1)
    );
    assert_ne!(rms_a.indices, rms_b.indices, "RMS is not shift invariant");

    // Quantify the damage: the shifted RMS pick through both lenses.
    let (rank_of_rms_pick, _) = exact_rank_regret_2d(&data, &rms_b.indices, 0.0, 1.0);
    let (rank_of_rrm_pick, _) = exact_rank_regret_2d(&data, &rrm_b.indices, 0.0, 1.0);
    let ratio_unshifted =
        estimate_regret_ratio(&data, &rms_b.indices, &FullSpace::new(2), 20_000, 1).max_ratio;
    println!(
        "\nafter the shift RMS picks t{} — worst-case rank {} of {} \
         (regret-ratio lens said {:.0}% pre-shift)",
        rms_b.indices[0] + 1,
        rank_of_rms_pick,
        data.n(),
        100.0 * ratio_unshifted
    );
    println!("RRM still picks t{} — worst-case rank {}", rrm_b.indices[0] + 1, rank_of_rrm_pick);
    Ok(())
}
