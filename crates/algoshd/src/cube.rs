//! **CUBE** — the original RMS algorithm (Nanongkai et al., VLDB 2010,
//! the paper's reference \[19\]).
//!
//! CUBE partitions the first `d − 1` attributes' unit cube into
//! `s^(d-1)` equal cells and keeps, per non-empty cell, the tuple with the
//! largest value on the last attribute, after seeding the output with the
//! per-attribute maxima. For normalized data (per-attribute maximum 1)
//! this guarantees a maximum regret-*ratio* of at most `(d−1)/s`: the
//! cell winner loses at most `1/s` per leading attribute against the true
//! top-1, while the seeds keep the denominator at `max_i u[i]` or better.
//! (The published analysis sharpens the constant to `(d−1)/(s+d−1)`.)
//! Either way it is an `n`-independent bound — exactly the kind Theorem 2
//! proves *cannot exist* for rank-regret. CUBE is included as the
//! historical baseline that motivated the regret-minimization line, and as
//! a second witness (next to MDRMS) that ratio-optimal sets can be
//! rank-regret disasters.

use rrm_core::{basis_indices, Algorithm, Dataset, RrmError, Solution};

/// Run CUBE with output budget `r` (which must cover the `d` seeds plus at
/// least one cell). Returns a set of at most `r` tuples; no rank-regret
/// certificate (the guarantee is on the regret-ratio).
pub fn cube(data: &Dataset, r: usize) -> Result<Solution, RrmError> {
    let d = data.dim();
    let n = data.n();
    if d < 2 {
        return Err(RrmError::Unsupported("CUBE requires d >= 2".into()));
    }
    let basis = basis_indices(data);
    if r < basis.len() + 1 {
        return Err(RrmError::OutputSizeTooSmall { requested: r, minimum: basis.len() + 1 });
    }
    let s = side_length(r - basis.len(), d);

    // Cell -> best tuple by the last attribute.
    let cells = s.pow((d - 1) as u32);
    let mut best: Vec<Option<u32>> = vec![None; cells];
    for i in 0..n {
        let row = data.row(i);
        let mut cell = 0usize;
        for &v in &row[..d - 1] {
            // Values at exactly 1.0 fold into the last cell.
            let c = ((v.clamp(0.0, 1.0) * s as f64) as usize).min(s - 1);
            cell = cell * s + c;
        }
        let replace = match best[cell] {
            None => true,
            Some(b) => row[d - 1] > data.row(b as usize)[d - 1],
        };
        if replace {
            best[cell] = Some(i as u32);
        }
    }

    let mut ids: Vec<u32> = basis;
    ids.extend(best.into_iter().flatten());
    ids.sort_unstable();
    ids.dedup();
    ids.truncate(r);
    Solution::new(ids, None, Algorithm::Mdrms, data)
}

/// Maximum regret-ratio this implementation guarantees for data whose
/// per-attribute maxima are 1 (`Dataset::normalize`): `(d − 1) / s`, with
/// `s` the side length a budget of `r` buys (assuming the usual `|B| = d`).
pub fn cube_ratio_bound(r: usize, d: usize) -> f64 {
    let s = side_length(r.saturating_sub(d).max(1), d);
    (d as f64 - 1.0) / s as f64
}

/// Cells per axis: the largest `s` with `s^(d-1) ≤ budget`.
fn side_length(budget: usize, d: usize) -> usize {
    let budget = budget.max(1);
    let mut s = (budget as f64).powf(1.0 / (d as f64 - 1.0)).floor() as usize;
    s = s.max(1);
    // Floating-point roundoff can land one off in either direction.
    while (s + 1).pow((d - 1) as u32) <= budget {
        s += 1;
    }
    while s > 1 && s.pow((d - 1) as u32) > budget {
        s -= 1;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrm_core::FullSpace;
    use rrm_data::synthetic::{anticorrelated, independent};
    use rrm_eval::{estimate_rank_regret_seq, estimate_regret_ratio};

    #[test]
    fn side_lengths() {
        assert_eq!(side_length(9, 3), 3); // 3^2 = 9
        assert_eq!(side_length(8, 3), 2); // 3^2 > 8
        assert_eq!(side_length(100, 2), 100);
        assert_eq!(side_length(1, 4), 1);
        assert_eq!(side_length(26, 3), 5); // 5^2 = 25 <= 26 < 36
    }

    #[test]
    fn ratio_bound_holds_on_random_data() {
        // The VLDB 2010 guarantee: max regret-ratio ≤ (d−1)/(s+d−1) for
        // data in the unit cube.
        for (n, d, r, seed) in [(500usize, 2usize, 12usize, 1u64), (800, 3, 20, 2)] {
            let data = independent(n, d, seed);
            let sol = cube(&data, r).unwrap();
            assert!(sol.size() <= r);
            let ratio =
                estimate_regret_ratio(&data, &sol.indices, &FullSpace::new(d), 20_000, 3).max_ratio;
            // 5% slack: random data's attribute maxima fall just short of
            // the exact 1.0 the bound's denominator assumes.
            let bound = cube_ratio_bound(r, d) * 1.05;
            assert!(ratio <= bound + 1e-9, "n={n} d={d} r={r}: ratio {ratio} > bound {bound}");
        }
    }

    #[test]
    fn bigger_budget_tightens_the_bound() {
        assert!(cube_ratio_bound(40, 3) < cube_ratio_bound(10, 3));
        assert!(cube_ratio_bound(100, 2) < cube_ratio_bound(12, 2));
    }

    #[test]
    fn rank_regret_can_still_collapse() {
        // Ratio-optimal is not rank-optimal: on anti-correlated data the
        // rank-regret of CUBE's output scales with n (no n-independent
        // bound exists for rank — Theorem 2), so it grows far beyond the
        // HD algorithms' outputs.
        let data = anticorrelated(4_000, 3, 4);
        let sol = cube(&data, 12).unwrap();
        let rank =
            estimate_rank_regret_seq(&data, &sol.indices, &FullSpace::new(3), 10_000, 5).max_rank;
        let hdrrm = crate::PreparedHdrrm::new(
            &data,
            &FullSpace::new(3),
            crate::HdrrmOptions { m_override: Some(2_000), ..Default::default() },
        )
        .and_then(|h| h.solve_rrm(12, &rrm_core::Budget::UNLIMITED))
        .unwrap();
        let rank_h =
            estimate_rank_regret_seq(&data, &hdrrm.indices, &FullSpace::new(3), 10_000, 5).max_rank;
        assert!(rank >= rank_h, "CUBE rank {rank} unexpectedly beats HDRRM {rank_h}");
    }

    #[test]
    fn rejects_tiny_budget() {
        let data = independent(50, 3, 6);
        assert!(cube(&data, 2).is_err());
    }

    #[test]
    fn one_dimensional_rejected() {
        let data = Dataset::from_rows(&[[0.4], [0.9]]).unwrap();
        assert!(cube(&data, 2).is_err());
    }
}
