//! Property-based tests of the paper's theoretical claims, spanning
//! multiple crates (proptest).

use proptest::prelude::*;
use rank_regret::{Dataset, FullSpace, RrmError, Solution, UtilitySpace};
use rrm_2d::{Prepared2d, Rrm2dOptions};
use rrm_eval::exact_rank_regret_2d;
use rrm_skyline::skyline;

/// Exact 2DRRM on a freshly prepared handle.
fn rrm_2d(
    data: &Dataset,
    r: usize,
    space: &dyn UtilitySpace,
    options: Rrm2dOptions,
) -> Result<Solution, RrmError> {
    Prepared2d::new(data, space, options)?.solve_rrm(r)
}

/// Exact RRR (binary search over the 2DRRM DP) on a freshly prepared
/// handle.
fn rrr_exact_2d(
    data: &Dataset,
    k: usize,
    space: &dyn UtilitySpace,
    options: Rrm2dOptions,
) -> Result<Solution, RrmError> {
    Prepared2d::new(data, space, options)?.solve_rrr(k)
}

/// Strategy: a small 2D dataset with values on a fine grid (exact-float
/// arithmetic keeps comparisons deterministic without being degenerate).
fn small_dataset() -> impl Strategy<Value = Dataset> {
    proptest::collection::vec((0u32..10_000, 0u32..10_000), 3..40).prop_map(|pairs| {
        let rows: Vec<[f64; 2]> =
            pairs.into_iter().map(|(a, b)| [a as f64 / 10_000.0, b as f64 / 10_000.0]).collect();
        Dataset::from_rows(&rows).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1: shifting every tuple by a constant vector changes
    /// neither the chosen set nor its certified rank-regret.
    #[test]
    fn shift_invariance(data in small_dataset(),
                        dx in -1000i32..1000,
                        dy in -1000i32..1000,
                        r in 1usize..4) {
        let shifted = data.shift(&[dx as f64 / 100.0, dy as f64 / 100.0]);
        let a = rrm_2d(&data, r, &FullSpace::new(2), Rrm2dOptions::default()).unwrap();
        let b = rrm_2d(&shifted, r, &FullSpace::new(2), Rrm2dOptions::default()).unwrap();
        prop_assert_eq!(a.certified_regret, b.certified_regret);
        prop_assert_eq!(a.indices, b.indices);
    }

    /// Rank-regret is monotone non-increasing in the size budget.
    #[test]
    fn monotone_in_budget(data in small_dataset()) {
        let mut prev = usize::MAX;
        for r in 1..=5 {
            let sol = rrm_2d(&data, r, &FullSpace::new(2), Rrm2dOptions::default()).unwrap();
            let k = sol.certified_regret.unwrap();
            prop_assert!(k <= prev);
            prop_assert!(sol.size() <= r);
            prev = k;
        }
    }

    /// Theorem 3: solutions live inside the skyline.
    #[test]
    fn solutions_within_skyline(data in small_dataset(), r in 1usize..5) {
        let sol = rrm_2d(&data, r, &FullSpace::new(2), Rrm2dOptions::default()).unwrap();
        let sky = skyline(&data);
        for i in &sol.indices {
            prop_assert!(sky.contains(i), "{} not a skyline tuple", i);
        }
    }

    /// The certificate is the true worst-case rank of the returned set.
    #[test]
    fn certificate_is_exact(data in small_dataset(), r in 1usize..4) {
        let sol = rrm_2d(&data, r, &FullSpace::new(2), Rrm2dOptions::default()).unwrap();
        let (actual, _) = exact_rank_regret_2d(&data, &sol.indices, 0.0, 1.0);
        prop_assert_eq!(actual, sol.certified_regret.unwrap());
    }

    /// RRM/RRR duality: the exact RRR answer for threshold k is the
    /// smallest r whose RRM optimum is ≤ k, and vice versa.
    #[test]
    fn rrm_rrr_duality(data in small_dataset(), k in 1usize..6) {
        let rrr = rrr_exact_2d(&data, k, &FullSpace::new(2), Rrm2dOptions::default()).unwrap();
        prop_assert!(rrr.certified_regret.unwrap() <= k);
        // Minimality: one fewer tuple cannot achieve the threshold.
        if rrr.size() > 1 {
            let smaller =
                rrm_2d(&data, rrr.size() - 1, &FullSpace::new(2), Rrm2dOptions::default())
                    .unwrap();
            prop_assert!(smaller.certified_regret.unwrap() > k);
        }
    }

    /// The skyline achieves rank-regret 1 (its top tuple is always rank 1).
    #[test]
    fn skyline_has_regret_one(data in small_dataset()) {
        let sky = skyline(&data);
        let (k, _) = exact_rank_regret_2d(&data, &sky, 0.0, 1.0);
        prop_assert_eq!(k, 1);
    }

    /// Normalization does not change the *set* chosen (order-preserving
    /// per attribute, a special case of shift+scale invariance for ranks).
    #[test]
    fn normalization_preserves_solution(data in small_dataset(), r in 1usize..4) {
        let normalized = data.normalize();
        let a = rrm_2d(&data, r, &FullSpace::new(2), Rrm2dOptions::default()).unwrap();
        let b = rrm_2d(&normalized, r, &FullSpace::new(2), Rrm2dOptions::default()).unwrap();
        prop_assert_eq!(a.certified_regret, b.certified_regret);
    }
}
