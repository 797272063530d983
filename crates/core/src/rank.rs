//! Ranks, top-k sets `Φk(u, D)` and k-th scores `w_k(u, D)`.
//!
//! The paper assumes no two tuples share a utility (Section II). Real and
//! synthetic data do contain ties, so every routine here breaks ties by
//! tuple index: tuple `i` outranks tuple `j` when `score_i > score_j`, or
//! when the scores are equal and `i < j`. This yields a strict total order
//! for every utility vector, making all algorithms deterministic.

use crate::dataset::Dataset;
use crate::exec::Parallelism;
use crate::kernel::{self, ScoreScratch};
use crate::utility;

/// Does tuple (score `a`, index `ia`) outrank tuple (score `b`, index `ib`)?
#[inline]
pub fn outranks(a: f64, ia: u32, b: f64, ib: u32) -> bool {
    a > b || (a == b && ia < ib)
}

/// 1-based rank of the tuple at `index` among `scores`
/// (`∇u(t)` in the paper: one plus the number of tuples that outrank it).
pub fn rank_of_index(scores: &[f64], index: u32) -> usize {
    let s = scores[index as usize];
    let mut above = 0usize;
    for (j, &v) in scores.iter().enumerate() {
        if outranks(v, j as u32, s, index) {
            above += 1;
        }
    }
    above + 1
}

/// 1-based rank of tuple `index` in `data` under utility vector `u`.
pub fn rank_of_tuple(data: &Dataset, u: &[f64], index: u32) -> usize {
    let scores = utility::utilities(data, u);
    rank_of_index(&scores, index)
}

/// Rank-regret of a tuple set for one utility vector
/// (`∇u(S) = min_{t∈S} ∇u(t)`, Definition 1).
///
/// One-shot convenience over [`rank_regret_of_set_into`]; loops over many
/// directions should hold a [`ScoreScratch`] and call the `_into` form so
/// the hot path stays allocation-free.
pub fn rank_regret_of_set(data: &Dataset, u: &[f64], indices: &[u32]) -> usize {
    rank_regret_of_set_into(data, u, indices, &mut ScoreScratch::new())
}

/// Scratch-reusing rank-regret of a set: routes through the blocked
/// scoring kernel's fused reduction, so no `n`-length score vector is
/// ever allocated — only a small reusable tile inside `scratch`.
/// Bit-identical to scoring with [`utility::utilities`] and calling
/// [`rank_regret_from_scores`].
pub fn rank_regret_of_set_into(
    data: &Dataset,
    u: &[f64],
    indices: &[u32],
    scratch: &mut ScoreScratch,
) -> usize {
    assert!(!indices.is_empty(), "rank-regret of an empty set is undefined");
    kernel::rank_regret_of_set(data.soa(), u, indices, scratch)
}

/// Rank-regret of a set given precomputed scores for the whole dataset.
pub fn rank_regret_from_scores(scores: &[f64], indices: &[u32]) -> usize {
    // The best member of S under the tie-broken order.
    let mut best_i = indices[0];
    let mut best_s = scores[best_i as usize];
    for &i in &indices[1..] {
        let s = scores[i as usize];
        if outranks(s, i, best_s, best_i) {
            best_s = s;
            best_i = i;
        }
    }
    rank_of_index(scores, best_i)
}

/// Worst-case (maximum) rank-regret of a set over `dirs`: the sampled
/// estimate `∇D(S)` the search-based solvers bound against. Parallel form
/// of `dirs.iter().map(|u| rank_regret_of_set(..)).max()`.
pub fn max_rank_regret(
    data: &Dataset,
    dirs: &[Vec<f64>],
    indices: &[u32],
    pol: Parallelism,
) -> Option<usize> {
    assert!(!indices.is_empty(), "rank-regret of an empty set is undefined");
    let chunk_size = rrm_par::adaptive_chunk(dirs.len(), data.n() * data.dim());
    rrm_par::par_map_reduce(
        dirs,
        chunk_size,
        pol,
        |_, chunk| {
            // One scratch per chunk: the whole chunk's scoring runs
            // allocation-free through the fused kernel.
            let mut scratch = ScoreScratch::new();
            chunk
                .iter()
                .map(|u| rank_regret_of_set_into(data, u, indices, &mut scratch))
                .max()
                .expect("chunk >= 1")
        },
        usize::max,
    )
}

/// Rank-regret of a set under every direction in `dirs`, in direction
/// order: the batch form the search-based solvers and estimators build on.
/// Scoring runs through the fused kernel with per-chunk scratch reuse.
pub fn batch_rank_regret(
    data: &Dataset,
    dirs: &[Vec<f64>],
    indices: &[u32],
    pol: Parallelism,
) -> Vec<usize> {
    assert!(!indices.is_empty(), "rank-regret of an empty set is undefined");
    let chunk_size = rrm_par::adaptive_chunk(dirs.len(), data.n() * data.dim());
    let per_chunk = rrm_par::par_chunks(dirs, chunk_size, pol, |_, chunk| {
        let mut scratch = ScoreScratch::new();
        chunk
            .iter()
            .map(|u| rank_regret_of_set_into(data, u, indices, &mut scratch))
            .collect::<Vec<usize>>()
    });
    per_chunk.into_iter().flatten().collect()
}

/// The top-k of a score vector.
#[derive(Debug, Clone, PartialEq)]
pub struct TopK {
    /// Indices of the top-k tuples, best first.
    pub indices: Vec<u32>,
    /// The k-th highest score, `w_k(u, D)`.
    pub threshold: f64,
}

/// Compute `Φk` (the top-k tuple indices, best first) and `w_k`.
///
/// `k` is clamped to `scores.len()`. One-shot convenience over
/// [`top_k_into`]; costs `O(n + k log k)` as described there.
pub fn top_k(scores: &[f64], k: usize) -> TopK {
    let mut out = Vec::new();
    top_k_into(scores, k, &mut TopKScratch::new(), &mut out);
    let threshold = scores[*out.last().expect("k >= 1") as usize];
    TopK { indices: out, threshold }
}

/// Caller-owned working storage for [`top_k_into`]. Hold one per worker
/// (or per chunk) and reuse it across directions: after the first call
/// the selection runs without allocating.
#[derive(Debug, Default)]
pub struct TopKScratch {
    /// Contiguous copy of the scores, reordered by the value selection.
    values: Vec<f64>,
    /// The kept `(score, index)` pairs, sorted into the final order.
    kept: Vec<(f64, u32)>,
}

impl TopKScratch {
    /// A fresh scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Buffer-reusing form of [`top_k`]: fills `out` with the top-k indices
/// (best first, ties by ascending index) using `scratch` as working
/// storage.
///
/// Selects on values, not indices: the k-th largest score `w` is found by
/// quickselect over a contiguous copy of `scores` (`O(n)`, no indirect
/// loads), one ascending pass keeps every index scoring strictly above
/// `w` plus the lowest-indexed ties at `w` until `k` are kept (`O(n)`),
/// and only those `k` pairs are sorted (`O(k log k)`). `k = 1` is a
/// single argmax pass. The output is exactly the first `k` entries of
/// [`argsort_desc`].
///
/// # Panics
///
/// When `scores` is empty, `k == 0`, or any score is NaN.
pub fn top_k_into(scores: &[f64], k: usize, scratch: &mut TopKScratch, out: &mut Vec<u32>) {
    let n = scores.len();
    assert!(n > 0, "top-k of an empty score vector");
    assert!(k > 0, "k must be at least 1");
    let k = k.min(n);
    out.clear();
    if k == 1 {
        // The first maximum: one pass, nothing to copy or sort.
        let (mut best, mut best_score) = (0usize, scores[0]);
        for (i, &s) in scores.iter().enumerate() {
            assert!(!s.is_nan(), "scores must be finite");
            if s > best_score {
                (best, best_score) = (i, s);
            }
        }
        out.push(best as u32);
        return;
    }

    // The k-th largest value. Equal values (including 0.0 and -0.0) are
    // interchangeable here: only the value `w` is used below.
    let values = &mut scratch.values;
    values.clear();
    values.extend_from_slice(scores);
    let (above_w, &mut w, _) = values
        .select_nth_unstable_by(k - 1, |a, b| b.partial_cmp(a).expect("scores must be finite"));
    // Everything before the pivot scores >= w, and every score above w
    // lies there; the `k - above` lowest-indexed ties at w complete the
    // top-k.
    let above = above_w.iter().filter(|&&v| v > w).count();
    let mut ties_left = k - above;

    let kept = &mut scratch.kept;
    kept.clear();
    for (i, &s) in scores.iter().enumerate() {
        if s > w {
            kept.push((s, i as u32));
        } else if s == w {
            if ties_left > 0 {
                ties_left -= 1;
                kept.push((s, i as u32));
            }
        } else {
            assert!(!s.is_nan(), "scores must be finite");
        }
    }
    assert!(kept.len() == k, "scores must be finite");
    // Descending by score, ascending by index: strict total order (no
    // NaN can reach here).
    kept.sort_unstable_by(|a, b| b.0.partial_cmp(&a.0).expect("finite").then(a.1.cmp(&b.1)));
    out.extend(kept.iter().map(|&(_, i)| i));
}

/// `w_k(u, D)`: the k-th highest score.
pub fn kth_score(scores: &[f64], k: usize) -> f64 {
    top_k(scores, k).threshold
}

/// Full descending argsort of `scores` (ties by index). `O(n log n)`.
pub fn argsort_desc(scores: &[f64]) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..scores.len() as u32).collect();
    idx.sort_unstable_by(|&a, &b| {
        scores[b as usize]
            .partial_cmp(&scores[a as usize])
            .expect("scores must be finite")
            .then(a.cmp(&b))
    });
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ranks_with_distinct_scores() {
        let scores = [0.2, 0.9, 0.5, 0.7];
        assert_eq!(rank_of_index(&scores, 1), 1);
        assert_eq!(rank_of_index(&scores, 3), 2);
        assert_eq!(rank_of_index(&scores, 2), 3);
        assert_eq!(rank_of_index(&scores, 0), 4);
    }

    #[test]
    fn ranks_break_ties_by_index() {
        let scores = [0.5, 0.5, 0.5];
        assert_eq!(rank_of_index(&scores, 0), 1);
        assert_eq!(rank_of_index(&scores, 1), 2);
        assert_eq!(rank_of_index(&scores, 2), 3);
    }

    #[test]
    fn rank_regret_of_sets() {
        let d = Dataset::from_rows(&[[0.0, 1.0], [0.4, 0.95], [0.57, 0.75]]).unwrap();
        let u = [0.25, 0.75];
        // Scores: t0 = 0.75, t1 = 0.8125, t2 = 0.705 -> order t1, t0, t2.
        assert_eq!(rank_regret_of_set(&d, &u, &[0, 2]), 2);
        assert_eq!(rank_regret_of_set(&d, &u, &[1]), 1);
        assert_eq!(rank_regret_of_set(&d, &u, &[2]), 3);
        assert_eq!(rank_regret_of_set(&d, &u, &[0, 1, 2]), 1);
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn rank_regret_empty_set_panics() {
        let d = Dataset::from_rows(&[[1.0]]).unwrap();
        rank_regret_of_set(&d, &[1.0], &[]);
    }

    #[test]
    fn top_k_matches_sort() {
        let scores = [0.3, 0.1, 0.9, 0.9, 0.2, 0.5];
        let tk = top_k(&scores, 3);
        assert_eq!(tk.indices, vec![2, 3, 5]); // 0.9(i2), 0.9(i3), 0.5
        assert_eq!(tk.threshold, 0.5);
        let full = top_k(&scores, 6);
        assert_eq!(full.indices, argsort_desc(&scores));
    }

    /// A small value set: ties are common, and `0.0`/`-0.0` compare equal
    /// (so they tie and fall back to index order).
    const TIE_VALUES: [f64; 8] =
        [-1.0, -0.0, 0.0, 0.25, 0.5, 1.0, f64::INFINITY, f64::NEG_INFINITY];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The select-and-filter kernel is exactly the `argsort_desc`
        /// prefix, including every tie broken by index and `k > n`.
        #[test]
        fn top_k_into_is_the_argsort_prefix(
            (picks, k) in (1usize..300).prop_flat_map(|n| {
                (proptest::collection::vec(0..TIE_VALUES.len(), n), 1..=n + 2)
            })
        ) {
            let scores: Vec<f64> = picks.iter().map(|&p| TIE_VALUES[p]).collect();
            let want = &argsort_desc(&scores)[..k.min(scores.len())];
            let mut scratch = TopKScratch::new();
            let mut out = vec![7u32; 3]; // stale contents must be replaced
            top_k_into(&scores, k, &mut scratch, &mut out);
            prop_assert_eq!(out.as_slice(), want);
            // A reused scratch gives the same answer again.
            top_k_into(&scores, k, &mut scratch, &mut out);
            prop_assert_eq!(out.as_slice(), want);
        }
    }

    #[test]
    #[should_panic(expected = "scores must be finite")]
    fn top_k_rejects_nan() {
        top_k(&[0.5, f64::NAN, 0.25, 1.0], 2);
    }

    #[test]
    #[should_panic(expected = "scores must be finite")]
    fn top_k_rejects_a_lone_nan() {
        top_k(&[f64::NAN], 1);
    }

    #[test]
    fn top_k_clamps_k() {
        let scores = [1.0, 2.0];
        let tk = top_k(&scores, 10);
        assert_eq!(tk.indices, vec![1, 0]);
        assert_eq!(tk.threshold, 1.0);
    }

    #[test]
    fn top_one() {
        let scores = [0.3, 0.8, 0.5];
        let tk = top_k(&scores, 1);
        assert_eq!(tk.indices, vec![1]);
        assert_eq!(tk.threshold, 0.8);
    }

    #[test]
    fn kth_score_value() {
        let scores = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(kth_score(&scores, 1), 4.0);
        assert_eq!(kth_score(&scores, 3), 2.0);
        assert_eq!(kth_score(&scores, 4), 1.0);
    }

    #[test]
    fn argsort_desc_total_order() {
        let scores = [0.5, 0.5, 0.1];
        assert_eq!(argsort_desc(&scores), vec![0, 1, 2]);
    }

    #[test]
    fn rank_of_tuple_via_dataset() {
        let d = Dataset::from_rows(&[[1.0, 0.0], [0.0, 1.0]]).unwrap();
        assert_eq!(rank_of_tuple(&d, &[1.0, 0.0], 0), 1);
        assert_eq!(rank_of_tuple(&d, &[1.0, 0.0], 1), 2);
        assert_eq!(rank_of_tuple(&d, &[0.0, 1.0], 0), 2);
    }

    #[test]
    fn max_rank_regret_matches_serial_at_any_thread_count() {
        let d = Dataset::from_rows(&[[0.0, 1.0], [0.4, 0.95], [0.57, 0.75], [1.0, 0.0]]).unwrap();
        let dirs: Vec<Vec<f64>> =
            (0..97).map(|i| vec![i as f64 / 96.0, 1.0 - i as f64 / 96.0]).collect();
        let set = [0u32, 2];
        let serial = dirs.iter().map(|u| rank_regret_of_set(&d, u, &set)).max();
        for pol in [Parallelism::Sequential, Parallelism::Fixed(2), Parallelism::Fixed(7)] {
            assert_eq!(max_rank_regret(&d, &dirs, &set, pol), serial, "{pol:?}");
        }
        assert_eq!(max_rank_regret(&d, &[], &set, Parallelism::Sequential), None);
    }

    #[test]
    fn batch_rank_regret_matches_per_direction_calls() {
        let d = Dataset::from_rows(&[[0.0, 1.0], [0.4, 0.95], [0.57, 0.75], [1.0, 0.0]]).unwrap();
        let dirs: Vec<Vec<f64>> =
            (0..53).map(|i| vec![i as f64 / 52.0, 1.0 - i as f64 / 52.0]).collect();
        let set = [1u32, 3];
        let expected: Vec<usize> = dirs.iter().map(|u| rank_regret_of_set(&d, u, &set)).collect();
        for pol in [Parallelism::Sequential, Parallelism::Fixed(2), Parallelism::Fixed(7)] {
            assert_eq!(batch_rank_regret(&d, &dirs, &set, pol), expected, "{pol:?}");
        }
        assert!(batch_rank_regret(&d, &[], &set, Parallelism::Sequential).is_empty());
    }

    #[test]
    fn into_form_reuses_scratch_and_matches_scores_path() {
        let d = Dataset::from_rows(&[[0.0, 1.0], [0.4, 0.95], [0.57, 0.75], [1.0, 0.0]]).unwrap();
        let mut scratch = crate::kernel::ScoreScratch::new();
        for i in 0..20 {
            let t = i as f64 / 19.0;
            let u = vec![t, 1.0 - t];
            let scores = utility::utilities(&d, &u);
            assert_eq!(
                rank_regret_of_set_into(&d, &u, &[0, 2], &mut scratch),
                rank_regret_from_scores(&scores, &[0, 2])
            );
        }
    }

    #[test]
    fn rank_regret_from_scores_picks_best_member() {
        let scores = [0.9, 0.8, 0.7, 0.6];
        assert_eq!(rank_regret_from_scores(&scores, &[3, 1]), 2);
        assert_eq!(rank_regret_from_scores(&scores, &[3]), 4);
    }
}
