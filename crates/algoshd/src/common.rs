//! Shared machinery for the HD algorithms: chunked batch top-k scoring on
//! the [`rrm_par`] runtime, with all dot products routed through the
//! blocked SoA kernel ([`rrm_core::kernel`]).

use rrm_core::kernel::{self, ScoreScratch};
use rrm_core::rank::{top_k_into, TopKScratch};
use rrm_core::{Dataset, Parallelism};

/// Compute `Φk(u, D)` for every direction, chunked over `pol`'s worker
/// threads.
///
/// Returns one index list per direction, best tuple first, in direction
/// order. This is the dominant cost of HDRRM (`O(|D| · n · d)` per call)
/// and of MDRRRr. Scoring runs through the cache-blocked kernel; chunk
/// sizes come from [`rrm_par::adaptive_chunk`]'s pure cost model and
/// per-direction lists are independent, so the output is bit-identical at
/// any thread count.
pub fn batch_topk(data: &Dataset, dirs: &[Vec<f64>], k: usize, pol: Parallelism) -> Vec<Vec<u32>> {
    assert!(k >= 1);
    let soa = data.soa();
    let chunk = rrm_par::adaptive_chunk(dirs.len(), data.n() * data.dim());
    let per_chunk = rrm_par::par_chunks(dirs, chunk, pol, |_, dirs_chunk| {
        let mut scratch = ScoreScratch::new();
        let mut sel = TopKScratch::new();
        let mut lists = vec![Vec::new(); dirs_chunk.len()];
        kernel::for_each_scores(soa, dirs_chunk, &mut scratch, |di, scores| {
            top_k_into(scores, k, &mut sel, &mut lists[di]);
        });
        lists
    });
    per_chunk.into_iter().flatten().collect()
}

/// Compute the top-1 score of the dataset for every direction, chunked
/// over `pol`'s worker threads (the denominator of the regret-ratio in
/// MDRMS). Output order follows `dirs`.
///
/// Uses the kernel's fused maximum — no `n`-length score vector is
/// materialized. The fold order (ascending tuple index, `f64::max`)
/// matches the previous row-major implementation bit for bit.
pub fn batch_top1_scores(data: &Dataset, dirs: &[Vec<f64>], pol: Parallelism) -> Vec<f64> {
    let soa = data.soa();
    let chunk = rrm_par::adaptive_chunk(dirs.len(), data.n() * data.dim());
    let per_chunk = rrm_par::par_chunks(dirs, chunk, pol, |_, dirs_chunk| {
        let mut scratch = ScoreScratch::new();
        dirs_chunk.iter().map(|u| kernel::max_score(soa, u, &mut scratch)).collect::<Vec<f64>>()
    });
    per_chunk.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rrm_core::sampling::orthant_direction;
    use rrm_core::{rank, utility};
    use rrm_data::synthetic::independent;

    #[test]
    fn batch_topk_matches_serial() {
        let data = independent(300, 4, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let dirs: Vec<Vec<f64>> = (0..50).map(|_| orthant_direction(4, &mut rng)).collect();
        for pol in [Parallelism::Sequential, Parallelism::Fixed(2), Parallelism::Fixed(7)] {
            let batched = batch_topk(&data, &dirs, 7, pol);
            assert_eq!(batched.len(), 50);
            for (u, got) in dirs.iter().zip(&batched) {
                let scores = utility::utilities(&data, u);
                let want = rank::top_k(&scores, 7).indices;
                assert_eq!(got, &want, "{pol:?}");
            }
        }
    }

    #[test]
    fn batch_topk_k_exceeds_n() {
        let data = independent(5, 3, 3);
        let dirs = vec![vec![1.0, 0.0, 0.0]];
        let lists = batch_topk(&data, &dirs, 100, Parallelism::Auto);
        assert_eq!(lists[0].len(), 5);
    }

    #[test]
    fn batch_top1_matches_serial() {
        let data = independent(200, 3, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let dirs: Vec<Vec<f64>> = (0..30).map(|_| orthant_direction(3, &mut rng)).collect();
        for pol in [Parallelism::Sequential, Parallelism::Fixed(3)] {
            let tops = batch_top1_scores(&data, &dirs, pol);
            for (u, &got) in dirs.iter().zip(&tops) {
                let scores = utility::utilities(&data, u);
                let want = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                assert_eq!(got, want, "{pol:?}");
            }
        }
    }

    #[test]
    fn empty_dirs() {
        let data = independent(10, 2, 6);
        assert!(batch_topk(&data, &[], 3, Parallelism::Auto).is_empty());
        assert!(batch_top1_scores(&data, &[], Parallelism::Auto).is_empty());
    }
}
