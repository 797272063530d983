//! **2DRRR** — the 2D baseline of Asudeh et al. (SIGMOD 2019), adapted to
//! RRM as in the paper's experiments.
//!
//! For a threshold `k`, every candidate tuple contributes the window
//! `[first, last]` of weights where its rank is at most `k`. A straight
//! line that ranks ≤ k at two weights ranks ≤ 2k − 1 anywhere between them
//! (any line above it in the middle must be above it at one of the two
//! ends — lines cross once), so covering the weight range with the fewest
//! windows yields a set that is no larger than the optimal rank-k
//! representative while guaranteeing rank-regret ≤ 2k − 1.
//!
//! The RRM adaptation binary-searches the smallest `k` whose cover fits
//! the size budget `r`, using the doubling + halving scheme of Section
//! V-B.2 ("improved binary search").

use std::collections::HashMap;
use std::sync::Mutex;

use rrm_core::{Algorithm, Dataset, ExecPolicy, RrmError, Solution, UtilitySpace};
use rrm_geom::dual::DualLine;
use rrm_geom::events::{crossings_with_tracked_capped_par, initial_ranks, Crossing};
use rrm_setcover::interval::{cover_segment, Interval};
use rrm_skyline::restricted::u_skyline_2d;

use crate::rrm2d::weight_interval;

const COVER_TOL: f64 = 1e-9;

/// Reusable sweep state shared by every threshold probed during the binary
/// search: candidates, their crossing events (sorted), and initial ranks.
struct SweepCache {
    sky: Vec<u32>,
    events: Vec<Crossing>,
    init_rank: Vec<usize>,
    c0: f64,
    c1: f64,
}

impl SweepCache {
    fn build(data: &Dataset, c0: f64, c1: f64, exec: ExecPolicy) -> Self {
        let sky = u_skyline_2d(data, c0, c1);
        let lines = DualLine::from_dataset(data);
        // Crossing classification chunked per tracked line; the merged
        // stream is bit-identical at any thread count.
        let events =
            crossings_with_tracked_capped_par(&lines, &sky, c0, c1, usize::MAX, exec.parallelism)
                .expect("uncapped enumeration always materializes");
        let init_rank = initial_ranks(&lines, c0);
        Self { sky, events, init_rank, c0, c1 }
    }

    /// The rank ≤ k window `[first, last]` of every candidate, skipping
    /// candidates that never reach rank ≤ k.
    fn windows(&self, k: usize) -> Vec<Interval> {
        let mut lo: Vec<f64> = vec![f64::NAN; self.sky.len()];
        let mut hi: Vec<f64> = vec![f64::NAN; self.sky.len()];
        let mut row_of = std::collections::HashMap::new();
        for (i, &id) in self.sky.iter().enumerate() {
            row_of.insert(id, i);
        }
        let mut rank: Vec<usize> = self.init_rank.clone();
        // Initial state at c0.
        for (i, &id) in self.sky.iter().enumerate() {
            if rank[id as usize] <= k {
                lo[i] = self.c0;
                hi[i] = self.c0;
            }
        }
        for ev in &self.events {
            rank[ev.down as usize] += 1;
            rank[ev.up as usize] -= 1;
            // Entering the window (rank drops to k) or leaving it (rank
            // rises past k) both happen at ev.x.
            if let Some(&i) = row_of.get(&ev.up) {
                if rank[ev.up as usize] <= k {
                    if lo[i].is_nan() {
                        lo[i] = ev.x;
                    }
                    hi[i] = ev.x;
                }
            }
            if let Some(&i) = row_of.get(&ev.down) {
                if rank[ev.down as usize] == k + 1 && !lo[i].is_nan() {
                    hi[i] = ev.x; // rank was ≤ k right up to this point
                }
            }
        }
        // A line still within rank ≤ k at the end extends to c1.
        for (i, &id) in self.sky.iter().enumerate() {
            if rank[id as usize] <= k && !lo[i].is_nan() {
                hi[i] = self.c1;
            }
        }
        self.sky
            .iter()
            .enumerate()
            .filter(|(i, _)| !lo[*i].is_nan())
            .map(|(i, &id)| Interval::new(lo[i], hi[i], id))
            .collect()
    }

    /// Minimum single-window cover for threshold `k`, if one exists.
    fn cover(&self, k: usize) -> Option<Vec<u32>> {
        let windows = self.windows(k);
        cover_segment(&windows, self.c0, self.c1, COVER_TOL)
            .map(|ivs| ivs.into_iter().map(|iv| iv.id).collect())
    }
}

/// The 2DRRR baseline bound to one dataset and weight interval: the sweep
/// cache (candidates, sorted crossings, initial ranks) is built once, and
/// per-threshold covers are memoized, so repeated queries — and the RRM
/// adaptation's whole binary search — replay cached state.
pub struct PreparedRrr2d {
    data: Dataset,
    cache: SweepCache,
    covers: Mutex<HashMap<usize, Option<Vec<u32>>>>,
}

impl PreparedRrr2d {
    pub fn new(data: &Dataset, space: &dyn UtilitySpace) -> Result<Self, RrmError> {
        Self::new_with_exec(data, space, ExecPolicy::default())
    }

    /// [`PreparedRrr2d::new`] under an explicit execution policy for the
    /// sweep-cache construction (queries are identical either way).
    pub fn new_with_exec(
        data: &Dataset,
        space: &dyn UtilitySpace,
        exec: ExecPolicy,
    ) -> Result<Self, RrmError> {
        if data.dim() != 2 {
            return Err(RrmError::DimensionMismatch { expected: 2, got: data.dim() });
        }
        let (c0, c1) = weight_interval(space)?;
        Ok(Self {
            data: data.clone(),
            cache: SweepCache::build(data, c0, c1, exec),
            covers: Mutex::new(HashMap::new()),
        })
    }

    /// The dataset this state was prepared on.
    pub fn dataset(&self) -> &Dataset {
        &self.data
    }

    /// The memoized cover for threshold `k`. Every `k ≥ n` puts each
    /// candidate's window over the whole range, so those thresholds share
    /// one entry and the memo never holds more than `n` covers.
    fn cover(&self, k: usize) -> Option<Vec<u32>> {
        let k = k.min(self.data.n());
        if let Some(cover) = self.covers.lock().expect("cover memo poisoned").get(&k) {
            return cover.clone();
        }
        // Compute outside the lock so concurrent queries never serialize
        // on a cache miss (the cover is deterministic per threshold).
        let cover = self.cache.cover(k);
        self.covers.lock().expect("cover memo poisoned").entry(k).or_insert(cover).clone()
    }

    /// RRR baseline for one threshold: a set of size at most the optimal
    /// rank-k representative's size, with certified rank-regret at most
    /// `2k − 1`.
    pub fn solve_rrr(&self, k: usize) -> Result<Solution, RrmError> {
        if k == 0 {
            return Err(RrmError::Unsupported("rank-regret thresholds start at 1".into()));
        }
        let ids = self.cover(k).expect(
            "rank-k windows always cover the range (the top-1 line is in every window set)",
        );
        Solution::new(ids, Some((2 * k).saturating_sub(1)), Algorithm::TwoDRrr, &self.data)
    }

    /// RRM via the 2DRRR baseline: the smallest `k` whose interval cover
    /// fits in `r` tuples (doubling then binary search, as the paper
    /// benchmarks it), with every probed cover memoized.
    pub fn solve_rrm(&self, r: usize) -> Result<Solution, RrmError> {
        if r == 0 {
            return Err(RrmError::OutputSizeTooSmall { requested: 0, minimum: 1 });
        }
        let n = self.data.n();

        // Doubling phase.
        let mut k = 1usize;
        let mut feasible: Option<(usize, Vec<u32>)> = None;
        while k <= n {
            if let Some(ids) = self.cover(k) {
                if ids.len() <= r {
                    feasible = Some((k, ids));
                    break;
                }
            }
            k *= 2;
        }
        let (found_k, mut best_ids) =
            feasible.unwrap_or_else(|| (n, self.cover(n).expect("k = n always covers")));
        // Binary phase on (found_k/2, found_k].
        let mut lo = found_k / 2 + 1;
        let mut hi = found_k;
        let mut best_k = found_k;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.cover(mid) {
                Some(ids) if ids.len() <= r => {
                    best_ids = ids;
                    best_k = mid;
                    hi = mid;
                }
                _ => lo = mid + 1,
            }
        }
        best_ids.truncate(r);
        Solution::new(
            best_ids,
            Some((2 * best_k).saturating_sub(1)),
            Algorithm::TwoDRrr,
            &self.data,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rrm_core::FullSpace;
    use rrm_geom::events::crossings_with_tracked;

    use crate::rrm2d::{Prepared2d, Rrm2dOptions};

    fn rrr_2d(data: &Dataset, k: usize) -> Result<Solution, RrmError> {
        PreparedRrr2d::new(data, &FullSpace::new(2))?.solve_rrr(k)
    }

    fn random_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<[f64; 2]> =
            (0..n).map(|_| [rng.random::<f64>(), rng.random::<f64>()]).collect();
        Dataset::from_rows(&rows).unwrap()
    }

    /// Exact rank-regret of a set over the full weight range, brute-forced
    /// through every arrangement gap (test-only; small n).
    fn exact_regret(data: &Dataset, set: &[u32]) -> usize {
        let lines = DualLine::from_dataset(data);
        let all: Vec<u32> = (0..data.n() as u32).collect();
        let events = crossings_with_tracked(&lines, &all, 0.0, 1.0);
        let mut xs = vec![0.0, 1.0];
        xs.extend(events.iter().map(|e| e.x));
        xs.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        let mut probes: Vec<f64> = xs.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect();
        probes.push(0.0);
        probes.push(1.0);
        let mut worst = 0usize;
        for &x in &probes {
            let best =
                set.iter().map(|&i| lines[i as usize].eval(x)).fold(f64::NEG_INFINITY, f64::max);
            let above = lines.iter().filter(|l| l.eval(x) > best).count();
            worst = worst.max(above + 1);
        }
        worst
    }

    #[test]
    fn guarantee_holds_on_random_data() {
        for seed in 0..15 {
            let d = random_dataset(40, seed);
            for k in [1usize, 2, 3] {
                let sol = rrr_2d(&d, k).unwrap();
                let regret = exact_regret(&d, &sol.indices);
                assert!(regret < 2 * k, "seed {seed} k={k}: regret {regret} > {}", 2 * k - 1);
            }
        }
    }

    #[test]
    fn size_never_exceeds_exact_rrr() {
        // The cover size is ≤ the minimum size of an exact rank-k set,
        // because every exact set's windows also cover the segment.
        for seed in 20..30 {
            let d = random_dataset(30, seed);
            for k in [1usize, 2, 3] {
                let approx = rrr_2d(&d, k).unwrap();
                let exact = Prepared2d::new(&d, &FullSpace::new(2), Rrm2dOptions::default())
                    .unwrap()
                    .solve_rrr(k)
                    .unwrap();
                assert!(
                    approx.size() <= exact.size(),
                    "seed {seed} k={k}: approx {} > exact {}",
                    approx.size(),
                    exact.size()
                );
            }
        }
    }

    #[test]
    fn rrm_adaptation_respects_budget_and_2dr_rm_beats_it() {
        for seed in 40..50 {
            let d = random_dataset(60, seed);
            for r in [2usize, 4] {
                let baseline =
                    PreparedRrr2d::new(&d, &FullSpace::new(2)).unwrap().solve_rrm(r).unwrap();
                assert!(baseline.size() <= r);
                let exact = Prepared2d::new(&d, &FullSpace::new(2), Rrm2dOptions::default())
                    .unwrap()
                    .solve_rrm(r)
                    .unwrap();
                let exact_k = exact.certified_regret.unwrap();
                let baseline_k = exact_regret(&d, &baseline.indices);
                assert!(
                    exact_k <= baseline_k,
                    "seed {seed} r={r}: 2DRRM {exact_k} vs 2DRRR {baseline_k}"
                );
            }
        }
    }

    #[test]
    fn threshold_one_picks_upper_envelope() {
        let d =
            Dataset::from_rows(&[[0.0, 1.0], [0.4, 0.95], [0.57, 0.75], [0.79, 0.6], [1.0, 0.0]])
                .unwrap();
        let sol = rrr_2d(&d, 1).unwrap();
        // Rank ≤ 1 windows: only upper-envelope lines; certified 2·1−1 = 1.
        assert_eq!(sol.certified_regret, Some(1));
        assert_eq!(exact_regret(&d, &sol.indices), 1);
    }

    #[test]
    fn zero_threshold_rejected() {
        let d = random_dataset(10, 60);
        assert!(rrr_2d(&d, 0).is_err());
    }

    #[test]
    fn cover_memo_stays_bounded_under_distinct_thresholds() {
        let d = random_dataset(30, 61);
        let prepared = PreparedRrr2d::new(&d, &FullSpace::new(2)).unwrap();
        // A client streaming distinct thresholds far past n.
        for k in 1..=300 {
            let warm = prepared.solve_rrr(k).unwrap();
            if k >= d.n() || k % 7 == 0 {
                assert_eq!(warm, rrr_2d(&d, k).unwrap(), "k={k}");
            }
        }
        assert_eq!(prepared.covers.lock().unwrap().len(), d.n(), "one cover per k <= n");
    }
}
