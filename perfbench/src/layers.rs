//! Layer replays for the traced run. Each replay calls the public
//! functions a solve is built from, with the inputs that solve uses, inside
//! spans named after the layer; the solve's own answer is then compared
//! with the replay's, so a replay that drifted from the solver shows.

use std::collections::HashMap;
use std::sync::Arc;

use rank_regret::rrm_core::kernel::{self, ScoreScratch};
use rank_regret::rrm_core::rank::rank_regret_of_set;
use rank_regret::rrm_core::{basis_indices, Dataset, Parallelism, UtilitySpace};
use rank_regret::rrm_hd::{
    asms::{asms_with_topk, asms_with_topk_capped},
    build_vector_set,
    common::batch_topk,
    enumerate_ksets, paper_sample_size, HdrrmOptions, KsetLimits,
};
use rank_regret::rrm_skyline::skyline;

use crate::trace::Tracer;

/// Where a replayed HDRRM solve gets its frames and top-k lists from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HdPath {
    /// A prepared session handle: frames and top-k lists persist across
    /// requests (as in `PreparedHdrrm`).
    Prepared,
    /// A one-shot solve: everything is rebuilt per request.
    OneShot,
}

type Lists = Arc<Vec<Vec<u32>>>;

/// The replay of one HDRRM handle: mirrors the prepared handle's caches so
/// each replayed request does the work the real one did.
pub struct HdReplay {
    data: Arc<Dataset>,
    space: Box<dyn UtilitySpace>,
    options: HdrrmOptions,
    pol: Parallelism,
    basis: Vec<u32>,
    mask: Option<Vec<bool>>,
    discs: HashMap<usize, Arc<Vec<Vec<f64>>>>,
    topk: HashMap<usize, (usize, Lists)>,
}

impl HdReplay {
    pub fn new(data: Arc<Dataset>, space: Box<dyn UtilitySpace>, pol: Parallelism) -> Self {
        let basis = basis_indices(&data);
        let mut mask = vec![false; data.n()];
        for s in skyline(&data) {
            mask[s as usize] = true;
        }
        HdReplay {
            data,
            space,
            options: HdrrmOptions::default(),
            pol,
            basis,
            mask: Some(mask),
            discs: HashMap::new(),
            topk: HashMap::new(),
        }
    }

    fn disc(&mut self, tr: &Tracer, parent: Option<u64>, req: u64, m: usize) -> Arc<Vec<Vec<f64>>> {
        if let Some(d) = self.discs.get(&m) {
            return d.clone();
        }
        let (d, space, gamma, seed) =
            (self.data.dim(), self.space.as_ref(), self.options.gamma, self.options.seed);
        let disc = tr.span("rrm_hd.discretize", parent, req, |_| {
            Arc::new(build_vector_set(d, space, m, gamma, seed).dirs)
        });
        self.discs.insert(m, disc.clone());
        disc
    }

    /// `batch_topk` in a span, plus (outside the replay, as a measurement)
    /// the scoring pass alone over the same directions, so the selection
    /// share of top-k is the difference.
    fn lists_for(
        &self,
        tr: &Tracer,
        parent: Option<u64>,
        req: u64,
        dirs: &[Vec<f64>],
        k: usize,
    ) -> Lists {
        let lists = tr.span("rrm_core.rank.batch_topk", parent, req, |_| {
            Arc::new(batch_topk(&self.data, dirs, k, self.pol))
        });
        tr.count("rrm_hd.topk_calls", 1.0);
        tr.span("measure.kernel", None, req, |_| score_pass(&self.data, dirs, self.pol));
        tr.count("rrm_core.kernel.scores", (dirs.len() * self.data.n()) as f64);
        lists
    }

    fn probe(
        &self,
        tr: &Tracer,
        parent: Option<u64>,
        req: u64,
        r: usize,
        k: usize,
        lists: &[Vec<u32>],
    ) -> Option<Vec<u32>> {
        let basis = &self.basis;
        let cap = r - basis.len();
        let p = tr.span("rrm_hd.cover", parent, req, |_| {
            asms_with_topk_capped(self.data.n(), k, basis, lists, self.mask.as_deref(), cap)
        });
        tr.count("rrm_hd.probes", 1.0);
        tr.count("rrm_setcover.picks", p.picks as f64);
        (p.complete && p.q.len() <= r).then_some(p.q)
    }

    /// Replay `solve_rrm(r)` (prepared) or `hdrrm(r)` (one-shot); returns
    /// the answer the replay arrives at.
    pub fn rrm(
        &mut self,
        tr: &Tracer,
        parent: Option<u64>,
        req: u64,
        r: usize,
        samples: Option<usize>,
        path: HdPath,
    ) -> Vec<u32> {
        let (n, d) = (self.data.n(), self.data.dim());
        if path == HdPath::OneShot {
            let data = self.data.clone();
            self.basis = tr.span("rrm_core.basis", parent, req, |_| basis_indices(&data));
            let sky = tr.span("rrm_skyline.skyline", parent, req, |_| skyline(&data));
            tr.count("rrm_skyline.candidates", sky.len() as f64);
            let mut mask = vec![false; n];
            for s in sky {
                mask[s as usize] = true;
            }
            self.mask = Some(mask);
            self.discs.clear();
            self.topk.clear();
        }
        let m = samples
            .or(self.options.m_override)
            .unwrap_or_else(|| paper_sample_size(n, r, d, self.options.delta));
        let dirs = self.disc(tr, parent, req, m);
        tr.count("rrm_hd.dirs", dirs.len() as f64);
        tr.count("rrm_hd.solves", 1.0);

        // Coarse-to-fine first incumbent over the frame's prefix.
        let mc = dirs.len() / 16;
        if mc >= 16 {
            let coarse = &dirs[..mc];
            let mut cache: Option<(usize, Lists)> = None;
            let best = threshold_search(n, |k| {
                if cache.as_ref().is_none_or(|(ck, _)| *ck < k) {
                    cache = Some((k, self.lists_for(tr, parent, req, coarse, k)));
                }
                let lists = &cache.as_ref().expect("coarse lists just filled").1;
                self.probe(tr, parent, req, r, k, lists)
            });
            if let Some((_, q)) = best {
                let data = &self.data;
                let pol = self.pol;
                tr.span("rrm_core.rank.regret", parent, req, |_| {
                    regret_over_dirs(data, &q, &dirs, pol)
                });
            }
        }

        // Main threshold search.
        let budget = self.options.cache_budget_entries;
        let mut local: Option<(usize, Lists)> = None;
        let best = threshold_search(n, |k| {
            let lists = match path {
                HdPath::Prepared => {
                    let cached = self.topk.get(&m).filter(|(ck, _)| *ck >= k);
                    match cached {
                        Some((_, l)) => l.clone(),
                        None => {
                            let l = self.lists_for(tr, parent, req, &dirs, k);
                            if dirs.len().saturating_mul(k) <= budget {
                                self.topk.insert(m, (k, l.clone()));
                            }
                            l
                        }
                    }
                }
                HdPath::OneShot => match &local {
                    Some((ck, l)) if *ck >= k => l.clone(),
                    _ => {
                        let l = self.lists_for(tr, parent, req, &dirs, k);
                        if dirs.len().saturating_mul(k) <= budget {
                            local = Some((k, l.clone()));
                        }
                        l
                    }
                },
            };
            self.probe(tr, parent, req, r, k, &lists)
        });
        best.expect("ASMS at k = n returns the basis").1
    }

    /// Replay the prepared `solve_rrr(k)`; returns the replay's answer.
    pub fn rrr(&mut self, tr: &Tracer, parent: Option<u64>, req: u64, k: usize) -> Vec<u32> {
        let (n, d) = (self.data.n(), self.data.dim());
        let m = paper_sample_size(n, (2 * self.basis.len()).max(8), d, self.options.delta);
        let dirs = self.disc(tr, parent, req, m);
        let k = k.min(n);
        let lists = match self.topk.get(&m).filter(|(ck, _)| *ck >= k) {
            Some((_, l)) => l.clone(),
            None => {
                let l = self.lists_for(tr, parent, req, &dirs, k);
                self.topk.insert(m, (k, l.clone()));
                l
            }
        };
        let basis = &self.basis;
        let q = tr.span("rrm_hd.cover", parent, req, |_| {
            asms_with_topk(n, k, basis, &lists, self.mask.as_deref())
        });
        tr.count("rrm_hd.probes", 1.0);
        q
    }
}

/// The doubling-then-binary threshold search HDRRM runs: `probe(k)` is
/// `Some(set)` when threshold `k` is feasible.
pub fn threshold_search(
    n: usize,
    mut probe: impl FnMut(usize) -> Option<Vec<u32>>,
) -> Option<(usize, Vec<u32>)> {
    let (mut prev, mut k) = (0usize, 1usize);
    let mut best = loop {
        match probe(k) {
            Some(q) => break (k, q),
            None if k >= n => return None,
            None => {
                prev = k;
                k = (k * 2).min(n);
            }
        }
    };
    let (mut lo, mut hi) = (prev + 1, best.0);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match probe(mid) {
            Some(q) => {
                best = (mid, q);
                hi = mid;
            }
            None => lo = mid + 1,
        }
    }
    Some(best)
}

/// Maximum rank-regret of `set` over `dirs`, chunked like the solver's
/// incumbent measurement.
pub fn regret_over_dirs(data: &Dataset, set: &[u32], dirs: &[Vec<f64>], pol: Parallelism) -> usize {
    let chunk = rank_regret::rrm_par::adaptive_chunk(dirs.len(), data.n() * data.dim());
    rank_regret::rrm_par::par_chunks(dirs, chunk, pol, |_, c| {
        c.iter().map(|u| rank_regret_of_set(data, u, set)).max().unwrap_or(0)
    })
    .into_iter()
    .max()
    .unwrap_or(0)
}

/// The scoring kernel alone over `dirs`, chunked as `batch_topk` chunks
/// it, with a trivial sink.
pub fn score_pass(data: &Dataset, dirs: &[Vec<f64>], pol: Parallelism) -> f64 {
    let soa = data.soa();
    let chunk = rank_regret::rrm_par::adaptive_chunk(dirs.len(), data.n() * data.dim());
    let sums = rank_regret::rrm_par::par_chunks(dirs, chunk, pol, |_, c| {
        let mut scratch = ScoreScratch::new();
        let mut sink = 0.0;
        kernel::for_each_scores(soa, c, &mut scratch, |_, scores| sink += scores[0]);
        sink
    });
    std::hint::black_box(sums.iter().sum())
}

/// Replay MDRRR's `represent(k)`: the k-set enumeration, whose
/// feasibility tests are the LP layer's calls.
pub fn replay_ksets(tr: &Tracer, parent: Option<u64>, req: u64, data: &Dataset, k: usize) {
    let e = tr.span("rrm_lp.enumerate_ksets", parent, req, |_| {
        enumerate_ksets(data, k.min(data.n()), &[], KsetLimits::default())
    });
    tr.count("rrm_lp.calls", e.lp_calls as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_search_finds_the_smallest_feasible_threshold() {
        let mut probes = Vec::new();
        let best = threshold_search(100, |k| {
            probes.push(k);
            (k >= 11).then(|| vec![k as u32])
        });
        assert_eq!(best, Some((11, vec![11])));
        assert_eq!(probes, vec![1, 2, 4, 8, 16, 12, 10, 11]);
        assert_eq!(threshold_search(5, |_| None), None);
    }
}
