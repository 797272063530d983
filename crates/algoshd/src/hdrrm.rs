//! **HDRRM** — the paper's HD algorithm (Algorithm 3, Theorems 9–11).
//!
//! 1. Discretize the (restricted) function space into `D = Da ∪ Db`.
//! 2. Search the smallest threshold `k` for which [`mod@crate::asms`] returns
//!    at most `r` tuples, with the *improved binary search*: double `k`
//!    until feasible, then binary-search the last gap. (ASMS cost grows
//!    with `k`, so keeping probed thresholds small matters — Section
//!    V-B.2.)
//! 3. Return that set; its certified regret is `∇D(R) ≤ k'`, and Theorems
//!    6/7 transfer the bound to the full space (for any user, with
//!    probability ≥ 1 − δ, the set holds a top-`k'` tuple; all utilities
//!    are within `1 − ε` of `w_{k'}`).
//!
//! During the binary phase every probe needs `Φk` for `k ≤ k_hi`, which is
//! a prefix of `Φ_{k_hi}` — the top-`k_hi` lists are computed once and
//! sliced, provided they fit a memory budget.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rrm_core::{
    basis_indices, cache_bounded, Algorithm, AnytimeSearch, AppliedUpdate, Bounds, Budget, Cutoff,
    Dataset, ExecPolicy, Parallelism, RrmError, Solution, TerminatedBy, UtilitySpace,
    PREPARED_CACHE_CAP,
};
use rrm_skyline::IncrementalSkyline;

use crate::anytime::{regret_over_dirs, threshold_search, uniform_top_set, ThresholdOutcome};
use crate::asms::{asms_with_topk, asms_with_topk_capped};
use crate::common::batch_topk;
use crate::discretize::{build_vector_set_exec, paper_sample_size, Discretization};

/// Tuning knobs for [`PreparedHdrrm`]. Defaults mirror the paper's
/// experiments.
#[derive(Debug, Clone, Copy)]
pub struct HdrrmOptions {
    /// Polar grid resolution γ (paper: 6).
    pub gamma: usize,
    /// Failure probability δ for the sampled guarantee (paper: 0.03).
    pub delta: f64,
    /// Override the sample count `m` (default: the Theorem 10 formula,
    /// which can reach tens of thousands — benches scale it down).
    pub m_override: Option<usize>,
    /// RNG seed for `Da`.
    pub seed: u64,
    /// Restrict cover candidates to skyline tuples (sound by Theorem 3;
    /// ablated in `ablation_candidates`).
    pub skyline_candidates: bool,
    /// Force the boundary-tuple basis `B` into the output (the paper's
    /// Algorithm 2/3). The basis powers Theorem 7's `(1-ε)·w_k` utility
    /// floor but consumes up to `d` of the `r` budget slots, measurably
    /// raising the rank-regret on hard data (see the `ablation`
    /// experiment). Disable only when the utility floor is not needed.
    pub include_basis: bool,
    /// Memory budget for caching top-k lists across the binary-search
    /// phase, in entries (`|D| · k_hi`). Above it, lists are recomputed
    /// per probe.
    pub cache_budget_entries: usize,
    /// Bound-and-prune the feasibility probes: abort a greedy cover as
    /// soon as it provably exceeds the size budget `r`. Decision- and
    /// answer-equivalent to running every cover out (greedy picks are
    /// monotone and deterministic); disable only to measure the pruning
    /// win (`repro anytime`).
    pub prune: bool,
    /// Data-parallelism for the direction-batch kernels (top-k scoring,
    /// grid membership). Engine-level contexts override the default;
    /// outputs are identical at any thread count.
    pub exec: ExecPolicy,
}

impl Default for HdrrmOptions {
    fn default() -> Self {
        Self {
            gamma: 6,
            delta: 0.03,
            m_override: None,
            seed: 0xD15C0,
            skyline_candidates: true,
            include_basis: true,
            cache_budget_entries: 64 << 20, // 64M u32 entries = 256 MB
            prune: true,
            exec: ExecPolicy::default(),
        }
    }
}

/// Fraction of the discretization used as the coarse frame (its *prefix*,
/// so coarse infeasibility implies full-frame infeasibility).
const COARSE_FRACTION: usize = 16;
/// Below this many coarse directions the coarse pass is skipped — the
/// full solve is already fast and the extra pass would not pay for
/// itself.
const COARSE_MIN_DIRS: usize = 16;

/// The per-solve probe environment of an HDRRM search: everything a
/// feasibility probe needs besides the top-k lists.
struct AsmsSearch<'a> {
    data: &'a Dataset,
    r: usize,
    basis: &'a [u32],
    mask: Option<&'a [bool]>,
    /// Greedy pick cap for bound-and-prune probes (`usize::MAX` when
    /// pruning is disabled).
    pick_cap: usize,
    pol: Parallelism,
}

/// Greedy pick cap for a probe: chosen tuples never overlap the basis,
/// so a cover that picks more than `r - |B|` tuples already proves
/// infeasibility. `usize::MAX` disables pruning.
fn pick_cap(r: usize, basis: &[u32], options: &HdrrmOptions) -> usize {
    if options.prune {
        r - basis.len()
    } else {
        usize::MAX
    }
}

impl AsmsSearch<'_> {
    /// One capped feasibility probe over precomputed lists. Counts the
    /// cover picks as nodes, records prunes, and offers feasible results
    /// to the incumbent (their threshold is a sound frame-relative upper
    /// bound).
    fn probe(
        &self,
        k: usize,
        lists: &[Vec<u32>],
        lower: usize,
        search: &mut AnytimeSearch,
    ) -> Option<Vec<u32>> {
        let probe =
            asms_with_topk_capped(self.data.n(), k, self.basis, lists, self.mask, self.pick_cap);
        search.note_nodes(probe.picks);
        if !probe.complete {
            search.note_pruned_probe();
            return None;
        }
        if probe.q.len() <= self.r {
            search.offer(probe.q.clone(), k, lower);
            Some(probe.q)
        } else {
            None
        }
    }

    /// Offer the deterministic fallback incumbent (basis topped up with
    /// uniform-direction best scorers), so any active cutoff always has
    /// a sound answer to return.
    fn offer_fallback(&self, dirs: &[Vec<f64>], search: &mut AnytimeSearch) {
        let fallback = uniform_top_set(self.data, self.basis, self.r);
        let upper = regret_over_dirs(self.data, &fallback, dirs, self.pol);
        search.offer(fallback, upper, 1);
    }

    /// Coarse-to-fine first incumbent: run the whole threshold search on
    /// the *prefix* `dirs[..m/16]` of the discretization (a subset, so
    /// its probes are cheap and its answer fits `r`), then measure that
    /// answer's regret over the full frame for a sound upper bound.
    /// Coarse probes never consume the deterministic probe budget; their
    /// expanded nodes and prunes are merged into the main report.
    fn coarse_incumbent(&self, dirs: &[Vec<f64>], search: &mut AnytimeSearch) {
        let mc = dirs.len() / COARSE_FRACTION;
        if mc < COARSE_MIN_DIRS {
            return;
        }
        let coarse = &dirs[..mc];
        let mut sub = AnytimeSearch::unlimited();
        let mut cache: Option<(usize, Vec<Vec<u32>>)> = None;
        let outcome = threshold_search(self.data.n(), &mut sub, |k, lower, sub| {
            if cache.as_ref().is_none_or(|(ck, _)| *ck < k) {
                cache = Some((k, batch_topk(self.data, coarse, k, self.pol)));
            }
            let (_, lists) = cache.as_ref().expect("coarse top-k cache just filled");
            Ok(self.probe(k, lists, lower, sub))
        });
        search.report.nodes += sub.report.nodes;
        search.report.pruned_probes += sub.report.pruned_probes;
        let Ok(outcome) = outcome else { return };
        if let Some((_, q)) = outcome.best {
            let upper = regret_over_dirs(self.data, &q, dirs, self.pol);
            search.offer(q, upper, 1);
        }
    }

    /// Assemble the final [`Solution`] from a finished or cut-off search.
    fn finish(
        &self,
        outcome: ThresholdOutcome<Vec<u32>>,
        search: AnytimeSearch,
    ) -> Result<Solution, RrmError> {
        match outcome.terminated {
            TerminatedBy::Completed => {
                // Unreachable `None`: at k = n the universe Dk is empty
                // and ASMS returns exactly the basis, which fits r.
                let (best_k, best_q) = outcome.best.expect("ASMS at k = n returns the basis");
                Solution::new(best_q, Some(best_k), Algorithm::Hdrrm, self.data).map(|s| {
                    s.with_bounds(Bounds { lower: best_k, upper: best_k })
                        .with_report(search.report)
                })
            }
            t => {
                let (q, upper) = search
                    .incumbent
                    .best()
                    .expect("an active cutoff offers a fallback incumbent before searching");
                Solution::new(q, Some(upper), Algorithm::Hdrrm, self.data).map(|s| {
                    s.with_bounds(Bounds { lower: outcome.lower, upper })
                        .with_termination(t)
                        .with_report(search.report)
                })
            }
        }
    }
}

/// HDRRM bound to one dataset and utility space: the prepare-once /
/// query-many form of the paper's HD algorithm.
///
/// Preparation computes the boundary-tuple basis `B` and the skyline
/// candidate mask once. Discretized vector sets (keyed by their sample
/// count `m`, which the Theorem 10 formula ties to the queried `r`) and
/// top-k lists are cached across queries: a repeated query re-runs only
/// the greedy covers, and the binary-search phases of *different* queries
/// share one top-`k` computation through the ASMS prefix property.
///
/// The caches are keyed by deterministic seeds, so a warm handle answers
/// exactly as a freshly prepared one.
pub struct PreparedHdrrm {
    data: Dataset,
    space: Box<dyn UtilitySpace>,
    options: HdrrmOptions,
    /// The boundary-tuple basis `B` (always computed: RRR needs it even
    /// when `include_basis` is off for RRM).
    basis: Vec<u32>,
    /// Incrementally maintained skyline behind `mask` (present exactly
    /// when `skyline_candidates` is on), so updates patch the candidate
    /// mask instead of re-filtering the dataset.
    sky: Option<IncrementalSkyline>,
    mask: Option<Vec<bool>>,
    discs: Mutex<HashMap<usize, Arc<Discretization>>>,
    /// Per sample count `m`: the largest `k` computed so far and its
    /// top-k lists (every smaller threshold is a prefix).
    topk: Mutex<HashMap<usize, (usize, TopkLists)>>,
}

/// Shared top-k index lists, one per discretized direction.
type TopkLists = Arc<Vec<Vec<u32>>>;

impl PreparedHdrrm {
    pub fn new(
        data: &Dataset,
        space: &dyn UtilitySpace,
        options: HdrrmOptions,
    ) -> Result<Self, RrmError> {
        let d = data.dim();
        if d < 2 {
            return Err(RrmError::Unsupported("HDRRM requires d >= 2".into()));
        }
        if space.dim() != d {
            return Err(RrmError::DimensionMismatch { expected: d, got: space.dim() });
        }
        let basis = basis_indices(data);
        let sky = options.skyline_candidates.then(|| IncrementalSkyline::build(data));
        let mask = sky.as_ref().map(|s| s.mask().to_vec());
        Ok(Self {
            data: data.clone(),
            space: space.clone_box(),
            options,
            basis,
            sky,
            mask,
            discs: Mutex::new(HashMap::new()),
            topk: Mutex::new(HashMap::new()),
        })
    }

    /// The dataset this state was prepared on.
    pub fn dataset(&self) -> &Dataset {
        &self.data
    }

    /// Rebind the prepared state to the post-update dataset, patching the
    /// caches instead of re-preparing:
    ///
    /// * the skyline candidate mask advances through the maintained
    ///   [`IncrementalSkyline`];
    /// * discretizations transfer wholesale — they are pure functions of
    ///   `(d, space, m, γ, seed)`, never of the rows;
    /// * cached top-k lists are patched per direction: survivors keep
    ///   their (remapped) entries, and only directions actually disturbed
    ///   by the batch — a deleted tuple in the list, or an inserted tuple
    ///   outscoring the k-th entry — are re-scored. Untouched prefixes
    ///   survive verbatim, so the repaired cache is entry-for-entry what
    ///   `batch_topk` on the new rows would produce (the scoring kernel's
    ///   determinism contract makes the dot-product trigger exact).
    ///
    /// The basis is recomputed (`O(n·d)`, far below one direction's
    /// re-score). Queries on the patched handle answer bit-identically to
    /// a freshly built [`PreparedHdrrm`] over the same rows.
    pub fn apply_update(&self, upd: &AppliedUpdate) -> Self {
        let data = upd.new.clone();
        let basis = basis_indices(&data);
        let sky = self.sky.clone().map(|mut s| {
            s.apply_update(upd);
            s
        });
        let mask = sky.as_ref().map(|s| s.mask().to_vec());
        let discs: HashMap<usize, Arc<Discretization>> =
            self.discs.lock().expect("discretization cache poisoned").clone();
        let pol = self.options.exec.parallelism;
        let mut topk = HashMap::new();
        for (&m, (k, lists)) in self.topk.lock().expect("top-k cache poisoned").iter() {
            // A cached list without its discretization (evicted) is
            // dropped; a later query rebuilds both identically.
            let Some(disc) = discs.get(&m) else { continue };
            topk.insert(m, (*k, patch_topk(&data, upd, &disc.dirs, *k, lists, pol)));
        }
        Self {
            data,
            space: self.space.clone_box(),
            options: self.options,
            basis,
            sky,
            mask,
            discs: Mutex::new(discs),
            topk: Mutex::new(topk),
        }
    }

    fn disc(&self, m: usize) -> Arc<Discretization> {
        if let Some(disc) = self.discs.lock().expect("discretization cache poisoned").get(&m) {
            return disc.clone();
        }
        // Build outside the lock: concurrent misses duplicate work (the
        // result is deterministic) but never block other queries.
        let disc = Arc::new(build_vector_set_exec(
            self.data.dim(),
            self.space.as_ref(),
            m,
            self.options.gamma,
            self.options.seed,
            self.options.exec,
        ));
        cache_bounded(
            &mut self.discs.lock().expect("discretization cache poisoned"),
            m,
            disc,
            PREPARED_CACHE_CAP,
        )
    }

    /// Top-k lists over the size-`m` discretization, with at least `k`
    /// entries per direction. Within the cache budget, one computation at
    /// the largest requested `k` serves every smaller threshold (the ASMS
    /// prefix property); above it, lists are computed fresh per call —
    /// trading speed for bounded memory.
    fn lists(&self, m: usize, k: usize) -> TopkLists {
        let disc = self.disc(m);
        let pol = self.options.exec.parallelism;
        if disc.dirs.len().saturating_mul(k) > self.options.cache_budget_entries {
            return Arc::new(batch_topk(&self.data, &disc.dirs, k, pol));
        }
        if let Some((cached_k, lists)) = self.topk.lock().expect("top-k cache poisoned").get(&m) {
            if *cached_k >= k {
                return lists.clone();
            }
        }
        // Compute outside the lock (batch_topk is the dominant cost);
        // racers duplicate deterministic work instead of serializing.
        let lists = Arc::new(batch_topk(&self.data, &disc.dirs, k, pol));
        let mut cache = self.topk.lock().expect("top-k cache poisoned");
        match cache.get(&m) {
            Some((cached_k, existing)) if *cached_k >= k => existing.clone(),
            Some(_) => {
                // Upgrading an existing entry to a deeper k never grows
                // the entry count.
                cache.insert(m, (k, lists.clone()));
                lists
            }
            None => {
                if cache.len() < PREPARED_CACHE_CAP {
                    cache.insert(m, (k, lists.clone()));
                }
                lists
            }
        }
    }

    /// The effective sample count for an RRM query: budget override, then
    /// option override, then the Theorem 10 formula.
    fn rrm_samples(&self, r: usize, budget: &Budget) -> usize {
        budget.samples.or(self.options.m_override).unwrap_or_else(|| {
            paper_sample_size(self.data.n(), r, self.data.dim(), self.options.delta)
        })
    }

    /// RRM (`space = L`) or RRRM (restricted `space`) for one size budget.
    ///
    /// The doubling-then-binary threshold search runs under the budget's
    /// [`Budget::effective_cutoff`] (`max_enumerations` threshold probes
    /// under [`Cutoff::CounterBudget`]); an early stop returns the best
    /// incumbent found so far — the coarse-frame answer, a feasible probe,
    /// or the uniform-direction fallback — with certified [`Bounds`] and
    /// the [`TerminatedBy`] reason, instead of failing.
    ///
    /// Errors when `r` cannot hold the basis (`r < |B|`; the paper assumes
    /// `r ≥ d`).
    pub fn solve_rrm(&self, r: usize, budget: &Budget) -> Result<Solution, RrmError> {
        let n = self.data.n();
        let basis: &[u32] = if self.options.include_basis { &self.basis } else { &[] };
        if r < basis.len().max(1) {
            return Err(RrmError::OutputSizeTooSmall { requested: r, minimum: basis.len().max(1) });
        }
        let m = self.rrm_samples(r, budget);
        let disc = self.disc(m);

        let env = AsmsSearch {
            data: &self.data,
            r,
            basis,
            mask: self.mask.as_deref(),
            pick_cap: pick_cap(r, basis, &self.options),
            pol: self.options.exec.parallelism,
        };
        let mut search = AnytimeSearch::new(budget.effective_cutoff(), budget.max_enumerations);
        if search.cutoff() != Cutoff::None {
            env.offer_fallback(&disc.dirs, &mut search);
        }
        env.coarse_incumbent(&disc.dirs, &mut search);

        let outcome = threshold_search(n, &mut search, |k, lower, search| {
            Ok(env.probe(k, &self.lists(m, k), lower, search))
        })?;
        env.finish(outcome, search)
    }

    /// The RRR (threshold) variant in HD: one ASMS call at threshold `k`
    /// returns a small superset of the basis with `∇D(Q) ≤ k` — the MS
    /// problem of Definition 7, certified over the discretization.
    pub fn solve_rrr(&self, k: usize, budget: &Budget) -> Result<Solution, RrmError> {
        if k == 0 {
            return Err(RrmError::Unsupported("rank-regret thresholds start at 1".into()));
        }
        let n = self.data.n();
        // The formula's r is unknown for RRR; scale m by the basis instead.
        let m = budget.samples.or(self.options.m_override).unwrap_or_else(|| {
            paper_sample_size(n, (2 * self.basis.len()).max(8), self.data.dim(), self.options.delta)
        });
        let k = k.min(n);
        let q = asms_with_topk(n, k, &self.basis, &self.lists(m, k), self.mask.as_deref());
        Solution::new(q, Some(k), Algorithm::Hdrrm, &self.data)
    }
}

/// Patch one cached top-k table onto the post-update dataset: remap each
/// direction's survivor entries in place and fully re-score only the
/// directions the batch disturbed.
///
/// A direction needs re-scoring exactly when its cached list is no longer
/// the true top-k of the new rows: a deleted tuple sat in the list (its
/// replacement is unknown), the list was shorter than `k` and rows were
/// inserted, or an inserted row *strictly* outscores the k-th entry.
/// Score ties never displace — inserted rows take the largest indices and
/// the top-k order breaks ties by ascending index — so the strict test is
/// exact, and the kernel's fixed-order-sum contract makes the scalar
/// [`rrm_core::utility::dot`] comparison bit-compatible with
/// [`batch_topk`]'s internal scores. Disturbed directions are re-scored
/// through [`batch_topk`] itself, so every returned list is exactly what
/// a fresh computation over the new rows produces.
fn patch_topk(
    new_data: &Dataset,
    upd: &AppliedUpdate,
    dirs: &[Vec<f64>],
    k: usize,
    lists: &TopkLists,
    pol: Parallelism,
) -> TopkLists {
    let ins_rows: Vec<&[f64]> = upd.inserted.iter().map(|&j| new_data.row(j as usize)).collect();
    let mut out: Vec<Vec<u32>> = Vec::with_capacity(lists.len());
    let mut stale: Vec<usize> = Vec::new();
    for (di, (u, list)) in dirs.iter().zip(lists.iter()).enumerate() {
        let mut remapped = Vec::with_capacity(list.len());
        let mut deleted_in_list = false;
        for &t in list {
            match upd.remap[t as usize] {
                Some(nt) => remapped.push(nt),
                None => {
                    deleted_in_list = true;
                    break;
                }
            }
        }
        let disturbed = deleted_in_list
            || (!ins_rows.is_empty() && {
                remapped.len() < k || {
                    let kth = *remapped.last().expect("top-k lists are non-empty");
                    let floor = rrm_core::utility::dot(u, new_data.row(kth as usize));
                    ins_rows.iter().any(|row| rrm_core::utility::dot(u, row) > floor)
                }
            });
        if disturbed {
            stale.push(di);
            remapped.clear();
        }
        out.push(remapped);
    }
    if !stale.is_empty() {
        let stale_dirs: Vec<Vec<f64>> = stale.iter().map(|&di| dirs[di].clone()).collect();
        let fresh = batch_topk(new_data, &stale_dirs, k, pol);
        for (&slot, computed) in stale.iter().zip(fresh) {
            out[slot] = computed;
        }
    }
    Arc::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discretize::build_vector_set;
    use rrm_core::{FullSpace, WeakRankingSpace};
    use rrm_data::synthetic::{anticorrelated, correlated, independent};

    /// One RRM solve on a fresh handle.
    fn hdrrm(
        data: &Dataset,
        r: usize,
        space: &dyn UtilitySpace,
        options: HdrrmOptions,
    ) -> Result<Solution, RrmError> {
        PreparedHdrrm::new(data, space, options)?.solve_rrm(r, &Budget::UNLIMITED)
    }

    /// One RRR solve on a fresh handle.
    fn hdrrr(
        data: &Dataset,
        k: usize,
        space: &dyn UtilitySpace,
        options: HdrrmOptions,
    ) -> Result<Solution, RrmError> {
        PreparedHdrrm::new(data, space, options)?.solve_rrr(k, &Budget::UNLIMITED)
    }

    fn quick_opts(m: usize) -> HdrrmOptions {
        HdrrmOptions { m_override: Some(m), gamma: 4, ..Default::default() }
    }

    fn regret_over_dirs(data: &Dataset, set: &[u32], dirs: &[Vec<f64>]) -> usize {
        dirs.iter().map(|u| rrm_core::rank::rank_regret_of_set(data, u, set)).max().unwrap()
    }

    #[test]
    fn certificate_holds_over_its_own_discretization() {
        let data = independent(600, 4, 21);
        let opts = quick_opts(400);
        let sol = hdrrm(&data, 10, &FullSpace::new(4), opts).unwrap();
        assert!(sol.size() <= 10);
        let k = sol.certified_regret.unwrap();
        // Rebuild the same D (same seed/options) and verify ∇D(R) ≤ k.
        let disc = build_vector_set(4, &FullSpace::new(4), 400, opts.gamma, opts.seed);
        let reg = regret_over_dirs(&data, &sol.indices, &disc.dirs);
        assert!(reg <= k, "certified {k}, measured over D {reg}");
    }

    #[test]
    fn includes_basis() {
        let data = independent(300, 3, 22);
        let sol = hdrrm(&data, 8, &FullSpace::new(3), quick_opts(200)).unwrap();
        for b in basis_indices(&data) {
            assert!(sol.indices.contains(&b));
        }
    }

    #[test]
    fn rejects_r_below_basis() {
        let data = independent(100, 4, 23);
        let err = hdrrm(&data, 2, &FullSpace::new(4), quick_opts(50));
        assert!(matches!(err, Err(RrmError::OutputSizeTooSmall { .. })));
    }

    #[test]
    fn larger_r_never_certifies_worse() {
        let data = anticorrelated(800, 4, 24);
        let mut prev = usize::MAX;
        for r in [6usize, 10, 14] {
            let sol = hdrrm(&data, r, &FullSpace::new(4), quick_opts(300)).unwrap();
            let k = sol.certified_regret.unwrap();
            assert!(k <= prev, "r={r}: {k} > {prev}");
            prev = k;
        }
    }

    #[test]
    fn correlated_data_gets_tiny_regret() {
        // "The more correlated the attributes, the smaller the output
        // rank-regrets."
        let corr = correlated(2000, 4, 25);
        let anti = anticorrelated(2000, 4, 25);
        let k_corr = hdrrm(&corr, 10, &FullSpace::new(4), quick_opts(300))
            .unwrap()
            .certified_regret
            .unwrap();
        let k_anti = hdrrm(&anti, 10, &FullSpace::new(4), quick_opts(300))
            .unwrap()
            .certified_regret
            .unwrap();
        assert!(k_corr <= k_anti, "correlated {k_corr} vs anti {k_anti}");
    }

    #[test]
    fn restricted_space_certifies_no_worse() {
        let data = anticorrelated(1000, 4, 26);
        let full = hdrrm(&data, 10, &FullSpace::new(4), quick_opts(300)).unwrap();
        let weak = hdrrm(&data, 10, &WeakRankingSpace::new(4, 2), quick_opts(300)).unwrap();
        // The restricted D is "easier": certified regret should not grow
        // beyond sampling noise. Allow equality plus slack of 1 doubling.
        let (kf, kw) = (full.certified_regret.unwrap(), weak.certified_regret.unwrap());
        assert!(kw <= 2 * kf.max(1), "restricted {kw} vs full {kf}");
    }

    #[test]
    fn skyline_mask_matches_unmasked_quality() {
        let data = independent(500, 3, 27);
        let with_mask = hdrrm(&data, 8, &FullSpace::new(3), quick_opts(250)).unwrap();
        let without_mask = hdrrm(
            &data,
            8,
            &FullSpace::new(3),
            HdrrmOptions { skyline_candidates: false, ..quick_opts(250) },
        )
        .unwrap();
        // Theorem 3 guarantees an equally small cover exists inside the
        // skyline, but greedy is not optimal, so allow small divergence.
        let (a, b) = (with_mask.certified_regret.unwrap(), without_mask.certified_regret.unwrap());
        assert!(a <= 2 * b.max(1) && b <= 2 * a.max(1), "masked {a} vs unmasked {b}");
    }

    #[test]
    fn tiny_cache_budget_same_answer() {
        let data = independent(400, 3, 28);
        let a = hdrrm(&data, 8, &FullSpace::new(3), quick_opts(200)).unwrap();
        let b = hdrrm(
            &data,
            8,
            &FullSpace::new(3),
            HdrrmOptions { cache_budget_entries: 0, ..quick_opts(200) },
        )
        .unwrap();
        assert_eq!(a.indices, b.indices);
        assert_eq!(a.certified_regret, b.certified_regret);
    }

    #[test]
    fn hdrrr_threshold_variant() {
        let data = independent(500, 3, 29);
        let opts = quick_opts(300);
        for k in [1usize, 5, 25] {
            let sol = hdrrr(&data, k, &FullSpace::new(3), opts).unwrap();
            assert_eq!(sol.certified_regret, Some(k));
            // Verify over the same discretization it was built from.
            let m = opts.m_override.unwrap();
            let disc = build_vector_set(3, &FullSpace::new(3), m, opts.gamma, opts.seed);
            assert!(regret_over_dirs(&data, &sol.indices, &disc.dirs) <= k);
        }
        // Bigger threshold, same-or-smaller set.
        let small = hdrrr(&data, 2, &FullSpace::new(3), opts).unwrap().size();
        let large = hdrrr(&data, 50, &FullSpace::new(3), opts).unwrap().size();
        assert!(large <= small);
    }

    #[test]
    fn incremental_update_matches_fresh_prepare() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use rrm_core::{apply_updates, UpdateOp};
        let mut rng = StdRng::seed_from_u64(33);
        let opts = quick_opts(64);
        let space = FullSpace::new(4);
        let mut data = independent(200, 4, 31);
        let mut prepared = PreparedHdrrm::new(&data, &space, opts).unwrap();
        let budget = Budget::with_samples(64);
        for batch in 0..3 {
            // Warm the caches before each batch so the patch path has
            // real entries to repair.
            prepared.solve_rrm(8, &budget).unwrap();
            prepared.solve_rrr(5, &budget).unwrap();
            let mut ops: Vec<UpdateOp> = Vec::new();
            for _ in 0..6 {
                let i = rng.random_range(0..data.n());
                if !ops.contains(&UpdateOp::Delete(i)) {
                    ops.push(UpdateOp::Delete(i));
                }
            }
            for _ in 0..6 {
                ops.push(UpdateOp::Insert((0..4).map(|_| rng.random::<f64>()).collect()));
            }
            let upd = apply_updates(&data, &ops).unwrap();
            prepared = prepared.apply_update(&upd);
            let fresh = PreparedHdrrm::new(&upd.new, &space, opts).unwrap();
            let ctx = format!("batch {batch}");
            assert_eq!(prepared.basis, fresh.basis, "{ctx}");
            assert_eq!(prepared.mask, fresh.mask, "{ctx}");
            // The patched top-k cache is entry-for-entry a fresh
            // computation over the new rows.
            for (m, (k, lists)) in prepared.topk.lock().unwrap().iter() {
                let disc = build_vector_set(4, &space, *m, opts.gamma, opts.seed);
                let want = batch_topk(&upd.new, &disc.dirs, *k, Parallelism::Sequential);
                assert_eq!(lists.as_ref(), &want, "{ctx} m={m} k={k}");
            }
            for r in [6usize, 8, 10] {
                assert_eq!(
                    prepared.solve_rrm(r, &budget).unwrap(),
                    fresh.solve_rrm(r, &budget).unwrap(),
                    "{ctx} r={r}"
                );
            }
            for k in [2usize, 5] {
                assert_eq!(
                    prepared.solve_rrr(k, &budget).unwrap(),
                    fresh.solve_rrr(k, &budget).unwrap(),
                    "{ctx} k={k}"
                );
            }
            data = upd.new.clone();
        }
    }

    #[test]
    fn d1_unsupported() {
        let data = Dataset::from_rows(&[[0.5], [0.7]]).unwrap();
        assert!(hdrrm(&data, 1, &FullSpace::new(1), quick_opts(10)).is_err());
    }
}
