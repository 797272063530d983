//! **MDRRR** — the exact k-set baseline of Asudeh et al.
//!
//! Enumerate every k-set ([`crate::ksets`]), then hit them all with as few
//! tuples as possible (greedy set cover): any direction's top-k is one of
//! the enumerated k-sets, so a hitting set has rank-regret ≤ k everywhere
//! — the guaranteed-regret, logarithmic-size-ratio algorithm of the
//! paper's Table III. Exactly as the paper reports, it "does not scale
//! beyond a few hundred tuples" (`|W|` explodes); the limits make it fail
//! gracefully instead of hanging.

use rrm_core::{
    Algorithm, AnytimeSearch, Bounds, Cutoff, Dataset, RrmError, Solution, TerminatedBy,
};
use rrm_setcover::greedy_set_cover_capped;

use crate::anytime::{threshold_search, uniform_top_set};
use crate::ksets::{enumerate_ksets, KsetEnumeration, KsetLimits};

/// Hitting set over an enumerated k-set family (shared by MDRRR and
/// MDRRRr): universe = k-sets, tuple `t` covers the k-sets containing it.
pub(crate) fn hit_ksets(n: usize, ksets: &[Vec<u32>]) -> Vec<u32> {
    hit_ksets_capped(n, ksets, usize::MAX).ids
}

/// One capped hitting-set probe: result, completion flag, picks made.
pub(crate) struct HitProbe {
    /// Chosen tuples, sorted. When `complete`, exactly the uncapped
    /// [`hit_ksets`] output; when aborted, a prefix already past the cap.
    pub ids: Vec<u32>,
    /// `false` iff the greedy cover aborted past `max_picks` — proving
    /// the uncapped hitting set has more than `max_picks` tuples.
    pub complete: bool,
    /// Greedy picks expanded (search nodes).
    pub picks: u64,
}

/// [`hit_ksets`] with the greedy cover capped at `max_picks` choices —
/// the bound-and-prune feasibility probe of the anytime RRM searches.
/// Greedy picks are monotone and deterministic, so the "fits in `r`
/// tuples" decision is identical to the uncapped run's.
pub(crate) fn hit_ksets_capped(n: usize, ksets: &[Vec<u32>], max_picks: usize) -> HitProbe {
    assert!(!ksets.is_empty());
    let mut lists: Vec<Vec<u32>> = Vec::new();
    let mut list_of_tuple: Vec<u32> = vec![u32::MAX; n];
    let mut tuple_of_list: Vec<u32> = Vec::new();
    for (ki, t_set) in ksets.iter().enumerate() {
        for &t in t_set {
            let li = list_of_tuple[t as usize];
            if li == u32::MAX {
                list_of_tuple[t as usize] = lists.len() as u32;
                tuple_of_list.push(t);
                lists.push(vec![ki as u32]);
            } else {
                lists[li as usize].push(ki as u32);
            }
        }
    }
    let (chosen, complete) = greedy_set_cover_capped(ksets.len(), &lists, max_picks);
    let picks = chosen.len() as u64;
    let mut out: Vec<u32> = chosen.into_iter().map(|li| tuple_of_list[li]).collect();
    out.sort_unstable();
    HitProbe { ids: out, complete, picks }
}

/// MDRRR for the RRR problem: a set with rank-regret ≤ `k` (certified when
/// the enumeration completed) and size within `1 + ln|W|` of optimal.
///
/// Restricted spaces are rejected (`Table III: Suitable for RRRM — No`).
pub fn mdrrr(data: &Dataset, k: usize, limits: KsetLimits) -> Result<Solution, RrmError> {
    if k == 0 {
        return Err(RrmError::Unsupported("rank-regret thresholds start at 1".into()));
    }
    let k = k.min(data.n());
    let e: KsetEnumeration = enumerate_ksets(data, k, &[], limits);
    let ids = hit_ksets(data.n(), &e.ksets);
    let certified = e.complete.then_some(k);
    Solution::new(ids, certified, Algorithm::Mdrrr, data)
}

/// MDRRR adapted to RRM with the improved (doubling + binary) search on
/// `k`, as the paper's experiments run it, under an anytime cutoff:
/// `probe(k)` answers one threshold, so the prepared handle can memoize
/// enumerations across probes and queries.
///
/// Infeasible probes are sound *lower-bound* proofs even when the k-set
/// enumeration was truncated: a hitting set over a subset of the k-sets
/// can only be smaller than over all of them. Feasible-but-uncertified
/// answers (truncated enumeration) are annotated with the trivially
/// sound upper bound `n` and [`TerminatedBy::Counter`] — the counter
/// exhaustion surfaced as a gap instead of silently claiming the
/// threshold.
pub(crate) fn rrm_search_with(
    data: &Dataset,
    r: usize,
    cutoff: Cutoff,
    mut probe: impl FnMut(usize) -> Result<Solution, RrmError>,
) -> Result<Solution, RrmError> {
    if r == 0 {
        return Err(RrmError::OutputSizeTooSmall { requested: 0, minimum: 1 });
    }
    let n = data.n();
    // The k-set/LP counters act *inside* each probe (they truncate the
    // enumeration), so the probe count itself is not budget-bound here.
    let mut search = AnytimeSearch::new(cutoff, None);
    if search.cutoff() != Cutoff::None {
        // Rank is at most n everywhere — a sound fallback incumbent
        // without extra work, for wall-clock / gap cutoffs.
        search.offer(uniform_top_set(data, &[], r), n, 1);
    }
    let outcome = threshold_search(n, &mut search, |k, lower, search| {
        let sol = probe(k)?;
        search.note_nodes(sol.size() as u64);
        if sol.size() > r {
            return Ok(None);
        }
        if sol.certified_regret.is_some() {
            search.offer(sol.indices.clone(), k, lower);
        }
        Ok(Some(sol))
    })?;
    match outcome.terminated {
        TerminatedBy::Completed => match outcome.best {
            Some((k, sol)) => {
                if sol.certified_regret.is_some() {
                    Ok(sol.with_bounds(Bounds { lower: k, upper: k }).with_report(search.report))
                } else {
                    Ok(sol
                        .with_bounds(Bounds { lower: outcome.lower, upper: n })
                        .with_termination(TerminatedBy::Counter)
                        .with_report(search.report))
                }
            }
            None => Err(RrmError::Unsupported(
                "k-set enumeration hit its limits before finding a feasible threshold".into(),
            )),
        },
        t => match outcome.best {
            Some((k, sol)) => {
                let upper = if sol.certified_regret.is_some() { k } else { n };
                Ok(sol
                    .with_bounds(Bounds { lower: outcome.lower, upper })
                    .with_termination(t)
                    .with_report(search.report))
            }
            None => {
                let (ids, upper) =
                    search.incumbent.best().expect("active cutoffs seed a fallback incumbent");
                Solution::new(ids, None, Algorithm::Mdrrr, data).map(|s| {
                    s.with_bounds(Bounds { lower: outcome.lower, upper })
                        .with_termination(t)
                        .with_report(search.report)
                })
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrm_core::{Budget, FullSpace, Solver, SolverCtx};
    use rrm_data::synthetic::independent;
    use rrm_eval::estimate_rank_regret_seq;

    #[test]
    fn guarantee_certified_and_real() {
        let data = independent(30, 3, 41);
        for k in [1usize, 2, 4] {
            let sol = mdrrr(&data, k, KsetLimits::default()).unwrap();
            assert_eq!(sol.certified_regret, Some(k));
            // Estimated regret over many directions must respect k.
            let est = estimate_rank_regret_seq(&data, &sol.indices, &FullSpace::new(3), 8000, 42);
            assert!(est.max_rank <= k, "k={k}: measured {}", est.max_rank);
        }
    }

    #[test]
    fn rrm_adapter_respects_budget() {
        let data = independent(25, 3, 43);
        for r in [2usize, 4, 6] {
            let sol = crate::MdrrrSolver::default()
                .solve_rrm_ctx(
                    &data,
                    r,
                    &FullSpace::new(3),
                    &Budget::UNLIMITED,
                    &SolverCtx::default(),
                )
                .unwrap();
            assert!(sol.size() <= r);
            let k = sol.certified_regret.unwrap();
            let est = estimate_rank_regret_seq(&data, &sol.indices, &FullSpace::new(3), 8000, 44);
            assert!(est.max_rank <= k);
        }
    }

    #[test]
    fn incomplete_enumeration_is_uncertified() {
        let data = independent(40, 3, 45);
        let sol = mdrrr(
            &data,
            4,
            KsetLimits { max_ksets: 5, max_lp_calls: 1_000_000, ..Default::default() },
        )
        .unwrap();
        assert_eq!(sol.certified_regret, None);
    }

    #[test]
    fn k_one_is_the_top1_hitting_set() {
        // k = 1: the k-sets are the singleton top-1 regions; the hitting
        // set must contain every tuple that is top-1 somewhere.
        let data = independent(20, 2, 46);
        let sol = mdrrr(&data, 1, KsetLimits::default()).unwrap();
        let est = estimate_rank_regret_seq(&data, &sol.indices, &FullSpace::new(2), 5000, 47);
        assert_eq!(est.max_rank, 1);
    }

    #[test]
    fn zero_threshold_rejected() {
        let data = independent(10, 2, 48);
        assert!(mdrrr(&data, 0, KsetLimits::default()).is_err());
    }
}
