//! `hd_exact`: the paper's HD path in process. One closed-loop client
//! drives a prepared HDRRM session (anti-correlated, n = 1000, d = 4) with
//! solver threads = cores, plus one-shot RRRM requests over a weak-ranking
//! subspace and MDRRR requests on a 20-row, 3-D session (the only path
//! into the LP layer).

use std::sync::Arc;
use std::time::Instant;

use rank_regret::rrm_core::rank::max_rank_regret;
use rank_regret::rrm_core::{approx::sample_directions, Parallelism};
use rank_regret::rrm_data::synthetic;
use rank_regret::rrm_hd::{build_vector_set, paper_sample_size, HdrrmOptions};
use rank_regret::{
    Algorithm, ExecPolicy, FullSpace, Request, Response, Session, UtilitySpace, WeakRankingSpace,
};

use crate::common::{self, Opts, Outcome, Rec};
use crate::layers::{replay_ksets, HdPath, HdReplay};
use crate::stats::Rng;
use crate::trace::{aggregate, Tracer};

const N: usize = 1000;
const D: usize = 4;
const SMALL_N: usize = 20;
const SMALL_D: usize = 3;
const MIN_RS: [usize; 4] = [6, 8, 10, 12];
const REP_KS: [usize; 3] = [20, 50, 100];
const RRRM_RS: [usize; 2] = [6, 10];
const MDRRR_KS: [usize; 2] = [3, 4];
/// One 20-request cycle: 14 minimize, 4 RRRM, 1 represent and 1 MDRRR,
/// at fixed slots so every stretch of the stream has the same mix.
const CYCLE: [Kind; 20] = {
    use Kind::*;
    [
        Min, Min, Rrrm, Min, Min, Min, Min, Rrrm, Min, Min, Rep, Min, Rrrm, Min, Min, Mdrrr, Min,
        Rrrm, Min, Min,
    ]
};
const SETUP_REPEATS: usize = 51;
/// Generator seed of the catalogs (the run seed permutes their rows).
const CATALOG_SEED: u64 = 0x5EED_CA7A;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Min,
    Rep,
    Rrrm,
    Mdrrr,
}

#[derive(Debug, Clone, Copy)]
struct Req {
    kind: Kind,
    param: usize,
}

impl Req {
    fn key(&self) -> String {
        format!("{:?}:{}", self.kind, self.param)
    }

    fn request(&self) -> Request {
        match self.kind {
            Kind::Min => Request::minimize(self.param),
            Kind::Rep => Request::represent(self.param),
            Kind::Rrrm => Request::minimize(self.param).within(WeakRankingSpace::new(D, 1)),
            Kind::Mdrrr => Request::represent(self.param).algo(Algorithm::Mdrrr),
        }
    }
}

/// The request stream: the cycle's kinds, with each kind's parameter
/// rotating through its values from a seeded starting point.
fn stream(seed: u64, len: usize) -> Vec<Req> {
    let mut rng = Rng::derive(seed, 3);
    let mut next = [rng.below(4), rng.below(3), rng.below(2), rng.below(2)];
    (0..len)
        .map(|i| {
            let kind = CYCLE[i % CYCLE.len()];
            let (slot, values): (usize, &[usize]) = match kind {
                Kind::Min => (0, &MIN_RS),
                Kind::Rep => (1, &REP_KS),
                Kind::Rrrm => (2, &RRRM_RS),
                Kind::Mdrrr => (3, &MDRRR_KS),
            };
            next[slot] += 1;
            Req { kind, param: values[next[slot] % values.len()] }
        })
        .collect()
}

/// Each minimize key's share of the stream, for `regret_mean`.
fn key_weight(req: &Req) -> f64 {
    let count = CYCLE.iter().filter(|&&k| k == req.kind).count() as f64;
    let values = match req.kind {
        Kind::Min => MIN_RS.len(),
        Kind::Rrrm => RRRM_RS.len(),
        _ => return 0.0,
    };
    count / values as f64
}

struct Sessions {
    big: Session,
    small: Session,
}

pub fn run(opts: &Opts, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let threads = common::nproc();
    let exec = ExecPolicy::threads(threads);
    let big_data = common::catalog(synthetic::anticorrelated(N, D, CATALOG_SEED), opts.seed);
    let small_data =
        common::catalog(synthetic::anticorrelated(SMALL_N, SMALL_D, CATALOG_SEED), opts.seed);

    let mut warm_s = Vec::new();
    let (s, setup_s, _) = common::timed_setup(SETUP_REPEATS, || {
        let t = Instant::now();
        let big = Session::new(big_data.clone()).exec(exec);
        let small = Session::new(small_data.clone()).exec(exec);
        let w = Instant::now();
        big.warm(&[Algorithm::Hdrrm]);
        small.warm(&[Algorithm::Mdrrr]);
        warm_s.push(common::secs_since(w));
        (Sessions { big, small }, common::secs_since(t))
    });
    out.set("setup_s", setup_s);
    out.set("session.prepare_s", crate::stats::median(&warm_s));

    // The closed loop.
    let mut stream: Vec<Req> = Vec::new();
    let mut recs: Vec<Rec> = Vec::new();
    let mut lat = Vec::new();
    let mut answers: Vec<(Req, Response)> = Vec::new();
    let mut answer_slots: Vec<usize> = Vec::new();
    let mut run_spans = Vec::new();
    let rss = common::RssSampler::start();
    let cpu0 = common::cpu_seconds();
    let start = Instant::now();
    let window = opts.window();
    let mut i = 0;
    while start.elapsed() < window {
        if i == stream.len() {
            stream = self::stream(opts.seed, stream.len() + CYCLE.len());
        }
        let req = stream[i];
        let session = if req.kind == Kind::Mdrrr { &s.small } else { &s.big };
        let request = req.request();
        let t = Instant::now();
        let result = tr.span("request", None, i as u64, |p| {
            tr.span("session.run", p, i as u64, |_| session.run(&request))
        });
        let secs = common::secs_since(t);
        run_spans.push((i as u64, secs));
        let ok = result.is_ok();
        let regret = match (&result, req.kind) {
            (Ok(r), Kind::Min | Kind::Rrrm) => r.solution.certified_regret,
            _ => None,
        };
        if ok {
            lat.push(secs);
        }
        recs.push(Rec { key: req.key(), seconds: secs, ok, regret });
        match result {
            Ok(resp) => {
                answer_slots.push(i);
                answers.push((req, resp));
            }
            Err(e) => out.errors.push(format!("{} failed: {e}", req.key())),
        }
        i += 1;
    }
    let wall = common::secs_since(start);
    let cpu = common::cpu_seconds() - cpu0;
    rss.finish(&mut out);
    out.summarize(&recs, &lat, wall);
    let weighted = answers.iter().filter_map(|(req, resp)| {
        Some((req.key(), key_weight(req), resp.solution.certified_regret?))
    });
    if let Some(mean) = common::weighted_regret(weighted.filter(|(_, w, _)| *w > 0.0)) {
        out.set("regret_mean", mean);
    }
    out.set("rrm_par.threads", threads as f64);
    out.set("rrm_par.cpu_util", common::cpu_util(cpu, wall, threads));
    out.set("session.prepare_hits", (s.big.prepare_hits() + s.small.prepare_hits()) as f64);
    out.set("session.prepare_misses", (s.big.prepare_misses() + s.small.prepare_misses()) as f64);
    let one_shot: Vec<f64> =
        recs.iter().filter(|r| r.key.starts_with("Rrrm")).map(|r| r.seconds * 1e3).collect();
    out.set("session.one_shot_frac", one_shot.len() as f64 / recs.len().max(1) as f64);
    if !one_shot.is_empty() {
        out.set("session.one_shot_ms", crate::stats::median(&one_shot));
    }
    let (nodes, pruned) = answers
        .iter()
        .filter_map(|(_, r)| r.solution.report.as_ref())
        .fold((0u64, 0u64), |(a, b), rep| (a + rep.nodes, b + rep.pruned_probes));
    out.set("rrm_hd.nodes", nodes as f64);
    out.set("rrm_hd.pruned_probes", pruned as f64);
    out.note("tenant_hd", format!("anticorrelated n={N} d={D}").as_str());
    out.note("tenant_mdrrr", format!("anticorrelated n={SMALL_N} d={SMALL_D}").as_str());
    out.note("solver_threads", threads);
    out.note("load_threads", 1usize);
    out.note(
        "mix_per_20",
        "14 minimize r in {6,8,10,12}, 4 RRRM weak-ranking(4,1) r in {6,10}, 1 represent k in {20,50,100}, 1 MDRRR represent k in {3,4}; fixed slots, parameters rotate",
    );

    if opts.corrupt {
        if let Some((_, resp)) = answers.iter_mut().find(|(q, _)| q.kind == Kind::Min) {
            common::corrupt(&mut resp.solution.indices, &big_data);
        }
    }
    check(&mut out, &s, &answers);

    if tr.enabled() {
        let mut answered: Vec<(Req, Option<Vec<u32>>)> =
            stream[..recs.len()].iter().map(|q| (*q, None)).collect();
        for (slot, (_, resp)) in answer_slots.iter().zip(&answers) {
            answered[*slot].1 = Some(resp.solution.indices.clone());
        }
        replay(&mut out, tr, &answered, &run_spans, &big_data, &small_data, threads, window);
    }
    out
}

/// Answer checks, outside the timed loop: HDRRM certificates recounted
/// over the rebuilt direction frame, MDRRR compared with brute force.
fn check(out: &mut Outcome, s: &Sessions, answers: &[(Req, Response)]) {
    let big = s.big.data();
    let small = s.small.data();
    let opts = HdrrmOptions::default();
    let pol = Parallelism::fixed(common::nproc());
    let mut seen = std::collections::HashSet::new();
    for (req, resp) in answers {
        let sol = &resp.solution;
        if !seen.insert((req.key(), sol.indices.clone(), sol.certified_regret)) {
            continue;
        }
        let Some(cert) = sol.certified_regret else {
            out.errors.push(format!("{}: no certificate", req.key()));
            continue;
        };
        match req.kind {
            Kind::Min | Kind::Rrrm | Kind::Rep => {
                let space: Box<dyn UtilitySpace> = if req.kind == Kind::Rrrm {
                    Box::new(WeakRankingSpace::new(D, 1))
                } else {
                    Box::new(FullSpace::new(D))
                };
                let basis = rank_regret::rrm_core::basis_indices(&big).len();
                let m = match req.kind {
                    Kind::Rep => paper_sample_size(N, (2 * basis).max(8), D, opts.delta),
                    _ => paper_sample_size(N, req.param, D, opts.delta),
                };
                let dirs = build_vector_set(D, space.as_ref(), m, opts.gamma, opts.seed).dirs;
                let worst = max_rank_regret(&big, &dirs, &sol.indices, pol).unwrap_or(usize::MAX);
                out.check(worst <= cert, || {
                    format!("{}: certified {cert} but the frame measures {worst}", req.key())
                });
                if req.kind != Kind::Rep {
                    out.check(sol.indices.len() <= req.param, || {
                        format!("{}: {} tuples exceed r", req.key(), sol.indices.len())
                    });
                } else {
                    out.check(cert <= req.param, || format!("{}: certificate above k", req.key()));
                }
            }
            Kind::Mdrrr => {
                let brute = s
                    .small
                    .run(&Request::represent(req.param).algo(Algorithm::BruteForce))
                    .map(|r| r.solution);
                let dirs = sample_directions(&FullSpace::new(SMALL_D), 20_000, 0xC0FFEE);
                let worst = max_rank_regret(&small, &dirs, &sol.indices, pol).unwrap_or(usize::MAX);
                out.check(worst <= cert && cert <= req.param, || {
                    format!("{}: certified {cert}, sampled regret {worst}", req.key())
                });
                match brute {
                    Ok(b) => out.check(b.indices.len() <= sol.indices.len(), || {
                        format!(
                            "{}: brute force needs {} tuples, MDRRR {}",
                            req.key(),
                            b.indices.len(),
                            sol.indices.len()
                        )
                    }),
                    Err(e) => out.errors.push(format!("{}: brute force failed: {e}", req.key())),
                }
            }
        }
    }
}

/// The traced replay: every request's layer calls, in request order, so
/// the replay's caches fill exactly as the session's did.
#[allow(clippy::too_many_arguments)]
fn replay(
    out: &mut Outcome,
    tr: &Tracer,
    reqs: &[(Req, Option<Vec<u32>>)],
    run_spans: &[(u64, f64)],
    big: &rank_regret::Dataset,
    small: &rank_regret::Dataset,
    threads: usize,
    window: std::time::Duration,
) {
    let pol = Parallelism::fixed(threads);
    let big = Arc::new(big.clone());
    let mut prepared = HdReplay::new(big.clone(), Box::new(FullSpace::new(D)), pol);
    let mut one_shot = HdReplay::new(big, Box::new(WeakRankingSpace::new(D, 1)), pol);
    let mut seen_k = std::collections::HashSet::new();
    let mut mismatches = 0usize;
    // Replay in request order for at most half the window: a prefix of
    // the stream holds every cold request and at least one whole cycle.
    let budget = Instant::now() + window / 2;
    for (i, (req, expected)) in reqs.iter().enumerate() {
        if Instant::now() > budget && i >= CYCLE.len() {
            break;
        }
        let id = i as u64;
        tr.span("replay", None, id, |p| {
            let got = match req.kind {
                Kind::Min => Some(prepared.rrm(tr, p, id, req.param, None, HdPath::Prepared)),
                Kind::Rrrm => Some(one_shot.rrm(tr, p, id, req.param, None, HdPath::OneShot)),
                Kind::Rep => Some(prepared.rrr(tr, p, id, req.param)),
                Kind::Mdrrr => {
                    if seen_k.insert(req.param) {
                        replay_ksets(tr, p, id, small, req.param);
                    }
                    None
                }
            };
            if let (Some(got), Some(exp)) = (got, expected) {
                if &got != exp {
                    mismatches += 1;
                }
            }
        });
    }
    let spans = tr.spans();
    let agg = aggregate(&spans);
    out.layer_times(&agg, tr);
    let (attributed, reqs_replayed) = common::attributed(&spans, "replay");
    let run_s: f64 =
        run_spans.iter().filter(|(id, _)| reqs_replayed.contains(id)).map(|(_, s)| s).sum();
    out.coverage(attributed, run_s);
    out.note("replay_mismatches", mismatches);
}
