//! `churn`: writes beside reads, in process. A writer thread applies
//! balanced 1% batches (half deletes of random live rows, half fresh
//! inserts, so n and the HDRRM frame stay constant) with
//! `Session::update`, alternating between a 2D session (anti-correlated,
//! n = 100K) and an HD session (independent, n = 10K, d = 4, HDRRM over a
//! fixed `Budget::with_samples` frame). A reader thread runs a closed-loop
//! minimize/represent stream against the current epoch, never repeating a
//! key within one epoch, so the read path's caches cannot help it.

use std::collections::HashSet;
use std::time::Instant;

use rank_regret::rrm_2d::{Prepared2d, Rrm2dOptions};
use rank_regret::rrm_core::rank::max_rank_regret;
use rank_regret::rrm_core::{apply_updates, Parallelism, UpdateOp};
use rank_regret::rrm_data::synthetic;
use rank_regret::rrm_eval::exact_rank_regret_2d;
use rank_regret::rrm_geom::{crossings_with_tracked, DualLine};
use rank_regret::rrm_hd::{build_vector_set, HdrrmOptions, PreparedHdrrm};
use rank_regret::rrm_skyline::IncrementalSkyline;
use rank_regret::{Algorithm, Budget, Dataset, ExecPolicy, FullSpace, Request, Session, Solution};

use crate::common::{self, Opts, Outcome, Rec};
use crate::stats::{self, Rng};
use crate::trace::{aggregate, Tracer};

const N2: usize = 100_000;
const NH: usize = 10_000;
const DH: usize = 4;
/// The HDRRM frame size every HD read uses.
const HD_SAMPLES: usize = 300;
/// Batch size as a share of n: 1%, half deletes and half inserts.
const BATCH_SHARE: f64 = 0.01;
/// Read parameters. Every read lands on a fresh epoch anyway (a batch is
/// applied every few tens of ms), so small key sets cost no reuse and keep
/// each key's share of the stream steady.
/// The reader's kinds repeat in this order: 2D minimize seven reads in
/// ten, 2D represent two, HD minimize one. The median read is then a 2D
/// minimize whichever seed runs, and the slower kinds make the tail.
const READS: [(Which, bool); 10] = {
    use Which::*;
    [
        (Hd, true),
        (TwoD, true),
        (TwoD, true),
        (TwoD, false),
        (TwoD, true),
        (TwoD, true),
        (TwoD, true),
        (TwoD, false),
        (TwoD, true),
        (TwoD, true),
    ]
};
const MIN2: [usize; 2] = [4, 8];
const REP2: [usize; 2] = [20, 50];
const MINH: [usize; 2] = [8, 10];
const SETUP_REPEATS: usize = 3;
const CATALOG_SEED: u64 = 0x5EED_C4A7;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Which {
    TwoD,
    Hd,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Read {
    which: Which,
    minimize: bool,
    param: usize,
}

impl Read {
    fn request(&self) -> Request {
        match (self.which, self.minimize) {
            (Which::TwoD, true) => Request::minimize(self.param),
            (Which::TwoD, false) => Request::represent(self.param),
            (Which::Hd, _) => Request::minimize(self.param)
                .algo(Algorithm::Hdrrm)
                .budget(Budget::with_samples(HD_SAMPLES)),
        }
    }
}

/// One read as it happened: the epoch current when it was sent, and
/// whether a swap raced it (then either epoch may have answered).
struct ReadLog {
    read: Read,
    epoch: u64,
    raced: bool,
    seconds: f64,
    solution: Option<Solution>,
}

/// One applied batch, logged as its pre-batch delete indices: the rows it
/// inserts follow from the batches before it (see [`Churner`]), so the log
/// stays small however many batches a run applies.
struct Batch {
    which: Which,
    deletes: Vec<u32>,
    seconds: f64,
}

/// Turns delete indices into a balanced batch. Each batch inserts the rows
/// the previous batch of the same session deleted (the first one inserts
/// rows from the catalog's own generator), so n stays constant, rows really
/// leave and arrive, and the live rows stay within one batch of the catalog:
/// answer quality then measures the program, not where a random walk of the
/// data has drifted.
struct Churner {
    prev: Vec<Vec<f64>>,
}

impl Churner {
    fn new(fresh: &Dataset, half: usize) -> Self {
        Churner { prev: (0..half).map(|i| fresh.row(i % fresh.n()).to_vec()).collect() }
    }

    fn ops(&mut self, data: &Dataset, deletes: &[u32]) -> Vec<UpdateOp> {
        let gone: Vec<Vec<f64>> = deletes.iter().map(|&i| data.row(i as usize).to_vec()).collect();
        let inserts = std::mem::replace(&mut self.prev, gone);
        deletes
            .iter()
            .map(|&i| UpdateOp::Delete(i as usize))
            .chain(inserts.into_iter().map(UpdateOp::Insert))
            .collect()
    }
}

fn half_batch(n: usize) -> usize {
    ((n as f64 * BATCH_SHARE) as usize / 2).max(1)
}

struct Sessions {
    two_d: Session,
    hd: Session,
}

impl Sessions {
    fn get(&self, w: Which) -> &Session {
        match w {
            Which::TwoD => &self.two_d,
            Which::Hd => &self.hd,
        }
    }
}

/// Distinct random delete indices for a batch against `n` live rows.
fn deletes(n: usize, rng: &mut Rng) -> Vec<u32> {
    let mut dels = HashSet::new();
    while dels.len() < half_batch(n) {
        dels.insert(rng.below(n) as u32);
    }
    let mut deletes: Vec<u32> = dels.into_iter().collect();
    deletes.sort_unstable();
    deletes
}

pub fn run(opts: &Opts, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let data2 = common::catalog(synthetic::anticorrelated(N2, 2, CATALOG_SEED), opts.seed);
    let datah = common::catalog(synthetic::independent(NH, DH, CATALOG_SEED), opts.seed);
    let exec = ExecPolicy::sequential();
    let mut warm_s = Vec::new();
    let (s, setup_s, _) = common::timed_setup(SETUP_REPEATS, || {
        let t = Instant::now();
        let two_d = Session::new(data2.clone()).exec(exec);
        let hd = Session::new(datah.clone()).exec(exec);
        let w = Instant::now();
        two_d.warm(&[Algorithm::TwoDRrm]);
        hd.warm(&[Algorithm::Hdrrm]);
        warm_s.push(common::secs_since(w));
        (Sessions { two_d, hd }, common::secs_since(t))
    });
    out.set("setup_s", setup_s);
    out.set("session.prepare_s", stats::median(&warm_s));

    // The first batches' fresh rows come from the catalogs' generators.
    let pool2 = synthetic::anticorrelated(half_batch(N2), 2, CATALOG_SEED ^ opts.seed);
    let poolh = synthetic::independent(half_batch(NH), DH, CATALOG_SEED ^ opts.seed);

    let rss = common::RssSampler::start();
    let cpu0 = common::cpu_seconds();
    let start = Instant::now();
    let window = opts.window();
    let (batches, reads) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut rng = Rng::derive(opts.seed, 21);
            let mut churn =
                [Churner::new(&pool2, half_batch(N2)), Churner::new(&poolh, half_batch(NH))];
            let mut batches = Vec::new();
            let mut which = Which::TwoD;
            while start.elapsed() < window {
                let session = s.get(which);
                let w = if which == Which::TwoD { 0 } else { 1 };
                let data = session.data();
                let dels = deletes(data.n(), &mut rng);
                let ops = churn[w].ops(&data, &dels);
                drop(data);
                let t = Instant::now();
                let applied = tr.span("session.update", None, 0, |_| session.update(&ops));
                let seconds = common::secs_since(t);
                applied.expect("balanced batches of live rows apply");
                batches.push(Batch { which, deletes: dels, seconds });
                which = if which == Which::TwoD { Which::Hd } else { Which::TwoD };
            }
            batches
        });
        let reader = scope.spawn(|| {
            let mut rng = Rng::derive(opts.seed, 22);
            let mut used: Vec<(Which, u64, HashSet<Read>)> = Vec::new();
            let mut reads = Vec::new();
            while start.elapsed() < window {
                let (which, minimize) = READS[reads.len() % READS.len()];
                let keys = match (which, minimize) {
                    (Which::TwoD, true) => MIN2,
                    (Which::TwoD, false) => REP2,
                    (Which::Hd, _) => MINH,
                };
                let session = s.get(which);
                let epoch = session.epoch();
                // Draw a key this epoch has not answered yet.
                let slot = match used.iter().position(|(w, e, _)| *w == which && *e == epoch) {
                    Some(p) => p,
                    None => {
                        used.retain(|(w, _, _)| *w != which);
                        used.push((which, epoch, HashSet::new()));
                        used.len() - 1
                    }
                };
                let first = rng.below(keys.len());
                let mut read = Read { which, minimize, param: keys[first] };
                for j in 1..keys.len() {
                    if !used[slot].2.contains(&read) {
                        break;
                    }
                    read.param = keys[(first + j) % keys.len()];
                }
                used[slot].2.insert(read);
                let request = read.request();
                let t = Instant::now();
                let result =
                    tr.span("session.run", None, reads.len() as u64, |_| session.run(&request));
                let seconds = common::secs_since(t);
                let after = session.epoch();
                reads.push(ReadLog {
                    read,
                    epoch,
                    raced: after != epoch,
                    seconds,
                    solution: result.ok().map(|r| r.solution),
                });
            }
            reads
        });
        let reads = reader.join().expect("reader thread");
        let batches = writer.join().expect("writer thread");
        (batches, reads)
    });
    let wall = common::secs_since(start);
    let cpu = common::cpu_seconds() - cpu0;
    rss.finish(&mut out);

    let recs: Vec<Rec> = reads
        .iter()
        .map(|r| Rec {
            key: format!("{:?}:{}:{:?}:{}", r.read.which, r.epoch, r.read.minimize, r.read.param),
            seconds: r.seconds,
            ok: r.solution.is_some(),
            regret: if r.read.minimize {
                r.solution.as_ref().and_then(|s| s.certified_regret)
            } else {
                None
            },
        })
        .collect();
    let lat: Vec<f64> = reads.iter().filter(|r| r.solution.is_some()).map(|r| r.seconds).collect();
    out.summarize(&recs, &lat, wall);
    // Each minimize key's share of the reads.
    let weighted = reads.iter().filter(|r| r.read.minimize).filter_map(|r| {
        let kind = READS.iter().filter(|&&k| k == (r.read.which, true)).count() as f64;
        let keys = if r.read.which == Which::Hd { MINH.len() } else { MIN2.len() };
        let share = kind / (READS.len() * keys) as f64;
        let key = format!("{:?}:{}", r.read.which, r.read.param);
        Some((key, share, r.solution.as_ref()?.certified_regret?))
    });
    if let Some(mean) = common::weighted_regret(weighted) {
        out.set("regret_mean", mean);
    }
    for (which, minimize) in [(Which::TwoD, true), (Which::TwoD, false), (Which::Hd, true)] {
        let l: Vec<f64> = reads
            .iter()
            .filter(|r| r.read.which == which && r.read.minimize == minimize)
            .map(|r| r.seconds * 1e3)
            .collect();
        if !l.is_empty() {
            out.note(
                &format!("read_p50_ms_{which:?}_{}", if minimize { "min" } else { "rep" }),
                stats::median(&l),
            );
        }
    }
    let upd: Vec<f64> = batches.iter().map(|b| b.seconds).collect();
    let ops: usize = batches.iter().map(|b| 2 * b.deletes.len()).sum();
    if !upd.is_empty() {
        out.set("session.update_s", stats::median(&upd));
        let l = stats::sorted(&upd);
        out.note("update_p50_ms", stats::percentile(&l, 50.0) * 1e3);
        let t = stats::tail(&upd);
        out.note("update_tail_ms", t.value * 1e3);
        out.note("update_tail_percentile", t.percentile);
    }
    out.set("session.updates_per_s", ops as f64 / wall);
    out.note("updates_per_s", ops as f64 / wall);
    out.note("update_batches", batches.len());
    out.set("session.prepare_hits", (s.two_d.prepare_hits() + s.hd.prepare_hits()) as f64);
    out.set("session.prepare_misses", (s.two_d.prepare_misses() + s.hd.prepare_misses()) as f64);
    // Each solve runs sequentially; the reader and the writer keep two
    // threads busy.
    out.set("rrm_par.threads", exec.effective_threads() as f64);
    out.set("rrm_par.cpu_util", common::cpu_util(cpu, wall, 2));
    out.note(
        "tenant_2d",
        format!("anticorrelated n={N2} d=2, final epoch {}", s.two_d.epoch()).as_str(),
    );
    out.note(
        "tenant_hd",
        format!(
            "independent n={NH} d={DH}, HDRRM samples={HD_SAMPLES}, final epoch {}",
            s.hd.epoch()
        )
        .as_str(),
    );
    out.note("load_threads", 2usize);
    out.note("reads_with_raced_epoch", reads.iter().filter(|r| r.raced).count());
    for r in reads.iter().filter(|r| r.solution.is_none()) {
        out.errors.push(format!("{:?} failed", r.read));
    }

    let catalogs = [(&data2, &pool2), (&datah, &poolh)];
    check(&mut out, opts, tr, &s, catalogs, &batches, &reads);
    if tr.enabled() {
        replay(&mut out, tr, catalogs, &batches, &reads);
    }
    out
}

/// The final epoch must match freshly bound sessions over the same rows,
/// the rows must match the logged batches replayed from the start, and
/// final-epoch certificates are recomputed independently. `catalogs` pairs
/// each session's initial rows with its first batch's fresh rows.
fn check(
    out: &mut Outcome,
    opts: &Opts,
    tr: &Tracer,
    s: &Sessions,
    catalogs: [(&Dataset, &Dataset); 2],
    batches: &[Batch],
    reads: &[ReadLog],
) {
    for (which, (init, pool)) in [Which::TwoD, Which::Hd].into_iter().zip(catalogs) {
        let session = s.get(which);
        let mut data = init.clone();
        let mut churn = Churner::new(pool, half_batch(init.n()));
        for b in batches.iter().filter(|b| b.which == which) {
            let ops = churn.ops(&data, &b.deletes);
            let upd = tr.span("rrm_core.update.apply", None, 0, |_| apply_updates(&data, &ops));
            data = upd.expect("logged batches apply").new;
        }
        let now = session.data();
        out.check(data.n() == now.n() && (0..data.n()).all(|i| data.row(i) == now.row(i)), || {
            format!("{which:?}: final rows differ from the logged batches replayed")
        });
        let fresh = Session::new((*now).clone()).exec(ExecPolicy::sequential());
        let mut probes: Vec<Read> =
            reads.iter().rev().filter(|r| r.read.which == which).map(|r| r.read).take(3).collect();
        probes.dedup();
        for read in probes {
            let request = read.request();
            let (a, b) = (session.run(&request), fresh.run(&request));
            let (Ok(mut a), Ok(b)) = (a, b) else {
                out.errors.push(format!("{read:?}: final-epoch query failed"));
                continue;
            };
            if opts.corrupt {
                common::corrupt(&mut a.solution.indices, &now);
            }
            out.check(a.solution == b.solution, || {
                format!("{read:?}: final epoch differs from a fresh session")
            });
            let Some(cert) = a.solution.certified_regret else { continue };
            match which {
                Which::TwoD if read.minimize => {
                    let (exact, _) = exact_rank_regret_2d(&now, &a.solution.indices, 0.0, 1.0);
                    out.check(exact == cert, || {
                        format!("{read:?}: certified {cert}, exact sweep {exact}")
                    });
                }
                Which::Hd => {
                    let o = HdrrmOptions::default();
                    let dirs =
                        build_vector_set(DH, &FullSpace::new(DH), HD_SAMPLES, o.gamma, o.seed).dirs;
                    let worst =
                        max_rank_regret(&now, &dirs, &a.solution.indices, Parallelism::Sequential);
                    out.check(worst.is_some_and(|w| w <= cert), || {
                        format!("{read:?}: certified {cert}, frame measures {worst:?}")
                    });
                }
                _ => {}
            }
        }
    }
}

/// The traced replay: the update path layer by layer (batch application,
/// incremental skyline, the prepared handles' incremental maintenance)
/// and each read on handles advanced to the epoch it saw.
fn replay(
    out: &mut Outcome,
    tr: &Tracer,
    catalogs: [(&Dataset, &Dataset); 2],
    batches: &[Batch],
    reads: &[ReadLog],
) {
    let initial = catalogs.map(|c| c.0);
    let mut churn = catalogs.map(|(init, pool)| Churner::new(pool, half_batch(init.n())));
    let space2 = FullSpace::new(2);
    let spaceh = FullSpace::new(DH);
    let seq = ExecPolicy::sequential();
    let o2 = Rrm2dOptions { exec: seq, ..Rrm2dOptions::default() };
    let oh = HdrrmOptions { exec: seq, ..HdrrmOptions::default() };
    let mut p2 = Prepared2d::new(initial[0], &space2, o2).expect("2D handle");
    let mut ph = PreparedHdrrm::new(initial[1], &spaceh, oh).expect("HD handle");
    let mut sky2 = IncrementalSkyline::build(initial[0]);
    let mut skyh = IncrementalSkyline::build(initial[1]);
    let mut data = [initial[0].clone(), initial[1].clone()];
    let mut epoch = [0u64; 2];
    let mut run_s = 0.0;
    let budget = Budget::with_samples(HD_SAMPLES);
    let mut next_batch = [0usize; 2];
    let per: [Vec<&Batch>; 2] = [
        batches.iter().filter(|b| b.which == Which::TwoD).collect(),
        batches.iter().filter(|b| b.which == Which::Hd).collect(),
    ];
    let mut id = 0u64;
    // Reads in order, each on handles advanced to its epoch.
    for r in reads.iter().filter(|r| !r.raced) {
        let w = if r.read.which == Which::TwoD { 0 } else { 1 };
        let target = r.epoch;
        while epoch[w] < target {
            let b = per[w][next_batch[w]];
            next_batch[w] += 1;
            id += 1;
            run_s += b.seconds;
            let ops = churn[w].ops(&data[w], &b.deletes);
            tr.span("replay", None, id, |p| {
                let upd = tr
                    .span("rrm_core.update.apply", p, id, |_| apply_updates(&data[w], &ops))
                    .expect("logged batch");
                if w == 0 {
                    tr.span("rrm_skyline.incremental", p, id, |_| sky2.apply_update(&upd));
                    p2 = tr.span("rrm_2d.apply_update", p, id, |_| p2.apply_update(&upd));
                } else {
                    tr.span("rrm_skyline.incremental", p, id, |_| skyh.apply_update(&upd));
                    ph = tr.span("rrm_hd.apply_update", p, id, |_| ph.apply_update(&upd));
                }
                data[w] = upd.new;
            });
            epoch[w] += 1;
        }
        id += 1;
        run_s += r.seconds;
        let got = tr.span("replay", None, id, |p| match (r.read.which, r.read.minimize) {
            (Which::TwoD, true) => tr.span("rrm_2d.dp", p, id, |_| p2.solve_rrm(r.read.param)).ok(),
            (Which::TwoD, false) => {
                tr.span("rrm_2d.rrr", p, id, |_| p2.solve_rrr(r.read.param)).ok()
            }
            (Which::Hd, _) => {
                tr.span("rrm_hd.solve", p, id, |_| ph.solve_rrm(r.read.param, &budget)).ok()
            }
        });
        if got.as_ref().map(|g| &g.indices) != r.solution.as_ref().map(|s| &s.indices) {
            tr.count("replay.mismatch", 1.0);
        }
    }
    // The 2D crossing layer over the final rows.
    let sky = rank_regret::rrm_skyline::skyline_2d(&data[0]);
    let lines = DualLine::from_dataset(&data[0]);
    let n = tr.span("rrm_geom.crossings", None, 0, |_| {
        crossings_with_tracked(&lines, &sky, 0.0, 1.0).len()
    });
    tr.count("rrm_geom.crossings", n as f64);
    let spans = tr.spans();
    out.layer_times(&aggregate(&spans), tr);
    let (attributed, _) = common::attributed(&spans, "replay");
    out.coverage(attributed, run_s);
    out.note("replay_mismatches", tr.counter("replay.mismatch"));
}
