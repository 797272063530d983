//! What every workload shares: run options, request records and their
//! summary, setup timing, and process counters read from `/proc`.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rrm_serve::Json;

use crate::stats;
use crate::trace::{self_time, Agg, Span, Tracer};

pub struct Opts {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Corrupt one answer before the checks run, to show they bite.
    pub corrupt: bool,
}

impl Opts {
    pub fn window(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// Load threads and connections a workload may use: the machine's cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One answered (or failed) request.
#[derive(Debug, Clone)]
pub struct Rec {
    /// Distinct-key identity, e.g. `hd:min:8`.
    pub key: String,
    pub seconds: f64,
    pub ok: bool,
    /// Certified regret of a `minimize` answer.
    pub regret: Option<usize>,
}

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub context: Vec<(String, Json)>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        crate::results::unit_of(name);
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, key: &str, value: impl Into<Json>) {
        self.context.push((key.to_string(), value.into()));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Latency, throughput, failure and quality metrics from a request log.
    pub fn summarize(&mut self, recs: &[Rec], latencies_s: &[f64], wall_s: f64) {
        self.attempted = recs.len() as u64;
        self.failed = recs.iter().filter(|r| !r.ok).count() as u64;
        self.set("failed_frac", self.failed as f64 / self.attempted.max(1) as f64);
        let ok: Vec<f64> = latencies_s.iter().map(|s| s * 1e3).collect();
        if !ok.is_empty() {
            self.set("query_p50_ms", stats::median(&ok));
            let t = stats::tail(&ok);
            self.set("query_tail_ms", t.value);
            self.note("query_tail_percentile", t.percentile);
            self.note("query_tail_beyond", t.beyond);
            self.note("query_latency_samples", t.samples);
        }
        self.set("queries_per_s", recs.iter().filter(|r| r.ok).count() as f64 / wall_s);
        let regrets: Vec<f64> = recs.iter().filter_map(|r| r.regret.map(|v| v as f64)).collect();
        if !regrets.is_empty() {
            self.set("regret_mean", regrets.iter().sum::<f64>() / regrets.len() as f64);
        }
        self.note("regret_samples", regrets.len());
        let mut seen = HashSet::new();
        let repeats = recs.iter().filter(|r| !seen.insert(r.key.as_str())).count();
        self.set("session.repeat_frac", repeats as f64 / recs.len().max(1) as f64);
        self.note("distinct_keys", seen.len());
    }

    /// The per-layer figures every workload derives the same way from the
    /// traced spans.
    pub fn layer_times(&mut self, agg: &BTreeMap<&'static str, Agg>, tr: &Tracer) {
        let mean = |name: &str| agg.get(name).map_or(0.0, Agg::mean_s);
        let kernel = mean("measure.kernel");
        self.set("rrm_core.kernel.s", kernel);
        self.set("rrm_core.kernel.scores", tr.counter("rrm_core.kernel.scores"));
        let topk = mean("rrm_core.rank.batch_topk");
        self.set("rrm_core.rank.topk_s", if topk > 0.0 { (topk - kernel).max(0.0) } else { 0.0 });
        self.set("rrm_core.rank.regret_s", mean("rrm_core.rank.regret"));
        self.set("rrm_hd.discretize_s", mean("rrm_hd.discretize"));
        self.set("rrm_hd.cover_s", mean("rrm_hd.cover"));
        self.set("rrm_hd.topk_calls", tr.counter("rrm_hd.topk_calls"));
        self.set("rrm_hd.probes", tr.counter("rrm_hd.probes"));
        let solves = tr.counter("rrm_hd.solves");
        self.set(
            "rrm_hd.dirs",
            if solves > 0.0 { tr.counter("rrm_hd.dirs") / solves } else { 0.0 },
        );
        self.set("rrm_setcover.picks", tr.counter("rrm_setcover.picks"));
        self.set("rrm_lp.calls", tr.counter("rrm_lp.calls"));
        self.set("rrm_lp.s", mean("rrm_lp.enumerate_ksets"));
        let sky_calls = agg.get("rrm_skyline.skyline").map_or(0, |a| a.calls);
        self.set("rrm_skyline.s", mean("rrm_skyline.skyline"));
        self.set(
            "rrm_skyline.candidates",
            if sky_calls > 0 {
                tr.counter("rrm_skyline.candidates") / sky_calls as f64
            } else {
                0.0
            },
        );
        self.set("rrm_skyline.incremental_s", mean("rrm_skyline.incremental"));
        self.set("rrm_geom.s", mean("rrm_geom.crossings"));
        let geom_calls = agg.get("rrm_geom.crossings").map_or(0, |a| a.calls);
        self.set(
            "rrm_geom.crossings",
            if geom_calls > 0 { tr.counter("rrm_geom.crossings") / geom_calls as f64 } else { 0.0 },
        );
        self.set("rrm_2d.dp_s", mean("rrm_2d.dp"));
        self.set("rrm_2d.rrr_s", mean("rrm_2d.rrr"));
        self.set("rrm_core.approx.sample_s", mean("rrm_core.approx.sample"));
        self.set("rrm_core.approx.directions", tr.counter("rrm_core.approx.directions"));
        self.set("rrm_core.update.apply_s", mean("rrm_core.update.apply"));
    }

    /// `trace.coverage`: the time the replayed layer calls account for over
    /// the `Session::run` time of the same requests; the rest is reported
    /// as unattributed.
    pub fn coverage(&mut self, agg_children_s: f64, run_s: f64) {
        let coverage = if run_s > 0.0 { agg_children_s / run_s } else { 0.0 };
        self.set("trace.coverage", coverage);
        self.note("trace_attributed_s", agg_children_s);
        self.note("trace_session_run_s", run_s);
        self.note("trace_unattributed_frac", 1.0 - coverage);
    }
}

/// Mean certified regret with each key weighted by its share of the
/// request stream (`(key, share, regret)` per answer): the figure then does
/// not depend on how many of each key the window happened to hold.
pub fn weighted_regret(answers: impl IntoIterator<Item = (String, f64, usize)>) -> Option<f64> {
    let mut per_key: BTreeMap<String, (f64, f64, usize)> = BTreeMap::new();
    for (key, share, regret) in answers {
        let e = per_key.entry(key).or_insert((share, 0.0, 0));
        e.1 += regret as f64;
        e.2 += 1;
    }
    let (num, den) =
        per_key.values().fold((0.0, 0.0), |(n, d), (w, sum, c)| (n + w * sum / *c as f64, d + w));
    (den > 0.0).then(|| num / den)
}

/// The time the direct children of spans named `root` cover (overlaps
/// counted once: the root's duration minus its self time), and the
/// requests those roots belong to.
pub fn attributed(spans: &[Span], root: &str) -> (f64, HashSet<u64>) {
    let mut kids: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            kids.entry(p).or_default().push((s.start, s.end));
        }
    }
    let roots: Vec<&Span> = spans.iter().filter(|s| s.name == root).collect();
    let covered: u64 = roots
        .iter()
        .map(|r| {
            let children = kids.get(&r.id).map_or(&[][..], Vec::as_slice);
            r.nanos() - self_time(r.start, r.end, children)
        })
        .sum();
    (covered as f64 / 1e9, roots.iter().map(|r| r.request).collect())
}

/// Set up `repeats` times and report the median setup seconds, keeping
/// the last instance (earlier ones are dropped before the next starts).
pub fn timed_setup<T>(repeats: usize, mut build: impl FnMut() -> (T, f64)) -> (T, f64, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let (value, secs) = build();
        times.push(secs);
        last = Some(value);
    }
    (last.expect("at least one setup"), stats::median(&times), times)
}

pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A field of `/proc/self/status` in kB, as MB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Samples resident memory through the timed loop. `peak_rss_mb` is the
/// median of the samples: the process's high-water mark (VmHWM, kept in
/// the results file) and the upper percentiles depend on how
/// briefly-overlapping epoch snapshots and allocator fragmentation happen
/// to line up, which varied by 40% between runs of `churn`, far more than
/// the memory the program holds.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Vec<f64>>,
}

const RSS_EVERY: Duration = Duration::from_millis(20);

impl RssSampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                samples.push(status_mb("VmRSS:"));
                std::thread::sleep(RSS_EVERY);
            }
            samples
        });
        RssSampler { stop, handle }
    }

    /// Stop sampling and record `peak_rss_mb` (and VmHWM as context).
    pub fn finish(self, out: &mut Outcome) {
        self.stop.store(true, Ordering::Relaxed);
        let mut samples = self.handle.join().expect("RSS sampler thread");
        samples.push(status_mb("VmRSS:"));
        out.set("peak_rss_mb", stats::median(&samples));
        out.note("vm_hwm_mb", status_mb("VmHWM:"));
        out.note("rss_p95_mb", stats::percentile(&stats::sorted(&samples), 95.0));
        out.note("rss_samples", samples.len());
    }
}

/// CPU seconds (user + system) this process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields, in clock ticks of 1/100 s on Linux.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// `rrm_par.cpu_util`: CPU time over wall time times threads.
pub fn cpu_util(cpu_s: f64, wall_s: f64, threads: usize) -> f64 {
    if wall_s > 0.0 {
        cpu_s / (wall_s * threads.max(1) as f64)
    } else {
        0.0
    }
}

/// Replace an answer with the single tuple of smallest attribute sum — a
/// dominated tuple whose rank-regret no certificate covers.
pub fn corrupt(indices: &mut Vec<u32>, data: &rank_regret::Dataset) {
    let worst = (0..data.n())
        .min_by(|&a, &b| {
            let sum = |i: usize| data.row(i).iter().sum::<f64>();
            sum(a).total_cmp(&sum(b))
        })
        .expect("non-empty dataset");
    *indices = vec![worst as u32];
}

/// A catalog dataset: the geometry comes from a fixed generator seed, so
/// every run measures the same catalog; the run seed permutes the rows,
/// which changes every index the program sees and every tie it breaks.
pub fn catalog(rows: rank_regret::Dataset, run_seed: u64) -> rank_regret::Dataset {
    let mut order: Vec<usize> = (0..rows.n()).collect();
    stats::Rng::derive(run_seed, 0xCA7A).shuffle(&mut order);
    let permuted: Vec<&[f64]> = order.iter().map(|&i| rows.row(i)).collect();
    rank_regret::Dataset::from_rows(&permuted).expect("rows of a valid dataset")
}
