//! `serve_mixed`: the deployed service over loopback TCP. Two tenants —
//! `catalog2d` (anti-correlated, n = 100K, d = 2, warmed with 2DRRM and
//! 2DRRR) and `catalog4d` (independent, n = 20K, d = 4, queried at
//! approximate fidelity) — take a Zipf-keyed mix with no deadlines, so
//! every answer is deterministic. The server is started five times; each
//! start serves an open loop at a fixed offered rate from its own cold
//! start (latency figures), and the last one then serves a closed-loop
//! saturation phase over one connection per core (throughput).

use std::collections::HashMap;
use std::io::{ErrorKind as IoKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rank_regret::rrm_core::approx::{per_direction_top, sample_directions, DEFAULT_SEED};
use rank_regret::rrm_core::rank::max_rank_regret;
use rank_regret::rrm_core::Parallelism;
use rank_regret::rrm_eval::exact_rank_regret_2d;
use rank_regret::rrm_geom::{crossings_with_tracked, DualLine};
use rank_regret::{AlgoChoice, Algorithm, Dataset, ExecPolicy, FullSpace, Session};
use rrm_serve::{
    effective_request, parse_request, Json, ServerConfig, ServerHandle, SyntheticKind, TenantSpec,
};

use crate::common::{self, Opts, Outcome, Rec};
use crate::stats::{self, Rng, Schedule, Zipf};
use crate::trace::{aggregate, Tracer};

const N2: usize = 100_000;
const N4: usize = 20_000;
const D4: usize = 4;
/// Offered load of the open-loop phase, requests per second: far below
/// the saturation throughput (mostly result-cache hits), because above
/// about 2000/s on a 2-core machine the cold start of first-seen keys
/// becomes a backlog that outlasts the stretch.
const OFFERED_RATE: f64 = 500.0;
/// Admission limits far above any backlog this load builds, so no
/// request of the workload is refused.
const MAX_INFLIGHT: usize = 4096;
/// Shares of the window: each server start but the last serves an
/// open-loop stretch of `SHORT_SHARE`, the last one of `LAST_SHARE`, and
/// then `SAT_SHARE` saturates the last server (the starts themselves are
/// timed apart, as set-up). The median latency counts
/// only the second half of the last stretch: the first pass over the Zipf
/// head is a cold start a long-running service pays once, and it belongs
/// to the tail, not the median.
const SHORT_SHARE: f64 = 0.08;
const LAST_SHARE: f64 = 0.34;
const SAT_SHARE: f64 = 0.34;
const SERVER_STARTS: usize = 5;
const CATALOG_SEED: u64 = 0x5EED_5E7E;
/// Requests each saturation connection keeps outstanding.
const PIPELINE: usize = 4;
/// Key spaces and the Zipf exponent the keys are drawn with. A steep
/// exponent makes the cold start (the first pass over the head keys, which
/// sets the tail) nearly the same work whatever the seed.
const MIN2_KEYS: usize = 256;
const REP2_KEYS: usize = 4096;
const APPROX_KEYS: usize = 64;
const ZIPF_S: f64 = 1.5;
/// Popular keys per kind the open loop starts with.
const HEAD_KEYS: usize = 16;
const APPROX: &str = r#"{"eps":0.1,"delta":0.05}"#;
/// Longest sleep between socket polls while waiting for a reply.
const POLL: Duration = Duration::from_micros(200);
/// 2D certificates re-derived exactly per run (each costs a sweep over
/// the 100K-row arrangement).
const EXACT_2D_CHECKS: usize = 4;

/// One request line's identity.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Key {
    tenant: &'static str,
    minimize: bool,
    param: usize,
}

impl Key {
    fn line(&self, id: u64) -> String {
        let op = if self.minimize { "minimize" } else { "represent" };
        let approx = if self.tenant == "catalog4d" {
            format!(r#","approx":{APPROX}"#)
        } else {
            String::new()
        };
        format!(
            r#"{{"op":"{op}","tenant":"{}","param":{}{approx},"id":{id}}}"#,
            self.tenant, self.param
        )
    }

    fn name(&self) -> String {
        format!("{}:{}:{}", self.tenant, if self.minimize { "min" } else { "rep" }, self.param)
    }
}

struct Draws {
    rng: Rng,
    min2: Zipf,
    rep2: Zipf,
    approx: Zipf,
    /// Keys sent before any draw, last first.
    head: Vec<Key>,
}

impl Draws {
    fn new(seed: u64, stream: u64) -> Self {
        Draws {
            rng: Rng::derive(seed, 100 + stream),
            min2: Zipf::new(MIN2_KEYS, ZIPF_S),
            rep2: Zipf::new(REP2_KEYS, ZIPF_S),
            approx: Zipf::new(APPROX_KEYS, ZIPF_S),
            head: Vec::new(),
        }
    }

    /// Start with one pass, in seeded order, over the `HEAD_KEYS` most
    /// popular keys of each kind: the keys a freshly started service is
    /// asked first. The cold start, which sets the open loop's tail, is
    /// then the same work whatever the seed.
    fn with_head_pass(mut self) -> Self {
        for param in 1..=HEAD_KEYS {
            self.head.push(Key { tenant: "catalog2d", minimize: true, param });
            self.head.push(Key { tenant: "catalog2d", minimize: false, param });
            self.head.push(Key { tenant: "catalog4d", minimize: true, param });
        }
        self.rng.shuffle(&mut self.head);
        self
    }

    /// 60% catalog2d minimize, 25% catalog2d represent, 15% catalog4d
    /// approximate minimize.
    fn next(&mut self) -> Key {
        if let Some(key) = self.head.pop() {
            return key;
        }
        let u = self.rng.unit();
        if u < 0.60 {
            Key { tenant: "catalog2d", minimize: true, param: self.min2.draw(&mut self.rng) }
        } else if u < 0.85 {
            Key { tenant: "catalog2d", minimize: false, param: self.rep2.draw(&mut self.rng) }
        } else {
            Key { tenant: "catalog4d", minimize: true, param: self.approx.draw(&mut self.rng) }
        }
    }
}

/// One request on the wire and its outcome.
struct Sent {
    key: Key,
    due: Instant,
    sent: Instant,
    answered: Option<Instant>,
    ok: bool,
    regret: Option<usize>,
    queued_ms: Option<f64>,
}

impl Sent {
    fn new(key: Key, due: Instant, sent: Instant) -> Sent {
        Sent { key, due, sent, answered: None, ok: false, regret: None, queued_ms: None }
    }
}

fn indices_of(reply: &Json) -> Vec<u32> {
    match reply.get("indices") {
        Some(Json::Arr(a)) => a.iter().filter_map(|v| v.as_usize().map(|i| i as u32)).collect(),
        _ => Vec::new(),
    }
}

fn answer_of(reply: &Json) -> (Vec<u32>, Option<usize>) {
    (indices_of(reply), reply.get("certified_regret").and_then(Json::as_usize))
}

/// The first reply per key, with every later reply of that key compared
/// against it on arrival, so the client holds one reply per distinct key
/// however long the run.
#[derive(Default)]
struct Book {
    first: HashMap<Key, Json>,
    errors: Vec<String>,
}

impl Book {
    fn note(&mut self, sent: &mut Sent, reply: Json) {
        sent.answered = Some(Instant::now());
        sent.ok = reply.get("status").and_then(Json::as_str) == Some("ok");
        sent.queued_ms = reply.get("queued_micros").and_then(Json::as_f64).map(|us| us / 1e3);
        if !sent.ok {
            self.errors.push(format!("{} failed: {}", sent.key.name(), reply.render()));
            return;
        }
        if sent.key.minimize {
            sent.regret = reply.get("certified_regret").and_then(Json::as_usize);
        }
        self.keep(sent.key.clone(), reply);
    }

    fn keep(&mut self, key: Key, reply: Json) {
        match self.first.get(&key) {
            Some(first) if answer_of(first) != answer_of(&reply) => self.errors.push(format!(
                "{}: two replies differ: {} vs {}",
                key.name(),
                first.render(),
                reply.render()
            )),
            Some(_) => {}
            None => {
                self.first.insert(key, reply);
            }
        }
    }

    fn merge(&mut self, other: Book) {
        self.errors.extend(other.errors);
        for (k, r) in other.first {
            self.keep(k, r);
        }
    }
}

/// What a saturation lane keeps: aggregates and 4-byte samples, not
/// per-request records, so the client's memory does not grow with the
/// server's throughput (it shares the process, and `peak_rss_mb`).
#[derive(Default)]
struct Tally {
    /// Completions per whole second since the phase started.
    bins: Vec<u64>,
    attempted: u64,
    failed: u64,
    regret_sum: f64,
    regret_n: u64,
    queued_ms: Vec<f32>,
    /// Round trips, and the keys of those that were the lane's first
    /// request for their key (by position).
    rtt_ms: Vec<f32>,
    firsts: Vec<(usize, Key)>,
    keys: HashMap<Key, u64>,
}

/// A connection with line framing over a read timeout.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn { stream, buf: Vec::new() })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.stream.set_nonblocking(false)?;
        self.stream.write_all(format!("{line}\n").as_bytes())
    }

    /// The next complete reply, blocking until it arrives.
    fn recv_blocking(&mut self) -> std::io::Result<Json> {
        self.stream.set_nonblocking(false)?;
        self.stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        loop {
            if let Some(reply) = self.take_line()? {
                return Ok(reply);
            }
            let mut chunk = [0u8; 8192];
            match self.stream.read(&mut chunk)? {
                0 => return Err(IoKind::UnexpectedEof.into()),
                k => self.buf.extend_from_slice(&chunk[..k]),
            }
        }
    }

    /// A complete buffered reply line, parsed.
    fn take_line(&mut self) -> std::io::Result<Option<Json>> {
        let Some(pos) = self.buf.iter().position(|&b| b == b'\n') else { return Ok(None) };
        let line: Vec<u8> = self.buf.drain(..=pos).collect();
        let text = String::from_utf8_lossy(&line[..pos]).into_owned();
        rrm_serve::json::parse(text.trim())
            .map(Some)
            .map_err(|e| std::io::Error::new(IoKind::InvalidData, e))
    }

    /// The next complete reply, waiting at most `wait` (`None` on timeout).
    /// Polls a non-blocking socket with short sleeps: socket read timeouts
    /// round up to the kernel tick, which would make the open-loop
    /// generator milliseconds late.
    fn recv(&mut self, wait: Duration) -> std::io::Result<Option<Json>> {
        let until = Instant::now() + wait;
        self.stream.set_nonblocking(true)?;
        loop {
            if let Some(reply) = self.take_line()? {
                return Ok(Some(reply));
            }
            let mut chunk = [0u8; 8192];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(IoKind::UnexpectedEof.into()),
                Ok(k) => self.buf.extend_from_slice(&chunk[..k]),
                Err(e) if e.kind() == IoKind::WouldBlock => {
                    let now = Instant::now();
                    if now >= until {
                        return Ok(None);
                    }
                    std::thread::sleep((until - now).min(POLL));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

fn reply_id(reply: &Json) -> Option<usize> {
    reply.get("id").and_then(Json::as_usize)
}

/// One load thread's open-loop share: requests `i ≡ lane (mod lanes)` of
/// the schedule, sent when due whether or not earlier ones were answered.
fn open_loop(
    addr: SocketAddr,
    sched: Schedule,
    lane: usize,
    lanes: usize,
    end: Instant,
    mut draws: Draws,
) -> std::io::Result<(Vec<Sent>, Book)> {
    let mut conn = Conn::connect(addr)?;
    let mut out: Vec<Sent> = Vec::new();
    let mut book = Book::default();
    let mut open = 0usize;
    let mut i = lane;
    loop {
        let now = Instant::now();
        let due = sched.due(i);
        if due < end && now >= due {
            let key = draws.next();
            conn.send(&key.line(out.len() as u64))?;
            out.push(Sent::new(key, due, Instant::now()));
            open += 1;
            i += lanes;
            continue;
        }
        if due >= end && open == 0 {
            return Ok((out, book));
        }
        let wait =
            if due < end { due.saturating_duration_since(now) } else { Duration::from_millis(50) };
        if let Some(reply) = conn.recv(wait)? {
            let slot = reply_id(&reply).and_then(|id| out.get_mut(id)).ok_or_else(|| {
                std::io::Error::new(IoKind::InvalidData, "reply with an unknown id")
            })?;
            book.note(slot, reply);
            open -= 1;
        }
    }
}

/// One load thread's saturation share: a closed loop until `end`, keeping
/// `PIPELINE` requests outstanding on its connection.
fn closed_loop(
    addr: SocketAddr,
    start: Instant,
    end: Instant,
    mut draws: Draws,
) -> std::io::Result<(Tally, Book)> {
    let mut conn = Conn::connect(addr)?;
    let mut book = Book::default();
    let mut tally = Tally::default();
    let mut inflight: HashMap<u64, (Key, Instant)> = HashMap::new();
    let mut next_id = 0u64;
    loop {
        if inflight.len() < PIPELINE && Instant::now() < end {
            let key = draws.next();
            conn.send(&key.line(next_id))?;
            inflight.insert(next_id, (key, Instant::now()));
            next_id += 1;
            continue;
        }
        if inflight.is_empty() {
            return Ok((tally, book));
        }
        let reply = conn.recv_blocking()?;
        let (key, sent) = reply_id(&reply)
            .and_then(|id| inflight.remove(&(id as u64)))
            .ok_or_else(|| std::io::Error::new(IoKind::InvalidData, "reply with an unknown id"))?;
        let now = Instant::now();
        let mut s = Sent::new(key.clone(), sent, sent);
        book.note(&mut s, reply);
        tally.attempted += 1;
        if !s.ok {
            tally.failed += 1;
            continue;
        }
        let bin = now.saturating_duration_since(start).as_secs() as usize;
        if tally.bins.len() <= bin {
            tally.bins.resize(bin + 1, 0);
        }
        tally.bins[bin] += 1;
        if let Some(r) = s.regret {
            tally.regret_sum += r as f64;
            tally.regret_n += 1;
        }
        tally.queued_ms.extend(s.queued_ms.map(|q| q as f32));
        let count = tally.keys.entry(key.clone()).or_insert(0);
        if *count == 0 {
            tally.firsts.push((tally.rtt_ms.len(), key));
        }
        *count += 1;
        tally.rtt_ms.push(now.saturating_duration_since(sent).as_secs_f64() as f32 * 1e3);
    }
}

/// The tenants. Their data are generated inside the server from these
/// fixed seeds, so every run serves the same catalogs; the run seed draws
/// the request stream.
fn specs() -> Vec<TenantSpec> {
    vec![
        TenantSpec::synthetic("catalog2d", SyntheticKind::Anticorrelated, N2, 2, CATALOG_SEED)
            .max_inflight(MAX_INFLIGHT),
        TenantSpec::synthetic("catalog4d", SyntheticKind::Independent, N4, D4, CATALOG_SEED + 1)
            .max_inflight(MAX_INFLIGHT),
    ]
}

fn config() -> ServerConfig {
    ServerConfig {
        workers: common::nproc(),
        queue_cap: 2 * MAX_INFLIGHT,
        warm: vec![Algorithm::TwoDRrm, Algorithm::TwoDRrr, Algorithm::Sampled],
        exec: ExecPolicy::sequential(),
        ..ServerConfig::default()
    }
}

fn tenant_stat(stats: &Json, path: &[&str]) -> f64 {
    let Some(Json::Obj(tenants)) = stats.get("tenants") else { return 0.0 };
    tenants
        .iter()
        .map(|(_, t)| {
            path.iter().try_fold(t, |j, k| j.get(k)).and_then(Json::as_f64).unwrap_or(0.0)
        })
        .sum()
}

pub fn run(opts: &Opts, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let lanes = common::nproc();
    let specs = specs();
    // Data generation is not set-up: time it alone and subtract it.
    let datasets: Vec<Dataset> =
        specs.iter().map(|s| s.source.load().expect("synthetic data")).collect();
    // Start the server SERVER_STARTS times. Each start is timed (minus the
    // data generation) and then serves one open-loop stretch from its own
    // cold start; the last server then serves the saturation phase. The
    // tail is the median over the stretches: a cold start lasts a couple
    // of seconds, and one alone inherits the machine's speed over those
    // seconds.
    let rss = common::RssSampler::start();
    let cpu0 = common::cpu_seconds();
    let start = Instant::now();
    let interval = Duration::from_secs_f64(1.0 / OFFERED_RATE);
    let mut book = Book::default();
    let (mut setups, mut tails) = (Vec::new(), Vec::new());
    let mut open: Vec<Sent> = Vec::new();
    let mut open_lat: Vec<f64> = Vec::new();
    let mut server: Option<ServerHandle> = None;
    for life in 0..SERVER_STARTS {
        if let Some(old) = server.take() {
            drop(old.shutdown());
        }
        let g = Instant::now();
        for s in &specs {
            std::hint::black_box(s.source.load().expect("synthetic data"));
        }
        let gen_s = common::secs_since(g);
        let t = Instant::now();
        let started = ServerHandle::start(config(), &specs).expect("server starts");
        setups.push(common::secs_since(t) - gen_s);
        let addr = started.addr();
        server = Some(started);

        let last = life + 1 == SERVER_STARTS;
        let stretch = opts.window().mul_f64(if last { LAST_SHARE } else { SHORT_SHARE });
        let begin = Instant::now();
        let sched = Schedule { start: begin, interval };
        let end = begin + stretch;
        let steady_from = if last { begin + stretch / 2 } else { end };
        let sent: Vec<Sent> = std::thread::scope(|scope| {
            let lanes: Vec<_> = (0..lanes)
                .map(|lane| {
                    let mut draws = Draws::new(opts.seed, (life * lanes + lane) as u64);
                    if lane == 0 {
                        draws = draws.with_head_pass();
                    }
                    scope.spawn(move || open_loop(addr, sched, lane, lanes, end, draws))
                })
                .collect();
            let mut sent = Vec::new();
            for h in lanes {
                let (s, b) = h.join().expect("open-loop thread").expect("open-loop I/O");
                sent.extend(s);
                book.merge(b);
            }
            sent
        });
        let latency = |s: &Sent| {
            s.answered.filter(|_| s.ok).map(|a| stats::open_loop_latency(s.due, s.sent, a).0)
        };
        let all: Vec<f64> =
            sent.iter().filter_map(latency).map(|d| d.as_secs_f64() * 1e3).collect();
        if !all.is_empty() {
            tails.push(stats::tail(&all));
        }
        open_lat.extend(
            sent.iter()
                .filter(|s| s.due >= steady_from)
                .filter_map(latency)
                .map(|d| d.as_secs_f64()),
        );
        open.extend(sent);
    }
    let server = server.expect("at least one server start");
    out.set("setup_s", stats::median(&setups));
    let addr = server.addr();
    let (closed, sat_len) = std::thread::scope(|scope| {
        let sat_start = Instant::now();
        let sat_end = sat_start + opts.window().mul_f64(SAT_SHARE);
        let lanes: Vec<_> = (0..lanes)
            .map(|lane| {
                let draws = Draws::new(opts.seed, 1000 + lane as u64);
                scope.spawn(move || closed_loop(addr, sat_start, sat_end, draws))
            })
            .collect();
        let mut tallies = Vec::new();
        for h in lanes {
            let (t, b) = h.join().expect("saturation thread").expect("saturation I/O");
            tallies.push(t);
            book.merge(b);
        }
        (tallies, sat_end.saturating_duration_since(sat_start))
    });
    let wall = common::secs_since(start);
    let cpu = common::cpu_seconds() - cpu0;
    let stats_json = server.stats_json();
    rss.finish(&mut out);
    let calib = server.calibration();
    drop(server.shutdown());

    // Figures.
    let recs: Vec<Rec> = open
        .iter()
        .map(|s| Rec {
            key: s.key.name(),
            seconds: s.answered.map_or(0.0, |a| a.saturating_duration_since(s.due).as_secs_f64()),
            ok: s.ok,
            regret: s.regret,
        })
        .collect();
    out.summarize(&recs, &open_lat, wall);
    out.context.retain(|(k, _)| !k.starts_with("query_tail_") && k != "query_latency_samples");
    if !tails.is_empty() {
        let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
        out.set("query_tail_ms", stats::median(&values));
        out.note("query_tail_per_start_ms", Json::Arr(values.iter().map(|&v| v.into()).collect()));
        out.note(
            "query_tail_percentile",
            Json::Arr(tails.iter().map(|t| t.percentile.into()).collect()),
        );
        out.note("query_tail_beyond", tails[0].beyond);
    }
    out.note("query_p50_samples", open_lat.len());
    out.note("server_starts", SERVER_STARTS);
    // Saturation throughput: the mean of the middle half of whole
    // one-second bins, so a short stall of the machine moves one bin, not
    // the figure.
    let whole = sat_len.as_secs() as usize;
    let per_s: Vec<f64> = (0..whole)
        .map(|b| closed.iter().map(|t| t.bins.get(b).copied().unwrap_or(0)).sum::<u64>() as f64)
        .collect();
    if !per_s.is_empty() {
        out.set("queries_per_s", stats::interquartile_mean(&per_s));
    }
    out.note("saturation_bins", per_s.len());
    // Fold the saturation tallies into the request-log figures.
    let sat_attempted: u64 = closed.iter().map(|t| t.attempted).sum();
    let sat_failed: u64 = closed.iter().map(|t| t.failed).sum();
    let open_regrets: Vec<usize> = open.iter().filter_map(|s| s.regret).collect();
    let regret_n = open_regrets.len() as u64 + closed.iter().map(|t| t.regret_n).sum::<u64>();
    let regret_sum = open_regrets.iter().sum::<usize>() as f64
        + closed.iter().map(|t| t.regret_sum).sum::<f64>();
    if regret_n > 0 {
        out.set("regret_mean", regret_sum / regret_n as f64);
    }
    let mut keys: HashMap<&Key, u64> = HashMap::new();
    for k in open.iter().map(|s| &s.key) {
        *keys.entry(k).or_insert(0) += 1;
    }
    for t in &closed {
        for (k, c) in &t.keys {
            *keys.entry(k).or_insert(0) += c;
        }
    }
    let total: u64 = keys.values().sum();
    out.context.retain(|(k, _)| k != "distinct_keys");
    out.note("distinct_keys", keys.len());
    out.attempted += sat_attempted;
    out.failed += sat_failed;
    out.set("failed_frac", out.failed as f64 / out.attempted.max(1) as f64);
    out.set("session.repeat_frac", (total - keys.len() as u64) as f64 / total.max(1) as f64);
    let distinct = |tenant: &str| keys.keys().filter(|k| k.tenant == tenant).count();
    let lateness: Vec<f64> = open
        .iter()
        .map(|s| stats::open_loop_latency(s.due, s.sent, s.sent).1.as_secs_f64() * 1e3)
        .collect();
    if !lateness.is_empty() {
        let l = stats::sorted(&lateness);
        out.note("generator_lateness_p50_ms", stats::percentile(&l, 50.0));
        out.note("generator_lateness_p99_ms", stats::percentile(&l, 99.0));
        out.note("generator_lateness_max_ms", l[l.len() - 1]);
    }
    out.note("offered_rate_per_s", OFFERED_RATE);
    out.note("open_loop_requests", open.len());
    out.note("saturation_requests", sat_attempted);
    out.note("load_threads", lanes);
    out.note("connections", lanes);
    out.note("server_workers", lanes);
    out.note(
        "tenant_catalog2d",
        format!("anticorrelated n={N2} d=2, distinct keys {}", distinct("catalog2d")).as_str(),
    );
    out.note(
        "tenant_catalog4d",
        format!(
            "independent n={N4} d={D4} approx eps=0.1 delta=0.05, distinct keys {}",
            distinct("catalog4d")
        )
        .as_str(),
    );
    // Each solve runs sequentially inside one of `lanes` server workers.
    out.set("rrm_par.threads", config().exec.effective_threads() as f64);
    out.set("rrm_par.cpu_util", common::cpu_util(cpu, wall, lanes));
    let completed = tenant_stat(&stats_json, &["completed"]);
    let hits = tenant_stat(&stats_json, &["result_cache", "hits"]);
    out.set(
        "rrm_serve.result_cache_hit_frac",
        if completed > 0.0 { hits / completed } else { 0.0 },
    );
    out.set("rrm_serve.rejected", tenant_stat(&stats_json, &["rejected_overload"]));
    out.set("session.prepare_hits", tenant_stat(&stats_json, &["prepare_hits"]));
    out.set("session.prepare_misses", tenant_stat(&stats_json, &["prepare_misses"]));
    let queued: Vec<f64> = open
        .iter()
        .filter_map(|s| s.queued_ms)
        .chain(closed.iter().flat_map(|t| t.queued_ms.iter().map(|&q| q as f64)))
        .collect();
    if !queued.is_empty() {
        let q = stats::sorted(&queued);
        out.set("rrm_serve.queue_ms_p50", stats::percentile(&q, 50.0));
        out.set("rrm_serve.queue_ms_p99", stats::percentile(&q, 99.0));
    }
    for s in open.iter().filter(|s| s.answered.is_none()) {
        out.errors.push(format!("{}: no reply", s.key.name()));
    }

    // Checks: every answer equals an in-process Session replay (repeats of
    // a key were compared with its first reply as they arrived).
    out.errors.append(&mut book.errors);
    let mut replies: Vec<(Key, Json)> = book.first.into_iter().collect();
    replies.sort_by(|a, b| a.0.cmp(&b.0));
    if opts.corrupt {
        if let Some((_, Json::Obj(fields))) =
            replies.iter_mut().find(|(k, _)| k.tenant == "catalog2d" && k.minimize)
        {
            for (k, v) in fields.iter_mut() {
                if k == "indices" {
                    let mut idx = vec![0u32];
                    common::corrupt(&mut idx, &datasets[0]);
                    *v = Json::Arr(idx.iter().map(|&i| Json::from(i as u64)).collect());
                }
            }
        }
    }
    if tr.enabled() {
        for (i, s) in open.iter().enumerate() {
            if let Some(answered) = s.answered {
                tr.record("request", None, i as u64, s.due, answered);
            }
        }
    }
    let inproc = check(&mut out, opts, tr, &datasets, &replies, calib);

    if tr.enabled() {
        traced(&mut out, tr, &datasets, &open, &closed, &replies, &inproc, opts.window());
    }
    out
}

/// An in-process answer: indices, certificate, and the sampled tier's
/// direction count.
type Expected = (Vec<u32>, Option<usize>, Option<usize>);

/// In-process seconds per distinct key (first computation).
type Inproc = HashMap<Key, f64>;

/// In-process sessions over the tenants' rows, warmed as the server warms
/// them; returns the total warm time too.
fn sessions(datasets: &[Dataset]) -> (Vec<Session>, f64) {
    let mut warm_s = Vec::new();
    let sessions = datasets
        .iter()
        .map(|d| {
            let s = Session::new(d.clone()).exec(ExecPolicy::sequential());
            let t = Instant::now();
            s.warm(&config().warm);
            warm_s.push(common::secs_since(t));
            s
        })
        .collect();
    (sessions, warm_s.iter().sum())
}

fn check(
    out: &mut Outcome,
    opts: &Opts,
    tr: &Tracer,
    datasets: &[Dataset],
    replies: &[(Key, Json)],
    calib: rrm_serve::Calibration,
) -> Inproc {
    let (sess, warm_s) = sessions(datasets);
    out.set("session.prepare_s", warm_s);
    let mut expected: HashMap<Key, Expected> = HashMap::new();
    let mut inproc = Inproc::new();
    let mut order: Vec<&Key> = Vec::new();
    for (k, _) in replies {
        if expected.contains_key(k) {
            continue;
        }
        order.push(k);
        let ti = if k.tenant == "catalog2d" { 0 } else { 1 };
        let (data, session) = (&datasets[ti], &sess[ti]);
        let wire = parse_request(&k.line(0)).expect("request lines parse");
        let request = effective_request(&wire, calib, data.n(), data.dim()).expect("query op");
        let t = Instant::now();
        let resp = tr.span("session.run", None, order.len() as u64, |_| session.run(&request));
        inproc.insert(k.clone(), common::secs_since(t));
        let entry = match resp {
            Ok(r) => {
                let directions = match r.solution.terminated_by {
                    rank_regret::TerminatedBy::Sampled { directions, .. } => Some(directions),
                    _ => None,
                };
                (r.solution.indices.clone(), r.solution.certified_regret, directions)
            }
            Err(e) => {
                out.errors.push(format!("{}: in-process replay failed: {e}", k.name()));
                (Vec::new(), None, None)
            }
        };
        expected.insert(k.clone(), entry);
    }
    for (key, reply) in replies {
        let (idx, cert, _) = &expected[key];
        let (got_idx, got_cert) = answer_of(reply);
        out.check(&got_idx == idx && got_cert == *cert, || {
            format!("{}: served {got_idx:?}/{got_cert:?}, in-process {idx:?}/{cert:?}", key.name())
        });
    }
    // Certificates, recomputed by code that did not produce them.
    let mut rng = Rng::derive(opts.seed, 7);
    let mut two_d: Vec<&Key> =
        order.iter().copied().filter(|k| k.tenant == "catalog2d" && k.minimize).collect();
    rng.shuffle(&mut two_d);
    for k in two_d.into_iter().take(EXACT_2D_CHECKS) {
        let (idx, cert, _) = &expected[k];
        let served = replies.iter().find(|(rk, _)| rk == k).map(|(_, r)| indices_of(r));
        let set = served.unwrap_or_else(|| idx.clone());
        if set.is_empty() {
            continue;
        }
        let (exact, _) = exact_rank_regret_2d(&datasets[0], &set, 0.0, 1.0);
        out.check(Some(exact) == *cert, || {
            format!("{}: certified {cert:?}, exact sweep {exact}", k.name())
        });
    }
    let pol = Parallelism::fixed(common::nproc());
    for k in order.iter().filter(|k| k.tenant == "catalog4d") {
        let (idx, cert, directions) = &expected[*k];
        let (Some(m), Some(cert)) = (directions, cert) else { continue };
        let dirs = sample_directions(&FullSpace::new(D4), *m, DEFAULT_SEED);
        let measured = max_rank_regret(&datasets[1], &dirs, idx, pol);
        out.check(measured == Some(*cert), || {
            format!("{}: certified {cert}, recounted {measured:?} over {m} directions", k.name())
        });
    }
    inproc
}

/// The traced run's serve and layer figures.
#[allow(clippy::too_many_arguments)]
fn traced(
    out: &mut Outcome,
    tr: &Tracer,
    datasets: &[Dataset],
    open: &[Sent],
    closed: &[Tally],
    replies: &[(Key, Json)],
    inproc: &Inproc,
    window: Duration,
) {
    // rrm_serve.overhead_ms: saturation round trip minus the in-process
    // cost of the same request (its first computation when neither the
    // open loop nor this connection had asked it before, else nothing: the
    // server answered from its result cache).
    let seen: std::collections::HashSet<&Key> = open.iter().map(|s| &s.key).collect();
    let mut overhead: Vec<f64> = Vec::new();
    for t in closed {
        let mut rtt: Vec<f64> = t.rtt_ms.iter().map(|&r| r as f64).collect();
        for (i, k) in &t.firsts {
            if !seen.contains(k) {
                rtt[*i] -= inproc.get(k).copied().unwrap_or(0.0) * 1e3;
            }
        }
        overhead.extend(rtt);
    }
    if !overhead.is_empty() {
        out.set("rrm_serve.overhead_ms", stats::median(&overhead));
    }
    let lines: Vec<String> =
        replies.iter().enumerate().map(|(i, (k, _))| k.line(i as u64)).collect();
    let t = Instant::now();
    for l in &lines {
        std::hint::black_box(parse_request(l).expect("request lines parse"));
    }
    out.set("rrm_serve.parse_us", common::secs_since(t) * 1e6 / lines.len().max(1) as f64);
    let t = Instant::now();
    for (_, r) in replies {
        std::hint::black_box(r.render());
    }
    out.set("rrm_serve.render_us", common::secs_since(t) * 1e6 / replies.len().max(1) as f64);

    // Layer replays on fresh sessions, distinct keys in first-seen order.
    let data2 = &datasets[0];
    let sky =
        tr.span("rrm_skyline.skyline", None, 0, |_| rank_regret::rrm_skyline::skyline_2d(data2));
    tr.count("rrm_skyline.candidates", sky.len() as f64);
    let lines2 = DualLine::from_dataset(data2);
    let (c0, c1) = rank_regret::rrm_2d::weight_interval(&FullSpace::new(2)).expect("full 2D space");
    let crossings = tr.span("rrm_geom.crossings", None, 0, |_| {
        crossings_with_tracked(&lines2, &sky, c0, c1).len()
    });
    tr.count("rrm_geom.crossings", crossings as f64);
    let (sess, _) = sessions(datasets);
    let h2 = sess[0].prepared(AlgoChoice::Fixed(Algorithm::TwoDRrm)).expect("2D handle");
    let pol = Parallelism::Sequential;
    let mut done = std::collections::HashSet::new();
    let mut run_s = 0.0;
    let budget = Instant::now() + window / 2;
    for (i, (k, reply)) in replies.iter().enumerate() {
        if Instant::now() > budget {
            break;
        }
        if !done.insert(k.clone()) {
            continue;
        }
        run_s += inproc.get(k).copied().unwrap_or(0.0);
        let id = 1_000_000 + i as u64;
        tr.span("replay", None, id, |p| match (k.tenant, k.minimize) {
            ("catalog2d", true) => {
                let _ = tr.span("rrm_2d.dp", p, id, |_| {
                    h2.solve_rrm(k.param, &rank_regret::Budget::UNLIMITED)
                });
            }
            ("catalog2d", false) => {
                let _ = tr.span("rrm_2d.rrr", p, id, |_| {
                    h2.solve_rrr(k.param, &rank_regret::Budget::UNLIMITED)
                });
            }
            _ => {
                let m = reply
                    .get("confidence")
                    .and_then(|c| c.get("directions"))
                    .and_then(Json::as_usize)
                    .unwrap_or(0);
                let cert = reply.get("certified_regret").and_then(Json::as_usize).unwrap_or(1);
                let data4 = &datasets[1];
                let dirs = tr.span("rrm_core.approx.sample", p, id, |_| {
                    let dirs = sample_directions(&FullSpace::new(D4), m, DEFAULT_SEED);
                    let mut k = 1;
                    loop {
                        std::hint::black_box(per_direction_top(data4, &dirs, k, pol));
                        if k >= cert {
                            break dirs;
                        }
                        k *= 2;
                    }
                });
                tr.count("rrm_core.approx.directions", m as f64);
                let idx: Vec<u32> = match reply.get("indices") {
                    Some(Json::Arr(a)) => {
                        a.iter().filter_map(|v| v.as_usize().map(|i| i as u32)).collect()
                    }
                    _ => Vec::new(),
                };
                if !idx.is_empty() {
                    tr.span("rrm_core.rank.regret", p, id, |_| {
                        max_rank_regret(data4, &dirs, &idx, pol)
                    });
                }
            }
        });
    }
    let spans = tr.spans();
    out.layer_times(&aggregate(&spans), tr);
    let (attributed, _) = common::attributed(&spans, "replay");
    out.coverage(attributed, run_s);
}
