//! The TCP front end: accept loop, per-connection reader threads that do
//! admission control inline, a bounded global job queue, and N worker
//! threads running queries against tenant [`Session`]s.
//!
//! Threading model:
//!
//! * one accept thread;
//! * one reader thread per connection (parse + admission + `stats`
//!   answered inline, so rejections never wait behind slow queries);
//! * `workers` query threads popping a shared bounded queue.
//!
//! Responses to one connection may interleave out of request order when
//! `workers > 1`; clients correlate by the echoed `id`. Solver kernels
//! run under the configured [`ExecPolicy`] (default sequential): the
//! server parallelizes *across* requests, not inside one.
//!
//! Deadlines: `deadline_ms` is wall clock from admission, enforced two
//! ways depending on the algorithm. For the anytime (cuttable) HD
//! solvers the deadline becomes an in-solve [`Cutoff::TimeBudget`]: the
//! solver runs bound-and-prune under the clock and an overloaded tenant
//! gets its best incumbent with a certified gap (`"partial": true`)
//! instead of an error — even when the whole deadline was burned in the
//! queue, in which case the solve runs under an already-expired cutoff
//! and returns its first incumbent immediately. Non-cuttable algorithms
//! keep the old dispatch-time aging: a request that aged out in the
//! queue gets a structured `deadline_exceeded` with its queueing time as
//! diagnostics, without running. In both cases the deadline is also
//! mapped onto the counter [`Budget`] via a startup [`Calibration`] of
//! the scoring kernel, derived from the full deadline — not the
//! post-queue remainder — so a replayed request through an in-process
//! [`Session`] builds the *identical* `Request` and the determinism
//! contract extends over the wire (time-cut partial answers are the one
//! documented exception: they depend on wall clock, and the parity
//! replay skips them).
//!
//! [`Session`]: rank_regret::Session

use std::collections::VecDeque;
use std::io::{ErrorKind as IoErrorKind, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rank_regret::rrm_core::kernel::{for_each_scores, ScoreScratch};
use rank_regret::{
    Algorithm, Budget, Cutoff, ExecPolicy, Request, RrmError, TerminatedBy, UpdateOp,
};

use crate::json::Json;
use crate::protocol::{error_response, ok_response, parse_request, ErrorKind, Op, WireRequest};
use crate::registry::{Registry, Tenant, TenantSpec};

/// How fast this machine scores tuples, measured once at startup and
/// used to translate wall-clock deadlines into counter [`Budget`]s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Single-direction tuple scores evaluated per millisecond.
    pub scores_per_ms: f64,
}

/// Microbenchmark the blocked scoring kernel on a fixed synthetic
/// dataset until at least ~10 ms have elapsed. The absolute number moves
/// with the machine — that is the point: the same `deadline_ms` buys the
/// same wall-clock on a fast or slow box, via different counter budgets.
pub fn calibrate() -> Calibration {
    const N: usize = 2000;
    const D: usize = 4;
    let data = rrm_data::synthetic::independent(N, D, 0x5eed);
    let soa = data.soa();
    // Deterministic direction bundle; contents are irrelevant to timing.
    let dirs: Vec<Vec<f64>> =
        (0..64).map(|i| (0..D).map(|j| 1.0 + ((i * 7 + j * 3) % 11) as f64).collect()).collect();
    let mut scratch = ScoreScratch::new();
    let mut sink = 0.0f64;
    let mut evals = 0u64;
    let start = Instant::now();
    while start.elapsed() < Duration::from_millis(10) {
        for_each_scores(soa, &dirs, &mut scratch, |_, scores| {
            sink += scores[0];
        });
        evals += (N * dirs.len()) as u64;
    }
    std::hint::black_box(sink);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    Calibration { scores_per_ms: evals as f64 / ms }
}

/// Map a deadline onto a counter [`Budget`] for a dataset of `n_tuples`
/// rows: the deadline buys `scores_per_ms * deadline_ms` score
/// evaluations; one enumeration / LP call / sampled direction is charged
/// as one pass over the dataset. Without a deadline, only the requested
/// `samples` override applies.
pub fn effective_budget(
    calib: Calibration,
    n_tuples: usize,
    deadline_ms: Option<u64>,
    samples: Option<usize>,
) -> Budget {
    match deadline_ms {
        None => samples.map_or(Budget::UNLIMITED, Budget::with_samples),
        Some(ms) => {
            let affordable = (calib.scores_per_ms * ms as f64) as usize;
            let cap = (affordable / n_tuples.max(1)).max(1);
            let samples = samples.unwrap_or(cap).min(cap);
            Budget {
                max_enumerations: Some(cap),
                max_lp_calls: Some(cap),
                samples: Some(samples),
                ..Budget::UNLIMITED
            }
        }
    }
}

/// The in-process [`Request`] a wire request denotes on this server.
/// Both the dispatch path and the replay harness build requests through
/// here, so served answers are bit-identical to in-process answers by
/// construction. `None` for non-query ops.
///
/// A deadline on a cuttable algorithm (as the request resolves it on a
/// `dims`-dimensional tenant) additionally becomes an in-solve
/// [`Cutoff::TimeBudget`] over the *full* deadline — a deterministic
/// field of the request, even though when it fires is wall-clock. A `gap`
/// target becomes [`Cutoff::GapAtMost`] on cuttable algorithms, but a
/// deadline wins when both are present — the wall-clock bound protects
/// the server; the gap merely trades answer quality for speed.
pub fn effective_request(
    wire: &WireRequest,
    calib: Calibration,
    n_tuples: usize,
    dims: usize,
) -> Option<Request> {
    let budget = effective_budget(calib, n_tuples, wire.deadline_ms, wire.samples);
    let mut request = wire.to_request(budget)?;
    if request.resolved_algorithm(dims).is_cuttable() {
        if let Some(gap) = wire.gap {
            request.budget.cutoff = Cutoff::GapAtMost(gap);
        }
        if let Some(ms) = wire.deadline_ms {
            request.budget.cutoff = Cutoff::TimeBudget(Duration::from_millis(ms));
        }
    }
    Some(request)
}

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (read it back from
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads that run queries. `0` is allowed and means *no* query ever
    /// dispatches — admission and `stats` still answer, which makes
    /// overload behaviour deterministic in tests.
    pub workers: usize,
    /// Global queue cap across all tenants; admission rejects beyond it.
    pub queue_cap: usize,
    /// Algorithms to eagerly prepare on every tenant at startup.
    pub warm: Vec<Algorithm>,
    /// Execution policy inside solver kernels (default sequential: the
    /// server parallelizes across requests, not within one).
    pub exec: ExecPolicy,
    /// Test hook: skip the startup microbenchmark and use this rate.
    pub scores_per_ms_override: Option<f64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue_cap: 64,
            warm: Vec::new(),
            exec: ExecPolicy::sequential(),
            scores_per_ms_override: None,
        }
    }
}

/// Write half of a connection; workers and the reader share it, one
/// response line at a time.
struct ConnWriter {
    stream: Mutex<TcpStream>,
}

impl ConnWriter {
    fn send(&self, json: &Json) {
        let mut line = json.render();
        line.push('\n');
        if let Ok(mut stream) = self.stream.lock() {
            let _ = stream.write_all(line.as_bytes());
        }
    }
}

/// One reserved in-flight slot of a tenant. Dropping it frees the slot,
/// so every way out of admission or service — a rejection, a reply, or a
/// panic unwinding a worker — gives the slot back.
struct InflightSlot {
    tenant: Arc<Tenant>,
}

impl InflightSlot {
    /// Reserve a slot, or `None` when the tenant is at its limit.
    fn acquire(tenant: &Arc<Tenant>) -> Option<InflightSlot> {
        let prev = tenant.inflight.fetch_add(1, Ordering::AcqRel);
        let slot = InflightSlot { tenant: Arc::clone(tenant) };
        (prev < tenant.max_inflight).then_some(slot)
    }
}

impl Drop for InflightSlot {
    fn drop(&mut self) {
        self.tenant.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// An admitted query waiting for a worker; it holds its tenant's slot.
struct Job {
    wire: WireRequest,
    slot: InflightSlot,
    accepted_at: Instant,
    writer: Arc<ConnWriter>,
}

/// State shared by the accept loop, readers, and workers.
struct Shared {
    registry: Registry,
    calibration: Calibration,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    queue_cap: usize,
    shutdown: AtomicBool,
}

impl Shared {
    fn stats_json(&self, filter: Option<&str>) -> Json {
        let depth = self.queue.lock().map(|q| q.len()).unwrap_or(0);
        Json::Obj(vec![
            (
                "global".into(),
                Json::Obj(vec![
                    ("queue_depth".into(), depth.into()),
                    ("queue_cap".into(), self.queue_cap.into()),
                    ("scores_per_ms".into(), self.calibration.scores_per_ms.into()),
                ]),
            ),
            ("tenants".into(), self.registry.stats_json(filter)),
        ])
    }
}

/// A running server. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::shutdown`] for a clean stop and the final stats
/// dump.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// Start a server: load + warm every tenant, calibrate the deadline
    /// mapping, bind, and spawn the accept and worker threads.
    pub fn start(config: ServerConfig, specs: &[TenantSpec]) -> Result<ServerHandle, RrmError> {
        let registry = Registry::build(specs, &config.warm, config.exec)?;
        let calibration = match config.scores_per_ms_override {
            Some(scores_per_ms) => Calibration { scores_per_ms },
            None => calibrate(),
        };
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| RrmError::Unsupported(format!("cannot bind {}: {e}", config.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| RrmError::Unsupported(format!("cannot read bound address: {e}")))?;

        let shared = Arc::new(Shared {
            registry,
            calibration,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            queue_cap: config.queue_cap,
            shutdown: AtomicBool::new(false),
        });

        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rrm-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(|e| RrmError::Internal(format!("cannot spawn worker: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;

        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("rrm-serve-accept".into())
                .spawn(move || accept_loop(&shared, &listener, &conns))
                .map_err(|e| RrmError::Internal(format!("cannot spawn accept loop: {e}")))?
        };

        Ok(ServerHandle { addr, shared, accept: Some(accept), workers, conns })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn calibration(&self) -> Calibration {
        self.shared.calibration
    }

    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// Live stats snapshot, same shape as the `stats` wire response.
    pub fn stats_json(&self) -> Json {
        self.shared.stats_json(None)
    }

    /// Stop accepting, drain the queue, join every thread, and return
    /// the final stats dump.
    pub fn shutdown(mut self) -> Json {
        self.shared.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop; readers poll the flag on their 50 ms
        // read timeout, workers on their condvar timeout.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let readers = std::mem::take(&mut *self.conns.lock().unwrap());
        for h in readers {
            let _ = h.join();
        }
        self.shared.available.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.shared.stats_json(None)
    }
}

fn accept_loop(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        if let Ok(handle) = std::thread::Builder::new()
            .name("rrm-serve-conn".into())
            .spawn(move || connection_loop(&shared, stream))
        {
            conns.lock().unwrap().push(handle);
        }
    }
}

/// Longest request line a connection may buffer. A client that sends
/// more than this without a newline gets `bad_request` and the server
/// stops reading that connection, so an unterminated line cannot grow
/// memory unboundedly. Requests already admitted on it are still
/// answered before the connection closes.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Read newline-delimited requests off one connection. Hand-rolled line
/// framing over a 50 ms read timeout so the thread notices shutdown
/// without a poll/epoll dependency; partial lines survive timeouts.
fn connection_loop(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(ConnWriter { stream: Mutex::new(w) }),
        Err(_) => return,
    };
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line[..pos]).into_owned();
            if !line.trim().is_empty() {
                handle_line(shared, &writer, line.trim());
            }
        }
        if buf.len() > MAX_LINE_BYTES {
            let msg = format!("request line exceeds {MAX_LINE_BYTES} bytes without a newline");
            writer.send(&error_response(&None, ErrorKind::BadRequest, &msg, None));
            // Close only the read half: queued jobs still hold `writer`,
            // so replies to requests pipelined before the flood are
            // delivered, and the socket closes when the last one is sent.
            let _ = stream.shutdown(Shutdown::Read);
            return;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(k) => buf.extend_from_slice(&chunk[..k]),
            Err(e)
                if matches!(
                    e.kind(),
                    IoErrorKind::WouldBlock | IoErrorKind::TimedOut | IoErrorKind::Interrupted
                ) => {}
            Err(_) => return,
        }
    }
}

/// Parse + admit one request line. Runs on the reader thread, so
/// rejections and `stats` answers never queue behind slow queries —
/// that is what makes overload rejections immediate.
fn handle_line(shared: &Arc<Shared>, writer: &Arc<ConnWriter>, line: &str) {
    let wire = match parse_request(line) {
        Ok(wire) => wire,
        Err(msg) => {
            // Best effort: echo the id even when some field was invalid.
            let id = crate::json::parse(line).ok().and_then(|j| j.get("id").cloned());
            writer.send(&error_response(&id, ErrorKind::BadRequest, &msg, None));
            return;
        }
    };

    if wire.op == Op::Stats {
        let stats = shared.stats_json(wire.tenant.as_deref());
        writer.send(&Json::Obj(vec![
            ("id".into(), wire.id.clone().unwrap_or(Json::Null)),
            ("status".into(), "ok".into()),
            ("stats".into(), stats),
        ]));
        return;
    }

    let name = wire.tenant.as_deref().expect("parse_request requires tenant for queries");
    let Some(tenant) = shared.registry.get(name) else {
        writer.send(&error_response(
            &wire.id,
            ErrorKind::UnknownTenant,
            &format!("no tenant named {name:?}"),
            None,
        ));
        return;
    };

    // Updates apply inline on the reader thread — they never queue behind
    // queries, and workers already mid-query keep the snapshot they
    // pinned at dispatch (the epoch swap is a pointer store).
    if let Op::Update { insert, delete } = &wire.op {
        let ops: Vec<UpdateOp> = delete
            .iter()
            .map(|&i| UpdateOp::Delete(i))
            .chain(insert.iter().map(|row| UpdateOp::Insert(row.clone())))
            .collect();
        match tenant.session.update(&ops) {
            Ok(epoch) => {
                // Cached answers describe the previous epoch's rows.
                tenant.cache.invalidate();
                tenant.updates_applied.fetch_add(1, Ordering::Relaxed);
                writer.send(&Json::Obj(vec![
                    ("id".into(), wire.id.clone().unwrap_or(Json::Null)),
                    ("status".into(), "ok".into()),
                    ("tenant".into(), tenant.name.as_str().into()),
                    ("epoch".into(), epoch.into()),
                    ("n".into(), tenant.session.data().n().into()),
                ]));
            }
            Err(e) => {
                writer.send(&error_response(
                    &wire.id,
                    ErrorKind::of_rrm_error(&e),
                    &e.to_string(),
                    None,
                ));
            }
        }
        return;
    }

    // Per-tenant admission: reserve an in-flight slot or reject now.
    let Some(slot) = InflightSlot::acquire(tenant) else {
        tenant.counters.rejected_overload.fetch_add(1, Ordering::Relaxed);
        writer.send(&error_response(
            &wire.id,
            ErrorKind::Overloaded,
            &format!("tenant {name:?} at its in-flight limit"),
            Some(Json::Obj(vec![("max_inflight".into(), tenant.max_inflight.into())])),
        ));
        return;
    };

    // Global queue cap: bounded queueing, never unbounded buildup.
    let job = Job { wire, slot, accepted_at: Instant::now(), writer: Arc::clone(writer) };
    let mut queue = shared.queue.lock().unwrap();
    if queue.len() >= shared.queue_cap {
        drop(queue);
        drop(job.slot);
        tenant.counters.rejected_overload.fetch_add(1, Ordering::Relaxed);
        job.writer.send(&error_response(
            &job.wire.id,
            ErrorKind::Overloaded,
            "global queue full",
            Some(Json::Obj(vec![("queue_cap".into(), shared.queue_cap.into())])),
        ));
        return;
    }
    queue.push_back(job);
    drop(queue);
    tenant.counters.accepted.fetch_add(1, Ordering::Relaxed);
    shared.available.notify_one();
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                let (guard, _) =
                    shared.available.wait_timeout(queue, Duration::from_millis(50)).unwrap();
                queue = guard;
            }
        };
        match job {
            Some(job) => serve_job(shared, job),
            None => return,
        }
    }
}

/// Why a query got no answer: wire error kind, message, diagnostics.
type Failure = (ErrorKind, String, Option<Json>);

/// Run `solve`, turning a panic inside it into an `internal` failure:
/// the client gets a reply and the worker thread lives on to serve the
/// next job.
fn guarded<T>(solve: impl FnOnce() -> Result<T, Failure>) -> Result<T, Failure> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(solve)).unwrap_or_else(|payload| {
        let what = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        Err((ErrorKind::Internal, format!("panicked while answering: {what}"), None))
    })
}

fn serve_job(shared: &Shared, job: Job) {
    let queued_us = job.accepted_at.elapsed().as_micros() as u64;
    let tenant = Arc::clone(&job.slot.tenant);
    let outcome = guarded(|| solve_job(shared, &job.wire, &tenant, queued_us));

    // Counters update and the slot frees *before* the response goes out:
    // a client that saw an answer and immediately asks for `stats` must
    // see it counted and no longer in flight.
    drop(job.slot);
    match outcome {
        Ok(response) => {
            tenant.counters.completed.fetch_add(1, Ordering::Relaxed);
            if response.solution.terminated_by.is_early_stop() {
                tenant.counters.partial_answers.fetch_add(1, Ordering::Relaxed);
            }
            if matches!(response.solution.terminated_by, TerminatedBy::Sampled { .. }) {
                tenant.counters.approx_answers.fetch_add(1, Ordering::Relaxed);
            }
            tenant.latency.record(job.accepted_at.elapsed().as_micros() as u64);
            let micros = (response.seconds * 1e6) as u64;
            job.writer.send(&ok_response(&job.wire.id, &tenant.name, &response, queued_us, micros));
        }
        Err((kind, message, diagnostics)) => {
            let counter = if kind == ErrorKind::DeadlineExceeded {
                &tenant.counters.deadline_exceeded
            } else {
                &tenant.counters.errored
            };
            counter.fetch_add(1, Ordering::Relaxed);
            job.writer.send(&error_response(&job.wire.id, kind, &message, diagnostics));
        }
    }
}

/// Answer one admitted query: dispatch-time deadline aging, the result
/// cache, then the solve.
fn solve_job(
    shared: &Shared,
    wire: &WireRequest,
    tenant: &Tenant,
    queued_us: u64,
) -> Result<rank_regret::Response, Failure> {
    let (n_tuples, dims) = {
        let data = tenant.session.data();
        (data.n(), data.dim())
    };
    let aged_out = wire.deadline_ms.is_some_and(|ms| queued_us >= ms.saturating_mul(1000));
    let mut request = effective_request(wire, shared.calibration, n_tuples, dims)
        .expect("only query ops are enqueued");
    let cuttable = request.resolved_algorithm(dims).is_cuttable();

    if aged_out && !cuttable {
        let ms = wire.deadline_ms.expect("aged_out implies a deadline");
        Err((
            ErrorKind::DeadlineExceeded,
            format!("deadline of {ms}ms elapsed after {queued_us}us in queue"),
            Some(Json::Obj(vec![
                ("queued_micros".into(), queued_us.into()),
                ("deadline_ms".into(), ms.into()),
            ])),
        ))
    } else {
        if aged_out {
            // The whole deadline was burned queueing. The anytime solver
            // still runs, under an already-expired cutoff: it offers its
            // deterministic fallback incumbent, stops at the first
            // cutoff check, and the tenant gets best-so-far + gap
            // instead of a deadline_exceeded error.
            request.budget.cutoff = Cutoff::TimeBudget(Duration::ZERO);
        }
        // Deadline-free requests are deterministic: same wire fields on
        // the same epoch → the same answer, so they are served from the
        // tenant's budget-keyed cache when possible. Deadline-bearing
        // requests never touch the cache (their budgets are wall-clock).
        let cache_key = wire.deadline_ms.is_none().then(|| {
            let minimize = matches!(wire.op, Op::Minimize { .. });
            let param = match wire.op {
                Op::Minimize { param } | Op::Represent { param } => param,
                _ => unreachable!("only query ops are enqueued"),
            };
            (
                minimize,
                param,
                wire.algo,
                wire.samples,
                wire.gap.map(f64::to_bits),
                wire.approx.map(|s| (s.eps.to_bits(), s.delta.to_bits())),
            )
        });
        let epoch = tenant.session.epoch();
        let cached = cache_key.as_ref().and_then(|key| tenant.cache.get(key, epoch));
        match cached {
            Some(solution) => Ok(rank_regret::Response { request, solution, seconds: 0.0 }),
            None => {
                let outcome = tenant
                    .session
                    .run(&request)
                    .map_err(|e| (ErrorKind::of_rrm_error(&e), e.to_string(), None));
                if let (Some(key), Ok(response)) = (cache_key, &outcome) {
                    // Only cache when no swap raced the solve: the entry's
                    // epoch tag must describe the rows that answered.
                    if tenant.session.epoch() == epoch {
                        tenant.cache.put(key, epoch, response.solution.clone());
                    }
                }
                outcome
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SyntheticKind;

    const CALIB: Calibration = Calibration { scores_per_ms: 1000.0 };

    #[test]
    fn a_panic_inside_the_guard_becomes_an_internal_failure() {
        let (kind, message, _) = guarded(|| -> Result<(), Failure> { panic!("boom {}", 7) })
            .expect_err("the panic is caught");
        assert_eq!(kind, ErrorKind::Internal);
        assert!(message.contains("boom 7"), "{message}");
        assert_eq!(guarded(|| Ok::<_, Failure>(3)).ok(), Some(3));
    }

    #[test]
    fn an_inflight_slot_frees_when_a_panic_unwinds_past_it() {
        let spec = TenantSpec::synthetic("t", SyntheticKind::Independent, 20, 2, 1).max_inflight(1);
        let registry = Registry::build(&[spec], &[], ExecPolicy::sequential()).unwrap();
        let tenant = registry.get("t").unwrap();
        let held = InflightSlot::acquire(tenant).expect("a free slot");
        assert!(InflightSlot::acquire(tenant).is_none(), "the cap is one");
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _held = held;
            panic!("unwind past the slot");
        }));
        assert!(unwound.is_err());
        assert_eq!(tenant.inflight.load(Ordering::Acquire), 0);
        assert!(InflightSlot::acquire(tenant).is_some());
    }

    #[test]
    fn budget_scales_with_deadline_and_dataset_size() {
        // 1000 scores/ms, 100 tuples: a 10ms deadline buys 100 passes.
        let b = effective_budget(CALIB, 100, Some(10), None);
        assert_eq!(b.max_enumerations, Some(100));
        assert_eq!(b.max_lp_calls, Some(100));
        assert_eq!(b.samples, Some(100));
        // Requested samples are honoured but capped by the deadline.
        assert_eq!(effective_budget(CALIB, 100, Some(10), Some(30)).samples, Some(30));
        assert_eq!(effective_budget(CALIB, 100, Some(10), Some(5000)).samples, Some(100));
        // A tiny deadline still buys at least one pass, never zero.
        assert_eq!(effective_budget(CALIB, 100_000, Some(1), None).max_enumerations, Some(1));
        // No deadline: unlimited, modulo the samples override.
        assert_eq!(effective_budget(CALIB, 100, None, None), Budget::UNLIMITED);
        assert_eq!(effective_budget(CALIB, 100, None, Some(64)), Budget::with_samples(64));
    }

    #[test]
    fn deadlines_become_in_solve_cutoffs_only_for_cuttable_algorithms() {
        let wire = |algo: Option<Algorithm>, deadline_ms: Option<u64>| WireRequest {
            id: None,
            op: Op::Minimize { param: 3 },
            tenant: Some("t".into()),
            algo,
            deadline_ms,
            samples: None,
            gap: None,
            approx: None,
        };
        // An explicit cuttable algorithm plus a deadline gets an in-solve
        // wall-clock cutoff over the *full* deadline.
        let r = effective_request(&wire(Some(Algorithm::Hdrrm), Some(25)), CALIB, 100, 4).unwrap();
        assert_eq!(r.budget.cutoff, Cutoff::TimeBudget(Duration::from_millis(25)));
        // Auto on 3 dims resolves to HDRRM (cuttable)...
        let r = effective_request(&wire(None, Some(25)), CALIB, 100, 3).unwrap();
        assert_eq!(r.budget.cutoff, Cutoff::TimeBudget(Duration::from_millis(25)));
        // ...but on 2 dims to the exact planar solver, which is not.
        let r = effective_request(&wire(None, Some(25)), CALIB, 100, 2).unwrap();
        assert_eq!(r.budget.cutoff, Cutoff::None);
        // No deadline: no cutoff, even for cuttable algorithms — and the
        // counter budget stays untouched either way.
        let r = effective_request(&wire(Some(Algorithm::Hdrrm), None), CALIB, 100, 4).unwrap();
        assert_eq!(r.budget.cutoff, Cutoff::None);
        assert_eq!(r.budget, Budget::UNLIMITED);
    }

    #[test]
    fn gap_targets_become_in_solve_cutoffs_only_for_cuttable_algorithms() {
        let wire =
            |algo: Option<Algorithm>, gap: Option<f64>, deadline_ms: Option<u64>| WireRequest {
                id: None,
                op: Op::Minimize { param: 3 },
                tenant: Some("t".into()),
                algo,
                deadline_ms,
                samples: None,
                gap,
                approx: None,
            };
        // Cuttable + gap: the solve stops at the certified gap target.
        let r = effective_request(&wire(Some(Algorithm::Hdrrm), Some(0.25), None), CALIB, 100, 4)
            .unwrap();
        assert_eq!(r.budget.cutoff, Cutoff::GapAtMost(0.25));
        // Auto on 3 dims resolves to HDRRM — still cuttable.
        let r = effective_request(&wire(None, Some(0.1), None), CALIB, 100, 3).unwrap();
        assert_eq!(r.budget.cutoff, Cutoff::GapAtMost(0.1));
        // Non-cuttable (exact 2D) ignores the gap.
        let r = effective_request(&wire(None, Some(0.1), None), CALIB, 100, 2).unwrap();
        assert_eq!(r.budget.cutoff, Cutoff::None);
        // Approximate fidelity under Auto resolves to the sampled tier,
        // which is not cuttable either — even on 3 dims.
        let approx = WireRequest {
            approx: Some(rank_regret::ApproxSpec { eps: 0.1, delta: 0.05 }),
            ..wire(None, Some(0.1), None)
        };
        let r = effective_request(&approx, CALIB, 100, 3).unwrap();
        assert_eq!(r.resolved_algorithm(3), Algorithm::Sampled);
        assert_eq!(r.budget.cutoff, Cutoff::None);
        // A deadline outranks the gap: the wall-clock bound protects the
        // server.
        let r =
            effective_request(&wire(Some(Algorithm::Hdrrm), Some(0.1), Some(25)), CALIB, 100, 4)
                .unwrap();
        assert_eq!(r.budget.cutoff, Cutoff::TimeBudget(Duration::from_millis(25)));
    }

    #[test]
    fn calibration_measures_a_positive_rate() {
        let c = calibrate();
        assert!(c.scores_per_ms > 0.0 && c.scores_per_ms.is_finite(), "{c:?}");
    }
}
