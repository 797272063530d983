//! The repository benchmark. Run from the repository root:
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload hd_exact --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! is a separate run that records spans around the benchmark's calls into
//! each layer and reports the per-layer metrics. Every answer is checked
//! after the timed loop; the last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Results and spans are
//! written under `.bench_out/`. `compare <a.json> <b.json>` prints two
//! results files side by side and refuses runs on different core counts.

mod churn;
mod common;
mod hd_exact;
mod layers;
mod results;
mod serve_mixed;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use rrm_serve::Json;

use crate::common::Opts;
use crate::results::Results;
use crate::trace::Tracer;

const WORKLOADS: [&str; 3] = ["hd_exact", "serve_mixed", "churn"];
const OUT_DIR: &str = ".bench_out";

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1> [--corrupt-answer]\n       perfbench compare <a.json> <b.json>",
        WORKLOADS.join("|")
    )
}

struct Args {
    workload: String,
    opts: Opts,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut corrupt) = (None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--corrupt-answer" => corrupt = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        opts: Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            corrupt,
        },
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The context every result is stamped with.
fn run_context(workload: &str, opts: &Opts) -> Vec<(String, Json)> {
    let cores = common::nproc();
    let budget = match workload {
        "hd_exact" => "1 closed-loop client; solver threads = cores",
        "serve_mixed" => {
            "cores load threads, one connection each; server workers = cores, sequential exec"
        }
        _ => "1 writer thread + 1 reader thread; sequential exec",
    };
    vec![
        ("available_parallelism".into(), cores.into()),
        ("thread_budget".into(), budget.into()),
        ("rrm_threads_env".into(), std::env::var("RRM_THREADS").map_or(Json::Null, Json::Str)),
        ("seed".into(), opts.seed.into()),
        ("seconds".into(), opts.seconds.into()),
        ("commit".into(), command_line("git", &["rev-parse", "HEAD"]).as_str().into()),
        ("rustc".into(), command_line("rustc", &["-V"]).as_str().into()),
        ("target_arch".into(), std::env::consts::ARCH.into()),
    ]
}

fn results_path(workload: &str, seed: u64, trace: bool) -> PathBuf {
    Path::new(OUT_DIR).join(format!("{workload}-seed{seed}-trace{}.json", u8::from(trace)))
}

/// `trace.overhead_frac`: the traced run's median latency against the
/// untraced run of the same workload, seed and length, when one was made
/// in this checkout on the same core count.
fn tracing_overhead(r: &Results) -> Option<(f64, String)> {
    let base = Results::read(&results_path(&r.workload, r.seed, false)).ok()?;
    results::compare(&base, r).ok()?;
    if base.seconds != r.seconds {
        return None;
    }
    let (b, t) = (base.metrics.get("query_p50_ms")?, r.metrics.get("query_p50_ms")?);
    Some((t / b - 1.0, "query_p50_ms against the untraced run's results file".into()))
}

fn run(args: Args) -> Result<bool, String> {
    let Args { workload, opts } = args;
    let tracer = Tracer::new(opts.trace);
    let outcome = match workload.as_str() {
        "hd_exact" => hd_exact::run(&opts, &tracer),
        "serve_mixed" => serve_mixed::run(&opts, &tracer),
        _ => churn::run(&opts, &tracer),
    };
    let mut context = run_context(&workload, &opts);
    context.extend(outcome.context);
    let mut r = Results {
        workload: workload.clone(),
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        correct: outcome.errors.is_empty(),
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        metrics: outcome.metrics,
        context,
        errors: outcome.errors,
    };
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    if opts.trace {
        let (overhead, basis) = tracing_overhead(&r).unwrap_or((
            0.0,
            "no untraced results file for this workload, seed and length on this core count".into(),
        ));
        r.metrics.insert("trace.overhead_frac".into(), overhead);
        r.context.push(("trace_overhead_basis".into(), basis.as_str().into()));
        let spans = Path::new(OUT_DIR).join(format!("{workload}-seed{}.spans.jsonl", opts.seed));
        tracer.write_jsonl(&spans).map_err(|e| format!("{}: {e}", spans.display()))?;
    }
    let path = results_path(&workload, opts.seed, opts.trace);
    r.write(&path).map_err(|e| format!("{}: {e}", path.display()))?;

    let catalogue: &[(&str, &str)] =
        if opts.trace { &results::PER_LAYER } else { &results::END_TO_END };
    for (name, unit) in catalogue {
        println!("{name:32} {:>16.6} {unit}", r.metrics.get(*name).copied().unwrap_or(0.0));
    }
    for (k, v) in &r.context {
        println!("# {k} = {}", v.render());
    }
    for e in &r.errors {
        println!("! wrong answer: {e}");
    }
    println!("{}", r.summary_line());
    Ok(r.correct)
}

fn compare_files(a: &str, b: &str) -> Result<(), String> {
    let (ra, rb) = (Results::read(Path::new(a))?, Results::read(Path::new(b))?);
    for (name, va, vb) in results::compare(&ra, &rb)? {
        println!("{name:32} {va:>16.6} {vb:>16.6} {:>+9.3}", vb / va - 1.0);
    }
    Ok(())
}

/// Fix glibc's mmap threshold at 1 MiB. By default glibc raises the
/// threshold to the size of each freed mmapped block, so whether the next
/// 10-40 MB epoch-snapshot buffer lands in the heap, and stays resident
/// after it is freed, depends on the order frees happen in: resident memory
/// on `churn` varied by 40% between runs. With a fixed threshold every
/// large buffer is mapped on allocation and returned on free.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_mmap_threshold() {
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` is glibc's allocator tuning call; it takes two
    // integers, touches no memory of ours, and runs before this process
    // has started any other thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 1 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_mmap_threshold() {}

fn main() -> ExitCode {
    fix_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.get(1..3) {
            Some([a, b]) => match compare_files(a, b) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let parsed = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(parsed) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
