//! The SkNN benchmark: SkNN_b, SkNN_m and durable churn over TCP at
//! K = 1024, every answer checked against plaintext kNN.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload secure-serial --seed 1 --seconds 45 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing; `--trace 1`
//! runs the layer probes and the traced stage drivers and reports the
//! per-layer metrics. Either way the last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod layers;
mod oracle;
mod report;
mod stats;
mod trace;
mod traced;
mod workload;

use report::Metrics;
use stats::{median, median_or_zero, percentile, quartiles, relative_spread, tail};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Shape, Tally};

/// Set-ups timed before and after an untraced run's measured phase;
/// `setup_s` is the median of all of them. Timing some at each end spreads
/// them over the run, so one slow or fast stretch of a shared host does not
/// hold every sample.
const SETUPS_BEFORE: usize = 1;
const SETUPS_AFTER: usize = 2;
/// Query encryptions timed for `user_encrypt_ms` before each batch.
const USER_ENCRYPTS: usize = 8;
/// The percentile of those timings `user_encrypt_ms` reports.
const USER_ENCRYPT_PERCENTILE: f64 = 10.0;
/// Where runs keep their durable stores and span files, relative to the
/// checkout root the benchmark runs from.
const SCRATCH: &str = "perfbench/.scratch";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                report::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(shape) = Shape::named(&args.workload) else {
        eprintln!("error: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    header(&shape, &args);
    let scratch = PathBuf::from(SCRATCH).join(format!("run-{}", std::process::id()));
    let result = if args.trace {
        traced::run(
            &shape,
            args.seed,
            Duration::from_secs(args.seconds),
            &scratch,
        )
    } else {
        untraced(
            &shape,
            args.seed,
            Duration::from_secs(args.seconds),
            &scratch,
        )
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let (metrics, tally, names) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!();
    println!(
        "metrics ({}):",
        if args.trace {
            "per layer, traced"
        } else {
            "end to end, untraced"
        }
    );
    metrics.print(&names);
    let ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "  {:<44} {ratio:>14.4} ratio  ({} failed of {} attempted)",
        "failure_ratio", tally.failed, tally.attempted
    );
    for f in &tally.failures {
        println!("  FAILURE: {f}");
    }
    let correct = tally.failed == 0 && tally.attempted > 0;
    println!(
        "{}",
        metrics.json_line(&names, correct, tally.attempted.max(1), tally.failed)
    );
    ExitCode::SUCCESS
}

/// The environment header every report starts with.
fn header(shape: &Shape, args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("# sknn perfbench");
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={nproc} K={} revision={}",
        shape.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload::KEY_BITS,
        revision()
    );
    println!(
        "# shape: {:?} n={} k={} m={} l={} values=0..={} transport={:?} shards={} sessions={} threads={} batch={} churn={}",
        shape.protocol,
        shape.n,
        shape.k,
        workload::ATTRIBUTES,
        shape.l,
        shape.max_value,
        shape.transport,
        shape.shards,
        shape.shards,
        workload::THREADS,
        shape.batch,
        shape.churn
    );
}

/// The git revision of the checkout, read from `.git` without running git;
/// "unknown" outside a git work tree.
fn revision() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `VmHWM` (peak resident set) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Stands the workload up `setups` times (timing each) and keeps the last
/// deployment.
pub fn timed_setups(
    shape: &Shape,
    seed: u64,
    scratch: &Path,
    setups: usize,
) -> Result<(workload::Deployment, Vec<f64>), String> {
    let mut times = Vec::with_capacity(setups);
    let mut kept = None;
    for i in 0..setups {
        // Release the previous deployment (threads, sockets, store) first.
        drop(kept.take());
        let store = shape.churn.then(|| scratch.join(format!("store-{i}")));
        let t = Instant::now();
        let dep =
            workload::stand_up(shape, seed, store.as_deref()).map_err(|e| format!("setup: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
        kept = Some(dep);
    }
    Ok((kept.expect("at least one setup"), times))
}

/// Prints the quartiles of `xs` (in ms) and their spread.
fn print_quartiles(what: &str, xs: &[f64]) {
    if let (Some(q), Some(spread)) = (quartiles(xs), relative_spread(xs)) {
        println!(
            "{what} quartiles: {:.1} / {:.1} / {:.1} ms (spread {:.1}% of the median, {} samples)",
            q[0],
            q[1],
            q[2],
            spread * 100.0,
            xs.len()
        );
    }
}

/// Prints every sample of `xs` (in ms), in the order they were taken.
fn print_samples(what: &str, xs: &[f64]) {
    let shown: Vec<String> = xs.iter().map(|x| format!("{x:.1}")).collect();
    println!("{what} samples (ms, in order): [{}]", shown.join(", "));
}

/// A run's metrics, operation tally, and the metric names it reports.
pub(crate) type RunResult = Result<(Metrics, Tally, Vec<(String, &'static str)>), String>;

fn untraced(shape: &Shape, seed: u64, budget: Duration, scratch: &Path) -> RunResult {
    let (mut dep, mut setup_times) = timed_setups(shape, seed, scratch, SETUPS_BEFORE)?;
    let mut tally = Tally::default();
    workload::warm_up(shape, &dep, seed, &mut tally);
    let phase = workload::measured_phase(shape, &mut dep, seed, budget, USER_ENCRYPTS, &mut tally);

    let mut m = Metrics::default();
    let latencies: Vec<f64> = phase
        .queries
        .iter()
        .map(|q| q.latency.as_secs_f64() * 1e3)
        .collect();
    m.set("query_p50_ms", median_or_zero(&latencies), latencies.len());
    print_quartiles("query latency", &latencies);
    print_quartiles("user encrypt", &phase.user_encrypt_ms);
    match tail(&latencies) {
        Some(t) => println!(
            "query_tail_ms: p{} = {:.3} ms ({} samples, {} beyond)",
            t.percentile, t.value, t.samples, t.beyond
        ),
        None => println!(
            "query_tail_ms: omitted ({} samples; a tail needs {} beyond it)",
            latencies.len(),
            stats::TAIL_MIN_BEYOND
        ),
    }
    m.set(
        "throughput_qps",
        phase.correct_queries as f64 / phase.wall.as_secs_f64(),
        phase.correct_queries as usize,
    );

    // A low percentile, not a median: a 20-30 ms sample lands wholly in one
    // fast or slow stretch of a shared host, the slow stretches come and go
    // over tens of seconds, and a run's median (or mean) moves with the share
    // of its samples that landed in them. The 10th percentile is the cost on
    // an uncontended core whenever a run sees one, and moves far less.
    m.set_noted(
        "user_encrypt_ms",
        percentile(&phase.user_encrypt_ms, USER_ENCRYPT_PERCENTILE),
        phase.user_encrypt_ms.len(),
        "10th percentile",
    );

    if shape.churn {
        let writes: Vec<f64> = phase
            .writes
            .iter()
            .map(|w| w.round.as_secs_f64() * 1e3)
            .collect();
        let epilogue = workload::churn_epilogue(shape, dep, &phase, seed, &mut tally);
        println!(
            "write_p50_ms: {:.3} ms ({} write rounds)",
            median(&writes).unwrap_or(f64::NAN),
            writes.len()
        );
        println!(
            "reopen_s: {:.4} s (1 sample)",
            epilogue.reopen.as_secs_f64()
        );
    } else {
        drop(dep);
    }
    let (last, after) = timed_setups(shape, seed, &scratch.join("after"), SETUPS_AFTER)?;
    drop(last);
    setup_times.extend(after);
    m.set("setup_s", median_or_zero(&setup_times), setup_times.len());
    m.set("peak_rss_mb", peak_rss_mb(), 1);
    print_samples("query latency", &latencies);
    print_samples("user encrypt", &phase.user_encrypt_ms);
    println!(
        "setup_s samples: {:?}",
        setup_times
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
    );
    Ok((m, tally, report::end_to_end()))
}
