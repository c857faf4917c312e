//! Benchmark of the online admission service.
//!
//! One process runs one workload: the harness generates the workload's
//! churn trace from `--seed`, then drives it through the public pipeline
//! (`EventLoop::run_with` → `ShardedAdmission`) as a closed loop with one
//! caller, on one thread. Each pass builds a fresh service and replays the
//! same trace; passes repeat until `--seconds` have gone by.
//!
//! * `--trace 0` prints the end-to-end metrics: medians over the passes.
//! * `--trace 1` alternates plain and shard-wrapped passes, then runs one
//!   untimed oracle pass with simulator replays, and prints the per-layer
//!   metrics.
//!
//! Every pass's decision digest must agree, traced or not, and every check
//! (scratch-RTA audit of each final core, each sampled replay) must pass.
//! The last line of standard output is the result as one JSON object.
//!
//! ```sh
//! cargo run --release --manifest-path admbench/Cargo.toml -- \
//!     --workload fastpath --seed 1 --seconds 10 --trace 0
//! ```

mod pass;
mod timed_shard;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use pass::{percentile, Checks, Layers, Pass};
use spms_online::WorkloadEvent;
use workload::{Size, Workload, NAMES};

const USAGE: &str = "usage: admbench --workload <fastpath|saturated|fleet> --seed <n> \
                     --seconds <s> --trace <0|1> [--size <full|smoke>]";

/// Extra set-ups made before the first pass, so `setup_s` is a median of
/// several samples even when few passes fit in the run.
const EXTRA_SETUPS: usize = 4;

/// Every run makes at least this many passes of each kind, so that the
/// decisions of two passes of the seed can be compared.
const MIN_PASSES: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut size = Size::Full;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| bad("workload"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                });
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    _ => return Err(bad("size")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
    })
}

/// One printed metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Median of a non-empty sample (mean of the middle two when even).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(passes.iter().map(f).collect())
}

/// Process high-water resident set size, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM present in /proc/self/status");
    kib / 1024.0
}

/// Where the passes of one run agree or disagree.
struct Verdict {
    checks: Checks,
    digest: u64,
    digests_agree: bool,
}

fn verdict<'a>(passes: impl Iterator<Item = &'a Pass>) -> Verdict {
    let mut checks = Checks::default();
    let mut first: Option<u64> = None;
    let mut agree = true;
    for p in passes {
        checks.absorb(p.checks);
        match first {
            None => first = Some(p.digest),
            // Every pass after the first is one determinism check.
            Some(digest) => {
                checks.record(digest == p.digest);
                agree &= digest == p.digest;
            }
        }
    }
    Verdict {
        checks,
        digest: first.unwrap_or(0),
        digests_agree: agree,
    }
}

struct Report {
    metrics: Vec<Metric>,
    verdict: Verdict,
    passes: usize,
}

/// `--trace 0`: plain passes only; the end-to-end metrics.
fn end_to_end(args: &Args, trace: &[spms_online::TimedEvent], arrivals: usize) -> Report {
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let w = &args.workload;
    let mut setups: Vec<f64> = (0..EXTRA_SETUPS)
        .map(|_| {
            pass::set_up(|| pass::plain_service(w), w, args.seed, trace)
                .2
                .as_secs_f64()
        })
        .collect();
    let mut passes = vec![pass::untraced(w, args.seed, trace, arrivals)];
    // Read after one pass: later passes add only allocator fragmentation,
    // which would tie the figure to how many passes fit in the run.
    let peak_rss = peak_rss_mib();
    while passes.len() < MIN_PASSES || started.elapsed() < budget {
        passes.push(pass::untraced(w, args.seed, trace, arrivals));
    }
    setups.extend(passes.iter().map(|p| p.setup.as_secs_f64()));
    let first = &passes[0];
    let per_pass_samples = first.latencies_ns.len();
    println!(
        "arrival latency samples: {} ({} per pass x {} passes)",
        per_pass_samples * passes.len(),
        per_pass_samples,
        passes.len()
    );
    let metrics = vec![
        metric(
            "decisions_per_s",
            median_of(&passes, Pass::decisions_per_s),
            "1/s",
        ),
        metric(
            "arrival_p50_us",
            median_of(&passes, |p| percentile(&p.latencies_ns, 0.50) as f64 / 1e3),
            "us",
        ),
        metric(
            "arrival_p99_us",
            median_of(&passes, |p| percentile(&p.latencies_ns, 0.99) as f64 / 1e3),
            "us",
        ),
        metric(
            "acceptance_ratio",
            first.admitted as f64 / first.arrivals as f64,
            "ratio",
        ),
        metric("peak_rss_mib", peak_rss, "MiB"),
        metric("setup_s", median(setups), "s"),
    ];
    Report {
        verdict: verdict(passes.iter()),
        passes: passes.len(),
        metrics,
    }
}

/// `--trace 1`: plain and wrapped passes alternate, then one oracle pass;
/// the per-layer metrics.
fn per_layer(args: &Args, trace: &[spms_online::TimedEvent], arrivals: usize) -> Report {
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let w = &args.workload;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut layers: Vec<Layers> = Vec::new();
    while traced.len() < MIN_PASSES || started.elapsed() < budget {
        plain.push(pass::untraced(w, args.seed, trace, arrivals));
        let (p, l) = pass::traced(w, args.seed, trace, arrivals);
        traced.push(p);
        layers.push(l);
    }
    let oracle = pass::oracle(w, args.seed, trace);

    let mut metrics: Vec<Metric> = layers[0]
        .iter()
        .map(|(name, &(_, unit))| {
            let value = median(layers.iter().map(|l| l[name].0).collect());
            metric(name, value, unit)
        })
        .collect();
    metrics.push(metric(
        "sim.replay_epochs",
        oracle.replay_epochs as f64,
        "count",
    ));
    metrics.push(metric(
        "sim.replay_ms",
        oracle.replay.as_secs_f64() * 1e3,
        "ms",
    ));
    metrics.push(metric(
        "sim.deadline_misses",
        oracle.deadline_misses as f64,
        "count",
    ));
    let plain_rate = median_of(&plain, Pass::decisions_per_s);
    let traced_rate = median_of(&traced, Pass::decisions_per_s);
    metrics.push(metric(
        "trace.overhead_pct",
        (plain_rate / traced_rate - 1.0) * 100.0,
        "%",
    ));
    Report {
        verdict: verdict(plain.iter().chain(&traced).chain([&oracle.pass])),
        passes: plain.len() + traced.len() + 1,
        metrics,
    }
}

fn json_result(report: &Report, correct: bool) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        report.verdict.checks.attempted,
        report.verdict.checks.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!(
                "admbench: {message}\n{USAGE}\nworkloads: {}",
                NAMES.join(", ")
            );
            return ExitCode::from(2);
        }
    };
    let trace = args.workload.trace(args.seed, args.size);
    let arrivals = trace
        .iter()
        .filter(|t| matches!(t.event, WorkloadEvent::Arrive(_)))
        .count();
    let report = if args.trace {
        per_layer(&args, &trace, arrivals)
    } else {
        end_to_end(&args, &trace, arrivals)
    };

    let v = &report.verdict;
    let correct = v.checks.failed == 0 && report.metrics.iter().all(|m| m.value.is_finite());
    println!(
        "workload {} seed {}: {} events, {} arrivals, {} passes",
        args.workload.name,
        args.seed,
        trace.len(),
        arrivals,
        report.passes
    );
    println!(
        "decision digest {:#018x} ({} across passes)",
        v.digest,
        if v.digests_agree {
            "identical"
        } else {
            "DIFFERENT"
        }
    );
    println!(
        "checks: {} attempted, {} failed",
        v.checks.attempted, v.checks.failed
    );
    for m in &report.metrics {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", json_result(&report, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
