//! `spms` — the unified experiment CLI.
//!
//! One binary with a subcommand per experiment driver, replacing the need to
//! pick among the one-off examples. Every sweep runs through the shared
//! [`SweepRunner`](spms::experiments::SweepRunner), so `--threads N` scales
//! it across host cores while producing output byte-identical to
//! `--threads 1` under the same `--seed`.
//!
//! ```text
//! spms acceptance --sets-per-point 2 --threads 2 --format json
//! spms cores --core-counts 2,4,8 --threads 0 --format csv
//! spms anatomy --format markdown
//! ```
//!
//! Exit codes: `0` on success, `2` on a usage error.

use spms::analysis::OverheadModel;
use spms::experiments::{
    AcceptanceRatioExperiment, CacheCrossoverExperiment, ChaosExperiment, ChurnExperiment,
    CoreCountSweepExperiment, GlobalComparisonExperiment, NullProgress, OverheadExperiment,
    OverheadSensitivityExperiment, PreemptionAnatomy, ProgressSink, ReportFormat, ReportSink,
    RtaCacheBenchmark, RuntimeCostExperiment, SoakExperiment, StderrProgress,
};
use spms::faults::{FaultPlan, FaultSpec};
use spms::online::{
    parse_trace, ChurnFamily, OnlineConfig, ShardedAdmission, TimedEvent, WorkloadEvent,
};
use spms::overhead::{CostModelSpec, CrpdCostModel};
use spms::task::Time;
use spms::telemetry::{Registry, Snapshot, SnapshotFilter};
use std::io::IsTerminal;
use std::process::ExitCode;

/// `(name, one-line summary, per-command OPTIONS body)` for every
/// subcommand; the single source of truth behind the global usage text and
/// the `spms <command> --help` pages.
const COMMANDS: &[(&str, &str, &str)] = &[
    (
        "acceptance",
        "Acceptance ratio of FP-TS vs FFD vs WFD over a utilization sweep (E5)",
        "    --cores <N>             Number of processors [default: 4]
    --tasks-per-set <N>     Tasks per generated set
    --points <a,b,..>       Normalized-utilization sweep points
    --overhead <zero|n4|n64>  Overhead model folded into the analysis [default: zero]
",
    ),
    (
        "sensitivity",
        "Acceptance-ratio loss as the overhead magnitude is scaled up (E6)",
        "    --scales <a,b,..>       Overhead scaling factors [default: 0,1,5,20]
    --utilization <U>       Normalized utilization [default: 0.9]
    --tasks-per-set <N>     Tasks per generated set
",
    ),
    (
        "cache",
        "Local context-switch vs migration reload cost by working-set size (E4)",
        "    --sizes <a,b,..>        Working-set sizes in bytes
                            (the sweep is deterministic: seeding and
                            replication flags do not apply)
",
    ),
    (
        "anatomy",
        "Figure 1: the annotated timeline of a single preemption (E3)",
        "    (a single deterministic simulation: only --format and --quiet apply)
",
    ),
    (
        "runtime",
        "Simulated preemption/migration/overhead costs of accepted partitions (E8)",
        "    --cores <N>             Number of processors [default: 4]
    --tasks-per-set <N>     Tasks per generated set
    --points <a,b,..>       Normalized-utilization sweep points
    --overhead <zero|n4|n64>  Overhead model folded into the analysis [default: n4]
",
    ),
    (
        "cores",
        "Acceptance ratio as the core count grows (E9)",
        "    --core-counts <a,b,..>  Core counts to sweep [default: 2,4,8,16]
    --tasks-per-core <N>    Tasks generated per core [default: 4]
    --utilization <U>       Normalized utilization [default: 0.85]
    --overhead <zero|n4|n64>  Overhead model folded into the analysis [default: zero]
",
    ),
    (
        "global",
        "Partitioned & semi-partitioned vs sufficient global tests (E10)",
        "    --cores <N>             Number of processors [default: 4]
    --tasks-per-set <N>     Tasks per generated set
    --points <a,b,..>       Normalized-utilization sweep points
    --overhead <zero|n4|n64>  Overhead model folded into the analysis [default: zero]
",
    ),
    (
        "online",
        "Online admission control under task churn: acceptance, paths, replay (E11)",
        "    --cores <N>             Number of processors [default: 4]
    --events <N>            Arrive/depart events per churn trace [default: 120]
    --points <a,b,..>       Target normalized-utilization sweep points
                            [default: 0.5,0.6,0.7,0.8,0.9]
    --repair-moves <K>      Max already-placed tasks relocated per admission
                            (0 disables bounded repair) [default: 2]
    --replay-ms <N>         Simulated milliseconds per admitted-epoch replay;
                            0 disables replay [default: 50]
    --jitter-us <N>         Max sporadic release jitter per job injected by the
                            replay, in microseconds (seeded per trace;
                            0 replays synchronous-periodic) [default: 0]
    --overhead <zero|n4|n64>  Overhead model folded into the admission analysis
                            [default: zero]
    --cost-model <zero|crpd>  Migration cost model the controller charges:
                            every split piece and repair relocation inflates
                            the task's analysis WCET by the model's per-job
                            migration charge [default: zero]
    --churn <poisson|bursty>  Churn-process family driving the traces:
                            memoryless Poisson arrivals or the bursty
                            Markov-modulated variant at the same long-run
                            rate [default: poisson]
    --trace <FILE>          Replay a recorded event log instead of sweeping:
                            one JSON event per line, either timed
                            ({\"at\":..,\"event\":..}, as written by
                            `spms soak --dump-trace`) or a bare
                            arrive/depart event. Only --cores, --shards,
                            --cross-shard-split, --repair-moves,
                            --overhead, --cost-model, --metrics, --format
                            and --quiet apply in trace mode.
    --shards <N>            Admission shards for --trace replay; 1 replays
                            the decision stream byte-identically to the
                            single controller [default: 1]
    --cross-shard-split     Let --trace replay split an otherwise-rejected
                            task across two shards (body on the
                            highest-spare shard, tail on the runner-up);
                            requires --shards of at least 2
    --metrics <FILE>        Write a telemetry snapshot of the run (merged
                            across grid cells in grid order, so the
                            deterministic spms_*/spms_mech_* sections are
                            identical for every --threads value)
    --metrics-format <F>    Snapshot exposition: prom or json [default: prom]
    (--sets-per-point sets the churn traces generated per sweep point)
",
    ),
    (
        "rtabench",
        "Admission-cascade bench: every decision audited by scratch RTA (E12/E13)",
        "    --cores <N>             Number of processors [default: 4]
    --events <N>            Arrive/depart events per churn trace [default: 120]
    --points <a,b,..>       Target normalized-utilization sweep points
                            [default: 0.6,0.8]
    --repair-moves <K>      Max already-placed tasks relocated per admission
                            [default: 2]
    (--sets-per-point sets the churn traces generated per sweep point;
     after every decision, checks each core against from-scratch RTA
     (schedulable, and the converged cache matches it) and asserts the
     journal hot path is clone-free; the
     `timing` object in the output is wall-clock measurement data and is
     the only part that varies run-to-run)
",
    ),
    (
        "soak",
        "Endurance soak of the sharded event-loop admission service (E14)",
        "    --cores <N>             Number of processors [default: 8]
    --shards <a,b,..>       Shard counts to sweep [default: 1,2]
    --events <N>            Workload events per churn trace [default: 10000]
    --utilization <U>       Target normalized utilization [default: 0.6]
    --repair-moves <K>      Max already-placed tasks relocated per admission
                            (0 disables bounded repair) [default: 2]
    --cost-model <zero|crpd>  Migration cost model every shard charges on
                            splits, repairs and rebalance moves [default: zero]
    --rebalance-ms <N>      Simulated milliseconds between work-stealing
                            rebalance ticks; 0 disables [default: 250]
    --rebalance-moves <K>   Max cross-shard migrations per rebalance tick
                            [default: 4]
    --lease-ms <N>          Admission lease in simulated milliseconds; expiry
                            synthesizes a departure (makes the event stream
                            depend on admissions, so the cross-shard-count
                            stream invariant may not hold); 0 disables
                            [default: 0]
    --leased-scenario-ms <N>  Add a leased scenario column: rerun every
                            point with this lease armed and renewal
                            heartbeats injected at half the lease. Unlike
                            --lease-ms the baseline points stay lease-free;
                            the leased per-shard-count digests legitimately
                            diverge. 0 disables [default: 0]
    --cross-shard-split     Add a cross-shard column: rerun every
                            multi-shard point with the cross-shard split
                            planner enabled and report the acceptance it
                            recovers over the walled baseline
    --churn <poisson|bursty>  Churn-process family driving the traces:
                            memoryless Poisson arrivals or the bursty
                            Markov-modulated variant at the same long-run
                            rate [default: poisson]
    --replay-every <N>      Replay every Nth admission's shard through the
                            simulator (the stitched global partition on
                            cross-shard reruns); 0 disables [default: 0]
    --faults <SPEC>         Inject a seeded fault plan drawn against the
                            measured trace horizon: comma-separated knobs
                            crash=N,stall=N,corrupt=N,spike=N,seed=S
                            (faults change the decision stream, so the
                            cross-shard-count digest invariant may not hold;
                            a per-point recovery summary goes to stderr)
    --faults-script <FILE>  Inject this exact JSON-lines fault script (one
                            FaultEvent per line, as written by
                            `spms chaos --dump-plan`) instead of a spec
    --audit-ms <N>          Simulated milliseconds between self-audit ticks,
                            each re-verifying one core's memoized RTA
                            against a scratch recomputation (rebuilding on
                            mismatch); 0 disables [default: 0]
    --dump-trace <FILE>     Write the first trace's processed event log as a
                            JSON-lines file replayable by
                            `spms online --trace`
    --metrics <FILE>        Write a telemetry snapshot of the run (merged
                            across shard counts and traces in grid order;
                            the spms_* outcome section is also identical
                            across shard counts whenever the decision
                            streams agree)
    --metrics-format <F>    Snapshot exposition: prom or json [default: prom]
    (--sets-per-point sets the churn traces generated per shard count;
     the `timing` array in the output and the spms_timing_* metric
     section are wall-clock measurement data and are the only parts that
     vary run-to-run)
",
    ),
    (
        "chaos",
        "Seeded fault injection: shard failover, recovery replay, self-audit (E16)",
        "    --cores <N>             Number of processors [default: 8]
    --shards <a,b,..>       Shard counts to sweep [default: 2]
    --events <N>            Workload events per churn trace [default: 2000]
    --utilization <U>       Target normalized utilization [default: 0.6]
    --faults <SPEC>         Seeded fault mix, comma-separated knobs
                            crash=N,stall=N,corrupt=N,spike=N,seed=S,
                            expanded against the measured trace horizon
                            [default: crash=1,stall=1,corrupt=1,spike=1]
    --faults-script <FILE>  Inject this exact JSON-lines fault script (one
                            FaultEvent per line) instead of generating a
                            plan from --faults
    --audit-ms <N>          Simulated milliseconds between self-audit ticks
                            (the harness's corruption detector; must be at
                            least 1) [default: 100]
    --rebalance-ms <N>      Simulated milliseconds between rebalance ticks;
                            0 disables [default: 250]
    --replay-every <N>      Replay every Nth admission's shard through the
                            simulator; 0 disables [default: 50]
    --dump-plan <FILE>      Write the injected plan as a JSON-lines script
                            replayable via --faults-script
    (--sets-per-point sets the churn traces generated per shard count;
     the report — recovery digest included — is identical for every
     --threads value)
",
    ),
    (
        "overhead",
        "Admission capacity under real CRPD migration charges: zero vs light vs heavy (E15)",
        "    --cores <N>             Number of processors [default: 4]
    --events <N>            Arrive/depart events per churn trace [default: 120]
    --points <a,b,..>       Target normalized-utilization sweep points
                            [default: 0.6,0.75,0.9]
    --repair-moves <K>      Max already-placed tasks relocated per admission
                            [default: 2]
    --replay-ms <N>         Simulated milliseconds per admitted-epoch replay;
                            0 disables replay [default: 50]
    --metrics <FILE>        Write a telemetry snapshot of the run (merged
                            across grid cells in grid order, so the
                            deterministic spms_*/spms_mech_* sections are
                            identical for every --threads value)
    --metrics-format <F>    Snapshot exposition: prom or json [default: prom]
    (--sets-per-point sets the churn traces generated per sweep point;
     the same traces are decided under the zero, crpd-light and crpd-heavy
     cost models, so the acceptance columns are directly comparable)
",
    ),
];

const COMMON_OPTIONS: &str = "\
COMMON OPTIONS:
    --threads <N>         Worker threads for the sweep grid; 0 = one per core [default: 1]
    --seed <N>            Root RNG seed for task-set generation [default: 0]
    --sets-per-point <N>  Task sets generated per sweep point
    --format <F>          Output format: markdown, csv or json [default: markdown]
    --quiet               Suppress the stderr progress line
    --help                Show this help
";

/// The global `spms --help` page.
fn global_usage() -> String {
    let mut out = String::from(
        "spms — semi-partitioned multi-core scheduling experiments (Zhang, Guan, Yi — DATE 2011)\n\n\
         USAGE:\n    spms <COMMAND> [OPTIONS]\n\nCOMMANDS:\n",
    );
    for (name, summary, _) in COMMANDS {
        out.push_str(&format!("    {name:<12} {summary}\n"));
    }
    out.push('\n');
    out.push_str(COMMON_OPTIONS);
    out.push_str(
        "\nRun `spms <COMMAND> --help` for the command-specific options.\n\n\
         Every run is deterministic: with a fixed --seed, any --threads value\n\
         produces byte-identical output.\n",
    );
    out
}

/// Common flags a subcommand rejects rather than ignores (see
/// [`reject_inapplicable`]); the single source of truth shared by the flag
/// parser and the help pages, so `spms <command> --help` never advertises a
/// flag the command refuses.
fn inapplicable_common_flags(command: &str) -> &'static [&'static str] {
    match command {
        // The cache sweep generates no task sets: no RNG, no replications.
        "cache" => &["--seed", "--sets-per-point"],
        // One deterministic simulation: nothing to seed, replicate or fan out.
        "anatomy" => &["--seed", "--sets-per-point", "--threads"],
        _ => &[],
    }
}

/// The `spms <command> --help` page, or `None` for an unknown command.
fn command_usage(command: &str) -> Option<String> {
    let (name, summary, options) = COMMANDS.iter().find(|(name, _, _)| *name == command)?;
    let mut out = format!(
        "spms {name} — {summary}\n\nUSAGE:\n    spms {name} [OPTIONS]\n\nOPTIONS:\n{options}\n"
    );
    let rejected = inapplicable_common_flags(name);
    for line in COMMON_OPTIONS.lines() {
        let flag = line.split_whitespace().next().unwrap_or("");
        if !rejected.contains(&flag) {
            out.push_str(line);
            out.push('\n');
        }
    }
    Some(out)
}

/// A usage error: printed to stderr together with a pointer to `--help`.
struct UsageError(String);

type CliResult<T> = Result<T, UsageError>;

fn usage_error<T>(message: impl Into<String>) -> CliResult<T> {
    Err(UsageError(message.into()))
}

/// Value-free boolean switches (besides the global `--quiet`): listed here
/// so the parser knows not to consume the next argument as their value.
const SWITCHES: &[&str] = &["--cross-shard-split"];

/// Parsed command line: `--key value` pairs plus boolean switches.
struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
    quiet: bool,
}

impl Flags {
    fn parse(args: &[String]) -> CliResult<Flags> {
        let mut pairs = Vec::new();
        let mut switches: Vec<String> = Vec::new();
        let mut quiet = false;
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--quiet" => quiet = true,
                key if SWITCHES.contains(&key) => {
                    if switches.iter().any(|existing| existing == key) {
                        return usage_error(format!("{key} given more than once"));
                    }
                    switches.push(key.to_string());
                }
                key if key.starts_with("--") => {
                    let Some(value) = iter.next() else {
                        return usage_error(format!("{key} requires a value"));
                    };
                    if pairs.iter().any(|(existing, _)| existing == key) {
                        return usage_error(format!("{key} given more than once"));
                    }
                    pairs.push((key.to_string(), value.clone()));
                }
                other => return usage_error(format!("unexpected argument `{other}`")),
            }
        }
        Ok(Flags {
            pairs,
            switches,
            quiet,
        })
    }

    /// Removes and returns the value of `key`, if present.
    fn take(&mut self, key: &str) -> Option<String> {
        let index = self.pairs.iter().position(|(k, _)| k == key)?;
        Some(self.pairs.remove(index).1)
    }

    /// Removes a boolean switch, returning whether it was given.
    fn take_switch(&mut self, key: &str) -> bool {
        let index = self.switches.iter().position(|k| k == key);
        match index {
            Some(index) => {
                self.switches.remove(index);
                true
            }
            None => false,
        }
    }

    fn take_usize(&mut self, key: &str) -> CliResult<Option<usize>> {
        self.take_parsed(key, "a non-negative integer")
    }

    fn take_u64(&mut self, key: &str) -> CliResult<Option<u64>> {
        self.take_parsed(key, "a non-negative integer")
    }

    fn take_f64(&mut self, key: &str) -> CliResult<Option<f64>> {
        self.take_parsed(key, "a number")
    }

    fn take_parsed<T: std::str::FromStr>(
        &mut self,
        key: &str,
        expected: &str,
    ) -> CliResult<Option<T>> {
        match self.take(key) {
            None => Ok(None),
            Some(raw) => match raw.parse() {
                Ok(value) => Ok(Some(value)),
                Err(_) => usage_error(format!("{key} expects {expected}, got `{raw}`")),
            },
        }
    }

    /// Removes and parses a comma-separated list, e.g. `--points 0.5,0.9`.
    fn take_list<T: std::str::FromStr>(&mut self, key: &str) -> CliResult<Option<Vec<T>>> {
        match self.take(key) {
            None => Ok(None),
            Some(raw) => raw
                .split(',')
                .map(|item| item.trim().parse())
                .collect::<Result<Vec<T>, _>>()
                .map(Some)
                .map_err(|_| {
                    UsageError(format!("{key} expects a comma-separated list, got `{raw}`"))
                }),
        }
    }

    /// Errors if any flag was not consumed by the subcommand.
    fn expect_empty(&self, command: &str) -> CliResult<()> {
        if let Some(key) = self.switches.first() {
            return usage_error(format!("`spms {command}` does not support {key}"));
        }
        match self.pairs.first() {
            None => Ok(()),
            Some((key, _)) => usage_error(format!("`spms {command}` does not support {key}")),
        }
    }
}

/// The flags shared by every subcommand.
struct CommonFlags {
    threads: usize,
    seed: u64,
    sets_per_point: Option<usize>,
    format: ReportFormat,
    quiet: bool,
}

impl CommonFlags {
    fn take(flags: &mut Flags) -> CliResult<CommonFlags> {
        let format = match flags.take("--format") {
            None => ReportFormat::Markdown,
            Some(raw) => match ReportFormat::parse(&raw) {
                Some(format) => format,
                None => {
                    return usage_error(format!(
                        "--format expects markdown, csv or json, got `{raw}`"
                    ))
                }
            },
        };
        Ok(CommonFlags {
            threads: flags.take_usize("--threads")?.unwrap_or(1),
            seed: flags.take_u64("--seed")?.unwrap_or(0),
            sets_per_point: flags.take_usize("--sets-per-point")?,
            format,
            quiet: flags.quiet,
        })
    }

    /// The progress sink: a stderr status line when attached to a terminal,
    /// silent otherwise (so piping JSON to a file stays clean).
    fn progress(&self, label: &str) -> Box<dyn ProgressSink> {
        if self.quiet || !std::io::stderr().is_terminal() {
            Box::new(NullProgress)
        } else {
            Box::new(StderrProgress::new(label))
        }
    }
}

fn take_overhead(flags: &mut Flags, default: OverheadModel) -> CliResult<OverheadModel> {
    match flags.take("--overhead").as_deref() {
        None => Ok(default),
        Some("zero") => Ok(OverheadModel::zero()),
        Some("n4") => Ok(OverheadModel::paper_n4()),
        Some("n64") => Ok(OverheadModel::paper_n64()),
        Some(other) => usage_error(format!("--overhead expects zero, n4 or n64, got `{other}`")),
    }
}

/// Formats results through the shared [`ReportSink`]: markdown, CSV or the
/// JSON envelope the CI benchmark artifacts diff.
fn render<T: serde::Serialize>(
    experiment: &str,
    common: &CommonFlags,
    results: &T,
    markdown: impl FnOnce() -> String,
    csv: impl FnOnce() -> String,
) -> CliResult<String> {
    ReportSink::new(experiment, common.format)
        .seed(common.seed)
        .threads(common.threads)
        .render(results, markdown, csv)
        .map_err(|e| UsageError(e.to_string()))
}

/// The `--metrics-format` exposition formats.
#[derive(Clone, Copy)]
enum MetricsFormat {
    Prometheus,
    Json,
}

/// Parses the `--metrics <FILE>` / `--metrics-format <prom|json>` pair
/// shared by the `online`, `soak` and `overhead` subcommands.
fn take_metrics(flags: &mut Flags) -> CliResult<Option<(String, MetricsFormat)>> {
    let path = flags.take("--metrics");
    let format_raw = flags.take("--metrics-format");
    let Some(path) = path else {
        return match format_raw {
            None => Ok(None),
            Some(_) => usage_error("--metrics-format requires --metrics"),
        };
    };
    let format = match format_raw.as_deref() {
        None | Some("prom") => MetricsFormat::Prometheus,
        Some("json") => MetricsFormat::Json,
        Some(other) => {
            return usage_error(format!(
                "--metrics-format expects prom or json, got `{other}`"
            ))
        }
    };
    Ok(Some((path, format)))
}

/// Writes a full registry snapshot to `path`. The Prometheus writer
/// re-parses its own output first, so a malformed exposition fails the run
/// instead of poisoning a scrape endpoint or a CI diff.
fn write_metrics(path: &str, format: MetricsFormat, registry: &Registry) -> CliResult<()> {
    let snapshot = registry.snapshot(SnapshotFilter::Full);
    let text = match format {
        MetricsFormat::Prometheus => {
            let text = snapshot.render_prometheus();
            Snapshot::from_prometheus(&text)
                .map_err(|e| UsageError(format!("rendered metrics failed to re-parse: {e}")))?;
            text
        }
        MetricsFormat::Json => serde_json::to_string(&snapshot)
            .map_err(|e| UsageError(format!("serializing metrics failed: {e}")))?,
    };
    std::fs::write(path, text)
        .map_err(|e| UsageError(format!("writing metrics `{path}` failed: {e}")))
}

/// Where a run's fault plan comes from: nowhere (fault-free), a seeded
/// `--faults` spec expanded against the measured horizon, or an exact
/// `--faults-script` JSON-lines scenario.
enum FaultSource {
    None,
    Spec(FaultSpec),
    Script(FaultPlan),
}

/// Parses the mutually exclusive `--faults <SPEC>` / `--faults-script
/// <FILE>` pair shared by `soak` and `chaos`. An all-zero spec is a usage
/// error: a typoed chaos run must not quietly test nothing.
fn take_fault_source(flags: &mut Flags) -> CliResult<FaultSource> {
    let spec_raw = flags.take("--faults");
    let script_path = flags.take("--faults-script");
    if spec_raw.is_some() && script_path.is_some() {
        return usage_error("--faults and --faults-script are mutually exclusive");
    }
    if let Some(raw) = spec_raw {
        let spec = FaultSpec::parse(&raw).map_err(|e| UsageError(format!("--faults: {e}")))?;
        if spec.event_count() == 0 {
            return usage_error("--faults schedules no faults (try crash=1)");
        }
        return Ok(FaultSource::Spec(spec));
    }
    if let Some(path) = script_path {
        let raw = std::fs::read_to_string(&path)
            .map_err(|e| UsageError(format!("reading fault script `{path}` failed: {e}")))?;
        let plan = FaultPlan::from_script(&raw)
            .map_err(|e| UsageError(format!("fault script `{path}`: {e}")))?;
        return Ok(FaultSource::Script(plan));
    }
    Ok(FaultSource::None)
}

/// Parses the `--cost-model` flag: `zero` charges nothing (the default);
/// `crpd` charges the mixed hash-spread CRPD model, so each task's
/// migration price follows its attributed working set.
fn take_cost_model(flags: &mut Flags) -> CliResult<CostModelSpec> {
    match flags.take("--cost-model").as_deref() {
        None | Some("zero") => Ok(CostModelSpec::Zero),
        Some("crpd") => Ok(CostModelSpec::Crpd(CrpdCostModel::mixed())),
        Some(other) => usage_error(format!("--cost-model expects zero or crpd, got `{other}`")),
    }
}

/// Parses the `--churn` flag shared by `online` and `soak`: `poisson`
/// (the default) or `bursty` (Markov-modulated arrivals at the same
/// long-run rate).
fn take_churn(flags: &mut Flags) -> CliResult<ChurnFamily> {
    match flags.take("--churn") {
        None => Ok(ChurnFamily::Poisson),
        Some(raw) => raw
            .parse()
            .map_err(|e: String| UsageError(format!("--churn: {e}"))),
    }
}

fn run_acceptance(mut flags: Flags) -> CliResult<String> {
    let common = CommonFlags::take(&mut flags)?;
    let mut experiment = AcceptanceRatioExperiment::new()
        .seed(common.seed)
        .threads(common.threads);
    if let Some(sets) = common.sets_per_point {
        experiment = experiment.sets_per_point(sets);
    }
    if let Some(cores) = flags.take_usize("--cores")? {
        experiment = experiment.cores(cores);
    }
    if let Some(tasks) = flags.take_usize("--tasks-per-set")? {
        experiment = experiment.tasks_per_set(tasks);
    }
    if let Some(points) = flags.take_list("--points")? {
        experiment = experiment.utilization_points(points);
    }
    experiment = experiment.overhead(take_overhead(&mut flags, OverheadModel::zero())?);
    flags.expect_empty("acceptance")?;
    let results = experiment.run_with_progress(common.progress("acceptance").as_ref());
    render(
        "acceptance",
        &common,
        &results,
        || results.render_markdown(),
        || results.render_csv(),
    )
}

fn run_sensitivity(mut flags: Flags) -> CliResult<String> {
    let common = CommonFlags::take(&mut flags)?;
    let mut experiment = OverheadSensitivityExperiment::new()
        .seed(common.seed)
        .threads(common.threads);
    if let Some(sets) = common.sets_per_point {
        experiment = experiment.sets_per_scale(sets);
    }
    if let Some(tasks) = flags.take_usize("--tasks-per-set")? {
        experiment = experiment.tasks_per_set(tasks);
    }
    if let Some(scales) = flags.take_list("--scales")? {
        experiment = experiment.scales(scales);
    }
    if let Some(u) = flags.take_f64("--utilization")? {
        experiment = experiment.normalized_utilization(u);
    }
    flags.expect_empty("sensitivity")?;
    let results = experiment.run_with_progress(common.progress("sensitivity").as_ref());
    render(
        "sensitivity",
        &common,
        &results,
        || results.render_markdown(),
        || results.render_csv(),
    )
}

/// Rejects common flags that a subcommand would otherwise silently ignore
/// (e.g. `--seed` on the deterministic `cache` sweep). Must run before
/// [`CommonFlags::take`], which consumes every common flag it knows.
fn reject_inapplicable(flags: &mut Flags, command: &str, keys: &[&str]) -> CliResult<()> {
    for key in keys {
        if flags.take(key).is_some() {
            return usage_error(format!("`spms {command}` does not support {key}"));
        }
    }
    Ok(())
}

fn run_cache(mut flags: Flags) -> CliResult<String> {
    reject_inapplicable(&mut flags, "cache", inapplicable_common_flags("cache"))?;
    let common = CommonFlags::take(&mut flags)?;
    let mut experiment = CacheCrossoverExperiment::new().threads(common.threads);
    if let Some(sizes) = flags.take_list("--sizes")? {
        experiment = experiment.working_set_sizes(sizes);
    }
    flags.expect_empty("cache")?;
    let results = experiment.run_with_progress(common.progress("cache").as_ref());
    render(
        "cache",
        &common,
        &results,
        || results.render_markdown(),
        || results.render_csv(),
    )
}

fn run_anatomy(mut flags: Flags) -> CliResult<String> {
    reject_inapplicable(&mut flags, "anatomy", inapplicable_common_flags("anatomy"))?;
    let common = CommonFlags::take(&mut flags)?;
    flags.expect_empty("anatomy")?;
    let report = PreemptionAnatomy::new().run();
    render(
        "anatomy",
        &common,
        &report,
        || report.render_markdown(),
        || report.render_csv(),
    )
}

fn run_runtime(mut flags: Flags) -> CliResult<String> {
    let common = CommonFlags::take(&mut flags)?;
    let mut experiment = RuntimeCostExperiment::new()
        .seed(common.seed)
        .threads(common.threads);
    if let Some(sets) = common.sets_per_point {
        experiment = experiment.sets_per_point(sets);
    }
    if let Some(cores) = flags.take_usize("--cores")? {
        experiment = experiment.cores(cores);
    }
    if let Some(tasks) = flags.take_usize("--tasks-per-set")? {
        experiment = experiment.tasks_per_set(tasks);
    }
    if let Some(points) = flags.take_list("--points")? {
        experiment = experiment.utilization_points(points);
    }
    experiment = experiment.overhead(take_overhead(&mut flags, OverheadModel::paper_n4())?);
    flags.expect_empty("runtime")?;
    let results = experiment.run_with_progress(common.progress("runtime").as_ref());
    render(
        "runtime",
        &common,
        &results,
        || results.render_markdown(),
        || results.render_csv(),
    )
}

fn run_cores(mut flags: Flags) -> CliResult<String> {
    let common = CommonFlags::take(&mut flags)?;
    let mut experiment = CoreCountSweepExperiment::new()
        .seed(common.seed)
        .threads(common.threads);
    if let Some(sets) = common.sets_per_point {
        experiment = experiment.sets_per_point(sets);
    }
    if let Some(counts) = flags.take_list("--core-counts")? {
        experiment = experiment.core_counts(counts);
    }
    if let Some(tasks) = flags.take_usize("--tasks-per-core")? {
        experiment = experiment.tasks_per_core(tasks);
    }
    if let Some(u) = flags.take_f64("--utilization")? {
        experiment = experiment.normalized_utilization(u);
    }
    experiment = experiment.overhead(take_overhead(&mut flags, OverheadModel::zero())?);
    flags.expect_empty("cores")?;
    let results = experiment.run_with_progress(common.progress("cores").as_ref());
    render(
        "cores",
        &common,
        &results,
        || results.render_markdown(),
        || results.render_csv(),
    )
}

fn run_global(mut flags: Flags) -> CliResult<String> {
    let common = CommonFlags::take(&mut flags)?;
    let mut experiment = GlobalComparisonExperiment::new()
        .seed(common.seed)
        .threads(common.threads);
    if let Some(sets) = common.sets_per_point {
        experiment = experiment.sets_per_point(sets);
    }
    if let Some(cores) = flags.take_usize("--cores")? {
        experiment = experiment.cores(cores);
    }
    if let Some(tasks) = flags.take_usize("--tasks-per-set")? {
        experiment = experiment.tasks_per_set(tasks);
    }
    if let Some(points) = flags.take_list("--points")? {
        experiment = experiment.utilization_points(points);
    }
    experiment = experiment.overhead(take_overhead(&mut flags, OverheadModel::zero())?);
    flags.expect_empty("global")?;
    let results = experiment.run_with_progress(common.progress("global").as_ref());
    render(
        "global",
        &common,
        &results,
        || results.render_markdown(),
        || results.render_csv(),
    )
}

fn run_online(mut flags: Flags) -> CliResult<String> {
    if let Some(path) = flags.take("--trace") {
        return run_online_trace(&path, flags);
    }
    let common = CommonFlags::take(&mut flags)?;
    let mut experiment = ChurnExperiment::new()
        .seed(common.seed)
        .threads(common.threads);
    if let Some(traces) = common.sets_per_point {
        experiment = experiment.traces_per_point(traces);
    }
    if let Some(cores) = flags.take_usize("--cores")? {
        // An invalid churn configuration would otherwise be swallowed per
        // grid cell (the sweep skips failed cells), reporting an all-zero
        // table instead of an error.
        if cores == 0 {
            return usage_error("--cores must be at least 1");
        }
        experiment = experiment.cores(cores);
    }
    if let Some(events) = flags.take_usize("--events")? {
        if events == 0 {
            return usage_error("--events must be at least 1");
        }
        experiment = experiment.events_per_trace(events);
    }
    if let Some(points) = flags.take_list("--points")? {
        experiment = experiment.utilization_points(points);
    }
    if let Some(moves) = flags.take_usize("--repair-moves")? {
        experiment = experiment.max_repair_moves(moves);
    }
    if let Some(ms) = flags.take_u64("--replay-ms")? {
        experiment = experiment.replay_duration((ms > 0).then(|| Time::from_millis(ms)));
    }
    if let Some(us) = flags.take_u64("--jitter-us")? {
        experiment = experiment.release_jitter(Time::from_micros(us));
    }
    experiment = experiment.overhead(take_overhead(&mut flags, OverheadModel::zero())?);
    experiment = experiment.cost_model(take_cost_model(&mut flags)?);
    experiment = experiment.churn_family(take_churn(&mut flags)?);
    let metrics = take_metrics(&mut flags)?;
    flags.expect_empty("online")?;
    let run = experiment.run_full_with_progress(common.progress("online").as_ref());
    if let Some((path, format)) = &metrics {
        write_metrics(path, *format, &run.metrics)?;
    }
    let results = run.results;
    render(
        "online",
        &common,
        &results,
        || results.render_markdown(),
        || results.render_csv(),
    )
}

/// What `spms online --trace` reports: the decision counters of one replay
/// of a recorded event log through the sharded admission service.
#[derive(serde::Serialize)]
struct TraceReplayReport {
    shards: usize,
    events: u64,
    arrivals: u64,
    admitted: u64,
    rejected: u64,
    departures: u64,
    overflow_admissions: u64,
    acceptance_ratio: f64,
    inflation_charged_ns: u64,
    decisions_digest: u64,
}

impl TraceReplayReport {
    fn render_markdown(&self) -> String {
        format!(
            "| shards | events | arrivals | admitted | rejected | departures | overflow | acceptance | inflate µs | decisions digest |\n\
             |---|---|---|---|---|---|---|---|---|---|\n\
             | {} | {} | {} | {} | {} | {} | {} | {:.4} | {} | {:#018x} |\n",
            self.shards,
            self.events,
            self.arrivals,
            self.admitted,
            self.rejected,
            self.departures,
            self.overflow_admissions,
            self.acceptance_ratio,
            self.inflation_charged_ns / 1_000,
            self.decisions_digest,
        )
    }

    fn render_csv(&self) -> String {
        format!(
            "shards,events,arrivals,admitted,rejected,departures,overflow_admissions,acceptance_ratio,inflation_charged_ns,decisions_digest\n\
             {},{},{},{},{},{},{},{:.4},{},{:#018x}\n",
            self.shards,
            self.events,
            self.arrivals,
            self.admitted,
            self.rejected,
            self.departures,
            self.overflow_admissions,
            self.acceptance_ratio,
            self.inflation_charged_ns,
            self.decisions_digest,
        )
    }
}

/// FNV-1a over a byte string — the same digest function the soak experiment
/// uses, so two replays of the same trace can be compared by one number.
fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    bytes
        .iter()
        .fold(OFFSET, |acc, b| (acc ^ u64::from(*b)).wrapping_mul(PRIME))
}

/// Reads a JSON-lines event log, delegating the parsing (and its typed,
/// line-numbered errors) to [`spms::online::parse_trace`].
fn read_trace(path: &str) -> CliResult<Vec<WorkloadEvent>> {
    let raw = std::fs::read_to_string(path)
        .map_err(|e| UsageError(format!("reading trace `{path}` failed: {e}")))?;
    parse_trace(&raw).map_err(|e| UsageError(format!("trace `{path}`: {e}")))
}

/// Writes a captured processed-event log as a JSON-lines trace file.
fn write_trace(path: &str, trace: &[TimedEvent]) -> CliResult<()> {
    let mut out = String::new();
    for event in trace {
        let line = serde_json::to_string(event)
            .map_err(|e| UsageError(format!("serializing trace event failed: {e}")))?;
        out.push_str(&line);
        out.push('\n');
    }
    std::fs::write(path, out).map_err(|e| UsageError(format!("writing trace `{path}` failed: {e}")))
}

/// `spms online --trace <file>`: replays a recorded event log through the
/// sharded admission service and reports the decision counters plus the
/// decision-log digest.
fn run_online_trace(path: &str, mut flags: Flags) -> CliResult<String> {
    // Trace mode neither generates task sets nor sweeps a grid, so the
    // sweep-only flags are rejected rather than silently ignored.
    reject_inapplicable(
        &mut flags,
        "online --trace",
        &[
            "--seed",
            "--sets-per-point",
            "--threads",
            "--points",
            "--events",
            "--replay-ms",
            "--jitter-us",
            "--churn",
        ],
    )?;
    let common = CommonFlags::take(&mut flags)?;
    let cores = flags.take_usize("--cores")?.unwrap_or(4);
    if cores == 0 {
        return usage_error("--cores must be at least 1");
    }
    let shards = flags.take_usize("--shards")?.unwrap_or(1);
    let repair_moves = flags.take_usize("--repair-moves")?.unwrap_or(2);
    let cross_shard_split = flags.take_switch("--cross-shard-split");
    if cross_shard_split && shards < 2 {
        return usage_error("--cross-shard-split requires --shards of at least 2");
    }
    let overhead = take_overhead(&mut flags, OverheadModel::zero())?;
    let cost_model = take_cost_model(&mut flags)?;
    let metrics = take_metrics(&mut flags)?;
    flags.expect_empty("online")?;

    let events = read_trace(path)?;
    let config = OnlineConfig::builder()
        .cores(cores)
        .max_repair_moves(repair_moves)
        .overhead(overhead)
        .cost_model(cost_model)
        .cross_shard_split(cross_shard_split)
        .build();
    let mut service =
        ShardedAdmission::new(config, shards).map_err(|e| UsageError(e.to_string()))?;
    service.handle_all(&events);
    if let Some((path, format)) = &metrics {
        write_metrics(path, *format, &service.merged_metrics_registry())?;
    }
    let stats = *service.stats();
    let log = serde_json::to_string(&service.decisions().to_vec())
        .map_err(|e| UsageError(format!("serializing decisions failed: {e}")))?;
    let report = TraceReplayReport {
        shards,
        events: service.decisions().len() as u64,
        arrivals: stats.decisions.arrivals,
        admitted: stats.decisions.admitted,
        rejected: stats.decisions.rejected,
        departures: stats.decisions.departures,
        overflow_admissions: stats.overflow_admissions,
        acceptance_ratio: stats.decisions.acceptance_ratio(),
        inflation_charged_ns: stats.decisions.inflation_charged_ns,
        decisions_digest: fnv1a(log.as_bytes()),
    };
    render(
        "online-trace",
        &common,
        &report,
        || report.render_markdown(),
        || report.render_csv(),
    )
}

fn run_soak(mut flags: Flags) -> CliResult<String> {
    let common = CommonFlags::take(&mut flags)?;
    let mut experiment = SoakExperiment::new()
        .seed(common.seed)
        .threads(common.threads);
    if let Some(traces) = common.sets_per_point {
        experiment = experiment.traces_per_point(traces);
    }
    if let Some(cores) = flags.take_usize("--cores")? {
        if cores == 0 {
            return usage_error("--cores must be at least 1");
        }
        experiment = experiment.cores(cores);
    }
    if let Some(shards) = flags.take_list::<usize>("--shards")? {
        if shards.is_empty() || shards.contains(&0) {
            return usage_error("--shards expects shard counts of at least 1");
        }
        experiment = experiment.shard_counts(shards);
    }
    if let Some(events) = flags.take_usize("--events")? {
        if events == 0 {
            return usage_error("--events must be at least 1");
        }
        experiment = experiment.events_per_trace(events);
    }
    if let Some(u) = flags.take_f64("--utilization")? {
        experiment = experiment.target_utilization(u);
    }
    if let Some(moves) = flags.take_usize("--repair-moves")? {
        experiment = experiment.max_repair_moves(moves);
    }
    experiment = experiment.cost_model(take_cost_model(&mut flags)?);
    if let Some(ms) = flags.take_u64("--rebalance-ms")? {
        experiment = experiment.rebalance_period((ms > 0).then(|| Time::from_millis(ms)));
    }
    if let Some(moves) = flags.take_usize("--rebalance-moves")? {
        experiment = experiment.rebalance_max_moves(moves);
    }
    if let Some(ms) = flags.take_u64("--lease-ms")? {
        experiment = experiment.lease((ms > 0).then(|| Time::from_millis(ms)));
    }
    if let Some(ms) = flags.take_u64("--leased-scenario-ms")? {
        experiment = experiment.leased_scenario((ms > 0).then(|| Time::from_millis(ms)));
    }
    experiment = experiment.cross_shard(flags.take_switch("--cross-shard-split"));
    experiment = experiment.churn_family(take_churn(&mut flags)?);
    if let Some(every) = flags.take_usize("--replay-every")? {
        experiment = experiment.replay_sample_every(every);
    }
    if let Some(ms) = flags.take_u64("--audit-ms")? {
        experiment = experiment.audit_period((ms > 0).then(|| Time::from_millis(ms)));
    }
    let fault_source = take_fault_source(&mut flags)?;
    let dump_trace = flags.take("--dump-trace");
    if dump_trace.is_some() {
        experiment = experiment.capture_trace(true);
    }
    let metrics = take_metrics(&mut flags)?;
    flags.expect_empty("soak")?;
    // The spec is expanded only after every knob that shapes the first
    // trace (cores, events, utilization, churn, seed) has been applied.
    let fault_plan = match fault_source {
        FaultSource::None => None,
        FaultSource::Spec(spec) => Some(experiment.plan_faults(&spec)),
        FaultSource::Script(plan) => Some(plan),
    };
    let faults_armed = fault_plan.is_some();
    experiment = experiment.faults(fault_plan);
    let run = experiment.run_full_with_progress(common.progress("soak").as_ref());
    if faults_armed && !common.quiet {
        // Recovery counters go to stderr: the serialized soak artifact
        // stays byte-identical to a fault-free build when faults are off,
        // and `spms chaos` is the command that reports them as data.
        for (point, fault) in run.results.points().iter().zip(&run.fault_stats) {
            eprintln!(
                "fault summary [shards={}]: injected={} crashes={} stalls={} \
                 corruptions={} cost_spikes={} drained={} recovered={} evicted={} \
                 rejoins={} audits={} violations={} repaired={}",
                point.shards,
                fault.injections,
                fault.crashes,
                fault.stalls,
                fault.corruptions,
                fault.cost_spikes,
                fault.drained,
                fault.recoveries,
                fault.evictions,
                fault.rejoins,
                fault.audit_checks,
                fault.audit_violations,
                fault.audit_repairs,
            );
        }
    }
    if let Some(path) = &dump_trace {
        let trace = run
            .captured_trace
            .ok_or_else(|| UsageError("no trace captured: the first grid cell failed".into()))?;
        write_trace(path, &trace)?;
    }
    if let Some((path, format)) = &metrics {
        write_metrics(path, *format, &run.metrics)?;
    }
    let results = run.results;
    render(
        "soak",
        &common,
        &results,
        || results.render_markdown(),
        || results.render_csv(),
    )
}

fn run_chaos(mut flags: Flags) -> CliResult<String> {
    let common = CommonFlags::take(&mut flags)?;
    let mut experiment = ChaosExperiment::new()
        .seed(common.seed)
        .threads(common.threads);
    if let Some(traces) = common.sets_per_point {
        experiment = experiment.traces_per_point(traces);
    }
    if let Some(cores) = flags.take_usize("--cores")? {
        if cores == 0 {
            return usage_error("--cores must be at least 1");
        }
        experiment = experiment.cores(cores);
    }
    if let Some(shards) = flags.take_list::<usize>("--shards")? {
        if shards.is_empty() || shards.contains(&0) {
            return usage_error("--shards expects shard counts of at least 1");
        }
        experiment = experiment.shard_counts(shards);
    }
    if let Some(events) = flags.take_usize("--events")? {
        if events == 0 {
            return usage_error("--events must be at least 1");
        }
        experiment = experiment.events_per_trace(events);
    }
    if let Some(u) = flags.take_f64("--utilization")? {
        experiment = experiment.target_utilization(u);
    }
    if let Some(ms) = flags.take_u64("--audit-ms")? {
        if ms == 0 {
            return usage_error(
                "--audit-ms must be at least 1: the self-audit is the \
                 chaos harness's corruption detector",
            );
        }
        experiment = experiment.audit_period(Time::from_millis(ms));
    }
    if let Some(ms) = flags.take_u64("--rebalance-ms")? {
        experiment = experiment.rebalance_period((ms > 0).then(|| Time::from_millis(ms)));
    }
    if let Some(every) = flags.take_usize("--replay-every")? {
        experiment = experiment.replay_sample_every(every);
    }
    experiment = match take_fault_source(&mut flags)? {
        // A bare `spms chaos` injects one fault of each kind rather than
        // an empty plan, so the default run actually exercises failover.
        FaultSource::None => experiment.spec(FaultSpec {
            crashes: 1,
            stalls: 1,
            corruptions: 1,
            cost_spikes: 1,
            ..FaultSpec::default()
        }),
        FaultSource::Spec(spec) => experiment.spec(spec),
        FaultSource::Script(plan) => experiment.script(Some(plan)),
    };
    let dump_plan = flags.take("--dump-plan");
    flags.expect_empty("chaos")?;
    let results = experiment.run_with_progress(common.progress("chaos").as_ref());
    if let Some(path) = &dump_plan {
        std::fs::write(path, results.plan.to_script())
            .map_err(|e| UsageError(format!("writing fault plan `{path}` failed: {e}")))?;
    }
    render(
        "chaos",
        &common,
        &results,
        || results.render_markdown(),
        || results.render_csv(),
    )
}

fn run_rtabench(mut flags: Flags) -> CliResult<String> {
    let common = CommonFlags::take(&mut flags)?;
    let mut experiment = RtaCacheBenchmark::new()
        .seed(common.seed)
        .threads(common.threads);
    if let Some(traces) = common.sets_per_point {
        experiment = experiment.traces_per_point(traces);
    }
    if let Some(cores) = flags.take_usize("--cores")? {
        if cores == 0 {
            return usage_error("--cores must be at least 1");
        }
        experiment = experiment.cores(cores);
    }
    if let Some(events) = flags.take_usize("--events")? {
        if events == 0 {
            return usage_error("--events must be at least 1");
        }
        experiment = experiment.events_per_trace(events);
    }
    if let Some(points) = flags.take_list("--points")? {
        experiment = experiment.utilization_points(points);
    }
    if let Some(moves) = flags.take_usize("--repair-moves")? {
        experiment = experiment.max_repair_moves(moves);
    }
    flags.expect_empty("rtabench")?;
    let results = experiment.run_with_progress(common.progress("rtabench").as_ref());
    render(
        "rtabench",
        &common,
        &results,
        || results.render_markdown(),
        || results.render_csv(),
    )
}

fn run_overhead(mut flags: Flags) -> CliResult<String> {
    let common = CommonFlags::take(&mut flags)?;
    let mut experiment = OverheadExperiment::new()
        .seed(common.seed)
        .threads(common.threads);
    if let Some(traces) = common.sets_per_point {
        experiment = experiment.traces_per_point(traces);
    }
    if let Some(cores) = flags.take_usize("--cores")? {
        if cores == 0 {
            return usage_error("--cores must be at least 1");
        }
        experiment = experiment.cores(cores);
    }
    if let Some(events) = flags.take_usize("--events")? {
        if events == 0 {
            return usage_error("--events must be at least 1");
        }
        experiment = experiment.events_per_trace(events);
    }
    if let Some(points) = flags.take_list("--points")? {
        experiment = experiment.utilization_points(points);
    }
    if let Some(moves) = flags.take_usize("--repair-moves")? {
        experiment = experiment.max_repair_moves(moves);
    }
    if let Some(ms) = flags.take_u64("--replay-ms")? {
        experiment = experiment.replay_duration((ms > 0).then(|| Time::from_millis(ms)));
    }
    let metrics = take_metrics(&mut flags)?;
    flags.expect_empty("overhead")?;
    let run = experiment.run_full_with_progress(common.progress("overhead").as_ref());
    if let Some((path, format)) = &metrics {
        write_metrics(path, *format, &run.metrics)?;
    }
    let results = run.results;
    render(
        "overhead",
        &common,
        &results,
        || results.render_markdown(),
        || results.render_csv(),
    )
}

fn dispatch(command: &str, flags: Flags) -> CliResult<String> {
    match command {
        "acceptance" => run_acceptance(flags),
        "sensitivity" => run_sensitivity(flags),
        "cache" => run_cache(flags),
        "anatomy" => run_anatomy(flags),
        "runtime" => run_runtime(flags),
        "cores" => run_cores(flags),
        "global" => run_global(flags),
        "online" => run_online(flags),
        "rtabench" => run_rtabench(flags),
        "soak" => run_soak(flags),
        "chaos" => run_chaos(flags),
        "overhead" => run_overhead(flags),
        other => usage_error(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        // `spms <command> --help` prints the command-specific page; a bare
        // `--help` (or an unknown command) prints the global one.
        match args.first().and_then(|c| command_usage(c)) {
            Some(page) => print!("{page}"),
            None => print!("{}", global_usage()),
        }
        return ExitCode::SUCCESS;
    }
    if args.is_empty() {
        // A missing command is an error: keep stdout clean for data so
        // `spms > out.json` pipelines fail without polluting the file.
        eprint!("{}", global_usage());
        return ExitCode::from(2);
    }
    let command = args[0].clone();
    let flags = match Flags::parse(&args[1..]) {
        Ok(flags) => flags,
        Err(UsageError(message)) => {
            eprintln!("error: {message}\nrun `spms --help` for usage");
            return ExitCode::from(2);
        }
    };
    let code = match dispatch(&command, flags) {
        Ok(output) => {
            println!("{output}");
            ExitCode::SUCCESS
        }
        Err(UsageError(message)) => {
            eprintln!("error: {message}\nrun `spms --help` for usage");
            ExitCode::from(2)
        }
    };
    // Deep library code (the RTA iteration-cap guard, recovery paths)
    // records once-per-run diagnostics instead of writing to stderr
    // behind our back; surface them here, after the data output.
    for warning in spms::telemetry::drain_warnings() {
        if warning.count > 1 {
            eprintln!(
                "warning: {} ({} occurrences)",
                warning.message, warning.count
            );
        } else {
            eprintln!("warning: {}", warning.message);
        }
    }
    code
}
