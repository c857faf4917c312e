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
//! Every flag is declared once, in [`FLAGS`], and every command once, in
//! [`COMMANDS`]: the parser, the value checks, the help pages and dispatch
//! all read those two tables. A value a driver would reject (zero cores, a
//! NaN utilization) is a usage error, not a table of zeros.
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
    decisions_digest, parse_trace, FaultStats, OnlineConfig, OnlineConfigBuilder, ShardedAdmission,
    TimedEvent, WorkloadEvent,
};
use spms::overhead::{CostModelSpec, CrpdCostModel};
use spms::task::Time;
use spms::telemetry::{Registry, Snapshot, SnapshotFilter};
use std::io::IsTerminal;
use std::process::ExitCode;
use std::str::FromStr;
use Kind::*;

/// What a flag's value must be: each kind admits exactly what the drivers
/// and generators accept.
#[derive(Clone, Copy)]
enum Kind {
    /// An integer of at least 1.
    Count,
    /// A non-negative integer; `0` keeps its documented "disables" meaning.
    Natural,
    /// A finite normalized utilization above 0.
    Utilization,
    /// A finite overhead scaling factor of at least 0.
    Scale,
    /// One of a fixed set of names, matched case-insensitively.
    Choice(&'static [&'static str]),
    /// A path, or a spec the command parses itself.
    Text,
    /// A value-free switch.
    Switch,
}

impl Kind {
    /// `Err` says what the kind expects when it rejects `item`.
    fn admit(self, item: &str) -> Result<(), String> {
        let int = item.parse::<u64>().ok();
        let num = item.parse::<f64>().ok().filter(|x| x.is_finite());
        let (admitted, expected) = match self {
            Count => (int.is_some_and(|n| n >= 1), "an integer of at least 1"),
            Natural => (int.is_some(), "a non-negative integer"),
            Utilization => (num.is_some_and(|u| u > 0.0), "a finite utilization above 0"),
            Scale => (
                num.is_some_and(|s| s >= 0.0),
                "a finite scale of at least 0",
            ),
            Choice(names) => (names.iter().any(|n| n.eq_ignore_ascii_case(item)), ""),
            Text | Switch => (true, ""),
        };
        match (admitted, self) {
            (true, _) => Ok(()),
            (false, Choice(names)) => Err(format!("one of {}", names.join(", "))),
            (false, _) => Err(expected.to_string()),
        }
    }
}

/// One flag as [`FLAGS`] declares it; a command's spec fills in `default`.
#[derive(Clone, Copy)]
struct Flag {
    /// The name and value placeholder, as help pages print them. A
    /// `<a,b,..>` placeholder makes the value a comma-separated list of
    /// `kind` entries.
    usage: &'static str,
    kind: Kind,
    help: &'static str,
    /// The value the command runs with when the flag is absent; empty
    /// leaves the driver's own default undocumented and untouched.
    default: &'static str,
}

const fn flag(usage: &'static str, kind: Kind) -> Flag {
    Flag {
        usage,
        kind,
        help: "",
        default: "",
    }
}

impl Flag {
    const fn help(self, help: &'static str) -> Flag {
        Flag { help, ..self }
    }

    fn name(&self) -> &'static str {
        self.usage.split(' ').next().unwrap_or_default()
    }

    fn is_list(&self) -> bool {
        self.usage.ends_with("<a,b,..>")
    }

    /// Checks a value (each entry of a list) against the kind.
    fn check(&self, raw: &str) -> CliResult<()> {
        let items: Vec<&str> = match self.is_list() {
            true => raw.split(',').map(str::trim).collect(),
            false => vec![raw],
        };
        for item in items {
            if let Err(expected) = self.kind.admit(item) {
                let name = self.name();
                return usage_error(format!("{name} expects {expected}, got `{item}`"));
            }
        }
        Ok(())
    }
}

/// Every flag of every command, each declared once.
const FLAGS: &[Flag] = &[
    flag("--help", Switch).help("Show this help"),
    flag("--format <F>", Choice(&["markdown", "csv", "json"]))
        .help("Output format: markdown, csv or json"),
    flag("--quiet", Switch).help("Suppress the stderr progress line"),
    flag("--threads <N>", Natural).help("Worker threads for the sweep grid; 0 = one per core"),
    flag("--seed <N>", Natural).help("Root RNG seed for task-set generation"),
    flag("--sets-per-point <N>", Count).help("Task sets generated per sweep point"),
    flag("--cores <N>", Count).help("Number of processors"),
    flag("--tasks-per-set <N>", Count).help("Tasks per generated set"),
    flag("--points <a,b,..>", Utilization)
        .help("Normalized-utilization sweep points (churn targets for the admission commands)"),
    flag("--overhead <zero|n4|n64>", Choice(&["zero", "n4", "n64"]))
        .help("Overhead model folded into the (admission) analysis"),
    flag("--scales <a,b,..>", Scale).help("Overhead scaling factors"),
    flag("--utilization <U>", Utilization)
        .help("Normalized utilization (the churn target for soak and chaos)"),
    flag("--sizes <a,b,..>", Natural).help("Working-set sizes in bytes"),
    flag("--core-counts <a,b,..>", Count).help("Core counts to sweep"),
    flag("--tasks-per-core <N>", Count).help("Tasks generated per core"),
    flag("--events <N>", Count).help("Arrive/depart workload events per churn trace"),
    flag("--repair-moves <K>", Natural)
        .help("Max already-placed tasks relocated per admission (0 disables bounded repair)"),
    flag("--replay-ms <N>", Natural)
        .help("Simulated milliseconds per admitted-epoch replay; 0 disables replay"),
    flag("--jitter-us <N>", Natural).help(
        "Max sporadic release jitter per job injected by the replay, in microseconds (seeded \
         per trace; 0 replays synchronous-periodic)",
    ),
    flag("--cost-model <zero|crpd>", Choice(&["zero", "crpd"])).help(
        "Migration cost model the controller (every shard) charges: every split piece, repair \
         relocation and rebalance move inflates the task's analysis WCET by the model's \
         per-job migration charge",
    ),
    flag("--churn <poisson|bursty>", Choice(&["poisson", "bursty"])).help(
        "Churn-process family driving the traces: memoryless Poisson arrivals or the bursty \
         Markov-modulated variant at the same long-run rate",
    ),
    flag("--trace <FILE>", Text).help(
        "Replay a recorded event log instead of sweeping: one JSON event per line, either \
         timed ({\"at\":..,\"event\":..}, as written by `spms soak --dump-trace`) or a bare \
         arrive/depart event",
    ),
    flag("--shards <a,b,..>", Count).help(
        "Shard counts to sweep. A --trace replay takes one: the admission shards it replays \
         through (1 replays the decision stream byte-identically to the single controller)",
    ),
    flag("--cross-shard-split", Switch).help(
        "Split an otherwise-rejected task across two shards (body on the highest-spare shard, \
         tail on the runner-up). A --trace replay requires --shards of at least 2; soak adds \
         a cross-shard column, rerunning every multi-shard point with the planner enabled and \
         reporting the acceptance it recovers over the walled baseline",
    ),
    flag("--metrics <FILE>", Text).help(
        "Write a telemetry snapshot of the run, merged across grid cells (shard counts and \
         traces) in grid order: the deterministic spms_*/spms_mech_* sections are identical \
         for every thread count, and the spms_* outcome section is also identical across \
         shard counts whenever the decision streams agree",
    ),
    flag("--metrics-format <F>", Choice(&["prom", "json"]))
        .help("Snapshot exposition: prom or json"),
    flag("--rebalance-ms <N>", Natural)
        .help("Simulated milliseconds between work-stealing rebalance ticks; 0 disables"),
    flag("--rebalance-moves <K>", Natural).help("Max cross-shard migrations per rebalance tick"),
    flag("--lease-ms <N>", Natural).help(
        "Admission lease in simulated milliseconds; expiry synthesizes a departure (makes the \
         event stream depend on admissions, so the cross-shard-count stream invariant may not \
         hold); 0 disables",
    ),
    flag("--leased-scenario-ms <N>", Natural).help(
        "Add a leased scenario column: rerun every point with this lease armed and renewal \
         heartbeats injected at half the lease. Unlike --lease-ms the baseline points stay \
         lease-free; the leased per-shard-count digests legitimately diverge. 0 disables",
    ),
    flag("--replay-every <N>", Natural).help(
        "Replay every Nth admission's shard through the simulator (the stitched global \
         partition on cross-shard reruns); 0 disables",
    ),
    flag("--faults <SPEC>", Text).help(
        "Inject a seeded fault plan drawn against the measured trace horizon: comma-separated \
         knobs crash=N,stall=N,corrupt=N,spike=N,seed=S, at most --events faults in all (in \
         soak, faults change the decision stream, so the cross-shard-count digest invariant \
         may not hold, and a per-point recovery summary goes to stderr)",
    ),
    flag("--faults-script <FILE>", Text).help(
        "Inject this exact JSON-lines fault script (one FaultEvent per line, as written by \
         `spms chaos --dump-plan`) instead of generating a plan from --faults",
    ),
    flag("--audit-ms <N>", Natural).help(
        "Simulated milliseconds between self-audit ticks, each re-verifying one core's \
         memoized RTA against a scratch recomputation (rebuilding on mismatch); 0 disables, \
         except in chaos, where the audit is the harness's corruption detector and must be at \
         least 1",
    ),
    flag("--dump-trace <FILE>", Text).help(
        "Write the first trace's processed event log as a JSON-lines file replayable by `spms \
         online --trace`",
    ),
    flag("--dump-plan <FILE>", Text)
        .help("Write the injected plan as a JSON-lines script replayable via --faults-script"),
];

/// The flags every command shares, in [`Command::flags`] spec form and
/// ordered so each command accepts a prefix: a single deterministic run
/// takes the first three, the cache sweep adds `--threads`, and every
/// seeded sweep takes all six.
const COMMON: &str = "--help --format=markdown --quiet --threads=1 --seed=0 --sets-per-point";

/// The declared flag a spec token names, with the default the token gives
/// it (`--cores=8`).
fn resolve(token: &'static str) -> Flag {
    let (name, default) = token.split_once('=').unwrap_or((token, ""));
    let flag = FLAGS.iter().find(|f| f.name() == name);
    let flag = flag.unwrap_or_else(|| panic!("{name} is not declared in FLAGS"));
    Flag { default, ..*flag }
}

/// One subcommand, or one mode of it: the flags it accepts, its help
/// text and the driver that runs it.
struct Command {
    name: &'static str,
    /// The flag selecting this mode of `name` (`online --trace`); empty
    /// for the plain form, which is declared first.
    mode: &'static str,
    /// The one-line summary on the global help page.
    about: &'static str,
    /// The [`FLAGS`] it accepts besides the common ones, by name, each
    /// with its default for this command: `--cores=4 --points`.
    flags: &'static str,
    /// How many [`COMMON`] flags it accepts (all by default); it refuses
    /// the rest.
    common: usize,
    /// A closing note under its options.
    note: &'static str,
    run: fn(&Args) -> CliResult<String>,
}

const fn command(name: &'static str, run: fn(&Args) -> CliResult<String>) -> Command {
    Command {
        name,
        mode: "",
        about: "",
        flags: "",
        common: usize::MAX,
        note: "",
        run,
    }
}

impl Command {
    const fn about(self, about: &'static str) -> Command {
        Command { about, ..self }
    }

    const fn flags(self, flags: &'static str) -> Command {
        Command { flags, ..self }
    }

    const fn mode(self, mode: &'static str) -> Command {
        Command { mode, ..self }
    }

    const fn common(self, common: usize) -> Command {
        Command { common, ..self }
    }

    const fn note(self, note: &'static str) -> Command {
        Command { note, ..self }
    }

    /// Every flag it accepts, with its defaults.
    fn accepts(&self) -> Vec<Flag> {
        let common = COMMON.split_whitespace().take(self.common);
        let tokens = self.flags.split_whitespace().chain(common);
        tokens.map(resolve).collect()
    }

    /// How error messages name it: `online --trace`.
    fn label(&self) -> String {
        format!("{} {}", self.name, self.mode).trim_end().into()
    }

    /// Its own options and closing note, as its help page prints them.
    fn options(&self) -> String {
        let note = match self.note {
            "" => String::new(),
            note => wrap("   ", note.split_whitespace()),
        };
        options(self.flags.split_whitespace().map(resolve)) + &note
    }
}

const COMMANDS: &[Command] = &[
    command("acceptance", run_acceptance)
        .about("Acceptance ratio of FP-TS vs FFD vs WFD over a utilization sweep (E5)")
        .flags("--cores=4 --tasks-per-set --points --overhead=zero"),
    command("sensitivity", run_sensitivity)
        .about("Acceptance-ratio loss as the overhead magnitude is scaled up (E6)")
        .flags("--scales=0,1,5,20 --utilization=0.9 --tasks-per-set"),
    command("cache", run_cache)
        .about("Local context-switch vs migration reload cost by working-set size (E4)")
        .flags("--sizes")
        .common(4)
        .note("(the sweep is deterministic: seeding and replication flags do not apply)"),
    command("anatomy", run_anatomy)
        .about("Figure 1: the annotated timeline of a single preemption (E3)")
        .common(3)
        .note("(a single deterministic simulation: only --format and --quiet apply)"),
    command("runtime", run_runtime)
        .about("Simulated preemption/migration/overhead costs of accepted partitions (E8)")
        .flags("--cores=4 --tasks-per-set --points --overhead=n4"),
    command("cores", run_cores)
        .about("Acceptance ratio as the core count grows (E9)")
        .flags("--core-counts=2,4,8,16 --tasks-per-core=4 --utilization=0.85 --overhead=zero"),
    command("global", run_global)
        .about("Partitioned & semi-partitioned vs sufficient global tests (E10)")
        .flags("--cores=4 --tasks-per-set --points --overhead=zero"),
    command("online", run_online)
        .about("Online admission control under task churn: acceptance, paths, replay (E11)")
        .flags(
            "--cores=4 --events=120 --points=0.5,0.6,0.7,0.8,0.9 --repair-moves=2 \
             --replay-ms=50 --jitter-us=0 --overhead=zero --cost-model=zero --churn=poisson \
             --metrics --metrics-format=prom",
        )
        .note("(--sets-per-point sets the churn traces generated per sweep point)"),
    command("online", run_online_trace)
        .mode("--trace")
        .flags(
            "--trace --cores=4 --shards=1 --cross-shard-split --repair-moves=2 --overhead=zero \
             --cost-model=zero --metrics --metrics-format=prom",
        )
        .common(3)
        .note(
            "(trace mode replays the log through the sharded admission service and reports its \
             decision counters and digest; it generates no task sets and sweeps no grid, so of \
             the common options only --format and --quiet apply)",
        ),
    command("rtabench", run_rtabench)
        .about("Admission-cascade bench: every decision audited by scratch RTA (E12/E13)")
        .flags("--cores=4 --events=120 --points=0.6,0.8 --repair-moves=2")
        .note(
            "(--sets-per-point sets the churn traces generated per sweep point; after every \
             decision, checks each core against from-scratch RTA (schedulable, and the \
             converged cache matches it) and asserts the journal hot path is clone-free; the \
             `timing` object in the output is wall-clock measurement data and is the only part \
             that varies run-to-run)",
        ),
    command("soak", run_soak)
        .about("Endurance soak of the sharded event-loop admission service (E14)")
        .flags(
            "--cores=8 --shards=1,2 --events=10000 --utilization=0.6 --repair-moves=2 \
             --cost-model=zero --rebalance-ms=250 --rebalance-moves=4 --lease-ms=0 \
             --leased-scenario-ms=0 --cross-shard-split --churn=poisson --replay-every=0 \
             --faults --faults-script --audit-ms=0 --dump-trace --metrics --metrics-format=prom",
        )
        .note(
            "(--sets-per-point sets the churn traces generated per shard count; the `timing` \
             array in the output and the spms_timing_* metric section are wall-clock \
             measurement data and are the only parts that vary run-to-run)",
        ),
    command("chaos", run_chaos)
        .about("Seeded fault injection: shard failover, recovery replay, self-audit (E16)")
        .flags(
            "--cores=8 --shards=2 --events=2000 --utilization=0.6 \
             --faults=crash=1,stall=1,corrupt=1,spike=1 --faults-script --audit-ms=100 \
             --rebalance-ms=250 --replay-every=50 --dump-plan",
        )
        .note(
            "(--sets-per-point sets the churn traces generated per shard count; the report — \
             recovery digest included — is identical for every --threads value)",
        ),
    command("overhead", run_overhead)
        .about("Admission capacity under real CRPD migration charges: zero vs light vs heavy (E15)")
        .flags(
            "--cores=4 --events=120 --points=0.6,0.75,0.9 --repair-moves=2 --replay-ms=50 \
             --metrics --metrics-format=prom",
        )
        .note(
            "(--sets-per-point sets the churn traces generated per sweep point; the same traces \
             are decided under the zero, crpd-light and crpd-heavy cost models, so the \
             acceptance columns are directly comparable)",
        ),
];

/// `head` followed by `words`, wrapped to 80 columns with continuation
/// lines aligned under the first word.
fn wrap<'a>(head: &str, words: impl Iterator<Item = &'a str>) -> String {
    let indent = head.len();
    let (mut out, mut column) = (head.to_string(), indent);
    for word in words {
        if column > indent && column + 1 + word.chars().count() > 80 {
            out = out + "\n" + &" ".repeat(indent);
            column = indent;
        }
        out = out + " " + word;
        column += 1 + word.chars().count();
    }
    out + "\n"
}

/// One wrapped help entry per flag, with its default.
fn options(flags: impl Iterator<Item = Flag>) -> String {
    let mut out = String::new();
    for flag in flags {
        let default = match flag.default {
            "" => None,
            default => Some(format!("[default: {default}]")),
        };
        let words = flag.help.split_whitespace().chain(default.as_deref());
        out.push_str(&wrap(&format!("    {:<24}", flag.usage), words));
    }
    out
}

/// The global `spms --help` page.
fn global_usage() -> String {
    let mut out = String::from(
        "spms — semi-partitioned multi-core scheduling experiments (Zhang, Guan, Yi — DATE 2011)\n\n\
         USAGE:\n    spms <COMMAND> [OPTIONS]\n\nCOMMANDS:\n",
    );
    for command in COMMANDS.iter().filter(|c| c.mode.is_empty()) {
        out.push_str(&format!("    {:<12} {}\n", command.name, command.about));
    }
    out.push_str("\nCOMMON OPTIONS:\n");
    out.push_str(&options(COMMON.split_whitespace().map(resolve)));
    out.push_str(
        "\nRun `spms <COMMAND> --help` for the command-specific options.\n\n\
         Every run is deterministic: with a fixed --seed, any --threads value\n\
         produces byte-identical output.\n",
    );
    out
}

/// The `spms <command> --help` page, one options section per mode, or
/// `None` for an unknown command.
fn command_usage(name: &str) -> Option<String> {
    let modes: Vec<&Command> = COMMANDS.iter().filter(|c| c.name == name).collect();
    let plain = modes.first()?;
    let (mut usage, mut body) = (String::new(), String::new());
    for command in &modes {
        let (mode, with) = match command.mode {
            "" => Default::default(),
            mode => (format!(" {}", resolve(mode).usage), format!(" WITH {mode}")),
        };
        usage.push_str(&format!("    spms {name}{mode} [OPTIONS]\n"));
        body.push_str(&format!("\nOPTIONS{with}:\n{}", command.options()));
    }
    let common = options(COMMON.split_whitespace().take(plain.common).map(resolve));
    let about = plain.about;
    Some(format!(
        "spms {name} — {about}\n\nUSAGE:\n{usage}{body}\nCOMMON OPTIONS:\n{common}"
    ))
}

/// A usage error: printed to stderr together with a pointer to `--help`.
struct UsageError(String);

type CliResult<T> = Result<T, UsageError>;

fn usage_error<T>(message: impl Into<String>) -> CliResult<T> {
    Err(UsageError(message.into()))
}

/// A command line checked against one [`Command`]: every flag is one it
/// accepts, given once, with a value its kind admits.
struct Args {
    command: &'static Command,
    flags: Vec<Flag>,
    given: Vec<(&'static str, String)>,
}

impl Args {
    fn parse(name: &str, tokens: &[String]) -> CliResult<Args> {
        let modes: Vec<&'static Command> = COMMANDS.iter().filter(|c| c.name == name).collect();
        let Some(plain) = modes.first() else {
            return usage_error(format!("unknown command `{name}`"));
        };
        let known: Vec<Flag> = modes.iter().flat_map(|c| c.accepts()).collect();
        let mut given: Vec<(&'static str, String)> = Vec::new();
        let mut tokens = tokens.iter();
        while let Some(token) = tokens.next() {
            let Some(flag) = known.iter().find(|f| f.name() == token) else {
                return match token.starts_with("--") {
                    true => usage_error(format!("`spms {name}` does not support {token}")),
                    false => usage_error(format!("unexpected argument `{token}`")),
                };
            };
            if given.iter().any(|(name, _)| name == token) {
                return usage_error(format!("{token} given more than once"));
            }
            let value = match flag.kind {
                Switch => Some(String::new()),
                _ => tokens.next().cloned(),
            };
            let Some(value) = value else {
                return usage_error(format!("{token} requires a value"));
            };
            given.push((flag.name(), value));
        }
        let selected = modes.iter().find(|c| given.iter().any(|g| g.0 == c.mode));
        let command = *selected.unwrap_or(plain);
        let flags = command.accepts();
        for (name, value) in &mut given {
            let Some(flag) = flags.iter().find(|f| f.name() == *name) else {
                let label = command.label();
                return usage_error(format!("`spms {label}` does not support {name}"));
            };
            flag.check(value)?;
            if let Choice(_) = flag.kind {
                value.make_ascii_lowercase();
            }
        }
        Ok(Args {
            command,
            flags,
            given,
        })
    }

    /// The rules that tie one flag to another, checked before any run.
    fn cross_check(&self) -> CliResult<()> {
        let (trace, chaos) = (self.command.mode == "--trace", self.command.name == "chaos");
        if self.given("--metrics-format") && !self.given("--metrics") {
            return usage_error("--metrics-format requires --metrics");
        }
        if self.given("--faults") && self.given("--faults-script") {
            return usage_error("--faults and --faults-script are mutually exclusive");
        }
        let cores: usize = self.get("--cores").unwrap_or(0);
        let shards: Vec<usize> = self.list("--shards").unwrap_or_default();
        if let Some(shards) = shards.iter().find(|&&shards| shards > cores) {
            let why = "every shard needs a core";
            return usage_error(format!("--shards {shards} exceeds --cores {cores}: {why}"));
        }
        if trace && shards.len() != 1 {
            return usage_error("--shards takes one shard count with --trace");
        }
        if trace && self.given("--cross-shard-split") && shards[0] < 2 {
            return usage_error("--cross-shard-split requires --shards of at least 2");
        }
        if chaos && self.millis("--audit-ms").is_none() {
            return usage_error(
                "--audit-ms must be at least 1: the self-audit is the chaos harness's \
                 corruption detector",
            );
        }
        Ok(())
    }

    fn given(&self, name: &str) -> bool {
        self.given.iter().any(|(given, _)| *given == name)
    }

    /// The flag's value as given, else the command's default for it.
    fn text(&self, name: &str) -> Option<&str> {
        let given = self.given.iter().find(|(given, _)| *given == name);
        let default = self
            .flags
            .iter()
            .find(|f| f.name() == name && !f.default.is_empty());
        match given {
            Some((_, value)) => Some(value.as_str()),
            None => default.map(|f| f.default),
        }
    }

    /// The list flag's entries parsed as `T`, which its kind check
    /// guarantees.
    fn list<T: FromStr>(&self, name: &str) -> Option<Vec<T>> {
        let items = self.text(name)?.split(',').map(|item| item.trim().parse());
        let parsed = items.collect::<Result<Vec<T>, _>>().ok();
        Some(parsed.unwrap_or_else(|| panic!("{name}: a checked value did not parse")))
    }

    /// The scalar flag's value parsed as `T`: a one-entry list.
    fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        self.list(name)?.pop()
    }

    /// The millisecond flag's value, `None` when it is 0 (disabled).
    fn millis(&self, name: &str) -> Option<Time> {
        self.get(name).filter(|&ms| ms > 0).map(Time::from_millis)
    }

    /// The progress sink: a stderr status line when attached to a terminal,
    /// silent otherwise (so piping JSON to a file stays clean).
    fn progress(&self) -> Box<dyn ProgressSink> {
        if self.given("--quiet") || !std::io::stderr().is_terminal() {
            Box::new(NullProgress)
        } else {
            Box::new(StderrProgress::new(self.command.name))
        }
    }
}

/// Hands a flag's value, given or default, to a builder setter.
fn apply<E, T>(builder: E, value: Option<T>, set: impl FnOnce(E, T) -> E) -> E {
    match value {
        Some(value) => set(builder, value),
        None => builder,
    }
}

fn overhead(args: &Args) -> OverheadModel {
    match args.text("--overhead") {
        Some("n4") => OverheadModel::paper_n4(),
        Some("n64") => OverheadModel::paper_n64(),
        _ => OverheadModel::zero(),
    }
}

/// `zero` charges nothing; `crpd` charges the mixed hash-spread CRPD model,
/// so each task's migration price follows its attributed working set.
fn cost_model(args: &Args) -> CostModelSpec {
    match args.text("--cost-model") {
        Some("crpd") => CostModelSpec::Crpd(CrpdCostModel::mixed()),
        _ => CostModelSpec::Zero,
    }
}

/// Formats results through the shared [`ReportSink`]: markdown, CSV or the
/// JSON envelope the CI benchmark artifacts diff.
fn render<T: serde::Serialize>(
    args: &Args,
    results: &T,
    markdown: impl FnOnce() -> String,
    csv: impl FnOnce() -> String,
) -> CliResult<String> {
    let experiment = args.command.label().replace(" --", "-");
    let format = ReportFormat::parse(args.text("--format").unwrap_or_default());
    let sink = ReportSink::new(experiment, format.unwrap_or(ReportFormat::Markdown));
    let sink = apply(sink, args.get("--seed"), ReportSink::seed);
    apply(sink, args.get("--threads"), ReportSink::threads)
        .render(results, markdown, csv)
        .map_err(|e| UsageError(e.to_string()))
}

/// Writes a full registry snapshot to the `--metrics` file, if one was
/// given. The Prometheus writer re-parses its own output first, so a
/// malformed exposition fails the run instead of poisoning a scrape
/// endpoint or a CI diff.
fn write_metrics(args: &Args, registry: &Registry) -> CliResult<()> {
    let Some(path) = args.text("--metrics") else {
        return Ok(());
    };
    let snapshot = registry.snapshot(SnapshotFilter::Full);
    let text = if args.text("--metrics-format") == Some("json") {
        serde_json::to_string(&snapshot)
            .map_err(|e| UsageError(format!("serializing metrics failed: {e}")))?
    } else {
        let text = snapshot.render_prometheus();
        Snapshot::from_prometheus(&text)
            .map_err(|e| UsageError(format!("rendered metrics failed to re-parse: {e}")))?;
        text
    };
    std::fs::write(path, text)
        .map_err(|e| UsageError(format!("writing metrics `{path}` failed: {e}")))
}

/// A run's fault plan: a seeded spec expanded against the measured
/// horizon, or an exact script.
enum Faults {
    Spec(FaultSpec),
    Script(FaultPlan),
}

/// Reads `--faults-script <FILE>`, else `--faults <SPEC>`. An all-zero
/// spec is a usage error: a typoed chaos run must not quietly test nothing.
fn faults(args: &Args) -> CliResult<Option<Faults>> {
    if let Some(path) = args.text("--faults-script") {
        let raw = std::fs::read_to_string(path)
            .map_err(|e| UsageError(format!("reading fault script `{path}` failed: {e}")))?;
        let plan = FaultPlan::from_script(&raw)
            .map_err(|e| UsageError(format!("fault script `{path}`: {e}")))?;
        return Ok(Some(Faults::Script(plan)));
    }
    let Some(raw) = args.text("--faults") else {
        return Ok(None);
    };
    let spec = FaultSpec::parse(raw).map_err(|e| UsageError(format!("--faults: {e}")))?;
    let (faults, events) = (spec.event_count(), args.get("--events").unwrap_or(0));
    if faults == 0 {
        return usage_error("--faults schedules no faults (try crash=1)");
    }
    if faults > events {
        let why = format!("more than the {events} --events per trace");
        return usage_error(format!("--faults schedules {faults} faults, {why}"));
    }
    Ok(Some(Faults::Spec(spec)))
}

fn run_acceptance(args: &Args) -> CliResult<String> {
    type E = AcceptanceRatioExperiment;
    let e = apply(E::new(), args.get("--seed"), E::seed);
    let e = apply(e, args.get("--threads"), E::threads);
    let e = apply(e, args.get("--sets-per-point"), E::sets_per_point);
    let e = apply(e, args.get("--cores"), E::cores);
    let e = apply(e, args.get("--tasks-per-set"), E::tasks_per_set);
    let e = apply(e, args.list("--points"), E::utilization_points);
    let r = e
        .overhead(overhead(args))
        .run_with_progress(args.progress().as_ref());
    render(args, &r, || r.render_markdown(), || r.render_csv())
}

fn run_sensitivity(args: &Args) -> CliResult<String> {
    type E = OverheadSensitivityExperiment;
    let e = apply(E::new(), args.get("--seed"), E::seed);
    let e = apply(e, args.get("--threads"), E::threads);
    let e = apply(e, args.get("--sets-per-point"), E::sets_per_scale);
    let e = apply(e, args.get("--tasks-per-set"), E::tasks_per_set);
    let e = apply(e, args.list("--scales"), E::scales);
    let e = apply(e, args.get("--utilization"), E::normalized_utilization);
    let r = e.run_with_progress(args.progress().as_ref());
    render(args, &r, || r.render_markdown(), || r.render_csv())
}

fn run_cache(args: &Args) -> CliResult<String> {
    type E = CacheCrossoverExperiment;
    let e = apply(E::new(), args.get("--threads"), E::threads);
    let e = apply(e, args.list("--sizes"), E::working_set_sizes);
    let r = e.run_with_progress(args.progress().as_ref());
    render(args, &r, || r.render_markdown(), || r.render_csv())
}

fn run_anatomy(args: &Args) -> CliResult<String> {
    let r = PreemptionAnatomy::new().run();
    render(args, &r, || r.render_markdown(), || r.render_csv())
}

fn run_runtime(args: &Args) -> CliResult<String> {
    type E = RuntimeCostExperiment;
    let e = apply(E::new(), args.get("--seed"), E::seed);
    let e = apply(e, args.get("--threads"), E::threads);
    let e = apply(e, args.get("--sets-per-point"), E::sets_per_point);
    let e = apply(e, args.get("--cores"), E::cores);
    let e = apply(e, args.get("--tasks-per-set"), E::tasks_per_set);
    let e = apply(e, args.list("--points"), E::utilization_points);
    let r = e
        .overhead(overhead(args))
        .run_with_progress(args.progress().as_ref());
    render(args, &r, || r.render_markdown(), || r.render_csv())
}

fn run_cores(args: &Args) -> CliResult<String> {
    type E = CoreCountSweepExperiment;
    let e = apply(E::new(), args.get("--seed"), E::seed);
    let e = apply(e, args.get("--threads"), E::threads);
    let e = apply(e, args.get("--sets-per-point"), E::sets_per_point);
    let e = apply(e, args.list("--core-counts"), E::core_counts);
    let e = apply(e, args.get("--tasks-per-core"), E::tasks_per_core);
    let e = apply(e, args.get("--utilization"), E::normalized_utilization);
    let r = e
        .overhead(overhead(args))
        .run_with_progress(args.progress().as_ref());
    render(args, &r, || r.render_markdown(), || r.render_csv())
}

fn run_global(args: &Args) -> CliResult<String> {
    type E = GlobalComparisonExperiment;
    let e = apply(E::new(), args.get("--seed"), E::seed);
    let e = apply(e, args.get("--threads"), E::threads);
    let e = apply(e, args.get("--sets-per-point"), E::sets_per_point);
    let e = apply(e, args.get("--cores"), E::cores);
    let e = apply(e, args.get("--tasks-per-set"), E::tasks_per_set);
    let e = apply(e, args.list("--points"), E::utilization_points);
    let r = e
        .overhead(overhead(args))
        .run_with_progress(args.progress().as_ref());
    render(args, &r, || r.render_markdown(), || r.render_csv())
}

fn run_online(args: &Args) -> CliResult<String> {
    type E = ChurnExperiment;
    let e = apply(E::new(), args.get("--seed"), E::seed);
    let e = apply(e, args.get("--threads"), E::threads);
    let e = apply(e, args.get("--sets-per-point"), E::traces_per_point);
    let e = apply(e, args.get("--cores"), E::cores);
    let e = apply(e, args.get("--events"), E::events_per_trace);
    let e = apply(e, args.list("--points"), E::utilization_points);
    let e = apply(e, args.get("--repair-moves"), E::max_repair_moves);
    let e = apply(
        e,
        args.get("--jitter-us").map(Time::from_micros),
        E::release_jitter,
    );
    let e = apply(e, args.get("--churn"), E::churn_family);
    let e = e.replay_duration(args.millis("--replay-ms"));
    let e = e.overhead(overhead(args)).cost_model(cost_model(args));
    let run = e.run_full_with_progress(args.progress().as_ref());
    write_metrics(args, &run.metrics)?;
    let r = run.results;
    render(args, &r, || r.render_markdown(), || r.render_csv())
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
fn run_online_trace(args: &Args) -> CliResult<String> {
    type B = OnlineConfigBuilder;
    let events = read_trace(args.text("--trace").unwrap_or_default())?;
    let shards = args.get("--shards").unwrap_or(1);
    let config = apply(OnlineConfig::builder(), args.get("--cores"), B::cores);
    let config = apply(config, args.get("--repair-moves"), B::max_repair_moves);
    let config = config.overhead(overhead(args)).cost_model(cost_model(args));
    let config = config.cross_shard_split(args.given("--cross-shard-split"));
    let mut service =
        ShardedAdmission::new(config.build(), shards).map_err(|e| UsageError(e.to_string()))?;
    // Straight through the service, not the event loop: the loop would
    // re-shuffle the recorded order of simultaneous events.
    for event in &events {
        service.handle_event(event);
    }
    write_metrics(args, &service.merged_metrics_registry())?;
    let stats = service.stats();
    let r = TraceReplayReport {
        shards,
        events: service.decisions().len() as u64,
        arrivals: stats.decisions.arrivals,
        admitted: stats.decisions.admitted,
        rejected: stats.decisions.rejected,
        departures: stats.decisions.departures,
        overflow_admissions: stats.overflow_admissions,
        acceptance_ratio: stats.decisions.acceptance_ratio(),
        inflation_charged_ns: stats.decisions.inflation_charged_ns,
        decisions_digest: decisions_digest(service.decisions()),
    };
    render(args, &r, || r.render_markdown(), || r.render_csv())
}

fn run_soak(args: &Args) -> CliResult<String> {
    type E = SoakExperiment;
    let faults = faults(args)?;
    let dump_trace = args.text("--dump-trace");
    let e = apply(E::new(), args.get("--seed"), E::seed);
    let e = apply(e, args.get("--threads"), E::threads);
    let e = apply(e, args.get("--sets-per-point"), E::traces_per_point);
    let e = apply(e, args.get("--cores"), E::cores);
    let e = apply(e, args.list("--shards"), E::shard_counts);
    let e = apply(e, args.get("--events"), E::events_per_trace);
    let e = apply(e, args.get("--utilization"), E::target_utilization);
    let e = apply(e, args.get("--repair-moves"), E::max_repair_moves);
    let e = apply(e, args.get("--rebalance-moves"), E::rebalance_max_moves);
    let e = apply(e, args.get("--churn"), E::churn_family);
    let e = apply(e, args.get("--replay-every"), E::replay_sample_every);
    let e = e
        .cost_model(cost_model(args))
        .rebalance_period(args.millis("--rebalance-ms"))
        .lease(args.millis("--lease-ms"))
        .leased_scenario(args.millis("--leased-scenario-ms"))
        .audit_period(args.millis("--audit-ms"))
        .cross_shard(args.given("--cross-shard-split"))
        .capture_trace(dump_trace.is_some());
    // The spec is expanded only after every knob that shapes the first
    // trace (cores, events, utilization, churn, seed) has been applied.
    let plan = faults.map(|faults| match faults {
        Faults::Spec(spec) => e.plan_faults(&spec),
        Faults::Script(plan) => plan,
    });
    let faults_armed = plan.is_some();
    let run = e
        .faults(plan)
        .run_full_with_progress(args.progress().as_ref());
    if faults_armed && !args.given("--quiet") {
        // Recovery counters go to stderr: the serialized soak artifact
        // stays byte-identical to a fault-free build when faults are off,
        // and `spms chaos` is the command that reports them as data.
        for (point, registry) in run.results.points().iter().zip(&run.point_metrics) {
            let fault = FaultStats::from_registry(registry);
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
    if let Some(path) = dump_trace {
        let trace = run
            .captured_trace
            .ok_or_else(|| UsageError("no trace captured: the first grid cell failed".into()))?;
        write_trace(path, &trace)?;
    }
    write_metrics(args, &run.metrics)?;
    let r = run.results;
    render(args, &r, || r.render_markdown(), || r.render_csv())
}

fn run_chaos(args: &Args) -> CliResult<String> {
    type E = ChaosExperiment;
    let e = apply(E::new(), args.get("--seed"), E::seed);
    let e = apply(e, args.get("--threads"), E::threads);
    let e = apply(e, args.get("--sets-per-point"), E::traces_per_point);
    let e = apply(e, args.get("--cores"), E::cores);
    let e = apply(e, args.list("--shards"), E::shard_counts);
    let e = apply(e, args.get("--events"), E::events_per_trace);
    let e = apply(e, args.get("--utilization"), E::target_utilization);
    let e = apply(e, args.millis("--audit-ms"), E::audit_period);
    let e = apply(e, args.get("--replay-every"), E::replay_sample_every);
    let e = e.rebalance_period(args.millis("--rebalance-ms"));
    // `--faults` has a default here, so a bare `spms chaos` injects one
    // fault of each kind rather than an empty plan.
    let e = match faults(args)? {
        Some(Faults::Spec(spec)) => e.spec(spec),
        Some(Faults::Script(plan)) => e.script(Some(plan)),
        None => e,
    };
    let r = e.run_with_progress(args.progress().as_ref());
    if let Some(path) = args.text("--dump-plan") {
        std::fs::write(path, r.plan.to_script())
            .map_err(|e| UsageError(format!("writing fault plan `{path}` failed: {e}")))?;
    }
    render(args, &r, || r.render_markdown(), || r.render_csv())
}

fn run_rtabench(args: &Args) -> CliResult<String> {
    type E = RtaCacheBenchmark;
    let e = apply(E::new(), args.get("--seed"), E::seed);
    let e = apply(e, args.get("--threads"), E::threads);
    let e = apply(e, args.get("--sets-per-point"), E::traces_per_point);
    let e = apply(e, args.get("--cores"), E::cores);
    let e = apply(e, args.get("--events"), E::events_per_trace);
    let e = apply(e, args.list("--points"), E::utilization_points);
    let e = apply(e, args.get("--repair-moves"), E::max_repair_moves);
    let r = e.run_with_progress(args.progress().as_ref());
    render(args, &r, || r.render_markdown(), || r.render_csv())
}

fn run_overhead(args: &Args) -> CliResult<String> {
    type E = OverheadExperiment;
    let e = apply(E::new(), args.get("--seed"), E::seed);
    let e = apply(e, args.get("--threads"), E::threads);
    let e = apply(e, args.get("--sets-per-point"), E::traces_per_point);
    let e = apply(e, args.get("--cores"), E::cores);
    let e = apply(e, args.get("--events"), E::events_per_trace);
    let e = apply(e, args.list("--points"), E::utilization_points);
    let e = apply(e, args.get("--repair-moves"), E::max_repair_moves);
    let e = e.replay_duration(args.millis("--replay-ms"));
    let run = e.run_full_with_progress(args.progress().as_ref());
    write_metrics(args, &run.metrics)?;
    let r = run.results;
    render(args, &r, || r.render_markdown(), || r.render_csv())
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
    let Some(command) = args.first() else {
        // A missing command is an error: keep stdout clean for data so
        // `spms > out.json` pipelines fail without polluting the file.
        eprint!("{}", global_usage());
        return ExitCode::from(2);
    };
    let run = |a: Args| a.cross_check().and_then(|()| (a.command.run)(&a));
    let code = match Args::parse(command, &args[1..]).and_then(run) {
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
        let repeats = match warning.count {
            1 => String::new(),
            count => format!(" ({count} occurrences)"),
        };
        eprintln!("warning: {}{repeats}", warning.message);
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tokens passing `flag` a value its kind admits.
    fn tokens_for(flag: &Flag) -> Vec<String> {
        let value = match flag.kind {
            Switch => return vec![flag.name().to_string()],
            Choice(names) => names[0],
            Text => "file",
            _ => "1",
        };
        vec![flag.name().to_string(), value.to_string()]
    }

    /// Walks the table: every flag on a command's help page parses for
    /// that command (and its default passes its own check), and a common
    /// flag the command refuses is neither parsed nor advertised.
    #[test]
    fn every_advertised_flag_parses_and_no_refused_flag_is_advertised() {
        for command in COMMANDS {
            let page = command_usage(command.name).expect("every command has a page");
            let mode = match command.mode {
                "" => Vec::new(),
                mode => tokens_for(&resolve(mode)),
            };
            for flag in command.accepts() {
                let (usage, default) = (flag.usage, flag.default);
                assert!(page.contains(usage), "{} lacks {usage}", command.name);
                let valid = default.is_empty() || flag.check(default).is_ok();
                assert!(valid, "{usage}: invalid default `{default}`");
                if flag.name() == command.mode {
                    continue;
                }
                let tokens = [mode.clone(), tokens_for(&flag)].concat();
                match Args::parse(command.name, &tokens) {
                    Ok(args) => assert_eq!(args.command.mode, command.mode),
                    Err(UsageError(e)) => panic!("`spms {}` {tokens:?}: {e}", command.name),
                }
            }
            let shown = match command.mode {
                "" => page,
                _ => command.options(),
            };
            for flag in COMMON.split_whitespace().skip(command.common).map(resolve) {
                let tokens = [mode.clone(), tokens_for(&flag)].concat();
                assert!(Args::parse(command.name, &tokens).is_err());
                let name = flag.name();
                assert!(!shown.contains(name), "{} shows {name}", command.label());
            }
        }
    }
}
