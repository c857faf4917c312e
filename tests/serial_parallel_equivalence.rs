//! End-to-end guard for the `spms` CLI: under a fixed `--seed`, the JSON a
//! sweep emits with `--threads 1` is byte-identical to `--threads 4`.
//!
//! The library-level invariance tests in `crates/experiments` pin the
//! `SweepRunner` contract per driver; this suite drives the real binary so
//! the flag plumbing, the JSON envelope and stdout itself are covered too —
//! it is the same invariant CI's `bench-smoke` job relies on when it diffs
//! benchmark artifacts across runs.

use std::process::Command;

fn spms(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_spms"))
        .args(args)
        .output()
        .expect("spms binary runs");
    assert!(
        output.status.success(),
        "spms {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("spms emits UTF-8")
}

fn assert_threads_invariant(subcommand: &str, extra: &[&str]) {
    let run = |threads: &str| {
        let mut args = vec![
            subcommand,
            "--seed",
            "2011",
            "--format",
            "json",
            "--threads",
            threads,
        ];
        args.extend_from_slice(extra);
        spms(&args)
    };
    let serial = run("1");
    let parallel = run("4");
    // The thread count is part of the envelope (it documents how the run was
    // produced), so compare the results payloads.
    let strip = |s: &str| s.replace("\"threads\":1", "").replace("\"threads\":4", "");
    assert_eq!(
        strip(&serial),
        strip(&parallel),
        "`spms {subcommand}` output depends on --threads"
    );
    assert!(serial.contains("\"experiment\""));
    assert!(serial.contains("\"results\""));
}

#[test]
fn acceptance_json_is_identical_across_thread_counts() {
    assert_threads_invariant(
        "acceptance",
        &[
            "--sets-per-point",
            "4",
            "--tasks-per-set",
            "8",
            "--points",
            "0.5,0.9",
        ],
    );
}

#[test]
fn core_sweep_json_is_identical_across_thread_counts() {
    assert_threads_invariant("cores", &["--sets-per-point", "4", "--core-counts", "2,4"]);
}

#[test]
fn online_churn_json_is_identical_across_thread_counts() {
    assert_threads_invariant(
        "online",
        &[
            "--sets-per-point",
            "2",
            "--events",
            "30",
            "--points",
            "0.6,0.85",
        ],
    );
}

#[test]
fn online_replay_reports_zero_misses() {
    // The acceptance-criterion check: every admitted epoch of a churn run
    // simulates without deadline misses.
    let out = spms(&[
        "online",
        "--sets-per-point",
        "2",
        "--events",
        "40",
        "--points",
        "0.7",
        "--format",
        "json",
    ]);
    assert!(out.contains("\"replay_misses\":0"), "misses in: {out}");
    assert!(!out.contains("\"replayed_epochs\":0"), "replay was skipped");
}

#[test]
fn inapplicable_common_flags_are_rejected_not_ignored() {
    // `cache` is deterministic and `anatomy` is a single simulation: a seed
    // sweep against them must fail loudly, not return identical output.
    for args in [
        ["cache", "--seed", "7"],
        ["cache", "--sets-per-point", "5"],
        ["anatomy", "--threads", "4"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_spms"))
            .args(args)
            .output()
            .expect("spms binary runs");
        assert_eq!(
            output.status.code(),
            Some(2),
            "spms {args:?} should be rejected"
        );
        assert!(
            String::from_utf8_lossy(&output.stderr).contains("does not support"),
            "spms {args:?} stderr should name the unsupported flag"
        );
    }
}

#[test]
fn online_rejects_degenerate_configurations() {
    // An invalid churn config must be a loud usage error, not an all-zero
    // success table (the sweep grid silently skips failed cells).
    for args in [["online", "--events", "0"], ["online", "--cores", "0"]] {
        let output = Command::new(env!("CARGO_BIN_EXE_spms"))
            .args(args)
            .output()
            .expect("spms binary runs");
        assert_eq!(output.status.code(), Some(2), "spms {args:?} should fail");
        assert!(
            String::from_utf8_lossy(&output.stderr).contains("at least 1"),
            "spms {args:?} stderr should explain the bound"
        );
    }
}

#[test]
fn metrics_flag_writes_both_expositions() {
    let dir = std::env::temp_dir();
    let prom = dir.join(format!("spms_metrics_{}.prom", std::process::id()));
    let json = dir.join(format!("spms_metrics_{}.json", std::process::id()));

    spms(&[
        "soak",
        "--cores",
        "4",
        "--events",
        "120",
        "--sets-per-point",
        "1",
        "--metrics",
        prom.to_str().unwrap(),
        "--format",
        "json",
    ]);
    let text = std::fs::read_to_string(&prom).expect("prom metrics written");
    assert!(text.contains("# TYPE spms_admitted_total counter"));
    assert!(text.contains("spms_mech_rebalance_ticks_total"));
    assert!(text.contains("spms_timing_decision_latency_ns"));

    spms(&[
        "online",
        "--events",
        "30",
        "--sets-per-point",
        "1",
        "--points",
        "0.6",
        "--metrics",
        json.to_str().unwrap(),
        "--metrics-format",
        "json",
        "--format",
        "json",
    ]);
    let text = std::fs::read_to_string(&json).expect("json metrics written");
    assert!(text.contains("\"spms_admitted_total\""));

    let _ = std::fs::remove_file(prom);
    let _ = std::fs::remove_file(json);
}

#[test]
fn metrics_format_without_metrics_is_rejected() {
    let output = Command::new(env!("CARGO_BIN_EXE_spms"))
        .args(["soak", "--events", "30", "--metrics-format", "json"])
        .output()
        .expect("spms binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("--metrics-format requires"));
}

#[test]
fn usage_errors_exit_with_code_2() {
    let output = Command::new(env!("CARGO_BIN_EXE_spms"))
        .args(["acceptance", "--no-such-flag", "1"])
        .output()
        .expect("spms binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("--no-such-flag"));
}

/// Every `spms` subcommand.
const SUBCOMMANDS: [&str; 12] = [
    "acceptance",
    "sensitivity",
    "cache",
    "anatomy",
    "runtime",
    "cores",
    "global",
    "online",
    "rtabench",
    "soak",
    "chaos",
    "overhead",
];

#[test]
fn help_lists_every_subcommand() {
    let help = spms(&["--help"]);
    for subcommand in SUBCOMMANDS {
        let listed = format!("\n    {subcommand} ");
        assert!(help.contains(&listed), "--help misses {subcommand}");
        let page = spms(&[subcommand, "--help"]);
        assert!(page.starts_with(&format!("spms {subcommand} —")));
    }
}

#[test]
fn invalid_values_are_usage_errors() {
    // Each of these used to exit 0 with a table of zeros (every grid cell
    // swallowed the generator's typed error), or wrapped a fault count to
    // zero. A value the drivers would reject must be a usage error that
    // names the flag, with nothing on stdout.
    for (args, flag) in [
        (&["online", "--points", "nan"][..], "--points"),
        (&["online", "--points", "0"], "--points"),
        (&["online", "--points", "-1"], "--points"),
        (&["acceptance", "--tasks-per-set", "0"], "--tasks-per-set"),
        (&["cores", "--core-counts", "0"], "--core-counts"),
        (&["runtime", "--cores", "0"], "--cores"),
        (&["soak", "--utilization", "0"], "--utilization"),
        (&["soak", "--shards", "5", "--cores", "4"], "--shards"),
        (&["chaos", "--shards", "5", "--cores", "4"], "--shards"),
        (&["sensitivity", "--scales", "-1"], "--scales"),
        (
            &["chaos", "--faults", "crash=4294967295,stall=1"],
            "--faults",
        ),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_spms"))
            .args(args)
            .output()
            .expect("spms binary runs");
        assert_eq!(output.status.code(), Some(2), "spms {args:?} should fail");
        assert!(output.stdout.is_empty(), "spms {args:?} printed a table");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(flag), "spms {args:?} stderr: {stderr}");
    }
}

#[test]
fn subcommand_help_is_command_specific() {
    let online = spms(&["online", "--help"]);
    assert!(online.contains("--events"));
    assert!(online.contains("--repair-moves"));
    assert!(online.contains("--replay-ms"));
    assert!(online.contains("--threads"), "common options included");
    assert!(
        !online.contains("--core-counts"),
        "online help leaked another command's flags"
    );

    let cores = spms(&["cores", "--help"]);
    assert!(cores.contains("--core-counts"));
    assert!(!cores.contains("--events"));

    // `--help` after the flags still prints the page instead of running.
    let late = spms(&["acceptance", "--points", "0.5", "--help"]);
    assert!(late.contains("spms acceptance —"));

    // Unknown commands fall back to the global page.
    let unknown = spms(&["no-such-command", "--help"]);
    assert!(unknown.contains("USAGE:\n    spms <COMMAND>"));
}

#[test]
fn subcommand_help_never_advertises_rejected_flags() {
    // `cache` rejects --seed/--sets-per-point and `anatomy` additionally
    // --threads; their help pages must not advertise what the parser
    // refuses.
    let cache = spms(&["cache", "--help"]);
    assert!(!cache.contains("--seed"));
    assert!(!cache.contains("--sets-per-point"));
    assert!(cache.contains("--threads"), "cache still fans out");

    let anatomy = spms(&["anatomy", "--help"]);
    for flag in ["--seed", "--sets-per-point", "--threads"] {
        assert!(!anatomy.contains(flag), "anatomy help advertises {flag}");
    }
    assert!(anatomy.contains("--format"));
}
