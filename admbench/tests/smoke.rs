//! Smoke test of the benchmark itself: every workload at smoke size, each
//! run in its own process, untraced twice and traced once.
//!
//! Asserts that every metric `BENCHMARK.json` names is printed with its
//! unit, that every check passes, that traced and untraced runs decide
//! identically (the shard wrapper forwards every method), and that the
//! registry's stage sums and the wrapper's timing agree.

use std::collections::BTreeMap;
use std::process::Command;

use serde_json::Value;

/// `(name, unit)` of every metric one section of `BENCHMARK.json` lists.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let root: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let field = |v: &Value, key: &str| -> String {
        v.field(key)
            .ok()
            .and_then(Value::as_str)
            .expect("string field")
            .to_string()
    };
    root.field(section)
        .ok()
        .and_then(Value::as_seq)
        .expect("metric list")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// What one benchmark process printed.
struct Run {
    digest: String,
    attempted: u64,
    metrics: BTreeMap<String, (f64, String)>,
}

fn run(workload: &str, trace: u8) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_admbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--size", "smoke"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("decision digest "))
        .expect("digest line")
        .to_string();
    assert!(digest.ends_with("(identical across passes)"), "{digest}");
    let last = stdout.lines().last().expect("result line");
    let result: Value = serde_json::from_str(last).expect("result is JSON");
    assert!(
        matches!(result.field("correct"), Ok(Value::Bool(true))),
        "{last}"
    );
    assert_eq!(result.field("failed").ok().and_then(Value::as_u64), Some(0));
    let attempted = result
        .field("attempted")
        .ok()
        .and_then(Value::as_u64)
        .expect("attempted count");
    let metrics = result
        .field("metrics")
        .ok()
        .and_then(Value::as_map)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m
                .field("value")
                .ok()
                .and_then(Value::as_f64)
                .expect("value");
            let unit = m.field("unit").ok().and_then(Value::as_str).expect("unit");
            (name.clone(), (value, unit.to_string()))
        })
        .collect();
    Run {
        digest,
        attempted,
        metrics,
    }
}

fn assert_prints_exactly(run: &Run, section: &str) {
    let expected = declared(section);
    for (name, unit) in &expected {
        let (value, printed_unit) = run
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} not printed"));
        assert_eq!(printed_unit, unit, "{name}");
        assert!(value.is_finite(), "{name} = {value}");
    }
    assert_eq!(run.metrics.len(), expected.len(), "extra metrics printed");
}

#[test]
fn every_workload_prints_every_metric_and_passes_every_check() {
    for workload in ["fastpath", "saturated", "fleet"] {
        let plain = run(workload, 0);
        let again = run(workload, 0);
        let traced = run(workload, 1);
        assert!(plain.attempted > 0 && traced.attempted > 0);
        assert_prints_exactly(&plain, "end_to_end");
        assert_prints_exactly(&traced, "per_layer");

        // Two processes on one seed, and the wrapped shards, decide alike.
        assert_eq!(plain.digest, again.digest, "{workload}");
        assert_eq!(plain.digest, traced.digest, "{workload}");
        let acceptance = |r: &Run| r.metrics["acceptance_ratio"].0;
        assert_eq!(acceptance(&plain), acceptance(&again), "{workload}");
        for (name, (value, _)) in &plain.metrics {
            assert!(*value > 0.0, "{workload}: {name} must never be 0");
        }

        // The shard stages run inside `decide`: their registry sums fit
        // within the wrapper's time and account for most of it.
        let m = |name: &str| traced.metrics[name].0;
        let stages: f64 = ["fast_whole", "fast_split", "repair", "full_repartition"]
            .iter()
            .map(|s| m(&format!("cascade.{s}.ms")))
            .sum();
        let decide = m("cascade.decide_ms");
        assert!(stages <= decide, "{workload}: {stages} > {decide}");
        assert!(stages > 0.5 * decide, "{workload}: {stages} of {decide}");
        assert!(m("dispatch.self_ms") > 0.0, "{workload}");
        assert_eq!(m("sim.deadline_misses"), 0.0, "{workload}");
        assert!(m("sim.replay_epochs") > 0.0, "{workload}");
    }
}
