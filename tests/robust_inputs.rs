//! Garbage-input properties for every text format the CLI reads: workload
//! traces (`parse_trace`), fault scripts (`FaultPlan::from_script`), fault
//! knob strings (`FaultSpec::parse`) and Prometheus exports
//! (`Snapshot::from_prometheus`). Whatever the input, each parser must
//! return `Ok` or its typed error — never panic, overflow the stack or
//! take super-linear time.
//!
//! Inputs come from three sources: random bytes, valid documents mutated
//! token by token (truncations, splices, stray brackets and escapes), and
//! hand-built structural extremes (deep nesting, megabyte strings).

use proptest::collection::vec;
use proptest::prelude::*;
use spms::faults::{FaultPlan, FaultSpec};
use spms::online::{parse_trace, ChurnGenerator};
use spms::telemetry::{MetricClass, Registry, Snapshot, SnapshotFilter};

/// Feeds `input` to every parser. A panic fails the calling test; the
/// results themselves are irrelevant.
fn parse_everything(input: &str) {
    let _ = parse_trace(input);
    let _ = FaultPlan::from_script(input);
    let _ = FaultSpec::parse(input);
    let _ = Snapshot::from_prometheus(input);
}

/// Valid documents of every format, the seeds the mutations start from.
fn corpus() -> Vec<String> {
    let timed = ChurnGenerator::new()
        .cores(2)
        .events(12)
        .seed(3)
        .generate_timed()
        .unwrap();
    let trace: String = timed
        .iter()
        .map(|t| serde_json::to_string(t).unwrap() + "\n")
        .collect();
    let bare: String = timed
        .iter()
        .map(|t| serde_json::to_string(&t.event).unwrap() + "\n")
        .collect();
    let script = FaultSpec {
        crashes: 2,
        stalls: 2,
        corruptions: 2,
        cost_spikes: 2,
        seed: 5,
    }
    .plan(1_000, 2, 2)
    .to_script();
    let mut registry = Registry::new();
    let events = registry.counter("spms_events_total", MetricClass::Outcome);
    registry.add(events, 42);
    let gauge = registry.gauge("spms_mech_rebalance_last_moves", MetricClass::Mechanism);
    registry.set_gauge(gauge, 3);
    let latency = registry.histogram("spms_timing_decision_latency_ns", MetricClass::Timing);
    for sample in [1, 10, 100, 1_000, 10_000] {
        registry.record(latency, sample);
    }
    let prometheus = registry.snapshot(SnapshotFilter::Full).render_prometheus();
    let corpus = vec![
        trace,
        bare,
        script,
        String::from("crash=1,stall=2,corrupt=1,spike=1,seed=7"),
        prometheus,
    ];
    for document in &corpus {
        assert!(!document.is_empty());
    }
    corpus
}

/// Fragments that steer mutations into the parsers' interesting states.
const TOKENS: &[&str] = &[
    "[",
    "]",
    "{",
    "}",
    "\"",
    "\\",
    "\\u",
    "\\ud800",
    "\\u00e9",
    ":",
    ",",
    "-",
    ".",
    "e",
    "E+",
    "0",
    "-1",
    "18446744073709551615",
    "18446744073709551616",
    "1e999",
    "NaN",
    "null",
    "true",
    "\"Arrive\"",
    "\"Depart\"",
    "\"Renew\"",
    "\"at\"",
    "\"event\"",
    "\"wcet\"",
    "\"period\"",
    "\"deadline\"",
    "# TYPE ",
    " counter",
    " summary",
    "{quantile=\"0.5\"}",
    "_sum",
    "_count",
    "=",
    "crash=",
    "seed=",
    "#",
    "\n",
    " ",
    "é",
    "🦀",
];

/// One edit: `(kind, position, token or length)`, interpreted modulo the
/// document and token table so every draw is valid.
type Edit = (u8, usize, usize);

fn mutate(document: &str, edits: &[Edit]) -> String {
    let mut chars: Vec<char> = document.chars().collect();
    for &(kind, position, extra) in edits {
        let at = position % (chars.len() + 1);
        match kind % 5 {
            0 => {
                let token = TOKENS[extra % TOKENS.len()];
                chars.splice(at..at, token.chars());
            }
            1 => {
                let end = (at + extra % 16).min(chars.len());
                chars.drain(at..end);
            }
            2 => chars.truncate(at),
            3 => {
                let end = (at + extra % 64).min(chars.len());
                let copy: Vec<char> = chars[at..end].to_vec();
                let into = extra % (chars.len() + 1);
                chars.splice(into..into, copy);
            }
            _ => {
                if at < chars.len() {
                    chars[at] = char::from_u32(extra as u32 % 0x80).unwrap_or('?');
                }
            }
        }
    }
    chars.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn random_bytes_never_panic(bytes in vec(any::<u8>(), 0..400)) {
        parse_everything(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_documents_never_panic(
        pick in any::<usize>(),
        edits in vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..12),
    ) {
        let corpus = corpus();
        let document = &corpus[pick % corpus.len()];
        parse_everything(&mutate(document, &edits));
        // Mutate a single line too, so the edit lands inside the first
        // line the parsers look at rather than after an early error.
        let line = document.lines().nth(pick % document.lines().count()).unwrap();
        parse_everything(&mutate(line, &edits));
    }

    #[test]
    fn token_soup_never_panics(tokens in vec(any::<usize>(), 0..80)) {
        let soup: String = tokens.iter().map(|t| TOKENS[t % TOKENS.len()]).collect();
        parse_everything(&soup);
    }
}

#[test]
fn deep_nesting_is_a_typed_error() {
    for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
        let line = format!("{}{}", open.repeat(50_000), close.repeat(50_000));
        assert!(parse_trace(&line).is_err());
        assert!(FaultPlan::from_script(&line).is_err());
        // Unclosed, and nested inside an otherwise valid event.
        let unclosed = format!("{{\"event\":{}", open.repeat(50_000));
        assert!(parse_trace(&unclosed).is_err());
        assert!(FaultPlan::from_script(&unclosed).is_err());
    }
}

#[test]
fn long_strings_parse_in_linear_time() {
    // 1.6 MB of string payload on one line. The trace parser reads each
    // line twice (as a timed and as a bare event), so a quadratic scan of
    // the string would take minutes here.
    let payload = "a".repeat(1_600_000);
    let line = format!("{{\"x\":\"{payload}\"}}");
    let started = std::time::Instant::now();
    assert!(parse_trace(&line).is_err());
    assert!(FaultPlan::from_script(&line).is_err());
    assert!(Snapshot::from_prometheus(&line).is_err());
    let wide = format!("{{\"x\":\"{}\"}}", "é".repeat(800_000));
    assert!(parse_trace(&wide).is_err());
    assert!(
        started.elapsed() < std::time::Duration::from_secs(10),
        "parsing long strings took {:?}",
        started.elapsed()
    );
}

#[test]
fn truncated_escapes_are_typed_errors() {
    for tail in [
        "\\",
        "\\u",
        "\\u00",
        "\\u00e",
        "\\ud800\"",
        "\\x\"",
        "\\é\"",
    ] {
        let line = format!("{{\"event\":\"{tail}");
        assert!(parse_trace(&line).is_err(), "{line}");
        assert!(FaultPlan::from_script(&line).is_err(), "{line}");
    }
}
