//! Property-based determinism contracts of the sharded admission engine.
//!
//! Three invariants, pinned over random churn configurations:
//!
//! * **run determinism** — for any shard count, replaying the same timed
//!   trace through a fresh engine produces a byte-identical processed
//!   event log and a byte-identical decision log (same digests, same
//!   JSON);
//! * **shard-count stream invariance** — with leases off, every shard
//!   count processes the *same* event stream byte for byte: the heap
//!   order and tie-shuffle depend only on the trace and the seed, never
//!   on admission outcomes;
//! * **1-shard legacy equivalence** — a single-shard service is the old
//!   [`AdmissionController`] in every observable way: feeding the
//!   processed event log straight into a legacy controller reproduces the
//!   engine's decision log and counters exactly;
//! * **cross-shard-off grammar pin** — with the cross-shard split
//!   planner disabled (the default), every decision-log line stays in
//!   the pre-cross-shard JSON grammar (reconstructed by hand below) and
//!   the telemetry outcome section carries no cross-shard activity.
//!
//! The vendored proptest runner is deterministically seeded, so these
//! cases reproduce identically on every run.

use proptest::prelude::*;
use spms_online::{
    AdmissionController, ChurnGenerator, Decision, DecisionKind, EventLoop, EventLoopConfig,
    OnlineConfig, ShardedAdmission, TimedEvent,
};
use spms_task::Time;

const CORES: usize = 4;

/// Strategy: a churn configuration plus a shard count on a 4-core platform.
fn engine_config() -> impl Strategy<Value = (f64, u64, usize, usize)> {
    (0.45f64..0.85, any::<u64>(), 24usize..60, 1usize..=CORES)
}

fn trace(target: f64, seed: u64, events: usize) -> Vec<TimedEvent> {
    ChurnGenerator::new()
        .cores(CORES)
        .target_normalized_utilization(target)
        .events(events)
        .seed(seed)
        .generate_timed()
        .expect("valid churn configuration")
}

/// Runs one timed trace through a fresh N-shard engine and returns the
/// engine and its event loop (with the processed log still inside).
fn run_engine(trace: &[TimedEvent], seed: u64, shards: usize) -> (ShardedAdmission, EventLoop) {
    let mut engine = ShardedAdmission::new(OnlineConfig::new(CORES), shards)
        .expect("shard count is between 1 and the core count");
    let mut event_loop = EventLoop::new(
        EventLoopConfig::new(seed)
            .with_rebalance_period(Some(Time::from_millis(250)))
            .with_rebalance_max_moves(4),
    );
    event_loop.load_trace(trace);
    event_loop.run(&mut engine);
    (engine, event_loop)
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("logs serialize")
}

/// Reconstructs one decision line in the grammar that predates the
/// cross-shard planner and lease renewals: the only admission paths are
/// the four single-shard cascade stages, `Admitted` carries `path` and
/// `migrations` (inflation is absent under the default zero cost model),
/// and no `RenewNoted` entries exist. Any flag-off log line escaping this
/// reconstruction is a byte-level regression.
fn pre_cross_shard_line(d: &Decision) -> String {
    let kind = match d.kind {
        DecisionKind::Admitted {
            path, migrations, ..
        } => {
            let path = format!("{path:?}");
            assert_ne!(path, "CrossShardSplit", "flag-off run split across shards");
            format!(r#"{{"Admitted":{{"path":"{path}","migrations":{migrations}}}}}"#)
        }
        DecisionKind::Rejected { reason } => {
            format!(r#"{{"Rejected":{{"reason":"{reason:?}"}}}}"#)
        }
        DecisionKind::Departed => String::from(r#""Departed""#),
        DecisionKind::DepartUnknown => String::from(r#""DepartUnknown""#),
        DecisionKind::RenewNoted => panic!("lease-free run noted a renewal"),
        DecisionKind::EvictedOnFailure => panic!("fault-free run evicted a task"),
    };
    format!(
        r#"{{"event_index":{},"task":{},"kind":{kind}}}"#,
        d.event_index, d.task.0
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// (a) Any shard count replays byte-identically: same processed event
    /// log, same decision log, same counters, run after run.
    #[test]
    fn runs_are_byte_identical_for_any_shard_count(
        (target, seed, events, shards) in engine_config()
    ) {
        let trace = trace(target, seed, events);
        let (engine_a, loop_a) = run_engine(&trace, seed, shards);
        let (engine_b, loop_b) = run_engine(&trace, seed, shards);
        prop_assert_eq!(json(&loop_a.event_log().to_vec()), json(&loop_b.event_log().to_vec()));
        prop_assert_eq!(
            json(&engine_a.decisions().to_vec()),
            json(&engine_b.decisions().to_vec())
        );
        prop_assert_eq!(engine_a.stats(), engine_b.stats());
    }

    /// (b) With leases off, the processed event stream does not depend on
    /// the shard count: admissions and rejections may differ, the stream
    /// may not.
    #[test]
    fn event_stream_is_shard_count_invariant(
        (target, seed, events, _) in engine_config()
    ) {
        let trace = trace(target, seed, events);
        let (_, baseline) = run_engine(&trace, seed, 1);
        let baseline_log = json(&baseline.event_log().to_vec());
        for shards in 2..=CORES {
            let (_, event_loop) = run_engine(&trace, seed, shards);
            prop_assert_eq!(
                &baseline_log,
                &json(&event_loop.event_log().to_vec()),
                "shard count {} changed the processed event stream",
                shards
            );
        }
    }

    /// (c) One shard is the legacy controller: replaying the processed
    /// event log through a plain `AdmissionController` reproduces the
    /// engine's decision log and decision counters byte for byte.
    #[test]
    fn one_shard_equals_the_legacy_controller(
        (target, seed, events, _) in engine_config()
    ) {
        let trace = trace(target, seed, events);
        let (engine, event_loop) = run_engine(&trace, seed, 1);
        let mut legacy = AdmissionController::new(OnlineConfig::new(CORES)).unwrap();
        for timed in event_loop.event_log() {
            legacy.handle(timed.event.clone());
        }
        prop_assert_eq!(
            json(&engine.decisions().to_vec()),
            json(&legacy.decisions().to_vec())
        );
        prop_assert_eq!(engine.stats().decisions, legacy.stats());
        prop_assert_eq!(engine.admitted_count(), legacy.admitted_count());
        prop_assert_eq!(
            engine.stats().overflow_admissions, 0,
            "a single shard has nowhere to overflow"
        );
    }

    /// (d) Cross-shard split disabled (the default): the decision log is
    /// byte-identical to the hand-reconstructed pre-cross-shard grammar,
    /// and the deterministic telemetry's cross-shard mechanism counters
    /// never move — the refactor onto planning transactions must be
    /// invisible until the flag is thrown.
    #[test]
    fn disabled_cross_shard_runs_stay_in_the_legacy_grammar(
        (target, seed, events, shards) in engine_config()
    ) {
        let trace = trace(target, seed, events);
        let (engine, _) = run_engine(&trace, seed, shards);
        prop_assert!(!engine.cross_shard_enabled());
        for d in engine.decisions() {
            prop_assert_eq!(json(d), pre_cross_shard_line(d));
        }
        let rendered = engine
            .merged_metrics_registry()
            .snapshot(spms_telemetry::SnapshotFilter::Deterministic)
            .render_prometheus();
        for line in rendered.lines() {
            if line.contains("cross_shard") && !line.starts_with('#') {
                prop_assert!(
                    line.ends_with(" 0"),
                    "flag-off run moved a cross-shard counter: {}",
                    line
                );
            }
        }
    }
}
