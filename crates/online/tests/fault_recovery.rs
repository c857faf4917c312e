//! Property-based contracts of shard failover and recovery.
//!
//! Pinned over random churn configurations, crash times, victims and
//! downtimes:
//!
//! * **conservation** — every task drained off a crashed shard is either
//!   re-admitted onto a survivor or surfaced as a typed
//!   [`DecisionKind::EvictedOnFailure`] entry; nothing silently vanishes;
//! * **stitched schedulability + cache coherence** — after crash,
//!   recovery and rejoin, the union of every shard's placement replays
//!   through the discrete-event simulator without a deadline miss, and a
//!   full self-audit sweep finds every memoized response time consistent
//!   with a scratch recomputation;
//! * **replay determinism** — the same trace, seed and fault plan
//!   reproduce the decision log, fault counters and shard health byte
//!   for byte;
//! * **counted once** — the service's counters (views of its telemetry
//!   registry) equal a recount of its decision log, so crash recovery
//!   and rebalance moves never pass for workload admissions.
//!
//! The vendored proptest runner is deterministically seeded, so these
//! cases reproduce identically on every run.

use proptest::prelude::*;
use spms_core::{stitch_partitions, CacheAuditVerdict, Partition};
use spms_faults::{FaultEvent, FaultKind, FaultPlan};
use spms_online::{
    replay::{replay_epoch, ReplayConfig},
    ChurnFamily, ChurnGenerator, ControllerStats, Decision, DecisionKind, DecisionPath, EventLoop,
    EventLoopConfig, OnlineConfig, ShardHealth, ShardedAdmission, TimedEvent,
};
use spms_overhead::{CostModelSpec, CrpdCostModel};
use spms_task::Time;

const CORES: usize = 8;

/// (target utilization, workload seed, event count) — the churn half of
/// a crash scenario.
type ChurnKnobs = (f64, u64, usize);
/// (shard count, victim index, crash point %, downtime %) — the victim
/// index is reduced modulo the shard count; the percentages are of the
/// measured trace horizon.
type CrashKnobs = (usize, usize, u64, u64);

/// Strategy: a churn configuration plus a crash scenario.
fn crash_config() -> impl Strategy<Value = (ChurnKnobs, CrashKnobs)> {
    (
        (0.45f64..0.85, any::<u64>(), 30usize..70),
        (2usize..=4, 0usize..4, 10u64..90, 5u64..40),
    )
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

/// One ShardCrash at `at_pct`% of the trace horizon, down for
/// `down_pct`% of it.
fn crash_plan(trace: &[TimedEvent], shard: usize, at_pct: u64, down_pct: u64) -> FaultPlan {
    let horizon_ms = trace
        .last()
        .map(|timed| timed.at.as_nanos() / 1_000_000)
        .unwrap_or(0)
        .max(100);
    let mut plan = FaultPlan::new();
    plan.push(FaultEvent {
        at_ms: horizon_ms * at_pct / 100,
        kind: FaultKind::ShardCrash {
            shard,
            down_ms: (horizon_ms * down_pct / 100).max(1),
        },
    });
    plan
}

/// Runs one timed trace plus fault plan through a fresh N-shard engine.
fn run_crashed(
    trace: &[TimedEvent],
    seed: u64,
    shards: usize,
    plan: &FaultPlan,
    config: OnlineConfig,
) -> (ShardedAdmission, EventLoop) {
    let mut engine =
        ShardedAdmission::new(config, shards).expect("shard count is between 1 and the core count");
    let mut event_loop = EventLoop::new(
        EventLoopConfig::new(seed)
            .with_rebalance_period(Some(Time::from_millis(250)))
            .with_rebalance_max_moves(4)
            .with_audit_period(Some(Time::from_millis(100))),
    );
    event_loop.load_trace(trace);
    event_loop.load_faults(plan);
    event_loop.run(&mut engine);
    (engine, event_loop)
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("logs serialize")
}

/// The outcome counters recounted from a decision log alone — an oracle
/// that never reads the telemetry registry.
fn recount(decisions: &[Decision]) -> ControllerStats {
    let mut stats = ControllerStats::default();
    for decision in decisions {
        match decision.kind {
            DecisionKind::Admitted {
                path,
                migrations,
                inflation,
            } => {
                stats.arrivals += 1;
                stats.admitted += 1;
                stats.migrations_caused += migrations as u64;
                stats.inflation_charged_ns += inflation.as_nanos();
                match path {
                    DecisionPath::FastWhole => stats.fast_whole += 1,
                    DecisionPath::FastSplit => stats.fast_split += 1,
                    DecisionPath::Repair => stats.repairs += 1,
                    DecisionPath::FullRepartition => stats.full_repartitions += 1,
                    DecisionPath::CrossShardSplit => {}
                }
            }
            DecisionKind::Rejected { .. } => {
                stats.arrivals += 1;
                stats.rejected += 1;
            }
            DecisionKind::Departed => stats.departures += 1,
            DecisionKind::DepartUnknown => stats.unknown_departures += 1,
            DecisionKind::RenewNoted | DecisionKind::EvictedOnFailure => {}
        }
    }
    stats
}

/// A cross-shard-split configuration on the test fleet.
fn cross_shard_config() -> OnlineConfig {
    OnlineConfig::builder()
        .cores(CORES)
        .cross_shard_split(true)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// (a) Conservation: drained = recovered + evicted, every eviction is
    /// a typed decision-log entry, and no shard is left in a transient
    /// state a stall would explain (none was injected).
    #[test]
    fn a_mid_soak_crash_recovers_every_drained_task_or_evicts_it(
        ((target, seed, events), (shards, victim, at_pct, down_pct)) in crash_config()
    ) {
        let trace = trace(target, seed, events);
        let plan = crash_plan(&trace, victim % shards, at_pct, down_pct);
        let (engine, _) = run_crashed(&trace, seed, shards, &plan, OnlineConfig::new(CORES));
        let fault = engine.fault_stats();
        prop_assert_eq!(fault.injections, 1);
        prop_assert_eq!(fault.crashes, 1);
        prop_assert_eq!(
            fault.drained,
            fault.recoveries + fault.evictions,
            "a drained task neither recovered nor surfaced as an eviction"
        );
        prop_assert!(fault.rejoins <= 1);
        let evicted = engine
            .decisions()
            .iter()
            .filter(|d| matches!(d.kind, DecisionKind::EvictedOnFailure))
            .count() as u64;
        prop_assert_eq!(evicted, fault.evictions);
        for health in engine.shard_health() {
            prop_assert_ne!(*health, ShardHealth::Stalled, "no stall was injected");
        }
    }

    /// (b) Recovery never plants an unschedulable task and never leaves a
    /// stale memo: the stitched global placement replays miss-free, and a
    /// full audit sweep across every live core comes back clean.
    #[test]
    fn recovery_leaves_a_schedulable_partition_and_coherent_caches(
        ((target, seed, events), (shards, victim, at_pct, down_pct)) in crash_config()
    ) {
        let trace = trace(target, seed, events);
        let plan = crash_plan(&trace, victim % shards, at_pct, down_pct);
        let (mut engine, _) = run_crashed(&trace, seed, shards, &plan, OnlineConfig::new(CORES));
        let violations_in_run = engine.fault_stats().audit_violations;
        prop_assert_eq!(violations_in_run, 0, "an in-run audit caught a stale memo");
        for _ in 0..CORES {
            if let Some(verdict) = engine.audit_tick() {
                prop_assert_eq!(verdict, CacheAuditVerdict::Clean);
            }
        }
        let parts: Vec<&Partition> = engine.shards().iter().map(|s| s.partition()).collect();
        let stitched = stitch_partitions(&parts);
        let outcome = replay_epoch(&stitched, &ReplayConfig::new(Time::from_millis(50)));
        prop_assert_eq!(
            outcome.deadline_misses, 0,
            "recovery re-admission planted an unschedulable task"
        );
    }

    /// (c) Same trace + seed + plan ⇒ byte-identical run: decision log,
    /// processed event log, fault counters and final shard health.
    #[test]
    fn crashed_runs_replay_byte_identically(
        ((target, seed, events), (shards, victim, at_pct, down_pct)) in crash_config()
    ) {
        let trace = trace(target, seed, events);
        let plan = crash_plan(&trace, victim % shards, at_pct, down_pct);
        let (engine_a, loop_a) = run_crashed(&trace, seed, shards, &plan, OnlineConfig::new(CORES));
        let (engine_b, loop_b) = run_crashed(&trace, seed, shards, &plan, OnlineConfig::new(CORES));
        prop_assert_eq!(json(&loop_a.event_log().to_vec()), json(&loop_b.event_log().to_vec()));
        prop_assert_eq!(
            json(&engine_a.decisions().to_vec()),
            json(&engine_b.decisions().to_vec())
        );
        prop_assert_eq!(engine_a.fault_stats(), engine_b.fault_stats());
        prop_assert_eq!(engine_a.shard_health(), engine_b.shard_health());
        prop_assert_eq!(engine_a.stats(), engine_b.stats());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// (d) Counted once: under heavy load with cross-shard splits on —
    /// where crash recovery falls through to the cross-shard planner —
    /// every outcome counter equals a recount of the decision log, and
    /// the counters agree with each other.
    #[test]
    fn every_event_is_counted_once(
        target in 0.8f64..0.98,
        seed in any::<u64>(),
        events in 60usize..160,
        (shards, victim, at_pct, down_pct) in (2usize..=4, 0usize..4, 10u64..90, 5u64..40),
    ) {
        let trace = trace(target, seed, events);
        let plan = crash_plan(&trace, victim % shards, at_pct, down_pct);
        let (engine, _) = run_crashed(&trace, seed, shards, &plan, cross_shard_config());
        let stats = engine.stats().decisions;
        prop_assert_eq!(stats, recount(engine.decisions()));
        prop_assert_eq!(stats.arrivals, stats.admitted + stats.rejected);
        let registry = engine.merged_metrics_registry();
        let by_path: u64 = [
            "fast_whole",
            "fast_split",
            "repair",
            "full_repartition",
            "cross_shard_split",
        ]
        .iter()
        .map(|stage| {
            registry
                .counter_by_name(&format!("spms_admitted_{stage}_total"))
                .unwrap_or(0)
        })
        .sum();
        prop_assert_eq!(by_path, stats.admitted);
        prop_assert_eq!(
            registry.counter_by_name("spms_events_total"),
            Some(engine.decisions().len() as u64)
        );
        let fault = engine.fault_stats();
        prop_assert_eq!(fault.drained, fault.recoveries + fault.evictions);
    }
}

/// Rebalance moves charge migration inflation, but they are not
/// admissions: on a charged, rebalancing 4-shard fleet the admission
/// counter equals the decision-log sum and the moves' charge has its own
/// counter. The pinned figures are the admissions' charge and the charge
/// of admissions and moves together on this trace.
#[test]
fn rebalance_inflation_is_counted_apart_from_admissions() {
    let trace = ChurnGenerator::new()
        .cores(CORES)
        .target_normalized_utilization(0.9)
        .events(4_000)
        .family(ChurnFamily::Bursty)
        .seed(101)
        .generate_timed()
        .expect("valid churn configuration");
    let config = OnlineConfig::builder()
        .cores(CORES)
        .cost_model(CostModelSpec::Crpd(CrpdCostModel::heavy()))
        .cross_shard_split(true)
        .build();
    let (engine, _) = run_crashed(&trace, 101, 4, &FaultPlan::new(), config);
    let stats = engine.stats();
    assert_eq!(stats.decisions, recount(engine.decisions()));
    assert_eq!(stats.decisions.inflation_charged_ns, 96_731_272);
    assert!(stats.rebalance_moves > 0, "the fleet must rebalance");
    assert_eq!(
        stats.rebalance_inflation_ns + stats.decisions.inflation_charged_ns,
        189_065_668
    );
}
