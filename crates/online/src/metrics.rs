//! The admission engines' telemetry surface.
//!
//! [`EngineMetrics`] bundles what one decision engine (a solo
//! [`AdmissionController`](crate::AdmissionController) or a
//! [`ShardedAdmission`](crate::ShardedAdmission) service) owns: a
//! [`Registry`] of named metrics and a bounded [`TraceRing`] of
//! per-decision [`StageTrace`](spms_telemetry::StageTrace)s. It is a plain
//! owned value — cloned with its engine, merged by experiment drivers in
//! grid order — which is what keeps the deterministic metric section
//! byte-identical across `--threads`.
//!
//! The registry is the engines' only counter store: [`ControllerStats`],
//! [`ServiceStats`] and [`FaultStats`] are typed read-only views computed
//! from a registry (`from_registry`), so every event is counted in
//! exactly one place.
//!
//! The metric name space (see the README's Observability section):
//!
//! * `spms_*` outcome metrics are recorded **only from final decisions**
//!   (the engine that owns the decision stream calls
//!   [`record_outcome`](EngineMetrics::record_outcome)). A sharded
//!   service drops its shards' outcome counters when merging
//!   ([`Registry::merge_where`]) because shard-level `decide` calls
//!   include overflow retries.
//! * The service is the one timer of a decision: it records one
//!   [`DECISION_LATENCY`] sample per final decision
//!   ([`record_decision_latency`](EngineMetrics::record_decision_latency)),
//!   spanning the shard calls; a controller never times its own decisions,
//!   so shard registries hold no such sample.
//! * `spms_mech_*` mechanism metrics describe how the cascade got there:
//!   per-stage attempt/success counters, probe and cache hit/miss counts
//!   folded in from the [`scoped`](spms_telemetry::scoped) hot counters,
//!   routing overflow, rebalance activity, fault injection and self-audit.
//! * `spms_timing_*` metrics hold every wall-clock figure: per-decision
//!   and per-stage latency histograms and a decisions/sec gauge.
//!
//! Once the trace ring is full, a decision's spans reuse the buffer of the
//! trace it evicts, so recording them allocates nothing.

use serde::{Deserialize, Serialize};
use spms_task::Time;
use spms_telemetry::{
    CounterId, GaugeId, Histogram, HistogramId, HotDeltas, MetricClass, Registry, SnapshotFilter,
    SpanOutcome, StageSpan, TraceRing, HOT_COUNTERS,
};

use crate::{DecisionKind, DecisionPath, RejectionReason};

/// How many per-decision stage traces an engine retains by default.
pub const DEFAULT_TRACE_RING_CAPACITY: usize = 256;

// Counter names the stats views read. Registration uses the same
// constants, so a view can never drift from the series it reports.
/// Name of the counter of final decisions: every handled workload event
/// plus every failover eviction, so it equals the decision log's length.
pub const EVENTS: &str = "spms_events_total";
/// Name of the per-decision latency histogram (one sample per final
/// decision).
pub const DECISION_LATENCY: &str = "spms_timing_decision_latency_ns";
const ARRIVALS: &str = "spms_arrivals_total";
const DEPARTURES: &str = "spms_departures_total";
const UNKNOWN_DEPARTURES: &str = "spms_unknown_departures_total";
const ADMITTED: &str = "spms_admitted_total";
/// Admissions per decision path, [`STAGES`] order.
const ADMITTED_BY_PATH: [&str; 5] = [
    "spms_admitted_fast_whole_total",
    "spms_admitted_fast_split_total",
    "spms_admitted_repair_total",
    "spms_admitted_full_repartition_total",
    "spms_admitted_cross_shard_split_total",
];
const REJECTED: &str = "spms_rejected_total";
const MIGRATIONS: &str = "spms_migrations_total";
const INFLATION_NS: &str = "spms_inflation_charged_ns_total";
const LEASE_EXPIRATIONS: &str = "spms_lease_expirations_total";
const OVERFLOW_ADMISSIONS: &str = "spms_mech_overflow_admissions_total";
const CROSS_SHARD_ADMISSIONS: &str = "spms_mech_cross_shard_admissions_total";
const REBALANCE_TICKS: &str = "spms_mech_rebalance_ticks_total";
const REBALANCE_MOVES: &str = "spms_mech_rebalance_moves_total";
const REBALANCE_INFLATION_NS: &str = "spms_mech_rebalance_inflation_ns_total";
const FAULT_INJECTIONS: &str = "spms_mech_fault_injections_total";
const FAULT_CRASHES: &str = "spms_mech_fault_crashes_total";
const FAULT_STALLS: &str = "spms_mech_fault_stalls_total";
const FAULT_CORRUPTIONS: &str = "spms_mech_fault_corruptions_total";
const FAULT_COST_SPIKES: &str = "spms_mech_fault_cost_spikes_total";
const FAULT_DRAINED: &str = "spms_mech_fault_drained_total";
const FAULT_RECOVERIES: &str = "spms_mech_fault_recoveries_total";
const FAULT_EVICTIONS: &str = "spms_mech_fault_evictions_total";
const FAULT_REJOINS: &str = "spms_mech_fault_rejoins_total";
const AUDIT_CHECKS: &str = "spms_mech_audit_checks_total";
const AUDIT_VIOLATIONS: &str = "spms_mech_audit_violations_total";
const AUDIT_REPAIRS: &str = "spms_mech_audit_repairs_total";

/// The cascade stages, in attempt order (identical to [`DecisionPath`],
/// which doubles as the stage identifier). The cross-shard split stage
/// runs in the sharded service, after every shard's own cascade failed.
const STAGES: [DecisionPath; 5] = [
    DecisionPath::FastWhole,
    DecisionPath::FastSplit,
    DecisionPath::Repair,
    DecisionPath::FullRepartition,
    DecisionPath::CrossShardSplit,
];

fn stage_index(path: DecisionPath) -> usize {
    match path {
        DecisionPath::FastWhole => 0,
        DecisionPath::FastSplit => 1,
        DecisionPath::Repair => 2,
        DecisionPath::FullRepartition => 3,
        DecisionPath::CrossShardSplit => 4,
    }
}

/// Snake-case stage name used in metric names and trace spans.
pub fn stage_name(path: DecisionPath) -> &'static str {
    match path {
        DecisionPath::FastWhole => "fast_whole",
        DecisionPath::FastSplit => "fast_split",
        DecisionPath::Repair => "repair",
        DecisionPath::FullRepartition => "full_repartition",
        DecisionPath::CrossShardSplit => "cross_shard_split",
    }
}

/// The trace-ring label of a final decision.
pub fn decision_label(kind: &DecisionKind) -> &'static str {
    match kind {
        DecisionKind::Admitted { path, .. } => match path {
            DecisionPath::FastWhole => "admitted_fast_whole",
            DecisionPath::FastSplit => "admitted_fast_split",
            DecisionPath::Repair => "admitted_repair",
            DecisionPath::FullRepartition => "admitted_full_repartition",
            DecisionPath::CrossShardSplit => "admitted_cross_shard_split",
        },
        DecisionKind::Rejected { reason } => match reason {
            RejectionReason::DuplicateTask => "rejected_duplicate",
            RejectionReason::PlatformOverloaded => "rejected_overload",
            RejectionReason::OverheadUnabsorbable => "rejected_overhead",
            RejectionReason::NoFeasiblePlacement => "rejected_no_placement",
        },
        DecisionKind::Departed => "departed",
        DecisionKind::DepartUnknown => "depart_unknown",
        DecisionKind::RenewNoted => "renew_noted",
        DecisionKind::EvictedOnFailure => "evicted_on_failure",
    }
}

#[derive(Debug, Clone)]
struct Ids {
    // Outcome.
    events: CounterId,
    arrivals: CounterId,
    departures: CounterId,
    unknown_departures: CounterId,
    admitted: CounterId,
    admitted_by_path: [CounterId; 5],
    rejected: CounterId,
    rejected_duplicate: CounterId,
    rejected_overload: CounterId,
    rejected_overhead: CounterId,
    rejected_no_placement: CounterId,
    migrations: CounterId,
    inflation_ns: CounterId,
    lease_expirations: CounterId,
    // Mechanism.
    stage_attempts: [CounterId; 5],
    stage_successes: [CounterId; 5],
    hot: [CounterId; spms_telemetry::HOT_COUNTER_COUNT],
    overflow_admissions: CounterId,
    cross_shard_attempts: CounterId,
    cross_shard_admissions: CounterId,
    cross_shard_aborts: CounterId,
    cross_shard_pieces: CounterId,
    rebalance_ticks: CounterId,
    rebalance_moves: CounterId,
    rebalance_inflation_ns: CounterId,
    rebalance_last_moves: GaugeId,
    fault_injections: CounterId,
    fault_crashes: CounterId,
    fault_stalls: CounterId,
    fault_corruptions: CounterId,
    fault_cost_spikes: CounterId,
    fault_drained: CounterId,
    fault_recoveries: CounterId,
    fault_evictions: CounterId,
    fault_rejoins: CounterId,
    audit_checks: CounterId,
    audit_violations: CounterId,
    audit_repairs: CounterId,
    // Timing.
    decision_latency: HistogramId,
    stage_latency: [HistogramId; 5],
}

/// One engine's metrics: registry and stage-trace ring. See the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    registry: Registry,
    ids: Ids,
    ring: TraceRing,
    /// Span scratch for the decision currently being made.
    open_spans: Vec<StageSpan>,
}

impl EngineMetrics {
    /// A fresh metrics bundle whose trace ring keeps `ring_capacity`
    /// decisions (0 disables trace retention).
    pub fn new(ring_capacity: usize) -> Self {
        let mut registry = Registry::new();
        let outcome = |r: &mut Registry, name: &str| r.counter(name, MetricClass::Outcome);
        let mech = |r: &mut Registry, name: &str| r.counter(name, MetricClass::Mechanism);
        let ids = Ids {
            events: outcome(&mut registry, EVENTS),
            arrivals: outcome(&mut registry, ARRIVALS),
            departures: outcome(&mut registry, DEPARTURES),
            unknown_departures: outcome(&mut registry, UNKNOWN_DEPARTURES),
            admitted: outcome(&mut registry, ADMITTED),
            admitted_by_path: ADMITTED_BY_PATH.map(|name| outcome(&mut registry, name)),
            rejected: outcome(&mut registry, REJECTED),
            rejected_duplicate: outcome(&mut registry, "spms_rejected_duplicate_total"),
            rejected_overload: outcome(&mut registry, "spms_rejected_overload_total"),
            rejected_overhead: outcome(&mut registry, "spms_rejected_overhead_total"),
            rejected_no_placement: outcome(&mut registry, "spms_rejected_no_placement_total"),
            migrations: outcome(&mut registry, MIGRATIONS),
            inflation_ns: outcome(&mut registry, INFLATION_NS),
            lease_expirations: outcome(&mut registry, LEASE_EXPIRATIONS),
            stage_attempts: STAGES.map(|stage| {
                registry.counter(
                    &format!("spms_mech_stage_{}_attempts_total", stage_name(stage)),
                    MetricClass::Mechanism,
                )
            }),
            stage_successes: STAGES.map(|stage| {
                registry.counter(
                    &format!("spms_mech_stage_{}_successes_total", stage_name(stage)),
                    MetricClass::Mechanism,
                )
            }),
            hot: HOT_COUNTERS
                .map(|counter| registry.counter(counter.metric_name(), MetricClass::Mechanism)),
            overflow_admissions: mech(&mut registry, OVERFLOW_ADMISSIONS),
            cross_shard_attempts: mech(&mut registry, "spms_mech_cross_shard_attempts_total"),
            cross_shard_admissions: mech(&mut registry, CROSS_SHARD_ADMISSIONS),
            cross_shard_aborts: mech(&mut registry, "spms_mech_cross_shard_aborts_total"),
            cross_shard_pieces: mech(&mut registry, "spms_mech_cross_shard_pieces_total"),
            rebalance_ticks: mech(&mut registry, REBALANCE_TICKS),
            rebalance_moves: mech(&mut registry, REBALANCE_MOVES),
            rebalance_inflation_ns: mech(&mut registry, REBALANCE_INFLATION_NS),
            rebalance_last_moves: registry
                .gauge("spms_mech_rebalance_last_moves", MetricClass::Mechanism),
            fault_injections: mech(&mut registry, FAULT_INJECTIONS),
            fault_crashes: mech(&mut registry, FAULT_CRASHES),
            fault_stalls: mech(&mut registry, FAULT_STALLS),
            fault_corruptions: mech(&mut registry, FAULT_CORRUPTIONS),
            fault_cost_spikes: mech(&mut registry, FAULT_COST_SPIKES),
            fault_drained: mech(&mut registry, FAULT_DRAINED),
            fault_recoveries: mech(&mut registry, FAULT_RECOVERIES),
            fault_evictions: mech(&mut registry, FAULT_EVICTIONS),
            fault_rejoins: mech(&mut registry, FAULT_REJOINS),
            audit_checks: mech(&mut registry, AUDIT_CHECKS),
            audit_violations: mech(&mut registry, AUDIT_VIOLATIONS),
            audit_repairs: mech(&mut registry, AUDIT_REPAIRS),
            decision_latency: registry.histogram(DECISION_LATENCY, MetricClass::Timing),
            stage_latency: STAGES.map(|stage| {
                registry.histogram(
                    &format!("spms_timing_stage_{}_ns", stage_name(stage)),
                    MetricClass::Timing,
                )
            }),
        };
        EngineMetrics {
            registry,
            ids,
            ring: TraceRing::new(ring_capacity),
            open_spans: Vec::new(),
        }
    }

    /// The engine's registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The per-decision stage-trace ring.
    pub fn traces(&self) -> &TraceRing {
        &self.ring
    }

    /// The decision latency histogram (timing section).
    pub fn decision_latency(&self) -> &Histogram {
        self.registry.histogram_ref(self.ids.decision_latency)
    }

    /// Renders a filtered snapshot of the registry.
    pub fn snapshot(&self, filter: SnapshotFilter) -> spms_telemetry::Snapshot {
        self.registry.snapshot(filter)
    }

    // ------------------------------------------------------------------
    // cascade-stage recording (controller)
    // ------------------------------------------------------------------

    /// Records one cascade-stage attempt: attempt/success counters, the
    /// stage latency histogram, and a span in the open decision's trace.
    pub fn record_stage(&mut self, stage: DecisionPath, success: bool, nanos: u64) {
        let i = stage_index(stage);
        self.registry.inc(self.ids.stage_attempts[i]);
        if success {
            self.registry.inc(self.ids.stage_successes[i]);
        }
        self.registry.record(self.ids.stage_latency[i], nanos);
        self.open_spans.push(StageSpan {
            stage: stage_name(stage),
            outcome: if success {
                SpanOutcome::Success
            } else {
                SpanOutcome::Failure
            },
            nanos,
        });
    }

    /// Finishes the open decision: folds the thread-local hot-counter
    /// `deltas` into the mechanism section, records the outcome counters,
    /// and moves the collected stage spans into the trace ring under the
    /// decision's label (the ring hands back the buffer of the trace it
    /// evicts, so a full ring allocates nothing). The decision's latency
    /// is its timer's to record
    /// ([`record_decision_latency`](Self::record_decision_latency)).
    pub fn finish_decision(&mut self, task: u64, kind: &DecisionKind, deltas: &HotDeltas) {
        self.fold_hot(deltas);
        self.record_outcome(kind);
        self.ring
            .record(task, decision_label(kind), &mut self.open_spans);
    }

    /// Records one final decision's wall-clock latency (timing section).
    pub fn record_decision_latency(&mut self, nanos: u64) {
        self.registry.record(self.ids.decision_latency, nanos);
    }

    /// Records the outcome counters of one final decision (no trace, no
    /// latency) — the service-side entry point for decisions whose
    /// cascade ran inside a shard.
    pub fn record_outcome(&mut self, kind: &DecisionKind) {
        self.registry.inc(self.ids.events);
        match kind {
            DecisionKind::Admitted {
                path,
                migrations,
                inflation,
            } => {
                self.registry.inc(self.ids.arrivals);
                self.registry.inc(self.ids.admitted);
                self.registry
                    .inc(self.ids.admitted_by_path[stage_index(*path)]);
                self.registry.add(self.ids.migrations, *migrations as u64);
                self.registry
                    .add(self.ids.inflation_ns, inflation.as_nanos());
            }
            DecisionKind::Rejected { reason } => {
                self.registry.inc(self.ids.arrivals);
                self.registry.inc(self.ids.rejected);
                let id = match reason {
                    RejectionReason::DuplicateTask => self.ids.rejected_duplicate,
                    RejectionReason::PlatformOverloaded => self.ids.rejected_overload,
                    RejectionReason::OverheadUnabsorbable => self.ids.rejected_overhead,
                    RejectionReason::NoFeasiblePlacement => self.ids.rejected_no_placement,
                };
                self.registry.inc(id);
            }
            DecisionKind::Departed => {
                self.registry.inc(self.ids.departures);
            }
            DecisionKind::DepartUnknown => {
                self.registry.inc(self.ids.unknown_departures);
            }
            // Lease renewals are event-loop bookkeeping; no dedicated
            // outcome counter so the outcome section's name set stays
            // exactly what it was before leases existed.
            DecisionKind::RenewNoted => {}
            // Failover evictions follow the RenewNoted precedent: the
            // outcome name set stays byte-identical to fault-free runs,
            // and the eviction count lives on the mechanism side
            // (`spms_mech_fault_evictions_total`).
            DecisionKind::EvictedOnFailure => {}
        }
    }

    // ------------------------------------------------------------------
    // service-side recording
    // ------------------------------------------------------------------

    /// Counts an admission that landed off its home shard.
    pub fn record_overflow_admission(&mut self) {
        self.registry.inc(self.ids.overflow_admissions);
    }

    /// Counts one cross-shard planning attempt (the service's planner ran,
    /// whatever the outcome).
    pub fn record_cross_shard_attempt(&mut self) {
        self.registry.inc(self.ids.cross_shard_attempts);
    }

    /// Counts one committed cross-shard split and the `pieces` it placed
    /// across shards.
    pub fn record_cross_shard_admission(&mut self, pieces: u64) {
        self.registry.inc(self.ids.cross_shard_admissions);
        self.registry.add(self.ids.cross_shard_pieces, pieces);
    }

    /// Counts one aborted cross-shard plan (some participant refused its
    /// piece; every shard was rewound).
    pub fn record_cross_shard_abort(&mut self) {
        self.registry.inc(self.ids.cross_shard_aborts);
    }

    /// Records one rebalance tick (no-op ticks included): bumps the tick
    /// counter, adds `moves` to the move counter and the migration charge
    /// the moves cost to the rebalance inflation counter, and sets the
    /// last-moves gauge.
    pub fn record_rebalance_tick(&mut self, moves: u64, inflation: Time) {
        self.registry.inc(self.ids.rebalance_ticks);
        self.registry.add(self.ids.rebalance_moves, moves);
        self.registry
            .add(self.ids.rebalance_inflation_ns, inflation.as_nanos());
        self.registry
            .set_gauge(self.ids.rebalance_last_moves, moves);
    }

    /// Folds a thread-local hot-counter delta into the mechanism section
    /// — for work done outside a decision (e.g. the rebalancer's
    /// cross-shard planning probes). `HotDeltas::iter` yields in the same
    /// index order the `hot` ids were registered in.
    pub fn fold_hot(&mut self, deltas: &HotDeltas) {
        for (i, (_, delta)) in deltas.iter().enumerate() {
            if delta > 0 {
                self.registry.add(self.ids.hot[i], delta);
            }
        }
    }

    /// Counts a lease-expiry departure synthesized by the event loop.
    pub fn record_lease_expiration(&mut self) {
        self.registry.inc(self.ids.lease_expirations);
    }

    // ------------------------------------------------------------------
    // fault injection, failover, self-audit
    // ------------------------------------------------------------------

    /// Counts one injected fault by its
    /// [`FaultKind::label`](spms_faults::FaultKind::label); unknown labels
    /// still count as injections.
    pub fn record_fault_injection(&mut self, label: &str) {
        self.registry.inc(self.ids.fault_injections);
        let per_kind = match label {
            "shard_crash" => Some(self.ids.fault_crashes),
            "shard_stall" => Some(self.ids.fault_stalls),
            "cache_corruption" => Some(self.ids.fault_corruptions),
            "cost_spike" => Some(self.ids.fault_cost_spikes),
            _ => None,
        };
        if let Some(id) = per_kind {
            self.registry.inc(id);
        }
    }

    /// Counts the tasks drained off a crashed shard.
    pub fn record_fault_drained(&mut self, tasks: u64) {
        self.registry.add(self.ids.fault_drained, tasks);
    }

    /// Counts one drained task re-admitted onto a surviving shard.
    pub fn record_fault_recovery(&mut self) {
        self.registry.inc(self.ids.fault_recoveries);
    }

    /// Counts one drained task no survivor could take
    /// ([`DecisionKind::EvictedOnFailure`]).
    pub fn record_fault_eviction(&mut self) {
        self.registry.inc(self.ids.fault_evictions);
    }

    /// Counts one crashed shard rejoining the placement rotation.
    pub fn record_fault_rejoin(&mut self) {
        self.registry.inc(self.ids.fault_rejoins);
    }

    /// Counts one self-audit pass over a core's cached analysis. A
    /// `repaired` audit found a divergent memo (counted as a violation)
    /// and rebuilt it from scratch (counted as a repair) — so
    /// `violations - repairs` is the unrepaired backlog, which must stay
    /// zero.
    pub fn record_audit_check(&mut self, repaired: bool) {
        self.registry.inc(self.ids.audit_checks);
        if repaired {
            self.registry.inc(self.ids.audit_violations);
            self.registry.inc(self.ids.audit_repairs);
        }
    }
}

impl Default for EngineMetrics {
    fn default() -> Self {
        EngineMetrics::new(DEFAULT_TRACE_RING_CAPACITY)
    }
}

/// Looks a counter up by name, reading 0 for a name the registry lacks.
fn count(registry: &Registry, name: &str) -> u64 {
    registry.counter_by_name(name).unwrap_or(0)
}

/// Decision counters of an admission engine: a read-only view of the
/// outcome section of its registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControllerStats {
    /// Arrival events seen.
    pub arrivals: u64,
    /// Arrivals admitted.
    pub admitted: u64,
    /// Arrivals rejected.
    pub rejected: u64,
    /// Departures of admitted tasks.
    pub departures: u64,
    /// Departures of unknown tasks (no-ops).
    pub unknown_departures: u64,
    /// Admissions via incremental whole placement.
    pub fast_whole: u64,
    /// Admissions via splitting the arriving task.
    pub fast_split: u64,
    /// Admissions via bounded repair.
    pub repairs: u64,
    /// Admissions via full offline repartitioning.
    pub full_repartitions: u64,
    /// Already-placed tasks relocated across all decisions.
    pub migrations_caused: u64,
    /// Total WCET inflation (nanoseconds) the cost model charged across
    /// all admissions — the schedulable capacity spent on migration
    /// overhead rather than task execution. Zero under
    /// [`CostModelSpec::Zero`](spms_overhead::CostModelSpec::Zero).
    pub inflation_charged_ns: u64,
}

impl ControllerStats {
    /// The decision counters recorded in `registry` (0 for any counter
    /// it lacks, so an empty registry reads as the default).
    pub fn from_registry(registry: &Registry) -> Self {
        let admitted_by = |path| count(registry, ADMITTED_BY_PATH[stage_index(path)]);
        ControllerStats {
            arrivals: count(registry, ARRIVALS),
            admitted: count(registry, ADMITTED),
            rejected: count(registry, REJECTED),
            departures: count(registry, DEPARTURES),
            unknown_departures: count(registry, UNKNOWN_DEPARTURES),
            fast_whole: admitted_by(DecisionPath::FastWhole),
            fast_split: admitted_by(DecisionPath::FastSplit),
            repairs: admitted_by(DecisionPath::Repair),
            full_repartitions: admitted_by(DecisionPath::FullRepartition),
            migrations_caused: count(registry, MIGRATIONS),
            inflation_charged_ns: count(registry, INFLATION_NS),
        }
    }

    /// Fraction of arrivals admitted (1.0 when there were none).
    pub fn acceptance_ratio(&self) -> f64 {
        if self.arrivals == 0 {
            1.0
        } else {
            self.admitted as f64 / self.arrivals as f64
        }
    }

    /// Fraction of admissions that took a fast path (1.0 when there were
    /// none).
    pub fn fast_path_ratio(&self) -> f64 {
        if self.admitted == 0 {
            1.0
        } else {
            (self.fast_whole + self.fast_split) as f64 / self.admitted as f64
        }
    }
}

/// Counters of a [`ShardedAdmission`](crate::ShardedAdmission) service: a
/// read-only view of its merged registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Service-level decision counters (one entry per workload event the
    /// service handled, regardless of how many shards were offered it).
    pub decisions: ControllerStats,
    /// Admissions that landed on a shard other than the task's home shard
    /// (the home shard rejected, an overflow shard accepted).
    pub overflow_admissions: u64,
    /// Rebalance passes run.
    pub rebalance_ticks: u64,
    /// Tasks migrated between shards by rebalance passes.
    pub rebalance_moves: u64,
    /// Departures synthesized by lease expiry (event-loop deadline
    /// expirations, not part of the workload trace).
    pub lease_expirations: u64,
    /// Shard-spanning splits the cross-shard planner committed (body on
    /// one shard, tail on another), crash-recovery placements included.
    pub cross_shard_admissions: u64,
    /// WCET inflation (nanoseconds) charged to tasks moved by rebalance
    /// passes; admissions' inflation is in `decisions`.
    pub rebalance_inflation_ns: u64,
}

impl ServiceStats {
    /// The service counters recorded in `registry`.
    pub fn from_registry(registry: &Registry) -> Self {
        ServiceStats {
            decisions: ControllerStats::from_registry(registry),
            overflow_admissions: count(registry, OVERFLOW_ADMISSIONS),
            rebalance_ticks: count(registry, REBALANCE_TICKS),
            rebalance_moves: count(registry, REBALANCE_MOVES),
            lease_expirations: count(registry, LEASE_EXPIRATIONS),
            cross_shard_admissions: count(registry, CROSS_SHARD_ADMISSIONS),
            rebalance_inflation_ns: count(registry, REBALANCE_INFLATION_NS),
        }
    }
}

/// Fault-injection and recovery counters of a
/// [`ShardedAdmission`](crate::ShardedAdmission) service: a read-only view
/// of the `spms_mech_fault_*` and `spms_mech_audit_*` counters. Only the
/// chaos harness serializes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Faults injected, all kinds.
    pub injections: u64,
    /// Shard crashes applied.
    pub crashes: u64,
    /// Shard stalls applied.
    pub stalls: u64,
    /// Cache corruptions applied.
    pub corruptions: u64,
    /// Cost spikes applied.
    pub cost_spikes: u64,
    /// Tasks drained off crashed shards.
    pub drained: u64,
    /// Drained tasks re-admitted onto surviving shards.
    pub recoveries: u64,
    /// Drained tasks no survivor could host ([`DecisionKind::EvictedOnFailure`]).
    pub evictions: u64,
    /// Crashed shards that rejoined the rotation.
    pub rejoins: u64,
    /// Self-audit passes run (one cached core re-verified per pass).
    pub audit_checks: u64,
    /// Audits that caught a cache/scratch mismatch.
    pub audit_violations: u64,
    /// Mismatched caches rebuilt from scratch (always equals
    /// `audit_violations`: detection and repair are one step).
    pub audit_repairs: u64,
}

impl FaultStats {
    /// The fault and audit counters recorded in `registry`.
    pub fn from_registry(registry: &Registry) -> Self {
        FaultStats {
            injections: count(registry, FAULT_INJECTIONS),
            crashes: count(registry, FAULT_CRASHES),
            stalls: count(registry, FAULT_STALLS),
            corruptions: count(registry, FAULT_CORRUPTIONS),
            cost_spikes: count(registry, FAULT_COST_SPIKES),
            drained: count(registry, FAULT_DRAINED),
            recoveries: count(registry, FAULT_RECOVERIES),
            evictions: count(registry, FAULT_EVICTIONS),
            rejoins: count(registry, FAULT_REJOINS),
            audit_checks: count(registry, AUDIT_CHECKS),
            audit_violations: count(registry, AUDIT_VIOLATIONS),
            audit_repairs: count(registry, AUDIT_REPAIRS),
        }
    }

    /// Audit violations the run failed to repair (must stay 0: detection
    /// and rebuild are one step, so anything else is a harness bug).
    pub fn audit_violations_unrepaired(&self) -> u64 {
        self.audit_violations.saturating_sub(self.audit_repairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_counters_follow_final_decisions() {
        let mut m = EngineMetrics::new(8);
        m.record_outcome(&DecisionKind::Admitted {
            path: DecisionPath::FastSplit,
            migrations: 2,
            inflation: Time::from_nanos(50),
        });
        m.record_outcome(&DecisionKind::Rejected {
            reason: RejectionReason::PlatformOverloaded,
        });
        m.record_outcome(&DecisionKind::Departed);
        let r = m.registry();
        assert_eq!(r.counter_by_name("spms_events_total"), Some(3));
        assert_eq!(r.counter_by_name("spms_arrivals_total"), Some(2));
        assert_eq!(r.counter_by_name("spms_admitted_total"), Some(1));
        assert_eq!(r.counter_by_name("spms_admitted_fast_split_total"), Some(1));
        assert_eq!(r.counter_by_name("spms_rejected_overload_total"), Some(1));
        assert_eq!(r.counter_by_name("spms_migrations_total"), Some(2));
        assert_eq!(
            r.counter_by_name("spms_inflation_charged_ns_total"),
            Some(50)
        );
        assert_eq!(r.counter_by_name("spms_departures_total"), Some(1));
        let view = ControllerStats::from_registry(r);
        assert_eq!(
            view,
            ControllerStats {
                arrivals: 2,
                admitted: 1,
                rejected: 1,
                departures: 1,
                fast_split: 1,
                migrations_caused: 2,
                inflation_charged_ns: 50,
                ..ControllerStats::default()
            }
        );
    }

    #[test]
    fn views_of_an_empty_registry_are_zero() {
        let empty = Registry::new();
        assert_eq!(ServiceStats::from_registry(&empty), ServiceStats::default());
        assert_eq!(FaultStats::from_registry(&empty), FaultStats::default());
    }

    #[test]
    fn the_fault_view_reads_the_fault_and_audit_counters() {
        let mut m = EngineMetrics::new(0);
        m.record_fault_injection("shard_crash");
        m.record_fault_injection("cost_spike");
        m.record_fault_drained(3);
        m.record_fault_recovery();
        m.record_fault_recovery();
        m.record_fault_eviction();
        m.record_fault_rejoin();
        m.record_audit_check(true);
        m.record_audit_check(false);
        assert_eq!(
            FaultStats::from_registry(m.registry()),
            FaultStats {
                injections: 2,
                crashes: 1,
                cost_spikes: 1,
                drained: 3,
                recoveries: 2,
                evictions: 1,
                rejoins: 1,
                audit_checks: 2,
                audit_violations: 1,
                audit_repairs: 1,
                ..FaultStats::default()
            }
        );
    }

    #[test]
    fn stages_count_attempts_successes_and_trace_spans() {
        let mut m = EngineMetrics::new(8);
        m.record_stage(DecisionPath::FastWhole, false, 10);
        m.record_stage(DecisionPath::FastSplit, true, 20);
        let kind = DecisionKind::Admitted {
            path: DecisionPath::FastSplit,
            migrations: 0,
            inflation: Time::ZERO,
        };
        m.finish_decision(7, &kind, &HotDeltas::default());
        // Finishing a decision does not time it: its timer records that.
        assert_eq!(m.decision_latency().count(), 0);
        m.record_decision_latency(35);
        let r = m.registry();
        assert_eq!(
            r.counter_by_name("spms_mech_stage_fast_whole_attempts_total"),
            Some(1)
        );
        assert_eq!(
            r.counter_by_name("spms_mech_stage_fast_whole_successes_total"),
            Some(0)
        );
        assert_eq!(
            r.counter_by_name("spms_mech_stage_fast_split_successes_total"),
            Some(1)
        );
        assert_eq!(m.decision_latency().count(), 1);
        let trace = m.traces().iter().next().unwrap();
        assert_eq!(trace.task, 7);
        assert_eq!(trace.label, "admitted_fast_split");
        assert_eq!(trace.spans.len(), 2);
        // The span scratch drained into the ring.
        assert!(m.open_spans.is_empty());
    }

    #[test]
    fn rebalance_ticks_distinguish_noop_from_productive() {
        let mut m = EngineMetrics::new(0);
        m.record_rebalance_tick(0, Time::ZERO);
        m.record_rebalance_tick(3, Time::from_nanos(70));
        let r = m.registry();
        assert_eq!(
            r.counter_by_name("spms_mech_rebalance_ticks_total"),
            Some(2)
        );
        assert_eq!(
            r.counter_by_name("spms_mech_rebalance_moves_total"),
            Some(3)
        );
        assert_eq!(r.gauge_by_name("spms_mech_rebalance_last_moves"), Some(3));
        assert_eq!(
            r.counter_by_name("spms_mech_rebalance_inflation_ns_total"),
            Some(70)
        );
        let view = ServiceStats::from_registry(r);
        assert_eq!((view.rebalance_ticks, view.rebalance_moves), (2, 3));
        assert_eq!(view.rebalance_inflation_ns, 70);
    }
}
