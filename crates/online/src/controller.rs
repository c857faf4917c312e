//! The online admission controller.
//!
//! [`AdmissionController`] consumes a stream of [`WorkloadEvent`]s and
//! maintains a live, always-schedulable [`Partition`]. Each arrival is
//! decided by a cascade of increasingly expensive strategies:
//!
//! 1. **fast path** — incremental first-fit placement of the whole task
//!    ([`IncrementalPlacer::plan_whole`]), validated by exact per-core
//!    response-time analysis;
//! 2. **fast split** — FP-TS-style splitting of the arriving task across
//!    the residual capacity of several cores
//!    ([`IncrementalPlacer::plan_split`]);
//! 3. **bounded repair** — relocate (and re-split if necessary) at most
//!    [`max_repair_moves`](OnlineConfig::max_repair_moves) already-placed
//!    tasks to open a hole for the arrival, rolling back if no hole opens;
//! 4. **full repartition** — the last resort: run the offline
//!    [`SemiPartitionedFpTs`] over the admitted set plus the arrival and
//!    adopt its partition wholesale.
//!
//! The fallback is the one stage whose cost grows with the whole admitted
//! set rather than with the arrival: every attempt runs a full FP-TS pass
//! (a failing one gives up only near its last task), and on the
//! `saturated` admission benchmark most attempts fail. So the pass asks
//! each question once. A bin whose running utilization would exceed
//! `1 + 1e-9` rejects a piece without a probe (most of the pass's
//! questions), an accepted whole task or tail piece is inserted with the
//! responses its probe converged, and the probes, screen hits and body
//! scans it does run are added to the same hot counters the placer feeds.
//! Adoption then counts the moved parents in one sorted pass over both
//! partitions, re-ranks each core deadline-monotonically and rebuilds the
//! analysis cache; handing the bins' rate-monotonic caches over instead
//! would save only that rebuild, a few microseconds per adoption. The
//! offline pass's final from-scratch schedulability sweep stays as the
//! independent check on what is adopted.
//!
//! A task is rejected only when every strategy fails; rejection leaves the
//! partition untouched. Departures free capacity immediately and can never
//! invalidate the partition (per-core demand only shrinks).
//!
//! The live partition always carries an incremental analysis cache
//! ([`Partition::enable_analysis_cache`](spms_core::Partition::enable_analysis_cache)):
//! one [`CachedCoreAnalysis`](spms_analysis::CachedCoreAnalysis) per core
//! threads through all four stages — placement probes answer from memoized
//! response times, split bodies are read off the exact budget frontier of
//! those responses in one scan, and a full-repartition adoption
//! re-attaches a fresh cache. This is the one analysis path: every probe
//! reads [`Partition::core_analysis`](spms_core::Partition::core_analysis),
//! which only builds an analysis on the fly for a core mutated since its
//! last renormalization (counted as a cache miss; the cascade never does
//! this). Speculative stages run inside the partition's
//! mutation journal ([`Partition::journal_begin`](spms_core::Partition::journal_begin)),
//! which every partition carries: a failed repair attempt rewinds
//! placements, priorities and cache state in O(moves), so the whole
//! cascade is clone-free (`Partition::clone_count` proves it). The cache
//! is checked against independent scratch RTA of every core after every
//! decision by `spms rtabench`. Repair ranks eviction victims by slack:
//! it localizes the task the arrival blocks and evicts the smallest
//! resident whose removal provably unblocks it. When no single eviction
//! does, repair looks one move ahead before it moves anything: a victim
//! that no partner eviction can complete (one exact what-if probe of the
//! pair each) is never moved, so an attempt that cannot succeed fails
//! before its first mutation instead of relocating, searching and
//! rewinding.
//!
//! Every decision carries its path, the number of already-placed tasks it
//! migrated, and (for rejections) a typed reason; the caller keeps the log
//! (the sharded service does). The controller also carries an
//! [`EngineMetrics`] bundle (see [`crate::metrics`]): outcome and
//! cascade-stage counters in the deterministic registry section,
//! per-decision [`StageTrace`](spms_telemetry::StageTrace)s in a bounded
//! ring, and wall-clock latencies in bounded histograms in the strippable
//! timing section — never in any serializable result, so reports stay
//! byte-identical across runs.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use spms_analysis::OverheadModel;
use spms_core::{
    CoreId, IncrementalPlacer, Partition, PlacementPlan, SemiPartitionedFpTs, WholeProbe,
};
use spms_overhead::{CostModel, CostModelSpec};
use spms_task::{Task, TaskId, TaskSet, Time};
use spms_telemetry::{scoped, HotCounter};

use crate::metrics::{ControllerStats, EngineMetrics};
use crate::WorkloadEvent;

/// Errors constructing an [`AdmissionController`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum OnlineError {
    /// The platform must have at least one core.
    NoCores,
    /// A sharded service needs between 1 and `cores` shards.
    InvalidShardCount {
        /// The requested shard count.
        shards: usize,
        /// The platform's core count.
        cores: usize,
    },
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineError::NoCores => write!(f, "online admission needs at least one core"),
            OnlineError::InvalidShardCount { shards, cores } => write!(
                f,
                "cannot shard {cores} cores into {shards} admission shards"
            ),
        }
    }
}

impl std::error::Error for OnlineError {}

/// Configuration of the online admission controller.
///
/// Construct via [`OnlineConfig::new`] (the defaults for a core count) or
/// [`OnlineConfig::builder`] to set individual knobs. The struct is
/// `#[non_exhaustive]`: fields are readable everywhere, but out-of-crate
/// construction must go through the builder so new knobs (like
/// [`cost_model`](Self::cost_model)) can be added without breaking callers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct OnlineConfig {
    /// Number of processor cores.
    pub cores: usize,
    /// Run-time overheads folded into each placement's analysis WCET.
    pub overhead: OverheadModel,
    /// Smallest body-subtask budget worth carving when splitting.
    pub min_split_budget: Time,
    /// Bound `k` on the number of already-placed tasks the repair pass may
    /// relocate for one arrival. `0` disables repair.
    pub max_repair_moves: usize,
    /// Whether a failed repair may fall back to a full offline repartition.
    pub allow_fallback: bool,
    /// What one migration costs a task in extra WCET. Every split hop,
    /// repair relocation and rebalance move must stay schedulable *after*
    /// the affected task's analysis WCET absorbs this charge. The default
    /// [`CostModelSpec::Zero`] charges nothing and reproduces the
    /// pre-cost-model decisions bit for bit.
    pub cost_model: CostModelSpec,
    /// Whether this controller's partition may host *partial* split chains
    /// — body/tail pieces whose siblings live on another shard, placed by
    /// the sharded service's cross-shard planner. Off (the default) the
    /// cascade is byte-identical to the walled-shard behaviour; on, the
    /// partition validates boundary pieces with shard-local chain rules and
    /// the full-repartition fallback is withheld while any remote piece is
    /// resident (a from-scratch repartition of one shard cannot re-place
    /// the remote siblings).
    pub cross_shard_split: bool,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            cores: 4,
            overhead: OverheadModel::zero(),
            min_split_budget: Time::from_micros(100),
            max_repair_moves: 2,
            allow_fallback: true,
            cost_model: CostModelSpec::Zero,
            cross_shard_split: false,
        }
    }
}

impl OnlineConfig {
    /// A configuration for `cores` processors with exact RTA, no overhead,
    /// repair bound 2, free migrations and the full-repartition fallback
    /// enabled. Shorthand for `OnlineConfig::builder().cores(cores).build()`.
    pub fn new(cores: usize) -> Self {
        OnlineConfig {
            cores,
            ..OnlineConfig::default()
        }
    }

    /// Starts a builder from the defaults. The builder is the one way to
    /// set knobs: `OnlineConfig::builder().cores(8).cost_model(...).build()`.
    pub fn builder() -> OnlineConfigBuilder {
        OnlineConfigBuilder {
            config: OnlineConfig::default(),
        }
    }
}

/// Builder for [`OnlineConfig`]. Obtained from [`OnlineConfig::builder`];
/// every method replaces one knob and [`build`](Self::build) yields the
/// finished configuration (core-count validation stays where it always
/// was, in [`AdmissionController::new`]).
#[derive(Debug, Clone)]
pub struct OnlineConfigBuilder {
    config: OnlineConfig,
}

impl OnlineConfigBuilder {
    /// Sets the number of processor cores.
    pub fn cores(mut self, cores: usize) -> Self {
        self.config.cores = cores;
        self
    }

    /// Replaces the run-time overhead model.
    pub fn overhead(mut self, overhead: OverheadModel) -> Self {
        self.config.overhead = overhead;
        self
    }

    /// Sets the smallest admissible body-subtask budget.
    pub fn min_split_budget(mut self, budget: Time) -> Self {
        self.config.min_split_budget = budget;
        self
    }

    /// Sets the repair bound `k` (`0` disables repair).
    pub fn max_repair_moves(mut self, k: usize) -> Self {
        self.config.max_repair_moves = k;
        self
    }

    /// Enables or disables the full-repartition fallback.
    pub fn fallback(mut self, allow: bool) -> Self {
        self.config.allow_fallback = allow;
        self
    }

    /// Sets the migration cost model charged by every split, relocation
    /// and rebalance move.
    pub fn cost_model(mut self, model: CostModelSpec) -> Self {
        self.config.cost_model = model;
        self
    }

    /// Allows partial split chains on this controller's partition so the
    /// sharded service's cross-shard planner can place boundary pieces.
    pub fn cross_shard_split(mut self, enabled: bool) -> Self {
        self.config.cross_shard_split = enabled;
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> OnlineConfig {
        self.config
    }
}

/// Which strategy admitted a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DecisionPath {
    /// Incremental first-fit placed the task whole.
    FastWhole,
    /// The arriving task was split across the residual capacity.
    FastSplit,
    /// Up to `k` already-placed tasks were relocated to open a hole.
    Repair,
    /// The offline algorithm repartitioned the whole admitted set.
    FullRepartition,
    /// The sharded service split the task across two shards: the body on
    /// the highest-spare donor, the tail on the runner-up receiver. Never
    /// produced by a solo controller's cascade.
    CrossShardSplit,
}

impl fmt::Display for DecisionPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DecisionPath::FastWhole => "fast-whole",
            DecisionPath::FastSplit => "fast-split",
            DecisionPath::Repair => "repair",
            DecisionPath::FullRepartition => "full-repartition",
            DecisionPath::CrossShardSplit => "cross-shard-split",
        };
        write!(f, "{name}")
    }
}

/// Why an arrival was turned away.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum RejectionReason {
    /// A task with the same id is already admitted.
    DuplicateTask,
    /// Total utilization would exceed the platform capacity `m`.
    PlatformOverloaded,
    /// The task cannot absorb the scheduling overhead within its deadline on
    /// any core.
    OverheadUnabsorbable,
    /// Every strategy — placement, splitting, repair and (if enabled) full
    /// repartitioning — failed to find a schedulable configuration.
    NoFeasiblePlacement,
}

impl fmt::Display for RejectionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RejectionReason::DuplicateTask => "duplicate task id",
            RejectionReason::PlatformOverloaded => "platform utilization exceeded",
            RejectionReason::OverheadUnabsorbable => "overhead unabsorbable within deadline",
            RejectionReason::NoFeasiblePlacement => "no feasible placement",
        };
        write!(f, "{name}")
    }
}

/// The outcome of one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// The arrival was admitted.
    Admitted {
        /// The strategy that placed it.
        path: DecisionPath,
        /// How many *already-placed* tasks this decision relocated (0 on the
        /// fast paths).
        migrations: usize,
        /// Total extra WCET the cost model charged across every placement
        /// this decision inflated (split hops of the arrival, relocated
        /// repair victims). Zero under [`CostModelSpec::Zero`] and on the
        /// fast-whole and fallback paths.
        inflation: Time,
    },
    /// The arrival was rejected; the partition is unchanged.
    Rejected {
        /// Why.
        reason: RejectionReason,
    },
    /// An admitted task departed and its capacity was released.
    Departed,
    /// A departure for a task that was never admitted (no-op).
    DepartUnknown,
    /// A lease renewal was noted (no-op for the partition). Leases are
    /// interpreted by the [`EventLoop`](crate::EventLoop); a controller
    /// replaying a leased trace only acknowledges the event.
    RenewNoted,
    /// A resident task drained off a crashed shard could not be re-placed
    /// on any survivor (whole, split, or via the cross-shard planner) and
    /// was evicted. Only shard-failure recovery produces this; it never
    /// appears in a fault-free run.
    EvictedOnFailure,
}

// Hand-rolled (de)serialization so zero charges stay invisible: a ZeroCost
// decision log must stay byte-identical to the pre-cost-model format (the
// derive would emit `"inflation":0` into every admission). The encoding
// otherwise matches the derive exactly — unit variants as strings, data
// variants as single-key maps — and old logs without the entry read back
// with [`Time::ZERO`].
impl Serialize for DecisionKind {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        match self {
            DecisionKind::Admitted {
                path,
                migrations,
                inflation,
            } => {
                let mut fields = vec![
                    (String::from("path"), path.to_value()),
                    (String::from("migrations"), migrations.to_value()),
                ];
                if !inflation.is_zero() {
                    fields.push((String::from("inflation"), inflation.to_value()));
                }
                Value::Map(vec![(String::from("Admitted"), Value::Map(fields))])
            }
            DecisionKind::Rejected { reason } => Value::Map(vec![(
                String::from("Rejected"),
                Value::Map(vec![(String::from("reason"), reason.to_value())]),
            )]),
            DecisionKind::Departed => Value::Str(String::from("Departed")),
            DecisionKind::DepartUnknown => Value::Str(String::from("DepartUnknown")),
            DecisionKind::RenewNoted => Value::Str(String::from("RenewNoted")),
            DecisionKind::EvictedOnFailure => Value::Str(String::from("EvictedOnFailure")),
        }
    }
}

impl Deserialize for DecisionKind {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        use serde::Value;
        match value {
            Value::Str(name) => match name.as_str() {
                "Departed" => Ok(DecisionKind::Departed),
                "DepartUnknown" => Ok(DecisionKind::DepartUnknown),
                "RenewNoted" => Ok(DecisionKind::RenewNoted),
                "EvictedOnFailure" => Ok(DecisionKind::EvictedOnFailure),
                other => Err(serde::Error::custom(format!(
                    "unknown variant `{other}` of DecisionKind"
                ))),
            },
            Value::Map(entries) if entries.len() == 1 => {
                let (tag, payload) = &entries[0];
                match tag.as_str() {
                    "Admitted" => Ok(DecisionKind::Admitted {
                        path: Deserialize::from_value(payload.field("path")?)?,
                        migrations: Deserialize::from_value(payload.field("migrations")?)?,
                        inflation: match payload.field("inflation")? {
                            Value::Null => Time::ZERO,
                            present => Deserialize::from_value(present)?,
                        },
                    }),
                    "Rejected" => Ok(DecisionKind::Rejected {
                        reason: Deserialize::from_value(payload.field("reason")?)?,
                    }),
                    other => Err(serde::Error::custom(format!(
                        "unknown variant `{other}` of DecisionKind"
                    ))),
                }
            }
            other => Err(serde::Error::custom(format!(
                "expected DecisionKind representation, found {}",
                other.kind()
            ))),
        }
    }
}

/// One admission decision: the event it answered and the verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Decision {
    /// Index of the event in the stream, starting at 0.
    pub event_index: usize,
    /// The task the event concerned.
    pub task: TaskId,
    /// What the controller decided.
    pub kind: DecisionKind,
}

impl Decision {
    /// Whether this decision admitted a task.
    pub fn is_admission(&self) -> bool {
        matches!(self.kind, DecisionKind::Admitted { .. })
    }
}

/// FNV-1a over the JSON serialization of a decision log: the one digest
/// every driver reports, so equal digests mean byte-identical logs.
pub fn decisions_digest(decisions: &[Decision]) -> u64 {
    spms_task::fnv1a(
        serde_json::to_string(decisions)
            .expect("decision logs always serialize")
            .as_bytes(),
    )
}

/// The online admission controller. See the module docs of
/// `controller.rs` for the decision cascade.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    config: OnlineConfig,
    placer: IncrementalPlacer,
    partition: Partition,
    admitted: BTreeMap<TaskId, Task>,
    /// Running sum of `admitted`'s utilizations, kept in step with every
    /// insert and remove: answers the platform check in O(1).
    admitted_sum: UtilizationSum,
    /// Parents with at least one piece on *another* shard, placed by the
    /// sharded service's cross-shard planner. Their local pieces must never
    /// be relocated by repair and block the full-repartition fallback: both
    /// reason only about this shard's partition and would orphan the remote
    /// siblings. Always empty when `cross_shard_split` is off.
    remote_parents: BTreeSet<TaskId>,
    metrics: EngineMetrics,
    next_event: usize,
    /// Relocations known to fail, one slot per victim (see
    /// [`relocate`](Self::relocate)). A slot is dropped when its task
    /// leaves or re-enters the admitted set, and the whole memo is cleared
    /// when the fallback adopts a new partition (whose generations are not
    /// comparable with the old one's).
    failed_relocations: HashMap<TaskId, FailedRelocation>,
    /// Buffers bounded repair reuses from one attempt to the next.
    scratch: RepairScratch,
}

/// The working lists of bounded repair, kept on the controller and
/// cleared, not freed, between attempts: once they have grown to their
/// working size, a repair attempt that fails allocates nothing.
#[derive(Debug, Clone, Default)]
struct RepairScratch {
    /// The repair targets with their probes, in try order (see
    /// [`AdmissionController::repair_target_order`]).
    targets: Vec<RepairTarget>,
    /// Every core but the current target.
    others: Vec<CoreId>,
    /// Victims the current attempt found it cannot relocate.
    immovable: Vec<TaskId>,
    /// The candidate list of the victim search not currently open.
    candidates: Vec<(f64, TaskId)>,
}

/// One repair target: whether its probe failed to localize a blocker, the
/// arrival's deficit on it, the core and the probe.
type RepairTarget = (bool, f64, CoreId, WholeProbe);

/// A relocation whose placement plan came back empty: the core the victim
/// was to leave, the migration charge it was planned with, and the
/// generation of every *other* core (index order) before the victim was
/// evicted. The plan excludes the target and reads only those cores after
/// the eviction, and each of them is a deterministic function of its own
/// pre-eviction state; nothing else it reads changes while the victim
/// stays admitted. So an identical key means an identical (empty) plan,
/// for whole and split victims alike.
#[derive(Debug, Clone)]
struct FailedRelocation {
    target: CoreId,
    charge: Time,
    generations: Vec<u64>,
}

/// What the repair victim ranking knows about its pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VictimEvidence {
    /// Slack pass 1: an exact what-if probe showed that evicting this
    /// victim alone unblocks the arrival.
    Unblocks,
    /// Slack pass 2: every remaining candidate was probed or provably
    /// pruned, and no single eviction unblocks the arrival.
    Insufficient,
}

/// The slack-guided victim search of one repair target, valid for one
/// partition state. A failed relocation leaves the partition unchanged
/// (whole victims are planned before they are evicted, split victims are
/// rewound), so every answer the search got stays true: it resumes where
/// it stopped instead of re-asking. A successful relocation changes the
/// state and drops the search.
#[derive(Debug, Clone)]
struct VictimSearch {
    /// The target's movable residents not yet picked, by ascending
    /// utilization (ties by id).
    candidates: Vec<(f64, TaskId)>,
    /// The arrival's blocker on the target
    /// (see [`WholeProbe::Blocked`]).
    blocker: Option<TaskId>,
    /// Where pass 1 resumes: every candidate before it was pruned or
    /// probed without unblocking the arrival. Equal to the length once
    /// pass 1 is exhausted.
    cursor: usize,
}

impl AdmissionController {
    /// Creates a controller over an empty partition.
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError::NoCores`] when the configuration has zero
    /// cores.
    pub fn new(config: OnlineConfig) -> Result<Self, OnlineError> {
        if config.cores == 0 {
            return Err(OnlineError::NoCores);
        }
        let placer = IncrementalPlacer::new()
            .with_overhead(config.overhead)
            .with_min_split_budget(config.min_split_budget);
        let mut partition = Partition::new(config.cores);
        partition.enable_analysis_cache();
        if config.cross_shard_split {
            partition.allow_partial_chains();
        }
        Ok(AdmissionController {
            partition,
            placer,
            config,
            admitted: BTreeMap::new(),
            admitted_sum: UtilizationSum::default(),
            remote_parents: BTreeSet::new(),
            metrics: EngineMetrics::default(),
            next_event: 0,
            failed_relocations: HashMap::new(),
            scratch: RepairScratch::default(),
        })
    }

    /// The live partition of all admitted tasks.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Whether a task with this id is currently admitted.
    pub fn is_admitted(&self, id: TaskId) -> bool {
        self.admitted.contains_key(&id)
    }

    /// The controller configuration.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// The currently admitted tasks with their original parameters.
    pub fn admitted_tasks(&self) -> TaskSet {
        self.admitted.values().cloned().collect()
    }

    /// Number of currently admitted tasks.
    pub fn admitted_count(&self) -> usize {
        self.admitted.len()
    }

    /// Total utilization of the admitted tasks (original parameters, not
    /// overhead-inflated).
    pub fn admitted_utilization(&self) -> f64 {
        self.admitted.values().map(Task::utilization).sum()
    }

    /// Decision counters: a view of this controller's registry.
    pub fn stats(&self) -> ControllerStats {
        ControllerStats::from_registry(self.metrics.registry())
    }

    /// This controller's telemetry: the metrics registry and the bounded
    /// stage-trace ring. See [`crate::metrics`] for the determinism
    /// contract.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Handles one workload event and returns the decision made. Nothing
    /// is cloned unless the arrival is actually admitted (the admitted map
    /// keeps its own copy of the task). The controller does not time the
    /// decision: its caller does (the sharded service records one latency
    /// sample per final decision).
    pub fn handle_event(&mut self, event: &WorkloadEvent) -> Decision {
        let hot = scoped::thread_snapshot();
        let task_id = event.task_id();
        let kind = match event {
            WorkloadEvent::Arrive(task) => self.arrive(task),
            WorkloadEvent::Depart(id) => self.depart(*id),
            // Leases are the event loop's concern; a controller fed a
            // leased trace just acknowledges the renewal.
            WorkloadEvent::Renew(_) => DecisionKind::RenewNoted,
        };
        let decision = Decision {
            event_index: self.next_event,
            task: task_id,
            kind,
        };
        self.next_event += 1;
        let deltas = hot.since();
        self.metrics
            .finish_decision(u64::from(task_id.0), &kind, &deltas);
        debug_assert_eq!(self.partition.validate(), Ok(()));
        decision
    }

    // ------------------------------------------------------------------
    // arrivals
    // ------------------------------------------------------------------

    fn arrive(&mut self, task: &Task) -> DecisionKind {
        if self.admitted.contains_key(&task.id()) {
            return DecisionKind::Rejected {
                reason: RejectionReason::DuplicateTask,
            };
        }
        // Cheap necessary condition before any RTA runs: total utilization
        // can never exceed the platform.
        if self.admitted_sum.exceeds(
            &self.admitted,
            task.utilization(),
            self.config.cores as f64 + 1e-9,
        ) {
            return DecisionKind::Rejected {
                reason: RejectionReason::PlatformOverloaded,
            };
        }
        if self.placer.whole_analysis_task(task, Time::ZERO).is_none() {
            return DecisionKind::Rejected {
                reason: RejectionReason::OverheadUnabsorbable,
            };
        }

        // Each cascade stage runs under a timer; `record_stage` counts the
        // attempt/success (mechanism section), records the stage latency
        // (timing section), and appends a span to this decision's trace.
        // A whole placement crosses no core boundary at run time, so the
        // fast-whole path is charge-free under every cost model.
        let stage = Instant::now();
        if let Some(plan) = self
            .placer
            .plan_whole(&self.partition, task, &[], Time::ZERO)
        {
            self.placer.commit(&mut self.partition, task, plan);
            self.record_stage(DecisionPath::FastWhole, true, stage);
            return self.admit(task, DecisionPath::FastWhole, 0, Time::ZERO);
        }
        self.record_stage(DecisionPath::FastWhole, false, stage);
        // A split chain hops one core boundary per piece after the first,
        // every job: each later piece's analysis WCET absorbs one charge,
        // and the split is admitted only if it stays schedulable inflated.
        let stage = Instant::now();
        let charge = self.migration_charge(task);
        if let Some(plan) = self.placer.plan_split(&self.partition, task, &[], charge) {
            let inflation = plan_inflation(&plan, charge);
            self.placer.commit(&mut self.partition, task, plan);
            self.record_stage(DecisionPath::FastSplit, true, stage);
            return self.admit(task, DecisionPath::FastSplit, 0, inflation);
        }
        self.record_stage(DecisionPath::FastSplit, false, stage);
        let stage = Instant::now();
        let repaired = self.try_repair(task);
        self.record_stage(DecisionPath::Repair, repaired.is_some(), stage);
        if let Some((moves, inflation)) = repaired {
            return self.admit(task, DecisionPath::Repair, moves, inflation);
        }
        // The fallback adopts a from-scratch offline partition; its moves
        // are a one-time reshuffle, not recurring per-job hops, so they are
        // deliberately uncharged (see the module docs).
        let stage = Instant::now();
        let fallback = self.try_fallback(task);
        self.record_stage(DecisionPath::FullRepartition, fallback.is_some(), stage);
        if let Some(moves) = fallback {
            return self.admit(task, DecisionPath::FullRepartition, moves, Time::ZERO);
        }
        DecisionKind::Rejected {
            reason: RejectionReason::NoFeasiblePlacement,
        }
    }

    /// The per-migration WCET charge of `task` under the configured cost
    /// model. Always computed from the task's pristine parameters, so
    /// repeated relocations never compound charges.
    fn migration_charge(&self, task: &Task) -> Time {
        self.config.cost_model.migration_charge(task)
    }

    /// Closes one cascade stage's telemetry: attempt/success counters, the
    /// stage latency histogram, and a span in the open decision's trace.
    /// Stages short-circuited by their own config knob (`max_repair_moves
    /// == 0`, `allow_fallback == false`) still count as reached-and-failed
    /// attempts — the count stays deterministic per configuration.
    fn record_stage(&mut self, stage: DecisionPath, success: bool, started: Instant) {
        self.metrics
            .record_stage(stage, success, started.elapsed().as_nanos() as u64);
    }

    fn admit(
        &mut self,
        task: &Task,
        path: DecisionPath,
        migrations: usize,
        inflation: Time,
    ) -> DecisionKind {
        self.insert_admitted(task.clone());
        DecisionKind::Admitted {
            path,
            migrations,
            inflation,
        }
    }

    // ------------------------------------------------------------------
    // bounded repair
    // ------------------------------------------------------------------

    /// Tries to open a hole for `task` on some core by relocating at most
    /// `k` already-placed tasks (whole-first, re-split if needed). Whenever
    /// a target core cannot be freed, the mutation journal rewinds the
    /// partition (O(moves)).
    /// Returns the number of tasks moved and the total WCET inflation the
    /// cost model charged to the relocated victims on success.
    fn try_repair(&mut self, task: &Task) -> Option<(usize, Time)> {
        if self.config.max_repair_moves == 0 {
            return None;
        }
        let mut targets = std::mem::take(&mut self.scratch.targets);
        self.repair_target_order(task, &mut targets);
        // Each attempt is one journal scope on the partition, closed on
        // every path: kept on success, rewound on failure.
        let repaired = targets.iter().find_map(|&(_, _, target, probe)| {
            let mark = self.partition.journal_begin();
            let repaired = self.repair_on(target, task, probe);
            if repaired.is_none() {
                self.partition.rewind(mark);
            }
            self.partition.journal_end();
            repaired
        });
        self.scratch.targets = targets;
        repaired
    }

    /// Candidate repair targets, most repairable first, instead of raw
    /// index order: cores where [`probe_whole`](IncrementalPlacer::probe_whole)
    /// localizes a concrete blocker (so the victim search has something to
    /// aim at) come before cores where it cannot, and within each group the
    /// arrival's *deficit* — how far over capacity the core would go with
    /// the arrival added (`U(core) + u(arrival) − 1`) — ranks ascending:
    /// the core needing the least utilization shed is tried first, so the
    /// common case commits on the first attempt and rejected-target rewinds
    /// drop. Ties break on core index, keeping the order deterministic and
    /// independent of the pure-mechanism cache knob. Each target comes
    /// with its probe, which stays true until the repair attempt on it
    /// mutates the partition (attempts on earlier targets are rewound).
    /// The targets replace what `targets` held.
    fn repair_target_order(&self, task: &Task, targets: &mut Vec<RepairTarget>) {
        targets.clear();
        targets.extend((0..self.config.cores).map(CoreId).map(|core| {
            let probe = self.placer.probe_whole(&self.partition, core, task);
            let localized = match probe {
                // Unreachable in practice: repair runs after first-fit
                // failed on every core. Rank it first defensively.
                WholeProbe::Accepted => true,
                WholeProbe::Blocked { blocker } => blocker.is_some(),
            };
            let deficit = self.partition.core_utilization(core) + task.utilization() - 1.0;
            (!localized, deficit, core, probe)
        }));
        // Core indices are distinct, so the order is total and an unstable
        // sort (which never allocates) gives the stable one.
        targets.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .then_with(|| a.2.cmp(&b.2))
        });
    }

    /// One repair attempt against a fixed `target` core, whose
    /// [`probe_whole`](IncrementalPlacer::probe_whole) of the arrival on
    /// the current partition is `probe`. Mutates the partition freely; the
    /// caller rolls back on `None`. Returns the number of relocations and
    /// their accumulated WCET inflation.
    ///
    /// Each placement question is asked once per partition state: the
    /// arrival is planned only when nothing says it is still blocked (the
    /// target probe at the start, a failed plan since the last successful
    /// relocation), and the slack victim search resumes across failed
    /// relocations, which leave the partition unchanged.
    ///
    /// The last move slot only goes to a victim whose eviction provably
    /// unblocks the arrival, and the slot before it only to a victim some
    /// last move can follow (see [`repair_moves`](Self::repair_moves)):
    /// an attempt that cannot end in success gives up before mutating.
    fn repair_on(
        &mut self,
        target: CoreId,
        task: &Task,
        probe: WholeProbe,
    ) -> Option<(usize, Time)> {
        let mut others = std::mem::take(&mut self.scratch.others);
        others.clear();
        others.extend((0..self.config.cores).map(CoreId).filter(|c| *c != target));
        let mut immovable = std::mem::take(&mut self.scratch.immovable);
        immovable.clear();
        let mut search = None;
        let repaired = self.repair_moves(target, task, probe, &others, &mut immovable, &mut search);
        self.scratch.others = others;
        self.scratch.immovable = immovable;
        self.recycle(search);
        repaired
    }

    /// The move loop of [`repair_on`](Self::repair_on), over its reusable
    /// lists: `others` holds every core but the target, `immovable` and
    /// `search` start empty.
    ///
    /// A victim picked with [`VictimEvidence::Insufficient`] (no single
    /// eviction unblocks the arrival) is never moved into the last slot.
    /// Into the penultimate one (`moves + 2 == k`) it is moved only after
    /// a look-ahead: if no candidate still in the search unblocks the
    /// arrival together with it (one pair what-if probe each,
    /// [`IncrementalPlacer::accepts_whole_without`]), moving it would
    /// leave a last move that cannot succeed. Then, if no pair of the
    /// remaining candidates unblocks the arrival either, no later pick can
    /// succeed and the attempt fails at once; otherwise the victim is only
    /// asked whether it could move ([`can_relocate`](Self::can_relocate),
    /// which commits nothing): if it could, the attempt fails, and if not,
    /// it is immovable and the search goes on.
    ///
    /// The look-ahead is exact, so no decision changes. A relocation's
    /// plan excludes the target, so wherever the victim lands, the target
    /// afterwards is the target minus the victim; the victim search opened
    /// on it then has exactly the remaining candidates (every resident not
    /// immovable), and its pass 1 asks of each one the question the pair
    /// probe asked. Without a partner, the move would be followed by an
    /// `Insufficient` pick in the last slot, or by no pick at all, and the
    /// attempt would fail after mutating and rewinding.
    fn repair_moves(
        &mut self,
        target: CoreId,
        task: &Task,
        probe: WholeProbe,
        others: &[CoreId],
        immovable: &mut Vec<TaskId>,
        search: &mut Option<VictimSearch>,
    ) -> Option<(usize, Time)> {
        let k = self.config.max_repair_moves;
        let mut moves = 0usize;
        let mut inflation = Time::ZERO;
        // What the arrival's probe on the target says about the current
        // partition state, while that is known.
        let mut probe = Some(probe);
        let mut blocked = matches!(probe, Some(WholeProbe::Blocked { .. }));
        // The arrival itself lands whole on the opened core — a fresh
        // placement crossing no boundary, so it stays uncharged.
        let plan_arrival = |c: &Self| c.placer.plan_whole(&c.partition, task, others, Time::ZERO);
        loop {
            if blocked {
                debug_assert!(
                    scoped::uncounted(|| plan_arrival(self)).is_none(),
                    "the arrival skipped on {target} has a whole plan"
                );
            } else if let Some(plan) = plan_arrival(self) {
                self.placer.commit(&mut self.partition, task, plan);
                return Some((moves, inflation));
            }
            blocked = true;
            if moves == k {
                return None;
            }
            let open = match search {
                Some(open) => open,
                None => {
                    let candidates = std::mem::take(&mut self.scratch.candidates);
                    search.insert(self.victim_search(target, task, probe, immovable, candidates))
                }
            };
            let (victim, evidence) = self.next_slack_victim(target, task, open)?;
            if evidence == VictimEvidence::Insufficient {
                if moves + 1 == k {
                    return None;
                }
                // The penultimate move looks one move ahead (see above).
                if moves + 2 == k && !self.some_partner_unblocks(target, task, victim, open, others)
                {
                    if !self.some_pair_unblocks(target, task, open, others)
                        || self.can_relocate(victim, target)
                    {
                        return None;
                    }
                    immovable.push(victim);
                    continue;
                }
            }
            #[cfg(debug_assertions)]
            let before: Vec<u64> = (0..self.config.cores)
                .map(|c| self.partition.core_generation(CoreId(c)))
                .collect();
            match self.relocate(victim, target) {
                Some(added) => {
                    moves += 1;
                    inflation += added;
                    probe = None;
                    blocked = false;
                    let spent = search.take();
                    self.recycle(spent);
                }
                None => {
                    #[cfg(debug_assertions)]
                    debug_assert!(
                        (0..self.config.cores)
                            .all(|c| self.partition.core_generation(CoreId(c)) == before[c]),
                        "a failed relocation of {victim} changed the partition"
                    );
                    immovable.push(victim);
                }
            }
        }
    }

    /// Keeps the candidate list of a victim search that is done with, for
    /// the next search to fill.
    fn recycle(&mut self, search: Option<VictimSearch>) {
        if let Some(search) = search {
            self.scratch.candidates = search.candidates;
        }
    }

    /// Opens the slack-guided victim search on `target` for the current
    /// partition state: every resident not yet found `immovable` is a
    /// candidate (split parents too — chain-aware relocation evicts the
    /// whole chain; never parents with remote pieces), and the blocker
    /// comes from the arrival's `probe` on the target when it is known,
    /// else from a fresh one. The candidates replace what `candidates`
    /// held.
    fn victim_search(
        &self,
        target: CoreId,
        arrival: &Task,
        probe: Option<WholeProbe>,
        immovable: &[TaskId],
        mut candidates: Vec<(f64, TaskId)>,
    ) -> VictimSearch {
        candidates.clear();
        candidates.extend(
            self.partition
                .core(target)
                .iter()
                .filter(|p| {
                    !immovable.contains(&p.parent) && !self.remote_parents.contains(&p.parent)
                })
                .map(|p| (p.task.utilization(), p.parent)),
        );
        // A core holds one placement per parent, so ids are distinct, the
        // order is total and an unstable sort (which never allocates)
        // gives the stable one.
        candidates.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.cmp(&b.1))
        });
        let probe =
            probe.unwrap_or_else(|| self.placer.probe_whole(&self.partition, target, arrival));
        let blocker = match probe {
            WholeProbe::Accepted => None, // unreachable in practice: repair runs after rejection
            WholeProbe::Blocked { blocker } => blocker,
        };
        VictimSearch {
            candidates,
            blocker,
            cursor: 0,
        }
    }

    /// Slack-guided victim choice: with the blocker localized (the task
    /// whose `deadline − response` slack goes negative with the arrival
    /// added), prune candidates that provably cannot relieve it, then
    /// evict the *smallest* task whose removal an exact what-if probe
    /// confirms to unblock the arrival. When no single eviction opens the
    /// hole, falls back to freeing the most capacity per move so
    /// multi-move repair still progresses. The pick leaves the search: it
    /// is either relocated (and the search dropped) or immovable.
    fn next_slack_victim(
        &self,
        target: CoreId,
        arrival: &Task,
        search: &mut VictimSearch,
    ) -> Option<(TaskId, VictimEvidence)> {
        // Pass 1: smallest candidate whose eviction provably unblocks the
        // arrival. Candidates ranked strictly below the blocker cannot
        // relieve it and are pruned without probing.
        while search.cursor < search.candidates.len() {
            let (_, id) = search.candidates[search.cursor];
            let pruned = search.blocker.is_some_and(|blocker| {
                id != blocker && !self.interferes_with(target, id, blocker, arrival)
            });
            if !pruned
                && self
                    .placer
                    .accepts_whole_without(&self.partition, target, arrival, &[id])
            {
                search.candidates.remove(search.cursor);
                return Some((id, VictimEvidence::Unblocks));
            }
            search.cursor += 1;
        }
        // Pass 2: no single eviction opens the hole — free the most
        // capacity per move; equal-utilization ties go to the task with
        // the smallest slack (relocating the most squeezed task relieves
        // the core's tightest constraint), then to the smallest id.
        let (index, _) = search
            .candidates
            .iter()
            .map(|&(utilization, id)| (utilization, self.slack_on(target, id), id))
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| b.1.cmp(&a.1))
                    .then_with(|| b.2.cmp(&a.2))
            })?;
        let (_, id) = search.candidates.remove(index);
        search.cursor = search.candidates.len();
        Some((id, VictimEvidence::Insufficient))
    }

    /// The slack (`deadline − response`) of `parent`'s placement on
    /// `core`, read from the core's converged analysis
    /// ([`CachedCoreAnalysis::slack_of`](spms_analysis::CachedCoreAnalysis::slack_of),
    /// free on a cached core). A provably missed deadline counts as zero
    /// slack (most squeezed).
    fn slack_on(&self, core: CoreId, parent: TaskId) -> Time {
        self.partition
            .core_analysis(core)
            .slack_of(parent)
            .flatten()
            .unwrap_or(Time::ZERO)
    }

    /// Whether `victim`'s placement on `target` interferes with `blocker`
    /// there — i.e. runs at higher-or-equal effective priority, so its
    /// eviction actually removes interference from the blocker. The blocker
    /// may be the (unplaced) arrival itself, which ranks by the same
    /// deadline-monotonic key the commit-time renormalization uses.
    fn interferes_with(
        &self,
        target: CoreId,
        victim: TaskId,
        blocker: TaskId,
        arrival: &Task,
    ) -> bool {
        let bin = self.partition.core(target);
        let Some(victim_placed) = bin.iter().find(|p| p.parent == victim) else {
            return false;
        };
        if blocker == arrival.id() {
            // Promoted split pieces outrank every whole task; whole victims
            // interfere with the arrival when their DM key ranks at or
            // above the arrival's (the same commit-time ranking rule the
            // placer's probes use).
            if victim_placed.is_split() {
                return true;
            }
            return spms_core::whole_outranks_or_ties(&victim_placed.task, arrival);
        }
        let Some(blocker_placed) = bin.iter().find(|p| p.parent == blocker) else {
            // Blocker not on this core (cannot happen for a target probe):
            // do not prune.
            return true;
        };
        let level =
            |placed: &spms_core::PlacedTask| placed.task.priority().map_or(u32::MAX, |p| p.level());
        level(victim_placed) <= level(blocker_placed)
    }

    /// Whether evicting `victim` together with some candidate still in
    /// `search` lets the arrival onto `target`: whether a last move can
    /// follow the victim's. See [`repair_moves`](Self::repair_moves).
    fn some_partner_unblocks(
        &mut self,
        target: CoreId,
        arrival: &Task,
        victim: TaskId,
        search: &VictimSearch,
        others: &[CoreId],
    ) -> bool {
        search
            .candidates
            .iter()
            .any(|&(_, partner)| self.pair_unblocks(target, arrival, [victim, partner], others))
    }

    /// Whether evicting some two candidates still in `search` lets the
    /// arrival onto `target`. See [`repair_moves`](Self::repair_moves).
    fn some_pair_unblocks(
        &mut self,
        target: CoreId,
        arrival: &Task,
        search: &VictimSearch,
        others: &[CoreId],
    ) -> bool {
        let candidates = &search.candidates;
        candidates.iter().enumerate().any(|(i, &(_, a))| {
            candidates[i + 1..]
                .iter()
                .any(|&(_, b)| self.pair_unblocks(target, arrival, [a, b], others))
        })
    }

    /// Whether evicting both of `pair` from `target` lets the arrival on,
    /// by the exact what-if probe. Debug builds check every rejection by
    /// evicting both through the journal and planning the arrival onto
    /// `target` alone (uncounted, rewound).
    fn pair_unblocks(
        &mut self,
        target: CoreId,
        arrival: &Task,
        pair: [TaskId; 2],
        others: &[CoreId],
    ) -> bool {
        let unblocks = self
            .placer
            .accepts_whole_without(&self.partition, target, arrival, &pair);
        debug_assert!(
            unblocks
                || scoped::uncounted(|| {
                    let inner = self.partition.journal_mark();
                    for parent in pair {
                        self.partition.remove_parent(parent);
                    }
                    let plan = self
                        .placer
                        .plan_whole(&self.partition, arrival, others, Time::ZERO);
                    self.partition.rewind(inner);
                    plan.is_none()
                }),
            "evicting {pair:?} from {target} unblocks {} after all",
            arrival.id()
        );
        unblocks
    }

    /// Moves `victim` off `target`, whole-first-fit over the other cores and
    /// re-splitting it across them if it fits nowhere whole. The victim is
    /// re-planned from its *pristine* admitted copy with one migration
    /// charge folded in (a relocated whole absorbs one charge; a re-split
    /// charges each later piece), so the move commits only if the inflated
    /// placement stays schedulable. Returns the inflation charged on
    /// success.
    ///
    /// A victim placed whole on `target` is planned *before* it is
    /// evicted: the plan excludes `target`, the only core the eviction
    /// changes, so it is exactly the plan the evicted partition would
    /// yield, and a failure leaves the partition untouched. A split victim
    /// spans several cores, so it is still evicted first and, on failure,
    /// rewound to an inner journal mark, leaving the enclosing repair
    /// scope open. Either way a failure is memoized under the
    /// pre-eviction generations of the cores the plan reads
    /// ([`Partition::core_generation`], see [`FailedRelocation`]); a
    /// repeat with the same target, charge and generations fails at once,
    /// before any eviction.
    fn relocate(&mut self, victim: TaskId, target: CoreId) -> Option<Time> {
        let charge = self.migration_charge(self.admitted.get(&victim)?);
        if self.memo_says_immovable(victim, target, charge) {
            return None;
        }
        if !self.whole_on(target, victim) {
            return self.relocate_split(victim, target, charge);
        }
        let original = &self.admitted[&victim];
        let Some(plan) = self
            .placer
            .plan(&self.partition, original, &[target], charge)
        else {
            self.note_failed_relocation(victim, target, charge);
            return None;
        };
        let inflation = plan_inflation(&plan, charge);
        self.partition.remove_parent(victim);
        self.placer.commit(&mut self.partition, original, plan);
        Some(inflation)
    }

    /// [`relocate`](Self::relocate) for a split victim: evict the whole
    /// chain, re-plan, and rewind to an inner mark if no plan exists. The
    /// rewind restores every generation, so the failure is memoized under
    /// the pre-eviction ones.
    fn relocate_split(&mut self, victim: TaskId, target: CoreId, charge: Time) -> Option<Time> {
        let original = &self.admitted[&victim];
        let inner = self.partition.journal_mark();
        self.partition.remove_parent(victim);
        if let Some(plan) = self
            .placer
            .plan(&self.partition, original, &[target], charge)
        {
            let inflation = plan_inflation(&plan, charge);
            self.placer.commit(&mut self.partition, original, plan);
            Some(inflation)
        } else {
            self.partition.rewind(inner);
            self.note_failed_relocation(victim, target, charge);
            None
        }
    }

    /// [`relocate`](Self::relocate) without the commit: whether `victim`
    /// has a relocation plan off `target`. The partition is left as it
    /// was, and a failure is memoized exactly as `relocate` memoizes it.
    fn can_relocate(&mut self, victim: TaskId, target: CoreId) -> bool {
        let Some(original) = self.admitted.get(&victim) else {
            return false;
        };
        let charge = self.migration_charge(original);
        if self.memo_says_immovable(victim, target, charge) {
            return false;
        }
        let movable = self.has_relocation_plan(victim, target, charge);
        if !movable {
            self.note_failed_relocation(victim, target, charge);
        }
        movable
    }

    /// Whether the failed-relocation memo already knows that `victim`
    /// cannot move off `target` with `charge` (counted as a memo hit).
    fn memo_says_immovable(&mut self, victim: TaskId, target: CoreId, charge: Time) -> bool {
        if !self.relocation_known_to_fail(victim, target, charge) {
            return false;
        }
        scoped::bump(HotCounter::RelocationMemoHits);
        debug_assert!(
            !scoped::uncounted(|| self.has_relocation_plan(victim, target, charge)),
            "memoized relocation failure of {victim} off {target} has a plan"
        );
        true
    }

    /// Whether `victim` has a relocation plan off `target` with `charge`,
    /// committing nothing. A victim placed whole on `target` is planned in
    /// place (the plan excludes the only core its eviction changes); a
    /// split victim is evicted inside an inner journal mark, planned and
    /// rewound, so the partition is left as it was either way.
    fn has_relocation_plan(&mut self, victim: TaskId, target: CoreId, charge: Time) -> bool {
        let original = &self.admitted[&victim];
        if self.whole_on(target, victim) {
            return self
                .placer
                .plan(&self.partition, original, &[target], charge)
                .is_some();
        }
        let inner = self.partition.journal_mark();
        self.partition.remove_parent(victim);
        let plan = self
            .placer
            .plan(&self.partition, original, &[target], charge);
        self.partition.rewind(inner);
        plan.is_some()
    }

    /// Whether `parent` is placed whole on `core`.
    fn whole_on(&self, core: CoreId, parent: TaskId) -> bool {
        self.partition
            .core(core)
            .iter()
            .any(|p| p.parent == parent && !p.is_split())
    }

    /// Memoizes a failed relocation under the current generations of every
    /// core but `target` (see [`FailedRelocation`]), in the victim's slot;
    /// a slot that already exists keeps its buffer.
    fn note_failed_relocation(&mut self, victim: TaskId, target: CoreId, charge: Time) {
        let slot = self
            .failed_relocations
            .entry(victim)
            .or_insert_with(|| FailedRelocation {
                target,
                charge,
                generations: Vec::new(),
            });
        slot.target = target;
        slot.charge = charge;
        slot.generations.clear();
        slot.generations
            .extend(generations_except(&self.partition, target));
    }

    /// Whether relocating `victim` off `target` with `charge` already
    /// failed on a partition whose other cores all still carry the same
    /// generations.
    fn relocation_known_to_fail(&self, victim: TaskId, target: CoreId, charge: Time) -> bool {
        self.failed_relocations.get(&victim).is_some_and(|failed| {
            failed.target == target
                && failed.charge == charge
                && failed
                    .generations
                    .iter()
                    .copied()
                    .eq(generations_except(&self.partition, target))
        })
    }

    // ------------------------------------------------------------------
    // full repartition fallback
    // ------------------------------------------------------------------

    /// Runs the offline FP-TS algorithm over the admitted set plus `task`
    /// and adopts its partition if schedulable. Returns the number of
    /// already-admitted tasks whose placement changed.
    fn try_fallback(&mut self, task: &Task) -> Option<usize> {
        if !self.config.allow_fallback {
            return None;
        }
        // A from-scratch repartition of this shard cannot re-place pieces
        // whose siblings live on other shards: while any cross-shard parent
        // is resident the fallback is withheld (the admitted map holds only
        // the piece-shaped remote fragments, not the original tasks).
        if !self.remote_parents.is_empty() {
            return None;
        }
        let mut all = self.admitted_tasks();
        all.push(task.clone());
        // A failing pass renders no reason: nothing here would read it.
        let mut new = self
            .offline_partitioner()
            .schedulable_partition(&all, self.config.cores)?;
        let migrations = moved_parents(&self.partition, &new, task.id());
        // The offline pass ranks whole tasks by global rate-monotonic
        // levels; every later probe and commit assumes the per-core
        // deadline-monotonic discipline. Renormalize before adopting so the
        // stored priorities (and the cache snapshot below) match what the
        // placer's candidate ranking expects — for constrained deadlines
        // the two orders genuinely differ. DM is optimal among
        // fixed-priority assignments, so a schedulable adoption stays
        // schedulable.
        for core in 0..new.core_count() {
            new.renormalize_core_priorities(CoreId(core));
        }
        // The adopted partition is a fresh object: re-attach the
        // incremental analysis cache the cascade threads through every
        // later decision.
        new.enable_analysis_cache();
        if self.config.cross_shard_split {
            new.allow_partial_chains();
        }
        self.partition = new;
        self.failed_relocations.clear();
        Some(migrations)
    }

    /// The offline algorithm the fallback (and the no-over-admission
    /// property tests) use: FP-TS configured identically to the incremental
    /// placer.
    pub fn offline_partitioner(&self) -> SemiPartitionedFpTs {
        SemiPartitionedFpTs::default()
            .with_overhead(self.config.overhead)
            .with_min_split_budget(self.config.min_split_budget)
    }

    // ------------------------------------------------------------------
    // departures
    // ------------------------------------------------------------------

    fn depart(&mut self, id: TaskId) -> DecisionKind {
        if self.remove_admitted(id).is_none() {
            return DecisionKind::DepartUnknown;
        }
        self.remote_parents.remove(&id);
        let removed = self.partition.remove_parent(id);
        debug_assert!(removed > 0, "admitted task {id} had no placements");
        DecisionKind::Departed
    }

    // ------------------------------------------------------------------
    // admitted-set bookkeeping
    // ------------------------------------------------------------------

    /// Adds (or replaces) one admitted task, keeping the utilization sum in
    /// step and dropping the task's relocation memo slot.
    fn insert_admitted(&mut self, task: Task) {
        self.forget_failed_relocation(task.id());
        self.admitted_sum.add(task.utilization());
        if let Some(old) = self.admitted.insert(task.id(), task) {
            self.admitted_sum
                .sub(old.utilization(), self.admitted.len());
        }
    }

    /// Removes one admitted task, keeping the utilization sum in step and
    /// dropping the task's relocation memo slot.
    fn remove_admitted(&mut self, id: TaskId) -> Option<Task> {
        self.forget_failed_relocation(id);
        let task = self.admitted.remove(&id)?;
        self.admitted_sum
            .sub(task.utilization(), self.admitted.len());
        Some(task)
    }

    /// Drops `id`'s slot in the relocation memo; free while the memo is
    /// empty, as it is on every fast-path decision.
    fn forget_failed_relocation(&mut self, id: TaskId) {
        if !self.failed_relocations.is_empty() {
            self.failed_relocations.remove(&id);
        }
    }
}

/// A running sum of the admitted utilizations with a rigorous bound on how
/// far rounding has carried it from the exact (real-number) sum.
///
/// The platform check must answer exactly as the id-ordered fold
/// `admitted.values().map(Task::utilization).sum()` would. The running sum
/// answers alone whenever `sum + u` is further from the capacity than the
/// combined rounding of both: its own drift plus `(n + 2)·ε·(sum + u +
/// capacity)`, which bounds the fold's `n − 1` additions, the two
/// additions of `u` and the comparison (every term is positive, so no
/// partial sum exceeds the total). Inside that slack it falls back to the
/// fold, and re-anchors on it. Each update adds `ε·|sum|` to the drift (a
/// rounding step errs by at most half that); once the drift accrued since
/// the last anchor passes [`UtilizationSum::REANCHOR`] the next check
/// re-anchors first, so the slack stays near the fold's own.
#[derive(Debug, Clone, Copy, Default)]
struct UtilizationSum {
    sum: f64,
    /// Bound on `|sum − exact sum|`.
    drift: f64,
    /// The part of `drift` accrued since the last anchor.
    accrued: f64,
}

impl UtilizationSum {
    /// Accrued drift past which the next check re-anchors on the fold.
    const REANCHOR: f64 = 1e-12;

    fn add(&mut self, u: f64) {
        self.sum += u;
        self.accrue();
    }

    /// Removes `u`, leaving `remaining` tasks; an empty set is summed
    /// exactly.
    fn sub(&mut self, u: f64, remaining: usize) {
        if remaining == 0 {
            *self = UtilizationSum::default();
        } else {
            self.sum -= u;
            self.accrue();
        }
    }

    fn accrue(&mut self) {
        let step = f64::EPSILON * self.sum.abs();
        self.drift += step;
        self.accrued += step;
    }

    /// Resets the sum to the fold over `n` tasks, whose own rounding
    /// becomes the drift.
    fn anchor(&mut self, fold: f64, n: usize) {
        self.sum = fold;
        self.drift = n as f64 * f64::EPSILON * fold.abs();
        self.accrued = 0.0;
    }

    /// Whether the next check re-anchors first.
    fn needs_anchor(&self) -> bool {
        self.accrued > Self::REANCHOR
    }

    /// The fold's verdict on `fold + u > capacity` over `n` tasks, or
    /// `None` when `sum + u` lies within the rounding slack of
    /// `capacity`.
    fn verdict(&self, u: f64, capacity: f64, n: usize) -> Option<bool> {
        let total = self.sum + u;
        let slack = self.drift + (n + 2) as f64 * f64::EPSILON * (self.sum.abs() + u + capacity);
        if total > capacity + slack {
            Some(true)
        } else if total < capacity - slack {
            Some(false)
        } else {
            None
        }
    }

    /// Exactly `admitted`'s fold `+ u > capacity`: answered by the running
    /// sum outside the slack, by the fold (which re-anchors the sum)
    /// inside it.
    fn exceeds(&mut self, admitted: &BTreeMap<TaskId, Task>, u: f64, capacity: f64) -> bool {
        let fold = || admitted.values().map(Task::utilization).sum::<f64>();
        let n = admitted.len();
        if self.needs_anchor() {
            self.anchor(fold(), n);
        }
        self.verdict(u, capacity, n).unwrap_or_else(|| {
            let fold = fold();
            self.anchor(fold, n);
            fold + u > capacity
        })
    }
}

/// The controller *is* the production admission shard: one decision
/// cascade over one partition slice. See [`AdmissionShard`](crate::AdmissionShard)
/// for the bookkeeping contract of the rebalancer plumbing methods.
impl crate::AdmissionShard for AdmissionController {
    fn decide(&mut self, event: &WorkloadEvent) -> Decision {
        self.handle_event(event)
    }

    fn resident(&self, id: TaskId) -> bool {
        self.is_admitted(id)
    }

    fn admitted_utilization(&self) -> f64 {
        AdmissionController::admitted_utilization(self)
    }

    fn core_count(&self) -> usize {
        self.config.cores
    }

    fn partition(&self) -> &Partition {
        &self.partition
    }

    fn partition_mut(&mut self) -> &mut Partition {
        &mut self.partition
    }

    fn lookup_admitted(&self, id: TaskId) -> Option<Task> {
        self.admitted.get(&id).cloned()
    }

    fn forget_admitted(&mut self, id: TaskId) -> Option<Task> {
        self.remove_admitted(id)
    }

    fn note_admitted(&mut self, task: Task) {
        self.insert_admitted(task);
    }

    fn note_remote_admitted(&mut self, piece: Task) {
        self.remote_parents.insert(piece.id());
        self.insert_admitted(piece);
    }

    fn placer(&self) -> &IncrementalPlacer {
        &self.placer
    }

    fn cost_model(&self) -> CostModelSpec {
        self.config.cost_model.clone()
    }

    fn metrics_registry(&self) -> Option<&spms_telemetry::Registry> {
        Some(self.metrics.registry())
    }
}

/// The generations of every core of `partition` but `target`, in index
/// order.
fn generations_except(partition: &Partition, target: CoreId) -> impl Iterator<Item = u64> + '_ {
    (0..partition.core_count())
        .map(CoreId)
        .filter(move |c| *c != target)
        .map(|c| partition.core_generation(c))
}

/// Total WCET inflation a committed plan carries for one per-migration
/// `charge`: a charged whole placement absorbs one charge, a split chain
/// one per piece after the first (the first piece never crosses a
/// boundary). Mirrors the charging rule inside
/// [`IncrementalPlacer::plan`].
fn plan_inflation(plan: &PlacementPlan, charge: Time) -> Time {
    match plan {
        PlacementPlan::Whole { .. } => charge,
        PlacementPlan::Split { pieces } => charge * (pieces.len().saturating_sub(1) as u64),
    }
}

/// Counts the parents (other than `arriving`) whose placement — the set of
/// `(core, piece index)` pairs — differs between `old` and `new`: both
/// partitions' `(parent, core, piece index)` triples are sorted once and
/// walked side by side, one parent's group at a time.
fn moved_parents(old: &Partition, new: &Partition, arriving: TaskId) -> usize {
    let sorted_triples = |p: &Partition| {
        let mut triples: Vec<(TaskId, usize, usize)> = p
            .iter()
            .map(|(core, placed)| {
                let part = placed.split.as_ref().map_or(0, |s| s.part_index);
                (placed.parent, core.0, part)
            })
            .collect();
        triples.sort_unstable();
        triples
    };
    let (old, new) = (sorted_triples(old), sorted_triples(new));
    let mut new_groups = new.chunk_by(|a, b| a.0 == b.0).peekable();
    let mut moved = 0;
    for group in old.chunk_by(|a, b| a.0 == b.0) {
        let parent = group[0].0;
        while new_groups.next_if(|g| g[0].0 < parent).is_some() {}
        if parent != arriving && new_groups.peek() != Some(&group) {
            moved += 1;
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms_core::{PartitionOutcome, Partitioner};

    fn task(id: u32, wcet_ms: u64, period_ms: u64) -> Task {
        Task::new(id, Time::from_millis(wcet_ms), Time::from_millis(period_ms)).unwrap()
    }

    /// A task with period 100 ms and a constrained deadline.
    fn constrained(id: u32, wcet_ms: u64, deadline_ms: u64) -> Task {
        Task::builder(id)
            .wcet(Time::from_millis(wcet_ms))
            .period(Time::from_millis(100))
            .deadline(Time::from_millis(deadline_ms))
            .build()
            .unwrap()
    }

    fn arrive(c: &mut AdmissionController, t: Task) -> DecisionKind {
        c.handle_event(&WorkloadEvent::Arrive(t)).kind
    }

    /// A config builder where all tasks share a 10 ms period, so per-core
    /// RTA accepts exactly up to 100% utilization — convenient for
    /// constructing repair and fallback scenarios.
    fn two_cores_no_split() -> OnlineConfigBuilder {
        OnlineConfig::builder()
            .cores(2)
            .min_split_budget(Time::from_secs(10))
    }

    #[test]
    fn zero_cores_is_an_error() {
        assert_eq!(
            AdmissionController::new(OnlineConfig::new(0)).unwrap_err(),
            OnlineError::NoCores
        );
    }

    #[test]
    fn light_arrivals_take_the_fast_whole_path() {
        let mut c = AdmissionController::new(OnlineConfig::new(2)).unwrap();
        for id in 0..4 {
            let kind = arrive(&mut c, task(id, 1, 10));
            assert_eq!(
                kind,
                DecisionKind::Admitted {
                    path: DecisionPath::FastWhole,
                    migrations: 0,
                    inflation: Time::ZERO
                }
            );
        }
        assert_eq!(c.admitted_count(), 4);
        assert_eq!(c.stats().fast_whole, 4);
        assert!(c.partition().is_schedulable());
    }

    #[test]
    fn splitting_admits_what_whole_placement_cannot() {
        let mut c = AdmissionController::new(OnlineConfig::new(2)).unwrap();
        for id in 0..2 {
            arrive(&mut c, task(id, 6, 10));
        }
        let kind = arrive(&mut c, task(2, 6, 10));
        assert_eq!(
            kind,
            DecisionKind::Admitted {
                path: DecisionPath::FastSplit,
                migrations: 0,
                inflation: Time::ZERO
            }
        );
        assert_eq!(c.partition().split_count(), 1);
        assert!(c.partition().is_schedulable());
    }

    #[test]
    fn repair_relocates_a_blocking_task() {
        // P0 fills with A (0.30) and B (0.55); C (0.60) lands on P1. D
        // (0.45) fits nowhere whole and splitting is disabled; moving A to
        // P1 frees exactly enough room on P0.
        let mut c = AdmissionController::new(two_cores_no_split().build()).unwrap();
        arrive(&mut c, task(0, 3, 10));
        arrive(&mut c, task(1, 55, 100));
        arrive(&mut c, task(2, 6, 10));
        let kind = arrive(&mut c, task(3, 45, 100));
        assert_eq!(
            kind,
            DecisionKind::Admitted {
                path: DecisionPath::Repair,
                migrations: 1,
                inflation: Time::ZERO
            }
        );
        assert_eq!(c.stats().repairs, 1);
        assert_eq!(c.stats().migrations_caused, 1);
        assert!(c.partition().is_schedulable());
    }

    #[test]
    fn repair_targets_rank_by_blocker_deficit() {
        // P0 carries 0.85, P1 carries 0.55. A 0.50 arrival fits nowhere
        // whole; the repair cascade must try P1 first (deficit 0.05) and
        // P0 last (deficit 0.35) — not index order.
        let mut c = AdmissionController::new(two_cores_no_split().build()).unwrap();
        arrive(&mut c, task(0, 85, 100));
        arrive(&mut c, task(1, 55, 100));
        let mut targets = vec![(false, 0.0, CoreId(7), WholeProbe::Accepted)];
        c.repair_target_order(&task(2, 50, 100), &mut targets);
        let order: Vec<CoreId> = targets.iter().map(|&(_, _, core, _)| core).collect();
        assert_eq!(
            order,
            vec![CoreId(1), CoreId(0)],
            "the core needing the least shed utilization must come first"
        );
    }

    #[test]
    fn full_repartition_is_the_last_resort() {
        // A (0.35) and B (0.35) pack onto P0, C (0.65) onto P1. D (0.65)
        // fits nowhere whole, splitting and repair are disabled, but the
        // offline algorithm places {0.65, 0.35} on each core from scratch.
        let config = two_cores_no_split().max_repair_moves(0).build();
        let mut c = AdmissionController::new(config).unwrap();
        arrive(&mut c, task(0, 35, 100));
        arrive(&mut c, task(1, 35, 100));
        arrive(&mut c, task(2, 65, 100));
        let kind = arrive(&mut c, task(3, 65, 100));
        assert_eq!(
            kind,
            DecisionKind::Admitted {
                path: DecisionPath::FullRepartition,
                migrations: 2,
                inflation: Time::ZERO
            }
        );
        assert!(c.partition().is_schedulable());
        // Everything the controller admitted is still placed.
        assert_eq!(c.partition().parent_ids().len(), 4);
    }

    #[test]
    fn every_decision_passes_the_scratch_rta_audit() {
        // The independent oracle: after every decision each core passes
        // from-scratch RTA, and every converged cache slot holds exactly
        // the scratch response times.
        let events = crate::ChurnGenerator::new()
            .cores(2)
            .target_normalized_utilization(0.95)
            .events(200)
            .seed(7)
            .generate()
            .unwrap();
        let mut c = AdmissionController::new(OnlineConfig::new(2)).unwrap();
        assert!(c.partition().cached_core(CoreId(0)).is_some());
        for (i, event) in events.iter().enumerate() {
            c.handle_event(event);
            assert_eq!(c.partition().scratch_audit(), Ok(()), "event {i}");
        }
        let stats = c.stats();
        assert!(
            stats.fast_split > 0 && stats.repairs > 0 && stats.rejected > 0,
            "the trace must exercise split, repair and rejection: {stats:?}"
        );
    }

    #[test]
    fn rolled_back_repair_restores_the_cache_state() {
        // Two 90% tasks leave no room: the repair pass tries (and fails) to
        // relocate them before the arrival is rejected; the rollback must
        // restore not just the placements but the attached analysis cache.
        let config = two_cores_no_split().fallback(false).build();
        let mut c = AdmissionController::new(config).unwrap();
        arrive(&mut c, task(0, 9, 10));
        arrive(&mut c, task(1, 9, 10));
        let before = c.partition().clone();
        assert!(before.cached_core(CoreId(0)).is_some());
        let kind = arrive(&mut c, task(2, 15, 100));
        assert_eq!(
            kind,
            DecisionKind::Rejected {
                reason: RejectionReason::NoFeasiblePlacement
            }
        );
        for core in 0..2 {
            assert_eq!(
                c.partition().cached_core(CoreId(core)),
                before.cached_core(CoreId(core)),
                "cache state diverged on core {core} after rollback"
            );
        }
    }

    #[test]
    fn moved_parents_counts_every_parent_whose_pieces_moved() {
        // The definition: a parent moved when its sorted (core, piece
        // index) signature differs between the two partitions.
        let by_signature = |old: &Partition, new: &Partition, arriving: TaskId| {
            let signature = |p: &Partition, parent: TaskId| {
                let mut sig: Vec<(usize, usize)> = p
                    .placements_of(parent)
                    .into_iter()
                    .map(|(core, placed)| {
                        (core.0, placed.split.as_ref().map_or(0, |s| s.part_index))
                    })
                    .collect();
                sig.sort_unstable();
                sig
            };
            old.parent_ids()
                .into_iter()
                .filter(|parent| *parent != arriving)
                .filter(|parent| signature(old, *parent) != signature(new, *parent))
                .count()
        };
        let fpts = SemiPartitionedFpTs::default();
        let (mut compared, mut moved) = (0, 0);
        for seed in 0..40 {
            let all = spms_task::TaskSetGenerator::new()
                .task_count(10)
                .total_utilization(3.3)
                .seed(seed)
                .generate()
                .unwrap();
            let before: TaskSet = all.iter().take(9).cloned().collect();
            let (Ok(PartitionOutcome::Schedulable(old)), Ok(PartitionOutcome::Schedulable(new))) =
                (fpts.partition(&before, 4), fpts.partition(&all, 4))
            else {
                continue;
            };
            let arriving = all[9].id();
            let count = moved_parents(&old, &new, arriving);
            assert_eq!(count, by_signature(&old, &new, arriving), "seed {seed}");
            assert_eq!(moved_parents(&old, &old, arriving), 0);
            compared += 1;
            moved += count;
        }
        assert!(
            compared > 10 && moved > 0,
            "{compared} pairs, {moved} moves"
        );
    }

    #[test]
    fn fallback_with_constrained_deadlines_passes_the_scratch_audit() {
        // The offline fallback assigns global rate-monotonic priorities,
        // but every probe and commit ranks whole tasks deadline-
        // monotonically; with constrained deadlines (D < T) the two orders
        // genuinely differ, so the adoption must renormalize before the
        // cache snapshots the cores — otherwise post-fallback probes rank
        // candidates against priorities the cores do not carry.
        let constrained = |id: u32, wcet: u64, period: u64, deadline: u64| {
            Task::builder(id)
                .wcet(Time::from_millis(wcet))
                .period(Time::from_millis(period))
                .deadline(Time::from_millis(deadline))
                .build()
                .unwrap()
        };
        let mut fallbacks = 0;
        for variant in 0..8u64 {
            // Patterned constrained-deadline arrivals heavy enough to push
            // the cascade (split and repair disabled) into the fallback.
            let events: Vec<WorkloadEvent> = (0..12u64)
                .map(|i| {
                    let period = 60 + ((i * 17 + variant * 29) % 60);
                    let wcet = 6 + ((i * 11 + variant * 7) % (period / 3));
                    let deadline = period - ((i * 13 + variant * 5) % (period / 2));
                    WorkloadEvent::Arrive(constrained(i as u32, wcet, period, deadline.max(wcet)))
                })
                .collect();
            let config = two_cores_no_split().max_repair_moves(0).build();
            let mut cached = AdmissionController::new(config).unwrap();
            for (i, event) in events.iter().enumerate() {
                cached.handle_event(event);
                assert_eq!(
                    cached.partition().scratch_audit(),
                    Ok(()),
                    "variant {variant} event {i}"
                );
            }
            fallbacks += cached.stats().full_repartitions;
            // The adopted partition must follow the per-core DM discipline:
            // whole-task priority order matches (deadline, period, id).
            for core in 0..2 {
                let mut wholes: Vec<&Task> = cached
                    .partition()
                    .core(CoreId(core))
                    .iter()
                    .filter(|p| !p.is_split())
                    .map(|p| &p.task)
                    .collect();
                wholes.sort_by_key(|t| t.priority().expect("whole tasks are prioritised"));
                let dm_sorted = wholes
                    .windows(2)
                    .all(|w| (w[0].deadline(), w[0].period()) <= (w[1].deadline(), w[1].period()));
                assert!(dm_sorted, "variant {variant} core {core} not DM-ordered");
            }
        }
        assert!(fallbacks > 0, "the scenario never exercised the fallback");
    }

    #[test]
    fn full_repartition_reattaches_the_cache() {
        let config = two_cores_no_split().max_repair_moves(0).build();
        let mut c = AdmissionController::new(config).unwrap();
        arrive(&mut c, task(0, 35, 100));
        arrive(&mut c, task(1, 35, 100));
        arrive(&mut c, task(2, 65, 100));
        arrive(&mut c, task(3, 65, 100));
        assert_eq!(c.stats().full_repartitions, 1);
        assert!(c.partition().cached_core(CoreId(0)).is_some());
        for core in 0..2 {
            assert!(
                c.partition().cached_core(CoreId(core)).is_some(),
                "core {core} cache not converged after adoption"
            );
        }
    }

    #[test]
    fn split_bodies_sit_on_the_exact_frontier() {
        // Every body a fast split carves is as large as its core allows:
        // either it used all the budget the chain offered, or one more
        // nanosecond makes the core unschedulable from scratch.
        let events = crate::ChurnGenerator::new()
            .cores(4)
            .target_normalized_utilization(0.95)
            .events(120)
            .seed(13)
            .generate()
            .unwrap();
        let mut controller = AdmissionController::new(OnlineConfig::new(4)).unwrap();
        let mut bodies = 0;
        for event in &events {
            let decision = controller.handle_event(event);
            let (
                DecisionKind::Admitted {
                    path: DecisionPath::FastSplit,
                    ..
                },
                WorkloadEvent::Arrive(task),
            ) = (decision.kind, event)
            else {
                continue;
            };
            let partition = controller.partition();
            let placements = partition.placements_of(task.id());
            let (core, body) = placements
                .iter()
                .find(|(_, p)| p.split.as_ref().is_some_and(|s| s.part_index == 0))
                .expect("a split admission carves a first body");
            let offered = (task.wcet() - Time::from_nanos(1)).min(task.deadline());
            if body.execution == offered {
                continue;
            }
            let wider = Task::builder(task.id())
                .wcet(body.task.wcet() + Time::from_nanos(1))
                .period(task.period())
                .deadline(body.task.wcet() + Time::from_nanos(1))
                .priority(spms_core::BODY_PRIORITY)
                .build()
                .unwrap();
            let mut core_tasks: Vec<Task> = partition
                .core(*core)
                .iter()
                .filter(|p| p.parent != task.id())
                .map(|p| p.task.clone())
                .collect();
            core_tasks.push(wider);
            assert!(
                !spms_analysis::rta::is_core_schedulable(&core_tasks),
                "body of task {} stopped short of its frontier",
                task.id()
            );
            bodies += 1;
        }
        assert!(bodies > 0, "the trace never carved a frontier-bound body");
    }

    #[test]
    fn journal_cascade_is_clone_free() {
        // The acceptance criterion of the journal refactor: no
        // full-partition clones remain anywhere on the decision hot path,
        // repair rollback included.
        let events = crate::ChurnGenerator::new()
            .cores(2)
            .target_normalized_utilization(0.95)
            .events(120)
            .seed(11)
            .generate()
            .unwrap();
        let mut c = AdmissionController::new(OnlineConfig::new(2)).unwrap();
        let before = spms_core::Partition::clone_count();
        for event in &events {
            c.handle_event(event);
        }
        assert_eq!(
            spms_core::Partition::clone_count(),
            before,
            "the journal-based cascade cloned a partition"
        );
        assert!(
            c.stats().repairs + c.stats().full_repartitions > 0,
            "the trace never left the fast path"
        );
    }

    #[test]
    fn slack_ranking_admits_what_utilization_ranking_rejects() {
        // Two cores, k = 1, splits and fallback disabled; all periods
        // 100 ms. P0 holds BIG (46 ms, D = 100) and SMALL (25 ms, D = 40);
        // P1 holds L (30 ms, D = 59). The arrival M (30 ms, D = 50) fits
        // nowhere whole: on P0 SMALL's interference pushes M to 55 > 50,
        // on P1 M's interference pushes L to 60 > 59.
        //
        // Only evicting SMALL unblocks P0 (M's blocker is M itself, and
        // SMALL is the interference above it — evicting BIG, ranked below
        // M, frees nothing M can use). A largest-utilization-first ranking
        // would evict BIG: the move *succeeds* (BIG fits on P1), burns the
        // single repair move, and M is still blocked — the arrival would
        // be rejected. Slack-guided ranking probes SMALL first (smallest
        // candidate that provably unblocks), relocates it to P1 and admits
        // M with the same single move.
        let trace = [
            constrained(0, 46, 100), // BIG → P0
            constrained(1, 25, 40),  // SMALL → P0
            constrained(4, 30, 59),  // L → P0 rejected (BIG at 101) → P1
            constrained(9, 30, 50),  // M: the contested arrival
        ];
        let config = two_cores_no_split()
            .max_repair_moves(1)
            .fallback(false)
            .build();
        let mut slack = AdmissionController::new(config).unwrap();
        let slack_decisions: Vec<DecisionKind> = trace
            .iter()
            .map(|t| arrive(&mut slack, t.clone()))
            .collect();
        assert_eq!(
            slack_decisions[3],
            DecisionKind::Admitted {
                path: DecisionPath::Repair,
                migrations: 1,
                inflation: Time::ZERO
            },
            "slack ranking should evict SMALL and admit M"
        );
        assert!(slack.partition().is_schedulable());
        // Soundness: every core of the slack-admitted partition passes a
        // from-scratch exact RTA (not the cache, not the offline heuristic
        // — whose first-fit search cannot find this arrangement and proves
        // nothing about it).
        for responses in slack.partition().response_times() {
            assert!(responses.iter().all(Option::is_some));
        }
        assert_eq!(slack.partition().validate(), Ok(()));
    }

    #[test]
    fn slack_ranking_relocates_split_chains() {
        // Chain-aware relocation: under slack ranking a split parent is a
        // legal victim — its whole chain is removed and re-placed.
        let mut c = AdmissionController::new(OnlineConfig::new(2)).unwrap();
        for id in 0..2 {
            arrive(&mut c, task(id, 6, 10));
        }
        arrive(&mut c, task(2, 6, 10));
        assert_eq!(c.partition().split_count(), 1, "setup: task 2 is split");
        // Both cores now carry ~90%; a 30% whole arrival has no room and
        // no split capacity. Whether or not repair succeeds, picking a
        // victim must consider the split parent without corrupting the
        // partition.
        arrive(&mut c, task(3, 3, 10));
        assert_eq!(c.partition().validate(), Ok(()));
        assert!(c.partition().is_schedulable());
    }

    #[test]
    fn rejection_leaves_the_partition_untouched() {
        let config = two_cores_no_split()
            .max_repair_moves(0)
            .fallback(false)
            .build();
        let mut c = AdmissionController::new(config).unwrap();
        arrive(&mut c, task(0, 9, 10));
        arrive(&mut c, task(1, 9, 10));
        let before = c.partition().clone();
        // Total utilization (1.95) still fits the platform, but neither core
        // can absorb another 15% on top of its 90%.
        let kind = arrive(&mut c, task(2, 15, 100));
        assert_eq!(
            kind,
            DecisionKind::Rejected {
                reason: RejectionReason::NoFeasiblePlacement
            }
        );
        assert_eq!(c.partition(), &before);
        assert_eq!(c.admitted_count(), 2);
    }

    #[test]
    fn overload_is_rejected_before_any_analysis() {
        let mut c = AdmissionController::new(OnlineConfig::new(1)).unwrap();
        arrive(&mut c, task(0, 9, 10));
        let kind = arrive(&mut c, task(1, 2, 10));
        assert_eq!(
            kind,
            DecisionKind::Rejected {
                reason: RejectionReason::PlatformOverloaded
            }
        );
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let mut c = AdmissionController::new(OnlineConfig::new(2)).unwrap();
        arrive(&mut c, task(0, 1, 10));
        let kind = arrive(&mut c, task(0, 1, 10));
        assert_eq!(
            kind,
            DecisionKind::Rejected {
                reason: RejectionReason::DuplicateTask
            }
        );
    }

    #[test]
    fn departures_release_capacity() {
        let mut c = AdmissionController::new(OnlineConfig::new(1)).unwrap();
        arrive(&mut c, task(0, 6, 10));
        assert_eq!(
            arrive(&mut c, task(1, 6, 10)),
            DecisionKind::Rejected {
                reason: RejectionReason::PlatformOverloaded
            }
        );
        assert_eq!(
            c.handle_event(&WorkloadEvent::Depart(TaskId(0))).kind,
            DecisionKind::Departed
        );
        assert_eq!(c.admitted_count(), 0);
        assert_eq!(c.partition().placement_count(), 0);
        assert!(matches!(
            arrive(&mut c, task(1, 6, 10)),
            DecisionKind::Admitted { .. }
        ));
    }

    #[test]
    fn unknown_departures_are_noops() {
        let mut c = AdmissionController::new(OnlineConfig::new(1)).unwrap();
        assert_eq!(
            c.handle_event(&WorkloadEvent::Depart(TaskId(9))).kind,
            DecisionKind::DepartUnknown
        );
        assert_eq!(c.stats().unknown_departures, 1);
    }

    #[test]
    fn split_task_departure_removes_every_piece() {
        let mut c = AdmissionController::new(OnlineConfig::new(2)).unwrap();
        for id in 0..2 {
            arrive(&mut c, task(id, 6, 10));
        }
        arrive(&mut c, task(2, 6, 10));
        assert_eq!(c.partition().split_count(), 1);
        c.handle_event(&WorkloadEvent::Depart(TaskId(2)));
        assert_eq!(c.partition().split_count(), 0);
        assert_eq!(c.partition().placement_count(), 2);
    }

    #[test]
    fn decisions_are_deterministic() {
        let events: Vec<WorkloadEvent> = (0..8)
            .map(|i| WorkloadEvent::Arrive(task(i, 4, 10)))
            .chain([WorkloadEvent::Depart(TaskId(3))])
            .collect();
        let run = || {
            let mut c = AdmissionController::new(OnlineConfig::new(2)).unwrap();
            let decisions: Vec<Decision> = events.iter().map(|e| c.handle_event(e)).collect();
            (decisions, c.partition().clone())
        };
        assert_eq!(run(), run());
    }

    /// The O(1) platform check answers exactly as the id-ordered fold of
    /// the admitted map, step by step, over long random admit/depart
    /// walks. Half of them use near-threshold sets: `k·(1/3)`, `k·(1/7)`
    /// or 0.1 steps topped up with `1e-9` tips, so `sum + u` keeps landing
    /// within rounding of `cores + 1e-9`, where the check must fall back
    /// to the fold.
    #[test]
    fn the_running_utilization_sum_answers_as_the_fold_does() {
        use rand::{Rng, SeedableRng};
        let tip = (1, 1_000_000_000);
        let near_pools: [[(u64, u64); 2]; 3] = [[(1, 3), tip], [(1, 7), tip], [(1, 10), tip]];
        let (mut steps, mut fallbacks, mut anchors) = (0usize, 0usize, 0usize);
        for walk in 0..8u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(walk);
            let cores = 2 + walk as usize % 5;
            let capacity = cores as f64 + 1e-9;
            let near = (walk % 2 == 0).then(|| near_pools[walk as usize / 2 % 3]);
            let mut admitted = BTreeMap::new();
            let mut sum = UtilizationSum::default();
            let mut next_id = 0u32;
            for _ in 0..15_000 {
                steps += 1;
                if admitted.is_empty() || rng.gen_bool(0.6) {
                    let (wcet, period) = match near {
                        Some(pool) => pool[rng.gen_range(0..pool.len())],
                        None => {
                            let wcet = rng.gen_range(1..=1_000_000u64);
                            (wcet, wcet + rng.gen_range(0..=20_000_000u64))
                        }
                    };
                    let arrival =
                        Task::new(next_id, Time::from_nanos(wcet), Time::from_nanos(period))
                            .unwrap();
                    next_id += 1;
                    let u = arrival.utilization();
                    let fold: f64 = admitted.values().map(Task::utilization).sum();
                    let expected = fold + u > capacity;
                    fallbacks += usize::from(sum.verdict(u, capacity, admitted.len()).is_none());
                    anchors += usize::from(sum.needs_anchor());
                    assert_eq!(
                        sum.exceeds(&admitted, u, capacity),
                        expected,
                        "walk {walk}: fold {fold:e} + {u:e} vs {capacity}, running {sum:?}"
                    );
                    if !expected {
                        sum.add(u);
                        admitted.insert(arrival.id(), arrival);
                    }
                } else {
                    let nth = rng.gen_range(0..admitted.len());
                    let id = *admitted.keys().nth(nth).unwrap();
                    let departed = admitted.remove(&id).unwrap();
                    sum.sub(departed.utilization(), admitted.len());
                }
            }
        }
        assert!(steps >= 100_000);
        assert!(fallbacks > 0, "no step fell inside the rounding slack");
        assert!(anchors > 0, "the drift never grew past the re-anchor point");
    }

    #[test]
    fn metrics_mirror_outcomes_stages_and_traces() {
        let mut c = AdmissionController::new(OnlineConfig::new(2)).unwrap();
        arrive(&mut c, task(0, 4, 10)); // fast-whole
        arrive(&mut c, task(0, 4, 10)); // duplicate rejection
        c.handle_event(&WorkloadEvent::Depart(TaskId(0)));
        c.handle_event(&WorkloadEvent::Depart(TaskId(9))); // unknown departure
        let r = c.metrics().registry();
        assert_eq!(r.counter_by_name("spms_events_total"), Some(4));
        assert_eq!(r.counter_by_name("spms_arrivals_total"), Some(2));
        assert_eq!(r.counter_by_name("spms_admitted_fast_whole_total"), Some(1));
        assert_eq!(r.counter_by_name("spms_rejected_duplicate_total"), Some(1));
        assert_eq!(r.counter_by_name("spms_departures_total"), Some(1));
        assert_eq!(r.counter_by_name("spms_unknown_departures_total"), Some(1));
        // Only the admitted arrival reached the cascade; the duplicate was
        // rejected before stage one.
        assert_eq!(
            r.counter_by_name("spms_mech_stage_fast_whole_attempts_total"),
            Some(1)
        );
        assert_eq!(
            r.counter_by_name("spms_mech_stage_fast_whole_successes_total"),
            Some(1)
        );
        // The fast-whole probe is visible in the folded hot counters.
        assert!(r.counter_by_name("spms_mech_whole_probes_total").unwrap() >= 1);
        // Every event left a trace, the admission's carrying one span.
        assert_eq!(c.metrics().traces().len(), 4);
        let first = c.metrics().traces().iter().next().unwrap();
        assert_eq!(first.label, "admitted_fast_whole");
        assert_eq!(first.spans.len(), 1);
    }

    #[test]
    fn stats_ratios() {
        let stats = ControllerStats {
            arrivals: 10,
            admitted: 8,
            fast_whole: 5,
            fast_split: 1,
            ..ControllerStats::default()
        };
        assert!((stats.acceptance_ratio() - 0.8).abs() < 1e-12);
        assert!((stats.fast_path_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(ControllerStats::default().acceptance_ratio(), 1.0);
    }

    #[test]
    fn crpd_charges_inflate_split_admissions() {
        use spms_overhead::CrpdCostModel;
        // Two 60% tasks force the third to split; under the heavy CRPD
        // model each later piece absorbs one migration charge, and the
        // decision reports the total inflation.
        let model = CrpdCostModel::heavy();
        let charge = model.migration_charge(&task(2, 6, 10));
        let config = OnlineConfig::builder()
            .cores(2)
            .cost_model(CostModelSpec::Crpd(model))
            .build();
        let mut c = AdmissionController::new(config).unwrap();
        arrive(&mut c, task(0, 6, 10));
        arrive(&mut c, task(1, 6, 10));
        let kind = arrive(&mut c, task(2, 6, 10));
        let DecisionKind::Admitted {
            path: DecisionPath::FastSplit,
            migrations: 0,
            inflation,
        } = kind
        else {
            panic!("expected a charged fast-split admission, got {kind:?}");
        };
        assert!(
            inflation >= charge,
            "each hop must cost at least one charge"
        );
        assert_eq!(
            inflation.as_nanos() % charge.as_nanos(),
            0,
            "inflation must be a whole number of per-hop charges"
        );
        assert_eq!(c.stats().inflation_charged_ns, inflation.as_nanos());
        assert!(c.partition().is_schedulable());
    }

    #[test]
    fn an_unaffordable_charge_rejects_what_free_migration_admits() {
        use spms_overhead::{CrpdCostModel, WorkingSetAttribution};
        // A 64 MiB working set reloads in tens of milliseconds — longer
        // than the 10 ms deadlines — so no split piece or relocation can
        // absorb the charge. The same trace admits under ZeroCost.
        let mut huge = CrpdCostModel::heavy();
        huge.attribution = WorkingSetAttribution::Uniform {
            bytes: 64 * 1024 * 1024,
        };
        let charged = OnlineConfig::builder()
            .cores(2)
            .fallback(false)
            .cost_model(CostModelSpec::Crpd(huge))
            .build();
        let free = OnlineConfig::builder().cores(2).fallback(false).build();
        let trace = [task(0, 6, 10), task(1, 6, 10), task(2, 6, 10)];
        let mut charged_c = AdmissionController::new(charged).unwrap();
        let mut free_c = AdmissionController::new(free).unwrap();
        let charged_all: Vec<DecisionKind> = trace
            .iter()
            .map(|t| arrive(&mut charged_c, t.clone()))
            .collect();
        let free_all: Vec<DecisionKind> = trace
            .iter()
            .map(|t| arrive(&mut free_c, t.clone()))
            .collect();
        let charged_last = *charged_all.last().unwrap();
        let free_last = *free_all.last().unwrap();
        assert!(matches!(
            free_last,
            DecisionKind::Admitted {
                path: DecisionPath::FastSplit,
                ..
            }
        ));
        assert_eq!(
            charged_last,
            DecisionKind::Rejected {
                reason: RejectionReason::NoFeasiblePlacement
            }
        );
        // The rejected arrival left no inflated residue behind.
        assert_eq!(charged_c.stats().inflation_charged_ns, 0);
        assert!(charged_c.partition().is_schedulable());
    }

    #[test]
    fn decision_log_format_is_pinned() {
        // The serialized decision log is an interchange format (digested by
        // `spms online --trace`, diffed by CI): zero-inflation admissions
        // must keep the exact pre-cost-model shape, charged ones append the
        // `inflation` entry, and old logs read back with zero inflation.
        let zero = Decision {
            event_index: 0,
            task: TaskId(7),
            kind: DecisionKind::Admitted {
                path: DecisionPath::FastWhole,
                migrations: 0,
                inflation: Time::ZERO,
            },
        };
        assert_eq!(
            serde_json::to_string(&zero).unwrap(),
            r#"{"event_index":0,"task":7,"kind":{"Admitted":{"path":"FastWhole","migrations":0}}}"#
        );
        let charged = DecisionKind::Admitted {
            path: DecisionPath::Repair,
            migrations: 2,
            inflation: Time::from_nanos(1500),
        };
        assert_eq!(
            serde_json::to_string(&charged).unwrap(),
            r#"{"Admitted":{"path":"Repair","migrations":2,"inflation":1500}}"#
        );
        for kind in [
            charged,
            DecisionKind::Rejected {
                reason: RejectionReason::NoFeasiblePlacement,
            },
            DecisionKind::Departed,
            DecisionKind::DepartUnknown,
        ] {
            let json = serde_json::to_string(&kind).unwrap();
            assert_eq!(serde_json::from_str::<DecisionKind>(&json).unwrap(), kind);
        }
        let legacy = r#"{"Admitted":{"path":"FastSplit","migrations":1}}"#;
        assert_eq!(
            serde_json::from_str::<DecisionKind>(legacy).unwrap(),
            DecisionKind::Admitted {
                path: DecisionPath::FastSplit,
                migrations: 1,
                inflation: Time::ZERO
            }
        );
    }

    fn counter(c: &AdmissionController, name: &str) -> u64 {
        c.metrics().registry().counter_by_name(name).unwrap_or(0)
    }

    #[test]
    fn a_repeated_failed_relocation_is_answered_by_the_memo() {
        // Two 90% cores, no splitting, no fallback: evicting either task
        // would make room for a 15% arrival, but neither fits on the other
        // core, so every relocation fails. A failed whole-victim plan
        // mutates nothing, so the second identical arrival meets the same
        // generations and skips the planner.
        let config = two_cores_no_split().fallback(false).build();
        let mut c = AdmissionController::new(config).unwrap();
        arrive(&mut c, task(0, 9, 10));
        arrive(&mut c, task(1, 9, 10));
        let generations = |c: &AdmissionController| {
            [0, 1].map(|core| c.partition().core_generation(CoreId(core)))
        };
        let before = generations(&c);
        let memo_hits =
            |c: &AdmissionController| counter(c, "spms_mech_relocation_memo_hits_total");
        // Work is probes plus screens: the utilization screen answers some
        // of the first arrival's questions without a probe.
        let probes = |c: &AdmissionController| {
            counter(c, "spms_mech_whole_probes_total")
                + counter(c, "spms_mech_split_probes_total")
                + counter(c, "spms_mech_utilization_screens_total")
        };
        let rejected = DecisionKind::Rejected {
            reason: RejectionReason::NoFeasiblePlacement,
        };
        let start = probes(&c);
        assert_eq!(arrive(&mut c, task(2, 15, 100)), rejected);
        assert_eq!(memo_hits(&c), 0);
        assert_eq!(generations(&c), before, "failed plans mutate nothing");
        let first = probes(&c) - start;
        let start = probes(&c);
        assert_eq!(arrive(&mut c, task(3, 15, 100)), rejected);
        assert_eq!(memo_hits(&c), 2, "one hit per repair target");
        assert!(probes(&c) - start < first, "memo hits must save work");
        // A departure frees room and drops the departed task's slot; the
        // next arrival re-plans and is admitted.
        c.handle_event(&WorkloadEvent::Depart(TaskId(1)));
        assert!(matches!(
            arrive(&mut c, task(4, 15, 100)),
            DecisionKind::Admitted { .. }
        ));
    }

    /// The slack victim rule as it was before the search kept its state:
    /// both passes from scratch over every candidate not yet `immovable`,
    /// with a fresh blocker probe. The oracle for the resumed search.
    fn two_pass_pick_from_scratch(
        c: &AdmissionController,
        target: CoreId,
        arrival: &Task,
        immovable: &[TaskId],
    ) -> Option<(TaskId, VictimEvidence)> {
        let mut candidates: Vec<(f64, TaskId)> = c
            .partition
            .core(target)
            .iter()
            .filter(|p| !immovable.contains(&p.parent))
            .map(|p| (p.task.utilization(), p.parent))
            .collect();
        candidates.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let blocker = match c.placer.probe_whole(&c.partition, target, arrival) {
            WholeProbe::Accepted => None,
            WholeProbe::Blocked { blocker } => blocker,
        };
        for &(_, id) in &candidates {
            let pruned = blocker.is_some_and(|blocker| {
                id != blocker && !c.interferes_with(target, id, blocker, arrival)
            });
            if !pruned
                && c.placer
                    .accepts_whole_without(&c.partition, target, arrival, &[id])
            {
                return Some((id, VictimEvidence::Unblocks));
            }
        }
        candidates
            .iter()
            .map(|&(u, id)| (u, c.slack_on(target, id), id))
            .max_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap()
                    .then(b.1.cmp(&a.1))
                    .then(b.2.cmp(&a.2))
            })
            .map(|(_, _, id)| (id, VictimEvidence::Insufficient))
    }

    #[test]
    fn a_failed_relocation_resumes_the_victim_search_without_re_asking() {
        // All periods 100 ms. P0 holds A (10), B (20, D = 21), C (20) and
        // F (45): 95 %. P1 holds D (10, D = 20) and E (68): 78 %. The
        // arrival X (25) fits nowhere whole, and splitting is disabled.
        //
        // On P0, evicting A leaves 110 % (the utilization screen answers);
        // evicting B or C leaves exactly 100 %, which X's recurrence meets
        // at R = 100. So B is the first victim that unblocks X — but B
        // cannot move: on P1, D outranks it and pushes it to 30 > 21. The
        // search resumes after B and probes C alone; C moves to P1 (98 %)
        // and X is admitted.
        let config = two_cores_no_split()
            .max_repair_moves(2)
            .fallback(false)
            .build();
        let mut c = AdmissionController::new(config).unwrap();
        admit_whole(
            &mut c,
            [
                (0, 10, 100),
                (1, 20, 21),
                (2, 20, 100),
                (3, 45, 100),
                (4, 10, 20),
                (5, 68, 100),
            ]
            .map(|(id, wcet, deadline)| constrained(id, wcet, deadline)),
        );
        assert_eq!(residents(&c), [vec![0, 1, 2, 3], vec![4, 5]]);

        let x = constrained(6, 25, 100);
        let target = CoreId(0);
        let probe = c.placer.probe_whole(&c.partition, target, &x);
        let mut search = c.victim_search(target, &x, Some(probe), &[], Vec::new());
        let first = c.next_slack_victim(target, &x, &mut search);
        assert_eq!(first, Some((TaskId(1), VictimEvidence::Unblocks)));
        assert_eq!(first, two_pass_pick_from_scratch(&c, target, &x, &[]));
        assert!(
            c.placer
                .plan(&c.partition, &c.admitted[&TaskId(1)], &[target], Time::ZERO)
                .is_none(),
            "setup: B cannot be relocated"
        );

        let before = scoped::thread_snapshot();
        let second = c.next_slack_victim(target, &x, &mut search);
        let spent = before.since();
        assert_eq!(second, Some((TaskId(2), VictimEvidence::Unblocks)));
        assert_eq!(
            second,
            two_pass_pick_from_scratch(&c, target, &x, &[TaskId(1)])
        );
        assert_eq!(
            spent.get(HotCounter::WholeProbes),
            1,
            "the second pick probes C only: no blocker probe, A and B not re-asked"
        );
        assert_eq!(spent.get(HotCounter::UtilizationScreens), 0);
        assert_eq!(spent.get(HotCounter::SplitProbes), 0);

        assert_eq!(
            arrive(&mut c, x),
            DecisionKind::Admitted {
                path: DecisionPath::Repair,
                migrations: 1,
                inflation: Time::ZERO
            }
        );
        assert_eq!(residents(&c), [vec![0, 1, 3, 6], vec![4, 5, 2]]);
        assert_eq!(c.partition().scratch_audit(), Ok(()));
    }

    /// The residents of every core, by parent id in placement order.
    fn residents(c: &AdmissionController) -> Vec<Vec<u32>> {
        (0..c.config.cores)
            .map(|core| {
                c.partition()
                    .core(CoreId(core))
                    .iter()
                    .map(|p| p.parent.0)
                    .collect()
            })
            .collect()
    }

    fn generations(c: &AdmissionController) -> Vec<u64> {
        (0..c.config.cores)
            .map(|core| c.partition().core_generation(CoreId(core)))
            .collect()
    }

    /// What one repair attempt returned, and the residents and core
    /// generations it left behind before its scope was rewound.
    struct Attempt {
        outcome: Option<(usize, Time)>,
        residents: Vec<Vec<u32>>,
        generations: Vec<u64>,
    }

    /// One repair attempt of `arrival` on `target`, in a journal scope as
    /// `try_repair` opens it.
    fn attempt_on(c: &mut AdmissionController, target: CoreId, arrival: &Task) -> Attempt {
        let probe = c.placer.probe_whole(&c.partition, target, arrival);
        let mark = c.partition.journal_begin();
        let attempt = Attempt {
            outcome: c.repair_on(target, arrival, probe),
            residents: residents(c),
            generations: generations(c),
        };
        c.partition.rewind(mark);
        c.partition.journal_end();
        attempt
    }

    /// Admits `tasks` in order, each on the fast whole path.
    fn admit_whole(c: &mut AdmissionController, tasks: impl IntoIterator<Item = Task>) {
        for t in tasks {
            assert!(matches!(
                arrive(c, t),
                DecisionKind::Admitted {
                    path: DecisionPath::FastWhole,
                    ..
                }
            ));
        }
    }

    /// Three cores, no splitting, no fallback, all periods 100 ms (so a
    /// core accepts exactly up to 100 %): P0 holds W (40 %), R (25 %),
    /// S (15 %) and T (10 %); P1 and P2 hold 55 % each.
    fn three_cores_w_r_s_t(k: usize) -> AdmissionController {
        let config = OnlineConfig::builder()
            .cores(3)
            .min_split_budget(Time::from_secs(10))
            .max_repair_moves(k)
            .fallback(false)
            .build();
        let mut c = AdmissionController::new(config).unwrap();
        admit_whole(
            &mut c,
            [(0, 40), (1, 25), (2, 15), (3, 10), (4, 55), (5, 55)]
                .map(|(id, pct)| task(id, pct, 100)),
        );
        assert_eq!(residents(&c), [vec![0, 1, 2, 3], vec![4], vec![5]]);
        c
    }

    #[test]
    fn a_victim_no_last_move_can_follow_is_never_moved() {
        // P0 holds W (40 %), R (20 %), S and T (15 % each); P1 and P2
        // hold 55 % each. X (71 %) must shed 61 % of P0's 90 %. No single
        // eviction does, so W (the largest) is the penultimate pick. W
        // could move to P1 (95 %), but no pair frees more than 60 %, so
        // the attempt gives up before asking.
        let config = OnlineConfig::builder()
            .cores(3)
            .min_split_budget(Time::from_secs(10))
            .fallback(false)
            .build();
        let mut c = AdmissionController::new(config).unwrap();
        admit_whole(
            &mut c,
            [(0, 40), (1, 20), (2, 15), (3, 15), (4, 55), (5, 55)]
                .map(|(id, pct)| task(id, pct, 100)),
        );
        assert!(c
            .placer
            .plan(
                &c.partition,
                &c.admitted[&TaskId(0)],
                &[CoreId(0)],
                Time::ZERO
            )
            .is_some());
        let (before, generations_before) = (residents(&c), generations(&c));
        let x = task(6, 71, 100);
        let attempt = attempt_on(&mut c, CoreId(0), &x);
        assert_eq!(attempt.outcome, None);
        assert_eq!(attempt.residents, before, "the attempt moved nothing");
        assert_eq!(attempt.generations, generations_before);
        assert_eq!(
            arrive(&mut c, x),
            DecisionKind::Rejected {
                reason: RejectionReason::NoFeasiblePlacement
            }
        );
    }

    #[test]
    fn a_movable_victim_without_a_partner_is_never_moved() {
        // All periods 100 ms. P0 holds a (15, D = 20), b (15, D = 30) and
        // V (45, D = 100); P1 holds h (20, D = 20). X (45, D = 55) misses
        // on both cores: on P0 it answers at 75, behind a and b. Evicting
        // both a and b opens P0, but V ranks below X and relieves nothing,
        // so V — the largest, hence the penultimate pick — has no partner.
        // V could move to P1, so the look-ahead gives up: moving V would
        // leave a last move that cannot succeed.
        let mut c = AdmissionController::new(two_cores_no_split().fallback(false).build()).unwrap();
        admit_whole(
            &mut c,
            [(0, 15, 20), (1, 15, 30), (2, 45, 100), (3, 20, 20)]
                .map(|(id, wcet, deadline)| constrained(id, wcet, deadline)),
        );
        assert_eq!(residents(&c), [vec![0, 1, 2], vec![3]]);
        let x = constrained(4, 45, 55);
        let target = CoreId(0);
        assert!(c
            .placer
            .accepts_whole_without(&c.partition, target, &x, &[TaskId(0), TaskId(1)]));
        let (before, generations_before) = (residents(&c), generations(&c));
        let attempt = attempt_on(&mut c, target, &x);
        assert_eq!(attempt.outcome, None);
        assert_eq!(attempt.residents, before, "the attempt moved nothing");
        assert_eq!(attempt.generations, generations_before);
    }

    #[test]
    fn a_victim_with_a_partner_still_moves() {
        // X (70 %) must shed 60 % of P0's 90 %: W (40 %) is the
        // penultimate pick and R (25 %) its partner. W moves to P1, R to
        // P2, and X lands on P0.
        let mut c = three_cores_w_r_s_t(2);
        let x = task(6, 70, 100);
        let attempt = attempt_on(&mut c, CoreId(0), &x);
        assert_eq!(attempt.outcome, Some((2, Time::ZERO)));
        assert_eq!(attempt.residents, [vec![2, 3, 6], vec![4, 0], vec![5, 1]]);
        assert_eq!(
            arrive(&mut c, x),
            DecisionKind::Admitted {
                path: DecisionPath::Repair,
                migrations: 2,
                inflation: Time::ZERO
            }
        );
        assert_eq!(c.partition().scratch_audit(), Ok(()));
    }

    #[test]
    fn with_three_moves_the_look_ahead_guards_the_second() {
        // k = 3: the first Insufficient pick (W) moves unguarded; the
        // second (R) is the penultimate one. X (85 %) needs W, R and one
        // more: R's partner S exists, so R moves, and T finishes.
        let mut c = three_cores_w_r_s_t(3);
        let x = task(6, 85, 100);
        let attempt = attempt_on(&mut c, CoreId(0), &x);
        assert_eq!(attempt.outcome, Some((3, Time::ZERO)));
        assert_eq!(attempt.residents, [vec![2, 6], vec![4, 0], vec![5, 1, 3]]);
        // X (95 %) needs all four: after W moves, neither R nor any pair
        // of R, S and T frees enough, so the attempt gives up with R, S
        // and T still on P0.
        let x = task(7, 95, 100);
        let attempt = attempt_on(&mut c, CoreId(0), &x);
        assert_eq!(attempt.outcome, None);
        assert_eq!(attempt.residents, [vec![1, 2, 3], vec![4, 0], vec![5]]);
    }

    #[test]
    fn display_impls_are_stable() {
        assert_eq!(DecisionPath::FastWhole.to_string(), "fast-whole");
        assert_eq!(
            DecisionPath::FullRepartition.to_string(),
            "full-repartition"
        );
        assert_eq!(
            RejectionReason::NoFeasiblePlacement.to_string(),
            "no feasible placement"
        );
        assert!(!OnlineError::NoCores.to_string().is_empty());
    }
}
