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
//! decision by `spms rtabench`. The one *policy* knob is the repair victim
//! ranking ([`OnlineConfig::repair_ranking`], slack-guided by default).
//!
//! Every decision is recorded with its path, the number of already-placed
//! tasks it migrated, and (for rejections) a typed reason. The controller
//! also carries an [`EngineMetrics`] bundle (see [`crate::metrics`]):
//! outcome and cascade-stage counters in the deterministic registry
//! section, per-decision [`StageTrace`](spms_telemetry::StageTrace)s in a
//! bounded ring, and wall-clock latencies in bounded histograms in the
//! strippable timing section — never in any serializable result, so
//! reports stay byte-identical across runs.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use spms_analysis::OverheadModel;
use spms_core::{
    CoreId, IncrementalPlacer, Partition, PartitionOutcome, Partitioner, PlacementPlan, PlanTxn,
    SemiPartitionedFpTs, WholeProbe,
};
use spms_overhead::{CostModel, CostModelSpec};
use spms_task::{Task, TaskId, TaskSet, Time};
use spms_telemetry::{scoped, Histogram, HotCounter};

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
    /// How the bounded-repair pass ranks eviction victims. This is a
    /// *policy* knob: the two rankings can make genuinely different (both
    /// sound) admit/reject decisions.
    pub repair_ranking: RepairRanking,
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
    /// Graceful-degradation ladder: when set, per-arrival probe counts
    /// above the policy's budget shed the expensive cascade stages (full
    /// repartition first, then bounded repair), re-arming after a calm
    /// streak. `None` (the default) never sheds and reproduces the
    /// ladder-free decisions bit for bit.
    pub degrade: Option<DegradePolicy>,
}

/// Knobs of the graceful-degradation ladder.
///
/// The overload signal is the *probe count* of each arrival decision
/// (whole + split RTA probes plus the placement questions the per-core
/// utilization screen answered instead — the cascade's unit of work) — an
/// integer that is a pure function of the decision stream, never
/// wall-clock, so the ladder's behaviour is deterministic across threads
/// and machines. The budget counts questions actually asked: a repair
/// relocation answered by the failed-relocation memo costs none, a
/// question the victim search already answered in the same partition
/// state is not asked again, and debug-build cross-checks are not counted
/// either.
/// An arrival that spends more than `probe_budget` probes escalates the
/// controller one degrade level (1 = the full-repartition fallback is
/// withheld, 2 = bounded repair is withheld too); `hysteresis`
/// consecutive within-budget arrivals walk it back one level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradePolicy {
    /// Probes one arrival decision may spend before the controller
    /// escalates one degrade level.
    pub probe_budget: u64,
    /// Consecutive within-budget arrivals required to recover one level.
    pub hysteresis: u32,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy {
            probe_budget: 512,
            hysteresis: 8,
        }
    }
}

/// Victim-ranking policy of the bounded-repair pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum RepairRanking {
    /// Slack-guided (the default): localize the blocker — the task whose
    /// `deadline − response` slack goes negative with the arrival added —
    /// then evict the smallest task whose removal provably unblocks the
    /// arrival (exact what-if probes, candidates that cannot relieve the
    /// blocker pruned). Split chains are movable (chain-aware relocation).
    /// Falls back to freeing the most capacity per move when no single
    /// eviction opens the hole.
    #[default]
    Slack,
    /// Largest utilization first (PR 3 behaviour): free the most capacity
    /// per move, never touching split chains.
    Utilization,
}

impl fmt::Display for RepairRanking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairRanking::Slack => write!(f, "slack"),
            RepairRanking::Utilization => write!(f, "utilization"),
        }
    }
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            cores: 4,
            overhead: OverheadModel::zero(),
            min_split_budget: Time::from_micros(100),
            max_repair_moves: 2,
            allow_fallback: true,
            repair_ranking: RepairRanking::Slack,
            cost_model: CostModelSpec::Zero,
            cross_shard_split: false,
            degrade: None,
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

    /// Sets the repair victim-ranking policy.
    pub fn repair_ranking(mut self, ranking: RepairRanking) -> Self {
        self.config.repair_ranking = ranking;
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

    /// Installs (or removes) the graceful-degradation ladder.
    pub fn degrade(mut self, policy: Option<DegradePolicy>) -> Self {
        self.config.degrade = policy;
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

/// One entry of the controller's decision log.
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

    /// Whether this decision changed the partition.
    pub fn changed_partition(&self) -> bool {
        matches!(
            self.kind,
            DecisionKind::Admitted { .. } | DecisionKind::Departed
        )
    }
}

/// The online admission controller. See the module docs of
/// `controller.rs` for the decision cascade.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    config: OnlineConfig,
    placer: IncrementalPlacer,
    partition: Partition,
    admitted: BTreeMap<TaskId, Task>,
    /// Parents with at least one piece on *another* shard, placed by the
    /// sharded service's cross-shard planner. Their local pieces must never
    /// be relocated by repair and block the full-repartition fallback: both
    /// reason only about this shard's partition and would orphan the remote
    /// siblings. Always empty when `cross_shard_split` is off.
    remote_parents: BTreeSet<TaskId>,
    decisions: Vec<Decision>,
    metrics: EngineMetrics,
    next_event: usize,
    /// Current rung of the graceful-degradation ladder (0 = full cascade,
    /// 1 = full repartition withheld, 2 = bounded repair withheld too).
    /// Always 0 when [`OnlineConfig::degrade`] is `None`.
    degrade_level: u8,
    /// Consecutive within-budget arrivals since the last escalation —
    /// the hysteresis counter that walks the ladder back down.
    calm_streak: u32,
    /// Relocations known to fail, one slot per victim (see
    /// [`relocate`](Self::relocate)). A slot is dropped when its task
    /// leaves or re-enters the admitted set, and the whole memo is cleared
    /// when the fallback adopts a new partition (whose generations are not
    /// comparable with the old one's).
    failed_relocations: HashMap<TaskId, FailedRelocation>,
}

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
    /// The utilization ranking, which does not probe.
    Unknown,
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
            remote_parents: BTreeSet::new(),
            decisions: Vec::new(),
            metrics: EngineMetrics::default(),
            next_event: 0,
            degrade_level: 0,
            calm_streak: 0,
            failed_relocations: HashMap::new(),
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

    /// The admitted copy (original parameters) of one task, if present.
    pub fn admitted_task(&self, id: TaskId) -> Option<&Task> {
        self.admitted.get(&id)
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

    /// The decision log, one entry per handled event.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// Decision counters: a view of this controller's registry.
    pub fn stats(&self) -> ControllerStats {
        ControllerStats::from_registry(self.metrics.registry())
    }

    /// This controller's telemetry: the metrics registry, the bounded
    /// stage-trace ring, and the rebalance history (unused by a solo
    /// controller). See [`crate::metrics`] for the determinism contract.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Mutable telemetry access (drivers use it to set throughput gauges).
    pub fn metrics_mut(&mut self) -> &mut EngineMetrics {
        &mut self.metrics
    }

    /// Wall-clock decision latencies as a bounded histogram (the timing
    /// section of the registry — one sample per handled event). Never
    /// serialized into reports: latencies vary run-to-run, and every
    /// serializable report must stay deterministic.
    pub fn decision_latency_histogram(&self) -> &Histogram {
        self.metrics.decision_latency()
    }

    /// Handles one workload event and returns the decision made.
    pub fn handle(&mut self, event: WorkloadEvent) -> Decision {
        self.handle_event(&event)
    }

    /// [`handle`](Self::handle) by reference: nothing is cloned unless the
    /// arrival is actually admitted (the admitted map keeps its own copy of
    /// the task).
    pub fn handle_event(&mut self, event: &WorkloadEvent) -> Decision {
        let started = Instant::now();
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
        self.decisions.push(decision);
        let deltas = hot.since();
        // Only arrivals drive the degrade ladder: their probe count is the
        // cascade's unit of work, while departures and renewals are cheap
        // bookkeeping that says nothing about admission pressure. A
        // question the utilization screen answered is still one unit.
        if matches!(event, WorkloadEvent::Arrive(_)) {
            let probes = deltas.get(HotCounter::WholeProbes)
                + deltas.get(HotCounter::SplitProbes)
                + deltas.get(HotCounter::UtilizationScreens);
            self.update_degrade(probes);
        }
        self.metrics.finish_decision(
            u64::from(task_id.0),
            &kind,
            started.elapsed().as_nanos() as u64,
            &deltas,
        );
        debug_assert_eq!(self.partition.validate(), Ok(()));
        decision
    }

    /// Current rung of the graceful-degradation ladder (0 when no
    /// [`DegradePolicy`] is configured).
    pub fn degrade_level(&self) -> u8 {
        self.degrade_level
    }

    /// One ladder update after an arrival that spent `probes` RTA probes:
    /// over budget escalates a rung (and resets the calm streak), a
    /// within-budget arrival extends the streak and recovers a rung after
    /// `hysteresis` consecutive calm arrivals.
    fn update_degrade(&mut self, probes: u64) {
        let Some(policy) = self.config.degrade else {
            return;
        };
        if probes > policy.probe_budget {
            self.calm_streak = 0;
            if self.degrade_level < 2 {
                self.degrade_level += 1;
                self.metrics
                    .record_degrade_transition(u64::from(self.degrade_level), true);
            }
        } else if self.degrade_level > 0 {
            self.calm_streak += 1;
            if self.calm_streak >= policy.hysteresis {
                self.calm_streak = 0;
                self.degrade_level -= 1;
                self.metrics
                    .record_degrade_transition(u64::from(self.degrade_level), false);
            }
        }
    }

    /// Handles a whole event stream, returning the per-event decisions.
    /// Events are consumed by reference — no per-event clones.
    pub fn handle_all(&mut self, events: &[WorkloadEvent]) -> Vec<Decision> {
        events.iter().map(|e| self.handle_event(e)).collect()
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
        if self.admitted_utilization() + task.utilization() > self.config.cores as f64 + 1e-9 {
            return DecisionKind::Rejected {
                reason: RejectionReason::PlatformOverloaded,
            };
        }
        if self.placer.whole_analysis_task(task).is_none() {
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
        if let Some(plan) = self.placer.plan_whole(&self.partition, task, &[]) {
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
        if let Some(plan) = self
            .placer
            .plan_split_charged(&self.partition, task, &[], charge)
        {
            let inflation = plan_inflation(&plan, charge);
            self.placer.commit(&mut self.partition, task, plan);
            self.record_stage(DecisionPath::FastSplit, true, stage);
            return self.admit(task, DecisionPath::FastSplit, 0, inflation);
        }
        self.record_stage(DecisionPath::FastSplit, false, stage);
        // The degrade ladder sheds the expensive stages under sustained
        // overload: level ≥ 2 withholds bounded repair, level ≥ 1 the
        // full-repartition fallback. Shed stages never run, so they count
        // on the shed counter, not as stage attempts.
        if self.degrade_level < 2 {
            let stage = Instant::now();
            let repaired = self.try_repair(task);
            self.record_stage(DecisionPath::Repair, repaired.is_some(), stage);
            if let Some((moves, inflation)) = repaired {
                return self.admit(task, DecisionPath::Repair, moves, inflation);
            }
        } else {
            self.metrics.record_degrade_shed_stage();
        }
        // The fallback adopts a from-scratch offline partition; its moves
        // are a one-time reshuffle, not recurring per-job hops, so they are
        // deliberately uncharged (see the module docs).
        if self.degrade_level < 1 {
            let stage = Instant::now();
            let fallback = self.try_fallback(task);
            self.record_stage(DecisionPath::FullRepartition, fallback.is_some(), stage);
            if let Some(moves) = fallback {
                return self.admit(task, DecisionPath::FullRepartition, moves, Time::ZERO);
            }
        } else {
            self.metrics.record_degrade_shed_stage();
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
        self.failed_relocations.remove(&task.id());
        self.admitted.insert(task.id(), task.clone());
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
        for (target, probe) in self.repair_target_order(task) {
            let rollback = self.begin_rollback();
            match self.repair_on(target, task, probe) {
                Some(outcome) => {
                    self.commit_rollback(rollback);
                    return Some(outcome);
                }
                None => self.abort_rollback(rollback),
            }
        }
        None
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
    fn repair_target_order(&self, task: &Task) -> Vec<(CoreId, WholeProbe)> {
        let mut scored: Vec<(bool, f64, CoreId, WholeProbe)> = (0..self.config.cores)
            .map(CoreId)
            .map(|core| {
                let probe = self.placer.probe_whole(&self.partition, core, task);
                let localized = match probe {
                    // Unreachable in practice: repair runs after first-fit
                    // failed on every core. Rank it first defensively.
                    WholeProbe::Accepted => true,
                    WholeProbe::Blocked { blocker } => blocker.is_some(),
                };
                let deficit = self.partition.core_utilization(core) + task.utilization() - 1.0;
                (!localized, deficit, core, probe)
            })
            .collect();
        scored.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .then_with(|| a.2.cmp(&b.2))
        });
        scored
            .into_iter()
            .map(|(_, _, core, probe)| (core, probe))
            .collect()
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
    /// unblocks the arrival: when slack ranking has shown that no single
    /// eviction does, relocating one more task cannot end in success, so
    /// the attempt gives up before mutating.
    fn repair_on(
        &mut self,
        target: CoreId,
        task: &Task,
        probe: WholeProbe,
    ) -> Option<(usize, Time)> {
        let k = self.config.max_repair_moves;
        let others: Vec<CoreId> = (0..self.config.cores)
            .map(CoreId)
            .filter(|c| *c != target)
            .collect();
        let mut moves = 0usize;
        let mut inflation = Time::ZERO;
        let mut immovable: Vec<TaskId> = Vec::new();
        // What the arrival's probe on the target says about the current
        // partition state, while that is known.
        let mut probe = Some(probe);
        let mut blocked = matches!(probe, Some(WholeProbe::Blocked { .. }));
        let mut search: Option<VictimSearch> = None;
        loop {
            // The arrival itself lands whole on the opened core — a fresh
            // placement crossing no boundary, so it stays uncharged.
            if blocked {
                debug_assert!(
                    scoped::uncounted(|| self.placer.plan_whole(&self.partition, task, &others))
                        .is_none(),
                    "the arrival skipped on {target} has a whole plan"
                );
            } else if let Some(plan) = self.placer.plan_whole(&self.partition, task, &others) {
                self.placer.commit(&mut self.partition, task, plan);
                return Some((moves, inflation));
            }
            blocked = true;
            if moves == k {
                return None;
            }
            let (victim, evidence) = match self.config.repair_ranking {
                RepairRanking::Utilization => (
                    self.pick_victim_by_utilization(target, &immovable)?,
                    VictimEvidence::Unknown,
                ),
                RepairRanking::Slack => {
                    let search = match &mut search {
                        Some(search) => search,
                        None => search.insert(self.victim_search(target, task, probe, &immovable)),
                    };
                    self.next_slack_victim(target, task, search)?
                }
            };
            if moves + 1 == k && evidence == VictimEvidence::Insufficient {
                return None;
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
                    search = None;
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

    /// Largest utilization first (freeing the most capacity per move), ties
    /// broken by id for determinism. Split parents are never victims here —
    /// the historical PR 3 policy. Parents with remote pieces are never
    /// victims either: relocating the local piece would orphan siblings on
    /// other shards.
    fn pick_victim_by_utilization(&self, target: CoreId, immovable: &[TaskId]) -> Option<TaskId> {
        let mut candidates: Vec<(f64, TaskId)> = self
            .partition
            .core(target)
            .iter()
            .filter(|p| {
                !p.is_split()
                    && !immovable.contains(&p.parent)
                    && !self.remote_parents.contains(&p.parent)
            })
            .map(|p| (p.task.utilization(), p.parent))
            .collect();
        candidates.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.cmp(&b.1))
        });
        candidates.first().map(|(_, id)| *id)
    }

    /// Opens the slack-guided victim search on `target` for the current
    /// partition state: every resident not yet found `immovable` is a
    /// candidate (split parents too — chain-aware relocation evicts the
    /// whole chain; never parents with remote pieces), and the blocker
    /// comes from the arrival's `probe` on the target when it is known,
    /// else from a fresh one.
    fn victim_search(
        &self,
        target: CoreId,
        arrival: &Task,
        probe: Option<WholeProbe>,
        immovable: &[TaskId],
    ) -> VictimSearch {
        let mut candidates: Vec<(f64, TaskId)> = self
            .partition
            .core(target)
            .iter()
            .filter(|p| !immovable.contains(&p.parent) && !self.remote_parents.contains(&p.parent))
            .map(|p| (p.task.utilization(), p.parent))
            .collect();
        candidates.sort_by(|a, b| {
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
                    .accepts_whole_without(&self.partition, target, arrival, id)
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
        if self.relocation_known_to_fail(victim, target, charge) {
            scoped::bump(HotCounter::RelocationMemoHits);
            debug_assert!(
                scoped::uncounted(|| self.no_plan_after_eviction(victim, target, charge)),
                "memoized relocation failure of {victim} off {target} has a plan"
            );
            return None;
        }
        let whole_on_target = self
            .partition
            .core(target)
            .iter()
            .any(|p| p.parent == victim && !p.is_split());
        if !whole_on_target {
            return self.relocate_split(victim, target, charge);
        }
        let original = &self.admitted[&victim];
        let Some(plan) = self
            .placer
            .plan_charged(&self.partition, original, &[target], charge)
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
            .plan_charged(&self.partition, original, &[target], charge)
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

    /// Whether relocating `victim` off `target` with `charge` has no plan
    /// on the current partition with the victim evicted. The eviction
    /// runs inside an inner journal mark and is rewound, so the partition
    /// is left as it was. The debug-build cross-check of the
    /// failed-relocation memo.
    fn no_plan_after_eviction(&mut self, victim: TaskId, target: CoreId, charge: Time) -> bool {
        let original = &self.admitted[&victim];
        let inner = self.partition.journal_mark();
        self.partition.remove_parent(victim);
        let plan = self
            .placer
            .plan_charged(&self.partition, original, &[target], charge);
        self.partition.rewind(inner);
        plan.is_none()
    }

    /// Memoizes a failed relocation under the current generations of every
    /// core but `target` (see [`FailedRelocation`]).
    fn note_failed_relocation(&mut self, victim: TaskId, target: CoreId, charge: Time) {
        let generations = self.generations_except(target).collect();
        self.failed_relocations.insert(
            victim,
            FailedRelocation {
                target,
                charge,
                generations,
            },
        );
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
                    .eq(self.generations_except(target))
        })
    }

    /// The generations of every core but `target`, in index order.
    fn generations_except(&self, target: CoreId) -> impl Iterator<Item = u64> + '_ {
        (0..self.config.cores)
            .map(CoreId)
            .filter(move |c| *c != target)
            .map(|c| self.partition.core_generation(c))
    }

    // ------------------------------------------------------------------
    // rollback plumbing
    // ------------------------------------------------------------------
    //
    // Repair scopes run on the shared [`PlanTxn`] abstraction from
    // `spms-core` — the same transaction type the sharded service spans
    // across several partitions for cross-shard split planning. A solo
    // controller always opens single-scope transactions on its own
    // partition's journal.

    /// Opens a speculative scope around one repair attempt.
    fn begin_rollback(&mut self) -> PlanTxn {
        let mut txn = PlanTxn::new();
        txn.begin(&mut self.partition);
        txn
    }

    /// Keeps the speculative mutations (the attempt succeeded).
    fn commit_rollback(&mut self, txn: PlanTxn) {
        txn.commit(std::slice::from_mut(&mut &mut self.partition));
    }

    /// Discards the speculative mutations (the attempt failed).
    fn abort_rollback(&mut self, txn: PlanTxn) {
        txn.abort(std::slice::from_mut(&mut &mut self.partition));
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
        let outcome = self
            .offline_partitioner()
            .partition(&all, self.config.cores);
        match outcome {
            Ok(PartitionOutcome::Schedulable(mut new)) => {
                let migrations = moved_parents(&self.partition, &new, task.id());
                // The offline pass ranks whole tasks by global rate-monotonic
                // levels; every later probe and commit assumes the per-core
                // deadline-monotonic discipline. Renormalize before adopting
                // so the stored priorities (and the cache snapshot below)
                // match what the placer's candidate ranking expects — for
                // constrained deadlines the two orders genuinely differ.
                // DM is optimal among fixed-priority assignments, so a
                // schedulable adoption stays schedulable.
                for core in 0..new.core_count() {
                    new.renormalize_core_priorities(CoreId(core));
                }
                // The adopted partition is a fresh object: re-attach the
                // incremental analysis cache the cascade threads through
                // every later decision.
                new.enable_analysis_cache();
                if self.config.cross_shard_split {
                    new.allow_partial_chains();
                }
                self.partition = new;
                self.failed_relocations.clear();
                Some(migrations)
            }
            _ => None,
        }
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
        if self.admitted.remove(&id).is_none() {
            return DecisionKind::DepartUnknown;
        }
        self.remote_parents.remove(&id);
        self.failed_relocations.remove(&id);
        let removed = self.partition.remove_parent(id);
        debug_assert!(removed > 0, "admitted task {id} had no placements");
        DecisionKind::Departed
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
        self.failed_relocations.remove(&id);
        self.admitted.remove(&id)
    }

    fn note_admitted(&mut self, task: Task) {
        self.failed_relocations.remove(&task.id());
        self.admitted.insert(task.id(), task);
    }

    fn note_remote_admitted(&mut self, piece: Task) {
        self.failed_relocations.remove(&piece.id());
        self.remote_parents.insert(piece.id());
        self.admitted.insert(piece.id(), piece);
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

/// Total WCET inflation a committed plan carries for one per-migration
/// `charge`: a charged whole placement absorbs one charge, a split chain
/// one per piece after the first (the first piece never crosses a
/// boundary). Mirrors the charging rule inside
/// [`IncrementalPlacer::plan_charged`].
fn plan_inflation(plan: &PlacementPlan, charge: Time) -> Time {
    match plan {
        PlacementPlan::Whole { .. } => charge,
        PlacementPlan::Split { pieces } => charge * (pieces.len().saturating_sub(1) as u64),
    }
}

/// Counts the parents (other than `arriving`) whose placement — the set of
/// `(core, piece index)` pairs — differs between `old` and `new`.
fn moved_parents(old: &Partition, new: &Partition, arriving: TaskId) -> usize {
    let signature = |p: &Partition, parent: TaskId| -> Vec<(usize, usize)> {
        let mut sig: Vec<(usize, usize)> = p
            .placements_of(parent)
            .into_iter()
            .map(|(core, placed)| (core.0, placed.split.as_ref().map_or(0, |s| s.part_index)))
            .collect();
        sig.sort_unstable();
        sig
    };
    old.parent_ids()
        .into_iter()
        .filter(|parent| *parent != arriving)
        .filter(|parent| signature(old, *parent) != signature(new, *parent))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms_analysis::UniprocessorTest;

    fn task(id: u32, wcet_ms: u64, period_ms: u64) -> Task {
        Task::new(id, Time::from_millis(wcet_ms), Time::from_millis(period_ms)).unwrap()
    }

    fn arrive(c: &mut AdmissionController, t: Task) -> DecisionKind {
        c.handle(WorkloadEvent::Arrive(t)).kind
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
        assert!(c.partition().is_schedulable(UniprocessorTest::ResponseTime));
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
        assert!(c.partition().is_schedulable(UniprocessorTest::ResponseTime));
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
        assert!(c.partition().is_schedulable(UniprocessorTest::ResponseTime));
    }

    #[test]
    fn repair_targets_rank_by_blocker_deficit() {
        // P0 carries 0.85, P1 carries 0.55. A 0.50 arrival fits nowhere
        // whole; the repair cascade must try P1 first (deficit 0.05) and
        // P0 last (deficit 0.35) — not index order.
        let mut c = AdmissionController::new(two_cores_no_split().build()).unwrap();
        arrive(&mut c, task(0, 85, 100));
        arrive(&mut c, task(1, 55, 100));
        let order: Vec<CoreId> = c
            .repair_target_order(&task(2, 50, 100))
            .into_iter()
            .map(|(core, _)| core)
            .collect();
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
        assert!(c.partition().is_schedulable(UniprocessorTest::ResponseTime));
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
        assert!(c.partition().analysis_cache_enabled());
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
        assert!(before.analysis_cache_enabled());
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
        assert!(c.partition().analysis_cache_enabled());
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
        c.handle_all(&events);
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
        // M, frees nothing M can use). Utilization ranking evicts BIG
        // first anyway: the move *succeeds* (BIG fits on P1), burns the
        // single repair move, and M is still blocked — the arrival is
        // rejected. Slack-guided ranking probes SMALL first (smallest
        // candidate that provably unblocks), relocates it to P1 and admits
        // M with the same single move.
        let constrained = |id: u32, wcet_ms: u64, deadline_ms: u64| {
            Task::builder(id)
                .wcet(Time::from_millis(wcet_ms))
                .period(Time::from_millis(100))
                .deadline(Time::from_millis(deadline_ms))
                .build()
                .unwrap()
        };
        let trace = [
            constrained(0, 46, 100), // BIG → P0
            constrained(1, 25, 40),  // SMALL → P0
            constrained(4, 30, 59),  // L → P0 rejected (BIG at 101) → P1
            constrained(9, 30, 50),  // M: the contested arrival
        ];
        let config = two_cores_no_split().max_repair_moves(1).fallback(false);
        let run = |ranking: RepairRanking| {
            let mut c =
                AdmissionController::new(config.clone().repair_ranking(ranking).build()).unwrap();
            let decisions: Vec<DecisionKind> =
                trace.iter().map(|t| arrive(&mut c, t.clone())).collect();
            (decisions, c)
        };

        let (util_decisions, util) = run(RepairRanking::Utilization);
        assert_eq!(
            util_decisions[3],
            DecisionKind::Rejected {
                reason: RejectionReason::NoFeasiblePlacement
            },
            "utilization ranking should burn its move on BIG and reject M"
        );
        assert!(util
            .partition()
            .is_schedulable(UniprocessorTest::ResponseTime));

        let (slack_decisions, slack) = run(RepairRanking::Slack);
        assert_eq!(
            slack_decisions[3],
            DecisionKind::Admitted {
                path: DecisionPath::Repair,
                migrations: 1,
                inflation: Time::ZERO
            },
            "slack ranking should evict SMALL and admit M"
        );
        assert!(slack
            .partition()
            .is_schedulable(UniprocessorTest::ResponseTime));
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
        // legal victim — its whole chain is removed and re-placed. The
        // utilization ranking never touches split parents.
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
        assert!(c.partition().is_schedulable(UniprocessorTest::ResponseTime));
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
            c.handle(WorkloadEvent::Depart(TaskId(0))).kind,
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
            c.handle(WorkloadEvent::Depart(TaskId(9))).kind,
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
        c.handle(WorkloadEvent::Depart(TaskId(2)));
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
            c.handle_all(&events);
            (c.decisions().to_vec(), c.partition().clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn latencies_parallel_the_decision_log() {
        let mut c = AdmissionController::new(OnlineConfig::new(2)).unwrap();
        arrive(&mut c, task(0, 1, 10));
        c.handle(WorkloadEvent::Depart(TaskId(0)));
        assert_eq!(
            c.decision_latency_histogram().count() as usize,
            c.decisions().len()
        );
    }

    #[test]
    fn metrics_mirror_outcomes_stages_and_traces() {
        let mut c = AdmissionController::new(OnlineConfig::new(2)).unwrap();
        arrive(&mut c, task(0, 4, 10)); // fast-whole
        arrive(&mut c, task(0, 4, 10)); // duplicate rejection
        c.handle(WorkloadEvent::Depart(TaskId(0)));
        c.handle(WorkloadEvent::Depart(TaskId(9))); // unknown departure
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
        assert!(c.partition().is_schedulable(UniprocessorTest::ResponseTime));
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
        assert!(charged_c
            .partition()
            .is_schedulable(UniprocessorTest::ResponseTime));
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

    /// A controller on two 90%-full cores (splitting disabled) under the
    /// given degrade policy: any 15% arrival fails both fast paths.
    fn saturated_two_cores(policy: DegradePolicy) -> AdmissionController {
        let config = two_cores_no_split().degrade(Some(policy)).build();
        let mut c = AdmissionController::new(config).unwrap();
        arrive(&mut c, task(0, 9, 10));
        arrive(&mut c, task(1, 9, 10));
        c
    }

    fn counter(c: &AdmissionController, name: &str) -> u64 {
        c.metrics().registry().counter_by_name(name).unwrap_or(0)
    }

    #[test]
    fn degrade_ladder_escalates_once_per_over_budget_arrival_up_to_level_two() {
        // Budget 0: every arrival that runs a probe is over budget.
        let mut c = AdmissionController::new(
            OnlineConfig::builder()
                .cores(2)
                .degrade(Some(DegradePolicy {
                    probe_budget: 0,
                    hysteresis: 4,
                }))
                .build(),
        )
        .unwrap();
        assert_eq!(c.degrade_level(), 0);
        for (id, level) in [(0, 1), (1, 2), (2, 2)] {
            arrive(&mut c, task(id, 1, 10));
            assert_eq!(c.degrade_level(), level, "after arrival {id}");
        }
        assert_eq!(counter(&c, "spms_mech_degrade_escalations_total"), 2);
        assert_eq!(
            c.metrics()
                .registry()
                .gauge_by_name("spms_mech_degrade_level"),
            Some(2)
        );
        // A generous budget never escalates.
        let mut calm = AdmissionController::new(
            OnlineConfig::builder()
                .cores(2)
                .degrade(Some(DegradePolicy::default()))
                .build(),
        )
        .unwrap();
        for id in 0..3 {
            arrive(&mut calm, task(id, 1, 10));
        }
        assert_eq!(calm.degrade_level(), 0);
    }

    #[test]
    fn degrade_ladder_sheds_repair_then_fallback_and_counts_each_shed_stage() {
        let mut c = saturated_two_cores(DegradePolicy {
            probe_budget: 0,
            hysteresis: 1,
        });
        assert_eq!(c.degrade_level(), 2, "both set-up arrivals probed");
        // Level 2 withholds both expensive stages: two sheds, no attempts.
        assert_eq!(
            arrive(&mut c, task(2, 15, 100)),
            DecisionKind::Rejected {
                reason: RejectionReason::NoFeasiblePlacement
            }
        );
        assert_eq!(counter(&c, "spms_mech_degrade_shed_stages_total"), 2);
        assert_eq!(counter(&c, "spms_mech_stage_repair_attempts_total"), 0);
        assert_eq!(
            counter(&c, "spms_mech_stage_full_repartition_attempts_total"),
            0
        );
        // One calm arrival (a duplicate runs no probe) recovers a rung.
        arrive(&mut c, task(0, 9, 10));
        assert_eq!(c.degrade_level(), 1);
        // Level 1 runs repair but still withholds the fallback.
        arrive(&mut c, task(3, 15, 100));
        assert_eq!(counter(&c, "spms_mech_degrade_shed_stages_total"), 3);
        assert_eq!(counter(&c, "spms_mech_stage_repair_attempts_total"), 1);
        assert_eq!(
            counter(&c, "spms_mech_stage_full_repartition_attempts_total"),
            0
        );
    }

    #[test]
    fn degrade_ladder_recovers_one_rung_per_hysteresis_calm_streak() {
        let mut c = saturated_two_cores(DegradePolicy {
            probe_budget: 0,
            hysteresis: 3,
        });
        assert_eq!(c.degrade_level(), 2);
        // Duplicate arrivals are rejected before any probe: calm.
        let calm = |c: &mut AdmissionController| {
            arrive(c, task(0, 9, 10));
        };
        calm(&mut c);
        calm(&mut c);
        assert_eq!(c.degrade_level(), 2, "two calm arrivals are not a streak");
        calm(&mut c);
        assert_eq!(c.degrade_level(), 1);
        // An over-budget arrival mid-streak escalates and resets the streak.
        calm(&mut c);
        calm(&mut c);
        arrive(&mut c, task(2, 15, 100));
        assert_eq!(c.degrade_level(), 2);
        calm(&mut c);
        calm(&mut c);
        assert_eq!(c.degrade_level(), 2, "the streak restarted");
        for _ in 0..4 {
            calm(&mut c);
        }
        assert_eq!(c.degrade_level(), 0);
        assert_eq!(counter(&c, "spms_mech_degrade_recoveries_total"), 3);
        // Departures never move the ladder.
        c.handle(WorkloadEvent::Depart(TaskId(1)));
        assert_eq!(c.degrade_level(), 0);
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
        c.handle(WorkloadEvent::Depart(TaskId(1)));
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
                    .accepts_whole_without(&c.partition, target, arrival, id)
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
        let constrained = |id: u32, wcet_ms: u64, deadline_ms: u64| {
            Task::builder(id)
                .wcet(Time::from_millis(wcet_ms))
                .period(Time::from_millis(100))
                .deadline(Time::from_millis(deadline_ms))
                .build()
                .unwrap()
        };
        let config = two_cores_no_split()
            .max_repair_moves(2)
            .fallback(false)
            .build();
        let mut c = AdmissionController::new(config).unwrap();
        for (id, wcet, deadline) in [
            (0, 10, 100),
            (1, 20, 21),
            (2, 20, 100),
            (3, 45, 100),
            (4, 10, 20),
            (5, 68, 100),
        ] {
            assert!(matches!(
                arrive(&mut c, constrained(id, wcet, deadline)),
                DecisionKind::Admitted {
                    path: DecisionPath::FastWhole,
                    ..
                }
            ));
        }
        let residents = |c: &AdmissionController, core: usize| -> Vec<u32> {
            c.partition()
                .core(CoreId(core))
                .iter()
                .map(|p| p.parent.0)
                .collect()
        };
        assert_eq!(residents(&c, 0), [0, 1, 2, 3]);
        assert_eq!(residents(&c, 1), [4, 5]);

        let x = constrained(6, 25, 100);
        let target = CoreId(0);
        let probe = c.placer.probe_whole(&c.partition, target, &x);
        let mut search = c.victim_search(target, &x, Some(probe), &[]);
        let first = c.next_slack_victim(target, &x, &mut search);
        assert_eq!(first, Some((TaskId(1), VictimEvidence::Unblocks)));
        assert_eq!(first, two_pass_pick_from_scratch(&c, target, &x, &[]));
        assert!(
            c.placer
                .plan_charged(&c.partition, &c.admitted[&TaskId(1)], &[target], Time::ZERO)
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
        assert_eq!(residents(&c, 0), [0, 1, 3, 6]);
        assert_eq!(residents(&c, 1), [4, 5, 2]);
        assert_eq!(c.partition().scratch_audit(), Ok(()));
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
