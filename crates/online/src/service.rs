//! The sharded admission service.
//!
//! [`ShardedAdmission`] scales the single-partition
//! [`AdmissionController`](crate::AdmissionController) to fleet-sized
//! workloads by splitting the machine's core set into N independent shards
//! ([`shard_core_counts`]), each a full admission cascade over its own
//! [`Partition`] with a private mutation journal and RTA cache. The
//! cascade is reached through the [`AdmissionShard`] trait, so the service
//! is generic over the shard implementation (the production shard is the
//! `AdmissionController` itself).
//!
//! Arrivals are routed by a [`ShardRouter`]: the deterministic home shard
//! is offered the task first, and when it rejects, the remaining shards
//! are tried in descending spare-utilization order (*cross-shard overflow
//! placement*). Departures go straight to the task's resident shard. A
//! periodic [`rebalance`](ShardedAdmission::rebalance) pass work-steals
//! whole-placed tasks from the most-loaded shard to the most-spare one
//! (see [`rebalance_partitions`]), keeping overflow rare as churn skews
//! the load.
//!
//! With one shard the service adds no policy at all: every event reaches
//! the single controller exactly as a direct `handle_event` call would,
//! and the service decision log is byte-identical to the legacy
//! controller's on the same event stream (enforced by the
//! `shard_equivalence` test suite).

use std::collections::BTreeMap;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use spms_core::{
    rebalance_partitions, shard_core_counts, CacheAuditVerdict, CoreId, IncrementalPlacer,
    Partition, PlacedTask, PlanTxn, ShardRouter, SplitInfo, SubtaskKind,
};
use spms_faults::FaultKind;
use spms_overhead::{CostModel, CostModelSpec};
use spms_task::{Task, TaskId, Time};
use spms_telemetry::{scoped, Histogram, MetricClass, Registry};

use crate::metrics::{EngineMetrics, FaultStats, ServiceStats};
use crate::{
    AdmissionController, Decision, DecisionKind, DecisionPath, OnlineConfig, OnlineError,
    RejectionReason, WorkloadEvent,
};

/// The decision cascade of one admission shard, as the service consumes
/// it: decide events, report capacity, and expose the bookkeeping hooks
/// the cross-shard rebalancer needs.
///
/// The production implementation is [`AdmissionController`]; the trait
/// exists so the service layer (routing, overflow, rebalancing, the event
/// loop) is independent of the cascade internals and testable against
/// mock shards.
///
/// The `partition_mut` / `forget_admitted` / `note_admitted` trio is
/// rebalancer plumbing: the service moves a task's placements between
/// shard partitions and then patches both shards' admission bookkeeping.
/// Calling `partition_mut` without maintaining that bookkeeping breaks
/// the shard's invariants.
pub trait AdmissionShard {
    /// Decides one workload event, recording it in the shard's own log.
    fn decide(&mut self, event: &WorkloadEvent) -> Decision;
    /// Whether this shard currently hosts the task.
    fn resident(&self, id: TaskId) -> bool;
    /// Total utilization of the tasks admitted on this shard (original
    /// parameters, not overhead-inflated).
    fn admitted_utilization(&self) -> f64;
    /// Number of processor cores this shard owns.
    fn core_count(&self) -> usize;
    /// The shard's live partition.
    fn partition(&self) -> &Partition;
    /// Mutable access to the shard's partition (rebalancer plumbing).
    fn partition_mut(&mut self) -> &mut Partition;
    /// The admitted copy (original parameters) of one task, if resident.
    fn lookup_admitted(&self, id: TaskId) -> Option<Task>;
    /// Drops a task from the shard's admission bookkeeping without
    /// touching the partition (rebalancer plumbing).
    fn forget_admitted(&mut self, id: TaskId) -> Option<Task>;
    /// Registers a task in the shard's admission bookkeeping without
    /// touching the partition (rebalancer plumbing).
    fn note_admitted(&mut self, task: Task);
    /// The placer whose policy governs this shard's placements.
    fn placer(&self) -> &IncrementalPlacer;

    /// The shard's metrics registry, if it keeps one. The service folds
    /// the mechanism and timing sections of every shard registry into its
    /// [merged view](ShardedAdmission::merged_metrics_registry); outcome
    /// counters stay with the service's own final-decision stream (a
    /// shard's outcome counters describe per-shard `decide` attempts,
    /// which overflow retries would double-count).
    fn metrics_registry(&self) -> Option<&Registry> {
        None
    }

    /// The migration cost model this shard charges (the rebalancer charges
    /// cross-shard moves with the same model). Free by default.
    fn cost_model(&self) -> CostModelSpec {
        CostModelSpec::Zero
    }

    /// Spare capacity of this shard: cores minus admitted utilization,
    /// clamped at zero.
    fn spare_utilization(&self) -> f64 {
        (self.core_count() as f64 - self.admitted_utilization()).max(0.0)
    }

    // --------------------------------------------------------------
    // cross-shard split planning (piece-level entry points)
    // --------------------------------------------------------------

    /// Plans the *body* piece of a shard-spanning split on this shard:
    /// binary-searches the largest schedulable body budget over this
    /// shard's cores (most-spare first), with `charge` — the cross-shard
    /// migration cost — folded into the piece's analysis WCET. Pure: the
    /// partition is not mutated. Returns the hosting core, the analysis
    /// piece and the chosen runtime budget.
    fn plan_remote_body(&self, task: &Task, charge: Time) -> Option<(CoreId, Task, Time)> {
        self.placer()
            .plan_remote_body(self.partition(), task, charge)
    }

    /// Plans the *tail* piece of a shard-spanning split on this shard:
    /// `budget` is the execution left after the remote body, `offset` the
    /// tail's release offset (the body's analysis WCET), `charge` the
    /// cross-shard migration cost folded into the tail's WCET. Pure.
    fn plan_remote_tail(
        &self,
        task: &Task,
        budget: Time,
        offset: Time,
        charge: Time,
    ) -> Option<(CoreId, Task)> {
        self.placer()
            .plan_remote_tail(self.partition(), task, budget, offset, charge)
    }

    /// Places one planned cross-shard piece on this shard's partition and
    /// renormalizes the core's priorities. The caller wraps donor and
    /// receiver in one [`PlanTxn`] so a refused piece rewinds every
    /// participant.
    fn commit_remote_piece(&mut self, core: CoreId, placed: PlacedTask) {
        self.partition_mut().place(core, placed);
        self.partition_mut().renormalize_core_priorities(core);
    }

    /// Registers a cross-shard *piece* in this shard's admission
    /// bookkeeping (the piece-shaped analysis task, so the shard's
    /// utilization accounting reflects only its local share). Shards that
    /// track remote parents separately override this to also pin the
    /// parent against local repair relocation.
    fn note_remote_admitted(&mut self, piece: Task) {
        self.note_admitted(piece);
    }
}

/// Lifecycle state of one shard under fault injection. Every shard is
/// `Healthy` until a [`FaultKind`] targets it; with no faults loaded the
/// state never changes and the service behaves bit-identically to a
/// fault-free build.
///
/// Transitions: `Healthy → Stalled` (stall; reverts on the fault's end),
/// `Healthy → Down` (crash; residency drained onto survivors),
/// `Down → Rejoining` (the down interval elapsed; the shard rebuilt
/// itself from the residency map — empty, since the crash drained it),
/// `Rejoining → Healthy` (the router offered it work again).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardHealth {
    /// In the placement rotation, holding its residents.
    Healthy,
    /// Frozen: keeps its residents but takes no new placements.
    Stalled,
    /// Crashed: drained, out of the rotation entirely.
    Down,
    /// Back up and placement-eligible; flips to `Healthy` at the next
    /// arrival the router routes past it.
    Rejoining,
}

impl ShardHealth {
    /// Whether the placement router may offer this shard new work.
    pub fn accepts_placements(self) -> bool {
        matches!(self, ShardHealth::Healthy | ShardHealth::Rejoining)
    }
}

/// A sharded admission service over N independent [`AdmissionShard`]s.
/// See the module docs of `service.rs` for the routing and rebalancing
/// policy.
#[derive(Debug, Clone)]
pub struct ShardedAdmission<S: AdmissionShard = AdmissionController> {
    shards: Vec<S>,
    router: ShardRouter,
    /// Shards currently holding each task, primary (body/home) shard
    /// first. Whole admissions occupy exactly one shard; a cross-shard
    /// split lists the donor (body) then the receiver (tail), and a
    /// departure fans out to every listed shard.
    resident: BTreeMap<TaskId, Vec<usize>>,
    /// Whether the cross-shard split planner runs when every shard's own
    /// cascade rejected an arrival. Requires at least two shards and
    /// shards whose partitions accept partial chains.
    cross_shard: bool,
    decisions: Vec<Decision>,
    metrics: EngineMetrics,
    next_event: usize,
    /// Per-shard lifecycle state, shard-index order. All `Healthy` until
    /// a fault targets a shard; see [`ShardHealth`].
    health: Vec<ShardHealth>,
    /// Original (unsplit) parameters of cross-shard-split tasks. A whole
    /// admission's original is recoverable from its shard's bookkeeping
    /// (`lookup_admitted`), but a split shard stores only its own
    /// piece-shaped analysis task — crash recovery needs the real task to
    /// re-admit, so the service pins it here until departure.
    split_originals: BTreeMap<TaskId, Task>,
    /// Multiplier on the cross-shard migration charge (1 = no spike).
    cost_spike_factor: u32,
    /// Round-robin cursor over the flattened (shard, core) space for
    /// [`audit_tick`](Self::audit_tick).
    audit_cursor: usize,
}

impl ShardedAdmission<AdmissionController> {
    /// A service of `shard_count` controller shards splitting the
    /// `config.cores` processor cores near-evenly. Every shard inherits
    /// the configuration's cascade knobs (test, overheads, repair bound,
    /// cache toggle) against its own core slice.
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError::InvalidShardCount`] when `shard_count` is
    /// zero or exceeds the core count, and propagates construction errors
    /// of the underlying controllers.
    pub fn new(config: OnlineConfig, shard_count: usize) -> Result<Self, OnlineError> {
        if shard_count == 0 || shard_count > config.cores {
            return Err(OnlineError::InvalidShardCount {
                shards: shard_count,
                cores: config.cores,
            });
        }
        let cross_shard = config.cross_shard_split && shard_count > 1;
        let shards = shard_core_counts(config.cores, shard_count)
            .into_iter()
            .map(|cores| {
                AdmissionController::new(OnlineConfig {
                    cores,
                    ..config.clone()
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut service = ShardedAdmission::from_shards(shards);
        service.cross_shard = cross_shard;
        Ok(service)
    }
}

impl<S: AdmissionShard> ShardedAdmission<S> {
    /// A service over pre-built shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty.
    pub fn from_shards(shards: Vec<S>) -> Self {
        assert!(!shards.is_empty(), "service needs at least one shard");
        let router = ShardRouter::new(shards.len());
        let health = vec![ShardHealth::Healthy; shards.len()];
        ShardedAdmission {
            shards,
            router,
            resident: BTreeMap::new(),
            cross_shard: false,
            decisions: Vec::new(),
            // The service keeps no stage traces of its own (ring capacity
            // 0): per-decision cascade traces live in the shard that ran
            // the cascade.
            metrics: EngineMetrics::new(0),
            next_event: 0,
            health,
            split_originals: BTreeMap::new(),
            cost_spike_factor: 1,
            audit_cursor: 0,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, home-index order.
    pub fn shards(&self) -> &[S] {
        &self.shards
    }

    /// Whether the cross-shard split planner is enabled.
    pub fn cross_shard_enabled(&self) -> bool {
        self.cross_shard
    }

    /// Enables or disables the cross-shard split planner (builder-less
    /// services built via [`from_shards`](Self::from_shards); shards must
    /// allow partial chains on their partitions when enabling).
    pub fn set_cross_shard_split(&mut self, enabled: bool) {
        self.cross_shard = enabled && self.shards.len() > 1;
    }

    /// The *primary* shard a task currently lives on: the only shard for
    /// a whole admission, the body (donor) shard for a cross-shard split.
    pub fn resident_shard(&self, id: TaskId) -> Option<usize> {
        self.resident.get(&id).and_then(|v| v.first().copied())
    }

    /// Every shard currently holding a piece of the task, primary first.
    pub fn resident_shards(&self, id: TaskId) -> &[usize] {
        self.resident.get(&id).map_or(&[], Vec::as_slice)
    }

    /// Number of currently admitted tasks across all shards.
    pub fn admitted_count(&self) -> usize {
        self.resident.len()
    }

    /// Total utilization admitted across all shards.
    pub fn admitted_utilization(&self) -> f64 {
        self.shards.iter().map(S::admitted_utilization).sum()
    }

    /// Per-shard spare utilization, shard-index order.
    pub fn spare_utilizations(&self) -> Vec<f64> {
        self.shards.iter().map(S::spare_utilization).collect()
    }

    /// The service-level decision log, one entry per handled event.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// The service's own telemetry: outcome counters over the final
    /// decision stream, overflow/rebalance mechanism counters, and the
    /// service-level decision latency histogram. Shard-level mechanism
    /// and timing data is *not* in here — use
    /// [`merged_metrics_registry`](Self::merged_metrics_registry).
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Mutable telemetry access (drivers use it to set throughput gauges).
    pub fn metrics_mut(&mut self) -> &mut EngineMetrics {
        &mut self.metrics
    }

    /// Wall-clock service-decision latencies as a bounded histogram (one
    /// sample per handled event, timing section of the registry). Never
    /// serialized (latencies vary run-to-run; serializable reports must
    /// stay deterministic).
    pub fn decision_latency_histogram(&self) -> &Histogram {
        self.metrics.decision_latency()
    }

    /// The service registry with every shard's mechanism and timing
    /// sections folded in ([`Registry::merge_where`], shard-index order).
    /// Outcome counters come exclusively from the service's final-decision
    /// stream: a shard's outcome counters describe per-shard `decide`
    /// attempts, and a home rejection retried on an overflow shard would
    /// double-count. With one shard this registry's deterministic section
    /// is byte-identical to the legacy controller's on the same events.
    pub fn merged_metrics_registry(&self) -> Registry {
        let mut merged = self.metrics.registry().clone();
        for shard in &self.shards {
            if let Some(registry) = shard.metrics_registry() {
                merged.merge_where(registry, |class| class != MetricClass::Outcome);
            }
        }
        merged
    }

    /// Service counters: a view of the
    /// [merged registry](Self::merged_metrics_registry).
    pub fn stats(&self) -> ServiceStats {
        ServiceStats::from_registry(&self.merged_metrics_registry())
    }

    /// Handles one workload event: arrivals are offered to shards in
    /// router order (home first, then spare-descending overflow),
    /// departures go to the resident shard. Returns the service-level
    /// decision.
    pub fn handle_event(&mut self, event: &WorkloadEvent) -> Decision {
        let started = Instant::now();
        let kind = match event {
            WorkloadEvent::Arrive(task) => self.arrive(task),
            WorkloadEvent::Depart(id) => self.depart(*id),
            // Leases live in the event loop; the service only
            // acknowledges renewals that reach it via a replayed trace.
            WorkloadEvent::Renew(_) => DecisionKind::RenewNoted,
        };
        let decision = Decision {
            event_index: self.next_event,
            task: event.task_id(),
            kind,
        };
        self.next_event += 1;
        self.decisions.push(decision);
        // `finish_decision` also drains the stage spans the cross-shard
        // planner may have opened (the ring has capacity 0, so nothing is
        // retained — per-decision traces live in the shards).
        self.metrics.finish_decision(
            u64::from(decision.task.0),
            &kind,
            started.elapsed().as_nanos() as u64,
            &Default::default(),
        );
        decision
    }

    /// Handles a whole event stream, returning the per-event decisions.
    pub fn handle_all(&mut self, events: &[WorkloadEvent]) -> Vec<Decision> {
        events.iter().map(|e| self.handle_event(e)).collect()
    }

    fn arrive(&mut self, task: &Task) -> DecisionKind {
        // Any routed arrival completes pending rejoins: a Rejoining shard
        // is already placement-eligible, the state only records that the
        // router has not looked at it since it came back.
        self.complete_rejoins();
        if self.resident.contains_key(&task.id()) {
            return DecisionKind::Rejected {
                reason: RejectionReason::DuplicateTask,
            };
        }
        let spare = self.spare_utilizations();
        let mut order = self.router.placement_order(task.id(), &spare);
        // Stalled and down shards are out of the rotation. With every
        // shard healthy (the fault-free case) this retains everything and
        // the order — and therefore the decision log — is unchanged.
        order.retain(|&idx| self.health[idx].accepts_placements());
        let home = self.router.home_shard(task.id());
        let event = WorkloadEvent::Arrive(task.clone());
        let mut first_rejection: Option<RejectionReason> = None;
        for shard_idx in order {
            let shard_decision = self.shards[shard_idx].decide(&event);
            match shard_decision.kind {
                DecisionKind::Admitted { path, .. } => {
                    assert_ne!(
                        path,
                        DecisionPath::CrossShardSplit,
                        "a shard's own cascade cannot span shards"
                    );
                    self.resident.insert(task.id(), vec![shard_idx]);
                    if shard_idx != home {
                        self.metrics.record_overflow_admission();
                    }
                    return shard_decision.kind;
                }
                DecisionKind::Rejected { reason } => {
                    // The home shard's verdict names the service-level
                    // reason; overflow shards only get a chance to accept.
                    if first_rejection.is_none() {
                        first_rejection = Some(reason);
                    }
                }
                DecisionKind::Departed
                | DecisionKind::DepartUnknown
                | DecisionKind::RenewNoted
                | DecisionKind::EvictedOnFailure => {
                    unreachable!("an arrival cannot produce a departure, renewal, or eviction")
                }
            }
        }
        // Every shard rejected the task whole-or-split within its own
        // walls. The cross-shard planner gets the last word: split the
        // task across the two roomiest shards under one multi-partition
        // planning transaction.
        if self.cross_shard && self.shards.len() >= 2 {
            let stage = Instant::now();
            let planned = self.try_cross_shard(task);
            self.metrics.record_stage(
                DecisionPath::CrossShardSplit,
                planned.is_some(),
                stage.elapsed().as_nanos() as u64,
            );
            if let Some(kind) = planned {
                return kind;
            }
        }
        DecisionKind::Rejected {
            reason: first_rejection.unwrap_or(RejectionReason::NoFeasiblePlacement),
        }
    }

    /// Plans and (two-phase) commits a shard-spanning split: the body on
    /// the highest-spare donor shard, the tail on the runner-up receiver,
    /// with the cost model's migration charge folded into *both* pieces'
    /// analysis WCETs. Planning is pure; the commit opens one [`PlanTxn`]
    /// scope per participant and aborts — rewinding both partitions
    /// bit-identically — unless both shards accept their pieces.
    fn try_cross_shard(&mut self, task: &Task) -> Option<DecisionKind> {
        self.metrics.record_cross_shard_attempt();
        // Donor = most spare, receiver = runner-up; ties break on the
        // lower shard index, keeping the choice deterministic. Stalled
        // and down shards cannot host a piece (a drained shard would
        // otherwise look maximally spare).
        let spare = self.spare_utilizations();
        let mut order: Vec<usize> = (0..self.shards.len())
            .filter(|&idx| self.health[idx].accepts_placements())
            .collect();
        if order.len() < 2 {
            return None;
        }
        order.sort_by(|a, b| {
            spare[*b]
                .partial_cmp(&spare[*a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.cmp(b))
        });
        let (donor, receiver) = (order[0], order[1]);
        // Every shard runs the same configuration, so shard 0's cost
        // model speaks for the fleet (as in `rebalance`). An active cost
        // spike multiplies the charge (factor 1 when no spike is live).
        let charge =
            self.shards[0].cost_model().migration_charge(task) * u64::from(self.cost_spike_factor);
        // Phase 1 — pure planning on both participants.
        let (body_core, body_piece, budget) = self.shards[donor].plan_remote_body(task, charge)?;
        let offset = body_piece.wcet();
        let remaining = task.wcet().saturating_sub(budget);
        let (tail_core, tail_piece) =
            self.shards[receiver].plan_remote_tail(task, remaining, offset, charge)?;
        // Phase 2 — place both pieces under one planning transaction.
        let body_placed = PlacedTask {
            task: body_piece.clone(),
            execution: budget,
            parent: task.id(),
            split: Some(SplitInfo {
                part_index: 0,
                part_count: 2,
                kind: SubtaskKind::Body,
                release_offset: Time::ZERO,
                next_core: None, // the next piece lives on another shard
                first_core: body_core,
            }),
        };
        let tail_placed = PlacedTask {
            task: tail_piece.clone(),
            execution: remaining,
            parent: task.id(),
            split: Some(SplitInfo {
                part_index: 1,
                part_count: 2,
                kind: SubtaskKind::Tail,
                release_offset: offset,
                next_core: None,
                first_core: tail_core, // shard-local: the tail is its shard's first piece
            }),
        };
        let committed = {
            let (donor_shard, receiver_shard) = two_shards_mut(&mut self.shards, donor, receiver);
            let mut txn = PlanTxn::new();
            txn.begin(donor_shard.partition_mut());
            txn.begin(receiver_shard.partition_mut());
            donor_shard.commit_remote_piece(body_core, body_placed);
            receiver_shard.commit_remote_piece(tail_core, tail_placed);
            let accepted = donor_shard.partition().validate().is_ok()
                && receiver_shard.partition().validate().is_ok();
            if accepted {
                txn.commit(&mut [donor_shard.partition_mut(), receiver_shard.partition_mut()]);
                donor_shard.note_remote_admitted(body_piece);
                receiver_shard.note_remote_admitted(tail_piece);
            } else {
                txn.abort(&mut [donor_shard.partition_mut(), receiver_shard.partition_mut()]);
            }
            accepted
        };
        if !committed {
            self.metrics.record_cross_shard_abort();
            return None;
        }
        self.resident.insert(task.id(), vec![donor, receiver]);
        self.split_originals.insert(task.id(), task.clone());
        self.metrics.record_cross_shard_admission(2);
        Some(DecisionKind::Admitted {
            path: DecisionPath::CrossShardSplit,
            migrations: 1,
            inflation: charge * 2,
        })
    }

    fn depart(&mut self, id: TaskId) -> DecisionKind {
        self.split_originals.remove(&id);
        match self.resident.remove(&id) {
            Some(holders) => {
                // A cross-shard split resides on several shards: the
                // departure fans out to every holder so each drops its
                // piece(s). The primary shard's decision speaks for the
                // service.
                let mut kind = None;
                for shard_idx in holders {
                    let shard_decision = self.shards[shard_idx].decide(&WorkloadEvent::Depart(id));
                    debug_assert_eq!(shard_decision.kind, DecisionKind::Departed);
                    kind.get_or_insert(shard_decision.kind);
                }
                kind.expect("resident map never holds an empty shard list")
            }
            None => DecisionKind::DepartUnknown,
        }
    }

    /// One work-stealing rebalance pass: migrates up to `max_moves`
    /// whole-placed tasks from the most-loaded shard to the most-spare
    /// one (see [`rebalance_partitions`] for the policy), then patches
    /// both shards' admission bookkeeping and the resident map. Returns
    /// the number of migrations performed. A single-shard service is a
    /// no-op.
    pub fn rebalance(&mut self, max_moves: usize) -> usize {
        // Only placement-eligible shards participate; with every shard
        // healthy this is the identity over all shard indices.
        let eligible: Vec<usize> = (0..self.shards.len())
            .filter(|&idx| self.health[idx].accepts_placements())
            .collect();
        if eligible.len() < 2 || max_moves == 0 {
            self.metrics.record_rebalance_tick(0, Time::ZERO);
            return 0;
        }
        // The rebalancer's planning probes run outside any shard's decide
        // scope; attribute their hot-counter activity to the service.
        let hot = scoped::thread_snapshot();
        let admitted: BTreeMap<TaskId, Task> = self
            .resident
            .iter()
            .filter_map(|(id, holders)| self.shards[holders[0]].lookup_admitted(*id))
            .map(|task| (task.id(), task))
            .collect();
        let lookup = |id: TaskId| admitted.get(&id).cloned();
        let placer = self.shards[0].placer().clone();
        // Every shard runs the same configuration, so shard 0's cost model
        // speaks for the fleet: a stolen task must stay schedulable on the
        // receiver with one migration charge folded into its WCET.
        let cost_model = self.shards[0].cost_model();
        let moves = {
            let charge_model = cost_model.clone();
            let charge_of = move |t: &Task| charge_model.migration_charge(t);
            // Move indices returned by the rebalancer are positions in
            // this (eligible-only) slice; map them back through
            // `eligible` below.
            let health = &self.health;
            let mut partitions: Vec<&mut Partition> = self
                .shards
                .iter_mut()
                .enumerate()
                .filter(|(idx, _)| health[*idx].accepts_placements())
                .map(|(_, shard)| shard.partition_mut())
                .collect();
            rebalance_partitions(&mut partitions, &placer, &lookup, &charge_of, max_moves)
        };
        let mut inflation = Time::ZERO;
        for mv in &moves {
            let (from, to) = (eligible[mv.from], eligible[mv.to]);
            let task = self.shards[from]
                .forget_admitted(mv.task)
                .expect("rebalanced task must be admitted on its donor shard");
            inflation += cost_model.migration_charge(&task);
            self.shards[to].note_admitted(task);
            self.resident.insert(mv.task, vec![to]);
        }
        self.metrics
            .record_rebalance_tick(moves.len() as u64, inflation);
        self.metrics.fold_hot(&hot.since());
        debug_assert!(self
            .shards
            .iter()
            .all(|s| s.partition().validate() == Ok(())));
        moves.len()
    }

    // ------------------------------------------------------------------
    // fault injection, failover, and self-audit
    // ------------------------------------------------------------------

    /// Per-shard lifecycle state, shard-index order.
    pub fn shard_health(&self) -> &[ShardHealth] {
        &self.health
    }

    /// Fault-injection and recovery counters: a view of the
    /// [merged registry](Self::merged_metrics_registry).
    pub fn fault_stats(&self) -> FaultStats {
        FaultStats::from_registry(&self.merged_metrics_registry())
    }

    /// The live cross-shard cost multiplier (1 = no spike active).
    pub fn cost_spike_factor(&self) -> u32 {
        self.cost_spike_factor
    }

    /// Applies one injected fault. Crashes drain and re-admit (see
    /// [`ShardHealth`]); stalls and spikes flip state that
    /// [`end_fault`](Self::end_fault) reverts; corruption flips one
    /// memoized response time for a later [`audit_tick`](Self::audit_tick)
    /// to catch. Out-of-range shard indices are ignored (a scripted plan
    /// may target a larger fleet than this run's).
    pub fn apply_fault(&mut self, kind: &FaultKind) {
        self.metrics.record_fault_injection(kind.label());
        match *kind {
            FaultKind::ShardCrash { shard, .. } => {
                self.crash_shard(shard);
            }
            FaultKind::ShardStall { shard, .. } => {
                if shard < self.shards.len() && self.health[shard].accepts_placements() {
                    self.health[shard] = ShardHealth::Stalled;
                }
            }
            FaultKind::CacheCorruption { shard, core } => {
                if shard < self.shards.len() {
                    // Best effort to make the fault land: if the named
                    // core has no fresh memo to corrupt, walk the shard's
                    // other cores until one does.
                    let partition = self.shards[shard].partition_mut();
                    let cores = partition.core_count();
                    let _ = (0..cores)
                        .map(|offset| CoreId((core + offset) % cores.max(1)))
                        .any(|c| partition.corrupt_cached_response(c));
                }
            }
            FaultKind::CostSpike { factor, .. } => {
                self.cost_spike_factor = factor.max(1);
            }
        }
    }

    /// Ends a timed fault: a stalled shard returns to the rotation, a
    /// crashed shard rejoins (empty — the crash drained it), a cost spike
    /// collapses back to factor 1. Corruption has no timed end; audits
    /// repair it.
    pub fn end_fault(&mut self, kind: &FaultKind) {
        match *kind {
            FaultKind::ShardCrash { shard, .. } => {
                if shard < self.shards.len() && self.health[shard] == ShardHealth::Down {
                    self.rejoin_shard(shard);
                }
            }
            FaultKind::ShardStall { shard, .. } => {
                if shard < self.shards.len() && self.health[shard] == ShardHealth::Stalled {
                    self.health[shard] = ShardHealth::Healthy;
                }
            }
            FaultKind::CacheCorruption { .. } => {}
            FaultKind::CostSpike { .. } => {
                self.cost_spike_factor = 1;
            }
        }
    }

    /// One self-audit pass: re-verifies the cached RTA of the next core
    /// in a round-robin over every live shard's cores against a scratch
    /// recomputation, rebuilding the memo in place on mismatch
    /// ([`CacheAuditVerdict::Repaired`]). Returns `None` when no live
    /// core was auditable (no cache attached, or the memo was stale).
    pub fn audit_tick(&mut self) -> Option<CacheAuditVerdict> {
        let total: usize = self.shards.iter().map(S::core_count).sum();
        if total == 0 {
            return None;
        }
        for _ in 0..total {
            let mut flat = self.audit_cursor % total;
            self.audit_cursor = self.audit_cursor.wrapping_add(1);
            let mut shard = 0;
            while flat >= self.shards[shard].core_count() {
                flat -= self.shards[shard].core_count();
                shard += 1;
            }
            if self.health[shard] == ShardHealth::Down {
                continue;
            }
            let verdict = self.shards[shard]
                .partition_mut()
                .audit_cached_core(CoreId(flat));
            self.metrics
                .record_audit_check(verdict == Some(CacheAuditVerdict::Repaired));
            return verdict;
        }
        None
    }

    /// Kills a shard: marks it `Down`, drains every task holding a piece
    /// on it (ascending task id, so recovery is deterministic), and
    /// re-admits the drained tasks onto the survivors through the normal
    /// placement order — falling back to the cross-shard planner, whose
    /// [`PlanTxn`] rewinds the survivors bit-identically when a recovery
    /// placement fails. Unrecoverable tasks surface as
    /// [`DecisionKind::EvictedOnFailure`] entries in the service log.
    fn crash_shard(&mut self, shard: usize) {
        if shard >= self.shards.len() || self.health[shard] == ShardHealth::Down {
            return;
        }
        self.health[shard] = ShardHealth::Down;
        let victims: Vec<(TaskId, Vec<usize>)> = self
            .resident
            .iter()
            .filter(|(_, holders)| holders.contains(&shard))
            .map(|(id, holders)| (*id, holders.clone()))
            .collect();
        let mut drained: Vec<Task> = Vec::new();
        for (id, holders) in victims {
            // Capture the original parameters before the bookkeeping is
            // dropped: a whole admission's original lives on its shard, a
            // split's is pinned in `split_originals`.
            let original = self
                .split_originals
                .remove(&id)
                .or_else(|| self.shards[holders[0]].lookup_admitted(id));
            // The crash wipes the dead shard's residency; surviving
            // holders of cross-shard pieces drop their now-orphaned
            // pieces. Departing the dead shard too leaves it exactly as a
            // rebuild from the (now-empty) residency map would.
            for &holder in &holders {
                let decision = self.shards[holder].decide(&WorkloadEvent::Depart(id));
                debug_assert_eq!(decision.kind, DecisionKind::Departed);
            }
            self.resident.remove(&id);
            if let Some(task) = original {
                drained.push(task);
            }
        }
        self.metrics.record_fault_drained(drained.len() as u64);
        for task in drained {
            if self.readmit(&task) {
                self.metrics.record_fault_recovery();
            } else {
                self.metrics.record_fault_eviction();
                self.push_eviction_decision(task.id());
            }
        }
    }

    /// Re-admits one drained task onto the surviving shards. Unlike
    /// [`arrive`](Self::arrive) this is not a workload event: it appends
    /// no service decision and leaves the service-level decision counters
    /// alone (the shards' own logs still record the placements).
    fn readmit(&mut self, task: &Task) -> bool {
        debug_assert!(!self.resident.contains_key(&task.id()));
        let spare = self.spare_utilizations();
        let mut order = self.router.placement_order(task.id(), &spare);
        order.retain(|&idx| self.health[idx].accepts_placements());
        let event = WorkloadEvent::Arrive(task.clone());
        for shard_idx in order {
            if self.shards[shard_idx].decide(&event).is_admission() {
                self.resident.insert(task.id(), vec![shard_idx]);
                return true;
            }
        }
        if self.cross_shard {
            let stage = Instant::now();
            let planned = self.try_cross_shard(task);
            self.metrics.record_stage(
                DecisionPath::CrossShardSplit,
                planned.is_some(),
                stage.elapsed().as_nanos() as u64,
            );
            return planned.is_some();
        }
        false
    }

    /// A crashed shard whose down interval elapsed rebuilds itself from
    /// the residency map — which holds nothing for it, because the crash
    /// drained it — and re-enters the rotation as `Rejoining`.
    fn rejoin_shard(&mut self, shard: usize) {
        debug_assert!(self
            .resident
            .values()
            .all(|holders| !holders.contains(&shard)));
        self.health[shard] = ShardHealth::Rejoining;
        self.metrics.record_fault_rejoin();
    }

    /// Flips every `Rejoining` shard to `Healthy` (called when the router
    /// next routes an arrival, completing the rejoin).
    fn complete_rejoins(&mut self) {
        for state in &mut self.health {
            if *state == ShardHealth::Rejoining {
                *state = ShardHealth::Healthy;
            }
        }
    }

    /// Appends a service-level [`DecisionKind::EvictedOnFailure`] entry
    /// for a drained task no survivor could host.
    fn push_eviction_decision(&mut self, id: TaskId) {
        let decision = Decision {
            event_index: self.next_event,
            task: id,
            kind: DecisionKind::EvictedOnFailure,
        };
        self.next_event += 1;
        self.decisions.push(decision);
        self.metrics
            .finish_decision(u64::from(id.0), &decision.kind, 0, &Default::default());
    }
}

/// Simultaneous mutable borrows of two distinct shards.
fn two_shards_mut<S>(shards: &mut [S], a: usize, b: usize) -> (&mut S, &mut S) {
    debug_assert_ne!(a, b, "cross-shard planning needs two distinct shards");
    if a < b {
        let (left, right) = shards.split_at_mut(b);
        (&mut left[a], &mut right[0])
    } else {
        let (left, right) = shards.split_at_mut(a);
        (&mut right[0], &mut left[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms_task::Time;

    fn task(id: u32, wcet_ms: u64, period_ms: u64) -> Task {
        Task::new(id, Time::from_millis(wcet_ms), Time::from_millis(period_ms)).unwrap()
    }

    fn service(cores: usize, shards: usize) -> ShardedAdmission {
        ShardedAdmission::new(OnlineConfig::new(cores), shards).unwrap()
    }

    #[test]
    fn shard_counts_are_validated() {
        assert!(matches!(
            ShardedAdmission::new(OnlineConfig::new(4), 0),
            Err(OnlineError::InvalidShardCount {
                shards: 0,
                cores: 4
            })
        ));
        assert!(matches!(
            ShardedAdmission::new(OnlineConfig::new(2), 3),
            Err(OnlineError::InvalidShardCount {
                shards: 3,
                cores: 2
            })
        ));
        let svc = service(5, 2);
        assert_eq!(svc.shard_count(), 2);
        let cores: Vec<usize> = svc.shards().iter().map(|s| s.config().cores).collect();
        assert_eq!(cores, vec![3, 2]);
    }

    #[test]
    fn arrivals_route_home_and_departures_follow_residency() {
        let mut svc = service(4, 2);
        let t = task(0, 1, 10);
        let home = ShardRouter::new(2).home_shard(t.id());
        let d = svc.handle_event(&WorkloadEvent::Arrive(t.clone()));
        assert!(d.is_admission());
        assert_eq!(svc.resident_shard(t.id()), Some(home));
        assert!(svc.shards()[home].is_admitted(t.id()));

        let d = svc.handle_event(&WorkloadEvent::Depart(t.id()));
        assert_eq!(d.kind, DecisionKind::Departed);
        assert_eq!(svc.resident_shard(t.id()), None);
        assert_eq!(svc.stats().decisions.departures, 1);

        let d = svc.handle_event(&WorkloadEvent::Depart(t.id()));
        assert_eq!(d.kind, DecisionKind::DepartUnknown);
        assert_eq!(svc.stats().decisions.unknown_departures, 1);
    }

    #[test]
    fn duplicate_arrivals_are_rejected_at_the_service() {
        let mut svc = service(2, 2);
        let t = task(3, 1, 10);
        assert!(svc
            .handle_event(&WorkloadEvent::Arrive(t.clone()))
            .is_admission());
        let d = svc.handle_event(&WorkloadEvent::Arrive(t));
        assert_eq!(
            d.kind,
            DecisionKind::Rejected {
                reason: RejectionReason::DuplicateTask
            }
        );
        // The duplicate never reached a shard: each shard saw at most one
        // arrival.
        assert!(svc.shards().iter().all(|s| s.stats().arrivals <= 1));
    }

    #[test]
    fn overflow_places_on_another_shard_when_home_is_full() {
        // 2 cores, 2 shards of 1 core each. Fill both shards' homes with
        // utilization 0.9, then offer a 0.5 task: its home shard must
        // reject and the overflow path cannot help either (both full) —
        // then drain one shard and the overflow admission must land there.
        let mut svc = service(2, 2);
        let router = ShardRouter::new(2);
        // Two heavy tasks with ids homed on different shards.
        let mut heavy_ids = vec![];
        for id in 0.. {
            let home = router.home_shard(TaskId(id));
            if !heavy_ids.iter().any(|(_, h)| *h == home) {
                heavy_ids.push((id, home));
            }
            if heavy_ids.len() == 2 {
                break;
            }
        }
        for (id, _) in &heavy_ids {
            let t = task(*id, 9, 10); // u = 0.9
            assert!(svc.handle_event(&WorkloadEvent::Arrive(t)).is_admission());
        }
        // A 0.5 task cannot fit anywhere now.
        let mut probe_id = 1000;
        let t = task(probe_id, 5, 10);
        let d = svc.handle_event(&WorkloadEvent::Arrive(t));
        assert!(!d.is_admission());
        // Drain the task on the shard that is NOT the probe's home.
        let probe_home = router.home_shard(TaskId(probe_id));
        let (victim_id, _) = heavy_ids.iter().find(|(_, h)| *h != probe_home).unwrap();
        svc.handle_event(&WorkloadEvent::Depart(TaskId(*victim_id)));
        // Re-offer (fresh id with the same home as the full shard).
        loop {
            probe_id += 1;
            if router.home_shard(TaskId(probe_id)) == probe_home {
                break;
            }
        }
        let t = task(probe_id, 5, 10);
        let d = svc.handle_event(&WorkloadEvent::Arrive(t.clone()));
        assert!(d.is_admission(), "overflow shard had room: {:?}", d.kind);
        assert_ne!(svc.resident_shard(t.id()), Some(probe_home));
        assert_eq!(svc.stats().overflow_admissions, 1);
    }

    #[test]
    fn rebalance_moves_load_and_keeps_bookkeeping_consistent() {
        let mut svc = service(2, 2);
        let router = ShardRouter::new(2);
        // Pile several small tasks onto one home shard.
        let mut ids = vec![];
        let mut id = 0u32;
        while ids.len() < 4 {
            if router.home_shard(TaskId(id)) == 0 {
                ids.push(id);
            }
            id += 1;
        }
        for id in &ids {
            let t = task(*id, 2, 10); // u = 0.2 each
            assert!(svc.handle_event(&WorkloadEvent::Arrive(t)).is_admission());
        }
        assert!(svc.spare_utilizations()[0] < svc.spare_utilizations()[1]);
        let moved = svc.rebalance(8);
        assert!(moved > 0, "imbalanced shards must trigger moves");
        assert_eq!(svc.stats().rebalance_moves, moved as u64);
        // Every task is still resident exactly where the map says.
        for id in &ids {
            let shard = svc.resident_shard(TaskId(*id)).unwrap();
            assert!(svc.shards()[shard].is_admitted(TaskId(*id)));
            assert_eq!(
                svc.shards()[shard]
                    .partition()
                    .placements_of(TaskId(*id))
                    .len(),
                1
            );
        }
        // Departing a migrated task still works.
        for id in &ids {
            assert_eq!(
                svc.handle_event(&WorkloadEvent::Depart(TaskId(*id))).kind,
                DecisionKind::Departed
            );
        }
        assert_eq!(svc.admitted_count(), 0);
    }

    #[test]
    fn single_shard_service_matches_the_legacy_controller() {
        let events = crate::ChurnGenerator::new()
            .cores(4)
            .events(200)
            .seed(21)
            .generate()
            .unwrap();
        let config = OnlineConfig::new(4);
        let mut svc = ShardedAdmission::new(config.clone(), 1).unwrap();
        let mut legacy = AdmissionController::new(config).unwrap();
        let service_decisions = svc.handle_all(&events);
        let legacy_decisions = legacy.handle_all(&events);
        assert_eq!(service_decisions, legacy_decisions);
        assert_eq!(svc.stats().decisions, legacy.stats());
        assert_eq!(svc.stats().overflow_admissions, 0);
        // The deterministic metric section agrees byte for byte: outcomes
        // from identical decision streams, mechanism counters from the
        // identical cascade the single shard ran (every engine registers
        // the full metric name set, so the service's untouched overflow
        // and rebalance counters sit at zero on both sides).
        let deterministic = |r: &Registry| {
            r.snapshot(spms_telemetry::SnapshotFilter::Deterministic)
                .render_prometheus()
        };
        assert_eq!(
            deterministic(&svc.merged_metrics_registry()),
            deterministic(legacy.metrics().registry())
        );
    }

    #[test]
    fn service_metrics_track_overflow_and_rebalance() {
        let mut svc = service(2, 2);
        let router = ShardRouter::new(2);
        let mut ids = vec![];
        let mut id = 0u32;
        while ids.len() < 4 {
            if router.home_shard(TaskId(id)) == 0 {
                ids.push(id);
            }
            id += 1;
        }
        for id in &ids {
            assert!(svc
                .handle_event(&WorkloadEvent::Arrive(task(*id, 2, 10)))
                .is_admission());
        }
        let moved = svc.rebalance(8);
        assert!(moved > 0);
        let merged = svc.merged_metrics_registry();
        assert_eq!(
            merged.counter_by_name("spms_mech_rebalance_ticks_total"),
            Some(1)
        );
        assert_eq!(
            merged.counter_by_name("spms_mech_rebalance_moves_total"),
            Some(moved as u64)
        );
        assert_eq!(
            merged.gauge_by_name("spms_mech_rebalance_last_moves"),
            Some(moved as u64)
        );
        let history: Vec<_> = svc.metrics().rebalance_history().copied().collect();
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].moves, moved as u64);
        // Outcome counters follow the service's final decisions, not the
        // per-shard decide attempts.
        assert_eq!(
            merged.counter_by_name("spms_arrivals_total"),
            Some(ids.len() as u64)
        );
        assert_eq!(
            merged.counter_by_name("spms_admitted_total"),
            Some(ids.len() as u64)
        );
        // Shard mechanism activity (first-fit probes) made it into the
        // merged view.
        assert!(
            merged
                .counter_by_name("spms_mech_whole_probes_total")
                .unwrap()
                >= 1
        );
    }

    /// The smallest id whose home shard (out of 2) is `home`.
    fn id_homed_on(home: usize) -> u32 {
        let router = ShardRouter::new(2);
        (0u32..)
            .find(|id| router.home_shard(TaskId(*id)) == home)
            .unwrap()
    }

    /// Two 1-core shards loaded so a walled service must reject an
    /// 11 ms / 20 ms arrival everywhere, while the cross-shard planner
    /// can place a 5 ms body on shard 0 and the 6 ms tail on shard 1
    /// (tail deadline 15 ms; shard 1's resident still meets R = 14 ≤ 16).
    fn loaded_pair(cross_shard: bool) -> (ShardedAdmission, Task) {
        let mut config = OnlineConfig::new(2);
        config.cross_shard_split = cross_shard;
        let mut svc = ShardedAdmission::new(config, 2).unwrap();
        let donor_resident = task(id_homed_on(0), 5, 10);
        let receiver_resident = task(id_homed_on(1), 8, 16);
        assert!(svc
            .handle_event(&WorkloadEvent::Arrive(donor_resident))
            .is_admission());
        assert!(svc
            .handle_event(&WorkloadEvent::Arrive(receiver_resident))
            .is_admission());
        let arrival = task(1000, 11, 20);
        (svc, arrival)
    }

    #[test]
    fn cross_shard_split_recovers_a_walled_rejection() {
        // Walled: the arrival fits no single 1-core shard, whole or split.
        let (mut walled, arrival) = loaded_pair(false);
        let d = walled.handle_event(&WorkloadEvent::Arrive(arrival.clone()));
        assert!(
            !d.is_admission(),
            "walled service must reject: {:?}",
            d.kind
        );

        // Cross-shard: body on the donor, tail on the receiver.
        let (mut svc, arrival) = loaded_pair(true);
        assert!(svc.cross_shard_enabled());
        let d = svc.handle_event(&WorkloadEvent::Arrive(arrival.clone()));
        assert_eq!(
            d.kind,
            DecisionKind::Admitted {
                path: DecisionPath::CrossShardSplit,
                migrations: 1,
                inflation: Time::ZERO,
            }
        );
        assert_eq!(svc.resident_shards(arrival.id()), &[0, 1]);
        assert_eq!(svc.stats().cross_shard_admissions, 1);
        for shard in svc.shards() {
            assert_eq!(shard.partition().validate(), Ok(()));
            assert!(shard.is_admitted(arrival.id()));
        }
        let merged = svc.merged_metrics_registry();
        assert_eq!(
            merged.counter_by_name("spms_mech_cross_shard_attempts_total"),
            Some(1)
        );
        assert_eq!(
            merged.counter_by_name("spms_mech_cross_shard_admissions_total"),
            Some(1)
        );
        assert_eq!(
            merged.counter_by_name("spms_mech_cross_shard_pieces_total"),
            Some(2)
        );
        assert_eq!(
            merged.counter_by_name("spms_admitted_cross_shard_split_total"),
            Some(1)
        );

        // Stitching the shard partitions relinks the chain into a fully
        // valid global placement.
        let partitions: Vec<_> = svc.shards().iter().map(|s| s.partition()).collect();
        let stitched = spms_core::stitch_partitions(&partitions);
        assert_eq!(stitched.validate(), Ok(()));
        assert_eq!(stitched.placements_of(arrival.id()).len(), 2);
    }

    #[test]
    fn failed_cross_shard_plans_leave_both_shards_untouched() {
        // Receiver loaded to 14/16: the 6 ms tail (deadline 15) would
        // push its resident to R = 20 > 16, so phase-1 planning fails
        // and nothing may change on either shard.
        let mut config = OnlineConfig::new(2);
        config.cross_shard_split = true;
        let mut svc = ShardedAdmission::new(config, 2).unwrap();
        let donor_resident = task(id_homed_on(0), 5, 10);
        let receiver_resident = task(id_homed_on(1), 14, 16);
        assert!(svc
            .handle_event(&WorkloadEvent::Arrive(donor_resident))
            .is_admission());
        assert!(svc
            .handle_event(&WorkloadEvent::Arrive(receiver_resident))
            .is_admission());
        let before: Vec<_> = svc.shards().iter().map(|s| s.partition().clone()).collect();
        let d = svc.handle_event(&WorkloadEvent::Arrive(task(1000, 11, 20)));
        assert!(!d.is_admission());
        let after: Vec<_> = svc.shards().iter().map(|s| s.partition().clone()).collect();
        assert_eq!(before, after, "a failed plan must not leak state");
        let merged = svc.merged_metrics_registry();
        assert_eq!(
            merged.counter_by_name("spms_mech_cross_shard_attempts_total"),
            Some(1)
        );
        assert_eq!(
            merged.counter_by_name("spms_mech_cross_shard_admissions_total"),
            Some(0)
        );
        assert_eq!(svc.resident_shard(TaskId(1000)), None);
    }

    #[test]
    fn departures_fan_out_to_every_shard_holding_a_piece() {
        let (mut svc, arrival) = loaded_pair(true);
        assert!(svc
            .handle_event(&WorkloadEvent::Arrive(arrival.clone()))
            .is_admission());
        assert_eq!(svc.resident_shards(arrival.id()).len(), 2);

        // A duplicate arrival while the task is split across shards is
        // screened at the service before any shard sees it.
        let d = svc.handle_event(&WorkloadEvent::Arrive(arrival.clone()));
        assert_eq!(
            d.kind,
            DecisionKind::Rejected {
                reason: RejectionReason::DuplicateTask
            }
        );

        // One departure clears every piece on every shard.
        let d = svc.handle_event(&WorkloadEvent::Depart(arrival.id()));
        assert_eq!(d.kind, DecisionKind::Departed);
        assert_eq!(svc.resident_shards(arrival.id()), &[] as &[usize]);
        for shard in svc.shards() {
            assert!(!shard.is_admitted(arrival.id()));
            assert!(shard.partition().placements_of(arrival.id()).is_empty());
            assert_eq!(shard.partition().validate(), Ok(()));
        }
        assert_eq!(svc.stats().decisions.departures, 1);

        // The second departure is unknown — exactly once, not once per
        // shard that used to hold a piece.
        let d = svc.handle_event(&WorkloadEvent::Depart(arrival.id()));
        assert_eq!(d.kind, DecisionKind::DepartUnknown);
        assert_eq!(svc.stats().decisions.unknown_departures, 1);
    }

    #[test]
    fn depart_after_rebalance_follows_the_moved_residency() {
        // The depart-after-rebalance race: a task admitted on its home
        // shard, then work-stolen to the other, must depart exactly once
        // from wherever it now lives — and only there.
        let mut config = OnlineConfig::new(2);
        config.cross_shard_split = true;
        let mut svc = ShardedAdmission::new(config, 2).unwrap();
        let router = ShardRouter::new(2);
        let mut ids = vec![];
        let mut id = 0u32;
        while ids.len() < 4 {
            if router.home_shard(TaskId(id)) == 0 {
                ids.push(id);
            }
            id += 1;
        }
        for id in &ids {
            assert!(svc
                .handle_event(&WorkloadEvent::Arrive(task(*id, 2, 10)))
                .is_admission());
        }
        let moved = svc.rebalance(8);
        assert!(moved > 0);
        let migrant = *ids
            .iter()
            .find(|id| svc.resident_shard(TaskId(**id)) == Some(1))
            .expect("rebalance moved something to shard 1");
        // Residency is single-shard again after the move.
        assert_eq!(svc.resident_shards(TaskId(migrant)), &[1]);
        // A duplicate arrival of the migrant is still screened.
        let d = svc.handle_event(&WorkloadEvent::Arrive(task(migrant, 2, 10)));
        assert_eq!(
            d.kind,
            DecisionKind::Rejected {
                reason: RejectionReason::DuplicateTask
            }
        );
        assert_eq!(
            svc.handle_event(&WorkloadEvent::Depart(TaskId(migrant)))
                .kind,
            DecisionKind::Departed
        );
        assert!(!svc.shards()[0].is_admitted(TaskId(migrant)));
        assert!(!svc.shards()[1].is_admitted(TaskId(migrant)));
        assert_eq!(
            svc.handle_event(&WorkloadEvent::Depart(TaskId(migrant)))
                .kind,
            DecisionKind::DepartUnknown
        );
    }

    #[test]
    fn crash_drains_the_shard_and_readmits_onto_survivors() {
        let mut svc = service(8, 2);
        let router = ShardRouter::new(2);
        // Admit tasks homed on both shards so the crash has real victims.
        let mut on_dead = 0;
        for id in 0..8u32 {
            assert!(svc
                .handle_event(&WorkloadEvent::Arrive(task(id, 1, 10)))
                .is_admission());
            if router.home_shard(TaskId(id)) == 0 {
                on_dead += 1;
            }
        }
        assert!(on_dead > 0, "some task must be homed on shard 0");
        let before = svc.admitted_count();
        svc.apply_fault(&FaultKind::ShardCrash {
            shard: 0,
            down_ms: 50,
        });
        assert_eq!(svc.shard_health()[0], ShardHealth::Down);
        let stats = svc.fault_stats();
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.drained, on_dead as u64);
        assert_eq!(stats.recoveries + stats.evictions, stats.drained);
        // Light load on 4 surviving cores: everything recovers, nothing
        // is evicted, and no residency points at the dead shard.
        assert_eq!(stats.evictions, 0);
        assert_eq!(svc.admitted_count(), before);
        assert_eq!(svc.shards()[0].partition().placement_count(), 0);
        for id in 0..8u32 {
            assert_eq!(svc.resident_shards(TaskId(id)), &[1]);
        }
        // The rejoin brings the shard back empty and the next arrival
        // completes it.
        svc.end_fault(&FaultKind::ShardCrash {
            shard: 0,
            down_ms: 50,
        });
        assert_eq!(svc.shard_health()[0], ShardHealth::Rejoining);
        assert_eq!(svc.fault_stats().rejoins, 1);
        assert!(svc
            .handle_event(&WorkloadEvent::Arrive(task(100, 1, 10)))
            .is_admission());
        assert_eq!(svc.shard_health()[0], ShardHealth::Healthy);
    }

    #[test]
    fn unrecoverable_drained_tasks_surface_as_evictions() {
        // Saturate both shards, then crash one: the survivors have no
        // room, so the drained tasks surface as EvictedOnFailure entries
        // in the service log (not silent drops).
        let mut svc = service(2, 2);
        let mut admitted = vec![];
        for id in 0..40u32 {
            if svc
                .handle_event(&WorkloadEvent::Arrive(task(id, 9, 10)))
                .is_admission()
            {
                admitted.push(id);
            }
        }
        assert!(admitted.len() >= 2, "near-saturation load must admit");
        let crashed = svc.resident_shard(TaskId(admitted[0])).unwrap();
        let log_before = svc.decisions().len();
        svc.apply_fault(&FaultKind::ShardCrash {
            shard: crashed,
            down_ms: 50,
        });
        let stats = svc.fault_stats();
        assert!(stats.drained > 0);
        assert!(stats.evictions > 0, "a full survivor cannot host the drain");
        let evicted: Vec<&Decision> = svc.decisions()[log_before..]
            .iter()
            .filter(|d| d.kind == DecisionKind::EvictedOnFailure)
            .collect();
        assert_eq!(evicted.len() as u64, stats.evictions);
        // Eviction entries keep the event index monotone.
        for (i, d) in svc.decisions().iter().enumerate() {
            assert_eq!(d.event_index, i);
        }
    }

    #[test]
    fn stalled_shards_leave_the_rotation_and_return() {
        let mut svc = service(4, 2);
        let stall = FaultKind::ShardStall { shard: 0, ms: 10 };
        svc.apply_fault(&stall);
        assert_eq!(svc.shard_health()[0], ShardHealth::Stalled);
        // Every arrival lands on shard 1 while the stall holds, even
        // tasks homed on shard 0.
        for id in 0..6u32 {
            assert!(svc
                .handle_event(&WorkloadEvent::Arrive(task(id, 1, 100)))
                .is_admission());
            assert_eq!(svc.resident_shards(TaskId(id)), &[1]);
        }
        // Stalled shards keep their residents: no drain happened.
        assert_eq!(svc.fault_stats().drained, 0);
        svc.end_fault(&stall);
        assert_eq!(svc.shard_health()[0], ShardHealth::Healthy);
        let t = task(50, 1, 100);
        let home = ShardRouter::new(2).home_shard(t.id());
        if home == 0 {
            assert!(svc.handle_event(&WorkloadEvent::Arrive(t)).is_admission());
            assert_eq!(svc.resident_shards(TaskId(50)), &[0]);
        }
    }

    #[test]
    fn cost_spikes_multiply_the_cross_shard_charge_until_they_end() {
        let spike = FaultKind::CostSpike { factor: 5, ms: 10 };
        let mut svc = service(4, 2);
        svc.apply_fault(&spike);
        assert_eq!(svc.cost_spike_factor(), 5);
        svc.end_fault(&spike);
        assert_eq!(svc.cost_spike_factor(), 1);
        assert_eq!(svc.fault_stats().cost_spikes, 1);
    }

    #[test]
    fn audit_ticks_catch_injected_cache_corruption() {
        let mut svc = service(4, 2);
        for id in 0..8u32 {
            svc.handle_event(&WorkloadEvent::Arrive(task(id, 1, 10)));
        }
        // A clean sweep over every core first: all verdicts clean.
        let cores: usize = svc.shards().iter().map(|s| s.core_count()).sum();
        for _ in 0..cores {
            assert_ne!(svc.audit_tick(), Some(CacheAuditVerdict::Repaired));
        }
        assert_eq!(svc.fault_stats().audit_violations, 0);
        svc.apply_fault(&FaultKind::CacheCorruption { shard: 0, core: 0 });
        assert_eq!(svc.fault_stats().corruptions, 1);
        // One full audit round must detect and repair exactly the one
        // corrupted memo...
        let mut repaired = 0;
        for _ in 0..cores {
            if svc.audit_tick() == Some(CacheAuditVerdict::Repaired) {
                repaired += 1;
            }
        }
        assert_eq!(repaired, 1);
        assert_eq!(svc.fault_stats().audit_violations, 1);
        assert_eq!(svc.fault_stats().audit_repairs, 1);
        // ...and the next round is clean again.
        for _ in 0..cores {
            assert_ne!(svc.audit_tick(), Some(CacheAuditVerdict::Repaired));
        }
        assert_eq!(svc.fault_stats().audit_violations, 1);
    }

    #[test]
    fn a_crash_recovers_cross_shard_splits_from_their_original_parameters() {
        // A task split across shards 0 and 1 is stored piece-shaped on
        // both; crashing the tail holder must re-admit the ORIGINAL
        // parameters, not a piece.
        let mut config = OnlineConfig::new(4);
        config.cross_shard_split = true;
        let mut svc = ShardedAdmission::new(config, 2).unwrap();
        // Fill both shards until only a cross-shard split fits.
        let mut split_id = None;
        for id in 0..40u32 {
            let d = svc.handle_event(&WorkloadEvent::Arrive(task(id, 11, 20)));
            if let DecisionKind::Admitted {
                path: DecisionPath::CrossShardSplit,
                ..
            } = d.kind
            {
                split_id = Some(id);
                break;
            }
        }
        let Some(split_id) = split_id else {
            // The packing never produced a split on this geometry; the
            // scenario is vacuous rather than failed.
            return;
        };
        assert_eq!(svc.resident_shards(TaskId(split_id)).len(), 2);
        let tail_holder = svc.resident_shards(TaskId(split_id))[1];
        svc.apply_fault(&FaultKind::ShardCrash {
            shard: tail_holder,
            down_ms: 50,
        });
        let holders = svc.resident_shards(TaskId(split_id));
        if !holders.is_empty() {
            // Recovered: wherever it lives now, the admitted copy must
            // carry the original WCET (11 ms), not a piece budget.
            let kept = svc.shards()[holders[0]]
                .lookup_admitted(TaskId(split_id))
                .expect("recovered task is admitted on its holder");
            assert_eq!(kept.wcet(), Time::from_millis(11));
        } else {
            assert!(svc.fault_stats().evictions > 0);
        }
    }
}
