//! The timestamped event loop driving a sharded admission service.
//!
//! [`EventLoop`] turns the admission layer from a synchronous library call
//! into an engine: events are processed in time order — workload arrivals
//! and departures from a loaded trace, deadline expirations that
//! synthesize a departure when an admitted task's lease runs out, and
//! periodic rebalance ticks that work-steal utilization between shards.
//!
//! **Where events live.** A loaded trace is kept as one vector sorted by
//! `(time, sequence)` and read through a cursor, so the bulk of the stream
//! never enters a heap. Everything scheduled while the loop runs or through
//! [`EventLoop::schedule`] — lease expirations, rebalance and audit ticks,
//! faults, injected workload events — lives in a timestamped
//! [`BinaryHeap`]. Each pop takes whichever head is smaller by
//! `(time, sequence)`; sequence numbers come from one counter shared by
//! both sources, so the merged stream is exactly the order one heap
//! holding every event would pop.
//!
//! **Determinism.** Events sharing a timestamp form one batch whose
//! processing order is decided by a seeded ChaCha8 tie-shuffle, not by
//! insertion order; everything else is ordered by `(time, sequence)`.
//! Equal configuration, trace and shuffle seed therefore reproduce the
//! processed event stream byte-identically. With leases disabled the
//! scheduled events are independent of admission outcomes, so the
//! processed stream is also identical *across shard counts* (the
//! `events_digest` the soak experiment asserts on); with leases enabled,
//! expirations depend on which arrivals were admitted, which may
//! legitimately differ between shard layouts.
//!
//! **Lease renewals.** A [`WorkloadEvent::Renew`] in the trace extends a
//! resident task's lease: the loop records the new deadline and schedules
//! a fresh [`EngineEvent::DeadlineExpire`]. Expirations carry no
//! cancellation handle, so stale heap entries are screened on pop — an
//! expiration only synthesizes a departure when its timestamp matches the
//! task's *live* deadline and the task is still resident. Renewals are
//! lease bookkeeping: they are logged but never dispatched to the
//! admission engine.
//!
//! The loop records every workload event it dispatches (including
//! synthesized lease departures and noted renewals) as a [`TimedEvent`]
//! log. Feeding that log to a fresh single controller reproduces a
//! 1-shard run's decision log byte-identically — the `shard_equivalence`
//! suite enforces it. (Renewals replay as
//! [`RenewNoted`](crate::DecisionKind::RenewNoted) no-ops.)

use std::collections::{BTreeMap, BinaryHeap};

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spms_faults::{FaultKind, FaultPlan};
use spms_task::{TaskId, Time};
use spms_telemetry::{Snapshot, SnapshotFilter};

use crate::{AdmissionShard, Decision, ShardedAdmission, TimedEvent, WorkloadEvent};

/// How many per-tick rebalance snapshots the loop retains when
/// [`EventLoopConfig::snapshot_on_rebalance`] is set.
pub const TICK_SNAPSHOT_CAPACITY: usize = 64;

/// Largest left-shift the zero-move rebalance backoff applies to the
/// tick period (2³ = 8× stretch) when
/// [`EventLoopConfig::rebalance_backoff`] is enabled.
pub const MAX_REBALANCE_BACKOFF_SHIFT: u32 = 3;

/// One event the loop can process.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineEvent {
    /// A workload event from the trace (or injected by a caller).
    Workload(WorkloadEvent),
    /// An admitted task's lease ran out: synthesize its departure if it is
    /// still resident, else ignore (it already departed).
    DeadlineExpire(TaskId),
    /// Run one work-stealing rebalance pass over the shards.
    RebalanceTick,
    /// Inject one fault into the engine
    /// ([`ShardedAdmission::apply_fault`]).
    Fault(FaultKind),
    /// A timed fault's effect ends ([`ShardedAdmission::end_fault`]).
    FaultEnd(FaultKind),
    /// Run one self-audit pass ([`ShardedAdmission::audit_tick`]),
    /// re-verifying one cached core against a scratch recomputation.
    AuditTick,
}

/// A scheduled event with its timestamp and insertion sequence. The heap
/// is a max-heap, so `Ord` is reversed to pop the earliest `(at, seq)`
/// first.
#[derive(Debug, Clone, PartialEq)]
struct Scheduled {
    at: Time,
    seq: u64,
    event: EngineEvent,
}

impl Eq for Scheduled {}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Configuration of an [`EventLoop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventLoopConfig {
    /// Seed of the same-timestamp tie-shuffle.
    pub shuffle_seed: u64,
    /// When set, every admission schedules a deadline expiration `lease`
    /// after its admission time, synthesizing a departure if the task is
    /// still resident then. `None` (the default) disables leases and keeps
    /// the heap content — and thus the processed event stream —
    /// independent of admission outcomes.
    pub lease: Option<Time>,
    /// When set, a rebalance tick fires every `period` while workload
    /// events remain pending.
    pub rebalance_period: Option<Time>,
    /// Migration budget of each rebalance tick.
    pub rebalance_max_moves: usize,
    /// When set, every rebalance tick captures a deterministic-section
    /// snapshot of the engine's merged metrics registry into a bounded
    /// log ([`EventLoop::tick_snapshots`], last
    /// [`TICK_SNAPSHOT_CAPACITY`] ticks) — the periodic-snapshot hook
    /// soak reports read.
    pub snapshot_on_rebalance: bool,
    /// When set, a self-audit tick fires every `period` while workload
    /// events remain pending, re-verifying one cached core per tick.
    pub audit_period: Option<Time>,
    /// When set, consecutive zero-move rebalance ticks exponentially
    /// stretch the self-rescheduled tick interval (doubling per idle
    /// tick, capped at 2^[`MAX_REBALANCE_BACKOFF_SHIFT`]×); any tick that
    /// moves a task resets the interval to
    /// [`rebalance_period`](Self::rebalance_period).
    pub rebalance_backoff: bool,
}

impl Default for EventLoopConfig {
    fn default() -> Self {
        EventLoopConfig {
            shuffle_seed: 0,
            lease: None,
            rebalance_period: None,
            rebalance_max_moves: 4,
            snapshot_on_rebalance: false,
            audit_period: None,
            rebalance_backoff: false,
        }
    }
}

impl EventLoopConfig {
    /// A default configuration with the given tie-shuffle seed.
    pub fn new(shuffle_seed: u64) -> Self {
        EventLoopConfig {
            shuffle_seed,
            ..EventLoopConfig::default()
        }
    }

    /// Sets the admission lease (builder style).
    pub fn with_lease(mut self, lease: Option<Time>) -> Self {
        self.lease = lease;
        self
    }

    /// Sets the rebalance period (builder style).
    pub fn with_rebalance_period(mut self, period: Option<Time>) -> Self {
        self.rebalance_period = period;
        self
    }

    /// Sets the per-tick migration budget (builder style).
    pub fn with_rebalance_max_moves(mut self, moves: usize) -> Self {
        self.rebalance_max_moves = moves;
        self
    }

    /// Enables or disables per-tick metric snapshots (builder style).
    pub fn with_rebalance_snapshots(mut self, enabled: bool) -> Self {
        self.snapshot_on_rebalance = enabled;
        self
    }

    /// Sets the self-audit period (builder style).
    pub fn with_audit_period(mut self, period: Option<Time>) -> Self {
        self.audit_period = period;
        self
    }

    /// Enables or disables zero-move rebalance backoff (builder style).
    pub fn with_rebalance_backoff(mut self, enabled: bool) -> Self {
        self.rebalance_backoff = enabled;
        self
    }
}

/// The timestamped event loop. See the module docs of `event_loop.rs` for
/// ordering and determinism guarantees.
#[derive(Debug, Clone)]
pub struct EventLoop {
    config: EventLoopConfig,
    /// Events scheduled one at a time (see the [module docs](self)).
    heap: BinaryHeap<Scheduled>,
    /// The not yet processed part of the loaded traces, sorted by
    /// `(at, seq)`.
    trace: std::vec::IntoIter<Scheduled>,
    seq: u64,
    pending_workload: usize,
    now: Time,
    log: Vec<TimedEvent>,
    tick_snapshots: Vec<(Time, Snapshot)>,
    /// Live lease deadline per admitted task. Renewals move the entry
    /// forward; a popped [`EngineEvent::DeadlineExpire`] only fires when
    /// its timestamp still matches (stale entries from before a renewal
    /// are ignored).
    lease_deadlines: BTreeMap<TaskId, Time>,
    lease_renewals: u64,
    /// Consecutive zero-move rebalance ticks, clamped at
    /// [`MAX_REBALANCE_BACKOFF_SHIFT`]; drives the backoff stretch when
    /// [`EventLoopConfig::rebalance_backoff`] is set.
    rebalance_zero_streak: u32,
}

impl EventLoop {
    /// An empty loop.
    pub fn new(config: EventLoopConfig) -> Self {
        EventLoop {
            config,
            heap: BinaryHeap::new(),
            trace: Vec::new().into_iter(),
            seq: 0,
            pending_workload: 0,
            now: Time::ZERO,
            log: Vec::new(),
            tick_snapshots: Vec::new(),
            lease_deadlines: BTreeMap::new(),
            lease_renewals: 0,
            rebalance_zero_streak: 0,
        }
    }

    /// The loop configuration.
    pub fn config(&self) -> &EventLoopConfig {
        &self.config
    }

    /// Schedules one event at an absolute time.
    pub fn schedule(&mut self, at: Time, event: EngineEvent) {
        if matches!(event, EngineEvent::Workload(_)) {
            self.pending_workload += 1;
        }
        self.heap.push(Scheduled {
            at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Schedules a whole timed workload trace. The events join the loop's
    /// sorted trace rather than its heap; a trace that is not in time order,
    /// or that reaches back before events already loaded, is sorted once by
    /// `(at, seq)`. Processing order is the same as scheduling each event.
    pub fn load_trace(&mut self, trace: &[TimedEvent]) {
        // Collecting the cursor reuses its buffer. Entries grow by `push`,
        // not by an exact reservation, which keeps peak RSS where the heap
        // kept it.
        let mut pending: Vec<Scheduled> = std::mem::take(&mut self.trace).collect();
        let mut sorted = true;
        for timed in trace {
            sorted &= pending.last().is_none_or(|last| last.at <= timed.at);
            pending.push(Scheduled {
                at: timed.at,
                seq: self.seq,
                event: EngineEvent::Workload(timed.event.clone()),
            });
            self.seq += 1;
        }
        if !sorted {
            pending.sort_unstable_by_key(|s| (s.at, s.seq));
        }
        self.pending_workload += trace.len();
        self.trace = pending.into_iter();
    }

    /// Schedules a fault plan: each fault fires at its `at_ms`, and timed
    /// faults (stalls, crashes, spikes) schedule their matching
    /// [`EngineEvent::FaultEnd`] at `at_ms + duration`. Fault events do
    /// not count as pending workload — a plan alone never keeps the
    /// rebalance/audit ticks alive.
    pub fn load_faults(&mut self, plan: &FaultPlan) {
        for event in plan.events() {
            let at = Time::from_millis(event.at_ms);
            self.schedule(at, EngineEvent::Fault(event.kind));
            let duration = event.kind.duration_ms();
            if duration > 0 {
                self.schedule(
                    at + Time::from_millis(duration),
                    EngineEvent::FaultEnd(event.kind),
                );
            }
        }
    }

    /// The simulated clock: timestamp of the last processed batch.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The workload events dispatched so far, in processing order, with
    /// the timestamps they fired at. Synthesized lease departures appear
    /// here too; rebalance ticks (which make no admission decision) do
    /// not.
    pub fn event_log(&self) -> &[TimedEvent] {
        &self.log
    }

    /// Detaches the processed-event log (e.g. to write a replayable
    /// trace) without cloning it.
    pub fn take_event_log(&mut self) -> Vec<TimedEvent> {
        std::mem::take(&mut self.log)
    }

    /// The per-tick deterministic metric snapshots captured when
    /// [`EventLoopConfig::snapshot_on_rebalance`] is set: `(tick time,
    /// snapshot)`, oldest first, bounded to the last
    /// [`TICK_SNAPSHOT_CAPACITY`] ticks.
    pub fn tick_snapshots(&self) -> &[(Time, Snapshot)] {
        &self.tick_snapshots
    }

    /// How many lease renewals the loop honored (resident task, leases
    /// enabled). Renewals in a lease-free run are logged but extend
    /// nothing.
    pub fn lease_renewals(&self) -> u64 {
        self.lease_renewals
    }

    /// Takes the earliest pending event by `(at, seq)`, from the trace or
    /// the heap.
    fn pop(&mut self) -> Option<Scheduled> {
        let from_trace = match (self.trace.as_slice().first(), self.heap.peek()) {
            (Some(traced), Some(scheduled)) => {
                (traced.at, traced.seq) < (scheduled.at, scheduled.seq)
            }
            (traced, _) => traced.is_some(),
        };
        if from_trace {
            self.trace.next()
        } else {
            self.heap.pop()
        }
    }

    /// The timestamp of the earliest pending event.
    fn next_at(&self) -> Option<Time> {
        let traced = self.trace.as_slice().first();
        traced
            .into_iter()
            .chain(self.heap.peek())
            .map(|s| s.at)
            .min()
    }

    /// Runs until no event is pending, dispatching every event to `engine`.
    pub fn run<S: AdmissionShard>(&mut self, engine: &mut ShardedAdmission<S>) {
        self.run_with(engine, |_, _| {});
    }

    /// [`run`](Self::run) with an observer called after every decision —
    /// the hook the soak experiment uses to sample schedulability
    /// replays.
    pub fn run_with<S: AdmissionShard>(
        &mut self,
        engine: &mut ShardedAdmission<S>,
        mut observer: impl FnMut(&ShardedAdmission<S>, &Decision),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.shuffle_seed);
        if let Some(period) = self.config.rebalance_period {
            if self.pending_workload > 0 {
                self.schedule(self.now + period, EngineEvent::RebalanceTick);
            }
        }
        if let Some(period) = self.config.audit_period {
            if self.pending_workload > 0 {
                self.schedule(self.now + period, EngineEvent::AuditTick);
            }
        }
        let mut batch: Vec<Scheduled> = Vec::new();
        while let Some(first) = self.pop() {
            let at = first.at;
            batch.clear();
            batch.push(first);
            while self.next_at() == Some(at) {
                batch.push(self.pop().expect("an event is pending at `at`"));
            }
            // The batch arrives in (at, seq) order; the seeded shuffle
            // decides the order of simultaneous events instead of
            // insertion order, so it is identical for every shard count
            // and thread count.
            if batch.len() > 1 {
                batch.shuffle(&mut rng);
            }
            self.now = at;
            for scheduled in batch.drain(..) {
                match scheduled.event {
                    EngineEvent::Workload(WorkloadEvent::Renew(id)) => {
                        self.pending_workload -= 1;
                        self.renew(engine, at, id);
                    }
                    EngineEvent::Workload(event) => {
                        self.pending_workload -= 1;
                        self.dispatch(engine, at, event, &mut observer);
                    }
                    EngineEvent::DeadlineExpire(id) => {
                        // A renewal may have pushed the live deadline past
                        // this entry; only the current one fires.
                        if self.lease_deadlines.get(&id) == Some(&at)
                            && engine.resident_shard(id).is_some()
                        {
                            engine.metrics_mut().record_lease_expiration();
                            self.dispatch(engine, at, WorkloadEvent::Depart(id), &mut observer);
                        }
                    }
                    EngineEvent::RebalanceTick => {
                        let moves = engine.rebalance(self.config.rebalance_max_moves);
                        if self.config.rebalance_backoff {
                            if moves == 0 {
                                self.rebalance_zero_streak = (self.rebalance_zero_streak + 1)
                                    .min(MAX_REBALANCE_BACKOFF_SHIFT);
                            } else {
                                self.rebalance_zero_streak = 0;
                            }
                        }
                        if self.config.snapshot_on_rebalance {
                            if self.tick_snapshots.len() == TICK_SNAPSHOT_CAPACITY {
                                self.tick_snapshots.remove(0);
                            }
                            let snapshot = engine
                                .merged_metrics_registry()
                                .snapshot(SnapshotFilter::Deterministic);
                            self.tick_snapshots.push((at, snapshot));
                        }
                        if self.pending_workload > 0 {
                            if let Some(period) = self.config.rebalance_period {
                                // Idle ticks stretch the interval
                                // exponentially (streak 0 ⇒ shift 0 ⇒ the
                                // plain period).
                                let stretched = period * (1u64 << self.rebalance_zero_streak);
                                self.schedule(at + stretched, EngineEvent::RebalanceTick);
                            }
                        }
                    }
                    EngineEvent::Fault(kind) => engine.apply_fault(&kind),
                    EngineEvent::FaultEnd(kind) => engine.end_fault(&kind),
                    EngineEvent::AuditTick => {
                        engine.audit_tick();
                        if self.pending_workload > 0 {
                            if let Some(period) = self.config.audit_period {
                                self.schedule(at + period, EngineEvent::AuditTick);
                            }
                        }
                    }
                }
            }
        }
    }

    fn dispatch<S: AdmissionShard>(
        &mut self,
        engine: &mut ShardedAdmission<S>,
        at: Time,
        event: WorkloadEvent,
        observer: &mut impl FnMut(&ShardedAdmission<S>, &Decision),
    ) {
        let decision = engine.handle_event(&event);
        if decision.is_admission() {
            if let Some(lease) = self.config.lease {
                let due = at + lease;
                self.lease_deadlines.insert(event.task_id(), due);
                self.schedule(due, EngineEvent::DeadlineExpire(event.task_id()));
            }
        } else if matches!(event, WorkloadEvent::Depart(_)) {
            // Explicit (or synthesized) departures retire the lease.
            self.lease_deadlines.remove(&event.task_id());
        }
        self.log.push(TimedEvent { at, event });
        observer(engine, &decision);
    }

    /// Handles a [`WorkloadEvent::Renew`]: extends the task's live lease
    /// deadline and schedules the matching expiration. Renewals never
    /// reach the engine — they are logged as processed and counted, but
    /// make no admission decision. Renewals of non-resident tasks (or in
    /// lease-free runs) extend nothing.
    fn renew<S: AdmissionShard>(&mut self, engine: &ShardedAdmission<S>, at: Time, id: TaskId) {
        if let Some(lease) = self.config.lease {
            if engine.resident_shard(id).is_some() && self.lease_deadlines.contains_key(&id) {
                let due = at + lease;
                self.lease_deadlines.insert(id, due);
                self.schedule(due, EngineEvent::DeadlineExpire(id));
                self.lease_renewals += 1;
            }
        }
        self.log.push(TimedEvent {
            at,
            event: WorkloadEvent::Renew(id),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdmissionController, ChurnGenerator, OnlineConfig};

    fn run_trace(
        shards: usize,
        seed: u64,
        config: EventLoopConfig,
    ) -> (EventLoop, ShardedAdmission) {
        let trace = ChurnGenerator::new()
            .cores(4)
            .events(150)
            .seed(seed)
            .generate_timed()
            .unwrap();
        let mut engine = ShardedAdmission::new(OnlineConfig::new(4), shards).unwrap();
        let mut event_loop = EventLoop::new(config);
        event_loop.load_trace(&trace);
        event_loop.run(&mut engine);
        (event_loop, engine)
    }

    #[test]
    fn runs_are_reproducible_and_shard_count_invariant_in_events() {
        let config = EventLoopConfig::new(42);
        let (loop_a, engine_a) = run_trace(1, 9, config);
        let (loop_b, engine_b) = run_trace(1, 9, config);
        assert_eq!(loop_a.event_log(), loop_b.event_log());
        assert_eq!(engine_a.decisions(), engine_b.decisions());
        // Without leases the processed stream does not depend on shard
        // count, only the decisions may.
        let (loop_c, _) = run_trace(2, 9, config);
        assert_eq!(loop_a.event_log(), loop_c.event_log());
    }

    #[test]
    fn one_shard_run_replays_byte_identically_on_the_legacy_controller() {
        let (event_loop, engine) = run_trace(1, 5, EventLoopConfig::new(7));
        let events: Vec<WorkloadEvent> = event_loop
            .event_log()
            .iter()
            .map(|t| t.event.clone())
            .collect();
        let mut legacy = AdmissionController::new(OnlineConfig::new(4)).unwrap();
        let legacy_decisions = legacy.handle_all(&events);
        assert_eq!(engine.decisions(), legacy_decisions.as_slice());
    }

    #[test]
    fn leases_synthesize_departures() {
        let config = EventLoopConfig::new(3).with_lease(Some(Time::from_millis(50)));
        let (event_loop, engine) = run_trace(2, 11, config);
        assert!(
            engine.stats().lease_expirations > 0,
            "short leases must expire"
        );
        // Every lease expiry shows up in the log as a departure, so the
        // log remains a faithful, replayable workload stream.
        let synthesized = engine.stats().lease_expirations;
        let departs = event_loop
            .event_log()
            .iter()
            .filter(|t| !t.event.is_arrival())
            .count() as u64;
        assert!(departs >= synthesized);
        // Processed count matches the engine's decision log 1:1.
        assert_eq!(event_loop.event_log().len(), engine.decisions().len());
    }

    #[test]
    fn renewals_extend_leases_and_stale_expirations_are_screened() {
        // One task, lease 50 ms, a renewal at 30 ms: the original
        // expiration at 50 ms is stale (the live deadline moved to
        // 80 ms) and must not fire; the renewed one at 80 ms must.
        let t = spms_task::Task::new(0, Time::from_millis(1), Time::from_millis(10)).unwrap();
        let mut engine = ShardedAdmission::new(OnlineConfig::new(2), 1).unwrap();
        let mut event_loop =
            EventLoop::new(EventLoopConfig::new(0).with_lease(Some(Time::from_millis(50))));
        event_loop.schedule(
            Time::ZERO,
            EngineEvent::Workload(WorkloadEvent::Arrive(t.clone())),
        );
        event_loop.schedule(
            Time::from_millis(30),
            EngineEvent::Workload(WorkloadEvent::Renew(t.id())),
        );
        event_loop.run(&mut engine);
        assert_eq!(event_loop.lease_renewals(), 1);
        assert_eq!(engine.stats().lease_expirations, 1);
        assert_eq!(
            engine.admitted_count(),
            0,
            "the renewed lease still ran out"
        );
        let log: Vec<(Time, bool, bool)> = event_loop
            .event_log()
            .iter()
            .map(|e| (e.at, e.event.is_arrival(), e.event.is_renewal()))
            .collect();
        assert_eq!(
            log,
            vec![
                (Time::ZERO, true, false),
                (Time::from_millis(30), false, true),
                // The synthesized departure fires at the *renewed*
                // deadline, not the stale 50 ms one.
                (Time::from_millis(80), false, false),
            ]
        );
    }

    #[test]
    fn renewal_heartbeats_suppress_lease_expirations() {
        let trace = crate::ChurnGenerator::new()
            .cores(4)
            .events(150)
            .seed(11)
            .generate_timed()
            .unwrap();
        let lease = Time::from_millis(50);
        let run = |trace: &[TimedEvent]| {
            let mut engine = ShardedAdmission::new(OnlineConfig::new(4), 2).unwrap();
            let mut event_loop = EventLoop::new(EventLoopConfig::new(3).with_lease(Some(lease)));
            event_loop.load_trace(trace);
            event_loop.run(&mut engine);
            (event_loop, engine)
        };
        let (_, walled) = run(&trace);
        let renewed_trace = crate::inject_renewals(&trace, Time::from_millis(40));
        let (renewed_loop, renewed) = run(&renewed_trace);
        assert!(walled.stats().lease_expirations > 0);
        assert!(renewed_loop.lease_renewals() > 0);
        assert!(
            renewed.stats().lease_expirations < walled.stats().lease_expirations,
            "heartbeats must keep residents alive past the bare lease ({} !< {})",
            renewed.stats().lease_expirations,
            walled.stats().lease_expirations
        );
        // Every trace event (renewals included) is logged as processed;
        // synthesized lease departures only add to that.
        assert!(renewed_loop.event_log().len() >= renewed_trace.len());
    }

    #[test]
    fn renewals_without_leases_are_logged_noops() {
        let t = spms_task::Task::new(0, Time::from_millis(1), Time::from_millis(10)).unwrap();
        let mut engine = ShardedAdmission::new(OnlineConfig::new(2), 1).unwrap();
        let mut event_loop = EventLoop::new(EventLoopConfig::new(0));
        event_loop.schedule(
            Time::ZERO,
            EngineEvent::Workload(WorkloadEvent::Arrive(t.clone())),
        );
        event_loop.schedule(
            Time::from_millis(5),
            EngineEvent::Workload(WorkloadEvent::Renew(t.id())),
        );
        event_loop.run(&mut engine);
        assert_eq!(event_loop.lease_renewals(), 0);
        assert_eq!(event_loop.event_log().len(), 2);
        assert_eq!(engine.admitted_count(), 1, "no lease, no expiration");
        // The renewal never reached the engine: one decision only.
        assert_eq!(engine.decisions().len(), 1);
    }

    #[test]
    fn rebalance_ticks_fire_and_terminate() {
        let config = EventLoopConfig::new(1)
            .with_rebalance_period(Some(Time::from_millis(20)))
            .with_rebalance_max_moves(2);
        let (_, engine) = run_trace(2, 13, config);
        assert!(engine.stats().rebalance_ticks > 0);
        // The loop terminated (we are here) even though ticks reschedule
        // themselves: they stop once the workload drains.
        // Every tick is visible in the metrics, no-op or not.
        let merged = engine.merged_metrics_registry();
        assert_eq!(
            merged.counter_by_name("spms_mech_rebalance_ticks_total"),
            Some(engine.stats().rebalance_ticks)
        );
        assert_eq!(
            merged.counter_by_name("spms_mech_rebalance_moves_total"),
            Some(engine.stats().rebalance_moves)
        );
        assert_eq!(
            engine.metrics().rebalance_history().count() as u64,
            engine
                .stats()
                .rebalance_ticks
                .min(crate::metrics::REBALANCE_HISTORY_CAPACITY as u64)
        );
    }

    #[test]
    fn rebalance_ticks_capture_periodic_snapshots_when_enabled() {
        let config = EventLoopConfig::new(1)
            .with_rebalance_period(Some(Time::from_millis(20)))
            .with_rebalance_snapshots(true);
        let (event_loop, engine) = run_trace(2, 13, config);
        let ticks = engine.stats().rebalance_ticks as usize;
        assert!(ticks > 0);
        assert_eq!(
            event_loop.tick_snapshots().len(),
            ticks.min(TICK_SNAPSHOT_CAPACITY)
        );
        // Snapshots are deterministic-section only and cumulative: the
        // retained window covers the *last* ticks, so the k-th retained
        // snapshot's tick counter reads dropped + k + 1.
        let dropped = ticks - event_loop.tick_snapshots().len();
        for (i, (at, snapshot)) in event_loop.tick_snapshots().iter().enumerate() {
            assert!(*at > Time::ZERO);
            assert!(snapshot
                .entries
                .iter()
                .all(|e| !e.name.starts_with("spms_timing_")));
            let ticks_entry = snapshot
                .entries
                .iter()
                .find(|e| e.name == "spms_mech_rebalance_ticks_total")
                .expect("tick counter present");
            assert_eq!(
                ticks_entry.value,
                spms_telemetry::SnapshotValue::Counter((dropped + i) as u64 + 1)
            );
        }
        // Without the flag, no snapshots accrue.
        let (quiet, _) = run_trace(
            2,
            13,
            EventLoopConfig::new(1).with_rebalance_period(Some(Time::from_millis(20))),
        );
        assert!(quiet.tick_snapshots().is_empty());
    }

    #[test]
    fn tie_shuffle_depends_only_on_the_seed() {
        // Two events at the same timestamp: order decided by the seed.
        let t_a = spms_task::Task::new(0, Time::from_millis(1), Time::from_millis(10)).unwrap();
        let t_b = spms_task::Task::new(1, Time::from_millis(1), Time::from_millis(10)).unwrap();
        let order_for = |seed: u64| {
            let mut engine = ShardedAdmission::new(OnlineConfig::new(2), 1).unwrap();
            let mut event_loop = EventLoop::new(EventLoopConfig::new(seed));
            let at = Time::from_millis(5);
            event_loop.schedule(
                at,
                EngineEvent::Workload(WorkloadEvent::Arrive(t_a.clone())),
            );
            event_loop.schedule(
                at,
                EngineEvent::Workload(WorkloadEvent::Arrive(t_b.clone())),
            );
            event_loop.run(&mut engine);
            let ids: Vec<_> = event_loop
                .event_log()
                .iter()
                .map(|t| t.event.task_id())
                .collect();
            ids
        };
        let baseline = order_for(0);
        assert_eq!(baseline, order_for(0), "same seed, same order");
        assert!(
            (0..64).any(|seed| order_for(seed) != baseline),
            "some seed must flip the tie order"
        );
    }

    #[test]
    fn zero_move_rebalance_ticks_back_off_exponentially() {
        // A single-shard service can never move a task, so every tick is
        // a zero-move tick: with backoff enabled the self-rescheduled
        // interval doubles per idle tick, clamped at 2^3 = 8x the base
        // period. Snapshot timestamps expose the actual tick schedule.
        let period = Time::from_millis(10);
        let run = |backoff: bool| {
            let mut engine = ShardedAdmission::new(OnlineConfig::new(2), 1).unwrap();
            let mut event_loop = EventLoop::new(
                EventLoopConfig::new(0)
                    .with_rebalance_period(Some(period))
                    .with_rebalance_snapshots(true)
                    .with_rebalance_backoff(backoff),
            );
            for i in 0..31u32 {
                event_loop.schedule(
                    Time::from_millis(u64::from(i) * 10),
                    EngineEvent::Workload(WorkloadEvent::Arrive(
                        spms_task::Task::new(i, Time::from_millis(1), Time::from_millis(1000))
                            .unwrap(),
                    )),
                );
            }
            event_loop.run(&mut engine);
            let ticks: Vec<u64> = event_loop
                .tick_snapshots()
                .iter()
                .map(|(at, _)| at.as_nanos() / 1_000_000)
                .collect();
            ticks
        };
        // Idle streak 1, 2, 3, then clamped: gaps 2x, 4x, 8x, 8x, ...
        assert_eq!(run(true), vec![10, 30, 70, 150, 230, 310]);
        // Without backoff the schedule stays on the plain period.
        let plain = run(false);
        assert_eq!(plain.first(), Some(&10));
        assert!(plain.windows(2).all(|w| w[1] - w[0] == 10));
    }

    #[test]
    fn a_rebalance_move_resets_the_backoff_streak() {
        // Pile every task onto shard 0 (home-shard routing by parity of
        // the id hash is irrelevant: we pick ids homed on shard 0), let
        // idle ticks stretch the interval, then check that a tick which
        // does move a task snaps the schedule back to the base period.
        // Driving a mid-run imbalance deterministically through the
        // public API is awkward, so this asserts the reset property at
        // the unit level instead: a non-zero move count resets the
        // streak the next tick uses.
        let period = Time::from_millis(10);
        let mut engine = ShardedAdmission::new(OnlineConfig::new(4), 2).unwrap();
        let router = spms_core::ShardRouter::new(2);
        // Four tasks homed on shard 0 arriving up front, nothing after:
        // the first tick can steal one to shard 1, later ticks cannot.
        let mut scheduled = 0u64;
        let mut id = 0u32;
        let mut event_loop = EventLoop::new(
            EventLoopConfig::new(0)
                .with_rebalance_period(Some(period))
                .with_rebalance_max_moves(1)
                .with_rebalance_snapshots(true)
                .with_rebalance_backoff(true),
        );
        while scheduled < 4 {
            if router.home_shard(TaskId(id)) == 0 {
                event_loop.schedule(
                    Time::ZERO,
                    EngineEvent::Workload(WorkloadEvent::Arrive(
                        spms_task::Task::new(id, Time::from_millis(2), Time::from_millis(10))
                            .unwrap(),
                    )),
                );
                scheduled += 1;
            }
            id += 1;
        }
        // Keep the loop alive long enough for several ticks.
        event_loop.schedule(
            Time::from_millis(100),
            EngineEvent::Workload(WorkloadEvent::Arrive(
                spms_task::Task::new(1000, Time::from_millis(1), Time::from_millis(1000)).unwrap(),
            )),
        );
        event_loop.run(&mut engine);
        let ticks: Vec<u64> = event_loop
            .tick_snapshots()
            .iter()
            .map(|(at, _)| at.as_nanos() / 1_000_000)
            .collect();
        assert!(engine.stats().rebalance_moves > 0, "early ticks must steal");
        // Ticks at 10 and 20 ms each steal a task (budget 1 per tick), so
        // the schedule stays on the plain period; the tick at 30 ms finds
        // the shards balanced and the first idle tick doubles the gap.
        assert!(ticks.len() >= 4);
        assert_eq!(&ticks[..4], &[10, 20, 30, 50]);
    }

    #[test]
    fn loaded_faults_fire_and_timed_faults_end() {
        use spms_faults::{FaultEvent, FaultPlan};
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent {
            at_ms: 20,
            kind: FaultKind::ShardStall { shard: 0, ms: 30 },
        });
        plan.push(FaultEvent {
            at_ms: 25,
            kind: FaultKind::CostSpike { factor: 4, ms: 10 },
        });
        let mut engine = ShardedAdmission::new(OnlineConfig::new(4), 2).unwrap();
        let mut event_loop = EventLoop::new(EventLoopConfig::new(0));
        event_loop.load_faults(&plan);
        // Faults alone are not pending workload; add real arrivals that
        // straddle the fault windows.
        for (i, at) in [0u64, 30, 80].iter().enumerate() {
            event_loop.schedule(
                Time::from_millis(*at),
                EngineEvent::Workload(WorkloadEvent::Arrive(
                    spms_task::Task::new(i as u32, Time::from_millis(1), Time::from_millis(100))
                        .unwrap(),
                )),
            );
        }
        event_loop.run(&mut engine);
        assert_eq!(engine.fault_stats().injections, 2);
        assert_eq!(engine.fault_stats().stalls, 1);
        assert_eq!(engine.fault_stats().cost_spikes, 1);
        // Both timed faults ended before the loop drained.
        assert_eq!(engine.cost_spike_factor(), 1);
        assert!(engine
            .shard_health()
            .iter()
            .all(|h| *h == crate::ShardHealth::Healthy));
    }
}
