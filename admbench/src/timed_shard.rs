//! A shard wrapper that times every call the service makes into a shard.
//!
//! [`TimedShard`] forwards every [`AdmissionShard`] method, the provided
//! ones included: a wrapper that fell back to a default (for example
//! `note_remote_admitted`, which the controller overrides to pin remote
//! parents) would change the decisions it is meant to observe.

use std::cell::Cell;
use std::time::Instant;

use spms_core::{CoreId, IncrementalPlacer, Partition, PlacedTask};
use spms_online::{AdmissionShard, Decision, WorkloadEvent};
use spms_overhead::CostModelSpec;
use spms_task::{Task, TaskId, Time};
use spms_telemetry::Registry;

/// Wall-clock nanoseconds spent inside one shard, by kind of call.
#[derive(Debug, Default)]
pub struct ShardClock {
    /// Every `decide` call's latency, in call order.
    pub decide_ns: Vec<u64>,
    /// `decide` calls on arrivals (overflow retries make this exceed the
    /// service's arrival count).
    pub arrival_decides: u64,
    /// `plan_remote_body`, `plan_remote_tail` and `commit_remote_piece`:
    /// the cross-shard planner's work inside this shard.
    pub remote_plan_ns: Cell<u64>,
    /// Every other call: capacity queries and rebalancer bookkeeping.
    pub query_ns: Cell<u64>,
}

/// An [`AdmissionShard`] that times every call into `inner`.
#[derive(Debug)]
pub struct TimedShard<S> {
    inner: S,
    pub clock: ShardClock,
}

impl<S> TimedShard<S> {
    pub fn new(inner: S) -> Self {
        TimedShard {
            inner,
            clock: ShardClock::default(),
        }
    }
}

fn charge<R>(cell: &Cell<u64>, call: impl FnOnce() -> R) -> R {
    let started = Instant::now();
    let out = call();
    cell.set(cell.get() + started.elapsed().as_nanos() as u64);
    out
}

impl<S: AdmissionShard> AdmissionShard for TimedShard<S> {
    fn decide(&mut self, event: &WorkloadEvent) -> Decision {
        let started = Instant::now();
        let decision = self.inner.decide(event);
        self.clock
            .decide_ns
            .push(started.elapsed().as_nanos() as u64);
        if matches!(event, WorkloadEvent::Arrive(_)) {
            self.clock.arrival_decides += 1;
        }
        decision
    }

    fn resident(&self, id: TaskId) -> bool {
        charge(&self.clock.query_ns, || self.inner.resident(id))
    }

    fn admitted_utilization(&self) -> f64 {
        charge(&self.clock.query_ns, || self.inner.admitted_utilization())
    }

    fn core_count(&self) -> usize {
        charge(&self.clock.query_ns, || self.inner.core_count())
    }

    // The reference accessors hand out the shard's state; the work
    // done through them happens in the caller, so they are not timed.
    fn partition(&self) -> &Partition {
        self.inner.partition()
    }

    fn partition_mut(&mut self) -> &mut Partition {
        self.inner.partition_mut()
    }

    fn placer(&self) -> &IncrementalPlacer {
        self.inner.placer()
    }

    fn metrics_registry(&self) -> Option<&Registry> {
        self.inner.metrics_registry()
    }

    fn lookup_admitted(&self, id: TaskId) -> Option<Task> {
        charge(&self.clock.query_ns, || self.inner.lookup_admitted(id))
    }

    fn forget_admitted(&mut self, id: TaskId) -> Option<Task> {
        let inner = &mut self.inner;
        charge(&self.clock.query_ns, || inner.forget_admitted(id))
    }

    fn note_admitted(&mut self, task: Task) {
        let inner = &mut self.inner;
        charge(&self.clock.query_ns, || inner.note_admitted(task))
    }

    fn cost_model(&self) -> CostModelSpec {
        charge(&self.clock.query_ns, || self.inner.cost_model())
    }

    fn spare_utilization(&self) -> f64 {
        charge(&self.clock.query_ns, || self.inner.spare_utilization())
    }

    fn plan_remote_body(&self, task: &Task, migration: Time) -> Option<(CoreId, Task, Time)> {
        charge(&self.clock.remote_plan_ns, || {
            self.inner.plan_remote_body(task, migration)
        })
    }

    fn plan_remote_tail(
        &self,
        task: &Task,
        budget: Time,
        offset: Time,
        migration: Time,
    ) -> Option<(CoreId, Task)> {
        charge(&self.clock.remote_plan_ns, || {
            self.inner.plan_remote_tail(task, budget, offset, migration)
        })
    }

    fn commit_remote_piece(&mut self, core: CoreId, placed: PlacedTask) {
        let inner = &mut self.inner;
        charge(&self.clock.remote_plan_ns, || {
            inner.commit_remote_piece(core, placed)
        })
    }

    fn note_remote_admitted(&mut self, piece: Task) {
        let inner = &mut self.inner;
        charge(&self.clock.query_ns, || inner.note_remote_admitted(piece))
    }
}
