//! The run-time overhead model of the paper (§3) and its integration into the
//! schedulability analysis.
//!
//! The paper decomposes the overhead around a preemption (Figure 1) into:
//!
//! * `rls` — the release path: acquiring the ready queue and inserting the
//!   released job (the pure execution time of `release()` is 3 µs),
//! * `sch` — the scheduling decision (`sch()`, 5 µs), taken on release and on
//!   completion,
//! * `cnt1`/`cnt2` — the two context-switch halves (`cnt_swth()`, 1.5 µs each)
//!   plus the queue operation they perform (sleep-queue insert for a finished
//!   normal task, *remote* ready-queue insert for a migrating body subtask,
//!   remote sleep-queue insert for a finishing tail subtask),
//! * `cache` — the cache-related delay of reloading the preempted task's
//!   working set.
//!
//! Table 1 gives the measured worst-case queue-operation durations for
//! N = 4 and N = 64 tasks per core, locally and remotely. [`OverheadModel`]
//! stores all of these numbers and [`OverheadModel::inflate_task`] folds them
//! into task WCETs, which is exactly how the paper's evaluation integrates
//! measured overhead into the state-of-the-art analyses.

use serde::{Deserialize, Serialize};
use spms_task::{Task, TaskError, Time};

/// How a job interacts with the scheduler, which determines which overheads
/// it pays (see the four `cnt2` cases in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum OverheadScenario {
    /// A normal (non-split) task executing entirely on its own core.
    #[default]
    Normal,
    /// A body subtask of a split task: when its budget expires, the next
    /// subtask is inserted into the *remote* ready queue of the destination
    /// core and the destination core's scheduler is triggered.
    SplitBody,
    /// The tail subtask of a split task: when it finishes, the task is put
    /// back into the sleep queue of the core hosting the *first* subtask
    /// (a remote sleep-queue insertion).
    SplitTail,
}

/// Measured run-time overheads of the semi-partitioned scheduler.
///
/// All values are worst-case durations. The defaults mirror the paper's
/// measurements on a 4-core Intel Core-i7 (see [`OverheadModel::paper_n4`]
/// and [`OverheadModel::paper_n64`]).
///
/// # Example
///
/// ```
/// use spms_analysis::OverheadModel;
/// use spms_task::Time;
///
/// let m = OverheadModel::paper_n4();
/// assert_eq!(m.release, Time::from_micros(3));
/// assert!(m.job_overhead_normal() > Time::from_micros(10));
/// assert!(m.migration_overhead() > Time::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverheadModel {
    /// Pure execution time of the `release()` function.
    pub release: Time,
    /// Pure execution time of the `sch()` scheduling function.
    pub schedule: Time,
    /// Pure execution time of the `cnt_swth()` context-switch function.
    pub context_switch: Time,
    /// Ready-queue insertion from the local core.
    pub ready_queue_add_local: Time,
    /// Ready-queue insertion into another core's queue (migration path).
    pub ready_queue_add_remote: Time,
    /// Ready-queue extraction (always local).
    pub ready_queue_delete: Time,
    /// Sleep-queue insertion on the local core.
    pub sleep_queue_add_local: Time,
    /// Sleep-queue insertion into another core's queue (tail subtask finish).
    pub sleep_queue_add_remote: Time,
    /// Sleep-queue extraction (always local).
    pub sleep_queue_delete: Time,
    /// Cache-related delay after a local preemption.
    pub cache_reload_local: Time,
    /// Cache-related delay after a cross-core migration.
    pub cache_reload_migration: Time,
}

impl OverheadModel {
    /// An overhead-free model (the paper's "theoretical" configuration).
    pub fn zero() -> Self {
        OverheadModel {
            release: Time::ZERO,
            schedule: Time::ZERO,
            context_switch: Time::ZERO,
            ready_queue_add_local: Time::ZERO,
            ready_queue_add_remote: Time::ZERO,
            ready_queue_delete: Time::ZERO,
            sleep_queue_add_local: Time::ZERO,
            sleep_queue_add_remote: Time::ZERO,
            sleep_queue_delete: Time::ZERO,
            cache_reload_local: Time::ZERO,
            cache_reload_migration: Time::ZERO,
        }
    }

    /// The paper's measured overheads for N = 4 tasks per core (Table 1 plus
    /// the function costs of §3). The cache-related delays default to 20 µs
    /// locally and 25 µs after a migration — "the same order of magnitude",
    /// as the paper reports for realistic working sets; override them via the
    /// public fields or calibrate them with `spms-cache`.
    pub fn paper_n4() -> Self {
        OverheadModel {
            release: Time::from_micros(3),
            schedule: Time::from_micros(5),
            context_switch: Time::from_micros_f64(1.5),
            ready_queue_add_local: Time::from_micros_f64(1.5),
            ready_queue_add_remote: Time::from_micros_f64(3.3),
            ready_queue_delete: Time::from_micros_f64(2.7),
            sleep_queue_add_local: Time::from_micros_f64(2.5),
            sleep_queue_add_remote: Time::from_micros_f64(2.9),
            sleep_queue_delete: Time::from_micros_f64(3.3),
            cache_reload_local: Time::from_micros(20),
            cache_reload_migration: Time::from_micros(25),
        }
    }

    /// The paper's measured overheads for N = 64 tasks per core.
    pub fn paper_n64() -> Self {
        OverheadModel {
            release: Time::from_micros(3),
            schedule: Time::from_micros(5),
            context_switch: Time::from_micros_f64(1.5),
            ready_queue_add_local: Time::from_micros_f64(4.4),
            ready_queue_add_remote: Time::from_micros_f64(4.6),
            ready_queue_delete: Time::from_micros_f64(4.6),
            sleep_queue_add_local: Time::from_micros_f64(4.3),
            sleep_queue_add_remote: Time::from_micros_f64(4.4),
            sleep_queue_delete: Time::from_micros_f64(5.8),
            cache_reload_local: Time::from_micros(20),
            cache_reload_migration: Time::from_micros(25),
        }
    }

    /// The paper's worst-case queue-operation abstraction: `δ` is the largest
    /// ready-queue operation duration, `θ` the largest sleep-queue operation
    /// duration (§3: δ = θ = 3.3 µs for N = 4; δ = 4.6 µs, θ = 5.8 µs for
    /// N = 64).
    pub fn delta_theta(&self) -> (Time, Time) {
        let delta = self
            .ready_queue_add_local
            .max(self.ready_queue_add_remote)
            .max(self.ready_queue_delete);
        let theta = self
            .sleep_queue_add_local
            .max(self.sleep_queue_add_remote)
            .max(self.sleep_queue_delete);
        (delta, theta)
    }

    /// Returns a copy with every component scaled by `factor` (used by the
    /// overhead-sensitivity experiment, E6).
    pub fn scaled(&self, factor: f64) -> Self {
        OverheadModel {
            release: self.release.scale(factor),
            schedule: self.schedule.scale(factor),
            context_switch: self.context_switch.scale(factor),
            ready_queue_add_local: self.ready_queue_add_local.scale(factor),
            ready_queue_add_remote: self.ready_queue_add_remote.scale(factor),
            ready_queue_delete: self.ready_queue_delete.scale(factor),
            sleep_queue_add_local: self.sleep_queue_add_local.scale(factor),
            sleep_queue_add_remote: self.sleep_queue_add_remote.scale(factor),
            sleep_queue_delete: self.sleep_queue_delete.scale(factor),
            cache_reload_local: self.cache_reload_local.scale(factor),
            cache_reload_migration: self.cache_reload_migration.scale(factor),
        }
    }

    /// The cost of the release path of one job: the `release()` function, the
    /// sleep-queue delete that removes the task from the sleep queue and the
    /// local ready-queue insertion (Figure 1, the `rls` segment).
    pub fn release_path_cost(&self) -> Time {
        self.release + self.sleep_queue_delete + self.ready_queue_add_local
    }

    /// The cost of dispatching a job once it is at the head of the ready
    /// queue: the scheduling decision, one context-switch half and the
    /// ready-queue extraction (Figure 1, `sch` + `cnt1`).
    pub fn dispatch_cost(&self) -> Time {
        self.schedule + self.context_switch + self.ready_queue_delete
    }

    /// The cost one job *arrival* (a release, or a migrating subtask landing
    /// on its destination core) inflicts on the job it preempts: the victim
    /// is re-inserted into the ready queue, later re-dispatched (scheduling
    /// decision, context switch, ready-queue delete) and resumes with a local
    /// cache reload (Figure 1, `cnt2` + `cache`).
    ///
    /// Each arrival preempts at most one running job, so charging this once
    /// per job of the arriving task upper-bounds the preemption-related
    /// overhead it can cause.
    pub fn preemption_inflicted_cost(&self) -> Time {
        self.ready_queue_add_local
            + self.schedule
            + self.context_switch
            + self.ready_queue_delete
            + self.cache_reload_local
    }

    /// The cost of the migration path a body subtask triggers when its budget
    /// expires, charged on the destination core: the scheduling decision and
    /// context switch on budget expiry, the *remote* ready-queue insertion,
    /// the dispatch on the destination core and the migration cache reload.
    ///
    /// This is the quantity the paper's §3 discussion compares against a
    /// local preemption; it does not include the preemption the arriving
    /// subtask may itself cause (see [`body_piece_inflation`]).
    ///
    /// [`body_piece_inflation`]: OverheadModel::body_piece_inflation
    pub fn migration_overhead(&self) -> Time {
        self.schedule
            + self.context_switch
            + self.ready_queue_add_remote
            + self.ready_queue_delete
            + self.cache_reload_migration
    }

    /// Total per-job inflation for a task assigned whole to one core: its own
    /// release path, its first dispatch, the sleep-queue insertion when it
    /// finishes, and the preemption cost its release can inflict on the job
    /// it preempts.
    pub fn whole_job_inflation(&self) -> Time {
        self.release_path_cost()
            + self.dispatch_cost()
            + self.sleep_queue_add_local
            + self.preemption_inflicted_cost()
    }

    /// Per-job inflation of the *first* piece of a split task (the body
    /// subtask on the core where the task is released): release path, first
    /// dispatch and the preemption its release can inflict. The migration it
    /// triggers at the end of its budget is charged to the next piece.
    pub fn first_piece_inflation(&self) -> Time {
        self.release_path_cost() + self.dispatch_cost() + self.preemption_inflicted_cost()
    }

    /// Per-job inflation of a middle body piece (index ≥ 1) of a split task:
    /// the migration-in path (scheduling decision, context switch, remote
    /// ready-queue add), its dispatch on the destination core including the
    /// migration cache reload, and the preemption its arrival can inflict.
    pub fn body_piece_inflation(&self) -> Time {
        self.schedule
            + self.context_switch
            + self.ready_queue_add_remote
            + self.dispatch_cost()
            + self.cache_reload_migration
            + self.preemption_inflicted_cost()
    }

    /// Per-job inflation of the tail piece of a split task: a middle piece's
    /// costs plus the remote sleep-queue insertion when the task finishes and
    /// goes back to sleep on the core hosting its first piece.
    pub fn tail_piece_inflation(&self) -> Time {
        self.body_piece_inflation() + self.sleep_queue_add_remote
    }

    /// The per-job overhead of a normal (non-split) task — an alias for
    /// [`whole_job_inflation`](OverheadModel::whole_job_inflation), kept as
    /// the name the paper's discussion uses.
    pub fn job_overhead_normal(&self) -> Time {
        self.whole_job_inflation()
    }

    /// Per-job overhead for the given scenario.
    pub fn job_overhead(&self, scenario: OverheadScenario) -> Time {
        match scenario {
            OverheadScenario::Normal => self.whole_job_inflation(),
            OverheadScenario::SplitBody => {
                self.first_piece_inflation() + self.body_piece_inflation()
            }
            OverheadScenario::SplitTail => {
                self.first_piece_inflation() + self.tail_piece_inflation()
            }
        }
    }

    /// Inflates a task's WCET by its per-job overhead
    /// (`C'_i = C_i + overhead`), the paper's way of folding measured
    /// overhead into the schedulability analysis.
    ///
    /// # Errors
    ///
    /// Returns an error if the inflated WCET no longer fits within the task's
    /// deadline — such a task can immediately be declared unschedulable.
    pub fn inflate_task(&self, task: &Task) -> Result<Task, TaskError> {
        self.inflate_task_for(task, OverheadScenario::Normal)
    }

    /// Inflates a task's WCET for a specific scheduling scenario.
    ///
    /// # Errors
    ///
    /// Returns an error if the inflated WCET exceeds the deadline.
    pub fn inflate_task_for(
        &self,
        task: &Task,
        scenario: OverheadScenario,
    ) -> Result<Task, TaskError> {
        task.with_wcet(task.wcet() + self.job_overhead(scenario))
    }
}

impl Default for OverheadModel {
    fn default() -> Self {
        OverheadModel::paper_n4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms_task::TaskSet;

    #[test]
    fn paper_values_match_table_1() {
        let n4 = OverheadModel::paper_n4();
        assert_eq!(n4.ready_queue_add_local, Time::from_nanos(1_500));
        assert_eq!(n4.ready_queue_add_remote, Time::from_nanos(3_300));
        assert_eq!(n4.sleep_queue_delete, Time::from_nanos(3_300));
        let (delta, theta) = n4.delta_theta();
        assert_eq!(delta, Time::from_nanos(3_300));
        assert_eq!(theta, Time::from_nanos(3_300));

        let n64 = OverheadModel::paper_n64();
        let (delta, theta) = n64.delta_theta();
        assert_eq!(delta, Time::from_nanos(4_600));
        assert_eq!(theta, Time::from_nanos(5_800));
    }

    #[test]
    fn zero_model_adds_nothing() {
        let m = OverheadModel::zero();
        assert_eq!(m.job_overhead_normal(), Time::ZERO);
        assert_eq!(m.migration_overhead(), Time::ZERO);
        let t = Task::new(0, Time::from_millis(1), Time::from_millis(10)).unwrap();
        assert_eq!(m.inflate_task(&t).unwrap().wcet(), t.wcet());
    }

    #[test]
    fn split_scenarios_cost_more_than_normal() {
        let m = OverheadModel::paper_n4();
        assert!(
            m.job_overhead(OverheadScenario::SplitBody) > m.job_overhead(OverheadScenario::Normal)
        );
        assert!(
            m.job_overhead(OverheadScenario::SplitTail) >= m.job_overhead(OverheadScenario::Normal)
        );
    }

    #[test]
    fn n64_costs_more_than_n4() {
        assert!(
            OverheadModel::paper_n64().job_overhead_normal()
                > OverheadModel::paper_n4().job_overhead_normal()
        );
    }

    #[test]
    fn inflation_increases_wcet_by_job_overhead() {
        let m = OverheadModel::paper_n4();
        let t = Task::new(0, Time::from_millis(2), Time::from_millis(20)).unwrap();
        let inflated = m.inflate_task(&t).unwrap();
        assert_eq!(inflated.wcet(), t.wcet() + m.job_overhead_normal());
        assert_eq!(inflated.period(), t.period());
    }

    #[test]
    fn inflation_fails_when_deadline_is_exceeded() {
        let m = OverheadModel::paper_n4();
        // 95 µs WCET with a 100 µs deadline cannot absorb ~40 µs of overhead.
        let t = Task::new(0, Time::from_micros(95), Time::from_micros(100)).unwrap();
        assert!(m.inflate_task(&t).is_err());
    }

    #[test]
    fn inflating_every_task_of_a_set_grows_each_wcet() {
        let m = OverheadModel::paper_n4();
        let ts: TaskSet = (0..4)
            .map(|i| Task::new(i, Time::from_millis(1), Time::from_millis(50)).unwrap())
            .collect();
        let inflated: TaskSet = ts.iter().map(|t| m.inflate_task(t).unwrap()).collect();
        assert_eq!(inflated.len(), 4);
        for (orig, infl) in ts.iter().zip(inflated.iter()) {
            assert!(infl.wcet() > orig.wcet());
        }
    }

    #[test]
    fn scaled_model_scales_every_component() {
        let m = OverheadModel::paper_n4();
        let double = m.scaled(2.0);
        assert_eq!(double.release, Time::from_micros(6));
        assert_eq!(double.job_overhead_normal(), m.job_overhead_normal() * 2);
        let none = m.scaled(0.0);
        assert_eq!(none.job_overhead_normal(), Time::ZERO);
    }

    #[test]
    fn migration_overhead_uses_remote_queue_costs() {
        let m = OverheadModel::paper_n4();
        assert!(m.migration_overhead() >= m.ready_queue_add_remote);
        // The analysis inflation of a split piece covers the preemption it
        // can inflict on the job it displaces on the destination core.
        assert!(m.body_piece_inflation() >= m.migration_overhead() + m.preemption_inflicted_cost());
    }
}
