//! DM-PM: Deadline-Monotonic with Priority Migration (Kato & Yamasaki,
//! RTAS 2009) — the second semi-partitioned fixed-priority algorithm of the
//! paper's related work.
//!
//! DM-PM differs from FP-TS (SPA1/SPA2) in how it decides *when* and *where*
//! to split:
//!
//! * non-split tasks receive deadline-monotonic priorities and are assigned
//!   whole with a first-fit pass (no processor is ever "closed");
//! * only a task that fits on **no** processor whole is split: it receives a
//!   share on every processor that still has spare capacity, in processor
//!   order, until its demand is covered;
//! * split pieces are promoted above all non-split tasks on their processor
//!   (the "priority migration" of the algorithm's name), so a piece occupies
//!   exactly its budget at the head of the schedule and the task's migration
//!   instants are deterministic.
//!
//! The priority promotion, synthetic deadlines and overhead accounting reuse
//! the same machinery as [`SemiPartitionedFpTs`](crate::SemiPartitionedFpTs),
//! so partitions produced by either algorithm are interchangeable for the
//! analysis, the simulator and the experiments.

use serde::{Deserialize, Serialize};
use spms_analysis::{rta, CachedCoreAnalysis, OverheadModel};
use spms_task::{by_decreasing_utilization, Priority, PriorityAssignment, Task, TaskSet, Time};

use crate::{
    CoreId, Partition, PartitionError, PartitionOutcome, Partitioner, PlacedTask, SplitInfo,
    SubtaskKind,
};

/// The DM-PM semi-partitioned partitioning algorithm.
///
/// # Example
///
/// ```
/// use spms_core::{SemiPartitionedDmPm, Partitioner, PartitionOutcome};
/// use spms_task::{Task, TaskSet, Time};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Three tasks of 60% utilization cannot be partitioned onto two cores,
/// // but DM-PM splits the last task across both.
/// let tasks: TaskSet = (0..3)
///     .map(|i| Task::new(i, Time::from_millis(6), Time::from_millis(10)))
///     .collect::<Result<_, _>>()?;
/// let outcome = SemiPartitionedDmPm::default().partition(&tasks, 2)?;
/// let partition = match outcome {
///     PartitionOutcome::Schedulable(p) => p,
///     PartitionOutcome::Unschedulable { reason } => panic!("{reason}"),
/// };
/// assert_eq!(partition.split_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SemiPartitionedDmPm {
    /// Run-time overheads; split pieces additionally pay the migration /
    /// remote-queue costs.
    pub overhead: OverheadModel,
    /// Smallest piece budget worth creating on a processor.
    pub min_split_budget: Time,
}

impl Default for SemiPartitionedDmPm {
    fn default() -> Self {
        SemiPartitionedDmPm {
            overhead: OverheadModel::zero(),
            min_split_budget: Time::from_micros(100),
        }
    }
}

impl SemiPartitionedDmPm {
    /// DM-PM with no overhead.
    pub fn new() -> Self {
        SemiPartitionedDmPm::default()
    }

    /// Replaces the overhead model (builder style).
    pub fn with_overhead(mut self, overhead: OverheadModel) -> Self {
        self.overhead = overhead;
        self
    }

    /// Priority level reserved for promoted tail subtasks.
    const TAIL_PRIORITY: Priority = crate::TAIL_PRIORITY;

    fn shifted_priority(task: &Task) -> Priority {
        Priority::new(
            task.priority()
                .map_or(u32::MAX, |p| p.level())
                .saturating_add(2),
        )
    }

    fn body_piece_overhead(&self, piece_index: usize) -> Time {
        if piece_index == 0 {
            self.overhead.first_piece_inflation()
        } else {
            self.overhead.body_piece_inflation()
        }
    }

    /// Largest pure execution budget exact RTA still admits as a promoted
    /// body piece on a core currently holding `core_tasks` (the exact
    /// frontier, shared with FP-TS through the `split_budget` module).
    fn max_body_budget(
        &self,
        core_tasks: &[Task],
        template: &Task,
        max_budget: Time,
        piece_index: usize,
    ) -> Time {
        crate::split_budget::max_body_budget(
            &CachedCoreAnalysis::from_tasks(core_tasks),
            template,
            self.body_piece_overhead(piece_index),
            self.min_split_budget,
            max_budget,
            |piece| {
                let mut candidate = core_tasks.to_vec();
                candidate.push(piece.clone());
                rta::is_core_schedulable(&candidate)
            },
        )
    }

    /// Analysis task for the final (tail) piece of a split task.
    fn make_tail_piece(&self, task: &Task, budget: Time, offset: Time) -> Option<Task> {
        let wcet = budget + self.overhead.tail_piece_inflation();
        let deadline = task.deadline().checked_sub(offset)?;
        if deadline > task.period() || wcet > deadline {
            return None;
        }
        Task::builder(task.id())
            .wcet(wcet)
            .period(task.period())
            .deadline(deadline)
            .priority(Self::TAIL_PRIORITY)
            .build()
            .ok()
    }

    /// Splits `task` (original parameters) across the processors with spare
    /// capacity. Returns the pieces as `(core, analysis task, budget)` or an
    /// error message when the demand cannot be covered.
    fn split_task(
        &self,
        task: &Task,
        bins: &[Vec<PlacedTask>],
        cores: usize,
    ) -> Result<Vec<(usize, Task, Time)>, String> {
        let mut remaining = task.wcet();
        let mut offset = Time::ZERO;
        let mut pieces: Vec<(usize, Task, Time)> = Vec::new();

        for (core, bin) in bins.iter().enumerate().take(cores) {
            // Keep the promotion analysable: one body and one tail per core.
            let hosts_body = bin.iter().any(PlacedTask::is_body);
            let hosts_tail = bin.iter().any(PlacedTask::is_tail);
            let core_tasks: Vec<Task> = bin.iter().map(|p| p.task.clone()).collect();

            // Try to finish the task here with a tail piece.
            if !hosts_tail {
                if let Some(tail) = self.make_tail_piece(task, remaining, offset) {
                    let mut candidate = core_tasks.clone();
                    candidate.push(tail.clone());
                    if rta::is_core_schedulable(&candidate) {
                        pieces.push((core, tail, remaining));
                        return Ok(pieces);
                    }
                }
            }

            // Otherwise carve the largest body piece this processor accepts.
            if hosts_body {
                continue;
            }
            let piece_overhead = self.body_piece_overhead(pieces.len());
            let deadline_room = task
                .deadline()
                .saturating_sub(offset)
                .saturating_sub(piece_overhead);
            let max_budget = remaining
                .saturating_sub(Time::from_nanos(1))
                .min(deadline_room);
            if max_budget < self.min_split_budget {
                continue;
            }
            let budget = self.max_body_budget(&core_tasks, task, max_budget, pieces.len());
            if budget < self.min_split_budget || budget.is_zero() {
                continue;
            }
            let piece = crate::split_budget::body_piece(task, budget, piece_overhead)
                .ok_or_else(|| format!("internal error building body subtask of {}", task.id()))?;
            offset += piece.wcet();
            remaining -= budget;
            pieces.push((core, piece, budget));
        }
        Err(format!(
            "task {} could not be split across {cores} processors ({} of {} still unplaced)",
            task.id(),
            remaining,
            task.wcet()
        ))
    }
}

impl Partitioner for SemiPartitionedDmPm {
    fn partition(&self, tasks: &TaskSet, cores: usize) -> Result<PartitionOutcome, PartitionError> {
        if cores == 0 {
            return Err(PartitionError::NoCores);
        }
        tasks.validate()?;

        let mut prioritised = TaskSet::with_capacity(tasks.len());
        for task in tasks {
            if self.overhead.inflate_task(task).is_err() {
                return Ok(PartitionOutcome::Unschedulable {
                    reason: format!(
                        "task {} cannot absorb the scheduling overhead within its deadline",
                        task.id()
                    ),
                });
            }
            prioritised.push(task.clone());
        }
        prioritised.assign_priorities(PriorityAssignment::DeadlineMonotonic);

        // Offer tasks in decreasing utilization order (the usual packing
        // order); split decisions are driven purely by the acceptance test.
        let mut ordered: Vec<Task> = prioritised.iter().cloned().collect();
        ordered.sort_by(by_decreasing_utilization);

        let mut bins: Vec<Vec<PlacedTask>> = vec![Vec::new(); cores];
        for task in &ordered {
            // First-fit whole placement with the whole-job overhead.
            let analysis = task
                .with_wcet(task.wcet() + self.overhead.whole_job_inflation())
                .ok()
                .map(|mut t| {
                    t.set_priority(Self::shifted_priority(task));
                    t
                });
            let whole_slot = analysis.as_ref().and_then(|analysis_task| {
                (0..cores).find(|&c| {
                    let mut candidate: Vec<Task> = bins[c].iter().map(|p| p.task.clone()).collect();
                    candidate.push(analysis_task.clone());
                    rta::is_core_schedulable(&candidate)
                })
            });
            if let (Some(core), Some(analysis_task)) = (whole_slot, analysis) {
                bins[core].push(PlacedTask {
                    task: analysis_task,
                    execution: task.wcet(),
                    parent: task.id(),
                    split: None,
                });
                continue;
            }

            // The task fits nowhere whole: split it across the processors.
            let pieces = match self.split_task(task, &bins, cores) {
                Ok(pieces) => pieces,
                Err(reason) => return Ok(PartitionOutcome::Unschedulable { reason }),
            };
            let count = pieces.len();
            let first_core = CoreId(pieces[0].0);
            let core_sequence: Vec<usize> = pieces.iter().map(|(c, _, _)| *c).collect();
            let mut running_offset = Time::ZERO;
            for (i, (core, piece, budget)) in pieces.into_iter().enumerate() {
                let is_tail = i == count - 1;
                let piece_wcet = piece.wcet();
                bins[core].push(PlacedTask {
                    task: piece,
                    execution: budget,
                    parent: task.id(),
                    split: Some(SplitInfo {
                        part_index: i,
                        part_count: count,
                        kind: if is_tail {
                            SubtaskKind::Tail
                        } else {
                            SubtaskKind::Body
                        },
                        release_offset: running_offset,
                        next_core: core_sequence.get(i + 1).copied().map(CoreId),
                        first_core,
                    }),
                });
                running_offset += piece_wcet;
            }
        }

        let mut partition = Partition::new(cores);
        for (core, bin) in bins.into_iter().enumerate() {
            for placed in bin {
                partition.place(CoreId(core), placed);
            }
        }
        debug_assert_eq!(partition.validate(), Ok(()));
        if !partition.is_schedulable() {
            return Ok(PartitionOutcome::Unschedulable {
                reason: "final per-core acceptance test failed".to_owned(),
            });
        }
        Ok(PartitionOutcome::Schedulable(partition))
    }

    fn name(&self) -> String {
        "DM-PM".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PartitionedFixedPriority;
    use spms_task::TaskSetGenerator;

    fn task(id: u32, wcet_us: u64, period_us: u64) -> Task {
        Task::new(id, Time::from_micros(wcet_us), Time::from_micros(period_us)).unwrap()
    }

    fn set(tasks: Vec<Task>) -> TaskSet {
        tasks.into_iter().collect()
    }

    #[test]
    fn name_and_zero_cores() {
        assert_eq!(SemiPartitionedDmPm::new().name(), "DM-PM");
        let ts = set(vec![task(0, 1, 10)]);
        assert_eq!(
            SemiPartitionedDmPm::new().partition(&ts, 0).unwrap_err(),
            PartitionError::NoCores
        );
    }

    #[test]
    fn light_sets_are_not_split() {
        let ts = set(vec![task(0, 1_000, 10_000), task(1, 2_000, 20_000)]);
        let p = SemiPartitionedDmPm::new()
            .partition(&ts, 2)
            .unwrap()
            .into_partition()
            .expect("schedulable");
        assert_eq!(p.split_count(), 0);
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn splits_the_motivating_three_task_example() {
        let ts = set(vec![
            task(0, 6_000, 10_000),
            task(1, 6_000, 10_000),
            task(2, 6_000, 10_000),
        ]);
        assert!(!PartitionedFixedPriority::ffd()
            .partition(&ts, 2)
            .unwrap()
            .is_schedulable());
        let p = SemiPartitionedDmPm::new()
            .partition(&ts, 2)
            .unwrap()
            .into_partition()
            .expect("schedulable by splitting");
        assert_eq!(p.split_count(), 1);
        assert_eq!(p.validate(), Ok(()));
        assert!(p.is_schedulable());
    }

    #[test]
    fn split_budgets_cover_the_whole_wcet_without_overhead() {
        let ts = set(vec![
            task(0, 6_000, 10_000),
            task(1, 6_000, 10_000),
            task(2, 6_000, 10_000),
        ]);
        let p = SemiPartitionedDmPm::new()
            .partition(&ts, 2)
            .unwrap()
            .into_partition()
            .unwrap();
        for parent in 0..3u32 {
            let total: Time = p
                .iter()
                .filter(|(_, placed)| {
                    placed.parent == spms_task::TaskId(parent) && placed.is_split()
                })
                .map(|(_, placed)| placed.execution)
                .sum();
            if !total.is_zero() {
                assert_eq!(total, Time::from_micros(6_000));
            }
        }
    }

    #[test]
    fn accepts_at_least_as_many_sets_as_ffd() {
        let mut ffd_accepted = 0usize;
        let mut dmpm_accepted = 0usize;
        for seed in 0..20 {
            let ts = TaskSetGenerator::new()
                .task_count(12)
                .total_utilization(3.6)
                .seed(seed)
                .generate()
                .unwrap();
            if PartitionedFixedPriority::ffd()
                .partition(&ts, 4)
                .unwrap()
                .is_schedulable()
            {
                ffd_accepted += 1;
            }
            if SemiPartitionedDmPm::new()
                .partition(&ts, 4)
                .unwrap()
                .is_schedulable()
            {
                dmpm_accepted += 1;
            }
        }
        assert!(
            dmpm_accepted >= ffd_accepted,
            "DM-PM accepted {dmpm_accepted}/20, FFD accepted {ffd_accepted}/20"
        );
    }

    #[test]
    fn partitions_are_valid_and_simulate_cleanly_via_partition_contract() {
        for seed in 50..60 {
            let ts = TaskSetGenerator::new()
                .task_count(14)
                .total_utilization(3.4)
                .seed(seed)
                .generate()
                .unwrap();
            if let PartitionOutcome::Schedulable(p) =
                SemiPartitionedDmPm::new().partition(&ts, 4).unwrap()
            {
                assert_eq!(p.validate(), Ok(()));
                assert!(p.is_schedulable());
            }
        }
    }

    #[test]
    fn overhead_awareness_reduces_acceptance_only_slightly() {
        let mut without = 0usize;
        let mut with = 0usize;
        for seed in 100..125 {
            let ts = TaskSetGenerator::new()
                .task_count(12)
                .total_utilization(3.5)
                .seed(seed)
                .generate()
                .unwrap();
            if SemiPartitionedDmPm::new()
                .partition(&ts, 4)
                .unwrap()
                .is_schedulable()
            {
                without += 1;
            }
            if SemiPartitionedDmPm::new()
                .with_overhead(OverheadModel::paper_n4())
                .partition(&ts, 4)
                .unwrap()
                .is_schedulable()
            {
                with += 1;
            }
        }
        assert!(with <= without);
        assert!(
            without - with <= 8,
            "overhead cost too high: {without} -> {with}"
        );
    }

    #[test]
    fn unschedulable_when_total_demand_exceeds_platform() {
        let ts = set(vec![
            task(0, 9_000, 10_000),
            task(1, 9_000, 10_000),
            task(2, 9_000, 10_000),
        ]);
        assert!(!SemiPartitionedDmPm::new()
            .partition(&ts, 2)
            .unwrap()
            .is_schedulable());
    }

    #[test]
    fn deterministic_across_runs() {
        let ts = TaskSetGenerator::new()
            .task_count(16)
            .total_utilization(3.3)
            .seed(9)
            .generate()
            .unwrap();
        let a = SemiPartitionedDmPm::new().partition(&ts, 4).unwrap();
        let b = SemiPartitionedDmPm::new().partition(&ts, 4).unwrap();
        assert_eq!(a, b);
    }
}
