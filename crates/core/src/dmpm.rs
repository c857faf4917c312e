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
//! DM-PM fills the same bin store as
//! [`SemiPartitionedFpTs`](crate::SemiPartitionedFpTs) (the crate's `bins`
//! module): whole placement is its first-fit probe, and a split asks each
//! processor in turn the screened tail probe, then the exact body-budget
//! frontier. The priority promotion, synthetic deadlines, overhead
//! accounting and chain metadata are FP-TS's too, so partitions produced by
//! either algorithm are interchangeable for the analysis, the simulator and
//! the experiments.

use serde::{Deserialize, Serialize};
use spms_analysis::OverheadModel;
use spms_task::{by_decreasing_utilization, PriorityAssignment, Task, TaskSet, Time};

use crate::bins::{self, reserve_split_levels, Bins, Chain, Packer, Unplaced};
use crate::{PartitionError, PartitionOutcome, Partitioner};

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

    /// Splits `task` (original parameters) across the processors with spare
    /// capacity, leaving its pieces in `chain`, or names what is left
    /// unplaced when the demand cannot be covered.
    fn split_task(&self, task: &Task, bins: &mut Bins, chain: &mut Chain) -> Result<(), Unplaced> {
        chain.start(task);
        for core in 0..bins.len() {
            // Keep the promotion analysable: one body and one tail per core.
            // Try to finish the task here with a tail piece.
            if !bins.has_tail(core) {
                if let Some(tail) = chain.tail(task, &self.overhead) {
                    if bins
                        .first_accepting(core..core + 1, &tail, |_, _| false)
                        .is_some()
                    {
                        chain.close(core, tail);
                        return Ok(());
                    }
                }
            }
            // Otherwise carve the largest body piece this processor accepts.
            if !bins.has_body(core) {
                bins.carve_body(core, task, chain, &self.overhead, self.min_split_budget);
            }
        }
        Err(Unplaced::Unsplit {
            task: task.id(),
            remaining: chain.remaining(),
            wcet: task.wcet(),
        })
    }
}

impl Packer for SemiPartitionedDmPm {
    const PRIORITIES: PriorityAssignment = PriorityAssignment::DeadlineMonotonic;

    fn overhead(&self) -> &OverheadModel {
        &self.overhead
    }

    fn pass(&self, bins: &mut Bins, mut tasks: Vec<Task>) -> Result<(), Unplaced> {
        reserve_split_levels(&mut tasks);
        // Offer tasks in decreasing utilization order (the usual packing
        // order); split decisions are driven purely by the acceptance test.
        tasks.sort_by(by_decreasing_utilization);
        let mut chain = Chain::default();
        for task in &tasks {
            if bins.place_whole_first_fit(task, &self.overhead) {
                continue;
            }
            // The task fits nowhere whole: split it across the processors.
            self.split_task(task, bins, &mut chain)?;
            bins.push_chain(task.id(), &chain);
        }
        Ok(())
    }
}

impl Partitioner for SemiPartitionedDmPm {
    fn partition(&self, tasks: &TaskSet, cores: usize) -> Result<PartitionOutcome, PartitionError> {
        bins::outcome(self, tasks, cores)
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
