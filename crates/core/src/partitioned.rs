//! Classic partitioned fixed-priority scheduling via bin-packing heuristics.
//!
//! The paper compares FP-TS against "two widely used fixed-priority
//! partitioned scheduling algorithms, FFD (first-fit decreasing size
//! partitioning) and WFD (worst-fit decreasing size partitioning)" (§4).
//! This module implements those two baselines on the bin store every
//! offline packer shares (the crate's `bins` module): each task, its WCET
//! inflated by the whole-job overhead, is offered to the cores in the
//! heuristic's order — index order for FFD, `(bin utilization, index)`
//! order for WFD — and lands on the first whose exact RTA still passes.
//! No task is ever split.

use serde::{Deserialize, Serialize};
use spms_analysis::OverheadModel;
use spms_task::{by_decreasing_utilization, PriorityAssignment, Task, TaskSet};

use crate::bins::{self, Bins, Packer, Unplaced};
use crate::{PartitionError, PartitionOutcome, Partitioner, PlacedTask};

/// Which bin is chosen for a task among those that still pass exact RTA
/// with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum BinPackingHeuristic {
    /// The lowest-indexed core that accepts the task.
    #[default]
    FirstFit,
    /// The accepting core with the lowest current utilization.
    WorstFit,
}

impl BinPackingHeuristic {
    fn short_name(self) -> &'static str {
        match self {
            BinPackingHeuristic::FirstFit => "FF",
            BinPackingHeuristic::WorstFit => "WF",
        }
    }
}

/// Partitioned fixed-priority scheduling: every task is statically assigned
/// to exactly one core. Tasks are offered in decreasing utilization order
/// ([`by_decreasing_utilization`]).
///
/// # Example
///
/// ```
/// use spms_core::{PartitionedFixedPriority, Partitioner, PartitionOutcome};
/// use spms_task::TaskSetGenerator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tasks = TaskSetGenerator::new().task_count(8).total_utilization(2.0).seed(3).generate()?;
/// let outcome = PartitionedFixedPriority::ffd().partition(&tasks, 4)?;
/// assert!(matches!(outcome, PartitionOutcome::Schedulable(_)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionedFixedPriority {
    /// Bin selection heuristic.
    pub heuristic: BinPackingHeuristic,
    /// Run-time overheads folded into every task's WCET before packing.
    pub overhead: OverheadModel,
}

impl Default for PartitionedFixedPriority {
    fn default() -> Self {
        PartitionedFixedPriority::ffd()
    }
}

impl PartitionedFixedPriority {
    /// First-fit decreasing — the paper's FFD baseline.
    pub fn ffd() -> Self {
        PartitionedFixedPriority {
            heuristic: BinPackingHeuristic::FirstFit,
            overhead: OverheadModel::zero(),
        }
    }

    /// Worst-fit decreasing — the paper's WFD baseline.
    pub fn wfd() -> Self {
        PartitionedFixedPriority {
            heuristic: BinPackingHeuristic::WorstFit,
            ..PartitionedFixedPriority::ffd()
        }
    }

    /// Replaces the overhead model (builder style).
    pub fn with_overhead(mut self, overhead: OverheadModel) -> Self {
        self.overhead = overhead;
        self
    }
}

impl Packer for PartitionedFixedPriority {
    /// Dense rate-monotonic levels; overhead inflation never changes a
    /// period, so the inflated set ranks the same way.
    const PRIORITIES: PriorityAssignment = PriorityAssignment::RateMonotonic;

    fn overhead(&self) -> &OverheadModel {
        &self.overhead
    }

    fn pass(&self, bins: &mut Bins, tasks: Vec<Task>) -> Result<(), Unplaced> {
        // Fold the per-job overhead into every task; the analysis task
        // carries the inflated WCET, the placement executes the original.
        let mut placements: Vec<PlacedTask> = tasks
            .iter()
            .map(|task| {
                let analysis = self
                    .overhead
                    .inflate_task(task)
                    .expect("every task absorbs the overhead past the front door");
                PlacedTask::whole(analysis).with_execution(task.wcet())
            })
            .collect();
        placements.sort_by(|a, b| by_decreasing_utilization(&a.task, &b.task));

        // The cores in the order the heuristic offers them. Worst fit takes
        // the accepting core of least utilization, the lowest index among
        // equals: the first accepting core in `(utilization, index)` order.
        let mut order: Vec<usize> = (0..bins.len()).collect();
        for placed in placements {
            if self.heuristic == BinPackingHeuristic::WorstFit {
                order.sort_by(|&a, &b| {
                    bins.utilization(a)
                        .total_cmp(&bins.utilization(b))
                        .then(a.cmp(&b))
                });
            }
            let core = bins
                .first_accepting(order.iter().copied(), &placed.task, |_, _| false)
                .ok_or_else(|| Unplaced::NoFit {
                    task: placed.task.id(),
                    utilization: placed.task.utilization(),
                })?;
            bins.push(core, placed);
        }
        Ok(())
    }
}

impl Partitioner for PartitionedFixedPriority {
    fn partition(&self, tasks: &TaskSet, cores: usize) -> Result<PartitionOutcome, PartitionError> {
        bins::outcome(self, tasks, cores)
    }

    fn name(&self) -> String {
        format!("{}D", self.heuristic.short_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms_task::{TaskSetGenerator, Time};

    fn task(id: u32, wcet_us: u64, period_us: u64) -> Task {
        Task::new(id, Time::from_micros(wcet_us), Time::from_micros(period_us)).unwrap()
    }

    fn set(tasks: Vec<Task>) -> TaskSet {
        tasks.into_iter().collect()
    }

    #[test]
    fn names_follow_the_literature() {
        assert_eq!(PartitionedFixedPriority::ffd().name(), "FFD");
        assert_eq!(PartitionedFixedPriority::wfd().name(), "WFD");
    }

    #[test]
    fn zero_cores_is_an_error() {
        let ts = set(vec![task(0, 1, 10)]);
        assert_eq!(
            PartitionedFixedPriority::ffd()
                .partition(&ts, 0)
                .unwrap_err(),
            PartitionError::NoCores
        );
    }

    #[test]
    fn light_set_fits_on_one_core() {
        let ts = set(vec![task(0, 1, 10), task(1, 2, 20), task(2, 1, 40)]);
        let outcome = PartitionedFixedPriority::ffd().partition(&ts, 1).unwrap();
        let p = outcome.into_partition().expect("schedulable");
        assert_eq!(p.core_count(), 1);
        assert_eq!(p.placement_count(), 3);
        assert_eq!(p.split_count(), 0);
    }

    #[test]
    fn overloaded_set_is_unschedulable() {
        // Three tasks of 60% cannot fit on two cores.
        let ts = set(vec![task(0, 6, 10), task(1, 6, 10), task(2, 6, 10)]);
        let outcome = PartitionedFixedPriority::ffd().partition(&ts, 2).unwrap();
        assert!(!outcome.is_schedulable());
        if let PartitionOutcome::Unschedulable { reason } = outcome {
            assert!(reason.contains("does not fit"));
        }
    }

    #[test]
    fn ffd_packs_tightly_and_wfd_balances() {
        // Four 40% tasks on 4 cores: FFD puts two per core (0.8 < harmonic RTA ok),
        // WFD spreads one per core.
        let ts = set(vec![
            task(0, 4, 10),
            task(1, 4, 10),
            task(2, 4, 10),
            task(3, 4, 10),
        ]);
        let ffd = PartitionedFixedPriority::ffd()
            .partition(&ts, 4)
            .unwrap()
            .into_partition()
            .unwrap();
        let wfd = PartitionedFixedPriority::wfd()
            .partition(&ts, 4)
            .unwrap()
            .into_partition()
            .unwrap();
        let ffd_used = ffd.core_utilizations().iter().filter(|&&u| u > 0.0).count();
        let wfd_used = wfd.core_utilizations().iter().filter(|&&u| u > 0.0).count();
        assert!(
            ffd_used <= 2,
            "FFD should concentrate load, used {ffd_used}"
        );
        assert_eq!(wfd_used, 4, "WFD should spread load");
    }

    #[test]
    fn overhead_inflation_reduces_capacity() {
        // Ten 9.3%-utilization tasks with 1 ms period: without overhead they
        // fit on one core, with the measured overhead (~40 µs per job) they do
        // not.
        let tasks: Vec<Task> = (0..10).map(|i| task(i, 93, 1_000)).collect();
        let ts = set(tasks);
        let without = PartitionedFixedPriority::ffd().partition(&ts, 1).unwrap();
        assert!(without.is_schedulable());
        let with = PartitionedFixedPriority::ffd()
            .with_overhead(OverheadModel::paper_n4())
            .partition(&ts, 1)
            .unwrap();
        assert!(!with.is_schedulable());
    }

    #[test]
    fn overhead_larger_than_deadline_is_reported() {
        let ts = set(vec![task(0, 30, 50)]);
        let outcome = PartitionedFixedPriority::ffd()
            .with_overhead(OverheadModel::paper_n4())
            .partition(&ts, 4)
            .unwrap();
        match outcome {
            PartitionOutcome::Unschedulable { reason } => {
                assert!(reason.contains("overhead"));
            }
            other => panic!("expected unschedulable, got {other:?}"),
        }
    }

    #[test]
    fn ffd_fills_a_harmonic_core_to_full_utilization() {
        // 50% + 50% with harmonic periods: above every utilization bound,
        // yet exact RTA packs both onto one core.
        let ts = set(vec![task(0, 5, 10), task(1, 10, 20)]);
        let outcome = PartitionedFixedPriority::ffd().partition(&ts, 1).unwrap();
        assert!(outcome.is_schedulable());
    }

    #[test]
    fn random_sets_produce_valid_partitions() {
        for seed in 0..10 {
            let ts = TaskSetGenerator::new()
                .task_count(16)
                .total_utilization(2.6)
                .seed(seed)
                .generate()
                .unwrap();
            for algo in [
                PartitionedFixedPriority::ffd(),
                PartitionedFixedPriority::wfd(),
            ] {
                if let PartitionOutcome::Schedulable(p) = algo.partition(&ts, 4).unwrap() {
                    assert_eq!(p.validate(), Ok(()));
                    assert_eq!(p.placement_count(), ts.len());
                    assert!(p.is_schedulable());
                    assert_eq!(p.split_count(), 0, "partitioned algorithms never split");
                }
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let ts = TaskSetGenerator::new()
            .task_count(12)
            .total_utilization(3.0)
            .seed(5)
            .generate()
            .unwrap();
        let a = PartitionedFixedPriority::ffd().partition(&ts, 4).unwrap();
        let b = PartitionedFixedPriority::ffd().partition(&ts, 4).unwrap();
        assert_eq!(a, b);
    }
}
