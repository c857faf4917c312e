//! Classic partitioned fixed-priority scheduling via bin-packing heuristics.
//!
//! The paper compares FP-TS against "two widely used fixed-priority
//! partitioned scheduling algorithms, FFD (first-fit decreasing size
//! partitioning) and WFD (worst-fit decreasing size partitioning)" (§4).
//! This module implements those two baselines on top of the exact per-core
//! response-time analysis and the measured overhead model.

use serde::{Deserialize, Serialize};
use spms_analysis::{rta, OverheadModel};
use spms_task::{by_decreasing_utilization, PriorityAssignment, Task, TaskSet};

use crate::{CoreId, Partition, PartitionError, PartitionOutcome, Partitioner, PlacedTask};

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

impl Partitioner for PartitionedFixedPriority {
    fn partition(&self, tasks: &TaskSet, cores: usize) -> Result<PartitionOutcome, PartitionError> {
        if cores == 0 {
            return Err(PartitionError::NoCores);
        }
        tasks.validate()?;

        // Fold the per-job overhead into every task, then (re)assign dense
        // rate-monotonic priorities; overhead inflation never changes periods
        // so the priority order is the same as for the original set.
        let mut inflated = TaskSet::with_capacity(tasks.len());
        for task in tasks {
            match self.overhead.inflate_task(task) {
                Ok(t) => inflated.push(t),
                Err(_) => {
                    return Ok(PartitionOutcome::Unschedulable {
                        reason: format!(
                            "task {} cannot absorb the scheduling overhead within its deadline",
                            task.id()
                        ),
                    })
                }
            }
        }
        inflated.assign_priorities(PriorityAssignment::RateMonotonic);

        let mut ordered: Vec<Task> = inflated.into_iter().collect();
        ordered.sort_by(by_decreasing_utilization);
        let mut bins: Vec<Vec<Task>> = vec![Vec::new(); cores];

        for task in ordered {
            let accepts = |bin: &Vec<Task>| {
                let mut candidate = bin.clone();
                candidate.push(task.clone());
                rta::is_core_schedulable(&candidate)
            };
            let chosen = match self.heuristic {
                BinPackingHeuristic::FirstFit => bins.iter().position(accepts),
                BinPackingHeuristic::WorstFit => bins
                    .iter()
                    .enumerate()
                    .filter(|(_, bin)| accepts(bin))
                    .min_by(|(_, a), (_, b)| {
                        utilization(a)
                            .partial_cmp(&utilization(b))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .map(|(i, _)| i),
            };
            match chosen {
                Some(core) => bins[core].push(task),
                None => {
                    return Ok(PartitionOutcome::Unschedulable {
                        reason: format!(
                            "task {} (U={:.3}) does not fit on any of the {cores} cores under the rta test",
                            task.id(),
                            task.utilization(),
                        ),
                    })
                }
            }
        }

        let mut partition = Partition::new(cores);
        for (core, bin) in bins.into_iter().enumerate() {
            for task in bin {
                // The analysis task carries the inflated WCET; the runtime
                // execution budget is the original task's WCET.
                let execution = tasks
                    .iter()
                    .find(|t| t.id() == task.id())
                    .map_or(task.wcet(), Task::wcet);
                partition.place(
                    CoreId(core),
                    PlacedTask::whole(task).with_execution(execution),
                );
            }
        }
        Ok(PartitionOutcome::Schedulable(partition))
    }

    fn name(&self) -> String {
        format!("{}D", self.heuristic.short_name())
    }
}

fn utilization(bin: &[Task]) -> f64 {
    bin.iter().map(Task::utilization).sum()
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
