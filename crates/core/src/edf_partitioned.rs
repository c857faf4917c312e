//! Partitioned EDF scheduling — the dynamic-priority counterpart of the
//! partitioned baselines.
//!
//! The paper's related work (Kato & Yamasaki, EMSOFT 2008) studies
//! semi-partitioned *EDF*; the paper itself notes that its scheduler
//! framework extends to EDF-based algorithms. This module provides the
//! partitioned-EDF baseline: first-fit decreasing, like the fixed-priority
//! FFD, with the processor-demand test from `spms-analysis::edf` as the
//! per-core acceptance criterion. It lets the experiments quantify how much
//! of FP-TS's advantage comes from splitting and how much an EDF runtime
//! would claw back without any migration at all.

use serde::{Deserialize, Serialize};
use spms_analysis::{edf, OverheadModel};
use spms_task::{by_decreasing_utilization, Task, TaskSet};

use crate::{CoreId, Partition, PartitionError, PartitionOutcome, Partitioner, PlacedTask};

/// Partitioned EDF: every task is statically assigned to one core, each core
/// runs EDF locally. Tasks are offered in decreasing utilization order
/// ([`by_decreasing_utilization`]), each to the first core that accepts it.
///
/// # Example
///
/// ```
/// use spms_core::{PartitionedEdf, Partitioner, PartitionOutcome};
/// use spms_task::{Task, TaskSet, Time};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Two tasks at 50% each fully load one core — fine under EDF.
/// let tasks: TaskSet = (0..2)
///     .map(|i| Task::new(i, Time::from_millis(5), Time::from_millis(10)))
///     .collect::<Result<_, _>>()?;
/// let outcome = PartitionedEdf::ffd().partition(&tasks, 1)?;
/// assert!(matches!(outcome, PartitionOutcome::Schedulable(_)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionedEdf {
    /// Run-time overheads folded into every task's WCET before packing.
    pub overhead: OverheadModel,
}

impl Default for PartitionedEdf {
    fn default() -> Self {
        PartitionedEdf::ffd()
    }
}

impl PartitionedEdf {
    /// First-fit decreasing with per-core EDF acceptance.
    pub fn ffd() -> Self {
        PartitionedEdf {
            overhead: OverheadModel::zero(),
        }
    }

    /// Replaces the overhead model (builder style).
    pub fn with_overhead(mut self, overhead: OverheadModel) -> Self {
        self.overhead = overhead;
        self
    }
}

impl Partitioner for PartitionedEdf {
    fn partition(&self, tasks: &TaskSet, cores: usize) -> Result<PartitionOutcome, PartitionError> {
        if cores == 0 {
            return Err(PartitionError::NoCores);
        }
        tasks.validate()?;

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

        let mut ordered: Vec<Task> = inflated.into_iter().collect();
        ordered.sort_by(by_decreasing_utilization);
        let mut bins: Vec<Vec<Task>> = vec![Vec::new(); cores];
        for task in ordered {
            let chosen = bins.iter().position(|bin| {
                let mut candidate = bin.clone();
                candidate.push(task.clone());
                edf::is_edf_schedulable(&candidate)
            });
            match chosen {
                Some(core) => bins[core].push(task),
                None => {
                    return Ok(PartitionOutcome::Unschedulable {
                        reason: format!(
                            "task {} (U={:.3}) does not fit on any of the {cores} cores under EDF",
                            task.id(),
                            task.utilization()
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
        "EDF-FFD".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms_task::{TaskSetGenerator, Time};

    fn task(id: u32, wcet_us: u64, period_us: u64) -> Task {
        Task::new(id, Time::from_micros(wcet_us), Time::from_micros(period_us)).unwrap()
    }

    #[test]
    fn names() {
        assert_eq!(PartitionedEdf::ffd().name(), "EDF-FFD");
    }

    #[test]
    fn zero_cores_is_an_error() {
        let ts: TaskSet = [task(0, 1, 10)].into_iter().collect();
        assert_eq!(
            PartitionedEdf::ffd().partition(&ts, 0).unwrap_err(),
            PartitionError::NoCores
        );
    }

    #[test]
    fn edf_packs_each_core_to_full_utilization() {
        // Four 50% tasks with non-harmonic periods: EDF-FFD needs 2 cores,
        // fixed-priority FFD (RM, non-harmonic) needs 3.
        let ts: TaskSet = [
            task(0, 5, 10),
            task(1, 7, 14),
            task(2, 5, 10),
            task(3, 7, 14),
        ]
        .into_iter()
        .collect();
        let edf = PartitionedEdf::ffd()
            .partition(&ts, 4)
            .unwrap()
            .into_partition()
            .unwrap();
        let used = edf.core_utilizations().iter().filter(|&&u| u > 0.0).count();
        assert_eq!(used, 2);
        let fp = crate::PartitionedFixedPriority::ffd()
            .partition(&ts, 4)
            .unwrap()
            .into_partition()
            .unwrap();
        let fp_used = fp.core_utilizations().iter().filter(|&&u| u > 0.0).count();
        assert!(fp_used >= used, "EDF should never need more cores than RM");
    }

    #[test]
    fn overload_is_rejected_with_a_reason() {
        let ts: TaskSet = (0..5).map(|i| task(i, 9, 10)).collect();
        match PartitionedEdf::ffd().partition(&ts, 4).unwrap() {
            PartitionOutcome::Unschedulable { reason } => assert!(reason.contains("EDF")),
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn overhead_inflation_applies() {
        let ts: TaskSet = (0..10).map(|i| task(i, 95, 1_000)).collect();
        assert!(PartitionedEdf::ffd()
            .partition(&ts, 1)
            .unwrap()
            .is_schedulable());
        assert!(!PartitionedEdf::ffd()
            .with_overhead(OverheadModel::paper_n4())
            .partition(&ts, 1)
            .unwrap()
            .is_schedulable());
    }

    #[test]
    fn random_sets_produce_valid_partitions_without_splits() {
        for seed in 0..8 {
            let ts = TaskSetGenerator::new()
                .task_count(14)
                .total_utilization(3.2)
                .seed(seed)
                .generate()
                .unwrap();
            if let PartitionOutcome::Schedulable(p) =
                PartitionedEdf::ffd().partition(&ts, 4).unwrap()
            {
                assert_eq!(p.validate(), Ok(()));
                assert_eq!(p.split_count(), 0);
                assert_eq!(p.placement_count(), ts.len());
            }
        }
    }

    #[test]
    fn edf_accepts_at_least_as_many_sets_as_rm_partitioning() {
        let mut edf_accepted = 0;
        let mut rm_accepted = 0;
        for seed in 0..15 {
            let ts = TaskSetGenerator::new()
                .task_count(12)
                .total_utilization(3.6)
                .seed(400 + seed)
                .generate()
                .unwrap();
            if PartitionedEdf::ffd()
                .partition(&ts, 4)
                .unwrap()
                .is_schedulable()
            {
                edf_accepted += 1;
            }
            if crate::PartitionedFixedPriority::ffd()
                .partition(&ts, 4)
                .unwrap()
                .is_schedulable()
            {
                rm_accepted += 1;
            }
        }
        assert!(
            edf_accepted >= rm_accepted,
            "EDF {edf_accepted} vs RM {rm_accepted}"
        );
    }
}
