//! The FFD/WFD baselines against a reference packer that shares no code
//! with the bin store.
//!
//! [`PartitionedFixedPriority`] probes through the crate's cached bins:
//! a utilization screen, then an incremental exact probe per core. The
//! reference below is the plain textbook loop instead: inflate every task
//! by the whole-job overhead, give the set dense rate-monotonic levels,
//! offer the tasks in decreasing utilization order, and for each one clone
//! every bin, add the task and run from-scratch [`rta::is_core_schedulable`].
//! First fit takes the first bin that passes; worst fit takes the passing
//! bin of least utilization, the lowest index among equals. The two must
//! return the same [`PartitionOutcome`], unschedulable reasons included.
//!
//! The grid mixes implicit and constrained deadlines, zero and `paper_n4`
//! overhead, and twinned sets (every generated task plus a copy with its
//! own id), where bins of equal utilization are common, so worst fit's
//! index tie-break decides placements. The test requires such ties to
//! occur.

use spms_analysis::{rta, OverheadModel};
use spms_core::{
    CoreId, Partition, PartitionOutcome, PartitionedFixedPriority, Partitioner, PlacedTask,
};
use spms_task::{
    by_decreasing_utilization, PriorityAssignment, Task, TaskSet, TaskSetGenerator, Time,
};

const CORES: usize = 4;

/// The reference FFD (`worst_fit` false) or WFD packer; also counts the
/// worst-fit choices where more than one accepting bin had the least
/// utilization.
fn reference(
    tasks: &TaskSet,
    overhead: &OverheadModel,
    worst_fit: bool,
    ties: &mut usize,
) -> PartitionOutcome {
    let mut inflated = TaskSet::with_capacity(tasks.len());
    for task in tasks {
        match overhead.inflate_task(task) {
            Ok(t) => inflated.push(t),
            Err(_) => {
                return PartitionOutcome::Unschedulable {
                    reason: format!(
                        "task {} cannot absorb the scheduling overhead within its deadline",
                        task.id()
                    ),
                }
            }
        }
    }
    inflated.assign_priorities(PriorityAssignment::RateMonotonic);
    let mut ordered: Vec<Task> = inflated.into_iter().collect();
    ordered.sort_by(by_decreasing_utilization);

    let utilization = |bin: &[Task]| -> f64 { bin.iter().map(Task::utilization).sum() };
    let mut bins: Vec<Vec<Task>> = vec![Vec::new(); CORES];
    for task in ordered {
        let accepting: Vec<usize> = (0..CORES)
            .filter(|&core| {
                let mut candidate = bins[core].clone();
                candidate.push(task.clone());
                rta::is_core_schedulable(&candidate)
            })
            .collect();
        let chosen = if worst_fit {
            let least = accepting
                .iter()
                .map(|&core| utilization(&bins[core]))
                .fold(f64::INFINITY, f64::min);
            let mut tied = accepting
                .iter()
                .filter(|&&core| utilization(&bins[core]) == least);
            let first = tied.next().copied();
            if tied.next().is_some() {
                *ties += 1;
            }
            first
        } else {
            accepting.first().copied()
        };
        let Some(core) = chosen else {
            return PartitionOutcome::Unschedulable {
                reason: format!(
                    "task {} (U={:.3}) does not fit on any of the {CORES} cores under the rta test",
                    task.id(),
                    task.utilization(),
                ),
            };
        };
        bins[core].push(task);
    }

    let mut partition = Partition::new(CORES);
    for (core, bin) in bins.into_iter().enumerate() {
        for task in bin {
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
    PartitionOutcome::Schedulable(partition)
}

/// `n` generated tasks at total utilization `u`; with `constrained`,
/// deadlines cut to between a quarter and three quarters of the way from
/// WCET to period; with `twinned`, each task also gets a copy with its own
/// id.
fn task_set(n: usize, u: f64, seed: u64, constrained: bool, twinned: bool) -> TaskSet {
    let drawn = TaskSetGenerator::new()
        .task_count(n)
        .total_utilization(if twinned { u / 2.0 } else { u })
        .seed(seed)
        .generate()
        .expect("valid generator configuration");
    let shaped: Vec<Task> = drawn
        .iter()
        .enumerate()
        .map(|(i, task)| {
            let slack = (task.period() - task.wcet()).as_nanos();
            let deadline = if constrained {
                task.wcet() + Time::from_nanos(slack * (1 + i as u64 % 3) / 4)
            } else {
                task.deadline()
            };
            Task::builder(task.id().0)
                .wcet(task.wcet())
                .period(task.period())
                .deadline(deadline)
                .build()
                .expect("a valid task with a deadline in [C, T]")
        })
        .collect();
    let twins: Vec<Task> = if twinned {
        shaped
            .iter()
            .map(|task| {
                Task::builder(task.id().0 + n as u32)
                    .wcet(task.wcet())
                    .period(task.period())
                    .deadline(task.deadline())
                    .build()
                    .expect("a copy of a valid task is valid")
            })
            .collect()
    } else {
        Vec::new()
    };
    shaped.into_iter().chain(twins).collect()
}

#[test]
fn ffd_and_wfd_match_the_scratch_reference() {
    let (mut ties, mut compared, mut schedulable, mut unschedulable) = (0, 0, 0, 0);
    for overhead in [OverheadModel::zero(), OverheadModel::paper_n4()] {
        for constrained in [false, true] {
            for twinned in [false, true] {
                for (n, u) in [(8, 2.4), (12, 3.2), (16, 3.6)] {
                    for seed in 0..8 {
                        let ts = task_set(n, u, 700 + seed, constrained, twinned);
                        for (packer, worst_fit) in [
                            (PartitionedFixedPriority::ffd(), false),
                            (PartitionedFixedPriority::wfd(), true),
                        ] {
                            let got = packer
                                .with_overhead(overhead)
                                .partition(&ts, CORES)
                                .expect("valid input");
                            let want = reference(&ts, &overhead, worst_fit, &mut ties);
                            assert_eq!(
                                got,
                                want,
                                "{} on n={n} U={u} seed {seed}, constrained {constrained}, \
                                 twinned {twinned}, overhead {overhead:?}",
                                if worst_fit { "WFD" } else { "FFD" }
                            );
                            compared += 1;
                            if got.is_schedulable() {
                                schedulable += 1;
                            } else {
                                unschedulable += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(compared, 2 * 2 * 2 * 3 * 8 * 2);
    assert!(
        schedulable > 0 && unschedulable > 0,
        "the grid must hold both verdicts ({schedulable} schedulable, {unschedulable} not)"
    );
    assert!(ties > 0, "worst fit never chose among equally loaded bins");
}
