//! Cross-crate property-based tests: invariants that must hold for *any*
//! randomly generated task set, not just the hand-picked examples.

use proptest::prelude::*;
use spms::analysis::{rta, OverheadModel};
use spms::core::{PartitionOutcome, PartitionedFixedPriority, Partitioner, SemiPartitionedFpTs};
use spms::sim::{Chain, SimulationConfig, Simulator};
use spms::task::{Priority, Task, TaskSet, TaskSetGenerator, Time};

/// Strategy: a feasible task-set configuration (count, total utilization,
/// seed) for a 4-core platform. The utilization is kept at or below roughly
/// half of the task count so UUniFast-discard always terminates quickly.
fn task_set_config() -> impl Strategy<Value = (usize, f64, u64)> {
    (8usize..20, 0.1f64..0.9, any::<u64>())
        .prop_map(|(n, frac, seed)| (n, (frac * n as f64).clamp(0.5, 3.9), seed))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Generated task sets always respect their own declared parameters.
    #[test]
    fn generated_sets_are_well_formed((n, u, seed) in task_set_config()) {
        let ts = TaskSetGenerator::new()
            .task_count(n)
            .total_utilization(u)
            .seed(seed)
            .generate()
            .expect("reachable configuration");
        prop_assert_eq!(ts.len(), n);
        prop_assert!(ts.validate().is_ok());
        prop_assert!((ts.total_utilization() - u).abs() < 0.1);
        prop_assert!(ts.max_utilization() <= 1.0 + 1e-9);
        for task in &ts {
            prop_assert!(task.wcet() <= task.deadline());
            prop_assert!(task.deadline() <= task.period());
            prop_assert!(task.priority().is_some());
        }
    }

    /// Response times are never smaller than the task's own WCET and grow
    /// monotonically with added interference.
    #[test]
    fn response_times_bound_below_by_wcet((n, u, seed) in task_set_config()) {
        let ts = TaskSetGenerator::new()
            .task_count(n)
            .total_utilization(u)
            .seed(seed)
            .generate()
            .expect("reachable configuration");
        let mut tasks: Vec<Task> = ts.iter().cloned().collect();
        tasks.sort_by_key(|t| (t.priority().unwrap_or(Priority::LOWEST), t.id()));
        for (i, task) in tasks.iter().enumerate() {
            let hp = &tasks[..i];
            if let Some(r) = rta::response_time(task, hp) {
                prop_assert!(r >= task.wcet());
                prop_assert!(r <= task.deadline());
                if let Some(r_alone) = rta::response_time(task, &[]) {
                    prop_assert!(r >= r_alone);
                }
            }
        }
    }

    /// Whatever any partitioning algorithm produces is structurally valid:
    /// every task appears, split chains are well-formed, per-core RTA passes,
    /// and partitioned algorithms never split.
    #[test]
    fn partitions_are_structurally_valid((n, u, seed) in task_set_config()) {
        let ts = TaskSetGenerator::new()
            .task_count(n)
            .total_utilization(u)
            .seed(seed)
            .generate()
            .expect("reachable configuration");
        let algorithms: Vec<(bool, Box<dyn Partitioner>)> = vec![
            (false, Box::new(PartitionedFixedPriority::ffd())),
            (false, Box::new(PartitionedFixedPriority::wfd())),
            (true, Box::new(SemiPartitionedFpTs::default())),
        ];
        for (may_split, algorithm) in &algorithms {
            let outcome = algorithm.partition(&ts, 4).expect("valid input");
            if let PartitionOutcome::Schedulable(partition) = outcome {
                prop_assert_eq!(partition.validate(), Ok(()));
                prop_assert!(partition.is_schedulable());
                if !may_split {
                    prop_assert_eq!(partition.split_count(), 0);
                    prop_assert_eq!(partition.placement_count(), ts.len());
                }
                // Every original task is represented by at least one placement.
                for task in &ts {
                    prop_assert!(
                        partition.iter().any(|(_, p)| p.parent == task.id()),
                        "task {} missing from the partition", task.id()
                    );
                }
                // Split chains preserve the parent's total execution demand
                // (no overhead model configured here).
                for task in &ts {
                    let total: Time = partition
                        .iter()
                        .filter(|(_, p)| p.parent == task.id())
                        .map(|(_, p)| p.task.wcet())
                        .sum();
                    prop_assert!(total >= task.wcet());
                }
                // At most one body piece and one tail piece per core (the
                // structural property the promoted-priority analysis relies on).
                for core in 0..partition.core_count() {
                    let placed = partition.core(spms::core::CoreId(core));
                    prop_assert!(placed.iter().filter(|p| p.is_body()).count() <= 1);
                    prop_assert!(placed.iter().filter(|p| p.is_tail()).count() <= 1);
                }
            }
        }
    }

    /// Schedulable partitions never miss deadlines in simulation (soundness
    /// of the analysis with respect to the simulated scheduler).
    #[test]
    fn accepted_partitions_simulate_cleanly((n, u, seed) in (8usize..14, 0.1f64..0.85, any::<u64>())
        .prop_map(|(n, frac, seed)| (n, (frac * n as f64).clamp(0.5, 3.6), seed)))
    {
        let ts = TaskSetGenerator::new()
            .task_count(n)
            .total_utilization(u)
            .seed(seed)
            .generate()
            .expect("reachable configuration");
        let outcome = SemiPartitionedFpTs::default().partition(&ts, 4).expect("valid input");
        if let PartitionOutcome::Schedulable(partition) = outcome {
            let report = Simulator::new(
                &partition,
                SimulationConfig::new(Time::from_millis(500)),
            )
            .run();
            prop_assert!(report.no_deadline_misses(),
                "misses for seed {seed}: {:?}", report.deadline_misses);
            prop_assert_eq!(report.migrations == 0, partition.split_count() == 0);
        }
    }

    /// The overhead-aware analysis never reports a *larger* per-core demand
    /// than what it was given: inflation adds exactly the per-job overhead to
    /// every WCET and leaves periods and deadlines untouched.
    #[test]
    fn overhead_inflation_is_exact((n, u, seed) in (8usize..14, 0.2f64..0.7, any::<u64>())
        .prop_map(|(n, frac, seed)| (n, (frac * n as f64).clamp(0.5, 3.0), seed)))
    {
        let ts = TaskSetGenerator::new()
            .task_count(n)
            .total_utilization(u)
            .seed(seed)
            .generate()
            .expect("reachable configuration");
        let model = OverheadModel::paper_n4();
        if let Ok(inflated) = ts.iter().map(|t| model.inflate_task(t)).collect::<Result<TaskSet, _>>() {
            for (orig, infl) in ts.iter().zip(inflated.iter()) {
                prop_assert_eq!(infl.wcet(), orig.wcet() + model.job_overhead_normal());
                prop_assert_eq!(infl.period(), orig.period());
                prop_assert_eq!(infl.deadline(), orig.deadline());
            }
        }
    }

    /// Chains extracted for the simulator cover each task exactly once and
    /// keep the parent's period.
    #[test]
    fn chains_match_partitions((n, u, seed) in task_set_config()) {
        let ts = TaskSetGenerator::new()
            .task_count(n)
            .total_utilization(u)
            .seed(seed)
            .generate()
            .expect("reachable configuration");
        if let PartitionOutcome::Schedulable(partition) =
            SemiPartitionedFpTs::default().partition(&ts, 4).expect("valid input")
        {
            let chains = Chain::from_partition(&partition);
            prop_assert_eq!(chains.len(), ts.len());
            for task in &ts {
                let chain = chains
                    .iter()
                    .find(|c| c.parent == task.id())
                    .expect("every task has a chain");
                prop_assert_eq!(chain.period, task.period());
                prop_assert_eq!(chain.deadline, task.deadline());
                prop_assert!(chain.pieces.iter().map(|p| p.budget).sum::<Time>() >= task.wcet());
            }
        }
    }
}
