//! End-to-end pipeline tests across all workspace crates: generation →
//! partitioning → analysis → simulation → experiment reporting.

use spms::analysis::OverheadModel;
use spms::core::{PartitionOutcome, PartitionedFixedPriority, Partitioner, SemiPartitionedFpTs};
use spms::experiments::{
    AcceptanceRatioExperiment, AlgorithmKind, CacheCrossoverExperiment, PreemptionAnatomy,
};
use spms::sim::{SimulationConfig, Simulator};
use spms::task::{TaskSetGenerator, Time};

#[test]
fn full_pipeline_fpts_with_overheads() {
    let tasks = TaskSetGenerator::new()
        .task_count(16)
        .total_utilization(3.4)
        .working_set_range(16 * 1024, 1024 * 1024)
        .seed(42)
        .generate()
        .expect("valid generator configuration");
    tasks.validate().expect("generated set is valid");

    let outcome = SemiPartitionedFpTs::default()
        .with_overhead(OverheadModel::paper_n4())
        .partition(&tasks, 4)
        .expect("valid inputs");
    let partition = match outcome {
        PartitionOutcome::Schedulable(p) => p,
        PartitionOutcome::Unschedulable { reason } => {
            panic!("expected a schedulable partition, got: {reason}")
        }
    };
    partition.validate().expect("well-formed partition");
    assert!(partition.is_schedulable());
    assert_eq!(partition.core_count(), 4);
    // Every original task is placed (split tasks appear once per piece).
    assert!(partition.placement_count() >= tasks.len());

    let report = Simulator::new(
        &partition,
        SimulationConfig::new(Time::from_secs(1)).with_overhead(OverheadModel::paper_n4()),
    )
    .run();
    assert!(report.no_deadline_misses());
    assert!(report.jobs_completed > 0);
    assert!(report
        .per_core
        .iter()
        .any(|c| c.utilization(report.duration) > 0.0));
}

#[test]
fn partitioned_algorithms_never_migrate_and_fpts_migrates_only_split_tasks() {
    let tasks = TaskSetGenerator::new()
        .task_count(12)
        .total_utilization(3.6)
        .seed(77)
        .generate()
        .unwrap();

    if let PartitionOutcome::Schedulable(p) = PartitionedFixedPriority::ffd()
        .partition(&tasks, 4)
        .unwrap()
    {
        let report = Simulator::new(&p, SimulationConfig::new(Time::from_millis(500))).run();
        assert_eq!(report.migrations, 0, "partitioned tasks never migrate");
    }

    if let PartitionOutcome::Schedulable(p) =
        SemiPartitionedFpTs::default().partition(&tasks, 4).unwrap()
    {
        let report = Simulator::new(&p, SimulationConfig::new(Time::from_millis(500))).run();
        if p.split_count() > 0 {
            assert!(report.migrations > 0, "split tasks migrate at run time");
        } else {
            assert_eq!(report.migrations, 0);
        }
    }
}

#[test]
fn acceptance_experiment_orders_algorithms_like_the_paper() {
    let results = AcceptanceRatioExperiment::new()
        .cores(4)
        .tasks_per_set(12)
        .utilization_points(vec![0.7, 0.95])
        .sets_per_point(15)
        .algorithms(vec![
            AlgorithmKind::FpTs,
            AlgorithmKind::Ffd,
            AlgorithmKind::Wfd,
        ])
        .seed(9)
        .run();
    // At moderate utilization everyone is fine.
    for algo in AlgorithmKind::paper_lineup() {
        assert!(results.ratio_at(0.7, algo).unwrap() > 0.8, "{algo}");
    }
    // At high utilization the semi-partitioned algorithm wins.
    let fpts = results.ratio_at(0.95, AlgorithmKind::FpTs).unwrap();
    let ffd = results.ratio_at(0.95, AlgorithmKind::Ffd).unwrap();
    let wfd = results.ratio_at(0.95, AlgorithmKind::Wfd).unwrap();
    assert!(fpts >= ffd);
    assert!(fpts > wfd);
}

#[test]
fn overhead_aware_and_ideal_analyses_agree_on_easy_sets() {
    let tasks = TaskSetGenerator::new()
        .task_count(8)
        .total_utilization(1.6)
        .seed(5)
        .generate()
        .unwrap();
    for overhead in [
        OverheadModel::zero(),
        OverheadModel::paper_n4(),
        OverheadModel::paper_n64(),
    ] {
        let outcome = SemiPartitionedFpTs::default()
            .with_overhead(overhead)
            .partition(&tasks, 4)
            .unwrap();
        assert!(
            outcome.is_schedulable(),
            "a 40% loaded platform is always fine"
        );
    }
}

#[test]
fn figure1_and_cache_experiments_run_end_to_end() {
    let anatomy = PreemptionAnatomy::new().run();
    assert!(anatomy.preemptions >= 1);
    assert!(anatomy.timeline.contains("dispatch"));

    let crossover = CacheCrossoverExperiment::new()
        .working_set_sizes(vec![8 * 1024, 512 * 1024])
        .run();
    assert_eq!(crossover.points().len(), 2);
    let small = &crossover.points()[0];
    let large = &crossover.points()[1];
    assert!(
        small.analytic.migration_penalty_ratio() >= large.analytic.migration_penalty_ratio(),
        "locality matters more for small working sets"
    );
}
