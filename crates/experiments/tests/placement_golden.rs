//! Golden digests of every offline packer's exact placements.
//!
//! The acceptance-sweep golden (`determinism_golden.json`) pins FP-TS, FFD
//! and WFD only at acceptance-ratio granularity: a change that moves a task
//! to another core without changing the verdict passes it. Here each
//! [`AlgorithmKind`] partitions two fixed grids and one constant per kind
//! and grid pins every resulting placement. Both grids use 4 cores, 10
//! seeded sets per utilization, and run each set once with zero overhead
//! and once with the paper's `paper_n4` overhead:
//!
//! * the **twinned** grid: normalized utilizations 0.6, 0.8, 0.9 and 0.95;
//!   every set is twelve implicit-deadline tasks, six drawn by the seeded
//!   generator and a twin of each (same WCET, period and deadline, its own
//!   id), so equal utilizations occur and the id tie-break of the packing
//!   order is pinned too;
//! * the **constrained** grid: normalized utilizations 0.5, 0.65 and 0.8;
//!   every set is seven drawn tasks, heavy enough that SPA2's heavy-task
//!   pre-assignment fires, with deadlines cut to between a quarter and
//!   three quarters of the way from WCET to period. With `D < T` the
//!   rate-monotonic order of FP-TS and the deadline-monotonic order of
//!   DM-PM differ, so their constants do too.
//!
//! Each outcome contributes the FNV-1a of its serialized [`Partition`] (or
//! [`UNSCHEDULABLE`]), folded in grid order.
//!
//! A change that moves a constant on purpose updates it and explains the
//! move in CHANGES.md.
//!
//! [`Partition`]: spms_core::Partition

use spms_analysis::{bounds, OverheadModel};
use spms_core::PartitionOutcome;
use spms_experiments::AlgorithmKind;
use spms_task::{fnv1a, fnv1a_combine, Task, TaskSet, TaskSetGenerator, Time, FNV_OFFSET};

const CORES: usize = 4;
const SETS_PER_UTILIZATION: u64 = 10;
/// What an unschedulable outcome contributes in place of a partition digest.
const UNSCHEDULABLE: u64 = 0;

const TWINNED_UTILIZATIONS: [f64; 4] = [0.6, 0.8, 0.9, 0.95];
const TWINNED_DRAWN_TASKS: u32 = 6;

const CONSTRAINED_UTILIZATIONS: [f64; 3] = [0.5, 0.65, 0.8];
const CONSTRAINED_TASKS: usize = 7;
/// Seeds of the constrained grid start here, clear of the twinned grid's.
const CONSTRAINED_SEED_BASE: u64 = 5_000;

fn twinned_set(utilization: f64, seed: u64) -> TaskSet {
    let drawn = TaskSetGenerator::new()
        .task_count(TWINNED_DRAWN_TASKS as usize)
        .total_utilization(utilization * CORES as f64 / 2.0)
        .seed(seed)
        .generate()
        .expect("valid generator configuration");
    let twins: Vec<Task> = drawn
        .iter()
        .map(|task| {
            Task::builder(task.id().0 + TWINNED_DRAWN_TASKS)
                .wcet(task.wcet())
                .period(task.period())
                .deadline(task.deadline())
                .build()
                .expect("a copy of a valid task is valid")
        })
        .collect();
    drawn.into_iter().chain(twins).collect()
}

fn constrained_set(utilization: f64, seed: u64) -> TaskSet {
    let drawn = TaskSetGenerator::new()
        .task_count(CONSTRAINED_TASKS)
        .total_utilization(utilization * CORES as f64)
        .seed(seed)
        .generate()
        .expect("valid generator configuration");
    drawn
        .iter()
        .map(|task| {
            let slack = (task.period() - task.wcet()).as_nanos();
            let quarters = 1 + u64::from(task.id().0) % 3;
            Task::builder(task.id())
                .wcet(task.wcet())
                .period(task.period())
                .deadline(task.wcet() + Time::from_nanos(slack * quarters / 4))
                .build()
                .expect("C ≤ D ≤ T")
        })
        .collect()
}

/// The twinned grid's sets, in grid order.
fn twinned_grid() -> Vec<TaskSet> {
    let mut sets = Vec::new();
    for (point, &utilization) in TWINNED_UTILIZATIONS.iter().enumerate() {
        for set in 0..SETS_PER_UTILIZATION {
            sets.push(twinned_set(utilization, 1_000 * point as u64 + set));
        }
    }
    sets
}

/// The constrained grid's sets, in grid order.
fn constrained_grid() -> Vec<TaskSet> {
    let mut sets = Vec::new();
    for (point, &utilization) in CONSTRAINED_UTILIZATIONS.iter().enumerate() {
        for set in 0..SETS_PER_UTILIZATION {
            let seed = CONSTRAINED_SEED_BASE + 1_000 * point as u64 + set;
            sets.push(constrained_set(utilization, seed));
        }
    }
    sets
}

fn placement_digest(kind: AlgorithmKind, grid: &[TaskSet]) -> u64 {
    let mut digest = FNV_OFFSET;
    for overhead in [OverheadModel::zero(), OverheadModel::paper_n4()] {
        let algorithm = kind.build(overhead);
        for tasks in grid {
            let outcome = algorithm
                .partition(tasks, CORES)
                .expect("a valid set partitions or is rejected");
            let one = match outcome {
                PartitionOutcome::Schedulable(partition) => fnv1a(
                    serde_json::to_string(&partition)
                        .expect("partitions serialize")
                        .as_bytes(),
                ),
                PartitionOutcome::Unschedulable { .. } => UNSCHEDULABLE,
            };
            digest = fnv1a_combine(digest, one);
        }
    }
    digest
}

fn drifted(grid: &[TaskSet], pinned: &[(AlgorithmKind, u64)]) -> Vec<String> {
    pinned
        .iter()
        .filter_map(|&(kind, want)| {
            let got = placement_digest(kind, grid);
            (got != want).then(|| format!("{kind}: digest {got:#018x}, pinned {want:#018x}"))
        })
        .collect()
}

#[test]
fn every_offline_packer_places_exactly_as_pinned() {
    // FP-TS and DM-PM place every set of this grid identically, so their
    // constants coincide.
    let pinned = [
        (AlgorithmKind::FpTs, 0xd2cf_b494_62a1_ee55),
        (AlgorithmKind::FpTsNextFit, 0x5960_923d_5e71_6cfa),
        (AlgorithmKind::DmPm, 0xd2cf_b494_62a1_ee55),
        (AlgorithmKind::Ffd, 0xc64d_f756_cd70_9854),
        (AlgorithmKind::Wfd, 0x1bb6_9be4_3c6d_f00d),
    ];
    let drifted = drifted(&twinned_grid(), &pinned);
    assert!(drifted.is_empty(), "{}", drifted.join("\n"));
}

#[test]
fn constrained_deadlines_pin_every_packer_and_tell_dm_pm_from_fp_ts() {
    let grid = constrained_grid();
    let heavy = grid
        .iter()
        .flat_map(|tasks| {
            let threshold = bounds::heavy_task_threshold(tasks.len());
            tasks.iter().filter(move |t| t.utilization() > threshold)
        })
        .count();
    assert!(
        heavy > 0,
        "no task is heavy enough for SPA2's pre-assignment"
    );
    assert!(
        grid.iter().flatten().all(|t| t.deadline() < t.period()),
        "every deadline must be constrained"
    );

    let pinned = [
        (AlgorithmKind::FpTs, 0x83d9_ce79_5621_c717),
        (AlgorithmKind::FpTsNextFit, 0x81af_7890_ef0a_e7f3),
        (AlgorithmKind::DmPm, 0xe9b5_5e34_3ec8_2ec6),
        (AlgorithmKind::Ffd, 0x1879_5f6b_66a1_66f4),
        (AlgorithmKind::Wfd, 0x43eb_3871_3093_8e69),
    ];
    assert_ne!(pinned[0].1, pinned[2].1, "FP-TS and DM-PM must differ here");
    let drifted = drifted(&grid, &pinned);
    assert!(drifted.is_empty(), "{}", drifted.join("\n"));
}
