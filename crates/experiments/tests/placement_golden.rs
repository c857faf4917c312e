//! Golden digests of every offline packer's exact placements.
//!
//! The acceptance-sweep golden (`determinism_golden.json`) pins FP-TS, FFD
//! and WFD only at acceptance-ratio granularity: a change that moves a task
//! to another core without changing the verdict passes it. Here each
//! [`AlgorithmKind`] partitions a fixed grid and one constant per kind pins
//! every resulting placement:
//!
//! * 4 cores; normalized utilizations 0.6, 0.8, 0.9 and 0.95; 10 seeded
//!   sets per utilization; each set once with zero overhead and once with
//!   the paper's `paper_n4` overhead, under the response-time test;
//! * every set is twelve tasks: six drawn by the seeded generator and a
//!   twin of each (same WCET, period and deadline, its own id), so equal
//!   utilizations occur and the id tie-break of the packing order is
//!   pinned too;
//! * each outcome contributes the FNV-1a of its serialized [`Partition`]
//!   (or [`UNSCHEDULABLE`]), folded in grid order.
//!
//! A change that moves a constant on purpose updates it and explains the
//! move in CHANGES.md.
//!
//! [`Partition`]: spms_core::Partition

use spms_analysis::{OverheadModel, UniprocessorTest};
use spms_core::PartitionOutcome;
use spms_experiments::AlgorithmKind;
use spms_task::{fnv1a, fnv1a_combine, Task, TaskSet, TaskSetGenerator, FNV_OFFSET};

const CORES: usize = 4;
const UTILIZATIONS: [f64; 4] = [0.6, 0.8, 0.9, 0.95];
const SETS_PER_UTILIZATION: u64 = 10;
const DRAWN_TASKS: u32 = 6;
/// What an unschedulable outcome contributes in place of a partition digest.
const UNSCHEDULABLE: u64 = 0;

fn twinned_set(utilization: f64, seed: u64) -> TaskSet {
    let drawn = TaskSetGenerator::new()
        .task_count(DRAWN_TASKS as usize)
        .total_utilization(utilization * CORES as f64 / 2.0)
        .seed(seed)
        .generate()
        .expect("valid generator configuration");
    let twins: Vec<Task> = drawn
        .iter()
        .map(|task| {
            Task::builder(task.id().0 + DRAWN_TASKS)
                .wcet(task.wcet())
                .period(task.period())
                .deadline(task.deadline())
                .build()
                .expect("a copy of a valid task is valid")
        })
        .collect();
    drawn.into_iter().chain(twins).collect()
}

fn placement_digest(kind: AlgorithmKind) -> u64 {
    let mut digest = FNV_OFFSET;
    for overhead in [OverheadModel::zero(), OverheadModel::paper_n4()] {
        let algorithm = kind.build(UniprocessorTest::ResponseTime, overhead);
        for (point, &utilization) in UTILIZATIONS.iter().enumerate() {
            for set in 0..SETS_PER_UTILIZATION {
                let tasks = twinned_set(utilization, 1_000 * point as u64 + set);
                let outcome = algorithm
                    .partition(&tasks, CORES)
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
    }
    digest
}

#[test]
fn every_offline_packer_places_exactly_as_pinned() {
    // FP-TS, its SPA1 pass and DM-PM place every set of this grid
    // identically, so their constants coincide.
    let pinned = [
        (AlgorithmKind::FpTs, 0xd2cf_b494_62a1_ee55),
        (AlgorithmKind::FpTsSpa1, 0xd2cf_b494_62a1_ee55),
        (AlgorithmKind::FpTsNextFit, 0x5960_923d_5e71_6cfa),
        (AlgorithmKind::DmPm, 0xd2cf_b494_62a1_ee55),
        (AlgorithmKind::Ffd, 0xc64d_f756_cd70_9854),
        (AlgorithmKind::Wfd, 0x1bb6_9be4_3c6d_f00d),
        (AlgorithmKind::Bfd, 0xc156_8ea0_e4f9_0087),
        (AlgorithmKind::EdfFfd, 0x1bd5_fc42_4a15_97fe),
    ];
    let mut drifted = Vec::new();
    for (kind, want) in pinned {
        let got = placement_digest(kind);
        if got != want {
            drifted.push(format!("{kind}: digest {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(drifted.is_empty(), "{}", drifted.join("\n"));
}
