//! The admission cascade's repair/split hot path: journal rollback and one
//! split admission.
//!
//! The analysis cache made the per-core *analysis* incremental; this bench
//! pins the cascade *around* it. `repair_admit_journal` drives an arrival
//! that needs one bounded-repair move into a warm controller;
//! `repair_reject_journal` drives an arrival whose repair fails on every
//! target — the worst case for rollback, since every attempt must be
//! undone by rewinding the partition's mutation journal (O(moves)).
//! `split_frontier` admits a task that must be split, its body budget read
//! off the exact frontier scan. The repair probes are asserted to take
//! their intended paths with zero partition clones.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use spms_core::Partition;
use spms_online::{AdmissionController, DecisionKind, DecisionPath, OnlineConfig, WorkloadEvent};
use spms_task::{Task, Time};
use std::hint::black_box;

const CORES: usize = 8;

fn task(id: u32, wcet_us: u64, period_us: u64) -> Task {
    Task::new(id, Time::from_micros(wcet_us), Time::from_micros(period_us)).unwrap()
}

/// A controller whose cores all sit at 90% except the last at 75%, built
/// from per-core arrivals (0.5 + 0.2 + 0.2, last core 0.5 + 0.25) in an
/// order first-fit packs exactly that way. Bounded repair gets victims of
/// several sizes to rank; splitting is disabled to keep every probe on
/// the whole-placement path.
fn warm_repair_controller() -> AdmissionController {
    let config = OnlineConfig::builder()
        .cores(CORES)
        .min_split_budget(Time::from_secs(10))
        .build();
    let mut controller = AdmissionController::new(config).expect("cores > 0");
    let mut id = 0u32;
    let mut admit = |c: &mut AdmissionController, wcet_us: u64| {
        let decision = c.handle(WorkloadEvent::Arrive(task(id, wcet_us, 10_000)));
        assert!(decision.is_admission(), "setup arrival rejected");
        id += 1;
    };
    for _ in 0..CORES - 1 {
        admit(&mut controller, 5_000);
        admit(&mut controller, 2_000);
        admit(&mut controller, 2_000);
    }
    admit(&mut controller, 5_000);
    admit(&mut controller, 2_500);
    controller
}

/// An arrival that fits nowhere whole but is admitted after one repair
/// move (a 20% victim relocates to the 75% core).
fn repairable_probe() -> Task {
    task(1000, 3_000, 10_000)
}

/// An arrival no single bounded repair can place: every target attempt
/// rolls back.
fn unrepairable_probe() -> Task {
    task(1001, 6_000, 10_000)
}

/// A controller with six diverse-period tasks per core (~80% each core),
/// so a 45% arrival must split, and each frontier scan walks six entries'
/// diverse-period demand steps.
fn warm_split_controller(config: OnlineConfig) -> AdmissionController {
    const PERIODS_US: [u64; 6] = [1_000, 1_700, 2_900, 4_300, 7_100, 9_700];
    let mut controller = AdmissionController::new(config).expect("cores > 0");
    let mut id = 0u32;
    for _ in 0..CORES {
        for period in PERIODS_US {
            // ~13.3% utilization each, 80% per core in total.
            let decision =
                controller.handle(WorkloadEvent::Arrive(task(id, period * 2 / 15, period)));
            assert!(decision.is_admission(), "setup arrival rejected");
            id += 1;
        }
    }
    controller
}

fn split_probe() -> Task {
    task(2000, 4_500, 10_000)
}

fn expect_path(controller: &mut AdmissionController, probe: Task, path: DecisionPath) {
    let decision = controller.handle(WorkloadEvent::Arrive(probe));
    assert_eq!(
        decision.kind,
        DecisionKind::Admitted {
            path,
            migrations: 1,
            inflation: Time::ZERO
        },
        "probe did not take the expected path"
    );
}

fn bench_repair_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("repair_path");

    let journal = warm_repair_controller();

    // Sanity: the probes take the intended paths, and the journal cascade
    // performs zero partition clones deciding them.
    {
        let mut j = journal.clone();
        let clones_before = Partition::clone_count();
        expect_path(&mut j, repairable_probe(), DecisionPath::Repair);
        let rejected = j.handle(WorkloadEvent::Arrive(unrepairable_probe()));
        assert!(!rejected.is_admission(), "unrepairable probe was admitted");
        assert_eq!(
            Partition::clone_count(),
            clones_before,
            "journal-based repair cloned a partition"
        );
    }

    group.bench_function("repair_admit_journal", |b| {
        b.iter_batched(
            || journal.clone(),
            |mut controller| {
                black_box(controller.handle(WorkloadEvent::Arrive(repairable_probe())))
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("repair_reject_journal", |b| {
        b.iter_batched(
            || journal.clone(),
            |mut controller| {
                black_box(controller.handle(WorkloadEvent::Arrive(unrepairable_probe())))
            },
            BatchSize::SmallInput,
        );
    });

    let splitting = warm_split_controller(OnlineConfig::builder().cores(CORES).build());
    assert!(
        matches!(
            splitting
                .clone()
                .handle(WorkloadEvent::Arrive(split_probe()))
                .kind,
            DecisionKind::Admitted {
                path: DecisionPath::FastSplit,
                ..
            }
        ),
        "split probe did not split"
    );
    group.bench_function("split_frontier", |b| {
        b.iter_batched(
            || splitting.clone(),
            |mut controller| black_box(controller.handle(WorkloadEvent::Arrive(split_probe()))),
            BatchSize::SmallInput,
        );
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_repair_path
}
criterion_main!(benches);
