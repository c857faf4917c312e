//! Admission-decision latency of the online controller: the incremental
//! fast path against the full offline repartition it replaces.
//!
//! The online controller's claim is that answering admit/reject for one
//! arriving task is much cheaper than re-running the offline partitioner
//! over the whole admitted set. This bench pins that: `fast_path` admits a
//! light probe task into a warm controller (incremental first-fit), while
//! `full_repartition` runs `SemiPartitionedFpTs` from scratch over the same
//! admitted set plus the probe — the work the controller's last-resort
//! fallback does and what a naive online system would do on *every*
//! arrival.

use criterion::{criterion_group, criterion_main, Criterion};
use spms_core::{Partitioner, SemiPartitionedFpTs};
use spms_online::{AdmissionController, OnlineConfig, WorkloadEvent};
use spms_task::{Task, TaskSetGenerator, Time};
use std::hint::black_box;

const CORES: usize = 4;

/// A controller pre-loaded with a moderately utilized admitted set.
fn warm_controller() -> AdmissionController {
    let tasks = TaskSetGenerator::new()
        .task_count(12)
        .total_utilization(2.4)
        .seed(2011)
        .generate()
        .expect("reachable configuration");
    let mut controller = AdmissionController::new(OnlineConfig::new(CORES)).expect("cores > 0");
    for task in tasks {
        controller.handle_event(&WorkloadEvent::Arrive(task));
    }
    assert!(controller.admitted_count() > 0);
    controller
}

/// The probe arrival both benches admit.
fn probe() -> Task {
    Task::new(1000, Time::from_millis(2), Time::from_millis(50)).expect("valid probe")
}

fn bench_admission_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_admission");
    let warm = warm_controller();
    let probe_task = probe();

    group.bench_function("fast_path", |b| {
        b.iter(|| {
            let mut controller = warm.clone();
            black_box(controller.handle_event(&WorkloadEvent::Arrive(probe_task.clone())))
        });
    });

    group.bench_function("admit_depart_cycle", |b| {
        b.iter(|| {
            let mut controller = warm.clone();
            controller.handle_event(&WorkloadEvent::Arrive(probe_task.clone()));
            black_box(controller.handle_event(&WorkloadEvent::Depart(probe_task.id())))
        });
    });

    group.bench_function("full_repartition", |b| {
        let mut all = warm.admitted_tasks();
        all.push(probe_task.clone());
        let offline = SemiPartitionedFpTs::default();
        b.iter(|| black_box(offline.partition(&all, CORES).expect("valid set")));
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_admission_latency
}
criterion_main!(benches);
