//! E1 — Table 1: ready-queue and sleep-queue operation durations at N = 4
//! and N = 64, plus the ready-queue ablation (binomial heap vs pairing heap
//! vs `std::collections::BinaryHeap`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spms_overhead::{MeasurementConfig, QueueOpBenchmark};
use spms_queues::{BinomialHeap, PairingHeap, ReadyQueue, SleepQueue};
use std::collections::BinaryHeap;
use std::hint::black_box;

fn print_table1() {
    let table = QueueOpBenchmark::new(MeasurementConfig {
        iterations: 2_000,
        warmup: 200,
    })
    .measure_table1();
    println!("\n=== E1 / Table 1: measured queue operation durations ===");
    println!("{}", table.render_markdown());
}

fn bench_ready_queue(c: &mut Criterion) {
    print_table1();
    let mut group = c.benchmark_group("ready_queue");
    for &n in &[4usize, 64] {
        group.bench_with_input(BenchmarkId::new("add_local", n), &n, |b, &n| {
            let mut queue: ReadyQueue<u32, u64> = ReadyQueue::new();
            for i in 0..n {
                queue.add((i % 16) as u32, i as u64);
            }
            let mut i = n as u64;
            b.iter(|| {
                queue.add(black_box((i % 16) as u32), i);
                queue.delete_highest();
                i += 1;
            });
        });
        group.bench_with_input(BenchmarkId::new("delete", n), &n, |b, &n| {
            let mut queue: ReadyQueue<u32, u64> = ReadyQueue::new();
            for i in 0..n {
                queue.add((i % 16) as u32, i as u64);
            }
            b.iter(|| {
                let popped = queue.delete_highest().expect("non-empty");
                queue.add(black_box(popped.0), popped.1);
            });
        });
    }
    group.finish();
}

fn bench_sleep_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("sleep_queue");
    for &n in &[4usize, 64] {
        group.bench_with_input(BenchmarkId::new("add", n), &n, |b, &n| {
            let mut queue: SleepQueue<(u64, u64), u64> = SleepQueue::new();
            for i in 0..n {
                queue.add((i as u64 * 100, i as u64), i as u64);
            }
            let mut i = n as u64;
            b.iter(|| {
                let key = (black_box(i * 13 % 10_007), 1_000_000 + i);
                queue.add(key, i);
                queue.delete(&key);
                i += 1;
            });
        });
        group.bench_with_input(BenchmarkId::new("delete_earliest", n), &n, |b, &n| {
            let mut queue: SleepQueue<(u64, u64), u64> = SleepQueue::new();
            for i in 0..n {
                queue.add((i as u64 * 100, i as u64), i as u64);
            }
            b.iter(|| {
                let (k, v) = queue.pop_earliest().expect("non-empty");
                queue.add(black_box(k), v);
            });
        });
    }
    group.finish();
}

/// The ready-queue structure: binomial heap (the paper) vs pairing heap vs
/// the standard library's binary heap.
fn bench_heap_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ready_queue_ablation");
    let workload: Vec<u32> = (0..64u32).map(|i| (i * 2_654_435_761) % 1_000).collect();
    group.bench_function("binomial_heap", |b| {
        b.iter(|| {
            let mut heap = BinomialHeap::new();
            for &x in &workload {
                heap.push(black_box(x));
            }
            while heap.pop().is_some() {}
        });
    });
    group.bench_function("pairing_heap", |b| {
        b.iter(|| {
            let mut heap = PairingHeap::new();
            for &x in &workload {
                heap.push(black_box(x));
            }
            while heap.pop().is_some() {}
        });
    });
    group.bench_function("std_binary_heap", |b| {
        b.iter(|| {
            let mut heap = BinaryHeap::new();
            for &x in &workload {
                heap.push(std::cmp::Reverse(black_box(x)));
            }
            while heap.pop().is_some() {}
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_ready_queue, bench_sleep_queue, bench_heap_ablation
}
criterion_main!(benches);
