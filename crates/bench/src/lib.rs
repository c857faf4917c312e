//! # spms-bench
//!
//! Criterion benchmarks that regenerate every table and figure of the
//! paper's evaluation. Each bench target corresponds to one experiment:
//!
//! | bench | experiment |
//! |---|---|
//! | `queue_ops` | E1 — Table 1 (queue operation durations) |
//! | `scheduler_functions` | E2 — release()/sch()/cnt_swth() costs |
//! | `preemption_anatomy` | E3 — Figure 1 overhead anatomy |
//! | `cache_overhead` | E4 — local vs. migration cache reload |
//! | `acceptance_ratio` | E5 — FP-TS vs FFD vs WFD acceptance ratio |
//! | `overhead_sensitivity` | E6 — acceptance vs overhead magnitude |
//!
//! The benches print the regenerated table before measuring, so running
//! `cargo bench -p spms-bench` reproduces the paper's numbers and measures
//! the cost of producing them at the same time.

#![forbid(unsafe_code)]

/// Shared helper: a deterministic task set of the size used throughout the
/// benchmark suite.
pub fn benchmark_task_set(tasks: usize, utilization: f64, seed: u64) -> spms_task::TaskSet {
    spms_task::TaskSetGenerator::new()
        .task_count(tasks)
        .total_utilization(utilization)
        .seed(seed)
        .generate()
        .expect("benchmark task-set configuration is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_task_set_is_deterministic() {
        assert_eq!(benchmark_task_set(8, 2.0, 1), benchmark_task_set(8, 2.0, 1));
        assert_eq!(benchmark_task_set(8, 2.0, 1).len(), 8);
    }
}
