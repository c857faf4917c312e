//! Utilization-based schedulability bounds for rate-monotonic scheduling.
//!
//! The FP-TS algorithm of Guan et al. (RTAS 2010) — the semi-partitioned
//! algorithm the paper implements — is built around Liu & Layland's
//! utilization bound `Θ(n) = n(2^{1/n} − 1)`: a processor hosting `n`
//! rate-monotonic tasks is schedulable if its total utilization does not
//! exceed `Θ(n)`. This module provides that bound, its limit `ln 2`, the
//! hyperbolic bound of Bini & Buttazzo (a strictly better sufficient test),
//! and the "light task" threshold used by SPA2 to decide which tasks must be
//! pre-assigned.

use spms_task::Task;

/// Liu & Layland's rate-monotonic utilization bound for `n` tasks:
/// `Θ(n) = n(2^{1/n} − 1)`, with `Θ(0) = 1` by convention.
///
/// ```
/// use spms_analysis::bounds::liu_layland_bound;
///
/// assert!((liu_layland_bound(1) - 1.0).abs() < 1e-12);
/// assert!((liu_layland_bound(2) - 0.8284271).abs() < 1e-6);
/// assert!(liu_layland_bound(1000) > std::f64::consts::LN_2);
/// ```
pub fn liu_layland_bound(n: usize) -> f64 {
    if n == 0 {
        1.0
    } else {
        n as f64 * (2f64.powf(1.0 / n as f64) - 1.0)
    }
}

/// The limit of the Liu & Layland bound for large `n`: `ln 2 ≈ 0.693`.
pub const LIU_LAYLAND_LIMIT: f64 = std::f64::consts::LN_2;

/// The "light task" threshold of SPA2 (Guan et al., RTAS 2010):
/// `Θ(n) / (1 + Θ(n))`. Tasks with a larger utilization are *heavy* and are
/// pre-assigned their own processor slot so that the Liu & Layland bound can
/// be met for the whole system.
pub fn heavy_task_threshold(n: usize) -> f64 {
    let theta = liu_layland_bound(n);
    theta / (1.0 + theta)
}

/// Sufficient rate-monotonic test by total utilization: the `tasks` fit on
/// one processor if `ΣU_i ≤ Θ(n)`.
pub fn fits_liu_layland(tasks: &[Task]) -> bool {
    let total: f64 = tasks.iter().map(Task::utilization).sum();
    total <= liu_layland_bound(tasks.len()) + 1e-12
}

/// The hyperbolic bound (Bini & Buttazzo 2003): the `tasks` are
/// rate-monotonic schedulable on one processor if `Π (U_i + 1) ≤ 2`.
/// Strictly dominates the Liu & Layland test.
pub fn fits_hyperbolic(tasks: &[Task]) -> bool {
    let product: f64 = tasks.iter().map(|t| t.utilization() + 1.0).product();
    product <= 2.0 + 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms_task::{Task, Time};

    fn task(id: u32, wcet_us: u64, period_us: u64) -> Task {
        Task::new(id, Time::from_micros(wcet_us), Time::from_micros(period_us)).unwrap()
    }

    #[test]
    fn bound_values_match_the_literature() {
        assert!((liu_layland_bound(1) - 1.0).abs() < 1e-12);
        assert!((liu_layland_bound(2) - 0.828_427).abs() < 1e-5);
        assert!((liu_layland_bound(3) - 0.779_763).abs() < 1e-5);
        assert!((liu_layland_bound(10) - 0.717_734).abs() < 1e-5);
        assert!(liu_layland_bound(10_000) - LIU_LAYLAND_LIMIT < 1e-3);
        assert_eq!(liu_layland_bound(0), 1.0);
    }

    #[test]
    fn bound_is_monotonically_decreasing() {
        for n in 1..50 {
            assert!(liu_layland_bound(n) > liu_layland_bound(n + 1));
        }
    }

    #[test]
    fn heavy_threshold_is_about_0_41_for_large_n() {
        let th = heavy_task_threshold(100);
        assert!(th > 0.40 && th < 0.42, "threshold {th}");
        assert!((heavy_task_threshold(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn liu_layland_accepts_and_rejects() {
        // Two tasks at 0.4 each: total 0.8 < 0.828 — accepted.
        let ok = vec![task(0, 4, 10), task(1, 4, 10)];
        assert!(fits_liu_layland(&ok));
        // Two tasks at 0.45 each: total 0.9 > 0.828 — rejected by the bound
        // (although an exact test may still accept them).
        let reject = vec![task(0, 45, 100), task(1, 45, 100)];
        assert!(!fits_liu_layland(&reject));
    }

    #[test]
    fn hyperbolic_dominates_liu_layland() {
        // 0.5 and 0.33: LL total 0.83 > 0.828 rejects, hyperbolic
        // (1.5)(1.33) = 1.995 ≤ 2 accepts.
        let tasks = vec![task(0, 50, 100), task(1, 33, 100)];
        assert!(!fits_liu_layland(&tasks));
        assert!(fits_hyperbolic(&tasks));
    }

    #[test]
    fn hyperbolic_rejects_overload() {
        let tasks = vec![task(0, 60, 100), task(1, 60, 100)];
        assert!(!fits_hyperbolic(&tasks));
    }

    #[test]
    fn empty_processor_accepts_anything_light() {
        assert!(fits_liu_layland(&[]));
        assert!(fits_hyperbolic(&[]));
    }
}
