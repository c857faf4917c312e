//! Utilization-based schedulability bounds for rate-monotonic scheduling.
//!
//! The FP-TS algorithm of Guan et al. (RTAS 2010) — the semi-partitioned
//! algorithm the paper implements — is built around Liu & Layland's
//! utilization bound `Θ(n) = n(2^{1/n} − 1)`: a processor hosting `n`
//! rate-monotonic tasks is schedulable if its total utilization does not
//! exceed `Θ(n)`. This module provides that bound, its limit `ln 2`, and the
//! "light task" threshold used by SPA2 to decide which tasks must be
//! pre-assigned. Whether a core actually fits is always decided by the exact
//! response-time analysis in [`rta`](crate::rta).

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
