//! Cache-related preemption and migration delay (CRPD) estimation.
//!
//! Reproduces the paper's §3 "cache" overhead argument: after a preemption the
//! resuming task must reload the part of its working set that was evicted
//! while it was not running. On a private-L1/L2 + shared-L3 machine:
//!
//! * **local preemption** — the evicted lines usually survive in the shared
//!   L3, so the reload cost is `lines × L3 latency`, *unless* the combined
//!   working sets of the preempted and preempting tasks fit in the private
//!   levels, in which case (almost) nothing is evicted;
//! * **migration** — the destination core's private caches never held the
//!   task's lines, so the reload cost is `lines × L3 latency` regardless of
//!   working-set size (plus memory accesses for anything that did not fit in
//!   the L3 either).
//!
//! The crossover between "local is much cheaper" and "local ≈ migration" is
//! exactly what [`CrpdModel::analytic`] and [`CrpdModel::simulated`] expose.

use serde::{Deserialize, Serialize};

use crate::{CacheHierarchy, CacheHierarchyConfig, WorkingSet};

/// Estimated reload delays after a preemption, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CrpdEstimate {
    /// Reload cost when the task resumes on the same core it was preempted on.
    pub local_preemption_ns: u64,
    /// Reload cost when the task resumes on a different core (task migration).
    pub migration_ns: u64,
}

impl CrpdEstimate {
    /// Ratio `migration / local`, with the convention that a zero local cost
    /// yields `f64::INFINITY` (an infinitely better local switch).
    pub fn migration_penalty_ratio(&self) -> f64 {
        if self.local_preemption_ns == 0 {
            if self.migration_ns == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.migration_ns as f64 / self.local_preemption_ns as f64
        }
    }
}

/// Estimator for cache-related preemption/migration delays.
///
/// Two estimates are offered: a closed-form *analytic* model used by the
/// overhead-aware schedulability analysis (cheap, conservative) and a
/// *simulated* estimate that actually replays the access pattern through a
/// [`CacheHierarchy`] (used to validate the analytic model and to produce the
/// cache-crossover figure).
#[derive(Debug, Clone)]
pub struct CrpdModel {
    config: CacheHierarchyConfig,
}

impl CrpdModel {
    /// Creates a model for the given hierarchy.
    pub fn new(config: CacheHierarchyConfig) -> Self {
        CrpdModel { config }
    }

    /// The hierarchy configuration backing the model.
    pub fn config(&self) -> &CacheHierarchyConfig {
        &self.config
    }

    /// Closed-form estimate of the reload delays for a task with working set
    /// `task_ws` preempted by a task with working set `preemptor_ws`.
    pub fn analytic(&self, task_ws: WorkingSet, preemptor_ws: WorkingSet) -> CrpdEstimate {
        let line = self.config.l1.line_bytes;
        let lines = task_ws.lines(line);
        let private_lines = self.config.private_capacity_bytes() / line;
        let l3_lines = self.config.l3.size_bytes / line;

        // Lines that do not even fit in the L3 must come from memory in both
        // scenarios.
        let from_memory = lines.saturating_sub(l3_lines);
        let on_chip = lines - from_memory;

        // Migration: the destination core's private caches are cold for this
        // task, so every on-chip line is fetched from the shared L3.
        let migration_ns =
            on_chip * self.config.l3.hit_latency_ns + from_memory * self.config.memory_latency_ns;

        // Local preemption: lines are evicted from the private levels only to
        // the extent that the combined working sets of the preempted and the
        // preempting task exceed the private capacity (self-eviction of a
        // too-large working set is included in the sum).
        let preemptor_lines = preemptor_ws.lines(line);
        let displaced = lines.min((lines + preemptor_lines).saturating_sub(private_lines));
        let displaced_on_chip = displaced.min(on_chip);
        let local_preemption_ns = displaced_on_chip * self.config.l3.hit_latency_ns
            + from_memory * self.config.memory_latency_ns;

        CrpdEstimate {
            local_preemption_ns,
            migration_ns,
        }
    }

    /// Simulated estimate: replays the preemption scenario through a cold
    /// [`CacheHierarchy`].
    ///
    /// Scenario (mirroring Figure 1 of the paper): the task warms its working
    /// set on core 0; the preemptor runs on core 0 and touches its own
    /// working set; then the task resumes either on core 0 (local) or on
    /// core 1 (migration) and re-touches its working set. The reported delay
    /// is the resume cost minus the warm-cache cost, i.e. the *extra* time
    /// attributable to the preemption.
    pub fn simulated(&self, task_ws: WorkingSet, preemptor_ws: WorkingSet) -> CrpdEstimate {
        let warm_cost = {
            let mut h = CacheHierarchy::new(self.config.clone());
            h.touch_working_set(0, &task_ws);
            h.touch_working_set(0, &task_ws)
        };

        let local = {
            let mut h = CacheHierarchy::new(self.config.clone());
            h.touch_working_set(0, &task_ws);
            h.touch_working_set(0, &preemptor_ws);
            h.touch_working_set(0, &task_ws)
        };

        let migration = {
            let mut h = CacheHierarchy::new(self.config.clone());
            h.touch_working_set(0, &task_ws);
            h.touch_working_set(0, &preemptor_ws);
            h.touch_working_set(1, &task_ws)
        };

        CrpdEstimate {
            local_preemption_ns: local.saturating_sub(warm_cost),
            migration_ns: migration.saturating_sub(warm_cost),
        }
    }
}

impl Default for CrpdModel {
    fn default() -> Self {
        CrpdModel::new(CacheHierarchyConfig::core_i7_4core())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CrpdModel {
        CrpdModel::new(CacheHierarchyConfig::core_i7_4core())
    }

    #[test]
    fn small_working_set_prefers_local_switch() {
        let m = model();
        let est = m.analytic(
            WorkingSet::from_bytes(8 * 1024),
            WorkingSet::from_bytes(8 * 1024),
        );
        // 8 KiB + 8 KiB fits comfortably in L1+L2, so the local reload is far
        // cheaper than pulling everything across from the L3 after migrating.
        assert!(est.migration_ns > est.local_preemption_ns);
        assert!(est.migration_penalty_ratio() > 4.0);
    }

    #[test]
    fn large_working_set_makes_migration_comparable() {
        let m = model();
        let est = m.analytic(
            WorkingSet::from_bytes(2 * 1024 * 1024),
            WorkingSet::from_bytes(2 * 1024 * 1024),
        );
        // Both costs are dominated by L3 refills: same order of magnitude.
        assert!(est.migration_penalty_ratio() < 3.0);
        assert!(est.local_preemption_ns > 0);
    }

    #[test]
    fn gigantic_working_set_hits_memory_in_both_cases() {
        let m = model();
        let est = m.analytic(
            WorkingSet::from_bytes(32 * 1024 * 1024),
            WorkingSet::from_bytes(32 * 1024 * 1024),
        );
        assert!(est.local_preemption_ns > 0);
        assert!(est.migration_ns >= est.local_preemption_ns);
        assert!(est.migration_penalty_ratio() < 2.0);
    }

    #[test]
    fn simulated_agrees_with_analytic_on_the_crossover_shape() {
        // Use the tiny hierarchy so the simulation stays fast.
        let m = CrpdModel::new(CacheHierarchyConfig::tiny_for_tests());
        let small = m.simulated(
            WorkingSet::from_bytes(512),
            WorkingSet::from_bytes(512).with_base(1 << 20),
        );
        let large = m.simulated(
            WorkingSet::from_bytes(16 * 1024),
            WorkingSet::from_bytes(16 * 1024).with_base(1 << 20),
        );
        assert!(
            small.migration_penalty_ratio() > large.migration_penalty_ratio(),
            "small working sets should benefit more from staying local (small ratio {} vs large ratio {})",
            small.migration_penalty_ratio(),
            large.migration_penalty_ratio()
        );
    }

    #[test]
    fn migration_never_cheaper_than_local() {
        let m = model();
        for bytes in [1024u64, 64 * 1024, 512 * 1024, 4 * 1024 * 1024] {
            let ws = WorkingSet::from_bytes(bytes);
            let est = m.analytic(ws, ws);
            assert!(est.migration_ns >= est.local_preemption_ns, "bytes={bytes}");
        }
    }

    #[test]
    fn zero_working_set_costs_nothing() {
        let est = model().analytic(WorkingSet::from_bytes(0), WorkingSet::from_bytes(1024));
        assert_eq!(est.local_preemption_ns, 0);
        assert_eq!(est.migration_ns, 0);
        assert_eq!(est.migration_penalty_ratio(), 1.0);
    }

    #[test]
    fn penalty_ratio_handles_zero_local() {
        let est = CrpdEstimate {
            local_preemption_ns: 0,
            migration_ns: 100,
        };
        assert!(est.migration_penalty_ratio().is_infinite());
    }
}
