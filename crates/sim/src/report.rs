//! Simulation results: deadline misses, scheduling statistics, per-core load.

use spms_core::CoreId;
use spms_task::{TaskId, Time};

use crate::Trace;

/// One missed deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlineMiss {
    /// The task whose job missed.
    pub task: TaskId,
    /// Release time of the offending job.
    pub release: Time,
    /// Absolute deadline of the offending job.
    pub deadline: Time,
    /// Completion time, or `None` if the job had not finished when the
    /// simulation ended.
    pub completion: Option<Time>,
}

/// Per-core activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Time the core spent executing task work.
    pub busy: Time,
    /// Time the core spent executing scheduler overhead charged to jobs.
    pub overhead: Time,
    /// Number of dispatches (context switches to a job).
    pub dispatches: u64,
    /// Number of preemptions of a running job.
    pub preemptions: u64,
}

impl CoreStats {
    /// Core utilisation over the simulated duration (busy + overhead time
    /// divided by wall-clock simulation length).
    pub fn utilization(&self, duration: Time) -> f64 {
        if duration.is_zero() {
            0.0
        } else {
            (self.busy + self.overhead).ratio(duration)
        }
    }
}

/// The outcome of a simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimulationReport {
    /// How long was simulated.
    pub duration: Time,
    /// Jobs released during the run.
    pub jobs_released: u64,
    /// Jobs that completed during the run.
    pub jobs_completed: u64,
    /// All deadline misses observed (including jobs unfinished at the end).
    pub deadline_misses: Vec<DeadlineMiss>,
    /// Total preemptions across all cores.
    pub preemptions: u64,
    /// Total cross-core migrations of split tasks.
    pub migrations: u64,
    /// Total dispatches (context switches to a job) across all cores.
    pub dispatches: u64,
    /// Total scheduler-overhead time charged to jobs.
    pub overhead_time: Time,
    /// Per-core counters, indexed by core id.
    pub per_core: Vec<CoreStats>,
    /// The event trace, populated when tracing was enabled in the
    /// configuration.
    pub trace: Trace,
}

impl SimulationReport {
    /// Whether every job met its deadline.
    pub fn no_deadline_misses(&self) -> bool {
        self.deadline_misses.is_empty()
    }

    /// Counters for one core.
    ///
    /// # Panics
    ///
    /// Panics if the core id is out of range.
    pub fn core(&self, core: CoreId) -> &CoreStats {
        &self.per_core[core.0]
    }

    /// Fraction of all charged core time that was scheduler overhead.
    pub fn overhead_fraction(&self) -> f64 {
        let busy: Time = self.per_core.iter().map(|c| c.busy).sum();
        let total = busy + self.overhead_time;
        if total.is_zero() {
            0.0
        } else {
            self.overhead_time.ratio(total)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_stats_utilization() {
        let stats = CoreStats {
            busy: Time::from_millis(40),
            overhead: Time::from_millis(10),
            dispatches: 5,
            preemptions: 1,
        };
        assert!((stats.utilization(Time::from_millis(100)) - 0.5).abs() < 1e-12);
        assert_eq!(stats.utilization(Time::ZERO), 0.0);
    }

    #[test]
    fn report_aggregates() {
        let report = SimulationReport {
            duration: Time::from_millis(100),
            per_core: vec![
                CoreStats {
                    busy: Time::from_millis(50),
                    overhead: Time::from_millis(10),
                    ..CoreStats::default()
                },
                CoreStats {
                    busy: Time::from_millis(30),
                    overhead: Time::ZERO,
                    ..CoreStats::default()
                },
            ],
            overhead_time: Time::from_millis(10),
            ..SimulationReport::default()
        };
        assert!(report.no_deadline_misses());
        let average = report
            .per_core
            .iter()
            .map(|c| c.utilization(report.duration))
            .sum::<f64>()
            / report.per_core.len() as f64;
        assert!((average - 0.45).abs() < 1e-12);
        assert!((report.overhead_fraction() - 10.0 / 90.0).abs() < 1e-12);
        assert_eq!(report.core(CoreId(1)).busy, Time::from_millis(30));
    }
}
