//! Simulation replay of admitted epochs.
//!
//! The admission controller's guarantee is analytical: every admitted
//! configuration passes the per-core acceptance test. The replay hook turns
//! that into an executable check by feeding each *epoch* — the partition as
//! it stands after a partition-changing decision — through the
//! discrete-event simulator in `spms-sim` and counting deadline misses.
//! An analysis accepted by exact RTA must simulate cleanly, so any miss is
//! a bug in either the controller or the analysis. Drivers call
//! [`ReplayOutcome::observe`] (one shard) or [`replay_epoch`] from their
//! [`EventLoop::run_with`](crate::EventLoop::run_with) observer; the churn
//! experiment and the `spms online` CLI surface the counter so CI can
//! assert it stays zero.

use serde::{Deserialize, Serialize};
use spms_analysis::OverheadModel;
use spms_core::Partition;
use spms_sim::{SimulationConfig, Simulator};
use spms_task::Time;

use crate::Decision;

/// Configuration of the epoch replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayConfig {
    /// How much scheduling time to simulate per epoch.
    pub duration: Time,
    /// Overheads injected by the simulator at run time (independent of the
    /// analysis-side inflation the controller applies).
    pub overhead: OverheadModel,
    /// Maximum seeded sporadic release jitter per job: each release is
    /// delayed by a uniform draw in `[0, release_jitter]`, stretching
    /// inter-arrival times (the sporadic task model the analysis covers).
    /// Zero replays synchronous-periodic.
    pub release_jitter: Time,
    /// Seed of the jitter stream (ignored when the jitter is zero).
    pub jitter_seed: u64,
}

impl ReplayConfig {
    /// Replays each epoch for `duration` with no injected overhead and
    /// synchronous-periodic releases.
    pub fn new(duration: Time) -> Self {
        ReplayConfig {
            duration,
            overhead: OverheadModel::zero(),
            release_jitter: Time::ZERO,
            jitter_seed: 0,
        }
    }

    /// Sets the injected overhead model (builder style).
    pub fn with_overhead(mut self, overhead: OverheadModel) -> Self {
        self.overhead = overhead;
        self
    }

    /// Sets the seeded sporadic release jitter (builder style). Releases
    /// only ever get delayed, so an analysis-accepted epoch must still
    /// simulate cleanly — the knob stresses sporadic arrivals end-to-end.
    pub fn with_release_jitter(mut self, jitter: Time, seed: u64) -> Self {
        self.release_jitter = jitter;
        self.jitter_seed = seed;
        self
    }
}

/// Accumulated replay results over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayOutcome {
    /// Epochs simulated.
    pub epochs: u64,
    /// Deadline misses observed across all epochs (must stay 0 for
    /// controllers using the exact RTA acceptance test).
    pub deadline_misses: u64,
    /// Jobs completed across all epochs.
    pub jobs_completed: u64,
    /// Cross-core migrations of split tasks observed across all epochs.
    pub migrations: u64,
}

/// Simulates one partition for `config.duration` and folds the result into
/// an outcome.
pub fn replay_epoch(partition: &Partition, config: &ReplayConfig) -> ReplayOutcome {
    if partition.placement_count() == 0 {
        return ReplayOutcome {
            epochs: 1,
            ..ReplayOutcome::default()
        };
    }
    let mut sim_config = SimulationConfig::new(config.duration).with_overhead(config.overhead);
    if !config.release_jitter.is_zero() {
        sim_config = sim_config.with_release_jitter(config.release_jitter, config.jitter_seed);
    }
    let report = Simulator::new(partition, sim_config).run();
    ReplayOutcome {
        epochs: 1,
        deadline_misses: report.deadline_misses.len() as u64,
        jobs_completed: report.jobs_completed,
        migrations: report.migrations,
    }
}

impl ReplayOutcome {
    /// Folds another outcome into this one.
    pub fn absorb(&mut self, other: ReplayOutcome) {
        self.epochs += other.epochs;
        self.deadline_misses += other.deadline_misses;
        self.jobs_completed += other.jobs_completed;
        self.migrations += other.migrations;
    }

    /// Replays `partition` into this outcome when `decision` admitted a
    /// task and `replay` is set: a one-shard driver's per-decision work,
    /// called from its `run_with` observer with the shard's partition.
    pub fn observe(
        &mut self,
        partition: &Partition,
        decision: &Decision,
        replay: Option<&ReplayConfig>,
    ) {
        if let Some(config) = replay.filter(|_| decision.is_admission()) {
            self.absorb(replay_epoch(partition, config));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChurnGenerator, EventLoop, EventLoopConfig, OnlineConfig};
    use crate::{ShardedAdmission, TimedEvent};

    /// Drives a one-shard service through `events` under the event loop,
    /// replaying the partition after every admission when `replay` is set.
    fn drive(
        cores: usize,
        events: &[TimedEvent],
        replay: Option<&ReplayConfig>,
    ) -> (Vec<Decision>, ReplayOutcome) {
        let mut engine = ShardedAdmission::new(OnlineConfig::new(cores), 1).unwrap();
        let mut event_loop = EventLoop::new(EventLoopConfig::new(0));
        event_loop.load_trace(events);
        let mut decisions = Vec::new();
        let mut outcome = ReplayOutcome::default();
        event_loop.run_with(&mut engine, |engine, decision| {
            outcome.observe(engine.shards()[0].partition(), decision, replay);
            decisions.push(*decision);
        });
        (decisions, outcome)
    }

    #[test]
    fn empty_partition_replays_cleanly() {
        let outcome = replay_epoch(
            &Partition::new(2),
            &ReplayConfig::new(Time::from_millis(10)),
        );
        assert_eq!(outcome.epochs, 1);
        assert_eq!(outcome.deadline_misses, 0);
    }

    #[test]
    fn admitted_epochs_simulate_without_misses() {
        let events = ChurnGenerator::new()
            .cores(2)
            .target_normalized_utilization(0.6)
            .events(40)
            .seed(17)
            .generate_timed()
            .unwrap();
        let replay = ReplayConfig::new(Time::from_millis(50));
        let (decisions, outcome) = drive(2, &events, Some(&replay));
        assert_eq!(decisions.len(), events.len());
        let admissions = decisions.iter().filter(|d| d.is_admission()).count() as u64;
        assert_eq!(outcome.epochs, admissions);
        assert!(admissions > 0, "trace admitted nothing");
        assert_eq!(
            outcome.deadline_misses, 0,
            "analysis-accepted epochs must simulate cleanly"
        );
    }

    #[test]
    fn jittered_replay_stays_miss_free_and_is_seed_deterministic() {
        // Release jitter only ever delays releases (the sporadic model the
        // RTA covers), so analysis-accepted epochs must still simulate
        // cleanly — and identically for equal jitter seeds.
        let events = ChurnGenerator::new()
            .cores(2)
            .target_normalized_utilization(0.7)
            .events(40)
            .seed(23)
            .generate_timed()
            .unwrap();
        let run = |seed: u64| {
            let replay = ReplayConfig::new(Time::from_millis(50))
                .with_release_jitter(Time::from_millis(2), seed);
            drive(2, &events, Some(&replay)).1
        };
        let outcome = run(7);
        assert!(outcome.epochs > 0);
        assert_eq!(
            outcome.deadline_misses, 0,
            "jitter must not break analysis-accepted epochs"
        );
        assert_eq!(
            outcome,
            run(7),
            "equal jitter seeds must replay identically"
        );
    }

    #[test]
    fn replay_disabled_reports_zero_epochs() {
        let events = ChurnGenerator::new()
            .events(10)
            .seed(1)
            .generate_timed()
            .unwrap();
        let (_, outcome) = drive(4, &events, None);
        assert_eq!(outcome, ReplayOutcome::default());
    }

    #[test]
    fn outcomes_accumulate() {
        let mut a = ReplayOutcome {
            epochs: 1,
            deadline_misses: 0,
            jobs_completed: 10,
            migrations: 2,
        };
        a.absorb(ReplayOutcome {
            epochs: 2,
            deadline_misses: 1,
            jobs_completed: 5,
            migrations: 0,
        });
        assert_eq!(a.epochs, 3);
        assert_eq!(a.deadline_misses, 1);
        assert_eq!(a.jobs_completed, 15);
        assert_eq!(a.migrations, 2);
    }
}
