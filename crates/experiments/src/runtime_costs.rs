//! Simulated run-time cost of semi-partitioned vs. partitioned scheduling
//! (experiment E8).
//!
//! The paper's core empirical claim is that the *extra* overhead caused by
//! task splitting is very low. The acceptance-ratio experiments quantify the
//! analytical side of that claim; this experiment quantifies the run-time
//! side: for every task set accepted by an algorithm, the resulting partition
//! is executed in the discrete-event simulator with the measured overheads
//! injected, and the preemption count, migration count and the fraction of
//! processor time spent inside the scheduler are recorded.

use serde::{Deserialize, Serialize};
use spms_analysis::OverheadModel;
use spms_sim::{SimulationConfig, Simulator};
use spms_task::{PeriodDistribution, TaskSetGenerator, Time, UtilizationDistribution};

use crate::progress::{NullProgress, ProgressSink};
use crate::runner::SweepRunner;
use crate::{same_point, AlgorithmKind};

/// Aggregated run-time costs of one algorithm at one utilization point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeCostSample {
    /// The algorithm the sample belongs to.
    pub algorithm: AlgorithmKind,
    /// Normalized utilization of the point.
    pub normalized_utilization: f64,
    /// Number of accepted (and therefore simulated) task sets.
    pub accepted_sets: usize,
    /// Average number of split tasks per accepted set.
    pub avg_split_tasks: f64,
    /// Average preemptions per 1000 released jobs.
    pub preemptions_per_kjob: f64,
    /// Average cross-core migrations per 1000 released jobs.
    pub migrations_per_kjob: f64,
    /// Average fraction of processor time spent on scheduler overhead.
    pub overhead_fraction: f64,
    /// Fraction of simulated sets that missed at least one deadline (expected
    /// to be zero: every simulated set was accepted by the overhead-aware
    /// analysis).
    pub miss_fraction: f64,
}

/// Results of the run-time cost experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RuntimeCostResults {
    samples: Vec<RuntimeCostSample>,
}

impl RuntimeCostResults {
    /// All samples, grouped by utilization point and algorithm.
    pub fn samples(&self) -> &[RuntimeCostSample] {
        &self.samples
    }

    /// The sample of one algorithm at the point matching `utilization`
    /// within a 1e-9 tolerance (`None` when no point lies within it).
    pub fn sample(&self, utilization: f64, algorithm: AlgorithmKind) -> Option<&RuntimeCostSample> {
        self.samples
            .iter()
            .find(|s| s.algorithm == algorithm && same_point(s.normalized_utilization, utilization))
    }

    /// Renders a markdown table with one row per (utilization, algorithm).
    pub fn render_markdown(&self) -> String {
        let mut out = String::from(
            "| U / m | algorithm | accepted | splits | preempt/kjob | migr/kjob | overhead % | misses |\n|---|---|---|---|---|---|---|---|\n",
        );
        for s in &self.samples {
            out.push_str(&format!(
                "| {:.2} | {} | {} | {:.2} | {:.1} | {:.1} | {:.3} | {:.2} |\n",
                s.normalized_utilization,
                s.algorithm,
                s.accepted_sets,
                s.avg_split_tasks,
                s.preemptions_per_kjob,
                s.migrations_per_kjob,
                s.overhead_fraction * 100.0,
                s.miss_fraction,
            ));
        }
        out
    }

    /// Renders a CSV with a header row.
    pub fn render_csv(&self) -> String {
        let mut out = String::from(
            "normalized_utilization,algorithm,accepted_sets,avg_split_tasks,preemptions_per_kjob,migrations_per_kjob,overhead_fraction,miss_fraction\n",
        );
        for s in &self.samples {
            out.push_str(&format!(
                "{:.4},{},{},{:.4},{:.4},{:.4},{:.6},{:.4}\n",
                s.normalized_utilization,
                s.algorithm.name(),
                s.accepted_sets,
                s.avg_split_tasks,
                s.preemptions_per_kjob,
                s.migrations_per_kjob,
                s.overhead_fraction,
                s.miss_fraction,
            ));
        }
        out
    }
}

/// Driver for the run-time cost experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeCostExperiment {
    cores: usize,
    tasks_per_set: usize,
    utilization_points: Vec<f64>,
    sets_per_point: usize,
    algorithms: Vec<AlgorithmKind>,
    overhead: OverheadModel,
    simulation_window: Time,
    seed: u64,
    threads: usize,
}

/// What one accepted task set contributed to an algorithm's aggregates.
struct CellSample {
    split_tasks: usize,
    preemptions: u64,
    migrations: u64,
    jobs: u64,
    overhead_fraction: f64,
    missed: bool,
}

impl Default for RuntimeCostExperiment {
    fn default() -> Self {
        RuntimeCostExperiment {
            cores: 4,
            tasks_per_set: 12,
            utilization_points: vec![0.6, 0.75, 0.9],
            sets_per_point: 20,
            algorithms: vec![
                AlgorithmKind::FpTs,
                AlgorithmKind::FpTsNextFit,
                AlgorithmKind::Ffd,
            ],
            overhead: OverheadModel::paper_n4(),
            simulation_window: Time::from_secs(1),
            seed: 0,
            threads: 1,
        }
    }
}

impl RuntimeCostExperiment {
    /// A driver with the defaults: 4 cores, 12 tasks per set, the paper's
    /// N = 4 overheads, FP-TS vs FP-TS/NF vs FFD, one simulated second per
    /// accepted set.
    pub fn new() -> Self {
        RuntimeCostExperiment::default()
    }

    /// Sets the number of cores.
    pub fn cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Sets the number of tasks per generated set.
    pub fn tasks_per_set(mut self, n: usize) -> Self {
        self.tasks_per_set = n;
        self
    }

    /// Sets the normalized-utilization points.
    pub fn utilization_points(mut self, points: Vec<f64>) -> Self {
        self.utilization_points = points;
        self
    }

    /// Sets how many task sets are generated per point.
    pub fn sets_per_point(mut self, sets: usize) -> Self {
        self.sets_per_point = sets;
        self
    }

    /// Sets the algorithms to compare.
    pub fn algorithms(mut self, algorithms: Vec<AlgorithmKind>) -> Self {
        self.algorithms = algorithms;
        self
    }

    /// Sets the overhead model used for both the analysis and the simulation.
    pub fn overhead(mut self, overhead: OverheadModel) -> Self {
        self.overhead = overhead;
        self
    }

    /// Sets the simulated window per accepted set.
    pub fn simulation_window(mut self, window: Time) -> Self {
        self.simulation_window = window;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of worker threads (`0` = one per available core).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Runs the experiment.
    pub fn run(&self) -> RuntimeCostResults {
        self.run_with_progress(&NullProgress)
    }

    /// [`run`](Self::run) with per-cell completion reported to `progress`.
    ///
    /// Each grid cell generates its task set once and pushes it through
    /// every algorithm (partition + simulate), so all algorithms see the
    /// same sets; the per-algorithm aggregates are folded afterwards in set
    /// order, keeping the floating-point accumulation identical to a serial
    /// run.
    pub fn run_with_progress(&self, progress: &dyn ProgressSink) -> RuntimeCostResults {
        let partitioners: Vec<(AlgorithmKind, Box<dyn spms_core::Partitioner + Send + Sync>)> =
            self.algorithms
                .iter()
                .map(|a| (*a, a.build(self.overhead)))
                .collect();
        let grid = SweepRunner::new()
            .threads(self.threads)
            .run_grid_with_progress(
                self.seed,
                self.utilization_points.len(),
                self.sets_per_point,
                progress,
                |cell| {
                    let normalized = self.utilization_points[cell.point_idx];
                    let generator = TaskSetGenerator::new()
                        .task_count(self.tasks_per_set)
                        .total_utilization(normalized * self.cores as f64)
                        .utilization_distribution(UtilizationDistribution::UUniFastDiscard {
                            max_task_utilization: 1.0,
                        })
                        .period_distribution(PeriodDistribution::LogUniform {
                            min: Time::from_millis(10),
                            max: Time::from_secs(1),
                        })
                        .seed(cell.seed);
                    let tasks = generator.generate().ok()?;
                    Some(
                        partitioners
                            .iter()
                            .map(|(_, partitioner)| {
                                let partition = partitioner
                                    .partition(&tasks, self.cores)
                                    .expect("valid generated task set")
                                    .into_partition()?;
                                let report = Simulator::new(
                                    &partition,
                                    SimulationConfig::new(self.simulation_window)
                                        .with_overhead(self.overhead),
                                )
                                .run();
                                Some(CellSample {
                                    split_tasks: partition.split_count(),
                                    preemptions: report.preemptions,
                                    migrations: report.migrations,
                                    jobs: report.jobs_released,
                                    overhead_fraction: report.overhead_fraction(),
                                    missed: !report.no_deadline_misses(),
                                })
                            })
                            .collect::<Vec<Option<CellSample>>>(),
                    )
                },
            );
        let mut samples = Vec::new();
        for (cells, &normalized) in grid.iter().zip(&self.utilization_points) {
            for (i, (kind, _)) in partitioners.iter().enumerate() {
                let mut accepted_sets = 0usize;
                let mut split_tasks = 0usize;
                let mut preemptions = 0u64;
                let mut migrations = 0u64;
                let mut jobs = 0u64;
                let mut overhead_fraction = 0.0f64;
                let mut missed_sets = 0usize;
                for sample in cells.iter().filter_map(|cell| cell[i].as_ref()) {
                    accepted_sets += 1;
                    split_tasks += sample.split_tasks;
                    preemptions += sample.preemptions;
                    migrations += sample.migrations;
                    jobs += sample.jobs;
                    overhead_fraction += sample.overhead_fraction;
                    if sample.missed {
                        missed_sets += 1;
                    }
                }
                let divisor = accepted_sets.max(1) as f64;
                let kjobs = (jobs as f64 / 1000.0).max(f64::MIN_POSITIVE);
                samples.push(RuntimeCostSample {
                    algorithm: *kind,
                    normalized_utilization: normalized,
                    accepted_sets,
                    avg_split_tasks: split_tasks as f64 / divisor,
                    preemptions_per_kjob: preemptions as f64 / kjobs,
                    migrations_per_kjob: migrations as f64 / kjobs,
                    overhead_fraction: overhead_fraction / divisor,
                    miss_fraction: missed_sets as f64 / divisor,
                });
            }
        }
        RuntimeCostResults { samples }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RuntimeCostExperiment {
        RuntimeCostExperiment::new()
            .tasks_per_set(8)
            .sets_per_point(5)
            .utilization_points(vec![0.6, 0.85])
            .simulation_window(Time::from_millis(400))
            .seed(5)
    }

    #[test]
    fn produces_one_sample_per_point_and_algorithm() {
        let results = quick().run();
        assert_eq!(results.samples().len(), 2 * 3);
    }

    #[test]
    fn accepted_sets_never_miss_deadlines() {
        // The paper's soundness story: sets accepted by the overhead-aware
        // analysis keep their deadlines when simulated with the same
        // overheads injected.
        let results = quick().run();
        for s in results.samples() {
            assert_eq!(
                s.miss_fraction, 0.0,
                "{} at {}",
                s.algorithm, s.normalized_utilization
            );
        }
    }

    #[test]
    fn partitioned_baseline_never_migrates() {
        let results = quick().run();
        for s in results.samples() {
            if s.algorithm == AlgorithmKind::Ffd {
                assert_eq!(s.migrations_per_kjob, 0.0);
                assert_eq!(s.avg_split_tasks, 0.0);
            }
        }
    }

    #[test]
    fn scheduler_overhead_stays_small() {
        // The headline claim: with millisecond-scale periods the measured
        // microsecond-scale overheads consume a tiny fraction of the
        // processor.
        let results = quick().run();
        for s in results.samples() {
            assert!(
                s.overhead_fraction < 0.05,
                "{} spends {:.1}% on overhead",
                s.algorithm,
                s.overhead_fraction * 100.0
            );
        }
    }

    #[test]
    fn next_fit_splitting_migrates_at_least_as_much_as_first_fit() {
        let results = quick().run();
        for &u in &[0.6, 0.85] {
            let ff = results.sample(u, AlgorithmKind::FpTs).unwrap();
            let nf = results.sample(u, AlgorithmKind::FpTsNextFit).unwrap();
            assert!(
                nf.avg_split_tasks >= ff.avg_split_tasks,
                "next-fit should split at least as often at U/m = {u}"
            );
        }
    }

    #[test]
    fn rendering_mentions_every_algorithm() {
        let results = quick().run();
        let md = results.render_markdown();
        let csv = results.render_csv();
        for kind in [
            AlgorithmKind::FpTs,
            AlgorithmKind::FpTsNextFit,
            AlgorithmKind::Ffd,
        ] {
            assert!(md.contains(kind.name()));
            assert!(csv.contains(kind.name()));
        }
    }

    #[test]
    fn runs_are_reproducible() {
        assert_eq!(quick().run(), quick().run());
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        assert_eq!(quick().run(), quick().threads(4).run());
    }
}
