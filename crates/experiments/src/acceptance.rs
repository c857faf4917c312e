//! The acceptance-ratio experiment (paper §4, experiment E5).
//!
//! For every point of a normalized-utilization sweep, generate many random
//! task sets with UUniFast-discard, run each partitioning algorithm on them
//! and record the fraction of sets each algorithm accepts ("acceptance
//! ratio"). The paper's claim is that FP-TS keeps a clearly higher acceptance
//! ratio than FFD and WFD even after the measured overheads are folded in.

use serde::{Deserialize, Serialize};
use spms_analysis::OverheadModel;
use spms_task::{PeriodDistribution, TaskSetGenerator, Time, UtilizationDistribution};

use crate::progress::{NullProgress, ProgressSink};
use crate::runner::SweepRunner;
use crate::{same_point, AlgorithmKind};

/// One point of the sweep: the acceptance ratio of every algorithm at one
/// normalized utilization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcceptancePoint {
    /// Normalized utilization (total utilization divided by core count).
    pub normalized_utilization: f64,
    /// `(algorithm, accepted fraction in [0, 1])` pairs, in lineup order.
    pub ratios: Vec<(AlgorithmKind, f64)>,
}

impl AcceptancePoint {
    /// The acceptance ratio of one algorithm at this point.
    pub fn ratio(&self, algorithm: AlgorithmKind) -> Option<f64> {
        self.ratios
            .iter()
            .find(|(a, _)| *a == algorithm)
            .map(|(_, r)| *r)
    }
}

/// Results of an acceptance-ratio sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct AcceptanceRatioResults {
    points: Vec<AcceptancePoint>,
    algorithms: Vec<AlgorithmKind>,
}

impl AcceptanceRatioResults {
    /// All sweep points, in increasing utilization order.
    pub fn points(&self) -> &[AcceptancePoint] {
        &self.points
    }

    /// The algorithms that were compared.
    pub fn algorithms(&self) -> &[AlgorithmKind] {
        &self.algorithms
    }

    /// The acceptance ratio of `algorithm` at the sweep point matching
    /// `normalized_utilization` (within a 1e-9 tolerance, so points computed
    /// as `i as f64 * 0.05` still match the literal `0.7`). Returns `None`
    /// when no sweep point lies within the tolerance.
    pub fn ratio_at(&self, normalized_utilization: f64, algorithm: AlgorithmKind) -> Option<f64> {
        self.points
            .iter()
            .find(|p| same_point(p.normalized_utilization, normalized_utilization))
            .and_then(|p| p.ratio(algorithm))
    }

    /// Area under the acceptance-ratio curve (the usual scalar summary of
    /// these plots: higher is better).
    pub fn weighted_acceptance(&self, algorithm: AlgorithmKind) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.points.iter().filter_map(|p| p.ratio(algorithm)).sum();
        sum / self.points.len() as f64
    }

    /// Renders a markdown table: one row per utilization point, one column
    /// per algorithm.
    pub fn render_markdown(&self) -> String {
        let mut out = String::from("| U / m |");
        for a in &self.algorithms {
            out.push_str(&format!(" {a} |"));
        }
        out.push_str("\n|---|");
        for _ in &self.algorithms {
            out.push_str("---|");
        }
        out.push('\n');
        for p in &self.points {
            out.push_str(&format!("| {:.2} |", p.normalized_utilization));
            for a in &self.algorithms {
                match p.ratio(*a) {
                    Some(r) => out.push_str(&format!(" {:.2} |", r)),
                    None => out.push_str(" - |"),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders a CSV with a header row, suitable for plotting.
    pub fn render_csv(&self) -> String {
        let mut out = String::from("normalized_utilization");
        for a in &self.algorithms {
            out.push(',');
            out.push_str(a.name());
        }
        out.push('\n');
        for p in &self.points {
            out.push_str(&format!("{:.4}", p.normalized_utilization));
            for a in &self.algorithms {
                out.push_str(&format!(",{:.4}", p.ratio(*a).unwrap_or(f64::NAN)));
            }
            out.push('\n');
        }
        out
    }
}

/// The acceptance-ratio experiment driver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcceptanceRatioExperiment {
    cores: usize,
    tasks_per_set: usize,
    utilization_points: Vec<f64>,
    sets_per_point: usize,
    algorithms: Vec<AlgorithmKind>,
    overhead: OverheadModel,
    period_min: Time,
    period_max: Time,
    seed: u64,
    threads: usize,
}

impl Default for AcceptanceRatioExperiment {
    fn default() -> Self {
        AcceptanceRatioExperiment {
            cores: 4,
            tasks_per_set: 16,
            utilization_points: (10..=20).map(|i| i as f64 * 0.05).collect(),
            sets_per_point: 100,
            algorithms: AlgorithmKind::paper_lineup(),
            overhead: OverheadModel::zero(),
            period_min: Time::from_millis(10),
            period_max: Time::from_secs(1),
            seed: 0,
            threads: 1,
        }
    }
}

impl AcceptanceRatioExperiment {
    /// A driver with the paper's defaults: 4 cores, 16 tasks per set,
    /// normalized utilizations 0.50 … 1.00, 100 sets per point, FP-TS vs FFD
    /// vs WFD with exact RTA and no overhead.
    pub fn new() -> Self {
        AcceptanceRatioExperiment::default()
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

    /// Sets the normalized-utilization sweep points (each is total
    /// utilization divided by core count).
    pub fn utilization_points(mut self, points: Vec<f64>) -> Self {
        self.utilization_points = points;
        self
    }

    /// Sets how many task sets are generated per sweep point.
    pub fn sets_per_point(mut self, sets: usize) -> Self {
        self.sets_per_point = sets;
        self
    }

    /// Sets the algorithms to compare.
    pub fn algorithms(mut self, algorithms: Vec<AlgorithmKind>) -> Self {
        self.algorithms = algorithms;
        self
    }

    /// Sets the overhead model folded into every algorithm's analysis.
    pub fn overhead(mut self, overhead: OverheadModel) -> Self {
        self.overhead = overhead;
        self
    }

    /// Sets the RNG seed for task-set generation.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of worker threads the sweep fans out across
    /// (`0` = one per available core). Results are identical for every
    /// thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Number of grid cells one run evaluates (for progress re-basing by
    /// drivers that chain several sweeps).
    pub(crate) fn grid_cells(&self) -> usize {
        self.utilization_points.len() * self.sets_per_point
    }

    /// Runs the sweep.
    ///
    /// Task sets whose generation fails for a point (e.g. the utilization
    /// target is unreachable with the configured task count) are skipped;
    /// every algorithm sees exactly the same sets.
    pub fn run(&self) -> AcceptanceRatioResults {
        self.run_with_progress(&NullProgress)
    }

    /// [`run`](Self::run) with per-cell completion reported to `progress`.
    pub fn run_with_progress(&self, progress: &dyn ProgressSink) -> AcceptanceRatioResults {
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
                            min: self.period_min,
                            max: self.period_max,
                        })
                        .seed(cell.seed);
                    let tasks = generator.generate().ok()?;
                    Some(
                        partitioners
                            .iter()
                            .map(|(_, partitioner)| {
                                partitioner
                                    .partition(&tasks, self.cores)
                                    .expect("valid generated task set")
                                    .is_schedulable()
                            })
                            .collect::<Vec<bool>>(),
                    )
                },
            );
        let kinds: Vec<AlgorithmKind> = partitioners.iter().map(|(kind, _)| *kind).collect();
        let points = self
            .utilization_points
            .iter()
            .zip(grid)
            .map(|(&normalized, verdicts)| AcceptancePoint {
                normalized_utilization: normalized,
                ratios: crate::runner::acceptance_ratios(&kinds, &verdicts),
            })
            .collect();
        AcceptanceRatioResults {
            points,
            algorithms: self.algorithms.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> AcceptanceRatioExperiment {
        AcceptanceRatioExperiment::new()
            .tasks_per_set(8)
            .sets_per_point(12)
            .utilization_points(vec![0.5, 0.8, 0.95])
            .seed(7)
    }

    #[test]
    fn ratios_are_probabilities_and_points_are_ordered() {
        let results = quick().run();
        assert_eq!(results.points().len(), 3);
        for p in results.points() {
            for (_, r) in &p.ratios {
                assert!((0.0..=1.0).contains(r));
            }
        }
    }

    #[test]
    fn low_utilization_is_always_accepted() {
        let results = quick().run();
        for algo in AlgorithmKind::paper_lineup() {
            assert_eq!(results.ratio_at(0.5, algo), Some(1.0), "{algo}");
        }
    }

    #[test]
    fn fpts_beats_the_partitioned_baselines_at_high_utilization() {
        let results = AcceptanceRatioExperiment::new()
            .tasks_per_set(12)
            .sets_per_point(20)
            .utilization_points(vec![0.92])
            .seed(11)
            .run();
        let fpts = results.ratio_at(0.92, AlgorithmKind::FpTs).unwrap();
        let ffd = results.ratio_at(0.92, AlgorithmKind::Ffd).unwrap();
        let wfd = results.ratio_at(0.92, AlgorithmKind::Wfd).unwrap();
        assert!(fpts >= ffd, "FP-TS {fpts} vs FFD {ffd}");
        assert!(fpts > wfd, "FP-TS {fpts} vs WFD {wfd}");
    }

    #[test]
    fn overhead_changes_acceptance_only_slightly() {
        let base = quick().run();
        let with_overhead = quick().overhead(OverheadModel::paper_n4()).run();
        for algo in AlgorithmKind::paper_lineup() {
            let a = base.weighted_acceptance(algo);
            let b = with_overhead.weighted_acceptance(algo);
            assert!(b <= a + 1e-9);
            assert!(a - b < 0.2, "{algo}: overhead cost {a} -> {b}");
        }
    }

    #[test]
    fn rendering_contains_every_algorithm_and_point() {
        let results = quick().run();
        let md = results.render_markdown();
        let csv = results.render_csv();
        for algo in AlgorithmKind::paper_lineup() {
            assert!(md.contains(algo.name()));
            assert!(csv.contains(algo.name()));
        }
        assert!(md.contains("0.95"));
        assert_eq!(csv.lines().count(), 1 + results.points().len());
    }

    #[test]
    fn runs_are_reproducible() {
        let a = quick().run();
        let b = quick().run();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let serial = quick().run();
        let parallel = quick().threads(4).run();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn ratio_at_tolerates_float_noise_in_the_query() {
        // `14 * 0.05` and the literal `0.7` differ in the last bit — an exact
        // `==` lookup on computed grids silently returns the wrong point (or
        // nothing). The lookup must match within an epsilon instead.
        let grid: Vec<f64> = (10..=20).map(|i| i as f64 * 0.05).collect();
        // The trap this guards against: the computed grid point near 0.7 is
        // not bit-equal to the literal 0.7.
        assert!(!grid.contains(&0.7));
        let results = AcceptanceRatioExperiment::new()
            .tasks_per_set(8)
            .sets_per_point(3)
            .utilization_points(grid)
            .seed(7)
            .run();
        for algo in AlgorithmKind::paper_lineup() {
            assert!(results.ratio_at(0.7, algo).is_some(), "{algo} at 0.7");
            assert!(results.ratio_at(0.55, algo).is_some(), "{algo} at 0.55");
        }
    }

    #[test]
    fn ratio_at_rejects_points_outside_the_grid() {
        let results = quick().run();
        assert_eq!(results.ratio_at(0.72, AlgorithmKind::FpTs), None);
        assert_eq!(results.ratio_at(2.0, AlgorithmKind::FpTs), None);
    }
}
