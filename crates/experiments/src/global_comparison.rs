//! Global vs. partitioned vs. semi-partitioned acceptance comparison
//! (experiment E10).
//!
//! The paper's introduction recalls that partitioning-based scheduling has
//! been shown to outperform global scheduling for hard real-time guarantees.
//! This experiment reproduces that backdrop with the sufficient global tests
//! from `spms-global` next to the partitioned and semi-partitioned algorithms
//! of `spms-core`, over the same random task sets.

use serde::{Deserialize, Serialize};
use spms_analysis::OverheadModel;
use spms_global::GlobalSchedulabilityTest;
use spms_task::{
    PeriodDistribution, PriorityAssignment, TaskSetGenerator, Time, UtilizationDistribution,
};

use crate::progress::{NullProgress, ProgressSink};
use crate::runner::SweepRunner;
use crate::{same_point, AlgorithmKind};

/// One series of the comparison: either a partitioning algorithm or a global
/// schedulability test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ComparisonSeries {
    /// A partitioning (or semi-partitioning) algorithm from `spms-core`.
    Partitioned(AlgorithmKind),
    /// A sufficient global schedulability test from `spms-global`.
    Global(GlobalSchedulabilityTest),
}

impl ComparisonSeries {
    /// Display name used in tables and CSV headers.
    pub fn name(&self) -> &'static str {
        match self {
            ComparisonSeries::Partitioned(kind) => kind.name(),
            ComparisonSeries::Global(test) => test.name(),
        }
    }
}

impl std::fmt::Display for ComparisonSeries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One utilization point of the comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonPoint {
    /// Normalized utilization (total utilization / core count).
    pub normalized_utilization: f64,
    /// `(series, accepted fraction)` pairs in series order.
    pub ratios: Vec<(ComparisonSeries, f64)>,
}

impl ComparisonPoint {
    /// The acceptance ratio of one series at this point.
    pub fn ratio(&self, series: ComparisonSeries) -> Option<f64> {
        self.ratios
            .iter()
            .find(|(s, _)| *s == series)
            .map(|(_, r)| *r)
    }
}

/// Results of the global-vs-partitioned comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct GlobalComparisonResults {
    points: Vec<ComparisonPoint>,
    series: Vec<ComparisonSeries>,
}

impl GlobalComparisonResults {
    /// All sweep points in increasing utilization order.
    pub fn points(&self) -> &[ComparisonPoint] {
        &self.points
    }

    /// The series that were compared.
    pub fn series(&self) -> &[ComparisonSeries] {
        &self.series
    }

    /// The acceptance ratio of `series` at the point matching
    /// `normalized_utilization` within a 1e-9 tolerance (`None` when no
    /// sweep point lies within it).
    pub fn ratio_at(&self, normalized_utilization: f64, series: ComparisonSeries) -> Option<f64> {
        self.points
            .iter()
            .find(|p| same_point(p.normalized_utilization, normalized_utilization))
            .and_then(|p| p.ratio(series))
    }

    /// Area under the acceptance-ratio curve for one series.
    pub fn weighted_acceptance(&self, series: ComparisonSeries) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.points.iter().filter_map(|p| p.ratio(series)).sum();
        sum / self.points.len() as f64
    }

    /// Renders a markdown table: one row per utilization point.
    pub fn render_markdown(&self) -> String {
        let mut out = String::from("| U / m |");
        for s in &self.series {
            out.push_str(&format!(" {s} |"));
        }
        out.push_str("\n|---|");
        for _ in &self.series {
            out.push_str("---|");
        }
        out.push('\n');
        for p in &self.points {
            out.push_str(&format!("| {:.2} |", p.normalized_utilization));
            for s in &self.series {
                match p.ratio(*s) {
                    Some(r) => out.push_str(&format!(" {r:.2} |")),
                    None => out.push_str(" - |"),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders a CSV with a header row.
    pub fn render_csv(&self) -> String {
        let mut out = String::from("normalized_utilization");
        for s in &self.series {
            out.push(',');
            out.push_str(s.name());
        }
        out.push('\n');
        for p in &self.points {
            out.push_str(&format!("{:.4}", p.normalized_utilization));
            for s in &self.series {
                out.push_str(&format!(",{:.4}", p.ratio(*s).unwrap_or(f64::NAN)));
            }
            out.push('\n');
        }
        out
    }
}

/// Driver for the global-vs-partitioned comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalComparisonExperiment {
    cores: usize,
    tasks_per_set: usize,
    utilization_points: Vec<f64>,
    sets_per_point: usize,
    series: Vec<ComparisonSeries>,
    overhead: OverheadModel,
    seed: u64,
    threads: usize,
}

impl Default for GlobalComparisonExperiment {
    fn default() -> Self {
        GlobalComparisonExperiment {
            cores: 4,
            tasks_per_set: 16,
            utilization_points: (8..=20).map(|i| i as f64 * 0.05).collect(),
            sets_per_point: 100,
            series: vec![
                ComparisonSeries::Partitioned(AlgorithmKind::FpTs),
                ComparisonSeries::Partitioned(AlgorithmKind::Ffd),
                ComparisonSeries::Global(GlobalSchedulabilityTest::GfbDensity),
                ComparisonSeries::Global(GlobalSchedulabilityTest::BclFixedPriority),
                ComparisonSeries::Global(GlobalSchedulabilityTest::RmUs),
            ],
            overhead: OverheadModel::zero(),
            seed: 0,
            threads: 1,
        }
    }
}

impl GlobalComparisonExperiment {
    /// A driver with the defaults: 4 cores, 16 tasks per set, utilization
    /// 0.40 … 1.00, FP-TS and FFD against the three global tests.
    pub fn new() -> Self {
        GlobalComparisonExperiment::default()
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

    /// Sets the normalized-utilization sweep points.
    pub fn utilization_points(mut self, points: Vec<f64>) -> Self {
        self.utilization_points = points;
        self
    }

    /// Sets how many task sets are generated per point.
    pub fn sets_per_point(mut self, sets: usize) -> Self {
        self.sets_per_point = sets;
        self
    }

    /// Sets the series to compare.
    pub fn series(mut self, series: Vec<ComparisonSeries>) -> Self {
        self.series = series;
        self
    }

    /// Sets the overhead model folded into the partitioning analyses (the
    /// global tests are evaluated on the raw task parameters; published
    /// global tests do not model these scheduler overheads, which is part of
    /// the comparison's point).
    pub fn overhead(mut self, overhead: OverheadModel) -> Self {
        self.overhead = overhead;
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

    /// Runs the sweep.
    pub fn run(&self) -> GlobalComparisonResults {
        self.run_with_progress(&NullProgress)
    }

    /// [`run`](Self::run) with per-cell completion reported to `progress`.
    pub fn run_with_progress(&self, progress: &dyn ProgressSink) -> GlobalComparisonResults {
        let partitioners: Vec<(
            ComparisonSeries,
            Option<Box<dyn spms_core::Partitioner + Send + Sync>>,
        )> = self
            .series
            .iter()
            .map(|s| match s {
                ComparisonSeries::Partitioned(kind) => (*s, Some(kind.build(self.overhead))),
                ComparisonSeries::Global(_) => (*s, None),
            })
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
                    let mut tasks = generator.generate().ok()?;
                    tasks.assign_priorities(PriorityAssignment::RateMonotonic);
                    Some(
                        partitioners
                            .iter()
                            .map(|(series, partitioner)| match (series, partitioner) {
                                (ComparisonSeries::Partitioned(_), Some(p)) => p
                                    .partition(&tasks, self.cores)
                                    .expect("valid generated task set")
                                    .is_schedulable(),
                                (ComparisonSeries::Global(test), _) => {
                                    test.accepts(&tasks, self.cores)
                                }
                                _ => false,
                            })
                            .collect::<Vec<bool>>(),
                    )
                },
            );
        let points = self
            .utilization_points
            .iter()
            .zip(grid)
            .map(|(&normalized, verdicts)| ComparisonPoint {
                normalized_utilization: normalized,
                ratios: crate::runner::acceptance_ratios(&self.series, &verdicts),
            })
            .collect();
        GlobalComparisonResults {
            points,
            series: self.series.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> GlobalComparisonExperiment {
        GlobalComparisonExperiment::new()
            .tasks_per_set(10)
            .sets_per_point(12)
            .utilization_points(vec![0.3, 0.7, 0.9])
            .seed(17)
    }

    #[test]
    fn every_series_reports_a_probability() {
        let results = quick().run();
        assert_eq!(results.points().len(), 3);
        for p in results.points() {
            assert_eq!(p.ratios.len(), 5);
            for (_, r) in &p.ratios {
                assert!((0.0..=1.0).contains(r));
            }
        }
    }

    #[test]
    fn partitioning_beats_the_global_sufficient_tests() {
        // The backdrop the paper's introduction cites: analysis-wise, the
        // partitioned and semi-partitioned approaches accept far more task
        // sets than the sufficient global tests at high utilization.
        let results = quick().run();
        let fpts = results.weighted_acceptance(ComparisonSeries::Partitioned(AlgorithmKind::FpTs));
        for global in [
            GlobalSchedulabilityTest::GfbDensity,
            GlobalSchedulabilityTest::BclFixedPriority,
            GlobalSchedulabilityTest::RmUs,
        ] {
            let g = results.weighted_acceptance(ComparisonSeries::Global(global));
            assert!(
                fpts >= g,
                "FP-TS ({fpts:.2}) should dominate {global} ({g:.2})"
            );
        }
    }

    #[test]
    fn everything_accepts_light_sets() {
        // At 30% normalized utilization even the most pessimistic test
        // (RM-US, whose bound is m/(3m−2) ≈ 0.4 of the platform) accepts
        // every set.
        let results = quick().run();
        for series in results.series().to_vec() {
            assert_eq!(results.ratio_at(0.3, series), Some(1.0), "{series}");
        }
    }

    #[test]
    fn rendering_contains_every_series() {
        let results = quick().run();
        let md = results.render_markdown();
        let csv = results.render_csv();
        for series in results.series() {
            assert!(md.contains(series.name()));
            assert!(csv.contains(series.name()));
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
