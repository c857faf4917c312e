//! Acceptance ratio as a function of the number of processors (experiment
//! E9).
//!
//! The paper evaluates a 4-core Intel Core-i7; this sweep extends the same
//! acceptance-ratio comparison to other core counts (the bin-packing waste of
//! partitioned scheduling grows with the number of bins, so the gap to
//! semi-partitioned scheduling widens as cores are added while the normalized
//! utilization is held constant).

use serde::{Deserialize, Serialize};
use spms_analysis::OverheadModel;
use spms_task::{PeriodDistribution, TaskSetGenerator, Time, UtilizationDistribution};

use crate::progress::{NullProgress, ProgressSink};
use crate::runner::SweepRunner;
use crate::AlgorithmKind;

/// One row of the core-count sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreSweepPoint {
    /// Number of processors.
    pub cores: usize,
    /// `(algorithm, accepted fraction)` pairs in lineup order.
    pub ratios: Vec<(AlgorithmKind, f64)>,
}

impl CoreSweepPoint {
    /// The acceptance ratio of one algorithm at this core count.
    pub fn ratio(&self, algorithm: AlgorithmKind) -> Option<f64> {
        self.ratios
            .iter()
            .find(|(a, _)| *a == algorithm)
            .map(|(_, r)| *r)
    }
}

/// Results of a core-count sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct CoreSweepResults {
    points: Vec<CoreSweepPoint>,
    algorithms: Vec<AlgorithmKind>,
}

impl CoreSweepResults {
    /// All sweep points in increasing core-count order.
    pub fn points(&self) -> &[CoreSweepPoint] {
        &self.points
    }

    /// The algorithms that were compared.
    pub fn algorithms(&self) -> &[AlgorithmKind] {
        &self.algorithms
    }

    /// The acceptance ratio of `algorithm` at exactly `cores` processors.
    pub fn ratio_at(&self, cores: usize, algorithm: AlgorithmKind) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.cores == cores)
            .and_then(|p| p.ratio(algorithm))
    }

    /// Renders a markdown table: one row per core count.
    pub fn render_markdown(&self) -> String {
        let mut out = String::from("| m |");
        for a in &self.algorithms {
            out.push_str(&format!(" {a} |"));
        }
        out.push_str("\n|---|");
        for _ in &self.algorithms {
            out.push_str("---|");
        }
        out.push('\n');
        for p in &self.points {
            out.push_str(&format!("| {} |", p.cores));
            for a in &self.algorithms {
                match p.ratio(*a) {
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
        let mut out = String::from("cores");
        for a in &self.algorithms {
            out.push(',');
            out.push_str(a.name());
        }
        out.push('\n');
        for p in &self.points {
            out.push_str(&format!("{}", p.cores));
            for a in &self.algorithms {
                out.push_str(&format!(",{:.4}", p.ratio(*a).unwrap_or(f64::NAN)));
            }
            out.push('\n');
        }
        out
    }
}

/// Driver for the core-count sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreCountSweepExperiment {
    core_counts: Vec<usize>,
    tasks_per_core: usize,
    normalized_utilization: f64,
    sets_per_point: usize,
    algorithms: Vec<AlgorithmKind>,
    overhead: OverheadModel,
    seed: u64,
    threads: usize,
}

impl Default for CoreCountSweepExperiment {
    fn default() -> Self {
        CoreCountSweepExperiment {
            core_counts: vec![2, 4, 8, 16],
            tasks_per_core: 4,
            normalized_utilization: 0.85,
            sets_per_point: 100,
            algorithms: AlgorithmKind::paper_lineup(),
            overhead: OverheadModel::zero(),
            seed: 0,
            threads: 1,
        }
    }
}

impl CoreCountSweepExperiment {
    /// A driver with the defaults: m ∈ {2, 4, 8, 16}, 4 tasks per core, 85 %
    /// normalized utilization, 100 sets per point, FP-TS vs FFD vs WFD.
    pub fn new() -> Self {
        CoreCountSweepExperiment::default()
    }

    /// Sets the core counts to sweep.
    pub fn core_counts(mut self, core_counts: Vec<usize>) -> Self {
        self.core_counts = core_counts;
        self
    }

    /// Sets the number of tasks generated per core.
    pub fn tasks_per_core(mut self, n: usize) -> Self {
        self.tasks_per_core = n;
        self
    }

    /// Sets the normalized utilization (total utilization / core count) used
    /// at every point.
    pub fn normalized_utilization(mut self, u: f64) -> Self {
        self.normalized_utilization = u;
        self
    }

    /// Sets how many task sets are generated per core count.
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
    pub fn run(&self) -> CoreSweepResults {
        self.run_with_progress(&NullProgress)
    }

    /// [`run`](Self::run) with per-cell completion reported to `progress`.
    pub fn run_with_progress(&self, progress: &dyn ProgressSink) -> CoreSweepResults {
        let partitioners: Vec<(AlgorithmKind, Box<dyn spms_core::Partitioner + Send + Sync>)> =
            self.algorithms
                .iter()
                .map(|a| (*a, a.build(self.overhead)))
                .collect();
        let grid = SweepRunner::new()
            .threads(self.threads)
            .run_grid_with_progress(
                self.seed,
                self.core_counts.len(),
                self.sets_per_point,
                progress,
                |cell| {
                    let cores = self.core_counts[cell.point_idx];
                    let generator = TaskSetGenerator::new()
                        .task_count(self.tasks_per_core * cores)
                        .total_utilization(self.normalized_utilization * cores as f64)
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
                                partitioner
                                    .partition(&tasks, cores)
                                    .expect("valid generated task set")
                                    .is_schedulable()
                            })
                            .collect::<Vec<bool>>(),
                    )
                },
            );
        let kinds: Vec<AlgorithmKind> = partitioners.iter().map(|(kind, _)| *kind).collect();
        let points = self
            .core_counts
            .iter()
            .zip(grid)
            .map(|(&cores, verdicts)| CoreSweepPoint {
                cores,
                ratios: crate::runner::acceptance_ratios(&kinds, &verdicts),
            })
            .collect();
        CoreSweepResults {
            points,
            algorithms: self.algorithms.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> CoreCountSweepExperiment {
        CoreCountSweepExperiment::new()
            .core_counts(vec![2, 4])
            .sets_per_point(10)
            .normalized_utilization(0.85)
            .seed(3)
    }

    #[test]
    fn sweep_covers_every_core_count() {
        let results = quick().run();
        assert_eq!(results.points().len(), 2);
        assert_eq!(results.points()[0].cores, 2);
        assert_eq!(results.points()[1].cores, 4);
        for p in results.points() {
            for (_, r) in &p.ratios {
                assert!((0.0..=1.0).contains(r));
            }
        }
    }

    #[test]
    fn fpts_dominates_the_baselines_at_every_core_count() {
        let results = quick().run();
        for p in results.points() {
            let fpts = p.ratio(AlgorithmKind::FpTs).unwrap();
            let ffd = p.ratio(AlgorithmKind::Ffd).unwrap();
            let wfd = p.ratio(AlgorithmKind::Wfd).unwrap();
            assert!(fpts >= ffd, "m={}: {fpts} vs {ffd}", p.cores);
            assert!(fpts >= wfd, "m={}: {fpts} vs {wfd}", p.cores);
        }
    }

    #[test]
    fn rendering_contains_headers_and_rows() {
        let results = quick().run();
        let md = results.render_markdown();
        let csv = results.render_csv();
        assert!(md.contains("| m |"));
        assert!(md.contains("FP-TS"));
        assert_eq!(csv.lines().count(), 1 + results.points().len());
    }

    #[test]
    fn runs_are_reproducible() {
        assert_eq!(quick().run(), quick().run());
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        assert_eq!(quick().run(), quick().threads(3).run());
    }

    #[test]
    fn ratio_at_looks_up_exact_core_counts() {
        let results = quick().run();
        assert!(results.ratio_at(2, AlgorithmKind::FpTs).is_some());
        assert!(results.ratio_at(64, AlgorithmKind::FpTs).is_none());
    }
}
