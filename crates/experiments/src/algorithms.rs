//! The partitioning algorithms compared by the experiments.

use serde::{Deserialize, Serialize};
use spms_analysis::OverheadModel;
use spms_core::{PartitionedFixedPriority, Partitioner, SemiPartitionedDmPm, SemiPartitionedFpTs};

/// Which algorithm a data series belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AlgorithmKind {
    /// Semi-partitioned FP-TS (SPA2 with heavy-task pre-assignment).
    FpTs,
    /// Semi-partitioned FP-TS with Guan's next-fit splitting pass (splits on
    /// every processor boundary — the most migration-heavy configuration).
    FpTsNextFit,
    /// Semi-partitioned DM-PM (Kato & Yamasaki, RTAS 2009).
    DmPm,
    /// First-fit decreasing partitioning (paper baseline).
    Ffd,
    /// Worst-fit decreasing partitioning (paper baseline).
    Wfd,
}

impl AlgorithmKind {
    /// The three algorithms the paper's §4 evaluation compares.
    pub fn paper_lineup() -> Vec<AlgorithmKind> {
        vec![AlgorithmKind::FpTs, AlgorithmKind::Ffd, AlgorithmKind::Wfd]
    }

    /// Display name used in tables and CSV headers.
    pub fn name(&self) -> &'static str {
        match self {
            AlgorithmKind::FpTs => "FP-TS",
            AlgorithmKind::FpTsNextFit => "FP-TS/NF",
            AlgorithmKind::DmPm => "DM-PM",
            AlgorithmKind::Ffd => "FFD",
            AlgorithmKind::Wfd => "WFD",
        }
    }

    /// Instantiates the algorithm with the given overhead model.
    pub fn build(&self, overhead: OverheadModel) -> Box<dyn Partitioner + Send + Sync> {
        match self {
            AlgorithmKind::FpTs => Box::new(SemiPartitionedFpTs::default().with_overhead(overhead)),
            AlgorithmKind::FpTsNextFit => {
                Box::new(SemiPartitionedFpTs::next_fit_splitting().with_overhead(overhead))
            }
            AlgorithmKind::DmPm => Box::new(SemiPartitionedDmPm::new().with_overhead(overhead)),
            AlgorithmKind::Ffd => Box::new(PartitionedFixedPriority::ffd().with_overhead(overhead)),
            AlgorithmKind::Wfd => Box::new(PartitionedFixedPriority::wfd().with_overhead(overhead)),
        }
    }
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms_task::TaskSetGenerator;

    #[test]
    fn lineup_matches_the_paper() {
        let names: Vec<&str> = AlgorithmKind::paper_lineup()
            .iter()
            .map(|a| a.name())
            .collect();
        assert_eq!(names, vec!["FP-TS", "FFD", "WFD"]);
    }

    #[test]
    fn every_kind_builds_a_working_partitioner() {
        let tasks = TaskSetGenerator::new()
            .task_count(8)
            .total_utilization(2.0)
            .seed(1)
            .generate()
            .unwrap();
        for kind in [
            AlgorithmKind::FpTs,
            AlgorithmKind::FpTsNextFit,
            AlgorithmKind::DmPm,
            AlgorithmKind::Ffd,
            AlgorithmKind::Wfd,
        ] {
            let algo = kind.build(OverheadModel::zero());
            let outcome = algo.partition(&tasks, 4).unwrap();
            assert!(outcome.is_schedulable(), "{kind} rejected a light set");
            assert!(!algo.name().is_empty());
        }
    }
}
