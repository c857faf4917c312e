//! # spms-core
//!
//! The paper's primary contribution: partitioned and **semi-partitioned**
//! fixed-priority multiprocessor scheduling algorithms, with the measured
//! run-time overheads of the Linux implementation folded into the analysis.
//!
//! * [`PartitionedFixedPriority`] — classic bin-packing partitioning with the
//!   FFD (first-fit decreasing) and WFD (worst-fit decreasing) heuristics the
//!   paper uses as baselines (plus best-fit/next-fit variants),
//! * [`SemiPartitionedFpTs`] — the FP-TS task-splitting algorithm (the SPA1 /
//!   SPA2 scheme of Guan et al., RTAS 2010) adopted by the paper,
//! * [`SemiPartitionedDmPm`] — the DM-PM algorithm of Kato & Yamasaki
//!   (RTAS 2009), the related-work semi-partitioned scheme,
//! * [`Partition`], [`PlacedTask`], [`SplitInfo`] — the result of a
//!   partitioning run, consumed by both the schedulability analysis and the
//!   discrete-event simulator in `spms-sim`,
//! * [`Partitioner`] — the common trait the acceptance-ratio experiments
//!   iterate over.
//!
//! # Example
//!
//! ```
//! use spms_core::{Partitioner, PartitionOutcome, PartitionedFixedPriority, SemiPartitionedFpTs};
//! use spms_task::TaskSetGenerator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tasks = TaskSetGenerator::new()
//!     .task_count(12)
//!     .total_utilization(3.4)
//!     .seed(7)
//!     .generate()?;
//!
//! let ffd = PartitionedFixedPriority::ffd();
//! let fpts = SemiPartitionedFpTs::default();
//!
//! let ffd_ok = matches!(ffd.partition(&tasks, 4)?, PartitionOutcome::Schedulable(_));
//! let fpts_outcome = fpts.partition(&tasks, 4)?;
//! if let PartitionOutcome::Schedulable(partition) = &fpts_outcome {
//!     // Semi-partitioning may split a few tasks across cores.
//!     assert!(partition.split_count() <= tasks.len());
//! }
//! // FP-TS accepts everything FFD accepts (it only splits when needed).
//! if ffd_ok {
//!     assert!(matches!(fpts_outcome, PartitionOutcome::Schedulable(_)));
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dmpm;
mod edf_partitioned;
mod error;
mod fpts;
mod incremental;
mod partitioned;
mod partitioner;
mod placement;
mod shard;
mod split_budget;
mod txn;

pub use dmpm::SemiPartitionedDmPm;
pub use edf_partitioned::PartitionedEdf;
pub use error::PartitionError;
pub use fpts::{SemiPartitionedFpTs, SplitPlacement, SplitStrategy};
pub use incremental::{whole_outranks_or_ties, IncrementalPlacer, PlacementPlan, WholeProbe};
pub use partitioned::{BinPackingHeuristic, PartitionedFixedPriority, TaskOrdering};
pub use partitioner::{PartitionOutcome, Partitioner};
pub use placement::{
    CacheAuditVerdict, CoreId, JournalMark, Partition, PlacedTask, SplitInfo, SubtaskKind,
    BODY_PRIORITY, TAIL_PRIORITY, WHOLE_PRIORITY_BASE,
};
pub use shard::{
    rebalance_partitions, shard_core_counts, stitch_partitions, RebalanceMove, ShardRouter,
};
pub use txn::PlanTxn;
