//! # spms-analysis
//!
//! Fixed-priority schedulability analysis for the SPMS workspace:
//!
//! * [`bounds`] — the Liu & Layland utilization bound and the SPA2 heavy-task
//!   threshold derived from it,
//! * [`rta`] — exact response-time analysis for constrained-deadline
//!   fixed-priority tasks on one processor, the per-core acceptance test of
//!   every partitioning algorithm in `spms-core`,
//! * [`CachedCoreAnalysis`] — incremental per-core RTA: memoized response
//!   times with insert/remove invalidating only the priority levels at or
//!   below the mutation point, allocation-free what-if probes for the
//!   online admission fast path, and the exact split-budget frontier,
//! * [`OverheadModel`] — the paper's measured run-time overheads (§3,
//!   Table 1) and their integration into the analysis via WCET inflation.
//!
//! # Example
//!
//! ```
//! use spms_analysis::{rta, OverheadModel};
//! use spms_task::{Task, Time, Priority};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut high = Task::new(0, Time::from_millis(1), Time::from_millis(4))?;
//! let mut low = Task::new(1, Time::from_millis(2), Time::from_millis(10))?;
//! high.set_priority(Priority::new(0));
//! low.set_priority(Priority::new(1));
//!
//! // Exact response time of the low-priority task under interference.
//! let r = rta::response_time(&low, &[high.clone()]).expect("converges");
//! assert_eq!(r, Time::from_millis(3)); // 2ms own + one 1ms preemption
//!
//! // The whole core passes; the paper's measured overheads inflate each WCET.
//! assert!(rta::is_core_schedulable(&[high, low.clone()]));
//! let overheads = OverheadModel::paper_n4();
//! let inflated = overheads.inflate_task(&low).expect("still fits");
//! assert!(inflated.wcet() > low.wcet());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
mod cached;
mod overhead;
pub mod rta;

pub use cached::{CachedCoreAnalysis, RefreshMark, RefreshUndo};
pub use overhead::{OverheadModel, OverheadScenario};
