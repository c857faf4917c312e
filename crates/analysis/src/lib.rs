//! # spms-analysis
//!
//! Fixed-priority schedulability analysis for the SPMS workspace:
//!
//! * [`bounds`] — Liu & Layland and hyperbolic utilization bounds,
//! * [`rta`] — exact response-time analysis for constrained-deadline
//!   fixed-priority tasks on one processor,
//! * [`CachedCoreAnalysis`] — incremental per-core RTA: memoized response
//!   times with insert/remove invalidating only the priority levels at or
//!   below the mutation point, allocation-free what-if probes for the
//!   online admission fast path, and the exact split-budget frontier,
//! * [`OverheadModel`] — the paper's measured run-time overheads (§3,
//!   Table 1) and their integration into the analysis via WCET inflation,
//! * [`UniprocessorTest`] — the pluggable per-core acceptance test used by
//!   the partitioning algorithms in `spms-core`.
//!
//! # Example
//!
//! ```
//! use spms_analysis::{rta, OverheadModel, UniprocessorTest};
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
//! // The same test with the paper's measured overheads folded in.
//! let overheads = OverheadModel::paper_n4();
//! let test = UniprocessorTest::ResponseTime;
//! assert!(test.accepts(&[high, low.clone()]));
//! let inflated = overheads.inflate_task(&low).expect("still fits");
//! assert!(inflated.wcet() > low.wcet());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
mod cached;
pub mod edf;
mod overhead;
pub mod rta;
mod uniprocessor_test;

pub use cached::{CachedCoreAnalysis, RefreshMark, RefreshUndo};
pub use overhead::{OverheadModel, OverheadScenario};
pub use uniprocessor_test::UniprocessorTest;
