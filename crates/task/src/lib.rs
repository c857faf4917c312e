//! # spms-task
//!
//! Sporadic/periodic real-time task model, task-set generation and priority
//! assignment for the semi-partitioned multi-core scheduling (SPMS) workspace.
//!
//! This crate is the foundation of the reproduction of *"Towards the
//! Implementation and Evaluation of Semi-Partitioned Multi-Core Scheduling"*
//! (Zhang, Guan, Yi — PPES 2011). It provides:
//!
//! * [`Time`] — a nanosecond-resolution fixed-point time type used throughout
//!   the workspace (the paper reports overheads in microseconds; nanoseconds
//!   give enough headroom to express both overheads and hyperperiods),
//! * [`Task`], [`TaskSet`] — the sporadic task model `τ_i = (C_i, T_i, D_i)`,
//!   and [`by_decreasing_utilization`], the order every packer offers tasks in,
//! * [`Priority`] and rate-/deadline-monotonic priority assignment,
//! * [`generator`] — random task-set generation (UUniFast, UUniFast-discard,
//!   log-uniform periods) used by the acceptance-ratio experiments,
//! * [`fnv1a`] / [`fnv1a_combine`] — the 64-bit FNV-1a hash every crate
//!   uses for shard homes, per-task working sets and report digests.
//!
//! # Example
//!
//! ```
//! use spms_task::{Task, TaskSet, Time, PriorityAssignment};
//!
//! # fn main() -> Result<(), spms_task::TaskError> {
//! let mut ts = TaskSet::new();
//! ts.push(Task::new(0, Time::from_millis(2), Time::from_millis(10))?);
//! ts.push(Task::new(1, Time::from_millis(5), Time::from_millis(20))?);
//! ts.assign_priorities(PriorityAssignment::RateMonotonic);
//! assert!(ts.total_utilization() < 0.5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod generator;
mod hash;
mod priority;
mod task;
mod task_set;
mod time;

pub use error::TaskError;
pub use generator::{PeriodDistribution, TaskSetGenerator, UtilizationDistribution};
pub use hash::{fnv1a, fnv1a_combine, FNV_OFFSET};
pub use priority::{Priority, PriorityAssignment};
pub use task::{by_decreasing_utilization, Task, TaskBuilder, TaskId};
pub use task_set::TaskSet;
pub use time::Time;
