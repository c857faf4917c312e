//! # spms-online
//!
//! Online admission control and incremental semi-partitioned repartitioning
//! under task churn.
//!
//! The paper — like most of the semi-partitioned literature — treats
//! partitioning as an offline problem: a fixed task set is partitioned once
//! and then analysed. Real deployments face a *stream* of task arrivals and
//! departures and must answer admit/reject quickly while keeping the
//! admitted set schedulable. This crate layers that capability on the
//! offline machinery:
//!
//! * [`WorkloadEvent`] — the arrive/depart event stream,
//! * [`AdmissionController`] — maintains a live, always-schedulable
//!   [`Partition`](spms_core::Partition) via a cascade of incremental
//!   first-fit placement, FP-TS-style splitting of the arrival, bounded
//!   repair (relocating at most `k` placed tasks), and a full offline
//!   repartition as the last resort,
//! * [`ChurnGenerator`] — seeded Poisson or Markov-modulated bursty
//!   arrivals ([`ChurnFamily`]) with log-uniform lifetimes targeting a
//!   configurable offered load,
//! * [`replay`](mod@replay) — feeds each admitted epoch through the
//!   `spms-sim` discrete-event simulator to confirm zero deadline misses,
//! * [`ShardedAdmission`] / [`AdmissionShard`] — the fleet-scale service:
//!   N independent controller shards behind a hash + utilization-aware
//!   [`ShardRouter`](spms_core::ShardRouter) with cross-shard overflow
//!   placement and periodic work-stealing rebalance,
//! * [`EventLoop`] — the timestamped event heap driving the service
//!   (arrivals, departures, deadline expirations, rebalance ticks) with a
//!   seeded same-timestamp tie-shuffle for reproducible runs,
//! * [`EngineMetrics`] — the telemetry bundle every engine carries: a
//!   deterministic [`spms_telemetry::Registry`] (outcome and mechanism
//!   counters plus strippable timing histograms), per-decision cascade
//!   stage traces in a bounded ring, and the rebalance tick history. The
//!   registry is the only counter store: [`ControllerStats`],
//!   [`ServiceStats`] and [`FaultStats`] are read-only views of it.
//!
//! # Example
//!
//! ```
//! use spms_online::{AdmissionController, ChurnGenerator, OnlineConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let events = ChurnGenerator::new()
//!     .cores(4)
//!     .target_normalized_utilization(0.6)
//!     .events(40)
//!     .seed(1)
//!     .generate()?;
//! let mut controller = AdmissionController::new(OnlineConfig::new(4))?;
//! controller.handle_all(&events);
//! // Every core passes from-scratch RTA, and the cache agrees with it.
//! assert!(controller.partition().scratch_audit().is_ok());
//! assert!(controller.stats().acceptance_ratio() > 0.5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod churn;
mod controller;
mod event;
mod event_loop;
pub mod metrics;
pub mod replay;
mod service;

pub use churn::{inject_renewals, ChurnFamily, ChurnGenerator};
pub use controller::{
    AdmissionController, Decision, DecisionKind, DecisionPath, DegradePolicy, OnlineConfig,
    OnlineConfigBuilder, OnlineError, RejectionReason, RepairRanking,
};
pub use event::{parse_trace, TimedEvent, TraceError, WorkloadEvent};
pub use event_loop::{
    EngineEvent, EventLoop, EventLoopConfig, MAX_REBALANCE_BACKOFF_SHIFT, TICK_SNAPSHOT_CAPACITY,
};
pub use metrics::{
    ControllerStats, EngineMetrics, FaultStats, RebalanceTick, ServiceStats,
    DEFAULT_TRACE_RING_CAPACITY,
};
pub use replay::{run_trace, ReplayConfig, ReplayOutcome};
pub use service::{AdmissionShard, ShardHealth, ShardedAdmission};
