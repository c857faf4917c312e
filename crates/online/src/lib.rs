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
//! * [`ShardedAdmission`] / [`AdmissionShard`] — the service every driver
//!   runs: N independent controller shards behind a hash +
//!   utilization-aware [`ShardRouter`](spms_core::ShardRouter) with
//!   cross-shard overflow placement and periodic work-stealing rebalance.
//!   A lone controller is the 1-shard case, and the service keeps the one
//!   decision log ([`decisions_digest`] hashes it),
//! * [`EventLoop`] — the timestamped event heap driving the service
//!   (arrivals, departures, deadline expirations, rebalance ticks) with a
//!   seeded same-timestamp tie-shuffle for reproducible runs. Its log of
//!   processed events is opt-in ([`EventLoopConfig::with_event_log`]):
//!   `spms soak` keeps it for its event digest and `--dump-trace`, every
//!   other driver runs without it,
//! * [`EngineMetrics`] — the telemetry bundle every engine carries: a
//!   deterministic [`spms_telemetry::Registry`] (outcome and mechanism
//!   counters plus strippable timing histograms) and per-decision cascade
//!   stage traces in a bounded ring. The registry is the only counter
//!   store: [`ControllerStats`], [`ServiceStats`] and [`FaultStats`] are
//!   read-only views of it. The service is the one timer of a decision:
//!   it records one latency sample per final decision, and the shards
//!   record none.
//!
//! # Example
//!
//! A lone controller is the one-shard service; the event loop drives it
//! through a timed churn trace.
//!
//! ```
//! use spms_online::{ChurnGenerator, EventLoop, EventLoopConfig, OnlineConfig, ShardedAdmission};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let trace = ChurnGenerator::new()
//!     .cores(4)
//!     .target_normalized_utilization(0.6)
//!     .events(40)
//!     .seed(1)
//!     .generate_timed()?;
//! let mut service = ShardedAdmission::new(OnlineConfig::new(4), 1)?;
//! let mut event_loop = EventLoop::new(EventLoopConfig::new(1));
//! event_loop.load_trace(&trace);
//! event_loop.run(&mut service);
//! // Every core passes from-scratch RTA, and the cache agrees with it.
//! assert!(service.shards()[0].partition().scratch_audit().is_ok());
//! assert!(service.stats().decisions.acceptance_ratio() > 0.5);
//! assert_eq!(service.decisions().len(), trace.len());
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
    decisions_digest, AdmissionController, Decision, DecisionKind, DecisionPath, OnlineConfig,
    OnlineConfigBuilder, OnlineError, RejectionReason,
};
pub use event::{parse_trace, TimedEvent, TraceError, WorkloadEvent};
pub use event_loop::{EngineEvent, EventLoop, EventLoopConfig};
pub use metrics::{
    ControllerStats, EngineMetrics, FaultStats, ServiceStats, DEFAULT_TRACE_RING_CAPACITY,
};
pub use replay::{ReplayConfig, ReplayOutcome};
pub use service::{AdmissionShard, ShardHealth, ShardedAdmission};
