//! # spms-experiments
//!
//! Experiment drivers that regenerate the paper's evaluation:
//!
//! * [`AcceptanceRatioExperiment`] — the §4 comparison: acceptance ratio of
//!   FP-TS vs. FFD vs. WFD over randomly generated task sets, with and
//!   without the measured overheads (E5),
//! * [`OverheadSensitivityExperiment`] — how much acceptance ratio is lost as
//!   the overhead magnitude is scaled up (E6),
//! * [`CacheCrossoverExperiment`] — local context switch vs. migration cache
//!   reload cost as a function of working-set size (E4),
//! * [`PreemptionAnatomy`] — the Figure 1 timeline of a single preemption
//!   with every overhead segment annotated (E3),
//! * [`RuntimeCostExperiment`] — simulated preemptions, migrations and
//!   scheduler-overhead fraction of accepted partitions (E8),
//! * [`CoreCountSweepExperiment`] — acceptance ratio as the core count grows
//!   at constant normalized utilization (E9),
//! * [`GlobalComparisonExperiment`] — partitioned / semi-partitioned vs. the
//!   sufficient global scheduling tests (E10),
//! * [`ChurnExperiment`] — online admission control under task churn:
//!   acceptance ratio, decision-path mix and migrations of the
//!   `spms-online` controller over a target-load sweep, with every admitted
//!   epoch optionally replayed through the simulator (E11),
//! * [`RtaCacheBenchmark`] — the incremental-RTA regression guard: drives
//!   the controller over churn traces, audits every core against
//!   from-scratch RTA after every decision and reports the cascade's
//!   wall-clock time (E12, the `BENCH_rta.json` CI artifact),
//! * [`SoakExperiment`] — million-event endurance runs of the sharded
//!   event-loop admission service: decisions/sec throughput, decision
//!   latency percentiles, cross-shard-count event-stream digests and
//!   sampled schedulability replays (E14, the `BENCH_soak.json` CI
//!   artifact),
//! * [`OverheadExperiment`] — what admission capacity costs when splits
//!   and repair relocations are charged at their real CRPD price: the same
//!   churn traces decided under the free, light and heavy
//!   [`CostModelSpec`](spms_overhead::CostModelSpec) scenarios (E15, the
//!   `BENCH_overhead.json` CI artifact).
//!
//! [`ReportSink`] formats any driver's results for the CLI: markdown, CSV
//! or the JSON envelope the CI benchmark artifacts diff.
//!
//! Each experiment produces a plain-old-data result type with
//! `render_markdown()` / `render_csv()` helpers so that examples, benches and
//! the EXPERIMENTS.md write-up all share the same source of truth.
//!
//! All sweeps execute through the shared [`SweepRunner`]: the independent
//! `point × task-set` grid cells fan out across a configurable thread pool
//! (`.threads(n)` on each driver, `0` = one per core) and merge back in a
//! fixed order, so results are bit-identical for every thread count. The
//! `spms` CLI binary in the umbrella crate exposes every driver behind one
//! command-line interface.
//!
//! # Example
//!
//! ```
//! use spms_experiments::{AcceptanceRatioExperiment, AlgorithmKind};
//!
//! let results = AcceptanceRatioExperiment::new()
//!     .cores(4)
//!     .tasks_per_set(8)
//!     .utilization_points(vec![0.6, 0.9])
//!     .sets_per_point(5)
//!     .run();
//! assert_eq!(results.points().len(), 2);
//! let ratio = results.ratio_at(0.6, AlgorithmKind::FpTs).expect("measured");
//! assert!(ratio >= 0.0 && ratio <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acceptance;
mod algorithms;
mod cache_crossover;
mod chaos;
mod core_sweep;
mod figure1;
mod global_comparison;
mod online_churn;
mod overhead_sweep;
mod progress;
mod report;
mod rta_cache;
mod runner;
mod runtime_costs;
mod sensitivity;
mod soak;

pub use acceptance::{AcceptancePoint, AcceptanceRatioExperiment, AcceptanceRatioResults};
pub use algorithms::AlgorithmKind;
pub use cache_crossover::{CacheCrossoverExperiment, CacheCrossoverResults, CrossoverPoint};
pub use chaos::{ChaosExperiment, ChaosPoint, ChaosResults};
pub use core_sweep::{CoreCountSweepExperiment, CoreSweepPoint, CoreSweepResults};
pub use figure1::{PreemptionAnatomy, PreemptionAnatomyReport};
pub use global_comparison::{
    ComparisonPoint, ComparisonSeries, GlobalComparisonExperiment, GlobalComparisonResults,
};
pub use online_churn::{ChurnExperiment, ChurnPoint, ChurnResults, ChurnRun};
pub use overhead_sweep::{
    OverheadExperiment, OverheadPoint, OverheadResults, OverheadRun, OverheadScenario,
};
pub use progress::{NullProgress, ProgressSink, StderrProgress};
pub use report::{ReportError, ReportFormat, ReportSink};
pub use rta_cache::{RtaCacheBenchmark, RtaCachePoint, RtaCacheResults, RtaCacheTiming};
pub use runner::{derive_seed, GridCell, SweepRunner};
pub use runtime_costs::{RuntimeCostExperiment, RuntimeCostResults, RuntimeCostSample};
pub use sensitivity::{OverheadSensitivityExperiment, SensitivityPoint, SensitivityResults};
pub use soak::{CrossShardComparison, SoakExperiment, SoakPoint, SoakResults, SoakRun, SoakTiming};

/// Whether a sweep-axis value matches a query within the tolerance used by
/// the `*_at()` result lookups (1e-9 — utilization points and overhead
/// scales are all O(1), so an absolute epsilon is appropriate).
pub(crate) fn same_point(axis_value: f64, query: f64) -> bool {
    (axis_value - query).abs() <= 1e-9
}

/// `num / den`, or 0 when nothing was counted.
pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
