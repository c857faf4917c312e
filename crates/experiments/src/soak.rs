//! The soak experiment: million-event endurance runs of the sharded
//! admission service.
//!
//! For each configured shard count (the sweep's point axis) this driver
//! generates churn traces and pushes them through the full engine stack —
//! [`ChurnGenerator`] → [`EventLoop`] → [`ShardedAdmission`] — measuring
//! decision throughput and latency percentiles while asserting the
//! determinism contract:
//!
//! * every shard count consumes the **same** traces (trace seeds derive
//!   from the set index only, never from the shard-count axis), and with
//!   leases disabled the processed event stream is byte-identical across
//!   shard counts (`events_digest`, surfaced as
//!   `event_stream_shard_invariant`);
//! * the decision log per shard count is deterministic for any `--threads`
//!   value (`decisions_digest`);
//! * sampled schedulability replays through the `spms-sim` simulator must
//!   observe zero deadline misses (`replay_misses`).
//!
//! Decision outcomes legitimately differ *between* shard counts: splitting
//! the core set constrains placement (a walled 2-shard service cannot
//! split a task across the shard boundary), which is exactly the capacity
//! cost the sweep quantifies. Wall-clock throughput/latency columns live
//! in the `timing` array — the one non-deterministic object in the output,
//! so CI diffs strip exactly that.
//!
//! Two optional scenario columns ride on the same traces:
//!
//! * [`cross_shard`](SoakExperiment::cross_shard) reruns every multi-shard
//!   point with the cross-shard split planner enabled and reports the
//!   acceptance it recovers over the walled baseline
//!   ([`SoakResults::cross_shard`]); sampled replays then run against the
//!   [`stitch_partitions`]-reassembled global partition, because a
//!   cross-shard chain is only complete fleet-wide;
//! * [`leased_scenario`](SoakExperiment::leased_scenario) reruns every
//!   point with an admission lease armed and renewal heartbeats injected
//!   at half the lease ([`SoakResults::leased_points`]). Lease-synthesized
//!   departures depend on admission outcomes, so the leased per-shard-count
//!   event digests **legitimately diverge** — they are reported per point
//!   and deliberately excluded from `event_stream_shard_invariant`.
//!
//! The churn process itself is selectable via
//! [`churn_family`](SoakExperiment::churn_family): the default Poisson
//! process or the bursty Markov-modulated variant.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use spms_core::{stitch_partitions, Partition};
use spms_faults::{FaultPlan, FaultSpec};
use spms_online::{
    inject_renewals,
    replay::{replay_epoch, ReplayConfig, ReplayOutcome},
    ChurnFamily, ChurnGenerator, Decision, EventLoop, EventLoopConfig, OnlineConfig, ServiceStats,
    ShardedAdmission, TimedEvent,
};
use spms_overhead::CostModelSpec;
use spms_task::{fnv1a, fnv1a_combine, Time, FNV_OFFSET};
use spms_telemetry::{Histogram, MetricClass, Registry};

use crate::progress::{NullProgress, ProgressSink, ShiftedProgress};
use crate::runner::{derive_seed, SweepRunner};

/// Per-trace outcome: the engine's merged registry (every decision
/// counter), what the registry does not count, and the wall-clock
/// measurements.
#[derive(Debug, Clone)]
struct SoakTrace {
    lease_renewals: u64,
    replay: ReplayOutcome,
    events_digest: u64,
    decisions_digest: u64,
    elapsed: Duration,
    latency: Histogram,
    metrics: Registry,
    captured: Option<Vec<TimedEvent>>,
}

/// Aggregated deterministic behaviour at one shard count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SoakPoint {
    /// Number of admission shards the core set was split into.
    pub shards: usize,
    /// Workload events processed across all traces of this point
    /// (including lease-synthesized departures).
    pub events_processed: u64,
    /// Arrival events decided.
    pub arrivals: u64,
    /// Arrivals admitted.
    pub admitted: u64,
    /// Arrivals rejected.
    pub rejected: u64,
    /// Departures of admitted tasks.
    pub departures: u64,
    /// Admissions that overflowed to a non-home shard.
    pub overflow_admissions: u64,
    /// Rebalance passes run.
    pub rebalance_ticks: u64,
    /// Tasks migrated between shards by rebalancing.
    pub rebalance_moves: u64,
    /// Departures synthesized by lease expiry.
    pub lease_expirations: u64,
    /// Lease renewals applied by the event loop (0 unless the trace
    /// carries `Renew` heartbeats — i.e. on every column but the leased
    /// scenario).
    pub lease_renewals: u64,
    /// Admissions placed by the cross-shard split planner (always 0 on the
    /// walled baseline points; non-zero only inside cross-shard reruns).
    pub cross_shard_admissions: u64,
    /// Nanoseconds of migration-cost WCET inflation charged across every
    /// admission and rebalance move (0 under the free cost model).
    pub inflation_charged_ns: u64,
    /// Simulator epochs replayed (sampled admissions).
    pub replayed_epochs: u64,
    /// Deadline misses across every replayed epoch (must stay 0).
    pub replay_misses: u64,
    /// Order-sensitive FNV-1a digest of the processed event stream —
    /// equal across shard counts when leases are off.
    pub events_digest: u64,
    /// Order-sensitive FNV-1a digest of the service decision log —
    /// deterministic per shard count for any thread count.
    pub decisions_digest: u64,
}

/// Wall-clock throughput and latency columns of one shard count: the
/// non-deterministic half of the output, grouped so CI diffs can strip
/// exactly this array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoakTiming {
    /// Number of admission shards.
    pub shards: usize,
    /// Service decisions per wall-clock second over all traces.
    pub decisions_per_sec: f64,
    /// Median decision latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile decision latency, microseconds.
    pub p99_us: f64,
    /// 99.9th-percentile decision latency, microseconds.
    pub p999_us: f64,
    /// Total wall-clock milliseconds deciding this point's traces.
    pub elapsed_ms: u64,
}

/// Walled-vs-cross-shard acceptance at one multi-shard point: the same
/// traces run twice, once with the planner off (the baseline `points`
/// entry) and once with it on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrossShardComparison {
    /// Number of admission shards.
    pub shards: usize,
    /// Arrivals admitted by the walled baseline run.
    pub admitted_walled: u64,
    /// Arrivals admitted with the cross-shard split planner enabled.
    pub admitted_cross: u64,
    /// `admitted_cross - admitted_walled`: the acceptance the planner
    /// recovered (signed — an early boundary split can in principle crowd
    /// out later arrivals).
    pub recovered: i64,
    /// Admissions that actually went through the cross-shard planner.
    pub cross_shard_admissions: u64,
    /// Deadline misses across the cross-shard run's sampled replays of the
    /// stitched global partition (must stay 0).
    pub replay_misses: u64,
}

/// Everything a soak run produces: the serializable [`SoakResults`]
/// artifact plus the live telemetry registries, which stay outside the
/// artifact so the JSON envelope is unchanged and metric exposition is an
/// explicit opt-in (`--metrics`).
#[derive(Debug, Clone)]
pub struct SoakRun {
    /// The serializable sweep artifact.
    pub results: SoakResults,
    /// Processed event log of the first grid cell, when capture was on.
    pub captured_trace: Option<Vec<TimedEvent>>,
    /// Merged registry per shard count, in configuration order. Its
    /// fault counters ([`FaultStats::from_registry`](spms_online::FaultStats::from_registry))
    /// stay out of [`SoakResults`], so the fault-free soak artifact stays
    /// byte-identical; the chaos harness serializes them in its own report.
    pub point_metrics: Vec<Registry>,
    /// All point registries merged into one run-wide registry.
    pub metrics: Registry,
}

/// Results of a soak sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SoakResults {
    points: Vec<SoakPoint>,
    /// Whether every shard count processed a byte-identical event stream
    /// (always true with leases off; leases make expirations depend on
    /// admission outcomes, which may differ between shard layouts).
    pub event_stream_shard_invariant: bool,
    /// Total deadline misses across every sampled replay of every point —
    /// including the cross-shard and leased scenario reruns (must stay 0).
    pub replay_misses: u64,
    /// Recovered-acceptance comparison per multi-shard point; empty unless
    /// the cross-shard scenario was enabled.
    pub cross_shard: Vec<CrossShardComparison>,
    /// Lease-scenario reruns of every point (lease armed, renewal
    /// heartbeats injected at half the lease); empty unless the leased
    /// scenario was enabled. Their per-shard-count event digests
    /// **legitimately diverge**: lease-synthesized departures depend on
    /// admission outcomes, which differ between shard layouts.
    pub leased_points: Vec<SoakPoint>,
    /// Wall-clock measurements per shard count (non-deterministic).
    pub timing: Vec<SoakTiming>,
}

impl SoakResults {
    /// Per-shard-count points, in configuration order.
    pub fn points(&self) -> &[SoakPoint] {
        &self.points
    }

    /// Renders markdown tables: deterministic counters, then the
    /// throughput/latency columns.
    pub fn render_markdown(&self) -> String {
        let mut out = String::from(
            "| shards | events | arrivals | admitted | rejected | overflow | rebalance moves | inflate µs | replay misses | events digest | decisions digest |\n\
             |---|---|---|---|---|---|---|---|---|---|---|\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {:#018x} | {:#018x} |\n",
                p.shards,
                p.events_processed,
                p.arrivals,
                p.admitted,
                p.rejected,
                p.overflow_admissions,
                p.rebalance_moves,
                p.inflation_charged_ns / 1_000,
                p.replay_misses,
                p.events_digest,
                p.decisions_digest,
            ));
        }
        out.push_str(&format!(
            "\nevent stream shard-invariant: {}\nreplay misses: {}\n",
            self.event_stream_shard_invariant, self.replay_misses,
        ));
        if !self.cross_shard.is_empty() {
            out.push_str(
                "\n| shards | admitted (walled) | admitted (cross-shard) | recovered | cross-shard admissions | replay misses |\n\
                 |---|---|---|---|---|---|\n",
            );
            for c in &self.cross_shard {
                out.push_str(&format!(
                    "| {} | {} | {} | {:+} | {} | {} |\n",
                    c.shards,
                    c.admitted_walled,
                    c.admitted_cross,
                    c.recovered,
                    c.cross_shard_admissions,
                    c.replay_misses,
                ));
            }
        }
        if !self.leased_points.is_empty() {
            out.push_str(
                "\n| shards (leased) | events | admitted | renewals | expirations | events digest |\n\
                 |---|---|---|---|---|---|\n",
            );
            for p in &self.leased_points {
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {:#018x} |\n",
                    p.shards,
                    p.events_processed,
                    p.admitted,
                    p.lease_renewals,
                    p.lease_expirations,
                    p.events_digest,
                ));
            }
            out.push_str(
                "\nleased event digests legitimately diverge across shard counts: \
                 lease expirations depend on admission outcomes.\n",
            );
        }
        out.push_str(
            "\n| shards | decisions/sec | p50 µs | p99 µs | p999 µs | elapsed ms |\n\
             |---|---|---|---|---|---|\n",
        );
        for t in &self.timing {
            out.push_str(&format!(
                "| {} | {:.0} | {:.2} | {:.2} | {:.2} | {} |\n",
                t.shards, t.decisions_per_sec, t.p50_us, t.p99_us, t.p999_us, t.elapsed_ms,
            ));
        }
        out
    }

    /// Renders the deterministic per-point data as CSV.
    pub fn render_csv(&self) -> String {
        let mut out = String::from(
            "shards,events_processed,arrivals,admitted,rejected,overflow_admissions,rebalance_moves,inflation_charged_ns,replay_misses,events_digest,decisions_digest\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{:#018x},{:#018x}\n",
                p.shards,
                p.events_processed,
                p.arrivals,
                p.admitted,
                p.rejected,
                p.overflow_admissions,
                p.rebalance_moves,
                p.inflation_charged_ns,
                p.replay_misses,
                p.events_digest,
                p.decisions_digest,
            ));
        }
        out
    }
}

/// The soak driver. See the module docs of `soak.rs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoakExperiment {
    cores: usize,
    shard_counts: Vec<usize>,
    events_per_trace: usize,
    traces_per_point: usize,
    target_utilization: f64,
    max_repair_moves: usize,
    cost_model: CostModelSpec,
    rebalance_period: Option<Time>,
    rebalance_max_moves: usize,
    lease: Option<Time>,
    replay_sample_every: usize,
    capture_trace: bool,
    churn_family: ChurnFamily,
    cross_shard: bool,
    leased_scenario: Option<Time>,
    faults: Option<FaultPlan>,
    audit_period: Option<Time>,
    seed: u64,
    threads: usize,
}

impl Default for SoakExperiment {
    fn default() -> Self {
        SoakExperiment {
            cores: 8,
            shard_counts: vec![1, 2],
            events_per_trace: 10_000,
            traces_per_point: 1,
            target_utilization: 0.6,
            max_repair_moves: 2,
            cost_model: CostModelSpec::Zero,
            rebalance_period: Some(Time::from_millis(250)),
            rebalance_max_moves: 4,
            lease: None,
            replay_sample_every: 0,
            capture_trace: false,
            churn_family: ChurnFamily::Poisson,
            cross_shard: false,
            leased_scenario: None,
            faults: None,
            audit_period: None,
            seed: 0,
            threads: 1,
        }
    }
}

impl SoakExperiment {
    /// A driver with the default grid: 8 cores split into 1 and 2 shards,
    /// one 10 000-event trace per point, rebalance every 250 ms, replay
    /// sampling off.
    pub fn new() -> Self {
        SoakExperiment::default()
    }

    /// Sets the number of cores.
    pub fn cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Sets the shard-count axis.
    pub fn shard_counts(mut self, counts: Vec<usize>) -> Self {
        self.shard_counts = counts;
        self
    }

    /// Sets how many events each churn trace contains.
    pub fn events_per_trace(mut self, events: usize) -> Self {
        self.events_per_trace = events;
        self
    }

    /// Sets how many traces are generated per shard count.
    pub fn traces_per_point(mut self, traces: usize) -> Self {
        self.traces_per_point = traces;
        self
    }

    /// Sets the target normalized utilization of the churn process.
    pub fn target_utilization(mut self, target: f64) -> Self {
        self.target_utilization = target;
        self
    }

    /// Sets the repair bound `k` of every shard.
    pub fn max_repair_moves(mut self, k: usize) -> Self {
        self.max_repair_moves = k;
        self
    }

    /// Sets the migration cost model every shard charges on splits, repair
    /// relocations and rebalance moves.
    pub fn cost_model(mut self, model: CostModelSpec) -> Self {
        self.cost_model = model;
        self
    }

    /// Sets the rebalance tick period (`None` disables rebalancing).
    pub fn rebalance_period(mut self, period: Option<Time>) -> Self {
        self.rebalance_period = period;
        self
    }

    /// Sets the migration budget of each rebalance tick.
    pub fn rebalance_max_moves(mut self, moves: usize) -> Self {
        self.rebalance_max_moves = moves;
        self
    }

    /// Sets the admission lease (`None` disables deadline expirations).
    /// Leases make the processed event stream depend on admission
    /// outcomes, so `event_stream_shard_invariant` may drop to `false`.
    pub fn lease(mut self, lease: Option<Time>) -> Self {
        self.lease = lease;
        self
    }

    /// Replays every Nth admission's shard partition through the
    /// simulator (0 disables sampling).
    pub fn replay_sample_every(mut self, every: usize) -> Self {
        self.replay_sample_every = every;
        self
    }

    /// Keeps the processed event log of the first grid cell for writing a
    /// replayable trace.
    pub fn capture_trace(mut self, capture: bool) -> Self {
        self.capture_trace = capture;
        self
    }

    /// Selects the churn-process family driving every trace (Poisson by
    /// default; `Bursty` modulates arrivals through a two-state Markov
    /// chain at the same long-run rate).
    pub fn churn_family(mut self, family: ChurnFamily) -> Self {
        self.churn_family = family;
        self
    }

    /// Enables the cross-shard scenario: every multi-shard point is rerun
    /// on the same traces with the cross-shard split planner enabled, and
    /// the recovered acceptance lands in [`SoakResults::cross_shard`].
    pub fn cross_shard(mut self, enabled: bool) -> Self {
        self.cross_shard = enabled;
        self
    }

    /// Enables the leased scenario: every point is rerun with this
    /// admission lease armed and renewal heartbeats injected into the
    /// trace at half the lease, landing in [`SoakResults::leased_points`].
    /// Unlike [`lease`](Self::lease) this never touches the baseline
    /// points, so `event_stream_shard_invariant` keeps its meaning.
    pub fn leased_scenario(mut self, lease: Option<Time>) -> Self {
        self.leased_scenario = lease;
        self
    }

    /// Loads a fault plan into every grid cell: the same seeded faults
    /// (crashes, stalls, corruptions, cost spikes) fire at the same
    /// scenario times in every cell, exercising shard failover and
    /// recovery replay. `None` (the default) injects nothing and leaves
    /// every deterministic output byte-identical to a fault-free build.
    pub fn faults(mut self, plan: Option<FaultPlan>) -> Self {
        self.faults = plan;
        self
    }

    /// Arms the periodic self-audit: every `period` of scenario time one
    /// cached core's memoized RTA is re-verified against a scratch
    /// recomputation (and rebuilt on mismatch).
    pub fn audit_period(mut self, period: Option<Time>) -> Self {
        self.audit_period = period;
        self
    }

    /// Sets the RNG root seed for trace generation and tie-shuffling.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of worker threads (`0` = one per available core).
    /// The deterministic half of the results is identical for every
    /// thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Last timestamp (ms) of the first grid cell's churn trace — the
    /// scenario horizon spec-generated fault plans are drawn against,
    /// clamped to at least one second. Mirrors the cell's generator
    /// configuration exactly (same derived seed, same knobs), so
    /// spec-drawn faults land inside the busy part of the run.
    pub fn measured_horizon_ms(&self) -> u64 {
        let trace = ChurnGenerator::new()
            .cores(self.cores)
            .target_normalized_utilization(self.target_utilization)
            .events(self.events_per_trace)
            .family(self.churn_family)
            .seed(derive_seed(self.seed, 0, 0))
            .generate_timed()
            .unwrap_or_default();
        trace
            .last()
            .map(|timed| timed.at.as_nanos() / 1_000_000)
            .unwrap_or(0)
            .max(1_000)
    }

    /// Expands a [`FaultSpec`] into a concrete plan against the measured
    /// horizon, drawing shard indices up to the largest shard count in
    /// the sweep (cells with fewer shards ignore out-of-range targets).
    pub fn plan_faults(&self, spec: &FaultSpec) -> FaultPlan {
        let shards = self.shard_counts.iter().copied().max().unwrap_or(1);
        let cores_per_shard = (self.cores / shards.max(1)).max(1);
        spec.plan(self.measured_horizon_ms(), shards, cores_per_shard)
    }

    /// Runs the soak sweep.
    pub fn run(&self) -> SoakResults {
        self.run_with_progress(&NullProgress)
    }

    /// [`run`](Self::run) with per-cell completion reported to `progress`.
    pub fn run_with_progress(&self, progress: &dyn ProgressSink) -> SoakResults {
        self.run_captured_with_progress(progress).0
    }

    /// [`run_with_progress`](Self::run_with_progress) that additionally
    /// returns the processed event log of the first grid cell when
    /// [`capture_trace`](Self::capture_trace) was requested — kept outside
    /// [`SoakResults`] so the serialized artifact stays compact while the
    /// caller can write the log as a replayable JSON-lines trace.
    pub fn run_captured_with_progress(
        &self,
        progress: &dyn ProgressSink,
    ) -> (SoakResults, Option<Vec<TimedEvent>>) {
        let run = self.run_full_with_progress(progress);
        (run.results, run.captured_trace)
    }

    /// The full soak run: results, the optionally captured trace, and the
    /// merged metric registries ([`spms_online::metrics`]-style telemetry the
    /// CLI's `--metrics` flag writes). Registries merge per-cell engines
    /// in grid order, so the deterministic section is identical for every
    /// `--threads` value.
    pub fn run_full_with_progress(&self, progress: &dyn ProgressSink) -> SoakRun {
        let cross_counts: Vec<usize> = if self.cross_shard {
            self.shard_counts
                .iter()
                .copied()
                .filter(|&s| s > 1)
                .collect()
        } else {
            Vec::new()
        };
        let leased_counts: Vec<usize> = if self.leased_scenario.is_some() {
            self.shard_counts.clone()
        } else {
            Vec::new()
        };
        let base_cells = self.shard_counts.len() * self.traces_per_point;
        let cross_cells = cross_counts.len() * self.traces_per_point;
        let grand_total = base_cells + cross_cells + leased_counts.len() * self.traces_per_point;
        let runner = SweepRunner::new().threads(self.threads);

        let base_progress = ShiftedProgress::new(progress, 0, grand_total);
        let grid = runner.run_grid_with_progress(
            self.seed,
            self.shard_counts.len(),
            self.traces_per_point,
            &base_progress,
            |cell| {
                let shards = self.shard_counts[cell.point_idx];
                // Trace seeds depend on the set index only: every shard
                // count (and every scenario rerun below) consumes the same
                // traces, so their digests and admissions are comparable.
                let trace_seed = derive_seed(self.seed, 0, cell.set_idx);
                let capture = self.capture_trace && cell.point_idx == 0 && cell.set_idx == 0;
                self.soak_cell(trace_seed, shards, false, self.lease, None, capture)
            },
        );

        let mut points = Vec::with_capacity(self.shard_counts.len());
        let mut timing = Vec::with_capacity(self.shard_counts.len());
        let mut point_metrics = Vec::with_capacity(self.shard_counts.len());
        let mut captured_trace = None;
        let mut total_misses = 0u64;
        for (&shards, traces) in self.shard_counts.iter().zip(&grid) {
            let (point, elapsed, latency, mut registry) = Self::fold_point(shards, traces);
            for outcome in traces {
                if let Some(log) = &outcome.captured {
                    captured_trace.get_or_insert_with(|| log.clone());
                }
            }
            total_misses += point.replay_misses;
            let us = |q: f64| latency.value_at_quantile(q) as f64 / 1000.0;
            let decisions_per_sec = if elapsed.as_secs_f64() > 0.0 {
                point.events_processed as f64 / elapsed.as_secs_f64()
            } else {
                0.0
            };
            let rate_gauge = registry.gauge("spms_timing_decisions_per_sec", MetricClass::Timing);
            registry.set_gauge(rate_gauge, decisions_per_sec as u64);
            timing.push(SoakTiming {
                shards,
                decisions_per_sec,
                p50_us: us(0.50),
                p99_us: us(0.99),
                p999_us: us(0.999),
                elapsed_ms: elapsed.as_millis() as u64,
            });
            points.push(point);
            point_metrics.push(registry);
        }
        let invariant = points
            .windows(2)
            .all(|w| w[0].events_digest == w[1].events_digest);

        // Cross-shard scenario: rerun every multi-shard point on the very
        // same traces with the planner enabled and compare acceptance
        // against the walled baseline above.
        let mut cross_comparisons = Vec::with_capacity(cross_counts.len());
        if !cross_counts.is_empty() {
            let cross_progress = ShiftedProgress::new(progress, base_cells, grand_total);
            let cross_grid = runner.run_grid_with_progress(
                self.seed,
                cross_counts.len(),
                self.traces_per_point,
                &cross_progress,
                |cell| {
                    let shards = cross_counts[cell.point_idx];
                    let trace_seed = derive_seed(self.seed, 0, cell.set_idx);
                    self.soak_cell(trace_seed, shards, true, self.lease, None, false)
                },
            );
            for (&shards, traces) in cross_counts.iter().zip(&cross_grid) {
                let (cross_point, ..) = Self::fold_point(shards, traces);
                let walled = points
                    .iter()
                    .find(|p| p.shards == shards)
                    .map_or(0, |p| p.admitted);
                total_misses += cross_point.replay_misses;
                cross_comparisons.push(CrossShardComparison {
                    shards,
                    admitted_walled: walled,
                    admitted_cross: cross_point.admitted,
                    recovered: cross_point.admitted as i64 - walled as i64,
                    cross_shard_admissions: cross_point.cross_shard_admissions,
                    replay_misses: cross_point.replay_misses,
                });
            }
        }

        // Leased scenario: the same traces with renewal heartbeats
        // injected at half the lease, run with the lease armed.
        let mut leased_points = Vec::with_capacity(leased_counts.len());
        if let Some(lease) = self.leased_scenario {
            let renew_every = Time::from_nanos((lease.as_nanos() / 2).max(1));
            let leased_progress =
                ShiftedProgress::new(progress, base_cells + cross_cells, grand_total);
            let leased_grid = runner.run_grid_with_progress(
                self.seed,
                leased_counts.len(),
                self.traces_per_point,
                &leased_progress,
                |cell| {
                    let shards = leased_counts[cell.point_idx];
                    let trace_seed = derive_seed(self.seed, 0, cell.set_idx);
                    self.soak_cell(
                        trace_seed,
                        shards,
                        false,
                        Some(lease),
                        Some(renew_every),
                        false,
                    )
                },
            );
            for (&shards, traces) in leased_counts.iter().zip(&leased_grid) {
                let (point, ..) = Self::fold_point(shards, traces);
                total_misses += point.replay_misses;
                leased_points.push(point);
            }
        }

        let mut metrics = Registry::new();
        for registry in &point_metrics {
            metrics.merge(registry);
        }
        SoakRun {
            results: SoakResults {
                points,
                event_stream_shard_invariant: invariant,
                replay_misses: total_misses,
                cross_shard: cross_comparisons,
                leased_points,
                timing,
            },
            captured_trace,
            point_metrics,
            metrics,
        }
    }

    /// Generates and runs one grid cell: one churn trace against one
    /// engine configuration. `cross_shard` throws the split-planner flag
    /// (and switches sampled replays to the stitched global partition,
    /// since a cross-shard chain is only complete fleet-wide);
    /// `lease`/`renew_every` configure the lease scenario; `capture` keeps
    /// the processed event log.
    fn soak_cell(
        &self,
        trace_seed: u64,
        shards: usize,
        cross_shard: bool,
        lease: Option<Time>,
        renew_every: Option<Time>,
        capture: bool,
    ) -> Option<SoakTrace> {
        let mut trace = ChurnGenerator::new()
            .cores(self.cores)
            .target_normalized_utilization(self.target_utilization)
            .events(self.events_per_trace)
            .family(self.churn_family)
            .seed(trace_seed)
            .generate_timed()
            .ok()?;
        if let Some(every) = renew_every {
            trace = inject_renewals(&trace, every);
        }
        let config = OnlineConfig::builder()
            .cores(self.cores)
            .max_repair_moves(self.max_repair_moves)
            .cost_model(self.cost_model.clone())
            .cross_shard_split(cross_shard)
            .build();
        let mut engine = ShardedAdmission::new(config, shards).ok()?;
        let mut event_loop = EventLoop::new(
            EventLoopConfig::new(trace_seed)
                .with_lease(lease)
                .with_rebalance_period(self.rebalance_period)
                .with_rebalance_max_moves(self.rebalance_max_moves)
                .with_audit_period(self.audit_period),
        );
        event_loop.load_trace(&trace);
        if let Some(plan) = &self.faults {
            event_loop.load_faults(plan);
        }

        let sample_every = self.replay_sample_every;
        let mut replay = ReplayOutcome::default();
        let mut admissions = 0usize;
        let started = Instant::now();
        event_loop.run_with(&mut engine, |engine, decision: &Decision| {
            if sample_every == 0 || !decision.is_admission() {
                return;
            }
            admissions += 1;
            if !admissions.is_multiple_of(sample_every) {
                return;
            }
            let horizon = Time::from_millis(50);
            if cross_shard {
                let parts: Vec<&Partition> =
                    engine.shards().iter().map(|s| s.partition()).collect();
                let stitched = stitch_partitions(&parts);
                replay.absorb(replay_epoch(&stitched, &ReplayConfig::new(horizon)));
            } else {
                let shard = engine
                    .resident_shard(decision.task)
                    .expect("an admitted task is resident");
                let partition = engine.shards()[shard].partition();
                replay.absorb(replay_epoch(partition, &ReplayConfig::new(horizon)));
            }
        });
        let elapsed = started.elapsed();

        let captured = capture.then(|| event_loop.take_event_log());
        let events_digest = fnv1a(
            serde_json::to_string(captured.as_deref().unwrap_or(event_loop.event_log()))
                .expect("event logs always serialize")
                .as_bytes(),
        );
        let decisions_digest = fnv1a(
            serde_json::to_string(&engine.decisions().to_vec())
                .expect("decision logs always serialize")
                .as_bytes(),
        );
        Some(SoakTrace {
            lease_renewals: event_loop.lease_renewals(),
            replay,
            events_digest,
            decisions_digest,
            elapsed,
            latency: engine.decision_latency_histogram().clone(),
            metrics: engine.merged_metrics_registry(),
            captured,
        })
    }

    /// Folds one point's per-trace outcomes into the deterministic
    /// [`SoakPoint`] plus the merged wall-clock and telemetry state. The
    /// point's counters are read from the merged registry.
    fn fold_point(
        shards: usize,
        traces: &[SoakTrace],
    ) -> (SoakPoint, Duration, Histogram, Registry) {
        let mut elapsed = Duration::ZERO;
        let mut latency = Histogram::new();
        let mut registry = Registry::new();
        let mut lease_renewals = 0;
        let mut replay = ReplayOutcome::default();
        let mut events_digest = FNV_OFFSET;
        let mut decisions_digest = FNV_OFFSET;
        for outcome in traces {
            lease_renewals += outcome.lease_renewals;
            replay.absorb(outcome.replay);
            events_digest = fnv1a_combine(events_digest, outcome.events_digest);
            decisions_digest = fnv1a_combine(decisions_digest, outcome.decisions_digest);
            elapsed += outcome.elapsed;
            latency.merge(&outcome.latency);
            registry.merge(&outcome.metrics);
        }
        let stats = ServiceStats::from_registry(&registry);
        let point = SoakPoint {
            shards,
            events_processed: registry
                .counter_by_name(spms_online::metrics::EVENTS)
                .unwrap_or(0),
            arrivals: stats.decisions.arrivals,
            admitted: stats.decisions.admitted,
            rejected: stats.decisions.rejected,
            departures: stats.decisions.departures,
            overflow_admissions: stats.overflow_admissions,
            rebalance_ticks: stats.rebalance_ticks,
            rebalance_moves: stats.rebalance_moves,
            lease_expirations: stats.lease_expirations,
            lease_renewals,
            cross_shard_admissions: stats.cross_shard_admissions,
            inflation_charged_ns: stats.decisions.inflation_charged_ns
                + stats.rebalance_inflation_ns,
            replayed_epochs: replay.epochs,
            replay_misses: replay.deadline_misses,
            events_digest,
            decisions_digest,
        };
        (point, elapsed, latency, registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SoakExperiment {
        SoakExperiment::new()
            .cores(4)
            .shard_counts(vec![1, 2])
            .events_per_trace(200)
            .traces_per_point(2)
            .target_utilization(0.6)
            .replay_sample_every(25)
            .seed(3)
    }

    #[test]
    fn soak_is_deterministic_and_shard_invariant_in_events() {
        let a = quick().run();
        let b = quick().run();
        assert_eq!(a.points(), b.points());
        assert!(a.event_stream_shard_invariant);
        assert_eq!(
            a.replay_misses, 0,
            "sampled replays must not miss deadlines"
        );
        assert!(
            a.points()[0].replayed_epochs > 0,
            "sampling must replay epochs"
        );
        assert_eq!(a.points().len(), 2);
        for p in a.points() {
            assert_eq!(p.events_processed, 400, "2 traces x 200 events");
            assert!(p.admitted > 0);
        }
    }

    #[test]
    fn deterministic_half_is_thread_count_invariant() {
        let serial = quick().run();
        let parallel = quick().threads(4).run();
        assert_eq!(serial.points(), parallel.points());
        assert_eq!(
            serial.event_stream_shard_invariant,
            parallel.event_stream_shard_invariant
        );
    }

    #[test]
    fn digests_are_seed_sensitive_and_decisions_differ_across_shards() {
        let a = quick().run();
        let other = quick().seed(99).run();
        assert_ne!(a.points()[0].events_digest, other.points()[0].events_digest);
        // 1-shard and 2-shard decision logs may differ (capacity is
        // genuinely constrained by sharding) but both stay deterministic.
        assert_eq!(a.points()[1], quick().run().points()[1].clone());
    }

    #[test]
    fn captured_trace_matches_the_first_points_stream() {
        let (results, captured) = quick()
            .capture_trace(true)
            .run_captured_with_progress(&NullProgress);
        let trace = captured.expect("capture requested");
        assert_eq!(trace.len(), 200);
        assert!(trace.windows(2).all(|w| w[0].at <= w[1].at));
        // The trace never leaks into the serialized artifact.
        let json = serde_json::to_string(&results).expect("results serialize");
        assert!(!json.contains("captured_trace"));
        assert!(!json.contains("\"event\""));
    }

    #[test]
    fn charged_soaks_report_deterministic_inflation() {
        use spms_overhead::CrpdCostModel;
        let charged = || {
            quick()
                .target_utilization(0.8)
                .cost_model(CostModelSpec::Crpd(CrpdCostModel::heavy()))
        };
        let a = charged().run();
        assert_eq!(a.points(), charged().threads(4).run().points());
        assert_eq!(a.replay_misses, 0);
        for p in quick().run().points() {
            assert_eq!(p.inflation_charged_ns, 0, "free model must charge nothing");
        }
        assert!(
            a.points().iter().any(|p| p.inflation_charged_ns > 0),
            "a high-load charged soak should split or rebalance at least once"
        );
    }

    #[test]
    fn cross_shard_soak_recovers_walled_rejections() {
        let config = || {
            quick()
                .target_utilization(0.85)
                .traces_per_point(3)
                .cross_shard(true)
        };
        let run = config().run();
        // Baseline points stay walled — the scenario never touches them.
        for p in run.points() {
            assert_eq!(p.cross_shard_admissions, 0);
        }
        assert_eq!(run.cross_shard.len(), 1, "one multi-shard point");
        let c = &run.cross_shard[0];
        assert_eq!(c.shards, 2);
        assert!(
            c.cross_shard_admissions > 0,
            "a high-load 2-shard soak must exercise the planner"
        );
        assert!(
            c.admitted_cross > c.admitted_walled,
            "cross-shard splitting must recover acceptance: {} vs {}",
            c.admitted_cross,
            c.admitted_walled
        );
        assert_eq!(
            c.recovered,
            c.admitted_cross as i64 - c.admitted_walled as i64
        );
        assert_eq!(c.replay_misses, 0, "stitched replays must not miss");
        assert_eq!(run.replay_misses, 0);
        // The whole scenario is deterministic and thread-invariant.
        let again = config().threads(4).run();
        assert_eq!(run.cross_shard, again.cross_shard);
        assert_eq!(run.points(), again.points());
        let md = run.render_markdown();
        assert!(md.contains("admitted (cross-shard)"));
    }

    #[test]
    fn bursty_traffic_keeps_the_soak_deterministic() {
        let bursty = || {
            quick()
                .target_utilization(0.85)
                .churn_family(ChurnFamily::Bursty)
                .cross_shard(true)
        };
        let a = bursty().run();
        let b = bursty().threads(4).run();
        assert_eq!(a.points(), b.points());
        assert_eq!(a.cross_shard, b.cross_shard);
        assert_eq!(a.replay_misses, 0);
        // The bursty family really reshapes the trace.
        assert_ne!(
            a.points()[0].events_digest,
            quick().target_utilization(0.85).run().points()[0].events_digest,
            "bursty and Poisson soaks must not share a trace"
        );
    }

    #[test]
    fn leased_scenario_reports_renewals_and_leaves_the_baseline_invariant() {
        let run = quick().leased_scenario(Some(Time::from_millis(20))).run();
        assert_eq!(run.leased_points.len(), 2);
        for p in &run.leased_points {
            assert!(p.lease_renewals > 0, "heartbeats must be injected");
        }
        // The baseline points never see the lease…
        assert!(run.event_stream_shard_invariant);
        for p in run.points() {
            assert_eq!(p.lease_renewals, 0);
            assert_eq!(p.lease_expirations, 0);
        }
        // …and the leased column documents its divergence.
        let md = run.render_markdown();
        assert!(md.contains("shards (leased)"));
        assert!(md.contains("legitimately diverge"));
        let b = quick().leased_scenario(Some(Time::from_millis(20))).run();
        assert_eq!(run.leased_points, b.leased_points);
    }

    #[test]
    fn scenario_columns_are_absent_by_default() {
        let run = quick().run();
        assert!(run.cross_shard.is_empty());
        assert!(run.leased_points.is_empty());
        let json = serde_json::to_string(&run).expect("results serialize");
        assert!(json.contains("\"cross_shard\":[]"));
        let md = run.render_markdown();
        assert!(!md.contains("admitted (cross-shard)"));
        assert!(!md.contains("shards (leased)"));
    }

    #[test]
    fn rendering_has_throughput_and_latency_columns() {
        let results = quick().run();
        let md = results.render_markdown();
        assert!(md.contains("decisions/sec"));
        assert!(md.contains("p50 µs"));
        assert!(md.contains("p999 µs"));
        assert!(md.contains("event stream shard-invariant: true"));
        assert!(md.contains("replay misses: 0"));
        let csv = results.render_csv();
        assert!(csv.starts_with("shards,"));
        assert!(csv.contains("inflation_charged_ns"));
        assert!(md.contains("inflate µs"));
        assert_eq!(csv.lines().count(), 1 + results.points().len());
    }
}
