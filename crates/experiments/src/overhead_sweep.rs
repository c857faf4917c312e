//! The overhead-cost experiment: what admission capacity costs when
//! migrations are charged at their real CRPD price.
//!
//! For every `(cost model, target utilization)` pair this driver generates
//! timed churn traces and runs each through the [`EventLoop`] into a
//! one-shard [`ShardedAdmission`] service charging the scenario's
//! [`CostModelSpec`]: every split piece and repair relocation
//! inflates the affected task's analysis WCET by the model's per-job
//! migration charge before the schedulability test must still pass. The
//! trace seeds depend only on the utilization point — **every scenario
//! decides the same traces**, so the acceptance columns are directly
//! comparable and the working-set crossover (a heavy model losing
//! admissions a light one keeps as load grows) is visible in one table.
//!
//! The sweep runs on the shared [`SweepRunner`] grid, so results are
//! bit-identical for every `--threads` value under a fixed seed; this is
//! the `BENCH_overhead.json` CI artifact.

use serde::{Deserialize, Serialize};
use spms_online::{
    ChurnGenerator, ControllerStats, EventLoop, EventLoopConfig, OnlineConfig, ReplayConfig,
    ReplayOutcome, ShardedAdmission,
};
use spms_overhead::{CostModelSpec, CrpdCostModel};
use spms_task::Time;
use spms_telemetry::Registry;

use crate::progress::{NullProgress, ProgressSink};
use crate::runner::{derive_seed, SweepRunner};
use crate::{ratio, same_point};

/// One cost-model scenario of the sweep: a label for the report plus the
/// model the controller charges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverheadScenario {
    /// Scenario name in the rendered tables (e.g. `zero`, `crpd-heavy`).
    pub label: String,
    /// The migration cost model charged under this scenario.
    pub model: CostModelSpec,
}

impl OverheadScenario {
    /// A named scenario.
    pub fn new(label: impl Into<String>, model: CostModelSpec) -> Self {
        OverheadScenario {
            label: label.into(),
            model,
        }
    }
}

/// Aggregated controller behaviour at one `(scenario, utilization)` point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverheadPoint {
    /// The cost-model scenario this row was decided under.
    pub scenario: String,
    /// Target normalized utilization of the churn process.
    pub normalized_utilization: f64,
    /// Arrival events across all traces of this point.
    pub arrivals: u64,
    /// Arrivals admitted.
    pub admitted: u64,
    /// Fraction of arrivals admitted.
    pub acceptance_ratio: f64,
    /// Fraction of admissions that split the arrival across cores.
    pub split_ratio: f64,
    /// Microseconds of migration-cost WCET inflation charged per
    /// admission, on average.
    pub inflation_us_per_admission: f64,
    /// Epochs replayed through the simulator (0 when replay is disabled).
    pub replayed_epochs: u64,
    /// Deadline misses across all replayed epochs (must stay 0).
    pub replay_misses: u64,
}

/// Everything an overhead sweep produces: the serializable
/// [`OverheadResults`] artifact plus the run-wide telemetry registry
/// (per-cell service registries merged in grid order, so the
/// deterministic section is identical for every `--threads` value).
#[derive(Debug, Clone)]
pub struct OverheadRun {
    /// The serializable sweep artifact.
    pub results: OverheadResults,
    /// Every grid cell's service registry, merged in grid order.
    pub metrics: Registry,
}

/// Results of an overhead-cost sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct OverheadResults {
    points: Vec<OverheadPoint>,
}

impl OverheadResults {
    /// All points, grouped by scenario in configuration order, each in
    /// increasing target-utilization order.
    pub fn points(&self) -> &[OverheadPoint] {
        &self.points
    }

    /// The point of `scenario` at `normalized_utilization` within the
    /// shared sweep tolerance.
    pub fn point_at(&self, scenario: &str, normalized_utilization: f64) -> Option<&OverheadPoint> {
        self.points.iter().find(|p| {
            p.scenario == scenario && same_point(p.normalized_utilization, normalized_utilization)
        })
    }

    /// Total deadline misses across every replayed epoch of the sweep.
    pub fn total_replay_misses(&self) -> u64 {
        self.points.iter().map(|p| p.replay_misses).sum()
    }

    /// Renders a markdown table, one row per `(scenario, utilization)`.
    pub fn render_markdown(&self) -> String {
        let mut out = String::from(
            "| model | U / m | accepted | splits | inflate µs/admit | replay misses |\n\
             |---|---|---|---|---|---|\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "| {} | {:.2} | {:.2} | {:.2} | {:.1} | {} |\n",
                p.scenario,
                p.normalized_utilization,
                p.acceptance_ratio,
                p.split_ratio,
                p.inflation_us_per_admission,
                p.replay_misses,
            ));
        }
        out
    }

    /// Renders a CSV with a header row, suitable for plotting.
    pub fn render_csv(&self) -> String {
        let mut out = String::from(
            "scenario,normalized_utilization,arrivals,admitted,acceptance_ratio,split_ratio,\
             inflation_us_per_admission,replayed_epochs,replay_misses\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "{},{:.4},{},{},{:.4},{:.4},{:.4},{},{}\n",
                p.scenario,
                p.normalized_utilization,
                p.arrivals,
                p.admitted,
                p.acceptance_ratio,
                p.split_ratio,
                p.inflation_us_per_admission,
                p.replayed_epochs,
                p.replay_misses,
            ));
        }
        out
    }
}

/// The overhead-cost experiment driver. See the module docs of
/// `overhead_sweep.rs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverheadExperiment {
    cores: usize,
    events_per_trace: usize,
    traces_per_point: usize,
    utilization_points: Vec<f64>,
    max_repair_moves: usize,
    scenarios: Vec<OverheadScenario>,
    replay_duration: Option<Time>,
    seed: u64,
    threads: usize,
}

impl Default for OverheadExperiment {
    fn default() -> Self {
        OverheadExperiment {
            cores: 4,
            events_per_trace: 120,
            traces_per_point: 12,
            utilization_points: vec![0.6, 0.75, 0.9],
            max_repair_moves: 2,
            scenarios: OverheadExperiment::default_scenarios(),
            replay_duration: Some(Time::from_millis(50)),
            seed: 0,
            threads: 1,
        }
    }
}

impl OverheadExperiment {
    /// A driver with the default grid: 4 cores, 120 events per trace, 12
    /// traces per point, targets 0.6 / 0.75 / 0.9, scenarios `zero`,
    /// `crpd-light` and `crpd-heavy`.
    pub fn new() -> Self {
        OverheadExperiment::default()
    }

    /// The canonical scenario set: the free baseline, a cache-friendly
    /// 8 KiB working set, and a cache-hostile 2 MiB one.
    pub fn default_scenarios() -> Vec<OverheadScenario> {
        vec![
            OverheadScenario::new("zero", CostModelSpec::Zero),
            OverheadScenario::new("crpd-light", CostModelSpec::Crpd(CrpdCostModel::light())),
            OverheadScenario::new("crpd-heavy", CostModelSpec::Crpd(CrpdCostModel::heavy())),
        ]
    }

    /// Sets the number of cores.
    pub fn cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Sets how many events each churn trace contains.
    pub fn events_per_trace(mut self, events: usize) -> Self {
        self.events_per_trace = events;
        self
    }

    /// Sets how many traces are generated per `(scenario, utilization)`
    /// point.
    pub fn traces_per_point(mut self, traces: usize) -> Self {
        self.traces_per_point = traces;
        self
    }

    /// Sets the target normalized-utilization sweep points.
    pub fn utilization_points(mut self, points: Vec<f64>) -> Self {
        self.utilization_points = points;
        self
    }

    /// Sets the repair bound `k` of the controller.
    pub fn max_repair_moves(mut self, k: usize) -> Self {
        self.max_repair_moves = k;
        self
    }

    /// Sets the cost-model scenarios compared by the sweep.
    pub fn scenarios(mut self, scenarios: Vec<OverheadScenario>) -> Self {
        self.scenarios = scenarios;
        self
    }

    /// Sets the per-epoch replay duration; `None` disables replay.
    pub fn replay_duration(mut self, duration: Option<Time>) -> Self {
        self.replay_duration = duration;
        self
    }

    /// Sets the RNG seed for trace generation.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of worker threads (`0` = one per available core).
    /// Results are identical for every thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Runs the sweep.
    pub fn run(&self) -> OverheadResults {
        self.run_with_progress(&NullProgress)
    }

    /// [`run`](Self::run) with per-cell completion reported to `progress`.
    pub fn run_with_progress(&self, progress: &dyn ProgressSink) -> OverheadResults {
        self.run_full_with_progress(progress).results
    }

    /// The full sweep: results plus the merged telemetry registry the
    /// CLI's `--metrics` flag writes.
    pub fn run_full_with_progress(&self, progress: &dyn ProgressSink) -> OverheadRun {
        let utils = self.utilization_points.len();
        let grid = SweepRunner::new()
            .threads(self.threads)
            .run_grid_with_progress(
                self.seed,
                self.scenarios.len() * utils,
                self.traces_per_point,
                progress,
                |cell| {
                    let scenario = &self.scenarios[cell.point_idx / utils];
                    let util_idx = cell.point_idx % utils;
                    let target = self.utilization_points[util_idx];
                    // Trace seeds depend on the utilization point and set
                    // index only — never on the scenario — so every cost
                    // model decides identical traces and the acceptance
                    // columns are directly comparable.
                    let trace_seed = derive_seed(self.seed, util_idx, cell.set_idx);
                    // A small task population (long inter-arrivals, short
                    // lifetimes) concentrates the offered load in few heavy
                    // tasks, so the traces actually exercise splitting and
                    // repair — the paths a migration charge prices.
                    let trace = ChurnGenerator::new()
                        .cores(self.cores)
                        .target_normalized_utilization(target)
                        .mean_interarrival(Time::from_millis(150))
                        .lifetime_range(Time::from_millis(150), Time::from_millis(1_200))
                        .max_task_utilization(0.85)
                        .events(self.events_per_trace)
                        .seed(trace_seed)
                        .generate_timed()
                        .ok()?;
                    let config = OnlineConfig::builder()
                        .cores(self.cores)
                        .max_repair_moves(self.max_repair_moves)
                        .cost_model(scenario.model.clone())
                        .build();
                    let mut engine = ShardedAdmission::new(config, 1).ok()?;
                    let mut event_loop = EventLoop::new(EventLoopConfig::new(trace_seed));
                    event_loop.load_trace(&trace);
                    let replay = self.replay_duration.map(ReplayConfig::new);
                    let mut replay_outcome = ReplayOutcome::default();
                    event_loop.run_with(&mut engine, |engine, decision| {
                        let partition = engine.shards()[0].partition();
                        replay_outcome.observe(partition, decision, replay.as_ref());
                    });
                    Some((replay_outcome, engine.merged_metrics_registry()))
                },
            );
        let points = self
            .scenarios
            .iter()
            .flat_map(|s| self.utilization_points.iter().map(move |&u| (s, u)))
            .zip(&grid)
            .map(|((scenario, target), traces)| aggregate_point(&scenario.label, target, traces))
            .collect();
        let mut metrics = Registry::new();
        for cell in grid.iter().flatten() {
            metrics.merge(&cell.1);
        }
        OverheadRun {
            results: OverheadResults { points },
            metrics,
        }
    }
}

/// One grid cell's outcome: replay tallies and the cell's telemetry
/// registry (every decision counter).
type OverheadCell = (ReplayOutcome, Registry);

/// Folds one point's per-trace cell outcomes into an [`OverheadPoint`].
fn aggregate_point(scenario: &str, target: f64, traces: &[OverheadCell]) -> OverheadPoint {
    let mut registry = Registry::new();
    let mut replay = ReplayOutcome::default();
    for (outcome, cell_registry) in traces {
        registry.merge(cell_registry);
        replay.absorb(*outcome);
    }
    let stats = ControllerStats::from_registry(&registry);
    let (arrivals, admitted) = (stats.arrivals, stats.admitted);
    OverheadPoint {
        scenario: scenario.to_string(),
        normalized_utilization: target,
        arrivals,
        admitted,
        acceptance_ratio: ratio(admitted, arrivals),
        split_ratio: ratio(stats.fast_split, admitted),
        inflation_us_per_admission: ratio(stats.inflation_charged_ns, admitted) / 1_000.0,
        replayed_epochs: replay.epochs,
        replay_misses: replay.deadline_misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> OverheadExperiment {
        OverheadExperiment::new()
            .cores(2)
            .events_per_trace(40)
            .traces_per_point(4)
            .utilization_points(vec![0.6, 0.9])
            .replay_duration(Some(Time::from_millis(20)))
            .seed(3)
    }

    #[test]
    fn scenarios_decide_the_same_arrivals_and_replay_cleanly() {
        let results = quick().run();
        assert_eq!(results.points().len(), 6, "3 scenarios x 2 points");
        assert_eq!(results.total_replay_misses(), 0);
        // Same traces under every scenario: arrival counts match per
        // utilization point.
        for &u in &[0.6, 0.9] {
            let zero = results.point_at("zero", u).unwrap();
            let light = results.point_at("crpd-light", u).unwrap();
            let heavy = results.point_at("crpd-heavy", u).unwrap();
            assert_eq!(zero.arrivals, light.arrivals);
            assert_eq!(zero.arrivals, heavy.arrivals);
            assert_eq!(zero.inflation_us_per_admission, 0.0);
        }
    }

    #[test]
    fn charging_migrations_never_buys_admissions() {
        let results = quick().run();
        for &u in &[0.6, 0.9] {
            let zero = results.point_at("zero", u).unwrap().acceptance_ratio;
            let light = results.point_at("crpd-light", u).unwrap().acceptance_ratio;
            let heavy = results.point_at("crpd-heavy", u).unwrap().acceptance_ratio;
            assert!(light <= zero + 1e-9);
            assert!(heavy <= light + 1e-9, "a heavier charge admitted more");
        }
    }

    #[test]
    fn the_heavy_working_set_pays_visibly_more_than_the_light_one() {
        let results = quick().run();
        let light = results.point_at("crpd-light", 0.9).unwrap();
        let heavy = results.point_at("crpd-heavy", 0.9).unwrap();
        assert!(
            heavy.inflation_us_per_admission > light.inflation_us_per_admission,
            "heavy {} µs/admit should exceed light {} µs/admit",
            heavy.inflation_us_per_admission,
            light.inflation_us_per_admission
        );
        assert!(light.split_ratio > 0.0, "high load must exercise splitting");
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let serial = quick().run();
        let parallel = quick().threads(4).run();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn runs_are_reproducible_and_seed_sensitive() {
        assert_eq!(quick().run(), quick().run());
        assert_ne!(quick().run(), quick().seed(99).run());
    }

    #[test]
    fn rendering_contains_every_scenario() {
        let results = quick().run();
        let md = results.render_markdown();
        assert!(md.contains("crpd-heavy"));
        assert!(md.contains("inflate µs/admit"));
        let csv = results.render_csv();
        assert!(csv.starts_with("scenario,normalized_utilization"));
        assert_eq!(csv.lines().count(), 1 + results.points().len());
    }
}
