//! The online-churn experiment: acceptance ratio under task churn as the
//! offered load grows.
//!
//! For every point of a target-utilization sweep, generate many independent
//! timed churn traces (Poisson arrivals, log-uniform lifetimes) and run
//! each through the [`EventLoop`] into a one-shard [`ShardedAdmission`]
//! service, recording how many arrivals it admits, which decision paths it
//! takes, how many already-placed tasks its decisions migrate, and — when
//! replay is enabled — whether every admitted epoch simulates without
//! deadline misses.
//!
//! The sweep runs on the shared [`SweepRunner`] grid, so results are
//! bit-identical for every `--threads` value under a fixed seed.

use serde::{Deserialize, Serialize};
use spms_analysis::{rta, OverheadModel};
use spms_online::{
    ChurnFamily, ChurnGenerator, ControllerStats, EventLoop, EventLoopConfig, OnlineConfig,
    ReplayConfig, ReplayOutcome, ShardedAdmission,
};
use spms_overhead::CostModelSpec;
use spms_task::Time;
use spms_telemetry::Registry;

use crate::progress::{NullProgress, ProgressSink};
use crate::runner::SweepRunner;
use crate::{ratio, same_point};

/// Aggregated controller behaviour at one target-utilization point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnPoint {
    /// Target normalized utilization of the churn process.
    pub normalized_utilization: f64,
    /// Arrival events across all traces of this point.
    pub arrivals: u64,
    /// Arrivals admitted.
    pub admitted: u64,
    /// Fraction of arrivals admitted.
    pub acceptance_ratio: f64,
    /// Fraction of admissions decided on a fast path (whole or split).
    pub fast_path_ratio: f64,
    /// Fraction of admissions that needed bounded repair.
    pub repair_ratio: f64,
    /// Fraction of admissions that needed a full repartition.
    pub fallback_ratio: f64,
    /// Already-placed tasks relocated per admission, on average.
    pub migrations_per_admission: f64,
    /// Microseconds of migration-cost WCET inflation charged per admission,
    /// on average (0 under the free [`CostModelSpec::Zero`] model).
    pub inflation_us_per_admission: f64,
    /// Epochs replayed through the simulator (0 when replay is disabled).
    pub replayed_epochs: u64,
    /// Deadline misses across all replayed epochs (must stay 0).
    pub replay_misses: u64,
    /// How often the RTA fixed-point iteration cap was exhausted while
    /// deciding this point's traces. A time-out is a conservative
    /// rejection, not a proof — a non-zero count flags configurations whose
    /// rejections deserve scrutiny (see `spms_analysis::rta::cap_exhaustions`).
    pub rta_cap_exhaustions: u64,
}

/// Everything a churn sweep produces: the serializable [`ChurnResults`]
/// artifact plus the run-wide telemetry registry (per-cell service
/// registries merged in grid order, so the deterministic section is
/// identical for every `--threads` value).
#[derive(Debug, Clone)]
pub struct ChurnRun {
    /// The serializable sweep artifact.
    pub results: ChurnResults,
    /// Every grid cell's service registry, merged in grid order.
    pub metrics: Registry,
}

/// Results of an online-churn sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ChurnResults {
    points: Vec<ChurnPoint>,
}

impl ChurnResults {
    /// All sweep points, in increasing target-utilization order.
    pub fn points(&self) -> &[ChurnPoint] {
        &self.points
    }

    /// The point matching `normalized_utilization` within the shared sweep
    /// tolerance.
    pub fn point_at(&self, normalized_utilization: f64) -> Option<&ChurnPoint> {
        self.points
            .iter()
            .find(|p| same_point(p.normalized_utilization, normalized_utilization))
    }

    /// Total deadline misses across every replayed epoch of the sweep.
    pub fn total_replay_misses(&self) -> u64 {
        self.points.iter().map(|p| p.replay_misses).sum()
    }

    /// Renders a markdown table, one row per target-utilization point.
    pub fn render_markdown(&self) -> String {
        let mut out = String::from(
            "| U / m | accepted | fast path | repair | repartition | moves/admit | inflate µs/admit | replay misses | RTA cap hits |\n\
             |---|---|---|---|---|---|---|---|---|\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "| {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {:.1} | {} | {} |\n",
                p.normalized_utilization,
                p.acceptance_ratio,
                p.fast_path_ratio,
                p.repair_ratio,
                p.fallback_ratio,
                p.migrations_per_admission,
                p.inflation_us_per_admission,
                p.replay_misses,
                p.rta_cap_exhaustions,
            ));
        }
        out
    }

    /// Renders a CSV with a header row, suitable for plotting.
    pub fn render_csv(&self) -> String {
        let mut out = String::from(
            "normalized_utilization,arrivals,admitted,acceptance_ratio,fast_path_ratio,\
             repair_ratio,fallback_ratio,migrations_per_admission,inflation_us_per_admission,\
             replayed_epochs,replay_misses,rta_cap_exhaustions\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:.4},{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{},{},{}\n",
                p.normalized_utilization,
                p.arrivals,
                p.admitted,
                p.acceptance_ratio,
                p.fast_path_ratio,
                p.repair_ratio,
                p.fallback_ratio,
                p.migrations_per_admission,
                p.inflation_us_per_admission,
                p.replayed_epochs,
                p.replay_misses,
                p.rta_cap_exhaustions,
            ));
        }
        out
    }
}

/// The online-churn experiment driver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnExperiment {
    cores: usize,
    events_per_trace: usize,
    traces_per_point: usize,
    utilization_points: Vec<f64>,
    max_repair_moves: usize,
    overhead: OverheadModel,
    cost_model: CostModelSpec,
    mean_interarrival: Option<Time>,
    lifetime_range: Option<(Time, Time)>,
    churn_family: ChurnFamily,
    replay_duration: Option<Time>,
    release_jitter: Time,
    seed: u64,
    threads: usize,
}

impl Default for ChurnExperiment {
    fn default() -> Self {
        ChurnExperiment {
            cores: 4,
            events_per_trace: 120,
            traces_per_point: 20,
            utilization_points: vec![0.5, 0.6, 0.7, 0.8, 0.9],
            max_repair_moves: 2,
            overhead: OverheadModel::zero(),
            cost_model: CostModelSpec::Zero,
            mean_interarrival: None,
            lifetime_range: None,
            churn_family: ChurnFamily::Poisson,
            replay_duration: Some(Time::from_millis(50)),
            release_jitter: Time::ZERO,
            seed: 0,
            threads: 1,
        }
    }
}

impl ChurnExperiment {
    /// A driver with the default churn grid: 4 cores, 120 events per trace,
    /// 20 traces per point, targets 0.5 … 0.9, repair bound 2, 50 ms epoch
    /// replay.
    pub fn new() -> Self {
        ChurnExperiment::default()
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

    /// Sets how many traces are generated per sweep point.
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

    /// Sets the overhead model folded into the admission analysis.
    pub fn overhead(mut self, overhead: OverheadModel) -> Self {
        self.overhead = overhead;
        self
    }

    /// Sets the migration cost model the controller charges: every split
    /// piece and repair relocation inflates the affected task's analysis
    /// WCET by the model's per-job migration charge.
    pub fn cost_model(mut self, model: CostModelSpec) -> Self {
        self.cost_model = model;
        self
    }

    /// Sets the mean inter-arrival time of the churn process (`None` keeps
    /// the generator default). Longer inter-arrivals shrink the concurrent
    /// task population, concentrating the offered load in heavier tasks.
    pub fn mean_interarrival(mut self, mean: Time) -> Self {
        self.mean_interarrival = Some(mean);
        self
    }

    /// Sets the log-uniform task lifetime range (`None` keeps the
    /// generator default).
    pub fn lifetime_range(mut self, min: Time, max: Time) -> Self {
        self.lifetime_range = Some((min, max));
        self
    }

    /// Selects the churn-process family driving every trace (Poisson by
    /// default; `Bursty` modulates arrivals through a two-state Markov
    /// chain at the same long-run rate).
    pub fn churn_family(mut self, family: ChurnFamily) -> Self {
        self.churn_family = family;
        self
    }

    /// Sets the per-epoch replay duration; `None` disables replay.
    pub fn replay_duration(mut self, duration: Option<Time>) -> Self {
        self.replay_duration = duration;
        self
    }

    /// Sets the maximum sporadic release jitter the epoch replay injects
    /// per job (seeded per grid cell, so the sweep stays deterministic and
    /// thread-count invariant). Zero replays synchronous-periodic.
    pub fn release_jitter(mut self, jitter: Time) -> Self {
        self.release_jitter = jitter;
        self
    }

    /// Sets the RNG seed for trace generation.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of worker threads the sweep fans out across
    /// (`0` = one per available core). Results are identical for every
    /// thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Runs the sweep.
    pub fn run(&self) -> ChurnResults {
        self.run_with_progress(&NullProgress)
    }

    /// [`run`](Self::run) with per-cell completion reported to `progress`.
    pub fn run_with_progress(&self, progress: &dyn ProgressSink) -> ChurnResults {
        self.run_full_with_progress(progress).results
    }

    /// The full sweep: results plus the merged telemetry registry the
    /// CLI's `--metrics` flag writes.
    pub fn run_full_with_progress(&self, progress: &dyn ProgressSink) -> ChurnRun {
        let grid = SweepRunner::new()
            .threads(self.threads)
            .run_grid_with_progress(
                self.seed,
                self.utilization_points.len(),
                self.traces_per_point,
                progress,
                |cell| {
                    let target = self.utilization_points[cell.point_idx];
                    let mut generator = ChurnGenerator::new()
                        .cores(self.cores)
                        .target_normalized_utilization(target)
                        .events(self.events_per_trace)
                        .family(self.churn_family)
                        .seed(cell.seed);
                    if let Some(mean) = self.mean_interarrival {
                        generator = generator.mean_interarrival(mean);
                    }
                    if let Some((min, max)) = self.lifetime_range {
                        generator = generator.lifetime_range(min, max);
                    }
                    let trace = generator.generate_timed().ok()?;
                    let config = OnlineConfig::builder()
                        .cores(self.cores)
                        .overhead(self.overhead)
                        .max_repair_moves(self.max_repair_moves)
                        .cost_model(self.cost_model.clone())
                        .build();
                    let mut engine = ShardedAdmission::new(config, 1).ok()?;
                    let mut event_loop = EventLoop::new(EventLoopConfig::new(cell.seed));
                    event_loop.load_trace(&trace);
                    // Replay injects the same overheads the admission
                    // analysis charges (a miss flags an analysis that
                    // under-charges them), plus the optional sporadic
                    // release jitter, seeded per cell for determinism.
                    let replay = self.replay_duration.map(|duration| {
                        ReplayConfig::new(duration)
                            .with_overhead(self.overhead)
                            .with_release_jitter(self.release_jitter, cell.seed)
                    });
                    // Grid cells run wholly on one worker thread, so the
                    // thread-local delta is exactly this cell's count.
                    let exhaustions_before = rta::thread_cap_exhaustions();
                    let mut replay_outcome = ReplayOutcome::default();
                    event_loop.run_with(&mut engine, |engine, decision| {
                        let partition = engine.shards()[0].partition();
                        replay_outcome.observe(partition, decision, replay.as_ref());
                    });
                    let cap_exhaustions = rta::thread_cap_exhaustions() - exhaustions_before;
                    let registry = engine.merged_metrics_registry();
                    Some((replay_outcome, cap_exhaustions, registry))
                },
            );
        let points = self
            .utilization_points
            .iter()
            .zip(&grid)
            .map(|(&target, traces)| aggregate_point(target, traces))
            .collect();
        let mut metrics = Registry::new();
        for cell in grid.iter().flatten() {
            metrics.merge(&cell.2);
        }
        ChurnRun {
            results: ChurnResults { points },
            metrics,
        }
    }
}

/// One grid cell's outcome: replay tallies, the cell's RTA
/// cap-exhaustion delta, and its telemetry registry (every decision
/// counter).
type ChurnCell = (ReplayOutcome, u64, Registry);

/// Folds one point's per-trace cell outcomes into a [`ChurnPoint`]
/// (always on the merged, ordered results — never inside workers).
fn aggregate_point(target: f64, traces: &[ChurnCell]) -> ChurnPoint {
    let mut registry = Registry::new();
    let mut cap_exhaustions = 0u64;
    let mut replay = ReplayOutcome::default();
    for (outcome, exhaustions, cell_registry) in traces {
        registry.merge(cell_registry);
        cap_exhaustions += exhaustions;
        replay.absorb(*outcome);
    }
    let stats = ControllerStats::from_registry(&registry);
    let (arrivals, admitted) = (stats.arrivals, stats.admitted);
    ChurnPoint {
        normalized_utilization: target,
        arrivals,
        admitted,
        acceptance_ratio: ratio(admitted, arrivals),
        fast_path_ratio: ratio(stats.fast_whole + stats.fast_split, admitted),
        repair_ratio: ratio(stats.repairs, admitted),
        fallback_ratio: ratio(stats.full_repartitions, admitted),
        migrations_per_admission: ratio(stats.migrations_caused, admitted),
        inflation_us_per_admission: ratio(stats.inflation_charged_ns, admitted) / 1_000.0,
        replayed_epochs: replay.epochs,
        replay_misses: replay.deadline_misses,
        rta_cap_exhaustions: cap_exhaustions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ChurnExperiment {
        ChurnExperiment::new()
            .cores(2)
            .events_per_trace(30)
            .traces_per_point(4)
            .utilization_points(vec![0.5, 0.8])
            .replay_duration(Some(Time::from_millis(20)))
            .seed(3)
    }

    #[test]
    fn ratios_are_probabilities_and_replay_is_clean() {
        let results = quick().run();
        assert_eq!(results.points().len(), 2);
        for p in results.points() {
            assert!(p.arrivals > 0);
            assert!((0.0..=1.0).contains(&p.acceptance_ratio));
            assert!((0.0..=1.0).contains(&p.fast_path_ratio));
            assert!((0.0..=1.0).contains(&p.repair_ratio));
            assert!((0.0..=1.0).contains(&p.fallback_ratio));
            assert!(p.replayed_epochs > 0);
        }
        assert_eq!(results.total_replay_misses(), 0);
    }

    #[test]
    fn acceptance_degrades_gracefully_with_load() {
        let results = quick().run();
        let low = results.point_at(0.5).unwrap().acceptance_ratio;
        let high = results.point_at(0.8).unwrap().acceptance_ratio;
        assert!(low >= high, "low-load acceptance {low} < high-load {high}");
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
    fn overhead_model_reaches_both_analysis_and_replay() {
        // With a real overhead model the admission analysis inflates WCETs
        // and the replay injects the same costs at run time; epochs must
        // still simulate cleanly (the analysis is the more conservative
        // side), and acceptance can only drop.
        let base = quick().run();
        let with_overhead = quick().overhead(OverheadModel::paper_n4()).run();
        assert_eq!(with_overhead.total_replay_misses(), 0);
        for (a, b) in base.points().iter().zip(with_overhead.points()) {
            assert!(b.acceptance_ratio <= a.acceptance_ratio + 1e-9);
        }
    }

    #[test]
    fn jittered_replay_is_deterministic_thread_invariant_and_miss_free() {
        let jittered = || quick().release_jitter(Time::from_millis(1));
        let results = jittered().run();
        assert_eq!(results.total_replay_misses(), 0);
        assert_eq!(results, jittered().run());
        assert_eq!(results, jittered().threads(4).run());
        for p in results.points() {
            assert!(p.replayed_epochs > 0);
        }
    }

    #[test]
    fn cap_exhaustion_column_is_present_and_thread_invariant() {
        let results = quick().run();
        // The moderate default grid converges everywhere; the point is that
        // the column exists, serializes and stays invariant across thread
        // counts (per-cell thread-local deltas, not the process counter).
        assert_eq!(
            results
                .points()
                .iter()
                .map(|p| p.rta_cap_exhaustions)
                .collect::<Vec<_>>(),
            quick()
                .threads(4)
                .run()
                .points()
                .iter()
                .map(|p| p.rta_cap_exhaustions)
                .collect::<Vec<_>>()
        );
        assert!(results.render_csv().contains("rta_cap_exhaustions"));
        assert!(results.render_markdown().contains("RTA cap hits"));
    }

    #[test]
    fn a_charged_cost_model_shows_up_in_the_inflation_column() {
        use spms_overhead::CrpdCostModel;
        // A small task population concentrates the load in heavy tasks so
        // the traces actually split (the default churn population is too
        // fine-grained to ever need a split piece).
        let split_prone = || {
            quick()
                .mean_interarrival(Time::from_millis(200))
                .lifetime_range(Time::from_millis(200), Time::from_secs(1))
        };
        let free = split_prone().run();
        let charged = split_prone()
            .cost_model(CostModelSpec::Crpd(CrpdCostModel::heavy()))
            .run();
        assert_eq!(charged.total_replay_misses(), 0);
        let mut charged_something = false;
        for (a, b) in free.points().iter().zip(charged.points()) {
            assert_eq!(a.inflation_us_per_admission, 0.0);
            // Charging migrations can only make admission harder.
            assert!(b.acceptance_ratio <= a.acceptance_ratio + 1e-9);
            charged_something |= b.inflation_us_per_admission > 0.0;
        }
        assert!(
            charged_something,
            "the high-load point should split at least once and be charged"
        );
    }

    #[test]
    fn bursty_sweeps_are_deterministic_and_distinct_from_poisson() {
        let bursty = || quick().churn_family(ChurnFamily::Bursty);
        let results = bursty().run();
        assert_eq!(results, bursty().run());
        assert_eq!(results, bursty().threads(4).run());
        assert_eq!(results.total_replay_misses(), 0);
        assert_ne!(
            results,
            quick().run(),
            "bursty and Poisson sweeps must not coincide"
        );
    }

    #[test]
    fn disabling_replay_zeroes_epochs() {
        let results = quick().replay_duration(None).run();
        for p in results.points() {
            assert_eq!(p.replayed_epochs, 0);
            assert_eq!(p.replay_misses, 0);
        }
    }

    #[test]
    fn rendering_contains_every_point() {
        let results = quick().run();
        let md = results.render_markdown();
        let csv = results.render_csv();
        assert!(md.contains("0.50"));
        assert!(md.contains("0.80"));
        assert!(md.contains("replay misses"));
        assert!(md.contains("inflate µs/admit"));
        assert_eq!(csv.lines().count(), 1 + results.points().len());
        assert!(csv.starts_with("normalized_utilization"));
        assert!(csv.contains("inflation_us_per_admission"));
    }
}
