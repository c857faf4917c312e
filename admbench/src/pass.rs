//! One pass: set up a fresh service, drive the whole trace through
//! `EventLoop::run_with`, then check what it decided.
//!
//! The timed region is `run_with` and nothing else. Correctness checks (the
//! decision digest, the scratch-RTA audit of every final core, sampled
//! simulator replays) run after it or in the untimed oracle pass.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::hint::black_box;
use std::time::{Duration, Instant};

use spms_analysis::rta::analyse_core;
use spms_core::{shard_core_counts, stitch_partitions, CoreId, Partition};
use spms_online::replay::{replay_epoch, ReplayConfig};
use spms_online::{
    AdmissionController, AdmissionShard, Decision, DecisionKind, EventLoop, ShardedAdmission,
    TimedEvent,
};
use spms_task::Time;
use spms_telemetry::{scoped, HotCounter, SnapshotFilter};

use crate::timed_shard::TimedShard;
use crate::workload::Workload;

/// Per-layer metrics of one traced pass: name → (value, unit).
pub type Layers = BTreeMap<String, (f64, &'static str)>;

/// Verification checks made and failed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one pass measured and decided.
#[derive(Debug)]
pub struct Pass {
    /// `ShardedAdmission` construction + `EventLoop::new` + `load_trace`.
    pub setup: Duration,
    /// Wall time of `run_with`.
    pub wall: Duration,
    /// Workload events decided.
    pub events: u64,
    pub arrivals: u64,
    pub admitted: u64,
    /// Exact arrival-decision latencies, sorted ascending.
    pub latencies_ns: Vec<u64>,
    /// FNV-1a digest of the service decision log.
    pub digest: u64,
    pub checks: Checks,
}

impl Pass {
    pub fn decisions_per_s(&self) -> f64 {
        self.events as f64 / self.wall.as_secs_f64()
    }
}

/// The production service: `ShardedAdmission::new`.
pub fn plain_service(workload: &Workload) -> ShardedAdmission {
    ShardedAdmission::new(workload.config(), workload.shards)
        .expect("workload shard counts fit their cores")
}

/// The same service with every shard wrapped in a [`TimedShard`]. Mirrors
/// `ShardedAdmission::new`: the same per-shard core slices and the same
/// cross-shard switch.
pub fn timed_service(workload: &Workload) -> ShardedAdmission<TimedShard<AdmissionController>> {
    let config = workload.config();
    let shards = shard_core_counts(config.cores, workload.shards)
        .into_iter()
        .map(|cores| {
            let mut shard_config = config.clone();
            shard_config.cores = cores;
            let controller =
                AdmissionController::new(shard_config).expect("workload configs are valid");
            TimedShard::new(controller)
        })
        .collect();
    let mut service = ShardedAdmission::from_shards(shards);
    service.set_cross_shard_split(config.cross_shard_split);
    service
}

/// Builds the service and a loaded event loop, timing the whole set-up.
pub fn set_up<S: AdmissionShard>(
    build: impl FnOnce() -> ShardedAdmission<S>,
    workload: &Workload,
    seed: u64,
    trace: &[TimedEvent],
) -> (ShardedAdmission<S>, EventLoop, Duration) {
    let started = Instant::now();
    let engine = build();
    let mut event_loop = EventLoop::new(workload.loop_config(seed));
    event_loop.load_trace(trace);
    (engine, event_loop, started.elapsed())
}

fn is_arrival(decision: &Decision) -> bool {
    matches!(
        decision.kind,
        DecisionKind::Admitted { .. } | DecisionKind::Rejected { .. }
    )
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// The production service, timed only from outside.
pub fn untraced(workload: &Workload, seed: u64, trace: &[TimedEvent], arrivals: usize) -> Pass {
    let (mut engine, mut event_loop, setup) =
        set_up(|| plain_service(workload), workload, seed, trace);
    let mut latencies = Vec::with_capacity(arrivals);
    let started = Instant::now();
    let mut last = started;
    event_loop.run_with(&mut engine, |_, decision| {
        let now = Instant::now();
        if is_arrival(decision) {
            latencies.push(nanos(now - last));
        }
        last = now;
    });
    let wall = started.elapsed();
    finish(&engine, setup, wall, latencies)
}

/// The wrapped service: the same pass, plus the per-layer ledger.
pub fn traced(
    workload: &Workload,
    seed: u64,
    trace: &[TimedEvent],
    arrivals: usize,
) -> (Pass, Layers) {
    let (mut engine, mut event_loop, setup) =
        set_up(|| timed_service(workload), workload, seed, trace);
    // The observer records the same samples as in a plain pass, so that
    // `trace.overhead_pct` compares like with like.
    let mut latencies = Vec::with_capacity(arrivals);
    let mut observer_ns = 0u64;
    let hot = scoped::thread_snapshot();
    let started = Instant::now();
    let mut last = started;
    event_loop.run_with(&mut engine, |_, decision| {
        let now = Instant::now();
        if is_arrival(decision) {
            latencies.push(nanos(now - last));
        }
        last = now;
        observer_ns += nanos(now.elapsed());
    });
    let wall = started.elapsed();
    let hot = hot.since();

    let export = Instant::now();
    let exposition = engine
        .merged_metrics_registry()
        .snapshot(SnapshotFilter::Full)
        .render_prometheus();
    black_box(exposition.len());
    let export = export.elapsed();

    let pass = finish(&engine, setup, wall, latencies);
    let arrivals = pass.arrivals as f64;
    let mut decide_ns: Vec<u64> = Vec::new();
    let (mut arrival_decides, mut remote_ns, mut query_ns) = (0u64, 0u64, 0u64);
    for shard in engine.shards() {
        decide_ns.extend_from_slice(&shard.clock.decide_ns);
        arrival_decides += shard.clock.arrival_decides;
        remote_ns += shard.clock.remote_plan_ns.get();
        query_ns += shard.clock.query_ns.get();
    }
    let decide_total: u64 = decide_ns.iter().sum();
    decide_ns.sort_unstable();
    let self_ns = nanos(wall) as f64
        - decide_total as f64
        - remote_ns as f64
        - query_ns as f64
        - observer_ns as f64;

    let registry = engine.merged_metrics_registry();
    let counter = |name: &str| registry.counter_by_name(name).unwrap_or(0) as f64;
    let stats = engine.stats();
    let ms = |ns: f64| ns / 1e6;
    let mut layers = Layers::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        layers.insert(name.to_string(), (value, unit));
    };
    put("dispatch.events", pass.events as f64, "count");
    put("dispatch.self_ms", ms(self_ns), "ms");
    put("dispatch.ns_per_event", self_ns / pass.events as f64, "ns");
    put("service.arrivals", arrivals, "count");
    put(
        "service.overflow_admissions",
        stats.overflow_admissions as f64,
        "count",
    );
    put(
        "service.rebalance_ticks",
        stats.rebalance_ticks as f64,
        "count",
    );
    put(
        "service.rebalance_moves",
        stats.rebalance_moves as f64,
        "count",
    );
    for what in ["attempts", "admissions", "aborts"] {
        put(
            &format!("service.cross_shard.{what}"),
            counter(&format!("spms_mech_cross_shard_{what}_total")),
            "count",
        );
    }
    put("service.remote_plan_ms", ms(remote_ns as f64), "ms");
    put("service.shard_query_ms", ms(query_ns as f64), "ms");
    put(
        "cascade.calls_per_arrival",
        ratio(arrival_decides as f64, arrivals),
        "ratio",
    );
    put("cascade.decide_ms", ms(decide_total as f64), "ms");
    put(
        "cascade.decide_p50_us",
        percentile(&decide_ns, 0.50) as f64 / 1e3,
        "us",
    );
    put(
        "cascade.decide_p99_us",
        percentile(&decide_ns, 0.99) as f64 / 1e3,
        "us",
    );
    for stage in STAGES {
        for what in ["attempts", "successes"] {
            put(
                &format!("cascade.{stage}.{what}"),
                counter(&format!("spms_mech_stage_{stage}_{what}_total")),
                "count",
            );
        }
        let sum = registry
            .histogram_by_name(&format!("spms_timing_stage_{stage}_ns"))
            .map_or(0, |h| h.sum());
        put(&format!("cascade.{stage}.ms"), ms(sum as f64), "ms");
    }
    let whole = hot.get(HotCounter::WholeProbes) as f64;
    let split = hot.get(HotCounter::SplitProbes) as f64;
    let hits = hot.get(HotCounter::CacheProbeHits) as f64;
    let misses = hot.get(HotCounter::CacheProbeMisses) as f64;
    put("analysis.whole_probes", whole, "count");
    put("analysis.split_probes", split, "count");
    put(
        "analysis.probes_per_arrival",
        ratio(whole + split, arrivals),
        "ratio",
    );
    put("analysis.cache_hits", hits, "count");
    put("analysis.cache_misses", misses, "count");
    put(
        "analysis.cache_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    for (name, hot_counter) in [
        (
            "analysis.rta_cap_exhaustions",
            HotCounter::RtaCapExhaustions,
        ),
        ("core.journal_begins", HotCounter::JournalBegins),
        ("core.journal_rewinds", HotCounter::JournalRewinds),
        ("core.partition_clones", HotCounter::PartitionClones),
    ] {
        put(name, hot.get(hot_counter) as f64, "count");
    }
    put("telemetry.export_ms", ms(nanos(export) as f64), "ms");
    (pass, layers)
}

/// The cascade stages as the registry names them: the four shard stages,
/// then the service's cross-shard split.
const STAGES: [&str; 5] = [
    "fast_whole",
    "fast_split",
    "repair",
    "full_repartition",
    "cross_shard_split",
];

/// What the untimed oracle pass found.
#[derive(Debug)]
pub struct Oracle {
    pub pass: Pass,
    pub replay_epochs: u64,
    pub deadline_misses: u64,
    pub replay: Duration,
}

/// An untimed pass that replays every `replay_every`-th admission's
/// partition through the simulator for 50 ms of simulated time. With
/// cross-shard splits the replay covers the stitched fleet, because a
/// shard-spanning chain is only complete there.
pub fn oracle(workload: &Workload, seed: u64, trace: &[TimedEvent]) -> Oracle {
    let (mut engine, mut event_loop, setup) =
        set_up(|| plain_service(workload), workload, seed, trace);
    let config = ReplayConfig::new(Time::from_millis(50));
    let cross_shard = workload.cross_shard;
    let (mut admissions, mut epochs, mut deadline_misses) = (0usize, 0u64, 0u64);
    let mut replay = Duration::ZERO;
    let mut checks = Checks::default();
    let started = Instant::now();
    event_loop.run_with(&mut engine, |engine, decision| {
        if !decision.is_admission() {
            return;
        }
        admissions += 1;
        if admissions % workload.replay_every != 0 {
            return;
        }
        let replay_started = Instant::now();
        let outcome = if cross_shard {
            let parts: Vec<&Partition> = engine.shards().iter().map(|s| s.partition()).collect();
            replay_epoch(&stitch_partitions(&parts), &config)
        } else {
            let shard = engine
                .resident_shard(decision.task)
                .expect("an admitted task is resident");
            replay_epoch(engine.shards()[shard].partition(), &config)
        };
        replay += replay_started.elapsed();
        epochs += outcome.epochs;
        deadline_misses += outcome.deadline_misses;
        checks.record(outcome.deadline_misses == 0);
    });
    let wall = started.elapsed();
    let mut pass = finish(&engine, setup, wall, Vec::new());
    pass.checks.absorb(checks);
    Oracle {
        pass,
        replay_epochs: epochs,
        deadline_misses,
        replay,
    }
}

/// Reads the outcome of a finished pass and audits every final core with
/// a from-scratch response-time analysis.
fn finish<S: AdmissionShard>(
    engine: &ShardedAdmission<S>,
    setup: Duration,
    wall: Duration,
    mut latencies_ns: Vec<u64>,
) -> Pass {
    latencies_ns.sort_unstable();
    let stats = engine.stats();
    let mut checks = Checks::default();
    for shard in engine.shards() {
        let partition = shard.partition();
        for core in 0..partition.core_count() {
            checks.record(analyse_core(&partition.core_tasks(CoreId(core))).schedulable);
        }
    }
    Pass {
        setup,
        wall,
        events: engine.decisions().len() as u64,
        arrivals: stats.decisions.arrivals,
        admitted: stats.decisions.admitted,
        latencies_ns,
        digest: digest(engine.decisions()),
        checks,
    }
}

/// FNV-1a over the `Debug` rendering of every decision, streamed.
fn digest(decisions: &[Decision]) -> u64 {
    struct Fnv(u64);
    impl fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    for decision in decisions {
        write!(fnv, "{decision:?};").expect("hashing never fails");
    }
    fnv.0
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `num / den`, or 0 when the base is empty.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
