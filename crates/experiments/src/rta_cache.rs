//! The admission-cascade regression bench: cached vs. from-scratch RTA,
//! journal vs. clone rollback.
//!
//! For every point of a target-utilization sweep this driver generates churn
//! traces and drives **three** controllers over each:
//!
//! * `cached` — the production configuration (incremental RTA cache,
//!   journal-based rollback),
//! * `scratch` — RTA cache disabled
//!   (`OnlineConfig::builder().rta_cache(false)`),
//! * `clone` — journal disabled (`.journal(false)`): repair/split
//!   rollback snapshots the whole partition per attempt.
//!
//! All three must produce byte-identical serialized decision logs (the two
//! optimisations are pure mechanism; only the policy knob
//! `OnlineConfig::repair_ranking` may change decisions, and it is held
//! fixed here). The correctness half of the output (decision counts, the
//! log digest, the `decision_logs_identical` verdict, the cap-exhaustion
//! column) is deterministic and thread-count invariant like every other
//! sweep; the wall-clock timings are measurement data grouped under a
//! single `timing` object so CI can strip them before diffing artifacts.
//! The cached run additionally asserts the repair/split hot path performs
//! **zero** partition snapshot clones (`Partition::clone_count`).

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use spms_analysis::rta;
use spms_core::Partition;
use spms_online::{AdmissionController, ChurnGenerator, Decision, OnlineConfig, WorkloadEvent};

use crate::progress::{NullProgress, ProgressSink};
use crate::runner::SweepRunner;
use crate::same_point;

/// Deterministic per-trace outcome plus the (non-deterministic) timings.
#[derive(Debug, Clone)]
struct TraceOutcome {
    arrivals: u64,
    admitted: u64,
    log_identical: bool,
    log_digest: u64,
    cap_exhaustions: u64,
    journal_clone_free: bool,
    cached: Duration,
    scratch: Duration,
    clone_rollback: Duration,
}

/// Aggregated behaviour at one target-utilization point (deterministic
/// fields only).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RtaCachePoint {
    /// Target normalized utilization of the churn process.
    pub normalized_utilization: f64,
    /// Arrival events across all traces of this point.
    pub arrivals: u64,
    /// Arrivals admitted (identical across all controller variants).
    pub admitted: u64,
    /// RTA fixed-point cap exhaustions while deciding this point's traces
    /// with the cached controller (deterministic; see
    /// `spms_analysis::rta::cap_exhaustions`).
    pub rta_cap_exhaustions: u64,
}

/// Wall-clock measurements of the sweep: everything non-deterministic in
/// one place, so artifact diffs can strip exactly this object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RtaCacheTiming {
    /// Total nanoseconds deciding every trace with the full cascade
    /// (cache + journal).
    pub cached_ns: u64,
    /// Total nanoseconds deciding every trace with from-scratch RTA.
    pub scratch_ns: u64,
    /// Total nanoseconds with clone-based rollback instead of the journal.
    pub clone_rollback_ns: u64,
    /// `scratch_ns / cached_ns` — how many times faster the cached fast
    /// path answered (> 1.0 means the cache wins).
    pub speedup: f64,
    /// `clone_rollback_ns / cached_ns` — what journal rollback buys.
    pub journal_speedup: f64,
}

/// Results of a cascade comparison sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RtaCacheResults {
    points: Vec<RtaCachePoint>,
    /// Whether every trace produced byte-identical serialized decision logs
    /// from all three controller variants (cached / scratch /
    /// clone-rollback).
    pub decision_logs_identical: bool,
    /// Whether the cached (journal-based) controller decided every trace
    /// without a single partition snapshot clone.
    pub journal_clone_free: bool,
    /// Order-sensitive FNV-1a digest over every cached decision log —
    /// deterministic under a fixed seed for any thread count.
    pub decisions_digest: u64,
    /// Wall-clock measurements (non-deterministic; see the type docs).
    pub timing: RtaCacheTiming,
}

impl RtaCacheResults {
    /// All sweep points, in increasing target-utilization order.
    pub fn points(&self) -> &[RtaCachePoint] {
        &self.points
    }

    /// The point matching `normalized_utilization` within the shared sweep
    /// tolerance.
    pub fn point_at(&self, normalized_utilization: f64) -> Option<&RtaCachePoint> {
        self.points
            .iter()
            .find(|p| same_point(p.normalized_utilization, normalized_utilization))
    }

    /// Renders a markdown table plus the equivalence/timing summary.
    pub fn render_markdown(&self) -> String {
        let mut out =
            String::from("| U / m | arrivals | admitted | RTA cap hits |\n|---|---|---|---|\n");
        for p in &self.points {
            out.push_str(&format!(
                "| {:.2} | {} | {} | {} |\n",
                p.normalized_utilization, p.arrivals, p.admitted, p.rta_cap_exhaustions,
            ));
        }
        out.push_str(&format!(
            "\ndecision logs identical: {} (digest {:#018x})\n\
             journal hot path clone-free: {}\n\
             cached {} ns vs scratch {} ns — speedup {:.2}x\n\
             journal vs clone rollback: {} ns vs {} ns — {:.2}x\n",
            self.decision_logs_identical,
            self.decisions_digest,
            self.journal_clone_free,
            self.timing.cached_ns,
            self.timing.scratch_ns,
            self.timing.speedup,
            self.timing.cached_ns,
            self.timing.clone_rollback_ns,
            self.timing.journal_speedup,
        ));
        out
    }

    /// Renders the deterministic per-point data as CSV.
    pub fn render_csv(&self) -> String {
        let mut out =
            String::from("normalized_utilization,arrivals,admitted,rta_cap_exhaustions\n");
        for p in &self.points {
            out.push_str(&format!(
                "{:.4},{},{},{}\n",
                p.normalized_utilization, p.arrivals, p.admitted, p.rta_cap_exhaustions,
            ));
        }
        out
    }
}

/// The cached-vs-scratch comparison driver. See the [module docs](self).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RtaCacheBenchmark {
    cores: usize,
    events_per_trace: usize,
    traces_per_point: usize,
    utilization_points: Vec<f64>,
    max_repair_moves: usize,
    seed: u64,
    threads: usize,
}

impl Default for RtaCacheBenchmark {
    fn default() -> Self {
        RtaCacheBenchmark {
            cores: 4,
            events_per_trace: 120,
            traces_per_point: 10,
            utilization_points: vec![0.6, 0.8],
            max_repair_moves: 2,
            seed: 0,
            threads: 1,
        }
    }
}

impl RtaCacheBenchmark {
    /// A driver with the default grid: 4 cores, 120 events per trace, 10
    /// traces per point, targets 0.6 and 0.8.
    pub fn new() -> Self {
        RtaCacheBenchmark::default()
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

    /// Sets the repair bound `k` of both controllers.
    pub fn max_repair_moves(mut self, k: usize) -> Self {
        self.max_repair_moves = k;
        self
    }

    /// Sets the RNG seed for trace generation.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of worker threads (`0` = one per available core).
    /// The deterministic half of the results is identical for every thread
    /// count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Runs the comparison sweep.
    pub fn run(&self) -> RtaCacheResults {
        self.run_with_progress(&NullProgress)
    }

    /// [`run`](Self::run) with per-cell completion reported to `progress`.
    pub fn run_with_progress(&self, progress: &dyn ProgressSink) -> RtaCacheResults {
        let grid = SweepRunner::new()
            .threads(self.threads)
            .run_grid_with_progress(
                self.seed,
                self.utilization_points.len(),
                self.traces_per_point,
                progress,
                |cell| {
                    let target = self.utilization_points[cell.point_idx];
                    let events = ChurnGenerator::new()
                        .cores(self.cores)
                        .target_normalized_utilization(target)
                        .events(self.events_per_trace)
                        .seed(cell.seed)
                        .generate()
                        .ok()?;
                    let base = || {
                        OnlineConfig::builder()
                            .cores(self.cores)
                            .max_repair_moves(self.max_repair_moves)
                    };
                    let config = base().build();

                    // One untimed warm-up pass absorbs one-time costs
                    // (lazy allocation, code paging) that would otherwise
                    // be charged entirely to the first timed variant.
                    drive(config.clone(), &events)?;

                    // The production cascade, with the snapshot-clone
                    // counter and the cap-exhaustion delta read around it.
                    let clones_before = Partition::clone_count();
                    let exhaustions_before = rta::thread_cap_exhaustions();
                    let (cached, cached_elapsed) = drive(config.clone(), &events)?;
                    let cap_exhaustions = rta::thread_cap_exhaustions() - exhaustions_before;
                    let journal_clone_free = Partition::clone_count() == clones_before;

                    let (scratch, scratch_elapsed) =
                        drive(base().rta_cache(false).build(), &events)?;
                    let (clone_rollback, clone_elapsed) =
                        drive(base().journal(false).build(), &events)?;

                    let cached_log = serialize_log(cached.decisions());
                    let log_identical = [&scratch, &clone_rollback]
                        .iter()
                        .all(|c| serialize_log(c.decisions()) == cached_log);
                    Some(TraceOutcome {
                        arrivals: cached.stats().arrivals,
                        admitted: cached.stats().admitted,
                        log_identical,
                        log_digest: fnv1a(cached_log.as_bytes()),
                        cap_exhaustions,
                        journal_clone_free,
                        cached: cached_elapsed,
                        scratch: scratch_elapsed,
                        clone_rollback: clone_elapsed,
                    })
                },
            );

        let mut identical = true;
        let mut clone_free = true;
        let mut digest = FNV_OFFSET;
        let mut timing = RtaCacheTiming::default();
        let mut points = Vec::with_capacity(self.utilization_points.len());
        for (&target, traces) in self.utilization_points.iter().zip(&grid) {
            let mut arrivals = 0u64;
            let mut admitted = 0u64;
            let mut cap_exhaustions = 0u64;
            for outcome in traces {
                arrivals += outcome.arrivals;
                admitted += outcome.admitted;
                cap_exhaustions += outcome.cap_exhaustions;
                identical &= outcome.log_identical;
                clone_free &= outcome.journal_clone_free;
                digest = fnv1a_combine(digest, outcome.log_digest);
                timing.cached_ns += outcome.cached.as_nanos() as u64;
                timing.scratch_ns += outcome.scratch.as_nanos() as u64;
                timing.clone_rollback_ns += outcome.clone_rollback.as_nanos() as u64;
            }
            points.push(RtaCachePoint {
                normalized_utilization: target,
                arrivals,
                admitted,
                rta_cap_exhaustions: cap_exhaustions,
            });
        }
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        timing.speedup = ratio(timing.scratch_ns, timing.cached_ns);
        timing.journal_speedup = ratio(timing.clone_rollback_ns, timing.cached_ns);
        RtaCacheResults {
            points,
            decision_logs_identical: identical,
            journal_clone_free: clone_free,
            decisions_digest: digest,
            timing,
        }
    }
}

/// Builds a controller for `config`, decides the whole trace and returns it
/// with the wall-clock time the decisions took.
fn drive(
    config: OnlineConfig,
    events: &[WorkloadEvent],
) -> Option<(AdmissionController, Duration)> {
    let mut controller = AdmissionController::new(config).ok()?;
    let started = Instant::now();
    controller.handle_all(events);
    Some((controller, started.elapsed()))
}

/// Canonical serialization of a decision log for byte-comparison.
fn serialize_log(decisions: &[Decision]) -> String {
    serde_json::to_string(&decisions.to_vec()).expect("decision logs always serialize")
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |acc, b| {
        (acc ^ u64::from(*b)).wrapping_mul(FNV_PRIME)
    })
}

/// Order-sensitive combination of per-trace digests.
fn fnv1a_combine(acc: u64, digest: u64) -> u64 {
    digest
        .to_le_bytes()
        .iter()
        .fold(acc, |acc, b| (acc ^ u64::from(*b)).wrapping_mul(FNV_PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RtaCacheBenchmark {
        RtaCacheBenchmark::new()
            .cores(2)
            .events_per_trace(30)
            .traces_per_point(3)
            .utilization_points(vec![0.6, 0.8])
            .seed(5)
    }

    #[test]
    fn all_cascade_variants_decide_identically() {
        let results = quick().run();
        assert!(
            results.decision_logs_identical,
            "cached / scratch / clone-rollback logs diverged"
        );
        assert!(
            results.journal_clone_free,
            "the journal-based cascade cloned a partition on the hot path"
        );
        assert_eq!(results.points().len(), 2);
        for p in results.points() {
            assert!(p.arrivals > 0);
            assert!(p.admitted <= p.arrivals);
        }
    }

    #[test]
    fn deterministic_half_is_thread_count_invariant() {
        let serial = quick().run();
        let parallel = quick().threads(4).run();
        assert_eq!(serial.points(), parallel.points());
        assert_eq!(serial.decisions_digest, parallel.decisions_digest);
        assert_eq!(
            serial.decision_logs_identical,
            parallel.decision_logs_identical
        );
    }

    #[test]
    fn digest_is_seed_sensitive() {
        assert_ne!(
            quick().run().decisions_digest,
            quick().seed(99).run().decisions_digest
        );
    }

    #[test]
    fn rendering_mentions_the_verdict() {
        let results = quick().run();
        let md = results.render_markdown();
        assert!(md.contains("decision logs identical: true"));
        assert!(md.contains("journal hot path clone-free: true"));
        assert!(md.contains("journal vs clone rollback"));
        assert!(md.contains("speedup"));
        let csv = results.render_csv();
        assert!(csv.starts_with("normalized_utilization,arrivals,admitted,rta_cap_exhaustions"));
        assert_eq!(csv.lines().count(), 1 + results.points().len());
    }
}
