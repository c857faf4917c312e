//! The admission-cascade regression bench: every decision audited against
//! scratch RTA.
//!
//! For every point of a target-utilization sweep this driver generates churn
//! traces and drives the production controller over each twice:
//!
//! * an **audited** pass that, after every decision, checks each core of the
//!   controller's partition with `Partition::scratch_audit` — a from-scratch
//!   `rta::analyse_core` that shares no code with the placer or the
//!   incremental cache: the core must be schedulable, and its converged
//!   cache slot must hold exactly the scratch response times;
//! * a **timed** pass over the same trace, which also asserts the
//!   repair/split hot path performs **zero** partition snapshot clones
//!   (`Partition::clone_count`).
//!
//! The correctness half of the output (decision counts, the log digest, the
//! `fleet_audit_clean` verdict, the cap-exhaustion column) is deterministic
//! and thread-count invariant like every other sweep; the wall-clock timing
//! is measurement data grouped under a single `timing` object so CI can
//! strip it before diffing artifacts.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use spms_analysis::rta;
use spms_core::Partition;
use spms_online::{AdmissionController, ChurnGenerator, Decision, OnlineConfig};
use spms_task::{fnv1a, fnv1a_combine, FNV_OFFSET};

use crate::progress::{NullProgress, ProgressSink};
use crate::runner::SweepRunner;
use crate::same_point;

/// Deterministic per-trace outcome plus the (non-deterministic) timings.
#[derive(Debug, Clone)]
struct TraceOutcome {
    arrivals: u64,
    admitted: u64,
    audit_clean: bool,
    log_digest: u64,
    cap_exhaustions: u64,
    journal_clone_free: bool,
    elapsed: Duration,
}

/// Aggregated behaviour at one target-utilization point (deterministic
/// fields only).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RtaCachePoint {
    /// Target normalized utilization of the churn process.
    pub normalized_utilization: f64,
    /// Arrival events across all traces of this point.
    pub arrivals: u64,
    /// Arrivals admitted.
    pub admitted: u64,
    /// RTA fixed-point cap exhaustions while deciding this point's traces
    /// in the timed pass (deterministic; see
    /// `spms_analysis::rta::cap_exhaustions`).
    pub rta_cap_exhaustions: u64,
}

/// Wall-clock measurements of the sweep: everything non-deterministic in
/// one place, so artifact diffs can strip exactly this object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RtaCacheTiming {
    /// Total nanoseconds deciding every trace in the timed pass.
    pub cached_ns: u64,
}

/// Results of a cascade audit sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RtaCacheResults {
    points: Vec<RtaCachePoint>,
    /// Whether, after every decision of every trace, each core passed
    /// from-scratch RTA and every converged cache slot matched it
    /// (`Partition::scratch_audit`).
    pub fleet_audit_clean: bool,
    /// Whether the controller decided every trace without a single
    /// partition snapshot clone.
    pub journal_clone_free: bool,
    /// Order-sensitive FNV-1a digest over every decision log —
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

    /// Renders a markdown table plus the audit/timing summary.
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
            "\nfleet audit clean: {} (digest {:#018x})\n\
             journal hot path clone-free: {}\n\
             cascade {} ns\n",
            self.fleet_audit_clean,
            self.decisions_digest,
            self.journal_clone_free,
            self.timing.cached_ns,
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

/// The audited cascade driver. See the module docs of `rta_cache.rs`.
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

    /// Sets the repair bound `k` of the controller.
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

    /// Runs the audit sweep.
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
                    let config = OnlineConfig::builder()
                        .cores(self.cores)
                        .max_repair_moves(self.max_repair_moves)
                        .build();

                    // The audited pass also absorbs one-time costs (lazy
                    // allocation, code paging) that would otherwise be
                    // charged to the timed pass.
                    let mut audited = AdmissionController::new(config.clone()).ok()?;
                    let audit_clean = events.iter().all(|event| {
                        audited.handle_event(event);
                        audited.partition().scratch_audit().is_ok()
                    });

                    // The timed pass, with the snapshot-clone counter and
                    // the cap-exhaustion delta read around it.
                    let clones_before = Partition::clone_count();
                    let exhaustions_before = rta::thread_cap_exhaustions();
                    let mut timed = AdmissionController::new(config).ok()?;
                    let started = Instant::now();
                    timed.handle_all(&events);
                    let elapsed = started.elapsed();
                    let cap_exhaustions = rta::thread_cap_exhaustions() - exhaustions_before;
                    let journal_clone_free = Partition::clone_count() == clones_before;

                    let stats = timed.stats();
                    Some(TraceOutcome {
                        arrivals: stats.arrivals,
                        admitted: stats.admitted,
                        audit_clean,
                        log_digest: fnv1a(serialize_log(timed.decisions()).as_bytes()),
                        cap_exhaustions,
                        journal_clone_free,
                        elapsed,
                    })
                },
            );

        let mut audit_clean = true;
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
                audit_clean &= outcome.audit_clean;
                clone_free &= outcome.journal_clone_free;
                digest = fnv1a_combine(digest, outcome.log_digest);
                timing.cached_ns += outcome.elapsed.as_nanos() as u64;
            }
            points.push(RtaCachePoint {
                normalized_utilization: target,
                arrivals,
                admitted,
                rta_cap_exhaustions: cap_exhaustions,
            });
        }
        RtaCacheResults {
            points,
            fleet_audit_clean: audit_clean,
            journal_clone_free: clone_free,
            decisions_digest: digest,
            timing,
        }
    }
}

/// Canonical serialization of a decision log for byte-comparison.
fn serialize_log(decisions: &[Decision]) -> String {
    serde_json::to_string(&decisions.to_vec()).expect("decision logs always serialize")
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
    fn every_decision_passes_the_fleet_audit() {
        let results = quick().run();
        assert!(
            results.fleet_audit_clean,
            "a core failed scratch RTA or its cache diverged from it"
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
        assert_eq!(serial.fleet_audit_clean, parallel.fleet_audit_clean);
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
        assert!(md.contains("fleet audit clean: true"));
        assert!(md.contains("journal hot path clone-free: true"));
        assert!(md.contains("cascade"));
        let csv = results.render_csv();
        assert!(csv.starts_with("normalized_utilization,arrivals,admitted,rta_cap_exhaustions"));
        assert_eq!(csv.lines().count(), 1 + results.points().len());
    }
}
