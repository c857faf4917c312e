//! The chaos harness: seeded fault injection against the soak engine.
//!
//! [`ChaosExperiment`] drives the same stack as the soak experiment —
//! [`ChurnGenerator`] → `EventLoop` → `ShardedAdmission` — but loads a
//! deterministic [`FaultPlan`] into every grid cell: shard crashes (with
//! residency drain and cross-shard recovery re-admission), shard stalls,
//! cache corruptions (for the periodic self-audit to catch), and cost
//! spikes. The plan is either scripted ([`script`](ChaosExperiment::script))
//! or generated from a seeded [`FaultSpec`] against the measured horizon of
//! the first churn trace, so the same configuration always injects the
//! same faults at the same scenario times.
//!
//! The serializable [`ChaosResults`] report ends in a **recovery digest**:
//! an order-sensitive FNV-1a over every point's recovery outcome (drains,
//! recoveries, evictions, rejoins, audit verdicts, decision digest). The
//! digest — like every deterministic soak output — is identical for any
//! `--threads` value, which is exactly what the CI chaos smoke job diffs.

use serde::{Deserialize, Serialize};
use spms_faults::{FaultPlan, FaultSpec};
use spms_online::FaultStats;
use spms_task::{fnv1a, Time};

use crate::progress::{NullProgress, ProgressSink};
use crate::soak::SoakExperiment;

/// Recovery outcome of one shard count under the injected fault plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosPoint {
    /// Number of admission shards.
    pub shards: usize,
    /// Fault-injection and recovery counters summed over the point's
    /// traces.
    pub fault: FaultStats,
    /// Order-sensitive digest of the point's decision log (the soak
    /// `decisions_digest`, fault events included).
    pub decisions_digest: u64,
    /// Deadline misses across the point's sampled replays (must stay 0:
    /// recovery re-admission must never plant an unschedulable task).
    pub replay_misses: u64,
}

/// Serializable report of one chaos run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosResults {
    /// The fault plan that was injected (scripted or spec-generated),
    /// echoed for exact reproducibility.
    pub plan: FaultPlan,
    /// Scenario horizon (ms) the spec-generated plan was drawn against:
    /// the last timestamp of the first churn trace.
    pub horizon_ms: u64,
    /// Recovery outcome per shard count, configuration order.
    pub points: Vec<ChaosPoint>,
    /// Total deadline misses across every sampled replay (must stay 0).
    pub replay_misses: u64,
    /// Audit violations that went unrepaired across all points (must stay
    /// 0: detection and rebuild are one step).
    pub audit_violations_unrepaired: u64,
    /// Order-sensitive FNV-1a digest over every point's recovery outcome
    /// — stable across `--threads` values.
    pub recovery_digest: u64,
}

impl ChaosResults {
    /// Renders a markdown summary table plus the recovery digest.
    pub fn render_markdown(&self) -> String {
        let mut out = String::from(
            "| shards | injected | crashes | drained | recovered | evicted | rejoins | audits | violations | repaired | replay misses | decisions digest |\n\
             |---|---|---|---|---|---|---|---|---|---|---|---|\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {:#018x} |\n",
                p.shards,
                p.fault.injections,
                p.fault.crashes,
                p.fault.drained,
                p.fault.recoveries,
                p.fault.evictions,
                p.fault.rejoins,
                p.fault.audit_checks,
                p.fault.audit_violations,
                p.fault.audit_repairs,
                p.replay_misses,
                p.decisions_digest,
            ));
        }
        out.push_str(&format!(
            "\nfaults injected over a {} ms horizon\nreplay misses: {}\naudit violations unrepaired: {}\nrecovery digest: {:#018x}\n",
            self.horizon_ms, self.replay_misses, self.audit_violations_unrepaired, self.recovery_digest,
        ));
        out
    }

    /// Renders the per-point table as CSV (digests in hex, run-level
    /// totals repeated on every row so the file stands alone).
    pub fn render_csv(&self) -> String {
        let mut out = String::from(
            "shards,injections,crashes,stalls,corruptions,cost_spikes,drained,recoveries,\
             evictions,rejoins,audit_checks,audit_violations,audit_repairs,replay_misses,\
             decisions_digest,horizon_ms,recovery_digest\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:#018x},{},{:#018x}\n",
                p.shards,
                p.fault.injections,
                p.fault.crashes,
                p.fault.stalls,
                p.fault.corruptions,
                p.fault.cost_spikes,
                p.fault.drained,
                p.fault.recoveries,
                p.fault.evictions,
                p.fault.rejoins,
                p.fault.audit_checks,
                p.fault.audit_violations,
                p.fault.audit_repairs,
                p.replay_misses,
                p.decisions_digest,
                self.horizon_ms,
                self.recovery_digest,
            ));
        }
        out
    }
}

/// The chaos driver. See the module docs of `chaos.rs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosExperiment {
    cores: usize,
    shard_counts: Vec<usize>,
    events_per_trace: usize,
    traces_per_point: usize,
    target_utilization: f64,
    spec: FaultSpec,
    script: Option<FaultPlan>,
    audit_period: Time,
    rebalance_period: Option<Time>,
    replay_sample_every: usize,
    seed: u64,
    threads: usize,
}

impl Default for ChaosExperiment {
    fn default() -> Self {
        ChaosExperiment {
            cores: 8,
            shard_counts: vec![2],
            events_per_trace: 2_000,
            traces_per_point: 1,
            target_utilization: 0.6,
            spec: FaultSpec::default(),
            script: None,
            audit_period: Time::from_millis(100),
            rebalance_period: Some(Time::from_millis(250)),
            replay_sample_every: 50,
            seed: 0,
            threads: 1,
        }
    }
}

impl ChaosExperiment {
    /// The default harness: 8 cores in 2 shards, one 2 000-event trace,
    /// the default fault mix, audits every 100 ms, replay sampling every
    /// 50th admission.
    pub fn new() -> Self {
        ChaosExperiment::default()
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

    /// Sets the seeded fault mix the plan is generated from (ignored when
    /// a [`script`](Self::script) is set).
    pub fn spec(mut self, spec: FaultSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Injects this exact scripted plan instead of generating one from
    /// the [`spec`](Self::spec).
    pub fn script(mut self, plan: Option<FaultPlan>) -> Self {
        self.script = plan;
        self
    }

    /// Sets the self-audit period.
    pub fn audit_period(mut self, period: Time) -> Self {
        self.audit_period = period;
        self
    }

    /// Sets the rebalance tick period (`None` disables rebalancing).
    pub fn rebalance_period(mut self, period: Option<Time>) -> Self {
        self.rebalance_period = period;
        self
    }

    /// Replays every Nth admission through the simulator (0 disables).
    pub fn replay_sample_every(mut self, every: usize) -> Self {
        self.replay_sample_every = every;
        self
    }

    /// Sets the RNG root seed (traces, tie-shuffles, and the fault plan).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of worker threads (`0` = one per available core).
    /// The report — recovery digest included — is identical for every
    /// thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Runs the chaos harness.
    pub fn run(&self) -> ChaosResults {
        self.run_with_progress(&NullProgress)
    }

    /// [`run`](Self::run) with per-cell completion reported to `progress`.
    pub fn run_with_progress(&self, progress: &dyn ProgressSink) -> ChaosResults {
        let soak = SoakExperiment::new()
            .cores(self.cores)
            .shard_counts(self.shard_counts.clone())
            .events_per_trace(self.events_per_trace)
            .traces_per_point(self.traces_per_point)
            .target_utilization(self.target_utilization)
            .rebalance_period(self.rebalance_period)
            .replay_sample_every(self.replay_sample_every)
            .audit_period(Some(self.audit_period))
            .seed(self.seed)
            .threads(self.threads);
        // The plan is drawn against the measured horizon of the first
        // churn trace (the same seed derivation the soak cells use), so
        // spec-generated faults land inside the busy part of the run.
        let horizon_ms = soak.measured_horizon_ms();
        let plan = self
            .script
            .clone()
            .unwrap_or_else(|| soak.plan_faults(&self.spec));
        let run = soak
            .faults(Some(plan.clone()))
            .run_full_with_progress(progress);

        let mut points = Vec::with_capacity(run.results.points().len());
        let mut replay_misses = 0u64;
        let mut unrepaired = 0u64;
        let mut canonical = String::new();
        for (soak_point, registry) in run.results.points().iter().zip(&run.point_metrics) {
            let fault = FaultStats::from_registry(registry);
            replay_misses += soak_point.replay_misses;
            unrepaired += fault.audit_violations_unrepaired();
            canonical.push_str(&format!(
                "shards={};drained={};recovered={};evicted={};rejoins={};audits={};violations={};repairs={};decisions={:#018x};",
                soak_point.shards,
                fault.drained,
                fault.recoveries,
                fault.evictions,
                fault.rejoins,
                fault.audit_checks,
                fault.audit_violations,
                fault.audit_repairs,
                soak_point.decisions_digest,
            ));
            points.push(ChaosPoint {
                shards: soak_point.shards,
                fault,
                decisions_digest: soak_point.decisions_digest,
                replay_misses: soak_point.replay_misses,
            });
        }
        ChaosResults {
            plan,
            horizon_ms,
            points,
            replay_misses,
            audit_violations_unrepaired: unrepaired,
            recovery_digest: fnv1a(canonical.as_bytes()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms_faults::{FaultEvent, FaultKind};

    fn quick() -> ChaosExperiment {
        ChaosExperiment::new()
            .cores(4)
            .shard_counts(vec![2])
            .events_per_trace(400)
            .target_utilization(0.6)
            .replay_sample_every(25)
            .seed(7)
    }

    #[test]
    fn chaos_crashes_recover_and_replays_stay_clean() {
        let spec = FaultSpec::parse("crash=1,stall=1,corrupt=1,spike=1,seed=5").unwrap();
        let results = quick().spec(spec).run();
        let p = &results.points[0];
        assert_eq!(p.fault.crashes, 1);
        assert_eq!(p.fault.stalls, 1);
        assert_eq!(p.fault.corruptions, 1);
        assert_eq!(p.fault.cost_spikes, 1);
        assert!(p.fault.drained > 0, "the crash must drain residents");
        assert!(
            p.fault.recoveries > 0,
            "a lightly loaded survivor must re-admit the drain"
        );
        assert_eq!(p.fault.rejoins, 1, "the crashed shard must rejoin");
        assert!(p.fault.audit_checks > 0, "audits must run");
        assert_eq!(results.replay_misses, 0, "recovery must never plant misses");
        assert_eq!(results.audit_violations_unrepaired, 0);
        let md = results.render_markdown();
        assert!(md.contains("recovery digest"));
    }

    #[test]
    fn the_recovery_digest_is_thread_invariant_and_seed_sensitive() {
        let spec = FaultSpec::parse("crash=1,stall=1,corrupt=1,seed=5").unwrap();
        let serial = quick().spec(spec).run();
        let parallel = quick().spec(spec).threads(4).run();
        assert_eq!(serial, parallel, "the whole report is thread-invariant");
        let other = quick().spec(spec).seed(8).run();
        assert_ne!(serial.recovery_digest, other.recovery_digest);
    }

    /// The fault-free soak artifact must not grow a fault section: the
    /// fault counters live in the point registries beside the serialized
    /// results, never inside them, so a soak without `--faults` stays
    /// byte-compatible with pre-chaos reports.
    #[test]
    fn fault_free_soak_artifacts_stay_fault_silent() {
        let run = SoakExperiment::new()
            .cores(4)
            .shard_counts(vec![1, 2])
            .events_per_trace(300)
            .seed(7)
            .run_full_with_progress(&crate::progress::NullProgress);
        assert!(run
            .point_metrics
            .iter()
            .all(|r| FaultStats::from_registry(r) == FaultStats::default()));
        let json = serde_json::to_string(&run.results).expect("soak results serialize");
        assert!(
            !json.contains("fault"),
            "fault-free soak artifact grew a fault section"
        );
    }

    #[test]
    fn scripted_plans_override_the_spec() {
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent {
            at_ms: 500,
            kind: FaultKind::ShardCrash {
                shard: 0,
                down_ms: 200,
            },
        });
        let results = quick().script(Some(plan.clone())).run();
        assert_eq!(results.plan, plan);
        let p = &results.points[0];
        assert_eq!(p.fault.injections, 1);
        assert_eq!(p.fault.crashes, 1);
        assert_eq!(p.fault.stalls, 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 4, ..proptest::prelude::ProptestConfig::default()
        })]

        /// Any seeded fault mix yields a report — recovery digest
        /// included — that is byte-identical for every worker-thread
        /// count. The deterministically seeded proptest runner keeps
        /// these four cases reproducible run to run.
        #[test]
        fn any_fault_mix_is_thread_invariant(
            crashes in 0u32..3,
            stalls in 0u32..3,
            corruptions in 0u32..3,
            cost_spikes in 0u32..2,
            fault_seed in proptest::prelude::any::<u64>(),
            workload_seed in 0u64..1_000,
        ) {
            let spec = FaultSpec {
                crashes,
                stalls,
                corruptions,
                cost_spikes,
                seed: fault_seed,
            };
            let base = quick().seed(workload_seed).spec(spec);
            let serial = base.clone().run();
            let parallel = base.threads(4).run();
            proptest::prop_assert_eq!(serial, parallel);
        }
    }
}
