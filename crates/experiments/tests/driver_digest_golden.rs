//! Golden digests of the churn-driven sweeps on the CI smoke grids.
//!
//! `spms online`, `spms overhead` and `spms rtabench` decide their traces
//! through the one-shard admission service under the event loop. These
//! digests pin what they report, so any change to how a driver decides,
//! counts or replays shows up here as a changed constant:
//!
//! * FNV-1a of each serialized results artifact, exactly as the CLI
//!   builds it for the CI smoke invocation (`rtabench` with its wall-clock
//!   `timing` object zeroed; the 120-event `online --cost-model crpd`
//!   grid must charge at least one migration);
//! * FNV-1a of the outcome metrics (what was decided) and, apart from it,
//!   of the mechanism metrics (the work deciding took: probes, screens,
//!   cache hits) of the telemetry registry `online` and `overhead` export
//!   with `--metrics`.
//!
//! A change that moves a digest on purpose updates the constant and
//! explains the move in CHANGES.md. A change that only cuts work moves the
//! mechanism digest alone; one that moves an outcome changes decisions.

use serde::Serialize;
use spms_experiments::{
    ChurnExperiment, NullProgress, OverheadExperiment, RtaCacheBenchmark, RtaCacheTiming,
};
use spms_overhead::{CostModelSpec, CrpdCostModel};
use spms_task::fnv1a;
use spms_telemetry::{MetricClass, Registry, SnapshotFilter};

fn digest<T: Serialize>(value: &T) -> u64 {
    fnv1a(
        serde_json::to_string(value)
            .expect("results serialize")
            .as_bytes(),
    )
}

/// The (outcome, mechanism) sections of a registry's deterministic
/// snapshot, rendered as Prometheus text.
fn metrics_rendered(registry: &Registry) -> (String, String) {
    let outcome = registry.snapshot(SnapshotFilter::ShardInvariant);
    let mut mechanism = registry.snapshot(SnapshotFilter::Deterministic);
    mechanism
        .entries
        .retain(|entry| MetricClass::of_name(&entry.name) == Some(MetricClass::Mechanism));
    (outcome.render_prometheus(), mechanism.render_prometheus())
}

/// The (outcome, mechanism) digests of a registry's deterministic section.
fn metrics_digests(registry: &Registry) -> (u64, u64) {
    let (outcome, mechanism) = metrics_rendered(registry);
    (fnv1a(outcome.as_bytes()), fnv1a(mechanism.as_bytes()))
}

/// Pins both sections; a mismatch prints the rendered section, so the
/// failure names the counter that moved.
fn assert_metrics_golden(what: &str, registry: &Registry, outcome: u64, mechanism: u64) {
    let (got_outcome, got_mechanism) = metrics_rendered(registry);
    assert_rendered_golden(&format!("{what} outcome metrics"), &got_outcome, outcome);
    assert_rendered_golden(
        &format!("{what} mechanism metrics"),
        &got_mechanism,
        mechanism,
    );
}

fn assert_rendered_golden(what: &str, rendered: &str, want: u64) {
    let got = fnv1a(rendered.as_bytes());
    assert_eq!(
        got, want,
        "{what}: digest {got:#018x}, pinned {want:#018x}; rendered:\n{rendered}"
    );
}

fn assert_golden(what: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{what}: digest {got:#018x}, pinned {want:#018x}");
}

/// `spms online --events 40 --sets-per-point 2 --points 0.6,0.8`.
fn online_smoke() -> ChurnExperiment {
    ChurnExperiment::new()
        .events_per_trace(40)
        .traces_per_point(2)
        .utilization_points(vec![0.6, 0.8])
        .threads(2)
}

#[test]
fn online_smoke_grid_is_pinned() {
    let run = online_smoke().run_full_with_progress(&NullProgress);
    assert_golden(
        "online results",
        digest(&run.results),
        0x7465_5ae2_ae05_800a,
    );
    assert_metrics_golden(
        "online",
        &run.metrics,
        0xa200_bfa0_b734_8fa0,
        0xdde4_b1b7_9c57_6e1a,
    );
    // `--cost-model crpd`: every arrival of this grid is admitted whole on
    // the fast path, so no migration is ever charged and the charged run
    // reports exactly what the free one does.
    let crpd = online_smoke()
        .cost_model(CostModelSpec::Crpd(CrpdCostModel::mixed()))
        .run_full_with_progress(&NullProgress);
    assert_eq!(digest(&crpd.results), digest(&run.results));
    assert_eq!(
        metrics_digests(&crpd.metrics),
        metrics_digests(&run.metrics)
    );
}

/// `spms online --events 120 --sets-per-point 2 --points 0.6,0.8
/// --cost-model crpd`: the CI grid that must charge migrations.
#[test]
fn charged_online_grid_is_pinned() {
    let run = ChurnExperiment::new()
        .events_per_trace(120)
        .traces_per_point(2)
        .utilization_points(vec![0.6, 0.8])
        .cost_model(CostModelSpec::Crpd(CrpdCostModel::mixed()))
        .threads(2)
        .run_full_with_progress(&NullProgress);
    assert_golden(
        "charged online results",
        digest(&run.results),
        0xac52_240c_f762_5705,
    );
    assert!(
        run.results
            .points()
            .iter()
            .any(|p| p.inflation_us_per_admission > 0.0),
        "the charged grid must charge at least one migration"
    );
}

#[test]
fn overhead_smoke_grid_is_pinned() {
    let run = OverheadExperiment::new()
        .events_per_trace(40)
        .traces_per_point(2)
        .utilization_points(vec![0.6, 0.9])
        .threads(2)
        .run_full_with_progress(&NullProgress);
    assert_golden(
        "overhead results",
        digest(&run.results),
        0x3f80_86b6_7bfd_276e,
    );
    assert_metrics_golden(
        "overhead",
        &run.metrics,
        0x4dc2_fe87_b74b_e7bf,
        0xb07e_0476_8856_3a31,
    );
}

#[test]
fn rtabench_smoke_grids_are_pinned() {
    // `spms rtabench --events 40 --sets-per-point 2 --points 0.6,0.8`.
    let mut rta = RtaCacheBenchmark::new()
        .events_per_trace(40)
        .traces_per_point(2)
        .utilization_points(vec![0.6, 0.8])
        .threads(2)
        .run();
    rta.timing = RtaCacheTiming::default();
    assert!(rta.fleet_audit_clean && rta.journal_clone_free);
    assert_golden("rtabench results", digest(&rta), 0x2396_6159_4921_1f94);

    // The repair-heavy cascade grid: `--cores 8 --events 150
    // --points 0.9,0.95 --repair-moves 3`.
    let mut cascade = RtaCacheBenchmark::new()
        .cores(8)
        .events_per_trace(150)
        .traces_per_point(2)
        .utilization_points(vec![0.9, 0.95])
        .max_repair_moves(3)
        .threads(2)
        .run();
    cascade.timing = RtaCacheTiming::default();
    assert!(cascade.fleet_audit_clean && cascade.journal_clone_free);
    assert_golden("cascade results", digest(&cascade), 0x14f2_5393_2ef5_f621);
}
