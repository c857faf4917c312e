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
//! * FNV-1a of the deterministic section (outcome and mechanism metrics)
//!   of the telemetry registry `online` and `overhead` export with
//!   `--metrics`.
//!
//! A change that moves a digest on purpose updates the constant and
//! explains the move in CHANGES.md.

use serde::Serialize;
use spms_experiments::{
    ChurnExperiment, NullProgress, OverheadExperiment, RtaCacheBenchmark, RtaCacheTiming,
};
use spms_overhead::{CostModelSpec, CrpdCostModel};
use spms_task::fnv1a;
use spms_telemetry::{Registry, SnapshotFilter};

fn digest<T: Serialize>(value: &T) -> u64 {
    fnv1a(
        serde_json::to_string(value)
            .expect("results serialize")
            .as_bytes(),
    )
}

fn metrics_digest(registry: &Registry) -> u64 {
    fnv1a(
        registry
            .snapshot(SnapshotFilter::Deterministic)
            .render_prometheus()
            .as_bytes(),
    )
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
    assert_golden(
        "online metrics",
        metrics_digest(&run.metrics),
        0xb906_7c2d_8664_a435,
    );
    // `--cost-model crpd`: every arrival of this grid is admitted whole on
    // the fast path, so no migration is ever charged and the charged run
    // reports exactly what the free one does.
    let crpd = online_smoke()
        .cost_model(CostModelSpec::Crpd(CrpdCostModel::mixed()))
        .run_full_with_progress(&NullProgress);
    assert_eq!(digest(&crpd.results), digest(&run.results));
    assert_eq!(metrics_digest(&crpd.metrics), metrics_digest(&run.metrics));
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
    assert_golden(
        "overhead metrics",
        metrics_digest(&run.metrics),
        0x0124_4d6b_80b3_3934,
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
