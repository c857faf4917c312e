//! Property-based contracts of the migration cost model.
//!
//! * **ZeroCost is byte-free** — under the free model, the serialized
//!   decision log is byte-identical to the pre-cost-model (PR 6) format:
//!   reconstructing each log line with the old two-field `Admitted` schema
//!   reproduces the exact bytes, and no `inflation` entry ever appears.
//! * **Rejections restore inflated WCETs exactly** — under a charged model,
//!   the repair pass speculatively commits *inflated* analysis WCETs; a
//!   rejection must rewind the journal to a bit-identical partition. (The
//!   partition-level rewind-vs-clone oracle for inflated pieces lives in
//!   `spms-core`'s `journal_rollback` proptests.)
//!
//! The vendored proptest runner is deterministically seeded, so these
//! cases reproduce identically on every run.

use proptest::prelude::*;
use spms_online::{AdmissionController, ChurnGenerator, DecisionKind, OnlineConfig, WorkloadEvent};
use spms_overhead::{CostModelSpec, CrpdCostModel};

/// Strategy: a churn-trace configuration over a 4-core platform, skewed
/// high enough to exercise split, repair and rejection paths.
fn churn_config() -> impl Strategy<Value = (f64, u64, usize)> {
    (0.55f64..0.95, any::<u64>(), 24usize..60)
}

fn trace(target: f64, seed: u64, events: usize) -> Vec<WorkloadEvent> {
    ChurnGenerator::new()
        .cores(4)
        .target_normalized_utilization(target)
        .events(events)
        .seed(seed)
        .generate()
        .expect("valid churn configuration")
}

/// Serializes one decision the way PR 6 did: `Admitted` carries only
/// `path` and `migrations`. Any inflation leaking into a ZeroCost log
/// breaks the byte-for-byte comparison against this reconstruction.
fn legacy_line(d: &spms_online::Decision) -> String {
    let kind = match d.kind {
        DecisionKind::Admitted {
            path, migrations, ..
        } => format!(r#"{{"Admitted":{{"path":"{path:?}","migrations":{migrations}}}}}"#),
        DecisionKind::Rejected { reason } => {
            format!(r#"{{"Rejected":{{"reason":"{reason:?}"}}}}"#)
        }
        DecisionKind::Departed => String::from(r#""Departed""#),
        DecisionKind::DepartUnknown => String::from(r#""DepartUnknown""#),
        DecisionKind::RenewNoted => String::from(r#""RenewNoted""#),
        DecisionKind::EvictedOnFailure => panic!("fault-free run evicted a task"),
    };
    format!(
        r#"{{"event_index":{},"task":{},"kind":{kind}}}"#,
        d.event_index, d.task.0
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// ZeroCost decision logs serialize byte-identically to the
    /// pre-cost-model format on random churn traces.
    #[test]
    fn zero_cost_logs_are_byte_identical_to_the_legacy_format(
        (target, seed, events) in churn_config()
    ) {
        let events = trace(target, seed, events);
        let config = OnlineConfig::builder()
            .cores(4)
            .cost_model(CostModelSpec::Zero)
            .build();
        prop_assert!(config.cost_model.is_zero());
        let mut controller = AdmissionController::new(config).unwrap();
        for event in &events {
            let decision = controller.handle_event(event);
            let json = serde_json::to_string(&decision).unwrap();
            prop_assert!(
                !json.contains("inflation"),
                "ZeroCost log leaked an inflation entry: {json}"
            );
            prop_assert_eq!(json, legacy_line(&decision));
        }
        // And every admission really was charge-free.
        prop_assert_eq!(controller.stats().inflation_charged_ns, 0);
    }

    /// Under a charged model, every rejection rewinds the speculative
    /// inflated placements to a bit-identical partition.
    #[test]
    fn rejections_restore_inflated_wcets_exactly(
        (target, seed, events) in churn_config()
    ) {
        let events = trace(target, seed, events);
        let config = OnlineConfig::builder()
            .cores(4)
            .cost_model(CostModelSpec::Crpd(CrpdCostModel::mixed()))
            .build();
        let mut controller = AdmissionController::new(config).unwrap();
        for event in &events {
            let before = controller.partition().clone();
            let decision = controller.handle_event(event);
            if matches!(decision.kind, DecisionKind::Rejected { .. }) {
                prop_assert_eq!(
                    controller.partition(),
                    &before,
                    "a rejected arrival left inflated WCETs behind"
                );
            }
        }
        prop_assert_eq!(controller.partition().validate(), Ok(()));
    }
}
