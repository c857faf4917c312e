//! Property-based invariants of the online admission controller.
//!
//! The two contracts the ISSUE pins:
//!
//! * **no over-admission** — after every admission along a random churn
//!   trace, the admitted set also passes the from-scratch offline
//!   `SemiPartitionedFpTs` analysis (the controller never sneaks in a set
//!   the offline algorithm would call unschedulable);
//! * **depart-then-rearrive convergence** — removing an admitted task and
//!   re-offering it always converges back to a schedulable partition: the
//!   re-arrival is admitted and the partition passes the acceptance test.
//!
//! The vendored proptest runner is deterministically seeded, so these
//! cases reproduce identically on every run.

use proptest::prelude::*;
use spms_core::Partitioner;
use spms_online::{AdmissionController, ChurnGenerator, DecisionKind, OnlineConfig, WorkloadEvent};
use spms_task::TaskId;

/// Strategy: a churn-trace configuration over a 4-core platform with a
/// moderate-to-high target load.
fn churn_config() -> impl Strategy<Value = (f64, u64, usize)> {
    (0.45f64..0.85, any::<u64>(), 24usize..60)
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// (a) No over-admission: every admitted set also passes the offline
    /// FP-TS analysis from scratch, and the live partition is structurally
    /// valid and schedulable after every event.
    #[test]
    fn no_over_admission((target, seed, events) in churn_config()) {
        let events = trace(target, seed, events);
        let mut controller = AdmissionController::new(OnlineConfig::new(4)).unwrap();
        let offline = controller.offline_partitioner();
        for event in &events {
            let decision = controller.handle_event(event);
            prop_assert_eq!(controller.partition().validate(), Ok(()));
            prop_assert!(
                controller.partition().scratch_audit().is_ok(),
                "live partition failed the scratch RTA audit after event {}",
                decision.event_index
            );
            if decision.is_admission() {
                let admitted = controller.admitted_tasks();
                let outcome = offline.partition(&admitted, 4).unwrap();
                prop_assert!(
                    outcome.is_schedulable(),
                    "controller admitted {} tasks (U = {:.3}) that offline FP-TS rejects",
                    admitted.len(),
                    admitted.total_utilization()
                );
            }
        }
    }

    /// (b) Depart-then-rearrive converges: for every admitted task, leaving
    /// and immediately re-arriving ends in a schedulable partition that
    /// still contains the task.
    #[test]
    fn depart_then_rearrive_converges((target, seed, events) in churn_config()) {
        let events = trace(target, seed, events);
        let mut controller = AdmissionController::new(OnlineConfig::new(4)).unwrap();
        for event in &events {
            controller.handle_event(event);
        }
        let admitted = controller.admitted_tasks();
        // Exercise the cycle on every currently admitted task.
        for task in &admitted {
            let id: TaskId = task.id();
            let departed = controller.handle_event(&WorkloadEvent::Depart(id));
            prop_assert_eq!(departed.kind, DecisionKind::Departed);
            let back = controller.handle_event(&WorkloadEvent::Arrive(task.clone()));
            prop_assert!(
                back.is_admission(),
                "re-arrival of {} (u = {:.3}) was rejected",
                id,
                task.utilization()
            );
            prop_assert_eq!(controller.partition().validate(), Ok(()));
            prop_assert!(controller.partition().scratch_audit().is_ok());
        }
        prop_assert_eq!(controller.admitted_count(), admitted.len());
    }
}
