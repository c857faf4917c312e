//! Cross-commit decision pins for the repair cascade and the fast path.
//!
//! Every other determinism test compares two runs of the *same* build.
//! These compare against constants: a seeded bursty trace with heavy
//! CRPD migration costs, repair bound 2 and the full-repartition fallback
//! on, driven through a 1-shard service and through a 4-shard service with
//! cross-shard splitting; and a light Poisson trace with leases on, where
//! every arrival takes the fast whole path and lease expirations scheduled
//! at run time interleave with the loaded trace. Each decision log is
//! folded into an FNV-1a digest (over the `Debug` rendering of every
//! decision, the same digest the admission benchmark reports) and asserted
//! against a constant recorded before the pinned mechanics last changed;
//! the fast-path run pins the processed event log the same way. A change
//! that only makes admission cheaper must leave every digest untouched; a
//! change that alters decisions must update the constants deliberately
//! and say why.

use std::fmt::{self, Write as _};

use spms_online::{
    ChurnFamily, ChurnGenerator, DecisionPath, EventLoop, EventLoopConfig, OnlineConfig,
    ShardedAdmission,
};
use spms_overhead::{CostModelSpec, CrpdCostModel};
use spms_task::Time;

/// Digest of the 1-shard run (8 cores).
const SOLO_DIGEST: u64 = 0x2756_48fa_d6e9_2f7f;
/// Digest of the 4-shard cross-shard run (8 cores).
const FLEET_DIGEST: u64 = 0xcf21_b5ba_5dd2_dd43;

/// Decision digest of the leased fast-path run (8 cores, 1 shard).
const FAST_DIGEST: u64 = 0x284e_f367_7736_4576;
/// Digest of the leased fast-path run's processed event log.
const FAST_EVENTS_DIGEST: u64 = 0x89fb_8636_c791_0f21;

const CORES: usize = 8;
const SEED: u64 = 101;

/// FNV-1a over the `Debug` rendering of every item, streamed.
fn digest<T: fmt::Debug>(items: &[T]) -> u64 {
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
    for item in items {
        write!(fnv, "{item:?};").expect("hashing never fails");
    }
    fnv.0
}

/// Runs the pinned trace through a fresh `shards`-shard service.
fn run(shards: usize, events: usize) -> ShardedAdmission {
    let trace = ChurnGenerator::new()
        .cores(CORES)
        .target_normalized_utilization(0.9)
        .events(events)
        .family(ChurnFamily::Bursty)
        .seed(SEED)
        .generate_timed()
        .expect("valid churn configuration");
    let config = OnlineConfig::builder()
        .cores(CORES)
        .max_repair_moves(2)
        .fallback(true)
        .cost_model(CostModelSpec::Crpd(CrpdCostModel::heavy()))
        .cross_shard_split(shards > 1)
        .build();
    let mut service = ShardedAdmission::new(config, shards).expect("valid shard count");
    let mut event_loop = EventLoop::new(
        EventLoopConfig::new(SEED)
            .with_rebalance_period(Some(Time::from_millis(250)))
            .with_rebalance_max_moves(4),
    );
    event_loop.load_trace(&trace);
    event_loop.run(&mut service);
    service
}

/// Every probe of the run read a converged cache slot: the on-the-fly
/// analysis arm of `Partition::core_analysis` never ran.
fn assert_every_probe_hit_the_cache(service: &ShardedAdmission) {
    let registry = service.merged_metrics_registry();
    let misses = registry.counter_by_name("spms_mech_cache_probe_misses_total");
    assert!(
        misses.unwrap_or(0) == 0,
        "probes built an analysis on the fly: {misses:?}"
    );
    let hits = registry.counter_by_name("spms_mech_cache_probe_hits_total");
    assert!(hits.is_some_and(|hits| hits > 0), "no probe read the cache");
}

fn repairs(service: &ShardedAdmission) -> usize {
    service
        .decisions()
        .iter()
        .filter(|d| {
            matches!(
                d.kind,
                spms_online::DecisionKind::Admitted {
                    path: DecisionPath::Repair,
                    ..
                }
            )
        })
        .count()
}

#[test]
fn solo_service_repair_cascade_digest_is_pinned() {
    let service = run(1, 3_000);
    assert!(repairs(&service) > 0, "the trace must exercise repair");
    assert!(service.stats().decisions.full_repartitions > 0);
    let memo_hits = service
        .merged_metrics_registry()
        .counter_by_name("spms_mech_relocation_memo_hits_total");
    assert!(
        memo_hits.is_some_and(|hits| hits > 0),
        "the trace must exercise the failed-relocation memo"
    );
    assert_every_probe_hit_the_cache(&service);
    assert_eq!(
        digest(service.decisions()),
        SOLO_DIGEST,
        "1-shard decision digest changed: {:#018x}",
        digest(service.decisions())
    );
}

#[test]
fn cross_shard_service_repair_cascade_digest_is_pinned() {
    let service = run(4, 3_000);
    assert!(repairs(&service) > 0, "the trace must exercise repair");
    assert!(service.stats().cross_shard_admissions > 0);
    assert_every_probe_hit_the_cache(&service);
    assert_eq!(
        digest(service.decisions()),
        FLEET_DIGEST,
        "4-shard decision digest changed: {:#018x}",
        digest(service.decisions())
    );
}

/// The fast path under leases: Poisson U = 0.4, zero migration cost, one
/// shard, a rebalance tick every 250 ms and a 400 ms lease, so the loop
/// merges expirations it schedules while running with the loaded trace.
#[test]
fn leased_fast_path_digests_are_pinned() {
    let trace = ChurnGenerator::new()
        .cores(CORES)
        .target_normalized_utilization(0.4)
        .events(4_000)
        .family(ChurnFamily::Poisson)
        .seed(SEED)
        .generate_timed()
        .expect("valid churn configuration");
    let config = OnlineConfig::builder()
        .cores(CORES)
        .max_repair_moves(2)
        .fallback(true)
        .build();
    let mut service = ShardedAdmission::new(config, 1).expect("valid shard count");
    let mut event_loop = EventLoop::new(
        EventLoopConfig::new(SEED)
            .with_rebalance_period(Some(Time::from_millis(250)))
            .with_rebalance_max_moves(4)
            .with_lease(Some(Time::from_millis(400)))
            .with_event_log(true),
    );
    event_loop.load_trace(&trace);
    event_loop.run(&mut service);

    let stats = service.stats();
    assert!(stats.lease_expirations > 0, "leases must expire mid-trace");
    assert!(stats.rebalance_ticks > 0);
    assert_eq!(
        stats.decisions.fast_whole as usize,
        service
            .decisions()
            .iter()
            .filter(|d| d.is_admission())
            .count(),
        "every admission takes the fast whole path"
    );
    assert_every_probe_hit_the_cache(&service);
    assert_eq!(
        digest(service.decisions()),
        FAST_DIGEST,
        "fast-path decision digest changed: {:#018x}",
        digest(service.decisions())
    );
    assert_eq!(
        digest(event_loop.event_log()),
        FAST_EVENTS_DIGEST,
        "fast-path event-log digest changed: {:#018x}",
        digest(event_loop.event_log())
    );
}
