//! Heap-allocation budgets of the admission service.
//!
//! A counting global allocator wraps `System` and counts, per thread, every
//! allocation and reallocation. Four budgets are pinned:
//!
//! * **A fast-path decision.** A fast-path-shaped churn trace (8 cores,
//!   one shard, Poisson arrivals at normalized utilization 0.4, zero
//!   migration cost, repair bound 2, fallback on, a rebalance tick every
//!   250 ms moving at most 4 tasks: the admission benchmark's `fastpath`
//!   workload at a smaller size) runs through the event loop, and an
//!   observer charges the allocations made since the previous decision to
//!   the decision just made (so a rebalance tick's land on the next one).
//!   Once the first 1 000 decisions have warmed every buffer up, an
//!   admission may allocate at most 2 times on average and a departure at
//!   most 0.25 times.
//! * **A rejected arrival.** A saturated-shaped trace (8 cores, one shard,
//!   bursty arrivals at 0.9, heavy cache-reload migration cost, repair
//!   bound 2) with the full-repartition fallback off, so a rejection has
//!   run fast whole, fast split and bounded repair, and nothing else.
//!   After the warm-up, such a rejection may allocate at most 30 times on
//!   average: the failing plans, victim searches and journal rewinds of
//!   repair reuse their buffers. It measures 3.78 (2 299 allocations over
//!   608 rejections), down from 7.22 before repair looked one move ahead
//!   and stopped relocating victims that no partner eviction can complete.
//! * **A rejection after a full repartition.** The same saturated-shaped
//!   trace with the fallback on, so every rejection for want of a
//!   placement has also run the offline FP-TS pass over the admitted set
//!   plus the arrival and seen it fail. After the warm-up, such a
//!   rejection may allocate at most 60 times on average: the pass copies
//!   its input once, reuses one buffer for the pieces of every task and
//!   offers cores by range instead of collecting candidate lists, so what
//!   is left is mostly the bins and per-core analyses each pass builds.
//!   It measures 38.83 (20 932 over 539), down from 39.83: the failing
//!   pass no longer formats a reason the fallback never reads (46.13
//!   before the repair look-ahead above and a duplicate-id check that no
//!   longer builds a hash set on every pass).
//! * **A rebalance tick.** A fleet-shaped service (16 cores, 4 shards,
//!   Poisson arrivals at 0.85, cross-shard splits on) is rebalanced with a
//!   budget of 4 moves after every 20th event. A tick may allocate at most
//!   4 times on average: it looks tasks up as it needs them instead of
//!   copying the resident set first.
//!
//! Debug builds run cross-checks that allocate (for example the full
//! re-ranking `renormalize_core_priorities` compares against), so the
//! tests only run in release mode: `cargo test --release --test
//! alloc_budget`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spms_online::{
    ChurnFamily, ChurnGenerator, DecisionKind, EventLoop, EventLoopConfig, OnlineConfig,
    RejectionReason, ShardedAdmission,
};
use spms_overhead::{CostModelSpec, CrpdCostModel};
use spms_task::Time;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting this thread's allocations and reallocations.
struct Counting;

fn count() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Decisions left out of the budget while buffers grow to their working
/// size.
const WARM_UP: usize = 1_000;

#[derive(Debug, Default)]
struct Tally {
    decisions: u64,
    allocations: u64,
}

impl Tally {
    fn per_decision(&self) -> f64 {
        self.allocations as f64 / self.decisions as f64
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug cross-checks allocate; run in release"
)]
fn a_fast_path_decision_stays_within_its_allocation_budget() {
    let trace = ChurnGenerator::new()
        .cores(8)
        .target_normalized_utilization(0.4)
        .events(4_000)
        .family(ChurnFamily::Poisson)
        .seed(7)
        .generate_timed()
        .expect("valid churn configuration");
    let config = OnlineConfig::builder()
        .cores(8)
        .max_repair_moves(2)
        .fallback(true)
        .build();
    let mut service = ShardedAdmission::new(config, 1).expect("valid shard count");
    let mut event_loop = EventLoop::new(
        EventLoopConfig::new(7)
            .with_rebalance_period(Some(Time::from_millis(250)))
            .with_rebalance_max_moves(4),
    );
    event_loop.load_trace(&trace);

    let (mut admitted, mut departed) = (Tally::default(), Tally::default());
    let mut seen = 0usize;
    let mut last = allocations();
    event_loop.run_with(&mut service, |_, decision| {
        let now = allocations();
        let spent = now - last;
        last = now;
        seen += 1;
        if seen <= WARM_UP {
            return;
        }
        let tally = match decision.kind {
            DecisionKind::Admitted { .. } => &mut admitted,
            DecisionKind::Departed => &mut departed,
            _ => return,
        };
        tally.decisions += 1;
        tally.allocations += spent;
    });

    assert!(admitted.decisions > 1_000 && departed.decisions > 1_000);
    assert_eq!(
        service.stats().decisions.fast_whole as usize,
        service
            .decisions()
            .iter()
            .filter(|d| d.is_admission())
            .count(),
        "every admission takes the fast whole path"
    );
    assert!(
        admitted.per_decision() <= 2.0,
        "{:.2} allocations per admission ({admitted:?})",
        admitted.per_decision()
    );
    assert!(
        departed.per_decision() <= 0.25,
        "{:.2} allocations per departure ({departed:?})",
        departed.per_decision()
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug cross-checks allocate; run in release"
)]
fn a_rejected_arrival_stays_within_its_allocation_budget() {
    let trace = ChurnGenerator::new()
        .cores(8)
        .target_normalized_utilization(0.9)
        .events(6_000)
        .family(ChurnFamily::Bursty)
        .seed(7)
        .generate_timed()
        .expect("valid churn configuration");
    let config = OnlineConfig::builder()
        .cores(8)
        .max_repair_moves(2)
        .fallback(false)
        .cost_model(CostModelSpec::Crpd(CrpdCostModel::heavy()))
        .build();
    let mut service = ShardedAdmission::new(config, 1).expect("valid shard count");
    let mut event_loop = EventLoop::new(
        EventLoopConfig::new(7)
            .with_rebalance_period(Some(Time::from_millis(250)))
            .with_rebalance_max_moves(4),
    );
    event_loop.load_trace(&trace);

    let mut rejected = Tally::default();
    let mut seen = 0usize;
    let mut last = allocations();
    event_loop.run_with(&mut service, |_, decision| {
        let now = allocations();
        let spent = now - last;
        last = now;
        seen += 1;
        if seen > WARM_UP
            && decision.kind
                == (DecisionKind::Rejected {
                    reason: RejectionReason::NoFeasiblePlacement,
                })
        {
            rejected.decisions += 1;
            rejected.allocations += spent;
        }
    });

    let stats = service.stats().decisions;
    assert!(
        rejected.decisions > 300 && stats.repairs > 0,
        "the trace must reject after repair and repair must succeed too ({rejected:?})"
    );
    assert!(
        rejected.per_decision() <= 30.0,
        "{:.2} allocations per rejected arrival ({rejected:?})",
        rejected.per_decision()
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug cross-checks allocate; run in release"
)]
fn a_rejection_after_a_full_repartition_stays_within_its_allocation_budget() {
    let trace = ChurnGenerator::new()
        .cores(8)
        .target_normalized_utilization(0.9)
        .events(6_000)
        .family(ChurnFamily::Bursty)
        .seed(7)
        .generate_timed()
        .expect("valid churn configuration");
    let config = OnlineConfig::builder()
        .cores(8)
        .max_repair_moves(2)
        .fallback(true)
        .cost_model(CostModelSpec::Crpd(CrpdCostModel::heavy()))
        .build();
    let mut service = ShardedAdmission::new(config, 1).expect("valid shard count");
    let mut event_loop = EventLoop::new(
        EventLoopConfig::new(7)
            .with_rebalance_period(Some(Time::from_millis(250)))
            .with_rebalance_max_moves(4),
    );
    event_loop.load_trace(&trace);

    // One shard holds no cross-shard parents, so the fallback is never
    // withheld: every rejection for want of a placement ran FP-TS.
    let mut rejected = Tally::default();
    let mut seen = 0usize;
    let mut last = allocations();
    event_loop.run_with(&mut service, |_, decision| {
        let now = allocations();
        let spent = now - last;
        last = now;
        seen += 1;
        if seen > WARM_UP
            && decision.kind
                == (DecisionKind::Rejected {
                    reason: RejectionReason::NoFeasiblePlacement,
                })
        {
            rejected.decisions += 1;
            rejected.allocations += spent;
        }
    });

    let stats = service.stats().decisions;
    assert!(
        rejected.decisions > 300 && stats.full_repartitions > 0,
        "the trace must reject after the fallback and the fallback must admit too ({rejected:?})"
    );
    assert!(
        rejected.per_decision() <= 60.0,
        "{:.2} allocations per rejection after a full repartition ({rejected:?})",
        rejected.per_decision()
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug cross-checks allocate; run in release"
)]
fn a_rebalance_tick_stays_within_its_allocation_budget() {
    let events = ChurnGenerator::new()
        .cores(16)
        .target_normalized_utilization(0.85)
        .events(8_000)
        .family(ChurnFamily::Poisson)
        .seed(101)
        .generate()
        .expect("valid churn configuration");
    let config = OnlineConfig::builder()
        .cores(16)
        .max_repair_moves(2)
        .fallback(true)
        .cross_shard_split(true)
        .build();
    let mut service = ShardedAdmission::new(config, 4).expect("valid shard count");

    let mut ticks = Tally::default();
    let mut moves = 0;
    for (i, event) in events.iter().enumerate() {
        service.handle_event(event);
        if (i + 1) % 20 != 0 {
            continue;
        }
        let before = allocations();
        moves += service.rebalance(4);
        if i >= WARM_UP {
            ticks.decisions += 1;
            ticks.allocations += allocations() - before;
        }
    }

    assert!(moves > 0, "the fleet must rebalance at least once");
    assert!(
        ticks.per_decision() <= 4.0,
        "{:.2} allocations per rebalance tick ({ticks:?})",
        ticks.per_decision()
    );
}
