//! Scoped hot-path counters: a fixed set of process-global counters with
//! per-thread twins.
//!
//! Deep library code (RTA iteration caps, partition clones, placement
//! probes, journal rewinds) cannot reach the registry an engine owns —
//! plumbing a `&mut Registry` through the analysis call graph would
//! contaminate every signature. Instead those sites bump one of the
//! [`HotCounter`]s here: a relaxed process-wide atomic plus a
//! thread-local `Cell` twin, exactly the pattern `rta::cap_exhaustions`
//! and `Partition::clone_count` used individually before this crate
//! existed.
//!
//! The thread-local twin is what keeps attribution deterministic under
//! `--threads N`: an engine snapshots its thread's values
//! ([`thread_snapshot`]) before a decision and folds the
//! [`delta`](HotDeltas::since) into its own registry afterwards. Each
//! experiment cell runs on one worker thread, so the deltas an engine
//! sees are exactly its own work regardless of how cells are spread over
//! threads. The process-global twin is a debugging/bench convenience and
//! makes no determinism claim.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The fixed set of hot-path counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotCounter {
    /// RTA fixed-point iterations that hit the iteration cap.
    RtaCapExhaustions,
    /// `Partition` deep clones.
    PartitionClones,
    /// Whole-task first-fit probes (`core_accepts`-style queries).
    WholeProbes,
    /// Body-budget probes during split carving.
    SplitProbes,
    /// Probes answered by a `CachedCoreAnalysis`.
    CacheProbeHits,
    /// Probes on a core with no converged slot, whose analysis was built
    /// on the fly.
    CacheProbeMisses,
    /// Journal scopes opened (`journal_begin`).
    JournalBegins,
    /// Journal rewinds (rollbacks to a mark).
    JournalRewinds,
    /// Repair relocations answered by the failed-relocation memo instead
    /// of a fresh placement plan.
    RelocationMemoHits,
    /// Placement questions answered by the per-core utilization screen
    /// (the core would exceed 100 %) instead of an RTA probe.
    UtilizationScreens,
}

/// How many [`HotCounter`]s exist.
pub const HOT_COUNTER_COUNT: usize = 10;

/// Every hot counter, in index order.
pub const HOT_COUNTERS: [HotCounter; HOT_COUNTER_COUNT] = [
    HotCounter::RtaCapExhaustions,
    HotCounter::PartitionClones,
    HotCounter::WholeProbes,
    HotCounter::SplitProbes,
    HotCounter::CacheProbeHits,
    HotCounter::CacheProbeMisses,
    HotCounter::JournalBegins,
    HotCounter::JournalRewinds,
    HotCounter::RelocationMemoHits,
    HotCounter::UtilizationScreens,
];

impl HotCounter {
    fn index(self) -> usize {
        match self {
            HotCounter::RtaCapExhaustions => 0,
            HotCounter::PartitionClones => 1,
            HotCounter::WholeProbes => 2,
            HotCounter::SplitProbes => 3,
            HotCounter::CacheProbeHits => 4,
            HotCounter::CacheProbeMisses => 5,
            HotCounter::JournalBegins => 6,
            HotCounter::JournalRewinds => 7,
            HotCounter::RelocationMemoHits => 8,
            HotCounter::UtilizationScreens => 9,
        }
    }

    /// The registry metric name this counter feeds (mechanism class).
    pub fn metric_name(self) -> &'static str {
        match self {
            HotCounter::RtaCapExhaustions => "spms_mech_rta_cap_exhaustions_total",
            HotCounter::PartitionClones => "spms_mech_partition_clones_total",
            HotCounter::WholeProbes => "spms_mech_whole_probes_total",
            HotCounter::SplitProbes => "spms_mech_split_probes_total",
            HotCounter::CacheProbeHits => "spms_mech_cache_probe_hits_total",
            HotCounter::CacheProbeMisses => "spms_mech_cache_probe_misses_total",
            HotCounter::JournalBegins => "spms_mech_journal_begins_total",
            HotCounter::JournalRewinds => "spms_mech_journal_rewinds_total",
            HotCounter::RelocationMemoHits => "spms_mech_relocation_memo_hits_total",
            HotCounter::UtilizationScreens => "spms_mech_utilization_screens_total",
        }
    }
}

static GLOBALS: [AtomicU64; HOT_COUNTER_COUNT] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

thread_local! {
    static THREAD: [Cell<u64>; HOT_COUNTER_COUNT] =
        const { [const { Cell::new(0) }; HOT_COUNTER_COUNT] };
}

/// Adds `n` to `counter` on this thread and process-wide; returns the
/// process-wide value *before* the addition (for fire-once diagnostics).
pub fn add(counter: HotCounter, n: u64) -> u64 {
    let i = counter.index();
    THREAD.with(|cells| cells[i].set(cells[i].get() + n));
    GLOBALS[i].fetch_add(n, Ordering::Relaxed)
}

/// [`add`]s one.
pub fn bump(counter: HotCounter) -> u64 {
    add(counter, 1)
}

/// This thread's running total for `counter`.
pub fn thread_value(counter: HotCounter) -> u64 {
    THREAD.with(|cells| cells[counter.index()].get())
}

/// The process-wide running total for `counter`.
pub fn global_value(counter: HotCounter) -> u64 {
    GLOBALS[counter.index()].load(Ordering::Relaxed)
}

/// Runs `f` without counting: whatever `f` bumps is taken back from this
/// thread's counters and the process-wide ones when it returns. For
/// debug-build cross-checks, which must leave every work counter — and
/// everything derived from one, like the mechanism metrics — exactly as in
/// a release build.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let before = thread_snapshot();
    let out = f();
    let spent = before.since();
    THREAD.with(|cells| {
        for (cell, value) in cells.iter().zip(before.values) {
            cell.set(value);
        }
    });
    for (global, spent) in GLOBALS.iter().zip(spent.values) {
        global.fetch_sub(spent, Ordering::Relaxed);
    }
    out
}

/// A point-in-time copy of this thread's hot-counter values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotDeltas {
    values: [u64; HOT_COUNTER_COUNT],
}

/// Snapshots this thread's hot-counter values.
pub fn thread_snapshot() -> HotDeltas {
    let mut values = [0u64; HOT_COUNTER_COUNT];
    THREAD.with(|cells| {
        for (v, cell) in values.iter_mut().zip(cells.iter()) {
            *v = cell.get();
        }
    });
    HotDeltas { values }
}

impl HotDeltas {
    /// What this thread has counted since `self` was snapshotted
    /// (saturating at zero per counter).
    pub fn since(&self) -> HotDeltas {
        let now = thread_snapshot();
        let mut values = [0u64; HOT_COUNTER_COUNT];
        for (out, (now, then)) in values
            .iter_mut()
            .zip(now.values.iter().zip(self.values.iter()))
        {
            *out = now.saturating_sub(*then);
        }
        HotDeltas { values }
    }

    /// This delta's value for `counter`.
    pub fn get(&self, counter: HotCounter) -> u64 {
        self.values[counter.index()]
    }

    /// Iterates `(counter, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (HotCounter, u64)> + '_ {
        HOT_COUNTERS.iter().map(|&c| (c, self.get(c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The counters are process- and thread-global, so every assertion
    // here is delta-based to stay independent of test ordering.
    #[test]
    fn bumps_land_on_both_twins_and_deltas_attribute_them() {
        let before_global = global_value(HotCounter::WholeProbes);
        let before = thread_snapshot();
        bump(HotCounter::WholeProbes);
        add(HotCounter::WholeProbes, 2);
        bump(HotCounter::JournalRewinds);
        let delta = before.since();
        assert_eq!(delta.get(HotCounter::WholeProbes), 3);
        assert_eq!(delta.get(HotCounter::JournalRewinds), 1);
        assert_eq!(delta.get(HotCounter::PartitionClones), 0);
        assert_eq!(global_value(HotCounter::WholeProbes) - before_global, 3);
    }

    #[test]
    fn add_returns_the_previous_global_value() {
        let before = global_value(HotCounter::SplitProbes);
        assert_eq!(add(HotCounter::SplitProbes, 5), before);
        assert_eq!(global_value(HotCounter::SplitProbes), before + 5);
    }

    #[test]
    fn other_threads_do_not_leak_into_thread_deltas() {
        let before = thread_snapshot();
        std::thread::spawn(|| {
            add(HotCounter::CacheProbeHits, 100);
        })
        .join()
        .unwrap();
        assert_eq!(before.since().get(HotCounter::CacheProbeHits), 0);
    }

    #[test]
    fn uncounted_work_leaves_no_trace() {
        let before = thread_snapshot();
        bump(HotCounter::JournalBegins);
        let out = uncounted(|| {
            add(HotCounter::JournalBegins, 7);
            bump(HotCounter::RelocationMemoHits);
            42
        });
        assert_eq!(out, 42);
        let delta = before.since();
        assert_eq!(delta.get(HotCounter::JournalBegins), 1);
        assert_eq!(delta.get(HotCounter::RelocationMemoHits), 0);
    }

    #[test]
    fn metric_names_carry_the_mechanism_prefix() {
        for counter in HOT_COUNTERS {
            assert!(counter.metric_name().starts_with("spms_mech_"));
        }
    }
}
