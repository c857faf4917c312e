//! Property-based equivalence of [`CachedCoreAnalysis`] and from-scratch
//! [`rta::analyse_core`].
//!
//! The cache's contract is *bit-identical results*: after any sequence of
//! `insert` / `remove` / renormalization-style `refresh` operations, every
//! memoized response time (and the schedulability verdict) must equal what a
//! cold `analyse_core` computes over the same tasks — warm starts and
//! level-scoped invalidation are pure optimizations. These tests drive
//! random operation sequences (with deliberately colliding priority levels,
//! the case the priority-tie fix makes interfere) and check the equivalence
//! after every step; companion properties pin the non-mutating placement
//! probes and the split-budget frontier against scratch analysis of the
//! combined assignment.
//!
//! The vendored proptest runner is deterministically seeded, so failures
//! reproduce identically.

use proptest::collection::vec;
use proptest::prelude::*;
use spms_analysis::{rta, CachedCoreAnalysis};
use spms_task::{Priority, Task, TaskId, Time};

/// A compact task spec the strategies generate: `(wcet_us, extra_period_us,
/// priority_level)`. Periods are `wcet + extra + 1` so tasks are always
/// constructible; levels are drawn from a tiny range to force ties.
type Spec = (u64, u64, u32);

fn build_task(id: u32, spec: Spec) -> Task {
    let (wcet, extra, level) = spec;
    let wcet = wcet.max(1);
    let mut task = Task::new(
        id,
        Time::from_micros(wcet),
        Time::from_micros(wcet + extra + 1),
    )
    .expect("constructible by construction");
    task.set_priority(Priority::new(level));
    task
}

fn spec() -> impl Strategy<Value = Spec> {
    (1u64..40, 0u64..120, 0u32..5)
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Spec),
    /// Remove the task at `index % len` of the current assignment.
    Remove(usize),
    /// Re-rank every task densely by (deadline, period, id) — the shape of
    /// a whole-task renormalization — and resync via `refresh`.
    Renormalize,
    /// Replace the parameters of the task at `index % len` (same id) and
    /// resync via `refresh`: exercises the cold path of the diff.
    Mutate(usize, Spec),
}

/// The shim proptest has no `prop_oneof`; a discriminant range plus
/// `prop_map` gives the same weighted choice.
fn op() -> impl Strategy<Value = Op> {
    (0u8..8, spec(), 0usize..64).prop_map(|(kind, spec, index)| match kind {
        0..=3 => Op::Insert(spec),
        4 | 5 => Op::Remove(index),
        6 => Op::Renormalize,
        _ => Op::Mutate(index, spec),
    })
}

/// Asserts the cache equals a cold `analyse_core` over its own tasks.
fn assert_matches_scratch(cache: &CachedCoreAnalysis) {
    let tasks: Vec<Task> = cache.tasks().cloned().collect();
    let scratch = rta::analyse_core(&tasks);
    prop_assert_eq!(cache.analysis(), scratch, "cache diverged from scratch");
}

/// Dense re-ranking by (deadline, period, id) — mirrors the partition's
/// whole-task renormalization without depending on `spms-core`.
fn renormalized(tasks: &[Task]) -> Vec<Task> {
    let mut ranked: Vec<Task> = tasks.to_vec();
    ranked.sort_by_key(|t| (t.deadline(), t.period(), t.id()));
    for (level, task) in ranked.iter_mut().enumerate() {
        task.set_priority(Priority::new(level as u32));
    }
    ranked
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random insert/remove/renormalize/mutate sequences keep the cache
    /// bit-identical to from-scratch analysis at every step.
    #[test]
    fn cache_equals_scratch_under_random_mutation(ops in vec(op(), 1..24)) {
        let mut cache = CachedCoreAnalysis::new();
        let mut next_id = 0u32;
        for op in ops {
            match op {
                Op::Insert(spec) => {
                    cache.insert(build_task(next_id, spec));
                    next_id += 1;
                }
                Op::Remove(index) => {
                    if !cache.is_empty() {
                        let ids: Vec<TaskId> = cache.tasks().map(Task::id).collect();
                        let id = ids[index % ids.len()];
                        prop_assert!(cache.remove(id).is_some());
                    }
                }
                Op::Renormalize => {
                    let tasks: Vec<Task> = cache.tasks().cloned().collect();
                    cache.refresh(&renormalized(&tasks));
                }
                Op::Mutate(index, spec) => {
                    if !cache.is_empty() {
                        let mut tasks: Vec<Task> = cache.tasks().cloned().collect();
                        let slot = index % tasks.len();
                        let id = tasks[slot].id().0;
                        tasks[slot] = build_task(id, spec);
                        cache.refresh(&tasks);
                    }
                }
            }
            assert_matches_scratch(&cache);
        }
    }

    /// The non-mutating what-if probe answers exactly what a scratch
    /// analysis of the combined assignment answers, and leaves the cache
    /// untouched.
    #[test]
    fn prioritised_probe_equals_scratch(
        existing in vec(spec(), 0..8),
        candidate in spec(),
    ) {
        let tasks: Vec<Task> = existing
            .iter()
            .enumerate()
            .map(|(i, s)| build_task(i as u32, *s))
            .collect();
        let cache = CachedCoreAnalysis::from_tasks(&tasks);
        let candidate = build_task(1000, candidate);

        let snapshot = cache.clone();
        let probed = cache.accepts_prioritised(&candidate);
        prop_assert_eq!(&cache, &snapshot, "probe mutated the cache");

        let mut combined = tasks.clone();
        combined.push(candidate);
        prop_assert_eq!(probed, rta::is_core_schedulable(&combined));
    }

    /// The eviction what-if probe (`accepts_candidate_without`) answers
    /// exactly what a scratch analysis of the core minus the victim plus
    /// the candidate answers, for every victim.
    #[test]
    fn eviction_probe_equals_scratch(
        existing in vec(spec(), 1..8),
        candidate in spec(),
    ) {
        let tasks: Vec<Task> = existing
            .iter()
            .enumerate()
            .map(|(i, s)| build_task(i as u32, *s))
            .collect();
        let cache = CachedCoreAnalysis::from_tasks(&tasks);
        let candidate = build_task(1000, candidate);
        let level = rta::effective_priority(&candidate).level();
        for victim in &tasks {
            let probed = cache.accepts_candidate_without(
                &candidate,
                victim.id(),
                |t| rta::effective_priority(t).level() > level,
                |t| rta::effective_priority(t).level() == level,
            );
            let mut modified: Vec<Task> = tasks
                .iter()
                .filter(|t| t.id() != victim.id())
                .cloned()
                .collect();
            modified.push(candidate.clone());
            prop_assert_eq!(
                probed,
                rta::is_core_schedulable(&modified),
                "eviction probe diverged for victim {}",
                victim.id()
            );
        }
    }

    /// The split-budget frontier is exactly where a from-scratch analysis
    /// of the combined core flips: a `C = D` piece of the frontier WCET is
    /// schedulable, one nanosecond more is not (below the cap), and a zero
    /// frontier means even the smallest piece is rejected.
    #[test]
    fn frontier_is_the_exact_acceptance_boundary(
        existing in vec(spec(), 0..8),
        candidate_level in 0u32..3,
        floor_ns in 1u64..1_000,
        cap_us in 1u64..200,
        period_us in 1u64..100,
    ) {
        let tasks: Vec<Task> = existing
            .iter()
            .enumerate()
            .map(|(i, s)| build_task(i as u32, *s))
            .collect();
        let cache = CachedCoreAnalysis::from_tasks(&tasks);
        // Short candidate periods make entries see several of its jobs.
        let period = Time::from_micros(period_us);
        let piece = |wcet: Time| {
            Task::builder(1000)
                .wcet(wcet)
                .period(period)
                .deadline(wcet)
                .priority(Priority::new(candidate_level))
                .build()
                .expect("constructible by construction")
        };
        let cap = Time::from_micros(cap_us);
        let floor = Time::from_nanos(floor_ns);
        let frontier = cache
            .max_prioritised_wcet(&piece(floor), cap)
            .expect("microsecond periods stay far below the iteration cap");
        let schedulable_with = |wcet: Time| {
            let mut combined = tasks.clone();
            combined.push(piece(wcet));
            rta::is_core_schedulable(&combined)
        };
        prop_assert!(frontier <= cap.min(period));
        if !frontier.is_zero() {
            prop_assert!(frontier >= floor);
            prop_assert!(schedulable_with(frontier), "frontier {} rejected", frontier);
        }
        let above = frontier.max(floor - Time::from_nanos(1)) + Time::from_nanos(1);
        if above <= cap.min(period) {
            prop_assert!(!schedulable_with(above), "{} above the frontier accepted", above);
        }
    }

    /// Insert followed by remove of the same task restores the cache to its
    /// previous state exactly (responses included).
    #[test]
    fn insert_remove_round_trips(
        existing in vec(spec(), 0..8),
        extra in spec(),
    ) {
        let tasks: Vec<Task> = existing
            .iter()
            .enumerate()
            .map(|(i, s)| build_task(i as u32, *s))
            .collect();
        let mut cache = CachedCoreAnalysis::from_tasks(&tasks);
        let before = cache.clone();
        cache.insert(build_task(1000, extra));
        assert_matches_scratch(&cache);
        prop_assert!(cache.remove(TaskId(1000)).is_some());
        prop_assert_eq!(cache, before);
    }
}
