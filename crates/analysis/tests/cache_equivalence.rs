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
//! A second walk drives the in-place operations a partition's
//! renormalization uses (`insert_relabelled` / `remove_relabelled`) over a
//! core shaped like the online placer's: reserved split-piece levels (with
//! same-level peers) above dense deadline-monotonic whole levels. Every
//! insertion runs with the proof an accepting probe converged and again
//! without one, and both must equal scratch analysis. Every operation also
//! runs unrecorded (as outside a journal scope), which must return an
//! empty undo record and reach the same state.
//!
//! The vendored proptest runner is deterministically seeded, so failures
//! reproduce identically.

use proptest::collection::vec;
use proptest::prelude::*;
use spms_analysis::{rta, CachedCoreAnalysis, RefreshMark, RefreshUndo};
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

/// The first level whole tasks take; levels below it are reserved for
/// split pieces, as on the online placer's cores.
const WHOLE_BASE: u32 = 2;

#[derive(Debug, Clone)]
enum CoreOp {
    /// Add a whole task (re-ranking every whole task densely).
    Whole(Spec),
    /// Add a split piece at reserved level `level % WHOLE_BASE`.
    Piece(Spec, u32),
    /// Remove the task at `index % len` (re-ranking the whole tasks).
    Remove(usize),
}

/// Lighter tasks than [`spec`], so the core stays schedulable long enough
/// for accepting probes to outrank several entries.
fn core_op() -> impl Strategy<Value = CoreOp> {
    (0u8..8, (1u64..12, 10u64..200, Just(0u32)), 0usize..64).prop_map(|(kind, spec, index)| {
        match kind {
            0..=3 => CoreOp::Whole(spec),
            4 => CoreOp::Piece(spec, index as u32),
            _ => CoreOp::Remove(index),
        }
    })
}

/// The core's tasks ranked as a renormalization ranks them: pieces keep
/// their reserved level, whole tasks get dense levels from `WHOLE_BASE` by
/// (deadline, period, id).
fn ranked(tasks: &[Task]) -> Vec<Task> {
    let mut ranked = tasks.to_vec();
    let mut whole: Vec<&mut Task> = ranked
        .iter_mut()
        .filter(|t| rta::effective_priority(t).level() >= WHOLE_BASE)
        .collect();
    whole.sort_by_key(|t| (t.deadline(), t.period(), t.id()));
    for (rank, task) in whole.into_iter().enumerate() {
        task.set_priority(Priority::new(WHOLE_BASE + rank as u32));
    }
    ranked
}

/// The priority `id` has in `tasks`.
fn priority_in(tasks: &[Task], id: TaskId) -> Option<Priority> {
    tasks.iter().find(|t| t.id() == id).and_then(Task::priority)
}

/// Asserts the cache holds exactly `tasks` (priorities included) and
/// equals scratch analysis of them.
fn assert_holds(cache: &CachedCoreAnalysis, tasks: &[Task]) {
    prop_assert_eq!(cache.len(), tasks.len());
    for task in tasks {
        prop_assert!(
            cache.tasks().any(|t| t == task),
            "{} missing or mis-ranked",
            task.id()
        );
    }
    assert_matches_scratch(cache);
}

/// Applies the log `undo` holds to a copy of `cache` and asserts it
/// restores `before` and empties the log.
fn assert_undo_restores(
    cache: &CachedCoreAnalysis,
    mut undo: RefreshUndo,
    before: &CachedCoreAnalysis,
) {
    let mut rewound = cache.clone();
    rewound.apply_refresh_undo(&mut undo, RefreshMark::default());
    prop_assert_eq!(&rewound, before, "undo did not restore the prior state");
    prop_assert!(undo.is_empty(), "an applied record stayed in the log");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random whole/piece insertions and removals through the in-place
    /// operations, with and without probe proofs, keep the cache equal to
    /// scratch analysis of the renormalized core, and every undo restores
    /// the state before its operation.
    #[test]
    fn in_place_operations_equal_scratch(ops in vec(core_op(), 1..32)) {
        let mut tasks: Vec<Task> = Vec::new();
        let mut cache = CachedCoreAnalysis::new();
        let mut next_id = 0u32;
        for op in ops {
            let before = cache.clone();
            match op {
                CoreOp::Whole(spec) | CoreOp::Piece(spec, _) => {
                    let mut task = build_task(next_id, spec);
                    next_id += 1;
                    let piece_level = match op {
                        CoreOp::Piece(_, level) => Some(level % WHOLE_BASE),
                        _ => None,
                    };
                    task.set_priority(Priority::new(piece_level.unwrap_or(WHOLE_BASE)));
                    let mut grown = tasks.clone();
                    grown.push(task.clone());
                    let grown = ranked(&grown);
                    let task = grown.last().expect("just pushed").clone();
                    let level = rta::effective_priority(&task).level();
                    // Whole tasks have distinct levels; pieces peer with
                    // pieces on their level.
                    let mut proof = Vec::new();
                    let accepted = cache
                        .probe_candidate_with(
                            &task,
                            |t| rta::effective_priority(t).level() > level,
                            |t| piece_level.is_some() && rta::effective_priority(t).level() == level,
                            |r| proof.push(r),
                        )
                        .is_none();
                    let relabel = |t: &Task| priority_in(&grown, t.id());
                    let mut derived = cache.clone();
                    let mut undo = RefreshUndo::default();
                    prop_assert!(
                        derived.insert_relabelled(task.clone(), relabel, None, Some(&mut undo)),
                        "ranking preserves the survivors' order"
                    );
                    assert_holds(&derived, &grown);
                    assert_undo_restores(&derived, undo, &before);
                    let mut unrecorded = cache.clone();
                    prop_assert!(unrecorded.insert_relabelled(task.clone(), relabel, None, None));
                    prop_assert_eq!(&unrecorded, &derived, "recording changed the result");
                    if accepted {
                        let mut undo = RefreshUndo::default();
                        prop_assert!(
                            cache.insert_relabelled(task, relabel, Some(&proof), Some(&mut undo))
                        );
                        prop_assert_eq!(&cache, &derived, "the proof changed the result");
                        assert_undo_restores(&cache, undo, &before);
                    } else {
                        cache = derived;
                    }
                    tasks = grown;
                }
                CoreOp::Remove(index) => {
                    if tasks.is_empty() {
                        continue;
                    }
                    let id = tasks[index % tasks.len()].id();
                    tasks.retain(|t| t.id() != id);
                    tasks = ranked(&tasks);
                    let mut unrecorded = cache.clone();
                    let mut undo = RefreshUndo::default();
                    prop_assert!(
                        cache.remove_relabelled(
                            id,
                            |t| priority_in(&tasks, t.id()),
                            Some(&mut undo)
                        ),
                        "on the core, order preserved"
                    );
                    assert_holds(&cache, &tasks);
                    prop_assert!(unrecorded.remove_relabelled(
                        id,
                        |t| priority_in(&tasks, t.id()),
                        None
                    ));
                    prop_assert_eq!(&unrecorded, &cache, "recording changed the result");
                    assert_undo_restores(&cache, undo, &before);
                }
            }
        }
    }
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
    /// exactly what a scratch analysis of the core minus the removed
    /// entries plus the candidate answers, for every removal set of one,
    /// two and three residents.
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
        let ids: Vec<TaskId> = tasks.iter().map(Task::id).collect();
        let n = ids.len();
        let sets = (0..n).flat_map(|a| {
            let ids = &ids;
            std::iter::once(vec![ids[a]])
                .chain((a + 1..n).map(move |b| vec![ids[a], ids[b]]))
                .chain((a + 1..n).flat_map(move |b| {
                    (b + 1..n).map(move |c| vec![ids[a], ids[b], ids[c]])
                }))
        });
        for removed in sets {
            let probed = cache.accepts_candidate_without(
                &candidate,
                &removed,
                |t| rta::effective_priority(t).level() > level,
                |t| rta::effective_priority(t).level() == level,
            );
            let mut modified: Vec<Task> = tasks
                .iter()
                .filter(|t| !removed.contains(&t.id()))
                .cloned()
                .collect();
            modified.push(candidate.clone());
            prop_assert_eq!(
                probed,
                rta::analyse_core(&modified).schedulable,
                "eviction probe diverged removing {:?}",
                removed
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
