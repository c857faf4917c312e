//! Property-based contract of the [`Partition`] mutation journal.
//!
//! The journal's promise is that `rewind(mark)` restores the partition —
//! placements, priorities *and* the attached [`CachedCoreAnalysis`] state —
//! bit-identically to a snapshot clone taken at the mark, after any
//! sequence of `place` / `remove_parent` / `renormalize_core_priorities`
//! mutations, including nested marks. These tests drive random mutation
//! sequences against a cache-carrying partition and compare the rewound
//! state against a clone field by field (the cache comparison goes
//! through `cached_core`, which only answers on converged state, so
//! staleness markers are covered too). The mutations cover every shape
//! the admission cascade commits: whole placements, split chains (body +
//! tail linked by `next_core`) and pieces whose analysis WCET carries a
//! migration-charge inflation over their execution budget.
//!
//! The same sequences pin the per-core generation contract: a rewind
//! restores every core's generation exactly, and two states of one
//! partition that share a core's generation have identical placements and
//! cached analysis on that core — the invariant that lets callers memoize
//! per-core work under a generation. The per-core utilization the
//! partition keeps beside each generation is checked the same way: after
//! every step it is bit-equal to a fresh bin-order sum over the core.
//!
//! The vendored proptest runner is deterministically seeded, so failures
//! reproduce identically.

use std::collections::HashMap;

use proptest::collection::vec;
use proptest::prelude::*;
use spms_analysis::CachedCoreAnalysis;
use spms_core::{
    CacheAuditVerdict, CoreId, Partition, PlacedTask, SplitInfo, SubtaskKind, BODY_PRIORITY,
    TAIL_PRIORITY,
};
use spms_task::{Priority, Task, Time};

/// A compact task spec: `(wcet_us, extra_period_us)`; periods are
/// `wcet + extra + 1` so tasks are always constructible.
type Spec = (u64, u64);

fn build_task(id: u32, spec: Spec) -> Task {
    let (wcet, extra) = spec;
    let wcet = wcet.max(1);
    Task::new(
        id,
        Time::from_micros(wcet),
        Time::from_micros(wcet + extra + 1),
    )
    .expect("constructible by construction")
}

#[derive(Debug, Clone)]
enum Op {
    /// Place a fresh whole task on core `core % cores` and renormalize
    /// (the shape of every fast-path commit).
    Place(usize, Spec),
    /// Remove the parent at `index % placed-parents` (departure shape:
    /// removal renormalizes internally).
    Remove(usize),
    /// Renormalize core `core % cores` on its own.
    Renormalize(usize),
    /// Split a fresh task into a body on core `core % cores` and a tail on
    /// the next core, linked by `next_core`, each piece inflated by
    /// `extra` µs of migration charge (the shape of a fast-split commit).
    /// A no-op on a single core.
    Split(usize, Spec, u64),
    /// Place a fresh whole task whose analysis WCET exceeds its execution
    /// budget by up to `extra` µs (the shape of a charged repair
    /// relocation).
    Inflated(usize, Spec, u64),
    /// Place a fresh whole task on core `core % cores` *without*
    /// renormalizing, leaving the core's cache slot stale until a later
    /// renormalization or removal touches it.
    Unsynced(usize, Spec),
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..12, 0usize..64, (1u64..40, 0u64..120), 1u64..10).prop_map(|(kind, index, spec, extra)| {
        match kind {
            0..=3 => Op::Place(index, spec),
            4 | 5 => Op::Remove(index),
            6 => Op::Renormalize(index),
            7 | 8 => Op::Split(index, spec, extra),
            9 | 10 => Op::Inflated(index, spec, extra),
            _ => Op::Unsynced(index, spec),
        }
    })
}

fn us(micros: u64) -> Time {
    Time::from_micros(micros)
}

/// One analysis piece of a split chain: `wcet` µs, the parent's period,
/// `deadline` µs and the reserved piece `priority`.
fn piece_task(id: u32, wcet: u64, period: Time, deadline: u64, priority: Priority) -> Task {
    Task::builder(id)
        .wcet(us(wcet))
        .period(period)
        .deadline(us(deadline))
        .priority(priority)
        .build()
        .expect("piece parameters are valid by construction")
}

/// Places task `id` (built from `spec`) as a two-piece split chain: a
/// `C = D` body on `body_core`, then the tail on `tail_core` released when
/// the body's analysis budget runs out. Both pieces absorb `extra` µs of
/// inflation, clamped so the chain still fits the parent's deadline.
fn place_split(
    partition: &mut Partition,
    body_core: CoreId,
    tail_core: CoreId,
    id: u32,
    spec: Spec,
    extra: u64,
) {
    let parent = build_task(id, spec);
    let wcet = (parent.wcet().as_nanos() / 1_000).max(2);
    let deadline = parent.deadline().as_nanos() / 1_000;
    let extra = extra.min(deadline.saturating_sub(wcet) / 2);
    let budget = wcet / 2;
    let body_wcet = budget + extra;
    let tail_wcet = wcet - budget + extra;
    let body = PlacedTask {
        task: piece_task(id, body_wcet, parent.period(), body_wcet, BODY_PRIORITY),
        execution: us(budget),
        parent: parent.id(),
        split: Some(SplitInfo {
            part_index: 0,
            part_count: 2,
            kind: SubtaskKind::Body,
            release_offset: Time::ZERO,
            next_core: Some(tail_core),
            first_core: body_core,
        }),
    };
    let tail = PlacedTask {
        task: piece_task(
            id,
            tail_wcet,
            parent.period(),
            deadline - body_wcet,
            TAIL_PRIORITY,
        ),
        execution: us(wcet - budget),
        parent: parent.id(),
        split: Some(SplitInfo {
            part_index: 1,
            part_count: 2,
            kind: SubtaskKind::Tail,
            release_offset: us(body_wcet),
            next_core: None,
            first_core: body_core,
        }),
    };
    partition.place(body_core, body);
    partition.place(tail_core, tail);
    partition.renormalize_core_priorities(body_core);
    partition.renormalize_core_priorities(tail_core);
}

fn apply(partition: &mut Partition, op: &Op, next_id: &mut u32) {
    let cores = partition.core_count();
    match op {
        Op::Place(core, spec) => {
            let core = CoreId(core % cores);
            partition.place(core, PlacedTask::whole(build_task(*next_id, *spec)));
            partition.renormalize_core_priorities(core);
            *next_id += 1;
        }
        Op::Remove(index) => {
            let parents = partition.parent_ids();
            if !parents.is_empty() {
                partition.remove_parent(parents[index % parents.len()]);
            }
        }
        Op::Renormalize(core) => {
            partition.renormalize_core_priorities(CoreId(core % cores));
        }
        Op::Split(core, spec, extra) => {
            if cores > 1 {
                let body = CoreId(core % cores);
                let tail = CoreId((core + 1) % cores);
                place_split(partition, body, tail, *next_id, *spec, *extra);
                *next_id += 1;
            }
        }
        Op::Inflated(core, spec, extra) => {
            let core = CoreId(core % cores);
            let task = build_task(*next_id, *spec);
            let execution = task.wcet();
            // Clamped so the inflated WCET still fits the deadline.
            let extra = us(*extra).min(task.deadline() - execution);
            let inflated = task
                .with_wcet(execution + extra)
                .expect("the clamped WCET fits the deadline");
            partition.place(core, PlacedTask::whole(inflated).with_execution(execution));
            partition.renormalize_core_priorities(core);
            *next_id += 1;
        }
        Op::Unsynced(core, spec) => {
            let core = CoreId(core % cores);
            partition.place(core, PlacedTask::whole(build_task(*next_id, *spec)));
            *next_id += 1;
        }
    }
}

/// Placement + cache equality: `PartialEq` covers the mapping, and
/// `cached_core` (which answers only on converged, non-stale slots) covers
/// the attached analysis state.
fn assert_fully_equal(a: &Partition, b: &Partition) {
    assert_eq!(a, b, "placements diverged after rewind");
    for core in 0..a.core_count() {
        assert_eq!(
            a.cached_core(CoreId(core)),
            b.cached_core(CoreId(core)),
            "cache state diverged on core {core}"
        );
    }
}

/// [`assert_fully_equal`] plus every core's generation and utilization:
/// what a rewind to a snapshot clone's mark must restore.
fn assert_restored(a: &Partition, b: &Partition) {
    assert_fully_equal(a, b);
    for core in 0..a.core_count() {
        assert_eq!(
            a.core_generation(CoreId(core)),
            b.core_generation(CoreId(core)),
            "generation not restored on core {core}"
        );
        assert_eq!(
            a.core_utilization(CoreId(core)).to_bits(),
            b.core_utilization(CoreId(core)).to_bits(),
            "utilization not restored on core {core}"
        );
    }
}

/// Every per-core utilization read is bit-equal to a fresh bin-order sum
/// over the core's placements (`-0.0` on an empty core, as `Sum` gives).
fn assert_fresh_utilizations(partition: &Partition) {
    let reads = partition.core_utilizations();
    for (core, read) in reads.iter().enumerate() {
        let id = CoreId(core);
        let fresh: f64 = partition
            .core(id)
            .iter()
            .map(|p| p.task.utilization())
            .sum();
        assert_eq!(read.to_bits(), fresh.to_bits(), "core {core}");
        assert_eq!(
            partition.core_utilization(id).to_bits(),
            fresh.to_bits(),
            "core {core}"
        );
        assert_eq!(
            partition.residual_utilization(id).to_bits(),
            (1.0 - fresh).to_bits(),
            "core {core}"
        );
    }
}

/// Removes every parent placed on `core`, leaving it empty.
fn drain(partition: &mut Partition, core: CoreId) {
    let parents: Vec<_> = partition.core(core).iter().map(|p| p.parent).collect();
    for parent in parents {
        partition.remove_parent(parent);
    }
    assert!(partition.core(core).is_empty());
}

/// One step of a journaled random walk: mutate, take a nested mark, or
/// rewind to one of the open marks (`index % open marks`).
#[derive(Debug, Clone)]
enum Step {
    Mutate(Op),
    Mark,
    Rewind(usize),
}

fn step() -> impl Strategy<Value = Step> {
    (0u8..8, op(), 0usize..16).prop_map(|(kind, op, index)| match kind {
        0 => Step::Mark,
        1 => Step::Rewind(index),
        _ => Step::Mutate(op),
    })
}

/// What a probe on one core can see: its placements and, when converged,
/// its cached analysis.
type CoreState = (Vec<PlacedTask>, Option<CachedCoreAnalysis>);

/// Records every `(core, generation)` pair seen so far with the core's
/// state, and asserts that a generation seen again maps to the same state.
#[derive(Default)]
struct GenerationLedger {
    seen: HashMap<(usize, u64), CoreState>,
}

impl GenerationLedger {
    fn observe(&mut self, partition: &Partition) {
        for core in 0..partition.core_count() {
            let id = CoreId(core);
            let state = (
                partition.core(id).to_vec(),
                partition.cached_core(id).cloned(),
            );
            let generation = partition.core_generation(id);
            match self.seen.get(&(core, generation)) {
                Some(previous) => assert_eq!(
                    previous, &state,
                    "core {core} changed under generation {generation}"
                ),
                None => {
                    self.seen.insert((core, generation), state);
                }
            }
        }
    }
}

fn cached_single_task_partition() -> Partition {
    let mut partition = Partition::new(2);
    partition.place(CoreId(0), PlacedTask::whole(build_task(0, (10, 30))));
    partition.renormalize_core_priorities(CoreId(0));
    partition.enable_analysis_cache();
    partition
}

/// An injected cache corruption changes what probes on the core see, so it
/// must move the core's generation (and only that core's).
#[test]
fn corruption_moves_the_generation() {
    let mut partition = cached_single_task_partition();
    let before = [0, 1].map(|c| partition.core_generation(CoreId(c)));
    assert!(partition.corrupt_cached_response(CoreId(0)));
    assert_ne!(partition.core_generation(CoreId(0)), before[0]);
    assert_eq!(partition.core_generation(CoreId(1)), before[1]);
    // Nothing to flip on an empty core: no change, no new generation.
    assert!(!partition.corrupt_cached_response(CoreId(1)));
    assert_eq!(partition.core_generation(CoreId(1)), before[1]);
}

/// A repairing audit rebuilds the memo, so it moves the generation; a clean
/// audit changes nothing and keeps it.
#[test]
fn repairing_audit_moves_the_generation_and_a_clean_one_does_not() {
    let mut partition = cached_single_task_partition();
    let clean = partition.core_generation(CoreId(0));
    assert_eq!(
        partition.audit_cached_core(CoreId(0)),
        Some(CacheAuditVerdict::Clean)
    );
    assert_eq!(partition.core_generation(CoreId(0)), clean);

    assert!(partition.corrupt_cached_response(CoreId(0)));
    let corrupted = partition.core_generation(CoreId(0));
    assert_eq!(
        partition.audit_cached_core(CoreId(0)),
        Some(CacheAuditVerdict::Repaired)
    );
    let repaired = partition.core_generation(CoreId(0));
    assert_ne!(repaired, corrupted);
    assert_ne!(repaired, clean, "generations are never reissued");
}

/// Attaching the cache changes every core's slot.
#[test]
fn enabling_the_cache_moves_every_generation() {
    let mut partition = Partition::new(3);
    let before = [0, 1, 2].map(|c| partition.core_generation(CoreId(c)));
    partition.enable_analysis_cache();
    for (core, before) in before.into_iter().enumerate() {
        assert_ne!(partition.core_generation(CoreId(core)), before);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Build a random partition, open a scope, mutate arbitrarily, rewind:
    /// the result is bit-identical to a pre-mutation snapshot clone —
    /// placements, priorities and attached cache.
    #[test]
    fn rewind_restores_the_pre_mutation_snapshot(
        cores in 1usize..5,
        prefix in vec(op(), 0..10),
        speculative in vec(op(), 1..16),
    ) {
        let mut partition = Partition::new(cores);
        partition.enable_analysis_cache();
        let mut next_id = 0u32;
        for op in &prefix {
            apply(&mut partition, op, &mut next_id);
        }
        let snapshot = partition.clone();
        let mark = partition.journal_begin();
        for op in &speculative {
            apply(&mut partition, op, &mut next_id);
        }
        partition.rewind(mark);
        partition.journal_end();
        assert_restored(&partition, &snapshot);
        prop_assert_eq!(partition.validate(), Ok(()));
    }

    /// A random walk of mutations, nested marks and rewinds: every rewind
    /// restores the generations the cores had at the mark, and whenever a
    /// core shows a generation it showed before, its placements and cached
    /// analysis are exactly what they were then.
    #[test]
    fn equal_generations_imply_identical_core_state(
        cores in 1usize..5,
        prefix in vec(op(), 0..8),
        steps in vec(step(), 1..40),
    ) {
        let mut partition = Partition::new(cores);
        partition.enable_analysis_cache();
        let mut next_id = 0u32;
        let mut ledger = GenerationLedger::default();
        for op in &prefix {
            apply(&mut partition, op, &mut next_id);
            ledger.observe(&partition);
        }
        let mut marks = vec![(partition.journal_begin(), partition.clone())];
        for step in &steps {
            match step {
                Step::Mutate(op) => apply(&mut partition, op, &mut next_id),
                Step::Mark => marks.push((partition.journal_mark(), partition.clone())),
                Step::Rewind(index) => {
                    let keep = index % marks.len() + 1;
                    marks.truncate(keep);
                    let (mark, snapshot) = marks.last().expect("outer mark stays");
                    partition.rewind(*mark);
                    assert_restored(&partition, snapshot);
                }
            }
            ledger.observe(&partition);
        }
        partition.journal_end();
        prop_assert_eq!(partition.validate(), Ok(()));
    }

    /// A random walk of mutations, nested marks, rewinds and drained
    /// cores: after every step each per-core utilization is bit-equal to
    /// a fresh bin-order sum, and every rewind restores the utilizations
    /// the cores had at the mark.
    #[test]
    fn per_core_utilizations_match_fresh_sums(
        cores in 1usize..5,
        prefix in vec(op(), 0..8),
        steps in vec((step(), 0usize..8), 1..40),
    ) {
        let mut partition = Partition::new(cores);
        assert_fresh_utilizations(&partition);
        partition.enable_analysis_cache();
        let mut next_id = 0u32;
        for op in &prefix {
            apply(&mut partition, op, &mut next_id);
            assert_fresh_utilizations(&partition);
        }
        let mut marks = vec![(partition.journal_begin(), partition.clone())];
        for (step, drained) in &steps {
            match step {
                Step::Mutate(op) => apply(&mut partition, op, &mut next_id),
                Step::Mark => marks.push((partition.journal_mark(), partition.clone())),
                Step::Rewind(index) => {
                    let keep = index % marks.len() + 1;
                    marks.truncate(keep);
                    let (mark, snapshot) = marks.last().expect("outer mark stays");
                    partition.rewind(*mark);
                    assert_restored(&partition, snapshot);
                }
            }
            assert_fresh_utilizations(&partition);
            // Now and then a core is emptied entirely.
            if *drained < cores && drained % 3 == 0 {
                drain(&mut partition, CoreId(*drained));
                assert_fresh_utilizations(&partition);
            }
        }
        let (outer, snapshot) = marks.swap_remove(0);
        partition.rewind(outer);
        partition.journal_end();
        assert_restored(&partition, &snapshot);
        assert_fresh_utilizations(&partition);
        for core in (0..cores).map(CoreId) {
            drain(&mut partition, core);
        }
        assert_fresh_utilizations(&partition);
    }

    /// Nested marks rewind LIFO: an inner rewind restores the inner
    /// snapshot without disturbing the outer scope, and the outer rewind
    /// still restores the outer snapshot afterwards.
    #[test]
    fn nested_marks_rewind_independently(
        cores in 1usize..4,
        prefix in vec(op(), 1..8),
        outer_ops in vec(op(), 1..8),
        inner_ops in vec(op(), 1..8),
    ) {
        let mut partition = Partition::new(cores);
        partition.enable_analysis_cache();
        let mut next_id = 0u32;
        for op in &prefix {
            apply(&mut partition, op, &mut next_id);
        }
        let outer_snapshot = partition.clone();
        let outer = partition.journal_begin();
        for op in &outer_ops {
            apply(&mut partition, op, &mut next_id);
        }
        let inner_snapshot = partition.clone();
        let inner = partition.journal_mark();
        for op in &inner_ops {
            apply(&mut partition, op, &mut next_id);
        }
        partition.rewind(inner);
        assert_restored(&partition, &inner_snapshot);
        partition.rewind(outer);
        partition.journal_end();
        assert_restored(&partition, &outer_snapshot);
    }

    /// A rewound scope leaves no trace: committing different work after an
    /// abort produces the same partition as never having speculated.
    #[test]
    fn aborted_speculation_does_not_leak_into_later_commits(
        cores in 1usize..4,
        speculative in vec(op(), 1..10),
        committed in vec(op(), 1..10),
    ) {
        let build = |speculate: bool| {
            let mut partition = Partition::new(cores);
            partition.enable_analysis_cache();
            let mut next_id = 0u32;
            if speculate {
                let mark = partition.journal_begin();
                let mut spec_id = next_id;
                for op in &speculative {
                    apply(&mut partition, op, &mut spec_id);
                }
                partition.rewind(mark);
                partition.journal_end();
            }
            for op in &committed {
                apply(&mut partition, op, &mut next_id);
            }
            partition
        };
        assert_fully_equal(&build(true), &build(false));
    }

    /// A planning transaction over two partitions — one journal scope on
    /// each, rewound and closed in reverse order — restores *both*:
    /// placements, priorities and RTA caches, bit-identically. This is the
    /// contract the cross-shard split planner leans on.
    #[test]
    fn plan_txn_abort_restores_both_partitions(
        cores_a in 1usize..4,
        cores_b in 1usize..4,
        prefix_a in vec(op(), 0..8),
        prefix_b in vec(op(), 0..8),
        spec_a in vec(op(), 1..10),
        spec_b in vec(op(), 1..10),
    ) {
        let mut next_id = 0u32;
        let mut build = |cores: usize, prefix: &[Op]| {
            let mut partition = Partition::new(cores);
            partition.enable_analysis_cache();
            for op in prefix {
                apply(&mut partition, op, &mut next_id);
            }
            partition
        };
        let mut a = build(cores_a, &prefix_a);
        let mut b = build(cores_b, &prefix_b);
        let snapshot_a = a.clone();
        let snapshot_b = b.clone();

        let mark_a = a.journal_begin();
        let mark_b = b.journal_begin();
        for op in &spec_a {
            apply(&mut a, op, &mut next_id);
        }
        for op in &spec_b {
            apply(&mut b, op, &mut next_id);
        }
        b.rewind(mark_b);
        b.journal_end();
        a.rewind(mark_a);
        a.journal_end();

        assert_restored(&a, &snapshot_a);
        assert_restored(&b, &snapshot_b);
        prop_assert_eq!(a.validate(), Ok(()));
        prop_assert_eq!(b.validate(), Ok(()));
    }

    /// Closing both scopes of a two-partition planning transaction keeps
    /// the speculated work on both and leaves each ready for the next
    /// scope (a later single-partition rewind undoes only its own scope).
    #[test]
    fn plan_txn_commit_keeps_both_and_later_scopes_stay_isolated(
        cores_a in 1usize..4,
        cores_b in 1usize..4,
        spec_a in vec(op(), 1..8),
        spec_b in vec(op(), 1..8),
        later in vec(op(), 1..8),
    ) {
        let mut next_id = 0u32;
        let mut a = Partition::new(cores_a);
        let mut b = Partition::new(cores_b);
        a.enable_analysis_cache();
        b.enable_analysis_cache();

        a.journal_begin();
        b.journal_begin();
        for op in &spec_a {
            apply(&mut a, op, &mut next_id);
        }
        for op in &spec_b {
            apply(&mut b, op, &mut next_id);
        }
        a.journal_end();
        b.journal_end();
        let committed_a = a.clone();

        // A later rewound scope on `a` alone must not disturb the
        // committed cross-partition work.
        let solo = a.journal_begin();
        for op in &later {
            apply(&mut a, op, &mut next_id);
        }
        a.rewind(solo);
        a.journal_end();
        assert_restored(&a, &committed_a);
        prop_assert_eq!(a.validate(), Ok(()));
        prop_assert_eq!(b.validate(), Ok(()));
    }
}
