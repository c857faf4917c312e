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
//! The vendored proptest runner is deterministically seeded, so failures
//! reproduce identically.

use proptest::collection::vec;
use proptest::prelude::*;
use spms_core::{
    CoreId, Partition, PlacedTask, PlanTxn, SplitInfo, SubtaskKind, BODY_PRIORITY, TAIL_PRIORITY,
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
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..11, 0usize..64, (1u64..40, 0u64..120), 1u64..10).prop_map(|(kind, index, spec, extra)| {
        match kind {
            0..=3 => Op::Place(index, spec),
            4 | 5 => Op::Remove(index),
            6 => Op::Renormalize(index),
            7 | 8 => Op::Split(index, spec, extra),
            _ => Op::Inflated(index, spec, extra),
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
    let wcet = parent.wcet().as_micros().max(2);
    let deadline = parent.deadline().as_micros();
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
        assert_fully_equal(&partition, &snapshot);
        prop_assert_eq!(partition.validate(), Ok(()));
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
        assert_fully_equal(&partition, &inner_snapshot);
        partition.rewind(outer);
        partition.journal_end();
        assert_fully_equal(&partition, &outer_snapshot);
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

    /// A multi-partition [`PlanTxn`] abort restores *every* participant —
    /// placements, priorities and RTA caches — bit-identically. This is
    /// the two-phase contract the cross-shard split planner leans on.
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

        let mut txn = PlanTxn::new();
        txn.begin(&mut a);
        txn.begin(&mut b);
        for op in &spec_a {
            apply(&mut a, op, &mut next_id);
        }
        for op in &spec_b {
            apply(&mut b, op, &mut next_id);
        }
        txn.abort(&mut [&mut a, &mut b]);

        assert_fully_equal(&a, &snapshot_a);
        assert_fully_equal(&b, &snapshot_b);
        prop_assert_eq!(a.validate(), Ok(()));
        prop_assert_eq!(b.validate(), Ok(()));
    }

    /// Committing a multi-partition transaction keeps the speculated work
    /// on every participant and leaves every participant ready for
    /// the next scope (a later single-partition abort still rewinds only
    /// its own scope).
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

        let mut txn = PlanTxn::new();
        txn.begin(&mut a);
        txn.begin(&mut b);
        for op in &spec_a {
            apply(&mut a, op, &mut next_id);
        }
        for op in &spec_b {
            apply(&mut b, op, &mut next_id);
        }
        txn.commit(&mut [&mut a, &mut b]);
        let committed_a = a.clone();

        // A later aborted scope on `a` alone must not disturb the
        // committed cross-partition work.
        let mut solo = PlanTxn::new();
        solo.begin(&mut a);
        for op in &later {
            apply(&mut a, op, &mut next_id);
        }
        solo.abort(std::slice::from_mut(&mut &mut a));
        assert_fully_equal(&a, &committed_a);
        prop_assert_eq!(a.validate(), Ok(()));
        prop_assert_eq!(b.validate(), Ok(()));
    }
}
