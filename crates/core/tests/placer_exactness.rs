//! Exactness of the [`IncrementalPlacer`] probes against an independent
//! oracle.
//!
//! Every probe of the placer answers from a per-core analysis — the
//! converged slot of the partition's incremental cache, or one built on
//! the fly — without ever committing the candidate. This suite checks
//! each answer against what a from-scratch [`rta::analyse_core`] says
//! about the core *after* the candidate is really committed. The oracle
//! shares no code with the placer's probes: it commits the plan to a
//! clone of the partition inside a journal scope, reads the core's
//! placed tasks, analyses them cold and rewinds.
//!
//! Random cached partitions are built from whole placements, split chains
//! and placements whose analysis WCET carries a migration charge over
//! their execution budget, with departures in between. Deadlines are
//! constrained and drawn from a small grid, so deadline-monotonic ties
//! (broken by period, then id) are common. Then, for random candidates:
//!
//! * [`IncrementalPlacer::probe_whole`] accepts exactly when the committed
//!   whole placement passes scratch RTA, and its blocker is the first
//!   failing task in (candidate, then (level, id)) order;
//! * [`IncrementalPlacer::accepts_whole_without`] equals scratch RTA of the
//!   committed state with the removed parent — or pair of parents — gone,
//!   and equals `probe_whole` of the state with them evicted in a journal
//!   scope;
//! * every [`IncrementalPlacer::plan_split`] piece passes scratch RTA after
//!   commit, and a body 1 ns larger fails it unless the chain capped it.
//!
//! Each probe also runs on an uncached copy of the same placements, which
//! exercises the on-the-fly arm of `Partition::core_analysis`.
//!
//! A whole plan carries the responses its accepting probe converged, and
//! its commit installs them instead of re-deriving them. Every accepted
//! whole plan is committed twice — with its proof, and with the proof
//! made stale by a generation bump — and the two partitions must agree,
//! cache slots included, and pass the scratch-RTA audit. A proof taken
//! before its core changed must never be installed.
//!
//! Many placement questions never reach RTA: the per-core utilization
//! screen (`Partition::overloaded_with`) answers "no" when the core would
//! exceed 100 %. Whenever the screen fires on random cores — for whole
//! candidates, body pieces, tails and what-if evictions — scratch RTA of
//! the committed core must reject too; and on cores exact RTA fills to
//! the brim, where the float sum overshoots 1, the screen must stay
//! silent.
//!
//! A split question has a screen of its own: the chain-capacity screen
//! (`IncrementalPlacer::chain_exceeds_capacity`) turns a task away from
//! `plan_split` when no chain of its pieces fits the spare utilization of
//! the cores it may use. On random partitions, overheads, charges and
//! exclusions, whenever it fires `plan_split` must find no plan (debug
//! builds also plan without the screen and assert that no plan exists),
//! its verdict must equal the screen's definition evaluated directly —
//! for every chain length `p`, the `p` largest spares fall short — and it
//! must fire on at least a tenth of the questions, so the check is not
//! vacuous.
//!
//! The vendored proptest runner is deterministically seeded, so failures
//! reproduce identically.

use proptest::collection::vec;
use proptest::prelude::*;
use spms_analysis::{rta, OverheadModel};
use spms_core::{
    CoreId, IncrementalPlacer, Partition, PlacedTask, PlacementPlan, SplitInfo, SubtaskKind,
    WholeProbe, BODY_PRIORITY, TAIL_PRIORITY,
};
use spms_task::{Task, TaskId, Time};

/// Periods (µs) tasks draw from: few enough that deadline ties are common.
const PERIODS: [u64; 5] = [1_000, 2_000, 2_500, 4_000, 5_000];

/// A compact task spec: `(period index, wcet per mille of the period,
/// deadline shortening in quarters of the remaining room)`.
type Spec = (usize, u64, u64);

fn spec() -> impl Strategy<Value = Spec> {
    (0usize..PERIODS.len(), 20u64..450, 0u64..3)
}

/// A heavy implicit-deadline task: many fit no core whole, so splits
/// carve real frontiers instead of a body one nanosecond short of the
/// whole task.
fn heavy_spec() -> impl Strategy<Value = Spec> {
    (0usize..PERIODS.len(), 300u64..950, Just(0u64))
}

/// A constrained-deadline task: `wcet ≤ deadline ≤ period`.
fn build_task(id: u32, (period, per_mille, shorten): Spec) -> Task {
    let period = PERIODS[period];
    let wcet = (period * per_mille / 1_000).max(1);
    let deadline = period - (period - wcet) * shorten / 4;
    Task::builder(id)
        .wcet(Time::from_micros(wcet))
        .period(Time::from_micros(period))
        .deadline(Time::from_micros(deadline))
        .build()
        .expect("wcet <= deadline <= period by construction")
}

/// One step building the base partition.
#[derive(Debug, Clone)]
enum Op {
    /// Admit a fresh task whole on core `core % cores` if it fits there,
    /// its analysis WCET inflated by `charge` µs over its execution budget.
    Whole(usize, Spec, u64),
    /// Admit a fresh task as a split chain, every hop charged `charge` µs.
    Split(Spec, u64),
    /// Depart the placed parent at `index % placed parents`.
    Depart(usize),
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..8, spec(), 0u64..40, 0usize..64).prop_map(|(kind, spec, charge, index)| {
        let charge = if kind % 2 == 0 { 0 } else { charge };
        match kind {
            0..=3 => Op::Whole(index, spec, charge),
            4..=6 => Op::Split(spec, charge),
            _ => Op::Depart(index),
        }
    })
}

/// Builds a cached partition from `ops`, checking that every placement the
/// placer commits passes scratch RTA.
fn build(placer: &IncrementalPlacer, cores: usize, ops: &[Op]) -> Partition {
    let mut partition = Partition::new(cores);
    partition.enable_analysis_cache();
    for (id, op) in ops.iter().enumerate() {
        let plan = match op {
            Op::Whole(core, spec, charge) => {
                let task = build_task(id as u32, *spec);
                let others: Vec<CoreId> = (0..cores)
                    .filter(|c| *c != core % cores)
                    .map(CoreId)
                    .collect();
                let plan = placer.plan_whole(&partition, &task, &others, us(*charge));
                plan.map(|plan| (task, plan))
            }
            Op::Split(spec, charge) => {
                let task = build_task(id as u32, *spec);
                let plan = placer.plan_split(&partition, &task, &[], us(*charge));
                plan.map(|plan| (task, plan))
            }
            Op::Depart(index) => {
                let parents = partition.parent_ids();
                if !parents.is_empty() {
                    partition.remove_parent(parents[index % parents.len()]);
                }
                None
            }
        };
        if let Some((task, plan)) = plan {
            placer.commit(&mut partition, &task, plan);
            assert_eq!(
                partition.scratch_audit(),
                Ok(()),
                "a committed plan failed scratch RTA"
            );
        }
    }
    partition
}

/// The same placements without an attached cache, so every probe builds
/// its analysis on the fly.
fn uncached(partition: &Partition) -> Partition {
    let mut copy = Partition::new(partition.core_count());
    for (core, placed) in partition.iter() {
        copy.place(core, placed.clone());
    }
    copy
}

fn us(micros: u64) -> Time {
    Time::from_micros(micros)
}

/// Scratch RTA of `core` after `mutate` runs on `oracle` inside a journal
/// scope, which is rewound afterwards: the committed core's tasks and
/// their response times, in placement order.
fn committed_core(
    oracle: &mut Partition,
    core: CoreId,
    mutate: impl FnOnce(&mut Partition),
) -> (Vec<Task>, Vec<Option<Time>>) {
    let mark = oracle.journal_begin();
    mutate(oracle);
    let tasks = oracle.core_tasks(core);
    let analysis = rta::analyse_core(&tasks);
    oracle.rewind(mark);
    oracle.journal_end();
    (tasks, analysis.response_times)
}

/// The probe outcome scratch RTA of the committed core implies: accepted
/// when every task meets its deadline, otherwise blocked by the candidate
/// if it misses, else by the first missing task in (level, id) order.
fn expected_probe(candidate: TaskId, tasks: &[Task], responses: &[Option<Time>]) -> WholeProbe {
    let mut failing: Vec<&Task> = tasks
        .iter()
        .zip(responses)
        .filter(|(_, response)| response.is_none())
        .map(|(t, _)| t)
        .collect();
    if failing.is_empty() {
        return WholeProbe::Accepted;
    }
    if failing.iter().any(|t| t.id() == candidate) {
        return WholeProbe::Blocked {
            blocker: Some(candidate),
        };
    }
    failing.sort_by_key(|t| (rta::effective_priority(t).level(), t.id()));
    WholeProbe::Blocked {
        blocker: Some(failing[0].id()),
    }
}

/// Commits `candidate` whole on `core` the way the controller does.
fn commit_whole(placer: &IncrementalPlacer, partition: &mut Partition, core: CoreId, task: &Task) {
    let analysis_task = placer
        .whole_analysis_task(task, Time::ZERO)
        .expect("zero overhead always fits");
    placer.commit(
        partition,
        task,
        PlacementPlan::Whole {
            core,
            analysis_task,
            proof: None,
        },
    );
}

/// The largest body budget a split chain offers the piece at `index`:
/// one nanosecond short of what is left of the parent's execution, and no
/// more than what is left of its deadline after the piece's charge.
fn offered_budget(task: &Task, pieces: &[(CoreId, PlacedTask)], index: usize) -> Time {
    let used: Time = pieces[..index].iter().map(|(_, p)| p.execution).sum();
    let offset: Time = pieces[..index].iter().map(|(_, p)| p.task.wcet()).sum();
    let charge = pieces[index].1.task.wcet() - pieces[index].1.execution;
    let room = task
        .deadline()
        .saturating_sub(offset)
        .saturating_sub(charge);
    (task.wcet() - used)
        .saturating_sub(Time::from_nanos(1))
        .min(room)
}

/// `piece` with its budget, analysis WCET and (`C = D`) deadline grown by
/// one nanosecond.
fn grown_by_one_ns(piece: &PlacedTask) -> PlacedTask {
    let ns = Time::from_nanos(1);
    let wcet = piece.task.wcet() + ns;
    let mut grown = piece.clone();
    grown.execution += ns;
    grown.task = Task::builder(piece.task.id())
        .wcet(wcet)
        .period(piece.task.period())
        .deadline(wcet)
        .priority(piece.task.priority().expect("pieces are prioritised"))
        .build()
        .expect("the parent's deadline leaves room for one more nanosecond");
    grown
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `probe_whole` and `accepts_whole_without` answer exactly what
    /// scratch RTA of the committed core answers, blocker included.
    #[test]
    fn whole_probes_match_scratch_rta_of_the_commit(
        cores in 1usize..5,
        ops in vec(op(), 4..24),
        candidates in vec((spec(), 0u64..40), 1..6),
    ) {
        let placer = IncrementalPlacer::new();
        let partition = build(&placer, cores, &ops);
        let plain = uncached(&partition);
        let mut oracle = partition.clone();
        for (k, (spec, charge)) in candidates.iter().enumerate() {
            let task = build_task(10_000 + k as u32, *spec);
            let task = task.with_wcet(task.wcet() + us(*charge)).unwrap_or(task);
            for core in (0..cores).map(CoreId) {
                let (tasks, responses) =
                    committed_core(&mut oracle, core, |p| commit_whole(&placer, p, core, &task));
                let expected = expected_probe(task.id(), &tasks, &responses);
                prop_assert_eq!(
                    placer.probe_whole(&partition, core, &task),
                    expected,
                    "cached probe on {}",
                    core
                );
                prop_assert_eq!(
                    placer.probe_whole(&plain, core, &task),
                    expected,
                    "uncached probe on {}",
                    core
                );

                let residents: Vec<TaskId> =
                    partition.core(core).iter().map(|p| p.parent).collect();
                let singles = residents
                    .iter()
                    .chain(&[TaskId(9_999)])
                    .map(|&removed| vec![removed]);
                let pairs = residents.iter().enumerate().flat_map(|(i, &a)| {
                    residents[i + 1..].iter().map(move |&b| vec![a, b])
                });
                for removed in singles.chain(pairs) {
                    let (_, responses) = committed_core(&mut oracle, core, |p| {
                        for &parent in &removed {
                            p.remove_parent(parent);
                        }
                        commit_whole(&placer, p, core, &task);
                    });
                    let expected = responses.iter().all(Option::is_some);
                    prop_assert_eq!(
                        placer.accepts_whole_without(&partition, core, &task, &removed),
                        expected,
                        "cached eviction probe of {:?} on {}",
                        removed,
                        core
                    );
                    prop_assert_eq!(
                        placer.accepts_whole_without(&plain, core, &task, &removed),
                        expected,
                        "uncached eviction probe of {:?} on {}",
                        removed,
                        core
                    );
                    // The evicted state itself, probed through the
                    // journal, agrees with the what-if.
                    let mark = oracle.journal_begin();
                    for &parent in &removed {
                        oracle.remove_parent(parent);
                    }
                    let evicted = placer.probe_whole(&oracle, core, &task);
                    oracle.rewind(mark);
                    oracle.journal_end();
                    prop_assert_eq!(
                        evicted == WholeProbe::Accepted,
                        expected,
                        "probe after evicting {:?} on {}",
                        removed,
                        core
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Every piece of a split plan passes scratch RTA after commit, and
    /// every body sits on the exact frontier: 1 ns more fails scratch RTA
    /// of its core, unless the chain offered no more.
    #[test]
    fn split_pieces_pass_scratch_rta_and_bodies_sit_on_the_frontier(
        cores in 2usize..5,
        ops in vec(op(), 4..24),
        candidates in vec((heavy_spec(), 0u64..40), 1..10),
    ) {
        let placer = IncrementalPlacer::new().with_min_split_budget(us(10));
        let partition = build(&placer, cores, &ops);
        let plain = uncached(&partition);
        let mut oracle = partition.clone();
        for (k, (spec, charge)) in candidates.iter().enumerate() {
            let task = build_task(10_000 + k as u32, *spec);
            let plan = placer.plan_split(&partition, &task, &[], us(*charge));
            prop_assert_eq!(
                &placer.plan_split(&plain, &task, &[], us(*charge)),
                &plan,
                "uncached split plan diverged"
            );
            let Some(PlacementPlan::Split { pieces }) = plan else {
                continue;
            };
            for (index, (core, piece)) in pieces.iter().enumerate() {
                let core = *core;
                let plan = PlacementPlan::Split { pieces: pieces.clone() };
                let (_, responses) =
                    committed_core(&mut oracle, core, |p| placer.commit(p, &task, plan));
                prop_assert!(
                    responses.iter().all(Option::is_some),
                    "piece {} on {} fails scratch RTA",
                    index,
                    core
                );
                if piece.is_tail() || piece.execution >= offered_budget(&task, &pieces, index) {
                    continue;
                }
                let mut grown = pieces.clone();
                grown[index].1 = grown_by_one_ns(piece);
                let plan = PlacementPlan::Split { pieces: grown };
                let (_, responses) =
                    committed_core(&mut oracle, core, |p| placer.commit(p, &task, plan));
                prop_assert!(
                    responses.iter().any(Option::is_none),
                    "body {} on {} is 1 ns short of the frontier",
                    index,
                    core
                );
            }
        }
    }
}

/// Both partitions hold the same placements and the same converged cache
/// slot on every core.
fn assert_same_with_caches(a: &Partition, b: &Partition) {
    prop_assert_eq!(a, b);
    for core in (0..a.core_count()).map(CoreId) {
        prop_assert_eq!(
            a.cached_core(core),
            b.cached_core(core),
            "cache of {}",
            core
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Installing an accepting probe's proof gives exactly the partition
    /// that re-deriving the responses gives.
    #[test]
    fn installed_proofs_equal_rederived_responses(
        cores in 1usize..5,
        ops in vec(op(), 0..16),
        candidates in vec(spec(), 1..12),
    ) {
        let placer = IncrementalPlacer::new();
        let mut partition = build(&placer, cores, &ops);
        for (k, spec) in candidates.iter().enumerate() {
            let task = build_task(10_000 + k as u32, *spec);
            let Some(plan) = placer.plan_whole(&partition, &task, &[], Time::ZERO) else {
                continue;
            };
            let PlacementPlan::Whole { core, proof, .. } = &plan else {
                unreachable!("plan_whole plans whole placements");
            };
            prop_assert!(proof.is_some(), "a cached probe leaves a proof");
            let mut stale = partition.clone();
            // A no-op renormalization moves the core's generation only.
            stale.renormalize_core_priorities(*core);
            placer.commit(&mut stale, &task, plan.clone());
            placer.commit(&mut partition, &task, plan);
            assert_same_with_caches(&partition, &stale);
            prop_assert_eq!(partition.scratch_audit(), Ok(()));
            prop_assert_eq!(stale.scratch_audit(), Ok(()));
        }
    }
}

/// A plan whose core changed after its probe ran commits correctly: the
/// stale proof is ignored and the responses re-converge.
#[test]
fn a_proof_taken_before_its_core_changed_is_never_installed() {
    let placer = IncrementalPlacer::new();
    let task = |id: u32, wcet_us: u64, period_us: u64| {
        Task::new(id, us(wcet_us), us(period_us)).expect("valid task")
    };
    let mut partition = Partition::new(1);
    partition.enable_analysis_cache();
    let low = task(0, 300, 10_000);
    let plan = placer
        .plan_whole(&partition, &low, &[], Time::ZERO)
        .expect("fits");
    placer.commit(&mut partition, &low, plan);

    // The proof for `mid` says what `mid` and `low` respond with beside
    // each other alone...
    let mid = task(1, 200, 5_000);
    let stale_plan = placer
        .plan_whole(&partition, &mid, &[], Time::ZERO)
        .expect("fits");
    let mut alone = partition.clone();
    placer.commit(&mut alone, &mid, stale_plan.clone());

    // ...but a higher-priority task joins the core before the commit.
    let high = task(2, 100, 1_000);
    let plan = placer
        .plan_whole(&partition, &high, &[], Time::ZERO)
        .expect("fits");
    placer.commit(&mut partition, &high, plan);
    placer.commit(&mut partition, &mid, stale_plan);

    assert_eq!(partition.scratch_audit(), Ok(()));
    let cache = partition.cached_core(CoreId(0)).expect("converged");
    let scratch = rta::analyse_core(&partition.core_tasks(CoreId(0)));
    for (placed, response) in partition.core(CoreId(0)).iter().zip(scratch.response_times) {
        assert_eq!(cache.response_of(placed.task.id()), Some(response));
    }
    // The stale proof's responses would have been wrong here.
    let proven = alone.cached_core(CoreId(0)).expect("converged");
    assert_ne!(proven.response_of(TaskId(1)), cache.response_of(TaskId(1)));
    assert_ne!(proven.response_of(TaskId(0)), cache.response_of(TaskId(0)));
}

/// A promoted split piece of parent `id` as the placer builds one: a
/// `C = D` body at the body level, or a tail at the tail level with
/// deadline `deadline`.
fn split_piece(id: u32, kind: SubtaskKind, wcet: Time, period: Time, deadline: Time) -> PlacedTask {
    let priority = match kind {
        SubtaskKind::Body => BODY_PRIORITY,
        SubtaskKind::Tail => TAIL_PRIORITY,
    };
    let task = Task::builder(id)
        .wcet(wcet)
        .period(period)
        .deadline(deadline)
        .priority(priority)
        .build()
        .expect("wcet <= deadline <= period by construction");
    PlacedTask {
        execution: wcet,
        parent: TaskId(id),
        split: Some(SplitInfo {
            part_index: usize::from(kind == SubtaskKind::Tail),
            part_count: 2,
            kind,
            release_offset: Time::ZERO,
            next_core: None,
            first_core: CoreId(0),
        }),
        task,
    }
}

/// Places `piece` on `core` and renormalizes it, as a split commit does.
fn commit_piece(partition: &mut Partition, core: CoreId, piece: &PlacedTask) {
    partition.place(core, piece.clone());
    partition.renormalize_core_priorities(core);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Whenever the utilization screen fires, scratch RTA of the committed
    /// core rejects: for whole candidates, body pieces, tails and what-if
    /// evictions of every resident.
    #[test]
    fn the_utilization_screen_only_fires_where_scratch_rta_rejects(
        cores in 1usize..5,
        ops in vec(op(), 4..24),
        candidates in vec((0u8..3, 0usize..PERIODS.len(), 20u64..950, 0u64..3), 1..8),
    ) {
        let placer = IncrementalPlacer::new();
        let partition = build(&placer, cores, &ops);
        let mut oracle = partition.clone();
        for (k, (kind, period, per_mille, shorten)) in candidates.iter().enumerate() {
            let id = 10_000 + k as u32;
            let task = build_task(id, (*period, *per_mille, *shorten));
            let body = split_piece(id, SubtaskKind::Body, task.wcet(), task.period(), task.wcet());
            let tail = split_piece(id, SubtaskKind::Tail, task.wcet(), task.period(), task.deadline());
            for core in (0..cores).map(CoreId) {
                let rejects = |(_, responses): (Vec<Task>, Vec<Option<Time>>)| {
                    responses.iter().any(Option::is_none)
                };
                if partition.overloaded_with(core, task.utilization()) {
                    let committed = committed_core(&mut oracle, core, |p| match kind {
                        0 => commit_whole(&placer, p, core, &task),
                        1 => commit_piece(p, core, &body),
                        _ => commit_piece(p, core, &tail),
                    });
                    prop_assert!(rejects(committed), "screened candidate {} fits {}", k, core);
                }
                let residents: Vec<TaskId> =
                    partition.core(core).iter().map(|p| p.parent).collect();
                for removed in residents {
                    let evicted: f64 = partition
                        .core(core)
                        .iter()
                        .filter(|p| p.parent == removed)
                        .map(|p| p.task.utilization())
                        .sum();
                    if !partition.overloaded_with(core, task.utilization() - evicted) {
                        continue;
                    }
                    let committed = committed_core(&mut oracle, core, |p| {
                        p.remove_parent(removed);
                        commit_whole(&placer, p, core, &task);
                    });
                    prop_assert!(
                        rejects(committed),
                        "screened eviction of {} for candidate {} fits {}",
                        removed,
                        k,
                        core
                    );
                }
            }
        }
    }
}

/// On cores exact RTA fills to exactly 100 % the screen stays silent,
/// even where the float sum of the utilizations overshoots 1, and every
/// placer question reaches RTA and is accepted. A screen without its
/// margin, or one that fires at exactly 100 %, fails here.
#[test]
fn the_screen_passes_cores_exact_rta_fills_to_the_brim() {
    let core = CoreId(0);
    let task = |id: u32, wcet_ms: u64| {
        Task::new(id, Time::from_millis(wcet_ms), Time::from_millis(10)).expect("valid task")
    };
    let placer = IncrementalPlacer::new().with_min_split_budget(Time::from_millis(1));
    let filled = |wcets: &[u64]| {
        let mut partition = Partition::new(1);
        partition.enable_analysis_cache();
        for (id, wcet) in wcets.iter().enumerate() {
            commit_whole(&placer, &mut partition, core, &task(id as u32, *wcet));
        }
        partition
    };

    // 20 % + 40 % + 30 % in bin order plus 10 % is 1.0000000000000002 in
    // floating point, but with equal periods the lowest task meets its
    // deadline exactly: R = 10 ms = D.
    let partition = filled(&[2, 4, 3]);
    let tenth = task(9, 1);
    assert!(partition.core_utilization(core) + tenth.utilization() > 1.0);
    assert!(!partition.overloaded_with(core, tenth.utilization()));
    assert!(placer
        .plan_whole(&partition, &tenth, &[], Time::ZERO)
        .is_some());
    // A what-if eviction of the 40 % task for a 50 % candidate.
    assert!(placer.accepts_whole_without(&partition, core, &task(8, 5), &[TaskId(1)]));
    // A 1 ms tail and a 1 ms body piece.
    assert!(placer
        .plan_remote_tail(
            &partition,
            &task(7, 2),
            Time::from_millis(1),
            Time::ZERO,
            Time::ZERO
        )
        .is_some());
    let (_, _, budget) = placer
        .plan_remote_body(&partition, &task(6, 5), Time::ZERO)
        .expect("a 1 ms body fits");
    assert_eq!(budget, Time::from_millis(1));

    // Exactly 1.0 in floating point, and exactly schedulable.
    let partition = filled(&[5]);
    let half = task(9, 5);
    assert_eq!(partition.core_utilization(core) + half.utilization(), 1.0);
    assert!(!partition.overloaded_with(core, half.utilization()));
    assert!(placer
        .plan_whole(&partition, &half, &[], Time::ZERO)
        .is_some());

    // One nanosecond more is overloaded, and RTA agrees.
    let over = Task::new(9, Time::from_nanos(5_000_001), Time::from_millis(10)).expect("valid");
    assert!(partition.overloaded_with(core, over.utilization()));
    assert!(placer
        .plan_whole(&partition, &over, &[], Time::ZERO)
        .is_none());
}

/// The chain-capacity screen by its definition: a chain of `p ≥ 2` pieces
/// on distinct qualifying cores (not excluded, lacking a body or a tail)
/// has utilization `u(p)`, and it is screened when, for every `p`, the `p`
/// largest spares plus `p + 1` margins fall short of `u(p)`.
fn screen_by_definition(
    placer: &IncrementalPlacer,
    partition: &Partition,
    task: &Task,
    exclude: &[CoreId],
    charge: Time,
) -> bool {
    const MARGIN: f64 = 1e-9;
    let mut spares: Vec<f64> = (0..partition.core_count())
        .map(CoreId)
        .filter(|c| {
            let full = partition.core_has_body(*c) && partition.core_has_tail(*c);
            !exclude.contains(c) && !full
        })
        .map(|c| partition.spare_utilization(c))
        .collect();
    spares.sort_by(|a, b| b.partial_cmp(a).expect("spares are numbers"));
    let overhead = placer.overhead;
    let chain = |p: u64| {
        let wcet = task.wcet()
            + overhead.first_piece_inflation()
            + (overhead.body_piece_inflation() + charge) * (p - 2)
            + overhead.tail_piece_inflation()
            + charge;
        wcet.ratio(task.period())
    };
    (2..=spares.len()).all(|p| {
        let room: f64 = spares[..p].iter().sum::<f64>() + (p + 1) as f64 * MARGIN;
        chain(p as u64) > room
    })
}

/// Whenever the chain-capacity screen fires, no split plan exists; the
/// screen answers as its definition does; and it fires on at least a
/// tenth of the questions.
#[test]
fn the_chain_screen_only_fires_where_no_split_exists() {
    let mut rng = TestRng::deterministic();
    let case = (
        2usize..7,
        vec(op(), 4..24),
        0u64..20,
        vec((heavy_spec(), 0u64..300, 0usize..8), 1..8),
    );
    let (mut questions, mut fired, mut planned) = (0, 0, 0);
    for _ in 0..96 {
        let (cores, ops, overhead_tenths, candidates) = case.new_value(&mut rng);
        let overhead = OverheadModel::paper_n4().scaled(overhead_tenths as f64 / 10.0);
        let placer = IncrementalPlacer::new().with_overhead(overhead);
        let partition = build(&placer, cores, &ops);
        for (k, (spec, charge, excluded)) in candidates.into_iter().enumerate() {
            let task = build_task(10_000 + k as u32, spec);
            let exclude: Vec<CoreId> = (excluded < cores)
                .then_some(CoreId(excluded))
                .into_iter()
                .collect();
            let charge = us(charge);
            let screened = placer.chain_exceeds_capacity(&partition, &task, &exclude, charge);
            assert_eq!(
                screened,
                screen_by_definition(&placer, &partition, &task, &exclude, charge),
                "the one-pass screen disagrees with its definition for {}",
                task.id()
            );
            let plan = spms_telemetry::scoped::uncounted(|| {
                placer.plan_split(&partition, &task, &exclude, charge)
            });
            questions += 1;
            if screened {
                fired += 1;
                assert!(
                    plan.is_none(),
                    "a screened split of {} has a plan",
                    task.id()
                );
            } else if plan.is_some() {
                planned += 1;
            }
        }
    }
    assert!(
        fired * 10 >= questions,
        "the screen fired on {fired} of {questions} questions"
    );
    assert!(planned > 0, "no question was answered with a plan");
}
