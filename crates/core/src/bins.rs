//! The bin store every offline packer fills, and the front door they share.
//!
//! FP-TS ([`SemiPartitionedFpTs`]), DM-PM ([`SemiPartitionedDmPm`]) and the
//! FFD/WFD baselines ([`PartitionedFixedPriority`]) differ only in the order
//! they offer tasks, the priorities they give them and where they look for
//! room. Everything else is here, once:
//!
//! * [`pack`] — the front door: the core count and the set are checked, a
//!   task that cannot absorb the whole-job overhead is turned away, the set
//!   is prioritised, a [`Packer`]'s pass fills fresh [`Bins`], and the
//!   result is checked once more against from-scratch RTA. A pass that
//!   cannot place a task names it with a typed [`Unplaced`]; only
//!   [`outcome`] renders it as a reason string, so a caller that only
//!   wants the partition ([`SemiPartitionedFpTs::schedulable_partition`])
//!   formats nothing.
//! * [`Bins`] — "does this piece fit on this bin?" through one cached
//!   analysis per bin, a utilization screen and installed proofs.
//! * [`Chain`] — the pieces of the task being split; [`Bins::carve_body`]
//!   adds a body piece to it and [`Bins::push_chain`] places it.
//!
//! [`SemiPartitionedFpTs`]: crate::SemiPartitionedFpTs
//! [`SemiPartitionedFpTs::schedulable_partition`]: crate::SemiPartitionedFpTs::schedulable_partition
//! [`SemiPartitionedDmPm`]: crate::SemiPartitionedDmPm
//! [`PartitionedFixedPriority`]: crate::PartitionedFixedPriority

use spms_analysis::{rta, CachedCoreAnalysis, OverheadModel};
use spms_task::{Priority, PriorityAssignment, Task, TaskId, TaskSet, Time};
use spms_telemetry::{scoped, HotCounter};

use crate::placement::{chain_placements, UTILIZATION_SCREEN_MARGIN};
use crate::split_budget::{body_piece, body_piece_overhead, tail_piece};
use crate::{CoreId, Partition, PartitionError, PartitionOutcome, PlacedTask};

/// An offline packer: the priority order it gives the set and the pass
/// that places it into [`Bins`].
pub(crate) trait Packer {
    /// The priority assignment the pass's tasks carry.
    const PRIORITIES: PriorityAssignment;

    /// The overhead model whose whole-job inflation every task must absorb.
    fn overhead(&self) -> &OverheadModel;

    /// Places `tasks` (original parameters carrying
    /// [`PRIORITIES`](Self::PRIORITIES) levels, in input order, each able
    /// to absorb the whole-job overhead) into `bins`, or names the task
    /// that fits nowhere.
    fn pass(&self, bins: &mut Bins, tasks: Vec<Task>) -> Result<(), Unplaced>;
}

/// Why a packer could not place a set.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Unplaced {
    /// The task cannot absorb the whole-job overhead within its deadline
    /// (splitting it would not reduce the overhead).
    Overhead(TaskId),
    /// A partitioned packer found no core for the whole task, of
    /// (inflated) `utilization`.
    NoFit { task: TaskId, utilization: f64 },
    /// FP-TS closed every processor with `remaining` execution unplaced.
    Exhausted { task: TaskId, remaining: Time },
    /// DM-PM's split covered all but `remaining` of the task's `wcet`.
    Unsplit {
        task: TaskId,
        remaining: Time,
        wcet: Time,
    },
    /// The finished partition failed from-scratch RTA on some core.
    FinalCheck,
}

impl Unplaced {
    /// The human-readable reason on a platform of `cores` processors.
    fn reason(self, cores: usize) -> String {
        match self {
            Unplaced::Overhead(task) => {
                format!("task {task} cannot absorb the scheduling overhead within its deadline")
            }
            Unplaced::NoFit { task, utilization } => format!(
                "task {task} (U={utilization:.3}) does not fit on any of the {cores} cores under the rta test"
            ),
            Unplaced::Exhausted { task, remaining } => {
                format!("task {task} exhausted all {cores} processors ({remaining} still unplaced)")
            }
            Unplaced::Unsplit {
                task,
                remaining,
                wcet,
            } => format!(
                "task {task} could not be split across {cores} processors ({remaining} of {wcet} still unplaced)"
            ),
            Unplaced::FinalCheck => "final per-core acceptance test failed".to_owned(),
        }
    }
}

/// Runs `packer` over `tasks` on `cores` processors: the shared front door
/// of every offline packer (see the [module docs](self)).
///
/// # Errors
///
/// [`PartitionError::NoCores`] for zero cores, or the set's validation
/// error.
pub(crate) fn pack<P: Packer>(
    packer: &P,
    tasks: &TaskSet,
    cores: usize,
) -> Result<Result<Partition, Unplaced>, PartitionError> {
    if cores == 0 {
        return Err(PartitionError::NoCores);
    }
    tasks.validate()?;
    if let Some(task) = tasks
        .iter()
        .find(|task| packer.overhead().inflate_task(task).is_err())
    {
        return Ok(Err(Unplaced::Overhead(task.id())));
    }
    let (bins, pass) = fill(packer, tasks, cores);
    bins.report_work();
    if let Err(unplaced) = pass {
        return Ok(Err(unplaced));
    }
    let partition = bins.into_partition();
    debug_assert_eq!(partition.validate(), Ok(()));
    // Final safety net: every core must pass the acceptance test with the
    // complete assignment (the bins' exact probes already guarantee this,
    // but the partition is the contract handed to the simulator).
    if !partition.is_schedulable() {
        return Ok(Err(Unplaced::FinalCheck));
    }
    Ok(Ok(partition))
}

/// [`pack`] as a [`PartitionOutcome`], an unplaced set rendered as its
/// reason.
pub(crate) fn outcome<P: Packer>(
    packer: &P,
    tasks: &TaskSet,
    cores: usize,
) -> Result<PartitionOutcome, PartitionError> {
    Ok(match pack(packer, tasks, cores)? {
        Ok(partition) => PartitionOutcome::Schedulable(partition),
        Err(unplaced) => PartitionOutcome::Unschedulable {
            reason: unplaced.reason(cores),
        },
    })
}

/// Gives `tasks` the packer's priorities and runs its pass over fresh
/// bins. Returns the bins and the pass's verdict.
pub(crate) fn fill<P: Packer>(
    packer: &P,
    tasks: &TaskSet,
    cores: usize,
) -> (Bins, Result<(), Unplaced>) {
    let mut tasks = tasks.clone();
    tasks.assign_priorities(P::PRIORITIES);
    let mut bins = Bins::new(cores);
    let pass = packer.pass(&mut bins, tasks.into_iter().collect());
    (bins, pass)
}

/// Shifts every task's priority level down by
/// [`WHOLE_PRIORITY_BASE`](crate::WHOLE_PRIORITY_BASE), so the levels above
/// it stay reserved for promoted body and tail pieces: the per-core
/// priority of a task a splitting packer assigns whole.
pub(crate) fn reserve_split_levels(tasks: &mut [Task]) {
    for task in tasks {
        let level = task.priority().map_or(u32::MAX, |p| p.level());
        task.set_priority(Priority::new(
            level.saturating_add(crate::WHOLE_PRIORITY_BASE),
        ));
    }
}

/// The per-core bins an assignment pass fills, with what lets each
/// placement question be answered once and cheaply.
///
/// * **Exact analysis.** Every bin carries an incremental
///   [`CachedCoreAnalysis`], so a probe reuses the converged responses of
///   the tasks ranked above the candidate instead of re-analysing the whole
///   core, and a body budget is one frontier scan
///   ([`CachedCoreAnalysis::max_prioritised_wcet`]).
/// * **Screen.** Each bin keeps its utilization: the bin-order sum of its
///   placements' (inflated) utilizations, seeded `-0.0` like
///   [`Partition::core_utilization`]. A candidate that would lift it above
///   `1 + 1e-9` is rejected without a probe: every task here has `D ≤ T`,
///   and then `U > 1` fails exact RTA (see
///   [`Partition::overloaded_with`]). The smallest body piece is screened
///   the same way before a budget scan: a bin that cannot take it takes no
///   budget. Debug builds re-run the exact test on every hit and assert
///   that it rejects.
/// * **Proof.** A probe that accepts a whole task or a tail piece
///   hands its converged responses to a buffer the bins reuse; pushing
///   that same piece onto that same bin installs them
///   ([`CachedCoreAnalysis::insert_proven`]) instead of re-converging the
///   core. Body pieces have no probe and are inserted warm.
/// * **Counters.** Exact whole/tail probes, screen hits and body-budget
///   scans (plus any bisection probes behind a declined scan) are tallied
///   in plain fields and handed to the hot counters once per pass
///   ([`report_work`](Self::report_work)) as [`HotCounter::WholeProbes`],
///   [`HotCounter::UtilizationScreens`] and [`HotCounter::SplitProbes`]:
///   a per-probe bump would be a process-wide atomic add, and offline
///   sweeps run the packers on several threads.
///
/// Probe verdicts are bit-identical to the from-scratch test, so none of
/// this changes a placement.
pub(crate) struct Bins {
    bins: Vec<Vec<PlacedTask>>,
    caches: Vec<CachedCoreAnalysis>,
    utilizations: Vec<f64>,
    /// The responses the last accepting exact probe converged, and the
    /// `(bin, task)` they were taken for; any other push onto that bin
    /// voids them.
    proof: Vec<Time>,
    proven: Option<(usize, TaskId)>,
    whole_probes: u64,
    screens: u64,
    split_probes: u64,
}

impl Bins {
    fn new(cores: usize) -> Self {
        Bins {
            bins: vec![Vec::new(); cores],
            caches: vec![CachedCoreAnalysis::new(); cores],
            utilizations: vec![-0.0; cores],
            proof: Vec::new(),
            proven: None,
            whole_probes: 0,
            screens: 0,
            split_probes: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.bins.len()
    }

    /// The bin-order sum of the (inflated) utilizations placed on `core`.
    pub(crate) fn utilization(&self, core: usize) -> f64 {
        self.utilizations[core]
    }

    /// The first of `cores`, in the order given, that `skip` does not rule
    /// out and that still passes the test with `candidate` added. Each core
    /// is asked the screen, then one counted exact probe, whose acceptance
    /// leaves its proof for [`push`](Self::push). Every candidate carries
    /// its final priority, so the probe ranks it by its explicit level.
    pub(crate) fn first_accepting(
        &mut self,
        cores: impl IntoIterator<Item = usize>,
        candidate: &Task,
        skip: impl Fn(&Self, usize) -> bool,
    ) -> Option<usize> {
        let u = candidate.utilization();
        cores.into_iter().find(|&core| {
            !skip(self, core) && !self.screened(core, candidate, u) && self.probe(core, candidate)
        })
    }

    /// One counted exact probe of `candidate` on `core`.
    fn probe(&mut self, core: usize, candidate: &Task) -> bool {
        self.whole_probes += 1;
        self.proven = None;
        let proof = &mut self.proof;
        proof.clear();
        let level = rta::effective_priority(candidate).level();
        let accepted = self.caches[core]
            .probe_candidate_with(
                candidate,
                |t| rta::effective_priority(t).level() > level,
                |t| rta::effective_priority(t).level() == level,
                |r| proof.push(r),
            )
            .is_none();
        if accepted {
            self.proven = Some((core, candidate.id()));
        }
        accepted
    }

    /// Whether the utilization screen rejects `candidate`, of utilization
    /// `u`, on `core` (counted as a screen hit).
    fn screened(&mut self, core: usize, candidate: &Task, u: f64) -> bool {
        if self.utilizations[core] + u <= 1.0 + UTILIZATION_SCREEN_MARGIN {
            return false;
        }
        self.screens += 1;
        debug_assert!(
            !scoped::uncounted(|| self.caches[core].accepts_prioritised(candidate)),
            "the utilization screen rejected what the exact test accepts on P{core}"
        );
        true
    }

    /// Carves the next body piece of `chain` (pieces of `task`) on `core`:
    /// the largest budget in `[min_split_budget, …]` the core still admits
    /// that leaves the chain its deadline and at least one nanosecond for
    /// later pieces, charged the body-piece overhead of its chain index.
    /// The chain is left as it was when the core admits no such piece — at
    /// once when the screen rejects even the smallest one.
    pub(crate) fn carve_body(
        &mut self,
        core: usize,
        task: &Task,
        chain: &mut Chain,
        overhead: &OverheadModel,
        min_split_budget: Time,
    ) {
        let piece_overhead = body_piece_overhead(overhead, chain.pieces.len());
        let deadline_room = task
            .deadline()
            .saturating_sub(chain.offset)
            .saturating_sub(piece_overhead);
        let max_budget = chain
            .remaining
            .saturating_sub(Time::from_nanos(1))
            .min(deadline_room);
        if max_budget < min_split_budget {
            return;
        }
        let smallest =
            crate::split_budget::smallest_body_piece(task, piece_overhead, min_split_budget);
        if smallest.is_some_and(|piece| self.screened(core, &piece, piece.utilization())) {
            return;
        }
        let mut probes = 1;
        let budget = crate::split_budget::max_body_budget(
            &self.caches[core],
            task,
            piece_overhead,
            min_split_budget,
            max_budget,
            |piece| {
                probes += 1;
                self.caches[core].accepts_prioritised(piece)
            },
        );
        self.split_probes += probes;
        if budget.is_zero() {
            return;
        }
        debug_assert!(budget >= min_split_budget);
        let piece = body_piece(task, budget, piece_overhead)
            .expect("an admitted budget leaves the piece within its deadline");
        chain.push(core, piece, budget);
    }

    /// Places `placed` on `core`, installing the proof its accepting probe
    /// left when there is one.
    pub(crate) fn push(&mut self, core: usize, placed: PlacedTask) {
        let proven = self.proven.take_if(|(bin, _)| *bin == core);
        if proven == Some((core, placed.task.id())) {
            self.caches[core].insert_proven(placed.task.clone(), &self.proof);
        } else {
            self.caches[core].insert(placed.task.clone());
        }
        self.utilizations[core] += placed.task.utilization();
        self.bins[core].push(placed);
    }

    /// Places `task` whole on `core` as `analysis`, its overhead-inflated
    /// copy, executing its own WCET.
    pub(crate) fn push_whole(&mut self, core: usize, task: &Task, analysis: Task) {
        self.push(
            core,
            PlacedTask::whole(analysis).with_execution(task.wcet()),
        );
    }

    /// Places `task` whole, its WCET inflated by the whole-job overhead, on
    /// the first bin that accepts it; whether one did.
    pub(crate) fn place_whole_first_fit(&mut self, task: &Task, overhead: &OverheadModel) -> bool {
        let Ok(analysis) = overhead.inflate_task(task) else {
            return false;
        };
        let Some(core) = self.first_accepting(0..self.len(), &analysis, |_, _| false) else {
            return false;
        };
        self.push_whole(core, task, analysis);
        true
    }

    /// Places the pieces of `chain`, split from the task `parent`, in chain
    /// order with their split metadata.
    pub(crate) fn push_chain(&mut self, parent: TaskId, chain: &Chain) {
        let pieces = chain
            .pieces
            .iter()
            .map(|(core, piece, budget)| (CoreId(*core), piece.clone(), *budget));
        for (core, placed) in chain_placements(parent, chain.pieces.len(), pieces) {
            self.push(core.0, placed);
        }
    }

    pub(crate) fn has_body(&self, core: usize) -> bool {
        self.bins[core].iter().any(PlacedTask::is_body)
    }

    pub(crate) fn has_tail(&self, core: usize) -> bool {
        self.bins[core].iter().any(PlacedTask::is_tail)
    }

    /// Adds this pass's tallies to the hot counters.
    fn report_work(&self) {
        scoped::add(HotCounter::WholeProbes, self.whole_probes);
        scoped::add(HotCounter::UtilizationScreens, self.screens);
        scoped::add(HotCounter::SplitProbes, self.split_probes);
    }

    fn into_partition(self) -> Partition {
        let mut partition = Partition::new(self.bins.len());
        for (core, bin) in self.bins.into_iter().enumerate() {
            for placed in bin {
                partition.place(CoreId(core), placed);
            }
        }
        partition
    }
}

/// The task being split: its pieces so far in chain order, as `(bin,
/// analysis piece, pure execution budget)`, the execution still to place
/// and the release offset of the next piece. One chain serves every task
/// of a pass.
#[derive(Default)]
pub(crate) struct Chain {
    pieces: Vec<(usize, Task, Time)>,
    remaining: Time,
    offset: Time,
}

impl Chain {
    /// Starts the chain of `task`: no pieces, its whole WCET to place.
    pub(crate) fn start(&mut self, task: &Task) {
        self.pieces.clear();
        self.remaining = task.wcet();
        self.offset = Time::ZERO;
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pieces.is_empty()
    }

    /// Whether a piece of the chain already sits on `core`.
    pub(crate) fn uses(&self, core: usize) -> bool {
        self.pieces.iter().any(|(c, _, _)| *c == core)
    }

    /// The execution still to place.
    pub(crate) fn remaining(&self) -> Time {
        self.remaining
    }

    /// The tail piece that would finish `task` with what is left, or
    /// `None` when it cannot meet what is left of the deadline.
    pub(crate) fn tail(&self, task: &Task, overhead: &OverheadModel) -> Option<Task> {
        tail_piece(
            task,
            self.remaining,
            self.offset,
            overhead.tail_piece_inflation(),
        )
    }

    /// Closes the chain with `tail`, on `core`, covering what is left.
    pub(crate) fn close(&mut self, core: usize, tail: Task) {
        self.push(core, tail, self.remaining);
    }

    fn push(&mut self, core: usize, piece: Task, budget: Time) {
        self.offset += piece.wcet();
        self.remaining -= budget;
        self.pieces.push((core, piece, budget));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Asserts that every bin's cache equals a from-scratch analysis of
    /// the bin; whether the pass hit the utilization screen.
    pub(crate) fn assert_caches_exact(bins: &Bins) -> bool {
        for (bin, cache) in bins.bins.iter().zip(&bins.caches) {
            let tasks: Vec<Task> = bin.iter().map(|p| p.task.clone()).collect();
            assert_eq!(*cache, CachedCoreAnalysis::from_tasks(&tasks));
        }
        bins.screens > 0
    }

    #[test]
    fn reasons_render_as_the_packers_always_worded_them() {
        let task = TaskId(3);
        let ms = Time::from_millis;
        assert_eq!(
            Unplaced::Overhead(task).reason(4),
            "task τ3 cannot absorb the scheduling overhead within its deadline"
        );
        assert_eq!(
            Unplaced::NoFit {
                task,
                utilization: 0.4567
            }
            .reason(4),
            "task τ3 (U=0.457) does not fit on any of the 4 cores under the rta test"
        );
        assert_eq!(
            Unplaced::Exhausted {
                task,
                remaining: ms(2)
            }
            .reason(4),
            format!(
                "task τ3 exhausted all 4 processors ({} still unplaced)",
                ms(2)
            )
        );
        assert_eq!(
            Unplaced::Unsplit {
                task,
                remaining: ms(2),
                wcet: ms(5)
            }
            .reason(4),
            format!(
                "task τ3 could not be split across 4 processors ({} of {} still unplaced)",
                ms(2),
                ms(5)
            )
        );
    }
}
