//! FP-TS: semi-partitioned fixed-priority scheduling with task splitting.
//!
//! The paper adopts the FP-TS algorithm of Guan et al. (RTAS 2010, "Fixed-
//! Priority Multiprocessor Scheduling with Liu & Layland's Utilization
//! Bound"), whose assignment scheme is known as SPA1/SPA2:
//!
//! * tasks are assigned to processors in **increasing priority order**
//!   (lowest-priority first), filling one processor at a time;
//! * when the next task no longer fits on the processor currently being
//!   filled, it is **split**: a *body* subtask receives exactly the budget the
//!   processor can still accommodate, the processor is closed, and the
//!   remainder moves on to the next processor (splitting again if necessary)
//!   until the final *tail* subtask fits;
//! * split pieces are promoted above all non-split tasks on their host
//!   processor (body pieces above tail pieces), so a body piece completes
//!   within its budget and the tail piece within the synthetic deadline left
//!   over after the earlier pieces' windows. This is the promotion rule of
//!   the Kato/Yamasaki semi-partitioned schedulers (RTAS 2009) and makes the
//!   split pieces analysable with standard constrained-deadline RTA; Guan's
//!   original SPA analysis bounds the tail interference more precisely but
//!   needs a bespoke analysis, while the promotion lets one exact RTA judge
//!   every core, whole tasks and pieces alike;
//! * SPA2 additionally **pre-assigns heavy tasks** (utilization above
//!   `Θ(n)/(1+Θ(n))`) whole, first-fit, so that heavy tasks are never split;
//!   heavy tasks that do not fit whole anywhere fall back to the splitting
//!   pass. FP-TS always runs SPA2.
//!
//! Splitting overhead is charged where the paper's measurements say it
//! arises: every body subtask pays the migration path (scheduling decision,
//! context switch, *remote* ready-queue insertion, ready-queue delete on the
//! destination, migration cache reload), and the tail subtask pays the
//! remote sleep-queue insertion when it finishes.

use std::cmp::Reverse;

use serde::{Deserialize, Serialize};
use spms_analysis::{bounds, OverheadModel};
use spms_task::{by_decreasing_utilization, PriorityAssignment, Task, TaskSet, Time};

use crate::bins::{self, reserve_split_levels, Bins, Chain, Packer, Unplaced};
use crate::{Partition, PartitionError, PartitionOutcome, Partitioner};

/// Where a task that still fits whole (or whose final tail piece fits) is
/// placed during the splitting pass: the packing-oriented hybrid, or Guan's
/// original next-fit scheme, which splits far more often and so shows the
/// migration overhead the paper measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum SplitPlacement {
    /// Try to finish the task on *any* processor (first-fit) before splitting
    /// it; splits only happen when the task fits nowhere whole. Packs better
    /// and produces few split tasks.
    #[default]
    FirstFit,
    /// Only consider the processor currently being filled, as in Guan's SPA:
    /// whenever the next task exceeds what the current processor still
    /// accepts, a body piece is carved, the processor is closed and the
    /// remainder moves on. Splits are frequent, which is the configuration
    /// the paper's overhead question is really about.
    NextFit,
}

/// The FP-TS semi-partitioned partitioning algorithm.
///
/// # Example
///
/// ```
/// use spms_core::{SemiPartitionedFpTs, Partitioner, PartitionOutcome};
/// use spms_task::{Task, TaskSet, Time};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Three tasks of 60% utilization cannot be partitioned onto two cores,
/// // but semi-partitioning splits one of them across the two cores.
/// let tasks: TaskSet = (0..3)
///     .map(|i| Task::new(i, Time::from_millis(6), Time::from_millis(10)))
///     .collect::<Result<_, _>>()?;
/// let outcome = SemiPartitionedFpTs::default().partition(&tasks, 2)?;
/// let partition = match outcome {
///     PartitionOutcome::Schedulable(p) => p,
///     PartitionOutcome::Unschedulable { reason } => panic!("{reason}"),
/// };
/// assert_eq!(partition.split_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SemiPartitionedFpTs {
    /// Whether whole tasks / tail pieces are placed first-fit over all cores
    /// or only on the processor currently being filled (Guan's next-fit).
    pub placement: SplitPlacement,
    /// Run-time overheads; split pieces additionally pay the migration /
    /// remote-queue costs.
    pub overhead: OverheadModel,
    /// Smallest body-subtask budget worth creating; splits below this are
    /// skipped and the task simply moves on to the next processor.
    pub min_split_budget: Time,
}

impl Default for SemiPartitionedFpTs {
    fn default() -> Self {
        SemiPartitionedFpTs {
            placement: SplitPlacement::FirstFit,
            overhead: OverheadModel::zero(),
            min_split_budget: Time::from_micros(100),
        }
    }
}

impl SemiPartitionedFpTs {
    /// FP-TS with the next-fit splitting pass of Guan's original SPA scheme:
    /// tasks are only offered to the processor currently being filled, so
    /// splits occur whenever a processor fills up — the configuration with
    /// the most task splitting and therefore the most migration overhead.
    pub fn next_fit_splitting() -> Self {
        SemiPartitionedFpTs {
            placement: SplitPlacement::NextFit,
            ..SemiPartitionedFpTs::default()
        }
    }

    /// Replaces the overhead model (builder style).
    pub fn with_overhead(mut self, overhead: OverheadModel) -> Self {
        self.overhead = overhead;
        self
    }

    /// Sets the smallest admissible body-subtask budget (builder style).
    pub fn with_min_split_budget(mut self, budget: Time) -> Self {
        self.min_split_budget = budget;
        self
    }

    /// The partition FP-TS finds for `tasks` on `cores` processors, or
    /// `None` when it finds none or the input is invalid: the outcome of
    /// [`partition`](Partitioner::partition) without a reason to render.
    pub fn schedulable_partition(&self, tasks: &TaskSet, cores: usize) -> Option<Partition> {
        bins::pack(self, tasks, cores).ok()?.ok()
    }

    /// SPA2 pre-assignment: place every heavy task of `tasks` (offered in
    /// decreasing utilization order, so heaviest first) whole, first-fit,
    /// before the splitting pass, and leave only the rest in `tasks`. A
    /// heavy task that fits nowhere whole is left to the splitting pass
    /// instead of declaring failure outright.
    fn preassign_heavy(&self, tasks: &mut Vec<Task>, bins: &mut Bins) {
        let threshold = bounds::heavy_task_threshold(tasks.len().max(1));
        tasks.retain(|task| {
            !(task.utilization() > threshold && bins.place_whole_first_fit(task, &self.overhead))
        });
    }

    /// The SPA assignment pass over `tasks` (original parameters, in the
    /// order they are offered), starting from the existing `bins`.
    fn splitting_pass(&self, tasks: &[Task], bins: &mut Bins) -> Result<(), Unplaced> {
        let cores = bins.len();
        let mut current = 0usize;
        let mut chain = Chain::default();

        for task in tasks {
            chain.start(task);
            loop {
                if current >= cores {
                    return Err(Unplaced::Exhausted {
                        task: task.id(),
                        remaining: chain.remaining(),
                    });
                }

                // First try to finish the task (whole task or tail). Under
                // the first-fit placement any processor that does not already
                // host one of its pieces is considered; under Guan's next-fit
                // only the processor currently being filled is.
                let is_tail = !chain.is_empty();
                let last = if is_tail {
                    chain.tail(task, &self.overhead)
                } else {
                    self.overhead.inflate_task(task).ok()
                };
                if let Some(piece) = last {
                    let candidates = match self.placement {
                        SplitPlacement::FirstFit => 0..cores,
                        SplitPlacement::NextFit => current..current + 1,
                    };
                    let accepted_core = bins.first_accepting(candidates, &piece, |bins, c| {
                        // A tail piece runs at the promoted tail priority, and
                        // at most one tail may live on a core (stacked pieces
                        // on one level would charge each other's full budget).
                        chain.uses(c) || (is_tail && bins.has_tail(c))
                    });
                    if let Some(core) = accepted_core {
                        if is_tail {
                            chain.close(core, piece);
                            bins.push_chain(task.id(), &chain);
                        } else {
                            bins.push_whole(core, task, piece);
                        }
                        break;
                    }
                }

                // Otherwise carve out the largest body budget the processor
                // currently being filled still accepts, close it, and
                // continue with the remainder.
                if !chain.uses(current) {
                    bins.carve_body(
                        current,
                        task,
                        &mut chain,
                        &self.overhead,
                        self.min_split_budget,
                    );
                }
                // The processor is closed whether or not it received a piece.
                current += 1;
            }
        }
        Ok(())
    }
}

impl Packer for SemiPartitionedFpTs {
    const PRIORITIES: PriorityAssignment = PriorityAssignment::RateMonotonic;

    fn overhead(&self) -> &OverheadModel {
        &self.overhead
    }

    /// SPA2's heavy pre-assignment, then the splitting pass.
    fn pass(&self, bins: &mut Bins, mut tasks: Vec<Task>) -> Result<(), Unplaced> {
        reserve_split_levels(&mut tasks);
        // Tasks are offered in decreasing utilization order. Guan's SPA1
        // assigns in increasing priority order because its utilization-bound
        // argument needs it; with an explicit per-core RTA acceptance test
        // (and explicit priority promotion of split pieces) the order is only
        // a packing heuristic, and decreasing utilization — the same order the
        // FFD/WFD baselines use — packs measurably better, keeping FP-TS's
        // acceptance ratio at or above the partitioned baselines across the
        // whole sweep. The order is total (ids are unique), and SPA2's
        // heavy tasks are its prefix.
        // `by_decreasing_utilization`, dividing once per task: the bits of
        // a positive float order as its value does.
        tasks.sort_by_cached_key(|task| (Reverse(task.utilization().to_bits()), task.id()));
        debug_assert!(tasks.is_sorted_by(|a, b| by_decreasing_utilization(a, b).is_lt()));

        self.preassign_heavy(&mut tasks, bins);
        self.splitting_pass(&tasks, bins)
    }
}

impl Partitioner for SemiPartitionedFpTs {
    fn partition(&self, tasks: &TaskSet, cores: usize) -> Result<PartitionOutcome, PartitionError> {
        bins::outcome(self, tasks, cores)
    }

    fn name(&self) -> String {
        match self.placement {
            SplitPlacement::FirstFit => "FP-TS",
            SplitPlacement::NextFit => "FP-TS/NF",
        }
        .to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms_task::{Priority, TaskSetGenerator};

    fn task(id: u32, wcet_us: u64, period_us: u64) -> Task {
        Task::new(id, Time::from_micros(wcet_us), Time::from_micros(period_us)).unwrap()
    }

    fn set(tasks: Vec<Task>) -> TaskSet {
        tasks.into_iter().collect()
    }

    /// A generated set of `n` tasks at total utilization `u`; with
    /// `constrained`, deadlines spread between each task's WCET and its
    /// period.
    fn random_set(n: usize, u: f64, seed: u64, constrained: bool) -> TaskSet {
        let ts = TaskSetGenerator::new()
            .task_count(n)
            .total_utilization(u)
            .seed(seed)
            .generate()
            .unwrap();
        if !constrained {
            return ts;
        }
        ts.iter()
            .enumerate()
            .map(|(i, t)| {
                let slack = (t.period() - t.wcet()).as_nanos();
                Task::builder(t.id())
                    .wcet(t.wcet())
                    .period(t.period())
                    .deadline(t.wcet() + Time::from_nanos(slack * (i % 4) as u64 / 4))
                    .build()
                    .unwrap()
            })
            .collect()
    }

    /// Runs `packer`'s pass over `ts` on four bins and asserts that every
    /// bin's cache equals a from-scratch analysis of the bin; whether the
    /// pass hit the utilization screen.
    fn pass_leaves_caches_exact<P: Packer>(packer: &P, ts: &TaskSet) -> bool {
        let (bins, _) = bins::fill(packer, ts, 4);
        bins::tests::assert_caches_exact(&bins)
    }

    #[test]
    fn every_pass_leaves_each_bin_analysis_exact() {
        // Whether each packer's pass hit the screen: FP-TS, FP-TS/NF, FFD,
        // WFD and DM-PM.
        let mut screened = [false; 5];
        let (mut with_heavy, mut without_heavy) = (false, false);
        for constrained in [false, true] {
            for overhead in [OverheadModel::zero(), OverheadModel::paper_n4()] {
                // Few tasks at high utilization carry SPA2-heavy tasks; many
                // tasks at the same utilization carry none.
                for (n, u) in [(6, 3.3), (24, 3.4)] {
                    for seed in 0..6 {
                        let ts = random_set(n, u, 300 + seed, constrained);
                        if ts.iter().any(|t| overhead.inflate_task(t).is_err()) {
                            continue;
                        }
                        let threshold = bounds::heavy_task_threshold(n);
                        if ts.iter().any(|t| t.utilization() > threshold) {
                            with_heavy = true;
                        } else {
                            without_heavy = true;
                        }
                        let hits = [
                            pass_leaves_caches_exact(
                                &SemiPartitionedFpTs::default().with_overhead(overhead),
                                &ts,
                            ),
                            pass_leaves_caches_exact(
                                &SemiPartitionedFpTs::next_fit_splitting().with_overhead(overhead),
                                &ts,
                            ),
                            pass_leaves_caches_exact(
                                &crate::PartitionedFixedPriority::ffd().with_overhead(overhead),
                                &ts,
                            ),
                            pass_leaves_caches_exact(
                                &crate::PartitionedFixedPriority::wfd().with_overhead(overhead),
                                &ts,
                            ),
                            pass_leaves_caches_exact(
                                &crate::SemiPartitionedDmPm::new().with_overhead(overhead),
                                &ts,
                            ),
                        ];
                        for (seen, hit) in screened.iter_mut().zip(hits) {
                            *seen |= hit;
                        }
                    }
                }
            }
        }
        assert_eq!(
            screened, [true; 5],
            "a pass never hit the utilization screen"
        );
        assert!(
            with_heavy && without_heavy,
            "the sets must include and omit heavy tasks"
        );
    }

    #[test]
    fn names() {
        assert_eq!(SemiPartitionedFpTs::default().name(), "FP-TS");
        assert_eq!(SemiPartitionedFpTs::next_fit_splitting().name(), "FP-TS/NF");
    }

    #[test]
    fn zero_cores_is_an_error() {
        let ts = set(vec![task(0, 1, 10)]);
        assert_eq!(
            SemiPartitionedFpTs::default()
                .partition(&ts, 0)
                .unwrap_err(),
            PartitionError::NoCores
        );
    }

    #[test]
    fn light_set_is_not_split() {
        let ts = set(vec![task(0, 1_000, 10_000), task(1, 2_000, 20_000)]);
        let p = SemiPartitionedFpTs::default()
            .partition(&ts, 2)
            .unwrap()
            .into_partition()
            .expect("schedulable");
        assert_eq!(p.split_count(), 0);
        assert_eq!(p.placement_count(), 2);
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn three_sixty_percent_tasks_fit_on_two_cores_only_by_splitting() {
        let ts = set(vec![
            task(0, 6_000, 10_000),
            task(1, 6_000, 10_000),
            task(2, 6_000, 10_000),
        ]);
        // Partitioned scheduling cannot do this.
        let ffd = crate::PartitionedFixedPriority::ffd()
            .partition(&ts, 2)
            .unwrap();
        assert!(!ffd.is_schedulable());
        // FP-TS splits one of the tasks.
        let p = SemiPartitionedFpTs::default()
            .partition(&ts, 2)
            .unwrap()
            .into_partition()
            .expect("schedulable by splitting");
        assert_eq!(p.split_count(), 1);
        assert_eq!(p.validate(), Ok(()));
        assert!(p.is_schedulable());
        // One body piece plus one tail piece.
        assert_eq!(p.iter().filter(|(_, placed)| placed.is_body()).count(), 1);
    }

    #[test]
    fn split_budgets_cover_the_whole_wcet_without_overhead() {
        let ts = set(vec![
            task(0, 6_000, 10_000),
            task(1, 6_000, 10_000),
            task(2, 6_000, 10_000),
        ]);
        let p = SemiPartitionedFpTs::default()
            .partition(&ts, 2)
            .unwrap()
            .into_partition()
            .unwrap();
        // With a zero overhead model the piece WCETs of each split task must
        // sum to the parent's WCET.
        for parent in 0..3u32 {
            let pieces: Vec<_> = p
                .iter()
                .filter(|(_, placed)| {
                    placed.parent == spms_task::TaskId(parent) && placed.is_split()
                })
                .collect();
            if pieces.is_empty() {
                continue;
            }
            let total: Time = pieces.iter().map(|(_, placed)| placed.task.wcet()).sum();
            assert_eq!(total, Time::from_micros(6_000));
        }
    }

    #[test]
    fn body_subtasks_have_highest_priority_and_tails_keep_rank() {
        let ts = set(vec![
            task(0, 6_000, 10_000),
            task(1, 6_000, 10_000),
            task(2, 6_000, 10_000),
        ]);
        let p = SemiPartitionedFpTs::default()
            .partition(&ts, 2)
            .unwrap()
            .into_partition()
            .unwrap();
        for (_, placed) in p.iter() {
            if placed.is_body() {
                assert_eq!(placed.task.priority(), Some(Priority::new(0)));
            } else if placed.is_tail() {
                assert_eq!(placed.task.priority(), Some(Priority::new(1)));
            } else {
                assert!(placed.task.priority().unwrap().level() >= 2);
            }
        }
    }

    #[test]
    fn unschedulable_when_total_demand_exceeds_platform() {
        let ts = set(vec![
            task(0, 9_000, 10_000),
            task(1, 9_000, 10_000),
            task(2, 9_000, 10_000),
        ]);
        let outcome = SemiPartitionedFpTs::default().partition(&ts, 2).unwrap();
        assert!(!outcome.is_schedulable());
    }

    #[test]
    fn spa2_places_heavy_tasks_whole() {
        // Two heavy tasks (70%) plus light ones; SPA2 must not split the
        // heavy tasks.
        let ts = set(vec![
            task(0, 7_000, 10_000),
            task(1, 7_000, 10_000),
            task(2, 2_000, 10_000),
            task(3, 2_000, 10_000),
        ]);
        let p = SemiPartitionedFpTs::default()
            .partition(&ts, 2)
            .unwrap()
            .into_partition()
            .expect("schedulable");
        for (_, placed) in p.iter() {
            if placed.parent == spms_task::TaskId(0) || placed.parent == spms_task::TaskId(1) {
                assert!(!placed.is_split(), "heavy tasks must not be split");
            }
        }
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn fpts_acceptance_ratio_dominates_ffd() {
        // The paper's headline claim is about the acceptance *ratio*: across
        // many random task sets at high utilization, FP-TS accepts at least
        // as many sets as FFD and strictly more overall (per-instance
        // dominance is not claimed by either paper).
        let mut ffd_accepted = 0usize;
        let mut fpts_accepted = 0usize;
        for seed in 0..25 {
            let ts = TaskSetGenerator::new()
                .task_count(12)
                .total_utilization(3.7)
                .seed(seed)
                .generate()
                .unwrap();
            if crate::PartitionedFixedPriority::ffd()
                .partition(&ts, 4)
                .unwrap()
                .is_schedulable()
            {
                ffd_accepted += 1;
            }
            if SemiPartitionedFpTs::default()
                .partition(&ts, 4)
                .unwrap()
                .is_schedulable()
            {
                fpts_accepted += 1;
            }
        }
        assert!(
            fpts_accepted > ffd_accepted,
            "FP-TS accepted {fpts_accepted}/25, FFD accepted {ffd_accepted}/25"
        );
    }

    #[test]
    fn partitions_are_valid_and_deterministic_on_random_sets() {
        for seed in 0..10 {
            let ts = TaskSetGenerator::new()
                .task_count(16)
                .total_utilization(3.2)
                .seed(100 + seed)
                .generate()
                .unwrap();
            let a = SemiPartitionedFpTs::default().partition(&ts, 4).unwrap();
            let b = SemiPartitionedFpTs::default().partition(&ts, 4).unwrap();
            assert_eq!(a, b);
            if let PartitionOutcome::Schedulable(p) = a {
                assert_eq!(p.validate(), Ok(()));
                assert!(p.is_schedulable());
            }
        }
    }

    #[test]
    fn overhead_makes_acceptance_slightly_harder() {
        let mut accepted_without = 0usize;
        let mut accepted_with = 0usize;
        for seed in 0..30 {
            let ts = TaskSetGenerator::new()
                .task_count(12)
                .total_utilization(3.6)
                .seed(200 + seed)
                .generate()
                .unwrap();
            if SemiPartitionedFpTs::default()
                .partition(&ts, 4)
                .unwrap()
                .is_schedulable()
            {
                accepted_without += 1;
            }
            if SemiPartitionedFpTs::default()
                .with_overhead(OverheadModel::paper_n4())
                .partition(&ts, 4)
                .unwrap()
                .is_schedulable()
            {
                accepted_with += 1;
            }
        }
        assert!(accepted_with <= accepted_without);
        // The paper's headline: the overhead effect is small, not devastating.
        assert!(
            accepted_without - accepted_with <= 10,
            "overhead wiped out schedulability: {accepted_without} -> {accepted_with}"
        );
    }

    #[test]
    fn split_pieces_respect_min_budget() {
        let ts = set(vec![
            task(0, 6_000, 10_000),
            task(1, 6_000, 10_000),
            task(2, 6_000, 10_000),
        ]);
        let p = SemiPartitionedFpTs::default()
            .with_min_split_budget(Time::from_micros(500))
            .partition(&ts, 2)
            .unwrap()
            .into_partition()
            .unwrap();
        for (_, placed) in p.iter() {
            if placed.is_body() {
                assert!(placed.task.wcet() >= Time::from_micros(500));
            }
        }
    }
}
