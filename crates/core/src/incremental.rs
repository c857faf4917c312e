//! Incremental placement: admitting one task into an existing partition.
//!
//! The offline algorithms in this crate ([`SemiPartitionedFpTs`],
//! [`PartitionedFixedPriority`]) assume the whole task set is known up
//! front. Online admission control (the `spms-online` crate) instead grows
//! and shrinks a live [`Partition`] one task at a time, and needs two
//! primitives this module provides:
//!
//! * [`IncrementalPlacer::plan_whole`] — first-fit placement of a single
//!   task, validated by exact per-core response-time analysis;
//! * [`IncrementalPlacer::plan_split`] — FP-TS-style splitting of a single
//!   task across the residual capacity of several cores (bodies are carved
//!   with the same promoted-priority, `C = D` scheme as
//!   [`SemiPartitionedFpTs`], so the resulting pieces are analysable with
//!   the standard constrained-deadline RTA).
//!
//! Planning is separated from committing so that callers can evaluate
//! tentative placements (the bounded-repair search of the online controller
//! moves tasks speculatively and rolls back). Every probe reads one
//! per-core analysis, [`Partition::core_analysis`]: the converged slot of
//! the partition's attached cache, or one built on the fly when there is
//! none. A boolean placement question is first put to the core's
//! utilization ([`Partition::overloaded_with`]): a core the candidate
//! would take past 100 % cannot pass RTA, so the question is answered
//! without a probe. All plans are deterministic:
//! cores are scanned in index order for whole placements, and bodies are
//! carved on the core with the most residual utilization (ties broken by
//! index).
//!
//! Priority discipline: within each core, promoted body subtasks sit at
//! [`BODY_PRIORITY`](crate::BODY_PRIORITY), promoted tails at
//! [`TAIL_PRIORITY`](crate::TAIL_PRIORITY), and tasks assigned whole receive
//! dense deadline-monotonic levels from
//! [`WHOLE_PRIORITY_BASE`](crate::WHOLE_PRIORITY_BASE) upward, recomputed by
//! [`Partition::renormalize_core_priorities`] after every mutation. At most
//! one body and one tail may live on a core: the per-core RTA counts
//! same-level tasks as mutually interfering, so stacking promoted pieces on
//! one level would charge each the other's full budget and void the
//! guarantee that a body completes within its own budget.
//!
//! [`SemiPartitionedFpTs`]: crate::SemiPartitionedFpTs
//! [`PartitionedFixedPriority`]: crate::PartitionedFixedPriority

use std::borrow::Cow;

use serde::{Deserialize, Serialize};
use spms_analysis::{CachedCoreAnalysis, OverheadModel};
use spms_task::{Task, TaskId, Time};
use spms_telemetry::{scoped, HotCounter};

use crate::placement::{has_reserved_level, whole_rank_key};
use crate::{CoreId, Partition, PlacedTask, SplitInfo, SubtaskKind};

/// How an incrementally admitted task ended up in the partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlacementPlan {
    /// The task fits whole on one core.
    Whole {
        /// The accepting core.
        core: CoreId,
        /// The analysis task (WCET inflated by the overhead model; priority
        /// assigned on commit by the per-core renormalization).
        analysis_task: Task,
        /// What the accepting probe converged on the core's cached
        /// analysis, for the commit to install; `None` when the probe read
        /// no converged cache slot (or the plan was built by hand).
        proof: Option<WholeProof>,
    },
    /// The task was split across two or more cores, FP-TS style.
    Split {
        /// The placements in chain order (bodies first, tail last), ready to
        /// insert into the partition.
        pieces: Vec<(CoreId, PlacedTask)>,
    },
}

impl PlacementPlan {
    /// The cores this plan touches, in chain order.
    pub fn cores(&self) -> Vec<CoreId> {
        match self {
            PlacementPlan::Whole { core, .. } => vec![*core],
            PlacementPlan::Split { pieces } => pieces.iter().map(|(c, _)| *c).collect(),
        }
    }

    /// Whether the plan splits the task.
    pub fn is_split(&self) -> bool {
        matches!(self, PlacementPlan::Split { .. })
    }
}

/// The proof an accepting whole probe leaves in its
/// [`PlacementPlan::Whole`]: every response time the committed core needs
/// that the placement changes — the candidate's and each entry it
/// outranks — plus the core's generation when the probe ran.
/// [`IncrementalPlacer::commit`] installs the responses only while the
/// core still has that generation (equal generation ⇒ identical core, see
/// [`Partition::core_generation`]); otherwise it re-derives them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WholeProof {
    generation: u64,
    responses: Vec<Time>,
}

/// Outcome of probing one core for a whole-task placement with blocker
/// localization ([`IncrementalPlacer::probe_whole`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WholeProbe {
    /// The core accepts the task whole.
    Accepted,
    /// The core rejects the task.
    Blocked {
        /// The first task whose slack goes negative with the candidate
        /// added — the candidate's own id when its recurrence exceeds its
        /// deadline, otherwise the first existing task (in per-core
        /// (level, id) order) that would miss its deadline. On a core that
        /// is already unschedulable, its first failing task. `None` only
        /// when the task cannot absorb the overhead within its deadline,
        /// so no core could host it.
        blocker: Option<TaskId>,
    },
}

/// Places single tasks into an existing partition, whole-first-fit with an
/// FP-TS-style splitting fallback. Every placement is validated by exact
/// per-core response-time analysis. See the module docs of `incremental.rs`
/// for the placement and priority discipline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncrementalPlacer {
    /// Run-time overheads folded into each placement's analysis WCET, using
    /// the same charging points as [`SemiPartitionedFpTs`](crate::SemiPartitionedFpTs).
    pub overhead: OverheadModel,
    /// Smallest body-subtask budget worth carving.
    pub min_split_budget: Time,
}

impl Default for IncrementalPlacer {
    fn default() -> Self {
        IncrementalPlacer {
            overhead: OverheadModel::zero(),
            min_split_budget: Time::from_micros(100),
        }
    }
}

impl IncrementalPlacer {
    /// A placer with exact RTA, no overhead, and the default 100 µs minimum
    /// split budget.
    pub fn new() -> Self {
        IncrementalPlacer::default()
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

    /// The analysis task of a whole placement: WCET inflated by the
    /// whole-job overhead. `None` when the task cannot absorb the overhead
    /// within its deadline (such a task is unschedulable under this model on
    /// any core).
    pub fn whole_analysis_task(&self, task: &Task) -> Option<Task> {
        self.whole_analysis_task_charged(task, Time::ZERO)
    }

    /// [`whole_analysis_task`](Self::whole_analysis_task) with an additional
    /// per-migration `charge` folded into the WCET — the form used when the
    /// task is being *relocated* (repair move, rebalance) rather than placed
    /// fresh, so the placement must stay schedulable after absorbing the
    /// cache-reload and context-switch cost of the move.
    pub fn whole_analysis_task_charged(&self, task: &Task, charge: Time) -> Option<Task> {
        task.with_wcet(task.wcet() + self.overhead.whole_job_inflation() + charge)
            .ok()
    }

    /// Plans a whole-task placement: the first core (in index order, skipping
    /// `exclude`) that stays schedulable with the task added. Does not
    /// modify the partition.
    pub fn plan_whole(
        &self,
        partition: &Partition,
        task: &Task,
        exclude: &[CoreId],
    ) -> Option<PlacementPlan> {
        self.plan_whole_charged(partition, task, exclude, Time::ZERO)
    }

    /// [`plan_whole`](Self::plan_whole) with a per-migration `charge`
    /// inflating the analysis WCET (see
    /// [`whole_analysis_task_charged`](Self::whole_analysis_task_charged)).
    /// A zero charge is bit-identical to the uncharged plan.
    pub fn plan_whole_charged(
        &self,
        partition: &Partition,
        task: &Task,
        exclude: &[CoreId],
        charge: Time,
    ) -> Option<PlacementPlan> {
        let analysis_task = self.whole_analysis_task_charged(task, charge)?;
        let mut responses = Vec::new();
        let core = (0..partition.core_count()).map(CoreId).find(|c| {
            !exclude.contains(c) && whole_fits(partition, *c, &analysis_task, &mut responses)
        })?;
        let proof = (!responses.is_empty()).then(|| WholeProof {
            generation: partition.core_generation(core),
            responses,
        });
        Some(PlacementPlan::Whole {
            core,
            analysis_task,
            proof,
        })
    }

    /// Plans an FP-TS-style split of a single task across the residual
    /// capacity of the partition: body pieces are carved on the cores with
    /// the most residual utilization (the exact largest budget the core
    /// still admits), and the tail lands on the first core that accepts
    /// what remains. Does not modify the partition.
    ///
    /// Returns `None` when no split placement exists under the constraints
    /// (one body and one tail per core at most, every piece on a distinct
    /// core, bodies no smaller than
    /// [`min_split_budget`](Self::min_split_budget)).
    pub fn plan_split(
        &self,
        partition: &Partition,
        task: &Task,
        exclude: &[CoreId],
    ) -> Option<PlacementPlan> {
        self.plan_split_charged(partition, task, exclude, Time::ZERO)
    }

    /// [`plan_split`](Self::plan_split) with a per-migration `charge`: every
    /// piece after the first — each one reached by an intra-job migration
    /// along the chain — must absorb the charge on top of its split
    /// overhead, since the job pays the cache-reload and context-switch
    /// cost on every hop, every period. A zero charge is bit-identical to
    /// the uncharged plan.
    pub fn plan_split_charged(
        &self,
        partition: &Partition,
        task: &Task,
        exclude: &[CoreId],
        charge: Time,
    ) -> Option<PlacementPlan> {
        let cores = partition.core_count();
        let mut remaining = task.wcet();
        let mut offset = Time::ZERO;
        // (core, analysis piece, pure execution budget), in chain order.
        let mut pieces: Vec<(CoreId, Task, Time)> = Vec::new();

        loop {
            // With at least one body carved, try to finish with a tail. The
            // tail is always reached by a migration (chain index >= 1), so
            // it carries the full per-migration charge.
            if !pieces.is_empty() {
                if let Some(tail) = self.make_tail_piece(task, remaining, offset, charge) {
                    let found = (0..cores).map(CoreId).find(|c| {
                        !exclude.contains(c)
                            && !pieces.iter().any(|(pc, _, _)| pc == c)
                            && !partition.core_has_tail(*c)
                            && piece_fits(partition, *c, &tail)
                    });
                    if let Some(core) = found {
                        pieces.push((core, tail, remaining));
                        break;
                    }
                }
            }

            // Carve the largest admissible body budget on the unused core
            // with the most residual utilization.
            if pieces.len() + 1 >= cores {
                return None; // no room left for a tail on a distinct core
            }
            let mut candidates: Vec<CoreId> = (0..cores)
                .map(CoreId)
                .filter(|c| {
                    !exclude.contains(c)
                        && !pieces.iter().any(|(pc, _, _)| pc == c)
                        && !partition.core_has_body(*c)
                })
                .collect();
            // Rank by *clamped* spare capacity: an overhead-inflated,
            // overcommitted core reports a negative residual and must not
            // outrank an exactly full one (it ties at zero and falls back
            // to index order instead).
            candidates.sort_by(|a, b| {
                partition
                    .spare_utilization(*b)
                    .partial_cmp(&partition.spare_utilization(*a))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.0.cmp(&b.0))
            });
            let piece_overhead =
                self.body_piece_overhead(pieces.len()) + piece_charge(pieces.len(), charge);
            let deadline_room = task
                .deadline()
                .saturating_sub(offset)
                .saturating_sub(piece_overhead);
            let max_budget = remaining
                .saturating_sub(Time::from_nanos(1))
                .min(deadline_room);
            if max_budget < self.min_split_budget {
                return None;
            }
            let mut carved = false;
            for core in candidates {
                let budget =
                    self.max_body_budget(partition, core, task, max_budget, pieces.len(), charge);
                if budget >= self.min_split_budget && !budget.is_zero() {
                    let piece = crate::split_budget::body_piece(task, budget, piece_overhead)?;
                    offset += piece.wcet();
                    remaining -= budget;
                    pieces.push((core, piece, budget));
                    carved = true;
                    break;
                }
            }
            if !carved {
                return None;
            }
        }

        // Materialise the chain with split metadata.
        let count = pieces.len();
        debug_assert!(count >= 2);
        let first_core = pieces[0].0;
        let core_sequence: Vec<CoreId> = pieces.iter().map(|(c, _, _)| *c).collect();
        let mut running_offset = Time::ZERO;
        let mut placed = Vec::with_capacity(count);
        for (i, (core, piece, budget)) in pieces.into_iter().enumerate() {
            let is_tail = i == count - 1;
            let piece_wcet = piece.wcet();
            placed.push((
                core,
                PlacedTask {
                    task: piece,
                    execution: budget,
                    parent: task.id(),
                    split: Some(SplitInfo {
                        part_index: i,
                        part_count: count,
                        kind: if is_tail {
                            SubtaskKind::Tail
                        } else {
                            SubtaskKind::Body
                        },
                        release_offset: running_offset,
                        next_core: core_sequence.get(i + 1).copied(),
                        first_core,
                    }),
                },
            ));
            running_offset += piece_wcet;
        }
        Some(PlacementPlan::Split { pieces: placed })
    }

    /// Probes one core for a whole-task placement and, on rejection,
    /// localizes the **blocker**: the first task whose `deadline − response`
    /// slack would go negative with the candidate added. Slack-guided
    /// repair uses the blocker to prune eviction candidates — a victim
    /// ranked strictly below the blocker can never relieve it. With a
    /// converged analysis cache the probe is allocation-free.
    pub fn probe_whole(&self, partition: &Partition, core: CoreId, task: &Task) -> WholeProbe {
        let Some(analysis_task) = self.whole_analysis_task(task) else {
            return WholeProbe::Blocked { blocker: None };
        };
        match probe_analysis(partition, core, HotCounter::WholeProbes).probe_candidate(
            &analysis_task,
            outranked_by_whole(&analysis_task),
            |_| false,
        ) {
            None => WholeProbe::Accepted,
            Some(id) => WholeProbe::Blocked { blocker: Some(id) },
        }
    }

    /// What-if probe for one repair eviction: would `core` accept `task`
    /// whole with every placement of parent `removed` evicted from it
    /// first? Allocation-free with a converged analysis cache; the
    /// candidate is ranked exactly as the commit will rank it.
    pub fn accepts_whole_without(
        &self,
        partition: &Partition,
        core: CoreId,
        task: &Task,
        removed: TaskId,
    ) -> bool {
        let Some(analysis_task) = self.whole_analysis_task(task) else {
            return false;
        };
        let evicted: f64 = partition
            .core(core)
            .iter()
            .filter(|p| p.parent == removed)
            .map(|p| p.task.utilization())
            .sum();
        let exact = || {
            probe_analysis(partition, core, HotCounter::WholeProbes).accepts_candidate_without(
                &analysis_task,
                removed,
                outranked_by_whole(&analysis_task),
                |_| false,
            )
        };
        !screened(
            partition,
            core,
            analysis_task.utilization() - evicted,
            exact,
        ) && exact()
    }

    /// Plans whole-first, split-second: the admission fast path.
    pub fn plan(
        &self,
        partition: &Partition,
        task: &Task,
        exclude: &[CoreId],
    ) -> Option<PlacementPlan> {
        self.plan_charged(partition, task, exclude, Time::ZERO)
    }

    /// [`plan`](Self::plan) with a per-migration `charge`: the form used
    /// when an already-placed task is *relocated*. A whole placement on the
    /// new core absorbs one charge (the relocation reload); a split
    /// placement charges every piece after the first (the recurring
    /// intra-job hops — the one-time entry reload is dominated by them and
    /// deliberately not double-charged). A zero charge is bit-identical to
    /// the uncharged plan.
    pub fn plan_charged(
        &self,
        partition: &Partition,
        task: &Task,
        exclude: &[CoreId],
        charge: Time,
    ) -> Option<PlacementPlan> {
        self.plan_whole_charged(partition, task, exclude, charge)
            .or_else(|| self.plan_split_charged(partition, task, exclude, charge))
    }

    /// Commits a plan produced by [`plan_whole`](Self::plan_whole) /
    /// [`plan_split`](Self::plan_split) against the same partition,
    /// renormalizing the priorities of every touched core.
    ///
    /// A whole plan's [`WholeProof`] is installed into the core's cache slot
    /// when the core still has the generation the probe saw; a proof taken
    /// before the core changed is ignored, and the responses re-converge
    /// warm instead.
    pub fn commit(&self, partition: &mut Partition, task: &Task, plan: PlacementPlan) {
        match plan {
            PlacementPlan::Whole {
                core,
                analysis_task,
                proof,
            } => {
                let proof =
                    proof.filter(|proof| proof.generation == partition.core_generation(core));
                partition.place(
                    core,
                    PlacedTask {
                        task: analysis_task,
                        execution: task.wcet(),
                        parent: task.id(),
                        split: None,
                    },
                );
                partition.renormalize_installing(core, proof.as_ref().map(|p| &p.responses[..]));
            }
            PlacementPlan::Split { pieces } => {
                let cores: Vec<CoreId> = pieces.iter().map(|(c, _)| *c).collect();
                for (core, placed) in pieces {
                    partition.place(core, placed);
                }
                for core in cores {
                    partition.renormalize_core_priorities(core);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    /// The analysis overhead charged to a body piece at `piece_index` in its
    /// chain (mirrors `SemiPartitionedFpTs`).
    fn body_piece_overhead(&self, piece_index: usize) -> Time {
        if piece_index == 0 {
            self.overhead.first_piece_inflation()
        } else {
            self.overhead.body_piece_inflation()
        }
    }

    /// The largest body budget (pure execution) `core` still admits,
    /// bounded by `max_budget`; `Time::ZERO` when not even the minimum
    /// budget fits. The piece construction and the frontier
    /// search are shared with the offline passes (`split_budget` module).
    fn max_body_budget(
        &self,
        partition: &Partition,
        core: CoreId,
        template: &Task,
        max_budget: Time,
        piece_index: usize,
        charge: Time,
    ) -> Time {
        let overhead = self.body_piece_overhead(piece_index) + piece_charge(piece_index, charge);
        self.max_body_budget_with_overhead(partition, core, template, max_budget, overhead)
    }

    /// [`max_body_budget`](Self::max_body_budget) with the piece's analysis
    /// overhead already resolved — the form the cross-shard planner uses,
    /// whose charging rule (every cross-shard piece absorbs one charge)
    /// differs from the intra-shard chain rule.
    ///
    /// The budget is one frontier scan of the core's converged analysis,
    /// counted as one split probe — unless the utilization screen shows
    /// that not even the smallest body piece fits.
    fn max_body_budget_with_overhead(
        &self,
        partition: &Partition,
        core: CoreId,
        template: &Task,
        max_budget: Time,
        overhead: Time,
    ) -> Time {
        let exact = || {
            let analysis = probe_analysis(partition, core, HotCounter::SplitProbes);
            crate::split_budget::max_body_budget(
                Some(&analysis),
                template,
                overhead,
                self.min_split_budget,
                max_budget,
                |piece| piece_fits(partition, core, piece),
            )
        };
        let smallest =
            crate::split_budget::smallest_body_piece(template, overhead, self.min_split_budget);
        if smallest.is_some_and(|piece| {
            screened(partition, core, piece.utilization(), || !exact().is_zero())
        }) {
            return Time::ZERO;
        }
        exact()
    }

    /// Plans the **body half** of a shard-spanning split on this (donor)
    /// partition: the largest admissible single body piece, carved on the
    /// core with the most clamped spare capacity (ties by index), exactly
    /// as the intra-shard split pass ranks candidates. Unlike chain index
    /// 0 of a local split, a cross-shard body is reached by a
    /// shard-boundary migration every job, so it absorbs one per-migration
    /// `charge` on top of its first-piece overhead. Returns the hosting
    /// core, the analysis piece (promoted to body priority, `C = D`), and
    /// the pure execution budget it covers. Does not modify the partition.
    pub fn plan_remote_body(
        &self,
        partition: &Partition,
        task: &Task,
        charge: Time,
    ) -> Option<(CoreId, Task, Time)> {
        let overhead = self.overhead.first_piece_inflation() + charge;
        let deadline_room = task.deadline().saturating_sub(overhead);
        let max_budget = task
            .wcet()
            .saturating_sub(Time::from_nanos(1))
            .min(deadline_room);
        if max_budget < self.min_split_budget {
            return None;
        }
        let mut candidates: Vec<CoreId> = (0..partition.core_count())
            .map(CoreId)
            .filter(|c| !partition.core_has_body(*c))
            .collect();
        candidates.sort_by(|a, b| {
            partition
                .spare_utilization(*b)
                .partial_cmp(&partition.spare_utilization(*a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        for core in candidates {
            let budget =
                self.max_body_budget_with_overhead(partition, core, task, max_budget, overhead);
            if budget >= self.min_split_budget && !budget.is_zero() {
                let piece = crate::split_budget::body_piece(task, budget, overhead)?;
                return Some((core, piece, budget));
            }
        }
        None
    }

    /// Plans the **tail half** of a shard-spanning split on this (receiver)
    /// partition: the remaining `budget` of pure execution, released
    /// `offset` after the parent (the donor body's analysis WCET), landing
    /// on the first core without a tail that accepts the piece. Like every
    /// cross-shard piece it absorbs one per-migration `charge`. Returns the
    /// hosting core and the analysis piece. Does not modify the partition.
    pub fn plan_remote_tail(
        &self,
        partition: &Partition,
        task: &Task,
        budget: Time,
        offset: Time,
        charge: Time,
    ) -> Option<(CoreId, Task)> {
        let tail = self.make_tail_piece(task, budget, offset, charge)?;
        let core = (0..partition.core_count())
            .map(CoreId)
            .find(|c| !partition.core_has_tail(*c) && piece_fits(partition, *c, &tail))?;
        Some((core, tail))
    }

    /// The tail piece of a split chain with `budget` pure execution left,
    /// released `offset` after the parent, absorbing `charge` per-migration
    /// cost. `None` when the piece cannot meet what is left of the deadline.
    fn make_tail_piece(
        &self,
        task: &Task,
        budget: Time,
        offset: Time,
        charge: Time,
    ) -> Option<Task> {
        let wcet = budget + self.overhead.tail_piece_inflation() + charge;
        let deadline = task.deadline().checked_sub(offset)?;
        if deadline > task.period() || wcet > deadline {
            return None;
        }
        Task::builder(task.id())
            .wcet(wcet)
            .period(task.period())
            .deadline(deadline)
            .priority(crate::TAIL_PRIORITY)
            .build()
            .ok()
    }
}

/// The per-migration charge a split piece at `piece_index` absorbs: pieces
/// after the first are each reached by one intra-job hop; the first piece
/// starts where the job is released and pays nothing.
fn piece_charge(piece_index: usize, charge: Time) -> Time {
    if piece_index == 0 {
        Time::ZERO
    } else {
        charge
    }
}

/// Whether `core` stays schedulable with the whole `candidate` added, slotted
/// into the deadline-monotonic order
/// [`Partition::renormalize_core_priorities`] assigns on commit: it outranks
/// exactly the whole tasks with a larger DM key and peers with none (dense
/// re-ranked levels are distinct).
///
/// The probe runs on the core's converged analysis
/// ([`CachedCoreAnalysis::probe_candidate_with`]): no task vectors are
/// cloned, tasks ranked above the candidate keep their memoized response
/// times, and tasks below re-converge from warm starts. When it reads a
/// converged cache slot, `responses` receives what it converged — on
/// acceptance, the [`WholeProof`] of the placement.
fn whole_fits(
    partition: &Partition,
    core: CoreId,
    candidate: &Task,
    responses: &mut Vec<Time>,
) -> bool {
    let exact = || whole_fits_exact(partition, core, candidate, &mut Vec::new());
    !screened(partition, core, candidate.utilization(), exact)
        && whole_fits_exact(partition, core, candidate, responses)
}

/// [`whole_fits`] by exact RTA alone, without the utilization screen.
fn whole_fits_exact(
    partition: &Partition,
    core: CoreId,
    candidate: &Task,
    responses: &mut Vec<Time>,
) -> bool {
    let analysis = probe_analysis(partition, core, HotCounter::WholeProbes);
    let cached = matches!(analysis, Cow::Borrowed(_));
    responses.clear();
    analysis
        .probe_candidate_with(
            candidate,
            outranked_by_whole(candidate),
            |_| false,
            |r| {
                if cached {
                    responses.push(r);
                }
            },
        )
        .is_none()
}

/// Whether `core` stays schedulable with the promoted split `piece` added:
/// it keeps its reserved priority, peers with same-level pieces and
/// outranks strictly lower levels.
fn piece_fits(partition: &Partition, core: CoreId, piece: &Task) -> bool {
    let exact =
        || probe_analysis(partition, core, HotCounter::SplitProbes).accepts_prioritised(piece);
    !screened(partition, core, piece.utilization(), exact) && exact()
}

/// The utilization screen in front of a boolean placement probe: whether
/// adding utilization `u` to `core` provably overloads it
/// ([`Partition::overloaded_with`]), so exact RTA — `exact`, which
/// returns the probe's acceptance — cannot accept. A hit is counted as one
/// [`HotCounter::UtilizationScreens`] instead of a probe; debug builds
/// re-run `exact` uncounted on every hit and assert that it rejects.
///
/// Only questions answered by a verdict are screened. Probes that
/// localize a blocker ([`IncrementalPlacer::probe_whole`]) always run:
/// slack-guided repair prunes its victims by that blocker.
fn screened(partition: &Partition, core: CoreId, u: f64, exact: impl FnOnce() -> bool) -> bool {
    if !partition.overloaded_with(core, u) {
        return false;
    }
    scoped::bump(HotCounter::UtilizationScreens);
    debug_assert!(
        !scoped::uncounted(exact),
        "the utilization screen rejected what exact RTA accepts on {core}"
    );
    true
}

/// The analysis a probe on `core` reads ([`Partition::core_analysis`]),
/// counted as one probe of `kind` and as one cache hit (a converged slot
/// was borrowed) or miss (the analysis was built on the fly).
fn probe_analysis(
    partition: &Partition,
    core: CoreId,
    kind: HotCounter,
) -> Cow<'_, CachedCoreAnalysis> {
    scoped::bump(kind);
    let analysis = partition.core_analysis(core);
    scoped::bump(match analysis {
        Cow::Borrowed(_) => HotCounter::CacheProbeHits,
        Cow::Owned(_) => HotCounter::CacheProbeMisses,
    });
    analysis
}

/// The probe-side predicate marking the entries a whole `candidate`
/// outranks under the commit-time ranking: every non-reserved task with a
/// larger DM key. The single definition every whole probe
/// ([`whole_fits`], [`IncrementalPlacer::probe_whole`],
/// [`IncrementalPlacer::accepts_whole_without`]) shares; a probe agrees
/// with RTA of the committed core only while this rule matches
/// `assign_whole_priorities`.
fn outranked_by_whole(candidate: &Task) -> impl Fn(&Task) -> bool {
    let key = whole_rank_key(candidate);
    move |t| !has_reserved_level(t) && whole_rank_key(t) > key
}

/// Whether whole task `a` ranks at-or-above whole task `b` under the
/// commit-time deadline-monotonic ranking (`assign_whole_priorities`
/// order: deadline, then period, then id) — i.e. `a` would interfere with
/// `b` on a shared core. The public face of `whole_rank_key` for
/// callers (the online controller's slack-guided victim pruning) that
/// must agree with the probes' ranking rule.
pub fn whole_outranks_or_ties(a: &Task, b: &Task) -> bool {
    whole_rank_key(a) <= whole_rank_key(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms_analysis::UniprocessorTest;
    use spms_task::TaskId;

    fn task(id: u32, wcet_ms: u64, period_ms: u64) -> Task {
        Task::new(id, Time::from_millis(wcet_ms), Time::from_millis(period_ms)).unwrap()
    }

    fn placer() -> IncrementalPlacer {
        IncrementalPlacer::new()
    }

    #[test]
    fn whole_placement_is_first_fit_in_core_order() {
        let mut partition = Partition::new(2);
        let t0 = task(0, 3, 10);
        let plan = placer().plan_whole(&partition, &t0, &[]).unwrap();
        assert_eq!(plan.cores(), vec![CoreId(0)]);
        placer().commit(&mut partition, &t0, plan);

        let t1 = task(1, 3, 10);
        let plan = placer().plan_whole(&partition, &t1, &[]).unwrap();
        assert_eq!(plan.cores(), vec![CoreId(0)], "first fit, not worst fit");
        placer().commit(&mut partition, &t1, plan);
        assert_eq!(partition.validate(), Ok(()));
        assert!(partition.is_schedulable(UniprocessorTest::ResponseTime));
    }

    #[test]
    fn exclusion_skips_cores() {
        let partition = Partition::new(2);
        let t = task(0, 3, 10);
        let plan = placer().plan_whole(&partition, &t, &[CoreId(0)]).unwrap();
        assert_eq!(plan.cores(), vec![CoreId(1)]);
    }

    #[test]
    fn oversubscribed_core_rejects_whole_placement() {
        let mut partition = Partition::new(1);
        let t0 = task(0, 7, 10);
        let plan = placer().plan(&partition, &t0, &[]).unwrap();
        placer().commit(&mut partition, &t0, plan);
        assert!(placer()
            .plan_whole(&partition, &task(1, 7, 10), &[])
            .is_none());
        assert!(placer().plan(&partition, &task(1, 7, 10), &[]).is_none());
    }

    #[test]
    fn split_covers_the_full_wcet_and_validates() {
        // Two cores at 60% each cannot take a 60% task whole, but can split it.
        let mut partition = Partition::new(2);
        for (id, core) in [(0u32, 0usize), (1, 1)] {
            let t = task(id, 6, 10);
            let plan = PlacementPlan::Whole {
                core: CoreId(core),
                analysis_task: t.clone(),
                proof: None,
            };
            placer().commit(&mut partition, &t, plan);
        }
        let t2 = task(2, 6, 10);
        assert!(placer().plan_whole(&partition, &t2, &[]).is_none());
        let plan = placer().plan_split(&partition, &t2, &[]).unwrap();
        assert!(plan.is_split());
        let PlacementPlan::Split { pieces } = &plan else {
            unreachable!()
        };
        assert_eq!(pieces.len(), 2);
        let total: Time = pieces.iter().map(|(_, p)| p.execution).sum();
        assert_eq!(total, Time::from_millis(6));
        placer().commit(&mut partition, &t2, plan);
        assert_eq!(partition.validate(), Ok(()));
        assert!(partition.is_schedulable(UniprocessorTest::ResponseTime));
        assert_eq!(partition.split_count(), 1);
    }

    #[test]
    fn split_respects_one_tail_per_core() {
        let mut partition = Partition::new(2);
        for (id, core) in [(0u32, 0usize), (1, 1)] {
            let t = task(id, 6, 10);
            let plan = PlacementPlan::Whole {
                core: CoreId(core),
                analysis_task: t.clone(),
                proof: None,
            };
            placer().commit(&mut partition, &t, plan);
        }
        let t2 = task(2, 6, 10);
        let plan = placer().plan_split(&partition, &t2, &[]).unwrap();
        placer().commit(&mut partition, &t2, plan);
        // Both cores now carry a split piece; a second split task would need
        // a tail on a core that already has a body or tail, and each core
        // may host at most one of each.
        let t3 = task(3, 4, 10);
        if let Some(plan) = placer().plan_split(&partition, &t3, &[]) {
            let PlacementPlan::Split { pieces } = &plan else {
                unreachable!()
            };
            for (core, placed) in pieces {
                if placed.is_tail() {
                    assert!(!partition.core_has_tail(*core));
                } else {
                    assert!(!partition.core_has_body(*core));
                }
            }
        }
    }

    #[test]
    fn split_ranks_cores_by_clamped_spare_capacity() {
        // Core 0 is overcommitted by overhead inflation (analysis WCETs sum
        // to 130% while the pure execution budgets stay lower): its residual
        // is negative, and the split pass must rank it by *clamped* spare
        // capacity — never carving a piece there and never letting the
        // negative value distort the candidate order for the real cores.
        let mut partition = Partition::new(3);
        for (id, wcet_ms) in [(0u32, 7u64), (1, 6)] {
            let inflated = task(id, wcet_ms, 10);
            partition.place(
                CoreId(0),
                PlacedTask::whole(inflated).with_execution(Time::from_millis(5)),
            );
        }
        partition.renormalize_core_priorities(CoreId(0));
        for (id, wcet_ms, core) in [(2u32, 55u64, 1usize), (3, 50, 2)] {
            let t = Task::new(id, Time::from_millis(wcet_ms), Time::from_millis(100)).unwrap();
            let plan = PlacementPlan::Whole {
                core: CoreId(core),
                analysis_task: t.clone(),
                proof: None,
            };
            placer().commit(&mut partition, &t, plan);
        }
        assert!(partition.residual_utilization(CoreId(0)) < 0.0);
        assert_eq!(partition.spare_utilization(CoreId(0)), 0.0);

        // 80% fits nowhere whole; the split must use cores 1 and 2 only,
        // carving the body on core 2 (the most spare capacity).
        let arrival = task(4, 8, 10);
        assert!(placer().plan_whole(&partition, &arrival, &[]).is_none());
        let plan = placer().plan_split(&partition, &arrival, &[]).unwrap();
        let cores = plan.cores();
        assert!(
            !cores.contains(&CoreId(0)),
            "split used the overcommitted core: {cores:?}"
        );
        assert_eq!(cores[0], CoreId(2), "body must land on the most-spare core");
        placer().commit(&mut partition, &arrival, plan);
        assert_eq!(partition.validate(), Ok(()));
    }

    #[test]
    fn plans_do_not_mutate_the_partition() {
        let partition = Partition::new(2);
        let t = task(0, 2, 10);
        let before = partition.clone();
        let _ = placer().plan(&partition, &t, &[]);
        assert_eq!(partition, before);
    }

    #[test]
    fn zero_charge_plans_are_identical_to_uncharged_plans() {
        let mut partition = Partition::new(2);
        for (id, core) in [(0u32, 0usize), (1, 1)] {
            let t = task(id, 6, 10);
            let plan = PlacementPlan::Whole {
                core: CoreId(core),
                analysis_task: t.clone(),
                proof: None,
            };
            placer().commit(&mut partition, &t, plan);
        }
        for probe in [task(2, 2, 10), task(3, 6, 10)] {
            assert_eq!(
                placer().plan(&partition, &probe, &[]),
                placer().plan_charged(&partition, &probe, &[], Time::ZERO),
            );
        }
    }

    #[test]
    fn charge_inflates_whole_and_split_analysis_wcets() {
        let charge = Time::from_micros(500);
        let partition = Partition::new(2);
        let t = task(0, 3, 10);
        let Some(PlacementPlan::Whole { analysis_task, .. }) =
            placer().plan_whole_charged(&partition, &t, &[], charge)
        else {
            panic!("whole placement expected");
        };
        assert_eq!(analysis_task.wcet(), t.wcet() + charge);

        // Force a split and check every piece after the first absorbs the
        // charge on top of its budget.
        let mut partition = Partition::new(2);
        for (id, core) in [(1u32, 0usize), (2, 1)] {
            let base = task(id, 6, 10);
            let plan = PlacementPlan::Whole {
                core: CoreId(core),
                analysis_task: base.clone(),
                proof: None,
            };
            placer().commit(&mut partition, &base, plan);
        }
        let t3 = task(3, 6, 10);
        let Some(PlacementPlan::Split { pieces }) =
            placer().plan_split_charged(&partition, &t3, &[], charge)
        else {
            panic!("split placement expected");
        };
        assert!(pieces.len() >= 2);
        assert_eq!(pieces[0].1.task.wcet(), pieces[0].1.execution);
        for (_, placed) in &pieces[1..] {
            assert_eq!(placed.task.wcet(), placed.execution + charge);
        }
        // The charge eats real budget: the charged split covers the same
        // total execution with strictly more analysis WCET.
        let total: Time = pieces.iter().map(|(_, p)| p.execution).sum();
        assert_eq!(total, t3.wcet());
    }

    #[test]
    fn an_unaffordable_charge_rejects_the_placement() {
        // A charge larger than the deadline room can absorb must fail the
        // plan rather than silently dropping the cost.
        let partition = Partition::new(2);
        let t = task(0, 6, 10);
        let charge = Time::from_millis(20);
        assert!(placer().plan_charged(&partition, &t, &[], charge).is_none());
    }

    #[test]
    fn committed_whole_plan_matches_parent() {
        let mut partition = Partition::new(1);
        let t = task(4, 2, 10);
        let plan = placer().plan(&partition, &t, &[]).unwrap();
        placer().commit(&mut partition, &t, plan);
        let placements = partition.placements_of(TaskId(4));
        assert_eq!(placements.len(), 1);
        assert_eq!(placements[0].1.execution, Time::from_millis(2));
        assert!(!placements[0].1.is_split());
    }
}
