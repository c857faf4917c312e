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

use crate::placement::{
    chain_placements, has_reserved_level, whole_rank_key, UTILIZATION_SCREEN_MARGIN,
};
use crate::scratch::InlineVec;
use crate::split_budget::{body_piece, body_piece_overhead, tail_piece};
use crate::{CoreId, Partition, PlacedTask};

/// Cores a split plan keeps its working state for on the stack; a plan on
/// a larger partition moves it to the heap.
const INLINE_CORES: usize = 16;

/// Responses a whole probe records on the stack before moving them to the
/// heap.
const INLINE_RESPONSES: usize = 32;

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
    /// whole-job overhead plus a per-migration `charge`. The charge is zero
    /// for a fresh placement; a task being *relocated* (repair move,
    /// rebalance) passes the cache-reload and context-switch cost of the
    /// move, so the placement must stay schedulable after absorbing it.
    /// `None` when the task cannot absorb the inflation within its deadline
    /// (such a task is unschedulable under this model on any core).
    pub fn whole_analysis_task(&self, task: &Task, charge: Time) -> Option<Task> {
        task.with_wcet(task.wcet() + self.overhead.whole_job_inflation() + charge)
            .ok()
    }

    /// Plans a whole-task placement: the first core (in index order, skipping
    /// `exclude`) that stays schedulable with the task added, its analysis
    /// WCET inflated by `charge` (see
    /// [`whole_analysis_task`](Self::whole_analysis_task)). Does not modify
    /// the partition, and allocates only the plan it returns.
    pub fn plan_whole(
        &self,
        partition: &Partition,
        task: &Task,
        exclude: &[CoreId],
        charge: Time,
    ) -> Option<PlacementPlan> {
        let analysis_task = self.whole_analysis_task(task, charge)?;
        let mut responses = InlineVec::new();
        let core = (0..partition.core_count()).map(CoreId).find(|c| {
            !exclude.contains(c) && whole_fits(partition, *c, &analysis_task, &mut responses)
        })?;
        let proof = (!responses.is_empty()).then(|| WholeProof {
            generation: partition.core_generation(core),
            responses: responses.to_vec(),
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
    /// Every piece after the first — each one reached by an intra-job
    /// migration along the chain — must absorb the per-migration `charge`
    /// on top of its split overhead, since the job pays the cache-reload
    /// and context-switch cost on every hop, every period.
    ///
    /// Returns `None` when no split placement exists under the constraints
    /// (one body and one tail per core at most, every piece on a distinct
    /// core, bodies no smaller than
    /// [`min_split_budget`](Self::min_split_budget)). A task no chain can
    /// carry ([`chain_exceeds_capacity`](Self::chain_exceeds_capacity)) is
    /// turned away before any core is probed, counted as one
    /// [`HotCounter::UtilizationScreens`]; debug builds then plan it anyway,
    /// uncounted, and assert that no plan exists. A plan that fails
    /// allocates nothing on partitions of up to 16 cores.
    pub fn plan_split(
        &self,
        partition: &Partition,
        task: &Task,
        exclude: &[CoreId],
        charge: Time,
    ) -> Option<PlacementPlan> {
        if self.chain_exceeds_capacity(partition, task, exclude, charge) {
            scoped::bump(HotCounter::UtilizationScreens);
            debug_assert!(
                scoped::uncounted(|| self.plan_chain(partition, task, exclude, charge)).is_none(),
                "the chain-capacity screen rejected a split of {} that has a plan",
                task.id()
            );
            return None;
        }
        self.plan_chain(partition, task, exclude, charge)
    }

    /// The chain-capacity screen in front of [`plan_split`](Self::plan_split):
    /// whether no split chain of `task` can fit the spare utilization of
    /// the cores it may use, so that planning one cannot succeed.
    ///
    /// A chain of `p ≥ 2` pieces carries the task's WCET `C` plus the
    /// overhead and charge of each piece, so its utilization is
    /// `u(p) = (C + o_first + (p − 2)(o_body + charge) + o_tail + charge) / T`.
    /// Each piece lands on its own core, and a core accepts a piece only
    /// if it is not overloaded with it ([`Partition::overloaded_with`]:
    /// every piece and every resident has `D ≤ T`), so the piece's
    /// utilization is at most the core's spare utilization plus the
    /// screen's margin `m`. A core qualifies when it is not excluded and
    /// lacks a body or a tail. So if, for every `p`, the `p` largest spare
    /// utilizations of qualifying cores plus `p·m` fall short of `u(p)`,
    /// no chain exists. Going from `p` to `p + 1` adds the next-largest
    /// spare `s` and costs `(o_body + charge) / T`, and the spares fall,
    /// so the best `p` adds exactly the cores whose `s + m` exceeds that
    /// cost: one pass over the cores, no sort. One more `m` covers the
    /// float error of the sums, so the screen never turns away a task
    /// exact planning would split.
    pub fn chain_exceeds_capacity(
        &self,
        partition: &Partition,
        task: &Task,
        exclude: &[CoreId],
        charge: Time,
    ) -> bool {
        let margin = UTILIZATION_SCREEN_MARGIN;
        let period = task.period().as_nanos() as f64;
        let nanos = |t: Time| t.as_nanos() as f64;
        let two_pieces = (nanos(task.wcet())
            + nanos(self.overhead.first_piece_inflation())
            + nanos(self.overhead.tail_piece_inflation())
            + nanos(charge))
            / period;
        let per_body = (nanos(self.overhead.body_piece_inflation()) + nanos(charge)) / period;
        // The two largest rooms (spare plus margin), and what every other
        // core's room would add beyond the body it pays for.
        let (mut first, mut second) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        let mut beyond = 0.0;
        for core in (0..partition.core_count()).map(CoreId) {
            if exclude.contains(&core)
                || (partition.core_has_body(core) && partition.core_has_tail(core))
            {
                continue;
            }
            let room = partition.spare_utilization(core) + margin;
            let displaced = if room > first {
                std::mem::replace(&mut second, std::mem::replace(&mut first, room))
            } else if room > second {
                std::mem::replace(&mut second, room)
            } else {
                room
            };
            beyond += (displaced - per_body).max(0.0);
        }
        second == f64::NEG_INFINITY || two_pieces > first + second + beyond + margin
    }

    /// [`plan_split`](Self::plan_split) without the chain-capacity screen.
    fn plan_chain(
        &self,
        partition: &Partition,
        task: &Task,
        exclude: &[CoreId],
        charge: Time,
    ) -> Option<PlacementPlan> {
        let cores = partition.core_count();
        let mut remaining = task.wcet();
        let mut offset = Time::ZERO;
        // The bodies carved so far: (core, pure execution budget), in
        // chain order.
        let mut bodies: InlineVec<(CoreId, Time), INLINE_CORES> = InlineVec::new();

        let (tail_core, tail) = loop {
            let skip =
                |core: CoreId| exclude.contains(&core) || bodies.iter().any(|(c, _)| *c == core);
            // With at least one body carved, try to finish with a tail. The
            // tail is always reached by a migration (chain index >= 1), so
            // it carries the full per-migration charge.
            if !bodies.is_empty() {
                if let Some(found) =
                    self.place_tail(partition, task, remaining, offset, charge, skip)
                {
                    break found;
                }
            }
            // Otherwise carve the next body.
            if bodies.len() + 1 >= cores {
                return None; // no room left for a tail on a distinct core
            }
            let index = bodies.len();
            let overhead = body_piece_overhead(&self.overhead, index) + piece_charge(index, charge);
            let (core, budget, piece) =
                self.carve_body(partition, task, skip, offset, remaining, overhead)?;
            offset += piece.wcet();
            remaining -= budget;
            bodies.push((core, budget));
        };

        // Materialise the chain with split metadata; each body piece is
        // rebuilt exactly as it was carved.
        let count = bodies.len() + 1;
        let bodies = bodies.iter().enumerate().map(|(i, &(core, budget))| {
            let overhead = body_piece_overhead(&self.overhead, i) + piece_charge(i, charge);
            let piece =
                body_piece(task, budget, overhead).expect("the body was carved from this piece");
            (core, piece, budget)
        });
        let mut placed = Vec::with_capacity(count);
        placed.extend(chain_placements(
            task.id(),
            count,
            bodies.chain(std::iter::once((tail_core, tail, remaining))),
        ));
        Some(PlacementPlan::Split { pieces: placed })
    }

    /// Probes one core for a whole-task placement and, on rejection,
    /// localizes the **blocker**: the first task whose `deadline − response`
    /// slack would go negative with the candidate added. Slack-guided
    /// repair uses the blocker to prune eviction candidates — a victim
    /// ranked strictly below the blocker can never relieve it. With a
    /// converged analysis cache the probe is allocation-free.
    pub fn probe_whole(&self, partition: &Partition, core: CoreId, task: &Task) -> WholeProbe {
        let Some(analysis_task) = self.whole_analysis_task(task, Time::ZERO) else {
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

    /// What-if probe for repair evictions: would `core` accept `task`
    /// whole with every placement of each parent in `removed` evicted from
    /// it first? The utilization screen subtracts everything the set
    /// evicts from the core. Allocation-free with a converged analysis
    /// cache; the candidate is ranked exactly as the commit will rank it.
    pub fn accepts_whole_without(
        &self,
        partition: &Partition,
        core: CoreId,
        task: &Task,
        removed: &[TaskId],
    ) -> bool {
        let Some(analysis_task) = self.whole_analysis_task(task, Time::ZERO) else {
            return false;
        };
        let evicted: f64 = partition
            .core(core)
            .iter()
            .filter(|p| removed.contains(&p.parent))
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

    /// Plans whole-first, split-second. A nonzero `charge` is the form used
    /// when an already-placed task is *relocated*: a whole placement on the
    /// new core absorbs one charge (the relocation reload); a split
    /// placement charges every piece after the first (the recurring
    /// intra-job hops — the one-time entry reload is dominated by them and
    /// deliberately not double-charged).
    pub fn plan(
        &self,
        partition: &Partition,
        task: &Task,
        exclude: &[CoreId],
        charge: Time,
    ) -> Option<PlacementPlan> {
        self.plan_whole(partition, task, exclude, charge)
            .or_else(|| self.plan_split(partition, task, exclude, charge))
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
                let mut cores: InlineVec<CoreId, INLINE_CORES> = InlineVec::new();
                for (core, placed) in pieces {
                    partition.place(core, placed);
                    cores.push(core);
                }
                for &core in cores.iter() {
                    partition.renormalize_core_priorities(core);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    /// Carves the body piece at `offset` into the chain, `remaining` pure
    /// execution still to place and `overhead` its analysis overhead: the
    /// largest admissible budget on the first core, by most *clamped* spare
    /// capacity (ties by index), that `skip` does not rule out and that
    /// holds no body yet. Returns the core, the budget and the analysis
    /// piece (promoted to body priority, `C = D`); `None` when no core
    /// admits a body of at least [`min_split_budget`](Self::min_split_budget).
    fn carve_body(
        &self,
        partition: &Partition,
        task: &Task,
        skip: impl Fn(CoreId) -> bool,
        offset: Time,
        remaining: Time,
        overhead: Time,
    ) -> Option<(CoreId, Time, Task)> {
        let deadline_room = task
            .deadline()
            .saturating_sub(offset)
            .saturating_sub(overhead);
        let max_budget = remaining
            .saturating_sub(Time::from_nanos(1))
            .min(deadline_room);
        if max_budget < self.min_split_budget {
            return None;
        }
        let mut candidates: InlineVec<CoreId, INLINE_CORES> = InlineVec::new();
        for core in (0..partition.core_count()).map(CoreId) {
            if !skip(core) && !partition.core_has_body(core) {
                candidates.push(core);
            }
        }
        // An overhead-inflated, overcommitted core reports a negative
        // residual and must not outrank an exactly full one (it ties at
        // zero and falls back to index order instead).
        candidates.sort_unstable_by(|a, b| {
            partition
                .spare_utilization(*b)
                .partial_cmp(&partition.spare_utilization(*a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        for &core in candidates.iter() {
            let budget = self.max_body_budget(partition, core, task, max_budget, overhead);
            if budget >= self.min_split_budget && !budget.is_zero() {
                let piece = body_piece(task, budget, overhead)?;
                return Some((core, budget, piece));
            }
        }
        None
    }

    /// The largest body budget (pure execution) `core` still admits for a
    /// piece with analysis `overhead`, bounded by `max_budget`;
    /// `Time::ZERO` when not even the minimum budget fits. The piece
    /// construction and the frontier search are shared with the offline
    /// passes (`split_budget` module).
    ///
    /// The budget is one frontier scan of the core's converged analysis,
    /// counted as one split probe — unless the utilization screen shows
    /// that not even the smallest body piece fits.
    fn max_body_budget(
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
                &analysis,
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

    /// The tail piece closing a chain with `budget` pure execution left,
    /// released `offset` after the parent and absorbing `charge`, on the
    /// first core that `skip` does not rule out, holds no tail yet and
    /// accepts the piece. Returns the core and the analysis piece; `None`
    /// also when the piece cannot meet what is left of the deadline.
    fn place_tail(
        &self,
        partition: &Partition,
        task: &Task,
        budget: Time,
        offset: Time,
        charge: Time,
        skip: impl Fn(CoreId) -> bool,
    ) -> Option<(CoreId, Task)> {
        let tail = tail_piece(
            task,
            budget,
            offset,
            self.overhead.tail_piece_inflation() + charge,
        )?;
        let core = (0..partition.core_count()).map(CoreId).find(|c| {
            !skip(*c) && !partition.core_has_tail(*c) && piece_fits(partition, *c, &tail)
        })?;
        Some((core, tail))
    }

    /// Plans the **body half** of a shard-spanning split on this (donor)
    /// partition: [`plan_split`](Self::plan_split)'s body step at chain
    /// offset 0 with the whole WCET remaining. Unlike chain index 0 of a
    /// local split, a cross-shard body is reached by a shard-boundary
    /// migration every job, so it absorbs one per-migration `charge` on
    /// top of its first-piece overhead. Returns the hosting
    /// core, the analysis piece (promoted to body priority, `C = D`), and
    /// the pure execution budget it covers. Does not modify the partition.
    pub fn plan_remote_body(
        &self,
        partition: &Partition,
        task: &Task,
        charge: Time,
    ) -> Option<(CoreId, Task, Time)> {
        let overhead = self.overhead.first_piece_inflation() + charge;
        let (core, budget, piece) = self.carve_body(
            partition,
            task,
            |_| false,
            Time::ZERO,
            task.wcet(),
            overhead,
        )?;
        Some((core, piece, budget))
    }

    /// Plans the **tail half** of a shard-spanning split on this (receiver)
    /// partition: [`plan_split`](Self::plan_split)'s tail step with no core
    /// excluded, for the remaining `budget` of pure execution released
    /// `offset` after the parent (the donor body's analysis WCET). Like every
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
        self.place_tail(partition, task, budget, offset, charge, |_| false)
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
    responses: &mut InlineVec<Time, INLINE_RESPONSES>,
) -> bool {
    let exact = || whole_fits_exact(partition, core, candidate, &mut InlineVec::new());
    !screened(partition, core, candidate.utilization(), exact)
        && whole_fits_exact(partition, core, candidate, responses)
}

/// [`whole_fits`] by exact RTA alone, without the utilization screen.
fn whole_fits_exact(
    partition: &Partition,
    core: CoreId,
    candidate: &Task,
    responses: &mut InlineVec<Time, INLINE_RESPONSES>,
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
        let plan = placer()
            .plan_whole(&partition, &t0, &[], Time::ZERO)
            .unwrap();
        assert_eq!(plan.cores(), vec![CoreId(0)]);
        placer().commit(&mut partition, &t0, plan);

        let t1 = task(1, 3, 10);
        let plan = placer()
            .plan_whole(&partition, &t1, &[], Time::ZERO)
            .unwrap();
        assert_eq!(plan.cores(), vec![CoreId(0)], "first fit, not worst fit");
        placer().commit(&mut partition, &t1, plan);
        assert_eq!(partition.validate(), Ok(()));
        assert!(partition.is_schedulable());
    }

    #[test]
    fn exclusion_skips_cores() {
        let partition = Partition::new(2);
        let t = task(0, 3, 10);
        let plan = placer()
            .plan_whole(&partition, &t, &[CoreId(0)], Time::ZERO)
            .unwrap();
        assert_eq!(plan.cores(), vec![CoreId(1)]);
    }

    #[test]
    fn oversubscribed_core_rejects_whole_placement() {
        let mut partition = Partition::new(1);
        let t0 = task(0, 7, 10);
        let plan = placer().plan(&partition, &t0, &[], Time::ZERO).unwrap();
        placer().commit(&mut partition, &t0, plan);
        assert!(placer()
            .plan_whole(&partition, &task(1, 7, 10), &[], Time::ZERO)
            .is_none());
        assert!(placer()
            .plan(&partition, &task(1, 7, 10), &[], Time::ZERO)
            .is_none());
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
        assert!(placer()
            .plan_whole(&partition, &t2, &[], Time::ZERO)
            .is_none());
        let plan = placer()
            .plan_split(&partition, &t2, &[], Time::ZERO)
            .unwrap();
        assert!(plan.is_split());
        let PlacementPlan::Split { pieces } = &plan else {
            unreachable!()
        };
        assert_eq!(pieces.len(), 2);
        let total: Time = pieces.iter().map(|(_, p)| p.execution).sum();
        assert_eq!(total, Time::from_millis(6));
        placer().commit(&mut partition, &t2, plan);
        assert_eq!(partition.validate(), Ok(()));
        assert!(partition.is_schedulable());
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
        let plan = placer()
            .plan_split(&partition, &t2, &[], Time::ZERO)
            .unwrap();
        placer().commit(&mut partition, &t2, plan);
        // Both cores now carry a split piece; a second split task would need
        // a tail on a core that already has a body or tail, and each core
        // may host at most one of each.
        let t3 = task(3, 4, 10);
        if let Some(plan) = placer().plan_split(&partition, &t3, &[], Time::ZERO) {
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
        assert!(placer()
            .plan_whole(&partition, &arrival, &[], Time::ZERO)
            .is_none());
        let plan = placer()
            .plan_split(&partition, &arrival, &[], Time::ZERO)
            .unwrap();
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
        let _ = placer().plan(&partition, &t, &[], Time::ZERO);
        assert_eq!(partition, before);
    }

    #[test]
    fn charge_inflates_whole_and_split_analysis_wcets() {
        let charge = Time::from_micros(500);
        let partition = Partition::new(2);
        let t = task(0, 3, 10);
        let Some(PlacementPlan::Whole { analysis_task, .. }) =
            placer().plan_whole(&partition, &t, &[], charge)
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
            placer().plan_split(&partition, &t3, &[], charge)
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
        assert!(placer().plan(&partition, &t, &[], charge).is_none());
    }

    #[test]
    fn committed_whole_plan_matches_parent() {
        let mut partition = Partition::new(1);
        let t = task(4, 2, 10);
        let plan = placer().plan(&partition, &t, &[], Time::ZERO).unwrap();
        placer().commit(&mut partition, &t, plan);
        let placements = partition.placements_of(TaskId(4));
        assert_eq!(placements.len(), 1);
        assert_eq!(placements[0].1.execution, Time::from_millis(2));
        assert!(!placements[0].1.is_split());
    }
}
