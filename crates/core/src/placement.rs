//! The result of a partitioning run: which (sub)task runs on which core.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use spms_analysis::{rta, CachedCoreAnalysis, RefreshMode, RefreshUndo, UniprocessorTest};
use spms_task::{Priority, Task, TaskId, Time};
use spms_telemetry::{scoped, HotCounter};

/// Priority level reserved for promoted body subtasks: a body piece runs
/// above everything else on its core so it completes within its budget.
pub const BODY_PRIORITY: Priority = Priority::new(0);

/// Priority level reserved for promoted tail subtasks: below bodies, above
/// every task assigned whole. At most one tail may live on a core:
/// [`rta::analyse_core`] treats same-level tasks as mutually interfering
/// (the sound, conservative reading of a tie), so stacking promoted pieces
/// on one level would charge each the other's full budget and destroy the
/// split-piece guarantee that a body completes within its own budget.
pub const TAIL_PRIORITY: Priority = Priority::new(1);

/// The first priority level available to tasks assigned whole; levels 0 and
/// 1 stay reserved for promoted body and tail subtasks.
pub const WHOLE_PRIORITY_BASE: u32 = 2;

/// Assigns dense deadline-monotonic priority levels starting at
/// [`WHOLE_PRIORITY_BASE`] to the given whole-task placements (ties broken
/// by period, then id, so the assignment is deterministic).
///
/// This ranking is the contract between plan-time acceptance checks and
/// commit-time renormalization: [`Partition::renormalize_core_priorities`]
/// and the incremental placer's candidate construction both call it, so a
/// placement validated against a candidate priority assignment is committed
/// with exactly that assignment.
pub(crate) fn assign_whole_priorities(mut whole: Vec<&mut Task>) {
    whole.sort_by_key(|t| (t.deadline(), t.period(), t.id()));
    for (level, task) in whole.into_iter().enumerate() {
        task.set_priority(Priority::new(WHOLE_PRIORITY_BASE + level as u32));
    }
}

/// Identifier of a processor core.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<usize> for CoreId {
    fn from(id: usize) -> Self {
        CoreId(id)
    }
}

impl From<CoreId> for usize {
    fn from(id: CoreId) -> Self {
        id.0
    }
}

/// Which piece of a split task a subtask is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SubtaskKind {
    /// A body subtask: when its budget is exhausted the task migrates to the
    /// next core in the split chain.
    Body,
    /// The tail subtask: the last piece; when it finishes, the task goes back
    /// to sleep on the core hosting the first subtask.
    Tail,
}

/// Split metadata attached to a [`PlacedTask`] that is a piece of a split
/// task.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SplitInfo {
    /// Zero-based index of this piece within the split chain.
    pub part_index: usize,
    /// Total number of pieces the parent task was split into.
    pub part_count: usize,
    /// Body or tail.
    pub kind: SubtaskKind,
    /// Release offset relative to the parent task's release: the sum of the
    /// budgets of all earlier pieces (the paper's "time budget" constraint —
    /// a piece may only start once the previous piece has exhausted its
    /// budget on its core).
    pub release_offset: Time,
    /// The core hosting the next piece (present exactly for body subtasks).
    pub next_core: Option<CoreId>,
    /// The core hosting the first piece; the tail subtask's completion path
    /// re-inserts the task into this core's sleep queue.
    pub first_core: CoreId,
}

/// A task (or subtask) as placed on a specific core by a partitioning
/// algorithm.
///
/// The embedded [`Task`] carries the *analysis* parameters used by the
/// per-core schedulability test: for a subtask the WCET is the piece's budget
/// plus the scheduling overhead charged to it by the
/// [`OverheadModel`](spms_analysis::OverheadModel), the deadline is the
/// synthetic deadline left after earlier pieces, and the priority may be
/// promoted (body subtasks run at the highest priority of their core, as in
/// FP-TS).
///
/// The [`execution`](PlacedTask::execution) field carries the *runtime*
/// execution budget of the piece — the pure execution time without any
/// analysis inflation. The discrete-event simulator executes this budget and
/// injects the scheduler overheads itself, so an overhead-aware analysis that
/// accepts the partition must also survive the simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacedTask {
    /// Analysis task parameters on this core (WCET inflated by the overhead
    /// model used by the partitioning algorithm, if any).
    pub task: Task,
    /// Pure execution budget of this placement at run time, excluding any
    /// overhead inflation.
    pub execution: Time,
    /// The original task this placement derives from.
    pub parent: TaskId,
    /// Split metadata; `None` for tasks assigned whole.
    pub split: Option<SplitInfo>,
}

impl PlacedTask {
    /// Creates a placement for a task assigned whole to a core, whose runtime
    /// execution budget equals its (analysis) WCET.
    pub fn whole(task: Task) -> Self {
        let parent = task.id();
        let execution = task.wcet();
        PlacedTask {
            task,
            execution,
            parent,
            split: None,
        }
    }

    /// Sets the runtime execution budget of this placement (builder style).
    /// Used by overhead-aware partitioners whose analysis WCET exceeds the
    /// pure execution time.
    pub fn with_execution(mut self, execution: Time) -> Self {
        self.execution = execution;
        self
    }

    /// Whether this placement is a piece of a split task.
    pub fn is_split(&self) -> bool {
        self.split.is_some()
    }

    /// Whether this placement is a body subtask.
    pub fn is_body(&self) -> bool {
        matches!(self.split.as_ref().map(|s| s.kind), Some(SubtaskKind::Body))
    }

    /// Whether this placement is a tail subtask.
    pub fn is_tail(&self) -> bool {
        matches!(self.split.as_ref().map(|s| s.kind), Some(SubtaskKind::Tail))
    }
}

/// How a core's cache slot diverged from its placements since the last
/// refresh. Tracking the *kind* of mutation lets the renormalization sync
/// point pick the cheap specialised refresh (pure insert / pure removal)
/// instead of the general diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheStaleness {
    /// The cache matches the placements.
    Fresh,
    /// Placements were only added since the last refresh.
    Inserted,
    /// Placements were only removed since the last refresh.
    Removed,
    /// Mixed or unknown mutations: only the general diff is sound.
    Mixed,
}

impl CacheStaleness {
    fn escalate(self, op: CacheStaleness) -> CacheStaleness {
        match (self, op) {
            (CacheStaleness::Fresh, op) => op,
            (current, op) if current == op => current,
            _ => CacheStaleness::Mixed,
        }
    }
}

/// Per-core slot of the optional attached analysis cache: the incremental
/// RTA state plus a staleness marker set by [`Partition::place`] /
/// [`Partition::remove_parent`] (which cannot know the final priorities —
/// renormalization runs after them) and cleared by
/// [`Partition::renormalize_core_priorities`].
#[derive(Debug, Clone)]
struct CoreCacheSlot {
    analysis: CachedCoreAnalysis,
    staleness: CacheStaleness,
}

/// One recorded, undoable mutation of a [`Partition`]. Every entry stores
/// exactly the state the mutation destroyed, so undoing the journal in LIFO
/// order restores the partition — placements, priorities *and* the attached
/// analysis-cache state — bit-identically.
#[derive(Debug)]
enum JournalOp {
    /// [`Partition::place`] pushed one placement onto `core` and escalated
    /// the cache staleness from `prev_staleness`.
    Place {
        core: CoreId,
        prev_staleness: Option<CacheStaleness>,
    },
    /// [`Partition::remove_parent`] removed `removed` (original indices,
    /// ascending) from `core` and escalated the staleness.
    Remove {
        core: CoreId,
        removed: Vec<(usize, PlacedTask)>,
        prev_staleness: Option<CacheStaleness>,
    },
    /// [`Partition::renormalize_core_priorities`] rewrote the priorities of
    /// every placement on `core` (recorded in placement order) and refreshed
    /// the cache slot. `cache_undo` carries the prior staleness marker plus
    /// the per-entry deltas the refresh destroyed — O(changed levels), not a
    /// clone of the whole slot.
    Renormalize {
        core: CoreId,
        priorities: Vec<Option<Priority>>,
        cache_undo: Option<(CacheStaleness, RefreshUndo)>,
    },
}

/// The mutation journal behind [`Partition::journal_begin`] /
/// [`Partition::rewind`]: a LIFO log of [`JournalOp`]s recorded while at
/// least one rollback scope is open (`depth > 0`). Journals are
/// instance-local derived state — they do not travel with `Clone`, do not
/// serialize and do not participate in equality.
#[derive(Debug, Default)]
struct Journal {
    ops: Vec<JournalOp>,
    /// Number of open rollback scopes; recording stops and the log clears
    /// only when the outermost scope ends.
    depth: usize,
    /// One entry per open scope, innermost last. Each carries the scope's
    /// start position and an abandonment token shared with whoever opened
    /// the scope (a [`PlanTxn`](crate::PlanTxn) holds the other end): a
    /// scope whose token was flipped without a matching
    /// [`Partition::journal_end`] is auto-aborted at the partition's next
    /// journal interaction. See
    /// [`Partition::reconcile_abandoned_scopes`].
    open: Vec<OpenScope>,
}

/// One open rollback scope: its journal start position plus the shared
/// abandonment token (see [`Journal::open`]).
#[derive(Debug)]
struct OpenScope {
    mark: usize,
    abandoned: Arc<AtomicBool>,
}

/// A position in a partition's mutation journal, returned by
/// [`Partition::journal_begin`] / [`Partition::journal_mark`] and consumed
/// by [`Partition::rewind`]. Marks are LIFO: rewinding to an outer mark
/// undoes everything recorded after it, including inner scopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalMark(usize);

/// Outcome of [`Partition::audit_cached_core`]: was the memoized per-core
/// analysis still bit-equal to a from-scratch re-derivation?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAuditVerdict {
    /// The memo matched the scratch analysis.
    Clean,
    /// The memo diverged and was rebuilt from scratch.
    Repaired,
}

/// A complete mapping of a task set onto `m` cores.
///
/// Produced by a [`Partitioner`](crate::Partitioner); consumed by the
/// schedulability analysis, the statistics in the acceptance-ratio
/// experiments and the discrete-event simulator.
///
/// # The attached analysis cache
///
/// [`enable_analysis_cache`](Self::enable_analysis_cache) attaches an
/// incremental [`CachedCoreAnalysis`] per core, kept coherent through
/// [`place`](Self::place), [`remove_parent`](Self::remove_parent) and
/// [`renormalize_core_priorities`](Self::renormalize_core_priorities). The
/// cache is derived state: it is skipped by serialization and ignored by
/// `PartialEq`, and it travels with `Clone`, so snapshot/rollback flows
/// restore it for free.
///
/// # The mutation journal
///
/// Every partition carries a mutation journal. It is idle — records
/// nothing and costs nothing — until
/// [`journal_begin`](Self::journal_begin) opens a rollback scope; inside
/// one, every [`place`](Self::place), [`remove_parent`](Self::remove_parent)
/// and [`renormalize_core_priorities`](Self::renormalize_core_priorities)
/// records an undo entry (including the touched analysis-cache state), and
/// [`rewind`](Self::rewind) restores the partition to a mark in O(recorded
/// moves) instead of the O(tasks) full-partition clone a snapshot would
/// cost. The journal is the one rollback mechanism: the online
/// controller's bounded repair, split and cross-shard planning all run on
/// it, and [`clone_count`](Self::clone_count) proves the hot path stays
/// clone-free.
#[derive(Debug, Default)]
pub struct Partition {
    cores: Vec<Vec<PlacedTask>>,
    cache: Option<Vec<CoreCacheSlot>>,
    journal: Journal,
    /// Whether split chains may end at a shard boundary: a body piece with
    /// `next_core: None` whose later pieces live in *another* shard's
    /// partition. Off by default; the cross-shard split planner opts in.
    partial_chains: bool,
}

/// Clones the placements and the attached analysis cache. The mutation
/// journal is instance-local rollback state and does *not* travel: the clone
/// gets a fresh, idle journal.
/// Every clone increments the calling thread's counter behind
/// [`Partition::clone_count`] so rollback paths can prove they stopped
/// snapshotting.
impl Clone for Partition {
    fn clone(&self) -> Self {
        scoped::bump(HotCounter::PartitionClones);
        Partition {
            cores: self.cores.clone(),
            cache: self.cache.clone(),
            journal: Journal::default(),
            partial_chains: self.partial_chains,
        }
    }
}

/// Placement equality only: the analysis cache is derived state and two
/// partitions differing only in cache attachment are the same mapping.
impl PartialEq for Partition {
    fn eq(&self, other: &Self) -> bool {
        self.cores == other.cores
    }
}

/// Serializes the placements only; the analysis cache is derived state and
/// is rebuilt (when wanted) after deserialization. The encoding matches what
/// the former `#[derive(Serialize)]` produced, so stored partitions stay
/// readable.
impl Serialize for Partition {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![("cores".to_owned(), self.cores.to_value())])
    }
}

impl Deserialize for Partition {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Partition {
            cores: Vec::<Vec<PlacedTask>>::from_value(value.field("cores")?)?,
            cache: None,
            journal: Journal::default(),
            partial_chains: false,
        })
    }
}

impl Partition {
    /// Creates an empty partition over `cores` processors.
    pub fn new(cores: usize) -> Self {
        Partition {
            cores: vec![Vec::new(); cores],
            cache: None,
            journal: Journal::default(),
            partial_chains: false,
        }
    }

    /// Opts this partition into *partial split chains*: a body piece may
    /// carry `next_core: None` when the later pieces of its chain live in
    /// another shard's partition. [`validate`](Self::validate) then checks
    /// each local run of a chain (contiguous piece indices, consistent
    /// piece counts, boundary bodies unlinked) instead of requiring the
    /// whole chain locally. The flag travels with `Clone` but — like the
    /// cache and journal — does not serialize and does not affect equality.
    pub fn allow_partial_chains(&mut self) {
        self.partial_chains = true;
    }

    /// Whether partial split chains are allowed (see
    /// [`allow_partial_chains`](Self::allow_partial_chains)).
    pub fn partial_chains_allowed(&self) -> bool {
        self.partial_chains
    }

    /// Count of `Partition::clone()` calls **on the calling thread** since
    /// it started (or the last [`reset_clone_count`](Self::reset_clone_count)).
    /// The journal-based rollback paths of the online admission cascade
    /// must not clone partitions; benches and regression tests read this
    /// counter around a decision stream to assert the repair/split hot
    /// path stayed clone-free. Thread-local so concurrent sweep workers
    /// cannot perturb each other's readings. Shim over the telemetry
    /// crate's [`HotCounter::PartitionClones`] scoped counter, which
    /// admission engines also fold into their registry per decision (as
    /// `spms_mech_partition_clones_total`).
    pub fn clone_count() -> u64 {
        scoped::thread_value(HotCounter::PartitionClones)
    }

    /// Resets the calling thread's [`clone_count`](Self::clone_count)
    /// (bench/test support).
    pub fn reset_clone_count() {
        scoped::reset_thread(HotCounter::PartitionClones);
    }

    /// Opens a rollback scope: subsequent mutations record undo entries
    /// until the matching [`journal_end`](Self::journal_end). Scopes nest
    /// (each `journal_begin` must be paired with one `journal_end`; the
    /// undo log is kept until the outermost scope closes). Returns the
    /// mark to [`rewind`](Self::rewind) to. See the
    /// [struct docs](Self#the-mutation-journal).
    pub fn journal_begin(&mut self) -> JournalMark {
        self.reconcile_abandoned_scopes();
        scoped::bump(HotCounter::JournalBegins);
        let journal = &mut self.journal;
        journal.depth += 1;
        journal.open.push(OpenScope {
            mark: journal.ops.len(),
            abandoned: Arc::new(AtomicBool::new(false)),
        });
        JournalMark(journal.ops.len())
    }

    /// The abandonment token of the innermost open rollback scope, shared
    /// with the scope's owner so a dropped-without-close owner (an early
    /// return or unwinding [`PlanTxn`](crate::PlanTxn)) can flag the scope
    /// for auto-abort.
    ///
    /// # Panics
    ///
    /// Panics if no scope is open.
    pub(crate) fn current_scope_guard(&self) -> Arc<AtomicBool> {
        let scope = self.journal.open.last().expect("no open journal scope");
        Arc::clone(&scope.abandoned)
    }

    /// Auto-aborts every innermost open scope whose owner flagged it
    /// abandoned (a [`PlanTxn`](crate::PlanTxn) dropped without `commit()`
    /// or `abort()`, e.g. on an early-return or panic path): the scope is
    /// rewound to its begin position and closed, exactly as an explicit
    /// abort would have. Runs automatically at the start of every journal
    /// interaction and recording mutator, so an abandoned transaction can
    /// never leak journal marks or leave speculative mutations behind once
    /// the partition is touched again. Returns the number of scopes
    /// auto-aborted (almost always 0).
    pub fn reconcile_abandoned_scopes(&mut self) -> usize {
        let mut closed = 0;
        loop {
            let Some(top) = self.journal.open.last() else {
                return closed;
            };
            if !top.abandoned.load(Ordering::Relaxed) {
                return closed;
            }
            // An enclosing rewind may already have dropped past the
            // abandoned scope's start; clamp so the rewind below only ever
            // undoes what is still recorded.
            let mark = top.mark.min(self.journal.ops.len());
            self.rewind(JournalMark(mark));
            let journal = &mut self.journal;
            journal.open.pop();
            journal.depth = journal.depth.saturating_sub(1);
            if journal.depth == 0 {
                journal.ops.clear();
            }
            closed += 1;
        }
    }

    /// The current journal position, for nested rollback points inside an
    /// open scope (e.g. one speculative relocation within a repair attempt).
    pub fn journal_mark(&self) -> JournalMark {
        JournalMark(self.journal.ops.len())
    }

    /// Undoes every mutation recorded after `mark`, in LIFO order,
    /// restoring placements, priorities and the attached analysis-cache
    /// state bit-identically. O(recorded moves), not O(tasks).
    pub fn rewind(&mut self, mark: JournalMark) {
        let mut ops = std::mem::take(&mut self.journal.ops);
        scoped::bump(HotCounter::JournalRewinds);
        debug_assert!(
            mark.0 <= ops.len(),
            "rewind to a stale journal mark (taken before a cleared scope?)"
        );
        while ops.len() > mark.0 {
            let op = ops.pop().expect("len checked above");
            self.undo(op);
        }
        self.journal.ops = ops;
    }

    /// Closes the innermost rollback scope opened by
    /// [`journal_begin`](Self::journal_begin). When the outermost scope
    /// closes, recording stops and the accumulated undo history is
    /// discarded (the mutations are final); an inner close keeps the
    /// outer scope's log intact, so its marks stay rewindable.
    pub fn journal_end(&mut self) {
        let journal = &mut self.journal;
        journal.depth = journal.depth.saturating_sub(1);
        journal.open.pop();
        if journal.depth == 0 {
            journal.ops.clear();
        }
        // Closing a live scope may expose an abandoned one underneath.
        self.reconcile_abandoned_scopes();
    }

    /// Applies one undo entry. The undo writes fields directly (never
    /// through the recording mutators), so rewinding records nothing.
    fn undo(&mut self, op: JournalOp) {
        match op {
            JournalOp::Place {
                core,
                prev_staleness,
            } => {
                self.cores[core.0].pop();
                self.restore_staleness(core, prev_staleness);
            }
            JournalOp::Remove {
                core,
                removed,
                prev_staleness,
            } => {
                // Ascending original indices: re-inserting in order puts
                // every placement back where it was.
                for (idx, placed) in removed {
                    self.cores[core.0].insert(idx, placed);
                }
                self.restore_staleness(core, prev_staleness);
            }
            JournalOp::Renormalize {
                core,
                priorities,
                cache_undo,
            } => {
                for (placed, prev) in self.cores[core.0].iter_mut().zip(priorities) {
                    match prev {
                        Some(priority) => placed.task.set_priority(priority),
                        None => placed.task.clear_priority(),
                    }
                }
                if let (Some(slots), Some((staleness, undo))) = (&mut self.cache, cache_undo) {
                    let slot = &mut slots[core.0];
                    slot.analysis.apply_refresh_undo(undo);
                    slot.staleness = staleness;
                }
            }
        }
    }

    fn restore_staleness(&mut self, core: CoreId, prev: Option<CacheStaleness>) {
        if let (Some(slots), Some(prev)) = (&mut self.cache, prev) {
            slots[core.0].staleness = prev;
        }
    }

    /// Whether the journal is currently recording (an open rollback scope).
    fn recording(&self) -> bool {
        self.journal.depth > 0
    }

    fn record(&mut self, op: JournalOp) {
        if self.recording() {
            self.journal.ops.push(op);
        }
    }

    /// Attaches (or rebuilds) the incremental analysis cache: one converged
    /// [`CachedCoreAnalysis`] per core. See the
    /// [struct docs](Self#the-attached-analysis-cache).
    ///
    /// Must not be called inside an open journal scope: cache attachment
    /// is not journaled, so a later [`rewind`](Self::rewind) could not
    /// restore the pre-attachment state (debug builds assert this).
    pub fn enable_analysis_cache(&mut self) {
        debug_assert!(
            !self.recording(),
            "enable_analysis_cache inside an open journal scope cannot be rewound"
        );
        self.cache = Some(
            self.cores
                .iter()
                .map(|bin| {
                    let tasks: Vec<Task> = bin.iter().map(|p| p.task.clone()).collect();
                    CoreCacheSlot {
                        analysis: CachedCoreAnalysis::from_tasks(&tasks),
                        staleness: CacheStaleness::Fresh,
                    }
                })
                .collect(),
        );
    }

    /// Whether an analysis cache is attached (converged or not).
    pub fn analysis_cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// The converged cached analysis of one core, or `None` when no cache is
    /// attached or the core has been mutated since the last
    /// renormalization (callers then fall back to from-scratch analysis).
    ///
    /// # Panics
    ///
    /// Panics if the core id is out of range while a cache is attached.
    pub fn cached_core(&self, core: CoreId) -> Option<&CachedCoreAnalysis> {
        let slot = &self.cache.as_ref()?[core.0];
        (slot.staleness == CacheStaleness::Fresh).then_some(&slot.analysis)
    }

    /// Fault-injection hook: flips one memoized response time on `core`'s
    /// converged cache slot (see
    /// [`CachedCoreAnalysis::corrupt_first_response`] for the direction and
    /// why it is sound). Returns `false` when no cache is attached, the
    /// slot is stale, or the core has no positive converged response to
    /// flip.
    pub fn corrupt_cached_response(&mut self, core: CoreId) -> bool {
        let Some(slots) = &mut self.cache else {
            return false;
        };
        let Some(slot) = slots.get_mut(core.0) else {
            return false;
        };
        if slot.staleness != CacheStaleness::Fresh {
            return false;
        }
        slot.analysis.corrupt_first_response()
    }

    /// Self-audit of one core's attached analysis cache: re-derives the
    /// core's analysis from scratch and compares it against the memo. A
    /// clean core returns [`CacheAuditVerdict::Clean`]; a divergent memo
    /// (an injected corruption, or an incremental-maintenance bug) is
    /// quarantined and rebuilt from scratch, returning
    /// [`CacheAuditVerdict::Repaired`]. Returns `None` when there is
    /// nothing to audit: no cache attached, core id out of range, or the
    /// slot stale (it will be rebuilt at its next renormalization sync
    /// anyway).
    ///
    /// Must not run inside an open journal scope — the rebuild is not
    /// journaled, so a later [`rewind`](Self::rewind) could not restore
    /// the pre-audit memo (debug builds assert this).
    pub fn audit_cached_core(&mut self, core: CoreId) -> Option<CacheAuditVerdict> {
        debug_assert!(
            !self.recording(),
            "audit_cached_core inside an open journal scope cannot be rewound"
        );
        let fresh = {
            let slots = self.cache.as_ref()?;
            let slot = slots.get(core.0)?;
            slot.staleness == CacheStaleness::Fresh
        };
        if !fresh {
            return None;
        }
        let clean = self.cache.as_mut().expect("checked above")[core.0]
            .analysis
            .audit();
        Some(if clean {
            CacheAuditVerdict::Clean
        } else {
            CacheAuditVerdict::Repaired
        })
    }

    /// Number of processors.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// The placements assigned to one core.
    ///
    /// # Panics
    ///
    /// Panics if the core id is out of range.
    pub fn core(&self, core: CoreId) -> &[PlacedTask] {
        &self.cores[core.0]
    }

    /// Adds a placement to a core.
    ///
    /// With an analysis cache attached, the core's cache turns stale until
    /// the next [`renormalize_core_priorities`](Self::renormalize_core_priorities)
    /// call (the commit discipline: placements get their final priorities
    /// only then).
    ///
    /// # Panics
    ///
    /// Panics if the core id is out of range.
    pub fn place(&mut self, core: CoreId, placed: PlacedTask) {
        self.reconcile_abandoned_scopes();
        if self.recording() {
            let prev_staleness = self.cache.as_ref().map(|s| s[core.0].staleness);
            self.record(JournalOp::Place {
                core,
                prev_staleness,
            });
        }
        self.cores[core.0].push(placed);
        if let Some(slots) = &mut self.cache {
            let slot = &mut slots[core.0];
            slot.staleness = slot.staleness.escalate(CacheStaleness::Inserted);
        }
    }

    /// Iterates over `(core, placement)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CoreId, &PlacedTask)> {
        self.cores
            .iter()
            .enumerate()
            .flat_map(|(c, ts)| ts.iter().map(move |t| (CoreId(c), t)))
    }

    /// Total number of placements (tasks assigned whole count once, split
    /// tasks count once per piece).
    pub fn placement_count(&self) -> usize {
        self.cores.iter().map(Vec::len).sum()
    }

    /// Number of *distinct tasks* that were split.
    pub fn split_count(&self) -> usize {
        let mut parents: Vec<TaskId> = self
            .iter()
            .filter(|(_, p)| p.is_split())
            .map(|(_, p)| p.parent)
            .collect();
        parents.sort_unstable();
        parents.dedup();
        parents.len()
    }

    /// Number of migrations per period of split tasks: each body subtask
    /// causes one migration of its parent each period.
    pub fn migrations_per_hyperperiod_hint(&self) -> usize {
        self.iter().filter(|(_, p)| p.is_body()).count()
    }

    /// Utilization assigned to each core (using the effective, possibly
    /// inflated, task parameters).
    pub fn core_utilizations(&self) -> Vec<f64> {
        self.cores
            .iter()
            .map(|ts| ts.iter().map(|p| p.task.utilization()).sum())
            .collect()
    }

    /// The effective per-core tasks, for feeding a per-core analysis.
    pub fn core_tasks(&self, core: CoreId) -> Vec<Task> {
        self.cores[core.0].iter().map(|p| p.task.clone()).collect()
    }

    /// Runs the given uniprocessor test on every core. Cores with a
    /// converged analysis cache answer from the cache when the test is the
    /// exact RTA (bit-identical to the from-scratch run by construction).
    pub fn is_schedulable(&self, test: UniprocessorTest) -> bool {
        (0..self.core_count()).all(|c| {
            if test == UniprocessorTest::ResponseTime {
                if let Some(cache) = self.cached_core(CoreId(c)) {
                    return cache.is_schedulable();
                }
            }
            test.accepts(&self.core_tasks(CoreId(c)))
        })
    }

    /// Worst-case response times per core under exact RTA (`None` entries are
    /// unschedulable placements).
    pub fn response_times(&self) -> Vec<Vec<Option<Time>>> {
        (0..self.core_count())
            .map(|c| rta::analyse_core(&self.core_tasks(CoreId(c))).response_times)
            .collect()
    }

    /// Utilization still unassigned on one core: `1.0` minus the sum of the
    /// effective utilizations placed there. Can be negative when an
    /// overhead-inflated assignment overcommits a core; callers treating this
    /// as spare capacity should clamp at zero.
    ///
    /// # Panics
    ///
    /// Panics if the core id is out of range.
    pub fn residual_utilization(&self, core: CoreId) -> f64 {
        1.0 - self.cores[core.0]
            .iter()
            .map(|p| p.task.utilization())
            .sum::<f64>()
    }

    /// [`residual_utilization`](Self::residual_utilization) clamped at zero:
    /// the spare capacity a caller may order or admit against. An
    /// overhead-inflated assignment can overcommit a core, and a negative
    /// "residual" must never rank such a core as roomier than an exactly
    /// full one.
    ///
    /// # Panics
    ///
    /// Panics if the core id is out of range.
    pub fn spare_utilization(&self, core: CoreId) -> f64 {
        self.residual_utilization(core).max(0.0)
    }

    /// The distinct parent tasks placed anywhere in the partition, sorted by
    /// id.
    pub fn parent_ids(&self) -> Vec<TaskId> {
        let mut parents: Vec<TaskId> = self.iter().map(|(_, p)| p.parent).collect();
        parents.sort_unstable();
        parents.dedup();
        parents
    }

    /// All placements of one parent task, in `(core, placement)` pairs
    /// ordered core-first.
    pub fn placements_of(&self, parent: TaskId) -> Vec<(CoreId, &PlacedTask)> {
        self.iter().filter(|(_, p)| p.parent == parent).collect()
    }

    /// Whether a core already hosts a promoted tail subtask.
    ///
    /// # Panics
    ///
    /// Panics if the core id is out of range.
    pub fn core_has_tail(&self, core: CoreId) -> bool {
        self.cores[core.0].iter().any(PlacedTask::is_tail)
    }

    /// Whether a core already hosts a promoted body subtask.
    ///
    /// # Panics
    ///
    /// Panics if the core id is out of range.
    pub fn core_has_body(&self, core: CoreId) -> bool {
        self.cores[core.0].iter().any(PlacedTask::is_body)
    }

    /// Removes every placement (whole task or split piece) of `parent` and
    /// renormalizes the priorities of each core it was removed from. Returns
    /// the number of placements removed (0 when the task was not placed).
    ///
    /// This is the departure path of online admission control: removing
    /// tasks only ever shrinks per-core demand, so a schedulable partition
    /// stays schedulable.
    pub fn remove_parent(&mut self, parent: TaskId) -> usize {
        self.reconcile_abandoned_scopes();
        let recording = self.recording();
        let mut removed = 0;
        let mut touched = Vec::new();
        let mut undo = Vec::new();
        for (idx, bin) in self.cores.iter_mut().enumerate() {
            if !bin.iter().any(|p| p.parent == parent) {
                continue;
            }
            if recording {
                // Extract instead of retain so the undo entry keeps the
                // original index of every removed placement.
                let old = std::mem::take(bin);
                let mut removed_here = Vec::new();
                for (pos, placed) in old.into_iter().enumerate() {
                    if placed.parent == parent {
                        removed_here.push((pos, placed));
                    } else {
                        bin.push(placed);
                    }
                }
                removed += removed_here.len();
                undo.push((CoreId(idx), removed_here));
            } else {
                let before = bin.len();
                bin.retain(|p| p.parent != parent);
                removed += before - bin.len();
            }
            touched.push(CoreId(idx));
        }
        for (core, removed_here) in undo {
            let prev_staleness = self.cache.as_ref().map(|s| s[core.0].staleness);
            self.record(JournalOp::Remove {
                core,
                removed: removed_here,
                prev_staleness,
            });
        }
        if let Some(slots) = &mut self.cache {
            for core in &touched {
                let slot = &mut slots[core.0];
                slot.staleness = slot.staleness.escalate(CacheStaleness::Removed);
            }
        }
        for core in touched {
            self.renormalize_core_priorities(core);
        }
        removed
    }

    /// Recomputes the per-core priority levels after an online mutation:
    /// promoted body and tail subtasks keep [`BODY_PRIORITY`] and
    /// [`TAIL_PRIORITY`], and tasks assigned whole receive dense
    /// deadline-monotonic levels starting at [`WHOLE_PRIORITY_BASE`] (ties
    /// broken by period, then id, so the assignment is deterministic).
    ///
    /// Deadline-monotonic ordering is optimal among fixed-priority
    /// assignments for constrained deadlines, so renormalizing a schedulable
    /// core never makes it unschedulable; for the implicit-deadline task
    /// sets the generators produce it coincides with the rate-monotonic
    /// order the offline partitioners assign.
    ///
    /// With an analysis cache attached, this is also the cache's sync
    /// point: the core's slot is refreshed against the renormalized
    /// assignment (reusing or warm-starting every response time the
    /// mutation did not invalidate) and marked converged again.
    ///
    /// # Panics
    ///
    /// Panics if the core id is out of range.
    pub fn renormalize_core_priorities(&mut self, core: CoreId) {
        let recording = self.recording();
        let priorities: Option<Vec<Option<Priority>>> = recording.then(|| {
            self.cores[core.0]
                .iter()
                .map(|p| p.task.priority())
                .collect()
        });
        assign_whole_priorities(
            self.cores[core.0]
                .iter_mut()
                .filter(|p| !p.is_split())
                .map(|p| &mut p.task)
                .collect(),
        );
        let mut cache_undo = None;
        if let Some(slots) = &mut self.cache {
            let tasks: Vec<Task> = self.cores[core.0].iter().map(|p| p.task.clone()).collect();
            let slot = &mut slots[core.0];
            let mode = match slot.staleness {
                // Renormalization of an untouched core cannot reorder
                // tasks; levels may shift, which the insert-specialised
                // refresh absorbs with one warm iteration per task.
                CacheStaleness::Fresh if slot.analysis.len() == tasks.len() => {
                    RefreshMode::AfterInsert
                }
                CacheStaleness::Inserted => RefreshMode::AfterInsert,
                CacheStaleness::Removed => RefreshMode::AfterRemove,
                _ => RefreshMode::General,
            };
            if recording {
                // Undo data is only the per-entry deltas the refresh
                // destroys — the journal never clones a whole cache slot.
                let undo = slot.analysis.refresh_with_undo(&tasks, mode);
                cache_undo = Some((slot.staleness, undo));
            } else {
                match mode {
                    RefreshMode::AfterInsert => slot.analysis.refresh_after_insert(&tasks),
                    RefreshMode::AfterRemove => slot.analysis.refresh_after_remove(&tasks),
                    RefreshMode::General => slot.analysis.refresh(&tasks),
                }
            }
            slot.staleness = CacheStaleness::Fresh;
        }
        if recording {
            self.record(JournalOp::Renormalize {
                core,
                priorities: priorities.expect("captured while recording"),
                cache_undo,
            });
        }
    }

    /// Structural sanity checks, used by tests and debug assertions:
    ///
    /// * every split chain has exactly one tail and `part_count − 1` bodies,
    /// * piece indices are contiguous from 0,
    /// * release offsets are non-decreasing along the chain,
    /// * body subtasks point to the core that actually hosts the next piece.
    ///
    /// Returns a human-readable description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        use std::collections::HashMap;
        let mut chains: HashMap<TaskId, Vec<(CoreId, &PlacedTask)>> = HashMap::new();
        for (core, placed) in self.iter() {
            if placed.is_split() {
                chains
                    .entry(placed.parent)
                    .or_default()
                    .push((core, placed));
            }
        }
        for (parent, mut pieces) in chains {
            pieces.sort_by_key(|(_, p)| p.split.as_ref().expect("split piece").part_index);
            if self.partial_chains {
                Self::validate_partial_chain(parent, &pieces)?;
                continue;
            }
            let count = pieces.len();
            if count < 2 {
                return Err(format!("split task {parent} has only {count} piece(s)"));
            }
            let mut offset = Time::ZERO;
            for (i, (core, placed)) in pieces.iter().enumerate() {
                let info = placed.split.as_ref().expect("split piece");
                if info.part_index != i {
                    return Err(format!(
                        "split task {parent} has non-contiguous piece indices"
                    ));
                }
                if info.part_count != count {
                    return Err(format!(
                        "split task {parent} piece {i} reports {} pieces, found {count}",
                        info.part_count
                    ));
                }
                if info.release_offset < offset {
                    return Err(format!(
                        "split task {parent} piece {i} has decreasing release offset"
                    ));
                }
                offset = info.release_offset;
                let is_last = i == count - 1;
                match (is_last, info.kind) {
                    (true, SubtaskKind::Tail) | (false, SubtaskKind::Body) => {}
                    _ => {
                        return Err(format!(
                            "split task {parent} piece {i} has the wrong kind for its position"
                        ))
                    }
                }
                if let Some(next_core) = info.next_core {
                    let next_piece_core = pieces.get(i + 1).map(|(c, _)| *c);
                    if next_piece_core != Some(next_core) {
                        return Err(format!(
                            "split task {parent} piece {i} points to {next_core} but the next piece is on {:?}",
                            next_piece_core
                        ));
                    }
                } else if !is_last {
                    return Err(format!(
                        "split task {parent} body piece {i} is missing its next core"
                    ));
                }
                if info.first_core != pieces[0].0 {
                    return Err(format!(
                        "split task {parent} piece {i} disagrees about the first core"
                    ));
                }
                let _ = core;
            }
        }
        Ok(())
    }

    /// Partial-chain validation: the locally hosted pieces of one split
    /// chain must form a contiguous run of piece indices with consistent
    /// piece counts, correct body/tail kinds for their *global* position,
    /// intra-run `next_core` links pointing at the actual hosting cores,
    /// boundary bodies unlinked (`next_core: None` — the next piece is
    /// remote), non-decreasing release offsets, and a shard-local
    /// `first_core` agreeing on the first local piece's core.
    fn validate_partial_chain(
        parent: TaskId,
        pieces: &[(CoreId, &PlacedTask)],
    ) -> Result<(), String> {
        let first = pieces[0].1.split.as_ref().expect("split piece");
        let count = first.part_count;
        let base_index = first.part_index;
        if count < 2 {
            return Err(format!("split task {parent} reports {count} piece(s)"));
        }
        let mut offset = Time::ZERO;
        for (pos, (_, placed)) in pieces.iter().enumerate() {
            let info = placed.split.as_ref().expect("split piece");
            if info.part_index != base_index + pos {
                return Err(format!(
                    "split task {parent} has non-contiguous local piece indices"
                ));
            }
            if info.part_count != count {
                return Err(format!(
                    "split task {parent} local piece {pos} reports {} pieces, expected {count}",
                    info.part_count
                ));
            }
            if info.part_index >= count {
                return Err(format!(
                    "split task {parent} local piece {pos} has index {} out of {count}",
                    info.part_index
                ));
            }
            if info.release_offset < offset {
                return Err(format!(
                    "split task {parent} local piece {pos} has decreasing release offset"
                ));
            }
            offset = info.release_offset;
            let is_global_last = info.part_index == count - 1;
            match (is_global_last, info.kind) {
                (true, SubtaskKind::Tail) | (false, SubtaskKind::Body) => {}
                _ => {
                    return Err(format!(
                        "split task {parent} local piece {pos} has the wrong kind for its position"
                    ))
                }
            }
            if let Some(next_core) = info.next_core {
                let next_piece_core = pieces.get(pos + 1).map(|(c, _)| *c);
                if next_piece_core != Some(next_core) {
                    return Err(format!(
                        "split task {parent} local piece {pos} points to {next_core} but the next local piece is on {next_piece_core:?}"
                    ));
                }
            } else if pos + 1 < pieces.len() {
                return Err(format!(
                    "split task {parent} local body piece {pos} is unlinked but the next piece is local"
                ));
            }
            if info.first_core != pieces[0].0 {
                return Err(format!(
                    "split task {parent} local piece {pos} disagrees about the first local core"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms_task::Priority;

    fn task(id: u32, wcet_us: u64, period_us: u64, prio: u32) -> Task {
        let mut t =
            Task::new(id, Time::from_micros(wcet_us), Time::from_micros(period_us)).unwrap();
        t.set_priority(Priority::new(prio));
        t
    }

    #[allow(clippy::too_many_arguments)]
    fn split_piece(
        parent: u32,
        budget_us: u64,
        period_us: u64,
        prio: u32,
        index: usize,
        count: usize,
        kind: SubtaskKind,
        offset_us: u64,
        next: Option<usize>,
        first: usize,
    ) -> PlacedTask {
        let t = Task::builder(parent)
            .wcet(Time::from_micros(budget_us))
            .period(Time::from_micros(period_us))
            .deadline(Time::from_micros(period_us - offset_us))
            .priority(Priority::new(prio))
            .build()
            .unwrap();
        PlacedTask {
            task: t,
            execution: Time::from_micros(budget_us),
            parent: TaskId(parent),
            split: Some(SplitInfo {
                part_index: index,
                part_count: count,
                kind,
                release_offset: Time::from_micros(offset_us),
                next_core: next.map(CoreId),
                first_core: CoreId(first),
            }),
        }
    }

    fn two_core_partition_with_split() -> Partition {
        let mut p = Partition::new(2);
        p.place(CoreId(0), PlacedTask::whole(task(0, 2, 10, 1)));
        p.place(
            CoreId(0),
            split_piece(2, 3, 20, 0, 0, 2, SubtaskKind::Body, 0, Some(1), 0),
        );
        p.place(CoreId(1), PlacedTask::whole(task(1, 4, 10, 2)));
        p.place(
            CoreId(1),
            split_piece(2, 2, 20, 3, 1, 2, SubtaskKind::Tail, 3, None, 0),
        );
        p
    }

    #[test]
    fn placement_queries() {
        let p = two_core_partition_with_split();
        assert_eq!(p.core_count(), 2);
        assert_eq!(p.placement_count(), 4);
        assert_eq!(p.split_count(), 1);
        assert_eq!(p.migrations_per_hyperperiod_hint(), 1);
        assert_eq!(p.core(CoreId(0)).len(), 2);
        let utils = p.core_utilizations();
        assert!((utils[0] - (0.2 + 0.15)).abs() < 1e-9);
        assert!((utils[1] - (0.4 + 0.1)).abs() < 1e-9);
    }

    #[test]
    fn whole_placement_flags() {
        let placed = PlacedTask::whole(task(5, 1, 10, 0));
        assert!(!placed.is_split());
        assert!(!placed.is_body());
        assert!(!placed.is_tail());
        assert_eq!(placed.parent, TaskId(5));
    }

    #[test]
    fn validate_accepts_well_formed_split() {
        let p = two_core_partition_with_split();
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_single_piece_split() {
        let mut p = Partition::new(1);
        p.place(
            CoreId(0),
            split_piece(7, 1, 10, 0, 0, 2, SubtaskKind::Body, 0, None, 0),
        );
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_wrong_next_core() {
        let mut p = Partition::new(2);
        p.place(
            CoreId(0),
            split_piece(7, 1, 10, 0, 0, 2, SubtaskKind::Body, 0, Some(0), 0),
        );
        p.place(
            CoreId(1),
            split_piece(7, 1, 10, 3, 1, 2, SubtaskKind::Tail, 1, None, 0),
        );
        let err = p.validate().unwrap_err();
        assert!(err.contains("points to"));
    }

    #[test]
    fn validate_rejects_tail_in_the_middle() {
        let mut p = Partition::new(2);
        p.place(
            CoreId(0),
            split_piece(7, 1, 10, 0, 0, 2, SubtaskKind::Tail, 0, Some(1), 0),
        );
        p.place(
            CoreId(1),
            split_piece(7, 1, 10, 3, 1, 2, SubtaskKind::Body, 1, None, 0),
        );
        assert!(p.validate().is_err());
    }

    #[test]
    fn schedulability_and_response_times() {
        let p = two_core_partition_with_split();
        assert!(p.is_schedulable(UniprocessorTest::ResponseTime));
        let rts = p.response_times();
        assert_eq!(rts.len(), 2);
        assert!(rts.iter().flatten().all(Option::is_some));
    }

    #[test]
    fn residual_utilization_tracks_placements() {
        let p = two_core_partition_with_split();
        assert!((p.residual_utilization(CoreId(0)) - (1.0 - 0.35)).abs() < 1e-9);
        assert!((p.residual_utilization(CoreId(1)) - (1.0 - 0.5)).abs() < 1e-9);
        let empty = Partition::new(1);
        assert!((empty.residual_utilization(CoreId(0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parent_queries_cover_split_and_whole() {
        let p = two_core_partition_with_split();
        assert_eq!(
            p.parent_ids(),
            vec![TaskId(0), TaskId(1), TaskId(2)],
            "every parent appears exactly once"
        );
        assert_eq!(p.placements_of(TaskId(2)).len(), 2);
        assert_eq!(p.placements_of(TaskId(0)).len(), 1);
        assert!(p.placements_of(TaskId(9)).is_empty());
        assert!(p.core_has_body(CoreId(0)));
        assert!(!p.core_has_tail(CoreId(0)));
        assert!(p.core_has_tail(CoreId(1)));
        assert!(!p.core_has_body(CoreId(1)));
    }

    #[test]
    fn remove_parent_drops_every_piece_and_renormalizes() {
        let mut p = two_core_partition_with_split();
        assert_eq!(p.remove_parent(TaskId(2)), 2);
        assert_eq!(p.placement_count(), 2);
        assert_eq!(p.split_count(), 0);
        assert_eq!(p.remove_parent(TaskId(2)), 0);
        // The surviving whole tasks hold dense levels from the base.
        for (_, placed) in p.iter() {
            assert_eq!(
                placed.task.priority(),
                Some(Priority::new(WHOLE_PRIORITY_BASE))
            );
        }
    }

    #[test]
    fn renormalize_orders_whole_tasks_deadline_monotonically() {
        let mut p = Partition::new(1);
        p.place(CoreId(0), PlacedTask::whole(task(0, 1, 40, 9)));
        p.place(CoreId(0), PlacedTask::whole(task(1, 1, 10, 9)));
        p.place(
            CoreId(0),
            split_piece(7, 1, 50, 1, 1, 2, SubtaskKind::Tail, 1, None, 0),
        );
        p.renormalize_core_priorities(CoreId(0));
        let lookup = |id: u32| {
            p.iter()
                .find(|(_, pl)| pl.parent == TaskId(id))
                .map(|(_, pl)| pl.task.priority().unwrap())
                .unwrap()
        };
        assert_eq!(lookup(1), Priority::new(WHOLE_PRIORITY_BASE));
        assert_eq!(lookup(0), Priority::new(WHOLE_PRIORITY_BASE + 1));
        // The promoted tail keeps its reserved level.
        assert_eq!(lookup(7), TAIL_PRIORITY);
    }

    #[test]
    fn spare_utilization_clamps_overcommitted_cores() {
        let mut p = Partition::new(2);
        // An "overhead-inflated" assignment overcommitting core 0: 130%.
        p.place(CoreId(0), PlacedTask::whole(task(0, 7, 10, 2)));
        p.place(CoreId(0), PlacedTask::whole(task(2, 6, 10, 3)));
        p.place(CoreId(1), PlacedTask::whole(task(1, 5, 10, 2)));
        assert!(p.residual_utilization(CoreId(0)) < 0.0);
        assert_eq!(p.spare_utilization(CoreId(0)), 0.0);
        assert!((p.spare_utilization(CoreId(1)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn analysis_cache_tracks_mutations() {
        let mut p = two_core_partition_with_split();
        assert!(!p.analysis_cache_enabled());
        assert!(p.cached_core(CoreId(0)).is_none());
        p.enable_analysis_cache();
        let cache = p.cached_core(CoreId(0)).expect("converged after enable");
        assert!(cache.is_schedulable());
        assert_eq!(cache.len(), 2);

        // place() stales the touched core until renormalization.
        p.place(CoreId(0), PlacedTask::whole(task(9, 1, 10, 0)));
        assert!(p.cached_core(CoreId(0)).is_none());
        assert!(p.cached_core(CoreId(1)).is_some());
        p.renormalize_core_priorities(CoreId(0));
        let cache = p.cached_core(CoreId(0)).expect("refreshed");
        assert_eq!(cache.len(), 3);
        assert_eq!(
            cache.analysis(),
            rta::analyse_core(&cache.tasks().cloned().collect::<Vec<_>>())
        );

        // Departures keep every touched core coherent.
        p.remove_parent(TaskId(2));
        for core in [CoreId(0), CoreId(1)] {
            let cache = p.cached_core(core).expect("coherent after removal");
            assert_eq!(
                cache.analysis(),
                rta::analyse_core(&cache.tasks().cloned().collect::<Vec<_>>())
            );
        }
    }

    #[test]
    fn cache_is_ignored_by_equality_and_survives_clone() {
        let plain = two_core_partition_with_split();
        let mut cached = plain.clone();
        cached.enable_analysis_cache();
        assert_eq!(plain, cached, "the cache is derived state");
        let snapshot = cached.clone();
        assert!(snapshot.cached_core(CoreId(0)).is_some());
        assert_eq!(
            snapshot.cached_core(CoreId(0)),
            cached.cached_core(CoreId(0))
        );
    }

    #[test]
    fn cached_is_schedulable_matches_scratch() {
        let mut p = two_core_partition_with_split();
        let scratch = p.is_schedulable(UniprocessorTest::ResponseTime);
        p.enable_analysis_cache();
        assert_eq!(p.is_schedulable(UniprocessorTest::ResponseTime), scratch);
    }

    #[test]
    fn serialization_skips_the_cache_and_round_trips() {
        let mut p = two_core_partition_with_split();
        p.enable_analysis_cache();
        let json = serde_json::to_string(&p).unwrap();
        assert!(!json.contains("cache"));
        let back: Partition = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        assert!(!back.analysis_cache_enabled());
    }

    /// Placement + cache equality: the journal must restore both, so tests
    /// compare the visible placements and every core's converged cache.
    fn assert_fully_equal(a: &Partition, b: &Partition) {
        assert_eq!(a, b);
        for core in 0..a.core_count() {
            assert_eq!(
                a.cached_core(CoreId(core)),
                b.cached_core(CoreId(core)),
                "cache state diverged on core {core}"
            );
        }
    }

    #[test]
    fn rewind_restores_place_and_renormalize() {
        let mut p = two_core_partition_with_split();
        p.enable_analysis_cache();
        let snapshot = p.clone();
        let mark = p.journal_begin();
        p.place(CoreId(0), PlacedTask::whole(task(9, 1, 10, 0)));
        p.renormalize_core_priorities(CoreId(0));
        p.place(CoreId(1), PlacedTask::whole(task(10, 1, 30, 0)));
        p.renormalize_core_priorities(CoreId(1));
        assert_ne!(p, snapshot);
        p.rewind(mark);
        assert_fully_equal(&p, &snapshot);
        p.journal_end();
    }

    #[test]
    fn rewind_restores_remove_parent_at_original_indices() {
        let mut p = two_core_partition_with_split();
        p.enable_analysis_cache();
        let snapshot = p.clone();
        let mark = p.journal_begin();
        // Removes the split chain: one piece per core, at index 1 of each
        // bin, exercising mid-bin re-insertion on rewind.
        assert_eq!(p.remove_parent(TaskId(2)), 2);
        assert_ne!(p, snapshot);
        p.rewind(mark);
        assert_fully_equal(&p, &snapshot);
        for core in [CoreId(0), CoreId(1)] {
            assert_eq!(
                p.core(core).iter().map(|pl| pl.parent).collect::<Vec<_>>(),
                snapshot
                    .core(core)
                    .iter()
                    .map(|pl| pl.parent)
                    .collect::<Vec<_>>(),
                "bin order changed on {core}"
            );
        }
    }

    #[test]
    fn nested_marks_rewind_lifo() {
        let mut p = Partition::new(2);
        p.enable_analysis_cache();
        let outer = p.journal_begin();
        p.place(CoreId(0), PlacedTask::whole(task(0, 1, 10, 0)));
        p.renormalize_core_priorities(CoreId(0));
        let committed = p.clone();
        let inner = p.journal_mark();
        p.place(CoreId(0), PlacedTask::whole(task(1, 2, 10, 0)));
        p.renormalize_core_priorities(CoreId(0));
        p.rewind(inner);
        assert_fully_equal(&p, &committed);
        p.rewind(outer);
        assert_eq!(p.placement_count(), 0);
        assert!(p.cached_core(CoreId(0)).unwrap().is_empty());
        p.journal_end();
    }

    #[test]
    fn nested_scopes_keep_the_outer_log_until_the_outermost_end() {
        let mut p = Partition::new(1);
        p.enable_analysis_cache();
        let outer = p.journal_begin();
        p.place(CoreId(0), PlacedTask::whole(task(0, 1, 10, 0)));
        p.renormalize_core_priorities(CoreId(0));
        let inner = p.journal_begin();
        p.place(CoreId(0), PlacedTask::whole(task(1, 2, 10, 0)));
        p.renormalize_core_priorities(CoreId(0));
        p.rewind(inner);
        // Closing the inner scope must keep the outer scope's undo log:
        // the outer mark stays rewindable.
        p.journal_end();
        assert_eq!(p.placement_count(), 1);
        p.rewind(outer);
        p.journal_end();
        assert_eq!(p.placement_count(), 0);
        assert!(p.cached_core(CoreId(0)).unwrap().is_empty());
    }

    #[test]
    fn journal_records_only_inside_scopes() {
        let mut p = Partition::new(1);
        // Outside a scope: mutations are final, rewinding does nothing.
        let mark = p.journal_mark();
        p.place(CoreId(0), PlacedTask::whole(task(0, 1, 10, 0)));
        p.renormalize_core_priorities(CoreId(0));
        p.rewind(mark);
        assert_eq!(p.placement_count(), 1);
    }

    #[test]
    fn clones_do_not_carry_journal_history_but_stay_enabled() {
        let mut p = Partition::new(1);
        let mark = p.journal_begin();
        p.place(CoreId(0), PlacedTask::whole(task(0, 1, 10, 0)));
        let mut clone = p.clone();
        // The clone's journal is fresh: its marks are independent.
        assert_eq!(clone.journal_mark(), JournalMark(0));
        p.rewind(mark);
        assert_eq!(p.placement_count(), 0);
        assert_eq!(clone.placement_count(), 1);
        // ...and it is live: the clone opens and rewinds its own scopes.
        let clone_mark = clone.journal_begin();
        clone.place(CoreId(0), PlacedTask::whole(task(1, 1, 10, 0)));
        clone.rewind(clone_mark);
        clone.journal_end();
        assert_eq!(clone.placement_count(), 1);
    }

    #[test]
    fn clone_counter_tracks_partition_clones() {
        let p = two_core_partition_with_split();
        let before = Partition::clone_count();
        let _ = p.clone();
        let _ = p.clone();
        assert_eq!(Partition::clone_count(), before + 2);
    }

    #[test]
    fn core_id_display_and_conversions() {
        assert_eq!(CoreId(3).to_string(), "P3");
        assert_eq!(usize::from(CoreId(2)), 2);
        assert_eq!(CoreId::from(4), CoreId(4));
    }
}
