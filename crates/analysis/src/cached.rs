//! Incremental per-core response-time analysis.
//!
//! [`CachedCoreAnalysis`] memoizes the converged response time of every task
//! on one core and keeps the memo coherent under mutation, exploiting two
//! structural facts of the fixed-priority recurrence:
//!
//! * a task's response time depends only on its own `(C, D)` and on the
//!   `(C, T)` multiset of the tasks at higher-or-equal priority — so a
//!   mutation at priority level `p` invalidates **only the levels at or
//!   below `p`**; everything above keeps its converged fixed point;
//! * the fixed point is the *least* fixed point, so a response time
//!   converged under a subset of the current interference is a valid **warm
//!   start**: after an insertion, each invalidated level re-converges from
//!   its previous value in a handful of iterations instead of from `C_i`.
//!
//! The cache is *always converged*: [`insert`](CachedCoreAnalysis::insert),
//! [`remove`](CachedCoreAnalysis::remove), their renormalizing forms
//! [`insert_relabelled`](CachedCoreAnalysis::insert_relabelled) /
//! [`remove_relabelled`](CachedCoreAnalysis::remove_relabelled) and
//! [`refresh`](CachedCoreAnalysis::refresh) re-establish every response time
//! eagerly, so the read-side — [`is_schedulable`], [`analysis`] and the
//! non-mutating what-if probes ([`accepts_candidate`],
//! [`accepts_prioritised`]) — works on `&self` and allocates nothing.
//! Results are bit-identical to a from-scratch [`rta::analyse_core`] over
//! the same tasks (property-tested in `tests/cache_equivalence.rs`).
//!
//! A probe that accepts a candidate has already converged every response
//! the committed core needs; [`probe_candidate_with`] hands them out, and
//! [`insert_relabelled`] (or, without a relabel,
//! [`insert_proven`](CachedCoreAnalysis::insert_proven)) installs
//! them instead of re-deriving them.
//!
//! The converged responses also make split carving a single read:
//! [`max_prioritised_wcet`] scans each entry's time demand once and returns
//! the exact largest `C = D` piece the core accepts — where a bisection
//! would spend a probe per halving.
//!
//! Task ids must be unique within one core — every partitioner in the
//! workspace guarantees this (a split chain places at most one piece of a
//! parent per core).
//!
//! [`is_schedulable`]: CachedCoreAnalysis::is_schedulable
//! [`analysis`]: CachedCoreAnalysis::analysis
//! [`accepts_candidate`]: CachedCoreAnalysis::accepts_candidate
//! [`accepts_prioritised`]: CachedCoreAnalysis::accepts_prioritised
//! [`max_prioritised_wcet`]: CachedCoreAnalysis::max_prioritised_wcet
//! [`probe_candidate_with`]: CachedCoreAnalysis::probe_candidate_with
//! [`insert_relabelled`]: CachedCoreAnalysis::insert_relabelled

use spms_task::{Priority, Task, TaskId, Time};

use crate::rta::{self, CoreAnalysis};

/// One memoized task on the core: the analysis task plus its converged
/// worst-case response time (`None` = proven to miss its deadline).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    task: Task,
    response: Option<Time>,
}

/// Tasks on a core up to which a frontier scan keeps its demand steps on
/// the stack.
const INLINE_STEPS: usize = 32;

/// Canonical cache order: highest priority first, ties broken by task id so
/// the order is total (ids are unique within a core).
fn sort_key(task: &Task) -> (u32, TaskId) {
    (rta::effective_priority(task).level(), task.id())
}

/// The interference each entry contributes to a lower-or-equal level:
/// `(C, T)` — all that the recurrence reads from an interferer.
fn interference_term(task: &Task, r: Time) -> Time {
    task.wcet() * r.div_ceil(task.period())
}

/// Memoized exact RTA for one core. See the module docs of `cached.rs`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CachedCoreAnalysis {
    /// Sorted by [`sort_key`]; every `response` is converged (the cache has
    /// no stale state between method calls).
    entries: Vec<Entry>,
    /// Set by the fault-injection hook
    /// [`corrupt_first_response`](Self::corrupt_first_response): at least
    /// one memoized response is known-divergent from scratch, so the
    /// debug-build convergence guard must not fire until a self-audit
    /// ([`audit`](Self::audit)) repairs or acquits the core.
    corrupted: bool,
}

impl CachedCoreAnalysis {
    /// An empty core.
    pub fn new() -> Self {
        CachedCoreAnalysis::default()
    }

    /// Builds a converged cache for an existing assignment (cold start).
    pub fn from_tasks(tasks: &[Task]) -> Self {
        let mut cache = CachedCoreAnalysis::new();
        cache.refresh(tasks);
        cache
    }

    /// Number of tasks on the core.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the core is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cached tasks in canonical (priority, id) order.
    pub fn tasks(&self) -> impl Iterator<Item = &Task> {
        self.entries.iter().map(|e| &e.task)
    }

    /// The cached response time of the task with `id`: `None` when the task
    /// is not on this core, `Some(None)` when it provably misses its
    /// deadline.
    pub fn response_of(&self, id: TaskId) -> Option<Option<Time>> {
        self.entries
            .iter()
            .find(|e| e.task.id() == id)
            .map(|e| e.response)
    }

    /// The cached slack (`deadline − response`) of the task with `id`:
    /// `None` when the task is not on this core, `Some(None)` when it
    /// provably misses its deadline (negative slack). Free to read — the
    /// cache is always converged — which is what makes slack-guided repair
    /// ranking affordable on the admission hot path.
    pub fn slack_of(&self, id: TaskId) -> Option<Option<Time>> {
        self.entries.iter().find(|e| e.task.id() == id).map(|e| {
            e.response
                .map(|response| e.task.deadline().saturating_sub(response))
        })
    }

    /// The full analysis in canonical order — bit-identical to
    /// [`rta::analyse_core`] over [`tasks`](Self::tasks).
    pub fn analysis(&self) -> CoreAnalysis {
        CoreAnalysis {
            response_times: self.entries.iter().map(|e| e.response).collect(),
            schedulable: self.is_schedulable(),
        }
    }

    /// Whether every task on the core meets its deadline.
    pub fn is_schedulable(&self) -> bool {
        self.entries.iter().all(|e| e.response.is_some())
    }

    /// Adds `task` to the core and re-converges exactly the priority levels
    /// at or below the insertion point. Levels above keep their fixed
    /// points; invalidated levels warm-start from their previous (now
    /// lower-bound) response times.
    pub fn insert(&mut self, task: Task) {
        let (pos, first_affected) = self.place_entry(task);
        self.reconverge_after_insert(pos, first_affected, None);
    }

    /// [`insert`](Self::insert) that installs `proof` — the responses an
    /// accepting [`probe_candidate_with`](Self::probe_candidate_with) of
    /// `task` converged on this exact core, candidate first — instead of
    /// re-converging the levels at or below the insertion point. The
    /// caller vouches that the probe ranked `task` by its own level (as
    /// [`accepts_prioritised`](Self::accepts_prioritised) does) and was
    /// taken on the core's current state; debug builds check the result
    /// against a from-scratch analysis.
    pub fn insert_proven(&mut self, task: Task, proof: &[Time]) {
        let (pos, first_affected) = self.place_entry(task);
        debug_assert_eq!(
            proof.len(),
            self.entries.len() - first_affected,
            "the proof does not cover the levels the insertion invalidates"
        );
        self.reconverge_after_insert(pos, first_affected, Some(proof));
        self.debug_assert_converged();
    }

    /// Removes the task with `id`, re-converging the levels at or below it.
    /// Removal shrinks interference, so previous responses are upper bounds;
    /// each invalidated entry `i` restarts from `R_h + C_i` instead, where
    /// `h` is the last entry strictly above it (see
    /// [`remove_relabelled`](Self::remove_relabelled)). Returns the removed
    /// task, or `None` when no task with `id` is on the core.
    pub fn remove(&mut self, id: TaskId) -> Option<Task> {
        let (_, removed, first_affected) = self.take_entry(id)?;
        self.reconverge_after_remove(first_affected);
        Some(removed.task)
    }

    /// Adds one entry to the core **in place** while the surviving entries
    /// take the priorities `relabel` gives them — the single-placement
    /// commit of a priority renormalization — and, given an `undo` log,
    /// appends the records that revert it (see [`RefreshUndo`]). Returns
    /// whether it applied.
    ///
    /// Only valid when the survivors keep their relative order (checked in
    /// one pass; `false`, with the cache and the log untouched, when they
    /// do not). Entries ranked strictly above the new one keep their fixed
    /// points and only have their numeric levels rewritten; nothing is
    /// re-sorted, cloned or allocated beyond the log's own growth. The new
    /// entry and those at or below its level take their responses from
    /// `proof` — the responses an accepting
    /// [`probe_candidate_with`](Self::probe_candidate_with) converged on this
    /// exact core, candidate first — or, without a proof (or one of the
    /// wrong length), re-converge warm as [`insert`](Self::insert) does.
    /// The caller vouches that the proof was taken on this core's current
    /// state.
    pub fn insert_relabelled(
        &mut self,
        task: Task,
        mut relabel: impl FnMut(&Task) -> Option<Priority>,
        proof: Option<&[Time]>,
        mut undo: Option<&mut RefreshUndo>,
    ) -> bool {
        if !self.relabel_keeps_order(&mut relabel) {
            return false;
        }
        let added = task.id();
        let from = undo.as_deref_mut().map(|undo| self.record_priors(undo));
        self.relabel(&mut relabel);
        let (pos, first_affected) = self.place_entry(task);
        self.reconverge_after_insert(pos, first_affected, proof);
        if let (Some(undo), Some(from)) = (undo, from) {
            self.keep_changed(&mut undo.changed, from, Some(added));
            undo.added.push(added);
        }
        self.debug_assert_converged();
        true
    }

    /// Removes the entry with `id` **in place** while the survivors take
    /// the priorities `relabel` gives them, appending the records that
    /// revert it to `undo` as [`insert_relabelled`](Self::insert_relabelled)
    /// does. `false`, with the cache and the log untouched, when `id` is
    /// not on the core or the survivors would change their relative order.
    ///
    /// Entries strictly above the removed level keep their fixed points.
    /// Each entry `i` at or below it restarts from `R_h + C_i`, where `h` is
    /// the last entry strictly above `i` (same-level peers do not count):
    /// `hp(h) ∪ {h} ⊆ hp(i)` gives `W_i(t) ≥ W_h(t) + C_i`, so no `t` below
    /// `R_h + C_i` is a fixed point, and a start below the least fixed
    /// point converges to it exactly. Without such an `h` (or when `h`
    /// misses its deadline) the entry starts cold.
    pub fn remove_relabelled(
        &mut self,
        id: TaskId,
        mut relabel: impl FnMut(&Task) -> Option<Priority>,
        mut undo: Option<&mut RefreshUndo>,
    ) -> bool {
        let Some((pos, removed, first_affected)) = self.take_entry(id) else {
            return false;
        };
        if !self.relabel_keeps_order(&mut relabel) {
            self.entries.insert(pos, removed);
            return false;
        }
        let from = undo.as_deref_mut().map(|undo| self.record_priors(undo));
        self.relabel(&mut relabel);
        self.reconverge_after_remove(first_affected);
        if let (Some(undo), Some(from)) = (undo, from) {
            self.keep_changed(&mut undo.changed, from, None);
            undo.removed.push((removed.task, removed.response));
        }
        self.debug_assert_converged();
        true
    }

    /// Resynchronizes the cache to an arbitrary new assignment (the
    /// [`Partition`](../spms_core) calls this after a priority
    /// renormalization). A per-task diff decides how much survives:
    ///
    /// * same `(C, D)` and identical interferer multiset → the old fixed
    ///   point is **reused** outright (renormalization shifts numeric
    ///   levels but preserves relative order, so this is the common case
    ///   for every level above a mutation);
    /// * same `(C, D)` and the old interferer multiset is a subset of the
    ///   new one → the old response is a valid **warm start**;
    /// * anything else → cold recompute.
    pub fn refresh(&mut self, tasks: &[Task]) {
        let _ = self.refresh_general(tasks);
        self.debug_assert_converged();
    }

    /// [`refresh`](Self::refresh) that also appends to `undo` the records
    /// restoring the pre-refresh state bit-identically via
    /// [`apply_refresh_undo`](Self::apply_refresh_undo).
    ///
    /// The records hold only the *differences* — entries the refresh
    /// dropped, ids it added, and `(priority, response)` pairs of surviving
    /// entries it changed — so a renormalization that shifts nothing (the
    /// common steady-state case) records nothing, and one that shifts `k`
    /// levels records `O(k)`, never a clone of the whole core. The diff is
    /// computed against the old entry vector the refresh already detaches
    /// internally, so building it performs no extra clones either.
    pub fn refresh_with_undo(&mut self, tasks: &[Task], undo: &mut RefreshUndo) {
        let old = self.refresh_general(tasks);
        undo.record_diff(old, &self.entries);
        self.debug_assert_converged();
    }

    /// Restores the state the records `undo` holds after `mark` destroyed,
    /// and drops those records from the log. Must be applied against the
    /// exact state those records left (journal rewinds guarantee this by
    /// undoing in LIFO order).
    pub fn apply_refresh_undo(&mut self, undo: &mut RefreshUndo, mark: RefreshMark) {
        let added = &undo.added[mark.added..];
        if !added.is_empty() {
            self.entries.retain(|e| !added.contains(&e.task.id()));
        }
        undo.added.truncate(mark.added);
        for delta in undo.changed.drain(mark.changed..) {
            let entry = self
                .entries
                .iter_mut()
                .find(|e| e.task.id() == delta.id)
                .expect("refresh undo names a task no longer on the core");
            delta.restore_priority(&mut entry.task);
            entry.response = delta.response;
        }
        for (task, response) in undo.removed.drain(mark.removed..) {
            self.entries.push(Entry { task, response });
        }
        self.entries.sort_unstable_by_key(|e| sort_key(&e.task));
        self.debug_assert_converged();
    }

    /// Fault-injection hook: nudges the first strictly-positive memoized
    /// response time *down* by one nanosecond and marks the core corrupted,
    /// so a later [`audit`](Self::audit) provably detects the divergence.
    ///
    /// The downward direction is deliberate. Memoized responses double as
    /// warm starts for the monotone RTA recurrence, and a warm start *below*
    /// the least fixed point still converges to the true fixed point — so a
    /// corrupted-but-unaudited core can mis-rank repair victims (slack looks
    /// one nanosecond larger) but can never admit an unschedulable task.
    /// Returns `false` (and flips nothing) when no entry has a positive
    /// converged response.
    pub fn corrupt_first_response(&mut self) -> bool {
        let Some(entry) = self
            .entries
            .iter_mut()
            .find(|e| e.response.is_some_and(|r| r > Time::ZERO))
        else {
            return false;
        };
        let flipped = entry
            .response
            .expect("filtered on is_some above")
            .saturating_sub(Time::from_nanos(1));
        entry.response = Some(flipped);
        self.corrupted = true;
        true
    }

    /// Self-audit: re-derives the core's analysis from scratch and compares
    /// it against the memo. Returns `true` when the memo is bit-identical
    /// (the corruption mark, if any, is cleared — the core is acquitted);
    /// on a mismatch the whole memo is quarantined and rebuilt from scratch
    /// and `false` is returned.
    pub fn audit(&mut self) -> bool {
        let tasks: Vec<Task> = self.tasks().cloned().collect();
        if self.analysis() == rta::analyse_core(&tasks) {
            self.corrupted = false;
            true
        } else {
            *self = CachedCoreAnalysis::from_tasks(&tasks);
            false
        }
    }

    /// Debug-build guard: after any refresh the cache must be bit-identical
    /// to a from-scratch analysis (the property tests run in debug mode, so
    /// an unsound reuse or warm start fails loudly there). Suspended while
    /// an injected corruption is pending its audit — the divergence is the
    /// point of the fault, not an incremental-maintenance bug.
    fn debug_assert_converged(&self) {
        #[cfg(debug_assertions)]
        {
            if self.corrupted {
                return;
            }
            let tasks: Vec<Task> = self.tasks().cloned().collect();
            debug_assert_eq!(
                self.analysis(),
                rta::analyse_core(&tasks),
                "cached analysis diverged from scratch"
            );
        }
    }

    /// The general diff-based resynchronization behind
    /// [`refresh`](Self::refresh); returns the detached pre-refresh entries
    /// so [`refresh_with_undo`](Self::refresh_with_undo) can diff them.
    fn refresh_general(&mut self, tasks: &[Task]) -> Vec<Entry> {
        let old = std::mem::take(&mut self.entries);
        self.entries = tasks
            .iter()
            .map(|task| Entry {
                task: task.clone(),
                response: None,
            })
            .collect();
        self.entries.sort_by_key(|e| sort_key(&e.task));

        let old_tasks: Vec<&Task> = old.iter().map(|e| &e.task).collect();
        let new_tasks: Vec<&Task> = self.entries.iter().map(|e| &e.task).collect();
        let plans: Vec<Option<ReusePlan>> = self
            .entries
            .iter()
            .map(|entry| {
                let prev = old.iter().find(|e| e.task.id() == entry.task.id())?;
                diff_entry(prev, &entry.task, &old_tasks, &new_tasks)
            })
            .collect();
        for (i, plan) in plans.into_iter().enumerate() {
            let response = match plan {
                Some(ReusePlan::Reuse(response)) => response,
                Some(ReusePlan::WarmStart(warm)) => self.compute(i, Some(warm)),
                None => self.compute(i, None),
            };
            self.entries[i].response = response;
        }
        old
    }

    /// Non-mutating what-if probe: would the core stay schedulable with
    /// `candidate` added?
    ///
    /// The caller describes where the candidate would rank: `outranked(t)`
    /// must hold exactly for the entries the candidate would sit strictly
    /// above, and `peer(t)` exactly for entries that would share its level
    /// (mutual interference); the two must be disjoint, and must be
    /// consistent with the priorities the commit path will actually assign
    /// — with that, the probe's verdict is bit-identical to re-running
    /// [`rta::analyse_core`] over the committed core.
    ///
    /// Entries the candidate outranks re-converge from their cached
    /// responses (warm starts); entries above it are not re-analysed at
    /// all. Nothing is cloned or allocated.
    pub fn accepts_candidate(
        &self,
        candidate: &Task,
        outranked: impl Fn(&Task) -> bool,
        peer: impl Fn(&Task) -> bool,
    ) -> bool {
        self.probe_candidate(candidate, outranked, peer).is_none()
    }

    /// [`accepts_candidate`](Self::accepts_candidate) with **blocker
    /// localization**: `None` means the core accepts the candidate;
    /// `Some(id)` names the first task whose slack goes negative — the
    /// candidate itself when its own recurrence exceeds its deadline, or
    /// the first cached entry (in canonical priority order) that a
    /// from-scratch analysis of the committed core would prove to miss.
    /// Slack-guided repair uses the blocker to prune victims whose eviction
    /// provably cannot unblock the arrival (a victim ranked strictly below
    /// the blocker never relieves it).
    pub fn probe_candidate(
        &self,
        candidate: &Task,
        outranked: impl Fn(&Task) -> bool,
        peer: impl Fn(&Task) -> bool,
    ) -> Option<TaskId> {
        self.probe_candidate_with(candidate, outranked, peer, |_| {})
    }

    /// [`probe_candidate`](Self::probe_candidate) that hands every response
    /// it converges to `converged`: the candidate's first, then each
    /// outranked or peer entry's in canonical order. When the probe accepts,
    /// these are exactly the responses those tasks have on the committed
    /// core — the proof [`insert_relabelled`](Self::insert_relabelled)
    /// installs.
    pub fn probe_candidate_with(
        &self,
        candidate: &Task,
        outranked: impl Fn(&Task) -> bool,
        peer: impl Fn(&Task) -> bool,
        mut converged: impl FnMut(Time),
    ) -> Option<TaskId> {
        // Extra interference never repairs an already-doomed task.
        if let Some(doomed) = self.entries.iter().find(|e| e.response.is_none()) {
            return Some(doomed.task.id());
        }
        // The candidate sees everything it does not outrank (peers included).
        let Some(candidate_response) =
            rta::converge(candidate.wcet(), candidate.deadline(), None, |r| {
                self.entries
                    .iter()
                    .filter(|e| !outranked(&e.task))
                    .map(|e| interference_term(&e.task, r))
                    .sum()
            })
        else {
            return Some(candidate.id());
        };
        converged(candidate_response);
        // Entries at or below the candidate gain its interference; their
        // interference among existing entries is unchanged, so their cached
        // responses are valid warm starts.
        for (i, entry) in self.entries.iter().enumerate() {
            if !outranked(&entry.task) && !peer(&entry.task) {
                continue;
            }
            let Some(survived) = rta::converge(
                entry.task.wcet(),
                entry.task.deadline(),
                entry.response,
                |r| self.own_interference(i, r) + interference_term(candidate, r),
            ) else {
                return Some(entry.task.id());
            };
            converged(survived);
        }
        None
    }

    /// What-if probe for repair evictions: would the core accept
    /// `candidate` with every entry in `removed` evicted first? Nothing is
    /// cloned; the verdict is bit-identical to re-running
    /// [`rta::analyse_core`] over the committed (evicted + admitted) core.
    ///
    /// The `outranked` / `peer` predicates describe the candidate's rank
    /// exactly as in [`accepts_candidate`](Self::accepts_candidate) (they
    /// are only consulted for surviving entries). Entries above both the
    /// candidate and every removed entry keep their memoized responses;
    /// entries that only gain the candidate's interference re-converge from
    /// warm starts; entries at or below the lowest removed level lose some
    /// interference and re-converge cold (their cached responses are upper
    /// bounds there). Ids in `removed` that are not on this core are
    /// ignored; when none is, this is
    /// [`accepts_candidate`](Self::accepts_candidate).
    pub fn accepts_candidate_without(
        &self,
        candidate: &Task,
        removed: &[TaskId],
        outranked: impl Fn(&Task) -> bool,
        peer: impl Fn(&Task) -> bool,
    ) -> bool {
        let is_removed = |e: &Entry| removed.contains(&e.task.id());
        // Entries are in canonical order, so the first removed one holds
        // the lowest removed level.
        let Some(removed_level) = self
            .entries
            .iter()
            .find(|e| is_removed(e))
            .map(|e| sort_key(&e.task).0)
        else {
            return self.accepts_candidate(candidate, outranked, peer);
        };
        // The candidate sees every *surviving* entry it does not outrank.
        let candidate_response = rta::converge(candidate.wcet(), candidate.deadline(), None, |r| {
            self.entries
                .iter()
                .filter(|e| !is_removed(e) && !outranked(&e.task))
                .map(|e| interference_term(&e.task, r))
                .sum()
        });
        if candidate_response.is_none() {
            return false;
        }
        for (i, entry) in self.entries.iter().enumerate() {
            if is_removed(entry) {
                continue;
            }
            let gains = outranked(&entry.task) || peer(&entry.task);
            // A removed entry interfered with everything at or below its
            // level (peers included): those entries shrink and must run
            // cold — a cached response is an upper bound after a removal.
            let loses = sort_key(&entry.task).0 >= removed_level;
            let response = match (gains, loses) {
                // Unaffected: above both the candidate and every removal.
                (false, false) => entry.response,
                // Only gains the candidate: the cached response is a valid
                // warm start.
                (true, false) => rta::converge(
                    entry.task.wcet(),
                    entry.task.deadline(),
                    entry.response,
                    |r| self.interference_without(i, removed, r) + interference_term(candidate, r),
                ),
                (gains, true) => {
                    rta::converge(entry.task.wcet(), entry.task.deadline(), None, |r| {
                        let candidate_term = if gains {
                            interference_term(candidate, r)
                        } else {
                            Time::ZERO
                        };
                        self.interference_without(i, removed, r) + candidate_term
                    })
                }
            };
            if response.is_none() {
                return false;
            }
        }
        true
    }

    /// [`accepts_candidate`](Self::accepts_candidate) for a candidate whose
    /// priority is already assigned (split pieces, explicitly-prioritised
    /// whole tasks): it outranks strictly lower levels and peers with its
    /// own level.
    pub fn accepts_prioritised(&self, candidate: &Task) -> bool {
        let level = rta::effective_priority(candidate).level();
        self.accepts_candidate(
            candidate,
            |t| rta::effective_priority(t).level() > level,
            |t| rta::effective_priority(t).level() == level,
        )
    }

    /// The **exact split-budget frontier**: the largest WCET `c` in
    /// `[smallest.wcet(), cap]` for which a `C = D = c` candidate shaped
    /// like `smallest` (its id, period and priority; `c` never exceeds the
    /// period) still passes [`accepts_prioritised`](Self::accepts_prioritised),
    /// or [`Time::ZERO`] when `smallest` itself does not.
    ///
    /// One time-demand scan per core replaces a bisection over probes. A
    /// candidate whose deadline equals its WCET tolerates no interference,
    /// so any entry at or above its level rejects every `c`. An entry `i`
    /// below it stays schedulable with the candidate added iff some
    /// `t ∈ [R_i, D_i]` satisfies `W_i(t) + c·⌈t/T⌉ ≤ t`, where `W_i` is
    /// the entry's demand without the candidate and `R_i` its converged
    /// response (below `R_i`, `W_i(t) > t` already). So entry `i` admits
    /// exactly the `c ≤ max_t ⌊(t − W_i(t)) / ⌈t/T⌉⌋`, and the maximum is
    /// reached where a demand step is about to happen (a period multiple of
    /// an interferer or of the candidate) or at `D_i`. The frontier is the
    /// least of these per-entry maxima; `D_i − R_i` bounds each of them,
    /// which settles full cores without scanning at all.
    ///
    /// `None` when the scan cannot vouch for the probe: an entry whose
    /// demand could step more often than the RTA's iteration cap allows
    /// might be rejected by the capped probe at a WCET the scan admits.
    /// Callers then search with probes instead.
    pub fn max_prioritised_wcet(&self, smallest: &Task, cap: Time) -> Option<Time> {
        let cap = cap.min(smallest.period());
        let frontier = self.scan_frontier(smallest, cap)?;
        self.debug_assert_frontier(smallest, frontier, cap);
        Some(frontier)
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    /// [`max_prioritised_wcet`](Self::max_prioritised_wcet) with `cap`
    /// already clamped to the candidate's period.
    fn scan_frontier(&self, smallest: &Task, cap: Time) -> Option<Time> {
        let level = rta::effective_priority(smallest).level();
        let floor = smallest.wcet().as_nanos();
        let period = smallest.period().as_nanos();
        let interferes_with_candidate = self
            .entries
            .first()
            .is_some_and(|e| sort_key(&e.task).0 <= level);
        if interferes_with_candidate || !self.is_schedulable() {
            return Some(Time::ZERO);
        }
        let (mut frontier, min_period, max_deadline) = self.entries.iter().fold(
            (cap.as_nanos(), period, 0),
            |(bound, min_period, max_deadline), e| {
                let deadline = e.task.deadline().as_nanos();
                let response = e.response.expect("checked schedulable above").as_nanos();
                (
                    bound.min(deadline.saturating_sub(response)),
                    min_period.min(e.task.period().as_nanos()),
                    max_deadline.max(deadline),
                )
            },
        );
        if frontier < floor {
            return Some(Time::ZERO);
        }
        // Each RTA iteration crosses at least one demand step below the
        // deadline, and each of the n + 1 interferers steps at most
        // D / T_min + 1 times there.
        let step_bound =
            (max_deadline / min_period + 1).saturating_mul(self.entries.len() as u64 + 1);
        if step_bound >= rta::MAX_ITERATIONS as u64 {
            return None;
        }

        // One demand step per interferer, on the stack for cores of up to
        // `INLINE_STEPS` tasks: a scan allocates nothing there.
        let mut inline = [0; INLINE_STEPS];
        let mut heap = Vec::new();
        let steps = if self.entries.len() <= INLINE_STEPS {
            &mut inline[..]
        } else {
            heap.resize(self.entries.len(), 0);
            &mut heap[..]
        };
        for i in 0..self.entries.len() {
            frontier = self.entry_frontier(i, period, floor, frontier, steps);
            if frontier < floor {
                return Some(Time::ZERO);
            }
        }
        Some(Time::from_nanos(frontier))
    }

    /// The largest candidate WCET entry `i` tolerates (see
    /// [`max_prioritised_wcet`](Self::max_prioritised_wcet)): `bound` as
    /// soon as some point admits `bound`, and anything below `floor` once
    /// the entry cannot reach `floor`. The candidate has period `period`;
    /// `steps` is scratch space for the interferers' next demand steps, at
    /// least one slot per entry.
    fn entry_frontier(
        &self,
        i: usize,
        period: u64,
        floor: u64,
        bound: u64,
        steps: &mut [u64],
    ) -> u64 {
        let entry = &self.entries[i];
        let deadline = entry.task.deadline().as_nanos();
        // Any lower bound on the response works as the start: no point
        // below the fixed point is a witness.
        let start = entry
            .response
            .expect("checked schedulable above")
            .as_nanos();
        let level = sort_key(&entry.task).0;
        let interferers = self
            .entries
            .iter()
            .take_while(|e| sort_key(&e.task).0 <= level)
            .count();
        // The demand is recomputed rather than taken to be `start`, so a
        // response an injected fault nudged down still scans soundly.
        let mut demand = entry.task.wcet().as_nanos();
        let steps = &mut steps[..interferers];
        for (j, (step, e)) in steps.iter_mut().zip(&self.entries).enumerate() {
            if j == i {
                *step = u64::MAX;
                continue;
            }
            let (wcet, t) = (e.task.wcet().as_nanos(), e.task.period().as_nanos());
            let jobs = start.div_ceil(t);
            demand = demand.saturating_add(wcet.saturating_mul(jobs));
            *step = jobs.saturating_mul(t);
        }
        let mut jobs = start.div_ceil(period);
        let mut next_job = jobs.saturating_mul(period);
        let mut best = 0;
        loop {
            // Demand and candidate jobs are flat up to and including `t`.
            let t = steps.iter().copied().fold(next_job.min(deadline), u64::min);
            if let Some(room) = t.checked_sub(demand) {
                let fits = room / jobs;
                if fits >= bound {
                    return bound;
                }
                best = best.max(fits);
            }
            // Later points only see more demand and more candidate jobs.
            let reachable = deadline.saturating_sub(demand) / jobs;
            if t == deadline || reachable <= best || reachable < floor {
                return best;
            }
            for (step, e) in steps.iter_mut().zip(&self.entries) {
                if *step == t {
                    demand = demand.saturating_add(e.task.wcet().as_nanos());
                    *step = step.saturating_add(e.task.period().as_nanos());
                }
            }
            if next_job == t {
                jobs += 1;
                next_job = next_job.saturating_add(period);
            }
        }
    }

    /// Debug-build guard: the frontier is exactly where the probe flips
    /// from accepting to rejecting.
    fn debug_assert_frontier(&self, smallest: &Task, frontier: Time, cap: Time) {
        if cfg!(debug_assertions) {
            let probe = |wcet: Time| {
                let mut builder = Task::builder(smallest.id())
                    .wcet(wcet)
                    .period(smallest.period())
                    .deadline(wcet);
                if let Some(priority) = smallest.priority() {
                    builder = builder.priority(priority);
                }
                builder
                    .build()
                    .is_ok_and(|piece| self.accepts_prioritised(&piece))
            };
            if !frontier.is_zero() {
                debug_assert!(probe(frontier), "frontier {frontier:?} rejected");
            }
            let above = frontier.max(smallest.wcet() - Time::from_nanos(1)) + Time::from_nanos(1);
            if above <= cap {
                debug_assert!(!probe(above), "{above:?} above the frontier accepted");
            }
        }
    }

    /// Inserts `task` at its canonical position with no response yet.
    /// Returns that position and the first entry at its level — the first
    /// one the newcomer invalidates (same-level peers gain its interference
    /// too, and some sort before it by id).
    fn place_entry(&mut self, task: Task) -> (usize, usize) {
        debug_assert!(
            self.entries.iter().all(|e| e.task.id() != task.id()),
            "duplicate task id {} on one core",
            task.id()
        );
        let key = sort_key(&task);
        let pos = self.entries.partition_point(|e| sort_key(&e.task) < key);
        let first_affected = self.entries[..pos].partition_point(|e| sort_key(&e.task).0 < key.0);
        self.entries.insert(
            pos,
            Entry {
                task,
                response: None,
            },
        );
        (pos, first_affected)
    }

    /// Takes the entry with `id` out of the core. Returns its position, the
    /// entry, and the first remaining entry at or below its level (the
    /// first one that lost interference).
    fn take_entry(&mut self, id: TaskId) -> Option<(usize, Entry, usize)> {
        let pos = self.entries.iter().position(|e| e.task.id() == id)?;
        let removed = self.entries.remove(pos);
        let level = sort_key(&removed.task).0;
        let first_affected = self.entries[..pos].partition_point(|e| sort_key(&e.task).0 < level);
        Some((pos, removed, first_affected))
    }

    /// Whether rewriting every entry's priority to `relabel(task)` keeps
    /// the entries in their order.
    fn relabel_keeps_order(&self, relabel: &mut impl FnMut(&Task) -> Option<Priority>) -> bool {
        let mut previous = None;
        for entry in &self.entries {
            let mut task = entry.task.clone();
            assign_priority(&mut task, relabel(&entry.task));
            let key = sort_key(&task);
            if previous.is_some_and(|previous| previous >= key) {
                return false;
            }
            previous = Some(key);
        }
        true
    }

    /// Rewrites every entry's priority to `relabel(task)` in place.
    fn relabel(&mut self, relabel: &mut impl FnMut(&Task) -> Option<Priority>) {
        for entry in &mut self.entries {
            let priority = relabel(&entry.task);
            assign_priority(&mut entry.task, priority);
        }
    }

    /// Appends every entry's current `(priority, response)` to `undo`, in
    /// order, and returns where they start.
    fn record_priors(&self, undo: &mut RefreshUndo) -> usize {
        let from = undo.changed.len();
        undo.changed.extend(self.entries.iter().map(EntryDelta::of));
        from
    }

    /// Keeps, of the deltas from `from` on (one per entry that was on the
    /// core before the mutation, in order), those whose entry's priority
    /// or response has changed since; `added` names an entry the mutation
    /// inserted.
    fn keep_changed(&self, changed: &mut Vec<EntryDelta>, from: usize, added: Option<TaskId>) {
        let mut survivors = self.entries.iter().filter(|e| Some(e.task.id()) != added);
        let mut kept = from;
        for i in from..changed.len() {
            let delta = changed[i];
            let now = survivors.next().expect("one survivor per prior entry");
            debug_assert_eq!(now.task.id(), delta.id);
            if now.task.priority() != delta.priority || now.response != delta.response {
                changed[kept] = delta;
                kept += 1;
            }
        }
        changed.truncate(kept);
    }

    /// Re-converges after an insertion at `pos`: the new entry and every
    /// entry from `first_affected` on, from `proof` when it covers exactly
    /// those entries (the new one first), otherwise the new entry cold and
    /// the rest warm from their previous responses, which the added
    /// interference turned into lower bounds. A core with an injected
    /// corruption pending also re-converges the entries above, warm, so the
    /// fault heals where a full warm refresh would heal it.
    fn reconverge_after_insert(
        &mut self,
        pos: usize,
        first_affected: usize,
        proof: Option<&[Time]>,
    ) {
        let proof = proof.filter(|proof| proof.len() == self.entries.len() - first_affected);
        let mut proven = proof.into_iter().flatten().copied();
        if self.corrupted {
            for i in 0..first_affected {
                self.entries[i].response = self.compute(i, self.entries[i].response);
            }
        }
        self.entries[pos].response = proven.next().or_else(|| self.compute(pos, None));
        for i in (first_affected..self.entries.len()).filter(|i| *i != pos) {
            let response = match proven.next() {
                Some(response) => Some(response),
                None => self.compute(i, self.entries[i].response),
            };
            self.entries[i].response = response;
        }
    }

    /// Re-converges every entry from `first_affected` on after a removal,
    /// each from the lower bound `R_h + C_i` (see
    /// [`remove_relabelled`](Self::remove_relabelled)).
    fn reconverge_after_remove(&mut self, first_affected: usize) {
        for i in first_affected..self.entries.len() {
            let level = sort_key(&self.entries[i].task).0;
            let start = self.entries[..i]
                .iter()
                .rposition(|e| sort_key(&e.task).0 < level)
                .and_then(|h| self.entries[h].response)
                .map(|response| response + self.entries[i].task.wcet());
            self.entries[i].response = self.compute(i, start);
        }
    }

    /// The converged response time of entry `i` under the current
    /// assignment, optionally warm-started.
    fn compute(&self, i: usize, warm_start: Option<Time>) -> Option<Time> {
        let task = &self.entries[i].task;
        rta::converge(task.wcet(), task.deadline(), warm_start, |r| {
            self.own_interference(i, r)
        })
    }

    /// Interference entry `i` suffers from the other entries at
    /// higher-or-equal priority, at recurrence value `r`. The entries are
    /// sorted, so the interferers form the prefix up to the end of `i`'s
    /// equal-level group.
    fn own_interference(&self, i: usize, r: Time) -> Time {
        let level = sort_key(&self.entries[i].task).0;
        self.entries
            .iter()
            .take_while(|e| sort_key(&e.task).0 <= level)
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, e)| interference_term(&e.task, r))
            .sum()
    }

    /// [`own_interference`](Self::own_interference) with the entries in
    /// `removed` evicted from the core.
    fn interference_without(&self, i: usize, removed: &[TaskId], r: Time) -> Time {
        let level = sort_key(&self.entries[i].task).0;
        self.entries
            .iter()
            .enumerate()
            .take_while(|(_, e)| sort_key(&e.task).0 <= level)
            .filter(|(j, e)| *j != i && !removed.contains(&e.task.id()))
            .map(|(_, e)| interference_term(&e.task, r))
            .sum()
    }
}

/// Prior `(priority, response)` of one surviving entry a refresh changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EntryDelta {
    id: TaskId,
    priority: Option<Priority>,
    response: Option<Time>,
}

impl EntryDelta {
    /// The current `(priority, response)` of `entry`.
    fn of(entry: &Entry) -> Self {
        EntryDelta {
            id: entry.task.id(),
            priority: entry.task.priority(),
            response: entry.response,
        }
    }

    /// Puts the recorded priority back on `task`.
    fn restore_priority(&self, task: &mut Task) {
        assign_priority(task, self.priority);
    }
}

/// Sets `task`'s priority, or clears it for `None`.
fn assign_priority(task: &mut Task, priority: Option<Priority>) {
    match priority {
        Some(priority) => task.set_priority(priority),
        None => task.clear_priority(),
    }
}

/// A LIFO log of cache-refresh undo records, appended by
/// [`CachedCoreAnalysis::insert_relabelled`],
/// [`CachedCoreAnalysis::remove_relabelled`] and
/// [`CachedCoreAnalysis::refresh_with_undo`] and unwound by
/// [`CachedCoreAnalysis::apply_refresh_undo`] back to a [`mark`](Self::mark).
/// Each refresh records only what it actually changed —
/// `O(changed levels)`, never a clone of the whole core — and the log
/// keeps its capacity when unwound, so a journal that owns one records and
/// rewinds without allocating once it has grown to its working size.
#[derive(Debug, Default)]
pub struct RefreshUndo {
    /// Entries a refresh dropped (or re-shaped beyond a priority shift):
    /// full prior copies, reinserted on undo.
    removed: Vec<(Task, Option<Time>)>,
    /// Ids a refresh added (or re-shaped): their entries are dropped on
    /// undo before the `removed` copies come back.
    added: Vec<TaskId>,
    /// Surviving entries whose priority or response shifted: prior values,
    /// patched back in place on undo.
    changed: Vec<EntryDelta>,
}

/// A position in a [`RefreshUndo`] log: everything recorded after it is
/// undone together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefreshMark {
    removed: usize,
    added: usize,
    changed: usize,
}

impl RefreshUndo {
    /// The current end of the log.
    pub fn mark(&self) -> RefreshMark {
        RefreshMark {
            removed: self.removed.len(),
            added: self.added.len(),
            changed: self.changed.len(),
        }
    }

    /// Number of per-entry records in the log (test/bench support: a no-op
    /// renormalization must record zero).
    pub fn len(&self) -> usize {
        self.removed.len() + self.added.len() + self.changed.len()
    }

    /// Whether the log holds no record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every record, keeping the capacity.
    pub fn clear(&mut self) {
        self.removed.clear();
        self.added.clear();
        self.changed.clear();
    }

    /// Records the diff of the detached pre-refresh entries against the
    /// refreshed state. `old` is consumed, so dropped entries move into the
    /// log without a clone. A same-id entry whose task parameters changed
    /// shape (WCET, period or deadline — possible through the general
    /// refresh after a split re-carve) is recorded as removed-plus-added.
    fn record_diff(&mut self, old: Vec<Entry>, new: &[Entry]) {
        let same_shape = |a: &Task, b: &Task| {
            a.wcet() == b.wcet() && a.period() == b.period() && a.deadline() == b.deadline()
        };
        self.added.extend(
            new.iter()
                .filter(|e| {
                    !old.iter()
                        .any(|p| p.task.id() == e.task.id() && same_shape(&p.task, &e.task))
                })
                .map(|e| e.task.id()),
        );
        for prev in old {
            match new
                .iter()
                .find(|e| e.task.id() == prev.task.id() && same_shape(&prev.task, &e.task))
            {
                Some(now) => {
                    if prev.task.priority() != now.task.priority() || prev.response != now.response
                    {
                        self.changed.push(EntryDelta::of(&prev));
                    }
                }
                None => self.removed.push((prev.task, prev.response)),
            }
        }
    }
}

/// How a previously converged response carries over through
/// [`CachedCoreAnalysis::refresh`].
enum ReusePlan {
    /// Identical interference: the old response (including a proven miss)
    /// is the new response.
    Reuse(Option<Time>),
    /// Interference grew: the old response is a lower bound.
    WarmStart(Time),
}

/// Classifies how much of `prev`'s converged response survives for the same
/// task placed among `new_tasks`.
fn diff_entry(
    prev: &Entry,
    task: &Task,
    old_tasks: &[&Task],
    new_tasks: &[&Task],
) -> Option<ReusePlan> {
    if prev.task.wcet() != task.wcet() || prev.task.deadline() != task.deadline() {
        return None;
    }
    let old_profile = interferer_profile(old_tasks, &prev.task);
    let new_profile = interferer_profile(new_tasks, task);
    if old_profile == new_profile {
        Some(ReusePlan::Reuse(prev.response))
    } else if is_sub_multiset(&old_profile, &new_profile) {
        prev.response.map(ReusePlan::WarmStart)
    } else {
        None
    }
}

/// The `(C, T)` multiset of `task`'s interferers within `tasks` (every other
/// task at higher-or-equal effective priority), sorted for comparison.
fn interferer_profile(tasks: &[&Task], task: &Task) -> Vec<(Time, Time)> {
    let level = rta::effective_priority(task).level();
    let mut profile: Vec<(Time, Time)> = tasks
        .iter()
        .filter(|t| t.id() != task.id() && rta::effective_priority(t).level() <= level)
        .map(|t| (t.wcet(), t.period()))
        .collect();
    profile.sort_unstable();
    profile
}

/// Whether sorted multiset `a` is contained in sorted multiset `b`.
fn is_sub_multiset(a: &[(Time, Time)], b: &[(Time, Time)]) -> bool {
    let mut bi = 0;
    for item in a {
        loop {
            if bi >= b.len() {
                return false;
            }
            if &b[bi] == item {
                bi += 1;
                break;
            }
            if b[bi] > *item {
                return false;
            }
            bi += 1;
        }
    }
    true
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

    fn assert_matches_scratch(cache: &CachedCoreAnalysis) {
        let tasks: Vec<Task> = cache.tasks().cloned().collect();
        assert_eq!(cache.analysis(), rta::analyse_core(&tasks));
    }

    #[test]
    fn corrupt_then_audit_detects_and_rebuilds() {
        let mut cache = CachedCoreAnalysis::from_tasks(&[task(0, 1, 4, 2), task(1, 2, 10, 3)]);
        assert!(!cache.corrupted);
        assert!(cache.corrupt_first_response());
        assert!(cache.corrupted);
        // The audit notices the flipped memo, quarantines it, and rebuilds
        // from scratch.
        assert!(!cache.audit());
        assert!(!cache.corrupted);
        assert_matches_scratch(&cache);
        // A second audit on the repaired cache acquits it.
        assert!(cache.audit());
    }

    #[test]
    fn corrupt_first_response_needs_a_positive_converged_response() {
        let mut empty = CachedCoreAnalysis::new();
        assert!(!empty.corrupt_first_response());
        assert!(!empty.corrupted);
    }

    #[test]
    fn empty_cache_is_schedulable() {
        let cache = CachedCoreAnalysis::new();
        assert!(cache.is_schedulable());
        assert!(cache.is_empty());
        assert_matches_scratch(&cache);
    }

    #[test]
    fn insert_orders_by_priority_then_id() {
        let mut cache = CachedCoreAnalysis::new();
        cache.insert(task(2, 1, 10, 4));
        cache.insert(task(0, 1, 10, 2));
        cache.insert(task(1, 1, 10, 4));
        let ids: Vec<u32> = cache.tasks().map(|t| t.id().0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_matches_scratch(&cache);
    }

    #[test]
    fn insert_only_recomputes_at_or_below_and_matches_scratch() {
        let mut cache = CachedCoreAnalysis::new();
        cache.insert(task(0, 1, 4, 2));
        cache.insert(task(1, 2, 10, 3));
        let high_before = cache.response_of(TaskId(0)).unwrap();
        cache.insert(task(2, 3, 20, 4));
        // The top level is untouched; the new bottom level converged.
        assert_eq!(cache.response_of(TaskId(0)).unwrap(), high_before);
        assert_eq!(
            cache.response_of(TaskId(2)).unwrap(),
            Some(Time::from_micros(7))
        );
        assert_matches_scratch(&cache);
    }

    #[test]
    fn remove_restores_pre_insertion_state() {
        let mut cache = CachedCoreAnalysis::new();
        cache.insert(task(0, 1, 4, 2));
        cache.insert(task(1, 2, 10, 3));
        let before = cache.clone();
        cache.insert(task(2, 5, 20, 1));
        assert_ne!(cache, before);
        assert_eq!(cache.remove(TaskId(2)).map(|t| t.id()), Some(TaskId(2)));
        assert_eq!(cache, before);
        assert!(cache.remove(TaskId(9)).is_none());
    }

    #[test]
    fn unschedulable_insertions_are_detected_and_recover_on_removal() {
        let mut cache = CachedCoreAnalysis::new();
        cache.insert(task(0, 6, 10, 2));
        assert!(cache.is_schedulable());
        cache.insert(task(1, 6, 10, 3));
        assert!(!cache.is_schedulable());
        assert_eq!(cache.response_of(TaskId(1)).unwrap(), None);
        assert_matches_scratch(&cache);
        cache.remove(TaskId(0));
        assert!(cache.is_schedulable());
        assert_matches_scratch(&cache);
    }

    #[test]
    fn refresh_reuses_fixed_points_across_level_shifts() {
        // Renormalization shifts numeric levels without reordering: every
        // response must carry over bit-identically.
        let initial = [task(0, 1, 4, 2), task(1, 2, 10, 3), task(2, 3, 20, 4)];
        let mut cache = CachedCoreAnalysis::from_tasks(&initial);
        let before: Vec<_> = (0..3)
            .map(|i| cache.response_of(TaskId(i)).unwrap())
            .collect();
        let shifted = [task(0, 1, 4, 5), task(1, 2, 10, 6), task(2, 3, 20, 7)];
        cache.refresh(&shifted);
        let after: Vec<_> = (0..3)
            .map(|i| cache.response_of(TaskId(i)).unwrap())
            .collect();
        assert_eq!(before, after);
        assert_matches_scratch(&cache);
    }

    #[test]
    fn refresh_undo_is_empty_for_noop_and_restores_bit_identically() {
        // A refresh that changes nothing (same tasks, same levels) must
        // record an empty undo — the journal's steady-state cost.
        let initial = [task(0, 1, 4, 2), task(1, 2, 10, 3), task(2, 3, 20, 4)];
        let mut cache = CachedCoreAnalysis::from_tasks(&initial);
        let mut undo = RefreshUndo::default();
        cache.refresh_with_undo(&initial, &mut undo);
        assert!(
            undo.is_empty(),
            "no-op refresh recorded {} deltas",
            undo.len()
        );

        // An insertion-plus-shift refresh records only what changed, and
        // applying the undo restores the prior state bit-identically.
        let before = cache.clone();
        let grown = [
            task(0, 1, 4, 2),
            task(3, 1, 6, 3),
            task(1, 2, 10, 4),
            task(2, 3, 20, 5),
        ];
        cache.refresh_with_undo(&grown, &mut undo);
        assert!(!undo.is_empty());
        assert!(undo.len() <= grown.len(), "undo must stay per-entry");
        assert_matches_scratch(&cache);
        cache.apply_refresh_undo(&mut undo, RefreshMark::default());
        assert_eq!(cache, before);
        assert!(undo.is_empty(), "an applied record leaves the log");

        // Same round trip through a removal, stacked on the insertion: each
        // unwinds to its own mark, last first.
        let mid = undo.mark();
        cache.refresh_with_undo(&grown, &mut undo);
        let grown_state = cache.clone();
        let shrunk = [task(0, 1, 4, 2), task(2, 3, 20, 3)];
        let top = undo.mark();
        cache.refresh_with_undo(&shrunk, &mut undo);
        assert_ne!(undo.mark(), top);
        assert_matches_scratch(&cache);
        cache.apply_refresh_undo(&mut undo, top);
        assert_eq!(cache, grown_state);
        cache.apply_refresh_undo(&mut undo, mid);
        assert_eq!(cache, before);
    }

    /// The dense re-ranking a renormalization gives `ids`, in order, from
    /// level 2.
    fn dense(ids: &'static [u32]) -> impl Fn(&Task) -> Option<Priority> {
        move |t| {
            let rank = ids.iter().position(|id| *id == t.id().0).expect("ranked");
            Some(Priority::new(2 + rank as u32))
        }
    }

    #[test]
    fn in_place_insert_installs_the_probe_proof_and_round_trips() {
        let initial = [task(0, 1, 4, 2), task(1, 2, 10, 3), task(2, 3, 20, 4)];
        let mut cache = CachedCoreAnalysis::from_tasks(&initial);
        let before = cache.clone();
        // The candidate slots in below τ0: it outranks τ1 and τ2.
        let candidate = task(3, 1, 6, 3);
        let mut proof = Vec::new();
        let blocker =
            cache.probe_candidate_with(&candidate, |t| t.id().0 >= 1, |_| false, |r| proof.push(r));
        assert_eq!(blocker, None);
        assert_eq!(proof.len(), 3, "the candidate plus the two it outranks");
        let mut undo = RefreshUndo::default();
        assert!(cache.insert_relabelled(
            candidate.clone(),
            dense(&[0, 3, 1, 2]),
            Some(&proof),
            Some(&mut undo)
        ));
        assert_matches_scratch(&cache);
        assert_eq!(cache.response_of(TaskId(0)), before.response_of(TaskId(0)));
        // τ1 and τ2 shifted a level and gained interference; τ0 did not.
        assert_eq!(undo.len(), 3);
        cache.apply_refresh_undo(&mut undo, RefreshMark::default());
        assert_eq!(cache, before);

        // Without a proof, or with one of the wrong length, the same state
        // is re-derived warm.
        let mut proven = before.clone();
        proven.insert_relabelled(
            candidate.clone(),
            dense(&[0, 3, 1, 2]),
            Some(&proof),
            Some(&mut undo),
        );
        for bad_proof in [None, Some(&proof[..2])] {
            let mut derived = before.clone();
            derived.insert_relabelled(
                candidate.clone(),
                dense(&[0, 3, 1, 2]),
                bad_proof,
                Some(&mut undo),
            );
            assert_eq!(derived, proven);
        }
        // Unrecorded, the same state comes with no undo record.
        let mut unrecorded = before.clone();
        assert!(unrecorded.insert_relabelled(
            candidate.clone(),
            dense(&[0, 3, 1, 2]),
            Some(&proof),
            None
        ));
        assert_eq!(unrecorded, proven);
    }

    #[test]
    fn in_place_remove_restarts_from_the_lower_bound_and_round_trips() {
        let initial = [
            task(0, 1, 4, 2),
            task(1, 2, 10, 3),
            task(2, 3, 20, 4),
            task(3, 1, 40, 5),
        ];
        let mut cache = CachedCoreAnalysis::from_tasks(&initial);
        let before = cache.clone();
        let mut unrecorded = cache.clone();
        let mut undo = RefreshUndo::default();
        assert!(cache.remove_relabelled(TaskId(1), dense(&[0, 2, 3]), Some(&mut undo)));
        assert!(unrecorded.remove_relabelled(TaskId(1), dense(&[0, 2, 3]), None));
        assert_eq!(unrecorded, cache);
        assert_matches_scratch(&cache);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.response_of(TaskId(0)), before.response_of(TaskId(0)));
        cache.apply_refresh_undo(&mut undo, RefreshMark::default());
        assert_eq!(cache, before);
        assert!(!cache.remove_relabelled(TaskId(9), dense(&[0, 1, 2, 3]), Some(&mut undo)));
        assert_eq!(cache, before);
        assert!(undo.is_empty());
    }

    #[test]
    fn in_place_operations_refuse_a_reordering_relabel() {
        let initial = [task(0, 1, 4, 2), task(1, 2, 10, 3), task(2, 3, 20, 4)];
        let mut cache = CachedCoreAnalysis::from_tasks(&initial);
        let before = cache.clone();
        // τ2 would jump above τ1: the caller must run the general refresh.
        let mut undo = RefreshUndo::default();
        for record in [true, false] {
            assert!(!cache.insert_relabelled(
                task(3, 1, 50, 5),
                dense(&[0, 2, 1, 3]),
                None,
                record.then_some(&mut undo)
            ));
            assert_eq!(cache, before);
            assert!(!cache.remove_relabelled(
                TaskId(0),
                dense(&[2, 1]),
                record.then_some(&mut undo)
            ));
            assert_eq!(cache, before);
        }
        assert!(undo.is_empty());
    }

    #[test]
    fn refresh_undo_round_trips_a_parameter_reshape() {
        // The general refresh can see a same-id task change shape (split
        // re-carves); the undo must restore the old shape outright.
        let mut cache = CachedCoreAnalysis::from_tasks(&[task(0, 1, 4, 2), task(1, 2, 10, 3)]);
        let before = cache.clone();
        let reshaped = [task(0, 2, 4, 2), task(1, 2, 10, 3)];
        let mut undo = RefreshUndo::default();
        cache.refresh_with_undo(&reshaped, &mut undo);
        assert!(!undo.is_empty());
        assert_matches_scratch(&cache);
        cache.apply_refresh_undo(&mut undo, RefreshMark::default());
        assert_eq!(cache, before);
    }

    #[test]
    fn refresh_handles_parameter_changes_cold() {
        let mut cache = CachedCoreAnalysis::from_tasks(&[task(0, 1, 4, 2), task(1, 2, 10, 3)]);
        cache.refresh(&[task(0, 2, 4, 2), task(1, 2, 10, 3)]);
        assert_matches_scratch(&cache);
        // R = 2 + ⌈R/4⌉·2 → fixed point at 4.
        assert_eq!(
            cache.response_of(TaskId(1)).unwrap(),
            Some(Time::from_micros(4))
        );
    }

    #[test]
    fn prioritised_probe_matches_scratch() {
        let cache = CachedCoreAnalysis::from_tasks(&[task(0, 1, 4, 2), task(1, 2, 10, 3)]);
        let fits = task(2, 3, 20, 4);
        let too_big = task(3, 12, 20, 4);
        for candidate in [&fits, &too_big] {
            let mut combined: Vec<Task> = cache.tasks().cloned().collect();
            combined.push(candidate.clone());
            assert_eq!(
                cache.accepts_prioritised(candidate),
                rta::is_core_schedulable(&combined),
                "probe diverged from scratch for task {}",
                candidate.id()
            );
        }
        // Probes never mutate.
        let snapshot = cache.clone();
        let _ = cache.accepts_prioritised(&fits);
        assert_eq!(cache, snapshot);
    }

    #[test]
    fn probe_counts_peer_interference() {
        // Regression tied to the priority-tie fix: a 60% peer at the same
        // level must reject a second 60% candidate.
        let cache = CachedCoreAnalysis::from_tasks(&[task(0, 6, 10, 5)]);
        assert!(!cache.accepts_prioritised(&task(1, 6, 10, 5)));
        assert!(cache.accepts_prioritised(&task(1, 3, 10, 5)));
    }

    #[test]
    fn probe_on_unschedulable_core_rejects() {
        let cache = CachedCoreAnalysis::from_tasks(&[task(0, 6, 10, 2), task(1, 6, 10, 3)]);
        assert!(!cache.is_schedulable());
        assert!(!cache.accepts_prioritised(&task(2, 1, 1000, 9)));
    }

    #[test]
    fn slack_accessors_match_response_times() {
        let cache = CachedCoreAnalysis::from_tasks(&[task(0, 1, 4, 2), task(1, 2, 10, 3)]);
        // R0 = 1 → slack 3; R1 = 3 → slack 7.
        assert_eq!(cache.slack_of(TaskId(0)), Some(Some(Time::from_micros(3))));
        assert_eq!(cache.slack_of(TaskId(1)), Some(Some(Time::from_micros(7))));
        assert_eq!(cache.slack_of(TaskId(9)), None);
        let doomed = CachedCoreAnalysis::from_tasks(&[task(0, 6, 10, 2), task(1, 6, 10, 3)]);
        assert_eq!(doomed.slack_of(TaskId(1)), Some(None));
    }

    #[test]
    fn probe_candidate_localizes_the_blocker() {
        let cache = CachedCoreAnalysis::from_tasks(&[task(0, 1, 4, 2), task(1, 2, 10, 3)]);
        // Accepted: no blocker.
        assert_eq!(
            cache.probe_candidate(&task(2, 3, 20, 4), |_| true, |_| false),
            None
        );
        // A candidate whose own recurrence exceeds its constrained deadline
        // blocks on itself (it absorbs the entries' interference).
        let constrained = Task::builder(3)
            .wcet(Time::from_micros(9))
            .period(Time::from_micros(40))
            .deadline(Time::from_micros(12))
            .priority(Priority::new(4))
            .build()
            .unwrap();
        assert_eq!(
            cache.probe_candidate(&constrained, |_| false, |_| false),
            Some(TaskId(3))
        );
        // A candidate that outranks everything converges itself but pushes
        // an entry over its deadline: that entry is the blocker (τ0 still
        // fits exactly at R = D = 4; τ1 diverges past 10).
        assert_eq!(
            cache.probe_candidate(&task(4, 3, 4, 0), |_| true, |_| false),
            Some(TaskId(1))
        );
    }

    #[test]
    fn eviction_probe_matches_scratch() {
        // Three tasks; probing "remove a set, add candidate" must agree
        // with a from-scratch analysis of the modified core for every
        // victim and every victim pair.
        let tasks = [task(0, 1, 4, 2), task(1, 3, 10, 3), task(2, 4, 20, 4)];
        let cache = CachedCoreAnalysis::from_tasks(&tasks);
        let sets: Vec<Vec<TaskId>> = (0..3)
            .map(|a| vec![TaskId(a)])
            .chain([(0, 1), (0, 2), (1, 2)].map(|(a, b)| vec![TaskId(a), TaskId(b)]))
            .collect();
        for candidate in [task(7, 5, 20, 5), task(8, 11, 20, 5), task(9, 2, 8, 1)] {
            let level = rta::effective_priority(&candidate).level();
            for removed in &sets {
                let mut modified: Vec<Task> = tasks
                    .iter()
                    .filter(|t| !removed.contains(&t.id()))
                    .cloned()
                    .collect();
                modified.push(candidate.clone());
                assert_eq!(
                    cache.accepts_candidate_without(
                        &candidate,
                        removed,
                        |t| rta::effective_priority(t).level() > level,
                        |t| rta::effective_priority(t).level() == level,
                    ),
                    rta::is_core_schedulable(&modified),
                    "eviction probe diverged for candidate {} removing {removed:?}",
                    candidate.id(),
                );
            }
        }
        // Unknown victims fall back to the plain probe.
        assert_eq!(
            cache.accepts_candidate_without(&task(7, 5, 20, 5), &[TaskId(42)], |_| true, |_| false),
            cache.accepts_candidate(&task(7, 5, 20, 5), |_| true, |_| false)
        );
    }

    fn piece(wcet_ns: u64, period_us: u64) -> Task {
        Task::builder(9)
            .wcet(Time::from_nanos(wcet_ns))
            .period(Time::from_micros(period_us))
            .deadline(Time::from_nanos(wcet_ns))
            .priority(Priority::new(0))
            .build()
            .unwrap()
    }

    #[test]
    fn frontier_matches_probes_across_growing_budgets() {
        // τ0 (2/10) absorbs a C = D = c piece of period 20 iff 2 + c ≤ 10;
        // τ1 (3/20, R = 5) still has 13 µs of room at t = 20. The frontier
        // is τ0's 8 µs, to the nanosecond.
        let cache = CachedCoreAnalysis::from_tasks(&[task(0, 2, 10, 2), task(1, 3, 20, 3)]);
        let template = piece(1, 20);
        let frontier = cache
            .max_prioritised_wcet(&template, Time::from_micros(20))
            .unwrap();
        assert_eq!(frontier, Time::from_micros(8));
        for wcet_ns in [1, 1_000, 5_000, 7_999, 8_000, 8_001, 14_000, 20_000] {
            assert_eq!(
                cache.accepts_prioritised(&piece(wcet_ns, 20)),
                Time::from_nanos(wcet_ns) <= frontier,
                "probe and frontier disagree at {wcet_ns} ns"
            );
        }
        // A floor above the frontier finds nothing; one on it finds it.
        assert_eq!(
            cache.max_prioritised_wcet(&piece(8_001, 20), Time::from_micros(20)),
            Some(Time::ZERO)
        );
        assert_eq!(
            cache.max_prioritised_wcet(&piece(8_000, 20), Time::from_micros(20)),
            Some(frontier)
        );
        // The cap binds when the core has more room than asked for.
        assert_eq!(
            cache.max_prioritised_wcet(&template, Time::from_micros(3)),
            Some(Time::from_micros(3))
        );
        // An empty core takes a piece as long as its period.
        assert_eq!(
            CachedCoreAnalysis::new().max_prioritised_wcet(&template, Time::from_secs(1)),
            Some(Time::from_micros(20))
        );
    }

    #[test]
    fn frontier_is_zero_on_unschedulable_core() {
        let doomed = CachedCoreAnalysis::from_tasks(&[task(0, 6, 10, 2), task(1, 6, 10, 3)]);
        assert_eq!(
            doomed.max_prioritised_wcet(&piece(1, 1000), Time::from_micros(1000)),
            Some(Time::ZERO)
        );
        // A peer at the candidate's level interferes with a piece whose
        // deadline equals its WCET: nothing fits.
        let peer = CachedCoreAnalysis::from_tasks(&[task(0, 1, 100, 0)]);
        assert_eq!(
            peer.max_prioritised_wcet(&piece(1, 1000), Time::from_micros(1000)),
            Some(Time::ZERO)
        );
    }

    #[test]
    fn frontier_declines_when_the_probe_could_hit_its_iteration_cap() {
        // 1 ns of demand every 2 ns under a 1 ms deadline: far more demand
        // steps than the capped recurrence may take.
        let tiny = Task::builder(0)
            .wcet(Time::from_nanos(1))
            .period(Time::from_nanos(2))
            .priority(Priority::new(2))
            .build()
            .unwrap();
        let cache = CachedCoreAnalysis::from_tasks(&[tiny, task(1, 1, 1000, 3)]);
        assert_eq!(
            cache.max_prioritised_wcet(&piece(1, 1000), Time::from_micros(1000)),
            None
        );
    }

    #[test]
    fn sub_multiset_logic() {
        let a = Time::from_micros(1);
        let b = Time::from_micros(2);
        assert!(is_sub_multiset(&[], &[(a, b)]));
        assert!(is_sub_multiset(&[(a, b)], &[(a, b), (b, b)]));
        assert!(!is_sub_multiset(&[(a, b), (a, b)], &[(a, b)]));
        assert!(!is_sub_multiset(&[(b, b)], &[(a, b)]));
    }
}
