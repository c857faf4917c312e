//! Multi-partition planning transactions.
//!
//! A [`PlanTxn`] owns one speculative rollback scope per participating
//! [`Partition`]: the cross-shard split planner opens one scope on *each*
//! shard it speculates on. (The admission cascade's repair attempts, which
//! speculate on one partition and close every scope they open, use plain
//! journal scopes.) The transaction is
//! two-phase: every participant must accept its pieces before any scope
//! commits, and an abort rewinds the scopes in LIFO order (last partition
//! begun is restored first), so nested single-partition transactions keep
//! the plain journal semantics bit-identically.
//!
//! Every scope is a journal scope ([`Partition::journal_begin`], rewind in
//! O(moves)): each partition carries a mutation journal. A rollback point
//! *inside* an open scope (one speculative relocation within a repair
//! attempt) is just a [`JournalMark`](crate::JournalMark) from
//! [`Partition::journal_mark`], restored with [`Partition::rewind`] without
//! closing the enclosing scope.
//!
//! # Drop safety
//!
//! A transaction that is dropped without [`commit`](PlanTxn::commit) or
//! [`abort`](PlanTxn::abort) — an early `return` or a panic unwinding
//! through a planning routine — must not leave its journal scopes open:
//! the partitions would keep recording undo entries forever and a later
//! outer rewind would silently swallow the leaked speculation. `Drop`
//! cannot reach the participants (the transaction borrows them only
//! transiently), so it instead flips a per-scope abandonment token shared
//! with each partition's journal. The partition notices the flipped token
//! at its *next* journal interaction and rewinds + closes the abandoned
//! scope lazily (see [`Partition::reconcile_abandoned_scopes`]), so the
//! guarantee holds for every transaction.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::placement::{JournalMark, Partition};

/// A planning transaction over one or several partitions. See the module
/// docs of `txn.rs` for the two-phase protocol.
///
/// Scopes are indexed by begin order: [`begin`](Self::begin) on the i-th
/// partition returns scope index `i`, and [`commit`](Self::commit) /
/// [`abort`](Self::abort) take the same partitions *in the same order*.
///
/// Dropping a transaction without committing or aborting marks every
/// scope abandoned; the owning partitions rewind and close them at
/// their next journal interaction (see the module docs of `txn.rs`).
#[derive(Debug, Default)]
pub struct PlanTxn {
    /// One entry per scope, in begin order: the scope's begin mark and the
    /// abandonment token shared with the partition's journal.
    scopes: Vec<(JournalMark, Arc<AtomicBool>)>,
}

impl PlanTxn {
    /// An empty transaction with no open scopes.
    pub fn new() -> Self {
        PlanTxn::default()
    }

    /// Opens a speculative journal scope on one partition (mutations
    /// record undo entries until commit or abort) and returns its scope
    /// index.
    pub fn begin(&mut self, partition: &mut Partition) -> usize {
        let mark = partition.journal_begin();
        self.scopes.push((mark, partition.current_scope_guard()));
        self.scopes.len() - 1
    }

    /// Number of open scopes.
    pub fn len(&self) -> usize {
        self.scopes.len()
    }

    /// Whether the transaction has no open scopes.
    pub fn is_empty(&self) -> bool {
        self.scopes.is_empty()
    }

    /// Commits every scope: the speculative mutations become final.
    /// `partitions` must be the partitions passed to [`begin`](Self::begin),
    /// in begin order.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` has fewer entries than open scopes.
    pub fn commit(mut self, partitions: &mut [&mut Partition]) {
        // Resolved explicitly: Drop must not mark the scopes abandoned.
        let scopes = std::mem::take(&mut self.scopes);
        for partition in &mut partitions[..scopes.len()] {
            partition.journal_end();
        }
    }

    /// Aborts every scope in LIFO order (the last partition begun is
    /// restored first), leaving every participant bit-identical to its
    /// state at `begin` — placements, priorities and attached analysis
    /// caches. `partitions` must be the partitions passed to
    /// [`begin`](Self::begin), in begin order.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` has fewer entries than open scopes.
    pub fn abort(mut self, partitions: &mut [&mut Partition]) {
        // Resolved explicitly: Drop must not mark the scopes abandoned.
        let scopes = std::mem::take(&mut self.scopes);
        for (idx, (mark, _)) in scopes.into_iter().enumerate().rev() {
            partitions[idx].rewind(mark);
            partitions[idx].journal_end();
        }
    }
}

impl Drop for PlanTxn {
    fn drop(&mut self) {
        // Commit and abort consume the scopes, so reaching here with live
        // tokens means the transaction leaked — an early return or a panic
        // unwinding through planning code. Flip each token; the owning
        // partition rewinds and closes the scope at its next journal
        // interaction.
        for (_, guard) in self.scopes.drain(..) {
            guard.store(true, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{CoreId, PlacedTask};
    use spms_task::{Task, TaskId, Time};

    fn task(id: u32, wcet_ms: u64, period_ms: u64) -> Task {
        Task::new(id, Time::from_millis(wcet_ms), Time::from_millis(period_ms)).unwrap()
    }

    fn journaled(cores: usize) -> Partition {
        let mut p = Partition::new(cores);
        p.enable_analysis_cache();
        p
    }

    fn place_whole(p: &mut Partition, core: usize, t: Task) {
        p.place(CoreId(core), PlacedTask::whole(t));
        p.renormalize_core_priorities(CoreId(core));
    }

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
    fn abort_restores_every_participant() {
        let mut a = journaled(1);
        let mut b = journaled(1);
        place_whole(&mut a, 0, task(0, 1, 10));
        place_whole(&mut b, 0, task(1, 2, 10));
        let snap_a = a.clone();
        let snap_b = b.clone();
        let mut txn = PlanTxn::new();
        assert_eq!(txn.begin(&mut a), 0);
        assert_eq!(txn.begin(&mut b), 1);
        place_whole(&mut a, 0, task(2, 1, 10));
        place_whole(&mut b, 0, task(3, 1, 10));
        txn.abort(&mut [&mut a, &mut b]);
        assert_fully_equal(&a, &snap_a);
        assert_fully_equal(&b, &snap_b);
    }

    #[test]
    fn commit_keeps_every_participant() {
        let mut a = journaled(1);
        let mut b = journaled(1);
        let mut txn = PlanTxn::new();
        txn.begin(&mut a);
        txn.begin(&mut b);
        place_whole(&mut a, 0, task(0, 1, 10));
        place_whole(&mut b, 0, task(1, 1, 10));
        txn.commit(&mut [&mut a, &mut b]);
        assert_eq!(a.placement_count(), 1);
        assert_eq!(b.placement_count(), 1);
        // After the commit, the scopes are closed: the undo log is cleared
        // and the journal position is back at a fresh journal's origin.
        let fresh = journaled(1);
        assert_eq!(a.journal_mark(), fresh.journal_mark());
    }

    #[test]
    fn nested_savepoint_restores_inside_an_open_scope() {
        let mut a = journaled(1);
        let mut txn = PlanTxn::new();
        txn.begin(&mut a);
        place_whole(&mut a, 0, task(0, 1, 10));
        let committed = a.clone();
        let inner = a.journal_mark();
        place_whole(&mut a, 0, task(1, 2, 10));
        a.rewind(inner);
        assert_fully_equal(&a, &committed);
        // The outer scope is still open and still rewinds everything.
        txn.abort(&mut [&mut a]);
        assert_eq!(a.placement_count(), 0);
    }

    #[test]
    fn dropped_txn_auto_aborts_at_next_journal_interaction() {
        let mut a = journaled(1);
        place_whole(&mut a, 0, task(0, 1, 10));
        let snap = a.clone();
        {
            let mut txn = PlanTxn::new();
            txn.begin(&mut a);
            place_whole(&mut a, 0, task(1, 1, 10));
            // txn dropped here without commit or abort.
        }
        // The leak is reconciled lazily: the speculative placement is still
        // visible until the partition's next journal interaction.
        assert_eq!(a.reconcile_abandoned_scopes(), 1);
        assert_fully_equal(&a, &snap);
        // The scope is fully closed: a fresh scope commits cleanly.
        let mut txn = PlanTxn::new();
        txn.begin(&mut a);
        place_whole(&mut a, 0, task(2, 1, 10));
        txn.commit(&mut [&mut a]);
        assert_eq!(a.placement_count(), 2);
    }

    #[test]
    fn panic_through_open_txn_rolls_back_without_poisoning() {
        let mut a = journaled(1);
        place_whole(&mut a, 0, task(0, 1, 10));
        let snap = a.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut txn = PlanTxn::new();
            txn.begin(&mut a);
            place_whole(&mut a, 0, task(1, 1, 10));
            panic!("planning blew up mid-scope");
        }));
        assert!(result.is_err());
        // The next mutation implicitly reconciles the abandoned scope
        // first, so the panicking speculation never mixes with new work.
        place_whole(&mut a, 0, task(2, 1, 10));
        assert_eq!(a.placement_count(), 2);
        assert!(!a.placements_of(TaskId(2)).is_empty());
        assert!(a.placements_of(TaskId(1)).is_empty());
        // Rolling back to before the post-panic placement matches the
        // pre-panic snapshot exactly.
        a.remove_parent(TaskId(2));
        a.renormalize_core_priorities(CoreId(0));
        assert_fully_equal(&a, &snap);
    }
}
