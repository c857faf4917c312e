//! Scheduler-flavoured wrappers: the per-core ready queue and sleep queue.
//!
//! The paper measures four queue operations (Table 1): *ready queue add*,
//! *ready queue delete*, *sleep queue add* and *sleep queue delete*, each
//! locally and remotely. These wrappers expose precisely those operations so
//! that the overhead-measurement crate and the simulator share one
//! implementation.

use std::fmt;

use crate::{BinomialHeap, PairingHeap, RbTree};

/// Which heap implementation backs a [`ReadyQueue`].
///
/// The paper uses a binomial heap; the pairing-heap and sorted-`BTreeMap`-like
/// alternatives exist so the `queue_ops` benchmark can put the paper's
/// ready-queue costs next to other structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReadyQueueKind {
    /// Binomial heap (the paper's choice).
    #[default]
    BinomialHeap,
    /// Pairing heap.
    PairingHeap,
}

#[derive(Clone)]
enum ReadyQueueImpl<P: Ord, T: Ord> {
    Binomial(BinomialHeap<(P, T)>),
    Pairing(PairingHeap<(P, T)>),
}

/// The per-core ready queue: released-but-unfinished jobs ordered by priority.
///
/// Entries are `(priority, payload)` pairs; smaller priorities pop first, and
/// the payload (typically a monotonically increasing sequence number plus a
/// job identifier) breaks ties deterministically.
///
/// # Example
///
/// ```
/// use spms_queues::ReadyQueue;
///
/// let mut q: ReadyQueue<u32, u64> = ReadyQueue::new();
/// q.add(3, 100);
/// q.add(1, 101);
/// assert_eq!(q.peek(), Some((&1, &101)));
/// assert_eq!(q.delete_highest(), Some((1, 101)));
/// assert_eq!(q.len(), 1);
/// ```
#[derive(Clone)]
pub struct ReadyQueue<P: Ord, T: Ord> {
    inner: ReadyQueueImpl<P, T>,
}

impl<P: Ord, T: Ord> Default for ReadyQueue<P, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Ord, T: Ord> ReadyQueue<P, T> {
    /// Creates an empty ready queue backed by a binomial heap (the paper's
    /// configuration).
    pub fn new() -> Self {
        Self::with_kind(ReadyQueueKind::BinomialHeap)
    }

    /// Creates an empty ready queue backed by the given heap implementation.
    pub fn with_kind(kind: ReadyQueueKind) -> Self {
        let inner = match kind {
            ReadyQueueKind::BinomialHeap => ReadyQueueImpl::Binomial(BinomialHeap::new()),
            ReadyQueueKind::PairingHeap => ReadyQueueImpl::Pairing(PairingHeap::new()),
        };
        ReadyQueue { inner }
    }

    /// Which heap implementation backs this queue.
    pub fn kind(&self) -> ReadyQueueKind {
        match &self.inner {
            ReadyQueueImpl::Binomial(_) => ReadyQueueKind::BinomialHeap,
            ReadyQueueImpl::Pairing(_) => ReadyQueueKind::PairingHeap,
        }
    }

    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        match &self.inner {
            ReadyQueueImpl::Binomial(h) => h.len(),
            ReadyQueueImpl::Pairing(h) => h.len(),
        }
    }

    /// Whether no job is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The paper's *ready queue add* operation: inserts a job with the given
    /// priority.
    pub fn add(&mut self, priority: P, payload: T) {
        match &mut self.inner {
            ReadyQueueImpl::Binomial(h) => h.push((priority, payload)),
            ReadyQueueImpl::Pairing(h) => h.push((priority, payload)),
        }
    }

    /// The highest-priority entry without removing it.
    pub fn peek(&self) -> Option<(&P, &T)> {
        match &self.inner {
            ReadyQueueImpl::Binomial(h) => h.peek().map(|(p, t)| (p, t)),
            ReadyQueueImpl::Pairing(h) => h.peek().map(|(p, t)| (p, t)),
        }
    }

    /// The paper's *ready queue delete* operation: removes and returns the
    /// highest-priority job.
    pub fn delete_highest(&mut self) -> Option<(P, T)> {
        match &mut self.inner {
            ReadyQueueImpl::Binomial(h) => h.pop(),
            ReadyQueueImpl::Pairing(h) => h.pop(),
        }
    }

    /// Removes every queued job.
    pub fn clear(&mut self) {
        match &mut self.inner {
            ReadyQueueImpl::Binomial(h) => h.clear(),
            ReadyQueueImpl::Pairing(h) => h.clear(),
        }
    }
}

impl<P: Ord + fmt::Debug, T: Ord + fmt::Debug> fmt::Debug for ReadyQueue<P, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReadyQueue")
            .field("kind", &self.kind())
            .field("len", &self.len())
            .finish()
    }
}

/// The per-core sleep queue: inactive tasks keyed by next release time.
///
/// Backed by the red-black tree, mirroring the paper's implementation. The
/// key is typically `(release_time, task_id)` so that simultaneous releases
/// are both representable and deterministically ordered.
///
/// # Example
///
/// ```
/// use spms_queues::SleepQueue;
///
/// let mut q: SleepQueue<(u64, u32), &str> = SleepQueue::new();
/// q.add((500, 1), "tau1");
/// q.add((200, 0), "tau0");
/// assert_eq!(q.next_release(), Some((&(200, 0), &"tau0")));
/// assert_eq!(q.pop_earliest(), Some(((200, 0), "tau0")));
/// assert_eq!(q.delete(&(500, 1)), Some("tau1"));
/// assert!(q.is_empty());
/// ```
#[derive(Clone)]
pub struct SleepQueue<K: Ord, T> {
    tree: RbTree<K, T>,
}

impl<K: Ord, T> Default for SleepQueue<K, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, T> SleepQueue<K, T> {
    /// Creates an empty sleep queue.
    pub fn new() -> Self {
        SleepQueue {
            tree: RbTree::new(),
        }
    }

    /// Number of sleeping tasks.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether no task is sleeping.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The paper's *sleep queue add* operation: inserts a task keyed by its
    /// next release time. Returns the previous entry under an equal key.
    pub fn add(&mut self, key: K, task: T) -> Option<T> {
        self.tree.insert(key, task)
    }

    /// The paper's *sleep queue delete* operation: removes the entry with the
    /// given key.
    pub fn delete(&mut self, key: &K) -> Option<T> {
        self.tree.remove(key)
    }

    /// The earliest-release entry without removing it.
    pub fn next_release(&self) -> Option<(&K, &T)> {
        self.tree.first()
    }

    /// Removes and returns the earliest-release entry.
    pub fn pop_earliest(&mut self) -> Option<(K, T)> {
        self.tree.pop_first()
    }

    /// Whether a task with the given key is sleeping.
    pub fn contains(&self, key: &K) -> bool {
        self.tree.contains_key(key)
    }

    /// Removes every sleeping task.
    pub fn clear(&mut self) {
        self.tree.clear();
    }
}

impl<K: Ord + fmt::Debug, T: fmt::Debug> fmt::Debug for SleepQueue<K, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SleepQueue")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_queue_orders_by_priority_then_payload() {
        for kind in [ReadyQueueKind::BinomialHeap, ReadyQueueKind::PairingHeap] {
            let mut q: ReadyQueue<u32, u64> = ReadyQueue::with_kind(kind);
            assert!(q.is_empty());
            q.add(2, 10);
            q.add(0, 11);
            q.add(2, 5);
            assert_eq!(q.kind(), kind);
            assert_eq!(q.len(), 3);
            assert_eq!(q.delete_highest(), Some((0, 11)));
            assert_eq!(q.delete_highest(), Some((2, 5)));
            assert_eq!(q.delete_highest(), Some((2, 10)));
            assert_eq!(q.delete_highest(), None);
        }
    }

    #[test]
    fn ready_queue_peek_and_clear() {
        let mut q: ReadyQueue<u32, u32> = ReadyQueue::new();
        q.add(7, 1);
        q.add(3, 2);
        assert_eq!(q.peek(), Some((&3, &2)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn sleep_queue_pops_earliest_release() {
        let mut q: SleepQueue<(u64, u32), u32> = SleepQueue::new();
        q.add((1_000, 3), 3);
        q.add((500, 1), 1);
        q.add((500, 2), 2);
        assert_eq!(q.len(), 3);
        assert!(q.contains(&(500, 1)));
        assert_eq!(q.next_release(), Some((&(500, 1), &1)));
        assert_eq!(q.pop_earliest(), Some(((500, 1), 1)));
        assert_eq!(q.delete(&(1_000, 3)), Some(3));
        assert_eq!(q.delete(&(1_000, 3)), None);
        assert_eq!(q.pop_earliest(), Some(((500, 2), 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn sleep_queue_clear_and_debug() {
        let mut q: SleepQueue<u64, u32> = SleepQueue::new();
        q.add(1, 1);
        q.clear();
        assert!(q.is_empty());
        assert!(format!("{q:?}").contains("SleepQueue"));
        let rq: ReadyQueue<u32, u32> = ReadyQueue::new();
        assert!(format!("{rq:?}").contains("ReadyQueue"));
    }
}
