//! Execution chains: the simulator's view of a partitioned task.
//!
//! A whole task is a chain with one piece; a split task is a chain of body
//! pieces followed by a tail piece, each pinned to its own core. The chain is
//! derived from the [`Partition`](spms_core::Partition) produced by the
//! partitioning algorithms.

use spms_core::{CoreId, Partition, SubtaskKind};
use spms_task::{Priority, TaskId, Time};

/// One piece of a chain: a budget to execute on a specific core at a specific
/// priority.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PieceSpec {
    /// Core the piece executes on.
    pub core: CoreId,
    /// Execution budget of the piece.
    pub budget: Time,
    /// Fixed priority of the piece on its core.
    pub priority: Priority,
    /// Whether this piece is a migrating body piece (every piece except the
    /// last of a split chain).
    pub is_body: bool,
}

/// The per-task execution chain extracted from a partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain {
    /// The task this chain belongs to.
    pub parent: TaskId,
    /// Minimum inter-arrival time of the task.
    pub period: Time,
    /// Relative deadline of the *whole* task (not of individual pieces).
    pub deadline: Time,
    /// The pieces in execution order.
    pub pieces: Vec<PieceSpec>,
}

impl Chain {
    /// Whether the chain was split across more than one core.
    pub fn is_split(&self) -> bool {
        self.pieces.len() > 1
    }

    /// The core the task is released on (the first piece's core).
    pub fn first_core(&self) -> CoreId {
        self.pieces[0].core
    }

    /// Builds the chains for every task in a partition.
    ///
    /// # Panics
    ///
    /// Panics if the partition is malformed (e.g. a split chain with missing
    /// pieces); partitions produced by the algorithms in `spms-core` are
    /// always well formed (see [`Partition::validate`]).
    pub fn from_partition(partition: &Partition) -> Vec<Chain> {
        use std::collections::BTreeMap;
        let mut chains: BTreeMap<TaskId, Vec<(usize, PieceSpec, Time, Time)>> = BTreeMap::new();
        for (core, placed) in partition.iter() {
            let (index, is_body, whole_deadline) = match &placed.split {
                None => (0, false, placed.task.deadline()),
                Some(info) => (
                    info.part_index,
                    matches!(info.kind, SubtaskKind::Body),
                    // The tail piece's synthetic deadline plus its release
                    // offset reconstructs the parent's relative deadline.
                    info.release_offset + placed.task.deadline(),
                ),
            };
            let piece = PieceSpec {
                core,
                // The simulator executes the pure runtime budget; the
                // scheduler overheads are injected by the simulator itself
                // according to its configured overhead model.
                budget: placed.execution,
                priority: placed.task.priority().unwrap_or(Priority::LOWEST),
                is_body,
            };
            chains.entry(placed.parent).or_default().push((
                index,
                piece,
                placed.task.period(),
                whole_deadline,
            ));
        }
        chains
            .into_iter()
            .map(|(parent, mut pieces)| {
                pieces.sort_by_key(|(index, _, _, _)| *index);
                let period = pieces[0].2;
                // For split chains only the tail carries the reconstructed
                // whole-task deadline; take the maximum across pieces.
                let deadline = pieces
                    .iter()
                    .map(|(_, _, _, d)| *d)
                    .max()
                    .expect("chain has at least one piece");
                Chain {
                    parent,
                    period,
                    deadline,
                    pieces: pieces.into_iter().map(|(_, p, _, _)| p).collect(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms_core::{Partitioner, SemiPartitionedFpTs};
    use spms_task::{Task, TaskSet};

    fn split_partition() -> Partition {
        let tasks: TaskSet = (0..3)
            .map(|i| Task::new(i, Time::from_millis(6), Time::from_millis(10)).unwrap())
            .collect();
        SemiPartitionedFpTs::default()
            .partition(&tasks, 2)
            .unwrap()
            .into_partition()
            .expect("schedulable")
    }

    #[test]
    fn chains_cover_every_task() {
        let partition = split_partition();
        let chains = Chain::from_partition(&partition);
        assert_eq!(chains.len(), 3);
        let split: Vec<&Chain> = chains.iter().filter(|c| c.is_split()).collect();
        assert_eq!(split.len(), 1);
        assert_eq!(split[0].pieces.len(), 2);
        assert!(split[0].pieces[0].is_body);
        assert!(!split[0].pieces[1].is_body);
        // The two pieces live on different cores.
        assert_ne!(split[0].pieces[0].core, split[0].pieces[1].core);
    }

    #[test]
    fn split_chain_budget_equals_parent_wcet() {
        let chains = Chain::from_partition(&split_partition());
        for chain in &chains {
            let budget: Time = chain.pieces.iter().map(|p| p.budget).sum();
            assert_eq!(budget, Time::from_millis(6));
            assert_eq!(chain.period, Time::from_millis(10));
            assert_eq!(chain.deadline, Time::from_millis(10));
        }
    }

    #[test]
    fn first_core_is_the_first_piece() {
        let chains = Chain::from_partition(&split_partition());
        for chain in &chains {
            assert_eq!(chain.first_core(), chain.pieces[0].core);
        }
    }
}
