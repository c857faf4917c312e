//! Sharding primitives for the online admission service.
//!
//! A sharded deployment splits the machine's core set into N independent
//! [`Partition`]s, each with its own mutation journal and RTA cache, so
//! admission decisions on different shards never contend on shared analysis
//! state. This module supplies the pieces that are pure placement policy —
//! everything that does not need to know about admission bookkeeping:
//!
//! * [`shard_core_counts`] — near-even division of the core set,
//! * [`ShardRouter`] — deterministic hash-based home-shard assignment plus a
//!   utilization-aware overflow order for cross-shard placement when the
//!   home shard rejects an arrival,
//! * [`plan_rebalance_move`] — one step of the periodic work-stealing pass
//!   that moves whole-placed tasks from the most-loaded shard to the
//!   most-spare one, planned on the receiver before the donor is touched,
//!   so a receiver-side rejection leaves both shards untouched,
//! * [`stitch_partitions`] — the inverse of sharding: a fleet-global
//!   [`Partition`] with every shard's cores concatenated and cross-shard
//!   split chains relinked, so a sharded deployment (including shard-spanning
//!   splits) can be replayed through the single-machine simulator.

use crate::incremental::{IncrementalPlacer, PlacementPlan};
use crate::placement::{CoreId, Partition};
use spms_task::{by_decreasing_utilization, fnv1a, Task, TaskId, Time};

/// Splits `total_cores` processor cores into `shards` near-even groups.
///
/// The first `total_cores % shards` shards get one extra core, so shard
/// sizes differ by at most one and every core is assigned exactly once.
///
/// # Panics
///
/// Panics if `shards` is zero or exceeds `total_cores` (a shard with zero
/// cores could never admit anything).
pub fn shard_core_counts(total_cores: usize, shards: usize) -> Vec<usize> {
    assert!(shards > 0, "shard count must be positive");
    assert!(
        shards <= total_cores,
        "cannot split {total_cores} cores into {shards} shards"
    );
    let base = total_cores / shards;
    let extra = total_cores % shards;
    (0..shards)
        .map(|idx| base + usize::from(idx < extra))
        .collect()
}

/// Routes arriving tasks to shards.
///
/// Every task has a deterministic *home shard* derived from an FNV-1a hash
/// of its id, which spreads unrelated arrivals across shards without any
/// shared state. When the home shard rejects,
/// [`placement_order`](ShardRouter::placement_order) continues with the
/// remaining shards in descending spare-utilization order (index as the
/// tie-break), so overflow placement tries the roomiest shard first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shard_count: usize,
}

impl ShardRouter {
    /// A router over `shard_count` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is zero.
    pub fn new(shard_count: usize) -> Self {
        assert!(shard_count > 0, "shard count must be positive");
        ShardRouter { shard_count }
    }

    /// The number of shards routed over.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The deterministic home shard for a task id.
    pub fn home_shard(&self, id: TaskId) -> usize {
        (fnv1a(&id.0.to_le_bytes()) % self.shard_count as u64) as usize
    }

    /// The order in which shards should be offered an arriving task: the
    /// home shard first, then every other shard by descending spare
    /// utilization (`spare[i]`), lowest index first on ties.
    ///
    /// # Panics
    ///
    /// Panics if `spare` does not have one entry per shard.
    pub fn placement_order(&self, id: TaskId, spare: &[f64]) -> Vec<usize> {
        assert_eq!(
            spare.len(),
            self.shard_count,
            "spare-utilization vector must have one entry per shard"
        );
        let home = self.home_shard(id);
        let mut order = Vec::with_capacity(self.shard_count);
        order.push(home);
        let mut rest: Vec<usize> = (0..self.shard_count).filter(|i| *i != home).collect();
        rest.sort_by(|a, b| {
            spare[*b]
                .partial_cmp(&spare[*a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.cmp(b))
        });
        order.extend(rest);
        order
    }
}

/// One task migration of a rebalance pass (see [`plan_rebalance_move`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceMove {
    /// The migrated parent task.
    pub task: TaskId,
    /// Shard the task left.
    pub from: usize,
    /// Shard the task now lives on.
    pub to: usize,
}

/// A rebalance migration planned on the receiver but not yet made: the
/// move, the task with its original parameters, and its placement on the
/// receiver. [`apply`](Self::apply) makes it.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalancePlan {
    /// The migration.
    pub step: RebalanceMove,
    /// The migrated task, with its original (un-inflated) parameters.
    pub task: Task,
    plan: PlacementPlan,
}

impl RebalancePlan {
    /// Makes the migration: removes the task from `donor` (the shard
    /// `step.from`) and commits its planned placement on `receiver` (the
    /// shard `step.to`), which must be the partitions it was planned on,
    /// unchanged since.
    pub fn apply(
        self,
        donor: &mut Partition,
        receiver: &mut Partition,
        placer: &IncrementalPlacer,
    ) {
        donor.remove_parent(self.step.task);
        placer.commit(receiver, &self.task, self.plan);
    }
}

/// Total spare utilization of one shard (sum over its cores).
fn shard_spare(partition: &Partition) -> f64 {
    (0..partition.core_count())
        .map(|c| partition.spare_utilization(CoreId(c)))
        .sum()
}

/// Plans the next migration of a work-stealing rebalance pass over
/// `shards` (`(shard index, partition)` pairs, ascending indices): a
/// whole-placed task from the most-loaded shard (least spare utilization,
/// lowest index on ties) to the most-spare one (lowest index on ties).
/// `None` when no migration still improves the balance. A pass applies
/// plans one at a time ([`RebalancePlan::apply`]) until `None` or its move
/// budget runs out.
///
/// Only migrations that keep the receiver at least as spare as the donor
/// afterwards are planned (`u <= (spare_to - spare_from) / 2`), which rules
/// out oscillation across successive rebalance ticks. Among the eligible
/// candidates the largest utilization is tried first (steal the most
/// imbalance per move), smallest id on ties. Split tasks never move: their
/// placements encode cross-core precedence that a whole-placement steal
/// cannot preserve.
///
/// Each candidate is planned whole on the receiver; nothing is mutated, so
/// a rejected candidate needs no rollback: donor and receiver are distinct
/// partitions, so the donor's state cannot affect the plan.
///
/// `lookup` maps a parent id back to the original (un-inflated) task; ids
/// it cannot resolve are skipped. `charge_of` is the per-migration WCET
/// charge the receiver-side placement must absorb (the admission cost
/// model; `|_| Time::ZERO` for free moves) — a candidate whose charged
/// placement the receiver's RTA rejects is skipped like any other
/// rejection, so rebalancing never trades balance for schedulability.
pub fn plan_rebalance_move<'a>(
    shards: impl Iterator<Item = (usize, &'a Partition)> + Clone,
    placer: &IncrementalPlacer,
    lookup: impl Fn(TaskId) -> Option<Task>,
    charge_of: impl Fn(&Task) -> Time,
) -> Option<RebalancePlan> {
    let spare = |a: f64, b: f64| a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal);
    let spares = shards.map(|(idx, partition)| (idx, shard_spare(partition), partition));
    let (from, donor_spare, donor) = spares
        .clone()
        .min_by(|a, b| spare(a.1, b.1).then_with(|| a.0.cmp(&b.0)))?;
    let (to, receiver_spare, receiver) =
        spares.max_by(|a, b| spare(a.1, b.1).then_with(|| b.0.cmp(&a.0)))?;
    if from == to {
        return None;
    }
    let headroom = (receiver_spare - donor_spare) / 2.0;
    if headroom <= 0.0 {
        return None;
    }

    let placed_once = |id: TaskId| donor.iter().filter(|(_, p)| p.parent == id).count() == 1;
    let mut candidates: Vec<Task> = donor
        .iter()
        .filter(|(_, p)| !p.is_split() && placed_once(p.parent))
        .filter_map(|(_, p)| lookup(p.parent))
        .filter(|task| {
            let u = task.utilization();
            u > 0.0 && u <= headroom
        })
        .collect();
    // A whole task has one placement, so ids are distinct and the order is
    // total: an unstable sort (which never allocates) gives the stable one.
    candidates.sort_unstable_by(by_decreasing_utilization);
    candidates.into_iter().find_map(|task| {
        let plan = placer.plan_whole(receiver, &task, &[], charge_of(&task))?;
        Some(RebalancePlan {
            step: RebalanceMove {
                task: task.id(),
                from,
                to,
            },
            task,
            plan,
        })
    })
}

/// Stitches a sharded deployment back into one fleet-global [`Partition`]:
/// shard `s`'s cores occupy the global id range starting at the sum of the
/// earlier shards' core counts, and split chains that span shards (boundary
/// pieces carry `next_core: None` with a shard-local `first_core`) are
/// relinked with global core ids so the stitched partition passes the full
/// chain validation and can be replayed through the simulator.
///
/// The stitched partition carries no analysis cache; per-core
/// placement order and priorities are preserved verbatim, so every core
/// schedules exactly as it did on its shard.
///
/// # Panics
///
/// Panics if the shards do not jointly hold every piece of each split chain
/// (a chain's `part_count` exceeds the pieces found fleet-wide).
pub fn stitch_partitions(shards: &[&Partition]) -> Partition {
    use std::collections::BTreeMap;

    let total: usize = shards.iter().map(|p| p.core_count()).sum();
    let mut offsets = Vec::with_capacity(shards.len());
    let mut base = 0usize;
    for p in shards {
        offsets.push(base);
        base += p.core_count();
    }

    // Global chain map: parent -> part_index -> global core, so boundary
    // pieces can be relinked across shard seams.
    let mut chains: BTreeMap<TaskId, BTreeMap<usize, CoreId>> = BTreeMap::new();
    for (s, p) in shards.iter().enumerate() {
        for (core, placed) in p.iter() {
            if let Some(info) = &placed.split {
                chains
                    .entry(placed.parent)
                    .or_default()
                    .insert(info.part_index, CoreId(core.0 + offsets[s]));
            }
        }
    }

    let mut stitched = Partition::new(total);
    for (s, p) in shards.iter().enumerate() {
        for (core, placed) in p.iter() {
            let mut placed = placed.clone();
            let parent = placed.parent;
            if let Some(info) = placed.split.as_mut() {
                let chain = &chains[&parent];
                info.first_core = *chain
                    .get(&0)
                    .unwrap_or_else(|| panic!("split task {parent} is missing its first piece"));
                info.next_core = if info.part_index + 1 < info.part_count {
                    Some(*chain.get(&(info.part_index + 1)).unwrap_or_else(|| {
                        panic!(
                            "split task {parent} is missing piece {}",
                            info.part_index + 1
                        )
                    }))
                } else {
                    None
                };
            }
            stitched.place(CoreId(core.0 + offsets[s]), placed);
        }
    }
    stitched
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms_task::Time;

    fn task(id: u32, wcet_ms: u64, period_ms: u64) -> Task {
        Task::new(id, Time::from_millis(wcet_ms), Time::from_millis(period_ms)).expect("valid task")
    }

    fn shard_with(cores: usize, tasks: &[Task]) -> Partition {
        let mut partition = Partition::new(cores);
        partition.enable_analysis_cache();
        let placer = IncrementalPlacer::new();
        for t in tasks {
            let plan = placer
                .plan_whole(&partition, t, &[], Time::ZERO)
                .expect("fits");
            placer.commit(&mut partition, t, plan);
        }
        partition
    }

    #[test]
    fn core_counts_split_near_evenly() {
        assert_eq!(shard_core_counts(8, 1), vec![8]);
        assert_eq!(shard_core_counts(8, 2), vec![4, 4]);
        assert_eq!(shard_core_counts(8, 3), vec![3, 3, 2]);
        assert_eq!(shard_core_counts(5, 4), vec![2, 1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn core_counts_reject_more_shards_than_cores() {
        shard_core_counts(2, 3);
    }

    #[test]
    fn home_shard_is_stable_and_in_range() {
        let router = ShardRouter::new(3);
        for id in 0..64u32 {
            let home = router.home_shard(TaskId(id));
            assert!(home < 3);
            assert_eq!(home, router.home_shard(TaskId(id)));
        }
        // The hash actually spreads ids over shards.
        let homes: std::collections::BTreeSet<usize> =
            (0..64u32).map(|id| router.home_shard(TaskId(id))).collect();
        assert_eq!(homes.len(), 3);
    }

    #[test]
    fn placement_order_visits_home_first_then_spare_descending() {
        let router = ShardRouter::new(4);
        let id = TaskId(7);
        let home = router.home_shard(id);
        let mut spare = vec![0.25, 0.5, 1.5, 1.0];
        spare[home] = 0.0; // a full home shard is still tried first
        let order = router.placement_order(id, &spare);
        assert_eq!(order[0], home);
        let rest: Vec<usize> = order[1..].to_vec();
        let mut expected: Vec<usize> = (0..4).filter(|i| *i != home).collect();
        expected.sort_by(|a, b| {
            spare[*b]
                .partial_cmp(&spare[*a])
                .unwrap()
                .then_with(|| a.cmp(b))
        });
        assert_eq!(rest, expected);
        assert_eq!(order.len(), 4);
    }

    /// A rebalance pass over `shards`: plans and applies migrations until
    /// none is left or `max_moves` are made.
    fn rebalance(
        shards: &mut [&mut Partition],
        placer: &IncrementalPlacer,
        lookup: &dyn Fn(TaskId) -> Option<Task>,
        charge_of: &dyn Fn(&Task) -> Time,
        max_moves: usize,
    ) -> Vec<RebalanceMove> {
        let mut moves = Vec::new();
        while moves.len() < max_moves {
            let shared = shards.iter().map(|p| &**p).enumerate();
            let Some(plan) = plan_rebalance_move(shared, placer, lookup, charge_of) else {
                break;
            };
            let step = plan.step;
            let [donor, receiver] = shards
                .get_disjoint_mut([step.from, step.to])
                .expect("distinct shards");
            plan.apply(donor, receiver, placer);
            moves.push(step);
        }
        moves
    }

    #[test]
    fn rebalance_moves_load_toward_the_spare_shard() {
        // Donor shard: one core at 0.9 utilization; receiver: one core,
        // empty. Stealing the 0.4 task keeps the receiver the spare one.
        let t_heavy = task(0, 5, 10); // u = 0.5
        let t_light = task(1, 4, 10); // u = 0.4
        let mut donor = shard_with(1, &[t_heavy.clone(), t_light.clone()]);
        let mut receiver = shard_with(1, &[]);
        let placer = IncrementalPlacer::new();
        let tasks = [t_heavy, t_light];
        let lookup = |id: TaskId| tasks.iter().find(|t| t.id() == id).cloned();

        let mut shards = [&mut donor, &mut receiver];
        let moves = rebalance(&mut shards, &placer, &lookup, &|_| Time::ZERO, 4);

        assert_eq!(
            moves,
            vec![RebalanceMove {
                task: TaskId(1),
                from: 0,
                to: 1,
            }]
        );
        assert!(donor.placements_of(TaskId(1)).is_empty());
        assert_eq!(receiver.placements_of(TaskId(1)).len(), 1);
        // Balanced enough that a second pass does nothing.
        let mut shards = [&mut donor, &mut receiver];
        assert!(rebalance(&mut shards, &placer, &lookup, &|_| Time::ZERO, 4).is_empty());
    }

    #[test]
    fn rebalance_respects_the_migration_charge() {
        // The receiver has room for the pristine task but not for the task
        // plus its migration charge: the charged pass must leave both
        // shards untouched (the donor is never touched, no commit on the
        // receiver), while the free pass migrates.
        let resident = task(0, 8, 10); // receiver core at 80%
        let movable = task(1, 1, 20); // u = 0.05, inside the headroom
        let ballast = task(2, 9, 10); // keeps the donor the loaded shard
        let build = || {
            let donor = shard_with(1, &[ballast.clone(), movable.clone()]);
            let receiver = shard_with(1, std::slice::from_ref(&resident));
            (donor, receiver)
        };
        let placer = IncrementalPlacer::new();
        let tasks = [resident.clone(), movable.clone(), ballast.clone()];
        let lookup = |id: TaskId| tasks.iter().find(|t| t.id() == id).cloned();

        let (mut donor, mut receiver) = build();
        let mut shards = [&mut donor, &mut receiver];
        // A charge that pushes the 3 ms placement past what the 80% core
        // absorbs within the 20 ms deadline.
        let charged = rebalance(&mut shards, &placer, &lookup, &|_| Time::from_millis(5), 4);
        assert!(charged.is_empty(), "charged move should be rejected");
        assert_eq!(donor.placements_of(TaskId(1)).len(), 1);
        assert!(receiver.placements_of(TaskId(1)).is_empty());

        let (mut donor, mut receiver) = build();
        let mut shards = [&mut donor, &mut receiver];
        let free = rebalance(&mut shards, &placer, &lookup, &|_| Time::ZERO, 4);
        assert_eq!(free.len(), 1, "the free move fits");
        assert_eq!(receiver.placements_of(TaskId(1)).len(), 1);
    }

    #[test]
    fn stitch_concatenates_shard_cores() {
        let a = shard_with(2, &[task(0, 2, 10), task(1, 3, 10)]);
        let b = shard_with(1, &[task(2, 4, 10)]);
        let stitched = stitch_partitions(&[&a, &b]);
        assert_eq!(stitched.core_count(), 3);
        assert_eq!(
            stitched.placement_count(),
            a.placement_count() + b.placement_count()
        );
        // Shard b's task lives past shard a's core range.
        let placements = stitched.placements_of(TaskId(2));
        assert_eq!(placements.len(), 1);
        assert_eq!(placements[0].0, CoreId(2));
        stitched.validate().expect("stitched partition is valid");
    }

    #[test]
    fn stitch_relinks_cross_shard_chains() {
        use crate::placement::{PlacedTask, SplitInfo, SubtaskKind};

        // Shard 0 hosts the body piece, shard 1 the tail; at the shard
        // boundary the body is unlinked and each side's first_core is local.
        let mut donor = Partition::new(1);
        donor.allow_partial_chains();
        donor.place(
            CoreId(0),
            PlacedTask {
                task: task(7, 5, 20),
                execution: Time::from_millis(5),
                parent: TaskId(7),
                split: Some(SplitInfo {
                    part_index: 0,
                    part_count: 2,
                    kind: SubtaskKind::Body,
                    release_offset: Time::ZERO,
                    next_core: None,
                    first_core: CoreId(0),
                }),
            },
        );
        let mut receiver = Partition::new(1);
        receiver.allow_partial_chains();
        receiver.place(
            CoreId(0),
            PlacedTask {
                task: task(7, 4, 20),
                execution: Time::from_millis(4),
                parent: TaskId(7),
                split: Some(SplitInfo {
                    part_index: 1,
                    part_count: 2,
                    kind: SubtaskKind::Tail,
                    release_offset: Time::from_millis(5),
                    next_core: None,
                    first_core: CoreId(0),
                }),
            },
        );
        donor.validate().expect("partial donor chain is valid");
        receiver
            .validate()
            .expect("partial receiver chain is valid");

        let stitched = stitch_partitions(&[&donor, &receiver]);
        // The stitched partition uses the *full* chain validation: the body
        // must now link to the tail's global core and both pieces must agree
        // on the global first core.
        stitched.validate().expect("stitched chain is complete");
        let pieces = stitched.placements_of(TaskId(7));
        assert_eq!(pieces.len(), 2);
        let body = pieces[0].1.split.as_ref().unwrap();
        let tail = pieces[1].1.split.as_ref().unwrap();
        assert_eq!(pieces[0].0, CoreId(0));
        assert_eq!(pieces[1].0, CoreId(1));
        assert_eq!(body.next_core, Some(CoreId(1)));
        assert_eq!(tail.next_core, None);
        assert_eq!(body.first_core, CoreId(0));
        assert_eq!(tail.first_core, CoreId(0));
    }

    #[test]
    fn rebalance_never_moves_split_tasks_or_oscillates() {
        let light = task(2, 1, 10); // u = 0.1
        let mut a = shard_with(1, std::slice::from_ref(&light));
        let mut b = shard_with(1, &[]);
        let placer = IncrementalPlacer::new();
        let lookup = |id: TaskId| (id == light.id()).then(|| light.clone());
        // spare(a) = 0.9, spare(b) = 1.0: headroom 0.05 < u, so no move.
        let mut shards = [&mut a, &mut b];
        assert!(rebalance(&mut shards, &placer, &lookup, &|_| Time::ZERO, 8).is_empty());
    }
}
