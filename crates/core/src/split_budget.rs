//! Shared piece construction and body-budget search for task splitting.
//!
//! The offline FP-TS and DM-PM passes ([`SemiPartitionedFpTs`],
//! [`SemiPartitionedDmPm`], both through the bin store's
//! `Bins::carve_body`) and the online [`IncrementalPlacer`] build split
//! pieces the same way, and this module is the single implementation all
//! three call: the overhead a body piece is charged by its chain index
//! ([`body_piece_overhead`]), the `C = D` body piece at the promoted body
//! priority ([`body_piece`]), the tail piece that finishes a chain
//! ([`tail_piece`]), and the largest body budget the core's exact RTA
//! still admits ([`max_body_budget`]). The budget is read off the core's
//! analysis in one time-demand scan
//! ([`CachedCoreAnalysis::max_prioritised_wcet`]); when the scan declines,
//! the monotone acceptance frontier is bisected instead. Both return the
//! exact frontier, so which one runs never changes a plan.
//!
//! [`SemiPartitionedFpTs`]: crate::SemiPartitionedFpTs
//! [`SemiPartitionedDmPm`]: crate::SemiPartitionedDmPm
//! [`IncrementalPlacer`]: crate::IncrementalPlacer

use spms_analysis::{CachedCoreAnalysis, OverheadModel};
use spms_task::{Task, Time};

/// The analysis overhead charged to a body piece at `piece_index` within
/// its chain: the first piece pays the release path, later pieces pay the
/// migration-in path.
pub(crate) fn body_piece_overhead(overhead: &OverheadModel, piece_index: usize) -> Time {
    if piece_index == 0 {
        overhead.first_piece_inflation()
    } else {
        overhead.body_piece_inflation()
    }
}

/// Builds the analysis task of a body piece: `budget` pure execution plus
/// the charged `overhead`, a deadline equal to its own demand (the paper's
/// `C = D` splitting) and the promoted body priority. `None` when the
/// parameters cannot form a valid task.
pub(crate) fn body_piece(template: &Task, budget: Time, overhead: Time) -> Option<Task> {
    let wcet = budget + overhead;
    Task::builder(template.id())
        .wcet(wcet)
        .period(template.period())
        .deadline(wcet.min(template.period()))
        .priority(crate::BODY_PRIORITY)
        .build()
        .ok()
}

/// Builds the analysis task of the tail piece that finishes a chain:
/// `budget` pure execution plus the charged `overhead`, released `offset`
/// after the parent, with what is left of the parent's deadline and the
/// promoted tail priority. `None` when the piece cannot meet that deadline.
pub(crate) fn tail_piece(
    template: &Task,
    budget: Time,
    offset: Time,
    overhead: Time,
) -> Option<Task> {
    Task::builder(template.id())
        .wcet(budget + overhead)
        .period(template.period())
        .deadline(template.deadline().checked_sub(offset)?)
        .priority(crate::TAIL_PRIORITY)
        .build()
        .ok()
}

/// The smallest body piece [`max_body_budget`] considers: the
/// `min_split_budget` (at least 1 ns) piece. Every larger budget makes a
/// piece of larger utilization, so a core that cannot take this one takes
/// none.
pub(crate) fn smallest_body_piece(
    template: &Task,
    overhead: Time,
    min_split_budget: Time,
) -> Option<Task> {
    body_piece(
        template,
        min_split_budget.max(Time::from_nanos(1)),
        overhead,
    )
}

/// The largest pure-execution budget in `[min_split_budget, max_budget]`
/// whose body piece (`template`'s period, `overhead` on top) the core still
/// admits, or [`Time::ZERO`] when not even the minimum fits.
///
/// `core` is the core's converged RTA state: the budget is the frontier its
/// scan reports. When the scan declines, the frontier is bisected to the
/// nanosecond with `accepts` probing one body piece per step.
pub(crate) fn max_body_budget(
    core: &CachedCoreAnalysis,
    template: &Task,
    overhead: Time,
    min_split_budget: Time,
    max_budget: Time,
    mut accepts: impl FnMut(&Task) -> bool,
) -> Time {
    let floor = min_split_budget.max(Time::from_nanos(1));
    if floor > max_budget {
        return Time::ZERO;
    }
    let Some(smallest) = smallest_body_piece(template, overhead, min_split_budget) else {
        return Time::ZERO;
    };
    if let Some(wcet) = core.max_prioritised_wcet(&smallest, max_budget + overhead) {
        return wcet.saturating_sub(overhead);
    }
    max_accepted_budget(floor, max_budget, |budget| {
        body_piece(template, budget, overhead).is_some_and(|piece| accepts(&piece))
    })
}

/// The largest budget in `[floor, max_budget]` that `accepts` still admits,
/// or [`Time::ZERO`] when not even `floor` does. `accepts` must be monotone
/// (a smaller budget never fails where a larger one passes); the frontier
/// is bisected to the nanosecond.
fn max_accepted_budget(
    floor: Time,
    max_budget: Time,
    mut accepts: impl FnMut(Time) -> bool,
) -> Time {
    if !accepts(floor) {
        return Time::ZERO;
    }
    if accepts(max_budget) {
        return max_budget;
    }
    let mut lo = floor;
    let mut hi = max_budget;
    while hi.saturating_sub(lo) > Time::from_nanos(1) {
        let mid = Time::from_nanos((lo.as_nanos() + hi.as_nanos()) / 2);
        if accepts(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms_analysis::rta;
    use spms_task::Priority;

    #[test]
    fn budget_search_finds_the_frontier() {
        let threshold = Time::from_nanos(700_123);
        let budget = max_accepted_budget(Time::from_micros(100), Time::from_millis(5), |b| {
            b <= threshold
        });
        assert_eq!(budget, threshold);
    }

    #[test]
    fn budget_search_short_circuits_at_the_bounds() {
        let all = max_accepted_budget(Time::from_micros(100), Time::from_millis(1), |_| true);
        assert_eq!(all, Time::from_millis(1));
        let none = max_accepted_budget(Time::from_micros(100), Time::from_millis(1), |_| false);
        assert_eq!(none, Time::ZERO);
    }

    #[test]
    fn scan_and_bisection_carve_the_same_budget() {
        // A core at 75% with three harmonic-ish periods; the body piece has
        // a 40 µs overhead on top of its budget.
        let mut tasks = Vec::new();
        for (id, wcet_ms, period_ms) in [(0u32, 2u64, 10u64), (1, 5, 20), (2, 12, 50)] {
            let mut t =
                Task::new(id, Time::from_millis(wcet_ms), Time::from_millis(period_ms)).unwrap();
            t.set_priority(Priority::new(crate::WHOLE_PRIORITY_BASE + id));
            tasks.push(t);
        }
        let cache = CachedCoreAnalysis::from_tasks(&tasks);
        let template = Task::new(7, Time::from_millis(9), Time::from_millis(25)).unwrap();
        let overhead = Time::from_micros(40);
        let accepts = |piece: &Task| {
            let mut combined = tasks.clone();
            combined.push(piece.clone());
            rta::is_core_schedulable(&combined)
        };
        for max_budget in [
            Time::from_micros(500),
            Time::from_millis(5),
            Time::from_millis(9),
        ] {
            let min = Time::from_micros(100);
            let scanned = max_body_budget(&cache, &template, overhead, min, max_budget, accepts);
            let bisected = max_accepted_budget(min, max_budget, |budget| {
                body_piece(&template, budget, overhead).is_some_and(|piece| accepts(&piece))
            });
            assert_eq!(scanned, bisected, "max budget {max_budget}");
            assert!(!scanned.is_zero());
        }
    }

    #[test]
    fn body_pieces_are_c_equals_d_at_body_priority() {
        let template = Task::new(3, Time::from_millis(4), Time::from_millis(10)).unwrap();
        let piece = body_piece(&template, Time::from_millis(2), Time::from_micros(50)).unwrap();
        assert_eq!(piece.wcet(), piece.deadline());
        assert_eq!(piece.period(), template.period());
        assert_eq!(piece.priority(), Some(crate::BODY_PRIORITY));
    }
}
