//! Exact response-time analysis (RTA) for fixed-priority scheduling on one
//! processor.
//!
//! The classic recurrence (Joseph & Pandya / Audsley et al.):
//!
//! ```text
//! R_i^(k+1) = C_i + B_i + Σ_{j ∈ hp(i)} ⌈ R_i^(k) / T_j ⌉ · C_j
//! ```
//!
//! iterated to a fixed point, starting from `R_i^(0) = C_i + B_i`. The task is
//! schedulable iff the fixed point exists and does not exceed its relative
//! deadline. Constrained deadlines (`D ≤ T`) are supported, which is what the
//! split-task analysis needs: subtasks of a split task receive synthetic
//! deadlines shorter than their period.
//!
//! # Priority ties
//!
//! Two tasks that share a priority level can be dispatched in either order at
//! run time, so [`analyse_core`] counts each as interference on the other —
//! the standard conservative treatment. (An earlier revision counted only
//! *strictly* higher levels, which silently declared two same-level tasks
//! non-interfering and could accept overloaded cores; two tasks without any
//! priority both fall back to [`Priority::LOWEST`] and hit the same case.)
//!
//! # Warm starts
//!
//! The recurrence's fixed point is the *least* fixed point at or above the
//! start value, so iteration may begin from any value known to be a lower
//! bound on the result — e.g. a response time previously converged under a
//! subset of the current interference.
//! [`CachedCoreAnalysis`](crate::CachedCoreAnalysis) exploits this to
//! re-converge invalidated priority levels in a handful of iterations after
//! an insertion.

use spms_task::{Priority, Task, Time};
use spms_telemetry::{scoped, HotCounter};

/// Defensive bound on fixed-point iterations; see [`cap_exhaustions`].
pub(crate) const MAX_ITERATIONS: usize = 10_000;

/// Number of times the defensive iteration cap was exhausted since process
/// start.
///
/// The recurrence is monotone and bounded by the deadline check, so under a
/// correct configuration it always converges or provably misses the
/// deadline; exhausting the cap instead means the analysis gave up on a
/// still-undecided recurrence and conservatively reported "unschedulable".
/// A non-zero counter therefore flags configurations (extreme period ratios,
/// enormous deadlines) whose rejections are *time-outs*, not proofs — which
/// would otherwise be indistinguishable from genuine deadline misses.
///
/// This is a thin shim over the telemetry crate's
/// [`HotCounter::RtaCapExhaustions`] scoped counter, which admission
/// engines also fold into their metrics registry per decision (as
/// `spms_mech_rta_cap_exhaustions_total`).
pub fn cap_exhaustions() -> u64 {
    scoped::global_value(HotCounter::RtaCapExhaustions)
}

/// Number of times the defensive iteration cap was exhausted **on the
/// calling thread** since it started. Experiment drivers snapshot this
/// around each grid cell to report a deterministic `rta_cap_exhaustions`
/// column regardless of the worker-thread count; see [`cap_exhaustions`]
/// for what an exhaustion means. Shim over the scoped counter's
/// thread-local twin.
pub fn thread_cap_exhaustions() -> u64 {
    scoped::thread_value(HotCounter::RtaCapExhaustions)
}

/// The effective priority used by the per-core analysis: the task's assigned
/// priority, or [`Priority::LOWEST`] when none was assigned.
#[inline]
pub fn effective_priority(task: &Task) -> Priority {
    task.priority().unwrap_or(Priority::LOWEST)
}

/// Iterates `r ← base + interference(r)` to its least fixed point at or
/// above `start`, returning `None` once the iterate exceeds `deadline`.
///
/// `warm_start` must be a lower bound on the fixed point (e.g. the fixed
/// point of the same recurrence under a subset of the interference); the
/// monotonicity debug-assertion below catches an invalid warm start, which
/// would otherwise silently converge to a non-least fixed point.
pub(crate) fn converge(
    base: Time,
    deadline: Time,
    warm_start: Option<Time>,
    mut interference: impl FnMut(Time) -> Time,
) -> Option<Time> {
    if base > deadline {
        return None;
    }
    let mut r = warm_start.map_or(base, |w| w.max(base));
    for _ in 0..MAX_ITERATIONS {
        let next = base + interference(r);
        if next > deadline {
            return None;
        }
        debug_assert!(
            next >= r,
            "RTA recurrence decreased ({next:?} < {r:?}): warm start above the fixed point"
        );
        if next == r {
            return Some(r);
        }
        r = next;
    }
    // The cap is a time-out, not a proof: make it visible instead of
    // blending into ordinary deadline misses. Library code never writes to
    // stderr behind the CLI's back — the warning goes to the process-global
    // once-per-run store, which the CLI drains and prints after the run.
    scoped::bump(HotCounter::RtaCapExhaustions);
    spms_telemetry::warn_once(
        "rta_iteration_cap",
        format!(
            "spms-analysis: RTA iteration cap ({MAX_ITERATIONS}) exhausted without convergence; \
             reporting unschedulable (further exhaustions counted in rta::cap_exhaustions())"
        ),
    );
    None
}

/// Computes the worst-case response time of `task` under interference from
/// the higher-priority tasks `hp`, without any blocking term.
///
/// Returns `None` if the recurrence exceeds the task's deadline (the task is
/// unschedulable) or if the processor is overloaded and the recurrence would
/// diverge.
///
/// # Example
///
/// ```
/// use spms_analysis::rta::response_time;
/// use spms_task::{Task, Time};
///
/// # fn main() -> Result<(), spms_task::TaskError> {
/// let hp = Task::new(0, Time::from_millis(1), Time::from_millis(4))?;
/// let low = Task::new(1, Time::from_millis(2), Time::from_millis(10))?;
/// assert_eq!(response_time(&low, &[hp]), Some(Time::from_millis(3)));
/// # Ok(())
/// # }
/// ```
pub fn response_time(task: &Task, hp: &[Task]) -> Option<Time> {
    response_time_with_blocking(task, hp, Time::ZERO)
}

/// Computes the worst-case response time of `task` under interference from
/// `hp` plus a constant blocking term `blocking` (used for the migration
/// synchronisation of split tasks and for non-preemptive sections).
///
/// Returns `None` when the response time exceeds the task's deadline.
pub fn response_time_with_blocking(task: &Task, hp: &[Task], blocking: Time) -> Option<Time> {
    converge(task.wcet() + blocking, task.deadline(), None, |r| {
        hp.iter().map(|h| h.wcet() * r.div_ceil(h.period())).sum()
    })
}

/// Analyses a full per-core assignment: every task is checked against the
/// interference of all higher-priority tasks *and all other tasks at its own
/// priority level* on the same core (same-level tasks can be dispatched in
/// either order, so each must tolerate the other; see the
/// [module docs](self)).
///
/// Tasks must carry priorities (see
/// [`TaskSet::assign_priorities`](spms_task::TaskSet::assign_priorities));
/// a task without a priority is treated as lowest priority.
pub fn analyse_core(tasks: &[Task]) -> CoreAnalysis {
    let mut response_times = Vec::with_capacity(tasks.len());
    let mut schedulable = true;
    for (i, task) in tasks.iter().enumerate() {
        let prio = effective_priority(task);
        let r = converge(task.wcet(), task.deadline(), None, |r| {
            tasks
                .iter()
                .enumerate()
                .filter(|(j, other)| *j != i && !effective_priority(other).is_lower_than(prio))
                .map(|(_, other)| other.wcet() * r.div_ceil(other.period()))
                .sum()
        });
        if r.is_none() {
            schedulable = false;
        }
        response_times.push(r);
    }
    CoreAnalysis {
        response_times,
        schedulable,
    }
}

/// Result of analysing one processor's task assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreAnalysis {
    /// Per-task response times in the same order as the analysed slice, or
    /// `None` for tasks whose recurrence exceeded the deadline.
    pub response_times: Vec<Option<Time>>,
    /// Whether every task met its deadline.
    pub schedulable: bool,
}

/// Convenience predicate: is the per-core assignment schedulable under exact
/// RTA?
pub fn is_core_schedulable(tasks: &[Task]) -> bool {
    analyse_core(tasks).schedulable
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms_task::{PriorityAssignment, TaskSet};

    fn task(id: u32, wcet_us: u64, period_us: u64) -> Task {
        Task::new(id, Time::from_micros(wcet_us), Time::from_micros(period_us)).unwrap()
    }

    fn prioritised(tasks: Vec<Task>) -> Vec<Task> {
        let mut ts: TaskSet = tasks.into_iter().collect();
        ts.assign_priorities(PriorityAssignment::RateMonotonic);
        let mut tasks: Vec<Task> = ts.into_iter().collect();
        tasks.sort_by_key(|t| (t.priority(), t.id()));
        tasks
    }

    #[test]
    fn textbook_example_response_times() {
        // Classic example: C=(1,2,3), T=(4,10,20) — all schedulable under RM.
        let tasks = prioritised(vec![task(0, 1, 4), task(1, 2, 10), task(2, 3, 20)]);
        let analysis = analyse_core(&tasks);
        assert!(analysis.schedulable);
        assert_eq!(analysis.response_times[0], Some(Time::from_micros(1)));
        assert_eq!(analysis.response_times[1], Some(Time::from_micros(3)));
        // τ2: R = 3 + ⌈R/4⌉·1 + ⌈R/10⌉·2 → fixed point at 7.
        assert_eq!(analysis.response_times[2], Some(Time::from_micros(7)));
    }

    #[test]
    fn unschedulable_low_priority_task_detected() {
        // τ0 uses 50%, τ1 uses 60% → τ1 cannot finish.
        let tasks = prioritised(vec![task(0, 5, 10), task(1, 12, 20)]);
        let analysis = analyse_core(&tasks);
        assert!(!analysis.schedulable);
        assert_eq!(analysis.response_times[0], Some(Time::from_micros(5)));
        assert_eq!(analysis.response_times[1], None);
    }

    #[test]
    fn full_utilization_harmonic_set_is_schedulable() {
        // Harmonic periods allow 100% utilization under RM.
        let tasks = prioritised(vec![task(0, 5, 10), task(1, 10, 20)]);
        assert!(is_core_schedulable(&tasks));
    }

    #[test]
    fn blocking_term_increases_response_time() {
        let hp = vec![task(0, 1, 4)];
        let low = task(1, 2, 10);
        let without = response_time_with_blocking(&low, &hp, Time::ZERO).unwrap();
        let with = response_time_with_blocking(&low, &hp, Time::from_micros(2)).unwrap();
        assert!(with > without);
        // Excessive blocking makes it unschedulable.
        assert_eq!(
            response_time_with_blocking(&low, &hp, Time::from_micros(50)),
            None
        );
    }

    #[test]
    fn constrained_deadline_is_respected() {
        let hp = vec![task(0, 2, 8)];
        let constrained = Task::builder(1)
            .wcet(Time::from_micros(3))
            .period(Time::from_micros(20))
            .deadline(Time::from_micros(4))
            .build()
            .unwrap();
        // Response time would be 5 µs, which exceeds the 4 µs deadline.
        assert_eq!(response_time(&constrained, &hp), None);
        let relaxed = constrained.with_deadline(Time::from_micros(10)).unwrap();
        assert_eq!(response_time(&relaxed, &hp), Some(Time::from_micros(5)));
    }

    #[test]
    fn task_alone_on_core_has_response_equal_to_wcet() {
        let t = task(0, 7, 100);
        assert_eq!(response_time(&t, &[]), Some(Time::from_micros(7)));
    }

    #[test]
    fn tasks_without_priority_are_treated_as_lowest() {
        let mut high = task(0, 1, 4);
        high.set_priority(Priority::new(0));
        let unprioritised = task(1, 2, 10);
        let analysis = analyse_core(&[high, unprioritised]);
        assert!(analysis.schedulable);
        // R = 2 + ⌈R/4⌉·1 → fixed point at 3.
        assert_eq!(analysis.response_times[1], Some(Time::from_micros(3)));
    }

    #[test]
    fn two_unprioritised_overloading_tasks_are_rejected() {
        // Regression for the priority-tie optimism bug: both tasks default
        // to `Priority::LOWEST`, so the old strictly-higher filter counted
        // zero interference for each and accepted a 120%-utilized core.
        let a = task(0, 6, 10);
        let b = task(1, 6, 10);
        let analysis = analyse_core(&[a, b]);
        assert!(!analysis.schedulable);
        assert_eq!(analysis.response_times, vec![None, None]);
    }

    #[test]
    fn same_level_tasks_count_each_other_as_interference() {
        let mut a = task(0, 2, 10);
        let mut b = task(1, 3, 10);
        a.set_priority(Priority::new(5));
        b.set_priority(Priority::new(5));
        let analysis = analyse_core(&[a.clone(), b.clone()]);
        assert!(analysis.schedulable);
        // Each tolerates one job of the other: R_a = 2 + 3, R_b = 3 + 2.
        assert_eq!(analysis.response_times[0], Some(Time::from_micros(5)));
        assert_eq!(analysis.response_times[1], Some(Time::from_micros(5)));
        // An overloaded pair at one level is rejected.
        let heavy_a = task(0, 6, 10);
        let heavy_b = task(1, 6, 10);
        let mut ha = heavy_a;
        let mut hb = heavy_b;
        ha.set_priority(Priority::new(5));
        hb.set_priority(Priority::new(5));
        assert!(!is_core_schedulable(&[ha, hb]));
    }

    #[test]
    fn iteration_cap_exhaustion_is_counted_not_silent() {
        // Two 50%-utilization 2 ns interferers make the recurrence crawl
        // upward ~2 ns per iteration; with a 1 ms deadline it can neither
        // converge nor exceed the deadline within the cap.
        let before = cap_exhaustions();
        let hp = vec![
            Task::new(0, Time::from_nanos(1), Time::from_nanos(2)).unwrap(),
            Task::new(1, Time::from_nanos(1), Time::from_nanos(2)).unwrap(),
        ];
        let victim = Task::new(2, Time::from_nanos(1), Time::from_millis(1)).unwrap();
        assert_eq!(response_time(&victim, &hp), None);
        assert_eq!(cap_exhaustions(), before + 1);

        // The exhaustion also lands in the once-per-run warning store
        // (instead of an eprintln behind the CLI's back); the stored
        // message names the cap.
        let warned: Vec<_> = spms_telemetry::drain_warnings()
            .into_iter()
            .filter(|w| w.key == "rta_iteration_cap")
            .collect();
        assert_eq!(warned.len(), 1);
        assert!(warned[0].message.contains("iteration cap"));

        // Thread-local twin, exercised in the same test function so its
        // spawned thread's *global* increment cannot race the exact
        // global-count assertions above (cargo runs separate #[test]s
        // concurrently in one process): a fresh thread starts at zero,
        // counts its own exhaustion, and leaves this thread's counter
        // untouched.
        let here_before = thread_cap_exhaustions();
        std::thread::spawn(move || {
            assert_eq!(thread_cap_exhaustions(), 0);
            assert_eq!(response_time(&victim, &hp), None);
            assert_eq!(thread_cap_exhaustions(), 1);
        })
        .join()
        .unwrap();
        assert_eq!(thread_cap_exhaustions(), here_before);
        assert_eq!(cap_exhaustions(), before + 2);
    }

    #[test]
    fn warm_start_converges_to_the_same_fixed_point() {
        // The fixed point from a valid lower-bound warm start must equal the
        // cold-start fixed point bit-for-bit.
        let hp = [task(0, 1, 4), task(1, 2, 10)];
        let low = task(2, 3, 20);
        let cold = response_time(&low, &hp).unwrap();
        for warm_ns in [0, 1, cold.as_nanos() / 2, cold.as_nanos()] {
            let warmed = converge(
                low.wcet(),
                low.deadline(),
                Some(Time::from_nanos(warm_ns)),
                |r| hp.iter().map(|h| h.wcet() * r.div_ceil(h.period())).sum(),
            );
            assert_eq!(warmed, Some(cold));
        }
    }

    #[test]
    fn empty_core_is_schedulable() {
        let analysis = analyse_core(&[]);
        assert!(analysis.schedulable);
        assert!(analysis.response_times.is_empty());
    }
}
