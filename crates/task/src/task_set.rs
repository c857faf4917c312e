//! Collections of tasks and priority-assignment over them.

use std::fmt;
use std::ops::Index;

use serde::{Deserialize, Serialize};

use crate::{Priority, PriorityAssignment, Task, TaskError, TaskId};

/// An ordered collection of sporadic tasks.
///
/// A `TaskSet` is the unit the partitioning algorithms, the schedulability
/// analyses and the simulator all operate on. Iteration order is insertion
/// order unless a sort method is called explicitly.
///
/// # Example
///
/// ```
/// use spms_task::{Task, TaskSet, Time, PriorityAssignment};
///
/// # fn main() -> Result<(), spms_task::TaskError> {
/// let mut ts = TaskSet::new();
/// ts.push(Task::new(0, Time::from_millis(1), Time::from_millis(4))?);
/// ts.push(Task::new(1, Time::from_millis(2), Time::from_millis(8))?);
/// ts.assign_priorities(PriorityAssignment::RateMonotonic);
/// ts.validate()?;
/// assert_eq!(ts.len(), 2);
/// assert!((ts.total_utilization() - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TaskSet {
    tasks: Vec<Task>,
}

impl TaskSet {
    /// Creates an empty task set.
    pub fn new() -> Self {
        TaskSet { tasks: Vec::new() }
    }

    /// Creates an empty task set with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        TaskSet {
            tasks: Vec::with_capacity(capacity),
        }
    }

    /// Appends a task to the set.
    pub fn push(&mut self, task: Task) {
        self.tasks.push(task);
    }

    /// Number of tasks in the set.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the set contains no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Iterates over the tasks in their current order.
    pub fn iter(&self) -> std::slice::Iter<'_, Task> {
        self.tasks.iter()
    }

    /// Iterates mutably over the tasks.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, Task> {
        self.tasks.iter_mut()
    }

    /// The tasks as a slice.
    pub fn as_slice(&self) -> &[Task] {
        &self.tasks
    }

    /// Looks a task up by identifier.
    pub fn get(&self, id: TaskId) -> Option<&Task> {
        self.tasks.iter().find(|t| t.id() == id)
    }

    /// Sum of per-task utilizations `Σ C_i / T_i`.
    pub fn total_utilization(&self) -> f64 {
        self.tasks.iter().map(Task::utilization).sum()
    }

    /// The largest individual task utilization, or 0.0 for an empty set.
    pub fn max_utilization(&self) -> f64 {
        self.tasks.iter().map(Task::utilization).fold(0.0, f64::max)
    }

    /// Assigns fixed priorities to all tasks according to `policy`.
    ///
    /// Priorities are dense: the highest-priority task receives level 0, the
    /// next level 1, and so on. Ties (equal periods or deadlines) are broken
    /// by task identifier so the assignment is deterministic.
    pub fn assign_priorities(&mut self, policy: PriorityAssignment) {
        let mut order: Vec<usize> = (0..self.tasks.len()).collect();
        match policy {
            PriorityAssignment::RateMonotonic => {
                order.sort_by_key(|&i| (self.tasks[i].period(), self.tasks[i].id()));
            }
            PriorityAssignment::DeadlineMonotonic => {
                order.sort_by_key(|&i| (self.tasks[i].deadline(), self.tasks[i].id()));
            }
            PriorityAssignment::Explicit => {
                order.sort_by_key(|&i| {
                    (
                        self.tasks[i].priority().unwrap_or(Priority::LOWEST),
                        self.tasks[i].id(),
                    )
                });
            }
        }
        for (level, idx) in order.into_iter().enumerate() {
            self.tasks[idx].set_priority(Priority::new(level as u32));
        }
    }

    /// Checks structural invariants of the set.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::DuplicateTaskId`] if two tasks share an id,
    /// naming the id whose second occurrence comes first. Task parameter
    /// validity is enforced at construction time by [`Task`].
    ///
    /// Allocation-free: an id above every earlier one cannot repeat any,
    /// so a set in ascending id order (the usual shape) is checked in one
    /// pass, and only an id that is not scans the tasks before it.
    pub fn validate(&self) -> Result<(), TaskError> {
        let mut highest = None;
        for (i, t) in self.tasks.iter().enumerate() {
            let id = t.id();
            if highest.is_some_and(|h| id <= h) && self.tasks[..i].iter().any(|u| u.id() == id) {
                return Err(TaskError::DuplicateTaskId { task: id });
            }
            highest = highest.max(Some(id));
        }
        Ok(())
    }
}

impl Index<usize> for TaskSet {
    type Output = Task;

    fn index(&self, index: usize) -> &Task {
        &self.tasks[index]
    }
}

impl FromIterator<Task> for TaskSet {
    fn from_iter<I: IntoIterator<Item = Task>>(iter: I) -> Self {
        TaskSet {
            tasks: iter.into_iter().collect(),
        }
    }
}

impl Extend<Task> for TaskSet {
    fn extend<I: IntoIterator<Item = Task>>(&mut self, iter: I) {
        self.tasks.extend(iter);
    }
}

impl IntoIterator for TaskSet {
    type Item = Task;
    type IntoIter = std::vec::IntoIter<Task>;

    fn into_iter(self) -> Self::IntoIter {
        self.tasks.into_iter()
    }
}

impl<'a> IntoIterator for &'a TaskSet {
    type Item = &'a Task;
    type IntoIter = std::slice::Iter<'a, Task>;

    fn into_iter(self) -> Self::IntoIter {
        self.tasks.iter()
    }
}

impl fmt::Display for TaskSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TaskSet[n={}, U={:.3}]",
            self.len(),
            self.total_utilization()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Time;

    fn t(id: u32, wcet_us: u64, period_us: u64) -> Task {
        Task::new(id, Time::from_micros(wcet_us), Time::from_micros(period_us)).unwrap()
    }

    fn sample_set() -> TaskSet {
        [t(0, 1, 4), t(1, 2, 8), t(2, 3, 12)].into_iter().collect()
    }

    #[test]
    fn utilization_sums() {
        let ts = sample_set();
        assert!((ts.total_utilization() - (0.25 + 0.25 + 0.25)).abs() < 1e-12);
        assert!((ts.max_utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_set_properties() {
        let ts = TaskSet::new();
        assert!(ts.is_empty());
        assert_eq!(ts.total_utilization(), 0.0);
        assert_eq!(ts.max_utilization(), 0.0);
    }

    #[test]
    fn rate_monotonic_assignment_orders_by_period() {
        let mut ts: TaskSet = [t(0, 1, 20), t(1, 1, 5), t(2, 1, 10)].into_iter().collect();
        ts.assign_priorities(PriorityAssignment::RateMonotonic);
        assert_eq!(
            ts.get(TaskId(1)).unwrap().priority(),
            Some(Priority::new(0))
        );
        assert_eq!(
            ts.get(TaskId(2)).unwrap().priority(),
            Some(Priority::new(1))
        );
        assert_eq!(
            ts.get(TaskId(0)).unwrap().priority(),
            Some(Priority::new(2))
        );
    }

    #[test]
    fn deadline_monotonic_assignment_orders_by_deadline() {
        let a = Task::builder(0)
            .wcet(Time::from_micros(1))
            .period(Time::from_micros(20))
            .deadline(Time::from_micros(6))
            .build()
            .unwrap();
        let b = t(1, 1, 10);
        let mut ts: TaskSet = [a, b].into_iter().collect();
        ts.assign_priorities(PriorityAssignment::DeadlineMonotonic);
        assert_eq!(
            ts.get(TaskId(0)).unwrap().priority(),
            Some(Priority::new(0))
        );
        assert_eq!(
            ts.get(TaskId(1)).unwrap().priority(),
            Some(Priority::new(1))
        );
    }

    #[test]
    fn rm_ties_broken_by_id() {
        let mut ts: TaskSet = [t(5, 1, 10), t(2, 1, 10)].into_iter().collect();
        ts.assign_priorities(PriorityAssignment::RateMonotonic);
        assert_eq!(
            ts.get(TaskId(2)).unwrap().priority(),
            Some(Priority::new(0))
        );
        assert_eq!(
            ts.get(TaskId(5)).unwrap().priority(),
            Some(Priority::new(1))
        );
    }

    #[test]
    fn explicit_assignment_densifies_existing_priorities() {
        let mut a = t(0, 1, 10);
        let mut b = t(1, 1, 10);
        a.set_priority(Priority::new(40));
        b.set_priority(Priority::new(7));
        let mut ts: TaskSet = [a, b].into_iter().collect();
        ts.assign_priorities(PriorityAssignment::Explicit);
        assert_eq!(
            ts.get(TaskId(1)).unwrap().priority(),
            Some(Priority::new(0))
        );
        assert_eq!(
            ts.get(TaskId(0)).unwrap().priority(),
            Some(Priority::new(1))
        );
    }

    #[test]
    fn rate_monotonic_levels_sort_dense_from_highest() {
        let mut ts = sample_set();
        ts.assign_priorities(PriorityAssignment::RateMonotonic);
        let mut levels: Vec<u32> = ts.iter().map(|t| t.priority().unwrap().level()).collect();
        levels.sort_unstable();
        assert_eq!(levels, vec![0, 1, 2]);
    }

    #[test]
    fn validate_detects_duplicate_ids() {
        let ts: TaskSet = [t(0, 1, 10), t(0, 2, 20)].into_iter().collect();
        assert_eq!(
            ts.validate().unwrap_err(),
            TaskError::DuplicateTaskId { task: TaskId(0) }
        );
        assert!(sample_set().validate().is_ok());
    }

    #[test]
    fn validate_reports_the_earliest_second_occurrence() {
        let ids = |ids: &[u32]| -> TaskSet { ids.iter().map(|&id| t(id, 1, 10)).collect() };
        let reported = |set: TaskSet| match set.validate() {
            Err(TaskError::DuplicateTaskId { task }) => Some(task),
            _ => None,
        };
        // Id 1 repeats at index 3, before id 3 repeats at index 4.
        assert_eq!(reported(ids(&[3, 1, 2, 1, 3])), Some(TaskId(1)));
        // Id 9 repeats at index 2, before id 2 repeats at index 3.
        assert_eq!(reported(ids(&[2, 9, 9, 2])), Some(TaskId(9)));
        // An arrival appended below the highest id is checked too.
        assert_eq!(reported(ids(&[1, 4, 6, 4])), Some(TaskId(4)));
        assert_eq!(reported(ids(&[1, 4, 6, 5])), None);
        assert_eq!(reported(ids(&[])), None);
    }

    #[test]
    fn indexing_and_lookup() {
        let ts = sample_set();
        assert_eq!(ts[1].id(), TaskId(1));
        assert!(ts.get(TaskId(2)).is_some());
        assert!(ts.get(TaskId(99)).is_none());
    }

    #[test]
    fn display_summarises() {
        let s = sample_set().to_string();
        assert!(s.contains("n=3"));
    }
}
