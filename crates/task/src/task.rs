//! The sporadic task abstraction.

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Priority, TaskError, Time};

/// Identifier of a task within a [`TaskSet`](crate::TaskSet).
///
/// Identifiers are plain integers chosen by the caller (the generators use the
/// task's index). They must be unique within a task set; uniqueness is checked
/// by [`TaskSet::validate`](crate::TaskSet::validate).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct TaskId(pub u32);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "τ{}", self.0)
    }
}

impl From<u32> for TaskId {
    fn from(id: u32) -> Self {
        TaskId(id)
    }
}

impl From<TaskId> for u32 {
    fn from(id: TaskId) -> Self {
        id.0
    }
}

impl From<TaskId> for usize {
    fn from(id: TaskId) -> Self {
        id.0 as usize
    }
}

/// A sporadic real-time task `τ_i = (C_i, T_i, D_i)`.
///
/// * `wcet` — worst-case execution time `C_i`,
/// * `period` — minimum inter-arrival time `T_i`,
/// * `deadline` — relative deadline `D_i` (implicit deadlines, `D_i = T_i`,
///   unless set explicitly; constrained deadlines `D_i ≤ T_i` are supported),
/// * `priority` — fixed priority, assigned by a
///   [`PriorityAssignment`](crate::PriorityAssignment) policy,
/// * `working_set_bytes` — the size of the task's cache working set, used by
///   the cache-related overhead model (paper §3, "cache" overhead).
///
/// # Example
///
/// ```
/// use spms_task::{Task, Time};
///
/// # fn main() -> Result<(), spms_task::TaskError> {
/// let t = Task::builder(3)
///     .wcet(Time::from_millis(2))
///     .period(Time::from_millis(10))
///     .working_set_bytes(64 * 1024)
///     .build()?;
/// assert!((t.utilization() - 0.2).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Task {
    id: TaskId,
    wcet: Time,
    period: Time,
    deadline: Time,
    priority: Option<Priority>,
    working_set_bytes: Option<u64>,
}

impl Task {
    /// Creates an implicit-deadline task (`D_i = T_i`).
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::ZeroWcet`], [`TaskError::ZeroPeriod`] or
    /// [`TaskError::WcetExceedsDeadline`] when the parameters are inconsistent.
    pub fn new(id: impl Into<TaskId>, wcet: Time, period: Time) -> Result<Self, TaskError> {
        Task::builder(id).wcet(wcet).period(period).build()
    }

    /// Starts building a task with the given identifier.
    pub fn builder(id: impl Into<TaskId>) -> TaskBuilder {
        TaskBuilder::new(id)
    }

    /// The task identifier.
    #[inline]
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Worst-case execution time `C_i`.
    #[inline]
    pub fn wcet(&self) -> Time {
        self.wcet
    }

    /// Minimum inter-arrival time (period) `T_i`.
    #[inline]
    pub fn period(&self) -> Time {
        self.period
    }

    /// Relative deadline `D_i`.
    #[inline]
    pub fn deadline(&self) -> Time {
        self.deadline
    }

    /// The task's fixed priority, if one has been assigned.
    #[inline]
    pub fn priority(&self) -> Option<Priority> {
        self.priority
    }

    /// The task's cache working-set size in bytes, if modelled.
    #[inline]
    pub fn working_set_bytes(&self) -> Option<u64> {
        self.working_set_bytes
    }

    /// Utilization `U_i = C_i / T_i`.
    #[inline]
    pub fn utilization(&self) -> f64 {
        self.wcet.ratio(self.period)
    }

    /// Density `C_i / D_i` (equals utilization for implicit deadlines).
    #[inline]
    pub fn density(&self) -> f64 {
        self.wcet.ratio(self.deadline)
    }

    /// Whether the deadline equals the period.
    #[inline]
    pub fn has_implicit_deadline(&self) -> bool {
        self.deadline == self.period
    }

    /// Sets the task priority. Used by priority-assignment policies and by
    /// the splitting algorithms when promoting body subtasks.
    #[inline]
    pub fn set_priority(&mut self, priority: Priority) {
        self.priority = Some(priority);
    }

    /// Removes any assigned priority.
    #[inline]
    pub fn clear_priority(&mut self) {
        self.priority = None;
    }

    /// Returns a copy of this task with a different worst-case execution time.
    ///
    /// This is the primitive used both by task splitting (a subtask is the
    /// parent task with a smaller budget) and by overhead-aware WCET inflation.
    ///
    /// # Errors
    ///
    /// Returns an error if the new WCET violates the task's deadline or is zero.
    pub fn with_wcet(&self, wcet: Time) -> Result<Task, TaskError> {
        let mut b = TaskBuilder::from_task(self);
        b = b.wcet(wcet);
        b.build()
    }

    /// Returns a copy of this task with a different relative deadline.
    ///
    /// # Errors
    ///
    /// Returns an error if the new deadline is smaller than the WCET or larger
    /// than the period.
    pub fn with_deadline(&self, deadline: Time) -> Result<Task, TaskError> {
        let mut b = TaskBuilder::from_task(self);
        b = b.deadline(deadline);
        b.build()
    }
}

/// The decreasing-utilization order every packer offers tasks in (the `D`
/// in FFD/WFD/BFD): utilization descending, ties by ascending id.
#[inline]
pub fn by_decreasing_utilization(a: &Task, b: &Task) -> Ordering {
    b.utilization()
        .partial_cmp(&a.utilization())
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.id().cmp(&b.id()))
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}(C={}, T={}, D={})",
            self.id, self.wcet, self.period, self.deadline
        )
    }
}

/// Builder for [`Task`] values.
///
/// Obtained from [`Task::builder`]. The builder validates the parameters when
/// [`TaskBuilder::build`] is called.
#[derive(Debug, Clone)]
pub struct TaskBuilder {
    id: TaskId,
    wcet: Time,
    period: Time,
    deadline: Option<Time>,
    priority: Option<Priority>,
    working_set_bytes: Option<u64>,
}

impl TaskBuilder {
    fn new(id: impl Into<TaskId>) -> Self {
        TaskBuilder {
            id: id.into(),
            wcet: Time::ZERO,
            period: Time::ZERO,
            deadline: None,
            priority: None,
            working_set_bytes: None,
        }
    }

    fn from_task(task: &Task) -> Self {
        TaskBuilder {
            id: task.id,
            wcet: task.wcet,
            period: task.period,
            deadline: Some(task.deadline),
            priority: task.priority,
            working_set_bytes: task.working_set_bytes,
        }
    }

    /// Sets the worst-case execution time.
    pub fn wcet(mut self, wcet: Time) -> Self {
        self.wcet = wcet;
        self
    }

    /// Sets the period (minimum inter-arrival time).
    pub fn period(mut self, period: Time) -> Self {
        self.period = period;
        self
    }

    /// Sets a constrained relative deadline (defaults to the period).
    pub fn deadline(mut self, deadline: Time) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the fixed priority.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = Some(priority);
        self
    }

    /// Sets the modelled cache working-set size in bytes.
    pub fn working_set_bytes(mut self, bytes: u64) -> Self {
        self.working_set_bytes = Some(bytes);
        self
    }

    /// Validates the parameters and builds the task.
    ///
    /// # Errors
    ///
    /// * [`TaskError::ZeroWcet`] if the WCET is zero,
    /// * [`TaskError::ZeroPeriod`] if the period is zero,
    /// * [`TaskError::WcetExceedsDeadline`] if `C > D`,
    /// * [`TaskError::DeadlineExceedsPeriod`] if `D > T`.
    pub fn build(self) -> Result<Task, TaskError> {
        if self.wcet.is_zero() {
            return Err(TaskError::ZeroWcet { task: self.id });
        }
        if self.period.is_zero() {
            return Err(TaskError::ZeroPeriod { task: self.id });
        }
        let deadline = self.deadline.unwrap_or(self.period);
        if self.wcet > deadline {
            return Err(TaskError::WcetExceedsDeadline {
                task: self.id,
                wcet: self.wcet,
                deadline,
            });
        }
        if deadline > self.period {
            return Err(TaskError::DeadlineExceedsPeriod {
                task: self.id,
                deadline,
                period: self.period,
            });
        }
        Ok(Task {
            id: self.id,
            wcet: self.wcet,
            period: self.period,
            deadline,
            priority: self.priority,
            working_set_bytes: self.working_set_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(wcet_us: u64, period_us: u64) -> Task {
        Task::new(0, Time::from_micros(wcet_us), Time::from_micros(period_us)).unwrap()
    }

    #[test]
    fn decreasing_utilization_orders_ffd_style() {
        let mut tasks: Vec<Task> = [(0, 1), (1, 5), (2, 3), (3, 5)]
            .into_iter()
            .map(|(id, wcet_us)| {
                Task::new(id, Time::from_micros(wcet_us), Time::from_micros(10)).unwrap()
            })
            .collect();
        tasks.sort_by(by_decreasing_utilization);
        let ids: Vec<u32> = tasks.iter().map(|t| t.id().0).collect();
        assert_eq!(ids, vec![1, 3, 2, 0], "equal utilizations tie by id");
    }

    #[test]
    fn implicit_deadline_defaults_to_period() {
        let t = task(2, 10);
        assert_eq!(t.deadline(), t.period());
        assert!(t.has_implicit_deadline());
    }

    #[test]
    fn utilization_and_density() {
        let t = Task::builder(1)
            .wcet(Time::from_micros(2))
            .period(Time::from_micros(10))
            .deadline(Time::from_micros(5))
            .build()
            .unwrap();
        assert!((t.utilization() - 0.2).abs() < 1e-12);
        assert!((t.density() - 0.4).abs() < 1e-12);
        assert!(!t.has_implicit_deadline());
    }

    #[test]
    fn zero_wcet_rejected() {
        let err = Task::new(7, Time::ZERO, Time::from_micros(10)).unwrap_err();
        assert_eq!(err, TaskError::ZeroWcet { task: TaskId(7) });
    }

    #[test]
    fn zero_period_rejected() {
        let err = Task::new(7, Time::from_micros(1), Time::ZERO).unwrap_err();
        assert_eq!(err, TaskError::ZeroPeriod { task: TaskId(7) });
    }

    #[test]
    fn wcet_larger_than_deadline_rejected() {
        let err = Task::builder(7)
            .wcet(Time::from_micros(6))
            .period(Time::from_micros(10))
            .deadline(Time::from_micros(5))
            .build()
            .unwrap_err();
        assert!(matches!(err, TaskError::WcetExceedsDeadline { .. }));
    }

    #[test]
    fn deadline_larger_than_period_rejected() {
        let err = Task::builder(7)
            .wcet(Time::from_micros(1))
            .period(Time::from_micros(10))
            .deadline(Time::from_micros(20))
            .build()
            .unwrap_err();
        assert!(matches!(err, TaskError::DeadlineExceedsPeriod { .. }));
    }

    #[test]
    fn with_wcet_preserves_other_fields() {
        let t = Task::builder(3)
            .wcet(Time::from_micros(2))
            .period(Time::from_micros(10))
            .priority(Priority::new(4))
            .working_set_bytes(1024)
            .build()
            .unwrap();
        let t2 = t.with_wcet(Time::from_micros(3)).unwrap();
        assert_eq!(t2.wcet(), Time::from_micros(3));
        assert_eq!(t2.period(), t.period());
        assert_eq!(t2.priority(), t.priority());
        assert_eq!(t2.working_set_bytes(), Some(1024));
    }

    #[test]
    fn with_deadline_validates() {
        let t = task(2, 10);
        assert!(t.with_deadline(Time::from_micros(1)).is_err());
        assert!(t.with_deadline(Time::from_micros(11)).is_err());
        let ok = t.with_deadline(Time::from_micros(6)).unwrap();
        assert_eq!(ok.deadline(), Time::from_micros(6));
    }

    #[test]
    fn priority_can_be_set_and_cleared() {
        let mut t = task(1, 10);
        assert_eq!(t.priority(), None);
        t.set_priority(Priority::new(2));
        assert_eq!(t.priority(), Some(Priority::new(2)));
        t.clear_priority();
        assert_eq!(t.priority(), None);
    }

    #[test]
    fn display_contains_parameters() {
        let s = task(2, 10).to_string();
        assert!(s.contains("τ0"));
        assert!(s.contains("C=2us"));
        assert!(s.contains("T=10us"));
    }

    #[test]
    fn serde_roundtrip() {
        let t = Task::builder(5)
            .wcet(Time::from_micros(3))
            .period(Time::from_micros(9))
            .priority(Priority::new(1))
            .build()
            .unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: Task = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
