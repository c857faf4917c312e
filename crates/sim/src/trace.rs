//! Event traces: the raw material behind the paper's Figure 1.

use std::fmt;

use spms_core::CoreId;
use spms_task::{TaskId, Time};

/// What happened at a trace point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A job of the task was released (paper: `release()` / `rls`).
    Release,
    /// The scheduler dispatched the job on a core (paper: `sch()` + `cnt_swth()`).
    Dispatch,
    /// The running job was preempted by a higher-priority job.
    Preempt,
    /// A body subtask exhausted its budget and the job migrated to the next
    /// core in its chain.
    Migrate,
    /// The job completed all of its work for this release.
    Complete,
    /// The job missed its absolute deadline.
    DeadlineMiss,
    /// Scheduler overhead time was consumed on the core (release path,
    /// scheduling decision, context switch, queue operation or cache reload).
    Overhead,
}

impl fmt::Display for TraceEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceEventKind::Release => "release",
            TraceEventKind::Dispatch => "dispatch",
            TraceEventKind::Preempt => "preempt",
            TraceEventKind::Migrate => "migrate",
            TraceEventKind::Complete => "complete",
            TraceEventKind::DeadlineMiss => "deadline-miss",
            TraceEventKind::Overhead => "overhead",
        };
        f.write_str(s)
    }
}

/// One entry of the simulator's event trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation time of the event.
    pub time: Time,
    /// Core on which the event happened.
    pub core: CoreId,
    /// Task concerned.
    pub task: TaskId,
    /// Kind of event.
    pub kind: TraceEventKind,
    /// Extra duration attached to the event (used by
    /// [`TraceEventKind::Overhead`] entries to carry the overhead length).
    pub duration: Time,
    /// Free-form label (which overhead component, migration destination, ...).
    pub label: String,
}

/// A chronological list of [`TraceEvent`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace { events: Vec::new() }
    }

    /// Appends an event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// All events in chronological (insertion) order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events concerning one task.
    pub fn of_task(&self, task: TaskId) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.task == task)
    }

    /// Renders the trace as a simple text timeline (one line per event), the
    /// format used by the `preemption_anatomy` example to reproduce Figure 1.
    pub fn render_timeline(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let duration = if e.duration.is_zero() {
                String::new()
            } else {
                format!(" (+{})", e.duration)
            };
            let label = if e.label.is_empty() {
                String::new()
            } else {
                format!(" [{}]", e.label)
            };
            out.push_str(&format!(
                "{:>12}  {}  {:<13} {}{}{}\n",
                e.time.to_string(),
                e.core,
                e.kind.to_string(),
                e.task,
                duration,
                label
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(us: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            time: Time::from_micros(us),
            core: CoreId(0),
            task: TaskId(1),
            kind,
            duration: Time::ZERO,
            label: String::new(),
        }
    }

    #[test]
    fn push_and_filter() {
        let mut trace = Trace::new();
        assert!(trace.is_empty());
        trace.push(event(0, TraceEventKind::Release));
        trace.push(event(1, TraceEventKind::Dispatch));
        trace.push(event(5, TraceEventKind::Complete));
        assert_eq!(trace.len(), 3);
        assert_eq!(
            trace
                .events()
                .iter()
                .filter(|e| e.kind == TraceEventKind::Dispatch)
                .count(),
            1
        );
        assert_eq!(trace.of_task(TaskId(1)).count(), 3);
        assert_eq!(trace.of_task(TaskId(9)).count(), 0);
    }

    #[test]
    fn timeline_rendering_contains_all_kinds() {
        let mut trace = Trace::new();
        trace.push(event(0, TraceEventKind::Release));
        trace.push(TraceEvent {
            duration: Time::from_micros(3),
            label: "rls".to_owned(),
            ..event(0, TraceEventKind::Overhead)
        });
        trace.push(event(10, TraceEventKind::Migrate));
        let text = trace.render_timeline();
        assert!(text.contains("release"));
        assert!(text.contains("overhead"));
        assert!(text.contains("migrate"));
        assert!(text.contains("rls"));
        assert!(text.contains("+3us"));
    }

    #[test]
    fn kind_display_is_stable() {
        assert_eq!(TraceEventKind::DeadlineMiss.to_string(), "deadline-miss");
        assert_eq!(TraceEventKind::Complete.to_string(), "complete");
    }
}
