//! The workload-event stream the admission controller consumes, and the
//! JSON-lines trace format it is recorded in.

use std::fmt;

use serde::{Deserialize, Serialize};
use spms_task::{Task, TaskError, TaskId, Time};

/// One event of an online workload: a task asking to join the system, or an
/// admitted task leaving it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadEvent {
    /// A new task arrives and requests admission.
    Arrive(Task),
    /// A previously admitted task departs and releases its capacity.
    Depart(TaskId),
    /// A resident task renews its admission lease. Leases live in the
    /// [`EventLoop`](crate::EventLoop): a renewal pushes the task's
    /// pending deadline expiration out by one lease period. The event
    /// never reaches the admission cascade — a bare controller records it
    /// as a [`DecisionKind::RenewNoted`](crate::DecisionKind::RenewNoted)
    /// no-op so leased traces stay replayable.
    Renew(TaskId),
}

impl WorkloadEvent {
    /// The task id the event concerns.
    pub fn task_id(&self) -> TaskId {
        match self {
            WorkloadEvent::Arrive(task) => task.id(),
            WorkloadEvent::Depart(id) => *id,
            WorkloadEvent::Renew(id) => *id,
        }
    }

    /// Whether this is an arrival.
    pub fn is_arrival(&self) -> bool {
        matches!(self, WorkloadEvent::Arrive(_))
    }
}

/// A [`WorkloadEvent`] stamped with its absolute occurrence time.
///
/// Timed traces feed the [`EventLoop`](crate::EventLoop): events sharing a
/// timestamp form one batch whose processing order is decided by the loop's
/// seeded tie-shuffle, while events at distinct timestamps keep their
/// temporal order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// Absolute time the event occurs at.
    pub at: Time,
    /// The workload event itself.
    pub event: WorkloadEvent,
}

/// Why a JSON-lines workload trace failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// A non-empty line was neither a [`TimedEvent`] nor a bare
    /// [`WorkloadEvent`].
    MalformedLine {
        /// 1-based line number in the trace source.
        line: usize,
        /// What the parser objected to.
        message: String,
    },
    /// An arrival line parsed, but its task breaks the [`Task`] builder's
    /// rules (zero WCET or period, `C > D`, or `D > T`).
    InvalidTask {
        /// 1-based line number in the trace source.
        line: usize,
        /// The rule the task breaks.
        error: TaskError,
    },
    /// The trace contained no events at all.
    Empty,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::MalformedLine { line, message } => {
                write!(f, "trace line {line}: not a workload event ({message})")
            }
            TraceError::InvalidTask { line, error } => {
                write!(f, "trace line {line}: invalid task ({error})")
            }
            TraceError::Empty => write!(f, "trace contains no events"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Parses a JSON-lines workload trace: each non-empty line is either a
/// [`TimedEvent`] (as written by `spms soak --dump-trace`) or a bare
/// [`WorkloadEvent`]. Timestamps are dropped — replays feed the events in
/// recorded order. Blank lines are skipped; anything else malformed — a
/// line that is not an event, or an arrival whose task the [`Task`]
/// builder would refuse — is a typed [`TraceError`] naming the offending
/// line.
pub fn parse_trace(source: &str) -> Result<Vec<WorkloadEvent>, TraceError> {
    let mut events = Vec::new();
    for (index, line) in source.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let event = serde_json::from_str::<TimedEvent>(line)
            .map(|timed| timed.event)
            .or_else(|_| serde_json::from_str::<WorkloadEvent>(line))
            .map_err(|e| TraceError::MalformedLine {
                line: index + 1,
                message: e.to_string(),
            })?;
        if let WorkloadEvent::Arrive(task) = &event {
            // Deserialization fills the fields directly; rebuilding the task
            // applies the builder's validation.
            task.with_deadline(task.deadline())
                .map_err(|error| TraceError::InvalidTask {
                    line: index + 1,
                    error,
                })?;
        }
        events.push(event);
    }
    if events.is_empty() {
        return Err(TraceError::Empty);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms_task::Time;

    #[test]
    fn event_accessors() {
        let t = Task::new(3, Time::from_millis(1), Time::from_millis(10)).unwrap();
        let arrive = WorkloadEvent::Arrive(t);
        assert!(arrive.is_arrival());
        assert_eq!(arrive.task_id(), TaskId(3));
        let depart = WorkloadEvent::Depart(TaskId(7));
        assert!(!depart.is_arrival());
        assert_eq!(depart.task_id(), TaskId(7));
        let renew = WorkloadEvent::Renew(TaskId(5));
        assert!(!renew.is_arrival());
        assert!(matches!(renew, WorkloadEvent::Renew(_)));
        assert_eq!(renew.task_id(), TaskId(5));
    }

    #[test]
    fn renewals_round_trip_through_traces() {
        let renew = serde_json::to_string(&WorkloadEvent::Renew(TaskId(4))).unwrap();
        let bare = serde_json::to_string(&WorkloadEvent::Depart(TaskId(1))).unwrap();
        let source = format!("{renew}\n{bare}\n");
        let events = parse_trace(&source).unwrap();
        assert_eq!(
            events,
            vec![
                WorkloadEvent::Renew(TaskId(4)),
                WorkloadEvent::Depart(TaskId(1))
            ]
        );
    }

    #[test]
    fn traces_parse_timed_and_bare_lines() {
        let t = Task::new(1, Time::from_millis(1), Time::from_millis(10)).unwrap();
        let timed = serde_json::to_string(&TimedEvent {
            at: Time::from_millis(5),
            event: WorkloadEvent::Arrive(t.clone()),
        })
        .unwrap();
        let bare = serde_json::to_string(&WorkloadEvent::Depart(TaskId(1))).unwrap();
        let source = format!("{timed}\n\n   \n{bare}\n");
        let events = parse_trace(&source).unwrap();
        assert_eq!(
            events,
            vec![WorkloadEvent::Arrive(t), WorkloadEvent::Depart(TaskId(1))]
        );
    }

    #[test]
    fn malformed_lines_name_their_line_number() {
        let bare = serde_json::to_string(&WorkloadEvent::Depart(TaskId(1))).unwrap();
        let source = format!("{bare}\n{bare}\n{{\"nonsense\": true}}\n");
        match parse_trace(&source) {
            Err(TraceError::MalformedLine { line: 3, .. }) => {}
            other => panic!("expected a line-3 parse error, got {other:?}"),
        }
        let rendered = parse_trace(&source).unwrap_err().to_string();
        assert!(rendered.contains("line 3"), "message was: {rendered}");
    }

    /// An arrival line with the given task parameters in nanoseconds.
    fn arrival_line(wcet: u64, period: u64, deadline: u64) -> String {
        format!(
            "{{\"Arrive\":{{\"id\":3,\"wcet\":{wcet},\"period\":{period},\
             \"deadline\":{deadline},\"priority\":null,\"working_set_bytes\":null}}}}"
        )
    }

    /// Parses a two-line trace whose second line is `line`.
    fn parse_second(line: &str) -> Result<Vec<WorkloadEvent>, TraceError> {
        parse_trace(&format!(
            "{}\n{line}\n",
            arrival_line(1_000, 10_000, 10_000)
        ))
    }

    #[test]
    fn arrival_lines_parse_into_their_task() {
        let events = parse_second(&arrival_line(2_000, 10_000, 8_000)).unwrap();
        let task = Task::builder(3)
            .wcet(Time::from_micros(2))
            .period(Time::from_micros(10))
            .deadline(Time::from_micros(8))
            .build()
            .unwrap();
        assert_eq!(events[1], WorkloadEvent::Arrive(task));
    }

    #[test]
    fn zero_period_arrivals_are_rejected_with_their_line() {
        assert_eq!(
            parse_second(&arrival_line(1_000, 0, 0)),
            Err(TraceError::InvalidTask {
                line: 2,
                error: TaskError::ZeroPeriod { task: TaskId(3) },
            })
        );
    }

    #[test]
    fn zero_wcet_arrivals_are_rejected_with_their_line() {
        assert_eq!(
            parse_second(&arrival_line(0, 10_000, 10_000)),
            Err(TraceError::InvalidTask {
                line: 2,
                error: TaskError::ZeroWcet { task: TaskId(3) },
            })
        );
    }

    #[test]
    fn wcet_beyond_deadline_arrivals_are_rejected_with_their_line() {
        let err = parse_second(&arrival_line(6_000, 10_000, 5_000)).unwrap_err();
        assert!(
            matches!(
                err,
                TraceError::InvalidTask {
                    line: 2,
                    error: TaskError::WcetExceedsDeadline { .. },
                }
            ),
            "got {err:?}"
        );
        assert!(err.to_string().contains("trace line 2: invalid task"));
    }

    #[test]
    fn deadline_beyond_period_arrivals_are_rejected_with_their_line() {
        let err = parse_second(&arrival_line(1_000, 10_000, 12_000)).unwrap_err();
        assert!(
            matches!(
                err,
                TraceError::InvalidTask {
                    line: 2,
                    error: TaskError::DeadlineExceedsPeriod { .. },
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn empty_traces_are_a_typed_error() {
        assert_eq!(parse_trace(""), Err(TraceError::Empty));
        assert_eq!(parse_trace("\n  \n"), Err(TraceError::Empty));
    }
}
