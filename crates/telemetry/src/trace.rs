//! Per-decision stage traces in a bounded ring buffer.
//!
//! A [`StageTrace`] records one admission decision as the ordered list of
//! cascade stages it visited, each with an outcome and a wall-clock span.
//! Traces land in a [`TraceRing`] that keeps only the most recent N, so
//! tracing every decision of a soak run costs O(ring capacity) memory.
//!
//! The stage *structure* (names, order, outcomes) is deterministic; only
//! the `nanos` fields are wall-clock. Consumers that diff traces across
//! runs must ignore `nanos`, exactly like the registry's timing section.

use std::collections::VecDeque;

/// How one visited stage ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOutcome {
    /// The stage produced the decision.
    Success,
    /// The stage gave up and the cascade fell through to the next one.
    Failure,
}

/// One visited stage within a decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSpan {
    /// Stage name (e.g. `fast_whole`).
    pub stage: &'static str,
    /// How the stage ended.
    pub outcome: SpanOutcome,
    /// Wall-clock nanoseconds spent in the stage (not deterministic).
    pub nanos: u64,
}

/// One decision's trace through the cascade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTrace {
    /// Monotonic sequence number assigned by the ring.
    pub seq: u64,
    /// The subject task's raw id.
    pub task: u64,
    /// Final decision label (e.g. `admitted_fast_split`, `rejected`).
    pub label: &'static str,
    /// The visited stages, in cascade order.
    pub spans: Vec<StageSpan>,
}

/// A bounded ring of the most recent [`StageTrace`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRing {
    capacity: usize,
    next_seq: u64,
    buf: VecDeque<StageTrace>,
}

impl TraceRing {
    /// A ring keeping the `capacity` most recent traces (capacity 0
    /// disables recording entirely).
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            capacity,
            next_seq: 0,
            buf: VecDeque::with_capacity(capacity.min(1024)),
        }
    }

    /// Records a trace of the spans taken out of `spans`, assigning and
    /// returning its sequence number; the oldest trace is dropped once the
    /// ring is full. `spans` is left empty, holding the dropped trace's
    /// buffer (or its own, when nothing is retained), so a caller that
    /// reuses it allocates nothing once the ring is full.
    pub fn record(&mut self, task: u64, label: &'static str, spans: &mut Vec<StageSpan>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.capacity == 0 {
            spans.clear();
            return seq;
        }
        let recycled = if self.buf.len() == self.capacity {
            self.buf.pop_front().map(|evicted| evicted.spans)
        } else {
            None
        };
        let mut buffer = recycled.unwrap_or_default();
        buffer.clear();
        self.buf.push_back(StageTrace {
            seq,
            task,
            label,
            spans: std::mem::replace(spans, buffer),
        });
        seq
    }

    /// Number of traces currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no traces are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates retained traces, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &StageTrace> {
        self.buf.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stage: &'static str, outcome: SpanOutcome) -> StageSpan {
        StageSpan {
            stage,
            outcome,
            nanos: 1,
        }
    }

    #[test]
    fn the_ring_is_bounded_and_keeps_the_most_recent() {
        let mut ring = TraceRing::new(2);
        let mut spans = Vec::new();
        for task in 0..5u64 {
            spans.push(span("fast_whole", SpanOutcome::Success));
            ring.record(task, "admitted_fast_whole", &mut spans);
            assert!(spans.is_empty());
            // Once the ring is full, the evicted trace's buffer comes back.
            assert_eq!(spans.capacity() > 0, task >= 2);
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.next_seq, 5);
        let seqs: Vec<u64> = ring.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
        assert_eq!(ring.iter().next().unwrap().task, 3);
    }

    #[test]
    fn capacity_zero_counts_but_retains_nothing() {
        let mut ring = TraceRing::new(0);
        let mut spans = vec![span("fast_whole", SpanOutcome::Failure)];
        assert_eq!(ring.record(7, "rejected", &mut spans), 0);
        assert!(spans.is_empty());
        assert_eq!(ring.record(8, "rejected", &mut spans), 1);
        assert!(ring.is_empty());
        assert_eq!(ring.next_seq, 2);
    }

    #[test]
    fn spans_keep_cascade_order() {
        let mut ring = TraceRing::new(4);
        ring.record(
            1,
            "admitted_repair",
            &mut vec![
                span("fast_whole", SpanOutcome::Failure),
                span("fast_split", SpanOutcome::Failure),
                span("repair", SpanOutcome::Success),
            ],
        );
        let trace = ring.iter().next().unwrap();
        let stages: Vec<&str> = trace.spans.iter().map(|s| s.stage).collect();
        assert_eq!(stages, vec!["fast_whole", "fast_split", "repair"]);
    }
}
