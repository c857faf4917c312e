//! The event loop's processing order against an independent reference.
//!
//! The loop keeps a loaded trace in a sorted vector and everything
//! scheduled one at a time in a heap, and merges the two while it runs.
//! This suite drives one loop through every way events enter it — two
//! out-of-order `load_trace` calls, `schedule()`d workload events and
//! ticks sharing timestamps with the trace, and a `load_trace` after a
//! completed run — and checks the processed log against a reference built
//! without any merge: every entry with its sequence number (one counter
//! across all calls, in call order), sorted by `(time, sequence)`, cut
//! into same-time batches, and each batch of two or more shuffled by a
//! ChaCha8 generator seeded afresh for every run.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spms_online::{
    EngineEvent, EventLoop, EventLoopConfig, OnlineConfig, ShardedAdmission, TimedEvent,
    WorkloadEvent,
};
use spms_task::{Task, TaskId, Time};

const SHUFFLE_SEED: u64 = 17;

/// One entry as the reference sees it: when, in which order it entered,
/// and the logged event (`None` for ticks, which are not logged).
type Entry = (Time, u64, Option<WorkloadEvent>);

/// The loop under test plus the reference's record of what entered it.
struct Recorder {
    event_loop: EventLoop,
    entries: Vec<Entry>,
    next_seq: u64,
    next_id: u32,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            event_loop: EventLoop::new(EventLoopConfig::new(SHUFFLE_SEED).with_event_log(true)),
            entries: Vec::new(),
            next_seq: 0,
            next_id: 0,
        }
    }

    /// A fresh arrival or, every third one, a lease renewal of a task that
    /// never arrived (logged, never decided).
    fn workload(&mut self) -> WorkloadEvent {
        let id = self.next_id;
        self.next_id += 1;
        if id % 3 == 2 {
            WorkloadEvent::Renew(TaskId(id))
        } else {
            let task =
                Task::new(id, Time::from_micros(10), Time::from_millis(100)).expect("valid task");
            WorkloadEvent::Arrive(task)
        }
    }

    fn load_trace(&mut self, times_ms: &[u64]) {
        let trace: Vec<TimedEvent> = times_ms
            .iter()
            .map(|ms| TimedEvent {
                at: Time::from_millis(*ms),
                event: self.workload(),
            })
            .collect();
        self.event_loop.load_trace(&trace);
        for timed in trace {
            self.record(timed.at, Some(timed.event));
        }
    }

    fn schedule_workload(&mut self, at_ms: u64) {
        let event = self.workload();
        let at = Time::from_millis(at_ms);
        self.event_loop
            .schedule(at, EngineEvent::Workload(event.clone()));
        self.record(at, Some(event));
    }

    fn schedule_tick(&mut self, at_ms: u64, tick: EngineEvent) {
        let at = Time::from_millis(at_ms);
        self.event_loop.schedule(at, tick);
        self.record(at, None);
    }

    fn record(&mut self, at: Time, event: Option<WorkloadEvent>) {
        self.entries.push((at, self.next_seq, event));
        self.next_seq += 1;
    }

    /// Runs the loop, returning what it logged during this run and what
    /// the reference expects it to have logged.
    fn run(&mut self, engine: &mut ShardedAdmission) -> (Vec<TimedEvent>, Vec<TimedEvent>) {
        let logged_before = self.event_loop.event_log().len();
        self.event_loop.run(engine);
        let logged = self.event_loop.event_log()[logged_before..].to_vec();
        (logged, reference(std::mem::take(&mut self.entries)))
    }
}

/// The processing order of one run: sorted by `(time, sequence)`, each
/// same-time batch of two or more shuffled by the run's fresh generator.
fn reference(mut entries: Vec<Entry>) -> Vec<TimedEvent> {
    entries.sort_by_key(|(at, seq, _)| (*at, *seq));
    let mut rng = ChaCha8Rng::seed_from_u64(SHUFFLE_SEED);
    let mut processed = Vec::new();
    for batch in entries.chunk_by_mut(|a, b| a.0 == b.0) {
        if batch.len() > 1 {
            batch.shuffle(&mut rng);
        }
        processed.extend(
            batch.iter().filter_map(|(at, _, event)| {
                event.clone().map(|event| TimedEvent { at: *at, event })
            }),
        );
    }
    processed
}

#[test]
fn merged_trace_and_heap_events_follow_the_sorted_shuffled_reference() {
    let mut engine = ShardedAdmission::new(OnlineConfig::new(2), 1).expect("one shard");
    let mut recorder = Recorder::new();

    // Two out-of-order traces whose times interleave, with scheduled
    // workload events and ticks landing on the same timestamps.
    recorder.load_trace(&[30, 10, 10, 50, 20, 10, 40]);
    recorder.schedule_workload(10);
    recorder.schedule_tick(10, EngineEvent::Rebalance);
    recorder.schedule_workload(35);
    recorder.load_trace(&[20, 5, 50, 50, 10, 60]);
    recorder.schedule_tick(50, EngineEvent::Audit);
    recorder.schedule_workload(50);
    recorder.schedule_workload(0);
    let (logged, expected) = recorder.run(&mut engine);
    assert_eq!(logged.len(), 17, "every workload event is logged once");
    assert_eq!(logged, expected);

    // A trace loaded after that run, reaching back before the loop's
    // clock, with more scheduled events on its timestamps.
    recorder.load_trace(&[70, 25, 70, 90, 70]);
    recorder.schedule_workload(70);
    recorder.schedule_tick(70, EngineEvent::Rebalance);
    recorder.load_trace(&[80, 70]);
    let (logged, expected) = recorder.run(&mut engine);
    assert_eq!(logged.len(), 8);
    assert_eq!(logged, expected);
}

/// The seeded shuffle is what orders a batch: the reference is not
/// trivially the sorted order.
#[test]
fn the_reference_reorders_same_time_batches() {
    let mut recorder = Recorder::new();
    recorder.load_trace(&[10; 8]);
    let sorted: Vec<TimedEvent> = recorder
        .entries
        .iter()
        .map(|(at, _, event)| TimedEvent {
            at: *at,
            event: event.clone().expect("workload"),
        })
        .collect();
    let mut engine = ShardedAdmission::new(OnlineConfig::new(2), 1).expect("one shard");
    let (logged, expected) = recorder.run(&mut engine);
    assert_eq!(logged, expected);
    assert_ne!(logged, sorted);
}
