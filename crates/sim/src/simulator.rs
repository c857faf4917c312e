//! The discrete-event scheduler simulator.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use spms_analysis::OverheadModel;
use spms_core::{CoreId, Partition};
use spms_queues::{ReadyQueue, SleepQueue};
use spms_task::Time;

use crate::{Chain, CoreStats, DeadlineMiss, SimulationReport, Trace, TraceEvent, TraceEventKind};

/// Configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// How much scheduling time to simulate.
    pub duration: Time,
    /// Overheads injected at the scheduler's release, dispatch, preemption
    /// and migration points. Use [`OverheadModel::zero`] for an idealised
    /// run.
    pub overhead: OverheadModel,
    /// Whether to record a full event trace (Figure 1 material). Traces of
    /// long runs can be large; leave off for acceptance-ratio experiments.
    pub record_trace: bool,
    /// Maximum sporadic release jitter. [`Time::ZERO`] (the default) keeps
    /// the classic synchronous-periodic release pattern; a positive value
    /// delays every release after the first by a seeded random amount in
    /// `[0, release_jitter]`, so consecutive releases of a task are
    /// separated by at least its period (a legal sporadic arrival
    /// sequence). Deadlines are measured from the actual release.
    pub release_jitter: Time,
    /// Seed of the jitter stream; two runs with equal configurations and
    /// seeds release jobs at identical times.
    pub jitter_seed: u64,
}

impl SimulationConfig {
    /// A configuration with no overhead, no tracing and synchronous
    /// periodic releases (no jitter).
    pub fn new(duration: Time) -> Self {
        SimulationConfig {
            duration,
            overhead: OverheadModel::zero(),
            record_trace: false,
            release_jitter: Time::ZERO,
            jitter_seed: 0,
        }
    }

    /// Sets the injected overhead model (builder style).
    pub fn with_overhead(mut self, overhead: OverheadModel) -> Self {
        self.overhead = overhead;
        self
    }

    /// Enables event tracing (builder style).
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Enables seeded sporadic release jitter (builder style): each release
    /// after the synchronous one at time zero is delayed by a random amount
    /// in `[0, jitter]` drawn from a ChaCha8 stream seeded with `seed`.
    pub fn with_release_jitter(mut self, jitter: Time, seed: u64) -> Self {
        self.release_jitter = jitter;
        self.jitter_seed = seed;
        self
    }
}

#[derive(Debug, Clone)]
struct Job {
    chain: usize,
    release: Time,
    abs_deadline: Time,
    piece: usize,
    remaining: Time,
    /// Overhead charged to the currently executing piece, attributed to the
    /// core when the piece completes.
    charged: Time,
    needs_cache_reload: bool,
    arrived_by_migration: bool,
    completed: Option<Time>,
}

#[derive(Debug, Clone, Copy)]
struct RunningJob {
    job: usize,
    resumed_at: Time,
    token: u64,
}

struct CoreState {
    ready: ReadyQueue<(u32, u64), usize>,
    sleep: SleepQueue<(Time, usize), ()>,
    running: Option<RunningJob>,
    token: u64,
    stats: CoreStats,
}

impl CoreState {
    fn new() -> Self {
        CoreState {
            ready: ReadyQueue::new(),
            sleep: SleepQueue::new(),
            running: None,
            token: 0,
            stats: CoreStats::default(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SliceEnd {
    time: Time,
    core: usize,
    token: u64,
}

impl Ord for SliceEnd {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.core, self.token).cmp(&(other.time, other.core, other.token))
    }
}

impl PartialOrd for SliceEnd {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The discrete-event simulator of the semi-partitioned scheduler.
///
/// See the [crate documentation](crate) for an end-to-end example.
pub struct Simulator {
    chains: Vec<Chain>,
    config: SimulationConfig,
    cores: Vec<CoreState>,
    jobs: Vec<Job>,
    slice_events: BinaryHeap<Reverse<SliceEnd>>,
    jitter_rng: Option<ChaCha8Rng>,
    seq: u64,
    now: Time,
    jobs_released: u64,
    jobs_completed: u64,
    preemptions: u64,
    migrations: u64,
    dispatches: u64,
    overhead_time: Time,
    deadline_misses: Vec<DeadlineMiss>,
    trace: Trace,
}

impl Simulator {
    /// Builds a simulator for a partition produced by one of the algorithms
    /// in `spms-core`.
    pub fn new(partition: &Partition, config: SimulationConfig) -> Self {
        Simulator::from_chains(
            Chain::from_partition(partition),
            partition.core_count(),
            config,
        )
    }

    /// Builds a simulator directly from execution chains (used by tests and
    /// by the Figure 1 example, which constructs a two-task scenario by hand).
    pub fn from_chains(chains: Vec<Chain>, cores: usize, config: SimulationConfig) -> Self {
        let jitter_rng = (!config.release_jitter.is_zero())
            .then(|| ChaCha8Rng::seed_from_u64(config.jitter_seed));
        let mut sim = Simulator {
            chains,
            config,
            cores: (0..cores).map(|_| CoreState::new()).collect(),
            jobs: Vec::new(),
            slice_events: BinaryHeap::new(),
            jitter_rng,
            seq: 0,
            now: Time::ZERO,
            jobs_released: 0,
            jobs_completed: 0,
            preemptions: 0,
            migrations: 0,
            dispatches: 0,
            overhead_time: Time::ZERO,
            deadline_misses: Vec::new(),
            trace: Trace::new(),
        };
        // All tasks release synchronously at time zero (the critical instant).
        for (idx, chain) in sim.chains.iter().enumerate() {
            let core = chain.first_core().0;
            sim.cores[core].sleep.add((Time::ZERO, idx), ());
        }
        sim
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(mut self) -> SimulationReport {
        loop {
            let next_release = self
                .cores
                .iter()
                .filter_map(|c| c.sleep.next_release().map(|(k, ())| k.0))
                .min();
            let next_slice = self.slice_events.peek().map(|Reverse(e)| e.time);
            let next = match (next_release, next_slice) {
                (None, None) => break,
                (Some(r), None) => r,
                (None, Some(s)) => s,
                (Some(r), Some(s)) => r.min(s),
            };
            if next > self.config.duration {
                break;
            }
            self.now = next;
            self.process_slice_ends();
            self.process_releases();
        }
        self.finalise()
    }

    // ------------------------------------------------------------------
    // event handlers
    // ------------------------------------------------------------------

    fn process_slice_ends(&mut self) {
        while let Some(Reverse(ev)) = self.slice_events.peek().copied() {
            if ev.time != self.now {
                break;
            }
            self.slice_events.pop();
            let core = ev.core;
            let Some(running) = self.cores[core].running else {
                continue;
            };
            if running.token != ev.token {
                continue; // stale event from before a preemption
            }
            self.cores[core].running = None;
            self.complete_piece(running.job, core);
        }
    }

    fn process_releases(&mut self) {
        for core in 0..self.cores.len() {
            loop {
                let due = match self.cores[core].sleep.next_release() {
                    Some(((t, chain), ())) if *t == self.now => (*t, *chain),
                    _ => break,
                };
                self.cores[core].sleep.pop_earliest();
                self.release_job(due.1, core);
            }
            self.try_schedule(core);
        }
    }

    fn release_job(&mut self, chain_idx: usize, core: usize) {
        let chain = &self.chains[chain_idx];
        let mut release_charge = self.config.overhead.release
            + self.config.overhead.sleep_queue_delete
            + self.config.overhead.ready_queue_add_local;
        if chain.pieces.len() == 1 {
            // A whole task also pays the sleep-queue insertion when it
            // finishes; pre-charging it keeps the cost attributed to the job
            // that causes it (split chains charge the remote insertion to
            // their tail piece instead).
            release_charge += self.config.overhead.sleep_queue_add_local;
        }
        let job = Job {
            chain: chain_idx,
            release: self.now,
            abs_deadline: self.now + chain.deadline,
            piece: 0,
            remaining: chain.pieces[0].budget + release_charge,
            charged: release_charge,
            needs_cache_reload: false,
            arrived_by_migration: false,
            completed: None,
        };
        let job_idx = self.jobs.len();
        let priority = chain.pieces[0].priority.level();
        self.jobs.push(job);
        self.jobs_released += 1;
        self.seq += 1;
        self.cores[core].ready.add((priority, self.seq), job_idx);
        // Queue the next release on the same (first) core: one period later,
        // plus a seeded sporadic jitter when configured (inter-arrival times
        // never drop below the period, so the sequence stays legal for a
        // sporadic task and the analysis remains sound).
        let jitter = match self.jitter_rng.as_mut() {
            Some(rng) => Time::from_nanos(rng.gen_range(0..=self.config.release_jitter.as_nanos())),
            None => Time::ZERO,
        };
        let next = self.now + chain.period + jitter;
        self.cores[core].sleep.add((next, chain_idx), ());
        if self.config.record_trace {
            let parent = chain.parent;
            self.trace_event(core, parent, TraceEventKind::Release, Time::ZERO, "");
            if !release_charge.is_zero() {
                self.trace_event(
                    core,
                    parent,
                    TraceEventKind::Overhead,
                    release_charge,
                    "rls + sleep-queue delete + ready-queue add",
                );
            }
        }
    }

    fn try_schedule(&mut self, core: usize) {
        // Preempt the running job if a higher-priority job is waiting.
        if let (Some(running), Some((head_key, _))) =
            (self.cores[core].running, self.cores[core].ready.peek())
        {
            let running_priority = self.chains[self.jobs[running.job].chain].pieces
                [self.jobs[running.job].piece]
                .priority
                .level();
            if head_key.0 < running_priority {
                self.preempt(core, running);
            }
        }
        if self.cores[core].running.is_none() {
            if let Some(((_prio, _seq), job_idx)) = self.cores[core].ready.delete_highest() {
                self.dispatch(core, job_idx);
            }
        }
    }

    fn preempt(&mut self, core: usize, running: RunningJob) {
        let executed = self.now.saturating_sub(running.resumed_at);
        let job = &mut self.jobs[running.job];
        job.remaining = job.remaining.saturating_sub(executed);
        job.needs_cache_reload = true;
        // The scheduler puts the preempted job back into the ready queue.
        let requeue_charge = self.config.overhead.ready_queue_add_local;
        job.remaining += requeue_charge;
        job.charged += requeue_charge;
        let priority = self.chains[job.chain].pieces[job.piece].priority.level();
        let parent = self.chains[job.chain].parent;
        self.seq += 1;
        self.cores[core]
            .ready
            .add((priority, self.seq), running.job);
        self.cores[core].running = None;
        self.cores[core].token += 1; // invalidate the outstanding slice end
        self.cores[core].stats.preemptions += 1;
        self.preemptions += 1;
        if self.config.record_trace {
            self.trace_event(core, parent, TraceEventKind::Preempt, Time::ZERO, "");
        }
    }

    fn dispatch(&mut self, core: usize, job_idx: usize) {
        let overhead = &self.config.overhead;
        let cache = if self.jobs[job_idx].arrived_by_migration {
            overhead.cache_reload_migration
        } else if self.jobs[job_idx].needs_cache_reload {
            overhead.cache_reload_local
        } else {
            Time::ZERO
        };
        let dispatch_charge =
            overhead.schedule + overhead.context_switch + overhead.ready_queue_delete + cache;
        let job = &mut self.jobs[job_idx];
        job.remaining += dispatch_charge;
        job.charged += dispatch_charge;
        job.needs_cache_reload = false;
        job.arrived_by_migration = false;
        let remaining = job.remaining;
        let parent = self.chains[job.chain].parent;

        self.cores[core].token += 1;
        let token = self.cores[core].token;
        self.cores[core].running = Some(RunningJob {
            job: job_idx,
            resumed_at: self.now,
            token,
        });
        self.cores[core].stats.dispatches += 1;
        self.dispatches += 1;
        self.slice_events.push(Reverse(SliceEnd {
            time: self.now + remaining,
            core,
            token,
        }));
        if self.config.record_trace {
            self.trace_event(core, parent, TraceEventKind::Dispatch, Time::ZERO, "");
            if !dispatch_charge.is_zero() {
                self.trace_event(
                    core,
                    parent,
                    TraceEventKind::Overhead,
                    dispatch_charge,
                    "sch + cnt_swth + ready-queue delete + cache reload",
                );
            }
        }
    }

    fn complete_piece(&mut self, job_idx: usize, core: usize) {
        let chain_idx = self.jobs[job_idx].chain;
        let piece_idx = self.jobs[job_idx].piece;
        let parent = self.chains[chain_idx].parent;
        let piece_budget = self.chains[chain_idx].pieces[piece_idx].budget;
        let charged = self.jobs[job_idx].charged;
        self.cores[core].stats.busy += piece_budget;
        self.cores[core].stats.overhead += charged;
        self.overhead_time += charged;
        self.jobs[job_idx].charged = Time::ZERO;

        let is_last = piece_idx + 1 == self.chains[chain_idx].pieces.len();
        if is_last {
            self.jobs[job_idx].completed = Some(self.now);
            self.jobs_completed += 1;
            if self.now > self.jobs[job_idx].abs_deadline {
                self.deadline_misses.push(DeadlineMiss {
                    task: parent,
                    release: self.jobs[job_idx].release,
                    deadline: self.jobs[job_idx].abs_deadline,
                    completion: Some(self.now),
                });
                if self.config.record_trace {
                    self.trace_event(core, parent, TraceEventKind::DeadlineMiss, Time::ZERO, "");
                }
            }
            if self.config.record_trace {
                self.trace_event(core, parent, TraceEventKind::Complete, Time::ZERO, "");
            }
        } else {
            // Body subtask exhausted its budget: migrate to the next core.
            let next_piece = &self.chains[chain_idx].pieces[piece_idx + 1];
            let dest = next_piece.core.0;
            let next_is_tail = piece_idx + 2 == self.chains[chain_idx].pieces.len();
            let mut migration_charge = self.config.overhead.schedule
                + self.config.overhead.context_switch
                + self.config.overhead.ready_queue_add_remote;
            if next_is_tail {
                // The tail piece re-inserts the task into the sleep queue of
                // the core hosting the first piece when it finishes (a remote
                // insertion); pre-charge it to the tail piece.
                migration_charge += self.config.overhead.sleep_queue_add_remote;
            }
            {
                let job = &mut self.jobs[job_idx];
                job.piece += 1;
                job.remaining = next_piece.budget + migration_charge;
                job.charged = migration_charge;
                job.arrived_by_migration = true;
            }
            let priority = next_piece.priority.level();
            self.seq += 1;
            self.cores[dest].ready.add((priority, self.seq), job_idx);
            self.cores[dest].stats.preemptions += 0; // no-op, keeps the field visible
            self.migrations += 1;
            if self.config.record_trace {
                self.trace_event(
                    core,
                    parent,
                    TraceEventKind::Migrate,
                    migration_charge,
                    &format!("to P{dest}"),
                );
            }
            self.try_schedule(dest);
        }
        self.try_schedule(core);
    }

    fn trace_event(
        &mut self,
        core: usize,
        task: spms_task::TaskId,
        kind: TraceEventKind,
        duration: Time,
        label: &str,
    ) {
        self.trace.push(TraceEvent {
            time: self.now,
            core: CoreId(core),
            task,
            kind,
            duration,
            label: label.to_owned(),
        });
    }

    fn finalise(mut self) -> SimulationReport {
        // Jobs that never finished but whose deadline fell inside the run are
        // deadline misses too.
        for job in &self.jobs {
            if job.completed.is_none() && job.abs_deadline <= self.config.duration {
                self.deadline_misses.push(DeadlineMiss {
                    task: self.chains[job.chain].parent,
                    release: job.release,
                    deadline: job.abs_deadline,
                    completion: None,
                });
            }
        }
        SimulationReport {
            duration: self.config.duration,
            jobs_released: self.jobs_released,
            jobs_completed: self.jobs_completed,
            deadline_misses: self.deadline_misses,
            preemptions: self.preemptions,
            migrations: self.migrations,
            dispatches: self.dispatches,
            overhead_time: self.overhead_time,
            per_core: self.cores.iter().map(|c| c.stats).collect(),
            trace: self.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_of(trace: &Trace, kind: TraceEventKind) -> usize {
        trace.events().iter().filter(|e| e.kind == kind).count()
    }
    use spms_core::{PartitionOutcome, PartitionedFixedPriority, Partitioner, SemiPartitionedFpTs};
    use spms_task::{Priority, Task, TaskSet, TaskSetGenerator};

    fn simple_chain(
        parent: u32,
        budget_ms: u64,
        period_ms: u64,
        priority: u32,
        core: usize,
    ) -> Chain {
        Chain {
            parent: spms_task::TaskId(parent),
            period: Time::from_millis(period_ms),
            deadline: Time::from_millis(period_ms),
            pieces: vec![crate::PieceSpec {
                core: CoreId(core),
                budget: Time::from_millis(budget_ms),
                priority: Priority::new(priority),
                is_body: false,
            }],
        }
    }

    #[test]
    fn single_task_runs_periodically_without_misses() {
        let chains = vec![simple_chain(0, 2, 10, 0, 0)];
        let report =
            Simulator::from_chains(chains, 1, SimulationConfig::new(Time::from_millis(100))).run();
        // The simulated window is inclusive of its end point, so the release
        // at t = 100 ms is counted but its job cannot complete.
        assert_eq!(report.jobs_released, 11);
        assert_eq!(report.jobs_completed, 10);
        assert!(report.no_deadline_misses());
        assert_eq!(report.preemptions, 0);
        assert_eq!(report.core(CoreId(0)).busy, Time::from_millis(20));
        assert!((report.core(CoreId(0)).utilization(report.duration) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn higher_priority_task_preempts_lower() {
        // τ0: C=1,T=4 (high); τ1: C=6,T=20 (low) on one core. τ1 is preempted
        // by at least one release of τ0 during each of its jobs.
        let chains = vec![simple_chain(0, 1, 4, 0, 0), simple_chain(1, 6, 20, 1, 0)];
        let report = Simulator::from_chains(
            chains,
            1,
            SimulationConfig::new(Time::from_millis(40)).with_trace(),
        )
        .run();
        assert!(report.no_deadline_misses());
        assert!(
            report.preemptions >= 2,
            "preemptions = {}",
            report.preemptions
        );
        assert!(count_of(&report.trace, TraceEventKind::Preempt) >= 2);
    }

    #[test]
    fn overloaded_core_misses_deadlines() {
        let chains = vec![simple_chain(0, 6, 10, 0, 0), simple_chain(1, 6, 10, 1, 0)];
        let report =
            Simulator::from_chains(chains, 1, SimulationConfig::new(Time::from_millis(50))).run();
        assert!(!report.no_deadline_misses());
        // The lower-priority task is the one missing.
        assert!(report
            .deadline_misses
            .iter()
            .all(|m| m.task == spms_task::TaskId(1)));
    }

    #[test]
    fn split_task_migrates_every_period() {
        let tasks: TaskSet = (0..3)
            .map(|i| Task::new(i, Time::from_millis(6), Time::from_millis(10)).unwrap())
            .collect();
        let partition = SemiPartitionedFpTs::default()
            .partition(&tasks, 2)
            .unwrap()
            .into_partition()
            .expect("schedulable");
        let report =
            Simulator::new(&partition, SimulationConfig::new(Time::from_millis(100))).run();
        assert!(
            report.no_deadline_misses(),
            "misses: {:?}",
            report.deadline_misses
        );
        assert_eq!(
            report.migrations, 10,
            "one migration per period of the split task"
        );
        assert_eq!(report.jobs_released, 33);
        assert_eq!(report.jobs_completed, 30);
    }

    #[test]
    fn overhead_injection_consumes_time_and_can_cause_misses() {
        // Two tasks that only just fit: with large injected overheads the
        // lower-priority one starts missing.
        let chains = vec![simple_chain(0, 5, 10, 0, 0), simple_chain(1, 4, 10, 1, 0)];
        let no_overhead = Simulator::from_chains(
            chains.clone(),
            1,
            SimulationConfig::new(Time::from_millis(100)),
        )
        .run();
        assert!(no_overhead.no_deadline_misses());
        assert_eq!(no_overhead.overhead_time, Time::ZERO);

        let heavy = OverheadModel::paper_n4().scaled(50.0);
        let with_overhead = Simulator::from_chains(
            chains,
            1,
            SimulationConfig::new(Time::from_millis(100)).with_overhead(heavy),
        )
        .run();
        assert!(with_overhead.overhead_time > Time::ZERO);
        assert!(!with_overhead.no_deadline_misses());
        assert!(with_overhead.overhead_fraction() > 0.05);
    }

    #[test]
    fn realistic_overheads_rarely_change_the_outcome() {
        // The paper's headline: measured overheads are small compared to
        // millisecond-scale WCETs.
        let tasks = TaskSetGenerator::new()
            .task_count(8)
            .total_utilization(2.8)
            .seed(11)
            .generate()
            .unwrap();
        let partition = PartitionedFixedPriority::ffd()
            .partition(&tasks, 4)
            .unwrap()
            .into_partition()
            .expect("schedulable");
        let report = Simulator::new(
            &partition,
            SimulationConfig::new(Time::from_secs(2)).with_overhead(OverheadModel::paper_n4()),
        )
        .run();
        assert!(report.no_deadline_misses());
        assert!(report.overhead_fraction() < 0.1);
    }

    #[test]
    fn analysis_accepted_partitions_do_not_miss_in_simulation() {
        // E7: sets accepted by the overhead-aware analysis must simulate
        // cleanly when the same overheads are injected at run time.
        for seed in 0..5 {
            let tasks = TaskSetGenerator::new()
                .task_count(10)
                .total_utilization(3.0)
                .seed(300 + seed)
                .generate()
                .unwrap();
            let outcome = SemiPartitionedFpTs::default()
                .with_overhead(OverheadModel::paper_n4())
                .partition(&tasks, 4)
                .unwrap();
            let PartitionOutcome::Schedulable(partition) = outcome else {
                continue;
            };
            // The partition's WCETs are already inflated by the analysis;
            // injecting the overheads again at run time is doubly
            // conservative, so the absence of misses is a strong check.
            let report =
                Simulator::new(&partition, SimulationConfig::new(Time::from_secs(1))).run();
            assert!(
                report.no_deadline_misses(),
                "seed {seed}: {:?}",
                report.deadline_misses
            );
        }
    }

    #[test]
    fn trace_records_release_dispatch_complete() {
        let chains = vec![simple_chain(0, 2, 10, 0, 0)];
        let report = Simulator::from_chains(
            chains,
            1,
            SimulationConfig::new(Time::from_millis(30)).with_trace(),
        )
        .run();
        assert_eq!(count_of(&report.trace, TraceEventKind::Release), 4);
        assert_eq!(count_of(&report.trace, TraceEventKind::Dispatch), 4);
        assert_eq!(count_of(&report.trace, TraceEventKind::Complete), 3);
        assert!(!report.trace.render_timeline().is_empty());
    }

    #[test]
    fn release_jitter_is_deterministic_per_seed() {
        let chains = vec![simple_chain(0, 2, 10, 0, 0), simple_chain(1, 3, 20, 1, 0)];
        let run = |seed: u64| {
            Simulator::from_chains(
                chains.clone(),
                1,
                SimulationConfig::new(Time::from_millis(200))
                    .with_release_jitter(Time::from_millis(5), seed),
            )
            .run()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a.jobs_released, b.jobs_released);
        assert_eq!(a.jobs_completed, b.jobs_completed);
        assert_eq!(a.deadline_misses, b.deadline_misses);
        assert_eq!(a.preemptions, b.preemptions);
        // A different seed shifts releases and is overwhelmingly likely to
        // change at least the release count over 20 periods.
        let c = run(43);
        assert!(
            a.jobs_released != c.jobs_released || a.preemptions != c.preemptions,
            "seeds 42 and 43 produced identical schedules"
        );
    }

    #[test]
    fn release_jitter_only_stretches_interarrival_times() {
        // Sporadic releases are never earlier than periodic ones, so a
        // jittered run releases at most as many jobs.
        let chains = vec![simple_chain(0, 2, 10, 0, 0)];
        let periodic = Simulator::from_chains(
            chains.clone(),
            1,
            SimulationConfig::new(Time::from_millis(100)),
        )
        .run();
        let jittered = Simulator::from_chains(
            chains,
            1,
            SimulationConfig::new(Time::from_millis(100))
                .with_release_jitter(Time::from_millis(4), 7),
        )
        .run();
        assert!(jittered.jobs_released <= periodic.jobs_released);
        assert!(jittered.jobs_released >= 7, "jitter cannot halve the rate");
        assert!(jittered.no_deadline_misses());
    }

    #[test]
    fn schedulable_partitions_stay_clean_under_jitter() {
        // A partition accepted by the (sporadic) RTA must not miss deadlines
        // when releases are sporadic rather than synchronous-periodic.
        for seed in 0..3 {
            let tasks = TaskSetGenerator::new()
                .task_count(8)
                .total_utilization(2.4)
                .seed(400 + seed)
                .generate()
                .unwrap();
            let partition = SemiPartitionedFpTs::default()
                .partition(&tasks, 4)
                .unwrap()
                .into_partition()
                .expect("schedulable");
            let report = Simulator::new(
                &partition,
                SimulationConfig::new(Time::from_secs(1))
                    .with_release_jitter(Time::from_millis(3), seed),
            )
            .run();
            assert!(
                report.no_deadline_misses(),
                "seed {seed}: {:?}",
                report.deadline_misses
            );
        }
    }

    #[test]
    fn zero_jitter_matches_the_periodic_baseline() {
        let chains = vec![simple_chain(0, 2, 10, 0, 0)];
        let baseline = Simulator::from_chains(
            chains.clone(),
            1,
            SimulationConfig::new(Time::from_millis(50)),
        )
        .run();
        let zero_jitter = Simulator::from_chains(
            chains,
            1,
            SimulationConfig::new(Time::from_millis(50)).with_release_jitter(Time::ZERO, 12345),
        )
        .run();
        assert_eq!(baseline.jobs_released, zero_jitter.jobs_released);
        assert_eq!(baseline.jobs_completed, zero_jitter.jobs_completed);
    }

    #[test]
    fn duration_zero_releases_nothing_but_time_zero_jobs() {
        let chains = vec![simple_chain(0, 2, 10, 0, 0)];
        let report = Simulator::from_chains(chains, 1, SimulationConfig::new(Time::ZERO)).run();
        // Only the synchronous release at t = 0 happens and the job cannot
        // finish within a zero-length window.
        assert_eq!(report.jobs_released, 1);
        assert_eq!(report.jobs_completed, 0);
    }
}
