//! A discrete-event simulator of global fixed-priority / global EDF
//! scheduling.
//!
//! The simulator keeps a single system-wide ready queue. At every scheduling
//! event (job release or job completion) the `m` highest-priority ready jobs
//! are placed on the `m` processors, preferring to keep a job on the
//! processor it last executed on so that the reported migration count
//! reflects only the migrations the policy actually forces. This is the
//! classic work-conserving global scheduler that the paper's introduction
//! contrasts with partitioned approaches: it never idles a processor while a
//! job is ready, but pays for that with job-level migrations that the
//! partitioned and semi-partitioned schedulers avoid or bound.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};
use spms_task::{Priority, Task, TaskId, TaskSet, Time};

/// Which global scheduling policy orders the system-wide ready queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum GlobalPolicy {
    /// Global fixed-priority scheduling: jobs inherit their task's fixed
    /// priority (assign rate-monotonic priorities for global RM).
    #[default]
    FixedPriority,
    /// Global EDF: the job with the earliest absolute deadline wins.
    Edf,
}

impl GlobalPolicy {
    /// Short name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            GlobalPolicy::FixedPriority => "G-FP",
            GlobalPolicy::Edf => "G-EDF",
        }
    }
}

impl std::fmt::Display for GlobalPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A deadline miss observed by the global simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GlobalDeadlineMiss {
    /// The task whose job missed.
    pub task: TaskId,
    /// Release time of the late job.
    pub release: Time,
    /// The absolute deadline that was missed.
    pub deadline: Time,
}

/// Aggregate statistics of a global-scheduling simulation run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct GlobalReport {
    /// Length of the simulated window.
    pub duration: Time,
    /// Number of jobs released (including the synchronous release at t = 0).
    pub jobs_released: u64,
    /// Number of jobs that completed within the window.
    pub jobs_completed: u64,
    /// Number of times a running job was displaced by a higher-priority job.
    pub preemptions: u64,
    /// Number of times a job resumed on a different processor than the one it
    /// last executed on.
    pub migrations: u64,
    /// Deadline misses observed during the window.
    pub deadline_misses: Vec<GlobalDeadlineMiss>,
    /// Total processor busy time accumulated across all processors.
    pub busy: Time,
}

impl GlobalReport {
    /// Whether every completed and in-flight job met its deadline.
    pub fn no_deadline_misses(&self) -> bool {
        self.deadline_misses.is_empty()
    }
}

#[derive(Debug, Clone)]
struct GlobalJob {
    task: usize,
    release: Time,
    abs_deadline: Time,
    remaining: Time,
    last_core: Option<usize>,
    started: bool,
}

/// The global scheduler simulator.
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct GlobalSimulator {
    tasks: Vec<Task>,
    cores: usize,
    policy: GlobalPolicy,
    duration: Time,
    /// Cost charged to a job every time it starts or resumes on a processor.
    dispatch_cost: Time,
    /// Additional cost charged when the resume happens on a different
    /// processor than the last one (migration cache reload).
    migration_cost: Time,
}

impl GlobalSimulator {
    /// Creates a simulator for `tasks` on `cores` processors under `policy`.
    ///
    /// For [`GlobalPolicy::FixedPriority`] the tasks should carry priorities
    /// (see [`TaskSet::assign_priorities`]); tasks without a priority are
    /// treated as lowest priority.
    pub fn new(tasks: &TaskSet, cores: usize, policy: GlobalPolicy) -> Self {
        GlobalSimulator {
            tasks: tasks.iter().cloned().collect(),
            cores,
            policy,
            duration: Time::from_secs(1),
            dispatch_cost: Time::ZERO,
            migration_cost: Time::ZERO,
        }
    }

    /// Sets the length of the simulated window (builder style).
    pub fn duration(mut self, duration: Time) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the per-dispatch and per-migration overhead charged to jobs
    /// (builder style). Defaults to zero.
    pub fn overheads(mut self, dispatch: Time, migration: Time) -> Self {
        self.dispatch_cost = dispatch;
        self.migration_cost = migration;
        self
    }

    /// Runs the simulation and returns the aggregated report.
    ///
    /// All tasks release synchronously at time zero and strictly
    /// periodically afterwards (the worst-case arrival pattern for
    /// partitioned fixed-priority scheduling; for global scheduling it is a
    /// common, though not provably worst-case, stress pattern).
    pub fn run(&self) -> GlobalReport {
        let mut report = GlobalReport {
            duration: self.duration,
            ..GlobalReport::default()
        };
        if self.cores == 0 || self.tasks.is_empty() {
            return report;
        }

        // Future releases: (time, task index).
        let mut releases: BinaryHeap<Reverse<(Time, usize)>> = self
            .tasks
            .iter()
            .enumerate()
            .map(|(i, _)| Reverse((Time::ZERO, i)))
            .collect();
        let mut jobs: Vec<GlobalJob> = Vec::new();
        // Ready (not running) job indices.
        let mut ready: Vec<usize> = Vec::new();
        // Running job index per core.
        let mut running: Vec<Option<usize>> = vec![None; self.cores];
        let mut now = Time::ZERO;

        loop {
            // Next event: the earliest future release or the earliest
            // completion among running jobs.
            let next_release = releases.peek().map(|Reverse((t, _))| *t);
            let next_completion = running
                .iter()
                .flatten()
                .map(|&j| now + jobs[j].remaining)
                .min();
            let next = match (next_release, next_completion) {
                (None, None) => break,
                (Some(r), None) => r,
                (None, Some(c)) => c,
                (Some(r), Some(c)) => r.min(c),
            };
            if next > self.duration {
                break;
            }

            // Advance every running job by the elapsed time.
            let elapsed = next.saturating_sub(now);
            if !elapsed.is_zero() {
                for slot in running.iter().flatten() {
                    jobs[*slot].remaining = jobs[*slot].remaining.saturating_sub(elapsed);
                    report.busy += elapsed;
                }
            }
            now = next;

            // Retire completed jobs.
            for slot in running.iter_mut() {
                if let Some(j) = *slot {
                    if jobs[j].remaining.is_zero() {
                        report.jobs_completed += 1;
                        if now > jobs[j].abs_deadline {
                            report.deadline_misses.push(GlobalDeadlineMiss {
                                task: self.tasks[jobs[j].task].id(),
                                release: jobs[j].release,
                                deadline: jobs[j].abs_deadline,
                            });
                        }
                        *slot = None;
                    }
                }
            }

            // Admit the releases due now.
            while let Some(Reverse((t, task_idx))) = releases.peek().copied() {
                if t != now {
                    break;
                }
                releases.pop();
                let task = &self.tasks[task_idx];
                jobs.push(GlobalJob {
                    task: task_idx,
                    release: now,
                    abs_deadline: now + task.deadline(),
                    remaining: task.wcet() + self.dispatch_cost,
                    last_core: None,
                    started: false,
                });
                ready.push(jobs.len() - 1);
                report.jobs_released += 1;
                let next_release = now + task.period();
                releases.push(Reverse((next_release, task_idx)));
            }

            self.reschedule(&mut jobs, &mut ready, &mut running, &mut report);
        }

        // Jobs still unfinished whose deadline fell inside the window are
        // misses too.
        for job in &jobs {
            if !job.remaining.is_zero() && job.abs_deadline <= self.duration {
                report.deadline_misses.push(GlobalDeadlineMiss {
                    task: self.tasks[job.task].id(),
                    release: job.release,
                    deadline: job.abs_deadline,
                });
            }
        }
        report
    }

    /// The scheduling key of a job: smaller is more urgent.
    fn key(&self, jobs: &[GlobalJob], job: usize) -> (u64, u64) {
        let task = &self.tasks[jobs[job].task];
        match self.policy {
            GlobalPolicy::FixedPriority => (
                u64::from(task.priority().unwrap_or(Priority::LOWEST).level()),
                u64::from(task.id().0),
            ),
            GlobalPolicy::Edf => (jobs[job].abs_deadline.as_nanos(), u64::from(task.id().0)),
        }
    }

    /// Places the `m` most urgent ready-or-running jobs onto the processors,
    /// preferring each job's previous processor, and counts preemptions and
    /// migrations.
    fn reschedule(
        &self,
        jobs: &mut [GlobalJob],
        ready: &mut Vec<usize>,
        running: &mut [Option<usize>],
        report: &mut GlobalReport,
    ) {
        // Candidates: everything currently running plus everything ready.
        let mut candidates: Vec<usize> = running.iter().flatten().copied().collect();
        candidates.extend(ready.iter().copied());
        candidates.sort_by_key(|&j| self.key(jobs, j));
        candidates.truncate(self.cores);

        let was_running = running.to_vec();
        // Jobs displaced from a processor go back to the ready list.
        for slot in running.iter_mut() {
            if let Some(j) = *slot {
                if !candidates.contains(&j) {
                    report.preemptions += 1;
                    ready.push(j);
                    *slot = None;
                }
            }
        }
        ready.retain(|j| !candidates.contains(j));

        // Keep jobs that stay on their processor, then place the rest on the
        // free processors (preferring their last processor when it is free).
        let mut to_place: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|j| !was_running.contains(&Some(*j)))
            .collect();
        // Prefer the last processor of each job when it is free.
        to_place.sort_by_key(|&j| self.key(jobs, j));
        for &j in &to_place {
            let preferred = jobs[j].last_core.filter(|&c| running[c].is_none());
            let core = preferred.or_else(|| (0..self.cores).find(|&c| running[c].is_none()));
            let Some(core) = core else { continue };
            if jobs[j].started && jobs[j].last_core != Some(core) {
                report.migrations += 1;
                jobs[j].remaining += self.migration_cost;
            }
            jobs[j].last_core = Some(core);
            jobs[j].started = true;
            running[core] = Some(j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms_task::{PriorityAssignment, TaskSetGenerator};

    fn tasks(specs: &[(u64, u64)]) -> TaskSet {
        let mut ts: TaskSet = specs
            .iter()
            .enumerate()
            .map(|(i, &(c, t))| {
                Task::new(i as u32, Time::from_millis(c), Time::from_millis(t)).unwrap()
            })
            .collect();
        ts.assign_priorities(PriorityAssignment::RateMonotonic);
        ts
    }

    #[test]
    fn single_task_on_one_core_completes_every_period() {
        let ts = tasks(&[(2, 10)]);
        let report = GlobalSimulator::new(&ts, 1, GlobalPolicy::FixedPriority)
            .duration(Time::from_millis(100))
            .run();
        assert!(report.no_deadline_misses());
        assert_eq!(report.jobs_released, 11);
        assert_eq!(report.jobs_completed, 10);
        assert_eq!(report.migrations, 0);
        assert_eq!(report.preemptions, 0);
        assert!((report.busy.ratio(report.duration) - 0.2).abs() < 0.01);
    }

    #[test]
    fn global_edf_also_fails_the_motivating_three_task_example() {
        // The motivating example of the semi-partitioned literature: three
        // 60% tasks on two cores. Partitioned scheduling cannot place them,
        // and plain global EDF does not save them either — with a synchronous
        // release the third job only gets a processor after 6 ms and misses
        // its 10 ms deadline. Only the task splitting of FP-TS (see
        // `spms-core`) schedules this set, which is exactly the paper's
        // motivation.
        let ts = tasks(&[(6, 10), (6, 10), (6, 10)]);
        let report = GlobalSimulator::new(&ts, 2, GlobalPolicy::Edf)
            .duration(Time::from_millis(200))
            .run();
        assert!(!report.no_deadline_misses());
    }

    #[test]
    fn preempted_job_resumes_on_another_core_when_its_own_is_busy() {
        // τ0 = (3, 6) preempts τ2 on core 0; when τ2 becomes eligible again
        // core 0 is still busy but core 1 has just been freed by τ1, so τ2
        // migrates — the job-level migration that global scheduling allows
        // and partitioned scheduling forbids.
        let ts = tasks(&[(3, 6), (8, 20), (8, 20)]);
        let report = GlobalSimulator::new(&ts, 2, GlobalPolicy::FixedPriority)
            .duration(Time::from_millis(60))
            .run();
        assert!(report.migrations >= 1, "migrations = {}", report.migrations);
        assert!(report.preemptions >= 1);
    }

    #[test]
    fn dhall_effect_hurts_global_fixed_priority() {
        // Dhall's effect: many light short-period tasks plus one heavy
        // long-period task. Global RM runs the light tasks first on every
        // processor and the heavy task misses, even though total utilization
        // is only slightly above 1 of the 2 processors.
        let mut ts = TaskSet::new();
        for id in 0..2u32 {
            ts.push(Task::new(id, Time::from_millis(1), Time::from_millis(10)).unwrap());
        }
        ts.push(Task::new(2, Time::from_millis(95), Time::from_millis(100)).unwrap());
        ts.assign_priorities(PriorityAssignment::RateMonotonic);
        let report = GlobalSimulator::new(&ts, 2, GlobalPolicy::FixedPriority)
            .duration(Time::from_millis(400))
            .run();
        assert!(
            !report.no_deadline_misses(),
            "Dhall's effect should make the heavy task miss"
        );
        assert!(report.deadline_misses.iter().all(|m| m.task == TaskId(2)));
    }

    #[test]
    fn overloaded_platform_misses_deadlines() {
        let ts = tasks(&[(8, 10), (8, 10), (8, 10)]);
        let report = GlobalSimulator::new(&ts, 2, GlobalPolicy::Edf)
            .duration(Time::from_millis(100))
            .run();
        assert!(!report.no_deadline_misses());
    }

    #[test]
    fn preemptions_happen_under_fixed_priority() {
        let ts = tasks(&[(1, 4), (6, 20)]);
        let report = GlobalSimulator::new(&ts, 1, GlobalPolicy::FixedPriority)
            .duration(Time::from_millis(40))
            .run();
        assert!(report.no_deadline_misses());
        assert!(report.preemptions >= 2);
    }

    #[test]
    fn zero_cores_or_empty_set_produce_an_empty_report() {
        let ts = tasks(&[(1, 10)]);
        let empty = GlobalSimulator::new(&TaskSet::new(), 2, GlobalPolicy::Edf).run();
        assert_eq!(empty.jobs_released, 0);
        let no_cores = GlobalSimulator::new(&ts, 0, GlobalPolicy::Edf).run();
        assert_eq!(no_cores.jobs_released, 0);
    }

    #[test]
    fn migration_overhead_increases_demand() {
        let ts = tasks(&[(3, 6), (8, 20), (8, 20)]);
        let without = GlobalSimulator::new(&ts, 2, GlobalPolicy::FixedPriority)
            .duration(Time::from_millis(200))
            .run();
        let with = GlobalSimulator::new(&ts, 2, GlobalPolicy::FixedPriority)
            .duration(Time::from_millis(200))
            .overheads(Time::from_micros(10), Time::from_micros(25))
            .run();
        assert!(with.busy >= without.busy);
        assert!(with.busy > Time::ZERO);
    }

    #[test]
    fn schedulability_test_acceptance_implies_clean_simulation() {
        // Cross-validation in the same spirit as the partitioned test suite:
        // sets accepted by the sufficient global tests simulate without
        // misses under the matching policy.
        for seed in 0..10u64 {
            let mut ts = TaskSetGenerator::new()
                .task_count(8)
                .total_utilization(2.0)
                .seed(seed)
                .generate()
                .unwrap();
            ts.assign_priorities(PriorityAssignment::RateMonotonic);
            if crate::GlobalSchedulabilityTest::GfbDensity.accepts(&ts, 4) {
                let report = GlobalSimulator::new(&ts, 4, GlobalPolicy::Edf)
                    .duration(Time::from_secs(1))
                    .run();
                assert!(report.no_deadline_misses(), "seed {seed} (G-EDF)");
            }
            if crate::GlobalSchedulabilityTest::BclFixedPriority.accepts(&ts, 4) {
                let report = GlobalSimulator::new(&ts, 4, GlobalPolicy::FixedPriority)
                    .duration(Time::from_secs(1))
                    .run();
                assert!(report.no_deadline_misses(), "seed {seed} (G-FP)");
            }
        }
    }

    #[test]
    fn report_serialises() {
        let ts = tasks(&[(2, 10)]);
        let report = GlobalSimulator::new(&ts, 1, GlobalPolicy::Edf)
            .duration(Time::from_millis(50))
            .run();
        let json = serde_json::to_string(&report).unwrap();
        let back: GlobalReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn policy_names() {
        assert_eq!(GlobalPolicy::FixedPriority.to_string(), "G-FP");
        assert_eq!(GlobalPolicy::Edf.name(), "G-EDF");
        assert_eq!(GlobalPolicy::default(), GlobalPolicy::FixedPriority);
    }
}
