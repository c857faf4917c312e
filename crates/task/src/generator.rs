//! Random task-set generation for the acceptance-ratio experiments.
//!
//! The paper evaluates FP-TS against FFD and WFD "with randomly generated task
//! sets" (§4). The companion RTAS 2010 paper uses the standard recipe from the
//! multiprocessor schedulability literature:
//!
//! * draw `n` per-task utilizations summing to a target `U_total` with
//!   UUniFast / UUniFast-discard,
//! * draw periods log-uniformly from a range (10 ms – 1 s here),
//! * derive `C_i = u_i · T_i`.
//!
//! This module implements that recipe behind a seedable, reproducible
//! [`TaskSetGenerator`] builder.

use rand::distributions::{Distribution, Uniform};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::{PriorityAssignment, Task, TaskError, TaskSet, Time};

/// How individual task utilizations are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum UtilizationDistribution {
    /// UUniFast (Bini & Buttazzo 2005): unbiased uniform distribution of `n`
    /// utilizations summing to the target. Only valid for targets ≤ n.
    /// Individual utilizations may exceed 1.0 when the target exceeds 1.0;
    /// combine with [`UtilizationDistribution::UUniFastDiscard`] to avoid that.
    UUniFast,
    /// UUniFast with rejection of any vector containing a task utilization
    /// above `max_task_utilization` (Davis & Burns): the standard recipe for
    /// multiprocessor experiments where the total utilization exceeds 1.
    UUniFastDiscard {
        /// Upper bound on any individual task utilization (usually 1.0).
        max_task_utilization: f64,
    },
    /// Independent uniform utilizations in `[min, max]`, not normalised to a
    /// target total. Useful for per-task-utilization sweeps.
    Uniform {
        /// Lower bound of each task's utilization.
        min: f64,
        /// Upper bound of each task's utilization.
        max: f64,
    },
}

/// How task periods are drawn.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PeriodDistribution {
    /// Log-uniform in `[min, max]` — the usual choice because it exercises a
    /// wide range of period magnitudes (and therefore preemption patterns).
    LogUniform {
        /// Shortest period.
        min: Time,
        /// Longest period.
        max: Time,
    },
    /// Uniform in `[min, max]`.
    Uniform {
        /// Shortest period.
        min: Time,
        /// Longest period.
        max: Time,
    },
    /// Drawn uniformly from an explicit list of candidate periods (harmonic
    /// sets, for instance).
    Choice {
        /// Candidate periods; must be non-empty.
        periods: Vec<Time>,
    },
}

impl PeriodDistribution {
    fn validate(&self) -> Result<(), TaskError> {
        match self {
            PeriodDistribution::LogUniform { min, max }
            | PeriodDistribution::Uniform { min, max } => {
                if min.is_zero() || max < min {
                    Err(TaskError::InvalidGeneratorConfig {
                        reason: format!("invalid period range [{min}, {max}]"),
                    })
                } else {
                    Ok(())
                }
            }
            PeriodDistribution::Choice { periods } => {
                if periods.is_empty() || periods.iter().any(|p| p.is_zero()) {
                    Err(TaskError::InvalidGeneratorConfig {
                        reason: "period choice list must be non-empty and non-zero".to_owned(),
                    })
                } else {
                    Ok(())
                }
            }
        }
    }

    fn sample<R: Rng>(&self, rng: &mut R) -> Time {
        match self {
            PeriodDistribution::LogUniform { min, max } => {
                let lo = (min.as_nanos() as f64).ln();
                let hi = (max.as_nanos() as f64).ln();
                let v = if hi > lo { rng.gen_range(lo..=hi) } else { lo };
                Time::from_nanos(v.exp().round() as u64)
            }
            PeriodDistribution::Uniform { min, max } => {
                let v = rng.gen_range(min.as_nanos()..=max.as_nanos());
                Time::from_nanos(v)
            }
            PeriodDistribution::Choice { periods } => {
                let idx = rng.gen_range(0..periods.len());
                periods[idx]
            }
        }
    }
}

/// Seedable random task-set generator.
///
/// # Example
///
/// ```
/// use spms_task::{TaskSetGenerator, PeriodDistribution, UtilizationDistribution, Time};
///
/// # fn main() -> Result<(), spms_task::TaskError> {
/// let gen = TaskSetGenerator::new()
///     .task_count(16)
///     .total_utilization(3.2)
///     .utilization_distribution(UtilizationDistribution::UUniFastDiscard {
///         max_task_utilization: 1.0,
///     })
///     .period_distribution(PeriodDistribution::LogUniform {
///         min: Time::from_millis(10),
///         max: Time::from_secs(1),
///     })
///     .seed(42);
/// let ts = gen.generate()?;
/// assert_eq!(ts.len(), 16);
/// assert!((ts.total_utilization() - 3.2).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSetGenerator {
    task_count: usize,
    total_utilization: f64,
    utilization_distribution: UtilizationDistribution,
    period_distribution: PeriodDistribution,
    period_granularity: Time,
    priority_assignment: PriorityAssignment,
    working_set_range: Option<(u64, u64)>,
    seed: u64,
}

impl Default for TaskSetGenerator {
    fn default() -> Self {
        TaskSetGenerator {
            task_count: 8,
            total_utilization: 2.0,
            utilization_distribution: UtilizationDistribution::UUniFastDiscard {
                max_task_utilization: 1.0,
            },
            period_distribution: PeriodDistribution::LogUniform {
                min: Time::from_millis(10),
                max: Time::from_secs(1),
            },
            period_granularity: Time::from_micros(100),
            priority_assignment: PriorityAssignment::RateMonotonic,
            working_set_range: None,
            seed: 0,
        }
    }
}

impl TaskSetGenerator {
    /// Creates a generator with the default experiment configuration
    /// (8 tasks, total utilization 2.0, UUniFast-discard, log-uniform periods
    /// between 10 ms and 1 s, rate-monotonic priorities, seed 0).
    pub fn new() -> Self {
        TaskSetGenerator::default()
    }

    /// Sets the number of tasks per generated set.
    pub fn task_count(mut self, n: usize) -> Self {
        self.task_count = n;
        self
    }

    /// Sets the target total utilization of each generated set.
    pub fn total_utilization(mut self, u: f64) -> Self {
        self.total_utilization = u;
        self
    }

    /// Sets how per-task utilizations are drawn.
    pub fn utilization_distribution(mut self, d: UtilizationDistribution) -> Self {
        self.utilization_distribution = d;
        self
    }

    /// Sets how periods are drawn.
    pub fn period_distribution(mut self, d: PeriodDistribution) -> Self {
        self.period_distribution = d;
        self
    }

    /// Rounds generated periods down to a multiple of this granularity
    /// (default 100 µs) so hyperperiods stay manageable for simulation.
    pub fn period_granularity(mut self, g: Time) -> Self {
        self.period_granularity = g;
        self
    }

    /// Sets the priority-assignment policy applied to each generated set.
    pub fn priority_assignment(mut self, p: PriorityAssignment) -> Self {
        self.priority_assignment = p;
        self
    }

    /// When set, each task receives a working-set size drawn log-uniformly
    /// from `[min_bytes, max_bytes]`, for use by the cache-overhead model.
    pub fn working_set_range(mut self, min_bytes: u64, max_bytes: u64) -> Self {
        self.working_set_range = Some((min_bytes, max_bytes));
        self
    }

    /// Sets the RNG seed; two generators with equal configuration and seed
    /// produce identical task sets.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates a single task set.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::InvalidGeneratorConfig`] when the configuration is
    /// inconsistent (zero tasks, non-positive utilization, utilization target
    /// unreachable under the per-task cap, empty period list, ...).
    pub fn generate(&self) -> Result<TaskSet, TaskError> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        self.generate_with(&mut rng)
    }

    /// Generates a task set using a caller-provided random-number generator.
    ///
    /// # Errors
    ///
    /// Same as [`TaskSetGenerator::generate`].
    pub fn generate_with<R: Rng>(&self, rng: &mut R) -> Result<TaskSet, TaskError> {
        self.validate()?;
        let utilizations = self.draw_utilizations(rng)?;
        let mut ts = TaskSet::with_capacity(self.task_count);
        let ws_sampler = self.working_set_range.map(|(lo, hi)| {
            let lo = (lo.max(1)) as f64;
            let hi = (hi.max(1)) as f64;
            (lo.ln(), hi.ln())
        });
        for (i, u) in utilizations.into_iter().enumerate() {
            let period = self.quantize_period(self.period_distribution.sample(rng));
            // C_i = u_i * T_i, at least one nanosecond so the task is well formed.
            let wcet = period.scale(u).max(Time::from_nanos(1));
            let wcet = wcet.min(period);
            let mut builder = Task::builder(i as u32).wcet(wcet).period(period);
            if let Some((lo_ln, hi_ln)) = ws_sampler {
                let v = if hi_ln > lo_ln {
                    rng.gen_range(lo_ln..=hi_ln)
                } else {
                    lo_ln
                };
                builder = builder.working_set_bytes(v.exp().round() as u64);
            }
            ts.push(builder.build()?);
        }
        ts.assign_priorities(self.priority_assignment);
        Ok(ts)
    }

    fn quantize_period(&self, p: Time) -> Time {
        if self.period_granularity.is_zero() {
            return p;
        }
        let g = self.period_granularity;
        let quantized = Time::from_nanos((p.as_nanos() / g.as_nanos()) * g.as_nanos());
        quantized.max(g)
    }

    fn validate(&self) -> Result<(), TaskError> {
        if self.task_count == 0 {
            return Err(TaskError::InvalidGeneratorConfig {
                reason: "task count must be positive".to_owned(),
            });
        }
        self.period_distribution.validate()?;
        if let Some((min_bytes, max_bytes)) = self.working_set_range {
            if min_bytes > max_bytes {
                return Err(TaskError::InvalidWorkingSetRange {
                    min_bytes,
                    max_bytes,
                });
            }
        }
        match self.utilization_distribution {
            UtilizationDistribution::UUniFast => {
                if !self.total_utilization.is_finite() {
                    return Err(TaskError::non_finite(
                        "total utilization",
                        self.total_utilization,
                    ));
                }
                if self.total_utilization <= 0.0 {
                    return Err(TaskError::InvalidGeneratorConfig {
                        reason: "total utilization must be positive".to_owned(),
                    });
                }
            }
            UtilizationDistribution::UUniFastDiscard {
                max_task_utilization,
            } => {
                if !self.total_utilization.is_finite() {
                    return Err(TaskError::non_finite(
                        "total utilization",
                        self.total_utilization,
                    ));
                }
                if !max_task_utilization.is_finite() {
                    return Err(TaskError::non_finite(
                        "per-task utilization cap",
                        max_task_utilization,
                    ));
                }
                if self.total_utilization <= 0.0 {
                    return Err(TaskError::InvalidGeneratorConfig {
                        reason: "total utilization must be positive".to_owned(),
                    });
                }
                if max_task_utilization <= 0.0 || max_task_utilization > 1.0 {
                    return Err(TaskError::InvalidGeneratorConfig {
                        reason: "per-task utilization cap must be in (0, 1]".to_owned(),
                    });
                }
                if self.total_utilization > self.task_count as f64 * max_task_utilization {
                    return Err(TaskError::InvalidGeneratorConfig {
                        reason: format!(
                            "total utilization {} unreachable with {} tasks capped at {}",
                            self.total_utilization, self.task_count, max_task_utilization
                        ),
                    });
                }
            }
            UtilizationDistribution::Uniform { min, max } => {
                if !min.is_finite() || !max.is_finite() {
                    return Err(TaskError::non_finite(
                        "per-task utilization range bound",
                        if min.is_finite() { max } else { min },
                    ));
                }
                if !(0.0..=1.0).contains(&min) || !(0.0..=1.0).contains(&max) || max < min {
                    return Err(TaskError::InvalidGeneratorConfig {
                        reason: format!("invalid per-task utilization range [{min}, {max}]"),
                    });
                }
            }
        }
        Ok(())
    }

    fn draw_utilizations<R: Rng>(&self, rng: &mut R) -> Result<Vec<f64>, TaskError> {
        match self.utilization_distribution {
            UtilizationDistribution::UUniFast => {
                Ok(uunifast(self.task_count, self.total_utilization, rng))
            }
            UtilizationDistribution::UUniFastDiscard {
                max_task_utilization,
            } => {
                // Rejection sampling; the validity check above guarantees the
                // target is reachable, but extremely tight targets may need
                // many attempts — cap them to stay responsive.
                const MAX_ATTEMPTS: usize = 10_000;
                for _ in 0..MAX_ATTEMPTS {
                    let us = uunifast(self.task_count, self.total_utilization, rng);
                    if us.iter().all(|&u| u <= max_task_utilization) {
                        return Ok(us);
                    }
                }
                Err(TaskError::InvalidGeneratorConfig {
                    reason: format!(
                        "could not draw {} utilizations summing to {} under cap {} after {} attempts",
                        self.task_count, self.total_utilization, max_task_utilization, MAX_ATTEMPTS
                    ),
                })
            }
            UtilizationDistribution::Uniform { min, max } => {
                let dist = Uniform::new_inclusive(min.max(1e-6), max.max(min.max(1e-6)));
                Ok((0..self.task_count).map(|_| dist.sample(rng)).collect())
            }
        }
    }
}

/// The UUniFast algorithm (Bini & Buttazzo, 2005): draws `n` non-negative
/// utilizations that sum exactly to `total`, uniformly over the simplex.
pub fn uunifast<R: Rng>(n: usize, total: f64, rng: &mut R) -> Vec<f64> {
    let mut utilizations = Vec::with_capacity(n);
    let mut sum = total;
    for i in 1..n {
        let exp = 1.0 / (n - i) as f64;
        let next: f64 = sum * rng.gen::<f64>().powf(exp);
        utilizations.push(sum - next);
        sum = next;
    }
    utilizations.push(sum);
    utilizations
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn uunifast_sums_to_target() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for &target in &[0.5, 1.0, 2.7, 3.9] {
            let us = uunifast(10, target, &mut rng);
            assert_eq!(us.len(), 10);
            let sum: f64 = us.iter().sum();
            assert!((sum - target).abs() < 1e-9, "sum {sum} target {target}");
            assert!(us.iter().all(|&u| u >= 0.0));
        }
    }

    #[test]
    fn generator_is_deterministic_for_a_seed() {
        let gen = TaskSetGenerator::new()
            .task_count(12)
            .total_utilization(3.0)
            .seed(7);
        let a = gen.generate().unwrap();
        let b = gen.generate().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = TaskSetGenerator::new().seed(1).generate().unwrap();
        let b = TaskSetGenerator::new().seed(2).generate().unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn generated_set_matches_target_utilization() {
        let gen = TaskSetGenerator::new()
            .task_count(20)
            .total_utilization(3.5)
            .seed(99);
        let ts = gen.generate().unwrap();
        assert_eq!(ts.len(), 20);
        // Quantisation of periods and the 1 ns WCET floor introduce tiny error.
        assert!((ts.total_utilization() - 3.5).abs() < 0.05);
        assert!(ts.max_utilization() <= 1.0 + 1e-9);
        ts.validate().unwrap();
    }

    #[test]
    fn priorities_are_assigned() {
        let ts = TaskSetGenerator::new().seed(3).generate().unwrap();
        assert!(ts.iter().all(|t| t.priority().is_some()));
    }

    #[test]
    fn periods_respect_bounds_and_granularity() {
        let min = Time::from_millis(10);
        let max = Time::from_secs(1);
        let gen = TaskSetGenerator::new()
            .task_count(50)
            .total_utilization(2.0)
            .period_distribution(PeriodDistribution::LogUniform { min, max })
            .period_granularity(Time::from_millis(1))
            .seed(5);
        let ts = gen.generate().unwrap();
        for t in &ts {
            assert!(t.period() >= Time::from_millis(1));
            assert!(t.period() <= max);
            assert_eq!(t.period().as_nanos() % Time::from_millis(1).as_nanos(), 0);
        }
    }

    #[test]
    fn choice_periods_only_use_candidates() {
        let periods = vec![
            Time::from_millis(10),
            Time::from_millis(20),
            Time::from_millis(40),
        ];
        let gen = TaskSetGenerator::new()
            .task_count(30)
            .total_utilization(2.0)
            .period_distribution(PeriodDistribution::Choice {
                periods: periods.clone(),
            })
            .period_granularity(Time::ZERO)
            .seed(11);
        let ts = gen.generate().unwrap();
        for t in &ts {
            assert!(periods.contains(&t.period()));
        }
    }

    #[test]
    fn uniform_utilization_draws_within_range() {
        let gen = TaskSetGenerator::new()
            .task_count(40)
            .utilization_distribution(UtilizationDistribution::Uniform { min: 0.1, max: 0.3 })
            .seed(13);
        let ts = gen.generate().unwrap();
        for t in &ts {
            assert!(t.utilization() <= 0.3 + 0.05);
        }
    }

    #[test]
    fn working_set_range_is_respected() {
        let gen = TaskSetGenerator::new()
            .task_count(25)
            .working_set_range(4 * 1024, 512 * 1024)
            .seed(17);
        let ts = gen.generate().unwrap();
        for t in &ts {
            let ws = t.working_set_bytes().expect("working set generated");
            assert!(ws >= 4 * 1024);
            assert!(ws <= 512 * 1024 + 1);
        }
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(TaskSetGenerator::new().task_count(0).generate().is_err());
        assert!(TaskSetGenerator::new()
            .total_utilization(-1.0)
            .generate()
            .is_err());
        assert!(TaskSetGenerator::new()
            .task_count(2)
            .total_utilization(3.0)
            .generate()
            .is_err());
        assert!(TaskSetGenerator::new()
            .utilization_distribution(UtilizationDistribution::UUniFastDiscard {
                max_task_utilization: 1.5,
            })
            .generate()
            .is_err());
        assert!(TaskSetGenerator::new()
            .period_distribution(PeriodDistribution::Choice { periods: vec![] })
            .generate()
            .is_err());
        assert!(TaskSetGenerator::new()
            .period_distribution(PeriodDistribution::Uniform {
                min: Time::from_millis(10),
                max: Time::from_millis(1),
            })
            .generate()
            .is_err());
    }

    #[test]
    fn non_finite_parameters_get_typed_errors() {
        for bad in [f64::NAN, f64::INFINITY] {
            assert!(matches!(
                TaskSetGenerator::new().total_utilization(bad).generate(),
                Err(TaskError::NonFiniteParameter { .. })
            ));
            assert!(matches!(
                TaskSetGenerator::new()
                    .utilization_distribution(UtilizationDistribution::UUniFast)
                    .total_utilization(bad)
                    .generate(),
                Err(TaskError::NonFiniteParameter { .. })
            ));
            assert!(matches!(
                TaskSetGenerator::new()
                    .utilization_distribution(UtilizationDistribution::UUniFastDiscard {
                        max_task_utilization: bad,
                    })
                    .generate(),
                Err(TaskError::NonFiniteParameter { .. })
            ));
            assert!(matches!(
                TaskSetGenerator::new()
                    .utilization_distribution(UtilizationDistribution::Uniform {
                        min: 0.1,
                        max: bad,
                    })
                    .generate(),
                Err(TaskError::NonFiniteParameter { .. })
            ));
        }
    }

    #[test]
    fn empty_working_set_range_is_a_typed_error() {
        assert_eq!(
            TaskSetGenerator::new()
                .working_set_range(4096, 1024)
                .generate()
                .unwrap_err(),
            TaskError::InvalidWorkingSetRange {
                min_bytes: 4096,
                max_bytes: 1024,
            }
        );
    }

    #[test]
    fn distinct_seeds_produce_distinct_sets() {
        let sets: Vec<TaskSet> = (0..5u64)
            .map(|i| {
                let seed = 23u64
                    .wrapping_add(i)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i);
                TaskSetGenerator::new().seed(seed).generate().unwrap()
            })
            .collect();
        assert_eq!(sets.len(), 5);
        for w in sets.windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }

    #[test]
    fn generate_with_external_rng() {
        let gen = TaskSetGenerator::new().task_count(4);
        let mut rng = ChaCha8Rng::seed_from_u64(123);
        let ts = gen.generate_with(&mut rng).unwrap();
        assert_eq!(ts.len(), 4);
    }
}
