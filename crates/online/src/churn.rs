//! Seeded task-churn generation: a Poisson stream of arrivals with
//! log-uniform lifetimes, sized so the offered load hovers around a target
//! utilization.
//!
//! The offline experiments draw one task set per grid cell; the online
//! experiments instead need a *timeline* of [`WorkloadEvent`]s. The
//! generator models the standard open-system churn process:
//!
//! * arrivals form a Poisson process (exponential inter-arrival times with
//!   a configurable mean) — or, under [`ChurnFamily::Bursty`], a
//!   Markov-modulated Poisson process whose hidden ON/OFF state
//!   compresses or stretches the inter-arrival mean (see
//!   [`ChurnFamily`]),
//! * each task lives for a log-uniformly distributed lifetime, then
//!   departs,
//! * per-task utilizations are drawn around `target / E[population]`, where
//!   the expected population follows Little's law
//!   (`E[lifetime] / E[inter-arrival]`), so the *offered* load oscillates
//!   around the target while individual arrivals stay diverse,
//! * periods are log-uniform (10 ms – 1 s by default), WCETs derived as
//!   `C = u · T`, exactly like the offline [`TaskSetGenerator`].
//!
//! Everything is driven by one seeded ChaCha8 stream: equal configurations
//! and seeds produce identical traces.
//!
//! [`TaskSetGenerator`]: spms_task::TaskSetGenerator

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use spms_task::{Task, TaskError, TaskId, Time};

use crate::{TimedEvent, WorkloadEvent};

/// The arrival-process family a [`ChurnGenerator`] draws from.
///
/// `Poisson` is the classic open-system model. `Bursty` layers a hidden
/// two-state Markov chain on top: before each arrival one uniform draw
/// decides the next ON/OFF state, and the exponential inter-arrival mean
/// is divided by the burst acceleration while ON and stretched while OFF
/// (the stretch is derived from the stationary ON share so the *long-run*
/// arrival rate matches the Poisson family's). The Poisson branch makes
/// no extra RNG draws, so `Poisson` traces are byte-identical to those of
/// generators predating this enum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnFamily {
    /// Memoryless Poisson arrivals (the default).
    #[default]
    Poisson,
    /// Markov-modulated Poisson arrivals: ON phases pack arrivals close
    /// together, OFF phases thin them out.
    Bursty,
}

impl std::str::FromStr for ChurnFamily {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "poisson" => Ok(ChurnFamily::Poisson),
            "bursty" => Ok(ChurnFamily::Bursty),
            other => Err(format!(
                "unknown churn family `{other}` (expected `poisson` or `bursty`)"
            )),
        }
    }
}

impl std::fmt::Display for ChurnFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ChurnFamily::Poisson => "poisson",
            ChurnFamily::Bursty => "bursty",
        })
    }
}

/// Seedable generator of churn traces. See the module docs of `churn.rs`
/// for the stochastic model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnGenerator {
    cores: usize,
    target_normalized_utilization: f64,
    events: usize,
    mean_interarrival: Time,
    lifetime_min: Time,
    lifetime_max: Time,
    period_min: Time,
    period_max: Time,
    utilization_spread: f64,
    max_task_utilization: f64,
    seed: u64,
    family: ChurnFamily,
    burst_acceleration: f64,
    burst_entry_probability: f64,
    burst_exit_probability: f64,
}

impl Default for ChurnGenerator {
    fn default() -> Self {
        ChurnGenerator {
            cores: 4,
            target_normalized_utilization: 0.7,
            events: 100,
            mean_interarrival: Time::from_millis(40),
            lifetime_min: Time::from_millis(100),
            lifetime_max: Time::from_secs(4),
            period_min: Time::from_millis(10),
            period_max: Time::from_secs(1),
            utilization_spread: 0.5,
            max_task_utilization: 1.0,
            seed: 0,
            family: ChurnFamily::Poisson,
            burst_acceleration: 4.0,
            burst_entry_probability: 0.35,
            burst_exit_probability: 0.15,
        }
    }
}

impl ChurnGenerator {
    /// A generator with the default churn model: 4 cores, target normalized
    /// utilization 0.7, 100 events, 40 ms mean inter-arrival, lifetimes
    /// log-uniform in 100 ms – 4 s.
    pub fn new() -> Self {
        ChurnGenerator::default()
    }

    /// Sets the platform size the target utilization is normalized against.
    pub fn cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Sets the target *normalized* utilization (offered load divided by
    /// core count) the population hovers around.
    pub fn target_normalized_utilization(mut self, u: f64) -> Self {
        self.target_normalized_utilization = u;
        self
    }

    /// Sets how many events (arrivals plus departures) the trace contains.
    pub fn events(mut self, events: usize) -> Self {
        self.events = events;
        self
    }

    /// Sets the mean inter-arrival time of the Poisson arrival process.
    pub fn mean_interarrival(mut self, mean: Time) -> Self {
        self.mean_interarrival = mean;
        self
    }

    /// Sets the log-uniform lifetime range.
    pub fn lifetime_range(mut self, min: Time, max: Time) -> Self {
        self.lifetime_min = min;
        self.lifetime_max = max;
        self
    }

    /// Sets the log-uniform period range of generated tasks.
    pub fn period_range(mut self, min: Time, max: Time) -> Self {
        self.period_min = min;
        self.period_max = max;
        self
    }

    /// Sets the relative spread of per-task utilizations around the base
    /// drawn from Little's law (0.0 = every task identical, 0.5 = ±50%).
    pub fn utilization_spread(mut self, spread: f64) -> Self {
        self.utilization_spread = spread;
        self
    }

    /// Caps every drawn per-task utilization (default 1.0). Lower caps
    /// generate heavy-task-free traces.
    pub fn max_task_utilization(mut self, cap: f64) -> Self {
        self.max_task_utilization = cap;
        self
    }

    /// Sets the RNG seed; equal configurations and seeds generate identical
    /// traces.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the arrival-process family (default [`ChurnFamily::Poisson`]).
    pub fn family(mut self, family: ChurnFamily) -> Self {
        self.family = family;
        self
    }

    /// Tunes the bursty family: `acceleration` divides the inter-arrival
    /// mean during ON phases (must exceed 1), `entry`/`exit` are the
    /// per-arrival OFF→ON and ON→OFF transition probabilities (each in
    /// `(0, 1)`). The OFF-phase stretch is derived so the long-run
    /// arrival rate stays that of the Poisson family. Ignored under
    /// [`ChurnFamily::Poisson`].
    pub fn burst_profile(mut self, acceleration: f64, entry: f64, exit: f64) -> Self {
        self.burst_acceleration = acceleration;
        self.burst_entry_probability = entry;
        self.burst_exit_probability = exit;
        self
    }

    /// Expected steady-state population by Little's law.
    fn expected_population(&self) -> f64 {
        let mean_lifetime = log_uniform_mean(self.lifetime_min, self.lifetime_max);
        (mean_lifetime / self.mean_interarrival.as_secs_f64().max(1e-9)).max(1.0)
    }

    /// Generates the event trace.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::InvalidGeneratorConfig`] when the configuration
    /// is inconsistent (zero events, non-positive target, empty ranges, ...).
    pub fn generate(&self) -> Result<Vec<WorkloadEvent>, TaskError> {
        Ok(self
            .generate_timed()?
            .into_iter()
            .map(|timed| timed.event)
            .collect())
    }

    /// [`generate`](Self::generate) with each event stamped by its absolute
    /// occurrence time (arrivals at the Poisson clock, departures at the
    /// end of their task's lifetime), for feeding the
    /// [`EventLoop`](crate::EventLoop). The RNG draw order is identical to
    /// `generate`, so the untimed trace is exactly the timed one with the
    /// stamps stripped.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::InvalidGeneratorConfig`] when the configuration
    /// is inconsistent (zero events, non-positive target, empty ranges, ...).
    pub fn generate_timed(&self) -> Result<Vec<TimedEvent>, TaskError> {
        self.validate()?;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let base_utilization = (self.target_normalized_utilization * self.cores as f64
            / self.expected_population())
        .min(self.max_task_utilization);

        let mut events = Vec::with_capacity(self.events);
        // Departures pending, as (absolute time in seconds, task id), kept
        // sorted so the earliest departure is popped first.
        let mut departures: Vec<(f64, TaskId)> = Vec::new();
        let mut clock = 0.0f64;
        let mut next_id: u32 = 0;

        // Bursty modulation state. The OFF-phase stretch is derived from
        // the stationary ON share so the long-run arrival rate matches
        // the plain Poisson family's.
        let mut burst_on = false;
        let on_share = self.burst_entry_probability
            / (self.burst_entry_probability + self.burst_exit_probability);
        let off_stretch = (1.0 - on_share / self.burst_acceleration) / (1.0 - on_share);

        while events.len() < self.events {
            let mean = self.mean_interarrival.as_secs_f64();
            let interarrival = match self.family {
                // No extra draws: Poisson traces stay byte-identical to
                // pre-family generators.
                ChurnFamily::Poisson => exponential(&mut rng, mean),
                ChurnFamily::Bursty => {
                    let flip: f64 = rng.gen();
                    burst_on = if burst_on {
                        flip >= self.burst_exit_probability
                    } else {
                        flip < self.burst_entry_probability
                    };
                    let scale = if burst_on {
                        1.0 / self.burst_acceleration
                    } else {
                        off_stretch
                    };
                    exponential(&mut rng, mean * scale)
                }
            };
            let arrival_time = clock + interarrival;
            // Emit every departure due before the next arrival.
            while events.len() < self.events {
                match departures.first() {
                    Some(&(when, id)) if when <= arrival_time => {
                        departures.remove(0);
                        events.push(TimedEvent {
                            at: Time::from_secs_f64(when),
                            event: WorkloadEvent::Depart(id),
                        });
                    }
                    _ => break,
                }
            }
            if events.len() >= self.events {
                break;
            }
            clock = arrival_time;
            let task = self.draw_task(&mut rng, next_id, base_utilization)?;
            let lifetime = log_uniform(&mut rng, self.lifetime_min, self.lifetime_max);
            let idx = departures
                .binary_search_by(|(when, _)| {
                    when.partial_cmp(&(clock + lifetime))
                        .unwrap_or(std::cmp::Ordering::Less)
                })
                .unwrap_or_else(|i| i);
            departures.insert(idx, (clock + lifetime, TaskId(next_id)));
            events.push(TimedEvent {
                at: Time::from_secs_f64(clock),
                event: WorkloadEvent::Arrive(task),
            });
            next_id += 1;
        }
        Ok(events)
    }

    fn draw_task(
        &self,
        rng: &mut ChaCha8Rng,
        id: u32,
        base_utilization: f64,
    ) -> Result<Task, TaskError> {
        let spread = self.utilization_spread.clamp(0.0, 0.95);
        let factor = if spread > 0.0 {
            rng.gen_range((1.0 - spread)..=(1.0 + spread))
        } else {
            1.0
        };
        let utilization = (base_utilization * factor).clamp(1e-4, self.max_task_utilization);
        let period = Time::from_secs_f64(log_uniform(rng, self.period_min, self.period_max));
        // Round to the same 100 µs granularity the offline generator uses so
        // hyperperiods stay manageable for simulation replay.
        let granularity = Time::from_micros(100);
        let period = Time::from_nanos(
            (period.as_nanos() / granularity.as_nanos()).max(1) * granularity.as_nanos(),
        );
        let wcet = period
            .scale(utilization)
            .max(Time::from_nanos(1))
            .min(period);
        Task::new(id, wcet, period)
    }

    fn validate(&self) -> Result<(), TaskError> {
        let invalid = |reason: String| TaskError::InvalidGeneratorConfig { reason };
        if self.events == 0 {
            return Err(invalid("churn trace needs at least one event".to_owned()));
        }
        if self.cores == 0 {
            return Err(invalid(
                "churn generation needs at least one core".to_owned(),
            ));
        }
        if self.target_normalized_utilization <= 0.0
            || !self.target_normalized_utilization.is_finite()
        {
            return Err(invalid(format!(
                "target normalized utilization must be positive and finite, got {}",
                self.target_normalized_utilization
            )));
        }
        if self.mean_interarrival.is_zero() {
            return Err(invalid(
                "mean inter-arrival time must be positive".to_owned(),
            ));
        }
        if !self.max_task_utilization.is_finite()
            || self.max_task_utilization <= 0.0
            || self.max_task_utilization > 1.0
        {
            return Err(invalid(format!(
                "per-task utilization cap must be in (0, 1], got {}",
                self.max_task_utilization
            )));
        }
        for (name, min, max) in [
            ("lifetime", self.lifetime_min, self.lifetime_max),
            ("period", self.period_min, self.period_max),
        ] {
            if min.is_zero() || max < min {
                return Err(invalid(format!("invalid {name} range [{min}, {max}]")));
            }
        }
        if self.family == ChurnFamily::Bursty {
            if !self.burst_acceleration.is_finite() || self.burst_acceleration <= 1.0 {
                return Err(invalid(format!(
                    "burst acceleration must be finite and exceed 1, got {}",
                    self.burst_acceleration
                )));
            }
            for (name, p) in [
                ("entry", self.burst_entry_probability),
                ("exit", self.burst_exit_probability),
            ] {
                if !p.is_finite() || p <= 0.0 || p >= 1.0 {
                    return Err(invalid(format!(
                        "burst {name} probability must be in (0, 1), got {p}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Inserts lease-renewal heartbeats into a timed trace: every arrival
/// that stays resident longer than `every` emits a
/// [`WorkloadEvent::Renew`] at each multiple of `every` after its arrival
/// and strictly before its departure (or, for tasks that never depart
/// in-trace, before the final trace timestamp). The result is sorted by
/// timestamp with renewals ordered after same-instant trace events —
/// fully deterministic, no RNG involved.
///
/// Feeding the renewed trace to an [`EventLoop`](crate::EventLoop) with a
/// lease of `every` (or slightly more) keeps admitted tasks alive for
/// their full trace lifetime, while un-renewed leases still expire.
pub fn inject_renewals(trace: &[TimedEvent], every: Time) -> Vec<TimedEvent> {
    if every.is_zero() || trace.is_empty() {
        return trace.to_vec();
    }
    let horizon = trace.iter().map(|t| t.at).max().unwrap_or(Time::ZERO);
    let mut departs: std::collections::BTreeMap<TaskId, Time> = std::collections::BTreeMap::new();
    for timed in trace {
        if let WorkloadEvent::Depart(id) = timed.event {
            departs.entry(id).or_insert(timed.at);
        }
    }
    let mut out = trace.to_vec();
    for timed in trace {
        if let WorkloadEvent::Arrive(task) = &timed.event {
            let until = departs.get(&task.id()).copied().unwrap_or(horizon);
            let mut at = timed.at + every;
            while at < until {
                out.push(TimedEvent {
                    at,
                    event: WorkloadEvent::Renew(task.id()),
                });
                at += every;
            }
        }
    }
    // Stable: same-instant originals keep their order and precede the
    // renewals generated for that instant.
    out.sort_by_key(|t| t.at);
    out
}

/// An exponential sample with the given mean (inverse-CDF method).
fn exponential(rng: &mut ChaCha8Rng, mean: f64) -> f64 {
    let u: f64 = rng.gen::<f64>().clamp(0.0, 1.0 - 1e-12);
    -mean * (1.0 - u).ln()
}

/// A log-uniform sample in `[min, max]`, in seconds.
fn log_uniform(rng: &mut ChaCha8Rng, min: Time, max: Time) -> f64 {
    let lo = min.as_secs_f64().max(1e-9).ln();
    let hi = max.as_secs_f64().max(1e-9).ln();
    let v = if hi > lo { rng.gen_range(lo..=hi) } else { lo };
    v.exp()
}

/// The mean of a log-uniform distribution over `[min, max]`, in seconds:
/// `(max − min) / ln(max / min)`.
fn log_uniform_mean(min: Time, max: Time) -> f64 {
    let a = min.as_secs_f64().max(1e-9);
    let b = max.as_secs_f64().max(a);
    if (b - a).abs() < 1e-12 {
        a
    } else {
        (b - a) / (b / a).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic_per_seed() {
        let gen = ChurnGenerator::new().events(50).seed(7);
        assert_eq!(gen.generate().unwrap(), gen.generate().unwrap());
        let other = ChurnGenerator::new().events(50).seed(8).generate().unwrap();
        assert_ne!(gen.generate().unwrap(), other);
    }

    #[test]
    fn timed_traces_strip_to_untimed_and_are_monotonic() {
        let gen = ChurnGenerator::new().events(120).seed(13);
        let timed = gen.generate_timed().unwrap();
        let untimed = gen.generate().unwrap();
        assert_eq!(timed.len(), untimed.len());
        assert!(timed.iter().zip(&untimed).all(|(t, u)| &t.event == u));
        assert!(
            timed.windows(2).all(|w| w[0].at <= w[1].at),
            "timestamps must be non-decreasing"
        );
    }

    #[test]
    fn traces_have_the_requested_length_and_consistent_ids() {
        let events = ChurnGenerator::new().events(80).seed(3).generate().unwrap();
        assert_eq!(events.len(), 80);
        let mut alive = std::collections::BTreeSet::new();
        for event in &events {
            match event {
                WorkloadEvent::Arrive(task) => {
                    assert!(alive.insert(task.id()), "duplicate arrival {}", task.id());
                    assert!(task.wcet() <= task.period());
                    assert!(task.utilization() <= 1.0 + 1e-9);
                }
                WorkloadEvent::Depart(id) => {
                    assert!(alive.remove(id), "departure of unknown task {id}");
                }
                WorkloadEvent::Renew(id) => panic!("generator never emits renewals, got {id}"),
            }
        }
    }

    #[test]
    fn departures_follow_their_arrivals() {
        let events = ChurnGenerator::new()
            .events(120)
            .lifetime_range(Time::from_millis(20), Time::from_millis(200))
            .seed(11)
            .generate()
            .unwrap();
        assert!(
            events.iter().any(|e| !e.is_arrival()),
            "short lifetimes must produce departures"
        );
    }

    #[test]
    fn offered_load_tracks_the_target() {
        let gen = ChurnGenerator::new()
            .cores(4)
            .target_normalized_utilization(0.6)
            .events(400)
            .seed(5);
        let events = gen.generate().unwrap();
        // Track the running offered load and average it over events.
        let mut alive: std::collections::BTreeMap<TaskId, f64> = std::collections::BTreeMap::new();
        let mut samples = Vec::new();
        for event in &events {
            match event {
                WorkloadEvent::Arrive(task) => {
                    alive.insert(task.id(), task.utilization());
                }
                WorkloadEvent::Depart(id) => {
                    alive.remove(id);
                }
                WorkloadEvent::Renew(_) => {}
            }
            samples.push(alive.values().sum::<f64>());
        }
        // Skip the ramp-up; the steady-state average should be within ±50%
        // of the 2.4 target (the process is stochastic by design).
        let steady = &samples[samples.len() / 2..];
        let mean = steady.iter().sum::<f64>() / steady.len() as f64;
        assert!(
            (1.2..=3.6).contains(&mean),
            "steady-state offered load {mean} far from target 2.4"
        );
    }

    #[test]
    fn utilization_cap_bounds_every_arrival() {
        let events = ChurnGenerator::new()
            .target_normalized_utilization(0.9)
            .utilization_spread(0.9)
            .max_task_utilization(0.25)
            .events(200)
            .seed(9)
            .generate()
            .unwrap();
        for event in &events {
            if let WorkloadEvent::Arrive(task) = event {
                assert!(task.utilization() <= 0.25 + 1e-9);
            }
        }
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            assert!(ChurnGenerator::new()
                .max_task_utilization(bad)
                .generate()
                .is_err());
        }
    }

    #[test]
    fn explicit_poisson_family_matches_the_default() {
        // The family knob must not perturb the Poisson draw order: a
        // generator explicitly set to Poisson (with arbitrary burst
        // parameters, which Poisson ignores) reproduces the default
        // trace byte-for-byte.
        let default_trace = ChurnGenerator::new()
            .events(80)
            .seed(21)
            .generate_timed()
            .unwrap();
        let explicit = ChurnGenerator::new()
            .events(80)
            .seed(21)
            .family(ChurnFamily::Poisson)
            .burst_profile(8.0, 0.5, 0.5)
            .generate_timed()
            .unwrap();
        assert_eq!(default_trace, explicit);
    }

    #[test]
    fn bursty_traces_are_deterministic_and_differ_from_poisson() {
        let bursty = ChurnGenerator::new()
            .events(120)
            .seed(21)
            .family(ChurnFamily::Bursty);
        assert_eq!(
            bursty.generate_timed().unwrap(),
            bursty.generate_timed().unwrap(),
            "equal seeds must reproduce bursty traces byte-identically"
        );
        let poisson = ChurnGenerator::new()
            .events(120)
            .seed(21)
            .generate_timed()
            .unwrap();
        assert_ne!(
            bursty.generate_timed().unwrap(),
            poisson,
            "modulation must change the timeline"
        );
    }

    #[test]
    fn bursty_long_run_rate_tracks_poisson() {
        // The OFF stretch is derived so the stationary arrival rate
        // matches the memoryless family: over a long trace the last
        // arrival times should agree within a factor of two.
        let horizon = |family: ChurnFamily| {
            let trace = ChurnGenerator::new()
                .events(600)
                .seed(3)
                .family(family)
                .generate_timed()
                .unwrap();
            trace
                .iter()
                .filter(|t| t.event.is_arrival())
                .map(|t| t.at)
                .max()
                .unwrap()
                .as_secs_f64()
        };
        let p = horizon(ChurnFamily::Poisson);
        let b = horizon(ChurnFamily::Bursty);
        assert!(
            (0.5..=2.0).contains(&(b / p)),
            "bursty horizon {b} drifted from poisson horizon {p}"
        );
    }

    #[test]
    fn bursty_burstiness_raises_interarrival_variance() {
        let arrivals = |family: ChurnFamily| -> Vec<f64> {
            ChurnGenerator::new()
                .events(400)
                .seed(9)
                .family(family)
                .generate_timed()
                .unwrap()
                .into_iter()
                .filter(|t| t.event.is_arrival())
                .map(|t| t.at.as_secs_f64())
                .collect()
        };
        let cv2 = |times: &[f64]| {
            let gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            var / (mean * mean)
        };
        let poisson = cv2(&arrivals(ChurnFamily::Poisson));
        let bursty = cv2(&arrivals(ChurnFamily::Bursty));
        assert!(
            bursty > poisson,
            "bursty CV² {bursty} should exceed poisson CV² {poisson}"
        );
    }

    #[test]
    fn bursty_parameters_are_validated_and_parse() {
        let bad = |g: ChurnGenerator| g.family(ChurnFamily::Bursty).generate().is_err();
        assert!(bad(ChurnGenerator::new().burst_profile(1.0, 0.3, 0.3)));
        assert!(bad(ChurnGenerator::new().burst_profile(f64::NAN, 0.3, 0.3)));
        assert!(bad(ChurnGenerator::new().burst_profile(4.0, 0.0, 0.3)));
        assert!(bad(ChurnGenerator::new().burst_profile(4.0, 0.3, 1.0)));
        // Poisson ignores (and so tolerates) nonsense burst parameters.
        assert!(ChurnGenerator::new()
            .burst_profile(0.0, 9.0, -1.0)
            .generate()
            .is_ok());
        assert_eq!("bursty".parse::<ChurnFamily>(), Ok(ChurnFamily::Bursty));
        assert_eq!("Poisson".parse::<ChurnFamily>(), Ok(ChurnFamily::Poisson));
        assert!("storm".parse::<ChurnFamily>().is_err());
        assert_eq!(ChurnFamily::Bursty.to_string(), "bursty");
    }

    #[test]
    fn injected_renewals_heartbeat_between_arrival_and_departure() {
        let trace = ChurnGenerator::new()
            .events(60)
            .lifetime_range(Time::from_millis(50), Time::from_millis(400))
            .seed(19)
            .generate_timed()
            .unwrap();
        let every = Time::from_millis(40);
        let renewed = inject_renewals(&trace, every);
        assert!(
            renewed.iter().any(|t| t.event.is_renewal()),
            "lifetimes above 40 ms must produce heartbeats"
        );
        assert!(
            renewed.windows(2).all(|w| w[0].at <= w[1].at),
            "renewed trace must stay time-sorted"
        );
        // Originals survive untouched, renewals fall strictly inside
        // their task's residency window.
        let originals: Vec<_> = renewed
            .iter()
            .filter(|t| !t.event.is_renewal())
            .cloned()
            .collect();
        assert_eq!(originals, trace);
        for timed in renewed.iter().filter(|t| t.event.is_renewal()) {
            let id = timed.event.task_id();
            let arrive = trace
                .iter()
                .find(|t| t.event.is_arrival() && t.event.task_id() == id)
                .expect("renewal of an arrived task")
                .at;
            let depart = trace
                .iter()
                .find(|t| matches!(t.event, WorkloadEvent::Depart(d) if d == id))
                .map(|t| t.at);
            assert!(timed.at > arrive);
            if let Some(depart) = depart {
                assert!(timed.at < depart, "renewal after departure of {id}");
            }
        }
        // Determinism and edge cases.
        assert_eq!(renewed, inject_renewals(&trace, every));
        assert_eq!(inject_renewals(&trace, Time::ZERO), trace);
        assert_eq!(inject_renewals(&[], every), Vec::<TimedEvent>::new());
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(ChurnGenerator::new().events(0).generate().is_err());
        assert!(ChurnGenerator::new().cores(0).generate().is_err());
        assert!(ChurnGenerator::new()
            .target_normalized_utilization(0.0)
            .generate()
            .is_err());
        assert!(ChurnGenerator::new()
            .target_normalized_utilization(f64::NAN)
            .generate()
            .is_err());
        assert!(ChurnGenerator::new()
            .mean_interarrival(Time::ZERO)
            .generate()
            .is_err());
        assert!(ChurnGenerator::new()
            .lifetime_range(Time::from_millis(10), Time::from_millis(1))
            .generate()
            .is_err());
        assert!(ChurnGenerator::new()
            .period_range(Time::ZERO, Time::from_millis(1))
            .generate()
            .is_err());
    }
}
