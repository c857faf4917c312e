//! Seeded deterministic fault-injection plans for the online admission
//! engine.
//!
//! Chaos testing is only useful here if it preserves the workspace's core
//! determinism contract: the same seed and fault plan must produce the
//! same run, byte for byte, at any `--threads`. So a fault plan is not a
//! background thread flipping coins — it is a plain, pre-materialized list
//! of timestamped [`FaultEvent`]s that the online event loop merges into
//! its heap like any other scheduled work. Injection order, recovery
//! order, and every telemetry counter downstream are then pure functions
//! of (workload seed, fault plan).
//!
//! Plans come from two places:
//!
//! * a [`FaultSpec`] — rate knobs plus a seed, parsed from a CLI string
//!   like `crash=1,stall=2,corrupt=1,seed=7`, expanded into concrete
//!   events by [`FaultSpec::plan`] via a dedicated ChaCha8 stream; or
//! * a JSON-lines script ([`FaultPlan::from_script`] /
//!   [`FaultPlan::to_script`]), one `FaultEvent` per line, for replaying
//!   a hand-written or previously generated scenario exactly.
//!
//! What each [`FaultKind`] *means* (crash → drain + re-admit elsewhere,
//! stall → exclude from placement, corruption → audit bait, cost spike →
//! inflated migration charge) is the admission service's business; this
//! crate only describes the faults.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One typed fault to inject, with its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The shard dies: its residency must be drained and re-admitted onto
    /// the survivors. It rejoins empty after `down_ms` milliseconds.
    ShardCrash {
        /// Index of the shard to kill.
        shard: usize,
        /// How long the shard stays down before rejoining.
        down_ms: u64,
    },
    /// The shard freezes for `ms` milliseconds: it keeps its residents but
    /// is excluded from new placements until the stall ends.
    ShardStall {
        /// Index of the shard to stall.
        shard: usize,
        /// Stall duration.
        ms: u64,
    },
    /// Flips one memoized response time in the shard's analysis cache on
    /// `core`, so a later self-audit has something real to detect.
    CacheCorruption {
        /// Index of the shard whose cache to corrupt.
        shard: usize,
        /// Core index *within the shard's partition* to corrupt.
        core: usize,
    },
    /// Multiplies the cross-shard migration charge by `factor` for `ms`
    /// milliseconds, pressuring the admission cost model.
    CostSpike {
        /// Cost multiplier (≥ 1; 1 is a no-op spike).
        factor: u32,
        /// Spike duration.
        ms: u64,
    },
}

impl FaultKind {
    /// How long the fault's effect lasts. Zero-duration faults
    /// (corruption) are instantaneous state flips with no scheduled end —
    /// they are undone by repair, not by time.
    pub fn duration_ms(&self) -> u64 {
        match self {
            FaultKind::ShardCrash { down_ms, .. } => *down_ms,
            FaultKind::ShardStall { ms, .. } => *ms,
            FaultKind::CacheCorruption { .. } => 0,
            FaultKind::CostSpike { ms, .. } => *ms,
        }
    }

    /// Stable lowercase label for logs and counters.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::ShardCrash { .. } => "shard_crash",
            FaultKind::ShardStall { .. } => "shard_stall",
            FaultKind::CacheCorruption { .. } => "cache_corruption",
            FaultKind::CostSpike { .. } => "cost_spike",
        }
    }
}

/// A fault scheduled at an absolute scenario time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Scenario time at which the fault fires, in milliseconds.
    pub at_ms: u64,
    /// The fault itself.
    pub kind: FaultKind,
}

/// An ordered list of faults to inject into one run. Events are kept
/// sorted by time (stable, so same-time events keep insertion order and
/// the event loop's deterministic tie-shuffle does the rest).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (inject nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds one event, keeping the plan sorted by `at_ms`.
    pub fn push(&mut self, event: FaultEvent) {
        let at = self
            .events
            .partition_point(|existing| existing.at_ms <= event.at_ms);
        self.events.insert(at, event);
    }

    /// The scheduled events, sorted by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Parses a JSON-lines script: one [`FaultEvent`] per line, blank
    /// lines and `#` comments skipped. Events may appear in any order —
    /// the plan re-sorts by time.
    pub fn from_script(script: &str) -> Result<FaultPlan, FaultParseError> {
        let mut plan = FaultPlan::new();
        for (lineno, line) in script.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let event: FaultEvent = serde_json::from_str(line).map_err(|err| FaultParseError {
                what: format!("script line {}: {err}", lineno + 1),
            })?;
            plan.push(event);
        }
        Ok(plan)
    }

    /// Renders the plan as a JSON-lines script that
    /// [`from_script`](Self::from_script) reads back verbatim.
    pub fn to_script(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&serde_json::to_string(event).expect("FaultEvent serializes"));
            out.push('\n');
        }
        out
    }
}

/// Rate knobs for generated fault plans, parsed from the CLI's `--faults`
/// string (e.g. `crash=1,stall=2,corrupt=1,spike=1,seed=7`). Counts
/// default to zero and the seed to [`FaultSpec::DEFAULT_SEED`], so
/// `crash=1` alone is a valid spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Number of [`FaultKind::ShardCrash`] events to draw.
    pub crashes: u32,
    /// Number of [`FaultKind::ShardStall`] events to draw.
    pub stalls: u32,
    /// Number of [`FaultKind::CacheCorruption`] events to draw.
    pub corruptions: u32,
    /// Number of [`FaultKind::CostSpike`] events to draw.
    pub cost_spikes: u32,
    /// Seed for the dedicated fault ChaCha8 stream (independent of the
    /// workload seed, so adding faults never perturbs workload draws).
    pub seed: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            crashes: 0,
            stalls: 0,
            corruptions: 0,
            cost_spikes: 0,
            seed: FaultSpec::DEFAULT_SEED,
        }
    }
}

impl FaultSpec {
    /// Default fault-stream seed when the spec does not name one.
    pub const DEFAULT_SEED: u64 = 0xFA_017;

    /// Parses the CLI knob string. Keys: `crash`, `stall`, `corrupt`,
    /// `spike` (counts) and `seed`. Unknown keys and malformed values are
    /// errors, not silently ignored — a typoed chaos run must not quietly
    /// test nothing.
    pub fn parse(spec: &str) -> Result<FaultSpec, FaultParseError> {
        let mut out = FaultSpec::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let Some((key, value)) = part.split_once('=') else {
                return Err(FaultParseError {
                    what: format!("expected key=value, got `{part}`"),
                });
            };
            let parse_u32 = |v: &str| {
                v.trim().parse::<u32>().map_err(|_| FaultParseError {
                    what: format!("`{key}` wants an unsigned count, got `{v}`"),
                })
            };
            match key.trim() {
                "crash" => out.crashes = parse_u32(value)?,
                "stall" => out.stalls = parse_u32(value)?,
                "corrupt" => out.corruptions = parse_u32(value)?,
                "spike" => out.cost_spikes = parse_u32(value)?,
                "seed" => {
                    out.seed = value.trim().parse::<u64>().map_err(|_| FaultParseError {
                        what: format!("`seed` wants a u64, got `{value}`"),
                    })?
                }
                other => {
                    return Err(FaultParseError {
                        what: format!(
                            "unknown fault knob `{other}` \
                             (known: crash, stall, corrupt, spike, seed)"
                        ),
                    })
                }
            }
        }
        Ok(out)
    }

    /// Total events this spec will draw, as a `u64`: four `u32` counts can
    /// sum past `u32::MAX`.
    pub fn event_count(&self) -> u64 {
        [
            self.crashes,
            self.stalls,
            self.corruptions,
            self.cost_spikes,
        ]
        .into_iter()
        .map(u64::from)
        .sum()
    }

    /// Expands the spec into a concrete [`FaultPlan`] for a scenario of
    /// `horizon_ms` with `shards` shards of `cores_per_shard` cores each.
    /// Deterministic in the spec alone: the draw order is fixed (crashes,
    /// then stalls, corruptions, spikes), so the same spec yields the
    /// same plan regardless of thread count or platform.
    ///
    /// Fault times land in the middle 80% of the horizon so crashes have
    /// workload behind them to drain and room ahead to recover and
    /// rejoin; durations are drawn between 5% and 20% of the horizon.
    pub fn plan(&self, horizon_ms: u64, shards: usize, cores_per_shard: usize) -> FaultPlan {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut plan = FaultPlan::new();
        let span = horizon_ms.max(10);
        let (lo, hi) = (span / 10, (span * 9 / 10).max(span / 10 + 1));
        let dur = |rng: &mut ChaCha8Rng| rng.gen_range((span / 20).max(1)..(span / 5).max(2));
        let shard = |rng: &mut ChaCha8Rng| rng.gen_range(0..shards.max(1));
        for _ in 0..self.crashes {
            let (shard, at_ms, down_ms) = (shard(&mut rng), rng.gen_range(lo..hi), dur(&mut rng));
            plan.push(FaultEvent {
                at_ms,
                kind: FaultKind::ShardCrash { shard, down_ms },
            });
        }
        for _ in 0..self.stalls {
            let (shard, at_ms, ms) = (shard(&mut rng), rng.gen_range(lo..hi), dur(&mut rng));
            plan.push(FaultEvent {
                at_ms,
                kind: FaultKind::ShardStall { shard, ms },
            });
        }
        for _ in 0..self.corruptions {
            let (shard, at_ms) = (shard(&mut rng), rng.gen_range(lo..hi));
            let core = rng.gen_range(0..cores_per_shard.max(1));
            plan.push(FaultEvent {
                at_ms,
                kind: FaultKind::CacheCorruption { shard, core },
            });
        }
        for _ in 0..self.cost_spikes {
            let (at_ms, ms) = (rng.gen_range(lo..hi), dur(&mut rng));
            let factor = rng.gen_range(2..8u32);
            plan.push(FaultEvent {
                at_ms,
                kind: FaultKind::CostSpike { factor, ms },
            });
        }
        plan
    }
}

/// Error from [`FaultSpec::parse`] or [`FaultPlan::from_script`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParseError {
    what: String,
}

impl std::fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid fault spec: {}", self.what)
    }
}

impl std::error::Error for FaultParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_knobs_and_defaults() {
        let spec = FaultSpec::parse("crash=1, stall=2,corrupt=3,spike=4,seed=99").unwrap();
        assert_eq!(
            spec,
            FaultSpec {
                crashes: 1,
                stalls: 2,
                corruptions: 3,
                cost_spikes: 4,
                seed: 99,
            }
        );
        let partial = FaultSpec::parse("crash=2").unwrap();
        assert_eq!(partial.crashes, 2);
        assert_eq!(partial.stalls, 0);
        assert_eq!(partial.seed, FaultSpec::DEFAULT_SEED);
        assert_eq!(FaultSpec::parse("").unwrap(), FaultSpec::default());
    }

    #[test]
    fn spec_rejects_unknown_and_malformed_knobs() {
        assert!(FaultSpec::parse("crashes=1").is_err());
        assert!(FaultSpec::parse("crash").is_err());
        assert!(FaultSpec::parse("crash=lots").is_err());
        assert!(FaultSpec::parse("seed=-3").is_err());
    }

    #[test]
    fn event_count_does_not_wrap() {
        let spec = FaultSpec::parse("crash=4294967295,stall=1").unwrap();
        assert_eq!(spec.event_count(), 1 << 32);
    }

    #[test]
    fn plan_generation_is_deterministic_and_sorted() {
        let spec = FaultSpec::parse("crash=2,stall=2,corrupt=2,spike=2,seed=7").unwrap();
        let a = spec.plan(1000, 4, 4);
        let b = spec.plan(1000, 4, 4);
        assert_eq!(a, b);
        assert_eq!(a.len() as u64, spec.event_count());
        assert!(a.events().windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        // Every draw lands inside the middle band with room to recover.
        assert!(a.events().iter().all(|e| e.at_ms >= 100 && e.at_ms < 900));
        // A different seed moves the plan.
        let other = FaultSpec { seed: 8, ..spec }.plan(1000, 4, 4);
        assert_ne!(a, other);
    }

    #[test]
    fn script_round_trips_with_comments_and_blanks() {
        let spec = FaultSpec::parse("crash=1,stall=1,corrupt=1,spike=1,seed=3").unwrap();
        let plan = spec.plan(500, 2, 4);
        let mut script = String::from("# chaos scenario\n\n");
        script.push_str(&plan.to_script());
        let parsed = FaultPlan::from_script(&script).unwrap();
        assert_eq!(parsed, plan);
        assert!(FaultPlan::from_script("not json\n").is_err());
    }

    #[test]
    fn push_keeps_same_time_events_in_insertion_order() {
        let mut plan = FaultPlan::new();
        let first = FaultEvent {
            at_ms: 5,
            kind: FaultKind::ShardStall { shard: 0, ms: 1 },
        };
        let second = FaultEvent {
            at_ms: 5,
            kind: FaultKind::ShardStall { shard: 1, ms: 1 },
        };
        plan.push(FaultEvent {
            at_ms: 9,
            kind: FaultKind::CacheCorruption { shard: 0, core: 0 },
        });
        plan.push(first);
        plan.push(second);
        assert_eq!(plan.events()[0], first);
        assert_eq!(plan.events()[1], second);
        assert_eq!(plan.events()[2].at_ms, 9);
    }
}
