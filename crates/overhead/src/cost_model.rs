//! Pluggable admission cost models: what one migration costs a task.
//!
//! The online admission cascade (`spms-online`) decides whether a split,
//! repair relocation or rebalance move keeps the partition schedulable. The
//! paper's §3 measurements say such moves are *not* free: every core
//! boundary a task crosses costs a cache reload (the CRPD model in
//! `spms-cache`) plus fixed scheduler-function work (the `sch()` /
//! `cnt_swth()` costs this crate measures). A [`CostModel`] turns those
//! measurements into a per-task **WCET inflation charge**: the extra
//! execution budget the admission test must prove schedulable before the
//! move is allowed.
//!
//! Two implementations ship:
//!
//! * [`ZeroCost`] — migrations are free; decisions are byte-identical to the
//!   pre-cost-model controller (pinned by proptests in `spms-online`).
//! * [`CrpdCostModel`] — charges the analytic cache-reload cost of the
//!   task's working set on the configured hierarchy, plus fixed
//!   context-switch and scheduler costs. Tasks carry no footprint field, so
//!   a deterministic [`WorkingSetAttribution`] derives one from the task id.
//!
//! [`CostModelSpec`] is the serializable selector `OnlineConfig` stores.

use serde::{Deserialize, Serialize};
use spms_cache::{CacheHierarchyConfig, CrpdModel, WorkingSet};
use spms_task::{fnv1a, Task, Time};

use crate::FunctionCostReport;

/// Per-migration WCET inflation charged by the online admission cascade.
///
/// Implementations must be **pure**: the charge may depend only on the task
/// and the model's own configuration, never on mutable state — the cascade
/// recomputes charges from the pristine admitted task on every relocation,
/// so a task is charged exactly once per move and charges never compound.
pub trait CostModel {
    /// Extra WCET `task` must absorb each time its placement crosses a core
    /// boundary (a split-chain hop, a repair relocation, a rebalance move).
    fn migration_charge(&self, task: &Task) -> Time;
}

/// The free model: every migration costs nothing.
///
/// This is the default and reproduces the pre-cost-model admission
/// behaviour bit for bit.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ZeroCost;

impl CostModel for ZeroCost {
    fn migration_charge(&self, _task: &Task) -> Time {
        Time::ZERO
    }
}

/// Deterministic attribution of working sets to tasks.
///
/// The sporadic task model has no memory-footprint parameter, so the cost
/// model derives one purely from the task id — stable across runs, thread
/// counts and relocations of the same task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkingSetAttribution {
    /// Every task uses the same working-set size.
    Uniform {
        /// Working-set size in bytes.
        bytes: u64,
    },
    /// Per-task size interpolated between the bounds by an FNV-1a hash of
    /// the task id — a mixed population with a stable size per task.
    HashSpread {
        /// Smallest working set in the population, in bytes.
        min_bytes: u64,
        /// Largest working set in the population, in bytes.
        max_bytes: u64,
    },
}

impl WorkingSetAttribution {
    /// The working set attributed to `task`.
    pub fn working_set(&self, task: &Task) -> WorkingSet {
        match *self {
            WorkingSetAttribution::Uniform { bytes } => WorkingSet::from_bytes(bytes),
            WorkingSetAttribution::HashSpread {
                min_bytes,
                max_bytes,
            } => {
                let lo = min_bytes.min(max_bytes);
                let hi = min_bytes.max(max_bytes);
                // Integer interpolation over a 1024-bucket hash of the id:
                // deterministic, no floating point involved.
                let bucket = fnv1a(&task.id().0.to_le_bytes()) % 1024;
                WorkingSet::from_bytes(lo + (hi - lo) * bucket / 1023)
            }
        }
    }
}

/// CRPD-based migration charge: analytic cache-reload cost of the task's
/// working set plus fixed scheduler-function costs.
///
/// The reload half comes from [`CrpdModel::analytic`] on the configured
/// hierarchy — the lines that survive in the shared L3 reload at L3 hit
/// latency, the rest from memory. The fixed half defaults to the paper's
/// `sch()` (5 µs) and `cnt_swth()` (1.5 µs) platform measurements and can be
/// replaced by values measured on *this* machine via
/// [`with_function_costs`](Self::with_function_costs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrpdCostModel {
    /// Cache hierarchy the reload cost is computed against.
    pub hierarchy: CacheHierarchyConfig,
    /// How tasks map to working-set sizes.
    pub attribution: WorkingSetAttribution,
    /// Fixed per-migration scheduler invocation cost (the paper's `sch()`).
    pub schedule: Time,
    /// Fixed per-migration context-switch cost (the paper's `cnt_swth()`).
    pub context_switch: Time,
}

impl CrpdCostModel {
    /// A model over `hierarchy` with the given attribution and the paper's
    /// fixed function costs (`sch()` 5 µs, `cnt_swth()` 1.5 µs).
    pub fn new(hierarchy: CacheHierarchyConfig, attribution: WorkingSetAttribution) -> Self {
        CrpdCostModel {
            hierarchy,
            attribution,
            schedule: Time::from_micros(5),
            context_switch: Time::from_micros_f64(1.5),
        }
    }

    /// A working-set-**light** population on the paper's Core-i7 hierarchy:
    /// 8 KiB per task, well inside the private caches — migrations cost a
    /// few microseconds.
    pub fn light() -> Self {
        CrpdCostModel::new(
            CacheHierarchyConfig::core_i7_4core(),
            WorkingSetAttribution::Uniform { bytes: 8 * 1024 },
        )
    }

    /// A working-set-**heavy** population on the paper's Core-i7 hierarchy:
    /// 2 MiB per task, far beyond the private caches — migrations cost
    /// hundreds of microseconds.
    pub fn heavy() -> Self {
        CrpdCostModel::new(
            CacheHierarchyConfig::core_i7_4core(),
            WorkingSetAttribution::Uniform {
                bytes: 2 * 1024 * 1024,
            },
        )
    }

    /// A mixed population on the paper's Core-i7 hierarchy: per-task sizes
    /// hash-spread between 8 KiB and 2 MiB.
    pub fn mixed() -> Self {
        CrpdCostModel::new(
            CacheHierarchyConfig::core_i7_4core(),
            WorkingSetAttribution::HashSpread {
                min_bytes: 8 * 1024,
                max_bytes: 2 * 1024 * 1024,
            },
        )
    }

    /// Replaces the fixed function costs with means measured on this
    /// machine by [`FunctionCosts`](crate::FunctionCosts).
    pub fn with_function_costs(mut self, report: &FunctionCostReport) -> Self {
        self.schedule = Time::from_nanos(report.schedule.mean_ns.round() as u64);
        self.context_switch = Time::from_nanos(report.context_switch.mean_ns.round() as u64);
        self
    }

    /// The working set attributed to `task`.
    pub fn working_set(&self, task: &Task) -> WorkingSet {
        self.attribution.working_set(task)
    }

    /// The analytic cache-reload cost of migrating `task` once.
    pub fn reload_charge(&self, task: &Task) -> Time {
        let ws = self.working_set(task);
        let estimate = CrpdModel::new(self.hierarchy.clone()).analytic(ws, ws);
        Time::from_nanos(estimate.migration_ns)
    }
}

impl CostModel for CrpdCostModel {
    fn migration_charge(&self, task: &Task) -> Time {
        self.reload_charge(task) + self.schedule + self.context_switch
    }
}

/// Serializable cost-model selector, the form `OnlineConfig` stores.
///
/// Keeping this an enum (rather than a boxed trait object) preserves the
/// config's `Clone`/`PartialEq`/serde derives and keeps decision replay
/// deterministic from a serialized config alone.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub enum CostModelSpec {
    /// Migrations are free (the default).
    #[default]
    Zero,
    /// CRPD-based WCET inflation.
    Crpd(CrpdCostModel),
}

impl CostModelSpec {
    /// Whether this is the free model (charges are always zero).
    pub fn is_zero(&self) -> bool {
        matches!(self, CostModelSpec::Zero)
    }

    /// A short stable label for report columns (`"zero"` / `"crpd"`).
    pub fn label(&self) -> &'static str {
        match self {
            CostModelSpec::Zero => "zero",
            CostModelSpec::Crpd(_) => "crpd",
        }
    }
}

impl CostModel for CostModelSpec {
    fn migration_charge(&self, task: &Task) -> Time {
        match self {
            CostModelSpec::Zero => Time::ZERO,
            CostModelSpec::Crpd(model) => model.migration_charge(task),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(id: u32) -> Task {
        Task::new(id, Time::from_millis(2), Time::from_millis(50)).unwrap()
    }

    #[test]
    fn zero_cost_charges_nothing() {
        assert_eq!(ZeroCost.migration_charge(&task(7)), Time::ZERO);
        assert_eq!(CostModelSpec::Zero.migration_charge(&task(7)), Time::ZERO);
        assert!(CostModelSpec::default().is_zero());
    }

    #[test]
    fn heavy_working_sets_cost_orders_of_magnitude_more() {
        let light = CrpdCostModel::light().migration_charge(&task(1));
        let heavy = CrpdCostModel::heavy().migration_charge(&task(1));
        assert!(light > Time::ZERO);
        // 2 MiB of reload dwarfs 8 KiB plus the fixed costs.
        assert!(heavy.as_nanos() > 10 * light.as_nanos());
        // Both models still charge the fixed scheduler work.
        let fixed = CrpdCostModel::light().schedule + CrpdCostModel::light().context_switch;
        assert!(light >= fixed);
    }

    #[test]
    fn hash_spread_is_deterministic_and_bounded() {
        let model = CrpdCostModel::mixed();
        for id in 0..64 {
            let a = model.working_set(&task(id)).bytes();
            let b = model.working_set(&task(id)).bytes();
            assert_eq!(a, b, "attribution must be stable per task");
            assert!((8 * 1024..=2 * 1024 * 1024).contains(&a));
        }
        // The spread actually spreads.
        let sizes: std::collections::BTreeSet<u64> = (0..64)
            .map(|id| model.working_set(&task(id)).bytes())
            .collect();
        assert!(
            sizes.len() > 8,
            "expected a spread, got {} sizes",
            sizes.len()
        );
    }

    #[test]
    fn measured_function_costs_replace_the_paper_values() {
        let report = FunctionCostReport {
            release: crate::DurationStats::from_samples(&[std::time::Duration::from_nanos(100)]),
            schedule: crate::DurationStats::from_samples(&[std::time::Duration::from_nanos(200)]),
            context_switch: crate::DurationStats::from_samples(&[std::time::Duration::from_nanos(
                300,
            )]),
        };
        let model = CrpdCostModel::light().with_function_costs(&report);
        assert_eq!(model.schedule, Time::from_nanos(200));
        assert_eq!(model.context_switch, Time::from_nanos(300));
    }

    #[test]
    fn spec_round_trips_through_serde() {
        for spec in [
            CostModelSpec::Zero,
            CostModelSpec::Crpd(CrpdCostModel::mixed()),
        ] {
            let json = serde_json::to_string(&spec).unwrap();
            let back: CostModelSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back);
        }
        assert_eq!(CostModelSpec::Zero.label(), "zero");
        assert_eq!(CostModelSpec::Crpd(CrpdCostModel::light()).label(), "crpd");
    }
}
