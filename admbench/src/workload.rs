//! The named workloads: one churn trace shape plus one service
//! configuration each.

use spms_online::{ChurnFamily, ChurnGenerator, EventLoopConfig, OnlineConfig, TimedEvent};
use spms_overhead::{CostModelSpec, CrpdCostModel};
use spms_task::Time;

/// How large a run's trace is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few thousand events, for the benchmark's own tests.
    Smoke,
}

/// One workload: the trace the harness generates and the service it drives.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    cores: usize,
    /// Number of admission shards the cores are split into.
    pub shards: usize,
    family: ChurnFamily,
    utilization: f64,
    cost_model: CostModelSpec,
    /// Whether shard-spanning splits are enabled.
    pub cross_shard: bool,
    events: usize,
    smoke_events: usize,
    /// Replay every Nth admission through the simulator in the oracle pass.
    pub replay_every: usize,
}

/// Every workload name, in the order the benchmark definition lists them.
pub const NAMES: [&str; 3] = ["fastpath", "saturated", "fleet"];

impl Workload {
    /// The workload called `name`, if there is one.
    pub fn by_name(name: &str) -> Option<Workload> {
        let base = Workload {
            name: "",
            cores: 8,
            shards: 1,
            family: ChurnFamily::Poisson,
            utilization: 0.4,
            cost_model: CostModelSpec::Zero,
            cross_shard: false,
            events: 0,
            smoke_events: 0,
            replay_every: 0,
        };
        let workload = match name {
            // Every arrival is admitted whole on the first stage.
            "fastpath" => Workload {
                name: "fastpath",
                events: 300_000,
                smoke_events: 4_000,
                replay_every: 1_000,
                ..base
            },
            // Charged splitting, bounded repair and full repartition.
            "saturated" => Workload {
                name: "saturated",
                family: ChurnFamily::Bursty,
                utilization: 0.9,
                cost_model: CostModelSpec::Crpd(CrpdCostModel::heavy()),
                events: 72_000,
                smoke_events: 2_000,
                replay_every: 100,
                ..base
            },
            // Routing, overflow, rebalancing and cross-shard splits.
            "fleet" => Workload {
                name: "fleet",
                cores: 16,
                shards: 4,
                utilization: 0.85,
                cross_shard: true,
                events: 100_000,
                smoke_events: 4_000,
                replay_every: 500,
                ..base
            },
            _ => return None,
        };
        Some(workload)
    }

    /// The churn trace of `seed`: the only input the service sees.
    pub fn trace(&self, seed: u64, size: Size) -> Vec<TimedEvent> {
        let events = match size {
            Size::Full => self.events,
            Size::Smoke => self.smoke_events,
        };
        ChurnGenerator::new()
            .cores(self.cores)
            .target_normalized_utilization(self.utilization)
            .events(events)
            .family(self.family)
            .seed(seed)
            .generate_timed()
            .expect("workload generator settings are valid")
    }

    /// The service configuration: repair bound 2 and the full-repartition
    /// fallback on every workload.
    pub fn config(&self) -> OnlineConfig {
        OnlineConfig::builder()
            .cores(self.cores)
            .max_repair_moves(2)
            .fallback(true)
            .cost_model(self.cost_model.clone())
            .cross_shard_split(self.cross_shard)
            .build()
    }

    /// The event-loop configuration: a rebalance tick every 250 ms moving
    /// at most four tasks, tie-shuffle seeded from the trace seed.
    pub fn loop_config(&self, seed: u64) -> EventLoopConfig {
        EventLoopConfig::new(seed)
            .with_rebalance_period(Some(Time::from_millis(250)))
            .with_rebalance_max_moves(4)
    }
}
