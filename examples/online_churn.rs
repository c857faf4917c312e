//! Online admission control under task churn.
//!
//! Generates a seeded timed churn trace (Poisson arrivals, log-uniform
//! lifetimes), runs it through the event loop into a one-shard
//! `spms-online` admission service while replaying every admitted epoch
//! through the discrete-event simulator, then prints the decision mix and
//! the full churn sweep table.
//!
//! ```sh
//! cargo run --release --example online_churn
//! ```

use spms::experiments::ChurnExperiment;
use spms::online::{
    ChurnGenerator, EventLoop, EventLoopConfig, OnlineConfig, ReplayConfig, ReplayOutcome,
    ShardedAdmission,
};
use spms::task::Time;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One trace, narrated.
    let trace = ChurnGenerator::new()
        .cores(4)
        .target_normalized_utilization(0.75)
        .events(120)
        .seed(2011)
        .generate_timed()?;
    let mut service = ShardedAdmission::new(OnlineConfig::new(4), 1)?;
    let mut event_loop = EventLoop::new(EventLoopConfig::new(2011));
    event_loop.load_trace(&trace);
    let replay = ReplayConfig::new(Time::from_millis(50));
    let mut replay_outcome = ReplayOutcome::default();
    event_loop.run_with(&mut service, |service, decision| {
        replay_outcome.observe(service.shards()[0].partition(), decision, Some(&replay));
    });

    let stats = service.stats().decisions;
    println!("one churn trace on 4 cores, target U/m = 0.75:");
    println!(
        "  {} arrivals, {} admitted ({:.0}%), {} departures",
        stats.arrivals,
        stats.admitted,
        100.0 * stats.acceptance_ratio(),
        stats.departures,
    );
    println!(
        "  decision paths: {} fast-whole, {} fast-split, {} repair, {} full repartition",
        stats.fast_whole, stats.fast_split, stats.repairs, stats.full_repartitions,
    );
    println!(
        "  {} already-placed tasks migrated; replay: {} epochs, {} deadline misses",
        stats.migrations_caused, replay_outcome.epochs, replay_outcome.deadline_misses,
    );

    // The sweep: acceptance under churn as the target load grows.
    println!("\nchurn sweep (20 traces per point, 120 events each):\n");
    let results = ChurnExperiment::new().cores(4).threads(0).seed(2011).run();
    print!("{}", results.render_markdown());
    assert_eq!(results.total_replay_misses(), 0);
    Ok(())
}
