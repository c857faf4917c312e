//! Ablation of the task-splitting policy (experiments E5/E8): FP-TS with the packing-oriented first-fit placement, FP-TS with
//! Guan's original next-fit splitting pass, and the DM-PM algorithm of
//! Kato & Yamasaki, compared on acceptance ratio and on the run-time costs
//! (splits, migrations, scheduler overhead) of the partitions they produce.
//!
//! Run with `cargo run --release --example splitting_policies`.

use spms::analysis::OverheadModel;
use spms::experiments::{AcceptanceRatioExperiment, AlgorithmKind, RuntimeCostExperiment};
use spms::task::Time;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sets = if quick { 20 } else { 100 };

    let lineup = vec![
        AlgorithmKind::FpTs,
        AlgorithmKind::FpTsNextFit,
        AlgorithmKind::DmPm,
        AlgorithmKind::Ffd,
    ];

    println!("=== acceptance ratio by splitting policy ({sets} sets/point, 4 cores, measured overheads) ===");
    let acceptance = AcceptanceRatioExperiment::new()
        .cores(4)
        .tasks_per_set(14)
        .utilization_points((12..=20).map(|i| i as f64 * 0.05).collect())
        .sets_per_point(sets)
        .algorithms(lineup.clone())
        .overhead(OverheadModel::paper_n4())
        .seed(2011)
        .threads(0)
        .run();
    println!("{}", acceptance.render_markdown());

    println!("=== simulated run-time cost of the accepted partitions (1 s windows) ===");
    let runtime = RuntimeCostExperiment::new()
        .cores(4)
        .tasks_per_set(14)
        .utilization_points(vec![0.6, 0.75, 0.9])
        .sets_per_point(sets.min(30))
        .algorithms(lineup)
        .overhead(OverheadModel::paper_n4())
        .simulation_window(Time::from_secs(1))
        .seed(2011)
        .threads(0)
        .run();
    println!("{}", runtime.render_markdown());

    println!(
        "Reading guide: FP-TS/NF splits on every processor boundary and therefore migrates the most;\n\
         the overhead % column shows that even then the scheduler consumes well below 1% of the\n\
         processor — the paper's core claim that task splitting is cheap at run time."
    );
}
