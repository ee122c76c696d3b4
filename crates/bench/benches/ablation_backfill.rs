//! Ablation: backfilling variant (none / aggressive-EASY / conservative).
//!
//! The paper evaluates aggressive backfilling; conservative backfilling is
//! this repository's extension. Reports median AVEbsld and mean backfilled
//! jobs per sequence for all three variants across the paper's line-up.

use dynsched_bench::{banner, scenario_scale};
use dynsched_core::scenarios::{model_scenario_in, Condition};
use dynsched_core::{run_experiment, Experiment};
use dynsched_policies::paper_lineup;
use dynsched_scheduler::BackfillMode;
use dynsched_workload::TraceStore;

fn main() {
    banner("Ablation: backfilling variants");
    let scale = scenario_scale();
    let base = model_scenario_in(&TraceStore::new(), 256, Condition::UserEstimates, &scale);
    let lineup = paper_lineup();
    let variants = [
        ("none", BackfillMode::None),
        ("EASY", BackfillMode::Aggressive),
        ("conservative", BackfillMode::Conservative),
    ];
    println!("median AVEbsld (mean backfilled jobs/sequence):");
    print!("{:>14}", "variant");
    for p in &lineup {
        use dynsched_policies::Policy as _;
        print!(" {:>18}", p.name());
    }
    println!();
    for (label, mode) in variants {
        let mut scheduler = base.scheduler;
        scheduler.backfill = mode;
        let experiment = Experiment {
            scheduler,
            ..base.clone()
        };
        let result = run_experiment(&experiment, &lineup);
        print!("{label:>14}");
        for o in &result.outcomes {
            print!(" {:>10.2} ({:>4.0})", o.median, o.mean_backfilled);
        }
        println!();
    }
    println!("\nreading: FCFS+EASY gains the most; the learned policies start from a");
    println!("better order so backfilling finds fewer holes (paper §4.2.3).");
    println!("Conservative backfilling is costlier per event and usually lands between");
    println!("none and EASY in median.");
}
