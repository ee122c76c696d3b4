//! Ablation: the bounded-slowdown threshold τ (Eq. 1; paper uses 10 s).
//!
//! τ caps the slowdown of very short jobs. This bench re-scores the *same*
//! schedules under τ ∈ {1, 10, 60} to show how much of each policy's
//! reported advantage rides on tiny-job slowdowns.

use dynsched_bench::{banner, scenario_scale};
use dynsched_core::scenarios::{model_scenario_in, Condition};
use dynsched_core::{run_experiment, Experiment};
use dynsched_policies::paper_lineup;
use dynsched_workload::TraceStore;

fn main() {
    banner("Ablation: bounded-slowdown threshold tau");
    let scale = scenario_scale();
    let base = model_scenario_in(&TraceStore::new(), 256, Condition::ActualRuntimes, &scale);
    let lineup = paper_lineup();
    println!("medians of AVEbsld on the same workload, per tau:");
    print!("{:>6}", "tau");
    for p in &lineup {
        use dynsched_policies::Policy as _;
        print!(" {:>10}", p.name());
    }
    println!();
    for tau in [1.0, 10.0, 60.0] {
        let experiment = Experiment {
            tau,
            ..base.clone()
        };
        let result = run_experiment(&experiment, &lineup);
        print!("{tau:>6}");
        for o in &result.outcomes {
            print!(" {:>10.2}", o.median);
        }
        println!();
    }
    println!("\nreading: smaller tau inflates every policy's AVEbsld (short jobs'");
    println!("slowdowns explode), but the policy ordering should be stable — the");
    println!("paper's conclusions do not hinge on the tau = 10 s choice.");
}
