//! Ablation: the Eq. 4 regression weight `r·n`.
//!
//! The paper weights squared residuals by the task area so big tasks are
//! fitted well ("tasks that consume a large amount of resources … have a
//! potential of blocking the execution of many smaller tasks"). This bench
//! fits the family with and without the weight and compares both the
//! winning functions and their error on the biggest-quartile tasks.

use dynsched_bench::{banner, trial_count};
use dynsched_cluster::Platform;
use dynsched_core::pipeline::{generate_training_set, TrainingConfig};
use dynsched_core::trials::TrialSpec;
use dynsched_core::tuples::TupleSpec;
use dynsched_mlreg::{fit_all, EnumerateOptions, TrainingSet};
use dynsched_workload::LublinModel;

fn big_task_mae(ts: &TrainingSet, f: &dynsched_policies::NonlinearFunction) -> f64 {
    let mut areas: Vec<f64> = ts.observations().iter().map(|o| o.weight()).collect();
    areas.sort_by(f64::total_cmp);
    let cutoff = areas[areas.len() * 3 / 4];
    let big: Vec<_> = ts
        .observations()
        .iter()
        .filter(|o| o.weight() >= cutoff)
        .collect();
    big.iter()
        .map(|o| (f.eval(o.runtime, o.cores, o.submit) - o.score).abs())
        .sum::<f64>()
        / big.len() as f64
}

fn main() {
    banner("Ablation: Eq. 4 area weighting in the regression");
    let config = TrainingConfig {
        tuple_spec: TupleSpec::default(),
        trial_spec: TrialSpec {
            trials: trial_count().min(8_192),
            platform: Platform::new(256),
            tau: 10.0,
        },
        tuples: 8,
        seed: 0xAB1A,
    };
    let (_, training) = generate_training_set(&config, &LublinModel::new(256));
    for (label, weighted) in [("weighted (paper)", true), ("unweighted", false)] {
        let fits = fit_all(
            &training,
            &EnumerateOptions {
                weighted,
                ..Default::default()
            },
        );
        let best = &fits[0];
        println!("{label}:");
        println!("  winner: {}", best.function.render_simplified());
        println!("  overall fitness (Eq. 5 MAE): {:.6e}", best.fitness);
        println!(
            "  MAE on biggest-quartile tasks: {:.6e}\n",
            big_task_mae(&training, &best.function)
        );
    }
    println!("reading: the weighted fit should track big tasks at least as well,");
    println!("which is what keeps them from blocking queues when the fit becomes a policy.");
}
