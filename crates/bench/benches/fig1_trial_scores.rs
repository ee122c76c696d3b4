//! Figure 1: trial score distributions for two `(S, Q)` tuples
//! (|S| = 16, |Q| = 32, 256-core cluster).
//!
//! Regenerates the two panels (per-task scores around the 1/32 mean).

use dynsched_bench::{banner, trial_count};
use dynsched_cluster::Platform;
use dynsched_core::trials::{trial_scores, TrialSpec};
use dynsched_core::tuples::{TaskTuple, TupleSpec};
use dynsched_simkit::Rng;
use dynsched_workload::LublinModel;

fn main() {
    banner("Figure 1: trial score distributions (mean = 1/32 = 0.03125)");
    let model = LublinModel::new(256);
    let spec = TupleSpec::default();
    let trial_spec = TrialSpec {
        trials: trial_count(),
        platform: Platform::new(256),
        tau: 10.0,
    };
    for (panel, seed) in [("(a)", 101u64), ("(b)", 202u64)] {
        let tuple = TaskTuple::generate(&spec, &model, &mut Rng::new(seed));
        let scores = trial_scores(&tuple, &trial_spec, &Rng::new(seed ^ 0xF1));
        println!("panel {panel}: {} trials", scores.trials);
        println!("task-id  score     bar (each # = 0.002)");
        for (k, &s) in scores.scores.iter().enumerate() {
            let bar = "#".repeat((s / 0.002).round() as usize);
            println!("{k:>7}  {s:.5}  {bar}");
        }
        let below = scores.scores.iter().filter(|&&s| s < 1.0 / 32.0).count();
        println!("tasks below the mean (favourable to run first): {below}/32\n");
    }
}
