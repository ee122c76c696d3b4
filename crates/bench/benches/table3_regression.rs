//! Table 3: the four best nonlinear functions obtained by weighted
//! nonlinear regression over the enumerated family.
//!
//! Regenerates the training set, fits all 576 candidates, and prints the
//! ranked winners in the artifact's verbose format and the paper's
//! simplified form, next to the published F1–F4.

use dynsched_bench::{banner, full_scale, trial_count};
use dynsched_cluster::Platform;
use dynsched_core::pipeline::{generate_training_set, TrainingConfig};
use dynsched_core::trials::TrialSpec;
use dynsched_core::tuples::TupleSpec;
use dynsched_mlreg::{fit_all, EnumerateOptions};
use dynsched_workload::LublinModel;

fn main() {
    banner("Table 3: best nonlinear functions from regression");
    let config = TrainingConfig {
        tuple_spec: TupleSpec::default(),
        trial_spec: TrialSpec {
            trials: trial_count(),
            platform: Platform::new(256),
            tau: 10.0,
        },
        tuples: if full_scale() { 32 } else { 10 },
        seed: 0x7AB1E3,
    };
    let model = LublinModel::new(256);
    let t0 = std::time::Instant::now();
    let (_, training) = generate_training_set(&config, &model);
    println!(
        "training set: {} observations from {} tuples x {} trials ({:.1} s)",
        training.len(),
        config.tuples,
        config.trial_spec.trials,
        t0.elapsed().as_secs_f64()
    );
    let t0 = std::time::Instant::now();
    let fits = fit_all(&training, &EnumerateOptions::default());
    println!(
        "fitted 576 functions in {:.1} s\n",
        t0.elapsed().as_secs_f64()
    );
    println!("rank  fitness      function (simplified)");
    for (i, fit) in fits.iter().take(6).enumerate() {
        println!(
            "{:>4}  {:.6e}  {}",
            i + 1,
            fit.fitness,
            fit.function.render_simplified()
        );
    }
    println!("\npaper's Table 3:");
    println!("  F1: log10(r)*n + 8.70e2*log10(s)");
    println!("  F2: sqrt(r)*n  + 2.56e4*log10(s)");
    println!("  F3: r*n        + 6.86e6*log10(s)");
    println!("  F4: r*sqrt(n)  + 5.30e5*log10(s)");
    println!("\nexpected agreement: the top functions combine a task-size term");
    println!("(a product of increasing functions of r and n) with a large");
    println!("positive coefficient on log10(s) — algebraic equivalents tie.");
}
