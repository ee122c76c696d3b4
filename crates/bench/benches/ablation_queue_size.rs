//! Ablation: probe-set size |Q| in the training scheme.
//!
//! The paper fixes |Q| = 32. This bench trains with |Q| ∈ {8, 16, 32, 64}
//! (trial count held constant) and reports how the winning function's
//! shape and fitness move — checking that the learned structure (size term
//! + large log10(s) term) is robust to the tuple geometry.

use dynsched_bench::{banner, full_scale};
use dynsched_cluster::Platform;
use dynsched_core::pipeline::{generate_training_set, TrainingConfig};
use dynsched_core::trials::TrialSpec;
use dynsched_core::tuples::TupleSpec;
use dynsched_mlreg::{fit_all, EnumerateOptions};
use dynsched_workload::LublinModel;

fn main() {
    banner("Ablation: probe-set size |Q|");
    let trials = if full_scale() { 65_536 } else { 4_096 };
    let model = LublinModel::new(256);
    println!("{:>4} {:>8} {:>14}  winner", "|Q|", "obs", "fitness");
    for q in [8usize, 16, 32, 64] {
        let config = TrainingConfig {
            tuple_spec: TupleSpec {
                s_size: 16,
                q_size: q,
                max_start_offset: 172_800.0,
            },
            trial_spec: TrialSpec {
                trials,
                platform: Platform::new(256),
                tau: 10.0,
            },
            tuples: 8,
            seed: 0xAB51,
        };
        let (_, training) = generate_training_set(&config, &model);
        let fits = fit_all(&training, &EnumerateOptions::default());
        println!(
            "{:>4} {:>8} {:>14.6e}  {}",
            q,
            training.len(),
            fits[0].fitness,
            fits[0].function.render_simplified()
        );
    }
    println!("\nreading: fitness is not comparable across |Q| (scores scale as 1/|Q|),");
    println!("but the winning shape should stay in the size-term + c*log10(s) family.");
}
