//! Figure 2: normalized standard deviation of trial scores vs number of
//! trials (1k … 512k; the paper picks 256k where the value reaches 0.02).

use dynsched_bench::{banner, full_scale};
use dynsched_cluster::Platform;
use dynsched_core::convergence::{convergence_curve, paper_trial_counts};
use dynsched_core::trials::TrialSpec;
use dynsched_core::tuples::{TaskTuple, TupleSpec};
use dynsched_simkit::Rng;
use dynsched_workload::LublinModel;

fn main() {
    banner("Figure 2: score convergence vs trial count");
    let model = LublinModel::new(256);
    let tuple = TaskTuple::generate(&TupleSpec::default(), &model, &mut Rng::new(42));
    let (counts, reps) = if full_scale() {
        (paper_trial_counts(), 10)
    } else {
        (vec![1_000, 2_000, 4_000, 8_000, 16_000], 5)
    };
    let base = TrialSpec {
        trials: 0,
        platform: Platform::new(256),
        tau: 10.0,
    };
    let curve = convergence_curve(&tuple, &counts, reps, &base, &Rng::new(43));
    println!(
        "{:>10} {:>12} {:>16}",
        "trials", "score std", "normalized std"
    );
    for p in &curve {
        println!(
            "{:>10} {:>12.6} {:>16.4}",
            p.trials, p.score_std, p.normalized_std
        );
    }
    println!("\npaper: normalized std ≈ 0.02 at 256k trials; the curve should fall");
    println!("roughly as 1/sqrt(trials) (each doubling divides it by ~1.41).");
}
