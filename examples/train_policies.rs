//! The paper's training workflow, end to end (artifact workflows 1 + 2).
//!
//! Generates `(S, Q)` tuples from the Lublin model, runs permutation trials
//! to build trial score distributions (printing one, as in Fig. 1), pools
//! the `score(r, n, s)` observations (the artifact's
//! `score-distribution.csv`), fits the 576-member function family with
//! weighted Levenberg–Marquardt, and prints the ranked winners in both the
//! artifact's verbose format and the paper's simplified Table 3 style.
//!
//! Run with:
//!   cargo run --release --example train_policies            # moderate scale
//!   DYNSCHED_TUPLES=32 DYNSCHED_TRIALS=32000 \
//!   cargo run --release --example train_policies            # closer to paper scale
//!
//! The paper itself used |S|=16, |Q|=32, 256k trials per tuple on a
//! 256-core platform, pooling tuples generated over days of compute.

use dynsched::cluster::{Platform, DEFAULT_TAU};
use dynsched::core::pipeline::{learn_policies, TrainingConfig};
use dynsched::core::trials::{trial_scores, TrialSpec};
use dynsched::core::tuples::{TaskTuple, TupleSpec};
use dynsched::mlreg::EnumerateOptions;
use dynsched::simkit::durable::write_atomic;
use dynsched::simkit::Rng;
use dynsched::workload::LublinModel;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let tuples = env_usize("DYNSCHED_TUPLES", 12);
    let trials = env_usize("DYNSCHED_TRIALS", 8_000);
    let seed = env_usize("DYNSCHED_SEED", 0x5C17) as u64;

    let platform = Platform::new(256);
    let model = LublinModel::new(256);
    let tuple_spec = TupleSpec::default(); // |S| = 16, |Q| = 32
    let trial_spec = TrialSpec {
        trials,
        platform,
        tau: DEFAULT_TAU,
    };

    // --- Fig. 1: one trial score distribution ---------------------------
    println!("== Trial score distribution (Fig. 1 analogue) ==");
    println!("one tuple (|S| = 16, |Q| = 32), {trials} trials, 256 cores");
    let mut rng = Rng::new(seed);
    let example_tuple = TaskTuple::generate(&tuple_spec, &model, &mut rng);
    let scores = trial_scores(&example_tuple, &trial_spec, &Rng::new(seed ^ 0xF16));
    println!(
        "task-id  runtime(s)  cores  submit(s)    score   (mean = {:.4})",
        1.0 / 32.0
    );
    for (k, (job, score)) in example_tuple.q_tasks.iter().zip(&scores.scores).enumerate() {
        println!(
            "{:>7}  {:>10.1}  {:>5}  {:>9.1}  {:.5} {}",
            k,
            job.runtime,
            job.cores,
            job.submit,
            score,
            if *score < 1.0 / 32.0 {
                "  <- favourable first choice"
            } else {
                ""
            }
        );
    }

    // --- Workflows 1+2: pooled distribution + regression ----------------
    println!("\n== Training: {tuples} tuples x {trials} trials ==");
    let config = TrainingConfig {
        tuple_spec,
        trial_spec,
        tuples,
        seed,
    };
    let t0 = std::time::Instant::now();
    let report = learn_policies(&config, &model, &EnumerateOptions::default(), 4);
    println!(
        "pooled {} observations in {:.1} s; fitted 576 candidate functions",
        report.training_set.len(),
        t0.elapsed().as_secs_f64()
    );

    // Artifact A.5.1-style sample of the pooled distribution.
    println!("\nscore-distribution.csv (first 5 lines):");
    for line in report.training_set.to_csv().lines().take(5) {
        println!("{line}");
    }

    // Artifact A.5.2-style enumeration output.
    println!("\n== Ranked nonlinear functions (best 8 of 576) ==");
    for fit in report.fits.iter().take(8) {
        println!("{},", fit.function.render_verbose());
        println!("    fitness={:.7}", fit.fitness);
    }

    println!("\n== Table 3 analogue (simplified form) ==");
    for (i, fit) in report.fits.iter().take(4).enumerate() {
        println!("G{}  {}", i + 1, fit.function.render_simplified());
    }

    // Coefficient diagnostics for the winners (identifiability + stderr).
    println!("\n== Selection diagnostics ==");
    print!(
        "{}",
        dynsched::mlreg::selection_report(&report.fits, &report.training_set, 4)
    );

    // Export the learned policies as a loadable policy file.
    let out_dir = std::path::Path::new("target/figures");
    std::fs::create_dir_all(out_dir).expect("create target/figures");
    let path = out_dir.join("learned_policies.txt");
    write_atomic(&path, dynsched::policies::save_learned(&report.policies))
        .expect("write policy file");
    println!(
        "\nlearned policies saved to {} (reload with dynsched::policies::load_policies)",
        path.display()
    );
    println!("\nPaper's Table 3 for reference:");
    println!("F1  log10(r)*n + 8.70e2*log10(s)");
    println!("F2  sqrt(r)*n + 2.56e4*log10(s)");
    println!("F3  r*n + 6.86e6*log10(s)");
    println!("F4  r*sqrt(n) + 5.30e5*log10(s)");
}
