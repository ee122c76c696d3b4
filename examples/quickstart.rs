//! Five-minute tour of the dynsched API.
//!
//! 1. Generate a workload with the Lublin–Feitelson model.
//! 2. Schedule it under a classical policy and under the paper's learned
//!    policy F1, and compare average bounded slowdowns.
//! 3. Run a miniature version of the paper's training pipeline and print
//!    the best learned function.
//!
//! Run with: `cargo run --release --example quickstart`

use dynsched::cluster::{Platform, DEFAULT_TAU};
use dynsched::core::pipeline::{learn_policies, TrainingConfig};
use dynsched::core::trials::TrialSpec;
use dynsched::core::tuples::TupleSpec;
use dynsched::mlreg::EnumerateOptions;
use dynsched::policies::{Fcfs, LearnedPolicy, Policy, Spt};
use dynsched::scheduler::{simulate, QueueDiscipline, SchedulerConfig};
use dynsched::simkit::Rng;
use dynsched::workload::LublinModel;

fn main() {
    // --- 1. A bursty workload on a 256-core cluster --------------------
    let mut rng = Rng::new(2017);
    let model = LublinModel::new(256).calibrated_to_load(0.9, &mut rng);
    let trace = model.generate_jobs(600, &mut rng);
    let summary = trace.summary(256).expect("non-empty trace");
    println!(
        "Workload: {} jobs over {:.1} days, offered load {:.2}",
        summary.jobs,
        summary.span_seconds / 86_400.0,
        summary.offered_load
    );

    // --- 2. Schedule under FCFS, SPT and the paper's F1 ----------------
    let config = SchedulerConfig::actual_runtimes(Platform::new(256));
    let policies: Vec<Box<dyn Policy>> =
        vec![Box::new(Fcfs), Box::new(Spt), Box::new(LearnedPolicy::f1())];
    println!("\nAverage bounded slowdown (tau = {DEFAULT_TAU} s):");
    for policy in &policies {
        let result = simulate(&trace, &QueueDiscipline::Policy(policy.as_ref()), &config);
        println!(
            "  {:>4}: AVEbsld = {:>10.2}   (utilization {:.2}, makespan {:.1} h)",
            policy.name(),
            result.avg_bounded_slowdown(DEFAULT_TAU).unwrap(),
            result.utilization,
            result.makespan / 3_600.0,
        );
    }

    // --- 3. A miniature training run ------------------------------------
    // (The paper uses |S|=16, |Q|=32, 256k trials, many tuples; this is a
    // 30-second toy version — see examples/train_policies.rs for scale.)
    println!("\nTraining a policy from scratch (miniature pipeline)...");
    let config = TrainingConfig {
        tuple_spec: TupleSpec {
            s_size: 8,
            q_size: 16,
            max_start_offset: 100_000.0,
        },
        trial_spec: TrialSpec {
            trials: 2_000,
            platform: Platform::new(256),
            tau: DEFAULT_TAU,
        },
        tuples: 6,
        seed: 42,
    };
    let report = learn_policies(
        &config,
        &LublinModel::new(256),
        &EnumerateOptions::default(),
        4,
    );
    println!(
        "Pooled {} observations from {} tuples.",
        report.training_set.len(),
        report.tuples.len()
    );
    println!("Best fitted functions (Table-3 style):");
    for fit in report.fits.iter().take(4) {
        println!(
            "  {}   fitness = {:.3e}",
            fit.function.render_simplified(),
            fit.fitness
        );
    }
    println!("\nDone. Next steps: examples/train_policies.rs, `dynsched table4 --quick`.");
}
