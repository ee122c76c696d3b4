//! Per-platform custom policy training (the paper's §5 future-work
//! direction, implemented).
//!
//! Trains a policy from windows of one platform's *own* trace (here the
//! SDSC Blue stand-in), then compares it on held-out windows against the
//! paper's general F1/F2 and the ad-hoc baselines, including a SLURM-style
//! multifactor policy — the thing a platform maintainer would otherwise
//! hand-tune.
//!
//! Run with: `cargo run --release --example custom_platform_policy`

use dynsched::cluster::Platform;
use dynsched::core::custom::learn_custom_policies;
use dynsched::core::pipeline::TrainingConfig;
use dynsched::core::report::artifact_report;
use dynsched::core::trials::TrialSpec;
use dynsched::core::tuples::TupleSpec;
use dynsched::core::{run_experiment, Experiment};
use dynsched::mlreg::{fit_stats, EnumerateOptions};
use dynsched::policies::{Fcfs, LearnedPolicy, MultiFactor, Policy, Spt, Unicef, Wfp3};
use dynsched::scheduler::SchedulerConfig;
use dynsched::workload::{extract_sequences, ArchivePlatform, SequenceSpec};

fn main() {
    let platform = ArchivePlatform::SDSC_BLUE;
    println!(
        "Training a custom policy for {} ({} cores, target util {:.0}%).\n",
        platform.name, platform.cpus, platform.utilization_pct
    );

    // --- Split the platform's trace: first half trains, second evaluates.
    let full = platform.synthesize(40.0, 0xCC5);
    let mid = full.span() / 2.0;
    let train_trace = full.window(0.0, mid);
    let eval_trace = full.window(mid, f64::INFINITY).rebased(0.0);
    println!(
        "trace: {} jobs; training on the first {} / evaluating on the last {}.",
        full.len(),
        train_trace.len(),
        eval_trace.len()
    );

    // --- Train from the platform's own windows --------------------------
    let config = TrainingConfig {
        tuple_spec: TupleSpec {
            s_size: 16,
            q_size: 32,
            max_start_offset: 0.0,
        },
        trial_spec: TrialSpec {
            trials: 4_000,
            platform: Platform::new(platform.cpus),
            tau: 10.0,
        },
        tuples: 12,
        seed: 0xCAFE,
    };
    let t0 = std::time::Instant::now();
    let report = learn_custom_policies(&train_trace, &config, &EnumerateOptions::default(), 2);
    println!(
        "learned from {} observations in {:.1} s; best fits:",
        report.training_set.len(),
        t0.elapsed().as_secs_f64()
    );
    for fit in report.fits.iter().take(3) {
        let stats = fit_stats(&fit.function, &report.training_set);
        println!(
            "  {}   (MAE {:.2e}, R^2 {:.3})",
            fit.function.render_simplified(),
            stats.mae,
            stats.r_squared
        );
    }

    // --- Evaluate on held-out windows ------------------------------------
    let spec = SequenceSpec {
        count: 5,
        days: 3.0,
        min_jobs: 10,
    };
    let sequences = extract_sequences(&eval_trace, &spec).expect("held-out windows");
    let mut lineup: Vec<Box<dyn Policy>> = vec![
        Box::new(Fcfs),
        Box::new(Wfp3),
        Box::new(Unicef),
        Box::new(Spt),
        Box::new(MultiFactor::default().for_platform(platform.cpus)),
        Box::new(LearnedPolicy::f2()),
        Box::new(LearnedPolicy::f1()),
    ];
    for p in report.policies {
        lineup.push(Box::new(p));
    }
    let experiment = Experiment::new(
        format!("{} held-out windows, actual runtimes", platform.name),
        sequences,
        SchedulerConfig::actual_runtimes(Platform::new(platform.cpus)),
    );
    let result = run_experiment(&experiment, &lineup);
    print!("\n{}", artifact_report(&result));
    println!(
        "\nreading: the custom G-policies should be competitive with (often better\n\
         than) the general F1/F2 on their own platform — the paper's conjecture —\n\
         and all learned policies should beat the hand-tuned multifactor baseline."
    );
}
