//! Cross-model generalization: policies trained on the Lublin model,
//! evaluated on a structurally different workload generator.
//!
//! The paper's central claim is that simulation-trained policies
//! *generalize* — it shows this across platforms; this bench extends the
//! probe across workload *models*: the F-policies (and the baselines) are
//! evaluated on a Feitelson'96-style workload (harmonic sizes, repeated
//! jobs, hyper-exponential runtimes, Poisson sessions) that shares nothing
//! with the Lublin generator except "rigid jobs on a cluster".

use dynsched_bench::{banner, full_scale};
use dynsched_cluster::Platform;
use dynsched_core::report::artifact_report;
use dynsched_core::{learned_beat_adhoc, run_experiment, Experiment};
use dynsched_policies::paper_lineup;
use dynsched_scheduler::SchedulerConfig;
use dynsched_simkit::Rng;
use dynsched_workload::{FeitelsonModel, Trace, TsafrirEstimates};

fn sequences(seed: u64) -> Vec<Trace> {
    let (count, jobs_per_seq) = if full_scale() { (10, 3_000) } else { (4, 600) };
    let mut model = FeitelsonModel::new(256);
    // Saturate enough for queueing pressure.
    model.mean_interarrival = 220.0;
    let mut rng = Rng::new(seed);
    let estimates = TsafrirEstimates::with_max_estimate(FeitelsonModel::MAX_RUNTIME);
    (0..count)
        .map(|_| {
            let t = model.generate_jobs(jobs_per_seq, &mut rng);
            estimates.apply(&t, &mut rng)
        })
        .collect()
}

fn main() {
    banner("Generalization: Lublin-trained policies on a Feitelson'96-style workload");
    let lineup = paper_lineup();
    for (label, scheduler) in [
        (
            "actual runtimes",
            SchedulerConfig::actual_runtimes(Platform::new(256)),
        ),
        (
            "estimates + EASY",
            SchedulerConfig::estimates_with_backfilling(Platform::new(256)),
        ),
    ] {
        let experiment = Experiment::new(
            format!("Feitelson'96-style workload, 256 cores, {label}"),
            sequences(0xFE17),
            scheduler,
        );
        let result = run_experiment(&experiment, &lineup);
        print!("{}", artifact_report(&result));
        println!(
            "learned beats ad-hoc: {}\n",
            if learned_beat_adhoc(&result) {
                "yes"
            } else {
                "NO"
            }
        );
    }
    println!("reading: the F-policies were never trained on this generator; if they");
    println!("still lead, the paper's generalization claim extends across models too.");
}
