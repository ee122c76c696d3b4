//! Load sweep: median AVEbsld vs offered load for the paper's line-up.
//!
//! The paper evaluates at one operating point; this bench traces the whole
//! curve on the *same* jobs (inter-arrival rescaling), showing where the
//! learned policies' advantage emerges and that every policy converges to
//! AVEbsld ≈ 1 as contention vanishes — the crossover structure an
//! operator would use to decide whether deploying a learned policy is
//! worth it.

use dynsched_bench::sweep::sweep_table;
use dynsched_bench::{banner, full_scale};
use dynsched_cluster::Platform;
use dynsched_core::sweep::sweep_load;
use dynsched_policies::paper_lineup;
use dynsched_scheduler::SchedulerConfig;
use dynsched_simkit::Rng;
use dynsched_workload::{LublinModel, Trace};

fn sequences(count: usize, jobs: usize) -> Vec<Trace> {
    let mut model = LublinModel::new(256);
    model.daily_cycle = false; // pure contention effects, no burst artefacts
    let mut rng = Rng::new(0x10AD);
    (0..count)
        .map(|_| model.generate_jobs(jobs, &mut rng))
        .collect()
}

fn main() {
    banner("Load sweep: median AVEbsld vs offered load (256 cores, actual runtimes)");
    let (count, jobs) = if full_scale() { (10, 2_000) } else { (4, 500) };
    let seqs = sequences(count, jobs);
    let targets = [0.05, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2];
    let points = sweep_load(
        "lublin-256",
        &seqs,
        SchedulerConfig::actual_runtimes(Platform::new(256)),
        &paper_lineup(),
        &targets,
    );
    print!("{}", sweep_table(&points));
    println!("\nreading: at low load the policies bunch together; as the machine");
    println!("saturates FCFS diverges by orders of magnitude while F1/F2 stay flat.");
    println!("F3/F4 (whose size term dominates) degrade at extreme load — wide-short");
    println!("jobs starve under strict r*n ordering, the same outliers the paper's");
    println!("Fig. 7 shows — so the learned policies cost little at low load and");
    println!("dominate exactly where contention hurts.");
}
