//! The fault machinery's standing budget: what revocable capacity costs a
//! run that never loses a core.
//!
//! The fault branches are monomorphized away when off
//! (`Engine::drive::<false>`), so a zero-fault run through
//! [`SimWorkspace::run`] and a run through [`SimWorkspace::run_faulty`]
//! with an *empty* schedule must cost the same. This bench times both on
//! the trial-style workload (Lublin sequences under the paper's policy
//! shapes) and **asserts the ratio ≤ 1.05**. That the two produce the same
//! bits, and that a biting schedule matches the faulty oracle, is the
//! `fault_bit_identity` suite's job, not this file's.

use dynsched_bench::{banner, full_scale};
use dynsched_cluster::{AvailabilitySchedule, Platform};
use dynsched_policies::{Fcfs, LearnedPolicy, Policy, Spt};
use dynsched_scheduler::{QueueDiscipline, SchedulerConfig, SimWorkspace};
use dynsched_simkit::Rng;
use dynsched_workload::{LublinModel, Trace};
use std::hint::black_box;
use std::time::Instant;

const CORES: u32 = 64;
/// The idle fault machinery may cost the fault-free hot path this much.
const BUDGET: f64 = 1.05;

fn main() {
    banner("Idle fault machinery vs the zero-fault engine");
    let jobs_per_trace = if full_scale() { 2_000 } else { 400 };
    let mut rng = Rng::new(0xFA_17_B3);
    let model = LublinModel::new(CORES);
    let traces: Vec<Trace> = (0..4)
        .map(|_| model.generate_jobs(jobs_per_trace, &mut rng))
        .collect();
    let policies: [&dyn Policy; 3] = [&Fcfs, &Spt, &LearnedPolicy::f1()];
    let configs = [
        SchedulerConfig::actual_runtimes(Platform::new(CORES)),
        SchedulerConfig::estimates_with_backfilling(Platform::new(CORES)),
    ];
    let empty = AvailabilitySchedule::empty();

    // One pass is every (trace, policy, config) cell once, through either
    // entry point; returns its wall time.
    let mut ws = SimWorkspace::new();
    let mut pass = |schedule: Option<&AvailabilitySchedule>| {
        let t0 = Instant::now();
        for trace in &traces {
            for policy in policies {
                let discipline = QueueDiscipline::Policy(policy);
                for config in &configs {
                    match schedule {
                        None => ws.run(trace, &discipline, config),
                        Some(s) => ws.run_faulty(trace, &discipline, config, s).unwrap(),
                    }
                    black_box(ws.makespan());
                }
            }
        }
        t0.elapsed().as_secs_f64()
    };

    // Best of alternating passes: the minimum is the least
    // noise-contaminated estimate on a shared machine, and alternating
    // keeps a drift in the host's speed from landing on one side. A
    // reduced-scale pass is ~2 ms, so 500 pairs span ~2 s: long enough
    // for both minima to settle within a percent or two of each other
    // (at 9 pairs the ratio read anywhere from 0.95x to 1.13x).
    let (mut plain, mut idle) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..500 {
        plain = plain.min(pass(None));
        idle = idle.min(pass(Some(&empty)));
    }
    let overhead = idle / plain;
    println!("zero-fault:     {plain:.4} s/pass");
    println!("empty schedule: {idle:.4} s/pass  [{overhead:.3}x vs zero-fault]");
    assert!(
        overhead <= BUDGET,
        "no-fault overhead of the fault machinery is {overhead:.3}x (budget: {BUDGET}x)"
    );
}
