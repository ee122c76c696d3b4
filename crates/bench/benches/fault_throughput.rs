//! Fault-machinery throughput: what revocable capacity costs.
//!
//! Two questions, answered on the trial-style workload (Lublin sequences
//! under the paper's policy shapes):
//!
//! 1. **No-fault overhead.** The fault branches are monomorphized away
//!    when off (`run_with::<false, …>`), so a zero-fault run through
//!    [`SimWorkspace::run`] and a run through
//!    [`SimWorkspace::run_faulty`] with an *empty* schedule must cost the
//!    same. The bench measures both and **asserts the ratio ≤ 1.05** —
//!    the robustness PR's standing budget for the fault machinery on the
//!    fault-free hot path.
//! 2. **Faulty throughput.** Simulations/second with a schedule that
//!    actually preempts, plus the resilience counters, so regressions in
//!    the kill-and-requeue path show up in CI. Results are cross-checked
//!    bit-identical against `scheduler::reference`'s faulty oracle before
//!    anything is timed.
//!
//! Numbers land in `BENCH_fault_throughput.json` at the repo root,
//! committed and uploaded alongside the other five throughput files.

use criterion::Criterion;
use dynsched_bench::{banner, criterion, full_scale};
use dynsched_cluster::{AvailabilitySchedule, FaultProfile, Platform};
use dynsched_policies::{Fcfs, LearnedPolicy, Policy, Spt};
use dynsched_scheduler::reference::simulate_reference_faulty;
use dynsched_scheduler::{simulate, QueueDiscipline, SchedulerConfig, SimWorkspace};
use dynsched_simkit::Rng;
use dynsched_workload::{LublinModel, Trace};
use std::hint::black_box;

const CORES: u32 = 64;

fn traces() -> Vec<Trace> {
    let jobs_per_trace = if full_scale() { 2_000 } else { 400 };
    let mut rng = Rng::new(0xFA_17_B3);
    let model = LublinModel::new(CORES);
    (0..4)
        .map(|_| model.generate_jobs(jobs_per_trace, &mut rng))
        .collect()
}

fn lineup() -> Vec<Box<dyn Policy>> {
    vec![Box::new(Fcfs), Box::new(Spt), Box::new(LearnedPolicy::f1())]
}

fn configs() -> Vec<SchedulerConfig> {
    vec![
        SchedulerConfig::actual_runtimes(Platform::new(CORES)),
        SchedulerConfig::estimates_with_backfilling(Platform::new(CORES)),
    ]
}

/// A per-trace schedule that actually bites: MTBF a fraction of the trace
/// span, quarter-machine failures, the default retry cap.
fn biting_schedules(traces: &[Trace]) -> Vec<AvailabilitySchedule> {
    traces
        .iter()
        .enumerate()
        .map(|(s, trace)| {
            let span = trace.end_time().unwrap_or(0.0).max(1.0);
            FaultProfile::failures(span / 12.0, span / 60.0, CORES / 4, 0xFA_17).expand(
                CORES,
                span * 2.0,
                s as u64,
            )
        })
        .collect()
}

struct Timed {
    seconds: f64,
}

/// Best-of-`reps` wall time (the minimum is the least noise-contaminated
/// estimate on a shared machine).
fn best_of(reps: usize, mut f: impl FnMut()) -> Timed {
    let mut seconds = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        f();
        seconds = seconds.min(t0.elapsed().as_secs_f64());
    }
    Timed { seconds }
}

fn regenerate() {
    banner("Fault-machinery throughput: revocable capacity vs the zero-fault engine");
    let traces = traces();
    let policies = lineup();
    let configs = configs();
    let empty = AvailabilitySchedule::empty();
    let schedules = biting_schedules(&traces);
    let reps = 5;
    let sims_per_pass = traces.len() * policies.len() * configs.len();

    // Correctness before speed: empty schedules are bit-identical to the
    // zero-fault engine, faulty runs to the reference oracle.
    let mut preemptions = 0u64;
    let mut abandonments = 0u64;
    for (s, trace) in traces.iter().enumerate() {
        for policy in &policies {
            let discipline = QueueDiscipline::Policy(policy.as_ref());
            for config in &configs {
                let plain = simulate(trace, &discipline, config);
                let mut fresh = SimWorkspace::new();
                fresh
                    .run_faulty(trace, &discipline, config, &empty)
                    .unwrap();
                let idle = fresh.result();
                assert_eq!(
                    plain, idle,
                    "empty schedule diverged from the zero-fault engine"
                );
                let mut fresh = SimWorkspace::new();
                fresh
                    .run_faulty(trace, &discipline, config, &schedules[s])
                    .unwrap();
                let faulty = fresh.result();
                assert_eq!(
                    faulty,
                    simulate_reference_faulty(trace, &discipline, config, &schedules[s]),
                    "faulty engine diverged from the reference oracle"
                );
                preemptions += faulty.preempted_jobs;
                abandonments += faulty.abandoned.len() as u64;
            }
        }
    }
    assert!(
        preemptions > 0,
        "the biting schedules never preempted anything"
    );
    println!(
        "workload: {} sims/pass ({} traces x {} policies x {} configs); \
         biting schedules cause {preemptions} preemptions, {abandonments} abandonments",
        sims_per_pass,
        traces.len(),
        policies.len(),
        configs.len()
    );

    let mut ws = SimWorkspace::new();
    let pass_plain = |ws: &mut SimWorkspace| {
        for trace in &traces {
            for policy in &policies {
                let discipline = QueueDiscipline::Policy(policy.as_ref());
                for config in &configs {
                    ws.run(trace, &discipline, config);
                    black_box(ws.makespan());
                }
            }
        }
    };
    let pass_empty = |ws: &mut SimWorkspace| {
        for trace in &traces {
            for policy in &policies {
                let discipline = QueueDiscipline::Policy(policy.as_ref());
                for config in &configs {
                    ws.run_faulty(trace, &discipline, config, &empty).unwrap();
                    black_box(ws.makespan());
                }
            }
        }
    };
    let pass_faulty = |ws: &mut SimWorkspace| {
        for (s, trace) in traces.iter().enumerate() {
            for policy in &policies {
                let discipline = QueueDiscipline::Policy(policy.as_ref());
                for config in &configs {
                    ws.run_faulty(trace, &discipline, config, &schedules[s])
                        .unwrap();
                    black_box(ws.preempted_jobs());
                }
            }
        }
    };

    let plain = best_of(reps, || pass_plain(&mut ws));
    let empty_faulty = best_of(reps, || pass_empty(&mut ws));
    let faulty = best_of(reps, || pass_faulty(&mut ws));

    let overhead = empty_faulty.seconds / plain.seconds;
    println!(
        "zero-fault:      {:.4} s/pass  ({:.0} sims/s)",
        plain.seconds,
        sims_per_pass as f64 / plain.seconds
    );
    println!(
        "empty schedule:  {:.4} s/pass  ({:.0} sims/s)  [{overhead:.3}x vs zero-fault]",
        empty_faulty.seconds,
        sims_per_pass as f64 / empty_faulty.seconds
    );
    println!(
        "biting schedule: {:.4} s/pass  ({:.0} sims/s)",
        faulty.seconds,
        sims_per_pass as f64 / faulty.seconds
    );
    assert!(
        overhead <= 1.05,
        "no-fault overhead of the fault machinery is {overhead:.3}x (budget: 1.05x)"
    );

    let json = format!(
        "{{\n  \
           \"bench\": \"fault_throughput\",\n  \
           \"scale\": \"{}\",\n  \
           {}\n  \
           \"workload\": {{ \"traces\": {}, \"policies\": {}, \"configs\": {}, \"sims_per_pass\": {} }},\n  \
           \"faults\": {{ \"preemptions\": {preemptions}, \"abandonments\": {abandonments} }},\n  \
           \"zero_fault\": {{ \"seconds_per_pass\": {:.4}, \"sims_per_second\": {:.1} }},\n  \
           \"empty_schedule\": {{ \"seconds_per_pass\": {:.4}, \"sims_per_second\": {:.1}, \"overhead_vs_zero_fault\": {:.4}, \"budget\": 1.05 }},\n  \
           \"biting_schedule\": {{ \"seconds_per_pass\": {:.4}, \"sims_per_second\": {:.1} }}\n}}\n",
        if full_scale() { "paper" } else { "reduced" },
        dynsched_bench::host_json(),
        traces.len(),
        policies.len(),
        configs.len(),
        sims_per_pass,
        plain.seconds,
        sims_per_pass as f64 / plain.seconds,
        empty_faulty.seconds,
        sims_per_pass as f64 / empty_faulty.seconds,
        overhead,
        faulty.seconds,
        sims_per_pass as f64 / faulty.seconds,
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_fault_throughput.json"
    );
    match dynsched_simkit::durable::write_atomic(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn bench(c: &mut Criterion) {
    let mut rng = Rng::new(0xFA_17_C7);
    let trace = LublinModel::new(CORES).generate_jobs(400, &mut rng);
    let config = SchedulerConfig::estimates_with_backfilling(Platform::new(CORES));
    let empty = AvailabilitySchedule::empty();
    let span = trace.end_time().unwrap_or(0.0).max(1.0);
    let biting = FaultProfile::failures(span / 12.0, span / 60.0, CORES / 4, 0xFA_17).expand(
        CORES,
        span * 2.0,
        0,
    );
    let mut ws = SimWorkspace::new();
    c.bench_function("fault/zero_fault_run", |b| {
        b.iter(|| {
            ws.run(&trace, &QueueDiscipline::Policy(&Fcfs), &config);
            black_box(ws.makespan())
        })
    });
    c.bench_function("fault/empty_schedule_run", |b| {
        b.iter(|| {
            ws.run_faulty(&trace, &QueueDiscipline::Policy(&Fcfs), &config, &empty)
                .unwrap();
            black_box(ws.makespan())
        })
    });
    c.bench_function("fault/biting_schedule_run", |b| {
        b.iter(|| {
            ws.run_faulty(&trace, &QueueDiscipline::Policy(&Fcfs), &config, &biting)
                .unwrap();
            black_box(ws.preempted_jobs())
        })
    });
}

fn main() {
    regenerate();
    let mut c = criterion();
    bench(&mut c);
    c.final_summary();
}
