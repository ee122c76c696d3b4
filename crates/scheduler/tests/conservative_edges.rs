//! Conservative backfilling on the inputs the hand-written suites stay
//! away from: the engine must equal [`simulate_reference`] (and the faulty
//! engine [`simulate_reference_faulty`]) bit for bit on traces built from
//! tied submits and tied expected ends, zero-runtime jobs, jobs as wide as
//! the platform, a machine pinned exactly full, and clocks that start at
//! `2e8` s — where the `1e-9` floor of a zero decision time is absorbed
//! (`now + 1e-9 == now`) and a reservation takes nothing from the profile.

use dynsched_cluster::{AvailabilitySchedule, CapacityStep, FaultProfile, Job, Platform};
use dynsched_policies::{by_name, Policy};
use dynsched_scheduler::reference::{simulate_reference, simulate_reference_faulty};
use dynsched_scheduler::{BackfillMode, QueueDiscipline, SchedulerConfig, SimWorkspace};
use dynsched_simkit::Rng;
use dynsched_workload::Trace;

const CORES: u32 = 8;

/// Up to 40 jobs on a ten-second grid from `t0`: every submit, runtime and
/// estimate is shared by several jobs, a fifth of the runtimes are zero,
/// estimates under- and over-shoot, and the widths are the ones that fill
/// the machine exactly (8, 4 + 4, 4 + 2 + 2, …).
fn hostile_trace(rng: &mut Rng, t0: f64) -> Trace {
    let n = rng.range_u64(2, 40) as u32;
    let jobs = (0..n)
        .map(|id| {
            let submit = t0 + 10.0 * rng.range_u64(0, 12) as f64;
            let runtime = *rng.choose(&[0.0, 10.0, 20.0, 20.0, 50.0]);
            let estimate = runtime * *rng.choose(&[0.5, 1.0, 1.0, 2.0]);
            let cores = *rng.choose(&[1, 2, 2, 4, 4, CORES]);
            Job::new(id, submit, runtime, estimate, cores)
        })
        .collect();
    Trace::from_jobs(jobs)
}

/// Conservative backfilling deciding on actual runtimes, then on estimates.
fn configs() -> [SchedulerConfig; 2] {
    let platform = Platform::new(CORES);
    let mut configs = [
        SchedulerConfig::actual_runtimes(platform),
        SchedulerConfig::user_estimates(platform),
    ];
    for config in &mut configs {
        config.backfill = BackfillMode::Conservative;
    }
    configs
}

/// A static order, a static learned score and a time-dependent one.
fn policies() -> Vec<Box<dyn Policy>> {
    ["FCFS", "F1", "WFP"]
        .map(|name| by_name(name).expect("a built-in"))
        .into()
}

#[test]
fn engine_equals_reference_on_hostile_traces() {
    let mut rng = Rng::new(0xC015_E7ED);
    let policies = policies();
    let mut ws = SimWorkspace::new();
    let mut waiters_skipped = 0u64;
    for case in 0..60u32 {
        let t0 = if case % 2 == 0 { 0.0 } else { 2e8 };
        let trace = hostile_trace(&mut rng, t0);
        for config in configs() {
            for policy in &policies {
                let compiled = policy.compile();
                for discipline in [
                    QueueDiscipline::of(policy.as_ref(), compiled.as_ref()),
                    QueueDiscipline::Policy(policy.as_ref()),
                ] {
                    let what = format!("case {case} from t = {t0}, {}", policy.name());
                    ws.try_run(&trace, &discipline, &config)
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    let oracle = simulate_reference(&trace, &discipline, &config);
                    assert_eq!(ws.result(), oracle, "{what}");
                    assert_eq!(oracle.completed.len(), trace.len(), "{what}");
                    let stats = ws.conservative_stats();
                    assert!(stats.passes_started <= stats.passes, "{what}");
                    assert!(stats.reserved <= stats.queued, "{what}");
                    waiters_skipped += stats.queued - stats.reserved;
                }
            }
        }
    }
    // The generator must leave the early stop something to cut.
    assert!(
        waiters_skipped > 1_000,
        "only {waiters_skipped} waiters skipped"
    );
}

/// `profile`'s failures over the trace's span, moved onto the trace's clock
/// and onto whole seconds — so that steps tie with arrivals and completions.
fn schedule_from(t0: f64, profile: &FaultProfile, stream: u64) -> AvailabilitySchedule {
    let mut steps: Vec<CapacityStep> = Vec::new();
    for step in profile.expand(CORES, 400.0, stream).steps() {
        let time = t0 + step.time.round();
        match steps.last_mut() {
            Some(last) if last.time == time => last.capacity = step.capacity,
            _ => steps.push(CapacityStep { time, ..*step }),
        }
    }
    AvailabilitySchedule::from_steps(steps, profile.max_retries)
}

#[test]
fn faulty_engine_equals_faulty_reference_on_hostile_traces() {
    let mut rng = Rng::new(0xFA17_ED6E);
    let policies = policies();
    let mut ws = SimWorkspace::new();
    let mut preempted = 0u64;
    for case in 0..40u64 {
        let t0 = if case % 2 == 0 { 0.0 } else { 2e8 };
        let trace = hostile_trace(&mut rng, t0);
        let profile = FaultProfile::failures(60.0, 25.0, CORES / 2, 0x5EED).with_max_retries(2);
        let schedule = schedule_from(t0, &profile, case);
        for config in configs() {
            for policy in &policies {
                let compiled = policy.compile();
                let discipline = QueueDiscipline::of(policy.as_ref(), compiled.as_ref());
                let what = format!("case {case} from t = {t0}, {}", policy.name());
                ws.run_faulty(&trace, &discipline, &config, &schedule)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let oracle = simulate_reference_faulty(&trace, &discipline, &config, &schedule);
                assert_eq!(ws.result(), oracle, "{what}");
                assert_eq!(
                    oracle.completed.len() + oracle.abandoned.len(),
                    trace.len(),
                    "{what}"
                );
                preempted += oracle.preempted_jobs;
            }
        }
    }
    assert!(
        preempted > 100,
        "the schedules must bite: {preempted} preemptions"
    );
}

/// The regression this suite was written around. From `t ≈ 2e7` s the
/// `1e-9` floor of a zero-length reservation is absorbed by the clock, so
/// the 4-core job starts and the profile still shows its cores free at
/// `now`; the 8-core job behind it was then reserved for `now` too and
/// started into four cores the ledger did not have
/// (`InsufficientCores { requested: 8, available: 4 }` from `try_run`, a
/// panic from `run` and from the oracle). It now waits for the zero-length
/// job's completion — the next event, at the same timestamp.
#[test]
fn a_reservation_the_clock_absorbs_does_not_over_allocate() {
    let policies = policies();
    for t in [1_000.0, 2e7, 2e8] {
        let trace = Trace::from_jobs(vec![
            Job::new(0, t, 0.0, 0.0, 4),
            Job::new(1, t, 10.0, 10.0, CORES),
        ]);
        for config in configs() {
            for policy in &policies {
                let discipline = QueueDiscipline::Policy(policy.as_ref());
                let mut ws = SimWorkspace::new();
                let outcome = ws.try_run(&trace, &discipline, &config);
                assert_eq!(outcome, Ok(()), "t = {t}, {}", policy.name());
                let result = ws.result();
                assert_eq!(result.completed.len(), 2);
                if policy.name() == "FCFS" {
                    // Both start on arrival: the narrow one runs for no time.
                    assert!(result.completed.iter().all(|c| c.start == t));
                    assert_eq!(result.makespan, t + 10.0);
                }
                assert_eq!(result, simulate_reference(&trace, &discipline, &config));
            }
        }
    }
}
