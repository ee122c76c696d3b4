//! Regression proof for the fault-injection subsystem — two contracts:
//!
//! 1. **Zero-fault bit-identity.** A run under an *empty*
//!    [`AvailabilitySchedule`] must be bit-identical to the pre-fault
//!    engine ([`simulate`] / [`SimWorkspace::run`]) — same completed set
//!    in the same order, same makespan, utilization, event and backfill
//!    counts, zero resilience counters — across every discipline shape
//!    (interpreted policy, compiled bytecode, fixed order), all three
//!    backfill modes, both decision modes, both engine modes (full and
//!    metrics-only), and both trace layouts. The fault machinery is
//!    monomorphized away when off; this suite proves it is also
//!    *observationally* off.
//! 2. **Oracle bit-identity.** A faulty run must match the slow-path
//!    oracle [`reference::simulate_reference_faulty`] bit for bit — at
//!    one worker thread and the pool's natural width, with fresh and
//!    reused workspaces.

use dynsched_cluster::{AvailabilitySchedule, FaultProfile, Job, Platform};
use dynsched_policies::paper_lineup;
use dynsched_scheduler::reference::{reference_metrics_faulty, simulate_reference_faulty};
use dynsched_scheduler::{
    simulate, BackfillMode, EngineError, QueueDiscipline, SchedulerConfig, SimMetrics,
    SimWorkspace, SimulationResult,
};
use dynsched_simkit::parallel::{par_map_scoped, with_worker_limit};
use dynsched_simkit::Rng;
use dynsched_workload::Trace;

/// One faulty run on a throwaway workspace, as an owned result.
fn simulate_faulty(
    trace: &Trace,
    discipline: &QueueDiscipline<'_>,
    config: &SchedulerConfig,
    schedule: &AvailabilitySchedule,
) -> Result<SimulationResult, EngineError> {
    let mut ws = SimWorkspace::new();
    ws.run_faulty(trace, discipline, config, schedule)?;
    Ok(ws.result())
}

fn random_trace(rng: &mut Rng, max_jobs: usize, cores: u32) -> Trace {
    let n = rng.range_u64(2, max_jobs as u64) as usize;
    let jobs: Vec<Job> = (0..n)
        .map(|i| {
            let submit = rng.range_f64(0.0, 4_000.0);
            let runtime = rng.range_f64(1.0, 4_000.0);
            let over = rng.range_f64(1.0, 3.0);
            let width = rng.range_u64(1, cores as u64 - 1) as u32;
            Job::new(i as u32, submit, runtime, (runtime * over).max(1.0), width)
        })
        .collect();
    Trace::from_jobs(jobs)
}

fn configs(cores: u32) -> Vec<SchedulerConfig> {
    let mut out = Vec::new();
    for backfill in [
        BackfillMode::None,
        BackfillMode::Aggressive,
        BackfillMode::Conservative,
    ] {
        let mut a = SchedulerConfig::actual_runtimes(Platform::new(cores));
        a.backfill = backfill;
        out.push(a);
        let mut e = SchedulerConfig::user_estimates(Platform::new(cores));
        e.backfill = backfill;
        out.push(e);
    }
    out
}

/// A fault schedule that actually bites on the random traces above:
/// MTBF well under the trace span, repairs long enough to force
/// preemptions, a finite retry cap so abandonment paths run too.
fn biting_schedule(total_cores: u32, seed: u64, stream: u64) -> AvailabilitySchedule {
    FaultProfile::failures(1_500.0, 600.0, total_cores / 2, seed)
        .with_max_retries(2)
        .expand(total_cores, 16_000.0, stream)
}

#[test]
fn empty_schedule_runs_are_bit_identical_to_the_zero_fault_engine() {
    let mut rng = Rng::new(0xFA_17_1D);
    let lineup = paper_lineup();
    let empty = AvailabilitySchedule::empty();
    let mut ws = SimWorkspace::new();
    for case in 0..4u64 {
        let trace = random_trace(&mut rng, 50, 16);
        let view = trace.to_view();
        for config in configs(16) {
            for policy in &lineup {
                let discipline = QueueDiscipline::Policy(policy.as_ref());
                let plain = simulate(&trace, &discipline, &config);
                let faulty = simulate_faulty(&trace, &discipline, &config, &empty).unwrap();
                assert_eq!(
                    plain,
                    faulty,
                    "case {case}, {}: empty schedule diverged from the zero-fault engine",
                    policy.name()
                );
                assert_eq!(faulty.preempted_jobs, 0);
                assert_eq!(faulty.lost_core_seconds, 0.0);
                assert!(faulty.abandoned.is_empty());
                // SoA layout and workspace reuse agree too.
                ws.run_faulty(&view, &discipline, &config, &empty).unwrap();
                let soa = ws.result();
                assert_eq!(
                    plain, soa,
                    "case {case}: layouts diverged under empty faults"
                );
                // Metrics-only mode: the faulty fold equals the plain fold.
                let m_plain = ws.run_metrics(&trace, &discipline, &config, 10.0);
                let m_faulty = ws
                    .run_metrics_faulty(&view, &discipline, &config, &empty, 10.0)
                    .unwrap();
                assert_eq!(m_plain, m_faulty, "case {case}: metrics modes diverged");
                assert_eq!(m_faulty, SimMetrics::from_result(&plain, 10.0));
            }
        }
    }
}

#[test]
fn empty_schedule_matches_for_compiled_and_fixed_order_disciplines() {
    let mut rng = Rng::new(0xFA_17_2D);
    let empty = AvailabilitySchedule::empty();
    for _ in 0..3 {
        let trace = random_trace(&mut rng, 40, 8);
        let config = SchedulerConfig::estimates_with_backfilling(Platform::new(8));
        for policy in paper_lineup().iter().take(3) {
            let compiled = policy.compile().unwrap();
            let discipline = QueueDiscipline::Compiled(&compiled);
            let plain = simulate(&trace, &discipline, &config);
            let faulty = simulate_faulty(&trace, &discipline, &config, &empty).unwrap();
            assert_eq!(plain, faulty, "{}: compiled path diverged", policy.name());
        }
        let mut ranks: Vec<usize> = (0..trace.len()).collect();
        rng.shuffle(&mut ranks);
        let discipline = QueueDiscipline::FixedOrder(&ranks);
        let plain = simulate(&trace, &discipline, &config);
        let faulty = simulate_faulty(&trace, &discipline, &config, &empty).unwrap();
        assert_eq!(plain, faulty, "fixed-order path diverged");
    }
}

#[test]
fn faulty_runs_are_bit_identical_to_the_reference_oracle() {
    let mut rng = Rng::new(0xFA_17_3D);
    let lineup = paper_lineup();
    let mut ws = SimWorkspace::new();
    let mut preemptions = 0u64;
    let mut abandonments = 0u64;
    for case in 0..4u64 {
        let trace = random_trace(&mut rng, 50, 16);
        let view = trace.to_view();
        let schedule = biting_schedule(16, 0xBAD + case, case);
        for config in configs(16) {
            for policy in &lineup {
                let discipline = QueueDiscipline::Policy(policy.as_ref());
                let oracle = simulate_reference_faulty(&trace, &discipline, &config, &schedule);
                let fast = simulate_faulty(&trace, &discipline, &config, &schedule).unwrap();
                assert_eq!(
                    oracle,
                    fast,
                    "case {case}, {}: faulty engine diverged from the oracle",
                    policy.name()
                );
                preemptions += fast.preempted_jobs;
                abandonments += fast.abandoned.len() as u64;
                // SoA layout and a reused workspace match the oracle too.
                ws.run_faulty(&view, &discipline, &config, &schedule)
                    .unwrap();
                let soa = ws.result();
                assert_eq!(oracle, soa, "case {case}: SoA faulty run diverged");
                // Metrics-only faulty mode equals the oracle's fold.
                let m = ws
                    .run_metrics_faulty(&view, &discipline, &config, &schedule, 10.0)
                    .unwrap();
                assert_eq!(
                    m,
                    reference_metrics_faulty(&trace, &discipline, &config, &schedule, 10.0),
                    "case {case}: faulty metrics diverged"
                );
            }
        }
    }
    // The schedules must actually have exercised the fault paths, or the
    // equalities above prove nothing.
    assert!(preemptions > 0, "no preemption ever happened");
    assert!(abandonments > 0, "no job ever hit its retry cap");
}

#[test]
fn compiled_disciplines_match_interpreted_under_faults() {
    let mut rng = Rng::new(0xFA_17_4D);
    for case in 0..3u64 {
        let trace = random_trace(&mut rng, 40, 8);
        let schedule = biting_schedule(8, 0xC0DE + case, case);
        for config in configs(8) {
            for policy in paper_lineup().iter().take(4) {
                let compiled = policy.compile().unwrap();
                let interpreted = simulate_faulty(
                    &trace,
                    &QueueDiscipline::Policy(policy.as_ref()),
                    &config,
                    &schedule,
                )
                .unwrap();
                let batch = simulate_faulty(
                    &trace,
                    &QueueDiscipline::Compiled(&compiled),
                    &config,
                    &schedule,
                )
                .unwrap();
                assert_eq!(
                    interpreted,
                    batch,
                    "case {case}, {}: compiled faulty run diverged",
                    policy.name()
                );
            }
        }
    }
}

/// The evaluation session's consumption pattern: `(policy × sequence)`
/// cells share per-sequence fault schedules across worker threads, each
/// worker holding a reusable workspace. The fan-out must equal the
/// sequential loop at any worker count, and both must equal the oracle.
#[test]
fn faulty_fanout_is_thread_count_independent() {
    let mut rng = Rng::new(0xFA_17_5D);
    let traces: Vec<Trace> = (0..3).map(|_| random_trace(&mut rng, 40, 16)).collect();
    let views: Vec<_> = traces.iter().map(Trace::to_view).collect();
    let schedules: Vec<AvailabilitySchedule> = (0..traces.len())
        .map(|s| biting_schedule(16, 0xFEED, s as u64))
        .collect();
    let lineup = paper_lineup();
    let config = SchedulerConfig::estimates_with_backfilling(Platform::new(16));

    let cells: Vec<(usize, usize)> = (0..lineup.len())
        .flat_map(|p| (0..views.len()).map(move |s| (p, s)))
        .collect();
    let run_fanout = || {
        par_map_scoped(&cells, SimWorkspace::new, |&(p, s), ws| {
            ws.run_metrics_faulty(
                &views[s],
                &QueueDiscipline::Policy(lineup[p].as_ref()),
                &config,
                &schedules[s],
                10.0,
            )
            .unwrap()
        })
    };
    let wide = run_fanout();
    let narrow = with_worker_limit(1, run_fanout);
    assert_eq!(wide, narrow, "faulty fan-out depends on worker count");
    for (&(p, s), got) in cells.iter().zip(&wide) {
        let want = reference_metrics_faulty(
            &traces[s],
            &QueueDiscipline::Policy(lineup[p].as_ref()),
            &config,
            &schedules[s],
            10.0,
        );
        assert_eq!(got, &want, "cell ({p}, {s}) diverged from the oracle");
    }
}
