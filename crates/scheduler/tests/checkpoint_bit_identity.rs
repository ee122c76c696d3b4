//! Regression proof for the checkpoint/fork engine API: a simulation
//! resumed from a [`Checkpoint`] captured at any divergence horizon must
//! be **bit-identical** to the same simulation run from scratch — same
//! completed set in the same order, same makespan, utilization, event and
//! backfill counts — across every discipline kind (interpreted static and
//! time-dependent policies, compiled static and time-dependent policies,
//! fixed rank orders), all three backfill modes, both decision modes, both
//! trace layouts, shared-checkpoint fan-outs at 1 worker and at the pool's
//! natural width, and the degenerate horizon-0 snapshot (which must behave
//! exactly like a plain run). The scratch path is the oracle here, and
//! `scheduler::reference` stays untouched behind it.

use dynsched_cluster::{AvailabilitySchedule, CapacityStep, Job, Platform};
use dynsched_policies::{ExprPolicy, Fcfs, LearnedPolicy, Policy, Unicef, Wfp3};
use dynsched_scheduler::{
    simulate, BackfillMode, Checkpoint, QueueDiscipline, SchedulerConfig, SimMetrics, SimWorkspace,
    SimulationResult,
};
use dynsched_simkit::parallel::{par_map_scoped, with_worker_limit};
use dynsched_simkit::Rng;
use dynsched_workload::{Trace, TraceSource};

fn random_trace(rng: &mut Rng, max_jobs: usize, cores: u32) -> Trace {
    let n = rng.range_u64(8, max_jobs as u64) as usize;
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

/// A trial-shaped trace: a warmup batch all submitted at time zero, then a
/// probe tail arriving later — the workload the checkpoint API was built
/// for, where the prefix horizon falls at the first probe submit.
fn warmup_trace(rng: &mut Rng, warmup: usize, probes: usize, cores: u32) -> Trace {
    let mut jobs = Vec::new();
    for i in 0..warmup {
        let runtime = rng.range_f64(500.0, 6_000.0);
        let width = rng.range_u64(1, cores as u64 - 1) as u32;
        jobs.push(Job::new(i as u32, 0.0, runtime, runtime, width));
    }
    let mut now = 0.0;
    for i in 0..probes {
        now += rng.range_f64(10.0, 800.0);
        let runtime = rng.range_f64(100.0, 4_000.0);
        let width = rng.range_u64(1, cores as u64 - 1) as u32;
        jobs.push(Job::new((warmup + i) as u32, now, runtime, runtime, width));
    }
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

/// Policies spanning every engine queue-order mode: static cached-score
/// (Fcfs, the static learned F1), time-dependent interpreted (Wfp3,
/// Unicef, aging expressions), and — via `compile()` below — compiled
/// static residuals and time-dependent ones with a job-uniform and a
/// job-dependent aging rate.
fn lineup() -> Vec<Box<dyn Policy>> {
    vec![
        Box::new(Fcfs),
        Box::new(Wfp3),
        Box::new(Unicef),
        Box::new(ExprPolicy::parse("aging", "log10(r)*n + 8.70e2*log10(s) - 1.5e-2*w").unwrap()),
        Box::new(ExprPolicy::parse("ratio", "-((w / (r + 1)) ^ 2) * sqrt(n)").unwrap()),
        Box::new(LearnedPolicy::f1()),
    ]
}

/// Horizons probing every interesting cut of a trace: the pristine state,
/// an exact arrival timestamp (events *at* the horizon must stay out of
/// the prefix), a point with everything arrived but completions pending,
/// and past the end of time (the prefix runs the whole schedule and the
/// resume only replays it).
fn horizons<T: TraceSource>(trace: &T) -> Vec<f64> {
    let n = trace.len();
    vec![
        0.0,
        trace.submit(n / 2),
        trace.submit(n - 1) + 1.0,
        f64::INFINITY,
    ]
}

fn assert_resume_matches_scratch<T: TraceSource>(
    ws: &mut SimWorkspace,
    ckpt: &mut Checkpoint,
    trace: &T,
    discipline: &QueueDiscipline<'_>,
    config: &SchedulerConfig,
    horizon: f64,
    label: &str,
) -> SimulationResult {
    let scratch = simulate(trace, discipline, config);
    ws.run_prefix(trace, discipline, config, horizon, ckpt);
    ws.resume_from(ckpt, trace, discipline, config);
    let resumed = ws.result();
    assert_eq!(
        scratch, resumed,
        "{label}: resume from horizon {horizon} diverged from scratch"
    );
    scratch
}

#[test]
fn resume_equals_scratch_for_interpreted_policies() {
    let mut rng = Rng::new(0xC4EC4);
    let lineup = lineup();
    let mut ws = SimWorkspace::new();
    let mut ckpt = Checkpoint::new();
    for case in 0..3u64 {
        let trace = random_trace(&mut rng, 50, 16);
        let view = trace.to_view();
        for config in configs(16) {
            for policy in &lineup {
                let discipline = QueueDiscipline::Policy(policy.as_ref());
                for horizon in horizons(&trace) {
                    let aos = assert_resume_matches_scratch(
                        &mut ws,
                        &mut ckpt,
                        &trace,
                        &discipline,
                        &config,
                        horizon,
                        &format!("case {case}, {} (aos)", policy.name()),
                    );
                    // Columnar layout: checkpoint and resume over the SoA
                    // view must match the AoS run bit for bit too.
                    let soa = assert_resume_matches_scratch(
                        &mut ws,
                        &mut ckpt,
                        &view,
                        &discipline,
                        &config,
                        horizon,
                        &format!("case {case}, {} (view)", policy.name()),
                    );
                    assert_eq!(aos, soa, "case {case}: layouts diverged");
                }
            }
        }
    }
}

#[test]
fn resume_equals_scratch_for_compiled_policies() {
    let mut rng = Rng::new(0xC4EC5);
    let lineup = lineup();
    let mut ws = SimWorkspace::new();
    let mut ckpt = Checkpoint::new();
    for case in 0..3u64 {
        let trace = random_trace(&mut rng, 50, 16);
        let view = trace.to_view();
        for config in configs(16) {
            for policy in &lineup {
                let Some(cp) = policy.compile() else { continue };
                let discipline = QueueDiscipline::Compiled(&cp);
                for horizon in horizons(&trace) {
                    assert_resume_matches_scratch(
                        &mut ws,
                        &mut ckpt,
                        &trace,
                        &discipline,
                        &config,
                        horizon,
                        &format!("case {case}, compiled {} (aos)", policy.name()),
                    );
                    assert_resume_matches_scratch(
                        &mut ws,
                        &mut ckpt,
                        &view,
                        &discipline,
                        &config,
                        horizon,
                        &format!("case {case}, compiled {} (view)", policy.name()),
                    );
                }
            }
        }
    }
}

#[test]
fn resume_equals_scratch_for_fixed_orders() {
    let mut rng = Rng::new(0xF1CED);
    let mut ws = SimWorkspace::new();
    let mut ckpt = Checkpoint::new();
    for case in 0..4u64 {
        let trace = random_trace(&mut rng, 40, 8);
        let view = trace.to_view();
        let mut ranks: Vec<usize> = (0..trace.len()).collect();
        rng.shuffle(&mut ranks);
        for config in configs(8) {
            let discipline = QueueDiscipline::FixedOrder(&ranks);
            for horizon in horizons(&trace) {
                assert_resume_matches_scratch(
                    &mut ws,
                    &mut ckpt,
                    &trace,
                    &discipline,
                    &config,
                    horizon,
                    &format!("case {case}, fixed order (aos)"),
                );
                assert_resume_matches_scratch(
                    &mut ws,
                    &mut ckpt,
                    &view,
                    &discipline,
                    &config,
                    horizon,
                    &format!("case {case}, fixed order (view)"),
                );
            }
        }
    }
}

/// The trial kernel's exact usage: the prefix runs under identity ranks,
/// each fork resumes under a *different* rank slice that agrees with the
/// prefix on every pre-horizon (warmup) job — the permutation-safety
/// contract. Every fork must match a scratch run under its own ranks.
#[test]
fn trial_style_forks_match_scratch_runs() {
    let mut rng = Rng::new(0x7121A);
    let mut ws = SimWorkspace::new();
    let mut ckpt = Checkpoint::new();
    for &(warmup, probes) in &[(8usize, 12usize), (12, 6)] {
        let trace = warmup_trace(&mut rng, warmup, probes, 16);
        let view = trace.to_view();
        let n = trace.len();
        let horizon = trace.submit(warmup); // first probe submit
        for config in configs(16) {
            let identity: Vec<usize> = (0..n).collect();
            ws.run_prefix(
                &view,
                &QueueDiscipline::FixedOrder(&identity),
                &config,
                horizon,
                &mut ckpt,
            );
            assert_eq!(ckpt.jobs(), n);
            assert_eq!(
                ckpt.arrivals_processed(),
                warmup,
                "exactly the warmup batch arrives before the first probe"
            );
            for fork in 0..6u64 {
                // Permute the probe tail only; warmup ranks stay 0..warmup.
                let mut tail: Vec<usize> = (0..probes).collect();
                let mut fork_rng = Rng::new(0xBEEF ^ fork);
                fork_rng.shuffle(&mut tail);
                let mut ranks: Vec<usize> = (0..warmup).collect();
                ranks.resize(n, 0);
                for (pos, &k) in tail.iter().enumerate() {
                    ranks[warmup + k] = warmup + pos;
                }
                let discipline = QueueDiscipline::FixedOrder(&ranks);
                ws.resume_from(&ckpt, &view, &discipline, &config);
                let resumed = ws.result();
                let scratch = simulate(&trace, &discipline, &config);
                assert_eq!(
                    scratch, resumed,
                    "fork {fork} diverged from its scratch run"
                );
            }
        }
    }
}

/// Forks from a horizon where probe jobs are already *waiting in the
/// queue*: the prefix captured them keyed by the identity rank table, so
/// the resume must re-key and re-sort the restored queue under its own
/// ranks before the first pass. The horizon is sound for every fork
/// because each pre-horizon pass blocks inside the warmup region — job 0
/// holds every core, so the strict pass stops at the first waiting warmup
/// job, which all rank tables here order identically.
#[test]
fn fork_with_queued_probes_rekeys_the_restored_queue() {
    let cores = 16u32;
    let warmup = 6usize;
    let probes = 10usize;
    let mut jobs = vec![Job::new(0, 0.0, 10_000.0, 10_000.0, cores)];
    for i in 1..warmup as u32 {
        let runtime = 500.0 * i as f64;
        jobs.push(Job::new(i, 0.0, runtime, runtime, 3));
    }
    let mut rng = Rng::new(0x9E4B);
    let mut now = 0.0;
    for p in 0..probes {
        now += rng.range_f64(100.0, 700.0);
        let runtime = rng.range_f64(100.0, 2_000.0);
        let width = rng.range_u64(1, cores as u64 - 1) as u32;
        jobs.push(Job::new((warmup + p) as u32, now, runtime, runtime, width));
    }
    assert!(now < 10_000.0, "every probe must arrive while job 0 runs");
    let trace = Trace::from_jobs(jobs);
    let n = trace.len();
    let config = SchedulerConfig::actual_runtimes(Platform::new(cores));
    let identity: Vec<usize> = (0..n).collect();
    let mut ws = SimWorkspace::new();
    let mut ckpt = Checkpoint::new();
    ws.run_prefix(
        &trace,
        &QueueDiscipline::FixedOrder(&identity),
        &config,
        10_000.0,
        &mut ckpt,
    );
    assert_eq!(
        ckpt.arrivals_processed(),
        n,
        "every probe should be queued at the horizon"
    );
    assert_eq!(ckpt.completed_jobs(), 0, "job 0 finishes at the horizon");
    for fork in 0..8u64 {
        let mut tail: Vec<usize> = (0..probes).collect();
        Rng::new(0xD00D ^ fork).shuffle(&mut tail);
        let mut ranks: Vec<usize> = (0..warmup).collect();
        ranks.resize(n, 0);
        for (pos, &k) in tail.iter().enumerate() {
            ranks[warmup + k] = warmup + pos;
        }
        let discipline = QueueDiscipline::FixedOrder(&ranks);
        ws.resume_from(&ckpt, &trace, &discipline, &config);
        let resumed = ws.result();
        let scratch = simulate(&trace, &discipline, &config);
        assert_eq!(scratch, resumed, "fork {fork} diverged from scratch");
    }
}

/// Forks from a horizon that falls just after a pass started the *front*
/// of a standing queue: under a static order the engine leaves those
/// entries behind a cursor instead of rewriting the queue, and the
/// checkpoint must hold the waiting jobs alone. Job 0 holds the machine
/// until t=100; eight 3-core warmup jobs and ten probes (2+ cores each)
/// pile up behind it; at t=100 five warmup jobs start, one core stays
/// free, and nothing else fits in any backfilling mode — so every
/// pre-horizon pass is decided inside the warmup region, identically under
/// every rank table here.
#[test]
fn fork_from_a_queue_whose_front_has_started() {
    let cores = 16u32;
    let warmup = 9usize;
    let probes = 10usize;
    let mut jobs = vec![Job::new(0, 0.0, 100.0, 100.0, cores)];
    for i in 1..warmup as u32 {
        let runtime = 500.0 * i as f64;
        jobs.push(Job::new(i, 0.0, runtime, runtime, 3));
    }
    let mut rng = Rng::new(0x51DE);
    for p in 0..probes {
        let runtime = rng.range_f64(100.0, 2_000.0);
        let width = rng.range_u64(2, cores as u64 - 1) as u32;
        let id = (warmup + p) as u32;
        jobs.push(Job::new(id, 1.0 + 9.0 * p as f64, runtime, runtime, width));
    }
    let trace = Trace::from_jobs(jobs);
    let n = trace.len();
    let identity: Vec<usize> = (0..n).collect();
    let mut ws = SimWorkspace::new();
    let mut ckpt = Checkpoint::new();
    for backfill in [
        BackfillMode::None,
        BackfillMode::Aggressive,
        BackfillMode::Conservative,
    ] {
        let mut config = SchedulerConfig::actual_runtimes(Platform::new(cores));
        config.backfill = backfill;
        ws.run_prefix(
            &trace,
            &QueueDiscipline::FixedOrder(&identity),
            &config,
            150.0,
            &mut ckpt,
        );
        assert_eq!(ckpt.arrivals_processed(), n);
        assert_eq!(ckpt.completed_jobs(), 1, "only job 0 has finished");
        for fork in 0..8u64 {
            let mut tail: Vec<usize> = (0..probes).collect();
            Rng::new(0xF00D ^ fork).shuffle(&mut tail);
            let mut ranks: Vec<usize> = (0..warmup).collect();
            ranks.resize(n, 0);
            for (pos, &k) in tail.iter().enumerate() {
                ranks[warmup + k] = warmup + pos;
            }
            let discipline = QueueDiscipline::FixedOrder(&ranks);
            ws.resume_from(&ckpt, &trace, &discipline, &config);
            let resumed = ws.result();
            let scratch = simulate(&trace, &discipline, &config);
            assert_eq!(
                scratch, resumed,
                "{backfill:?}, fork {fork} diverged from scratch"
            );
            let by_id = resumed.by_id();
            assert!(
                (1..6).all(|id| by_id[&id].start == 100.0) && by_id[&6].start > 150.0,
                "the horizon must fall between the front's start and the next"
            );
        }
    }
}

/// One shared immutable checkpoint, forked across the scoped pool: results
/// must be identical at one worker and at the natural width, and equal to
/// the sequential scratch loop — thread count can never be an input.
#[test]
fn shared_checkpoint_fanout_is_thread_count_independent() {
    let mut rng = Rng::new(0x5A4ED);
    let trace = warmup_trace(&mut rng, 10, 10, 16);
    let view = trace.to_view();
    let n = trace.len();
    let config = SchedulerConfig::actual_runtimes(Platform::new(16));
    let identity: Vec<usize> = (0..n).collect();
    let mut ws = SimWorkspace::new();
    let mut ckpt = Checkpoint::new();
    ws.run_prefix(
        &view,
        &QueueDiscipline::FixedOrder(&identity),
        &config,
        trace.submit(10),
        &mut ckpt,
    );

    let rank_sets: Vec<Vec<usize>> = (0..32u64)
        .map(|f| {
            let mut tail: Vec<usize> = (0..10).collect();
            Rng::new(0xABC ^ f).shuffle(&mut tail);
            let mut ranks: Vec<usize> = (0..10).collect();
            ranks.resize(n, 0);
            for (pos, &k) in tail.iter().enumerate() {
                ranks[10 + k] = 10 + pos;
            }
            ranks
        })
        .collect();

    let ckpt_ref = &ckpt;
    let run_fanout = || {
        par_map_scoped(&rank_sets, SimWorkspace::new, |ranks, ws| {
            ws.resume_from(
                ckpt_ref,
                &view,
                &QueueDiscipline::FixedOrder(ranks),
                &config,
            );
            ws.result()
        })
    };
    let wide = run_fanout();
    let narrow = with_worker_limit(1, run_fanout);
    assert_eq!(
        wide, narrow,
        "shared-checkpoint fan-out depends on worker count"
    );
    for (ranks, got) in rank_sets.iter().zip(&wide) {
        let want = simulate(&trace, &QueueDiscipline::FixedOrder(ranks), &config);
        assert_eq!(got, &want, "fork diverged from scratch");
    }
}

/// A checkpoint (and a workspace) carries capacity between captures, never
/// state: recapturing over different traces and interleaving prefixes with
/// full runs must leave every result equal to a fresh-object run.
#[test]
fn checkpoint_and_workspace_reuse_carry_no_state() {
    let mut rng = Rng::new(0x2E05E);
    // EASY on estimates, and strict scheduling — the only mode in which a
    // static order can leave a blocked-head fact standing.
    let configs = [
        SchedulerConfig::estimates_with_backfilling(Platform::new(16)),
        SchedulerConfig::actual_runtimes(Platform::new(16)),
    ];
    // Two time-dependent compiled policies, a job-uniform aging rate and
    // a job-dependent one: a prefix under either leaves score lanes
    // behind, and no order (both select their heads on demand here).
    let aging = lineup()[3].compile().unwrap();
    let wfp = Wfp3.compile().unwrap();
    // Two outages down to 2 of 16 cores, one requeue allowed: wide jobs
    // caught by both are abandoned.
    let step = |time, capacity| CapacityStep { time, capacity };
    let outages = AvailabilitySchedule::from_steps(
        vec![
            step(1_000.0, 2),
            step(1_500.0, 16),
            step(2_500.0, 2),
            step(3_000.0, 16),
        ],
        1,
    );
    let mut ws = SimWorkspace::new();
    let mut ckpt = Checkpoint::new();
    for case in 0..6usize {
        let trace = random_trace(&mut rng, 45, 16);
        let config = configs[case / 3];
        let fcfs = QueueDiscipline::Policy(&Fcfs);
        // Pollute the workspace and checkpoint before the measured
        // round-trip: a full run, a faulty run that preempts and abandons,
        // a metrics-only run, a conservative time-dependent run (its last
        // pass leaves a non-empty scratch order behind, which no later
        // run or fork may read), and unrelated captures that stop
        // mid-queue under a static order and each time-dependent policy
        // (rotated, so any of them may be what the workspace and the
        // checkpoint last held).
        ws.run(&trace, &fcfs, &config);
        let pollute = random_trace(&mut rng, 30, 16);
        ws.run_faulty(&pollute, &fcfs, &config, &outages).unwrap();
        assert!(
            ws.preempted_jobs() > 0 && !ws.abandoned().is_empty() && ws.lost_core_seconds() > 0.0,
            "case {case}: the faulty pollution run must preempt and abandon"
        );
        ws.run_metrics(&pollute, &fcfs, &config, 10.0);
        let conservative = SchedulerConfig {
            backfill: BackfillMode::Conservative,
            ..config
        };
        ws.run(&pollute, &QueueDiscipline::Compiled(&wfp), &conservative);
        let mid = pollute.submit(pollute.len() / 2);
        let mut disciplines = [
            fcfs,
            QueueDiscipline::Compiled(&aging),
            QueueDiscipline::Compiled(&wfp),
        ];
        disciplines.rotate_left(case % 3);
        for discipline in &disciplines {
            ws.run_prefix(&pollute, discipline, &config, mid, &mut ckpt);
        }
        let discipline = &disciplines[1];
        // Each run kind starts clean on the polluted workspace: a faulty
        // run (first — the last capture left jobs running), the measured
        // round-trip, a metrics-only run.
        let mut fresh = SimWorkspace::new();
        fresh
            .run_faulty(&trace, discipline, &config, &outages)
            .unwrap();
        ws.run_faulty(&trace, discipline, &config, &outages)
            .unwrap();
        assert_eq!(fresh.result(), ws.result(), "case {case}: faulty reuse");
        let horizon = trace.submit(trace.len() / 2);
        let resumed = {
            ws.run_prefix(&trace, discipline, &config, horizon, &mut ckpt);
            ws.resume_from(&ckpt, &trace, discipline, &config);
            ws.result()
        };
        let scratch = simulate(&trace, discipline, &config);
        assert_eq!(scratch, resumed, "case {case}: reuse leaked state");
        let metrics = ws.run_metrics(&trace, discipline, &config, 10.0);
        assert_eq!(metrics, SimMetrics::from_result(&scratch, 10.0));
    }
}

/// The degenerate snapshot: a horizon at (or before) the first event
/// captures the pristine initial state, so the prefix processes nothing
/// and the resume *is* the plain run.
#[test]
fn horizon_zero_checkpoint_is_a_plain_run() {
    let mut rng = Rng::new(0x0E02);
    let trace = warmup_trace(&mut rng, 6, 8, 8);
    let config = SchedulerConfig::actual_runtimes(Platform::new(8));
    let n = trace.len();
    let mut ranks: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut ranks);
    let discipline = QueueDiscipline::FixedOrder(&ranks);
    let mut ws = SimWorkspace::new();
    let mut ckpt = Checkpoint::new();
    ws.run_prefix(&trace, &discipline, &config, 0.0, &mut ckpt);
    assert_eq!(ckpt.horizon(), 0.0);
    assert_eq!(ckpt.jobs(), n);
    assert_eq!(ckpt.arrivals_processed(), 0, "nothing arrives before t=0");
    assert_eq!(ckpt.completed_jobs(), 0);
    assert_eq!(ckpt.events_processed(), 0);
    ws.resume_from(&ckpt, &trace, &discipline, &config);
    let resumed = ws.result();
    let scratch = simulate(&trace, &discipline, &config);
    assert_eq!(scratch, resumed, "degenerate snapshot must be a plain run");
}

#[test]
#[should_panic(expected = "different trace length")]
fn resume_rejects_mismatched_trace() {
    let mut rng = Rng::new(0xBAD);
    let a = warmup_trace(&mut rng, 4, 4, 8);
    let b = warmup_trace(&mut rng, 4, 5, 8);
    let config = SchedulerConfig::actual_runtimes(Platform::new(8));
    let ranks_a: Vec<usize> = (0..a.len()).collect();
    let ranks_b: Vec<usize> = (0..b.len()).collect();
    let mut ws = SimWorkspace::new();
    let mut ckpt = Checkpoint::new();
    ws.run_prefix(
        &a,
        &QueueDiscipline::FixedOrder(&ranks_a),
        &config,
        a.submit(4),
        &mut ckpt,
    );
    ws.resume_from(&ckpt, &b, &QueueDiscipline::FixedOrder(&ranks_b), &config);
}
