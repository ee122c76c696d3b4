//! Regression proof for what the engine does *after* the compiled batch
//! re-score. Whatever the backfill mode selects — under strict or EASY
//! scheduling, no order at all but each head picked **on demand** as the
//! minimum of the entries not yet started (and, under EASY, a sort of
//! only the candidates that fit the free cores); a full sort under
//! conservative backfilling — the resulting schedule must be
//! **bit-identical** to the interpreted full-re-sort twin
//! ([`QueueDiscipline::Policy`]) and to the scalar reference oracle,
//! across all backfill modes, both decision modes, both trace layouts,
//! 1 vs n worker threads, bulk arrival waves, and fault schedules whose
//! preemptions requeue jobs mid-run. The
//! comparator `(score.total_cmp, queue position)` is total and injective,
//! so the minimum of the remaining entries *is* the next element of the
//! unique full-sort order; the tie and edge cases at the end of this file
//! pin that where it is easiest to get wrong — equal scores, `0.0` against
//! `-0.0`, `f64::MAX` and `±inf`, and passes that start dozens of jobs.

use dynsched_cluster::{AvailabilitySchedule, FaultProfile, Job, Platform};
use dynsched_policies::expr::{BinOp, Expr, Func, Var};
use dynsched_policies::{
    CompiledPolicy, ExprPolicy, LearnedPolicy, Policy, TaskView, Unicef, Wfp3,
};
use dynsched_scheduler::reference::{simulate_reference, simulate_reference_faulty};
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

/// A trace that keeps the queue deep: submits clustered well inside the
/// total work span so dozens of jobs wait at once — the regime where the
/// on-demand head actually differs from a trivial queue.
fn saturated_trace(rng: &mut Rng, max_jobs: usize, cores: u32) -> Trace {
    let n = rng.range_u64(10, max_jobs as u64) as usize;
    let jobs: Vec<Job> = (0..n)
        .map(|i| {
            let submit = rng.range_f64(0.0, 2_000.0);
            let runtime = rng.range_f64(200.0, 4_000.0);
            let over = rng.range_f64(1.0, 3.0);
            let width = rng.range_u64(1, cores as u64 - 1) as u32;
            Job::new(i as u32, submit, runtime, (runtime * over).max(1.0), width)
        })
        .collect();
    Trace::from_jobs(jobs)
}

/// Bulk same-timestamp arrival waves — dozens of fresh jobs re-scored at
/// one event — with a trickle of single arrivals between them.
fn wave_trace(rng: &mut Rng, waves: usize, wave_size: usize, cores: u32) -> Trace {
    let mut jobs = Vec::new();
    let mut id = 0u32;
    for w in 0..waves {
        let at = w as f64 * 700.0;
        for _ in 0..wave_size {
            let runtime = rng.range_f64(100.0, 2_500.0);
            let width = rng.range_u64(1, cores as u64 - 1) as u32;
            jobs.push(Job::new(id, at, runtime, runtime * 1.5, width));
            id += 1;
        }
        // Trickle arrivals between waves: one at a time.
        for k in 0..3 {
            let runtime = rng.range_f64(100.0, 2_500.0);
            jobs.push(Job::new(
                id,
                at + 50.0 * (k + 1) as f64,
                runtime,
                runtime,
                1,
            ));
            id += 1;
        }
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

/// Time-dependent residuals with a job-uniform aging rate (the first two)
/// and a job-dependent one (the next three) — on-demand heads under strict
/// and EASY scheduling, full sort under conservative — and a static
/// learned function (enqueue-time scalar scoring, no lanes).
fn lineup() -> Vec<Box<dyn Policy>> {
    vec![
        Box::new(ExprPolicy::parse("G1-aging", "log10(r)*n + 8.70e2*log10(s) - 1.5e-2*w").unwrap()),
        Box::new(ExprPolicy::parse("linear-aging", "inv(r)*n - w").unwrap()),
        Box::new(ExprPolicy::parse("ratio-aging", "-((w / (r + 1)) ^ 2) * sqrt(n)").unwrap()),
        Box::new(Wfp3),
        Box::new(Unicef),
        Box::new(LearnedPolicy::f1()),
    ]
}

#[test]
fn lineup_covers_time_dependent_and_static_policies() {
    // The suite proves nothing if the policies all take the same path: pin
    // which ones re-score at every event, so the on-demand / full-sort
    // shapes and the static path are all known to be on somewhere below.
    let time_dependent: Vec<bool> = lineup()
        .iter()
        .map(|p| p.compile().unwrap().time_dependent())
        .collect();
    assert_eq!(
        time_dependent,
        [true, true, true, true, true, false],
        "five residuals must read w and F1 must not"
    );
}

#[test]
fn random_event_sequences_match_full_resort_and_reference() {
    let mut rng = Rng::new(0x1C2E5C0);
    let policies = lineup();
    let mut ws = SimWorkspace::new();
    for case in 0..4u64 {
        let trace = saturated_trace(&mut rng, 60, 8);
        let view = trace.to_view();
        for config in configs(8) {
            for policy in &policies {
                let compiled = policy.compile().expect("lineup compiles");
                let interp = QueueDiscipline::Policy(policy.as_ref());
                let comp = QueueDiscipline::Compiled(&compiled);
                // Interpreted path: score-everything + full re-sort twin.
                let a = simulate(&trace, &interp, &config);
                // Compiled path: on-demand / full-sort / static shortcut.
                let b = simulate(&trace, &comp, &config);
                assert_eq!(a, b, "case {case}, {}: maintenance diverged", policy.name());
                // Columnar layout and workspace reuse change nothing.
                ws.run(&view, &comp, &config);
                let b_view = ws.result();
                assert_eq!(a, b_view, "case {case}, {}: SoA", policy.name());
                // Metrics-only streaming agrees with the full fold.
                let m = ws.run_metrics(&view, &comp, &config, 10.0);
                assert_eq!(m, SimMetrics::from_result(&a, 10.0));
                // The scalar full-sort oracle agrees bit for bit.
                let r = simulate_reference(&trace, &comp, &config);
                assert_eq!(a, r, "case {case}, {}: reference", policy.name());
            }
        }
    }
}

#[test]
fn arrival_waves_stay_identical() {
    let mut rng = Rng::new(0x3A7E5);
    let policies = lineup();
    for case in 0..3u64 {
        // Waves of 25 land at one timestamp; the trickle jobs arrive
        // one at a time in between.
        let trace = wave_trace(&mut rng, 4, 25, 8);
        for config in configs(8) {
            for policy in &policies {
                let compiled = policy.compile().unwrap();
                let a = simulate(&trace, &QueueDiscipline::Policy(policy.as_ref()), &config);
                let b = simulate(&trace, &QueueDiscipline::Compiled(&compiled), &config);
                assert_eq!(a, b, "case {case}, {}: wave run diverged", policy.name());
            }
        }
    }
}

#[test]
fn preempt_requeue_churn_matches_the_faulty_oracle() {
    // Fault schedules preempt running jobs back into the queue mid-run:
    // requeued jobs enter at the queue tail and must be picked exactly
    // where the full re-sort would place them.
    let mut rng = Rng::new(0xFA_0C7);
    let policies = lineup();
    let mut preemptions = 0u64;
    for case in 0..3u64 {
        let trace = saturated_trace(&mut rng, 45, 8);
        let schedule = FaultProfile::failures(1_200.0, 500.0, 4, 0xBAD5EED + case)
            .with_max_retries(2)
            .expand(8, 16_000.0, case);
        for config in configs(8) {
            for policy in &policies {
                let compiled = policy.compile().unwrap();
                let comp = QueueDiscipline::Compiled(&compiled);
                let oracle = simulate_reference_faulty(&trace, &comp, &config, &schedule);
                let fast = simulate_faulty(&trace, &comp, &config, &schedule).unwrap();
                assert_eq!(
                    oracle,
                    fast,
                    "case {case}, {}: faulty incremental run diverged",
                    policy.name()
                );
                let interp = simulate_faulty(
                    &trace,
                    &QueueDiscipline::Policy(policy.as_ref()),
                    &config,
                    &schedule,
                )
                .unwrap();
                assert_eq!(
                    interp,
                    fast,
                    "case {case}, {}: compiled vs interpreted under faults",
                    policy.name()
                );
                preemptions += fast.preempted_jobs;
            }
        }
    }
    assert!(
        preemptions > 0,
        "no preemption ever exercised the requeue path"
    );
}

#[test]
fn empty_schedule_keeps_incremental_runs_bit_identical() {
    // The zero-fault contract holds through the new maintenance layer.
    let mut rng = Rng::new(0xE5C0);
    let empty = AvailabilitySchedule::empty();
    let trace = saturated_trace(&mut rng, 40, 8);
    for config in configs(8) {
        for policy in &lineup() {
            let compiled = policy.compile().unwrap();
            let comp = QueueDiscipline::Compiled(&compiled);
            let plain = simulate(&trace, &comp, &config);
            let faulty = simulate_faulty(&trace, &comp, &config, &empty).unwrap();
            assert_eq!(plain, faulty, "{}: empty schedule diverged", policy.name());
        }
    }
}

#[test]
fn incremental_fanout_is_thread_count_independent() {
    let mut rng = Rng::new(0x1CFA0);
    let traces: Vec<Trace> = (0..3).map(|_| saturated_trace(&mut rng, 50, 8)).collect();
    let views: Vec<_> = traces.iter().map(Trace::to_view).collect();
    let policies = lineup();
    let compiled: Vec<CompiledPolicy> = policies.iter().map(|p| p.compile().unwrap()).collect();
    for config in configs(8) {
        let cells: Vec<(usize, usize)> = (0..compiled.len())
            .flat_map(|p| (0..views.len()).map(move |s| (p, s)))
            .collect();
        let run_fanout = || {
            par_map_scoped(&cells, SimWorkspace::new, |&(p, s), ws| {
                ws.run_metrics(
                    &views[s],
                    &QueueDiscipline::Compiled(&compiled[p]),
                    &config,
                    10.0,
                )
            })
        };
        let wide = run_fanout();
        let narrow = with_worker_limit(1, run_fanout);
        assert_eq!(wide, narrow, "incremental fan-out depends on worker count");
        for (&(p, s), got) in cells.iter().zip(&wide) {
            let want = SimMetrics::from_result(
                &simulate(
                    &traces[s],
                    &QueueDiscipline::Policy(policies[p].as_ref()),
                    &config,
                ),
                10.0,
            );
            assert_eq!(got, &want, "cell ({p}, {s}) diverged from interpreted");
        }
    }
}

// ---- On-demand head selection: ties and edges ----

/// A 64-core machine held, again and again, by one full-width job while
/// narrow jobs pile up behind it: each time it ends, one pass starts
/// dozens of them — many on-demand heads from one re-score.
fn burst_trace(rng: &mut Rng) -> Trace {
    let mut jobs = Vec::new();
    for cycle in 0..3u32 {
        let at = cycle as f64 * 1_500.0;
        let id = jobs.len() as u32;
        jobs.push(Job::new(id, at, 1_000.0, 1_200.0, 64));
        for k in 0..50u32 {
            let runtime = rng.range_f64(50.0, 400.0);
            let width = rng.range_u64(1, 2) as u32;
            let id = jobs.len() as u32;
            jobs.push(Job::new(
                id,
                at + 1.0 + k as f64,
                runtime,
                runtime * 1.5,
                width,
            ));
        }
    }
    Trace::from_jobs(jobs)
}

/// A random tree over every variable, function and operator, with
/// constants from 1e-9 to 1e9 of either sign, so guards, overflow and the
/// NaN sanitizer fire (the `compile_properties` generator's shape).
fn random_expr(rng: &mut Rng, depth: u32) -> Expr {
    if depth == 0 || rng.range_u64(0, 9) < 3 {
        return match rng.range_u64(0, 5) {
            0 => Expr::Var(Var::R),
            1 => Expr::Var(Var::N),
            2 => Expr::Var(Var::S),
            3 | 4 => Expr::Var(Var::W),
            _ => {
                let sign = if rng.range_u64(0, 1) == 0 { 1.0 } else { -1.0 };
                Expr::Const(sign * 10f64.powf(rng.range_f64(-9.0, 9.0)))
            }
        };
    }
    let sub = |rng: &mut Rng| Box::new(random_expr(rng, depth - 1));
    match rng.range_u64(0, 7) {
        0 => Expr::Neg(sub(rng)),
        1 | 2 => {
            let f = Func::ALL[rng.range_u64(0, Func::ALL.len() as u64 - 1) as usize];
            Expr::Call(f, sub(rng))
        }
        k => {
            let op = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Pow][k as usize - 3];
            Expr::Bin(op, sub(rng), sub(rng))
        }
    }
}

/// Time-dependent policies only (the ones selected on demand): the two
/// paper baselines, one whose scores at `w = 0` are `0.0` or `-0.0` by
/// job width, one that overflows to `±inf` and, where both terms do, to
/// the sanitizer's `f64::MAX`, and six random trees.
fn edge_lineup() -> Vec<Box<dyn Policy>> {
    let mut out: Vec<Box<dyn Policy>> = vec![
        Box::new(Wfp3),
        Box::new(Unicef),
        Box::new(ExprPolicy::parse("signed-zero", "w * (n - 3)").unwrap()),
        Box::new(ExprPolicy::parse("overflow", "exp(w * n) - exp(w * r / 100)").unwrap()),
    ];
    let mut rng = Rng::new(0xED6E5);
    while out.len() < 10 {
        let policy = ExprPolicy::from_expr(format!("rand-{}", out.len()), random_expr(&mut rng, 4));
        if policy.compile().unwrap().time_dependent() {
            out.push(Box::new(policy));
        }
    }
    for p in &out {
        assert!(
            p.compile().unwrap().time_dependent(),
            "{} must be selected on demand",
            p.name()
        );
    }
    out
}

/// Strict and EASY scheduling — the two modes that select heads
/// on demand — under both decision modes.
fn on_demand_configs(cores: u32) -> Vec<SchedulerConfig> {
    configs(cores)
        .into_iter()
        .filter(|c| c.backfill != BackfillMode::Conservative)
        .collect()
}

fn edge_traces() -> Vec<(Trace, u32)> {
    let mut rng = Rng::new(0x71E5);
    vec![
        (wave_trace(&mut rng, 4, 25, 8), 8),
        (burst_trace(&mut rng), 64),
    ]
}

#[test]
fn edge_inputs_produce_the_ties_and_values_they_are_named_for() {
    let (waves, _) = &edge_traces()[0];
    let scores_at = |policy: &dyn Policy, wait: f64| -> Vec<f64> {
        waves
            .jobs()
            .iter()
            .map(|j| {
                policy.score(&TaskView {
                    processing_time: j.runtime,
                    cores: j.cores,
                    submit: j.submit,
                    now: j.submit + wait,
                })
            })
            .collect()
    };
    // A wave scored on arrival: WFP3 is -0.0 for every job, so the order
    // within the wave is the position tie-break alone.
    assert!(scores_at(&Wfp3, 0.0)
        .iter()
        .all(|s| s.to_bits() == (-0.0f64).to_bits()));
    let lineup = edge_lineup();
    let zeros = scores_at(lineup[2].as_ref(), 0.0);
    assert!(zeros.iter().any(|s| s.to_bits() == 0.0f64.to_bits()));
    assert!(zeros.iter().any(|s| s.to_bits() == (-0.0f64).to_bits()));
    let wild: Vec<f64> = [0.0, 40.0, 400.0, 4_000.0]
        .iter()
        .flat_map(|&w| scores_at(lineup[3].as_ref(), w))
        .collect();
    for special in [f64::MAX, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(wild.contains(&special), "overflow never scored {special}");
    }
    assert!(wild.iter().any(|s| s.is_finite() && *s != f64::MAX));
}

#[test]
fn on_demand_heads_match_the_reference_on_ties_and_edges() {
    let policies = edge_lineup();
    let compiled: Vec<CompiledPolicy> = policies.iter().map(|p| p.compile().unwrap()).collect();
    let mut most_starts_in_one_pass = 0usize;
    for (trace, cores) in edge_traces() {
        let view = trace.to_view();
        for config in on_demand_configs(cores) {
            let want: Vec<_> = policies
                .iter()
                .map(|p| simulate_reference(&trace, &QueueDiscipline::Policy(p.as_ref()), &config))
                .collect();
            for ((policy, cp), want) in policies.iter().zip(&compiled).zip(&want) {
                let got = simulate(&trace, &QueueDiscipline::Compiled(cp), &config);
                assert_eq!(&got, want, "{}, {config:?}", policy.name());
                let mut starts: Vec<u64> =
                    got.completed.iter().map(|c| c.start.to_bits()).collect();
                starts.sort_unstable();
                let longest = starts.chunk_by(|a, b| a == b).map(<[u64]>::len).max();
                most_starts_in_one_pass = most_starts_in_one_pass.max(longest.unwrap_or(0));
            }
            // The same cells through the pool, at n workers and at one.
            let fanout = || {
                par_map_scoped(&compiled, SimWorkspace::new, |cp, ws| {
                    ws.run_metrics(&view, &QueueDiscipline::Compiled(cp), &config, 10.0)
                })
            };
            let wide = fanout();
            assert_eq!(wide, with_worker_limit(1, fanout), "{config:?}");
            for (got, want) in wide.iter().zip(&want) {
                assert_eq!(got, &SimMetrics::from_result(want, 10.0), "{config:?}");
            }
        }
    }
    assert!(
        most_starts_in_one_pass >= 20,
        "no pass started many jobs at once (most: {most_starts_in_one_pass})"
    );
}

#[test]
fn on_demand_heads_match_the_faulty_oracle_under_requeue_churn() {
    let policies = edge_lineup();
    let mut preemptions = 0u64;
    for (case, (trace, cores)) in edge_traces().into_iter().enumerate() {
        let schedule = FaultProfile::failures(900.0, 400.0, cores / 2, 0xC0FFEE + case as u64)
            .with_max_retries(2)
            .expand(cores, 12_000.0, case as u64);
        for config in on_demand_configs(cores) {
            for policy in &policies {
                let compiled = policy.compile().unwrap();
                let comp = QueueDiscipline::Compiled(&compiled);
                let oracle = simulate_reference_faulty(&trace, &comp, &config, &schedule);
                let fast = simulate_faulty(&trace, &comp, &config, &schedule).unwrap();
                assert_eq!(oracle, fast, "{}, {config:?}", policy.name());
                preemptions += fast.preempted_jobs;
            }
        }
    }
    assert!(
        preemptions > 0,
        "no preemption ever exercised the requeue path"
    );
}
