//! Regression proof for the compiled-policy kernels: a simulation driven
//! by [`QueueDiscipline::Compiled`] (bytecode prefix lanes + batch queue
//! re-scoring) must be **bit-identical** to the same simulation driven by
//! the interpreted [`QueueDiscipline::Policy`] path — same completed set
//! in the same order, same makespan, utilization, event and backfill
//! counts — across every built-in policy (time-dependent and static),
//! all three backfill modes, both decision modes, both engine modes (full
//! and metrics-only), both trace layouts, and at one worker thread and
//! the pool's natural width. The reference engine (which scores compiled
//! disciplines one task at a time, never through the batch kernel) must
//! agree as well.

use dynsched_cluster::{Job, Platform};
use dynsched_policies::{
    paper_lineup, CompiledPolicy, ExprPolicy, MultiFactor, Policy, Unicef, Wfp3,
};
use dynsched_scheduler::reference::simulate_reference;
use dynsched_scheduler::{
    simulate, BackfillMode, QueueDiscipline, SchedulerConfig, SimMetrics, SimWorkspace,
};
use dynsched_simkit::parallel::{par_map_scoped, with_worker_limit};
use dynsched_simkit::Rng;
use dynsched_workload::Trace;

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

/// A policy mix covering every residual shape: static learned functions
/// (whole program hoisted into one slot), aging baselines (raw-op
/// residuals), the multifactor sum, and a wait-dependent learned-style
/// expression (mixed slot + `w` residual).
fn lineup() -> Vec<Box<dyn Policy>> {
    let mut policies = paper_lineup();
    policies.push(Box::new(MultiFactor::default().for_platform(16)));
    policies.push(Box::new(
        ExprPolicy::parse("G1-aging", "log10(r)*n + 8.70e2*log10(s) - 1.5e-2*w").unwrap(),
    ));
    policies.push(Box::new(
        ExprPolicy::parse("ratio-aging", "-((w / (r + 1)) ^ 2) * sqrt(n)").unwrap(),
    ));
    policies
}

#[test]
fn compiled_simulations_are_bit_identical_to_interpreted() {
    let mut rng = Rng::new(0xC0DE5);
    let policies = lineup();
    let mut ws = SimWorkspace::new();
    for case in 0..5u64 {
        let trace = random_trace(&mut rng, 50, 16);
        let view = trace.to_view();
        for config in configs(16) {
            for policy in &policies {
                let compiled = policy.compile().expect("built-ins all compile");
                assert_eq!(compiled.time_dependent(), policy.time_dependent());
                let interp = QueueDiscipline::Policy(policy.as_ref());
                let comp = QueueDiscipline::Compiled(&compiled);
                let a = simulate(&trace, &interp, &config);
                let b = simulate(&trace, &comp, &config);
                assert_eq!(a, b, "case {case}, {}: compiled diverged", policy.name());
                // Columnar layout and workspace reuse change nothing.
                ws.run(&view, &comp, &config);
                let b_view = ws.result();
                assert_eq!(a, b_view, "case {case}, {}: SoA", policy.name());
                // Metrics-only streaming over the compiled path agrees.
                let m = ws.run_metrics(&view, &comp, &config, 10.0);
                assert_eq!(m, SimMetrics::from_result(&a, 10.0));
                // The oracle (scalar per-task scoring, no batch kernel)
                // agrees with both.
                let r = simulate_reference(&trace, &comp, &config);
                assert_eq!(a, r, "case {case}, {}: reference", policy.name());
            }
        }
    }
}

#[test]
fn interleaving_compiled_and_interpreted_runs_leaks_nothing() {
    // One workspace alternating disciplines and policies: the compiled
    // lanes must be rebuilt per run, never bleed into the next.
    let mut rng = Rng::new(0x1EAF);
    let aging = ExprPolicy::parse("aging", "sqrt(r)*n + 2.56e4*log10(s) - w").unwrap();
    let compiled_aging = aging.compile().unwrap();
    let wfp = Wfp3;
    let compiled_wfp = wfp.compile().unwrap();
    let mut ws = SimWorkspace::new();
    for i in 0..6 {
        let trace = random_trace(&mut rng, 40, 8);
        let mut config = SchedulerConfig::actual_runtimes(Platform::new(8));
        if i % 2 == 0 {
            config.backfill = BackfillMode::Aggressive;
        }
        ws.run(&trace, &QueueDiscipline::Compiled(&compiled_aging), &config);
        let a1 = ws.result();
        let a2 = simulate(&trace, &QueueDiscipline::Policy(&aging), &config);
        assert_eq!(a1, a2, "run {i}: aging");
        ws.run(&trace, &QueueDiscipline::Compiled(&compiled_wfp), &config);
        let w1 = ws.result();
        let w2 = simulate(&trace, &QueueDiscipline::Policy(&wfp), &config);
        assert_eq!(w1, w2, "run {i}: wfp3");
    }
}

#[test]
fn compiled_fanout_is_thread_count_independent() {
    // The session consumption pattern: cells share compiled programs
    // across worker threads, each worker holding a reusable workspace.
    // Results must equal the sequential interpreted loop at any width.
    let mut rng = Rng::new(0xFA_C0DE);
    let traces: Vec<Trace> = (0..3).map(|_| random_trace(&mut rng, 45, 16)).collect();
    let views: Vec<_> = traces.iter().map(Trace::to_view).collect();
    let policies = lineup();
    let compiled: Vec<CompiledPolicy> = policies.iter().map(|p| p.compile().unwrap()).collect();

    for config in configs(16) {
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
        assert_eq!(wide, narrow, "compiled fan-out depends on worker count");
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

#[test]
fn unicef_and_multifactor_raw_ops_stay_exact() {
    // The two policies whose interpreted form uses *unguarded* float ops;
    // spot-check degenerate shapes (zero runtimes via max-guards, serial
    // jobs, ancient waits) end to end.
    let jobs = vec![
        Job::new(0, 0.0, 0.5, 1.0, 1),
        Job::new(1, 0.0, 3_000.0, 9_000.0, 8),
        Job::new(2, 1.0, 10.0, 10.0, 8),
        Job::new(3, 1.0, 0.0, 1.0, 1),
        Job::new(4, 2.0, 500.0, 400.0, 4),
        Job::new(5, 2.0, 500.0, 400.0, 4),
    ];
    let trace = Trace::from_jobs(jobs);
    let policies: Vec<Box<dyn Policy>> = vec![
        Box::new(Unicef),
        Box::new(MultiFactor::default().for_platform(8)),
    ];
    for config in configs(8) {
        for policy in &policies {
            let compiled = policy.compile().unwrap();
            let a = simulate(&trace, &QueueDiscipline::Policy(policy.as_ref()), &config);
            let b = simulate(&trace, &QueueDiscipline::Compiled(&compiled), &config);
            assert_eq!(a, b, "{}", policy.name());
        }
    }
}
