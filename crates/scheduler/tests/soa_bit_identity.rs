//! Regression proof for the columnar trace layout: a simulation over the
//! SoA columns of a [`TraceView`] must be **bit-identical** to the same
//! simulation over the AoS [`Trace`] it was columnarized from — same
//! completed set in the same order, same makespan, utilization, event and
//! backfill counts — across policies, fixed orders, all three backfill
//! modes, decision modes, and both engine modes (full and metrics-only),
//! at one worker thread and at the pool's natural width.
//!
//! This is the layout half of the trace-store contract (the interning
//! half — distinct keys never share an entry — lives in the workload
//! crate's `store` tests): together they make a store-backed evaluation
//! grid observably indistinguishable from per-cell trace construction.

use dynsched_cluster::{Job, Platform};
use dynsched_policies::paper_lineup;
use dynsched_scheduler::{
    simulate, BackfillMode, QueueDiscipline, SchedulerConfig, SimMetrics, SimWorkspace,
};
use dynsched_simkit::parallel::{par_map_scoped, with_worker_limit};
use dynsched_simkit::Rng;
use dynsched_workload::{Trace, TraceView};

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

#[test]
fn view_simulations_are_bit_identical_to_trace_simulations() {
    let mut rng = Rng::new(0x50A1D);
    let lineup = paper_lineup();
    let mut ws = SimWorkspace::new();
    for case in 0..6u64 {
        let trace = random_trace(&mut rng, 60, 16);
        let view = trace.to_view();
        for config in configs(16) {
            for policy in &lineup {
                let discipline = QueueDiscipline::Policy(policy.as_ref());
                let aos = simulate(&trace, &discipline, &config);
                let soa = simulate(&view, &discipline, &config);
                assert_eq!(aos, soa, "case {case}, {}: layouts diverged", policy.name());
                // Workspace reuse across alternating layouts leaks nothing.
                ws.run(&view, &discipline, &config);
                let reused = ws.result();
                assert_eq!(
                    aos, reused,
                    "case {case}: reused workspace diverged on view"
                );
                // Metrics-only mode agrees too.
                let m_aos = ws.run_metrics(&trace, &discipline, &config, 10.0);
                let m_soa = ws.run_metrics(&view, &discipline, &config, 10.0);
                assert_eq!(m_aos, m_soa, "case {case}: metrics diverged across layouts");
                assert_eq!(m_soa, SimMetrics::from_result(&aos, 10.0));
            }
        }
    }
}

#[test]
fn fixed_order_views_match_trace_runs() {
    let mut rng = Rng::new(0xF17ED);
    for _ in 0..5 {
        let trace = random_trace(&mut rng, 40, 8);
        let view = trace.to_view();
        let mut ranks: Vec<usize> = (0..trace.len()).collect();
        rng.shuffle(&mut ranks);
        let config = SchedulerConfig::actual_runtimes(Platform::new(8));
        let aos = simulate(&trace, &QueueDiscipline::FixedOrder(&ranks), &config);
        let soa = simulate(&view, &QueueDiscipline::FixedOrder(&ranks), &config);
        assert_eq!(aos, soa);
    }
}

/// The store's consumption pattern: many cells share one view's columns
/// across worker threads, each worker holding a reusable workspace. The
/// fanned-out results must equal the sequential per-cell AoS loop at any
/// worker count.
#[test]
fn shared_view_fanout_is_thread_count_independent() {
    let mut rng = Rng::new(0xFA_207);
    let traces: Vec<Trace> = (0..4).map(|_| random_trace(&mut rng, 50, 16)).collect();
    let views: Vec<TraceView> = traces.iter().map(Trace::to_view).collect();
    let lineup = paper_lineup();
    let config = SchedulerConfig::estimates_with_backfilling(Platform::new(16));

    // Cells reference the *same* shared columns per sequence.
    let cells: Vec<(usize, usize)> = (0..lineup.len())
        .flat_map(|p| (0..views.len()).map(move |s| (p, s)))
        .collect();
    let run_fanout = || {
        par_map_scoped(&cells, SimWorkspace::new, |&(p, s), ws| {
            ws.run_metrics(
                &views[s],
                &QueueDiscipline::Policy(lineup[p].as_ref()),
                &config,
                10.0,
            )
        })
    };
    let wide = run_fanout();
    let narrow = with_worker_limit(1, run_fanout);
    assert_eq!(
        wide, narrow,
        "fan-out over shared columns depends on worker count"
    );

    // And both equal the historical per-cell path: a fresh AoS trace
    // simulated per cell.
    for (&(p, s), got) in cells.iter().zip(&wide) {
        let want = SimMetrics::from_result(
            &simulate(
                &traces[s],
                &QueueDiscipline::Policy(lineup[p].as_ref()),
                &config,
            ),
            10.0,
        );
        assert_eq!(
            got, &want,
            "cell ({p}, {s}) diverged from per-cell AoS simulate"
        );
    }
}
