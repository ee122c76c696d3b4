//! Regression proof for the zero-allocation engine: [`simulate`] /
//! [`SimWorkspace::run`] must produce **bit-identical** [`SimulationResult`]s
//! to the original allocation-per-call engine preserved in
//! `dynsched_scheduler::reference` — same completed set in the same order,
//! same makespan, utilization, event count, and backfill count — across
//! policies, fixed orders, all three backfill modes, decision modes, and
//! walltime enforcement, with one workspace reused
//! across every case.

use dynsched_cluster::{Job, Platform};
use dynsched_policies::paper_lineup;
use dynsched_scheduler::reference::{reference_metrics, simulate_reference};
use dynsched_scheduler::{
    simulate, BackfillMode, QueueDiscipline, SchedulerConfig, SimMetrics, SimWorkspace,
};
use dynsched_simkit::Rng;
use dynsched_workload::Trace;

/// Random jobs with continuous times and *over*-estimates only (factor in
/// `[1, 3)`): no two expected ends coincide and no running job is ever
/// overdue. Equal and overdue expected ends — where the order the
/// releases are walked in decides classic EASY's `spare` — are the
/// subject of [`equal_and_overdue_expected_ends_are_ordered_by_trace_index`].
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
    for base in [
        SchedulerConfig::actual_runtimes(Platform::new(cores)),
        SchedulerConfig::user_estimates(Platform::new(cores)),
    ] {
        for backfill in [
            BackfillMode::None,
            BackfillMode::Aggressive,
            BackfillMode::Conservative,
        ] {
            for kill in [false, true] {
                let mut c = base;
                c.backfill = backfill;
                c.kill_at_estimate = kill;
                out.push(c);
            }
        }
    }
    out
}

#[test]
fn fast_path_matches_reference_for_policies() {
    let lineup = paper_lineup();
    let mut ws = SimWorkspace::new();
    let mut rng = Rng::new(0x5EED);
    let mut cases = 0usize;
    for round in 0..6 {
        let trace = random_trace(&mut rng, 30, 32);
        for config in configs(32) {
            // Rotate through the line-up instead of the full cross product
            // to keep the test fast while covering every policy.
            let policy = &lineup[(round + cases) % lineup.len()];
            let discipline = QueueDiscipline::Policy(policy.as_ref());
            let want = simulate_reference(&trace, &discipline, &config);
            ws.run(&trace, &discipline, &config);
            let got = ws.result();
            assert_eq!(
                got,
                want,
                "round {round}, policy {}, config {config:?}",
                policy.name()
            );
            cases += 1;
        }
    }
    assert_eq!(cases, 6 * 12, "cross product shrank unexpectedly");
}

#[test]
fn fast_path_matches_reference_for_fixed_orders() {
    let mut ws = SimWorkspace::new();
    let mut rng = Rng::new(0xF17ED);
    for round in 0..8u32 {
        let trace = random_trace(&mut rng, 24, 16);
        let ranks = rng.permutation(trace.len());
        let discipline = QueueDiscipline::FixedOrder(&ranks);
        for config in configs(16) {
            let want = simulate_reference(&trace, &discipline, &config);
            ws.run(&trace, &discipline, &config);
            let got = ws.result();
            assert_eq!(got, want, "round {round}, config {config:?}");
        }
    }
}

#[test]
fn metrics_mode_matches_reference_reduction() {
    // The streaming metrics path must reproduce, bit for bit, the metric
    // values obtained by running the *reference* engine and reducing its
    // materialized result — and the full fast path reduced after the fact.
    let lineup = paper_lineup();
    let mut ws = SimWorkspace::new();
    let mut rng = Rng::new(0x3E721C5);
    let tau = 10.0;
    for round in 0..6 {
        let trace = random_trace(&mut rng, 30, 32);
        for (k, config) in configs(32).iter().enumerate() {
            let policy = &lineup[(round + k) % lineup.len()];
            let discipline = QueueDiscipline::Policy(policy.as_ref());
            let want = reference_metrics(&trace, &discipline, config, tau);
            let got = ws.run_metrics(&trace, &discipline, config, tau);
            assert_eq!(
                got,
                want,
                "round {round}, policy {}, config {config:?}",
                policy.name()
            );
            ws.run(&trace, &discipline, config);
            let full = SimMetrics::from_result(&ws.result(), tau);
            assert_eq!(got, full, "streaming vs materialized reduction diverged");
            assert_eq!(got.avg_bounded_slowdown(), full.avg_bounded_slowdown());
        }
    }
}

#[test]
fn metrics_mode_matches_reference_for_fixed_orders() {
    let mut ws = SimWorkspace::new();
    let mut rng = Rng::new(0xF1F2F3);
    for round in 0..6u32 {
        let trace = random_trace(&mut rng, 24, 16);
        let ranks = rng.permutation(trace.len());
        let discipline = QueueDiscipline::FixedOrder(&ranks);
        for config in configs(16) {
            let want = reference_metrics(&trace, &discipline, &config, 10.0);
            let got = ws.run_metrics(&trace, &discipline, &config, 10.0);
            assert_eq!(got, want, "round {round}, config {config:?}");
        }
    }
}

#[test]
fn noop_reschedule_skip_matches_reference_under_saturation() {
    // Traces engineered to hammer the BackfillMode::None fast path: a wide
    // head blocks the machine while a burst of narrow jobs arrives behind
    // it. Every arrival that sorts behind the blocked head must leave the
    // schedule untouched — the skipped pass is proven a no-op by diffing
    // the whole run against the reference engine, per policy and per
    // fixed order.
    let lineup = paper_lineup();
    let mut ws = SimWorkspace::new();
    let mut rng = Rng::new(0xB10C7ED);
    for round in 0..8 {
        let wide = Job::new(0, 0.0, 3_000.0, 3_000.0, 16); // holds the machine
        let mut jobs = vec![wide];
        for i in 1..40u32 {
            let submit = rng.range_f64(1.0, 2_500.0);
            let runtime = rng.range_f64(1.0, 500.0);
            let cores = rng.range_u64(1, 4) as u32;
            jobs.push(Job::new(i, submit, runtime, runtime * 1.5, cores));
        }
        let trace = Trace::from_jobs(jobs);
        let mut config = SchedulerConfig::actual_runtimes(Platform::new(16));
        config.backfill = BackfillMode::None;
        for policy in &lineup {
            let discipline = QueueDiscipline::Policy(policy.as_ref());
            let want = simulate_reference(&trace, &discipline, &config);
            ws.run(&trace, &discipline, &config);
            let got = ws.result();
            assert_eq!(got, want, "round {round}, policy {}", policy.name());
        }
        let ranks = rng.permutation(trace.len());
        let discipline = QueueDiscipline::FixedOrder(&ranks);
        let want = simulate_reference(&trace, &discipline, &config);
        ws.run(&trace, &discipline, &config);
        let got = ws.result();
        assert_eq!(got, want, "round {round}, fixed order");
    }
}

#[test]
fn one_shot_simulate_equals_workspace_reuse() {
    // The public wrapper and the reusable-workspace path must agree even
    // after the workspace has seen many differently-shaped runs.
    let mut ws = SimWorkspace::new();
    let mut rng = Rng::new(42);
    let lineup = paper_lineup();
    for round in 0..10 {
        let trace = random_trace(&mut rng, 40, 32);
        let config = SchedulerConfig::estimates_with_backfilling(Platform::new(32));
        let policy = &lineup[round % lineup.len()];
        let discipline = QueueDiscipline::Policy(policy.as_ref());
        let fresh = simulate(&trace, &discipline, &config);
        ws.run(&trace, &discipline, &config);
        let reused = ws.result();
        assert_eq!(fresh, reused, "round {round}");
    }
}

/// Whole-second times, estimates drawn from three modal values, arrivals
/// in same-instant waves: many running jobs share one expected end, and
/// the under-estimated half overruns it, so several overdue jobs clamp to
/// the same instant.
fn modal_trace(rng: &mut Rng, cores: u32) -> Trace {
    let mut jobs = Vec::new();
    for wave in 0..12u32 {
        let submit = wave as f64 * 400.0;
        for _ in 0..rng.range_u64(3, 9) {
            let estimate = [600.0, 1_800.0, 3_600.0][rng.range_u64(0, 2) as usize];
            let runtime = (estimate * rng.range_f64(0.2, 1.6)).round().max(1.0);
            let width = rng.range_u64(1, cores as u64 / 2) as u32;
            let id = jobs.len() as u32;
            jobs.push(Job::new(id, submit, runtime, estimate, width));
        }
    }
    Trace::from_jobs(jobs)
}

#[test]
fn equal_and_overdue_expected_ends_are_ordered_by_trace_index() {
    // The reference keeps its running set in a `HashMap`, and every map
    // hashes with its own keys: two runs in one process iterate it in
    // different orders. Sorting the releases by (clamped end, raw end,
    // trace index) must make that invisible — reference == reference —
    // and must be the order the engine walks its maintained list in.
    let lineup = paper_lineup();
    let mut ws = SimWorkspace::new();
    let mut rng = Rng::new(0x40DA1);
    for round in 0..4 {
        let trace = modal_trace(&mut rng, 16);
        for config in configs(16) {
            if config.backfill == BackfillMode::None {
                continue; // never reads the releases
            }
            for policy in &lineup {
                let discipline = QueueDiscipline::Policy(policy.as_ref());
                let want = simulate_reference(&trace, &discipline, &config);
                let again = simulate_reference(&trace, &discipline, &config);
                assert_eq!(
                    want,
                    again,
                    "round {round}, policy {}, config {config:?}: the reference disagrees with itself",
                    policy.name()
                );
                ws.run(&trace, &discipline, &config);
                let got = ws.result();
                assert_eq!(
                    got,
                    want,
                    "round {round}, policy {}, config {config:?}",
                    policy.name()
                );
            }
        }
    }
}
