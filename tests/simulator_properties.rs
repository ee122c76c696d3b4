//! Property-based tests of the scheduling substrate.
//!
//! These check the substrate's invariants on randomly generated
//! workloads: schedule legality (no early starts, exact runtimes, full
//! completion), metric bounds, score-distribution normalization, SWF and
//! expression round-trips. Cases are generated with the in-tree
//! deterministic RNG (the build has no crates.io access, so no proptest);
//! every failure reports the case seed, which reproduces it exactly.

use dynsched::cluster::{Job, Platform, DEFAULT_TAU};
use dynsched::policies::{paper_lineup, ExprPolicy, Policy, TaskView};
use dynsched::scheduler::{simulate, BackfillMode, QueueDiscipline, SchedulerConfig};
use dynsched::simkit::Rng;
use dynsched::workload::{parse_swf_trace, write_swf_trace, Trace};

/// A small random rigid-job trace that fits a 32-core machine. Estimates
/// are over-estimates (factor in `[1, 3)`).
fn random_jobs(rng: &mut Rng, max_jobs: usize) -> Vec<Job> {
    let n = rng.range_u64(1, max_jobs as u64) as usize;
    (0..n)
        .map(|i| {
            let submit = rng.range_f64(0.0, 5_000.0);
            let runtime = rng.range_f64(1.0, 5_000.0);
            let over = rng.range_f64(1.0, 3.0);
            let cores = rng.range_u64(1, 31) as u32;
            Job::new(i as u32, submit, runtime, runtime * over, cores)
        })
        .collect()
}

#[test]
fn schedule_is_legal_under_every_policy_and_backfill_mode() {
    let lineup = paper_lineup();
    let modes = [
        BackfillMode::None,
        BackfillMode::Aggressive,
        BackfillMode::Conservative,
    ];
    for case in 0..64u64 {
        let mut rng = Rng::new(0xA11CE ^ case);
        let jobs = random_jobs(&mut rng, 40);
        let policy = &lineup[rng.next_below(lineup.len() as u64) as usize];
        let backfill = modes[rng.next_below(3) as usize];
        let mut config = SchedulerConfig::user_estimates(Platform::new(32));
        config.backfill = backfill;
        let trace = Trace::from_jobs(jobs.clone());
        let result = simulate(&trace, &QueueDiscipline::Policy(policy.as_ref()), &config);

        // Everything completes, exactly once.
        assert_eq!(result.completed.len(), jobs.len(), "case {case}");
        let mut seen: Vec<u32> = result.completed.iter().map(|c| c.job.id).collect();
        seen.sort_unstable();
        let mut expect: Vec<u32> = jobs.iter().map(|j| j.id).collect();
        expect.sort_unstable();
        assert_eq!(seen, expect, "case {case}");

        for c in &result.completed {
            // Causality and exact execution.
            assert!(c.start >= c.job.submit, "case {case}: early start");
            assert!(
                (c.finish - (c.start + c.job.runtime)).abs() < 1e-9,
                "case {case}: inexact execution"
            );
            // Metric bound.
            assert!(c.bounded_slowdown(DEFAULT_TAU) >= 1.0, "case {case}");
        }
        // Utilization is a proper fraction.
        assert!(
            result.utilization >= 0.0 && result.utilization <= 1.0 + 1e-9,
            "case {case}: utilization {}",
            result.utilization
        );
    }
}

#[test]
fn cores_never_oversubscribed() {
    let lineup = paper_lineup();
    for case in 0..64u64 {
        let mut rng = Rng::new(0xB0B ^ case);
        let jobs = random_jobs(&mut rng, 30);
        // Replay the completed schedule and integrate core usage at every
        // start/finish instant.
        let trace = Trace::from_jobs(jobs);
        let config = SchedulerConfig::estimates_with_backfilling(Platform::new(32));
        let result = simulate(
            &trace,
            &QueueDiscipline::Policy(lineup[7].as_ref()),
            &config,
        );
        let mut events: Vec<(f64, i64)> = Vec::new();
        for c in &result.completed {
            events.push((c.start, c.job.cores as i64));
            events.push((c.finish, -(c.job.cores as i64)));
        }
        // Releases before grants at equal timestamps.
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut used = 0i64;
        for (_, delta) in events {
            used += delta;
            assert!(
                used <= 32,
                "case {case}: oversubscribed, {used} cores in use"
            );
            assert!(used >= 0, "case {case}");
        }
    }
}

#[test]
fn policy_scores_are_total_orderable() {
    for case in 0..256u64 {
        let mut rng = Rng::new(0xCAFE ^ case);
        let r = rng.range_f64(0.0, 1e7);
        let n = rng.range_u64(1, 99_999) as u32;
        let s = rng.range_f64(0.0, 1e7);
        let dt = rng.range_f64(0.0, 1e6);
        let view = TaskView {
            processing_time: r,
            cores: n,
            submit: s,
            now: s + dt,
        };
        for p in paper_lineup() {
            let score = p.score(&view);
            assert!(
                !score.is_nan(),
                "{} produced NaN at r={r} n={n} s={s}",
                p.name()
            );
        }
    }
}

#[test]
fn swf_roundtrip_preserves_jobs() {
    for case in 0..64u64 {
        let mut rng = Rng::new(0xD00D ^ case);
        let jobs = random_jobs(&mut rng, 25);
        // SWF stores integral seconds for runtimes we format as %.2f;
        // restrict to jobs with 2-decimal-representable times by rounding.
        let rounded: Vec<Job> = jobs
            .into_iter()
            .map(|j| {
                Job::new(
                    j.id,
                    (j.submit * 100.0).round() / 100.0,
                    (j.runtime * 100.0).round() / 100.0,
                    (j.estimate * 100.0).round() / 100.0,
                    j.cores,
                )
            })
            .collect();
        let trace = Trace::from_jobs(rounded);
        let text = write_swf_trace(&trace, 32);
        let back = parse_swf_trace(&text).unwrap();
        assert_eq!(back.len(), trace.len(), "case {case}");
        for (a, b) in trace.jobs().iter().zip(back.jobs()) {
            assert!((a.submit - b.submit).abs() < 0.011, "case {case}");
            assert!((a.runtime - b.runtime).abs() < 0.011, "case {case}");
            assert!((a.estimate - b.estimate).abs() < 0.011, "case {case}");
            assert_eq!(a.cores, b.cores, "case {case}");
        }
    }
}

#[test]
fn expression_print_parse_is_identity_on_random_views() {
    let sources = [
        "log10(r)*n + 870*log10(s)",
        "sqrt(r)*n - inv(s + 1)",
        "r / (n + 1) + s / 86400",
        "-(w/r)^3 * n",
    ];
    for case in 0..64u64 {
        let mut rng = Rng::new(0xE44 ^ case);
        let r = rng.range_f64(0.0, 1e6);
        let n = rng.range_u64(1, 4_095) as u32;
        let s = rng.range_f64(0.0, 1e6);
        let view = TaskView {
            processing_time: r,
            cores: n,
            submit: s,
            now: s + 50.0,
        };
        for src in sources {
            let p1 = ExprPolicy::parse("a", src).unwrap();
            let printed = p1.expr().to_string();
            let p2 = ExprPolicy::parse("b", &printed).unwrap();
            let (v1, v2) = (p1.score(&view), p2.score(&view));
            assert!(
                (v1 - v2).abs() <= 1e-9 * v1.abs().max(1.0),
                "case {case}: {src} -> {printed}: {v1} vs {v2}"
            );
        }
    }
}

#[test]
fn trial_scores_always_sum_to_one() {
    // Deterministic variant of the normalization property over several
    // random tuples (driving the full trial machinery per case is too slow).
    use dynsched::core::trials::{trial_scores, TrialSpec};
    use dynsched::core::tuples::{TaskTuple, TupleSpec};
    use dynsched::workload::LublinModel;

    let model = LublinModel::new(64);
    let spec = TupleSpec {
        s_size: 4,
        q_size: 8,
        max_start_offset: 40_000.0,
    };
    let trial_spec = TrialSpec {
        trials: 96,
        platform: Platform::new(64),
        tau: DEFAULT_TAU,
    };
    for seed in 0..8u64 {
        let tuple = TaskTuple::generate(&spec, &model, &mut Rng::new(seed));
        let scores = trial_scores(&tuple, &trial_spec, &Rng::new(seed ^ 0xABCD));
        assert!(
            (scores.total() - 1.0).abs() < 1e-9,
            "seed {seed}: {}",
            scores.total()
        );
        assert!(scores.scores.iter().all(|&s| s >= 0.0));
    }
}
