//! Property tests for the post-initial-build extensions: walltime kills
//! and transforms. Cases are generated with the in-tree deterministic RNG
//! (no crates.io access, so no proptest); failures report the case seed
//! that reproduces them.

use dynsched::cluster::{Job, Platform};
use dynsched::policies::Fcfs;
use dynsched::scheduler::{simulate, QueueDiscipline, SchedulerConfig};
use dynsched::simkit::Rng;
use dynsched::workload::transform::{rescale_platform, scale_load};
use dynsched::workload::Trace;

/// Random jobs whose estimates may under- *or* over-shoot the runtime
/// (factor in `[0.2, 3)`).
fn random_jobs(rng: &mut Rng, max_jobs: usize) -> Vec<Job> {
    let n = rng.range_u64(1, max_jobs as u64) as usize;
    (0..n)
        .map(|i| {
            let submit = rng.range_f64(0.0, 5_000.0);
            let runtime = rng.range_f64(1.0, 5_000.0);
            let over = rng.range_f64(0.2, 3.0);
            let cores = rng.range_u64(1, 31) as u32;
            // `over` below 1 produces under-estimates on purpose.
            Job::new(i as u32, submit, runtime, (runtime * over).max(1.0), cores)
        })
        .collect()
}

#[test]
fn kill_mode_schedules_are_legal() {
    for case in 0..48u64 {
        let mut rng = Rng::new(0x1111 ^ case);
        let jobs = random_jobs(&mut rng, 30);
        let mut config = SchedulerConfig::user_estimates(Platform::new(32));
        config.kill_at_estimate = true;
        let trace = Trace::from_jobs(jobs.clone());
        let result = simulate(&trace, &QueueDiscipline::Policy(&Fcfs), &config);
        assert_eq!(result.completed.len(), jobs.len(), "case {case}");
        for c in &result.completed {
            // Executed exactly min(runtime, estimate); killed flag agrees.
            let expect = c.job.runtime.min(c.job.estimate);
            assert!((c.executed() - expect).abs() < 1e-9, "case {case}");
            assert_eq!(
                c.was_killed(),
                c.job.estimate < c.job.runtime - 1e-9,
                "case {case}"
            );
            assert!(c.bounded_slowdown(10.0) >= 1.0, "case {case}");
        }
    }
}

#[test]
fn scale_load_preserves_job_multiset() {
    for case in 0..48u64 {
        let mut rng = Rng::new(0x3333 ^ case);
        let jobs = random_jobs(&mut rng, 25);
        let factor = rng.range_f64(0.25, 4.0);
        let trace = Trace::from_jobs(jobs);
        let scaled = scale_load(&trace, factor);
        assert_eq!(scaled.len(), trace.len(), "case {case}");
        for (a, b) in trace.jobs().iter().zip(scaled.jobs()) {
            assert_eq!(a.runtime, b.runtime, "case {case}");
            assert_eq!(a.cores, b.cores, "case {case}");
            assert_eq!(a.estimate, b.estimate, "case {case}");
        }
        // Round-tripping the factor restores submit times.
        let back = scale_load(&scaled, 1.0 / factor);
        for (a, b) in trace.jobs().iter().zip(back.jobs()) {
            assert!(
                (a.submit - b.submit).abs() < 1e-6 * a.submit.max(1.0),
                "case {case}"
            );
        }
    }
}

#[test]
fn rescale_platform_respects_bounds() {
    for case in 0..48u64 {
        let mut rng = Rng::new(0x4444 ^ case);
        let jobs = random_jobs(&mut rng, 25);
        let to_cores = rng.range_u64(2, 511) as u32;
        let trace = Trace::from_jobs(jobs);
        let rescaled = rescale_platform(&trace, 32, to_cores);
        for j in rescaled.jobs() {
            assert!(j.cores >= 1 && j.cores <= to_cores, "case {case}");
        }
        // Serial jobs stay serial.
        for (a, b) in trace.jobs().iter().zip(rescaled.jobs()) {
            if a.cores == 1 {
                assert_eq!(b.cores, 1, "case {case}");
            }
        }
    }
}
