//! Rigid parallel jobs ("tasks" in the paper's terminology).
//!
//! A job carries exactly the data the paper assumes available in Standard
//! Workload Format traces (§3.1): user-estimated processing time `e`,
//! actual processing time `r` (known only after execution), resource
//! requirement `n` (cores), and arrival time `s`.

use dynsched_simkit::Time;

/// Identifier of a job, unique within one workload/trace.
pub type JobId = u32;

/// A rigid parallel job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Identifier, unique within its workload.
    pub id: JobId,
    /// Arrival (submit/release) time `s`, seconds from workload start.
    pub submit: Time,
    /// Actual processing time `r`, seconds. Only the simulator may use this
    /// to decide when the job finishes; schedulers see it only in
    /// "actual runtime" decision mode.
    pub runtime: Time,
    /// User-provided processing-time estimate `e`, seconds.
    pub estimate: Time,
    /// Number of cores `n` the job needs for its whole lifetime.
    pub cores: u32,
}

impl Job {
    /// Construct a job, validating the paper's assumptions (positive size,
    /// non-negative times).
    ///
    /// # Panics
    /// Panics if `cores == 0`, any time is negative/NaN, or `runtime`/
    /// `estimate` is non-finite.
    pub fn new(id: JobId, submit: Time, runtime: Time, estimate: Time, cores: u32) -> Self {
        assert!(cores > 0, "job {id}: a rigid job uses at least one core");
        assert!(
            submit.is_finite() && submit >= 0.0,
            "job {id}: bad submit time {submit}"
        );
        assert!(
            runtime.is_finite() && runtime >= 0.0,
            "job {id}: bad runtime {runtime}"
        );
        assert!(
            estimate.is_finite() && estimate >= 0.0,
            "job {id}: bad estimate {estimate}"
        );
        Self {
            id,
            submit,
            runtime,
            estimate,
            cores,
        }
    }

    /// Core-seconds of real work (`r · n`), the "area" of the job.
    pub fn area(&self) -> f64 {
        self.runtime * self.cores as f64
    }
}

/// Outcome of one job's simulated execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedJob {
    /// The job that ran.
    pub job: Job,
    /// Time execution began.
    pub start: Time,
    /// Time execution finished (`start + job.runtime`).
    pub finish: Time,
}

impl CompletedJob {
    /// Waiting time `w = start - submit`.
    pub fn wait(&self) -> Time {
        self.start - self.job.submit
    }

    /// Time the job actually occupied the machine. Equals `job.runtime`
    /// unless the scheduler killed the job at its estimate (walltime
    /// enforcement).
    pub fn executed(&self) -> Time {
        self.finish - self.start
    }

    /// Whether the job was cut short (executed less than its runtime, i.e.
    /// killed at its walltime).
    pub fn was_killed(&self) -> bool {
        self.executed() < self.job.runtime - 1e-9
    }

    /// Bounded slowdown (Eq. 1) with threshold `tau`, over the time the
    /// job actually executed.
    pub fn bounded_slowdown(&self, tau: f64) -> f64 {
        bounded_slowdown(self.wait(), self.executed(), tau)
    }
}

/// The paper's default bounded-slowdown threshold τ = 10 s.
pub const DEFAULT_TAU: f64 = 10.0;

/// Bounded slowdown of a job with waiting time `wait` and actual runtime
/// `runtime` (Eq. 1):
///
/// ```text
/// bsld = max( (w + r) / max(r, τ), 1 )
/// ```
///
/// τ prevents very short jobs from reporting astronomically large
/// slowdowns.
pub fn bounded_slowdown(wait: Time, runtime: Time, tau: f64) -> f64 {
    debug_assert!(wait >= 0.0, "negative wait {wait}");
    debug_assert!(tau > 0.0, "tau must be positive");
    ((wait + runtime) / runtime.max(tau)).max(1.0)
}

/// Average bounded slowdown over a set of completed jobs (Eq. 2).
/// Returns `None` for an empty set.
pub fn average_bounded_slowdown(jobs: &[CompletedJob], tau: f64) -> Option<f64> {
    if jobs.is_empty() {
        return None;
    }
    Some(jobs.iter().map(|j| j.bounded_slowdown(tau)).sum::<f64>() / jobs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completed(submit: Time, start: Time, runtime: Time) -> CompletedJob {
        let job = Job::new(0, submit, runtime, runtime, 1);
        CompletedJob {
            job,
            start,
            finish: start + runtime,
        }
    }

    #[test]
    fn bsld_is_at_least_one() {
        // Job that starts instantly: slowdown exactly 1.
        assert_eq!(bounded_slowdown(0.0, 100.0, DEFAULT_TAU), 1.0);
        // Short job with zero wait is clamped to 1 even though r < tau.
        assert_eq!(bounded_slowdown(0.0, 1.0, DEFAULT_TAU), 1.0);
    }

    #[test]
    fn bsld_matches_hand_computation() {
        // w=90, r=10, tau=10 -> (90+10)/10 = 10.
        assert_eq!(bounded_slowdown(90.0, 10.0, DEFAULT_TAU), 10.0);
        // w=90, r=1, tau=10 -> (90+1)/10 = 9.1 (bounded by tau).
        assert!((bounded_slowdown(90.0, 1.0, DEFAULT_TAU) - 9.1).abs() < 1e-12);
        // w=90, r=100 -> (90+100)/100 = 1.9.
        assert!((bounded_slowdown(90.0, 100.0, DEFAULT_TAU) - 1.9).abs() < 1e-12);
    }

    #[test]
    fn tau_protects_tiny_jobs() {
        // A 0.1 s job waiting 100 s: plain slowdown would be 1001;
        // bounded slowdown is (100.1)/10 ≈ 10.
        let b = bounded_slowdown(100.0, 0.1, DEFAULT_TAU);
        assert!((b - 10.01).abs() < 1e-9);
    }

    #[test]
    fn completed_job_accessors() {
        let c = completed(5.0, 15.0, 20.0);
        assert_eq!(c.wait(), 10.0);
        assert!((c.bounded_slowdown(10.0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn average_bsld() {
        let xs = vec![completed(0.0, 0.0, 50.0), completed(0.0, 50.0, 50.0)];
        // bslds: 1.0 and 2.0.
        assert_eq!(average_bounded_slowdown(&xs, DEFAULT_TAU), Some(1.5));
        assert_eq!(average_bounded_slowdown(&[], DEFAULT_TAU), None);
    }

    #[test]
    fn job_area() {
        let j = Job::new(1, 0.0, 100.0, 120.0, 8);
        assert_eq!(j.area(), 800.0);
    }

    #[test]
    #[should_panic]
    fn zero_core_job_rejected() {
        Job::new(1, 0.0, 10.0, 10.0, 0);
    }

    #[test]
    #[should_panic]
    fn negative_submit_rejected() {
        Job::new(1, -1.0, 10.0, 10.0, 1);
    }
}
