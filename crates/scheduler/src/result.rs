//! Outcome of one simulated schedule.

use dynsched_cluster::{average_bounded_slowdown, AbandonedJob, CompletedJob, JobId};
use std::collections::HashMap;

/// Everything the evaluation harness needs from one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationResult {
    /// Completed jobs, in completion order.
    pub completed: Vec<CompletedJob>,
    /// Time the last job finished.
    pub makespan: f64,
    /// Mean platform utilization over `[0, makespan]`.
    pub utilization: f64,
    /// Number of scheduling events processed (arrivals + completions +
    /// capacity steps under fault injection).
    pub events_processed: u64,
    /// Jobs started by the backfilling pass rather than the strict pass.
    pub backfilled_jobs: u64,
    /// Preemptions (kill-and-requeue events); zero in a zero-fault run.
    pub preempted_jobs: u64,
    /// Core-seconds of work destroyed by preemptions (elapsed time of each
    /// killed attempt × its width); goodput is the busy integral minus this.
    pub lost_core_seconds: f64,
    /// Jobs abandoned after exhausting their retry cap (or stranded by a
    /// schedule that never restores enough capacity), in abandonment order.
    pub abandoned: Vec<AbandonedJob>,
}

impl SimulationResult {
    /// Average bounded slowdown (Eq. 2) over all completed jobs.
    /// Returns `None` if nothing completed.
    pub fn avg_bounded_slowdown(&self, tau: f64) -> Option<f64> {
        average_bounded_slowdown(&self.completed, tau)
    }

    /// Average bounded slowdown restricted to the job ids in `ids`
    /// (the training pipeline scores only the tasks of `Q`, not the warmup
    /// set `S`). Returns `None` if no listed job completed.
    pub fn avg_bounded_slowdown_of(&self, ids: &dyn Fn(JobId) -> bool, tau: f64) -> Option<f64> {
        let subset: Vec<CompletedJob> = self
            .completed
            .iter()
            .filter(|c| ids(c.job.id))
            .copied()
            .collect();
        average_bounded_slowdown(&subset, tau)
    }

    /// Completed jobs indexed by id.
    pub fn by_id(&self) -> HashMap<JobId, CompletedJob> {
        self.completed.iter().map(|c| (c.job.id, *c)).collect()
    }

    /// Mean waiting time over completed jobs (`None` if empty).
    pub fn mean_wait(&self) -> Option<f64> {
        if self.completed.is_empty() {
            return None;
        }
        Some(
            self.completed.iter().map(CompletedJob::wait).sum::<f64>()
                / self.completed.len() as f64,
        )
    }
}

/// Streaming reduction of one simulation run: everything the evaluation
/// layer keeps from a cell, without the per-job completion list.
///
/// The engine's metrics-only mode
/// ([`SimWorkspace::run_metrics`](crate::SimWorkspace::run_metrics)) feeds
/// completion events into [`SimMetrics::push`] as they happen — in
/// completion order, the same order [`SimulationResult`] stores jobs — so
/// the accumulated sums are **bit-identical** to materializing a full
/// result and reducing it afterwards ([`SimMetrics::from_result`] is that
/// reduction, and the `differential` harness diffs the two). τ is fixed at
/// construction because the bounded-slowdown sum depends on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMetrics {
    /// Bounded-slowdown threshold the sum was accumulated under.
    pub tau: f64,
    /// Σ bounded slowdown over completed jobs, in completion order.
    pub bsld_sum: f64,
    /// Number of completed jobs.
    pub completed_jobs: u64,
    /// Jobs started by the backfilling pass rather than the strict pass.
    pub backfilled_jobs: u64,
    /// Time the last job finished (0 when nothing completed).
    pub makespan: f64,
    /// Preemptions (kill-and-requeue events); zero in a zero-fault run.
    pub preempted_jobs: u64,
    /// Jobs abandoned after exhausting their retry cap. The AVEbsld sum
    /// covers completed jobs only — an abandoned job never finishes.
    pub abandoned_jobs: u64,
    /// Core-seconds of work destroyed by preemptions.
    pub lost_core_seconds: f64,
}

impl SimMetrics {
    /// An empty accumulator for threshold `tau`.
    pub fn new(tau: f64) -> Self {
        Self {
            tau,
            bsld_sum: 0.0,
            completed_jobs: 0,
            backfilled_jobs: 0,
            makespan: 0.0,
            preempted_jobs: 0,
            abandoned_jobs: 0,
            lost_core_seconds: 0.0,
        }
    }

    /// Fold one completion event into the accumulator. Call in completion
    /// order to stay bit-identical to the materialized reduction.
    #[inline]
    pub fn push(&mut self, c: &CompletedJob) {
        self.bsld_sum += c.bounded_slowdown(self.tau);
        self.completed_jobs += 1;
        self.makespan = self.makespan.max(c.finish);
    }

    /// Reduce a materialized [`SimulationResult`] to the same accumulator
    /// the streaming path produces (the oracle the `differential` harness
    /// uses).
    pub fn from_result(result: &SimulationResult, tau: f64) -> Self {
        let mut m = Self::new(tau);
        for c in &result.completed {
            m.push(c);
        }
        m.backfilled_jobs = result.backfilled_jobs;
        m.preempted_jobs = result.preempted_jobs;
        m.abandoned_jobs = result.abandoned.len() as u64;
        m.lost_core_seconds = result.lost_core_seconds;
        m
    }

    /// Average bounded slowdown (Eq. 2); `None` if nothing completed.
    /// Bit-identical to [`SimulationResult::avg_bounded_slowdown`] for the
    /// same run, because both divide the same completion-order sum.
    pub fn avg_bounded_slowdown(&self) -> Option<f64> {
        (self.completed_jobs > 0).then(|| self.bsld_sum / self.completed_jobs as f64)
    }
}

/// What a permutation trial keeps of its schedule: Σ bounded slowdown and
/// a count over the jobs whose id is `first` or above — a tuple's probe set
/// `Q`, whose ids follow the warm-up set's — folded in completion order.
///
/// A resumed trial streams its completions into one
/// ([`SimWorkspace::resume_metrics_from`](crate::SimWorkspace::resume_metrics_from))
/// that [`Checkpoint::fold_prefix`](crate::Checkpoint::fold_prefix) seeded
/// with the prefix's completions, so the sum takes the float operations
/// of [`SimulationResult::avg_bounded_slowdown_of`] over the whole
/// schedule, in the same order: the average is **bit-identical** to it
/// (the `differential` harness compares the bits).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialMetrics {
    /// Bounded-slowdown threshold the sum was accumulated under.
    pub tau: f64,
    /// Lowest job id counted.
    pub first: JobId,
    /// Σ bounded slowdown over the counted jobs, in completion order.
    pub bsld_sum: f64,
    /// Counted jobs completed.
    pub completed_jobs: u64,
}

impl TrialMetrics {
    /// An empty accumulator over ids `first..` for threshold `tau`.
    pub fn new(first: JobId, tau: f64) -> Self {
        Self {
            tau,
            first,
            bsld_sum: 0.0,
            completed_jobs: 0,
        }
    }

    /// Fold one completion event in, if its id is counted. Call in
    /// completion order to stay bit-identical to the materialized
    /// reduction.
    #[inline]
    pub fn push(&mut self, c: &CompletedJob) {
        if c.job.id >= self.first {
            self.bsld_sum += c.bounded_slowdown(self.tau);
            self.completed_jobs += 1;
        }
    }

    /// Average bounded slowdown over the counted jobs; `None` if none
    /// completed.
    pub fn avg_bounded_slowdown(&self) -> Option<f64> {
        (self.completed_jobs > 0).then(|| self.bsld_sum / self.completed_jobs as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsched_cluster::Job;

    fn completed(id: u32, submit: f64, start: f64, runtime: f64) -> CompletedJob {
        CompletedJob {
            job: Job::new(id, submit, runtime, runtime, 1),
            start,
            finish: start + runtime,
        }
    }

    fn result() -> SimulationResult {
        SimulationResult {
            completed: vec![
                completed(0, 0.0, 0.0, 100.0),
                completed(1, 0.0, 100.0, 100.0),
            ],
            makespan: 200.0,
            utilization: 0.5,
            events_processed: 4,
            backfilled_jobs: 0,
            preempted_jobs: 0,
            lost_core_seconds: 0.0,
            abandoned: Vec::new(),
        }
    }

    #[test]
    fn avg_bsld() {
        // bslds 1.0 and 2.0.
        assert_eq!(result().avg_bounded_slowdown(10.0), Some(1.5));
    }

    #[test]
    fn subset_bsld() {
        let r = result();
        assert_eq!(r.avg_bounded_slowdown_of(&|id| id == 1, 10.0), Some(2.0));
        assert_eq!(r.avg_bounded_slowdown_of(&|_| false, 10.0), None);
    }

    #[test]
    fn wait_stats() {
        let r = result();
        assert_eq!(r.mean_wait(), Some(50.0));
    }

    #[test]
    fn by_id_indexes_all() {
        let r = result();
        let m = r.by_id();
        assert_eq!(m.len(), 2);
        assert_eq!(m[&1].start, 100.0);
    }

    #[test]
    fn metrics_reduction_matches_result_statistics() {
        let r = result();
        let m = SimMetrics::from_result(&r, 10.0);
        assert_eq!(m.avg_bounded_slowdown(), r.avg_bounded_slowdown(10.0));
        assert_eq!(
            m.makespan,
            r.completed.iter().map(|c| c.finish).fold(0.0, f64::max)
        );
        assert_eq!(m.completed_jobs, 2);
        assert_eq!(m.backfilled_jobs, r.backfilled_jobs);
    }

    #[test]
    fn empty_metrics_have_no_average() {
        let m = SimMetrics::new(10.0);
        assert_eq!(m.avg_bounded_slowdown(), None);
        assert_eq!(m.makespan, 0.0);
    }
}
