//! In-memory job traces and summary statistics.
//!
//! A [`Trace`] is a submit-time-ordered sequence of rigid jobs, the common
//! currency between workload generators, SWF files, and the scheduler. The
//! summary statistics ([`TraceSummary`]) drive the arrival-rate calibration
//! of the synthetic archive stand-ins: offered load = mean job area divided
//! by (platform capacity × mean inter-arrival).

use dynsched_cluster::Job;

/// Read access to a submit-sorted job sequence, independent of storage
/// layout.
///
/// The scheduler engine is generic over this trait, and three layouts
/// implement it: the AoS [`Trace`] (the construction/transformation
/// format), the dense SoA columns of a
/// [`TraceView`](crate::store::TraceView) (the simulation format), and a
/// shard's [`TraceSlice`](crate::partition::TraceSlice) of either. All
/// present the identical canonical `(submit, id)` order with the identical
/// field values, which is why switching a call site between them is
/// bit-invisible to every simulation result.
///
/// Positions `i` are *trace positions* (`0..len`), the same dense index
/// the engine keys its running tables by.
pub trait TraceSource {
    /// Number of jobs.
    fn len(&self) -> usize;

    /// Whether the trace has no jobs.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Id of the job at trace position `i`.
    fn id(&self, i: usize) -> u32;

    /// Submit time of the job at trace position `i`.
    fn submit(&self, i: usize) -> f64;

    /// Actual runtime of the job at trace position `i`.
    fn runtime(&self, i: usize) -> f64;

    /// User estimate of the job at trace position `i`.
    fn estimate(&self, i: usize) -> f64;

    /// Requested cores of the job at trace position `i`.
    fn cores(&self, i: usize) -> u32;

    /// The job at trace position `i`, reassembled by value.
    fn job(&self, i: usize) -> Job {
        Job {
            id: self.id(i),
            submit: self.submit(i),
            runtime: self.runtime(i),
            estimate: self.estimate(i),
            cores: self.cores(i),
        }
    }
}

impl TraceSource for Trace {
    fn len(&self) -> usize {
        self.jobs.len()
    }

    fn id(&self, i: usize) -> u32 {
        self.jobs[i].id
    }

    fn submit(&self, i: usize) -> f64 {
        self.jobs[i].submit
    }

    fn runtime(&self, i: usize) -> f64 {
        self.jobs[i].runtime
    }

    fn estimate(&self, i: usize) -> f64 {
        self.jobs[i].estimate
    }

    fn cores(&self, i: usize) -> u32 {
        self.jobs[i].cores
    }

    fn job(&self, i: usize) -> Job {
        self.jobs[i]
    }
}

/// A submit-time-ordered sequence of jobs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    jobs: Vec<Job>,
}

impl Trace {
    /// Build a trace, sorting jobs by `(submit, id)` to guarantee a
    /// deterministic order for equal submit times.
    pub fn from_jobs(mut jobs: Vec<Job>) -> Self {
        jobs.sort_by(|a, b| a.submit.total_cmp(&b.submit).then(a.id.cmp(&b.id)));
        Self { jobs }
    }

    /// The jobs, in submit order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Submit time of the first job (None if empty).
    pub fn start_time(&self) -> Option<f64> {
        self.jobs.first().map(|j| j.submit)
    }

    /// Submit time of the last job (None if empty).
    pub fn end_time(&self) -> Option<f64> {
        self.jobs.last().map(|j| j.submit)
    }

    /// Duration between first and last submit (0 for <2 jobs).
    pub fn span(&self) -> f64 {
        match (self.start_time(), self.end_time()) {
            (Some(a), Some(b)) => b - a,
            _ => 0.0,
        }
    }

    /// Shift every submit time so the first job arrives at `origin`,
    /// renumbering ids from 0. Used when extracting experiment sequences.
    pub fn rebased(&self, origin: f64) -> Trace {
        let Some(first) = self.start_time() else {
            return Trace::default();
        };
        let jobs = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, j)| {
                Job::new(
                    i as u32,
                    origin + (j.submit - first),
                    j.runtime,
                    j.estimate,
                    j.cores,
                )
            })
            .collect();
        Trace { jobs }
    }

    /// Keep only jobs whose submit time falls in `[from, to)`.
    pub fn window(&self, from: f64, to: f64) -> Trace {
        let jobs = self
            .jobs
            .iter()
            .filter(|j| j.submit >= from && j.submit < to)
            .copied()
            .collect();
        Trace::from_jobs(jobs)
    }

    /// Keep only jobs that fit on a platform with `max_cores` cores.
    /// Archive logs occasionally contain jobs wider than the stated
    /// partition; they can never start and must be dropped.
    pub fn capped_to(&self, max_cores: u32) -> Trace {
        let jobs = self
            .jobs
            .iter()
            .filter(|j| j.cores <= max_cores)
            .copied()
            .collect();
        Trace::from_jobs(jobs)
    }

    /// Total core-seconds of work in the trace.
    pub fn total_area(&self) -> f64 {
        self.jobs.iter().map(|j| j.area()).sum()
    }

    /// Columnarize into a fresh shareable [`TraceView`](crate::store::TraceView)
    /// (uninterned; route through a [`TraceStore`](crate::store::TraceStore)
    /// when the trace has a generation key worth sharing under).
    pub fn to_view(&self) -> crate::store::TraceView {
        crate::store::TraceView::from_trace(self)
    }

    /// Compute summary statistics. Returns `None` for an empty trace.
    pub fn summary(&self, platform_cores: u32) -> Option<TraceSummary> {
        if self.jobs.is_empty() {
            return None;
        }
        let n = self.jobs.len() as f64;
        let span = self.span();
        let mean_runtime = self.jobs.iter().map(|j| j.runtime).sum::<f64>() / n;
        let mean_cores = self.jobs.iter().map(|j| j.cores as f64).sum::<f64>() / n;
        let mean_interarrival = if self.jobs.len() > 1 {
            span / (n - 1.0)
        } else {
            0.0
        };
        let offered_load = if span > 0.0 {
            self.total_area() / (platform_cores as f64 * span)
        } else {
            f64::INFINITY
        };
        let max_cores = self.jobs.iter().map(|j| j.cores).max().unwrap();
        let serial_fraction = self.jobs.iter().filter(|j| j.cores == 1).count() as f64 / n;
        let pow2_fraction = self
            .jobs
            .iter()
            .filter(|j| j.cores.is_power_of_two() && j.cores > 1)
            .count() as f64
            / n;
        Some(TraceSummary {
            jobs: self.jobs.len(),
            span_seconds: span,
            mean_runtime,
            mean_cores,
            mean_interarrival,
            offered_load,
            max_cores,
            serial_fraction,
            pow2_fraction,
        })
    }
}

/// Aggregate statistics of a trace relative to a platform size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSummary {
    /// Number of jobs.
    pub jobs: usize,
    /// Seconds between first and last submission.
    pub span_seconds: f64,
    /// Mean actual runtime (s).
    pub mean_runtime: f64,
    /// Mean requested cores.
    pub mean_cores: f64,
    /// Mean inter-arrival time (s).
    pub mean_interarrival: f64,
    /// Offered load: total area / (capacity × span). The long-run
    /// utilization cannot exceed `min(offered_load, 1)`.
    pub offered_load: f64,
    /// Widest job in the trace.
    pub max_cores: u32,
    /// Fraction of single-core jobs.
    pub serial_fraction: f64,
    /// Fraction of parallel power-of-two-sized jobs.
    pub pow2_fraction: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u32, submit: f64, runtime: f64, cores: u32) -> Job {
        Job::new(id, submit, runtime, runtime, cores)
    }

    #[test]
    fn from_jobs_sorts_by_submit_then_id() {
        let t = Trace::from_jobs(vec![
            job(2, 5.0, 1.0, 1),
            job(1, 5.0, 1.0, 1),
            job(0, 1.0, 1.0, 1),
        ]);
        let ids: Vec<u32> = t.jobs().iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn window_is_half_open() {
        let t = Trace::from_jobs((0..10).map(|i| job(i, i as f64, 1.0, 1)).collect());
        let w = t.window(2.0, 5.0);
        let submits: Vec<f64> = w.jobs().iter().map(|j| j.submit).collect();
        assert_eq!(submits, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn rebase_shifts_and_renumbers() {
        let t = Trace::from_jobs(vec![job(7, 100.0, 2.0, 1), job(9, 130.0, 3.0, 2)]);
        let r = t.rebased(0.0);
        assert_eq!(r.jobs()[0].id, 0);
        assert_eq!(r.jobs()[0].submit, 0.0);
        assert_eq!(r.jobs()[1].submit, 30.0);
        assert_eq!(r.jobs()[1].cores, 2);
    }

    #[test]
    fn rebase_empty_is_empty() {
        assert!(Trace::default().rebased(0.0).is_empty());
    }

    #[test]
    fn capped_drops_oversized() {
        let t = Trace::from_jobs(vec![job(0, 0.0, 1.0, 4), job(1, 1.0, 1.0, 500)]);
        let c = t.capped_to(256);
        assert_eq!(c.len(), 1);
        assert_eq!(c.jobs()[0].cores, 4);
    }

    #[test]
    fn summary_offered_load() {
        // Two jobs of area 100 each over a 100 s span on 10 cores:
        // offered load = 200 / (10*100) = 0.2.
        let t = Trace::from_jobs(vec![job(0, 0.0, 10.0, 10), job(1, 100.0, 100.0, 1)]);
        let s = t.summary(10).unwrap();
        assert!((s.offered_load - 0.2).abs() < 1e-12);
        assert_eq!(s.jobs, 2);
        assert_eq!(s.max_cores, 10);
        assert!((s.serial_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Trace::default().summary(16).is_none());
    }

    #[test]
    fn pow2_fraction_excludes_serial() {
        let t = Trace::from_jobs(vec![
            job(0, 0.0, 1.0, 1),
            job(1, 1.0, 1.0, 4),
            job(2, 2.0, 1.0, 3),
        ]);
        let s = t.summary(8).unwrap();
        assert!((s.pow2_fraction - 1.0 / 3.0).abs() < 1e-12);
    }
}
