//! Extraction of dynamic-scheduling experiment sequences.
//!
//! The paper's evaluation protocol (§4.2, §4.3): a *dynamic scheduling
//! experiment* simulates ten distinct, non-overlapping sequences of tasks
//! from one workload, each sequence containing all submissions over a
//! fifteen-day period. This module slices a long trace into such sequences,
//! rebasing every sequence so its window starts at time 0.

use crate::trace::Trace;

/// Parameters of the sequence-extraction protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequenceSpec {
    /// Number of disjoint sequences (paper: 10).
    pub count: usize,
    /// Sequence length in days (paper: 15).
    pub days: f64,
    /// Minimum jobs for a window to be usable (guards against trace gaps,
    /// e.g. machine maintenance periods in the archive logs).
    pub min_jobs: usize,
}

impl Default for SequenceSpec {
    fn default() -> Self {
        Self {
            count: 10,
            days: 15.0,
            min_jobs: 10,
        }
    }
}

impl SequenceSpec {
    /// The paper's protocol: ten fifteen-day sequences.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Window length in seconds.
    pub fn window_seconds(&self) -> f64 {
        self.days * 86_400.0
    }
}

/// Error from sequence extraction.
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceError {
    /// Sequences actually extracted.
    pub found: usize,
    /// Sequences requested.
    pub requested: usize,
}

impl std::fmt::Display for SequenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace only yields {} usable sequences of the {} requested",
            self.found, self.requested
        )
    }
}

impl std::error::Error for SequenceError {}

/// Slice `trace` into up to `spec.count` disjoint windows of
/// `spec.days` days, starting at the trace's first submission. Windows with
/// fewer than `spec.min_jobs` jobs are skipped (the next window starts at
/// the following window boundary, preserving disjointness). Each returned
/// sequence is rebased to start at time 0 with ids renumbered from 0.
pub fn extract_sequences(trace: &Trace, spec: &SequenceSpec) -> Result<Vec<Trace>, SequenceError> {
    let mut out = Vec::with_capacity(spec.count);
    let Some(origin) = trace.start_time() else {
        return Err(SequenceError {
            found: 0,
            requested: spec.count,
        });
    };
    let window = spec.window_seconds();
    let end = trace.end_time().unwrap_or(origin);
    let mut k = 0usize;
    while out.len() < spec.count {
        let from = origin + k as f64 * window;
        if from > end {
            break;
        }
        let slice = trace.window(from, from + window);
        if slice.len() >= spec.min_jobs {
            out.push(slice.rebased(0.0));
        }
        k += 1;
    }
    if out.len() < spec.count {
        return Err(SequenceError {
            found: out.len(),
            requested: spec.count,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsched_cluster::Job;

    fn uniform_trace(jobs_per_day: usize, days: usize) -> Trace {
        let gap = 86_400.0 / jobs_per_day as f64;
        let jobs = (0..jobs_per_day * days)
            .map(|i| Job::new(i as u32, i as f64 * gap, 100.0, 100.0, 1))
            .collect();
        Trace::from_jobs(jobs)
    }

    #[test]
    fn extracts_requested_count() {
        let t = uniform_trace(100, 200);
        let spec = SequenceSpec {
            count: 10,
            days: 15.0,
            min_jobs: 10,
        };
        let seqs = extract_sequences(&t, &spec).unwrap();
        assert_eq!(seqs.len(), 10);
        for s in &seqs {
            assert_eq!(s.len(), 1_500);
            assert_eq!(s.start_time(), Some(0.0));
            assert!(s.end_time().unwrap() < spec.window_seconds());
        }
    }

    #[test]
    fn sequences_are_disjoint() {
        // Verify by total job count: 10 windows × 15 days × 100 jobs/day
        // uses exactly the first 150 days; no job counted twice.
        let t = uniform_trace(100, 150);
        let spec = SequenceSpec {
            count: 10,
            days: 15.0,
            min_jobs: 10,
        };
        let seqs = extract_sequences(&t, &spec).unwrap();
        let total: usize = seqs.iter().map(Trace::len).sum();
        assert_eq!(total, t.len());
    }

    #[test]
    fn insufficient_trace_errors() {
        let t = uniform_trace(100, 30);
        let spec = SequenceSpec::paper();
        let err = extract_sequences(&t, &spec).unwrap_err();
        assert_eq!(err.requested, 10);
        assert_eq!(err.found, 2);
    }

    #[test]
    fn sparse_windows_are_skipped() {
        // 2 dense days, 15 empty days, 2 dense days → with 1-day windows and
        // min_jobs=50, only dense windows survive.
        let mut jobs = Vec::new();
        let mut id = 0u32;
        for day in [0usize, 1, 17, 18] {
            for i in 0..100 {
                jobs.push(Job::new(
                    id,
                    day as f64 * 86_400.0 + i as f64 * 10.0,
                    50.0,
                    50.0,
                    1,
                ));
                id += 1;
            }
        }
        let t = Trace::from_jobs(jobs);
        let spec = SequenceSpec {
            count: 4,
            days: 1.0,
            min_jobs: 50,
        };
        let seqs = extract_sequences(&t, &spec).unwrap();
        assert_eq!(seqs.len(), 4);
        for s in &seqs {
            assert_eq!(s.len(), 100);
        }
    }

    #[test]
    fn empty_trace_errors() {
        let err = extract_sequences(&Trace::default(), &SequenceSpec::paper()).unwrap_err();
        assert_eq!(err.found, 0);
    }
}
