//! Dense per-job value lanes stored beside the trace columns.
//!
//! The compiled-policy layer precomputes, for every job of a trace, a
//! small fixed number of *wait-invariant* values (the prefix slots of a
//! `CompiledPolicy`) that stay constant for the job's whole queue
//! lifetime. [`JobLanes`] is the storage for such per-job rows: one flat
//! `Vec<f64>` in trace order with a fixed row stride, living next to the
//! [`TraceColumns`](crate::store::TraceColumns) it annotates — the same
//! SoA discipline as the columns themselves, and reusable across runs
//! without reallocation (the scheduler keeps one inside its workspace).

/// A dense `jobs x slots` block of `f64` values in trace order. Row `i`
/// holds the `slots` values of the job at trace position `i`.
///
/// The buffer is retained across [`JobLanes::reset`] calls, so refilling
/// it for a new `(trace, program)` pair allocates only when it grows —
/// the workspace-reuse contract of the simulation layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobLanes {
    slots: usize,
    values: Vec<f64>,
}

impl JobLanes {
    /// An empty lane block (no jobs, no slots).
    pub fn new() -> Self {
        Self::default()
    }

    /// Resize to `jobs` rows of `slots` values each, zero-filled. Keeps
    /// the existing allocation when large enough.
    pub fn reset(&mut self, jobs: usize, slots: usize) {
        self.slots = slots;
        self.values.clear();
        self.values.resize(jobs * slots, 0.0);
    }

    /// Values per row.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of rows (0 when `slots` is 0).
    pub fn jobs(&self) -> usize {
        self.values.len().checked_div(self.slots).unwrap_or(0)
    }

    /// Reshape to `jobs` rows of `slots` values and fill each row through
    /// `f(row_index, row)` in one pass — the initializer the scheduler
    /// uses to evaluate a compiled policy's wait-invariant prefix per
    /// trace position. With `slots == 0` there is nothing to store and
    /// `f` is never called.
    pub fn fill(&mut self, jobs: usize, slots: usize, mut f: impl FnMut(usize, &mut [f64])) {
        self.reset(jobs, slots);
        if slots == 0 {
            return;
        }
        for i in 0..jobs {
            f(i, &mut self.values[i * slots..(i + 1) * slots]);
        }
    }

    /// Row `i` as a slice (empty when `slots` is 0).
    pub fn row(&self, i: usize) -> &[f64] {
        &self.values[i * self.slots..(i + 1) * self.slots]
    }

    /// The whole block as one flat row-major slice.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_strided_views() {
        let mut lanes = JobLanes::new();
        lanes.fill(3, 2, |i, row| {
            if i == 1 {
                row.copy_from_slice(&[4.0, 5.0]);
            }
        });
        assert_eq!((lanes.jobs(), lanes.slots()), (3, 2));
        assert_eq!(lanes.row(0), &[0.0, 0.0]);
        assert_eq!(lanes.row(1), &[4.0, 5.0]);
        assert_eq!(lanes.values(), &[0.0, 0.0, 4.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn reset_clears_and_reshapes_without_stale_values() {
        let mut lanes = JobLanes::new();
        lanes.fill(2, 3, |_, row| row.copy_from_slice(&[1.0, 2.0, 3.0]));
        lanes.reset(3, 2);
        assert_eq!((lanes.jobs(), lanes.slots()), (3, 2));
        assert!(lanes.values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn fill_visits_every_row_in_order() {
        let mut lanes = JobLanes::new();
        lanes.fill(3, 2, |i, row| {
            row[0] = i as f64;
            row[1] = 10.0 + i as f64;
        });
        assert_eq!(lanes.values(), &[0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
        // Zero slots: nothing stored, the filler never runs.
        lanes.fill(4, 0, |_, _| panic!("no rows to fill"));
        assert_eq!(lanes.jobs(), 0);
    }

    #[test]
    fn zero_slots_means_empty_rows() {
        let mut lanes = JobLanes::new();
        lanes.reset(5, 0);
        assert_eq!(lanes.slots(), 0);
        assert_eq!(lanes.jobs(), 0);
        assert!(lanes.row(3).is_empty());
        assert!(lanes.values().is_empty());
    }
}
