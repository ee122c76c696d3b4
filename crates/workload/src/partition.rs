//! Per-shard trace partitioning for the federation layer.
//!
//! A federated simulation routes every job of one submit-sorted trace to
//! one of N clusters and then runs each cluster's jobs through its own
//! engine instance. The shard-local job sequence is a *subsequence* of the
//! parent trace — same jobs, same field bits, original relative order —
//! which [`TraceSlice`] presents as a [`TraceSource`] without copying a
//! single column: position `i` of the slice delegates to parent position
//! `positions[i]`.
//!
//! Because the parent is submit-sorted and a routing pass scans it in
//! order, any routed position list is automatically submit-sorted too, so
//! a slice satisfies the engine's arrival-cursor contract for free. The
//! constructor still verifies the invariant (debug builds verify the full
//! order; release builds trust the router).
//!
//! Determinism: a slice adds no state of its own. Simulating
//! `TraceSlice::new(&trace, positions)` is bit-identical to simulating an
//! owned trace built from the same jobs — the `federation_bit_identity`
//! suite pins this via the 1-shard == reference oracle pin.

use crate::trace::TraceSource;
use dynsched_cluster::Job;

/// A borrowed subsequence of a parent [`TraceSource`]: the trace a single
/// federation shard schedules.
///
/// `positions[i]` is the parent trace position backing slice position `i`.
/// Positions must be strictly increasing (a subsequence, not a shuffle):
/// relative submit order — including the equal-submit-time tie order the
/// engine inherits from trace order — is exactly the parent's.
#[derive(Debug, Clone, Copy)]
pub struct TraceSlice<'a, T: TraceSource> {
    parent: &'a T,
    positions: &'a [u32],
}

impl<'a, T: TraceSource> TraceSlice<'a, T> {
    /// Borrow the subsequence of `parent` at `positions`.
    ///
    /// # Panics
    /// Panics if any position is out of bounds, or (debug builds) if the
    /// positions are not strictly increasing.
    pub fn new(parent: &'a T, positions: &'a [u32]) -> Self {
        if let Some(&last) = positions.last() {
            assert!(
                (last as usize) < parent.len(),
                "slice position {last} out of bounds for a {}-job trace",
                parent.len()
            );
        }
        debug_assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "slice positions must be strictly increasing"
        );
        Self { parent, positions }
    }

    /// The parent positions backing this slice, in slice order.
    pub fn positions(&self) -> &'a [u32] {
        self.positions
    }
}

impl<T: TraceSource> TraceSource for TraceSlice<'_, T> {
    fn len(&self) -> usize {
        self.positions.len()
    }

    #[inline]
    fn id(&self, i: usize) -> u32 {
        self.parent.id(self.positions[i] as usize)
    }

    #[inline]
    fn submit(&self, i: usize) -> f64 {
        self.parent.submit(self.positions[i] as usize)
    }

    #[inline]
    fn runtime(&self, i: usize) -> f64 {
        self.parent.runtime(self.positions[i] as usize)
    }

    #[inline]
    fn estimate(&self, i: usize) -> f64 {
        self.parent.estimate(self.positions[i] as usize)
    }

    #[inline]
    fn cores(&self, i: usize) -> u32 {
        self.parent.cores(self.positions[i] as usize)
    }

    #[inline]
    fn job(&self, i: usize) -> Job {
        self.parent.job(self.positions[i] as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    fn trace() -> Trace {
        Trace::from_jobs(
            (0..10)
                .map(|i| Job::new(i, i as f64 * 10.0, 100.0 + i as f64, 120.0, 1 + i % 3))
                .collect(),
        )
    }

    #[test]
    fn slice_delegates_every_field() {
        let t = trace();
        let positions = [1u32, 4, 7, 9];
        let s = TraceSlice::new(&t, &positions);
        assert_eq!(s.len(), 4);
        for (i, &p) in positions.iter().enumerate() {
            assert_eq!(s.id(i), t.id(p as usize));
            assert_eq!(s.submit(i), t.submit(p as usize));
            assert_eq!(s.runtime(i), t.runtime(p as usize));
            assert_eq!(s.estimate(i), t.estimate(p as usize));
            assert_eq!(s.cores(i), t.cores(p as usize));
            assert_eq!(s.job(i), t.job(p as usize));
        }
    }

    #[test]
    fn empty_and_full_slices() {
        let t = trace();
        let none: [u32; 0] = [];
        let s = TraceSlice::new(&t, &none);
        assert!(s.is_empty());
        let all: Vec<u32> = (0..t.len() as u32).collect();
        let s = TraceSlice::new(&t, &all);
        assert_eq!(s.len(), t.len());
        assert_eq!(s.job(3), t.job(3));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_position_is_rejected() {
        let t = trace();
        let bad = [0u32, 10];
        let _ = TraceSlice::new(&t, &bad);
    }
}
