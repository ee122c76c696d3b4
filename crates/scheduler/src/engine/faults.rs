//! Fault handling: capacity steps, deterministic victim selection,
//! kill-and-requeue, abandonment. Reached only from the `FAULTY`
//! instantiation of the event loop.

use super::event_loop::Engine;
use super::{CompletionSink, EngineError};
use dynsched_cluster::{AbandonedJob, LedgerError};
use dynsched_workload::TraceSource;

impl<K: CompletionSink, T: TraceSource> Engine<'_, '_, K, T> {
    /// Apply one capacity step: move the ledger to the new capacity and, if
    /// the step drops capacity below the in-use count, preempt running jobs
    /// until the remainder fits. Victim order is deterministic: youngest
    /// start time first, higher trace position as tie-break — the jobs with
    /// the least sunk work die first. Killed jobs requeue immediately (in
    /// kill order) unless they have exhausted `max_retries` requeues, in
    /// which case they are reported abandoned.
    pub(super) fn apply_capacity(&mut self, capacity: u32, now: f64) -> Result<(), EngineError> {
        let overshoot = self.st.ledger.set_capacity(capacity, now);
        if overshoot == 0 {
            return Ok(());
        }
        self.faults.victim_scratch.clear();
        for (i, &s) in self.st.start_of.iter().enumerate() {
            if !s.is_nan() {
                self.faults.victim_scratch.push((s, i as u32));
            }
        }
        self.faults
            .victim_scratch
            .sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)));
        let mut v = 0usize;
        while self.st.ledger.used() > self.st.ledger.capacity() {
            let Some(&(start, idx)) = self.faults.victim_scratch.get(v) else {
                // used > capacity with nothing running: the ledger and the
                // running set disagree.
                return Err(EngineError::Ledger(LedgerError::InsufficientCores {
                    requested: self.st.ledger.used(),
                    available: self.st.ledger.capacity(),
                }));
            };
            v += 1;
            self.preempt(idx, start, now)?;
        }
        Ok(())
    }

    /// Kill running job `idx`: release its cores, account the lost work,
    /// invalidate its pending completion event via the attempt counter,
    /// and requeue or abandon it.
    fn preempt(&mut self, idx: u32, start: f64, now: f64) -> Result<(), EngineError> {
        let job = self.trace.job(idx as usize);
        self.st.ledger.release(job.cores, now)?;
        if self.track_releases {
            self.remove_release(idx, start, now)?;
        }
        self.st.start_of[idx as usize] = f64::NAN;
        self.faults.attempt_of[idx as usize] += 1;
        self.faults.preempted += 1;
        self.faults.lost_core_seconds += (now - start) * job.cores as f64;
        if self.faults.attempt_of[idx as usize] > self.max_retries {
            self.faults.abandoned.push(AbandonedJob {
                job,
                idx,
                attempts: self.faults.attempt_of[idx as usize],
                abandoned_at: now,
            });
        } else {
            self.enqueue(idx);
        }
        Ok(())
    }

    /// Report every still-waiting job as abandoned (in trace order) and
    /// clear the queue. Reached only when the schedule ends with too little
    /// capacity for the remaining jobs and no event can ever free more.
    pub(super) fn strand_waiting(&mut self, now: f64) {
        // The queue is cleared below, so its live window can be sorted in
        // place.
        let head = self.st.head;
        self.st.queue[head..].sort_unstable_by_key(|e| e.idx);
        for e in self.st.waiting() {
            self.faults.abandoned.push(AbandonedJob {
                job: e.job,
                idx: e.idx,
                attempts: self.faults.attempt_of[e.idx as usize],
                abandoned_at: now,
            });
        }
        // Everything in lockstep with the queue goes with it (a no-op for
        // the lanes where they are not maintained).
        self.st.queue.clear();
        self.st.q_keys.clear();
        self.st.head = 0;
        self.st.q_r.clear();
        self.st.q_n.clear();
        self.st.q_s.clear();
        self.st.q_slots.clear();
        self.st.narrowest = u32::MAX;
    }
}
