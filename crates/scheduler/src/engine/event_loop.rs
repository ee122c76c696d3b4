//! The event loop: per-run set-up, the arrival / completion / capacity-step
//! merge, and the primitive state transitions (enqueue, start, complete).

use super::state::{FaultState, Scratch, SimState};
use super::{
    task_view, CompletionSink, EngineError, QueueDiscipline, QueueEntry, QueueOrder, RunMode,
    SimWorkspace,
};
use crate::config::{BackfillMode, SchedulerConfig};
use dynsched_cluster::{AvailabilitySchedule, CapacityStep, CompletedJob, Job};
use dynsched_simkit::Clock;
use dynsched_workload::TraceSource;

impl SimWorkspace {
    /// The engine proper, generic over where completions go and over the
    /// trace's storage layout. Whether fault injection is active is decided
    /// here, once, from `schedule`: the zero-fault arm instantiates
    /// [`Engine::drive`] with `FAULTY = false`, which monomorphizes every
    /// fault branch away — how the zero-fault path keeps both its
    /// bit-identity and its throughput (the `fault_throughput` bench pins
    /// the overhead at ≤5%).
    pub(super) fn run_with<K: CompletionSink, T: TraceSource>(
        &mut self,
        trace: &T,
        discipline: &QueueDiscipline<'_>,
        config: &SchedulerConfig,
        sink: &mut K,
        schedule: Option<&AvailabilitySchedule>,
        mode: RunMode<'_>,
    ) -> Result<(), EngineError> {
        debug_assert!(
            schedule.is_none() || matches!(mode, RunMode::Full),
            "checkpoint/fork is a zero-fault API"
        );
        let n_jobs = trace.len();
        let total_cores = config.platform.total_cores;
        if let Some(i) = (0..n_jobs).find(|&i| trace.cores(i) > total_cores) {
            return Err(EngineError::JobWiderThanPlatform {
                job: trace.id(i),
                cores: trace.cores(i),
                platform_cores: total_cores,
            });
        }
        if let QueueDiscipline::FixedOrder(ranks) = discipline {
            if ranks.len() < n_jobs {
                return Err(EngineError::RankSliceTooShort {
                    ranks: ranks.len(),
                    jobs: n_jobs,
                });
            }
        }

        self.state.reset(n_jobs, config.platform);
        self.faults.reset(n_jobs);

        let queue_order = match discipline {
            QueueDiscipline::FixedOrder(_) => QueueOrder::ByRank,
            QueueDiscipline::Policy(p) if !p.time_dependent() => QueueOrder::ByCachedScore,
            QueueDiscipline::Policy(_) => QueueOrder::TimeDependent,
            QueueDiscipline::Compiled(cp) if !cp.time_dependent() => QueueOrder::ByCachedScore,
            QueueDiscipline::Compiled(_) => QueueOrder::TimeDependent,
        };
        // The compiled program, where it is re-scored at every event. Its
        // wait-invariant prefix is evaluated once per trace position into
        // the dense slot lanes — the per-job static part, constant for
        // each job's whole queue lifetime. A *static* compiled policy
        // skips this whole-trace pass: its score is computed exactly once,
        // at enqueue, through the scalar kernel, so per-trace slot lanes
        // would be pure setup cost that nothing ever re-reads.
        let batch_scored = match discipline {
            QueueDiscipline::Compiled(cp) if cp.time_dependent() => Some(*cp),
            _ => None,
        };
        match batch_scored {
            Some(cp) => {
                let vm_stack = &mut self.scratch.vm_stack;
                self.scratch
                    .static_lanes
                    .fill(n_jobs, cp.slot_count(), |i, row| {
                        let r = config.decision_time(trace.runtime(i), trace.estimate(i));
                        cp.prefix_into(r, trace.cores(i) as f64, trace.submit(i), row, vm_stack);
                    });
            }
            None => self.scratch.static_lanes.reset(0, 0),
        }
        // A time-dependent compiled discipline (`batch_scored`: its
        // `time_dependent()` holds) under strict or EASY scheduling builds
        // no order at all and picks each head on demand; a conservative
        // pass reads every position, so it full-sorts.
        let on_demand = batch_scored.is_some() && config.backfill != BackfillMode::Conservative;
        // The no-op skip only applies where a blocked head is a stable
        // fact: strict mode (nothing behind the head can ever start)
        // with a static order (the head cannot change by re-scoring).
        let skip_eligible =
            config.backfill == BackfillMode::None && queue_order != QueueOrder::TimeDependent;
        // Resuming: overwrite the pristine state with the snapshot, then
        // replay the completion prefix into the sink — prefix completions
        // all finish strictly before the horizon, ahead of any suffix
        // completion, so the merged stream is in true completion order and
        // metrics accumulation stays bit-identical to scratch.
        if let RunMode::Resume { from } = &mode {
            assert_eq!(
                from.jobs(),
                n_jobs,
                "checkpoint was captured for a different trace length"
            );
            self.state.copy_from(&from.state);
            // The blocked-head fact does not survive a fork: re-keying the
            // restored queue may change which entry is the head, and the
            // next pass re-derives the fact at no cost to bit-identity (a
            // blocked strict pass starts nothing and leaves no other state
            // behind).
            self.state.head_blocked = false;
            for c in &from.completed {
                sink.record(*c);
            }
        }
        let mut eng = Engine {
            trace,
            discipline,
            config,
            queue_order,
            track_releases: config.backfill != BackfillMode::None,
            skip_eligible,
            track_lanes: batch_scored.is_some(),
            on_demand,
            max_retries: schedule.map_or(u32::MAX, AvailabilitySchedule::max_retries),
            st: &mut self.state,
            scratch: &mut self.scratch,
            faults: &mut self.faults,
            sink,
        };
        if matches!(mode, RunMode::Resume { .. }) && queue_order != QueueOrder::TimeDependent {
            eng.rescore_restored_queue();
        }
        // Prefix mode stops before the first event at or after the horizon.
        let stop_before = match &mode {
            RunMode::Prefix { horizon, .. } => Some(*horizon),
            _ => None,
        };
        match schedule {
            None => eng.drive::<false>(&[], stop_before)?,
            Some(s) => eng.drive::<true>(s.steps(), stop_before)?,
        }
        if let RunMode::Prefix { horizon, into } = mode {
            // The completion prefix is *not* captured here — the sink is
            // generic; `run_prefix` copies it out of the workspace's own
            // list after this returns.
            into.horizon = horizon;
            into.state.copy_from(&self.state);
        }
        Ok(())
    }
}

/// The per-run view of a workspace: its three state structs and the
/// completion sink, plus the run's immutable inputs and the mode flags
/// derived from them.
pub(super) struct Engine<'a, 'b, K: CompletionSink, T: TraceSource> {
    pub(super) trace: &'a T,
    pub(super) discipline: &'a QueueDiscipline<'b>,
    pub(super) config: &'a SchedulerConfig,
    pub(super) queue_order: QueueOrder,
    /// Whether the run backfills at all, and with it whether the two
    /// things only backfilling passes read are kept up: the maintained
    /// release list and the narrowest-waiter width. Under
    /// [`BackfillMode::None`] the engine skips the upkeep of both.
    pub(super) track_releases: bool,
    /// Whether the no-op reschedule skip may ever fire (strict mode with a
    /// static queue order).
    pub(super) skip_eligible: bool,
    /// Whether the queue-parallel SoA input lanes are maintained — only
    /// for time-dependent compiled disciplines, which batch-score them.
    pub(super) track_lanes: bool,
    /// Whether the pass picks each head on demand instead of reading a
    /// built order (time-dependent compiled disciplines under strict or
    /// EASY scheduling): see `ordering::next_head`.
    pub(super) on_demand: bool,
    /// Preemption retry cap of the active fault schedule (`u32::MAX` for
    /// zero-fault runs, where it is never consulted).
    pub(super) max_retries: u32,
    pub(super) st: &'a mut SimState,
    pub(super) scratch: &'a mut Scratch,
    pub(super) faults: &'a mut FaultState,
    pub(super) sink: &'a mut K,
}

impl<K: CompletionSink, T: TraceSource> Engine<'_, '_, K, T> {
    /// Run events until none is left — or, in prefix mode, until the next
    /// one is at or after `stop_before` — then check the queue drained.
    ///
    /// Arrivals come off the submit-sorted trace via the cursor;
    /// completions off the heap; under fault injection, capacity steps off
    /// `steps`. At equal timestamps arrivals process first (trace order),
    /// then completions (start/push order — the exact FIFO batch order the
    /// reference engine's single heap produces), then capacity steps: a
    /// job finishing at `t` is never a preemption victim at `t`.
    fn drive<const FAULTY: bool>(
        &mut self,
        steps: &[CapacityStep],
        stop_before: Option<f64>,
    ) -> Result<(), EngineError> {
        let trace = self.trace;
        let n_jobs = trace.len();
        // The two per-event counters run in locals and are stored back
        // once, after the loop.
        let mut cursor = self.st.cursor;
        let mut events_processed = self.st.events_processed;
        let mut clock = Clock::new();
        let mut step_cursor = 0usize;
        loop {
            let next_arrival = (cursor < n_jobs).then(|| trace.submit(cursor));
            let mut t = match (next_arrival, self.st.events.peek_time()) {
                (Some(a), Some(c)) => Some(a.min(c)),
                (Some(a), None) => Some(a),
                (None, Some(c)) => Some(c),
                (None, None) => None,
            };
            if FAULTY && step_cursor < steps.len() {
                // A waiting queue can be unblocked only by a capacity
                // restore, so pending steps must drive the loop even when
                // no arrival or completion is left.
                let s = steps[step_cursor].time;
                t = Some(t.map_or(s, |t| t.min(s)));
            }
            let Some(t) = t else { break };
            if stop_before.is_some_and(|h| t >= h) {
                // The capture sees exactly the state a scratch run passes
                // through on its way to this event.
                break;
            }
            clock.advance_to(t);
            while cursor < n_jobs && trace.submit(cursor) == t {
                events_processed += 1;
                self.enqueue(cursor as u32);
                cursor += 1;
            }
            while self.st.events.peek_time() == Some(t) {
                let (idx, attempt) = self.st.events.pop().expect("peeked").1;
                if FAULTY && attempt != self.faults.attempt_of[idx as usize] {
                    // Stale completion of a preempted attempt.
                    continue;
                }
                events_processed += 1;
                self.complete(idx, t)?;
            }
            if FAULTY {
                while step_cursor < steps.len() && steps[step_cursor].time == t {
                    events_processed += 1;
                    self.apply_capacity(steps[step_cursor].capacity, t)?;
                    step_cursor += 1;
                }
            }
            self.reschedule(t)?;
        }
        self.st.cursor = cursor;
        self.st.events_processed = events_processed;
        if stop_before.is_some() {
            // A prefix legitimately stops with jobs waiting and running.
            return Ok(());
        }

        if FAULTY && !self.st.waiting().is_empty() {
            // The schedule ended with too little capacity for these jobs
            // and nothing pending can ever free more: report them as
            // abandoned (in trace order) rather than dropping them.
            // `FaultProfile::expand` always restores full capacity, so this
            // is reachable only through hand-built schedules.
            self.strand_waiting(clock.now());
        }
        // A run that processed every pending event but left jobs waiting
        // or cores in use has not produced a complete schedule. The state
        // is reachable from bad inputs (an inconsistent `TraceSource` can
        // park an unstartable job forever), so it is an error in release
        // builds too, not an empty-but-plausible result.
        if !self.st.waiting().is_empty() || self.st.ledger.used() != 0 {
            return Err(EngineError::QueueNotDrained {
                waiting: self.st.waiting().len(),
                running: self.st.ledger.used(),
                time: clock.now(),
            });
        }
        debug_assert!(
            self.st.releases.is_empty(),
            "drained simulation left release entries"
        );
        Ok(())
    }

    /// Priority key of a job under a static discipline: its rank, or its
    /// score at arrival (`now = submit`, so the wait is 0 either way) —
    /// computed once per queue stay, since static scores never change.
    fn static_key(&mut self, idx: u32, job: &Job) -> f64 {
        match self.discipline {
            // Ranks are array indices, far below 2^53: the f64 image is
            // exact and ordered identically to the integers.
            QueueDiscipline::FixedOrder(ranks) => ranks[idx as usize] as f64,
            QueueDiscipline::Policy(policy) => {
                policy.score(&task_view(self.config, job, job.submit))
            }
            // A static compiled policy pays its one and only evaluation
            // here, through the scalar kernel: prefix into the reusable
            // slot row, then the residual at `w = 0`.
            QueueDiscipline::Compiled(cp) => cp.score_scalar(
                self.config.decision_time(job.runtime, job.estimate),
                job.cores as f64,
                job.submit,
                0.0,
                &mut self.scratch.slot_row,
                &mut self.scratch.vm_stack,
            ),
        }
    }

    pub(super) fn enqueue(&mut self, idx: u32) {
        let job = self.trace.job(idx as usize);
        let entry = QueueEntry {
            idx,
            job,
            started: false,
        };
        if self.track_releases {
            self.st.narrowest = self.st.narrowest.min(job.cores);
        }
        if self.queue_order == QueueOrder::TimeDependent {
            self.st.queue.push(entry);
            self.st.q_keys.push(0.0);
            if self.track_lanes {
                let r = self.config.decision_time(job.runtime, job.estimate);
                self.st.q_r.push(r);
                self.st.q_n.push(job.cores as f64);
                self.st.q_s.push(job.submit);
                self.st
                    .q_slots
                    .extend_from_slice(self.scratch.static_lanes.row(idx as usize));
            }
            return;
        }
        // Static disciplines keep the live window in priority order: insert
        // at the upper bound of the new key (bisected over the window of
        // the dense SoA key array), so equal keys land *after* their peers
        // — the arrival-order tie-break of a stable sort. An insert at the
        // front of the window replaces the head, so any blocked-head fact
        // is invalidated.
        let key = self.static_key(idx, &job);
        let head = self.st.head;
        let live_keys = &self.st.q_keys[head..];
        let pos = head
            + if self.queue_order == QueueOrder::ByRank {
                live_keys.partition_point(|&k| k <= key)
            } else {
                live_keys.partition_point(|k| k.total_cmp(&key).is_le())
            };
        self.st.queue.insert(pos, entry);
        self.st.q_keys.insert(pos, key);
        self.st.head_blocked &= pos > head;
    }

    /// Re-key (and re-sort) a restored waiting queue under the *active*
    /// discipline. A checkpoint stores the queue keyed by the prefix
    /// discipline; a static-order resume under a different key table — the
    /// trial kernel forks an identity-ranked prefix under each trial's own
    /// permutation — would otherwise schedule the restored entries in the
    /// prefix's order. Re-keying uses the exact arrival-time scoring path
    /// (static scores are time-independent), so a same-discipline resume
    /// recomputes the checkpointed bits verbatim and the sort is a no-op.
    /// Time-dependent orders never enter: they re-score every pass anyway.
    /// A restored queue is its live window (`copy_from` leaves `head` 0).
    fn rescore_restored_queue(&mut self) {
        debug_assert_ne!(self.queue_order, QueueOrder::TimeDependent);
        debug_assert_eq!(self.st.head, 0);
        for qi in 0..self.st.queue.len() {
            let QueueEntry { idx, job, .. } = self.st.queue[qi];
            self.st.q_keys[qi] = self.static_key(idx, &job);
        }
        // Stable in-place co-sort of (q_keys, queue) — adjacent swaps only
        // on strict inversions preserve the restored arrival tie-break, and
        // the queue at a trial horizon is short enough that the quadratic
        // worst case is immaterial.
        for i in 1..self.st.queue.len() {
            let mut j = i;
            while j > 0 && self.st.q_keys[j - 1].total_cmp(&self.st.q_keys[j]).is_gt() {
                self.st.q_keys.swap(j - 1, j);
                self.st.queue.swap(j - 1, j);
                j -= 1;
            }
        }
    }

    /// Remove `idx` from the maintained release list. The stored decision
    /// end was computed from the same operands at start time, so the
    /// recomputation finds it bit-exactly; a miss means the release list
    /// disagrees with the running set — a structured error, not a panic.
    pub(super) fn remove_release(
        &mut self,
        idx: u32,
        start: f64,
        t: f64,
    ) -> Result<(), EngineError> {
        let job = self.trace.job(idx as usize);
        let dend = start + self.config.decision_time(job.runtime, job.estimate);
        let pos = self
            .st
            .releases
            .binary_search_by(|&(e, _, i)| e.total_cmp(&dend).then(i.cmp(&idx)))
            .map_err(|_| EngineError::ReleaseListInconsistent { idx, time: t })?;
        self.st.releases.remove(pos);
        Ok(())
    }

    fn complete(&mut self, idx: u32, t: f64) -> Result<(), EngineError> {
        let job = self.trace.job(idx as usize);
        let start = self.st.start_of[idx as usize];
        debug_assert!(!start.is_nan(), "completion for job that is not running");
        self.st.ledger.release(job.cores, t)?;
        // Freed cores may unblock the head; the next reschedule must look.
        self.st.head_blocked = false;
        if self.track_releases {
            self.remove_release(idx, start, t)?;
        }
        self.st.start_of[idx as usize] = f64::NAN;
        self.sink.record(CompletedJob {
            job,
            start,
            finish: t,
        });
        Ok(())
    }

    pub(super) fn start_job(&mut self, qi: usize, now: f64) -> Result<(), EngineError> {
        let QueueEntry { idx, job, .. } = self.st.queue[qi];
        self.st.ledger.allocate(job.cores, now)?;
        self.st.start_of[idx as usize] = now;
        if self.track_releases {
            let dend = now + self.config.decision_time(job.runtime, job.estimate);
            let at = match self
                .st
                .releases
                .binary_search_by(|&(e, _, i)| e.total_cmp(&dend).then(i.cmp(&idx)))
            {
                Err(at) => at,
                Ok(_) => return Err(EngineError::ReleaseListInconsistent { idx, time: now }),
            };
            self.st.releases.insert(at, (dend, job.cores, idx));
        }
        self.st.events.push(
            now + self.config.execution_time(job.runtime, job.estimate),
            (idx, self.faults.attempt_of[idx as usize]),
        );
        self.st.queue[qi].started = true;
        Ok(())
    }
}
