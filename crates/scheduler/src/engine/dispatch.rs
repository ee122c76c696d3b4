//! One rescheduling pass: the strict policy starts, the two backfilling
//! variants, and what takes the jobs the pass started out of the queue — a
//! cursor moved over the front of the live window under a static order,
//! the compaction that carries the queue and its SoA lanes under a
//! time-dependent one.

use super::event_loop::Engine;
use super::ordering::{next_head, STARTED};
use super::{CompletionSink, EngineError};
use crate::config::BackfillMode;
use crate::profile::clamp_release;
use dynsched_policies::CompiledPolicy;
use dynsched_workload::TraceSource;

impl<K: CompletionSink, T: TraceSource> Engine<'_, '_, K, T> {
    /// Rebuild the availability profile at `now` from the maintained
    /// release list, applying the overdue clamp. The list is sorted by raw
    /// end time; clamping can only disorder it when an unclamped end falls
    /// inside the nudge window just past `now`, so the (rare) re-sort is
    /// behind a sortedness check.
    fn rebuild_profile(&mut self, now: f64) {
        let rel = &mut self.scratch.rel_scratch;
        rel.clear();
        let mut sorted = true;
        let mut prev = f64::NEG_INFINITY;
        for &(end, cores, _) in self.st.releases.iter() {
            let t = clamp_release(now, end);
            sorted &= prev <= t;
            prev = t;
            rel.push((t, cores));
        }
        if !sorted {
            rel.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        }
        self.scratch
            .profile
            .rebuild_from_sorted(now, self.st.ledger.available(), rel);
    }

    /// One step of the EASY backfill scan: start the waiting job
    /// at queue position `qi` if it fits now and either ends (by its
    /// decision-mode runtime) by the head's `shadow` time or uses only
    /// cores `spare` even then. Returns whether it started.
    fn try_backfill(
        &mut self,
        qi: usize,
        now: f64,
        shadow: f64,
        spare: &mut u32,
    ) -> Result<bool, EngineError> {
        let cand = self.st.queue[qi].job;
        if !self.st.ledger.fits(cand.cores) {
            return Ok(false);
        }
        let ends_by_shadow = now + self.config.decision_time(cand.runtime, cand.estimate) <= shadow;
        if !ends_by_shadow {
            if cand.cores > *spare {
                return Ok(false);
            }
            *spare -= cand.cores;
        }
        self.start_job(qi, now)?;
        self.st.backfilled += 1;
        Ok(true)
    }

    /// Whether fewer cores are free than any waiting job asks for: no
    /// backfilling mode can start anything until that changes. Meaningful
    /// only where the width is tracked (`track_releases`).
    #[inline]
    fn starved(&self) -> bool {
        self.st.ledger.available() < self.st.narrowest
    }

    pub(super) fn reschedule(&mut self, now: f64) -> Result<(), EngineError> {
        if self.st.waiting().is_empty() {
            return Ok(());
        }
        if self.track_releases {
            debug_assert_eq!(
                Some(self.st.narrowest),
                self.st.waiting().iter().map(|e| e.job.cores).min(),
                "narrowest-waiter width out of step with the queue"
            );
            if self.starved() {
                // Fast path: a start needs its cores free *now* in every
                // backfilling mode, and no waiter is that narrow. Nothing
                // the pass would build survives it (the order, the profile
                // and its reservations are per-pass scratch), so the
                // re-score is skipped along with it.
                return Ok(());
            }
        }
        let first_head = if self.time_dependent {
            self.reorder(now)?
        } else {
            debug_assert!(self.queue_is_priority_sorted());
            None
        };
        let len = self.st.waiting().len();
        let mut any_started = false;

        if self.config.backfill == BackfillMode::Conservative {
            // Every job gets the earliest reservation that delays nobody
            // ahead of it; jobs reserved for *now* start.
            self.rebuild_profile(now);
            // The walk ends at the last waiter narrow enough to start now
            // (one exists: the pass was not entered starved). A wider one
            // cannot start in this pass, and its reservation is only
            // observable through a later waiter that could (`profile`
            // module docs, *The early stop*).
            let available = self.st.ledger.available();
            let walk = (0..len)
                .rposition(|rank| self.st.queue[self.ord(rank)].job.cores <= available)
                .map_or(0, |last| last + 1);
            let mut reserved = 0;
            for rank in 0..walk {
                let qi = self.ord(rank);
                let job = self.st.queue[qi].job;
                let duration = self
                    .config
                    .decision_time(job.runtime, job.estimate)
                    .max(1e-9);
                // `None` only under reduced capacity: the profile may then
                // have no slot wide enough at any horizon (the job must
                // wait for a restore the profile cannot see); with full
                // capacity the width was pre-checked, so a fit always exists.
                let Some(start) = self.scratch.profile.reserve_earliest(job.cores, duration) else {
                    continue;
                };
                reserved += 1;
                // The ledger has the last word: a reservation whose length
                // the clock absorbed (`now + duration == now`) took nothing
                // from the profile, whose level at `now` then overstates
                // the free cores. Everywhere else the test is implied.
                if start == now && self.st.ledger.fits(job.cores) {
                    self.start_job(qi, now)?;
                    any_started = true;
                    if rank > 0 {
                        self.st.backfilled += 1;
                    }
                    if self.starved() {
                        // Nothing further down can start now, and a
                        // reservation that does not start now is only
                        // observable through a later job that could.
                        break;
                    }
                }
            }
            let stats = &mut self.st.conservative;
            stats.passes += 1;
            stats.queued += len as u64;
            stats.reserved += reserved;
            stats.passes_started += u64::from(any_started);
        } else {
            // Strict pass: start in priority order, stop at the first task
            // that does not fit (§4.2: "the scheduler waits"). `blocked` is
            // that task's (order position, queue position).
            let mut blocked: Option<(usize, usize)> = None;
            for pos in 0..len {
                let qi = if !self.on_demand {
                    self.ord(pos)
                } else if pos == 0 {
                    first_head.expect("the re-score finds a head in a non-empty queue")
                } else {
                    next_head(&self.scratch.batch_scores, &self.st.queue)
                        .expect("the pass visits at most one head per waiting entry")
                };
                let job = self.st.queue[qi].job;
                if self.st.ledger.fits(job.cores) {
                    self.start_job(qi, now)?;
                    any_started = true;
                    if self.on_demand {
                        // Later heads read the score lane alone.
                        self.scratch.batch_scores[qi] = STARTED;
                    }
                } else {
                    blocked = Some((pos, qi));
                    break;
                }
            }
            if self.config.backfill == BackfillMode::Aggressive {
                if let Some((head_pos, head_qi)) = blocked {
                    let head = self.st.queue[head_qi].job;
                    // Shadow time: when enough cores free up for the head,
                    // assuming running jobs finish at their decision-mode
                    // expected ends (clamped to now if overdue). The
                    // maintained list is sorted by raw end, and the clamp
                    // is monotone, so this walk sees clamped ends in
                    // sorted order without any re-sort.
                    let mut avail = self.st.ledger.available();
                    let mut shadow = now;
                    let mut spare = 0u32;
                    for &(end, cores, _) in self.st.releases.iter() {
                        avail += cores;
                        if avail >= head.cores {
                            shadow = end.max(now);
                            spare = avail - head.cores;
                            break;
                        }
                    }
                    // Backfill pass over the rest of the queue in priority
                    // order: a candidate may start if it fits now and
                    // either finishes (by its decision-mode runtime) before
                    // the shadow time, or only uses cores spare even at the
                    // shadow time.
                    if self.on_demand {
                        // Everything ahead of the head was started, so the
                        // rest of the order is the waiting entries minus
                        // the head. Availability only falls during the
                        // scan and a candidate that does not fit is skipped
                        // without side effects, so sorting just the ones
                        // that fit *now* (the blocked head is not one)
                        // visits the same jobs in the same order as
                        // walking the full order.
                        self.scratch.scored.clear();
                        for (i, (e, &s)) in self
                            .st
                            .queue
                            .iter()
                            .zip(&self.scratch.batch_scores)
                            .enumerate()
                        {
                            if !e.started && self.st.ledger.fits(e.job.cores) {
                                self.scratch.scored.push((i, s));
                            }
                        }
                        self.scratch
                            .scored
                            .sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                        for k in 0..self.scratch.scored.len() {
                            let qi = self.scratch.scored[k].0;
                            any_started |= self.try_backfill(qi, now, shadow, &mut spare)?;
                        }
                    } else {
                        for pos in head_pos + 1..len {
                            let qi = self.ord(pos);
                            any_started |= self.try_backfill(qi, now, shadow, &mut spare)?;
                        }
                    }
                }
            }
        }

        if any_started {
            if self.time_dependent {
                self.compact();
            } else {
                self.advance_window();
            }
        }
        Ok(())
    }

    /// Static orders: take the entries the pass started out of the live
    /// window. The queue is the priority order and the strict pass starts
    /// in that order up to the first job that does not fit, so its starts
    /// are a leading run of the window: the cursor moves over them and no
    /// entry moves. A backfilling pass may also have started jobs behind
    /// the blocked head; those are compacted out inside the window. Either
    /// way the survivors are the sequence a full rewrite would have left
    /// (module docs, *Live window*).
    fn advance_window(&mut self) {
        let st = &mut *self.st;
        let mut head = st.head;
        while st.queue.get(head).is_some_and(|e| e.started) {
            head += 1;
        }
        if self.track_releases {
            let mut w = head;
            for r in head..st.queue.len() {
                if !st.queue[r].started {
                    if w != r {
                        st.queue[w] = st.queue[r];
                        st.q_keys[w] = st.q_keys[r];
                    }
                    w += 1;
                }
            }
            st.queue.truncate(w);
            st.q_keys.truncate(w);
            let widths = st.queue[head..].iter().map(|e| e.job.cores);
            st.narrowest = widths.min().unwrap_or(u32::MAX);
        }
        debug_assert!(st.queue[head..].iter().all(|e| !e.started));
        // Reclaim the dead prefix once it outgrows the window. The drain
        // moves fewer entries than were removed since the last one, so it
        // is amortised O(1) per removed entry, and the `Vec` stays within
        // twice the live queue; an emptied window is the same test.
        if head > st.queue.len() - head {
            st.queue.drain(..head);
            st.q_keys.drain(..head);
            head = 0;
        }
        st.head = head;
    }

    /// Time-dependent orders: drop the entries the pass started, which lie
    /// anywhere in the arrival-ordered queue. Compacts `queue` — plus the
    /// compiled batch-scoring input lanes in lockstep when they are
    /// maintained, indexed by queue position from 0 (`head` stays 0 here;
    /// there is no key lane).
    fn compact(&mut self) {
        debug_assert_eq!(self.st.head, 0);
        let stride = self.lanes.map_or(0, CompiledPolicy::slot_count);
        let mut w = 0usize;
        for r in 0..self.st.queue.len() {
            if !self.st.queue[r].started {
                if w != r {
                    self.st.queue[w] = self.st.queue[r];
                    if self.lanes.is_some() {
                        self.st.q_r[w] = self.st.q_r[r];
                        self.st.q_n[w] = self.st.q_n[r];
                        self.st.q_s[w] = self.st.q_s[r];
                        self.st
                            .q_slots
                            .copy_within(r * stride..(r + 1) * stride, w * stride);
                    }
                }
                w += 1;
            }
        }
        self.st.queue.truncate(w);
        if self.lanes.is_some() {
            self.st.q_r.truncate(w);
            self.st.q_n.truncate(w);
            self.st.q_s.truncate(w);
            self.st.q_slots.truncate(w * stride);
        }
        if self.track_releases {
            // A pass of its own, not a fold into the loop above: strict
            // time-dependent replays run that loop without tracking the
            // width, and the fold would put this test in it per entry.
            let widths = self.st.queue.iter().map(|e| e.job.cores);
            self.st.narrowest = widths.min().unwrap_or(u32::MAX);
        }
    }
}
