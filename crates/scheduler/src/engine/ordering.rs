//! Queue ordering: which waiting job is the `pos`-th in priority order.
//! Static disciplines keep the queue itself sorted at enqueue; this file is
//! the time-dependent half — full re-score and sort (interpreted), batch
//! re-score then heads on demand or a full sort (compiled).

use super::event_loop::Engine;
use super::{task_view, CompletionSink, EngineError, QueueDiscipline, QueueEntry, QueueOrder};
use dynsched_policies::{least_position, order_key, CompiledPolicy, Policy, ScoreLanes};
use dynsched_workload::TraceSource;

impl<K: CompletionSink, T: TraceSource> Engine<'_, '_, K, T> {
    /// Bring the priority order up to date for the pass at `now`. Only
    /// time-dependent policies come here; static disciplines keep the
    /// queue itself priority-sorted. Returns the queue position of the
    /// head where the batch kernel found it (compiled policies), `None`
    /// where the order says it.
    pub(super) fn reorder(&mut self, now: f64) -> Result<Option<usize>, EngineError> {
        // The policy references are copied out of the discipline (they
        // outlive `self`), so the call below can borrow `self` mutably.
        match *self.discipline {
            QueueDiscipline::Compiled(cp) => self.order_queue_compiled(cp, now),
            QueueDiscipline::Policy(policy) => {
                self.order_queue(policy, now);
                Ok(None)
            }
            QueueDiscipline::FixedOrder(_) => unreachable!("TimeDependent implies a policy"),
        }
    }

    /// Queue position holding the `pos`-th highest-priority job. Static
    /// disciplines keep the queue itself priority-sorted, so the order is
    /// the live window's; time-dependent policies read the order computed by
    /// [`Engine::reorder`] — which builds none under on-demand selection
    /// ([`next_head`]).
    #[inline]
    pub(super) fn ord(&self, pos: usize) -> usize {
        debug_assert!(!self.on_demand, "on-demand selection builds no order");
        if self.queue_order == QueueOrder::TimeDependent {
            self.scratch.order[pos]
        } else {
            self.st.head + pos
        }
    }

    /// Rebuild `order` (priority order of queue positions) for a
    /// time-dependent *interpreted* policy. Ordering semantics are
    /// identical to the reference engine: scores sort ascending with
    /// arrival order as tie-break, which makes the comparator total — so
    /// the non-allocating unstable sort produces the same permutation the
    /// reference's stable sort does. This path deliberately stays the
    /// score-everything/full-sort twin of the compiled on-demand layer
    /// (the `differential` harness pins the two against each other).
    fn order_queue(&mut self, policy: &dyn Policy, now: f64) {
        let scored = &mut self.scratch.scored;
        scored.clear();
        for (i, e) in self.st.queue.iter().enumerate() {
            let view = task_view(self.config, &e.job, now);
            let s = policy.score(&view);
            debug_assert!(
                !s.is_nan(),
                "policy {} produced NaN for {view:?}",
                policy.name()
            );
            scored.push((i, s));
        }
        scored.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        self.scratch.order.clear();
        self.scratch.order.extend(scored.iter().map(|&(i, _)| i));
    }

    /// Re-score the queue for a time-dependent *compiled* policy — one
    /// chunked batch pass over the SoA lanes into `batch_scores`, which
    /// also finds the head — then bring the priority order of queue
    /// positions up to date as far as the pass that follows will read it.
    /// Returns the head's queue position.
    ///
    /// Bit-identity argument: the comparator `(score, queue position)` is
    /// total and injective (positions are distinct), so the sorted
    /// permutation of any score vector is **unique**. Scores are always
    /// freshly evaluated; the backfill mode only chooses how much of the
    /// permutation is built (the module docs' *Compiled policy kernels*
    /// section describes the two shapes): the full sort builds all of it,
    /// and the sequence of minima [`next_head`] yields where no order is
    /// built at all walks the same one.
    fn order_queue_compiled(
        &mut self,
        cp: &CompiledPolicy,
        now: f64,
    ) -> Result<Option<usize>, EngineError> {
        let len = self.st.queue.len();
        if self.st.q_r.len() != len
            || self.st.q_n.len() != len
            || self.st.q_s.len() != len
            || self.st.q_slots.len() != len * cp.slot_count()
        {
            return Err(EngineError::ScoreLanesInconsistent {
                queued: len,
                time: now,
            });
        }
        // No zero-fill of the surviving prefix: the kernel overwrites
        // every element.
        self.scratch.batch_scores.resize(len, 0.0);
        let head = cp.score_batch(
            self.scratch.batch_scores.as_mut_slice(),
            ScoreLanes {
                r: self.st.q_r.as_slice(),
                n: self.st.q_n.as_slice(),
                s: self.st.q_s.as_slice(),
                slots: self.st.q_slots.as_slice(),
            },
            now,
            &mut self.scratch.batch_scratch,
        );
        debug_assert!(
            self.scratch.batch_scores.iter().all(|s| !s.is_nan()),
            "policy {} produced NaN at t={now}",
            cp.name()
        );
        if self.on_demand {
            return Ok(head);
        }
        let scores: &[f64] = &self.scratch.batch_scores;
        let order = &mut self.scratch.order;
        order.clear();
        order.extend(0..len);
        order.sort_unstable_by(|a, b| scores[*a].total_cmp(&scores[*b]).then(a.cmp(b)));
        Ok(head)
    }

    /// Debug check that a static discipline's queue is in priority order.
    pub(super) fn queue_is_priority_sorted(&self) -> bool {
        let keys = &self.st.q_keys[self.st.head..];
        match self.queue_order {
            QueueOrder::ByRank => keys.windows(2).all(|w| w[0] <= w[1]),
            QueueOrder::ByCachedScore => keys.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()),
            QueueOrder::TimeDependent => true,
        }
    }
}

/// The score an on-demand strict pass gives an entry it started: the NaN
/// whose [`order_key`] is `i64::MAX`, so the least-key search passes over
/// it while any waiting entry scores anything else.
pub(super) const STARTED: f64 = f64::from_bits(i64::MAX as u64);

/// On-demand head selection after the pass's first start: the queue
/// position the full-sort order would hold next, i.e. the minimum of the
/// not-yet-started entries under `(score.total_cmp, queue position)`.
/// Every entry ahead of it in that order has been started by this pass,
/// so successive calls walk the unique sorted permutation without ever
/// materializing it. (The first head of a pass, where most passes stop,
/// is the batch kernel's return value.)
///
/// The pass overwrites each entry it starts with the [`STARTED`] score,
/// so the head is [`least_position`] over the score lane alone, with no
/// read of the queue entries. The one exception is checked in O(1): a
/// waiting entry whose score has [`STARTED`]'s very bits ties with the
/// started ones, and if the search lands on a started entry, one scan
/// that filters on `started` decides. `None` when no waiting entry is
/// left.
pub(super) fn next_head(scores: &[f64], queue: &[QueueEntry]) -> Option<usize> {
    debug_assert_eq!(scores.len(), queue.len());
    let head = least_position(scores)?;
    if !queue[head].started {
        return Some(head);
    }
    let keyed = scores.iter().map(|&s| order_key(s)).enumerate();
    let waiting = keyed.zip(queue).filter(|(_, e)| !e.started);
    let head = waiting.map(|(keyed, _)| keyed).min_by_key(|&(_, key)| key);
    head.map(|(position, _)| position)
}
