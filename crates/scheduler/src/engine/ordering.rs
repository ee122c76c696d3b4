//! Queue ordering: which waiting job is the `pos`-th in priority order.
//! Static disciplines keep the queue itself sorted at enqueue; this file is
//! the time-dependent half — full re-score and sort (interpreted), batch
//! re-score then heads on demand or a full sort (compiled).

use super::event_loop::Engine;
use super::{task_view, CompletionSink, EngineError, QueueDiscipline, QueueEntry, QueueOrder};
use dynsched_policies::{CompiledPolicy, Policy, ScoreLanes};
use dynsched_workload::TraceSource;

impl<K: CompletionSink, T: TraceSource> Engine<'_, '_, K, T> {
    /// Bring the priority order up to date for the pass at `now`. Only
    /// time-dependent policies come here; static disciplines keep the
    /// queue itself priority-sorted.
    pub(super) fn reorder(&mut self, now: f64) -> Result<(), EngineError> {
        // The policy references are copied out of the discipline (they
        // outlive `self`), so the call below can borrow `self` mutably.
        match *self.discipline {
            QueueDiscipline::Compiled(cp) => self.order_queue_compiled(cp, now),
            QueueDiscipline::Policy(policy) => {
                self.order_queue(policy, now);
                Ok(())
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
    /// (the `incremental_rescore` suite pins the two against each other).
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
    /// chunked batch pass over the SoA lanes into `batch_scores` —
    /// then bring the priority order of queue positions up to date as far
    /// as the pass that follows will read it.
    ///
    /// Bit-identity argument: the comparator `(score, queue position)` is
    /// total and injective (positions are distinct), so the sorted
    /// permutation of any score vector is **unique**. Scores are always
    /// freshly evaluated; the backfill mode only chooses how much of the
    /// permutation is built (the module docs' *Compiled policy kernels*
    /// section describes the two shapes): the full sort builds all of it,
    /// and the sequence of minima [`next_head`] yields where no order is
    /// built at all walks the same one.
    fn order_queue_compiled(&mut self, cp: &CompiledPolicy, now: f64) -> Result<(), EngineError> {
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
        cp.score_batch(
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
            return Ok(());
        }
        let scores: &[f64] = &self.scratch.batch_scores;
        let order = &mut self.scratch.order;
        order.clear();
        order.extend(0..len);
        order.sort_unstable_by(|a, b| scores[*a].total_cmp(&scores[*b]).then(a.cmp(b)));
        Ok(())
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

/// On-demand head selection: the queue position the full-sort order
/// would hold next, i.e. the minimum of the not-yet-started entries under
/// `(score.total_cmp, queue position)`. One linear scan: scores compare
/// as [`order_key`]s and `min_by_key` keeps the first of equal keys, which
/// is the lowest-position tie-break. Every entry ahead of it in that
/// order has been started by this pass, so successive calls walk the
/// unique sorted permutation without ever materializing it.
///
/// `nothing_started` is the caller's word that no entry is started yet —
/// true for the first head of a pass, where most passes stop — so that
/// scan reads the 8-byte score lane alone, never the queue entries.
/// `None` when no waiting entry is left.
pub(super) fn next_head(
    scores: &[f64],
    queue: &[QueueEntry],
    nothing_started: bool,
) -> Option<usize> {
    debug_assert_eq!(scores.len(), queue.len());
    let keyed = scores.iter().map(|&s| order_key(s)).enumerate();
    let head = if nothing_started {
        debug_assert!(queue.iter().all(|e| !e.started));
        keyed.min_by_key(|&(_, key)| key)
    } else {
        keyed
            .zip(queue)
            .filter(|(_, e)| !e.started)
            .map(|(keyed, _)| keyed)
            .min_by_key(|&(_, key)| key)
    };
    head.map(|(position, _)| position)
}

/// `f64::total_cmp`'s order as an integer: `order_key(a) < order_key(b)`
/// iff `a.total_cmp(&b).is_lt()` (so `-0.0 < +0.0`, and equal bits give
/// equal keys). It is `total_cmp`'s own bit transform, applied once per
/// element instead of twice per comparison.
#[inline]
pub(crate) fn order_key(score: f64) -> i64 {
    let bits = score.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}
