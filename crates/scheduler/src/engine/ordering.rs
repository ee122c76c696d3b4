//! Queue ordering: which waiting job is the `pos`-th in priority order.
//! A static discipline keeps the queue itself sorted at enqueue, by one
//! `u64` key per entry ([`score_key`] of a cached score, or the rank
//! itself); a time-dependent one, compiled or interpreted, re-scores the
//! queue into the score lane at every pass, then picks heads on demand or
//! full-sorts by backfill mode alone.

use super::event_loop::Engine;
use super::{task_view, CompletionSink, EngineError, QueueDiscipline, QueueEntry};
use dynsched_policies::{least_position, order_key, CompiledPolicy, ScoreLanes};
use dynsched_workload::TraceSource;

/// A cached score as a static key: [`order_key`] moved to the unsigned
/// range, so `score_key(a) < score_key(b)` iff `a.total_cmp(&b).is_lt()`
/// and equal bits give equal keys. Ranks share the lane as they are.
#[inline]
pub(super) fn score_key(score: f64) -> u64 {
    order_key(score) as u64 ^ (1 << 63)
}

impl<K: CompletionSink, T: TraceSource> Engine<'_, '_, K, T> {
    /// Re-score the queue for the pass at `now` into `batch_scores`, then
    /// bring the priority order of queue positions up to date as far as the
    /// pass that follows will read it. Only time-dependent policies come
    /// here. Returns the head's queue position.
    ///
    /// A compiled policy is one chunked batch pass over the SoA lanes,
    /// which also finds the head; an interpreted one is one
    /// [`Policy::score`](dynsched_policies::Policy::score) per entry, then
    /// [`least_position`]. What follows depends on the backfill mode alone
    /// (the module docs' *Compiled policy kernels* section describes the
    /// two shapes): on-demand selection builds no order, a conservative
    /// pass full-sorts.
    ///
    /// Bit-identity argument: the comparator `(score, queue position)` is
    /// total and injective (positions are distinct), so the sorted
    /// permutation of any score vector is **unique**, and the reference's
    /// stable sort builds it too. Scores are always freshly evaluated; the
    /// full sort builds all of the permutation, and the sequence of minima
    /// [`next_head`] yields where no order is built at all walks the same
    /// one.
    pub(super) fn reorder(&mut self, now: f64) -> Result<Option<usize>, EngineError> {
        // The policy references are copied out of the discipline (they
        // outlive `self`), so the calls below can borrow `self` mutably.
        let head = match *self.discipline {
            QueueDiscipline::Compiled(cp) => self.score_compiled(cp, now)?,
            QueueDiscipline::Policy(policy) => {
                let scores = &mut self.scratch.batch_scores;
                scores.clear();
                for e in &self.st.queue {
                    scores.push(policy.score(&task_view(self.config, &e.job, now)));
                }
                least_position(scores)
            }
            QueueDiscipline::FixedOrder(_) => unreachable!("a time-dependent order has a policy"),
        };
        let scores: &[f64] = &self.scratch.batch_scores;
        debug_assert!(
            scores.iter().all(|s| !s.is_nan()),
            "the policy produced NaN at t={now}"
        );
        if !self.on_demand {
            let order = &mut self.scratch.order;
            order.clear();
            order.extend(0..scores.len());
            order.sort_unstable_by(|a, b| scores[*a].total_cmp(&scores[*b]).then(a.cmp(b)));
        }
        Ok(head)
    }

    /// Queue position holding the `pos`-th highest-priority job. Static
    /// disciplines keep the queue itself priority-sorted, so the order is
    /// the live window's; time-dependent policies read the order computed by
    /// [`Engine::reorder`] — which builds none under on-demand selection
    /// ([`next_head`]).
    #[inline]
    pub(super) fn ord(&self, pos: usize) -> usize {
        debug_assert!(!self.on_demand, "on-demand selection builds no order");
        if self.time_dependent {
            self.scratch.order[pos]
        } else {
            self.st.head + pos
        }
    }

    /// Batch re-score for a compiled policy, after an O(1) check that the
    /// SoA lanes are in lockstep with the queue. Returns the head the
    /// kernel found.
    fn score_compiled(
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
        Ok(cp.score_batch(
            self.scratch.batch_scores.as_mut_slice(),
            ScoreLanes {
                r: self.st.q_r.as_slice(),
                n: self.st.q_n.as_slice(),
                s: self.st.q_s.as_slice(),
                slots: self.st.q_slots.as_slice(),
            },
            now,
            &mut self.scratch.batch_scratch,
        ))
    }

    /// Debug check that a static discipline's live window is in priority
    /// order.
    pub(super) fn queue_is_priority_sorted(&self) -> bool {
        let keys = &self.st.q_keys[self.st.head..];
        keys.windows(2).all(|w| w[0] <= w[1])
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
/// is [`Engine::reorder`]'s return value.)
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
