//! Generic discrete-event simulation core.
//!
//! [`EventQueue`] is a time-ordered event set with deterministic FIFO
//! tie-breaking: events scheduled at the same timestamp pop in the order
//! they were pushed. That determinism matters — the online scheduler
//! processes "arrival" and "completion" events that frequently coincide,
//! and replayability requires a total, insertion-stable order.
//!
//! The set is one array sorted by descending time, next event last: a pop
//! is `Vec::pop`, and a push binary-searches its slot and shifts the
//! events due at or before it up by one. The simulations here keep small
//! event sets (a tuple's trials never hold more than its running jobs),
//! the regime where a sorted list beats a heap (Jones, "An empirical
//! comparison of priority-queue and event-set implementations", CACM
//! 1986), and the insertion position alone keeps ties FIFO, so no event
//! carries a sequence number.

/// Simulation timestamps, in seconds since the start of the simulation.
pub type Time = f64;

/// A deterministic, time-ordered event queue.
///
/// # Example
/// ```
/// use dynsched_simkit::events::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(5.0, "b");
/// q.push(1.0, "a");
/// q.push(5.0, "c");
/// assert_eq!(q.pop(), Some((1.0, "a")));
/// assert_eq!(q.pop(), Some((5.0, "b"))); // FIFO among ties
/// assert_eq!(q.pop(), Some((5.0, "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Pending events by descending time (`f64::total_cmp`); among equal
    /// times the earliest pushed is last. The next event is the last.
    events: Vec<(Time, E)>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self { events: Vec::new() }
    }

    /// Create an empty queue with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            events: Vec::with_capacity(capacity),
        }
    }

    /// Schedule `event` at absolute time `time`, behind every pending
    /// event at the same time.
    ///
    /// Costs a binary search plus one move per pending event due at or
    /// before `time`, so pre-loading `n` events in time order costs O(n²)
    /// moves. The reference engine does that with every arrival: ≈ 32 MB
    /// of `memmove` at the ≤ 2 000-job inputs the benchmark and the
    /// differential harnesses give it, which does not show in whole-run
    /// times.
    ///
    /// # Panics
    /// Panics if `time` is NaN; a NaN timestamp is no instant the clock
    /// could ever advance to.
    pub fn push(&mut self, time: Time, event: E) {
        // Caller contract (`# Panics` above).
        assert!(!time.is_nan(), "event time must not be NaN");
        let at = self
            .events
            .partition_point(|e| e.0.total_cmp(&time).is_gt());
        self.events.insert(at, (time, event));
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.events.pop()
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.events.last().map(|e| e.0)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drop all pending events, keeping the allocation. This is what makes
    /// an [`EventQueue`] reusable across simulations: after `reset()` the
    /// queue behaves exactly like a freshly constructed one (same pop
    /// order for the same pushes), with no reallocation.
    pub fn reset(&mut self) {
        self.events.clear();
    }

    /// Make this queue an exact copy of `src` — same pending events in the
    /// same order, so it pops what `src` pops, and an event pushed after
    /// the restore ties exactly as it would have in `src`. Reuses this
    /// queue's allocation, so a warm destination performs no allocation.
    /// This is the engine checkpoint/fork primitive: capture once, restore
    /// per fork.
    ///
    /// The copy holds at least `src`'s capacity, not just its length, so
    /// the copies of one queue fall into the few size classes its growth
    /// passed through. Exact-length copies, one per checkpoint, cut glibc's
    /// free space into odd sizes: the trial kernel's 2 MB per-call output
    /// buffer then stopped fitting the hole the previous call left, and
    /// peak RSS of `paperbench`'s `train_wide` rose from 7.1 to 8.8 MB in
    /// most runs (2-vCPU Linux host).
    pub fn restore_from(&mut self, src: &Self)
    where
        E: Clone,
    {
        self.events.clear();
        self.events.reserve_exact(src.events.capacity());
        self.events.extend_from_slice(&src.events);
    }
}

/// A simulation clock that only moves forward.
///
/// Guards against the classic DES bug of processing an event earlier than
/// the current time (which silently reorders causality).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Clock {
    now: Time,
}

impl Clock {
    /// A clock starting at time 0.
    pub fn new() -> Self {
        Self { now: 0.0 }
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Advance to `t`.
    ///
    /// # Panics
    /// Panics if `t` is earlier than the current time (causality violation).
    pub fn advance_to(&mut self, t: Time) {
        // Invariant: callers advance to the time of the event they popped.
        assert!(
            t >= self.now,
            "clock moved backwards: now={} requested={}",
            self.now,
            t
        );
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, 3);
        q.push(1.0, 1);
        q.push(2.0, 2);
        assert_eq!(q.pop(), Some((1.0, 1)));
        assert_eq!(q.pop(), Some((2.0, 2)));
        assert_eq!(q.pop(), Some((3.0, 3)));
        assert!(q.is_empty());
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(7.0, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((7.0, i)));
        }
    }

    #[test]
    fn interleaved_ties_and_times() {
        let mut q = EventQueue::new();
        q.push(5.0, "t5-first");
        q.push(4.0, "t4");
        q.push(5.0, "t5-second");
        q.push(0.0, "t0");
        assert_eq!(q.pop().unwrap().1, "t0");
        assert_eq!(q.pop().unwrap().1, "t4");
        assert_eq!(q.pop().unwrap().1, "t5-first");
        assert_eq!(q.pop().unwrap().1, "t5-second");
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        q.push(9.0, ());
        q.push(2.5, ());
        assert_eq!(q.peek_time(), Some(2.5));
        q.pop();
        assert_eq!(q.peek_time(), Some(9.0));
    }

    #[test]
    #[should_panic]
    fn rejects_nan_time() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, ());
    }

    #[test]
    fn clock_advances() {
        let mut c = Clock::new();
        c.advance_to(1.0);
        c.advance_to(1.0); // same time allowed
        c.advance_to(5.0);
        assert_eq!(c.now(), 5.0);
    }

    #[test]
    #[should_panic]
    fn clock_rejects_backward_motion() {
        let mut c = Clock::new();
        c.advance_to(5.0);
        c.advance_to(4.0);
    }

    #[test]
    fn restore_from_replays_identically() {
        let mut src = EventQueue::new();
        src.push(5.0, "t5-first");
        src.push(4.0, "t4");
        src.push(5.0, "t5-second");
        src.pop(); // consume t4; the restored copy must not resurrect it
        let mut dst = EventQueue::new();
        dst.push(99.0, "stale"); // must be discarded by the restore
        dst.restore_from(&src);
        // Post-restore pushes continue the FIFO sequence exactly where the
        // source left off: a new same-time event ties *after* the pending
        // ones, just as it would have in `src`.
        dst.push(5.0, "t5-third");
        src.push(5.0, "t5-third");
        assert_eq!(dst.pop(), src.pop());
        assert_eq!(dst.pop(), src.pop());
        assert_eq!(dst.pop(), src.pop());
        assert_eq!(dst.pop(), None);
        assert_eq!(src.pop(), None);
    }

    #[test]
    fn len_tracks_push_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.len(), 0);
        q.push(1.0, ());
        q.push(2.0, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.reset();
        assert!(q.is_empty());
    }

    /// The pop order the engine and the reference engine share, as a
    /// model: a min-heap keyed by (time under `f64::total_cmp`, insertion
    /// sequence).
    #[derive(Default)]
    struct Model {
        heap: BinaryHeap<Reverse<(i64, u64, u32)>>,
        seq: u64,
        times: Vec<f64>,
    }

    impl Model {
        fn push(&mut self, time: f64, event: u32) {
            // `f64::total_cmp`'s order as an integer key.
            let bits = time.to_bits() as i64;
            let key = bits ^ (((bits >> 63) as u64) >> 1) as i64;
            self.heap.push(Reverse((key, self.seq, event)));
            self.seq += 1;
            self.times.push(time);
        }

        fn pop(&mut self) -> Option<(f64, u32)> {
            let Reverse((_, seq, event)) = self.heap.pop()?;
            Some((self.times[seq as usize], event))
        }
    }

    /// Exact bits, so `-0.0` and `0.0` differ.
    fn bits(e: Option<(f64, u32)>) -> Option<(u64, u32)> {
        e.map(|(t, ev)| (t.to_bits(), ev))
    }

    #[test]
    fn pops_as_a_heap_keyed_by_time_then_insertion() {
        use crate::Rng;
        const TIMES: [f64; 9] = [
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            1.0,
            1.0,
            2.5,
            1e300,
            f64::MAX,
            f64::INFINITY,
        ];
        let mut rng = Rng::new(0xE7E27);
        let mut q = EventQueue::new();
        let mut model = Model::default();
        // A second queue: dirty until a restore makes it a copy of `q`,
        // after which every operation goes to both.
        let mut copy = EventQueue::new();
        let mut mirrored = false;
        let (mut restores, mut resets, mut deepest) = (0, 0, 0);
        for op in 0..20_000u32 {
            match rng.next_below(200) {
                0..=109 => {
                    let t = *rng.choose(&TIMES);
                    q.push(t, op);
                    model.push(t, op);
                    let t = if mirrored { t } else { *rng.choose(&TIMES) };
                    copy.push(t, op);
                }
                110..=189 => {
                    let want = bits(model.pop());
                    assert_eq!(q.peek_time().map(f64::to_bits), want.map(|w| w.0));
                    assert_eq!(bits(q.pop()), want, "operation {op}");
                    if mirrored {
                        assert_eq!(bits(copy.pop()), want, "copy, operation {op}");
                    }
                }
                190..=197 => {
                    copy.restore_from(&q);
                    mirrored = true;
                    restores += 1;
                }
                _ => {
                    q.reset();
                    model = Model::default();
                    mirrored = false;
                    resets += 1;
                }
            }
            assert_eq!(q.len(), model.heap.len());
            assert_eq!(q.is_empty(), model.heap.is_empty());
            deepest = deepest.max(q.len());
        }
        assert!(restores > 100 && resets > 10 && deepest > 20);
    }
}
