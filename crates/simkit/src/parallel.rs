//! Deterministic data-parallel experiment driving.
//!
//! The training stage of the paper runs hundreds of thousands of independent
//! trial simulations. We fan them out over an in-tree scoped thread pool
//! (`std::thread::scope` + one supervised worker loop that claims parts of
//! the output off a `Mutex`-guarded tail; the workspace has no external
//! dependencies, so no rayon), but keep results bit-identical to a
//! sequential run by deriving each task's RNG stream from
//! `(master seed, task index)` — never from thread identity.
//!
//! # Determinism contract
//!
//! Every driver here guarantees: output slot `i` depends only on the master
//! seed and `i`, and the returned vector is ordered by index. Worker threads
//! claim contiguous chunks of indices dynamically, front to back, and the
//! chunks shrink as the unclaimed tail does (guided self-scheduling,
//! Polychronopoulos & Kuck, IEEE Trans. Computers 1987), so the last
//! claims are single indices and the workers finish together. Scheduling
//! varies run to run — but since no per-task state leaks between indices
//! (worker-local state handed out by [`run_scoped`] must be *reset* by the
//! closure, never read), results do not. A randomized task forks its
//! stream inside the closure: `master.fork(i as u64)`.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

thread_local! {
    static WORKER_LIMIT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Run `f` with every fan-out on *this* thread capped at `limit` worker
/// threads. Exists so tests can prove results are identical at any pool
/// width; production code should let the drivers size themselves.
pub fn with_worker_limit<R>(limit: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            WORKER_LIMIT.with(|c| c.set(self.0));
        }
    }
    // Restore on unwind too: a panicking closure (an assertion in a test)
    // must not pin this thread to the override for later callers.
    let _restore = Restore(WORKER_LIMIT.with(|c| c.replace(Some(limit.max(1)))));
    f()
}

/// Number of worker threads for `count` tasks.
fn worker_count(count: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    WORKER_LIMIT.with(Cell::get).unwrap_or(hw).min(count).max(1)
}

/// Worker threads a large fan-out would use on this thread right now: the
/// host's available parallelism, or the [`with_worker_limit`] override if
/// one is active. Purely informational (the benchmark records it next to
/// its timings so cross-machine trajectories stay comparable); results
/// never depend on it — that is the determinism contract above.
pub fn max_workers() -> usize {
    worker_count(usize::MAX)
}

/// A worker closure panicked inside a supervised fan-out. The pool caught
/// the unwind, stopped the remaining workers, joined the scope cleanly
/// and dropped every already-completed slot — no leaks, no abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolError {
    /// The task index whose closure panicked, or [`usize::MAX`] if a
    /// worker panicked while building its per-worker state (`init`).
    pub slot: usize,
    /// The panic payload, stringified (`&str` / `String` payloads verbatim;
    /// anything else is summarized).
    pub message: String,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.slot == usize::MAX {
            write!(
                f,
                "worker panicked while building its state: {}",
                self.message
            )
        } else {
            write!(f, "worker panicked at slot {}: {}", self.slot, self.message)
        }
    }
}

impl std::error::Error for PoolError {}

/// `(failing slot, original panic payload)` — kept as the payload so the
/// panicking drivers can re-raise it unchanged.
type PanicAt = (usize, Box<dyn Any + Send>);

impl PoolError {
    fn from_panic((slot, payload): PanicAt) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        PoolError { slot, message }
    }
}

/// The one supervised worker loop both drivers run. Part `k` starts at
/// offset `start` of `out` (`out.len()` minus the unclaimed tail's length)
/// and is the next `part_len(k, start)` elements (`None`: no more parts),
/// split off the front of the unclaimed tail with `split_at_mut`, in
/// order. Each worker builds its state with `init`, then runs `run(k,
/// start, part, &mut state, &mut at)` on the parts it claims; `at` starts
/// at `k` and names the slot a panic is blamed on. `workers` threads work;
/// the caller is one of them if `caller_works`, otherwise it only joins.
///
/// `init` and every `run` go under [`catch_unwind`]: the first panic, with
/// its slot (`init`'s is [`usize::MAX`]), stops the claiming and comes
/// back after the scope joins. [`AssertUnwindSafe`] is sound because on
/// failure the worker states and all partial output are discarded, never
/// observed. Which of several concurrent panics is "first" depends on
/// scheduling; any of them makes the run a failed one.
fn supervise<X, S>(
    out: &mut [X],
    part_len: impl Fn(usize, usize) -> Option<usize> + Sync,
    workers: usize,
    caller_works: bool,
    init: impl Fn() -> S + Sync,
    run: impl Fn(usize, usize, &mut [X], &mut S, &mut usize) + Sync,
) -> Option<PanicAt>
where
    X: Send,
{
    // `(next part, unclaimed tail)`: a claim takes its length before the
    // tail, and always advances.
    let total = out.len();
    let rest = Mutex::new((0, out));
    let stop = AtomicBool::new(false);
    let failure: Mutex<Option<PanicAt>> = Mutex::new(None);
    let fail = |slot, payload| {
        stop.store(true, Ordering::Relaxed);
        // The lock covers one `Option` write, which cannot panic.
        let mut first = failure.lock().unwrap_or_else(PoisonError::into_inner);
        first.get_or_insert((slot, payload));
    };
    let work = || {
        let mut state = match catch_unwind(AssertUnwindSafe(&init)) {
            Ok(state) => state,
            Err(payload) => return fail(usize::MAX, payload),
        };
        while !stop.load(Ordering::Relaxed) {
            // The lock covers `part_len` and an in-range split, which the
            // drivers keep panic-free, so a poisoned lock still guards a
            // valid tail.
            let mut claim = rest.lock().unwrap_or_else(PoisonError::into_inner);
            let (k, start) = (claim.0, total - claim.1.len());
            let Some(len) = part_len(k, start) else { break };
            let (part, tail) = std::mem::take(&mut claim.1).split_at_mut(len);
            *claim = (k + 1, tail);
            drop(claim);
            let mut at = k;
            let ran = catch_unwind(AssertUnwindSafe(|| {
                run(k, start, part, &mut state, &mut at)
            }));
            if let Err(payload) = ran {
                return fail(at, payload);
            }
        }
    };
    std::thread::scope(|scope| {
        for _ in usize::from(caller_works)..workers {
            scope.spawn(work);
        }
        if caller_works {
            work();
        }
    });
    failure.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// Indices a fan-out claim takes when `remaining` of them are unclaimed on
/// `workers` workers: an eighth of a worker's share of what is left, and
/// at least one. The first claim is `count / 8w`; later claims shrink with
/// the tail down to single indices, so no worker is left alone with a long
/// last chunk, and a fan-out of `count` takes at most `8w · (ln count + 2)`
/// claims.
fn claim_len(remaining: usize, workers: usize) -> usize {
    (remaining / (workers * 8)).max(1)
}

/// Core fan-out: run `f(index, &mut worker_state)` for every index in
/// `0..count` on a scoped thread pool, collecting results in index order.
/// `init` is called once per worker thread to build its reusable state.
/// Workers claim shrinking chunks ([`claim_len`]) of a fully initialized
/// `Vec<Option<T>>`, so on a panic every slot completed so far is dropped
/// with it, not leaked. One worker runs inline and pushes straight into
/// the `Vec<T>`.
fn fan_out_supervised<T, S, I, F>(count: usize, init: I, f: F) -> Result<Vec<T>, PanicAt>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> T + Sync,
{
    if count == 0 {
        return Ok(Vec::new());
    }
    let workers = worker_count(count);
    if workers == 1 {
        let mut state = catch_unwind(AssertUnwindSafe(&init)).map_err(|p| (usize::MAX, p))?;
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            match catch_unwind(AssertUnwindSafe(|| f(i, &mut state))) {
                Ok(value) => out.push(value),
                Err(payload) => return Err((i, payload)),
            }
        }
        return Ok(out);
    }

    let mut out: Vec<Option<T>> = (0..count).map(|_| None).collect();
    // Chunks sized from the unclaimed tail as it is claimed: large ones
    // first keep the claim lock cold, single indices last balance uneven
    // task costs. Sized lazily: a prototype that cut fixed chunks into a
    // `Vec` here, before the spawn, read `train_wide` at 8.8–9.05 MB peak
    // RSS on 10/10 runs, against 6.9–7.3 MB (heap layout).
    let chunk_len = |_, start: usize| (start < count).then(|| claim_len(count - start, workers));
    // The caller only joins: when it worked as one of the workers,
    // `train_wide` read 8.5–8.8 MB peak RSS on 6/6 runs, against 6.9–7.3.
    let fill = |_, start, part: &mut [Option<T>], state: &mut S, at: &mut usize| {
        for (i, slot) in (start..).zip(part) {
            *at = i;
            *slot = Some(f(i, state));
        }
    };
    match supervise(&mut out, chunk_len, workers, false, &init, fill) {
        Some(panic_at) => Err(panic_at),
        // Joined without a panic: every chunk was claimed and filled.
        None => Ok(out
            .into_iter()
            .map(|slot| slot.expect("joined scope left a slot unfilled"))
            .collect()),
    }
}

/// Supervised twin of [`run_scoped`]: same determinism contract, but a
/// panicking closure yields `Err(`[`PoolError`]`)` — naming the failing
/// slot and carrying the stringified payload — instead of unwinding
/// through the caller. Completed slots are dropped, not leaked, and the
/// thread scope joins cleanly either way.
pub fn try_run_scoped<T, S, I, F>(count: usize, init: I, f: F) -> Result<Vec<T>, PoolError>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> T + Sync,
{
    fan_out_supervised(count, init, f).map_err(PoolError::from_panic)
}

/// Deterministic scoped fan-out: run `f(i, &mut state)` for every `i` in
/// `0..count` on the pool, collecting results in index order. `init` builds
/// one reusable state per worker thread (the evaluation session and the
/// trial kernel hand each worker a simulation workspace this way).
///
/// Determinism: `state` is worker-local and survives across the indices a
/// worker happens to process, so `f` must treat it as *scratch* — fully
/// reset before use, never read to influence the result. Under that
/// contract slot `i` depends only on `i` (and, for randomized work, on the
/// stream `f` forks from `(master seed, i)`) and is bit-identical for any
/// thread count.
///
/// The panicking shell around `fan_out_supervised`: the first worker
/// panic is re-raised on the caller thread after a clean join, without
/// leaking completed slots.
pub fn run_scoped<T, S, I, F>(count: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> T + Sync,
{
    match fan_out_supervised(count, init, f) {
        Ok(out) => out,
        Err((_slot, payload)) => resume_unwind(payload),
    }
}

/// Parallel map over a slice, output in input order, handing each worker
/// thread a reusable state built by `init` — the batched evaluation
/// session uses this to give every worker one simulation workspace that is
/// cleared, not reallocated, between the cells it executes. Same scratch
/// contract as [`run_scoped`].
pub fn par_map_scoped<T, U, S, I, F>(items: &[T], init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&T, &mut S) -> U + Sync,
{
    run_scoped(items.len(), init, |i, state| f(&items[i], state))
}

/// Disjoint-slice fan-out: cut `out` at `bounds` and run
/// `f(p, &mut out[bounds[p]..bounds[p + 1]])` once for every part `p`, on
/// the pool. For a kernel that *writes its result in place* — each worker
/// fills (and first-touches) its own stretch of one shared output, nothing
/// is collected or concatenated afterwards. `T` may be
/// [`MaybeUninit`](std::mem::MaybeUninit): the parts of a `Vec`'s spare
/// capacity.
///
/// `bounds` holds one offset more than there are parts: it starts at 0,
/// never decreases (a part may be empty — `f` still sees it) and ends at
/// `out.len()`. The sub-slices come from `split_at_mut`, so disjointness
/// is the borrow checker's, not an index argument. Parts are claimed in
/// order by at most [`max_workers`] threads, the caller's among them; one
/// worker (one part, or [`with_worker_limit`]`(1)`) runs every part on the
/// caller's thread and spawns nothing. The determinism contract is the
/// caller's to keep: `f(p, _)` may depend on `p` alone.
///
/// Supervised like the other drivers: a panicking part stops the claiming,
/// the scope joins, and the payload is re-raised here. `out` is then only
/// partly written — a caller filling a `Vec`'s spare capacity sets the
/// length after this returns, and so never observes that.
///
/// # Panics
/// Panics if `bounds` is not such a tiling of `out`, and re-raises the
/// first panic of `f`.
pub fn for_each_part_mut<T, F>(out: &mut [T], bounds: &[usize], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    // Caller contract; it also keeps every claim's split in range.
    assert!(
        bounds.first() == Some(&0)
            && bounds.last() == Some(&out.len())
            && bounds.windows(2).all(|w| w[0] <= w[1]),
        "part bounds must run from 0 to the output's length and never decrease"
    );
    let workers = worker_count(bounds.len() - 1);
    let part_len = |p: usize, _| Some(bounds.get(p + 1)? - bounds[p]);
    // The caller works: when the federation merge's parts ran on spawned
    // threads while the caller only joined, `federate` read 99–104 MB peak
    // RSS on 5/8 runs, against 91.3–92.4 MB.
    let run = |p, _, part: &mut [T], _: &mut (), _: &mut usize| f(p, part);
    if let Some((_, payload)) = supervise(out, part_len, workers, true, || (), run) {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scoped_state_is_reusable_scratch() {
        // The worker-local buffer is cleared per task; results must be as if
        // each task had a fresh one.
        let master = Rng::new(99);
        let got = run_scoped(500, Vec::<u64>::new, |i, buf| {
            let mut rng = master.fork(i as u64);
            buf.clear();
            buf.extend((0..4).map(|_| rng.next_u64()));
            buf.iter().fold(i as u64, |a, &x| a.wrapping_add(x))
        });
        let want: Vec<u64> = (0..500u64)
            .map(|i| {
                let mut rng = master.fork(i);
                (0..4).fold(i, |a, _| a.wrapping_add(rng.next_u64()))
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn run_scoped_matches_sequential() {
        let got = run_scoped(321, Vec::<usize>::new, |i, buf| {
            buf.clear();
            buf.extend(0..i % 5);
            i * 3 + buf.len()
        });
        let want: Vec<usize> = (0..321).map(|i| i * 3 + i % 5).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn par_map_scoped_is_thread_count_independent() {
        let items: Vec<u64> = (0..400).collect();
        let eval = || {
            par_map_scoped(
                &items,
                || 0u64,
                |&x, scratch| {
                    *scratch = x; // reset, then use
                    *scratch * 2 + 1
                },
            )
        };
        let wide = eval();
        let narrow = with_worker_limit(1, eval);
        assert_eq!(wide, narrow);
        assert_eq!(wide[7], 15);
    }

    #[test]
    fn zero_count_is_fine() {
        let out: Vec<usize> = run_scoped(0, || (), |i, ()| i);
        assert!(out.is_empty());
        let empty: Vec<u8> = par_map_scoped(&[] as &[u8], || (), |&b, ()| b);
        assert!(empty.is_empty());
    }

    #[test]
    fn try_run_scoped_matches_run_scoped_on_success() {
        let ok = try_run_scoped(321, Vec::<usize>::new, |i, buf| {
            buf.clear();
            buf.extend(0..i % 5);
            i * 3 + buf.len()
        })
        .unwrap();
        let plain = run_scoped(321, Vec::<usize>::new, |i, buf| {
            buf.clear();
            buf.extend(0..i % 5);
            i * 3 + buf.len()
        });
        assert_eq!(ok, plain);
    }

    #[test]
    fn panicking_slot_yields_structured_error_at_any_width() {
        let eval = || {
            try_run_scoped(
                200,
                || (),
                |i, ()| {
                    if i == 57 {
                        panic!("slot {i} exploded");
                    }
                    i
                },
            )
        };
        for err in [
            eval().unwrap_err(),
            with_worker_limit(1, eval).unwrap_err(),
            with_worker_limit(4, eval).unwrap_err(),
        ] {
            assert_eq!(err.slot, 57);
            assert_eq!(err.message, "slot 57 exploded");
            assert!(err.to_string().contains("slot 57"));
        }
    }

    #[test]
    fn panicking_init_is_reported() {
        for limit in [1, 2, 4] {
            let err = with_worker_limit(limit, || {
                try_run_scoped(8, || -> () { panic!("no state for you") }, |i, ()| i)
            })
            .unwrap_err();
            assert_eq!(err.slot, usize::MAX, "limit {limit}");
            assert_eq!(err.message, "no state for you", "limit {limit}");
        }
    }

    #[test]
    fn completed_slots_are_dropped_not_leaked_on_panic() {
        use std::sync::Arc;

        #[derive(Debug)]
        struct Tracked(Arc<AtomicUsize>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        for limit in [1, 2, 4] {
            let built = Arc::new(AtomicUsize::new(0));
            let dropped = Arc::new(AtomicUsize::new(0));
            let err = with_worker_limit(limit, || {
                try_run_scoped(
                    500,
                    || (),
                    |i, ()| {
                        if i == 250 {
                            panic!("boom");
                        }
                        built.fetch_add(1, Ordering::SeqCst);
                        Tracked(Arc::clone(&dropped))
                    },
                )
            })
            .unwrap_err();
            assert_eq!(err.slot, 250, "limit {limit}");
            // Every value that was constructed must have been dropped when
            // the fan-out bailed out.
            let built = built.load(Ordering::SeqCst);
            assert_eq!(built, dropped.load(Ordering::SeqCst), "limit {limit}");
            // Claims run whole and in index order, so every slot claimed
            // ahead of slot 250's chunk completes.
            assert!(built > 0, "limit {limit}: some slots should complete");
        }
    }

    #[test]
    fn plain_drivers_still_unwind_with_the_original_payload() {
        let caught = std::panic::catch_unwind(|| {
            run_scoped(
                64,
                || (),
                |i, ()| {
                    if i == 3 {
                        panic!("original payload");
                    }
                    i
                },
            )
        })
        .unwrap_err();
        assert_eq!(
            caught.downcast_ref::<&str>().copied(),
            Some("original payload")
        );
    }

    #[test]
    fn every_part_is_visited_once_with_its_own_bounds() {
        // Zero-length parts at the front, in the middle and at the end.
        let bounds = [0, 0, 3, 3, 4, 10, 10];
        for limit in [None, Some(1), Some(2), Some(16)] {
            let mut out = vec![usize::MAX; 10];
            let seen = Mutex::new(Vec::new());
            let mut run = || {
                for_each_part_mut(&mut out, &bounds, |p, part| {
                    seen.lock().unwrap().push((p, part.len()));
                    part.fill(p);
                })
            };
            match limit {
                Some(limit) => with_worker_limit(limit, run),
                None => run(),
            }
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            let want: Vec<_> = bounds.windows(2).map(|w| w[1] - w[0]).enumerate().collect();
            assert_eq!(seen, want, "limit {limit:?}");
            assert_eq!(out, [1, 1, 1, 3, 4, 4, 4, 4, 4, 4], "limit {limit:?}");
        }
        // No parts at all: nothing to call.
        for_each_part_mut(&mut [] as &mut [u8], &[0], |_, _| unreachable!());
    }

    #[test]
    fn one_worker_runs_the_parts_inline_and_in_order() {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        with_worker_limit(1, || {
            for_each_part_mut(&mut [0u8; 9], &[0, 2, 4, 9], |p, _| {
                assert_eq!(std::thread::current().id(), caller);
                order.lock().unwrap().push(p);
            })
        });
        assert_eq!(order.into_inner().unwrap(), [0, 1, 2]);
    }

    #[test]
    fn panicking_part_is_re_raised_after_a_clean_join() {
        for limit in [1, 2, 4] {
            // The way the federation merge uses the driver: the parts are
            // a `Vec`'s spare capacity, and its length would be set only
            // after the driver returned — which it must not, here.
            let mut out: Vec<u64> = Vec::with_capacity(64);
            let entered = AtomicUsize::new(0);
            let left = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                with_worker_limit(limit, || {
                    let bounds: Vec<usize> = (0..=8).map(|p| p * 8).collect();
                    for_each_part_mut(&mut out.spare_capacity_mut()[..64], &bounds, |p, part| {
                        entered.fetch_add(1, Ordering::SeqCst);
                        if p == 2 {
                            left.fetch_add(1, Ordering::SeqCst);
                            panic!("part {p} exploded");
                        }
                        part.iter_mut().for_each(|slot| _ = slot.write(p as u64));
                        left.fetch_add(1, Ordering::SeqCst);
                    });
                });
                unreachable!("part 2 panics at every width");
            }))
            .unwrap_err();
            assert_eq!(
                caught.downcast_ref::<String>().map(String::as_str),
                Some("part 2 exploded"),
                "limit {limit}"
            );
            // Joined: every part that started has finished (inline, the
            // parts behind the panicking one never start), and nothing
            // the other parts wrote is observable.
            let entered = entered.into_inner();
            assert_eq!(entered, left.into_inner(), "limit {limit}");
            assert!(if limit == 1 {
                entered == 3
            } else {
                entered >= 1
            });
            assert!(out.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "part bounds must run from 0 to the output's length")]
    fn bounds_that_do_not_tile_the_output_are_refused() {
        for_each_part_mut(&mut [0u8; 4], &[0, 2, 3], |_, _| ());
    }

    #[test]
    #[should_panic(expected = "never decrease")]
    fn decreasing_bounds_are_refused_before_any_part_runs() {
        for_each_part_mut(&mut [0u8; 4], &[0, 3, 2, 4], |_, _| unreachable!());
    }

    #[test]
    fn non_copy_results_survive_the_collection_at_any_width() {
        let master = Rng::new(31);
        for limit in [1, 2, 4] {
            let out = with_worker_limit(limit, || {
                run_scoped(
                    300,
                    || (),
                    |i, ()| format!("{i}:{}", master.fork(i as u64).next_u64()),
                )
            });
            assert_eq!(out.len(), 300, "limit {limit}");
            for (i, s) in out.iter().enumerate() {
                assert!(s.starts_with(&format!("{i}:")), "limit {limit}");
            }
        }
    }

    #[test]
    fn claims_shrink_from_an_eighth_share_to_one_and_tile_the_count() {
        // Every count to 4 096, then a stride and the powers of two (and
        // their neighbours) up to 2^20.
        let mut counts: Vec<usize> = (1..=4_096).chain((4_096..=1 << 20).step_by(997)).collect();
        for p in 12..=20 {
            counts.extend([(1 << p) - 1, 1 << p, (1 << p) + 1]);
        }
        for w in 1..=5 {
            for &n in &counts {
                assert_eq!(
                    claim_len(n, w),
                    (n / (8 * w)).max(1),
                    "width {w}, count {n}"
                );
                let (mut remaining, mut last, mut claims) = (n, usize::MAX, 0usize);
                while remaining > 0 {
                    let len = claim_len(remaining, w);
                    assert!(
                        (1..=last.min(remaining)).contains(&len),
                        "width {w}, count {n}: claim {len} after {last}, {remaining} left"
                    );
                    (remaining, last, claims) = (remaining - len, len, claims + 1);
                }
                let bound = 8.0 * w as f64 * ((n as f64).ln() + 2.0);
                assert!(
                    claims as f64 <= bound,
                    "width {w}, count {n}: {claims} claims"
                );
            }
        }
    }

    #[test]
    fn every_index_runs_once_at_every_chunk_boundary_and_width() {
        // A fan-out of `n` tasks on `w` workers claims `max(r / 8w, 1)`
        // of the `r` indices still unclaimed: one at a time below `8w`,
        // otherwise chunks that shrink to one index as the tail does. A
        // claim that failed to advance would spin here forever.
        for w in 1..=5 {
            let per = 8 * w;
            for n in [1, per - 1, per, per + 1, per * 7, per * 7 + 3, per * 8 - 1] {
                let calls = AtomicUsize::new(0);
                let got = with_worker_limit(w, || {
                    run_scoped(
                        n,
                        || (),
                        |i, ()| {
                            calls.fetch_add(1, Ordering::Relaxed);
                            i
                        },
                    )
                });
                assert_eq!(got, (0..n).collect::<Vec<_>>(), "width {w}, count {n}");
                assert_eq!(calls.into_inner(), n, "width {w}, count {n}");
            }
        }
    }
}
