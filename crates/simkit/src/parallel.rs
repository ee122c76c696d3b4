//! Deterministic data-parallel experiment driving.
//!
//! The training stage of the paper runs hundreds of thousands of independent
//! trial simulations. We fan them out over an in-tree scoped thread pool
//! (`std::thread::scope` + an atomic work counter; the build environment has
//! no crates.io access, so no rayon), but keep results bit-identical to a
//! sequential run by deriving each task's RNG stream from
//! `(master seed, task index)` — never from thread identity.
//!
//! # Determinism contract
//!
//! Every driver here guarantees: output slot `i` depends only on the master
//! seed and `i`, and the returned vector is ordered by index. Worker threads
//! claim contiguous chunks of indices dynamically, so scheduling varies run
//! to run — but since no per-task state leaks between indices (worker-local
//! state handed out by [`run_indexed_scoped`] must be *reset* by the closure,
//! never read), results do not.

use crate::rng::Rng;
use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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
/// one is active. Purely informational (the benches record it next to
/// their throughput numbers so cross-machine trajectories stay
/// comparable); results never depend on it — that is the determinism
/// contract above.
pub fn max_workers() -> usize {
    worker_count(usize::MAX)
}

/// Shareable raw pointer to the output buffer. Safety: workers write
/// disjoint index ranges (each index is claimed by exactly one chunk).
struct OutPtr<T>(*mut T);
unsafe impl<T: Send> Send for OutPtr<T> {}
unsafe impl<T: Send> Sync for OutPtr<T> {}

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

/// Record the first panic and tell every worker to stop claiming work.
/// When several workers panic concurrently, which one is "first" depends
/// on scheduling — acceptable, since any panic already makes the run a
/// failed one.
fn record_panic(
    stop: &AtomicBool,
    failure: &Mutex<Option<PanicAt>>,
    slot: usize,
    payload: Box<dyn Any + Send>,
) {
    stop.store(true, Ordering::Relaxed);
    let mut guard = match failure.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    if guard.is_none() {
        *guard = Some((slot, payload));
    }
}

/// Core fan-out: run `f(index, &mut worker_state)` for every index in
/// `0..count` on a scoped thread pool, collecting results in index order.
/// `init` is called once per worker thread to build its reusable state.
///
/// Supervision: each closure invocation runs under [`catch_unwind`]. On
/// the first panic the remaining workers stop claiming chunks, the scope
/// joins cleanly, every slot completed so far is dropped (the output
/// buffer is a fully initialized `Vec<Option<T>>`, so unwinding cannot
/// leak), and the original payload comes back as `Err`. The
/// [`AssertUnwindSafe`] is sound because on failure both the worker state
/// and all partial output are discarded, never observed.
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
    // Chunks small enough to balance uneven task costs, large enough to
    // keep the atomic counter cold.
    let chunk = (count / (workers * 8)).max(1);
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let failure: Mutex<Option<PanicAt>> = Mutex::new(None);
    let out_ptr = OutPtr(out.as_mut_ptr());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let out_ptr = &out_ptr;
                let mut state = match catch_unwind(AssertUnwindSafe(&init)) {
                    Ok(state) => state,
                    Err(payload) => {
                        record_panic(&stop, &failure, usize::MAX, payload);
                        return;
                    }
                };
                while !stop.load(Ordering::Relaxed) {
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= count {
                        break;
                    }
                    let end = (start + chunk).min(count);
                    for i in start..end {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        match catch_unwind(AssertUnwindSafe(|| f(i, &mut state))) {
                            // Safety: index `i` belongs to exactly one
                            // claimed chunk, so this write is race-free;
                            // the slot is inside the fully initialized
                            // buffer and currently `None`, so the implied
                            // drop of the old value is trivial.
                            Ok(value) => unsafe { *out_ptr.0.add(i) = Some(value) },
                            Err(payload) => {
                                record_panic(&stop, &failure, i, payload);
                                return;
                            }
                        }
                    }
                }
            });
        }
    });
    let failed = match failure.into_inner() {
        Ok(inner) => inner,
        Err(poisoned) => poisoned.into_inner(),
    };
    if let Some(panic_at) = failed {
        return Err(panic_at);
    }
    // The scope joined every worker and none panicked, so together they
    // filled every slot in 0..count exactly once; the join gives the
    // happens-before edge that makes the writes visible here.
    Ok(out
        .into_iter()
        .map(|slot| slot.expect("joined scope left a slot unfilled"))
        .collect())
}

/// Panicking shell around [`fan_out_supervised`]: historical behaviour
/// for the in-tree drivers — the first worker panic is re-raised on the
/// caller thread after a clean join (and, since the supervised rewrite,
/// without leaking completed slots).
fn fan_out<T, S, I, F>(count: usize, init: I, f: F) -> Vec<T>
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

/// Supervised twin of [`run_indexed_scoped`]: forked-RNG fan-out that
/// returns a structured [`PoolError`] instead of re-raising a worker
/// panic. Same scratch and determinism contract.
pub fn try_run_indexed_scoped<T, S, I, F>(
    master: &Rng,
    count: usize,
    init: I,
    f: F,
) -> Result<Vec<T>, PoolError>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut Rng, &mut S) -> T + Sync,
{
    try_run_scoped(count, init, |i, state| {
        let mut rng = master.fork(i as u64);
        f(i, &mut rng, state)
    })
}

/// Deterministic scoped fan-out without RNG: run `f(i, &mut state)` for
/// every `i` in `0..count` on the pool, collecting results in index order.
/// `init` builds one reusable state per worker thread (the evaluation
/// session hands each worker a simulation workspace this way). The scratch
/// contract of [`run_indexed_scoped`] applies: `f` must fully reset the
/// state before use, so slot `i` depends only on `i`.
pub fn run_scoped<T, S, I, F>(count: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> T + Sync,
{
    fan_out(count, init, f)
}

/// Like [`par_map`], but hands each worker thread a reusable state built by
/// `init` — the batched evaluation session uses this to give every worker
/// one simulation workspace that is cleared, not reallocated, between the
/// cells it executes. Same scratch contract as [`run_indexed_scoped`].
pub fn par_map_scoped<T, U, S, I, F>(items: &[T], init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&T, &mut S) -> U + Sync,
{
    fan_out(items.len(), init, |i, state| f(&items[i], state))
}

/// Run `count` independent jobs in parallel, each with its own forked RNG.
///
/// `f(index, rng)` is invoked once per index in `0..count`; the output vector
/// is ordered by index. Results are independent of thread scheduling,
/// because stream `i` depends only on `master.seed()` and `i`.
///
/// # Example
/// ```
/// use dynsched_simkit::rng::Rng;
/// use dynsched_simkit::parallel::run_indexed;
///
/// let master = Rng::new(42);
/// let par = run_indexed(&master, 64, |i, rng| (i, rng.next_u64()));
/// let seq: Vec<_> = (0..64u64).map(|i| (i as usize, master.fork(i).next_u64())).collect();
/// assert_eq!(par, seq);
/// ```
pub fn run_indexed<T, F>(master: &Rng, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut Rng) -> T + Sync,
{
    run_indexed_scoped(master, count, || (), |i, rng, ()| f(i, rng))
}

/// Like [`run_indexed`], but hands each worker thread a reusable state
/// built by `init` — the hook the batched trial kernel uses to give every
/// worker one simulation workspace that is cleared, not reallocated,
/// between trials.
///
/// Determinism: `state` is worker-local and survives across the indices a
/// worker happens to process, so `f` must treat it as *scratch* — fully
/// reset before use, never read to influence the result. Under that
/// contract the output for index `i` still depends only on
/// `(master.seed(), i)` and is bit-identical for any thread count.
pub fn run_indexed_scoped<T, S, I, F>(master: &Rng, count: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut Rng, &mut S) -> T + Sync,
{
    fan_out(count, init, |i, state| {
        let mut rng = master.fork(i as u64);
        f(i, &mut rng, state)
    })
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
/// worker (one part, or [`with_worker_limit`]`(1)`) runs every part inline
/// and spawns nothing. The determinism contract is the caller's to keep:
/// `f(p, _)` may depend on `p` alone.
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
    assert!(
        bounds.first() == Some(&0) && bounds.last() == Some(&out.len()),
        "part bounds must run from 0 to the output's length"
    );
    let mut rest = out;
    let mut parts = Vec::with_capacity(bounds.len() - 1);
    for w in bounds.windows(2) {
        let len = w[1]
            .checked_sub(w[0])
            .expect("part bounds must not decrease");
        let (part, tail) = std::mem::take(&mut rest).split_at_mut(len);
        parts.push(part);
        rest = tail;
    }
    let workers = worker_count(parts.len());
    let claims = parts.into_iter().enumerate();
    if workers == 1 {
        claims.for_each(|(p, part)| f(p, part));
        return;
    }
    let claims = Mutex::new(claims);
    let stop = AtomicBool::new(false);
    let failure: Mutex<Option<PanicAt>> = Mutex::new(None);
    let work = || {
        while !stop.load(Ordering::Relaxed) {
            // The lock covers one `next()` of a `Vec` iterator, which
            // cannot panic, so a poisoned lock still guards a valid queue.
            let claimed = claims.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((p, part)) = claimed else { break };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(p, part))) {
                record_panic(&stop, &failure, p, payload);
                return;
            }
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    if let Some((_part, payload)) = failure.into_inner().unwrap_or_else(PoisonError::into_inner) {
        resume_unwind(payload);
    }
}

/// Parallel map over a slice, output in input order. No RNG involved; for
/// deterministic randomized work use [`run_indexed`] / [`map_items`].
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    fan_out(items.len(), || (), |i, ()| f(&items[i]))
}

/// Like [`run_indexed`], but folds results into `workers` partial
/// accumulators (one per contiguous index range) and reduces them
/// left-to-right. Deterministic for *associative* operations; for
/// floating-point sums — which are not associative — the partial split
/// still depends on the worker count, so when bit-exact reproducibility
/// across machines matters, prefer [`run_indexed`] followed by a
/// sequential fold, as the training pipeline does.
pub fn run_indexed_reduce<A, F, R, I>(
    master: &Rng,
    count: usize,
    identity: I,
    fold: F,
    reduce: R,
) -> A
where
    A: Send,
    I: Fn() -> A + Sync + Send,
    F: Fn(A, usize, &mut Rng) -> A + Sync,
    R: Fn(A, A) -> A + Sync + Send,
{
    if count == 0 {
        return identity();
    }
    let workers = worker_count(count);
    let per = count.div_ceil(workers);
    let partials: Vec<A> = par_map(
        &(0..workers)
            .map(|w| (w * per, ((w + 1) * per).min(count)))
            .collect::<Vec<_>>(),
        |&(start, end)| {
            let mut acc = identity();
            for i in start..end {
                let mut rng = master.fork(i as u64);
                acc = fold(acc, i, &mut rng);
            }
            acc
        },
    );
    partials.into_iter().fold(identity(), reduce)
}

/// Run a job per element of `items`, in parallel, each with a forked stream.
pub fn map_items<T, U, F>(master: &Rng, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T, usize, &mut Rng) -> U + Sync,
{
    run_indexed(master, items.len(), |i, rng| f(&items[i], i, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Welford;

    #[test]
    fn run_indexed_matches_sequential() {
        let master = Rng::new(7);
        let par = run_indexed(&master, 257, |i, rng| i as u64 ^ rng.next_u64());
        let seq: Vec<u64> = (0..257u64).map(|i| i ^ master.fork(i).next_u64()).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn run_indexed_is_repeatable() {
        let master = Rng::new(13);
        let a = run_indexed(&master, 100, |_, rng| rng.next_f64());
        let b = run_indexed(&master, 100, |_, rng| rng.next_f64());
        assert_eq!(a, b);
    }

    #[test]
    fn scoped_state_is_reusable_scratch() {
        // The worker-local buffer is cleared per task; results must be as if
        // each task had a fresh one.
        let master = Rng::new(99);
        let got = run_indexed_scoped(&master, 500, Vec::<u64>::new, |i, rng, buf| {
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
    fn par_map_preserves_order() {
        let items: Vec<i64> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn reduce_welford_matches_vector_path() {
        let master = Rng::new(21);
        let samples = run_indexed(&master, 10_000, |_, rng| rng.next_f64());
        let mut expect = Welford::new();
        for &s in &samples {
            expect.push(s);
        }
        let got = run_indexed_reduce(
            &master,
            10_000,
            Welford::new,
            |mut acc, _, rng| {
                acc.push(rng.next_f64());
                acc
            },
            |mut a, b| {
                a.merge(&b);
                a
            },
        );
        assert_eq!(got.count(), expect.count());
        assert!((got.mean() - expect.mean()).abs() < 1e-12);
    }

    #[test]
    fn map_items_preserves_order() {
        let master = Rng::new(3);
        let items: Vec<i32> = (0..50).collect();
        let out = map_items(&master, &items, |&x, i, _| (x, i));
        for (k, &(x, i)) in out.iter().enumerate() {
            assert_eq!(x as usize, k);
            assert_eq!(i, k);
        }
    }

    #[test]
    fn zero_count_is_fine() {
        let master = Rng::new(9);
        let out: Vec<u64> = run_indexed(&master, 0, |_, rng| rng.next_u64());
        assert!(out.is_empty());
        let empty: Vec<u8> = par_map(&[] as &[u8], |&b| b);
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
        let err =
            try_run_scoped(8, || -> () { panic!("no state for you") }, |i, ()| i).unwrap_err();
        assert_eq!(err.slot, usize::MAX);
        assert_eq!(err.message, "no state for you");
    }

    #[test]
    fn try_run_indexed_scoped_matches_run_indexed() {
        let master = Rng::new(7);
        let ok =
            try_run_indexed_scoped(&master, 257, || (), |i, rng, ()| i as u64 ^ rng.next_u64())
                .unwrap();
        let plain = run_indexed(&master, 257, |i, rng| i as u64 ^ rng.next_u64());
        assert_eq!(ok, plain);
    }

    #[test]
    fn completed_slots_are_dropped_not_leaked_on_panic() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;

        #[derive(Debug)]
        struct Tracked(Arc<AtomicUsize>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        let built = Arc::new(AtomicUsize::new(0));
        let dropped = Arc::new(AtomicUsize::new(0));
        let err = try_run_scoped(
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
        .unwrap_err();
        assert_eq!(err.slot, 250);
        // Every value that was constructed must have been dropped when the
        // fan-out bailed out — the old implementation leaked them.
        assert_eq!(built.load(Ordering::SeqCst), dropped.load(Ordering::SeqCst));
        assert!(
            built.load(Ordering::SeqCst) > 0,
            "some slots should complete"
        );
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
    fn non_copy_results_survive_the_unsafe_collection() {
        let master = Rng::new(31);
        let out = run_indexed(&master, 300, |i, rng| format!("{i}:{}", rng.next_u64()));
        for (i, s) in out.iter().enumerate() {
            assert!(s.starts_with(&format!("{i}:")));
        }
    }
}
