//! # dynsched-simkit
//!
//! Discrete-event simulation substrate for the `dynsched` reproduction of
//! Carastan-Santos & de Camargo, *"Obtaining Dynamic Scheduling Policies with
//! Simulation and Machine Learning"* (SC'17).
//!
//! The paper runs its experiments on SimGrid; this crate provides the
//! equivalent foundations from scratch:
//!
//! * [`rng`] — deterministic, fork-able pseudo-random streams
//!   (xoshiro256++ seeded via SplitMix64);
//! * [`dist`] — the distributions needed by the Lublin–Feitelson and
//!   Tsafrir workload models (gamma, two-stage uniform, …);
//! * [`events`] — a time-ordered event queue with deterministic FIFO
//!   tie-breaking and a monotonic simulation clock;
//! * [`stats`] — descriptive statistics (median/quantiles/boxplot
//!   summaries) used by the evaluation harness;
//! * [`parallel`] — deterministic fan-out for the hundreds of thousands of
//!   independent training trials, on an in-tree scoped thread pool;
//! * [`json`] — hand-rolled JSON (no deps) with exact-bit `f64`
//!   round-tripping, the substrate for durable run state;
//! * [`durable`] — [`durable::write_atomic`]: same-directory temp file +
//!   fsync + rename, so no artifact is ever torn by a crash.
//!
//! # Durability contract
//!
//! Persisted state follows two rules. **Atomicity**: every durable file is
//! written via [`durable::write_atomic`] — readers observe either the old
//! or the new contents in full, never a torn prefix. **Exactness**: doubles
//! are serialized by [`json`] as `<decimal>$<hex16>` ([`f64::to_bits`]
//! alongside the shortest decimal), so state that round-trips through disk
//! is bit-identical to state that never left memory — NaN payloads,
//! `-0.0`, subnormals and infinities included. Parsers validate that the
//! two halves agree and reject the file as corrupt otherwise.
//!
//! # Panic isolation
//!
//! A panic inside a worker closure does not abort the fan-out scope or
//! leak completed slots: the supervised drivers
//! ([`parallel::try_run_scoped`] and friends) catch the unwind, stop the
//! remaining workers, join the scope cleanly and return a structured
//! [`parallel::PoolError`] naming the failing slot. The panicking drivers
//! (`run_scoped`, `par_map_scoped`, `for_each_part_mut`) re-raise the
//! original payload after the clean join.
//!
//! # Determinism contract
//!
//! Everything is deterministic given a master seed, including under
//! parallel execution. The rule that makes this hold is: **every randomized
//! task derives its RNG stream from `(master seed, task index)`** via
//! [`Rng::fork`] — never from thread identity, wall-clock, or any shared
//! mutable state. The parallel drivers additionally guarantee index-ordered
//! output, so `run_scoped(n, init, f)` with `f` forking `master.fork(i)`
//! equals the sequential loop bit for bit at any thread count.
//! [`parallel::run_scoped`] extends the contract to worker-local *scratch*
//! state (e.g. a reusable simulation workspace): the state may carry heap
//! capacity between tasks, but must never carry information — closures
//! reset it before use.

#![warn(missing_docs)]

pub mod dist;
pub mod durable;
pub mod events;
pub mod json;
pub mod parallel;
pub mod rng;
pub mod stats;

pub use events::{Clock, EventQueue, Time};
pub use rng::Rng;
