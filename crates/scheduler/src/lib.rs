//! # dynsched-scheduler
//!
//! The event-driven online scheduler of the `dynsched` SC'17 reproduction.
//!
//! * [`config`] — decision mode (actual runtimes vs user estimates) and
//!   backfilling variant (none / aggressive-EASY / conservative);
//! * [`engine`] — the simulation loop: centralized queue, rescheduling on
//!   arrival and resource release, strict policy starts, backfilling. One
//!   directory, one file per seam (state, workspace, event loop, queue
//!   ordering, dispatch, fault handling); its module docs map the layout;
//! * [`mod@checkpoint`] — the engine's forkable state captured at a
//!   horizon, for the checkpoint/fork trial kernel;
//! * [`federation`] — sharded multi-cluster simulation: cross-cluster
//!   routing policies, one partitioned engine per shard fanned over the
//!   scoped pool, and a deterministic cross-shard completion merge;
//! * [`profile`] — the future-availability step function used by
//!   conservative backfilling;
//! * [`result`] — per-run metrics (completed jobs, average bounded
//!   slowdown, utilization, backfill counts).
//!
//! # Workspace reuse and the determinism contract
//!
//! The engine is zero-allocation in steady state: all per-simulation
//! buffers live in a [`SimWorkspace`] that is cleared — never reallocated —
//! between runs. Every run is a [`SimWorkspace`] method — `run`,
//! `try_run`, `run_faulty`, `run_metrics`, `run_metrics_faulty`,
//! `run_prefix`, `resume_from`, `resume_metrics_from` — and loops (the training trials foremost)
//! hold one workspace per thread. [`simulate`] is the only free-function
//! wrapper: a throwaway workspace, one `run`, the owned result. Two
//! guarantees:
//!
//! 1. **No cross-run state.** A workspace carries heap *capacity* between
//!    runs, never information: every run resets every buffer, so a reused
//!    workspace produces results bit-identical to a fresh one (the
//!    `differential` harness in `tests/` runs every case on a workspace
//!    reused across cases, against a fresh `simulate`).
//! 2. **Bit-identity with the original engine.** The allocation-per-call
//!    engine the project started with is preserved in [`mod@reference`]
//!    (`#[doc(hidden)]`, for tests and benches only); the optimized engine
//!    must match it result-for-result. Where the reference's behaviour
//!    depended on `HashMap` iteration order (release-time ties among
//!    overdue jobs in the EASY shadow scan), the optimized engine resolves
//!    the tie deterministically by trace index instead — strictly more
//!    reproducible, identical wherever the reference was well-defined.
//!
//! # One event loop, several ways in
//!
//! Every mode below is the same loop; the full contract sits with the
//! code that implements it. Each is a path of the `differential` harness
//! (`tests/differential.rs`), checked against [`mod@reference`] on one
//! generated domain; the path's name is given here.
//!
//! * **Metrics-only.** [`SimWorkspace::run_metrics`] streams completion
//!   events into a [`SimMetrics`] accumulator instead of materializing
//!   per-job vectors: no heap allocation per cell once the workspace is
//!   warm, and — events stream in completion order — sums bit-identical
//!   to reducing a full [`SimulationResult`] afterwards
//!   ([`SimMetrics::from_result`]; [`reference::reference_metrics`] is the
//!   oracle, the `run_metrics` path diffs the two).
//! * **Columnar traces.** Every entry point is generic over
//!   [`TraceSource`](dynsched_workload::TraceSource): the AoS
//!   [`Trace`](dynsched_workload::Trace) or the SoA columns of a
//!   [`TraceView`](dynsched_workload::TraceView), bit-identical in every
//!   result (the `reused run, SoA` path). [`mod@reference`] stays on the AoS
//!   path: the oracle never changes layout.
//! * **Compiled policies.** [`QueueDiscipline::Compiled`] runs a
//!   [`CompiledPolicy`](dynsched_policies::CompiledPolicy) as bytecode —
//!   wait-invariant prefix once per job, one batch re-score per event,
//!   then heads on demand or a full sort by backfill mode (see the
//!   [`engine`] docs). Schedules are bit-identical to
//!   [`QueueDiscipline::Policy`] (every path's `[compiled]` twin), so a
//!   caller holding a policy picks with [`QueueDiscipline::of`]: compiled
//!   where [`Policy::compile`](dynsched_policies::Policy::compile) yields a
//!   program, interpreted otherwise. [`mod@reference`] scores one task at
//!   a time and never runs the batch kernel.
//! * **Checkpoint and fork.** [`SimWorkspace::run_prefix`] stops at a
//!   divergence horizon and captures the engine state — the one struct
//!   the workspace itself runs on — into a reusable [`Checkpoint`];
//!   [`SimWorkspace::resume_from`] copies it back with the routine that
//!   captured it (no allocation once warm) and continues;
//!   [`SimWorkspace::resume_metrics_from`] continues into a
//!   [`TrialMetrics`] seeded with the prefix's completions instead of
//!   listing the schedule. The resume is bit-identical to a scratch run
//!   at any worker count (the `resume from` and `resume_metrics_from`
//!   paths, and the harness's named fork cases); [`mod@checkpoint`]
//!   has the contract and the permutation-safety argument the trial
//!   kernel relies on. The
//!   scratch path is untouched and [`mod@reference`] never checkpoints.
//! * **Fault injection.** [`SimWorkspace::run_faulty`] (metrics-only
//!   twin: [`SimWorkspace::run_metrics_faulty`]) follows an
//!   [`AvailabilitySchedule`](dynsched_cluster::AvailabilitySchedule) of
//!   capacity steps: per timestamp arrivals, then completions, then
//!   steps, then one reschedule, so a job finishing at `t` is never a
//!   victim at `t`; victims are youngest-start-first and requeue until
//!   their retry cap. An **empty** schedule is bit-identical to the
//!   zero-fault engine (the fault branches are monomorphized away) and
//!   faulty runs to [`reference::simulate_reference_faulty`] at any
//!   worker count (the `empty-schedule` and `faulty run` paths).
//!   Internal inconsistencies surface as a structured [`EngineError`],
//!   never a panic.
//!
//! RNG never appears in this crate: randomized callers (the trial driver,
//! fault-schedule expansion) derive each simulation's inputs from
//! `(master seed, stream index)` upstream, which is why the whole
//! pipeline is replayable at any thread count.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod federation;
pub mod profile;
#[doc(hidden)]
pub mod reference;
pub mod result;
pub mod timeline;

pub use checkpoint::Checkpoint;
pub use config::{BackfillMode, SchedulerConfig};
pub use engine::{simulate, ConservativeStats, EngineError, QueueDiscipline, SimWorkspace};
pub use federation::{
    merge_completions, route, run_federation, run_federation_faulty, FederationResult,
    FederationSpec, Router, RoutingTable,
};
pub use result::{SimMetrics, SimulationResult, TrialMetrics};
pub use timeline::queue_length_curve;
