//! # dynsched-core
//!
//! The primary contribution of Carastan-Santos & de Camargo (SC'17),
//! reproduced end to end: *obtain dynamic scheduling policies by observing
//! scheduling behaviour in simulation and distilling it into nonlinear
//! functions with machine learning.*
//!
//! * [`tuples`] — the `(S, Q)` task tuples of the simulation scheme (§3.2);
//! * [`trials`] — random-permutation trials and the Eq. 3 score
//!   distribution, fanned out on the scoped pool and deterministic;
//! * [`convergence`] — the trial-count convergence study (Fig. 2);
//! * [`pipeline`] — tuples → trials → pooled `score(r,n,s)` → weighted
//!   nonlinear regression → ranked policies (Table 3), plus
//!   [`pipeline::run_full`]: the entire paper loop (train → fit → select
//!   → evaluate against the baselines over the Table-4 grid) as one
//!   orchestrated, deterministic run;
//! * [`session`] — the batched evaluation session every grid runs
//!   through: cells fanned out with one reusable workspace per worker,
//!   each cell in the engine's metrics-only mode;
//! * [`experiments`] — the dynamic scheduling experiment harness
//!   (ten 15-day sequences × policy line-up, Figs. 4–9);
//! * [`scenarios`] — constructors for all 18 Table 4 rows, plus
//!   [`scenario_results`], which evaluates the workload crate's six
//!   [`ScenarioFamily`](dynsched_workload::ScenarioFamily) generators under
//!   the same three conditions, optionally under a fault profile;
//! * [`report`] — artifact-style output and the Table 4 comparison
//!   against the published medians;
//! * [`checkpoint`] — stage-checkpointed [`run_full`]
//!   ([`checkpoint::run_full_checkpointed`]): the whole loop persists a
//!   validated `RunState` file after each durable stage (pooled training
//!   set, ranked fits, then each Table-4 row as it completes) and resumes
//!   bit-identically after a crash. See that module for the file format,
//!   the resume contract (version/fingerprint/checksum validated; partial
//!   or corrupt stages recomputed, never trusted; config/seed mismatches
//!   are loud errors), and the crash-injection test hook.
//!
//! ## The evaluation workspace-reuse contract
//!
//! Every evaluation path — [`run_experiment`] grids, [`sweep_load`]
//! curves, [`convergence_curve`] repetitions, the
//! 18 Table 4 rows via [`scenarios::table4_results_in`] — flattens into one
//! batched cell set: an [`session::EvalSession`] for simulation cells, a
//! [`trials::trial_scores_batched`] call for permutation-trial cells.
//! Each worker thread owns one reusable
//! [`SimWorkspace`](dynsched_scheduler::SimWorkspace) that is cleared,
//! never reallocated, between cells, and simulation cells run the
//! engine's metrics-only mode — so the steady-state evaluation loop
//! performs no heap allocation. Cells are pure functions of their inputs
//! and results come back index-dense in push order, which makes every
//! output bit-identical at any thread count (and bit-identical to the
//! historical per-cell `simulate()` loops — the `differential` harness in
//! `tests/` pins this).
//!
//! The learning layer follows the same architecture: the 576-candidate
//! regression sweep inside [`learn_policies`] / [`run_full`] fans out
//! with one reusable fit workspace per worker (see `dynsched_mlreg`),
//! and the learning golden in the same harness pins the whole
//! train → fit → select → evaluate loop bit-identical at 1 vs n threads
//! and to the sequential pre-refactor enumeration.
//!
//! ## Checkpoint-and-fork trials
//!
//! Permutation trials over one `(S, Q)` tuple re-simulate an identical
//! prefix up to 256k times: every permutation shares the same `S` ranks,
//! and with the trial configuration's strict, no-backfill scheduling a
//! pass can only diverge once two `Q` tasks are simultaneously present
//! and order-sensitive. [`trials::trial_scores_batched`] exploits this:
//! per distinct tuple (deduplicated by content) it runs one
//! identity-ranks simulation, locates the earliest event time at which a
//! permutation could change a decision, captures a
//! [`Checkpoint`](dynsched_scheduler::Checkpoint) of the engine at that
//! horizon via `SimWorkspace::run_prefix`, and every trial then forks
//! from the shared snapshot with `SimWorkspace::resume_metrics_from`
//! under its own permuted ranks, keeping its AVEbsld sum and count, not
//! its schedule. The forked kernel is pinned bit-identical to the
//! from-scratch trial loop (and thread-count independent) by the trial
//! half of that harness and the scheduler crate's `differential` harness.
//!
//! ## Quickstart
//!
//! ```
//! use dynsched_core::pipeline::{learn_policies, TrainingConfig};
//! use dynsched_core::tuples::TupleSpec;
//! use dynsched_core::trials::TrialSpec;
//! use dynsched_cluster::Platform;
//! use dynsched_mlreg::EnumerateOptions;
//! use dynsched_workload::LublinModel;
//!
//! // A miniature training run (the paper's uses |S|=16, |Q|=32, 256k trials).
//! let config = TrainingConfig {
//!     tuple_spec: TupleSpec { s_size: 4, q_size: 8, max_start_offset: 50_000.0 },
//!     trial_spec: TrialSpec { trials: 128, platform: Platform::new(64), tau: 10.0 },
//!     tuples: 2,
//!     seed: 7,
//! };
//! let model = LublinModel::new(64);
//! let opts = EnumerateOptions { max_iterations: 20, ..Default::default() };
//! let report = learn_policies(&config, &model, &opts, 4);
//! assert_eq!(report.policies.len(), 4);
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod convergence;
pub mod custom;
pub mod experiments;
pub mod pipeline;
pub mod report;
pub mod scenarios;
pub mod session;
pub mod sweep;
pub mod trials;
pub mod tuples;

pub use checkpoint::{run_full_checkpointed, RunError, RUN_STATE_FORMAT, RUN_STATE_VERSION};
pub use convergence::{convergence_curve, ConvergencePoint};
pub use custom::{learn_custom_policies, tuple_from_trace};
pub use experiments::{
    run_experiment, run_experiments, try_run_experiments, Experiment, ExperimentResult,
    PolicyOutcome,
};
pub use pipeline::{
    generate_training_set, learn_policies, run_full, FullRunConfig, FullRunReport, LearnedReport,
    TrainingConfig,
};
pub use report::{
    artifact_report, full_run_markdown, learned_beat_adhoc, table4_comparison, table4_markdown,
};
pub use scenarios::{
    archive_scenario_in, model_scenario_in, scenario_experiment, scenario_results,
    table4_experiments_in, table4_results_in, Condition, ScenarioScale,
};
pub use session::{EvalCell, EvalSession};
pub use sweep::{sweep_load, LoadPoint};
pub use trials::{
    divergence_horizon, run_trial, to_observations, trial_outcomes_batched, trial_scores,
    trial_scores_batched, TrialBatch, TrialScores, TrialSpec,
};
pub use tuples::{TaskTuple, TupleSpec};
