//! # dynsched — dynamic HPC scheduling policies from simulation + ML
//!
//! A from-scratch Rust reproduction of Carastan-Santos & de Camargo,
//! *"Obtaining Dynamic Scheduling Policies with Simulation and Machine
//! Learning"* (SC'17). This facade crate re-exports the workspace members:
//!
//! * [`simkit`] — discrete-event simulation engine, RNG, distributions;
//! * [`cluster`] — platform model, jobs, bounded slowdown;
//! * [`workload`] — Lublin–Feitelson model, Tsafrir estimates, SWF traces;
//! * [`policies`] — baseline and learned queue-ordering policies;
//! * [`scheduler`] — online scheduler with EASY/conservative backfilling;
//! * [`mlreg`] — weighted nonlinear regression and function enumeration;
//! * [`core`] — the end-to-end training pipeline and experiment harness.
//!
//! See `examples/quickstart.rs` for a five-minute tour; each member
//! crate's module docs are the system inventory.

pub use dynsched_cluster as cluster;
pub use dynsched_core as core;
pub use dynsched_mlreg as mlreg;
pub use dynsched_policies as policies;
pub use dynsched_scheduler as scheduler;
pub use dynsched_simkit as simkit;
pub use dynsched_workload as workload;
