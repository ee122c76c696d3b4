//! # dynsched-cluster
//!
//! The HPC platform model for the `dynsched` SC'17 reproduction: rigid
//! parallel jobs, the homogeneous core pool, and the allocation ledger with
//! utilization accounting.
//!
//! The paper (§3.1) models the platform as `nmax` homogeneous cores; a job
//! holds its `n` cores exclusively from start time until `start + r`. This
//! crate enforces those semantics and provides the bounded-slowdown metric
//! (Eq. 1–2) every experiment is scored with.
//!
//! The [`availability`] module relaxes the always-up assumption: a
//! [`FaultProfile`] describes node failures (exponential MTBF/MTTR) and
//! expands deterministically into an [`AvailabilitySchedule`] of capacity
//! steps that both ledgers can follow via their `set_capacity` methods.

#![warn(missing_docs)]

pub mod availability;
pub mod job;
pub mod platform;

pub use availability::{AbandonedJob, AvailabilitySchedule, CapacityStep, FaultProfile};
pub use job::{average_bounded_slowdown, bounded_slowdown, CompletedJob, Job, JobId, DEFAULT_TAU};
pub use platform::{AllocationLedger, CoreLedger, LedgerError, Platform};
