//! Engine checkpointing: capture the full mutable state of a simulation at
//! a divergence horizon, then fork any number of continuations from it.
//!
//! The training stage's permutation trials all share an identical prefix:
//! the warmup tasks `S` keep fixed ranks ahead of everything and the
//! permutation only reorders the probe tasks `Q`, so **no two trials can
//! differ before the first strict pass whose outcome depends on the
//! relative order of two `Q` tasks** — a pass that reaches the `Q` region
//! of the queue (no warmup task waiting ahead of it) with two or more `Q`
//! tasks present and not all of them starting. Every earlier pass either
//! stops inside the invariantly-ordered `S` region, starts *all* waiting
//! `Q` tasks at once (a set that fits fits in any order), or compares a
//! lone `Q` task against `S` tasks only.
//! [`SimWorkspace::run_prefix`](crate::SimWorkspace::run_prefix) runs the
//! event loop up to a caller-supplied horizon and captures every piece
//! of mutable engine state into a [`Checkpoint`];
//! [`SimWorkspace::resume_from`](crate::SimWorkspace::resume_from) copy-restores the snapshot (no allocation
//! once the workspace is warm), re-keys the restored queue under its own
//! discipline, and continues under the trial's own ranks. The shared
//! prefix — in congested tuples, the entire warmup occupancy with the
//! probe set piling up behind it — is paid once per tuple instead of once
//! per trial.
//!
//! # What a checkpoint captures
//!
//! Everything the event loop reads or writes, at the instant every event
//! strictly before the horizon has been processed and none at or after it
//! has: the pending completion-event queue (including its FIFO tie-break
//! sequence), the waiting queue with its SoA priority keys (the live
//! window only: entries a static-order pass left behind its `head` cursor
//! are not copied, and a captured or restored cursor is 0), the
//! blocked-head fact, the sorted release list, the narrowest-waiter width,
//! the compiled batch-scoring input lanes, per-job start times, the core
//! ledger (capacity state plus its busy/offline integrals), the
//! completion prefix, the arrival cursor, and the event, backfill and
//! conservative-pass counters.
//! What it deliberately does *not* capture is state the engine rebuilds
//! from scratch at every use — the availability profile and its release
//! scratch (rebuilt from the release list at every backfilling pass), a
//! time-dependent priority order (no pass reads one it did not just
//! build), per-event score scratch, and the compiled static lanes
//! (recomputed deterministically from the trace at run start) — and
//! the per-job attempt counters, which are identically zero in the
//! zero-fault runs checkpointing supports.
//!
//! # The resume contract
//!
//! A resume is bit-identical to a scratch run **provided every scheduling
//! decision before the horizon is the same under the prefix and resume
//! disciplines** (same discipline kind, so the engine's queue-order mode
//! matches; same pass outcomes — started sets and start times — at every
//! pre-horizon event). The restored waiting queue itself is *not* trusted
//! across disciplines: a static-order resume re-keys and re-sorts it
//! under its own discipline before the first pass, so entries that were
//! waiting at the horizon are scheduled by the resume's priorities, not
//! the prefix's. That is what lets the trial kernel place the horizon at
//! the first pass whose outcome can depend on the relative order of two
//! probe tasks — typically deep inside the warmup drain, with probe
//! tasks already queued — rather than at the first probe arrival. The
//! `checkpoint_bit_identity` suite pins the equality across disciplines,
//! backfill/decision modes, trace layouts, worker counts, re-keyed
//! queued-probe forks, and the degenerate horizon-0 snapshot (which
//! captures the pristine initial state, so resuming it *is* a plain run).
//!
//! Per the oracle convention, the scratch path is untouched:
//! [`SimWorkspace::run`](crate::SimWorkspace::run) simulates from time zero exactly as before, and
//! `scheduler::reference` never checkpoints.

use crate::engine::SimState;
use dynsched_cluster::CompletedJob;

/// A snapshot of the engine's full mutable state at a divergence horizon,
/// produced by [`SimWorkspace::run_prefix`](crate::SimWorkspace::run_prefix) and consumed (any number of
/// times, immutably) by [`SimWorkspace::resume_from`](crate::SimWorkspace::resume_from).
///
/// A checkpoint is plain owned data: share it by reference across the
/// scoped worker pool — the trial kernel builds one per distinct tuple and
/// every worker forks from it. Restoring into a warm workspace copies into
/// preallocated buffers and performs no allocation.
#[derive(Debug, Default)]
pub struct Checkpoint {
    /// The divergence horizon the prefix ran to: every event strictly
    /// before it is inside the snapshot, none at or after it is.
    pub(crate) horizon: f64,
    /// The engine state at the horizon — the same struct a workspace
    /// runs on, so what is captured is declared in exactly one place
    /// (`engine::state`) and capture and restore are one `copy_from`.
    pub(crate) state: SimState,
    /// Jobs completed before the horizon, in completion order. Replayed
    /// into the completion sink at resume, ahead of every suffix
    /// completion — prefix completions all finish strictly before the
    /// horizon, so the merged stream is in true completion order. Not
    /// engine state: the engine only sees a generic sink.
    pub(crate) completed: Vec<CompletedJob>,
}

impl Checkpoint {
    /// An empty checkpoint. Buffers grow on first capture and are retained
    /// across captures, like a workspace's.
    pub fn new() -> Self {
        Self::default()
    }

    /// The divergence horizon of the last capture.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Trace length the snapshot was captured for; a resume against a
    /// different-length trace is rejected.
    pub fn jobs(&self) -> usize {
        self.state.start_of.len()
    }

    /// Trace positions enqueued by the prefix (the arrival cursor).
    pub fn arrivals_processed(&self) -> usize {
        self.state.cursor
    }

    /// Jobs that completed before the horizon.
    pub fn completed_jobs(&self) -> usize {
        self.completed.len()
    }

    /// Scheduling events the prefix processed.
    pub fn events_processed(&self) -> u64 {
        self.state.events_processed
    }
}
