//! The engine's mutable state, declared once and grouped by lifetime.
//!
//! A [`SimWorkspace`](super::SimWorkspace) owns one of each struct below
//! and lends all three to the per-run `Engine`; a
//! [`Checkpoint`](crate::Checkpoint) owns a second [`SimState`] and
//! nothing else of the engine's. Which struct a buffer belongs in is the
//! checkpoint contract: state the event loop carries from one event to the
//! next goes in [`SimState`] and is captured, state rebuilt from scratch
//! at every use goes in [`Scratch`] and is not, and state only the faulty
//! engine writes goes in [`FaultState`] (checkpointing is zero-fault).

use super::{Completion, ConservativeStats, QueueEntry, Release};
use crate::profile::Profile;
use dynsched_cluster::{AbandonedJob, CoreLedger, Platform};
use dynsched_policies::BatchScratch;
use dynsched_simkit::EventQueue;
use dynsched_workload::JobLanes;

/// The forkable simulation state: everything a prefix run hands to its
/// continuations, at the instant every event strictly before the horizon
/// has been processed and none at or after it has.
#[derive(Debug, Default)]
pub(crate) struct SimState {
    /// Pending completion events, FIFO tie-break sequence included.
    pub(crate) events: EventQueue<Completion>,
    /// The waiting queue: the live window `queue[head..]` (see
    /// [`SimState::waiting`]).
    pub(crate) queue: Vec<QueueEntry>,
    /// Priority key per queue position (rank as f64, or cached score),
    /// maintained in lockstep with `queue` for static disciplines — the
    /// SoA half the binary-search scans read.
    pub(crate) q_keys: Vec<f64>,
    /// Start of the live window in `queue` / `q_keys`. A static-order
    /// pass moves it over the leading run it started instead of moving the
    /// survivors down; entries before it are dead and never read. Always 0
    /// under a time-dependent order (those compact in full) and in a
    /// [`Checkpoint`](crate::Checkpoint).
    pub(crate) head: usize,
    /// True while the queue head is known not to fit *and* nothing that
    /// could change that has happened: set when a strict pass leaves the
    /// queue blocked, cleared by any completion (cores freed) or by an
    /// arrival that takes over the head slot. While true, a reschedule is
    /// provably a no-op and is skipped.
    pub(crate) head_blocked: bool,
    /// Maintained sorted releases of the running set.
    pub(crate) releases: Vec<Release>,
    /// Fewest cores any waiting job asks for (`u32::MAX` on an empty
    /// queue), maintained in the backfilling modes only: while fewer cores
    /// than this are free no mode can start anything, and the pass is
    /// skipped. Lowered at enqueue, recomputed over the survivors at the
    /// end of a pass that started anything: exact between passes; within a
    /// pass it can only be too low, once a waiter of this width has started.
    pub(crate) narrowest: u32,
    /// Queue-parallel SoA input lanes for compiled batch scoring
    /// (decision-mode `r`, `n`, `s`), maintained in lockstep with `queue`
    /// only for time-dependent compiled disciplines.
    pub(crate) q_r: Vec<f64>,
    pub(crate) q_n: Vec<f64>,
    pub(crate) q_s: Vec<f64>,
    /// Queue-parallel copies of the jobs' static slot rows (stride =
    /// `CompiledPolicy::slot_count`), same lockstep discipline.
    pub(crate) q_slots: Vec<f64>,
    /// Start time per trace index; NaN when not running.
    pub(crate) start_of: Vec<f64>,
    /// Capacity, in-use count and the busy/offline core-second integrals.
    pub(crate) ledger: CoreLedger,
    /// Arrival cursor: trace positions `0..cursor` have been enqueued.
    pub(crate) cursor: usize,
    /// Scheduling events processed so far.
    pub(crate) events_processed: u64,
    /// Jobs started by a backfilling pass so far.
    pub(crate) backfilled: u64,
    /// What the conservative passes did so far.
    pub(crate) conservative: ConservativeStats,
}

impl SimState {
    /// The pristine state of a run over `n_jobs` jobs on `platform`.
    /// Buffers are cleared, never reallocated.
    pub(super) fn reset(&mut self, n_jobs: usize, platform: Platform) {
        self.events.reset();
        self.queue.clear();
        self.q_keys.clear();
        self.head = 0;
        self.head_blocked = false;
        self.releases.clear();
        self.narrowest = u32::MAX;
        self.q_r.clear();
        self.q_n.clear();
        self.q_s.clear();
        self.q_slots.clear();
        self.start_of.clear();
        self.start_of.resize(n_jobs, f64::NAN);
        self.ledger.reset(platform);
        self.cursor = 0;
        self.events_processed = 0;
        self.backfilled = 0;
        self.conservative = ConservativeStats::default();
    }

    /// The jobs waiting now, in queue order: the live window.
    #[inline]
    pub(crate) fn waiting(&self) -> &[QueueEntry] {
        &self.queue[self.head..]
    }

    /// Overwrite `self` with `src`, field by field, into the buffers
    /// `self` already owns — the one routine behind both capture
    /// (workspace → checkpoint) and restore (checkpoint → workspace). A
    /// derived `Clone::clone_from` would reallocate every buffer per fork;
    /// this way a warm destination allocates nothing. Of the queue only
    /// the live window is copied, to position 0: a copy never carries a
    /// dead prefix.
    pub(super) fn copy_from(&mut self, src: &SimState) {
        self.events.restore_from(&src.events);
        self.queue.clear();
        self.queue.extend_from_slice(src.waiting());
        self.q_keys.clear();
        self.q_keys.extend_from_slice(&src.q_keys[src.head..]);
        self.head = 0;
        self.head_blocked = src.head_blocked;
        self.releases.clone_from(&src.releases);
        self.narrowest = src.narrowest;
        self.q_r.clone_from(&src.q_r);
        self.q_n.clone_from(&src.q_n);
        self.q_s.clone_from(&src.q_s);
        self.q_slots.clone_from(&src.q_slots);
        self.start_of.clone_from(&src.start_of);
        self.ledger.clone_from(&src.ledger);
        self.cursor = src.cursor;
        self.events_processed = src.events_processed;
        self.backfilled = src.backfilled;
        self.conservative = src.conservative;
    }
}

/// Per-event and per-run scratch: every buffer here is cleared or rebuilt
/// by its user before it is read, so it carries capacity between runs and
/// never information — which is why no reset and no checkpoint touches it.
#[derive(Debug, Default)]
pub(super) struct Scratch {
    /// `(queue position, score)`: the whole queue for interpreted
    /// time-dependent policies, the EASY backfill candidates under
    /// on-demand selection.
    pub(super) scored: Vec<(usize, f64)>,
    /// Priority order of queue positions, rebuilt by every time-dependent
    /// pass that reads one (conservative backfilling, interpreted
    /// policies); on-demand selection builds none and static disciplines
    /// keep the queue itself priority-sorted.
    pub(super) order: Vec<usize>,
    /// Clamped `(time, cores)` copy of the releases handed to the profile.
    pub(super) rel_scratch: Vec<(f64, u32)>,
    /// Wait-invariant prefix slots of a compiled policy, one row per
    /// trace position — recomputed from the trace at run start, read at
    /// every enqueue.
    pub(super) static_lanes: JobLanes,
    /// Batch-kernel score output lane.
    pub(super) batch_scores: Vec<f64>,
    /// Bytecode VM stack.
    pub(super) vm_stack: Vec<f64>,
    /// Batch-kernel scratch (one chunk's value-stack rows).
    pub(super) batch_scratch: BatchScratch,
    /// Prefix slot row for scoring a static compiled policy at enqueue
    /// (its scores never change, so no per-trace lanes exist).
    pub(super) slot_row: Vec<f64>,
    /// Availability profile, rebuilt from the releases at every
    /// backfilling pass that needs it.
    pub(super) profile: Profile,
}

/// State only a faulty run writes. Identically pristine throughout a
/// zero-fault run, so checkpoints (zero-fault by contract) skip it.
#[derive(Debug, Default)]
pub(super) struct FaultState {
    /// Attempt counter per trace index, bumped at every preemption; the
    /// liveness key for completion events.
    pub(super) attempt_of: Vec<u32>,
    /// Jobs that hit their retry cap (or were stranded by a schedule that
    /// never restores enough capacity), in abandonment order.
    pub(super) abandoned: Vec<AbandonedJob>,
    /// `(start, idx)` scratch for deterministic victim selection.
    pub(super) victim_scratch: Vec<(f64, u32)>,
    /// Preemptions (kill-and-requeue events) so far.
    pub(super) preempted: u64,
    /// Core-seconds of work destroyed by preemptions so far.
    pub(super) lost_core_seconds: f64,
}

impl FaultState {
    pub(super) fn reset(&mut self, n_jobs: usize) {
        self.attempt_of.clear();
        self.attempt_of.resize(n_jobs, 0);
        self.abandoned.clear();
        self.preempted = 0;
        self.lost_core_seconds = 0.0;
    }
}
