//! The event-driven online scheduler (§4.2's scheduling algorithm).
//!
//! Tasks arrive into a centralized waiting queue; the scheduler performs a
//! reschedule at two events: (i) a task arrives, (ii) a resource is
//! released. A reschedule sorts the queue with the active policy and starts
//! the highest-priority task while it fits; if it does not fit the
//! scheduler either waits ([`BackfillMode::None`]) or runs a backfilling
//! pass ([`BackfillMode::Aggressive`] = EASY, [`BackfillMode::Conservative`]).
//!
//! All *decisions* (queue order, backfill feasibility) use the processing
//! time selected by the [`DecisionMode`](dynsched_policies::DecisionMode);
//! *execution* always uses the actual runtime — exactly the paper's
//! protocol for the user-estimate experiments.
//!
//! # The zero-allocation hot path
//!
//! The training stage simulates hundreds of thousands of independent
//! permutation trials per `(S, Q)` tuple; at that call rate the engine's
//! per-call allocations (event queue, running-job hash table, per-timestamp
//! batch vector, per-reschedule order/releases vectors) dominate the wall
//! time. The engine therefore runs entirely out of a [`SimWorkspace`]:
//!
//! * every buffer lives in the workspace and is **cleared, not
//!   reallocated** between runs — after a few warm-up runs the engine
//!   performs no heap allocation at all;
//! * job state is **index-dense**: jobs are keyed by their position in the
//!   trace (`0..n`), so the running table is a flat `Vec` and
//!   [`QueueDiscipline::FixedOrder`] is a plain rank slice — no `HashMap`
//!   on any per-event path;
//! * the running set's decision-mode release times are kept in a
//!   **maintained sorted list** (binary-search insert on start, remove on
//!   completion), so backfill passes no longer re-collect and re-sort the
//!   releases at every rescheduling event.
//!
//! [`simulate`] is the one convenience wrapper (fresh workspace per call);
//! anything that runs more than once holds a workspace and calls its
//! methods ([`SimWorkspace::run`] and friends, then the accessors or
//! [`SimWorkspace::result`]). Both produce results bit-identical to the
//! original engine, which is preserved in [`crate::reference`] as the
//! oracle for the determinism regression tests. A workspace holds no
//! cross-run state: every run starts by resetting its simulation state,
//! so reuse can never leak one simulation into the next.
//!
//! # Layout
//!
//! The engine's mutable state is declared once, in `state`, as three
//! structs a workspace owns and lends to the per-run `Engine`: the
//! forkable `SimState` (all the engine state a [`Checkpoint`] holds,
//! captured and restored by one `copy_from`), per-event `Scratch`, and
//! the fault-only `FaultState`. Around it, one file per seam: this one
//! (errors, [`QueueDiscipline`], the small shared types); `workspace`
//! ([`SimWorkspace`]: the public run methods over two private finishers,
//! the accessors, [`simulate`]); `event_loop` (per-run set-up, the
//! arrival / completion / capacity-step merge, enqueue / start /
//! complete); `ordering` (the one queue-ordering rule: static keys in one
//! integer lane, or a re-score per pass followed by heads on demand or a
//! full sort); `dispatch` (one rescheduling pass: strict starts, the
//! two backfilling variants, taking the started jobs out of the queue);
//! `faults` (capacity steps, victim selection, requeue, abandonment).
//!
//! # Metrics-only mode
//!
//! The evaluation layer reduces every simulation to one [`SimMetrics`]
//! and discards the per-job schedule, so the main loop is generic over a
//! *completion sink*: the full mode pushes each completion into the
//! workspace's list, [`SimWorkspace::run_metrics`] folds it straight into
//! the accumulator — same events, same order, hence the same bits, with
//! no per-run `Vec<CompletedJob>`. A permutation trial's fork
//! ([`SimWorkspace::resume_metrics_from`]) folds into a [`TrialMetrics`]
//! that already holds the checkpoint's completion prefix.
//!
//! # Reschedule fast paths
//!
//! Three structural optimizations keep grid-scale evaluation cheap without
//! changing any observable schedule (all are proven bit-identical against
//! [`crate::reference`]):
//!
//! * **SoA queue keys.** Under a static order the priority key of every
//!   waiting job lives in a dense `Vec<u64>` parallel to the entry list,
//!   so the binary-search insertions and sortedness scans touch 8-byte
//!   keys instead of full queue entries, and compare them with one `<=`.
//!   A fixed-order rank is its own key; a cached score is keyed by
//!   [`order_key`] moved to the unsigned range, strictly monotone in
//!   `f64::total_cmp`. Ranks never pass through `f64`: two distinct ranks
//!   past 2^53 round to one `f64`, and a signed lane would put ranks past
//!   2^63 first, where the reference sorts the integers themselves. A
//!   time-dependent order keeps no key lane: its queue stays in arrival
//!   order and is re-scored at every pass.
//! * **Live window.** Under a static order (fixed ranks, cached scores)
//!   the queue *is* the priority order, and the waiting jobs are the
//!   window `queue[head..]` / `q_keys[head..]` of the two `Vec`s
//!   (`SimState::head`). The strict pass starts jobs in queue order and
//!   stops at the first that does not fit, so what it started is exactly
//!   a *leading run* of the window: the pass ends by moving `head` over
//!   that run — O(started), no entry moves — where a rewrite of the
//!   queue moves an entry and a key per *waiter*, thousands deep on an
//!   over-subscribed trace. A backfilling pass can also start jobs behind
//!   the blocked head; after the cursor has moved, those few are
//!   compacted out inside the window. Survivors keep their relative order
//!   and their key bits either way, so every later bisection, insert and
//!   pass sees the sequence the rewrite would have produced — exact by
//!   construction, not a verified hint. The dead prefix is reclaimed by
//!   one rule with no tunable: when `head` exceeds the window's length
//!   (an emptied window included) the prefix is drained and `head`
//!   returns to 0. The drain moves fewer entries than were removed since
//!   the last one — amortised O(1) per removed entry — and the `Vec`
//!   never holds more than twice the live queue. A [`Checkpoint`] copies
//!   the window's entries only, not their keys: a static resume re-keys
//!   the restored queue under its own discipline. Time-dependent orders
//!   keep the full compaction and `head == 0`: their queue is in arrival
//!   order, so a pass's starts lie anywhere in it, and the score lanes
//!   index it by position from 0.
//! * **Narrowest-waiter gate.** In every backfilling mode a job starts
//!   only if its cores are free *now*, so a pass entered with fewer free
//!   cores than the narrowest waiting job asks for starts nothing — and
//!   leaves nothing else behind either: the profile, its reservations
//!   and a time-dependent priority order are per-pass scratch, rebuilt by
//!   the next pass that runs. The engine keeps that width
//!   (`SimState::narrowest`: lowered at enqueue, recomputed over the
//!   survivors by a pass that started anything) and returns before the
//!   re-score, the profile rebuild and the reservations. A conservative
//!   pass that does run applies the same fact per waiter: its walk ends
//!   at the last waiter, in priority order, no wider than the cores free
//!   at entry — a wider one cannot be reserved for *now*, and a
//!   reservation that does not start now is only observable through a
//!   later job that could ([`crate::profile`], *The early stop*) — and
//!   stops sooner, on the gate's own test, once its starts have used the
//!   free cores up. [`ConservativeStats`] counts what that leaves: passes
//!   entered, waiters queued, waiters reserved, passes that started a
//!   job. Within a pass the width may be stale — too
//!   *low*, after a waiter of that width started — which only makes the
//!   test fire later than it could, never wrongly: every remaining
//!   waiter is at least that wide. The width is tracked exactly where the
//!   release list is (`track_releases`: `backfill != None`); the strict
//!   mode would pay the upkeep for nothing, since a strict pass stops at
//!   its first head that does not fit. The oracle runs every pass in full.
//!
//! # Compiled policy kernels
//!
//! [`QueueDiscipline::Compiled`] runs a policy as bytecode
//! ([`CompiledPolicy`]) instead of through the `dyn Policy` vtable. A
//! time-dependent program's **wait-invariant prefix** (the per-job static
//! part: everything depending only on `r`/`n`/`s`) is evaluated once per
//! enqueue, straight into the job's row of the queue's slot lane
//! (`SimState::q_slots`); each rescheduling event then re-scores the whole
//! queue with one chunked [`CompiledPolicy::score_batch`] pass over SoA
//! input lanes maintained in lockstep with the queue — no vtable dispatch,
//! no tree walk, and no per-job [`TaskView`] construction on the hot path.
//! The pass runs the residual as register steps, four lanes wide where the
//! CPU has AVX2, and returns the queue's head with the scores
//! ([`dynsched_policies::compile`] module docs). A *static* compiled
//! policy (residual never reads `w`) keeps no lanes: it is scored exactly
//! once, at enqueue, through the scalar kernel, like any other
//! cached-score discipline.
//!
//! What happens after the batch re-score has two shapes, chosen by the
//! backfill mode alone:
//!
//! * Strict ([`BackfillMode::None`]) and EASY
//!   ([`BackfillMode::Aggressive`]) passes build **no order at all**: the
//!   strict pass selects each head **on demand**, the minimum score among
//!   the entries it has not started yet, and stops asking at the first
//!   head that does not fit — which, on a saturated machine, is usually
//!   the first one. Scores compare as order-preserving integer keys
//!   ([`order_key`], `f64::total_cmp`'s bit transform). The first head
//!   is `score_batch`'s return value: the kernel searches each chunk of
//!   scores while it is still in L1. Each later head is
//!   [`least_position`] over the score lane alone, because the pass
//!   overwrites every entry it starts with the NaN whose key is
//!   `i64::MAX`; one O(1) check of the found entry's `started` flag falls
//!   back to a scan that filters on it, which only a waiting score with
//!   exactly those bits can need. EASY then sorts only the waiting jobs
//!   narrow enough to fit the cores free at that moment: availability
//!   only falls during the backfill scan and a job that does not fit is
//!   skipped without side effects, so the scan visits the jobs the full
//!   order would have it visit, in the same order.
//! * A conservative pass reads every position, so it full-sorts into a
//!   per-pass scratch order.
//!
//! Neither shape carries anything from one event to the next — scores
//! are freshly evaluated every event — and because the ordering
//! comparator `(score, queue position)` is total and injective, the
//! sorted permutation of a score vector is unique: the minimum of the
//! entries not yet taken *is* the next element of the full-sort order.
//! An interpreted time-dependent [`QueueDiscipline::Policy`] takes the
//! same two shapes: it fills the same score lane with one
//! [`Policy::score`] per entry, and [`least_position`] finds its first
//! head. Scores (and therefore every schedule) stay **bit-identical**
//! between the two; the `differential` harness pins full simulations
//! across backfill modes, decision modes, layouts and thread counts, and
//! [`crate::reference`] stays on the per-task scalar, full-sort path as
//! the oracle.
//!
//! [`order_key`]: dynsched_policies::order_key
//! [`least_position`]: dynsched_policies::least_position
//! [`BackfillMode::None`]: crate::BackfillMode::None
//! [`BackfillMode::Aggressive`]: crate::BackfillMode::Aggressive
//! [`BackfillMode::Conservative`]: crate::BackfillMode::Conservative

mod dispatch;
mod event_loop;
mod faults;
mod ordering;
mod state;
#[cfg(test)]
mod tests;
mod workspace;

pub(crate) use state::SimState;
pub use workspace::{simulate, SimWorkspace};

use crate::checkpoint::Checkpoint;
use crate::config::SchedulerConfig;
use crate::result::{SimMetrics, TrialMetrics};
use dynsched_cluster::{CompletedJob, Job, LedgerError};
use dynsched_policies::{CompiledPolicy, Policy, TaskView};

/// A structured engine failure: inputs the engine cannot schedule (the
/// first four variants, checked before the first event) or an
/// internal inconsistency that previously panicked, surfaced as a
/// diagnosable error. Given valid inputs, a zero-fault run cannot reach
/// the inconsistency states (the engine checks
/// [`CoreLedger::fits`](dynsched_cluster::CoreLedger::fits) before every
/// allocation and releases exactly what it allocated); under fault
/// injection they guard the revocable-capacity bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A job requests more cores than the platform has: it could never
    /// start (pre-filter with `Trace::capped_to`).
    JobWiderThanPlatform {
        /// Id of the first such job in trace order.
        job: u32,
        /// Cores it requests.
        cores: u32,
        /// Cores the platform has.
        platform_cores: u32,
    },
    /// A [`QueueDiscipline::FixedOrder`] slice has fewer ranks than the
    /// trace has jobs.
    RankSliceTooShort {
        /// Ranks supplied.
        ranks: usize,
        /// Jobs in the trace.
        jobs: usize,
    },
    /// A federation was given no clusters to route to.
    NoClusters,
    /// A federation was asked to run a [`QueueDiscipline::FixedOrder`]:
    /// fixed ranks are indexed by single-trace position and have no
    /// cross-shard meaning.
    FixedOrderFederated,
    /// A core-ledger operation failed (oversubscription or over-release).
    Ledger(LedgerError),
    /// The maintained release list disagreed with the running set: a
    /// running job was missing at completion/preemption, or a job being
    /// started was already present.
    ReleaseListInconsistent {
        /// Trace position of the offending job.
        idx: u32,
        /// Simulation time at which the inconsistency was detected.
        time: f64,
    },
    /// The queue-parallel SoA score-input lanes fell out of lockstep with
    /// the waiting queue before a compiled batch re-score. Checked (O(1))
    /// at every batch-scoring event instead of feeding mismatched lanes
    /// to the kernel.
    ScoreLanesInconsistent {
        /// Queue length at the failed event.
        queued: usize,
        /// Simulation time at which the mismatch was detected.
        time: f64,
    },
    /// Every pending event was processed but jobs were still waiting or
    /// running — the run cannot have produced a complete schedule.
    /// Reachable from bad inputs: a
    /// [`TraceSource`](dynsched_workload::TraceSource) implementation whose
    /// `cores(i)` (pre-checked against the platform) disagrees with the
    /// `job(i)` it hands the queue can park an unstartable job forever.
    QueueNotDrained {
        /// Jobs still waiting when the event loop ran dry.
        waiting: usize,
        /// Cores still marked in use.
        running: u32,
        /// Time of the last processed event.
        time: f64,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::JobWiderThanPlatform {
                job,
                cores,
                platform_cores,
            } => write!(
                f,
                "job {job} requests {cores} cores on a {platform_cores}-core platform"
            ),
            EngineError::RankSliceTooShort { ranks, jobs } => write!(
                f,
                "fixed order needs a rank per trace position ({ranks} ranks, {jobs} jobs)"
            ),
            EngineError::NoClusters => write!(f, "a federation needs at least one cluster"),
            EngineError::FixedOrderFederated => write!(
                f,
                "fixed-order disciplines are per-trace and cannot federate"
            ),
            EngineError::Ledger(e) => write!(f, "core ledger error: {e}"),
            EngineError::ReleaseListInconsistent { idx, time } => write!(
                f,
                "release list inconsistent with running set for trace index {idx} at t={time}"
            ),
            EngineError::ScoreLanesInconsistent { queued, time } => write!(
                f,
                "score lanes out of lockstep with the {queued}-job waiting queue at t={time}"
            ),
            EngineError::QueueNotDrained {
                waiting,
                running,
                time,
            } => write!(
                f,
                "events drained at t={time} with {waiting} jobs waiting and {running} cores in use"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<LedgerError> for EngineError {
    fn from(e: LedgerError) -> Self {
        EngineError::Ledger(e)
    }
}

/// How the waiting queue is ordered at each rescheduling event.
pub enum QueueDiscipline<'a> {
    /// Order by a scoring policy (lower score first), evaluated through
    /// the interpreted `dyn Policy` path: a static policy once per job at
    /// arrival, a time-dependent one per waiting job at every pass, with
    /// the same on-demand heads or full sort as
    /// [`QueueDiscipline::Compiled`].
    Policy(&'a dyn Policy),
    /// Order by a compiled bytecode policy (lower score first): the
    /// engine precomputes the wait-invariant prefix per job and re-scores
    /// the queue with the batch kernel. Bit-identical to
    /// [`QueueDiscipline::Policy`] on the policy it was compiled from.
    Compiled(&'a CompiledPolicy),
    /// Order by a fixed rank per **trace position**: the job at
    /// `trace.jobs()[i]` has rank `ranks[i]`, lower rank first. Ranks
    /// should be distinct (ties are resolved by arrival order, which is
    /// usually not what a permutation trial means); any distinct `usize`
    /// values order correctly, compared as integers. Used by the training
    /// trials, where the queue order is a random permutation of `Q`.
    FixedOrder(&'a [usize]),
}

impl<'a> QueueDiscipline<'a> {
    /// The discipline for `policy` given the outcome of
    /// [`Policy::compile`]: the bytecode kernel where a program exists,
    /// the interpreted path otherwise. Schedules are bit-identical either
    /// way, so every caller that has a policy wants exactly this choice.
    pub fn of(policy: &'a dyn Policy, compiled: Option<&'a CompiledPolicy>) -> Self {
        match compiled {
            Some(program) => Self::Compiled(program),
            None => Self::Policy(policy),
        }
    }
}

/// The policy-visible view of `job` at time `now`: decision-mode
/// processing time, cores, arrival — the one place a [`TaskView`] is
/// assembled for the interpreted scoring paths.
#[inline]
fn task_view(config: &SchedulerConfig, job: &Job, now: f64) -> TaskView {
    TaskView {
        processing_time: config.decision_time(job.runtime, job.estimate),
        cores: job.cores,
        submit: job.submit,
        now,
    }
}

/// Event-queue events are completions only, carrying the finished job's
/// trace index and the attempt number it was started under. Arrivals never
/// enter the queue: the trace is submit-sorted, so an advancing cursor
/// yields them in exactly the order the reference engine's queue does
/// (same-time arrivals in trace order, and — because the reference pushes
/// all arrivals before any completion — arrivals ahead of completions at
/// equal timestamps).
///
/// The attempt number makes preemption sound without queue surgery:
/// killing a job bumps its attempt counter, so the already-scheduled
/// completion of the killed attempt no longer matches and is skipped when
/// popped. In a zero-fault run the attempt is always 0 and never consulted;
/// a queued `(time, Completion)` entry is 16 bytes either way.
pub(crate) type Completion = (u32, u32);

/// A waiting job. Its priority key under a static order (fixed-order rank
/// or cached score's key) is *not* stored here: keys live in a parallel
/// `Vec<u64>` (`q_keys`) so the binary-search scans that order the queue
/// stay dense — the SoA split.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueueEntry {
    /// Position of the job in the trace — the dense key for `start_of`
    /// and `FixedOrder` ranks.
    idx: u32,
    job: Job,
    /// Set by the current reschedule pass; started entries leave the
    /// queue at the end of the pass.
    started: bool,
}

/// Where completion events go. The full mode materializes the per-job
/// schedule; the metrics mode folds each event into a [`SimMetrics`]
/// accumulator as it happens (same order, same float operations — that is
/// the bit-identity argument).
trait CompletionSink {
    fn record(&mut self, c: CompletedJob);
}

impl CompletionSink for Vec<CompletedJob> {
    #[inline]
    fn record(&mut self, c: CompletedJob) {
        self.push(c);
    }
}

impl CompletionSink for SimMetrics {
    #[inline]
    fn record(&mut self, c: CompletedJob) {
        self.push(&c);
    }
}

impl CompletionSink for TrialMetrics {
    #[inline]
    fn record(&mut self, c: CompletedJob) {
        self.push(&c);
    }
}

/// Work counts of a run's conservative-backfilling passes
/// ([`SimWorkspace::conservative_stats`]): deterministic, and all zero
/// under any other [`BackfillMode`](crate::BackfillMode). A pass the
/// narrowest-waiter gate skipped was not entered and counts nowhere.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConservativeStats {
    /// Passes that built a profile and walked the queue.
    pub passes: u64,
    /// Waiters queued when a pass was entered, summed over the passes.
    pub queued: u64,
    /// Waiters a pass found a slot for and reserved it — the walk stops at
    /// the last one narrow enough to start now, so at most `queued`.
    pub reserved: u64,
    /// Passes that started at least one job.
    pub passes_started: u64,
}

/// One running job's expected release, kept sorted by
/// `(decision-mode end time, trace index)`.
pub(crate) type Release = (f64, u32, u32); // (decision_end, cores, idx)

/// What span of the event loop one `run_with` call covers: the whole
/// schedule, a prefix captured into a [`Checkpoint`], or a continuation
/// restored from one. Prefix/resume are zero-fault only — the trial
/// kernel they serve never injects faults, and fault streams would make
/// a shared prefix meaningless.
enum RunMode<'c> {
    /// Simulate from time zero until the queue drains (every path that
    /// existed before checkpointing).
    Full,
    /// Stop before the first event at or after `horizon` and capture the
    /// engine state into `into` instead of draining the queue.
    Prefix {
        horizon: f64,
        into: &'c mut Checkpoint,
    },
    /// Start from a captured snapshot instead of the pristine state, then
    /// run to drain as usual, into a sink the caller already seeded with
    /// the snapshot's completion prefix (the listed one, or
    /// [`Checkpoint::fold_prefix`]).
    Resume { from: &'c Checkpoint },
}

impl<'c> RunMode<'c> {
    /// The snapshot a resume starts from.
    fn restores(&self) -> Option<&'c Checkpoint> {
        match *self {
            RunMode::Resume { from } => Some(from),
            _ => None,
        }
    }
}
