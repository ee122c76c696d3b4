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
//! per-call allocations (event heap, running-job hash table, per-timestamp
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
//! [`simulate`] is the convenience wrapper (fresh workspace per call);
//! [`simulate_into`] reuses a caller-owned workspace. Both produce results
//! bit-identical to the original engine, which is preserved in
//! [`crate::reference`] as the oracle for the determinism regression tests.
//! A workspace holds no cross-run state: every run starts by resetting all
//! buffers, so reuse can never leak one simulation into the next.
//!
//! # Metrics-only mode
//!
//! The evaluation layer reduces every simulation to one
//! [`SimMetrics`] — an AVEbsld sum under τ, a
//! backfill count, a makespan — and discards the per-job schedule. For that
//! caller the per-run `Vec<CompletedJob>` is pure overhead, so the engine's
//! main loop is generic over a *completion sink*: the full mode pushes each
//! completion into the workspace's list, the metrics mode
//! ([`SimWorkspace::run_metrics`] / [`simulate_metrics_into`]) streams it
//! straight into the accumulator. With a warmed-up workspace the metrics
//! path performs **no heap allocation at all**, and because events stream
//! in completion order the accumulated sums are bit-identical to
//! materializing a result and reducing it afterwards.
//!
//! # Reschedule fast paths
//!
//! Two structural optimizations keep grid-scale evaluation cheap without
//! changing any observable schedule (both are proven bit-identical against
//! [`crate::reference`]):
//!
//! * **No-op reschedule skip.** Under [`BackfillMode::None`] with a static
//!   queue order, an arrival that sorts behind a blocked queue head cannot
//!   start anything: availability is unchanged and the strict pass stops at
//!   the same head. The engine tracks head-blocked state and skips the
//!   entire pass for such arrivals.
//! * **SoA queue keys.** The priority key of every waiting job (fixed-order
//!   rank or cached score) lives in a dense `Vec<f64>` parallel to the
//!   entry list, so the binary-search insertions and sortedness scans touch
//!   8-byte keys instead of full queue entries.
//!
//! # Compiled policy kernels
//!
//! [`QueueDiscipline::Compiled`] runs a policy as bytecode
//! ([`CompiledPolicy`]) instead of through the `dyn Policy` vtable. At run
//! start the engine evaluates the policy's **wait-invariant prefix** once
//! per trace position into a dense [`JobLanes`] row block (the per-job
//! static part: everything depending only on `r`/`n`/`s`); each
//! rescheduling event then re-scores the whole queue with one
//! lane-blocked [`CompiledPolicy::score_batch`] pass over SoA input lanes
//! maintained in lockstep with the queue — no vtable dispatch, no tree
//! walk, and no per-job [`TaskView`] construction on the hot path. A
//! *static* compiled policy (residual never reads `w`) skips the lanes
//! entirely: it is scored exactly once, at enqueue, through the scalar
//! kernel, like any other cached-score discipline.
//!
//! What happens after the batch re-score is keyed off the compile-time
//! [`ResidualClass`] of the policy's residual and the backfill mode:
//!
//! * *Uniform-aging* residuals (affine in `w` with a job-uniform
//!   coefficient, or a monotone transform thereof) keep the previous
//!   event's priority order alive: after the batch re-score the standing
//!   order is verified still-sorted in O(queue) under the fresh bits and
//!   new arrivals are binary-inserted; any mismatch (rounding can
//!   collapse a strict pair into a position-broken tie) falls back to the
//!   full sort. Started jobs are carried out of the order by the same
//!   compaction that maintains the queue and lanes.
//! * *General* residuals under strict ([`BackfillMode::None`]) or classic
//!   EASY ([`BackfillMode::Aggressive`], one reservation) scheduling
//!   build **no order at all**: the strict pass selects each head **on
//!   demand**, by one linear scan for the minimum score among the entries
//!   it has not started yet, and stops asking at the first head that does
//!   not fit — which, on a saturated machine, is usually the first one.
//!   EASY then sorts only the waiting jobs narrow enough to fit the cores
//!   free at that moment: availability only falls during the backfill
//!   scan and a job that does not fit is skipped without side effects, so
//!   the scan visits the jobs the full order would have it visit, in the
//!   same order.
//! * Conservative and deep-EASY passes read every position, so they
//!   full-sort.
//!
//! The class is a hint, never a correctness input — scores are freshly
//! evaluated every event, and because the ordering comparator
//! `(score, queue position)` is total and injective, the sorted
//! permutation of a score vector is unique: the minimum of the entries
//! not yet taken *is* the next element of the full-sort order, and a
//! verified or binary-inserted standing order *is* that order. Scores
//! (and therefore every schedule) stay **bit-identical** to the
//! interpreted [`QueueDiscipline::Policy`] path; the
//! `compiled_bit_identity` and `incremental_rescore` suites pin full
//! simulations across backfill modes, decision modes, layouts and thread
//! counts, and [`crate::reference`] stays on the per-task scalar,
//! full-sort path as the oracle.

use crate::checkpoint::Checkpoint;
use crate::config::{BackfillMode, SchedulerConfig};
use crate::profile::{clamp_release, Profile};
use crate::result::{SimMetrics, SimulationResult};
use dynsched_cluster::{
    AbandonedJob, AvailabilitySchedule, CompletedJob, CoreLedger, Job, JobId, LedgerError,
};
use dynsched_policies::{
    BatchScratch, CompiledPolicy, Policy, ResidualClass, ScoreLanes, TaskView,
};
use dynsched_simkit::{Clock, EventQueue};
use dynsched_workload::{JobLanes, TraceSource};

/// A structured engine failure: an internal inconsistency that previously
/// panicked now surfaces as a diagnosable error. In a zero-fault run these
/// states are unreachable (the engine checks [`CoreLedger::fits`] before
/// every allocation and releases exactly what it allocated); under
/// fault injection they guard the revocable-capacity bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
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
    /// The incrementally maintained priority order no longer describes
    /// the waiting queue (its length disagrees with the last synchronized
    /// prefix). Guards the incremental re-scoring layer the same way
    /// [`EngineError::ReleaseListInconsistent`] guards the release list.
    QueueOrderInconsistent {
        /// Entries in the maintained order.
        ordered: usize,
        /// Jobs actually waiting.
        queued: usize,
        /// Simulation time at which the mismatch was detected.
        time: f64,
    },
    /// Every pending event was processed but jobs were still waiting or
    /// running — the run cannot have produced a complete schedule.
    /// Reachable from bad inputs: a [`TraceSource`] implementation whose
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
            EngineError::Ledger(e) => write!(f, "core ledger error: {e}"),
            EngineError::ReleaseListInconsistent { idx, time } => write!(
                f,
                "release list inconsistent with running set for trace index {idx} at t={time}"
            ),
            EngineError::ScoreLanesInconsistent { queued, time } => write!(
                f,
                "score lanes out of lockstep with the {queued}-job waiting queue at t={time}"
            ),
            EngineError::QueueOrderInconsistent {
                ordered,
                queued,
                time,
            } => write!(
                f,
                "incremental order covers {ordered} entries but {queued} jobs wait at t={time}"
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
    /// the interpreted `dyn Policy` path.
    Policy(&'a dyn Policy),
    /// Order by a compiled bytecode policy (lower score first): the
    /// engine precomputes the wait-invariant prefix per job and re-scores
    /// the queue with the batch kernel. Bit-identical to
    /// [`QueueDiscipline::Policy`] on the policy it was compiled from.
    Compiled(&'a CompiledPolicy),
    /// Order by a fixed rank per **trace position**: the job at
    /// `trace.jobs()[i]` has rank `ranks[i]`, lower rank first. Ranks must
    /// be distinct (ties would be resolved by arrival order, which is
    /// usually not what a permutation trial means). Used by the training
    /// trials, where the queue order is a random permutation of `Q`.
    FixedOrder(&'a [usize]),
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

/// Heap events are completions only, carrying the finished job's trace
/// index and the attempt number it was started under. Arrivals never enter
/// the heap: the trace is submit-sorted, so an advancing cursor yields them
/// in exactly the order the reference engine's heap did (same-time arrivals
/// in trace order, and — because the reference pushed all arrivals before
/// any completion — arrivals ahead of completions at equal timestamps).
///
/// The attempt number makes preemption sound without heap surgery: killing
/// a job bumps its attempt counter, so the already-scheduled completion of
/// the killed attempt no longer matches and is skipped when popped. In a
/// zero-fault run the attempt is always 0 and never consulted; the payload
/// widens `Scheduled<Completion>` within the same 24-byte layout.
pub(crate) type Completion = (u32, u32);

/// A waiting job. Its priority key (fixed-order rank or cached score) is
/// *not* stored here: keys live in a parallel `Vec<f64>` (`q_keys`) so the
/// binary-search scans that order the queue stay dense — the SoA split.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueueEntry {
    /// Position of the job in the trace — the dense key for `start_of`
    /// and `FixedOrder` ranks.
    idx: u32,
    job: Job,
    /// Set by the current reschedule pass; started entries are compacted
    /// out of the queue at the end of the pass.
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
    /// run to drain as usual.
    Resume { from: &'c Checkpoint },
}

/// How the waiting queue is kept ordered. For *static* disciplines — fixed
/// ranks, or policies whose scores never change after arrival — the queue
/// itself is maintained in priority order by binary-search insertion, so a
/// reschedule pays no sort at all (the priority order is the queue order).
/// Time-dependent policies re-score and re-sort at every event.
#[derive(Debug, Clone, Copy, PartialEq)]
enum QueueOrder {
    /// Queue maintained sorted by `ranks[idx]` (ranks are distinct).
    ByRank,
    /// Queue maintained sorted by `(cached_score, arrival order)` — equal
    /// scores insert after their peers, which reproduces the reference's
    /// stable-sort arrival tie-break.
    ByCachedScore,
    /// Re-sorted at every rescheduling event.
    TimeDependent,
}

/// All per-simulation buffers, reusable across runs.
///
/// Construct once (per thread — it is `Send` but deliberately not shared),
/// then call [`SimWorkspace::run`] any number of times; every buffer is
/// cleared and refilled per run, retaining its allocation. Results stay in
/// the workspace until the next run: read them with the accessor methods,
/// or materialize an owned [`SimulationResult`] with
/// [`SimWorkspace::result`]. The batched trial kernel reads
/// [`SimWorkspace::avg_bounded_slowdown_of`] directly and never
/// materializes a result — that is the fully allocation-free path.
#[derive(Debug, Default)]
pub struct SimWorkspace {
    events: EventQueue<Completion>,
    queue: Vec<QueueEntry>,
    /// Priority key per queue position (rank as f64, or cached score),
    /// maintained in lockstep with `queue` for static disciplines — the
    /// SoA half the binary-search scans read.
    q_keys: Vec<f64>,
    /// Priority order of queue positions for time-dependent policies
    /// (static disciplines keep the queue itself priority-sorted; stays
    /// empty where heads are selected on demand).
    order: Vec<usize>,
    /// `(queue position, score)` scratch: the whole queue for interpreted
    /// time-dependent policies, the EASY backfill candidates under
    /// on-demand selection.
    scored: Vec<(usize, f64)>,
    /// Maintained sorted releases of the running set.
    releases: Vec<Release>,
    /// Clamped `(time, cores)` copy handed to the profile.
    rel_scratch: Vec<(f64, u32)>,
    /// Wait-invariant prefix slots of a compiled policy, one row per
    /// trace position — filled once at run start, read at every enqueue.
    static_lanes: JobLanes,
    /// Queue-parallel SoA input lanes for compiled batch scoring
    /// (decision-mode `r`, `n`, `s`), maintained in lockstep with `queue`
    /// only for time-dependent compiled disciplines.
    q_r: Vec<f64>,
    q_n: Vec<f64>,
    q_s: Vec<f64>,
    /// Queue-parallel copies of the jobs' static slot rows (stride =
    /// `CompiledPolicy::slot_count`), same lockstep discipline.
    q_slots: Vec<f64>,
    /// Batch-kernel score output lane.
    batch_scores: Vec<f64>,
    /// Bytecode VM stack scratch.
    vm_stack: Vec<f64>,
    /// Lane-blocked batch-kernel scratch (block stack + scalar tail).
    batch_scratch: BatchScratch,
    /// Prefix slot-row scratch for scoring a static compiled policy at
    /// enqueue (its scores never change, so no per-trace lanes exist).
    slot_row: Vec<f64>,
    /// Old→new queue-position remap scratch for carrying the incremental
    /// order across a compaction (`u32::MAX` marks a started entry).
    order_remap: Vec<u32>,
    profile: Profile,
    /// Start time per trace index; NaN when not running.
    start_of: Vec<f64>,
    /// Attempt counter per trace index, bumped at every preemption; the
    /// liveness key for completion events. All zeros in a zero-fault run.
    attempt_of: Vec<u32>,
    /// Jobs that hit their retry cap (or were stranded by a schedule that
    /// never restores enough capacity), in abandonment order.
    abandoned: Vec<AbandonedJob>,
    /// `(start, idx)` scratch for deterministic victim selection.
    victim_scratch: Vec<(f64, u32)>,
    ledger: CoreLedger,
    completed: Vec<CompletedJob>,
    /// Set while the workspace's last run was metrics-only (`run_metrics`):
    /// the completion list was streamed away, so the per-job accessors
    /// must refuse rather than return an empty-but-plausible result.
    metrics_only: bool,
    makespan: f64,
    utilization: f64,
    events_processed: u64,
    backfilled: u64,
    preempted: u64,
    lost_core_seconds: f64,
}

impl SimWorkspace {
    /// A fresh workspace. Buffers grow on first use and are retained.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run one simulation, leaving the outcome in this workspace.
    ///
    /// The trace parameter is any [`TraceSource`]: an AoS
    /// [`Trace`](dynsched_workload::Trace) or the dense columns of a
    /// [`TraceView`](dynsched_workload::TraceView) — the engine reads
    /// per-field lanes either way, and the two layouts are bit-identical
    /// in every simulation result (the `soa_bit_identity` suite pins it).
    ///
    /// # Panics
    /// Panics if any job requests more cores than the platform has (it
    /// could never start; pre-filter with `Trace::capped_to`), or if a
    /// [`QueueDiscipline::FixedOrder`] slice is shorter than the trace.
    pub fn run<T: TraceSource>(
        &mut self,
        trace: &T,
        discipline: &QueueDiscipline<'_>,
        config: &SchedulerConfig,
    ) {
        self.try_run(trace, discipline, config)
            .expect("zero-fault simulation cannot reach an engine error");
    }

    /// Fallible form of [`SimWorkspace::run`]. In a zero-fault run every
    /// [`EngineError`] state is unreachable, so this only exists for
    /// callers that want the structured error surface instead of a panic.
    pub fn try_run<T: TraceSource>(
        &mut self,
        trace: &T,
        discipline: &QueueDiscipline<'_>,
        config: &SchedulerConfig,
    ) -> Result<(), EngineError> {
        // Lend the completion list out as the sink (it goes back below, so
        // a reused workspace keeps its capacity).
        let mut completed = std::mem::take(&mut self.completed);
        completed.clear();
        let outcome = self.run_with::<false, _, _>(
            trace,
            discipline,
            config,
            &mut completed,
            None,
            RunMode::Full,
        );
        self.completed = completed;
        self.metrics_only = false;
        self.makespan = self.completed.iter().map(|c| c.finish).fold(0.0, f64::max);
        self.utilization = self.ledger.utilization(self.makespan).unwrap_or(0.0);
        outcome
    }

    /// Run one simulation under a fault schedule: the ledger follows the
    /// schedule's capacity steps, jobs running when capacity drops below
    /// the in-use count are preempted (youngest start first, trace position
    /// as tie-break) and requeued until their retry cap, and the queue
    /// keeps scheduling against whatever capacity remains.
    ///
    /// With an empty schedule this is **bit-identical** to
    /// [`SimWorkspace::run`] (the `fault_bit_identity` suite pins it);
    /// faulty runs are pinned against `scheduler::reference`'s faulty
    /// oracle. Preemption/loss outcomes are readable through
    /// [`SimWorkspace::preempted_jobs`], [`SimWorkspace::lost_core_seconds`]
    /// and [`SimWorkspace::abandoned`], and ride along in
    /// [`SimWorkspace::result`].
    ///
    /// # Panics
    /// See [`SimWorkspace::run`].
    pub fn run_faulty<T: TraceSource>(
        &mut self,
        trace: &T,
        discipline: &QueueDiscipline<'_>,
        config: &SchedulerConfig,
        schedule: &AvailabilitySchedule,
    ) -> Result<(), EngineError> {
        let mut completed = std::mem::take(&mut self.completed);
        completed.clear();
        let outcome = self.run_with::<true, _, _>(
            trace,
            discipline,
            config,
            &mut completed,
            Some(schedule),
            RunMode::Full,
        );
        self.completed = completed;
        self.metrics_only = false;
        self.makespan = self.completed.iter().map(|c| c.finish).fold(0.0, f64::max);
        self.utilization = self.ledger.utilization(self.makespan).unwrap_or(0.0);
        outcome
    }

    /// Run one simulation in **metrics-only mode**: completion events are
    /// folded straight into the returned [`SimMetrics`] and no per-job
    /// schedule is materialized — with a warmed-up workspace this path
    /// performs no heap allocation at all. The accumulated values are
    /// bit-identical to running [`SimWorkspace::run`] and reducing with
    /// [`SimMetrics::from_result`], because events stream in completion
    /// order (the determinism suite proves this against the reference
    /// engine). Makespan, utilization, event and backfill counters stay
    /// readable through the accessors; the per-job accessors
    /// ([`SimWorkspace::completed`], [`SimWorkspace::result`],
    /// [`SimWorkspace::avg_bounded_slowdown_of`]) panic until the next
    /// materializing [`SimWorkspace::run`], since no schedule was kept.
    ///
    /// # Panics
    /// See [`SimWorkspace::run`].
    pub fn run_metrics<T: TraceSource>(
        &mut self,
        trace: &T,
        discipline: &QueueDiscipline<'_>,
        config: &SchedulerConfig,
        tau: f64,
    ) -> SimMetrics {
        let mut metrics = SimMetrics::new(tau);
        self.completed.clear();
        self.metrics_only = true;
        self.run_with::<false, _, _>(trace, discipline, config, &mut metrics, None, RunMode::Full)
            .expect("zero-fault simulation cannot reach an engine error");
        metrics.backfilled_jobs = self.backfilled;
        self.makespan = metrics.makespan;
        self.utilization = self.ledger.utilization(self.makespan).unwrap_or(0.0);
        metrics
    }

    /// Metrics-only form of [`SimWorkspace::run_faulty`]: completions are
    /// folded straight into the returned [`SimMetrics`], whose resilience
    /// counters (preemptions, abandonments, lost core-seconds) are filled
    /// from the run. The AVEbsld sum covers completed jobs only — an
    /// abandoned job has no finish time to score.
    ///
    /// # Panics
    /// See [`SimWorkspace::run`].
    pub fn run_metrics_faulty<T: TraceSource>(
        &mut self,
        trace: &T,
        discipline: &QueueDiscipline<'_>,
        config: &SchedulerConfig,
        schedule: &AvailabilitySchedule,
        tau: f64,
    ) -> Result<SimMetrics, EngineError> {
        let mut metrics = SimMetrics::new(tau);
        self.completed.clear();
        self.metrics_only = true;
        self.run_with::<true, _, _>(
            trace,
            discipline,
            config,
            &mut metrics,
            Some(schedule),
            RunMode::Full,
        )?;
        metrics.backfilled_jobs = self.backfilled;
        metrics.preempted_jobs = self.preempted;
        metrics.abandoned_jobs = self.abandoned.len() as u64;
        metrics.lost_core_seconds = self.lost_core_seconds;
        self.makespan = metrics.makespan;
        self.utilization = self.ledger.utilization(self.makespan).unwrap_or(0.0);
        Ok(metrics)
    }

    /// Run the event loop up to `horizon` and capture the engine state
    /// into `into` — the checkpoint half of the checkpoint/fork API (see
    /// [`crate::checkpoint`] for the full contract).
    ///
    /// Every event with timestamp strictly **before** `horizon` is
    /// processed; the first event at or after it is left pending, so the
    /// snapshot is exactly the state a scratch run passes through on its
    /// way to that event. A `horizon` of `0.0` (or anything at or before
    /// the first submit) captures the pristine initial state — resuming
    /// that degenerate snapshot is a plain [`SimWorkspace::run`]. `into`'s
    /// buffers are reused across captures, so a warm checkpoint costs
    /// copies, not allocation.
    ///
    /// After this returns the workspace holds the *partial* state of the
    /// prefix: [`SimWorkspace::completed`] lists only pre-horizon
    /// completions and makespan/utilization cover the prefix alone. Run or
    /// resume before reading whole-schedule results.
    ///
    /// # Panics
    /// See [`SimWorkspace::run`].
    pub fn run_prefix<T: TraceSource>(
        &mut self,
        trace: &T,
        discipline: &QueueDiscipline<'_>,
        config: &SchedulerConfig,
        horizon: f64,
        into: &mut Checkpoint,
    ) {
        assert!(!horizon.is_nan(), "checkpoint horizon must not be NaN");
        let mut completed = std::mem::take(&mut self.completed);
        completed.clear();
        let outcome = self.run_with::<false, _, _>(
            trace,
            discipline,
            config,
            &mut completed,
            None,
            RunMode::Prefix { horizon, into },
        );
        self.completed = completed;
        self.metrics_only = false;
        self.makespan = self.completed.iter().map(|c| c.finish).fold(0.0, f64::max);
        self.utilization = self.ledger.utilization(self.makespan).unwrap_or(0.0);
        outcome.expect("zero-fault simulation cannot reach an engine error");
        // The completion prefix is captured here rather than inside the
        // loop: the sink is this workspace's own list, handed back just
        // above.
        into.completed.clone_from(&self.completed);
    }

    /// Restore the engine state captured in `from` and continue the
    /// simulation to completion under `discipline` — the fork half of the
    /// checkpoint/fork API.
    ///
    /// `trace` and `config` must be the ones the prefix ran with, and
    /// `discipline` must rank every pre-horizon job exactly as the
    /// prefix's discipline did (the trial kernel's permutations satisfy
    /// this by construction: warmup ranks are permutation-invariant). The
    /// result — completions, counters, makespan, utilization, AVEbsld —
    /// is then **bit-identical** to a scratch [`SimWorkspace::run`] under
    /// `discipline`, at any worker count (the `checkpoint_bit_identity`
    /// suite pins it). The restore copies into preallocated buffers: a
    /// warm workspace allocates nothing.
    ///
    /// # Panics
    /// Panics if `trace`'s length differs from the checkpointed trace's,
    /// plus the conditions of [`SimWorkspace::run`].
    pub fn resume_from<T: TraceSource>(
        &mut self,
        from: &Checkpoint,
        trace: &T,
        discipline: &QueueDiscipline<'_>,
        config: &SchedulerConfig,
    ) {
        let mut completed = std::mem::take(&mut self.completed);
        completed.clear();
        let outcome = self.run_with::<false, _, _>(
            trace,
            discipline,
            config,
            &mut completed,
            None,
            RunMode::Resume { from },
        );
        self.completed = completed;
        self.metrics_only = false;
        self.makespan = self.completed.iter().map(|c| c.finish).fold(0.0, f64::max);
        self.utilization = self.ledger.utilization(self.makespan).unwrap_or(0.0);
        outcome.expect("zero-fault simulation cannot reach an engine error");
    }

    /// The engine proper, generic over where completions go, over the
    /// trace's storage layout, and — at compile time — over whether fault
    /// injection is active. `FAULTY = false` monomorphizes every fault
    /// branch away, which is how the zero-fault path keeps both its
    /// bit-identity and its throughput (the `fault_throughput` bench pins
    /// the overhead at ≤5%).
    fn run_with<const FAULTY: bool, K: CompletionSink, T: TraceSource>(
        &mut self,
        trace: &T,
        discipline: &QueueDiscipline<'_>,
        config: &SchedulerConfig,
        sink: &mut K,
        schedule: Option<&AvailabilitySchedule>,
        mode: RunMode<'_>,
    ) -> Result<(), EngineError> {
        debug_assert!(
            !FAULTY || matches!(mode, RunMode::Full),
            "checkpoint/fork is a zero-fault API"
        );
        let n_jobs = trace.len();
        let total_cores = config.platform.total_cores;
        for i in 0..n_jobs {
            assert!(
                trace.cores(i) <= total_cores,
                "job {} requests {} cores on a {}-core platform",
                trace.id(i),
                trace.cores(i),
                total_cores
            );
        }
        if let QueueDiscipline::FixedOrder(ranks) = discipline {
            assert!(
                ranks.len() >= n_jobs,
                "fixed order needs a rank per trace position ({} ranks, {} jobs)",
                ranks.len(),
                n_jobs
            );
        }

        self.events.reset();
        self.queue.clear();
        self.q_keys.clear();
        self.order.clear();
        self.scored.clear();
        self.order_remap.clear();
        self.releases.clear();
        self.q_r.clear();
        self.q_n.clear();
        self.q_s.clear();
        self.q_slots.clear();
        self.batch_scores.clear();
        self.start_of.clear();
        self.start_of.resize(n_jobs, f64::NAN);
        self.attempt_of.clear();
        self.attempt_of.resize(n_jobs, 0);
        self.abandoned.clear();
        self.victim_scratch.clear();
        self.ledger.reset(config.platform);
        self.events_processed = 0;
        self.backfilled = 0;
        self.preempted = 0;
        self.lost_core_seconds = 0.0;

        let queue_order = match discipline {
            QueueDiscipline::FixedOrder(_) => QueueOrder::ByRank,
            QueueDiscipline::Policy(p) if !p.time_dependent() => QueueOrder::ByCachedScore,
            QueueDiscipline::Policy(_) => QueueOrder::TimeDependent,
            QueueDiscipline::Compiled(cp) if !cp.time_dependent() => QueueOrder::ByCachedScore,
            QueueDiscipline::Compiled(_) => QueueOrder::TimeDependent,
        };
        // Time-dependent compiled discipline: evaluate the wait-invariant
        // prefix once per trace position into the dense slot lanes — the
        // per-job static part, constant for each job's whole queue
        // lifetime. A *static* compiled policy skips this whole-trace
        // pass: its score is computed exactly once, at enqueue, through
        // the scalar kernel, so per-trace slot lanes would be pure setup
        // cost that nothing ever re-reads.
        match discipline {
            QueueDiscipline::Compiled(cp) if cp.time_dependent() => {
                let vm_stack = &mut self.vm_stack;
                self.static_lanes.fill(n_jobs, cp.slot_count(), |i, row| {
                    let r = config.decision_time(trace.runtime(i), trace.estimate(i));
                    cp.prefix_into(r, trace.cores(i) as f64, trace.submit(i), row, vm_stack);
                });
            }
            _ => self.static_lanes.reset(0, 0),
        }
        // Queue maintenance is keyed off the compiled residual's class (a
        // hint — every path works on fresh score bits): uniform-aging
        // residuals keep the previous event's order alive across events;
        // general residuals under strict or classic-EASY scheduling build
        // no order at all and pick each head on demand.
        let (incremental, on_demand) = match discipline {
            QueueDiscipline::Compiled(cp) if cp.time_dependent() => (
                cp.residual_class() == ResidualClass::UniformAging,
                cp.residual_class() == ResidualClass::General
                    && match config.backfill {
                        BackfillMode::None => true,
                        BackfillMode::Aggressive => config.reservation_depth <= 1,
                        BackfillMode::Conservative => false,
                    },
            ),
            _ => (false, false),
        };
        let steps = if FAULTY {
            schedule.expect("faulty run needs a schedule").steps()
        } else {
            &[]
        };
        let max_retries = if FAULTY {
            schedule.expect("faulty run needs a schedule").max_retries()
        } else {
            u32::MAX
        };
        // The no-op skip only applies where a blocked head is a stable
        // fact: strict mode (nothing behind the head can ever start)
        // with a static order (the head cannot change by re-scoring).
        let skip_eligible =
            config.backfill == BackfillMode::None && queue_order != QueueOrder::TimeDependent;
        let prefix_horizon = match &mode {
            RunMode::Prefix { horizon, .. } => Some(*horizon),
            _ => None,
        };
        // Resuming: overwrite the pristine buffers with the snapshot. Every
        // copy below is a `clone_from` into a just-cleared (allocation-
        // retaining) buffer, so a warm workspace performs no allocation.
        // The completion prefix replays into the sink first — prefix
        // completions all finish strictly before the horizon, ahead of any
        // suffix completion, so the merged stream is in true completion
        // order and metrics accumulation stays bit-identical to scratch.
        let (mut cursor, mut events_processed, resume_known, resume_head_blocked) =
            if let RunMode::Resume { from } = &mode {
                assert_eq!(
                    from.n_jobs, n_jobs,
                    "checkpoint was captured for a different trace length"
                );
                self.events.restore_from(&from.events);
                self.queue.clone_from(&from.queue);
                self.q_keys.clone_from(&from.q_keys);
                self.order.clone_from(&from.order);
                self.releases.clone_from(&from.releases);
                self.q_r.clone_from(&from.q_r);
                self.q_n.clone_from(&from.q_n);
                self.q_s.clone_from(&from.q_s);
                self.q_slots.clone_from(&from.q_slots);
                self.start_of.clone_from(&from.start_of);
                self.ledger.clone_from(&from.ledger);
                self.backfilled = from.backfilled;
                for c in &from.completed {
                    sink.record(*c);
                }
                (
                    from.cursor,
                    from.events_processed,
                    from.known,
                    from.head_blocked,
                )
            } else {
                (0, 0, 0, false)
            };
        let mut clock = Clock::new();
        let SimWorkspace {
            events,
            queue,
            q_keys,
            order,
            scored,
            releases,
            rel_scratch,
            static_lanes,
            q_r,
            q_n,
            q_s,
            q_slots,
            batch_scores,
            vm_stack,
            batch_scratch,
            slot_row,
            order_remap,
            profile,
            start_of,
            attempt_of,
            abandoned,
            victim_scratch,
            ledger,
            backfilled,
            preempted,
            lost_core_seconds,
            ..
        } = self;
        let mut eng = Engine {
            trace,
            discipline,
            config,
            queue_order,
            track_releases: config.backfill != BackfillMode::None,
            skip_eligible,
            // A restored blocked-head fact is only valid where the skip may
            // fire at all; under any other mode it is conservatively
            // dropped (the next reschedule simply does the full pass).
            head_blocked: resume_head_blocked && skip_eligible,
            track_lanes: matches!(discipline, QueueDiscipline::Compiled(_))
                && queue_order == QueueOrder::TimeDependent,
            incremental,
            on_demand,
            known: if incremental { resume_known } else { 0 },
            max_retries,
            events,
            queue,
            q_keys,
            order,
            scored,
            releases,
            rel_scratch,
            static_lanes,
            q_r,
            q_n,
            q_s,
            q_slots,
            batch_scores,
            vm_stack,
            batch_scratch,
            slot_row,
            order_remap,
            profile,
            start_of,
            attempt_of,
            abandoned,
            victim_scratch,
            ledger,
            sink,
            backfilled,
            preempted,
            lost_core_seconds,
        };
        if matches!(mode, RunMode::Resume { .. }) && queue_order != QueueOrder::TimeDependent {
            eng.rescore_restored_queue();
        }

        // Arrivals come off the submit-sorted trace via `cursor`;
        // completions off the heap; under fault injection, capacity steps
        // off the schedule via `step_cursor`. At equal timestamps arrivals
        // process first (trace order), then completions (start/push order —
        // the exact FIFO batch order the reference engine's single heap
        // produces), then capacity steps: a job finishing at `t` is never a
        // preemption victim at `t`.
        let mut step_cursor = 0usize;
        loop {
            let next_arrival = (cursor < n_jobs).then(|| trace.submit(cursor));
            let mut t = match (next_arrival, eng.events.peek_time()) {
                (Some(a), Some(c)) => Some(a.min(c)),
                (Some(a), None) => Some(a),
                (None, Some(c)) => Some(c),
                (None, None) => None,
            };
            if FAULTY && step_cursor < steps.len() {
                // A waiting queue can be unblocked only by a capacity
                // restore, so pending steps must drive the loop even when
                // no arrival or completion is left.
                let s = steps[step_cursor].time;
                t = Some(t.map_or(s, |t| t.min(s)));
            }
            let Some(t) = t else { break };
            if let Some(h) = prefix_horizon {
                // Prefix mode: process every event strictly before the
                // horizon, leave the first one at or after it pending —
                // the capture below sees exactly the state a scratch run
                // passes through on its way to that event.
                if t >= h {
                    break;
                }
            }
            clock.advance_to(t);
            while cursor < n_jobs && trace.submit(cursor) == t {
                events_processed += 1;
                eng.enqueue(cursor as u32);
                cursor += 1;
            }
            while eng.events.peek_time() == Some(t) {
                let (idx, attempt) = eng.events.pop().expect("peeked").1;
                if FAULTY && attempt != eng.attempt_of[idx as usize] {
                    // Stale completion of a preempted attempt.
                    continue;
                }
                events_processed += 1;
                eng.complete(idx, t)?;
            }
            if FAULTY {
                while step_cursor < steps.len() && steps[step_cursor].time == t {
                    events_processed += 1;
                    eng.apply_capacity(steps[step_cursor].capacity, t)?;
                    step_cursor += 1;
                }
            }
            eng.reschedule(t)?;
        }

        if let RunMode::Prefix { horizon, into } = mode {
            // Capture everything the loop above reads or writes. The
            // completion prefix is *not* captured here — the sink is
            // generic; `run_prefix` copies it out of the workspace's own
            // list after this returns. The drained-queue check below is
            // deliberately skipped: a prefix legitimately stops with jobs
            // waiting and running.
            into.horizon = horizon;
            into.n_jobs = n_jobs;
            into.cursor = cursor;
            into.events.restore_from(eng.events);
            into.queue.clone_from(eng.queue);
            into.q_keys.clone_from(eng.q_keys);
            into.order.clone_from(eng.order);
            into.known = eng.known;
            into.head_blocked = eng.head_blocked;
            into.releases.clone_from(eng.releases);
            into.q_r.clone_from(eng.q_r);
            into.q_n.clone_from(eng.q_n);
            into.q_s.clone_from(eng.q_s);
            into.q_slots.clone_from(eng.q_slots);
            into.start_of.clone_from(eng.start_of);
            into.ledger.clone_from(eng.ledger);
            into.backfilled = *eng.backfilled;
            into.events_processed = events_processed;
            self.events_processed = events_processed;
            return Ok(());
        }

        if FAULTY && !eng.queue.is_empty() {
            // The schedule ended with too little capacity for these jobs
            // and nothing pending can ever free more: report them as
            // abandoned (in trace order) rather than dropping them.
            // `FaultProfile::expand` always restores full capacity, so this
            // is reachable only through hand-built schedules.
            eng.strand_waiting(clock.now());
        }
        // Promoted from a debug assertion: a run that processed every
        // pending event but left jobs waiting or cores in use has not
        // produced a complete schedule, and the state is reachable from
        // bad inputs (an inconsistent `TraceSource` can park an
        // unstartable job forever), so it must surface in release builds
        // rather than return an empty-but-plausible result.
        if !eng.queue.is_empty() || eng.ledger.used() != 0 {
            return Err(EngineError::QueueNotDrained {
                waiting: eng.queue.len(),
                running: eng.ledger.used(),
                time: clock.now(),
            });
        }
        debug_assert!(
            eng.releases.is_empty(),
            "drained simulation left release entries"
        );
        self.events_processed = events_processed;
        Ok(())
    }

    /// Completed jobs of the last run, in completion order.
    ///
    /// # Panics
    /// Panics if the last run was metrics-only ([`SimWorkspace::run_metrics`]
    /// streams completions away instead of materializing them — an empty
    /// list here would be silently wrong, not empty).
    pub fn completed(&self) -> &[CompletedJob] {
        assert!(
            !self.metrics_only,
            "the last run was metrics-only: per-job completions were not materialized"
        );
        &self.completed
    }

    /// Time the last job of the last run finished.
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// Mean platform utilization of the last run over `[0, makespan]`.
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// Scheduling events processed by the last run.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Jobs the last run started via backfilling.
    pub fn backfilled_jobs(&self) -> u64 {
        self.backfilled
    }

    /// Preemptions (kill-and-requeue events) of the last run. Zero unless
    /// the run went through [`SimWorkspace::run_faulty`].
    pub fn preempted_jobs(&self) -> u64 {
        self.preempted
    }

    /// Core-seconds of work destroyed by preemptions in the last run: the
    /// elapsed time of each killed attempt times its width. Goodput is
    /// the ledger's busy integral minus this.
    pub fn lost_core_seconds(&self) -> f64 {
        self.lost_core_seconds
    }

    /// Jobs the last run abandoned (retry cap exhausted, or stranded by a
    /// schedule that never restores enough capacity), in abandonment order.
    /// Readable in both full and metrics-only mode.
    pub fn abandoned(&self) -> &[AbandonedJob] {
        &self.abandoned
    }

    /// Busy core-seconds of the last run's ledger integrated over
    /// `[0, horizon]` (goodput plus [`SimWorkspace::lost_core_seconds`]).
    /// With integer-valued step times and core counts the integral is
    /// exact in `f64`, which is what the conservation property test
    /// (`busy + idle + offline == total × horizon`) relies on.
    pub fn busy_core_seconds(&self, horizon: f64) -> f64 {
        self.ledger.busy_core_seconds(horizon)
    }

    /// Offline core-seconds of the last run's ledger integrated over
    /// `[0, horizon]` — the capacity the fault schedule revoked. Exactly
    /// zero after a zero-fault or empty-schedule run.
    pub fn offline_core_seconds(&self, horizon: f64) -> f64 {
        self.ledger.offline_core_seconds(horizon)
    }

    /// Average bounded slowdown of the last run restricted to jobs whose id
    /// satisfies `ids`, without allocating. Summation order (completion
    /// order) matches [`SimulationResult::avg_bounded_slowdown_of`] exactly,
    /// so the two are bit-identical.
    ///
    /// # Panics
    /// Panics if the last run was metrics-only (see
    /// [`SimWorkspace::completed`]).
    pub fn avg_bounded_slowdown_of(&self, ids: &dyn Fn(JobId) -> bool, tau: f64) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for c in self.completed().iter().filter(|c| ids(c.job.id)) {
            sum += c.bounded_slowdown(tau);
            n += 1;
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Materialize the last run's outcome as an owned [`SimulationResult`]
    /// (one exact-size clone of the completed list — the only allocation a
    /// warmed-up workspace performs).
    ///
    /// # Panics
    /// Panics if the last run was metrics-only (see
    /// [`SimWorkspace::completed`]): its per-job schedule was streamed into
    /// the accumulator, so there is nothing to materialize.
    pub fn result(&self) -> SimulationResult {
        assert!(
            !self.metrics_only,
            "the last run was metrics-only: per-job completions were not materialized"
        );
        SimulationResult {
            completed: self.completed.clone(),
            makespan: self.makespan,
            utilization: self.utilization,
            events_processed: self.events_processed,
            backfilled_jobs: self.backfilled,
            preempted_jobs: self.preempted,
            lost_core_seconds: self.lost_core_seconds,
            abandoned: self.abandoned.clone(),
        }
    }

    /// Like [`SimWorkspace::result`], but moves the completed list out
    /// (the next run regrows it). Used by the one-shot [`simulate`].
    fn take_result(&mut self) -> SimulationResult {
        SimulationResult {
            completed: std::mem::take(&mut self.completed),
            makespan: self.makespan,
            utilization: self.utilization,
            events_processed: self.events_processed,
            backfilled_jobs: self.backfilled,
            preempted_jobs: self.preempted,
            lost_core_seconds: self.lost_core_seconds,
            abandoned: std::mem::take(&mut self.abandoned),
        }
    }
}

/// Simulate the online scheduling of `trace` under `discipline` and
/// `config`. Runs until every job has completed (the queue drains).
///
/// Convenience wrapper over [`simulate_into`] with a throwaway
/// [`SimWorkspace`]; callers in a loop should hold a workspace and call
/// [`simulate_into`] (or [`SimWorkspace::run`] plus the accessors) instead.
///
/// # Panics
/// See [`SimWorkspace::run`].
pub fn simulate<T: TraceSource>(
    trace: &T,
    discipline: &QueueDiscipline<'_>,
    config: &SchedulerConfig,
) -> SimulationResult {
    let mut ws = SimWorkspace::new();
    ws.run(trace, discipline, config);
    ws.take_result()
}

/// Simulate reusing `ws`'s buffers; returns an owned result. Bit-identical
/// to [`simulate`] for the same inputs regardless of the workspace's
/// history — the workspace carries capacity, never state, between runs.
pub fn simulate_into<T: TraceSource>(
    ws: &mut SimWorkspace,
    trace: &T,
    discipline: &QueueDiscipline<'_>,
    config: &SchedulerConfig,
) -> SimulationResult {
    ws.run(trace, discipline, config);
    ws.result()
}

/// Simulate in metrics-only mode, reusing `ws`'s buffers: the run is
/// reduced to a [`SimMetrics`] (AVEbsld sum under `tau`, backfill count,
/// makespan) while it happens, and no per-job schedule is materialized.
/// This is the batched evaluation session's per-cell kernel — with a
/// warmed-up workspace it performs no heap allocation. Bit-identical to
/// reducing [`simulate`]'s result with [`SimMetrics::from_result`].
///
/// # Panics
/// See [`SimWorkspace::run`].
pub fn simulate_metrics_into<T: TraceSource>(
    ws: &mut SimWorkspace,
    trace: &T,
    discipline: &QueueDiscipline<'_>,
    config: &SchedulerConfig,
    tau: f64,
) -> SimMetrics {
    ws.run_metrics(trace, discipline, config, tau)
}

/// Simulate under a fault schedule (see [`SimWorkspace::run_faulty`]) with
/// a throwaway workspace. With an empty schedule the result is
/// bit-identical to [`simulate`].
///
/// # Panics
/// See [`SimWorkspace::run`].
pub fn simulate_faulty<T: TraceSource>(
    trace: &T,
    discipline: &QueueDiscipline<'_>,
    config: &SchedulerConfig,
    schedule: &AvailabilitySchedule,
) -> Result<SimulationResult, EngineError> {
    let mut ws = SimWorkspace::new();
    ws.run_faulty(trace, discipline, config, schedule)?;
    Ok(ws.take_result())
}

/// Simulate under a fault schedule reusing `ws`'s buffers; returns an
/// owned result. Bit-identical to [`simulate_faulty`] for the same inputs.
///
/// # Panics
/// See [`SimWorkspace::run`].
pub fn simulate_faulty_into<T: TraceSource>(
    ws: &mut SimWorkspace,
    trace: &T,
    discipline: &QueueDiscipline<'_>,
    config: &SchedulerConfig,
    schedule: &AvailabilitySchedule,
) -> Result<SimulationResult, EngineError> {
    ws.run_faulty(trace, discipline, config, schedule)?;
    Ok(ws.result())
}

/// Metrics-only simulation under a fault schedule (see
/// [`SimWorkspace::run_metrics_faulty`]), reusing `ws`'s buffers — the
/// batched evaluation session's per-cell kernel for faulty scenarios.
///
/// # Panics
/// See [`SimWorkspace::run`].
pub fn simulate_metrics_faulty_into<T: TraceSource>(
    ws: &mut SimWorkspace,
    trace: &T,
    discipline: &QueueDiscipline<'_>,
    config: &SchedulerConfig,
    schedule: &AvailabilitySchedule,
    tau: f64,
) -> Result<SimMetrics, EngineError> {
    ws.run_metrics_faulty(trace, discipline, config, schedule, tau)
}

/// The per-run view of a workspace: disjoint `&mut`s over its buffers plus
/// the run's immutable inputs.
struct Engine<'a, 'b, K: CompletionSink, T: TraceSource> {
    trace: &'a T,
    discipline: &'a QueueDiscipline<'b>,
    config: &'a SchedulerConfig,
    queue_order: QueueOrder,
    /// Whether the maintained release list is needed at all: only the
    /// backfilling modes ever read it, so under [`BackfillMode::None`] the
    /// engine skips its upkeep entirely.
    track_releases: bool,
    /// Whether the no-op reschedule skip may ever fire (strict mode with a
    /// static queue order).
    skip_eligible: bool,
    /// True while the queue head is known not to fit *and* nothing that
    /// could change that has happened: set when a strict pass leaves the
    /// queue blocked, cleared by any completion (cores freed) or by an
    /// arrival that takes over the head slot. While true, a reschedule is
    /// provably a no-op and is skipped.
    head_blocked: bool,
    /// Whether the queue-parallel SoA input lanes are maintained — only
    /// for time-dependent compiled disciplines, which batch-score them.
    track_lanes: bool,
    /// Whether the priority order persists across events (uniform-aging
    /// compiled residuals): verified sorted under fresh scores and
    /// binary-inserted into, instead of rebuilt by a full sort.
    incremental: bool,
    /// Whether the pass picks each head on demand instead of reading a
    /// built order (general compiled residuals under strict or classic
    /// EASY scheduling): see [`Engine::next_head`].
    on_demand: bool,
    /// Queue length the incremental order was last synchronized at;
    /// queue positions at or beyond it arrived since the last event.
    known: usize,
    /// Preemption retry cap of the active fault schedule (`u32::MAX` for
    /// zero-fault runs, where it is never consulted).
    max_retries: u32,
    events: &'a mut EventQueue<Completion>,
    queue: &'a mut Vec<QueueEntry>,
    q_keys: &'a mut Vec<f64>,
    order: &'a mut Vec<usize>,
    scored: &'a mut Vec<(usize, f64)>,
    releases: &'a mut Vec<Release>,
    rel_scratch: &'a mut Vec<(f64, u32)>,
    static_lanes: &'a mut JobLanes,
    q_r: &'a mut Vec<f64>,
    q_n: &'a mut Vec<f64>,
    q_s: &'a mut Vec<f64>,
    q_slots: &'a mut Vec<f64>,
    batch_scores: &'a mut Vec<f64>,
    vm_stack: &'a mut Vec<f64>,
    batch_scratch: &'a mut BatchScratch,
    slot_row: &'a mut Vec<f64>,
    order_remap: &'a mut Vec<u32>,
    profile: &'a mut Profile,
    start_of: &'a mut Vec<f64>,
    attempt_of: &'a mut Vec<u32>,
    abandoned: &'a mut Vec<AbandonedJob>,
    victim_scratch: &'a mut Vec<(f64, u32)>,
    ledger: &'a mut CoreLedger,
    sink: &'a mut K,
    backfilled: &'a mut u64,
    preempted: &'a mut u64,
    lost_core_seconds: &'a mut f64,
}

impl<K: CompletionSink, T: TraceSource> Engine<'_, '_, K, T> {
    fn enqueue(&mut self, idx: u32) {
        let job = self.trace.job(idx as usize);
        let entry = QueueEntry {
            idx,
            job,
            started: false,
        };
        // Static disciplines keep the queue in priority order: insert at
        // the upper bound of the new key (scanned over the dense SoA key
        // array), so equal keys land *after* their peers — the
        // arrival-order tie-break of a stable sort. An insert at position
        // 0 replaces the head, so any blocked-head fact is invalidated.
        match self.queue_order {
            QueueOrder::ByRank => {
                let QueueDiscipline::FixedOrder(ranks) = self.discipline else {
                    unreachable!("ByRank implies FixedOrder")
                };
                // Ranks are array indices, far below 2^53: the f64 image
                // is exact and ordered identically to the integers.
                let key = ranks[idx as usize] as f64;
                let pos = self.q_keys.partition_point(|&k| k <= key);
                self.queue.insert(pos, entry);
                self.q_keys.insert(pos, key);
                self.head_blocked &= pos > 0;
            }
            QueueOrder::ByCachedScore => {
                // Scores of a static policy are computed once, at arrival
                // (`now = submit`, so the wait is 0 either way).
                let key = match self.discipline {
                    QueueDiscipline::Policy(policy) => {
                        policy.score(&task_view(self.config, &job, job.submit))
                    }
                    // A static compiled policy pays its one and only
                    // evaluation here, through the scalar kernel: prefix
                    // into the reusable slot row, then the residual at
                    // `w = 0` — the same operands (and therefore the same
                    // bits) the old per-trace lane pass produced.
                    QueueDiscipline::Compiled(cp) => cp.score_scalar(
                        self.config.decision_time(job.runtime, job.estimate),
                        job.cores as f64,
                        job.submit,
                        0.0,
                        self.slot_row,
                        self.vm_stack,
                    ),
                    QueueDiscipline::FixedOrder(_) => {
                        unreachable!("ByCachedScore implies a policy discipline")
                    }
                };
                let pos = self.q_keys.partition_point(|k| k.total_cmp(&key).is_le());
                self.queue.insert(pos, entry);
                self.q_keys.insert(pos, key);
                self.head_blocked &= pos > 0;
            }
            QueueOrder::TimeDependent => {
                self.queue.push(entry);
                self.q_keys.push(0.0);
                if self.track_lanes {
                    self.q_r
                        .push(self.config.decision_time(job.runtime, job.estimate));
                    self.q_n.push(job.cores as f64);
                    self.q_s.push(job.submit);
                    self.q_slots
                        .extend_from_slice(self.static_lanes.row(idx as usize));
                }
            }
        }
    }

    /// Re-key (and re-sort) a restored waiting queue under the *active*
    /// discipline. A checkpoint stores the queue keyed by the prefix
    /// discipline; a static-order resume under a different key table — the
    /// trial kernel forks an identity-ranked prefix under each trial's own
    /// permutation — would otherwise schedule the restored entries in the
    /// prefix's order. Re-keying uses the exact arrival-time scoring path
    /// (static scores are time-independent), so a same-discipline resume
    /// recomputes the checkpointed bits verbatim and the sort is a no-op.
    /// Time-dependent orders never enter: they re-score every pass anyway.
    ///
    /// The blocked-head fact is dropped: re-keying may change which entry
    /// is the head, and the next pass re-derives the fact at no cost to
    /// bit-identity (a blocked strict pass starts nothing and leaves no
    /// other state behind).
    fn rescore_restored_queue(&mut self) {
        debug_assert_ne!(self.queue_order, QueueOrder::TimeDependent);
        for qi in 0..self.queue.len() {
            let job = self.queue[qi].job;
            self.q_keys[qi] = match self.discipline {
                QueueDiscipline::FixedOrder(ranks) => ranks[self.queue[qi].idx as usize] as f64,
                QueueDiscipline::Policy(policy) => {
                    policy.score(&task_view(self.config, &job, job.submit))
                }
                QueueDiscipline::Compiled(cp) => cp.score_scalar(
                    self.config.decision_time(job.runtime, job.estimate),
                    job.cores as f64,
                    job.submit,
                    0.0,
                    self.slot_row,
                    self.vm_stack,
                ),
            };
        }
        // Stable in-place co-sort of (q_keys, queue) — adjacent swaps only
        // on strict inversions preserve the restored arrival tie-break, and
        // the queue at a trial horizon is short enough that the quadratic
        // worst case is immaterial.
        for i in 1..self.queue.len() {
            let mut j = i;
            while j > 0 && self.q_keys[j - 1].total_cmp(&self.q_keys[j]).is_gt() {
                self.q_keys.swap(j - 1, j);
                self.queue.swap(j - 1, j);
                j -= 1;
            }
        }
        self.head_blocked = false;
    }

    /// Remove `idx` from the maintained release list. The stored decision
    /// end was computed from the same operands at start time, so the
    /// recomputation finds it bit-exactly; a miss means the release list
    /// disagrees with the running set — a structured error, not a panic.
    fn remove_release(&mut self, idx: u32, start: f64, t: f64) -> Result<(), EngineError> {
        let job = self.trace.job(idx as usize);
        let dend = start + self.config.decision_time(job.runtime, job.estimate);
        let pos = self
            .releases
            .binary_search_by(|&(e, _, i)| e.total_cmp(&dend).then(i.cmp(&idx)))
            .map_err(|_| EngineError::ReleaseListInconsistent { idx, time: t })?;
        self.releases.remove(pos);
        Ok(())
    }

    fn complete(&mut self, idx: u32, t: f64) -> Result<(), EngineError> {
        let job = self.trace.job(idx as usize);
        let start = self.start_of[idx as usize];
        debug_assert!(!start.is_nan(), "completion for job that is not running");
        self.ledger.release(job.cores, t)?;
        // Freed cores may unblock the head; the next reschedule must look.
        self.head_blocked = false;
        if self.track_releases {
            self.remove_release(idx, start, t)?;
        }
        self.start_of[idx as usize] = f64::NAN;
        self.sink.record(CompletedJob {
            job,
            start,
            finish: t,
        });
        Ok(())
    }

    fn start_job(&mut self, qi: usize, now: f64) -> Result<(), EngineError> {
        let QueueEntry { idx, job, .. } = self.queue[qi];
        self.ledger.allocate(job.cores, now)?;
        self.start_of[idx as usize] = now;
        if self.track_releases {
            let dend = now + self.config.decision_time(job.runtime, job.estimate);
            let at = match self
                .releases
                .binary_search_by(|&(e, _, i)| e.total_cmp(&dend).then(i.cmp(&idx)))
            {
                Err(at) => at,
                Ok(_) => return Err(EngineError::ReleaseListInconsistent { idx, time: now }),
            };
            self.releases.insert(at, (dend, job.cores, idx));
        }
        self.events.push(
            now + self.config.execution_time(job.runtime, job.estimate),
            (idx, self.attempt_of[idx as usize]),
        );
        self.queue[qi].started = true;
        Ok(())
    }

    /// Apply one capacity step: move the ledger to the new capacity and, if
    /// the step drops capacity below the in-use count, preempt running jobs
    /// until the remainder fits. Victim order is deterministic: youngest
    /// start time first, higher trace position as tie-break — the jobs with
    /// the least sunk work die first. Killed jobs requeue immediately (in
    /// kill order) unless they have exhausted `max_retries` requeues, in
    /// which case they are reported abandoned.
    fn apply_capacity(&mut self, capacity: u32, now: f64) -> Result<(), EngineError> {
        let overshoot = self.ledger.set_capacity(capacity, now);
        // A restore may unblock the head; drops invalidate the cached fact
        // too (conservatively — a drop can only shrink availability).
        self.head_blocked = false;
        if overshoot == 0 {
            return Ok(());
        }
        self.victim_scratch.clear();
        for (i, &s) in self.start_of.iter().enumerate() {
            if !s.is_nan() {
                self.victim_scratch.push((s, i as u32));
            }
        }
        self.victim_scratch
            .sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)));
        let mut v = 0usize;
        while self.ledger.used() > self.ledger.capacity() {
            let Some(&(start, idx)) = self.victim_scratch.get(v) else {
                // used > capacity with nothing running: the ledger and the
                // running set disagree.
                return Err(EngineError::Ledger(LedgerError::InsufficientCores {
                    requested: self.ledger.used(),
                    available: self.ledger.capacity(),
                }));
            };
            v += 1;
            self.preempt(idx, start, now)?;
        }
        Ok(())
    }

    /// Kill running job `idx`: release its cores, account the lost work,
    /// invalidate its pending completion event via the attempt counter,
    /// and requeue or abandon it.
    fn preempt(&mut self, idx: u32, start: f64, now: f64) -> Result<(), EngineError> {
        let job = self.trace.job(idx as usize);
        self.ledger.release(job.cores, now)?;
        if self.track_releases {
            self.remove_release(idx, start, now)?;
        }
        self.start_of[idx as usize] = f64::NAN;
        self.attempt_of[idx as usize] += 1;
        *self.preempted += 1;
        *self.lost_core_seconds += (now - start) * job.cores as f64;
        if self.attempt_of[idx as usize] > self.max_retries {
            self.abandoned.push(AbandonedJob {
                job,
                idx,
                attempts: self.attempt_of[idx as usize],
                abandoned_at: now,
            });
        } else {
            self.enqueue(idx);
        }
        Ok(())
    }

    /// Report every still-waiting job as abandoned (in trace order) and
    /// clear the queue. Reached only when the schedule ends with too little
    /// capacity for the remaining jobs and no event can ever free more.
    fn strand_waiting(&mut self, now: f64) {
        self.victim_scratch.clear();
        for e in self.queue.iter() {
            self.victim_scratch.push((0.0, e.idx));
        }
        self.victim_scratch.sort_unstable_by_key(|&(_, i)| i);
        for &(_, idx) in self.victim_scratch.iter() {
            self.abandoned.push(AbandonedJob {
                job: self.trace.job(idx as usize),
                idx,
                attempts: self.attempt_of[idx as usize],
                abandoned_at: now,
            });
        }
        self.queue.clear();
        self.q_keys.clear();
        if self.track_lanes {
            self.q_r.clear();
            self.q_n.clear();
            self.q_s.clear();
            self.q_slots.clear();
        }
        if self.incremental {
            self.order.clear();
            self.known = 0;
        }
    }

    /// Queue position holding the `pos`-th highest-priority job. Static
    /// disciplines keep the queue itself priority-sorted, so the order is
    /// the identity; time-dependent policies read the order computed by
    /// [`Engine::order_queue`] / [`Engine::order_queue_compiled`] — which
    /// builds none under on-demand selection ([`Engine::next_head`]).
    #[inline]
    fn ord(&self, pos: usize) -> usize {
        debug_assert!(!self.on_demand, "on-demand selection builds no order");
        if self.queue_order == QueueOrder::TimeDependent {
            self.order[pos]
        } else {
            pos
        }
    }

    /// Rebuild `order` (priority order of queue positions) for a
    /// time-dependent *interpreted* policy. Ordering semantics are
    /// identical to the reference engine: scores sort ascending with
    /// arrival order as tie-break, which makes the comparator total — so
    /// the non-allocating unstable sort produces the same permutation the
    /// reference's stable sort does. This path deliberately stays the
    /// score-everything/full-sort twin of the compiled incremental layer
    /// (the `incremental_rescore` suite pins the two against each other).
    fn order_queue(&mut self, now: f64) {
        self.scored.clear();
        match self.discipline {
            QueueDiscipline::Policy(policy) => {
                for (i, e) in self.queue.iter().enumerate() {
                    let view = task_view(self.config, &e.job, now);
                    let s = policy.score(&view);
                    debug_assert!(
                        !s.is_nan(),
                        "policy {} produced NaN for {view:?}",
                        policy.name()
                    );
                    self.scored.push((i, s));
                }
            }
            QueueDiscipline::Compiled(_) => {
                unreachable!("compiled ordering goes through order_queue_compiled")
            }
            QueueDiscipline::FixedOrder(_) => unreachable!("TimeDependent implies a policy"),
        }
        self.scored
            .sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        self.order.clear();
        self.order.extend(self.scored.iter().map(|&(i, _)| i));
    }

    /// Re-score the queue for a time-dependent *compiled* policy — one
    /// lane-blocked batch pass over the SoA lanes into `batch_scores` —
    /// then bring the priority order of queue positions up to date as far
    /// as the pass that follows will read it.
    ///
    /// Bit-identity argument: the comparator `(score, queue position)` is
    /// total and injective (positions are distinct), so the sorted
    /// permutation of any score vector is **unique** — every path below
    /// reads a prefix of it. Scores are always freshly evaluated; the
    /// residual class only chooses how much of the permutation is built:
    ///
    /// * **Incremental** (uniform-aging residuals): time advance shifts
    ///   all queued scores in lockstep, so the previous event's order is
    ///   verified still-sorted in O(len) under the fresh bits and new
    ///   arrivals are binary-inserted. Rounding artifacts (a strict pair
    ///   collapsing into a position-broken tie) fail the verify and take
    ///   the full sort.
    /// * **On demand** (general residuals, strict or classic EASY): no
    ///   order is built here at all. The strict pass asks
    ///   [`Engine::next_head`] for one head at a time — the minimum of
    ///   the not-yet-started entries under the same comparator, which is
    ///   by construction the entry the unique permutation holds next —
    ///   and most passes stop at the first.
    /// * **Full sort** otherwise (conservative and deep-EASY passes read
    ///   every position).
    fn order_queue_compiled(&mut self, cp: &CompiledPolicy, now: f64) -> Result<(), EngineError> {
        let len = self.queue.len();
        if self.q_r.len() != len
            || self.q_n.len() != len
            || self.q_s.len() != len
            || self.q_slots.len() != len * cp.slot_count()
        {
            return Err(EngineError::ScoreLanesInconsistent {
                queued: len,
                time: now,
            });
        }
        self.batch_scores.clear();
        self.batch_scores.resize(len, 0.0);
        cp.score_batch(
            self.batch_scores.as_mut_slice(),
            ScoreLanes {
                r: self.q_r.as_slice(),
                n: self.q_n.as_slice(),
                s: self.q_s.as_slice(),
                slots: self.q_slots.as_slice(),
            },
            now,
            self.batch_scratch,
        );
        debug_assert!(
            self.batch_scores.iter().all(|s| !s.is_nan()),
            "policy {} produced NaN at t={now}",
            cp.name()
        );
        if self.on_demand {
            return Ok(());
        }
        let scores: &[f64] = self.batch_scores;
        let cmp = |a: &usize, b: &usize| scores[*a].total_cmp(&scores[*b]).then(a.cmp(b));
        if self.incremental {
            if self.order.len() != self.known || self.known > len {
                return Err(EngineError::QueueOrderInconsistent {
                    ordered: self.order.len(),
                    queued: len,
                    time: now,
                });
            }
            let fresh = len - self.known;
            // Reuse the standing order unless an arrival wave makes
            // insertion quadratic-ish, or the verify fails.
            let reuse = fresh <= 16.max(len / 8)
                && self
                    .order
                    .windows(2)
                    .all(|p| cmp(&p[0], &p[1]) == std::cmp::Ordering::Less);
            if reuse {
                for p in self.known..len {
                    let at = self
                        .order
                        .partition_point(|q| cmp(q, &p) == std::cmp::Ordering::Less);
                    self.order.insert(at, p);
                }
            } else {
                self.order.clear();
                self.order.extend(0..len);
                self.order.sort_unstable_by(cmp);
            }
            self.known = len;
        } else {
            self.order.clear();
            self.order.extend(0..len);
            self.order.sort_unstable_by(cmp);
        }
        Ok(())
    }

    /// On-demand head selection: the queue position the full-sort order
    /// would hold next, i.e. the minimum of the not-yet-started entries
    /// under `(score.total_cmp, queue position)`. One linear scan; the
    /// strict `<` keeps the first of equal scores, which is the
    /// lowest-position tie-break. Every entry ahead of it in that order
    /// has been started by this pass, so successive calls walk the
    /// unique sorted permutation without ever materializing it.
    ///
    /// Callers guarantee at least one waiting entry is left.
    fn next_head(&self) -> usize {
        let mut best: Option<(usize, f64)> = None;
        for (i, (&s, e)) in self.batch_scores.iter().zip(self.queue.iter()).enumerate() {
            if !e.started && best.is_none_or(|(_, b)| s.total_cmp(&b).is_lt()) {
                best = Some((i, s));
            }
        }
        best.expect("a waiting entry is left").0
    }

    #[cfg(debug_assertions)]
    fn queue_is_priority_sorted(&self) -> bool {
        match self.queue_order {
            QueueOrder::ByRank => self.q_keys.windows(2).all(|w| w[0] <= w[1]),
            QueueOrder::ByCachedScore => self
                .q_keys
                .windows(2)
                .all(|w| w[0].total_cmp(&w[1]).is_le()),
            QueueOrder::TimeDependent => true,
        }
    }

    #[cfg(not(debug_assertions))]
    fn queue_is_priority_sorted(&self) -> bool {
        true
    }

    /// Copy the maintained release list into profile scratch, applying the
    /// overdue clamp. The list is sorted by raw end time; clamping can only
    /// disorder it when an unclamped end falls inside the nudge window just
    /// past `now`, so the (rare) re-sort is behind a sortedness check.
    fn fill_rel_scratch(&mut self, now: f64) {
        self.rel_scratch.clear();
        let mut sorted = true;
        let mut prev = f64::NEG_INFINITY;
        for &(end, cores, _) in self.releases.iter() {
            let t = clamp_release(now, end);
            sorted &= prev <= t;
            prev = t;
            self.rel_scratch.push((t, cores));
        }
        if !sorted {
            self.rel_scratch
                .sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        }
    }

    /// One step of the classic-EASY backfill scan: start the waiting job
    /// at queue position `qi` if it fits now and either ends (by its
    /// decision-mode runtime) by the head's `shadow` time or uses only
    /// cores `spare` even then. Returns whether it started.
    fn try_backfill(
        &mut self,
        qi: usize,
        now: f64,
        shadow: f64,
        spare: &mut u32,
    ) -> Result<bool, EngineError> {
        let cand = self.queue[qi].job;
        if !self.ledger.fits(cand.cores) {
            return Ok(false);
        }
        let ends_by_shadow = now + self.config.decision_time(cand.runtime, cand.estimate) <= shadow;
        if !ends_by_shadow {
            if cand.cores > *spare {
                return Ok(false);
            }
            *spare -= cand.cores;
        }
        self.start_job(qi, now)?;
        *self.backfilled += 1;
        Ok(true)
    }

    fn reschedule(&mut self, now: f64) -> Result<(), EngineError> {
        if self.queue.is_empty() {
            return Ok(());
        }
        if self.head_blocked {
            // Fast path: strict mode, static order, and nothing since the
            // last pass could have unblocked the head (no completion, no
            // arrival ahead of it). The strict pass would stop at the same
            // head immediately — a guaranteed no-op, so skip it.
            debug_assert!(self.skip_eligible);
            debug_assert!(!self.ledger.fits(self.queue[0].job.cores));
            return Ok(());
        }
        if self.queue_order == QueueOrder::TimeDependent {
            // Copy the compiled-policy reference out of the discipline
            // (it outlives `self`) so the ordering call can borrow the
            // engine mutably.
            let compiled = match self.discipline {
                QueueDiscipline::Compiled(cp) => Some(*cp),
                _ => None,
            };
            match compiled {
                Some(cp) => self.order_queue_compiled(cp, now)?,
                None => self.order_queue(now),
            }
        } else {
            debug_assert!(self.queue_is_priority_sorted());
        }
        let len = self.queue.len();
        let mut any_started = false;

        if self.config.backfill == BackfillMode::Conservative {
            // Every job gets the earliest reservation that delays nobody
            // ahead of it; jobs reserved for *now* start.
            self.fill_rel_scratch(now);
            self.profile
                .rebuild_from_sorted(now, self.ledger.available(), self.rel_scratch);
            for rank in 0..len {
                let qi = self.ord(rank);
                let job = self.queue[qi].job;
                let duration = self
                    .config
                    .decision_time(job.runtime, job.estimate)
                    .max(1e-9);
                // Under reduced capacity the profile may have no slot wide
                // enough at any horizon (the job must wait for a restore
                // the profile cannot see); with full capacity the width
                // was pre-checked, so a fit always exists.
                let Some(start) = self.profile.earliest_fit(job.cores, duration) else {
                    continue;
                };
                self.profile.reserve(start, start + duration, job.cores);
                if start == now {
                    self.start_job(qi, now)?;
                    any_started = true;
                    if rank > 0 {
                        *self.backfilled += 1;
                    }
                }
            }
        } else {
            // Strict pass: start in priority order, stop at the first task
            // that does not fit (§4.2: "the scheduler waits"). `blocked` is
            // that task's (order position, queue position).
            let mut blocked: Option<(usize, usize)> = None;
            for pos in 0..len {
                let qi = if self.on_demand {
                    self.next_head()
                } else {
                    self.ord(pos)
                };
                let job = self.queue[qi].job;
                if self.ledger.fits(job.cores) {
                    self.start_job(qi, now)?;
                    any_started = true;
                } else {
                    blocked = Some((pos, qi));
                    break;
                }
            }
            // In strict mode a blocked pass is now a standing fact: until a
            // completion frees cores or a higher-priority arrival lands,
            // every further reschedule would stop at this same head.
            if self.skip_eligible {
                self.head_blocked = blocked.is_some();
            }

            if self.config.backfill == BackfillMode::Aggressive && self.config.reservation_depth > 1
            {
                // Deep EASY: the first `reservation_depth` blocked jobs
                // hold reservations in an availability profile; any other
                // job may start only where the profile admits it *now*.
                // Depth → ∞ converges to conservative backfilling.
                if let Some((head_pos, _)) = blocked {
                    self.fill_rel_scratch(now);
                    self.profile.rebuild_from_sorted(
                        now,
                        self.ledger.available(),
                        self.rel_scratch,
                    );
                    let mut reservations = 0u32;
                    for pos in head_pos..len {
                        let qi = self.ord(pos);
                        let job = self.queue[qi].job;
                        let duration = self
                            .config
                            .decision_time(job.runtime, job.estimate)
                            .max(1e-9);
                        // No fit at any horizon can only happen under
                        // reduced capacity; the job waits for a restore.
                        let Some(start) = self.profile.earliest_fit(job.cores, duration) else {
                            continue;
                        };
                        if start == now {
                            self.profile.reserve(start, start + duration, job.cores);
                            self.start_job(qi, now)?;
                            any_started = true;
                            *self.backfilled += 1;
                        } else if reservations < self.config.reservation_depth {
                            self.profile.reserve(start, start + duration, job.cores);
                            reservations += 1;
                        }
                        // Beyond the reservation depth, unstartable jobs
                        // place no reservation: later candidates may
                        // overtake them, exactly like classic EASY's tail.
                    }
                }
            } else if self.config.backfill == BackfillMode::Aggressive {
                if let Some((head_pos, head_qi)) = blocked {
                    let head = self.queue[head_qi].job;
                    // Shadow time: when enough cores free up for the head,
                    // assuming running jobs finish at their decision-mode
                    // expected ends (clamped to now if overdue). The
                    // maintained list is sorted by raw end, and the clamp
                    // is monotone, so this walk sees clamped ends in
                    // sorted order without any re-sort.
                    let mut avail = self.ledger.available();
                    let mut shadow = now;
                    let mut spare = 0u32;
                    for &(end, cores, _) in self.releases.iter() {
                        avail += cores;
                        if avail >= head.cores {
                            shadow = end.max(now);
                            spare = avail - head.cores;
                            break;
                        }
                    }
                    // Backfill pass over the rest of the queue in priority
                    // order: a candidate may start if it fits now and
                    // either finishes (by its decision-mode runtime) before
                    // the shadow time, or only uses cores spare even at the
                    // shadow time.
                    if self.on_demand {
                        // Everything ahead of the head was started, so the
                        // rest of the order is the waiting entries minus
                        // the head. Availability only falls during the
                        // scan and a candidate that does not fit is skipped
                        // without side effects, so sorting just the ones
                        // that fit *now* (the blocked head is not one)
                        // visits the same jobs in the same order as
                        // walking the full order.
                        self.scored.clear();
                        for (i, (e, &s)) in self.queue.iter().zip(&*self.batch_scores).enumerate() {
                            if !e.started && self.ledger.fits(e.job.cores) {
                                self.scored.push((i, s));
                            }
                        }
                        self.scored
                            .sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                        for k in 0..self.scored.len() {
                            let qi = self.scored[k].0;
                            any_started |= self.try_backfill(qi, now, shadow, &mut spare)?;
                        }
                    } else {
                        for pos in head_pos + 1..len {
                            let qi = self.ord(pos);
                            any_started |= self.try_backfill(qi, now, shadow, &mut spare)?;
                        }
                    }
                }
            }
        }

        if any_started {
            // Compact `queue` and its SoA key array in lockstep — plus the
            // compiled batch-scoring input lanes when they are maintained.
            let stride = if self.track_lanes {
                self.static_lanes.slots()
            } else {
                0
            };
            if self.incremental {
                self.order_remap.clear();
                self.order_remap.resize(self.queue.len(), u32::MAX);
            }
            let mut w = 0usize;
            for r in 0..self.queue.len() {
                if !self.queue[r].started {
                    if self.incremental {
                        self.order_remap[r] = w as u32;
                    }
                    if w != r {
                        self.queue[w] = self.queue[r];
                        self.q_keys[w] = self.q_keys[r];
                        if self.track_lanes {
                            self.q_r[w] = self.q_r[r];
                            self.q_n[w] = self.q_n[r];
                            self.q_s[w] = self.q_s[r];
                            self.q_slots
                                .copy_within(r * stride..(r + 1) * stride, w * stride);
                        }
                    }
                    w += 1;
                }
            }
            self.queue.truncate(w);
            self.q_keys.truncate(w);
            if self.track_lanes {
                self.q_r.truncate(w);
                self.q_n.truncate(w);
                self.q_s.truncate(w);
                self.q_slots.truncate(w * stride);
            }
            if self.incremental {
                // Carry the order across the compaction: drop started
                // positions, rewrite survivors to their new positions. The
                // remap is monotone over survivors, so the filtered order
                // stays sorted under the scores just computed — the next
                // event's verify starts from a coherent prefix.
                let remap = &*self.order_remap;
                self.order.retain_mut(|p| {
                    let np = remap[*p];
                    *p = np as usize;
                    np != u32::MAX
                });
                self.known = w;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsched_cluster::Platform;
    use dynsched_policies::{Fcfs, Spt};
    use dynsched_workload::Trace;

    fn cfg(cores: u32) -> SchedulerConfig {
        SchedulerConfig::actual_runtimes(Platform::new(cores))
    }

    fn job(id: u32, submit: f64, runtime: f64, cores: u32) -> Job {
        Job::new(id, submit, runtime, runtime, cores)
    }

    fn run_fcfs(jobs: Vec<Job>, cores: u32) -> SimulationResult {
        simulate(
            &Trace::from_jobs(jobs),
            &QueueDiscipline::Policy(&Fcfs),
            &cfg(cores),
        )
    }

    #[test]
    fn single_job_runs_immediately() {
        let r = run_fcfs(vec![job(0, 5.0, 10.0, 2)], 4);
        assert_eq!(r.completed.len(), 1);
        assert_eq!(r.completed[0].start, 5.0);
        assert_eq!(r.completed[0].finish, 15.0);
        assert_eq!(r.makespan, 15.0);
    }

    #[test]
    fn jobs_queue_when_machine_full() {
        // Both need the whole machine; second waits for the first.
        let r = run_fcfs(vec![job(0, 0.0, 10.0, 4), job(1, 1.0, 10.0, 4)], 4);
        let by_id = r.by_id();
        assert_eq!(by_id[&0].start, 0.0);
        assert_eq!(by_id[&1].start, 10.0);
        assert_eq!(by_id[&1].wait(), 9.0);
    }

    #[test]
    fn parallel_jobs_share_machine() {
        let r = run_fcfs(vec![job(0, 0.0, 10.0, 2), job(1, 0.0, 10.0, 2)], 4);
        let by_id = r.by_id();
        assert_eq!(by_id[&0].start, 0.0);
        assert_eq!(by_id[&1].start, 0.0);
        assert!((r.utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn strict_mode_blocks_behind_wide_head() {
        // FCFS head needs 4 cores (busy), a later 1-core job fits but must
        // NOT start without backfilling.
        let jobs = vec![
            job(0, 0.0, 10.0, 3), // runs 0..10 on 3 of 4 cores
            job(1, 1.0, 5.0, 4),  // head at t=1, does not fit until t=10
            job(2, 2.0, 2.0, 1),  // would fit now, but FCFS order blocks it
        ];
        let r = run_fcfs(jobs, 4);
        let by_id = r.by_id();
        assert_eq!(by_id[&1].start, 10.0);
        assert_eq!(by_id[&2].start, 15.0, "strict scheduler must not backfill");
    }

    #[test]
    fn easy_backfills_harmless_job() {
        let jobs = vec![
            job(0, 0.0, 10.0, 3), // running until t=10
            job(1, 1.0, 5.0, 4),  // head, shadow time = 10
            job(2, 2.0, 2.0, 1),  // fits the spare core, ends 4 <= 10 → backfill
        ];
        let mut config = cfg(4);
        config.backfill = BackfillMode::Aggressive;
        let r = simulate(
            &Trace::from_jobs(jobs),
            &QueueDiscipline::Policy(&Fcfs),
            &config,
        );
        let by_id = r.by_id();
        assert_eq!(by_id[&2].start, 2.0, "EASY should backfill job 2");
        assert_eq!(by_id[&1].start, 10.0, "head must not be delayed");
        assert_eq!(r.backfilled_jobs, 1);
    }

    #[test]
    fn easy_rejects_backfill_that_would_delay_head() {
        let jobs = vec![
            job(0, 0.0, 10.0, 3), // running until t=10
            job(1, 1.0, 5.0, 4),  // head, shadow = 10, spare = 0
            job(2, 2.0, 20.0, 1), // ends at 22 > 10 and no spare → no backfill
        ];
        let mut config = cfg(4);
        config.backfill = BackfillMode::Aggressive;
        let r = simulate(
            &Trace::from_jobs(jobs),
            &QueueDiscipline::Policy(&Fcfs),
            &config,
        );
        let by_id = r.by_id();
        assert_eq!(by_id[&1].start, 10.0);
        assert_eq!(by_id[&2].start, 15.0);
        assert_eq!(r.backfilled_jobs, 0);
    }

    #[test]
    fn easy_uses_spare_cores_for_long_jobs() {
        // Machine: 8 cores. Job0 holds 4 until t=100. Head needs 6
        // (shadow=100, spare at shadow = 8-6 = 2). A 2-core long job can
        // backfill into the spare even though it outlives the shadow.
        let jobs = vec![
            job(0, 0.0, 100.0, 4),
            job(1, 1.0, 50.0, 6),
            job(2, 2.0, 500.0, 2),
        ];
        let mut config = cfg(8);
        config.backfill = BackfillMode::Aggressive;
        let r = simulate(
            &Trace::from_jobs(jobs),
            &QueueDiscipline::Policy(&Fcfs),
            &config,
        );
        let by_id = r.by_id();
        assert_eq!(by_id[&2].start, 2.0, "spare-core backfill");
        assert_eq!(by_id[&1].start, 100.0, "head still starts at shadow");
    }

    #[test]
    fn conservative_backfills_without_delaying_anyone() {
        let jobs = vec![
            job(0, 0.0, 10.0, 3), // running until 10
            job(1, 1.0, 5.0, 4),  // reserved at 10
            job(2, 2.0, 2.0, 1),  // fits now and ends before 10 → starts
        ];
        let mut config = cfg(4);
        config.backfill = BackfillMode::Conservative;
        let r = simulate(
            &Trace::from_jobs(jobs),
            &QueueDiscipline::Policy(&Fcfs),
            &config,
        );
        let by_id = r.by_id();
        assert_eq!(by_id[&2].start, 2.0);
        assert_eq!(by_id[&1].start, 10.0);
    }

    #[test]
    fn conservative_protects_all_reservations() {
        // 4 cores. Job0 runs to t=10. Queue: head(4 cores, reserved t=10),
        // second(1 core 8s, reserved t=15 after head)… a third job that
        // fits *now* but would collide with head's reservation must wait.
        let jobs = vec![
            job(0, 0.0, 10.0, 3),
            job(1, 1.0, 5.0, 4),
            job(2, 2.0, 9.0, 1), // ends at 11 > 10: would delay head
        ];
        let mut config = cfg(4);
        config.backfill = BackfillMode::Conservative;
        let r = simulate(
            &Trace::from_jobs(jobs),
            &QueueDiscipline::Policy(&Fcfs),
            &config,
        );
        let by_id = r.by_id();
        assert_eq!(by_id[&1].start, 10.0);
        assert_eq!(
            by_id[&2].start, 15.0,
            "conservative must respect head's reservation"
        );
    }

    #[test]
    fn fixed_order_discipline_respects_permutation() {
        // Three same-shape jobs all present at t=0; machine fits one at a
        // time; fixed order 2,0,1 (job 2 rank 0, job 0 rank 1, job 1 rank 2).
        let jobs = vec![
            job(0, 0.0, 10.0, 4),
            job(1, 0.0, 10.0, 4),
            job(2, 0.0, 10.0, 4),
        ];
        let ranks = [1usize, 2, 0];
        let r = simulate(
            &Trace::from_jobs(jobs),
            &QueueDiscipline::FixedOrder(&ranks),
            &cfg(4),
        );
        let by_id = r.by_id();
        assert_eq!(by_id[&2].start, 0.0);
        assert_eq!(by_id[&0].start, 10.0);
        assert_eq!(by_id[&1].start, 20.0);
    }

    #[test]
    fn estimate_mode_decisions_use_estimates() {
        // SPT under estimates: job 1 has the shorter *estimate* but longer
        // runtime; it must be picked first in UserEstimate mode.
        let j0 = Job::new(0, 0.0, 5.0, 100.0, 4); // r=5, e=100
        let j1 = Job::new(1, 0.0, 50.0, 10.0, 4); // r=50, e=10
        let blocker = job(9, 0.0, 1.0, 4); // forces both into the queue
        let mut config = SchedulerConfig::user_estimates(Platform::new(4));
        config.backfill = BackfillMode::None;
        let trace = Trace::from_jobs(vec![blocker, j0, j1]);
        let r = simulate(&trace, &QueueDiscipline::Policy(&Spt), &config);
        let by_id = r.by_id();
        assert!(
            by_id[&1].start < by_id[&0].start,
            "estimate-SPT must favour job 1"
        );
    }

    #[test]
    fn execution_always_uses_actual_runtime() {
        let j = Job::new(0, 0.0, 7.0, 1_000.0, 1);
        let config = SchedulerConfig::user_estimates(Platform::new(4));
        let r = simulate(
            &Trace::from_jobs(vec![j]),
            &QueueDiscipline::Policy(&Fcfs),
            &config,
        );
        assert_eq!(r.completed[0].finish, 7.0);
    }

    #[test]
    fn backfilling_with_underestimates_still_drains() {
        // Job 0's estimate (5) is far below its runtime (100): the head's
        // shadow computation sees an overdue job. Everything must still
        // complete.
        let j0 = Job::new(0, 0.0, 100.0, 5.0, 3);
        let j1 = Job::new(1, 1.0, 5.0, 5.0, 4);
        let j2 = Job::new(2, 2.0, 5.0, 5.0, 1);
        let config = SchedulerConfig::estimates_with_backfilling(Platform::new(4));
        let r = simulate(
            &Trace::from_jobs(vec![j0, j1, j2]),
            &QueueDiscipline::Policy(&Fcfs),
            &config,
        );
        assert_eq!(r.completed.len(), 3);
    }

    #[test]
    fn all_jobs_complete_under_saturation() {
        let jobs: Vec<Job> = (0..50)
            .map(|i| job(i, (i % 5) as f64, 10.0, 1 + (i % 4)))
            .collect();
        let r = run_fcfs(jobs, 4);
        assert_eq!(r.completed.len(), 50);
        for c in &r.completed {
            assert!(
                c.start >= c.job.submit,
                "job {} started before arrival",
                c.job.id
            );
            assert_eq!(c.finish, c.start + c.job.runtime);
        }
    }

    #[test]
    fn simultaneous_arrivals_are_handled_in_one_batch() {
        let jobs = vec![
            job(0, 0.0, 10.0, 2),
            job(1, 0.0, 10.0, 2),
            job(2, 0.0, 10.0, 2),
        ];
        let r = run_fcfs(jobs, 4);
        let by_id = r.by_id();
        assert_eq!(by_id[&0].start, 0.0);
        assert_eq!(by_id[&1].start, 0.0);
        assert_eq!(by_id[&2].start, 10.0);
    }

    #[test]
    #[should_panic(expected = "requests")]
    fn oversized_job_panics() {
        run_fcfs(vec![job(0, 0.0, 1.0, 64)], 4);
    }

    #[test]
    #[should_panic(expected = "fixed order needs a rank")]
    fn short_rank_slice_panics() {
        let jobs = vec![job(0, 0.0, 1.0, 1), job(1, 0.0, 1.0, 1)];
        let ranks = [0usize];
        simulate(
            &Trace::from_jobs(jobs),
            &QueueDiscipline::FixedOrder(&ranks),
            &cfg(4),
        );
    }

    #[test]
    fn determinism_same_inputs_same_schedule() {
        let jobs: Vec<Job> = (0..40)
            .map(|i| {
                job(
                    i,
                    (i as f64) * 3.7,
                    10.0 + (i % 7) as f64 * 20.0,
                    1 + (i % 6),
                )
            })
            .collect();
        let a = run_fcfs(jobs.clone(), 8);
        let b = run_fcfs(jobs, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn kill_at_estimate_cuts_execution_short() {
        // r = 100, e = 30: with walltime enforcement the job occupies the
        // machine for 30 s and is reported killed.
        let j = Job::new(0, 0.0, 100.0, 30.0, 2);
        let mut config = SchedulerConfig::user_estimates(Platform::new(4));
        config.kill_at_estimate = true;
        let r = simulate(
            &Trace::from_jobs(vec![j]),
            &QueueDiscipline::Policy(&Fcfs),
            &config,
        );
        assert_eq!(r.completed[0].finish, 30.0);
        assert!(r.completed[0].was_killed());
        // Without enforcement it runs to completion.
        config.kill_at_estimate = false;
        let r = simulate(
            &Trace::from_jobs(vec![j]),
            &QueueDiscipline::Policy(&Fcfs),
            &config,
        );
        assert_eq!(r.completed[0].finish, 100.0);
        assert!(!r.completed[0].was_killed());
    }

    #[test]
    fn kill_at_estimate_frees_cores_for_waiters() {
        let j0 = Job::new(0, 0.0, 1_000.0, 10.0, 4); // killed at t=10
        let j1 = Job::new(1, 1.0, 5.0, 5.0, 4);
        let mut config = SchedulerConfig::user_estimates(Platform::new(4));
        config.kill_at_estimate = true;
        let r = simulate(
            &Trace::from_jobs(vec![j0, j1]),
            &QueueDiscipline::Policy(&Fcfs),
            &config,
        );
        assert_eq!(r.by_id()[&1].start, 10.0);
    }

    #[test]
    fn deep_reservations_protect_second_blocked_job() {
        // 5 cores. Job0 holds 3 until t=10. Head job1 (4c, 5s) is reserved
        // [10, 15); the *second* blocked job2 needs the whole machine (5c,
        // 10s). Job3 (1c, 30s) fits classic EASY's spare core at t=3 —
        // which silently pushes job2 from 15 to 33. Depth-2 reservations
        // protect job2: job3 must wait until job2's window has passed.
        let jobs = vec![
            job(0, 0.0, 10.0, 3),
            job(1, 1.0, 5.0, 4),  // head: reserved [10, 15)
            job(2, 2.0, 10.0, 5), // second blocked: whole machine
            job(3, 3.0, 30.0, 1), // long 1-core backfill candidate
        ];
        // Classic EASY (depth 1): job3 takes the shadow spare core at t=3
        // and job2 slips to t=33.
        let mut config = cfg(5);
        config.backfill = BackfillMode::Aggressive;
        let r1 = simulate(
            &Trace::from_jobs(jobs.clone()),
            &QueueDiscipline::Policy(&Fcfs),
            &config,
        );
        assert_eq!(r1.by_id()[&3].start, 3.0);
        assert_eq!(r1.by_id()[&2].start, 33.0);
        // Depth 2: job2's reservation [15, 25) is inviolable; job3 starts
        // only after it, and job2 keeps its slot.
        config.reservation_depth = 2;
        let r2 = simulate(
            &Trace::from_jobs(jobs),
            &QueueDiscipline::Policy(&Fcfs),
            &config,
        );
        assert_eq!(r2.by_id()[&1].start, 10.0);
        assert_eq!(
            r2.by_id()[&2].start,
            15.0,
            "deep reservation must protect job 2"
        );
        assert_eq!(r2.by_id()[&3].start, 25.0);
    }

    #[test]
    fn deep_easy_still_backfills_harmless_jobs() {
        let jobs = vec![
            job(0, 0.0, 10.0, 3),
            job(1, 1.0, 5.0, 4), // head reserved [10, 15)
            job(2, 2.0, 2.0, 1), // ends by t=4 < 10: harmless
        ];
        let mut config = cfg(4);
        config.backfill = BackfillMode::Aggressive;
        config.reservation_depth = 4;
        let r = simulate(
            &Trace::from_jobs(jobs),
            &QueueDiscipline::Policy(&Fcfs),
            &config,
        );
        assert_eq!(r.by_id()[&2].start, 2.0);
        assert_eq!(r.by_id()[&1].start, 10.0);
    }

    #[test]
    fn cached_scores_match_uncached_evaluation() {
        // Force F1 through the time-dependent (uncached) path via a wrapper
        // and check the schedule is identical to the cached fast path.
        use dynsched_policies::{LearnedPolicy, Policy, TaskView};
        struct Uncached(LearnedPolicy);
        impl Policy for Uncached {
            fn name(&self) -> &str {
                "F1-uncached"
            }
            fn score(&self, t: &TaskView) -> f64 {
                self.0.score(t)
            }
            // default time_dependent() = true -> per-event evaluation
        }
        let jobs: Vec<Job> = (0..60)
            .map(|i| {
                job(
                    i,
                    (i as f64) * 11.0,
                    30.0 + (i % 9) as f64 * 200.0,
                    1 + (i % 7),
                )
            })
            .collect();
        let trace = Trace::from_jobs(jobs);
        let config = cfg(8);
        let cached = simulate(
            &trace,
            &QueueDiscipline::Policy(&LearnedPolicy::f1()),
            &config,
        );
        let uncached = simulate(
            &trace,
            &QueueDiscipline::Policy(&Uncached(LearnedPolicy::f1())),
            &config,
        );
        assert_eq!(cached.completed, uncached.completed);
    }

    #[test]
    fn inconsistent_trace_source_surfaces_queue_not_drained() {
        // An adversarial `TraceSource` whose per-field accessors disagree
        // with `job()`: `cores(i)` reports 1 (so the pre-run platform
        // check passes) but the reassembled job demands more cores than
        // the machine has. The job can never start, no pending event can
        // change that, and the run must end in a structured
        // `QueueNotDrained` error — not a panic, and not an
        // empty-but-plausible schedule.
        struct LyingCores;
        impl TraceSource for LyingCores {
            fn len(&self) -> usize {
                1
            }
            fn id(&self, _: usize) -> u32 {
                0
            }
            fn submit(&self, _: usize) -> f64 {
                0.0
            }
            fn runtime(&self, _: usize) -> f64 {
                5.0
            }
            fn estimate(&self, _: usize) -> f64 {
                5.0
            }
            fn cores(&self, _: usize) -> u32 {
                1
            }
            fn job(&self, _: usize) -> Job {
                Job::new(0, 0.0, 5.0, 5.0, 64)
            }
        }
        let mut ws = SimWorkspace::new();
        let err = ws
            .try_run(&LyingCores, &QueueDiscipline::Policy(&Fcfs), &cfg(4))
            .expect_err("an unstartable job must not drain");
        match err {
            EngineError::QueueNotDrained {
                waiting, running, ..
            } => {
                assert_eq!((waiting, running), (1, 0));
            }
            other => panic!("expected QueueNotDrained, got {other}"),
        }
    }

    #[test]
    fn events_processed_counts_arrivals_and_completions() {
        let r = run_fcfs(vec![job(0, 0.0, 1.0, 1), job(1, 5.0, 1.0, 1)], 4);
        assert_eq!(r.events_processed, 4);
    }

    #[test]
    fn on_demand_selection_builds_no_order() {
        // A general residual (WFP3) under strict and classic-EASY
        // scheduling picks its heads on demand: the order vector — which a
        // checkpoint would copy — is never filled. Conservative and
        // deep-EASY passes read every position and still build it.
        use dynsched_policies::{Policy, Wfp3};
        let jobs: Vec<Job> = (0..40)
            .map(|i| job(i, (i / 4) as f64, 20.0 + (i % 7) as f64 * 9.0, 1 + i % 4))
            .collect();
        let trace = Trace::from_jobs(jobs);
        let wfp = Wfp3.compile().unwrap();
        let mut ws = SimWorkspace::new();
        for (backfill, depth, on_demand) in [
            (BackfillMode::None, 1, true),
            (BackfillMode::Aggressive, 1, true),
            (BackfillMode::Aggressive, 3, false),
            (BackfillMode::Conservative, 1, false),
        ] {
            let mut config = cfg(6);
            config.backfill = backfill;
            config.reservation_depth = depth;
            let mut ckpt = Checkpoint::default();
            ws.run_prefix(
                &trace,
                &QueueDiscipline::Compiled(&wfp),
                &config,
                15.0,
                &mut ckpt,
            );
            assert!(!ckpt.queue.is_empty(), "the prefix must stop mid-queue");
            assert_eq!(
                ckpt.order.is_empty(),
                on_demand,
                "{backfill:?}, depth {depth}"
            );
        }
    }

    #[test]
    fn reused_workspace_matches_fresh_workspace() {
        // Run a mixed batch of simulations through one workspace and check
        // each result equals a fresh-workspace run: no state leaks.
        let mut ws = SimWorkspace::new();
        for seed in 0..6u32 {
            let jobs: Vec<Job> = (0..30)
                .map(|i| {
                    let k = i + seed * 7;
                    job(
                        i,
                        (k % 11) as f64 * 5.3,
                        4.0 + (k % 9) as f64 * 13.0,
                        1 + (k % 5),
                    )
                })
                .collect();
            let trace = Trace::from_jobs(jobs);
            let mut config = cfg(6);
            config.backfill = match seed % 3 {
                0 => BackfillMode::None,
                1 => BackfillMode::Aggressive,
                _ => BackfillMode::Conservative,
            };
            let reused = simulate_into(&mut ws, &trace, &QueueDiscipline::Policy(&Fcfs), &config);
            let fresh = simulate(&trace, &QueueDiscipline::Policy(&Fcfs), &config);
            assert_eq!(
                reused, fresh,
                "seed {seed}: workspace reuse changed the schedule"
            );
        }
    }

    #[test]
    fn metrics_mode_agrees_with_full_mode() {
        // Interleave metrics-only and full runs through one workspace: the
        // metrics must always equal the full run's reduction, and mode
        // switching must not leak state either way.
        let mut ws = SimWorkspace::new();
        for seed in 0..6u32 {
            let jobs: Vec<Job> = (0..30)
                .map(|i| {
                    let k = i + seed * 13;
                    job(
                        i,
                        (k % 7) as f64 * 4.1,
                        3.0 + (k % 11) as f64 * 9.0,
                        1 + (k % 5),
                    )
                })
                .collect();
            let trace = Trace::from_jobs(jobs);
            let mut config = cfg(6);
            config.backfill = match seed % 3 {
                0 => BackfillMode::None,
                1 => BackfillMode::Aggressive,
                _ => BackfillMode::Conservative,
            };
            let discipline = QueueDiscipline::Policy(&Fcfs);
            let metrics = simulate_metrics_into(&mut ws, &trace, &discipline, &config, 10.0);
            let full = simulate_into(&mut ws, &trace, &discipline, &config);
            assert_eq!(metrics, SimMetrics::from_result(&full, 10.0), "seed {seed}");
            assert_eq!(
                metrics.avg_bounded_slowdown(),
                full.avg_bounded_slowdown(10.0)
            );
            assert_eq!(metrics.makespan, full.makespan);
        }
    }

    #[test]
    fn metrics_mode_keeps_accessors_coherent() {
        let jobs = vec![
            job(0, 0.0, 10.0, 2),
            job(1, 0.0, 20.0, 2),
            job(2, 1.0, 5.0, 4),
        ];
        let trace = Trace::from_jobs(jobs);
        let mut ws = SimWorkspace::new();
        let m = ws.run_metrics(&trace, &QueueDiscipline::Policy(&Fcfs), &cfg(4), 10.0);
        assert_eq!(ws.makespan(), m.makespan);
        assert_eq!(ws.backfilled_jobs(), m.backfilled_jobs);
        assert_eq!(ws.events_processed(), 6);
        assert!(ws.utilization() > 0.0);
    }

    #[test]
    #[should_panic(expected = "metrics-only")]
    fn per_job_accessors_refuse_after_metrics_run() {
        let trace = Trace::from_jobs(vec![job(0, 0.0, 10.0, 2)]);
        let mut ws = SimWorkspace::new();
        ws.run_metrics(&trace, &QueueDiscipline::Policy(&Fcfs), &cfg(4), 10.0);
        let _ = ws.result();
    }

    #[test]
    fn workspace_accessors_match_result() {
        let jobs = vec![
            job(0, 0.0, 10.0, 2),
            job(1, 0.0, 20.0, 2),
            job(2, 1.0, 5.0, 4),
        ];
        let mut ws = SimWorkspace::new();
        ws.run(
            &Trace::from_jobs(jobs),
            &QueueDiscipline::Policy(&Fcfs),
            &cfg(4),
        );
        let r = ws.result();
        assert_eq!(ws.completed(), &r.completed[..]);
        assert_eq!(ws.makespan(), r.makespan);
        assert_eq!(ws.utilization(), r.utilization);
        assert_eq!(ws.events_processed(), r.events_processed);
        assert_eq!(ws.backfilled_jobs(), r.backfilled_jobs);
        assert_eq!(
            ws.avg_bounded_slowdown_of(&|_| true, 10.0),
            r.avg_bounded_slowdown(10.0)
        );
        assert_eq!(
            ws.avg_bounded_slowdown_of(&|id| id == 2, 10.0),
            r.avg_bounded_slowdown_of(&|id| id == 2, 10.0)
        );
        assert_eq!(ws.avg_bounded_slowdown_of(&|_| false, 10.0), None);
    }
}
