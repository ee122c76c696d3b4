//! [`SimWorkspace`]: the engine's public surface — run methods over two
//! private finishers, accessors that read the outcome back, [`simulate`].

use super::state::{FaultState, Scratch};
use super::{ConservativeStats, EngineError, QueueDiscipline, RunMode, SimState};
use crate::checkpoint::Checkpoint;
use crate::config::SchedulerConfig;
use crate::result::{SimMetrics, SimulationResult};
use dynsched_cluster::{AbandonedJob, AvailabilitySchedule, CompletedJob, JobId};
use dynsched_workload::TraceSource;

/// All per-simulation buffers, reusable across runs.
///
/// Construct once (per thread — it is `Send` but deliberately not shared),
/// then call [`SimWorkspace::run`] any number of times; every buffer is
/// cleared and refilled per run, retaining its allocation. Results stay in
/// the workspace until the next run: read them with the accessor methods,
/// copy them into an owned [`SimulationResult`] with
/// [`SimWorkspace::result`], or move them out with
/// [`SimWorkspace::take_result`]. The batched trial kernel reads
/// [`SimWorkspace::avg_bounded_slowdown_of`] directly and never
/// materializes a result — that is the fully allocation-free path.
#[derive(Debug, Default)]
pub struct SimWorkspace {
    pub(super) state: SimState,
    pub(super) scratch: Scratch,
    pub(super) faults: FaultState,
    completed: Vec<CompletedJob>,
    lists: Lists,
    makespan: f64,
    utilization: f64,
}

/// Where the last run's per-job lists are. When they are not in the
/// workspace the per-job accessors must refuse rather than return an
/// empty-but-plausible result.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
enum Lists {
    /// In the workspace, readable.
    #[default]
    Kept,
    /// The run was metrics-only (`run_metrics`): completions were streamed
    /// into the accumulator; the abandonment list was kept.
    Streamed,
    /// Moved out by `take_result`, completions and abandonments both.
    Taken,
}

/// Unwrap the outcome of a run without a fault schedule: given valid
/// inputs it cannot reach an engine error, and the panicking entry points
/// document the invalid ones — the message is the error's `Display`.
fn zero_fault<R>(outcome: Result<R, EngineError>) -> R {
    outcome.unwrap_or_else(|e| panic!("{e}"))
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
        zero_fault(self.try_run(trace, discipline, config));
    }

    /// Fallible form of [`SimWorkspace::run`]: the inputs `run` panics on
    /// come back as [`EngineError::JobWiderThanPlatform`] and
    /// [`EngineError::RankSliceTooShort`], before the first event. Given
    /// valid inputs every other [`EngineError`] state is unreachable in a
    /// zero-fault run.
    pub fn try_run<T: TraceSource>(
        &mut self,
        trace: &T,
        discipline: &QueueDiscipline<'_>,
        config: &SchedulerConfig,
    ) -> Result<(), EngineError> {
        self.run_listed(trace, discipline, config, None, RunMode::Full)
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
    /// # Errors
    /// The inputs [`SimWorkspace::run`] panics on, as in
    /// [`SimWorkspace::try_run`], plus the bookkeeping guards.
    pub fn run_faulty<T: TraceSource>(
        &mut self,
        trace: &T,
        discipline: &QueueDiscipline<'_>,
        config: &SchedulerConfig,
        schedule: &AvailabilitySchedule,
    ) -> Result<(), EngineError> {
        self.run_listed(trace, discipline, config, Some(schedule), RunMode::Full)
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
        zero_fault(self.run_reduced(trace, discipline, config, None, tau))
    }

    /// Metrics-only form of [`SimWorkspace::run_faulty`]: completions are
    /// folded straight into the returned [`SimMetrics`], whose resilience
    /// counters (preemptions, abandonments, lost core-seconds) are filled
    /// from the run. The AVEbsld sum covers completed jobs only — an
    /// abandoned job has no finish time to score.
    ///
    /// # Errors
    /// The inputs [`SimWorkspace::run`] panics on, as in
    /// [`SimWorkspace::try_run`], plus the bookkeeping guards.
    pub fn run_metrics_faulty<T: TraceSource>(
        &mut self,
        trace: &T,
        discipline: &QueueDiscipline<'_>,
        config: &SchedulerConfig,
        schedule: &AvailabilitySchedule,
        tau: f64,
    ) -> Result<SimMetrics, EngineError> {
        self.run_reduced(trace, discipline, config, Some(schedule), tau)
    }

    /// Run the event loop up to `horizon` and capture the engine state
    /// into `into` — the checkpoint half of the checkpoint/fork API (see
    /// [`crate::checkpoint`] for the full contract). Every event strictly
    /// **before** `horizon` is processed, the first one at or after it is
    /// left pending; a `horizon` at or before the first submit captures
    /// the pristine initial state. `into`'s buffers are reused across
    /// captures, so a warm checkpoint costs copies, not allocation.
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
        let mode = RunMode::Prefix {
            horizon,
            into: &mut *into,
        };
        zero_fault(self.run_listed(trace, discipline, config, None, mode));
        // The completion prefix is captured here rather than inside the
        // loop: the sink is this workspace's own list, handed back by the
        // finisher.
        into.completed.clone_from(&self.completed);
    }

    /// Restore the engine state captured in `from` and continue the
    /// simulation to completion under `discipline` — the fork half of the
    /// checkpoint/fork API.
    ///
    /// `trace` and `config` must be the ones the prefix ran with, and
    /// `discipline` must decide every pre-horizon pass exactly as the
    /// prefix's discipline did (the resume contract in
    /// [`crate::checkpoint`]). The result is then **bit-identical** to a
    /// scratch [`SimWorkspace::run`] under `discipline`, at any worker
    /// count (`checkpoint_bit_identity`). The restore copies into
    /// preallocated buffers: a warm workspace allocates nothing.
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
        let mode = RunMode::Resume { from };
        zero_fault(self.run_listed(trace, discipline, config, None, mode));
    }

    /// The finisher behind every run that materializes its schedule: lend
    /// the completion list out as the sink (it goes back afterwards, so a
    /// reused workspace keeps its capacity), run, and derive makespan and
    /// utilization from what was listed — on the error path too, where
    /// the partial outcome stays readable.
    fn run_listed<T: TraceSource>(
        &mut self,
        trace: &T,
        discipline: &QueueDiscipline<'_>,
        config: &SchedulerConfig,
        schedule: Option<&AvailabilitySchedule>,
        mode: RunMode<'_>,
    ) -> Result<(), EngineError> {
        let mut completed = std::mem::take(&mut self.completed);
        completed.clear();
        // Every job completes at most once, so this is the list's final
        // size: a no-op on a warm workspace, and one exact allocation —
        // not a doubling regrowth — after `take_result` moved the list out.
        completed.reserve(trace.len());
        let outcome = self.run_with(trace, discipline, config, &mut completed, schedule, mode);
        self.completed = completed;
        self.lists = Lists::Kept;
        self.makespan = self.completed.iter().map(|c| c.finish).fold(0.0, f64::max);
        self.utilization = self.state.ledger.utilization(self.makespan).unwrap_or(0.0);
        outcome
    }

    /// The finisher behind the metrics-only runs: completions stream into
    /// a fresh accumulator, which then takes the run's counters (the
    /// resilience ones are zero without a schedule).
    fn run_reduced<T: TraceSource>(
        &mut self,
        trace: &T,
        discipline: &QueueDiscipline<'_>,
        config: &SchedulerConfig,
        schedule: Option<&AvailabilitySchedule>,
        tau: f64,
    ) -> Result<SimMetrics, EngineError> {
        let mut metrics = SimMetrics::new(tau);
        self.completed.clear();
        self.lists = Lists::Streamed;
        self.run_with(
            trace,
            discipline,
            config,
            &mut metrics,
            schedule,
            RunMode::Full,
        )?;
        metrics.backfilled_jobs = self.state.backfilled;
        metrics.preempted_jobs = self.faults.preempted;
        metrics.abandoned_jobs = self.faults.abandoned.len() as u64;
        metrics.lost_core_seconds = self.faults.lost_core_seconds;
        self.makespan = metrics.makespan;
        self.utilization = self.state.ledger.utilization(self.makespan).unwrap_or(0.0);
        Ok(metrics)
    }

    /// Completed jobs of the last run, in completion order.
    ///
    /// # Panics
    /// Panics if the last run was metrics-only ([`SimWorkspace::run_metrics`]
    /// streams completions away instead of materializing them) or its
    /// result was moved out by [`SimWorkspace::take_result`] — an empty
    /// list here would be silently wrong, not empty.
    pub fn completed(&self) -> &[CompletedJob] {
        assert!(
            self.lists != Lists::Streamed,
            "the last run was metrics-only: per-job completions were not materialized"
        );
        self.assert_not_taken();
        &self.completed
    }

    fn assert_not_taken(&self) {
        assert!(
            self.lists != Lists::Taken,
            "the last run's result was moved out by take_result: run again first"
        );
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
        self.state.events_processed
    }

    /// Jobs the last run started via backfilling.
    pub fn backfilled_jobs(&self) -> u64 {
        self.state.backfilled
    }

    /// What the last run's conservative-backfilling passes did.
    pub fn conservative_stats(&self) -> ConservativeStats {
        self.state.conservative
    }

    /// Preemptions (kill-and-requeue events) of the last run. Zero unless
    /// the run went through [`SimWorkspace::run_faulty`].
    pub fn preempted_jobs(&self) -> u64 {
        self.faults.preempted
    }

    /// Core-seconds of work destroyed by preemptions in the last run: the
    /// elapsed time of each killed attempt times its width. Goodput is
    /// the ledger's busy integral minus this.
    pub fn lost_core_seconds(&self) -> f64 {
        self.faults.lost_core_seconds
    }

    /// Jobs the last run abandoned (retry cap exhausted, or stranded by a
    /// schedule that never restores enough capacity), in abandonment order.
    /// Readable in both full and metrics-only mode.
    ///
    /// # Panics
    /// Panics if [`SimWorkspace::take_result`] moved the list out.
    pub fn abandoned(&self) -> &[AbandonedJob] {
        self.assert_not_taken();
        &self.faults.abandoned
    }

    /// Busy core-seconds of the last run's ledger integrated over
    /// `[0, horizon]` (goodput plus [`SimWorkspace::lost_core_seconds`]).
    /// With integer-valued step times and core counts the integral is
    /// exact in `f64`, which is what the conservation property test
    /// (`busy + idle + offline == total × horizon`) relies on.
    pub fn busy_core_seconds(&self, horizon: f64) -> f64 {
        self.state.ledger.busy_core_seconds(horizon)
    }

    /// Offline core-seconds of the last run's ledger integrated over
    /// `[0, horizon]` — the capacity the fault schedule revoked. Exactly
    /// zero after a zero-fault or empty-schedule run.
    pub fn offline_core_seconds(&self, horizon: f64) -> f64 {
        self.state.ledger.offline_core_seconds(horizon)
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
    /// by **copying** it (one exact-size clone of the completed list — the
    /// only allocation a warmed-up workspace performs). Use this when the
    /// workspace is read again afterwards, or runs more traces in a loop:
    /// the list it keeps is the next run's buffer. When the owned result
    /// is all that is wanted of the run, use [`SimWorkspace::take_result`].
    ///
    /// # Panics
    /// Panics if the last run was metrics-only (see
    /// [`SimWorkspace::completed`]): its per-job schedule was streamed into
    /// the accumulator, so there is nothing to materialize.
    pub fn result(&self) -> SimulationResult {
        self.result_with(self.completed().to_vec(), self.abandoned().to_vec())
    }

    /// [`SimWorkspace::result`] by **moving**: the completion and
    /// abandonment lists leave the workspace instead of being cloned, so a
    /// long schedule is never held twice. For the caller that keeps the
    /// result and is done with the run — a federation shard, [`simulate`].
    /// The scalar accessors stay readable; the per-job ones
    /// ([`SimWorkspace::completed`], [`SimWorkspace::abandoned`],
    /// [`SimWorkspace::result`], [`SimWorkspace::avg_bounded_slowdown_of`],
    /// a second `take_result`) panic until the next materializing run, which
    /// allocates its list afresh, once, at the trace's length.
    ///
    /// # Panics
    /// As [`SimWorkspace::result`].
    pub fn take_result(&mut self) -> SimulationResult {
        self.completed(); // refuses what `result()` refuses
        self.lists = Lists::Taken;
        let completed = std::mem::take(&mut self.completed);
        let abandoned = std::mem::take(&mut self.faults.abandoned);
        self.result_with(completed, abandoned)
    }

    fn result_with(
        &self,
        completed: Vec<CompletedJob>,
        abandoned: Vec<AbandonedJob>,
    ) -> SimulationResult {
        SimulationResult {
            completed,
            makespan: self.makespan,
            utilization: self.utilization,
            events_processed: self.state.events_processed,
            backfilled_jobs: self.state.backfilled,
            preempted_jobs: self.faults.preempted,
            lost_core_seconds: self.faults.lost_core_seconds,
            abandoned,
        }
    }
}

/// Simulate the online scheduling of `trace` under `discipline` and
/// `config`. Runs until every job has completed (the queue drains).
///
/// The one convenience wrapper: a throwaway [`SimWorkspace`], one
/// [`SimWorkspace::run`], the owned [`SimWorkspace::take_result`]. Callers in a
/// loop should hold a workspace and call its run methods instead.
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
