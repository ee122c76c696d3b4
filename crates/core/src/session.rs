//! Batched evaluation sessions: the single entry point every evaluation
//! grid goes through.
//!
//! The paper's evaluation protocol dwarfs its training stage in simulated
//! work: Table 4 alone is 18 scenarios × a policy line-up × ten 15-day
//! sequences, and the extensions (load sweeps, convergence curves,
//! estimate-sensitivity studies) multiply the grid further. An
//! [`EvalSession`] treats any such grid as one flat set of *cells* — each
//! cell a `(trace, policy, scheduler-config, τ)` quadruple — fanned out
//! over the deterministic thread pool with **one reusable
//! [`SimWorkspace`] per worker**. Every cell runs in the engine's
//! metrics-only mode ([`SimWorkspace::run_metrics`]), which streams
//! completion events into a [`SimMetrics`] accumulator instead of
//! materializing a per-job schedule, so the steady-state evaluation loop
//! performs no heap allocation at all.
//!
//! # Compiled scoring
//!
//! Before fanning out, a session lowers each **distinct** policy to its
//! bytecode form once ([`Policy::compile`]) and hands the compiled
//! program to every cell that references that policy: workers run the
//! engine's batch-scoring kernel (per-job wait-invariant prefix lanes,
//! one re-score pass per rescheduling event) instead of per-task
//! `dyn Policy` tree walks. Policies without a compiled form simply stay
//! on the interpreted path — cell results are bit-identical either way,
//! which is the compile contract the scheduler's `differential` harness
//! pins.
//!
//! # Determinism contract
//!
//! Cells are pure functions of their inputs, results come back as an
//! index-dense table in push order, and worker state is scratch (cleared
//! per cell, never read) — so a session's output is bit-identical for any
//! thread count, and bit-identical to calling the allocating
//! [`simulate`](dynsched_scheduler::simulate) wrapper per cell and
//! reducing afterwards. The `differential` harness in `tests/` pins both
//! properties.

use dynsched_cluster::AvailabilitySchedule;
use dynsched_policies::{CompiledPolicy, Policy};
use dynsched_scheduler::{QueueDiscipline, SchedulerConfig, SimMetrics, SimWorkspace};
use dynsched_simkit::parallel::{try_run_scoped, PoolError};
use dynsched_workload::TraceView;
use std::ops::Range;

/// One evaluation cell: simulate `trace` under `policy` with `config`,
/// reduce to a [`SimMetrics`] under threshold `tau`.
///
/// The trace is a columnar [`TraceView`] handle: a cell borrows shared
/// SoA columns, so queuing the same sequence into hundreds of cells (a
/// policy line-up × condition grid) costs pointers, never job copies —
/// and the engine reads the dense column lanes directly.
#[derive(Clone, Copy)]
pub struct EvalCell<'a> {
    /// The sequence to schedule (shared columnar storage).
    pub trace: &'a TraceView,
    /// Queue-ordering policy.
    pub policy: &'a dyn Policy,
    /// Platform, decision mode, backfilling.
    pub config: &'a SchedulerConfig,
    /// Bounded-slowdown threshold τ.
    pub tau: f64,
    /// Optional fault schedule: `Some` runs the cell through the engine's
    /// faulty metrics path (preemptions, retries, resilience counters);
    /// `None` takes the zero-fault path, bit-identical to before fault
    /// support existed.
    pub faults: Option<&'a AvailabilitySchedule>,
}

/// A batched evaluation: an ordered cell set plus the fan-out that runs
/// it. Build with [`EvalSession::push`] / [`EvalSession::push_grid`], then
/// call [`EvalSession::run`] once; the result table is index-dense in push
/// order, so callers slice it back into their own grid shape without any
/// scatter/re-sort bookkeeping.
#[derive(Default)]
pub struct EvalSession<'a> {
    cells: Vec<EvalCell<'a>>,
}

impl<'a> EvalSession<'a> {
    /// An empty session.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cells queued so far.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cells are queued.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Queue one cell; returns its index in the result table.
    pub fn push(&mut self, cell: EvalCell<'a>) -> usize {
        self.cells.push(cell);
        self.cells.len() - 1
    }

    /// Queue a full `(policy × sequence)` grid in policy-major order;
    /// returns the cell-index range it occupies. Within the range, the
    /// cell of policy `p` and sequence `s` sits at
    /// `range.start + p * sequences.len() + s`.
    ///
    /// With `Some(schedules)`, each sequence runs under its own fault
    /// schedule: `schedules[s]` applies to `sequences[s]` for every policy
    /// (the per-sequence schedule is part of the scenario, so all policies
    /// face the same failures — the AVEbsld-under-faults comparison the
    /// resilience experiments make).
    ///
    /// # Panics
    /// Panics unless `schedules` is `None` or holds one schedule per
    /// sequence.
    pub fn push_grid(
        &mut self,
        policies: &'a [Box<dyn Policy>],
        sequences: &'a [TraceView],
        config: &'a SchedulerConfig,
        tau: f64,
        schedules: Option<&'a [AvailabilitySchedule]>,
    ) -> Range<usize> {
        if let Some(schedules) = schedules {
            assert_eq!(
                schedules.len(),
                sequences.len(),
                "one fault schedule per sequence"
            );
        }
        let start = self.cells.len();
        for policy in policies {
            for (s, trace) in sequences.iter().enumerate() {
                self.cells.push(EvalCell {
                    trace,
                    policy: policy.as_ref(),
                    config,
                    tau,
                    faults: schedules.map(|schedules| &schedules[s]),
                });
            }
        }
        start..self.cells.len()
    }

    /// Run every queued cell and return the index-dense metrics table
    /// (`table[i]` is the cell pushed `i`-th). One simulation workspace
    /// per worker thread, metrics-only engine mode per cell, compiled
    /// batch scoring wherever the cell's policy lowers to bytecode.
    ///
    /// A panic inside any cell — a panicking custom [`Policy`], a fault
    /// schedule that drives the engine into an inconsistent state — comes
    /// back as a structured [`PoolError`] naming the failing cell index,
    /// after the thread scope has joined cleanly and every completed cell
    /// has been dropped.
    pub fn run(&self) -> Result<Vec<SimMetrics>, PoolError> {
        // Compile each distinct policy once, up front, so workers share
        // programs instead of re-lowering per cell. Identity is the full
        // fat pointer (data address *and* vtable): zero-sized policies
        // (FCFS, SPT, …) all share one dangling data address, so only the
        // vtable separates them. Duplicate vtables across codegen units
        // can at worst re-compile a shared policy — never alias two
        // different ones.
        let mut keys: Vec<*const dyn Policy> = Vec::new();
        let mut programs: Vec<Option<CompiledPolicy>> = Vec::new();
        let cell_program: Vec<usize> = self
            .cells
            .iter()
            .map(|cell| {
                let key: *const dyn Policy = cell.policy;
                keys.iter()
                    .position(|&k| std::ptr::eq(k, key))
                    .unwrap_or_else(|| {
                        keys.push(key);
                        programs.push(cell.policy.compile());
                        programs.len() - 1
                    })
            })
            .collect();
        try_run_scoped(self.cells.len(), SimWorkspace::new, |i, ws| {
            let cell = &self.cells[i];
            let discipline = QueueDiscipline::of(cell.policy, programs[cell_program[i]].as_ref());
            match cell.faults {
                None => ws.run_metrics(cell.trace, &discipline, cell.config, cell.tau),
                Some(schedule) => ws
                    .run_metrics_faulty(cell.trace, &discipline, cell.config, schedule, cell.tau)
                    .expect("fault schedule drove the engine into an inconsistent state"),
            }
        })
    }
}
