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
//! which is the compile contract the scheduler's `compiled_bit_identity`
//! suite pins.
//!
//! # Determinism contract
//!
//! Cells are pure functions of their inputs, results come back as an
//! index-dense table in push order, and worker state is scratch (cleared
//! per cell, never read) — so a session's output is bit-identical for any
//! thread count, and bit-identical to calling the allocating
//! [`simulate`](dynsched_scheduler::simulate) wrapper per cell and
//! reducing afterwards. The `eval_session` regression suite pins both
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
    pub fn push_grid(
        &mut self,
        policies: &'a [Box<dyn Policy>],
        sequences: &'a [TraceView],
        config: &'a SchedulerConfig,
        tau: f64,
    ) -> Range<usize> {
        let start = self.cells.len();
        for policy in policies {
            for trace in sequences {
                self.cells.push(EvalCell {
                    trace,
                    policy: policy.as_ref(),
                    config,
                    tau,
                    faults: None,
                });
            }
        }
        start..self.cells.len()
    }

    /// Like [`EvalSession::push_grid`], but each sequence runs under its
    /// own fault schedule: `schedules[s]` applies to `sequences[s]` for
    /// every policy (the per-sequence schedule is part of the scenario, so
    /// all policies face the same failures — the AVEbsld-under-faults
    /// comparison the resilience experiments make).
    ///
    /// # Panics
    /// Panics unless `schedules.len() == sequences.len()`.
    pub fn push_grid_with_faults(
        &mut self,
        policies: &'a [Box<dyn Policy>],
        sequences: &'a [TraceView],
        config: &'a SchedulerConfig,
        tau: f64,
        schedules: &'a [AvailabilitySchedule],
    ) -> Range<usize> {
        assert_eq!(
            schedules.len(),
            sequences.len(),
            "one fault schedule per sequence"
        );
        let start = self.cells.len();
        for policy in policies {
            for (trace, schedule) in sequences.iter().zip(schedules) {
                self.cells.push(EvalCell {
                    trace,
                    policy: policy.as_ref(),
                    config,
                    tau,
                    faults: Some(schedule),
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
    /// # Panics
    /// Re-raises the first worker panic (a panicking custom policy, an
    /// inconsistent fault schedule). Callers that need to survive a bad
    /// cell — the checkpointed pipeline, a future `dynsched serve` — use
    /// [`EvalSession::try_run`] instead.
    pub fn run(&self) -> Vec<SimMetrics> {
        self.try_run()
            .unwrap_or_else(|e| panic!("evaluation session failed: {e}"))
    }

    /// Supervised twin of [`EvalSession::run`]: a panic inside any cell —
    /// a panicking custom [`Policy`], a fault schedule that drives the
    /// engine into an inconsistent state — comes back as a structured
    /// [`PoolError`] naming the failing cell index, after the thread scope
    /// has joined cleanly and every completed cell has been dropped. On
    /// success the table is bit-identical to [`EvalSession::run`].
    pub fn try_run(&self) -> Result<Vec<SimMetrics>, PoolError> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use dynsched_cluster::{Platform, DEFAULT_TAU};
    use dynsched_policies::{Fcfs, Spt};
    use dynsched_scheduler::{simulate, SimMetrics};
    use dynsched_simkit::parallel::with_worker_limit;
    use dynsched_simkit::Rng;
    use dynsched_workload::LublinModel;

    fn sequences(count: usize) -> Vec<TraceView> {
        let mut model = LublinModel::new(32);
        model.daily_cycle = false;
        model.arrival_scale = 0.05;
        let mut rng = Rng::new(91);
        (0..count)
            .map(|_| model.generate_jobs(50, &mut rng).to_view())
            .collect()
    }

    #[test]
    fn session_matches_per_cell_simulate() {
        let seqs = sequences(4);
        let policies: Vec<Box<dyn Policy>> = vec![Box::new(Fcfs), Box::new(Spt)];
        let config = SchedulerConfig::actual_runtimes(Platform::new(32));
        let mut session = EvalSession::new();
        let range = session.push_grid(&policies, &seqs, &config, DEFAULT_TAU);
        assert_eq!(range, 0..8);
        let table = session.run();
        for (p, policy) in policies.iter().enumerate() {
            for (s, seq) in seqs.iter().enumerate() {
                let cell = &table[p * seqs.len() + s];
                let want = SimMetrics::from_result(
                    &simulate(seq, &QueueDiscipline::Policy(policy.as_ref()), &config),
                    DEFAULT_TAU,
                );
                assert_eq!(cell, &want, "policy {p}, sequence {s}");
            }
        }
    }

    #[test]
    fn session_is_thread_count_independent() {
        let seqs = sequences(3);
        let policies: Vec<Box<dyn Policy>> = vec![Box::new(Fcfs), Box::new(Spt)];
        let config = SchedulerConfig::estimates_with_backfilling(Platform::new(32));
        let eval = || {
            let mut session = EvalSession::new();
            session.push_grid(&policies, &seqs, &config, DEFAULT_TAU);
            session.run()
        };
        let wide = eval();
        let narrow = with_worker_limit(1, eval);
        assert_eq!(wide, narrow);
    }

    #[test]
    fn mixed_cells_keep_push_order() {
        let seqs = sequences(2);
        let fcfs = Fcfs;
        let spt = Spt;
        let a = SchedulerConfig::actual_runtimes(Platform::new(32));
        let b = SchedulerConfig::user_estimates(Platform::new(32));
        let mut session = EvalSession::new();
        let i0 = session.push(EvalCell {
            trace: &seqs[0],
            policy: &fcfs,
            config: &a,
            tau: 10.0,
            faults: None,
        });
        let i1 = session.push(EvalCell {
            trace: &seqs[1],
            policy: &spt,
            config: &b,
            tau: 7.0,
            faults: None,
        });
        assert_eq!((i0, i1), (0, 1));
        assert_eq!(session.len(), 2);
        let table = session.run();
        assert_eq!(table[1].tau, 7.0);
        let want =
            SimMetrics::from_result(&simulate(&seqs[1], &QueueDiscipline::Policy(&spt), &b), 7.0);
        assert_eq!(table[1], want);
    }

    #[test]
    fn faulty_grid_matches_per_cell_faulty_simulate() {
        use dynsched_cluster::FaultProfile;
        let seqs = sequences(3);
        let policies: Vec<Box<dyn Policy>> = vec![Box::new(Fcfs), Box::new(Spt)];
        let config = SchedulerConfig::estimates_with_backfilling(Platform::new(32));
        let profile = FaultProfile::failures(2_000.0, 500.0, 8, 7).with_max_retries(2);
        let schedules: Vec<_> = seqs
            .iter()
            .enumerate()
            .map(|(s, seq)| profile.expand(32, seq.end_time().unwrap_or(0.0), s as u64))
            .collect();
        let mut session = EvalSession::new();
        let range =
            session.push_grid_with_faults(&policies, &seqs, &config, DEFAULT_TAU, &schedules);
        assert_eq!(range, 0..6);
        let table = session.run();
        let narrow = with_worker_limit(1, || {
            let mut session = EvalSession::new();
            session.push_grid_with_faults(&policies, &seqs, &config, DEFAULT_TAU, &schedules);
            session.run()
        });
        assert_eq!(
            table, narrow,
            "faulty grid must be thread-count independent"
        );
        for (p, policy) in policies.iter().enumerate() {
            for (s, seq) in seqs.iter().enumerate() {
                let mut ws = SimWorkspace::new();
                let discipline = QueueDiscipline::Policy(policy.as_ref());
                ws.run_faulty(seq, &discipline, &config, &schedules[s])
                    .expect("engine error");
                let want = SimMetrics::from_result(&ws.result(), DEFAULT_TAU);
                assert_eq!(table[p * seqs.len() + s], want, "policy {p}, sequence {s}");
            }
        }
    }

    #[test]
    fn empty_session_runs_to_empty_table() {
        let session = EvalSession::new();
        assert!(session.is_empty());
        assert!(session.run().is_empty());
    }

    #[test]
    fn uncompilable_policies_fall_back_to_the_interpreted_path() {
        // A custom policy with no compiled form (the trait default): the
        // session must route it through QueueDiscipline::Policy and still
        // match the per-cell simulate loop, while compilable policies in
        // the same session take the batch kernel.
        struct Custom;
        impl Policy for Custom {
            fn name(&self) -> &str {
                "custom"
            }
            fn score(&self, t: &dynsched_policies::TaskView) -> f64 {
                t.processing_time * 2.0 + t.wait().sqrt()
            }
        }
        let seqs = sequences(3);
        let policies: Vec<Box<dyn Policy>> = vec![Box::new(Custom), Box::new(Fcfs)];
        let config = SchedulerConfig::estimates_with_backfilling(Platform::new(32));
        let mut session = EvalSession::new();
        session.push_grid(&policies, &seqs, &config, DEFAULT_TAU);
        let table = session.run();
        for (p, policy) in policies.iter().enumerate() {
            for (s, seq) in seqs.iter().enumerate() {
                let want = SimMetrics::from_result(
                    &simulate(seq, &QueueDiscipline::Policy(policy.as_ref()), &config),
                    DEFAULT_TAU,
                );
                assert_eq!(table[p * seqs.len() + s], want, "policy {p}, sequence {s}");
            }
        }
    }

    #[test]
    fn panicking_policy_yields_structured_error_not_abort() {
        // A worker panic must surface as a PoolError naming the cell, with
        // the scope joined cleanly and the already-completed cells dropped
        // — not as an unwind through the session (let alone a leak).
        struct Grenade;
        impl Policy for Grenade {
            fn name(&self) -> &str {
                "grenade"
            }
            fn score(&self, t: &dynsched_policies::TaskView) -> f64 {
                if t.wait() >= 0.0 {
                    panic!("policy blew up");
                }
                t.processing_time
            }
        }
        let seqs = sequences(2);
        let policies: Vec<Box<dyn Policy>> = vec![Box::new(Fcfs), Box::new(Grenade)];
        let config = SchedulerConfig::actual_runtimes(Platform::new(32));
        let eval = || {
            let mut session = EvalSession::new();
            session.push_grid(&policies, &seqs, &config, DEFAULT_TAU);
            session.try_run()
        };
        for err in [eval().unwrap_err(), with_worker_limit(1, eval).unwrap_err()] {
            // The grenade occupies cells 2..4 (policy-major order).
            assert!(
                (2..4).contains(&err.slot),
                "slot {} not a grenade cell",
                err.slot
            );
            assert!(
                err.message.contains("policy blew up"),
                "message: {}",
                err.message
            );
        }
    }

    #[test]
    fn zero_sized_policies_sharing_a_name_are_not_aliased() {
        // Two zero-sized policies with the *same display name* but
        // different scoring: all ZSTs share one data address, so the
        // compile cache must key on the full fat pointer (vtable
        // included) or this impostor would silently run FCFS's compiled
        // program. LCFS-like scoring makes any mix-up change the metrics.
        struct NotReallyFcfs;
        impl Policy for NotReallyFcfs {
            fn name(&self) -> &str {
                "FCFS"
            }
            fn score(&self, t: &dynsched_policies::TaskView) -> f64 {
                -t.submit
            }
            fn time_dependent(&self) -> bool {
                false
            }
        }
        let seqs = sequences(2);
        let policies: Vec<Box<dyn Policy>> = vec![Box::new(Fcfs), Box::new(NotReallyFcfs)];
        let config = SchedulerConfig::actual_runtimes(Platform::new(32));
        let mut session = EvalSession::new();
        session.push_grid(&policies, &seqs, &config, DEFAULT_TAU);
        let table = session.run();
        for (p, policy) in policies.iter().enumerate() {
            for (s, seq) in seqs.iter().enumerate() {
                let want = SimMetrics::from_result(
                    &simulate(seq, &QueueDiscipline::Policy(policy.as_ref()), &config),
                    DEFAULT_TAU,
                );
                assert_eq!(table[p * seqs.len() + s], want, "policy {p}, sequence {s}");
            }
        }
    }
}
