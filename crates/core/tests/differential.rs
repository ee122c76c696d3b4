//! `core`'s oracle convention, pinned in one place. The paper's results are
//! Table 4's medians over the §4.2–4.3 evaluation grid and the policies
//! distilled from Eq. 3's trial scores, and `core` computes both through
//! batched fast paths. This file checks each against its slow twin by
//! differential testing, in two halves that share one comparison
//! ([`same`]), one failure report ([`disagree`]), one coverage table
//! ([`assert_covered`]) and one pair of pool [`WIDTHS`]:
//!
//! * **Trials.** One generator ([`Shape`] tuples from the in-source
//!   [`SEED`], each batched twice — over the tuple and over a content-equal
//!   copy with its own stream — in one call per platform) and one checker
//!   ([`check`]: the kernel against per-trial `run_trial`, which simulates
//!   every trial from time zero — every trial's AVEbsld bits first, then
//!   the first counts, then the scores).
//! * **Evaluation.** One generator of [`Grid`]s (Table-4 rows from a cold, a
//!   warm and a partly warm store, model rows under every [`Condition`],
//!   load sweeps, registry families with and without faults, hand-built
//!   sequences) over one [`lineup`], and one checker ([`check_grid`]: the
//!   session, the grid's batched entry point and the per-row runs against
//!   per-cell `simulate` / `run_faulty` under `QueueDiscipline::Policy`,
//!   reduced the way the per-cell loop did).
//!
//! Below them sit a convergence curve against per-trial runs, the learning
//! golden (one `run_full` at each width), the one-tuple `trial_scores` and a
//! seed-stable model row at every width (the root package's former
//! `determinism` suite; its "different seeds differ" is a coverage row of
//! the evaluation half), and the named cases that pin a contract that is
//! not a differential path.
//!
//! # Reading a failure
//!
//! A disagreement panics with the seed, the case index and what the case
//! is — a grid, or a tuple's shape and platform with its jobs as
//! `Job::new(..)` lines (warm-up set first) that paste into a named test as
//! they are — then the path that disagreed (`<what> [1 worker | 3
//! workers]`) and the first line where the fast path's value and the
//! oracle's differ. The generators are pure functions of [`SEED`], so
//! `cargo test -p dynsched-core --test differential` reproduces it without
//! edits.

use dynsched_cluster::{AvailabilitySchedule, FaultProfile, Job, Platform, DEFAULT_TAU};
use dynsched_core::convergence::{convergence_curve, ConvergencePoint};
use dynsched_core::experiments::{
    run_experiment, run_experiments, try_run_experiments, Experiment, ExperimentResult,
    PolicyOutcome,
};
use dynsched_core::pipeline::{generate_training_set, run_full, FullRunConfig, TrainingConfig};
use dynsched_core::report::full_run_markdown;
use dynsched_core::scenarios::{
    archive_scenario_in, model_scenario_in, scenario_experiment, scenario_results,
    table4_experiments_in, table4_results_in, Condition, ScenarioScale,
};
use dynsched_core::session::{EvalCell, EvalSession};
use dynsched_core::sweep::sweep_load;
use dynsched_core::trials::{
    divergence_horizon, run_trial, trial_outcomes_batched, trial_scores, trial_scores_batched,
    TrialBatch, TrialScores, TrialSpec,
};
use dynsched_core::tuples::{TaskTuple, TupleSpec};
use dynsched_mlreg::{fit_all_reference, EnumerateOptions, FitResult};
use dynsched_policies::{paper_lineup, Fcfs, LearnedPolicy, Policy, Spt, TaskView, Wfp3};
use dynsched_scheduler::{
    simulate, QueueDiscipline, SchedulerConfig, SimMetrics, SimWorkspace, SimulationResult,
};
use dynsched_simkit::parallel::with_worker_limit;
use dynsched_simkit::stats::{mean, median, std_dev, std_dev_population, BoxplotSummary};
use dynsched_simkit::Rng;
use dynsched_workload::transform::scale_load;
use dynsched_workload::{
    ArchivePlatform, LublinModel, ScenarioFamily, ScenarioParams, SequenceSpec, Trace, TraceStore,
};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The master seed: every tuple, permutation stream, grid and protocol
/// seed below derives from it.
const SEED: u64 = 0x7_21A1_D1FF;

/// The pool widths every entry point runs at. The wide side is an explicit
/// odd width, not the host's — one worker on a 1-CPU host — so the
/// comparison is never vacuous and chunks split unevenly.
const WIDTHS: [(&str, usize); 2] = [("1 worker", 1), ("3 workers", 3)];

// ---- Shared by both halves ----

/// A path that disagreed with the oracle.
#[derive(Debug)]
struct Failure {
    path: String,
    detail: String,
}

/// The outcome of comparing one path against the oracle.
type Checked = Result<(), Failure>;

/// What the checked cases reached, row by row, for the coverage table.
type Coverage = BTreeMap<&'static str, u64>;

/// Compare by `Debug` text: `f64` prints the shortest decimal that
/// round-trips, so equal text is equal bits, `-0.0` included. A failure
/// names the first line that differs.
fn same<T: Debug + ?Sized>(path: &str, got: &T, want: &T) -> Checked {
    let (got, want) = (format!("{got:#?}"), format!("{want:#?}"));
    if got == want {
        return Ok(());
    }
    let at = got.lines().zip(want.lines()).take_while(|(g, w)| g == w);
    let at = at.count();
    let line = |text: &str| text.lines().nth(at).unwrap_or("<end>").trim().to_string();
    let detail = format!("line {}\ngot  {}\nwant {}", at + 1, line(&got), line(&want));
    let path = path.to_string();
    Err(Failure { path, detail })
}

/// Panic with the report of a disagreement on case `case`, which is `what`.
fn disagree(case: usize, what: &str, failure: Failure) -> ! {
    let Failure { path, detail } = failure;
    panic!("oracle disagreement: seed {SEED:#x}, case {case} — {what}\npath `{path}`:\n{detail}\n")
}

/// Add what one check reached to the running table.
fn merge(cov: &mut Coverage, seen: Coverage) {
    for (row, n) in seen {
        *cov.entry(row).or_default() += n;
    }
}

/// A coverage table, printed and asserted: each row is something the domain
/// exists to reach, counted (0 when missed) on every case, so a row the
/// domain stops reaching reads `[--]` and fails instead of vanishing.
fn assert_covered(cov: &Coverage) {
    let mut table = String::new();
    for (row, &got) in cov {
        let mark = if got >= 1 { "ok" } else { "--" };
        table += &format!("  [{mark}] {row}: {got}\n");
    }
    println!("coverage:\n{table}");
    let all = cov.values().all(|&n| n >= 1);
    assert!(all, "the domain stopped reaching a row:\n{table}");
}

// ---- The trial generator ----

/// What a tuple looks like. Each shape is built for an edge the kernel's
/// checkpoint, fork or reduction could get wrong.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// The paper's tuple (|S| = 16, |Q| = 32) from the Lublin model of a
    /// platform this wide: wide warm-up tasks hold the machine, the probes
    /// pile up behind them, and the horizon sits deep in the drain.
    Paper(u32),
    /// A small model tuple (|S| = 4, |Q| = 8) on 64 cores.
    Small,
    /// No warm-up set: the horizon is 0 and every trial forks the
    /// pristine state.
    WarmupFree,
    /// One probe: every permutation is the identity, so no time is
    /// flagged and the checkpoint holds the whole schedule.
    Singleton,
    /// Hand-built on 8 cores, on a ten-second grid from `t0`: a warm-up
    /// set that can be wider than the machine, probes tied with each other
    /// and with the warm-up instant, zero runtimes, full-width jobs, and up
    /// to 12 probes — more than there are cores.
    Hostile(f64),
    /// A tuple built by hand for one named case, not drawn.
    Named(&'static str),
}

/// Shapes and how many tuples of each the harness draws.
const DOMAIN: [(Shape, u64); 9] = [
    (Shape::Paper(128), 2),
    (Shape::Paper(256), 3),
    (Shape::Paper(512), 1),
    (Shape::Small, 8),
    (Shape::WarmupFree, 3),
    (Shape::Singleton, 3),
    (Shape::Hostile(0.0), 8),
    (Shape::Hostile(1_000.0), 8),
    (Shape::Hostile(2e8), 8),
];

/// Trials of a case's two batches: the tuple's own and its copy's.
const TRIALS: [usize; 2] = [24, 12];

impl Shape {
    /// One tuple of this shape and the platform width it runs on.
    fn tuple(self, rng: &mut Rng) -> (u32, TaskTuple) {
        let model_tuple = |rng: &mut Rng, cores: u32, s_size: usize, q_size: usize| {
            let spec = TupleSpec {
                s_size,
                q_size,
                max_start_offset: 50_000.0,
            };
            let tuple = TaskTuple::generate(&spec, &LublinModel::new(cores), rng);
            (cores, tuple)
        };
        match self {
            Shape::Paper(cores) => {
                let model = LublinModel::new(cores);
                let tuple = TaskTuple::generate(&TupleSpec::default(), &model, rng);
                (cores, tuple)
            }
            Shape::Small => model_tuple(rng, 64, 4, 8),
            Shape::WarmupFree => model_tuple(rng, 64, 0, 6),
            Shape::Singleton => model_tuple(rng, 64, 4, 1),
            Shape::Hostile(t0) => {
                let mut jobs = Vec::new();
                let mut push = |submit: f64, runtime: f64, cores: u32| {
                    let id = jobs.len() as u32;
                    jobs.push(Job::new(id, submit, runtime, runtime, cores));
                };
                let s_size = rng.range_u64(1, 6) as usize;
                for _ in 0..s_size {
                    let runtime = *rng.choose(&[0.0, 10.0, 20.0, 50.0, 100.0]);
                    push(t0, runtime, *rng.choose(&[1, 2, 4, 8, 8]));
                }
                let mut submits: Vec<f64> = (0..rng.range_u64(2, 12))
                    .map(|_| t0 + 10.0 * rng.range_u64(0, 12) as f64)
                    .collect();
                submits.sort_by(f64::total_cmp);
                for submit in submits {
                    let runtime = *rng.choose(&[0.0, 0.0, 10.0, 20.0, 50.0]);
                    push(submit, runtime, *rng.choose(&[1, 1, 2, 4, 8]));
                }
                let q_tasks = jobs.split_off(s_size);
                let tuple = TaskTuple {
                    s_tasks: jobs,
                    q_tasks,
                };
                (8, tuple)
            }
            Shape::Named(name) => unreachable!("`{name}` is built by hand, not drawn"),
        }
    }
}

/// One differential case: a tuple on its platform, and the master seeds
/// of its two batches.
struct Case {
    index: usize,
    shape: Shape,
    cores: u32,
    tuple: TaskTuple,
    /// A content-equal clone at another address: the second batch runs
    /// over it, so it must share the first's trace and checkpoint.
    copy: TaskTuple,
    masters: [u64; 2],
}

impl Case {
    /// The case as a failure report prints it.
    fn describe(&self) -> String {
        let mut jobs = String::new();
        for j in self.tuple.s_tasks.iter().chain(&self.tuple.q_tasks) {
            let (id, s, r, e, c) = (j.id, j.submit, j.runtime, j.estimate, j.cores);
            jobs += &format!("    Job::new({id}, {s:?}, {r:?}, {e:?}, {c}),\n");
        }
        let s = self.tuple.s_tasks.len();
        format!(
            "{:?} on {} cores, |S| = {s}\n{jobs}",
            self.shape, self.cores
        )
    }
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for (shape, tuples) in DOMAIN {
        for _ in 0..tuples {
            let mut rng = Rng::new(SEED).fork(out.len() as u64);
            let (cores, tuple) = shape.tuple(&mut rng);
            out.push(Case {
                index: out.len(),
                shape,
                cores,
                copy: tuple.clone(),
                tuple,
                masters: [rng.next_u64(), rng.next_u64()],
            });
        }
    }
    out
}

// ---- The trial checker ----

/// What the oracle wants of one batch: every trial's permutation and
/// AVEbsld, each simulated from time zero by `run_trial`, and the scores
/// accumulated from them sequentially in trial order.
struct Want {
    perms: Vec<Vec<usize>>,
    outcomes: Vec<(usize, f64)>,
    scores: TrialScores,
}

fn per_trial(tuple: &TaskTuple, trials: usize, master: u64, cores: u32) -> Want {
    let spec = TrialSpec {
        trials,
        platform: Platform::new(cores),
        tau: DEFAULT_TAU,
    };
    let q = tuple.q_tasks.len();
    let mut perms = Vec::with_capacity(trials);
    let mut outcomes = Vec::with_capacity(trials);
    let mut sum_by_first = vec![0.0; q];
    let mut first_counts = vec![0u64; q];
    let mut total = 0.0;
    for i in 0..trials {
        let perm = Rng::new(master).fork(i as u64).permutation(q);
        let ave = run_trial(tuple, &perm, &spec);
        sum_by_first[perm[0]] += ave;
        first_counts[perm[0]] += 1;
        total += ave;
        outcomes.push((perm[0], ave));
        perms.push(perm);
    }
    let scores = sum_by_first.iter().map(|s| s / total).collect();
    Want {
        perms,
        outcomes,
        scores: TrialScores {
            scores,
            trials,
            first_counts,
        },
    }
}

/// The batched kernel over every case of one platform — each case's tuple
/// batch, then each case's copy batch — at both widths, against the
/// oracle; then what the cases reached. A failure carries its case index.
fn check(cases: &[&Case]) -> Result<Coverage, (usize, Failure)> {
    let cores = cases[0].cores;
    debug_assert!(cases.iter().all(|c| c.cores == cores));
    let batches = |k: usize| {
        cases.iter().map(move |&c| TrialBatch {
            tuple: [&c.tuple, &c.copy][k],
            trials: TRIALS[k],
            master: Rng::new(c.masters[k]),
        })
    };
    let cells: Vec<TrialBatch<'_>> = (0..2).flat_map(batches).collect();
    let want = |b: &TrialBatch| per_trial(b.tuple, b.trials, b.master.seed(), cores);
    let wants: Vec<Want> = cells.iter().map(want).collect();
    let platform = Platform::new(cores);
    let run = || {
        let outcomes = trial_outcomes_batched(&cells, platform, DEFAULT_TAU);
        let scores = trial_scores_batched(&cells, platform, DEFAULT_TAU);
        (outcomes, scores)
    };
    for (width, workers) in WIDTHS {
        let (outcomes, scores) = with_worker_limit(workers, run);
        let mut rest = outcomes.as_slice();
        let batches = wants.iter().zip(&scores).zip(cases.iter().cycle());
        for (b, ((want, got), case)) in batches.enumerate() {
            let tag = |failure| (case.index, failure);
            let (mine, tail) = rest.split_at(want.outcomes.len());
            rest = tail;
            for (i, (g, w)) in mine.iter().zip(&want.outcomes).enumerate() {
                let perm = &want.perms[i];
                let path = format!("batch {b}: trial {i}, permutation {perm:?} [{width}]");
                same(&path, g, w).map_err(tag)?;
            }
            let path = format!("batch {b}: first counts [{width}]");
            same(&path, &got.first_counts, &want.scores.first_counts).map_err(tag)?;
            same(&format!("batch {b}: scores [{width}]"), got, &want.scores).map_err(tag)?;
            distribution(&format!("batch {b}: scores [{width}]"), got).map_err(tag)?;
        }
    }
    let mut cov = Coverage::new();
    for (case, want) in cases.iter().zip(&wants) {
        reached_by_trials(case, &mut cov);
        let differ = want.outcomes.iter().any(|o| o.1 != want.outcomes[0].1);
        let row = cov.entry("tuples whose trials score differently");
        *row.or_default() += u64::from(differ);
    }
    Ok(cov)
}

/// Eq. 3's scores are a distribution over the probes: none negative, and
/// summing to one.
fn distribution(path: &str, scores: &TrialScores) -> Checked {
    let total = scores.total();
    if (total - 1.0).abs() < 1e-9 && scores.scores.iter().all(|&s| s >= 0.0) {
        return Ok(());
    }
    let detail = format!("{:?} sum to {total}", scores.scores);
    let path = format!("{path}, a distribution");
    Err(Failure { path, detail })
}

/// What one case reaches: its horizon's kind, and from the identity
/// schedule (every trial's own up to the horizon) what the fork restores.
fn reached_by_trials(case: &Case, cov: &mut Coverage) {
    let (tuple, cores) = (&case.tuple, case.cores);
    let mut count = |row: &'static str, n: usize| *cov.entry(row).or_default() += n as u64;
    let horizon = divergence_horizon(tuple, Platform::new(cores));
    let kind = match horizon {
        0.0 => "horizon 0",
        h if h.is_finite() => "finite horizon",
        _ => "horizon ∞",
    };
    for row in ["horizon 0", "finite horizon", "horizon ∞"] {
        count(row, usize::from(row == kind));
    }
    let jobs = tuple.all_jobs();
    let identity: Vec<usize> = (0..jobs.len()).collect();
    let config = SchedulerConfig::actual_runtimes(Platform::new(cores));
    let trace = Trace::from_jobs(jobs.clone());
    let run = simulate(&trace, &QueueDiscipline::FixedOrder(&identity), &config);
    let (mut done, mut queued, mut running) = (0, false, false);
    for c in &run.completed {
        done += usize::from(tuple.is_q_task(c.job.id) && c.finish < horizon);
        queued |= c.job.submit < horizon && c.start >= horizon;
        running |= c.start < horizon && c.finish >= horizon;
    }
    count("Q jobs completed before the horizon", done);
    let forks = usize::from(queued && running);
    count("forks with jobs queued and running", forks);
    let s_width: u32 = tuple.s_tasks.iter().map(|j| j.cores).sum();
    let wide = usize::from(s_width > cores);
    count("warm-up sets wider than the platform", wide);
    let many = tuple.q_tasks.len() > cores as usize;
    count("probe sets larger than the platform", usize::from(many));
    let zero = jobs.iter().filter(|j| j.runtime == 0.0);
    count("zero-runtime jobs", zero.count());
    let full = jobs.iter().filter(|j| j.cores == cores);
    count("full-width jobs", full.count());
    let q = &tuple.q_tasks;
    let tied = q.windows(2).filter(|w| w[0].submit == w[1].submit);
    count("tied probe submits", tied.count());
    let s_start = tuple.s_tasks.first().map(|j| j.submit);
    let at_start = tuple.q_tasks.iter().filter(|j| Some(j.submit) == s_start);
    count("probes submitted with the warm-up set", at_start.count());
}

#[test]
fn the_batched_kernel_equals_per_trial_scratch_runs() {
    let cases = cases();
    let mut platforms: Vec<u32> = cases.iter().map(|c| c.cores).collect();
    platforms.sort_unstable();
    platforms.dedup();
    let mut cov = Coverage::new();
    for cores in platforms {
        let group: Vec<&Case> = cases.iter().filter(|c| c.cores == cores).collect();
        match check(&group) {
            Ok(seen) => merge(&mut cov, seen),
            Err((case, failure)) => disagree(case, &cases[case].describe(), failure),
        }
    }
    assert_covered(&cov);
}

/// One pass the horizon scan need not flag for its started *set* starts two
/// probes that finish at the same instant. Same-instant completions pop in
/// start order, and a pass starts in rank order, so a trial whose
/// permutation swaps jobs 3 and 4 completes them 4-then-3 while the
/// identity checkpoint holds them 3-then-4 — and the slowdown sum differs
/// in the last bit (under `[0, 2, 1]`: 4.619493065518891 from scratch,
/// 4.61949306551889 from a fork of a checkpoint past that pass). Waiting
/// job 1 shields the probes until all three start at 120, so only the tie
/// flags a time.
#[test]
fn probes_started_together_that_finish_together_fork_in_start_order() {
    let job = |id, submit, runtime, cores| Job::new(id, submit, runtime, runtime, cores);
    let tuple = TaskTuple {
        s_tasks: vec![job(0, 0.0, 120.0, 6), job(1, 0.0, 10.0, 4)],
        q_tasks: vec![
            job(2, 1.37, 17.0, 1),
            job(3, 30.29, 41.0, 1),
            job(4, 50.62, 41.0, 1),
        ],
    };
    let case = Case {
        index: 0,
        shape: Shape::Named("probes started together that finish together"),
        cores: 8,
        copy: tuple.clone(),
        tuple,
        masters: [1, 2],
    };
    if let Err((index, failure)) = check(&[&case]) {
        disagree(index, &case.describe(), failure);
    }
}

/// `trial_scores`, the one-tuple entry point, at the host's pool width and
/// at both [`WIDTHS`], against per-trial runs: the thread-pool identity the
/// root package's former `determinism` suite pinned, on its tuple and seeds.
#[test]
fn one_tuple_trial_scores_are_per_trial_runs_at_any_width() {
    let spec = TupleSpec {
        s_size: 4,
        q_size: 8,
        max_start_offset: 40_000.0,
    };
    let tuple = TaskTuple::generate(&spec, &LublinModel::new(64), &mut Rng::new(5));
    let trial_spec = TrialSpec {
        trials: 256,
        platform: Platform::new(64),
        tau: 10.0,
    };
    let want = per_trial(&tuple, trial_spec.trials, 11, 64).scores;
    let run = || trial_scores(&tuple, &trial_spec, &Rng::new(11));
    let host = ("host width", run());
    let widths = WIDTHS.map(|(width, workers)| (width, with_worker_limit(workers, run)));
    for (width, got) in [host].into_iter().chain(widths) {
        let path = format!("trial_scores [{width}]");
        if let Err(failure) = same(&path, &got, &want).and_then(|()| distribution(&path, &got)) {
            disagree(0, "the one-tuple entry point", failure);
        }
    }
}

// ---- The evaluation generator ----

/// A policy with no compiled form (the trait's default): its cells stay on
/// the interpreted path while the built-ins beside it take the compiled one.
struct Uncompiled;

impl Policy for Uncompiled {
    fn name(&self) -> &str {
        "custom"
    }
    fn score(&self, t: &TaskView) -> f64 {
        t.processing_time * 2.0 + t.wait().sqrt()
    }
}

/// Zero-sized like FCFS and named "FCFS", but LCFS underneath. Every
/// zero-sized policy has the same data address, so a compile cache keyed
/// on less than the whole fat pointer runs FCFS's program for it.
struct Impostor;

impl Policy for Impostor {
    fn name(&self) -> &str {
        "FCFS"
    }
    fn score(&self, t: &TaskView) -> f64 {
        -t.submit
    }
    fn time_dependent(&self) -> bool {
        false
    }
}

/// The line-up every grid runs: compiled wait-invariant (FCFS, SPT, F1) and
/// time-dependent (WFP3) built-ins, then the two above — FCFS first and
/// the impostor last, so [`reached_by_grid`] can compare their cells.
fn lineup() -> Vec<Box<dyn Policy>> {
    vec![
        Box::new(Fcfs),
        Box::new(Spt),
        Box::new(Wfp3),
        Box::new(LearnedPolicy::f1()),
        Box::new(Uncompiled),
        Box::new(Impostor),
    ]
}

/// An evaluation entry point and what its grid is built from. Each is
/// built for an edge the session, its reductions or the store could get
/// wrong.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Grid {
    /// The 18 Table-4 rows built from a cold, a warm and a partly warm
    /// store, evaluated by `table4_results_in`.
    Table4,
    /// §4.2 model rows on 64 cores, one per condition, by `run_experiments`.
    Model,
    /// `sweep_load` of three 32-core sequences to the [`TARGETS`].
    Sweep(Condition),
    /// The registry [`FAMILIES`] under every condition by
    /// `scenario_results`, under a fault profile when `faulty`.
    Registry { faulty: bool },
    /// One row per condition and [`hand_sequences`] entry, by
    /// `run_experiments`: one sequence a row.
    Hand,
}

const GRIDS: [Grid; 7] = [
    Grid::Table4,
    Grid::Model,
    Grid::Sweep(Condition::ActualRuntimes),
    Grid::Sweep(Condition::EstimatesWithBackfilling),
    Grid::Registry { faulty: false },
    Grid::Registry { faulty: true },
    Grid::Hand,
];

const TARGETS: [f64; 3] = [0.3, 0.8, 1.3];
const FAMILIES: [ScenarioFamily; 2] = [ScenarioFamily::HeavyTail, ScenarioFamily::Bursty];
const PARAMS: ScenarioParams = ScenarioParams {
    cores: 64,
    span_days: 4.0,
    target_load: 0.9,
};

/// The evaluation protocol at test size: `count` one-day sequences a row.
fn test_scale(count: usize, seed: u64) -> ScenarioScale {
    let spec = SequenceSpec {
        count,
        days: 1.0,
        min_jobs: 2,
    };
    ScenarioScale {
        spec,
        seed,
        ..ScenarioScale::default()
    }
}

/// Hand-built 8-core sequences: one job; two waves of four tied submits,
/// with exact and loose estimates and a zero runtime; a full-width job
/// behind a narrow one, with narrow jobs queued behind it.
fn hand_sequences() -> [(&'static str, Trace); 3] {
    let trace = |jobs: &[(f64, f64, f64, u32)]| {
        let job =
            |(i, &(s, r, e, c)): (usize, &(f64, f64, f64, u32))| Job::new(i as u32, s, r, e, c);
        Trace::from_jobs(jobs.iter().enumerate().map(job).collect())
    };
    let tied = [
        (0.0, 50.0, 60.0, 4),
        (0.0, 10.0, 100.0, 2),
        (0.0, 30.0, 30.0, 4),
        (0.0, 5.0, 20.0, 1),
        (20.0, 40.0, 80.0, 8),
        (20.0, 1.0, 1.0, 2),
        (20.0, 15.0, 60.0, 3),
        (20.0, 0.0, 10.0, 1),
    ];
    let wide = [
        (0.0, 60.0, 90.0, 3),
        (5.0, 100.0, 120.0, 8),
        (6.0, 20.0, 20.0, 2),
        (7.0, 5.0, 30.0, 1),
        (50.0, 30.0, 40.0, 5),
    ];
    [
        ("a single job", trace(&[(0.0, 100.0, 100.0, 1)])),
        ("tied submits", trace(&tied)),
        ("a full-width job", trace(&wide)),
    ]
}

/// The fault profile the [`FAMILIES`] run under when `faulty`: 16-core
/// failures every 40 minutes or so and one retry, so one-day sequences see
/// preemptions and abandonments.
fn fault(faulty: bool) -> Option<FaultProfile> {
    faulty.then(|| FaultProfile::failures(2_400.0, 600.0, 16, SEED).with_max_retries(1))
}

/// One grid's inputs, drawn from its own stream of [`SEED`]: the line-up,
/// the protocol scale, a sweep's base sequences, and the rows built one by
/// one through the single-row constructors — what the oracle simulates.
struct Drawn {
    grid: Grid,
    lineup: Vec<Box<dyn Policy>>,
    scale: ScenarioScale,
    sequences: Vec<Trace>,
    rows: Vec<Experiment>,
}

fn draw(index: usize, grid: Grid) -> Drawn {
    let mut rng = Rng::new(!SEED).fork(index as u64);
    let count = if grid == Grid::Model { 3 } else { 2 };
    let scale = test_scale(count, rng.next_u64());
    let store = TraceStore::new();
    let mut sequences = Vec::new();
    let rows = match grid {
        Grid::Table4 => {
            let model = |c, nmax| model_scenario_in(&store, nmax, c, &scale);
            let archive = |c, p| archive_scenario_in(&store, &p, c, &scale);
            let models = Condition::ALL.map(|c| [256, 1024].map(|nmax| model(c, nmax)));
            let archives = Condition::ALL.map(|c| ArchivePlatform::ALL.map(|p| archive(c, p)));
            [models.concat(), archives.concat()].concat()
        }
        Grid::Model => Condition::ALL
            .map(|c| model_scenario_in(&store, 64, c, &scale))
            .to_vec(),
        Grid::Sweep(condition) => {
            let mut model = LublinModel::new(32);
            model.daily_cycle = false;
            sequences = (0..3).map(|_| model.generate_jobs(80, &mut rng)).collect();
            let scheduler = condition.scheduler(Platform::new(32));
            let at = |target: f64| {
                let mut rescaled = Vec::new();
                for s in &sequences {
                    let base = s.summary(32).expect("non-empty").offered_load;
                    rescaled.push(scale_load(s, target / base));
                }
                Experiment::new(format!("sweep @ load {target:.2}"), rescaled, scheduler)
            };
            TARGETS.map(at).to_vec()
        }
        Grid::Registry { faulty } => {
            let row = |family, c| {
                let row = scenario_experiment(&store, family, &PARAMS, c, &scale);
                let row = row.expect("enough windows");
                match fault(faulty) {
                    Some(profile) => row.with_fault_profile(profile),
                    None => row,
                }
            };
            let rows = FAMILIES.map(|family| Condition::ALL.map(|c| row(family, c)));
            rows.into_iter().flatten().collect()
        }
        Grid::Hand => {
            let mut rows = Vec::new();
            for c in Condition::ALL {
                for (name, seq) in hand_sequences() {
                    let name = format!("{name}, {}", c.label());
                    let scheduler = c.scheduler(Platform::new(8));
                    rows.push(Experiment::new(name, vec![seq], scheduler));
                }
            }
            rows
        }
    };
    let lineup = lineup();
    Drawn {
        grid,
        lineup,
        scale,
        sequences,
        rows,
    }
}

// ---- The evaluation checker ----

/// What the oracle wants of a grid's rows: each row's fault schedules,
/// every cell's whole schedule (`[row][policy][sequence]`), each simulated
/// alone, and each row reduced from them the way the per-cell loop did.
#[derive(Default)]
struct Wants {
    schedules: Vec<Option<Vec<AvailabilitySchedule>>>,
    cells: Vec<Vec<Vec<SimulationResult>>>,
    results: Vec<ExperimentResult>,
}

/// A faulty row's schedules, expanded apart from the library: sequence `s`
/// takes stream `s` and a horizon of its last submit plus its work drained
/// over the whole platform (Σ runtime·cores / cores).
fn fault_schedules(e: &Experiment) -> Option<Vec<AvailabilitySchedule>> {
    let (profile, cores) = (e.fault.as_ref()?, e.scheduler.platform.total_cores);
    let area = |j: Job| j.runtime * f64::from(j.cores);
    let mut schedules = Vec::new();
    for (s, seq) in e.sequences.iter().enumerate() {
        let last = seq.submits().iter().fold(0.0, |a: f64, &b| a.max(b));
        let work: f64 = seq.iter_jobs().map(area).sum();
        schedules.push(profile.expand(cores, last + work / f64::from(cores), s as u64));
    }
    Some(schedules)
}

/// One policy's row, reduced from whole schedules the way the per-cell
/// loop did before the session existed.
fn reduce(policy: &str, runs: &[SimulationResult], tau: f64) -> PolicyOutcome {
    let ave = |r: &SimulationResult| r.avg_bounded_slowdown(tau).expect("non-empty");
    let xs: Vec<f64> = runs.iter().map(ave).collect();
    let mean_of = |f: fn(&SimulationResult) -> f64| {
        let ys: Vec<f64> = runs.iter().map(f).collect();
        mean(&ys).expect("non-empty")
    };
    PolicyOutcome {
        policy: policy.to_string(),
        summary: BoxplotSummary::from_samples(&xs).expect("non-empty"),
        median: median(&xs).expect("non-empty"),
        mean: mean(&xs).expect("non-empty"),
        std_dev: std_dev(&xs).unwrap_or(0.0),
        mean_backfilled: mean_of(|r| r.backfilled_jobs as f64),
        mean_preempted: mean_of(|r| r.preempted_jobs as f64),
        mean_abandoned: mean_of(|r| r.abandoned.len() as f64),
        mean_lost_core_seconds: mean_of(|r| r.lost_core_seconds),
        ave_bslds: xs,
    }
}

/// The oracle: every cell by an allocating `simulate` — or `run_faulty`
/// under [`fault_schedules`] — under `QueueDiscipline::Policy`, which never
/// compiles, one cell at a time.
fn per_cell(rows: &[Experiment], lineup: &[Box<dyn Policy>]) -> Wants {
    let mut wants = Wants::default();
    for e in rows {
        let faults = fault_schedules(e);
        let mut row = Vec::new();
        for policy in lineup {
            let discipline = QueueDiscipline::Policy(policy.as_ref());
            let mut runs = Vec::new();
            for (s, seq) in e.sequences.iter().enumerate() {
                let Some(faults) = &faults else {
                    runs.push(simulate(seq, &discipline, &e.scheduler));
                    continue;
                };
                let mut ws = SimWorkspace::new();
                let run = ws.run_faulty(seq, &discipline, &e.scheduler, &faults[s]);
                run.expect("a consistent fault schedule");
                runs.push(ws.result());
            }
            row.push(runs);
        }
        let outcomes = lineup.iter().zip(&row);
        let outcomes = outcomes.map(|(p, runs)| reduce(p.name(), runs, e.tau));
        let name = e.name.clone();
        let outcomes = outcomes.collect();
        wants.results.push(ExperimentResult { name, outcomes });
        wants.cells.push(row);
        wants.schedules.push(faults);
    }
    wants
}

/// Rows of results against the oracle's: each outcome's AVEbsld bits
/// first, then the whole outcome — statistics and resilience means.
fn same_results(path: &str, got: &[ExperimentResult], want: &[ExperimentResult]) -> Checked {
    let shape = |r: &ExperimentResult| (r.name.clone(), r.outcomes.len());
    let shapes = |rows: &[ExperimentResult]| rows.iter().map(shape).collect::<Vec<_>>();
    same(&format!("{path}: rows"), &shapes(got), &shapes(want))?;
    for (g, w) in got.iter().zip(want) {
        for (p, (go, wo)) in g.outcomes.iter().zip(&w.outcomes).enumerate() {
            let at = format!("{path}: `{}`, policy {p} ({})", w.name, wo.policy);
            same(&format!("{at} AVEbsld"), &go.ave_bslds, &wo.ave_bslds)?;
            same(&at, go, wo)?;
        }
    }
    Ok(())
}

/// Built rows against the rows built one by one: name, scheduler, τ and
/// fault profile, then every sequence.
fn same_rows(path: &str, got: &[Experiment], want: &[Experiment]) -> Checked {
    let head = |e: &Experiment| format!("{} {:?} {:?} {:?}", e.name, e.scheduler, e.tau, e.fault);
    let heads = |rows: &[Experiment]| rows.iter().map(head).collect::<Vec<_>>();
    same(path, &heads(got), &heads(want))?;
    for (g, w) in got.iter().zip(want) {
        let path = format!("{path}: `{}`'s sequences", g.name);
        same(&path, &(g.sequences == w.sequences), &true)?;
    }
    Ok(())
}

/// Every cell of a grid through one `EvalSession` — a fault-free row by
/// `push_grid`, a faulty one by `push_grid_with_faults` with the oracle's
/// schedules — and after each row one more cell by `push`: its first
/// sequence under a rotating policy and τ = 7. Every cell's metrics
/// against its oracle schedule reduced under the cell's τ.
fn check_session(d: &Drawn, wants: &Wants, width: &str, cov: &mut Coverage) -> Checked {
    let lineup = &d.lineup;
    let at = |what: String| format!("session: {what} [{width}]");
    let mut session = EvalSession::new();
    let mut want = Vec::new();
    for (r, e) in d.rows.iter().enumerate() {
        let (seqs, config, tau) = (&e.sequences, &e.scheduler, e.tau);
        let faults = wants.schedules[r].as_ref();
        let range = match faults {
            None => session.push_grid(lineup, seqs, config, tau),
            Some(faults) => session.push_grid_with_faults(lineup, seqs, config, tau, faults),
        };
        let cells = want.len()..want.len() + lineup.len() * seqs.len();
        same(&at(format!("row {r}'s cells")), &range, &cells)?;
        for runs in &wants.cells[r] {
            want.extend(runs.iter().map(|run| SimMetrics::from_result(run, tau)));
        }
        let p = r % lineup.len();
        let cell = EvalCell {
            trace: &seqs[0],
            policy: lineup[p].as_ref(),
            config,
            tau: 7.0,
            faults: faults.map(|f| &f[0]),
        };
        let index = session.push(cell);
        same(&at(format!("row {r}'s pushed cell")), &index, &want.len())?;
        want.push(SimMetrics::from_result(&wants.cells[r][p][0], 7.0));
        *cov.entry("cells with τ ≠ 10").or_default() += 1;
    }
    let got = session.run().expect("no cell panics");
    same(&at("cells".into()), &got.len(), &want.len())?;
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        same(&at(format!("cell {i}")), g, w)?;
    }
    Ok(())
}

/// The Table-4 grid from a cold store, the same store again (warm) and a
/// store holding one workload (partly warm): the rows one by one, and the
/// build and hit counts that serial loop leaves. Then `table4_results_in`
/// over the warm store.
fn table4(d: &Drawn, width: &str) -> Result<Vec<ExperimentResult>, Failure> {
    let path = |what: &str| format!("table4_experiments_in, {what} [{width}]");
    let counts = |store: &TraceStore| (store.builds(), store.hits());
    let shares = |a: &Experiment, b: &Experiment| {
        let mut pairs = a.sequences.iter().zip(&b.sequences);
        pairs.all(|(a, b)| a.shares_storage(b))
    };
    let store = TraceStore::new();
    let cold = table4_experiments_in(&store, &d.scale);
    same_rows(&path("cold store"), &cold, &d.rows)?;
    same(&path("cold store: builds, hits"), &counts(&store), &(6, 12))?;
    // A workload's three rows share its build: the model rows alternate
    // two platform sizes, the archive rows cycle through four platforms.
    let first = |r: usize| if r < 6 { r % 2 } else { 6 + (r - 6) % 4 };
    let shared = (0..18).all(|r| shares(&cold[r], &cold[first(r)]));
    same(&path("cold store: one build a workload"), &shared, &true)?;
    let warm = table4_experiments_in(&store, &d.scale);
    same_rows(&path("warm store"), &warm, &d.rows)?;
    same(&path("warm store: builds, hits"), &counts(&store), &(6, 30))?;
    let served = warm.iter().zip(&cold).all(|(w, c)| shares(w, c));
    same(&path("warm store: all served from it"), &served, &true)?;
    let partly = TraceStore::new();
    let (blue, estimates) = (ArchivePlatform::SDSC_BLUE, Condition::UserEstimates);
    let interned = archive_scenario_in(&partly, &blue, estimates, &d.scale);
    let got = table4_experiments_in(&partly, &d.scale);
    same_rows(&path("partly warm store"), &got, &d.rows)?;
    // Five further builds; its three rows and two per other workload hit.
    let tally = counts(&partly);
    same(&path("partly warm store: builds, hits"), &tally, &(6, 13))?;
    // Row 9 is SDSC Blue under actual runtimes: the entry interned first.
    let kept = shares(&got[8], &interned);
    same(&path("partly warm store: row 9 kept"), &kept, &true)?;
    Ok(table4_results_in(&store, &d.scale, &d.lineup))
}

/// The grid's batched entry point at the current width, with the store
/// checks that go with it; returns its rows' results.
fn entry(d: &Drawn, width: &str) -> Result<Vec<ExperimentResult>, Failure> {
    let lineup = &d.lineup;
    match d.grid {
        Grid::Table4 => table4(d, width),
        Grid::Model | Grid::Hand => Ok(run_experiments(&d.rows, lineup)),
        Grid::Sweep(condition) => {
            let scheduler = condition.scheduler(Platform::new(32));
            let points = sweep_load("sweep", &d.sequences, scheduler, lineup, &TARGETS);
            let loads: Vec<f64> = points.iter().map(|p| p.offered_load).collect();
            let path = format!("sweep_load [{width}]: loads");
            same(&path, &loads[..], &TARGETS)?;
            Ok(points.into_iter().map(|p| p.result).collect())
        }
        Grid::Registry { faulty } => {
            let (store, fault) = (TraceStore::new(), fault(faulty));
            let got =
                scenario_results(&store, &FAMILIES, &PARAMS, &d.scale, fault.as_ref(), lineup);
            // Per family, one base trace and one sequence set serve all
            // three conditions.
            let builds = store.builds();
            same(&format!("scenario_results: builds [{width}]"), &builds, &4)?;
            Ok(got.expect("built-in families"))
        }
    }
}

/// Every evaluation entry point of one grid, at both widths, against the
/// oracle: the session cell by cell, the grid's batched entry point and
/// `try_run_experiments` row by row; then what the grid reached.
fn check_grid(d: &Drawn) -> Result<Coverage, Failure> {
    let mut cov = Coverage::new();
    let wants = per_cell(&d.rows, &d.lineup);
    let outcomes = wants.results.iter().flat_map(|r| &r.outcomes);
    let mut samples = outcomes.flat_map(|o| &o.ave_bslds);
    let low = samples.find(|x| !(**x >= 1.0 && x.is_finite()));
    same("oracle: an AVEbsld below 1", &low, &None)?;
    // A lone job never waits: under every policy its slowdown is exactly 1.
    let lone = |r: &&ExperimentResult| r.name.starts_with("a single job");
    for r in wants.results.iter().filter(lone) {
        let stats: Vec<(f64, f64)> = r.outcomes.iter().map(|o| (o.median, o.std_dev)).collect();
        let path = "oracle: a single job's median, std";
        same(path, &stats, &vec![(1.0, 0.0); stats.len()])?;
    }
    for (width, workers) in WIDTHS {
        with_worker_limit(workers, || {
            check_session(d, &wants, width, &mut cov)?;
            let got = entry(d, width)?;
            same_results(&format!("{:?} [{width}]", d.grid), &got, &wants.results)?;
            let row = |e: &Experiment| {
                let rows = try_run_experiments(std::slice::from_ref(e), &d.lineup);
                rows.expect("no cell panics").remove(0)
            };
            let per_row: Vec<ExperimentResult> = d.rows.iter().map(row).collect();
            let path = format!("try_run_experiments per row [{width}]");
            same_results(&path, &per_row, &wants.results)
        })?;
    }
    reached_by_grid(d, &wants, &mut cov);
    Ok(cov)
}

/// What one grid reached: its stores and rows, and from the oracle's cells
/// the engine's compiled, interpreted and time-dependent paths, backfills,
/// preemptions, abandonments, the hand-built edges and the impostor.
fn reached_by_grid(d: &Drawn, wants: &Wants, cov: &mut Coverage) {
    let mut count = |row: &'static str, n: usize| *cov.entry(row).or_default() += n as u64;
    let table4 = usize::from(d.grid == Grid::Table4);
    count("Table-4 grids from a cold store", table4);
    count("Table-4 grids from a warm store", table4);
    count("Table-4 grids from a partly warm store", table4);
    for (e, row) in d.rows.iter().zip(&wants.cells) {
        let platform = e.scheduler.platform;
        for c in Condition::ALL {
            count(c.label(), usize::from(c.scheduler(platform) == e.scheduler));
        }
        let registry = matches!(d.grid, Grid::Registry { .. });
        count("registry rows", usize::from(registry));
        let faulty = d.grid == Grid::Registry { faulty: true };
        count("registry rows under a fault profile", usize::from(faulty));
        for (policy, runs) in d.lineup.iter().zip(row) {
            let (n, compiled) = (runs.len(), policy.compile().is_some());
            count("compiled cells", if compiled { n } else { 0 });
            count("interpreted cells", if compiled { 0 } else { n });
            let aging = policy.time_dependent();
            count("time-dependent cells", if aging { n } else { 0 });
            for r in runs {
                let (backfilled, preempted) = (r.backfilled_jobs > 0, r.preempted_jobs > 0);
                count("cells that backfilled a job", usize::from(backfilled));
                count("faulty cells with a preemption", usize::from(preempted));
                let abandoned = !r.abandoned.is_empty();
                count("faulty cells with an abandoned job", usize::from(abandoned));
            }
        }
        let (fcfs, impostor) = (&row[0], &row[d.lineup.len() - 1]);
        let ave = |r: &SimulationResult| r.avg_bounded_slowdown(e.tau);
        let differ = fcfs.iter().zip(impostor).filter(|(f, i)| ave(f) != ave(i));
        let differ = differ.count();
        count("impostor cells whose AVEbsld differs from FCFS's", differ);
        for seq in &e.sequences {
            count("single-job sequences", usize::from(seq.len() == 1));
            let tied = seq.submits().windows(2).filter(|w| w[0] == w[1]);
            count("tied submits", tied.count());
            let full = |c: &&u32| **c == platform.total_cores;
            let full = seq.core_counts().iter().filter(full);
            count("full-width jobs", full.count());
        }
    }
}

/// `convergence_curve` against the per-repetition loop it replaced, with
/// each repetition's scores from per-trial scratch runs ([`per_trial`]).
#[test]
fn the_convergence_curve_equals_per_trial_scratch_runs() {
    let mut rng = Rng::new(!SEED).fork(GRIDS.len() as u64);
    let (cores, tuple) = Shape::Small.tuple(&mut rng);
    let (counts, repetitions, q) = ([16, 40], 3, tuple.q_tasks.len());
    let base = TrialSpec {
        trials: 0,
        platform: Platform::new(cores),
        tau: DEFAULT_TAU,
    };
    let master = Rng::new(rng.next_u64());
    let mut raw = Vec::new();
    for (ci, &count) in counts.iter().enumerate() {
        let stream = |rep: usize| master.fork((ci * 1_000 + rep) as u64).seed();
        let scores = |rep| per_trial(&tuple, count, stream(rep), cores).scores.scores;
        let reps: Vec<Vec<f64>> = (0..repetitions).map(scores).collect();
        let task = |k: usize| reps.iter().map(|r| r[k]).collect::<Vec<f64>>();
        let std = |k| std_dev_population(&task(k)).expect("two repetitions or more");
        raw.push((count, (0..q).map(std).sum::<f64>() / q as f64));
    }
    let max = raw.iter().map(|r| r.1).fold(f64::MIN_POSITIVE, f64::max);
    let point = |(trials, score_std): (usize, f64)| ConvergencePoint {
        trials,
        score_std,
        normalized_std: score_std / max,
    };
    let want: Vec<ConvergencePoint> = raw.into_iter().map(point).collect();
    for (width, workers) in WIDTHS {
        let curve = || convergence_curve(&tuple, &counts, repetitions, &base, &master);
        let got = with_worker_limit(workers, curve);
        if let Err(failure) = same(&format!("convergence_curve [{width}]"), &got, &want) {
            disagree(0, "the convergence curve", failure);
        }
    }
}

#[test]
fn every_evaluation_entry_point_equals_per_cell_runs() {
    // The grids are independent, so each is drawn and checked on a thread
    // of its own; every width inside is still the one `WIDTHS` names.
    let checked: Vec<_> = std::thread::scope(|s| {
        let spawn = |(index, grid)| s.spawn(move || check_grid(&draw(index, grid)));
        let threads: Vec<_> = GRIDS.into_iter().enumerate().map(spawn).collect();
        let join = |t: std::thread::ScopedJoinHandle<'_, _>| t.join().expect("a grid panicked");
        threads.into_iter().map(join).collect()
    });
    let mut cov = reached_by_reseeding();
    for (index, checked) in checked.into_iter().enumerate() {
        match checked {
            Ok(seen) => merge(&mut cov, seen),
            Err(failure) => disagree(index, &format!("{:?}", GRIDS[index]), failure),
        }
    }
    assert_covered(&cov);
}

/// The protocol of the root package's former `determinism` suite: two
/// one-day sequences of at least one job, at the default seed.
fn seed_stable_scale() -> ScenarioScale {
    let spec = SequenceSpec {
        count: 2,
        days: 1.0,
        min_jobs: 1,
    };
    ScenarioScale {
        spec,
        ..ScenarioScale::default()
    }
}

/// The 64-core model row under actual runtimes at `scale`, from a fresh
/// store.
fn model_row(scale: ScenarioScale) -> Experiment {
    model_scenario_in(&TraceStore::new(), 64, Condition::ActualRuntimes, &scale)
}

/// The seed reaches the workload: [`seed_stable_scale`] reseeded
/// (`seed ^ 0xFFFF`) cuts other sequences.
fn reached_by_reseeding() -> Coverage {
    let scale = seed_stable_scale();
    let reseeded = ScenarioScale {
        seed: scale.seed ^ 0xFFFF,
        ..scale
    };
    let differ = model_row(scale).sequences != model_row(reseeded).sequences;
    Coverage::from([(
        "protocols a reseed gives other sequences",
        u64::from(differ),
    )])
}

/// One seed, one result: the row rebuilt from a fresh store at each width
/// is the same row, and `run_experiment` over it under the paper's line-up
/// is the per-cell oracle's (seed stability, from the root package's
/// former `determinism` suite).
#[test]
fn a_row_rebuilt_from_its_seed_is_the_same_at_either_width() {
    let (scale, lineup) = (seed_stable_scale(), paper_lineup());
    let want = model_row(scale);
    let wants = per_cell(std::slice::from_ref(&want), &lineup);
    for (width, workers) in WIDTHS {
        let (row, got) = with_worker_limit(workers, || {
            let row = model_row(scale);
            let got = run_experiment(&row, &lineup);
            (row, got)
        });
        let rows = same_rows(
            &format!("model_scenario_in [{width}]"),
            &[row],
            std::slice::from_ref(&want),
        );
        let path = format!("run_experiment [{width}]");
        let results = rows.and_then(|()| same_results(&path, &[got], &wants.results));
        if let Err(failure) = results {
            disagree(0, "the seed-stable model row", failure);
        }
    }
}

/// `calibrated_to_load` asserts a target of at most 1.5, so the two model
/// workloads panic in phase 1 while the four platforms calibrate. Nothing
/// is interned in phase 1 and the panic is not under the store lock: the
/// store is left empty, unpoisoned and usable, at either width.
#[test]
fn a_panicking_calibration_leaves_the_store_as_it_found_it() {
    let broken = ScenarioScale {
        model_target_load: 2.0,
        ..test_scale(2, SEED)
    };
    let blue = ArchivePlatform::SDSC_BLUE;
    for (width, workers) in WIDTHS {
        let store = TraceStore::new();
        let grid = || with_worker_limit(workers, || table4_experiments_in(&store, &broken));
        let outcome = catch_unwind(AssertUnwindSafe(grid));
        assert!(outcome.is_err(), "a load of 2.0 is out of range [{width}]");
        assert!(store.is_empty(), "[{width}]");
        assert_eq!((store.builds(), store.hits()), (0, 0), "[{width}]");
        archive_scenario_in(&store, &blue, Condition::UserEstimates, &broken);
        assert_eq!((store.builds(), store.hits()), (1, 0), "[{width}]");
    }
}

/// A panicking policy is a `PoolError` naming one of its own cells, after a
/// clean join, at either width; `try_run_experiments` — how the
/// checkpointed run evaluates a row — returns it instead of unwinding.
#[test]
fn a_panicking_policy_is_a_pool_error_naming_its_cell() {
    struct Grenade;
    impl Policy for Grenade {
        fn name(&self) -> &str {
            "grenade"
        }
        fn score(&self, t: &TaskView) -> f64 {
            assert!(t.wait() < 0.0, "policy blew up");
            t.processing_time
        }
    }
    let [_, (_, tied), (_, wide)] = hand_sequences();
    let sequences = vec![tied.to_view(), wide.to_view()];
    let policies: Vec<Box<dyn Policy>> = vec![Box::new(Fcfs), Box::new(Grenade)];
    let config = SchedulerConfig::actual_runtimes(Platform::new(8));
    let row = Experiment::from_views("grenade", sequences.clone(), config);
    for (width, workers) in WIDTHS {
        let session = with_worker_limit(workers, || {
            let mut session = EvalSession::new();
            session.push_grid(&policies, &sequences, &config, DEFAULT_TAU);
            session.run().expect_err("the grenade's cells panic")
        });
        // Policy-major: the grenade's cells are 2 and 3.
        let slot = session.slot;
        assert!((2..4).contains(&slot), "slot {slot} [{width}]");
        let rows = std::slice::from_ref(&row);
        let per_row = with_worker_limit(workers, || try_run_experiments(rows, &policies));
        for err in [session, per_row.expect_err("the grenade's cells panic")] {
            let message = err.message;
            assert!(message.contains("policy blew up"), "{message} [{width}]");
        }
    }
}

/// An empty session runs to an empty table, and an empty fault profile
/// attaches nothing, so its row runs the zero-fault path.
#[test]
fn empty_sessions_and_fault_profiles_are_nothing() {
    for (width, workers) in WIDTHS {
        let session = EvalSession::new();
        let table = with_worker_limit(workers, || session.run()).expect("no cell to panic");
        assert!(session.is_empty() && table.is_empty(), "[{width}]");
    }
    let [(_, single), ..] = hand_sequences();
    let config = SchedulerConfig::actual_runtimes(Platform::new(8));
    let row = Experiment::new("clean", vec![single], config);
    assert!(row.with_fault_profile(FaultProfile::none()).fault.is_none());
}

// ---- The learning golden ----

/// The paper's loop at test scale: three tuples (|S| = 4, |Q| = 8) of 192
/// trials on 64 cores, 25 LM iterations, G1..G3, and a Table-4 grid of two
/// one-day sequences a row.
fn golden_config() -> FullRunConfig {
    let enumerate = EnumerateOptions {
        max_iterations: 25,
        ..Default::default()
    };
    let training = TrainingConfig {
        tuple_spec: TupleSpec {
            s_size: 4,
            q_size: 8,
            max_start_offset: 50_000.0,
        },
        trial_spec: TrialSpec {
            trials: 192,
            platform: Platform::new(64),
            tau: 10.0,
        },
        tuples: 3,
        seed: 42,
    };
    let eval_scale = test_scale(2, ScenarioScale::default().seed);
    FullRunConfig {
        training,
        enumerate,
        top_k: 3,
        eval_scale,
    }
}

/// One `run_full` at each width, and what the loop promises read from the
/// two: every stage equal across them — training set, tuples, all 576 fits,
/// line-up, policies, every evaluation cell; the training set a function
/// of the config; the fits the sequential reference enumeration's; and the
/// report in the shape the paper prints.
#[test]
fn run_full_is_one_report_at_either_width() {
    let (config, model) = (golden_config(), LublinModel::new(64));
    let [narrow, wide] = WIDTHS.map(|(_, w)| with_worker_limit(w, || run_full(&config, &model)));
    if let Err(failure) = same("run_full [1 worker] against [3 workers]", &narrow, &wide) {
        disagree(0, "the learning golden", failure);
    }
    let learned = &wide.learned;
    let (_, training_set) = generate_training_set(&config.training, &model);
    assert_eq!(training_set, learned.training_set);
    // The fits are the sequential reference enumeration's.
    assert_eq!(
        learned.fits,
        fit_all_reference(&training_set, &config.enumerate)
    );
    assert_eq!(wide.lineup, ["FCFS", "WFP", "UNI", "SPT", "G1", "G2", "G3"]);
    // All 576, best first under the total ranking order; G1..G3 the top three.
    assert_eq!(learned.fits.len(), 576);
    let finite = |x: f64| if x.is_finite() { x } else { f64::INFINITY };
    let rank = |f: &FitResult| (finite(f.fitness), f.family_index);
    assert!(learned.fits.windows(2).all(|w| rank(&w[0]) <= rank(&w[1])));
    assert_eq!(learned.policies.len(), 3);
    for (policy, fit) in learned.policies.iter().zip(&learned.fits) {
        assert_eq!(policy.function(), &fit.function);
    }
    // All 18 rows, every line-up column, two finite AVEbsld of at least 1 each.
    assert_eq!(wide.evaluation.len(), 18);
    for row in &wide.evaluation {
        let names: Vec<&str> = row.outcomes.iter().map(|o| o.policy.as_str()).collect();
        assert_eq!(names, wide.lineup, "{}", row.name);
        let at_least_1 = |&x: &f64| x >= 1.0 && x.is_finite();
        let ok = |o: &PolicyOutcome| o.ave_bslds.len() == 2 && o.ave_bslds.iter().all(at_least_1);
        assert!(row.outcomes.iter().all(ok), "{}", row.name);
    }
    let md = full_run_markdown(&wide);
    for section in ["## Learned policies", "| G1 |", "## Evaluation"] {
        assert!(md.contains(section), "{section}");
    }
    assert!(md.lines().filter(|l| l.starts_with("| ")).count() >= 18 + 3);
}
