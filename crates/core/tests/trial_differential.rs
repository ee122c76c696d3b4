//! The trial kernel's oracle convention, pinned in one place. The paper
//! loop's whole training signal is the permutation-trial score
//! distribution (Eq. 3), and `trial_scores_batched` computes it by forking
//! every trial of a tuple from one checkpoint at the tuple's divergence
//! horizon. This file checks that kernel by differential testing: one
//! generator ([`Shape`] tuples from the in-source [`SEED`], each cell
//! batched twice — once over the tuple, once over a content-equal copy
//! with its own stream — and one batched call per platform), one checker
//! ([`check`]: the kernel at one worker and at the pool's width against
//! per-trial `run_trial`, which simulates every trial from time zero —
//! every trial's AVEbsld bits first, then the first counts, then the
//! scores) and one coverage table ([`assert_covered`]) that fails when
//! the domain stops reaching what it exists to reach.
//!
//! # Reading a failure
//!
//! A disagreement panics with the seed, the case index, its shape and
//! platform, the path that disagreed (`<what> [1 worker | n workers]`),
//! what the kernel got and what the oracle wanted, the trial's
//! permutation where there is one, and the tuple as `Job::new(..)` lines
//! (warm-up set first) that paste into a named test as they are. The
//! generator is a pure function of [`SEED`], so
//! `cargo test -p dynsched-core --test trial_differential` reproduces it
//! without edits.

use dynsched_cluster::{Job, Platform, DEFAULT_TAU};
use dynsched_core::trials::{
    divergence_horizon, run_trial, trial_outcomes_batched, trial_scores_batched, TrialBatch,
    TrialScores, TrialSpec,
};
use dynsched_core::tuples::{TaskTuple, TupleSpec};
use dynsched_scheduler::{simulate, QueueDiscipline, SchedulerConfig};
use dynsched_simkit::parallel::with_worker_limit;
use dynsched_simkit::Rng;
use dynsched_workload::{LublinModel, Trace};
use std::collections::BTreeMap;

/// The master seed: every tuple and every permutation stream below
/// derives from it.
const SEED: u64 = 0x7_21A1_D1FF;

// ---- The generator ----

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
                (
                    cores,
                    TaskTuple::generate(&TupleSpec::default(), &model, rng),
                )
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

// ---- The checker ----

/// A path that disagreed with the oracle.
#[derive(Debug)]
struct Failure {
    case: usize,
    path: String,
    detail: String,
}

/// What the checked cases reached, row by row, for the coverage table.
type Coverage = BTreeMap<&'static str, u64>;

/// What the oracle wants of one batch: every trial's permutation and
/// AVEbsld, each simulated from time zero by `run_trial`, and the scores
/// accumulated from them sequentially in trial order.
struct Want {
    perms: Vec<Vec<usize>>,
    outcomes: Vec<(usize, f64)>,
    scores: TrialScores,
}

fn oracle(tuple: &TaskTuple, trials: usize, master: u64, cores: u32) -> Want {
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

/// Bit patterns, so `-0.0` and `0.0` differ and nothing compares equal by
/// rounding.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The batched kernel over every case of one platform — each case's tuple
/// batch, then each case's copy batch — at one worker and at the pool's
/// width, against the oracle; then what the cases reached.
fn check(cases: &[&Case]) -> Result<Coverage, Failure> {
    let cores = cases[0].cores;
    debug_assert!(cases.iter().all(|c| c.cores == cores));
    let batches: Vec<(usize, TrialBatch<'_>)> = (0..2)
        .flat_map(|k| {
            cases.iter().map(move |c| {
                let tuple = [&c.tuple, &c.copy][k];
                let master = Rng::new(c.masters[k]);
                (
                    k,
                    TrialBatch {
                        tuple,
                        trials: TRIALS[k],
                        master,
                    },
                )
            })
        })
        .collect();
    let wants: Vec<Want> = (batches.iter())
        .zip(cases.iter().cycle())
        .map(|((k, b), c)| oracle(b.tuple, b.trials, c.masters[*k], cores))
        .collect();
    let cells: Vec<TrialBatch<'_>> = batches.into_iter().map(|(_, b)| b).collect();
    let platform = Platform::new(cores);
    let run = || {
        let outcomes = trial_outcomes_batched(&cells, platform, DEFAULT_TAU);
        (
            outcomes,
            trial_scores_batched(&cells, platform, DEFAULT_TAU),
        )
    };
    for (width, (outcomes, scores)) in [
        ("n workers", run()),
        ("1 worker", with_worker_limit(1, run)),
    ] {
        let mut rest = outcomes.as_slice();
        for (b, ((want, got), case)) in wants
            .iter()
            .zip(&scores)
            .zip(cases.iter().cycle())
            .enumerate()
        {
            let fail = |what: &str, detail: String| Failure {
                case: case.index,
                path: format!("batch {b}: {what} [{width}]"),
                detail,
            };
            let (mine, tail) = rest.split_at(want.outcomes.len());
            rest = tail;
            for (i, (g, w)) in mine.iter().zip(&want.outcomes).enumerate() {
                if (g.0, g.1.to_bits()) != (w.0, w.1.to_bits()) {
                    let detail = format!(
                        "got  first {} AVEbsld {:?}\nwant first {} AVEbsld {:?}\npermutation {:?}",
                        g.0, g.1, w.0, w.1, want.perms[i]
                    );
                    return Err(fail(&format!("trial {i} AVEbsld"), detail));
                }
            }
            let pairs = [
                (
                    "trials",
                    vec![got.trials as u64],
                    vec![want.scores.trials as u64],
                ),
                (
                    "first_counts",
                    got.first_counts.clone(),
                    want.scores.first_counts.clone(),
                ),
                ("scores", bits(&got.scores), bits(&want.scores.scores)),
            ];
            for (what, g, w) in pairs {
                if g != w {
                    let detail = format!("got  {g:?}\nwant {w:?}");
                    return Err(fail(what, detail));
                }
            }
        }
    }
    let mut cov = Coverage::new();
    for (case, want) in cases.iter().zip(&wants) {
        reached(case, &mut cov);
        let differ = want.outcomes.iter().any(|o| o.1 != want.outcomes[0].1);
        *cov.entry("tuples whose trials score differently")
            .or_default() += u64::from(differ);
    }
    Ok(cov)
}

/// What one case reaches: its horizon's kind, and from the identity
/// schedule (every trial's own up to the horizon) what the fork restores.
fn reached(case: &Case, cov: &mut Coverage) {
    let tuple = &case.tuple;
    let mut count = |row: &'static str, n: usize| *cov.entry(row).or_default() += n as u64;
    let horizon = divergence_horizon(tuple, Platform::new(case.cores));
    let kind = if horizon == 0.0 {
        "horizon 0"
    } else if horizon.is_finite() {
        "finite horizon"
    } else {
        "horizon ∞"
    };
    count(kind, 1);
    let jobs = tuple.all_jobs();
    let identity: Vec<usize> = (0..jobs.len()).collect();
    let config = SchedulerConfig::actual_runtimes(Platform::new(case.cores));
    let run = simulate(
        &Trace::from_jobs(jobs.clone()),
        &QueueDiscipline::FixedOrder(&identity),
        &config,
    );
    let probe = |id: u32| tuple.is_q_task(id);
    let done = run
        .completed
        .iter()
        .filter(|c| probe(c.job.id) && c.finish < horizon);
    count("Q jobs completed before the horizon", done.count());
    let queued = run
        .completed
        .iter()
        .any(|c| c.job.submit < horizon && c.start >= horizon);
    let running = run
        .completed
        .iter()
        .any(|c| c.start < horizon && c.finish >= horizon);
    count(
        "forks with jobs queued and running",
        usize::from(queued && running),
    );
    let cores = case.cores;
    let s_width: u32 = tuple.s_tasks.iter().map(|j| j.cores).sum();
    count(
        "warm-up sets wider than the platform",
        usize::from(s_width > cores),
    );
    count(
        "probe sets larger than the platform",
        usize::from(tuple.q_tasks.len() > cores as usize),
    );
    count(
        "zero-runtime jobs",
        jobs.iter().filter(|j| j.runtime == 0.0).count(),
    );
    count(
        "full-width jobs",
        jobs.iter().filter(|j| j.cores == cores).count(),
    );
    let tied = tuple
        .q_tasks
        .windows(2)
        .filter(|w| w[0].submit == w[1].submit);
    count("tied probe submits", tied.count());
    let s_start = tuple.s_tasks.first().map(|j| j.submit);
    let at_start = tuple.q_tasks.iter().filter(|j| Some(j.submit) == s_start);
    count("probes submitted with the warm-up set", at_start.count());
}

// ---- Failure report and coverage table ----

fn report(case: &Case, failure: &Failure) -> String {
    let mut jobs = String::new();
    for j in case.tuple.s_tasks.iter().chain(&case.tuple.q_tasks) {
        let (id, s, r, e, c) = (j.id, j.submit, j.runtime, j.estimate, j.cores);
        jobs += &format!("    Job::new({id}, {s:?}, {r:?}, {e:?}, {c}),\n");
    }
    format!(
        "oracle disagreement: seed {SEED:#x}, case {} — {:?} on {} cores, |S| = {}\n\
         path `{}`:\n{}\n{jobs}",
        failure.case,
        case.shape,
        case.cores,
        case.tuple.s_tasks.len(),
        failure.path,
        failure.detail,
    )
}

/// The one coverage table: every row the domain must reach to mean
/// anything, printed and asserted.
fn assert_covered(cov: &Coverage) {
    let want = [
        ("horizon 0", 1),
        ("finite horizon", 1),
        ("horizon ∞", 1),
        ("Q jobs completed before the horizon", 1),
        ("forks with jobs queued and running", 1),
        ("warm-up sets wider than the platform", 1),
        ("probe sets larger than the platform", 1),
        ("zero-runtime jobs", 1),
        ("full-width jobs", 1),
        ("tied probe submits", 1),
        ("probes submitted with the warm-up set", 1),
        ("tuples whose trials score differently", 1),
    ];
    let mut table = String::new();
    for (row, least) in want {
        let got = cov.get(row).copied().unwrap_or(0);
        let mark = if got >= least { "ok" } else { "--" };
        table += &format!("  [{mark}] {row}: {got} (want ≥ {least})\n");
    }
    println!("coverage:\n{table}");
    let all = want
        .iter()
        .all(|(row, least)| cov.get(row).is_some_and(|got| got >= least));
    assert!(all, "the domain stopped reaching a row:\n{table}");
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
            Ok(seen) => seen
                .into_iter()
                .for_each(|(row, n)| *cov.entry(row).or_default() += n),
            Err(failure) => panic!("{}", report(&cases[failure.case], &failure)),
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
    if let Err(failure) = check(&[&case]) {
        panic!("{}", report(&case, &failure));
    }
}
