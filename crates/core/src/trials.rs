//! Permutation trials and the trial score distribution (Eq. 3).
//!
//! For a tuple `(S, Q)` we simulate many *trials*. In each trial the
//! waiting-queue priority of the tasks of `Q` is a fresh random permutation
//! `p` (the warmup tasks of `S` keep a fixed order ahead of everything, as
//! they are "executed in any order at the beginning"); the trial records
//! `AVEbsld(p)`, the average bounded slowdown over the tasks of `Q`. The
//! score of task `t` is then
//!
//! ```text
//! score(t) = Σ_{p : p₀ = t} AVEbsld(p)  /  Σ_p AVEbsld(p)
//! ```
//!
//! — the share of slowdown mass carried by the trials where `t` ran first.
//! Scores below the mean `1/|Q|` mark tasks whose early execution helps.
//!
//! Trials are embarrassingly parallel; we fan them out with the
//! deterministic parallel driver, so the distribution is reproducible from
//! the master seed regardless of thread count. Each worker thread owns one
//! reusable `SimWorkspace` (cleared between trials, never reallocated), and
//! the tuple's trace is built once per call — the steady-state trial loop
//! performs no heap allocation.
//!
//! The fan-out runs in windows of 2¹⁶ trials, over a set-up (traces,
//! checkpoints, seeded sinks) built once per call. Each window's outcomes
//! come back in global index order and are folded into the per-batch sums
//! before the next window starts: the additions and their order are those
//! of one fold over every trial, so the scores' bits do not depend on the
//! window, and memory is bounded by the window, not by the trial budget
//! (the paper's 256 000 trials per tuple).
//!
//! # Checkpoint and fork
//!
//! Every trial of a tuple shares an identical prefix: the warmup tasks `S`
//! keep ranks `0..|S|` under **every** permutation, so no two trials can
//! differ before the first strict pass whose outcome depends on the
//! relative order of two `Q` tasks — the divergence horizon, which one
//! identity-ranks run locates ([`divergence_horizon`]), often deep in the
//! warmup drain with probes already queued. The batched kernel therefore
//! simulates that prefix once per distinct tuple — under identity ranks,
//! into a shared immutable [`Checkpoint`] — and every worker forks its
//! trials from the snapshot instead of re-simulating the warmup from time
//! zero. Forking is a copy-restore into the worker's warm workspace (no
//! allocation), and the forked schedule is bit-identical to the scratch
//! run.
//!
//! A fork keeps a number, not a schedule. Its completions stream into a
//! [`TrialMetrics`] — Σ bounded slowdown and a count over the ids of `Q` —
//! that [`Checkpoint::fold_prefix`] seeded once per tuple with the
//! prefix's completions, through
//! [`SimWorkspace::resume_metrics_from`](dynsched_scheduler::SimWorkspace::resume_metrics_from):
//! no completion list is built, replayed or re-filtered per trial, and the
//! float operations and their order are [`run_trial`]'s. The restored
//! queue is re-keyed under the trial's ranks by a scatter, not a sort: a
//! trial's ranks are a permutation of the trace positions, so each queued
//! job's rank indexes its own slot. The `differential` harness pins
//! every trial's AVEbsld bits, the first counts and the scores against
//! [`run_trial`] at 1 and n workers; the scheduler crate's `differential`
//! harness pins the resumes themselves.

use crate::tuples::TaskTuple;
use dynsched_cluster::{CompletedJob, JobId, Platform, DEFAULT_TAU};
use dynsched_mlreg::{Observation, TrainingSet};
use dynsched_scheduler::{
    Checkpoint, QueueDiscipline, SchedulerConfig, SimWorkspace, TrialMetrics,
};
use dynsched_simkit::parallel::run_scoped;
use dynsched_simkit::Rng;
use dynsched_workload::{Trace, TraceView};
use std::ops::Range;

/// Parameters of a trial run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialSpec {
    /// Number of random permutations to simulate (paper: 256 000).
    pub trials: usize,
    /// Simulated platform (paper: 256 cores).
    pub platform: Platform,
    /// Bounded-slowdown threshold τ.
    pub tau: f64,
}

impl Default for TrialSpec {
    fn default() -> Self {
        Self {
            trials: 4_096,
            platform: Platform::new(256),
            tau: DEFAULT_TAU,
        }
    }
}

impl TrialSpec {
    /// The paper's full-scale setting: 256k trials on 256 cores.
    pub fn paper() -> Self {
        Self {
            trials: 256_000,
            ..Self::default()
        }
    }
}

/// The per-task score distribution of one tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialScores {
    /// `scores[k]` is Eq. 3 for the `k`-th task of `Q`.
    pub scores: Vec<f64>,
    /// Trials simulated.
    pub trials: usize,
    /// How many trials had each task first (diagnostics; ≈ trials/|Q|).
    pub first_counts: Vec<u64>,
}

impl TrialScores {
    /// Scores always sum to 1 (each trial's AVEbsld lands in exactly one
    /// numerator).
    pub fn total(&self) -> f64 {
        self.scores.iter().sum()
    }
}

/// Reusable per-worker state for the batched trial kernel: one simulation
/// workspace plus the permutation and rank buffers. Everything is cleared
/// per trial; nothing carries information between trials (the determinism
/// contract of [`run_scoped`]).
#[derive(Default)]
struct TrialState {
    ws: SimWorkspace,
    perm: Vec<usize>,
    ranks: Vec<usize>,
}

/// Fill `ranks` (indexed by trace position: `S` first, then `Q`) for one
/// permutation: `S` keeps its fixed order ahead of everything, the `k`-th
/// task of `Q` gets rank `|S| + position of k in perm`. Tuples assign ids
/// `0..|S|+|Q|` in submit order, so trace position equals job id here.
fn fill_ranks(ranks: &mut Vec<usize>, s_size: usize, perm: &[usize]) {
    ranks.clear();
    ranks.resize(s_size + perm.len(), 0);
    for (i, r) in ranks.iter_mut().enumerate().take(s_size) {
        *r = i;
    }
    for (pos, &k) in perm.iter().enumerate() {
        ranks[s_size + k] = s_size + pos;
    }
}

/// The divergence horizon of a tuple's permutation trials, computed from
/// one identity-ranks run: the first event time at which a scheduling
/// decision *can* depend on the relative order of two `Q` tasks. The
/// trials run strict FCFS-by-rank with no backfilling, where a pass
/// starts jobs in priority order and stops at the first that does not
/// fit, so a pass is permutation-invariant unless it reaches the `Q`
/// region of the queue (no `S` task submitted and still unstarted — `S`
/// ranks ahead of every `Q` rank, so a waiting `S` stops the pass first)
/// with **two or more** `Q` tasks waiting and **not all** of them
/// starting (if every waiting `Q` task starts, any order starts the same
/// set at the same instant — a set that fits fits in every prefix order —
/// and a lone `Q` task compares only against invariantly-ranked `S`
/// tasks). A pass that starts every waiting `Q` task is flagged all the
/// same when two of them will finish at the same instant: same-instant
/// completions pop in start order, a pass starts in rank order, so the
/// permutation decides their completion order and with it the order of
/// the slowdown sum. The identity run is valid evidence for every
/// permutation precisely up to the first flagged time, which is why the
/// scan can use its start and finish times. `f64::INFINITY` (no flagged
/// time — e.g. `|Q| = 1`) means the whole schedule is
/// permutation-invariant and the checkpoint captures the completed run.
///
/// A warmup-free tuple (`|S| = 0`) has nothing worth amortizing and keeps
/// the degenerate horizon at time zero — the checkpoint of the pristine
/// initial state.
fn prefix_horizon(tuple: &TaskTuple, identity_run: &[CompletedJob]) -> f64 {
    let s_size = tuple.s_tasks.len();
    if s_size == 0 {
        return 0.0;
    }
    let n = identity_run.len();
    // Tuples assign ids 0..|S|+|Q| in submit order, so id == trace index.
    let mut submit = vec![0.0; n];
    let mut start = vec![0.0; n];
    let mut finish = vec![0.0; n];
    for c in identity_run {
        submit[c.job.id as usize] = c.job.submit;
        start[c.job.id as usize] = c.start;
        finish[c.job.id as usize] = c.finish;
    }
    // The waiting sets change only at event times; scanning every submit,
    // start, and finish covers all of them (extra candidates can only
    // flag early, which shrinks the prefix but never unsounds it).
    let mut times: Vec<f64> = identity_run
        .iter()
        .flat_map(|c| [c.job.submit, c.start, c.finish])
        .collect();
    times.sort_by(f64::total_cmp);
    times.dedup();
    for &t in &times {
        if (0..s_size).any(|i| submit[i] <= t && start[i] > t) {
            continue; // a waiting S task shields the Q region
        }
        let present = (s_size..n)
            .filter(|&i| submit[i] <= t && start[i] >= t)
            .count();
        let pending = (s_size..n).any(|i| submit[i] <= t && start[i] > t);
        let tied = (s_size..n)
            .any(|i| start[i] == t && (i + 1..n).any(|j| start[j] == t && finish[j] == finish[i]));
        if present >= 2 && (pending || tied) {
            return t;
        }
    }
    f64::INFINITY
}

/// Validate every batch and map each to a distinct-tuple slot, keyed by
/// tuple **content** (two content-equal tuples at different addresses
/// share a slot — and therefore a trace and a checkpoint).
fn dedup_tuples<'t>(batches: &[TrialBatch<'t>]) -> (Vec<&'t TaskTuple>, Vec<usize>) {
    let mut distinct: Vec<&TaskTuple> = Vec::new();
    let mut trace_of: Vec<usize> = Vec::with_capacity(batches.len());
    for (bi, b) in batches.iter().enumerate() {
        assert!(
            b.trials > 0,
            "batch {bi} requests zero trials; every batch must run at least one permutation"
        );
        assert!(
            !b.tuple.q_tasks.is_empty(),
            "batch {bi}: tuple has no probe tasks (Q is empty), so its score \
             distribution is undefined"
        );
        let ti = match distinct.iter().position(|t| **t == *b.tuple) {
            Some(i) => i,
            None => {
                distinct.push(b.tuple);
                distinct.len() - 1
            }
        };
        trace_of.push(ti);
    }
    (distinct, trace_of)
}

/// Simulate one trial: queue priority = S in fixed order, then `Q` in the
/// order given by `perm` (a permutation of `0..|Q|`). Returns `AVEbsld`
/// over the tasks of `Q`.
///
/// One-shot convenience (builds the trace and a workspace per call, and
/// simulates from time zero — no checkpointing); the batched path inside
/// [`trial_scores`] amortizes trace and workspace across trials and forks
/// them from a per-tuple checkpoint. This scratch path doubles as the
/// oracle the checkpointed kernel is tested against.
pub fn run_trial(tuple: &TaskTuple, perm: &[usize], spec: &TrialSpec) -> f64 {
    debug_assert_eq!(perm.len(), tuple.q_tasks.len());
    let trace = Trace::from_jobs(tuple.all_jobs());
    let config = SchedulerConfig::actual_runtimes(spec.platform);
    let mut ranks = Vec::new();
    fill_ranks(&mut ranks, tuple.s_tasks.len(), perm);
    let mut ws = SimWorkspace::new();
    ws.run(&trace, &QueueDiscipline::FixedOrder(&ranks), &config);
    ws.avg_bounded_slowdown_of(&|id| tuple.is_q_task(id), spec.tau)
        .expect("Q is non-empty")
}

/// Run `spec.trials` random-permutation trials of `tuple` in parallel and
/// build the trial score distribution.
///
/// This is the batched kernel: the trace is built once, and every worker
/// thread holds one [`SimWorkspace`] (plus permutation/rank buffers) that
/// is cleared — not reallocated — between the trials it executes, so the
/// steady state of the hot loop performs no heap allocation. Trial `i`'s
/// RNG stream is forked from `(master seed, i)`, so the distribution is
/// bit-identical for any worker count.
pub fn trial_scores(tuple: &TaskTuple, spec: &TrialSpec, master: &Rng) -> TrialScores {
    let batch = TrialBatch {
        tuple,
        trials: spec.trials,
        master: master.clone(),
    };
    trial_scores_batched(std::slice::from_ref(&batch), spec.platform, spec.tau)
        .pop()
        .expect("one batch in, one distribution out")
}

/// The divergence horizon the batched kernel checkpoints `tuple` at on
/// `platform`: the first event time at which a permutation of `Q` can
/// change a scheduling decision — 0 when `S` is empty, `f64::INFINITY`
/// when no time is flagged. Every trial forks from the engine state just
/// before it.
pub fn divergence_horizon(tuple: &TaskTuple, platform: Platform) -> f64 {
    let trace = Trace::from_jobs(tuple.all_jobs()).to_view();
    let config = SchedulerConfig::actual_runtimes(platform);
    tuple_checkpoint(
        tuple,
        &trace,
        &config,
        &mut SimWorkspace::new(),
        &mut Vec::new(),
    )
    .horizon()
}

/// The shared immutable snapshot every trial of `tuple` forks from: one
/// identity-ranks run locates the divergence horizon (the run itself is
/// permutation-invariant evidence up to that point), then the prefix is
/// simulated once up to it and captured. Resuming re-keys the restored
/// queue under each trial's own ranks, so the horizon may sit far past the
/// first `Q` arrival.
fn tuple_checkpoint(
    tuple: &TaskTuple,
    trace: &TraceView,
    config: &SchedulerConfig,
    ws: &mut SimWorkspace,
    identity: &mut Vec<usize>,
) -> Checkpoint {
    identity.clear();
    identity.extend(0..tuple.s_tasks.len() + tuple.q_tasks.len());
    let discipline = QueueDiscipline::FixedOrder(identity);
    ws.run(trace, &discipline, config);
    let horizon = prefix_horizon(tuple, ws.completed());
    let mut ckpt = Checkpoint::new();
    ws.run_prefix(trace, &discipline, config, horizon, &mut ckpt);
    ckpt
}

/// One cell of a batched trial run: `trials` random permutations of
/// `tuple`'s probe set, drawn from `master` (trial `i` forks stream `i`).
pub struct TrialBatch<'a> {
    /// The `(S, Q)` tuple to permute.
    pub tuple: &'a TaskTuple,
    /// Number of permutation trials for this cell.
    pub trials: usize,
    /// Master RNG of this cell's permutation streams.
    pub master: Rng,
}

/// Trials [`trial_scores_batched`] fans out at a time before folding them
/// into the per-batch sums: its outcome buffer is bounded by this, not by
/// the trial budget, and each window costs one pool barrier.
const TRIAL_WINDOW: usize = 1 << 16;

/// Run many trial batches — different tuples, different trial counts,
/// different streams — as **one** global trial index space, and build
/// each batch's score distribution.
///
/// This is how the whole training stage and the convergence study keep the
/// pool saturated: instead of one parallel region per tuple (or per
/// repetition), every trial of every batch is an index in the same
/// fan-out over [`run_scoped`], executed by workers that each own one
/// reusable [`SimWorkspace`]. Per distinct tuple — keyed by content, so
/// batches sharing a tuple (or content-equal copies of one) share
/// everything — the trace is built once and the permutation-invariant
/// warmup prefix is simulated once into a shared [`Checkpoint`] at the
/// tuple's divergence horizon ([`divergence_horizon`]: the first pass
/// whose outcome can depend on the relative order of two `Q` tasks);
/// every trial then *forks* from the snapshot instead of re-running the
/// warmup, and keeps one number of its schedule, not the schedule.
/// `platform` and `tau` are shared by every cell; each batch's `trials`
/// field supplies its own count (which is why this takes no [`TrialSpec`]
/// — its `trials` field would be a silently ignored parameter).
///
/// The index space runs in windows of 2¹⁶ trials: each window's outcomes
/// are folded into the per-batch sums before the next window starts, so
/// memory is O(window + batches · |Q|), not one outcome per trial.
///
/// # Panics
///
/// On a batch requesting zero trials or a tuple with an empty probe set
/// `Q` — both would make the batch's score distribution undefined, and are
/// rejected up front with the offending batch index.
///
/// Determinism: batch `b`'s distribution depends only on
/// `(b.tuple, b.trials, b.master.seed())` — trial `i` of a batch forks
/// stream `i` from that batch's master, and per-batch accumulation runs
/// sequentially in trial order across windows — so the output is
/// bit-identical to calling [`trial_scores`] per batch, at any thread
/// count.
pub fn trial_scores_batched(
    batches: &[TrialBatch<'_>],
    platform: Platform,
    tau: f64,
) -> Vec<TrialScores> {
    scores_in_windows(batches, platform, tau, TRIAL_WINDOW)
}

/// The fan-out behind [`trial_scores_batched`] as one window over every
/// trial: one `(k, AVEbsld)` per trial in global index order — batch `b`'s
/// trials follow batch `b - 1`'s, trial `i` of a batch forks stream `i` of
/// its master, and `k` is the task of `Q` its permutation ran first. Each
/// outcome is bit-identical to [`run_trial`] under the same permutation,
/// at any thread count. Every outcome is held at once, 16 bytes a trial:
/// [`trial_scores_batched`] never asks for more than one window of them.
///
/// # Panics
///
/// As [`trial_scores_batched`].
pub fn trial_outcomes_batched(
    batches: &[TrialBatch<'_>],
    platform: Platform,
    tau: f64,
) -> Vec<(usize, f64)> {
    let plan = TrialPlan::new(batches, platform, tau);
    plan.outcomes(0..plan.total())
}

/// [`trial_scores_batched`] with `window` trials per fan-out (at least
/// one). Per-trial outcomes come back in global index order and are
/// accumulated sequentially per batch, one window after another: float
/// addition is not associative, so a parallel tree reduction would make
/// the scores depend on the reduction's split points, while this fold
/// makes the same additions in the same order at any window.
fn scores_in_windows(
    batches: &[TrialBatch<'_>],
    platform: Platform,
    tau: f64,
    window: usize,
) -> Vec<TrialScores> {
    let plan = TrialPlan::new(batches, platform, tau);
    let total = plan.total();
    // Per batch: Σ AVEbsld and trial count by first task, and Σ AVEbsld.
    let mut folds: Vec<(Vec<f64>, Vec<u64>, f64)> = batches
        .iter()
        .map(|b| {
            let q = b.tuple.q_tasks.len();
            (vec![0.0; q], vec![0; q], 0.0)
        })
        .collect();
    let mut b = 0;
    for start in (0..total).step_by(window) {
        let end = start + window.min(total - start);
        for (g, (first, ave)) in (start..).zip(plan.outcomes(start..end)) {
            while g >= plan.offsets[b + 1] {
                b += 1;
            }
            let (sum_by_first, count_by_first, sum) = &mut folds[b];
            sum_by_first[first] += ave;
            count_by_first[first] += 1;
            *sum += ave;
        }
    }
    batches
        .iter()
        .zip(folds)
        .map(|(batch, (sum_by_first, count_by_first, sum))| {
            // Invariant, not input validation (zero-trial batches were
            // rejected up front): every trial contributes an AVEbsld >= 1.
            debug_assert!(sum >= batch.trials as f64, "AVEbsld is bounded below by 1");
            TrialScores {
                scores: sum_by_first.iter().map(|s| s / sum).collect(),
                trials: batch.trials,
                first_counts: count_by_first,
            }
        })
        .collect()
}

/// What every trial of a batched call shares, built once per call and
/// read by every window: the batches' distinct traces, the checkpoints
/// and seeded sinks the trials fork from, and the global index layout.
struct TrialPlan<'b, 't> {
    batches: &'b [TrialBatch<'t>],
    config: SchedulerConfig,
    /// Batch `b`'s distinct-tuple slot in `traces`, `checkpoints`, `seeds`.
    trace_of: Vec<usize>,
    traces: Vec<TraceView>,
    checkpoints: Vec<Checkpoint>,
    seeds: Vec<TrialMetrics>,
    /// Batch `b` owns global indices `offsets[b]..offsets[b + 1]`.
    offsets: Vec<usize>,
}

impl<'b, 't> TrialPlan<'b, 't> {
    fn new(batches: &'b [TrialBatch<'t>], platform: Platform, tau: f64) -> Self {
        let config = SchedulerConfig::actual_runtimes(platform);
        // One *columnar* trace per distinct tuple; batches over the same
        // tuple (the convergence study's repetitions) share its storage,
        // and every trial of every worker reads the same dense column lanes.
        let (distinct, trace_of) = dedup_tuples(batches);
        let traces: Vec<TraceView> = distinct
            .iter()
            .map(|t| Trace::from_jobs(t.all_jobs()).to_view())
            .collect();
        // The snapshots the workers fork from, two runs per distinct
        // tuple, amortized over the tuple's whole trial budget.
        let mut identity: Vec<usize> = Vec::new();
        let mut prefix_ws = SimWorkspace::new();
        let checkpoints: Vec<Checkpoint> = distinct
            .iter()
            .zip(&traces)
            .map(|(tuple, trace)| {
                tuple_checkpoint(tuple, trace, &config, &mut prefix_ws, &mut identity)
            })
            .collect();
        // What a fork keeps: the probe set's slowdown sum and count, seeded
        // once per tuple with the prefix's completions, so no fork replays,
        // lists or re-filters them.
        let seeds: Vec<TrialMetrics> = distinct
            .iter()
            .zip(&checkpoints)
            .map(|(tuple, ckpt)| {
                let probes = TrialMetrics::new(tuple.s_tasks.len() as JobId, tau);
                ckpt.fold_prefix(probes)
            })
            .collect();
        let mut offsets: Vec<usize> = Vec::with_capacity(batches.len() + 1);
        let mut total = 0usize;
        offsets.push(0);
        for b in batches {
            total += b.trials;
            offsets.push(total);
        }
        Self {
            batches,
            config,
            trace_of,
            traces,
            checkpoints,
            seeds,
            offsets,
        }
    }

    /// Trials over every batch.
    fn total(&self) -> usize {
        self.offsets[self.batches.len()]
    }

    /// The `(k, AVEbsld)` outcome of every global trial index in `window`,
    /// in index order, from one fan-out.
    fn outcomes(&self, window: Range<usize>) -> Vec<(usize, f64)> {
        run_scoped(window.len(), TrialState::default, |i, st| {
            self.outcome(window.start + i, st)
        })
    }

    /// Global trial `g`: trial `g - offsets[b]` of the batch `b` that owns it.
    fn outcome(&self, g: usize, st: &mut TrialState) -> (usize, f64) {
        let b = self.offsets.partition_point(|&o| o <= g) - 1;
        let batch = &self.batches[b];
        let tuple = batch.tuple;
        let mut rng = batch.master.fork((g - self.offsets[b]) as u64);
        let q = tuple.q_tasks.len();
        // Same RNG draws as `rng.permutation(q)`, into a kept buffer.
        st.perm.clear();
        st.perm.extend(0..q);
        rng.shuffle(&mut st.perm);
        fill_ranks(&mut st.ranks, tuple.s_tasks.len(), &st.perm);
        let t = self.trace_of[b];
        let trial = st.ws.resume_metrics_from(
            &self.checkpoints[t],
            &self.traces[t],
            &QueueDiscipline::FixedOrder(&st.ranks),
            &self.config,
            self.seeds[t],
        );
        let ave = trial.avg_bounded_slowdown().expect("Q is non-empty");
        (st.perm[0], ave)
    }
}

/// Convert one tuple's scores into training observations
/// (`(r, n, s, score)` per task of `Q`).
pub fn to_observations(tuple: &TaskTuple, scores: &TrialScores) -> TrainingSet {
    observations_of(tuple, &scores.scores)
}

/// [`to_observations`] over the bare Eq. 3 scores, `scores[k]` for the
/// `k`-th task of `Q`: all of a trial batch a training checkpoint keeps.
pub(crate) fn observations_of(tuple: &TaskTuple, scores: &[f64]) -> TrainingSet {
    let obs = tuple
        .q_tasks
        .iter()
        .zip(scores)
        .map(|(job, &score)| Observation {
            runtime: job.runtime,
            cores: job.cores as f64,
            submit: job.submit,
            score,
        })
        .collect();
    TrainingSet::new(obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuples::TupleSpec;
    use dynsched_simkit::parallel::with_worker_limit;
    use dynsched_workload::LublinModel;

    fn small_tuple(seed: u64) -> TaskTuple {
        let spec = TupleSpec {
            s_size: 4,
            q_size: 8,
            max_start_offset: 50_000.0,
        };
        let model = LublinModel::new(64);
        TaskTuple::generate(&spec, &model, &mut Rng::new(seed))
    }

    fn small_spec(trials: usize) -> TrialSpec {
        TrialSpec {
            trials,
            platform: Platform::new(64),
            tau: DEFAULT_TAU,
        }
    }

    #[test]
    fn scores_sum_to_one() {
        let tuple = small_tuple(1);
        let scores = trial_scores(&tuple, &small_spec(512), &Rng::new(7));
        assert!(
            (scores.total() - 1.0).abs() < 1e-9,
            "total {}",
            scores.total()
        );
    }

    #[test]
    fn every_task_leads_some_trials() {
        let tuple = small_tuple(2);
        let scores = trial_scores(&tuple, &small_spec(512), &Rng::new(8));
        for (k, &c) in scores.first_counts.iter().enumerate() {
            assert!(c > 20, "task {k} led only {c} of 512 trials");
        }
        assert_eq!(scores.first_counts.iter().sum::<u64>(), 512);
    }

    #[test]
    fn scores_hover_around_one_over_q() {
        let tuple = small_tuple(3);
        let scores = trial_scores(&tuple, &small_spec(1_024), &Rng::new(9));
        let mean = scores.total() / scores.scores.len() as f64;
        assert!((mean - 1.0 / 8.0).abs() < 1e-9);
        for &s in &scores.scores {
            assert!(s > 0.0 && s < 0.5, "score {s} wildly off");
        }
    }

    #[test]
    fn dedup_keys_on_content_not_address() {
        let t1 = small_tuple(31);
        let copy = t1.clone(); // content-equal, different address
        let t2 = small_tuple(32);
        let batches = vec![
            TrialBatch {
                tuple: &t1,
                trials: 8,
                master: Rng::new(1),
            },
            TrialBatch {
                tuple: &copy,
                trials: 8,
                master: Rng::new(2),
            },
            TrialBatch {
                tuple: &t2,
                trials: 8,
                master: Rng::new(3),
            },
        ];
        let (distinct, trace_of) = dedup_tuples(&batches);
        assert_eq!(distinct.len(), 2, "content-equal copies must share a slot");
        assert_eq!(trace_of, vec![0, 0, 1]);
    }

    #[test]
    fn windows_fold_to_the_bits_of_one_window_at_any_width() {
        // Unequal trial counts, and a content-equal copy sharing a slot.
        let t1 = small_tuple(36);
        let copy = t1.clone();
        let t2 = small_tuple(37);
        let batches = vec![
            TrialBatch {
                tuple: &t1,
                trials: 7,
                master: Rng::new(4),
            },
            TrialBatch {
                tuple: &t2,
                trials: 11,
                master: Rng::new(5),
            },
            TrialBatch {
                tuple: &copy,
                trials: 5,
                master: Rng::new(6),
            },
        ];
        let platform = Platform::new(64);
        let total = 23;
        let bits = |scores: &[TrialScores]| -> Vec<(Vec<u64>, Vec<u64>)> {
            scores
                .iter()
                .map(|s| {
                    let bits = s.scores.iter().map(|x| x.to_bits()).collect();
                    (bits, s.first_counts.clone())
                })
                .collect()
        };
        let want = with_worker_limit(1, || {
            bits(&scores_in_windows(&batches, platform, DEFAULT_TAU, total))
        });
        for window in [1, 5, 6, 7, 11, total - 1, total, total + 1, usize::MAX] {
            for width in [1, 2, 4] {
                let got = with_worker_limit(width, || {
                    scores_in_windows(&batches, platform, DEFAULT_TAU, window)
                });
                assert_eq!(bits(&got), want, "window {window}, width {width}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero trials")]
    fn zero_trial_batches_are_rejected() {
        let tuple = small_tuple(34);
        let spec = small_spec(0);
        let batches = vec![TrialBatch {
            tuple: &tuple,
            trials: 0,
            master: Rng::new(1),
        }];
        trial_scores_batched(&batches, spec.platform, spec.tau);
    }

    #[test]
    #[should_panic(expected = "no probe tasks")]
    fn empty_q_tuples_are_rejected() {
        let mut tuple = small_tuple(35);
        tuple.q_tasks.clear();
        let spec = small_spec(0);
        let batches = vec![TrialBatch {
            tuple: &tuple,
            trials: 4,
            master: Rng::new(1),
        }];
        trial_scores_batched(&batches, spec.platform, spec.tau);
    }

    #[test]
    fn warmup_free_tuples_checkpoint_at_time_zero() {
        // |S| = 0: there is no permutation-invariant prefix, so the
        // horizon degenerates to time zero (the kernel's agreement with
        // the scratch oracle there is the `differential` harness's to check).
        let spec_gen = TupleSpec {
            s_size: 0,
            q_size: 6,
            max_start_offset: 50_000.0,
        };
        let model = LublinModel::new(64);
        let tuple = TaskTuple::generate(&spec_gen, &model, &mut Rng::new(41));
        assert!(tuple.s_tasks.is_empty());
        assert_eq!(prefix_horizon(&tuple, &[]), 0.0);
        assert_eq!(divergence_horizon(&tuple, Platform::new(64)), 0.0);
    }

    #[test]
    fn singleton_q_scores_are_exactly_one() {
        // |Q| = 1: every permutation is the identity, every trial's mass
        // lands in the single numerator, so the score is exactly 1.0.
        let spec_gen = TupleSpec {
            s_size: 4,
            q_size: 1,
            max_start_offset: 50_000.0,
        };
        let model = LublinModel::new(64);
        let tuple = TaskTuple::generate(&spec_gen, &model, &mut Rng::new(43));
        let scores = trial_scores(&tuple, &small_spec(32), &Rng::new(44));
        assert_eq!(scores.scores, vec![1.0]);
        assert_eq!(scores.first_counts, vec![32]);
    }

    #[test]
    fn trial_respects_permutation_order() {
        // Two trials with opposite permutations must in general differ in
        // AVEbsld (unless the tuple is degenerate, which seed 5 is not).
        let tuple = small_tuple(5);
        let spec = small_spec(1);
        let forward: Vec<usize> = (0..8).collect();
        let backward: Vec<usize> = (0..8).rev().collect();
        let a = run_trial(&tuple, &forward, &spec);
        let b = run_trial(&tuple, &backward, &spec);
        assert!(a >= 1.0 && b >= 1.0);
        assert_ne!(a, b, "opposite orders should schedule differently");
    }

    #[test]
    fn observations_carry_task_characteristics() {
        let tuple = small_tuple(6);
        let scores = trial_scores(&tuple, &small_spec(128), &Rng::new(11));
        let ts = to_observations(&tuple, &scores);
        assert_eq!(ts.len(), 8);
        for (obs, job) in ts.observations().iter().zip(&tuple.q_tasks) {
            assert_eq!(obs.runtime, job.runtime);
            assert_eq!(obs.cores, job.cores as f64);
            assert_eq!(obs.submit, job.submit);
        }
    }

    #[test]
    fn helpful_first_tasks_get_low_scores() {
        // With enough trials, the task with the lowest score should be a
        // "cheap" one (small area or early arrival) more often than a huge
        // late one. We check the weaker invariant that scores vary.
        let tuple = small_tuple(12);
        let scores = trial_scores(&tuple, &small_spec(2_048), &Rng::new(13));
        let min = scores.scores.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = scores.scores.iter().cloned().fold(0.0, f64::max);
        assert!(max > min, "scores should discriminate between tasks");
    }
}
