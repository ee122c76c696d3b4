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
//! # Checkpoint and fork
//!
//! Every trial of a tuple shares an identical prefix: the warmup tasks `S`
//! keep ranks `0..|S|` under **every** permutation and the `Q` tasks all
//! submit strictly after the tuple start, so no two trials can differ
//! before the first event at or after the earliest `Q` submit. The batched
//! kernel therefore simulates that prefix once per distinct tuple — under
//! identity ranks, into a shared immutable
//! [`Checkpoint`] — and every worker forks
//! its trials from the snapshot with
//! [`SimWorkspace::resume_from`](dynsched_scheduler::SimWorkspace::resume_from)
//! instead of re-simulating the warmup from time zero. Forking is a
//! copy-restore into the worker's warm workspace (no allocation), and the
//! resumed schedule is bit-identical to the scratch run — pinned here
//! against the [`run_trial`] oracle and in the scheduler crate's
//! `checkpoint_bit_identity` suite.

use crate::tuples::TaskTuple;
use dynsched_cluster::{CompletedJob, Platform, DEFAULT_TAU};
use dynsched_mlreg::{Observation, TrainingSet};
use dynsched_scheduler::{Checkpoint, QueueDiscipline, SchedulerConfig, SimWorkspace};
use dynsched_simkit::parallel::run_scoped;
use dynsched_simkit::Rng;
use dynsched_workload::{Trace, TraceView};

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
/// tasks). The identity run is valid evidence for every permutation
/// precisely up to the first flagged time, which is why the scan can use
/// its start times. `f64::INFINITY` (no flagged time — e.g. `|Q| = 1`)
/// means the whole schedule is permutation-invariant and the checkpoint
/// captures the completed run.
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
    for c in identity_run {
        submit[c.job.id as usize] = c.job.submit;
        start[c.job.id as usize] = c.start;
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
        if present >= 2 && pending {
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

/// Run many trial batches — different tuples, different trial counts,
/// different streams — as **one** fan-out over the global trial index
/// space, and build each batch's score distribution.
///
/// This is how the whole training stage and the convergence study keep the
/// pool saturated: instead of one parallel region per tuple (or per
/// repetition), every trial of every batch is an index in a single
/// [`run_scoped`] call, executed by workers that each own one reusable
/// [`SimWorkspace`]. Per distinct tuple — keyed by content, so batches
/// sharing a tuple (or content-equal copies of one) share everything — the
/// trace is built once and the permutation-invariant warmup prefix is
/// simulated once into a shared [`Checkpoint`] at the tuple's divergence
/// horizon (the earliest `Q` submit); every trial then *forks* from the
/// snapshot instead of re-running the warmup. `platform` and `tau` are
/// shared by every cell; each batch's `trials` field supplies its own
/// count (which is why this takes no [`TrialSpec`] — its `trials` field
/// would be a silently ignored parameter).
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
/// sequentially in trial order — so the output is bit-identical to calling
/// [`trial_scores`] per batch, at any thread count.
pub fn trial_scores_batched(
    batches: &[TrialBatch<'_>],
    platform: Platform,
    tau: f64,
) -> Vec<TrialScores> {
    let config = SchedulerConfig::actual_runtimes(platform);
    // One *columnar* trace per distinct tuple; batches over the same tuple
    // (the convergence study's repetitions) share its storage, and every
    // trial of every worker reads the same dense column lanes.
    let (distinct, trace_of) = dedup_tuples(batches);
    let traces: Vec<TraceView> = distinct
        .iter()
        .map(|t| Trace::from_jobs(t.all_jobs()).to_view())
        .collect();
    // The shared immutable snapshots the workers fork from: per distinct
    // tuple, one identity-ranks run locates the divergence horizon (the
    // run itself is permutation-invariant evidence up to that point), then
    // the prefix is simulated once up to it and captured. Both runs are
    // amortized over the tuple's whole trial budget. Resuming re-keys the
    // restored queue under each trial's own ranks, so the horizon may sit
    // far past the first `Q` arrival.
    let mut identity: Vec<usize> = Vec::new();
    let mut prefix_ws = SimWorkspace::new();
    let checkpoints: Vec<Checkpoint> = distinct
        .iter()
        .zip(&traces)
        .map(|(tuple, trace)| {
            identity.clear();
            identity.extend(0..tuple.s_tasks.len() + tuple.q_tasks.len());
            let discipline = QueueDiscipline::FixedOrder(&identity);
            prefix_ws.run(trace, &discipline, &config);
            let horizon = prefix_horizon(tuple, prefix_ws.completed());
            let mut ckpt = Checkpoint::new();
            prefix_ws.run_prefix(trace, &discipline, &config, horizon, &mut ckpt);
            ckpt
        })
        .collect();
    // Global index layout: batch b owns indices offsets[b]..offsets[b+1].
    let mut offsets: Vec<usize> = Vec::with_capacity(batches.len() + 1);
    let mut total = 0usize;
    offsets.push(0);
    for b in batches {
        total += b.trials;
        offsets.push(total);
    }

    // Collect per-trial outcomes in global index order, then accumulate
    // sequentially per batch: float addition is not associative, so a
    // parallel tree reduction would make the scores depend on the
    // reduction's split points.
    let outcomes: Vec<(usize, f64)> = run_scoped(total, TrialState::default, |g, st| {
        let b = offsets.partition_point(|&o| o <= g) - 1;
        let batch = &batches[b];
        let tuple = batch.tuple;
        let mut rng = batch.master.fork((g - offsets[b]) as u64);
        let q = tuple.q_tasks.len();
        // Same RNG draws as `rng.permutation(q)`, into a kept buffer.
        st.perm.clear();
        st.perm.extend(0..q);
        rng.shuffle(&mut st.perm);
        fill_ranks(&mut st.ranks, tuple.s_tasks.len(), &st.perm);
        st.ws.resume_from(
            &checkpoints[trace_of[b]],
            &traces[trace_of[b]],
            &QueueDiscipline::FixedOrder(&st.ranks),
            &config,
        );
        let ave = st
            .ws
            .avg_bounded_slowdown_of(&|id| tuple.is_q_task(id), tau)
            .expect("Q is non-empty");
        (st.perm[0], ave)
    });

    batches
        .iter()
        .enumerate()
        .map(|(b, batch)| {
            let q = batch.tuple.q_tasks.len();
            let mut sum_by_first = vec![0.0; q];
            let mut count_by_first = vec![0u64; q];
            let mut total = 0.0;
            for &(first, ave) in &outcomes[offsets[b]..offsets[b + 1]] {
                sum_by_first[first] += ave;
                count_by_first[first] += 1;
                total += ave;
            }
            // Invariant, not input validation (zero-trial batches were
            // rejected up front): every trial contributes an AVEbsld >= 1.
            debug_assert!(
                total >= batch.trials as f64,
                "AVEbsld is bounded below by 1"
            );
            let scores = sum_by_first.iter().map(|s| s / total).collect();
            TrialScores {
                scores,
                trials: batch.trials,
                first_counts: count_by_first,
            }
        })
        .collect()
}

/// Convert one tuple's scores into training observations
/// (`(r, n, s, score)` per task of `Q`).
pub fn to_observations(tuple: &TaskTuple, scores: &TrialScores) -> TrainingSet {
    let obs = tuple
        .q_tasks
        .iter()
        .zip(&scores.scores)
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
    fn distribution_is_deterministic_and_thread_independent() {
        let tuple = small_tuple(4);
        let a = trial_scores(&tuple, &small_spec(256), &Rng::new(10));
        let b = trial_scores(&tuple, &small_spec(256), &Rng::new(10));
        assert_eq!(a, b);
    }

    #[test]
    fn batched_cells_equal_individual_calls() {
        // Mixed batch: two tuples, varying trial counts, distinct streams
        // — including two batches sharing one tuple (shared trace path).
        let t1 = small_tuple(7);
        let t2 = small_tuple(8);
        let spec = small_spec(0);
        let batches = vec![
            TrialBatch {
                tuple: &t1,
                trials: 128,
                master: Rng::new(100),
            },
            TrialBatch {
                tuple: &t2,
                trials: 64,
                master: Rng::new(101),
            },
            TrialBatch {
                tuple: &t1,
                trials: 96,
                master: Rng::new(102),
            },
        ];
        let got = trial_scores_batched(&batches, spec.platform, spec.tau);
        for (b, scores) in batches.iter().zip(&got) {
            let want = trial_scores(b.tuple, &small_spec(b.trials), &b.master);
            assert_eq!(scores, &want);
        }
    }

    /// Independent scratch oracle: replicate the batched kernel's score
    /// accumulation with per-trial [`run_trial`] calls (which simulate
    /// from time zero and never checkpoint), drawing the identical
    /// permutation streams.
    fn scratch_scores(
        tuple: &TaskTuple,
        trials: usize,
        master: &Rng,
        spec: &TrialSpec,
    ) -> TrialScores {
        let q = tuple.q_tasks.len();
        let mut perm: Vec<usize> = Vec::new();
        let mut sum_by_first = vec![0.0; q];
        let mut count_by_first = vec![0u64; q];
        let mut total = 0.0;
        for i in 0..trials {
            let mut rng = master.fork(i as u64);
            perm.clear();
            perm.extend(0..q);
            rng.shuffle(&mut perm);
            let ave = run_trial(tuple, &perm, spec);
            sum_by_first[perm[0]] += ave;
            count_by_first[perm[0]] += 1;
            total += ave;
        }
        TrialScores {
            scores: sum_by_first.iter().map(|s| s / total).collect(),
            trials,
            first_counts: count_by_first,
        }
    }

    #[test]
    fn checkpointed_kernel_matches_scratch_oracle() {
        // The tentpole's correctness pin at the caller level: forking
        // every trial from the shared divergence-horizon checkpoint
        // produces scores bit-identical to simulating every trial from
        // time zero.
        for seed in 21..29 {
            let tuple = small_tuple(seed);
            let spec = small_spec(64);
            let got = trial_scores(&tuple, &spec, &Rng::new(seed ^ 0xA5));
            let want = scratch_scores(&tuple, 64, &Rng::new(seed ^ 0xA5), &spec);
            assert_eq!(got, want, "seed {seed}: checkpointed kernel diverged");
        }
    }

    #[test]
    fn checkpointed_kernel_matches_oracle_on_congested_paper_shape() {
        // The paper-shaped tuple (|S|=16, |Q|=32) on platforms small
        // enough that wide warmup tasks monopolize the cores and the
        // probe set piles up behind them — the divergence-horizon scan's
        // hardest regime (the flagged pass sits deep inside the drain,
        // far past the first Q arrival).
        let spec_gen = TupleSpec::default();
        for (seed, cores) in [(3u64, 256u32), (51, 256), (52, 128), (53, 512)] {
            let model = LublinModel::new(cores);
            let tuple = TaskTuple::generate(&spec_gen, &model, &mut Rng::new(seed));
            let spec = TrialSpec {
                trials: 48,
                platform: Platform::new(cores),
                tau: DEFAULT_TAU,
            };
            let got = trial_scores(&tuple, &spec, &Rng::new(seed ^ 0x3C));
            let want = scratch_scores(&tuple, 48, &Rng::new(seed ^ 0x3C), &spec);
            assert_eq!(got, want, "seed {seed} on {cores} cores diverged");
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
    fn content_equal_copies_score_identically() {
        // Regression for the former pointer-identity dedup: a batch over a
        // *clone* of a tuple must behave exactly like a batch over the
        // original.
        let t1 = small_tuple(33);
        let copy = t1.clone();
        let spec = small_spec(0);
        let batches = vec![
            TrialBatch {
                tuple: &t1,
                trials: 48,
                master: Rng::new(500),
            },
            TrialBatch {
                tuple: &copy,
                trials: 48,
                master: Rng::new(500),
            },
        ];
        let got = trial_scores_batched(&batches, spec.platform, spec.tau);
        assert_eq!(got[0], got[1]);
        assert_eq!(got[0], trial_scores(&t1, &small_spec(48), &Rng::new(500)));
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
        // horizon degenerates to time zero and the kernel must still match
        // the scratch oracle exactly.
        let spec_gen = TupleSpec {
            s_size: 0,
            q_size: 6,
            max_start_offset: 50_000.0,
        };
        let model = LublinModel::new(64);
        let tuple = TaskTuple::generate(&spec_gen, &model, &mut Rng::new(41));
        assert!(tuple.s_tasks.is_empty());
        assert_eq!(prefix_horizon(&tuple, &[]), 0.0);
        let spec = small_spec(64);
        let got = trial_scores(&tuple, &spec, &Rng::new(42));
        let want = scratch_scores(&tuple, 64, &Rng::new(42), &spec);
        assert_eq!(got, want);
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
