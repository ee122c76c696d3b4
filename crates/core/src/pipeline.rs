//! End-to-end training: tuples → trials → pooled distribution → regression.
//!
//! This is the programmatic equivalent of the artifact's three workflows:
//! `generate_simulation_data.py` (+ `gather_data.py`) and
//! `nlr_scipy_enumerate_functions.py`, fused into one deterministic,
//! parallel pipeline:
//!
//! 1. generate `tuples` task tuples `(S, Q)` from the Lublin model;
//! 2. for each tuple run `trial_spec.trials` permutation trials and build
//!    its trial score distribution (Eq. 3);
//! 3. pool all `(r, n, s, score)` observations;
//! 4. fit all 576 family members by weighted nonlinear regression (Eq. 4)
//!    and rank them (Eq. 5);
//! 5. export the best `k` as scheduling policies.

use crate::experiments::ExperimentResult;
use crate::scenarios::{table4_results_in, ScenarioScale};
use crate::trials::{observations_of, trial_scores_batched, TrialBatch, TrialSpec};
use crate::tuples::{TaskTuple, TupleSpec};
use dynsched_mlreg::{fit_all, top_policies, EnumerateOptions, FitResult, TrainingSet};
use dynsched_policies::{baseline_lineup, LearnedPolicy, Policy};
use dynsched_simkit::Rng;
use dynsched_workload::LublinModel;

/// Configuration of a full training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingConfig {
    /// Tuple shape (|S|, |Q|, start-offset range).
    pub tuple_spec: TupleSpec,
    /// Trial count, platform and τ per tuple.
    pub trial_spec: TrialSpec,
    /// Number of `(S, Q)` tuples to pool.
    pub tuples: usize,
    /// Master seed; everything below derives from it.
    pub seed: u64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        Self {
            tuple_spec: TupleSpec::default(),
            trial_spec: TrialSpec::default(),
            tuples: 16,
            seed: 0xD15C_0B01,
        }
    }
}

/// Everything a training run produces.
#[derive(Debug)]
pub struct LearnedReport {
    /// The tuples that were simulated.
    pub tuples: Vec<TaskTuple>,
    /// The pooled `score(r,n,s)` distribution.
    pub training_set: TrainingSet,
    /// All 576 fits, best first.
    pub fits: Vec<FitResult>,
    /// The top fits as ready-to-use policies (`G1..`).
    pub policies: Vec<LearnedPolicy>,
}

/// Generate the pooled training distribution (workflow 1 + 2 of the
/// artifact). Every tuple's trial batch runs in **one** batched trial
/// session ([`trial_scores_batched`]), so the whole training stage is one
/// index space over `tuples × trials`, cut into fixed-size windows rather
/// than per-tuple parallel regions. Streams are forked exactly as the sequential per-tuple loop
/// did (`2i` seeds tuple `i`, `2i+1` its trials), so the pooled set is
/// bit-identical to it.
pub fn generate_training_set(
    config: &TrainingConfig,
    model: &LublinModel,
) -> (Vec<TaskTuple>, TrainingSet) {
    pooled_training_set(config, training_tuples(config, model))
}

/// The tuples [`generate_training_set`] pools: tuple `i` drawn from the
/// Lublin model on stream `2i` of the master seed.
pub(crate) fn training_tuples(config: &TrainingConfig, model: &LublinModel) -> Vec<TaskTuple> {
    draw_tuples(config, |rng| {
        TaskTuple::generate(&config.tuple_spec, model, rng)
    })
}

/// `config.tuples` tuples drawn by `sample`, tuple `i` from stream `2i` of
/// the master seed.
pub(crate) fn draw_tuples(
    config: &TrainingConfig,
    mut sample: impl FnMut(&mut Rng) -> TaskTuple,
) -> Vec<TaskTuple> {
    assert!(config.tuples > 0, "need at least one tuple");
    let master = Rng::new(config.seed);
    (0..config.tuples)
        .map(|i| sample(&mut master.fork(2 * i as u64)))
        .collect()
}

/// The pooled distribution of `tuples` drawn by [`draw_tuples`]: tuple
/// `i`'s trials from stream `2i + 1` of the master seed, all trials in one
/// batched session.
pub(crate) fn pooled_training_set(
    config: &TrainingConfig,
    tuples: Vec<TaskTuple>,
) -> (Vec<TaskTuple>, TrainingSet) {
    let master = Rng::new(config.seed);
    let batches: Vec<TrialBatch<'_>> = tuples
        .iter()
        .enumerate()
        .map(|(i, tuple)| TrialBatch {
            tuple,
            trials: config.trial_spec.trials,
            master: master.fork(2 * i as u64 + 1),
        })
        .collect();
    let scores = trial_scores_batched(&batches, config.trial_spec.platform, config.trial_spec.tau);
    let pooled = pool(&tuples, scores.iter().map(|s| s.scores.as_slice()));
    (tuples, pooled)
}

/// The pooled distribution: each tuple's observations under its Eq. 3
/// scores, in tuple order.
pub(crate) fn pool<'a>(
    tuples: &[TaskTuple],
    scores: impl IntoIterator<Item = &'a [f64]>,
) -> TrainingSet {
    let mut pooled = TrainingSet::default();
    for (tuple, scores) in tuples.iter().zip(scores) {
        pooled.extend_from(&observations_of(tuple, scores));
    }
    pooled
}

/// Run the whole pipeline and keep the `top_k` best functions as policies.
pub fn learn_policies(
    config: &TrainingConfig,
    model: &LublinModel,
    enumerate: &EnumerateOptions,
    top_k: usize,
) -> LearnedReport {
    let (tuples, training_set) = generate_training_set(config, model);
    let fits = fit_all(&training_set, enumerate);
    let policies = top_policies(&fits, top_k);
    LearnedReport {
        tuples,
        training_set,
        fits,
        policies,
    }
}

/// Configuration of a one-shot learn→evaluate run ([`run_full`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FullRunConfig {
    /// Training stage: tuples × trials → pooled distribution.
    pub training: TrainingConfig,
    /// Regression stage: Eq. 4 weighting and optimizer options.
    pub enumerate: EnumerateOptions,
    /// How many ranked functions to keep as policies (`G1..Gk`).
    pub top_k: usize,
    /// Evaluation stage: the Table-4 scenario protocol (sequence count,
    /// window length, offered load, seed).
    pub eval_scale: ScenarioScale,
}

impl Default for FullRunConfig {
    fn default() -> Self {
        Self {
            training: TrainingConfig::default(),
            enumerate: EnumerateOptions::default(),
            top_k: 4,
            eval_scale: ScenarioScale::default(),
        }
    }
}

/// Everything a one-shot [`run_full`] produces: the training stage's
/// [`LearnedReport`] plus the evaluation of the learned policies against
/// the ad-hoc baselines over the full Table-4 scenario grid.
#[derive(Debug)]
pub struct FullRunReport {
    /// Tuples, pooled distribution, all 576 fits (best first), `G1..Gk`.
    pub learned: LearnedReport,
    /// Policy names in evaluation column order: the four ad-hoc baselines
    /// (`FCFS, WFP, UNI, SPT`), then the learned `G1..Gk`.
    pub lineup: Vec<String>,
    /// All 18 Table-4 rows, in the paper's row order, evaluated under
    /// [`lineup`](Self::lineup).
    pub evaluation: Vec<ExperimentResult>,
}

/// Execute the paper's entire loop as **one orchestrated run**: generate
/// the training distribution, fit and rank all 576 candidate functions
/// (one batched enumeration session), keep the `top_k` as policies, and
/// evaluate them against the ad-hoc baselines across the Table-4 scenario
/// grid (one batched evaluation session spanning all
/// `row × policy × sequence` cells).
///
/// Every stage runs on the deterministic thread pool with per-worker
/// reusable workspaces, so the whole report — training set, fit table,
/// policy identities, and every AVEbsld cell — is bit-identical at any
/// thread count. The learning golden in the `differential` harness pins
/// this.
pub fn run_full(config: &FullRunConfig, model: &LublinModel) -> FullRunReport {
    let learned = learn_policies(&config.training, model, &config.enumerate, config.top_k);
    let mut lineup: Vec<Box<dyn Policy>> = baseline_lineup();
    for policy in &learned.policies {
        lineup.push(Box::new(policy.clone()));
    }
    let names: Vec<String> = lineup.iter().map(|p| p.name().to_string()).collect();
    // One trace store for the whole evaluation stage: the 18 Table-4 rows
    // intern 6 distinct workloads (shared across conditions), and the
    // interned build is bit-identical to per-row construction, so the
    // report's cells are unchanged by the sharing.
    let store = dynsched_workload::TraceStore::new();
    let evaluation = table4_results_in(&store, &config.eval_scale, &lineup);
    FullRunReport {
        learned,
        lineup: names,
        evaluation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsched_cluster::Platform;

    fn tiny_config() -> TrainingConfig {
        TrainingConfig {
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
        }
    }

    #[test]
    fn training_set_pools_all_tuples() {
        let model = LublinModel::new(64);
        let (tuples, ts) = generate_training_set(&tiny_config(), &model);
        assert_eq!(tuples.len(), 3);
        assert_eq!(ts.len(), 3 * 8);
        for o in ts.observations() {
            assert!(o.score > 0.0 && o.score < 1.0);
            assert!(o.runtime >= 1.0);
            assert!(o.cores >= 1.0);
        }
    }

    #[test]
    fn learn_policies_produces_ranked_output() {
        let model = LublinModel::new(64);
        let enumerate = EnumerateOptions {
            max_iterations: 25,
            ..Default::default()
        };
        let report = learn_policies(&tiny_config(), &model, &enumerate, 4);
        assert_eq!(report.fits.len(), 576);
        assert_eq!(report.policies.len(), 4);
        assert!(report.fits[0].fitness <= report.fits[575].fitness.max(report.fits[0].fitness));
        // Fitness of the winner should at least beat the family median.
        assert!(report.fits[0].fitness <= report.fits[288].fitness);
    }
}
