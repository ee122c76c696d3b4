//! `paper_loop` and `train_wide`: the learning side of the paper.
//!
//! `paper_loop` is `core::pipeline::run_full` + `full_run_markdown` — the
//! whole loop a `dynsched run` executes: permutation trials → 576 fits →
//! top 4 → Table-4 grid → report. `train_wide` is `learn_policies` over
//! many tuples with few trials each, the one workload where `mlreg`
//! dominates and where the fork engine is used with 512 forks per
//! checkpoint instead of tens of thousands.

use super::{PassOutcome, Workload};
use crate::harness::{oversubscribed, Digest, Tally};
use crate::metrics::Layers;
use crate::sizes::{self, jitter_factor, stream, Scale, STRUCTURE_SEED};
use crate::trace::Tracer;
use dynsched_cluster::{Platform, DEFAULT_TAU};
use dynsched_core::pipeline::{
    learn_policies, run_full, FullRunConfig, FullRunReport, LearnedReport, TrainingConfig,
};
use dynsched_core::report::full_run_markdown;
use dynsched_core::scenarios::{table4_experiments_in, table4_results_in};
use dynsched_core::trials::{
    run_trial, to_observations, trial_scores_batched, TrialBatch, TrialSpec,
};
use dynsched_core::tuples::{TaskTuple, TupleSpec};
use dynsched_core::{run_experiments, run_full_checkpointed, ExperimentResult};
use dynsched_mlreg::{
    fit_all, fit_all_reference, top_policies, EnumerateOptions, FeatureTable, FitResult,
    TrainingSet,
};
use dynsched_policies::{baseline_lineup, Policy};
use dynsched_simkit::json::{self, Json};
use dynsched_simkit::parallel::with_worker_limit;
use dynsched_simkit::Rng;
use dynsched_workload::{LublinModel, TraceStore};
use std::path::PathBuf;
use std::time::Instant;

/// Cores of the training platform (the paper's).
const TRAINING_CORES: u32 = 256;
/// Ranked functions kept as policies (`run_full`'s default).
const TOP_K: usize = 4;
/// Permutations the from-scratch trial kernel is timed on.
const SCRATCH_SAMPLE: usize = 4096;

fn training_config(tuples: usize, trials: usize, seed: u64) -> TrainingConfig {
    let base = TupleSpec::default();
    TrainingConfig {
        tuple_spec: TupleSpec {
            max_start_offset: base.max_start_offset * jitter_factor(seed, stream::TUPLE_WINDOW),
            ..base
        },
        trial_spec: TrialSpec {
            trials,
            platform: Platform::new(TRAINING_CORES),
            tau: DEFAULT_TAU,
        },
        tuples,
        seed: STRUCTURE_SEED,
    }
}

fn digest_training(d: &mut Digest, training: &TrainingSet, fits: &[FitResult]) {
    for o in training.observations() {
        d.f64(o.submit);
        d.f64(o.score);
    }
    for f in fits {
        d.u64(f.family_index as u64);
        d.f64(f.fitness);
        for c in f.function.coefficients {
            d.f64(c);
        }
    }
}

fn digest_evaluation(d: &mut Digest, evaluation: &[ExperimentResult]) {
    for row in evaluation {
        for outcome in &row.outcomes {
            d.f64(outcome.median);
            d.f64(outcome.mean_backfilled);
        }
    }
}

fn digest_report(report: &FullRunReport, markdown: &str) -> u64 {
    let mut d = Digest::default();
    digest_training(&mut d, &report.learned.training_set, &report.learned.fits);
    digest_evaluation(&mut d, &report.evaluation);
    d.u64(json::checksum(markdown.as_bytes()));
    d.finish()
}

fn digest_learned(training: &TrainingSet, fits: &[FitResult]) -> u64 {
    let mut d = Digest::default();
    digest_training(&mut d, training, fits);
    d.finish()
}

/// Engine events a training stage stands for: every trial is one
/// simulation of `|S| + |Q|` jobs, an arrival and a completion each.
fn training_events(config: &TrainingConfig) -> u64 {
    let jobs = config.tuple_spec.s_size + config.tuple_spec.q_size;
    (config.tuples * config.trial_spec.trials * jobs * 2) as u64
}

/// Engine events of one Table-4 grid: two per job of every
/// `row × policy × sequence` cell.
fn grid_events(config: &FullRunConfig) -> u64 {
    let store = TraceStore::new();
    let policies = (baseline_lineup().len() + config.top_k) as u64;
    table4_experiments_in(&store, &config.eval_scale)
        .iter()
        .flat_map(|row| &row.sequences)
        .map(|sequence| 2 * sequence.columns().len() as u64 * policies)
        .sum()
}

/// The training stage composed from its public parts, one span each —
/// what `generate_training_set` + `fit_all` do in one call.
fn traced_training(
    config: &TrainingConfig,
    model: &LublinModel,
    enumerate: &EnumerateOptions,
    tr: &mut Tracer,
) -> (Vec<TaskTuple>, TrainingSet, Vec<FitResult>) {
    let master = Rng::new(config.seed);
    let span = tr.begin("core.tuples.generate");
    let tuples: Vec<TaskTuple> = (0..config.tuples)
        .map(|i| TaskTuple::generate(&config.tuple_spec, model, &mut master.fork(2 * i as u64)))
        .collect();
    tr.end(span, "", config.tuples as u64);

    let batches: Vec<TrialBatch<'_>> = tuples
        .iter()
        .enumerate()
        .map(|(i, tuple)| TrialBatch {
            tuple,
            trials: config.trial_spec.trials,
            master: master.fork(2 * i as u64 + 1),
        })
        .collect();
    let span = tr.begin("core.trials.batch");
    let scores = trial_scores_batched(&batches, config.trial_spec.platform, config.trial_spec.tau);
    tr.end(span, "", (config.tuples * config.trial_spec.trials) as u64);

    let mut pooled = TrainingSet::default();
    for (tuple, scores) in tuples.iter().zip(&scores) {
        pooled.extend_from(&to_observations(tuple, scores));
    }
    let span = tr.begin("mlreg.fit_all");
    let fits = fit_all(&pooled, enumerate);
    tr.end(span, "", fits.len() as u64);
    (tuples, pooled, fits)
}

/// Per-layer metrics shared by the learning workloads: what the training
/// spans of the traced passes in `tr` say, then the from-scratch trial
/// kernel against the forked one, the feature table, and 1-vs-2-worker
/// scaling of the trial and fit stages.
fn training_probes(
    config: &TrainingConfig,
    model: &LublinModel,
    enumerate: &EnumerateOptions,
    layers: &mut Layers,
    tr: &Tracer,
) {
    // One more run of the stage, for what the spans do not carry: the
    // tuples, the pooled set, whether each fit converged.
    let (tuples, pooled, fits) = traced_training(config, model, enumerate, &mut Tracer::off());
    let observations = pooled.len();
    let totals = tr.layer_totals();
    let trials = totals["core.trials.batch"];
    let fit_all = totals["mlreg.fit_all"];
    layers.set(
        "core.tuples.generate_s",
        totals["core.tuples.generate"].self_s,
    );
    layers.set("core.trials.batch_s", trials.self_s);
    layers.set("core.trials.trials", trials.count as f64);
    layers.set(
        "core.trials.ns_per_trial",
        trials.self_s * 1e9 / trials.count as f64,
    );
    layers.set("mlreg.fit_all_s", fit_all.self_s);
    layers.set("mlreg.fits", fit_all.count as f64);
    layers.set("mlreg.observations", observations as f64);
    layers.set(
        "mlreg.us_per_fit",
        fit_all.self_s * 1e6 / fit_all.count as f64,
    );
    layers.set(
        "mlreg.converged_share",
        fits.iter().filter(|f| f.converged).count() as f64 / fits.len() as f64,
    );

    // Useful-work ratio of the fork engine: the same permutations through
    // `run_trial`, which simulates every trial from time zero.
    let mut rng = Rng::new(STRUCTURE_SEED).fork(u64::MAX);
    let t0 = Instant::now();
    for i in 0..SCRATCH_SAMPLE {
        let tuple = &tuples[i % tuples.len()];
        let perm = rng.permutation(tuple.q_tasks.len());
        std::hint::black_box(run_trial(tuple, &perm, &config.trial_spec));
    }
    let scratch_ns = t0.elapsed().as_secs_f64() * 1e9 / SCRATCH_SAMPLE as f64;
    layers.set("core.trials.scratch_ns_per_trial", scratch_ns);
    // `run_trial` is single-threaded, the batch ran on the pinned pool:
    // compare per-worker cost.
    let forked_ns = layers.get("core.trials.ns_per_trial") * crate::harness::WORKERS as f64;
    if forked_ns > 0.0 && !oversubscribed() {
        layers.set("core.trials.fork_speedup", scratch_ns / forked_ns);
    }

    let t0 = Instant::now();
    std::hint::black_box(FeatureTable::build(&pooled));
    layers.set("mlreg.feature_table_s", t0.elapsed().as_secs_f64());

    if !oversubscribed() {
        let mut serial = Tracer::on();
        with_worker_limit(1, || traced_training(config, model, enumerate, &mut serial));
        let serial = serial.layer_totals();
        let ratio = |span: &str, parallel_s: f64| serial[span].self_s / parallel_s;
        layers.set(
            "simkit.parallel.scaling_2w.trials",
            ratio("core.trials.batch", layers.get("core.trials.batch_s")),
        );
        layers.set(
            "simkit.parallel.scaling_2w.fits",
            ratio("mlreg.fit_all", layers.get("mlreg.fit_all_s")),
        );
    }
}

/// Checks shared by the learning workloads, on a reduced training run:
/// identical at 1 and 2 workers, and the fits equal the sequential
/// reference enumeration.
fn training_checks(seed: u64, tally: &mut Tally) {
    let (tuples, trials) = Scale::Smoke.paper_loop_training();
    let config = training_config(tuples, trials, seed);
    let model = LublinModel::new(TRAINING_CORES);
    let enumerate = EnumerateOptions::default();
    let at = |workers| {
        with_worker_limit(workers, || {
            learn_policies(&config, &model, &enumerate, TOP_K)
        })
    };
    let (one, two) = (at(1), at(2));
    tally.check(
        "reduced training run identical at 1 and 2 workers",
        one.training_set == two.training_set && one.fits == two.fits,
    );
    tally.check(
        "fits equal mlreg::reference::fit_all_reference",
        two.fits == fit_all_reference(&two.training_set, &enumerate),
    );
}

/// The `paper_loop` workload.
pub struct PaperLoop {
    config: FullRunConfig,
    model: LublinModel,
    seed: u64,
    scratch_dir: PathBuf,
    events: u64,
}

impl PaperLoop {
    /// Set up `paper_loop` at `scale`.
    pub fn new(scale: Scale, seed: u64, scratch_dir: PathBuf) -> Self {
        let (tuples, trials) = scale.paper_loop_training();
        let config = FullRunConfig {
            training: training_config(tuples, trials, seed),
            enumerate: EnumerateOptions::default(),
            top_k: TOP_K,
            eval_scale: sizes::paper_loop_scale(scale, seed),
        };
        let events = training_events(&config.training) + grid_events(&config);
        Self {
            config,
            model: LublinModel::new(TRAINING_CORES),
            seed,
            scratch_dir,
            events,
        }
    }
}

/// `run_full` composed from its public stage functions, one span per
/// stage. The digest must equal the one-call entry's.
fn composed_run_full(config: &FullRunConfig, model: &LublinModel, tr: &mut Tracer) -> u64 {
    let (tuples, training_set, fits) =
        traced_training(&config.training, model, &config.enumerate, tr);
    let policies = top_policies(&fits, config.top_k);
    let mut lineup: Vec<Box<dyn Policy>> = baseline_lineup();
    for policy in &policies {
        lineup.push(Box::new(policy.clone()));
    }
    let names = lineup.iter().map(|p| p.name().to_string()).collect();

    let store = TraceStore::new();
    let span = tr.begin("core.scenarios.build");
    let experiments = table4_experiments_in(&store, &config.eval_scale);
    tr.end(span, "", store.builds());
    let cells = experiments
        .iter()
        .map(|e| e.sequences.len() * lineup.len())
        .sum::<usize>();
    let span = tr.begin("core.session.eval");
    let evaluation = run_experiments(&experiments, &lineup);
    tr.end(span, "", cells as u64);

    let report = FullRunReport {
        learned: LearnedReport {
            tuples,
            training_set,
            fits,
            policies,
        },
        lineup: names,
        evaluation,
    };
    let span = tr.begin("core.report.render");
    let markdown = full_run_markdown(&report);
    tr.end(span, "", markdown.len() as u64);
    digest_report(&report, &markdown)
}

fn one_call_run_full(config: &FullRunConfig, model: &LublinModel) -> u64 {
    let report = run_full(config, model);
    digest_report(&report, &full_run_markdown(&report))
}

impl Workload for PaperLoop {
    fn sizes(&self) -> Json {
        let t = &self.config.training;
        Json::Object(vec![
            ("tuples".into(), Json::Uint(t.tuples as u64)),
            (
                "trials_per_tuple".into(),
                Json::Uint(t.trial_spec.trials as u64),
            ),
            ("training_cores".into(), Json::Uint(TRAINING_CORES as u64)),
            ("top_k".into(), Json::Uint(TOP_K as u64)),
            (
                "grid_sequences".into(),
                Json::Uint(self.config.eval_scale.spec.count as u64),
            ),
            (
                "grid_days".into(),
                Json::F64(self.config.eval_scale.spec.days),
            ),
        ])
    }

    fn pass(&mut self, tr: &mut Tracer) -> PassOutcome {
        let digest = if tr.enabled() {
            composed_run_full(&self.config, &self.model, tr)
        } else {
            one_call_run_full(&self.config, &self.model)
        };
        PassOutcome {
            digest,
            events: self.events,
            // One training batch, 576 fits, one evaluation grid.
            operations: 2 + 576,
            failed: 0,
        }
    }

    fn check(&mut self, tally: &mut Tally) {
        training_checks(self.seed, tally);
        let reduced = FullRunConfig {
            training: {
                let (tuples, trials) = Scale::Smoke.paper_loop_training();
                training_config(tuples, trials, self.seed)
            },
            eval_scale: sizes::paper_loop_scale(Scale::Smoke, self.seed),
            ..self.config
        };
        let at = |workers| with_worker_limit(workers, || one_call_run_full(&reduced, &self.model));
        let (one, two) = (at(1), at(2));
        tally.check("reduced run_full identical at 1 and 2 workers", one == two);
        // The traced pass is a re-composition of `run_full`; it measures
        // the same thing only if it computes the same thing.
        let composed = composed_run_full(&reduced, &self.model, &mut Tracer::on());
        tally.check("composed stages equal run_full", composed == two);
    }

    fn probes(&mut self, layers: &mut Layers, tr: &Tracer) {
        let config = &self.config;
        training_probes(&config.training, &self.model, &config.enumerate, layers, tr);
        let totals = tr.layer_totals();
        let eval = totals["core.session.eval"];
        layers.set(
            "core.scenarios.build_s",
            totals["core.scenarios.build"].self_s,
        );
        layers.set("core.session.eval_s", eval.self_s);
        layers.set("core.session.cells", eval.count as f64);
        layers.set(
            "core.session.us_per_cell",
            eval.self_s * 1e6 / eval.count as f64,
        );
        layers.set("core.report.render_s", totals["core.report.render"].self_s);
        let store = TraceStore::new();
        let lineup = baseline_lineup();
        table4_results_in(&store, &config.eval_scale, &lineup);
        layers.set("workload.store.builds", store.builds() as f64);
        layers.set("workload.store.hits", store.hits() as f64);

        if !oversubscribed() {
            let t0 = Instant::now();
            with_worker_limit(1, || table4_results_in(&store, &config.eval_scale, &lineup));
            let serial = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            table4_results_in(&store, &config.eval_scale, &lineup);
            layers.set(
                "simkit.parallel.scaling_2w.eval",
                serial / t0.elapsed().as_secs_f64(),
            );
        }

        // Checkpoint I/O: what `--checkpoint-dir` adds to a run, and what
        // a resume over the complete directory costs.
        let dir = self.scratch_dir.join("checkpoint");
        let timed = |resume| {
            let t0 = Instant::now();
            let ok = run_full_checkpointed(config, &self.model, &dir, resume).is_ok();
            (t0.elapsed().as_secs_f64(), ok)
        };
        let t0 = Instant::now();
        std::hint::black_box(run_full(config, &self.model));
        let plain = t0.elapsed().as_secs_f64();
        let (checkpointed, wrote) = timed(false);
        let (resumed, read) = timed(true);
        if wrote && read {
            let bytes: u64 = std::fs::read_dir(&dir)
                .into_iter()
                .flatten()
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum();
            layers.set("core.checkpoint.write_s", (checkpointed - plain).max(0.0));
            layers.set("core.checkpoint.bytes", bytes as f64);
            layers.set("core.checkpoint.resume_s", resumed);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The `train_wide` workload.
pub struct TrainWide {
    config: TrainingConfig,
    enumerate: EnumerateOptions,
    model: LublinModel,
    seed: u64,
}

impl TrainWide {
    /// Set up `train_wide` at `scale`.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (tuples, trials) = scale.train_wide_training();
        Self {
            config: training_config(tuples, trials, seed),
            enumerate: EnumerateOptions::default(),
            model: LublinModel::new(TRAINING_CORES),
            seed,
        }
    }
}

impl Workload for TrainWide {
    fn sizes(&self) -> Json {
        Json::Object(vec![
            ("tuples".into(), Json::Uint(self.config.tuples as u64)),
            (
                "trials_per_tuple".into(),
                Json::Uint(self.config.trial_spec.trials as u64),
            ),
            ("training_cores".into(), Json::Uint(TRAINING_CORES as u64)),
        ])
    }

    fn pass(&mut self, tr: &mut Tracer) -> PassOutcome {
        let digest = if tr.enabled() {
            let (_, training_set, fits) =
                traced_training(&self.config, &self.model, &self.enumerate, tr);
            digest_learned(&training_set, &fits)
        } else {
            let report = learn_policies(&self.config, &self.model, &self.enumerate, TOP_K);
            digest_learned(&report.training_set, &report.fits)
        };
        PassOutcome {
            digest,
            events: training_events(&self.config),
            operations: 1 + 576,
            failed: 0,
        }
    }

    fn check(&mut self, tally: &mut Tally) {
        training_checks(self.seed, tally);
        let (tuples, trials) = Scale::Smoke.train_wide_training();
        let mut reduced = Self {
            config: training_config(tuples, trials, self.seed),
            ..*self
        };
        let composed = reduced.pass(&mut Tracer::on()).digest;
        let one_call = reduced.pass(&mut Tracer::off()).digest;
        tally.check("composed stages equal learn_policies", composed == one_call);
    }

    fn probes(&mut self, layers: &mut Layers, tr: &Tracer) {
        training_probes(&self.config, &self.model, &self.enumerate, layers, tr);
    }
}
