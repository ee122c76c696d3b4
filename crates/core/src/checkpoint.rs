//! Stage-checkpointed [`run_full`](crate::pipeline::run_full): make the paper's loop survive being
//! killed.
//!
//! A full-scale run — 256k-trial training, 576 regression fits, then the
//! 18-row Table-4 evaluation grid — is long enough that a crash, OOM-kill
//! or worker panic at minute N used to lose everything. This module
//! persists a **`RunState` file after each durable stage** into a run
//! directory, and [`run_full_checkpointed`] resumes from whatever survives.
//!
//! # Checkpoint file format
//!
//! Every file in the run directory is one JSON document produced by
//! [`dynsched_simkit::json`] (exact-bit doubles: `<decimal>$<hex16>`),
//! written atomically via [`dynsched_simkit::durable::write_atomic`], with
//! a common wrapper:
//!
//! ```json
//! {
//!   "format": "dynsched-run-state",
//!   "version": 2,
//!   "stage": "training",
//!   "fingerprint": "d1a0…16 hex digits",
//!   "checksum": "…16 hex digits",
//!   "payload": { …stage data… }
//! }
//! ```
//!
//! * `fingerprint` — FNV-1a hash of the canonical serialization of the
//!   entire [`FullRunConfig`] **and** the workload model, so state from a
//!   different configuration or seed can never be mixed in;
//! * `checksum` — FNV-1a hash of the canonical re-serialization of
//!   `payload`, so torn or bit-rotted payloads are detected.
//!
//! The stages, in pipeline order:
//!
//! | file | stage | payload |
//! |---|---|---|
//! | `manifest.json` | `manifest` | the config summary the fingerprint hashes |
//! | `training.json` | `training` | each tuple's Eq. 3 scores, one per `Q` task |
//! | `fits.json` | `fits` | per family member, in family order: `[c₀, c₁, c₂, weighted_sse, converged]` |
//! | `eval_row_NN.json` | `eval_row_NN` | one Table-4 row, persisted as it completes: per policy its name, per-sequence AVEbsld and four means |
//!
//! A stage stores only what neither the config nor an earlier stage
//! determines — the numbers trials, fits and simulations cost — because a
//! value that is re-derived on resume cannot disagree with what it derives
//! from. Decoding rebuilds the rest through the code that made it: the
//! tuples from the fingerprinted seed and model, the observations, each
//! fit's Eq. 5 fitness and the ranking, each row's order statistics.
//!
//! # Resume contract
//!
//! `--resume` **validates** the format version and config fingerprint of
//! the manifest and of every stage file — a mismatch (different seed,
//! different scale, different code vintage) is a loud error, never a
//! silent recompute. A stage file that is *missing, truncated, unparsable,
//! fails its checksum, or decodes to a value this config cannot produce* (a
//! count other than the config's, a missing key, a non-finite number) is
//! simply **recomputed**: partial state is never trusted, and recomputation is
//! always safe because every stage is a deterministic function of the
//! config. The result of a resumed run is **bit-identical** to an
//! uninterrupted one — the `run_resume` suite pins this at every stage
//! boundary, under corruption and forgery, and at 1 vs n worker threads.
//!
//! A worker panic during evaluation surfaces as
//! [`RunError::Eval`] with the last completed checkpoint still on disk and
//! valid — rerunning with `--resume` picks up right behind it.
//!
//! # Crash injection (test hook)
//!
//! When the environment variable `DYNSCHED_CRASH_AFTER` names a stage
//! (`training`, `fits`, or `eval_row_NN`), the process aborts immediately
//! after that stage's checkpoint has been durably written — the hook the
//! CI crash-recovery smoke job uses to kill a run mid-flight and prove
//! the resumed report is byte-identical.

use crate::experiments::{try_run_experiments, Experiment, ExperimentResult, PolicyOutcome};
use crate::pipeline::{
    generate_training_set, pool, training_tuples, FullRunConfig, FullRunReport, LearnedReport,
    TrainingConfig,
};
use crate::scenarios::{table4_experiments_in, ScenarioScale};
use crate::trials::TrialSpec;
use crate::tuples::{TaskTuple, TupleSpec};
use dynsched_cluster::Platform;
use dynsched_mlreg::{
    fit_all, rank, sort_ranked, top_policies, EnumerateOptions, FitResult, TrainingSet,
};
use dynsched_policies::{baseline_lineup, NonlinearFunction, Policy};
use dynsched_simkit::durable::write_atomic;
use dynsched_simkit::json::{self, Json};
use dynsched_simkit::parallel::PoolError;
use dynsched_workload::{LublinModel, SequenceSpec};
use std::fmt;
use std::path::{Path, PathBuf};

/// The `format` field every checkpoint file carries.
pub const RUN_STATE_FORMAT: &str = "dynsched-run-state";

/// Current checkpoint format version. Bump on any payload layout change;
/// resuming across versions is a loud error, not a guess. Version 2 stores
/// only what cannot be recomputed (the stage table in the module docs);
/// version 1 also stored tuples, observations, fitness and row statistics.
pub const RUN_STATE_VERSION: u64 = 2;

/// Why a checkpointed run failed.
#[derive(Debug)]
pub enum RunError {
    /// Reading or writing the run directory failed.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The checkpoint directory belongs to a different run: wrong format
    /// version, or a config/seed fingerprint that does not match. Resume
    /// refuses to guess — rerun without `--resume` (or point at a fresh
    /// directory) to start over.
    Mismatch {
        /// The offending file.
        path: PathBuf,
        /// What disagreed.
        reason: String,
    },
    /// A worker panicked during evaluation. Every stage checkpointed so
    /// far is still on disk and valid; `--resume` continues behind it.
    Eval(PoolError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Io { path, source } => {
                write!(f, "checkpoint I/O failed on {}: {source}", path.display())
            }
            RunError::Mismatch { path, reason } => write!(
                f,
                "checkpoint mismatch in {}: {reason} (resume refuses to mix state from a \
                 different run; rerun without --resume to start fresh)",
                path.display()
            ),
            RunError::Eval(e) => write!(
                f,
                "evaluation failed: {e} (checkpoints written so far are intact; rerun with \
                 --resume to continue behind the last completed stage)"
            ),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Io { source, .. } => Some(source),
            RunError::Mismatch { .. } => None,
            RunError::Eval(e) => Some(e),
        }
    }
}

/// FNV-1a fingerprint of the canonical serialization of the entire run
/// configuration (training, regression, selection and evaluation stages)
/// plus the workload model. Two runs share a fingerprint iff every
/// parameter that can influence any stage's output is identical: it echoes
/// every field of both, and the models' and the optimizer's constants are
/// the build's, not the run's.
pub fn fingerprint(config: &FullRunConfig, model: &LublinModel) -> u64 {
    json::checksum(config_json(config, model).to_text().as_bytes())
}

/// The run's configuration as JSON. The patterns name every field, so a
/// field added to any of these types does not compile until it is echoed.
fn config_json(config: &FullRunConfig, model: &LublinModel) -> Json {
    let FullRunConfig {
        training,
        enumerate,
        top_k,
        eval_scale,
    } = *config;
    let TrainingConfig {
        tuple_spec,
        trial_spec,
        tuples,
        seed: training_seed,
    } = training;
    let TupleSpec {
        s_size,
        q_size,
        max_start_offset,
    } = tuple_spec;
    let TrialSpec {
        trials,
        platform: Platform { total_cores },
        tau,
    } = trial_spec;
    let EnumerateOptions {
        weighted,
        max_iterations,
    } = enumerate;
    let ScenarioScale {
        spec: SequenceSpec {
            count,
            days,
            min_jobs,
        },
        model_target_load,
        seed: eval_seed,
    } = eval_scale;
    let LublinModel {
        max_cores,
        b2,
        arrival_scale,
        daily_cycle,
        max_runtime,
    } = *model;
    Json::Object(vec![
        (
            "training".into(),
            Json::Object(vec![
                ("s_size".into(), Json::Uint(s_size as u64)),
                ("q_size".into(), Json::Uint(q_size as u64)),
                ("max_start_offset".into(), Json::F64(max_start_offset)),
                ("trials".into(), Json::Uint(trials as u64)),
                ("cores".into(), Json::Uint(u64::from(total_cores))),
                ("tau".into(), Json::F64(tau)),
                ("tuples".into(), Json::Uint(tuples as u64)),
                ("seed".into(), Json::Uint(training_seed)),
            ]),
        ),
        (
            "enumerate".into(),
            Json::Object(vec![
                ("weighted".into(), Json::Bool(weighted)),
                ("max_iterations".into(), Json::Uint(max_iterations as u64)),
            ]),
        ),
        ("top_k".into(), Json::Uint(top_k as u64)),
        (
            "eval".into(),
            Json::Object(vec![
                ("count".into(), Json::Uint(count as u64)),
                ("days".into(), Json::F64(days)),
                ("min_jobs".into(), Json::Uint(min_jobs as u64)),
                ("model_target_load".into(), Json::F64(model_target_load)),
                ("seed".into(), Json::Uint(eval_seed)),
            ]),
        ),
        (
            "model".into(),
            Json::Object(vec![
                ("max_cores".into(), Json::Uint(u64::from(max_cores))),
                ("b2".into(), Json::F64(b2)),
                ("arrival_scale".into(), Json::F64(arrival_scale)),
                ("daily_cycle".into(), Json::Bool(daily_cycle)),
                ("max_runtime".into(), Json::F64(max_runtime)),
            ]),
        ),
    ])
}

fn io_err(path: &Path, source: std::io::Error) -> RunError {
    RunError::Io {
        path: path.to_path_buf(),
        source,
    }
}

fn hex16(x: u64) -> String {
    format!("{x:016x}")
}

/// Wrap a stage payload in the `RunState` envelope and write it
/// atomically.
fn write_stage(path: &Path, stage: &str, fingerprint: u64, payload: Json) -> Result<(), RunError> {
    let payload_text = payload.to_text();
    let checksum = json::checksum(payload_text.as_bytes());
    let envelope = Json::Object(vec![
        ("format".into(), Json::Str(RUN_STATE_FORMAT.into())),
        ("version".into(), Json::Uint(RUN_STATE_VERSION)),
        ("stage".into(), Json::Str(stage.into())),
        ("fingerprint".into(), Json::Str(hex16(fingerprint))),
        ("checksum".into(), Json::Str(hex16(checksum))),
        ("payload".into(), payload),
    ]);
    write_atomic(path, envelope.to_text()).map_err(|e| io_err(path, e))
}

/// Load and validate one stage file.
///
/// Returns `Ok(None)` — *recompute* — when the file is missing,
/// unreadable, unparsable, structurally wrong, names a different stage,
/// or fails its payload checksum. Returns `Err` — *loud* — when the file
/// is a well-formed `RunState` whose version or fingerprint disagrees
/// with this run: that is state from a different run, and silently
/// recomputing over it would paper over a user error.
fn load_stage(path: &Path, stage: &str, fingerprint: u64) -> Result<Option<Json>, RunError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(_) => return Ok(None),
    };
    let doc = match json::parse(&text) {
        Ok(doc) => doc,
        Err(_) => return Ok(None),
    };
    if doc.get("format").and_then(Json::as_str) != Some(RUN_STATE_FORMAT) {
        return Ok(None);
    }
    match doc.get("version").and_then(Json::as_u64) {
        Some(RUN_STATE_VERSION) => {}
        Some(other) => {
            return Err(RunError::Mismatch {
                path: path.to_path_buf(),
                reason: format!(
                    "format version {other}, this build writes version {RUN_STATE_VERSION}"
                ),
            })
        }
        None => return Ok(None),
    }
    match doc.get("fingerprint").and_then(Json::as_str) {
        Some(found) if found == hex16(fingerprint) => {}
        Some(found) => {
            return Err(RunError::Mismatch {
                path: path.to_path_buf(),
                reason: format!(
                    "config fingerprint {found} does not match this run's {}",
                    hex16(fingerprint)
                ),
            })
        }
        None => return Ok(None),
    }
    if doc.get("stage").and_then(Json::as_str) != Some(stage) {
        return Ok(None);
    }
    let Some(payload) = doc.get("payload") else {
        return Ok(None);
    };
    let recomputed = json::checksum(payload.to_text().as_bytes());
    if doc.get("checksum").and_then(Json::as_str) != Some(hex16(recomputed).as_str()) {
        return Ok(None);
    }
    Ok(Some(payload.clone()))
}

/// Remove every stage file a previous run may have left in `dir`, so a
/// fresh (non-resume) run can never mix old state into its output.
fn clean_stage_files(dir: &Path) -> Result<(), RunError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(io_err(dir, e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let ours = name == "manifest.json"
            || name == "training.json"
            || name == "fits.json"
            || (name.starts_with("eval_row_") && name.ends_with(".json"));
        if ours {
            let path = entry.path();
            std::fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
        }
    }
    Ok(())
}

/// Abort the process if `DYNSCHED_CRASH_AFTER` names the stage that was
/// just durably persisted — the injected fault point the CI
/// crash-recovery smoke job kills the run at.
fn crash_hook(stage: &str) {
    if std::env::var("DYNSCHED_CRASH_AFTER").as_deref() == Ok(stage) {
        eprintln!("DYNSCHED_CRASH_AFTER: aborting after persisting stage '{stage}'");
        std::process::abort();
    }
}

// ---------------------------------------------------------------------------
// Stage payloads. Encoders are total; decoders rebuild what the payload
// does not hold through the code that made it, and return `None` — the
// caller recomputes — on anything the live path cannot produce: a count
// other than the config's, a missing key, a non-finite number.

/// A stored number: every number a stage writes is finite.
fn finite(v: &Json) -> Option<f64> {
    v.as_f64().filter(|x| x.is_finite())
}

fn finite_array(v: &Json) -> Option<Vec<f64>> {
    v.as_array()?.iter().map(finite).collect()
}

/// The training stage: the Eq. 3 score of each `Q` task, one array per
/// tuple, in tuple order.
fn encode_training(tuples: &[TaskTuple], training: &TrainingSet) -> Json {
    let mut scores = training.observations().iter().map(|o| Json::F64(o.score));
    let per_tuple = tuples
        .iter()
        .map(|t| Json::Array(scores.by_ref().take(t.q_tasks.len()).collect()));
    Json::Object(vec![("scores".into(), Json::Array(per_tuple.collect()))])
}

/// The training stage, if it holds one finite score per `Q` task of each
/// tuple: the tuples drawn again from the run's seed and model, on the
/// streams [`generate_training_set`] draws them from, pooled under the
/// stored scores.
fn decode_training(
    payload: &Json,
    config: &TrainingConfig,
    model: &LublinModel,
) -> Option<(Vec<TaskTuple>, TrainingSet)> {
    let scores = payload
        .get("scores")?
        .as_array()?
        .iter()
        .map(finite_array)
        .collect::<Option<Vec<_>>>()?;
    let tuples = training_tuples(config, model);
    let mut sizes = tuples.iter().map(|t| t.q_tasks.len()).zip(&scores);
    let shaped = scores.len() == tuples.len() && sizes.all(|(q, s)| s.len() == q);
    shaped.then(|| {
        let training = pool(&tuples, scores.iter().map(Vec::as_slice));
        (tuples, training)
    })
}

/// The fit stage: one `[c₀, c₁, c₂, weighted_sse, converged]` per family
/// member, in family order.
fn encode_fits(fits: &[FitResult]) -> Json {
    let mut by_family: Vec<&FitResult> = fits.iter().collect();
    by_family.sort_by_key(|fit| fit.family_index);
    let entries = by_family.iter().map(|fit| {
        let [c0, c1, c2] = fit.function.coefficients;
        Json::Array(vec![
            Json::F64(c0),
            Json::F64(c1),
            Json::F64(c2),
            Json::F64(fit.weighted_sse),
            Json::Bool(fit.converged),
        ])
    });
    Json::Object(vec![("fits".into(), Json::Array(entries.collect()))])
}

/// The ranked fit table, if the stage holds one finite entry per family
/// member: each member under its stored coefficients, its Eq. 5 fitness
/// computed again by [`rank`] (the arithmetic [`fit_all`] uses), and the
/// table put in order by [`sort_ranked`], the sort [`fit_all`] ends with.
fn decode_fits(payload: &Json, training: &TrainingSet) -> Option<Vec<FitResult>> {
    let family = NonlinearFunction::enumerate_family();
    let entries = payload.get("fits")?.as_array()?;
    if entries.len() != family.len() {
        return None;
    }
    let mut fits = family
        .iter()
        .zip(entries)
        .enumerate()
        .map(|(family_index, (shape, entry))| {
            let [c0, c1, c2, weighted_sse, converged] = entry.as_array()? else {
                return None;
            };
            let function = shape.with_coefficients([finite(c0)?, finite(c1)?, finite(c2)?]);
            Some(FitResult {
                function,
                family_index,
                weighted_sse: finite(weighted_sse)?,
                converged: converged.as_bool()?,
                fitness: rank(&function, training),
            })
        })
        .collect::<Option<Vec<_>>>()?;
    sort_ranked(&mut fits);
    Some(fits)
}

/// One Table-4 row: per policy, its name, its per-sequence AVEbsld and its
/// four per-sequence means.
fn encode_row(row: &ExperimentResult) -> Json {
    let outcomes = row.outcomes.iter().map(|o| {
        let samples = o.ave_bslds.iter().map(|&x| Json::F64(x));
        Json::Object(vec![
            ("policy".into(), Json::Str(o.policy.clone())),
            ("ave_bslds".into(), Json::Array(samples.collect())),
            ("mean_backfilled".into(), Json::F64(o.mean_backfilled)),
            ("mean_preempted".into(), Json::F64(o.mean_preempted)),
            ("mean_abandoned".into(), Json::F64(o.mean_abandoned)),
            (
                "mean_lost_core_seconds".into(),
                Json::F64(o.mean_lost_core_seconds),
            ),
        ])
    });
    Json::Object(vec![("outcomes".into(), Json::Array(outcomes.collect()))])
}

/// Row `experiment` under the line-up `names`, if the stage holds one
/// outcome per policy, named and ordered as `names`, each with one finite
/// AVEbsld per sequence and four finite means. The statistics come from
/// [`PolicyOutcome::from_samples`], the reduction of a live run.
fn decode_row(
    payload: &Json,
    experiment: &Experiment,
    names: &[String],
) -> Option<ExperimentResult> {
    let stored = payload.get("outcomes")?.as_array()?;
    if stored.len() != names.len() {
        return None;
    }
    let outcomes = stored
        .iter()
        .zip(names)
        .map(|(o, name)| {
            let ave_bslds = finite_array(o.get("ave_bslds")?)?;
            let mean = |key: &str| o.get(key).and_then(finite);
            let means = [
                mean("mean_backfilled")?,
                mean("mean_preempted")?,
                mean("mean_abandoned")?,
                mean("mean_lost_core_seconds")?,
            ];
            let shaped =
                o.get("policy")?.as_str()? == name && ave_bslds.len() == experiment.sequences.len();
            shaped.then(|| PolicyOutcome::from_samples(name, ave_bslds, means))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(ExperimentResult {
        name: experiment.name.clone(),
        outcomes,
    })
}

// ---------------------------------------------------------------------------

/// [`crate::pipeline::run_full`] with durable stage checkpoints in `dir`.
///
/// With `resume == false` the directory is wiped of any previous run's
/// stage files and every stage is computed and checkpointed. With
/// `resume == true` the manifest must exist and match this config's
/// fingerprint (else [`RunError::Mismatch`]); each stage is then loaded if
/// its file validates, recomputed (and re-persisted) otherwise. Either
/// way the returned report is bit-identical to `run_full` on the same
/// config — checkpointing changes durability, never results.
pub fn run_full_checkpointed(
    config: &FullRunConfig,
    model: &LublinModel,
    dir: &Path,
    resume: bool,
) -> Result<FullRunReport, RunError> {
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let fp = fingerprint(config, model);
    let manifest_path = dir.join("manifest.json");

    if resume {
        // Strict: a resume against a directory that has no (valid)
        // manifest, or one from a different config, is a user error.
        match load_stage(&manifest_path, "manifest", fp)? {
            Some(_) => {}
            None => {
                return Err(RunError::Mismatch {
                    path: manifest_path,
                    reason: "no valid manifest found — nothing to resume".into(),
                })
            }
        }
    } else {
        clean_stage_files(dir)?;
        write_stage(&manifest_path, "manifest", fp, config_json(config, model))?;
    }

    // Stage 1: the pooled training distribution.
    let training_path = dir.join("training.json");
    let loaded = load_stage(&training_path, "training", fp)?;
    let decoded = loaded.and_then(|p| decode_training(&p, &config.training, model));
    let (tuples, training_set) = match decoded {
        Some(loaded) => loaded,
        None => {
            let (tuples, training_set) = generate_training_set(&config.training, model);
            write_stage(
                &training_path,
                "training",
                fp,
                encode_training(&tuples, &training_set),
            )?;
            crash_hook("training");
            (tuples, training_set)
        }
    };

    // Stage 2: the ranked 576-member fit table.
    let fits_path = dir.join("fits.json");
    let loaded = load_stage(&fits_path, "fits", fp)?;
    let fits = match loaded.and_then(|p| decode_fits(&p, &training_set)) {
        Some(fits) => fits,
        None => {
            let fits = fit_all(&training_set, &config.enumerate);
            write_stage(&fits_path, "fits", fp, encode_fits(&fits))?;
            crash_hook("fits");
            fits
        }
    };

    // Selection is cheap and pure — always recomputed, never persisted.
    let policies = top_policies(&fits, config.top_k);
    let learned = LearnedReport {
        tuples,
        training_set,
        fits,
        policies,
    };

    // Stage 3: the Table-4 evaluation grid, one checkpoint per row as it
    // completes. Per-row runs are bit-identical to the one-session batch
    // `run_full` uses (the `differential` harness pins this), so
    // resumability costs nothing in fidelity.
    let mut lineup: Vec<Box<dyn Policy>> = baseline_lineup();
    for policy in &learned.policies {
        lineup.push(Box::new(policy.clone()));
    }
    let names: Vec<String> = lineup.iter().map(|p| p.name().to_string()).collect();
    let store = dynsched_workload::TraceStore::new();
    let experiments = table4_experiments_in(&store, &config.eval_scale);
    let mut evaluation = Vec::with_capacity(experiments.len());
    for (i, experiment) in experiments.iter().enumerate() {
        let stage = format!("eval_row_{i:02}");
        let path = dir.join(format!("{stage}.json"));
        let loaded = load_stage(&path, &stage, fp)?;
        let row = match loaded.and_then(|p| decode_row(&p, experiment, &names)) {
            Some(row) => row,
            None => {
                let row = try_run_experiments(std::slice::from_ref(experiment), &lineup)
                    .map_err(RunError::Eval)?
                    .pop()
                    .expect("one experiment in, one result out");
                write_stage(&path, &stage, fp, encode_row(&row))?;
                crash_hook(&stage);
                row
            }
        };
        evaluation.push(row);
    }

    Ok(FullRunReport {
        learned,
        lineup: names,
        evaluation,
    })
}
