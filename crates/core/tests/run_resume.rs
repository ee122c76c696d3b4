//! The crash-safety contract of `run_full_checkpointed`: a resumed run is
//! bit-identical to an uninterrupted one — at every stage boundary, after
//! corruption of any stage file, and at 1 vs n worker threads — and
//! mixing state from a different config/seed is a loud error, never a
//! silent wrong answer.

use dynsched_cluster::Platform;
use dynsched_core::checkpoint::{fingerprint, run_full_checkpointed, RunError, RUN_STATE_VERSION};
use dynsched_core::pipeline::{run_full, FullRunConfig, TrainingConfig};
use dynsched_core::report::full_run_markdown;
use dynsched_core::scenarios::ScenarioScale;
use dynsched_core::trials::TrialSpec;
use dynsched_core::tuples::TupleSpec;
use dynsched_mlreg::EnumerateOptions;
use dynsched_simkit::json::{self, Json};
use dynsched_simkit::parallel::with_worker_limit;
use dynsched_workload::{LublinModel, SequenceSpec};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn tiny_config() -> FullRunConfig {
    let enumerate = EnumerateOptions {
        max_iterations: 20,
        ..Default::default()
    };
    FullRunConfig {
        training: TrainingConfig {
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
        },
        enumerate,
        top_k: 3,
        eval_scale: ScenarioScale {
            spec: SequenceSpec {
                count: 2,
                days: 1.0,
                min_jobs: 2,
            },
            ..ScenarioScale::default()
        },
    }
}

fn model() -> LublinModel {
    LublinModel::new(64)
}

/// A fresh scratch directory unique to this test invocation.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dynsched-run-resume-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The stage files of a completed tiny run, in pipeline order.
fn stage_files() -> Vec<String> {
    let mut files = vec!["training.json".to_string(), "fits.json".to_string()];
    files.extend((0..18).map(|i| format!("eval_row_{i:02}.json")));
    files
}

fn copy_stages(from: &Path, to: &Path, upto: usize) {
    std::fs::copy(from.join("manifest.json"), to.join("manifest.json")).unwrap();
    for file in stage_files().into_iter().take(upto) {
        std::fs::copy(from.join(&file), to.join(&file)).unwrap();
    }
}

#[test]
fn checkpointed_run_is_bit_identical_to_plain_run() {
    let config = tiny_config();
    let plain = run_full(&config, &model());
    let dir = scratch_dir("fresh");
    let checkpointed = run_full_checkpointed(&config, &model(), &dir, false).unwrap();

    assert_eq!(checkpointed.lineup, plain.lineup);
    assert_eq!(checkpointed.learned.tuples, plain.learned.tuples);
    assert_eq!(
        checkpointed.learned.training_set,
        plain.learned.training_set
    );
    assert_eq!(checkpointed.learned.fits, plain.learned.fits);
    assert_eq!(checkpointed.evaluation, plain.evaluation);
    assert_eq!(
        full_run_markdown(&checkpointed),
        full_run_markdown(&plain),
        "reports must be byte-identical"
    );

    // The directory holds the manifest plus every stage.
    assert!(dir.join("manifest.json").exists());
    for file in stage_files() {
        assert!(dir.join(&file).exists(), "{file} missing");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_at_every_stage_boundary_is_bit_identical() {
    let config = tiny_config();
    let baseline_dir = scratch_dir("boundary-baseline");
    let baseline = run_full_checkpointed(&config, &model(), &baseline_dir, false).unwrap();
    let baseline_md = full_run_markdown(&baseline);

    // Boundaries: nothing but the manifest; after training; after fits;
    // after the first evaluation row; after all but the last row.
    let total = stage_files().len();
    for upto in [0, 1, 2, 3, total - 1] {
        let dir = scratch_dir(&format!("boundary-{upto}"));
        copy_stages(&baseline_dir, &dir, upto);
        let resumed = run_full_checkpointed(&config, &model(), &dir, true)
            .unwrap_or_else(|e| panic!("resume at boundary {upto} failed: {e}"));
        assert_eq!(
            full_run_markdown(&resumed),
            baseline_md,
            "resume at boundary {upto} must be bit-identical"
        );
        assert_eq!(resumed.evaluation, baseline.evaluation, "boundary {upto}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&baseline_dir).unwrap();
}

#[test]
fn resume_is_thread_count_independent() {
    let config = tiny_config();
    let baseline_dir = scratch_dir("threads-baseline");
    // Three workers, not the host's width: on a 1-CPU host that is one
    // worker, and the comparison below would compare a run with itself.
    let baseline = with_worker_limit(3, || {
        run_full_checkpointed(&config, &model(), &baseline_dir, false).unwrap()
    });
    let baseline_md = full_run_markdown(&baseline);

    // Resume the tail (everything after training) pinned to one worker:
    // the single-threaded resume must reproduce the wide run bit for bit.
    let dir = scratch_dir("threads-narrow");
    copy_stages(&baseline_dir, &dir, 1);
    let narrow = with_worker_limit(1, || {
        run_full_checkpointed(&config, &model(), &dir, true).unwrap()
    });
    assert_eq!(full_run_markdown(&narrow), baseline_md);
    std::fs::remove_dir_all(&dir).unwrap();

    // And a fully-fresh checkpointed run at one worker, too.
    let dir = scratch_dir("threads-fresh");
    let narrow_fresh = with_worker_limit(1, || {
        run_full_checkpointed(&config, &model(), &dir, false).unwrap()
    });
    assert_eq!(full_run_markdown(&narrow_fresh), baseline_md);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&baseline_dir).unwrap();
}

#[test]
fn corrupt_stage_files_are_recomputed_not_trusted() {
    let config = tiny_config();
    let baseline_dir = scratch_dir("corrupt-baseline");
    let baseline = run_full_checkpointed(&config, &model(), &baseline_dir, false).unwrap();
    let baseline_md = full_run_markdown(&baseline);

    let dir = scratch_dir("corrupt");
    copy_stages(&baseline_dir, &dir, stage_files().len());

    // Truncate the training stage (torn write), flip a payload byte in the
    // fits stage (bit rot — fails the checksum), and replace an eval row
    // with garbage.
    let training = dir.join("training.json");
    let text = std::fs::read_to_string(&training).unwrap();
    std::fs::write(&training, &text[..text.len() / 2]).unwrap();

    let fits = dir.join("fits.json");
    let mut bytes = std::fs::read(&fits).unwrap();
    let payload_at = bytes.windows(9).position(|w| w == b"\"payload\"").unwrap();
    // Flip a digit well inside the payload.
    let target = (payload_at + 40..bytes.len())
        .find(|&i| bytes[i].is_ascii_digit())
        .unwrap();
    bytes[target] = if bytes[target] == b'9' { b'8' } else { b'9' };
    std::fs::write(&fits, &bytes).unwrap();

    std::fs::write(dir.join("eval_row_05.json"), b"not json at all").unwrap();

    let resumed = run_full_checkpointed(&config, &model(), &dir, true).unwrap();
    assert_eq!(
        full_run_markdown(&resumed),
        baseline_md,
        "corrupt stages must be recomputed to the identical result"
    );
    // The recomputed stages were re-persisted and now validate again.
    let second = run_full_checkpointed(&config, &model(), &dir, true).unwrap();
    assert_eq!(full_run_markdown(&second), baseline_md);

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&baseline_dir).unwrap();
}

/// Every lie the forger tells about a stage payload, each with what it
/// did: an array truncated by one or given its first element twice, an
/// object without one of its keys, a number made non-finite. It walks
/// every member of an object and the first element of an array.
fn lies(node: &Json) -> Vec<(String, Json)> {
    let mut out = Vec::new();
    match node {
        Json::Array(items) if !items.is_empty() => {
            let (mut short, mut long) = (items.clone(), items.clone());
            short.pop();
            long.push(items[0].clone());
            out.push((" truncated by one".to_string(), Json::Array(short)));
            out.push((
                " with its first element twice".to_string(),
                Json::Array(long),
            ));
            for (what, lie) in lies(&items[0]) {
                let mut edited = items.clone();
                edited[0] = lie;
                out.push((format!("[0]{what}"), Json::Array(edited)));
            }
        }
        Json::Object(members) => {
            for (i, (key, value)) in members.iter().enumerate() {
                let mut dropped = members.clone();
                dropped.remove(i);
                out.push((format!(" without .{key}"), Json::Object(dropped)));
                for (what, lie) in lies(value) {
                    let mut edited = members.clone();
                    edited[i].1 = lie;
                    out.push((format!(".{key}{what}"), Json::Object(edited)));
                }
            }
        }
        Json::F64(_) => out.push((" non-finite".to_string(), Json::F64(f64::NAN))),
        _ => {}
    }
    out
}

/// `stage` (a parsed stage file) with `payload` in place of its own, re-sealed
/// with a recomputed checksum, so only what the payload says can give it away.
fn reseal(stage: &Json, payload: Json) -> String {
    let Json::Object(members) = stage else {
        panic!("a stage file is an object");
    };
    let checksum = json::checksum(payload.to_text().as_bytes());
    let members = members.iter().map(|(key, value)| {
        let value = match key.as_str() {
            "payload" => payload.clone(),
            "checksum" => Json::Str(format!("{checksum:016x}")),
            _ => value.clone(),
        };
        (key.clone(), value)
    });
    Json::Object(members.collect()).to_text()
}

/// Each stage kind, each of its payload's arrays truncated and duplicated,
/// each key dropped and each number made non-finite, re-sealed: every one
/// is recomputed to the uninterrupted run, what the report does not print
/// included.
#[test]
fn forged_stages_with_valid_checksums_are_recomputed() {
    let config = tiny_config();
    let baseline_dir = scratch_dir("forged-baseline");
    let baseline = run_full_checkpointed(&config, &model(), &baseline_dir, false).unwrap();
    let baseline_md = full_run_markdown(&baseline);
    let baseline_learned = format!("{:?}", baseline.learned);

    let dir = scratch_dir("forged");
    copy_stages(&baseline_dir, &dir, stage_files().len());
    let mut told = 0;
    for file in ["training.json", "fits.json", "eval_row_00.json"] {
        let text = std::fs::read_to_string(baseline_dir.join(file)).unwrap();
        let stage = json::parse(&text).unwrap();
        for (lie, payload) in lies(stage.get("payload").unwrap()) {
            std::fs::write(dir.join(file), reseal(&stage, payload)).unwrap();
            let what = format!("{file}: payload{lie}, re-sealed");
            let resumed = run_full_checkpointed(&config, &model(), &dir, true)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(full_run_markdown(&resumed), baseline_md, "{what}");
            let learned = format!("{:?}", resumed.learned);
            assert!(
                learned == baseline_learned,
                "{what}: the learned report differs"
            );
            assert_eq!(resumed.evaluation, baseline.evaluation, "{what}");
            told += 1;
        }
    }
    // Training and fits: 6 lies each; a row: 16.
    assert_eq!(told, 28);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&baseline_dir).unwrap();
}

#[test]
fn swapped_row_checkpoints_are_recomputed() {
    let config = tiny_config();
    let baseline_dir = scratch_dir("swap-baseline");
    let baseline = run_full_checkpointed(&config, &model(), &baseline_dir, false).unwrap();

    let dir = scratch_dir("swap");
    copy_stages(&baseline_dir, &dir, stage_files().len());
    // Copy row 0's checkpoint over row 7's: same fingerprint, valid
    // checksum — but the wrong row. The stage name embedded in the file
    // must catch it.
    std::fs::copy(dir.join("eval_row_00.json"), dir.join("eval_row_07.json")).unwrap();

    let resumed = run_full_checkpointed(&config, &model(), &dir, true).unwrap();
    assert_eq!(resumed.evaluation, baseline.evaluation);

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&baseline_dir).unwrap();
}

#[test]
fn mismatched_config_errors_loudly() {
    let config = tiny_config();
    let dir = scratch_dir("mismatch");
    run_full_checkpointed(&config, &model(), &dir, false).unwrap();

    // A different seed is a different run: resume must refuse.
    let mut other = tiny_config();
    other.training.seed = 43;
    assert_ne!(
        fingerprint(&config, &model()),
        fingerprint(&other, &model())
    );
    match run_full_checkpointed(&other, &model(), &dir, true) {
        Err(RunError::Mismatch { reason, .. }) => {
            assert!(reason.contains("fingerprint"), "reason: {reason}");
        }
        other => panic!("expected a fingerprint mismatch, got {other:?}"),
    }

    // A different evaluation scale too.
    let mut other = tiny_config();
    other.eval_scale.seed ^= 1;
    assert!(matches!(
        run_full_checkpointed(&other, &model(), &dir, true),
        Err(RunError::Mismatch { .. })
    ));

    // And a different workload model.
    let mut other_model = model();
    other_model.arrival_scale *= 2.0;
    assert!(matches!(
        run_full_checkpointed(&config, &other_model, &dir, true),
        Err(RunError::Mismatch { .. })
    ));

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Each field of `FullRunConfig`'s sub-configs and of `LublinModel`, changed
/// alone, changes the fingerprint: a checkpoint directory is never resumed
/// by a run that would compute something else.
#[test]
fn every_field_of_the_run_changes_its_fingerprint() {
    let (config, model) = (tiny_config(), model());
    let reference = fingerprint(&config, &model);
    type ConfigEdit = fn(&mut FullRunConfig);
    let configs: [(&str, ConfigEdit); 16] = [
        ("s_size", |c| c.training.tuple_spec.s_size += 1),
        ("q_size", |c| c.training.tuple_spec.q_size += 1),
        ("max_start_offset", |c| {
            c.training.tuple_spec.max_start_offset *= 2.0
        }),
        ("trials", |c| c.training.trial_spec.trials += 1),
        ("total_cores", |c| {
            c.training.trial_spec.platform = Platform::new(128)
        }),
        ("tau", |c| c.training.trial_spec.tau += 1.0),
        ("tuples", |c| c.training.tuples += 1),
        ("training seed", |c| c.training.seed += 1),
        ("weighted", |c| c.enumerate.weighted = !c.enumerate.weighted),
        ("max_iterations", |c| c.enumerate.max_iterations += 1),
        ("top_k", |c| c.top_k += 1),
        ("count", |c| c.eval_scale.spec.count += 1),
        ("days", |c| c.eval_scale.spec.days *= 2.0),
        ("min_jobs", |c| c.eval_scale.spec.min_jobs += 1),
        ("model_target_load", |c| {
            c.eval_scale.model_target_load /= 2.0
        }),
        ("eval seed", |c| c.eval_scale.seed ^= 1),
    ];
    for (field, edit) in configs {
        let mut other = config;
        edit(&mut other);
        assert_ne!(fingerprint(&other, &model), reference, "{field}");
    }
    type ModelEdit = fn(&mut LublinModel);
    let models: [(&str, ModelEdit); 5] = [
        ("max_cores", |m| m.max_cores *= 2),
        // The heavy-tail family's change.
        ("b2", |m| m.b2 *= 1.3),
        ("arrival_scale", |m| m.arrival_scale *= 2.0),
        ("daily_cycle", |m| m.daily_cycle = !m.daily_cycle),
        ("max_runtime", |m| m.max_runtime *= 4.0),
    ];
    for (field, edit) in models {
        let mut other = model;
        edit(&mut other);
        assert_ne!(fingerprint(&config, &other), reference, "model {field}");
    }
}

#[test]
fn resume_without_a_manifest_errors_loudly() {
    let config = tiny_config();
    let dir = scratch_dir("nomanifest");
    match run_full_checkpointed(&config, &model(), &dir, true) {
        Err(RunError::Mismatch { reason, .. }) => {
            assert!(reason.contains("resume"), "reason: {reason}");
        }
        other => panic!("expected a mismatch error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tampered_version_errors_loudly() {
    let config = tiny_config();
    let dir = scratch_dir("version");
    run_full_checkpointed(&config, &model(), &dir, false).unwrap();
    let manifest = dir.join("manifest.json");
    let text = std::fs::read_to_string(&manifest).unwrap();
    // Version 1 stored what version 2 recomputes: such a directory is refused.
    let current = format!("\"version\":{RUN_STATE_VERSION}");
    let tampered = text.replacen(&current, "\"version\":1", 1);
    assert_ne!(text, tampered, "version field must be present to tamper");
    std::fs::write(&manifest, tampered).unwrap();
    assert!(matches!(
        run_full_checkpointed(&config, &model(), &dir, true),
        Err(RunError::Mismatch { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fresh_run_wipes_stale_state_from_the_directory() {
    let config = tiny_config();
    let dir = scratch_dir("wipe");
    run_full_checkpointed(&config, &model(), &dir, false).unwrap();

    // A fresh (non-resume) run with a different seed in the same
    // directory must not trip over — or silently reuse — the old state.
    let mut other = tiny_config();
    other.training.seed = 1234;
    let report = run_full_checkpointed(&other, &model(), &dir, false).unwrap();
    let plain = run_full(&other, &model());
    assert_eq!(full_run_markdown(&report), full_run_markdown(&plain));
    // And the directory now resumes as the *new* run.
    let resumed = run_full_checkpointed(&other, &model(), &dir, true).unwrap();
    assert_eq!(full_run_markdown(&resumed), full_run_markdown(&plain));
    std::fs::remove_dir_all(&dir).unwrap();
}
