//! Regression proof for the batched evaluation session: every evaluation
//! entry point — [`run_experiment`], [`sweep_load`], [`convergence_curve`]
//! — must produce outputs **bit-identical** to the historical per-cell
//! path (one allocating `simulate()` call per `(policy, sequence)` cell,
//! one `trial_scores` call per repetition), with fixed seeds, under all
//! three evaluation [`Condition`]s, at one worker thread and at the
//! pool's natural width.
//!
//! The legacy paths are reimplemented here, verbatim in spirit, from the
//! pre-session code: they are the executable specification the batched
//! session is diffed against.

use dynsched_cluster::Platform;
use dynsched_core::convergence::convergence_curve;
use dynsched_core::experiments::{run_experiment, Experiment, ExperimentResult, PolicyOutcome};
use dynsched_core::scenarios::{model_scenario_in, Condition, ScenarioScale};
use dynsched_core::sweep::{sweep_load, LoadPoint};
use dynsched_core::trials::{trial_scores, TrialSpec};
use dynsched_core::tuples::{TaskTuple, TupleSpec};
use dynsched_core::ConvergencePoint;
use dynsched_policies::{Fcfs, LearnedPolicy, Policy, Spt, Wfp3};
use dynsched_scheduler::{simulate, QueueDiscipline, SchedulerConfig};
use dynsched_simkit::parallel::with_worker_limit;
use dynsched_simkit::stats::{mean, median, std_dev, std_dev_population, BoxplotSummary};
use dynsched_simkit::Rng;
use dynsched_workload::transform::scale_load;
use dynsched_workload::{LublinModel, SequenceSpec, Trace, TraceStore};

/// A line-up mixing cached-score, time-dependent, and learned policies so
/// the session crosses every queue-order path of the engine.
fn lineup() -> Vec<Box<dyn Policy>> {
    vec![
        Box::new(Fcfs),
        Box::new(Spt),
        Box::new(Wfp3),
        Box::new(LearnedPolicy::f1()),
    ]
}

/// The experiment harness exactly as it was before the session refactor:
/// one allocating `simulate()` per cell, scatter into per-policy rows.
fn legacy_run_experiment(
    experiment: &Experiment,
    policies: &[Box<dyn Policy>],
) -> ExperimentResult {
    assert!(
        !experiment.sequences.is_empty(),
        "experiment without sequences"
    );
    let mut per_policy: Vec<Vec<f64>> = vec![vec![0.0; experiment.sequences.len()]; policies.len()];
    let mut backfills: Vec<Vec<f64>> = vec![vec![0.0; experiment.sequences.len()]; policies.len()];
    for (p, policy) in policies.iter().enumerate() {
        for (s, seq) in experiment.sequences.iter().enumerate() {
            let result = simulate(
                seq,
                &QueueDiscipline::Policy(policy.as_ref()),
                &experiment.scheduler,
            );
            per_policy[p][s] = result
                .avg_bounded_slowdown(experiment.tau)
                .expect("sequences are non-empty");
            backfills[p][s] = result.backfilled_jobs as f64;
        }
    }
    let outcomes = policies
        .iter()
        .enumerate()
        .map(|(p, policy)| {
            let xs = &per_policy[p];
            PolicyOutcome {
                policy: policy.name().to_string(),
                ave_bslds: xs.clone(),
                summary: BoxplotSummary::from_samples(xs).expect("non-empty"),
                median: median(xs).expect("non-empty"),
                mean: mean(xs).expect("non-empty"),
                std_dev: std_dev(xs).unwrap_or(0.0),
                mean_backfilled: mean(&backfills[p]).expect("non-empty"),
                mean_preempted: 0.0,
                mean_abandoned: 0.0,
                mean_lost_core_seconds: 0.0,
            }
        })
        .collect();
    ExperimentResult {
        name: experiment.name.clone(),
        outcomes,
    }
}

/// The sweep exactly as it was: one `run_experiment` per load point (here
/// one legacy per-cell experiment per load point).
fn legacy_sweep_load(
    name: &str,
    sequences: &[Trace],
    scheduler: SchedulerConfig,
    policies: &[Box<dyn Policy>],
    targets: &[f64],
) -> Vec<LoadPoint> {
    let base_loads: Vec<f64> = sequences
        .iter()
        .map(|s| {
            s.summary(scheduler.platform.total_cores)
                .expect("non-empty sequence")
                .offered_load
        })
        .collect();
    targets
        .iter()
        .map(|&target| {
            let rescaled: Vec<Trace> = sequences
                .iter()
                .zip(&base_loads)
                .map(|(seq, &base)| scale_load(seq, target / base))
                .collect();
            let experiment =
                Experiment::new(format!("{name} @ load {target:.2}"), rescaled, scheduler);
            LoadPoint {
                offered_load: target,
                result: legacy_run_experiment(&experiment, policies),
            }
        })
        .collect()
}

/// The convergence study exactly as it was: one sequential `trial_scores`
/// call per `(count, repetition)` cell.
fn legacy_convergence_curve(
    tuple: &TaskTuple,
    trial_counts: &[usize],
    repetitions: usize,
    base_spec: &TrialSpec,
    master: &Rng,
) -> Vec<ConvergencePoint> {
    let q = tuple.q_tasks.len();
    let mut raw: Vec<(usize, f64)> = Vec::with_capacity(trial_counts.len());
    for (ci, &count) in trial_counts.iter().enumerate() {
        let spec = TrialSpec {
            trials: count,
            ..*base_spec
        };
        let mut per_task: Vec<Vec<f64>> = vec![Vec::with_capacity(repetitions); q];
        for rep in 0..repetitions {
            let stream = master.fork((ci * 1_000 + rep) as u64);
            let scores = trial_scores(tuple, &spec, &stream);
            for (k, &s) in scores.scores.iter().enumerate() {
                per_task[k].push(s);
            }
        }
        let mean_std = per_task
            .iter()
            .map(|xs| std_dev_population(xs).expect("repetitions >= 2"))
            .sum::<f64>()
            / q as f64;
        raw.push((count, mean_std));
    }
    let max_std = raw
        .iter()
        .map(|&(_, s)| s)
        .fold(f64::MIN_POSITIVE, f64::max);
    raw.into_iter()
        .map(|(trials, score_std)| ConvergencePoint {
            trials,
            score_std,
            normalized_std: score_std / max_std,
        })
        .collect()
}

fn quick_scale(seed: u64) -> ScenarioScale {
    ScenarioScale {
        spec: SequenceSpec {
            count: 3,
            days: 1.0,
            min_jobs: 3,
        },
        seed,
        ..ScenarioScale::default()
    }
}

#[test]
fn run_experiment_is_bit_identical_to_per_cell_simulate() {
    // All three conditions of the paper, at 1 worker and at pool width.
    let lineup = lineup();
    for condition in Condition::ALL {
        let experiment = model_scenario_in(&TraceStore::new(), 64, condition, &quick_scale(0x5E55));
        let want = legacy_run_experiment(&experiment, &lineup);
        let wide = run_experiment(&experiment, &lineup);
        let narrow = with_worker_limit(1, || run_experiment(&experiment, &lineup));
        assert_eq!(
            wide, want,
            "{condition:?}: session diverged from per-cell simulate()"
        );
        assert_eq!(
            narrow, want,
            "{condition:?}: single-threaded session diverged"
        );
    }
}

#[test]
fn sweep_load_is_bit_identical_to_per_target_loop() {
    let mut model = LublinModel::new(32);
    model.daily_cycle = false;
    let mut rng = Rng::new(77);
    let sequences: Vec<Trace> = (0..3).map(|_| model.generate_jobs(80, &mut rng)).collect();
    let lineup = lineup();
    let targets = [0.3, 0.8, 1.3];
    for condition in Condition::ALL {
        let scheduler = condition.scheduler(Platform::new(32));
        let want = legacy_sweep_load("sweep", &sequences, scheduler, &lineup, &targets);
        let wide = sweep_load("sweep", &sequences, scheduler, &lineup, &targets);
        let narrow = with_worker_limit(1, || {
            sweep_load("sweep", &sequences, scheduler, &lineup, &targets)
        });
        assert_eq!(wide, want, "{condition:?}: batched sweep diverged");
        assert_eq!(
            narrow, want,
            "{condition:?}: single-threaded sweep diverged"
        );
    }
}

#[test]
fn table4_through_shared_store_is_bit_identical_to_per_row_runs() {
    use dynsched_core::scenarios::{table4_experiments_in, table4_results_in};
    let scale = ScenarioScale {
        spec: SequenceSpec {
            count: 2,
            days: 1.0,
            min_jobs: 2,
        },
        ..ScenarioScale::default()
    };
    let lineup = lineup();
    // The historical path: construction through a store of its own,
    // per-row batched runs.
    let want: Vec<ExperimentResult> = table4_experiments_in(&TraceStore::new(), &scale)
        .iter()
        .map(|e| run_experiment(e, &lineup))
        .collect();
    let store = TraceStore::new();
    let wide = table4_results_in(&store, &scale, &lineup);
    assert_eq!(store.builds(), 6, "18 rows must intern 6 workloads");
    let narrow = with_worker_limit(1, || table4_results_in(&TraceStore::new(), &scale, &lineup));
    assert_eq!(
        wide, want,
        "shared-store Table 4 diverged from per-row runs"
    );
    assert_eq!(
        narrow, want,
        "single-threaded shared-store Table 4 diverged"
    );
}

#[test]
fn convergence_curve_is_bit_identical_to_per_rep_loop() {
    let spec = TupleSpec {
        s_size: 4,
        q_size: 8,
        max_start_offset: 50_000.0,
    };
    let model = LublinModel::new(64);
    let tuple = TaskTuple::generate(&spec, &model, &mut Rng::new(21));
    let base = TrialSpec {
        trials: 0,
        platform: Platform::new(64),
        tau: 10.0,
    };
    let counts = [64, 256];
    let master = Rng::new(22);
    let want = legacy_convergence_curve(&tuple, &counts, 3, &base, &master);
    let wide = convergence_curve(&tuple, &counts, 3, &base, &master);
    let narrow = with_worker_limit(1, || convergence_curve(&tuple, &counts, 3, &base, &master));
    assert_eq!(wide, want, "batched convergence study diverged");
    assert_eq!(narrow, want, "single-threaded convergence study diverged");
}
