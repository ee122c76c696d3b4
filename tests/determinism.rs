//! Reproducibility guarantees: one seed, one result — regardless of
//! parallelism.

use dynsched::cluster::Platform;
use dynsched::core::run_experiment;
use dynsched::core::scenarios::{model_scenario_in, Condition, ScenarioScale};
use dynsched::core::trials::{trial_scores, TrialSpec};
use dynsched::core::tuples::{TaskTuple, TupleSpec};
use dynsched::policies::paper_lineup;
use dynsched::simkit::Rng;
use dynsched::workload::{LublinModel, SequenceSpec, TraceStore};

#[test]
fn trial_scores_identical_across_thread_pools() {
    let model = LublinModel::new(64);
    let spec = TupleSpec {
        s_size: 4,
        q_size: 8,
        max_start_offset: 40_000.0,
    };
    let tuple = TaskTuple::generate(&spec, &model, &mut Rng::new(5));
    let trial_spec = TrialSpec {
        trials: 256,
        platform: Platform::new(64),
        tau: 10.0,
    };

    let wide = trial_scores(&tuple, &trial_spec, &Rng::new(11));
    let narrow = dynsched::simkit::parallel::with_worker_limit(1, || {
        trial_scores(&tuple, &trial_spec, &Rng::new(11))
    });
    let mid = dynsched::simkit::parallel::with_worker_limit(3, || {
        trial_scores(&tuple, &trial_spec, &Rng::new(11))
    });
    assert_eq!(wide, narrow, "results must not depend on thread count");
    assert_eq!(wide, mid, "results must not depend on thread count");
}

#[test]
fn scenario_and_experiment_are_seed_stable() {
    let scale = ScenarioScale {
        spec: SequenceSpec {
            count: 2,
            days: 1.0,
            min_jobs: 1,
        },
        ..ScenarioScale::default()
    };
    let lineup = paper_lineup();
    let a = run_experiment(
        &model_scenario_in(&TraceStore::new(), 64, Condition::ActualRuntimes, &scale),
        &lineup,
    );
    let b = run_experiment(
        &model_scenario_in(&TraceStore::new(), 64, Condition::ActualRuntimes, &scale),
        &lineup,
    );
    assert_eq!(a, b);
}

#[test]
fn different_seeds_give_different_workloads() {
    let mut scale_a = ScenarioScale {
        spec: SequenceSpec {
            count: 2,
            days: 1.0,
            min_jobs: 1,
        },
        ..ScenarioScale::default()
    };
    let exp_a = model_scenario_in(&TraceStore::new(), 64, Condition::ActualRuntimes, &scale_a);
    scale_a.seed ^= 0xFFFF;
    let exp_b = model_scenario_in(&TraceStore::new(), 64, Condition::ActualRuntimes, &scale_a);
    assert_ne!(exp_a.sequences, exp_b.sequences);
}
