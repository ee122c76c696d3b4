//! End-to-end integration: the full paper pipeline at miniature scale.
//!
//! Training data generation → score distribution → regression → learned
//! policy → dynamic scheduling experiment, crossing every crate boundary.

use dynsched::cluster::{Platform, DEFAULT_TAU};
use dynsched::core::pipeline::{learn_policies, TrainingConfig};
use dynsched::core::trials::TrialSpec;
use dynsched::core::tuples::TupleSpec;
use dynsched::core::{run_experiment, Experiment};
use dynsched::mlreg::{EnumerateOptions, TrainingSet};
use dynsched::policies::{BaseFunc, Fcfs, Policy};
use dynsched::scheduler::SchedulerConfig;
use dynsched::simkit::Rng;
use dynsched::workload::{LublinModel, Trace};

fn mini_training() -> TrainingConfig {
    TrainingConfig {
        tuple_spec: TupleSpec {
            s_size: 8,
            q_size: 16,
            max_start_offset: 100_000.0,
        },
        trial_spec: TrialSpec {
            trials: 1_500,
            platform: Platform::new(128),
            tau: DEFAULT_TAU,
        },
        tuples: 6,
        seed: 0xE2E,
    }
}

#[test]
fn pipeline_learns_a_plausible_policy() {
    let model = LublinModel::new(128);
    let opts = EnumerateOptions {
        max_iterations: 60,
        ..Default::default()
    };
    let report = learn_policies(&mini_training(), &model, &opts, 4);

    // The pooled distribution has one observation per Q task per tuple.
    assert_eq!(report.training_set.len(), 6 * 16);

    // The winner must be a sensible scheduling function: prioritize
    // earlier-arriving (smaller s) tasks, and at fixed arrival prefer the
    // smaller task — the monotonicity the paper reads off Fig. 3.
    let best = &report.fits[0].function;
    let early_small = best.eval(30.0, 2.0, 1_000.0);
    let late_small = best.eval(30.0, 2.0, 150_000.0);
    assert!(
        early_small < late_small,
        "earlier arrivals should score lower: {best}"
    );
    let small = best.eval(30.0, 2.0, 50_000.0);
    let huge = best.eval(50_000.0, 128.0, 50_000.0);
    assert!(small < huge, "small tasks should score lower: {best}");
}

#[test]
fn learned_policy_schedules_better_than_fcfs() {
    let model = LublinModel::new(128);
    let opts = EnumerateOptions {
        max_iterations: 60,
        ..Default::default()
    };
    let report = learn_policies(&mini_training(), &model, &opts, 1);
    let learned = report.policies.into_iter().next().expect("one policy");

    // A saturated workload on the same platform class.
    let mut rng = Rng::new(99);
    let mut gen = LublinModel::new(128);
    gen.arrival_scale = 0.15;
    let sequences: Vec<Trace> = (0..4).map(|_| gen.generate_jobs(250, &mut rng)).collect();
    let experiment = Experiment::new(
        "e2e",
        sequences,
        SchedulerConfig::actual_runtimes(Platform::new(128)),
    );
    let lineup: Vec<Box<dyn Policy>> = vec![Box::new(Fcfs), Box::new(learned)];
    let result = run_experiment(&experiment, &lineup);
    let fcfs = result.median_of("FCFS").expect("fcfs ran");
    let g1 = result.outcomes[1].median;
    assert!(
        g1 < fcfs,
        "freshly learned policy (median {g1}) should beat FCFS (median {fcfs})"
    );
}

#[test]
fn training_csv_roundtrips_through_the_artifact_format() {
    let model = LublinModel::new(128);
    let (_, training) = dynsched::core::generate_training_set(&mini_training(), &model);
    let csv = training.to_csv();
    let back = TrainingSet::from_csv(&csv).expect("own CSV parses");
    assert_eq!(back.len(), training.len());
    for (a, b) in training.observations().iter().zip(back.observations()) {
        assert!((a.score - b.score).abs() < 1e-12);
        assert_eq!(a.runtime, b.runtime);
    }
}

#[test]
fn table3_policies_have_the_published_structure() {
    // All four published policies share the (size-term) + c·log10(s) shape;
    // verify via the policy API rather than internal fields.
    use dynsched::policies::LearnedPolicy;
    for p in LearnedPolicy::table3() {
        let f = p.function();
        assert_eq!(
            f.gamma,
            BaseFunc::Log10,
            "{}: s-term must be log10",
            p.name()
        );
        assert!(
            f.coefficients[2] > 100.0,
            "{}: arrival term dominates",
            p.name()
        );
    }
}
