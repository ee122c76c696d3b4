//! Shape checks against the paper's headline claims, at reduced scale.
//!
//! Absolute medians depend on workload calibration; these tests assert the
//! *structural* results the paper reports: learned policies beat the
//! ad-hoc line-up, backfilling helps FCFS the most, and estimates degrade
//! everyone but the learned policies stay ahead.

use dynsched::core::scenarios::{model_scenario_in, Condition, ScenarioScale};
use dynsched::core::{learned_beat_adhoc, run_experiment, ExperimentResult};
use dynsched::policies::paper_lineup;
use dynsched::workload::TraceStore;

fn run(condition: Condition) -> ExperimentResult {
    let scale = ScenarioScale::quick();
    let experiment = model_scenario_in(&TraceStore::new(), 256, condition, &scale);
    run_experiment(&experiment, &paper_lineup())
}

#[test]
fn learned_policies_beat_adhoc_on_the_model_actual_runtimes() {
    let result = run(Condition::ActualRuntimes);
    assert!(
        learned_beat_adhoc(&result),
        "best F must beat best ad-hoc: {:?}",
        result
            .outcomes
            .iter()
            .map(|o| (o.policy.clone(), o.median))
            .collect::<Vec<_>>()
    );
    // FCFS is the weakest of the line-up on a saturated model workload.
    let fcfs = result.median_of("FCFS").unwrap();
    for p in ["F1", "F2", "F3", "F4", "SPT", "UNI"] {
        assert!(result.median_of(p).unwrap() < fcfs, "{p} should beat FCFS");
    }
}

#[test]
fn learned_policies_stay_ahead_with_user_estimates() {
    let result = run(Condition::UserEstimates);
    assert!(learned_beat_adhoc(&result));
}

#[test]
fn backfilling_helps_fcfs_most() {
    let strict = run(Condition::UserEstimates);
    let backfilled = run(Condition::EstimatesWithBackfilling);
    let gain = |r1: &ExperimentResult, r2: &ExperimentResult, p: &str| {
        r1.median_of(p).unwrap() / r2.median_of(p).unwrap().max(1.0)
    };
    let fcfs_gain = gain(&strict, &backfilled, "FCFS");
    assert!(fcfs_gain > 1.0, "EASY must improve FCFS (gain {fcfs_gain})");
    // The learned policies gain less than FCFS does (better initial order
    // leaves less to backfill — §4.2.3).
    let f1_gain = gain(&strict, &backfilled, "F1");
    assert!(
        fcfs_gain > f1_gain,
        "FCFS should benefit more from backfilling (FCFS {fcfs_gain}, F1 {f1_gain})"
    );
    // And with backfilling the learned policies still lead.
    assert!(learned_beat_adhoc(&backfilled));
}
