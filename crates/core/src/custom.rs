//! Platform-specific policy training from a platform's own trace.
//!
//! The paper's conclusion (§5): *"we could envision the same procedure
//! being applied to obtain custom scheduling policies for a specific HPC
//! platform, using its specific workload traces and architecture
//! configurations."* This module implements that direction: `(S, Q)`
//! tuples are sampled from windows of a real (or stand-in) trace rather
//! than from the Lublin generator, and the identical trial → score →
//! regression pipeline produces policies tuned to the platform.
//!
//! See `examples/custom_platform_policy.rs` for the end-to-end comparison
//! of a custom policy against the paper's general F1–F4 on held-out
//! windows of the same platform.

use crate::pipeline::{draw_tuples, pooled_training_set, LearnedReport, TrainingConfig};
use crate::tuples::{TaskTuple, TupleSpec};
use dynsched_cluster::{Job, JobId};
use dynsched_mlreg::{fit_all, top_policies, EnumerateOptions};
use dynsched_simkit::Rng;
use dynsched_workload::Trace;

/// Sample one `(S, Q)` tuple from a contiguous window of `trace`.
///
/// A random window of `s_size + q_size` consecutive jobs is selected; the
/// first `s_size` become the warmup set `S` (their submits collapsed to the
/// window's start, matching the simulation scheme's "S arrives first"),
/// and the rest become `Q` with their original relative arrival times.
/// Ids are renumbered `0..s_size+q_size` as the trial machinery expects.
///
/// # Panics
/// Panics if the trace has fewer than `s_size + q_size` jobs.
pub fn tuple_from_trace(trace: &Trace, spec: &TupleSpec, rng: &mut Rng) -> TaskTuple {
    let jobs = trace.jobs();
    let need = spec.s_size + spec.q_size;
    assert!(
        jobs.len() >= need,
        "trace has {} jobs but a tuple needs {need}",
        jobs.len()
    );
    let start = rng.next_below((jobs.len() - need + 1) as u64) as usize;
    let window = &jobs[start..start + need];
    let t0 = window[0].submit;
    let s_tasks: Vec<Job> = window[..spec.s_size]
        .iter()
        .enumerate()
        .map(|(i, j)| Job::new(i as JobId, t0, j.runtime, j.estimate, j.cores))
        .collect();
    let q_tasks: Vec<Job> = window[spec.s_size..]
        .iter()
        .enumerate()
        .map(|(i, j)| {
            // Q must arrive strictly after S; trace windows can contain
            // simultaneous submits, so nudge by a microsecond when needed.
            let submit = j.submit.max(t0 + 1e-6);
            Job::new(
                (spec.s_size + i) as JobId,
                submit,
                j.runtime,
                j.estimate,
                j.cores,
            )
        })
        .collect();
    TaskTuple { s_tasks, q_tasks }
}

/// Run the full pipeline against `trace`: sample `config.tuples` windows,
/// run permutation trials, pool observations, fit the family, export the
/// best `top_k` policies (named `G1..`). `config.tuple_spec`'s start offset
/// is unused: window positions come from the trace itself.
///
/// Every window's trials run in **one** batched trial session, on the
/// streams of [`generate_training_set`](crate::pipeline::generate_training_set):
/// `2i` picks window `i`, `2i + 1` seeds its trials.
pub fn learn_custom_policies(
    trace: &Trace,
    config: &TrainingConfig,
    enumerate: &EnumerateOptions,
    top_k: usize,
) -> LearnedReport {
    let tuples = draw_tuples(config, |rng| {
        tuple_from_trace(trace, &config.tuple_spec, rng)
    });
    let (tuples, pooled) = pooled_training_set(config, tuples);
    let fits = fit_all(&pooled, enumerate);
    let policies = top_policies(&fits, top_k);
    LearnedReport {
        tuples,
        training_set: pooled,
        fits,
        policies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trials::{to_observations, trial_scores, TrialSpec};
    use dynsched_cluster::Platform;
    use dynsched_mlreg::{FitResult, Observation, TrainingSet};
    use dynsched_workload::LublinModel;

    fn platform_trace() -> Trace {
        let mut rng = Rng::new(77);
        LublinModel::new(64).generate_jobs(400, &mut rng)
    }

    fn spec() -> TupleSpec {
        TupleSpec {
            s_size: 4,
            q_size: 8,
            max_start_offset: 0.0,
        }
    }

    #[test]
    fn tuple_from_trace_has_window_structure() {
        let trace = platform_trace();
        let mut rng = Rng::new(1);
        let t = tuple_from_trace(&trace, &spec(), &mut rng);
        assert_eq!(t.s_tasks.len(), 4);
        assert_eq!(t.q_tasks.len(), 8);
        let t0 = t.s_tasks[0].submit;
        for s in &t.s_tasks {
            assert_eq!(s.submit, t0);
        }
        for q in &t.q_tasks {
            assert!(q.submit > t0);
            assert!(t.is_q_task(q.id));
        }
    }

    #[test]
    fn tuple_job_shapes_come_from_the_trace() {
        let trace = platform_trace();
        let mut rng = Rng::new(2);
        let t = tuple_from_trace(&trace, &spec(), &mut rng);
        // Every (runtime, cores) pair of the tuple exists in the trace.
        for job in t.all_jobs() {
            assert!(
                trace
                    .jobs()
                    .iter()
                    .any(|j| j.runtime == job.runtime && j.cores == job.cores),
                "tuple job not found in trace"
            );
        }
    }

    #[test]
    fn different_seeds_sample_different_windows() {
        let trace = platform_trace();
        let a = tuple_from_trace(&trace, &spec(), &mut Rng::new(3));
        let b = tuple_from_trace(&trace, &spec(), &mut Rng::new(4));
        assert_ne!(a, b);
    }

    fn custom_config() -> TrainingConfig {
        TrainingConfig {
            tuple_spec: spec(),
            trial_spec: TrialSpec {
                trials: 160,
                platform: Platform::new(64),
                tau: 10.0,
            },
            tuples: 4,
            seed: 9,
        }
    }

    #[test]
    fn learn_custom_policies_end_to_end() {
        let trace = platform_trace();
        let opts = EnumerateOptions {
            max_iterations: 25,
            ..Default::default()
        };
        let report = learn_custom_policies(&trace, &custom_config(), &opts, 2);
        assert_eq!(report.training_set.len(), 4 * 8);
        assert_eq!(report.policies.len(), 2);
        assert!(report.fits[0].fitness.is_finite());
    }

    #[test]
    fn one_batched_session_is_the_per_window_loop_bit_for_bit() {
        let (trace, config) = (platform_trace(), custom_config());
        let opts = EnumerateOptions {
            max_iterations: 25,
            ..Default::default()
        };
        let report = learn_custom_policies(&trace, &config, &opts, 2);
        // The loop this replaced: one `trial_scores` per window, in order.
        let master = Rng::new(config.seed);
        let mut pooled = TrainingSet::default();
        for i in 0..config.tuples {
            let mut window_rng = master.fork(2 * i as u64);
            let tuple = tuple_from_trace(&trace, &config.tuple_spec, &mut window_rng);
            let trial_master = master.fork(2 * i as u64 + 1);
            let scores = trial_scores(&tuple, &config.trial_spec, &trial_master);
            pooled.extend_from(&to_observations(&tuple, &scores));
            assert_eq!(tuple, report.tuples[i], "window {i}");
        }
        let fits = fit_all(&pooled, &opts);
        let observation_bits = |set: &TrainingSet| -> Vec<[u64; 4]> {
            let bits = |o: &Observation| [o.runtime, o.cores, o.submit, o.score].map(f64::to_bits);
            set.observations().iter().map(bits).collect()
        };
        assert_eq!(
            observation_bits(&report.training_set),
            observation_bits(&pooled)
        );
        let fit_bits = |fits: &[FitResult]| -> Vec<(usize, [u64; 5], bool)> {
            let bits = |f: &FitResult| {
                let [c1, c2, c3] = f.function.coefficients;
                let values = [c1, c2, c3, f.fitness, f.weighted_sse];
                (f.family_index, values.map(f64::to_bits), f.converged)
            };
            fits.iter().map(bits).collect()
        };
        assert_eq!(fit_bits(&report.fits), fit_bits(&fits));
    }

    #[test]
    #[should_panic(expected = "but a tuple needs 12")]
    fn tiny_trace_rejected() {
        let trace = Trace::from_jobs(vec![Job::new(0, 0.0, 1.0, 1.0, 1)]);
        tuple_from_trace(&trace, &spec(), &mut Rng::new(0));
    }
}
