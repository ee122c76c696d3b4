//! Trial-count convergence study (the paper's Figure 2).
//!
//! How many permutation trials are needed for a stable trial score
//! distribution? The paper repeats the trial procedure ten times per trial
//! count (1k … 512k), measures the standard deviation of the estimated
//! scores across repetitions, and normalizes; 256k trials give a
//! normalized deviation of 0.02, at which point they stop.

use crate::trials::{trial_scores_batched, TrialBatch, TrialSpec};
use crate::tuples::TaskTuple;
use dynsched_simkit::stats::std_dev_population;
use dynsched_simkit::Rng;

/// One point of the convergence curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergencePoint {
    /// Number of trials per repetition.
    pub trials: usize,
    /// Mean (over tasks) standard deviation of the score across
    /// repetitions.
    pub score_std: f64,
    /// `score_std` normalized by the curve's maximum (paper's y-axis).
    pub normalized_std: f64,
}

/// Measure the convergence curve for one tuple.
///
/// For each entry of `trial_counts`, runs `repetitions` independent trial
/// batches (fresh permutation streams), computes the per-task standard
/// deviation of the score across repetitions, averages over tasks, and
/// finally normalizes the whole curve by its maximum.
///
/// Every `(count × repetition)` cell of the study runs in **one** batched
/// trial session ([`trial_scores_batched`]): the tuple's trace is built
/// once and the whole curve shares one trial index space, with per-cell
/// streams forked from `(master, count index × 1000 + repetition)` exactly
/// as the sequential per-cell loop did — the per-cell distributions are
/// bit-identical to it.
pub fn convergence_curve(
    tuple: &TaskTuple,
    trial_counts: &[usize],
    repetitions: usize,
    base_spec: &TrialSpec,
    master: &Rng,
) -> Vec<ConvergencePoint> {
    assert!(
        repetitions >= 2,
        "need at least two repetitions for a deviation"
    );
    let q = tuple.q_tasks.len();
    let batches: Vec<TrialBatch<'_>> = trial_counts
        .iter()
        .enumerate()
        .flat_map(|(ci, &count)| {
            (0..repetitions).map(move |rep| TrialBatch {
                tuple,
                trials: count,
                master: master.fork((ci * 1_000 + rep) as u64),
            })
        })
        .collect();
    let all_scores = trial_scores_batched(&batches, base_spec.platform, base_spec.tau);

    let mut raw: Vec<(usize, f64)> = Vec::with_capacity(trial_counts.len());
    for (ci, &count) in trial_counts.iter().enumerate() {
        // Score matrix of this count: repetitions × q.
        let mut per_task: Vec<Vec<f64>> = vec![Vec::with_capacity(repetitions); q];
        for scores in &all_scores[ci * repetitions..(ci + 1) * repetitions] {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuples::TupleSpec;
    use dynsched_cluster::Platform;
    use dynsched_workload::LublinModel;

    #[test]
    fn deviation_shrinks_with_more_trials() {
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
        let curve = convergence_curve(&tuple, &[64, 1_024], 4, &base, &Rng::new(22));
        assert_eq!(curve.len(), 2);
        assert!(
            curve[1].score_std < curve[0].score_std,
            "std should fall with 16x the trials: {curve:?}"
        );
        // Normalization: max point is exactly 1.
        let max_norm = curve.iter().map(|p| p.normalized_std).fold(0.0, f64::max);
        assert!((max_norm - 1.0).abs() < 1e-12);
    }
}
