//! A Feitelson'96-style rigid-job workload model.
//!
//! Feitelson's 1996 model (JSSPP, "Packing schemes for gang scheduling")
//! predates Lublin–Feitelson and has a different anatomy: a hand-tailored
//! discrete *harmonic* size distribution with extra mass on powers of two
//! and "interesting" sizes, two-component hyper-exponential runtimes whose
//! mixing couples to the size, Poisson arrivals, and *job repetition*
//! (users resubmit the same job several times in a row).
//!
//! In this reproduction it serves one purpose: a workload that is
//! structurally unlike the Lublin model the policies were trained on, for
//! the cross-model generalization study (`bench generalization_models`) —
//! probing the paper's claim that the learned policies "generalize better
//! over different workloads".

use crate::trace::Trace;
use dynsched_cluster::Job;
use dynsched_simkit::dist::{Exponential, Sample};
use dynsched_simkit::Rng;

/// Harmonic exponent of the size distribution (`P(n) ∝ n^-h`); Feitelson
/// used ≈ 1.5.
const HARMONIC_EXPONENT: f64 = 1.5;
/// Multiplier on the probability of power-of-two sizes.
const POW2_BOOST: f64 = 3.0;
/// Mean of the short runtime component (seconds).
const SHORT_MEAN: f64 = 90.0;
/// Mean of the long runtime component (seconds).
const LONG_MEAN: f64 = 9_000.0;
/// Probability of the short component for a serial job; decays with
/// `log2(size)` so wide jobs skew long.
const SHORT_PROB_SERIAL: f64 = 0.75;
/// Probability that a job is repeated (geometric repetition count).
const REPEAT_PROB: f64 = 0.4;
/// Mean think time between repetitions (seconds).
const MEAN_THINK_TIME: f64 = 600.0;

/// Configuration of the Feitelson'96-style generator.
#[derive(Debug, Clone, PartialEq)]
pub struct FeitelsonModel {
    /// Platform width.
    pub max_cores: u32,
    /// Mean inter-arrival time of job *sessions* (seconds).
    pub mean_interarrival: f64,
}

impl FeitelsonModel {
    /// Runtime cap (seconds).
    pub const MAX_RUNTIME: f64 = 2.0 * 86_400.0;

    /// Model with Feitelson'96-flavoured defaults for `max_cores`.
    ///
    /// # Panics
    /// Panics if `max_cores < 2`.
    pub fn new(max_cores: u32) -> Self {
        assert!(max_cores >= 2);
        Self {
            max_cores,
            mean_interarrival: 900.0,
        }
    }

    /// Size-distribution weights over `1..=max_cores`.
    fn size_weights(&self) -> Vec<f64> {
        (1..=self.max_cores)
            .map(|n| {
                let base = (n as f64).powf(-HARMONIC_EXPONENT);
                if n.is_power_of_two() {
                    base * POW2_BOOST
                } else {
                    base
                }
            })
            .collect()
    }

    /// Sample a job size.
    pub fn sample_cores(&self, rng: &mut Rng) -> u32 {
        // The weight vector is O(max_cores); cache-friendly for the sizes
        // this model is used at (≤ a few thousand cores).
        1 + rng.choose_weighted(&self.size_weights()) as u32
    }

    /// Sample a runtime for a job of `cores` cores.
    pub fn sample_runtime(&self, cores: u32, rng: &mut Rng) -> f64 {
        let log_width = (cores.max(1) as f64).log2();
        let max_width = (self.max_cores as f64).log2();
        let short_prob = SHORT_PROB_SERIAL * (1.0 - 0.6 * log_width / max_width);
        let mean = if rng.chance(short_prob.clamp(0.05, 1.0)) {
            SHORT_MEAN
        } else {
            LONG_MEAN
        };
        Exponential::new(1.0 / mean)
            .sample(rng)
            .clamp(1.0, Self::MAX_RUNTIME)
    }

    /// Generate `count` jobs starting at time 0 (estimates = runtimes; use
    /// [`TsafrirEstimates`](crate::tsafrir::TsafrirEstimates) for realistic
    /// estimates).
    pub fn generate_jobs(&self, count: usize, rng: &mut Rng) -> Trace {
        let arrival = Exponential::new(1.0 / self.mean_interarrival);
        let think = Exponential::new(1.0 / MEAN_THINK_TIME);
        let mut jobs = Vec::with_capacity(count);
        let mut now = 0.0;
        let mut id = 0u32;
        while jobs.len() < count {
            let cores = self.sample_cores(rng);
            let runtime = self.sample_runtime(cores, rng);
            // The session: the job plus a geometric number of repetitions
            // with the same shape, spaced by think times.
            let mut submit = now;
            loop {
                jobs.push(Job::new(id, submit, runtime, runtime, cores));
                id += 1;
                if jobs.len() >= count || !rng.chance(REPEAT_PROB) {
                    break;
                }
                submit += runtime + think.sample(rng);
            }
            now += arrival.sample(rng);
        }
        Trace::from_jobs(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_in_range_and_small_heavy() {
        let m = FeitelsonModel::new(128);
        let mut rng = Rng::new(1);
        let sizes: Vec<u32> = (0..20_000).map(|_| m.sample_cores(&mut rng)).collect();
        assert!(sizes.iter().all(|&n| (1..=128).contains(&n)));
        let small = sizes.iter().filter(|&&n| n <= 8).count();
        assert!(
            small as f64 / sizes.len() as f64 > 0.5,
            "harmonic mass on small sizes"
        );
    }

    #[test]
    fn pow2_sizes_are_boosted() {
        let m = FeitelsonModel::new(128);
        let mut rng = Rng::new(2);
        let n = 40_000;
        let (mut at16, mut at17) = (0usize, 0usize);
        for _ in 0..n {
            match m.sample_cores(&mut rng) {
                16 => at16 += 1,
                17 => at17 += 1,
                _ => {}
            }
        }
        assert!(at16 > 2 * at17, "16 ({at16}) should dominate 17 ({at17})");
    }

    #[test]
    fn wide_jobs_skew_long() {
        let m = FeitelsonModel::new(128);
        let mut rng = Rng::new(3);
        let mean_rt = |cores: u32, rng: &mut Rng| {
            (0..4_000)
                .map(|_| m.sample_runtime(cores, rng))
                .sum::<f64>()
                / 4_000.0
        };
        let narrow = mean_rt(1, &mut rng);
        let wide = mean_rt(128, &mut rng);
        assert!(wide > narrow * 1.5, "narrow {narrow}, wide {wide}");
    }

    #[test]
    fn generates_requested_count_sorted() {
        let m = FeitelsonModel::new(64);
        let mut rng = Rng::new(4);
        let t = m.generate_jobs(300, &mut rng);
        assert_eq!(t.len(), 300);
        for w in t.jobs().windows(2) {
            assert!(w[1].submit >= w[0].submit);
        }
    }

    #[test]
    fn repetitions_create_identical_shapes() {
        let m = FeitelsonModel::new(64);
        let mut rng = Rng::new(5);
        let t = m.generate_jobs(200, &mut rng);
        // A session repeats its job 1 / (1 - REPEAT_PROB) times on average,
        // so many consecutive (runtime, cores) pairs repeat exactly.
        let mut shapes: Vec<(u64, u32)> = t
            .jobs()
            .iter()
            .map(|j| (j.runtime.to_bits(), j.cores))
            .collect();
        shapes.sort_unstable();
        shapes.dedup();
        assert!(
            shapes.len() < 150,
            "expected repeated shapes, found {} distinct of 200",
            shapes.len()
        );
    }

    #[test]
    fn deterministic() {
        let m = FeitelsonModel::new(64);
        let a = m.generate_jobs(100, &mut Rng::new(6));
        let b = m.generate_jobs(100, &mut Rng::new(6));
        assert_eq!(a, b);
    }
}
