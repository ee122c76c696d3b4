//! The Tsafrir–Etsion–Feitelson user runtime-estimate model.
//!
//! Tsafrir et al. (JSSPP 2005) observed that user-provided walltime
//! estimates on production machines are **modal**: a small menu of round
//! values ("1 hour", "30 minutes", "4 hours", …) covers the vast majority of
//! jobs, about twenty values cover ~90%, estimates almost always
//! over-estimate (jobs exceeding their estimate are killed), and the
//! accuracy ratio `r/e` is spread widely over `(0, 1]` with a spike at 1.
//!
//! This module reproduces those properties: each job draws a target
//! accuracy from a spiked-uniform distribution, divides its actual runtime
//! by it, and rounds the result *up* to the next canonical round value. The
//! original model's exact per-mode popularity table could not be consulted
//! offline; the emergent popularity here is induced by the runtime
//! distribution and the round-value menu, which preserves the modal,
//! over-estimating structure the scheduling experiments are sensitive to.

use crate::trace::Trace;
use dynsched_cluster::Job;
use dynsched_simkit::Rng;

/// Canonical round estimate values, in seconds: 1–45 minutes, then round
/// hour counts up to 3 days. This is the "menu" users pick walltimes from.
pub const ROUND_VALUES: [f64; 24] = [
    60.0, 120.0, 300.0, 600.0, 900.0, 1_200.0, 1_800.0, 2_700.0, 3_600.0, 5_400.0, 7_200.0,
    10_800.0, 14_400.0, 18_000.0, 21_600.0, 28_800.0, 36_000.0, 43_200.0, 57_600.0, 64_800.0,
    86_400.0, 129_600.0, 172_800.0, 259_200.0,
];

/// Probability that the user's estimate is exact (`e` is the smallest round
/// value ≥ `r`, i.e. the job "runs into" its estimate).
const EXACT_HIT_PROB: f64 = 0.15;
/// Lower bound of the accuracy ratio `r/e` for the non-exact case.
const MIN_ACCURACY: f64 = 0.05;

/// Configuration of the estimate generator: estimates come from
/// [`ROUND_VALUES`], capped at the site's walltime limit.
#[derive(Debug, Clone, PartialEq)]
pub struct TsafrirEstimates {
    /// Hard ceiling (site maximum walltime), seconds.
    pub max_estimate: f64,
}

impl Default for TsafrirEstimates {
    fn default() -> Self {
        Self {
            max_estimate: ROUND_VALUES[ROUND_VALUES.len() - 1],
        }
    }
}

impl TsafrirEstimates {
    /// Model with the default menu and a custom site walltime limit.
    pub fn with_max_estimate(max_estimate: f64) -> Self {
        assert!(max_estimate > 0.0, "max estimate must be positive");
        Self { max_estimate }
    }

    /// Smallest round value ≥ `x`, or the ceiling if `x` exceeds the menu.
    fn round_up(&self, x: f64) -> f64 {
        for v in ROUND_VALUES {
            if v >= x {
                return v.min(self.max_estimate);
            }
        }
        self.max_estimate
    }

    /// Draw an estimate for a job with actual runtime `runtime`.
    ///
    /// Guarantees `estimate >= runtime` (users whose jobs would be killed
    /// immediately don't exist in the traces) and `estimate` is a round
    /// value unless the runtime itself exceeds the menu ceiling.
    pub fn estimate_for(&self, runtime: f64, rng: &mut Rng) -> f64 {
        assert!(
            runtime >= 0.0 && runtime.is_finite(),
            "bad runtime {runtime}"
        );
        if runtime >= self.max_estimate {
            // Over-limit job: the user requested exactly the site maximum
            // (such jobs exist in archive logs); keep e >= r so the
            // simulation semantics stay consistent.
            return runtime;
        }
        let accuracy = if rng.chance(EXACT_HIT_PROB) {
            1.0
        } else {
            rng.range_f64(MIN_ACCURACY, 1.0)
        };
        let target = runtime / accuracy;
        self.round_up(target.max(runtime)).max(runtime)
    }

    /// Return a copy of `trace` with fresh estimates for every job.
    pub fn apply(&self, trace: &Trace, rng: &mut Rng) -> Trace {
        let jobs = trace
            .jobs()
            .iter()
            .map(|j| {
                Job::new(
                    j.id,
                    j.submit,
                    j.runtime,
                    self.estimate_for(j.runtime, rng),
                    j.cores,
                )
            })
            .collect();
        Trace::from_jobs(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn menu_is_ascending() {
        for w in ROUND_VALUES.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn estimates_never_below_runtime() {
        let m = TsafrirEstimates::default();
        let mut rng = Rng::new(1);
        for i in 1..5_000 {
            let r = (i as f64) * 37.0 % 90_000.0 + 1.0;
            let e = m.estimate_for(r, &mut rng);
            assert!(e >= r, "estimate {e} < runtime {r}");
        }
    }

    #[test]
    fn estimates_are_modal() {
        let m = TsafrirEstimates::default();
        let mut rng = Rng::new(2);
        let mut on_menu = 0;
        let n = 10_000;
        for i in 0..n {
            let r = 10.0 + (i as f64 * 7.3) % 20_000.0;
            let e = m.estimate_for(r, &mut rng);
            if ROUND_VALUES.contains(&e) {
                on_menu += 1;
            }
        }
        assert!(on_menu as f64 / n as f64 > 0.99, "menu hits {on_menu}/{n}");
    }

    #[test]
    fn accuracy_spike_at_one() {
        // With EXACT_HIT_PROB = 0.15 and rounding-up, the smallest round
        // value >= r is chosen noticeably often.
        let m = TsafrirEstimates::default();
        let mut rng = Rng::new(3);
        let n = 10_000;
        let mut tight = 0;
        for i in 0..n {
            let r = 100.0 + (i as f64 * 13.7) % 10_000.0;
            let e = m.estimate_for(r, &mut rng);
            if e == m.round_up(r) {
                tight += 1;
            }
        }
        assert!(tight as f64 / n as f64 > 0.15);
    }

    #[test]
    fn over_limit_jobs_keep_e_geq_r() {
        let m = TsafrirEstimates::default();
        let mut rng = Rng::new(4);
        let r = 500_000.0; // beyond the 3-day menu ceiling
        let e = m.estimate_for(r, &mut rng);
        assert!(e >= r);
    }

    #[test]
    fn estimates_overestimate_on_average() {
        let m = TsafrirEstimates::default();
        let mut rng = Rng::new(5);
        let n = 20_000;
        let mut sum_acc = 0.0;
        for i in 0..n {
            let r = 50.0 + (i as f64 * 11.1) % 30_000.0;
            let e = m.estimate_for(r, &mut rng);
            sum_acc += r / e;
        }
        let mean_acc = sum_acc / n as f64;
        assert!(
            mean_acc > 0.25 && mean_acc < 0.85,
            "mean accuracy {mean_acc} outside the plausible band"
        );
    }

    #[test]
    fn apply_preserves_everything_but_estimates() {
        let t = Trace::from_jobs(vec![
            Job::new(0, 0.0, 100.0, 100.0, 4),
            Job::new(1, 60.0, 3_000.0, 3_000.0, 16),
        ]);
        let m = TsafrirEstimates::default();
        let mut rng = Rng::new(6);
        let t2 = m.apply(&t, &mut rng);
        assert_eq!(t2.len(), 2);
        for (a, b) in t.jobs().iter().zip(t2.jobs()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.submit, b.submit);
            assert_eq!(a.runtime, b.runtime);
            assert_eq!(a.cores, b.cores);
            assert!(b.estimate >= b.runtime);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let m = TsafrirEstimates::default();
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for i in 0..200 {
            let r = 10.0 + i as f64 * 91.0;
            assert_eq!(m.estimate_for(r, &mut a), m.estimate_for(r, &mut b));
        }
    }
}
