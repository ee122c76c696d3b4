//! The Lublin–Feitelson rigid-job workload model.
//!
//! Lublin & Feitelson (JPDC 2003) model the stream of rigid jobs observed on
//! production parallel machines with three coupled components:
//!
//! 1. **Job size** (`n`): with probability `serial_prob` the job is serial;
//!    otherwise `log2(n)` follows a *two-stage uniform* distribution on
//!    `[ulow, umed] ∪ [umed, uhi]` (`uhi = log2(max_cores)`), and with
//!    probability `pow2_prob` the size is rounded to the nearest power of
//!    two. Small jobs dominate; a thin tail reaches machine scale.
//! 2. **Runtime** (`r`): `ln(r)` follows a *hyper-gamma* distribution whose
//!    mixing probability depends linearly on the job size,
//!    `p = pa·n + pb` (clamped to `[0,1]`) — so wide jobs skew long. The
//!    first component captures short jobs (~1 min median), the second long
//!    production runs (~3 h median).
//! 3. **Arrivals** (`s`): `ln(inter-arrival)` is gamma-distributed, with a
//!    daily cycle concentrating submissions in working hours.
//!
//! The upstream `lublin99.c` reference could not be consulted offline; the
//! constants below follow the published description and the values quoted in
//! secondary reproductions, and the *structure* (bimodal log-runtime,
//! size/runtime correlation, bursty day cycle, power-of-two sizes) is what
//! the scheduling results depend on. `arrival_scale` is an explicit knob for
//! calibrating offered load, used to match the utilizations in the paper's
//! Table 5 (see [`LublinModel::calibrated_to_load`]).
//!
//! # Calibration probes
//!
//! Calibration measures the offered load of three 30 000-job probe streams,
//! rescaling `arrival_scale` after each. A probe used to be a trace —
//! `generate_jobs`, a sort, a nine-field `summary` of which one field was
//! read — and the six Table-4 workloads spent 88 % of their build time on
//! the 540 000 probe jobs, ten times what they then generate. A probe now
//! keeps two numbers while it samples: the running sum of job areas, in
//! generation order, and the last submit time. Same draws in the same
//! order, the same sum term for term (a trace sorts by `(submit, id)` and
//! arrivals never decrease, so sorted order *is* generation order), the
//! same division — `arrival_scale` and the RNG state on return are
//! bit-identical to the materialised probe's, which the test module keeps
//! as the oracle. Calibration therefore allocates nothing, which is what
//! lets `core::scenarios` run it on pool threads without growing their
//! allocator arenas.

use crate::trace::Trace;
use dynsched_cluster::Job;
use dynsched_simkit::dist::{Gamma, Sample, TwoStageUniform};
use dynsched_simkit::Rng;

/// Hour-of-day arrival weights (mean 1.0 after normalization): quiet nights,
/// a morning ramp, and a broad working-hours plateau — the qualitative shape
/// reported by Lublin & Feitelson for the daily cycle.
const DAILY_PROFILE: [f64; 24] = [
    0.40, 0.30, 0.25, 0.22, 0.22, 0.25, // 00–06
    0.35, 0.60, 1.00, 1.45, 1.70, 1.80, // 06–12
    1.75, 1.80, 1.85, 1.80, 1.65, 1.40, // 12–18
    1.10, 0.90, 0.75, 0.65, 0.55, 0.45, // 18–24
];

/// Jobs per calibration probe. Like [`PROBE_ROUNDS`], an input to every
/// calibrated trace (and so to every result digest downstream).
const PROBE_JOBS: usize = 30_000;
/// Probes per calibration, each rescaling the arrival rate once.
const PROBE_ROUNDS: usize = 3;

/// Configuration of the Lublin–Feitelson generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LublinModel {
    /// Platform size; `uhi = log2(max_cores)`.
    pub max_cores: u32,
    /// Probability that a job is serial (one core).
    pub serial_prob: f64,
    /// Probability that a parallel job's size is a power of two.
    pub pow2_prob: f64,
    /// Lower bound of `log2(size)` for parallel jobs.
    pub ulow: f64,
    /// Break point of the two-stage uniform, as `uhi - umed_gap`.
    pub umed_gap: f64,
    /// Probability mass of the lower stage `[ulow, umed]`.
    pub uprob: f64,
    /// First (short-job) log-runtime gamma component: shape.
    pub a1: f64,
    /// First component: scale.
    pub b1: f64,
    /// Second (long-job) log-runtime gamma component: shape.
    pub a2: f64,
    /// Second component: scale.
    pub b2: f64,
    /// Slope of the size-dependent mixing probability `p = pa·n + pb`.
    pub pa: f64,
    /// Intercept of the mixing probability.
    pub pb: f64,
    /// Log-inter-arrival gamma: shape.
    pub aarr: f64,
    /// Log-inter-arrival gamma: scale.
    pub barr: f64,
    /// Multiplier on inter-arrival times; < 1 increases load. This is the
    /// calibration knob used to hit a target utilization.
    pub arrival_scale: f64,
    /// Cap on a single raw inter-arrival gap (seconds). `exp(gamma)` has a
    /// heavy right tail that occasionally emits multi-day silences real
    /// machines never show; the cap trims the tail while leaving the bulk
    /// of the fitted distribution untouched.
    pub max_gap: f64,
    /// Whether to modulate arrivals with the daily cycle.
    pub daily_cycle: bool,
    /// Hard cap on runtimes (s); production systems enforce a maximum
    /// walltime and the exp-gamma tail must not escape it.
    pub max_runtime: f64,
    /// Minimum runtime (s).
    pub min_runtime: f64,
}

impl LublinModel {
    /// The model with its published default constants, for a platform with
    /// `max_cores` cores.
    ///
    /// # Panics
    /// Panics if `max_cores < 2`.
    pub fn new(max_cores: u32) -> Self {
        assert!(max_cores >= 2, "the model needs a parallel machine");
        Self {
            max_cores,
            serial_prob: 0.2927,
            pow2_prob: 0.6686,
            ulow: 0.8,
            umed_gap: 3.0,
            uprob: 0.8604,
            a1: 4.2,
            b1: 0.94,
            a2: 312.0,
            b2: 0.03,
            pa: -0.0054,
            pb: 0.78,
            aarr: 10.23,
            barr: 0.4871,
            arrival_scale: 1.0,
            max_gap: 4.0 * 3_600.0,
            daily_cycle: true,
            max_runtime: 5.0 * 86_400.0,
            min_runtime: 1.0,
        }
    }

    /// Upper bound of `log2(size)`.
    fn uhi(&self) -> f64 {
        (self.max_cores as f64).log2()
    }

    /// Break point of the two-stage uniform.
    fn umed(&self) -> f64 {
        (self.uhi() - self.umed_gap)
            .max(self.ulow + 0.1)
            .min(self.uhi())
    }

    /// Sample a job size (number of cores).
    pub fn sample_cores(&self, rng: &mut Rng) -> u32 {
        if rng.chance(self.serial_prob) {
            return 1;
        }
        let dist = TwoStageUniform::new(self.ulow, self.umed(), self.uhi(), self.uprob);
        let log2_size = dist.sample(rng);
        let size = if rng.chance(self.pow2_prob) {
            2f64.powf(log2_size.round())
        } else {
            2f64.powf(log2_size).round()
        };
        (size as u32).clamp(1, self.max_cores)
    }

    /// Sample a runtime (seconds) for a job of `cores` cores.
    pub fn sample_runtime(&self, cores: u32, rng: &mut Rng) -> f64 {
        let p = (self.pa * cores as f64 + self.pb).clamp(0.0, 1.0);
        let ln_r = if rng.chance(p) {
            Gamma::new(self.a1, self.b1).sample(rng)
        } else {
            Gamma::new(self.a2, self.b2).sample(rng)
        };
        ln_r.exp().clamp(self.min_runtime, self.max_runtime)
    }

    /// Sample one raw inter-arrival gap (seconds), before the daily cycle.
    pub fn sample_raw_gap(&self, rng: &mut Rng) -> f64 {
        (Gamma::new(self.aarr, self.barr).sample(rng).exp() * self.arrival_scale).min(self.max_gap)
    }

    /// Arrival-intensity weight at time-of-day `tod` seconds (mean ≈ 1).
    pub fn daily_weight(tod: f64) -> f64 {
        let hour = ((tod.rem_euclid(86_400.0)) / 3_600.0) as usize % 24;
        let mean: f64 = DAILY_PROFILE.iter().sum::<f64>() / 24.0;
        DAILY_PROFILE[hour] / mean
    }

    /// Advance the arrival clock by one job, honouring the daily cycle via
    /// time-rescaling: the raw gap is "work" consumed at rate
    /// `daily_weight(t)`, so gaps stretch through the night and compress
    /// at midday. Integrating hour by hour (rather than scaling by the
    /// weight at the sampling instant) keeps long gaps from being
    /// multiplied wholesale by a single night-time weight.
    fn next_arrival(&self, now: f64, rng: &mut Rng) -> f64 {
        let mut gap = self.sample_raw_gap(rng);
        if !self.daily_cycle {
            return now + gap;
        }
        let mut t = now;
        loop {
            let w = Self::daily_weight(t).max(1e-3);
            let next_boundary = (t / 3_600.0).floor() * 3_600.0 + 3_600.0;
            let capacity = w * (next_boundary - t);
            if capacity >= gap {
                return t + gap / w;
            }
            gap -= capacity;
            t = next_boundary;
        }
    }

    /// Sample a `(runtime, cores)` pair with the model's size/runtime
    /// correlation (used by the training-tuple generator, which assigns its
    /// own arrival times).
    pub fn sample_shape(&self, rng: &mut Rng) -> (f64, u32) {
        let cores = self.sample_cores(rng);
        let runtime = self.sample_runtime(cores, rng);
        (runtime, cores)
    }

    /// Generate `count` jobs with arrivals starting at time 0. Estimates are
    /// initialised to the actual runtime; apply a
    /// [`TsafrirEstimates`](crate::tsafrir::TsafrirEstimates) model to
    /// obtain realistic user estimates.
    pub fn generate_jobs(&self, count: usize, rng: &mut Rng) -> Trace {
        let mut jobs = Vec::with_capacity(count);
        let mut now = 0.0;
        for id in 0..count {
            let (runtime, cores) = self.sample_shape(rng);
            jobs.push(Job::new(id as u32, now, runtime, runtime, cores));
            now = self.next_arrival(now, rng);
        }
        Trace::from_jobs(jobs)
    }

    /// Generate jobs until the arrival clock passes `span_seconds`.
    pub fn generate_span(&self, span_seconds: f64, rng: &mut Rng) -> Trace {
        let mut jobs = Vec::new();
        let mut now = 0.0;
        let mut id = 0u32;
        while now < span_seconds {
            let (runtime, cores) = self.sample_shape(rng);
            jobs.push(Job::new(id, now, runtime, runtime, cores));
            id += 1;
            now = self.next_arrival(now, rng);
        }
        Trace::from_jobs(jobs)
    }

    /// Return a copy whose `arrival_scale` is calibrated so the offered load
    /// (mean area / (capacity × mean gap)) approximates `target_load`.
    ///
    /// Job areas are heavy-tailed, so a point estimate from independent
    /// draws is unreliable; instead we iteratively probe with streams of
    /// `PROBE_JOBS` jobs and rescale until the measured offered load
    /// converges on the target. A probe materialises nothing (the module
    /// docs say what it keeps instead), so calibration allocates no memory.
    ///
    /// # Panics
    /// Panics if `target_load` is not in `(0, 1.5]`.
    pub fn calibrated_to_load(&self, target_load: f64, rng: &mut Rng) -> Self {
        assert!(
            target_load > 0.0 && target_load <= 1.5,
            "target load {target_load} out of range"
        );
        let mut out = *self;
        for _ in 0..PROBE_ROUNDS {
            let load = out.probe_load(rng);
            if !load.is_finite() || load <= 0.0 {
                break;
            }
            out.arrival_scale *= load / target_load;
        }
        out
    }

    /// One calibration probe: the offered load of the next [`PROBE_JOBS`]
    /// jobs on `max_cores` cores, measured while they are sampled.
    ///
    /// The draws are [`LublinModel::generate_jobs`]' draws in its order —
    /// shape, then the gap to the next job, the gap after the last job
    /// included — so `rng` is left where generating the probe trace would
    /// leave it. And the load is the bits `Trace::summary` would report for
    /// that trace: arrivals never decrease, so the trace's `(submit, id)`
    /// order is generation order and its `total_area` is this running sum,
    /// term for term; its span is the last submit, the first being 0.
    fn probe_load(&self, rng: &mut Rng) -> f64 {
        let mut area = 0.0;
        let mut now = 0.0;
        let mut last_submit = 0.0;
        for _ in 0..PROBE_JOBS {
            let (runtime, cores) = self.sample_shape(rng);
            area += runtime * cores as f64;
            last_submit = now;
            now = self.next_arrival(now, rng);
        }
        if last_submit > 0.0 {
            area / (self.max_cores as f64 * last_submit)
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_respect_bounds() {
        let m = LublinModel::new(256);
        let mut rng = Rng::new(1);
        for _ in 0..20_000 {
            let n = m.sample_cores(&mut rng);
            assert!((1..=256).contains(&n));
        }
    }

    #[test]
    fn serial_fraction_matches_parameter() {
        let m = LublinModel::new(256);
        let mut rng = Rng::new(2);
        let n = 50_000;
        let serial = (0..n).filter(|_| m.sample_cores(&mut rng) == 1).count();
        let frac = serial as f64 / n as f64;
        // serial_prob plus a small contribution from parallel draws rounding
        // to 1 (log2 size < 0.5 with pow2 rounding).
        assert!(frac > 0.25 && frac < 0.40, "serial fraction {frac}");
    }

    #[test]
    fn pow2_sizes_are_frequent() {
        let m = LublinModel::new(256);
        let mut rng = Rng::new(3);
        let n = 50_000;
        let pow2 = (0..n)
            .filter(|_| {
                let c = m.sample_cores(&mut rng);
                c > 1 && c.is_power_of_two()
            })
            .count();
        // Of the ~70% parallel jobs, ~2/3 should be powers of two, plus
        // accidental hits from the rounded branch.
        let frac = pow2 as f64 / n as f64;
        assert!(frac > 0.40, "pow2 fraction {frac}");
    }

    #[test]
    fn small_sizes_dominate() {
        let m = LublinModel::new(256);
        let mut rng = Rng::new(4);
        let n = 50_000;
        let small = (0..n).filter(|_| m.sample_cores(&mut rng) <= 32).count();
        assert!(small as f64 / n as f64 > 0.75);
    }

    #[test]
    fn runtimes_are_clamped() {
        let m = LublinModel::new(256);
        let mut rng = Rng::new(5);
        for _ in 0..20_000 {
            let r = m.sample_runtime(16, &mut rng);
            assert!(r >= m.min_runtime && r <= m.max_runtime);
        }
    }

    #[test]
    fn wide_jobs_run_longer_in_median() {
        let m = LublinModel::new(256);
        let mut rng = Rng::new(6);
        let sample_median = |cores: u32, rng: &mut Rng| {
            let mut xs: Vec<f64> = (0..5_001).map(|_| m.sample_runtime(cores, rng)).collect();
            xs.sort_by(f64::total_cmp);
            xs[2_500]
        };
        let narrow = sample_median(1, &mut rng);
        let wide = sample_median(200, &mut rng);
        assert!(
            wide > narrow * 3.0,
            "wide jobs should skew long: narrow {narrow}, wide {wide}"
        );
    }

    #[test]
    fn log_runtime_is_bimodal() {
        // Short component median ~ e^{a1*b1} ≈ 52 s; long ~ e^{a2*b2} ≈ 3.2 h.
        let m = LublinModel::new(256);
        let mut rng = Rng::new(7);
        let mut short = 0;
        let mut long = 0;
        for _ in 0..20_000 {
            let r = m.sample_runtime(1, &mut rng);
            if r < 600.0 {
                short += 1;
            }
            if r > 3_600.0 {
                long += 1;
            }
        }
        assert!(short > 5_000, "expected a strong short mode, got {short}");
        assert!(long > 2_000, "expected a long tail, got {long}");
    }

    #[test]
    fn arrivals_are_increasing_and_positive() {
        let m = LublinModel::new(256);
        let mut rng = Rng::new(8);
        let t = m.generate_jobs(500, &mut rng);
        let jobs = t.jobs();
        assert_eq!(jobs.len(), 500);
        for w in jobs.windows(2) {
            assert!(w[1].submit >= w[0].submit);
        }
        assert_eq!(jobs[0].submit, 0.0);
    }

    #[test]
    fn daily_weight_is_normalized_and_peaks_in_working_hours() {
        let mean: f64 = (0..24)
            .map(|h| LublinModel::daily_weight(h as f64 * 3600.0))
            .sum::<f64>()
            / 24.0;
        assert!((mean - 1.0).abs() < 1e-9);
        let night = LublinModel::daily_weight(3.0 * 3600.0);
        let midday = LublinModel::daily_weight(14.0 * 3600.0);
        assert!(midday > 3.0 * night);
    }

    #[test]
    fn arrival_scale_scales_gaps() {
        let mut m = LublinModel::new(256);
        m.daily_cycle = false;
        m.max_gap = f64::INFINITY; // the cap truncates scales differently
        let mean_gap = |m: &LublinModel| {
            let mut rng = Rng::new(9);
            (0..20_000).fold(0.0, |now, _| m.next_arrival(now, &mut rng)) / 20_000.0
        };
        let base = mean_gap(&m);
        m.arrival_scale = 0.5;
        let halved = mean_gap(&m);
        assert!(
            (halved / base - 0.5).abs() < 0.02,
            "ratio {}",
            halved / base
        );
    }

    #[test]
    fn calibration_hits_target_load() {
        let m = LublinModel::new(256);
        let mut rng = Rng::new(10);
        let calibrated = m.calibrated_to_load(0.7, &mut rng);
        let trace = calibrated.generate_jobs(30_000, &mut rng);
        let load = trace.summary(256).unwrap().offered_load;
        // Heavy-tailed areas make even long-horizon loads noisy; the
        // calibration should land within ±35% of the target.
        assert!(
            load > 0.45 && load < 0.95,
            "calibrated load {load}, expected ≈ 0.7"
        );
    }

    /// The probe's slow twin, kept as the oracle: each round materialises
    /// the probe trace and reads its load off the trace summary.
    fn calibrated_to_load_materialised(
        model: &LublinModel,
        target_load: f64,
        rng: &mut Rng,
    ) -> LublinModel {
        let mut out = *model;
        for _ in 0..PROBE_ROUNDS {
            let probe = out.generate_jobs(PROBE_JOBS, rng);
            let load = probe.summary(model.max_cores).unwrap().offered_load;
            if !load.is_finite() || load <= 0.0 {
                break;
            }
            out.arrival_scale *= load / target_load;
        }
        out
    }

    #[test]
    fn streamed_probes_are_the_materialised_probes_bits() {
        let archive_walltime = crate::archive::ArchivePlatform::CTC_SP2.max_walltime;
        // Every (width, walltime cap, load) cell under two seeds of its own:
        // 48 seeds in all.
        let mut seed = 0xCA11_u64;
        for max_cores in [2, 256, 1_024, 93_312] {
            for max_runtime in [None, Some(archive_walltime)] {
                let mut base = LublinModel::new(max_cores);
                if let Some(cap) = max_runtime {
                    base.max_runtime = cap;
                }
                for target_load in [0.3, 0.9, 1.5] {
                    for _ in 0..2 {
                        seed += 1;
                        let case = format!(
                            "{max_cores} cores, cap {max_runtime:?}, load {target_load}, seed {seed}"
                        );
                        let mut fast_rng = Rng::new(seed);
                        let mut slow_rng = fast_rng.clone();
                        let fast = base.calibrated_to_load(target_load, &mut fast_rng);
                        let slow =
                            calibrated_to_load_materialised(&base, target_load, &mut slow_rng);
                        assert_eq!(fast, slow, "{case}");
                        assert_ne!(fast.arrival_scale, base.arrival_scale, "{case}");
                        assert_eq!(fast_rng.next_u64(), slow_rng.next_u64(), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_probe_that_never_advances_leaves_the_scale_alone() {
        // A zero arrival scale submits every job at t = 0: the probe's span
        // is zero, its load infinite, and calibration stops at once.
        let mut m = LublinModel::new(64);
        m.arrival_scale = 0.0;
        let mut rng = Rng::new(14);
        let mut slow_rng = rng.clone();
        assert_eq!(m.calibrated_to_load(0.7, &mut rng), m);
        assert_eq!(calibrated_to_load_materialised(&m, 0.7, &mut slow_rng), m);
        assert_eq!(rng.next_u64(), slow_rng.next_u64());
    }

    #[test]
    fn generate_span_covers_requested_horizon() {
        let m = LublinModel::new(64);
        let mut rng = Rng::new(11);
        let t = m.generate_span(86_400.0, &mut rng);
        assert!(!t.is_empty());
        assert!(t.end_time().unwrap() < 86_400.0 + 1.0);
    }

    #[test]
    fn shapes_are_deterministic_per_seed() {
        let m = LublinModel::new(256);
        let mut a = Rng::new(12);
        let mut b = Rng::new(12);
        for _ in 0..100 {
            assert_eq!(m.sample_shape(&mut a), m.sample_shape(&mut b));
        }
    }

    #[test]
    fn model_for_1024_cores_reaches_wider_sizes() {
        let m = LublinModel::new(1024);
        let mut rng = Rng::new(13);
        let max = (0..50_000).map(|_| m.sample_cores(&mut rng)).max().unwrap();
        assert!(
            max > 256,
            "1024-core model should emit wide jobs, max {max}"
        );
    }
}
