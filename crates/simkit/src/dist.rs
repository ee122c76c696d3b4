//! Statistical distributions used by the workload models.
//!
//! The Lublin–Feitelson model needs gamma variates (its runtime is a
//! two-component gamma mixture, which `lublin.rs` draws from two [`Gamma`]s
//! directly), plus the "two-stage uniform" distribution used for job sizes
//! in log space. The Tsafrir estimate model needs categorical draws. All samplers consume the in-tree [`crate::rng::Rng`] so the
//! whole pipeline stays deterministic under a single seed.

use crate::rng::Rng;

/// A sampleable one-dimensional distribution.
pub trait Sample {
    /// Draw one variate.
    fn sample(&self, rng: &mut Rng) -> f64;

    /// Theoretical mean, if defined in closed form.
    fn mean(&self) -> Option<f64> {
        None
    }
}

/// Continuous uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Create a uniform distribution; requires `lo <= hi` and finite bounds.
    pub fn new(lo: f64, hi: f64) -> Self {
        // Caller contract (doc above): finite bounds in order.
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid uniform bounds"
        );
        Self { lo, hi }
    }
}

impl Sample for Uniform {
    fn sample(&self, rng: &mut Rng) -> f64 {
        rng.range_f64(self.lo, self.hi)
    }

    fn mean(&self) -> Option<f64> {
        Some(0.5 * (self.lo + self.hi))
    }
}

/// Exponential distribution with rate `lambda`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Create an exponential distribution; requires `lambda > 0`.
    pub fn new(lambda: f64) -> Self {
        // Caller contract: rates come from model constants or validated flags.
        assert!(
            lambda > 0.0 && lambda.is_finite(),
            "lambda must be positive"
        );
        Self { lambda }
    }

    /// The distribution's rate parameter.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl Sample for Exponential {
    fn sample(&self, rng: &mut Rng) -> f64 {
        -rng.next_f64_open().ln() / self.lambda
    }

    fn mean(&self) -> Option<f64> {
        Some(1.0 / self.lambda)
    }
}

/// Normal distribution via the Marsaglia polar method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Create a normal distribution; requires `sigma >= 0`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        // Caller contract (doc above); the gamma sampler passes (0, 1).
        assert!(
            sigma >= 0.0 && sigma.is_finite() && mu.is_finite(),
            "invalid normal params"
        );
        Self { mu, sigma }
    }
}

impl Sample for Normal {
    fn sample(&self, rng: &mut Rng) -> f64 {
        // Marsaglia polar method; we discard the second variate to keep the
        // sampler stateless (costs one extra loop iteration on average).
        loop {
            let u = 2.0 * rng.next_f64() - 1.0;
            let v = 2.0 * rng.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                return self.mu + self.sigma * u * factor;
            }
        }
    }

    fn mean(&self) -> Option<f64> {
        Some(self.mu)
    }
}

/// Gamma distribution with shape `alpha` and scale `beta`
/// (mean `alpha * beta`), sampled with the Marsaglia–Tsang method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    alpha: f64,
    beta: f64,
}

impl Gamma {
    /// Create a gamma distribution; requires `alpha > 0`, `beta > 0`.
    pub fn new(alpha: f64, beta: f64) -> Self {
        // Caller contract: the Lublin model's constants and its calibrated `b2`.
        assert!(alpha > 0.0 && alpha.is_finite(), "alpha must be positive");
        // Caller contract: as for `alpha`.
        assert!(beta > 0.0 && beta.is_finite(), "beta must be positive");
        Self { alpha, beta }
    }

    /// Shape parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Scale parameter.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    fn sample_standard(shape: f64, rng: &mut Rng) -> f64 {
        if shape < 1.0 {
            // Boost: X = gamma(shape+1) * U^(1/shape).
            let x = Self::sample_standard(shape + 1.0, rng);
            let u = rng.next_f64_open();
            return x * u.powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        let normal = Normal::new(0.0, 1.0);
        loop {
            let x = normal.sample(rng);
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v = v * v * v;
            let u = rng.next_f64_open();
            let x2 = x * x;
            if u < 1.0 - 0.0331 * x2 * x2 {
                return d * v;
            }
            if u.ln() < 0.5 * x2 + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }
}

impl Sample for Gamma {
    fn sample(&self, rng: &mut Rng) -> f64 {
        Self::sample_standard(self.alpha, rng) * self.beta
    }

    fn mean(&self) -> Option<f64> {
        Some(self.alpha * self.beta)
    }
}

/// The "two-stage uniform" distribution of the Lublin–Feitelson model.
///
/// A value is drawn uniformly from `[lo, med]` with probability `prob` and
/// from `[med, hi]` otherwise. The model uses it for `log2(job size)`, which
/// concentrates mass on small jobs while keeping a tail of large ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoStageUniform {
    lo: f64,
    med: f64,
    hi: f64,
    prob: f64,
}

impl TwoStageUniform {
    /// Create the distribution; requires `lo <= med <= hi`, `prob` in `[0,1]`.
    pub fn new(lo: f64, med: f64, hi: f64, prob: f64) -> Self {
        // Caller contract: the Lublin size model on a platform of >= 2 cores.
        assert!(
            lo <= med && med <= hi,
            "two-stage uniform needs lo <= med <= hi"
        );
        // Caller contract: a model constant.
        assert!((0.0..=1.0).contains(&prob), "prob must be in [0,1]");
        Self { lo, med, hi, prob }
    }
}

impl Sample for TwoStageUniform {
    fn sample(&self, rng: &mut Rng) -> f64 {
        if rng.chance(self.prob) {
            rng.range_f64(self.lo, self.med)
        } else {
            rng.range_f64(self.med, self.hi)
        }
    }

    fn mean(&self) -> Option<f64> {
        Some(
            self.prob * 0.5 * (self.lo + self.med) + (1.0 - self.prob) * 0.5 * (self.med + self.hi),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_mean(dist: &impl Sample, n: usize, seed: u64) -> f64 {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| dist.sample(&mut rng)).sum::<f64>() / n as f64
    }

    fn empirical_var(dist: &impl Sample, n: usize, seed: u64) -> f64 {
        let mut rng = Rng::new(seed);
        let xs: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let m = xs.iter().sum::<f64>() / n as f64;
        xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n as f64 - 1.0)
    }

    #[test]
    fn uniform_mean_and_bounds() {
        let d = Uniform::new(2.0, 6.0);
        let mut rng = Rng::new(1);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((2.0..6.0).contains(&x));
        }
        assert!((empirical_mean(&d, 100_000, 2) - 4.0).abs() < 0.05);
    }

    #[test]
    fn exponential_mean() {
        let d = Exponential::new(0.25);
        assert!((empirical_mean(&d, 200_000, 3) - 4.0).abs() < 0.1);
    }

    #[test]
    fn exponential_is_positive() {
        let d = Exponential::new(2.0);
        let mut rng = Rng::new(4);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(3.0, 2.0);
        assert!((empirical_mean(&d, 200_000, 5) - 3.0).abs() < 0.05);
        assert!((empirical_var(&d, 200_000, 6) - 4.0).abs() < 0.15);
    }

    #[test]
    fn gamma_moments_shape_above_one() {
        // Gamma(4.2, 0.94): mean 3.948, var alpha*beta^2 = 3.711.
        let d = Gamma::new(4.2, 0.94);
        assert!((empirical_mean(&d, 300_000, 7) - 3.948).abs() < 0.05);
        assert!((empirical_var(&d, 300_000, 8) - 3.711).abs() < 0.2);
    }

    #[test]
    fn gamma_moments_shape_below_one() {
        // Gamma(0.5, 2): mean 1, var 2.
        let d = Gamma::new(0.5, 2.0);
        assert!((empirical_mean(&d, 300_000, 9) - 1.0).abs() < 0.05);
        assert!((empirical_var(&d, 300_000, 10) - 2.0).abs() < 0.25);
    }

    #[test]
    fn gamma_is_positive() {
        let d = Gamma::new(0.3, 1.0);
        let mut rng = Rng::new(11);
        for _ in 0..20_000 {
            assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn two_stage_uniform_bounds_and_mass() {
        let d = TwoStageUniform::new(1.0, 3.0, 9.0, 0.75);
        let mut rng = Rng::new(14);
        let mut low = 0usize;
        let n = 100_000;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            assert!((1.0..9.0).contains(&x));
            if x < 3.0 {
                low += 1;
            }
        }
        let frac = low as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.01, "lower-stage mass {frac}");
    }

    #[test]
    #[should_panic]
    fn gamma_rejects_nonpositive_shape() {
        Gamma::new(0.0, 1.0);
    }

    #[test]
    #[should_panic]
    fn two_stage_rejects_unordered_bounds() {
        TwoStageUniform::new(3.0, 1.0, 9.0, 0.5);
    }
}
