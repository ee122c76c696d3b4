//! Fit validation: goodness-of-fit summaries.
//!
//! The paper ranks functions on their training error (Eq. 5); a downstream
//! user choosing between near-tied candidates wants more than one number.
//! This module provides the classic goodness-of-fit statistics (R², RMSE)
//! for a fitted function.

use crate::dataset::TrainingSet;
use dynsched_policies::NonlinearFunction;

/// Goodness-of-fit summary of a function on a dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitStats {
    /// Mean absolute error (the paper's Eq. 5 "rank").
    pub mae: f64,
    /// Root mean squared error.
    pub rmse: f64,
    /// Coefficient of determination (1 − SSE/SST); can be negative for
    /// fits worse than the constant mean predictor.
    pub r_squared: f64,
    /// Observations evaluated.
    pub count: usize,
}

/// Compute goodness-of-fit statistics on `data`.
///
/// # Panics
/// Panics if `data` is empty.
pub fn fit_stats(function: &NonlinearFunction, data: &TrainingSet) -> FitStats {
    let obs = data.observations();
    assert!(!obs.is_empty(), "no observations");
    let n = obs.len() as f64;
    let mean_score = obs.iter().map(|o| o.score).sum::<f64>() / n;
    let mut sse = 0.0;
    let mut sst = 0.0;
    let mut abs = 0.0;
    for o in obs {
        let err = function.eval(o.runtime, o.cores, o.submit) - o.score;
        sse += err * err;
        sst += (o.score - mean_score) * (o.score - mean_score);
        abs += err.abs();
    }
    FitStats {
        mae: abs / n,
        rmse: (sse / n).sqrt(),
        r_squared: if sst > 0.0 { 1.0 - sse / sst } else { f64::NAN },
        count: obs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Observation;
    use dynsched_policies::learned::{BaseFunc, OpKind};

    fn generating_shape() -> NonlinearFunction {
        NonlinearFunction::with_shape(
            BaseFunc::Id,
            OpKind::Mul,
            BaseFunc::Id,
            OpKind::Add,
            BaseFunc::Log10,
        )
    }

    fn synthetic_set(noise: f64) -> TrainingSet {
        let truth = generating_shape().with_coefficients([1e-7, 1.0, 5e-3]);
        let mut obs = Vec::new();
        for i in 0..120 {
            let r = 10.0 + (i as f64 * 73.0) % 40_000.0;
            let n = 1.0 + (i as f64 * 7.0) % 255.0;
            let s = 100.0 + (i as f64 * 997.0) % 150_000.0;
            let wiggle = ((i * 31) % 17) as f64 / 17.0 - 0.5;
            obs.push(Observation {
                runtime: r,
                cores: n,
                submit: s,
                score: truth.eval(r, n, s) + noise * wiggle,
            });
        }
        TrainingSet::new(obs)
    }

    #[test]
    fn perfect_fit_has_r_squared_one() {
        let ts = synthetic_set(0.0);
        let truth = generating_shape().with_coefficients([1e-7, 1.0, 5e-3]);
        let stats = fit_stats(&truth, &ts);
        assert!(stats.mae < 1e-12);
        assert!((stats.r_squared - 1.0).abs() < 1e-9);
        assert_eq!(stats.count, 120);
    }

    #[test]
    fn constant_predictor_has_r_squared_near_zero() {
        let ts = synthetic_set(0.0);
        let mean = ts.observations().iter().map(|o| o.score).sum::<f64>() / 120.0;
        // f = 0·r + 0·n + mean·(anything)… easiest: all-add with c = mean
        // on an inv(s) term won't be constant; instead use coefficients
        // zeroing both variable terms and inv on huge s ≈ 0: build A+B+C
        // with c1=c2=0 and gamma=Id scaled… simpler: evaluate manually.
        let f = NonlinearFunction::with_shape(
            BaseFunc::Id,
            OpKind::Add,
            BaseFunc::Id,
            OpKind::Add,
            BaseFunc::Inv,
        )
        .with_coefficients([0.0, 0.0, 0.0]);
        // f ≡ 0, so SSE = Σ score², SST = Σ (score−mean)² < SSE ⇒ R² < 0
        // unless mean ≈ 0.
        let stats = fit_stats(&f, &ts);
        assert!(
            stats.r_squared < 0.5,
            "a zero predictor must not look good: {stats:?}; mean {mean}"
        );
    }
}
