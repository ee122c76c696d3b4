//! The pre-refactor enumeration path, preserved as the oracle.
//!
//! Before the batched learning session, every fit allocated its working
//! buffers per call (Jacobian, normal-equation matrices, candidate
//! vectors — fresh on every optimizer iteration) and re-evaluated the
//! base functions `α(r), β(n), γ(s)` from the raw observations inside
//! every residual pass; the family was walked without shared state and
//! ranked by a stable sort on fitness alone.
//!
//! This module keeps that path verbatim, for the same reason the
//! scheduler keeps its seed engine in `dynsched_scheduler::reference`: it
//! is the **bit-identity oracle** — the `learning_pipeline` golden suite
//! and the `regression_properties` tests pin the batched
//! [`fit_all`](crate::enumerate::fit_all) against [`fit_all_reference`];
//! keep those tests green when touching the enumeration or the optimizer.

use crate::dataset::TrainingSet;
use crate::enumerate::{EnumerateOptions, FitResult};
use crate::linalg::{solve, Matrix};
use crate::lm::{LmFit, LmOptions};
use dynsched_policies::learned::NonlinearFunction;

/// The original allocating Levenberg–Marquardt loop, kept verbatim.
fn levenberg_marquardt_reference<F>(
    mut residuals: F,
    initial: &[f64],
    n_residuals: usize,
    options: &LmOptions,
) -> LmFit
where
    F: FnMut(&[f64], &mut [f64]),
{
    fn cost_of(res: &[f64]) -> f64 {
        res.iter().map(|r| r * r).sum()
    }

    let n_params = initial.len();
    assert!(n_params > 0, "no parameters to fit");
    assert!(n_residuals > 0, "no residuals to minimize");

    let mut params = initial.to_vec();
    let mut res = vec![0.0; n_residuals];
    residuals(&params, &mut res);
    let mut cost = cost_of(&res);
    if !cost.is_finite() {
        return LmFit {
            params,
            cost: f64::INFINITY,
            iterations: 0,
            converged: false,
        };
    }

    let mut lambda = options.initial_lambda;
    let mut jac = Matrix::zeros(n_residuals, n_params);
    let mut probe = vec![0.0; n_residuals];
    let mut converged = false;
    let mut iterations = 0;

    for iter in 0..options.max_iterations {
        iterations = iter + 1;
        for j in 0..n_params {
            let h = 1e-7 * params[j].abs().max(1e-7);
            let mut stepped = params.clone();
            stepped[j] += h;
            residuals(&stepped, &mut probe);
            for i in 0..n_residuals {
                let d = (probe[i] - res[i]) / h;
                jac[(i, j)] = if d.is_finite() { d } else { 0.0 };
            }
        }

        let gram = jac.gram();
        let gradient = jac.transpose_mul_vec(&res);

        let mut stepped_ok = false;
        while lambda <= options.max_lambda {
            let mut damped = gram.clone();
            for d in 0..n_params {
                let diag = damped[(d, d)];
                damped[(d, d)] = diag + lambda * diag.max(1e-30);
            }
            let neg_grad: Vec<f64> = gradient.iter().map(|g| -g).collect();
            let Ok(delta) = solve(&damped, &neg_grad) else {
                lambda *= options.lambda_factor;
                continue;
            };
            let candidate: Vec<f64> = params.iter().zip(&delta).map(|(p, d)| p + d).collect();
            residuals(&candidate, &mut probe);
            let new_cost = cost_of(&probe);
            if new_cost.is_finite() && new_cost < cost {
                let rel_impr = (cost - new_cost) / cost.max(f64::MIN_POSITIVE);
                let rel_step = delta
                    .iter()
                    .zip(&params)
                    .map(|(d, p)| d.abs() / p.abs().max(1e-12))
                    .fold(0.0, f64::max);
                params = candidate;
                res.copy_from_slice(&probe);
                cost = new_cost;
                lambda = (lambda / options.lambda_factor).max(1e-12);
                stepped_ok = true;
                if rel_impr < options.cost_tolerance || rel_step < options.step_tolerance {
                    converged = true;
                }
                break;
            }
            lambda *= options.lambda_factor;
        }

        if converged || !stepped_ok {
            if !stepped_ok && lambda > options.max_lambda {
                converged = converged || cost.is_finite();
            }
            break;
        }
    }

    LmFit {
        params,
        cost,
        iterations,
        converged,
    }
}

/// Fit one family member the pre-refactor way: per-call weight vector,
/// residuals evaluated on the raw observations (base functions recomputed
/// every pass), allocating optimizer loop.
pub fn fit_function_reference(
    shape: NonlinearFunction,
    training: &TrainingSet,
    options: &EnumerateOptions,
) -> FitResult {
    let obs = training.observations();
    assert!(!obs.is_empty(), "cannot fit an empty training set");
    let weights: Vec<f64> = obs
        .iter()
        .map(|o| if options.weighted { o.weight() } else { 1.0 })
        .collect();

    let fit: LmFit = levenberg_marquardt_reference(
        |params, out| {
            let f = shape.with_coefficients([params[0], params[1], params[2]]);
            for (i, o) in obs.iter().enumerate() {
                out[i] = weights[i] * (f.eval(o.runtime, o.cores, o.submit) - o.score);
            }
        },
        &options.initial,
        obs.len(),
        &options.lm,
    );

    let fitted = shape.with_coefficients([fit.params[0], fit.params[1], fit.params[2]]);
    let fitness = crate::enumerate::rank(&fitted, training);
    FitResult {
        function: fitted,
        family_index: shape.family_position(),
        fitness,
        weighted_sse: fit.cost,
        converged: fit.converged,
    }
}

/// The pre-refactor enumeration: walk the family sequentially and rank
/// with a stable sort on fitness alone (ties keep enumeration order —
/// the ordering the batched path's explicit `family_index` tie-break
/// reproduces).
pub fn fit_all_reference(training: &TrainingSet, options: &EnumerateOptions) -> Vec<FitResult> {
    let family = NonlinearFunction::enumerate_family();
    let mut results: Vec<FitResult> = family
        .iter()
        .map(|shape| fit_function_reference(*shape, training, options))
        .collect();
    results.sort_by(|a, b| {
        let fa = if a.fitness.is_finite() {
            a.fitness
        } else {
            f64::INFINITY
        };
        let fb = if b.fitness.is_finite() {
            b.fitness
        } else {
            f64::INFINITY
        };
        fa.total_cmp(&fb)
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Observation;
    use crate::enumerate::fit_function;
    use dynsched_policies::learned::{BaseFunc, OpKind};

    fn small_set() -> TrainingSet {
        let truth = NonlinearFunction::with_shape(
            BaseFunc::Log10,
            OpKind::Mul,
            BaseFunc::Id,
            OpKind::Add,
            BaseFunc::Log10,
        )
        .with_coefficients([2e-4, 1.0, 8e-3]);
        let mut obs = Vec::new();
        for (i, r) in [5.0, 600.0, 20_000.0].iter().enumerate() {
            for (j, n) in [1.0, 16.0, 256.0].iter().enumerate() {
                for s in [100.0, 40_000.0] {
                    let wiggle = ((i * 31 + j * 17) % 13) as f64 * 1e-6;
                    obs.push(Observation {
                        runtime: *r,
                        cores: *n,
                        submit: s,
                        score: truth.eval(*r, *n, s) + wiggle,
                    });
                }
            }
        }
        TrainingSet::new(obs)
    }

    #[test]
    fn batched_fit_matches_reference_bit_for_bit() {
        let ts = small_set();
        let mut opts = EnumerateOptions::default();
        opts.lm.max_iterations = 40;
        for shape in NonlinearFunction::enumerate_family()
            .into_iter()
            .step_by(37)
        {
            let reference = fit_function_reference(shape, &ts, &opts);
            let batched = fit_function(shape, &ts, &opts);
            assert_eq!(reference, batched, "{shape:?}");
        }
    }
}
