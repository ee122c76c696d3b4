//! Model selection diagnostics: coefficient uncertainty and a selection
//! report over the ranked fits.
//!
//! The paper picks its Table 3 by the Eq. 5 rank alone. When several
//! candidates are near-tied (algebraic equivalents tie *exactly*), a user
//! deciding which function to deploy wants the classic regression
//! diagnostics: approximate standard errors of the fitted coefficients
//! (from the Gauss–Newton covariance `σ²(JᵀJ)⁻¹` at the optimum) and an
//! identifiability check (near-singular `JᵀJ` ⇒ the coefficient split is
//! arbitrary, e.g. `c1·c2` products).

use crate::dataset::TrainingSet;
use crate::enumerate::FitResult;
use crate::linalg::{solve, Matrix};
use dynsched_policies::NonlinearFunction;

/// Coefficient-level diagnostics of one fitted function.
#[derive(Debug, Clone, PartialEq)]
pub struct CoefficientDiagnostics {
    /// The fitted coefficients `[c1, c2, c3]`.
    pub coefficients: [f64; 3],
    /// Approximate standard error per coefficient; `None` when the normal
    /// matrix is singular in that direction (unidentifiable split).
    pub std_errors: [Option<f64>; 3],
    /// Residual variance `σ² = SSE / (n − p)`.
    pub residual_variance: f64,
    /// Whether `JᵀJ` was numerically singular (the function has an
    /// unidentifiable coefficient combination — common for pure-product
    /// shapes where only `c1·c2·c3` matters).
    pub unidentifiable: bool,
}

/// Compute coefficient diagnostics for `function` on `data` using a
/// forward-difference Jacobian at the fitted coefficients (unweighted
/// residuals — the uncertainty users care about is in score units).
///
/// # Panics
/// Panics if `data` has fewer than 4 observations (no residual degrees of
/// freedom).
pub fn coefficient_diagnostics(
    function: &NonlinearFunction,
    data: &TrainingSet,
) -> CoefficientDiagnostics {
    let obs = data.observations();
    let n = obs.len();
    let p = 3usize;
    assert!(n > p, "need more observations than parameters");

    let eval = |c: [f64; 3]| -> Vec<f64> {
        let f = function.with_coefficients(c);
        obs.iter()
            .map(|o| f.eval(o.runtime, o.cores, o.submit) - o.score)
            .collect()
    };
    let base = eval(function.coefficients);
    let sse: f64 = base.iter().map(|r| r * r).sum();
    let residual_variance = sse / (n - p) as f64;

    // Forward-difference Jacobian at the optimum.
    let mut jac = Matrix::zeros(n, p);
    for j in 0..p {
        let mut c = function.coefficients;
        let h = 1e-7 * c[j].abs().max(1e-7);
        c[j] += h;
        let stepped = eval(c);
        for i in 0..n {
            let d = (stepped[i] - base[i]) / h;
            jac[(i, j)] = if d.is_finite() { d } else { 0.0 };
        }
    }
    let gram = jac.gram();

    // Invert JᵀJ column by column; singular ⇒ unidentifiable directions.
    let mut std_errors = [None, None, None];
    let mut unidentifiable = false;
    for j in 0..p {
        let mut e = vec![0.0; p];
        e[j] = 1.0;
        match solve(&gram, &e) {
            Ok(col) => {
                let var = residual_variance * col[j];
                if var.is_finite() && var >= 0.0 {
                    std_errors[j] = Some(var.sqrt());
                } else {
                    unidentifiable = true;
                }
            }
            Err(_) => unidentifiable = true,
        }
    }

    CoefficientDiagnostics {
        coefficients: function.coefficients,
        std_errors,
        residual_variance,
        unidentifiable,
    }
}

/// A human-readable selection report over the top fits: rank, fitness,
/// simplified form, and coefficient uncertainty flags.
pub fn selection_report(fits: &[FitResult], data: &TrainingSet, top: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>4} {:>13} {:>6}  function",
        "rank", "fitness", "ident"
    );
    for (i, fit) in fits.iter().take(top).enumerate() {
        let diag = coefficient_diagnostics(&fit.function, data);
        let _ = writeln!(
            out,
            "{:>4} {:>13.6e} {:>6}  {}",
            i + 1,
            fit.fitness,
            if diag.unidentifiable { "no" } else { "yes" },
            fit.function.render_simplified(),
        );
        let ses: Vec<String> = diag
            .std_errors
            .iter()
            .map(|se| se.map_or("-".to_string(), |v| format!("{v:.2e}")))
            .collect();
        let _ = writeln!(
            out,
            "     c = {:?}  se = [{}]",
            diag.coefficients,
            ses.join(", ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Observation;
    use crate::enumerate::{fit_function, EnumerateOptions};
    use dynsched_policies::learned::{BaseFunc, OpKind};

    fn additive_shape() -> NonlinearFunction {
        NonlinearFunction::with_shape(
            BaseFunc::Id,
            OpKind::Add,
            BaseFunc::Id,
            OpKind::Add,
            BaseFunc::Log10,
        )
    }

    fn dataset(noise: f64) -> TrainingSet {
        let truth = additive_shape().with_coefficients([2e-6, 3e-4, 4e-3]);
        let mut obs = Vec::new();
        for i in 0..80 {
            let r = 10.0 + (i as f64 * 311.0) % 30_000.0;
            let n = 1.0 + (i as f64 * 13.0) % 200.0;
            let s = 50.0 + (i as f64 * 977.0) % 120_000.0;
            let wiggle = (((i * 29) % 23) as f64 / 23.0 - 0.5) * noise;
            obs.push(Observation {
                runtime: r,
                cores: n,
                submit: s,
                score: truth.eval(r, n, s) + wiggle,
            });
        }
        TrainingSet::new(obs)
    }

    #[test]
    fn additive_fit_is_identifiable_with_small_errors() {
        let ts = dataset(1e-6);
        let fit = fit_function(
            additive_shape(),
            &ts,
            &EnumerateOptions {
                weighted: false,
                ..Default::default()
            },
        );
        let diag = coefficient_diagnostics(&fit.function, &ts);
        assert!(!diag.unidentifiable, "{diag:?}");
        for (c, se) in diag.coefficients.iter().zip(&diag.std_errors) {
            let se = se.expect("identifiable");
            assert!(se < c.abs(), "std error {se} should be well below |{c}|");
        }
    }

    #[test]
    fn noise_inflates_standard_errors() {
        let quiet = {
            let ts = dataset(1e-7);
            let fit = fit_function(
                additive_shape(),
                &ts,
                &EnumerateOptions {
                    weighted: false,
                    ..Default::default()
                },
            );
            coefficient_diagnostics(&fit.function, &ts)
        };
        let noisy = {
            let ts = dataset(1e-3);
            let fit = fit_function(
                additive_shape(),
                &ts,
                &EnumerateOptions {
                    weighted: false,
                    ..Default::default()
                },
            );
            coefficient_diagnostics(&fit.function, &ts)
        };
        assert!(noisy.residual_variance > quiet.residual_variance * 100.0);
        assert!(noisy.std_errors[2].unwrap() > quiet.std_errors[2].unwrap());
    }

    #[test]
    fn pure_product_shape_is_flagged_unidentifiable() {
        // f = (c1·r)·(c2·n)·(c3·s): only the product c1·c2·c3 matters, so
        // JᵀJ is rank-1 and the split is arbitrary.
        let shape = NonlinearFunction::with_shape(
            BaseFunc::Id,
            OpKind::Mul,
            BaseFunc::Id,
            OpKind::Mul,
            BaseFunc::Id,
        )
        .with_coefficients([1e-4, 1e-4, 1e-4]);
        let ts = dataset(1e-6);
        let diag = coefficient_diagnostics(&shape, &ts);
        assert!(diag.unidentifiable, "{diag:?}");
    }

    #[test]
    fn report_renders_requested_rows() {
        let ts = dataset(1e-5);
        let fit = fit_function(additive_shape(), &ts, &EnumerateOptions::default());
        let fits = vec![fit.clone(), fit];
        let report = selection_report(&fits, &ts, 2);
        assert_eq!(report.lines().count(), 5); // header + 2×(row + se line)
        assert!(report.contains("se ="));
    }

    #[test]
    #[should_panic]
    fn tiny_dataset_rejected() {
        let ts = TrainingSet::new(vec![Observation {
            runtime: 1.0,
            cores: 1.0,
            submit: 1.0,
            score: 0.1,
        }]);
        coefficient_diagnostics(&additive_shape(), &ts);
    }
}
