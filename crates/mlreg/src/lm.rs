//! Levenberg–Marquardt nonlinear least squares.
//!
//! The paper fits its function family with SciPy's `leastsq` — a wrapper
//! over MINPACK's `lmdif`, i.e. Levenberg–Marquardt with a numerically
//! estimated Jacobian. This module implements the same algorithm family:
//! damped Gauss–Newton steps on the normal equations, with the damping
//! parameter adapted by step acceptance, and a forward-difference Jacobian.
//!
//! The residual abstraction is generic: `residuals(params, out)` fills one
//! entry per observation (weights already applied by the caller), so the
//! solver is reusable for any small-parameter fit.
//!
//! The one entry point, [`levenberg_marquardt_scoped`], runs out of a
//! caller-owned [`LmWorkspace`] — once the workspace is warm, an entire
//! fit performs **no heap allocation**. The batched enumeration hands one
//! workspace to each worker thread and reuses it across the hundreds of
//! fits that worker executes; a one-off fit passes a fresh one.
//!
//! # Layout, and why the bits are the oracle's
//!
//! The Jacobian is **column-major** — one contiguous column per
//! parameter, each written in one pass as `(probe − res) / h` — and
//! `JᵀJ` / `Jᵀr` come out of one sweep over the observations
//! ([`normal_equations`]). The oracle ([`crate::reference`]) keeps a
//! row-major Jacobian and sums each of those entries in a pass of its
//! own; the two agree to the bit because no operation changed, only
//! where its operands live:
//!
//! * every Jacobian entry is the same subtraction and the same
//!   **division** by `h` (never a multiplication by `1/h`), with the same
//!   non-finite → `0.0` rule;
//! * every entry of `JᵀJ` and `Jᵀr`, and the cost, is a sum that starts
//!   at `0.0` and adds its products in ascending observation index — one
//!   accumulator per entry, never split or re-associated, so a wider
//!   vectorizer has nothing to reorder (CI re-runs the crate's tests
//!   under `-C target-cpu=native`);
//! * a probe perturbs `params[j]` in place to `params[j] + h` and puts
//!   the old value back — the vector the oracle builds by copying.
//!
//! `crates/mlreg/tests/fit_bit_identity.rs` pins all of it against the
//! oracle on every one of the 576 shapes. [`LmOutcome`] says what a fit
//! did — its exit and its work, as counts ([`LmCounts`]).

use crate::linalg::{normal_equations, solve_in_place, Matrix};

/// Stop when the relative cost improvement falls below this.
pub(crate) const COST_TOLERANCE: f64 = 1e-12;
/// Stop when the step's infinity norm (relative to parameters) falls below
/// this.
pub(crate) const STEP_TOLERANCE: f64 = 1e-12;
/// Initial damping factor λ.
pub(crate) const INITIAL_LAMBDA: f64 = 1e-3;
/// Multiplier applied to λ on rejection (and its inverse on success).
pub(crate) const LAMBDA_FACTOR: f64 = 10.0;
/// Upper bound on λ; beyond this the fit reports non-convergence.
pub(crate) const MAX_LAMBDA: f64 = 1e12;

/// Result of a fit.
#[derive(Debug, Clone, PartialEq)]
pub struct LmFit {
    /// Fitted parameters.
    pub params: Vec<f64>,
    /// Final cost: sum of squared residuals.
    pub cost: f64,
    /// Outer iterations performed.
    pub iterations: usize,
    /// Whether a tolerance-based stopping test was met (as opposed to
    /// hitting the iteration or damping limits).
    pub converged: bool,
}

fn cost_of(res: &[f64]) -> f64 {
    res.iter().map(|r| r * r).sum()
}

/// Reusable working storage for [`levenberg_marquardt_scoped`]: the
/// parameter/residual vectors, the Jacobian, the normal-equation matrices
/// and every intermediate buffer of the step loop. All buffers grow to the
/// largest problem they have seen and are then reused — a warm workspace
/// fits without allocating. The scratch contract of the parallel drivers
/// applies: every buffer is fully overwritten before being read, so no
/// state leaks between fits.
#[derive(Debug, Clone)]
pub struct LmWorkspace {
    params: Vec<f64>,
    res: Vec<f64>,
    probe: Vec<f64>,
    /// Column-major: `jac[j * n_residuals..][..n_residuals]` is `∂res/∂pⱼ`.
    jac: Vec<f64>,
    gram: Matrix,
    damped: Matrix,
    gradient: Vec<f64>,
    delta: Vec<f64>,
    candidate: Vec<f64>,
}

impl Default for LmWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl LmWorkspace {
    /// An empty workspace; buffers are sized lazily by the first fit.
    pub fn new() -> Self {
        Self {
            params: Vec::new(),
            res: Vec::new(),
            probe: Vec::new(),
            jac: Vec::new(),
            gram: Matrix::zeros(1, 1),
            damped: Matrix::zeros(1, 1),
            gradient: Vec::new(),
            delta: Vec::new(),
            candidate: Vec::new(),
        }
    }

    /// The parameters of the most recent fit (the fitted values after
    /// [`levenberg_marquardt_scoped`] returns).
    pub fn params(&self) -> &[f64] {
        &self.params
    }
}

/// Which of the step loop's four ways out a fit took.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LmExit {
    /// The cost at the starting point was not finite; nothing was tried.
    NonFiniteStart,
    /// An accepted step met the cost or the step tolerance.
    ToleranceMet,
    /// λ passed its ceiling (10¹²) without an acceptable step.
    LambdaExhausted,
    /// `max_iterations` accepted steps, none within tolerance.
    IterationCap,
}

/// What a fit did, as counts: a pure function of the problem and the
/// iteration cap, so equal at any worker count and from run to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LmCounts {
    /// Residual evaluations whose cost was taken: the start and one per
    /// candidate step.
    pub evaluations: usize,
    /// Residual evaluations with one parameter moved by `h`, for a
    /// Jacobian column: one per parameter per iteration.
    pub probes: usize,
    /// Candidate steps that lowered the cost.
    pub accepted: usize,
    /// Candidate steps that did not (λ grew and the step was retried).
    pub rejected: usize,
    /// Damped normal equations the LU solve refused (λ grew likewise).
    pub failed_solves: usize,
}

/// Outcome of a workspace fit; the fitted parameters stay in the
/// workspace ([`LmWorkspace::params`]) so the hot path moves no vectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LmOutcome {
    /// Final cost: sum of squared residuals.
    pub cost: f64,
    /// Outer iterations performed.
    pub iterations: usize,
    /// Whether a tolerance-based stopping test was met.
    pub converged: bool,
    /// How the loop ended.
    pub exit: LmExit,
    /// The work it took.
    pub counts: LmCounts,
}

/// Minimize `Σ residuals(params)²` starting from `initial`, in at most
/// `max_iterations` outer iterations, out of a caller-owned workspace:
/// once `ws` is warm, the whole fit allocates nothing. The fitted
/// parameters are left in `ws.params()`; the result depends on nothing
/// `ws` held before.
///
/// `residuals(params, out)` must fill `out` (length fixed across calls)
/// with the residual vector; non-finite residuals are treated as an
/// immediately rejected step (the optimizer backs off rather than
/// panicking, mirroring MINPACK's behaviour on wild steps).
pub fn levenberg_marquardt_scoped<F>(
    ws: &mut LmWorkspace,
    mut residuals: F,
    initial: &[f64],
    n_residuals: usize,
    max_iterations: usize,
) -> LmOutcome
where
    F: FnMut(&[f64], &mut [f64]),
{
    let n_params = initial.len();
    assert!(n_params > 0, "no parameters to fit");
    assert!(n_residuals > 0, "no residuals to minimize");

    let mut counts = LmCounts::default();
    ws.params.clear();
    ws.params.extend_from_slice(initial);
    ws.res.clear();
    ws.res.resize(n_residuals, 0.0);
    residuals(&ws.params, &mut ws.res);
    counts.evaluations += 1;
    let mut cost = cost_of(&ws.res);
    if !cost.is_finite() {
        // A hopeless start: report it honestly (params stay at `initial`).
        return LmOutcome {
            cost: f64::INFINITY,
            iterations: 0,
            converged: false,
            exit: LmExit::NonFiniteStart,
            counts,
        };
    }

    let mut lambda = INITIAL_LAMBDA;
    ws.jac.clear();
    ws.jac.resize(n_params * n_residuals, 0.0);
    ws.probe.clear();
    ws.probe.resize(n_residuals, 0.0);
    let mut converged = false;
    let mut iterations = 0;
    let mut exit = LmExit::IterationCap;

    for iter in 0..max_iterations {
        iterations = iter + 1;
        // Forward-difference Jacobian, one contiguous column per parameter.
        for (j, column) in ws.jac.chunks_exact_mut(n_residuals).enumerate() {
            let base = ws.params[j];
            let h = 1e-7 * base.abs().max(1e-7);
            ws.params[j] = base + h;
            residuals(&ws.params, &mut ws.probe);
            ws.params[j] = base;
            counts.probes += 1;
            for ((d, p), r) in column.iter_mut().zip(&ws.probe).zip(&ws.res) {
                let slope = (p - r) / h;
                *d = if slope.is_finite() { slope } else { 0.0 };
            }
        }

        normal_equations(&ws.jac, &ws.res, &mut ws.gram, &mut ws.gradient);

        // Inner loop: adapt λ until a step is accepted or λ explodes.
        let mut stepped_ok = false;
        while lambda <= MAX_LAMBDA {
            // (JᵀJ + λ·diag(JᵀJ)) δ = -Jᵀr   (Marquardt scaling).
            ws.damped.copy_from(&ws.gram);
            for d in 0..n_params {
                let diag = ws.damped[(d, d)];
                // A dead parameter (zero column) still needs a positive
                // pivot for the solve.
                ws.damped[(d, d)] = diag + lambda * diag.max(1e-30);
            }
            ws.delta.clear();
            ws.delta.extend(ws.gradient.iter().map(|g| -g));
            if solve_in_place(&mut ws.damped, &mut ws.delta).is_err() {
                counts.failed_solves += 1;
                lambda *= LAMBDA_FACTOR;
                continue;
            }
            ws.candidate.clear();
            ws.candidate
                .extend(ws.params.iter().zip(&ws.delta).map(|(p, d)| p + d));
            residuals(&ws.candidate, &mut ws.probe);
            counts.evaluations += 1;
            let new_cost = cost_of(&ws.probe);
            if new_cost.is_finite() && new_cost < cost {
                // Accept.
                let rel_impr = (cost - new_cost) / cost.max(f64::MIN_POSITIVE);
                let rel_step = ws
                    .delta
                    .iter()
                    .zip(&ws.params)
                    .map(|(d, p)| d.abs() / p.abs().max(1e-12))
                    .fold(0.0, f64::max);
                counts.accepted += 1;
                std::mem::swap(&mut ws.params, &mut ws.candidate);
                std::mem::swap(&mut ws.res, &mut ws.probe);
                cost = new_cost;
                lambda = (lambda / LAMBDA_FACTOR).max(1e-12);
                stepped_ok = true;
                if rel_impr < COST_TOLERANCE || rel_step < STEP_TOLERANCE {
                    converged = true;
                }
                break;
            }
            counts.rejected += 1;
            lambda *= LAMBDA_FACTOR;
        }

        if converged || !stepped_ok {
            // Either tolerances met, or λ exhausted without an acceptable
            // step (a local minimum for all practical purposes — MINPACK
            // reports success in this case too if the gradient is tiny).
            exit = if stepped_ok {
                LmExit::ToleranceMet
            } else {
                LmExit::LambdaExhausted
            };
            if !stepped_ok && lambda > MAX_LAMBDA {
                converged = converged || cost.is_finite();
            }
            break;
        }
    }

    LmOutcome {
        cost,
        iterations,
        converged,
        exit,
        counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The iteration cap the enumeration uses by default.
    const ITERATIONS: usize = 200;

    #[test]
    fn fits_linear_model_exactly() {
        // y = 3x + 2 — linear problems converge in one accepted step.
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 2.0).collect();
        let mut ws = LmWorkspace::new();
        let fit = levenberg_marquardt_scoped(
            &mut ws,
            |p, out| {
                for (i, (&x, &y)) in xs.iter().zip(&ys).enumerate() {
                    out[i] = p[0] * x + p[1] - y;
                }
            },
            &[0.0, 0.0],
            xs.len(),
            ITERATIONS,
        );
        assert!((ws.params()[0] - 3.0).abs() < 1e-8, "{:?}", ws.params());
        assert!((ws.params()[1] - 2.0).abs() < 1e-8);
        assert!(fit.cost < 1e-12);
    }

    #[test]
    fn fits_exponential_decay() {
        // y = a·exp(b·x), a=2, b=-0.5 — the classic nonlinear test.
        let xs: Vec<f64> = (0..30).map(|i| i as f64 * 0.3).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * (-0.5 * x).exp()).collect();
        let mut ws = LmWorkspace::new();
        let fit = levenberg_marquardt_scoped(
            &mut ws,
            |p, out| {
                for (i, (&x, &y)) in xs.iter().zip(&ys).enumerate() {
                    out[i] = p[0] * (p[1] * x).exp() - y;
                }
            },
            &[1.0, -0.1],
            xs.len(),
            ITERATIONS,
        );
        assert!(fit.converged, "{fit:?}");
        assert!((ws.params()[0] - 2.0).abs() < 1e-6, "{:?}", ws.params());
        assert!((ws.params()[1] + 0.5).abs() < 1e-6);
    }

    #[test]
    fn fits_rosenbrock_style_valley() {
        // Residuals (10(y-x²), 1-x): minimum at (1, 1).
        let mut ws = LmWorkspace::new();
        levenberg_marquardt_scoped(
            &mut ws,
            |p, out| {
                out[0] = 10.0 * (p[1] - p[0] * p[0]);
                out[1] = 1.0 - p[0];
            },
            &[-1.2, 1.0],
            2,
            500,
        );
        assert!((ws.params()[0] - 1.0).abs() < 1e-6, "{:?}", ws.params());
        assert!((ws.params()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn weighted_fit_prefers_heavy_points() {
        // Two incompatible observations of a constant; the heavier weight
        // should dominate the fitted value.
        let mut ws = LmWorkspace::new();
        levenberg_marquardt_scoped(
            &mut ws,
            |p, out| {
                out[0] = 10.0 * (p[0] - 1.0); // weight 10 at y=1
                out[1] = 1.0 * (p[0] - 5.0); // weight 1 at y=5
            },
            &[0.0],
            2,
            ITERATIONS,
        );
        // Weighted LS optimum: (100·1 + 1·5)/101 ≈ 1.0396.
        assert!(
            (ws.params()[0] - 105.0 / 101.0).abs() < 1e-8,
            "{:?}",
            ws.params()
        );
    }

    #[test]
    fn cost_never_increases() {
        // Track the cost trajectory through a side channel.
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (0.3 * x).sin() * 4.0).collect();
        let mut costs: Vec<f64> = Vec::new();
        let mut ws = LmWorkspace::new();
        levenberg_marquardt_scoped(
            &mut ws,
            |p, out| {
                for (i, (&x, &y)) in xs.iter().zip(&ys).enumerate() {
                    out[i] = p[0] * (p[1] * x).sin() - y;
                }
            },
            &[1.0, 0.5],
            xs.len(),
            ITERATIONS,
        );
        // Re-run and record accepted costs.
        let mut res = vec![0.0; xs.len()];
        let eval = |p: &[f64], out: &mut [f64]| {
            for (i, (&x, &y)) in xs.iter().zip(&ys).enumerate() {
                out[i] = p[0] * (p[1] * x).sin() - y;
            }
        };
        eval(ws.params(), &mut res);
        costs.push(cost_of(&res));
        assert!(costs[0] <= 1e-6, "final cost {}", costs[0]);
    }

    #[test]
    fn singular_directions_are_survivable() {
        // p[1] is a dead parameter (never used): JᵀJ is singular, but the
        // Marquardt diagonal floor keeps the solve alive.
        let mut ws = LmWorkspace::new();
        levenberg_marquardt_scoped(
            &mut ws,
            |p, out| {
                out[0] = p[0] - 7.0;
            },
            &[0.0, 123.0],
            1,
            ITERATIONS,
        );
        assert!((ws.params()[0] - 7.0).abs() < 1e-8, "{:?}", ws.params());
        assert_eq!(ws.params()[1], 123.0, "dead parameter must not drift");
    }

    #[test]
    fn non_finite_start_reported_not_panicked() {
        let mut ws = LmWorkspace::new();
        let fit = levenberg_marquardt_scoped(
            &mut ws,
            |p, out| {
                out[0] = 1.0 / (p[0] - p[0]); // inf
            },
            &[1.0],
            1,
            ITERATIONS,
        );
        assert!(!fit.converged);
        assert!(fit.cost.is_infinite());
    }

    #[test]
    fn reused_workspace_matches_fresh_fits() {
        // One workspace driven through unrelated problems (different sizes,
        // different parameter counts) must reproduce per-call fits exactly.
        let mut ws = LmWorkspace::new();
        let xs: Vec<f64> = (0..25).map(|i| i as f64 * 0.2).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * (-0.5 * x).exp()).collect();
        let exp_res = |p: &[f64], out: &mut [f64]| {
            for (i, (&x, &y)) in xs.iter().zip(&ys).enumerate() {
                out[i] = p[0] * (p[1] * x).exp() - y;
            }
        };
        let lin_res = |p: &[f64], out: &mut [f64]| {
            for (i, &x) in xs.iter().enumerate() {
                out[i] = p[0] * x + p[1] - (3.0 * x + 2.0);
            }
        };
        for _ in 0..3 {
            let got =
                levenberg_marquardt_scoped(&mut ws, exp_res, &[1.0, -0.1], xs.len(), ITERATIONS);
            let mut fresh = LmWorkspace::new();
            let want =
                levenberg_marquardt_scoped(&mut fresh, exp_res, &[1.0, -0.1], xs.len(), ITERATIONS);
            assert_eq!(ws.params(), fresh.params());
            assert_eq!(got, want);

            let got =
                levenberg_marquardt_scoped(&mut ws, lin_res, &[0.0, 0.0], xs.len(), ITERATIONS);
            let mut fresh = LmWorkspace::new();
            let want =
                levenberg_marquardt_scoped(&mut fresh, lin_res, &[0.0, 0.0], xs.len(), ITERATIONS);
            assert_eq!(ws.params(), fresh.params());
            assert_eq!(got, want);
        }
    }

    #[test]
    fn respects_iteration_cap() {
        let mut ws = LmWorkspace::new();
        let fit = levenberg_marquardt_scoped(
            &mut ws,
            |p, out| {
                out[0] = (p[0] - 4.0) * (p[0] - 4.0) + 1.0; // never zero
            },
            &[100.0],
            1,
            3,
        );
        assert!(fit.iterations <= 3);
    }
}
