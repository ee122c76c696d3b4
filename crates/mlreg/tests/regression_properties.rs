//! RNG-driven property tests for the regression stage.
//!
//! Deterministic property loops (the repo's offline stand-in for
//! proptest) over `linalg` and `lm`:
//!
//! * LU solutions satisfy `A·x = b` within tolerance, for random
//!   well-conditioned systems of several sizes;
//! * Levenberg–Marquardt solutions of linear least-squares problems
//!   satisfy the **normal equations** `XᵀX·β = Xᵀy` within tolerance;
//! * fits are invariant (within tolerance) under **row permutation** of
//!   the training set — the observation order is an accident of pooling,
//!   not information;
//! * degenerate / rank-deficient candidates (constant features, dead
//!   parameters, identical observations) are **rejected or survived
//!   gracefully** — finite fitness, no NaN anywhere, non-finite ranks
//!   sorted last — rather than corrupting the ranking.

use dynsched_mlreg::linalg::{dot, solve, Matrix};
use dynsched_mlreg::{
    fit_all, fit_function_reference, fit_function_scoped, levenberg_marquardt_scoped,
    EnumerateOptions, FeatureTable, FitWorkspace, LmWorkspace, Observation, TrainingSet,
};
use dynsched_policies::learned::{BaseFunc, NonlinearFunction, OpKind};
use dynsched_policies::Policy as _;
use dynsched_simkit::Rng;

const CASES: usize = 40;

/// A random diagonally-dominant matrix: well-conditioned by construction,
/// so the residual tolerance below is meaningful at any size.
fn random_system(rng: &mut Rng, n: usize) -> (Matrix, Vec<f64>) {
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        let mut row_sum = 0.0;
        for j in 0..n {
            if i != j {
                let v = rng.range_f64(-1.0, 1.0);
                a[(i, j)] = v;
                row_sum += v.abs();
            }
        }
        a[(i, i)] = (row_sum + 1.0) * if rng.chance(0.5) { 1.0 } else { -1.0 };
    }
    let x: Vec<f64> = (0..n).map(|_| rng.range_f64(-5.0, 5.0)).collect();
    (a, x)
}

#[test]
fn lu_solutions_satisfy_the_system() {
    let mut rng = Rng::new(0xA11CE);
    for case in 0..CASES {
        let n = 2 + case % 6;
        let (a, x_true) = random_system(&mut rng, n);
        let b = a.mul_vec(&x_true);
        let x = solve(&a, &b).expect("diagonally dominant systems are nonsingular");
        let residual = a.mul_vec(&x);
        for ((r, b), (got, want)) in residual.iter().zip(&b).zip(x.iter().zip(&x_true)) {
            assert!((r - b).abs() < 1e-9, "case {case}: residual {r} vs rhs {b}");
            assert!((got - want).abs() < 1e-8, "case {case}: x {got} vs {want}");
        }
    }
}

#[test]
fn lm_solutions_satisfy_the_normal_equations() {
    // Linear model y = β₀·x₀ + β₁·x₁ + β₂: the LS optimum is the unique
    // solution of XᵀX·β = Xᵀy, so the optimizer's answer must satisfy it.
    let mut rng = Rng::new(0xBEEF);
    for case in 0..CASES {
        let m = 12 + (case % 5) * 7;
        let rows: Vec<Vec<f64>> = (0..m)
            .map(|_| vec![rng.range_f64(-3.0, 3.0), rng.range_f64(-3.0, 3.0), 1.0])
            .collect();
        let beta_true = [
            rng.range_f64(-2.0, 2.0),
            rng.range_f64(-2.0, 2.0),
            rng.range_f64(-2.0, 2.0),
        ];
        let ys: Vec<f64> = rows
            .iter()
            .map(|r| dot(r, &beta_true) + rng.range_f64(-0.01, 0.01))
            .collect();
        let mut ws = LmWorkspace::new();
        levenberg_marquardt_scoped(
            &mut ws,
            |p, out| {
                for (i, row) in rows.iter().enumerate() {
                    out[i] = dot(row, p) - ys[i];
                }
            },
            &[0.0, 0.0, 0.0],
            m,
            EnumerateOptions::default().max_iterations,
        );
        // Residual gradient Xᵀ(Xβ − y) must vanish at the optimum.
        let x = Matrix::from_rows(&rows);
        let fitted_ys = x.mul_vec(ws.params());
        let residuals: Vec<f64> = fitted_ys.iter().zip(&ys).map(|(f, y)| f - y).collect();
        let gradient = x.transpose_mul_vec(&residuals);
        for (j, g) in gradient.iter().enumerate() {
            assert!(
                g.abs() < 1e-6,
                "case {case}: normal equations violated in direction {j}: {g}"
            );
        }
    }
}

#[test]
fn fits_are_invariant_under_row_permutation() {
    // Additive shapes are linear in (c1, c2, c3): the optimum is unique,
    // so permuting the observation rows (which only reorders the residual
    // vector) must land on the same coefficients within tolerance.
    let mut rng = Rng::new(0x5EED);
    let shape = NonlinearFunction::with_shape(
        BaseFunc::Log10,
        OpKind::Add,
        BaseFunc::Id,
        OpKind::Add,
        BaseFunc::Log10,
    );
    for case in 0..12 {
        let truth = shape.with_coefficients([
            rng.range_f64(1e-4, 5e-4),
            rng.range_f64(1e-5, 5e-5),
            rng.range_f64(1e-3, 5e-3),
        ]);
        let mut obs: Vec<Observation> = (0..60)
            .map(|_| {
                let r = rng.range_f64(1.0, 30_000.0);
                let n = rng.range_f64(1.0, 256.0);
                let s = rng.range_f64(10.0, 100_000.0);
                Observation {
                    runtime: r,
                    cores: n,
                    submit: s,
                    score: truth.eval(r, n, s) + rng.range_f64(-1e-6, 1e-6),
                }
            })
            .collect();
        let options = EnumerateOptions::default();
        let fit = |obs: Vec<Observation>| {
            let table = FeatureTable::build(&TrainingSet::new(obs));
            fit_function_scoped(shape, &table, &options, &mut FitWorkspace::default())
        };
        let original = fit(obs.clone());
        rng.shuffle(&mut obs);
        let permuted = fit(obs);
        for (a, b) in original
            .function
            .coefficients
            .iter()
            .zip(&permuted.function.coefficients)
        {
            let scale = a.abs().max(b.abs()).max(1e-12);
            assert!(
                ((a - b) / scale).abs() < 1e-5,
                "case {case}: coefficients moved under permutation: {a} vs {b}"
            );
        }
        let fscale = original.fitness.max(permuted.fitness).max(1e-15);
        assert!(
            ((original.fitness - permuted.fitness) / fscale).abs() < 1e-5,
            "case {case}: fitness moved: {} vs {}",
            original.fitness,
            permuted.fitness
        );
    }
}

#[test]
fn degenerate_training_sets_never_produce_nan_rankings() {
    // Identical observations make every Jacobian rank-deficient (all rows
    // equal) and many shapes outright constant; the sweep must survive
    // with finite, NaN-free fitness everywhere and a usable ranking.
    let one = Observation {
        runtime: 100.0,
        cores: 8.0,
        submit: 1_000.0,
        score: 0.05,
    };
    let ts = TrainingSet::new(vec![one; 16]);
    let options = EnumerateOptions {
        max_iterations: 30,
        ..Default::default()
    };
    let results = fit_all(&ts, &options);
    assert_eq!(results.len(), 576);
    let mut seen_finite_tail = true;
    for (i, fit) in results.iter().enumerate() {
        assert!(
            !fit.fitness.is_nan(),
            "candidate {i} has NaN fitness: {:?}",
            fit.function
        );
        for c in fit.function.coefficients {
            assert!(!c.is_nan(), "candidate {i} has NaN coefficient");
        }
        if !fit.fitness.is_finite() {
            seen_finite_tail = false;
        } else {
            assert!(
                seen_finite_tail,
                "finite fitness after a non-finite one: ranking broken"
            );
        }
    }
}

#[test]
fn rank_deficient_candidates_are_rejected_not_poisoned() {
    // A dataset whose submit times are all equal makes γ(s) constant: for
    // shapes like A + B + C the c3 direction is degenerate (only an
    // offset), and pure-product shapes collapse further. Fits must still
    // come back finite, and the batched path must agree with the
    // pre-refactor oracle on every one of them.
    let mut rng = Rng::new(0xD00D);
    let obs: Vec<Observation> = (0..24)
        .map(|_| Observation {
            runtime: rng.range_f64(1.0, 10_000.0),
            cores: rng.range_f64(1.0, 128.0).round(),
            submit: 5_000.0,
            score: rng.range_f64(0.01, 0.08),
        })
        .collect();
    let ts = TrainingSet::new(obs);
    let table = FeatureTable::build(&ts);
    let options = EnumerateOptions {
        max_iterations: 30,
        ..Default::default()
    };
    for shape in NonlinearFunction::enumerate_family()
        .into_iter()
        .step_by(23)
    {
        let fit = fit_function_scoped(shape, &table, &options, &mut FitWorkspace::default());
        assert!(!fit.fitness.is_nan(), "{shape:?}");
        assert!(!fit.weighted_sse.is_nan(), "{shape:?}");
        let oracle = fit_function_reference(shape, &ts, &options);
        assert_eq!(
            fit, oracle,
            "batched fit diverged from oracle on degenerate data"
        );
    }
}

#[test]
fn scoring_policies_from_degenerate_fits_stays_finite() {
    // Even a policy built from a degenerate fit must hand the queue
    // finite scores (the engine sorts by them).
    let one = Observation {
        runtime: 1.0,
        cores: 1.0,
        submit: 1.0,
        score: 0.1,
    };
    let ts = TrainingSet::new(vec![one; 8]);
    let options = EnumerateOptions {
        max_iterations: 10,
        ..Default::default()
    };
    let results = fit_all(&ts, &options);
    let policies = dynsched_mlreg::top_policies(&results, 4);
    for p in &policies {
        let score = p.score(&dynsched_policies::TaskView {
            processing_time: 3_600.0,
            cores: 16,
            submit: 100.0,
            now: 100.0,
        });
        assert!(
            score.is_finite(),
            "{} produced a non-finite score",
            p.name()
        );
    }
}
