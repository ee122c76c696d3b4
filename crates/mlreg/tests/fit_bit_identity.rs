//! The differential suite for the fits: the fast path (`fit_function_scoped`
//! — one monomorphized residual pass per operator pair, a column-major
//! Jacobian, `JᵀJ` and `Jᵀr` from one sweep) against the oracle
//! (`mlreg::reference`), `==` on [`FitResult`], for **every one of the 576
//! shapes**, weighted and unweighted, on
//!
//! * a pooled Lublin-shaped set;
//! * a set built to reach every lane of the vectorized body: `s = 0`,
//!   `r < 1`, and denominators of `0.0`, `-0.0`, `±1e-13` and exactly
//!   `±1e-12` in both denominator slots (`B` under `op₁ = ÷`, `C` under
//!   `op₂ = ÷` in either association);
//! * in release builds only (the oracle `debug_assert!`s that it never
//!   sees a NaN), sets at the edge of the double range: a quotient an
//!   `h`-sized probe pushes to `∞` (the Jacobian's non-finite → `0.0`
//!   rule), and an `∞ · 0` the NaN → `f64::MAX` sanitizer catches;
//! * sets that end a fit through each of the four exits, at lengths that
//!   are a multiple of no vector width.
//!
//! Deterministic RNG loops, the repository's stand-in for proptest. A
//! residual pass, a Jacobian column or a normal-equation sum that changes
//! one operation's order fails here, in the default build and — CI's
//! `bit-identity-native` job — under `-C target-cpu=native`.

use dynsched_mlreg::{
    fit_all, fit_all_reference, fit_function_reference, fit_function_scoped, EnumerateOptions,
    FeatureTable, FitWorkspace, LmExit, LmOutcome, Observation, TrainingSet,
};
use dynsched_policies::learned::NonlinearFunction;
use dynsched_simkit::parallel::{par_map_scoped, with_worker_limit};
use dynsched_simkit::Rng;
use std::collections::HashSet;

/// `tuples` windows of 32 tasks the way the trial stage pools them:
/// log-uniform runtimes, mostly power-of-two widths, submit times rising
/// inside a window, scores around `1/32` that grow with the task's area.
fn pooled_set(rng: &mut Rng, tuples: usize) -> Vec<Observation> {
    let mut obs = Vec::new();
    for _ in 0..tuples {
        let mut submit = rng.range_f64(0.0, 90_000.0).round();
        for _ in 0..32 {
            submit += (rng.range_f64(0.0, 1.0).powi(3) * 900.0).round();
            let runtime = (10f64.powf(rng.range_f64(0.0, 4.6)) * 100.0).round() / 100.0;
            let cores = if rng.chance(0.8) {
                f64::from(1u32 << rng.next_below(9))
            } else {
                rng.range_u64(1, 257) as f64
            };
            let area = (runtime * cores).log10() / 7.0;
            obs.push(Observation {
                runtime,
                cores,
                submit,
                score: (1.0 + 0.4 * (area - 0.5) + rng.range_f64(-0.05, 0.05)) / 32.0,
            });
        }
    }
    obs
}

/// The `x` with `1e-4 · x == target` exactly: the initial coefficient
/// times `x` must land *on* the division guard's threshold, not near it.
fn scaled_to(target: f64) -> f64 {
    let guess = (target / 1e-4).to_bits();
    (guess - 4..=guess + 4)
        .map(f64::from_bits)
        .find(|x| 1e-4 * x == target)
        .unwrap_or_else(|| panic!("no double scales to {target:e}"))
}

/// Rows whose first residual evaluation (coefficients `1e-4`) puts each
/// listed value in the `B` and in the `C` denominator slot, under the
/// identity base function; the other base functions turn the same rows
/// into their own guards (`log10` and `sqrt` of a non-positive number are
/// `0.0`, `inv` of one is `1e9`).
fn guard_lane_rows() -> Vec<Observation> {
    let on_threshold = scaled_to(1e-12);
    let denominators = [0.0, -0.0, 1e-9, -1e-9, on_threshold, -on_threshold];
    let mut rows = Vec::new();
    for (i, &d) in denominators.iter().enumerate() {
        let regular = 3.0 + i as f64;
        // r < 1 on half of them: log10 clamps it to 0, inv exceeds 1.
        let runtime = if i % 2 == 0 { 0.25 } else { 40.0 * regular };
        rows.push(Observation {
            runtime,
            cores: d,
            submit: 1_000.0 * regular,
            score: 0.03,
        });
        rows.push(Observation {
            runtime,
            cores: regular,
            submit: d,
            score: 0.04,
        });
    }
    rows
}

/// Fit every shape with the fast path, out of one workspace reused across
/// calls, and with the oracle; require `==`. Returns the exits taken.
fn assert_every_shape_matches(
    label: &str,
    observations: &[Observation],
    options: &EnumerateOptions,
    ws: &mut FitWorkspace,
) -> HashSet<LmExit> {
    let training = TrainingSet::new(observations.to_vec());
    let table = FeatureTable::build(&training);
    let mut exits = HashSet::new();
    for shape in NonlinearFunction::enumerate_family() {
        let fast = fit_function_scoped(shape, &table, options, ws);
        let oracle = fit_function_reference(shape, &training, options);
        assert_eq!(
            fast,
            oracle,
            "{label}, {} observations, weighted = {}: {shape:?}",
            observations.len(),
            options.weighted
        );
        exits.insert(ws.last_outcome().expect("a fit just ran").exit);
    }
    exits
}

fn both_weightings() -> [EnumerateOptions; 2] {
    [true, false].map(|weighted| EnumerateOptions {
        weighted,
        ..Default::default()
    })
}

#[test]
fn every_shape_matches_the_oracle_on_a_pooled_set() {
    let observations = pooled_set(&mut Rng::new(0xF17A), 5);
    let mut ws = FitWorkspace::default();
    for options in both_weightings() {
        assert_every_shape_matches("pooled", &observations, &options, &mut ws);
    }
}

#[test]
fn every_shape_matches_the_oracle_in_every_guard_lane() {
    let mut observations = pooled_set(&mut Rng::new(0x6A4D), 1);
    observations.extend(guard_lane_rows());
    observations.push(Observation {
        runtime: 0.5,
        cores: 2.0,
        submit: 0.0,
        score: 0.05,
    });
    let mut ws = FitWorkspace::default();
    for options in both_weightings() {
        assert_every_shape_matches("guard lanes", &observations, &options, &mut ws);
    }
}

#[test]
fn every_exit_matches_the_oracle_at_lengths_no_vector_width_divides() {
    let pooled = pooled_set(&mut Rng::new(0xE817), 17);
    let capped = EnumerateOptions {
        max_iterations: 2,
        ..Default::default()
    };
    let mut ws = FitWorkspace::default();
    let mut exits = HashSet::new();
    for n in [1, 2, 3, 5, 17, 513] {
        let prefix = &pooled[..n];
        for options in both_weightings() {
            exits.extend(assert_every_shape_matches(
                "prefix", prefix, &options, &mut ws,
            ));
        }
        exits.extend(assert_every_shape_matches(
            "iteration cap",
            prefix,
            &capped,
            &mut ws,
        ));
        let mut hopeless = prefix.to_vec();
        hopeless[n / 2].score = f64::INFINITY;
        let at_start = assert_every_shape_matches(
            "infinite score",
            &hopeless,
            &EnumerateOptions::default(),
            &mut ws,
        );
        assert_eq!(at_start, HashSet::from([LmExit::NonFiniteStart]));
        exits.extend(at_start);
    }
    let all = [
        LmExit::NonFiniteStart,
        LmExit::ToleranceMet,
        LmExit::LambdaExhausted,
        LmExit::IterationCap,
    ];
    assert_eq!(exits, HashSet::from(all), "an exit was never taken");
}

#[test]
fn fit_all_equals_the_reference_enumeration_at_one_and_many_workers() {
    let training = TrainingSet::new(pooled_set(&mut Rng::new(0xA11F), 4));
    let options = EnumerateOptions::default();
    let oracle = fit_all_reference(&training, &options);
    assert_eq!(fit_all(&training, &options), oracle);
    assert_eq!(
        with_worker_limit(1, || fit_all(&training, &options)),
        oracle
    );
}

#[test]
fn optimizer_counts_are_consistent_and_worker_count_independent() {
    let training = TrainingSet::new(pooled_set(&mut Rng::new(0xC0C0), 4));
    let table = FeatureTable::build(&training);
    let options = EnumerateOptions::default();
    let family = NonlinearFunction::enumerate_family();
    let outcomes = || -> Vec<LmOutcome> {
        par_map_scoped(&family, FitWorkspace::default, |shape, ws| {
            fit_function_scoped(*shape, &table, &options, ws);
            ws.last_outcome().expect("a fit just ran")
        })
    };
    let wide = outcomes();
    assert_eq!(wide, with_worker_limit(1, outcomes));
    for (shape, outcome) in family.iter().zip(&wide) {
        let counts = outcome.counts;
        assert_eq!(counts.probes, 3 * outcome.iterations, "{shape:?}");
        assert_eq!(
            counts.evaluations,
            1 + counts.accepted + counts.rejected,
            "{shape:?}"
        );
        match outcome.exit {
            LmExit::NonFiniteStart => assert_eq!(outcome.iterations, 0),
            LmExit::LambdaExhausted => assert_eq!(counts.accepted + 1, outcome.iterations),
            LmExit::ToleranceMet | LmExit::IterationCap => {
                assert_eq!(counts.accepted, outcome.iterations)
            }
        }
        assert_eq!(
            outcome.exit == LmExit::IterationCap,
            outcome.iterations == options.max_iterations && !outcome.converged,
            "{shape:?}"
        );
    }
}

// The two edge-of-range tests exist in release builds only: a fit this
// close to overflow takes wild steps through `∞ − ∞` and `∞ · 0`, and the
// oracle's `eval_transformed` `debug_assert!`s that no NaN reaches its
// sanitizer. CI's `bit-identity-native` job runs them.

#[cfg(not(debug_assertions))]
mod edge_of_range {
    use super::*;
    use dynsched_policies::learned::{BaseFunc, OpKind};

    /// Eight ordinary rows and one at the edge of the double range: under
    /// `id ÷ id` its `B` is below the division guard, so `A ÷ B` is
    /// `c₁·r ÷ 1e-12` — finite at the initial `c₁ = 1e-4`, `∞` once a probe
    /// raises `c₁` by one part in 10⁷. Its width is a subnormal, so its Eq. 4
    /// weight is ≈ 10⁻²⁰ and the other rows steer the fit. What the overflow
    /// meets next is `submit`'s to choose.
    fn edge_of_range_set(submit: f64) -> Vec<Observation> {
        let mut rows: Vec<Observation> = (0..8)
            .map(|i| Observation {
                runtime: 1_000.0 + 700.0 * f64::from(i),
                cores: f64::from(8 << (i % 4)),
                submit: 500.0 + 130.0 * f64::from(i),
                score: 0.03 + 0.001 * f64::from(i),
            })
            .collect();
        rows.push(Observation {
            runtime: f64::MAX * (1.0 - 5e-8) / 1e8,
            cores: 1e-320,
            submit,
            score: 0.03,
        });
        rows
    }

    /// The weighted fast-path fit of `id ÷ id op₂ γ` on `observations`, after
    /// checking that the last row's value is `base` at the initial
    /// coefficients and `probed` with `c₁` moved by the first probe's `h`.
    fn edge_fit(
        observations: &[Observation],
        (op2, gamma): (OpKind, BaseFunc),
        (base, probed): (f64, f64),
    ) -> LmOutcome {
        let shape =
            NonlinearFunction::with_shape(BaseFunc::Id, OpKind::Div, BaseFunc::Id, op2, gamma);
        let edge = observations.last().expect("the edge row");
        let at = |c1: f64| {
            shape
                .with_coefficients([c1, 1e-4, 1e-4])
                .eval(edge.runtime, edge.cores, edge.submit)
        };
        assert!(
            (at(1e-4) - base).abs() <= 1e-6 * base.abs(),
            "{:e}",
            at(1e-4)
        );
        assert_eq!(at(1e-4 + 1e-11), probed);
        let table = FeatureTable::build(&TrainingSet::new(observations.to_vec()));
        let mut ws = FitWorkspace::default();
        fit_function_scoped(shape, &table, &EnumerateOptions::default(), &mut ws);
        ws.last_outcome().expect("a fit just ran")
    }

    #[test]
    fn every_shape_matches_the_oracle_when_a_probe_overflows() {
        // (A ÷ B) ÷ C with a huge C: the base residual is finite, the probed
        // one infinite, and the Jacobian's non-finite → 0.0 rule is what lets
        // the solve go through and steps be accepted — without it this fit
        // ends where it started and the comparison below fails.
        let observations = edge_of_range_set(1e300);
        let base = f64::MAX * (1.0 - 5e-8) / 1e296;
        let outcome = edge_fit(
            &observations,
            (OpKind::Div, BaseFunc::Id),
            (base, f64::INFINITY),
        );
        assert!(outcome.counts.accepted > 0, "{outcome:?}");
        let mut ws = FitWorkspace::default();
        for options in both_weightings() {
            assert_every_shape_matches("probe overflows", &observations, &options, &mut ws);
        }
    }

    #[test]
    fn every_shape_matches_the_oracle_when_the_sanitizer_fires() {
        // (A ÷ B) · C with C = c₃·log10(1) = 0: zero at the base, ∞ · 0 = NaN
        // at the probe, which the sanitizer turns into f64::MAX. Times a
        // weight of 10⁻²⁰ that is a finite residual and a finite slope of
        // ≈ 10²⁹⁹, whose square overflows JᵀJ: every solve is refused. Without
        // the sanitizer the slope is NaN → 0.0 and the fit proceeds.
        let observations = edge_of_range_set(1.0);
        let outcome = edge_fit(
            &observations,
            (OpKind::Mul, BaseFunc::Log10),
            (0.0, f64::MAX),
        );
        assert!(outcome.counts.failed_solves > 0, "{outcome:?}");
        assert_eq!(outcome.exit, LmExit::LambdaExhausted);
        let mut ws = FitWorkspace::default();
        for options in both_weightings() {
            assert_every_shape_matches("sanitizer fires", &observations, &options, &mut ws);
        }
    }
}
