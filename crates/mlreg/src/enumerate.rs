//! Enumerate and fit the whole function family, then rank.
//!
//! For every one of the 576 members of the §3.3 family we run a weighted
//! Levenberg–Marquardt fit of its three coefficients against the pooled
//! `score(r, n, s)` distribution, minimizing Eq. 4:
//!
//! ```text
//! error = Σ_t ((r_t·n_t) · (f(r_t, n_t, s_t) − score_t))²
//! ```
//!
//! and rank the fitted functions by Eq. 5, the unweighted mean absolute
//! error. The four best of the paper's run are its Table 3 (F1–F4).
//!
//! # Batched enumeration
//!
//! [`fit_all`] is the learning layer's batched session: the 576 fits fan
//! out over the deterministic thread pool with **one reusable
//! [`FitWorkspace`] per worker** (normal-equation matrices, Jacobian and
//! residual buffers — warm after the first fit, zero heap allocation
//! afterwards), all reading one shared read-only [`FeatureTable`] of
//! pre-transformed base-function values and its Eq. 4 weight column,
//! borrowed, never copied. Ranking
//! breaks fitness ties by [`FitResult::family_index`], a total order, so
//! the result is bit-identical at any thread count and identical to the
//! pre-refactor sequential enumeration preserved in [`crate::reference`]
//! (the oracle the learning golden in `dynsched-core`'s `differential`
//! harness pins against).
//!
//! # The residual pass
//!
//! A fit spends its time evaluating the residual vector — about 70 times
//! a fit on a pooled set, three probes an iteration and one or two
//! candidate steps — so that pass is compiled nine times, once per
//! operator pair, and a fit picks its copy once. Inside, the shape is a
//! constant: no per-observation `match` on the operators, the division
//! guard present only where the pair divides, and a loop body the
//! compiler vectorizes over the cached `α(r)`, `β(n)`, `γ(s)` columns.
//! It is exact because it is the oracle's arithmetic element for
//! element: the three products `cⱼ·column`, the association of
//! [`eval_transformed`](NonlinearFunction::eval_transformed), the guard
//! code of [`OpKind::apply`] itself (called, not re-typed), the NaN →
//! `f64::MAX` sanitizer, then `w · (f − score)` — a SIMD lane rounds each
//! of those exactly as the scalar unit does, and nothing is summed here.
//! The sums (cost, `JᵀJ`, `Jᵀr`) are [`crate::lm`]'s, each sequential.
//!
//! On x86-64 each pass also has an AVX2 copy, the same body under
//! `#[target_feature(enable = "avx2")]`: four `f64` lanes to the baseline
//! build's two, taken by a fit when `is_x86_feature_detected!("avx2")`
//! holds. It is exact for the reasons above — no element depends on
//! another, add, subtract, multiply, divide, `abs`, `copysign` and the
//! compares round per element at any width, the guard and the sanitizer
//! become selects — and it enables no `fma` (nor does Rust ever contract
//! `a*b + c`). On a 2-vCPU Xeon, where the pass is about half of a fit,
//! `fit_all` took 0.83× as long and `train_wide` 0.85×. Not taken: the
//! whole fit under AVX2 (0.92–1.10× the pass alone over six rounds: its
//! loops are ordered sums, latency-bound) and an AVX-512 copy (≈ 12 %
//! more off the pass, too little for a third path).
//!
//! The three products are recomputed on every pass, probes included.
//! Keeping them in columns between passes — a probe moves one
//! coefficient, so two products of three are unchanged — was built and
//! measured: the pass is bound by its divisions and its five input
//! streams, not by two multiplications, and writing three more columns at
//! every candidate step cost more than the probes saved (`fit_all` on
//! 5 120 observations, one worker, six alternating rounds: 0.48–0.56 s
//! with the columns, 0.43–0.51 without, 1.00–1.29 before either).

use crate::dataset::{FeatureTable, TrainingSet};
use crate::lm::{levenberg_marquardt_scoped, LmOutcome, LmWorkspace};
use dynsched_policies::learned::{LearnedPolicy, NonlinearFunction, OpKind};
use dynsched_simkit::parallel::par_map_scoped;

/// Initial coefficients for every fit. Scores are ~1/|Q| ≈ 0.03 while
/// features reach 1e5; tiny symmetric starting coefficients put the first
/// Gauss–Newton step in a sane region for every shape.
pub(crate) const INITIAL_COEFFICIENTS: [f64; 3] = [1e-4, 1e-4, 1e-4];

/// Options for the enumeration run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnumerateOptions {
    /// Use the Eq. 4 weight `r·n` (true in the paper; the ablation bench
    /// turns it off to show why it matters).
    pub weighted: bool,
    /// Cap on the optimizer's outer iterations per fit.
    pub max_iterations: usize,
}

impl Default for EnumerateOptions {
    fn default() -> Self {
        Self {
            weighted: true,
            max_iterations: 200,
        }
    }
}

/// A fitted family member with its Eq. 5 fitness.
#[derive(Debug, Clone, PartialEq)]
pub struct FitResult {
    /// The function, with fitted coefficients.
    pub function: NonlinearFunction,
    /// Position of the function's shape in the
    /// [`NonlinearFunction::enumerate_family`] order — a stable identity
    /// used to break fitness ties deterministically.
    pub family_index: usize,
    /// Eq. 5: mean absolute error (unweighted). Lower is better.
    pub fitness: f64,
    /// Eq. 4: weighted sum of squared errors at the fitted coefficients.
    pub weighted_sse: f64,
    /// Whether the optimizer met its tolerances.
    pub converged: bool,
}

/// Reusable per-worker state of the batched enumeration: the optimizer's
/// [`LmWorkspace`] — five float columns, the residuals, a probe and the
/// three Jacobian columns. Cleared (fully overwritten) per fit, never read
/// across fits — the scratch contract of the parallel drivers.
#[derive(Debug, Clone, Default)]
pub struct FitWorkspace {
    lm: LmWorkspace,
    /// The unweighted ablation's weight column, built on first use.
    ones: Vec<f64>,
    outcome: Option<LmOutcome>,
}

impl FitWorkspace {
    /// What the optimizer did in the most recent fit (`None` before the
    /// first): exit, iterations and the work counts. A pure function of
    /// `(shape, table, options)`, like the fit itself.
    pub fn last_outcome(&self) -> Option<LmOutcome> {
        self.outcome
    }
}

/// One Eq. 4 residual pass, compiled for one operator pair:
/// `out[i] = w[i] · ((c₁·α[i]) op₁ (c₂·β[i]) op₂ (c₃·γ[i]) − score[i])`.
/// `unsafe` because an AVX2 copy may run only on a CPU that has AVX2.
type ResidualPass = unsafe fn(
    coefficients: [f64; 3],
    features: [&[f64]; 3],
    scores: &[f64],
    weights: &[f64],
    out: &mut [f64],
);

/// [`ResidualPass`] for the pair `(OpKind::ALL[OP1], OpKind::ALL[OP2])`.
/// Element for element it is
/// [`eval_transformed`](NonlinearFunction::eval_transformed): the same
/// three products, the same association (`A + (B op₂ C)` when `op₁` is
/// `+` and `op₂` binds tighter, left to right otherwise), the operators
/// through [`OpKind::apply`] — so the division guard is that function's
/// code, folded at compile time onto the one arm the pair selects — and
/// the same NaN → `f64::MAX` sanitizer. What is left per observation has
/// no branch on the shape, so the loop vectorizes; each lane performs the
/// scalar operations in the scalar order, so no bit moves.
#[inline(always)]
fn residual_pass<const OP1: usize, const OP2: usize>(
    [c1, c2, c3]: [f64; 3],
    [alpha, beta, gamma]: [&[f64]; 3],
    scores: &[f64],
    weights: &[f64],
    out: &mut [f64],
) {
    let (op1, op2) = (OpKind::ALL[OP1], OpKind::ALL[OP2]);
    let tight = op1 == OpKind::Add && op2.is_multiplicative();
    let n = out.len();
    let (alpha, beta, gamma) = (&alpha[..n], &beta[..n], &gamma[..n]);
    let (scores, weights) = (&scores[..n], &weights[..n]);
    for i in 0..n {
        let (a, b, c) = (c1 * alpha[i], c2 * beta[i], c3 * gamma[i]);
        let f = if tight {
            op1.apply(a, op2.apply(b, c))
        } else {
            op2.apply(op1.apply(a, b), c)
        };
        let f = if f.is_nan() { f64::MAX } else { f };
        out[i] = weights[i] * (f - scores[i]);
    }
}

/// [`residual_pass`] compiled for AVX2: the same loop, four lanes wide.
///
/// # Safety
///
/// The CPU must have AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn residual_pass_avx2<const OP1: usize, const OP2: usize>(
    coefficients: [f64; 3],
    features: [&[f64]; 3],
    scores: &[f64],
    weights: &[f64],
    out: &mut [f64],
) {
    residual_pass::<OP1, OP2>(coefficients, features, scores, weights, out)
}

/// The nine passes, indexed by the operators' positions in [`OpKind::ALL`].
#[rustfmt::skip]
const RESIDUAL_PASSES: [[ResidualPass; 3]; 3] = [
    [residual_pass::<0, 0>, residual_pass::<0, 1>, residual_pass::<0, 2>],
    [residual_pass::<1, 0>, residual_pass::<1, 1>, residual_pass::<1, 2>],
    [residual_pass::<2, 0>, residual_pass::<2, 1>, residual_pass::<2, 2>],
];

/// The same nine passes compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[rustfmt::skip]
const RESIDUAL_PASSES_AVX2: [[ResidualPass; 3]; 3] = [
    [residual_pass_avx2::<0, 0>, residual_pass_avx2::<0, 1>, residual_pass_avx2::<0, 2>],
    [residual_pass_avx2::<1, 0>, residual_pass_avx2::<1, 1>, residual_pass_avx2::<1, 2>],
    [residual_pass_avx2::<2, 0>, residual_pass_avx2::<2, 1>, residual_pass_avx2::<2, 2>],
];

/// The passes this CPU runs: the AVX2 copies where it has AVX2.
fn residual_passes() -> &'static [[ResidualPass; 3]; 3] {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return &RESIDUAL_PASSES_AVX2;
    }
    &RESIDUAL_PASSES
}

/// Fit one family member against the training set.
///
/// One-shot convenience: builds a [`FeatureTable`] and a fresh
/// [`FitWorkspace`] per call. [`fit_all`] amortizes both across the whole
/// family; results are bit-identical either way.
pub fn fit_function(
    shape: NonlinearFunction,
    training: &TrainingSet,
    options: &EnumerateOptions,
) -> FitResult {
    assert!(!training.is_empty(), "cannot fit an empty training set");
    let table = FeatureTable::build(training);
    fit_function_scoped(shape, &table, options, &mut FitWorkspace::default())
}

/// Fit one family member out of a shared [`FeatureTable`] and a reusable
/// [`FitWorkspace`] — the batched kernel behind [`fit_all`]. Zero heap
/// allocation once `ws` is warm (the returned [`FitResult`] is plain
/// `Copy`-sized data).
pub fn fit_function_scoped(
    shape: NonlinearFunction,
    table: &FeatureTable,
    options: &EnumerateOptions,
    ws: &mut FitWorkspace,
) -> FitResult {
    assert!(!table.is_empty(), "cannot fit an empty training set");
    let n = table.len();
    let alpha_r = table.alpha(shape.alpha);
    let beta_n = table.beta(shape.beta);
    let gamma_s = table.gamma(shape.gamma);
    let scores = table.scores();

    let weights = if options.weighted {
        table.weights()
    } else {
        ws.ones.resize(n, 1.0);
        &ws.ones
    };

    let position = |op: OpKind| {
        let found = OpKind::ALL.iter().position(|&o| o == op);
        found.expect("OpKind::ALL lists every operator")
    };
    let pass = residual_passes()[position(shape.op1)][position(shape.op2)];
    let features = [alpha_r, beta_n, gamma_s];
    let outcome = levenberg_marquardt_scoped(
        &mut ws.lm,
        |params, out| {
            let coefficients = [params[0], params[1], params[2]];
            // SAFETY: `residual_passes` hands out an AVX2 copy only when
            // `is_x86_feature_detected!("avx2")` held on this CPU.
            unsafe { pass(coefficients, features, scores, weights, out) }
        },
        &INITIAL_COEFFICIENTS,
        n,
        options.max_iterations,
    );
    ws.outcome = Some(outcome);

    let params = ws.lm.params();
    let fitted = shape.with_coefficients([params[0], params[1], params[2]]);
    // Eq. 5 over the cached features — the same arithmetic as [`rank`].
    let fitness = (0..n)
        .map(|i| (fitted.eval_transformed(alpha_r[i], beta_n[i], gamma_s[i]) - scores[i]).abs())
        .sum::<f64>()
        / n as f64;
    FitResult {
        function: fitted,
        family_index: shape.family_position(),
        fitness,
        weighted_sse: outcome.cost,
        converged: outcome.converged,
    }
}

/// Eq. 5: `rank(f) = (1/|Tr|) Σ |f(r,n,s) − score(r,n,s)|`.
pub fn rank(function: &NonlinearFunction, training: &TrainingSet) -> f64 {
    let obs = training.observations();
    assert!(!obs.is_empty(), "cannot rank on an empty training set");
    obs.iter()
        .map(|o| (function.eval(o.runtime, o.cores, o.submit) - o.score).abs())
        .sum::<f64>()
        / obs.len() as f64
}

/// The total order of the ranking: increasing fitness (non-finite last),
/// ties broken by the shape's position in the family enumeration. Because
/// the secondary key is unique per candidate, the order never depends on
/// how (or on how many threads) the candidates were evaluated.
fn ranking_order(a: &FitResult, b: &FitResult) -> std::cmp::Ordering {
    let key = |r: &FitResult| {
        if r.fitness.is_finite() {
            r.fitness
        } else {
            f64::INFINITY
        }
    };
    key(a)
        .total_cmp(&key(b))
        .then(a.family_index.cmp(&b.family_index))
}

/// Fit every member of the family as one batched session and return the
/// results sorted by increasing fitness (best fit first; non-finite
/// fitness sorts last, ties broken by family order). The fits fan out
/// over the deterministic thread pool with one reusable [`FitWorkspace`]
/// per worker, all sharing one pre-transformed [`FeatureTable`]; the
/// result is bit-identical at any thread count and to the sequential
/// [`crate::reference::fit_all_reference`] oracle.
pub fn fit_all(training: &TrainingSet, options: &EnumerateOptions) -> Vec<FitResult> {
    assert!(!training.is_empty(), "cannot fit an empty training set");
    let family = NonlinearFunction::enumerate_family();
    let table = FeatureTable::build(training);
    let mut results: Vec<FitResult> =
        par_map_scoped(&family, FitWorkspace::default, |shape, ws| {
            fit_function_scoped(*shape, &table, options, ws)
        });
    // The tie-break key is unique, so an unstable sort is fully
    // deterministic here.
    results.sort_unstable_by(ranking_order);
    results
}

/// Convert the `k` best fits into policies named `G1..Gk` ("G" for
/// *generated*, to distinguish them from the paper's published F1–F4).
///
/// Selection re-applies the full ranking order (fitness, then family
/// index) rather than trusting the slice order, so the top-k is the same
/// for any permutation of `results` — parallel enumeration, partial
/// re-sorts or merged result sets cannot change which policies ship.
pub fn top_policies(results: &[FitResult], k: usize) -> Vec<LearnedPolicy> {
    let mut order: Vec<&FitResult> = results.iter().collect();
    order.sort_by(|a, b| ranking_order(a, b));
    order
        .iter()
        .take(k)
        .enumerate()
        .map(|(i, r)| LearnedPolicy::generated(i + 1, r.function))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Observation;
    use dynsched_policies::learned::BaseFunc;
    use dynsched_policies::Policy as _;

    /// A training set generated exactly by an F1-shaped function, so the
    /// enumeration must recover it (or an algebraic equivalent) at the top.
    fn synthetic_f1_set() -> TrainingSet {
        let truth = NonlinearFunction::with_shape(
            BaseFunc::Log10,
            OpKind::Mul,
            BaseFunc::Id,
            OpKind::Add,
            BaseFunc::Log10,
        )
        .with_coefficients([2e-4, 1.0, 8e-3]);
        let mut obs = Vec::new();
        // A deterministic grid over realistic (r, n, s) values.
        for (i, r) in [5.0, 60.0, 600.0, 3_600.0, 20_000.0].iter().enumerate() {
            for (j, n) in [1.0, 4.0, 16.0, 64.0, 256.0].iter().enumerate() {
                for (k, s) in [100.0, 5_000.0, 40_000.0, 90_000.0].iter().enumerate() {
                    let wiggle = ((i * 31 + j * 17 + k * 7) % 13) as f64 * 1e-6;
                    obs.push(Observation {
                        runtime: *r,
                        cores: *n,
                        submit: *s,
                        score: truth.eval(*r, *n, *s) + wiggle,
                    });
                }
            }
        }
        TrainingSet::new(obs)
    }

    #[test]
    fn both_arms_of_every_residual_pass_give_the_same_bits() {
        // Columns that reach every guard lane: the denominators c₂·β and
        // c₃·γ are ±0, ±1e-13 and ±1e-12 (doubling is exact), c·(±MAX)
        // overflows to ±∞, and ∞ − ∞, ∞ · 0 and ∞ / ∞ are NaNs the
        // sanitizer maps to `f64::MAX`.
        const COEFFICIENTS: [f64; 3] = [3.0, -2.0, 2.0];
        const N: usize = 513;
        let alphas = [1.0, -0.5, f64::MAX, -f64::MAX, 0.0, 1e-300, 4.2e3];
        #[rustfmt::skip]
        let halves = [0.0, -0.0, 5e-14, -5e-14, 5e-13, -5e-13, f64::MAX, -f64::MAX, 0.7, -3.1, 1e5, 12.5];
        let alpha: Vec<f64> = (0..N).map(|i| alphas[i % alphas.len()]).collect();
        let beta: Vec<f64> = (0..N).map(|i| halves[i % 12]).collect();
        let gamma: Vec<f64> = (0..N).map(|i| halves[i / 12 % 12]).collect();
        let scores: Vec<f64> = (0..N).map(|i| [0.0, 0.125][i % 2]).collect();
        let weights: Vec<f64> = (0..N).map(|i| [1.0, 0.5, 3.0][i % 3]).collect();
        for d in [0.0f64, -0.0, 1e-13, -1e-13, 1e-12, -1e-12] {
            let reaches =
                |column: &[f64], c: f64| column.iter().any(|&x| (c * x).to_bits() == d.to_bits());
            assert!(reaches(&beta, COEFFICIENTS[1]) && reaches(&gamma, COEFFICIENTS[2]));
        }

        let mut arms: Vec<(&str, &[[ResidualPass; 3]; 3])> = vec![("baseline", &RESIDUAL_PASSES)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            arms.push(("avx2", &RESIDUAL_PASSES_AVX2));
        }
        let names: Vec<&str> = arms.iter().map(|(name, _)| *name).collect();
        println!("residual pass arms compared: {names:?}");

        // The whole column, one call per `len`-long window.
        let run = |pass: ResidualPass, len: usize| {
            let mut out = vec![0.0; N];
            for (k, window) in out.chunks_mut(len).enumerate() {
                let s = k * len;
                let features = [&alpha[s..], &beta[s..], &gamma[s..]];
                // SAFETY: `arms` holds the AVX2 copies only when
                // `is_x86_feature_detected!("avx2")` held.
                unsafe { pass(COEFFICIENTS, features, &scores[s..], &weights[s..], window) };
            }
            out
        };
        for (o1, o2) in (0..3).flat_map(|o1| (0..3).map(move |o2| (o1, o2))) {
            // One element per call: no vector lane at all.
            let want = run(RESIDUAL_PASSES[o1][o2], 1);
            assert!(
                want.contains(&f64::MAX),
                "pair ({o1}, {o2}) never sanitized a NaN"
            );
            for (arm, passes) in &arms {
                for len in [1, 2, 3, 5, 17, N] {
                    let got = run(passes[o1][o2], len);
                    let moved = (0..N).find(|&i| got[i].to_bits() != want[i].to_bits());
                    assert_eq!(moved, None, "{arm} pass ({o1}, {o2}) at length {len}");
                }
            }
        }
    }

    #[test]
    fn fit_recovers_generating_function() {
        let ts = synthetic_f1_set();
        let shape = NonlinearFunction::with_shape(
            BaseFunc::Log10,
            OpKind::Mul,
            BaseFunc::Id,
            OpKind::Add,
            BaseFunc::Log10,
        );
        let fit = fit_function(shape, &ts, &EnumerateOptions::default());
        // The product c1·c2 and c3 are identifiable; the merged form must
        // match the generator: c1·c2 = 2e-4, c3 = 8e-3.
        let [c1, c2, c3] = fit.function.coefficients;
        assert!(((c1 * c2) - 2e-4).abs() < 2e-5, "c1*c2 = {}", c1 * c2);
        assert!((c3 - 8e-3).abs() < 8e-4, "c3 = {c3}");
        assert!(fit.fitness < 1e-4, "fitness {}", fit.fitness);
    }

    #[test]
    fn rank_is_mean_absolute_error() {
        let ts = TrainingSet::new(vec![
            Observation {
                runtime: 1.0,
                cores: 1.0,
                submit: 1.0,
                score: 0.0,
            },
            Observation {
                runtime: 2.0,
                cores: 1.0,
                submit: 1.0,
                score: 0.0,
            },
        ]);
        // f(r,n,s) = r (id·id with c2=1/n trick isn't needed: pick A+B+C
        // with zero co-factors).
        let f = NonlinearFunction::with_shape(
            BaseFunc::Id,
            OpKind::Add,
            BaseFunc::Id,
            OpKind::Add,
            BaseFunc::Id,
        )
        .with_coefficients([1.0, 0.0, 0.0]);
        // |1-0| and |2-0| → mean 1.5.
        assert!((rank(&f, &ts) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn fit_all_sorts_best_first_and_finds_truth_family() {
        let ts = synthetic_f1_set();
        let opts = EnumerateOptions {
            max_iterations: 60, // keep the 576-fit sweep quick
            ..Default::default()
        };
        let results = fit_all(&ts, &opts);
        assert_eq!(results.len(), 576);
        for w in results.windows(2) {
            let a = if w[0].fitness.is_finite() {
                w[0].fitness
            } else {
                f64::INFINITY
            };
            let b = if w[1].fitness.is_finite() {
                w[1].fitness
            } else {
                f64::INFINITY
            };
            assert!(a <= b, "results not sorted");
        }
        // The winning function must fit far better than the median one.
        let best = results[0].fitness;
        let median = results[288].fitness;
        assert!(
            best < median * 0.5,
            "best {best} should clearly beat median {median}"
        );
        // And it should reproduce the generator's ordering behaviour:
        // same sign structure — bigger r·n ⇒ bigger f at fixed s.
        let f = &results[0].function;
        assert!(f.eval(20_000.0, 256.0, 100.0) > f.eval(5.0, 1.0, 100.0));
    }

    #[test]
    fn weighting_changes_the_fit() {
        // Craft a set where small and big tasks disagree: weighted fits
        // must track the big tasks more closely.
        let mut obs = Vec::new();
        for i in 0..50 {
            let s = 100.0 + i as f64;
            obs.push(Observation {
                runtime: 1.0,
                cores: 1.0,
                submit: s,
                score: 0.10,
            });
            obs.push(Observation {
                runtime: 10_000.0,
                cores: 128.0,
                submit: s,
                score: 0.01,
            });
        }
        let ts = TrainingSet::new(obs);
        // Fit a constant-capable shape: A + B + C over inv(r), inv(n), inv(s)
        // is awkward; instead use Id shapes and rely on coefficients.
        let shape = NonlinearFunction::with_shape(
            BaseFunc::Inv,
            OpKind::Add,
            BaseFunc::Inv,
            OpKind::Add,
            BaseFunc::Inv,
        );
        let weighted = fit_function(shape, &ts, &EnumerateOptions::default());
        let unweighted = fit_function(
            shape,
            &ts,
            &EnumerateOptions {
                weighted: false,
                ..Default::default()
            },
        );
        let big_err_w = (weighted.function.eval(10_000.0, 128.0, 125.0) - 0.01).abs();
        let big_err_u = (unweighted.function.eval(10_000.0, 128.0, 125.0) - 0.01).abs();
        assert!(
            big_err_w <= big_err_u + 1e-12,
            "weighted fit should serve big tasks at least as well ({big_err_w} vs {big_err_u})"
        );
    }

    #[test]
    fn top_policies_names_and_count() {
        let ts = synthetic_f1_set();
        let opts = EnumerateOptions {
            max_iterations: 30,
            ..Default::default()
        };
        let results = fit_all(&ts, &opts);
        let pols = top_policies(&results, 4);
        assert_eq!(pols.len(), 4);
        let names: Vec<&str> = pols.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["G1", "G2", "G3", "G4"]);
    }

    #[test]
    #[should_panic]
    fn empty_training_set_rejected() {
        let ts = TrainingSet::default();
        let shape = NonlinearFunction::enumerate_family()[0];
        fit_function(shape, &ts, &EnumerateOptions::default());
    }

    #[test]
    fn fit_all_is_thread_count_independent() {
        use dynsched_simkit::parallel::with_worker_limit;
        let ts = synthetic_f1_set();
        let opts = EnumerateOptions {
            max_iterations: 25,
            ..Default::default()
        };
        let wide = fit_all(&ts, &opts);
        let narrow = with_worker_limit(1, || fit_all(&ts, &opts));
        assert_eq!(wide, narrow);
    }

    #[test]
    fn ranking_ties_break_by_family_index() {
        // Hand-build results with equal fitness: the order must come out
        // by family index no matter how the input is arranged.
        let family = NonlinearFunction::enumerate_family();
        let mk = |i: usize, fitness: f64| FitResult {
            function: family[i],
            family_index: i,
            fitness,
            weighted_sse: 0.0,
            converged: true,
        };
        let mut results = [mk(300, 0.5), mk(7, 0.5), mk(120, 0.5), mk(42, 0.1)];
        results.sort_unstable_by(ranking_order);
        let order: Vec<usize> = results.iter().map(|r| r.family_index).collect();
        assert_eq!(order, vec![42, 7, 120, 300]);
    }

    #[test]
    fn top_policies_ignore_input_order() {
        // Equal-rank candidates arriving in any evaluation order must
        // produce the same top-k — the parallel-enumeration guarantee.
        let family = NonlinearFunction::enumerate_family();
        let mk = |i: usize, fitness: f64| FitResult {
            function: family[i].with_coefficients([i as f64, 1.0, 1.0]),
            family_index: i,
            fitness,
            weighted_sse: 0.0,
            converged: true,
        };
        let sorted = vec![
            mk(3, 0.1),
            mk(10, 0.2),
            mk(55, 0.2),
            mk(200, 0.2),
            mk(400, 0.9),
        ];
        let mut jumbled = vec![
            sorted[3].clone(),
            sorted[0].clone(),
            sorted[4].clone(),
            sorted[2].clone(),
            sorted[1].clone(),
        ];
        let from_sorted = top_policies(&sorted, 3);
        let from_jumbled = top_policies(&jumbled, 3);
        assert_eq!(from_sorted.len(), 3);
        for (a, b) in from_sorted.iter().zip(&from_jumbled) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.function(), b.function());
        }
        assert_eq!(from_sorted[1].name(), "G2");
        assert_eq!(from_sorted[1].function().coefficients[0], 10.0);
        // And reversing the jumble changes nothing either.
        jumbled.reverse();
        let reversed = top_policies(&jumbled, 3);
        for (a, b) in from_sorted.iter().zip(&reversed) {
            assert_eq!(a.function(), b.function());
        }
    }

    #[test]
    fn non_finite_fitness_sorts_last() {
        let family = NonlinearFunction::enumerate_family();
        let mk = |i: usize, fitness: f64| FitResult {
            function: family[i],
            family_index: i,
            fitness,
            weighted_sse: 0.0,
            converged: false,
        };
        let mut results = [
            mk(0, f64::NAN),
            mk(1, 2.0),
            mk(2, f64::INFINITY),
            mk(3, 1.0),
        ];
        results.sort_unstable_by(ranking_order);
        let order: Vec<usize> = results.iter().map(|r| r.family_index).collect();
        // NaN and +inf map to the same key; family index orders them.
        assert_eq!(order, vec![3, 1, 0, 2]);
    }
}
