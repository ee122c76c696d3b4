//! # dynsched-mlreg
//!
//! The machine-learning stage of the `dynsched` SC'17 reproduction
//! (paper §3.3): weighted nonlinear regression over the enumerated
//! function family.
//!
//! * [`linalg`] — small dense LU solves for the normal equations, with
//!   in-place variants ([`linalg::solve_in_place`]) for the workspace
//!   path, and [`linalg::normal_equations`]: `JᵀJ` and `Jᵀr` of a
//!   column-major Jacobian in one sweep;
//! * [`lm`] — Levenberg–Marquardt (the algorithm behind SciPy's
//!   `leastsq`, which the paper used): one entry point,
//!   [`levenberg_marquardt_scoped`], run out of a reusable [`LmWorkspace`]
//!   and reporting, per fit, its exit and work counts ([`LmOutcome`]);
//! * [`dataset`] — the `score(r,n,s)` observations with the artifact's CSV
//!   codec, the Eq. 4 `r·n` weighting, and the pre-transformed
//!   [`FeatureTable`] the enumeration sweeps over;
//! * [`enumerate`] — fit all 576 family members as one batched session
//!   ([`fit_all`]; one member is [`fit_function_scoped`] on a
//!   [`FeatureTable`] and a [`FitWorkspace`]), rank by Eq. 5 (the paper's
//!   Table 3 uses no other selection criterion), and export the best as
//!   scheduling policies;
//! * [`reference`](mod@reference) — the pre-refactor sequential
//!   enumeration, kept as the bit-identity oracle and the performance
//!   baseline.
//!
//! ## The learning workspace-reuse + determinism contract
//!
//! [`fit_all`] mirrors the evaluation layer's batched-session
//! architecture: candidate fits fan out over the deterministic thread
//! pool (`dynsched_simkit::parallel`), each worker owning one
//! [`FitWorkspace`] (optimizer matrices, residual and Jacobian columns)
//! that is fully overwritten — never read — between fits, while all
//! workers share one read-only [`FeatureTable`] of base-function values
//! and Eq. 4 weights computed once per training set. Each fit is a pure
//! function of `(shape, table, options)`, and ranking breaks fitness ties
//! by the candidate's unique family index, so:
//!
//! * results are **bit-identical at any thread count**, and
//! * bit-identical to the sequential pre-refactor path
//!   ([`reference::fit_all_reference`]) — pinned by the learning golden
//!   in `dynsched-core`'s `differential` harness and the
//!   `regression_properties` tests; keep both green when touching this
//!   crate.
//!
//! Steady-state the sweep performs no heap allocation: buffers warm up on
//! the first fit a worker executes and are reused for the rest.
//!
//! ## Why the fast fit has the oracle's bits
//!
//! The fast path lays a fit out for the machine — a residual pass
//! compiled per operator pair that vectorizes over the cached columns
//! ([`enumerate`]), a column-major Jacobian, `JᵀJ` and `Jᵀr` from one
//! sweep ([`lm`], [`linalg::normal_equations`]) — and changes no
//! operation: the same operations per element, in the same order; every
//! sum (cost, Gram entry, gradient entry) one accumulator from `0.0` in
//! ascending observation index; `/ h` a division; the division guard the
//! code of `OpKind::apply` itself. Where the CPU has AVX2, a fit picks at
//! run time a copy of the residual pass compiled four lanes wide, with no
//! FMA: each lane rounds every operation as the scalar unit does
//! ([`enumerate`] has the argument). `tests/fit_bit_identity.rs` holds
//! every one of the 576 shapes to `==` with [`reference`](mod@reference),
//! weighted and unweighted, through every guard lane and every exit of
//! the step loop; `enumerate`'s tests hold both copies to the same bits;
//! CI repeats them in a default release build and under
//! `-C target-cpu=native`.

#![warn(missing_docs)]

pub mod dataset;
pub mod enumerate;
pub mod linalg;
pub mod lm;
pub mod reference;
pub mod validate;

pub use dataset::{FeatureTable, Observation, TrainingSet};
pub use enumerate::{
    fit_all, fit_function_scoped, rank, sort_ranked, top_policies, EnumerateOptions, FitResult,
    FitWorkspace,
};
pub use lm::{levenberg_marquardt_scoped, LmCounts, LmExit, LmFit, LmOutcome, LmWorkspace};
pub use reference::{fit_all_reference, fit_function_reference};
pub use validate::{fit_stats, FitStats};
