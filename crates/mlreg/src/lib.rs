//! # dynsched-mlreg
//!
//! The machine-learning stage of the `dynsched` SC'17 reproduction
//! (paper §3.3): weighted nonlinear regression over the enumerated
//! function family.
//!
//! * [`linalg`] — small dense LU solves for the normal equations, with
//!   in-place variants ([`linalg::solve_in_place`], `gram_into`, …) for
//!   the workspace path;
//! * [`lm`] — Levenberg–Marquardt (the algorithm behind SciPy's
//!   `leastsq`, which the paper used), with a reusable [`LmWorkspace`];
//! * [`dataset`] — the `score(r,n,s)` observations with the artifact's CSV
//!   codec, the Eq. 4 `r·n` weighting, and the pre-transformed
//!   [`FeatureTable`] the enumeration sweeps over;
//! * [`enumerate`] — fit all 576 family members as one batched session,
//!   rank by Eq. 5, and export the best as scheduling policies;
//! * [`reference`](mod@reference) — the pre-refactor sequential
//!   enumeration, kept as the bit-identity oracle and the performance
//!   baseline.
//!
//! ## The learning workspace-reuse + determinism contract
//!
//! [`fit_all`] mirrors the evaluation layer's batched-session
//! architecture: candidate fits fan out over the deterministic thread
//! pool (`dynsched_simkit::parallel`), each worker owning one
//! [`FitWorkspace`] (optimizer matrices + weight buffer) that is fully
//! overwritten — never read — between fits, while all workers share one
//! read-only [`FeatureTable`] of base-function values computed once per
//! training set. Each fit is a pure function of `(shape, table,
//! options)`, and ranking breaks fitness ties by the candidate's unique
//! family index, so:
//!
//! * results are **bit-identical at any thread count**, and
//! * bit-identical to the sequential pre-refactor path
//!   ([`reference::fit_all_reference`]) — pinned by the
//!   `learning_pipeline` golden suite and the `regression_properties`
//!   tests; keep both green when touching this crate.
//!
//! Steady-state the sweep performs no heap allocation: buffers warm up on
//! the first fit a worker executes and are reused for the rest.

#![warn(missing_docs)]

pub mod dataset;
pub mod enumerate;
pub mod linalg;
pub mod lm;
pub mod reference;
pub mod select;
pub mod validate;

pub use dataset::{FeatureTable, Observation, TrainingSet};
pub use enumerate::{
    fit_all, fit_function, fit_function_scoped, rank, top_policies, EnumerateOptions, FitResult,
    FitWorkspace,
};
pub use lm::{
    levenberg_marquardt, levenberg_marquardt_scoped, LmFit, LmOptions, LmOutcome, LmWorkspace,
};
pub use reference::{fit_all_reference, fit_function_reference};
pub use select::{coefficient_diagnostics, selection_report, CoefficientDiagnostics};
pub use validate::{fit_stats, FitStats};
