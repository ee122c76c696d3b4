//! # dynsched-policies
//!
//! Queue-ordering scheduling policies for the `dynsched` SC'17 reproduction.
//!
//! * [`task_view`] — the information a policy may see ([`TaskView`],
//!   [`DecisionMode`]);
//! * [`policy`] — the [`Policy`] trait (lower score runs first) and queue
//!   sorting;
//! * [`baselines`] — FCFS, LCFS, SPT, LPT, SAF, LAF, WFP3, UNICEF
//!   (the paper's Table 2 plus classics used in ablations);
//! * [`learned`] — the nonlinear function family of §3.3 and the fitted
//!   policies F1–F4 of Table 3;
//! * [`expr`] — a parsed score-expression language so externally fitted
//!   policies can be loaded from text;
//! * [`compile`] — bytecode policy kernels: every built-in policy lowers
//!   to a flat postfix program with a **wait-invariant prefix** (evaluated
//!   once per job) and a time-dependent residual the scheduler re-runs in
//!   one batch pass per rescheduling event, bit-identical to the
//!   interpreted paths;
//! * [`multifactor`] — the SLURM-style multifactor priority the paper's §2
//!   positions this work against;
//! * [`registry`] — the paper's eight-policy line-up and name lookup.

#![warn(missing_docs)]

pub mod baselines;
pub mod compile;
pub mod expr;
pub mod io;
pub mod learned;
pub mod multifactor;
pub mod policy;
pub mod registry;
pub mod task_view;

pub use baselines::{Fcfs, Laf, Lcfs, Lpt, Saf, Spt, Unicef, Wfp3};
pub use compile::{
    compile_expr, least_position, order_key, BatchScratch, CompiledPolicy, ScoreLanes,
};
pub use expr::ExprPolicy;
pub use io::{load_policies, save_learned, save_policies};
pub use learned::{BaseFunc, LearnedPolicy, NonlinearFunction, OpKind};
pub use multifactor::MultiFactor;
pub use policy::{sort_views, Policy};
pub use registry::{baseline_lineup, by_name, paper_lineup};
pub use task_view::{DecisionMode, TaskView};
