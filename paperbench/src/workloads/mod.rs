//! The seven workloads. Each is a closed loop: one pass after another,
//! the next starting when the previous one returns.

pub mod federate;
pub mod learning;
pub mod replay;
pub mod table4;

use crate::harness::Tally;
use crate::metrics::Layers;
use crate::sizes::Scale;
use crate::trace::Tracer;
use dynsched_cluster::Job;
use dynsched_simkit::json::Json;
use dynsched_workload::{Trace, TraceView};
use std::path::Path;

/// The first `jobs` jobs of `view`, as the input of a comparison against
/// `scheduler::reference`. The reference collects running jobs' expected
/// ends in `HashMap` order, so it is only well-defined while no two of
/// them are equal — and with SWF's two decimals and modal estimates, two
/// jobs started at the same instant with the same estimate are common.
/// Adding `i` microseconds to job `i`'s estimate makes every expected end
/// distinct (all other times are multiples of 10 ms, and `jobs` is far
/// below 10 000), which is the domain the repository's own
/// `determinism_reference` suite asserts bit-identity on.
fn reference_prefix(view: &TraceView, jobs: usize) -> Trace {
    Trace::from_jobs(
        view.columns()
            .iter_jobs()
            .take(jobs)
            .enumerate()
            .map(|(i, j)| {
                Job::new(
                    j.id,
                    j.submit,
                    j.runtime,
                    j.estimate + i as f64 * 1e-6,
                    j.cores,
                )
            })
            .collect(),
    )
}

/// What one pass produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassOutcome {
    /// Digest over the exact bits of the pass's results. Every pass of a
    /// run must yield the same one.
    pub digest: u64,
    /// Engine events (arrivals + completions) the pass simulated: counted
    /// by the engine where the entry point exposes its workspaces, else
    /// two per simulated job.
    pub events: u64,
    /// Library operations attempted (simulations, fits, federations…).
    pub operations: u64,
    /// How many of them returned `Err`.
    pub failed: u64,
}

/// One workload, set up and ready to run passes.
pub trait Workload {
    /// The input sizes, recorded with every result.
    fn sizes(&self) -> Json;

    /// One pass: the whole user-visible operation the workload names.
    /// With a recording tracer the pass wraps every call into a library
    /// crate in a span (and composes one-call entries from their public
    /// stage functions, so the stages can be told apart).
    fn pass(&mut self, tr: &mut Tracer) -> PassOutcome;

    /// Correctness checks against the reference implementations, run once
    /// before timing.
    fn check(&mut self, tally: &mut Tally);

    /// The workload's per-layer metrics: read off the spans of the traced
    /// passes in `tr`, plus probes timed here.
    fn probes(&mut self, layers: &mut Layers, tr: &Tracer);
}

/// Set up workload `name`: synthesize its inputs from `seed` (see
/// [`crate::sizes`]), write what it reads from disk under `scratch_dir`,
/// compile its policies. Per-layer metrics that are measured during
/// set-up go to `layers`.
pub fn set_up(
    name: &str,
    scale: Scale,
    seed: u64,
    scratch_dir: &Path,
    layers: &mut Layers,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "paper_loop" => Box::new(learning::PaperLoop::new(
            scale,
            seed,
            scratch_dir.to_path_buf(),
        )),
        "train_wide" => Box::new(learning::TrainWide::new(scale, seed)),
        "table4" => Box::new(table4::Table4::new(scale, seed)),
        "federate" => Box::new(federate::Federate::new(scale, seed, layers)),
        other => match replay::Kind::parse(other) {
            Some(kind) => Box::new(replay::Replay::new(kind, scale, seed, scratch_dir, layers)?),
            None => {
                return Err(format!(
                    "unknown workload {other:?}; expected one of {:?}",
                    crate::metrics::WORKLOADS
                ))
            }
        },
    })
}
