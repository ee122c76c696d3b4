//! Input sizes per scale, and how `--seed` enters the inputs.
//!
//! # Structure seed and jitter seed
//!
//! Replay cost depends on queue depth, and queue depth on where the
//! congestion episodes of a trace fall: ten independently sampled 330-day
//! CTC SP2 stand-ins cost 1.09–2.08 s under `WFP`, ten 16-tuple training
//! sets 0.51–0.73 s of trials (one tuple: 190–2800 ns per trial). A
//! benchmark that resampled its inputs per seed would spread 13–90 %
//! across seeds and could not carry a 10 % regression bound. So the
//! *structure* of every input — arrival process, job shapes, tuples,
//! permutation streams — is drawn from the fixed [`STRUCTURE_SEED`], and
//! `--seed` drives a **jitter** on top, through `(seed, stream index)`
//! forks: a few hundredths of a second on every job's runtime and
//! estimate, a few parts per billion on the continuous protocol
//! parameters. Every seed therefore yields different input bits and a
//! different result digest (nothing can be memoised across seeds), while
//! the work a pass does stays within measurement noise of any other
//! seed's.

use dynsched_cluster::Job;
use dynsched_core::scenarios::ScenarioScale;
use dynsched_simkit::Rng;
use dynsched_workload::{SequenceSpec, Trace};

/// Seed of every structural generator stream (the repository's
/// `ScenarioScale::default` seed).
pub const STRUCTURE_SEED: u64 = 0x5C17;

/// Stream indices of the jitter forks of `--seed`.
pub mod stream {
    /// Start-offset window of the training tuples.
    pub const TUPLE_WINDOW: u64 = 0;
    /// Offered-load target of the Table-4 model scenarios.
    pub const MODEL_LOAD: u64 = 1;
    /// Per-job runtime jitter of replay trace `i` is `TRACE + i`.
    pub const TRACE: u64 = 16;
}

/// A factor in `[1, 1 + 2⁻²⁸)` drawn from `(seed, stream)`: the jitter on
/// a continuous protocol parameter.
pub fn jitter_factor(seed: u64, stream: u64) -> f64 {
    let k = Rng::new(seed).fork(stream).next_below(1 << 20);
    1.0 + k as f64 / (1u64 << 48) as f64
}

/// Largest jitter added to a job's runtime and estimate, in hundredths of
/// a second (SWF keeps two decimals).
const JITTER_CENTISECONDS: u64 = 50;

/// `base` with up to half a second, drawn from `(seed, stream)`, added to
/// every job's runtime and estimate alike.
pub fn jitter_trace(base: &Trace, seed: u64, stream: u64) -> Trace {
    let mut rng = Rng::new(seed).fork(stream);
    Trace::from_jobs(
        base.jobs()
            .iter()
            .map(|j| {
                let d = rng.next_below(JITTER_CENTISECONDS) as f64 / 100.0;
                Job::new(j.id, j.submit, j.runtime + d, j.estimate + d, j.cores)
            })
            .collect(),
    )
}

/// How large the inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds for everything: the smoke test's scale.
    Smoke,
    /// The default: passes of 0.3–1 s, so a run of a few seconds holds
    /// enough of them for a steady median.
    Bench,
    /// The paper's protocol and full-length archive stand-ins (6 s per
    /// `paper_loop` pass); for a by-hand headline number, too slow for the
    /// driver's run budget.
    Paper,
}

impl Scale {
    /// Parse a `--scale` value.
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "smoke" => Some(Self::Smoke),
            "bench" => Some(Self::Bench),
            "paper" => Some(Self::Paper),
            _ => None,
        }
    }

    /// The `--scale` value naming this scale.
    pub fn name(self) -> &'static str {
        match self {
            Self::Smoke => "smoke",
            Self::Bench => "bench",
            Self::Paper => "paper",
        }
    }

    /// `(tuples, trials per tuple)` of `paper_loop`.
    pub fn paper_loop_training(self) -> (usize, usize) {
        match self {
            Self::Smoke => (2, 256),
            Self::Bench => (16, 32_000),
            Self::Paper => (16, 256_000),
        }
    }

    /// `(tuples, trials per tuple)` of `train_wide`.
    pub fn train_wide_training(self) -> (usize, usize) {
        match self {
            Self::Smoke => (8, 64),
            Self::Bench => (160, 512),
            Self::Paper => (1024, 512),
        }
    }

    /// `(sequences, days each)` of the Table-4 grid inside `paper_loop`.
    fn paper_loop_grid(self) -> (usize, f64) {
        match self {
            Self::Smoke => (3, 2.0),
            Self::Bench => (10, 5.0),
            Self::Paper => (10, 15.0),
        }
    }

    /// `(sequences, days each)` of the `table4` workload.
    fn table4_grid(self) -> (usize, f64) {
        match self {
            Self::Smoke => (3, 2.0),
            Self::Bench => (10, 8.0),
            Self::Paper => (10, 15.0),
        }
    }

    /// Days of the CTC SP2, SDSC Blue and Curie stand-ins of `replay_*`.
    pub fn replay_days(self) -> [f64; 3] {
        match self {
            Self::Smoke => [30.0, 30.0, 30.0],
            Self::Bench => [110.0, 320.0, 400.0],
            Self::Paper => [330.0, 960.0, 600.0],
        }
    }

    /// Jobs generated for `federate` (before the 64-core cap).
    pub fn federate_jobs(self) -> usize {
        match self {
            Self::Smoke => 20_000,
            Self::Bench => 400_000,
            Self::Paper => 600_000,
        }
    }

    /// How long each micro-probe of the traced run measures.
    pub fn probe_budget(self) -> std::time::Duration {
        std::time::Duration::from_millis(match self {
            Self::Smoke => 1,
            Self::Bench | Self::Paper => 25,
        })
    }

    /// Jobs of the trace prefix the replay results are compared against
    /// `scheduler::reference` on.
    pub fn reference_prefix(self) -> usize {
        match self {
            Self::Smoke => 300,
            Self::Bench | Self::Paper => 2_000,
        }
    }
}

fn grid_scale((count, days): (usize, f64), seed: u64) -> ScenarioScale {
    let base = ScenarioScale::default();
    ScenarioScale {
        spec: SequenceSpec {
            count,
            days,
            min_jobs: 5,
        },
        model_target_load: base.model_target_load * jitter_factor(seed, stream::MODEL_LOAD),
        seed: STRUCTURE_SEED,
    }
}

/// The Table-4 protocol of `paper_loop`'s evaluation stage.
pub fn paper_loop_scale(scale: Scale, seed: u64) -> ScenarioScale {
    grid_scale(scale.paper_loop_grid(), seed)
}

/// The Table-4 protocol of the `table4` workload.
pub fn table4_scale(scale: Scale, seed: u64) -> ScenarioScale {
    grid_scale(scale.table4_grid(), seed)
}
