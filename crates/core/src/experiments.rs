//! The dynamic scheduling experiment harness (§4.2/§4.3 protocol).
//!
//! A *dynamic scheduling experiment* simulates the same set of sequences
//! (ten disjoint fifteen-day windows of one workload) under every policy of
//! a line-up, and reports the distribution of the **average bounded
//! slowdown** per sequence — the statistic behind every boxplot figure and
//! every median in Table 4.

use crate::session::EvalSession;
use dynsched_cluster::{AvailabilitySchedule, FaultProfile, DEFAULT_TAU};
use dynsched_policies::Policy;
use dynsched_scheduler::{SchedulerConfig, SimMetrics};
use dynsched_simkit::parallel::PoolError;
use dynsched_simkit::stats::{mean, median, std_dev, BoxplotSummary};
use dynsched_workload::{Trace, TraceView};

/// One fully-specified experiment: sequences + scheduler configuration.
///
/// Sequences are columnar [`TraceView`] handles: an experiment built from
/// a [`TraceStore`](dynsched_workload::TraceStore)-backed scenario
/// constructor shares its storage with every other experiment naming the
/// same workload tuple (the Table-4 grid holds 18 rows over 6 distinct
/// sequence sets), and cloning an experiment copies handles, not jobs.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Display name (e.g. `"Workload model, nmax = 256, actual runtimes r"`).
    pub name: String,
    /// The sequences to schedule (each rebased to start at 0).
    pub sequences: Vec<TraceView>,
    /// Platform, decision mode, backfilling.
    pub scheduler: SchedulerConfig,
    /// Bounded-slowdown threshold τ.
    pub tau: f64,
    /// Optional fault profile: when set, sequence `s` runs under the
    /// schedule expanded with stream index `s` (so each sequence sees its
    /// own deterministic failure pattern, identical for every policy).
    pub fault: Option<FaultProfile>,
}

impl Experiment {
    /// Build an experiment from owned AoS traces (columnarized here) with
    /// the default τ = 10 s.
    pub fn new(name: impl Into<String>, sequences: Vec<Trace>, scheduler: SchedulerConfig) -> Self {
        Self::from_views(
            name,
            sequences.iter().map(Trace::to_view).collect(),
            scheduler,
        )
    }

    /// Build an experiment over already-columnarized (usually
    /// store-interned) sequences with the default τ = 10 s.
    pub fn from_views(
        name: impl Into<String>,
        sequences: Vec<TraceView>,
        scheduler: SchedulerConfig,
    ) -> Self {
        Self {
            name: name.into(),
            sequences,
            scheduler,
            tau: DEFAULT_TAU,
            fault: None,
        }
    }

    /// Attach a fault profile: every policy faces the same per-sequence
    /// failure schedules, expanded deterministically at run time.
    pub fn with_fault_profile(mut self, fault: FaultProfile) -> Self {
        self.fault = (!fault.is_empty()).then_some(fault);
        self
    }
}

/// Per-policy outcome across all sequences.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyOutcome {
    /// Policy display name.
    pub policy: String,
    /// Average bounded slowdown of each sequence, in sequence order.
    pub ave_bslds: Vec<f64>,
    /// Distribution summary of `ave_bslds` (the boxplot in the figures).
    pub summary: BoxplotSummary,
    /// Median of `ave_bslds` (the Table 4 entry).
    pub median: f64,
    /// Mean of `ave_bslds`.
    pub mean: f64,
    /// Sample standard deviation of `ave_bslds` (0 for a single sequence).
    pub std_dev: f64,
    /// Mean number of backfilled jobs per sequence.
    pub mean_backfilled: f64,
    /// Mean number of preemptions per sequence (0 without a fault profile).
    pub mean_preempted: f64,
    /// Mean number of jobs abandoned at their retry cap per sequence.
    pub mean_abandoned: f64,
    /// Mean core-seconds of work destroyed by preemptions per sequence.
    pub mean_lost_core_seconds: f64,
}

/// Result of one experiment across a policy line-up.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Experiment display name.
    pub name: String,
    /// One outcome per policy, in line-up order.
    pub outcomes: Vec<PolicyOutcome>,
}

impl ExperimentResult {
    /// Outcome of a policy by name.
    pub fn outcome(&self, policy: &str) -> Option<&PolicyOutcome> {
        self.outcomes.iter().find(|o| o.policy == policy)
    }

    /// Median AVEbsld of a policy by name.
    pub fn median_of(&self, policy: &str) -> Option<f64> {
        self.outcome(policy).map(|o| o.median)
    }

    /// Name of the best (lowest-median) policy.
    pub fn best_policy(&self) -> Option<&str> {
        self.outcomes
            .iter()
            .min_by(|a, b| a.median.total_cmp(&b.median))
            .map(|o| o.policy.as_str())
    }
}

/// Run `experiment` under every policy through one batched
/// [`EvalSession`]: every `(policy × sequence)` cell runs the engine's
/// metrics-only mode with a per-worker reusable workspace. Results are
/// deterministic because each cell's simulation is a pure function of its
/// inputs.
///
/// # Panics
/// Panics if the experiment has no sequences, or a sequence contains a job
/// wider than the platform.
pub fn run_experiment(experiment: &Experiment, policies: &[Box<dyn Policy>]) -> ExperimentResult {
    run_experiments(std::slice::from_ref(experiment), policies)
        .pop()
        .expect("one experiment in, one result out")
}

/// Supervised twin of [`run_experiment`]: a worker panic comes back as a
/// structured [`PoolError`] instead of unwinding. Input-validation panics
/// (no sequences, oversized jobs) still panic — those are caller bugs, not
/// runtime failures.
pub fn try_run_experiment(
    experiment: &Experiment,
    policies: &[Box<dyn Policy>],
) -> Result<ExperimentResult, PoolError> {
    Ok(
        try_run_experiments(std::slice::from_ref(experiment), policies)?
            .pop()
            .expect("one experiment in, one result out"),
    )
}

/// Run several experiments as **one** batched evaluation session: all
/// `(experiment × policy × sequence)` cells share a single fan-out, so a
/// Table 4 run or a load sweep saturates the pool end to end instead of
/// paying a parallel-region barrier per experiment. Results come back in
/// experiment order and are bit-identical to calling [`run_experiment`]
/// per experiment.
///
/// # Panics
/// Panics if any experiment has no sequences, or a sequence contains a
/// job wider than its platform.
pub fn run_experiments(
    experiments: &[Experiment],
    policies: &[Box<dyn Policy>],
) -> Vec<ExperimentResult> {
    try_run_experiments(experiments, policies)
        .unwrap_or_else(|e| panic!("experiment evaluation failed: {e}"))
}

/// Supervised twin of [`run_experiments`]: the batched session runs under
/// panic isolation, so a panicking cell (a broken custom policy, an
/// inconsistent fault schedule) yields `Err(`[`PoolError`]`)` after a
/// clean join instead of unwinding through the caller. On success the
/// results are bit-identical to [`run_experiments`].
pub fn try_run_experiments(
    experiments: &[Experiment],
    policies: &[Box<dyn Policy>],
) -> Result<Vec<ExperimentResult>, PoolError> {
    // Expand each faulty experiment's per-sequence schedules up front
    // (stream index = sequence position, horizon = the sequence's fault
    // horizon) so the borrow lives for the whole session.
    let expanded: Vec<Option<Vec<AvailabilitySchedule>>> = experiments
        .iter()
        .map(|e| {
            e.fault.as_ref().map(|profile| {
                e.sequences
                    .iter()
                    .enumerate()
                    .map(|(s, view)| {
                        profile.expand(
                            e.scheduler.platform.total_cores,
                            fault_horizon(view, e.scheduler.platform.total_cores),
                            s as u64,
                        )
                    })
                    .collect()
            })
        })
        .collect();
    let mut session = EvalSession::new();
    for (experiment, schedules) in experiments.iter().zip(&expanded) {
        assert!(
            !experiment.sequences.is_empty(),
            "experiment without sequences"
        );
        match schedules {
            None => session.push_grid(
                policies,
                &experiment.sequences,
                &experiment.scheduler,
                experiment.tau,
            ),
            Some(schedules) => session.push_grid_with_faults(
                policies,
                &experiment.sequences,
                &experiment.scheduler,
                experiment.tau,
                schedules,
            ),
        };
    }
    let table = session.try_run()?;

    // The session's result table is index-dense in push order, so each
    // experiment's policy-major block slices straight out of it — no
    // scatter/re-sort bookkeeping.
    let mut out = Vec::with_capacity(experiments.len());
    let mut base = 0usize;
    for experiment in experiments {
        let n_seq = experiment.sequences.len();
        let outcomes = policies
            .iter()
            .enumerate()
            .map(|(p, policy)| {
                let row = &table[base + p * n_seq..base + (p + 1) * n_seq];
                outcome_from_metrics(policy.name(), row)
            })
            .collect();
        base += policies.len() * n_seq;
        out.push(ExperimentResult {
            name: experiment.name.clone(),
            outcomes,
        });
    }
    Ok(out)
}

/// Fault-schedule horizon of a sequence: last submit plus the ideal drain
/// time of the sequence's total work (`Σ runtime·cores / total cores`).
/// Arrival spans alone miss the busy tail — a saturated burst executes
/// mostly *after* its last submit — so failures expanded to this horizon
/// overlap the period when the machine is actually loaded. Deterministic:
/// a pure function of the sequence and the platform.
fn fault_horizon(view: &TraceView, total_cores: u32) -> f64 {
    let work: f64 = view
        .runtimes()
        .iter()
        .zip(view.core_counts())
        .map(|(r, &c)| r * f64::from(c))
        .sum();
    view.end_time().unwrap_or(0.0) + work / f64::from(total_cores.max(1))
}

/// Reduce one policy's row of per-sequence metrics to a [`PolicyOutcome`].
fn outcome_from_metrics(policy: &str, row: &[SimMetrics]) -> PolicyOutcome {
    let ave_bslds: Vec<f64> = row
        .iter()
        .map(|m| m.avg_bounded_slowdown().expect("sequences are non-empty"))
        .collect();
    let backfills: Vec<f64> = row.iter().map(|m| m.backfilled_jobs as f64).collect();
    let preempted: Vec<f64> = row.iter().map(|m| m.preempted_jobs as f64).collect();
    let abandoned: Vec<f64> = row.iter().map(|m| m.abandoned_jobs as f64).collect();
    let lost: Vec<f64> = row.iter().map(|m| m.lost_core_seconds).collect();
    PolicyOutcome {
        policy: policy.to_string(),
        summary: BoxplotSummary::from_samples(&ave_bslds).expect("non-empty"),
        median: median(&ave_bslds).expect("non-empty"),
        mean: mean(&ave_bslds).expect("non-empty"),
        std_dev: std_dev(&ave_bslds).unwrap_or(0.0),
        mean_backfilled: mean(&backfills).expect("non-empty"),
        mean_preempted: mean(&preempted).expect("non-empty"),
        mean_abandoned: mean(&abandoned).expect("non-empty"),
        mean_lost_core_seconds: mean(&lost).expect("non-empty"),
        ave_bslds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsched_cluster::{Job, Platform};
    use dynsched_policies::{Fcfs, Spt};
    use dynsched_simkit::Rng;
    use dynsched_workload::LublinModel;

    fn heavy_tailed_sequences(seed: u64, count: usize) -> Vec<Trace> {
        // Over-saturated bursts so policies actually differ.
        let model = {
            let mut m = LublinModel::new(32);
            m.daily_cycle = false;
            m.arrival_scale = 0.02;
            m
        };
        let mut rng = Rng::new(seed);
        (0..count)
            .map(|_| model.generate_jobs(60, &mut rng))
            .collect()
    }

    fn lineup() -> Vec<Box<dyn Policy>> {
        vec![Box::new(Fcfs), Box::new(Spt)]
    }

    #[test]
    fn runs_all_policies_on_all_sequences() {
        let exp = Experiment::new(
            "smoke",
            heavy_tailed_sequences(1, 3),
            SchedulerConfig::actual_runtimes(Platform::new(32)),
        );
        let res = run_experiment(&exp, &lineup());
        assert_eq!(res.outcomes.len(), 2);
        for o in &res.outcomes {
            assert_eq!(o.ave_bslds.len(), 3);
            for &x in &o.ave_bslds {
                assert!(x >= 1.0, "AVEbsld is bounded below by 1");
            }
        }
    }

    #[test]
    fn spt_beats_fcfs_on_heavy_tails() {
        let exp = Experiment::new(
            "spt-vs-fcfs",
            heavy_tailed_sequences(2, 5),
            SchedulerConfig::actual_runtimes(Platform::new(32)),
        );
        let res = run_experiment(&exp, &lineup());
        let fcfs = res.median_of("FCFS").unwrap();
        let spt = res.median_of("SPT").unwrap();
        assert!(
            spt < fcfs,
            "SPT should beat FCFS under saturation (SPT {spt}, FCFS {fcfs})"
        );
        assert_eq!(res.best_policy(), Some("SPT"));
    }

    #[test]
    fn deterministic_across_runs() {
        let exp = Experiment::new(
            "det",
            heavy_tailed_sequences(3, 3),
            SchedulerConfig::actual_runtimes(Platform::new(32)),
        );
        let a = run_experiment(&exp, &lineup());
        let b = run_experiment(&exp, &lineup());
        assert_eq!(a, b);
    }

    #[test]
    fn single_trivial_sequence() {
        let seq = Trace::from_jobs(vec![Job::new(0, 0.0, 100.0, 100.0, 1)]);
        let exp = Experiment::new(
            "one-job",
            vec![seq],
            SchedulerConfig::actual_runtimes(Platform::new(4)),
        );
        let res = run_experiment(&exp, &lineup());
        for o in &res.outcomes {
            assert_eq!(o.median, 1.0);
            assert_eq!(o.std_dev, 0.0);
        }
    }

    #[test]
    fn batched_experiments_equal_individual_runs() {
        let exps: Vec<Experiment> = (0..3)
            .map(|k| {
                Experiment::new(
                    format!("exp-{k}"),
                    heavy_tailed_sequences(10 + k, 2),
                    SchedulerConfig::actual_runtimes(Platform::new(32)),
                )
            })
            .collect();
        let batched = run_experiments(&exps, &lineup());
        let individual: Vec<ExperimentResult> =
            exps.iter().map(|e| run_experiment(e, &lineup())).collect();
        assert_eq!(batched, individual);
    }

    #[test]
    fn fault_profile_threads_into_resilience_outcomes() {
        let profile = FaultProfile::failures(3_000.0, 800.0, 8, 11).with_max_retries(3);
        let exp = Experiment::new(
            "faulty",
            heavy_tailed_sequences(4, 3),
            SchedulerConfig::actual_runtimes(Platform::new(32)),
        )
        .with_fault_profile(profile.clone());
        let res = run_experiment(&exp, &lineup());
        // Same schedules for every policy; failures actually occurred on
        // this workload (MTBF well under the sequence span).
        assert!(
            res.outcomes.iter().any(|o| o.mean_preempted > 0.0),
            "expected at least one preemption across the line-up"
        );
        for o in &res.outcomes {
            assert!(o.mean_lost_core_seconds >= 0.0);
        }
        // Deterministic: the expansion is (seed, stream)-keyed.
        assert_eq!(res, run_experiment(&exp, &lineup()));
        // Zero-fault experiments report zero resilience counters and an
        // empty profile attaches nothing.
        let clean = Experiment::new(
            "clean",
            heavy_tailed_sequences(4, 3),
            SchedulerConfig::actual_runtimes(Platform::new(32)),
        )
        .with_fault_profile(FaultProfile::none());
        assert!(clean.fault.is_none());
        let res = run_experiment(&clean, &lineup());
        for o in &res.outcomes {
            assert_eq!(o.mean_preempted, 0.0);
            assert_eq!(o.mean_abandoned, 0.0);
            assert_eq!(o.mean_lost_core_seconds, 0.0);
        }
    }

    #[test]
    #[should_panic]
    fn empty_experiment_rejected() {
        let exp = Experiment::new(
            "empty",
            vec![],
            SchedulerConfig::actual_runtimes(Platform::new(4)),
        );
        run_experiment(&exp, &lineup());
    }
}
