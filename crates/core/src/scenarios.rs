//! Constructors for every evaluation scenario of the paper, plus the
//! registry-scenario entry points beyond it.
//!
//! §4.2 evaluates on Lublin-model workloads (256 and 1024 cores) and §4.3
//! on four archive traces, each under three conditions: actual runtimes,
//! user estimates, and user estimates + aggressive backfilling — the 18
//! rows of Table 4. Each constructor returns a ready-to-run
//! [`Experiment`]; `scale` lets tests and quick benches shrink the protocol
//! (fewer/shorter sequences) without changing its structure.
//!
//! Every constructor routes through a [`TraceStore`]: a scenario's
//! sequences are built once per distinct `(generator, params, seed)`
//! tuple and shared — the 18 Table-4 rows construct only 6 sequence sets,
//! one per workload, reused across the three conditions (the condition
//! changes the scheduler, never the jobs). A caller with one scenario to
//! build passes a fresh `&TraceStore::new()`.
//!
//! # A workload is built in two halves
//!
//! *Calibrate*: seed → the Lublin model with its arrival rate tuned to the
//! target load, plus the RNG where calibration left it. *Generate*: that
//! pair → `generate_span` → Tsafrir estimates → `extract_sequences`,
//! columnarised by the store. Calibration is three 30 000-job probes per
//! workload against the few thousand jobs it then generates — 88 % of a
//! build — and since a probe is two accumulators
//! (`workload::lublin`), it allocates nothing; generation is all the
//! allocation and 12 % of the time. The single-row constructors run the
//! halves back to back inside the store's build closure.
//! [`table4_experiments_in`] schedules the same halves in two phases:
//!
//! 1. list the six workloads whose key the store does not hold
//!    ([`TraceStore::contains`], which counts nothing) and calibrate them
//!    on the pool. Nothing is interned, so a panicking calibration leaves
//!    the store as it found it. At one worker (`with_worker_limit(1)`, a
//!    1-CPU host) the calibrations run inline, in row order.
//! 2. intern the 18 rows serially, in row order, exactly as a loop over
//!    the single-row constructors would: each builder runs under the store
//!    lock, never re-enters the store, and is handed its calibration
//!    instead of recomputing it.
//!
//! Each calibration owns the stream its workload's seed names, so results
//! do not depend on the worker count. Only calibration is fanned out
//! because only it can be: building whole workloads on the pool took
//! `wall_s` @ `table4` −19 % but grew peak RSS 6.5 → 8.1 MB there and
//! 16.7 → 30.0 MB on `paper_loop` (per-thread allocator arenas; measured
//! for ISSUE 17), where pool threads that touch no `Vec` leave both where
//! they were (6.4–6.7 and 16.7–16.8 MB before and after).
//!
//! Beyond the paper's grid, [`scenario_experiment`] / [`scenario_results`]
//! turn any named [`ScenarioFamily`] of the workload registry
//! (heavy-tail, bursty, diurnal, Feitelson'96, SWF replay, …) into the
//! same `Experiment` currency, so `run_experiments`, sweeps, and the CLI
//! evaluate registry scenarios exactly like Table-4 rows.

use crate::experiments::{run_experiments, Experiment, ExperimentResult};
use dynsched_cluster::Platform;
use dynsched_policies::Policy;
use dynsched_scheduler::SchedulerConfig;
use dynsched_simkit::parallel::par_map_scoped;
use dynsched_simkit::Rng;
use dynsched_workload::sequence::SequenceError;
use dynsched_workload::{
    extract_sequences, ArchivePlatform, LublinModel, ScenarioFamily, ScenarioParams,
    ScenarioRegistry, SequenceSpec, Trace, TraceKey, TraceStore, TsafrirEstimates,
};

/// The three evaluation conditions of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Condition {
    /// Decisions on actual runtimes `r`, no backfilling (§4.2.1/§4.3.1).
    ActualRuntimes,
    /// Decisions on user estimates `e`, no backfilling (§4.2.2/§4.3.2).
    UserEstimates,
    /// Decisions on user estimates + aggressive backfilling
    /// (§4.2.3/§4.3.3 — the most realistic setting).
    EstimatesWithBackfilling,
}

impl Condition {
    /// All three conditions, in the paper's presentation order.
    pub const ALL: [Condition; 3] = [
        Condition::ActualRuntimes,
        Condition::UserEstimates,
        Condition::EstimatesWithBackfilling,
    ];

    /// The scheduler configuration this condition implies.
    pub fn scheduler(self, platform: Platform) -> SchedulerConfig {
        match self {
            Condition::ActualRuntimes => SchedulerConfig::actual_runtimes(platform),
            Condition::UserEstimates => SchedulerConfig::user_estimates(platform),
            Condition::EstimatesWithBackfilling => {
                SchedulerConfig::estimates_with_backfilling(platform)
            }
        }
    }

    /// Table-4-style suffix for experiment names.
    pub fn label(self) -> &'static str {
        match self {
            Condition::ActualRuntimes => "actual runtimes r",
            Condition::UserEstimates => "runtime estimates e",
            Condition::EstimatesWithBackfilling => "aggressive backfilling",
        }
    }
}

/// Protocol scale: the paper's is ten 15-day sequences.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioScale {
    /// Sequence extraction protocol.
    pub spec: SequenceSpec,
    /// Offered load target for the *model* scenarios (the archive
    /// scenarios use each platform's published utilization instead).
    pub model_target_load: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for ScenarioScale {
    fn default() -> Self {
        Self {
            spec: SequenceSpec::paper(),
            model_target_load: 0.9,
            seed: 0x5C17,
        }
    }
}

impl ScenarioScale {
    /// A reduced protocol for tests and quick benches.
    pub fn quick() -> Self {
        Self {
            spec: SequenceSpec {
                count: 3,
                days: 2.0,
                min_jobs: 5,
            },
            ..Self::default()
        }
    }
}

/// One of the workloads Table 4 evaluates on: a §4.2 Lublin-model
/// platform size or a §4.3 archive stand-in. The condition is deliberately
/// absent — it changes the scheduler, never the jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Model(u32),
    Archive(ArchivePlatform),
}

/// What [`Workload::calibrate`] hands [`Workload::generate`]: the
/// calibrated generator and the RNG where calibration left it.
type Calibration = (LublinModel, Rng);

impl Workload {
    /// The six workloads of Table 4: rows 1–6 run on the first two, rows
    /// 7–18 on the archive platforms, in the paper's order.
    const TABLE4: [Workload; 6] = [
        Workload::Model(256),
        Workload::Model(1024),
        Workload::Archive(ArchivePlatform::CURIE),
        Workload::Archive(ArchivePlatform::ANL_INTREPID),
        Workload::Archive(ArchivePlatform::SDSC_BLUE),
        Workload::Archive(ArchivePlatform::CTC_SP2),
    ];

    /// The interning key of the workload's sequences: every generation
    /// input (platform, load target, sequence protocol, seed) as exact
    /// bits.
    fn key(self, scale: &ScenarioScale) -> TraceKey {
        match self {
            Workload::Model(nmax) => TraceKey::new("table4/lublin-model", scale.seed)
                .with_u64(nmax as u64)
                .with_f64(scale.model_target_load)
                .with_u64(scale.spec.count as u64)
                .with_f64(scale.spec.days)
                .with_u64(scale.spec.min_jobs as u64),
            Workload::Archive(platform) => platform.sequence_key(&scale.spec, scale.seed),
        }
    }

    /// First half of a build: allocation-free, so safe to run on a pool
    /// thread ahead of the intern.
    fn calibrate(self, scale: &ScenarioScale) -> Calibration {
        match self {
            Workload::Model(nmax) => {
                let mut rng = Rng::new(scale.seed ^ (nmax as u64).wrapping_mul(0x9E37_79B9));
                let model =
                    LublinModel::new(nmax).calibrated_to_load(scale.model_target_load, &mut rng);
                (model, rng)
            }
            Workload::Archive(platform) => platform.calibrate(scale.seed),
        }
    }

    /// Second half of a build: the trace, its Tsafrir estimates (they only
    /// influence the estimate-based conditions) and the sequences cut from
    /// it.
    fn generate(
        self,
        calibration: Calibration,
        spec: &SequenceSpec,
    ) -> Result<Vec<Trace>, SequenceError> {
        // One spare window of slack covers any skipped sparse window.
        let days = spec.days * (spec.count as f64 + 1.0);
        let trace = match self {
            Workload::Model(_) => {
                let (model, mut rng) = calibration;
                let trace = model.generate_span(days * 86_400.0, &mut rng);
                TsafrirEstimates::with_max_estimate(model.max_runtime).apply(&trace, &mut rng)
            }
            Workload::Archive(platform) => platform.generate(calibration, days),
        };
        extract_sequences(&trace, spec)
    }

    /// The workload's row under `condition`, its sequences interned in
    /// `store`. On a miss the builder runs under the store lock — it never
    /// re-enters the store — and continues from `calibration` when handed
    /// one, calibrating on the spot otherwise.
    fn experiment(
        self,
        store: &TraceStore,
        condition: Condition,
        scale: &ScenarioScale,
        calibration: Option<Calibration>,
    ) -> Experiment {
        let sequences = store
            .get_or_try_build_set(self.key(scale), || {
                let calibration = calibration.unwrap_or_else(|| self.calibrate(scale));
                self.generate(calibration, &scale.spec)
            })
            .expect("the generated trace spans enough windows by construction")
            .to_vec();
        let label = condition.label();
        let (name, cores) = match self {
            Workload::Model(nmax) => (format!("Workload model, nmax = {nmax}, {label}"), nmax),
            Workload::Archive(platform) => (
                format!("{} workload trace, {label}", platform.name),
                platform.cpus,
            ),
        };
        Experiment::from_views(name, sequences, condition.scheduler(Platform::new(cores)))
    }
}

/// Build the §4.2 workload-model scenario for `nmax` cores under
/// `condition`, sharing sequence builds through `store`.
///
/// The trace is generated by the Lublin model configured for `nmax` cores,
/// calibrated to `scale.model_target_load`, with Tsafrir estimates
/// attached. All three conditions of one `(nmax, scale)` point intern the
/// same key, so they share one build — bit-identical to building per
/// condition, since the generation stream never depended on the condition.
pub fn model_scenario_in(
    store: &TraceStore,
    nmax: u32,
    condition: Condition,
    scale: &ScenarioScale,
) -> Experiment {
    Workload::Model(nmax).experiment(store, condition, scale, None)
}

/// Build the §4.3 archive-trace scenario for `platform` under `condition`,
/// using the synthetic stand-in documented in
/// [`dynsched_workload::archive`], sharing the stand-in build through
/// `store` (one synthesis per platform, reused by all three conditions).
pub fn archive_scenario_in(
    store: &TraceStore,
    platform: &ArchivePlatform,
    condition: Condition,
    scale: &ScenarioScale,
) -> Experiment {
    Workload::Archive(*platform).experiment(store, condition, scale, None)
}

/// The Table-4 workloads `store` does not hold at `scale`: what phase 1 of
/// [`table4_experiments_in`] calibrates. Asks through
/// [`TraceStore::contains`], so listing moves no counter.
fn table4_missing(store: &TraceStore, scale: &ScenarioScale) -> Vec<Workload> {
    Workload::TABLE4
        .into_iter()
        .filter(|workload| !store.contains(&workload.key(scale)))
        .collect()
}

/// All 18 experiments of Table 4, in the paper's row order, sharing
/// sequence builds through `store`: 6 distinct workloads (2 model sizes +
/// 4 archive platforms) are built once each and reused across the three
/// conditions. The workloads the store lacks are calibrated on the pool
/// first, then every row is interned serially (the module docs give the
/// two phases); the result is what the single-row constructors return,
/// row by row, at any worker count.
pub fn table4_experiments_in(store: &TraceStore, scale: &ScenarioScale) -> Vec<Experiment> {
    let missing = table4_missing(store, scale);
    let calibrations = par_map_scoped(&missing, || (), |workload, ()| workload.calibrate(scale));
    let mut handed: Vec<(Workload, Calibration)> = missing.into_iter().zip(calibrations).collect();
    let mut rows = Vec::with_capacity(18);
    // Rows 1–6: workload model, grouped by condition then platform size;
    // rows 7–18: archive traces, grouped by condition then platform.
    for group in [&Workload::TABLE4[..2], &Workload::TABLE4[2..]] {
        for condition in Condition::ALL {
            for workload in group {
                // A workload's first row takes its calibration; the other
                // two conditions are store hits.
                let calibration = handed
                    .iter()
                    .position(|(calibrated, _)| calibrated == workload)
                    .map(|slot| handed.swap_remove(slot).1);
                rows.push(workload.experiment(store, condition, scale, calibration));
            }
        }
    }
    rows
}

/// Run all 18 Table 4 experiments under `policies` as **one** batched
/// evaluation session (every `row × policy × sequence` cell shares a
/// single fan-out; see [`crate::session`]), with sequence builds shared
/// through `store`. Results in the paper's row order, bit-identical to
/// running each row separately.
pub fn table4_results_in(
    store: &TraceStore,
    scale: &ScenarioScale,
    policies: &[Box<dyn Policy>],
) -> Vec<ExperimentResult> {
    run_experiments(&table4_experiments_in(store, scale), policies)
}

/// Build one experiment from a named registry scenario family: the
/// family's sequences (interned in `store` under the family's key) paired
/// with the scheduler `condition` implies for `params.cores`. A fault
/// profile attached to the family
/// ([`ScenarioFamily::with_fault_profile`]) carries over to the
/// experiment, so the family's evaluations run under deterministic
/// failure schedules.
pub fn scenario_experiment(
    store: &TraceStore,
    family: &ScenarioFamily,
    params: &ScenarioParams,
    condition: Condition,
    scale: &ScenarioScale,
) -> Result<Experiment, String> {
    let sequences = family
        .sequences(store, params, &scale.spec, scale.seed)
        .map_err(|e| format!("scenario {:?}: {e}", family.name()))?;
    let mut experiment = Experiment::from_views(
        format!(
            "{} scenario, {} cores, {}",
            family.name(),
            params.cores,
            condition.label()
        ),
        sequences,
        condition.scheduler(Platform::new(params.cores)),
    );
    if let Some(profile) = family.fault_profile() {
        experiment = experiment.with_fault_profile(profile.clone());
    }
    Ok(experiment)
}

/// Evaluate named registry scenario families under every condition as
/// **one** batched session: each `(family × condition)` pair becomes an
/// experiment row (family-major, conditions in paper order), and all
/// `row × policy × sequence` cells share a single fan-out. Families are
/// resolved in `registry`; sequences intern in `store`, so the three
/// conditions of one family share one build — the same contract as the
/// Table-4 grid.
pub fn scenario_results(
    store: &TraceStore,
    registry: &ScenarioRegistry,
    names: &[&str],
    params: &ScenarioParams,
    scale: &ScenarioScale,
    policies: &[Box<dyn Policy>],
) -> Result<Vec<ExperimentResult>, String> {
    let mut experiments = Vec::with_capacity(names.len() * Condition::ALL.len());
    for name in names {
        let family = registry
            .get(name)
            .ok_or_else(|| format!("unknown scenario family {name:?}"))?;
        for condition in Condition::ALL {
            experiments.push(scenario_experiment(
                store, family, params, condition, scale,
            )?);
        }
    }
    Ok(run_experiments(&experiments, policies))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsched_policies::DecisionMode;
    use dynsched_scheduler::BackfillMode;

    #[test]
    fn model_scenario_has_requested_structure() {
        let scale = ScenarioScale::quick();
        let exp = model_scenario_in(&TraceStore::new(), 256, Condition::ActualRuntimes, &scale);
        assert_eq!(exp.sequences.len(), 3);
        assert_eq!(exp.scheduler.platform.total_cores, 256);
        assert_eq!(exp.scheduler.backfill, BackfillMode::None);
        assert!(exp.name.contains("nmax = 256"));
        for seq in &exp.sequences {
            assert!(!seq.is_empty());
            assert_eq!(seq.start_time(), Some(0.0));
            for j in seq.iter_jobs() {
                assert!(j.cores <= 256);
                assert!(j.estimate >= j.runtime);
            }
        }
    }

    #[test]
    fn conditions_map_to_scheduler_settings() {
        let scale = ScenarioScale::quick();
        let est = model_scenario_in(&TraceStore::new(), 256, Condition::UserEstimates, &scale);
        assert_eq!(est.scheduler.decision_mode, DecisionMode::UserEstimate);
        assert_eq!(est.scheduler.backfill, BackfillMode::None);
        let bf = model_scenario_in(
            &TraceStore::new(),
            256,
            Condition::EstimatesWithBackfilling,
            &scale,
        );
        assert_eq!(bf.scheduler.backfill, BackfillMode::Aggressive);
    }

    #[test]
    fn archive_scenario_uses_platform_width() {
        let scale = ScenarioScale::quick();
        let exp = archive_scenario_in(
            &TraceStore::new(),
            &ArchivePlatform::CTC_SP2,
            Condition::ActualRuntimes,
            &scale,
        );
        assert_eq!(exp.scheduler.platform.total_cores, 338);
        assert!(exp.name.starts_with("CTC SP2"));
    }

    #[test]
    fn table4_has_18_rows_in_paper_order() {
        let scale = ScenarioScale::quick();
        let rows = table4_experiments_in(&TraceStore::new(), &scale);
        assert_eq!(rows.len(), 18);
        assert!(rows[0].name.contains("nmax = 256") && rows[0].name.contains("actual"));
        assert!(rows[1].name.contains("nmax = 1024"));
        assert!(rows[4].name.contains("backfilling"));
        assert!(rows[6].name.starts_with("Curie"));
        assert!(rows[17].name.starts_with("CTC SP2") && rows[17].name.contains("backfilling"));
    }

    #[test]
    fn table4_results_match_per_row_runs() {
        use crate::experiments::run_experiment;
        use dynsched_policies::{Fcfs, Spt};
        let scale = ScenarioScale {
            spec: dynsched_workload::SequenceSpec {
                count: 2,
                days: 1.0,
                min_jobs: 2,
            },
            ..ScenarioScale::default()
        };
        let lineup: Vec<Box<dyn Policy>> = vec![Box::new(Fcfs), Box::new(Spt)];
        let batched = table4_results_in(&TraceStore::new(), &scale, &lineup);
        assert_eq!(batched.len(), 18);
        for (row, experiment) in batched
            .iter()
            .zip(table4_experiments_in(&TraceStore::new(), &scale))
        {
            assert_eq!(
                *row,
                run_experiment(&experiment, &lineup),
                "{}",
                experiment.name
            );
        }
    }

    #[test]
    fn same_seed_same_scenario() {
        let scale = ScenarioScale::quick();
        let a = model_scenario_in(&TraceStore::new(), 256, Condition::ActualRuntimes, &scale);
        let b = model_scenario_in(&TraceStore::new(), 256, Condition::ActualRuntimes, &scale);
        assert_eq!(a.sequences, b.sequences);
    }

    #[test]
    fn table4_grid_builds_six_workloads_for_eighteen_rows() {
        let scale = ScenarioScale {
            spec: dynsched_workload::SequenceSpec {
                count: 2,
                days: 1.0,
                min_jobs: 2,
            },
            ..ScenarioScale::default()
        };
        let store = TraceStore::new();
        let rows = table4_experiments_in(&store, &scale);
        assert_eq!(rows.len(), 18);
        assert_eq!(store.builds(), 6, "2 model sizes + 4 archive platforms");
        assert_eq!(
            store.hits(),
            12,
            "each workload reused by two further conditions"
        );
        // The same workload's rows share storage across conditions (model
        // rows interleave by nmax: rows 0 and 2 are both nmax = 256).
        assert!(rows[0].sequences[0].shares_storage(&rows[2].sequences[0]));
        assert!(rows[6].sequences[0].shares_storage(&rows[10].sequences[0]));
        // ... and the shared build is bit-identical to construction through
        // a store of its own.
        for (shared, fresh) in rows
            .iter()
            .zip(table4_experiments_in(&TraceStore::new(), &scale))
        {
            assert_eq!(shared.sequences, fresh.sequences, "{}", shared.name);
        }
    }

    #[test]
    fn phase_one_lists_exactly_the_workloads_the_store_lacks() {
        let scale = ScenarioScale::quick();
        let store = TraceStore::new();
        assert_eq!(table4_missing(&store, &scale), Workload::TABLE4);
        // Partly warm: one platform interned through its single-row
        // constructor drops out of the list, the other five stay in order.
        let sdsc = ArchivePlatform::SDSC_BLUE;
        archive_scenario_in(&store, &sdsc, Condition::UserEstimates, &scale);
        let missing = table4_missing(&store, &scale);
        assert_eq!(missing.len(), 5);
        assert!(!missing.contains(&Workload::Archive(sdsc)));
        // Warm: nothing left to calibrate — and asking counted nothing.
        table4_experiments_in(&store, &scale);
        let counters = (store.builds(), store.hits());
        assert_eq!(table4_missing(&store, &scale), []);
        assert_eq!((store.builds(), store.hits()), counters);
        // Keys carry the whole protocol: another seed lacks all six again.
        let reseeded = ScenarioScale { seed: 1, ..scale };
        assert_eq!(table4_missing(&store, &reseeded).len(), 6);
    }

    #[test]
    fn family_fault_profiles_carry_into_scenario_experiments() {
        use dynsched_cluster::FaultProfile;
        let registry = ScenarioRegistry::builtin();
        let store = TraceStore::new();
        let params = ScenarioParams {
            cores: 64,
            span_days: 4.0,
            target_load: 0.9,
        };
        let scale = ScenarioScale {
            spec: dynsched_workload::SequenceSpec {
                count: 2,
                days: 1.0,
                min_jobs: 2,
            },
            ..ScenarioScale::default()
        };
        let plain = registry.get("lublin").unwrap();
        let exp =
            scenario_experiment(&store, plain, &params, Condition::ActualRuntimes, &scale).unwrap();
        assert!(exp.fault.is_none());
        let profile = FaultProfile::failures(40_000.0, 2_000.0, 8, 13);
        let faulty = plain.clone().with_fault_profile(profile.clone());
        let exp = scenario_experiment(&store, &faulty, &params, Condition::ActualRuntimes, &scale)
            .unwrap();
        assert_eq!(exp.fault.as_ref(), Some(&profile));
        // Same sequences either way: the profile never touches the jobs.
        let base =
            scenario_experiment(&store, plain, &params, Condition::ActualRuntimes, &scale).unwrap();
        assert_eq!(exp.sequences, base.sequences);
    }

    #[test]
    fn scenario_results_cover_named_families_under_all_conditions() {
        use dynsched_policies::{Fcfs, Spt};
        let registry = ScenarioRegistry::builtin();
        let store = TraceStore::new();
        let params = ScenarioParams {
            cores: 64,
            span_days: 4.0,
            target_load: 0.9,
        };
        let scale = ScenarioScale {
            spec: dynsched_workload::SequenceSpec {
                count: 2,
                days: 1.0,
                min_jobs: 2,
            },
            ..ScenarioScale::default()
        };
        let lineup: Vec<Box<dyn Policy>> = vec![Box::new(Fcfs), Box::new(Spt)];
        let names = ["heavy-tail", "bursty"];
        let results =
            scenario_results(&store, &registry, &names, &params, &scale, &lineup).unwrap();
        assert_eq!(results.len(), 6, "2 families x 3 conditions");
        assert!(results[0].name.starts_with("heavy-tail"));
        assert!(results[5].name.starts_with("bursty"));
        assert_eq!(
            store.builds(),
            4,
            "per family: one base trace + one sequence set, shared by its conditions"
        );
        for row in &results {
            for outcome in &row.outcomes {
                assert_eq!(outcome.ave_bslds.len(), 2);
                assert!(outcome.median >= 1.0);
            }
        }
        assert!(scenario_results(&store, &registry, &["nope"], &params, &scale, &lineup).is_err());
    }
}
