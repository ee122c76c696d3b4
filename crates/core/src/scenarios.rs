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
//! Beyond the paper's grid, [`scenario_experiment`] / [`scenario_results`]
//! turn any named [`ScenarioFamily`] of the workload registry
//! (heavy-tail, bursty, diurnal, Feitelson'96, SWF replay, …) into the
//! same `Experiment` currency, so `run_experiments`, sweeps, and the CLI
//! evaluate registry scenarios exactly like Table-4 rows.

use crate::experiments::{run_experiments, Experiment, ExperimentResult};
use dynsched_cluster::Platform;
use dynsched_policies::Policy;
use dynsched_scheduler::SchedulerConfig;
use dynsched_simkit::Rng;
use dynsched_workload::{
    extract_sequences, ArchivePlatform, LublinModel, ScenarioFamily, ScenarioParams,
    ScenarioRegistry, SequenceSpec, Trace, TraceKey, TraceStore, TsafrirEstimates,
};
use serde::{Deserialize, Serialize};

/// The three evaluation conditions of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

/// Generate the §4.2 model sequences (the store builder; the condition is
/// deliberately absent — it changes the scheduler, never the jobs).
fn model_sequences(nmax: u32, scale: &ScenarioScale) -> Vec<Trace> {
    let mut rng = Rng::new(scale.seed ^ (nmax as u64).wrapping_mul(0x9E37_79B9));
    let model = LublinModel::new(nmax).calibrated_to_load(scale.model_target_load, &mut rng);
    let span_days = scale.spec.days * (scale.spec.count as f64 + 1.0);
    let trace = model.generate_span(span_days * 86_400.0, &mut rng);
    let trace = TsafrirEstimates::with_max_estimate(model.max_runtime).apply(&trace, &mut rng);
    extract_sequences(&trace, &scale.spec)
        .expect("model trace spans enough windows by construction")
}

/// The interning key of the §4.2 model sequences: every generation input
/// (platform size, load target, sequence protocol, seed) as exact bits.
fn model_key(nmax: u32, scale: &ScenarioScale) -> TraceKey {
    TraceKey::new("table4/lublin-model", scale.seed)
        .with_u64(nmax as u64)
        .with_f64(scale.model_target_load)
        .with_u64(scale.spec.count as u64)
        .with_f64(scale.spec.days)
        .with_u64(scale.spec.min_jobs as u64)
}

/// Build the §4.2 workload-model scenario for `nmax` cores under
/// `condition`, sharing sequence builds through `store`.
///
/// The trace is generated by the Lublin model configured for `nmax` cores,
/// calibrated to `scale.model_target_load`, with Tsafrir estimates
/// attached (they only influence the estimate-based conditions). All
/// three conditions of one `(nmax, scale)` point intern the same key, so
/// they share one build — bit-identical to building per condition, since
/// the generation stream never depended on the condition.
pub fn model_scenario_in(
    store: &TraceStore,
    nmax: u32,
    condition: Condition,
    scale: &ScenarioScale,
) -> Experiment {
    let sequences = store
        .get_or_build_set(model_key(nmax, scale), || model_sequences(nmax, scale))
        .to_vec();
    Experiment::from_views(
        format!("Workload model, nmax = {nmax}, {}", condition.label()),
        sequences,
        condition.scheduler(Platform::new(nmax)),
    )
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
    let sequences = platform
        .sequence_views(store, &scale.spec, scale.seed)
        .expect("stand-in synthesis spans enough windows by construction");
    Experiment::from_views(
        format!("{} workload trace, {}", platform.name, condition.label()),
        sequences,
        condition.scheduler(Platform::new(platform.cpus)),
    )
}

/// All 18 experiments of Table 4, in the paper's row order, sharing
/// sequence builds through `store`: 6 distinct workloads (2 model sizes +
/// 4 archive platforms) are built once each and reused across the three
/// conditions.
pub fn table4_experiments_in(store: &TraceStore, scale: &ScenarioScale) -> Vec<Experiment> {
    let mut rows = Vec::with_capacity(18);
    // Rows 1–6: workload model, grouped by condition then platform size.
    for condition in Condition::ALL {
        for nmax in [256u32, 1024] {
            rows.push(model_scenario_in(store, nmax, condition, scale));
        }
    }
    // Rows 7–18: archive traces, grouped by condition then platform.
    for condition in Condition::ALL {
        for platform in &ArchivePlatform::ALL {
            rows.push(archive_scenario_in(store, platform, condition, scale));
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
