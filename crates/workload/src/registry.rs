//! The scenario families beyond the paper: six named workload generators.
//!
//! The paper evaluates on exactly two workload shapes (the Lublin model
//! and archive stand-ins). The families here widen that catalogue —
//! heavy-tailed runtimes, bursty arrivals, exaggerated diurnal cycles, the
//! structurally different Feitelson'96 mix — as one closed
//! [`ScenarioFamily`] enum: a name, a description and a seeded,
//! parameterized build each. Two places use them: the `dynsched scenarios`
//! CLI, which resolves a family from its name ([`ScenarioFamily::by_name`])
//! and lists the calibration of all six, and `core::scenarios::
//! scenario_results`, which evaluates families under the paper's three
//! conditions. Families build through the [`TraceStore`], so a calibration
//! and an evaluation at the same `(family, params, seed)` share one build
//! — the same interning contract the Table-4 grid uses.
//!
//! Four families (`lublin`, `heavy-tail`, `bursty`, `diurnal`) carry no
//! user-estimate model: their estimates equal their runtimes, so under
//! them the "runtime estimates e" condition schedules exactly as "actual
//! runtimes r" does, and `scenarios --eval` prints the same medians on
//! both rows. `lublin-tsafrir` and `feitelson96` attach Tsafrir estimates.

use crate::feitelson::FeitelsonModel;
use crate::lublin::LublinModel;
use crate::sequence::{extract_sequences, SequenceError, SequenceSpec};
use crate::store::{TraceKey, TraceStore, TraceView};
use crate::trace::Trace;
use crate::transform::burstify;
use crate::tsafrir::TsafrirEstimates;
use dynsched_simkit::Rng;

/// Shared knobs every family understands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioParams {
    /// Platform width (cores); also the job-size ceiling.
    pub cores: u32,
    /// Length of the generated trace, days.
    pub span_days: f64,
    /// Offered-load target for the load-calibrated families.
    pub target_load: f64,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        Self {
            cores: 256,
            span_days: 30.0,
            target_load: 0.8,
        }
    }
}

impl ScenarioParams {
    /// Span in seconds.
    pub fn span_seconds(&self) -> f64 {
        self.span_days * 86_400.0
    }
}

/// Calibration summary of one trace on a platform — the numbers the
/// `dynsched scenarios` listing prints so an operator can see what a
/// family actually generates before running a study on it.
///
/// The two rates are over the trace's span, first submit to last. A trace
/// without one — empty, a single job, every job submitted at one instant —
/// has no rate to report, and both read `0.0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioCalibration {
    /// Jobs in the generated trace.
    pub jobs: usize,
    /// Mean submissions per day (`0.0` for a zero-span trace).
    pub jobs_per_day: f64,
    /// Offered load (area / capacity·span) — the utilization ceiling
    /// (`0.0` for a zero-span trace).
    pub offered_load: f64,
    /// Coefficient of variation of actual runtimes (std/mean); > 1 marks a
    /// heavy tail.
    pub runtime_cv: f64,
    /// Mean requested cores.
    pub mean_cores: f64,
    /// Fraction of single-core jobs.
    pub serial_fraction: f64,
}

impl ScenarioCalibration {
    /// Measure `trace` on a platform of `cores`.
    pub fn of(trace: &TraceView, cores: u32) -> Self {
        let n = trace.len();
        if n == 0 {
            return Self {
                jobs: 0,
                jobs_per_day: 0.0,
                offered_load: 0.0,
                runtime_cv: 0.0,
                mean_cores: 0.0,
                serial_fraction: 0.0,
            };
        }
        let runtimes = trace.runtimes();
        let mean_rt = runtimes.iter().sum::<f64>() / n as f64;
        let var_rt = runtimes.iter().map(|r| (r - mean_rt).powi(2)).sum::<f64>() / n as f64;
        let summary = trace.summary(cores).expect("non-empty");
        let span_days = summary.span_seconds / 86_400.0;
        let (jobs_per_day, offered_load) = if span_days > 0.0 {
            (n as f64 / span_days, summary.offered_load)
        } else {
            (0.0, 0.0)
        };
        Self {
            jobs: n,
            jobs_per_day,
            offered_load,
            runtime_cv: if mean_rt > 0.0 {
                var_rt.sqrt() / mean_rt
            } else {
                0.0
            },
            mean_cores: summary.mean_cores,
            serial_fraction: summary.serial_fraction,
        }
    }
}

/// One named workload family. Every family is deterministic in
/// `(params, seed)` and honours `params.cores` as the job-size ceiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioFamily {
    /// `lublin`: the Lublin–Feitelson reference mix.
    Lublin,
    /// `lublin-tsafrir`: the reference mix with Tsafrir estimates.
    LublinTsafrir,
    /// `heavy-tail`: the reference mix with a longer runtime tail.
    HeavyTail,
    /// `bursty`: the reference mix in on/off arrival bursts.
    Bursty,
    /// `diurnal`: the reference mix crowded into working hours.
    Diurnal,
    /// `feitelson96`: the Feitelson'96 mix with Tsafrir estimates.
    Feitelson96,
}

impl ScenarioFamily {
    /// Every family, in listing order.
    pub const ALL: [ScenarioFamily; 6] = [
        ScenarioFamily::Lublin,
        ScenarioFamily::LublinTsafrir,
        ScenarioFamily::HeavyTail,
        ScenarioFamily::Bursty,
        ScenarioFamily::Diurnal,
        ScenarioFamily::Feitelson96,
    ];

    /// The family's name. It joins the interning key and seeds the
    /// family's random stream, so it is part of every trace's identity.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioFamily::Lublin => "lublin",
            ScenarioFamily::LublinTsafrir => "lublin-tsafrir",
            ScenarioFamily::HeavyTail => "heavy-tail",
            ScenarioFamily::Bursty => "bursty",
            ScenarioFamily::Diurnal => "diurnal",
            ScenarioFamily::Feitelson96 => "feitelson96",
        }
    }

    /// One-line description for listings.
    pub fn description(self) -> &'static str {
        match self {
            ScenarioFamily::Lublin => {
                "Lublin-Feitelson reference mix, load-calibrated, daily cycle"
            }
            ScenarioFamily::LublinTsafrir => {
                "Lublin mix with Tsafrir modal user estimates attached"
            }
            ScenarioFamily::HeavyTail => {
                "Lublin mix with a boosted long-runtime gamma component (runtime CV >> 1)"
            }
            ScenarioFamily::Bursty => {
                "Lublin mix compressed into 4h-period on/off arrival bursts (20% duty)"
            }
            ScenarioFamily::Diurnal => "Lublin mix with an exaggerated working-hours concentration",
            ScenarioFamily::Feitelson96 => {
                "Feitelson'96 harmonic-size mix with job repetition, Tsafrir estimates"
            }
        }
    }

    /// The family called `name`, ignoring ASCII case.
    pub fn by_name(name: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|family| family.name().eq_ignore_ascii_case(name))
    }

    /// The interning key of this family at `(params, seed)`: family name +
    /// seed + every numeric parameter as exact bits. Distinct parameter
    /// points therefore never share a store entry.
    pub fn key(self, params: &ScenarioParams, seed: u64) -> TraceKey {
        TraceKey::new(format!("scenario/{}", self.name()), seed)
            .with_u64(params.cores as u64)
            .with_f64(params.span_days)
            .with_f64(params.target_load)
    }

    /// Generate the family's trace at `(params, seed)` without interning.
    /// Deterministic: the stream is derived from the seed and the family
    /// name, so two families given the same seed still diverge.
    pub fn generate(self, params: &ScenarioParams, seed: u64) -> Trace {
        let mut rng = Rng::new(seed ^ fxhash(self.name()));
        self.build(params, &mut rng)
    }

    fn build(self, p: &ScenarioParams, rng: &mut Rng) -> Trace {
        let span = p.span_seconds();
        match self {
            ScenarioFamily::Lublin => {
                let model = LublinModel::new(p.cores).calibrated_to_load(p.target_load, rng);
                model.generate_span(span, rng)
            }
            ScenarioFamily::LublinTsafrir => {
                let model = LublinModel::new(p.cores).calibrated_to_load(p.target_load, rng);
                let trace = model.generate_span(span, rng);
                TsafrirEstimates::with_max_estimate(model.max_runtime).apply(&trace, rng)
            }
            ScenarioFamily::HeavyTail => {
                let mut base = LublinModel::new(p.cores);
                // Stretch the long-job component of the hyper-gamma in log
                // space (and lift the walltime cap so the clamp does not
                // eat the new tail): the short-job mode stays put, so the
                // runtime distribution spreads — CV well above the
                // reference mix.
                base.b2 *= 1.3;
                base.max_runtime *= 4.0;
                let model = base.calibrated_to_load(p.target_load, rng);
                model.generate_span(span, rng)
            }
            ScenarioFamily::Bursty => {
                let mut base = LublinModel::new(p.cores);
                base.daily_cycle = false;
                let model = base.calibrated_to_load(p.target_load, rng);
                let trace = model.generate_span(span, rng);
                burstify(&trace, 4.0 * 3_600.0, 0.2)
            }
            ScenarioFamily::Diurnal => {
                let model = LublinModel::new(p.cores).calibrated_to_load(p.target_load, rng);
                let trace = model.generate_span(span, rng);
                // On top of the model's own daily cycle, remap each day
                // into its first ~11 hours: nights go silent, the midday
                // peak sharpens.
                burstify(&trace, 86_400.0, 0.45)
            }
            ScenarioFamily::Feitelson96 => {
                let model = FeitelsonModel::new(p.cores);
                // The model generates by count; convert the requested span
                // through its mean session inter-arrival time.
                let count = (span / model.mean_interarrival).ceil().max(1.0) as usize;
                let trace = model.generate_jobs(count, rng);
                TsafrirEstimates::with_max_estimate(FeitelsonModel::MAX_RUNTIME).apply(&trace, rng)
            }
        }
    }

    /// The family's trace at `(params, seed)` through `store`: built once
    /// per distinct key, shared everywhere else.
    pub fn view(self, store: &TraceStore, params: &ScenarioParams, seed: u64) -> TraceView {
        store.get_or_build(self.key(params, seed), || self.generate(params, seed))
    }

    /// Extract `spec.count` experiment sequences from the family's trace
    /// at `(params, seed)`, interned as a set (the sequence spec joins the
    /// key, since it changes the windows).
    pub fn sequences(
        self,
        store: &TraceStore,
        params: &ScenarioParams,
        spec: &SequenceSpec,
        seed: u64,
    ) -> Result<Vec<TraceView>, SequenceError> {
        let key = self
            .key(params, seed)
            .with_u64(spec.count as u64)
            .with_f64(spec.days)
            .with_u64(spec.min_jobs as u64);
        // The base trace goes through the store too, so a preceding
        // calibration (or any other entry point at the same point) and
        // this extraction share one generation. Fetched before the set
        // intern: builders must not re-enter the store.
        let base = self.view(store, params, seed);
        Ok(store
            .get_or_try_build_set(key, || extract_sequences(&base.to_trace(), spec))?
            .to_vec())
    }
}

/// Tiny deterministic string hash (FNV-1a), used to give each family (and
/// each archive platform) a distinct stream from the same user seed.
pub(crate) fn fxhash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> ScenarioParams {
        ScenarioParams {
            cores: 64,
            span_days: 3.0,
            target_load: 0.8,
        }
    }

    #[test]
    fn builtin_catalogue_has_the_documented_families() {
        let names = [
            "lublin",
            "lublin-tsafrir",
            "heavy-tail",
            "bursty",
            "diurnal",
            "feitelson96",
        ];
        assert_eq!(ScenarioFamily::ALL.map(ScenarioFamily::name), names);
        for (family, name) in ScenarioFamily::ALL.into_iter().zip(names) {
            assert_eq!(ScenarioFamily::by_name(name), Some(family));
        }
        let lublin = ScenarioFamily::by_name("LUBLIN");
        assert_eq!(lublin, Some(ScenarioFamily::Lublin), "case-insensitive");
        assert!(ScenarioFamily::by_name("no-such-family").is_none());
    }

    #[test]
    fn families_are_deterministic_and_seed_sensitive() {
        let p = quick_params();
        for family in ScenarioFamily::ALL {
            let a = family.generate(&p, 7);
            let b = family.generate(&p, 7);
            let c = family.generate(&p, 8);
            assert_eq!(a, b, "{} not deterministic", family.name());
            assert_ne!(a, c, "{} ignores the seed", family.name());
            assert!(!a.is_empty(), "{} generated no jobs", family.name());
            for j in a.jobs() {
                assert!(
                    j.cores <= p.cores,
                    "{} exceeded the platform",
                    family.name()
                );
            }
        }
    }

    #[test]
    fn same_seed_different_families_diverge() {
        let p = quick_params();
        let a = ScenarioFamily::Lublin.generate(&p, 5);
        let b = ScenarioFamily::Bursty.generate(&p, 5);
        assert_ne!(a, b);
    }

    #[test]
    fn store_shares_builds_within_and_across_entry_points() {
        let store = TraceStore::new();
        let p = quick_params();
        let family = ScenarioFamily::Bursty;
        let a = family.view(&store, &p, 3);
        let b = family.view(&store, &p, 3);
        assert!(a.shares_storage(&b));
        assert_eq!(store.builds(), 1);
        // A different parameter point builds separately.
        let p2 = ScenarioParams {
            target_load: 0.5,
            ..p
        };
        let c = family.view(&store, &p2, 3);
        assert!(!a.shares_storage(&c));
        assert_eq!(store.builds(), 2);
    }

    #[test]
    fn heavy_tail_is_heavier_than_reference() {
        let store = TraceStore::new();
        let p = ScenarioParams {
            cores: 64,
            span_days: 6.0,
            target_load: 0.8,
        };
        let calibration =
            |family: ScenarioFamily| ScenarioCalibration::of(&family.view(&store, &p, 11), p.cores);
        let reference = calibration(ScenarioFamily::Lublin);
        let heavy = calibration(ScenarioFamily::HeavyTail);
        assert!(
            heavy.runtime_cv > reference.runtime_cv,
            "heavy-tail CV {} should exceed reference CV {}",
            heavy.runtime_cv,
            reference.runtime_cv
        );
    }

    #[test]
    fn bursty_concentrates_arrivals() {
        let p = quick_params();
        let t = ScenarioFamily::Bursty.generate(&p, 9);
        let period = 4.0 * 3_600.0;
        for j in t.jobs() {
            assert!(j.submit.rem_euclid(period) <= 0.2 * period + 1e-6);
        }
    }

    #[test]
    fn sequences_reuse_the_calibrated_base_trace() {
        let store = TraceStore::new();
        let p = quick_params();
        let spec = SequenceSpec {
            count: 2,
            days: 1.0,
            min_jobs: 2,
        };
        let family = ScenarioFamily::Lublin;
        // The listing's calibration interns the base trace; a later
        // sequence extraction at the same point must reuse that build,
        // adding only the windowed set.
        family.view(&store, &p, 31);
        assert_eq!(store.builds(), 1);
        family.sequences(&store, &p, &spec, 31).unwrap();
        assert_eq!(store.builds(), 2, "base trace must not regenerate");
        assert_eq!(store.hits(), 1);
    }

    #[test]
    fn calibration_reports_sane_numbers() {
        let store = TraceStore::new();
        let p = quick_params();
        for family in ScenarioFamily::ALL {
            let c = ScenarioCalibration::of(&family.view(&store, &p, 17), p.cores);
            assert!(c.jobs > 0, "{}", family.name());
            assert!(c.jobs_per_day > 0.0);
            assert!(c.offered_load.is_finite() && c.offered_load > 0.0);
            assert!(c.runtime_cv.is_finite() && c.runtime_cv > 0.0);
            assert!(c.mean_cores >= 1.0);
            assert!((0.0..=1.0).contains(&c.serial_fraction));
        }
    }

    #[test]
    fn a_zero_span_trace_reports_zero_rates_not_a_308_digit_one() {
        use dynsched_cluster::Job;
        // One job — or several submitted at the same instant — spans no
        // time: dividing by `f64::MIN_POSITIVE` days printed 4.5e307
        // jobs/day and an infinite load.
        let p = quick_params();
        for jobs in [1u32, 3] {
            let instant = (0..jobs).map(|i| Job::new(i, 0.0, 60.0, 60.0, 2)).collect();
            let c = ScenarioCalibration::of(&Trace::from_jobs(instant).to_view(), p.cores);
            assert_eq!(c.jobs, jobs as usize);
            assert_eq!((c.jobs_per_day, c.offered_load), (0.0, 0.0));
            assert_eq!((c.runtime_cv, c.mean_cores), (0.0, 2.0));
        }
        // The built-in catalogue at a span too short for a second arrival
        // (`dynsched scenarios --days 0.001`): finite numbers from every
        // family.
        let brief = ScenarioParams {
            span_days: 0.001,
            ..p
        };
        let store = TraceStore::new();
        for family in ScenarioFamily::ALL {
            let c = ScenarioCalibration::of(&family.view(&store, &brief, 0x5C17), p.cores);
            assert!(c.jobs_per_day.is_finite(), "{}", family.name());
            assert!(c.offered_load.is_finite(), "{}", family.name());
            assert!(c.jobs > 1 || c.jobs_per_day == 0.0, "{}", family.name());
        }
    }

    #[test]
    fn sequences_intern_as_a_set() {
        let store = TraceStore::new();
        let p = quick_params();
        let spec = SequenceSpec {
            count: 2,
            days: 1.0,
            min_jobs: 2,
        };
        let family = ScenarioFamily::Lublin;
        let a = family.sequences(&store, &p, &spec, 23).unwrap();
        let b = family.sequences(&store, &p, &spec, 23).unwrap();
        assert_eq!(a.len(), 2);
        for (x, y) in a.iter().zip(&b) {
            assert!(x.shares_storage(y));
        }
        // A different spec re-windows: distinct entry.
        let spec2 = SequenceSpec {
            count: 2,
            days: 1.5,
            min_jobs: 2,
        };
        let c = family.sequences(&store, &p, &spec2, 23).unwrap();
        assert!(!a[0].shares_storage(&c[0]));
    }
}
