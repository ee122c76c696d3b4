//! Synthetic stand-ins for the Parallel Workloads Archive traces.
//!
//! The paper evaluates on four real SWF logs (its Table 5):
//!
//! | Name         | Year | CPUs    | Jobs    | Util % | Duration  |
//! |--------------|------|---------|---------|--------|-----------|
//! | Curie        | 2011 | 93,312  | 312,826 | 62.0   | 20 months |
//! | ANL Intrepid | 2009 | 163,840 | 68,936  | 59.6   | 8 months  |
//! | SDSC Blue    | 2003 | 1,152   | 243,306 | 76.7   | 32 months |
//! | CTC SP2      | 1997 | 338     | 77,222  | 85.2   | 11 months |
//!
//! This environment has no network access to the archive, so we synthesize
//! a stand-in per platform: a Lublin-model trace re-parameterised with the
//! platform's core count, arrival rate tuned to the published job density,
//! load calibrated toward the published utilization, and Tsafrir-style user
//! estimates attached. The experiment harness consumes these through
//! exactly the same `Trace`/SWF code path a real log would take, so anyone
//! with the archive files can substitute them directly
//! (see `examples/real_trace_sim.rs`).

use crate::lublin::LublinModel;
use crate::registry::fxhash;
use crate::sequence::SequenceSpec;
use crate::store::TraceKey;
use crate::trace::Trace;
use crate::tsafrir::TsafrirEstimates;
use dynsched_simkit::Rng;

/// Published characteristics of one archive platform (the paper's Table 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchivePlatform {
    /// Platform name as used in the paper.
    pub name: &'static str,
    /// Year the log was collected.
    pub year: u32,
    /// Number of CPUs/cores.
    pub cpus: u32,
    /// Jobs in the full log.
    pub jobs: u32,
    /// Mean utilization, percent.
    pub utilization_pct: f64,
    /// Log duration, months.
    pub duration_months: u32,
    /// Site maximum walltime (seconds) — production machines cap job
    /// runtimes, which keeps the `r·n` term of size-based policies in the
    /// range the paper's learned coefficients were balanced for.
    pub max_walltime: f64,
}

impl ArchivePlatform {
    /// CEA Curie (2011).
    pub const CURIE: Self = Self {
        name: "Curie",
        year: 2011,
        cpus: 93_312,
        jobs: 312_826,
        utilization_pct: 62.0,
        duration_months: 20,
        max_walltime: 3.0 * 86_400.0,
    };

    /// ANL Intrepid BlueGene/P (2009). (Spelled "Interpid" in the paper.)
    pub const ANL_INTREPID: Self = Self {
        name: "ANL Intrepid",
        year: 2009,
        cpus: 163_840,
        jobs: 68_936,
        utilization_pct: 59.6,
        duration_months: 8,
        max_walltime: 12.0 * 3_600.0,
    };

    /// SDSC Blue Horizon (2003).
    pub const SDSC_BLUE: Self = Self {
        name: "SDSC Blue",
        year: 2003,
        cpus: 1_152,
        jobs: 243_306,
        utilization_pct: 76.7,
        duration_months: 32,
        max_walltime: 36.0 * 3_600.0,
    };

    /// CTC SP2 (1997).
    pub const CTC_SP2: Self = Self {
        name: "CTC SP2",
        year: 1997,
        cpus: 338,
        jobs: 77_222,
        utilization_pct: 85.2,
        duration_months: 11,
        max_walltime: 18.0 * 3_600.0,
    };

    /// All four platforms, in the paper's order.
    pub const ALL: [Self; 4] = [
        Self::CURIE,
        Self::ANL_INTREPID,
        Self::SDSC_BLUE,
        Self::CTC_SP2,
    ];

    /// Mean jobs submitted per day in the original log (30-day months).
    pub fn jobs_per_day(&self) -> f64 {
        self.jobs as f64 / (self.duration_months as f64 * 30.0)
    }

    /// Target mean utilization in `[0,1]`.
    pub fn utilization(&self) -> f64 {
        self.utilization_pct / 100.0
    }

    /// Build the Lublin generator tuned to this platform: size ceiling at
    /// the platform width and offered load calibrated to the published
    /// utilization (utilization ≤ offered load, so we aim slightly above).
    pub fn model(&self, rng: &mut Rng) -> LublinModel {
        let mut base = LublinModel::new(self.cpus);
        base.max_runtime = self.max_walltime;
        // Achieved utilization trails offered load because of drain/ramp
        // effects; 5% headroom keeps the stand-in near the published figure.
        let target = (self.utilization() * 1.05).min(0.98);
        base.calibrated_to_load(target, rng)
    }

    /// First half of a synthesis: the platform's generator calibrated under
    /// `seed`, and the RNG where calibration left it. Allocates nothing
    /// (calibration probes are streamed), so it is the half that can run
    /// on a pool thread ahead of time; [`ArchivePlatform::generate`]
    /// continues from the returned pair.
    pub fn calibrate(&self, seed: u64) -> (LublinModel, Rng) {
        let mut rng = Rng::new(seed ^ fxhash(self.name));
        let model = self.model(&mut rng);
        (model, rng)
    }

    /// Second half of a synthesis: a stand-in trace covering `days` days
    /// from a calibrated `(model, rng)` pair, with Tsafrir estimates
    /// attached.
    pub fn generate(&self, (model, mut rng): (LublinModel, Rng), days: f64) -> Trace {
        let trace = model.generate_span(days * 86_400.0, &mut rng);
        let estimates = TsafrirEstimates::with_max_estimate(model.max_runtime);
        estimates.apply(&trace, &mut rng)
    }

    /// Generate a synthetic stand-in trace covering `days` days, with
    /// Tsafrir estimates attached: [`ArchivePlatform::calibrate`] then
    /// [`ArchivePlatform::generate`].
    pub fn synthesize(&self, days: f64, seed: u64) -> Trace {
        self.generate(self.calibrate(seed), days)
    }

    /// The interning key of this platform's stand-in sequences under
    /// `(spec, seed)`: everything that influences their synthesis is
    /// captured, so distinct protocols never share a store entry.
    pub fn sequence_key(&self, spec: &SequenceSpec, seed: u64) -> TraceKey {
        TraceKey::new(format!("archive/{}", self.name), seed)
            .with_u64(spec.count as u64)
            .with_f64(spec.days)
            .with_u64(spec.min_jobs as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::extract_sequences;

    #[test]
    fn table5_constants_match_paper() {
        assert_eq!(ArchivePlatform::CURIE.cpus, 93_312);
        assert_eq!(ArchivePlatform::ANL_INTREPID.cpus, 163_840);
        assert_eq!(ArchivePlatform::SDSC_BLUE.cpus, 1_152);
        assert_eq!(ArchivePlatform::CTC_SP2.cpus, 338);
        assert_eq!(ArchivePlatform::ALL.len(), 4);
    }

    #[test]
    fn jobs_per_day_is_sane() {
        // Curie: 312826 jobs over ~600 days ≈ 521/day.
        let jpd = ArchivePlatform::CURIE.jobs_per_day();
        assert!((jpd - 521.0).abs() < 5.0, "{jpd}");
    }

    #[test]
    fn synthesized_trace_respects_platform_width() {
        let t = ArchivePlatform::CTC_SP2.synthesize(10.0, 42);
        assert!(!t.is_empty());
        for j in t.jobs() {
            assert!(j.cores <= 338);
            assert!(j.estimate >= j.runtime);
        }
    }

    #[test]
    fn synthesized_load_is_near_target() {
        let t = ArchivePlatform::SDSC_BLUE.synthesize(60.0, 7);
        let load = t.summary(1_152).unwrap().offered_load;
        // Calibration tolerance: the published figure is 76.7%.
        assert!(load > 0.45 && load < 1.25, "load {load}");
    }

    #[test]
    fn sequences_extract_for_every_platform() {
        let spec = SequenceSpec {
            count: 3,
            days: 2.0,
            min_jobs: 5,
        };
        for p in ArchivePlatform::ALL {
            let seqs = extract_sequences(&p.synthesize(8.0, 11), &spec).unwrap();
            assert_eq!(seqs.len(), 3, "{}", p.name);
        }
    }

    #[test]
    fn synthesis_is_its_two_halves_back_to_back() {
        for p in ArchivePlatform::ALL {
            let whole = p.synthesize(3.0, 21);
            assert_eq!(p.generate(p.calibrate(21), 3.0), whole, "{}", p.name);
            // ... and both are the unsplit synthesis: one stream, seeded per
            // platform, through calibration, generation and estimates.
            let mut rng = Rng::new(21 ^ fxhash(p.name));
            let model = p.model(&mut rng);
            assert_eq!(p.calibrate(21), (model, rng.clone()), "{}", p.name);
            let trace = model.generate_span(3.0 * 86_400.0, &mut rng);
            let unsplit =
                TsafrirEstimates::with_max_estimate(model.max_runtime).apply(&trace, &mut rng);
            assert_eq!(unsplit, whole, "{}", p.name);
        }
    }

    #[test]
    fn stand_ins_differ_across_platforms() {
        let a = ArchivePlatform::CURIE.synthesize(2.0, 5);
        let b = ArchivePlatform::CTC_SP2.synthesize(2.0, 5);
        assert_ne!(a.summary(93_312), b.summary(93_312));
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = ArchivePlatform::SDSC_BLUE.synthesize(2.0, 9);
        let b = ArchivePlatform::SDSC_BLUE.synthesize(2.0, 9);
        assert_eq!(a, b);
    }
}
