//! Parameter sweeps: how policy performance moves with offered load.
//!
//! The paper evaluates at one load point per workload; operators want the
//! whole curve — where does the learned-policy advantage appear, and do
//! any crossovers exist at low load where FCFS is effectively free? This
//! module sweeps offered load by rescaling one base trace's inter-arrival
//! gaps ([`scale_load`]), so every load point schedules *the same jobs*
//! and differences are purely contention effects.

use crate::experiments::{run_experiments, Experiment, ExperimentResult};
use dynsched_policies::Policy;
use dynsched_scheduler::SchedulerConfig;
use dynsched_workload::transform::scale_load;
use dynsched_workload::Trace;

/// One load point of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadPoint {
    /// Offered load of the rescaled sequences (area / capacity·span).
    pub offered_load: f64,
    /// The full experiment result at this load.
    pub result: ExperimentResult,
}

/// Sweep offered load over `targets` by rescaling `sequences`.
///
/// Each sequence's own base load may differ; the rescaling factor is
/// chosen per sequence so all sequences hit the same target. The whole
/// sweep — every `(target × policy × sequence)` cell — runs as **one**
/// batched evaluation session (see [`crate::session`]), so the pool stays
/// saturated across load points. Returns one [`LoadPoint`] per target, in
/// order.
///
/// # Panics
/// Panics if `sequences` is empty, a sequence is empty, or any target is
/// not strictly positive.
pub fn sweep_load(
    name: &str,
    sequences: &[Trace],
    scheduler: SchedulerConfig,
    policies: &[Box<dyn Policy>],
    targets: &[f64],
) -> Vec<LoadPoint> {
    assert!(!sequences.is_empty(), "no sequences");
    let base_loads: Vec<f64> = sequences
        .iter()
        .map(|s| {
            s.summary(scheduler.platform.total_cores)
                .expect("non-empty sequence")
                .offered_load
        })
        .collect();
    let experiments: Vec<Experiment> = targets
        .iter()
        .map(|&target| {
            assert!(target > 0.0, "target load must be positive");
            let rescaled: Vec<Trace> = sequences
                .iter()
                .zip(&base_loads)
                .map(|(seq, &base)| scale_load(seq, target / base))
                .collect();
            Experiment::new(format!("{name} @ load {target:.2}"), rescaled, scheduler)
        })
        .collect();
    targets
        .iter()
        .zip(run_experiments(&experiments, policies))
        .map(|(&target, result)| LoadPoint {
            offered_load: target,
            result,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsched_cluster::Platform;
    use dynsched_policies::{Fcfs, Spt};
    use dynsched_simkit::Rng;
    use dynsched_workload::LublinModel;

    fn sequences() -> Vec<Trace> {
        let mut model = LublinModel::new(32);
        model.daily_cycle = false;
        let mut rng = Rng::new(31);
        (0..3).map(|_| model.generate_jobs(120, &mut rng)).collect()
    }

    fn lineup() -> Vec<Box<dyn Policy>> {
        vec![Box::new(Fcfs), Box::new(Spt)]
    }

    #[test]
    fn slowdown_grows_with_load() {
        let points = sweep_load(
            "test",
            &sequences(),
            SchedulerConfig::actual_runtimes(Platform::new(32)),
            &lineup(),
            &[0.3, 1.2],
        );
        assert_eq!(points.len(), 2);
        let low = points[0].result.median_of("FCFS").unwrap();
        let high = points[1].result.median_of("FCFS").unwrap();
        assert!(
            high > low,
            "FCFS at load 1.2 ({high}) must beat load 0.3 ({low})... upward"
        );
    }

    #[test]
    fn policies_converge_at_low_load() {
        // Near-zero contention: every policy trends to AVEbsld ≈ 1 and the
        // SPT-vs-FCFS gap closes.
        let points = sweep_load(
            "test",
            &sequences(),
            SchedulerConfig::actual_runtimes(Platform::new(32)),
            &lineup(),
            &[0.05],
        );
        let fcfs = points[0].result.median_of("FCFS").unwrap();
        let spt = points[0].result.median_of("SPT").unwrap();
        assert!(fcfs < 4.0, "low load FCFS {fcfs}");
        assert!((fcfs - spt).abs() < fcfs, "gap should be small at low load");
    }

    #[test]
    #[should_panic(expected = "no sequences")]
    fn empty_sequences_rejected() {
        sweep_load(
            "x",
            &[],
            SchedulerConfig::actual_runtimes(Platform::new(4)),
            &lineup(),
            &[0.5],
        );
    }
}
