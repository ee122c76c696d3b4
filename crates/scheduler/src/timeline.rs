//! Post-hoc queue analysis: the queue-length step curve of a schedule,
//! the step fold it is built with, and two statistics over any step curve.
//!
//! Everything here is reconstructed from a [`SimulationResult`] — the hot
//! simulation loop carries no extra instrumentation. `paperbench` reads
//! its queue-depth metrics off this curve; the utilization curve (a
//! [`step_curve`] of busy cores), the ASCII Gantt chart and the SWF export
//! live with their one caller, `examples/schedule_visualizer.rs`.

use crate::result::SimulationResult;

/// A step point of a time curve: the value holds from `time` until the
/// next point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Time of the step.
    pub time: f64,
    /// Value from this time on.
    pub value: f64,
}

/// Queue-length step curve: jobs submitted but not yet started.
pub fn queue_length_curve(result: &SimulationResult) -> Vec<CurvePoint> {
    let mut deltas: Vec<(f64, i64)> = Vec::with_capacity(result.completed.len() * 2);
    for c in &result.completed {
        deltas.push((c.job.submit, 1));
        deltas.push((c.start, -1));
    }
    step_curve(deltas)
}

/// The step curve of a level that starts at 0 and moves by `delta` at
/// each `(time, delta)`, in any order. Equal timestamps collapse into one
/// point holding the net level, so the order within a timestamp never
/// shows in the curve. The sort is in place and unstable: the comparator
/// is total, so two deltas it calls equal are bit-identical.
pub fn step_curve(mut deltas: Vec<(f64, i64)>) -> Vec<CurvePoint> {
    deltas.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut curve: Vec<CurvePoint> = Vec::new();
    let mut level = 0i64;
    for (time, delta) in deltas {
        level += delta;
        let value = level as f64;
        match curve.last_mut() {
            Some(last) if last.time == time => last.value = value,
            _ => curve.push(CurvePoint { time, value }),
        }
    }
    curve
}

/// Maximum of a step curve (0 for an empty curve).
pub fn curve_max(curve: &[CurvePoint]) -> f64 {
    curve.iter().map(|p| p.value).fold(0.0, f64::max)
}

/// Time-weighted mean of a step curve over `[start, end]` of the curve.
pub fn curve_mean(curve: &[CurvePoint]) -> Option<f64> {
    if curve.len() < 2 {
        return None;
    }
    let mut weighted = 0.0;
    for w in curve.windows(2) {
        weighted += w[0].value * (w[1].time - w[0].time);
    }
    let span = curve.last().unwrap().time - curve[0].time;
    if span <= 0.0 {
        return None;
    }
    Some(weighted / span)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerConfig;
    use crate::engine::{simulate, QueueDiscipline};
    use dynsched_cluster::{Job, Platform};
    use dynsched_policies::Fcfs;
    use dynsched_workload::Trace;

    fn sim(jobs: Vec<Job>, cores: u32) -> SimulationResult {
        simulate(
            &Trace::from_jobs(jobs),
            &QueueDiscipline::Policy(&Fcfs),
            &SchedulerConfig::actual_runtimes(Platform::new(cores)),
        )
    }

    fn job(id: u32, submit: f64, runtime: f64, cores: u32) -> Job {
        Job::new(id, submit, runtime, runtime, cores)
    }

    #[test]
    fn queue_curve_counts_waiting_jobs() {
        // Three simultaneous full-machine jobs: queue 3 at t=0 (before the
        // first start is processed in the same instant the curve nets to
        // 2 waiting after one starts).
        let r = sim(
            vec![
                job(0, 0.0, 10.0, 4),
                job(1, 0.0, 10.0, 4),
                job(2, 0.0, 10.0, 4),
            ],
            4,
        );
        let curve = queue_length_curve(&r);
        // At t=0: 3 submits and 1 start → level 2; each completion starts
        // the next job, so the queue steps down at t=10 and t=20.
        let levels: Vec<(f64, f64)> = curve.iter().map(|p| (p.time, p.value)).collect();
        assert_eq!(levels, [(0.0, 2.0), (10.0, 1.0), (20.0, 0.0)]);
        assert_eq!(curve_max(&curve), 2.0);
        // (2 · 10 + 1 · 10) / 20.
        assert_eq!(curve_mean(&curve), Some(1.5));
    }

    #[test]
    fn curve_mean_weights_each_level_by_its_duration() {
        let at = |time, value| CurvePoint { time, value };
        assert_eq!(curve_mean(&[at(0.0, 3.0), at(4.0, 0.0)]), Some(3.0));
        // (1 · 2 + 4 · 8) / 10: the last point's value holds for no time.
        let curve = [at(10.0, 1.0), at(12.0, 4.0), at(20.0, 9.0)];
        assert_eq!(curve_mean(&curve), Some(3.4));
        assert_eq!(curve_mean(&[at(5.0, 2.0)]), None);
        assert_eq!(curve_mean(&[at(5.0, 2.0), at(5.0, 0.0)]), None);
    }

    #[test]
    fn busy_core_curve_mean_matches_the_ledger_utilization() {
        let r = sim(vec![job(0, 0.0, 10.0, 2), job(1, 5.0, 20.0, 1)], 4);
        let deltas = (r.completed.iter()).flat_map(|c| {
            [
                (c.start, c.job.cores as i64),
                (c.finish, -(c.job.cores as i64)),
            ]
        });
        let busy = step_curve(deltas.collect());
        assert_eq!(curve_max(&busy), 3.0);
        assert!((curve_mean(&busy).unwrap() / 4.0 - r.utilization).abs() < 1e-9);
    }

    #[test]
    fn empty_result_yields_empty_views() {
        let empty = SimulationResult {
            completed: vec![],
            makespan: 0.0,
            utilization: 0.0,
            events_processed: 0,
            backfilled_jobs: 0,
            preempted_jobs: 0,
            lost_core_seconds: 0.0,
            abandoned: vec![],
        };
        assert!(queue_length_curve(&empty).is_empty());
        assert_eq!(curve_mean(&[]), None);
    }
}
