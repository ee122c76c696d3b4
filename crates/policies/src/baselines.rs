//! The classical and ad-hoc baseline policies of the paper's Table 2,
//! plus two area-based classics used by the ablation benches.
//!
//! | Name   | Score (lower runs first)          |
//! |--------|-----------------------------------|
//! | FCFS   | `s`                               |
//! | LCFS   | `-s`                              |
//! | SPT    | `r`                               |
//! | LPT    | `-r`                              |
//! | SAF    | `r·n` (smallest area first)       |
//! | LAF    | `-r·n`                            |
//! | WFP3   | `-(w/r)³·n`                       |
//! | UNICEF | `-w / (log2(n)·r)`                |
//!
//! WFP3 and UNICEF come from Tang et al. (CLUSTER'09): WFP3 strongly favours
//! short and/or long-waiting tasks while resisting large-task starvation;
//! UNICEF gives fast turnaround to small tasks.

use crate::compile::{CompiledPolicy, OpCode as Op};
use crate::policy::Policy;
use crate::task_view::TaskView;

/// Clamp a processing time away from zero. Archive logs contain 0-second
/// jobs; a zero denominator in WFP3/UNICEF/SPT ratios would produce
/// NaN/∞ scores and corrupt the queue order.
#[inline]
fn safe_r(task: &TaskView) -> f64 {
    task.processing_time.max(1.0)
}

/// First-Come First-Served: order by arrival time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl Policy for Fcfs {
    fn name(&self) -> &str {
        "FCFS"
    }

    fn score(&self, task: &TaskView) -> f64 {
        task.submit
    }

    fn time_dependent(&self) -> bool {
        false
    }

    fn compile(&self) -> Option<CompiledPolicy> {
        Some(CompiledPolicy::from_parts(
            "FCFS",
            vec![],
            0,
            vec![Op::LoadS],
        ))
    }
}

/// Last-Come First-Served (pathological baseline, used in tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct Lcfs;

impl Policy for Lcfs {
    fn name(&self) -> &str {
        "LCFS"
    }

    fn score(&self, task: &TaskView) -> f64 {
        -task.submit
    }

    fn time_dependent(&self) -> bool {
        false
    }

    fn compile(&self) -> Option<CompiledPolicy> {
        Some(CompiledPolicy::from_parts(
            "LCFS",
            vec![],
            0,
            vec![Op::LoadS, Op::Neg],
        ))
    }
}

/// Shortest Processing Time first.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spt;

impl Policy for Spt {
    fn name(&self) -> &str {
        "SPT"
    }

    fn score(&self, task: &TaskView) -> f64 {
        task.processing_time
    }

    fn time_dependent(&self) -> bool {
        false
    }

    fn compile(&self) -> Option<CompiledPolicy> {
        Some(CompiledPolicy::from_parts(
            "SPT",
            vec![],
            0,
            vec![Op::LoadR],
        ))
    }
}

/// Longest Processing Time first.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lpt;

impl Policy for Lpt {
    fn name(&self) -> &str {
        "LPT"
    }

    fn score(&self, task: &TaskView) -> f64 {
        -task.processing_time
    }

    fn time_dependent(&self) -> bool {
        false
    }

    fn compile(&self) -> Option<CompiledPolicy> {
        Some(CompiledPolicy::from_parts(
            "LPT",
            vec![],
            0,
            vec![Op::LoadR, Op::Neg],
        ))
    }
}

/// Smallest Area First: order by `r·n` core-seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Saf;

impl Policy for Saf {
    fn name(&self) -> &str {
        "SAF"
    }

    fn score(&self, task: &TaskView) -> f64 {
        task.processing_time * task.cores as f64
    }

    fn time_dependent(&self) -> bool {
        false
    }

    fn compile(&self) -> Option<CompiledPolicy> {
        Some(CompiledPolicy::from_parts(
            "SAF",
            vec![],
            0,
            vec![Op::LoadR, Op::LoadN, Op::Mul],
        ))
    }
}

/// Largest Area First.
#[derive(Debug, Clone, Copy, Default)]
pub struct Laf;

impl Policy for Laf {
    fn name(&self) -> &str {
        "LAF"
    }

    fn score(&self, task: &TaskView) -> f64 {
        -(task.processing_time * task.cores as f64)
    }

    fn time_dependent(&self) -> bool {
        false
    }

    fn compile(&self) -> Option<CompiledPolicy> {
        Some(CompiledPolicy::from_parts(
            "LAF",
            vec![],
            0,
            vec![Op::LoadR, Op::LoadN, Op::Mul, Op::Neg],
        ))
    }
}

/// WFP3 (Tang et al. 2009): `score = -(w/r)³ · n`.
///
/// The cube amplifies the wait-to-runtime ratio, so short tasks that have
/// waited long jump ahead; the `n` factor keeps wide waiting tasks from
/// starving.
#[derive(Debug, Clone, Copy, Default)]
pub struct Wfp3;

impl Policy for Wfp3 {
    fn name(&self) -> &str {
        "WFP"
    }

    fn score(&self, task: &TaskView) -> f64 {
        let ratio = task.wait() / safe_r(task);
        -(ratio * ratio * ratio) * task.cores as f64
    }

    fn compile(&self) -> Option<CompiledPolicy> {
        // safe_r = r.max(1.0) is wait-invariant: one slot per job. The
        // ratio cube duplicates the stack top; IEEE multiplication is
        // commutative for the finite values a clamped ratio can take, so
        // x*(x*x) is bit-identical to (x*x)*x (the property suite pins
        // compiled == interpreted bits regardless).
        Some(CompiledPolicy::from_parts(
            "WFP",
            vec![Op::LoadR, Op::Const(1.0), Op::Max],
            1,
            vec![
                Op::LoadW,
                Op::LoadSlot(0),
                Op::DivRaw,
                Op::Dup,
                Op::Dup,
                Op::Mul,
                Op::Mul,
                Op::Neg,
                Op::LoadN,
                Op::Mul,
            ],
        ))
    }
}

/// UNICEF (Tang et al. 2009): `score = -w / (log2(n)·r)`.
///
/// The literal formula divides by zero for serial jobs (`log2(1) = 0`); we
/// use `log2(max(n, 2))` so serial jobs keep the strongest finite
/// small-task preference without emitting ±∞/NaN, which would corrupt
/// the queue order.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unicef;

impl Policy for Unicef {
    fn name(&self) -> &str {
        "UNI"
    }

    fn score(&self, task: &TaskView) -> f64 {
        let log_n = (task.cores.max(2) as f64).log2();
        -task.wait() / (log_n * safe_r(task))
    }

    fn compile(&self) -> Option<CompiledPolicy> {
        // The denominator log2(max(n, 2)) * max(r, 1) is wait-invariant:
        // one slot. u32::max before the cast equals f64::max after it
        // (the cast is exact), and the guarded Log2 opcode is the
        // identity clamp for arguments >= 2.
        use crate::expr::Func;
        Some(CompiledPolicy::from_parts(
            "UNI",
            vec![
                Op::LoadN,
                Op::Const(2.0),
                Op::Max,
                Op::Call(Func::Log2),
                Op::LoadR,
                Op::Const(1.0),
                Op::Max,
                Op::Mul,
            ],
            1,
            vec![Op::LoadW, Op::Neg, Op::LoadSlot(0), Op::DivRaw],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::sort_views;

    fn view(r: f64, n: u32, s: f64, now: f64) -> TaskView {
        TaskView {
            processing_time: r,
            cores: n,
            submit: s,
            now,
        }
    }

    #[test]
    fn fcfs_orders_by_arrival() {
        let views = vec![
            view(1.0, 1, 30.0, 50.0),
            view(9.0, 9, 10.0, 50.0),
            view(5.0, 5, 20.0, 50.0),
        ];
        assert_eq!(sort_views(&Fcfs, &views), vec![1, 2, 0]);
        assert_eq!(sort_views(&Lcfs, &views), vec![0, 2, 1]);
    }

    #[test]
    fn spt_orders_by_processing_time() {
        let views = vec![
            view(30.0, 1, 0.0, 50.0),
            view(10.0, 1, 1.0, 50.0),
            view(20.0, 1, 2.0, 50.0),
        ];
        assert_eq!(sort_views(&Spt, &views), vec![1, 2, 0]);
        assert_eq!(sort_views(&Lpt, &views), vec![0, 2, 1]);
    }

    #[test]
    fn saf_orders_by_area() {
        // areas: 40, 30, 100
        let views = vec![
            view(10.0, 4, 0.0, 50.0),
            view(30.0, 1, 1.0, 50.0),
            view(25.0, 4, 2.0, 50.0),
        ];
        assert_eq!(sort_views(&Saf, &views), vec![1, 0, 2]);
        assert_eq!(sort_views(&Laf, &views), vec![2, 0, 1]);
    }

    #[test]
    fn wfp3_favors_long_waiting_short_tasks() {
        // Same size; one task has waited 10x longer relative to its runtime.
        let patient = view(10.0, 4, 0.0, 100.0); // w/r = 10
        let fresh = view(10.0, 4, 90.0, 100.0); // w/r = 1
        assert!(Wfp3.score(&patient) < Wfp3.score(&fresh));
    }

    #[test]
    fn wfp3_exact_value() {
        // w = 20, r = 10, n = 4: -(2)^3 * 4 = -32.
        let t = view(10.0, 4, 0.0, 20.0);
        assert!((Wfp3.score(&t) + 32.0).abs() < 1e-12);
    }

    #[test]
    fn wfp3_zero_wait_scores_zero() {
        let t = view(10.0, 4, 100.0, 100.0);
        assert_eq!(Wfp3.score(&t), 0.0);
    }

    #[test]
    fn unicef_exact_value() {
        // w = 16, n = 4 (log2 = 2), r = 8: -16 / (2*8) = -1.
        let t = view(8.0, 4, 0.0, 16.0);
        assert!((Unicef.score(&t) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn unicef_serial_jobs_use_log2_of_two() {
        // n=1 would divide by log2(1)=0; the guard treats it as n=2.
        let t = view(8.0, 1, 0.0, 16.0);
        let score = Unicef.score(&t);
        assert!(score.is_finite());
        assert!((score + 2.0).abs() < 1e-12); // -16/(1*8)
    }

    #[test]
    fn unicef_favors_small_tasks_at_equal_wait() {
        let small = view(10.0, 2, 0.0, 100.0);
        let big = view(10.0, 64, 0.0, 100.0);
        assert!(Unicef.score(&small) < Unicef.score(&big));
    }

    #[test]
    fn no_policy_emits_nan_on_degenerate_tasks() {
        // Zero runtime, zero wait, serial — the degenerate corner.
        let degenerate = view(0.0, 1, 0.0, 0.0);
        let policies: Vec<Box<dyn Policy>> = vec![
            Box::new(Fcfs),
            Box::new(Lcfs),
            Box::new(Spt),
            Box::new(Lpt),
            Box::new(Saf),
            Box::new(Laf),
            Box::new(Wfp3),
            Box::new(Unicef),
        ];
        for p in &policies {
            assert!(!p.score(&degenerate).is_nan(), "{} produced NaN", p.name());
        }
    }
}
