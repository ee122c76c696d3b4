//! SLURM-style multifactor priority policy.
//!
//! The paper's §2 motivates the whole work with production job managers:
//! SLURM schedules with EASY or with a *multifactor* policy — aggressive
//! backfilling plus a priority that is a linear combination of factors
//! (waiting time, size, …) whose coefficients the platform maintainer sets
//! by hand. This module implements that baseline so the learned policies
//! can be compared against the thing they are meant to replace.
//!
//! Factors are normalized to `[0, 1]` as SLURM does, and the combined
//! priority is negated into a score (our convention: lower runs first).
//! The weights below are a common production flavour: age dominates
//! (FIFO-ish fairness), with mild preferences for short and small jobs.

use crate::policy::Policy;
use crate::task_view::TaskView;

/// Weight of the age factor (`wait / MAX_AGE`, capped at 1): rewards
/// long-waiting jobs — the anti-starvation term.
const AGE_WEIGHT: f64 = 1.0;
/// Weight of the job-size factor (`cores / platform_cores`): SLURM's
/// "favor big jobs" knob, negative here to favor small jobs.
const SIZE_WEIGHT: f64 = -0.25;
/// Weight of the short-job factor (`1 - min(proc_time, MAX_TIME)/MAX_TIME`):
/// rewards short (estimated) processing times.
const SHORTNESS_WEIGHT: f64 = 0.5;
/// Wait time at which the age factor saturates (SLURM's `PriorityMaxAge`,
/// commonly 7 days).
const MAX_AGE: f64 = 7.0 * 86_400.0;
/// Processing time at which the shortness factor reaches 0.
const MAX_TIME: f64 = 5.0 * 86_400.0;

/// The multifactor policy: `score = -(w_age·age + w_size·size + w_short·short)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiFactor {
    /// Platform width used to normalize the size factor.
    pub platform_cores: u32,
}

impl Default for MultiFactor {
    fn default() -> Self {
        Self {
            platform_cores: 256,
        }
    }
}

impl MultiFactor {
    /// Set the platform width used by the size factor.
    pub fn for_platform(mut self, cores: u32) -> Self {
        assert!(cores > 0);
        self.platform_cores = cores;
        self
    }

    /// The normalized age factor in `[0, 1]`.
    pub fn age_factor(&self, task: &TaskView) -> f64 {
        (task.wait() / MAX_AGE).clamp(0.0, 1.0)
    }

    /// The normalized size factor in `[0, 1]`.
    pub fn size_factor(&self, task: &TaskView) -> f64 {
        (task.cores as f64 / self.platform_cores as f64).clamp(0.0, 1.0)
    }

    /// The normalized shortness factor in `[0, 1]` (1 = instant job).
    pub fn shortness_factor(&self, task: &TaskView) -> f64 {
        1.0 - (task.processing_time / MAX_TIME).clamp(0.0, 1.0)
    }
}

impl Policy for MultiFactor {
    fn name(&self) -> &str {
        "MF"
    }

    fn score(&self, task: &TaskView) -> f64 {
        let priority = AGE_WEIGHT * self.age_factor(task)
            + SIZE_WEIGHT * self.size_factor(task)
            + SHORTNESS_WEIGHT * self.shortness_factor(task);
        -priority
    }

    fn compile(&self) -> Option<crate::compile::CompiledPolicy> {
        use crate::compile::OpCode as Op;
        // The size and shortness terms never read `w`: hoist each weighted
        // factor into a per-job slot. The residual replays the exact float
        // sequence of `score`: raw (unguarded) divisions, `clamp(0, 1)`
        // normalization, left-to-right weighted sum, final negation — and
        // no NaN sanitizer, because the interpreted path has none.
        let prefix = vec![
            // slot 0 = SIZE_WEIGHT * size_factor
            Op::Const(SIZE_WEIGHT),
            Op::LoadN,
            Op::Const(self.platform_cores as f64),
            Op::DivRaw,
            Op::Clamp01,
            Op::Mul,
            // slot 1 = SHORTNESS_WEIGHT * shortness_factor
            Op::Const(SHORTNESS_WEIGHT),
            Op::Const(1.0),
            Op::LoadR,
            Op::Const(MAX_TIME),
            Op::DivRaw,
            Op::Clamp01,
            Op::Sub,
            Op::Mul,
        ];
        let residual = vec![
            Op::Const(AGE_WEIGHT),
            Op::LoadW,
            Op::Const(MAX_AGE),
            Op::DivRaw,
            Op::Clamp01,
            Op::Mul,
            Op::LoadSlot(0),
            Op::Add,
            Op::LoadSlot(1),
            Op::Add,
            Op::Neg,
        ];
        Some(crate::compile::CompiledPolicy::from_parts(
            "MF", prefix, 2, residual,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(r: f64, n: u32, s: f64, now: f64) -> TaskView {
        TaskView {
            processing_time: r,
            cores: n,
            submit: s,
            now,
        }
    }

    #[test]
    fn factors_are_normalized() {
        let mf = MultiFactor::default();
        let t = view(1e9, 10_000, 0.0, 1e9);
        assert_eq!(mf.age_factor(&t), 1.0);
        assert_eq!(mf.size_factor(&t), 1.0);
        assert_eq!(mf.shortness_factor(&t), 0.0);
        let t0 = view(0.0, 1, 100.0, 100.0);
        assert_eq!(mf.age_factor(&t0), 0.0);
        assert!(mf.shortness_factor(&t0) == 1.0);
    }

    #[test]
    fn age_dominates_with_default_weights() {
        let mf = MultiFactor::default();
        let old = view(1_000.0, 64, 0.0, 6.0 * 86_400.0);
        let fresh = view(10.0, 1, 6.0 * 86_400.0 - 1.0, 6.0 * 86_400.0);
        assert!(
            mf.score(&old) < mf.score(&fresh),
            "an almost-week-old job outranks a fresh tiny one"
        );
    }

    #[test]
    fn shortness_breaks_ties_at_equal_age() {
        let mf = MultiFactor::default();
        let short = view(60.0, 8, 0.0, 3_600.0);
        let long = view(86_400.0, 8, 0.0, 3_600.0);
        assert!(mf.score(&short) < mf.score(&long));
    }

    #[test]
    fn negative_size_weight_prefers_small_jobs() {
        let mf = MultiFactor::default();
        let narrow = view(100.0, 2, 0.0, 0.0);
        let wide = view(100.0, 256, 0.0, 0.0);
        assert!(mf.score(&narrow) < mf.score(&wide));
    }

    #[test]
    fn score_is_never_nan() {
        let mf = MultiFactor::default();
        for &(r, n, s, now) in &[
            (0.0, 1u32, 0.0, 0.0),
            (f64::MAX / 2.0, 1_000_000, 0.0, 1e12),
            (1.0, 1, 5.0, 4.0),
        ] {
            assert!(!mf.score(&view(r, n, s, now)).is_nan());
        }
    }
}
