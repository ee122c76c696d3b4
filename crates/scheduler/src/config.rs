//! Scheduler configuration: decision mode and backfilling variant.

use dynsched_cluster::Platform;
use dynsched_policies::DecisionMode;

/// Which backfilling algorithm runs after the strict policy pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackfillMode {
    /// No backfilling: if the highest-priority task does not fit, the
    /// scheduler waits (§4.2's base setting).
    None,
    /// Aggressive (EASY) backfilling: the blocked head task holds the one
    /// and only reservation; any later task may jump ahead if it does not
    /// delay the head (§4.2.3). FCFS + this = the EASY algorithm.
    Aggressive,
    /// Conservative backfilling: every queued task holds a reservation; a
    /// task may jump ahead only if it delays nobody. Not evaluated in the
    /// paper — provided for the ablation study.
    Conservative,
}

/// Full configuration of one simulated scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// The simulated platform.
    pub platform: Platform,
    /// Whether policies see actual runtimes or user estimates.
    pub decision_mode: DecisionMode,
    /// Backfilling variant. EASY ([`BackfillMode::Aggressive`]) means
    /// exactly one reservation — the paper's setting (§4.2.3).
    pub backfill: BackfillMode,
    /// Enforce walltimes: kill a job once it has run for its user estimate
    /// (production behaviour). The paper's simulations let jobs run to
    /// completion, so this defaults to `false`.
    pub kill_at_estimate: bool,
}

impl SchedulerConfig {
    /// The paper's base setting: decisions on actual runtimes, no
    /// backfilling.
    pub fn actual_runtimes(platform: Platform) -> Self {
        Self {
            platform,
            decision_mode: DecisionMode::ActualRuntime,
            backfill: BackfillMode::None,
            kill_at_estimate: false,
        }
    }

    /// Decisions on user estimates, no backfilling (§4.2.2).
    pub fn user_estimates(platform: Platform) -> Self {
        Self {
            decision_mode: DecisionMode::UserEstimate,
            ..Self::actual_runtimes(platform)
        }
    }

    /// The paper's most realistic setting: user estimates + aggressive
    /// backfilling (§4.2.3).
    pub fn estimates_with_backfilling(platform: Platform) -> Self {
        Self {
            backfill: BackfillMode::Aggressive,
            ..Self::user_estimates(platform)
        }
    }

    /// How long a job occupies the machine once started.
    pub fn execution_time(&self, runtime: f64, estimate: f64) -> f64 {
        if self.kill_at_estimate {
            runtime.min(estimate)
        } else {
            runtime
        }
    }

    /// Processing time a policy/backfill decision may use for a job.
    pub fn decision_time(&self, runtime: f64, estimate: f64) -> f64 {
        match self.decision_mode {
            DecisionMode::ActualRuntime => runtime,
            DecisionMode::UserEstimate => estimate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_time_follows_mode() {
        let p = Platform::new(16);
        assert_eq!(
            SchedulerConfig::actual_runtimes(p).decision_time(10.0, 99.0),
            10.0
        );
        assert_eq!(
            SchedulerConfig::user_estimates(p).decision_time(10.0, 99.0),
            99.0
        );
    }

    #[test]
    fn presets_have_expected_backfill() {
        let p = Platform::new(16);
        assert_eq!(
            SchedulerConfig::actual_runtimes(p).backfill,
            BackfillMode::None
        );
        assert_eq!(
            SchedulerConfig::estimates_with_backfilling(p).backfill,
            BackfillMode::Aggressive
        );
    }
}
