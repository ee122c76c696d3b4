//! What a scheduling policy is allowed to see.
//!
//! The paper's policies are *functions of task characteristics* (§3.1): the
//! processing time (actual `r` or user estimate `e`, depending on the
//! experiment's decision mode), the resource requirement `n`, the arrival
//! time `s`, and — for the ad-hoc baselines WFP3/UNICEF — the waiting time
//! `w = now − s`. A [`TaskView`] packages exactly those values; the
//! scheduler builds one per queued job at every rescheduling event, so
//! policies can never peek at simulation internals (like the actual runtime
//! in estimate mode).

/// Which processing time the scheduler exposes to policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionMode {
    /// Decisions use the actual runtime `r` (§4.2.1; an oracle setting).
    ActualRuntime,
    /// Decisions use the user estimate `e` (§4.2.2; the realistic setting).
    UserEstimate,
}

/// A policy's view of one queued task at a rescheduling event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskView {
    /// Processing time the policy may use (`r` or `e` per [`DecisionMode`]).
    pub processing_time: f64,
    /// Requested number of cores `n`.
    pub cores: u32,
    /// Arrival time `s` (seconds from the start of the sequence).
    pub submit: f64,
    /// Current simulation time.
    pub now: f64,
}

impl TaskView {
    /// Waiting time `w = now − s`, clamped at 0 (a task observed in the
    /// queue can never have negative wait; the clamp guards float fuzz when
    /// an arrival event is processed at exactly `submit`).
    pub fn wait(&self) -> f64 {
        (self.now - self.submit).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_is_now_minus_submit() {
        let t = TaskView {
            processing_time: 10.0,
            cores: 4,
            submit: 100.0,
            now: 130.0,
        };
        assert_eq!(t.wait(), 30.0);
    }

    #[test]
    fn wait_clamps_at_zero() {
        let t = TaskView {
            processing_time: 10.0,
            cores: 4,
            submit: 100.0,
            now: 99.999_999,
        };
        assert_eq!(t.wait(), 0.0);
    }
}
