//! Deterministic fault injection: failure schedules and revocable
//! capacity.
//!
//! The paper's platform (§3.1) is `nmax` homogeneous cores that are always
//! up. Real clusters are not: nodes crash and are repaired. This module
//! describes those outages as data — a [`FaultProfile`] — and expands them into a per-run
//! [`AvailabilitySchedule`]: a sorted list of capacity-change events the
//! scheduler engine merges into its event loop.
//!
//! # Determinism contract
//!
//! Expansion is replayable under the same `(master seed, stream index)`
//! convention the trial driver uses: [`FaultProfile::expand`] forks
//! `Rng::new(seed ^ SALT).fork(stream_index)`, so the schedule for a given
//! `(profile, platform, horizon, stream)` tuple is a pure function of its
//! inputs — independent of thread count, call order, or the parent RNG's
//! position. Callers that evaluate one workload sequence under many
//! policies use the *sequence index* as the stream, which gives every
//! policy the identical outage series (the comparison stays paired).
//!
//! Random node crashes are a Poisson process: inter-failure gaps are
//! exponential with mean `mtbf`, repair durations exponential with mean
//! `mttr` (the standard M/M availability model). Every outage ends:
//! expansion always emits the capacity-restore event even when it falls
//! past the horizon, so a schedule's final step returns the platform to
//! full capacity and any simulation drains.

use crate::job::Job;
use dynsched_simkit::{Rng, Time};

/// Salt folded into the fault RNG so fault streams can never collide with
/// workload-generation streams derived from the same master seed.
const FAULT_STREAM_SALT: u64 = 0xFA17_5EED_0D15_A57E;

/// Declarative description of a platform's unreliability.
///
/// An empty profile ([`FaultProfile::none`], or anything for which
/// [`FaultProfile::is_empty`] holds) expands to an empty schedule, and an
/// empty schedule leaves the engine bit-identical to a fault-free run —
/// that is the zero-fault regression contract the `fault_bit_identity`
/// suite pins.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Mean time between random node failures (seconds). Zero or
    /// non-finite disables random failures.
    pub mtbf: Time,
    /// Mean time to repair a random failure (seconds). Zero means
    /// instantaneous repair (the failure becomes a no-op).
    pub mttr: Time,
    /// Cores taken offline by each random failure (a node/blade width).
    pub failure_cores: u32,
    /// How many times a preempted job may be re-queued before the engine
    /// abandons it (reported as an [`AbandonedJob`]).
    pub max_retries: u32,
    /// Master seed for the failure/repair streams.
    pub seed: u64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultProfile {
    /// The empty profile: no failures.
    pub fn none() -> Self {
        Self {
            mtbf: 0.0,
            mttr: 0.0,
            failure_cores: 0,
            max_retries: 3,
            seed: 0,
        }
    }

    /// A random-failure profile.
    pub fn failures(mtbf: Time, mttr: Time, failure_cores: u32, seed: u64) -> Self {
        Self {
            mtbf,
            mttr,
            failure_cores,
            ..Self::none()
        }
        .with_seed(seed)
    }

    /// Replace the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the retry cap.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Whether random failures are enabled.
    pub fn has_failures(&self) -> bool {
        self.mtbf > 0.0 && self.mtbf.is_finite() && self.failure_cores > 0
    }

    /// Whether this profile produces no outages at all.
    pub fn is_empty(&self) -> bool {
        !self.has_failures()
    }

    /// Expand into the concrete capacity-step schedule for one run.
    ///
    /// `total_cores` is the platform size, `horizon` bounds the sampling
    /// window for *new* random failures (a sequence's submission span is
    /// the natural choice), and `stream_index` selects the deterministic
    /// RNG stream. Outages that begin before the horizon may end after it;
    /// the restore events are always emitted, so the final step of a
    /// non-empty schedule restores full capacity.
    ///
    /// # Panics
    /// Panics if `horizon` is NaN (NaN timestamps would corrupt the
    /// engine's event order).
    pub fn expand(
        &self,
        total_cores: u32,
        horizon: Time,
        stream_index: u64,
    ) -> AvailabilitySchedule {
        assert!(!horizon.is_nan(), "fault horizon must not be NaN");
        // (time, offline-core delta): +cores at outage start, -cores at end.
        let mut deltas: Vec<(Time, i64)> = Vec::new();
        if self.has_failures() && horizon > 0.0 {
            let mut rng = Rng::new(self.seed ^ FAULT_STREAM_SALT).fork(stream_index);
            let mut t = 0.0;
            loop {
                t += -self.mtbf * rng.next_f64_open().ln();
                if t >= horizon {
                    break;
                }
                let repair = if self.mttr > 0.0 && self.mttr.is_finite() {
                    -self.mttr * rng.next_f64_open().ln()
                } else {
                    0.0
                };
                deltas.push((t, self.failure_cores as i64));
                deltas.push((t + repair, -(self.failure_cores as i64)));
            }
        }
        deltas.sort_by(|a, b| a.0.total_cmp(&b.0));

        // Prefix-sum offline cores (clamped to the platform) and coalesce
        // equal-time groups into capacity steps, dropping no-op steps.
        let mut steps: Vec<CapacityStep> = Vec::new();
        let mut offline: i64 = 0;
        let mut last_capacity = total_cores;
        let mut i = 0usize;
        while i < deltas.len() {
            let time = deltas[i].0;
            while i < deltas.len() && deltas[i].0 == time {
                offline += deltas[i].1;
                i += 1;
            }
            let capacity = total_cores - offline.clamp(0, total_cores as i64) as u32;
            if capacity != last_capacity {
                steps.push(CapacityStep { time, capacity });
                last_capacity = capacity;
            }
        }
        debug_assert_eq!(offline, 0, "every outage must emit its restore");
        AvailabilitySchedule {
            steps,
            max_retries: self.max_retries,
        }
    }
}

/// One capacity change: from `time` on, `capacity` cores are online.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityStep {
    /// When the change takes effect (seconds).
    pub time: Time,
    /// Online cores from this time until the next step.
    pub capacity: u32,
}

/// A concrete per-run outage schedule: sorted capacity-change events plus
/// the retry cap for preempted jobs. Produced by [`FaultProfile::expand`];
/// the engine merges the steps into its event loop and treats the platform
/// as holding full capacity before the first step and after the last.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilitySchedule {
    steps: Vec<CapacityStep>,
    max_retries: u32,
}

impl Default for AvailabilitySchedule {
    fn default() -> Self {
        Self::empty()
    }
}

impl AvailabilitySchedule {
    /// The schedule with no capacity changes. Running the engine's fault
    /// path with this schedule is bit-identical to the fault-free path.
    pub fn empty() -> Self {
        Self {
            steps: Vec::new(),
            max_retries: u32::MAX,
        }
    }

    /// Build a schedule from explicit steps (tests and hand-written
    /// scenarios; [`FaultProfile::expand`] is the usual constructor).
    ///
    /// # Panics
    /// Panics if the steps are not strictly increasing in time or any
    /// time is non-finite.
    pub fn from_steps(steps: Vec<CapacityStep>, max_retries: u32) -> Self {
        for w in steps.windows(2) {
            assert!(
                w[0].time < w[1].time,
                "capacity steps must be strictly increasing in time"
            );
        }
        assert!(
            steps.iter().all(|s| s.time.is_finite()),
            "capacity step times must be finite"
        );
        Self { steps, max_retries }
    }

    /// The sorted capacity-change events.
    pub fn steps(&self) -> &[CapacityStep] {
        &self.steps
    }

    /// Retry cap for preempted jobs.
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// Whether the schedule changes capacity at all.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// A job the engine gave up on: preempted more times than the schedule's
/// retry cap allows. Reported alongside completions so no trace job is
/// ever silently dropped — every job either completes or appears here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbandonedJob {
    /// The job as submitted.
    pub job: Job,
    /// Its dense trace position.
    pub idx: u32,
    /// How many times it was started (and killed).
    pub attempts: u32,
    /// When the final kill abandoned it.
    pub abandoned_at: Time,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failure_profile(seed: u64) -> FaultProfile {
        FaultProfile::failures(10_000.0, 2_000.0, 8, seed)
    }

    #[test]
    fn empty_profile_expands_to_empty_schedule() {
        let s = FaultProfile::none().expand(256, 1e6, 0);
        assert!(s.is_empty());
        assert!(FaultProfile::none().is_empty());
    }

    #[test]
    fn expansion_is_deterministic_per_stream() {
        let p = failure_profile(42);
        let a = p.expand(256, 1e6, 3);
        let b = p.expand(256, 1e6, 3);
        assert_eq!(a, b);
        let other_stream = p.expand(256, 1e6, 4);
        assert_ne!(a, other_stream, "streams must differ");
        let other_seed = failure_profile(43).expand(256, 1e6, 3);
        assert_ne!(a, other_seed, "seeds must differ");
    }

    #[test]
    fn steps_are_strictly_increasing_and_restore_capacity() {
        let p = failure_profile(7);
        let s = p.expand(256, 2e6, 0);
        assert!(!s.is_empty(), "a 200-MTBF horizon should produce failures");
        for w in s.steps().windows(2) {
            assert!(w[0].time < w[1].time);
        }
        assert_eq!(
            s.steps().last().unwrap().capacity,
            256,
            "the last step must restore full capacity"
        );
    }

    /// Steps recorded at the commit before PR 23, which deleted the
    /// maintenance-window loop that followed the failure loop (times as
    /// `f64` bits): same draws, same bits. The second case overlaps
    /// failures past the platform (48 offline of 32).
    #[test]
    fn failure_expansion_is_pinned_step_for_step() {
        type Case = (FaultProfile, u32, Time, u64, &'static [(u64, u32)]);
        let cases: [Case; 3] = [
            (
                FaultProfile::failures(10_000.0, 2_000.0, 8, 42),
                256,
                5e4,
                3,
                &[
                    (0x40bb023307c99736, 248),
                    (0x40c00d5ded972e2f, 256),
                    (0x40c36bf8061a8660, 248),
                    (0x40c43cfcc30cfb04, 256),
                    (0x40e032f8a538f5f5, 248),
                    (0x40e0f845e56c7765, 256),
                    (0x40e2d6a0eb346869, 248),
                    (0x40e61ec2c2e4d6d6, 256),
                ],
            ),
            (
                FaultProfile::failures(1_000.0, 3_000.0, 24, 7),
                32,
                6e3,
                0,
                &[
                    (0x407ccaaf27216d74, 8),
                    (0x40811ea3d4cb30db, 0),
                    (0x40ad9ff8bbc16053, 8),
                    (0x40ae05d3a792237c, 0),
                    (0x40c43bb97944a2a0, 8),
                    (0x40c5a0f17cee27cb, 32),
                ],
            ),
            (
                FaultProfile::failures(2_500.0, 400.0, 4, 0xD15EA5E),
                64,
                1e4,
                17,
                &[
                    (0x40a6a886f0f833d5, 60),
                    (0x40ae5364ce57531e, 64),
                    (0x40b1b49821452bf8, 60),
                    (0x40b428e2942edc33, 64),
                    (0x40b8624f2a3be129, 60),
                    (0x40ba41db296a567f, 64),
                    (0x40be3c262c9336ae, 60),
                    (0x40c029a57f9674b2, 64),
                    (0x40c20c0941ae2b82, 60),
                    (0x40c36a45cc580d87, 64),
                ],
            ),
        ];
        for (profile, total_cores, horizon, stream, expected) in cases {
            let schedule = profile.expand(total_cores, horizon, stream);
            let steps: Vec<(u64, u32)> = schedule
                .steps()
                .iter()
                .map(|step| (step.time.to_bits(), step.capacity))
                .collect();
            assert_eq!(steps, expected, "seed {}", profile.seed);
        }
    }

    #[test]
    fn expansion_ignores_parent_rng_position() {
        // Same (seed, stream) must give the same schedule regardless of
        // how much the caller consumed from any other stream.
        let p = failure_profile(11);
        let a = p.expand(128, 5e5, 9);
        let _ = failure_profile(11).expand(128, 5e5, 2);
        let b = p.expand(128, 5e5, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn from_steps_validates_order() {
        let ok = AvailabilitySchedule::from_steps(
            vec![
                CapacityStep {
                    time: 1.0,
                    capacity: 3,
                },
                CapacityStep {
                    time: 2.0,
                    capacity: 4,
                },
            ],
            2,
        );
        assert_eq!(ok.max_retries(), 2);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_steps_rejects_unsorted() {
        AvailabilitySchedule::from_steps(
            vec![
                CapacityStep {
                    time: 2.0,
                    capacity: 3,
                },
                CapacityStep {
                    time: 1.0,
                    capacity: 4,
                },
            ],
            2,
        );
    }

    #[test]
    fn zero_mttr_failures_are_noops() {
        let p = FaultProfile::failures(1_000.0, 0.0, 8, 5);
        let s = p.expand(64, 1e5, 0);
        // Down and up coincide; coalescing leaves no steps.
        assert!(s.is_empty());
    }
}
