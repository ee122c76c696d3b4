//! The homogeneous HPC platform and its allocation ledger.
//!
//! The paper's platform model (§3.1) is a set of `nmax` homogeneous cores
//! behind any interconnect; a rigid job exclusively holds `n` cores from
//! start to finish. [`AllocationLedger`] is the safety-critical piece: it
//! enforces, at runtime, that cores are never over-subscribed and that
//! releases match grants — the invariants the property tests lean on.

use crate::job::JobId;
use dynsched_simkit::Time;
use std::collections::HashMap;

/// Static description of a homogeneous cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Platform {
    /// Total number of cores (`nmax`).
    pub total_cores: u32,
}

impl Platform {
    /// Create a platform with `total_cores` cores.
    ///
    /// # Panics
    /// Panics if `total_cores == 0`.
    pub fn new(total_cores: u32) -> Self {
        assert!(total_cores > 0, "a platform needs at least one core");
        Self { total_cores }
    }
}

/// Error returned by fallible ledger operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerError {
    /// Allocation would exceed the currently online core count.
    InsufficientCores {
        /// Cores requested by the job.
        requested: u32,
        /// Cores currently free.
        available: u32,
    },
    /// The job already holds an allocation.
    AlreadyAllocated(JobId),
    /// Release for a job that holds no allocation.
    NotAllocated(JobId),
    /// More cores released than are in use (a grant/release mismatch).
    OverRelease {
        /// Cores the caller tried to return.
        released: u32,
        /// Cores actually in use.
        in_use: u32,
    },
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::InsufficientCores {
                requested,
                available,
            } => {
                write!(
                    f,
                    "requested {requested} cores but only {available} available"
                )
            }
            LedgerError::AlreadyAllocated(id) => write!(f, "job {id} already allocated"),
            LedgerError::NotAllocated(id) => write!(f, "job {id} holds no allocation"),
            LedgerError::OverRelease { released, in_use } => {
                write!(f, "released {released} cores but only {in_use} in use")
            }
        }
    }
}

impl std::error::Error for LedgerError {}

/// Tracks which job holds how many cores, with utilization accounting.
///
/// The ledger integrates `used_cores` over time, which yields the platform
/// utilization figure reported alongside the archive traces (Table 5).
#[derive(Debug, Clone)]
pub struct AllocationLedger {
    platform: Platform,
    /// Cores currently online (`total_cores` unless a fault schedule is
    /// active). Capacity can drop below `used`; the scheduler resolves
    /// the oversubscription by preempting victims.
    capacity: u32,
    used: u32,
    holdings: HashMap<JobId, u32>,
    /// Integral of used cores over time (core-seconds).
    busy_core_seconds: f64,
    last_update: Time,
}

impl AllocationLedger {
    /// Create an empty ledger for `platform`.
    pub fn new(platform: Platform) -> Self {
        Self {
            platform,
            capacity: platform.total_cores,
            used: 0,
            holdings: HashMap::new(),
            busy_core_seconds: 0.0,
            last_update: 0.0,
        }
    }

    /// The platform this ledger manages.
    pub fn platform(&self) -> Platform {
        self.platform
    }

    /// Cores currently free (zero while oversubscribed after a capacity
    /// drop).
    pub fn available(&self) -> u32 {
        self.capacity.saturating_sub(self.used)
    }

    /// Cores currently online.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Change the online-core count at time `now` (a fault-schedule
    /// capacity step; clamped to the platform size). Returns the
    /// **overshoot** — how many in-use cores now exceed capacity and must
    /// be reclaimed by preempting jobs (0 when the drop is covered by
    /// idle cores, or on a restore).
    pub fn set_capacity(&mut self, capacity: u32, now: Time) -> u32 {
        self.advance_time(now);
        self.capacity = capacity.min(self.platform.total_cores);
        self.used.saturating_sub(self.capacity)
    }

    /// Cores currently allocated.
    pub fn used(&self) -> u32 {
        self.used
    }

    /// Whether `cores` could be allocated right now.
    pub fn fits(&self, cores: u32) -> bool {
        cores <= self.available()
    }

    /// Advance the utilization integral to time `now`. Must be called with
    /// non-decreasing times; allocation/release call it implicitly.
    ///
    /// # Panics
    /// Panics if `now` precedes the previous update (causality violation).
    pub fn advance_time(&mut self, now: Time) {
        assert!(
            now >= self.last_update,
            "ledger time moved backwards: {} -> {now}",
            self.last_update
        );
        self.busy_core_seconds += self.used as f64 * (now - self.last_update);
        self.last_update = now;
    }

    /// Grant `cores` to `job` at time `now`.
    pub fn allocate(&mut self, job: JobId, cores: u32, now: Time) -> Result<(), LedgerError> {
        if self.holdings.contains_key(&job) {
            return Err(LedgerError::AlreadyAllocated(job));
        }
        if cores > self.available() {
            return Err(LedgerError::InsufficientCores {
                requested: cores,
                available: self.available(),
            });
        }
        self.advance_time(now);
        self.used += cores;
        self.holdings.insert(job, cores);
        debug_assert!(self.used <= self.platform.total_cores);
        Ok(())
    }

    /// Release the allocation held by `job` at time `now`.
    pub fn release(&mut self, job: JobId, now: Time) -> Result<u32, LedgerError> {
        let cores = self
            .holdings
            .remove(&job)
            .ok_or(LedgerError::NotAllocated(job))?;
        self.advance_time(now);
        self.used -= cores;
        Ok(cores)
    }

    /// Mean utilization in `[0, 1]` over `[0, now]`; `None` before time 0+.
    pub fn utilization(&self, now: Time) -> Option<f64> {
        if now <= 0.0 {
            return None;
        }
        let pending = self.used as f64 * (now - self.last_update).max(0.0);
        Some((self.busy_core_seconds + pending) / (self.platform.total_cores as f64 * now))
    }
}

/// Allocation accounting for the zero-allocation simulation hot path.
///
/// [`AllocationLedger`] validates per-job invariants through a
/// `HashMap<JobId, u32>`, which makes every allocate/release a hash insert
/// or remove — measurable overhead when a training run executes hundreds of
/// millions of them. `CoreLedger` is the index-dense alternative the
/// scheduler's reusable workspace holds: the *caller* keys jobs by their
/// dense trace index and remembers each job's width, so the ledger itself
/// only tracks the used-core count and the utilization integral. It is
/// cleared with [`CoreLedger::reset`] between simulations, never
/// reallocated (it owns no heap memory at all).
///
/// The arithmetic (`advance_time` then adjust `used`) is performed in the
/// same order as [`AllocationLedger`], so utilization figures are
/// bit-identical between the two.
#[derive(Debug, Clone, Default)]
pub struct CoreLedger {
    total: u32,
    /// Cores currently online (`total` unless a fault schedule is
    /// active). May transiently fall below `used` when a capacity drop
    /// lands on a busy machine; [`CoreLedger::set_capacity`] reports the
    /// overshoot so the engine can preempt victims.
    capacity: u32,
    used: u32,
    busy_core_seconds: f64,
    /// Integral of offline cores over time (core-seconds); 0 unless the
    /// capacity ever departed from `total`.
    offline_core_seconds: f64,
    last_update: Time,
}

impl CoreLedger {
    /// A ledger for `platform`, empty at time 0.
    pub fn new(platform: Platform) -> Self {
        let mut l = Self::default();
        l.reset(platform);
        l
    }

    /// Re-arm for a fresh simulation of `platform` starting at time 0.
    pub fn reset(&mut self, platform: Platform) {
        self.total = platform.total_cores;
        self.capacity = platform.total_cores;
        self.used = 0;
        self.busy_core_seconds = 0.0;
        self.offline_core_seconds = 0.0;
        self.last_update = 0.0;
    }

    /// Cores currently free (zero while oversubscribed after a capacity
    /// drop).
    #[inline]
    pub fn available(&self) -> u32 {
        self.capacity.saturating_sub(self.used)
    }

    /// Cores currently allocated.
    #[inline]
    pub fn used(&self) -> u32 {
        self.used
    }

    /// Cores currently online.
    #[inline]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Whether `cores` could be allocated right now.
    #[inline]
    pub fn fits(&self, cores: u32) -> bool {
        cores <= self.available()
    }

    /// Advance the utilization integrals to `now` (non-decreasing).
    ///
    /// The offline integral only accrues while capacity is reduced, so a
    /// fault-free run performs exactly the historical busy-integral
    /// arithmetic — the zero-fault bit-identity contract depends on it.
    #[inline]
    fn advance_time(&mut self, now: Time) {
        debug_assert!(
            now >= self.last_update,
            "ledger time moved backwards: {} -> {now}",
            self.last_update
        );
        self.busy_core_seconds += self.used as f64 * (now - self.last_update);
        if self.capacity != self.total {
            self.offline_core_seconds +=
                (self.total - self.capacity) as f64 * (now - self.last_update);
        }
        self.last_update = now;
    }

    /// Change the online-core count at time `now` (clamped to the
    /// platform size). Returns the **overshoot**: in-use cores exceeding
    /// the new capacity, which the caller must reclaim by preempting
    /// victims (0 on restores or idle-covered drops).
    pub fn set_capacity(&mut self, capacity: u32, now: Time) -> u32 {
        self.advance_time(now);
        self.capacity = capacity.min(self.total);
        self.used.saturating_sub(self.capacity)
    }

    /// Grant `cores` at time `now`.
    ///
    /// # Errors
    /// [`LedgerError::InsufficientCores`] if fewer than `cores` cores are
    /// free — reachable under revocable capacity, so it is a real error,
    /// not a debug assertion. The ledger is unchanged on error.
    #[inline]
    pub fn allocate(&mut self, cores: u32, now: Time) -> Result<(), LedgerError> {
        if cores > self.available() {
            return Err(LedgerError::InsufficientCores {
                requested: cores,
                available: self.available(),
            });
        }
        self.advance_time(now);
        self.used += cores;
        Ok(())
    }

    /// Return `cores` at time `now`.
    ///
    /// # Errors
    /// [`LedgerError::OverRelease`] if more cores are returned than are
    /// in use. The ledger is unchanged on error.
    #[inline]
    pub fn release(&mut self, cores: u32, now: Time) -> Result<(), LedgerError> {
        if cores > self.used {
            return Err(LedgerError::OverRelease {
                released: cores,
                in_use: self.used,
            });
        }
        self.advance_time(now);
        self.used -= cores;
        Ok(())
    }

    /// Mean utilization in `[0, 1]` over `[0, now]` against the *nominal*
    /// platform size (offline cores still count in the denominator);
    /// `None` before time 0+.
    pub fn utilization(&self, now: Time) -> Option<f64> {
        if now <= 0.0 {
            return None;
        }
        let pending = self.used as f64 * (now - self.last_update).max(0.0);
        Some((self.busy_core_seconds + pending) / (self.total as f64 * now))
    }

    /// Busy core-seconds integrated over `[0, now]` (extrapolating the
    /// current used count past the last event).
    pub fn busy_core_seconds(&self, now: Time) -> f64 {
        self.busy_core_seconds + self.used as f64 * (now - self.last_update).max(0.0)
    }

    /// Offline core-seconds integrated over `[0, now]`.
    pub fn offline_core_seconds(&self, now: Time) -> f64 {
        self.offline_core_seconds
            + (self.total - self.capacity) as f64 * (now - self.last_update).max(0.0)
    }

    /// Time of the last ledger event.
    pub fn last_update(&self) -> Time {
        self.last_update
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_release_roundtrip() {
        let mut l = AllocationLedger::new(Platform::new(16));
        assert!(l.fits(16));
        l.allocate(1, 10, 0.0).unwrap();
        assert_eq!(l.available(), 6);
        assert_eq!(l.release(1, 5.0).unwrap(), 10);
        assert_eq!(l.available(), 16);
    }

    #[test]
    fn oversubscription_rejected() {
        let mut l = AllocationLedger::new(Platform::new(8));
        l.allocate(1, 5, 0.0).unwrap();
        let err = l.allocate(2, 4, 0.0).unwrap_err();
        assert_eq!(
            err,
            LedgerError::InsufficientCores {
                requested: 4,
                available: 3
            }
        );
        // Ledger unchanged by the failed allocation.
        assert_eq!(l.available(), 3);
    }

    #[test]
    fn double_allocation_rejected() {
        let mut l = AllocationLedger::new(Platform::new(8));
        l.allocate(1, 2, 0.0).unwrap();
        assert_eq!(
            l.allocate(1, 2, 1.0).unwrap_err(),
            LedgerError::AlreadyAllocated(1)
        );
    }

    #[test]
    fn release_unknown_rejected() {
        let mut l = AllocationLedger::new(Platform::new(8));
        assert_eq!(l.release(9, 0.0).unwrap_err(), LedgerError::NotAllocated(9));
    }

    #[test]
    fn exact_fill_is_allowed() {
        let mut l = AllocationLedger::new(Platform::new(4));
        l.allocate(1, 4, 0.0).unwrap();
        assert_eq!(l.available(), 0);
        assert!(!l.fits(1));
        assert!(l.fits(0));
    }

    #[test]
    fn utilization_integral() {
        let mut l = AllocationLedger::new(Platform::new(10));
        l.allocate(1, 10, 0.0).unwrap(); // full from t=0
        l.release(1, 50.0).unwrap(); // idle from t=50
                                     // At t=100: busy 10*50 core-s over 10*100 capacity = 0.5.
        assert!((l.utilization(100.0).unwrap() - 0.5).abs() < 1e-12);
        // At t=50: utilization exactly 1.
        assert!((l.utilization(50.0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_counts_pending_interval() {
        let mut l = AllocationLedger::new(Platform::new(2));
        l.allocate(1, 1, 0.0).unwrap();
        // No further events; utilization at t=10 should still be 0.5.
        assert!((l.utilization(10.0).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn time_cannot_go_backwards() {
        let mut l = AllocationLedger::new(Platform::new(2));
        l.advance_time(10.0);
        l.advance_time(5.0);
    }

    #[test]
    #[should_panic]
    fn zero_core_platform_rejected() {
        Platform::new(0);
    }

    #[test]
    fn core_ledger_matches_allocation_ledger_utilization() {
        // Same allocate/release script through both ledgers: bit-identical
        // utilization, since the integral is updated in the same order.
        let p = Platform::new(10);
        let mut a = AllocationLedger::new(p);
        let mut b = CoreLedger::new(p);
        a.allocate(1, 10, 0.0).unwrap();
        b.allocate(10, 0.0).unwrap();
        a.release(1, 50.0).unwrap();
        b.release(10, 50.0).unwrap();
        a.allocate(2, 3, 60.0).unwrap();
        b.allocate(3, 60.0).unwrap();
        assert_eq!(a.utilization(100.0), b.utilization(100.0));
        assert_eq!(a.available(), b.available());
        assert_eq!(a.used(), b.used());
    }

    #[test]
    fn core_ledger_reset_restarts_accounting() {
        let p = Platform::new(4);
        let mut l = CoreLedger::new(p);
        l.allocate(4, 0.0).unwrap();
        l.release(4, 10.0).unwrap();
        assert!((l.utilization(10.0).unwrap() - 1.0).abs() < 1e-12);
        l.reset(p);
        assert_eq!(l.used(), 0);
        assert_eq!(l.utilization(10.0), Some(0.0));
        assert!(l.fits(4));
    }

    #[test]
    fn core_ledger_rejects_oversubscription_and_over_release() {
        let mut l = CoreLedger::new(Platform::new(8));
        l.allocate(5, 0.0).unwrap();
        assert_eq!(
            l.allocate(4, 1.0).unwrap_err(),
            LedgerError::InsufficientCores {
                requested: 4,
                available: 3
            }
        );
        assert_eq!(
            l.release(6, 1.0).unwrap_err(),
            LedgerError::OverRelease {
                released: 6,
                in_use: 5
            }
        );
        // The ledger is unchanged by failed operations.
        assert_eq!(l.used(), 5);
        assert_eq!(l.available(), 3);
    }

    #[test]
    fn capacity_drop_reports_overshoot_and_blocks_allocation() {
        let mut l = CoreLedger::new(Platform::new(16));
        l.allocate(10, 0.0).unwrap();
        // Drop to 12: covered by idle cores, no overshoot, 2 still free.
        assert_eq!(l.set_capacity(12, 10.0), 0);
        assert_eq!(l.available(), 2);
        // Drop to 6: 4 in-use cores exceed capacity.
        assert_eq!(l.set_capacity(6, 20.0), 4);
        assert_eq!(l.available(), 0);
        assert!(!l.fits(1));
        assert!(l.allocate(1, 20.0).is_err());
        // Preempting a 10-core job resolves it; restore reopens the rest.
        l.release(10, 20.0).unwrap();
        assert_eq!(l.available(), 6);
        assert_eq!(l.set_capacity(16, 30.0), 0);
        assert_eq!(l.available(), 16);
        // Requests above the platform clamp back to the platform.
        assert_eq!(l.set_capacity(99, 40.0), 0);
        assert_eq!(l.capacity(), 16);
    }

    #[test]
    fn offline_integral_tracks_reduced_capacity() {
        let mut l = CoreLedger::new(Platform::new(10));
        assert_eq!(l.set_capacity(4, 100.0), 0); // 6 offline from t=100
        assert_eq!(l.set_capacity(10, 150.0), 0); // restored at t=150
        assert_eq!(l.offline_core_seconds(200.0), 6.0 * 50.0);
        assert_eq!(l.busy_core_seconds(200.0), 0.0);
        assert_eq!(l.last_update(), 150.0);
        // Pending extrapolation: capacity still reduced at query time.
        let mut m = CoreLedger::new(Platform::new(10));
        m.set_capacity(7, 0.0);
        assert_eq!(m.offline_core_seconds(50.0), 3.0 * 50.0);
    }

    #[test]
    fn allocation_ledger_capacity_matches_core_ledger() {
        let p = Platform::new(12);
        let mut a = AllocationLedger::new(p);
        let mut b = CoreLedger::new(p);
        a.allocate(1, 8, 0.0).unwrap();
        b.allocate(8, 0.0).unwrap();
        assert_eq!(a.set_capacity(5, 10.0), b.set_capacity(5, 10.0));
        assert_eq!(a.available(), b.available());
        assert_eq!(a.capacity(), b.capacity());
        a.release(1, 20.0).unwrap();
        b.release(8, 20.0).unwrap();
        assert_eq!(a.set_capacity(12, 30.0), b.set_capacity(12, 30.0));
        assert_eq!(a.utilization(40.0), b.utilization(40.0));
    }
}
