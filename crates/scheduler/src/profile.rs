//! Future-availability profile for conservative backfilling.
//!
//! A [`Profile`] is a step function `time → available cores`, built from the
//! expected completion times of running jobs and updated as reservations
//! are placed. Conservative backfilling walks the queue in priority order,
//! gives every job the earliest start at which it fits for its whole
//! (estimated) duration, and actually launches the ones whose reserved
//! start is *now*.
//!
//! # Cost of the queries
//!
//! They run once per waiting job per pass, so they are linear in the
//! breakpoints they must look at and no more:
//!
//! * The search behind [`Profile::earliest_fit`] **skips ahead past a
//!   failed window.** When the window opened at breakpoint `k` fails at
//!   breakpoint `j` (level below `cores`, strictly inside the window),
//!   every candidate in `(k, j]` fails too: `j` itself is too low, and a
//!   candidate between them starts later than `k`, so its window — float
//!   addition is monotone, `start' > start` gives
//!   `start' + d >= start + d` — still ends after `j` and contains it.
//!   The scan resumes at `j + 1`, and no breakpoint is read twice.
//! * [`Profile::reserve`] **subtracts over the range its two insertions
//!   return.** The breakpoints in `[start, end)` are exactly the ones from
//!   the index `start` landed on up to the index `end` landed on; nothing
//!   outside it is visited.
//! * [`Profile::reserve_earliest`] **finds and reserves in one sweep**,
//!   and is what a conservative pass calls, once per waiter. The start
//!   the search returns is always an existing breakpoint `k`, and a
//!   window that holds was walked to its end: the search stopped on the
//!   first breakpoint `j` at or past `start + duration`. So `reserve`'s
//!   two binary searches would land on `k` and `j` again and its `start`
//!   insertion would insert nothing; the fused query inserts the end at
//!   `j` (unless `j` is that time already) and lowers `[k, j)`. One search
//!   body serves it and `earliest_fit`. (On `paperbench`'s
//!   `replay_backfill`, CTC SP2 under FCFS: 20 144 passes, 35.4 waiters
//!   queued and 32.4 reserved a pass —
//!   [`ConservativeStats`](crate::ConservativeStats) counts them.)
//!
//! The bodies the first two replaced — restart at `k + 1`, walk every
//! breakpoint — are kept verbatim as the crate-private `earliest_fit_scan`
//! / `reserve_scan`. They are the oracle's: `scheduler::reference` calls
//! only them, so `== simulate_reference` still compares the engine against
//! an unoptimised profile, and the property loops in this module's tests
//! pin each fast query against its twin, and the fused one against the two
//! twins in sequence, on random profiles.
//!
//! # The early stop
//!
//! The engine does not reserve the whole queue: its walk ends at the last
//! waiter, in priority order, whose width is at most the cores free when
//! the pass is entered. The oracle walks to the end. The two start the
//! same jobs, in the same order, and leave the same state behind, because
//!
//! 1. the profile's level at `now` starts at that availability and a
//!    reservation only lowers levels, so a wider waiter cannot be reserved
//!    for `now` — it does not start in this pass, wherever the walk ends;
//! 2. a reservation is observable only through a later-ranked waiter that
//!    starts, and behind the stop there is none;
//! 3. the profile and a time-dependent order are per-pass scratch: nothing
//!    a pass reserved outlives it.
//!
//! The `starved` break inside the walk is the same argument made again
//! after the pass's own starts have used cores up.
//!
//! # A reservation the clock absorbs
//!
//! `start + duration == start` is possible — a zero decision time is
//! floored at `1e-9`, and from `now ≈ 2·10⁷` s that is below half an ulp
//! of the clock; whole seconds go the same way at `10¹⁶`. Such a
//! reservation has no extent and takes nothing from the profile, but the
//! job it stands for starts and takes cores from the ledger, so the
//! profile's level at `now` can overstate what is free. Every caller
//! therefore starts a waiter reserved for `now` only if the ledger also
//! has its cores (engine and oracle alike); the waiter that is turned away
//! starts at the next event — the zero-length job's completion, at the
//! same timestamp. Wherever nothing was absorbed the level at `now` *is*
//! the ledger's availability and the test is implied.

/// The clamp applied to release times at or before `now`: a job that
/// overran its estimate is "finishing any moment", but its cores are
/// **not** available at `now` itself — treating them as such would let the
/// scheduler start a job it cannot actually allocate. Callers of
/// [`Profile::rebuild_from_sorted`] must apply this to every release time
/// themselves (the workspace does it while copying its maintained release
/// list into scratch).
#[inline]
pub fn clamp_release(now: f64, t: f64) -> f64 {
    if t <= now {
        now + 1e-9 * now.abs().max(1.0)
    } else {
        t
    }
}

/// Step function of available cores over `[now, ∞)`.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Breakpoints `(time, available from this time until the next
    /// breakpoint)`, strictly increasing in time. The last entry extends to
    /// infinity.
    points: Vec<(f64, u32)>,
}

impl Profile {
    /// Build from the current state: `available` cores free at `now`, and
    /// `releases` = (expected completion time, cores) of running jobs.
    /// Release times at or before `now` are clamped to *just after* `now`:
    /// a job that overran its estimate is "finishing any moment", but its
    /// cores are **not** available at `now` itself — treating them as such
    /// would let the scheduler start a job it cannot actually allocate.
    pub fn new(now: f64, available: u32, releases: &[(f64, u32)]) -> Self {
        let mut sorted: Vec<(f64, u32)> = releases
            .iter()
            .map(|&(t, c)| (clamp_release(now, t), c))
            .collect();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut profile = Self {
            points: Vec::with_capacity(sorted.len() + 1),
        };
        profile.rebuild_from_sorted(now, available, &sorted);
        profile
    }

    /// Rebuild in place from pre-processed releases, reusing the breakpoint
    /// buffer. `releases` must be sorted by time and already clamped so
    /// that no time is at or before `now` (see [`clamp_release`]) — the
    /// workspace maintains its release list sorted, so the hot path pays
    /// neither an allocation nor a sort here.
    pub fn rebuild_from_sorted(&mut self, now: f64, available: u32, releases: &[(f64, u32)]) {
        debug_assert!(
            releases.windows(2).all(|w| w[0].0 <= w[1].0),
            "releases must be sorted by time"
        );
        debug_assert!(
            releases.iter().all(|&(t, _)| t > now),
            "releases must be clamped past now"
        );
        self.points.clear();
        self.points.push((now, available));
        let mut avail = available;
        for &(t, c) in releases {
            avail += c;
            let last = self.points.last_mut().expect("non-empty");
            if last.0 == t {
                last.1 = avail;
            } else {
                self.points.push((t, avail));
            }
        }
    }

    /// Number of breakpoints (diagnostics).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the profile has no breakpoints (never true after `new`).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Available cores at time `t` (which must be ≥ the profile start).
    pub fn available_at(&self, t: f64) -> u32 {
        let mut avail = self.points[0].1;
        for &(pt, pa) in &self.points {
            if pt <= t {
                avail = pa;
            } else {
                break;
            }
        }
        avail
    }

    /// Earliest time ≥ profile start at which `cores` are continuously
    /// available for `duration` seconds. Returns `None` only if `cores`
    /// exceeds the eventual full capacity (the last breakpoint's level).
    /// Linear in the breakpoints: a failed window resumes the search after
    /// the breakpoint that failed it (module docs).
    pub fn earliest_fit(&self, cores: u32, duration: f64) -> Option<f64> {
        let (k, _) = self.search(cores, duration)?;
        Some(self.points[k].0)
    }

    /// [`Self::earliest_fit`] and the reservation of what it found, in the
    /// one sweep: `cores` are taken from the returned start for `duration`
    /// seconds. The search has already stopped on the first breakpoint at
    /// or past the window's end, so the end is inserted there and the
    /// levels in between are lowered — no second search, and no insertion
    /// for the start, which is always an existing breakpoint (module
    /// docs). The breakpoints it leaves are those of
    /// `reserve(start, start + duration, cores)`, bit for bit; like that
    /// call, it reserves nothing when the end is absorbed by the start
    /// (`start + duration == start`).
    ///
    /// # Panics
    /// Panics if `duration` is negative or NaN.
    pub fn reserve_earliest(&mut self, cores: u32, duration: f64) -> Option<f64> {
        let (k, j) = self.search(cores, duration)?;
        let start = self.points[k].0;
        let end = start + duration;
        assert!(end >= start, "reservation ends before it starts");
        if cores == 0 || end == start {
            return Some(start);
        }
        if self.points.get(j).is_none_or(|p| p.0 != end) {
            let level = self.points[j - 1].1;
            self.points.insert(j, (end, level));
        }
        for p in &mut self.points[k..j] {
            p.1 -= cores; // the search saw every one of them at `cores` or above
        }
        Some(start)
    }

    /// The one search behind both queries: `(k, j)`, where breakpoint `k`
    /// is the earliest start at which `cores` stay available for
    /// `duration` seconds and `j` indexes the first breakpoint at or past
    /// that window's end (`len()` when the window outlasts them all).
    /// `None` if `cores` exceeds the last breakpoint's level.
    fn search(&self, cores: u32, duration: f64) -> Option<(usize, usize)> {
        if cores > self.points.last().expect("non-empty").1 {
            return None;
        }
        // `k` is the first candidate not ruled out yet.
        let mut k = 0;
        while let Some(skip) = self.points[k..].iter().position(|p| p.1 >= cores) {
            k += skip;
            let end = self.points[k].0 + duration;
            // The first breakpoint that ends the window or fails it.
            let window = &self.points[k + 1..];
            let stop = window.iter().position(|p| p.0 >= end || p.1 < cores);
            match stop {
                Some(j) if window[j].0 < end => k += j + 2, // failed: resume after it
                Some(j) => return Some((k, k + 1 + j)),
                None => return Some((k, self.points.len())),
            }
        }
        // Invariant: the last breakpoint's level is >= `cores` (checked on
        // entry) and nothing follows it, so its window cannot fail.
        unreachable!("last breakpoint must fit");
    }

    /// [`Self::earliest_fit`] as first written: every breakpoint is a
    /// candidate in turn and a failed window restarts at the next one —
    /// quadratic when windows fail. Kept for `scheduler::reference` only.
    pub(crate) fn earliest_fit_scan(&self, cores: u32, duration: f64) -> Option<f64> {
        if cores > self.points.last().expect("non-empty").1 {
            return None;
        }
        'candidate: for k in 0..self.points.len() {
            let start = self.points[k].0;
            if self.points[k].1 < cores {
                continue;
            }
            let end = start + duration;
            for &(pt, pa) in &self.points[k + 1..] {
                if pt >= end {
                    break;
                }
                if pa < cores {
                    continue 'candidate;
                }
            }
            return Some(start);
        }
        // Availability is non-decreasing after the last running job ends,
        // so the last breakpoint always fits if capacity allows.
        unreachable!("last breakpoint must fit");
    }

    /// Subtract `cores` from availability over `[start, end)`, inserting
    /// breakpoints as needed. Used to place a reservation. Touches only the
    /// breakpoints inside the range.
    ///
    /// # Panics
    /// Panics (debug) if the reservation over-subscribes any segment —
    /// callers must only reserve windows returned by [`Self::earliest_fit`].
    pub fn reserve(&mut self, start: f64, end: f64, cores: u32) {
        // Invariant: callers pass `end = start + duration`, `duration > 0`.
        assert!(end >= start, "reservation ends before it starts");
        if cores == 0 || end == start {
            return;
        }
        let lo = self.insert_breakpoint(start);
        let hi = self.insert_breakpoint(end);
        for p in &mut self.points[lo..hi] {
            debug_assert!(p.1 >= cores, "over-subscribed reservation at t={}", p.0);
            p.1 = p.1.saturating_sub(cores);
        }
    }

    /// [`Self::reserve`] as first written: after the two insertions, every
    /// breakpoint is tested against `[start, end)`. Kept for
    /// `scheduler::reference` only.
    pub(crate) fn reserve_scan(&mut self, start: f64, end: f64, cores: u32) {
        assert!(end >= start, "reservation ends before it starts");
        if cores == 0 || end == start {
            return;
        }
        self.insert_breakpoint(start);
        self.insert_breakpoint(end);
        for p in &mut self.points {
            if p.0 >= start && p.0 < end {
                debug_assert!(p.1 >= cores, "over-subscribed reservation at t={}", p.0);
                p.1 = p.1.saturating_sub(cores);
            }
        }
    }

    /// Make `t` a breakpoint and return its index: the index of the first
    /// breakpoint at or after `t`. A `t` at or before the profile start
    /// is covered by the start point (index 0) and inserts nothing.
    fn insert_breakpoint(&mut self, t: f64) -> usize {
        if t <= self.points[0].0 {
            return 0;
        }
        match self.points.binary_search_by(|p| p.0.total_cmp(&t)) {
            Ok(idx) => idx,
            Err(idx) => {
                let level = self.points[idx - 1].1;
                self.points.insert(idx, (t, level));
                idx
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsched_simkit::Rng;

    #[test]
    fn builds_cumulative_availability() {
        // now=0, 2 free; releases of 3 cores at t=10 and 5 cores at t=20.
        let p = Profile::new(0.0, 2, &[(10.0, 3), (20.0, 5)]);
        assert_eq!(p.available_at(0.0), 2);
        assert_eq!(p.available_at(9.9), 2);
        assert_eq!(p.available_at(10.0), 5);
        assert_eq!(p.available_at(25.0), 10);
    }

    #[test]
    fn merges_equal_release_times() {
        let p = Profile::new(0.0, 0, &[(10.0, 2), (10.0, 3)]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.available_at(10.0), 5);
    }

    #[test]
    fn overdue_releases_are_imminent_but_not_available_now() {
        let p = Profile::new(100.0, 1, &[(50.0, 4)]);
        // The overdue job's cores are NOT usable at `now` itself…
        assert_eq!(p.available_at(100.0), 1);
        // …but become available immediately afterwards.
        assert_eq!(p.available_at(100.1), 5);
        // A job needing them therefore cannot be started at `now`.
        assert!(p.earliest_fit(5, 1.0).unwrap() > 100.0);
    }

    #[test]
    fn earliest_fit_immediate() {
        let p = Profile::new(0.0, 4, &[(10.0, 4)]);
        assert_eq!(p.earliest_fit(4, 100.0), Some(0.0));
    }

    #[test]
    fn earliest_fit_waits_for_release() {
        let p = Profile::new(0.0, 2, &[(10.0, 3), (20.0, 5)]);
        assert_eq!(p.earliest_fit(5, 5.0), Some(10.0));
        assert_eq!(p.earliest_fit(6, 5.0), Some(20.0));
    }

    #[test]
    fn earliest_fit_respects_duration_dips() {
        // 5 free now, but a reservation dips availability at t=5.
        let mut p = Profile::new(0.0, 5, &[(10.0, 5)]);
        p.reserve(5.0, 10.0, 3);
        // A 4-core job for 10 s cannot start at 0 (dips to 2 at t=5),
        // must wait until t=10.
        assert_eq!(p.earliest_fit(4, 10.0), Some(10.0));
        // A 4-core job for 5 s fits at 0 exactly (ends as the dip starts).
        assert_eq!(p.earliest_fit(4, 5.0), Some(0.0));
    }

    #[test]
    fn earliest_fit_none_if_wider_than_machine() {
        let p = Profile::new(0.0, 2, &[(10.0, 3)]);
        assert_eq!(p.earliest_fit(6, 1.0), None);
    }

    #[test]
    fn reserve_inserts_breakpoints() {
        let mut p = Profile::new(0.0, 10, &[]);
        p.reserve(5.0, 15.0, 4);
        assert_eq!(p.available_at(0.0), 10);
        assert_eq!(p.available_at(5.0), 6);
        assert_eq!(p.available_at(14.9), 6);
        assert_eq!(p.available_at(15.0), 10);
    }

    #[test]
    fn stacked_reservations() {
        let mut p = Profile::new(0.0, 10, &[]);
        p.reserve(0.0, 10.0, 4);
        p.reserve(5.0, 15.0, 3);
        assert_eq!(p.available_at(0.0), 6);
        assert_eq!(p.available_at(5.0), 3);
        assert_eq!(p.available_at(10.0), 7);
        assert_eq!(p.available_at(15.0), 10);
    }

    #[test]
    fn reserve_edits_only_the_breakpoints_in_its_range() {
        let mut p = Profile::new(0.0, 10, &[]);
        p.reserve(5.0, 15.0, 4);
        p.reserve(10.0, 20.0, 3);
        // Before the profile start: covered by the start point.
        p.reserve(-5.0, 5.0, 1);
        assert_eq!(
            p.points,
            &[(0.0, 9), (5.0, 6), (10.0, 3), (15.0, 7), (20.0, 10)]
        );
    }

    #[test]
    fn earliest_fit_skips_past_the_breakpoint_that_failed_the_window() {
        // Levels 6, 5, 4, 2, 6 from t = 0, 10, 20, 30, 40.
        let mut p = Profile::new(0.0, 6, &[]);
        p.reserve(10.0, 20.0, 1);
        p.reserve(20.0, 30.0, 2);
        p.reserve(30.0, 40.0, 4);
        assert_eq!(p.len(), 5);
        for (cores, duration, start) in [
            (4, 30.0, 0.0),  // ends exactly as the dip to 2 starts
            (4, 35.0, 40.0), // fails at t=30 from every earlier candidate
            (5, 25.0, 40.0), // fails at t=20, and t=30 is too low to open
            (2, 99.0, 0.0),
        ] {
            assert_eq!(p.earliest_fit(cores, duration), Some(start));
            assert_eq!(p.earliest_fit_scan(cores, duration), Some(start));
        }
    }

    #[test]
    fn zero_core_reservation_is_noop() {
        let mut p = Profile::new(0.0, 10, &[]);
        p.reserve(1.0, 2.0, 0);
        assert_eq!(p.len(), 1);
    }

    // Property loops (deterministic RNG, like every property suite in the
    // workspace): the two linear queries against the bodies they
    // replaced, and the one-sweep query against those bodies in sequence.
    // Times sit on an integer grid so that release times collide, windows
    // end exactly on breakpoints and reservations stack on shared edges;
    // on top of that come overdue releases (clamped to just past `now`),
    // `1e-9` durations, the engine's floor for a zero decision time, and
    // clocks late enough to absorb them.

    /// A random running set on a `capacity`-core machine at `now`: the free
    /// cores and the `(expected end, cores)` releases, some of them overdue
    /// and many of them simultaneous.
    fn random_state(rng: &mut Rng, capacity: u32, now: f64) -> (u32, Vec<(f64, u32)>) {
        let mut free = capacity;
        let mut releases = Vec::new();
        while free > 0 && rng.chance(0.85) {
            let cores = rng.range_u64(1, free as u64) as u32;
            free -= cores;
            let end = if rng.chance(0.15) {
                now - rng.range_u64(0, 5) as f64 // overdue, or due exactly now
            } else {
                now + rng.range_u64(1, 12) as f64
            };
            releases.push((end, cores));
        }
        (free, releases)
    }

    /// A clock on the integer grid up to `1e5`, or one far enough out that
    /// a duration is absorbed (`start + d == start`): `1e-9` from `2e7`,
    /// whole seconds at `1.9e16`.
    fn random_now(rng: &mut Rng) -> f64 {
        match rng.range_u64(0, 9) {
            0..=2 => 0.0,
            3 => 1e5,
            4 => 2e7,
            5 => 2e8,
            6 => 1.9e16,
            _ => rng.range_u64(0, 100_000) as f64,
        }
    }

    fn random_duration(rng: &mut Rng) -> f64 {
        match rng.range_u64(0, 9) {
            0 => 1e-9,
            1 => rng.range_f64(0.1, 20.0),
            _ => rng.range_u64(1, 15) as f64,
        }
    }

    /// Bit-exact image of a breakpoint list.
    fn bits(points: &[(f64, u32)]) -> Vec<(u64, u32)> {
        points.iter().map(|&(t, a)| (t.to_bits(), a)).collect()
    }

    #[test]
    fn linear_queries_equal_their_scans() {
        let mut rng = Rng::new(0x9120_F11E);
        let (mut delayed_fits, mut absorbed) = (0u32, 0u32);
        for case in 0..3_000u32 {
            let capacity = rng.range_u64(2, 48) as u32;
            let now = random_now(&mut rng);
            let (free, releases) = random_state(&mut rng, capacity, now);
            let mut fast = Profile::new(now, free, &releases);
            let mut scan = fast.clone();
            let mut fused = fast.clone();
            // Wider than the machine: no slot at any horizon, on every
            // path, and the one that reserves reserves nothing.
            assert_eq!(fast.earliest_fit(capacity + 1, 1.0), None);
            assert_eq!(scan.earliest_fit_scan(capacity + 1, 1.0), None);
            assert_eq!(fused.reserve_earliest(capacity + 1, 1.0), None);
            assert_eq!(bits(&fused.points), bits(&scan.points), "case {case}");
            for step in 0..rng.range_u64(1, 24) {
                let cores = rng.range_u64(1, capacity as u64) as u32;
                let duration = random_duration(&mut rng);
                let what = format!("case {case}, step {step}: {cores} cores for {duration} s");
                let start = scan
                    .earliest_fit_scan(cores, duration)
                    .expect("a job no wider than the machine always fits");
                let found = Some(start.to_bits());
                assert_eq!(
                    fast.earliest_fit(cores, duration).map(f64::to_bits),
                    found,
                    "{what}"
                );
                delayed_fits += u32::from(start > now);
                absorbed += u32::from(start + duration == start);
                fast.reserve(start, start + duration, cores);
                scan.reserve_scan(start, start + duration, cores);
                // The one sweep: same start, same breakpoints.
                let swept = fused.reserve_earliest(cores, duration);
                assert_eq!(swept.map(f64::to_bits), found, "{what}");
                assert_eq!(bits(&fused.points), bits(&scan.points), "{what}");
                let points = &fast.points;
                assert_eq!(bits(points), bits(&scan.points), "{what}");
                assert!(points.windows(2).all(|w| w[0].0 < w[1].0), "{what}");
                assert_eq!(points[0].0.to_bits(), now.to_bits(), "{what}");
                assert_eq!(points.last().unwrap().1, capacity, "{what}");
            }
        }
        // The generators must reach both: dips to skip past, and ends the
        // start absorbs (nothing reserved, on any path).
        assert!(delayed_fits > 10_000, "only {delayed_fits} delayed fits");
        assert!(absorbed > 1_000, "only {absorbed} absorbed durations");
    }

    #[test]
    fn reservations_outside_the_breakpoints_match_too() {
        // `reserve` is public and not tied to `earliest_fit`'s answers: starts
        // and ends between breakpoints, at and before the profile start, and
        // past the last breakpoint must land on the same indices.
        let mut rng = Rng::new(0xB0_0D1E5);
        for case in 0..2_000u32 {
            let now = rng.range_u64(0, 50) as f64;
            let releases: Vec<(f64, u32)> = (0..rng.range_u64(0, 6))
                .map(|_| (now + rng.range_u64(1, 10) as f64, 100))
                .collect();
            let mut fast = Profile::new(now, 100, &releases);
            let mut scan = fast.clone();
            for step in 0..8 {
                let start = now - 2.0 + rng.range_u64(0, 30) as f64 * 0.5;
                let end = start + rng.range_u64(0, 12) as f64 * 0.5;
                fast.reserve(start, end, 1);
                scan.reserve_scan(start, end, 1);
                assert_eq!(
                    bits(&fast.points),
                    bits(&scan.points),
                    "case {case}, step {step}: [{start}, {end})"
                );
            }
        }
    }
}
