//! The original allocation-per-call scheduler engine, kept as an
//! executable specification.
//!
//! [`simulate_reference`] is the engine as first written: it builds a fresh
//! event queue, a `HashMap`-keyed running table, and per-reschedule `Vec`s
//! on every call. The optimized engine in [`crate::engine`] must produce
//! **bit-identical** [`SimulationResult`]s — the determinism regression
//! tests diff the two across policies, fixed orders, and every backfill
//! mode.
//!
//! Not part of the supported API; only tests and benchmarks should call
//! this.

use crate::config::{BackfillMode, SchedulerConfig};
use crate::engine::QueueDiscipline;
use crate::profile::{clamp_release, Profile};
use crate::result::{SimMetrics, SimulationResult};
use dynsched_cluster::{AbandonedJob, AvailabilitySchedule, CompletedJob, Job, JobId};
use dynsched_policies::{sort_views, TaskView};
use dynsched_simkit::{Clock, EventQueue};
use dynsched_workload::Trace;
use std::collections::HashMap;

#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival(usize),
    Completion(JobId),
}

#[derive(Debug, Clone, Copy)]
struct Running {
    /// Position of the job in the trace: the last tie-break of
    /// [`expected_releases`].
    idx: usize,
    job: Job,
    start: f64,
}

/// Decision-mode expected `(end, cores)` of every running job, raw (not
/// clamped), in one total order: `clamp(end)`, then the raw end, then the
/// trace index. `running` is a `HashMap`, whose iteration order differs
/// from map to map; sorting by the clamped end alone left jobs with equal
/// ends — or several overdue jobs, all clamped to one instant — in that
/// order, and classic EASY's `spare` depends on which of them the shadow
/// walk meets first. Under EASY's monotone clamp (`max(now)`) this is the
/// `(raw end, trace index)` order of the optimized engine's maintained
/// release list; the availability profile merges equal times by summing
/// their cores, so there the tie-break only makes the walk repeatable.
fn expected_releases<K>(
    running: &HashMap<K, Running>,
    config: &SchedulerConfig,
    clamp: impl Fn(f64) -> f64,
) -> Vec<(f64, u32)> {
    let mut releases: Vec<(f64, usize, u32)> = running
        .values()
        .map(|r| {
            let end = r.start + config.decision_time(r.job.runtime, r.job.estimate);
            (end, r.idx, r.job.cores)
        })
        .collect();
    releases.sort_by(|a, b| {
        clamp(a.0)
            .total_cmp(&clamp(b.0))
            .then(a.0.total_cmp(&b.0))
            .then(a.1.cmp(&b.1))
    });
    releases.into_iter().map(|(end, _, c)| (end, c)).collect()
}

#[derive(Debug, Clone, Copy)]
struct QueueEntry {
    idx: usize,
    job: Job,
    cached_score: f64,
}

fn make_entry(
    idx: usize,
    job: Job,
    discipline: &QueueDiscipline<'_>,
    config: &SchedulerConfig,
) -> QueueEntry {
    let cached_score = match discipline {
        QueueDiscipline::Policy(policy) if !policy.time_dependent() => policy.score(&TaskView {
            processing_time: config.decision_time(job.runtime, job.estimate),
            cores: job.cores,
            submit: job.submit,
            now: job.submit,
        }),
        _ => 0.0,
    };
    QueueEntry {
        idx,
        job,
        cached_score,
    }
}

/// Simulate `trace` with the original engine. Same contract as
/// [`crate::engine::simulate`]; allocation-heavy by design.
pub fn simulate_reference(
    trace: &Trace,
    discipline: &QueueDiscipline<'_>,
    config: &SchedulerConfig,
) -> SimulationResult {
    // The oracle never runs the batch kernel: a compiled discipline is
    // scored one task at a time through `CompiledPolicy`'s scalar
    // `Policy` impl, so the reference stays a per-TaskView tree walk in
    // structure even when the scores come from bytecode.
    if let QueueDiscipline::Compiled(cp) = discipline {
        return simulate_reference(trace, &QueueDiscipline::Policy(*cp), config);
    }
    let jobs = trace.jobs();
    let total_cores = config.platform.total_cores;
    for j in jobs {
        assert!(
            j.cores <= total_cores,
            "job {} requests {} cores on a {}-core platform",
            j.id,
            j.cores,
            total_cores
        );
    }

    let mut events: EventQueue<Event> = EventQueue::with_capacity(jobs.len() * 2);
    for (idx, job) in jobs.iter().enumerate() {
        events.push(job.submit, Event::Arrival(idx));
    }

    let mut clock = Clock::new();
    let mut ledger = dynsched_cluster::AllocationLedger::new(config.platform);
    let mut queue: Vec<QueueEntry> = Vec::new(); // arrival order
    let mut running: HashMap<JobId, Running> = HashMap::new();
    let mut completed: Vec<CompletedJob> = Vec::with_capacity(jobs.len());
    let mut events_processed = 0u64;
    let mut backfilled = 0u64;

    while let Some((t, first)) = events.pop() {
        clock.advance_to(t);
        let mut batch = vec![first];
        while events.peek_time() == Some(t) {
            batch.push(events.pop().expect("peeked").1);
        }
        for ev in batch {
            events_processed += 1;
            match ev {
                Event::Arrival(idx) => queue.push(make_entry(idx, jobs[idx], discipline, config)),
                Event::Completion(id) => {
                    let run = running.remove(&id).expect("completion for unknown job");
                    ledger.release(id, t).expect("running job holds cores");
                    completed.push(CompletedJob {
                        job: run.job,
                        start: run.start,
                        finish: t,
                    });
                }
            }
        }
        reschedule(
            t,
            &mut queue,
            &mut ledger,
            &mut running,
            &mut events,
            discipline,
            config,
            &mut backfilled,
        );
    }

    debug_assert!(queue.is_empty(), "drained simulation left jobs waiting");
    debug_assert!(running.is_empty(), "drained simulation left jobs running");
    let makespan = completed.iter().map(|c| c.finish).fold(0.0, f64::max);
    let utilization = ledger.utilization(makespan).unwrap_or(0.0);
    SimulationResult {
        completed,
        makespan,
        utilization,
        events_processed,
        backfilled_jobs: backfilled,
        preempted_jobs: 0,
        lost_core_seconds: 0.0,
        abandoned: Vec::new(),
    }
}

/// Heap events of the faulty oracle. Completions carry the trace index and
/// the attempt the job was started under: killing a job bumps its attempt
/// counter, so the dead attempt's completion no longer matches and is
/// skipped — the same liveness convention the optimized engine uses.
#[derive(Debug, Clone, Copy)]
enum FaultyEvent {
    Arrival(usize),
    Completion(usize, u32),
}

/// Simulate `trace` under a fault schedule with the slow-path oracle:
/// allocation-heavy, one `HashMap`-keyed running table, fresh vectors per
/// reschedule — the executable specification
/// [`crate::SimWorkspace::run_faulty`] must match **bit-identically**.
///
/// Semantics (shared with the optimized engine):
/// * per timestamp, arrivals process first (trace order), then live
///   completions (start order), then capacity steps, then one reschedule —
///   a job finishing at `t` is never a preemption victim at `t`;
/// * when a capacity step drops below the in-use count, victims die
///   youngest-start-first, trace position descending as tie-break, until
///   the remainder fits; victims requeue immediately in kill order unless
///   they have exhausted `max_retries` requeues, in which case they are
///   reported abandoned;
/// * a waiting queue that can never be served again (the schedule ends
///   below the jobs' widths) is abandoned in trace order at the final
///   event time rather than dropped.
pub fn simulate_reference_faulty(
    trace: &Trace,
    discipline: &QueueDiscipline<'_>,
    config: &SchedulerConfig,
    schedule: &AvailabilitySchedule,
) -> SimulationResult {
    if let QueueDiscipline::Compiled(cp) = discipline {
        return simulate_reference_faulty(trace, &QueueDiscipline::Policy(*cp), config, schedule);
    }
    let jobs = trace.jobs();
    let total_cores = config.platform.total_cores;
    for j in jobs {
        assert!(
            j.cores <= total_cores,
            "job {} requests {} cores on a {}-core platform",
            j.id,
            j.cores,
            total_cores
        );
    }
    let steps = schedule.steps();
    let max_retries = schedule.max_retries();

    let mut events: EventQueue<FaultyEvent> = EventQueue::with_capacity(jobs.len() * 2);
    for (idx, job) in jobs.iter().enumerate() {
        events.push(job.submit, FaultyEvent::Arrival(idx));
    }

    let mut clock = Clock::new();
    let mut ledger = dynsched_cluster::AllocationLedger::new(config.platform);
    let mut queue: Vec<QueueEntry> = Vec::new(); // arrival/requeue order
    let mut running: HashMap<usize, Running> = HashMap::new();
    let mut completed: Vec<CompletedJob> = Vec::with_capacity(jobs.len());
    let mut abandoned: Vec<AbandonedJob> = Vec::new();
    let mut attempt_of = vec![0u32; jobs.len()];
    let mut events_processed = 0u64;
    let mut backfilled = 0u64;
    let mut preempted = 0u64;
    let mut lost = 0.0f64;
    let mut step_cursor = 0usize;

    loop {
        let step_t = (step_cursor < steps.len()).then(|| steps[step_cursor].time);
        let t = match (events.peek_time(), step_t) {
            (Some(e), Some(s)) => e.min(s),
            (Some(e), None) => e,
            (None, Some(s)) => s,
            (None, None) => break,
        };
        clock.advance_to(t);
        // All arrivals were pushed before any completion, so the heap's
        // FIFO tie-break yields arrivals (trace order) ahead of
        // completions (start order) within the batch.
        while events.peek_time() == Some(t) {
            match events.pop().expect("peeked").1 {
                FaultyEvent::Arrival(idx) => {
                    events_processed += 1;
                    queue.push(make_entry(idx, jobs[idx], discipline, config));
                }
                FaultyEvent::Completion(idx, attempt) => {
                    if attempt != attempt_of[idx] {
                        continue; // stale completion of a preempted attempt
                    }
                    events_processed += 1;
                    let run = running.remove(&idx).expect("completion for unknown job");
                    ledger
                        .release(run.job.id, t)
                        .expect("running job holds cores");
                    completed.push(CompletedJob {
                        job: run.job,
                        start: run.start,
                        finish: t,
                    });
                }
            }
        }
        while step_cursor < steps.len() && steps[step_cursor].time == t {
            events_processed += 1;
            let cap = steps[step_cursor].capacity;
            step_cursor += 1;
            let overshoot = ledger.set_capacity(cap, t);
            if overshoot == 0 {
                continue;
            }
            let mut victims: Vec<(f64, usize)> =
                running.iter().map(|(&idx, r)| (r.start, idx)).collect();
            victims.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)));
            let mut v = 0usize;
            while ledger.used() > ledger.capacity() {
                let (start, idx) = victims[v];
                v += 1;
                let run = running.remove(&idx).expect("victim must be running");
                ledger.release(run.job.id, t).expect("victim holds cores");
                preempted += 1;
                lost += (t - start) * run.job.cores as f64;
                attempt_of[idx] += 1;
                if attempt_of[idx] > max_retries {
                    abandoned.push(AbandonedJob {
                        job: run.job,
                        idx: idx as u32,
                        attempts: attempt_of[idx],
                        abandoned_at: t,
                    });
                } else {
                    queue.push(make_entry(idx, run.job, discipline, config));
                }
            }
        }
        reschedule_faulty(
            t,
            &mut queue,
            &mut ledger,
            &mut running,
            &mut events,
            discipline,
            config,
            &mut backfilled,
            &attempt_of,
        );
    }

    if !queue.is_empty() {
        // The schedule ended with too little capacity for these jobs and
        // nothing pending can ever free more: abandon them in trace order.
        queue.sort_by_key(|e| e.idx);
        for e in &queue {
            abandoned.push(AbandonedJob {
                job: e.job,
                idx: e.idx as u32,
                attempts: attempt_of[e.idx],
                abandoned_at: clock.now(),
            });
        }
        queue.clear();
    }
    debug_assert!(running.is_empty(), "drained simulation left jobs running");
    let makespan = completed.iter().map(|c| c.finish).fold(0.0, f64::max);
    let utilization = ledger.utilization(makespan).unwrap_or(0.0);
    SimulationResult {
        completed,
        makespan,
        utilization,
        events_processed,
        backfilled_jobs: backfilled,
        preempted_jobs: preempted,
        lost_core_seconds: lost,
        abandoned,
    }
}

/// Metrics-mode faulty oracle: run [`simulate_reference_faulty`] and
/// reduce with [`SimMetrics::from_result`] — the fold the optimized
/// metrics path must match bit for bit, resilience counters included.
pub fn reference_metrics_faulty(
    trace: &Trace,
    discipline: &QueueDiscipline<'_>,
    config: &SchedulerConfig,
    schedule: &AvailabilitySchedule,
    tau: f64,
) -> SimMetrics {
    SimMetrics::from_result(
        &simulate_reference_faulty(trace, discipline, config, schedule),
        tau,
    )
}

/// The metrics-mode oracle: run the reference engine, then reduce its
/// materialized result with the exact fold the optimized engine's
/// streaming path applies per completion event. The optimized
/// [`crate::SimWorkspace::run_metrics`] must match this bit for bit —
/// same AVEbsld sum under `tau`, same backfill count, same makespan.
pub fn reference_metrics(
    trace: &Trace,
    discipline: &QueueDiscipline<'_>,
    config: &SchedulerConfig,
    tau: f64,
) -> SimMetrics {
    SimMetrics::from_result(&simulate_reference(trace, discipline, config), tau)
}

/// Priority order (indices into `queue`) under the active discipline.
fn order_queue(
    queue: &[QueueEntry],
    now: f64,
    discipline: &QueueDiscipline<'_>,
    config: &SchedulerConfig,
) -> Vec<usize> {
    match discipline {
        QueueDiscipline::Policy(policy) if policy.time_dependent() => {
            let views: Vec<TaskView> = queue
                .iter()
                .map(|e| TaskView {
                    processing_time: config.decision_time(e.job.runtime, e.job.estimate),
                    cores: e.job.cores,
                    submit: e.job.submit,
                    now,
                })
                .collect();
            sort_views(*policy, &views)
        }
        QueueDiscipline::Policy(_) => {
            // Time-independent policy: scores were cached at arrival.
            let mut idx: Vec<usize> = (0..queue.len()).collect();
            idx.sort_by(|&a, &b| {
                queue[a]
                    .cached_score
                    .total_cmp(&queue[b].cached_score)
                    .then(a.cmp(&b))
            });
            idx
        }
        QueueDiscipline::FixedOrder(ranks) => {
            let mut idx: Vec<usize> = (0..queue.len()).collect();
            idx.sort_by_key(|&i| ranks[queue[i].idx]);
            idx
        }
        QueueDiscipline::Compiled(_) => {
            unreachable!("compiled disciplines are rewritten to Policy at entry")
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn reschedule(
    now: f64,
    queue: &mut Vec<QueueEntry>,
    ledger: &mut dynsched_cluster::AllocationLedger,
    running: &mut HashMap<JobId, Running>,
    events: &mut EventQueue<Event>,
    discipline: &QueueDiscipline<'_>,
    config: &SchedulerConfig,
    backfilled: &mut u64,
) {
    if queue.is_empty() {
        return;
    }
    let order = order_queue(queue, now, discipline, config);

    let start_job = |idx: usize,
                     job: Job,
                     ledger: &mut dynsched_cluster::AllocationLedger,
                     running: &mut HashMap<JobId, Running>,
                     events: &mut EventQueue<Event>| {
        ledger
            .allocate(job.id, job.cores, now)
            .expect("start checked to fit");
        running.insert(
            job.id,
            Running {
                idx,
                job,
                start: now,
            },
        );
        events.push(
            now + config.execution_time(job.runtime, job.estimate),
            Event::Completion(job.id),
        );
    };

    let mut started = vec![false; queue.len()];

    if config.backfill == BackfillMode::Conservative {
        // Every job gets the earliest reservation that delays nobody ahead
        // of it; jobs reserved for *now* start.
        let releases = expected_releases(running, config, |t| clamp_release(now, t));
        let mut profile = Profile::new(now, ledger.available(), &releases);
        for (rank, &qi) in order.iter().enumerate() {
            let QueueEntry { idx, job, .. } = queue[qi];
            let duration = config.decision_time(job.runtime, job.estimate).max(1e-9);
            let start = profile
                .earliest_fit_scan(job.cores, duration)
                .expect("job width pre-checked against platform");
            profile.reserve_scan(start, start + duration, job.cores);
            if start == now && ledger.fits(job.cores) {
                start_job(idx, job, ledger, running, events);
                started[qi] = true;
                if rank > 0 {
                    *backfilled += 1;
                }
            }
        }
    } else {
        // Strict pass: start in priority order, stop at the first task that
        // does not fit (§4.2: "the scheduler waits").
        let mut blocked_at: Option<usize> = None;
        for (pos, &qi) in order.iter().enumerate() {
            let QueueEntry { idx, job, .. } = queue[qi];
            if ledger.fits(job.cores) {
                start_job(idx, job, ledger, running, events);
                started[qi] = true;
            } else {
                blocked_at = Some(pos);
                break;
            }
        }

        if config.backfill == BackfillMode::Aggressive {
            if let Some(head_pos) = blocked_at {
                let head = queue[order[head_pos]].job;
                // Shadow time: when enough cores free up for the head.
                let releases = expected_releases(running, config, |t| t.max(now));
                let mut avail = ledger.available();
                let mut shadow = now;
                let mut spare = 0u32;
                for (end, cores) in releases {
                    avail += cores;
                    if avail >= head.cores {
                        shadow = end.max(now);
                        spare = avail - head.cores;
                        break;
                    }
                }
                for &qi in &order[head_pos + 1..] {
                    let QueueEntry { idx, job: cand, .. } = queue[qi];
                    if !ledger.fits(cand.cores) {
                        continue;
                    }
                    let ends_by_shadow =
                        now + config.decision_time(cand.runtime, cand.estimate) <= shadow;
                    if ends_by_shadow {
                        start_job(idx, cand, ledger, running, events);
                        started[qi] = true;
                        *backfilled += 1;
                    } else if cand.cores <= spare {
                        spare -= cand.cores;
                        start_job(idx, cand, ledger, running, events);
                        started[qi] = true;
                        *backfilled += 1;
                    }
                }
            }
        }
    }

    let mut keep = started.iter().map(|s| !s);
    queue.retain(|_| keep.next().expect("one flag per job"));
}

/// The faulty oracle's rescheduling pass: structurally identical to
/// [`reschedule`], with three fault-aware differences — the running table
/// is keyed by trace index, completion events carry the attempt number the
/// job was started under, and a job the availability profile cannot place
/// at any horizon (possible only under reduced capacity) simply keeps
/// waiting for a restore instead of panicking.
#[allow(clippy::too_many_arguments)]
fn reschedule_faulty(
    now: f64,
    queue: &mut Vec<QueueEntry>,
    ledger: &mut dynsched_cluster::AllocationLedger,
    running: &mut HashMap<usize, Running>,
    events: &mut EventQueue<FaultyEvent>,
    discipline: &QueueDiscipline<'_>,
    config: &SchedulerConfig,
    backfilled: &mut u64,
    attempt_of: &[u32],
) {
    if queue.is_empty() {
        return;
    }
    let order = order_queue(queue, now, discipline, config);

    let start_job = |idx: usize,
                     job: Job,
                     ledger: &mut dynsched_cluster::AllocationLedger,
                     running: &mut HashMap<usize, Running>,
                     events: &mut EventQueue<FaultyEvent>| {
        ledger
            .allocate(job.id, job.cores, now)
            .expect("start checked to fit");
        running.insert(
            idx,
            Running {
                idx,
                job,
                start: now,
            },
        );
        events.push(
            now + config.execution_time(job.runtime, job.estimate),
            FaultyEvent::Completion(idx, attempt_of[idx]),
        );
    };

    let mut started = vec![false; queue.len()];

    if config.backfill == BackfillMode::Conservative {
        let releases = expected_releases(running, config, |t| clamp_release(now, t));
        let mut profile = Profile::new(now, ledger.available(), &releases);
        for (rank, &qi) in order.iter().enumerate() {
            let QueueEntry { idx, job, .. } = queue[qi];
            let duration = config.decision_time(job.runtime, job.estimate).max(1e-9);
            let Some(start) = profile.earliest_fit_scan(job.cores, duration) else {
                continue; // wider than current capacity: wait for a restore
            };
            profile.reserve_scan(start, start + duration, job.cores);
            if start == now && ledger.fits(job.cores) {
                start_job(idx, job, ledger, running, events);
                started[qi] = true;
                if rank > 0 {
                    *backfilled += 1;
                }
            }
        }
    } else {
        let mut blocked_at: Option<usize> = None;
        for (pos, &qi) in order.iter().enumerate() {
            let QueueEntry { idx, job, .. } = queue[qi];
            if ledger.fits(job.cores) {
                start_job(idx, job, ledger, running, events);
                started[qi] = true;
            } else {
                blocked_at = Some(pos);
                break;
            }
        }

        if config.backfill == BackfillMode::Aggressive {
            if let Some(head_pos) = blocked_at {
                let head = queue[order[head_pos]].job;
                let releases = expected_releases(running, config, |t| t.max(now));
                let mut avail = ledger.available();
                let mut shadow = now;
                let mut spare = 0u32;
                for (end, cores) in releases {
                    avail += cores;
                    if avail >= head.cores {
                        shadow = end.max(now);
                        spare = avail - head.cores;
                        break;
                    }
                }
                for &qi in &order[head_pos + 1..] {
                    let QueueEntry { idx, job: cand, .. } = queue[qi];
                    if !ledger.fits(cand.cores) {
                        continue;
                    }
                    let ends_by_shadow =
                        now + config.decision_time(cand.runtime, cand.estimate) <= shadow;
                    if ends_by_shadow {
                        start_job(idx, cand, ledger, running, events);
                        started[qi] = true;
                        *backfilled += 1;
                    } else if cand.cores <= spare {
                        spare -= cand.cores;
                        start_job(idx, cand, ledger, running, events);
                        started[qi] = true;
                        *backfilled += 1;
                    }
                }
            }
        }
    }

    let mut keep = started.iter().map(|s| !s);
    queue.retain(|_| keep.next().expect("one flag per job"));
}
