use super::{simulate, ConservativeStats, EngineError, QueueDiscipline, SimWorkspace};
use crate::{BackfillMode, Checkpoint, SchedulerConfig, SimMetrics, SimulationResult};
use dynsched_cluster::{Job, Platform};
use dynsched_policies::{Fcfs, Spt};
use dynsched_workload::{Trace, TraceSource};

fn cfg(cores: u32) -> SchedulerConfig {
    SchedulerConfig::actual_runtimes(Platform::new(cores))
}

fn job(id: u32, submit: f64, runtime: f64, cores: u32) -> Job {
    Job::new(id, submit, runtime, runtime, cores)
}

fn run_fcfs(jobs: Vec<Job>, cores: u32) -> SimulationResult {
    simulate(
        &Trace::from_jobs(jobs),
        &QueueDiscipline::Policy(&Fcfs),
        &cfg(cores),
    )
}

#[test]
fn single_job_runs_immediately() {
    let r = run_fcfs(vec![job(0, 5.0, 10.0, 2)], 4);
    assert_eq!(r.completed.len(), 1);
    assert_eq!(r.completed[0].start, 5.0);
    assert_eq!(r.completed[0].finish, 15.0);
    assert_eq!(r.makespan, 15.0);
}

#[test]
fn jobs_queue_when_machine_full() {
    // Both need the whole machine; second waits for the first.
    let r = run_fcfs(vec![job(0, 0.0, 10.0, 4), job(1, 1.0, 10.0, 4)], 4);
    let by_id = r.by_id();
    assert_eq!(by_id[&0].start, 0.0);
    assert_eq!(by_id[&1].start, 10.0);
    assert_eq!(by_id[&1].wait(), 9.0);
}

#[test]
fn parallel_jobs_share_machine() {
    let r = run_fcfs(vec![job(0, 0.0, 10.0, 2), job(1, 0.0, 10.0, 2)], 4);
    let by_id = r.by_id();
    assert_eq!(by_id[&0].start, 0.0);
    assert_eq!(by_id[&1].start, 0.0);
    assert!((r.utilization - 1.0).abs() < 1e-9);
}

#[test]
fn strict_mode_blocks_behind_wide_head() {
    // FCFS head needs 4 cores (busy), a later 1-core job fits but must
    // NOT start without backfilling.
    let jobs = vec![
        job(0, 0.0, 10.0, 3), // runs 0..10 on 3 of 4 cores
        job(1, 1.0, 5.0, 4),  // head at t=1, does not fit until t=10
        job(2, 2.0, 2.0, 1),  // would fit now, but FCFS order blocks it
    ];
    let r = run_fcfs(jobs, 4);
    let by_id = r.by_id();
    assert_eq!(by_id[&1].start, 10.0);
    assert_eq!(by_id[&2].start, 15.0, "strict scheduler must not backfill");
}

#[test]
fn easy_backfills_harmless_job() {
    let jobs = vec![
        job(0, 0.0, 10.0, 3), // running until t=10
        job(1, 1.0, 5.0, 4),  // head, shadow time = 10
        job(2, 2.0, 2.0, 1),  // fits the spare core, ends 4 <= 10 → backfill
    ];
    let mut config = cfg(4);
    config.backfill = BackfillMode::Aggressive;
    let r = simulate(
        &Trace::from_jobs(jobs),
        &QueueDiscipline::Policy(&Fcfs),
        &config,
    );
    let by_id = r.by_id();
    assert_eq!(by_id[&2].start, 2.0, "EASY should backfill job 2");
    assert_eq!(by_id[&1].start, 10.0, "head must not be delayed");
    assert_eq!(r.backfilled_jobs, 1);
}

#[test]
fn easy_rejects_backfill_that_would_delay_head() {
    let jobs = vec![
        job(0, 0.0, 10.0, 3), // running until t=10
        job(1, 1.0, 5.0, 4),  // head, shadow = 10, spare = 0
        job(2, 2.0, 20.0, 1), // ends at 22 > 10 and no spare → no backfill
    ];
    let mut config = cfg(4);
    config.backfill = BackfillMode::Aggressive;
    let r = simulate(
        &Trace::from_jobs(jobs),
        &QueueDiscipline::Policy(&Fcfs),
        &config,
    );
    let by_id = r.by_id();
    assert_eq!(by_id[&1].start, 10.0);
    assert_eq!(by_id[&2].start, 15.0);
    assert_eq!(r.backfilled_jobs, 0);
}

#[test]
fn easy_uses_spare_cores_for_long_jobs() {
    // Machine: 8 cores. Job0 holds 4 until t=100. Head needs 6
    // (shadow=100, spare at shadow = 8-6 = 2). A 2-core long job can
    // backfill into the spare even though it outlives the shadow.
    let jobs = vec![
        job(0, 0.0, 100.0, 4),
        job(1, 1.0, 50.0, 6),
        job(2, 2.0, 500.0, 2),
    ];
    let mut config = cfg(8);
    config.backfill = BackfillMode::Aggressive;
    let r = simulate(
        &Trace::from_jobs(jobs),
        &QueueDiscipline::Policy(&Fcfs),
        &config,
    );
    let by_id = r.by_id();
    assert_eq!(by_id[&2].start, 2.0, "spare-core backfill");
    assert_eq!(by_id[&1].start, 100.0, "head still starts at shadow");
}

#[test]
fn conservative_backfills_without_delaying_anyone() {
    let jobs = vec![
        job(0, 0.0, 10.0, 3), // running until 10
        job(1, 1.0, 5.0, 4),  // reserved at 10
        job(2, 2.0, 2.0, 1),  // fits now and ends before 10 → starts
    ];
    let mut config = cfg(4);
    config.backfill = BackfillMode::Conservative;
    let r = simulate(
        &Trace::from_jobs(jobs),
        &QueueDiscipline::Policy(&Fcfs),
        &config,
    );
    let by_id = r.by_id();
    assert_eq!(by_id[&2].start, 2.0);
    assert_eq!(by_id[&1].start, 10.0);
}

#[test]
fn conservative_protects_all_reservations() {
    // 4 cores. Job0 runs to t=10. Queue: head(4 cores, reserved t=10),
    // second(1 core 8s, reserved t=15 after head)… a third job that
    // fits *now* but would collide with head's reservation must wait.
    let jobs = vec![
        job(0, 0.0, 10.0, 3),
        job(1, 1.0, 5.0, 4),
        job(2, 2.0, 9.0, 1), // ends at 11 > 10: would delay head
    ];
    let mut config = cfg(4);
    config.backfill = BackfillMode::Conservative;
    let r = simulate(
        &Trace::from_jobs(jobs),
        &QueueDiscipline::Policy(&Fcfs),
        &config,
    );
    let by_id = r.by_id();
    assert_eq!(by_id[&1].start, 10.0);
    assert_eq!(
        by_id[&2].start, 15.0,
        "conservative must respect head's reservation"
    );
}

/// Waiters `(queued, reserved)` by the one conservative pass at `t = 1`:
/// 8 cores, 6 of them held from `t = 0` to 100 by a job of its own, and
/// `waiters` (width, runtime) all submitted at 1, in FCFS order.
fn conservative_pass_at_one(waiters: &[(u32, f64)]) -> (u64, u64) {
    let mut jobs = vec![job(0, 0.0, 100.0, 6)];
    for (i, &(cores, runtime)) in waiters.iter().enumerate() {
        jobs.push(job(i as u32 + 1, 1.0, runtime, cores));
    }
    let trace = Trace::from_jobs(jobs);
    let mut config = cfg(8);
    config.backfill = BackfillMode::Conservative;
    let mut ws = SimWorkspace::new();
    let mut through = |horizon: f64| {
        ws.run_prefix(
            &trace,
            &QueueDiscipline::Policy(&Fcfs),
            &config,
            horizon,
            &mut Checkpoint::new(),
        );
        ws.conservative_stats()
    };
    let (before, after) = (through(0.5), through(1.5));
    assert_eq!(before.passes, 1, "the holder's own arrival");
    assert_eq!((after.passes, after.passes_started), (2, 2));
    (
        after.queued - before.queued,
        after.reserved - before.reserved,
    )
}

#[test]
fn conservative_walk_stops_at_the_last_waiter_that_could_start_now() {
    // Two cores are free. Only rank 0 is that narrow: the walk reserves it
    // and stops, whatever is queued behind it.
    let pass = conservative_pass_at_one(&[(2, 10.0), (4, 10.0), (8, 10.0), (3, 10.0)]);
    assert_eq!(pass, (4, 1));
    // The narrowest waiter is last: every one ahead of it is reserved.
    let pass = conservative_pass_at_one(&[(4, 10.0), (8, 10.0), (3, 10.0), (2, 10.0)]);
    assert_eq!(pass, (4, 4));
}

#[test]
fn conservative_counters_reset_fork_and_stay_zero_in_the_other_modes() {
    let trace = Trace::from_jobs(vec![
        job(0, 0.0, 10.0, 3),
        job(1, 1.0, 5.0, 4),
        job(2, 2.0, 2.0, 1),
    ]);
    let discipline = QueueDiscipline::Policy(&Fcfs);
    let mut config = cfg(4);
    config.backfill = BackfillMode::Conservative;
    let mut ws = SimWorkspace::new();
    ws.run(&trace, &discipline, &config);
    let scratch = ws.conservative_stats();
    assert!(scratch.passes >= 3 && scratch.reserved >= scratch.passes_started);
    // A fork carries the prefix's counts on.
    let mut snapshot = Checkpoint::new();
    ws.run_prefix(&trace, &discipline, &config, 1.5, &mut snapshot);
    assert_ne!(ws.conservative_stats(), scratch);
    ws.resume_from(&snapshot, &trace, &discipline, &config);
    assert_eq!(ws.conservative_stats(), scratch);
    for backfill in [BackfillMode::None, BackfillMode::Aggressive] {
        config.backfill = backfill;
        ws.run(&trace, &discipline, &config);
        assert_eq!(ws.conservative_stats(), ConservativeStats::default());
    }
}

#[test]
fn fixed_order_discipline_respects_permutation() {
    // Three same-shape jobs all present at t=0; machine fits one at a
    // time; fixed order 2,0,1 (job 2 rank 0, job 0 rank 1, job 1 rank 2).
    let jobs = vec![
        job(0, 0.0, 10.0, 4),
        job(1, 0.0, 10.0, 4),
        job(2, 0.0, 10.0, 4),
    ];
    let ranks = [1usize, 2, 0];
    let r = simulate(
        &Trace::from_jobs(jobs),
        &QueueDiscipline::FixedOrder(&ranks),
        &cfg(4),
    );
    let by_id = r.by_id();
    assert_eq!(by_id[&2].start, 0.0);
    assert_eq!(by_id[&0].start, 10.0);
    assert_eq!(by_id[&1].start, 20.0);
}

#[test]
fn estimate_mode_decisions_use_estimates() {
    // SPT under estimates: job 1 has the shorter *estimate* but longer
    // runtime; it must be picked first in UserEstimate mode.
    let j0 = Job::new(0, 0.0, 5.0, 100.0, 4); // r=5, e=100
    let j1 = Job::new(1, 0.0, 50.0, 10.0, 4); // r=50, e=10
    let blocker = job(9, 0.0, 1.0, 4); // forces both into the queue
    let mut config = SchedulerConfig::user_estimates(Platform::new(4));
    config.backfill = BackfillMode::None;
    let trace = Trace::from_jobs(vec![blocker, j0, j1]);
    let r = simulate(&trace, &QueueDiscipline::Policy(&Spt), &config);
    let by_id = r.by_id();
    assert!(
        by_id[&1].start < by_id[&0].start,
        "estimate-SPT must favour job 1"
    );
}

#[test]
fn execution_always_uses_actual_runtime() {
    let j = Job::new(0, 0.0, 7.0, 1_000.0, 1);
    let config = SchedulerConfig::user_estimates(Platform::new(4));
    let r = simulate(
        &Trace::from_jobs(vec![j]),
        &QueueDiscipline::Policy(&Fcfs),
        &config,
    );
    assert_eq!(r.completed[0].finish, 7.0);
}

#[test]
fn backfilling_with_underestimates_still_drains() {
    // Job 0's estimate (5) is far below its runtime (100): the head's
    // shadow computation sees an overdue job. Everything must still
    // complete.
    let j0 = Job::new(0, 0.0, 100.0, 5.0, 3);
    let j1 = Job::new(1, 1.0, 5.0, 5.0, 4);
    let j2 = Job::new(2, 2.0, 5.0, 5.0, 1);
    let config = SchedulerConfig::estimates_with_backfilling(Platform::new(4));
    let r = simulate(
        &Trace::from_jobs(vec![j0, j1, j2]),
        &QueueDiscipline::Policy(&Fcfs),
        &config,
    );
    assert_eq!(r.completed.len(), 3);
}

#[test]
fn all_jobs_complete_under_saturation() {
    let jobs: Vec<Job> = (0..50)
        .map(|i| job(i, (i % 5) as f64, 10.0, 1 + (i % 4)))
        .collect();
    let r = run_fcfs(jobs, 4);
    assert_eq!(r.completed.len(), 50);
    for c in &r.completed {
        assert!(
            c.start >= c.job.submit,
            "job {} started before arrival",
            c.job.id
        );
        assert_eq!(c.finish, c.start + c.job.runtime);
    }
}

#[test]
fn simultaneous_arrivals_are_handled_in_one_batch() {
    let jobs = vec![
        job(0, 0.0, 10.0, 2),
        job(1, 0.0, 10.0, 2),
        job(2, 0.0, 10.0, 2),
    ];
    let r = run_fcfs(jobs, 4);
    let by_id = r.by_id();
    assert_eq!(by_id[&0].start, 0.0);
    assert_eq!(by_id[&1].start, 0.0);
    assert_eq!(by_id[&2].start, 10.0);
}

#[test]
#[should_panic(expected = "requests")]
fn oversized_job_panics() {
    run_fcfs(vec![job(0, 0.0, 1.0, 64)], 4);
}

#[test]
#[should_panic(expected = "fixed order needs a rank")]
fn short_rank_slice_panics() {
    let jobs = vec![job(0, 0.0, 1.0, 1), job(1, 0.0, 1.0, 1)];
    let ranks = [0usize];
    simulate(
        &Trace::from_jobs(jobs),
        &QueueDiscipline::FixedOrder(&ranks),
        &cfg(4),
    );
}

#[test]
fn try_run_reports_unschedulable_inputs_as_errors() {
    // The same two inputs through the structured surface: an error
    // value, not a panic, and the workspace stays usable.
    let mut ws = SimWorkspace::new();
    let wide = Trace::from_jobs(vec![job(0, 0.0, 1.0, 2), job(7, 1.0, 1.0, 64)]);
    assert_eq!(
        ws.try_run(&wide, &QueueDiscipline::Policy(&Fcfs), &cfg(4)),
        Err(EngineError::JobWiderThanPlatform {
            job: 7,
            cores: 64,
            platform_cores: 4,
        })
    );
    let two = Trace::from_jobs(vec![job(0, 0.0, 1.0, 1), job(1, 0.0, 1.0, 1)]);
    assert_eq!(
        ws.try_run(&two, &QueueDiscipline::FixedOrder(&[0]), &cfg(4)),
        Err(EngineError::RankSliceTooShort { ranks: 1, jobs: 2 })
    );
    assert_eq!(
        ws.try_run(&two, &QueueDiscipline::FixedOrder(&[1, 0]), &cfg(4)),
        Ok(())
    );
    assert_eq!(ws.completed().len(), 2);
}

#[test]
fn determinism_same_inputs_same_schedule() {
    let jobs: Vec<Job> = (0..40)
        .map(|i| {
            job(
                i,
                (i as f64) * 3.7,
                10.0 + (i % 7) as f64 * 20.0,
                1 + (i % 6),
            )
        })
        .collect();
    let a = run_fcfs(jobs.clone(), 8);
    let b = run_fcfs(jobs, 8);
    assert_eq!(a, b);
}

#[test]
fn kill_at_estimate_cuts_execution_short() {
    // r = 100, e = 30: with walltime enforcement the job occupies the
    // machine for 30 s and is reported killed.
    let j = Job::new(0, 0.0, 100.0, 30.0, 2);
    let mut config = SchedulerConfig::user_estimates(Platform::new(4));
    config.kill_at_estimate = true;
    let r = simulate(
        &Trace::from_jobs(vec![j]),
        &QueueDiscipline::Policy(&Fcfs),
        &config,
    );
    assert_eq!(r.completed[0].finish, 30.0);
    assert!(r.completed[0].was_killed());
    // Without enforcement it runs to completion.
    config.kill_at_estimate = false;
    let r = simulate(
        &Trace::from_jobs(vec![j]),
        &QueueDiscipline::Policy(&Fcfs),
        &config,
    );
    assert_eq!(r.completed[0].finish, 100.0);
    assert!(!r.completed[0].was_killed());
}

#[test]
fn kill_at_estimate_frees_cores_for_waiters() {
    let j0 = Job::new(0, 0.0, 1_000.0, 10.0, 4); // killed at t=10
    let j1 = Job::new(1, 1.0, 5.0, 5.0, 4);
    let mut config = SchedulerConfig::user_estimates(Platform::new(4));
    config.kill_at_estimate = true;
    let r = simulate(
        &Trace::from_jobs(vec![j0, j1]),
        &QueueDiscipline::Policy(&Fcfs),
        &config,
    );
    assert_eq!(r.by_id()[&1].start, 10.0);
}

#[test]
fn cached_scores_match_uncached_evaluation() {
    // Force F1 through the time-dependent (uncached) path via a wrapper
    // and check the schedule is identical to the cached fast path.
    use dynsched_policies::{LearnedPolicy, Policy, TaskView};
    struct Uncached(LearnedPolicy);
    impl Policy for Uncached {
        fn name(&self) -> &str {
            "F1-uncached"
        }
        fn score(&self, t: &TaskView) -> f64 {
            self.0.score(t)
        }
        // default time_dependent() = true -> per-event evaluation
    }
    let jobs: Vec<Job> = (0..60)
        .map(|i| {
            job(
                i,
                (i as f64) * 11.0,
                30.0 + (i % 9) as f64 * 200.0,
                1 + (i % 7),
            )
        })
        .collect();
    let trace = Trace::from_jobs(jobs);
    let config = cfg(8);
    let cached = simulate(
        &trace,
        &QueueDiscipline::Policy(&LearnedPolicy::f1()),
        &config,
    );
    let uncached = simulate(
        &trace,
        &QueueDiscipline::Policy(&Uncached(LearnedPolicy::f1())),
        &config,
    );
    assert_eq!(cached.completed, uncached.completed);
}

#[test]
fn inconsistent_trace_source_surfaces_queue_not_drained() {
    // An adversarial `TraceSource` whose per-field accessors disagree
    // with `job()`: `cores(i)` reports at most 4 (so the pre-run platform
    // check passes) but the last job, reassembled, demands more cores
    // than the machine has. It can never start, no pending event can
    // change that, and the run must end in a structured
    // `QueueNotDrained` error — not a panic, and not an
    // empty-but-plausible schedule.
    struct LastJobLies(Trace);
    impl TraceSource for LastJobLies {
        fn len(&self) -> usize {
            self.0.len()
        }
        fn id(&self, i: usize) -> u32 {
            self.0.id(i)
        }
        fn submit(&self, i: usize) -> f64 {
            self.0.submit(i)
        }
        fn runtime(&self, i: usize) -> f64 {
            self.0.runtime(i)
        }
        fn estimate(&self, i: usize) -> f64 {
            self.0.estimate(i)
        }
        fn cores(&self, i: usize) -> u32 {
            self.0.cores(i).min(4)
        }
        fn job(&self, i: usize) -> Job {
            self.0.job(i)
        }
    }
    // Alone, and behind two honest jobs: job 1 starts off the front of
    // the queue when job 0 completes and stays behind the cursor as a
    // dead entry (one dead, one live: not yet reclaimed). `waiting`
    // counts the live window, so one job either way.
    let alone = vec![job(0, 0.0, 5.0, 64)];
    let behind = vec![
        job(0, 0.0, 10.0, 4),
        job(1, 1.0, 10.0, 4),
        job(2, 2.0, 5.0, 64),
    ];
    let mut ws = SimWorkspace::new();
    for (jobs, queue_len, head, time) in [(alone, 1, 0, 0.0), (behind, 2, 1, 20.0)] {
        let trace = LastJobLies(Trace::from_jobs(jobs));
        let err = ws
            .try_run(&trace, &QueueDiscipline::Policy(&Fcfs), &cfg(4))
            .expect_err("an unstartable job must not drain");
        assert_eq!((ws.state.queue.len(), ws.state.head), (queue_len, head));
        assert_eq!(
            err,
            EngineError::QueueNotDrained {
                waiting: 1,
                running: 0,
                time,
            }
        );
    }
}

#[test]
fn events_processed_counts_arrivals_and_completions() {
    let r = run_fcfs(vec![job(0, 0.0, 1.0, 1), job(1, 5.0, 1.0, 1)], 4);
    assert_eq!(r.events_processed, 4);
}

#[test]
fn on_demand_selection_builds_no_order() {
    // A time-dependent compiled policy — a job-dependent aging rate
    // (WFP3) or a job-uniform one (the aging expression) — under strict
    // and EASY scheduling picks its heads on demand: the scratch order is
    // never filled. A conservative pass reads every position and still
    // builds it.
    use dynsched_policies::{ExprPolicy, Policy, Wfp3};
    let jobs: Vec<Job> = (0..40)
        .map(|i| job(i, (i / 4) as f64, 20.0 + (i % 7) as f64 * 9.0, 1 + i % 4))
        .collect();
    let trace = Trace::from_jobs(jobs);
    let aging = ExprPolicy::parse("aging", "log10(r)*n + 8.70e2*log10(s) - 1.5e-2*w").unwrap();
    for compiled in [Wfp3.compile().unwrap(), aging.compile().unwrap()] {
        for (backfill, on_demand) in [
            (BackfillMode::None, true),
            (BackfillMode::Aggressive, true),
            (BackfillMode::Conservative, false),
        ] {
            let mut config = cfg(6);
            config.backfill = backfill;
            // A fresh workspace per case: the order is scratch, so a used
            // one keeps whatever its last conservative pass built.
            let mut ws = SimWorkspace::new();
            let mut ckpt = Checkpoint::default();
            ws.run_prefix(
                &trace,
                &QueueDiscipline::Compiled(&compiled),
                &config,
                15.0,
                &mut ckpt,
            );
            assert!(
                !ckpt.state.queue.is_empty(),
                "the prefix must stop mid-queue"
            );
            assert_eq!(
                ws.scratch.order.is_empty(),
                on_demand,
                "{}, {backfill:?}",
                compiled.name()
            );
        }
    }
}

#[test]
fn on_demand_heads_walk_the_full_sort_order() {
    // Marking each returned head started, `next_head` must enumerate the
    // queue in exactly the order of a full sort by `(score.total_cmp,
    // position)` — through equal scores (lowest position first), both
    // zeros (`-0.0` sorts first; WFP scores `-0.0` at `w = 0`),
    // negatives, `f64::MAX` and the infinities.
    use super::ordering::next_head;
    use super::QueueEntry;
    const INF: f64 = f64::INFINITY;
    const MAX: f64 = f64::MAX;
    let vectors: [&[f64]; 4] = [
        &[3.0, -0.0, 0.0, -2.5, 3.0, MAX, -0.0, INF, 0.0],
        &[-INF, -1e300, -INF, -MAX, -1e-300],
        &[0.0, -0.0, 0.0, -0.0],
        &[7.0],
    ];
    for scores in vectors {
        let mut queue: Vec<QueueEntry> = (0..scores.len() as u32)
            .map(|idx| QueueEntry {
                idx,
                job: job(idx, 0.0, 1.0, 1),
                started: false,
            })
            .collect();
        let mut sorted: Vec<usize> = (0..scores.len()).collect();
        sorted.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
        for (taken, &expected) in sorted.iter().enumerate() {
            assert_eq!(
                next_head(scores, &queue, taken == 0),
                Some(expected),
                "{scores:?}, head {taken}"
            );
            // The general scan agrees with the score-lane-only one.
            assert_eq!(next_head(scores, &queue, false), Some(expected));
            queue[expected].started = true;
        }
        assert_eq!(next_head(scores, &queue, false), None);
    }
}

#[test]
fn reused_workspace_matches_fresh_workspace() {
    // Run a mixed batch of simulations through one workspace and check
    // each result equals a fresh-workspace run: no state leaks.
    let mut ws = SimWorkspace::new();
    for seed in 0..6u32 {
        let jobs: Vec<Job> = (0..30)
            .map(|i| {
                let k = i + seed * 7;
                job(
                    i,
                    (k % 11) as f64 * 5.3,
                    4.0 + (k % 9) as f64 * 13.0,
                    1 + (k % 5),
                )
            })
            .collect();
        let trace = Trace::from_jobs(jobs);
        let mut config = cfg(6);
        config.backfill = match seed % 3 {
            0 => BackfillMode::None,
            1 => BackfillMode::Aggressive,
            _ => BackfillMode::Conservative,
        };
        ws.run(&trace, &QueueDiscipline::Policy(&Fcfs), &config);
        let reused = ws.result();
        let fresh = simulate(&trace, &QueueDiscipline::Policy(&Fcfs), &config);
        assert_eq!(
            reused, fresh,
            "seed {seed}: workspace reuse changed the schedule"
        );
    }
}

#[test]
fn metrics_mode_agrees_with_full_mode() {
    // Interleave metrics-only and full runs through one workspace: the
    // metrics must always equal the full run's reduction, and mode
    // switching must not leak state either way.
    let mut ws = SimWorkspace::new();
    for seed in 0..6u32 {
        let jobs: Vec<Job> = (0..30)
            .map(|i| {
                let k = i + seed * 13;
                job(
                    i,
                    (k % 7) as f64 * 4.1,
                    3.0 + (k % 11) as f64 * 9.0,
                    1 + (k % 5),
                )
            })
            .collect();
        let trace = Trace::from_jobs(jobs);
        let mut config = cfg(6);
        config.backfill = match seed % 3 {
            0 => BackfillMode::None,
            1 => BackfillMode::Aggressive,
            _ => BackfillMode::Conservative,
        };
        let discipline = QueueDiscipline::Policy(&Fcfs);
        let metrics = ws.run_metrics(&trace, &discipline, &config, 10.0);
        ws.run(&trace, &discipline, &config);
        let full = ws.result();
        assert_eq!(metrics, SimMetrics::from_result(&full, 10.0), "seed {seed}");
        assert_eq!(
            metrics.avg_bounded_slowdown(),
            full.avg_bounded_slowdown(10.0)
        );
        assert_eq!(metrics.makespan, full.makespan);
    }
}

#[test]
fn metrics_mode_keeps_accessors_coherent() {
    let jobs = vec![
        job(0, 0.0, 10.0, 2),
        job(1, 0.0, 20.0, 2),
        job(2, 1.0, 5.0, 4),
    ];
    let trace = Trace::from_jobs(jobs);
    let mut ws = SimWorkspace::new();
    let m = ws.run_metrics(&trace, &QueueDiscipline::Policy(&Fcfs), &cfg(4), 10.0);
    assert_eq!(ws.makespan(), m.makespan);
    assert_eq!(ws.backfilled_jobs(), m.backfilled_jobs);
    assert_eq!(ws.events_processed(), 6);
    assert!(ws.utilization() > 0.0);
}

#[test]
#[should_panic(expected = "metrics-only")]
fn per_job_accessors_refuse_after_metrics_run() {
    let trace = Trace::from_jobs(vec![job(0, 0.0, 10.0, 2)]);
    let mut ws = SimWorkspace::new();
    ws.run_metrics(&trace, &QueueDiscipline::Policy(&Fcfs), &cfg(4), 10.0);
    let _ = ws.result();
}

#[test]
fn workspace_accessors_match_result() {
    let jobs = vec![
        job(0, 0.0, 10.0, 2),
        job(1, 0.0, 20.0, 2),
        job(2, 1.0, 5.0, 4),
    ];
    let mut ws = SimWorkspace::new();
    ws.run(
        &Trace::from_jobs(jobs),
        &QueueDiscipline::Policy(&Fcfs),
        &cfg(4),
    );
    let r = ws.result();
    assert_eq!(ws.completed(), &r.completed[..]);
    assert_eq!(ws.makespan(), r.makespan);
    assert_eq!(ws.utilization(), r.utilization);
    assert_eq!(ws.events_processed(), r.events_processed);
    assert_eq!(ws.backfilled_jobs(), r.backfilled_jobs);
    assert_eq!(
        ws.avg_bounded_slowdown_of(&|_| true, 10.0),
        r.avg_bounded_slowdown(10.0)
    );
    assert_eq!(
        ws.avg_bounded_slowdown_of(&|id| id == 2, 10.0),
        r.avg_bounded_slowdown_of(&|id| id == 2, 10.0)
    );
    assert_eq!(ws.avg_bounded_slowdown_of(&|_| false, 10.0), None);
}

#[test]
fn swf_widths_beyond_u32_are_wider_than_any_platform() {
    // A record asking for 2^32 + 1 processors used to wrap to a 1-core
    // job and be simulated; saturated, the engine refuses it up front.
    let trace = dynsched_workload::parse_swf_trace(
        "9 0 5 100 4294967297 -1 -1 4 200 -1 1 3 1 -1 1 1 -1 -1\n",
    )
    .unwrap();
    assert_eq!(
        SimWorkspace::new().try_run(&trace, &QueueDiscipline::Policy(&Fcfs), &cfg(u32::MAX - 1)),
        Err(EngineError::JobWiderThanPlatform {
            job: 0,
            cores: u32::MAX,
            platform_cores: u32::MAX - 1,
        })
    );
}

#[test]
fn gated_passes_are_unobservable() {
    // The backfilling modes skip a pass entered with fewer free cores
    // than the narrowest waiter asks for, and cut a conservative pass
    // short once its starts have used the free cores up. On an 8-core
    // machine: job 0 pins it exactly full over three arrivals (gate
    // armed, the narrowest width falling 4 → 2); at t=100 the narrowest
    // waiter starts and the width is recomputed (6, with 2 cores free:
    // armed again); a narrower 1-core arrival re-opens the pass; and in
    // the faulty runs a capacity drop at t=100.5 kills the youngest
    // starts, so the former narrowest waiter is requeued beside the wide
    // one. Job 8 pins the machine full a second time, late. Every
    // schedule must equal the oracle's, whose profile and passes are
    // ungated.
    use crate::reference::{simulate_reference, simulate_reference_faulty};
    use dynsched_cluster::{AvailabilitySchedule, CapacityStep};
    use dynsched_policies::{LearnedPolicy, Policy, Unicef, Wfp3};
    let trace = Trace::from_jobs(vec![
        Job::new(0, 0.0, 100.0, 150.0, 8),
        Job::new(1, 1.0, 50.0, 60.0, 4),
        Job::new(2, 2.0, 30.0, 45.0, 2),
        Job::new(3, 3.0, 20.0, 20.0, 6),
        Job::new(4, 101.0, 10.0, 25.0, 1),
        Job::new(5, 102.0, 5.0, 5.0, 2),
        Job::new(6, 103.0, 200.0, 260.0, 1),
        Job::new(7, 104.0, 15.0, 15.0, 3),
        Job::new(8, 140.0, 40.0, 40.0, 8),
        Job::new(9, 141.0, 10.0, 12.0, 1),
        Job::new(10, 142.0, 10.0, 12.0, 2),
    ]);
    let schedule = AvailabilitySchedule::from_steps(
        vec![
            CapacityStep {
                time: 100.5,
                capacity: 5,
            },
            CapacityStep {
                time: 120.0,
                capacity: 8,
            },
        ],
        3,
    );
    let policies: [(&str, &dyn Policy); 4] = [
        ("FCFS", &Fcfs),
        ("F1", &LearnedPolicy::f1()),
        ("WFP", &Wfp3),
        ("UNI", &Unicef),
    ];
    let mut ws = SimWorkspace::new();
    let mut ckpt = Checkpoint::new();
    for backfill in [BackfillMode::Aggressive, BackfillMode::Conservative] {
        let mut config = SchedulerConfig::user_estimates(Platform::new(8));
        config.backfill = backfill;
        for (name, policy) in policies {
            let what = format!("{name}, {backfill:?}");
            let compiled = policy.compile().expect("every built-in compiles");
            let discipline = QueueDiscipline::Compiled(&compiled);

            let scratch = simulate(&trace, &discipline, &config);
            assert_eq!(
                scratch,
                simulate_reference(&trace, &discipline, &config),
                "{what}"
            );

            ws.run_faulty(&trace, &discipline, &config, &schedule)
                .unwrap();
            let faulty = ws.result();
            assert!(faulty.preempted_jobs > 0, "{what}: the drop must bite");
            assert_eq!(
                faulty,
                simulate_reference_faulty(&trace, &discipline, &config, &schedule),
                "{what}, faulty"
            );

            // Checkpoint bit-identity with the horizon falling while the
            // gate is armed: machine full behind job 0 at 3.5; after the
            // recompute at 100.5 (FCFS started jobs 1 and 2, job 3 waits).
            for (horizon, narrowest, free) in [(3.5, 2, 0), (100.5, 6, 2)] {
                ws.run_prefix(&trace, &discipline, &config, horizon, &mut ckpt);
                if horizon < 100.0 || name == "FCFS" {
                    assert_eq!(ckpt.state.narrowest, narrowest, "{what}");
                    assert_eq!(ckpt.state.ledger.available(), free, "{what}");
                }
                ws.resume_from(&ckpt, &trace, &discipline, &config);
                assert_eq!(ws.result(), scratch, "{what}, resumed from {horizon}");
            }
        }
    }
}

#[test]
fn front_removal_is_unobservable() {
    // Under a static order a pass takes what it started off the front of
    // the live window `queue[head..]` instead of rewriting the queue. The
    // trace holds a standing backlog of a few hundred jobs on 16 cores,
    // with bursts of equal submit times, five runtimes and two estimate
    // factors (tied SPT keys, tied expected ends), 16-wide jobs that pin
    // the machine exactly full, and every 40th job a one-second, one-core
    // sprinter that SPT and the rank table put ahead of any waiting head.
    // Every schedule must equal the oracle's, which rebuilds and re-sorts
    // its queue at every event.
    use crate::reference::{simulate_reference, simulate_reference_faulty};
    use dynsched_cluster::{AvailabilitySchedule, CapacityStep};
    use dynsched_policies::{LearnedPolicy, Policy};
    use dynsched_simkit::Rng;
    const CORES: u32 = 16;
    let mut rng = Rng::new(0xF407);
    let mut submit = 0.0;
    let mut sprinters = Vec::new();
    let jobs: Vec<Job> = (0..480u32)
        .map(|i| {
            submit += rng.next_below(3) as f64;
            if i % 40 == 39 {
                sprinters.push(i as usize);
                return Job::new(i, submit, 1.0, 1.0, 1);
            }
            let runtime = *rng.choose(&[5.0, 10.0, 20.0, 40.0, 80.0]);
            let estimate = runtime * *rng.choose(&[1.0, 2.0]);
            let cores = *rng.choose(&[1, 2, 2, 4, 4, 8, CORES]);
            Job::new(i, submit, runtime, estimate, cores)
        })
        .collect();
    let trace = Trace::from_jobs(jobs);
    // Sprinters hold the lowest ranks, everything else a random order.
    let mut by_rank = sprinters.clone();
    let others = rng.permutation(trace.len()).into_iter();
    by_rank.extend(others.filter(|i| !sprinters.contains(i)));
    let mut ranks = vec![0; trace.len()];
    for (rank, &i) in by_rank.iter().enumerate() {
        ranks[i] = rank;
    }
    let (fcfs, spt, f1) = (
        Fcfs.compile().unwrap(),
        Spt.compile().unwrap(),
        LearnedPolicy::f1().compile().unwrap(),
    );
    let disciplines = [
        ("ranks", QueueDiscipline::FixedOrder(&ranks)),
        ("FCFS", QueueDiscipline::Compiled(&fcfs)),
        ("SPT", QueueDiscipline::Compiled(&spt)),
        ("F1", QueueDiscipline::Compiled(&f1)),
        ("SPT interpreted", QueueDiscipline::Policy(&Spt)),
    ];
    let mut ws = SimWorkspace::new();
    let mut ckpt = Checkpoint::new();
    for backfill in [
        BackfillMode::None,
        BackfillMode::Aggressive,
        BackfillMode::Conservative,
    ] {
        let mut config = SchedulerConfig::user_estimates(Platform::new(CORES));
        config.backfill = backfill;
        for (name, discipline) in &disciplines {
            let what = format!("{name}, {backfill:?}");
            ws.run(&trace, discipline, &config);
            let scratch = ws.result();
            assert_eq!((ws.state.queue.len(), ws.state.head), (0, 0), "{what}");
            assert_eq!(
                scratch,
                simulate_reference(&trace, discipline, &config),
                "{what}"
            );

            // Cut the run just before and just after each sprinter's
            // arrival. The dead prefix never outgrows the window, a
            // checkpoint holds the window alone, and a resume from it is
            // the scratch run.
            let mut deepest = 0;
            let mut sprinter_met_a_dead_prefix = false;
            let mut drop_at = None;
            for &s in &sprinters {
                for after in [false, true] {
                    let horizon = trace.submit(s) + if after { 0.5 } else { 0.0 };
                    ws.run_prefix(&trace, discipline, &config, horizon, &mut ckpt);
                    let (len, head) = (ws.state.queue.len(), ws.state.head);
                    let live = len - head;
                    assert!(head <= live, "{what}: {head} dead, {live} live");
                    assert_eq!((ckpt.state.queue.len(), ckpt.state.head), (live, 0));
                    assert_eq!(ckpt.state.q_keys, ws.state.q_keys[head..]);
                    deepest = deepest.max(live);
                    if head > 0 && after && ws.state.ledger.used() > 1 {
                        drop_at = drop_at.or(Some(horizon));
                    }
                    sprinter_met_a_dead_prefix |= head > 0 && !after;
                    ws.resume_from(&ckpt, &trace, discipline, &config);
                    assert_eq!(ws.result(), scratch, "{what}, resumed from {horizon}");
                }
            }
            assert!(deepest >= 200, "{what}: backlog of {deepest}");
            assert!(sprinter_met_a_dead_prefix, "{what}");

            // Take all but one core away while jobs run and the queue has
            // a dead prefix (the faulty run is the zero-fault one up to
            // its first step): the kills are requeued into the window.
            let drop_at = drop_at.expect("a busy cut with a dead prefix");
            let step = |after: f64, capacity| CapacityStep {
                time: drop_at + after,
                capacity,
            };
            let schedule = AvailabilitySchedule::from_steps(
                vec![
                    step(0.0, 1),
                    step(60.0, CORES),
                    step(200.0, CORES / 4),
                    step(240.0, CORES),
                ],
                3,
            );
            ws.run_faulty(&trace, discipline, &config, &schedule)
                .unwrap();
            let faulty = ws.result();
            assert!(faulty.preempted_jobs > 0, "{what}: the drop must bite");
            assert_eq!((ws.state.queue.len(), ws.state.head), (0, 0), "{what}");
            assert_eq!(
                faulty,
                simulate_reference_faulty(&trace, discipline, &config, &schedule),
                "{what}, faulty"
            );
        }
    }
}

#[test]
fn take_result_moves_out_what_result_copies() {
    use dynsched_cluster::{AvailabilitySchedule, CapacityStep};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    // A permanent drop to 2 cores at t=5 kills the 4-wide job (no retries
    // left) and strands the other 4-wide one: both abandonment paths fill
    // the second list `take_result` moves.
    let trace = Trace::from_jobs(vec![
        job(0, 0.0, 10.0, 4),
        job(1, 1.0, 10.0, 1),
        job(2, 2.0, 30.0, 4),
        job(3, 6.0, 3.0, 2),
    ]);
    let schedule = AvailabilitySchedule::from_steps(
        vec![CapacityStep {
            time: 5.0,
            capacity: 2,
        }],
        0,
    );
    let discipline = QueueDiscipline::Policy(&Fcfs);
    let mut ws = SimWorkspace::new();
    for faulty in [false, true] {
        let run = |ws: &mut SimWorkspace| match faulty {
            false => ws.run(&trace, &discipline, &cfg(4)),
            true => ws
                .run_faulty(&trace, &discipline, &cfg(4), &schedule)
                .unwrap(),
        };
        run(&mut ws);
        let copied = ws.result();
        assert_eq!(copied.abandoned.is_empty(), !faulty);
        let moved = ws.take_result();
        assert_eq!(moved, copied, "faulty: {faulty}");
        // The scalar accessors survive the move …
        assert_eq!(ws.makespan(), copied.makespan);
        assert_eq!(ws.events_processed(), copied.events_processed);
        assert_eq!(ws.preempted_jobs(), copied.preempted_jobs);
        // … every per-job one refuses instead of reading an emptied list …
        let mut refused = |read: &dyn Fn(&mut SimWorkspace)| {
            let payload = catch_unwind(AssertUnwindSafe(|| read(&mut ws))).unwrap_err();
            let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(message.contains("take_result"), "{message}");
        };
        refused(&|ws| _ = ws.completed());
        refused(&|ws| _ = ws.result());
        refused(&|ws| _ = ws.avg_bounded_slowdown_of(&|_| true, 10.0));
        refused(&|ws| _ = ws.abandoned());
        refused(&|ws| _ = ws.take_result());
        // … and the next run on the emptied workspace is an ordinary run.
        run(&mut ws);
        assert_eq!(ws.result(), copied, "faulty: {faulty}, rerun");
        assert_eq!(ws.completed(), &copied.completed[..]);
    }
}
