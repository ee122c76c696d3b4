//! The oracle convention, pinned in one place. Every number this
//! reproduction reports comes from one engine, trusted because each of its
//! fast paths is bit-identical to `scheduler::reference`. This file checks
//! that by differential testing: one generator ([`Shape`] traces crossed
//! with the [`Lineup`] and [`configs`] into [`Case`]s from the in-source
//! [`SEED`]), one checker ([`check`]: every applicable path of a case
//! against the oracle) and one coverage table ([`assert_covered`]) that
//! fails when the domain stops reaching what it exists to reach. Below the
//! harness sit the named cases, on the same generator, configs, checker
//! and 1-vs-n fan-out, in five families:
//!
//! * **inputs [`check`] takes as they are**, outside [`DOMAIN`]: the
//!   engine's two shortcut traces. The `gate` cases arm and re-arm the
//!   narrowest-waiter gate on 8 cores, with a capacity drop that requeues
//!   the narrowest waiter (FCFS / F1 / WFP / UNI × EASY / conservative);
//!   the `backlog` cases stand 480 jobs behind the static-order live
//!   window, with sprinters and a four-step drop (ranks / FCFS / SPT / F1
//!   × three backfilling modes); the `heads` cases start three heads or
//!   more in one on-demand pass (WFP / UNI / a random tree × strict /
//!   EASY); the `ranks` cases queue fixed ranks past 2^53 and 2^63 (three
//!   backfilling modes); the `window` cases put trace lengths on both
//!   sides of the static compiled key window's edges, with a drop that
//!   requeues jobs behind it (FCFS / SPT / F1 × strict / EASY). What only
//!   private state shows of them stays in `engine/tests.rs`.
//! * **forks** under another rank table than the prefix's;
//! * **federations**: k shards at 1 and n workers, each shard against
//!   its slice run standalone — under its own fault stream — and the
//!   merge's order;
//! * **the routing oracle**: `try_route` against `route_reference`, the
//!   routing pass as first written. A 1-shard federation makes no routing
//!   decision, so no path of [`check`] reaches it;
//! * **regressions** that have a name.
//!
//! A twin of the engine belongs here and nowhere else: a new fast path is
//! one more `expect(..)` in [`check`], a new edge a [`Shape`] or a named
//! case, a new guard a coverage row — a new path, never a new suite.
//!
//! # Reading a failure
//!
//! A disagreement panics with the seed, the case index, its shape,
//! discipline and config, the path that disagreed (`step [interpreted |
//! compiled | fixed order]`), what it got and what the oracle wanted —
//! for a greedily shrunk case: jobs were dropped one at a time while the
//! same path still disagreed. The generator is a pure function of
//! [`SEED`], so `cargo test -p dynsched-scheduler --test differential`
//! reproduces it without edits, and the printed `Job::new(..)` lines (plus
//! the faults, and a fixed order's ranks) paste into a named case as they
//! are. A different seed is a one-line edit of [`SEED`].

use dynsched_cluster::{
    AbandonedJob, AvailabilitySchedule, CapacityStep, FaultProfile, Job, Platform,
};
use dynsched_policies::expr::{parse_expr, BinOp, Expr, Func, Var};
use dynsched_policies::{
    compile_expr, paper_lineup, CompiledPolicy, DecisionMode, ExprPolicy, Fcfs, MultiFactor,
    Policy, TaskView, Unicef, Wfp3,
};
use dynsched_scheduler::engine::KEY_WINDOW;
use dynsched_scheduler::federation::{
    route, run_federation, run_federation_faulty, simulate_shard, try_route, FederationResult,
    FederationSpec, Router, RoutingTable,
};
use dynsched_scheduler::reference::{
    reference_metrics, reference_metrics_faulty, simulate_reference, simulate_reference_faulty,
};
use dynsched_scheduler::TrialMetrics;
use dynsched_scheduler::{
    simulate, BackfillMode, Checkpoint, EngineError, QueueDiscipline, SchedulerConfig, SimMetrics,
    SimWorkspace, SimulationResult,
};
use dynsched_simkit::parallel::{par_map_scoped, with_worker_limit};
use dynsched_simkit::Rng;
use dynsched_workload::{Trace, TraceSource};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The master seed: every trace, fault schedule, permutation and random
/// expression below derives from it.
const SEED: u64 = 0x0D1F_F5EE_D001;
/// The bounded-slowdown threshold every metrics path accumulates under.
const TAU: f64 = 10.0;

// ---- The generator ----

/// What a trace looks like. Each shape is built for an edge some fast
/// path could get wrong.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// Continuous times, over-estimates only: no two expected ends tie.
    Uniform,
    /// Submits packed into half the work span: dozens of jobs wait at once.
    Saturated,
    /// Same-instant arrival waves of 20, a trickle of single arrivals
    /// between them: many fresh jobs re-scored at one event.
    Waves,
    /// Whole seconds, three modal estimates and runtimes on both sides of
    /// them: running jobs share expected ends, overdue ones clamp together.
    Modal,
    /// A full-width job holds the machine while narrow jobs pile up behind
    /// it; its end starts dozens of them in one pass.
    Bursts,
    /// A warm-up batch at `t = 0`, then a probe tail: the trial kernel's
    /// trace.
    Warmup,
    /// A ten-second grid from `t0`: tied submits and ends, zero runtimes,
    /// widths that fill the machine exactly — and from `2e7` on, a clock
    /// that absorbs the `1e-9` floor of a zero decision time.
    Hostile(f64),
    /// Whole numbers everywhere, so core-second integrals are exact and
    /// the conservation identities hold with `==`.
    Integer,
    /// A named case's own trace, outside [`DOMAIN`].
    Named(&'static str),
}

/// Shapes and how many traces of each the harness draws. Every trace is
/// crossed with all twelve [`configs`] and, under each, the disciplines
/// [`cases`] picks.
const DOMAIN: [(Shape, u64); 10] = [
    (Shape::Uniform, 8),
    (Shape::Saturated, 4),
    (Shape::Waves, 2),
    (Shape::Modal, 3),
    (Shape::Bursts, 2),
    (Shape::Warmup, 4),
    (Shape::Hostile(0.0), 10),
    (Shape::Hostile(2e7), 10),
    (Shape::Hostile(2e8), 10),
    (Shape::Integer, 8),
];

impl Shape {
    /// One trace of this shape: the platform width and the jobs.
    fn jobs(self, rng: &mut Rng) -> (u32, Vec<Job>) {
        let mut jobs = Vec::new();
        let mut push = |submit: f64, runtime: f64, estimate: f64, cores: u64| {
            let id = jobs.len() as u32;
            jobs.push(Job::new(id, submit, runtime, estimate, cores as u32));
        };
        let cores = match self {
            Shape::Uniform | Shape::Saturated => {
                let (cores, span, least) = if self == Shape::Uniform {
                    (16, 4_000.0, 1.0)
                } else {
                    (8, 2_000.0, 200.0)
                };
                for _ in 0..rng.range_u64(2, 50) {
                    let submit = rng.range_f64(0.0, span);
                    let runtime = rng.range_f64(least, 4_000.0);
                    let over = rng.range_f64(1.0, 3.0);
                    let width = rng.range_u64(1, cores - 1);
                    push(submit, runtime, (runtime * over).max(1.0), width);
                }
                cores
            }
            Shape::Waves => {
                for wave in 0..3 {
                    let at = wave as f64 * 700.0;
                    for _ in 0..20 {
                        let runtime = rng.range_f64(100.0, 2_500.0);
                        push(at, runtime, runtime * 1.5, rng.range_u64(1, 7));
                    }
                    for k in 1..=3 {
                        let runtime = rng.range_f64(100.0, 2_500.0);
                        push(at + 50.0 * k as f64, runtime, runtime, 1);
                    }
                }
                8
            }
            Shape::Modal => {
                for wave in 0..8 {
                    for _ in 0..rng.range_u64(3, 8) {
                        let estimate = *rng.choose(&[600.0, 1_800.0, 3_600.0]);
                        let runtime = (estimate * rng.range_f64(0.2, 1.6)).round().max(1.0);
                        push(wave as f64 * 400.0, runtime, estimate, rng.range_u64(1, 8));
                    }
                }
                16
            }
            Shape::Bursts => {
                for cycle in 0..2 {
                    let at = cycle as f64 * 1_500.0;
                    push(at, 1_000.0, 1_200.0, 64);
                    for k in 1..=40 {
                        let runtime = rng.range_f64(50.0, 400.0);
                        push(at + k as f64, runtime, runtime * 1.5, rng.range_u64(1, 2));
                    }
                }
                64
            }
            Shape::Warmup => {
                for _ in 0..rng.range_u64(6, 12) {
                    let runtime = rng.range_f64(500.0, 6_000.0);
                    push(0.0, runtime, runtime, rng.range_u64(1, 15));
                }
                let mut now = 0.0;
                for _ in 0..rng.range_u64(6, 12) {
                    now += rng.range_f64(10.0, 800.0);
                    let runtime = rng.range_f64(100.0, 4_000.0);
                    push(now, runtime, runtime, rng.range_u64(1, 15));
                }
                16
            }
            Shape::Hostile(t0) => {
                for _ in 0..rng.range_u64(2, 40) {
                    let submit = t0 + 10.0 * rng.range_u64(0, 12) as f64;
                    let runtime = *rng.choose(&[0.0, 10.0, 20.0, 20.0, 50.0]);
                    let estimate = runtime * *rng.choose(&[0.5, 1.0, 1.0, 2.0]);
                    push(submit, runtime, estimate, *rng.choose(&[1, 2, 2, 4, 4, 8]));
                }
                8
            }
            Shape::Integer => {
                for _ in 0..rng.range_u64(3, 40) {
                    let submit = rng.range_u64(0, 2_000) as f64;
                    let runtime = rng.range_u64(1, 1_500) as f64;
                    let estimate = runtime + rng.range_u64(0, 500) as f64;
                    push(submit, runtime, estimate, rng.range_u64(1, 15));
                }
                16
            }
            Shape::Named(name) => panic!("the {name} cases bring their own jobs"),
        };
        (cores as u32, Trace::from_jobs(jobs).jobs().to_vec())
    }

    /// The fault schedule of the `rep`-th trace of this shape: every other
    /// one carries faults, and every hostile one, and every integer one,
    /// whose schedule always ends at full capacity (so the retry cap is the
    /// only way to be abandoned).
    fn faults(self, rng: &mut Rng, cores: u32, jobs: &[Job], rep: u64) -> Faults {
        match self {
            Shape::Hostile(t0) => {
                // Failures over the grid's span, moved onto its clock and
                // onto whole seconds: steps tie with arrivals and ends.
                let profile = FaultProfile::failures(60.0, 25.0, cores / 2, rng.next_u64());
                let mut steps: Vec<CapacityStep> = Vec::new();
                for step in profile.expand(cores, 400.0, 0).steps() {
                    let time = t0 + step.time.round();
                    match steps.last_mut() {
                        Some(last) if last.time == time => last.capacity = step.capacity,
                        _ => steps.push(CapacityStep { time, ..*step }),
                    }
                }
                Faults::Steps(AvailabilitySchedule::from_steps(steps, 2))
            }
            Shape::Integer => {
                let mut times: Vec<u64> = (0..rng.range_u64(2, 8))
                    .map(|_| rng.range_u64(1, 12_000))
                    .collect();
                times.sort_unstable();
                times.dedup();
                let mut steps: Vec<CapacityStep> = (times.iter())
                    .map(|&t| CapacityStep {
                        time: t as f64,
                        capacity: rng.range_u64(1, cores as u64) as u32,
                    })
                    .collect();
                steps.last_mut().expect("two draws at least").capacity = cores;
                let retries = rng.range_u64(0, 2) as u32;
                Faults::Steps(AvailabilitySchedule::from_steps(steps, retries))
            }
            _ if rep.is_multiple_of(2) => Faults::None,
            _ => {
                let span = jobs.last().map_or(0.0, |j| j.submit);
                let profile = FaultProfile::failures((span / 5.0).max(1.0), 500.0, cores / 2, 0)
                    .with_seed(rng.next_u64())
                    .with_max_retries(rng.range_u64(0, 1) as u32);
                Faults::Expand(profile)
            }
        }
    }
}

/// A case's capacity schedule.
#[derive(Debug, Clone, PartialEq)]
enum Faults {
    None,
    /// Expanded over the trace's submission span with stream 0 — exactly
    /// what a 1-shard `run_federation_faulty` expands, so that path is
    /// checked too.
    Expand(FaultProfile),
    Steps(AvailabilitySchedule),
}

/// {actual runtimes, estimates} × {no, EASY, conservative backfilling} ×
/// {`kill_at_estimate` off, on}: the one config cross product.
fn configs(cores: u32) -> Vec<SchedulerConfig> {
    let mut out = Vec::new();
    for decision_mode in [DecisionMode::ActualRuntime, DecisionMode::UserEstimate] {
        for backfill in [
            BackfillMode::None,
            BackfillMode::Aggressive,
            BackfillMode::Conservative,
        ] {
            for kill_at_estimate in [false, true] {
                out.push(SchedulerConfig {
                    platform: Platform::new(cores),
                    decision_mode,
                    backfill,
                    kill_at_estimate,
                });
            }
        }
    }
    out
}

/// A random tree over every variable, function and operator, with
/// constants from 1e-9 to 1e9 of either sign, so guards, overflow and the
/// NaN sanitizer fire.
fn random_expr(rng: &mut Rng, depth: u32) -> Expr {
    if depth == 0 || rng.range_u64(0, 9) < 3 {
        return match rng.range_u64(0, 5) {
            0 => Expr::Var(Var::R),
            1 => Expr::Var(Var::N),
            2 => Expr::Var(Var::S),
            3 | 4 => Expr::Var(Var::W),
            _ => {
                let sign = if rng.range_u64(0, 1) == 0 { 1.0 } else { -1.0 };
                Expr::Const(sign * 10f64.powf(rng.range_f64(-9.0, 9.0)))
            }
        };
    }
    let sub = |rng: &mut Rng| Box::new(random_expr(rng, depth - 1));
    match rng.range_u64(0, 7) {
        0 => Expr::Neg(sub(rng)),
        1 | 2 => Expr::Call(*rng.choose(&Func::ALL), sub(rng)),
        k => {
            let op = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Pow][k as usize - 3];
            Expr::Bin(op, sub(rng), sub(rng))
        }
    }
}

/// Every policy the cases rotate through, each with its compiled program;
/// a `FixedOrder` permutation is the slot past the end.
struct Lineup {
    policies: Vec<Box<dyn Policy>>,
    compiled: Vec<CompiledPolicy>,
    /// The `Learned` router's program.
    router: CompiledPolicy,
}

impl Lineup {
    /// The paper's eight, MultiFactor, the aging / ratio / linear residuals,
    /// one whose scores at `w = 0` are `0.0` or `-0.0` by width, one that
    /// overflows to `±inf` and (both terms at once) to the sanitizer's
    /// `f64::MAX`, and six random time-dependent trees.
    fn new() -> Self {
        let mut policies = paper_lineup();
        policies.push(Box::new(MultiFactor::default().for_platform(16)));
        for (name, source) in [
            ("aging", "log10(r)*n + 8.70e2*log10(s) - 1.5e-2*w"),
            ("linear", "inv(r)*n - w"),
            ("ratio", "-((w / (r + 1)) ^ 2) * sqrt(n)"),
            ("signed-zero", "w * (n - 3)"),
            ("overflow", "exp(w * n) - exp(w * r / 100)"),
        ] {
            policies.push(Box::new(ExprPolicy::parse(name, source).unwrap()));
        }
        let mut rng = Rng::new(SEED).fork(u64::MAX);
        while policies.len() < 20 {
            let name = format!("random-{}", policies.len());
            let policy = ExprPolicy::from_expr(name, random_expr(&mut rng, 4));
            if policy.time_dependent() {
                policies.push(Box::new(policy));
            }
        }
        let compiled = (policies.iter())
            .map(|p| p.compile().expect("every policy here compiles"))
            .collect::<Vec<_>>();
        for (p, cp) in policies.iter().zip(&compiled) {
            assert_eq!(cp.time_dependent(), p.time_dependent(), "{}", p.name());
        }
        let router = compile_expr("router", &parse_expr("w + r / n").unwrap());
        Lineup {
            policies,
            compiled,
            router,
        }
    }

    fn slot(&self, name: &str) -> usize {
        let found = self.policies.iter().position(|p| p.name() == name);
        found.expect("a lineup member")
    }

    fn get(&self, name: &str) -> &dyn Policy {
        self.policies[self.slot(name)].as_ref()
    }

    /// The four routers, rotated through by the 1-shard federation path.
    fn router(&self, k: usize) -> Router<'_> {
        match k % 4 {
            0 => Router::RoundRobin,
            1 => Router::LeastLoaded,
            2 => Router::LocalityAware { spill: 500.0 },
            _ => Router::Learned(&self.router),
        }
    }
}

/// One differential case: a trace, a config, a discipline, maybe faults.
#[derive(Clone)]
struct Case {
    index: usize,
    shape: Shape,
    /// Submit-sorted, so a job's index is its trace position.
    jobs: Vec<Job>,
    config: SchedulerConfig,
    /// Index into the lineup; `None` runs `FixedOrder(&ranks)`.
    policy: Option<usize>,
    ranks: Vec<usize>,
    faults: Faults,
}

impl Case {
    /// The disciplines whose paths are checked, the oracle's first.
    fn disciplines<'a>(&'a self, lineup: &'a Lineup) -> Vec<(&'static str, QueueDiscipline<'a>)> {
        match self.policy {
            Some(p) => {
                let interpreted = QueueDiscipline::Policy(lineup.policies[p].as_ref());
                let compiled = QueueDiscipline::Compiled(&lineup.compiled[p]);
                vec![("interpreted", interpreted), ("compiled", compiled)]
            }
            None => vec![("fixed order", QueueDiscipline::FixedOrder(&self.ranks))],
        }
    }

    fn schedule(&self) -> Option<AvailabilitySchedule> {
        match &self.faults {
            Faults::None => None,
            Faults::Steps(schedule) => Some(schedule.clone()),
            Faults::Expand(profile) => {
                let span = self.jobs.last().map_or(0.0, |j| j.submit);
                Some(profile.expand(self.config.platform.total_cores, span, 0))
            }
        }
    }

    fn without(&self, position: usize) -> Case {
        let mut smaller = self.clone();
        smaller.jobs.remove(position);
        smaller.ranks.remove(position);
        smaller
    }
}

/// Every shape's traces × the twelve configs × a discipline rotating by
/// trace and config: a trace's twelve slots start thirteen past the
/// previous trace's, so each (config, discipline) pair recurs and any three
/// traces in a row meet every slot. Under conservative backfilling a
/// hostile trace also runs FCFS, F1 and WFP, as `conservative_edges` did.
fn cases(lineup: &Lineup) -> Vec<Case> {
    let anchors = ["FCFS", "F1", "WFP"].map(|name| lineup.slot(name));
    let mut out = Vec::new();
    let mut trace = 0;
    for (shape, traces) in DOMAIN {
        for rep in 0..traces {
            let mut rng = Rng::new(SEED).fork(trace);
            let (cores, jobs) = shape.jobs(&mut rng);
            let faults = shape.faults(&mut rng, cores, &jobs, rep);
            let ranks = rng.permutation(jobs.len());
            for (k, config) in configs(cores).into_iter().enumerate() {
                let rotating = (13 * trace as usize + k) % (lineup.policies.len() + 1);
                let mut slots = vec![rotating];
                if let (Shape::Hostile(_), BackfillMode::Conservative) = (shape, config.backfill) {
                    slots.extend(anchors.into_iter().filter(|&a| a != rotating));
                }
                for slot in slots {
                    out.push(Case {
                        index: out.len(),
                        shape,
                        jobs: jobs.clone(),
                        config,
                        policy: (slot < lineup.policies.len()).then_some(slot),
                        ranks: ranks.clone(),
                        faults: faults.clone(),
                    });
                }
            }
            trace += 1;
        }
    }
    out
}

// ---- The checker ----

/// A path that disagreed with the oracle, panicked or returned an error.
#[derive(Debug)]
struct Failure {
    path: String,
    detail: String,
}

fn fail(path: &str, detail: impl Into<String>) -> Failure {
    Failure {
        path: path.to_string(),
        detail: detail.into(),
    }
}

/// Run one path: a panic or an engine error is a failure of that path.
fn at<R>(path: &str, f: impl FnOnce() -> Result<R, EngineError>) -> Result<R, Failure> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(got)) => Ok(got),
        Ok(Err(e)) => Err(fail(path, format!("engine error: {e}"))),
        Err(panic) => {
            let text = panic.downcast_ref::<String>().map(String::as_str);
            let message = text.or(panic.downcast_ref::<&str>().copied());
            Err(fail(path, format!("panicked: {}", message.unwrap_or("?"))))
        }
    }
}

/// Run one path and compare what it got with what the oracle wants.
fn expect<R: PartialEq + Debug>(
    path: &str,
    want: &R,
    f: impl FnOnce() -> Result<R, EngineError>,
) -> Result<(), Failure> {
    let got = at(path, f)?;
    match &got == want {
        true => Ok(()),
        false => Err(fail(path, format!("got  {got:?}\nwant {want:?}"))),
    }
}

/// What the checked paths reached, row by row: counts summed over the
/// cases, for the coverage table.
type Coverage = BTreeMap<String, u64>;

fn count(cov: &mut Coverage, row: &str, n: u64) {
    *cov.entry(row.to_string()).or_default() += n;
}

/// The special scores the domain must reach, scored at a wait of zero or
/// at the wait a job was started with.
const SPECIAL: [(f64, &str); 5] = [
    (0.0, "0.0"),
    (-0.0, "-0.0"),
    (f64::INFINITY, "inf"),
    (f64::NEG_INFINITY, "-inf"),
    (f64::MAX, "f64::MAX"),
];

/// The oracle's schedule is a legal one: every job once, completed or
/// abandoned; no start before the submit; each run lasting exactly its
/// execution time, at a bounded slowdown of at least 1; never more cores
/// busy than are online; a utilization between 0 and 1.
fn legal(
    jobs: &[Job],
    result: &SimulationResult,
    config: &SchedulerConfig,
    schedule: Option<&AvailabilitySchedule>,
) -> Result<(), String> {
    let mut reported: Vec<u32> = (result.completed.iter().map(|c| c.job.id))
        .chain(result.abandoned.iter().map(|a| a.job.id))
        .collect();
    reported.sort_unstable();
    let mut ids: Vec<u32> = jobs.iter().map(|j| j.id).collect();
    ids.sort_unstable();
    if reported != ids {
        return Err(format!("reported jobs {reported:?}, trace jobs {ids:?}"));
    }
    let mut edges = Vec::new();
    for c in &result.completed {
        let runs = config.execution_time(c.job.runtime, c.job.estimate);
        if c.start < c.job.submit || c.finish != c.start + runs {
            return Err(format!("{c:?} is not a {runs} s run after its submit"));
        }
        if c.bounded_slowdown(TAU) < 1.0 {
            return Err(format!("{c:?} has a bounded slowdown below 1"));
        }
        edges.push((c.start, i64::from(c.job.cores)));
        edges.push((c.finish, -i64::from(c.job.cores)));
    }
    edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let steps = schedule.map_or(&[][..], AvailabilitySchedule::steps);
    let mut busy = 0;
    for (k, &(t, delta)) in edges.iter().enumerate() {
        busy += delta;
        let online = (steps.iter().rev().find(|s| s.time <= t))
            .map_or(config.platform.total_cores, |s| s.capacity);
        if edges.get(k + 1).is_none_or(|next| next.0 != t) && busy > i64::from(online) {
            return Err(format!("{busy} cores busy from t = {t}, {online} online"));
        }
    }
    if !(0.0..=1.0 + 1e-9).contains(&result.utilization) {
        return Err(format!(
            "utilization {} is not a fraction",
            result.utilization
        ));
    }
    Ok(())
}

/// The conservation identities, exact on an integer trace: busy =
/// goodput + lost; busy + idle + offline = capacity × horizon, offline
/// read off the schedule's own steps; every abandoned job used up its
/// retries.
fn conserved(
    ws: &SimWorkspace,
    result: &SimulationResult,
    jobs: &[Job],
    cores: u32,
    schedule: &AvailabilitySchedule,
) -> Result<(), String> {
    let steps = schedule.steps();
    let horizon = result.makespan.max(steps.last().map_or(0.0, |s| s.time)) + 1.0;
    let goodput: f64 = (result.completed.iter())
        .map(|c| (c.finish - c.start) * f64::from(c.job.cores))
        .sum();
    let mut offline = 0.0;
    for (i, step) in steps.iter().enumerate() {
        let until = steps.get(i + 1).map_or(horizon, |s| s.time).min(horizon);
        if until > step.time {
            offline += f64::from(cores - step.capacity) * (until - step.time);
        }
    }
    let busy = ws.busy_core_seconds(horizon);
    let capacity = f64::from(cores) * horizon;
    let idle = capacity - busy - ws.offline_core_seconds(horizon);
    let retries = schedule.max_retries() + 1;
    let used_up = |a: &AbandonedJob| a.attempts == retries && jobs[a.idx as usize].id == a.job.id;
    let law = if busy != goodput + result.lost_core_seconds {
        "busy = goodput + lost"
    } else if ws.offline_core_seconds(horizon) != offline {
        "offline = the steps' integral"
    } else if idle < 0.0 || busy + idle + offline != capacity {
        "busy + idle + offline = capacity, idle >= 0"
    } else if !result.abandoned.iter().all(used_up) {
        "an abandoned job used up its retries"
    } else {
        return Ok(());
    };
    let lost = result.lost_core_seconds;
    Err(format!(
        "{law} fails: busy {busy}, goodput {goodput}, lost {lost}, offline {offline}, idle {idle}"
    ))
}

/// A checkpoint round trip: the prefix up to `horizon`, then the resume.
fn resume<T: TraceSource>(
    (ws, ckpt): &mut Rig,
    trace: &T,
    discipline: &QueueDiscipline<'_>,
    config: &SchedulerConfig,
    horizon: f64,
) -> SimulationResult {
    ws.run_prefix(trace, discipline, config, horizon, ckpt);
    ws.resume_from(ckpt, trace, discipline, config);
    ws.result()
}

/// A checkpoint round trip that keeps one number: the prefix up to
/// `horizon`, its completions folded into a seed over ids `first..`, then
/// the seeded resume — its average's bits, and the makespan it reports.
fn resume_metrics<T: TraceSource>(
    (ws, ckpt): &mut Rig,
    trace: &T,
    discipline: &QueueDiscipline<'_>,
    config: &SchedulerConfig,
    horizon: f64,
    first: u32,
) -> (Option<u64>, f64) {
    ws.run_prefix(trace, discipline, config, horizon, ckpt);
    let seed = ckpt.fold_prefix(TrialMetrics::new(first, TAU));
    let trial = ws.resume_metrics_from(ckpt, trace, discipline, config, seed);
    (
        trial.avg_bounded_slowdown().map(f64::to_bits),
        ws.makespan(),
    )
}

/// Jobs of `result` waiting at a checkpoint taken at `horizon`: arrived
/// before it, not started before it.
fn queued_at(result: &SimulationResult, horizon: f64) -> usize {
    (result.completed.iter())
        .filter(|c| c.job.submit < horizon && c.start >= horizon)
        .count()
}

/// Heads an on-demand pass picked after its first, summed over the start
/// instants of a fault-free run of `case` under a time-dependent
/// `policy`: at each instant, the longest run of the priority order over
/// the jobs waiting then (score at that instant, then queue position)
/// that started then, less one. The passes of one instant (a zero-length
/// job's completion reruns the pass) count as one.
fn later_heads(case: &Case, policy: &dyn Policy, oracle: &SimulationResult) -> u64 {
    let start: BTreeMap<u32, f64> = (oracle.completed.iter())
        .map(|c| (c.job.id, c.start))
        .collect();
    let mut instants: Vec<f64> = start.values().copied().collect();
    instants.sort_by(f64::total_cmp);
    instants.dedup();
    let mut later = 0;
    for t in instants {
        let waiting = case.jobs.iter().enumerate();
        let waiting = waiting.filter(|(_, j)| j.submit <= t && start[&j.id] >= t);
        let mut order: Vec<(f64, usize)> = waiting
            .map(|(i, j)| {
                let score = policy.score(&TaskView {
                    processing_time: case.config.decision_time(j.runtime, j.estimate),
                    cores: j.cores,
                    submit: j.submit,
                    now: t,
                });
                (score, i)
            })
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let started_then = |&&(_, i): &&(f64, usize)| start[&case.jobs[i].id] == t;
        let heads = order.iter().take_while(started_then).count() as u64;
        later += heads.saturating_sub(1);
    }
    later
}

/// A worker's reused state: one workspace and one checkpoint, carried
/// from case to case.
type Rig = (SimWorkspace, Checkpoint);

/// Every applicable fast path of `case` against the oracle.
fn check(case: &Case, lineup: &Lineup, rig: &mut Rig) -> Result<Coverage, Failure> {
    let trace = Trace::from_jobs(case.jobs.clone());
    let view = trace.to_view();
    let config = &case.config;
    let disciplines = case.disciplines(lineup);
    let reference = &disciplines[0].1;
    let oracle = simulate_reference(&trace, reference, config);
    legal(&case.jobs, &oracle, config, None).map_err(|e| fail("oracle legality", e))?;
    // The metrics oracle folds the list in completion order: its average
    // and makespan are the list's own, whichever sink summed them.
    let metrics = reference_metrics(&trace, reference, config, TAU);
    let folded = (oracle.avg_bounded_slowdown(TAU), oracle.makespan);
    let sums = || Ok((metrics.avg_bounded_slowdown(), metrics.makespan));
    expect("metrics oracle against the list's own sums", &folded, sums)?;

    let mut cov = Coverage::new();
    let mut starts: Vec<u64> = oracle.completed.iter().map(|c| c.start.to_bits()).collect();
    starts.sort_unstable();
    let widest = starts.chunk_by(|a, b| a == b).map(<[u64]>::len).max();
    let wide_pass = u64::from(widest >= Some(20));
    count(&mut cov, "passes starting 20 jobs or more", wide_pass);
    if let Some(p) = case.policy {
        let kind = ["static", "time-dependent"][usize::from(lineup.compiled[p].time_dependent())];
        count(&mut cov, &format!("cases under a {kind} policy"), 1);
        for c in &oracle.completed {
            for now in [c.job.submit, c.start] {
                let score = lineup.policies[p].score(&TaskView {
                    processing_time: config.decision_time(c.job.runtime, c.job.estimate),
                    cores: c.job.cores,
                    submit: c.job.submit,
                    now,
                });
                let hit = SPECIAL.iter().find(|(v, _)| v.to_bits() == score.to_bits());
                if let Some((_, name)) = hit {
                    count(&mut cov, &format!("scores of {name}"), 1);
                }
            }
        }
        // The compiled twin picks these heads from the score lane alone.
        let on_demand = match config.backfill {
            BackfillMode::None => Some("strict"),
            BackfillMode::Aggressive => Some("EASY"),
            BackfillMode::Conservative => None,
        };
        if let (true, Some(mode)) = (lineup.compiled[p].time_dependent(), on_demand) {
            let later = later_heads(case, lineup.policies[p].as_ref(), &oracle);
            count(&mut cov, &format!("on-demand later heads, {mode}"), later);
        }
    }

    let n = trace.len();
    let (mid, last) = (trace.submit(n / 2), trace.submit(n - 1) + 1.0);
    let empty = AvailabilitySchedule::empty();
    // `resume_metrics_from` counts the ids from a third of the way in, so a
    // prefix holds completions it counts and completions it skips.
    let first = (n / 3) as u32;
    let kept = |result: &SimulationResult| {
        let ave = result.avg_bounded_slowdown_of(&|id| id >= first, TAU);
        (ave.map(f64::to_bits), result.makespan)
    };
    let static_policy = case
        .policy
        .is_some_and(|p| !lineup.compiled[p].time_dependent());
    let mut sorted_ranks = case.ranks.clone();
    sorted_ranks.sort_unstable();
    let permutation = sorted_ranks.iter().enumerate().all(|(i, &r)| i == r);
    for (label, d) in &disciplines {
        let ws = &mut rig.0;
        let path = |step: &str| format!("{step} [{label}]");
        expect(&path("fresh simulate"), &oracle, || {
            Ok(simulate(&trace, d, config))
        })?;
        expect(&path("reused try_run, AoS"), &oracle, || {
            ws.try_run(&trace, d, config)?;
            Ok(ws.result())
        })?;
        let stats = ws.conservative_stats();
        if stats.reserved > stats.queued || stats.passes_started > stats.passes {
            return Err(fail(&path("conservative stats"), format!("{stats:?}")));
        }
        let skipped = stats.queued - stats.reserved;
        count(&mut cov, "conservative waiters skipped", skipped);
        expect(&path("reused run, SoA"), &oracle, || {
            ws.run(&view, d, config);
            Ok(ws.result())
        })?;
        expect(&path("run_metrics"), &metrics, || {
            Ok(ws.run_metrics(&view, d, config, TAU))
        })?;
        expect(&path("empty-schedule run_faulty"), &oracle, || {
            ws.run_faulty(&view, d, config, &empty)?;
            Ok(ws.result())
        })?;
        expect(&path("empty-schedule run_metrics_faulty"), &metrics, || {
            ws.run_metrics_faulty(&trace, d, config, &empty, TAU)
        })?;
        let horizons = [(0.0, "0"), (mid, "mid submit"), (last, "last submit + 1")];
        let horizons = horizons.into_iter().chain([(f64::INFINITY, "inf")]);
        for (horizon, at) in horizons {
            let resumed = |layout| path(&format!("resume from horizon {at}, {layout}"));
            let aos = || Ok(resume(rig, &trace, d, config, horizon));
            expect(&resumed("AoS"), &oracle, aos)?;
            let soa = || Ok(resume(rig, &view, d, config, horizon));
            expect(&resumed("SoA"), &oracle, soa)?;
            let counted = |layout| path(&format!("resume_metrics_from horizon {at}, {layout}"));
            let aos = || Ok(resume_metrics(rig, &trace, d, config, horizon, first));
            expect(&counted("AoS"), &kept(&oracle), aos)?;
            let soa = || Ok(resume_metrics(rig, &view, d, config, horizon, first));
            expect(&counted("SoA"), &kept(&oracle), soa)?;
            if case.policy.is_none() && permutation && queued_at(&oracle, horizon) >= 2 {
                count(&mut cov, "scatter re-key", 1);
            }
            if *label == "compiled" && static_policy && queued_at(&oracle, horizon) >= 2 {
                count(&mut cov, RESUME_ROW, 1);
            }
        }
        if case.policy.is_some() {
            let spec = FederationSpec::uniform(1, *config, lineup.router(case.index));
            let want = (vec![oracle.clone()], oracle.completed.clone());
            expect(&path("1-shard run_federation"), &want, || {
                let fed = run_federation(&trace, &spec, d)?;
                Ok((fed.shards, fed.completed))
            })?;
        }
    }

    // Rank tables the scatter re-key cannot take, so every resume under
    // them re-keys by the insertion-sort fallback: jobs that share ranks in
    // pairs, and distinct ranks past the trace's length.
    let tables = ["tied ranks", "ranks past the trace"];
    for table in tables.into_iter().filter(|_| case.policy.is_none()) {
        // Past the trace: `n` more where that fits in a `usize`; a rank
        // above `usize::MAX - n` is past the trace as it is.
        let derive = |&r: &usize| {
            if table == "tied ranks" {
                r / 2
            } else {
                r.checked_add(n).unwrap_or(r)
            }
        };
        let ranks: Vec<usize> = case.ranks.iter().map(derive).collect();
        let d = QueueDiscipline::FixedOrder(&ranks);
        let oracle = simulate_reference(&trace, &d, config);
        for (horizon, at) in [(mid, "mid submit"), (last, "last submit + 1")] {
            let fallback = u64::from(queued_at(&oracle, horizon) >= 2);
            count(&mut cov, "re-key fallback", fallback);
            let path = |step: &str| format!("{step} horizon {at} [fixed order, {table}]");
            let aos = || Ok(resume(rig, &trace, &d, config, horizon));
            expect(&path("resume from"), &oracle, aos)?;
            let soa = || Ok(resume_metrics(rig, &view, &d, config, horizon, first));
            expect(&path("resume_metrics_from"), &kept(&oracle), soa)?;
        }
    }

    let Some(schedule) = case.schedule() else {
        return Ok(cov);
    };
    let oracle = simulate_reference_faulty(&trace, reference, config, &schedule);
    legal(&case.jobs, &oracle, config, Some(&schedule)).map_err(|e| fail("oracle legality", e))?;
    let metrics = reference_metrics_faulty(&trace, reference, config, &schedule, TAU);
    // Every path below equals the oracle when it returns, so what it was
    // put through is what the oracle counts.
    let bites = [
        ("preemptions", oracle.preempted_jobs),
        ("abandonments", oracle.abandoned.len() as u64),
    ];
    for (what, n) in bites {
        count(&mut cov, &format!("{what} on {:?} traces", case.shape), n);
    }
    if config.backfill == BackfillMode::Conservative {
        let row = format!("preemptions on {:?} traces, conservative", case.shape);
        count(&mut cov, &row, oracle.preempted_jobs);
    }
    count(
        &mut cov,
        REQUEUE_ROW,
        u64::from(static_policy && oracle.preempted_jobs > 0),
    );
    let ws = &mut rig.0;
    for (label, d) in &disciplines {
        let path = |step: &str| format!("{step} [{label}]");
        let mut bitten = |step: &str| {
            for (what, n) in bites {
                count(&mut cov, &format!("{what}, {}", path(step)), n);
            }
        };
        expect(&path("faulty run, AoS"), &oracle, || {
            ws.run_faulty(&trace, d, config, &schedule)?;
            Ok(ws.result())
        })?;
        bitten("faulty run, AoS");
        if case.shape == Shape::Integer {
            let cores = config.platform.total_cores;
            conserved(ws, &oracle, &case.jobs, cores, &schedule)
                .map_err(|e| fail(&path("conservation"), e))?;
        }
        expect(&path("faulty run, SoA, fresh workspace"), &oracle, || {
            let mut fresh = SimWorkspace::new();
            fresh.run_faulty(&view, d, config, &schedule)?;
            Ok(fresh.take_result())
        })?;
        bitten("faulty run, SoA, fresh workspace");
        expect(&path("run_metrics_faulty"), &metrics, || {
            ws.run_metrics_faulty(&view, d, config, &schedule, TAU)
        })?;
        bitten("run_metrics_faulty");
        if let (Faults::Expand(profile), Some(_)) = (&case.faults, case.policy) {
            let spec = FederationSpec::uniform(1, *config, lineup.router(case.index));
            let want = (vec![oracle.clone()], oracle.completed.clone());
            expect(&path("1-shard run_federation_faulty"), &want, || {
                let fed = run_federation_faulty(&trace, &spec, d, profile)?;
                Ok((fed.shards, fed.completed))
            })?;
            bitten("1-shard run_federation_faulty");
        }
    }
    Ok(cov)
}

// ---- Failure report and coverage table ----

/// Cases whose static compiled run requeues a preempted job: it is keyed
/// again at its own trace position, wherever the key window stands.
const REQUEUE_ROW: &str = "cases requeueing a preempted job [compiled, static]";
/// Resumes of a static compiled run that re-key a restored queue of two
/// jobs or more in one batch call.
const RESUME_ROW: &str = "resumes re-keying a restored queue [compiled, static]";

/// Drop one job at a time while the same path still disagrees, until no
/// single job can go.
fn shrink(case: &Case, lineup: &Lineup, path: &str) -> (Case, Failure) {
    let mut rig = (SimWorkspace::new(), Checkpoint::new());
    let mut case = case.clone();
    let mut failure = check(&case, lineup, &mut rig).expect_err("the case failed once");
    let mut progress = true;
    while progress {
        progress = false;
        let mut position = 0;
        while position < case.jobs.len() && case.jobs.len() > 1 {
            let smaller = case.without(position);
            match check(&smaller, lineup, &mut rig) {
                Err(f) if f.path == path => (case, failure, progress) = (smaller, f, true),
                _ => position += 1,
            }
        }
    }
    (case, failure)
}

fn report(case: &Case, lineup: &Lineup, failure: &Failure) -> String {
    let (shrunk, failure) = shrink(case, lineup, &failure.path);
    let discipline = match case.policy {
        Some(p) => lineup.policies[p].name().to_string(),
        None => format!("FixedOrder(&{:?})", shrunk.ranks),
    };
    let mut jobs = String::new();
    for j in &shrunk.jobs {
        let (id, s, r, e, c) = (j.id, j.submit, j.runtime, j.estimate, j.cores);
        jobs += &format!("    Job::new({id}, {s:?}, {r:?}, {e:?}, {c}),\n");
    }
    format!(
        "oracle disagreement: seed {SEED:#x}, case {} — {:?}, {discipline}, {:?}\n\
         path `{}`:\n{}\n\
         shrunk from {} to {} jobs; faults {:?}; schedule {:?}\n{jobs}",
        case.index,
        case.shape,
        case.config,
        failure.path,
        failure.detail,
        case.jobs.len(),
        shrunk.jobs.len(),
        shrunk.faults,
        shrunk.schedule().map(|s| s.steps().to_vec()),
    )
}

/// Every row the domain needs to reach to mean anything.
fn domain_rows() -> Vec<(String, u64)> {
    let mut want = vec![
        ("passes starting 20 jobs or more".to_string(), 1),
        ("conservative waiters skipped".to_string(), 1_001),
        ("cases under a static policy".to_string(), 1),
        ("cases under a time-dependent policy".to_string(), 1),
    ];
    want.extend(SPECIAL.map(|(_, name)| (format!("scores of {name}"), 1)));
    for mode in ["strict", "EASY"] {
        want.push((format!("on-demand later heads, {mode}"), 101));
    }
    want.push(("scatter re-key".to_string(), 1));
    want.push(("re-key fallback".to_string(), 1));
    want.push((REQUEUE_ROW.to_string(), 1));
    want.push((RESUME_ROW.to_string(), 1));
    for (shape, _) in DOMAIN {
        for what in ["preemptions", "abandonments"] {
            want.push((format!("{what} on {shape:?} traces"), 1));
        }
        if let Shape::Hostile(_) = shape {
            // `conservative_edges`' bar: the schedules must bite.
            let row = format!("preemptions on {shape:?} traces, conservative");
            want.push((row, 101));
        }
    }
    for label in ["interpreted", "compiled", "fixed order"] {
        for step in [
            "faulty run, AoS",
            "faulty run, SoA, fresh workspace",
            "run_metrics_faulty",
            "1-shard run_federation_faulty",
        ] {
            if label == "fixed order" && step.starts_with("1-shard") {
                continue; // fixed ranks do not federate
            }
            for what in ["preemptions", "abandonments"] {
                want.push((format!("{what}, {step} [{label}]"), 1));
            }
        }
    }
    want
}

/// A coverage table: each row of `want` beside what `cov` counted,
/// printed and asserted.
fn assert_covered(cov: &Coverage, want: &[(String, u64)]) {
    let mut table = String::new();
    for (row, least) in want {
        let got = cov.get(row).copied().unwrap_or(0);
        let mark = if got >= *least { "ok" } else { "--" };
        table += &format!("  [{mark}] {row}: {got} (want ≥ {least})\n");
    }
    println!("coverage:\n{table}");
    let reached = want
        .iter()
        .all(|(row, least)| cov.get(row).is_some_and(|got| got >= least));
    assert!(reached, "the domain stopped reaching a row:\n{table}");
}

/// Every case through [`check`] on the pool, each case's coverage in case
/// order; the first disagreement panics with its shrunk report.
fn check_all(cases: &[Case], lineup: &Lineup) -> Vec<Coverage> {
    let rig = || (SimWorkspace::new(), Checkpoint::new());
    let outcomes = par_map_scoped(cases, rig, |case, rig| check(case, lineup, rig));
    let reported = |(case, outcome): (&Case, Result<Coverage, Failure>)| {
        outcome.unwrap_or_else(|failure| panic!("{}", report(case, lineup, &failure)))
    };
    cases.iter().zip(outcomes).map(reported).collect()
}

/// The one 1-vs-n fan-out: `f` over `items` on the pool at its natural
/// width and at one worker — which runs inline on this thread, so a
/// fan-out inside `f` is capped too. The two must be equal.
fn at_both_widths<T: Sync, U: Send + PartialEq + Debug>(
    items: &[T],
    f: impl Fn(&T, &mut SimWorkspace) -> U + Sync,
) -> Vec<U> {
    let run = || par_map_scoped(items, SimWorkspace::new, &f);
    let wide = run();
    let narrow = with_worker_limit(1, run);
    if let Some(i) = wide.iter().zip(&narrow).position(|(a, b)| a != b) {
        let (a, b) = (&wide[i], &narrow[i]);
        panic!("item {i} depends on the worker count:\n{a:?}\n{b:?}");
    }
    wide
}

#[test]
fn every_fast_path_equals_the_oracle() {
    let lineup = Lineup::new();
    let cases = cases(&lineup);
    let mut cov = Coverage::new();
    for seen in check_all(&cases, &lineup) {
        seen.iter().for_each(|(row, &n)| count(&mut cov, row, n));
    }
    assert_covered(&cov, &domain_rows());
    // The evaluation session's pattern — one reused workspace per worker,
    // cells claimed in any order — over the whole case list: what each
    // case's fastest discipline streams (checked against the oracle above)
    // must not depend on the worker count.
    at_both_widths(&cases, |case, ws| {
        let trace = Trace::from_jobs(case.jobs.clone());
        let schedule = case.schedule().unwrap_or_else(AvailabilitySchedule::empty);
        let fastest = case.disciplines(&lineup).pop().expect("one at least").1;
        ws.run_metrics_faulty(&trace, &fastest, &case.config, &schedule, TAU)
    });
}

// ---- Named inputs: traces `check` takes as they are ----

/// Estimates decide, no walltime kills, `backfill` on `cores` cores.
fn on_estimates(cores: u32, backfill: BackfillMode) -> SchedulerConfig {
    SchedulerConfig {
        backfill,
        ..SchedulerConfig::user_estimates(Platform::new(cores))
    }
}

/// The narrowest-waiter gate, armed and re-armed (`engine/tests.rs`'
/// `gated_passes_are_unobservable` reads its width). On 8 cores job 0
/// pins the machine exactly full over three arrivals, the narrowest width
/// falling 4 → 2; at t=100 the narrowest waiter starts and the width is
/// recomputed (6, with 2 cores free: armed again); a 1-core arrival
/// re-opens the pass; job 8 pins the machine full a second time, late. The
/// drop to 5 cores at t=100.5 kills the youngest starts, so the former
/// narrowest waiter is requeued beside the wide one.
fn gate_cases(lineup: &Lineup, out: &mut Vec<Case>) {
    let jobs = vec![
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
    ];
    let steps = [(100.5, 5), (120.0, 8)].map(|(time, capacity)| CapacityStep { time, capacity });
    let faults = Faults::Steps(AvailabilitySchedule::from_steps(steps.to_vec(), 3));
    for backfill in [BackfillMode::Aggressive, BackfillMode::Conservative] {
        for name in ["FCFS", "F1", "WFP", "UNI"] {
            out.push(Case {
                index: out.len(),
                shape: Shape::Named("gate"),
                jobs: jobs.clone(),
                config: on_estimates(8, backfill),
                policy: Some(lineup.slot(name)),
                ranks: (0..jobs.len()).collect(),
                faults: faults.clone(),
            });
        }
    }
}

/// A standing backlog behind the static-order live window
/// (`engine/tests.rs`' `front_removal_is_unobservable` reads the window):
/// 480 jobs on 16 cores in bursts of equal submit times, five runtimes and
/// two estimate factors (tied SPT keys, tied expected ends), 16-wide jobs
/// that pin the machine exactly full, and every 40th job a one-second,
/// one-core sprinter that SPT and the rank table put ahead of any waiting
/// head. All but one core go away at the first cut half a second after a
/// sprinter's arrival with more than one core busy — the window has a
/// dead prefix there — and come back in three steps.
fn backlog_cases(lineup: &Lineup, out: &mut Vec<Case>) {
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
    let busy_at = |run: &SimulationResult, t: f64| -> u32 {
        let running = run.completed.iter().filter(|c| c.start < t && t < c.finish);
        running.map(|c| c.job.cores).sum()
    };
    for backfill in [
        BackfillMode::None,
        BackfillMode::Aggressive,
        BackfillMode::Conservative,
    ] {
        for name in [None, Some("FCFS"), Some("SPT"), Some("F1")] {
            let mut case = Case {
                index: out.len(),
                shape: Shape::Named("backlog"),
                jobs: trace.jobs().to_vec(),
                config: on_estimates(CORES, backfill),
                policy: name.map(|name| lineup.slot(name)),
                ranks: ranks.clone(),
                faults: Faults::None,
            };
            // Placed off the fastest path's schedule, which `check` holds
            // to the oracle's.
            let fastest = case.disciplines(lineup).pop().expect("one at least").1;
            let run = simulate(&trace, &fastest, &case.config);
            let mut cuts = sprinters.iter().map(|&s| trace.submit(s) + 0.5);
            let drop_at = cuts.find(|&t| busy_at(&run, t) > 1).expect("a busy cut");
            let steps = [(0.0, 1), (60.0, CORES), (200.0, CORES / 4), (240.0, CORES)];
            let steps = steps.map(|(after, capacity)| CapacityStep {
                time: drop_at + after,
                capacity,
            });
            case.faults = Faults::Steps(AvailabilitySchedule::from_steps(steps.to_vec(), 3));
            out.push(case);
        }
    }
}

/// The gate and backlog traces through every path of [`check`], as a
/// generated case is: every fast path equals the oracle, and each case's
/// capacity drop bites.
#[test]
fn gate_and_backlog_inputs_equal_the_oracle_on_every_path() {
    let lineup = Lineup::new();
    let mut cases = Vec::new();
    gate_cases(&lineup, &mut cases);
    backlog_cases(&lineup, &mut cases);
    for (case, seen) in cases.iter().zip(check_all(&cases, &lineup)) {
        let row = format!("preemptions on {:?} traces", case.shape);
        let discipline = case.policy.map_or("ranks", |p| lineup.policies[p].name());
        let what = format!("{:?}, {discipline}, {:?}", case.shape, case.config.backfill);
        assert!(
            seen.get(&row).is_some_and(|&n| n > 0),
            "{what}: the drop must bite"
        );
    }
}

/// Passes that start three heads or more on demand: the heads after the
/// first come from the score lane alone (`engine/tests.rs` holds the
/// search's fallback for a score with the started mark's bits). On 8
/// cores jobs 0 and 1 hold the machine full while seven narrow jobs
/// queue — six of one core and one of two, eight cores in all. Job 0's
/// end frees six: under any order the pass starts at least three of them
/// before the queue blocks, and what is left starts as cores free up.
/// WFP, UNI and a random time-dependent tree, strict and EASY.
fn head_cases(lineup: &Lineup, out: &mut Vec<Case>) {
    let mut jobs = vec![
        Job::new(0, 0.0, 100.0, 100.0, 6),
        Job::new(1, 0.0, 1_000.0, 1_000.0, 2),
    ];
    for (i, runtime) in [10.0, 20.0, 30.0, 40.0, 5.0, 5.0].into_iter().enumerate() {
        let id = i as u32 + 2;
        jobs.push(Job::new(id, id as f64, runtime, runtime * 2.0, 1));
    }
    jobs.push(Job::new(8, 8.0, 50.0, 60.0, 2));
    let tree = (lineup.policies.iter())
        .position(|p| p.name().starts_with("random-"))
        .expect("the lineup holds random time-dependent trees");
    for backfill in [BackfillMode::None, BackfillMode::Aggressive] {
        for policy in [lineup.slot("WFP"), lineup.slot("UNI"), tree] {
            out.push(Case {
                index: out.len(),
                shape: Shape::Named("heads"),
                jobs: jobs.clone(),
                config: on_estimates(8, backfill),
                policy: Some(policy),
                ranks: (0..jobs.len()).collect(),
                faults: Faults::None,
            });
        }
    }
}

/// The heads traces through every path of [`check`]: every fast path
/// equals the oracle, and each case's on-demand passes pick two heads or
/// more after their first.
#[test]
fn passes_of_three_heads_or_more_equal_the_oracle_on_every_path() {
    let lineup = Lineup::new();
    let mut cases = Vec::new();
    head_cases(&lineup, &mut cases);
    for (case, seen) in cases.iter().zip(check_all(&cases, &lineup)) {
        let mode = ["strict", "EASY"][usize::from(case.config.backfill != BackfillMode::None)];
        let later = seen.get(&format!("on-demand later heads, {mode}"));
        let policy = lineup.policies[case.policy.expect("a policy")].name();
        assert!(
            later.is_some_and(|&n| n >= 2),
            "{policy}, {mode}: {later:?}"
        );
    }
}

/// Fixed ranks the API accepts but an `f64` key cannot tell apart. On 2
/// cores job 0, ranked `usize::MAX`, holds the machine while five 1-core
/// jobs queue, ranked 2^53 + 1 and 2^53 (one `f64`), and
/// `usize::MAX - 6` and `usize::MAX - 7` (one `f64` again, and negative
/// as `i64`), with a rank of 7 ahead of them all; `check`'s
/// past-the-trace table adds 6 to each rank that has room, which reaches
/// `usize::MAX` itself, and keeps job 0's. Every rank is at least the
/// trace's length, so each resume re-keys by the insertion-sort
/// fallback. The drop to one core at t=12 kills a start of t=10, which
/// requeues with its rank.
fn rank_cases(out: &mut Vec<Case>) {
    let jobs = vec![
        Job::new(0, 0.0, 10.0, 10.0, 2),
        Job::new(1, 1.0, 4.0, 4.0, 1),
        Job::new(2, 2.0, 4.0, 4.0, 1),
        Job::new(3, 3.0, 4.0, 4.0, 1),
        Job::new(4, 4.0, 4.0, 4.0, 1),
        Job::new(5, 5.0, 4.0, 4.0, 1),
    ];
    let n = jobs.len();
    let ranks = vec![
        usize::MAX,
        usize::MAX - n,
        (1 << 53) + 1,
        1 << 53,
        7,
        usize::MAX - n - 1,
    ];
    let steps = [(12.0, 1), (20.0, 2)].map(|(time, capacity)| CapacityStep { time, capacity });
    let faults = Faults::Steps(AvailabilitySchedule::from_steps(steps.to_vec(), 3));
    for backfill in [
        BackfillMode::None,
        BackfillMode::Aggressive,
        BackfillMode::Conservative,
    ] {
        out.push(Case {
            index: out.len(),
            shape: Shape::Named("ranks"),
            jobs: jobs.clone(),
            config: on_estimates(2, backfill),
            policy: None,
            ranks: ranks.clone(),
            faults: faults.clone(),
        });
    }
}

/// The ranks traces through every path of [`check`]: every fast path
/// orders ranks past 2^53 and past 2^63 as the oracle does, each case
/// re-keys a restored queue by the fallback, and its drop bites.
#[test]
fn ranks_that_share_an_f64_order_as_integers_on_every_path() {
    let lineup = Lineup::new();
    let mut cases = Vec::new();
    rank_cases(&mut cases);
    for (case, seen) in cases.iter().zip(check_all(&cases, &lineup)) {
        let backfill = case.config.backfill;
        for row in ["re-key fallback", "preemptions on Named(\"ranks\") traces"] {
            let reached = seen.get(row).is_some_and(|&n| n > 0);
            assert!(reached, "{backfill:?}: {row} not reached");
        }
    }
}

/// The edges of the window a static compiled policy's keys are
/// batch-scored in: the engine scores [`KEY_WINDOW`] trace positions ahead
/// of the arrivals per call (128), so traces of 127, 128, 129 and 257 jobs
/// end inside the first window, on its edge, one past it and one past the
/// second. On 4 cores job 0 holds two from t = 0; the rest arrive 0–2 s
/// apart (same-instant arrivals straddle window edges), 1–2 cores wide,
/// twenty times more work than the two other cores can take, so the queue
/// stands deep and the three orders differ. All cores go away half a
/// second after the arrival three quarters in, so every running job —
/// job 0 always, and in the longest trace, with the arrivals past 128,
/// from behind the window — is requeued and keyed again, then the cores
/// come back. FCFS, SPT and F1, strict and EASY.
fn window_cases(lineup: &Lineup, out: &mut Vec<Case>) {
    const CORES: u32 = 4;
    let w = KEY_WINDOW;
    for len in [w - 1, w, w + 1, 2 * w + 1] {
        let mut rng = Rng::new(0xA4EAD).fork(len as u64);
        let mut jobs = vec![Job::new(0, 0.0, 5_000.0, 6_000.0, 2)];
        let mut submit = 0.0;
        for i in 1..len as u32 {
            submit += rng.next_below(3) as f64;
            let runtime = *rng.choose(&[5.0, 10.0, 20.0, 40.0, 80.0]);
            let estimate = runtime * *rng.choose(&[1.0, 2.0]);
            jobs.push(Job::new(
                i,
                submit,
                runtime,
                estimate,
                *rng.choose(&[1, 1, 2]),
            ));
        }
        let drop_at = jobs[3 * len / 4].submit + 0.5;
        let steps = [(drop_at, 0), (drop_at + 50.0, CORES)];
        let steps = steps.map(|(time, capacity)| CapacityStep { time, capacity });
        let faults = Faults::Steps(AvailabilitySchedule::from_steps(steps.to_vec(), 3));
        for backfill in [BackfillMode::None, BackfillMode::Aggressive] {
            for name in ["FCFS", "SPT", "F1"] {
                out.push(Case {
                    index: out.len(),
                    shape: Shape::Named("window"),
                    jobs: jobs.clone(),
                    config: on_estimates(CORES, backfill),
                    policy: Some(lineup.slot(name)),
                    ranks: (0..jobs.len()).collect(),
                    faults: faults.clone(),
                });
            }
        }
    }
}

/// The window traces through every path of [`check`]: every fast path
/// equals the oracle, and each case both requeues preempted jobs and
/// resumes a queue of two jobs or more under its static compiled policy.
#[test]
fn key_window_edges_equal_the_oracle_on_every_path() {
    let lineup = Lineup::new();
    let mut cases = Vec::new();
    window_cases(&lineup, &mut cases);
    for (case, seen) in cases.iter().zip(check_all(&cases, &lineup)) {
        let policy = lineup.policies[case.policy.expect("a policy")].name();
        let what = format!(
            "{} jobs, {policy}, {:?}",
            case.jobs.len(),
            case.config.backfill
        );
        for row in [REQUEUE_ROW, RESUME_ROW] {
            let reached = seen.get(row).is_some_and(|&n| n > 0);
            assert!(reached, "{what}: {row} not reached");
        }
    }
}

// ---- Named cases: a different contract than a differential path ----

/// A warm-up trace from the generator: cores, trace, warm-up count.
fn warmup_trace(stream: u64) -> (u32, Trace, usize) {
    let (cores, jobs) = Shape::Warmup.jobs(&mut Rng::new(SEED).fork(stream));
    let warmup = jobs.iter().take_while(|j| j.submit == 0.0).count();
    (cores, Trace::from_jobs(jobs), warmup)
}

/// A trial's rank table: the first `warmup` positions keep their order
/// (every pre-horizon pass decides as under the identity), the tail is
/// shuffled.
fn fork_ranks(n: usize, warmup: usize, seed: u64) -> Vec<usize> {
    let mut tail: Vec<usize> = (warmup..n).collect();
    Rng::new(seed).shuffle(&mut tail);
    (0..warmup).chain(tail).collect()
}

/// Fork `ckpt` under eight trial rank tables, resuming over `source`, and
/// check each resume against a scratch run of `trace` under its own ranks.
fn forks_match_scratch<T: TraceSource>(
    ws: &mut SimWorkspace,
    ckpt: &Checkpoint,
    source: &T,
    trace: &Trace,
    config: &SchedulerConfig,
    warmup: usize,
    seed: u64,
) -> Vec<SimulationResult> {
    let forks = (0..8).map(|fork| fork_ranks(trace.len(), warmup, seed ^ fork));
    let check = |ranks: Vec<usize>| {
        let discipline = QueueDiscipline::FixedOrder(&ranks);
        ws.resume_from(ckpt, source, &discipline, config);
        let scratch = simulate(trace, &discipline, config);
        assert_eq!(ws.result(), scratch, "ranks {ranks:?}, {config:?}");
        scratch
    };
    forks.map(check).collect()
}

/// The trial kernel's exact usage: the prefix runs under identity ranks,
/// each fork resumes under a *different* rank table that agrees with it on
/// every warm-up job. Every fork must equal a scratch run under its ranks.
#[test]
fn trial_style_forks_match_scratch_runs() {
    let mut ws = SimWorkspace::new();
    let mut ckpt = Checkpoint::new();
    for stream in 0..2 {
        let (cores, trace, warmup) = warmup_trace(0x7121A + stream);
        let view = trace.to_view();
        let n = trace.len();
        let identity: Vec<usize> = (0..n).collect();
        for config in configs(cores) {
            let prefix = QueueDiscipline::FixedOrder(&identity);
            ws.run_prefix(&view, &prefix, &config, trace.submit(warmup), &mut ckpt);
            assert_eq!(
                (ckpt.jobs(), ckpt.arrivals_processed()),
                (n, warmup),
                "exactly the warm-up batch arrives before the first probe"
            );
            forks_match_scratch(&mut ws, &ckpt, &view, &trace, &config, warmup, 0xBEEF);
        }
    }
}

/// Forks from a horizon where probe jobs are already *waiting*: the prefix
/// keyed them by the identity ranks, so the resume must re-key and re-sort
/// the restored queue under its own. Sound for every fork: job 0 holds
/// every core, so each pre-horizon pass stops at the first warm-up job,
/// which all rank tables here order identically.
#[test]
fn fork_with_queued_probes_rekeys_the_restored_queue() {
    let (cores, warmup, probes) = (16, 6, 10);
    let mut jobs = vec![Job::new(0, 0.0, 10_000.0, 10_000.0, cores)];
    for i in 1..warmup as u32 {
        let runtime = 500.0 * i as f64;
        jobs.push(Job::new(i, 0.0, runtime, runtime, 3));
    }
    let mut rng = Rng::new(0x9E4B);
    let mut now = 0.0;
    for p in 0..probes {
        now += rng.range_f64(100.0, 700.0);
        let runtime = rng.range_f64(100.0, 2_000.0);
        let width = rng.range_u64(1, cores as u64 - 1) as u32;
        jobs.push(Job::new((warmup + p) as u32, now, runtime, runtime, width));
    }
    assert!(now < 10_000.0, "every probe must arrive while job 0 runs");
    let trace = Trace::from_jobs(jobs);
    let n = trace.len();
    let config = SchedulerConfig::actual_runtimes(Platform::new(cores));
    let identity: Vec<usize> = (0..n).collect();
    let mut ws = SimWorkspace::new();
    let mut ckpt = Checkpoint::new();
    let prefix = QueueDiscipline::FixedOrder(&identity);
    ws.run_prefix(&trace, &prefix, &config, 10_000.0, &mut ckpt);
    assert_eq!(ckpt.arrivals_processed(), n, "every probe is queued");
    assert_eq!(ckpt.completed_jobs(), 0, "job 0 finishes at the horizon");
    forks_match_scratch(&mut ws, &ckpt, &trace, &trace, &config, warmup, 0xD00D);
}

/// Forks under fixed orders the scatter re-key cannot take — the probes
/// share ranks in pairs, in every other fork past the trace's length too —
/// re-sort the restored queue by the insertion-sort fallback: equal ranks
/// keep their arrival order, and both resumes equal a scratch run under
/// the same ranks. Sound for the reason the fork above is: job 0 holds
/// every core until the horizon, and the warm-up jobs keep their identity
/// ranks.
#[test]
fn forks_under_tied_out_of_range_ranks_take_the_fallback() {
    let (cores, warmup, probes) = (16, 6, 10);
    let mut jobs = vec![Job::new(0, 0.0, 10_000.0, 10_000.0, cores)];
    for i in 1..warmup as u32 {
        let runtime = 500.0 * i as f64;
        jobs.push(Job::new(i, 0.0, runtime, runtime, 3));
    }
    let mut rng = Rng::new(0x71ED);
    for p in 0..probes {
        let runtime = rng.range_f64(100.0, 2_000.0);
        let width = rng.range_u64(1, cores as u64 - 1) as u32;
        let id = (warmup + p) as u32;
        jobs.push(Job::new(
            id,
            500.0 * (p + 1) as f64,
            runtime,
            runtime,
            width,
        ));
    }
    let trace = Trace::from_jobs(jobs);
    let n = trace.len();
    let config = SchedulerConfig::actual_runtimes(Platform::new(cores));
    let identity: Vec<usize> = (0..n).collect();
    let unforked = simulate(&trace, &QueueDiscipline::FixedOrder(&identity), &config);
    let mut ws = SimWorkspace::new();
    let mut ckpt = Checkpoint::new();
    let prefix = QueueDiscipline::FixedOrder(&identity);
    ws.run_prefix(&trace, &prefix, &config, 10_000.0, &mut ckpt);
    assert_eq!(ckpt.arrivals_processed(), n, "every probe is queued");
    let first = warmup as u32;
    let mut reordered = false;
    for fork in 0..8 {
        let paired = Rng::new(0x71ED ^ fork).permutation(probes);
        let from = [warmup, n][fork as usize % 2];
        let ranks: Vec<usize> = (0..warmup)
            .chain(paired.iter().map(|r| from + r / 2))
            .collect();
        let discipline = QueueDiscipline::FixedOrder(&ranks);
        let scratch = simulate(&trace, &discipline, &config);
        reordered |= scratch != unforked;
        ws.resume_from(&ckpt, &trace, &discipline, &config);
        assert_eq!(ws.result(), scratch, "ranks {ranks:?}");
        let seed = ckpt.fold_prefix(TrialMetrics::new(first, TAU));
        let trial = ws.resume_metrics_from(&ckpt, &trace, &discipline, &config, seed);
        let want = scratch.avg_bounded_slowdown_of(&|id| id >= first, TAU);
        let got = trial.avg_bounded_slowdown();
        assert_eq!(
            got.map(f64::to_bits),
            want.map(f64::to_bits),
            "ranks {ranks:?}"
        );
        assert_eq!(ws.makespan(), scratch.makespan, "ranks {ranks:?}");
    }
    assert!(reordered, "some fork must schedule the probes differently");
}

/// Forks from just after a pass started the *front* of a standing queue:
/// a static order leaves those entries behind a cursor, and the checkpoint
/// must hold the waiting jobs alone. Job 0 holds the machine until t=100;
/// at t=100 five 3-core warm-up jobs start, one core stays free and
/// nothing else fits in any backfilling mode, so every pre-horizon pass
/// is decided inside the warm-up region.
#[test]
fn fork_from_a_queue_whose_front_has_started() {
    let (cores, warmup, probes) = (16, 9, 10);
    let mut jobs = vec![Job::new(0, 0.0, 100.0, 100.0, cores)];
    for i in 1..warmup as u32 {
        let runtime = 500.0 * i as f64;
        jobs.push(Job::new(i, 0.0, runtime, runtime, 3));
    }
    let mut rng = Rng::new(0x51DE);
    for p in 0..probes {
        let runtime = rng.range_f64(100.0, 2_000.0);
        let width = rng.range_u64(2, cores as u64 - 1) as u32;
        let id = (warmup + p) as u32;
        jobs.push(Job::new(id, 1.0 + 9.0 * p as f64, runtime, runtime, width));
    }
    let trace = Trace::from_jobs(jobs);
    let n = trace.len();
    let identity: Vec<usize> = (0..n).collect();
    let mut ws = SimWorkspace::new();
    let mut ckpt = Checkpoint::new();
    // Actual runtimes, no walltime kills, under each backfilling mode.
    for config in configs(cores).into_iter().step_by(2).take(3) {
        let prefix = QueueDiscipline::FixedOrder(&identity);
        ws.run_prefix(&trace, &prefix, &config, 150.0, &mut ckpt);
        assert_eq!(ckpt.arrivals_processed(), n);
        assert_eq!(ckpt.completed_jobs(), 1, "only job 0 has finished");
        for resumed in forks_match_scratch(&mut ws, &ckpt, &trace, &trace, &config, warmup, 0xF00D)
        {
            let by_id = resumed.by_id();
            assert!(
                (1..6).all(|id| by_id[&id].start == 100.0) && by_id[&6].start > 150.0,
                "the horizon must fall between the front's start and the next"
            );
        }
    }
}

/// One shared immutable checkpoint forked across the pool: equal at one
/// worker and at the natural width, and to the scratch runs.
#[test]
fn shared_checkpoint_fanout_is_thread_count_independent() {
    let (cores, trace, warmup) = warmup_trace(0x5A4ED);
    let view = trace.to_view();
    let n = trace.len();
    let config = SchedulerConfig::actual_runtimes(Platform::new(cores));
    let identity: Vec<usize> = (0..n).collect();
    let mut ckpt = Checkpoint::new();
    let prefix = QueueDiscipline::FixedOrder(&identity);
    SimWorkspace::new().run_prefix(&view, &prefix, &config, trace.submit(warmup), &mut ckpt);
    let rank_sets: Vec<Vec<usize>> = (0..32).map(|f| fork_ranks(n, warmup, 0xABC ^ f)).collect();
    let forks = at_both_widths(&rank_sets, |ranks, ws| {
        ws.resume_from(&ckpt, &view, &QueueDiscipline::FixedOrder(ranks), &config);
        ws.result()
    });
    for (ranks, got) in rank_sets.iter().zip(&forks) {
        let want = simulate(&trace, &QueueDiscipline::FixedOrder(ranks), &config);
        assert_eq!(got, &want, "fork diverged from scratch");
    }
}

/// A checkpoint and a workspace carry capacity between captures, never
/// state: recaptures over other traces, interleaved with full, faulty,
/// metrics-only and conservative runs, leave every result equal to a
/// fresh-object run.
#[test]
fn checkpoint_and_workspace_reuse_carry_no_state() {
    let lineup = Lineup::new();
    let compiled = |name| &lineup.compiled[lineup.slot(name)];
    // EASY on estimates, and strict scheduling — the only mode whose pass
    // stops at the first head that does not fit and waits.
    let configs = [
        SchedulerConfig::estimates_with_backfilling(Platform::new(16)),
        SchedulerConfig::actual_runtimes(Platform::new(16)),
    ];
    // Two outages down to 2 of 16 cores, one requeue allowed: wide jobs
    // caught by both are abandoned.
    let steps = [(1_000.0, 2), (1_500.0, 16), (2_500.0, 2), (3_000.0, 16)];
    let steps = steps.map(|(time, capacity)| CapacityStep { time, capacity });
    let outages = AvailabilitySchedule::from_steps(steps.to_vec(), 1);
    let mut rng = Rng::new(SEED).fork(0x2E05E);
    let mut ws = SimWorkspace::new();
    let mut ckpt = Checkpoint::new();
    for case in 0..6 {
        let trace = Trace::from_jobs(Shape::Uniform.jobs(&mut rng).1);
        let pollute = Trace::from_jobs(Shape::Saturated.jobs(&mut rng).1);
        let config = configs[case / 3];
        let fcfs = QueueDiscipline::Policy(lineup.get("FCFS"));
        // Pollute the workspace and the checkpoint: a full run, a faulty
        // run that preempts and abandons, a metrics-only run, a
        // conservative time-dependent run (its last pass leaves a scratch
        // order behind) and captures that stop mid-queue under a static
        // order and each time-dependent policy, rotated.
        ws.run(&trace, &fcfs, &config);
        ws.run_faulty(&pollute, &fcfs, &config, &outages).unwrap();
        assert!(
            ws.preempted_jobs() > 0 && !ws.abandoned().is_empty() && ws.lost_core_seconds() > 0.0,
            "case {case}: the polluting faulty run must preempt and abandon"
        );
        ws.run_metrics(&pollute, &fcfs, &config, TAU);
        let conservative = SchedulerConfig {
            backfill: BackfillMode::Conservative,
            ..config
        };
        let wfp = QueueDiscipline::Compiled(compiled("WFP"));
        ws.run(&pollute, &wfp, &conservative);
        let mid = pollute.submit(pollute.len() / 2);
        let mut disciplines = [
            fcfs,
            QueueDiscipline::Compiled(compiled("aging")),
            QueueDiscipline::Compiled(compiled("WFP")),
        ];
        disciplines.rotate_left(case % 3);
        for discipline in &disciplines {
            ws.run_prefix(&pollute, discipline, &config, mid, &mut ckpt);
        }
        let discipline = &disciplines[1];
        // Each run kind starts clean on the polluted workspace: a faulty
        // run first (the last capture left jobs running), the round trip,
        // a metrics-only run.
        let mut fresh = SimWorkspace::new();
        fresh
            .run_faulty(&trace, discipline, &config, &outages)
            .unwrap();
        ws.run_faulty(&trace, discipline, &config, &outages)
            .unwrap();
        assert_eq!(fresh.result(), ws.result(), "case {case}: faulty reuse");
        let mid = trace.submit(trace.len() / 2);
        ws.run_prefix(&trace, discipline, &config, mid, &mut ckpt);
        ws.resume_from(&ckpt, &trace, discipline, &config);
        let scratch = simulate(&trace, discipline, &config);
        assert_eq!(ws.result(), scratch, "case {case}: reuse leaked state");
        let metrics = ws.run_metrics(&trace, discipline, &config, TAU);
        assert_eq!(metrics, SimMetrics::from_result(&scratch, TAU));
    }
}

/// A horizon at the first event captures the pristine state: the prefix
/// processes nothing and the resume *is* the plain run.
#[test]
fn horizon_zero_checkpoint_is_a_plain_run() {
    let (cores, trace, _) = warmup_trace(0x0E02);
    let config = SchedulerConfig::actual_runtimes(Platform::new(cores));
    let ranks = Rng::new(0x0E02).permutation(trace.len());
    let discipline = QueueDiscipline::FixedOrder(&ranks);
    let mut ws = SimWorkspace::new();
    let mut ckpt = Checkpoint::new();
    ws.run_prefix(&trace, &discipline, &config, 0.0, &mut ckpt);
    assert_eq!((ckpt.horizon(), ckpt.jobs()), (0.0, trace.len()));
    assert_eq!(ckpt.arrivals_processed(), 0, "nothing arrives before t=0");
    assert_eq!((ckpt.completed_jobs(), ckpt.events_processed()), (0, 0));
    ws.resume_from(&ckpt, &trace, &discipline, &config);
    assert_eq!(ws.result(), simulate(&trace, &discipline, &config));
}

#[test]
#[should_panic(expected = "different trace length")]
fn resume_rejects_mismatched_trace() {
    let (cores, a, warmup) = warmup_trace(0xBAD);
    let b = Trace::from_jobs(a.jobs()[..a.len() - 1].to_vec());
    let config = SchedulerConfig::actual_runtimes(Platform::new(cores));
    let ranks_a: Vec<usize> = (0..a.len()).collect();
    let mut ws = SimWorkspace::new();
    let mut ckpt = Checkpoint::new();
    let prefix = QueueDiscipline::FixedOrder(&ranks_a);
    ws.run_prefix(&a, &prefix, &config, a.submit(warmup), &mut ckpt);
    let ranks_b = QueueDiscipline::FixedOrder(&ranks_a[1..]);
    ws.resume_from(&ckpt, &b, &ranks_b, &config);
}

/// The regression the hostile grid was built around. From t ≈ 2e7 s
/// the `1e-9` floor of a zero-length reservation is absorbed by the clock:
/// the 4-core job starts and the profile still shows its cores free at
/// `now`, so the 8-core job behind it was reserved for `now` too and
/// started into four cores the ledger did not have. It now waits for the
/// zero-length job's completion, the next event at the same timestamp.
#[test]
fn a_reservation_the_clock_absorbs_does_not_over_allocate() {
    let lineup = Lineup::new();
    for t in [1_000.0, 2e7, 2e8] {
        let trace = Trace::from_jobs(vec![
            Job::new(0, t, 0.0, 0.0, 4),
            Job::new(1, t, 10.0, 10.0, 8),
        ]);
        let conservative = |c: &&SchedulerConfig| c.backfill == BackfillMode::Conservative;
        for config in configs(8).iter().filter(conservative) {
            for name in ["FCFS", "F1", "WFP"] {
                let discipline = QueueDiscipline::Policy(lineup.get(name));
                let mut ws = SimWorkspace::new();
                let outcome = ws.try_run(&trace, &discipline, config);
                outcome.unwrap_or_else(|e| panic!("t = {t}, {name}: {e}"));
                let result = ws.result();
                assert_eq!(result.completed.len(), 2);
                if name == "FCFS" {
                    // Both start on arrival: the narrow one runs for no time.
                    assert!(result.completed.iter().all(|c| c.start == t));
                    assert_eq!(result.makespan, t + 10.0);
                }
                assert_eq!(result, simulate_reference(&trace, &discipline, config));
            }
        }
    }
}

/// The reference keeps its running set in a `HashMap`, and every map
/// hashes with its own keys, so two runs in one process iterate it in
/// different orders. Sorting the releases by (clamped end, raw end, trace
/// index) must make that invisible on the inputs where it matters: tied
/// and overdue expected ends.
#[test]
fn the_reference_agrees_with_itself_on_equal_and_overdue_expected_ends() {
    let lineup = paper_lineup();
    for stream in 0..4 {
        let (cores, jobs) = Shape::Modal.jobs(&mut Rng::new(SEED).fork(0x40DA1 + stream));
        let trace = Trace::from_jobs(jobs);
        // Strict scheduling never reads the releases.
        let backfilling = |c: &&SchedulerConfig| c.backfill != BackfillMode::None;
        for config in configs(cores).iter().filter(backfilling) {
            for policy in &lineup {
                let discipline = QueueDiscipline::Policy(policy.as_ref());
                let once = simulate_reference(&trace, &discipline, config);
                let again = simulate_reference(&trace, &discipline, config);
                assert_eq!(once, again, "{}, {config:?}", policy.name());
            }
        }
    }
}

/// The edge policies produce what they are named for on the inputs the
/// harness gives them: a wave scored on arrival ties at WFP3's `-0.0`
/// (so the position tie-break alone orders it), `signed-zero` scores both
/// zeros, `overflow` every special value and finite ones too.
#[test]
fn edge_inputs_produce_the_ties_and_values_they_are_named_for() {
    let lineup = Lineup::new();
    let (_, waves) = Shape::Waves.jobs(&mut Rng::new(SEED).fork(0x71E5));
    let scores_at = |policy: &dyn Policy, wait: f64| -> Vec<f64> {
        (waves.iter())
            .map(|j| {
                policy.score(&TaskView {
                    processing_time: j.runtime,
                    cores: j.cores,
                    submit: j.submit,
                    now: j.submit + wait,
                })
            })
            .collect()
    };
    let negative_zero = (-0.0f64).to_bits();
    let wfp = scores_at(&Wfp3, 0.0);
    assert!(wfp.iter().all(|s| s.to_bits() == negative_zero));
    let zeros = scores_at(lineup.get("signed-zero"), 0.0);
    assert!(zeros.iter().any(|s| s.to_bits() == 0.0f64.to_bits()));
    assert!(zeros.iter().any(|s| s.to_bits() == negative_zero));
    let wild: Vec<f64> = [0.0, 40.0, 200.0, 400.0, 4_000.0]
        .iter()
        .flat_map(|&w| scores_at(lineup.get("overflow"), w))
        .collect();
    for special in [f64::MAX, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(wild.contains(&special), "overflow never scored {special}");
    }
    assert!(wild.iter().any(|s| s.is_finite() && *s != f64::MAX));
}

/// The two policies whose interpreted form uses *unguarded* float ops, on
/// degenerate shapes: zero runtimes behind max-guards, serial jobs,
/// ancient waits.
#[test]
fn unicef_and_multifactor_raw_ops_stay_exact() {
    let trace = Trace::from_jobs(vec![
        Job::new(0, 0.0, 0.5, 1.0, 1),
        Job::new(1, 0.0, 3_000.0, 9_000.0, 8),
        Job::new(2, 1.0, 10.0, 10.0, 8),
        Job::new(3, 1.0, 0.0, 1.0, 1),
        Job::new(4, 2.0, 500.0, 400.0, 4),
        Job::new(5, 2.0, 500.0, 400.0, 4),
    ]);
    let policies: [Box<dyn Policy>; 2] = [
        Box::new(Unicef),
        Box::new(MultiFactor::default().for_platform(8)),
    ];
    for config in configs(8) {
        for policy in &policies {
            let compiled = policy.compile().unwrap();
            let a = simulate(&trace, &QueueDiscipline::Policy(policy.as_ref()), &config);
            let b = simulate(&trace, &QueueDiscipline::Compiled(&compiled), &config);
            assert_eq!(a, b, "{}, {config:?}", policy.name());
        }
    }
}

/// A k-shard federation is a pure function of (trace, spec, discipline):
/// the whole result, routing and merge included, is equal at one worker
/// and at n, faulty runs too. Each faulty shard is its routed slice run
/// standalone under the profile expanded over the shard's own submission
/// span with stream index = shard index, as `federate --help` promises.
#[test]
fn k_shard_federation_is_worker_count_independent() {
    let lineup = Lineup::new();
    let (cores, jobs) = Shape::Bursts.jobs(&mut Rng::new(SEED).fork(0xFED4));
    let trace = Trace::from_jobs(jobs);
    let config = SchedulerConfig::actual_runtimes(Platform::new(cores));
    let profile = FaultProfile::failures(500.0, 300.0, cores / 4, 0xF00D).with_max_retries(2);
    let specs: Vec<FederationSpec> = [2, 3, 5]
        .iter()
        .flat_map(|&k| (0..4).map(move |r| (k, r)))
        .map(|(k, r)| FederationSpec::uniform(k, config, lineup.router(r)))
        .collect();
    let discipline = QueueDiscipline::Policy(lineup.get("WFP"));
    let runs = at_both_widths(&specs, |spec, _| {
        let faulty = run_federation_faulty(&trace, spec, &discipline, &profile);
        (run_federation(&trace, spec, &discipline), faulty)
    });
    let mut ws = SimWorkspace::new();
    let mut cov = Coverage::new();
    let row = "shards whose stream moves their schedule off stream 0's";
    for (spec, (_, faulty)) in specs.iter().zip(&runs) {
        let faulty = faulty.as_ref().expect("every job fits every shard");
        let what = format!("{} shards, {:?}", spec.clusters.len(), spec.router);
        for (s, positions) in route(&trace, spec).shards.iter().enumerate() {
            let span = positions.last().map_or(0.0, |&p| trace.submit(p as usize));
            let schedule = profile.expand(cores, span, s as u64);
            let alone = simulate_shard(
                &mut ws,
                &trace,
                positions,
                &discipline,
                &config,
                Some(&schedule),
            );
            assert_eq!(alone.as_ref(), Ok(&faulty.shards[s]), "shard {s}, {what}");
            let moved = schedule != profile.expand(cores, span, 0);
            count(&mut cov, row, u64::from(moved));
        }
    }
    assert_covered(&cov, &[(row.to_string(), 1)]);
}

/// The merge holds every job of `trace` once, in finish order.
fn assert_merged(fed: &FederationResult, trace: &Trace, what: &str) {
    let ordered = fed.completed.windows(2).all(|w| w[0].finish <= w[1].finish);
    assert!(ordered, "{what}: out of order");
    let mut ids: Vec<u32> = fed.completed.iter().map(|c| c.job.id).collect();
    ids.sort_unstable();
    let mut want: Vec<u32> = trace.jobs().iter().map(|j| j.id).collect();
    want.sort_unstable();
    assert_eq!(ids, want, "{what}: the merge dropped or duplicated a job");
}

/// A cluster's schedule depends only on its own routed subsequence: each
/// shard's jobs re-simulated standalone, as an owned trace, reproduce the
/// in-federation shard bit for bit. The merge holds every job once, in
/// finish order; on the empty trace every shard is empty.
#[test]
fn shard_schedules_are_independent_of_the_federation_around_them() {
    let draw = |shape: Shape, stream| shape.jobs(&mut Rng::new(SEED).fork(stream));
    let inputs: [(_, &dyn Policy, _, &[usize]); 3] = [
        (
            draw(Shape::Modal, 0xFED5),
            &Unicef,
            Router::LeastLoaded,
            &[2, 3, 4],
        ),
        (
            draw(Shape::Saturated, 0xFED7),
            &Fcfs,
            Router::RoundRobin,
            &[3],
        ),
        ((4, Vec::new()), &Fcfs, Router::RoundRobin, &[3]),
    ];
    for ((cores, jobs), policy, router, shard_counts) in inputs {
        let trace = Trace::from_jobs(jobs);
        let config = SchedulerConfig::actual_runtimes(Platform::new(cores));
        let discipline = QueueDiscipline::Policy(policy);
        for &shards in shard_counts {
            let what = format!("{} jobs over {shards} shards", trace.len());
            let spec = FederationSpec::uniform(shards, config, router);
            let fed = run_federation(&trace, &spec, &discipline).unwrap();
            let routing = route(&trace, &spec);
            assert_eq!(fed.shard_of, routing.shard_of, "routing is a pure pre-pass");
            let per_shard = (fed.shards.len(), fed.jobs_per_shard());
            assert_eq!(per_shard, (shards, routing.jobs_per_shard()), "{what}");
            for (s, positions) in routing.shards.iter().enumerate() {
                let owned =
                    Trace::from_jobs(positions.iter().map(|&p| trace.job(p as usize)).collect());
                let standalone = simulate(&owned, &discipline, &config);
                assert_eq!(fed.shards[s], standalone, "shard {s}, {what}");
            }
            assert_merged(&fed, &trace, &what);
        }
    }
}

#[test]
fn merged_order_is_finish_sorted_and_loses_no_job() {
    let (cores, jobs) = Shape::Bursts.jobs(&mut Rng::new(SEED).fork(0xFED6));
    let trace = Trace::from_jobs(jobs);
    let config = SchedulerConfig::actual_runtimes(Platform::new(cores));
    for shards in [1, 2, 4, 8] {
        let spec = FederationSpec::uniform(shards, config, Router::RoundRobin);
        let fed = run_federation(&trace, &spec, &QueueDiscipline::Policy(&Wfp3)).unwrap();
        assert_merged(&fed, &trace, &format!("{shards} shards"));
    }
}

/// `route` as it was before `try_route` — one loop for every router,
/// closures that re-read the spec per cluster, the fluid backlog
/// drained and committed whoever routes, `Option` arg-min under
/// `total_cmp` — kept verbatim as the oracle of the routing paths.
fn route_reference<T: TraceSource>(trace: &T, spec: &FederationSpec<'_>) -> RoutingTable {
    let k = spec.clusters.len();
    assert!(k > 0, "a federation needs at least one cluster");
    let n = trace.len();
    let mut shard_of = Vec::with_capacity(n);
    let mut shards: Vec<Vec<u32>> = vec![Vec::new(); k];
    let mut backlog = vec![0.0f64; k];
    let mut last_t = 0.0f64;
    let mut slot_row: Vec<f64> = Vec::new();
    let mut stack: Vec<f64> = Vec::new();

    for i in 0..n {
        let t = trace.submit(i);
        let dt = (t - last_t).max(0.0);
        last_t = t;
        for (c, b) in backlog.iter_mut().enumerate() {
            *b = (*b - spec.clusters[c].platform.total_cores as f64 * dt).max(0.0);
        }
        let cores = trace.cores(i);
        let feasible = |c: usize| spec.clusters[c].platform.total_cores >= cores;
        let est_wait =
            |c: usize, backlog: &[f64]| backlog[c] / spec.clusters[c].platform.total_cores as f64;
        let least_loaded = |backlog: &[f64]| {
            let mut best: Option<(f64, usize)> = None;
            for c in 0..k {
                if !feasible(c) {
                    continue;
                }
                let w = est_wait(c, backlog);
                if best.is_none_or(|(bw, _)| w.total_cmp(&bw).is_lt()) {
                    best = Some((w, c));
                }
            }
            best
        };
        let chosen = match spec.router {
            Router::RoundRobin => (0..k).map(|o| (i + o) % k).find(|&c| feasible(c)),
            Router::LeastLoaded => least_loaded(&backlog).map(|(_, c)| c),
            Router::LocalityAware { spill } => {
                let home = trace.id(i) as usize % k;
                least_loaded(&backlog).map(|(best_wait, best)| {
                    if feasible(home) && est_wait(home, &backlog) <= best_wait + spill {
                        home
                    } else {
                        best
                    }
                })
            }
            Router::Learned(cp) => {
                let mut best: Option<(f64, usize)> = None;
                for c in 0..k {
                    if !feasible(c) {
                        continue;
                    }
                    let config = &spec.clusters[c];
                    let r = config.decision_time(trace.runtime(i), trace.estimate(i));
                    let score = cp.score_scalar(
                        r,
                        cores as f64,
                        t,
                        est_wait(c, &backlog),
                        &mut slot_row,
                        &mut stack,
                    );
                    if best.is_none_or(|(bs, _)| score.total_cmp(&bs).is_lt()) {
                        best = Some((score, c));
                    }
                }
                best.map(|(_, c)| c)
            }
        };
        let Some(shard) = chosen else {
            panic!(
                "job {} requests {cores} cores but no cluster is that wide",
                trace.id(i)
            );
        };
        shard_of.push(shard as u32);
        shards[shard].push(i as u32);
        let config = &spec.clusters[shard];
        backlog[shard] += config.decision_time(trace.runtime(i), trace.estimate(i)) * cores as f64;
    }
    RoutingTable { shard_of, shards }
}

/// Every router's pass against the preserved body, on 1 to 11 shards:
/// identical clusters, where waits tie exactly, and mixed widths and
/// decision modes, where some jobs fit only part of the federation.
#[test]
fn every_routing_path_matches_the_preserved_body() {
    let config = |cores| SchedulerConfig::actual_runtimes(Platform::new(cores));
    let mut rng = Rng::new(0x2007E);
    let by_wait = compile_expr("by-wait", &parse_expr("w + r / n").unwrap());
    let wait_blind = compile_expr("wait-blind", &parse_expr("r * n").unwrap());
    let routers = [
        Router::RoundRobin,
        Router::LeastLoaded,
        Router::LocalityAware { spill: 0.0 },
        Router::LocalityAware { spill: 40.0 },
        Router::LocalityAware {
            spill: f64::INFINITY,
        },
        Router::Learned(&by_wait),
        Router::Learned(&wait_blind),
    ];
    for case in 0..60u64 {
        let k = [1, 2, 3, 5, 11][(case % 5) as usize];
        // Even cases: identical clusters, so waits tie exactly
        // whenever the backlogs do. Odd ones: mixed widths with one
        // 16-wide cluster at a random shard, so some jobs fit only
        // part of the federation, and mixed decision modes.
        let mut clusters: Vec<SchedulerConfig> = (0..k)
            .map(|_| match case % 2 {
                0 => config(16),
                _ => {
                    let platform = Platform::new(1 << rng.range_u64(1, 4));
                    match rng.next_u64() % 2 {
                        0 => SchedulerConfig::actual_runtimes(platform),
                        _ => SchedulerConfig::user_estimates(platform),
                    }
                }
            })
            .collect();
        clusters[(rng.next_u64() % k as u64) as usize] = config(16);
        // Bursts of equal submit times (`dt == 0`), a handful of
        // runtimes and widths (equal work, hence tied backlogs),
        // scattered ids (the locality home), long idle gaps that
        // drain every backlog to exactly zero.
        let jobs = if case == 7 { 0 } else { 150 };
        let mut submit = 0.0;
        let trace = Trace::from_jobs(
            (0..jobs)
                .map(|_| {
                    submit += match rng.next_u64() % 8 {
                        0..=2 => 0.0,
                        3 => 5_000.0,
                        _ => rng.range_u64(1, 30) as f64,
                    };
                    let runtime = [10.0, 20.0, 50.0, 400.0][(rng.next_u64() % 4) as usize];
                    let cores = 1 << rng.range_u64(0, 4);
                    let id = rng.next_u64() as u32 % 1_000;
                    Job::new(id, submit, runtime, runtime * 2.0, cores)
                })
                .collect(),
        );
        for router in routers {
            let spec = FederationSpec {
                clusters: clusters.clone(),
                router,
            };
            assert_eq!(
                try_route(&trace, &spec),
                Ok(route_reference(&trace, &spec)),
                "case {case}: {k} shards, {router:?}"
            );
        }
    }
}

/// After a faulty run, a zero-fault run's accessors read zero fault terms,
/// not the previous run's stale integrals.
#[test]
fn empty_schedule_conserves_with_zero_fault_terms() {
    let mut rng = Rng::new(SEED).fork(0x1D7E);
    let (cores, jobs) = Shape::Integer.jobs(&mut rng);
    let Faults::Steps(schedule) = Shape::Integer.faults(&mut rng, cores, &jobs, 0) else {
        unreachable!("integer traces carry explicit steps");
    };
    let trace = Trace::from_jobs(jobs);
    let config = SchedulerConfig::user_estimates(Platform::new(cores));
    let fcfs = QueueDiscipline::Policy(&dynsched_policies::Fcfs);
    let mut ws = SimWorkspace::new();
    ws.run_faulty(&trace, &fcfs, &config, &schedule).unwrap();
    ws.run(&trace, &fcfs, &config);
    let result = ws.result();
    assert_eq!((result.preempted_jobs, result.lost_core_seconds), (0, 0.0));
    assert!(result.abandoned.is_empty());
    assert_eq!(ws.offline_core_seconds(result.makespan), 0.0);
    let goodput: f64 = (result.completed.iter())
        .map(|c| (c.finish - c.start) * f64::from(c.job.cores))
        .sum();
    assert_eq!(ws.busy_core_seconds(result.makespan), goodput);
    assert_eq!(result.completed.len(), trace.len());
}
