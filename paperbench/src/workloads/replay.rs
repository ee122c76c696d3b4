//! `replay_static`, `replay_timedep`, `replay_backfill`: single-threaded
//! replays of archive stand-ins read from SWF files, as `dynsched
//! simulate` runs them. One engine, three ways of using it:
//!
//! * `replay_static` — wait-invariant policies without backfilling: the
//!   standing-order and binary-insertion paths, the event loop, the ledger
//!   and the completion sink. The engine's floor; scoring is negligible.
//! * `replay_timedep` — `WFP` and `UNI` without backfilling: the whole
//!   queue is re-scored and re-ordered at every event, on a deep-queue
//!   trace (CTC SP2) and a shallow one (Curie).
//! * `replay_backfill` — EASY under all eight policies and conservative
//!   backfilling under three: queues stay shallow, dispatch, the backfill
//!   scan and `scheduler::profile` dominate.

use super::{PassOutcome, Workload};
use crate::harness::{Digest, Tally};
use crate::metrics::Layers;
use crate::sizes::{jitter_trace, stream, Scale, STRUCTURE_SEED};
use crate::trace::Tracer;
use dynsched_cluster::{AvailabilitySchedule, Platform, DEFAULT_TAU};
use dynsched_policies::{
    by_name, paper_lineup, CompiledPolicy, DecisionMode, Policy, Unicef, Wfp3,
};
use dynsched_scheduler::reference::simulate_reference;
use dynsched_scheduler::timeline::{curve_max, curve_mean, queue_length_curve};
use dynsched_scheduler::{BackfillMode, QueueDiscipline, SchedulerConfig, SimWorkspace};
use dynsched_simkit::durable::write_atomic;
use dynsched_simkit::json::Json;
use dynsched_simkit::stats;
use dynsched_workload::{read_swf_file, write_swf_trace, ArchivePlatform, TraceSource, TraceView};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Which of the three replay workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `replay_static`.
    Static,
    /// `replay_timedep`.
    TimeDep,
    /// `replay_backfill`.
    Backfill,
}

impl Kind {
    /// The kind a workload name stands for.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "replay_static" => Some(Self::Static),
            "replay_timedep" => Some(Self::TimeDep),
            "replay_backfill" => Some(Self::Backfill),
            _ => None,
        }
    }
}

/// The three stand-ins, in the order [`Scale::replay_days`] sizes them.
const PLATFORMS: [ArchivePlatform; 3] = [
    ArchivePlatform::CTC_SP2,
    ArchivePlatform::SDSC_BLUE,
    ArchivePlatform::CURIE,
];
/// Indices into [`PLATFORMS`]. CTC SP2, the deep-queue trace, is also the
/// first trace of every replay workload.
const CTC: usize = 0;
const SDSC: usize = 1;
const CURIE: usize = 2;

/// One SWF file on disk.
struct TraceFile {
    platform: ArchivePlatform,
    days: f64,
    path: PathBuf,
    bytes: u64,
}

/// One simulation of a pass.
struct Sim {
    trace: usize,
    policy: usize,
    config: SchedulerConfig,
    label: String,
}

/// A replay workload.
pub struct Replay {
    kind: Kind,
    scale: Scale,
    traces: Vec<TraceFile>,
    compiled: Vec<CompiledPolicy>,
    sims: Vec<Sim>,
    ws: SimWorkspace,
    backfilled: u64,
    queue_depth_max: f64,
    queue_depth_mean: f64,
}

fn config_of(
    platform: &ArchivePlatform,
    estimates: bool,
    backfill: BackfillMode,
) -> SchedulerConfig {
    let cluster = Platform::new(platform.cpus);
    SchedulerConfig {
        backfill,
        ..if estimates {
            SchedulerConfig::user_estimates(cluster)
        } else {
            SchedulerConfig::actual_runtimes(cluster)
        }
    }
}

fn label_of(platform: &ArchivePlatform, policy: &str, config: &SchedulerConfig) -> String {
    let mode = match config.decision_mode {
        DecisionMode::ActualRuntime => "actual",
        DecisionMode::UserEstimate => "estimates",
    };
    let backfill = match config.backfill {
        BackfillMode::None => "none",
        BackfillMode::Aggressive => "easy",
        BackfillMode::Conservative => "conservative",
    };
    format!("{}/{policy}/{mode}/{backfill}", platform.name)
}

fn read_view(file: &TraceFile, tr: &mut Tracer) -> Result<TraceView, String> {
    let span = tr.begin("workload.swf.parse");
    let parsed = read_swf_file(&file.path);
    tr.end(span, file.platform.name, file.bytes);
    let (_, trace) = parsed.map_err(|e| format!("{}: {e}", file.path.display()))?;
    let span = tr.begin("workload.store.to_view");
    let view = trace.capped_to(file.platform.cpus).to_view();
    tr.end(span, file.platform.name, view.len() as u64);
    Ok(view)
}

impl Replay {
    /// Set up a replay workload: synthesize the stand-ins, write them as
    /// SWF under `scratch_dir`, compile the policies.
    pub fn new(
        kind: Kind,
        scale: Scale,
        seed: u64,
        scratch_dir: &Path,
        layers: &mut Layers,
    ) -> Result<Self, String> {
        let wanted: &[usize] = match kind {
            Kind::Static | Kind::Backfill => &[CTC, SDSC, CURIE],
            Kind::TimeDep => &[CTC, CURIE],
        };
        let days = scale.replay_days();
        let mut traces = Vec::new();
        let (mut jobs, mut synth_s, mut bytes, mut write_s) = (0usize, 0.0, 0u64, 0.0);
        for &i in wanted {
            let platform = PLATFORMS[i];
            let t0 = Instant::now();
            // Structure from the fixed seed, jitter from `seed`.
            let base = platform.synthesize(days[i], STRUCTURE_SEED);
            let trace = jitter_trace(&base, seed, stream::TRACE + i as u64);
            synth_s += t0.elapsed().as_secs_f64();
            jobs += trace.len();
            let path = scratch_dir.join(format!("{}.swf", platform.name.replace(' ', "_")));
            let t0 = Instant::now();
            let text = write_swf_trace(&trace, platform.cpus);
            write_atomic(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
            write_s += t0.elapsed().as_secs_f64();
            bytes += text.len() as u64;
            traces.push(TraceFile {
                platform,
                days: days[i],
                path,
                bytes: text.len() as u64,
            });
        }
        layers.set("workload.lublin.jobs_per_s", jobs as f64 / synth_s);
        layers.set("workload.swf.write_mb_per_s", bytes as f64 / 1e6 / write_s);

        let policies: Vec<Box<dyn Policy>> = match kind {
            Kind::Static => ["FCFS", "SPT", "F1", "F2", "F3", "F4"]
                .iter()
                .map(|n| by_name(n).expect("a paper policy"))
                .collect(),
            Kind::TimeDep => vec![Box::new(Wfp3), Box::new(Unicef)],
            Kind::Backfill => paper_lineup(),
        };
        let compiled: Vec<CompiledPolicy> = policies
            .iter()
            .map(|p| p.compile().expect("every built-in policy compiles"))
            .collect();

        let mut sims = Vec::new();
        let mut push = |trace: usize, policy: usize, estimates, backfill| {
            let platform = &PLATFORMS[wanted[trace]];
            let config = config_of(platform, estimates, backfill);
            sims.push(Sim {
                trace,
                policy,
                config,
                label: label_of(platform, policies[policy].name(), &config),
            });
        };
        for (trace, file) in traces.iter().enumerate() {
            for policy in 0..policies.len() {
                match kind {
                    Kind::Static => {
                        push(trace, policy, false, BackfillMode::None);
                        push(trace, policy, true, BackfillMode::None);
                    }
                    Kind::TimeDep => push(trace, policy, false, BackfillMode::None),
                    Kind::Backfill => push(trace, policy, true, BackfillMode::Aggressive),
                }
            }
            // Conservative backfilling costs 3–50× EASY on the same
            // trace; three policies on the deep and the shallow trace
            // keep the pass inside its budget.
            if kind == Kind::Backfill && file.platform != PLATFORMS[SDSC] {
                for (policy, p) in policies.iter().enumerate() {
                    if ["FCFS", "WFP", "F1"].contains(&p.name()) {
                        push(trace, policy, true, BackfillMode::Conservative);
                    }
                }
            }
        }
        Ok(Self {
            kind,
            scale,
            traces,
            compiled,
            sims,
            ws: SimWorkspace::new(),
            backfilled: 0,
            queue_depth_max: 0.0,
            queue_depth_mean: 0.0,
        })
    }

    /// Fastest wall time of `run` over `reps` repetitions.
    fn timed(reps: usize, mut run: impl FnMut()) -> f64 {
        (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                run();
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }
}

impl Workload for Replay {
    fn sizes(&self) -> Json {
        Json::Object(vec![
            (
                "traces".into(),
                Json::Array(
                    self.traces
                        .iter()
                        .map(|t| {
                            Json::Object(vec![
                                ("name".into(), Json::Str(t.platform.name.into())),
                                ("days".into(), Json::F64(t.days)),
                                ("swf_bytes".into(), Json::Uint(t.bytes)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("simulations".into(), Json::Uint(self.sims.len() as u64)),
        ])
    }

    fn pass(&mut self, tr: &mut Tracer) -> PassOutcome {
        let mut digest = Digest::default();
        let mut outcome = PassOutcome {
            digest: 0,
            events: 0,
            operations: 0,
            failed: 0,
        };
        self.backfilled = 0;
        for (t, file) in self.traces.iter().enumerate() {
            outcome.operations += 1;
            let view = match read_view(file, tr) {
                Ok(view) => view,
                Err(_) => {
                    outcome.failed += 1;
                    continue;
                }
            };
            for sim in self.sims.iter().filter(|s| s.trace == t) {
                outcome.operations += 1;
                let discipline = QueueDiscipline::Compiled(&self.compiled[sim.policy]);
                let span = tr.begin("scheduler.engine.run");
                let ran = self.ws.try_run(&view, &discipline, &sim.config);
                let events = self.ws.events_processed();
                tr.end(span, &sim.label, events);
                if ran.is_err() {
                    outcome.failed += 1;
                    continue;
                }
                let span = tr.begin("scheduler.result.reduce");
                let result = self.ws.result();
                let ave_bsld = result.avg_bounded_slowdown(DEFAULT_TAU);
                tr.end(span, &sim.label, result.completed.len() as u64);
                outcome.events += events;
                self.backfilled += result.backfilled_jobs;
                digest.f64(ave_bsld.unwrap_or(f64::NAN));
                digest.f64(result.makespan);
                digest.u64(result.backfilled_jobs);
            }
        }
        outcome.digest = digest.finish();
        outcome
    }

    fn check(&mut self, tally: &mut Tally) {
        let prefix = self.scale.reference_prefix();
        let (mut depth_max, mut depth_means) = (0.0f64, Vec::new());
        for (t, file) in self.traces.iter().enumerate() {
            let Ok(view) = read_view(file, &mut Tracer::off()) else {
                tally.check(&format!("{} reads back", file.path.display()), false);
                continue;
            };
            let head = super::reference_prefix(&view, prefix);
            for sim in self.sims.iter().filter(|s| s.trace == t) {
                let discipline = QueueDiscipline::Compiled(&self.compiled[sim.policy]);
                // The fast engine against the preserved original, on a
                // prefix the original can afford.
                self.ws.run(&head, &discipline, &sim.config);
                tally.check(
                    &format!("{} == scheduler::reference on {prefix} jobs", sim.label),
                    self.ws.result() == simulate_reference(&head, &discipline, &sim.config),
                );
                // Conservation on the full replay.
                self.ws.run(&view, &discipline, &sim.config);
                let result = self.ws.result();
                let mut seen = vec![false; view.len()];
                let once = result.completed.len() == view.len()
                    && result.completed.iter().all(|c| {
                        let first = !std::mem::replace(&mut seen[c.job.id as usize], true);
                        first && c.start >= c.job.submit
                    });
                tally.check(
                    &format!(
                        "{}: every job completes once, none before its submit",
                        sim.label
                    ),
                    once,
                );
                tally.check(
                    &format!("{}: 0 < utilization <= 1", sim.label),
                    result.utilization > 0.0 && result.utilization <= 1.0,
                );
                let curve = queue_length_curve(&result);
                depth_max = depth_max.max(curve_max(&curve));
                depth_means.extend(curve_mean(&curve));
            }
        }
        self.queue_depth_max = depth_max;
        self.queue_depth_mean = stats::mean(&depth_means).unwrap_or(0.0);
    }

    fn probes(&mut self, layers: &mut Layers, tr: &Tracer) {
        let totals = tr.layer_totals();
        let parse = totals["workload.swf.parse"];
        let run = totals["scheduler.engine.run"];
        layers.set(
            "workload.swf.parse_mb_per_s",
            parse.count as f64 / 1e6 / parse.self_s,
        );
        layers.set(
            "workload.store.to_view_s",
            totals["workload.store.to_view"].self_s,
        );
        layers.set("scheduler.engine.run_s", run.self_s);
        layers.set("scheduler.engine.events", run.count as f64);
        layers.set(
            "scheduler.engine.ns_per_event",
            run.self_s * 1e9 / run.count as f64,
        );
        layers.set("scheduler.engine.backfilled_jobs", self.backfilled as f64);
        layers.set("scheduler.engine.max_queue_depth", self.queue_depth_max);
        layers.set("scheduler.engine.mean_queue_depth", self.queue_depth_mean);
        layers.set(
            "scheduler.result.reduce_s",
            totals["scheduler.result.reduce"].self_s,
        );

        // The ratio probes run on the deep-queue trace.
        let file = &self.traces[CTC];
        let Ok(view) = read_view(file, &mut Tracer::off()) else {
            return;
        };
        let config = config_of(&file.platform, false, BackfillMode::None);
        let ws = &mut self.ws;
        let interp_ratio = |ws: &mut SimWorkspace, name: &str, reps| {
            let policy = by_name(name).expect("a paper policy");
            let compiled = policy.compile().expect("every built-in policy compiles");
            let fast = Self::timed(reps, || {
                ws.run(&view, &QueueDiscipline::Compiled(&compiled), &config)
            });
            let interpreted = Self::timed(reps, || {
                ws.run(&view, &QueueDiscipline::Policy(&*policy), &config)
            });
            (interpreted / fast, fast, compiled)
        };
        match self.kind {
            Kind::TimeDep => {
                let (ratio, _, _) = interp_ratio(ws, "WFP", 2);
                layers.set("scheduler.engine.interp_ratio.wfp", ratio);
            }
            Kind::Static => {
                const REPS: usize = 5;
                let (ratio, compiled_s, f1) = interp_ratio(ws, "F1", REPS);
                layers.set("scheduler.engine.interp_ratio.f1", ratio);
                let discipline = QueueDiscipline::Compiled(&f1);
                ws.run(&view, &discipline, &config);
                let events = ws.events_processed() as f64;
                let schedule = ws.result().completed;

                let metrics_s = Self::timed(REPS, || {
                    std::hint::black_box(ws.run_metrics(&view, &discipline, &config, DEFAULT_TAU));
                });
                layers.set(
                    "scheduler.engine.sink_ns_per_event",
                    (compiled_s - metrics_s) * 1e9 / events,
                );

                let empty = AvailabilitySchedule::empty();
                let faulty_s = Self::timed(REPS, || {
                    ws.run_faulty(&view, &discipline, &config, &empty)
                        .expect("an empty schedule cannot fail");
                });
                layers.set("scheduler.engine.fault_off_ratio", faulty_s / compiled_s);

                // What ordering and scoring cost: the same schedule from
                // precomputed ranks (F1's own order, ties by arrival).
                let (mut slots, mut stack) = (Vec::new(), Vec::new());
                let scores: Vec<f64> = (0..view.len())
                    .map(|i| {
                        f1.score_scalar(
                            view.runtime(i),
                            view.cores(i) as f64,
                            view.submit(i),
                            0.0,
                            &mut slots,
                            &mut stack,
                        )
                    })
                    .collect();
                let mut order: Vec<usize> = (0..view.len()).collect();
                order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
                let mut ranks = vec![0usize; view.len()];
                for (rank, &i) in order.iter().enumerate() {
                    ranks[i] = rank;
                }
                let fixed = QueueDiscipline::FixedOrder(&ranks);
                ws.run(&view, &fixed, &config);
                if ws.result().completed == schedule {
                    let fixed_s = Self::timed(REPS, || ws.run(&view, &fixed, &config));
                    layers.set(
                        "scheduler.engine.order_ns_per_event",
                        (compiled_s - fixed_s) * 1e9 / events,
                    );
                }
            }
            Kind::Backfill => {}
        }
    }
}
