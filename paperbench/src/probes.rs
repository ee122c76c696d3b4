//! Micro-probes: small public operations of each layer, timed in
//! isolation. They do not depend on the workload, run in every traced
//! run, and cost about a second together. Each is the unit cost behind an
//! end-to-end number (`README.md` maps which moves which).

use crate::metrics::Layers;
use dynsched_cluster::{CoreLedger, Platform};
use dynsched_core::tuples::{TaskTuple, TupleSpec};
use dynsched_policies::{
    paper_lineup, BatchScratch, CompiledPolicy, Policy, ScoreLanes, TaskView, Wfp3,
};
use dynsched_scheduler::profile::Profile;
use dynsched_scheduler::{Checkpoint, QueueDiscipline, SchedulerConfig, SimWorkspace};
use dynsched_simkit::durable::write_atomic;
use dynsched_simkit::json::{self, Json};
use dynsched_simkit::parallel::run_scoped;
use dynsched_simkit::Rng;
use dynsched_workload::{LublinModel, Trace};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Seconds per call of `f`: the call count doubles until one timed block
/// of calls fills `budget`, and that block is the measurement.
fn seconds_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let mut calls = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..calls {
            f();
        }
        let elapsed = t0.elapsed();
        if elapsed >= budget {
            return elapsed.as_secs_f64() / calls as f64;
        }
        calls *= 2;
    }
}

/// Run every micro-probe, each measuring for `budget`. Files are written
/// under `scratch_dir`.
pub fn run(layers: &mut Layers, scratch_dir: &Path, budget: Duration) {
    policies(layers, budget);
    profile(layers, budget);
    checkpoint(layers, budget);
    small_operations(layers, budget);
    serialization(layers, scratch_dir, budget);
}

fn policies(layers: &mut Layers, budget: Duration) {
    let lineup = paper_lineup();
    layers.set(
        "policies.compile_us",
        seconds_per_call(budget, || {
            for policy in &lineup {
                black_box(policy.compile());
            }
        }) * 1e6
            / lineup.len() as f64,
    );

    // A queue of `depth` jobs re-scored under WFP, the way the engine
    // does at every event of a time-dependent replay.
    let wfp: CompiledPolicy = Wfp3.compile().expect("WFP compiles");
    let mut rng = Rng::new(0x5C17);
    const DEEP: usize = 8192;
    let r: Vec<f64> = (0..DEEP).map(|_| rng.range_f64(1.0, 86_400.0)).collect();
    let n: Vec<f64> = (0..DEEP).map(|_| rng.range_u64(1, 256) as f64).collect();
    let s: Vec<f64> = (0..DEEP).map(|_| rng.range_f64(0.0, 1e6)).collect();
    let k = wfp.slot_count();
    let mut slots = vec![0.0; DEEP * k];
    let mut stack = Vec::new();
    for i in 0..DEEP {
        wfp.prefix_into(r[i], n[i], s[i], &mut slots[i * k..(i + 1) * k], &mut stack);
    }
    let now = 2e6;
    let mut out = vec![0.0; DEEP];
    let mut scratch = BatchScratch::new();
    for (name, depth) in [
        ("policies.score_batch.ns_per_job.q512", 512),
        ("policies.score_batch.ns_per_job.q8192", DEEP),
    ] {
        let per_call = seconds_per_call(budget, || {
            wfp.score_batch(
                &mut out[..depth],
                ScoreLanes {
                    r: &r[..depth],
                    n: &n[..depth],
                    s: &s[..depth],
                    slots: &slots[..depth * k],
                },
                now,
                &mut scratch,
            );
            black_box(&out);
        });
        layers.set(name, per_call * 1e9 / depth as f64);
    }

    let views: Vec<TaskView> = (0..DEEP)
        .map(|i| TaskView {
            processing_time: r[i],
            cores: n[i] as u32,
            submit: s[i],
            now,
        })
        .collect();
    let interpreted: &dyn Policy = &Wfp3;
    layers.set(
        "policies.score_interp.ns_per_job",
        seconds_per_call(budget, || {
            for view in &views {
                black_box(interpreted.score(view));
            }
        }) * 1e9
            / DEEP as f64,
    );
}

fn profile(layers: &mut Layers, budget: Duration) {
    for (fit_name, reserve_name, steps) in [
        (
            "scheduler.profile.earliest_fit_ns.s64",
            "scheduler.profile.reserve_ns.s64",
            64u32,
        ),
        (
            "scheduler.profile.earliest_fit_ns.s4096",
            "scheduler.profile.reserve_ns.s4096",
            4096,
        ),
    ] {
        // One core released per step: availability climbs 0, 1, 2, …, so
        // a job asking for half the cores is found half-way up.
        let releases: Vec<(f64, u32)> = (1..=steps).map(|i| (i as f64 * 10.0, 1)).collect();
        let base = Profile::new(0.0, 0, &releases);
        layers.set(
            fit_name,
            seconds_per_call(budget, || {
                black_box(base.earliest_fit(black_box(steps / 2), 25.0));
            }) * 1e9,
        );
        // `reserve` mutates, so each call starts from a fresh copy; the
        // copy alone is timed and subtracted.
        let mut work = base.clone();
        let copy = seconds_per_call(budget, || {
            work.clone_from(&base);
            black_box(&work);
        });
        let start = steps as f64 * 5.0 + 5.0;
        let copy_and_reserve = seconds_per_call(budget, || {
            work.clone_from(&base);
            work.reserve(start, start + 25.0, 1);
            black_box(&work);
        });
        layers.set(reserve_name, (copy_and_reserve - copy).max(0.0) * 1e9);
    }
}

fn checkpoint(layers: &mut Layers, budget: Duration) {
    // One paper-shaped tuple: snapshot the engine at the first probe
    // arrival (what the trial kernel does once per tuple), then fork from
    // the snapshot (what it does once per trial).
    let model = LublinModel::new(256);
    let tuple = TaskTuple::generate(&TupleSpec::default(), &model, &mut Rng::new(0x5C17));
    let horizon = tuple.q_tasks[0].submit;
    let trace = Trace::from_jobs(tuple.all_jobs()).to_view();
    let ranks: Vec<usize> = (0..tuple.s_tasks.len() + tuple.q_tasks.len()).collect();
    let discipline = QueueDiscipline::FixedOrder(&ranks);
    let config = SchedulerConfig::actual_runtimes(Platform::new(256));
    let mut ws = SimWorkspace::new();
    let mut snapshot = Checkpoint::new();
    layers.set(
        "scheduler.checkpoint.snapshot_us",
        seconds_per_call(budget, || {
            ws.run_prefix(&trace, &discipline, &config, horizon, &mut snapshot)
        }) * 1e6,
    );
    layers.set(
        "scheduler.checkpoint.restore_us",
        seconds_per_call(budget, || {
            ws.resume_from(&snapshot, &trace, &discipline, &config)
        }) * 1e6,
    );
}

fn small_operations(layers: &mut Layers, budget: Duration) {
    let mut ledger = CoreLedger::new(Platform::new(256));
    let mut now = 0.0;
    layers.set(
        "cluster.ledger.alloc_release_ns",
        seconds_per_call(budget, || {
            now += 1.0;
            ledger.allocate(4, now).expect("4 of 256 cores are free");
            ledger.release(4, now).expect("4 cores are in use");
            black_box(&ledger);
        }) * 1e9,
    );

    const TASKS: usize = 10_000;
    layers.set(
        "simkit.parallel.dispatch_us",
        seconds_per_call(budget, || {
            black_box(run_scoped(TASKS, || (), |i, _| i));
        }) * 1e6
            / TASKS as f64,
    );

    let mut rng = Rng::new(0x5C17);
    let mut permutation: Vec<usize> = (0..32).collect();
    layers.set(
        "simkit.rng.shuffle32_ns",
        seconds_per_call(budget, || {
            rng.shuffle(&mut permutation);
            black_box(&permutation);
        }) * 1e9,
    );
}

fn serialization(layers: &mut Layers, scratch_dir: &Path, budget: Duration) {
    // Shaped like the training checkpoint: an array of (r, n, s, score).
    let mut rng = Rng::new(0x5C17);
    let payload = Json::Array(
        (0..8192)
            .map(|_| {
                Json::Object(vec![
                    ("runtime".into(), Json::F64(rng.range_f64(1.0, 86_400.0))),
                    ("cores".into(), Json::F64(rng.range_u64(1, 256) as f64)),
                    ("submit".into(), Json::F64(rng.range_f64(0.0, 172_800.0))),
                    ("score".into(), Json::F64(rng.next_f64() / 32.0)),
                ])
            })
            .collect(),
    );
    let text = payload.to_text();
    let megabytes = text.len() as f64 / 1e6;
    layers.set(
        "simkit.json.encode_mb_per_s",
        megabytes / seconds_per_call(budget, || drop(black_box(payload.to_text()))),
    );
    layers.set(
        "simkit.json.parse_mb_per_s",
        megabytes / seconds_per_call(budget, || drop(black_box(json::parse(&text)))),
    );

    let path = scratch_dir.join("write_atomic.probe");
    let block = vec![b'x'; 1 << 20];
    let mut wrote = true;
    let per_write = seconds_per_call(budget, || wrote &= write_atomic(&path, &block).is_ok());
    if wrote {
        layers.set("simkit.durable.write_atomic_ms", per_write * 1e3);
    }
    let _ = std::fs::remove_file(&path);
}
