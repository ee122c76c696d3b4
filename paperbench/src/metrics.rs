//! The metric and workload names the benchmark reports — the same tables
//! `BENCHMARK.json` declares (a test compares the two).

use std::collections::BTreeMap;

/// A metric declaration: name, unit, whether lower is better.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDecl {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        lower_is_better: true,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        lower_is_better: false,
    }
}

/// The workloads, in reporting order.
pub const WORKLOADS: [&str; 7] = [
    "paper_loop",
    "train_wide",
    "table4",
    "replay_static",
    "replay_timedep",
    "replay_backfill",
    "federate",
];

/// End-to-end metrics with the share of the base median each may worsen
/// by before `paperbench compare` (and the driver) calls it a regression.
/// The timing bounds are as wide as the sizing host is unsteady: the same
/// binary on the same inputs spread up to 17 % across ten runs (README,
/// "Why 25 %").
pub const END_TO_END: [(MetricDecl, f64); 4] = [
    (lower("wall_s", "s"), 0.25),
    (lower("ns_per_event", "ns"), 0.25),
    (lower("setup_s", "s"), 0.25),
    (lower("peak_rss_mb", "MB"), 0.10),
];

/// Per-layer metrics of the traced run. A metric whose layer a workload
/// does not reach reads 0 on that workload.
pub const PER_LAYER: [MetricDecl; 66] = [
    lower("core.tuples.generate_s", "s"),
    lower("core.trials.batch_s", "s"),
    higher("core.trials.trials", "count"),
    lower("core.trials.ns_per_trial", "ns"),
    lower("core.trials.scratch_ns_per_trial", "ns"),
    higher("core.trials.fork_speedup", "ratio"),
    lower("core.scenarios.build_s", "s"),
    lower("core.session.eval_s", "s"),
    higher("core.session.cells", "count"),
    lower("core.session.us_per_cell", "us"),
    lower("core.session.timedep_share", "ratio"),
    lower("core.report.render_s", "s"),
    lower("core.checkpoint.write_s", "s"),
    lower("core.checkpoint.bytes", "B"),
    lower("core.checkpoint.resume_s", "s"),
    lower("mlreg.fit_all_s", "s"),
    higher("mlreg.fits", "count"),
    higher("mlreg.observations", "count"),
    lower("mlreg.us_per_fit", "us"),
    higher("mlreg.converged_share", "ratio"),
    lower("mlreg.feature_table_s", "s"),
    higher("workload.lublin.jobs_per_s", "jobs/s"),
    higher("workload.swf.parse_mb_per_s", "MB/s"),
    higher("workload.swf.write_mb_per_s", "MB/s"),
    lower("workload.store.to_view_s", "s"),
    lower("workload.store.builds", "count"),
    higher("workload.store.hits", "count"),
    lower("policies.compile_us", "us"),
    lower("policies.score_batch.ns_per_job.q512", "ns"),
    lower("policies.score_batch.ns_per_job.q8192", "ns"),
    lower("policies.score_interp.ns_per_job", "ns"),
    lower("scheduler.engine.run_s", "s"),
    higher("scheduler.engine.events", "count"),
    lower("scheduler.engine.ns_per_event", "ns"),
    higher("scheduler.engine.backfilled_jobs", "count"),
    lower("scheduler.engine.max_queue_depth", "jobs"),
    lower("scheduler.engine.mean_queue_depth", "jobs"),
    lower("scheduler.engine.order_ns_per_event", "ns"),
    lower("scheduler.engine.sink_ns_per_event", "ns"),
    lower("scheduler.engine.interp_ratio.f1", "ratio"),
    lower("scheduler.engine.interp_ratio.wfp", "ratio"),
    lower("scheduler.engine.fault_off_ratio", "ratio"),
    lower("scheduler.profile.earliest_fit_ns.s64", "ns"),
    lower("scheduler.profile.earliest_fit_ns.s4096", "ns"),
    lower("scheduler.profile.reserve_ns.s64", "ns"),
    lower("scheduler.profile.reserve_ns.s4096", "ns"),
    lower("scheduler.result.reduce_s", "s"),
    lower("scheduler.checkpoint.snapshot_us", "us"),
    lower("scheduler.checkpoint.restore_us", "us"),
    lower("scheduler.federation.route_s", "s"),
    lower("scheduler.federation.shards_busy_s", "s"),
    lower("scheduler.federation.merge_s", "s"),
    lower("scheduler.federation.fanout_wall_s", "s"),
    higher("scheduler.federation.parallel_efficiency", "ratio"),
    lower("scheduler.federation.shard_imbalance", "ratio"),
    lower("cluster.ledger.alloc_release_ns", "ns"),
    lower("simkit.parallel.dispatch_us", "us"),
    higher("simkit.parallel.scaling_2w.trials", "ratio"),
    higher("simkit.parallel.scaling_2w.eval", "ratio"),
    higher("simkit.parallel.scaling_2w.fits", "ratio"),
    higher("simkit.json.encode_mb_per_s", "MB/s"),
    higher("simkit.json.parse_mb_per_s", "MB/s"),
    lower("simkit.durable.write_atomic_ms", "ms"),
    lower("simkit.rng.shuffle32_ns", "ns"),
    lower("trace_overhead_share", "ratio"),
    lower("trace_unattributed_share", "ratio"),
];

/// Values of the per-layer metrics measured in one traced run.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Record `value` for the per-layer metric `name`.
    ///
    /// # Panics
    /// Panics if `name` is not declared in [`PER_LAYER`]: every reported
    /// name must be in `BENCHMARK.json`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "undeclared per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The recorded value, or 0 for a layer this run did not reach.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}
