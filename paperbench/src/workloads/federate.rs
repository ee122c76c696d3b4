//! `federate`: one long trace routed across eight 64-core clusters —
//! three routers × {no backfilling, EASY} × {F1, SPT} = 12
//! `run_federation` calls a pass. `scheduler::federation`'s routing and
//! completion merge, `workload::partition`'s zero-copy slices and
//! `simkit::parallel`'s fan-out do most of the work; per-shard queues are
//! shallow.
//!
//! `Router::Learned` is left out on purpose: with F1 as the router
//! expression every job scores lowest on shard 0, so one cluster receives
//! the whole trace and a single call takes ~50 s. That is the expression,
//! not the router; it would measure one deep queue, which
//! `replay_timedep` already does.

use super::{PassOutcome, Workload};
use crate::harness::{oversubscribed, Digest, Tally, WORKERS};
use crate::metrics::Layers;
use crate::sizes::{jitter_trace, stream, Scale, STRUCTURE_SEED};
use crate::trace::Tracer;
use dynsched_cluster::{Platform, DEFAULT_TAU};
use dynsched_policies::{CompiledPolicy, LearnedPolicy, Policy, Spt};
use dynsched_scheduler::federation::simulate_shard;
use dynsched_scheduler::reference::simulate_reference;
use dynsched_scheduler::{
    merge_completions, route, run_federation, BackfillMode, FederationResult, FederationSpec,
    QueueDiscipline, Router, SchedulerConfig, SimWorkspace,
};
use dynsched_simkit::json::Json;
use dynsched_simkit::parallel::with_worker_limit;
use dynsched_simkit::Rng;
use dynsched_workload::{LublinModel, TraceSource, TraceView};
use std::time::Instant;

const SHARDS: usize = 8;
const SHARD_CORES: u32 = 64;
/// Cores of the Lublin model the jobs are drawn from (wider than a shard:
/// the cap drops what no shard could run).
const MODEL_CORES: u32 = 512;
const TARGET_LOAD: f64 = 0.9;

const ROUTERS: [(&str, Router<'static>); 3] = [
    ("round-robin", Router::RoundRobin),
    ("least-loaded", Router::LeastLoaded),
    ("locality", Router::LocalityAware { spill: 0.0 }),
];
const BACKFILLS: [(&str, BackfillMode); 2] = [
    ("none", BackfillMode::None),
    ("easy", BackfillMode::Aggressive),
];

/// One `run_federation` call of a pass.
struct Call {
    label: String,
    spec: FederationSpec<'static>,
    policy: usize,
}

/// The `federate` workload.
pub struct Federate {
    scale: Scale,
    generated: usize,
    view: TraceView,
    policies: [CompiledPolicy; 2],
    calls: Vec<Call>,
}

fn config(backfill: BackfillMode) -> SchedulerConfig {
    SchedulerConfig {
        backfill,
        ..SchedulerConfig::user_estimates(Platform::new(SHARD_CORES))
    }
}

fn digest_into(d: &mut Digest, result: &FederationResult) {
    d.f64(result.avg_bounded_slowdown(DEFAULT_TAU).unwrap_or(f64::NAN));
    d.f64(result.makespan());
    d.u64(result.backfilled_jobs());
    for jobs in result.jobs_per_shard() {
        d.u64(jobs as u64);
    }
}

impl Federate {
    /// Set up `federate`: generate the trace, cap it to the shard width,
    /// columnarize it, compile the two queue policies.
    pub fn new(scale: Scale, seed: u64, layers: &mut Layers) -> Self {
        let generated = scale.federate_jobs();
        let mut rng = Rng::new(STRUCTURE_SEED);
        let t0 = Instant::now();
        let model = LublinModel::new(MODEL_CORES).calibrated_to_load(TARGET_LOAD, &mut rng);
        let base = model.generate_jobs(generated, &mut rng);
        layers.set(
            "workload.lublin.jobs_per_s",
            generated as f64 / t0.elapsed().as_secs_f64(),
        );
        let trace = jitter_trace(&base, seed, stream::TRACE).capped_to(SHARD_CORES);
        let t0 = Instant::now();
        let view = trace.to_view();
        layers.set("workload.store.to_view_s", t0.elapsed().as_secs_f64());
        let compile = |p: &dyn Policy| p.compile().expect("every built-in policy compiles");
        let policies = [compile(&LearnedPolicy::f1()), compile(&Spt)];
        let mut calls = Vec::new();
        for (router_name, router) in ROUTERS {
            for (backfill_name, backfill) in BACKFILLS {
                for (policy, compiled) in policies.iter().enumerate() {
                    calls.push(Call {
                        label: format!("{router_name}/{backfill_name}/{}", compiled.name()),
                        spec: FederationSpec::uniform(SHARDS, config(backfill), router),
                        policy,
                    });
                }
            }
        }
        Self {
            scale,
            generated,
            view,
            policies,
            calls,
        }
    }

    /// The 12 federations of a pass, in a fixed order.
    fn calls(&self) -> impl Iterator<Item = (&str, &FederationSpec<'static>, &CompiledPolicy)> {
        self.calls
            .iter()
            .map(|c| (c.label.as_str(), &c.spec, &self.policies[c.policy]))
    }
}

impl Workload for Federate {
    fn sizes(&self) -> Json {
        Json::Object(vec![
            ("generated_jobs".into(), Json::Uint(self.generated as u64)),
            ("jobs".into(), Json::Uint(self.view.len() as u64)),
            ("shards".into(), Json::Uint(SHARDS as u64)),
            ("shard_cores".into(), Json::Uint(SHARD_CORES as u64)),
            ("federations".into(), Json::Uint(self.calls.len() as u64)),
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
        for (label, spec, policy) in self.calls() {
            outcome.operations += 1;
            // The span covers reducing and freeing the result too: a
            // federation's result holds every completion twice, and
            // giving that memory back is part of what a call costs.
            let span = tr.begin("scheduler.federation.run");
            let mut events = 0;
            match run_federation(&self.view, spec, &QueueDiscipline::Compiled(policy)) {
                Ok(result) => {
                    events = result.shards.iter().map(|s| s.events_processed).sum();
                    digest_into(&mut digest, &result);
                }
                Err(_) => outcome.failed += 1,
            }
            tr.end(span, label, events);
            outcome.events += events;
        }
        outcome.digest = digest.finish();
        outcome
    }

    fn check(&mut self, tally: &mut Tally) {
        let prefix = self.scale.reference_prefix();
        let head = super::reference_prefix(&self.view, prefix);
        for (label, spec, policy) in self.calls() {
            let discipline = QueueDiscipline::Compiled(policy);
            let single = FederationSpec::uniform(1, spec.clusters[0], spec.router);
            let federated = run_federation(&head, &single, &discipline);
            tally.check(
                &format!("{label}: 1 shard == scheduler::reference on {prefix} jobs"),
                federated.is_ok_and(|f| {
                    f.shards[0] == simulate_reference(&head, &discipline, &spec.clusters[0])
                }),
            );
        }
        // Thread count must not reach the result: the first federation of
        // the pass, in full, at 1 and 2 workers.
        let (_, spec, policy) = self.calls().next().expect("12 calls");
        let discipline = QueueDiscipline::Compiled(policy);
        let at =
            |workers| with_worker_limit(workers, || run_federation(&self.view, spec, &discipline));
        match (at(1), at(2)) {
            (Ok(one), Ok(two)) => {
                tally.check("8 shards identical at 1 and 2 workers", one == two);
                tally.check(
                    "every job completes once",
                    two.completed.len() == self.view.len(),
                );
            }
            _ => tally.check("8-shard federation runs", false),
        }
    }

    fn probes(&mut self, layers: &mut Layers, tr: &Tracer) {
        let run = tr.layer_totals()["scheduler.federation.run"];
        layers.set("scheduler.engine.events", run.count as f64);

        // `run_federation` is route → fan-out → merge. Time the two
        // sequential ends and the shards one by one; what is left of the
        // call is the fan-out's wall time.
        let (mut route_s, mut busy_s, mut merge_s, mut backfilled) = (0.0, 0.0, 0.0, 0u64);
        let mut imbalance = 0.0f64;
        let mut ws = SimWorkspace::new();
        for (_, spec, policy) in self.calls() {
            let discipline = QueueDiscipline::Compiled(policy);
            let t0 = Instant::now();
            let routing = route(&self.view, spec);
            route_s += t0.elapsed().as_secs_f64();
            let per_shard = routing.jobs_per_shard();
            let mean = self.view.len() as f64 / SHARDS as f64;
            imbalance = imbalance.max(*per_shard.iter().max().expect("8 shards") as f64 / mean);

            let t0 = Instant::now();
            let shards: Vec<_> = routing
                .shards
                .iter()
                .zip(&spec.clusters)
                .filter_map(|(positions, cluster)| {
                    simulate_shard(&mut ws, &self.view, positions, &discipline, cluster, None).ok()
                })
                .collect();
            busy_s += t0.elapsed().as_secs_f64();
            backfilled += shards.iter().map(|s| s.backfilled_jobs).sum::<u64>();

            let t0 = Instant::now();
            std::hint::black_box(merge_completions(&shards));
            merge_s += t0.elapsed().as_secs_f64();
        }
        let fanout_s = (run.self_s - route_s - merge_s).max(0.0);
        layers.set("scheduler.federation.route_s", route_s);
        layers.set("scheduler.federation.shards_busy_s", busy_s);
        layers.set("scheduler.federation.merge_s", merge_s);
        layers.set("scheduler.federation.fanout_wall_s", fanout_s);
        layers.set("scheduler.federation.shard_imbalance", imbalance);
        layers.set("scheduler.engine.backfilled_jobs", backfilled as f64);
        layers.set("scheduler.engine.run_s", busy_s);
        layers.set(
            "scheduler.engine.ns_per_event",
            busy_s * 1e9 / run.count as f64,
        );
        if !oversubscribed() && fanout_s > 0.0 {
            layers.set(
                "scheduler.federation.parallel_efficiency",
                busy_s / (WORKERS as f64 * fanout_s),
            );
        }
    }
}
