//! `table4`: the paper's evaluation grid from a cold trace store —
//! 18 rows × 8 policies × sequences, every cell one metrics-only
//! simulation of a short trace. `core::session`'s fan-out and the
//! `workload` generators do the work; trials and fits do nothing.

use super::{PassOutcome, Workload};
use crate::harness::{oversubscribed, Digest, Tally};
use crate::metrics::Layers;
use crate::sizes::{self, Scale};
use crate::trace::Tracer;
use dynsched_core::scenarios::{table4_experiments_in, table4_results_in, ScenarioScale};
use dynsched_core::{run_experiments, ExperimentResult};
use dynsched_policies::{paper_lineup, Policy};
use dynsched_simkit::json::Json;
use dynsched_simkit::parallel::with_worker_limit;
use dynsched_workload::TraceStore;
use std::time::Instant;

/// The `table4` workload.
pub struct Table4 {
    scale: ScenarioScale,
    reduced: ScenarioScale,
    policies: Vec<Box<dyn Policy>>,
    events: u64,
    cells: u64,
}

fn digest(results: &[ExperimentResult]) -> u64 {
    let mut d = Digest::default();
    for row in results {
        for outcome in &row.outcomes {
            for &ave_bsld in &outcome.ave_bslds {
                d.f64(ave_bsld);
            }
            d.f64(outcome.mean_backfilled);
        }
    }
    d.finish()
}

impl Table4 {
    /// Set up `table4` at `scale`.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let policies = paper_lineup();
        let scenario_scale = sizes::table4_scale(scale, seed);
        let jobs: usize = table4_experiments_in(&TraceStore::new(), &scenario_scale)
            .iter()
            .flat_map(|row| &row.sequences)
            .map(|sequence| sequence.columns().len())
            .sum();
        Self {
            scale: scenario_scale,
            reduced: sizes::table4_scale(Scale::Smoke, seed),
            events: 2 * (jobs * policies.len()) as u64,
            cells: (18 * scenario_scale.spec.count * policies.len()) as u64,
            policies,
        }
    }
}

impl Workload for Table4 {
    fn sizes(&self) -> Json {
        Json::Object(vec![
            ("rows".into(), Json::Uint(18)),
            ("policies".into(), Json::Uint(self.policies.len() as u64)),
            ("sequences".into(), Json::Uint(self.scale.spec.count as u64)),
            ("days".into(), Json::F64(self.scale.spec.days)),
            ("cells".into(), Json::Uint(self.cells)),
        ])
    }

    fn pass(&mut self, tr: &mut Tracer) -> PassOutcome {
        // A cold store every pass: building the six workloads is part of
        // what `dynsched table4` costs.
        let store = TraceStore::new();
        let results = if tr.enabled() {
            let span = tr.begin("core.scenarios.build");
            let experiments = table4_experiments_in(&store, &self.scale);
            tr.end(span, "", store.builds());
            let span = tr.begin("core.session.eval");
            let results = run_experiments(&experiments, &self.policies);
            tr.end(span, "", self.cells);
            results
        } else {
            table4_results_in(&store, &self.scale, &self.policies)
        };
        PassOutcome {
            digest: digest(&results),
            events: self.events,
            operations: self.cells,
            failed: 0,
        }
    }

    fn check(&mut self, tally: &mut Tally) {
        let at = |workers| {
            with_worker_limit(workers, || {
                digest(&table4_results_in(
                    &TraceStore::new(),
                    &self.reduced,
                    &self.policies,
                ))
            })
        };
        tally.check("reduced grid identical at 1 and 2 workers", at(1) == at(2));
        let store = TraceStore::new();
        let results = table4_results_in(&store, &self.reduced, &self.policies);
        tally.check(
            "18 rows, one outcome per policy",
            results.len() == 18
                && results
                    .iter()
                    .all(|r| r.outcomes.len() == self.policies.len()),
        );
        tally.check(
            "six workloads built once and shared by the three conditions",
            store.builds() == 6 && store.hits() == 12,
        );
    }

    fn probes(&mut self, layers: &mut Layers, tr: &Tracer) {
        let totals = tr.layer_totals();
        let eval = totals["core.session.eval"];
        layers.set(
            "core.scenarios.build_s",
            totals["core.scenarios.build"].self_s,
        );
        layers.set("core.session.eval_s", eval.self_s);
        layers.set("core.session.cells", eval.count as f64);
        layers.set(
            "core.session.us_per_cell",
            eval.self_s * 1e6 / eval.count as f64,
        );

        let store = TraceStore::new();
        let experiments = table4_experiments_in(&store, &self.scale);
        layers.set("workload.store.builds", store.builds() as f64);
        layers.set("workload.store.hits", store.hits() as f64);

        // Where the grid's time goes by policy: the share of WFP + UNI
        // tells whether a gain must come from time-dependent ordering.
        let mut total = 0.0;
        let mut timedep = 0.0;
        for policy in paper_lineup() {
            let time_dependent = policy.time_dependent();
            let t0 = Instant::now();
            std::hint::black_box(run_experiments(&experiments, &[policy]));
            let spent = t0.elapsed().as_secs_f64();
            total += spent;
            if time_dependent {
                timedep += spent;
            }
        }
        layers.set("core.session.timedep_share", timedep / total);

        if !oversubscribed() {
            let timed = |workers| {
                let t0 = Instant::now();
                with_worker_limit(workers, || run_experiments(&experiments, &self.policies));
                t0.elapsed().as_secs_f64()
            };
            layers.set("simkit.parallel.scaling_2w.eval", timed(1) / timed(2));
        }
    }
}
