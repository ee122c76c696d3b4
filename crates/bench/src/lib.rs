//! Shared plumbing for the figure/table regenerators.
//!
//! Every program in `benches/` does one job: it **regenerates** its table
//! or figure — runs the corresponding experiment and prints the same
//! rows/series the paper reports (artifact-style statistics, boxplot
//! five-number summaries, ranked functions, …). Table 4 itself is
//! `dynsched table4`; the per-condition rows are Figs. 4–9 here, each
//! printed beside the paper's medians from `report::PAPER_TABLE4`.
//!
//! The one exception is `fault_throughput`, which regenerates nothing: it
//! asserts the idle fault machinery's ≤ 1.05× budget. Nothing in this
//! crate times anything else: throughput and speedup numbers are
//! `paperbench/`'s per-layer metrics.
//!
//! ```text
//! cargo bench -p dynsched-bench --bench fig4_model_actual   # one regenerator
//! cargo bench -p dynsched-bench                             # all of them, in seconds
//! ```
//!
//! Scale control: one protocol, one knob. The regenerators run the
//! reduced protocol [`ScenarioScale::quick`] (4 × 3-day sequences) and
//! 4 096 trials per tuple, so the whole suite finishes in seconds.
//! `DYNSCHED_FULL=1` runs the paper's protocol (10 × 15-day sequences,
//! 256k trials, the full 512k convergence ladder); [`full_scale`] is the
//! only reader of the variable.
//!
//! The library items only one regenerator uses live here, not in
//! `dynsched-core`: [`report`] (the Fig. 3 heatmaps and the boxplot CSV),
//! [`sweep`] (the load-sweep table) and [`convergence`] (the Fig. 2
//! ladder).

pub mod report;

use dynsched_core::report::{artifact_report, table4_comparison};
use dynsched_core::scenarios::{archive_scenario_in, model_scenario_in, Condition, ScenarioScale};
use dynsched_core::{run_experiment, Experiment, ExperimentResult};
use dynsched_policies::paper_lineup;
use dynsched_simkit::durable::write_atomic;
use dynsched_workload::{ArchivePlatform, TraceStore};

/// Whether the user asked for paper-scale runs.
pub fn full_scale() -> bool {
    std::env::var("DYNSCHED_FULL").is_ok_and(|v| v != "0")
}

/// The experiment protocol to use: paper scale under `DYNSCHED_FULL=1`,
/// otherwise [`ScenarioScale::quick`], which has the same structure.
pub fn scenario_scale() -> ScenarioScale {
    if full_scale() {
        ScenarioScale::default()
    } else {
        ScenarioScale::quick()
    }
}

/// Trials per tuple for training-stage regenerators.
pub fn trial_count() -> usize {
    if full_scale() {
        256_000
    } else {
        4_096
    }
}

/// Print the banner that opens a regenerator's output.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
    println!(
        "(scale: {}; set DYNSCHED_FULL=1 for the paper's protocol)\n",
        if full_scale() { "paper" } else { "reduced" }
    );
}

/// Run one experiment under the paper's eight-policy line-up, print the
/// artifact-style statistics plus boxplot numbers, and save the boxplot
/// data as CSV under `target/figures/` (the raw series behind the figure).
///
/// # Panics
/// Panics, naming the path, if the CSV cannot be written.
pub fn run_and_print(experiment: &Experiment) -> ExperimentResult {
    let t0 = std::time::Instant::now();
    let result = run_experiment(experiment, &paper_lineup());
    print!("{}", artifact_report(&result));
    println!("Boxplot (q1/median/q3):");
    for o in &result.outcomes {
        println!(
            "  {:>4}: {:>10.2} / {:>10.2} / {:>10.2}",
            o.policy, o.summary.q1, o.summary.median, o.summary.q3
        );
    }
    let dir = std::path::Path::new("target/figures");
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    let slug: String = result
        .name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect();
    let path = dir.join(format!("{slug}.csv"));
    write_atomic(&path, report::boxplot_csv(&result))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("boxplot CSV: {}", path.display());
    println!(
        "best: {}   [{:.1} s]\n",
        result.best_policy().unwrap_or("-"),
        t0.elapsed().as_secs_f64()
    );
    result
}

/// Regenerate one §4.2 model figure (both platform sizes), then print its
/// rows beside the paper's Table-4 medians.
pub fn regenerate_model_figure(condition: Condition) {
    let (scale, store) = (scenario_scale(), TraceStore::new());
    let results: Vec<ExperimentResult> = [256u32, 1024]
        .iter()
        .map(|&nmax| run_and_print(&model_scenario_in(&store, nmax, condition, &scale)))
        .collect();
    print!("{}", table4_comparison(&results));
}

/// Regenerate one §4.3 archive figure (all four platforms), then print its
/// rows beside the paper's Table-4 medians.
pub fn regenerate_archive_figure(condition: Condition) {
    let (scale, store) = (scenario_scale(), TraceStore::new());
    let results: Vec<ExperimentResult> = ArchivePlatform::ALL
        .iter()
        .map(|platform| run_and_print(&archive_scenario_in(&store, platform, condition, &scale)))
        .collect();
    print!("{}", table4_comparison(&results));
}

/// The load-sweep table of `sweep_load`.
pub mod sweep {
    use dynsched_core::sweep::LoadPoint;
    use std::fmt::Write as _;

    /// Render a sweep as a compact table: one row per load, one column per
    /// policy, cells are median AVEbsld.
    pub fn sweep_table(points: &[LoadPoint]) -> String {
        let mut out = String::new();
        let Some(first) = points.first() else {
            return out;
        };
        let _ = write!(out, "{:>6}", "load");
        for o in &first.result.outcomes {
            let _ = write!(out, " {:>10}", o.policy);
        }
        let _ = writeln!(out);
        for p in points {
            let _ = write!(out, "{:>6.2}", p.offered_load);
            for o in &p.result.outcomes {
                let _ = write!(out, " {:>10.2}", o.median);
            }
            let _ = writeln!(out);
        }
        out
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use dynsched_cluster::Platform;
        use dynsched_core::sweep::sweep_load;
        use dynsched_policies::{Fcfs, Policy, Spt};
        use dynsched_scheduler::SchedulerConfig;
        use dynsched_simkit::Rng;
        use dynsched_workload::{LublinModel, Trace};

        #[test]
        fn table_renders_all_points() {
            let mut model = LublinModel::new(32);
            model.daily_cycle = false;
            let mut rng = Rng::new(31);
            let sequences: Vec<Trace> =
                (0..3).map(|_| model.generate_jobs(120, &mut rng)).collect();
            let lineup: Vec<Box<dyn Policy>> = vec![Box::new(Fcfs), Box::new(Spt)];
            let points = sweep_load(
                "test",
                &sequences,
                SchedulerConfig::actual_runtimes(Platform::new(32)),
                &lineup,
                &[0.3, 0.6],
            );
            let table = sweep_table(&points);
            assert_eq!(table.lines().count(), 3);
            assert!(table.contains("FCFS"));
            assert!(table.contains("0.30"));
        }
    }
}

/// The Fig. 2 trial-count ladder.
pub mod convergence {
    /// The paper's trial-count ladder: 1k, 2k, 4k, …, 512k.
    pub fn paper_trial_counts() -> Vec<usize> {
        (0..10).map(|k| 1_000 << k).collect()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn paper_ladder_is_1k_to_512k() {
            let counts = paper_trial_counts();
            assert_eq!(counts.first(), Some(&1_000));
            assert_eq!(counts.last(), Some(&512_000));
            assert_eq!(counts.len(), 10);
        }
    }
}
