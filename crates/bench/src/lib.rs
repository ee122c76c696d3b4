//! Shared plumbing for the figure/table regenerators.
//!
//! Every program in `benches/` does one job: it **regenerates** its table
//! or figure — runs the corresponding experiment and prints the same
//! rows/series the paper reports (artifact-style statistics, boxplot
//! five-number summaries, ranked functions, …). Table 4 itself is
//! `dynsched table4`; the per-condition rows are Figs. 4–9 here.
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
//! Scale control: the regenerators default to a reduced protocol so the
//! whole suite finishes in seconds. Set `DYNSCHED_FULL=1` to run the
//! paper's protocol (10 × 15-day sequences, 256k trials, the full 512k
//! convergence ladder).

use dynsched_core::scenarios::ScenarioScale;
use dynsched_workload::SequenceSpec;

/// Whether the user asked for paper-scale runs.
pub fn full_scale() -> bool {
    std::env::var("DYNSCHED_FULL").is_ok_and(|v| v != "0")
}

/// The experiment protocol to use: paper scale under `DYNSCHED_FULL=1`,
/// otherwise a reduced protocol with the same structure.
pub fn scenario_scale() -> ScenarioScale {
    if full_scale() {
        ScenarioScale::default()
    } else {
        ScenarioScale {
            spec: SequenceSpec {
                count: 4,
                days: 3.0,
                min_jobs: 10,
            },
            ..ScenarioScale::default()
        }
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

use dynsched_core::report::artifact_report;
use dynsched_core::scenarios::{archive_scenario_in, model_scenario_in, Condition};
use dynsched_core::{run_experiment, Experiment, ExperimentResult};
use dynsched_policies::paper_lineup;
use dynsched_workload::{ArchivePlatform, TraceStore};

/// Run one experiment under the paper's eight-policy line-up, print the
/// artifact-style statistics plus boxplot numbers, and save the boxplot
/// data as CSV under `target/figures/` (the raw series behind the figure).
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
    if std::fs::create_dir_all(dir).is_ok() {
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
        if dynsched_simkit::durable::write_atomic(
            &path,
            dynsched_core::report::boxplot_csv(&result),
        )
        .is_ok()
        {
            println!("boxplot CSV: {}", path.display());
        }
    }
    println!(
        "best: {}   [{:.1} s]\n",
        result.best_policy().unwrap_or("-"),
        t0.elapsed().as_secs_f64()
    );
    result
}

/// Regenerate one §4.2 model figure (both platform sizes).
pub fn regenerate_model_figure(condition: Condition) -> Vec<ExperimentResult> {
    let (scale, store) = (scenario_scale(), TraceStore::new());
    [256u32, 1024]
        .iter()
        .map(|&nmax| run_and_print(&model_scenario_in(&store, nmax, condition, &scale)))
        .collect()
}

/// Regenerate one §4.3 archive figure (all four platforms).
pub fn regenerate_archive_figure(condition: Condition) -> Vec<ExperimentResult> {
    let (scale, store) = (scenario_scale(), TraceStore::new());
    ArchivePlatform::ALL
        .iter()
        .map(|platform| run_and_print(&archive_scenario_in(&store, platform, condition, &scale)))
        .collect()
}
