//! Regenerate the paper's Table 4: median average bounded slowdowns for
//! all 18 experiments × 8 policies, side by side with the published
//! numbers.
//!
//! Run with:
//!   cargo run --release --example table4_reproduction              # reduced scale
//!   DYNSCHED_FULL=1 cargo run --release --example table4_reproduction
//!                                             # the paper's 10 x 15-day protocol
//!
//! Absolute values depend on the workload calibration (the Lublin
//! model's constants follow the published description, not `lublin99.c`);
//! the comparison to check is the *shape*: F1–F4 ≪ ad-hoc policies, the
//! ordering among F's, and the compression of the gap under backfilling.

use dynsched::core::report::{table4_comparison, table4_markdown};
use dynsched::core::scenarios::{table4_experiments, ScenarioScale};
use dynsched::core::{learned_beat_adhoc, run_experiments};
use dynsched::policies::paper_lineup;
use dynsched::workload::SequenceSpec;

fn main() {
    let scale = if std::env::var("DYNSCHED_FULL").is_ok() {
        ScenarioScale::default()
    } else {
        ScenarioScale {
            spec: SequenceSpec {
                count: 3,
                days: 2.0,
                min_jobs: 5,
            },
            ..ScenarioScale::default()
        }
    };
    println!(
        "Protocol: {} sequences x {} days (paper: 10 x 15).\n",
        scale.spec.count, scale.spec.days
    );

    let lineup = paper_lineup();
    let experiments = table4_experiments(&scale);
    // All 18 rows × 8 policies × sequences run as ONE batched evaluation
    // session — a single fan-out with reusable per-worker workspaces.
    let t0 = std::time::Instant::now();
    let results = run_experiments(&experiments, &lineup);
    eprintln!(
        "18 rows evaluated in {:.1} s (one batched session)",
        t0.elapsed().as_secs_f64()
    );
    for (i, result) in results.iter().enumerate() {
        eprintln!(
            "[{:>2}/18] {}  (best {})",
            i + 1,
            result.name,
            result.best_policy().unwrap_or("-")
        );
    }

    println!("\n== Measured medians (Table 4 layout) ==\n");
    print!("{}", table4_markdown(&results));

    println!("\n== Paper vs measured ==\n");
    print!("{}", table4_comparison(&results));

    let wins = results.iter().filter(|r| learned_beat_adhoc(r)).count();
    println!(
        "\nShape check: best learned policy beats best ad-hoc policy in {wins}/18 experiments \
         (paper: 18/18 on medians)."
    );
}
