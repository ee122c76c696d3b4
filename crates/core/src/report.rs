//! Reporting: artifact-style text and the Table 4 comparison.
//!
//! The paper's artifact prints experiment statistics in a fixed format
//! (appendix A.5.3); [`artifact_report`] reproduces it so outputs are
//! visually comparable. [`PAPER_TABLE4`] is the one copy of the published
//! medians, and [`table4_comparison`] renders measured-vs-paper side by
//! side — the comparison table `dynsched table4` prints, and the one the
//! Fig. 4–9 regenerators end with. The Fig. 3 heatmaps and the boxplot CSV
//! are figure data, rendered by the `dynsched-bench` regenerators that
//! write them.

use crate::experiments::ExperimentResult;
use crate::pipeline::FullRunReport;
use std::fmt::Write as _;

/// Policy column order of Table 4.
pub const TABLE4_POLICIES: [&str; 8] = ["FCFS", "WFP", "UNI", "SPT", "F4", "F3", "F2", "F1"];

/// The published medians of Table 4 (row label, eight medians in
/// [`TABLE4_POLICIES`] order).
pub const PAPER_TABLE4: [(&str, [f64; 8]); 18] = [
    (
        "Workload model, nmax = 256, actual runtimes r",
        [
            5846.87, 3630.66, 1799.74, 943.59, 583.89, 89.93, 29.65, 29.58,
        ],
    ),
    (
        "Workload model, nmax = 1024, actual runtimes r",
        [
            10315.62, 7759.03, 4310.26, 4061.44, 1518.73, 831.18, 244.80, 217.13,
        ],
    ),
    (
        "Workload model, nmax = 256, runtime estimates e",
        [
            5846.87, 6021.69, 3561.56, 4415.27, 719.88, 405.68, 207.05, 33.03,
        ],
    ),
    (
        "Workload model, nmax = 1024, runtime estimates e",
        [
            10315.62, 9713.40, 5930.50, 7573.58, 2605.45, 2065.47, 1292.64, 249.80,
        ],
    ),
    (
        "Workload model, nmax = 256, aggressive backfilling",
        [842.66, 654.81, 470.72, 623.86, 329.49, 163.74, 45.72, 32.82],
    ),
    (
        "Workload model, nmax = 1024, aggressive backfilling",
        [
            3018.94, 3792.40, 2804.38, 3024.49, 1571.95, 1055.82, 490.77, 223.52,
        ],
    ),
    (
        "Curie workload trace, actual runtimes r",
        [227.67, 182.95, 93.76, 132.59, 20.25, 10.66, 3.58, 10.38],
    ),
    (
        "Anl Interpid workload trace, actual runtimes r",
        [30.04, 11.78, 6.03, 3.34, 1.94, 1.71, 1.87, 2.14],
    ),
    (
        "SDSC Blue workload trace, actual runtimes r",
        [299.83, 44.40, 20.37, 21.77, 14.33, 10.38, 4.31, 10.22],
    ),
    (
        "CTC SP2 workload trace, actual runtimes r",
        [439.72, 309.72, 29.87, 87.55, 19.02, 14.06, 5.32, 10.27],
    ),
    (
        "Curie workload trace, runtime estimates e",
        [227.67, 251.54, 135.53, 213.03, 48.45, 24.98, 12.47, 21.85],
    ),
    (
        "Anl Interpid workload trace, runtime estimates e",
        [30.04, 17.82, 11.42, 5.44, 4.15, 3.15, 2.57, 2.64],
    ),
    (
        "SDSC Blue workload trace, runtime estimates e",
        [299.83, 94.87, 39.69, 36.42, 24.26, 10.16, 9.88, 12.14],
    ),
    (
        "CTC SP2 workload trace, runtime estimates e",
        [439.72, 369.93, 98.58, 290.39, 31.23, 21.58, 13.78, 15.14],
    ),
    (
        "Curie workload trace, aggressive backfilling",
        [59.03, 49.23, 24.35, 35.72, 24.54, 23.91, 18.69, 21.73],
    ),
    (
        "Anl Interpid workload trace, aggressive backfilling",
        [8.56, 6.00, 4.01, 3.70, 3.52, 2.87, 2.54, 2.64],
    ),
    (
        "SDSC Blue workload trace, aggressive backfilling",
        [36.40, 17.76, 13.07, 10.20, 9.37, 10.18, 9.66, 11.97],
    ),
    (
        "CTC SP2 workload trace, aggressive backfilling",
        [74.96, 54.32, 24.06, 17.32, 14.12, 14.40, 10.77, 14.07],
    ),
];

fn stat_line(
    result: &ExperimentResult,
    pick: impl Fn(&crate::experiments::PolicyOutcome) -> f64,
) -> String {
    result
        .outcomes
        .iter()
        .map(|o| format!("{}={:.2}", o.policy, pick(o)))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Render one experiment in the artifact's output format:
///
/// ```text
/// Experiment Statistics:
/// Medians:
/// FCFS=5846.87 WFP=3630.67 …
/// Means:
/// …
/// Standard Deviations:
/// …
/// ```
pub fn artifact_report(result: &ExperimentResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Performing scheduling performance test: {}.",
        result.name
    );
    let _ = writeln!(out, "Experiment Statistics:");
    let _ = writeln!(out, "Medians:");
    let _ = writeln!(out, "{}", stat_line(result, |o| o.median));
    let _ = writeln!(out, "Means:");
    let _ = writeln!(out, "{}", stat_line(result, |o| o.mean));
    let _ = writeln!(out, "Standard Deviations:");
    let _ = writeln!(out, "{}", stat_line(result, |o| o.std_dev));
    out
}

/// Render a markdown table of measured medians, Table-4 style.
pub fn table4_markdown(results: &[ExperimentResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| Experiment | {} |", TABLE4_POLICIES.join(" | "));
    let _ = writeln!(out, "|---|{}", "---:|".repeat(TABLE4_POLICIES.len()));
    for r in results {
        let cells: Vec<String> = TABLE4_POLICIES
            .iter()
            .map(|p| {
                r.median_of(p)
                    .map_or("-".to_string(), |m| format!("{m:.2}"))
            })
            .collect();
        let _ = writeln!(out, "| {} | {} |", r.name, cells.join(" | "));
    }
    out
}

/// Render measured medians next to the paper's published medians, row by
/// row, with the win/loss structure called out: for each row we report
/// whether every learned policy (F1–F4) beat every ad-hoc policy — the
/// paper's headline claim.
pub fn table4_comparison(results: &[ExperimentResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| Experiment | Policy | Paper median | Measured median |"
    );
    let _ = writeln!(out, "|---|---|---:|---:|");
    for r in results {
        let paper_row = PAPER_TABLE4
            .iter()
            .find(|(name, _)| row_matches(name, &r.name));
        for (i, p) in TABLE4_POLICIES.iter().enumerate() {
            let paper = paper_row.map_or("-".to_string(), |(_, vals)| format!("{:.2}", vals[i]));
            let measured = r
                .median_of(p)
                .map_or("-".to_string(), |m| format!("{m:.2}"));
            let _ = writeln!(out, "| {} | {} | {} | {} |", r.name, p, paper, measured);
        }
        let _ = writeln!(
            out,
            "| {} | **shape** | best F beats best ad-hoc: paper ✓ | measured {} |",
            r.name,
            if learned_beat_adhoc(r) { "✓" } else { "✗" }
        );
    }
    out
}

/// Render a one-shot learn→evaluate run ([`run_full`]) as a single
/// markdown artifact: the ranked learned functions with their
/// coefficients and fitness, then the AVEbsld median table over the full
/// Table-4 scenario grid, then the paper's structural claim evaluated on
/// *this* run's policies (best generated vs best ad-hoc, row by row).
///
/// [`run_full`]: crate::pipeline::run_full
pub fn full_run_markdown(report: &FullRunReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# One-shot training → evaluation run");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Training: {} observations pooled from {} tuples; {} candidate functions fitted.",
        report.learned.training_set.len(),
        report.learned.tuples.len(),
        report.learned.fits.len(),
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "## Learned policies (best fit first)");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "| Policy | Function | Coefficients | Fitness (Eq. 5) | Converged |"
    );
    let _ = writeln!(out, "|---|---|---|---:|---|");
    for (policy, fit) in report.learned.policies.iter().zip(&report.learned.fits) {
        let [c1, c2, c3] = fit.function.coefficients;
        let _ = writeln!(
            out,
            "| {} | `{}` | [{c1:.6e}, {c2:.6e}, {c3:.6e}] | {:.6e} | {} |",
            dynsched_policies::Policy::name(policy),
            fit.function.render_simplified(),
            fit.fitness,
            if fit.converged { "yes" } else { "no" },
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "## Evaluation: AVEbsld medians, Table-4 scenario grid");
    let _ = writeln!(out);
    let _ = writeln!(out, "| Experiment | {} |", report.lineup.join(" | "));
    let _ = writeln!(out, "|---|{}", "---:|".repeat(report.lineup.len()));
    for row in &report.evaluation {
        let cells: Vec<String> = report
            .lineup
            .iter()
            .map(|p| {
                row.median_of(p)
                    .map_or("-".to_string(), |m| format!("{m:.2}"))
            })
            .collect();
        let _ = writeln!(out, "| {} | {} |", row.name, cells.join(" | "));
    }
    let _ = writeln!(out);
    let generated: Vec<&str> = report
        .lineup
        .iter()
        .filter(|n| n.starts_with('G'))
        .map(String::as_str)
        .collect();
    let adhoc: Vec<&str> = report
        .lineup
        .iter()
        .filter(|n| !n.starts_with('G'))
        .map(String::as_str)
        .collect();
    let best_of = |row: &ExperimentResult, names: &[&str]| -> Option<f64> {
        names
            .iter()
            .filter_map(|n| row.median_of(n))
            .min_by(f64::total_cmp)
    };
    let wins = report
        .evaluation
        .iter()
        .filter(
            |row| match (best_of(row, &generated), best_of(row, &adhoc)) {
                (Some(g), Some(a)) => g < a,
                _ => false,
            },
        )
        .count();
    let _ = writeln!(
        out,
        "Shape: best learned (G*) beats best ad-hoc in {wins}/{} rows (paper: 18/18).",
        report.evaluation.len(),
    );
    out
}

/// Whether the best learned policy's median beats the best ad-hoc
/// policy's median in `result` — the structural claim of the paper.
pub fn learned_beat_adhoc(result: &ExperimentResult) -> bool {
    let best_of = |names: &[&str]| -> Option<f64> {
        names
            .iter()
            .filter_map(|n| result.median_of(n))
            .min_by(f64::total_cmp)
    };
    match (
        best_of(&["F1", "F2", "F3", "F4"]),
        best_of(&["FCFS", "WFP", "UNI", "SPT"]),
    ) {
        (Some(f), Some(adhoc)) => f < adhoc,
        _ => false,
    }
}

fn row_matches(paper_name: &str, measured_name: &str) -> bool {
    // Tolerate the paper's "Anl Interpid" spelling vs our "ANL Intrepid".
    let norm = |s: &str| {
        s.to_ascii_lowercase()
            .replace("interpid", "intrepid")
            .replace(' ', "")
    };
    norm(paper_name) == norm(measured_name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::PolicyOutcome;
    use dynsched_policies::LearnedPolicy;
    use dynsched_simkit::stats::BoxplotSummary;

    fn fake_result(medians: &[(&str, f64)]) -> ExperimentResult {
        ExperimentResult {
            name: "Workload model, nmax = 256, actual runtimes r".to_string(),
            outcomes: medians
                .iter()
                .map(|(name, m)| PolicyOutcome {
                    policy: name.to_string(),
                    ave_bslds: vec![*m],
                    summary: BoxplotSummary::from_samples(&[*m]).unwrap(),
                    median: *m,
                    mean: *m,
                    std_dev: 0.0,
                    mean_backfilled: 0.0,
                    mean_preempted: 0.0,
                    mean_abandoned: 0.0,
                    mean_lost_core_seconds: 0.0,
                })
                .collect(),
        }
    }

    #[test]
    fn artifact_report_contains_all_sections() {
        let r = fake_result(&[("FCFS", 5846.87), ("F1", 29.58)]);
        let text = artifact_report(&r);
        assert!(text.contains("Medians:"));
        assert!(text.contains("Means:"));
        assert!(text.contains("Standard Deviations:"));
        assert!(text.contains("FCFS=5846.87"));
        assert!(text.contains("F1=29.58"));
    }

    #[test]
    fn paper_table_has_18_rows_and_sane_structure() {
        assert_eq!(PAPER_TABLE4.len(), 18);
        for (name, vals) in &PAPER_TABLE4 {
            assert!(!name.is_empty());
            for v in vals {
                assert!(*v >= 1.0, "{name}: median {v} below 1");
            }
            // In every published row, F1's median beats FCFS's.
            assert!(vals[7] < vals[0], "{name}");
        }
    }

    #[test]
    fn learned_beat_adhoc_detects_shape() {
        let good = fake_result(&[
            ("FCFS", 100.0),
            ("WFP", 90.0),
            ("UNI", 80.0),
            ("SPT", 70.0),
            ("F4", 60.0),
            ("F3", 50.0),
            ("F2", 40.0),
            ("F1", 30.0),
        ]);
        assert!(learned_beat_adhoc(&good));
        let bad = fake_result(&[
            ("FCFS", 10.0),
            ("WFP", 90.0),
            ("UNI", 80.0),
            ("SPT", 70.0),
            ("F4", 60.0),
            ("F3", 50.0),
            ("F2", 40.0),
            ("F1", 30.0),
        ]);
        assert!(!learned_beat_adhoc(&bad));
    }

    #[test]
    fn full_run_markdown_renders_every_section() {
        use crate::pipeline::{FullRunReport, LearnedReport};
        use dynsched_mlreg::{FitResult, TrainingSet};
        use dynsched_policies::NonlinearFunction;
        let family = NonlinearFunction::enumerate_family();
        let fits: Vec<FitResult> = [(10usize, 0.01), (44, 0.02)]
            .iter()
            .map(|&(i, fitness)| FitResult {
                function: family[i].with_coefficients([1e-4, 2e-4, 3e-4]),
                family_index: i,
                fitness,
                weighted_sse: 1.0,
                converged: true,
            })
            .collect();
        let policies: Vec<LearnedPolicy> = fits
            .iter()
            .enumerate()
            .map(|(i, f)| LearnedPolicy::generated(i + 1, f.function))
            .collect();
        let mut row = fake_result(&[("FCFS", 100.0), ("SPT", 50.0), ("G1", 10.0), ("G2", 20.0)]);
        row.name = "Workload model, nmax = 256, actual runtimes r".to_string();
        let report = FullRunReport {
            learned: LearnedReport {
                tuples: vec![],
                training_set: TrainingSet::default(),
                fits,
                policies,
            },
            lineup: vec!["FCFS".into(), "SPT".into(), "G1".into(), "G2".into()],
            evaluation: vec![row],
        };
        let md = full_run_markdown(&report);
        assert!(md.contains("## Learned policies"));
        assert!(md.contains("| G1 |"));
        assert!(md.contains("## Evaluation"));
        assert!(md.contains("| FCFS | SPT | G1 | G2 |"));
        assert!(md.contains("10.00"));
        // G1 (10.0) beats the best ad-hoc (SPT, 50.0) in the single row.
        assert!(md.contains("beats best ad-hoc in 1/1 rows"));
    }

    #[test]
    fn table4_markdown_lists_all_policies() {
        let r = fake_result(&[("FCFS", 1.0), ("F1", 2.0)]);
        let md = table4_markdown(&[r]);
        assert!(md.contains("| FCFS |"));
        assert!(md.contains("1.00"));
        assert!(md.contains('-'), "missing policies render as '-'");
    }

    #[test]
    fn comparison_matches_paper_row_despite_spelling() {
        assert!(row_matches(
            "Anl Interpid workload trace, actual runtimes r",
            "ANL Intrepid workload trace, actual runtimes r"
        ));
    }
}
