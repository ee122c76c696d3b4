//! Dynamic scheduling experiments on a real archive log (§4.3).
//!
//! Runs a Standard Workload Format log, such as one of the Parallel
//! Workloads Archive logs of the paper's Table 5, through the paper's §4.3
//! protocol: ten 15-day sequences cut from the log, each scheduled under
//! the eight-policy line-up in all three conditions (actual runtimes, user
//! estimates, estimates + EASY backfilling), printed in the artifact's
//! format. The synthetic stand-ins for the four archive platforms are the
//! Fig. 7–9 regenerators' (`cargo bench -p dynsched-bench --bench
//! fig7_traces_actual`), not this program's.
//!
//!   cargo run --release --example real_trace_sim -- CEA-Curie.swf 93312
//!
//! A missing or unparsable file, a core count that is not a positive
//! integer and a log too short for the protocol are each one `error:`
//! line, exit 1.

use dynsched::cluster::Platform;
use dynsched::core::report::artifact_report;
use dynsched::core::scenarios::{Condition, ScenarioScale};
use dynsched::core::{run_experiments, Experiment};
use dynsched::policies::paper_lineup;
use dynsched::workload::{extract_sequences, read_swf_file};
use std::process::ExitCode;

/// The command line: the log's path and the platform's core count.
fn run(args: &[String]) -> Result<String, String> {
    let [path, cores] = args else {
        return Err("usage: real_trace_sim <trace.swf> <cores>".to_string());
    };
    let cores = match cores.parse::<u32>() {
        Ok(cores) if cores > 0 => cores,
        _ => return Err(format!("bad <cores>: {cores:?} is not a positive integer")),
    };
    run_on_swf(path, cores, &ScenarioScale::default())
}

/// Schedule the log at `path` on a `cores`-wide platform under `scale`'s
/// protocol, in all three conditions, and return the report.
fn run_on_swf(path: &str, cores: u32, scale: &ScenarioScale) -> Result<String, String> {
    let (_, trace) = read_swf_file(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let trace = trace.capped_to(cores);
    let sequences = extract_sequences(&trace, &scale.spec).map_err(|e| format!("{path}: {e}"))?;
    let mut report = format!("Loaded {} usable jobs from {path}.\n", trace.len());
    // All three conditions in one batched session.
    let experiments: Vec<Experiment> = Condition::ALL
        .into_iter()
        .map(|condition| {
            Experiment::new(
                format!("{path}, {}", condition.label()),
                sequences.clone(),
                condition.scheduler(Platform::new(cores)),
            )
        })
        .collect();
    for result in run_experiments(&experiments, &paper_lineup()) {
        report += &artifact_report(&result);
        report.push('\n');
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsched::core::report::TABLE4_POLICIES;
    use dynsched::simkit::Rng;
    use dynsched::workload::{write_swf_trace, LublinModel};

    /// Write `text` under the temp dir and return its path.
    fn temp_file(name: &str, text: &str) -> String {
        let path =
            std::env::temp_dir().join(format!("real-trace-sim-{}-{name}.swf", std::process::id()));
        std::fs::write(&path, text).unwrap();
        path.to_string_lossy().into_owned()
    }

    /// A 64-core Lublin log spanning `days`.
    fn lublin_log(name: &str, days: f64) -> String {
        let mut rng = Rng::new(7);
        let model = LublinModel::new(64).calibrated_to_load(0.9, &mut rng);
        let trace = model.generate_span(days * 86_400.0, &mut rng);
        temp_file(name, &write_swf_trace(&trace, 64))
    }

    #[test]
    fn a_log_runs_every_condition_under_the_whole_lineup() {
        let path = lublin_log("log", 20.0);
        let report = run_on_swf(&path, 64, &ScenarioScale::quick()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(report.starts_with("Loaded "), "{report}");
        let lines: Vec<&str> = report.lines().collect();
        let tests: Vec<&str> = lines
            .iter()
            .filter_map(|l| l.strip_prefix("Performing scheduling performance test: "))
            .collect();
        let want: Vec<String> = Condition::ALL
            .iter()
            .map(|c| format!("{path}, {}.", c.label()))
            .collect();
        assert_eq!(tests, want);
        // The line after each section header names the eight policies in
        // Table 4's order.
        for header in ["Medians:", "Means:", "Standard Deviations:"] {
            let rows: Vec<&str> = lines
                .windows(2)
                .filter(|w| w[0] == header)
                .map(|w| w[1])
                .collect();
            assert_eq!(rows.len(), 3, "{header}");
            for row in rows {
                let policies: Vec<&str> = row
                    .split(' ')
                    .map(|cell| cell.split_once('=').expect("policy=value").0)
                    .collect();
                assert_eq!(policies, TABLE4_POLICIES, "{row}");
            }
        }
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // `Platform::new(0)` asserted; a non-numeric count hit an `expect`.
        for cores in ["0", "x", "-1"] {
            let err = run(&args(&["t.swf", cores])).unwrap_err();
            assert!(err.contains("<cores>") && err.contains(cores), "{err}");
        }
        assert!(run(&args(&["t.swf"])).unwrap_err().contains("usage"));
        // A missing file and an unparsable one panicked in the reader.
        let missing = std::env::temp_dir().join("real-trace-sim-no-such-file.swf");
        let err = run_on_swf(missing.to_str().unwrap(), 64, &ScenarioScale::quick()).unwrap_err();
        assert!(err.starts_with("cannot read"), "{err}");
        let garbage = temp_file("garbage", "1 2 three\n");
        let err = run_on_swf(&garbage, 64, &ScenarioScale::quick()).unwrap_err();
        std::fs::remove_file(&garbage).unwrap();
        assert!(err.starts_with("cannot read"), "{err}");
        // A log shorter than the protocol panicked in the extraction.
        let short = lublin_log("short", 5.0);
        let err = run_on_swf(&short, 64, &ScenarioScale::quick()).unwrap_err();
        std::fs::remove_file(&short).unwrap();
        assert!(err.contains("of the 4 requested"), "{err}");
    }
}
