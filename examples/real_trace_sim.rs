//! Dynamic scheduling experiments on (stand-ins for) real traces
//! (§4.3; Figs. 7–9 and Table 5).
//!
//! By default this uses the synthetic stand-ins for the four Parallel
//! Workloads Archive platforms of Table 5 (Curie, ANL Intrepid, SDSC Blue,
//! CTC SP2) — the build is offline and cannot fetch the archive logs, so
//! `workload::archive` synthesizes each platform's trace. If you have a
//! real SWF log, pass it directly and the identical code path runs on it:
//!
//!   cargo run --release --example real_trace_sim                  # stand-ins
//!   DYNSCHED_FULL=1 cargo run --release --example real_trace_sim  # paper scale
//!   cargo run --release --example real_trace_sim -- CEA-Curie.swf 93312
//!                                                   # a real archive log

use dynsched::cluster::Platform;
use dynsched::core::report::artifact_report;
use dynsched::core::scenarios::{archive_scenario_in, Condition, ScenarioScale};
use dynsched::core::{run_experiments, Experiment};
use dynsched::policies::paper_lineup;
use dynsched::workload::{
    extract_sequences, parse_swf_trace, ArchivePlatform, SequenceSpec, TraceStore,
};

fn scale() -> ScenarioScale {
    if std::env::var("DYNSCHED_FULL").is_ok() {
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

fn run_on_swf(path: &str, cores: u32, scale: &ScenarioScale) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read SWF file {path}: {e}"));
    let trace = parse_swf_trace(&text)
        .unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
        .capped_to(cores);
    println!("Loaded {} usable jobs from {path}.", trace.len());
    let sequences = extract_sequences(&trace, &scale.spec)
        .unwrap_or_else(|e| panic!("cannot extract sequences: {e}"));
    let lineup = paper_lineup();
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
    for result in run_experiments(&experiments, &lineup) {
        print!("{}", artifact_report(&result));
        println!();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = scale();

    if let (Some(path), Some(cores)) = (args.first(), args.get(1)) {
        let cores: u32 = cores
            .parse()
            .expect("second argument must be the platform core count");
        run_on_swf(path, cores, &scale);
        return;
    }

    // Table 5.
    println!("Platforms (paper Table 5):");
    println!(
        "{:<13} {:>5} {:>8} {:>8} {:>7} {:>9}",
        "Name", "Year", "#CPUs", "#Jobs", "Util%", "Duration"
    );
    for p in &ArchivePlatform::ALL {
        println!(
            "{:<13} {:>5} {:>8} {:>8} {:>7.1} {:>6} mo",
            p.name, p.year, p.cpus, p.jobs, p.utilization_pct, p.duration_months
        );
    }
    println!(
        "\nProtocol: {} sequences x {} days (paper: 10 x 15). Stand-ins are synthetic; pass\na real SWF path + core count to run on an archive log.\n",
        scale.spec.count, scale.spec.days
    );

    let lineup = paper_lineup();
    // Every (condition × platform) experiment runs in one batched session;
    // the three conditions of a platform share its sequences through the store.
    let store = &TraceStore::new();
    let experiments: Vec<Experiment> = Condition::ALL
        .into_iter()
        .flat_map(|condition| {
            ArchivePlatform::ALL
                .iter()
                .map(move |platform| archive_scenario_in(store, platform, condition, &scale))
        })
        .collect();
    let t0 = std::time::Instant::now();
    let results = run_experiments(&experiments, &lineup);
    eprintln!(
        "{} experiments evaluated in {:.1} s (one batched session)\n",
        results.len(),
        t0.elapsed().as_secs_f64()
    );
    let per_condition = ArchivePlatform::ALL.len();
    for (i, (condition, chunk)) in Condition::ALL
        .iter()
        .zip(results.chunks(per_condition))
        .enumerate()
    {
        println!("==== Condition: {} ====", condition.label());
        for (experiment, result) in experiments[i * per_condition..].iter().zip(chunk) {
            let njobs: usize = experiment.sequences.iter().map(|s| s.len()).sum();
            print!("{}", artifact_report(result));
            println!(
                "jobs={njobs} best={}\n",
                result.best_policy().unwrap_or("-")
            );
        }
    }
}
