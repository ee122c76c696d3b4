//! Visualize schedules: ASCII Gantt charts, utilization and queue-length
//! curves, and SWF export — side by side for FCFS vs F1 vs EASY.
//!
//! Run with: `cargo run --release --example schedule_visualizer`

use dynsched::cluster::{Platform, DEFAULT_TAU};
use dynsched::policies::{Fcfs, LearnedPolicy, Policy};
use dynsched::scheduler::timeline::{curve_max, curve_mean, queue_length_curve, utilization_curve};
use dynsched::scheduler::{
    ascii_gantt, simulate, write_schedule_swf, QueueDiscipline, SchedulerConfig,
};
use dynsched::simkit::durable::write_atomic;
use dynsched::simkit::Rng;
use dynsched::workload::LublinModel;

fn main() {
    let platform = Platform::new(32);
    let mut model = LublinModel::new(32);
    model.arrival_scale = 0.02; // a saturated burst so the policies differ
    model.daily_cycle = false;
    let mut rng = Rng::new(2026);
    let trace = model.generate_jobs(28, &mut rng);
    println!(
        "Workload: {} jobs on {} cores (offered load {:.1}).\n",
        trace.len(),
        platform.total_cores,
        trace.summary(32).unwrap().offered_load
    );

    let configs: Vec<(String, SchedulerConfig, Box<dyn Policy>)> = vec![
        (
            "FCFS, no backfilling".into(),
            SchedulerConfig::actual_runtimes(platform),
            Box::new(Fcfs),
        ),
        (
            "F1, no backfilling".into(),
            SchedulerConfig::actual_runtimes(platform),
            Box::new(LearnedPolicy::f1()),
        ),
        (
            "FCFS + EASY (the EASY algorithm)".into(),
            SchedulerConfig::estimates_with_backfilling(platform),
            Box::new(Fcfs),
        ),
    ];

    for (label, config, policy) in &configs {
        let result = simulate(&trace, &QueueDiscipline::Policy(policy.as_ref()), config);
        println!("== {label} ==");
        println!("(id x cores; '.' waiting, '#' running; time left to right)");
        print!("{}", ascii_gantt(&result, 72));
        let util = utilization_curve(&result, platform);
        let queue = queue_length_curve(&result);
        println!(
            "AVEbsld {:.2} | makespan {:.1} h | mean util {:.2} | peak queue {} | backfilled {}\n",
            result.avg_bounded_slowdown(DEFAULT_TAU).unwrap(),
            result.makespan / 3_600.0,
            curve_mean(&util).unwrap_or(0.0),
            curve_max(&queue) as u64,
            result.backfilled_jobs,
        );
    }

    // Export the F1 schedule as SWF for external tooling.
    let result = simulate(
        &trace,
        &QueueDiscipline::Policy(&LearnedPolicy::f1()),
        &SchedulerConfig::actual_runtimes(platform),
    );
    let out = std::path::Path::new("target/figures");
    std::fs::create_dir_all(out).expect("create target/figures");
    let path = out.join("f1_schedule.swf");
    write_atomic(&path, write_schedule_swf(&result, "F1 on 32 cores", 32)).expect("write swf");
    println!(
        "F1 schedule exported to {} (SWF with simulated wait times).",
        path.display()
    );
}
