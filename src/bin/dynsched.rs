//! `dynsched` — command-line front end for the library.
//!
//! `dynsched help` lists every command with its positionals and flags,
//! rendered from the tables in [`spec`], where each is declared once;
//! [`args::parse`] checks a command line against them before the command
//! does anything. Flags and positionals may come in any order (`simulate
//! --policy SPT t.swf 8`); a flag given twice, a value outside its range,
//! and a flag without the one it refines (`--spill` without `--router
//! locality`, `--mttr` without `--mtbf`) are each one `error:` line, exit 1.
//!
//! Everything here is a thin shell over the library crates; see
//! `examples/` for programmatic use.

use dynsched::cluster::{FaultProfile, Platform, DEFAULT_TAU};
use dynsched::core::pipeline::{learn_policies, run_full, FullRunConfig, TrainingConfig};
use dynsched::core::report::{full_run_markdown, table4_comparison, table4_markdown};
use dynsched::core::scenarios::{scenario_results, table4_experiments_in, ScenarioScale};
use dynsched::core::trials::TrialSpec;
use dynsched::core::tuples::TupleSpec;
use dynsched::core::{
    learned_beat_adhoc, run_experiments, run_full_checkpointed, ExperimentResult, RunError,
};
use dynsched::mlreg::EnumerateOptions;
use dynsched::policies::{by_name, paper_lineup, save_learned, MultiFactor, Policy};
use dynsched::scheduler::{
    run_federation, run_federation_faulty, BackfillMode, ConservativeStats, FederationResult,
    FederationSpec, QueueDiscipline, Router, SchedulerConfig, SimWorkspace, SimulationResult,
};
use dynsched::simkit::durable::write_atomic;
use dynsched::workload::{
    read_swf_file, validate_trace, LublinModel, ScenarioCalibration, ScenarioFamily,
    ScenarioParams, SequenceSpec, Trace, TraceStore,
};
use std::process::ExitCode;
#[path = "dynsched/args.rs"]
mod args;
use args::{flag, parse, Args, CommandSpec, FlagSpec, Kind};

/// The command line, declared once: a row per flag, a `CommandSpec` per
/// subcommand, and in `flags` the groups commands share.
#[rustfmt::skip]
mod spec {
    use super::*;
    use Kind::{Choice, Cores, Count, Path, Real, Seed, Switch, Text};

    /// Every subcommand, in the order `dynsched help` lists them.
    pub const COMMANDS: [&CommandSpec; 8] =
        [&VALIDATE, &SIMULATE, &FEDERATE, &TRAIN, &RUN, &TABLE4, &SCENARIOS, &POLICIES];

    // Counts the library asserts on, and spans that mean nothing unless positive and finite:
    // `--tuples 0` panicked, `--days nan` printed garbage, `--mtbf 0` silently injected no faults.
    const POSITIVE: Kind = Count { min: 1, max: u32::MAX as u64 };
    const fn positive_real(max: f64) -> Kind { Real { min: 0.0, max, open: true } }
    const SECONDS: Kind = positive_real(f64::INFINITY);

    const TRACE: FlagSpec = flag("<trace.swf>", Path, "a Standard Workload Format log");
    /// `simulate` and `federate`: the trace, the platform, the queue policy, the scheduler knobs.
    const REPLAY: &[FlagSpec] = &[
        TRACE,
        flag("<cores>", Cores { min: 1 }, "platform width (per cluster); wider jobs are dropped"),
        flag("--policy", Text, "queue policy, one `dynsched policies` lists").default("F1"),
        flag("--estimates", Switch, "decide on user estimates instead of actual runtimes"),
        flag("--backfill", Choice(&["none", "easy", "aggressive", "conservative"]),
             "backfilling mode; aggressive is another name for easy").default("none"),
        flag("--kill", Switch, "kill a job once it has run for its estimate"),
    ];
    /// `federate` and `scenarios`: `--mtbf` turns deterministic fault injection on, `FAULT` tunes.
    // A run draws span / X failures into memory: `--mtbf 1e-7` ran until killed.
    const MTBF: FlagSpec = flag("--mtbf", Real { min: 1.0, max: f64::INFINITY, open: false },
        "inject node failures this many seconds apart on average (a run draws span / X of them, \
         so at least one second), and print resilience counters");
    const FAULT: &[FlagSpec] = &[
        flag("--mttr", SECONDS, "seconds a failed node is down").default("3600").requires("--mtbf"),
        flag("--fault-cores", POSITIVE, "cores per failure (default: cores/8)").requires("--mtbf"),
        flag("--fault-retries", Count { min: 0, max: u32::MAX as u64 },
             "requeues of a preempted job before it is abandoned").default("3").requires("--mtbf"),
        flag("--fault-seed", Seed, "seed of the fault stream (default: --seed, else 23575)")
            .requires("--mtbf"),
    ];
    /// `train`, `run` and `scenarios`: the generated platform and its random streams.
    const MODEL: &[FlagSpec] = &[
        flag("--cores", Cores { min: 2 }, "platform width (the Lublin model needs a parallel one)")
            .default("256"),
        flag("--seed", Seed, "seed of every random stream").default("23575"),
    ];
    /// `train` and `run`.
    const TRAINING: &[FlagSpec] = &[
        flag("--tuples", POSITIVE, "(S, Q) tuples to sample").default("12"),
        flag("--trials", POSITIVE, "permutation trials per tuple").default("8000"),
    ];
    /// `run` and `table4`.
    const QUICK: &[FlagSpec] = &[flag("--quick", Switch,
        "evaluate on 4 sequences x 3 days, not the paper's 10 x 15")];

    pub const VALIDATE: CommandSpec = CommandSpec {
        name: "validate", run: cmd_validate,
        flags: &[&[TRACE, flag("[cores]", Cores { min: 1 }, "platform width (default: MaxProcs)")]],
        about: "Audit a Standard Workload Format trace.",
    };
    pub const SIMULATE: CommandSpec = CommandSpec {
        name: "simulate", run: cmd_simulate,
        flags: &[REPLAY, &[flag("--stats", Switch,
            "also print what the conservative-backfilling passes did: passes run, waiters \
             queued when they were entered, waiters reserved, passes that started a job")]],
        about: "Schedule the trace and print artifact-style statistics.",
    };
    pub const FEDERATE: CommandSpec = CommandSpec {
        name: "federate", run: cmd_federate,
        flags: &[REPLAY, &[
            // 65 536 clusters run in 0.1 s; 10^7 print table rows for a minute, 2^32 wraps
            // `shard as u32` in the routing table and 2^64 overflowed a capacity.
            flag("--shards", Count { min: 1, max: 65_536 },
                 "clusters to route across; the ceiling is far past any use").default("4"),
            flag("--router", Choice(&["round-robin", "least-loaded", "locality", "learned"]),
                 "locality keeps a job on its home cluster (id mod N) unless its estimated wait \
                  there trails the best cluster's by more than --spill; learned routes to the \
                  cluster --router-policy scores lowest").default("least-loaded"),
            // A NaN tolerance fails every `home <= best + spill` test: least-loaded, misnamed.
            flag("--spill", Real { min: 0.0, max: f64::INFINITY, open: false },
                 "seconds of estimated wait the home cluster may trail the best by")
                .default("0").requires("--router locality"),
            flag("--router-policy", Text, "policy that scores the clusters (default: --policy)")
                .requires("--router learned"),
        ], &[MTBF], FAULT],
        about: "Route the trace across identical clusters, schedule every shard concurrently and \
                print per-cluster and merged statistics. With --mtbf, each cluster draws its own \
                fault stream from (fault seed, shard index). Schedules are bit-identical at any \
                worker-thread count, and a 1-shard federation is bit-identical to `simulate`.",
    };
    pub const TRAIN: CommandSpec = CommandSpec {
        name: "train", run: cmd_train,
        flags: &[TRAINING, MODEL, &[flag("--out", Path, "also write the learned policies here")]],
        about: "Run the training pipeline (Lublin model) and print the best learned policies. Each \
                distinct (S, Q) tuple is simulated once up to the point where task order can first \
                matter, and all its permutation trials fork from that snapshot (bit-identical to \
                from-scratch trials at any thread count).",
    };
    pub const RUN: CommandSpec = CommandSpec {
        name: "run", run: cmd_run,
        flags: &[TRAINING, MODEL, &[
            flag("--top", Count { min: 1, max: 576 },
                 "learned functions kept as policies G1..GK, of the 576 candidates").default("4"),
            flag("--out", Path, "also write the report to this file, atomically"),
            flag("--checkpoint-dir", Path,
                 "persist a validated state file here (atomic write + fsync) after each durable \
                  stage: the pooled training set, the ranked fits, then each Table-4 row"),
            flag("--resume", Switch,
                 "pick the run back up after a crash, recomputing any partial or corrupt stage: \
                  the report is bit-identical to an uninterrupted run's; another config, seed or \
                  model is a loud error, never a silent mix").requires("--checkpoint-dir"),
        ], QUICK],
        about: "The whole paper loop in one run: train on the Lublin model, fit and rank all 576 \
                candidate functions, keep the top K as policies G1..GK, evaluate them against the \
                ad-hoc baselines across the Table-4 scenario grid, and print one markdown report.",
    };
    pub const TABLE4: CommandSpec = CommandSpec {
        name: "table4", run: cmd_table4, flags: &[QUICK],
        about: "Regenerate the paper's Table 4 (all 18 experiments).",
    };
    pub const SCENARIOS: CommandSpec = CommandSpec {
        name: "scenarios", run: cmd_scenarios,
        flags: &[MODEL, &[
            // Every family generates its whole span in memory (about 500 jobs a day on the
            // default platform), so an unbounded span runs until it is killed.
            flag("--days", positive_real(960.0),
                 "span of every trace; the paper's longest log is 960 days").default("7"),
            // The families assert on the range from inside a trace-store build.
            flag("--load", positive_real(1.5),
                 "target offered load; the model calibrates up to 1.5").default("0.8"),
            flag("--eval", Switch,
                 "then evaluate every family (or --family) under all three conditions"),
            flag("--family", Text, "the one family --eval evaluates").requires("--eval"),
            MTBF.requires("--eval"),
        ], FAULT],
        about: "List the workload scenario registry with each family's calibration summary \
                (jobs/day, offered load, runtime CV) at the given parameter point.",
    };
    pub const POLICIES: CommandSpec = CommandSpec {
        name: "policies", run: cmd_policies, flags: &[],
        about: "List built-in policies.",
    };
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        None => {
            eprint!("{}", args::help(&spec::COMMANDS));
            return ExitCode::FAILURE;
        }
        Some("help" | "--help" | "-h") => {
            print!("{}", args::help(&spec::COMMANDS));
            Ok(())
        }
        Some(name) => match spec::COMMANDS.iter().find(|c| c.name == name) {
            Some(command) => (command.run)(&argv[1..]),
            None => Err(format!("unknown command {name:?}; try `dynsched help`")),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Render an optional per-job statistic: the value at `prec` decimal
/// places, or a uniform `n/a` when nothing completed.
fn stat_or_na(v: Option<f64>, prec: usize) -> String {
    v.map_or_else(|| "n/a".to_string(), |x| format!("{x:.prec$}"))
}

/// The training set-up of `train` and `run`.
fn training_flags(args: &Args) -> TrainingConfig {
    TrainingConfig {
        tuple_spec: TupleSpec::default(),
        trial_spec: TrialSpec {
            trials: args.num("--trials"),
            platform: Platform::new(args.num("--cores")),
            tau: DEFAULT_TAU,
        },
        tuples: args.num("--tuples"),
        seed: args.num("--seed"),
    }
}

/// The fault profile `--mtbf` asks for, if it was given.
fn fault_flags(args: &Args, cores: u32, default_seed: u64) -> Option<FaultProfile> {
    let mtbf = args.opt("--mtbf")?;
    let fault_cores = args.opt("--fault-cores").unwrap_or((cores / 8).max(1));
    let fault_seed = args.opt("--fault-seed").unwrap_or(default_seed);
    let profile = FaultProfile::failures(mtbf, args.num("--mttr"), fault_cores, fault_seed);
    Some(profile.with_max_retries(args.num("--fault-retries")))
}

fn load_swf(path: &str) -> Result<(dynsched::workload::SwfHeader, Trace), String> {
    // Streamed line by line: an archive log never has to fit in memory as one string.
    read_swf_file(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// The line `simulate` and `federate` print when capping the trace to the
/// platform width dropped jobs (they could never start).
fn dropped_note(dropped: usize, cores: u32) -> Option<String> {
    (dropped > 0).then(|| format!("dropped {dropped} job(s) wider than the {cores}-core platform"))
}

/// Load a trace for replay on a `cores`-wide platform: jobs wider than
/// the platform are dropped, and the drop is reported, not silent.
fn load_capped(path: &str, cores: u32) -> Result<Trace, String> {
    let (_, trace) = load_swf(path)?;
    let capped = trace.capped_to(cores);
    if let Some(note) = dropped_note(trace.len() - capped.len(), cores) {
        println!("{note}");
    }
    if capped.is_empty() {
        return Err("no usable jobs after capping to the platform width".to_string());
    }
    Ok(capped)
}

/// The policy `name` on a `cores`-wide platform: `MF` normalizes its size
/// factor to the platform it schedules, not to the registry's 256 cores.
fn policy_for(name: &str, cores: u32) -> Option<Box<dyn Policy>> {
    let policy = by_name(name)?;
    if policy.name() == "MF" {
        return Some(Box::new(MultiFactor::default().for_platform(cores)));
    }
    Some(policy)
}

/// The queue policy and the scheduler knobs `simulate` and `federate` share.
fn replay_setup(args: &Args) -> Result<(Box<dyn Policy>, SchedulerConfig), String> {
    let name = args.text("--policy");
    let cores = args.num("<cores>");
    let policy = policy_for(name, cores).ok_or_else(|| format!("unknown policy {name:?}"))?;
    let platform = Platform::new(cores);
    let mut config = if args.switch("--estimates") {
        SchedulerConfig::user_estimates(platform)
    } else {
        SchedulerConfig::actual_runtimes(platform)
    };
    config.backfill = match args.text("--backfill") {
        "none" => BackfillMode::None,
        "conservative" => BackfillMode::Conservative,
        _ => BackfillMode::Aggressive,
    };
    config.kill_at_estimate = args.switch("--kill");
    Ok((policy, config))
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let args = parse(&spec::VALIDATE, args)?;
    let (header, trace) = load_swf(args.text("<trace.swf>"))?;
    let cores = args
        .opt("[cores]")
        .or(header.max_procs)
        .ok_or("no core count given and the header has no MaxProcs")?;
    if let Some(computer) = &header.computer {
        println!("Computer: {computer}");
    }
    println!("Platform: {cores} cores");
    let report = validate_trace(&trace, cores);
    print!("{}", report.render());
    if report.is_usable() {
        Ok(())
    } else {
        Err("trace is not usable as-is (see ERROR findings)".to_string())
    }
}

/// `simulate` up to (not including) its result line; returns the result,
/// the conservative-pass counts `--stats` asked for, and the seconds the
/// simulation took.
fn run_simulate(
    args: &[String],
) -> Result<(SimulationResult, Option<ConservativeStats>, f64), String> {
    let args = parse(&spec::SIMULATE, args)?;
    let (policy, config) = replay_setup(&args)?;
    let cores = config.platform.total_cores;
    let trace = load_capped(args.text("<trace.swf>"), cores)?;
    println!(
        "Scheduling {} jobs on {cores} cores under {}...",
        trace.len(),
        policy.name()
    );
    let compiled = policy.compile();
    let discipline = QueueDiscipline::of(policy.as_ref(), compiled.as_ref());
    let mut ws = SimWorkspace::new();
    let t0 = std::time::Instant::now();
    ws.try_run(&trace, &discipline, &config)
        .map_err(|e| format!("simulation failed: {e}"))?;
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = args.switch("--stats").then(|| ws.conservative_stats());
    Ok((ws.take_result(), stats, elapsed))
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let (result, stats, elapsed) = run_simulate(args)?;
    // Empty results print "n/a" for both per-job statistics: the old mix
    // (NaN for AVEbsld, 0.0 for mean wait) made an empty run read as a
    // measured zero-wait schedule.
    println!(
        "AVEbsld = {} | mean wait = {} s | utilization = {:.3} | makespan = {:.2} days | backfilled = {} | [{elapsed:.1} s]",
        stat_or_na(result.avg_bounded_slowdown(DEFAULT_TAU), 2),
        stat_or_na(result.mean_wait(), 1),
        result.utilization,
        result.makespan / 86_400.0,
        result.backfilled_jobs,
    );
    if let Some(s) = stats {
        println!(
            "conservative passes = {} | waiters queued = {} | reserved = {} | passes that started a job = {}",
            s.passes, s.queued, s.reserved, s.passes_started,
        );
    }
    Ok(())
}

/// `federate` up to (not including) its result tables; returns the
/// result, whether faults were injected, and the seconds it took.
fn run_federate(args: &[String]) -> Result<(FederationResult, bool, f64), String> {
    let args = parse(&spec::FEDERATE, args)?;
    let (policy, config) = replay_setup(&args)?;
    let cores = config.platform.total_cores;
    let shards: usize = args.num("--shards");
    let router_name = args.text("--router");
    // `Router::Learned` borrows the router policy's bytecode, which lives here.
    let learned = if router_name == "learned" {
        let name = args.opt_text("--router-policy");
        let name = name.unwrap_or(args.text("--policy"));
        let p = policy_for(name, cores).ok_or_else(|| format!("unknown router policy {name:?}"))?;
        let uncompiled = || format!("policy {name:?} has no compiled form to route with");
        Some(p.compile().ok_or_else(uncompiled)?)
    } else {
        None
    };
    let spill = args.num("--spill");
    let router = match (&learned, router_name) {
        (Some(compiled), _) => Router::Learned(compiled),
        (None, "round-robin") => Router::RoundRobin,
        (None, "locality") => Router::LocalityAware { spill },
        (None, _) => Router::LeastLoaded,
    };
    // `federate` has no `--seed`; its fault streams start from that flag's default.
    let fault = fault_flags(&args, cores, 0x5C17);

    let trace = load_capped(args.text("<trace.swf>"), cores)?;
    println!(
        "Federating {} jobs across {shards} x {cores}-core clusters ({router_name} routing, {} queues)...",
        trace.len(),
        policy.name()
    );

    let spec = FederationSpec::uniform(shards, config, router);
    let compiled = policy.compile();
    let discipline = QueueDiscipline::of(policy.as_ref(), compiled.as_ref());
    let t0 = std::time::Instant::now();
    let result = match &fault {
        Some(profile) => run_federation_faulty(&trace, &spec, &discipline, profile),
        None => run_federation(&trace, &spec, &discipline),
    }
    .map_err(|e| format!("federated simulation failed: {e}"))?;
    Ok((result, fault.is_some(), t0.elapsed().as_secs_f64()))
}

fn cmd_federate(args: &[String]) -> Result<(), String> {
    let (result, faulty, elapsed) = run_federate(args)?;
    println!(
        "  {:<8} {:>8} {:>10} {:>12} {:>10} {:>12}",
        "cluster", "jobs", "AVEbsld", "mean wait", "util", "makespan(d)"
    );
    for (s, shard) in result.shards.iter().enumerate() {
        println!(
            "  {:<8} {:>8} {:>10} {:>12} {:>10.3} {:>12.2}",
            s,
            shard.completed.len(),
            stat_or_na(shard.avg_bounded_slowdown(DEFAULT_TAU), 2),
            stat_or_na(shard.mean_wait(), 1),
            shard.utilization,
            shard.makespan / 86_400.0,
        );
    }
    println!(
        "global: AVEbsld = {} | mean wait = {} s | makespan = {:.2} days | backfilled = {} | [{elapsed:.1} s]",
        stat_or_na(result.avg_bounded_slowdown(DEFAULT_TAU), 2),
        stat_or_na(result.mean_wait(), 1),
        result.makespan() / 86_400.0,
        result.backfilled_jobs(),
    );
    if faulty {
        println!(
            "resilience: preempted = {} | abandoned = {} | lost core-seconds = {:.0}",
            result.preempted_jobs(),
            result.abandoned_jobs(),
            result.lost_core_seconds(),
        );
    }
    Ok(())
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    let args = parse(&spec::TRAIN, args)?;
    let config = training_flags(&args);
    let trials = config.trial_spec.trials;
    let cores = config.trial_spec.platform.total_cores;
    println!(
        "Training: {} tuples x {trials} trials on {cores} cores (seed {})...",
        config.tuples, config.seed
    );
    let t0 = std::time::Instant::now();
    let report = learn_policies(
        &config,
        &LublinModel::new(cores),
        &EnumerateOptions::default(),
        4,
    );
    println!(
        "{} observations, 576 fits in {:.1} s. Best functions:",
        report.training_set.len(),
        t0.elapsed().as_secs_f64()
    );
    for (i, fit) in report.fits.iter().take(4).enumerate() {
        println!(
            "  G{}: {}   (fitness {:.3e})",
            i + 1,
            fit.function.render_simplified(),
            fit.fitness
        );
    }
    if let Some(out) = args.opt_text("--out") {
        write_atomic(out, save_learned(&report.policies))
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("policy file written to {out}");
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let args = parse(&spec::RUN, args)?;
    let training = training_flags(&args);
    let (tuples, trials, seed) = (training.tuples, training.trial_spec.trials, training.seed);
    let cores = training.trial_spec.platform.total_cores;
    let top_k = args.num("--top");
    let checkpoint_dir = args.opt_text("--checkpoint-dir");
    let resume = args.switch("--resume");

    let config = FullRunConfig {
        training,
        enumerate: EnumerateOptions::default(),
        top_k,
        eval_scale: if args.switch("--quick") {
            ScenarioScale::quick()
        } else {
            ScenarioScale::default()
        },
    };
    eprintln!(
        "One-shot run: {tuples} tuples x {trials} trials on {cores} cores, top {top_k}, \
         then the 18-row Table-4 grid (seed {seed})..."
    );
    let t0 = std::time::Instant::now();
    let model = LublinModel::new(cores);
    let report = match checkpoint_dir {
        Some(dir) => {
            if resume {
                eprintln!("resuming from checkpoint dir {dir}...");
            } else {
                eprintln!("checkpointing each stage into {dir}...");
            }
            run_full_checkpointed(&config, &model, dir.as_ref(), resume).map_err(|e| match &e {
                RunError::Mismatch { .. } => format!(
                    "{e}\n(the checkpoint dir belongs to a different run; \
                         drop --resume to start fresh, or point --checkpoint-dir elsewhere)"
                ),
                _ => format!("{e}"),
            })?
        }
        None => run_full(&config, &model),
    };
    let markdown = full_run_markdown(&report);
    print!("{markdown}");
    eprintln!("[{:.1} s total]", t0.elapsed().as_secs_f64());
    if let Some(out) = args.opt_text("--out") {
        write_atomic(out, &markdown).map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("report written to {out}");
    }
    Ok(())
}

/// `table4` up to (not including) its tables: the 18 rows' results under
/// the paper's line-up.
fn run_table4(args: &[String]) -> Result<Vec<ExperimentResult>, String> {
    let scale = if parse(&spec::TABLE4, args)?.switch("--quick") {
        ScenarioScale::quick()
    } else {
        ScenarioScale::default()
    };
    // One batched evaluation session across all 18 rows.
    let experiments = table4_experiments_in(&TraceStore::new(), &scale);
    for (i, experiment) in experiments.iter().enumerate() {
        eprintln!("[{:>2}/18] {}", i + 1, experiment.name);
    }
    Ok(run_experiments(&experiments, &paper_lineup()))
}

fn cmd_table4(args: &[String]) -> Result<(), String> {
    let results = run_table4(args)?;
    println!("{}", table4_markdown(&results));
    println!("{}", table4_comparison(&results));
    let wins = results.iter().filter(|r| learned_beat_adhoc(r)).count();
    println!("shape: best learned beats best ad-hoc in {wins}/18 rows (paper: 18/18)");
    Ok(())
}

/// The sequences `scenarios --eval` cuts from each family's trace: three
/// 2-day windows of at least five jobs. Not `ScenarioScale::quick()`,
/// whose four 3-day windows the default 7-day span cannot hold.
const EVAL_WINDOWS: SequenceSpec = SequenceSpec {
    count: 3,
    days: 2.0,
    min_jobs: 5,
};

fn cmd_scenarios(args: &[String]) -> Result<(), String> {
    run_scenarios(args).map(drop)
}

/// `scenarios`, printing as it goes; returns the `--eval` rows' results
/// (none without `--eval`).
fn run_scenarios(args: &[String]) -> Result<Vec<ExperimentResult>, String> {
    let args = parse(&spec::SCENARIOS, args)?;
    let cores: u32 = args.num("--cores");
    let days: f64 = args.num("--days");
    let load: f64 = args.num("--load");
    let seed = args.num("--seed");
    let fault = fault_flags(&args, cores, seed);

    // The table below generates and calibrates every family, which a
    // misspelt family should not have to wait for.
    let eval = args.switch("--eval");
    let families = match args.opt_text("--family") {
        None => ScenarioFamily::ALL.to_vec(),
        Some(name) => vec![ScenarioFamily::by_name(name).ok_or_else(|| {
            let known = ScenarioFamily::ALL.map(ScenarioFamily::name).join(", ");
            format!("bad --family: {name:?} is not one of {known}")
        })?],
    };
    // `--eval` cuts its windows from the `--days` trace: refuse a span they
    // cannot fit before the table is printed, not after.
    let windows = EVAL_WINDOWS.count as f64 * EVAL_WINDOWS.days;
    if eval && days < windows {
        return Err(format!(
            "bad --days: --eval cuts {} sequences of {} days from the trace, so it needs at least {windows}",
            EVAL_WINDOWS.count, EVAL_WINDOWS.days
        ));
    }
    let store = TraceStore::new();
    let params = ScenarioParams {
        cores,
        span_days: days,
        target_load: load,
    };

    println!(
        "workload scenario registry ({} cores, {days}-day span, target load {load:.2}, seed {seed}):\n",
        cores
    );
    println!(
        "  {:<16} {:>8} {:>10} {:>10} {:>11} {:>10}  description",
        "family", "jobs", "jobs/day", "load", "runtime CV", "mean cores"
    );
    for family in ScenarioFamily::ALL {
        let c = ScenarioCalibration::of(&family.view(&store, &params, seed), cores);
        println!(
            "  {:<16} {:>8} {:>10.1} {:>10.3} {:>11.2} {:>10.1}  {}",
            family.name(),
            c.jobs,
            c.jobs_per_day,
            c.offered_load,
            c.runtime_cv,
            c.mean_cores,
            family.description(),
        );
    }

    if !eval {
        return Ok(vec![]);
    }
    if let Some(profile) = &fault {
        println!(
            "\nfault injection: MTBF {:.0}s, MTTR {:.0}s, {} cores per failure, {} retries",
            profile.mtbf, profile.mttr, profile.failure_cores, profile.max_retries
        );
    }
    let scale = ScenarioScale {
        spec: EVAL_WINDOWS,
        seed,
        ..ScenarioScale::default()
    };
    println!(
        "\nevaluating {} family(ies) under all three conditions...",
        families.len()
    );
    let results = scenario_results(
        &store,
        &families,
        &params,
        &scale,
        fault.as_ref(),
        &paper_lineup(),
    )?;
    for row in &results {
        print!("  {:<50}", row.name);
        for o in &row.outcomes {
            print!(" {}={:.2}", o.policy, o.median);
        }
        println!();
        if fault.is_some() {
            print!("  {:<50}", "    resilience (mean/seq):");
            for o in &row.outcomes {
                print!(
                    " {}: pre={:.1} aband={:.1} lost={:.0}",
                    o.policy, o.mean_preempted, o.mean_abandoned, o.mean_lost_core_seconds
                );
            }
            println!();
        }
    }
    println!(
        "({} trace builds for {} experiment rows — conditions share the store)",
        store.builds(),
        results.len()
    );
    Ok(results)
}

fn cmd_policies(args: &[String]) -> Result<(), String> {
    parse(&spec::POLICIES, args)?;
    println!("built-in policies (lower score runs first):");
    for name in [
        "FCFS", "LCFS", "SPT", "LPT", "SAF", "LAF", "WFP", "UNI", "MF", "F1", "F2", "F3", "F4",
    ] {
        let p = by_name(name).expect("registry covers the list");
        println!(
            "  {:<5} {}",
            p.name(),
            if p.time_dependent() {
                "(aging: rescored every event)"
            } else {
                "(static: scored at arrival)"
            }
        );
    }
    // Print each learned formula so users see what they deploy.
    use dynsched::policies::LearnedPolicy;
    println!("\nlearned functions (Table 3):");
    for p in LearnedPolicy::table3() {
        println!("  {} = {}", p.name(), p.function());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsched::cluster::Job;
    use dynsched::workload::write_swf_trace;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// `parse`'s error on `list`.
    fn parse_err(spec: &'static CommandSpec, list: &[&str]) -> String {
        parse(spec, &args(list)).err().expect("should be refused")
    }

    /// The number `parse` reads for `name` from `list`.
    fn parsed<T: std::str::FromStr>(spec: &'static CommandSpec, list: &[&str], name: &str) -> T {
        parse(spec, &args(list)).unwrap().num(name)
    }

    #[test]
    fn flag_value_reads_a_present_value() {
        let a = args(&["t.swf", "8", "--policy", "SPT", "--kill"]);
        let a = parse(&spec::SIMULATE, &a).unwrap();
        assert_eq!(a.opt_text("--policy"), Some("SPT"));
        assert_eq!(a.opt_text("--backfill"), Some("none"), "the default");
        assert_eq!(parse(&spec::TRAIN, &[]).unwrap().opt_text("--out"), None);
    }

    #[test]
    fn flag_value_rejects_a_missing_value() {
        // Regression: `train --tuples` used to run with the default 12
        // instead of erroring.
        assert!(parse_err(&spec::TRAIN, &["--tuples"]).contains("--tuples"));
    }

    #[test]
    fn flag_value_rejects_a_flag_shaped_value() {
        // Regression: `--policy --kill` consumed "--kill" as the policy
        // name and failed later with a confusing "unknown policy".
        let err = parse_err(&spec::SIMULATE, &["t.swf", "8", "--policy", "--kill"]);
        assert!(err.contains("--kill"), "error should name the flag: {err}");
    }

    #[test]
    fn days_accept_fractions_and_seeds_parse_as_u64() {
        // Regression: --days round-tripped through usize, rejecting 2.5
        // even though span_days is f64; seeds truncated through usize.
        let a = ["--days", "2.5", "--seed", "18446744073709551615"];
        assert_eq!(parsed::<f64>(&spec::SCENARIOS, &a, "--days"), 2.5);
        assert_eq!(parsed::<u64>(&spec::SCENARIOS, &a, "--seed"), u64::MAX);
        assert!(parse_err(&spec::SCENARIOS, &["--days", "x"]).contains("--days"));
        assert!(parse_err(&spec::SCENARIOS, &["--seed", "-1"]).contains("--seed"));
    }

    #[test]
    fn unknown_flags_are_rejected_not_ignored() {
        // Regression: `train --tirals 500` (a typo for --trials) used to
        // run a full training with the default 8000 trials, silently.
        let err = cmd_train(&args(&["--tirals", "500"])).unwrap_err();
        assert!(
            err.contains("--tirals"),
            "error should name the typo: {err}"
        );
        assert!(
            err.contains("--trials"),
            "error should list known flags: {err}"
        );

        let err = cmd_run(&args(&["--quck"])).unwrap_err();
        assert!(err.contains("--quck"), "{err}");

        let err = cmd_table4(&args(&["--ful"])).unwrap_err();
        assert!(err.contains("--ful"), "{err}");

        let err = cmd_policies(&args(&["--verbose"])).unwrap_err();
        assert!(err.contains("--verbose"), "{err}");

        let err = cmd_scenarios(&args(&["--core", "64"])).unwrap_err();
        assert!(err.contains("--core"), "{err}");
    }

    #[test]
    fn excess_positionals_are_rejected() {
        // `train` takes no positionals: a stray word is an error, not a
        // silently ignored token.
        let err = cmd_train(&args(&["extra"])).unwrap_err();
        assert!(err.contains("extra"), "{err}");
        // `validate` takes at most two.
        let err = parse_err(&spec::VALIDATE, &["a.swf", "64", "stray"]);
        assert!(err.contains("stray"), "{err}");
    }

    #[test]
    fn allowlist_accepts_known_shapes() {
        let a = [
            "t.swf",
            "64",
            "--policy",
            "SPT",
            "--estimates",
            "--backfill",
            "easy",
        ];
        assert!(parse(&spec::SIMULATE, &args(&a)).is_ok());
        let a = args(&["--checkpoint-dir", "ckpt", "--resume", "--quick"]);
        assert!(parse(&spec::RUN, &a).is_ok());
    }

    #[test]
    fn resume_without_checkpoint_dir_is_an_error() {
        let err = cmd_run(&args(&["--resume"])).unwrap_err();
        assert!(err.contains("--checkpoint-dir"), "{err}");
    }

    #[test]
    fn empty_result_statistics_render_uniformly() {
        // Regression: AVEbsld fell back to NaN but mean wait to 0.0 — an
        // empty run read as a measured zero-wait schedule.
        assert_eq!(stat_or_na(None, 2), "n/a");
        assert_eq!(stat_or_na(Some(1.25), 2), "1.25");
        assert_eq!(stat_or_na(Some(3.0), 1), "3.0");
    }

    #[test]
    fn zero_core_platforms_are_an_error_not_a_panic() {
        // Regression: each of these reached `Platform::new(0)` and aborted
        // with a backtrace; `scenarios --cores 0` printed an empty table.
        // The core count is parsed before the trace is opened, so no file
        // is needed.
        for result in [
            cmd_simulate(&args(&["t.swf", "0"])),
            cmd_federate(&args(&["t.swf", "0"])),
            cmd_train(&args(&["--cores", "0"])),
            cmd_run(&args(&["--cores", "0"])),
            cmd_scenarios(&args(&["--cores", "0"])),
        ] {
            let err = result.unwrap_err();
            assert!(err.contains("at least one core"), "{err}");
        }
        // Regression: the model-based commands reached `LublinModel::new(1)`
        // ("the model needs a parallel machine"), `scenarios` after it had
        // printed its table header.
        for result in [
            cmd_train(&args(&["--cores", "1"])),
            cmd_run(&args(&["--cores", "1"])),
            cmd_scenarios(&args(&["--cores", "1"])),
        ] {
            let err = result.unwrap_err();
            assert!(err.contains("--cores"), "{err}");
        }
        assert_eq!(parsed::<u32>(&spec::TRAIN, &["--cores", "2"], "--cores"), 2);
        assert_eq!(
            parsed::<u32>(&spec::SIMULATE, &["t.swf", "64"], "<cores>"),
            64
        );
        assert!(parse_err(&spec::SIMULATE, &["t.swf", "-1"]).contains("<cores>"));
    }

    #[test]
    fn zero_tuples_or_trials_are_an_error_not_a_panic() {
        // Regression: `--tuples 0` aborted in `pipeline.rs` ("need at least
        // one tuple") and `--trials 0` in `trials.rs`, each with a backtrace.
        for flag in ["--tuples", "--trials"] {
            for result in [cmd_train(&args(&[flag, "0"])), cmd_run(&args(&[flag, "0"]))] {
                let err = result.unwrap_err();
                assert!(err.contains(flag) && err.contains("positive"), "{err}");
            }
        }
        assert_eq!(
            parsed::<u32>(&spec::TRAIN, &["--tuples", "12"], "--tuples"),
            12
        );
        assert!(parse_err(&spec::TRAIN, &["--tuples", "-1"]).contains("--tuples"));
    }

    #[test]
    fn scenario_spans_and_loads_must_be_positive_and_finite() {
        // Regression: `--load -1|nan` (and anything above 1.5) panicked in
        // `lublin.rs` from inside a trace-store build; `--days 0|nan`
        // exited 0 with a garbage calibration row.
        for (flag, value) in [
            ("--load", "-1"),
            ("--load", "nan"),
            ("--load", "0"),
            ("--load", "2"),
            ("--days", "0"),
            ("--days", "nan"),
            ("--days", "inf"),
            // ... `--days 1e9` printed the header and generated until it
            // was killed; `--family` without `--eval` was silently ignored.
            ("--days", "1e9"),
            ("--days", "961"),
            ("--family", "lublin"),
        ] {
            let err = cmd_scenarios(&args(&[flag, value])).unwrap_err();
            assert!(err.contains(flag), "{flag} {value}: {err}");
        }
        // ... and `--eval --family nope` said so only after generating and
        // printing the whole registry table.
        let err = cmd_scenarios(&args(&["--eval", "--family", "nope"])).unwrap_err();
        assert!(
            err.contains("--family") && err.contains("\"nope\""),
            "{err}"
        );
        // ... and `--eval --days 5` printed the table, then failed on the
        // first family whose trace held fewer than three 2-day windows.
        let err = cmd_scenarios(&args(&["--eval", "--days", "5"])).unwrap_err();
        assert!(err.contains("--days") && !err.contains('\n'), "{err}");
        let a = ["--load", "1.5", "--days", "2.5"];
        assert_eq!(parsed::<f64>(&spec::SCENARIOS, &a, "--load"), 1.5);
        assert_eq!(parsed::<f64>(&spec::SCENARIOS, &a, "--days"), 2.5);
    }

    #[test]
    fn scenario_eval_runs_to_completion_at_the_default_span() {
        use dynsched::core::report::TABLE4_POLICIES;
        let results = run_scenarios(&args(&["--eval", "--family", "lublin"])).unwrap();
        assert_eq!(results.len(), 3, "one row per condition");
        for row in &results {
            let columns: Vec<&str> = row.outcomes.iter().map(|o| o.policy.as_str()).collect();
            assert_eq!(columns, TABLE4_POLICIES, "{}", row.name);
            for o in &row.outcomes {
                assert_eq!(o.ave_bslds.len(), EVAL_WINDOWS.count, "{}", row.name);
            }
        }
    }

    #[test]
    fn scenario_eval_under_faults_preempts_and_moves_every_cell() {
        let plain = [
            "--eval", "--family", "bursty", "--cores", "64", "--days", "6",
        ];
        let faulty = args(&[&plain[..], &["--mtbf", "20000"]].concat());
        let results = run_scenarios(&faulty).unwrap();
        assert_eq!(results, run_scenarios(&faulty).unwrap(), "deterministic");
        let preempted = results.iter().flat_map(|row| &row.outcomes);
        assert!(preempted.clone().any(|o| o.mean_preempted > 0.0));
        let clean = run_scenarios(&args(&plain)).unwrap();
        assert_eq!(results.len(), clean.len());
        for (row, clean) in results.iter().zip(&clean) {
            assert_eq!(row.name, clean.name);
            // Every cell's samples move; a median may not (SPT's under
            // aggressive backfilling lands on an unaffected window).
            for (o, c) in row.outcomes.iter().zip(&clean.outcomes) {
                assert_ne!(o.ave_bslds, c.ave_bslds, "{}: {}", row.name, o.policy);
            }
        }
    }

    #[test]
    fn fault_rates_that_inject_nothing_are_refused() {
        // Regression: `--mtbf 0|-1|nan` (and `--fault-cores 0`) built a
        // profile with no failures in it, so the run exited 0 and printed
        // `preempted = 0` as if faults had been injected; so did
        // `--mttr 0|-1|nan`, a repair time `FaultProfile::expand` treats as
        // "the failure is a no-op". The flags are parsed before the trace
        // is opened, so no file is needed.
        for value in ["0", "-1", "nan", "inf"] {
            for (flag, flags) in [
                ("--mtbf", &["--mtbf", value][..]),
                ("--mttr", &["--mtbf", "500", "--mttr", value]),
            ] {
                for result in [
                    cmd_scenarios(&args(flags)),
                    cmd_federate(&args(&[&["t.swf", "8"], flags].concat())),
                ] {
                    let err = result.unwrap_err();
                    assert!(err.contains(flag), "{flag} {value}: {err}");
                }
            }
        }
        // Regression: `--mtbf 1e-7` passed, and `FaultProfile::expand` drew
        // span / 1e-7 failures into a `Vec` until the run was killed.
        for err in [
            parse_err(&spec::SCENARIOS, &["--eval", "--mtbf", "1e-7"]),
            parse_err(&spec::FEDERATE, &["t.swf", "8", "--mtbf", "1e-7"]),
        ] {
            assert!(err.contains("--mtbf") && err.contains("[1, inf]"), "{err}");
        }
        let err = cmd_federate(&args(&[
            "t.swf",
            "8",
            "--mtbf",
            "500",
            "--fault-cores",
            "0",
        ]));
        assert!(err.unwrap_err().contains("--fault-cores"));
        // Regression: 2^32 retries went through `usize` and `as u32`,
        // wrapped to 0 and abandoned every preempted job at its first kill.
        let err = parse_err(
            &spec::SCENARIOS,
            &["--eval", "--mtbf", "500", "--fault-retries", "4294967296"],
        );
        assert!(err.contains("--fault-retries"));
        let flags = args(&["--eval", "--mtbf", "500"]);
        let profile = fault_flags(&parse(&spec::SCENARIOS, &flags).unwrap(), 64, 7).unwrap();
        assert!(profile.has_failures());
        assert_eq!(profile.failure_cores, 8);
        assert_eq!((profile.mttr, profile.max_retries), (3_600.0, 3));
        let flags = args(&["--eval", "--mtbf", "500", "--fault-retries", "0"]);
        let profile = fault_flags(&parse(&spec::SCENARIOS, &flags).unwrap(), 64, 7).unwrap();
        assert_eq!(profile.max_retries, 0, "abandon at the first kill is legal");
    }

    #[test]
    fn spill_tolerances_must_be_finite_and_non_negative() {
        // Regression: `--spill nan` made `waits[home] <= waits[best] + spill`
        // false for every job, so `--router locality` routed least-loaded
        // and said nothing. Parsed before the trace is opened.
        for value in ["nan", "-1", "inf"] {
            let err = cmd_federate(&args(&[
                "t.swf", "8", "--router", "locality", "--spill", value,
            ]))
            .unwrap_err();
            assert!(err.contains("--spill"), "--spill {value}: {err}");
        }
        for (value, want) in [("0", 0.0), ("900.5", 900.5)] {
            let a = ["t.swf", "8", "--router", "locality", "--spill", value];
            assert_eq!(parsed::<f64>(&spec::FEDERATE, &a, "--spill"), want);
        }
    }

    #[test]
    fn quick_table4_has_every_row_and_column_of_the_papers() {
        use dynsched::core::report::TABLE4_POLICIES;
        let results = run_table4(&args(&["--quick"])).unwrap();
        assert_eq!(results.len(), 18);
        for row in &results {
            let columns: Vec<&str> = row.outcomes.iter().map(|o| o.policy.as_str()).collect();
            assert_eq!(columns, TABLE4_POLICIES, "{}", row.name);
            for o in &row.outcomes {
                assert!(
                    o.median.is_finite() && o.median >= 1.0,
                    "{} / {}: median {}",
                    row.name,
                    o.policy,
                    o.median
                );
            }
        }
        // A row `PAPER_TABLE4` does not know, or a policy the row lacks,
        // renders as a `-` cell.
        let comparison = table4_comparison(&results);
        assert_eq!(comparison.lines().count(), 2 + 18 * 9);
        assert!(!comparison.contains("| - |"), "{comparison}");
        // Why `quick()` is 4 x 3 days: at 3 x 2 days the paper's shape
        // held in 12 rows.
        let wins = results.iter().filter(|r| learned_beat_adhoc(r)).count();
        assert!(
            wins >= 17,
            "best learned beats best ad-hoc in {wins}/18 rows"
        );
    }

    /// Write `jobs` as an SWF file under the temp dir and return its path.
    fn swf_file(name: &str, jobs: Vec<Job>, cores: u32) -> String {
        let path = std::env::temp_dir().join(format!("dynsched-{}-{name}.swf", std::process::id()));
        let swf = write_swf_trace(&Trace::from_jobs(jobs), cores);
        std::fs::write(&path, swf).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn jobs_wider_than_the_platform_are_dropped_loudly() {
        // Regression: a 3-job trace with one 16-core job on 8 cores
        // printed "Scheduling 2 jobs" and nothing else.
        assert_eq!(dropped_note(0, 8), None);
        let note = dropped_note(1, 8).unwrap();
        assert!(note.contains("1 job") && note.contains("8-core"), "{note}");
        let jobs = vec![
            Job::new(0, 0.0, 10.0, 10.0, 4),
            Job::new(1, 1.0, 10.0, 10.0, 16),
            Job::new(2, 2.0, 10.0, 10.0, 8),
        ];
        let path = swf_file("dropped", jobs, 16);
        assert_eq!(load_capped(&path, 8).unwrap().len(), 2);
        assert_eq!(load_capped(&path, 16).unwrap().len(), 3);
        assert!(load_capped(&path, 2).is_err(), "nothing left to schedule");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn simulate_equals_one_shard_federate() {
        // WFP is time-dependent with a general residual and EASY backfills:
        // `simulate` runs the compiled kernel like the federation does, and
        // the 1-shard federation must print the same digits.
        let jobs = (0..60u32)
            .map(|i| {
                let runtime = 50.0 + f64::from(i % 7) * 90.0;
                Job::new(
                    i,
                    f64::from(i / 3) * 20.0,
                    runtime,
                    runtime * 1.5,
                    1 + i % 6,
                )
            })
            .collect();
        let path = swf_file("one-shard", jobs, 8);
        let flags = ["--policy", "WFP", "--backfill", "easy", "--estimates"];
        let (single, _, _) =
            run_simulate(&args(&[&[path.as_str(), "8"], &flags[..]].concat())).unwrap();
        // Regression: positionals were read by index, so flags first made
        // `--policy` the path and `WFP` the core count.
        let (flags_first, _, _) =
            run_simulate(&args(&[&flags[..], &[path.as_str(), "8"]].concat())).unwrap();
        assert_eq!(single.completed, flags_first.completed);
        let federate_args = [&[path.as_str(), "8", "--shards", "1"], &flags[..]].concat();
        let (federated, faulty, _) = run_federate(&args(&federate_args)).unwrap();
        std::fs::remove_file(path).unwrap();
        assert!(!faulty);
        assert!(single.backfilled_jobs > 0, "the trace must exercise EASY");
        assert_eq!(single.completed, federated.completed);
        assert_eq!(
            single.avg_bounded_slowdown(DEFAULT_TAU),
            federated.avg_bounded_slowdown(DEFAULT_TAU)
        );
        assert_eq!(single.mean_wait(), federated.mean_wait());
        assert_eq!(single.makespan, federated.makespan());
        assert_eq!(single.backfilled_jobs, federated.backfilled_jobs());
    }

    #[test]
    fn simulate_normalizes_mf_to_the_platform_it_schedules() {
        // Regression: `--policy MF` divided every width by 256 cores, so on
        // 1024 cores the 1000- and the 600-core job tied on size and the
        // shorter one went first; normalized to 1024, the narrower does.
        let jobs = vec![
            Job::new(0, 0.0, 1000.0, 1000.0, 1024),
            Job::new(1, 1.0, 100.0, 100.0, 1000),
            Job::new(2, 1.0, 5000.0, 5000.0, 600),
        ];
        let path = swf_file("mf-wide", jobs, 1024);
        let line = [path.as_str(), "1024", "--policy", "MF"];
        let (cli, _, _) = run_simulate(&args(&line)).unwrap();
        let trace = load_capped(&path, 1024).unwrap();
        std::fs::remove_file(path).unwrap();
        let mf = MultiFactor::default().for_platform(1024);
        let config = SchedulerConfig::actual_runtimes(Platform::new(1024));
        let mut ws = SimWorkspace::new();
        ws.try_run(&trace, &QueueDiscipline::Policy(&mf), &config)
            .unwrap();
        let library = ws.take_result();
        assert_eq!(cli.completed, library.completed);
        assert_eq!(
            cli.avg_bounded_slowdown(DEFAULT_TAU),
            library.avg_bounded_slowdown(DEFAULT_TAU)
        );
    }

    #[test]
    fn simulate_counts_conservative_passes_and_survives_an_absorbing_clock() {
        // Regression: `simulate` went through the panicking wrapper, and at
        // `t = 2e8` the zero-length job's reservation is absorbed by the
        // clock — the 8-core job was started into 4 free cores.
        let jobs = vec![
            Job::new(0, 2e8, 0.0, 0.0, 4),
            Job::new(1, 2e8, 10.0, 10.0, 8),
        ];
        let path = swf_file("absorbed", jobs, 8);
        let line = [
            path.as_str(),
            "8",
            "--policy",
            "FCFS",
            "--backfill",
            "conservative",
        ];
        let (result, stats, _) = run_simulate(&args(&line)).unwrap();
        assert_eq!((result.completed.len(), stats), (2, None));
        let (_, stats, _) = run_simulate(&args(&[&line[..], &["--stats"]].concat())).unwrap();
        std::fs::remove_file(path).unwrap();
        let stats = stats.expect("--stats was given");
        assert_eq!((stats.passes, stats.passes_started), (2, 2));
        assert_eq!((stats.queued, stats.reserved), (3, 3));
    }

    /// Values `kind` must refuse: what no bounded kind takes, then one past
    /// each end of its range.
    fn hostile(kind: Kind) -> Vec<String> {
        let mut bad = ["nan", "inf", "-1", "0x10", "1e999"]
            .map(String::from)
            .to_vec();
        let past: Vec<f64> = match kind {
            Kind::Switch | Kind::Text | Kind::Path => return vec![],
            Kind::Choice(_) | Kind::Seed => vec![],
            Kind::Cores { min } => vec![0.0, f64::from(min) - 1.0, 4_294_967_296.0],
            Kind::Count { min, max } => vec![min as f64 - 1.0, max as f64 + 1.0],
            Kind::Real { min, max, open } => {
                vec![
                    min - 1.0,
                    min - 1e-7,
                    max + 1.0,
                    if open { min } else { f64::NAN },
                ]
            }
        };
        bad.extend(past.iter().map(f64::to_string));
        // A fraction and 2^64 are outside every whole number's range, inside two of the reals'.
        if !matches!(kind, Kind::Real { .. }) {
            bad.extend(["1.5", "18446744073709551616"].map(String::from));
        }
        bad
    }

    #[test]
    fn every_flag_of_every_command_refuses_what_its_kind_implies() {
        for command in spec::COMMANDS {
            let good = |row: &FlagSpec| row.default.unwrap_or("1");
            // A line that is valid up to a flag: the required positionals,
            // then what the flag `requires`, transitively.
            let base = |mut requires: Option<&'static str>| {
                let positionals = command.rows().filter(|row| row.name.starts_with('<'));
                let mut line: Vec<&str> = positionals.map(good).collect();
                while let Some(required) = requires {
                    let (name, value) = required.split_once(' ').unwrap_or((required, ""));
                    let needed = command.row(name).expect("`requires` names a flag");
                    line.push(name);
                    match needed.kind {
                        Kind::Switch => {}
                        _ if value.is_empty() => line.push(good(needed)),
                        kind => {
                            assert_eq!(kind.check(value), Ok(()), "{required}");
                            line.push(value);
                        }
                    }
                    requires = needed.requires;
                }
                line
            };
            let refused = |line: Vec<&str>, name: &str| {
                let err = (command.run)(&args(&line)).expect_err(&format!("{line:?}"));
                assert!(err.contains(name) && !err.contains('\n'), "{line:?}: {err}");
            };
            let names: Vec<&str> = command.rows().map(|row| row.name).collect();
            for (i, row) in command.rows().enumerate() {
                // The table itself: no name twice, the default inside the kind.
                assert!(!names[..i].contains(&row.name), "{} twice", row.name);
                assert_eq!(row.kind.check(good(row)), Ok(()), "{}", row.name);
                if !row.is_option() {
                    continue;
                }
                let hostile = hostile(row.kind);
                let with = |tail| [base(row.requires), vec![row.name], tail].concat();
                let value = match row.kind {
                    Kind::Switch => vec![],
                    _ => vec![good(row)],
                };
                refused(with([value.clone(), vec![row.name]].concat()), row.name);
                if row.requires.is_some() {
                    let alone = [base(None), vec![row.name], value.clone()].concat();
                    refused(alone, row.name);
                }
                if !value.is_empty() {
                    refused(with(vec![]), row.name);
                    refused(with(vec!["--kill"]), row.name);
                }
                for value in &hostile {
                    refused(with(vec![value]), row.name);
                }
            }
        }
    }

    #[test]
    fn help_is_rendered_from_the_tables() {
        let help = args::help(&spec::COMMANDS);
        assert_eq!(help, include_str!("dynsched/help.txt"));
    }
}
