//! `dynsched` — command-line front end for the library.
//!
//! ```text
//! dynsched validate <trace.swf> [cores]        audit an SWF trace
//! dynsched simulate <trace.swf> <cores> [opts] schedule a trace, print stats
//! dynsched federate <trace.swf> <cores> [opts] schedule across N federated clusters
//! dynsched train [opts]                        learn policies from the Lublin model
//! dynsched run [opts]                          one-shot learn → evaluate (the whole paper loop),
//!                                              crash-safe with --checkpoint-dir/--resume
//! dynsched table4 [--quick]                    regenerate the paper's Table 4
//! dynsched scenarios [opts]                    list/evaluate the workload scenario registry
//! dynsched policies                            list built-in policies
//! ```
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
use dynsched::policies::{by_name, paper_lineup, save_learned, CompiledPolicy, Policy};
use dynsched::scheduler::{
    run_federation, run_federation_faulty, simulate, BackfillMode, FederationResult,
    FederationSpec, QueueDiscipline, Router, SchedulerConfig, SimulationResult,
};
use dynsched::simkit::durable::write_atomic;
use dynsched::workload::{
    read_swf_file, validate_trace, LublinModel, ScenarioParams, ScenarioRegistry, Trace, TraceStore,
};
use std::process::ExitCode;

const USAGE: &str = "\
dynsched — dynamic HPC scheduling policies from simulation + ML (SC'17 reproduction)

USAGE:
  dynsched validate <trace.swf> [cores]
      Audit a Standard Workload Format trace (cores defaults to the
      header's MaxProcs).

  dynsched simulate <trace.swf> <cores> [--policy NAME] [--estimates]
                    [--backfill none|easy|conservative] [--kill]
      Schedule the trace and print artifact-style statistics.
      NAME: FCFS, WFP, UNI, SPT, F1..F4, MF, LCFS, LPT, SAF, LAF (default F1).

  dynsched federate <trace.swf> <cores-per-cluster> [--shards N]
                    [--router round-robin|least-loaded|locality|learned]
                    [--spill SECS] [--router-policy NAME]
                    [--policy NAME] [--estimates]
                    [--backfill none|easy|conservative] [--kill]
                    [--mtbf SECS [--mttr SECS] [--fault-cores N]
                     [--fault-retries N] [--fault-seed N]]
      Route the trace across N identical clusters (default 4) and
      schedule every shard concurrently, printing per-cluster and merged
      global statistics. --router picks the cross-cluster routing policy
      (default least-loaded); locality keeps each job on its home
      cluster (id mod N) unless its estimated wait exceeds the best
      cluster's by more than --spill seconds (default 0); learned scores
      every cluster with the compiled form of --router-policy (default:
      the queue policy) and routes to the lowest score. Queue scheduling
      inside each cluster uses --policy (default F1) with the same
      --estimates/--backfill/--kill knobs as `simulate`. With --mtbf,
      each cluster draws its own deterministic fault stream from
      (fault seed, shard index). Shard schedules are bit-identical at
      any worker-thread count, and a 1-shard federation is bit-identical
      to `simulate`.

  dynsched train [--tuples N] [--trials N] [--cores N] [--seed N] [--out FILE]
      Run the training pipeline (Lublin model) and print/export the best
      learned policies. Permutation trials run on the checkpoint-and-fork
      engine: each distinct (S, Q) tuple is simulated once up to the
      point where task order can first matter, and all trials fork from
      that shared snapshot (bit-identical to from-scratch trials at any
      thread count).

  dynsched run [--tuples N] [--trials N] [--cores N] [--seed N] [--top K]
               [--quick] [--out FILE] [--checkpoint-dir DIR [--resume]]
      One-shot run of the whole paper loop: train on the Lublin model,
      fit and rank all 576 candidate functions, keep the top K as
      policies G1..GK, and evaluate them against the ad-hoc baselines
      across the full Table-4 scenario grid. Prints a single markdown
      report (--out also writes it to FILE, atomically; --quick shrinks
      the evaluation protocol). With --checkpoint-dir, a validated state
      file is persisted (atomic write + fsync) after each durable stage
      — the pooled training set, the ranked fits, then each Table-4 row
      as it completes — and --resume picks the run back up after a crash,
      recomputing any partial or corrupt stage and producing a report
      bit-identical to an uninterrupted run. Resuming with a different
      config, seed, or model is a loud error, never a silent mix.

  dynsched table4 [--quick]
      Regenerate the paper's Table 4 (all 18 experiments; --quick shrinks
      the protocol).

  dynsched scenarios [--cores N] [--days N] [--load X] [--seed N]
                     [--eval [--family NAME]]
                     [--mtbf SECS [--mttr SECS] [--fault-cores N]
                      [--fault-retries N] [--fault-seed N]]
      List the workload scenario registry with per-family calibration
      summaries (jobs/day, offered load, runtime CV) at the given
      parameter point. With --eval, run a quick evaluation of the named
      family (or every family) under all three conditions and the paper's
      policy line-up. With --mtbf, the evaluation runs under deterministic
      fault injection: --fault-cores nodes (default cores/8) fail with
      the given mean time between failures, repair after --mttr seconds
      (default 3600), and preempted jobs requeue up to --fault-retries
      times (default 3); resilience counters (preemptions, abandoned
      jobs, lost core-seconds) print per row.

  dynsched policies
      List built-in policies.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "validate" => cmd_validate(rest),
        "simulate" => cmd_simulate(rest),
        "federate" => cmd_federate(rest),
        "train" => cmd_train(rest),
        "run" => cmd_run(rest),
        "table4" => cmd_table4(rest),
        "scenarios" => cmd_scenarios(rest),
        "policies" => cmd_policies(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try `dynsched help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Look up the value of `name`. A present flag with a missing value, or
/// with a value that is itself a flag, is an error — `--policy --kill`
/// used to swallow `"--kill"` as the policy name and `--tuples` at the
/// end of the line silently fell back to the default.
fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1).map(String::as_str) {
        None => Err(format!("{name} needs a value")),
        Some(v) if v.starts_with("--") => Err(format!(
            "{name} needs a value, but the next argument is the flag {v:?}"
        )),
        Some(v) => Ok(Some(v)),
    }
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Validate the argument list against a subcommand's flag allowlist.
///
/// `value_flags` consume the token after them; `bool_flags` stand alone;
/// anything else that starts with `--` — a typo like `--tirals`, an
/// unknown option — is an error naming the offender, and more than
/// `max_positionals` bare arguments is too. Before this check, `train
/// --tirals 500` silently ran with the default trial count.
fn reject_unknown(
    args: &[String],
    max_positionals: usize,
    value_flags: &[&str],
    bool_flags: &[&str],
) -> Result<(), String> {
    let mut positionals = 0usize;
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if value_flags.contains(&arg) {
            // The value itself is validated by flag_value; just skip it
            // here so a policy named "--kill" is not double-counted.
            i += 2;
        } else if bool_flags.contains(&arg) {
            i += 1;
        } else if arg.starts_with("--") {
            let known: Vec<&str> = value_flags.iter().chain(bool_flags).copied().collect();
            return Err(if known.is_empty() {
                format!("unknown flag {arg:?} (this subcommand takes no flags)")
            } else {
                format!("unknown flag {arg:?} (known flags: {})", known.join(", "))
            });
        } else {
            positionals += 1;
            if positionals > max_positionals {
                return Err(format!(
                    "unexpected argument {arg:?} (at most {max_positionals} positional argument(s))"
                ));
            }
            i += 1;
        }
    }
    Ok(())
}

/// Render an optional per-job statistic: the value at `prec` decimal
/// places, or a uniform `n/a` when nothing completed.
fn stat_or_na(v: Option<f64>, prec: usize) -> String {
    v.map_or_else(|| "n/a".to_string(), |x| format!("{x:.prec$}"))
}

fn usize_flag(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    flag_value(args, name)?
        .map(|v| v.parse().map_err(|e| format!("bad {name}: {e}")))
        .transpose()
        .map(|v| v.unwrap_or(default))
}

/// Parse `name` as `u64` directly — seeds must not round-trip through
/// `usize` (lossy on 32-bit targets, rejects values above `usize::MAX`).
fn u64_flag(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    flag_value(args, name)?
        .map(|v| v.parse().map_err(|e| format!("bad {name}: {e}")))
        .transpose()
        .map(|v| v.unwrap_or(default))
}

/// Parse `name` as `f64` directly — fractional values like `--days 2.5`
/// are legitimate wherever the underlying parameter is `f64`.
fn f64_flag(args: &[String], name: &str, default: f64) -> Result<f64, String> {
    flag_value(args, name)?
        .map(|v| v.parse().map_err(|e| format!("bad {name}: {e}")))
        .transpose()
        .map(|v| v.unwrap_or(default))
}

/// Parse a core count. Zero is rejected here, once: `Platform::new(0)`
/// panics, and every subcommand that builds a platform parses through this.
fn parse_cores(text: &str) -> Result<u32, String> {
    match text.parse::<u32>() {
        Ok(0) => Err("bad core count: a platform needs at least one core".to_string()),
        Ok(cores) => Ok(cores),
        Err(e) => Err(format!("bad core count: {e}")),
    }
}

/// `--cores N` through [`parse_cores`] (default 256). The commands that
/// take it (`train`, `run`, `scenarios`) all generate their workload from
/// the Lublin model, and `LublinModel::new` asserts a parallel machine, so
/// one core is refused here.
fn cores_flag(args: &[String]) -> Result<u32, String> {
    match flag_value(args, "--cores")?.map_or(Ok(256), parse_cores)? {
        1 => Err("bad --cores: the workload model needs at least 2 cores".to_string()),
        cores => Ok(cores),
    }
}

/// Parse the value of `name` as a quantity that only means something when
/// positive: a count (`u32`) of at least one, or an `f64` above zero and
/// finite. Checked here, once, because the library asserts on these
/// (`--tuples 0`, `--trials 0` and `--load -1` panicked), or worse does
/// not: `--days nan` printed a garbage table, and `--mtbf 0` or `--mttr 0`
/// injected no faults without saying so.
fn parse_positive<T>(name: &str, text: &str) -> Result<T, String>
where
    T: std::str::FromStr + Copy + Into<f64>,
    T::Err: std::fmt::Display,
{
    let value: T = text.parse().map_err(|e| format!("bad {name}: {e}"))?;
    let size: f64 = value.into();
    if size > 0.0 && size.is_finite() {
        Ok(value)
    } else {
        Err(format!(
            "bad {name}: {text:?} is not a positive finite number"
        ))
    }
}

/// `name` through [`parse_positive`], or `default` when absent.
fn positive_flag<T>(args: &[String], name: &str, default: T) -> Result<T, String>
where
    T: std::str::FromStr + Copy + Into<f64>,
    T::Err: std::fmt::Display,
{
    flag_value(args, name)?.map_or(Ok(default), |v| parse_positive(name, v))
}

/// The training knobs `train` and `run` share: `(tuples, trials, cores,
/// seed)` with common defaults.
fn training_flags(args: &[String]) -> Result<(usize, usize, u32, u64), String> {
    Ok((
        positive_flag(args, "--tuples", 12u32)? as usize,
        positive_flag(args, "--trials", 8_000u32)? as usize,
        cores_flag(args)?,
        u64_flag(args, "--seed", 0x5C17)?,
    ))
}

/// The deterministic fault-injection knobs `scenarios` and `federate`
/// share: `--mtbf` turns injection on, the rest refine it.
fn fault_flags(
    args: &[String],
    cores: u32,
    default_seed: u64,
) -> Result<Option<FaultProfile>, String> {
    let Some(v) = flag_value(args, "--mtbf")? else {
        return Ok(None);
    };
    let mtbf: f64 = parse_positive("--mtbf", v)?;
    let mttr = positive_flag(args, "--mttr", 3_600.0)?;
    let fault_cores = positive_flag(args, "--fault-cores", (cores / 8).max(1))?;
    // Narrowed to the width `FaultProfile` stores by `try_from`, so a count
    // beyond it is an error and cannot wrap (2^32 would read as 0 retries).
    // Zero itself is legal: abandon at the first kill.
    let retries = u32::try_from(u64_flag(args, "--fault-retries", 3)?)
        .map_err(|e| format!("bad --fault-retries: {e}"))?;
    let fault_seed = u64_flag(args, "--fault-seed", default_seed)?;
    Ok(Some(
        FaultProfile::failures(mtbf, mttr, fault_cores, fault_seed).with_max_retries(retries),
    ))
}

fn load_swf(path: &str) -> Result<(dynsched::workload::SwfHeader, Trace), String> {
    // Streams line-by-line through a BufReader: archive logs never need to
    // fit in memory as one string.
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

/// What `simulate` and `federate` share: the `<trace> <cores>`
/// positionals, the queue policy, and the scheduler knobs.
struct ReplaySetup<'a> {
    path: &'a str,
    cores: u32,
    policy_name: &'a str,
    policy: Box<dyn Policy>,
    config: SchedulerConfig,
}

fn replay_setup<'a>(args: &'a [String], command: &str) -> Result<ReplaySetup<'a>, String> {
    let path = args
        .first()
        .ok_or_else(|| format!("{command} needs a trace path"))?;
    let cores = args
        .get(1)
        .ok_or_else(|| format!("{command} needs a core count"))?;
    let cores = parse_cores(cores)?;
    let policy_name = flag_value(args, "--policy")?.unwrap_or("F1");
    let policy = by_name(policy_name).ok_or_else(|| format!("unknown policy {policy_name:?}"))?;

    let mut config = if has_flag(args, "--estimates") {
        SchedulerConfig::user_estimates(Platform::new(cores))
    } else {
        SchedulerConfig::actual_runtimes(Platform::new(cores))
    };
    config.backfill = match flag_value(args, "--backfill")?.unwrap_or("none") {
        "none" => BackfillMode::None,
        "easy" | "aggressive" => BackfillMode::Aggressive,
        "conservative" => BackfillMode::Conservative,
        other => return Err(format!("unknown backfill mode {other:?}")),
    };
    config.kill_at_estimate = has_flag(args, "--kill");
    Ok(ReplaySetup {
        path,
        cores,
        policy_name,
        policy,
        config,
    })
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    reject_unknown(args, 2, &[], &[])?;
    let path = args.first().ok_or("validate needs a trace path")?;
    let (header, trace) = load_swf(path)?;
    let cores = args
        .get(1)
        .map(|c| parse_cores(c))
        .transpose()?
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

/// `simulate` up to (not including) its result line; returns the result
/// and the seconds the simulation took.
fn run_simulate(args: &[String]) -> Result<(SimulationResult, f64), String> {
    reject_unknown(
        args,
        2,
        &["--policy", "--backfill"],
        &["--estimates", "--kill"],
    )?;
    let setup = replay_setup(args, "simulate")?;
    let trace = load_capped(setup.path, setup.cores)?;
    println!(
        "Scheduling {} jobs on {} cores under {}...",
        trace.len(),
        setup.cores,
        setup.policy.name()
    );
    let compiled = setup.policy.compile();
    let discipline = QueueDiscipline::of(setup.policy.as_ref(), compiled.as_ref());
    let t0 = std::time::Instant::now();
    let result = simulate(&trace, &discipline, &setup.config);
    Ok((result, t0.elapsed().as_secs_f64()))
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let (result, elapsed) = run_simulate(args)?;
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
    Ok(())
}

/// The owned form of a `--router` choice. `Router` borrows the learned
/// router's compiled bytecode, so the bytecode must live somewhere the
/// borrow can point into; owning it *inside* the variant makes the
/// "learned router has a compiled policy" invariant a type-level fact
/// instead of an `Option` that the match had to `expect` away.
enum RouterSpec {
    RoundRobin,
    LeastLoaded,
    Locality { spill: f64 },
    Learned(CompiledPolicy),
}

impl RouterSpec {
    /// Parse the `--router`/`--spill`/`--router-policy` flags into an
    /// owned spec (compiling the router policy when needed).
    fn parse(router_name: &str, args: &[String], policy_name: &str) -> Result<Self, String> {
        match router_name {
            "round-robin" => Ok(Self::RoundRobin),
            "least-loaded" => Ok(Self::LeastLoaded),
            "locality" => {
                // A NaN tolerance makes every `home <= best + spill` test
                // false, which is least-loaded routing under another name.
                let spill = f64_flag(args, "--spill", 0.0)?;
                if !(spill >= 0.0 && spill.is_finite()) {
                    return Err(format!(
                        "bad --spill: {spill} is not a finite, non-negative number of seconds"
                    ));
                }
                Ok(Self::Locality { spill })
            }
            "learned" => {
                let name = flag_value(args, "--router-policy")?.unwrap_or(policy_name);
                let p = by_name(name).ok_or_else(|| format!("unknown router policy {name:?}"))?;
                let compiled = p
                    .compile()
                    .ok_or_else(|| format!("policy {name:?} has no compiled form to route with"))?;
                Ok(Self::Learned(compiled))
            }
            other => Err(format!("unknown router {other:?}")),
        }
    }

    /// Borrow as the scheduler's `Router`, valid as long as `self` lives.
    fn as_router(&self) -> Router<'_> {
        match self {
            Self::RoundRobin => Router::RoundRobin,
            Self::LeastLoaded => Router::LeastLoaded,
            Self::Locality { spill } => Router::LocalityAware { spill: *spill },
            Self::Learned(compiled) => Router::Learned(compiled),
        }
    }
}

/// `federate` up to (not including) its result tables; returns the
/// result, whether faults were injected, and the seconds it took.
fn run_federate(args: &[String]) -> Result<(FederationResult, bool, f64), String> {
    reject_unknown(
        args,
        2,
        &[
            "--shards",
            "--router",
            "--spill",
            "--router-policy",
            "--policy",
            "--backfill",
            "--mtbf",
            "--mttr",
            "--fault-cores",
            "--fault-retries",
            "--fault-seed",
        ],
        &["--estimates", "--kill"],
    )?;
    let setup = replay_setup(args, "federate")?;
    let cores = setup.cores;
    let shards = usize_flag(args, "--shards", 4)?;
    if shards == 0 {
        return Err("a federation needs at least one shard".to_string());
    }
    let router_name = flag_value(args, "--router")?.unwrap_or("least-loaded");
    let router_spec = RouterSpec::parse(router_name, args, setup.policy_name)?;
    let fault = fault_flags(args, cores, 0x5C17)?;

    let trace = load_capped(setup.path, cores)?;
    println!(
        "Federating {} jobs across {shards} x {cores}-core clusters ({router_name} routing, {} queues)...",
        trace.len(),
        setup.policy.name()
    );

    let spec = FederationSpec::uniform(shards, setup.config, router_spec.as_router());
    let compiled = setup.policy.compile();
    let discipline = QueueDiscipline::of(setup.policy.as_ref(), compiled.as_ref());
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
    reject_unknown(
        args,
        0,
        &["--tuples", "--trials", "--cores", "--seed", "--out"],
        &[],
    )?;
    let (tuples, trials, cores, seed) = training_flags(args)?;

    let config = TrainingConfig {
        tuple_spec: TupleSpec::default(),
        trial_spec: TrialSpec {
            trials,
            platform: Platform::new(cores),
            tau: DEFAULT_TAU,
        },
        tuples,
        seed,
    };
    println!("Training: {tuples} tuples x {trials} trials on {cores} cores (seed {seed})...");
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
    if let Some(out) = flag_value(args, "--out")? {
        write_atomic(out, save_learned(&report.policies))
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("policy file written to {out}");
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    reject_unknown(
        args,
        0,
        &[
            "--tuples",
            "--trials",
            "--cores",
            "--seed",
            "--top",
            "--out",
            "--checkpoint-dir",
        ],
        &["--quick", "--resume"],
    )?;
    let (tuples, trials, cores, seed) = training_flags(args)?;
    let top_k = usize_flag(args, "--top", 4)?;
    let checkpoint_dir = flag_value(args, "--checkpoint-dir")?;
    let resume = has_flag(args, "--resume");
    if resume && checkpoint_dir.is_none() {
        return Err("--resume needs --checkpoint-dir DIR to resume from".to_string());
    }

    let config = FullRunConfig {
        training: TrainingConfig {
            tuple_spec: TupleSpec::default(),
            trial_spec: TrialSpec {
                trials,
                platform: Platform::new(cores),
                tau: DEFAULT_TAU,
            },
            tuples,
            seed,
        },
        enumerate: EnumerateOptions::default(),
        top_k,
        eval_scale: if has_flag(args, "--quick") {
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
    if let Some(out) = flag_value(args, "--out")? {
        write_atomic(out, &markdown).map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("report written to {out}");
    }
    Ok(())
}

/// `table4` up to (not including) its tables: the 18 rows' results under
/// the paper's line-up.
fn run_table4(args: &[String]) -> Result<Vec<ExperimentResult>, String> {
    reject_unknown(args, 0, &[], &["--quick"])?;
    let scale = if has_flag(args, "--quick") {
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

fn cmd_scenarios(args: &[String]) -> Result<(), String> {
    reject_unknown(
        args,
        0,
        &[
            "--cores",
            "--days",
            "--load",
            "--seed",
            "--family",
            "--mtbf",
            "--mttr",
            "--fault-cores",
            "--fault-retries",
            "--fault-seed",
        ],
        &["--eval"],
    )?;
    let cores = cores_flag(args)?;
    // span_days is f64 end to end: `--days 2.5` is a valid half-day span
    // (the old usize round-trip rejected it), and seeds parse as u64
    // directly rather than truncating through usize.
    let days = positive_flag(args, "--days", 7.0)?;
    let load = positive_flag(args, "--load", 0.8)?;
    // The upper end of `LublinModel::calibrated_to_load`'s range, which the
    // families assert on from inside a trace-store build.
    if load > 1.5 {
        return Err(format!("bad --load: {load} is above 1.5"));
    }
    // Every family generates its whole span in memory (≈ 500 jobs a day on
    // the default platform), so an unbounded span runs until it is killed.
    // The longest log the paper uses is SDSC Blue's 32 thirty-day months.
    const MAX_DAYS: f64 = 960.0;
    if days > MAX_DAYS {
        return Err(format!("bad --days: {days} is above {MAX_DAYS}"));
    }
    let seed = u64_flag(args, "--seed", 0x5C17)?;
    // Optional deterministic fault injection for the evaluation below;
    // parsed before the registry table so a bad value fails up front.
    let fault = fault_flags(args, cores, seed)?;

    let registry = ScenarioRegistry::builtin();
    // So is the family --eval is narrowed to: the table below generates
    // and calibrates the whole registry, which a misspelt name should not
    // have to wait for.
    let eval = has_flag(args, "--eval");
    let family = flag_value(args, "--family")?;
    if let Some(name) = family {
        if !eval {
            return Err("bad --family: it selects what --eval evaluates; pass --eval".to_string());
        }
        if registry.get(name).is_none() {
            return Err(format!(
                "bad --family: unknown family {name:?} (one of: {})",
                registry.names().join(", ")
            ));
        }
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
    for family in registry.families() {
        let c = family.calibration(&store, &params, seed);
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

    if eval {
        let mut registry = registry;
        let names: Vec<String> = match family {
            Some(name) => vec![name.to_string()],
            None => registry.names().iter().map(|n| n.to_string()).collect(),
        };
        if let Some(profile) = &fault {
            // Re-register the selected families with the profile attached:
            // scenario_experiment carries it into each experiment row.
            for name in &names {
                let family = registry.get(name).expect("validated above").clone();
                registry.register(family.with_fault_profile(profile.clone()));
            }
            println!(
                "\nfault injection: MTBF {:.0}s, MTTR {:.0}s, {} cores per failure, {} retries",
                profile.mtbf, profile.mttr, profile.failure_cores, profile.max_retries
            );
        }
        let scale = ScenarioScale {
            seed,
            ..ScenarioScale::quick()
        };
        println!(
            "\nevaluating {} family(ies) under all three conditions...",
            names.len()
        );
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let results = scenario_results(
            &store,
            &registry,
            &name_refs,
            &params,
            &scale,
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
    }
    Ok(())
}

fn cmd_policies(args: &[String]) -> Result<(), String> {
    reject_unknown(args, 0, &[], &[])?;
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

    #[test]
    fn flag_value_reads_a_present_value() {
        let a = args(&["--policy", "SPT", "--kill"]);
        assert_eq!(flag_value(&a, "--policy"), Ok(Some("SPT")));
        assert_eq!(flag_value(&a, "--backfill"), Ok(None));
    }

    #[test]
    fn flag_value_rejects_a_missing_value() {
        // Regression: `train --tuples` used to run with the default 12
        // instead of erroring.
        let a = args(&["--tuples"]);
        assert!(flag_value(&a, "--tuples").is_err());
        assert!(usize_flag(&a, "--tuples", 12).is_err());
    }

    #[test]
    fn flag_value_rejects_a_flag_shaped_value() {
        // Regression: `--policy --kill` consumed "--kill" as the policy
        // name and failed later with a confusing "unknown policy".
        let a = args(&["--policy", "--kill"]);
        let err = flag_value(&a, "--policy").unwrap_err();
        assert!(err.contains("--kill"), "error should name the flag: {err}");
    }

    #[test]
    fn days_accept_fractions_and_seeds_parse_as_u64() {
        // Regression: --days round-tripped through usize, rejecting 2.5
        // even though span_days is f64; seeds truncated through usize.
        let a = args(&["--days", "2.5", "--seed", "18446744073709551615"]);
        assert_eq!(f64_flag(&a, "--days", 7.0), Ok(2.5));
        assert_eq!(u64_flag(&a, "--seed", 0), Ok(u64::MAX));
        assert!(f64_flag(&args(&["--days", "x"]), "--days", 7.0).is_err());
        assert!(u64_flag(&args(&["--seed", "-1"]), "--seed", 0).is_err());
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
        let err = reject_unknown(&args(&["a.swf", "64", "stray"]), 2, &[], &[]).unwrap_err();
        assert!(err.contains("stray"), "{err}");
    }

    #[test]
    fn allowlist_accepts_known_shapes() {
        // A value flag consumes its value even when the value is
        // flag-shaped (flag_value rejects it later with a better message).
        assert!(reject_unknown(
            &args(&[
                "t.swf",
                "64",
                "--policy",
                "SPT",
                "--estimates",
                "--backfill",
                "easy"
            ]),
            2,
            &["--policy", "--backfill"],
            &["--estimates", "--kill"],
        )
        .is_ok());
        assert!(reject_unknown(
            &args(&["--checkpoint-dir", "ckpt", "--resume", "--quick"]),
            0,
            &["--checkpoint-dir"],
            &["--resume", "--quick"],
        )
        .is_ok());
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
        assert_eq!(cores_flag(&args(&["--cores", "2"])), Ok(2));
        assert_eq!(parse_cores("64"), Ok(64));
        assert!(parse_cores("-1").is_err());
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
        assert_eq!(parse_positive::<u32>("--tuples", "12"), Ok(12));
        assert!(parse_positive::<u32>("--tuples", "-1").is_err());
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
        assert_eq!(parse_positive::<f64>("--load", "1.5"), Ok(1.5));
        assert_eq!(parse_positive::<f64>("--days", "2.5"), Ok(2.5));
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
        let err = fault_flags(
            &args(&["--mtbf", "500", "--fault-retries", "4294967296"]),
            64,
            7,
        );
        assert!(err.unwrap_err().contains("--fault-retries"));
        let profile = fault_flags(&args(&["--mtbf", "500"]), 64, 7)
            .unwrap()
            .unwrap();
        assert!(profile.has_failures());
        assert_eq!(profile.failure_cores, 8);
        assert_eq!((profile.mttr, profile.max_retries), (3_600.0, 3));
        let flags = args(&["--mtbf", "500", "--fault-retries", "0"]);
        let profile = fault_flags(&flags, 64, 7).unwrap().unwrap();
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
            assert!(matches!(
                RouterSpec::parse("locality", &args(&["--spill", value]), "F1"),
                Ok(RouterSpec::Locality { spill }) if spill == want
            ));
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
        let (single, _) =
            run_simulate(&args(&[&[path.as_str(), "8"], &flags[..]].concat())).unwrap();
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
}
