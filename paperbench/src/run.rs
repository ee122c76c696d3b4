//! One benchmark run: set up, check, time, report.

use crate::harness::{number, peak_rss_mb, stamp, to_plain, Summary, Tally, WORKERS};
use crate::metrics::{Layers, MetricDecl, END_TO_END, PER_LAYER};
use crate::probes;
use crate::sizes::Scale;
use crate::trace::Tracer;
use crate::workloads::{self, PassOutcome, Workload};
use dynsched_simkit::durable::write_atomic;
use dynsched_simkit::json::{self, Json};
use dynsched_simkit::parallel::with_worker_limit;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Fewest timed passes of a run.
const MIN_PASSES: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Jitter seed (see [`crate::sizes`]).
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// `false`: end-to-end metrics, tracing off. `true`: the traced run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Merge this run's record into this file.
    pub out: Option<PathBuf>,
    /// Where inputs and `trace-<workload>.json` are written.
    pub out_dir: PathBuf,
    /// A digest the passes are expected to yield (pins results across
    /// commits; a mismatch is a failed check).
    pub expect_digest: Option<u64>,
}

/// `<cargo target dir>/paperbench`, found from the executable's own path
/// so it is inside the checkout wherever the target directory is.
pub fn default_out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("paperbench")))
        .unwrap_or_else(|| PathBuf::from("target/paperbench"))
}

/// Print each metric by name with its unit, and return them as the
/// members of the result line's `metrics` object.
fn report<'a>(metrics: impl Iterator<Item = (&'a MetricDecl, f64)>) -> Vec<(String, Json)> {
    metrics
        .map(|(m, value)| {
            println!("  {:<46} {value:>16.4} {}", m.name, m.unit);
            let metric = Json::Object(vec![
                ("value".into(), Json::F64(value)),
                ("unit".into(), Json::Str(m.unit.into())),
            ]);
            (m.name.to_string(), metric)
        })
        .collect()
}

/// Insert or replace member `key` of a JSON object's member list.
fn upsert(members: &mut Vec<(String, Json)>, key: &str, value: Json) {
    match members.iter_mut().find(|(k, _)| k == key) {
        Some(slot) => slot.1 = value,
        None => members.push((key.into(), value)),
    }
}

/// One timed pass of `workload`, checked against `expected`'s digest.
fn timed_pass(
    workload: &mut dyn Workload,
    tr: &mut Tracer,
    expected: u64,
    tally: &mut Tally,
) -> (f64, PassOutcome) {
    tr.next_pass();
    let root = tr.begin("pass");
    let t0 = Instant::now();
    let outcome = workload.pass(tr);
    let wall = t0.elapsed().as_secs_f64();
    tr.end(root, "", outcome.events);
    tally.operations(outcome.operations, outcome.failed);
    tally.check("pass digest repeats", outcome.digest == expected);
    (wall, outcome)
}

/// Run the benchmark as `options` say. Returns whether every check held;
/// the result line has been printed either way.
pub fn run(options: &Options) -> Result<bool, String> {
    with_worker_limit(WORKERS, || run_pinned(options))
}

fn run_pinned(options: &Options) -> Result<bool, String> {
    let name = options.workload.as_str();
    let scratch_dir = options
        .out_dir
        .join(format!("inputs-{name}-{}", options.seed));
    std::fs::create_dir_all(&scratch_dir).map_err(|e| format!("{}: {e}", scratch_dir.display()))?;

    // Set-up, several times over: everything before the first timed pass,
    // warm-up pass included.
    let mut layers = Layers::default();
    let mut setups = Vec::new();
    let mut ready: Option<(Box<dyn Workload>, PassOutcome)> = None;
    for _ in 0..SETUP_REPEATS {
        drop(ready.take());
        let t0 = Instant::now();
        let mut workload =
            workloads::set_up(name, options.scale, options.seed, &scratch_dir, &mut layers)?;
        let warm_up = workload.pass(&mut Tracer::off());
        setups.push(t0.elapsed().as_secs_f64());
        ready = Some((workload, warm_up));
    }
    let (mut workload, warm_up) = ready.expect("SETUP_REPEATS > 0");
    let setup = Summary::of(&setups);

    let mut tally = Tally::default();
    tally.operations(warm_up.operations, warm_up.failed);
    workload.check(&mut tally);
    if let Some(expected) = options.expect_digest {
        tally.check("digest equals --expect-digest", warm_up.digest == expected);
    }

    let mut record = stamp(options.seed, options.scale.name());
    record.push(("sizes".into(), workload.sizes()));
    record.push((
        "digest".into(),
        Json::Str(format!("{:016x}", warm_up.digest)),
    ));

    let metrics = if options.trace {
        // Untraced and traced passes alternate, so a drift in machine
        // speed during the run falls on both alike and the difference of
        // their fastest passes is the tracing overhead.
        let mut tracer = Tracer::on();
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        let started = Instant::now();
        while traced.len() < MIN_PASSES || started.elapsed().as_secs_f64() < options.seconds {
            let plain = &mut Tracer::off();
            untraced.push(timed_pass(workload.as_mut(), plain, warm_up.digest, &mut tally).0);
            traced.push(timed_pass(workload.as_mut(), &mut tracer, warm_up.digest, &mut tally).0);
        }
        let (untraced, traced) = (Summary::of(&untraced), Summary::of(&traced));
        layers.set(
            "trace_overhead_share",
            (traced.min - untraced.min) / untraced.min,
        );
        layers.set(
            "trace_unattributed_share",
            tracer.layer_totals()["pass"].self_s / traced.min,
        );
        workload.probes(&mut layers, &tracer);
        probes::run(&mut layers, &scratch_dir, options.scale.probe_budget());

        let trace_path = options.out_dir.join(format!("trace-{name}.json"));
        write_atomic(&trace_path, to_plain(&tracer.to_json(name)))
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        println!("{name}: traced run, {} + {} passes", untraced.n, traced.n);
        println!("  trace written to {}", trace_path.display());
        let metrics = report(PER_LAYER.iter().map(|m| (m, layers.get(m.name))));
        record.push(("per_layer".into(), Json::Object(metrics.clone())));
        metrics
    } else {
        let mut walls = Vec::new();
        let mut last = warm_up;
        let started = Instant::now();
        while walls.len() < MIN_PASSES || started.elapsed().as_secs_f64() < options.seconds {
            let plain = &mut Tracer::off();
            let (wall, outcome) = timed_pass(workload.as_mut(), plain, warm_up.digest, &mut tally);
            walls.push(wall);
            last = outcome;
        }
        let wall = Summary::of(&walls);
        let values = [
            wall.min,
            wall.min * 1e9 / last.events.max(1) as f64,
            setup.median,
            peak_rss_mb(),
        ];
        println!(
            "{name}: {} passes, {} events each, digest {:016x}",
            wall.n, last.events, warm_up.digest
        );
        println!(
            "  wall_s per pass: fastest {:.4}  median {:.4}  max {:.4}  MAD {:.4}  IQR/median {:.2} %  \
             ({} passes: too few for any percentile above the median)",
            wall.min,
            wall.median,
            wall.max,
            wall.mad,
            wall.spread() * 100.0,
            wall.n
        );
        let metrics = report(END_TO_END.iter().map(|(m, _)| m).zip(values));
        record.push(("passes".into(), wall.to_json()));
        record.push((
            "pass_wall_s".into(),
            Json::Array(walls.iter().map(|&w| Json::F64(w)).collect()),
        ));
        record.push(("setups".into(), setup.to_json()));
        record.push(("end_to_end".into(), Json::Object(metrics.clone())));
        metrics
    };

    let correct = tally.failed == 0;
    for failure in &tally.failures {
        eprintln!("check failed: {failure}");
    }
    record.push(("attempted".into(), Json::Uint(tally.attempted)));
    record.push(("failed".into(), Json::Uint(tally.failed)));
    if let Some(out) = &options.out {
        merge_record(out, name, record)?;
    }
    let _ = std::fs::remove_dir_all(&scratch_dir);

    println!(
        "{}",
        to_plain(&Json::Object(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::Uint(tally.attempted)),
            ("failed".into(), Json::Uint(tally.failed)),
            ("metrics".into(), Json::Object(metrics)),
        ]))
    );
    Ok(correct)
}

/// Merge `record` into the results file at `path` under workload `name`:
/// members the record has replace the stored ones, the rest stay (so an
/// end-to-end run and a traced run of one workload share a record).
fn merge_record(path: &Path, name: &str, record: Vec<(String, Json)>) -> Result<(), String> {
    let mut workloads = match std::fs::read_to_string(path) {
        Ok(text) => read_results(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        Err(_) => Vec::new(),
    };
    let mut merged = match workloads.iter().find(|(k, _)| k == name) {
        Some((_, Json::Object(members))) => members.clone(),
        _ => Vec::new(),
    };
    for (key, value) in record {
        upsert(&mut merged, &key, value);
    }
    upsert(&mut workloads, name, Json::Object(merged));
    let file = Json::Object(vec![
        ("paperbench".into(), Json::Uint(1)),
        ("workloads".into(), Json::Object(workloads)),
    ]);
    write_atomic(path, to_plain(&file)).map_err(|e| format!("{}: {e}", path.display()))
}

/// The per-workload records of a results file.
pub fn read_results(text: &str) -> Result<Vec<(String, Json)>, String> {
    let file = json::parse(text).map_err(|e| e.to_string())?;
    file.get("workloads")
        .and_then(Json::as_object)
        .map(<[_]>::to_vec)
        .ok_or_else(|| "not a paperbench results file".to_string())
}

/// The value of end-to-end metric `name` in a workload record.
pub fn end_to_end_value(record: &Json, name: &str) -> Option<f64> {
    number(record.get("end_to_end")?.get(name)?.get("value")?)
}
