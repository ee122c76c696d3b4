//! Every workload at smoke scale, end to end through the binary: the
//! result line parses, names every metric `BENCHMARK.json` declares and no
//! other, and no operation fails; a broken check raises `failed` and the
//! exit code; `compare` accepts a file against itself and rejects a
//! slowed-down copy.

use dynsched_simkit::json::{self, Json};
use paperbench::harness::{number, to_plain, Summary};
use paperbench::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_paperbench");

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn run(dir: &Path, workload: &str, trace: &str, extra: &[&str]) -> Output {
    Command::new(BIN)
        .args(["--workload", workload, "--scale", "smoke", "--seed", "7"])
        .args(["--seconds", "0.2", "--trace", trace])
        .arg("--out-dir")
        .arg(dir)
        .arg("--out")
        .arg(dir.join("results.json"))
        .args(extra)
        .output()
        .expect("paperbench runs")
}

fn result_line(output: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).expect("the last line is one JSON object")
}

fn names(list: &Json) -> Vec<String> {
    list.as_array()
        .expect("an array")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn declared_names_match_benchmark_json() {
    let declared = benchmark_json();
    assert_eq!(names(declared.get("workloads").unwrap()), WORKLOADS);
    let end_to_end = declared.get("end_to_end").unwrap().as_array().unwrap();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (json, (decl, bound)) in end_to_end.iter().zip(END_TO_END) {
        assert_eq!(json.get("name").and_then(Json::as_str), Some(decl.name));
        assert_eq!(json.get("unit").and_then(Json::as_str), Some(decl.unit));
        assert_eq!(json.get("better").and_then(Json::as_str), Some("lower"));
        assert!(decl.lower_is_better);
        assert_eq!(json.get("bound").and_then(number), Some(bound));
    }
    let per_layer = declared.get("per_layer").unwrap().as_array().unwrap();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (json, decl) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(json.get("name").and_then(Json::as_str), Some(decl.name));
        assert_eq!(json.get("unit").and_then(Json::as_str), Some(decl.unit));
        let better = if decl.lower_is_better {
            "lower"
        } else {
            "higher"
        };
        assert_eq!(json.get("better").and_then(Json::as_str), Some(better));
    }
}

#[test]
fn every_workload_reports_every_metric_and_nothing_fails() {
    let dir = scratch("smoke-all");
    for workload in WORKLOADS {
        for (trace, expected) in [
            (
                "0",
                END_TO_END.iter().map(|(m, _)| m.name).collect::<Vec<_>>(),
            ),
            ("1", PER_LAYER.iter().map(|m| m.name).collect()),
        ] {
            let output = run(&dir, workload, trace, &[]);
            assert!(
                output.status.success(),
                "{workload} --trace {trace}: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            let line = result_line(&output);
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
            assert!(line.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
            let metrics = line.get("metrics").and_then(Json::as_object).unwrap();
            let reported: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(reported, expected, "{workload} --trace {trace}");
            for (name, metric) in metrics {
                let value = metric.get("value").and_then(number);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload} {name}: {value:?}"
                );
                if trace == "0" {
                    assert!(value.unwrap() > 0.0, "{workload} {name} must never be 0");
                }
            }
        }
        assert!(dir.join(format!("trace-{workload}.json")).exists());
    }

    // The merged results file holds all seven records, and agrees with
    // itself.
    let results = dir.join("results.json");
    let compare = |new: &Path| {
        Command::new(BIN)
            .arg("compare")
            .arg(&results)
            .arg(new)
            .output()
            .expect("paperbench compare runs")
    };
    let same = compare(&results);
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );
    let rows = String::from_utf8_lossy(&same.stdout).to_string();
    for workload in WORKLOADS {
        assert!(rows.contains(workload), "{rows}");
    }
    assert!(!rows.contains("regressed"), "{rows}");

    // A copy whose peak memory tripled regresses (memory has no samples to
    // hide behind).
    let text = std::fs::read_to_string(&results).unwrap();
    let mut file = json::parse(&text).unwrap();
    fn triple_rss(json: &mut Json) {
        match json {
            Json::Object(members) => {
                for (key, value) in members {
                    if key == "peak_rss_mb" {
                        if let Json::Object(metric) = value {
                            let v = number(&metric[0].1).unwrap();
                            metric[0].1 = Json::F64(v * 3.0);
                        }
                    } else {
                        triple_rss(value);
                    }
                }
            }
            Json::Array(items) => items.iter_mut().for_each(triple_rss),
            _ => {}
        }
    }
    triple_rss(&mut file);
    let slowed = dir.join("slowed.json");
    std::fs::write(&slowed, to_plain(&file)).unwrap();
    let worse = compare(&slowed);
    assert!(!worse.status.success());
    assert!(String::from_utf8_lossy(&worse.stdout).contains("regressed"));
}

#[test]
fn a_broken_check_raises_failed_and_the_exit_code() {
    let dir = scratch("smoke-broken");
    let output = run(&dir, "replay_static", "0", &["--expect-digest", "0"]);
    assert_eq!(output.status.code(), Some(1));
    let line = result_line(&output);
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
    assert_eq!(line.get("failed").and_then(Json::as_u64), Some(1));
    assert!(String::from_utf8_lossy(&output.stderr).contains("--expect-digest"));
}

#[test]
fn usage_errors_print_no_result() {
    let output = Command::new(BIN)
        .args(["--workload", "no_such_workload", "--scale", "smoke"])
        .output()
        .expect("paperbench runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}

#[test]
fn summary_statistics_are_right() {
    let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 10.0]);
    assert_eq!(s.median, 3.0);
    assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 5));
    // Deviations from 3: 1, 2, 0, 1, 7 -> median 1.
    assert_eq!(s.mad, 1.0);
    assert_eq!((s.q1, s.q3), (2.0, 4.0));
    assert_eq!(s.spread(), 2.0 / 3.0);
    assert_eq!(Summary::from_json(&s.to_json()), Some(s));
    let round_trip = json::parse(&to_plain(&s.to_json())).unwrap();
    assert_eq!(Summary::from_json(&round_trip), Some(s));
}
