//! Measurement core: sample statistics, the host/commit stamp every record
//! carries, peak memory, and the plain-JSON rendering of
//! [`dynsched_simkit::json::Json`] values.
//!
//! Every file the benchmark writes is built as a `Json` value and written
//! with [`dynsched_simkit::durable::write_atomic`]; nothing is assembled
//! with `format!`.

use dynsched_simkit::json::Json;
use dynsched_simkit::stats;
use std::path::Path;

/// Summary of one metric's per-pass samples. With 5–20 passes per run
/// there are too few samples for any percentile above the median, so the
/// spread is reported as min/max, quartiles and the median absolute
/// deviation instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the samples.
    pub median: f64,
    /// Smallest sample: for pass times, the reported value (see
    /// `README.md`, "Why the fastest pass").
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarize `samples`.
    ///
    /// # Panics
    /// Panics on an empty slice: a metric with no samples is a harness bug.
    pub fn of(samples: &[f64]) -> Self {
        let median = stats::median(samples).expect("a metric needs at least one sample");
        let deviations: Vec<f64> = samples.iter().map(|x| (x - median).abs()).collect();
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self {
            median,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            q1: stats::quantile_sorted(&sorted, 0.25),
            q3: stats::quantile_sorted(&sorted, 0.75),
            mad: stats::median(&deviations).expect("same length as samples"),
            n: samples.len(),
        }
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }

    /// The summary as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("median".into(), Json::F64(self.median)),
            ("min".into(), Json::F64(self.min)),
            ("max".into(), Json::F64(self.max)),
            ("q1".into(), Json::F64(self.q1)),
            ("q3".into(), Json::F64(self.q3)),
            ("mad".into(), Json::F64(self.mad)),
            ("n".into(), Json::Uint(self.n as u64)),
        ])
    }

    /// Read back what [`Summary::to_json`] wrote.
    pub fn from_json(json: &Json) -> Option<Self> {
        Some(Self {
            median: number(json.get("median")?)?,
            min: number(json.get("min")?)?,
            max: number(json.get("max")?)?,
            q1: number(json.get("q1")?)?,
            q3: number(json.get("q3")?)?,
            mad: number(json.get("mad")?)?,
            n: json.get("n")?.as_u64()? as usize,
        })
    }
}

/// A JSON number as `f64`. Plain JSON does not distinguish `3` from
/// `3.0`, so integers are widened here (the strict `Json::as_f64` is for
/// the exact-bit format, which these files do not use).
pub fn number(json: &Json) -> Option<f64> {
    match *json {
        Json::F64(x) => Some(x),
        Json::Uint(u) => Some(u as f64),
        _ => None,
    }
}

/// Worker threads the 2-worker workloads pin the scoped pool to.
pub const WORKERS: usize = 2;

/// Logical CPUs of the host.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Whether the pinned pool is wider than the host: wall-clock scaling
/// ratios mean nothing then and are reported as 0.
pub fn oversubscribed() -> bool {
    host_cpus() < WORKERS
}

/// What every record is stamped with, as JSON members.
pub fn stamp(seed: u64, scale: &str) -> Vec<(String, Json)> {
    vec![
        ("git_rev".into(), Json::Str(git_rev())),
        ("host_cpus".into(), Json::Uint(host_cpus() as u64)),
        ("workers".into(), Json::Uint(WORKERS as u64)),
        ("oversubscribed".into(), Json::Bool(oversubscribed())),
        ("seed".into(), Json::Uint(seed)),
        ("scale".into(), Json::Str(scale.into())),
    ]
}

/// The checked-out commit, read from `.git` by hand (no process is
/// spawned). `"unknown"` outside a git checkout — the benchmark driver
/// runs from an exported tree.
pub fn git_rev() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    read(Path::new(".git/packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process in MB (`VmHWM` of
/// `/proc/self/status`); 0 where the file does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

/// Render `json` as standard JSON text. `simkit::json` writes doubles as
/// `<decimal>$<hex16>`, which only its own parser reads; the benchmark's
/// result line and files are read by other tools, so doubles are written
/// as their shortest round-trip decimal alone (`simkit::json::parse`
/// accepts that form too). Non-finite doubles become `null`.
pub fn to_plain(json: &Json) -> String {
    let mut out = String::new();
    write_plain(json, &mut out);
    out
}

fn write_plain(json: &Json, out: &mut String) {
    use std::fmt::Write;
    match json {
        Json::F64(x) if x.is_finite() => {
            write!(out, "{x:?}").expect("write to String cannot fail");
        }
        Json::F64(_) => out.push_str("null"),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_plain(item, out);
            }
            out.push(']');
        }
        Json::Object(members) => {
            out.push('{');
            for (i, (key, value)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                Json::Str(key.clone()).write(out);
                out.push(':');
                write_plain(value, out);
            }
            out.push('}');
        }
        scalar => scalar.write(out),
    }
}

/// Running count of operations attempted and failed, and the names of the
/// correctness checks that did not hold.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted: simulations, fits, federations, checks.
    pub attempted: u64,
    /// Operations that returned `Err` plus checks that did not hold.
    pub failed: u64,
    /// Names of the failed checks, for the error output.
    pub failures: Vec<String>,
}

impl Tally {
    /// Record one correctness check.
    pub fn check(&mut self, name: &str, holds: bool) {
        self.attempted += 1;
        if !holds {
            self.failed += 1;
            self.failures.push(name.to_string());
        }
    }

    /// Record `ops` operations of which `failed` failed.
    pub fn operations(&mut self, ops: u64, failed: u64) {
        self.attempted += ops;
        self.failed += failed;
    }
}

/// FNV digest accumulator over exact bits: the result digest of a pass.
/// Two passes (or two commits) computed the same thing iff their digests
/// are equal.
#[derive(Debug, Clone, Default)]
pub struct Digest(Vec<u8>);

impl Digest {
    /// Fold in a double by its exact bits.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Fold in an integer.
    pub fn u64(&mut self, x: u64) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }

    /// The digest of everything folded in so far.
    pub fn finish(&self) -> u64 {
        dynsched_simkit::json::checksum(&self.0)
    }
}
