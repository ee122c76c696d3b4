//! `paperbench compare A.json B.json`: are two sets of runs the same?
//!
//! Per workload and end-to-end metric: the base value (file A), the new
//! value (file B), the ratio new ÷ base, and a verdict —
//!
//! * `regressed`: the new median is worse than the base by more than the
//!   metric's bound;
//! * `unresolved`: the per-pass spread of either run is wider than the
//!   bound and the two runs' samples overlap, so neither "same" nor
//!   "worse" can be claimed;
//! * `ok` otherwise.
//!
//! A different result digest, or more failed operations than the base,
//! is a failure whatever the timings say.

use crate::harness::{number, Summary};
use crate::metrics::END_TO_END;
use crate::run::{end_to_end_value, read_results};
use dynsched_simkit::json::Json;
use std::path::Path;

/// Verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// Spread wider than the bound and the samples overlap.
    Unresolved,
}

/// Judge `new` against `base` for a lower-is-better metric with
/// regression bound `bound`, given the per-pass samples of both runs
/// where the metric has them.
pub fn judge(base: f64, new: f64, bound: f64, samples: Option<(Summary, Summary)>) -> Verdict {
    let noisy = samples.is_some_and(|(a, b)| {
        let overlap = a.min <= b.max && b.min <= a.max;
        overlap && a.spread().max(b.spread()) > bound
    });
    if noisy {
        Verdict::Unresolved
    } else if new > base * (1.0 + bound) {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Which stored sample summary backs an end-to-end metric, if any.
fn samples_key(metric: &str) -> Option<&'static str> {
    match metric {
        "wall_s" | "ns_per_event" => Some("passes"),
        "setup_s" => Some("setups"),
        _ => None,
    }
}

/// Compare two results files; print one row per (workload, metric).
/// Returns `Ok(true)` when nothing regressed or failed.
pub fn compare(base_path: &Path, new_path: &Path) -> Result<bool, String> {
    let read = |path: &Path| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        read_results(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (base, new) = (read(base_path)?, read(new_path)?);
    println!(
        "base = {}, new = {}; ratio = new / base",
        base_path.display(),
        new_path.display()
    );
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "base", "new", "ratio"
    );
    let mut clean = true;
    for (name, base_record) in &base {
        let Some((_, new_record)) = new.iter().find(|(k, _)| k == name) else {
            println!("{name:<16} missing from {}", new_path.display());
            clean = false;
            continue;
        };
        for (decl, bound) in END_TO_END {
            let (Some(a), Some(b)) = (
                end_to_end_value(base_record, decl.name),
                end_to_end_value(new_record, decl.name),
            ) else {
                continue;
            };
            let samples = samples_key(decl.name).and_then(|key| {
                Some((
                    Summary::from_json(base_record.get(key)?)?,
                    Summary::from_json(new_record.get(key)?)?,
                ))
            });
            let verdict = judge(a, b, bound, samples);
            clean &= verdict != Verdict::Regressed;
            println!(
                "{name:<16} {:<14} {a:>14.4} {b:>14.4} {:>8.3}  {}",
                decl.name,
                b / a,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let digest = |r: &Json| r.get("digest").and_then(Json::as_str).map(str::to_string);
        if digest(base_record) != digest(new_record) {
            println!("{name:<16} digest differs: the two runs did not compute the same results");
            clean = false;
        }
        let failed = |r: &Json| r.get("failed").and_then(number).unwrap_or(0.0);
        if failed(new_record) > failed(base_record) {
            println!("{name:<16} more failed operations than the base");
            clean = false;
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(samples: &[f64]) -> Summary {
        Summary::of(samples)
    }

    #[test]
    fn beyond_the_bound_is_a_regression() {
        assert_eq!(judge(1.0, 1.2, 0.1, None), Verdict::Regressed);
        assert_eq!(judge(1.0, 1.05, 0.1, None), Verdict::Ok);
        assert_eq!(judge(1.0, 0.5, 0.1, None), Verdict::Ok);
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved() {
        let a = summary(&[0.8, 1.0, 1.0, 1.3, 1.4]);
        let b = summary(&[0.9, 1.1, 1.2, 1.3, 1.5]);
        assert_eq!(judge(1.0, 1.2, 0.1, Some((a, b))), Verdict::Unresolved);
        // Tight runs resolve, whichever way they fall.
        let a = summary(&[1.0, 1.0, 1.01]);
        let b = summary(&[1.2, 1.2, 1.21]);
        assert_eq!(judge(1.0, 1.2, 0.1, Some((a, b))), Verdict::Regressed);
        // Wide but disjoint: every new run reads worse than every base run.
        let a = summary(&[0.5, 1.0, 1.5]);
        let b = summary(&[2.0, 2.5, 3.0]);
        assert_eq!(judge(1.0, 2.5, 0.1, Some((a, b))), Verdict::Regressed);
    }
}
