//! Trace sanity checking.
//!
//! Archive logs and generated traces both contain surprises (zero
//! runtimes, estimates below runtimes, jobs wider than the machine,
//! out-of-order submits after conversion bugs). The experiment harness
//! assumes a clean trace; this module audits one and reports everything a
//! study should know about before trusting its numbers — the checks the
//! archive community recommends running on every log.

use crate::trace::Trace;

/// Severity of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The trace is unusable for scheduling experiments as-is.
    Error,
    /// Usable, but results need a caveat.
    Warning,
    /// Informational.
    Info,
}

/// One audit finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// How serious it is.
    pub severity: Severity,
    /// Machine-readable code (stable across releases).
    pub code: &'static str,
    /// Human-readable description with counts.
    pub message: String,
}

/// Audit report for one trace against one platform width.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// All findings, errors first.
    pub findings: Vec<Finding>,
}

impl ValidationReport {
    /// Whether the trace can be simulated without preprocessing.
    pub fn is_usable(&self) -> bool {
        self.findings.iter().all(|f| f.severity != Severity::Error)
    }

    /// Render as a human-readable report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.findings.is_empty() {
            let _ = writeln!(out, "trace is clean");
            return out;
        }
        for f in &self.findings {
            let tag = match f.severity {
                Severity::Error => "ERROR",
                Severity::Warning => "WARN ",
                Severity::Info => "INFO ",
            };
            let _ = writeln!(out, "{tag} [{}] {}", f.code, f.message);
        }
        out
    }
}

/// Audit `trace` for use on a `platform_cores`-wide machine.
pub fn validate_trace(trace: &Trace, platform_cores: u32) -> ValidationReport {
    let mut findings = Vec::new();
    let jobs = trace.jobs();

    if jobs.is_empty() {
        findings.push(Finding {
            severity: Severity::Error,
            code: "empty",
            message: "trace contains no jobs".to_string(),
        });
        return ValidationReport { findings };
    }

    let oversized = jobs.iter().filter(|j| j.cores > platform_cores).count();
    if oversized > 0 {
        findings.push(Finding {
            severity: Severity::Error,
            code: "oversized-jobs",
            message: format!(
                "{oversized} jobs request more than {platform_cores} cores and can never start \
                 (drop them with Trace::capped_to)"
            ),
        });
    }

    let under_estimated = jobs.iter().filter(|j| j.estimate < j.runtime).count();
    if under_estimated > 0 {
        findings.push(Finding {
            severity: Severity::Warning,
            code: "estimate-below-runtime",
            message: format!(
                "{under_estimated} jobs have estimates below their runtime; with \
                 kill_at_estimate they will be cut short, and EASY shadow times will be optimistic"
            ),
        });
    }

    let sub_second = jobs.iter().filter(|j| j.runtime < 1.0).count();
    if sub_second > 0 {
        findings.push(Finding {
            severity: Severity::Warning,
            code: "sub-second-runtimes",
            message: format!(
                "{sub_second} jobs run under one second; bounded-slowdown values for them are \
                 dominated by the tau clamp"
            ),
        });
    }

    // Large silent gaps distort sequence extraction (empty windows).
    let mut max_gap = 0.0f64;
    for w in jobs.windows(2) {
        max_gap = max_gap.max(w[1].submit - w[0].submit);
    }
    if max_gap > 3.0 * 86_400.0 {
        findings.push(Finding {
            severity: Severity::Warning,
            code: "arrival-gap",
            message: format!(
                "largest arrival gap is {:.1} days; 15-day windows may come up empty \
                 (machine downtime in the log?)",
                max_gap / 86_400.0
            ),
        });
    }

    if let Some(summary) = trace.summary(platform_cores) {
        if summary.offered_load > 1.0 {
            findings.push(Finding {
                severity: Severity::Info,
                code: "over-offered",
                message: format!(
                    "offered load {:.2} exceeds 1: the machine cannot drain in real time and \
                     queues grow through the horizon",
                    summary.offered_load
                ),
            });
        }
        findings.push(Finding {
            severity: Severity::Info,
            code: "summary",
            message: format!(
                "{} jobs over {:.1} days, offered load {:.2}, serial fraction {:.2}, max width {}",
                summary.jobs,
                summary.span_seconds / 86_400.0,
                summary.offered_load,
                summary.serial_fraction,
                summary.max_cores
            ),
        });
    }

    findings.sort_by_key(|f| match f.severity {
        Severity::Error => 0,
        Severity::Warning => 1,
        Severity::Info => 2,
    });
    ValidationReport { findings }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsched_cluster::Job;

    fn job(id: u32, submit: f64, runtime: f64, estimate: f64, cores: u32) -> Job {
        Job::new(id, submit, runtime, estimate, cores)
    }

    #[test]
    fn clean_trace_is_usable() {
        let t = Trace::from_jobs(vec![
            job(0, 0.0, 100.0, 200.0, 4),
            job(1, 60.0, 500.0, 600.0, 8),
        ]);
        let report = validate_trace(&t, 64);
        assert!(report.is_usable());
        // Always carries the summary info line.
        assert!(report.findings.iter().any(|f| f.code == "summary"));
    }

    #[test]
    fn oversized_jobs_are_errors() {
        let t = Trace::from_jobs(vec![job(0, 0.0, 10.0, 10.0, 128)]);
        let report = validate_trace(&t, 64);
        assert!(!report.is_usable());
        assert!(report.findings.iter().any(|f| f.code == "oversized-jobs"));
        // capped_to fixes it.
        let fixed = validate_trace(&t.capped_to(64), 64);
        assert!(fixed.findings.iter().any(|f| f.code == "empty"));
    }

    #[test]
    fn underestimates_are_warnings() {
        let t = Trace::from_jobs(vec![job(0, 0.0, 100.0, 10.0, 2)]);
        let report = validate_trace(&t, 64);
        assert!(report.is_usable());
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "estimate-below-runtime"));
    }

    #[test]
    fn big_gaps_flagged() {
        let t = Trace::from_jobs(vec![
            job(0, 0.0, 10.0, 10.0, 1),
            job(1, 10.0 * 86_400.0, 10.0, 10.0, 1),
        ]);
        let report = validate_trace(&t, 64);
        assert!(report.findings.iter().any(|f| f.code == "arrival-gap"));
    }

    #[test]
    fn empty_trace_is_error() {
        let report = validate_trace(&Trace::default(), 64);
        assert!(!report.is_usable());
    }

    #[test]
    fn render_contains_tags() {
        let t = Trace::from_jobs(vec![job(0, 0.0, 0.5, 0.5, 128)]);
        let text = validate_trace(&t, 64).render();
        assert!(text.contains("ERROR"));
        assert!(text.contains("WARN"));
        assert!(text.contains("sub-second"));
    }

    #[test]
    fn errors_sort_first() {
        let t = Trace::from_jobs(vec![job(0, 0.0, 0.5, 0.4, 128)]);
        let report = validate_trace(&t, 64);
        assert_eq!(report.findings[0].severity, Severity::Error);
    }
}
