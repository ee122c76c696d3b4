//! Standard Workload Format (SWF) reading and writing.
//!
//! The Parallel Workloads Archive distributes every trace the paper
//! evaluates on (Curie, ANL Intrepid, SDSC Blue, CTC SP2) in SWF: one job
//! per line, 18 whitespace-separated fields, `;`-prefixed header comments.
//! We implement the full record format so real archive logs can be dropped
//! into the experiment harness unchanged, and so our synthetic stand-ins
//! can be exported for inspection with standard SWF tooling.
//!
//! Field reference (Feitelson, Tsafrir & Krakov 2014):
//! ```text
//!  1 job number          7 used memory        13 group id
//!  2 submit time         8 requested procs    14 executable id
//!  3 wait time           9 requested time     15 queue number
//!  4 run time           10 requested memory   16 partition number
//!  5 allocated procs    11 status             17 preceding job
//!  6 avg cpu time       12 user id            18 think time
//! ```

use crate::trace::Trace;
use dynsched_cluster::Job;
use std::fmt::Write as _;
use std::io::BufRead;
use std::path::Path;

/// One raw SWF record, all 18 fields. `-1` encodes "unknown" as per the
/// format specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwfRecord {
    /// Field 1: job number.
    pub job_number: i64,
    /// Field 2: submit time (seconds from trace start).
    pub submit: f64,
    /// Field 3: wait time in the original system (seconds).
    pub wait: f64,
    /// Field 4: actual run time (seconds).
    pub run_time: f64,
    /// Field 5: number of allocated processors.
    pub allocated_procs: i64,
    /// Field 6: average CPU time used per processor.
    pub avg_cpu_time: f64,
    /// Field 7: used memory (KB per processor).
    pub used_memory: f64,
    /// Field 8: requested number of processors.
    pub requested_procs: i64,
    /// Field 9: requested (user-estimated) run time.
    pub requested_time: f64,
    /// Field 10: requested memory.
    pub requested_memory: f64,
    /// Field 11: completion status (1 = completed).
    pub status: i64,
    /// Field 12: user id.
    pub user_id: i64,
    /// Field 13: group id.
    pub group_id: i64,
    /// Field 14: executable (application) number.
    pub executable: i64,
    /// Field 15: queue number.
    pub queue: i64,
    /// Field 16: partition number.
    pub partition: i64,
    /// Field 17: preceding job number.
    pub preceding_job: i64,
    /// Field 18: think time after preceding job.
    pub think_time: f64,
}

impl SwfRecord {
    /// A record with every optional field set to the SWF "unknown" value.
    pub fn unknown() -> Self {
        Self {
            job_number: -1,
            submit: 0.0,
            wait: -1.0,
            run_time: -1.0,
            allocated_procs: -1,
            avg_cpu_time: -1.0,
            used_memory: -1.0,
            requested_procs: -1,
            requested_time: -1.0,
            requested_memory: -1.0,
            status: -1,
            user_id: -1,
            group_id: -1,
            executable: -1,
            queue: -1,
            partition: -1,
            preceding_job: -1,
            think_time: -1.0,
        }
    }

    /// Build a record from the simulation-level [`Job`] representation.
    pub fn from_job(job: &Job) -> Self {
        Self {
            job_number: job.id as i64,
            submit: job.submit,
            run_time: job.runtime,
            allocated_procs: job.cores as i64,
            requested_procs: job.cores as i64,
            requested_time: job.estimate,
            status: 1,
            ..Self::unknown()
        }
    }

    /// Convert to a simulator [`Job`], applying the archive community's
    /// conventions: cores = allocated processors, falling back to requested;
    /// estimate = requested time, falling back to the actual run time.
    ///
    /// Returns `None` for records unusable in a rigid-job simulation
    /// (missing run time or processor count, zero processors, or a time
    /// field that is NaN or overflowed to infinity). A processor count
    /// beyond `u32` saturates to `u32::MAX`, so it reads as wider than any
    /// platform instead of wrapping to a narrow job.
    pub fn to_job(&self, id: u32) -> Option<Job> {
        let cores = if self.allocated_procs > 0 {
            self.allocated_procs
        } else {
            self.requested_procs
        };
        if cores <= 0 {
            return None;
        }
        // `1e400` parses to `inf`, which `Job::new` rejects like NaN.
        let usable = |t: f64| t.is_finite() && t >= 0.0;
        if !usable(self.run_time) || !usable(self.submit) || self.requested_time == f64::INFINITY {
            return None;
        }
        let runtime = self.run_time.max(1.0);
        let estimate = if self.requested_time > 0.0 {
            self.requested_time
        } else {
            runtime
        };
        let cores = u32::try_from(cores).unwrap_or(u32::MAX);
        Some(Job::new(id, self.submit, runtime, estimate, cores))
    }
}

/// Error produced while parsing an SWF document.
#[derive(Debug, Clone, PartialEq)]
pub struct SwfParseError {
    /// 1-based line number in the input.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for SwfParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SWF parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SwfParseError {}

/// Error produced while reading an SWF document from a stream: either the
/// underlying I/O failed or a line failed to parse.
#[derive(Debug)]
pub enum SwfReadError {
    /// The reader failed.
    Io(std::io::Error),
    /// A line failed the format rules (with its 1-based position).
    Parse(SwfParseError),
}

impl std::fmt::Display for SwfReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwfReadError::Io(e) => write!(f, "SWF read error: {e}"),
            SwfReadError::Parse(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SwfReadError {}

impl From<SwfParseError> for SwfReadError {
    fn from(e: SwfParseError) -> Self {
        SwfReadError::Parse(e)
    }
}

/// Parse one 18-field data line (already trimmed, non-empty, not a
/// comment). The fields go into a fixed array, not a `Vec`: this runs once
/// per record, and fields past the 18th are ignored unread.
fn parse_record_line(line_num: usize, trimmed: &str) -> Result<SwfRecord, SwfParseError> {
    let mut fields = [""; 18];
    let mut found = 0;
    for (slot, field) in fields.iter_mut().zip(trimmed.split_whitespace()) {
        *slot = field;
        found += 1;
    }
    if found < fields.len() {
        return Err(SwfParseError {
            line: line_num,
            message: format!("expected 18 fields, found {found}"),
        });
    }
    let f = |i: usize| -> Result<f64, SwfParseError> {
        fields[i].parse::<f64>().map_err(|e| SwfParseError {
            line: line_num,
            message: format!("field {} ({:?}): {e}", i + 1, fields[i]),
        })
    };
    let g = |i: usize| -> Result<i64, SwfParseError> {
        // Integer fields occasionally appear as floats in archive logs.
        fields[i]
            .parse::<i64>()
            .or_else(|_| fields[i].parse::<f64>().map(|x| x as i64))
            .map_err(|e| SwfParseError {
                line: line_num,
                message: format!("field {} ({:?}): {e}", i + 1, fields[i]),
            })
    };
    Ok(SwfRecord {
        job_number: g(0)?,
        submit: f(1)?,
        wait: f(2)?,
        run_time: f(3)?,
        allocated_procs: g(4)?,
        avg_cpu_time: f(5)?,
        used_memory: f(6)?,
        requested_procs: g(7)?,
        requested_time: f(8)?,
        requested_memory: f(9)?,
        status: g(10)?,
        user_id: g(11)?,
        group_id: g(12)?,
        executable: g(13)?,
        queue: g(14)?,
        partition: g(15)?,
        preceding_job: g(16)?,
        think_time: f(17)?,
    })
}

/// The streaming scanner every SWF entry point is built on: reads
/// line-by-line through one reusable buffer (never the whole document),
/// classifies each line, and hands comments/records to the callbacks. All
/// of the format's dirty-input rules live in one place — line numbers
/// count comments and blanks, short/garbage lines error with their
/// position, comments may appear anywhere. Lines are read as bytes:
/// archive headers carry Latin-1 site names, so a comment that is not
/// UTF-8 is taken lossily (`U+FFFD` per bad byte, the `Key: value` part
/// intact), while a record line that is not — records are plain numbers —
/// is a parse error at its line.
fn scan_swf<R: BufRead>(
    mut reader: R,
    mut on_comment: impl FnMut(&str),
    mut on_record: impl FnMut(SwfRecord),
) -> Result<(), SwfReadError> {
    let mut line = Vec::new();
    let mut line_num = 0usize;
    loop {
        line.clear();
        if reader
            .read_until(b'\n', &mut line)
            .map_err(SwfReadError::Io)?
            == 0
        {
            return Ok(());
        }
        line_num += 1;
        let valid = std::str::from_utf8(&line);
        let lossy;
        let trimmed = match valid {
            Ok(text) => text.trim(),
            Err(_) => {
                lossy = String::from_utf8_lossy(&line);
                lossy.trim()
            }
        };
        if trimmed.is_empty() {
            continue;
        }
        if let Some(comment) = trimmed.strip_prefix(';') {
            on_comment(comment.trim());
            continue;
        }
        if valid.is_err() {
            return Err(SwfReadError::Parse(SwfParseError {
                line: line_num,
                message: "record line is not valid UTF-8".to_string(),
            }));
        }
        on_record(parse_record_line(line_num, trimmed)?);
    }
}

/// Parse an SWF document into raw records, preserving header comments.
///
/// Header comment lines start with `;`. Blank lines are skipped. Each data
/// line must have at least 18 whitespace-separated numeric fields (extra
/// fields, present in some archive conversions, are ignored).
///
/// Reads from any [`BufRead`] line by line, so a multi-gigabyte archive
/// log never has to fit in memory as one string; a document already in
/// memory is `text.as_bytes()`, whose reads cannot fail.
pub fn parse_swf<R: BufRead>(reader: R) -> Result<(Vec<String>, Vec<SwfRecord>), SwfReadError> {
    let mut comments = Vec::new();
    let mut records = Vec::new();
    scan_swf(
        reader,
        |c| comments.push(c.to_string()),
        |r| records.push(r),
    )?;
    Ok((comments, records))
}

/// Metadata from an SWF file's `;`-comment header. The archive's headers
/// are `; Key: value` lines; unknown keys are preserved in `extra`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SwfHeader {
    /// `Computer:` — machine description.
    pub computer: Option<String>,
    /// `Installation:` — site.
    pub installation: Option<String>,
    /// `MaxProcs:` — processor count (the experiment platform width).
    pub max_procs: Option<u32>,
    /// `MaxJobs:` — number of jobs the header claims.
    pub max_jobs: Option<u64>,
    /// `MaxRuntime:` — site walltime limit, seconds.
    pub max_runtime: Option<f64>,
    /// `UnixStartTime:` — epoch seconds of trace start.
    pub unix_start_time: Option<i64>,
    /// `TimeZoneString:` — e.g. `Europe/Paris`.
    pub timezone: Option<String>,
    /// All header lines that are not `Key: value` or use unknown keys.
    pub extra: Vec<String>,
}

impl SwfHeader {
    /// Extract header metadata from the comment lines returned by
    /// [`parse_swf`].
    pub fn from_comments(comments: &[String]) -> Self {
        let mut header = SwfHeader::default();
        for line in comments {
            let Some((key, value)) = line.split_once(':') else {
                header.extra.push(line.clone());
                continue;
            };
            let value = value.trim();
            match key.trim() {
                "Computer" => header.computer = Some(value.to_string()),
                "Installation" => header.installation = Some(value.to_string()),
                "MaxProcs" => header.max_procs = value.parse().ok(),
                "MaxJobs" => header.max_jobs = value.parse().ok(),
                "MaxRuntime" => header.max_runtime = value.parse().ok(),
                "UnixStartTime" => header.unix_start_time = value.parse().ok(),
                "TimeZoneString" => header.timezone = Some(value.to_string()),
                _ => header.extra.push(line.clone()),
            }
        }
        header
    }
}

/// Parse an SWF document into its header metadata and a [`Trace`] in one
/// step — the convenient entry point for archive logs (`MaxProcs` gives
/// the platform width to simulate).
///
/// Each line is converted to a [`Job`] (or dropped by the documented
/// dirty-input rules) as it is read — raw [`SwfRecord`]s are never
/// accumulated, so peak memory is the usable jobs plus one line buffer.
pub fn parse_swf_with_header<R: BufRead>(reader: R) -> Result<(SwfHeader, Trace), SwfReadError> {
    let mut comments = Vec::new();
    let mut jobs = Vec::new();
    scan_swf(
        reader,
        |c| comments.push(c.to_string()),
        |rec| {
            if let Some(job) = rec.to_job(jobs.len() as u32) {
                jobs.push(job);
            }
        },
    )?;
    Ok((SwfHeader::from_comments(&comments), Trace::from_jobs(jobs)))
}

/// Parse an SWF document straight into a [`Trace`], dropping unusable
/// records (the archive convention: failed/cancelled jobs without a run
/// time do not participate in scheduling studies). Streams like
/// [`parse_swf_with_header`].
pub fn parse_swf_trace<R: BufRead>(reader: R) -> Result<Trace, SwfReadError> {
    let mut jobs = Vec::new();
    scan_swf(
        reader,
        |_| {},
        |rec| {
            if let Some(job) = rec.to_job(jobs.len() as u32) {
                jobs.push(job);
            }
        },
    )?;
    Ok(Trace::from_jobs(jobs))
}

/// Read an SWF file from disk through a buffered line-by-line stream —
/// the entry point the CLI uses, sized for archive logs that do not fit
/// comfortably in one allocation.
pub fn read_swf_file(path: impl AsRef<Path>) -> Result<(SwfHeader, Trace), SwfReadError> {
    let file = std::fs::File::open(path).map_err(SwfReadError::Io)?;
    parse_swf_with_header(std::io::BufReader::new(file))
}

fn fmt_time(x: f64) -> String {
    if x < 0.0 {
        "-1".to_string()
    } else if (x - x.round()).abs() < 1e-9 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x:.2}")
    }
}

/// Serialize records to SWF text, with optional header comment lines
/// (written `; `-prefixed, one per entry).
pub fn write_swf(comments: &[String], records: &[SwfRecord]) -> String {
    let mut out = String::new();
    for c in comments {
        let _ = writeln!(out, "; {c}");
    }
    for r in records {
        let _ = writeln!(
            out,
            "{} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
            r.job_number,
            fmt_time(r.submit),
            fmt_time(r.wait),
            fmt_time(r.run_time),
            r.allocated_procs,
            fmt_time(r.avg_cpu_time),
            fmt_time(r.used_memory),
            r.requested_procs,
            fmt_time(r.requested_time),
            fmt_time(r.requested_memory),
            r.status,
            r.user_id,
            r.group_id,
            r.executable,
            r.queue,
            r.partition,
            r.preceding_job,
            fmt_time(r.think_time),
        );
    }
    out
}

/// Serialize a [`Trace`] as SWF with a standard header.
pub fn write_swf_trace(trace: &Trace, platform_cores: u32) -> String {
    let comments = vec![
        "Generated by dynsched (SC'17 reproduction)".to_string(),
        format!("MaxProcs: {platform_cores}"),
        format!("MaxJobs: {}", trace.jobs().len()),
        "UnixStartTime: 0".to_string(),
    ];
    let records: Vec<SwfRecord> = trace.jobs().iter().map(SwfRecord::from_job).collect();
    write_swf(&comments, &records)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
; Computer: Test cluster
; MaxProcs: 128
1 0 5 100 4 -1 -1 4 200 -1 1 3 1 -1 1 1 -1 -1
2 10 0 50 1 -1 -1 1 -1 -1 1 3 1 -1 1 1 -1 -1

3 20 2 30 -1 -1 -1 8 60 -1 0 4 1 -1 1 1 -1 -1
";

    /// The line error of an in-memory document that must not parse.
    fn parse_error<T: std::fmt::Debug>(parsed: Result<T, SwfReadError>) -> SwfParseError {
        match parsed.unwrap_err() {
            SwfReadError::Parse(p) => p,
            SwfReadError::Io(e) => panic!("expected a parse error, got {e}"),
        }
    }

    #[test]
    fn parses_comments_and_records() {
        let (comments, records) = parse_swf(SAMPLE.as_bytes()).unwrap();
        assert_eq!(comments.len(), 2);
        assert!(comments[0].contains("Test cluster"));
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].job_number, 1);
        assert_eq!(records[0].run_time, 100.0);
        assert_eq!(records[0].requested_time, 200.0);
        assert_eq!(records[2].allocated_procs, -1);
    }

    #[test]
    fn to_job_semantics() {
        let (_, records) = parse_swf(SAMPLE.as_bytes()).unwrap();
        // Record 1: allocated procs and requested time present.
        let j = records[0].to_job(0).unwrap();
        assert_eq!(j.cores, 4);
        assert_eq!(j.estimate, 200.0);
        // Record 2: no requested time -> estimate falls back to runtime.
        let j = records[1].to_job(1).unwrap();
        assert_eq!(j.estimate, 50.0);
        // Record 3: allocated -1 -> falls back to requested procs (8).
        let j = records[2].to_job(2).unwrap();
        assert_eq!(j.cores, 8);
    }

    #[test]
    fn rejects_short_lines() {
        let err = parse_error(parse_swf("1 2 3\n".as_bytes()));
        assert_eq!(err.line, 1);
        assert!(err.message.contains("18 fields"));
    }

    #[test]
    fn field_count_is_checked_against_eighteen() {
        let ok = "1 0 5 100 4 -1 -1 4 200 -1 1 3 1 -1 1 1 -1 -1";
        let seventeen = ok.rsplit_once(' ').unwrap().0;
        let err = parse_error(parse_swf(seventeen.as_bytes()));
        assert_eq!(err.message, "expected 18 fields, found 17");
        // A 19th field (some archive conversions add one) is ignored,
        // whatever it holds.
        let (_, records) = parse_swf(format!("{ok}\n{ok} extra\n").as_bytes()).unwrap();
        assert_eq!(records[0], records[1]);
    }

    #[test]
    fn tabs_and_crlf_separate_like_spaces_and_lf() {
        let dos: String = SAMPLE
            .lines()
            .map(|line| {
                if line.starts_with(';') {
                    format!("{line}\r\n")
                } else {
                    format!("{}\r\n", line.replace(' ', "\t"))
                }
            })
            .collect();
        assert_eq!(
            parse_swf(dos.as_bytes()).unwrap(),
            parse_swf(SAMPLE.as_bytes()).unwrap()
        );
    }

    #[test]
    fn latin1_bytes_are_tolerated_in_comments_only() {
        // `Universit\xE9`: a Latin-1 site name, as archive headers have.
        let mut src = b"; Installation: Universit\xE9 de Test\n; MaxProcs: 128\n".to_vec();
        src.extend_from_slice(b"1 0 5 100 4 -1 -1 4 200 -1 1 3 1 -1 1 1 -1 -1\n");
        let (header, trace) = parse_swf_with_header(&src[..]).unwrap();
        assert_eq!(
            header.installation.as_deref(),
            Some("Universit\u{FFFD} de Test")
        );
        assert_eq!(header.max_procs, Some(128));
        assert_eq!(trace.len(), 1);
        // The same byte in a record line is that line's parse error, not
        // an I/O failure of the whole file.
        src.extend_from_slice(b"2 10 0 50 1 -1 -1 1 \xE9 -1 1 3 1 -1 1 1 -1 -1\n");
        match parse_swf_with_header(&src[..]).unwrap_err() {
            SwfReadError::Parse(p) => {
                assert_eq!(p.line, 4);
                assert!(p.message.contains("UTF-8"), "{}", p.message);
            }
            SwfReadError::Io(e) => panic!("expected a parse error, got {e}"),
        }
    }

    #[test]
    fn rejects_garbage_fields() {
        let bad = "1 0 5 abc 4 -1 -1 4 200 -1 1 3 1 -1 1 1 -1 -1\n";
        let err = parse_error(parse_swf(bad.as_bytes()));
        assert!(err.message.contains("field 4"));
    }

    #[test]
    fn roundtrip_preserves_records() {
        let (comments, records) = parse_swf(SAMPLE.as_bytes()).unwrap();
        let text = write_swf(&comments, &records);
        let (comments2, records2) = parse_swf(text.as_bytes()).unwrap();
        assert_eq!(comments, comments2);
        assert_eq!(records, records2);
    }

    #[test]
    fn trace_conversion_drops_unusable() {
        let with_bad = "\
1 0 5 100 4 -1 -1 4 200 -1 1 3 1 -1 1 1 -1 -1
2 10 0 -1 1 -1 -1 1 -1 -1 5 3 1 -1 1 1 -1 -1
3 20 2 30 0 -1 -1 0 60 -1 0 4 1 -1 1 1 -1 -1
";
        let trace = parse_swf_trace(with_bad.as_bytes()).unwrap();
        // Job 2 has no run time; job 3 has zero procs. Only job 1 survives.
        assert_eq!(trace.jobs().len(), 1);
        assert_eq!(trace.jobs()[0].cores, 4);
    }

    /// `1e400` overflows to `inf` in each time field: the record is
    /// dropped, not handed to `Job::new`'s asserts.
    #[test]
    fn overflowed_time_fields_make_a_record_unusable() {
        let ok = "1 0 5 100 4 -1 -1 4 200 -1 1 3 1 -1 1 1 -1 -1\n";
        for (field, name) in [(1, "submit"), (3, "run time"), (8, "requested time")] {
            let mut fields: Vec<&str> = ok.split_whitespace().collect();
            fields[field] = "1e400";
            let line = format!("{}\n{ok}", fields.join(" "));
            let (_, records) = parse_swf(line.as_bytes()).unwrap();
            assert!(records[0].to_job(0).is_none(), "overflowed {name}");
            let trace = parse_swf_trace(line.as_bytes()).unwrap();
            assert_eq!(trace.jobs().len(), 1, "overflowed {name}");
        }
    }

    /// 2^32 + 1 processors must not wrap to a 1-core job: the width
    /// saturates, so capping drops it and the engine refuses it.
    #[test]
    fn processor_counts_beyond_u32_saturate() {
        for line in [
            "1 0 5 100 4294967297 -1 -1 4 200 -1 1 3 1 -1 1 1 -1 -1\n",
            "1 0 5 100 -1 -1 -1 4294967297 200 -1 1 3 1 -1 1 1 -1 -1\n",
        ] {
            let trace = parse_swf_trace(line.as_bytes()).unwrap();
            assert_eq!(trace.jobs()[0].cores, u32::MAX);
            assert!(trace.capped_to(1 << 20).jobs().is_empty());
        }
    }

    #[test]
    fn zero_runtime_clamped_to_one_second() {
        let line = "1 0 0 0 2 -1 -1 2 10 -1 1 1 1 -1 1 1 -1 -1\n";
        let trace = parse_swf_trace(line.as_bytes()).unwrap();
        assert_eq!(trace.jobs()[0].runtime, 1.0);
    }

    #[test]
    fn header_metadata_parses() {
        let src = "\
; Computer: IBM SP2
; Installation: CTC
; MaxProcs: 338
; MaxJobs: 77222
; MaxRuntime: 64800
; UnixStartTime: 867868270
; TimeZoneString: US/Eastern
; Note: converted from accounting logs
1 0 5 100 4 -1 -1 4 200 -1 1 3 1 -1 1 1 -1 -1
";
        let (header, trace) = parse_swf_with_header(src.as_bytes()).unwrap();
        assert_eq!(header.computer.as_deref(), Some("IBM SP2"));
        assert_eq!(header.max_procs, Some(338));
        assert_eq!(header.max_jobs, Some(77_222));
        assert_eq!(header.max_runtime, Some(64_800.0));
        assert_eq!(header.unix_start_time, Some(867_868_270));
        assert_eq!(header.timezone.as_deref(), Some("US/Eastern"));
        assert_eq!(header.extra.len(), 1);
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn header_tolerates_missing_fields() {
        let header = SwfHeader::from_comments(&["just a free-form note".to_string()]);
        assert_eq!(header.max_procs, None);
        assert_eq!(header.extra.len(), 1);
    }

    #[test]
    fn reader_errors_carry_line_numbers() {
        // An 8-byte buffer forces many reads per line.
        let src = format!("{SAMPLE}not a data line\n");
        let tiny = std::io::BufReader::with_capacity(8, src.as_bytes());
        let err = parse_error(parse_swf_trace(tiny));
        assert_eq!(err.line, 7, "line numbers count comments and blanks");
        assert!(err.message.contains("18 fields"));
    }

    #[test]
    fn read_swf_file_streams_from_disk() {
        let dir = std::env::temp_dir().join("dynsched-swf-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.swf");
        std::fs::write(&path, SAMPLE).unwrap();
        let (header, trace) = read_swf_file(&path).unwrap();
        assert_eq!(header.max_procs, Some(128));
        assert_eq!(trace, parse_swf_trace(SAMPLE.as_bytes()).unwrap());
        assert!(matches!(
            read_swf_file(dir.join("missing.swf")),
            Err(SwfReadError::Io(_))
        ));
    }

    #[test]
    fn write_swf_trace_includes_header() {
        let trace = Trace::from_jobs(vec![Job::new(0, 0.0, 10.0, 20.0, 2)]);
        let text = write_swf_trace(&trace, 64);
        assert!(text.contains("MaxProcs: 64"));
        let reparsed = parse_swf_trace(text.as_bytes()).unwrap();
        assert_eq!(reparsed.jobs().len(), 1);
        assert_eq!(reparsed.jobs()[0].estimate, 20.0);
    }
}
