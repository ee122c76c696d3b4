//! Edge-case coverage for the SWF parser.
//!
//! The real-trace scenarios feed the learning/evaluation pipeline through
//! this parser, so its behaviour on dirty archive logs must be
//! deterministic: malformed lines error with a precise location,
//! out-of-order submits normalize to one canonical trace order, and
//! degenerate records (zero runtimes, negative fields) are clamped or
//! dropped by documented rules — never silently reshuffled. The writer is
//! held byte for byte to a copy of the per-field formatter it replaced.

use dynsched_cluster::Job;
use dynsched_simkit::Rng;
use dynsched_workload::swf::{
    parse_swf, parse_swf_trace, parse_swf_with_header, write_swf, write_swf_trace, SwfParseError,
    SwfReadError, SwfRecord,
};
use dynsched_workload::Trace;

/// The line error of an in-memory document that must not parse.
fn parse_error(src: &str) -> SwfParseError {
    match parse_swf(src.as_bytes()).unwrap_err() {
        SwfReadError::Parse(p) => p,
        SwfReadError::Io(e) => panic!("expected a parse error, got {e}"),
    }
}

fn line(fields: &[&str]) -> String {
    fields.join(" ")
}

/// An 18-field data line with the given job number, submit, runtime and
/// processor count; all other fields "unknown".
fn data_line(job: i64, submit: f64, runtime: f64, procs: i64) -> String {
    line(&[
        &job.to_string(),
        &submit.to_string(),
        "-1",
        &runtime.to_string(),
        &procs.to_string(),
        "-1",
        "-1",
        &procs.to_string(),
        "-1",
        "-1",
        "1",
        "1",
        "1",
        "-1",
        "1",
        "1",
        "-1",
        "-1",
    ])
}

#[test]
fn comment_only_and_blank_documents_parse_to_empty_traces() {
    for src in ["", "\n\n\n", "; just a header\n; Computer: X\n", ";\n\n;\n"] {
        let (comments, records) = parse_swf(src.as_bytes()).unwrap();
        assert!(records.is_empty(), "{src:?}");
        let trace = parse_swf_trace(src.as_bytes()).unwrap();
        assert!(trace.is_empty());
        // Comments survive even when no data does.
        if src.contains("Computer") {
            assert!(comments.iter().any(|c| c.contains("Computer")));
        }
    }
}

#[test]
fn short_lines_error_with_their_line_number() {
    let src = format!("; header\n{}\n1 2 3 4\n", data_line(1, 0.0, 10.0, 2));
    let err = parse_error(&src);
    assert_eq!(err.line, 3);
    assert!(err.message.contains("18 fields"));
    assert!(err.message.contains("found 4"));
}

#[test]
fn malformed_fields_error_with_line_and_field() {
    // Field 9 (requested time) is garbage on line 2.
    let good = data_line(1, 0.0, 10.0, 2);
    let mut fields: Vec<String> = good.split_whitespace().map(String::from).collect();
    fields[8] = "12:00:00".to_string();
    let src = format!("{good}\n{}\n", fields.join(" "));
    let err = parse_error(&src);
    assert_eq!(err.line, 2);
    assert!(err.message.contains("field 9"), "{}", err.message);
    // Errors are values, not panics — parsing the good line alone works.
    assert!(parse_swf(good.as_bytes()).is_ok());
}

#[test]
fn error_positions_count_comments_and_blanks() {
    let src = format!(
        "; one\n\n; two\n{}\nbad line here\n",
        data_line(1, 0.0, 5.0, 1)
    );
    let err = parse_error(&src);
    assert_eq!(err.line, 5, "line numbers must include comments and blanks");
}

#[test]
fn out_of_order_submits_normalize_to_one_canonical_order() {
    // Archive logs are *usually* submit-sorted but not always; the trace
    // must come out in (submit, id) order no matter the input order.
    let shuffled = format!(
        "{}\n{}\n{}\n{}\n",
        data_line(1, 500.0, 10.0, 1),
        data_line(2, 0.0, 20.0, 2),
        data_line(3, 250.0, 30.0, 4),
        data_line(4, 0.0, 40.0, 8),
    );
    let trace = parse_swf_trace(shuffled.as_bytes()).unwrap();
    let submits: Vec<f64> = trace.jobs().iter().map(|j| j.submit).collect();
    assert_eq!(submits, vec![0.0, 0.0, 250.0, 500.0]);
    // Equal submits tie-break on the id assigned in file order, so the
    // 20s job (earlier in the file) precedes the 40s job.
    assert_eq!(trace.jobs()[0].runtime, 20.0);
    assert_eq!(trace.jobs()[1].runtime, 40.0);
    // Determinism: reparsing gives the identical trace.
    assert_eq!(trace, parse_swf_trace(shuffled.as_bytes()).unwrap());
}

#[test]
fn zero_runtime_jobs_are_kept_and_clamped() {
    // Sub-second / zero runtimes appear in real logs (instantly-failing
    // jobs); the simulator needs strictly positive runtimes, so they
    // clamp to 1 s — deterministically, not probabilistically.
    let src = format!(
        "{}\n{}\n",
        data_line(1, 0.0, 0.0, 2),
        data_line(2, 5.0, 0.0, 1)
    );
    let trace = parse_swf_trace(src.as_bytes()).unwrap();
    assert_eq!(trace.len(), 2);
    for job in trace.jobs() {
        assert_eq!(job.runtime, 1.0);
        assert!(job.estimate >= job.runtime);
    }
}

#[test]
fn unusable_records_are_dropped_by_documented_rules() {
    let src = format!(
        "{}\n{}\n{}\n{}\n",
        data_line(1, 0.0, 10.0, 2),   // fine
        data_line(2, 10.0, -1.0, 2),  // no runtime → dropped
        data_line(3, 20.0, 10.0, -1), // no procs (allocated & requested -1) → dropped
        data_line(4, -5.0, 10.0, 2),  // negative submit → dropped
    );
    let trace = parse_swf_trace(src.as_bytes()).unwrap();
    assert_eq!(trace.len(), 1);
    assert_eq!(trace.jobs()[0].cores, 2);
    // The raw record layer still surfaces all four for auditing.
    let (_, records) = parse_swf(src.as_bytes()).unwrap();
    assert_eq!(records.len(), 4);
    assert_eq!(records[1].to_job(0), None);
    assert_eq!(records[2].to_job(0), None);
    assert_eq!(records[3].to_job(0), None);
}

#[test]
fn extra_trailing_fields_are_tolerated() {
    // Some archive conversions append extra columns; they must not break
    // the 18-field core.
    let src = format!("{} 99 98 97\n", data_line(7, 3.0, 60.0, 4));
    let (_, records) = parse_swf(src.as_bytes()).unwrap();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].job_number, 7);
    assert_eq!(records[0].think_time, -1.0);
}

#[test]
fn integer_fields_written_as_floats_parse() {
    let good = data_line(1, 0.0, 10.0, 2);
    let mut fields: Vec<String> = good.split_whitespace().map(String::from).collect();
    fields[4] = "4.0".to_string(); // allocated procs as float
    fields[10] = "1.0".to_string(); // status as float
    let (_, records) = parse_swf(fields.join(" ").as_bytes()).unwrap();
    assert_eq!(records[0].allocated_procs, 4);
    assert_eq!(records[0].status, 1);
}

#[test]
fn mid_document_comments_are_collected_with_the_header() {
    let src = format!(
        "; head\n{}\n; interleaved note\n{}\n",
        data_line(1, 0.0, 10.0, 1),
        data_line(2, 5.0, 10.0, 1),
    );
    let (comments, records) = parse_swf(src.as_bytes()).unwrap();
    assert_eq!(records.len(), 2);
    assert_eq!(
        comments,
        vec!["head".to_string(), "interleaved note".to_string()]
    );
}

#[test]
fn header_and_trace_survive_a_write_parse_roundtrip_with_dirty_input() {
    // Whole submits at and past 2^63 must keep every digit, not saturate
    // to `i64::MAX`.
    let src = format!(
        "; MaxProcs: 64\n{}\n{}\n{}\n{}\n{}\n",
        data_line(2, 100.0, 0.0, 8),
        data_line(1, 0.0, 50.0, 4),
        data_line(3, 2f64.powi(63), 10.0, 2),
        data_line(4, 1e19, 10.0, 2),
        data_line(5, 1e300, 10.0, 2),
    );
    let (header, trace) = parse_swf_with_header(src.as_bytes()).unwrap();
    assert_eq!(header.max_procs, Some(64));
    assert_eq!(trace.len(), 5);
    // Write the normalized trace back out and reparse: stable fixpoint.
    let records: Vec<SwfRecord> = trace.jobs().iter().map(SwfRecord::from_job).collect();
    let text = write_swf(&["MaxProcs: 64".to_string()], &records);
    let (header2, trace2) = parse_swf_with_header(text.as_bytes()).unwrap();
    assert_eq!(header2.max_procs, Some(64));
    // Ids are assigned in file order, so the normalized rewrite renumbers
    // them; everything the simulation reads is a fixpoint.
    assert_eq!(trace2.len(), trace.len());
    for (a, b) in trace.jobs().iter().zip(trace2.jobs()) {
        assert_eq!(
            (a.submit, a.runtime, a.estimate, a.cores),
            (b.submit, b.runtime, b.estimate, b.cores)
        );
    }
    // Random traces with times in hundredths, which the writer keeps:
    // through `write_swf_trace` and back, every field is a fixpoint.
    let hundredths = |x: f64| (x * 100.0).round() / 100.0;
    for case in 0..64u64 {
        let mut rng = Rng::new(0xD00D ^ case);
        let jobs: Vec<Job> = (0..rng.range_u64(1, 25))
            .map(|i| {
                let submit = rng.range_f64(0.0, 5_000.0);
                let runtime = rng.range_f64(1.0, 5_000.0);
                let estimate = runtime * rng.range_f64(1.0, 3.0);
                let cores = rng.range_u64(1, 31) as u32;
                let [s, r, e] = [submit, runtime, estimate].map(hundredths);
                Job::new(i as u32, s, r, e, cores)
            })
            .collect();
        let trace = Trace::from_jobs(jobs);
        let back = parse_swf_trace(write_swf_trace(&trace, 32).as_bytes()).unwrap();
        assert_eq!(back.len(), trace.len(), "case {case}");
        for (a, b) in trace.jobs().iter().zip(back.jobs()) {
            assert_eq!(
                (a.submit, a.runtime, a.estimate, a.cores),
                (b.submit, b.runtime, b.estimate, b.cores),
                "case {case}"
            );
        }
    }
}

/// The writer as it was before it appended in place: one `String` per time
/// field. Kept only as the reference `write_swf` must match byte for byte
/// below 2^63 (above that its `as i64` saturates, which the roundtrip test
/// above pins as a bug).
fn oracle_write_swf(comments: &[String], records: &[SwfRecord]) -> String {
    use std::fmt::Write as _;
    fn old_time(x: f64) -> String {
        if x < 0.0 {
            "-1".to_string()
        } else if (x - x.round()).abs() < 1e-9 {
            format!("{}", x.round() as i64)
        } else {
            format!("{x:.2}")
        }
    }
    let mut out = String::new();
    for c in comments {
        let _ = writeln!(out, "; {c}");
    }
    for r in records {
        let _ = writeln!(
            out,
            "{} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
            r.job_number,
            old_time(r.submit),
            old_time(r.wait),
            old_time(r.run_time),
            r.allocated_procs,
            old_time(r.avg_cpu_time),
            old_time(r.used_memory),
            r.requested_procs,
            old_time(r.requested_time),
            old_time(r.requested_memory),
            r.status,
            r.user_id,
            r.group_id,
            r.executable,
            r.queue,
            r.partition,
            r.preceding_job,
            old_time(r.think_time),
        );
    }
    out
}

/// A time field from one of the shapes the formatter branches on.
fn any_time(rng: &mut Rng) -> f64 {
    const BELOW_2_63: f64 = 9_223_372_036_854_774_784.0; // 2^63 - 1024
    let whole = rng.range_u64(0, 1 << 40) as f64;
    match rng.next_below(12) {
        0 => -1.0,
        1 => -rng.range_f64(0.0, 1e6),
        2 => 0.0,
        3 => -0.0,
        4 => whole,
        5 => ((rng.next_u64() >> 1) as f64).min(BELOW_2_63),
        6 => BELOW_2_63 - 1024.0 * rng.range_u64(0, 4) as f64,
        7 => whole + [0.1, 0.25, 0.125, 0.999][rng.next_below(4) as usize],
        8 => whole + 0.005 + 0.01 * rng.range_u64(0, 99) as f64,
        9 => whole + [4e-10, -4e-10, 2e-9, -2e-9][rng.next_below(4) as usize],
        10 => [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.next_below(3) as usize],
        _ => rng.range_f64(0.0, 1e7),
    }
}

/// An integer field: mostly small, sometimes at an `i64` extreme.
fn any_int(rng: &mut Rng) -> i64 {
    match rng.next_below(5) {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => -1,
        _ => rng.range_u64(0, 1 << 20) as i64 - (1 << 19),
    }
}

#[test]
fn the_writer_prints_the_bytes_of_the_per_field_formatter_it_replaced() {
    for case in 0..64u64 {
        let mut rng = Rng::new(0x5EED ^ case);
        let records: Vec<SwfRecord> = (0..rng.range_u64(0, 40))
            .map(|_| SwfRecord {
                job_number: any_int(&mut rng),
                submit: any_time(&mut rng),
                wait: any_time(&mut rng),
                run_time: any_time(&mut rng),
                allocated_procs: any_int(&mut rng),
                avg_cpu_time: any_time(&mut rng),
                used_memory: any_time(&mut rng),
                requested_procs: any_int(&mut rng),
                requested_time: any_time(&mut rng),
                requested_memory: any_time(&mut rng),
                status: any_int(&mut rng),
                user_id: any_int(&mut rng),
                group_id: any_int(&mut rng),
                executable: any_int(&mut rng),
                queue: any_int(&mut rng),
                partition: any_int(&mut rng),
                preceding_job: any_int(&mut rng),
                think_time: any_time(&mut rng),
            })
            .collect();
        let comments = ["MaxProcs: 64".to_string(), format!("case {case}")];
        let comments = &comments[..rng.next_below(3) as usize];
        assert_eq!(
            write_swf(comments, &records),
            oracle_write_swf(comments, &records),
            "case {case}"
        );
    }
    // `write_swf_trace` is `write_swf` over the jobs' records, header first.
    for case in 0..16u64 {
        let mut rng = Rng::new(0x7ACE ^ case);
        let jobs: Vec<Job> = (0..rng.range_u64(0, 200))
            .map(|i| {
                let runtime = rng.range_f64(1.0, 5_000.0);
                let estimate = runtime * rng.range_f64(1.0, 3.0);
                let cores = rng.range_u64(1, 64) as u32;
                Job::new(i as u32, rng.range_f64(0.0, 1e6), runtime, estimate, cores)
            })
            .collect();
        let trace = Trace::from_jobs(jobs);
        let header = [
            "Generated by dynsched (SC'17 reproduction)".to_string(),
            "MaxProcs: 64".to_string(),
            format!("MaxJobs: {}", trace.len()),
            "UnixStartTime: 0".to_string(),
        ];
        let records: Vec<SwfRecord> = trace.jobs().iter().map(SwfRecord::from_job).collect();
        assert_eq!(
            write_swf_trace(&trace, 64),
            write_swf(&header, &records),
            "case {case}"
        );
    }
}
