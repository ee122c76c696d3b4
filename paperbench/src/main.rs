//! `paperbench` command line.
//!
//! ```text
//! paperbench --workload NAME --seed N --seconds S --trace 0|1
//!            [--scale smoke|bench|paper] [--out FILE] [--out-dir DIR]
//!            [--expect-digest HEX]
//! paperbench compare BASE.json NEW.json
//! ```
//!
//! A run prints every metric by name with its unit and, as its last line,
//! one JSON object `{correct, attempted, failed, metrics}`. It exits 1
//! when a correctness check failed, 2 on a usage or I/O error.

use paperbench::compare::compare;
use paperbench::run::{default_out_dir, run, Options};
use paperbench::sizes::Scale;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: paperbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
[--scale smoke|bench|paper] [--out FILE] [--out-dir DIR] [--expect-digest HEX]
       paperbench compare BASE.json NEW.json";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: String::new(),
        seed: 0x5C17,
        seconds: 8.0,
        trace: false,
        scale: Scale::Bench,
        out: None,
        out_dir: default_out_dir(),
        expect_digest: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => options.workload = value.clone(),
            "--seed" => options.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                options.seconds = value.parse().map_err(|_| bad())?;
                if !(options.seconds > 0.0 && options.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => options.scale = Scale::parse(value).ok_or_else(bad)?,
            "--out" => options.out = Some(PathBuf::from(value)),
            "--out-dir" => options.out_dir = PathBuf::from(value),
            "--expect-digest" => {
                options.expect_digest = Some(u64::from_str_radix(value, 16).map_err(|_| bad())?)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if options.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [base, new] => compare(Path::new(base), Path::new(new)),
            _ => Err(USAGE.to_string()),
        },
        _ => parse(&args).and_then(|options| run(&options)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
