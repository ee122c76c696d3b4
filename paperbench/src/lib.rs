//! `paperbench`: the repository's end-to-end benchmark.
//!
//! Seven workloads drive the library crates in-process through their
//! public functions only — every layer is measured **from outside** — and
//! report four end-to-end metrics per workload (`wall_s`, `ns_per_event`,
//! `setup_s`, `peak_rss_mb`) plus, in a separate traced run, the
//! per-layer metrics listed in [`metrics::PER_LAYER`]. `README.md` in this
//! directory is the glossary; `BENCHMARK.json` at the repository root is
//! the contract the names here are tested against.

pub mod compare;
pub mod harness;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod sizes;
pub mod trace;
pub mod workloads;
