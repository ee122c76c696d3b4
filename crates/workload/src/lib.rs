//! # dynsched-workload
//!
//! Workload models and trace handling for the `dynsched` SC'17 reproduction:
//!
//! * [`trace`] — in-memory job traces with windowing/rebasing and summary
//!   statistics, plus the [`TraceSource`] layout-abstraction trait the
//!   scheduler engine is generic over (three layouts: [`Trace`],
//!   [`TraceView`] and [`TraceSlice`]);
//! * [`store`] — the columnar trace store: SoA job columns
//!   ([`TraceColumns`]) behind `Arc`-shared [`TraceView`] handles,
//!   interned by generation key in a [`TraceStore`];
//! * [`partition`] — per-shard trace partitioning: [`TraceSlice`] presents
//!   a routed subsequence of a parent trace as a [`TraceSource`] without
//!   copying, the shard-local input of the scheduler's federation layer;
//! * [`registry`] — the six scenario families beyond the paper
//!   (heavy-tail, bursty, diurnal, Feitelson'96, Tsafrir-estimate mixes),
//!   one [`ScenarioFamily`] enum that `dynsched scenarios` lists and
//!   evaluates;
//! * [`swf`] — full Standard Workload Format reader/writer with streaming
//!   (`BufRead`, line-by-line) ingestion, so real Parallel Workloads
//!   Archive logs can be dropped into the harness without fitting in one
//!   allocation;
//! * [`lublin`] — the Lublin–Feitelson rigid-job model used to train the
//!   paper's policies (sizes, size-correlated hyper-gamma runtimes, daily
//!   arrival cycle, load calibration);
//! * [`tsafrir`] — the Tsafrir et al. modal user runtime-estimate model;
//! * [`feitelson`] — the structurally different Feitelson'96 mix for
//!   cross-model generalization studies;
//! * [`sequence`] — the ten-disjoint-fifteen-day-sequences experiment
//!   protocol;
//! * [`archive`] — synthetic stand-ins for the four archive traces of the
//!   paper's Table 5 (Curie, ANL Intrepid, SDSC Blue, CTC SP2).
//!
//! ## The trace-store / interning contract
//!
//! Simulation-facing traces live in **structure-of-arrays columns**
//! ([`TraceColumns`]: dense `submit`/`runtime`/`estimate`/`cores`/`id`
//! slices) shared through cheap [`TraceView`] handles; the AoS [`Trace`]
//! remains the construction/transformation format, and the two present the
//! identical canonical `(submit, id)` order through [`TraceSource`] — so a
//! simulation over either layout is **bit-identical** (pinned by the
//! scheduler's `differential` harness at 1 and n worker threads).
//!
//! A [`TraceStore`] interns views by [`TraceKey`], a
//! `(generator, params, seed)` triple whose numeric parameters are stored
//! as exact bit patterns: keys are equal iff every generation input is
//! bit-identical, so distinct parameter points can never collide into one
//! cache entry, and a cache hit returns columns bit-identical to what
//! rebuilding would have produced. Every evaluation entry point above this
//! crate (the Table-4 grid, registry scenarios, the full-run pipeline)
//! passes one store through its scenario constructors and therefore builds
//! each distinct workload tuple **once** — e.g. the 18 Table-4 rows name
//! only 6 distinct `(generator, params, seed)` tuples, one per workload,
//! shared across the three evaluation conditions.

#![warn(missing_docs)]

pub mod archive;
pub mod feitelson;
pub mod lublin;
pub mod partition;
pub mod registry;
pub mod sequence;
pub mod store;
pub mod swf;
pub mod trace;
pub mod transform;
pub mod tsafrir;
pub mod validate;

pub use archive::ArchivePlatform;
pub use feitelson::FeitelsonModel;
pub use lublin::LublinModel;
pub use partition::TraceSlice;
pub use registry::{ScenarioCalibration, ScenarioFamily, ScenarioParams};
pub use sequence::{extract_sequences, SequenceSpec};
pub use store::{TraceColumns, TraceKey, TraceStore, TraceView};
pub use swf::{
    parse_swf, parse_swf_trace, parse_swf_with_header, read_swf_file, write_swf, write_swf_trace,
    SwfHeader, SwfRecord,
};
pub use trace::{Trace, TraceSource, TraceSummary};
pub use tsafrir::TsafrirEstimates;
pub use validate::{validate_trace, ValidationReport};
