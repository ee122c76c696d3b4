//! The columnar trace store: SoA job columns behind cheap shared handles,
//! interned by generation key.
//!
//! The paper's whole method is "simulate many synthetic workloads", and
//! every layer above the workload crate is batched: the trial engine, the
//! evaluation session, and the learning pipeline all fan cells out over
//! reusable per-worker workspaces. The trace layer is where the remaining
//! redundancy lived — every cell of a session grid cloned or rebuilt an
//! AoS `Vec<Job>`, and a Table-4 run constructed the *same* model trace
//! once per evaluation condition. This module removes both:
//!
//! * [`TraceColumns`] stores a submit-sorted trace as structure-of-arrays
//!   columns (`submit`/`runtime`/`estimate`/`cores`/`id` as dense slices),
//!   so hot loops that read one field per job touch 8-byte lanes instead
//!   of striding through 32-byte `Job` structs;
//! * [`TraceView`] is an `Arc`-shared handle over one [`TraceColumns`]:
//!   cloning a view (to hand a sequence to hundreds of grid cells) is a
//!   reference-count bump, never a job copy;
//! * [`TraceStore`] interns views by [`TraceKey`] — a
//!   `(generator, params, seed)` triple with parameters captured as exact
//!   bit patterns — so every evaluation entry point that names the same
//!   workload tuple shares **one** build.
//!
//! # The interning contract
//!
//! A [`TraceKey`] must encode *every* input that influences the generated
//! jobs: the generator family name, the seed, and each numeric parameter
//! (pushed via [`TraceKey::with_f64`] / [`TraceKey::with_u64`], which
//! store exact bit patterns — two keys are equal iff every parameter is
//! bit-identical, so distinct parameters can never collide into one cache
//! entry). Under that contract, interning is observably pure: a store-hit
//! returns columns bit-identical to what rebuilding would produce, which
//! is why `table4_results_in` and `pipeline::run_full` stay bit-identical to
//! their pre-store behaviour while doing a third of the construction work.
//! Build closures run under the store lock (builds are setup-phase work);
//! a build must not re-enter the same store. Work a builder needs may be
//! done *ahead* of the intern, outside the lock, and handed to it — the
//! Table-4 grid calibrates its workloads on the pool that way — and the
//! question "is this key worth preparing for?" is [`TraceStore::contains`]:
//! it counts nothing, where a lookup that is served from the cache counts
//! a hit.

use crate::trace::{Trace, TraceSource};
use dynsched_cluster::Job;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A submit-sorted trace in structure-of-arrays layout: one dense column
/// per job field. This is the storage format every simulation reads — the
/// engine's arrival cursor walks [`TraceColumns::submits`] and its
/// enqueue/complete paths assemble a [`Job`] from one lane of each column.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceColumns {
    ids: Vec<u32>,
    submit: Vec<f64>,
    runtime: Vec<f64>,
    estimate: Vec<f64>,
    cores: Vec<u32>,
}

impl TraceColumns {
    /// Split an AoS trace into columns. The trace is already
    /// `(submit, id)`-sorted ([`Trace::from_jobs`] guarantees it), so the
    /// columns inherit the canonical order and a simulation over the
    /// columns is bit-identical to one over the job slice.
    pub fn from_trace(trace: &Trace) -> Self {
        let jobs = trace.jobs();
        Self {
            ids: jobs.iter().map(|j| j.id).collect(),
            submit: jobs.iter().map(|j| j.submit).collect(),
            runtime: jobs.iter().map(|j| j.runtime).collect(),
            estimate: jobs.iter().map(|j| j.estimate).collect(),
            cores: jobs.iter().map(|j| j.cores).collect(),
        }
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The dense submit-time column, in canonical trace order.
    pub fn submits(&self) -> &[f64] {
        &self.submit
    }

    /// The dense actual-runtime column.
    pub fn runtimes(&self) -> &[f64] {
        &self.runtime
    }

    /// The dense user-estimate column.
    pub fn estimates(&self) -> &[f64] {
        &self.estimate
    }

    /// The dense requested-cores column.
    pub fn core_counts(&self) -> &[u32] {
        &self.cores
    }

    /// The dense job-id column.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Reassemble the job at trace position `i`.
    pub fn job(&self, i: usize) -> Job {
        Job {
            id: self.ids[i],
            submit: self.submit[i],
            runtime: self.runtime[i],
            estimate: self.estimate[i],
            cores: self.cores[i],
        }
    }

    /// Iterate the jobs in trace order (reassembled per lane).
    pub fn iter_jobs(&self) -> impl Iterator<Item = Job> + '_ {
        (0..self.len()).map(|i| self.job(i))
    }

    /// Submit time of the first job (`None` if empty).
    pub fn start_time(&self) -> Option<f64> {
        self.submit.first().copied()
    }

    /// Submit time of the last job (`None` if empty).
    pub fn end_time(&self) -> Option<f64> {
        self.submit.last().copied()
    }

    /// Materialize an owned AoS [`Trace`] (the inverse of
    /// [`TraceColumns::from_trace`]; used by transformations that rewrite
    /// jobs wholesale, like load rescaling).
    pub fn to_trace(&self) -> Trace {
        Trace::from_jobs(self.iter_jobs().collect())
    }

    /// Summary statistics relative to a platform size (see
    /// [`Trace::summary`]). Setup-phase convenience, not a hot path.
    pub fn summary(&self, platform_cores: u32) -> Option<crate::trace::TraceSummary> {
        self.to_trace().summary(platform_cores)
    }
}

impl TraceSource for TraceColumns {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn id(&self, i: usize) -> u32 {
        self.ids[i]
    }

    fn submit(&self, i: usize) -> f64 {
        self.submit[i]
    }

    fn runtime(&self, i: usize) -> f64 {
        self.runtime[i]
    }

    fn estimate(&self, i: usize) -> f64 {
        self.estimate[i]
    }

    fn cores(&self, i: usize) -> u32 {
        self.cores[i]
    }

    fn job(&self, i: usize) -> Job {
        TraceColumns::job(self, i)
    }
}

/// A cheap shared handle over one [`TraceColumns`]. Cloning bumps a
/// reference count; the columns themselves are immutable once built, so a
/// view can be handed to any number of grid cells (or worker threads)
/// without copying a single job.
#[derive(Debug, Clone)]
pub struct TraceView {
    columns: Arc<TraceColumns>,
}

impl TraceView {
    /// Wrap freshly built columns in a shareable view.
    pub fn new(columns: TraceColumns) -> Self {
        Self {
            columns: Arc::new(columns),
        }
    }

    /// Columnarize an AoS trace into a fresh (uninterned) view.
    pub fn from_trace(trace: &Trace) -> Self {
        Self::new(TraceColumns::from_trace(trace))
    }

    /// The underlying columns.
    pub fn columns(&self) -> &TraceColumns {
        &self.columns
    }

    /// Whether two views share the same underlying storage (the test for
    /// "did the store actually intern this?").
    pub fn shares_storage(&self, other: &TraceView) -> bool {
        Arc::ptr_eq(&self.columns, &other.columns)
    }
}

impl std::ops::Deref for TraceView {
    type Target = TraceColumns;

    fn deref(&self) -> &TraceColumns {
        &self.columns
    }
}

/// Views compare by *content* (same jobs in the same order), not by
/// storage identity: two independently built views of the same workload
/// are equal.
impl PartialEq for TraceView {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.columns, &other.columns) || *self.columns == *other.columns
    }
}

impl TraceSource for TraceView {
    fn len(&self) -> usize {
        self.columns.len()
    }

    fn id(&self, i: usize) -> u32 {
        TraceSource::id(&*self.columns, i)
    }

    fn submit(&self, i: usize) -> f64 {
        TraceSource::submit(&*self.columns, i)
    }

    fn runtime(&self, i: usize) -> f64 {
        TraceSource::runtime(&*self.columns, i)
    }

    fn estimate(&self, i: usize) -> f64 {
        TraceSource::estimate(&*self.columns, i)
    }

    fn cores(&self, i: usize) -> u32 {
        TraceSource::cores(&*self.columns, i)
    }

    fn job(&self, i: usize) -> Job {
        self.columns.job(i)
    }
}

/// Identity of one generated workload: `(generator family, seed, params)`.
///
/// Parameters are stored as exact bit patterns ([`f64::to_bits`] for
/// floats), so key equality is bit equality of every input — the property
/// the intern-key soundness tests pin: distinct parameters can never share
/// a cache entry, and NaN payloads or `-0.0` vs `0.0` differences count as
/// distinct rather than colliding.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceKey {
    family: String,
    seed: u64,
    params: Vec<u64>,
}

impl TraceKey {
    /// A key for `family` under `seed`, with no parameters yet.
    pub fn new(family: impl Into<String>, seed: u64) -> Self {
        Self {
            family: family.into(),
            seed,
            params: Vec::new(),
        }
    }

    /// Append a float parameter (captured as its exact bit pattern).
    pub fn with_f64(mut self, x: f64) -> Self {
        self.params.push(x.to_bits());
        self
    }

    /// Append an integer parameter.
    pub fn with_u64(mut self, x: u64) -> Self {
        self.params.push(x);
        self
    }

    /// The generator family name.
    pub fn family(&self) -> &str {
        &self.family
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// An interning cache of built traces: one entry per distinct
/// [`TraceKey`], each entry a set of columnarized sequences shared via
/// [`TraceView`] handles.
///
/// Sessions, the Table-4 grid, and the full-run pipeline all pass one
/// store through their scenario constructors, so the same
/// `(generator, params, seed)` tuple is built exactly once no matter how
/// many rows, conditions, or entry points name it. The hit/build counters
/// make the sharing observable (and testable) without instrumenting
/// callers.
#[derive(Debug, Default)]
pub struct TraceStore {
    entries: Mutex<HashMap<TraceKey, Arc<[TraceView]>>>,
    builds: AtomicU64,
    hits: AtomicU64,
}

impl TraceStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up `key`; on a miss, run `build` and intern its columnarized
    /// result. Returns cheap handles either way.
    ///
    /// `build` executes under the store lock — it must not re-enter this
    /// store (builds are generator calls, not evaluations, so they have no
    /// reason to).
    pub fn get_or_build_set(
        &self,
        key: TraceKey,
        build: impl FnOnce() -> Vec<Trace>,
    ) -> Arc<[TraceView]> {
        let mut entries = self.entries.lock().expect("trace store poisoned");
        if let Some(views) = entries.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(views);
        }
        self.builds.fetch_add(1, Ordering::Relaxed);
        let views: Arc<[TraceView]> = build().iter().map(TraceView::from_trace).collect();
        entries.insert(key, Arc::clone(&views));
        views
    }

    /// Whether `key` is interned. Counts nothing: neither
    /// [`TraceStore::hits`] nor [`TraceStore::builds`] moves, so a caller
    /// can ask before preparing a build without the question showing up
    /// in the sharing statistics.
    pub fn contains(&self, key: &TraceKey) -> bool {
        let entries = self.entries.lock().expect("trace store poisoned");
        entries.contains_key(key)
    }

    /// Fallible-builder variant of [`TraceStore::get_or_build_set`]: a
    /// builder error propagates and nothing is interned, so a broken
    /// entry can never enter the cache. Same locking contract — `build`
    /// runs under the store lock and must not re-enter this store.
    pub fn get_or_try_build_set<E>(
        &self,
        key: TraceKey,
        build: impl FnOnce() -> Result<Vec<Trace>, E>,
    ) -> Result<Arc<[TraceView]>, E> {
        let mut entries = self.entries.lock().expect("trace store poisoned");
        if let Some(views) = entries.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(views));
        }
        let views: Arc<[TraceView]> = build()?.iter().map(TraceView::from_trace).collect();
        self.builds.fetch_add(1, Ordering::Relaxed);
        entries.insert(key, Arc::clone(&views));
        Ok(views)
    }

    /// Single-trace convenience over [`TraceStore::get_or_build_set`].
    ///
    /// # Panics
    /// Panics if a set entry under the same key does not hold exactly one
    /// trace (a key must always be built the same way).
    pub fn get_or_build(&self, key: TraceKey, build: impl FnOnce() -> Trace) -> TraceView {
        let set = self.get_or_build_set(key, || vec![build()]);
        assert_eq!(
            set.len(),
            1,
            "key interned a {}-trace set, not a single trace",
            set.len()
        );
        set[0].clone()
    }

    /// Number of distinct keys interned so far.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("trace store poisoned").len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many times a `get_or_build*` call actually ran its builder.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// How many times a `get_or_build*` call was served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u32, submit: f64, runtime: f64, cores: u32) -> Job {
        Job::new(id, submit, runtime, runtime * 2.0, cores)
    }

    fn trace(seed: u32) -> Trace {
        Trace::from_jobs(
            (0..20)
                .map(|i| {
                    job(
                        i,
                        (i + seed) as f64 * 3.0,
                        5.0 + (i % 4) as f64,
                        1 + (i + seed) % 5,
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn columns_roundtrip_is_lossless() {
        let t = trace(3);
        let cols = TraceColumns::from_trace(&t);
        assert_eq!(cols.len(), t.len());
        for (i, j) in t.jobs().iter().enumerate() {
            assert_eq!(&cols.job(i), j);
        }
        assert_eq!(cols.to_trace(), t);
    }

    #[test]
    fn column_slices_match_job_fields() {
        let t = trace(1);
        let cols = TraceColumns::from_trace(&t);
        for (i, j) in t.jobs().iter().enumerate() {
            assert_eq!(cols.submits()[i], j.submit);
            assert_eq!(cols.runtimes()[i], j.runtime);
            assert_eq!(cols.estimates()[i], j.estimate);
            assert_eq!(cols.core_counts()[i], j.cores);
            assert_eq!(cols.ids()[i], j.id);
        }
    }

    #[test]
    fn view_clone_shares_storage() {
        let v = TraceView::from_trace(&trace(0));
        let w = v.clone();
        assert!(v.shares_storage(&w));
        assert_eq!(v, w);
        // An independent build of the same jobs is equal but not shared.
        let u = TraceView::from_trace(&trace(0));
        assert!(!v.shares_storage(&u));
        assert_eq!(v, u);
    }

    #[test]
    fn store_builds_each_key_once() {
        let store = TraceStore::new();
        let key = || TraceKey::new("lublin", 7).with_u64(64).with_f64(0.9);
        let a = store.get_or_build(key(), || trace(0));
        let b = store.get_or_build(key(), || panic!("must be served from cache"));
        assert!(a.shares_storage(&b));
        assert_eq!(store.builds(), 1);
        assert_eq!(store.hits(), 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn contains_counts_nothing() {
        let store = TraceStore::new();
        let key = TraceKey::new("lublin", 7).with_u64(64);
        assert!(!store.contains(&key));
        store.get_or_build(key.clone(), || trace(0));
        assert!(store.contains(&key));
        assert!(!store.contains(&TraceKey::new("lublin", 8).with_u64(64)));
        assert_eq!((store.builds(), store.hits()), (1, 0));
    }

    #[test]
    fn distinct_params_never_share_an_entry() {
        let store = TraceStore::new();
        let a = store.get_or_build(TraceKey::new("m", 1).with_f64(0.9), || trace(0));
        let b = store.get_or_build(TraceKey::new("m", 1).with_f64(0.90001), || trace(1));
        let c = store.get_or_build(TraceKey::new("m", 2).with_f64(0.9), || trace(2));
        let d = store.get_or_build(TraceKey::new("n", 1).with_f64(0.9), || trace(3));
        assert!(!a.shares_storage(&b));
        assert!(!a.shares_storage(&c));
        assert!(!a.shares_storage(&d));
        assert_eq!(store.builds(), 4);
        assert_eq!(store.hits(), 0);
    }

    #[test]
    fn zero_and_negative_zero_are_distinct_params() {
        let store = TraceStore::new();
        let a = store.get_or_build(TraceKey::new("m", 1).with_f64(0.0), || trace(0));
        let b = store.get_or_build(TraceKey::new("m", 1).with_f64(-0.0), || trace(1));
        assert!(!a.shares_storage(&b));
        assert_eq!(store.builds(), 2);
    }

    #[test]
    fn failed_builders_intern_nothing() {
        let store = TraceStore::new();
        let key = || TraceKey::new("fallible", 1);
        let err: Result<_, &str> = store.get_or_try_build_set(key(), || Err("sparse trace"));
        assert_eq!(err.unwrap_err(), "sparse trace");
        assert_eq!(store.builds(), 0, "a failed build must not count or intern");
        assert_eq!(store.len(), 0);
        // The same key still builds successfully afterwards, and then hits.
        let ok: Result<_, &str> = store.get_or_try_build_set(key(), || Ok(vec![trace(0)]));
        assert_eq!(ok.unwrap().len(), 1);
        let hit: Result<_, &str> = store.get_or_try_build_set(key(), || unreachable!("cached"));
        assert!(hit.is_ok());
        assert_eq!((store.builds(), store.hits()), (1, 1));
    }

    #[test]
    fn set_interning_shares_every_sequence() {
        let store = TraceStore::new();
        let key = || TraceKey::new("seqs", 5).with_u64(3);
        let a = store.get_or_build_set(key(), || vec![trace(0), trace(1), trace(2)]);
        let b = store.get_or_build_set(key(), || unreachable!("cached"));
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(x.shares_storage(y));
        }
    }

    #[test]
    fn source_accessors_agree_with_jobs() {
        use crate::trace::TraceSource as _;
        let t = trace(2);
        let v = TraceView::from_trace(&t);
        assert_eq!(TraceSource::len(&v), t.len());
        for i in 0..t.len() {
            assert_eq!(v.job(i), t.jobs()[i]);
            assert_eq!(TraceSource::submit(&v, i), t.jobs()[i].submit);
        }
    }
}
