//! Sharded multi-cluster federation: N clusters scheduled concurrently.
//!
//! One submit-sorted trace is **routed** across N clusters by a
//! [`Router`]; each cluster then schedules its routed subsequence with
//! its own engine instance — its own partitioned arrival cursor, event
//! loop, and [`SimWorkspace`] — fanned over the scoped pool
//! ([`run_scoped`]); finally the per-cluster completion streams are
//! **merged** into one deterministic global completion order, on the pool
//! again. This is the "many clusters" scale axis on top of the
//! single-cluster engine, and the workload in the tree that exercises
//! multi-core scaling: `paperbench`'s `federate` workload times whole
//! calls, and its traced run times [`route`], the shards and
//! [`merge_completions`] stand-alone (`scheduler.federation.route_s`,
//! `.shards_busy_s`, `.merge_s`, `.fanout_wall_s`).
//!
//! # Determinism contract
//!
//! * **Routing is sequential and simulation-free.** The routing pass
//!   scans the trace once in submit order; the load-aware routers maintain
//!   a fluid-model load proxy per cluster (committed decision-mode
//!   core-seconds, drained at cluster capacity between arrivals). Every
//!   routing decision depends only on the trace prefix and the spec —
//!   never on simulation outcomes, thread scheduling, or worker count.
//! * **Shards are independent.** A cluster's schedule depends only on its
//!   own routed subsequence and config, so adding clusters (which
//!   re-routes jobs) never changes how a given subsequence schedules —
//!   `federation_bit_identity` pins a k-shard run against k standalone
//!   single-cluster runs of the same slices.
//! * **The merge is a pure function of the shard results.** Per-shard
//!   completion lists are in completion order (nondecreasing finish
//!   time); the k-way merge orders globally by
//!   `(finish time, shard index, within-shard order)` — total and
//!   injective, so the merged order is unique, however it is computed.
//! * **A cut by value is a cut of that order.** [`merge_completions`]
//!   splits the work by finish *value*: for a cut `v`, every record with
//!   `finish < v` (under `total_cmp`) goes left and every other record
//!   right, ties with `v` all together. Whatever is left of the cut
//!   precedes whatever is right of it in the global order — the order's
//!   first key is the finish time — so the records between two
//!   consecutive cuts are a contiguous run of the global order, and, each
//!   list being sorted, a contiguous run of every list (found by
//!   `partition_point`). Its position in the output is the number of
//!   records left of its lower cut. Parts are therefore merged
//!   independently, each straight into its own slice of one output
//!   ([`for_each_part_mut`]), by the same rule as the whole — lowest
//!   finish first, lower shard on ties — and the concatenation *is* the
//!   unique order, at any part count. The cuts are sampled from the
//!   longest list, which only balances the parts; any values give the
//!   same result.
//! * **Sortedness is verified, not assumed.** The partition is only right
//!   on sorted lists, and `partition_point` promises nothing on others.
//!   So every pair of neighbours in every list is compared once — inside
//!   the part that merges it, or at the cut that separates it — and a
//!   single inversion sends the whole input to the serial front scan
//!   (`merge_scan`, the merge as it was first written), which is defined
//!   on any lists: [`merge_completions`] is total, and on sorted lists the
//!   two agree record for record (pinned by this module's tests).
//! * **Fault streams follow the `(master seed, shard index)`
//!   convention.** [`run_federation_faulty`] expands one
//!   [`FaultProfile`] per shard with `stream_index = shard index`, the
//!   same indexed-fork convention the trial driver uses, so thread count
//!   never touches fault randomness.
//!
//! Consequently a federation run is **bit-identical at 1 and n worker
//! threads**, and the **1-shard federation is bit-identical to
//! [`crate::reference`]**: every router degenerates to "route everything
//! to cluster 0", the slice presents the whole trace unchanged, and the
//! single shard runs the ordinary engine (pinned by the
//! `federation_bit_identity` suite).
//!
//! # Routers
//!
//! Every router skips clusters too narrow for the job; what else it reads:
//!
//! * [`Router::RoundRobin`] — trace position modulo shard count. Reads
//!   the job's width and nothing else: no fluid backlog is kept, drained
//!   or committed for it.
//! * [`Router::LeastLoaded`] — the cluster with the smallest estimated
//!   wait (fluid backlog ÷ capacity); ties break to the lower shard.
//!   Reads every cluster's backlog, drained to the job's submit time.
//! * [`Router::LocalityAware`] — each job has a home cluster
//!   (`id % shards`); it stays home unless the home's estimated wait
//!   exceeds the global minimum by more than `spill` seconds. Reads the
//!   same waits, and the job's id.
//! * [`Router::Learned`] — a compiled policy ([`CompiledPolicy`], the
//!   same bytecode the queue disciplines run) scores the job *at each
//!   cluster* with `w` = that cluster's estimated wait; the lowest score
//!   wins. Any learned queue policy doubles as a router this way. Reads
//!   the waits and, per cluster, the job's decision-mode processing time.
//!
//! The three load-aware routers share one pass (`route_by_load`): per
//! job, each cluster's wait is derived once — `(b − cap·dt).max(0.0)`,
//! then `b / cap` — the minimum is picked on integer `total_cmp` keys by
//! strict `<`, and the job's decision-mode core-seconds are committed to
//! the chosen cluster. The loop is bound by that carried chain (commit →
//! drain → divide → arg-min), not by instruction count.

use crate::config::SchedulerConfig;
use crate::engine::{order_key, EngineError, QueueDiscipline, SimWorkspace};
use crate::result::SimulationResult;
use dynsched_cluster::{
    average_bounded_slowdown, AvailabilitySchedule, CompletedJob, FaultProfile,
};
use dynsched_policies::CompiledPolicy;
use dynsched_simkit::parallel::{for_each_part_mut, max_workers, run_scoped};
use dynsched_workload::{TraceSlice, TraceSource};
use std::hint::select_unpredictable;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, Ordering};

/// Cross-cluster routing policy: which cluster a submitted job goes to.
///
/// Routing happens in one sequential pre-pass over the submit-sorted
/// trace (see the module docs); all routers see the same per-cluster
/// *estimated wait* — fluid backlog divided by capacity — as their load
/// signal, and all of them skip clusters too narrow for the job.
#[derive(Debug, Clone, Copy)]
pub enum Router<'a> {
    /// Trace position modulo shard count (next feasible cluster cyclically
    /// if that cluster is too narrow). Load-blind; the baseline.
    RoundRobin,
    /// The feasible cluster with the smallest estimated wait; ties break
    /// to the lower shard index.
    LeastLoaded,
    /// Affinity routing: the job's home cluster is `id % shards`; it
    /// stays home unless the home's estimated wait exceeds the best
    /// feasible cluster's by more than `spill` seconds (0.0 = spill on
    /// any difference; `f64::INFINITY` = never spill).
    LocalityAware {
        /// Extra estimated wait (seconds) tolerated at the home cluster
        /// before the job spills to the least-loaded one.
        spill: f64,
    },
    /// Score the job at every feasible cluster with a compiled policy —
    /// `(r, n, s)` from the job under that cluster's decision mode, `w` =
    /// that cluster's estimated wait — and route to the lowest score
    /// (ties to the lower shard). Reuses the `policies::compile` bytecode,
    /// so every learned queue policy is also a router.
    Learned(&'a CompiledPolicy),
}

/// A federation of clusters: one scheduler config per shard plus the
/// routing policy that distributes arriving jobs among them.
#[derive(Debug, Clone)]
pub struct FederationSpec<'a> {
    /// Per-cluster scheduler configs. `clusters.len()` is the shard
    /// count; capacities may differ (heterogeneous federations route
    /// around narrow clusters via the feasibility rule).
    pub clusters: Vec<SchedulerConfig>,
    /// Cross-cluster routing policy.
    pub router: Router<'a>,
}

impl<'a> FederationSpec<'a> {
    /// A homogeneous federation: `shards` identical clusters.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn uniform(shards: usize, config: SchedulerConfig, router: Router<'a>) -> Self {
        assert!(shards > 0, "a federation needs at least one cluster");
        Self {
            clusters: vec![config; shards],
            router,
        }
    }
}

/// Outcome of the routing pre-pass: the shard of every trace position,
/// both as a dense per-position map and as per-shard position lists
/// (strictly increasing, i.e. valid [`TraceSlice`] inputs).
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingTable {
    /// Shard index per trace position.
    pub shard_of: Vec<u32>,
    /// Trace positions routed to each shard, in trace (= submit) order.
    pub shards: Vec<Vec<u32>>,
}

impl RoutingTable {
    /// Jobs routed to each shard.
    pub fn jobs_per_shard(&self) -> Vec<usize> {
        self.shards.iter().map(Vec::len).collect()
    }

    /// An empty table for `jobs` positions over `shards` clusters, every
    /// shard list sized for an even split: exact for round-robin, and a
    /// skewed shard regrows once or twice instead of seventeen times.
    fn with_capacity(jobs: usize, shards: usize) -> Self {
        Self {
            shard_of: Vec::with_capacity(jobs),
            shards: (0..shards)
                .map(|_| Vec::with_capacity(jobs / shards + 1))
                .collect(),
        }
    }

    /// Route the next trace position to `shard`.
    #[inline]
    fn push(&mut self, shard: usize) {
        self.shards[shard].push(self.shard_of.len() as u32);
        self.shard_of.push(shard as u32);
    }
}

/// Route every job of `trace` to a cluster of `spec` (see the module
/// docs for the determinism contract). Pure and sequential: the result
/// depends only on `(trace, spec)`.
///
/// # Errors
/// [`EngineError::NoClusters`] if `spec` has no clusters, and
/// [`EngineError::JobWiderThanPlatform`] — `platform_cores` being the
/// widest cluster — for the first job in trace order that is wider than
/// every cluster (it could never start anywhere; pre-filter the trace, as
/// with the single-cluster engine).
pub fn try_route<T: TraceSource>(
    trace: &T,
    spec: &FederationSpec<'_>,
) -> Result<RoutingTable, EngineError> {
    let widths: Vec<u32> = spec
        .clusters
        .iter()
        .map(|c| c.platform.total_cores)
        .collect();
    let (Some(&narrowest), Some(&widest)) = (widths.iter().min(), widths.iter().max()) else {
        return Err(EngineError::NoClusters);
    };
    let fit = Widths { widths, narrowest };
    let k = fit.widths.len();
    let routing = match spec.router {
        Router::RoundRobin => route_round_robin(trace, &fit),
        Router::LeastLoaded => route_by_load(trace, spec, &fit, |_, cores, waits| {
            fit.lowest(cores, |c| waits[c])
        }),
        Router::LocalityAware { spill } => route_by_load(trace, spec, &fit, |i, cores, waits| {
            let best = fit.lowest(cores, |c| waits[c])?;
            let home = trace.id(i) as usize % k;
            let stay = fit.widths[home] >= cores && waits[home] <= waits[best] + spill;
            Some(if stay { home } else { best })
        }),
        Router::Learned(cp) => {
            // Scalar-kernel scratch.
            let (mut slot_row, mut stack) = (Vec::new(), Vec::new());
            route_by_load(trace, spec, &fit, |i, cores, waits| {
                fit.lowest(cores, |c| {
                    let r = spec.clusters[c].decision_time(trace.runtime(i), trace.estimate(i));
                    let (n, s) = (cores as f64, trace.submit(i));
                    cp.score_scalar(r, n, s, waits[c], &mut slot_row, &mut stack)
                })
            })
        }
    };
    routing.map_err(|i: usize| EngineError::JobWiderThanPlatform {
        job: trace.id(i),
        cores: trace.cores(i),
        platform_cores: widest,
    })
}

/// Cluster widths, for the feasibility rule every router shares.
struct Widths {
    widths: Vec<u32>,
    narrowest: u32,
}

impl Widths {
    /// The lowest cluster at least `cores` wide at or after `from`. A job
    /// that fits the narrowest cluster fits them all, so the common case
    /// never reads a width.
    #[inline]
    fn first_fit(&self, from: usize, cores: u32) -> Option<usize> {
        if cores <= self.narrowest {
            (from < self.widths.len()).then_some(from)
        } else {
            (from..self.widths.len()).find(|&c| self.widths[c] >= cores)
        }
    }

    /// Arg-min of `value` over the clusters that fit, under `total_cmp`
    /// with the lower shard winning ties: strict `<` on integer keys.
    /// Which cluster is lowest is as good as random from job to job, so
    /// the selection must be conditional moves: as a branch
    /// (`Iterator::min_by_key` compiles to one here) the pass takes 2.5×
    /// as long. `None`: no cluster fits.
    #[inline]
    fn lowest(&self, cores: u32, mut value: impl FnMut(usize) -> f64) -> Option<usize> {
        let mut best = self.first_fit(0, cores)?;
        let mut best_key = order_key(value(best));
        let all_fit = cores <= self.narrowest;
        for c in best + 1..self.widths.len() {
            if all_fit || self.widths[c] >= cores {
                let key = order_key(value(c));
                let lower = key < best_key;
                best = select_unpredictable(lower, c, best);
                best_key = select_unpredictable(lower, key, best_key);
            }
        }
        Some(best)
    }
}

/// The routing pass of the load-blind router: the cluster at trace
/// position modulo the shard count, or the next one cyclically that is
/// wide enough. It reads no backlog, so it keeps none. `Err(position)`
/// when no cluster is wide enough.
fn route_round_robin<T: TraceSource>(trace: &T, fit: &Widths) -> Result<RoutingTable, usize> {
    let k = fit.widths.len();
    let mut routing = RoutingTable::with_capacity(trace.len(), k);
    let mut turn = 0; // position % k, without the division
    for i in 0..trace.len() {
        let cores = trace.cores(i);
        let shard = fit
            .first_fit(turn, cores)
            .or_else(|| fit.first_fit(0, cores));
        routing.push(shard.ok_or(i)?);
        turn = if turn + 1 == k { 0 } else { turn + 1 };
    }
    Ok(routing)
}

/// The routing pass of the load-aware routers: per job, drain the fluid
/// backlogs over the time since the last arrival, derive every cluster's
/// estimated wait once, let `pick(position, cores, waits)` choose, commit
/// the job's work to the chosen cluster. `Err(position)` when `pick`
/// finds no cluster wide enough.
fn route_by_load<T: TraceSource>(
    trace: &T,
    spec: &FederationSpec<'_>,
    fit: &Widths,
    mut pick: impl FnMut(usize, u32, &[f64]) -> Option<usize>,
) -> Result<RoutingTable, usize> {
    let capacity: Vec<f64> = fit.widths.iter().map(|&w| w as f64).collect();
    // Fluid load proxy: committed decision-mode core-seconds per cluster,
    // drained at full capacity between arrivals. A deliberate
    // simplification (a real cluster drains no faster, often slower), but
    // one computable without simulating — routing must never depend on
    // scheduling outcomes, or shards would stop being independent.
    let mut backlog = vec![0.0f64; capacity.len()];
    let mut waits = vec![0.0f64; capacity.len()];
    let mut last_t = 0.0f64;
    let mut routing = RoutingTable::with_capacity(trace.len(), capacity.len());
    for i in 0..trace.len() {
        let t = trace.submit(i);
        let dt = (t - last_t).max(0.0);
        last_t = t;
        for ((b, w), cap) in backlog.iter_mut().zip(&mut waits).zip(&capacity) {
            *b = (*b - cap * dt).max(0.0);
            *w = *b / cap;
        }
        let cores = trace.cores(i);
        let shard = pick(i, cores, &waits).ok_or(i)?;
        routing.push(shard);
        let config = &spec.clusters[shard];
        backlog[shard] += config.decision_time(trace.runtime(i), trace.estimate(i)) * cores as f64;
    }
    Ok(routing)
}

/// Panicking form of [`try_route`], for callers that have already fitted
/// the trace to the federation.
///
/// # Panics
/// Panics if `spec` has no clusters, or if some job is wider than every
/// cluster (it could never start anywhere; pre-filter the trace, as with
/// the single-cluster engine).
pub fn route<T: TraceSource>(trace: &T, spec: &FederationSpec<'_>) -> RoutingTable {
    try_route(trace, spec).unwrap_or_else(|e| match e {
        EngineError::JobWiderThanPlatform { job, cores, .. } => {
            panic!("job {job} requests {cores} cores but no cluster is that wide")
        }
        e => panic!("{e}"),
    })
}

/// Run one shard of a federation: schedule the routed subsequence
/// `positions` of `trace` on `config`'s cluster, optionally under a
/// per-shard fault schedule. This is the per-task kernel of the shard
/// fan-out; callers composing their own fan-outs (the core session-style
/// drivers) hold one [`SimWorkspace`] per worker and call this per cell.
/// The schedule is moved out of `ws` ([`SimWorkspace::take_result`]), not
/// copied: run `ws` again before reading per-job lists from it.
pub fn simulate_shard<T: TraceSource>(
    ws: &mut SimWorkspace,
    trace: &T,
    positions: &[u32],
    discipline: &QueueDiscipline<'_>,
    config: &SchedulerConfig,
    schedule: Option<&AvailabilitySchedule>,
) -> Result<SimulationResult, EngineError> {
    let slice = TraceSlice::new(trace, positions);
    match schedule {
        None => ws.try_run(&slice, discipline, config)?,
        Some(schedule) => ws.run_faulty(&slice, discipline, config, schedule)?,
    }
    Ok(ws.take_result())
}

/// Records below which [`merge_completions`] stays one part on the caller.
/// A second worker costs a scoped thread's spawn and join — tens of
/// microseconds, against which the pool's per-task dispatch
/// (`simkit.parallel.dispatch_us`, ≈ 0.02 µs) is nothing — and saves half
/// of 10–20 ns a merged record: break-even sits near 5 000 records, so
/// the cut-off is several times that, where the gain is already well
/// clear of the cost and of its jitter.
const PARALLEL_MERGE_MIN: usize = 1 << 15;

/// Merge per-shard completion lists into one global completion order:
/// `(finish time, shard index, within-shard order)` — the deterministic
/// cross-shard merge. Each input list is expected in completion order
/// (finish nondecreasing under `total_cmp`), as the engine leaves it; the
/// order is cut by finish value into one part per pool worker and the
/// parts are merged concurrently into one output (module docs). An input
/// that is not sorted gets the same answer from the serial front scan.
pub fn merge_completions(shards: &[SimulationResult]) -> Vec<CompletedJob> {
    let total: usize = shards.iter().map(|r| r.completed.len()).sum();
    let parts = if total < PARALLEL_MERGE_MIN {
        1
    } else {
        max_workers()
    };
    merge_partitioned(shards, parts)
}

/// [`merge_completions`] at a given part count (≥ 1).
fn merge_partitioned(shards: &[SimulationResult], parts: usize) -> Vec<CompletedJob> {
    let lists: Vec<&[CompletedJob]> = shards.iter().map(|r| r.completed.as_slice()).collect();
    let key = |c: &CompletedJob| order_key(c.finish);
    let longest = lists.iter().copied().max_by_key(|l| l.len()).unwrap_or(&[]);
    if longest.is_empty() {
        return Vec::new();
    }
    // `starts[p][s]`: where part `p` begins in list `s`. Part `p > 0`
    // begins at the first record not below the finish time sampled at
    // `p / parts` of the longest list; on sorted lists those positions
    // never decrease, and the clamp keeps them in range on any input.
    let mut starts = vec![vec![0; lists.len()]];
    for p in 1..parts {
        let cut = key(&longest[p * longest.len() / parts]);
        let row = lists
            .iter()
            .zip(&starts[p - 1])
            .map(|(l, &from)| l.partition_point(|c| key(c) < cut).max(from))
            .collect();
        starts.push(row);
    }
    starts.push(lists.iter().map(|l| l.len()).collect());
    // Sortedness is verified pair by pair: a pair of neighbours that a cut
    // separates here, every other pair inside the part that merges it.
    let cuts_sorted = starts[1..parts].iter().all(|row| {
        lists
            .iter()
            .zip(row)
            .all(|(l, &at)| at == 0 || at == l.len() || key(&l[at - 1]) <= key(&l[at]))
    });
    if !cuts_sorted {
        return merge_scan(shards);
    }
    let offsets: Vec<usize> = starts.iter().map(|row| row.iter().sum()).collect();
    let total = offsets[parts];
    let mut out: Vec<CompletedJob> = Vec::with_capacity(total);
    let unsorted = AtomicBool::new(false);
    for_each_part_mut(
        &mut out.spare_capacity_mut()[..total],
        &offsets,
        |p, slots| {
            let runs = lists
                .iter()
                .zip(starts[p].iter().zip(&starts[p + 1]))
                .map(|(l, (&from, &to))| &l[from..to]);
            if !merge_runs(runs, slots) {
                unsorted.store(true, Ordering::Relaxed);
            }
        },
    );
    if unsorted.into_inner() {
        return merge_scan(shards);
    }
    // SAFETY: `for_each_part_mut` returned instead of unwinding, so
    // `merge_runs` ran to completion on every part; each run of it wrote
    // every slot of the sub-slice it was handed (its loop is over the
    // slots), and the sub-slices tile `[..total]`, which is within the
    // capacity reserved above. So the first `total` elements are
    // initialized.
    unsafe { out.set_len(total) };
    out
}

/// Merge `runs` (one per shard, in shard order) into `slots`, which is
/// exactly as long as the runs together. The fronts are the finish times
/// of the lists not yet exhausted, as integer [`order_key`]s in shard
/// order; strict `<` keeps the lower shard on equal finishes. Returns
/// whether every run was nondecreasing — if not, `slots` holds a
/// meaningless interleaving.
fn merge_runs<'a>(
    runs: impl Iterator<Item = &'a [CompletedJob]>,
    slots: &mut [MaybeUninit<CompletedJob>],
) -> bool {
    let mut rest: Vec<&[CompletedJob]> = runs.filter(|r| !r.is_empty()).collect();
    let mut fronts: Vec<i64> = rest.iter().map(|r| order_key(r[0].finish)).collect();
    let mut sorted = true;
    for slot in slots {
        let (best, _) = (fronts.iter().enumerate())
            .min_by_key(|&(_, key)| key)
            .expect("a slot left to fill means a run left to take from");
        let (first, tail) = rest[best]
            .split_first()
            .expect("exhausted runs are removed");
        slot.write(*first);
        match tail.first() {
            Some(next) => {
                let key = order_key(next.finish);
                sorted &= fronts[best] <= key;
                fronts[best] = key;
                rest[best] = tail;
            }
            None => {
                fronts.remove(best);
                rest.remove(best);
            }
        }
    }
    sorted
}

/// The serial k-way front scan [`merge_completions`] used to be, kept
/// verbatim: the answer on an input that is not sorted, and the oracle
/// the partitioned merge is tested against. It orders *any* lists by
/// repeatedly taking the front with the lowest finish, lowest shard first.
fn merge_scan(shards: &[SimulationResult]) -> Vec<CompletedJob> {
    let total: usize = shards.iter().map(|r| r.completed.len()).sum();
    let mut out = Vec::with_capacity(total);
    let mut fronts = vec![0usize; shards.len()];
    for _ in 0..total {
        let mut best: Option<(f64, usize)> = None;
        for (s, r) in shards.iter().enumerate() {
            if let Some(c) = r.completed.get(fronts[s]) {
                // Strict less-than: equal finish times keep the lower
                // shard, making the merge order total and unique.
                if best.is_none_or(|(bf, _)| c.finish.total_cmp(&bf).is_lt()) {
                    best = Some((c.finish, s));
                }
            }
        }
        let (_, s) = best.expect("fronts not exhausted");
        out.push(shards[s].completed[fronts[s]]);
        fronts[s] += 1;
    }
    out
}

/// Outcome of one federated run: the routing decisions, every cluster's
/// own [`SimulationResult`], and the merged global completion order.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationResult {
    /// Shard index per trace position (the routing decisions).
    pub shard_of: Vec<u32>,
    /// Per-cluster simulation results, indexed by shard.
    pub shards: Vec<SimulationResult>,
    /// All completions merged into the deterministic global order
    /// `(finish, shard, within-shard order)`.
    pub completed: Vec<CompletedJob>,
}

impl FederationResult {
    /// Jobs routed to each shard.
    pub fn jobs_per_shard(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.shards.len()];
        for &s in &self.shard_of {
            counts[s as usize] += 1;
        }
        counts
    }

    /// Global average bounded slowdown over all completed jobs (`None`
    /// if nothing completed). Summation follows the merged order, so the
    /// value is as deterministic as the merge.
    pub fn avg_bounded_slowdown(&self, tau: f64) -> Option<f64> {
        average_bounded_slowdown(&self.completed, tau)
    }

    /// Global mean waiting time over completed jobs (`None` if empty).
    pub fn mean_wait(&self) -> Option<f64> {
        if self.completed.is_empty() {
            return None;
        }
        Some(
            self.completed.iter().map(CompletedJob::wait).sum::<f64>()
                / self.completed.len() as f64,
        )
    }

    /// Time the last job anywhere finished.
    pub fn makespan(&self) -> f64 {
        self.shards.iter().map(|r| r.makespan).fold(0.0, f64::max)
    }

    /// Jobs started by backfilling, summed over clusters.
    pub fn backfilled_jobs(&self) -> u64 {
        self.shards.iter().map(|r| r.backfilled_jobs).sum()
    }

    /// Preemptions summed over clusters (zero without fault injection).
    pub fn preempted_jobs(&self) -> u64 {
        self.shards.iter().map(|r| r.preempted_jobs).sum()
    }

    /// Jobs abandoned after exhausting retries, summed over clusters.
    pub fn abandoned_jobs(&self) -> u64 {
        self.shards.iter().map(|r| r.abandoned.len() as u64).sum()
    }

    /// Core-seconds destroyed by preemptions, summed over clusters.
    pub fn lost_core_seconds(&self) -> f64 {
        self.shards.iter().map(|r| r.lost_core_seconds).sum()
    }
}

/// Run a zero-fault federated simulation: route, fan the shards over the
/// scoped pool, merge. Bit-identical at any worker count; with one shard,
/// bit-identical to the single-cluster engine (and therefore to
/// [`crate::reference`]).
///
/// # Errors
/// Those of [`try_route`] and [`SimWorkspace::try_run`], and
/// [`EngineError::FixedOrderFederated`] if `discipline` is
/// [`QueueDiscipline::FixedOrder`] (fixed ranks are indexed by
/// single-trace position and have no cross-shard meaning).
pub fn run_federation<T: TraceSource + Sync>(
    trace: &T,
    spec: &FederationSpec<'_>,
    discipline: &QueueDiscipline<'_>,
) -> Result<FederationResult, EngineError> {
    run_routed(trace, spec, discipline, None)
}

/// Run a federated simulation under deterministic fault injection: one
/// [`AvailabilitySchedule`] is expanded per shard from `profile` with
/// `stream_index = shard index` — the `(master seed, shard index)`
/// stream convention — over that shard's own submission span, so fault
/// randomness is independent of worker count and of the other shards.
///
/// # Errors
/// See [`run_federation`].
pub fn run_federation_faulty<T: TraceSource + Sync>(
    trace: &T,
    spec: &FederationSpec<'_>,
    discipline: &QueueDiscipline<'_>,
    profile: &FaultProfile,
) -> Result<FederationResult, EngineError> {
    run_routed(trace, spec, discipline, Some(profile))
}

/// Shared body of [`run_federation`] / [`run_federation_faulty`]: route,
/// expand the fault schedules if there is a profile, then one task per
/// shard, one reusable [`SimWorkspace`] per worker, results collected in
/// shard order and merged.
fn run_routed<T: TraceSource + Sync>(
    trace: &T,
    spec: &FederationSpec<'_>,
    discipline: &QueueDiscipline<'_>,
    profile: Option<&FaultProfile>,
) -> Result<FederationResult, EngineError> {
    if matches!(discipline, QueueDiscipline::FixedOrder(_)) {
        return Err(EngineError::FixedOrderFederated);
    }
    let routing = try_route(trace, spec)?;
    let schedules: Option<Vec<AvailabilitySchedule>> = profile.map(|profile| {
        routing
            .shards
            .iter()
            .enumerate()
            .map(|(s, positions)| {
                // Sampling window: the shard's own submission span (the
                // expand contract's "natural choice"); outages that
                // straddle it still emit their restore step.
                let horizon = positions.last().map_or(0.0, |&p| trace.submit(p as usize));
                profile.expand(spec.clusters[s].platform.total_cores, horizon, s as u64)
            })
            .collect()
    });
    let shards: Result<Vec<SimulationResult>, EngineError> = run_scoped(
        spec.clusters.len(),
        SimWorkspace::new,
        |s, ws: &mut SimWorkspace| {
            simulate_shard(
                ws,
                trace,
                &routing.shards[s],
                discipline,
                &spec.clusters[s],
                schedules.as_ref().map(|x| &x[s]),
            )
        },
    )
    .into_iter()
    .collect();
    let shards = shards?;
    let completed = merge_completions(&shards);
    Ok(FederationResult {
        shard_of: routing.shard_of,
        shards,
        completed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use dynsched_cluster::{Job, Platform};
    use dynsched_policies::{compile_expr, expr::parse_expr, Fcfs, Policy, Spt};
    use dynsched_simkit::parallel::with_worker_limit;
    use dynsched_simkit::Rng;
    use dynsched_workload::Trace;

    fn config(cores: u32) -> SchedulerConfig {
        SchedulerConfig::actual_runtimes(Platform::new(cores))
    }

    /// A saturating random trace: enough work that backlogs build up.
    fn trace(jobs: usize, max_cores: u32, seed: u64) -> Trace {
        let mut rng = Rng::new(seed);
        Trace::from_jobs(
            (0..jobs)
                .map(|i| {
                    let cores = 1 + (rng.next_u64() % max_cores as u64) as u32;
                    let runtime = 50.0 + (rng.next_u64() % 900) as f64;
                    Job::new(i as u32, i as f64 * 5.0, runtime, runtime * 1.5, cores)
                })
                .collect(),
        )
    }

    #[test]
    fn one_shard_routes_everything_to_zero() {
        let t = trace(50, 8, 1);
        let learned = compile_expr("router", &parse_expr("w + r / n").unwrap());
        for router in [
            Router::RoundRobin,
            Router::LeastLoaded,
            Router::LocalityAware { spill: 10.0 },
            Router::Learned(&learned),
        ] {
            let spec = FederationSpec::uniform(1, config(8), router);
            let routing = route(&t, &spec);
            assert!(routing.shard_of.iter().all(|&s| s == 0));
            assert_eq!(routing.shards[0].len(), t.len());
        }
    }

    #[test]
    fn round_robin_skips_narrow_clusters() {
        let t = Trace::from_jobs(vec![
            Job::new(0, 0.0, 10.0, 10.0, 4), // only cluster 1 fits
            Job::new(1, 1.0, 10.0, 10.0, 1),
            Job::new(2, 2.0, 10.0, 10.0, 4),
        ]);
        let spec = FederationSpec {
            clusters: vec![config(2), config(8)],
            router: Router::RoundRobin,
        };
        let routing = route(&t, &spec);
        assert_eq!(routing.shard_of, vec![1, 1, 1]); // 0→1 (narrow), 1→1, 2→1
    }

    #[test]
    fn least_loaded_balances_identical_clusters() {
        // Jobs submitted at the same instant with equal work must
        // alternate: each routed job raises its cluster's backlog above
        // the other's.
        let t = Trace::from_jobs((0..6).map(|i| Job::new(i, 0.0, 100.0, 100.0, 2)).collect());
        let spec = FederationSpec::uniform(2, config(4), Router::LeastLoaded);
        let routing = route(&t, &spec);
        assert_eq!(routing.shard_of, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn locality_stays_home_until_the_spill_threshold() {
        // Two jobs with home cluster 1 (odd ids), far apart in time so
        // backlogs drain: both stay home under a generous spill.
        let t = Trace::from_jobs(vec![
            Job::new(1, 0.0, 100.0, 100.0, 2),
            Job::new(3, 1_000.0, 100.0, 100.0, 2),
        ]);
        let spec = FederationSpec::uniform(2, config(4), Router::LocalityAware { spill: 1e9 });
        let routing = route(&t, &spec);
        assert_eq!(routing.shard_of, vec![1, 1]);
        // With zero spill tolerance and a loaded home, the second job of
        // an identical burst spills to the idle cluster.
        let burst = Trace::from_jobs(vec![
            Job::new(1, 0.0, 1_000.0, 1_000.0, 4),
            Job::new(3, 0.0, 10.0, 10.0, 1),
        ]);
        let spec = FederationSpec::uniform(2, config(4), Router::LocalityAware { spill: 0.0 });
        let routing = route(&burst, &spec);
        assert_eq!(routing.shard_of, vec![1, 0]);
    }

    #[test]
    fn learned_router_with_wait_term_behaves_like_least_loaded() {
        // Score = w: the estimated wait itself, so the learned router
        // must reproduce least-loaded routing exactly (ties included —
        // both break to the lower shard).
        let t = trace(200, 4, 7);
        let w = compile_expr("w", &parse_expr("w").unwrap());
        let spec_l = FederationSpec::uniform(3, config(8), Router::Learned(&w));
        let spec_ll = FederationSpec::uniform(3, config(8), Router::LeastLoaded);
        assert_eq!(route(&t, &spec_l), route(&t, &spec_ll));
    }

    #[test]
    fn federation_is_worker_count_independent() {
        let t = trace(300, 8, 21);
        let spec = FederationSpec::uniform(4, config(8), Router::LeastLoaded);
        let policy = Spt;
        let discipline = QueueDiscipline::Policy(&policy);
        let wide = run_federation(&t, &spec, &discipline).unwrap();
        let narrow = with_worker_limit(1, || run_federation(&t, &spec, &discipline).unwrap());
        assert_eq!(wide, narrow);
    }

    #[test]
    fn merge_is_globally_finish_ordered_and_complete() {
        let t = trace(300, 8, 33);
        let spec = FederationSpec::uniform(3, config(8), Router::RoundRobin);
        let policy = Fcfs;
        let result = run_federation(&t, &spec, &QueueDiscipline::Policy(&policy)).unwrap();
        assert_eq!(result.completed.len(), t.len());
        assert!(result
            .completed
            .windows(2)
            .all(|w| w[0].finish <= w[1].finish));
        // Every job id appears exactly once.
        let mut ids: Vec<u32> = result.completed.iter().map(|c| c.job.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), t.len());
    }

    #[test]
    fn one_shard_federation_matches_the_plain_engine() {
        let t = trace(250, 8, 5);
        let spec = FederationSpec::uniform(1, config(8), Router::LeastLoaded);
        let policy = Spt;
        let compiled = policy.compile().unwrap();
        let discipline = QueueDiscipline::Compiled(&compiled);
        let fed = run_federation(&t, &spec, &discipline).unwrap();
        let plain = simulate(&t, &discipline, &config(8));
        assert_eq!(fed.shards[0], plain);
        assert_eq!(fed.completed, plain.completed);
    }

    #[test]
    fn faulty_federation_is_deterministic_and_shard_streamed() {
        let t = trace(200, 4, 9);
        let spec = FederationSpec::uniform(2, config(8), Router::LeastLoaded);
        let profile = FaultProfile::failures(2_000.0, 300.0, 2, 0xF00D).with_max_retries(2);
        let policy = Fcfs;
        let discipline = QueueDiscipline::Policy(&policy);
        let a = run_federation_faulty(&t, &spec, &discipline, &profile).unwrap();
        let b = with_worker_limit(1, || {
            run_federation_faulty(&t, &spec, &discipline, &profile).unwrap()
        });
        assert_eq!(a, b);
        // Shards see different fault streams (stream index = shard), so
        // at least one shard's schedule should differ from shard 0's
        // whenever faults fired at all.
        if a.preempted_jobs() > 0 {
            assert!(a.shards.len() == 2);
        }
    }

    #[test]
    fn empty_trace_federates_to_empty_shards() {
        let t = Trace::from_jobs(Vec::new());
        let spec = FederationSpec::uniform(3, config(4), Router::RoundRobin);
        let policy = Fcfs;
        let result = run_federation(&t, &spec, &QueueDiscipline::Policy(&policy)).unwrap();
        assert!(result.completed.is_empty());
        assert_eq!(result.jobs_per_shard(), vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "no cluster is that wide")]
    fn unroutable_job_panics() {
        let t = Trace::from_jobs(vec![Job::new(0, 0.0, 10.0, 10.0, 64)]);
        let spec = FederationSpec::uniform(2, config(8), Router::LeastLoaded);
        let _ = route(&t, &spec);
    }

    #[test]
    fn unschedulable_inputs_are_errors_not_panics() {
        let policy = Fcfs;
        let discipline = QueueDiscipline::Policy(&policy);
        let profile = FaultProfile::failures(2_000.0, 300.0, 2, 0xF00D);
        let both = |t: &Trace, spec: &FederationSpec<'_>, d: &QueueDiscipline<'_>| {
            let plain = run_federation(t, spec, d).unwrap_err();
            assert_eq!(
                run_federation_faulty(t, spec, d, &profile),
                Err(plain.clone())
            );
            plain
        };
        // Job 7 fits no cluster; job 9, wider still, comes later.
        let t = Trace::from_jobs(vec![
            Job::new(5, 0.0, 10.0, 10.0, 16),
            Job::new(7, 1.0, 10.0, 10.0, 17),
            Job::new(9, 2.0, 10.0, 10.0, 64),
        ]);
        for router in [Router::RoundRobin, Router::LeastLoaded] {
            let spec = FederationSpec {
                clusters: vec![config(8), config(16), config(4)],
                router,
            };
            let too_wide = EngineError::JobWiderThanPlatform {
                job: 7,
                cores: 17,
                platform_cores: 16,
            };
            assert_eq!(try_route(&t, &spec), Err(too_wide.clone()));
            assert_eq!(both(&t, &spec, &discipline), too_wide);
        }
        let nowhere = FederationSpec {
            clusters: Vec::new(),
            router: Router::LeastLoaded,
        };
        assert_eq!(try_route(&t, &nowhere), Err(EngineError::NoClusters));
        assert_eq!(both(&t, &nowhere, &discipline), EngineError::NoClusters);
        let ranks = [2, 1, 0];
        let spec = FederationSpec::uniform(2, config(64), Router::RoundRobin);
        assert_eq!(
            both(&t, &spec, &QueueDiscipline::FixedOrder(&ranks)),
            EngineError::FixedOrderFederated
        );
    }

    /// `route` as it was before `try_route` — one loop for every router,
    /// closures that re-read the spec per cluster, the fluid backlog
    /// drained and committed whoever routes, `Option` arg-min under
    /// `total_cmp` — kept verbatim as the oracle of the routing paths.
    fn route_reference<T: TraceSource>(trace: &T, spec: &FederationSpec<'_>) -> RoutingTable {
        let k = spec.clusters.len();
        assert!(k > 0, "a federation needs at least one cluster");
        let n = trace.len();
        let mut shard_of = Vec::with_capacity(n);
        let mut shards: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut backlog = vec![0.0f64; k];
        let mut last_t = 0.0f64;
        let mut slot_row: Vec<f64> = Vec::new();
        let mut stack: Vec<f64> = Vec::new();

        for i in 0..n {
            let t = trace.submit(i);
            let dt = (t - last_t).max(0.0);
            last_t = t;
            for (c, b) in backlog.iter_mut().enumerate() {
                *b = (*b - spec.clusters[c].platform.total_cores as f64 * dt).max(0.0);
            }
            let cores = trace.cores(i);
            let feasible = |c: usize| spec.clusters[c].platform.total_cores >= cores;
            let est_wait = |c: usize, backlog: &[f64]| {
                backlog[c] / spec.clusters[c].platform.total_cores as f64
            };
            let least_loaded = |backlog: &[f64]| {
                let mut best: Option<(f64, usize)> = None;
                for c in 0..k {
                    if !feasible(c) {
                        continue;
                    }
                    let w = est_wait(c, backlog);
                    if best.is_none_or(|(bw, _)| w.total_cmp(&bw).is_lt()) {
                        best = Some((w, c));
                    }
                }
                best
            };
            let chosen = match spec.router {
                Router::RoundRobin => (0..k).map(|o| (i + o) % k).find(|&c| feasible(c)),
                Router::LeastLoaded => least_loaded(&backlog).map(|(_, c)| c),
                Router::LocalityAware { spill } => {
                    let home = trace.id(i) as usize % k;
                    least_loaded(&backlog).map(|(best_wait, best)| {
                        if feasible(home) && est_wait(home, &backlog) <= best_wait + spill {
                            home
                        } else {
                            best
                        }
                    })
                }
                Router::Learned(cp) => {
                    let mut best: Option<(f64, usize)> = None;
                    for c in 0..k {
                        if !feasible(c) {
                            continue;
                        }
                        let config = &spec.clusters[c];
                        let r = config.decision_time(trace.runtime(i), trace.estimate(i));
                        let score = cp.score_scalar(
                            r,
                            cores as f64,
                            t,
                            est_wait(c, &backlog),
                            &mut slot_row,
                            &mut stack,
                        );
                        if best.is_none_or(|(bs, _)| score.total_cmp(&bs).is_lt()) {
                            best = Some((score, c));
                        }
                    }
                    best.map(|(_, c)| c)
                }
            };
            let Some(shard) = chosen else {
                panic!(
                    "job {} requests {cores} cores but no cluster is that wide",
                    trace.id(i)
                );
            };
            shard_of.push(shard as u32);
            shards[shard].push(i as u32);
            let config = &spec.clusters[shard];
            backlog[shard] +=
                config.decision_time(trace.runtime(i), trace.estimate(i)) * cores as f64;
        }
        RoutingTable { shard_of, shards }
    }

    #[test]
    fn every_routing_path_matches_the_preserved_body() {
        let mut rng = Rng::new(0x2007E);
        let by_wait = compile_expr("by-wait", &parse_expr("w + r / n").unwrap());
        let wait_blind = compile_expr("wait-blind", &parse_expr("r * n").unwrap());
        let routers = [
            Router::RoundRobin,
            Router::LeastLoaded,
            Router::LocalityAware { spill: 0.0 },
            Router::LocalityAware { spill: 40.0 },
            Router::LocalityAware {
                spill: f64::INFINITY,
            },
            Router::Learned(&by_wait),
            Router::Learned(&wait_blind),
        ];
        for case in 0..60u64 {
            let k = [1, 2, 3, 5, 11][(case % 5) as usize];
            // Even cases: identical clusters, so waits tie exactly
            // whenever the backlogs do. Odd ones: mixed widths with one
            // 16-wide cluster at a random shard, so some jobs fit only
            // part of the federation, and mixed decision modes.
            let mut clusters: Vec<SchedulerConfig> = (0..k)
                .map(|_| match case % 2 {
                    0 => config(16),
                    _ => {
                        let platform = Platform::new(1 << rng.range_u64(1, 4));
                        match rng.next_u64() % 2 {
                            0 => SchedulerConfig::actual_runtimes(platform),
                            _ => SchedulerConfig::user_estimates(platform),
                        }
                    }
                })
                .collect();
            clusters[(rng.next_u64() % k as u64) as usize] = config(16);
            // Bursts of equal submit times (`dt == 0`), a handful of
            // runtimes and widths (equal work, hence tied backlogs),
            // scattered ids (the locality home), long idle gaps that
            // drain every backlog to exactly zero.
            let jobs = if case == 7 { 0 } else { 150 };
            let mut submit = 0.0;
            let trace = Trace::from_jobs(
                (0..jobs)
                    .map(|_| {
                        submit += match rng.next_u64() % 8 {
                            0..=2 => 0.0,
                            3 => 5_000.0,
                            _ => rng.range_u64(1, 30) as f64,
                        };
                        let runtime = [10.0, 20.0, 50.0, 400.0][(rng.next_u64() % 4) as usize];
                        let cores = 1 << rng.range_u64(0, 4);
                        let id = rng.next_u64() as u32 % 1_000;
                        Job::new(id, submit, runtime, runtime * 2.0, cores)
                    })
                    .collect(),
            );
            for router in routers {
                let spec = FederationSpec {
                    clusters: clusters.clone(),
                    router,
                };
                assert_eq!(
                    try_route(&trace, &spec),
                    Ok(route_reference(&trace, &spec)),
                    "case {case}: {k} shards, {router:?}"
                );
            }
        }
    }

    /// Shard results holding nothing but completion lists with the given
    /// finish times; ids are unique, so `==` on a merged list compares
    /// which record went where, not just the times.
    fn finishing_at(lists: &[Vec<f64>]) -> Vec<SimulationResult> {
        lists
            .iter()
            .enumerate()
            .map(|(s, finishes)| SimulationResult {
                completed: finishes
                    .iter()
                    .enumerate()
                    .map(|(i, &finish)| CompletedJob {
                        job: Job::new((s * 100_000 + i) as u32, 0.0, 1.0, 1.0, 1),
                        start: 0.0,
                        finish,
                    })
                    .collect(),
                makespan: 0.0,
                utilization: 0.0,
                events_processed: 0,
                backfilled_jobs: 0,
                preempted_jobs: 0,
                lost_core_seconds: 0.0,
                abandoned: Vec::new(),
            })
            .collect()
    }

    fn assert_partitioned_equals_scan(lists: &[Vec<f64>], what: &str) {
        let shards = finishing_at(lists);
        let scan = merge_scan(&shards);
        for parts in [1, 2, 3, 7] {
            assert_eq!(
                merge_partitioned(&shards, parts),
                scan,
                "{what}: {parts} parts"
            );
        }
    }

    #[test]
    fn partitioned_merge_matches_the_front_scan() {
        // Hand-made corners first.
        let ties = vec![1.0, 2.0, 2.0, 2.0, 2.0, 3.0];
        for (what, lists) in [
            ("no shards", vec![]),
            ("empty shards only", vec![vec![], vec![]]),
            ("one shard", vec![vec![0.5, 0.5, 1.0, 4.0, 4.0, 9.0]]),
            ("one record", vec![vec![], vec![3.0], vec![]]),
            (
                "fewer records than parts",
                vec![vec![2.0], vec![1.0, 2.0], vec![]],
            ),
            (
                "all finishes equal",
                vec![vec![5.0; 9], vec![5.0; 4], vec![5.0; 6]],
            ),
            (
                // At 2 parts the cut is the longest list's 2.0: every
                // list's run of 2.0s must go right of it, together.
                "cut value equal to a run of ties",
                vec![vec![2.0, 2.0], ties.clone(), vec![0.0, 2.0, 2.0, 5.0], ties],
            ),
            (
                "total_cmp separates the zeros",
                vec![vec![-0.0, 0.0, 0.0], vec![0.0], vec![-1.0, -0.0, -0.0]],
            ),
        ] {
            assert_partitioned_equals_scan(&lists, what);
        }
        // Random lists over a narrow range of integer finishes: ties
        // across shards and inside a shard everywhere, empty shards,
        // range 1 = all equal.
        let mut rng = Rng::new(0x3E26E);
        for case in 0..300u64 {
            let range = [1, 3, 50][(case % 3) as usize];
            let lists: Vec<Vec<f64>> = (0..rng.range_u64(1, 9))
                .map(|_| {
                    let len = rng.next_u64() % 4 * (rng.next_u64() % 20);
                    let mut list: Vec<f64> =
                        (0..len).map(|_| (rng.next_u64() % range) as f64).collect();
                    list.sort_by(f64::total_cmp);
                    list
                })
                .collect();
            assert_partitioned_equals_scan(&lists, &format!("random case {case}"));
        }
    }

    #[test]
    fn unsorted_lists_fall_back_to_the_front_scan() {
        // The front scan is defined on any input; the partition is not,
        // so it must notice — whether the inversion falls inside a part
        // or across a cut — and hand over.
        let mut rng = Rng::new(0x0DD);
        for case in 0..200u64 {
            let mut lists: Vec<Vec<f64>> = (0..rng.range_u64(1, 6))
                .map(|_| {
                    let mut list: Vec<f64> = (0..rng.range_u64(2, 30))
                        .map(|_| (rng.next_u64() % 40) as f64)
                        .collect();
                    list.sort_by(f64::total_cmp);
                    list
                })
                .collect();
            // Break one list: swap two unequal elements (or, with every
            // element equal, plant a lower finish at the end).
            let victim = (rng.next_u64() % lists.len() as u64) as usize;
            let list = &mut lists[victim];
            let (a, b) = (
                (rng.next_u64() % list.len() as u64) as usize,
                (rng.next_u64() % list.len() as u64) as usize,
            );
            if list[a] != list[b] {
                list.swap(a, b);
            } else {
                *list.last_mut().unwrap() = -1.0;
            }
            assert!(list.windows(2).any(|w| w[0] > w[1]), "case {case}");
            assert_partitioned_equals_scan(&lists, &format!("unsorted case {case}"));
        }
    }

    #[test]
    fn merge_is_worker_count_independent_above_the_cut_off() {
        let mut rng = Rng::new(0x5CA1E);
        let lists: Vec<Vec<f64>> = [12_000, 0, 9_000, 15_000]
            .iter()
            .map(|&len| {
                let mut t = 0.0;
                (0..len)
                    .map(|_| {
                        t += (rng.next_u64() % 3) as f64;
                        t
                    })
                    .collect()
            })
            .collect();
        let shards = finishing_at(&lists);
        let scan = merge_scan(&shards);
        assert!(scan.len() >= PARALLEL_MERGE_MIN);
        for workers in [1, 2, 3] {
            assert_eq!(
                with_worker_limit(workers, || merge_completions(&shards)),
                scan,
                "{workers} workers"
            );
        }
    }
}
