//! Policy scoring throughput: compiled bytecode kernels vs the
//! interpreted `dyn Policy` tree walk.
//!
//! Three measurements, all asserted **bit-identical** across paths before
//! any number is reported:
//!
//! 1. **Queue re-scoring** — the hot kernel of every time-dependent
//!    discipline: re-score a waiting queue at a sweep of rescheduling
//!    times. The interpreted baseline builds a `TaskView` and calls
//!    `Policy::score` per job per event (exactly the engine's
//!    `order_queue` loop); the compiled path evaluates the wait-invariant
//!    prefix once per job and then runs `CompiledPolicy::score_batch`
//!    per event over SoA lanes.
//! 2. **Single-job-delta re-scoring** — the incremental maintenance the
//!    engine runs for uniform-aging residuals when one job arrives per
//!    event: chunked batch re-score + sortedness verify + binary
//!    insert, against the pre-incremental compiled path (scalar residual
//!    loop + full re-sort every event).
//! 3. **End-to-end simulation throughput** — full engine runs under a
//!    learned-family aging policy (time-dependent, the class every
//!    learned `G1..Gk` + aging deployment falls into) and under static
//!    F1, interpreted vs compiled disciplines.
//!
//! Results land in `BENCH_policy_throughput.json` at the repo root,
//! committed + uploaded in CI like the other four throughput benches.

use criterion::{Criterion, Throughput};
use dynsched_bench::{banner, criterion, full_scale};
use dynsched_cluster::Platform;
use dynsched_policies::{
    BatchScratch, CompiledPolicy, ExprPolicy, LearnedPolicy, Policy, ResidualClass, ScoreLanes,
    TaskView,
};
use dynsched_scheduler::{BackfillMode, QueueDiscipline, SchedulerConfig, SimWorkspace};
use dynsched_simkit::Rng;
use dynsched_workload::{LublinModel, Trace, TraceSource};
use std::cmp::Ordering;
use std::hint::black_box;

/// Best-of-`reps` wall time.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut seconds = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        f();
        seconds = seconds.min(t0.elapsed().as_secs_f64());
    }
    seconds
}

fn sequences(count: usize, jobs: usize, cores: u32, seed: u64) -> Vec<Trace> {
    let mut model = LublinModel::new(cores);
    model.daily_cycle = false;
    model.arrival_scale = 0.05;
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|_| model.generate_jobs(jobs, &mut rng))
        .collect()
}

/// The queue under test: SoA lanes of `q` waiting jobs (actual-runtime
/// decision mode) plus the compiled policy's precomputed slot rows.
struct Queue {
    r: Vec<f64>,
    n: Vec<f64>,
    n_u32: Vec<u32>,
    s: Vec<f64>,
    slots: Vec<f64>,
}

impl Queue {
    fn build(trace: &Trace, compiled: &CompiledPolicy) -> Queue {
        let mut queue = Queue {
            r: Vec::new(),
            n: Vec::new(),
            n_u32: Vec::new(),
            s: Vec::new(),
            slots: Vec::new(),
        };
        let mut stack = Vec::new();
        let mut row = vec![0.0; compiled.slot_count()];
        for i in 0..trace.len() {
            queue.r.push(trace.runtime(i));
            queue.n.push(trace.cores(i) as f64);
            queue.n_u32.push(trace.cores(i));
            queue.s.push(trace.submit(i));
            compiled.prefix_into(
                trace.runtime(i),
                trace.cores(i) as f64,
                trace.submit(i),
                &mut row,
                &mut stack,
            );
            queue.slots.extend_from_slice(&row);
        }
        queue
    }

    fn lanes(&self) -> ScoreLanes<'_> {
        self.lanes_head(self.r.len(), self.slots.len() / self.r.len().max(1))
    }

    /// The SoA lanes of the first `q` queued jobs (`k` slots per job).
    fn lanes_head(&self, q: usize, k: usize) -> ScoreLanes<'_> {
        ScoreLanes {
            r: &self.r[..q],
            n: &self.n[..q],
            s: &self.s[..q],
            slots: &self.slots[..q * k],
        }
    }

    /// The interpreted engine loop: one TaskView + vtable call per job.
    fn score_interpreted(&self, policy: &dyn Policy, now: f64, out: &mut [f64]) {
        for (i, out_i) in out.iter_mut().enumerate() {
            *out_i = policy.score(&TaskView {
                processing_time: self.r[i],
                cores: self.n_u32[i],
                submit: self.s[i],
                now,
            });
        }
    }

    /// The pre-incremental compiled engine loop: one scalar residual
    /// evaluation per queued job (prefix slots already materialized).
    fn score_scalar_loop(
        &self,
        cp: &CompiledPolicy,
        q: usize,
        now: f64,
        out: &mut [f64],
        stack: &mut Vec<f64>,
    ) {
        let k = cp.slot_count();
        for (i, out_i) in out[..q].iter_mut().enumerate() {
            let w = (now - self.s[i]).max(0.0);
            *out_i = cp.residual_score(
                self.r[i],
                self.n[i],
                self.s[i],
                w,
                &self.slots[i * k..(i + 1) * k],
                stack,
            );
        }
    }
}

/// The engine's queue-order comparator: score ascending, queue position
/// as tie-break — total and injective, so the sorted permutation of any
/// score vector is unique.
fn order_cmp(scores: &[f64]) -> impl Fn(&usize, &usize) -> Ordering + '_ {
    move |a: &usize, b: &usize| scores[*a].total_cmp(&scores[*b]).then(a.cmp(b))
}

/// Full re-sort of queue positions `0..q` — the pre-incremental order
/// construction (and the fallback the incremental path verifies against).
fn rebuild_order(order: &mut Vec<usize>, scores: &[f64], q: usize) {
    order.clear();
    order.extend(0..q);
    order.sort_unstable_by(order_cmp(scores));
}

/// Incremental maintenance under fresh scores: verify the standing order
/// is still strictly sorted, binary-insert the positions that arrived
/// since, fall back to the full sort on any verify failure — the engine's
/// uniform-aging path.
fn maintain_order(order: &mut Vec<usize>, scores: &[f64], q: usize) {
    let cmp = order_cmp(scores);
    let sorted = order
        .windows(2)
        .all(|p| cmp(&p[0], &p[1]) == Ordering::Less);
    if sorted {
        for p in order.len()..q {
            let at = order.partition_point(|x| cmp(x, &p) == Ordering::Less);
            order.insert(at, p);
        }
    } else {
        drop(cmp);
        rebuild_order(order, scores, q);
    }
}

struct EndToEnd {
    interpreted_secs: f64,
    compiled_secs: f64,
    speedup: f64,
}

/// Time full simulations of every sequence under both disciplines,
/// asserting identical metrics cell by cell.
fn end_to_end(
    policy: &dyn Policy,
    seqs: &[Trace],
    config: &SchedulerConfig,
    reps: usize,
) -> EndToEnd {
    let compiled = policy.compile().expect("built-in policies compile");
    let mut ws = SimWorkspace::new();
    for seq in seqs {
        let a = ws.run_metrics(seq, &QueueDiscipline::Policy(policy), config, 10.0);
        let b = ws.run_metrics(seq, &QueueDiscipline::Compiled(&compiled), config, 10.0);
        assert_eq!(a, b, "{}: compiled simulation diverged", policy.name());
    }
    let interpreted_secs = best_of(reps, || {
        for seq in seqs {
            black_box(ws.run_metrics(seq, &QueueDiscipline::Policy(policy), config, 10.0));
        }
    });
    let compiled_secs = best_of(reps, || {
        for seq in seqs {
            black_box(ws.run_metrics(seq, &QueueDiscipline::Compiled(&compiled), config, 10.0));
        }
    });
    EndToEnd {
        interpreted_secs,
        compiled_secs,
        speedup: interpreted_secs / compiled_secs,
    }
}

fn regenerate() {
    banner("Policy scoring throughput: compiled bytecode vs interpreted tree walk");
    // The aging variant of the paper's F1: the learned static part plus a
    // waiting-time term — the time-dependent class batch scoring targets.
    let aging = ExprPolicy::parse("G1-aging", "log10(r)*n + 8.70e2*log10(s) - 1.5e-2*w").unwrap();
    let compiled = aging.compile().unwrap();

    let queue_size = 512usize;
    let rescores = if full_scale() { 200_000 } else { 20_000 };
    let trace = &sequences(1, queue_size, 256, 11)[0];
    let queue = Queue::build(trace, &compiled);
    let t_last = trace.submit(trace.len() - 1);

    // Bit-identity first: every rescore instant, every job, exact bits.
    let mut interp = vec![0.0; queue_size];
    let mut batch = vec![0.0; queue_size];
    let mut scratch = BatchScratch::new();
    for k in 0..200 {
        let now = t_last + k as f64 * 37.5;
        queue.score_interpreted(&aging, now, &mut interp);
        compiled.score_batch(&mut batch, queue.lanes(), now, &mut scratch);
        for i in 0..queue_size {
            assert_eq!(
                interp[i].to_bits(),
                batch[i].to_bits(),
                "compiled batch diverged from tree walk at rescore {k}, job {i}"
            );
        }
    }

    // Timed: `rescores` full-queue re-scores at distinct instants.
    let tree_secs = best_of(3, || {
        for k in 0..rescores {
            let now = t_last + k as f64;
            queue.score_interpreted(&aging, now, &mut interp);
            black_box(&interp);
        }
    });
    // The compiled total includes rebuilding the prefix lanes (the
    // engine pays that once per run, not per event).
    let batch_secs = best_of(3, || {
        let warm = Queue::build(trace, &compiled);
        for k in 0..rescores {
            let now = t_last + k as f64;
            compiled.score_batch(&mut batch, warm.lanes(), now, &mut scratch);
            black_box(&batch);
        }
    });
    let jobs_scored = (rescores * queue_size) as f64;
    let tree_rate = rescores as f64 / tree_secs;
    let batch_rate = rescores as f64 / batch_secs;
    let kernel_speedup = batch_rate / tree_rate;
    println!(
        "queue re-scoring ({queue_size}-job queue, {rescores} events):\n  \
         tree walk: {tree_secs:.3} s  ({tree_rate:.0} rescores/s, {:.1} M jobs/s)\n  \
         compiled:  {batch_secs:.3} s  ({batch_rate:.0} rescores/s, {:.1} M jobs/s)\n  \
         speedup:   {kernel_speedup:.2}x",
        jobs_scored / tree_secs / 1e6,
        jobs_scored / batch_secs / 1e6,
    );

    // Single-job-delta re-scoring: one arrival per event on a standing
    // queue — the engine's incremental maintenance for uniform-aging
    // residuals (chunked batch re-score + verify + binary insert) against
    // the pre-incremental compiled path (scalar residual loop + full
    // re-sort every event). Orders and score bits must agree per event
    // before anything is timed.
    assert_eq!(compiled.residual_class(), ResidualClass::UniformAging);
    let delta_events = queue_size / 2;
    let q0 = queue_size - delta_events;
    let dt = 13.7;
    let slot_k = compiled.slot_count();
    let mut stack = Vec::new();
    let mut full_out = vec![0.0; queue_size];
    let mut inc_out = vec![0.0; queue_size];
    let mut full_order: Vec<usize> = Vec::new();
    let mut init_order: Vec<usize> = Vec::new();
    compiled.score_batch(
        &mut inc_out[..q0],
        queue.lanes_head(q0, slot_k),
        t_last,
        &mut scratch,
    );
    rebuild_order(&mut init_order, &inc_out, q0);
    let mut inc_order = init_order.clone();
    for e in 0..delta_events {
        let q = q0 + e + 1;
        let now = t_last + (e + 1) as f64 * dt;
        queue.score_scalar_loop(&compiled, q, now, &mut full_out, &mut stack);
        rebuild_order(&mut full_order, &full_out, q);
        compiled.score_batch(
            &mut inc_out[..q],
            queue.lanes_head(q, slot_k),
            now,
            &mut scratch,
        );
        maintain_order(&mut inc_order, &inc_out, q);
        for i in 0..q {
            assert_eq!(
                full_out[i].to_bits(),
                inc_out[i].to_bits(),
                "delta event {e}, job {i}: score bits diverged"
            );
        }
        assert_eq!(full_order, inc_order, "delta event {e}: order diverged");
    }
    let full_delta_secs = best_of(5, || {
        for e in 0..delta_events {
            let q = q0 + e + 1;
            let now = t_last + (e + 1) as f64 * dt;
            queue.score_scalar_loop(&compiled, q, now, &mut full_out, &mut stack);
            rebuild_order(&mut full_order, &full_out, q);
            black_box(&full_order);
        }
    });
    let inc_delta_secs = best_of(5, || {
        inc_order.clear();
        inc_order.extend_from_slice(&init_order);
        for e in 0..delta_events {
            let q = q0 + e + 1;
            let now = t_last + (e + 1) as f64 * dt;
            compiled.score_batch(
                &mut inc_out[..q],
                queue.lanes_head(q, slot_k),
                now,
                &mut scratch,
            );
            maintain_order(&mut inc_order, &inc_out, q);
            black_box(&inc_order);
        }
    });
    let delta_speedup = full_delta_secs / inc_delta_secs;
    println!(
        "single-job-delta re-scoring ({q0}->{queue_size} jobs, {delta_events} events):\n  \
         scalar + full sort:   {full_delta_secs:.5} s  ({:.0} events/s)\n  \
         batch + incremental:  {inc_delta_secs:.5} s  ({:.0} events/s)\n  \
         speedup:   {delta_speedup:.2}x",
        delta_events as f64 / full_delta_secs,
        delta_events as f64 / inc_delta_secs,
    );

    // End-to-end: full simulations, time-dependent aging policy and the
    // static F1 (cached-score path: compiled replaces per-arrival walks).
    let (n_seqs, jobs) = if full_scale() { (10, 1_000) } else { (6, 300) };
    let seqs = sequences(n_seqs, jobs, 64, 23);
    let mut config = SchedulerConfig::actual_runtimes(Platform::new(64));
    config.backfill = BackfillMode::Aggressive;
    let reps = 3;
    let e2e_aging = end_to_end(&aging, &seqs, &config, reps);
    let f1 = LearnedPolicy::f1();
    let e2e_f1 = end_to_end(&f1, &seqs, &config, reps);
    let sims = (n_seqs * reps) as f64 / reps as f64;
    println!(
        "end-to-end ({n_seqs} x {jobs}-job sequences, EASY backfilling):\n  \
         G1-aging: {:.3} s -> {:.3} s  ({:.2}x, {:.1} sims/s compiled)\n  \
         F1:       {:.3} s -> {:.3} s  ({:.2}x, {:.1} sims/s compiled)",
        e2e_aging.interpreted_secs,
        e2e_aging.compiled_secs,
        e2e_aging.speedup,
        sims / e2e_aging.compiled_secs,
        e2e_f1.interpreted_secs,
        e2e_f1.compiled_secs,
        e2e_f1.speedup,
        sims / e2e_f1.compiled_secs,
    );
    assert!(
        kernel_speedup >= 2.0,
        "compiled batch re-scoring must be at least 2x the tree walk (got {kernel_speedup:.2}x)"
    );
    assert!(
        delta_speedup >= 2.0,
        "incremental re-scoring must be at least 2x the full batch path \
         on single-job deltas (got {delta_speedup:.2}x)"
    );

    let json = format!(
        "{{\n  \
           \"bench\": \"policy_throughput\",\n  \
           \"scale\": \"{}\",\n  \
           {}\n  \
           \"policy\": \"log10(r)*n + 8.70e2*log10(s) - 1.5e-2*w\",\n  \
           \"queue_rescoring\": {{\n    \
             \"queue_size\": {queue_size},\n    \
             \"rescore_events\": {rescores},\n    \
             \"tree_walk\": {{ \"seconds\": {tree_secs:.4}, \"rescores_per_sec\": {tree_rate:.1}, \"jobs_per_sec\": {:.0} }},\n    \
             \"compiled_batch\": {{ \"seconds\": {batch_secs:.4}, \"rescores_per_sec\": {batch_rate:.1}, \"jobs_per_sec\": {:.0} }},\n    \
             \"speedup\": {kernel_speedup:.3},\n    \
             \"bit_identical\": true\n  }},\n  \
           \"single_job_delta\": {{\n    \
             \"queue_size_from\": {q0},\n    \
             \"queue_size_to\": {queue_size},\n    \
             \"delta_events\": {delta_events},\n    \
             \"scalar_full_sort\": {{ \"seconds\": {full_delta_secs:.5}, \"events_per_sec\": {:.0} }},\n    \
             \"batch_incremental\": {{ \"seconds\": {inc_delta_secs:.5}, \"events_per_sec\": {:.0} }},\n    \
             \"speedup\": {delta_speedup:.3},\n    \
             \"bit_identical\": true\n  }},\n  \
           \"end_to_end\": {{\n    \
             \"sequences\": {n_seqs},\n    \
             \"jobs_per_sequence\": {jobs},\n    \
             \"aging_policy\": {{ \"interpreted_seconds\": {:.4}, \"compiled_seconds\": {:.4}, \"speedup\": {:.3} }},\n    \
             \"learned_f1\": {{ \"interpreted_seconds\": {:.4}, \"compiled_seconds\": {:.4}, \"speedup\": {:.3} }},\n    \
             \"bit_identical\": true\n  }}\n}}\n",
        if full_scale() { "paper" } else { "reduced" },
        dynsched_bench::host_json(),
        jobs_scored / tree_secs,
        jobs_scored / batch_secs,
        delta_events as f64 / full_delta_secs,
        delta_events as f64 / inc_delta_secs,
        e2e_aging.interpreted_secs,
        e2e_aging.compiled_secs,
        e2e_aging.speedup,
        e2e_f1.interpreted_secs,
        e2e_f1.compiled_secs,
        e2e_f1.speedup,
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_policy_throughput.json"
    );
    match dynsched_simkit::durable::write_atomic(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn bench(c: &mut Criterion) {
    let aging = ExprPolicy::parse("G1-aging", "log10(r)*n + 8.70e2*log10(s) - 1.5e-2*w").unwrap();
    let compiled = aging.compile().unwrap();
    let trace = &sequences(1, 256, 256, 7)[0];
    let queue = Queue::build(trace, &compiled);
    let now = trace.submit(trace.len() - 1) + 100.0;
    let mut out = vec![0.0; 256];
    let mut scratch = BatchScratch::new();

    let mut g = c.benchmark_group("scoring/256_job_queue");
    g.throughput(Throughput::Elements(256));
    g.bench_function("tree_walk", |b| {
        b.iter(|| {
            queue.score_interpreted(&aging, now, &mut out);
            black_box(&out);
        })
    });
    g.bench_function("compiled_batch", |b| {
        b.iter(|| {
            compiled.score_batch(&mut out, queue.lanes(), now, &mut scratch);
            black_box(&out);
        })
    });
    g.finish();

    let seq = &sequences(1, 200, 64, 31)[0];
    let config = SchedulerConfig::actual_runtimes(Platform::new(64));
    let mut ws = SimWorkspace::new();
    c.bench_function("simulate/aging_200_jobs_interpreted", |b| {
        b.iter(|| black_box(ws.run_metrics(seq, &QueueDiscipline::Policy(&aging), &config, 10.0)))
    });
    c.bench_function("simulate/aging_200_jobs_compiled", |b| {
        b.iter(|| {
            black_box(ws.run_metrics(seq, &QueueDiscipline::Compiled(&compiled), &config, 10.0))
        })
    });
}

fn main() {
    regenerate();
    let mut c = criterion();
    bench(&mut c);
    c.final_summary();
}
