//! Generation of the `(S, Q)` task tuples of the simulation scheme (§3.2).
//!
//! Each tuple has a warmup set `S` (|S| = 16) whose tasks all arrive at the
//! tuple's start instant and are "executed in any order at the beginning of
//! the simulation", putting the cluster into a realistic busy state, and a
//! probe set `Q` (|Q| = 32) whose tasks arrive afterwards via the model's
//! arrival process. Only the tasks of `Q` are scored.
//!
//! Tuples start at a random offset into the arrival timeline (the
//! artifact's training CSVs show submit times around 88 000 s ≈ one day),
//! so the pooled training set covers a wide range of `s` values — exactly
//! what gives the fitted `log10(s)` term its meaning.

use dynsched_cluster::{Job, JobId};
use dynsched_simkit::Rng;
use dynsched_workload::LublinModel;

/// Parameters of tuple generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TupleSpec {
    /// Size of the warmup set `S` (paper: 16).
    pub s_size: usize,
    /// Size of the probe set `Q` (paper: 32).
    pub q_size: usize,
    /// Latest start offset (seconds) for a tuple's timeline; offsets are
    /// drawn uniformly from `[0, max_start_offset]`.
    pub max_start_offset: f64,
}

impl Default for TupleSpec {
    fn default() -> Self {
        Self {
            s_size: 16,
            q_size: 32,
            max_start_offset: 172_800.0,
        }
    }
}

/// One `(S, Q)` tuple. Ids are assigned `0..s_size` to `S` and
/// `s_size..s_size+q_size` to `Q`, so id membership is trivially checkable.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskTuple {
    /// Warmup tasks, all submitted at the tuple's start instant.
    pub s_tasks: Vec<Job>,
    /// Probe tasks, arriving afterwards.
    pub q_tasks: Vec<Job>,
}

impl TaskTuple {
    /// Generate one tuple from the workload model.
    pub fn generate(spec: &TupleSpec, model: &LublinModel, rng: &mut Rng) -> Self {
        let start = rng.range_f64(0.0, spec.max_start_offset.max(f64::MIN_POSITIVE));
        let mut s_tasks = Vec::with_capacity(spec.s_size);
        for i in 0..spec.s_size {
            let (runtime, cores) = model.sample_shape(rng);
            s_tasks.push(Job::new(i as JobId, start, runtime, runtime, cores));
        }
        // Q arrives after all of S: walk the arrival process forward.
        let mut q_tasks = Vec::with_capacity(spec.q_size);
        let mut now = start;
        for i in 0..spec.q_size {
            now += model.sample_raw_gap(rng);
            let (runtime, cores) = model.sample_shape(rng);
            q_tasks.push(Job::new(
                (spec.s_size + i) as JobId,
                now,
                runtime,
                runtime,
                cores,
            ));
        }
        Self { s_tasks, q_tasks }
    }

    /// All tasks (S then Q), for handing to the simulator.
    pub fn all_jobs(&self) -> Vec<Job> {
        let mut v = Vec::with_capacity(self.s_tasks.len() + self.q_tasks.len());
        v.extend_from_slice(&self.s_tasks);
        v.extend_from_slice(&self.q_tasks);
        v
    }

    /// Whether `id` belongs to the probe set `Q`.
    pub fn is_q_task(&self, id: JobId) -> bool {
        (id as usize) >= self.s_tasks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> LublinModel {
        LublinModel::new(256)
    }

    #[test]
    fn sizes_match_spec() {
        let mut rng = Rng::new(1);
        let t = TaskTuple::generate(&TupleSpec::default(), &model(), &mut rng);
        assert_eq!(t.s_tasks.len(), 16);
        assert_eq!(t.q_tasks.len(), 32);
        assert_eq!(t.all_jobs().len(), 48);
    }

    #[test]
    fn s_tasks_arrive_together_before_q() {
        let mut rng = Rng::new(2);
        let t = TaskTuple::generate(&TupleSpec::default(), &model(), &mut rng);
        let s0 = t.s_tasks[0].submit;
        for s in &t.s_tasks {
            assert_eq!(s.submit, s0);
        }
        for q in &t.q_tasks {
            assert!(q.submit > s0, "Q must arrive after S");
        }
        // Q arrivals are non-decreasing.
        for w in t.q_tasks.windows(2) {
            assert!(w[1].submit >= w[0].submit);
        }
    }

    #[test]
    fn ids_partition_s_and_q() {
        let mut rng = Rng::new(3);
        let t = TaskTuple::generate(&TupleSpec::default(), &model(), &mut rng);
        for s in &t.s_tasks {
            assert!(!t.is_q_task(s.id));
        }
        for q in &t.q_tasks {
            assert!(t.is_q_task(q.id));
        }
    }

    #[test]
    fn tuples_vary_in_start_offset() {
        let mut rng = Rng::new(4);
        let spec = TupleSpec::default();
        let m = model();
        let starts: Vec<f64> = (0..20)
            .map(|_| TaskTuple::generate(&spec, &m, &mut rng).s_tasks[0].submit)
            .collect();
        let min = starts.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = starts.iter().cloned().fold(0.0, f64::max);
        assert!(max - min > 10_000.0, "offsets should spread: {min}..{max}");
    }

    #[test]
    fn generation_is_deterministic() {
        let m = model();
        let a = TaskTuple::generate(&TupleSpec::default(), &m, &mut Rng::new(9));
        let b = TaskTuple::generate(&TupleSpec::default(), &m, &mut Rng::new(9));
        assert_eq!(a, b);
    }
}
