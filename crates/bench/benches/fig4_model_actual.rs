//! Figure 4 (and Table 4 rows 1–2): Lublin-model workloads at 256 and 1024
//! cores, scheduling decisions on **actual runtimes**, no backfilling.
//!
//! Expected shape (paper): F1 < F2 < F3 < F4 ≪ SPT < UNI < WFP < FCFS in
//! median average bounded slowdown; F1 is best because this matches the
//! training configuration exactly.

use dynsched_bench::{banner, regenerate_model_figure};
use dynsched_core::scenarios::Condition;

fn main() {
    banner("Figure 4 / Table 4 rows 1-2: model workload, actual runtimes");
    regenerate_model_figure(Condition::ActualRuntimes);
}
