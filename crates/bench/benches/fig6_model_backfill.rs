//! Figure 6 (and Table 4 rows 5–6): Lublin-model workloads, user
//! estimates + **aggressive (EASY) backfilling** — the paper's most
//! realistic model setting.
//!
//! Expected shape (paper): backfilling lifts everyone, FCFS (= the EASY
//! algorithm) most of all; the learned policies gain least (their queues
//! are already well ordered) but stay ≥12× better than the best ad-hoc
//! policy in median.

use dynsched_bench::{banner, regenerate_model_figure};
use dynsched_core::scenarios::Condition;

fn main() {
    banner("Figure 6 / Table 4 rows 5-6: model workload, estimates + EASY backfilling");
    regenerate_model_figure(Condition::EstimatesWithBackfilling);
}
