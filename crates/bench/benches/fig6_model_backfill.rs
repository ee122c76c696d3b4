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
    println!("paper medians: nmax=256: FCFS=842.66 WFP=654.81 UNI=470.72 SPT=623.86 F4=329.49 F3=163.74 F2=45.72 F1=32.82");
    println!("               nmax=1024: FCFS=3018.94 WFP=3792.40 UNI=2804.38 SPT=3024.49 F4=1571.95 F3=1055.82 F2=490.77 F1=223.52");
}
