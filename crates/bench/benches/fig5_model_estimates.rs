//! Figure 5 (and Table 4 rows 3–4): Lublin-model workloads, scheduling
//! decisions on **user estimates** (Tsafrir model), no backfilling.
//!
//! Expected shape (paper): every estimate-using policy degrades vs Fig. 4
//! (FCFS is unchanged — it ignores processing times), but F1–F4 remain
//! 4.9–108× better than the best ad-hoc policy at 256 cores.

use dynsched_bench::{banner, regenerate_model_figure};
use dynsched_core::scenarios::Condition;

fn main() {
    banner("Figure 5 / Table 4 rows 3-4: model workload, user estimates");
    regenerate_model_figure(Condition::UserEstimates);
}
