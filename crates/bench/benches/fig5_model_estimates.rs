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
    println!("paper medians: nmax=256: FCFS=5846.87 WFP=6021.69 UNI=3561.56 SPT=4415.27 F4=719.88 F3=405.68 F2=207.05 F1=33.03");
    println!("               nmax=1024: FCFS=10315.62 WFP=9713.40 UNI=5930.50 SPT=7573.58 F4=2605.45 F3=2065.47 F2=1292.64 F1=249.80");
}
