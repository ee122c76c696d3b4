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
    println!("paper medians: nmax=256: FCFS=5846.87 WFP=3630.66 UNI=1799.74 SPT=943.59 F4=583.89 F3=89.93 F2=29.65 F1=29.58");
    println!("               nmax=1024: FCFS=10315.62 WFP=7759.03 UNI=4310.26 SPT=4061.44 F4=1518.73 F3=831.18 F2=244.80 F1=217.13");
}
