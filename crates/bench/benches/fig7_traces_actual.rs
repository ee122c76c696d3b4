//! Figure 7 (and Table 4 rows 7–10): archive-trace stand-ins (Curie, ANL
//! Intrepid, SDSC Blue, CTC SP2), decisions on **actual runtimes**.
//!
//! Expected shape (paper): all F's beat all ad-hoc policies with tighter
//! inter-quartile ranges; the best F varies by platform (F2 on Curie,
//! SDSC Blue and CTC SP2; F3 on ANL Intrepid).

use dynsched_bench::{banner, regenerate_archive_figure};
use dynsched_core::scenarios::Condition;

fn main() {
    banner("Figure 7 / Table 4 rows 7-10: archive traces, actual runtimes");
    regenerate_archive_figure(Condition::ActualRuntimes);
    println!("paper medians (FCFS/WFP/UNI/SPT/F4/F3/F2/F1):");
    println!("  Curie:     227.67/182.95/93.76/132.59/20.25/10.66/3.58/10.38");
    println!("  Intrepid:  30.04/11.78/6.03/3.34/1.94/1.71/1.87/2.14");
    println!("  SDSC Blue: 299.83/44.40/20.37/21.77/14.33/10.38/4.31/10.22");
    println!("  CTC SP2:   439.72/309.72/29.87/87.55/19.02/14.06/5.32/10.27");
}
