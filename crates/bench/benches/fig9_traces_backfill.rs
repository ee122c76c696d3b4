//! Figure 9 (and Table 4 rows 15–18): archive-trace stand-ins, user
//! estimates + **aggressive backfilling** — the most realistic setting.
//!
//! Expected shape (paper): EASY (FCFS + backfilling) gains the most; the
//! learned policies gain little but remain the better general choice in
//! median and/or quartile spread on most platforms.

use dynsched_bench::{banner, regenerate_archive_figure};
use dynsched_core::scenarios::Condition;

fn main() {
    banner("Figure 9 / Table 4 rows 15-18: archive traces, estimates + EASY backfilling");
    regenerate_archive_figure(Condition::EstimatesWithBackfilling);
    println!("paper medians (FCFS/WFP/UNI/SPT/F4/F3/F2/F1):");
    println!("  Curie:     59.03/49.23/24.35/35.72/24.54/23.91/18.69/21.73");
    println!("  Intrepid:  8.56/6.00/4.01/3.70/3.52/2.87/2.54/2.64");
    println!("  SDSC Blue: 36.40/17.76/13.07/10.20/9.37/10.18/9.66/11.97");
    println!("  CTC SP2:   74.96/54.32/24.06/17.32/14.12/14.40/10.77/14.07");
}
