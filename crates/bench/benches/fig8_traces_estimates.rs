//! Figure 8 (and Table 4 rows 11–14): archive-trace stand-ins, decisions
//! on **user estimates**.
//!
//! Expected shape (paper): all policies degrade, but F1–F4 keep lower
//! medians and tighter quartiles on every platform; the ad-hoc policies
//! show large outliers that hurt perceived QoS.

use dynsched_bench::{banner, regenerate_archive_figure};
use dynsched_core::scenarios::Condition;

fn main() {
    banner("Figure 8 / Table 4 rows 11-14: archive traces, user estimates");
    regenerate_archive_figure(Condition::UserEstimates);
    println!("paper medians (FCFS/WFP/UNI/SPT/F4/F3/F2/F1):");
    println!("  Curie:     227.67/251.54/135.53/213.03/48.45/24.98/12.47/21.85");
    println!("  Intrepid:  30.04/17.82/11.42/5.44/4.15/3.15/2.57/2.64");
    println!("  SDSC Blue: 299.83/94.87/39.69/36.42/24.26/10.16/9.88/12.14");
    println!("  CTC SP2:   439.72/369.93/98.58/290.39/31.23/21.58/13.78/15.14");
}
