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
}
