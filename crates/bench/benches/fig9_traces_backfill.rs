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
}
