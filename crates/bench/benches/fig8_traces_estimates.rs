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
}
