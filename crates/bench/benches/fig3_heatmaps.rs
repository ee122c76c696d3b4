//! Figure 3: dependency of the learned policies F1–F4 on (r, n), (r, s)
//! and (n, s) — normalized score heatmaps.
//!
//! Writes each panel as a CSV grid under `target/figures/` and prints a
//! coarse ASCII rendering plus the monotonicity reading the paper makes
//! (earlier arrivals darker; smaller tasks darker at fixed arrival).

use dynsched_bench::banner;
use dynsched_bench::report::{heatmap_csv, heatmap_grid, HeatmapAxes};
use dynsched_policies::LearnedPolicy;

const SHADES: [char; 5] = ['█', '▓', '▒', '░', ' '];

fn ascii(grid: &[Vec<f64>]) -> String {
    // Low score = high priority = dark (the paper's colour scale).
    let mut out = String::new();
    for row in grid.iter().rev() {
        for &v in row {
            let idx = ((v * (SHADES.len() as f64 - 1.0)).round() as usize).min(SHADES.len() - 1);
            out.push(SHADES[idx]);
        }
        out.push('\n');
    }
    out
}

fn main() {
    banner("Figure 3: policy heatmaps (dark = high priority)");
    let out_dir = std::path::Path::new("target/figures");
    std::fs::create_dir_all(out_dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", out_dir.display()));
    let panels = [
        (
            "a_runtime_vs_cores",
            HeatmapAxes::paper_fig3a(),
            "x: r (0..2.7e4 s), y: n (1..256)",
        ),
        (
            "b_runtime_vs_submit",
            HeatmapAxes::paper_fig3b(),
            "x: r (0..2.7e4 s), y: s (0..256 s)",
        ),
        (
            "c_cores_vs_submit",
            HeatmapAxes::paper_fig3c(),
            "x: n (1..256), y: s (0..256 s)",
        ),
    ];
    for policy in LearnedPolicy::table3() {
        use dynsched_policies::Policy as _;
        for (tag, axes, legend) in panels {
            let grid = heatmap_grid(policy.function(), axes, 32);
            let path = out_dir.join(format!("fig3{}_{}.csv", tag, policy.name()));
            dynsched_simkit::durable::write_atomic(&path, heatmap_csv(&grid))
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            if tag.starts_with("b_") {
                // Print only panel (b) as ASCII: it shows the dominant
                // log10(s) dependency that distinguishes the F-policies.
                println!("{} panel (b) — {legend}", policy.name());
                print!("{}", ascii(&heatmap_grid(policy.function(), axes, 24)));
                println!();
            }
        }
    }
    println!("CSV grids for all 4 policies x 3 panels written to target/figures/");
    println!("reading: rows darken toward small s (earlier arrivals prioritized);");
    println!("within a row, scores rise with r and n (smaller tasks favoured).");
}
