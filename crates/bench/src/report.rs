//! Figure data the regenerators write under `target/figures/`: the Fig. 3
//! heatmap grids and the boxplot series behind Figs. 4–9.

use dynsched_core::ExperimentResult;
use dynsched_policies::NonlinearFunction;
use std::fmt::Write as _;

/// One panel of the Fig. 3 heatmaps: evaluate `function` on a uniform grid
/// over two of the three variables (the third held fixed) and normalize to
/// `[0, 1]` (the figures' colour scale).
///
/// `x` varies along the inner vector (columns), `y` along the outer
/// (rows). The `fixed` value is used for the remaining variable.
pub fn heatmap_grid(
    function: &NonlinearFunction,
    axes: HeatmapAxes,
    resolution: usize,
) -> Vec<Vec<f64>> {
    assert!(resolution >= 2, "need at least a 2x2 grid");
    let lerp = |(lo, hi): (f64, f64), k: usize| lo + (hi - lo) * k as f64 / (resolution - 1) as f64;
    let mut grid = vec![vec![0.0; resolution]; resolution];
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (row, cells) in grid.iter_mut().enumerate() {
        for (col, cell) in cells.iter_mut().enumerate() {
            let xv = lerp(axes.x_range(), col);
            let yv = lerp(axes.y_range(), row);
            let (r, n, s) = axes.axes_to_rns(xv, yv);
            let v = function.eval(r, n, s);
            lo = lo.min(v);
            hi = hi.max(v);
            *cell = v;
        }
    }
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    for row in &mut grid {
        for v in row.iter_mut() {
            *v = (*v - lo) / span;
        }
    }
    grid
}

/// Axis layout of one Fig. 3 panel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HeatmapAxes {
    /// x = processing time, y = cores, fixed submit time (Fig. 3a).
    RuntimeVsCores {
        /// Range of `r` (seconds).
        r: (f64, f64),
        /// Range of `n` (cores).
        n: (f64, f64),
        /// Fixed `s`.
        s: f64,
    },
    /// x = processing time, y = submit time, fixed cores (Fig. 3b).
    RuntimeVsSubmit {
        /// Range of `r` (seconds).
        r: (f64, f64),
        /// Range of `s` (seconds).
        s: (f64, f64),
        /// Fixed `n`.
        n: f64,
    },
    /// x = cores, y = submit time, fixed processing time (Fig. 3c).
    CoresVsSubmit {
        /// Range of `n` (cores).
        n: (f64, f64),
        /// Range of `s` (seconds).
        s: (f64, f64),
        /// Fixed `r`.
        r: f64,
    },
}

impl HeatmapAxes {
    /// The paper's Fig. 3a panel ranges (r up to 2.7e4 s, n up to 256,
    /// s fixed mid-window).
    pub fn paper_fig3a() -> Self {
        HeatmapAxes::RuntimeVsCores {
            r: (0.0, 2.7e4),
            n: (1.0, 256.0),
            s: 128.0,
        }
    }

    /// The paper's Fig. 3b panel.
    pub fn paper_fig3b() -> Self {
        HeatmapAxes::RuntimeVsSubmit {
            r: (0.0, 2.7e4),
            s: (0.0, 256.0),
            n: 128.0,
        }
    }

    /// The paper's Fig. 3c panel.
    pub fn paper_fig3c() -> Self {
        HeatmapAxes::CoresVsSubmit {
            n: (1.0, 256.0),
            s: (0.0, 256.0),
            r: 1.3e4,
        }
    }

    fn x_range(&self) -> (f64, f64) {
        match *self {
            HeatmapAxes::RuntimeVsCores { r, .. } => r,
            HeatmapAxes::RuntimeVsSubmit { r, .. } => r,
            HeatmapAxes::CoresVsSubmit { n, .. } => n,
        }
    }

    fn y_range(&self) -> (f64, f64) {
        match *self {
            HeatmapAxes::RuntimeVsCores { n, .. } => n,
            HeatmapAxes::RuntimeVsSubmit { s, .. } => s,
            HeatmapAxes::CoresVsSubmit { s, .. } => s,
        }
    }

    fn axes_to_rns(self, x: f64, y: f64) -> (f64, f64, f64) {
        match self {
            HeatmapAxes::RuntimeVsCores { s, .. } => (x, y, s),
            HeatmapAxes::RuntimeVsSubmit { n, .. } => (x, n, y),
            HeatmapAxes::CoresVsSubmit { r, .. } => (r, x, y),
        }
    }
}

/// Render a heatmap grid as CSV (row per line).
pub fn heatmap_csv(grid: &[Vec<f64>]) -> String {
    let mut out = String::new();
    for row in grid {
        let line: Vec<String> = row.iter().map(|v| format!("{v:.6}")).collect();
        let _ = writeln!(out, "{}", line.join(","));
    }
    out
}

/// Render an experiment's boxplot data as CSV — one row per policy with
/// the five-number summary plus mean and outliers (semicolon-separated in
/// the last column).
pub fn boxplot_csv(result: &ExperimentResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "policy,q1,median,q3,whisker_lo,whisker_hi,mean,outliers"
    );
    for o in &result.outcomes {
        let outliers: Vec<String> = o
            .summary
            .outliers
            .iter()
            .map(|x| format!("{x:.4}"))
            .collect();
        let _ = writeln!(
            out,
            "{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{}",
            o.policy,
            o.summary.q1,
            o.summary.median,
            o.summary.q3,
            o.summary.whisker_lo,
            o.summary.whisker_hi,
            o.mean,
            outliers.join(";")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsched_core::PolicyOutcome;
    use dynsched_policies::LearnedPolicy;
    use dynsched_simkit::stats::BoxplotSummary;

    #[test]
    fn heatmap_is_normalized_and_monotone_for_f3() {
        // F3 = r·n + c·log10(s): at fixed s, score grows with r and n.
        let f3 = LearnedPolicy::f3().function().to_owned();
        let grid = heatmap_grid(&f3, HeatmapAxes::paper_fig3a(), 16);
        assert_eq!(grid.len(), 16);
        let flat: Vec<f64> = grid.iter().flatten().copied().collect();
        let min = flat.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = flat.iter().cloned().fold(0.0, f64::max);
        assert!((min - 0.0).abs() < 1e-12 && (max - 1.0).abs() < 1e-12);

        // Monotone along rows and columns.
        for row in &grid {
            for w in row.windows(2) {
                assert!(w[1] >= w[0] - 1e-12);
            }
        }
        for rows in grid.windows(2) {
            for (below, above) in rows[0].iter().zip(&rows[1]) {
                assert!(above >= &(below - 1e-12));
            }
        }
    }

    #[test]
    fn boxplot_csv_lists_every_policy() {
        let outcomes = [("FCFS", 10.0), ("F1", 2.0)]
            .iter()
            .map(|&(name, m)| PolicyOutcome {
                policy: name.to_string(),
                ave_bslds: vec![m],
                summary: BoxplotSummary::from_samples(&[m]).unwrap(),
                median: m,
                mean: m,
                std_dev: 0.0,
                mean_backfilled: 0.0,
                mean_preempted: 0.0,
                mean_abandoned: 0.0,
                mean_lost_core_seconds: 0.0,
            })
            .collect();
        let r = ExperimentResult {
            name: "Workload model, nmax = 256, actual runtimes r".to_string(),
            outcomes,
        };
        let csv = boxplot_csv(&r);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("policy,"));
        assert!(lines[1].starts_with("FCFS,10.0000,10.0000"));
        assert!(lines[2].starts_with("F1,2.0000"));
    }

    #[test]
    fn heatmap_csv_shape() {
        let f1 = LearnedPolicy::f1().function().to_owned();
        let grid = heatmap_grid(&f1, HeatmapAxes::paper_fig3b(), 4);
        let csv = heatmap_csv(&grid);
        assert_eq!(csv.lines().count(), 4);
        assert_eq!(csv.lines().next().unwrap().split(',').count(), 4);
    }
}
