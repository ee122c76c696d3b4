//! Descriptive statistics used throughout the evaluation harness.
//!
//! The paper reports medians, means, standard deviations and boxplot
//! five-number summaries (median, quartiles, whiskers at 1.5×IQR, outliers)
//! of the average bounded slowdown across experiment repetitions.

/// Arithmetic mean. Returns `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Unbiased sample variance (n-1 denominator). `None` if fewer than 2 points.
pub fn variance(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() as f64 - 1.0))
}

/// Sample standard deviation. `None` if fewer than 2 points.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Population standard deviation (n denominator), as used for the Fig. 2
/// convergence study where the whole repetition set is the population.
pub fn std_dev_population(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let m = mean(xs)?;
    Some((xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt())
}

/// Linear-interpolation quantile (same convention as NumPy's default).
///
/// `q` must lie in `[0, 1]`. Returns `None` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(quantile_sorted(&sorted, q))
}

/// Quantile of an already-sorted slice (ascending). Panics on empty input.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    // Caller contract (documented above): `quantile` and the boxplot check first.
    assert!(!sorted.is_empty());
    let pos = q * (sorted.len() as f64 - 1.0);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median. Returns `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Boxplot summary matching matplotlib's default whisker convention
/// (the one used by the paper's figures): whiskers extend to the most
/// extreme data point within 1.5×IQR of the box; everything beyond is an
/// outlier.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxplotSummary {
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// Lowest observation within `q1 - 1.5*iqr`.
    pub whisker_lo: f64,
    /// Highest observation within `q3 + 1.5*iqr`.
    pub whisker_hi: f64,
    /// Observations outside the whiskers.
    pub outliers: Vec<f64>,
    /// Arithmetic mean of all observations.
    pub mean: f64,
    /// Number of observations.
    pub count: usize,
}

impl BoxplotSummary {
    /// Compute the summary. Returns `None` for an empty slice.
    pub fn from_samples(xs: &[f64]) -> Option<Self> {
        if xs.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        let q1 = quantile_sorted(&sorted, 0.25);
        let med = quantile_sorted(&sorted, 0.5);
        let q3 = quantile_sorted(&sorted, 0.75);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let whisker_lo = sorted
            .iter()
            .copied()
            .find(|&x| x >= lo_fence)
            .unwrap_or(sorted[0]);
        let whisker_hi = sorted
            .iter()
            .rev()
            .copied()
            .find(|&x| x <= hi_fence)
            // Invariant: `xs`, so `sorted`, is non-empty (checked above).
            .unwrap_or(*sorted.last().unwrap());
        let outliers = sorted
            .iter()
            .copied()
            .filter(|&x| x < lo_fence || x > hi_fence)
            .collect();
        Some(Self {
            q1,
            median: med,
            q3,
            whisker_lo,
            whisker_hi,
            outliers,
            // Invariant: `xs` is non-empty (checked above).
            mean: mean(xs).unwrap(),
            count: xs.len(),
        })
    }

    /// Inter-quartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_median_basic() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), Some(2.5));
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    }

    #[test]
    fn empty_inputs_yield_none() {
        assert_eq!(mean(&[]), None);
        assert_eq!(median(&[]), None);
        assert_eq!(std_dev(&[1.0]), None);
        assert!(BoxplotSummary::from_samples(&[]).is_none());
    }

    #[test]
    fn variance_matches_hand_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        // population variance is 4.0; sample variance is 32/7.
        assert!((variance(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev_population(&xs).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&xs, 0.0), Some(10.0));
        assert_eq!(quantile(&xs, 1.0), Some(40.0));
        assert!((quantile(&xs, 0.25).unwrap() - 17.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_rejects_out_of_range_q() {
        assert_eq!(quantile(&[1.0], 1.5), None);
        assert_eq!(quantile(&[1.0], -0.1), None);
    }

    #[test]
    fn boxplot_no_outliers() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = BoxplotSummary::from_samples(&xs).unwrap();
        assert_eq!(b.median, 3.0);
        assert_eq!(b.q1, 2.0);
        assert_eq!(b.q3, 4.0);
        assert_eq!(b.whisker_lo, 1.0);
        assert_eq!(b.whisker_hi, 5.0);
        assert!(b.outliers.is_empty());
        assert_eq!(b.count, 5);
    }

    #[test]
    fn boxplot_detects_outliers() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 100.0];
        let b = BoxplotSummary::from_samples(&xs).unwrap();
        assert_eq!(b.outliers, vec![100.0]);
        assert_eq!(b.whisker_hi, 5.0);
    }
}
