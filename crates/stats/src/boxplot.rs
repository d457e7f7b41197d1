//! Box-plot statistics (Figs. 5 and 16 of the paper).
//!
//! "The center line shows the median and the top and bottom of the box
//! show the 25th percentile and the 75th percentile" (Sec. VI). Whiskers
//! follow the Matplotlib/Tukey convention: last observation within
//! 1.5 × IQR of the box.

use crate::descriptive::percentile_of_sorted;
use crate::error::{ensure_sample, StatsError};

/// Five-number box-plot summary with Tukey whiskers and outliers.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), sc_stats::StatsError> {
/// use sc_stats::BoxStats;
///
/// // SM utilization of IDE jobs: almost all zero (Fig. 16).
/// let b = BoxStats::from_sample(&[0.0, 0.0, 0.0, 0.0, 2.0, 95.0])?;
/// assert_eq!(b.median, 0.0);
/// assert_eq!(b.outliers, vec![95.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BoxStats {
    /// Number of observations.
    pub count: usize,
    /// Lower whisker: smallest observation `>= q1 - 1.5 * IQR`.
    pub whisker_low: f64,
    /// 25th percentile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
    /// Upper whisker: largest observation `<= q3 + 1.5 * IQR`.
    pub whisker_high: f64,
    /// Observations outside the whiskers, sorted ascending.
    pub outliers: Vec<f64>,
}

impl BoxStats {
    /// Computes box-plot statistics for a sample.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] or [`StatsError::NonFinite`] on
    /// invalid input.
    pub fn from_sample(data: &[f64]) -> Result<Self, StatsError> {
        ensure_sample(data)?;
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("values validated finite"));
        let q1 = percentile_of_sorted(&sorted, 25.0);
        let median = percentile_of_sorted(&sorted, 50.0);
        let q3 = percentile_of_sorted(&sorted, 75.0);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        // Whiskers follow Matplotlib: the last observation inside the
        // fence, but never retreating inside the box — if every point
        // beyond a quartile is an outlier, the whisker collapses onto
        // the box edge (interpolated quartiles need not be data points).
        let whisker_low =
            sorted.iter().copied().find(|v| *v >= lo_fence).unwrap_or(sorted[0]).min(q1);
        let whisker_high = sorted
            .iter()
            .rev()
            .copied()
            .find(|v| *v <= hi_fence)
            .unwrap_or(*sorted.last().expect("non-empty"))
            .max(q3);
        let outliers = sorted.iter().copied().filter(|v| *v < lo_fence || *v > hi_fence).collect();
        Ok(BoxStats { count: sorted.len(), whisker_low, q1, median, q3, whisker_high, outliers })
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Renders a one-line textual representation, e.g. for figure tables:
    /// `|-[ 10.0 {21.0} 45.0 ]-| (n=1234, 7 outliers)`.
    pub fn render(&self) -> String {
        format!(
            "{:.1} |-[ {:.1} {{{:.1}}} {:.1} ]-| {:.1} (n={}, {} outliers)",
            self.whisker_low,
            self.q1,
            self.median,
            self.q3,
            self.whisker_high,
            self.count,
            self.outliers.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ordering_invariant_holds() {
        let b = BoxStats::from_sample(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]).unwrap();
        assert!(b.whisker_low <= b.q1);
        assert!(b.q1 <= b.median);
        assert!(b.median <= b.q3);
        assert!(b.q3 <= b.whisker_high);
        assert!(b.outliers.is_empty());
    }

    #[test]
    fn detects_high_outlier() {
        let b = BoxStats::from_sample(&[1.0, 2.0, 3.0, 4.0, 100.0]).unwrap();
        assert_eq!(b.outliers, vec![100.0]);
        assert!(b.whisker_high <= 4.0);
    }

    #[test]
    fn detects_low_outlier() {
        let b = BoxStats::from_sample(&[-100.0, 10.0, 11.0, 12.0, 13.0]).unwrap();
        assert_eq!(b.outliers, vec![-100.0]);
        assert!(b.whisker_low >= 10.0);
    }

    #[test]
    fn constant_sample_degenerates_cleanly() {
        let b = BoxStats::from_sample(&[5.0; 10]).unwrap();
        assert_eq!(b.q1, 5.0);
        assert_eq!(b.median, 5.0);
        assert_eq!(b.q3, 5.0);
        assert_eq!(b.whisker_low, 5.0);
        assert_eq!(b.whisker_high, 5.0);
        assert!(b.outliers.is_empty());
    }

    #[test]
    fn render_is_nonempty_and_contains_median() {
        let b = BoxStats::from_sample(&[0.0, 21.0, 42.0]).unwrap();
        let r = b.render();
        assert!(r.contains("{21.0}"));
    }

    proptest! {
        #[test]
        fn prop_box_ordering(data in proptest::collection::vec(-1e5..1e5f64, 1..300)) {
            let b = BoxStats::from_sample(&data).unwrap();
            prop_assert!(b.whisker_low <= b.q1 + 1e-9);
            prop_assert!(b.q1 <= b.median + 1e-9);
            prop_assert!(b.median <= b.q3 + 1e-9);
            prop_assert!(b.q3 <= b.whisker_high + 1e-9);
        }

        #[test]
        fn prop_outliers_plus_inliers_cover_sample(data in proptest::collection::vec(-1e5..1e5f64, 1..300)) {
            let b = BoxStats::from_sample(&data).unwrap();
            let inliers = data.iter().filter(|v| **v >= b.whisker_low && **v <= b.whisker_high).count();
            prop_assert_eq!(inliers + b.outliers.len(), data.len());
        }
    }
}
