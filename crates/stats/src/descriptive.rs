//! Descriptive statistics: mean, standard deviation, percentiles, and the
//! coefficient of variation that the paper leans on throughout Secs. III–V.

use crate::error::{ensure_sample, StatsError};

/// Arithmetic mean of a sample.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for an empty slice and
/// [`StatsError::NonFinite`] if any value is NaN or infinite.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), sc_stats::StatsError> {
/// let m = sc_stats::mean(&[1.0, 2.0, 3.0])?;
/// assert_eq!(m, 2.0);
/// # Ok(())
/// # }
/// ```
pub fn mean(data: &[f64]) -> Result<f64, StatsError> {
    ensure_sample(data)?;
    Ok(data.iter().sum::<f64>() / data.len() as f64)
}

/// Population standard deviation (divides by `n`, matching NumPy's
/// `std(ddof=0)` which the paper's analysis stack defaults to).
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] or [`StatsError::NonFinite`] on
/// invalid input.
pub fn std_dev(data: &[f64]) -> Result<f64, StatsError> {
    let m = mean(data)?;
    let var = data.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / data.len() as f64;
    Ok(var.sqrt())
}

/// Coefficient of variation expressed **as a percentage** of the mean,
/// matching the paper's convention ("the median CoV of job run time of a
/// user is 155%", Sec. IV).
///
/// A sample whose mean is zero has an undefined CoV; by the paper's usage
/// (all-idle jobs have zero utilization everywhere) this function returns
/// `0.0` in that case rather than an error, because a constant-zero series
/// genuinely has no variability.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] or [`StatsError::NonFinite`] on
/// invalid input.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), sc_stats::StatsError> {
/// let cov = sc_stats::coefficient_of_variation(&[10.0, 10.0, 10.0])?;
/// assert_eq!(cov, 0.0);
/// let cov = sc_stats::coefficient_of_variation(&[0.0, 20.0])?;
/// assert_eq!(cov, 100.0);
/// # Ok(())
/// # }
/// ```
pub fn coefficient_of_variation(data: &[f64]) -> Result<f64, StatsError> {
    let m = mean(data)?;
    if m == 0.0 {
        return Ok(0.0);
    }
    let sd = std_dev(data)?;
    Ok(sd / m.abs() * 100.0)
}

/// Linear-interpolation percentile (NumPy's default `linear` method).
///
/// `p` is in percent, i.e. `percentile(data, 50.0)` is the median.
///
/// # Errors
///
/// Returns [`StatsError::InvalidProbability`] if `p` is outside `[0, 100]`,
/// plus the usual sample-validity errors.
pub fn percentile(data: &[f64], p: f64) -> Result<f64, StatsError> {
    ensure_sample(data)?;
    if !(0.0..=100.0).contains(&p) {
        return Err(StatsError::InvalidProbability { value: p / 100.0 });
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("values validated finite"));
    Ok(percentile_of_sorted(&sorted, p))
}

/// Percentile of an already-sorted slice; shared with [`crate::Ecdf`].
pub(crate) fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        return sorted[lo];
    }
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// A compact numeric summary of one sample: count, mean, standard
/// deviation, CoV, and the quartiles used in the paper's prose
/// ("the 25th percentile run time is 4 minutes and the 75th percentile
/// is 300 minutes").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Coefficient of variation as a percentage of the mean.
    pub cov_percent: f64,
    /// Minimum observation.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Maximum observation.
    pub max: f64,
}

impl Summary {
    /// Computes the summary of a sample.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] or [`StatsError::NonFinite`] on
    /// invalid input.
    ///
    /// # Example
    ///
    /// ```
    /// # fn main() -> Result<(), sc_stats::StatsError> {
    /// let s = sc_stats::Summary::from_sample(&[4.0, 30.0, 300.0])?;
    /// assert_eq!(s.median, 30.0);
    /// assert_eq!(s.count, 3);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_sample(data: &[f64]) -> Result<Self, StatsError> {
        ensure_sample(data)?;
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("values validated finite"));
        Ok(Summary {
            count: data.len(),
            mean: mean(data)?,
            std_dev: std_dev(data)?,
            cov_percent: coefficient_of_variation(data)?,
            min: sorted[0],
            p25: percentile_of_sorted(&sorted, 25.0),
            median: percentile_of_sorted(&sorted, 50.0),
            p75: percentile_of_sorted(&sorted, 75.0),
            max: *sorted.last().expect("non-empty"),
        })
    }

    /// Interquartile range, `p75 - p25`.
    pub fn iqr(&self) -> f64 {
        self.p75 - self.p25
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn mean_matches_hand_computation() {
        assert!(close(mean(&[1.0, 2.0, 3.0, 4.0]).unwrap(), 2.5));
        assert!(close(mean(&[-5.0, 5.0]).unwrap(), 0.0));
    }

    #[test]
    fn std_dev_population_convention() {
        // Var([2, 4, 4, 4, 5, 5, 7, 9]) with ddof=0 is 4, sd is 2.
        let d = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!(close(std_dev(&d).unwrap(), 2.0));
    }

    #[test]
    fn cov_is_percent_of_mean() {
        let d = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!(close(coefficient_of_variation(&d).unwrap(), 2.0 / 5.0 * 100.0));
    }

    #[test]
    fn cov_of_constant_zero_series_is_zero() {
        assert_eq!(coefficient_of_variation(&[0.0, 0.0, 0.0]).unwrap(), 0.0);
    }

    #[test]
    fn percentile_linear_interpolation_matches_numpy() {
        let d = [1.0, 2.0, 3.0, 4.0];
        // numpy.percentile([1,2,3,4], 50) == 2.5
        assert!(close(percentile(&d, 50.0).unwrap(), 2.5));
        // numpy.percentile([1,2,3,4], 25) == 1.75
        assert!(close(percentile(&d, 25.0).unwrap(), 1.75));
        assert!(close(percentile(&d, 0.0).unwrap(), 1.0));
        assert!(close(percentile(&d, 100.0).unwrap(), 4.0));
    }

    #[test]
    fn percentile_rejects_out_of_range_p() {
        assert!(matches!(percentile(&[1.0], 101.0), Err(StatsError::InvalidProbability { .. })));
        assert!(matches!(percentile(&[1.0], -0.1), Err(StatsError::InvalidProbability { .. })));
    }

    #[test]
    fn summary_quartiles_are_ordered() {
        let s = Summary::from_sample(&[5.0, 1.0, 9.0, 3.0, 7.0]).unwrap();
        assert!(s.min <= s.p25 && s.p25 <= s.median);
        assert!(s.median <= s.p75 && s.p75 <= s.max);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.iqr(), s.p75 - s.p25);
    }

    #[test]
    fn empty_inputs_error() {
        assert_eq!(mean(&[]), Err(StatsError::EmptyInput));
        assert_eq!(std_dev(&[]), Err(StatsError::EmptyInput));
        assert_eq!(Summary::from_sample(&[]).unwrap_err(), StatsError::EmptyInput);
    }

    proptest! {
        #[test]
        fn prop_mean_between_min_and_max(data in proptest::collection::vec(-1e6..1e6f64, 1..200)) {
            let m = mean(&data).unwrap();
            let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(m >= lo - 1e-6 && m <= hi + 1e-6);
        }

        #[test]
        fn prop_std_dev_non_negative(data in proptest::collection::vec(-1e6..1e6f64, 1..200)) {
            prop_assert!(std_dev(&data).unwrap() >= 0.0);
        }

        #[test]
        fn prop_percentiles_monotone(
            data in proptest::collection::vec(0.0..1e6f64, 2..200),
            p1 in 0.0..100.0f64,
            p2 in 0.0..100.0f64,
        ) {
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(percentile(&data, lo).unwrap() <= percentile(&data, hi).unwrap() + 1e-9);
        }

        #[test]
        fn prop_summary_invariant_to_order(mut data in proptest::collection::vec(0.0..1e6f64, 1..100)) {
            let s1 = Summary::from_sample(&data).unwrap();
            data.reverse();
            let s2 = Summary::from_sample(&data).unwrap();
            prop_assert!((s1.median - s2.median).abs() < 1e-9);
            prop_assert!((s1.mean - s2.mean).abs() < 1e-6);
        }
    }
}
