//! Empirical cumulative distribution functions.
//!
//! The paper presents nearly every result as an empirical CDF ("We
//! generally use empirically-obtained cumulative distribution functions
//! (CDFs) … to present our results", Sec. II). [`Ecdf`] stores a sorted
//! copy of the sample and answers both directions of query:
//! value → cumulative fraction ([`Ecdf::fraction_at_most`]) and
//! probability → value ([`Ecdf::quantile`]).

use crate::descriptive::percentile_of_sorted;
use crate::error::{ensure_sample, StatsError};

/// An empirical cumulative distribution function over a finite sample.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), sc_stats::StatsError> {
/// use sc_stats::Ecdf;
///
/// // GPU-job run times in minutes (Fig. 3a style).
/// let cdf = Ecdf::new(vec![1.0, 4.0, 30.0, 300.0, 1200.0])?;
/// assert_eq!(cdf.quantile(0.5), 30.0);
/// // "70% of the GPU jobs spend less than one minute in the queue"
/// // style queries:
/// assert_eq!(cdf.fraction_at_most(4.0), 0.4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample, taking ownership and sorting it.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for an empty sample and
    /// [`StatsError::NonFinite`] if any observation is NaN or infinite.
    pub fn new(mut data: Vec<f64>) -> Result<Self, StatsError> {
        ensure_sample(&data)?;
        data.sort_by(|a, b| a.partial_cmp(b).expect("values validated finite"));
        Ok(Ecdf { sorted: data })
    }

    /// Builds an ECDF from borrowed data.
    ///
    /// # Errors
    ///
    /// Same as [`Ecdf::new`].
    pub fn from_slice(data: &[f64]) -> Result<Self, StatsError> {
        Self::new(data.to_vec())
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the ECDF holds no observations. Always `false` for a
    /// successfully constructed value; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of observations `<= x` (the CDF evaluated at `x`).
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|v| *v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Fraction of observations strictly greater than `x`; convenience for
    /// statements like "only 20% of the jobs have more than 50% SM
    /// utilization" (Sec. III).
    pub fn fraction_above(&self, x: f64) -> f64 {
        1.0 - self.fraction_at_most(x)
    }

    /// The `q`-quantile (`q` in `[0, 1]`) with linear interpolation,
    /// matching `numpy.quantile`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`. Use [`Ecdf::try_quantile`] for a
    /// fallible variant.
    pub fn quantile(&self, q: f64) -> f64 {
        self.try_quantile(q).expect("q within [0, 1]")
    }

    /// Fallible variant of [`Ecdf::quantile`].
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidProbability`] if `q` is outside `[0, 1]`.
    pub fn try_quantile(&self, q: f64) -> Result<f64, StatsError> {
        if !(0.0..=1.0).contains(&q) {
            return Err(StatsError::InvalidProbability { value: q });
        }
        Ok(percentile_of_sorted(&self.sorted, q * 100.0))
    }

    /// Median, equivalent to `quantile(0.5)`.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Minimum observation.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum observation.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty by construction")
    }

    /// Evaluates the CDF on a grid of `n` points spanning the observed
    /// range, returning `(x, F(x))` pairs — the series a plotting frontend
    /// would draw. `n` is clamped to at least 2.
    pub fn curve(&self, n: usize) -> Vec<(f64, f64)> {
        let n = n.max(2);
        let (lo, hi) = (self.min(), self.max());
        (0..n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                (x, self.fraction_at_most(x))
            })
            .collect()
    }

    /// Evaluates the CDF on a logarithmic grid of `n` points — the paper
    /// plots run-time CDFs with a log x-axis (Fig. 3a). Observations
    /// `<= 0` are accommodated by flooring the grid at `min.max(floor)`.
    ///
    /// # Panics
    ///
    /// Panics if `floor` is not positive.
    pub fn log_curve(&self, n: usize, floor: f64) -> Vec<(f64, f64)> {
        assert!(floor > 0.0, "floor must be positive");
        let n = n.max(2);
        let lo = self.min().max(floor);
        let hi = self.max().max(lo * (1.0 + 1e-12));
        let (llo, lhi) = (lo.ln(), hi.ln());
        (0..n)
            .map(|i| {
                let x = (llo + (lhi - llo) * i as f64 / (n - 1) as f64).exp();
                (x, self.fraction_at_most(x))
            })
            .collect()
    }
}

impl FromIterator<f64> for Ecdf {
    /// Collects an iterator into an ECDF.
    ///
    /// # Panics
    ///
    /// Panics if the iterator is empty or yields non-finite values; use
    /// [`Ecdf::new`] for fallible construction.
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Ecdf::new(iter.into_iter().collect()).expect("valid sample for ECDF")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fraction_at_most_step_behavior() {
        let cdf = Ecdf::new(vec![1.0, 2.0, 2.0, 3.0]).unwrap();
        assert_eq!(cdf.fraction_at_most(0.5), 0.0);
        assert_eq!(cdf.fraction_at_most(1.0), 0.25);
        assert_eq!(cdf.fraction_at_most(2.0), 0.75);
        assert_eq!(cdf.fraction_at_most(3.0), 1.0);
        assert_eq!(cdf.fraction_at_most(10.0), 1.0);
    }

    #[test]
    fn fraction_above_complements() {
        let cdf = Ecdf::new(vec![10.0, 20.0, 30.0, 40.0, 50.0]).unwrap();
        assert!((cdf.fraction_above(30.0) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn quantile_endpoints() {
        let cdf = Ecdf::new(vec![5.0, 1.0, 3.0]).unwrap();
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(1.0), 5.0);
        assert_eq!(cdf.median(), 3.0);
    }

    #[test]
    fn try_quantile_rejects_bad_q() {
        let cdf = Ecdf::new(vec![1.0]).unwrap();
        assert!(matches!(cdf.try_quantile(1.5), Err(StatsError::InvalidProbability { .. })));
    }

    #[test]
    fn curve_spans_range_and_is_monotone() {
        let cdf = Ecdf::new(vec![0.0, 1.0, 2.0, 3.0, 10.0]).unwrap();
        let curve = cdf.curve(16);
        assert_eq!(curve.len(), 16);
        assert_eq!(curve[0].0, 0.0);
        assert_eq!(curve.last().unwrap().0, 10.0);
        assert_eq!(curve.last().unwrap().1, 1.0);
        for w in curve.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn log_curve_is_monotone_and_bounded() {
        let cdf = Ecdf::new(vec![0.5, 4.0, 30.0, 300.0, 1200.0]).unwrap();
        let curve = cdf.log_curve(32, 0.1);
        for w in curve.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(curve.last().unwrap().1, 1.0);
    }

    #[test]
    fn single_observation() {
        let cdf = Ecdf::new(vec![42.0]).unwrap();
        assert_eq!(cdf.median(), 42.0);
        assert_eq!(cdf.fraction_at_most(41.9), 0.0);
        assert_eq!(cdf.fraction_at_most(42.0), 1.0);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Ecdf::new(vec![]).is_err());
        assert!(Ecdf::new(vec![f64::NAN]).is_err());
    }

    proptest! {
        #[test]
        fn prop_cdf_monotone(data in proptest::collection::vec(-1e5..1e5f64, 1..200),
                             x1 in -2e5..2e5f64, x2 in -2e5..2e5f64) {
            let cdf = Ecdf::new(data).unwrap();
            let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
            prop_assert!(cdf.fraction_at_most(lo) <= cdf.fraction_at_most(hi));
        }

        #[test]
        fn prop_cdf_bounds(data in proptest::collection::vec(-1e5..1e5f64, 1..200), x in -2e5..2e5f64) {
            let cdf = Ecdf::new(data).unwrap();
            let f = cdf.fraction_at_most(x);
            prop_assert!((0.0..=1.0).contains(&f));
        }

        #[test]
        fn prop_quantile_within_range(data in proptest::collection::vec(-1e5..1e5f64, 1..200), q in 0.0..=1.0f64) {
            let cdf = Ecdf::new(data).unwrap();
            let v = cdf.quantile(q);
            prop_assert!(v >= cdf.min() - 1e-9 && v <= cdf.max() + 1e-9);
        }

        #[test]
        fn prop_quantile_of_fraction_roundtrip(data in proptest::collection::vec(0.0..1e5f64, 2..100)) {
            // With linear interpolation, F(quantile(q)) >= q - 1/n.
            let cdf = Ecdf::new(data).unwrap();
            let slack = 1.0 / cdf.len() as f64;
            for i in 0..=10 {
                let q = i as f64 / 10.0;
                let v = cdf.quantile(q);
                prop_assert!(cdf.fraction_at_most(v + 1e-9) + slack + 1e-9 >= q);
            }
        }
    }
}
