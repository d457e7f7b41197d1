//! Linear- and log-binned histograms for distribution shape reports.

use crate::error::{ensure_sample, StatsError};

/// A fixed-bin histogram over a closed range.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), sc_stats::StatsError> {
/// use sc_stats::Histogram;
///
/// let h = Histogram::linear(&[1.0, 2.0, 2.5, 9.0], 0.0, 10.0, 5)?;
/// assert_eq!(h.counts(), &[1, 2, 0, 0, 1]);
/// assert_eq!(h.total(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Builds a histogram with `bins` equal-width bins over `[lo, hi]`.
    /// Values below `lo` / above `hi` are tallied as under/overflow.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `bins == 0` or
    /// `lo >= hi`, and the usual sample-validity errors.
    pub fn linear(data: &[f64], lo: f64, hi: f64, bins: usize) -> Result<Self, StatsError> {
        ensure_sample(data)?;
        if bins == 0 {
            return Err(StatsError::InvalidParameter { name: "bins", value: 0.0 });
        }
        if lo >= hi {
            return Err(StatsError::InvalidParameter { name: "lo", value: lo });
        }
        let edges: Vec<f64> = (0..=bins).map(|i| lo + (hi - lo) * i as f64 / bins as f64).collect();
        Ok(Self::from_edges_unchecked(data, edges))
    }

    /// Builds a histogram with `bins` logarithmically spaced bins over
    /// `[lo, hi]`, suitable for run-time distributions spanning seconds
    /// to days.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `bins == 0`,
    /// `lo <= 0`, or `lo >= hi`, and the usual sample-validity errors.
    pub fn logarithmic(data: &[f64], lo: f64, hi: f64, bins: usize) -> Result<Self, StatsError> {
        ensure_sample(data)?;
        if bins == 0 {
            return Err(StatsError::InvalidParameter { name: "bins", value: 0.0 });
        }
        if lo <= 0.0 {
            return Err(StatsError::InvalidParameter { name: "lo", value: lo });
        }
        if lo >= hi {
            return Err(StatsError::InvalidParameter { name: "hi", value: hi });
        }
        let (llo, lhi) = (lo.ln(), hi.ln());
        let edges: Vec<f64> =
            (0..=bins).map(|i| (llo + (lhi - llo) * i as f64 / bins as f64).exp()).collect();
        Ok(Self::from_edges_unchecked(data, edges))
    }

    fn from_edges_unchecked(data: &[f64], edges: Vec<f64>) -> Self {
        let bins = edges.len() - 1;
        let mut counts = vec![0u64; bins];
        let mut underflow = 0;
        let mut overflow = 0;
        let lo = edges[0];
        let hi = *edges.last().expect("at least two edges");
        for &v in data {
            if v < lo {
                underflow += 1;
            } else if v > hi {
                overflow += 1;
            } else {
                // partition_point gives the first edge > v; bin index is that - 1.
                let idx = edges.partition_point(|e| *e <= v);
                let bin = idx.saturating_sub(1).min(bins - 1);
                counts[bin] += 1;
            }
        }
        Histogram { edges, counts, underflow, overflow }
    }

    /// Bin edges (`bins + 1` values).
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Count of values below the lowest edge.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count of values above the highest edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations including under/overflow.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Per-bin fractions of the in-range total (empty histogram yields zeros).
    pub fn fractions(&self) -> Vec<f64> {
        let in_range: u64 = self.counts.iter().sum();
        if in_range == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts.iter().map(|c| *c as f64 / in_range as f64).collect()
    }

    /// Iterator of `(bin_center, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.edges.windows(2).zip(&self.counts).map(|(w, &c)| ((w[0] + w[1]) / 2.0, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn linear_binning_places_values() {
        let h = Histogram::linear(&[0.0, 0.5, 1.0, 1.5, 2.0], 0.0, 2.0, 2).unwrap();
        // Last edge is inclusive, so 2.0 lands in the final bin.
        assert_eq!(h.counts(), &[2, 3]);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn under_and_overflow_tallied() {
        let h = Histogram::linear(&[-1.0, 0.5, 3.0], 0.0, 2.0, 2).unwrap();
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn log_binning_spans_decades() {
        let h = Histogram::logarithmic(&[1.0, 10.0, 100.0, 999.0], 1.0, 1000.0, 3).unwrap();
        assert_eq!(h.counts(), &[1, 1, 2]);
    }

    #[test]
    fn invalid_parameters_error() {
        assert!(Histogram::linear(&[1.0], 0.0, 1.0, 0).is_err());
        assert!(Histogram::linear(&[1.0], 2.0, 1.0, 4).is_err());
        assert!(Histogram::logarithmic(&[1.0], 0.0, 1.0, 4).is_err());
        assert!(Histogram::logarithmic(&[1.0], -1.0, 1.0, 4).is_err());
    }

    #[test]
    fn fractions_sum_to_one_when_in_range() {
        let h = Histogram::linear(&[0.1, 0.9, 1.4, 1.9], 0.0, 2.0, 4).unwrap();
        let s: f64 = h.fractions().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_counts_conserved(
            data in proptest::collection::vec(-10.0..30.0f64, 1..300),
            bins in 1usize..50,
        ) {
            let h = Histogram::linear(&data, 0.0, 20.0, bins).unwrap();
            prop_assert_eq!(h.total() as usize, data.len());
        }

        #[test]
        fn prop_bin_centers_ordered(
            data in proptest::collection::vec(0.0..100.0f64, 1..100),
            bins in 2usize..30,
        ) {
            let h = Histogram::linear(&data, 0.0, 100.0, bins).unwrap();
            let centers: Vec<f64> = h.iter().map(|(c, _)| c).collect();
            for w in centers.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }
    }
}
