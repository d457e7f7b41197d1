//! Deterministic log₂-bucketed histograms.
//!
//! [`Histogram`] is a plain value, not an atomic: the simulator's metric
//! updates all happen on the single-threaded event loop, so interior
//! mutability would only buy non-determinism.

/// Number of histogram buckets: bucket 0 is `[0, 1)`, bucket `i ≥ 1`
/// is `[2^(i-1), 2^i)`, and the last bucket absorbs everything above.
const BUCKETS: usize = 33;

/// Log₂-bucketed histogram of non-negative values.
///
/// Bucket boundaries are powers of two, so bucketing is an integer
/// `ilog2` — exact and identical on every platform, unlike float
/// quantile sketches. Good for queue depths, GPU counts, and retry
/// counts where ~2× resolution is plenty.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_of(v: f64) -> usize {
        if v < 1.0 || v.is_nan() {
            // Also routes NaN and negatives to bucket 0; the sim only
            // observes non-negative quantities.
            return 0;
        }
        let n = v as u64;
        ((n.ilog2() as usize) + 1).min(BUCKETS - 1)
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of observations, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Upper bound of the bucket holding quantile `q` (in `[0, 1]`) —
    /// an approximate quantile with ~2× resolution. `None` when empty.
    pub fn quantile_bound(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if i == 0 { 1.0 } else { (1u64 << i) as f64 });
            }
        }
        Some(self.max)
    }

    /// Per-bucket `(upper_bound, count)` pairs for non-empty buckets.
    pub fn buckets(&self) -> Vec<(f64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 1.0 } else { (1u64 << i) as f64 }, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0.0), 0);
        assert_eq!(Histogram::bucket_of(0.9), 0);
        assert_eq!(Histogram::bucket_of(1.0), 1);
        assert_eq!(Histogram::bucket_of(1.9), 1);
        assert_eq!(Histogram::bucket_of(2.0), 2);
        assert_eq!(Histogram::bucket_of(3.0), 2);
        assert_eq!(Histogram::bucket_of(4.0), 3);
        assert_eq!(Histogram::bucket_of(f64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_summary_statistics() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile_bound(0.5), None);
        for v in [1.0, 2.0, 3.0, 10.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 16.0);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(10.0));
        assert_eq!(h.mean(), Some(4.0));
        // Median rank 2 falls in bucket [2,4) → upper bound 4.
        assert_eq!(h.quantile_bound(0.5), Some(4.0));
        assert_eq!(h.quantile_bound(1.0), Some(16.0));
    }

    #[test]
    fn histograms_with_equal_observations_are_equal() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [0.5, 7.0, 100.0] {
            a.observe(v);
            b.observe(v);
        }
        assert_eq!(a, b);
        assert_eq!(a.buckets(), vec![(1.0, 1), (8.0, 1), (128.0, 1)]);
    }
}
