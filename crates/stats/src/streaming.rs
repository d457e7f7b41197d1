//! One-pass, mergeable streaming aggregators.
//!
//! The telemetry engine folds per-job sample series into aggregate state
//! as jobs complete instead of materializing them (the MIT Supercloud
//! dataset's 2.2 TB of raw time-series is exactly what this avoids).
//! Three primitives cover the figure pipeline's needs:
//!
//! - [`Welford`]: online mean/variance/CoV with a deterministic pairwise
//!   merge (Chan et al.'s parallel update). Merging partitions of a
//!   stream reproduces the batch [`crate::mean`]/[`crate::std_dev`]
//!   within ~1e-9 relative error (floating-point regrouping only; the
//!   count is always exact). The bound is asserted by proptests below.
//! - [`LogQuantileSketch`]: a fixed-bucket log-histogram quantile sketch
//!   (DDSketch-style). Bucket counts are integers, so merges are *exact*
//!   and order-independent; quantile estimates carry a documented
//!   relative error of at most `alpha` against the batch
//!   [`crate::percentile`].
//! - [`MergeHistogram`]: fixed-bin histogram with integer counts and
//!   exact, order-independent merges.
//!
//! All three are `O(1)`-ish state (the sketch is `O(#occupied buckets)`,
//! bounded by the dynamic range), which is what makes the streaming
//! telemetry collector's peak memory `O(aggregate state)` rather than
//! `O(samples)`.

use crate::error::StatsError;

/// Online mean/variance accumulator (Welford) with a deterministic
/// pairwise merge.
///
/// # Example
///
/// ```
/// use sc_stats::Welford;
///
/// let mut w = Welford::new();
/// for v in [2.0, 4.0, 6.0] {
///     w.push(v);
/// }
/// assert_eq!(w.count(), 3);
/// assert!((w.mean().unwrap() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Folds one observation in.
    pub fn push(&mut self, v: f64) {
        self.count += 1;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
    }

    /// Merges another accumulator in (Chan's parallel combination).
    /// Deterministic for a fixed merge tree; different merge orders agree
    /// to within floating-point regrouping error (see module docs).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let n = n1 + n2;
        let delta = other.mean - self.mean;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.count += other.count;
    }

    /// Number of observations folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean, or `None` for an empty accumulator.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Population variance, or `None` for an empty accumulator.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 0).then(|| (self.m2 / self.count as f64).max(0.0))
    }

    /// Population standard deviation, or `None` for an empty accumulator.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Coefficient of variation in percent, with the same zero-mean
    /// convention as [`crate::coefficient_of_variation`]: `0.0` when the
    /// mean is exactly zero.
    pub fn cov_percent(&self) -> Option<f64> {
        let mean = self.mean()?;
        let sd = self.std_dev()?;
        Some(if mean == 0.0 { 0.0 } else { sd / mean.abs() * 100.0 })
    }
}

/// A mergeable quantile sketch over non-negative values, backed by
/// fixed log-spaced buckets.
///
/// Values are mapped to bucket `ceil(log_gamma(v))` with
/// `gamma = (1 + alpha) / (1 - alpha)`; a bucket's representative value
/// `2 * gamma^i / (gamma + 1)` is within relative error `alpha` of every
/// value in the bucket, so any quantile estimate is within `alpha`
/// (relative) of the batch [`crate::percentile`] of the same data at the
/// nearest rank. Bucket counts are integers, which makes
/// [`LogQuantileSketch::merge`] exact and order-independent — the
/// property the determinism contract leans on.
///
/// Zeros (and values below [`LogQuantileSketch::MIN_TRACKED`]) are
/// counted in a dedicated zero bucket and reported as `0.0`; non-finite
/// or negative values are rejected by `push` and counted separately.
///
/// # Example
///
/// ```
/// use sc_stats::LogQuantileSketch;
///
/// let mut q = LogQuantileSketch::new(0.01).unwrap();
/// for v in 1..=1000 {
///     q.push(v as f64);
/// }
/// let median = q.quantile(0.5).unwrap();
/// assert!((median - 500.0).abs() / 500.0 <= 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogQuantileSketch {
    alpha: f64,
    ln_gamma: f64,
    /// `(bucket index, count)` pairs, sorted by index (sparse, ordered —
    /// merges and quantile walks are deterministic).
    buckets: Vec<(i32, u64)>,
    /// Values in `[0, MIN_TRACKED)`.
    zeros: u64,
    /// Values rejected by `push` (negative or non-finite).
    rejected: u64,
}

impl LogQuantileSketch {
    /// Smallest value tracked with relative precision; anything below
    /// lands in the zero bucket.
    pub const MIN_TRACKED: f64 = 1e-9;

    /// Creates a sketch with relative accuracy `alpha` (e.g. `0.01` for
    /// 1% relative quantile error).
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] unless `0 < alpha < 1`.
    pub fn new(alpha: f64) -> Result<Self, StatsError> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(StatsError::InvalidParameter { name: "alpha", value: alpha });
        }
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        Ok(LogQuantileSketch {
            alpha,
            ln_gamma: gamma.ln(),
            buckets: Vec::new(),
            zeros: 0,
            rejected: 0,
        })
    }

    /// Adds `n` to the bucket at `idx`, keeping the list sorted.
    fn bump(&mut self, idx: i32, n: u64) {
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += n,
            Err(pos) => self.buckets.insert(pos, (idx, n)),
        }
    }

    /// The configured relative accuracy.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Folds one value in. Negative or non-finite values are counted as
    /// rejected and do not perturb the quantiles.
    pub fn push(&mut self, v: f64) {
        if !v.is_finite() || v < 0.0 {
            self.rejected += 1;
            return;
        }
        if v < Self::MIN_TRACKED {
            self.zeros += 1;
            return;
        }
        let idx = (v.ln() / self.ln_gamma).ceil() as i32;
        self.bump(idx, 1);
    }

    /// Merges another sketch in by adding bucket counts — exact and
    /// order-independent.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] when the sketches were built with
    /// different `alpha` (their buckets are incompatible).
    pub fn merge(&mut self, other: &LogQuantileSketch) -> Result<(), StatsError> {
        if self.alpha != other.alpha {
            return Err(StatsError::InvalidParameter { name: "alpha", value: other.alpha });
        }
        for &(idx, n) in &other.buckets {
            self.bump(idx, n);
        }
        self.zeros += other.zeros;
        self.rejected += other.rejected;
        Ok(())
    }

    /// Number of accepted observations.
    pub fn count(&self) -> u64 {
        self.zeros + self.buckets.iter().map(|&(_, n)| n).sum::<u64>()
    }

    /// Number of rejected (negative / non-finite) observations.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Number of occupied buckets — the sketch's memory footprint.
    pub fn occupied_buckets(&self) -> usize {
        self.buckets.len() + usize::from(self.zeros > 0)
    }

    /// The `q`-quantile estimate (`q` clamped to `[0, 1]`), or `None`
    /// for an empty sketch. Uses the lower nearest rank,
    /// `floor(q * (count - 1))`, so `quantile(0.0)` / `quantile(1.0)`
    /// estimate the min / max.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * (total - 1) as f64).floor() as u64;
        if rank < self.zeros {
            return Some(0.0);
        }
        let mut seen = self.zeros;
        for &(idx, n) in &self.buckets {
            seen += n;
            if rank < seen {
                let gamma = (1.0 + self.alpha) / (1.0 - self.alpha);
                return Some(2.0 * gamma.powi(idx) / (gamma + 1.0));
            }
        }
        None // unreachable: rank < total
    }
}

/// A fixed-range histogram with integer bin counts and exact,
/// order-independent merges.
///
/// Out-of-range values are tallied in `below` / `above` counters rather
/// than dropped, so `count()` is always the number of pushed finite
/// values.
///
/// # Example
///
/// ```
/// use sc_stats::MergeHistogram;
///
/// let mut h = MergeHistogram::new(0.0, 100.0, 10).unwrap();
/// h.push(5.0);
/// h.push(95.0);
/// h.push(100.0); // == hi: clamped into the last bin
/// assert_eq!(h.counts(), &[1, 0, 0, 0, 0, 0, 0, 0, 0, 2]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MergeHistogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    below: u64,
    above: u64,
    rejected: u64,
}

impl MergeHistogram {
    /// Creates a histogram over `[lo, hi]` with `bins` equal-width bins.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] when `bins == 0`, bounds are
    /// non-finite, or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self, StatsError> {
        if bins == 0 {
            return Err(StatsError::InvalidParameter { name: "bins", value: 0.0 });
        }
        if !lo.is_finite() || !hi.is_finite() || hi <= lo {
            return Err(StatsError::InvalidParameter { name: "hi", value: hi });
        }
        Ok(MergeHistogram { lo, hi, bins: vec![0; bins], below: 0, above: 0, rejected: 0 })
    }

    /// Folds one value in; non-finite values are counted as rejected.
    pub fn push(&mut self, v: f64) {
        if !v.is_finite() {
            self.rejected += 1;
            return;
        }
        if v < self.lo {
            self.below += 1;
        } else if v > self.hi {
            self.above += 1;
        } else {
            let width = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = (((v - self.lo) / width) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Merges another histogram in by adding counts — exact and
    /// order-independent.
    ///
    /// # Errors
    ///
    /// [`StatsError::LengthMismatch`] for differing bin counts and
    /// [`StatsError::InvalidParameter`] for differing bounds.
    pub fn merge(&mut self, other: &MergeHistogram) -> Result<(), StatsError> {
        if self.bins.len() != other.bins.len() {
            return Err(StatsError::LengthMismatch {
                left: self.bins.len(),
                right: other.bins.len(),
            });
        }
        if self.lo != other.lo || self.hi != other.hi {
            return Err(StatsError::InvalidParameter { name: "hi", value: other.hi });
        }
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.below += other.below;
        self.above += other.above;
        self.rejected += other.rejected;
        Ok(())
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Count of finite values below the range.
    pub fn below(&self) -> u64 {
        self.below
    }

    /// Count of finite values above the range.
    pub fn above(&self) -> u64 {
        self.above
    }

    /// Total finite values folded in (in-range plus out-of-range).
    pub fn count(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.below + self.above
    }

    /// `[lo, hi]` bounds.
    pub fn bounds(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// The inclusive-left edge of bin `i`.
    pub fn bin_lo(&self, i: usize) -> f64 {
        self.lo + (self.hi - self.lo) * i as f64 / self.bins.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::{coefficient_of_variation, mean, percentile, std_dev};
    use proptest::prelude::*;

    #[test]
    fn welford_matches_batch_single_stream() {
        let data = [3.5, 0.0, 12.25, 7.0, 99.0, 0.5];
        let mut w = Welford::new();
        for &v in &data {
            w.push(v);
        }
        assert_eq!(w.count(), data.len() as u64);
        assert!((w.mean().unwrap() - mean(&data).unwrap()).abs() < 1e-12);
        assert!((w.std_dev().unwrap() - std_dev(&data).unwrap()).abs() < 1e-12);
        assert!((w.cov_percent().unwrap() - coefficient_of_variation(&data).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn welford_empty_and_zero_mean() {
        assert_eq!(Welford::new().mean(), None);
        assert_eq!(Welford::new().cov_percent(), None);
        let mut w = Welford::new();
        w.push(0.0);
        w.push(0.0);
        assert_eq!(w.cov_percent(), Some(0.0));
    }

    #[test]
    fn welford_merge_with_empty_is_identity() {
        let mut w = Welford::new();
        w.push(4.0);
        w.push(8.0);
        let before = w;
        w.merge(&Welford::new());
        assert_eq!(w, before);
        let mut e = Welford::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn sketch_rejects_bad_alpha_and_bad_values() {
        assert!(LogQuantileSketch::new(0.0).is_err());
        assert!(LogQuantileSketch::new(1.0).is_err());
        let mut q = LogQuantileSketch::new(0.01).unwrap();
        q.push(f64::NAN);
        q.push(-1.0);
        q.push(f64::INFINITY);
        assert_eq!(q.count(), 0);
        assert_eq!(q.rejected(), 3);
        assert_eq!(q.quantile(0.5), None);
    }

    #[test]
    fn sketch_zero_bucket() {
        let mut q = LogQuantileSketch::new(0.01).unwrap();
        for _ in 0..9 {
            q.push(0.0);
        }
        q.push(1000.0);
        assert_eq!(q.quantile(0.5).unwrap(), 0.0);
        assert!(q.quantile(1.0).unwrap() > 900.0);
        assert_eq!(q.occupied_buckets(), 2);
    }

    #[test]
    fn sketch_merge_alpha_mismatch_errors() {
        let mut a = LogQuantileSketch::new(0.01).unwrap();
        let b = LogQuantileSketch::new(0.02).unwrap();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn histogram_counts_and_bounds() {
        let mut h = MergeHistogram::new(0.0, 10.0, 5).unwrap();
        for v in [-1.0, 0.0, 1.9, 2.0, 9.99, 10.0, 11.0, f64::NAN] {
            h.push(v);
        }
        assert_eq!(h.counts(), &[2, 1, 0, 0, 2]);
        assert_eq!(h.below(), 1);
        assert_eq!(h.above(), 1);
        assert_eq!(h.count(), 7);
        assert_eq!(h.bounds(), (0.0, 10.0));
        assert_eq!(h.bin_lo(1), 2.0);
        assert!(MergeHistogram::new(0.0, 0.0, 5).is_err());
        assert!(MergeHistogram::new(0.0, 1.0, 0).is_err());
    }

    #[test]
    fn histogram_merge_mismatch_errors() {
        let mut a = MergeHistogram::new(0.0, 10.0, 5).unwrap();
        assert!(a.merge(&MergeHistogram::new(0.0, 10.0, 6).unwrap()).is_err());
        assert!(a.merge(&MergeHistogram::new(0.0, 20.0, 5).unwrap()).is_err());
    }

    /// Splits `data` at the given cut points (taken modulo the length)
    /// and returns the chunks in a rotated order, modeling out-of-order
    /// merge arrival.
    fn split_rotated(data: &[f64], cuts: &[usize], rot: usize) -> Vec<Vec<f64>> {
        let mut points: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        points.push(0);
        points.push(data.len());
        points.sort_unstable();
        points.dedup();
        let mut chunks: Vec<Vec<f64>> =
            points.windows(2).map(|w| data[w[0]..w[1]].to_vec()).collect();
        if !chunks.is_empty() {
            let r = rot % chunks.len();
            chunks.rotate_left(r);
        }
        chunks
    }

    proptest! {
        // Satellite: streaming-vs-batch equivalence under arbitrary merge
        // splits. Integer-count structures (sketch buckets, histograms)
        // must agree *exactly* regardless of split order; Welford agrees
        // within the documented floating-point regrouping bound, asserted
        // from both sides.

        #[test]
        fn prop_welford_split_merge_matches_batch(
            data in proptest::collection::vec(0.0..1e6f64, 1..200),
            cuts in proptest::collection::vec(0usize..100_000, 0..6),
            rot in 0usize..8,
        ) {
            let mut merged = Welford::new();
            for chunk in split_rotated(&data, &cuts, rot) {
                let mut w = Welford::new();
                for v in chunk {
                    w.push(v);
                }
                merged.merge(&w);
            }
            prop_assert_eq!(merged.count(), data.len() as u64);
            let (m_batch, m_stream) = (mean(&data).unwrap(), merged.mean().unwrap());
            let scale = m_batch.abs().max(1.0);
            prop_assert!((m_stream - m_batch).abs() <= 1e-9 * scale);
            prop_assert!((m_batch - m_stream).abs() <= 1e-9 * scale);
            let (s_batch, s_stream) = (std_dev(&data).unwrap(), merged.std_dev().unwrap());
            let s_scale = s_batch.abs().max(m_batch.abs()).max(1.0);
            prop_assert!((s_stream - s_batch).abs() <= 1e-6 * s_scale);
            prop_assert!((s_batch - s_stream).abs() <= 1e-6 * s_scale);
        }

        #[test]
        fn prop_sketch_split_merge_is_exact(
            data in proptest::collection::vec(0.0..1e9f64, 1..200),
            cuts in proptest::collection::vec(0usize..100_000, 0..6),
            rot in 0usize..8,
        ) {
            let mut single = LogQuantileSketch::new(0.01).unwrap();
            for &v in &data {
                single.push(v);
            }
            let mut merged = LogQuantileSketch::new(0.01).unwrap();
            for chunk in split_rotated(&data, &cuts, rot) {
                let mut s = LogQuantileSketch::new(0.01).unwrap();
                for v in chunk {
                    s.push(v);
                }
                merged.merge(&s).unwrap();
            }
            // Bucket-level equality: merges are exact, not approximate.
            prop_assert_eq!(&merged, &single);
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                prop_assert_eq!(merged.quantile(q), single.quantile(q));
            }
        }

        #[test]
        fn prop_sketch_quantile_within_alpha_of_batch(
            data in proptest::collection::vec(1e-3..1e9f64, 1..300),
            q in 0.0..=1.0f64,
        ) {
            let alpha = 0.01;
            let mut sketch = LogQuantileSketch::new(alpha).unwrap();
            for &v in &data {
                sketch.push(v);
            }
            // The sketch's nearest-rank value, taken exactly.
            let mut sorted = data.clone();
            sorted.sort_by(f64::total_cmp);
            let rank = (q * (sorted.len() - 1) as f64).floor() as usize;
            let exact = sorted[rank];
            let est = sketch.quantile(q).unwrap();
            // Documented bound, asserted both ways: the estimate is at
            // most (1 + alpha) over the exact nearest-rank value, and the
            // exact value at most 1 / (1 - alpha) over the estimate.
            prop_assert!(est <= exact * (1.0 + alpha) + 1e-12, "est {est} exact {exact}");
            prop_assert!(exact <= est / (1.0 - alpha) + 1e-12, "est {est} exact {exact}");
            // And the batch interpolated percentile stays within alpha
            // plus one inter-rank gap of the estimate.
            let batch = percentile(&data, q * 100.0).unwrap();
            let hi_rank = ((q * (sorted.len() - 1) as f64).ceil() as usize).min(sorted.len() - 1);
            let gap = sorted[hi_rank] - sorted[rank];
            prop_assert!((batch - est).abs() <= alpha * exact + gap + 1e-12);
        }

        #[test]
        fn prop_histogram_split_merge_is_exact(
            data in proptest::collection::vec(-50.0..150.0f64, 1..200),
            cuts in proptest::collection::vec(0usize..100_000, 0..6),
            rot in 0usize..8,
        ) {
            let mut single = MergeHistogram::new(0.0, 100.0, 16).unwrap();
            for &v in &data {
                single.push(v);
            }
            let mut merged = MergeHistogram::new(0.0, 100.0, 16).unwrap();
            for chunk in split_rotated(&data, &cuts, rot) {
                let mut h = MergeHistogram::new(0.0, 100.0, 16).unwrap();
                for v in chunk {
                    h.push(v);
                }
                merged.merge(&h).unwrap();
            }
            prop_assert_eq!(&merged, &single);
        }
    }
}
