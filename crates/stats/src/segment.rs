//! Run-length segmentation of sampled time series into active and idle
//! intervals.
//!
//! Sec. III of the paper: "the GPU jobs have 'active phases' and 'idle
//! phases.' GPU resources are used during the active phases and they
//! remain unused during the idle phases". Fig. 6 reports (a) the
//! fraction of run time spent active and (b) the CoV of idle/active
//! interval lengths. This module recovers those intervals from a sampled
//! utilization series.

use crate::descriptive::coefficient_of_variation;
use crate::error::{ensure_sample, StatsError};

/// Whether an interval is active (utilization above threshold) or idle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntervalKind {
    /// GPU resources in use.
    Active,
    /// GPU unused (only host CPUs busy).
    Idle,
}

/// A maximal run of consecutive samples of one kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Active or idle.
    pub kind: IntervalKind,
    /// Index of the first sample in the run.
    pub start: usize,
    /// Number of samples in the run.
    pub len: usize,
}

impl Interval {
    /// Duration in seconds given the sampling period.
    pub fn duration_secs(&self, sample_period_secs: f64) -> f64 {
        self.len as f64 * sample_period_secs
    }
}

/// The result of segmenting one job's utilization series.
#[derive(Debug, Clone, PartialEq)]
pub struct Segmentation {
    intervals: Vec<Interval>,
    samples: usize,
}

impl Segmentation {
    /// All intervals in order.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Total number of samples that were segmented.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Fraction of samples spent in active intervals, in `[0, 1]`
    /// (Fig. 6a's per-job statistic).
    pub fn active_fraction(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let active: usize =
            self.intervals.iter().filter(|i| i.kind == IntervalKind::Active).map(|i| i.len).sum();
        active as f64 / self.samples as f64
    }

    /// Lengths (in samples) of intervals of the given kind.
    pub fn lengths_of(&self, kind: IntervalKind) -> Vec<f64> {
        self.intervals.iter().filter(|i| i.kind == kind).map(|i| i.len as f64).collect()
    }

    /// Coefficient of variation (percent) of interval lengths of one kind
    /// (Fig. 6b's per-job statistic). Returns `None` when fewer than two
    /// intervals of that kind exist — a CoV over a single interval is
    /// meaningless and the paper's per-job CDF can only include jobs that
    /// alternate at least twice.
    pub fn interval_cov(&self, kind: IntervalKind) -> Option<f64> {
        let lengths = self.lengths_of(kind);
        if lengths.len() < 2 {
            return None;
        }
        coefficient_of_variation(&lengths).ok()
    }

    /// Number of intervals of one kind.
    pub fn count_of(&self, kind: IntervalKind) -> usize {
        self.intervals.iter().filter(|i| i.kind == kind).count()
    }
}

/// Segments a sampled utilization series into alternating active/idle
/// intervals. A sample is active when its value is strictly greater than
/// `threshold`. `min_run` suppresses flicker: runs shorter than `min_run`
/// samples are merged into the surrounding interval (the paper's 100 ms
/// sampling would otherwise turn single-sample dips into "idle phases").
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`]/[`StatsError::NonFinite`] for
/// invalid series and [`StatsError::InvalidParameter`] for `min_run == 0`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), sc_stats::StatsError> {
/// use sc_stats::{segment_intervals, IntervalKind};
///
/// let sm = [0.0, 0.0, 80.0, 85.0, 90.0, 0.0, 0.0, 0.0];
/// let seg = segment_intervals(&sm, 5.0, 1)?;
/// assert_eq!(seg.intervals().len(), 3);
/// assert_eq!(seg.active_fraction(), 3.0 / 8.0);
/// assert_eq!(seg.count_of(IntervalKind::Idle), 2);
/// # Ok(())
/// # }
/// ```
pub fn segment_intervals(
    series: &[f64],
    threshold: f64,
    min_run: usize,
) -> Result<Segmentation, StatsError> {
    ensure_sample(series)?;
    if min_run == 0 {
        return Err(StatsError::InvalidParameter { name: "min_run", value: 0.0 });
    }
    // Pass 1: raw run-length encoding.
    let mut raw: Vec<Interval> = Vec::new();
    for (i, &v) in series.iter().enumerate() {
        let kind = if v > threshold { IntervalKind::Active } else { IntervalKind::Idle };
        match raw.last_mut() {
            Some(last) if last.kind == kind => last.len += 1,
            _ => raw.push(Interval { kind, start: i, len: 1 }),
        }
    }
    Ok(Segmentation { intervals: smooth(raw, min_run), samples: series.len() })
}

/// Pass 2 of segmentation: merge runs shorter than `min_run` into their
/// neighbours, repeating until stable (merging can create new short
/// runs). Shared by [`segment_intervals`] and [`SegmentBuilder`] so the
/// streaming path is the batch algorithm by construction.
fn smooth(mut merged: Vec<Interval>, min_run: usize) -> Vec<Interval> {
    loop {
        if merged.len() <= 1 {
            break;
        }
        // Find the shortest sub-min_run run (interior preference keeps
        // endpoints stable).
        let victim = merged
            .iter()
            .enumerate()
            .filter(|(_, iv)| iv.len < min_run)
            .min_by_key(|(_, iv)| iv.len)
            .map(|(i, _)| i);
        let Some(i) = victim else { break };
        // Flip the victim's kind so it merges with neighbours.
        let kind = match merged[i].kind {
            IntervalKind::Active => IntervalKind::Idle,
            IntervalKind::Idle => IntervalKind::Active,
        };
        merged[i].kind = kind;
        // Re-coalesce adjacent same-kind runs.
        let mut out: Vec<Interval> = Vec::with_capacity(merged.len());
        for iv in merged {
            match out.last_mut() {
                Some(last) if last.kind == iv.kind => last.len += iv.len,
                _ => out.push(iv),
            }
        }
        merged = out;
    }
    merged
}

/// Incremental twin of [`segment_intervals`]: values stream in one at a
/// time (or as constant runs) and only the run-length encoding is held,
/// so segmenting an `n`-sample series needs `O(#runs)` memory instead of
/// `O(n)`. [`SegmentBuilder::finish`] applies the same smoothing pass as
/// the batch function, so for identical inputs the resulting
/// [`Segmentation`] is identical — including the error behaviour on
/// empty or non-finite input.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), sc_stats::StatsError> {
/// use sc_stats::{segment_intervals, SegmentBuilder};
///
/// let sm = [0.0, 0.0, 80.0, 85.0, 90.0, 0.0, 0.0, 0.0];
/// let mut b = SegmentBuilder::new(5.0, 1);
/// for &v in &sm {
///     b.push(v);
/// }
/// assert_eq!(b.finish()?, segment_intervals(&sm, 5.0, 1)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SegmentBuilder {
    threshold: f64,
    min_run: usize,
    runs: Vec<Interval>,
    samples: usize,
    first_non_finite: Option<usize>,
}

impl SegmentBuilder {
    /// Starts an empty segmentation with the same `threshold` / `min_run`
    /// semantics as [`segment_intervals`].
    pub fn new(threshold: f64, min_run: usize) -> Self {
        SegmentBuilder { threshold, min_run, runs: Vec::new(), samples: 0, first_non_finite: None }
    }

    /// Appends one sample.
    #[inline]
    pub fn push(&mut self, v: f64) {
        self.push_run(v, 1);
    }

    /// Appends `count` consecutive samples of the same value — the bulk
    /// entry point for constant spans.
    #[inline]
    pub fn push_run(&mut self, v: f64, count: usize) {
        if count == 0 {
            return;
        }
        if !v.is_finite() && self.first_non_finite.is_none() {
            self.first_non_finite = Some(self.samples);
        }
        let kind = if v > self.threshold { IntervalKind::Active } else { IntervalKind::Idle };
        match self.runs.last_mut() {
            Some(last) if last.kind == kind => last.len += count,
            _ => self.runs.push(Interval { kind, start: self.samples, len: count }),
        }
        self.samples += count;
    }

    /// Number of samples pushed so far.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Number of raw runs pushed so far, before smoothing. Each merge
    /// in [`SegmentBuilder::finish`] removes at least one run, so the
    /// finished segmentation has fewer intervals than this exactly when
    /// smoothing flipped some run's kind.
    pub fn runs(&self) -> usize {
        self.runs.len()
    }

    /// Smooths and returns the segmentation.
    ///
    /// # Errors
    ///
    /// Exactly like [`segment_intervals`]: [`StatsError::EmptyInput`] if
    /// nothing was pushed, [`StatsError::NonFinite`] if any pushed value
    /// was NaN or infinite, and [`StatsError::InvalidParameter`] for
    /// `min_run == 0`.
    pub fn finish(self) -> Result<Segmentation, StatsError> {
        if self.samples == 0 {
            return Err(StatsError::EmptyInput);
        }
        if let Some(index) = self.first_non_finite {
            return Err(StatsError::NonFinite { index });
        }
        if self.min_run == 0 {
            return Err(StatsError::InvalidParameter { name: "min_run", value: 0.0 });
        }
        Ok(Segmentation { intervals: smooth(self.runs, self.min_run), samples: self.samples })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn all_idle_series() {
        let seg = segment_intervals(&[0.0; 10], 5.0, 1).unwrap();
        assert_eq!(seg.intervals().len(), 1);
        assert_eq!(seg.active_fraction(), 0.0);
        assert_eq!(seg.count_of(IntervalKind::Idle), 1);
    }

    #[test]
    fn all_active_series() {
        let seg = segment_intervals(&[50.0; 10], 5.0, 1).unwrap();
        assert_eq!(seg.active_fraction(), 1.0);
    }

    #[test]
    fn alternating_phases_counted() {
        let s = [0.0, 0.0, 90.0, 90.0, 0.0, 0.0, 90.0, 90.0];
        let seg = segment_intervals(&s, 5.0, 1).unwrap();
        assert_eq!(seg.count_of(IntervalKind::Active), 2);
        assert_eq!(seg.count_of(IntervalKind::Idle), 2);
        assert_eq!(seg.active_fraction(), 0.5);
    }

    #[test]
    fn min_run_suppresses_flicker() {
        // One-sample dip inside a long active phase.
        let s = [90.0, 90.0, 90.0, 0.0, 90.0, 90.0, 90.0];
        let strict = segment_intervals(&s, 5.0, 1).unwrap();
        assert_eq!(strict.intervals().len(), 3);
        let smoothed = segment_intervals(&s, 5.0, 2).unwrap();
        assert_eq!(smoothed.intervals().len(), 1);
        assert_eq!(smoothed.active_fraction(), 1.0);
    }

    #[test]
    fn interval_cov_requires_two_intervals() {
        let seg = segment_intervals(&[90.0; 5], 5.0, 1).unwrap();
        assert_eq!(seg.interval_cov(IntervalKind::Active), None);
        let s = [90.0, 0.0, 90.0, 90.0, 0.0, 90.0, 90.0, 90.0];
        let seg = segment_intervals(&s, 5.0, 1).unwrap();
        // Active runs: 1, 2, 3 -> mean 2, sd sqrt(2/3).
        let cov = seg.interval_cov(IntervalKind::Active).unwrap();
        let expect = ((2.0f64 / 3.0).sqrt() / 2.0) * 100.0;
        assert!((cov - expect).abs() < 1e-9, "cov={cov}");
    }

    #[test]
    fn interval_durations() {
        let iv = Interval { kind: IntervalKind::Active, start: 0, len: 10 };
        assert_eq!(iv.duration_secs(0.1), 1.0);
    }

    #[test]
    fn rejects_invalid_input() {
        assert!(segment_intervals(&[], 5.0, 1).is_err());
        assert!(segment_intervals(&[1.0], 5.0, 0).is_err());
    }

    #[test]
    fn builder_matches_error_behaviour() {
        assert_eq!(SegmentBuilder::new(5.0, 1).finish(), Err(StatsError::EmptyInput));
        let mut b = SegmentBuilder::new(5.0, 0);
        b.push(1.0);
        assert_eq!(b.finish(), Err(StatsError::InvalidParameter { name: "min_run", value: 0.0 }));
        let mut b = SegmentBuilder::new(5.0, 1);
        b.push(1.0);
        b.push(f64::NAN);
        b.push_run(2.0, 3);
        assert_eq!(b.finish(), Err(StatsError::NonFinite { index: 1 }));
    }

    #[test]
    fn builder_bulk_runs_match_per_sample_pushes() {
        let mut bulk = SegmentBuilder::new(0.5, 3);
        let mut single = SegmentBuilder::new(0.5, 3);
        for (v, n) in [(0.0, 5), (80.0, 2), (0.0, 1), (70.0, 7), (0.0, 4)] {
            bulk.push_run(v, n);
            for _ in 0..n {
                single.push(v);
            }
        }
        assert_eq!(bulk.samples(), single.samples());
        assert_eq!(bulk.finish().unwrap(), single.finish().unwrap());
    }

    proptest! {
        #[test]
        fn prop_builder_matches_batch(
            series in proptest::collection::vec(0.0..100.0f64, 1..300),
            threshold in 0.0..100.0f64,
            min_run in 1usize..5,
        ) {
            let batch = segment_intervals(&series, threshold, min_run).unwrap();
            let mut b = SegmentBuilder::new(threshold, min_run);
            for &v in &series {
                b.push(v);
            }
            // `runs` counts the unsmoothed runs, so it exceeds the
            // interval count exactly when smoothing changed something.
            let raw = segment_intervals(&series, threshold, 1).unwrap();
            prop_assert_eq!(b.runs(), raw.intervals().len());
            prop_assert_eq!(b.runs() > batch.intervals().len(), raw != batch);
            prop_assert_eq!(b.finish().unwrap(), batch);
        }
    }

    proptest! {
        #[test]
        fn prop_intervals_partition_series(
            series in proptest::collection::vec(0.0..100.0f64, 1..300),
            threshold in 0.0..100.0f64,
            min_run in 1usize..5,
        ) {
            let seg = segment_intervals(&series, threshold, min_run).unwrap();
            let total: usize = seg.intervals().iter().map(|i| i.len).sum();
            prop_assert_eq!(total, series.len());
            // Intervals alternate in kind and are contiguous.
            let mut pos = 0;
            for w in seg.intervals().windows(2) {
                prop_assert!(w[0].kind != w[1].kind);
            }
            for iv in seg.intervals() {
                prop_assert_eq!(iv.start, pos);
                pos += iv.len;
            }
        }

        #[test]
        fn prop_active_fraction_bounded(
            series in proptest::collection::vec(0.0..100.0f64, 1..300),
            threshold in 0.0..100.0f64,
        ) {
            let seg = segment_intervals(&series, threshold, 1).unwrap();
            let f = seg.active_fraction();
            prop_assert!((0.0..=1.0).contains(&f));
        }

        #[test]
        fn prop_no_short_interior_runs_after_smoothing(
            series in proptest::collection::vec(0.0..100.0f64, 10..200),
            min_run in 2usize..4,
        ) {
            let seg = segment_intervals(&series, 50.0, min_run).unwrap();
            // After merging, only a single remaining interval may be short.
            if seg.intervals().len() > 1 {
                for iv in seg.intervals() {
                    prop_assert!(iv.len >= min_run);
                }
            }
        }
    }
}
