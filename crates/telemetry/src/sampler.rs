//! The 100 ms GPU sampler of Sec. II.
//!
//! "The CPU time series data is collected at 10-second intervals and the
//! GPU time series data is collected at an interval of 100ms. Both time
//! intervals were empirically chosen as a compromise between data volume
//! and usability." Every figure this reproduction draws reads the GPU
//! series, so only the GPU sampler is modelled.

use crate::aggregate::GpuAggregates;
use crate::metrics::GpuMetricSample;
use crate::source::MetricSource;

/// Default GPU sampling period: 100 ms.
pub const GPU_SAMPLE_PERIOD_SECS: f64 = 0.1;

/// The sampled GPU series of one job: one vector of samples per GPU,
/// taken at a fixed period.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuTimeSeries {
    /// Sampling period in seconds.
    pub period_secs: f64,
    /// `per_gpu[g][k]` is the sample of GPU `g` at time `k * period`.
    pub per_gpu: Vec<Vec<GpuMetricSample>>,
}

impl GpuTimeSeries {
    /// Number of samples per GPU (all GPUs are sampled in lockstep).
    pub fn len(&self) -> usize {
        self.per_gpu.first().map_or(0, Vec::len)
    }

    /// Whether no samples were taken.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-GPU end-of-job aggregates — what the epilog reduces the series
    /// to for the main dataset.
    pub fn aggregates(&self) -> Vec<GpuAggregates> {
        self.per_gpu.iter().map(|s| GpuAggregates::from_samples(s)).collect()
    }

    /// The job-level series: each instant averaged across GPUs.
    pub fn job_level_series(&self, f: impl Fn(&GpuMetricSample) -> f64) -> Vec<f64> {
        if self.per_gpu.is_empty() {
            return Vec::new();
        }
        let n = self.len();
        let g = self.per_gpu.len() as f64;
        (0..n).map(|k| self.per_gpu.iter().map(|gpu| f(&gpu[k])).sum::<f64>() / g).collect()
    }
}

/// Samples a job's GPUs at a fixed period, as the prolog-launched
/// `nvidia-smi` process does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSampler {
    period_secs: f64,
}

impl Default for GpuSampler {
    fn default() -> Self {
        GpuSampler::new()
    }
}

impl GpuSampler {
    /// A sampler at the production period of 100 ms.
    pub fn new() -> Self {
        GpuSampler { period_secs: GPU_SAMPLE_PERIOD_SECS }
    }

    /// A sampler with a custom period (the paper calls the period an
    /// empirical "compromise between data volume and usability"; the
    /// benches sweep it).
    ///
    /// # Panics
    ///
    /// Panics if `period_secs` is not strictly positive.
    pub fn with_period(period_secs: f64) -> Self {
        assert!(period_secs > 0.0, "sampling period must be positive");
        GpuSampler { period_secs }
    }

    /// Sampling period in seconds.
    pub fn period_secs(&self) -> f64 {
        self.period_secs
    }

    /// Samples `source` from t = 0 to `duration_secs`, producing the full
    /// per-GPU time series. The sample at `k * period` is taken while
    /// `k * period < duration`, matching a poller that starts with the
    /// job and is killed by the epilog.
    ///
    /// Every tick is one `gpu_state` call, with no shortcut: this is the
    /// reference the streaming producers are checked against bit for
    /// bit.
    pub fn sample_series<S: MetricSource + ?Sized>(
        &self,
        source: &S,
        duration_secs: f64,
    ) -> GpuTimeSeries {
        let n = self.sample_count(duration_secs);
        let per_gpu = (0..source.gpu_count())
            .map(|g| (0..n).map(|k| source.gpu_state(g, k as f64 * self.period_secs)).collect())
            .collect();
        GpuTimeSeries { period_secs: self.period_secs, per_gpu }
    }

    fn sample_count(&self, duration_secs: f64) -> usize {
        tick_count(duration_secs, self.period_secs)
    }
}

/// Number of ticks `k` (from 0) with `k * period < duration` — the
/// samples a poller started with the job and killed by the epilog takes.
///
/// `ceil(duration / period)` alone overshoots when the float quotient of
/// an exact tick multiple lands just above the integer (e.g. a duration
/// computed as `3.0 * 0.1` divided by `0.1` gives 3.0000000000000004,
/// whose ceil would schedule a 4th sample *at* the kill instant), so the
/// result is corrected against the defining inequality.
///
/// Public because the streaming producers ([`crate::stream`]) must
/// enumerate exactly the ticks the batch sampler would take.
pub fn tick_count(duration_secs: f64, period_secs: f64) -> usize {
    if duration_secs <= 0.0 {
        return 0;
    }
    let mut n = (duration_secs / period_secs).ceil() as usize;
    while n > 0 && (n - 1) as f64 * period_secs >= duration_secs {
        n -= 1;
    }
    while (n as f64) * period_secs < duration_secs {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ConstantSource;

    fn source(gpus: u32, sm: f64) -> ConstantSource {
        ConstantSource { gpus, gpu: GpuMetricSample { sm_util: sm, ..Default::default() } }
    }

    #[test]
    fn sample_count_matches_duration() {
        let s = GpuSampler::new();
        let series = s.sample_series(&source(1, 10.0), 1.0);
        assert_eq!(series.len(), 10);
        let series = s.sample_series(&source(1, 10.0), 0.95);
        assert_eq!(series.len(), 10); // ceil(9.5)
        let series = s.sample_series(&source(1, 10.0), 0.0);
        assert!(series.is_empty());
    }

    #[test]
    fn exact_multiple_durations_do_not_gain_a_sample() {
        // `3.0 * 0.1 = 0.30000000000000004` divided by `0.1` is
        // 3.0000000000000004, whose bare ceil would schedule a 4th
        // sample at the kill instant. The tick contract is strictly
        // `k * period < duration`.
        let s = GpuSampler::with_period(0.1);
        let duration = 3.0 * 0.1;
        let series = s.sample_series(&source(1, 10.0), duration);
        let expected = (0..).take_while(|&k| k as f64 * 0.1 < duration).count();
        assert_eq!(series.len(), expected);
        assert_eq!(series.len(), 3);
        // An exactly-representable multiple stays exact.
        let series = s.sample_series(&source(1, 10.0), 0.5);
        assert_eq!(series.len(), 5);
        // The same holds at a coarser period.
        assert_eq!(tick_count(7.0 * 10.0, 10.0), 7);
    }

    #[test]
    fn aggregates_match_series_reduction() {
        // The series folds the same samples as a poll at every tick.
        let s = GpuSampler::new();
        let src = source(2, 33.0);
        let from_series = s.sample_series(&src, 2.0).aggregates();
        let per_tick: Vec<GpuAggregates> = (0..2)
            .map(|g| {
                let mut agg = GpuAggregates::new();
                for k in 0..s.sample_count(2.0) {
                    agg.update(&src.gpu_state(g, k as f64 * s.period_secs));
                }
                agg
            })
            .collect();
        assert_eq!(from_series, per_tick);
        assert_eq!(from_series[0].sm_util.mean, 33.0);
        assert_eq!(from_series.len(), 2);
    }

    #[test]
    fn job_level_series_averages_gpus() {
        let series = GpuTimeSeries {
            period_secs: 0.1,
            per_gpu: vec![
                vec![GpuMetricSample { sm_util: 100.0, ..Default::default() }],
                vec![GpuMetricSample { sm_util: 0.0, ..Default::default() }],
            ],
        };
        let job = series.job_level_series(|s| s.sm_util);
        assert_eq!(job, vec![50.0]);
    }

    #[test]
    #[should_panic(expected = "sampling period must be positive")]
    fn rejects_zero_period() {
        let _ = GpuSampler::with_period(0.0);
    }
}
