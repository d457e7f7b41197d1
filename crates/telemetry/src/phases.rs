//! Active/idle phase analysis over sampled GPU series (Figs. 6–7).
//!
//! "Our analysis of the logs reveals that the GPU jobs have 'active
//! phases' and 'idle phases.' GPU resources are used during the active
//! phases and they remain unused during the idle phases" (Sec. III).

use crate::metrics::GpuResource;
use crate::sampler::GpuTimeSeries;
use sc_stats::segment::{segment_intervals, IntervalKind, Segmentation};
use sc_stats::{coefficient_of_variation, StatsError};

/// SM-utilization threshold separating active from idle samples (%).
/// `nvidia-smi` reports integer percentages, so any strictly positive
/// reading means the SMs did work in that window.
pub const ACTIVE_SM_THRESHOLD: f64 = 0.5;

/// Minimum phase length in samples (at 100 ms this is 1 s), suppressing
/// single-sample flicker between kernel launches.
pub const MIN_PHASE_SAMPLES: usize = 10;

/// Per-job phase statistics extracted from the detailed time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseStats {
    /// Fraction of run time spent in active phases, `[0, 1]` (Fig. 6a).
    pub active_fraction: f64,
    /// CoV (%) of active-interval lengths; `None` with fewer than two
    /// active intervals (Fig. 6b).
    pub active_interval_cov: Option<f64>,
    /// CoV (%) of idle-interval lengths; `None` with fewer than two idle
    /// intervals (Fig. 6b).
    pub idle_interval_cov: Option<f64>,
    /// Number of active intervals.
    pub active_intervals: usize,
    /// Number of idle intervals.
    pub idle_intervals: usize,
}

/// Per-job utilization variability during active phases (Fig. 7a).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActiveVariability {
    /// CoV (%) of SM utilization across active-phase samples.
    pub sm_cov: f64,
    /// CoV (%) of memory-bandwidth utilization across active-phase samples.
    pub mem_cov: f64,
    /// CoV (%) of memory-size utilization across active-phase samples.
    pub mem_size_cov: f64,
}

/// Analyzes one job's time series into phase statistics.
///
/// The job-level SM series (averaged across GPUs, as the paper does for
/// multi-GPU jobs) is segmented with [`ACTIVE_SM_THRESHOLD`] and
/// [`MIN_PHASE_SAMPLES`].
///
/// # Errors
///
/// Returns an error if the series is empty.
pub fn phase_stats(series: &GpuTimeSeries) -> Result<PhaseStats, StatsError> {
    let seg = segment_job(series)?;
    Ok(PhaseStats {
        active_fraction: seg.active_fraction(),
        active_interval_cov: seg.interval_cov(IntervalKind::Active),
        idle_interval_cov: seg.interval_cov(IntervalKind::Idle),
        active_intervals: seg.count_of(IntervalKind::Active),
        idle_intervals: seg.count_of(IntervalKind::Idle),
    })
}

/// Segments the job-level SM series into active/idle intervals.
///
/// # Errors
///
/// Returns an error if the series is empty.
pub fn segment_job(series: &GpuTimeSeries) -> Result<Segmentation, StatsError> {
    let sm = series.job_level_series(|s| s.sm_util);
    segment_intervals(&sm, ACTIVE_SM_THRESHOLD, MIN_PHASE_SAMPLES)
}

/// Computes per-resource CoV over the samples inside active phases
/// (Fig. 7a: "even when the GPUs are actively being used, the
/// utilization of different GPU resources may still vary").
///
/// Returns `None` when the job has no active samples at all (an all-idle
/// job has no active-phase variability to report).
///
/// # Errors
///
/// Returns an error if the series is empty.
pub fn active_variability(series: &GpuTimeSeries) -> Result<Option<ActiveVariability>, StatsError> {
    let seg = segment_job(series)?;
    let sm = series.job_level_series(|s| s.sm_util);
    let mem = series.job_level_series(|s| s.mem_util);
    let mem_size = series.job_level_series(|s| s.mem_size_util);
    let mut active_idx: Vec<usize> = Vec::new();
    for iv in seg.intervals() {
        if iv.kind == IntervalKind::Active {
            active_idx.extend(iv.start..iv.start + iv.len);
        }
    }
    if active_idx.is_empty() {
        return Ok(None);
    }
    let pick = |s: &[f64]| -> Vec<f64> { active_idx.iter().map(|&i| s[i]).collect() };
    Ok(Some(ActiveVariability {
        sm_cov: coefficient_of_variation(&pick(&sm))?,
        mem_cov: coefficient_of_variation(&pick(&mem))?,
        mem_size_cov: coefficient_of_variation(&pick(&mem_size))?,
    }))
}

/// Whether the job's maximum recorded value of `resource` reached the
/// bottleneck criterion: "A job is considered to have a resource
/// bottleneck if the maximum job usage of that resource reaches the limit
/// at any point during the run" (Fig. 7b). The limit for utilization
/// resources is 100%; sampling quantization makes ≥ 99.5 equivalent.
pub fn is_bottlenecked(max_value: f64, resource: GpuResource) -> bool {
    match resource {
        GpuResource::Power => max_value >= crate::gpu_power::V100_TDP_W - 1.0,
        _ => max_value >= 99.5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::GpuMetricSample;

    fn series_from_sm(sm: &[f64]) -> GpuTimeSeries {
        GpuTimeSeries {
            period_secs: 0.1,
            per_gpu: vec![sm
                .iter()
                .map(|&v| GpuMetricSample {
                    sm_util: v,
                    mem_util: v / 2.0,
                    mem_size_util: v / 4.0,
                    ..Default::default()
                })
                .collect()],
        }
    }

    #[test]
    fn all_active_job() {
        let s = series_from_sm(&[80.0; 100]);
        let p = phase_stats(&s).unwrap();
        assert_eq!(p.active_fraction, 1.0);
        assert_eq!(p.active_intervals, 1);
        assert_eq!(p.idle_intervals, 0);
        assert_eq!(p.active_interval_cov, None);
    }

    #[test]
    fn alternating_job_phases() {
        // 20 active, 20 idle, 40 active, 20 idle (min phase 10 samples).
        let mut sm = Vec::new();
        sm.extend(std::iter::repeat_n(90.0, 20));
        sm.extend(std::iter::repeat_n(0.0, 20));
        sm.extend(std::iter::repeat_n(90.0, 40));
        sm.extend(std::iter::repeat_n(0.0, 20));
        let s = series_from_sm(&sm);
        let p = phase_stats(&s).unwrap();
        assert_eq!(p.active_intervals, 2);
        assert_eq!(p.idle_intervals, 2);
        assert!((p.active_fraction - 0.6).abs() < 1e-12);
        // Active lengths 20 and 40: CoV = 10/30 * 100.
        let cov = p.active_interval_cov.unwrap();
        assert!((cov - 10.0 / 30.0 * 100.0).abs() < 1e-9);
        // Idle lengths 20 and 20: CoV = 0.
        assert_eq!(p.idle_interval_cov.unwrap(), 0.0);
    }

    #[test]
    fn active_variability_over_active_samples_only() {
        let mut sm = vec![0.0; 20];
        sm.extend([50.0, 100.0, 50.0, 100.0, 50.0, 100.0, 50.0, 100.0, 50.0, 100.0]);
        let s = series_from_sm(&sm);
        let v = active_variability(&s).unwrap().unwrap();
        // Active samples are {50, 100}*5: mean 75, sd 25 -> CoV 33.3%.
        assert!((v.sm_cov - 25.0 / 75.0 * 100.0).abs() < 1e-9, "cov={}", v.sm_cov);
        assert!(v.mem_cov > 0.0 && v.mem_size_cov > 0.0);
    }

    #[test]
    fn idle_job_has_no_active_variability() {
        let s = series_from_sm(&[0.0; 50]);
        assert_eq!(active_variability(&s).unwrap(), None);
    }

    #[test]
    fn bottleneck_criteria() {
        assert!(is_bottlenecked(100.0, GpuResource::Sm));
        assert!(is_bottlenecked(99.6, GpuResource::Sm));
        assert!(!is_bottlenecked(98.0, GpuResource::Sm));
        assert!(is_bottlenecked(300.0, GpuResource::Power));
        assert!(!is_bottlenecked(250.0, GpuResource::Power));
    }
}
