//! Incremental feature extraction over a job's sampled GPU series.
//!
//! [`FeatureSink`] folds the job-level `[sm, mem, mem_size]` tick
//! stream into a fixed-width feature vector in one pass. It implements
//! [`Util3Sink`] with the trait's *default* `push_run` and `push_block`
//! (which unroll into per-tick `push` calls) and `sines`, so the
//! streamed fold consumes exactly the tick values the batch sampler
//! materializes, in the same order — streamed and batch-recomputed
//! feature vectors are bit-identical by construction, and `tests/`
//! proves it across seeds and thread budgets.
//!
//! The features are cheap per-tick accumulations chosen to separate
//! the hidden archetype signatures: periodicity proxies (delta
//! sign-change and total-variation rates beat an FFT at one pass and
//! zero allocation), active-phase run structure, utilization and
//! memory summary levels, and a ramp-shape ratio.

use sc_telemetry::phases::ACTIVE_SM_THRESHOLD;
use sc_telemetry::stream::Util3Sink;
use sc_workload::JobSpec;

use crate::ClassifierConfig;

/// Width of the feature vector.
pub const FEATURE_COUNT: usize = 14;

/// Feature names, index-aligned with the extracted vectors (used by
/// reports and the README matrix).
pub const FEATURE_NAMES: [&str; FEATURE_COUNT] = [
    "duration_secs",
    "active_fraction",
    "sm_mean",
    "sm_max",
    "mem_mean",
    "mem_size_mean",
    "active_run_count",
    "mean_active_run_ticks",
    "sm_total_variation_rate",
    "sm_sign_change_rate",
    "sm_active_variance",
    "ramp_ratio",
    "active_tv_rate",
    "active_sign_change_rate",
];

/// One-pass fold of a job-level utilization stream into features.
#[derive(Debug, Clone)]
pub struct FeatureSink {
    first_quarter_ticks: usize,
    ticks: u64,
    active_ticks: u64,
    sm_sum: f64,
    sm_max: f64,
    mem_sum: f64,
    mem_size_sum: f64,
    sm_sum_active: f64,
    sm_sumsq_active: f64,
    sm_sum_first_quarter: f64,
    active_runs: u64,
    in_active_run: bool,
    prev_sm: Option<f64>,
    total_variation: f64,
    sign_changes: u64,
    prev_delta_sign: i8,
    prev_active_sm: Option<f64>,
    active_deltas: u64,
    active_total_variation: f64,
    active_sign_changes: u64,
    prev_active_delta_sign: i8,
}

impl FeatureSink {
    /// Builds a sink expecting `expected_ticks` pushes (only the ramp
    /// feature's first-quarter boundary depends on it).
    pub fn new(expected_ticks: usize) -> Self {
        FeatureSink {
            first_quarter_ticks: (expected_ticks / 4).max(1),
            ticks: 0,
            active_ticks: 0,
            sm_sum: 0.0,
            sm_max: 0.0,
            mem_sum: 0.0,
            mem_size_sum: 0.0,
            sm_sum_active: 0.0,
            sm_sumsq_active: 0.0,
            sm_sum_first_quarter: 0.0,
            active_runs: 0,
            in_active_run: false,
            prev_sm: None,
            total_variation: 0.0,
            sign_changes: 0,
            prev_delta_sign: 0,
            prev_active_sm: None,
            active_deltas: 0,
            active_total_variation: 0.0,
            active_sign_changes: 0,
            prev_active_delta_sign: 0,
        }
    }

    /// Ticks consumed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Finalizes the feature vector. `duration_secs` is the job's full
    /// ground-truth duration (feature 0), which may exceed the streamed
    /// window.
    pub fn features(&self, duration_secs: f64) -> [f64; FEATURE_COUNT] {
        let n = self.ticks as f64;
        let deltas = (self.ticks.saturating_sub(1)) as f64;
        let sm_mean = if self.ticks == 0 { 0.0 } else { self.sm_sum / n };
        let active_variance = if self.active_ticks == 0 {
            0.0
        } else {
            let na = self.active_ticks as f64;
            (self.sm_sumsq_active - self.sm_sum_active * self.sm_sum_active / na) / na
        };
        let q1_ticks = (self.ticks.min(self.first_quarter_ticks as u64)) as f64;
        let q1_mean = if q1_ticks == 0.0 { 0.0 } else { self.sm_sum_first_quarter / q1_ticks };
        [
            duration_secs,
            if self.ticks == 0 { 0.0 } else { self.active_ticks as f64 / n },
            sm_mean,
            self.sm_max,
            if self.ticks == 0 { 0.0 } else { self.mem_sum / n },
            if self.ticks == 0 { 0.0 } else { self.mem_size_sum / n },
            self.active_runs as f64,
            if self.active_runs == 0 {
                0.0
            } else {
                self.active_ticks as f64 / self.active_runs as f64
            },
            if deltas == 0.0 { 0.0 } else { self.total_variation / deltas },
            if deltas == 0.0 { 0.0 } else { self.sign_changes as f64 / deltas },
            active_variance.max(0.0),
            q1_mean / (sm_mean + 1.0),
            if self.active_deltas == 0 {
                0.0
            } else {
                self.active_total_variation / self.active_deltas as f64
            },
            if self.active_deltas == 0 {
                0.0
            } else {
                self.active_sign_changes as f64 / self.active_deltas as f64
            },
        ]
    }
}

impl Util3Sink for FeatureSink {
    // Deliberately no `push_run` or `push_block` override: the defaults
    // unroll through `push`, which keeps this fold bit-identical to
    // pushing the batch-materialized series tick by tick.
    fn push(&mut self, v: [f64; 3]) {
        let [sm, mem, mem_size] = v;
        if (self.ticks as usize) < self.first_quarter_ticks {
            self.sm_sum_first_quarter += sm;
        }
        self.ticks += 1;
        self.sm_sum += sm;
        self.mem_sum += mem;
        self.mem_size_sum += mem_size;
        if sm > self.sm_max {
            self.sm_max = sm;
        }
        if sm >= ACTIVE_SM_THRESHOLD {
            self.active_ticks += 1;
            self.sm_sum_active += sm;
            self.sm_sumsq_active += sm * sm;
            if !self.in_active_run {
                self.active_runs += 1;
                self.in_active_run = true;
            }
            // Oscillation *within* active spans: this isolates the
            // wave-period signal from the active/idle duty cycle (the
            // whole-stream rates below are diluted by idle time).
            if let Some(prev) = self.prev_active_sm {
                let d = sm - prev;
                self.active_deltas += 1;
                self.active_total_variation += d.abs();
                let sign: i8 = if d > 0.0 {
                    1
                } else if d < 0.0 {
                    -1
                } else {
                    0
                };
                if sign != 0 {
                    if self.prev_active_delta_sign != 0 && sign != self.prev_active_delta_sign {
                        self.active_sign_changes += 1;
                    }
                    self.prev_active_delta_sign = sign;
                }
            }
            self.prev_active_sm = Some(sm);
        } else {
            self.in_active_run = false;
            self.prev_active_sm = None;
            self.prev_active_delta_sign = 0;
        }
        if let Some(prev) = self.prev_sm {
            let d = sm - prev;
            self.total_variation += d.abs();
            let sign: i8 = if d > 0.0 {
                1
            } else if d < 0.0 {
                -1
            } else {
                0
            };
            if sign != 0 {
                if self.prev_delta_sign != 0 && sign != self.prev_delta_sign {
                    self.sign_changes += 1;
                }
                self.prev_delta_sign = sign;
            }
        }
        self.prev_sm = Some(sm);
    }
}

/// Folds an already-materialized job-level series into features — the
/// batch counterpart the streaming path must match bit for bit.
pub fn features_of_series(series: &[[f64; 3]], duration_secs: f64) -> [f64; FEATURE_COUNT] {
    let mut sink = FeatureSink::new(series.len());
    for v in series {
        sink.push(*v);
    }
    sink.features(duration_secs)
}

/// Extracts the feature vector for one GPU job by streaming its
/// synthesized telemetry over the first
/// [`window_secs`](ClassifierConfig::window_secs) of its run.
///
/// Returns `None` for jobs without telemetry ground truth (CPU jobs).
pub fn job_features(job: &JobSpec, cfg: &ClassifierConfig) -> Option<[f64; FEATURE_COUNT]> {
    let params = job.truth_params.as_ref()?;
    let truth = job.ground_truth()?;
    let window = params.duration.min(cfg.window_secs);
    let expected = sc_telemetry::sampler::tick_count(window, cfg.period_secs);
    let mut sink = FeatureSink::new(expected);
    truth.stream_util3(window, cfg.period_secs, &mut sink);
    Some(sink.features(params.duration))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_names_match_width() {
        assert_eq!(FEATURE_NAMES.len(), FEATURE_COUNT);
    }

    #[test]
    fn empty_stream_yields_zeroed_features() {
        let f = features_of_series(&[], 123.0);
        assert_eq!(f[0], 123.0, "duration passes through");
        assert!(f[1..].iter().all(|v| *v == 0.0), "{f:?}");
    }

    #[test]
    fn square_wave_counts_runs_and_oscillation() {
        // 4 active runs of 3 ticks separated by 2 idle ticks.
        let mut series = Vec::new();
        for _ in 0..4 {
            series.extend([[40.0, 10.0, 20.0]; 3]);
            series.extend([[0.0, 0.0, 20.0]; 2]);
        }
        let f = features_of_series(&series, 20.0);
        assert_eq!(f[6], 4.0, "active runs");
        assert_eq!(f[7], 3.0, "mean run length");
        assert!((f[1] - 12.0 / 20.0).abs() < 1e-12, "active fraction");
        assert_eq!(f[3], 40.0, "sm max");
        assert!(f[8] > 0.0 && f[9] > 0.0, "oscillation measured: {f:?}");
    }

    #[test]
    fn flat_series_has_no_oscillation() {
        let f = features_of_series(&[[30.0, 5.0, 10.0]; 50], 50.0);
        assert_eq!(f[6], 1.0, "one long run");
        assert_eq!(f[8], 0.0);
        assert_eq!(f[9], 0.0);
        assert_eq!(f[10], 0.0, "zero variance");
        assert!((f[11] - 30.0 / 31.0).abs() < 1e-12, "ramp ratio of a flat series");
    }

    #[test]
    fn push_run_default_matches_per_tick_pushes() {
        let mut a = FeatureSink::new(10);
        let mut b = FeatureSink::new(10);
        a.push_run([7.0, 3.0, 5.0], 6);
        a.push([0.2, 0.1, 5.0]);
        for _ in 0..6 {
            b.push([7.0, 3.0, 5.0]);
        }
        b.push([0.2, 0.1, 5.0]);
        assert_eq!(a.features(60.0), b.features(60.0));
    }
}
