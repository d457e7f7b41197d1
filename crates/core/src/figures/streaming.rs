//! Streaming-telemetry cross-validation — the streaming-engine
//! extension.
//!
//! Not a figure of the HPCA 2022 paper. The streaming telemetry rewrite
//! folds per-job aggregates into O(aggregate state) summaries while the
//! epilogs are still in flight ([`sc_telemetry::TelemetryStreamSummary`]),
//! instead of materializing every sample series first. This figure
//! closes the loop on that claim: every streamed aggregate is re-derived
//! from the materialized dataset — the batch ground truth the figures
//! consume — and the pair is compared under the aggregator's documented
//! error law: exact for counts and histogram tail bins, summation-order
//! rounding (1e-9 relative) for Welford means, and the sketch's
//! configured relative accuracy `alpha` for quantiles.

use crate::figures::Figure;
use crate::view::gpu_views;
use sc_cluster::SimOutput;
use sc_stats::StatsError;

/// Slack absorbing float noise on top of each row's documented bound:
/// the sketch bound is tight only up to rounding in `gamma.powi`, and
/// exact-count rows compare integers through f64.
const BOUND_SLACK: f64 = 1e-9;

/// One streamed-vs-batch check.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamCheck {
    /// Metric name, matching the summary's render keys where one exists.
    pub metric: &'static str,
    /// The one-pass streamed value.
    pub streamed: f64,
    /// The same statistic re-derived from the materialized dataset.
    pub batch: f64,
    /// Documented relative error bound (`0.0` for exact aggregates).
    pub bound: f64,
}

impl StreamCheck {
    /// Relative error of the streamed value against the batch value
    /// (absolute error when the batch value is zero).
    pub fn rel_err(&self) -> f64 {
        let denom = self.batch.abs();
        let err = (self.streamed - self.batch).abs();
        if denom > 0.0 {
            err / denom
        } else {
            err
        }
    }

    /// Whether the row honours its error bound.
    pub fn pass(&self) -> bool {
        self.rel_err() <= self.bound + BOUND_SLACK
    }
}

/// The streamed summary next to its batch re-derivation.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingTelemetryFig {
    /// The streamed summary's stable text rendering.
    pub summary_text: String,
    /// Per-aggregate cross-checks.
    pub checks: Vec<StreamCheck>,
}

impl StreamingTelemetryFig {
    /// Computes the cross-validation from a simulation output.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] when the streamed summary
    /// holds no GPU jobs.
    pub fn try_compute(out: &SimOutput) -> Result<Self, StatsError> {
        let summary = &out.telemetry_summary;
        if summary.gpu_jobs == 0 {
            return Err(StatsError::EmptyInput);
        }
        let views = gpu_views(&out.dataset);
        let mut checks = vec![StreamCheck {
            metric: "gpu_jobs",
            streamed: summary.gpu_jobs as f64,
            batch: views.len() as f64,
            bound: 0.0,
        }];

        // Run-time quantiles: the sketch guarantees relative accuracy
        // alpha against the exact lower-nearest-rank quantile.
        let mut run_times: Vec<f64> = views.iter().map(|v| v.sched.run_time()).collect();
        run_times.sort_by(f64::total_cmp);
        let exact_q = |q: f64| run_times[(q * (run_times.len() - 1) as f64).floor() as usize];
        for (metric, q) in [("run_time_p50_s", 0.5), ("run_time_p95_s", 0.95)] {
            if let Some(streamed) = summary.run_time.quantile(q) {
                checks.push(StreamCheck {
                    metric,
                    streamed,
                    batch: exact_q(q),
                    bound: summary.run_time.alpha(),
                });
            }
        }

        // Welford means vs the naive batch fold over the same per-job
        // values: identical up to summation-order rounding.
        let job_mean = |f: &dyn Fn(&crate::view::GpuJobView) -> f64| {
            views.iter().map(f).sum::<f64>() / views.len() as f64
        };
        if let Some(streamed) = summary.sm_mean.mean() {
            checks.push(StreamCheck {
                metric: "sm_mean_pct",
                streamed,
                batch: job_mean(&|v| {
                    v.per_gpu.iter().map(|a| a.sm_util.mean).sum::<f64>() / v.per_gpu.len() as f64
                }),
                bound: 1e-9,
            });
        }
        if let Some(streamed) = summary.power_mean.mean() {
            checks.push(StreamCheck {
                metric: "power_mean_w",
                streamed,
                batch: job_mean(&|v| {
                    v.per_gpu.iter().map(|a| a.power_w.mean).sum::<f64>() / v.per_gpu.len() as f64
                }),
                bound: 1e-9,
            });
        }

        // Histogram tail: bin edges land on exact f64 values, so the
        // saturated-job count must match the batch count exactly.
        let saturated_streamed: u64 = summary
            .sm_peak
            .counts()
            .iter()
            .enumerate()
            .filter(|(i, _)| summary.sm_peak.bin_lo(*i) >= 95.0)
            .map(|(_, c)| c)
            .sum::<u64>()
            + summary.sm_peak.above();
        let saturated_batch = views
            .iter()
            .filter(|v| v.per_gpu.iter().map(|a| a.sm_util.max).fold(0.0, f64::max) >= 95.0)
            .count();
        checks.push(StreamCheck {
            metric: "sm_peak_ge95_jobs",
            streamed: saturated_streamed as f64,
            batch: saturated_batch as f64,
            bound: 0.0,
        });

        checks.push(StreamCheck {
            metric: "detailed_jobs",
            streamed: summary.detailed_jobs as f64,
            batch: out.detailed.len() as f64,
            bound: 0.0,
        });
        if let Some(streamed) = summary.active_fraction.mean() {
            let batch = out.detailed.iter().map(|d| d.phases.active_fraction).sum::<f64>()
                / out.detailed.len() as f64;
            checks.push(StreamCheck {
                metric: "active_fraction_mean",
                streamed,
                batch,
                bound: 1e-9,
            });
        }

        Ok(StreamingTelemetryFig { summary_text: summary.render(), checks })
    }

    /// Whether every check honours its bound.
    pub fn passes(&self) -> bool {
        self.checks.iter().all(StreamCheck::pass)
    }
}

impl Figure for StreamingTelemetryFig {
    /// Renders the summary and the check table as stable text.
    fn render(&self) -> String {
        let mut s =
            String::from("Streaming telemetry (one-pass aggregates vs materialized batch):\n");
        for line in self.summary_text.lines() {
            s.push_str(&format!("  {line}\n"));
        }
        s.push_str("  check                   streamed        batch      rel err   bound\n");
        for c in &self.checks {
            s.push_str(&format!(
                "  {:<20} {:>13.4} {:>12.4} {:>12.2e} {:>7.0e} {}\n",
                c.metric,
                c.streamed,
                c.batch,
                c.rel_err(),
                c.bound,
                if c.pass() { "ok" } else { "FAIL" }
            ));
        }
        s.push_str(&format!(
            "  all checks within bounds: {}\n",
            if self.passes() { "yes" } else { "NO" }
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::small_sim;

    #[test]
    fn streamed_aggregates_match_batch_rederivation() {
        let fig = StreamingTelemetryFig::try_compute(small_sim()).unwrap();
        assert!(fig.checks.len() >= 7, "all aggregates must be checked: {fig:?}");
        for c in &fig.checks {
            assert!(c.pass(), "{} off by {:.3e} (bound {:.0e})", c.metric, c.rel_err(), c.bound);
        }
        // The exact rows really are exact, not just within slack.
        for metric in ["gpu_jobs", "sm_peak_ge95_jobs", "detailed_jobs"] {
            let c = fig.checks.iter().find(|c| c.metric == metric).expect("row present");
            assert_eq!(c.streamed, c.batch, "{metric} must match exactly");
        }
    }

    #[test]
    fn render_is_stable_and_flags_passes() {
        let a = StreamingTelemetryFig::try_compute(small_sim()).unwrap();
        let b = StreamingTelemetryFig::try_compute(small_sim()).unwrap();
        assert_eq!(a.render(), b.render());
        assert!(a.render().contains("all checks within bounds: yes"));
    }

    #[test]
    fn empty_summary_is_an_error() {
        let mut out = small_sim().clone();
        out.telemetry_summary = sc_telemetry::TelemetryStreamSummary::new();
        assert!(matches!(StreamingTelemetryFig::try_compute(&out), Err(StatsError::EmptyInput)));
    }
}
