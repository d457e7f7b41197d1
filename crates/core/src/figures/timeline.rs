//! ClusterTimeline — cluster state over the run.
//!
//! Not a figure of the HPCA 2022 paper: the paper characterizes the
//! *jobs*; this figure characterizes the *cluster they ran on*, from
//! the event-loop time-series the observability layer samples (queue
//! depth, running jobs, GPU occupancy, nodes down for repair, failure
//! and checkpoint-restore counters). It is the simulator-side analogue
//! of the system-wide telemetry dashboards the NERSC and Meta
//! follow-on studies build their reliability analyses on.

use crate::figures::Figure;
use crate::svg::{line_chart, Scale, Series};
use sc_cluster::SimOutput;
use sc_obs::TimelineSample;
use sc_stats::StatsError;

/// The cluster time-series plus its summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterTimelineFig {
    /// The sampled series, oldest first (period-bucketed; the last
    /// sample is the end-of-run state).
    pub samples: Vec<TimelineSample>,
    /// Peak jobs running at a sample point.
    pub peak_running: u64,
    /// Peak GPUs in use at a sample point.
    pub peak_gpus_in_use: u64,
    /// Mean queue depth over *every* event-loop transition (not just
    /// sample points).
    pub mean_queue_depth: f64,
    /// Largest queue depth seen at any transition.
    pub max_queue_depth: f64,
    /// Upper bound of the p90 queue-depth bucket (log₂ resolution).
    pub p90_queue_depth_bound: f64,
    /// Mean GPU occupancy (`in_use / (in_use + free)`) over samples
    /// with any GPUs visible.
    pub mean_gpu_occupancy: f64,
    /// Injected failures over the whole run.
    pub injected_failures: u64,
    /// Checkpoint restores over the whole run.
    pub checkpoint_restores: u64,
}

impl ClusterTimelineFig {
    /// Computes the figure from a simulation output.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] when the timeline has no
    /// samples.
    pub fn try_compute(out: &SimOutput) -> Result<Self, StatsError> {
        let samples = out.timeline.samples().to_vec();
        if samples.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let depth = out.timeline.queue_depth();
        let occupancies: Vec<f64> = samples
            .iter()
            .filter(|s| s.gpus_in_use + s.gpus_free > 0)
            .map(|s| s.gpus_in_use as f64 / (s.gpus_in_use + s.gpus_free) as f64)
            .collect();
        let mean_gpu_occupancy = if occupancies.is_empty() {
            0.0
        } else {
            occupancies.iter().sum::<f64>() / occupancies.len() as f64
        };
        let last = samples[samples.len() - 1];
        Ok(ClusterTimelineFig {
            peak_running: samples.iter().map(|s| s.running).max().unwrap_or(0),
            peak_gpus_in_use: samples.iter().map(|s| s.gpus_in_use).max().unwrap_or(0),
            mean_queue_depth: depth.mean().unwrap_or(0.0),
            max_queue_depth: depth.max().unwrap_or(0.0),
            p90_queue_depth_bound: depth.quantile_bound(0.9).unwrap_or(0.0),
            mean_gpu_occupancy,
            injected_failures: last.injected_failures,
            checkpoint_restores: last.checkpoint_restores,
            samples,
        })
    }

    /// `(days, value)` curves for plotting: GPUs in use, jobs running,
    /// jobs queued, and nodes down, in that order.
    pub fn curves(&self) -> [(&'static str, Vec<(f64, f64)>); 4] {
        let days = |s: &TimelineSample| s.t / 86_400.0;
        [
            ("GPUs in use", self.samples.iter().map(|s| (days(s), s.gpus_in_use as f64)).collect()),
            ("jobs running", self.samples.iter().map(|s| (days(s), s.running as f64)).collect()),
            ("jobs queued", self.samples.iter().map(|s| (days(s), s.queued as f64)).collect()),
            ("nodes down", self.samples.iter().map(|s| (days(s), s.nodes_down as f64)).collect()),
        ]
    }
}

impl Figure for ClusterTimelineFig {
    /// Renders the summary and a coarse table of the series as text.
    fn render(&self) -> String {
        let mut s = String::from("ClusterTimeline — cluster state over the run:\n");
        s.push_str(&format!(
            "  {} samples; peak {} jobs running on {} GPUs; mean GPU occupancy {:.1}%\n",
            self.samples.len(),
            self.peak_running,
            self.peak_gpus_in_use,
            self.mean_gpu_occupancy * 100.0
        ));
        s.push_str(&format!(
            "  queue depth: mean {:.2}, p90 ≤ {:.0}, max {:.0} (every event-loop transition)\n",
            self.mean_queue_depth, self.p90_queue_depth_bound, self.max_queue_depth
        ));
        s.push_str(&format!(
            "  failures injected: {}; checkpoint restores: {}\n",
            self.injected_failures, self.checkpoint_restores
        ));
        s.push_str("  day     queued  running  gpus_used  gpus_free  down\n");
        // At most 10 evenly spaced rows keeps the text report bounded.
        let step = self.samples.len().div_ceil(10);
        for sample in self.samples.iter().step_by(step.max(1)) {
            s.push_str(&format!(
                "  {:>6.1}  {:>6}  {:>7}  {:>9}  {:>9}  {:>4}\n",
                sample.t / 86_400.0,
                sample.queued,
                sample.running,
                sample.gpus_in_use,
                sample.gpus_free,
                sample.nodes_down
            ));
        }
        s
    }

    fn svgs(&self) -> Vec<(&'static str, String)> {
        let curves: Vec<_> =
            self.curves().into_iter().map(|(name, points)| Series::new(name, points)).collect();
        vec![(
            "cluster_timeline.svg",
            line_chart(
                "ClusterTimeline — cluster state over the run",
                "time (days)",
                "count",
                Scale::Linear,
                &curves,
            ),
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::small_sim;

    #[test]
    fn timeline_figure_summarizes_the_run() {
        let fig = ClusterTimelineFig::try_compute(small_sim()).unwrap();
        assert!(fig.samples.len() >= 2, "need an opening and a closing sample");
        assert!(fig.peak_running > 0);
        assert!(fig.peak_gpus_in_use > 0);
        assert!(fig.mean_gpu_occupancy > 0.0 && fig.mean_gpu_occupancy <= 1.0);
        assert!(fig.max_queue_depth >= fig.mean_queue_depth);
        // The closing sample is an empty cluster.
        let last = fig.samples.last().unwrap();
        assert_eq!(last.running, 0);
        assert_eq!(last.queued, 0);
        let text = fig.render();
        assert!(text.contains("ClusterTimeline"));
        assert!(text.contains("queue depth"));
    }

    #[test]
    fn curves_cover_the_whole_horizon() {
        let fig = ClusterTimelineFig::try_compute(small_sim()).unwrap();
        for (name, points) in fig.curves() {
            assert_eq!(points.len(), fig.samples.len(), "{name}");
            for pair in points.windows(2) {
                assert!(pair[1].0 >= pair[0].0, "{name} time must be monotone");
            }
        }
    }
}
