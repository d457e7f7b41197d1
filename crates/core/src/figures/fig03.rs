//! Fig. 3 — run times and queue waits of GPU vs CPU jobs.

use crate::figures::Figure;
use crate::paper::fig3 as paper;
use crate::report::{format_cdf_points, Comparison};
use crate::svg::{ecdf_chart, Scale};
use sc_stats::{Ecdf, StatsError};
use sc_telemetry::dataset::Dataset;

/// Fig. 3(a): ECDFs of run times (minutes); Fig. 3(b): ECDFs of queue
/// wait as a percentage of service time.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// GPU-job run times, minutes.
    pub gpu_runtime_min: Ecdf,
    /// CPU-job run times, minutes.
    pub cpu_runtime_min: Ecdf,
    /// GPU-job queue wait as % of service time.
    pub gpu_wait_pct: Ecdf,
    /// CPU-job queue wait as % of service time.
    pub cpu_wait_pct: Ecdf,
    /// GPU-job absolute queue waits, seconds (for the "<1 minute" claim).
    pub gpu_wait_secs: Ecdf,
    /// CPU-job absolute queue waits, seconds.
    pub cpu_wait_secs: Ecdf,
}

impl Fig3 {
    /// Computes the figure from the joined dataset.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] when the dataset has no GPU
    /// or no CPU jobs, and propagates non-finite sample errors.
    pub fn try_compute(dataset: &Dataset) -> Result<Self, StatsError> {
        let gpu: Vec<&_> = dataset.records().iter().filter(|r| r.sched.is_gpu_job()).collect();
        let cpu: Vec<&_> = dataset.cpu_jobs().collect();
        if gpu.is_empty() || cpu.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let runtimes = |v: &[&sc_telemetry::record::JobRecord]| {
            v.iter().map(|r| r.sched.run_time() / 60.0).collect::<Vec<_>>()
        };
        let wait_pct = |v: &[&sc_telemetry::record::JobRecord]| {
            v.iter().map(|r| r.sched.queue_wait_percent()).collect::<Vec<_>>()
        };
        let wait_secs = |v: &[&sc_telemetry::record::JobRecord]| {
            v.iter().map(|r| r.sched.queue_wait()).collect::<Vec<_>>()
        };
        Ok(Fig3 {
            gpu_runtime_min: Ecdf::new(runtimes(&gpu))?,
            cpu_runtime_min: Ecdf::new(runtimes(&cpu))?,
            gpu_wait_pct: Ecdf::new(wait_pct(&gpu))?,
            cpu_wait_pct: Ecdf::new(wait_pct(&cpu))?,
            gpu_wait_secs: Ecdf::new(wait_secs(&gpu))?,
            cpu_wait_secs: Ecdf::new(wait_secs(&cpu))?,
        })
    }
}

impl Figure for Fig3 {
    /// Paper-vs-measured rows.
    fn comparisons(&self) -> Vec<Comparison> {
        vec![
            Comparison::new(
                "median GPU-job run time",
                paper::GPU_RUNTIME_MEDIAN_MIN,
                self.gpu_runtime_min.median(),
                "min",
            ),
            Comparison::new(
                "p25 GPU-job run time",
                paper::GPU_RUNTIME_P25_MIN,
                self.gpu_runtime_min.quantile(0.25),
                "min",
            ),
            Comparison::new(
                "p75 GPU-job run time",
                paper::GPU_RUNTIME_P75_MIN,
                self.gpu_runtime_min.quantile(0.75),
                "min",
            ),
            Comparison::new(
                "median CPU-job run time",
                paper::CPU_RUNTIME_MEDIAN_MIN,
                self.cpu_runtime_min.median(),
                "min",
            ),
            Comparison::new(
                "GPU jobs with wait <2% of service",
                paper::GPU_WAIT_UNDER_2PCT_FRACTION,
                self.gpu_wait_pct.fraction_at_most(2.0),
                "frac",
            ),
            Comparison::new(
                "GPU jobs queued under 1 min",
                paper::GPU_WAIT_UNDER_1MIN_FRACTION,
                self.gpu_wait_secs.fraction_at_most(60.0),
                "frac",
            ),
            Comparison::new(
                "CPU jobs queued over 1 min",
                paper::CPU_WAIT_OVER_1MIN_FRACTION,
                self.cpu_wait_secs.fraction_above(60.0),
                "frac",
            ),
        ]
    }

    /// Renders the figure series as text.
    fn render(&self) -> String {
        let mut s = String::from("Fig. 3(a) run-time ECDFs (log grid, minutes):\n");
        s.push_str(&format!(
            "  GPU: {}\n",
            format_cdf_points(&self.gpu_runtime_min.log_curve(24, 0.1), 24)
        ));
        s.push_str(&format!(
            "  CPU: {}\n",
            format_cdf_points(&self.cpu_runtime_min.log_curve(24, 0.1), 24)
        ));
        s.push_str("Fig. 3(b) queue wait as % of service time:\n");
        s.push_str(&format!("  GPU: {}\n", format_cdf_points(&self.gpu_wait_pct.curve(20), 20)));
        s.push_str(&format!("  CPU: {}\n", format_cdf_points(&self.cpu_wait_pct.curve(20), 20)));
        s
    }

    fn svgs(&self) -> Vec<(&'static str, String)> {
        let runtimes = [("GPU jobs", &self.gpu_runtime_min), ("CPU jobs", &self.cpu_runtime_min)];
        let waits = [("GPU jobs", &self.gpu_wait_pct), ("CPU jobs", &self.cpu_wait_pct)];
        vec![
            (
                "fig03a_runtimes.svg",
                ecdf_chart(
                    "Fig. 3(a) — run-time ECDFs",
                    "run time (min, log)",
                    Scale::Log10,
                    &runtimes,
                ),
            ),
            (
                "fig03b_waits.svg",
                ecdf_chart(
                    "Fig. 3(b) — queue wait as % of service time",
                    "wait % of service time",
                    Scale::Linear,
                    &waits,
                ),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::small_sim;

    #[test]
    fn gpu_jobs_run_longer_than_cpu_jobs() {
        let fig = Fig3::try_compute(&small_sim().dataset).unwrap();
        assert!(
            fig.gpu_runtime_min.median() > 2.0 * fig.cpu_runtime_min.median(),
            "gpu median {} vs cpu {}",
            fig.gpu_runtime_min.median(),
            fig.cpu_runtime_min.median()
        );
    }

    #[test]
    fn gpu_jobs_wait_less_than_cpu_jobs() {
        let fig = Fig3::try_compute(&small_sim().dataset).unwrap();
        // The paper's headline: GPU jobs clear the queue almost
        // instantly, CPU jobs do not.
        assert!(fig.gpu_wait_secs.fraction_at_most(60.0) > 0.9);
        assert!(fig.cpu_wait_secs.fraction_above(60.0) > fig.gpu_wait_secs.fraction_above(60.0));
    }

    #[test]
    fn render_includes_both_panels() {
        let fig = Fig3::try_compute(&small_sim().dataset).unwrap();
        let text = fig.render();
        assert!(text.contains("Fig. 3(a)"));
        assert!(text.contains("Fig. 3(b)"));
        assert_eq!(fig.comparisons().len(), 7);
    }
}
