//! Fig. 15 — the development-life-cycle mix by job count and GPU hours.

use crate::figures::Figure;
use crate::paper::fig15 as paper;
use crate::report::Comparison;
use crate::svg::bar_chart;
use crate::view::GpuJobView;
use sc_stats::{Ecdf, StatsError};
use sc_workload::LifecycleClass;

/// One class's share of jobs and GPU hours, with median run time.
#[derive(Debug, Clone, Copy)]
pub struct ClassShare {
    /// The class.
    pub class: LifecycleClass,
    /// Share of jobs (Fig. 15a).
    pub job_share: f64,
    /// Share of GPU hours (Fig. 15b).
    pub hours_share: f64,
    /// Median run time, minutes (Sec. VI prose).
    pub median_runtime_min: f64,
}

/// The lifecycle mix.
#[derive(Debug, Clone)]
pub struct Fig15 {
    /// Per-class rows in [`LifecycleClass::ALL`] order.
    pub shares: Vec<ClassShare>,
}

impl Fig15 {
    /// Computes the mix over the analyzed GPU jobs.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] in both degenerate cases.
    pub fn try_compute(views: &[GpuJobView<'_>]) -> Result<Self, StatsError> {
        if views.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let total_jobs = views.len() as f64;
        let total_hours: f64 = views.iter().map(|v| v.gpu_hours()).sum();
        let mut shares = Vec::with_capacity(LifecycleClass::ALL.len());
        for &class in LifecycleClass::ALL.iter() {
            let in_class: Vec<&GpuJobView> = views.iter().filter(|v| v.class == class).collect();
            let hours: f64 = in_class.iter().map(|v| v.gpu_hours()).sum();
            let runtimes: Vec<f64> = in_class.iter().map(|v| v.run_minutes()).collect();
            shares.push(ClassShare {
                class,
                job_share: in_class.len() as f64 / total_jobs,
                hours_share: if total_hours > 0.0 { hours / total_hours } else { 0.0 },
                median_runtime_min: Ecdf::new(runtimes)?.median(),
            });
        }
        Ok(Fig15 { shares })
    }

    /// The row for one class.
    ///
    /// # Panics
    ///
    /// Panics if the class is missing (cannot happen).
    pub fn share(&self, class: LifecycleClass) -> &ClassShare {
        self.shares.iter().find(|s| s.class == class).expect("all classes present")
    }
}

impl Figure for Fig15 {
    /// Paper-vs-measured rows.
    fn comparisons(&self) -> Vec<Comparison> {
        use LifecycleClass::*;
        let dev_ide_hours = self.share(Development).hours_share + self.share(Ide).hours_share;
        vec![
            Comparison::new(
                "mature job share",
                paper::MATURE_JOB_SHARE,
                self.share(Mature).job_share,
                "frac",
            ),
            Comparison::new(
                "exploratory job share",
                paper::EXPLORATORY_JOB_SHARE,
                self.share(Exploratory).job_share,
                "frac",
            ),
            Comparison::new(
                "development job share",
                paper::DEVELOPMENT_JOB_SHARE,
                self.share(Development).job_share,
                "frac",
            ),
            Comparison::new(
                "IDE job share",
                paper::IDE_JOB_SHARE,
                self.share(Ide).job_share,
                "frac",
            ),
            Comparison::new(
                "mature GPU-hour share",
                paper::MATURE_HOURS_SHARE,
                self.share(Mature).hours_share,
                "frac",
            ),
            Comparison::new(
                "exploratory GPU-hour share",
                paper::EXPLORATORY_HOURS_SHARE,
                self.share(Exploratory).hours_share,
                "frac",
            ),
            Comparison::new(
                "dev+IDE GPU-hour share",
                paper::DEV_IDE_HOURS_SHARE,
                dev_ide_hours,
                "frac",
            ),
            Comparison::new(
                "IDE GPU-hour share",
                paper::IDE_HOURS_SHARE,
                self.share(Ide).hours_share,
                "frac",
            ),
            Comparison::new(
                "median mature run time",
                paper::MATURE_RUNTIME_MEDIAN_MIN,
                self.share(Mature).median_runtime_min,
                "min",
            ),
            Comparison::new(
                "median exploratory run time",
                paper::EXPLORATORY_RUNTIME_MEDIAN_MIN,
                self.share(Exploratory).median_runtime_min,
                "min",
            ),
        ]
    }

    /// Renders both panels as text.
    fn render(&self) -> String {
        let mut s = String::from(
            "Fig. 15 lifecycle mix:\n  class        jobs%   GPU-hours%   median run (min)\n",
        );
        for c in &self.shares {
            s.push_str(&format!(
                "  {:<12} {:>5.1}  {:>10.1}  {:>10.1}\n",
                c.class.to_string(),
                c.job_share * 100.0,
                c.hours_share * 100.0,
                c.median_runtime_min
            ));
        }
        s
    }

    fn svgs(&self) -> Vec<(&'static str, String)> {
        let bars: Vec<_> =
            self.shares.iter().map(|c| (c.class.to_string(), c.hours_share)).collect();
        vec![(
            "fig15_lifecycle.svg",
            bar_chart(
                "Fig. 15 — GPU-hour share by life-cycle class",
                "fraction of GPU hours",
                &bars,
            ),
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::small_views;
    use LifecycleClass::*;

    #[test]
    fn shares_are_distributions() {
        let views = small_views();
        let fig = Fig15::try_compute(&views).unwrap();
        let jobs: f64 = fig.shares.iter().map(|s| s.job_share).sum();
        let hours: f64 = fig.shares.iter().map(|s| s.hours_share).sum();
        assert!((jobs - 1.0).abs() < 1e-9);
        assert!((hours - 1.0).abs() < 1e-9);
    }

    #[test]
    fn non_mature_work_dominates_gpu_hours() {
        let views = small_views();
        let fig = Fig15::try_compute(&views).unwrap();
        // "only 39% of the GPU hours are consumed by mature jobs, while
        // 61% … by other types" — mature hours ≪ mature job share.
        let mature = fig.share(Mature);
        assert!(mature.job_share > 0.45, "mature jobs {}", mature.job_share);
        assert!(
            mature.hours_share < mature.job_share,
            "hours {} vs jobs {}",
            mature.hours_share,
            mature.job_share
        );
    }

    #[test]
    fn ide_jobs_consume_disproportionate_hours() {
        let views = small_views();
        let fig = Fig15::try_compute(&views).unwrap();
        let ide = fig.share(Ide);
        // 3.5% of jobs, 18% of hours: at least a 2.5× amplification.
        assert!(
            ide.hours_share > 2.5 * ide.job_share,
            "IDE hours {} vs jobs {}",
            ide.hours_share,
            ide.job_share
        );
    }

    #[test]
    fn exploratory_jobs_run_longer_than_mature() {
        let views = small_views();
        let fig = Fig15::try_compute(&views).unwrap();
        assert!(
            fig.share(Exploratory).median_runtime_min > fig.share(Mature).median_runtime_min * 0.8,
            "exploratory {} vs mature {}",
            fig.share(Exploratory).median_runtime_min,
            fig.share(Mature).median_runtime_min
        );
        assert!(fig.render().contains("lifecycle"));
        assert_eq!(fig.comparisons().len(), 10);
    }
}
