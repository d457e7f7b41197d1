//! Fig. 13 / Sec. V — multi-GPU job sizes, GPU-hour footprint, per-size
//! queue waits, and the Philly cross-system comparison.

use crate::figures::Figure;
use crate::paper::fig13 as paper;
use crate::report::Comparison;
use crate::svg::bar_chart;
use crate::userstats::UserStats;
use crate::view::GpuJobView;
use sc_stats::{Ecdf, StatsError};

/// Job-size buckets in the paper's presentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeBucket {
    /// Exactly one GPU.
    One,
    /// Exactly two GPUs.
    Two,
    /// Three to eight GPUs.
    ThreeToEight,
    /// Nine or more GPUs.
    NinePlus,
}

impl SizeBucket {
    /// All buckets in order.
    pub const ALL: [SizeBucket; 4] =
        [SizeBucket::One, SizeBucket::Two, SizeBucket::ThreeToEight, SizeBucket::NinePlus];

    /// The bucket for a GPU count.
    pub fn of(gpus: u32) -> SizeBucket {
        match gpus {
            0 | 1 => SizeBucket::One,
            2 => SizeBucket::Two,
            3..=8 => SizeBucket::ThreeToEight,
            _ => SizeBucket::NinePlus,
        }
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            SizeBucket::One => "1 GPU",
            SizeBucket::Two => "2 GPUs",
            SizeBucket::ThreeToEight => "3-8 GPUs",
            SizeBucket::NinePlus => ">8 GPUs",
        }
    }
}

/// One bucket's statistics.
#[derive(Debug, Clone)]
pub struct SizeRow {
    /// The bucket.
    pub bucket: SizeBucket,
    /// Fraction of jobs (Fig. 13a).
    pub job_share: f64,
    /// Fraction of total GPU hours (Fig. 13b).
    pub hours_share: f64,
    /// Median queue wait, seconds (Sec. V's unplotted table).
    pub median_wait_secs: f64,
}

/// The full multi-GPU characterization.
#[derive(Debug, Clone)]
pub struct Fig13 {
    /// Per-bucket rows.
    pub rows: Vec<SizeRow>,
    /// Share of GPU hours from multi-GPU jobs.
    pub multi_gpu_hours_share: f64,
    /// Fraction of users who ran at least one multi-GPU job.
    pub users_with_multi_gpu: f64,
    /// Fraction of users who ran jobs of three or more GPUs.
    pub users_with_3_gpus: f64,
    /// Fraction of users who ran jobs of nine or more GPUs.
    pub users_with_9_gpus: f64,
}

impl Fig13 {
    /// Computes the figure.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] when `views` or `stats` is
    /// empty.
    pub fn try_compute(views: &[GpuJobView<'_>], stats: &[UserStats]) -> Result<Self, StatsError> {
        if views.is_empty() || stats.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let total_jobs = views.len() as f64;
        let total_hours: f64 = views.iter().map(|v| v.gpu_hours()).sum();
        let mut rows = Vec::with_capacity(SizeBucket::ALL.len());
        for &bucket in SizeBucket::ALL.iter() {
            let in_bucket: Vec<&GpuJobView> =
                views.iter().filter(|v| SizeBucket::of(v.sched.gpus_requested) == bucket).collect();
            let hours: f64 = in_bucket.iter().map(|v| v.gpu_hours()).sum();
            let median_wait = if in_bucket.is_empty() {
                0.0
            } else {
                Ecdf::new(in_bucket.iter().map(|v| v.sched.queue_wait()).collect())?.median()
            };
            rows.push(SizeRow {
                bucket,
                job_share: in_bucket.len() as f64 / total_jobs,
                hours_share: if total_hours > 0.0 { hours / total_hours } else { 0.0 },
                median_wait_secs: median_wait,
            });
        }
        let multi_hours: f64 =
            views.iter().filter(|v| v.sched.gpus_requested > 1).map(|v| v.gpu_hours()).sum();
        let users = stats.len() as f64;
        Ok(Fig13 {
            rows,
            multi_gpu_hours_share: if total_hours > 0.0 { multi_hours / total_hours } else { 0.0 },
            users_with_multi_gpu: stats.iter().filter(|s| s.max_gpus > 1).count() as f64 / users,
            users_with_3_gpus: stats.iter().filter(|s| s.max_gpus >= 3).count() as f64 / users,
            users_with_9_gpus: stats.iter().filter(|s| s.max_gpus >= 9).count() as f64 / users,
        })
    }

    /// The row for one bucket.
    ///
    /// # Panics
    ///
    /// Panics if the bucket is missing (cannot happen).
    pub fn row(&self, bucket: SizeBucket) -> &SizeRow {
        self.rows.iter().find(|r| r.bucket == bucket).expect("all buckets present")
    }
}

impl Figure for Fig13 {
    /// Paper-vs-measured rows.
    fn comparisons(&self) -> Vec<Comparison> {
        let above_two =
            self.row(SizeBucket::ThreeToEight).job_share + self.row(SizeBucket::NinePlus).job_share;
        vec![
            Comparison::new(
                "single-GPU job share",
                paper::SINGLE_GPU_FRACTION,
                self.row(SizeBucket::One).job_share,
                "frac",
            ),
            Comparison::new(">2-GPU job share", paper::ABOVE_2_GPU_FRACTION, above_two, "frac"),
            Comparison::new(
                "multi-GPU share of GPU hours",
                paper::MULTI_GPU_HOURS_SHARE,
                self.multi_gpu_hours_share,
                "frac",
            ),
            Comparison::new(
                "users with a multi-GPU job",
                paper::USERS_WITH_MULTI_GPU,
                self.users_with_multi_gpu,
                "frac",
            ),
            Comparison::new(
                "users with a ≥3-GPU job",
                paper::USERS_WITH_3_GPU,
                self.users_with_3_gpus,
                "frac",
            ),
            Comparison::new(
                "users with a ≥9-GPU job",
                paper::USERS_WITH_9_GPU,
                self.users_with_9_gpus,
                "frac",
            ),
            Comparison::new(
                "median wait, 1-GPU jobs",
                paper::WAIT_1GPU_MEDIAN_S,
                self.row(SizeBucket::One).median_wait_secs,
                "s",
            ),
        ]
    }

    /// Renders the panels as text.
    fn render(&self) -> String {
        let mut s = String::from(
            "Fig. 13 job sizes:\n  bucket      jobs%   GPU-hours%   median wait (s)\n",
        );
        for r in &self.rows {
            s.push_str(&format!(
                "  {:<10} {:>6.2}  {:>10.2}  {:>8.1}\n",
                r.bucket.label(),
                r.job_share * 100.0,
                r.hours_share * 100.0,
                r.median_wait_secs
            ));
        }
        s.push_str(&format!(
            "  multi-GPU GPU-hour share: {:.1}%\n  users with multi-GPU job: {:.1}%; ≥3 GPUs: \
             {:.1}%; ≥9 GPUs: {:.1}%\n",
            self.multi_gpu_hours_share * 100.0,
            self.users_with_multi_gpu * 100.0,
            self.users_with_3_gpus * 100.0,
            self.users_with_9_gpus * 100.0
        ));
        s
    }

    fn svgs(&self) -> Vec<(&'static str, String)> {
        let bars: Vec<_> =
            self.rows.iter().map(|r| (r.bucket.label().to_string(), r.job_share)).collect();
        vec![("fig13a_sizes.svg", bar_chart("Fig. 13 — job sizes", "fraction of jobs", &bars))]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::{small_user_stats, small_views};

    #[test]
    fn buckets_partition_jobs_and_hours() {
        let views = small_views();
        let stats = small_user_stats();
        let fig = Fig13::try_compute(&views, &stats).unwrap();
        let jobs: f64 = fig.rows.iter().map(|r| r.job_share).sum();
        let hours: f64 = fig.rows.iter().map(|r| r.hours_share).sum();
        assert!((jobs - 1.0).abs() < 1e-9);
        assert!((hours - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_gpu_dominates_jobs_but_not_hours() {
        let views = small_views();
        let stats = small_user_stats();
        let fig = Fig13::try_compute(&views, &stats).unwrap();
        let single = fig.row(SizeBucket::One);
        assert!((single.job_share - 0.84).abs() < 0.06, "single share {}", single.job_share);
        // Multi-GPU jobs consume a disproportionate share of hours.
        assert!(
            fig.multi_gpu_hours_share > 1.5 * (1.0 - single.job_share),
            "multi hours {} vs multi jobs {}",
            fig.multi_gpu_hours_share,
            1.0 - single.job_share
        );
    }

    #[test]
    fn majority_of_users_touch_multi_gpu() {
        let views = small_views();
        let stats = small_user_stats();
        let fig = Fig13::try_compute(&views, &stats).unwrap();
        assert!(fig.users_with_multi_gpu > 0.25, "{}", fig.users_with_multi_gpu);
        assert!(fig.users_with_9_gpus < fig.users_with_3_gpus);
        assert!(fig.users_with_3_gpus < fig.users_with_multi_gpu);
    }

    #[test]
    fn waits_do_not_grow_with_size() {
        let views = small_views();
        let stats = small_user_stats();
        let fig = Fig13::try_compute(&views, &stats).unwrap();
        // "multi-GPU jobs … do not experience an increase in wait times
        // in proportion to their sizes" — all medians are tiny.
        for r in &fig.rows {
            assert!(r.median_wait_secs < 120.0, "{} wait {}", r.bucket.label(), r.median_wait_secs);
        }
        assert!(fig.render().contains("Fig. 13"));
        assert_eq!(fig.comparisons().len(), 7);
    }

    #[test]
    fn bucket_mapping() {
        assert_eq!(SizeBucket::of(1), SizeBucket::One);
        assert_eq!(SizeBucket::of(2), SizeBucket::Two);
        assert_eq!(SizeBucket::of(3), SizeBucket::ThreeToEight);
        assert_eq!(SizeBucket::of(8), SizeBucket::ThreeToEight);
        assert_eq!(SizeBucket::of(9), SizeBucket::NinePlus);
        assert_eq!(SizeBucket::of(32), SizeBucket::NinePlus);
    }
}
