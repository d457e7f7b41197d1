//! Fig. 10 — per-user average run time and utilization ECDFs, plus the
//! Sec. IV user-concentration statistics.

use crate::figures::Figure;
use crate::paper::{concentration, fig10 as paper};
use crate::report::{format_cdf_points, Comparison};
use crate::userstats::UserStats;
use sc_stats::{Ecdf, Lorenz, StatsError};

/// Fig. 10 panels plus the Pareto concentration numbers of Sec. IV.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// Per-user average job run time, minutes.
    pub avg_runtime_min: Ecdf,
    /// Per-user average SM utilization, %.
    pub avg_sm: Ecdf,
    /// Per-user average memory utilization, %.
    pub avg_mem: Ecdf,
    /// Per-user average memory-size utilization, %.
    pub avg_mem_size: Ecdf,
    /// Median jobs per user.
    pub median_jobs_per_user: f64,
    /// Share of jobs submitted by the top 5% of users.
    pub top5_job_share: f64,
    /// Share of jobs submitted by the top 20% of users.
    pub top20_job_share: f64,
}

impl Fig10 {
    /// Computes the figure from per-user statistics.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] when `stats` is empty and
    /// propagates Lorenz-curve domain errors.
    pub fn try_compute(stats: &[UserStats]) -> Result<Self, StatsError> {
        let jobs: Vec<f64> = stats.iter().map(|s| s.jobs as f64).collect();
        let lorenz = Lorenz::new(jobs.clone())?;
        let jobs_cdf = Ecdf::new(jobs)?;
        Ok(Fig10 {
            avg_runtime_min: Ecdf::new(stats.iter().map(|s| s.avg_runtime_min).collect())?,
            avg_sm: Ecdf::new(stats.iter().map(|s| s.avg_sm).collect())?,
            avg_mem: Ecdf::new(stats.iter().map(|s| s.avg_mem).collect())?,
            avg_mem_size: Ecdf::new(stats.iter().map(|s| s.avg_mem_size).collect())?,
            median_jobs_per_user: jobs_cdf.median(),
            top5_job_share: lorenz.top_share(0.05),
            top20_job_share: lorenz.top_share(0.20),
        })
    }
}

impl Figure for Fig10 {
    /// Paper-vs-measured rows.
    fn comparisons(&self) -> Vec<Comparison> {
        vec![
            Comparison::new(
                "median per-user avg run time",
                paper::USER_AVG_RUNTIME_MEDIAN_MIN,
                self.avg_runtime_min.median(),
                "min",
            ),
            Comparison::new(
                "p25 per-user avg run time",
                paper::USER_AVG_RUNTIME_P25_MIN,
                self.avg_runtime_min.quantile(0.25),
                "min",
            ),
            Comparison::new(
                "p75 per-user avg run time",
                paper::USER_AVG_RUNTIME_P75_MIN,
                self.avg_runtime_min.quantile(0.75),
                "min",
            ),
            Comparison::new(
                "median per-user avg SM",
                paper::USER_AVG_SM_MEDIAN,
                self.avg_sm.median(),
                "%",
            ),
            Comparison::new(
                "median per-user avg memory",
                paper::USER_AVG_MEM_MEDIAN,
                self.avg_mem.median(),
                "%",
            ),
            Comparison::new(
                "median per-user avg memory size",
                paper::USER_AVG_MEM_SIZE_MEDIAN,
                self.avg_mem_size.median(),
                "%",
            ),
            Comparison::new(
                "users with avg SM > 20%",
                paper::USER_SM_ABOVE_20_FRACTION,
                self.avg_sm.fraction_above(20.0),
                "frac",
            ),
            Comparison::new(
                "median jobs per user",
                concentration::MEDIAN_JOBS_PER_USER,
                self.median_jobs_per_user,
                "jobs",
            ),
            Comparison::new(
                "top-5% users' job share",
                concentration::TOP5_JOB_SHARE,
                self.top5_job_share,
                "frac",
            ),
            Comparison::new(
                "top-20% users' job share",
                concentration::TOP20_JOB_SHARE,
                self.top20_job_share,
                "frac",
            ),
        ]
    }

    /// Renders the panels as text.
    fn render(&self) -> String {
        format!(
            "Fig. 10 per-user average ECDFs:\n  run time (min, log grid): {}\n  SM (%): {}\n  \
             memory (%): {}\n  memory size (%): {}\nSec. IV concentration: median jobs/user \
             {:.0}, top-5% share {:.1}%, top-20% share {:.1}%\n",
            format_cdf_points(&self.avg_runtime_min.log_curve(16, 0.5), 16),
            format_cdf_points(&self.avg_sm.curve(16), 16),
            format_cdf_points(&self.avg_mem.curve(16), 16),
            format_cdf_points(&self.avg_mem_size.curve(16), 16),
            self.median_jobs_per_user,
            self.top5_job_share * 100.0,
            self.top20_job_share * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::small_user_stats;

    #[test]
    fn user_averages_exceed_job_median() {
        let stats = small_user_stats();
        let fig = Fig10::try_compute(&stats).unwrap();
        // The lognormal means pull per-user averages far above the
        // 30-minute job median — the paper's 392-minute effect.
        assert!(
            fig.avg_runtime_min.median() > 60.0,
            "per-user avg runtime median {}",
            fig.avg_runtime_min.median()
        );
    }

    #[test]
    fn activity_is_concentrated() {
        let stats = small_user_stats();
        let fig = Fig10::try_compute(&stats).unwrap();
        assert!(fig.top20_job_share > 0.5, "top-20% share {}", fig.top20_job_share);
        assert!(fig.top5_job_share < fig.top20_job_share);
        assert!(fig.median_jobs_per_user < stats.iter().map(|s| s.jobs).max().unwrap() as f64);
    }

    #[test]
    fn most_users_have_low_utilization() {
        let stats = small_user_stats();
        let fig = Fig10::try_compute(&stats).unwrap();
        // "Only 32% and 5% of the users have an average SM and memory
        // utilization of > 20%" — directionally, minorities.
        assert!(fig.avg_sm.fraction_above(20.0) < 0.6);
        assert!(fig.avg_mem.fraction_above(20.0) < 0.25);
    }

    #[test]
    fn render_and_rows() {
        let stats = small_user_stats();
        let fig = Fig10::try_compute(&stats).unwrap();
        assert!(fig.render().contains("Fig. 10"));
        assert_eq!(fig.comparisons().len(), 10);
    }
}
