//! Per-user aggregate statistics shared by Figs. 10–12 and 17.

use crate::view::{views_by_user, GpuJobView};
use sc_stats::coefficient_of_variation;
use sc_telemetry::record::UserId;
use sc_workload::LifecycleClass;

/// One user's aggregate behaviour over their GPU jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct UserStats {
    /// The user.
    pub user: UserId,
    /// Number of analyzed GPU jobs.
    pub jobs: usize,
    /// Total GPU hours consumed.
    pub gpu_hours: f64,
    /// Largest GPU count across the user's jobs.
    pub max_gpus: u32,
    /// Average job run time, minutes.
    pub avg_runtime_min: f64,
    /// Average job-mean SM utilization, %.
    pub avg_sm: f64,
    /// Average job-mean memory utilization, %.
    pub avg_mem: f64,
    /// Average job-mean memory-size utilization, %.
    pub avg_mem_size: f64,
    /// CoV (%) of run times across the user's jobs (`None` for users
    /// with a single job).
    pub cov_runtime: Option<f64>,
    /// CoV (%) of SM utilization across jobs.
    pub cov_sm: Option<f64>,
    /// CoV (%) of memory utilization across jobs.
    pub cov_mem: Option<f64>,
    /// CoV (%) of memory-size utilization across jobs.
    pub cov_mem_size: Option<f64>,
    /// Job-count mix over lifecycle classes, [`LifecycleClass::ALL`]
    /// order; sums to 1.
    pub class_job_mix: [f64; 4],
    /// GPU-hour mix over lifecycle classes; sums to 1 (all zeros for a
    /// user with zero GPU hours, which cannot happen post-filter).
    pub class_hours_mix: [f64; 4],
}

/// Computes per-user statistics from the job views, ordered by user id.
///
/// Per-user reductions are independent, so they run on the `sc-par`
/// thread budget; the `BTreeMap` grouping fixes the user order before
/// the parallel stage, keeping the output identical at any thread
/// count.
pub fn user_stats(views: &[GpuJobView<'_>]) -> Vec<UserStats> {
    let groups: Vec<_> = views_by_user(views).into_iter().collect();
    sc_par::par_map(&groups, |(user, jobs)| user_stats_for(*user, jobs))
}

/// One user's reduction (the `par_map` work item).
fn user_stats_for(user: UserId, jobs: &[&GpuJobView<'_>]) -> UserStats {
    let n = jobs.len() as f64;
    let runtimes: Vec<f64> = jobs.iter().map(|v| v.run_minutes()).collect();
    let sm: Vec<f64> = jobs.iter().map(|v| v.agg.sm_util.mean).collect();
    let mem: Vec<f64> = jobs.iter().map(|v| v.agg.mem_util.mean).collect();
    let msz: Vec<f64> = jobs.iter().map(|v| v.agg.mem_size_util.mean).collect();
    let cov = |data: &[f64]| {
        if data.len() < 2 {
            None
        } else {
            coefficient_of_variation(data).ok()
        }
    };
    let mut class_jobs = [0.0; 4];
    let mut class_hours = [0.0; 4];
    let mut gpu_hours = 0.0;
    let mut max_gpus = 0;
    for v in jobs {
        let idx = LifecycleClass::ALL.iter().position(|c| *c == v.class).expect("known");
        class_jobs[idx] += 1.0;
        class_hours[idx] += v.gpu_hours();
        gpu_hours += v.gpu_hours();
        max_gpus = max_gpus.max(v.sched.gpus_requested);
    }
    for c in &mut class_jobs {
        *c /= n;
    }
    if gpu_hours > 0.0 {
        for c in &mut class_hours {
            *c /= gpu_hours;
        }
    }
    UserStats {
        user,
        jobs: jobs.len(),
        gpu_hours,
        max_gpus,
        avg_runtime_min: runtimes.iter().sum::<f64>() / n,
        avg_sm: sm.iter().sum::<f64>() / n,
        avg_mem: mem.iter().sum::<f64>() / n,
        avg_mem_size: msz.iter().sum::<f64>() / n,
        cov_runtime: cov(&runtimes),
        cov_sm: cov(&sm),
        cov_mem: cov(&mem),
        cov_mem_size: cov(&msz),
        class_job_mix: class_jobs,
        class_hours_mix: class_hours,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::small_views;

    #[test]
    fn mixes_are_normalized() {
        let views = small_views();
        let stats = user_stats(&views);
        assert!(!stats.is_empty());
        for s in &stats {
            let j: f64 = s.class_job_mix.iter().sum();
            assert!((j - 1.0).abs() < 1e-9, "job mix sums to {j}");
            let h: f64 = s.class_hours_mix.iter().sum();
            assert!((h - 1.0).abs() < 1e-9 || h == 0.0);
            assert!(s.jobs > 0);
            assert!(s.gpu_hours > 0.0);
        }
    }

    #[test]
    fn job_counts_partition_views() {
        let views = small_views();
        let stats = user_stats(&views);
        let total: usize = stats.iter().map(|s| s.jobs).sum();
        assert_eq!(total, views.len());
    }

    #[test]
    fn single_job_users_have_no_cov() {
        let views = small_views();
        for s in user_stats(&views) {
            if s.jobs == 1 {
                assert_eq!(s.cov_runtime, None);
            } else {
                assert!(s.cov_runtime.is_some());
            }
        }
    }
}
