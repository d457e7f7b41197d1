//! Pre-joined per-job views the figure modules consume.

use crate::classify::classify_record;
use sc_telemetry::aggregate::GpuAggregates;
use sc_telemetry::dataset::Dataset;
use sc_telemetry::record::{SchedulerRecord, UserId};
use sc_workload::LifecycleClass;
use std::collections::BTreeMap;

/// One analyzed GPU job: scheduler facts, job-level telemetry, per-GPU
/// telemetry, and the inferred lifecycle class.
#[derive(Debug, Clone)]
pub struct GpuJobView<'a> {
    /// Scheduler-side record.
    pub sched: &'a SchedulerRecord,
    /// Job-level aggregates (averaged over GPUs, Sec. II methodology),
    /// as the dataset stored them.
    pub agg: &'a GpuAggregates,
    /// Per-GPU aggregates.
    pub per_gpu: &'a [GpuAggregates],
    /// Lifecycle class inferred from the exit status.
    pub class: LifecycleClass,
}

impl GpuJobView<'_> {
    /// Run time in minutes.
    pub fn run_minutes(&self) -> f64 {
        self.sched.run_time() / 60.0
    }

    /// GPU hours consumed.
    pub fn gpu_hours(&self) -> f64 {
        self.sched.gpu_hours()
    }
}

/// Builds the view of every analyzed GPU job (post-filter, telemetry
/// present), in record order. A view borrows the job-level aggregates
/// the dataset computed when it was built, so the only per-record work
/// left is classifying the exit status.
pub fn gpu_views(dataset: &Dataset) -> Vec<GpuJobView<'_>> {
    dataset
        .gpu_jobs_with_job_level()
        .filter_map(|(r, agg)| {
            Some(GpuJobView {
                sched: &r.sched,
                agg,
                per_gpu: &r.gpu.as_ref()?.per_gpu,
                class: classify_record(&r.sched),
            })
        })
        .collect()
}

/// Groups GPU-job views by user, ordered by user id for determinism.
pub fn views_by_user<'a, 'b>(
    views: &'b [GpuJobView<'a>],
) -> BTreeMap<UserId, Vec<&'b GpuJobView<'a>>> {
    let mut map: BTreeMap<UserId, Vec<&GpuJobView>> = BTreeMap::new();
    for v in views {
        map.entry(v.sched.user).or_default().push(v);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::small_sim;

    #[test]
    fn views_cover_analyzed_gpu_jobs() {
        let out = small_sim();
        let views = gpu_views(&out.dataset);
        assert_eq!(views.len(), out.dataset.gpu_jobs().count());
        for v in &views {
            assert!(v.sched.run_time() >= 30.0);
            assert!(!v.per_gpu.is_empty());
            assert!(v.run_minutes() > 0.0);
        }
    }

    #[test]
    fn user_grouping_partitions_views() {
        let out = small_sim();
        let views = gpu_views(&out.dataset);
        let by_user = views_by_user(&views);
        let total: usize = by_user.values().map(Vec::len).sum();
        assert_eq!(total, views.len());
    }
}
