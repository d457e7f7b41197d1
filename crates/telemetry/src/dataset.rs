//! The joined dataset and the paper's filtering funnel.
//!
//! "Over the duration of our study of 125 days, 191 unique users executed
//! 74,820 jobs in total … For GPU analysis, jobs running for less than 30
//! seconds are filtered out since no activity is observed for these very
//! short jobs, and 47,120 jobs are considered. … both datasets are
//! combined using job Ids to create a single dataset" (Sec. II).

use crate::aggregate::GpuAggregates;
use crate::record::{GpuJobRecord, JobRecord, SchedulerRecord, UserId};
use crate::release;
use sc_obs::json;
use std::collections::HashMap;

/// Minimum run time for a GPU job to enter the analysis, in seconds.
pub const MIN_GPU_JOB_RUNTIME_SECS: f64 = 30.0;

/// Whether a job belongs to the analyzed population: every CPU job,
/// and every GPU job that ran at least [`MIN_GPU_JOB_RUNTIME_SECS`].
/// [`Dataset::join`] keeps exactly these records.
pub fn is_analyzed(sched: &SchedulerRecord) -> bool {
    !sched.is_gpu_job() || sched.run_time() >= MIN_GPU_JOB_RUNTIME_SECS
}

/// Counts at each stage of the dataset-construction funnel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DatasetFunnel {
    /// All jobs in the scheduler log (74,820 in the paper).
    pub total_jobs: usize,
    /// CPU-only jobs among them.
    pub cpu_jobs: usize,
    /// GPU jobs before the 30 s filter.
    pub gpu_jobs_unfiltered: usize,
    /// GPU jobs shorter than 30 s that were dropped.
    pub gpu_jobs_filtered_out: usize,
    /// GPU jobs in the analysis set (47,120 in the paper).
    pub gpu_jobs: usize,
    /// GPU jobs whose telemetry record was missing at join time
    /// (monitoring failure; kept out of GPU analyses).
    pub gpu_jobs_missing_telemetry: usize,
    /// Unique users across all jobs (191 in the paper).
    pub unique_users: usize,
}

/// The joined analysis dataset.
///
/// Besides the records and the funnel, a dataset holds the job-level
/// aggregates of every GPU job, averaged over its GPUs once when the
/// dataset is built. Nothing can change a dataset after that, so the
/// stored averages always describe its records.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    records: Vec<JobRecord>,
    funnel: DatasetFunnel,
    /// [`GpuJobRecord::job_level`] of each GPU record, in record order.
    job_level: Vec<GpuAggregates>,
}

impl Dataset {
    /// Joins scheduler records with GPU telemetry records by job id and
    /// applies the paper's 30-second GPU-job filter.
    ///
    /// CPU-only jobs are retained (Fig. 3 compares GPU and CPU jobs);
    /// GPU jobs shorter than [`MIN_GPU_JOB_RUNTIME_SECS`] are dropped
    /// entirely, as in the paper.
    ///
    /// # Panics
    ///
    /// Panics if a retained GPU record has no per-GPU aggregates (see
    /// [`GpuAggregates::average_of`]).
    pub fn join(sched: Vec<SchedulerRecord>, gpu: Vec<GpuJobRecord>) -> Self {
        let mut gpu_by_id: HashMap<_, _> = gpu.into_iter().map(|g| (g.job_id, g)).collect();
        let mut funnel = DatasetFunnel { total_jobs: sched.len(), ..Default::default() };
        let mut users: Vec<UserId> = Vec::new();
        let mut records = Vec::with_capacity(sched.len());
        for s in sched {
            users.push(s.user);
            if !s.is_gpu_job() {
                funnel.cpu_jobs += 1;
                records.push(JobRecord { sched: s, gpu: None });
                continue;
            }
            funnel.gpu_jobs_unfiltered += 1;
            if !is_analyzed(&s) {
                funnel.gpu_jobs_filtered_out += 1;
                gpu_by_id.remove(&s.job_id);
                continue;
            }
            let telemetry = gpu_by_id.remove(&s.job_id);
            if telemetry.is_none() {
                funnel.gpu_jobs_missing_telemetry += 1;
            }
            funnel.gpu_jobs += 1;
            records.push(JobRecord { sched: s, gpu: telemetry });
        }
        users.sort();
        users.dedup();
        funnel.unique_users = users.len();
        Dataset::from_parts(records, funnel)
    }

    /// Averages every GPU record's per-GPU aggregates into its stored
    /// job-level aggregates.
    pub(crate) fn from_parts(records: Vec<JobRecord>, funnel: DatasetFunnel) -> Dataset {
        let job_level =
            records.iter().filter_map(|r| r.gpu.as_ref()).map(GpuJobRecord::job_level).collect();
        Dataset { records, funnel, job_level }
    }

    /// All retained records (CPU and GPU jobs).
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// The funnel counts.
    pub fn funnel(&self) -> DatasetFunnel {
        self.funnel
    }

    /// GPU jobs with telemetry — the population of every GPU figure.
    pub fn gpu_jobs(&self) -> impl Iterator<Item = &JobRecord> {
        self.records.iter().filter(|r| r.gpu.is_some())
    }

    /// [`Dataset::gpu_jobs`], each paired with its job-level aggregates
    /// ("the average over multiple GPUs", Sec. II), which the dataset
    /// computed once when it was built.
    pub fn gpu_jobs_with_job_level(&self) -> impl Iterator<Item = (&JobRecord, &GpuAggregates)> {
        self.gpu_jobs().zip(&self.job_level)
    }

    /// CPU-only jobs (Fig. 3 comparison population).
    pub fn cpu_jobs(&self) -> impl Iterator<Item = &JobRecord> {
        self.records.iter().filter(|r| !r.sched.is_gpu_job())
    }

    /// Groups GPU jobs by user, preserving record references.
    pub fn gpu_jobs_by_user(&self) -> HashMap<UserId, Vec<&JobRecord>> {
        let mut map: HashMap<UserId, Vec<&JobRecord>> = HashMap::new();
        for r in self.gpu_jobs() {
            map.entry(r.sched.user).or_default().push(r);
        }
        map
    }

    /// The dataset in the JSON release format (see [`crate::release`]):
    /// the records and the funnel. The paper published its dataset at
    /// dcc.mit.edu; this is the equivalent artifact for the synthetic
    /// reproduction.
    pub fn to_json(&self) -> String {
        release::write(&self.records, &self.funnel)
    }

    /// Loads a dataset written by [`Dataset::to_json`], deriving the
    /// job-level aggregates again.
    ///
    /// # Errors
    ///
    /// A [`json::Error`] naming the byte offset of the first problem:
    /// malformed JSON, a missing, repeated or mistyped member, a GPU
    /// record with no per-GPU aggregates to average, or a funnel whose
    /// counts disagree with the records.
    pub fn from_json(json: &str) -> Result<Dataset, json::Error> {
        let (records, funnel) = release::read(json)?;
        Ok(Dataset::from_parts(records, funnel))
    }

    /// Serializes the dataset as a flat CSV table, one row per job with
    /// the job-level min/mean/max of every GPU metric — the shape of the
    /// per-job summary the paper's release distributes. CPU-only jobs
    /// have empty GPU columns.
    pub fn to_csv(&self) -> String {
        let mut s = String::from(
            "job_id,user,interface,gpus,cpus,mem_gib,submit,start,end,time_limit,exit,\
             sm_min,sm_mean,sm_max,mem_min,mem_mean,mem_max,\
             memsize_min,memsize_mean,memsize_max,\
             pcie_tx_mean,pcie_tx_max,pcie_rx_mean,pcie_rx_max,\
             power_min,power_mean,power_max\n",
        );
        let mut job_level = self.job_level.iter();
        for r in &self.records {
            let j = &r.sched;
            s.push_str(&format!(
                "{},{},{},{},{},{:.1},{:.1},{:.1},{:.1},{:.0},{}",
                j.job_id.0,
                j.user.0,
                j.interface,
                j.gpus_requested,
                j.cpus_requested,
                j.mem_requested_gib,
                j.submit_time,
                j.start_time,
                j.end_time,
                j.time_limit,
                j.exit
            ));
            let agg = if r.gpu.is_some() { job_level.next() } else { None };
            let tail = match agg {
                Some(a) => {
                    let f = |x: f64| if x.is_finite() { format!("{x:.3}") } else { String::new() };
                    format!(
                        ",{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                        f(a.sm_util.min),
                        f(a.sm_util.mean),
                        f(a.sm_util.max),
                        f(a.mem_util.min),
                        f(a.mem_util.mean),
                        f(a.mem_util.max),
                        f(a.mem_size_util.min),
                        f(a.mem_size_util.mean),
                        f(a.mem_size_util.max),
                        f(a.pcie_tx.mean),
                        f(a.pcie_tx.max),
                        f(a.pcie_rx.mean),
                        f(a.pcie_rx.max),
                        f(a.power_w.min),
                        f(a.power_w.mean),
                        f(a.power_w.max),
                    )
                }
                None => ",".repeat(16),
            };
            s.push_str(&tail);
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ExitStatus, JobId, SubmissionInterface};

    fn sched(id: u64, user: u32, gpus: u32, run_secs: f64) -> SchedulerRecord {
        SchedulerRecord {
            job_id: JobId(id),
            user: UserId(user),
            interface: SubmissionInterface::Other,
            gpus_requested: gpus,
            cpus_requested: 4,
            mem_requested_gib: 16.0,
            submit_time: 0.0,
            start_time: 10.0,
            end_time: 10.0 + run_secs,
            time_limit: 86_400.0,
            exit: ExitStatus::Completed,
        }
    }

    fn gpu_rec(id: u64, gpus: usize) -> GpuJobRecord {
        GpuJobRecord { job_id: JobId(id), per_gpu: vec![GpuAggregates::new(); gpus] }
    }

    /// A GPU record whose GPUs saw different samples, so averaging them
    /// is not the identity.
    fn sampled_gpu_rec(id: u64, gpus: usize) -> GpuJobRecord {
        let per_gpu = (0..gpus)
            .map(|g| {
                let mut a = GpuAggregates::new();
                for k in 0..3 {
                    let x = (id * 7 + g as u64 * 3 + k) as f64 / 3.0;
                    a.update(&crate::metrics::GpuMetricSample {
                        sm_util: x,
                        mem_util: x / 2.0,
                        mem_size_util: 100.0 - x,
                        pcie_tx: x * 0.1,
                        pcie_rx: x * 0.2,
                        power_w: 50.0 + x,
                    });
                }
                a
            })
            .collect();
        GpuJobRecord { job_id: JobId(id), per_gpu }
    }

    /// Every float and count of `a`, as bits.
    fn bits(a: &GpuAggregates) -> Vec<u64> {
        [a.sm_util, a.mem_util, a.mem_size_util, a.pcie_tx, a.pcie_rx, a.power_w]
            .iter()
            .flat_map(|x| [x.min.to_bits(), x.mean.to_bits(), x.max.to_bits(), x.count])
            .collect()
    }

    /// The stored aggregates are `GpuJobRecord::job_level` bit for bit,
    /// one per GPU job, in record order.
    fn assert_job_level_matches(ds: &Dataset) {
        let stored: Vec<_> = ds.gpu_jobs_with_job_level().collect();
        assert_eq!(stored.len(), ds.gpu_jobs().count());
        for ((r, agg), g) in stored.into_iter().zip(ds.gpu_jobs()) {
            assert_eq!(r.sched, g.sched);
            let gpu = r.gpu.as_ref().expect("a GPU job");
            assert_eq!(bits(agg), bits(&gpu.job_level()), "{}", gpu.job_id);
        }
    }

    #[test]
    fn join_filters_short_gpu_jobs() {
        let sched_recs = vec![
            sched(1, 1, 2, 600.0),
            sched(2, 1, 1, 10.0), // < 30 s: dropped
            sched(3, 2, 0, 5.0),  // CPU job: kept regardless of duration
        ];
        let gpu_recs = vec![sampled_gpu_rec(1, 2), sampled_gpu_rec(2, 1)];
        let ds = Dataset::join(sched_recs, gpu_recs);
        let f = ds.funnel();
        assert_eq!(f.total_jobs, 3);
        assert_eq!(f.cpu_jobs, 1);
        assert_eq!(f.gpu_jobs_unfiltered, 2);
        assert_eq!(f.gpu_jobs_filtered_out, 1);
        assert_eq!(f.gpu_jobs, 1);
        assert_eq!(f.unique_users, 2);
        assert_eq!(ds.records().len(), 2);
        assert_eq!(ds.gpu_jobs().count(), 1);
        assert_eq!(ds.cpu_jobs().count(), 1);
        assert_job_level_matches(&ds);
    }

    #[test]
    fn missing_telemetry_is_counted() {
        let ds = Dataset::join(vec![sched(1, 1, 2, 600.0)], vec![]);
        assert_eq!(ds.funnel().gpu_jobs_missing_telemetry, 1);
        assert_eq!(ds.funnel().gpu_jobs, 1);
        // Record retained but without GPU data, so GPU analyses skip it.
        assert_eq!(ds.gpu_jobs().count(), 0);
    }

    #[test]
    fn by_user_grouping() {
        let sched_recs = vec![sched(1, 7, 1, 100.0), sched(2, 7, 1, 100.0), sched(3, 8, 1, 100.0)];
        let gpu_recs = vec![gpu_rec(1, 1), gpu_rec(2, 1), gpu_rec(3, 1)];
        let ds = Dataset::join(sched_recs, gpu_recs);
        let by_user = ds.gpu_jobs_by_user();
        assert_eq!(by_user[&UserId(7)].len(), 2);
        assert_eq!(by_user[&UserId(8)].len(), 1);
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let sched_recs = vec![
            sched(1, 1, 1, 600.0),
            sched(2, 2, 0, 120.0),
            sched(3, 2, 3, 700.0),
            sched(5, 3, 1, 60.0), // no telemetry
            sched(4, 3, 2, 800.0),
        ];
        let gpu_recs = vec![gpu_rec(1, 1), sampled_gpu_rec(3, 3), sampled_gpu_rec(4, 2)];
        let ds = Dataset::join(sched_recs, gpu_recs);
        let json = ds.to_json();
        let back = Dataset::from_json(&json).expect("parseable");
        assert_eq!(back.funnel(), ds.funnel());
        assert_eq!(back.records().len(), ds.records().len());
        for (a, b) in back.records().iter().zip(ds.records()) {
            assert_eq!(a.sched, b.sched);
            assert_eq!(a.gpu, b.gpu);
        }
        // The JSON holds only the records and the funnel; the loaded
        // dataset derives the same job-level aggregates again.
        assert!(json.starts_with("{\"records\":[") && json.contains("],\"funnel\":{"));
        assert_job_level_matches(&back);
        for ((_, a), (_, b)) in back.gpu_jobs_with_job_level().zip(ds.gpu_jobs_with_job_level()) {
            assert_eq!(bits(a), bits(b));
        }
        assert_eq!(back.to_json(), json);
        assert!(Dataset::from_json("not json").is_err());
    }

    #[test]
    fn csv_has_one_row_per_job_and_consistent_columns() {
        let sched_recs = vec![
            sched(1, 1, 1, 600.0),
            sched(2, 2, 0, 120.0),
            sched(3, 2, 2, 300.0), // no telemetry
            sched(4, 3, 2, 900.0),
        ];
        let gpu_recs = vec![gpu_rec(1, 1), sampled_gpu_rec(4, 2)];
        let ds = Dataset::join(sched_recs, gpu_recs);
        let csv = ds.to_csv();
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 1 + ds.records().len());
        let cols = lines[0].matches(',').count();
        for l in &lines[1..] {
            assert_eq!(l.matches(',').count(), cols, "ragged row: {l}");
        }
        assert!(lines[0].starts_with("job_id,user,interface"));
        // Each row's GPU columns belong to its own job: the job-level
        // mean SM utilization, or empty where the job has no telemetry.
        let sm_mean = lines[0].split(',').position(|c| c == "sm_mean").expect("sm_mean column");
        for (r, l) in ds.records().iter().zip(&lines[1..]) {
            let want = r
                .gpu
                .as_ref()
                .map_or(String::new(), |g| format!("{:.3}", g.job_level().sm_util.mean));
            assert_eq!(l.split(',').nth(sm_mean), Some(want.as_str()), "{l}");
        }
    }

    #[test]
    fn boundary_runtime_is_kept() {
        let ds = Dataset::join(vec![sched(1, 1, 1, 30.0)], vec![gpu_rec(1, 1)]);
        assert_eq!(ds.funnel().gpu_jobs, 1);
        assert_eq!(ds.funnel().gpu_jobs_filtered_out, 0);
    }
}
