//! The per-job record schema: Slurm-side scheduling facts, GPU-side
//! telemetry aggregates, and the joined record the analysis consumes.

use crate::aggregate::GpuAggregates;

/// Cluster-wide unique job identifier (Slurm job id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Anonymized user identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub u32);

impl std::fmt::Display for UserId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "user-{}", self.0)
    }
}

/// How the job was submitted. "We are able to identify map-reduce,
/// batch, and interactive jobs as they are submitted using their
/// individual interfaces. Other jobs (mostly deep learning jobs …) are
/// submitted via the general Slurm interface" (Sec. III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubmissionInterface {
    /// Map-reduce interface (1% of jobs).
    MapReduce,
    /// Batch interface (30% of jobs).
    Batch,
    /// Interactive interface (4% of jobs).
    Interactive,
    /// General Slurm interface — mostly deep learning (65% of jobs).
    Other,
}

impl SubmissionInterface {
    /// All interfaces in the paper's Fig. 5 order.
    pub const ALL: [SubmissionInterface; 4] = [
        SubmissionInterface::MapReduce,
        SubmissionInterface::Batch,
        SubmissionInterface::Interactive,
        SubmissionInterface::Other,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            SubmissionInterface::MapReduce => "map-reduce",
            SubmissionInterface::Batch => "batch",
            SubmissionInterface::Interactive => "interactive",
            SubmissionInterface::Other => "other",
        }
    }
}

impl std::fmt::Display for SubmissionInterface {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How the job ended. Sec. VI classifies the algorithm-development
/// life-cycle from exactly these outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExitStatus {
    /// Exit code zero — the paper's *mature* jobs.
    Completed,
    /// Cancelled by the user before completion (e.g. a hyper-parameter
    /// trial deemed sub-optimal) — *exploratory* jobs.
    Cancelled,
    /// Non-zero exit code (crash, debug iteration) — *development* jobs.
    Failed,
    /// Hit the wall-clock limit (12 h / 24 h) — long-running sessions;
    /// interactive ones are the paper's *IDE* jobs.
    Timeout,
    /// Terminated by a hardware failure (<0.5% of jobs on Supercloud).
    NodeFailure,
}

impl ExitStatus {
    /// Every status.
    pub const ALL: [ExitStatus; 5] = [
        ExitStatus::Completed,
        ExitStatus::Cancelled,
        ExitStatus::Failed,
        ExitStatus::Timeout,
        ExitStatus::NodeFailure,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            ExitStatus::Completed => "completed",
            ExitStatus::Cancelled => "cancelled",
            ExitStatus::Failed => "failed",
            ExitStatus::Timeout => "timeout",
            ExitStatus::NodeFailure => "node-failure",
        }
    }
}

impl std::fmt::Display for ExitStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Root cause of an infrastructure-induced job death — the failure
/// taxonomy reliability studies attribute wasted GPU-hours to. The
/// Slurm-side [`ExitStatus`] only records *that* a job died to hardware
/// (`NodeFailure`); the cause is what the failure-injection subsystem
/// and the goodput report attribute losses by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureCause {
    /// A single GPU faults (Xid error: uncorrectable ECC, falling off
    /// the bus) and kills the one job bound to it; the GPU resets
    /// without taking the node down.
    GpuXid,
    /// Whole-node hardware failure: every resident job dies and the
    /// node leaves service for repair.
    NodeHardware,
    /// Transient infrastructure blip (network partition, filesystem
    /// hiccup): residents die but the node returns within minutes.
    InfraTransient,
}

impl FailureCause {
    /// All causes, in taxonomy order (the order goodput reports use).
    pub const ALL: [FailureCause; 3] =
        [FailureCause::GpuXid, FailureCause::NodeHardware, FailureCause::InfraTransient];

    /// Index into [`FailureCause::ALL`] — the per-cause accounting slot.
    pub fn index(&self) -> usize {
        match self {
            FailureCause::GpuXid => 0,
            FailureCause::NodeHardware => 1,
            FailureCause::InfraTransient => 2,
        }
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            FailureCause::GpuXid => "gpu-xid",
            FailureCause::NodeHardware => "node-hardware",
            FailureCause::InfraTransient => "infra-transient",
        }
    }
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Scheduler-side facts about one job, as recorded in the Slurm
/// accounting log.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerRecord {
    /// Job identifier.
    pub job_id: JobId,
    /// Submitting user.
    pub user: UserId,
    /// Submission interface used.
    pub interface: SubmissionInterface,
    /// GPUs requested (0 for CPU-only jobs).
    pub gpus_requested: u32,
    /// CPU cores requested.
    pub cpus_requested: u32,
    /// Host memory requested (GiB).
    pub mem_requested_gib: f64,
    /// Submission time (seconds since trace start).
    pub submit_time: f64,
    /// Start of execution (seconds since trace start).
    pub start_time: f64,
    /// End of execution (seconds since trace start).
    pub end_time: f64,
    /// Requested wall-clock limit in seconds.
    pub time_limit: f64,
    /// How the job terminated.
    pub exit: ExitStatus,
}

impl SchedulerRecord {
    /// Queue wait: `start - submit`.
    pub fn queue_wait(&self) -> f64 {
        self.start_time - self.submit_time
    }

    /// Run time: `end - start`.
    pub fn run_time(&self) -> f64 {
        self.end_time - self.start_time
    }

    /// Service time: queue wait + run time (Fig. 3b denominator).
    pub fn service_time(&self) -> f64 {
        self.end_time - self.submit_time
    }

    /// Queue wait as a percentage of service time (Fig. 3b). Zero-length
    /// service degenerates to 0%.
    pub fn queue_wait_percent(&self) -> f64 {
        let service = self.service_time();
        if service <= 0.0 {
            0.0
        } else {
            self.queue_wait() / service * 100.0
        }
    }

    /// GPU hours consumed: `gpus × run_time`.
    pub fn gpu_hours(&self) -> f64 {
        self.gpus_requested as f64 * self.run_time() / 3600.0
    }

    /// Whether this is a GPU job.
    pub fn is_gpu_job(&self) -> bool {
        self.gpus_requested > 0
    }
}

/// GPU-side telemetry summary for one job: one aggregate set per GPU,
/// as produced by the epilog from the `nvidia-smi` series.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuJobRecord {
    /// Job identifier (the join key).
    pub job_id: JobId,
    /// Per-GPU aggregates, indexed by the job's GPU ordinal.
    pub per_gpu: Vec<GpuAggregates>,
}

impl GpuJobRecord {
    /// Job-level aggregates: "the average over multiple GPUs was computed
    /// to get a single number for multi-GPU jobs" (Sec. II).
    pub fn job_level(&self) -> GpuAggregates {
        GpuAggregates::average_of(&self.per_gpu)
    }

    /// Number of GPUs with telemetry.
    pub fn gpu_count(&self) -> usize {
        self.per_gpu.len()
    }
}

/// A fully joined job record: scheduler facts plus (for GPU jobs) the
/// telemetry summary.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Scheduler-side facts.
    pub sched: SchedulerRecord,
    /// GPU-side aggregates; `None` for CPU-only jobs.
    pub gpu: Option<GpuJobRecord>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(submit: f64, start: f64, end: f64) -> SchedulerRecord {
        SchedulerRecord {
            job_id: JobId(1),
            user: UserId(1),
            interface: SubmissionInterface::Other,
            gpus_requested: 2,
            cpus_requested: 8,
            mem_requested_gib: 64.0,
            submit_time: submit,
            start_time: start,
            end_time: end,
            time_limit: 86_400.0,
            exit: ExitStatus::Completed,
        }
    }

    #[test]
    fn derived_times() {
        let r = record(0.0, 60.0, 3660.0);
        assert_eq!(r.queue_wait(), 60.0);
        assert_eq!(r.run_time(), 3600.0);
        assert_eq!(r.service_time(), 3660.0);
        assert!((r.queue_wait_percent() - 60.0 / 3660.0 * 100.0).abs() < 1e-12);
        assert!((r.gpu_hours() - 2.0).abs() < 1e-12);
        assert!(r.is_gpu_job());
    }

    #[test]
    fn zero_service_time_degenerates() {
        let r = record(5.0, 5.0, 5.0);
        assert_eq!(r.queue_wait_percent(), 0.0);
    }

    #[test]
    fn ids_display() {
        assert_eq!(JobId(7).to_string(), "job-7");
        assert_eq!(UserId(3).to_string(), "user-3");
        assert_eq!(SubmissionInterface::MapReduce.to_string(), "map-reduce");
        assert_eq!(ExitStatus::Timeout.to_string(), "timeout");
    }

    #[test]
    fn interface_all_covers_every_variant() {
        assert_eq!(SubmissionInterface::ALL.len(), 4);
    }

    #[test]
    fn failure_cause_indices_match_all_order() {
        for (i, cause) in FailureCause::ALL.iter().enumerate() {
            assert_eq!(cause.index(), i);
        }
        assert_eq!(FailureCause::GpuXid.to_string(), "gpu-xid");
        assert_eq!(FailureCause::NodeHardware.to_string(), "node-hardware");
        assert_eq!(FailureCause::InfraTransient.to_string(), "infra-transient");
    }
}
