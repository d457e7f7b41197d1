//! Telemetry substrate: the monitoring pipeline of Sec. II of the paper.
//!
//! The Supercloud study collected two time series per job — CPU metrics
//! at 10-second intervals via Slurm plugins and GPU metrics at 100 ms via
//! `nvidia-smi` started from the job prolog — buffered them on node-local
//! storage, copied them to the central file system in the epilog, and
//! finally joined the scheduler-side and GPU-side datasets by job id.
//!
//! This crate models that pipeline. Of the two series it keeps the GPU
//! one, which every figure reads:
//!
//! - [`metrics`]: the sample schema (`nvidia-smi` fields the paper uses:
//!   SM %, memory-bandwidth %, memory-size %, PCIe Tx/Rx, power).
//! - [`source`]: the [`MetricSource`] trait — the ground-truth process a
//!   running job exposes; the workload crate provides implementations.
//! - [`sampler`]: [`GpuSampler`], the 100 ms poller.
//! - [`aggregate`]: streaming min/mean/max aggregation, the only thing
//!   retained for most jobs ("the minimum, mean, and maximum resource
//!   utilization during the run were reported at the end of the job").
//! - [`record`]: the per-job record schema joining Slurm-side and
//!   GPU-side information.
//! - [`dataset`]: the joined dataset with the paper's 30-second filter.
//! - [`release`]: the dataset's JSON release format, written and read
//!   on [`sc_obs::json`].
//! - [`phases`]: active/idle phase analysis over sampled series.
//! - [`stream`]: streaming ingestion — the [`stream::Util3Sink`]
//!   producer/consumer contract, a detail reduction that replays the
//!   producer instead of storing its ticks and is bit-identical to the
//!   batch path, and mergeable run-level summaries.
//! - [`corruption`]: seeded data-quality fault injection — the lossy
//!   version of the same pipeline, for ingest-hardening studies.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Library code must surface degenerate inputs as typed errors, not
// panics; tests are exempt (unwrap there is an assertion). A true
// invariant keeps its `expect` under a local `allow` giving the reason.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod aggregate;
pub mod corruption;
pub mod dataset;
pub mod gpu_power;
pub mod metrics;
pub mod phases;
pub mod record;
pub mod release;
pub mod sampler;
pub mod source;
pub mod stream;

pub use aggregate::{Aggregate, GpuAggregates};
pub use corruption::{
    CorruptionConfig, CorruptionCounters, Corruptor, DataQualityProfile, FaultClass, RawCollection,
};
pub use dataset::{Dataset, DatasetFunnel};
pub use gpu_power::{
    gpu_energy_kwh, DVFS_PERF_PER_POWER, FACILITY_BUDGET_W, SUPERCLOUD_GPUS, V100_IDLE_W,
    V100_TDP_W,
};
pub use metrics::{GpuMetricSample, GpuResource};
pub use record::{
    ExitStatus, FailureCause, GpuJobRecord, JobId, JobRecord, SchedulerRecord, SubmissionInterface,
    UserId,
};
pub use sampler::{GpuSampler, GpuTimeSeries};
pub use source::MetricSource;
pub use stream::{stream_detail, DetailSink, TelemetryStreamSummary, Util3Sink};
