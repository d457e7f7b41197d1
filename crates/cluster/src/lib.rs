//! Discrete-event GPU-cluster and Slurm-like scheduler simulator.
//!
//! The substrate the paper's measurements came from: the 224-node /
//! 448-V100 MIT Supercloud (Table I), its single job queue, exclusive
//! GPUs with shared CPU co-location, dense multi-GPU placement, and the
//! prolog/epilog telemetry hooks.
//!
//! - [`spec`]: Table I hardware constants.
//! - [`resources`]: node-level accounting and placement.
//! - [`event`]: the discrete-event queue.
//! - [`scheduler`]: FCFS + EASY backfill.
//! - [`policy`]: closed-loop policy hooks (placement overrides,
//!   dispatch-time stretch and power caps) driven by the event loop.
//! - [`failure`]: the injected-failure taxonomy (GPU Xid faults, node
//!   hardware, transient infra) and its deterministic schedule.
//! - [`reliability`]: per-job-size reliability accounting — ETTF/ETTR,
//!   failures per 1k GPU-days, restart overhead by size class.
//! - [`sim`]: the driver that replays a [`sc_workload::Trace`] and
//!   produces the joined analysis [`sc_telemetry::Dataset`], with
//!   retry/requeue recovery, checkpoint resume, and a goodput ledger;
//!   [`Simulation::replay`] runs its event loop alone.
//!
//! # Example
//!
//! ```
//! use sc_cluster::{SimConfig, Simulation};
//! use sc_workload::{Trace, WorkloadSpec};
//!
//! let trace = Trace::generate(&WorkloadSpec::supercloud().scaled(0.002), 1);
//! let out = Simulation::new(SimConfig::default()).run(&trace);
//! assert!(out.dataset.funnel().gpu_jobs > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod failure;
pub mod policy;
pub mod reliability;
pub mod resources;
pub mod scheduler;
pub mod sim;
pub mod spec;

pub use failure::{
    ClassModel, FailureCause, FailureConfigError, FailureModel, Interarrival, RetryPolicy,
    ScheduledFailure,
};
pub use policy::{Dispatch, Policy, PolicyDecision};
pub use reliability::{ReliabilityStats, SizeClassStats, SIZE_BUCKET_EDGES};
pub use resources::{Allocation, ClusterState, NodeAlloc, NodeId, NodeState};
pub use scheduler::{QueuedJob, RunningJob, SchedulePass, Scheduler};
pub use sim::{
    CheckpointPolicy, DetailedJobStats, GoodputAccounting, JobFate, Replay, SimConfig, SimOutput,
    SimStats, Simulation,
};
pub use spec::{ClusterSpec, GpuSpec, NodeSpec, SlowTierSpec};
