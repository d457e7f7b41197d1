//! Umbrella crate for `supercloud-lab`.
//!
//! Re-exports the whole workspace under one name and hosts the
//! repository-level `examples/` and `tests/` targets (see the
//! `[[example]]`/`[[test]]` tables in this crate's `Cargo.toml`).
//!
//! # Example
//!
//! ```
//! use sc_repro::prelude::*;
//!
//! let spec = WorkloadSpec::supercloud().scaled(0.002);
//! let trace = Trace::generate(&spec, 1);
//! let out = Simulation::supercloud().run(&trace);
//! assert!(out.dataset.funnel().gpu_jobs > 0);
//! ```

#![warn(missing_docs)]

pub use sc_cluster as cluster;
pub use sc_core as core;
pub use sc_learn as learn;
pub use sc_obs as obs;
pub use sc_opportunity as opportunity;
pub use sc_par as par;
pub use sc_policy as policy;
pub use sc_scenario as scenario;
pub use sc_serve as serve;
pub use sc_stats as stats;
pub use sc_telemetry as telemetry;
pub use sc_workload as workload;

/// One-line imports for examples and integration tests.
pub mod prelude {
    pub use sc_cluster::{
        CheckpointPolicy, ClusterSpec, FailureCause, FailureModel, GoodputAccounting, JobFate,
        ReliabilityStats, RetryPolicy, SimConfig, SimOutput, Simulation,
    };
    pub use sc_core::{
        classify_record, corrupt_and_ingest, gpu_views, ingest, run_reliability_study, user_stats,
        AnalysisReport, ClassifierFig, DataQualityError, DataQualityFig, Figure, FigureId,
        GoodputFig, IngestOutput, IngestReport, PipelineError, Provenance, QuarantineAction,
        ReliabilityConfig, ReliabilityReport,
    };
    pub use sc_learn::{ArchetypePredictor, ClassifierConfig};
    pub use sc_obs::{JsonlSink, Obs, RingSink, StageLog, TraceLevel, TraceSink};
    pub use sc_opportunity::OpportunityReport;
    pub use sc_policy::{
        CosharePolicy, PolicyExperiment, PolicySpec, PowerCapPolicy, TieredPolicy,
    };
    pub use sc_scenario::{CrossSystemFig, ErrorKind, Scenario, ScenarioError};
    pub use sc_serve::{Query, ServeConfig, Service};
    pub use sc_stats::{BoxStats, Ecdf, Lorenz};
    pub use sc_telemetry::{
        CorruptionCounters, Corruptor, DataQualityProfile, Dataset, ExitStatus, FaultClass,
        RawCollection, SubmissionInterface,
    };
    pub use sc_workload::{LifecycleClass, Trace, WorkloadSpec};
}
