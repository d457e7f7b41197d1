//! The Supercloud characterization pipeline — the primary contribution
//! of "AI-Enabling Workloads on Large-Scale GPU-Accelerated System"
//! (Li et al., HPCA 2022), reproduced in Rust.
//!
//! Layered on the substrates ([`sc_stats`], [`sc_telemetry`],
//! [`sc_workload`], [`sc_cluster`]), this crate provides:
//!
//! - [`classify`]: the mature / exploratory / development / IDE
//!   life-cycle classification from observable exit statuses (Sec. VI).
//! - [`mod@ingest`]: the hardened ingest stage — detection, repair and
//!   quarantine of collection faults (with [`sc_telemetry::corruption`]
//!   as the matching seeded injector).
//! - [`figures`]: one module per paper figure, each a pure function of
//!   the simulated dataset returning the figure's series, its
//!   paper-vs-measured [`report::Comparison`] rows and its SVG panels
//!   through the [`Figure`] trait.
//! - [`query::FigureId`]: the one table of figures — each figure's
//!   token, comparison title, inputs and `compute`. The batch report,
//!   `analyze_dataset` (the figures a dataset release carries) and the
//!   query service all iterate it.
//! - [`pipeline::AnalysisReport`]: the whole evaluation in one call.
//! - [`paper`]: every number the paper reports, as cited constants.
//!
//! # Example
//!
//! ```no_run
//! use sc_cluster::Simulation;
//! use sc_core::AnalysisReport;
//! use sc_workload::{Trace, WorkloadSpec};
//!
//! // Full 125-day reproduction (takes a couple of minutes):
//! let trace = Trace::generate(&WorkloadSpec::supercloud(), 42);
//! let out = Simulation::supercloud().run(&trace);
//! let report = AnalysisReport::try_from_sim(&out)?;
//! println!("{}", report.render_text());
//! # Ok::<(), sc_core::PipelineError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Library code must surface degenerate inputs as typed errors, not
// panics; tests are exempt (unwrap there is an assertion).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod arrivals;
pub mod classify;
pub mod facility;
pub mod figures;
pub mod ingest;
pub mod paper;
pub mod pipeline;
pub mod query;
pub mod reliability;
pub mod report;
pub mod svg;
pub mod userstats;
pub mod view;
pub mod workflow;

pub use classify::{classify_exit, classify_record};
pub use figures::{
    CheckpointSweepFig, ClassifierFig, ClusterTimelineFig, DataQualityFig, Figure, GoodputFig,
    GoodputFrontierFig, GrowthStudyFig, ReliabilitySizeFig, StreamingTelemetryFig,
};
pub use ingest::{
    corrupt_and_ingest, ingest, DataQualityError, IngestOutput, IngestReport, Provenance,
    QuarantineAction, QuarantineEntry,
};
pub use pipeline::{AnalysisReport, PipelineError};
pub use query::{FigureId, Inputs, PointStat, QueryKey, Reads};
pub use reliability::{run_reliability_study, GrowthTiming, ReliabilityConfig, ReliabilityReport};
pub use report::Comparison;
pub use userstats::{user_stats, UserStats};
pub use view::{gpu_views, GpuJobView};
pub use workflow::WorkflowChain;

#[cfg(test)]
pub(crate) mod testsupport {
    //! Shared, lazily-computed simulation output for figure tests.
    //! Computing one 2%-scale trace once keeps the test suite fast.

    use crate::userstats::{user_stats, UserStats};
    use crate::view::{gpu_views, GpuJobView};
    use sc_cluster::{SimConfig, SimOutput, Simulation};
    use sc_workload::{Trace, WorkloadSpec};
    use std::sync::OnceLock;

    static SIM: OnceLock<SimOutput> = OnceLock::new();

    /// A 2%-scale Supercloud simulation, computed once per test run.
    pub fn small_sim() -> &'static SimOutput {
        SIM.get_or_init(|| {
            let mut spec = WorkloadSpec::supercloud().scaled(0.02);
            // User-level figures (10–12, 17) need a real population, not
            // the 8 users a straight 2% scale would leave.
            spec.users = 64;
            let trace = Trace::generate(&spec, 20_220_701);
            Simulation::new(SimConfig { detailed_series_jobs: 120, ..Default::default() })
                .run(&trace)
        })
    }

    /// GPU-job views over [`small_sim`].
    pub fn small_views() -> Vec<GpuJobView<'static>> {
        gpu_views(&small_sim().dataset)
    }

    /// Per-user statistics over [`small_sim`].
    pub fn small_user_stats() -> Vec<UserStats> {
        user_stats(&small_views())
    }
}
