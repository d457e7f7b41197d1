//! Query-addressable figure and statistic computation.
//!
//! The batch pipeline ([`crate::pipeline::AnalysisReport`]) computes
//! every figure in one pass. A serving system needs the opposite
//! granularity: one figure, or one scalar, on demand, addressed by a
//! stable token that can live in a cache key. This module provides the
//! address space:
//!
//! - [`FigureId`] — the one table of the report's figures: each
//!   figure's token, comparison-table title and inputs, and the
//!   `compute` that builds it. The batch report, its SVG set, the
//!   dataset release, the query service and the figures bench all
//!   iterate it.
//! - [`PointStat`] — headline scalar statistics (medians, utilization
//!   means, totals), cheap enough to flood-query.
//! - [`QueryKey`] — the `(scenario, seed, query)` triple that uniquely
//!   identifies a memoizable response.
//!
//! Tokens (`fig3` … `fig17`, `goodput`, `median_run_min`, …) round-trip
//! through [`FigureId::parse`] / [`PointStat::parse`], so a query trace
//! is replayable from its textual form.

use crate::figures::*;
use crate::pipeline::PipelineError;
use crate::userstats::UserStats;
use crate::view::GpuJobView;
use sc_cluster::SimOutput;
use sc_stats::{mean, percentile, StatsError};
use sc_telemetry::Dataset;

/// Every figure of the report, addressable one at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // Variants mirror the figure structs they address.
pub enum FigureId {
    Fig3,
    Fig4,
    Fig5,
    Fig6,
    Fig7,
    Fig8,
    Fig9,
    Fig10,
    Fig11,
    Fig12,
    Fig13,
    Fig14,
    Fig15,
    Fig16,
    Fig17,
    /// Goodput and failure attribution (reliability extension).
    Goodput,
    /// Cluster state over the run (observability extension).
    Timeline,
    /// Streaming-vs-batch telemetry cross-validation.
    Streaming,
}

/// What a figure reads, and so where it can be computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reads {
    /// Only the joined job records, their views and the per-user
    /// statistics: a dataset release carries all of them.
    Records,
    /// The simulation output beyond the records: the 100 ms series
    /// subset, the goodput ledger, the timeline or the streamed
    /// telemetry summary.
    Sim,
}

/// Everything a figure can read. The caller builds the job views and
/// the per-user statistics once and shares them across figures.
#[derive(Debug, Clone, Copy)]
pub struct Inputs<'a> {
    /// The joined dataset.
    pub dataset: &'a Dataset,
    /// Its GPU-job views, `gpu_views(dataset)`.
    pub views: &'a [GpuJobView<'a>],
    /// Per-user statistics over the views, `user_stats(views)`.
    pub users: &'a [UserStats],
    /// The simulation the dataset came from; `None` for a dataset
    /// release, where only the [`Reads::Records`] figures compute.
    pub sim: Option<&'a SimOutput>,
}

impl FigureId {
    /// Every figure, in report order.
    pub const ALL: [FigureId; 18] = [
        FigureId::Fig3,
        FigureId::Fig4,
        FigureId::Fig5,
        FigureId::Fig6,
        FigureId::Fig7,
        FigureId::Fig8,
        FigureId::Fig9,
        FigureId::Fig10,
        FigureId::Fig11,
        FigureId::Fig12,
        FigureId::Fig13,
        FigureId::Fig14,
        FigureId::Fig15,
        FigureId::Fig16,
        FigureId::Fig17,
        FigureId::Goodput,
        FigureId::Timeline,
        FigureId::Streaming,
    ];

    /// This figure's row of the table: its token, its comparison-table
    /// title (`None` when the paper reports no numbers for it) and
    /// what it reads.
    fn row(self) -> (&'static str, Option<&'static str>, Reads) {
        use Reads::{Records, Sim};
        match self {
            FigureId::Fig3 => ("fig3", Some("Fig. 3 — run times and queue waits"), Records),
            FigureId::Fig4 => ("fig4", Some("Fig. 4 — GPU resource utilization"), Records),
            FigureId::Fig5 => ("fig5", Some("Fig. 5 — job-type mix"), Records),
            FigureId::Fig6 => ("fig6", Some("Fig. 6 — active/idle phases"), Sim),
            FigureId::Fig7 => ("fig7", Some("Fig. 7 — variability and bottlenecks"), Sim),
            FigureId::Fig8 => ("fig8", Some("Fig. 8 — bottleneck combinations"), Records),
            FigureId::Fig9 => ("fig9", Some("Fig. 9 — power and power capping"), Records),
            FigureId::Fig10 => ("fig10", Some("Fig. 10 — per-user averages"), Records),
            FigureId::Fig11 => ("fig11", Some("Fig. 11 — per-user variability"), Records),
            FigureId::Fig12 => ("fig12", Some("Fig. 12 — expert-user correlations"), Records),
            FigureId::Fig13 => ("fig13", Some("Fig. 13 — multi-GPU jobs"), Records),
            FigureId::Fig14 => ("fig14", Some("Fig. 14 — cross-GPU balance"), Records),
            FigureId::Fig15 => ("fig15", Some("Fig. 15 — lifecycle mix"), Records),
            FigureId::Fig16 => ("fig16", Some("Fig. 16 — utilization by class"), Records),
            FigureId::Fig17 => ("fig17", Some("Fig. 17 — per-user lifecycle structure"), Records),
            FigureId::Goodput => ("goodput", Some("Goodput — failure attribution"), Sim),
            FigureId::Timeline => ("timeline", None, Sim),
            FigureId::Streaming => ("streaming", None, Sim),
        }
    }

    /// The stable token naming this figure (`fig3` … `fig17`,
    /// `goodput`, `timeline`, `streaming`); also its pipeline stage and
    /// its span name.
    pub fn name(self) -> &'static str {
        self.row().0
    }

    /// The title of this figure's paper-vs-measured table, or `None`
    /// when it has no such table.
    pub fn title(self) -> Option<&'static str> {
        self.row().1
    }

    /// What this figure reads.
    pub fn reads(self) -> Reads {
        self.row().2
    }

    /// Whether [`crate::AnalysisReport`] carries this figure. The
    /// streaming cross-check re-derives the streamed telemetry summary
    /// as a test of the telemetry engine, so the report leaves it to
    /// callers that ask for it.
    pub fn in_report(self) -> bool {
        self != FigureId::Streaming
    }

    /// Parses a [`FigureId::name`] token.
    pub fn parse(s: &str) -> Option<FigureId> {
        FigureId::ALL.into_iter().find(|id| id.name() == s)
    }

    /// Computes this figure from `input`.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] tagged with this figure's name when
    /// the input lacks the population the figure needs; a
    /// [`Reads::Sim`] figure asked of a dataset release has none.
    pub fn compute(self, input: &Inputs<'_>) -> Result<Box<dyn Figure>, PipelineError> {
        fn boxed<F: Figure + 'static>(fig: F) -> Box<dyn Figure> {
            Box::new(fig)
        }
        let Inputs { dataset, views, users, sim } = *input;
        let sim = sim.ok_or(StatsError::EmptyInput);
        let fig = match self {
            FigureId::Fig3 => Fig3::try_compute(dataset).map(boxed),
            FigureId::Fig4 => Fig4::try_compute(views).map(boxed),
            FigureId::Fig5 => Fig5::try_compute(views).map(boxed),
            FigureId::Fig6 => sim.and_then(|out| Fig6::try_compute(&out.detailed)).map(boxed),
            FigureId::Fig7 => {
                sim.and_then(|out| Fig7::try_compute(&out.detailed, views)).map(boxed)
            }
            FigureId::Fig8 => Fig8::try_compute(views).map(boxed),
            FigureId::Fig9 => Fig9::try_compute(views).map(boxed),
            FigureId::Fig10 => Fig10::try_compute(users).map(boxed),
            FigureId::Fig11 => Fig11::try_compute(users).map(boxed),
            FigureId::Fig12 => Fig12::try_compute(users).map(boxed),
            FigureId::Fig13 => Fig13::try_compute(views, users).map(boxed),
            FigureId::Fig14 => Fig14::try_compute(views).map(boxed),
            FigureId::Fig15 => Fig15::try_compute(views).map(boxed),
            FigureId::Fig16 => Fig16::try_compute(views).map(boxed),
            FigureId::Fig17 => Fig17::try_compute(users).map(boxed),
            FigureId::Goodput => sim.and_then(GoodputFig::try_compute).map(boxed),
            FigureId::Timeline => sim.and_then(ClusterTimelineFig::try_compute).map(boxed),
            FigureId::Streaming => sim.and_then(StreamingTelemetryFig::try_compute).map(boxed),
        };
        fig.map_err(|source| PipelineError { stage: self.name(), source })
    }
}

/// A headline scalar statistic, cheap enough to serve under a
/// point-query flood.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PointStat {
    /// Analyzed GPU jobs (post-filter).
    JobsAnalyzed,
    /// Unique users in the dataset.
    UniqueUsers,
    /// Median job run time, minutes.
    MedianRunMin,
    /// 95th-percentile job run time, minutes.
    P95RunMin,
    /// Median queue wait, seconds.
    MedianQueueWaitSec,
    /// Mean of job-mean SM utilization, %.
    MeanSmUtil,
    /// Median of job-mean SM utilization, %.
    MedianSmUtil,
    /// Mean of job-mean memory-bandwidth utilization, %.
    MeanMemUtil,
    /// Median of job-mean board power, W.
    MedianPowerW,
    /// 95th percentile of job-mean board power, W.
    P95PowerW,
    /// Total GPU-hours across analyzed jobs.
    TotalGpuHours,
    /// Largest GPU count any single job used.
    MaxJobGpus,
}

impl PointStat {
    /// Every point statistic, in token order.
    pub const ALL: [PointStat; 12] = [
        PointStat::JobsAnalyzed,
        PointStat::UniqueUsers,
        PointStat::MedianRunMin,
        PointStat::P95RunMin,
        PointStat::MedianQueueWaitSec,
        PointStat::MeanSmUtil,
        PointStat::MedianSmUtil,
        PointStat::MeanMemUtil,
        PointStat::MedianPowerW,
        PointStat::P95PowerW,
        PointStat::TotalGpuHours,
        PointStat::MaxJobGpus,
    ];

    /// The stable token naming this statistic.
    pub fn name(&self) -> &'static str {
        match self {
            PointStat::JobsAnalyzed => "jobs_analyzed",
            PointStat::UniqueUsers => "unique_users",
            PointStat::MedianRunMin => "median_run_min",
            PointStat::P95RunMin => "p95_run_min",
            PointStat::MedianQueueWaitSec => "median_queue_wait_sec",
            PointStat::MeanSmUtil => "mean_sm_util",
            PointStat::MedianSmUtil => "median_sm_util",
            PointStat::MeanMemUtil => "mean_mem_util",
            PointStat::MedianPowerW => "median_power_w",
            PointStat::P95PowerW => "p95_power_w",
            PointStat::TotalGpuHours => "total_gpu_hours",
            PointStat::MaxJobGpus => "max_job_gpus",
        }
    }

    /// Parses a [`PointStat::name`] token.
    pub fn parse(s: &str) -> Option<PointStat> {
        PointStat::ALL.iter().copied().find(|p| p.name() == s)
    }

    /// Computes this statistic from `input`'s dataset and job views.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] (stage = the stat token) when the
    /// input has no analyzed GPU jobs.
    pub fn compute(&self, input: &Inputs<'_>) -> Result<f64, PipelineError> {
        let stage = self.name();
        let err = |source| PipelineError { stage, source };
        let views = input.views;
        let series: Vec<f64> = match self {
            PointStat::JobsAnalyzed => return Ok(views.len() as f64),
            PointStat::UniqueUsers => {
                return Ok(input.dataset.funnel().unique_users as f64);
            }
            PointStat::MaxJobGpus => {
                return Ok(views.iter().map(|v| v.sched.gpus_requested).max().unwrap_or(0) as f64);
            }
            PointStat::TotalGpuHours => {
                return Ok(views.iter().map(|v| v.gpu_hours()).sum());
            }
            PointStat::MedianRunMin | PointStat::P95RunMin => {
                views.iter().map(|v| v.run_minutes()).collect()
            }
            PointStat::MedianQueueWaitSec => views.iter().map(|v| v.sched.queue_wait()).collect(),
            PointStat::MeanSmUtil | PointStat::MedianSmUtil => {
                views.iter().map(|v| v.agg.sm_util.mean).collect()
            }
            PointStat::MeanMemUtil => views.iter().map(|v| v.agg.mem_util.mean).collect(),
            PointStat::MedianPowerW | PointStat::P95PowerW => {
                views.iter().map(|v| v.agg.power_w.mean).collect()
            }
        };
        match self {
            PointStat::MeanSmUtil | PointStat::MeanMemUtil => mean(&series).map_err(err),
            PointStat::P95RunMin | PointStat::P95PowerW => percentile(&series, 95.0).map_err(err),
            _ => percentile(&series, 50.0).map_err(err),
        }
    }
}

/// The identity of one memoizable response: which simulated world
/// (`scenario`, `seed`) and which question (`query` token).
///
/// The serving layer keys its cache on this triple, so two services
/// over different scenarios or seeds can share one cache without
/// cross-talk, and a persisted query trace names its world explicitly.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryKey {
    /// Scenario descriptor (name, content hash and scale, e.g.
    /// `supercloud#57cf7c4aa2a61bc0:s0.02`).
    pub scenario: String,
    /// Master RNG seed the world was generated from.
    pub seed: u64,
    /// Canonical query token (`fig:fig3`, `point:median_run_min`,
    /// `ab:powercap:150`, `dq:lossy`).
    pub query: String,
}

impl std::fmt::Display for QueryKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}/{}", self.scenario, self.seed, self.query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::small_sim;
    use crate::userstats::user_stats;
    use crate::view::gpu_views;

    #[test]
    fn figure_tokens_round_trip() {
        for id in FigureId::ALL {
            assert_eq!(FigureId::parse(id.name()), Some(id));
        }
        assert_eq!(FigureId::parse("fig99"), None);
    }

    #[test]
    fn point_tokens_round_trip() {
        for p in PointStat::ALL {
            assert_eq!(PointStat::parse(p.name()), Some(p));
        }
        assert_eq!(PointStat::parse("nope"), None);
    }

    /// Runs `f` on the small world's inputs: its job views and user
    /// statistics, built once.
    fn with_small_inputs(f: impl FnOnce(&Inputs<'_>)) {
        let out = small_sim();
        let views = gpu_views(&out.dataset);
        let users = user_stats(&views);
        f(&Inputs { dataset: &out.dataset, views: &views, users: &users, sim: Some(out) });
    }

    #[test]
    fn every_figure_renders_standalone() {
        with_small_inputs(|input| {
            for id in FigureId::ALL {
                let fig = id.compute(input).unwrap_or_else(|e| panic!("{}: {e}", id.name()));
                assert!(!fig.render().is_empty(), "{} rendered empty", id.name());
            }
        });
    }

    #[test]
    fn standalone_renders_match_the_batch_pipeline() {
        let report = crate::AnalysisReport::try_from_sim(small_sim()).unwrap();
        let ids: Vec<FigureId> = report.figures.iter().map(|(id, _)| *id).collect();
        let in_report: Vec<FigureId> =
            FigureId::ALL.into_iter().filter(|id| id.in_report()).collect();
        assert_eq!(ids, in_report);
        with_small_inputs(|input| {
            for (id, fig) in &report.figures {
                let alone = id.compute(input).unwrap_or_else(|e| panic!("{}: {e}", id.name()));
                assert_eq!(alone.render(), fig.render(), "{}", id.name());
            }
        });
    }

    #[test]
    fn a_dataset_release_computes_exactly_the_records_figures() {
        let dataset = &small_sim().dataset;
        let views = gpu_views(dataset);
        let users = user_stats(&views);
        let input = Inputs { dataset, views: &views, users: &users, sim: None };
        for id in FigureId::ALL {
            match (id.reads(), id.compute(&input)) {
                (Reads::Records, Ok(_)) => {}
                (Reads::Sim, Err(e)) => assert_eq!(e.stage, id.name()),
                (reads, r) => panic!("{}: {reads:?} gave {:?}", id.name(), r.err()),
            }
        }
    }

    #[test]
    fn point_stats_compute_and_are_finite() {
        with_small_inputs(|input| {
            for p in PointStat::ALL {
                let v = p.compute(input).unwrap_or_else(|e| panic!("{}: {e}", p.name()));
                assert!(v.is_finite(), "{} not finite", p.name());
                assert!(v >= 0.0, "{} negative", p.name());
            }
            let jobs = PointStat::JobsAnalyzed.compute(input).expect("jobs");
            assert_eq!(jobs, input.views.len() as f64);
        });
    }

    #[test]
    fn query_key_displays_canonically() {
        let key = QueryKey {
            scenario: "supercloud:s0.02".to_string(),
            seed: 42,
            query: "fig:fig3".to_string(),
        };
        assert_eq!(key.to_string(), "supercloud:s0.02#42/fig:fig3");
    }
}
