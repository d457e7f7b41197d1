//! Query-addressable figure and statistic computation.
//!
//! The batch pipeline ([`crate::pipeline::AnalysisReport`]) computes
//! *everything* in one pass. A serving system needs the opposite
//! granularity: one figure, or one scalar, on demand, addressed by a
//! stable token that can live in a cache key. This module provides the
//! address space:
//!
//! - [`FigureId`] — every figure of the report, each renderable on its
//!   own from a [`SimOutput`] and its per-user statistics.
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
use crate::view::gpu_views;
use sc_cluster::SimOutput;
use sc_stats::{mean, percentile};

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

    /// The stable token naming this figure (`fig3` … `fig17`,
    /// `goodput`, `timeline`, `streaming`).
    pub fn name(&self) -> &'static str {
        match self {
            FigureId::Fig3 => "fig3",
            FigureId::Fig4 => "fig4",
            FigureId::Fig5 => "fig5",
            FigureId::Fig6 => "fig6",
            FigureId::Fig7 => "fig7",
            FigureId::Fig8 => "fig8",
            FigureId::Fig9 => "fig9",
            FigureId::Fig10 => "fig10",
            FigureId::Fig11 => "fig11",
            FigureId::Fig12 => "fig12",
            FigureId::Fig13 => "fig13",
            FigureId::Fig14 => "fig14",
            FigureId::Fig15 => "fig15",
            FigureId::Fig16 => "fig16",
            FigureId::Fig17 => "fig17",
            FigureId::Goodput => "goodput",
            FigureId::Timeline => "timeline",
            FigureId::Streaming => "streaming",
        }
    }

    /// Parses a [`FigureId::name`] token.
    pub fn parse(s: &str) -> Option<FigureId> {
        FigureId::ALL.iter().copied().find(|id| id.name() == s)
    }

    /// Computes and renders this figure from a simulation output and
    /// its per-user statistics, `user_stats(&gpu_views(&out.dataset))`.
    ///
    /// The caller computes `users` once per world: Figs. 10–13 and 17
    /// read them, and every other figure ignores them. The job views
    /// are built here, which costs one pass that borrows the dataset's
    /// stored job-level aggregates.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] tagged with this figure's stage name
    /// when the output lacks the population the figure needs.
    pub fn render(&self, out: &SimOutput, users: &[UserStats]) -> Result<String, PipelineError> {
        let stage = self.name();
        let err = |source| PipelineError { stage, source };
        let views = gpu_views(&out.dataset);
        let rendered = match self {
            FigureId::Fig3 => Fig3::try_compute(&out.dataset).map_err(err)?.render(),
            FigureId::Fig4 => Fig4::try_compute(&views).map_err(err)?.render(),
            FigureId::Fig5 => Fig5::try_compute(&views).map_err(err)?.render(),
            FigureId::Fig6 => Fig6::try_compute(&out.detailed).map_err(err)?.render(),
            FigureId::Fig7 => Fig7::try_compute(&out.detailed, &views).map_err(err)?.render(),
            FigureId::Fig8 => Fig8::try_compute(&views).map_err(err)?.render(),
            FigureId::Fig9 => Fig9::try_compute(&views).map_err(err)?.render(),
            FigureId::Fig10 => Fig10::try_compute(users).map_err(err)?.render(),
            FigureId::Fig11 => Fig11::try_compute(users).map_err(err)?.render(),
            FigureId::Fig12 => Fig12::try_compute(users).map_err(err)?.render(),
            FigureId::Fig13 => Fig13::try_compute(&views, users).map_err(err)?.render(),
            FigureId::Fig14 => Fig14::try_compute(&views).map_err(err)?.render(),
            FigureId::Fig15 => Fig15::try_compute(&views).map_err(err)?.render(),
            FigureId::Fig16 => Fig16::try_compute(&views).map_err(err)?.render(),
            FigureId::Fig17 => Fig17::try_compute(users).map_err(err)?.render(),
            FigureId::Goodput => GoodputFig::try_compute(out).map_err(err)?.render(),
            FigureId::Timeline => ClusterTimelineFig::try_compute(out).map_err(err)?.render(),
            FigureId::Streaming => StreamingTelemetryFig::try_compute(out).map_err(err)?.render(),
        };
        Ok(rendered)
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

    /// Computes this statistic from a simulation output.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] (stage = the stat token) when the
    /// output has no analyzed GPU jobs.
    pub fn compute(&self, out: &SimOutput) -> Result<f64, PipelineError> {
        let stage = self.name();
        let err = |source| PipelineError { stage, source };
        let views = gpu_views(&out.dataset);
        let series: Vec<f64> = match self {
            PointStat::JobsAnalyzed => return Ok(views.len() as f64),
            PointStat::UniqueUsers => {
                return Ok(out.dataset.funnel().unique_users as f64);
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

    #[test]
    fn every_figure_renders_standalone() {
        let out = small_sim();
        let users = user_stats(&gpu_views(&out.dataset));
        for id in FigureId::ALL {
            let text = id.render(out, &users).unwrap_or_else(|e| panic!("{}: {e}", id.name()));
            assert!(!text.is_empty(), "{} rendered empty", id.name());
        }
    }

    #[test]
    fn standalone_renders_match_the_batch_pipeline() {
        let out = small_sim();
        let report = crate::AnalysisReport::try_from_sim(out).unwrap();
        // Every figure the report carries; the streaming cross-check is
        // the one figure it does not.
        let batch = |id: FigureId| match id {
            FigureId::Fig3 => Some(report.fig3.render()),
            FigureId::Fig4 => Some(report.fig4.render()),
            FigureId::Fig5 => Some(report.fig5.render()),
            FigureId::Fig6 => Some(report.fig6.render()),
            FigureId::Fig7 => Some(report.fig7.render()),
            FigureId::Fig8 => Some(report.fig8.render()),
            FigureId::Fig9 => Some(report.fig9.render()),
            FigureId::Fig10 => Some(report.fig10.render()),
            FigureId::Fig11 => Some(report.fig11.render()),
            FigureId::Fig12 => Some(report.fig12.render()),
            FigureId::Fig13 => Some(report.fig13.render()),
            FigureId::Fig14 => Some(report.fig14.render()),
            FigureId::Fig15 => Some(report.fig15.render()),
            FigureId::Fig16 => Some(report.fig16.render()),
            FigureId::Fig17 => Some(report.fig17.render()),
            FigureId::Goodput => Some(report.goodput.render()),
            FigureId::Timeline => Some(report.timeline.render()),
            FigureId::Streaming => None,
        };
        let users = user_stats(&gpu_views(&out.dataset));
        let mut compared = 0;
        for id in FigureId::ALL {
            if let Some(expected) = batch(id) {
                let text = id.render(out, &users).unwrap_or_else(|e| panic!("{}: {e}", id.name()));
                assert_eq!(text, expected, "{}", id.name());
                compared += 1;
            }
        }
        assert_eq!(compared, FigureId::ALL.len() - 1);
    }

    #[test]
    fn point_stats_compute_and_are_finite() {
        let out = small_sim();
        for p in PointStat::ALL {
            let v = p.compute(out).unwrap_or_else(|e| panic!("{}: {e}", p.name()));
            assert!(v.is_finite(), "{} not finite", p.name());
            assert!(v >= 0.0, "{} negative", p.name());
        }
        let jobs = PointStat::JobsAnalyzed.compute(out).expect("jobs");
        assert_eq!(jobs, gpu_views(&out.dataset).len() as f64);
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
