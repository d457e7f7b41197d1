//! The end-to-end analysis pipeline: one call from a simulation output
//! to every figure of the paper.

use crate::figures::Figure;
use crate::query::{FigureId, Inputs};
use crate::report::{markdown_table, Comparison};
use crate::userstats::{user_stats, UserStats};
use crate::view::gpu_views;
use sc_cluster::{ClusterSpec, SimOutput};
use sc_obs::StageLog;
use sc_stats::StatsError;
use sc_telemetry::dataset::DatasetFunnel;

/// A figure stage failed on a degenerate input. Carries the stage name
/// so a pipeline over repaired (possibly thinned) data can report
/// *which* figure could not be computed instead of unwinding.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineError {
    /// The pipeline stage, a [`FigureId::name`] or a point statistic.
    pub stage: &'static str,
    /// The underlying statistics error.
    pub source: StatsError,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pipeline stage {}: {}", self.stage, self.source)
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Every figure of the paper, computed from one simulation run.
#[derive(Debug)]
pub struct AnalysisReport {
    /// Table I rows.
    pub table1: Vec<(String, String)>,
    /// Dataset funnel (Sec. II).
    pub funnel: DatasetFunnel,
    /// Every [`FigureId::in_report`] figure, in report order.
    pub figures: Vec<(FigureId, Box<dyn Figure>)>,
    /// The per-user statistics the user-level figures were computed
    /// from.
    pub users: Vec<UserStats>,
}

impl AnalysisReport {
    /// Computes every figure from a simulation output.
    ///
    /// # Errors
    ///
    /// Returns the first failing stage as a [`PipelineError`] when the
    /// output lacks the populations a figure needs (e.g. no multi-GPU
    /// jobs, no detailed subset).
    pub fn try_from_sim(out: &SimOutput) -> Result<Self, PipelineError> {
        Self::try_from_sim_logged(out, &StageLog::new())
    }

    /// Like [`AnalysisReport::try_from_sim`], recording a wall-clock
    /// span per pipeline stage (view building, user stats, each figure
    /// under its [`FigureId::name`]) into `log` — the substrate of the
    /// Chrome trace export. The report itself is identical to
    /// `try_from_sim`'s.
    ///
    /// # Errors
    ///
    /// Returns the first failing stage as a [`PipelineError`].
    pub fn try_from_sim_logged(out: &SimOutput, log: &StageLog) -> Result<Self, PipelineError> {
        let views = log.time("gpu_views", || gpu_views(&out.dataset));
        let users = log.time("user_stats", || user_stats(&views));
        let input = Inputs { dataset: &out.dataset, views: &views, users: &users, sim: Some(out) };
        // Figures compute in report order, so the first failing stage
        // in that order is the one reported.
        let figures = FigureId::ALL
            .into_iter()
            .filter(|id| id.in_report())
            .map(|id| Ok((id, log.time(id.name(), || id.compute(&input))?)))
            .collect::<Result<_, PipelineError>>()?;
        Ok(AnalysisReport {
            table1: ClusterSpec::supercloud().table1(),
            funnel: out.dataset.funnel(),
            figures,
            users,
        })
    }

    /// All paper-vs-measured comparisons, grouped by figure.
    pub fn all_comparisons(&self) -> Vec<(&'static str, Vec<Comparison>)> {
        self.figures.iter().filter_map(|(id, fig)| Some((id.title()?, fig.comparisons()))).collect()
    }

    /// Renders every figure's series as plain text (what the repro
    /// harness prints).
    pub fn render_text(&self) -> String {
        let mut s = String::from("Table I — system specification:\n");
        for (k, v) in &self.table1 {
            s.push_str(&format!("  {k}: {v}\n"));
        }
        s.push_str(&format!(
            "Dataset funnel: {} total jobs, {} CPU jobs, {} GPU jobs analyzed ({} filtered \
             <30 s), {} users\n\n",
            self.funnel.total_jobs,
            self.funnel.cpu_jobs,
            self.funnel.gpu_jobs,
            self.funnel.gpu_jobs_filtered_out,
            self.funnel.unique_users
        ));
        for (_, fig) in &self.figures {
            s.push_str(&fig.render());
            s.push('\n');
        }
        s
    }

    /// Renders the paper-vs-measured comparison as Markdown (the body
    /// of `EXPERIMENTS.md`), closing with the known residual gaps.
    pub fn experiments_markdown(&self) -> String {
        let mut s = String::from(
            "# EXPERIMENTS — paper vs. measured\n\n\
             Every table and figure of the HPCA 2022 Supercloud characterization,\n\
             regenerated from the synthetic reproduction. Absolute agreement is not\n\
             expected (the substrate is a calibrated simulator, not the production\n\
             cluster); the *shape* — orderings, who dominates, where the mass sits —\n\
             is the reproduction target. Ratios near 1.00× indicate close agreement.\n\n",
        );
        s.push_str(&format!(
            "## Table I / dataset funnel\n\n\
             | Metric | Paper | Measured |\n|---|---|---|\n\
             | total jobs | 74820 | {} |\n\
             | analyzed GPU jobs | 47120 | {} |\n\
             | unique users | 191 | {} |\n\
             | detailed-series jobs | 2149 | {} |\n\n",
            self.funnel.total_jobs,
            self.funnel.gpu_jobs,
            self.funnel.unique_users,
            "(see harness output)"
        ));
        for (title, rows) in self.all_comparisons() {
            s.push_str(&markdown_table(title, &rows));
            s.push('\n');
        }
        s.push_str(KNOWN_GAPS);
        s
    }
}

/// Residual deviations we know about and accept; everything else in the
/// tables above tracks the paper within roughly ±30%.
const KNOWN_GAPS: &str = "\n## Known residual gaps\n\n\
- **Queue-wait CDF depth (Fig. 3b).** The orderings hold (GPU jobs clear in \
seconds, CPU jobs in minutes; 70% of CPU jobs wait over a minute), but our \
simulated cluster runs at ~20% GPU occupancy, so fewer GPU jobs ever wait at \
all than on the real system (≈90% under 2% of service time vs the paper's \
≈50%). Reproducing the deeper waits would require knowledge of the real \
system's background load that the paper does not report.\n\
- **Run-time p75 (Fig. 3a).** The paper's quantile triple (4/30/300 min) is \
wider than any single heavy-tailed family; our mixture honours the median and \
the GPU-hour shares of Fig. 15b, leaving p75 at ≈180-230 min. The class-level \
medians (36 min mature / 62 min exploratory) are matched instead.\n\
- **Per-user average run time (Fig. 10).** Median-of-averages lands at \
≈170-190 min vs the paper's 392 min; the spread (p25:p75 ≈ 1:3) and the \
heavy-tail shape are reproduced. Lifting it further would break the job-level \
run-time medians we prioritize.\n\
- **Fig. 12 CoV correlations.** The paper reports low positive bars; we land \
slightly negative to flat (≈-0.2…0.1). The qualitative claim — expert users \
are *not* more predictable — holds; the exact bar heights depend on \
unpublished within-user structure.\n\
- **Top-share sampling variance (Fig. 11).** The fitted Pareto shape \
(α ≈ 1.13) has infinite variance, so the *empirical* top-20% GPU-hour share \
of a 20k-user draw ranges 0.75-0.96 across seeds even though the analytic \
Lorenz shares match the paper exactly. Sampled-share tests therefore assert \
wide heavy-tail bands; the exact calibration is checked analytically.\n\
- **Wait growth under capacity loss.** With the full cluster at ~20% \
occupancy the mean queue wait is floored at the 3 s scheduler latency, so \
the wait-growth factor when capacity shrinks is bounded by queueing pressure \
alone: we measure ≈7× and assert a robust 5× directional bar rather than the \
10× one might expect from utilization ratios.\n\
- **Deadline surge is a GPU-job metric.** CPU campaign bursts can land \
hundreds of jobs on a single off-season day and swamp the all-jobs daily \
mean, so the pre-deadline surge (Sec. II) is computed over GPU submissions \
only, where the deadline ramp actually shows (≈1.2× vs the 1.1× bar).\n";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Reads;
    use crate::testsupport::small_sim;

    #[test]
    fn dataset_report_roundtrips_through_json() {
        // The published-dataset workflow: export the joined dataset,
        // reload it, and regenerate the figures a release carries.
        let direct = &small_sim().dataset;
        let json = direct.to_json();
        let reloaded = sc_telemetry::Dataset::from_json(&json).expect("parseable");
        let render = |dataset| {
            let views = gpu_views(dataset);
            let users = user_stats(&views);
            let input = Inputs { dataset, views: &views, users: &users, sim: None };
            let release = FigureId::ALL.into_iter().filter(|id| id.reads() == Reads::Records);
            release.map(|id| id.compute(&input).unwrap().render()).collect::<String>()
        };
        let text = render(&reloaded);
        assert_eq!(text, render(direct));
        assert!(text.contains("Fig. 15"));
    }

    #[test]
    fn full_pipeline_runs_on_small_trace() {
        let report = AnalysisReport::try_from_sim(small_sim()).unwrap();
        assert!(!report.users.is_empty());
        assert_eq!(report.all_comparisons().len(), 16);
        let text = report.render_text();
        for marker in ["Table I", "Fig. 3(a)", "Fig. 9(b)", "Fig. 17(b)", "ClusterTimeline"] {
            assert!(text.contains(marker), "missing {marker}");
        }
        let md = report.experiments_markdown();
        assert!(md.contains("# EXPERIMENTS"));
        assert!(md.contains("| Metric | Paper | Measured | Ratio |"));
    }

    #[test]
    fn logged_pipeline_records_a_span_per_stage() {
        let log = StageLog::new();
        let report = AnalysisReport::try_from_sim_logged(small_sim(), &log).unwrap();
        assert!(!report.users.is_empty());
        let spans = log.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        for stage in ["gpu_views", "user_stats", "fig3", "fig17", "goodput", "timeline"] {
            assert!(names.contains(&stage), "missing stage {stage} in {names:?}");
        }
        // Views and user stats run before any figure span opens.
        assert_eq!(names[0], "gpu_views");
        assert_eq!(names[1], "user_stats");
        // The spans render to a loadable Chrome trace document.
        let doc = sc_obs::chrome_trace_json(&spans);
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"name\":\"gpu_views\""));
    }
}
