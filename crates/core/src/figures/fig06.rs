//! Fig. 6 — active/idle phase structure from the 100 ms time-series
//! subset.

use crate::figures::Figure;
use crate::paper::fig6 as paper;
use crate::report::{format_cdf_points, Comparison};
use crate::svg::{ecdf_chart, Scale};
use sc_cluster::DetailedJobStats;
use sc_stats::{Ecdf, StatsError};

/// Fig. 6(a): ECDF of time spent active (% of run time); Fig. 6(b):
/// ECDFs of the CoV of idle and active interval lengths.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// Active time as % of run time, one point per detailed job.
    pub active_pct: Ecdf,
    /// CoV (%) of idle-interval lengths (jobs with ≥2 idle intervals).
    pub idle_cov: Ecdf,
    /// CoV (%) of active-interval lengths (jobs with ≥2 active
    /// intervals).
    pub active_cov: Ecdf,
}

impl Fig6 {
    /// Computes the figure from the detailed-subset statistics.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] when the subset is empty or no
    /// job alternates phases.
    pub fn try_compute(detailed: &[DetailedJobStats]) -> Result<Self, StatsError> {
        let active_pct: Vec<f64> =
            detailed.iter().map(|d| d.phases.active_fraction * 100.0).collect();
        let idle_cov: Vec<f64> =
            detailed.iter().filter_map(|d| d.phases.idle_interval_cov).collect();
        let active_cov: Vec<f64> =
            detailed.iter().filter_map(|d| d.phases.active_interval_cov).collect();
        Ok(Fig6 {
            active_pct: Ecdf::new(active_pct)?,
            idle_cov: Ecdf::new(idle_cov)?,
            active_cov: Ecdf::new(active_cov)?,
        })
    }
}

impl Figure for Fig6 {
    /// Paper-vs-measured rows.
    fn comparisons(&self) -> Vec<Comparison> {
        vec![
            Comparison::new(
                "median active time share",
                paper::ACTIVE_FRACTION_MEDIAN * 100.0,
                self.active_pct.median(),
                "%",
            ),
            Comparison::new(
                "p25 active time share",
                paper::ACTIVE_FRACTION_P25 * 100.0,
                self.active_pct.quantile(0.25),
                "%",
            ),
            Comparison::new(
                "p75 active time share",
                paper::ACTIVE_FRACTION_P75 * 100.0,
                self.active_pct.quantile(0.75),
                "%",
            ),
            Comparison::new(
                "median idle-interval CoV",
                paper::IDLE_INTERVAL_COV_MEDIAN,
                self.idle_cov.median(),
                "%",
            ),
            Comparison::new(
                "median active-interval CoV",
                paper::ACTIVE_INTERVAL_COV_MEDIAN,
                self.active_cov.median(),
                "%",
            ),
        ]
    }

    /// Renders both panels as text.
    fn render(&self) -> String {
        format!(
            "Fig. 6(a) active time as % of run time:\n  {}\n\
             Fig. 6(b) interval-length CoV ECDFs (%):\n  idle:   {}\n  active: {}\n",
            format_cdf_points(&self.active_pct.curve(20), 20),
            format_cdf_points(&self.idle_cov.curve(20), 20),
            format_cdf_points(&self.active_cov.curve(20), 20),
        )
    }

    fn svgs(&self) -> Vec<(&'static str, String)> {
        let active = [("jobs", &self.active_pct)];
        let covs = [("idle intervals", &self.idle_cov), ("active intervals", &self.active_cov)];
        vec![
            (
                "fig06a_active_share.svg",
                ecdf_chart(
                    "Fig. 6(a) — time in active phases",
                    "active time (% of run)",
                    Scale::Linear,
                    &active,
                ),
            ),
            (
                "fig06b_interval_cov.svg",
                ecdf_chart("Fig. 6(b) — interval-length CoV", "CoV (%)", Scale::Linear, &covs),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::small_sim;

    #[test]
    fn phases_are_irregular() {
        let out = small_sim();
        let fig = Fig6::try_compute(&out.detailed).unwrap();
        // "both idle (median 126%) and active (median 169%) phases have
        // a high CoV" — phases must not look periodic.
        assert!(fig.idle_cov.median() > 50.0, "idle CoV {}", fig.idle_cov.median());
        assert!(fig.active_cov.median() > 50.0, "active CoV {}", fig.active_cov.median());
    }

    #[test]
    fn active_share_is_bimodal_with_high_median() {
        let out = small_sim();
        let fig = Fig6::try_compute(&out.detailed).unwrap();
        // Median job mostly active; a quarter of jobs mostly idle.
        assert!(fig.active_pct.median() > 50.0);
        assert!(fig.active_pct.quantile(0.25) < fig.active_pct.median());
    }

    #[test]
    fn render_and_comparisons() {
        let out = small_sim();
        let fig = Fig6::try_compute(&out.detailed).unwrap();
        assert!(fig.render().contains("Fig. 6(b)"));
        assert_eq!(fig.comparisons().len(), 5);
    }
}
