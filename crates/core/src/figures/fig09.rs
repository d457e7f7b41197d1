//! Fig. 9 — GPU power consumption and power-capping impact.

use crate::figures::Figure;
use crate::paper::fig9 as paper;
use crate::report::{format_cdf_points, Comparison};
use crate::svg::{ecdf_chart, Scale};
use crate::view::GpuJobView;
use sc_stats::{Ecdf, StatsError};

/// Impact of one cap level (Fig. 9b bars).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapImpact {
    /// The cap, watts.
    pub cap_w: f64,
    /// Fraction of jobs whose maximum draw stays under the cap
    /// (completely unimpacted).
    pub unimpacted: f64,
    /// Fraction whose maximum draw exceeds the cap (impacted at peak).
    pub impacted_by_max: f64,
    /// Fraction whose *average* draw exceeds the cap (impacted
    /// throughout).
    pub impacted_by_avg: f64,
}

/// Fig. 9(a): ECDFs of job-average and job-maximum power; Fig. 9(b):
/// cap impact at 150/200/250 W.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// Job-average GPU power, watts.
    pub avg_power: Ecdf,
    /// Job-maximum GPU power, watts.
    pub max_power: Ecdf,
    /// Cap impacts in [`crate::paper::fig9::CAP_LEVELS_W`] order.
    pub caps: Vec<CapImpact>,
}

impl Fig9 {
    /// Computes the figure from the job views' power aggregates.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] when `views` is empty and
    /// propagates non-finite sample errors.
    pub fn try_compute(views: &[GpuJobView<'_>]) -> Result<Self, StatsError> {
        let avg: Vec<f64> = views.iter().map(|v| v.agg.power_w.mean).collect();
        let max: Vec<f64> = views.iter().map(|v| v.agg.power_w.max).collect();
        let avg_power = Ecdf::new(avg)?;
        let max_power = Ecdf::new(max)?;
        let caps = paper::CAP_LEVELS_W
            .iter()
            .map(|&cap_w| CapImpact {
                cap_w,
                unimpacted: max_power.fraction_at_most(cap_w),
                impacted_by_max: max_power.fraction_above(cap_w),
                impacted_by_avg: avg_power.fraction_above(cap_w),
            })
            .collect();
        Ok(Fig9 { avg_power, max_power, caps })
    }
}

impl Figure for Fig9 {
    /// Paper-vs-measured rows.
    fn comparisons(&self) -> Vec<Comparison> {
        let cap150 = self.caps[0];
        vec![
            Comparison::new(
                "median job-average power",
                paper::AVG_POWER_MEDIAN_W,
                self.avg_power.median(),
                "W",
            ),
            Comparison::new(
                "median job-maximum power",
                paper::MAX_POWER_MEDIAN_W,
                self.max_power.median(),
                "W",
            ),
            Comparison::new(
                "jobs unimpacted at 150 W cap",
                paper::UNIMPACTED_AT_150W,
                cap150.unimpacted,
                "frac",
            ),
            Comparison::new(
                "jobs avg-impacted at 150 W cap",
                paper::AVG_IMPACTED_AT_150W,
                cap150.impacted_by_avg,
                "frac",
            ),
        ]
    }

    /// Renders both panels as text.
    fn render(&self) -> String {
        let mut s = format!(
            "Fig. 9(a) power ECDFs (W):\n  avg: {}\n  max: {}\n",
            format_cdf_points(&self.avg_power.curve(20), 20),
            format_cdf_points(&self.max_power.curve(20), 20)
        );
        s.push_str("Fig. 9(b) power-cap impact:\n");
        for c in &self.caps {
            s.push_str(&format!(
                "  cap {:>3} W: unimpacted {:.1}%, impacted-by-max {:.1}%, impacted-by-avg {:.1}%\n",
                c.cap_w,
                c.unimpacted * 100.0,
                c.impacted_by_max * 100.0,
                c.impacted_by_avg * 100.0
            ));
        }
        s
    }

    fn svgs(&self) -> Vec<(&'static str, String)> {
        let power = [("average", &self.avg_power), ("maximum", &self.max_power)];
        vec![(
            "fig09a_power.svg",
            ecdf_chart("Fig. 9(a) — GPU power ECDFs", "power (W)", Scale::Linear, &power),
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::small_views;

    #[test]
    fn power_is_far_below_tdp() {
        let views = small_views();
        let fig = Fig9::try_compute(&views).unwrap();
        // "most jobs consume less than half or even a third of the
        // available power on average."
        assert!(fig.avg_power.median() < 100.0, "avg median {}", fig.avg_power.median());
        assert!(fig.max_power.median() < 150.0, "max median {}", fig.max_power.median());
        assert!(fig.max_power.max() <= 300.0 + 1e-9);
    }

    #[test]
    fn capping_at_150w_leaves_majority_unimpacted() {
        let views = small_views();
        let fig = Fig9::try_compute(&views).unwrap();
        let cap150 = fig.caps[0];
        assert!(cap150.unimpacted > 0.5, "unimpacted {}", cap150.unimpacted);
        assert!(cap150.impacted_by_avg < 0.15, "avg impacted {}", cap150.impacted_by_avg);
        // Monotonicity across cap levels.
        assert!(fig.caps[1].unimpacted >= fig.caps[0].unimpacted);
        assert!(fig.caps[2].unimpacted >= fig.caps[1].unimpacted);
    }

    #[test]
    fn max_dominates_avg_pointwise() {
        let views = small_views();
        for v in &views {
            assert!(v.agg.power_w.max >= v.agg.power_w.mean - 1e-9);
        }
    }

    #[test]
    fn render_mentions_all_caps() {
        let views = small_views();
        let text = Fig9::try_compute(&views).unwrap().render();
        for cap in ["150", "200", "250"] {
            assert!(text.contains(cap));
        }
    }
}
