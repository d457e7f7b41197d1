//! Fig. 4 — GPU resource-utilization CDFs (SM, memory BW, memory size,
//! PCIe Tx/Rx).

use crate::figures::Figure;
use crate::paper::fig4 as paper;
use crate::report::{format_cdf_points, Comparison};
use crate::svg::{ecdf_chart, Scale};
use crate::view::GpuJobView;
use sc_stats::{Ecdf, StatsError};

/// Fig. 4(a): job-mean utilization ECDFs; Fig. 4(b): PCIe bandwidth
/// utilization ECDFs.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Job-mean SM utilization, %.
    pub sm: Ecdf,
    /// Job-mean memory-bandwidth utilization, %.
    pub mem: Ecdf,
    /// Job-mean memory-size utilization, %.
    pub mem_size: Ecdf,
    /// Job-mean PCIe Tx utilization, %.
    pub pcie_tx: Ecdf,
    /// Job-mean PCIe Rx utilization, %.
    pub pcie_rx: Ecdf,
}

impl Fig4 {
    /// Computes the figure from GPU-job views.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for an empty view set.
    pub fn try_compute(views: &[GpuJobView<'_>]) -> Result<Self, StatsError> {
        let pick = |f: fn(&GpuJobView) -> f64| Ecdf::new(views.iter().map(f).collect::<Vec<_>>());
        Ok(Fig4 {
            sm: pick(|v| v.agg.sm_util.mean)?,
            mem: pick(|v| v.agg.mem_util.mean)?,
            mem_size: pick(|v| v.agg.mem_size_util.mean)?,
            pcie_tx: pick(|v| v.agg.pcie_tx.mean)?,
            pcie_rx: pick(|v| v.agg.pcie_rx.mean)?,
        })
    }
}

impl Figure for Fig4 {
    /// Paper-vs-measured rows.
    fn comparisons(&self) -> Vec<Comparison> {
        vec![
            Comparison::new("median SM utilization", paper::SM_MEDIAN, self.sm.median(), "%"),
            Comparison::new("median memory utilization", paper::MEM_MEDIAN, self.mem.median(), "%"),
            Comparison::new(
                "median memory-size utilization",
                paper::MEM_SIZE_MEDIAN,
                self.mem_size.median(),
                "%",
            ),
            Comparison::new(
                "jobs above 50% SM",
                paper::SM_ABOVE_50_FRACTION,
                self.sm.fraction_above(50.0),
                "frac",
            ),
            Comparison::new(
                "jobs above 50% memory",
                paper::MEM_ABOVE_50_FRACTION,
                self.mem.fraction_above(50.0),
                "frac",
            ),
            Comparison::new(
                "jobs above 50% memory size",
                paper::MEM_SIZE_ABOVE_50_FRACTION,
                self.mem_size.fraction_above(50.0),
                "frac",
            ),
        ]
    }

    /// Renders the figure series as text.
    fn render(&self) -> String {
        let mut s = String::from("Fig. 4(a) utilization ECDFs (%):\n");
        for (name, cdf) in [("SM", &self.sm), ("Memory", &self.mem), ("MemSize", &self.mem_size)] {
            s.push_str(&format!("  {name}: {}\n", format_cdf_points(&cdf.curve(20), 20)));
        }
        s.push_str("Fig. 4(b) PCIe bandwidth utilization ECDFs (%):\n");
        for (name, cdf) in [("Tx", &self.pcie_tx), ("Rx", &self.pcie_rx)] {
            s.push_str(&format!("  {name}: {}\n", format_cdf_points(&cdf.curve(20), 20)));
        }
        s
    }

    fn svgs(&self) -> Vec<(&'static str, String)> {
        let utilization =
            [("SM", &self.sm), ("memory BW", &self.mem), ("memory size", &self.mem_size)];
        let pcie = [("Tx", &self.pcie_tx), ("Rx", &self.pcie_rx)];
        vec![
            (
                "fig04a_utilization.svg",
                ecdf_chart(
                    "Fig. 4(a) — utilization ECDFs",
                    "job-mean utilization (%)",
                    Scale::Linear,
                    &utilization,
                ),
            ),
            (
                "fig04b_pcie.svg",
                ecdf_chart(
                    "Fig. 4(b) — PCIe bandwidth ECDFs",
                    "job-mean PCIe utilization (%)",
                    Scale::Linear,
                    &pcie,
                ),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::small_views;

    #[test]
    fn sm_dominates_memory_bandwidth() {
        let views = small_views();
        let fig = Fig4::try_compute(&views).unwrap();
        // "SM is more heavily utilized than memory bandwidth."
        assert!(fig.sm.median() > fig.mem.median());
        assert!(fig.mem.median() < 8.0, "mem median {}", fig.mem.median());
    }

    #[test]
    fn most_jobs_underutilize_everything() {
        let views = small_views();
        let fig = Fig4::try_compute(&views).unwrap();
        // "only 20% of the jobs have more than 50% SM utilization" —
        // directionally: a minority exceeds 50% on each resource.
        assert!(fig.sm.fraction_above(50.0) < 0.45);
        assert!(fig.mem.fraction_above(50.0) < 0.15);
        assert!(fig.mem_size.fraction_above(50.0) < 0.40);
    }

    #[test]
    fn pcie_distribution_is_spread_out() {
        let views = small_views();
        let fig = Fig4::try_compute(&views).unwrap();
        // Fig. 4b's "linearly increasing CDF": mass is not clumped —
        // interquartile range is a large slice of the support.
        let iqr = fig.pcie_rx.quantile(0.75) - fig.pcie_rx.quantile(0.25);
        assert!(iqr > 10.0, "PCIe Rx IQR {iqr}");
    }

    #[test]
    fn render_and_compare() {
        let views = small_views();
        let fig = Fig4::try_compute(&views).unwrap();
        assert!(fig.render().contains("Fig. 4(b)"));
        assert_eq!(fig.comparisons().len(), 6);
    }
}
