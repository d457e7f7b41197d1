//! Fig. 7 — within-run utilization variability (a) and per-resource
//! bottleneck radar (b).

use crate::figures::Figure;
use crate::paper::fig7 as paper;
use crate::report::{format_cdf_points, Comparison};
use crate::svg::bar_chart;
use crate::view::GpuJobView;
use sc_cluster::DetailedJobStats;
use sc_stats::{Ecdf, StatsError};
use sc_telemetry::metrics::GpuResource;
use sc_telemetry::phases::is_bottlenecked;

/// Fig. 7(a): ECDFs of per-resource CoV during active phases; Fig. 7(b):
/// the fraction of jobs bottlenecked on each resource.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// CoV (%) of SM utilization across active samples.
    pub sm_cov: Ecdf,
    /// CoV (%) of memory utilization.
    pub mem_cov: Ecdf,
    /// CoV (%) of memory-size utilization.
    pub mem_size_cov: Ecdf,
    /// `(resource, fraction of jobs bottlenecked)` radar values.
    pub bottlenecks: Vec<(GpuResource, f64)>,
}

impl Fig7 {
    /// Computes the figure. Panel (a) uses the detailed subset; panel
    /// (b) uses every analyzed job's max aggregates.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] when either input is empty or
    /// no detailed job has active samples.
    pub fn try_compute(
        detailed: &[DetailedJobStats],
        views: &[GpuJobView<'_>],
    ) -> Result<Self, StatsError> {
        if views.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let pick = |f: fn(&sc_telemetry::phases::ActiveVariability) -> f64| {
            Ecdf::new(detailed.iter().filter_map(|d| d.variability.as_ref().map(f)).collect())
        };
        let n = views.len() as f64;
        let bottlenecks = GpuResource::UTILIZATION
            .iter()
            .map(|&r| {
                let hit =
                    views.iter().filter(|v| is_bottlenecked(v.agg.resource(r).max, r)).count();
                (r, hit as f64 / n)
            })
            .collect();
        Ok(Fig7 {
            sm_cov: pick(|v| v.sm_cov)?,
            mem_cov: pick(|v| v.mem_cov)?,
            mem_size_cov: pick(|v| v.mem_size_cov)?,
            bottlenecks,
        })
    }

    /// Bottleneck fraction for one resource.
    ///
    /// # Panics
    ///
    /// Panics for [`GpuResource::Power`] (not part of the radar).
    pub fn bottleneck(&self, r: GpuResource) -> f64 {
        self.bottlenecks
            .iter()
            .find(|(res, _)| *res == r)
            .map(|(_, f)| *f)
            .expect("utilization resource")
    }
}

impl Figure for Fig7 {
    /// Paper-vs-measured rows.
    fn comparisons(&self) -> Vec<Comparison> {
        vec![
            Comparison::new(
                "median SM CoV (active)",
                paper::SM_COV_MEDIAN,
                self.sm_cov.median(),
                "%",
            ),
            Comparison::new(
                "median memory CoV (active)",
                paper::MEM_COV_MEDIAN,
                self.mem_cov.median(),
                "%",
            ),
            Comparison::new(
                "median memory-size CoV (active)",
                paper::MEM_SIZE_COV_MEDIAN,
                self.mem_size_cov.median(),
                "%",
            ),
            Comparison::new(
                "jobs with SM CoV ≥ 23%",
                paper::SM_COV_ABOVE_23_FRACTION,
                self.sm_cov.fraction_above(23.0),
                "frac",
            ),
            Comparison::new(
                "SM-bottlenecked jobs",
                paper::SM_BOTTLENECK_FRACTION,
                self.bottleneck(GpuResource::Sm),
                "frac",
            ),
            Comparison::new(
                "memory-bottlenecked jobs",
                paper::MEM_BOTTLENECK_FRACTION,
                self.bottleneck(GpuResource::Memory),
                "frac",
            ),
        ]
    }

    /// Renders both panels as text.
    fn render(&self) -> String {
        let mut s = String::from("Fig. 7(a) active-phase CoV ECDFs (%):\n");
        for (name, cdf) in
            [("SM", &self.sm_cov), ("Memory", &self.mem_cov), ("MemSize", &self.mem_size_cov)]
        {
            s.push_str(&format!("  {name}: {}\n", format_cdf_points(&cdf.curve(16), 16)));
        }
        s.push_str("Fig. 7(b) bottleneck radar (% of jobs at 100% at least once):\n");
        for (r, f) in &self.bottlenecks {
            s.push_str(&format!("  {:<8} {:.1}%\n", r.to_string(), f * 100.0));
        }
        s
    }

    fn svgs(&self) -> Vec<(&'static str, String)> {
        let bars: Vec<_> = self.bottlenecks.iter().map(|(r, f)| (r.to_string(), *f)).collect();
        vec![(
            "fig07b_bottlenecks.svg",
            bar_chart("Fig. 7(b) — jobs bottlenecked per resource", "fraction of jobs", &bars),
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::{small_sim, small_views};

    #[test]
    fn sm_is_the_dominant_bottleneck_and_memory_is_not() {
        let out = small_sim();
        let views = small_views();
        let fig = Fig7::try_compute(&out.detailed, &views).unwrap();
        let sm = fig.bottleneck(GpuResource::Sm);
        let mem = fig.bottleneck(GpuResource::Memory);
        assert!(sm > 0.08, "SM bottleneck fraction {sm}");
        assert!(mem < 0.03, "memory bottleneck fraction {mem}");
        assert!(sm > mem);
    }

    #[test]
    fn active_phase_cov_is_moderate() {
        let out = small_sim();
        let views = small_views();
        let fig = Fig7::try_compute(&out.detailed, &views).unwrap();
        // Paper medians are 8–15%; ours must be in the same regime
        // (clearly nonzero, clearly below the interval-length CoVs).
        let m = fig.sm_cov.median();
        assert!((2.0..60.0).contains(&m), "SM CoV median {m}");
    }

    #[test]
    fn radar_covers_five_resources() {
        let out = small_sim();
        let views = small_views();
        let fig = Fig7::try_compute(&out.detailed, &views).unwrap();
        assert_eq!(fig.bottlenecks.len(), 5);
        assert!(fig.render().contains("radar"));
        assert_eq!(fig.comparisons().len(), 6);
    }
}
