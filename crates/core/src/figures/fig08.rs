//! Fig. 8 — single- and two-resource bottleneck fractions.

use crate::figures::Figure;
use crate::paper::fig8 as paper;
use crate::report::Comparison;
use crate::view::GpuJobView;
use sc_stats::StatsError;
use sc_telemetry::metrics::GpuResource;
use sc_telemetry::phases::is_bottlenecked;

/// Fig. 8(a): fraction of jobs hitting each resource's ceiling;
/// Fig. 8(b): fractions for every resource pair.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// `(resource, fraction)` single-resource bars.
    pub singles: Vec<(GpuResource, f64)>,
    /// `(resource A, resource B, fraction)` pair bars (A < B in
    /// [`GpuResource::UTILIZATION`] order).
    pub pairs: Vec<(GpuResource, GpuResource, f64)>,
}

impl Fig8 {
    /// Computes both panels from the job views' max aggregates.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] when `views` is empty.
    pub fn try_compute(views: &[GpuJobView<'_>]) -> Result<Self, StatsError> {
        if views.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let n = views.len() as f64;
        let hit = |v: &GpuJobView, r: GpuResource| is_bottlenecked(v.agg.resource(r).max, r);
        let singles = GpuResource::UTILIZATION
            .iter()
            .map(|&r| (r, views.iter().filter(|v| hit(v, r)).count() as f64 / n))
            .collect();
        let mut pairs = Vec::new();
        let rs = GpuResource::UTILIZATION;
        for i in 0..rs.len() {
            for j in i + 1..rs.len() {
                let f = views.iter().filter(|v| hit(v, rs[i]) && hit(v, rs[j])).count() as f64 / n;
                pairs.push((rs[i], rs[j], f));
            }
        }
        Ok(Fig8 { singles, pairs })
    }

    /// The fraction for one pair, order-insensitive.
    pub fn pair(&self, a: GpuResource, b: GpuResource) -> f64 {
        self.pairs
            .iter()
            .find(|(x, y, _)| (*x == a && *y == b) || (*x == b && *y == a))
            .map(|(_, _, f)| *f)
            .unwrap_or(0.0)
    }
}

impl Figure for Fig8 {
    /// Paper-vs-measured rows.
    fn comparisons(&self) -> Vec<Comparison> {
        let max_pair = self.pairs.iter().map(|(_, _, f)| *f).fold(0.0, f64::max);
        vec![
            Comparison::new(
                "PCIe-Rx ∧ SM bottleneck",
                paper::RX_AND_SM_FRACTION,
                self.pair(GpuResource::PcieRx, GpuResource::Sm),
                "frac",
            ),
            Comparison::new(
                "largest two-resource bottleneck",
                paper::ANY_PAIR_MAX_FRACTION,
                max_pair,
                "frac",
            ),
        ]
    }

    /// Renders both panels as text bars.
    fn render(&self) -> String {
        let mut s = String::from("Fig. 8(a) single-resource bottleneck fractions:\n");
        for (r, f) in &self.singles {
            s.push_str(&format!("  {:<8} {:.1}%\n", r.to_string(), f * 100.0));
        }
        s.push_str("Fig. 8(b) two-resource bottleneck fractions:\n");
        for (a, b, f) in &self.pairs {
            s.push_str(&format!(
                "  {:<8} ∧ {:<8} {:.2}%\n",
                a.to_string(),
                b.to_string(),
                f * 100.0
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::small_views;

    #[test]
    fn pairs_never_exceed_their_singles() {
        let views = small_views();
        let fig = Fig8::try_compute(&views).unwrap();
        for (a, b, f) in &fig.pairs {
            let fa = fig.singles.iter().find(|(r, _)| r == a).unwrap().1;
            let fb = fig.singles.iter().find(|(r, _)| r == b).unwrap().1;
            assert!(*f <= fa + 1e-12 && *f <= fb + 1e-12);
        }
    }

    #[test]
    fn every_pair_is_a_minority() {
        let views = small_views();
        let fig = Fig8::try_compute(&views).unwrap();
        // "jobs experiencing any two or more resource bottlenecks during
        // the same run are less than 10%" (with slack for small samples).
        for (_, _, f) in &fig.pairs {
            assert!(*f < 0.2, "pair fraction {f}");
        }
    }

    #[test]
    fn rx_sm_pair_is_the_largest_involving_sm() {
        let views = small_views();
        let fig = Fig8::try_compute(&views).unwrap();
        let rx_sm = fig.pair(GpuResource::PcieRx, GpuResource::Sm);
        let mem_sm = fig.pair(GpuResource::Memory, GpuResource::Sm);
        assert!(rx_sm >= mem_sm, "rx∧sm {rx_sm} vs mem∧sm {mem_sm}");
    }

    #[test]
    fn render_has_ten_pairs() {
        let views = small_views();
        let fig = Fig8::try_compute(&views).unwrap();
        assert_eq!(fig.pairs.len(), 10);
        assert_eq!(fig.singles.len(), 5);
        assert!(fig.render().contains("∧"));
    }
}
