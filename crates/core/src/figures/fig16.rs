//! Fig. 16 — utilization box plots by lifecycle class.

use crate::figures::Figure;
use crate::paper::fig16 as paper;
use crate::report::Comparison;
use crate::svg::box_chart;
use crate::view::GpuJobView;
use sc_stats::{BoxStats, StatsError};
use sc_workload::LifecycleClass;

/// One class's utilization boxes.
#[derive(Debug, Clone)]
pub struct ClassBoxes {
    /// The class.
    pub class: LifecycleClass,
    /// SM utilization box (Fig. 16a).
    pub sm: BoxStats,
    /// Memory utilization box (Fig. 16b).
    pub mem: BoxStats,
    /// Memory-size utilization box (Fig. 16c).
    pub mem_size: BoxStats,
}

/// The per-class utilization comparison.
#[derive(Debug, Clone)]
pub struct Fig16 {
    /// Rows in [`LifecycleClass::ALL`] order.
    pub rows: Vec<ClassBoxes>,
}

impl Fig16 {
    /// Computes the boxes.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] when any class is
    /// unpopulated.
    pub fn try_compute(views: &[GpuJobView<'_>]) -> Result<Self, StatsError> {
        let mut rows = Vec::with_capacity(LifecycleClass::ALL.len());
        for &class in LifecycleClass::ALL.iter() {
            let sm: Vec<f64> =
                views.iter().filter(|v| v.class == class).map(|v| v.agg.sm_util.mean).collect();
            let mem: Vec<f64> =
                views.iter().filter(|v| v.class == class).map(|v| v.agg.mem_util.mean).collect();
            let msz: Vec<f64> = views
                .iter()
                .filter(|v| v.class == class)
                .map(|v| v.agg.mem_size_util.mean)
                .collect();
            rows.push(ClassBoxes {
                class,
                sm: BoxStats::from_sample(&sm)?,
                mem: BoxStats::from_sample(&mem)?,
                mem_size: BoxStats::from_sample(&msz)?,
            });
        }
        Ok(Fig16 { rows })
    }

    /// The row for one class.
    ///
    /// # Panics
    ///
    /// Panics if the class is missing (cannot happen).
    pub fn row(&self, class: LifecycleClass) -> &ClassBoxes {
        self.rows.iter().find(|r| r.class == class).expect("all classes present")
    }
}

impl Figure for Fig16 {
    /// Paper-vs-measured rows.
    fn comparisons(&self) -> Vec<Comparison> {
        use LifecycleClass::*;
        vec![
            Comparison::new(
                "mature median SM",
                paper::MATURE_SM_MEDIAN,
                self.row(Mature).sm.median,
                "%",
            ),
            Comparison::new(
                "exploratory median SM",
                paper::EXPLORATORY_SM_MEDIAN,
                self.row(Exploratory).sm.median,
                "%",
            ),
            Comparison::new(
                "development median SM",
                paper::DEVELOPMENT_SM_MEDIAN,
                self.row(Development).sm.median,
                "%",
            ),
            Comparison::new("IDE median SM", paper::IDE_SM_MEDIAN, self.row(Ide).sm.median, "%"),
            Comparison::new("IDE p75 SM", paper::IDE_SM_P75, self.row(Ide).sm.q3, "%"),
        ]
    }

    /// Renders all three panels as text.
    fn render(&self) -> String {
        let mut s = String::from("Fig. 16 utilization by lifecycle class:\n");
        for (panel, pick) in [("(a) SM", 0usize), ("(b) memory", 1), ("(c) memory size", 2)] {
            s.push_str(&format!("  {panel}:\n"));
            for r in &self.rows {
                let b = match pick {
                    0 => &r.sm,
                    1 => &r.mem,
                    _ => &r.mem_size,
                };
                s.push_str(&format!("    {:<12} {}\n", r.class.to_string(), b.render()));
            }
        }
        s
    }

    fn svgs(&self) -> Vec<(&'static str, String)> {
        let boxes: Vec<_> = self.rows.iter().map(|r| (r.class.to_string(), &r.sm)).collect();
        vec![(
            "fig16a_sm_by_class.svg",
            box_chart(
                "Fig. 16(a) — SM utilization by life-cycle class",
                "SM utilization (%)",
                &boxes,
            ),
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::small_views;
    use LifecycleClass::*;

    #[test]
    fn development_and_ide_sit_idle() {
        let views = small_views();
        let fig = Fig16::try_compute(&views).unwrap();
        // "the median SM utilization of mature jobs, exploratory jobs,
        // development jobs, and IDE jobs is 21%, 15%, 0%, and 0%."
        assert!(
            fig.row(Development).sm.median < 4.0,
            "dev median {}",
            fig.row(Development).sm.median
        );
        assert!(fig.row(Ide).sm.median < 3.0, "IDE median {}", fig.row(Ide).sm.median);
        assert!(fig.row(Mature).sm.median > 8.0, "mature median {}", fig.row(Mature).sm.median);
    }

    #[test]
    fn mature_leads_exploratory_leads_development() {
        let views = small_views();
        let fig = Fig16::try_compute(&views).unwrap();
        assert!(fig.row(Mature).sm.median >= fig.row(Exploratory).sm.median * 0.7);
        assert!(fig.row(Exploratory).sm.median > fig.row(Development).sm.median);
    }

    #[test]
    fn ide_p75_is_near_zero() {
        let views = small_views();
        let fig = Fig16::try_compute(&views).unwrap();
        // "even the 75th percentile SM utilization of IDE jobs is 0%."
        assert!(fig.row(Ide).sm.q3 < 5.0, "IDE p75 {}", fig.row(Ide).sm.q3);
        assert!(fig.render().contains("(c) memory size"));
        assert_eq!(fig.comparisons().len(), 5);
    }
}
