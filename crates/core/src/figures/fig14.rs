//! Fig. 14 — utilization balance across the GPUs of multi-GPU jobs,
//! with and without idle GPUs.

use crate::figures::Figure;
use crate::paper::fig14 as paper;
use crate::report::{format_cdf_points, Comparison};
use crate::view::GpuJobView;
use sc_stats::{coefficient_of_variation, Ecdf, StatsError};

/// SM threshold (%) below which a GPU counts as idle for panel (b).
const IDLE_GPU_SM_THRESHOLD: f64 = 0.5;

/// Fig. 14(a): cross-GPU CoV ECDFs over all GPUs of each multi-GPU job;
/// Fig. 14(b): the same with idle GPUs removed.
#[derive(Debug, Clone)]
pub struct Fig14 {
    /// Cross-GPU CoV of mean SM utilization, all GPUs.
    pub sm_cov_all: Ecdf,
    /// Cross-GPU CoV of mean memory utilization, all GPUs.
    pub mem_cov_all: Ecdf,
    /// Cross-GPU CoV of mean memory-size utilization, all GPUs.
    pub mem_size_cov_all: Ecdf,
    /// Cross-GPU CoV of mean SM utilization, active GPUs only.
    pub sm_cov_active: Ecdf,
    /// Cross-GPU CoV of mean memory utilization, active GPUs only.
    pub mem_cov_active: Ecdf,
    /// Cross-GPU CoV of mean memory-size utilization, active GPUs only.
    pub mem_size_cov_active: Ecdf,
    /// Fraction of multi-GPU jobs with at least half their GPUs idle.
    pub half_idle_fraction: f64,
}

impl Fig14 {
    /// Computes the figure over the multi-GPU jobs in `views`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] when either panel has no
    /// sample.
    pub fn try_compute(views: &[GpuJobView<'_>]) -> Result<Self, StatsError> {
        let multi: Vec<&GpuJobView> = views.iter().filter(|v| v.per_gpu.len() > 1).collect();
        if multi.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let mut sm_all = Vec::new();
        let mut mem_all = Vec::new();
        let mut msz_all = Vec::new();
        let mut sm_act = Vec::new();
        let mut mem_act = Vec::new();
        let mut msz_act = Vec::new();
        let mut half_idle = 0usize;
        for v in &multi {
            let sm: Vec<f64> = v.per_gpu.iter().map(|g| g.sm_util.mean).collect();
            let mem: Vec<f64> = v.per_gpu.iter().map(|g| g.mem_util.mean).collect();
            let msz: Vec<f64> = v.per_gpu.iter().map(|g| g.mem_size_util.mean).collect();
            if let Ok(c) = coefficient_of_variation(&sm) {
                sm_all.push(c);
            }
            if let Ok(c) = coefficient_of_variation(&mem) {
                mem_all.push(c);
            }
            if let Ok(c) = coefficient_of_variation(&msz) {
                msz_all.push(c);
            }
            // The Fig. 14a pathology: half or more GPUs idle while the
            // rest work, which is what produces the very high CoV mass.
            // Fully idle jobs (development/IDE on every GPU) have zero
            // CoV and sit at the other end of the CDF.
            let idle = sm.iter().filter(|s| **s < IDLE_GPU_SM_THRESHOLD).count();
            if 2 * idle >= sm.len() && idle < sm.len() {
                half_idle += 1;
            }
            // Active-only view.
            let keep: Vec<usize> =
                (0..sm.len()).filter(|&i| sm[i] >= IDLE_GPU_SM_THRESHOLD).collect();
            if keep.len() >= 2 {
                let pick = |d: &[f64]| keep.iter().map(|&i| d[i]).collect::<Vec<f64>>();
                if let Ok(c) = coefficient_of_variation(&pick(&sm)) {
                    sm_act.push(c);
                }
                if let Ok(c) = coefficient_of_variation(&pick(&mem)) {
                    mem_act.push(c);
                }
                if let Ok(c) = coefficient_of_variation(&pick(&msz)) {
                    msz_act.push(c);
                }
            }
        }
        Ok(Fig14 {
            sm_cov_all: Ecdf::new(sm_all)?,
            mem_cov_all: Ecdf::new(mem_all)?,
            mem_size_cov_all: Ecdf::new(msz_all)?,
            sm_cov_active: Ecdf::new(sm_act)?,
            mem_cov_active: Ecdf::new(mem_act)?,
            mem_size_cov_active: Ecdf::new(msz_act)?,
            half_idle_fraction: half_idle as f64 / multi.len() as f64,
        })
    }
}

impl Figure for Fig14 {
    /// Paper-vs-measured rows.
    fn comparisons(&self) -> Vec<Comparison> {
        vec![
            Comparison::new(
                "multi-GPU jobs with half+ GPUs idle",
                paper::HIGH_COV_FRACTION,
                self.half_idle_fraction,
                "frac",
            ),
            Comparison::new(
                "jobs with near-zero cross-GPU SM CoV (<20%)",
                paper::LOW_COV_FRACTION,
                self.sm_cov_all.fraction_at_most(20.0),
                "frac",
            ),
        ]
    }

    /// Renders both panels as text.
    fn render(&self) -> String {
        format!(
            "Fig. 14(a) cross-GPU CoV, all GPUs (%):\n  SM: {}\n  Memory: {}\n  MemSize: {}\n\
             Fig. 14(b) cross-GPU CoV, idle GPUs removed (%):\n  SM: {}\n  Memory: {}\n  \
             MemSize: {}\n  (half-or-more idle: {:.1}% of multi-GPU jobs)\n",
            format_cdf_points(&self.sm_cov_all.curve(14), 14),
            format_cdf_points(&self.mem_cov_all.curve(14), 14),
            format_cdf_points(&self.mem_size_cov_all.curve(14), 14),
            format_cdf_points(&self.sm_cov_active.curve(14), 14),
            format_cdf_points(&self.mem_cov_active.curve(14), 14),
            format_cdf_points(&self.mem_size_cov_active.curve(14), 14),
            self.half_idle_fraction * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::small_views;

    #[test]
    fn forty_percent_of_multi_gpu_jobs_strand_gpus() {
        let views = small_views();
        let fig = Fig14::try_compute(&views).unwrap();
        assert!(
            (fig.half_idle_fraction - 0.40).abs() < 0.15,
            "half-idle fraction {}",
            fig.half_idle_fraction
        );
    }

    #[test]
    fn removing_idle_gpus_collapses_the_cov() {
        let views = small_views();
        let fig = Fig14::try_compute(&views).unwrap();
        // "if only the active GPUs of the job are considered … the CoV
        // tends to be much lower."
        assert!(
            fig.sm_cov_active.median() < fig.sm_cov_all.median(),
            "active {} vs all {}",
            fig.sm_cov_active.median(),
            fig.sm_cov_all.median()
        );
        assert!(fig.sm_cov_active.median() < 25.0, "active CoV {}", fig.sm_cov_active.median());
    }

    #[test]
    fn distribution_is_bimodal() {
        let views = small_views();
        let fig = Fig14::try_compute(&views).unwrap();
        // Roughly half the jobs near zero CoV, a large cluster very high.
        assert!(fig.sm_cov_all.fraction_at_most(25.0) > 0.3);
        assert!(fig.sm_cov_all.fraction_above(80.0) > 0.2);
        assert!(fig.render().contains("Fig. 14(b)"));
        assert_eq!(fig.comparisons().len(), 2);
    }
}
