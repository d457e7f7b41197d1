//! Power capping and over-provisioning (Sec. III takeaway, Fig. 9b).
//!
//! "An effective way to use this power is to over-provision the system
//! with more GPUs … this would require capping the power consumption of
//! the GPUs so as to prevent a power failure." This module quantifies
//! the trade: a cap of `C` watts lets the same facility budget host
//! `floor(448 · 300 / C)` GPUs, at the cost of slowing the (few) jobs
//! whose demand exceeds the cap.

use sc_core::GpuJobView;

/// DVFS sensitivity, re-exported from the shared power-constants module
/// (one source of truth for every crate that models capping).
pub use sc_telemetry::gpu_power::DVFS_PERF_PER_POWER;

/// The per-cap outcome of the over-provisioning study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapOutcome {
    /// The cap, watts.
    pub cap_w: f64,
    /// GPUs the facility budget supports at this cap.
    pub gpus_supported: u32,
    /// Fraction of jobs with any slowdown.
    pub impacted_fraction: f64,
    /// Mean job slowdown factor (1.0 = no impact).
    pub mean_slowdown: f64,
    /// p99 job slowdown factor.
    pub p99_slowdown: f64,
    /// Cluster throughput relative to the uncapped 448-GPU baseline:
    /// `gpus_supported / 448 / mean_slowdown`.
    pub relative_throughput: f64,
}

/// The full sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct OverProvisionStudy {
    /// Outcomes, one per cap level, ascending.
    pub outcomes: Vec<CapOutcome>,
}

/// Expected slowdown of one job under a cap, from its power aggregates.
///
/// The job's power trace is approximated as a two-level process: an
/// elevated "peak" level at `max` for a fraction of time `f` and a
/// baseline elsewhere, with `f` chosen to reproduce the observed mean.
/// Only the peak fraction is clipped, and clipped power converts to
/// slowdown through [`DVFS_PERF_PER_POWER`].
pub fn job_slowdown(avg_w: f64, max_w: f64, idle_w: f64, cap_w: f64) -> f64 {
    if max_w <= cap_w || max_w <= idle_w {
        return 1.0;
    }
    // Fraction of time at the peak level that reproduces the mean.
    let peak_fraction = ((avg_w - idle_w) / (max_w - idle_w)).clamp(0.0, 1.0);
    let clipped = (max_w - cap_w) / max_w;
    let perf_loss = DVFS_PERF_PER_POWER * clipped * peak_fraction;
    1.0 / (1.0 - perf_loss.min(0.9))
}

impl OverProvisionStudy {
    /// Runs the sweep over `caps` for the analyzed GPU jobs.
    ///
    /// `facility_budget_w` is the provisioned power (448 × 300 W for
    /// Supercloud); `gpu_tdp_w` bounds a single GPU.
    ///
    /// # Panics
    ///
    /// Panics if `views` is empty or any cap is non-positive.
    pub fn run(
        views: &[GpuJobView<'_>],
        caps: &[f64],
        facility_budget_w: f64,
        gpu_tdp_w: f64,
        idle_w: f64,
    ) -> Self {
        assert!(!views.is_empty(), "need GPU jobs");
        let baseline_gpus = (facility_budget_w / gpu_tdp_w).floor();
        let outcomes = caps
            .iter()
            .map(|&cap_w| {
                assert!(cap_w > 0.0, "cap must be positive");
                let mut slowdowns: Vec<f64> = views
                    .iter()
                    .map(|v| job_slowdown(v.agg.power_w.mean, v.agg.power_w.max, idle_w, cap_w))
                    .collect();
                slowdowns.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                let impacted =
                    slowdowns.iter().filter(|s| **s > 1.0).count() as f64 / slowdowns.len() as f64;
                let mean_slowdown = slowdowns.iter().sum::<f64>() / slowdowns.len() as f64;
                let p99 = slowdowns[((slowdowns.len() - 1) as f64 * 0.99) as usize];
                let gpus_supported = (facility_budget_w / cap_w.min(gpu_tdp_w)).floor() as u32;
                CapOutcome {
                    cap_w,
                    gpus_supported,
                    impacted_fraction: impacted,
                    mean_slowdown,
                    p99_slowdown: p99,
                    relative_throughput: gpus_supported as f64 / baseline_gpus / mean_slowdown,
                }
            })
            .collect();
        OverProvisionStudy { outcomes }
    }

    /// The cap with the highest relative throughput.
    ///
    /// # Panics
    ///
    /// Panics if the study is empty (cannot happen after `run`).
    pub fn best(&self) -> &CapOutcome {
        self.outcomes
            .iter()
            .max_by(|a, b| {
                a.relative_throughput
                    .partial_cmp(&b.relative_throughput)
                    .expect("finite throughput")
            })
            .expect("non-empty study")
    }

    /// Renders the sweep as a text table.
    pub fn render(&self) -> String {
        let mut s = String::from(
            "Over-provisioning under power caps:\n  cap(W)  GPUs  impacted%  mean-slow  p99-slow  rel-throughput\n",
        );
        for o in &self.outcomes {
            s.push_str(&format!(
                "  {:>5.0}  {:>4}  {:>8.1}  {:>8.3}  {:>8.3}  {:>8.3}\n",
                o.cap_w,
                o.gpus_supported,
                o.impacted_fraction * 100.0,
                o.mean_slowdown,
                o.p99_slowdown,
                o.relative_throughput
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncapped_job_unaffected() {
        assert_eq!(job_slowdown(45.0, 87.0, 24.0, 150.0), 1.0);
        assert_eq!(job_slowdown(45.0, 150.0, 24.0, 150.0), 1.0);
    }

    #[test]
    fn capped_job_slows_mildly() {
        // Peak 200 W, cap 150 W: 25% of power clipped during peaks.
        let s = job_slowdown(100.0, 200.0, 24.0, 150.0);
        assert!(s > 1.0 && s < 1.15, "slowdown {s}");
        // A hotter job slows more.
        let hotter = job_slowdown(180.0, 250.0, 24.0, 150.0);
        assert!(hotter > s);
    }

    #[test]
    fn slowdown_monotone_in_cap() {
        let mut prev = f64::INFINITY;
        for cap in [100.0, 150.0, 200.0, 250.0, 300.0] {
            let s = job_slowdown(120.0, 280.0, 24.0, cap);
            assert!(s <= prev + 1e-12, "cap {cap}: {s} > {prev}");
            prev = s;
        }
    }

    #[test]
    fn degenerate_max_below_idle_is_safe() {
        assert_eq!(job_slowdown(10.0, 20.0, 24.0, 15.0), 1.0);
    }
}
