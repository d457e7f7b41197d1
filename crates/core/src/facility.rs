//! Facility-level power accounting.
//!
//! Sec. III: "the Supercloud system has enough power to support all
//! GPUs at their maximum possible power, and most of this power goes
//! unused." This module reconstructs the cluster's aggregate GPU power
//! draw over time from the job records (each contributes its average
//! draw across its span) and reports exactly how much of the
//! provisioned envelope was ever touched.

use crate::view::GpuJobView;

/// The facility power reconstruction.
#[derive(Debug, Clone, PartialEq)]
pub struct FacilityPower {
    /// Provisioned GPU power envelope, watts (448 × 300 W).
    pub provisioned_w: f64,
    /// Idle floor of the whole fleet, watts.
    pub fleet_idle_w: f64,
    /// Time-averaged aggregate draw, watts (includes the idle fleet).
    pub mean_draw_w: f64,
    /// Peak aggregate draw, watts.
    pub peak_draw_w: f64,
    /// Fraction of the provisioned envelope used on average.
    pub mean_utilization: f64,
    /// Fraction of the provisioned envelope used at the peak instant.
    pub peak_utilization: f64,
    /// The `(time, watts)` breakpoints of the reconstructed series
    /// (change points only).
    pub series: Vec<(f64, f64)>,
}

/// Reconstructs facility power from job views.
///
/// Each job contributes `gpus × (avg_power − idle)` above the fleet's
/// idle floor for its `[start, end)` span; unallocated GPUs idle at
/// `idle_w`. The result is exact for the piecewise-constant
/// approximation of per-job draw by its average.
///
/// # Panics
///
/// Panics if `views` is empty or parameters are non-positive.
pub fn reconstruct(
    views: &[GpuJobView<'_>],
    total_gpus: u32,
    tdp_w: f64,
    idle_w: f64,
) -> FacilityPower {
    assert!(!views.is_empty(), "need jobs");
    assert!(total_gpus > 0 && tdp_w > 0.0 && idle_w >= 0.0, "invalid parameters");
    let fleet_idle = total_gpus as f64 * idle_w;
    // Sweep line over start/end events.
    let mut events: Vec<(f64, f64)> = Vec::with_capacity(views.len() * 2);
    for v in views {
        let delta = v.sched.gpus_requested as f64 * (v.agg.power_w.mean - idle_w).max(0.0);
        events.push((v.sched.start_time, delta));
        events.push((v.sched.end_time, -delta));
    }
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
    let t0 = events.first().expect("non-empty").0;
    let t1 = events.last().expect("non-empty").0;
    let mut series = Vec::new();
    let mut level = fleet_idle;
    let mut energy = 0.0;
    let mut peak = fleet_idle;
    let mut prev_t = t0;
    let mut i = 0;
    while i < events.len() {
        let t = events[i].0;
        energy += level * (t - prev_t);
        // Fold all simultaneous events.
        while i < events.len() && events[i].0 == t {
            level += events[i].1;
            i += 1;
        }
        level = level.max(fleet_idle);
        series.push((t, level));
        peak = peak.max(level);
        prev_t = t;
    }
    let span = (t1 - t0).max(1e-9);
    let provisioned = total_gpus as f64 * tdp_w;
    let mean = energy / span;
    FacilityPower {
        provisioned_w: provisioned,
        fleet_idle_w: fleet_idle,
        mean_draw_w: mean,
        peak_draw_w: peak,
        mean_utilization: mean / provisioned,
        peak_utilization: peak / provisioned,
        series,
    }
}

impl FacilityPower {
    /// Renders the summary.
    pub fn render(&self) -> String {
        format!(
            "Facility GPU power:\n  provisioned: {:.0} kW; fleet idle floor: {:.0} kW\n  \
             mean draw: {:.0} kW ({:.1}% of envelope); peak draw: {:.0} kW ({:.1}%)\n  \
             → headroom for over-provisioning: {:.0} kW never used even at peak\n",
            self.provisioned_w / 1e3,
            self.fleet_idle_w / 1e3,
            self.mean_draw_w / 1e3,
            self.mean_utilization * 100.0,
            self.peak_draw_w / 1e3,
            self.peak_utilization * 100.0,
            (self.provisioned_w - self.peak_draw_w) / 1e3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::small_views;

    #[test]
    fn power_envelope_is_mostly_unused() {
        let views = small_views();
        let f = reconstruct(&views, 448, 300.0, 20.0);
        // The paper's headline: the envelope is provisioned for 134 kW;
        // actual draw never comes close.
        assert!(f.peak_utilization < 0.6, "peak utilization {}", f.peak_utilization);
        assert!(f.mean_utilization < f.peak_utilization);
        assert!(f.mean_draw_w >= f.fleet_idle_w);
        assert!((f.provisioned_w - 134_400.0).abs() < 1.0);
    }

    #[test]
    fn series_is_time_ordered_and_bounded_below_by_idle() {
        let views = small_views();
        let f = reconstruct(&views, 448, 300.0, 20.0);
        for w in f.series.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        for (_, p) in &f.series {
            assert!(*p >= f.fleet_idle_w - 1e-6);
        }
    }

    #[test]
    fn render_reports_headroom() {
        let views = small_views();
        let text = reconstruct(&views, 448, 300.0, 20.0).render();
        assert!(text.contains("headroom"));
    }
}
