//! The V100 power model.
//!
//! The paper reports (Fig. 9a) a median *average* job power of 45 W and a
//! median *maximum* of 87 W against a 300 W TDP ("most jobs consume less
//! than half or even a third of the available power on average"). Board
//! power on Volta is dominated by an idle floor plus activity-linear
//! terms; we model it as
//!
//! `P = idle + c_sm · SM% + c_mem · MEM% + c_msz · MEMSZ%`, clamped to TDP.
//!
//! Linearity matters: it makes the job's *mean* power an exact function
//! of its mean utilizations, which the analytic aggregation path exploits.

use sc_telemetry::gpu_power::{V100_IDLE_W, V100_TDP_W};

/// Linear utilization→power model for one GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Idle floor in watts (V100 idles in the low tens of watts).
    pub idle_w: f64,
    /// Watts per SM-utilization percent.
    pub sm_w_per_pct: f64,
    /// Watts per memory-bandwidth-utilization percent.
    pub mem_w_per_pct: f64,
    /// Watts per memory-size-utilization percent.
    pub mem_size_w_per_pct: f64,
    /// Board power limit (V100: 300 W).
    pub tdp_w: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel::v100()
    }
}

impl PowerModel {
    /// The calibrated V100 model.
    pub fn v100() -> Self {
        PowerModel {
            idle_w: V100_IDLE_W,
            sm_w_per_pct: 1.3,
            mem_w_per_pct: 0.7,
            mem_size_w_per_pct: 0.3,
            tdp_w: V100_TDP_W,
        }
    }

    /// Instantaneous power for the given utilization percentages.
    pub fn power_w(&self, sm: f64, mem: f64, mem_size: f64) -> f64 {
        let p = self.idle_w
            + self.sm_w_per_pct * sm
            + self.mem_w_per_pct * mem
            + self.mem_size_w_per_pct * mem_size;
        p.min(self.tdp_w)
    }

    /// Power of a fully idle GPU.
    pub fn idle_power_w(&self) -> f64 {
        self.idle_w
    }

    /// Peak model power (at 100% everything), clamped to TDP.
    pub fn peak_w(&self) -> f64 {
        self.power_w(100.0, 100.0, 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_gpu_draws_floor() {
        let m = PowerModel::v100();
        assert_eq!(m.power_w(0.0, 0.0, 0.0), 20.0);
        assert_eq!(m.idle_power_w(), 20.0);
    }

    #[test]
    fn peak_is_near_but_not_above_tdp() {
        let m = PowerModel::v100();
        assert!(m.peak_w() <= m.tdp_w);
        assert!(m.peak_w() > 0.75 * m.tdp_w, "peak {}", m.peak_w());
    }

    #[test]
    fn median_job_power_in_paper_ballpark() {
        // Median job: SM 16%, mem 2%, mem-size 9% (Fig. 4a) →
        // average power should land near the paper's 45 W median.
        let m = PowerModel::v100();
        let p = m.power_w(16.0, 2.0, 9.0);
        assert!((40.0..65.0).contains(&p), "median-job power {p} W");
    }

    #[test]
    fn sm_spike_pushes_past_150w_cap() {
        // A job that touches SM 100% momentarily must be impacted by the
        // 150 W cap of Fig. 9b.
        let m = PowerModel::v100();
        assert!(m.power_w(100.0, 10.0, 20.0) > 150.0);
    }

    #[test]
    fn monotone_in_each_input() {
        let m = PowerModel::v100();
        assert!(m.power_w(50.0, 0.0, 0.0) > m.power_w(10.0, 0.0, 0.0));
        assert!(m.power_w(0.0, 50.0, 0.0) > m.power_w(0.0, 10.0, 0.0));
        assert!(m.power_w(0.0, 0.0, 50.0) > m.power_w(0.0, 0.0, 10.0));
    }
}
