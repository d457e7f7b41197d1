//! The V100 power model.
//!
//! The paper reports (Fig. 9a) a median *average* job power of 45 W and a
//! median *maximum* of 87 W against a 300 W TDP ("most jobs consume less
//! than half or even a third of the available power on average"). The
//! model is [`v100_power_w`] clamped to TDP: an idle floor plus one
//! linear term each for SM, memory-bandwidth and memory-size
//! utilization, with the coefficients in [`sc_telemetry::gpu_power`].

use sc_telemetry::gpu_power::{v100_power_w, V100_IDLE_W, V100_TDP_W};

/// Linear utilization→power model for one V100.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerModel;

impl PowerModel {
    /// The calibrated V100 model.
    pub fn v100() -> Self {
        PowerModel
    }

    /// Instantaneous power for the given utilization percentages.
    pub fn power_w(&self, sm: f64, mem: f64, mem_size: f64) -> f64 {
        v100_power_w(sm, mem, mem_size).min(V100_TDP_W)
    }

    /// Power of a fully idle GPU.
    pub fn idle_power_w(&self) -> f64 {
        V100_IDLE_W
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
        assert!(m.peak_w() <= V100_TDP_W);
        assert!(m.peak_w() > 0.75 * V100_TDP_W, "peak {}", m.peak_w());
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
