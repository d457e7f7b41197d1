//! Single source of truth for the GPU power constants of Table I /
//! Fig. 9, and for the linear V100 power model built on them.
//!
//! The V100 idle floor, board power limit, utilization coefficients and
//! DVFS sensitivity are read by the workload power model, the ingest
//! stage's power imputation, the cluster hardware spec, the opportunity
//! studies, and the figure pipeline; every consumer imports them from
//! here. The telemetry crate is the lowest layer all of those depend
//! on, which is what makes it the natural home.

use crate::aggregate::GpuAggregates;

/// V100 idle power floor, watts (the board idles in the low tens of
/// watts; Fig. 9a's distributions bottom out here).
pub const V100_IDLE_W: f64 = 20.0;

/// V100 board power limit, watts (Table I / Fig. 9's TDP line).
pub const V100_TDP_W: f64 = 300.0;

/// DVFS sensitivity: fractional performance lost per fractional power
/// clipped. Volta performance scales roughly with the cube root of
/// power near the TDP, so clipping x% of power costs ≈ x/3 % of
/// performance.
pub const DVFS_PERF_PER_POWER: f64 = 1.0 / 3.0;

/// The linear V100 board-power model, watts, before any clamp:
/// `idle + 1.3·SM% + 0.7·MEM% + 0.3·MEMSZ%`.
///
/// The paper reports (Fig. 9a) a median *average* job power of 45 W
/// and a median *maximum* of 87 W against a 300 W TDP. Board power on
/// Volta is dominated by an idle floor plus activity-linear terms, and
/// linearity makes a job's mean power an exact function of its mean
/// utilizations, which the analytic aggregation path exploits. Callers
/// clamp the result: the workload model to the board limit, the ingest
/// imputation to `[idle, TDP]`.
#[inline]
pub fn v100_power_w(sm: f64, mem: f64, mem_size: f64) -> f64 {
    V100_IDLE_W + 1.3 * sm + 0.7 * mem + 0.3 * mem_size
}

/// GPUs in the Supercloud fleet (Table I: 224 nodes × 2).
pub const SUPERCLOUD_GPUS: u32 = 448;

/// Facility power provisioned for the GPU fleet, watts: every GPU at
/// TDP. The over-provisioning studies redistribute this fixed budget.
pub const FACILITY_BUDGET_W: f64 = SUPERCLOUD_GPUS as f64 * V100_TDP_W;

/// Energy drawn by one job over its run, kWh, from its per-GPU power
/// aggregates: the mean board power of each GPU integrated over the
/// run. Exact under the linear power model (the mean is exact), and
/// cap-aware whenever the aggregates were clamped with
/// [`GpuAggregates::with_power_cap`].
pub fn gpu_energy_kwh(per_gpu: &[GpuAggregates], run_secs: f64) -> f64 {
    per_gpu.iter().map(|a| a.power_w.mean * run_secs.max(0.0)).sum::<f64>() / 3.6e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregate;

    fn agg(mean: f64, max: f64) -> GpuAggregates {
        GpuAggregates {
            power_w: Aggregate { min: V100_IDLE_W, mean, max, count: 10 },
            ..Default::default()
        }
    }

    #[test]
    fn facility_budget_matches_table1() {
        assert_eq!(FACILITY_BUDGET_W, 448.0 * 300.0);
    }

    #[test]
    fn energy_integrates_mean_power() {
        // One GPU at a constant 100 W for an hour is 0.1 kWh.
        let kwh = gpu_energy_kwh(&[agg(100.0, 100.0)], 3600.0);
        assert!((kwh - 0.1).abs() < 1e-12, "kwh {kwh}");
        // Two GPUs double it.
        let kwh2 = gpu_energy_kwh(&[agg(100.0, 100.0), agg(100.0, 100.0)], 3600.0);
        assert!((kwh2 - 0.2).abs() < 1e-12);
    }

    #[test]
    fn capped_aggregates_reduce_energy() {
        let raw = agg(200.0, 280.0);
        let capped = raw.with_power_cap(150.0);
        assert!(
            gpu_energy_kwh(&[capped], 3600.0) < gpu_energy_kwh(&[raw], 3600.0),
            "cap must cut energy"
        );
    }
}
