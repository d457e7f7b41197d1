//! Streaming min/mean/max aggregation.
//!
//! "For all jobs, the minimum, mean, and maximum resource utilization of
//! a variety of CPU and GPU metrics are collected" (Sec. II) — the
//! full 100 ms series is retained only for the 2,149-job time-series
//! subset. [`Aggregate`] is the online accumulator the epilog would run.

use crate::metrics::{GpuMetricSample, GpuResource};

/// Online min/mean/max accumulator over a scalar stream.
///
/// JSON has no infinities, so the dataset release writes the empty
/// accumulator's `±inf` sentinels as `null` and reads them back (see
/// [`crate::release`]): datasets round-trip even when they contain
/// unmonitored entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregate {
    /// Minimum observed value; `+inf` before any update.
    pub min: f64,
    /// Running mean.
    pub mean: f64,
    /// Maximum observed value; `-inf` before any update.
    pub max: f64,
    /// Number of samples folded in.
    pub count: u64,
}

impl Default for Aggregate {
    fn default() -> Self {
        Aggregate::new()
    }
}

impl Aggregate {
    /// An empty accumulator.
    pub fn new() -> Self {
        Aggregate { min: f64::INFINITY, mean: 0.0, max: f64::NEG_INFINITY, count: 0 }
    }

    /// Folds one observation into the accumulator (Welford-style mean
    /// update, numerically stable for long series).
    pub fn update(&mut self, value: f64) {
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.mean += (value - self.mean) / self.count as f64;
    }

    /// Builds an aggregate from a complete slice.
    pub fn from_values(values: &[f64]) -> Self {
        let mut a = Aggregate::new();
        for &v in values {
            a.update(v);
        }
        a
    }

    /// Whether any samples have been folded in.
    pub fn has_samples(&self) -> bool {
        self.count > 0
    }
}

/// Min/mean/max aggregates for every GPU metric of one GPU over one job.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GpuAggregates {
    /// SM utilization aggregate (%).
    pub sm_util: Aggregate,
    /// Memory-bandwidth utilization aggregate (%).
    pub mem_util: Aggregate,
    /// Memory-size utilization aggregate (%).
    pub mem_size_util: Aggregate,
    /// PCIe transmit bandwidth aggregate (%).
    pub pcie_tx: Aggregate,
    /// PCIe receive bandwidth aggregate (%).
    pub pcie_rx: Aggregate,
    /// Power aggregate (W).
    pub power_w: Aggregate,
}

impl GpuAggregates {
    /// An empty aggregate set.
    pub fn new() -> Self {
        GpuAggregates {
            sm_util: Aggregate::new(),
            mem_util: Aggregate::new(),
            mem_size_util: Aggregate::new(),
            pcie_tx: Aggregate::new(),
            pcie_rx: Aggregate::new(),
            power_w: Aggregate::new(),
        }
    }

    /// Folds one sample into every per-metric accumulator.
    pub fn update(&mut self, s: &GpuMetricSample) {
        self.sm_util.update(s.sm_util);
        self.mem_util.update(s.mem_util);
        self.mem_size_util.update(s.mem_size_util);
        self.pcie_tx.update(s.pcie_tx);
        self.pcie_rx.update(s.pcie_rx);
        self.power_w.update(s.power_w);
    }

    /// Builds aggregates from a complete series.
    pub fn from_samples(samples: &[GpuMetricSample]) -> Self {
        let mut a = GpuAggregates::new();
        for s in samples {
            a.update(s);
        }
        a
    }

    /// These aggregates as a power-capped board would have reported
    /// them: every power statistic clamped to `cap_w`, the DVFS
    /// enforcement a cluster-level power-cap policy applies. The
    /// utilization metrics are untouched — capping slows the clock, it
    /// does not idle the SMs.
    ///
    /// # Panics
    ///
    /// Panics if `cap_w` is not positive.
    pub fn with_power_cap(&self, cap_w: f64) -> GpuAggregates {
        assert!(cap_w > 0.0, "power cap must be positive");
        let mut capped = *self;
        capped.power_w.min = self.power_w.min.min(cap_w);
        capped.power_w.mean = self.power_w.mean.min(cap_w);
        capped.power_w.max = self.power_w.max.min(cap_w);
        capped
    }

    /// The aggregate for one resource.
    pub fn resource(&self, r: GpuResource) -> Aggregate {
        match r {
            GpuResource::Sm => self.sm_util,
            GpuResource::Memory => self.mem_util,
            GpuResource::MemorySize => self.mem_size_util,
            GpuResource::PcieTx => self.pcie_tx,
            GpuResource::PcieRx => self.pcie_rx,
            GpuResource::Power => self.power_w,
        }
    }

    /// Job-level averaging across GPUs: per-field means of mins, means,
    /// and maxes ("the average over multiple GPUs was computed to get a
    /// single number for multi-GPU jobs", Sec. II).
    ///
    /// # Panics
    ///
    /// Panics if `sets` is empty.
    pub fn average_of(sets: &[GpuAggregates]) -> GpuAggregates {
        assert!(!sets.is_empty(), "cannot average zero aggregate sets");
        let n = sets.len() as f64;
        let avg_field = |f: fn(&GpuAggregates) -> Aggregate| -> Aggregate {
            let mut min = 0.0;
            let mut mean = 0.0;
            let mut max = 0.0;
            let mut count = 0u64;
            for s in sets {
                let a = f(s);
                min += a.min / n;
                mean += a.mean / n;
                max += a.max / n;
                // A loaded dataset's counts are outside input.
                count = count.saturating_add(a.count);
            }
            Aggregate { min, mean, max, count }
        };
        GpuAggregates {
            sm_util: avg_field(|s| s.sm_util),
            mem_util: avg_field(|s| s.mem_util),
            mem_size_util: avg_field(|s| s.mem_size_util),
            pcie_tx: avg_field(|s| s.pcie_tx),
            pcie_rx: avg_field(|s| s.pcie_rx),
            power_w: avg_field(|s| s.power_w),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn aggregate_tracks_min_mean_max() {
        let a = Aggregate::from_values(&[3.0, 1.0, 2.0]);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 3.0);
        assert!((a.mean - 2.0).abs() < 1e-12);
        assert_eq!(a.count, 3);
        assert!(a.has_samples());
    }

    #[test]
    fn empty_aggregate_sentinels() {
        let a = Aggregate::new();
        assert!(!a.has_samples());
        assert!(a.min.is_infinite() && a.min > 0.0);
        assert!(a.max.is_infinite() && a.max < 0.0);
    }

    #[test]
    fn gpu_aggregates_fold_all_fields() {
        let s1 =
            GpuMetricSample { sm_util: 10.0, mem_util: 5.0, power_w: 100.0, ..Default::default() };
        let s2 =
            GpuMetricSample { sm_util: 30.0, mem_util: 15.0, power_w: 200.0, ..Default::default() };
        let a = GpuAggregates::from_samples(&[s1, s2]);
        assert_eq!(a.sm_util.mean, 20.0);
        assert_eq!(a.mem_util.max, 15.0);
        assert_eq!(a.power_w.min, 100.0);
        assert_eq!(a.resource(GpuResource::Sm).mean, 20.0);
    }

    #[test]
    fn average_of_two_gpus() {
        let g1 =
            GpuAggregates::from_samples(&[GpuMetricSample { sm_util: 80.0, ..Default::default() }]);
        let g2 =
            GpuAggregates::from_samples(&[GpuMetricSample { sm_util: 0.0, ..Default::default() }]);
        let job = GpuAggregates::average_of(&[g1, g2]);
        assert_eq!(job.sm_util.mean, 40.0);
        assert_eq!(job.sm_util.count, 2);
    }

    #[test]
    #[should_panic(expected = "cannot average zero aggregate sets")]
    fn average_of_empty_panics() {
        let _ = GpuAggregates::average_of(&[]);
    }

    proptest! {
        #[test]
        fn prop_mean_bounded_by_min_max(values in proptest::collection::vec(-1e6..1e6f64, 1..500)) {
            let a = Aggregate::from_values(&values);
            prop_assert!(a.min <= a.mean + 1e-6);
            prop_assert!(a.mean <= a.max + 1e-6);
            prop_assert_eq!(a.count as usize, values.len());
        }

        #[test]
        fn prop_streaming_matches_batch(values in proptest::collection::vec(0.0..100.0f64, 1..300)) {
            let batch_mean = values.iter().sum::<f64>() / values.len() as f64;
            let a = Aggregate::from_values(&values);
            prop_assert!((a.mean - batch_mean).abs() < 1e-9);
        }
    }
}
