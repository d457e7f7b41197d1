//! The ground-truth process a running job exposes to the samplers.
//!
//! In production the "source" is the physical GPU; here it is a model
//! implemented by the workload crate. Separating the trait from its
//! implementations keeps the telemetry pipeline identical whether it
//! observes a synthetic job or (hypothetically) replayed hardware data.

use crate::metrics::GpuMetricSample;

/// A process that can be observed by [`crate::GpuSampler`] at arbitrary
/// job-relative times.
///
/// Implementations must be deterministic in `t`: sampling the same
/// instant twice yields the same value. This mirrors physical reality
/// (the GPU has one true state at each instant) and is what makes the
/// whole reproduction replayable from a seed.
pub trait MetricSource {
    /// Number of GPUs allocated to the job.
    fn gpu_count(&self) -> u32;

    /// Ground-truth GPU state of GPU `gpu_index` at job-relative time
    /// `t` seconds.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `gpu_index >= gpu_count()`.
    fn gpu_state(&self, gpu_index: u32, t: f64) -> GpuMetricSample;
}

/// A trivial source with constant utilization on every GPU — useful in
/// tests and as the simplest possible workload model.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstantSource {
    /// Number of GPUs.
    pub gpus: u32,
    /// The state every GPU reports at every instant.
    pub gpu: GpuMetricSample,
}

impl MetricSource for ConstantSource {
    fn gpu_count(&self) -> u32 {
        self.gpus
    }

    fn gpu_state(&self, gpu_index: u32, _t: f64) -> GpuMetricSample {
        assert!(gpu_index < self.gpus, "gpu index {gpu_index} out of range");
        self.gpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_source_is_deterministic() {
        let src = ConstantSource {
            gpus: 2,
            gpu: GpuMetricSample { sm_util: 42.0, ..Default::default() },
        };
        assert_eq!(src.gpu_state(0, 0.0), src.gpu_state(0, 100.0));
        assert_eq!(src.gpu_state(1, 5.0).sm_util, 42.0);
        assert_eq!(src.gpu_count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn constant_source_bounds_checked() {
        let src = ConstantSource { gpus: 1, gpu: GpuMetricSample::default() };
        let _ = src.gpu_state(1, 0.0);
    }
}
