//! Metric sample schema: the `nvidia-smi` fields the paper's dataset
//! retains.

/// One 100 ms GPU sample, mirroring the `nvidia-smi` fields analyzed in
/// the paper (Secs. II–III).
///
/// Utilization fields are percentages in `[0, 100]`; PCIe bandwidths are
/// percentages of the V100's 16-lane PCIe 3.0 peak (the paper plots
/// "PCIe Tx and Rx bandwidth utilization"); power is in watts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GpuMetricSample {
    /// Streaming-multiprocessor utilization (%): "usage percentage of the
    /// GPU streaming multiprocessors".
    pub sm_util: f64,
    /// Memory-bandwidth utilization (%): "percentage of the GPU memory
    /// bandwidth used (referred to simply as memory utilization in
    /// keeping with the Nvidia terminology)".
    pub mem_util: f64,
    /// Memory-size utilization (%): "percentage of the GPU memory amount
    /// used".
    pub mem_size_util: f64,
    /// PCIe transmit bandwidth utilization (%).
    pub pcie_tx: f64,
    /// PCIe receive bandwidth utilization (%).
    pub pcie_rx: f64,
    /// Board power draw in watts (V100 TDP: 300 W).
    pub power_w: f64,
}

impl GpuMetricSample {
    /// An all-zero sample: what `nvidia-smi` reports for an idle GPU
    /// apart from its idle power floor, which the caller sets.
    pub fn idle(idle_power_w: f64) -> Self {
        GpuMetricSample { power_w: idle_power_w, ..Default::default() }
    }

    /// Reads the field selected by `resource`.
    pub fn resource(&self, resource: GpuResource) -> f64 {
        match resource {
            GpuResource::Sm => self.sm_util,
            GpuResource::Memory => self.mem_util,
            GpuResource::MemorySize => self.mem_size_util,
            GpuResource::PcieTx => self.pcie_tx,
            GpuResource::PcieRx => self.pcie_rx,
            GpuResource::Power => self.power_w,
        }
    }

    /// Whether every utilization field is within `[0, 100]` and power is
    /// non-negative — the validity invariant property tests rely on.
    pub fn is_valid(&self) -> bool {
        let pct = [self.sm_util, self.mem_util, self.mem_size_util, self.pcie_tx, self.pcie_rx];
        pct.iter().all(|v| (0.0..=100.0).contains(v)) && self.power_w >= 0.0
    }
}

/// The GPU resources the paper studies, used to index per-resource
/// analyses (Figs. 4, 7, 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuResource {
    /// Streaming multiprocessors.
    Sm,
    /// Memory bandwidth.
    Memory,
    /// Memory capacity.
    MemorySize,
    /// PCIe transmit bandwidth.
    PcieTx,
    /// PCIe receive bandwidth.
    PcieRx,
    /// Board power.
    Power,
}

impl GpuResource {
    /// The utilization-percentage resources of Fig. 8's bottleneck study
    /// (power is excluded there; it is studied separately in Fig. 9).
    pub const UTILIZATION: [GpuResource; 5] = [
        GpuResource::Sm,
        GpuResource::Memory,
        GpuResource::MemorySize,
        GpuResource::PcieTx,
        GpuResource::PcieRx,
    ];

    /// Short label used in figure tables.
    pub fn label(&self) -> &'static str {
        match self {
            GpuResource::Sm => "SM",
            GpuResource::Memory => "Memory",
            GpuResource::MemorySize => "MemSize",
            GpuResource::PcieTx => "PCIeTx",
            GpuResource::PcieRx => "PCIeRx",
            GpuResource::Power => "Power",
        }
    }
}

impl std::fmt::Display for GpuResource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_sample_is_valid_and_zero_utilization() {
        let s = GpuMetricSample::idle(25.0);
        assert!(s.is_valid());
        assert_eq!(s.sm_util, 0.0);
        assert_eq!(s.power_w, 25.0);
    }

    #[test]
    fn resource_accessor_matches_fields() {
        let s = GpuMetricSample {
            sm_util: 1.0,
            mem_util: 2.0,
            mem_size_util: 3.0,
            pcie_tx: 4.0,
            pcie_rx: 5.0,
            power_w: 6.0,
        };
        assert_eq!(s.resource(GpuResource::Sm), 1.0);
        assert_eq!(s.resource(GpuResource::Memory), 2.0);
        assert_eq!(s.resource(GpuResource::MemorySize), 3.0);
        assert_eq!(s.resource(GpuResource::PcieTx), 4.0);
        assert_eq!(s.resource(GpuResource::PcieRx), 5.0);
        assert_eq!(s.resource(GpuResource::Power), 6.0);
    }

    #[test]
    fn validity_rejects_out_of_range() {
        let mut s = GpuMetricSample { sm_util: 101.0, ..Default::default() };
        assert!(!s.is_valid());
        s.sm_util = 50.0;
        s.power_w = -1.0;
        assert!(!s.is_valid());
    }

    #[test]
    fn labels_are_unique() {
        let labels: Vec<&str> = GpuResource::UTILIZATION.iter().map(|r| r.label()).collect();
        let mut dedup = labels.clone();
        dedup.dedup();
        assert_eq!(labels.len(), dedup.len());
        assert_eq!(GpuResource::Power.to_string(), "Power");
    }
}
