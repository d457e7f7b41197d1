//! The Table I hardware model of the Supercloud system.

/// One GPU's specification (Nvidia Volta V100 in the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub model: String,
    /// Device memory, GiB (V100: 32 GB).
    pub mem_gib: f64,
    /// Board power limit, watts (V100: 300 W).
    pub tdp_w: f64,
}

impl GpuSpec {
    /// The V100 of Table I.
    pub fn v100() -> Self {
        GpuSpec {
            model: "Nvidia Volta V100".to_string(),
            mem_gib: 32.0,
            tdp_w: sc_telemetry::gpu_power::V100_TDP_W,
        }
    }
}

/// One compute node's specification.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Schedulable CPU threads per node. Table I: two Intel Xeon Gold
    /// 6248 CPUs, 20 cores each, 2-way hyperthreading → 80 threads.
    pub cpu_threads: u32,
    /// Host RAM, GiB (Table I: 384 GB).
    pub mem_gib: f64,
    /// GPUs per node (Table I: 2).
    pub gpus: u32,
    /// Local SSD, TB (Table I: 1 TB).
    pub local_ssd_tb: f64,
    /// Local HDD, TB (Table I: 3.8 TB).
    pub local_hdd_tb: f64,
}

impl NodeSpec {
    /// The Supercloud node of Table I / Fig. 1.
    pub fn supercloud() -> Self {
        NodeSpec { cpu_threads: 80, mem_gib: 384.0, gpus: 2, local_ssd_tb: 1.0, local_hdd_tb: 3.8 }
    }
}

/// The whole-cluster specification.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Number of nodes (Table I: 224).
    pub nodes: u32,
    /// Per-node hardware.
    pub node: NodeSpec,
    /// GPU hardware.
    pub gpu: GpuSpec,
    /// Shared storage, TB (Table I: 873 TB SSD).
    pub shared_storage_tb: f64,
    /// Interconnect description (documentary; the simulator does not
    /// model network contention — see DESIGN.md).
    pub interconnect: String,
    /// CPU-only nodes added after the study window ("in the interim,
    /// new CPU-only hardware also has been added to the system",
    /// Sec. II). Zero during the paper's measurement period.
    pub cpu_only_nodes: u32,
    /// Nodes per leaf switch of the "two-layer partial fat-tree":
    /// multi-node jobs are "placed as densely as possible, either on
    /// the same node or on neighboring nodes on the network
    /// interconnect" (Sec. V), so the placer prefers same-switch nodes.
    pub nodes_per_switch: u32,
    /// Optional slow GPU tier (Sec. VIII Recommendation II: "mix
    /// [latest-and-fastest GPUs] with some less-expensive, less-powerful
    /// … GPUs for exploratory and IDE jobs"). Interactive jobs route to
    /// this tier; compute-bound work there stretches by `1 / speed`.
    pub slow_tier: Option<SlowTierSpec>,
}

/// A slow GPU tier appended to the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowTierSpec {
    /// Number of slow nodes (same per-node GPU count as the fast tier).
    pub nodes: u32,
    /// Relative speed of a slow GPU (fast tier = 1.0).
    pub speed: f64,
}

impl ClusterSpec {
    /// The Supercloud of Table I: 224 nodes, 448 V100s.
    pub fn supercloud() -> Self {
        ClusterSpec {
            nodes: 224,
            node: NodeSpec::supercloud(),
            gpu: GpuSpec::v100(),
            shared_storage_tb: 873.0,
            interconnect: "100 Gb/s Omnipath two-layer partial fat-tree".to_string(),
            cpu_only_nodes: 0,
            nodes_per_switch: 28,
            slow_tier: None,
        }
    }

    /// Node layout: `[0, nodes)` fast GPU nodes, then the slow tier,
    /// then CPU-only nodes. Returns the GPU count of node `idx`.
    pub fn gpus_of_node(&self, idx: u32) -> u32 {
        let slow = self.slow_tier.map_or(0, |t| t.nodes);
        if idx < self.nodes + slow {
            self.node.gpus
        } else {
            0
        }
    }

    /// Whether node `idx` belongs to the slow tier.
    pub fn is_slow_node(&self, idx: u32) -> bool {
        match self.slow_tier {
            Some(t) => idx >= self.nodes && idx < self.nodes + t.nodes,
            None => false,
        }
    }

    /// Total schedulable nodes (fast + slow + CPU-only).
    pub fn total_nodes(&self) -> u32 {
        self.nodes + self.slow_tier.map_or(0, |t| t.nodes) + self.cpu_only_nodes
    }

    /// The post-study system evolution of Sec. II: the Table I cluster
    /// plus `cpu_only_nodes` CPU-only nodes serving the full-node CPU
    /// campaigns that otherwise queue behind each other.
    pub fn supercloud_expanded(cpu_only_nodes: u32) -> Self {
        ClusterSpec { cpu_only_nodes, ..ClusterSpec::supercloud() }
    }

    /// Total GPUs in the cluster (fast tier plus any slow tier).
    pub fn total_gpus(&self) -> u32 {
        (self.nodes + self.slow_tier.map_or(0, |t| t.nodes)) * self.node.gpus
    }

    /// Total CPU threads in the cluster.
    pub fn total_cpu_threads(&self) -> u32 {
        self.nodes * self.node.cpu_threads
    }

    /// Renders Table I as text rows for the experiment report.
    pub fn table1(&self) -> Vec<(String, String)> {
        vec![
            ("Number of Nodes".into(), self.nodes.to_string()),
            ("Number of CPU Cores".into(), format!("{} threads", self.total_cpu_threads())),
            ("Node RAM".into(), format!("{} GB", self.node.mem_gib)),
            ("Number of GPUs".into(), self.total_gpus().to_string()),
            ("GPUs per Node".into(), self.node.gpus.to_string()),
            ("GPU Type".into(), self.gpu.model.clone()),
            ("GPU RAM".into(), format!("{} GB", self.gpu.mem_gib)),
            ("Interconnect".into(), self.interconnect.clone()),
            ("Shared Storage".into(), format!("{} TB SSD", self.shared_storage_tb)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supercloud_matches_table1() {
        let c = ClusterSpec::supercloud();
        assert_eq!(c.nodes, 224);
        assert_eq!(c.total_gpus(), 448);
        assert_eq!(c.total_cpu_threads(), 17_920); // 8960 cores, 2-way HT
        assert_eq!(c.node.gpus, 2);
        assert_eq!(c.gpu.mem_gib, 32.0);
        assert_eq!(c.gpu.tdp_w, 300.0);
    }

    #[test]
    fn expanded_cluster_adds_cpu_only_nodes() {
        let c = ClusterSpec::supercloud_expanded(64);
        assert_eq!(c.cpu_only_nodes, 64);
        assert_eq!(c.total_gpus(), 448, "expansion adds no GPUs");
        let state = crate::resources::ClusterState::new(c);
        assert_eq!(state.nodes().len(), 224 + 64);
        assert_eq!(state.nodes()[250].gpus_free, 0);
        assert_eq!(state.nodes()[250].cpus_free, 80);
    }

    #[test]
    fn table1_rows_cover_key_specs() {
        let rows = ClusterSpec::supercloud().table1();
        assert!(rows.iter().any(|(k, v)| k == "Number of GPUs" && v == "448"));
        assert!(rows.iter().any(|(k, _)| k == "Interconnect"));
    }
}
