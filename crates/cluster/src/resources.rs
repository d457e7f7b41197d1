//! Node-level resource accounting and placement.
//!
//! The paper's key scheduling property (Sec. III): GPUs are **exclusive**
//! ("Supercloud does not co-locate jobs on the same GPU at this point.
//! However, it allows CPU resources to be divided among jobs"), and
//! multi-GPU jobs are "placed as densely as possible, either on the same
//! node or on neighboring nodes".

use crate::spec::ClusterSpec;
use sc_workload::JobSpec;

/// Index of a node within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// A job's slice of one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeAlloc {
    /// The node.
    pub node: NodeId,
    /// GPUs taken on this node.
    pub gpus: u32,
    /// CPU threads taken on this node.
    pub cpus: u32,
    /// Host memory taken on this node, GiB.
    pub mem_gib: f64,
}

/// A complete allocation for one job, possibly spanning nodes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Allocation {
    /// Per-node slices.
    pub parts: Vec<NodeAlloc>,
}

impl Allocation {
    /// Total GPUs in the allocation.
    pub fn total_gpus(&self) -> u32 {
        self.parts.iter().map(|p| p.gpus).sum()
    }

    /// Number of distinct nodes used.
    pub fn node_count(&self) -> usize {
        self.parts.len()
    }

    /// Number of distinct leaf switches the allocation touches — 1
    /// means the job's traffic never crosses the fat-tree spine.
    pub fn switch_count(&self, nodes_per_switch: u32) -> usize {
        assert!(nodes_per_switch > 0, "need at least one node per switch");
        let mut switches: Vec<u32> =
            self.parts.iter().map(|p| p.node.0 / nodes_per_switch).collect();
        switches.sort_unstable();
        switches.dedup();
        switches.len()
    }
}

/// Free capacity of one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeState {
    /// Free CPU threads.
    pub cpus_free: u32,
    /// Free host memory, GiB.
    pub mem_free_gib: f64,
    /// Free GPUs.
    pub gpus_free: u32,
}

/// Mutable cluster state: free resources per node, which nodes are out
/// of service for repair, and how many GPUs allocations hold.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterState {
    spec: ClusterSpec,
    nodes: Vec<NodeState>,
    down: Vec<bool>,
    gpus_in_use: u32,
}

impl ClusterState {
    /// A fully free cluster: the fast GPU nodes of Table I, then any
    /// slow-tier GPU nodes, then CPU-only expansion nodes (zero GPUs —
    /// GPU placement skips them naturally).
    pub fn new(spec: ClusterSpec) -> Self {
        let nodes = (0..spec.total_nodes())
            .map(|i| NodeState {
                cpus_free: spec.node.cpu_threads,
                mem_free_gib: spec.node.mem_gib,
                gpus_free: spec.gpus_of_node(i),
            })
            .collect();
        let down = vec![false; spec.total_nodes() as usize];
        ClusterState { spec, nodes, down, gpus_in_use: 0 }
    }

    /// The hardware spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Per-node free capacities.
    pub fn nodes(&self) -> &[NodeState] {
        &self.nodes
    }

    /// Whether `node` is offline for repair.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down[node.0 as usize]
    }

    /// Number of nodes offline for repair.
    pub fn nodes_down(&self) -> usize {
        self.down.iter().filter(|&&d| d).count()
    }

    /// Total free GPUs.
    pub fn gpus_free(&self) -> u32 {
        self.nodes.iter().map(|n| n.gpus_free).sum()
    }

    /// GPUs currently allocated. GPUs on a node under repair are
    /// neither free nor in use.
    pub fn gpus_in_use(&self) -> u32 {
        self.gpus_in_use
    }

    /// Attempts to find an allocation for `job` without mutating state.
    ///
    /// GPU jobs are packed densely: nodes with the most free GPUs are
    /// taken first so a 2-GPU job lands on one node whenever possible.
    /// CPU jobs need a single node with the full CPU/memory request free
    /// — which is why they queue behind each other while GPU jobs
    /// co-locate (Fig. 3b).
    ///
    /// Neither GPU path sorts the fleet. A 1-GPU job takes the fitting
    /// node with the fewest free GPUs (lowest index on ties) found in
    /// one index-order scan. A wider job visits nodes in the order
    /// (free GPUs descending, leaf-switch free GPUs descending, index):
    /// because a leaf switch is a contiguous index range, that order is
    /// a walk over free-GPU levels from the node size down to 1, over
    /// the switches sorted by (free GPUs descending, switch index), and
    /// over each switch's nodes by index. Only the switches are sorted.
    pub fn try_place(&self, job: &JobSpec) -> Option<Allocation> {
        if job.is_gpu_job() {
            // Tier routing (Sec. VIII Recommendation II): with a slow
            // tier configured, interactive sessions go to the slow GPUs
            // and everything else stays on the fast tier.
            let route_slow = self.spec.slow_tier.is_some()
                && job.interface == sc_telemetry::record::SubmissionInterface::Interactive;
            self.try_place_gpu_routed(job, route_slow)
        } else {
            self.try_place_cpu(job)
        }
    }

    /// GPU placement with an explicit tier choice, for routing policies
    /// that override the interface-based default: `route_slow` selects
    /// the slow tier when one is configured (and is ignored otherwise).
    /// A 0-GPU request gets an empty allocation.
    pub fn try_place_gpu_routed(&self, job: &JobSpec, route_slow: bool) -> Option<Allocation> {
        match job.gpus {
            0 => Some(Allocation::default()),
            1 => self.place_best_fit(job, route_slow),
            _ => self.place_dense(job, route_slow),
        }
    }

    /// Whether node `idx` belongs to the requested tier: every node
    /// does when no slow tier is configured.
    fn in_tier(&self, idx: usize, route_slow: bool) -> bool {
        self.spec.slow_tier.is_none() || self.spec.is_slow_node(idx as u32) == route_slow
    }

    /// A 1-GPU job prefers half-used nodes (best fit) so full nodes stay
    /// available for wider jobs: the fitting node with the fewest free
    /// GPUs, lowest index on ties. A fitting node with one free GPU
    /// cannot be beaten, so the scan stops there.
    fn place_best_fit(&self, job: &JobSpec, route_slow: bool) -> Option<Allocation> {
        let (cpus, mem) = gpu_share(job, 1);
        let mut best: Option<(usize, u32)> = None;
        for (idx, n) in self.nodes.iter().enumerate() {
            if n.gpus_free == 0 || best.is_some_and(|(_, free)| free <= n.gpus_free) {
                continue;
            }
            if !self.in_tier(idx, route_slow) || n.cpus_free < cpus || n.mem_free_gib < mem {
                continue;
            }
            best = Some((idx, n.gpus_free));
            if n.gpus_free == 1 {
                break;
            }
        }
        best.map(|(idx, _)| Allocation {
            parts: vec![NodeAlloc { node: NodeId(idx as u32), gpus: 1, cpus, mem_gib: mem }],
        })
    }

    /// Dense packing for a multi-GPU job: most free GPUs first; ties
    /// prefer the leaf switch with the most free GPUs (keeping multi-node
    /// jobs on "neighboring nodes on the network interconnect"); the
    /// final tie-break by index keeps placement deterministic. Each node
    /// gives `min(free, remaining)` GPUs, and is skipped when its CPU or
    /// memory cannot cover its share.
    fn place_dense(&self, job: &JobSpec, route_slow: bool) -> Option<Allocation> {
        let nps = self.spec.nodes_per_switch.max(1) as usize;
        // (free GPUs, switch index), most free first. Free GPUs count
        // every node on the switch, whatever its tier.
        let mut switches: Vec<(u32, usize)> = self
            .nodes
            .chunks(nps)
            .enumerate()
            .map(|(s, nodes)| (nodes.iter().map(|n| n.gpus_free).sum(), s))
            .collect();
        switches.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut remaining = job.gpus;
        let mut parts = Vec::new();
        for level in (1..=self.spec.node.gpus).rev() {
            // A switch with fewer free GPUs than `level` holds no node at
            // this level, and neither does any switch after it.
            for &(_, s) in switches.iter().take_while(|&&(free, _)| free >= level) {
                let first = s * nps;
                let last = (first + nps).min(self.nodes.len());
                for idx in first..last {
                    let n = &self.nodes[idx];
                    if n.gpus_free != level || !self.in_tier(idx, route_slow) {
                        continue;
                    }
                    let take = level.min(remaining);
                    let (cpus, mem) = gpu_share(job, take);
                    if n.cpus_free < cpus || n.mem_free_gib < mem {
                        continue;
                    }
                    parts.push(NodeAlloc {
                        node: NodeId(idx as u32),
                        gpus: take,
                        cpus,
                        mem_gib: mem,
                    });
                    remaining -= take;
                    if remaining == 0 {
                        return Some(Allocation { parts });
                    }
                }
            }
        }
        None
    }

    fn try_place_cpu(&self, job: &JobSpec) -> Option<Allocation> {
        for (idx, n) in self.nodes.iter().enumerate() {
            if n.cpus_free >= job.cpus && n.mem_free_gib >= job.mem_gib {
                return Some(Allocation {
                    parts: vec![NodeAlloc {
                        node: NodeId(idx as u32),
                        gpus: 0,
                        cpus: job.cpus,
                        mem_gib: job.mem_gib,
                    }],
                });
            }
        }
        None
    }

    /// Takes a node offline (hardware failure): zeroes its free
    /// capacity so nothing new places there. Resident jobs must have
    /// been killed (their allocations released) first.
    ///
    /// # Panics
    ///
    /// Panics if the node still has resources allocated — killing the
    /// residents is the caller's responsibility.
    pub fn set_offline(&mut self, node: NodeId) {
        let full_gpus = self.spec.gpus_of_node(node.0);
        let n = &mut self.nodes[node.0 as usize];
        assert!(
            n.gpus_free == full_gpus && n.cpus_free == self.spec.node.cpu_threads,
            "node {node:?} still hosts allocations"
        );
        n.gpus_free = 0;
        n.cpus_free = 0;
        n.mem_free_gib = 0.0;
        self.down[node.0 as usize] = true;
    }

    /// Brings a repaired node back online at full capacity.
    pub fn set_online(&mut self, node: NodeId) {
        let full_gpus = self.spec.gpus_of_node(node.0);
        let n = &mut self.nodes[node.0 as usize];
        n.gpus_free = full_gpus;
        n.cpus_free = self.spec.node.cpu_threads;
        n.mem_free_gib = self.spec.node.mem_gib;
        self.down[node.0 as usize] = false;
    }

    /// Commits an allocation.
    ///
    /// # Panics
    ///
    /// Panics if the allocation exceeds free capacity (a scheduler bug).
    pub fn allocate(&mut self, alloc: &Allocation) {
        for p in &alloc.parts {
            let n = &mut self.nodes[p.node.0 as usize];
            assert!(n.gpus_free >= p.gpus, "GPU over-allocation on {:?}", p.node);
            assert!(n.cpus_free >= p.cpus, "CPU over-allocation on {:?}", p.node);
            assert!(n.mem_free_gib >= p.mem_gib - 1e-9, "memory over-allocation on {:?}", p.node);
            n.gpus_free -= p.gpus;
            n.cpus_free -= p.cpus;
            n.mem_free_gib -= p.mem_gib;
            self.gpus_in_use += p.gpus;
        }
    }

    /// Releases an allocation.
    ///
    /// # Panics
    ///
    /// Panics if releasing would exceed the node's capacity (a
    /// double-free bug).
    pub fn release(&mut self, alloc: &Allocation) {
        for p in &alloc.parts {
            let n = &mut self.nodes[p.node.0 as usize];
            n.gpus_free += p.gpus;
            n.cpus_free += p.cpus;
            n.mem_free_gib += p.mem_gib;
            assert!(n.gpus_free <= self.spec.node.gpus, "GPU double-free on {:?}", p.node);
            assert!(n.cpus_free <= self.spec.node.cpu_threads, "CPU double-free on {:?}", p.node);
            assert!(
                n.mem_free_gib <= self.spec.node.mem_gib + 1e-6,
                "memory double-free on {:?}",
                p.node
            );
            self.gpus_in_use -= p.gpus;
        }
    }
}

/// The CPU threads and host memory a GPU job takes on a node that hosts
/// `take` of its GPUs: shares proportional to the GPUs taken there.
fn gpu_share(job: &JobSpec, take: u32) -> (u32, f64) {
    ((job.cpus * take).div_ceil(job.gpus), job.mem_gib * take as f64 / job.gpus as f64)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::spec::SlowTierSpec;
    use sc_telemetry::record::{JobId, SubmissionInterface, UserId};
    use sc_workload::PlannedOutcome;

    fn gpu_job(gpus: u32, cpus: u32) -> JobSpec {
        JobSpec {
            job_id: JobId(1),
            user: UserId(0),
            arrival: 0.0,
            interface: SubmissionInterface::Other,
            gpus,
            cpus,
            mem_gib: 32.0,
            time_limit: 3600.0,
            class: None,
            outcome: PlannedOutcome::Complete { work_secs: 100.0 },
            archetype: None,
            truth_params: None,
            idle_gpus: 0,
            truth_seed: 0,
            checkpointable: false,
            max_restarts: 0,
        }
    }

    fn cpu_job(cpus: u32, mem: f64) -> JobSpec {
        JobSpec { gpus: 0, cpus, mem_gib: mem, ..gpu_job(0, cpus) }
    }

    fn small_cluster(nodes: u32) -> ClusterState {
        let mut spec = ClusterSpec::supercloud();
        spec.nodes = nodes;
        ClusterState::new(spec)
    }

    #[test]
    fn two_gpu_job_lands_on_one_node() {
        let c = small_cluster(4);
        let alloc = c.try_place(&gpu_job(2, 8)).unwrap();
        assert_eq!(alloc.node_count(), 1);
        assert_eq!(alloc.total_gpus(), 2);
    }

    #[test]
    fn large_job_spans_nodes_densely() {
        let c = small_cluster(8);
        let alloc = c.try_place(&gpu_job(6, 24)).unwrap();
        assert_eq!(alloc.node_count(), 3); // 2 GPUs per node
        assert_eq!(alloc.total_gpus(), 6);
    }

    #[test]
    fn single_gpu_jobs_fill_fragments_first() {
        let mut c = small_cluster(3);
        // Occupy one GPU on node 0.
        let first = c.try_place(&gpu_job(1, 4)).unwrap();
        c.allocate(&first);
        let node0 = first.parts[0].node;
        // Next 1-GPU job should prefer the half-used node.
        let second = c.try_place(&gpu_job(1, 4)).unwrap();
        assert_eq!(second.parts[0].node, node0);
    }

    #[test]
    fn placement_fails_when_gpus_exhausted() {
        let mut c = small_cluster(1); // 2 GPUs total
        let a = c.try_place(&gpu_job(2, 8)).unwrap();
        c.allocate(&a);
        assert!(c.try_place(&gpu_job(1, 4)).is_none());
        assert_eq!(c.gpus_in_use(), 2);
        c.release(&a);
        assert_eq!(c.gpus_in_use(), 0);
    }

    #[test]
    fn multi_node_jobs_stay_on_one_switch_when_possible() {
        // 56 nodes = 2 switches of 28. Fragment switch 0 (one GPU taken
        // on each of its nodes) and leave switch 1 untouched: a 6-GPU
        // job should land entirely on switch 1.
        let mut c = small_cluster(56);
        for i in 0..28 {
            let a = Allocation {
                parts: vec![NodeAlloc { node: NodeId(i), gpus: 1, cpus: 4, mem_gib: 8.0 }],
            };
            c.allocate(&a);
        }
        let alloc = c.try_place(&gpu_job(6, 12)).unwrap();
        assert_eq!(alloc.switch_count(28), 1, "allocation spans switches: {alloc:?}");
        assert!(alloc.parts.iter().all(|p| p.node.0 >= 28));
    }

    #[test]
    fn switch_count_counts_distinct_leaves() {
        let a = Allocation {
            parts: vec![
                NodeAlloc { node: NodeId(0), gpus: 2, cpus: 4, mem_gib: 8.0 },
                NodeAlloc { node: NodeId(27), gpus: 2, cpus: 4, mem_gib: 8.0 },
                NodeAlloc { node: NodeId(28), gpus: 2, cpus: 4, mem_gib: 8.0 },
            ],
        };
        assert_eq!(a.switch_count(28), 2);
        assert_eq!(a.switch_count(1), 3);
    }

    #[test]
    fn cpu_job_needs_single_node_with_full_request() {
        let mut c = small_cluster(2);
        // A GPU job taking 16 threads leaves 64 free on its node.
        let g = c.try_place(&gpu_job(2, 16)).unwrap();
        c.allocate(&g);
        // An 80-thread CPU job cannot share that node...
        let a = c.try_place(&cpu_job(80, 360.0)).unwrap();
        assert_ne!(a.parts[0].node, g.parts[0].node);
        c.allocate(&a);
        // ...and a second full-node CPU job now has nowhere to go.
        assert!(c.try_place(&cpu_job(80, 360.0)).is_none());
        // All GPUs are taken, so no further GPU job fits either.
        assert!(c.try_place(&gpu_job(1, 8)).is_none());
    }

    #[test]
    fn cpu_constraint_blocks_gpu_placement() {
        let mut c = small_cluster(1);
        let a = c.try_place(&cpu_job(76, 300.0)).unwrap();
        c.allocate(&a);
        // 4 threads left: a GPU job wanting 8 threads cannot fit.
        assert!(c.try_place(&gpu_job(1, 8)).is_none());
        // But a thin GPU job can.
        assert!(c.try_place(&gpu_job(1, 4)).is_some());
    }

    #[test]
    fn gpus_on_a_node_under_repair_are_not_in_use() {
        let mut c = small_cluster(2);
        c.set_offline(NodeId(1));
        assert!(c.is_down(NodeId(1)) && !c.is_down(NodeId(0)));
        assert_eq!(c.nodes_down(), 1);
        assert_eq!(c.gpus_in_use(), 0);
        assert_eq!(c.gpus_free(), 2);
        let a = c.try_place(&gpu_job(1, 4)).unwrap();
        assert_eq!(a.parts[0].node, NodeId(0), "nothing places on a down node");
        c.allocate(&a);
        assert_eq!(c.gpus_in_use(), 1);
        c.set_online(NodeId(1));
        assert_eq!(c.nodes_down(), 0);
        assert_eq!((c.gpus_in_use(), c.gpus_free()), (1, 3));
    }

    #[test]
    #[should_panic(expected = "GPU over-allocation")]
    fn over_allocation_is_a_bug() {
        let mut c = small_cluster(1);
        let a = c.try_place(&gpu_job(2, 8)).unwrap();
        c.allocate(&a);
        c.allocate(&a); // double allocate must panic
    }

    /// The reference placer: sorts every node by (free GPUs descending,
    /// switch free GPUs descending, index), sorts again for a 1-GPU job
    /// by fewest free GPUs, then runs the greedy body over that order.
    /// `try_place_gpu_routed` must match it exactly.
    fn sorted_reference(c: &ClusterState, job: &JobSpec, route_slow: bool) -> Option<Allocation> {
        let g_total = job.gpus;
        let nps = c.spec.nodes_per_switch.max(1);
        let mut order: Vec<usize> = (0..c.nodes.len())
            .filter(|&i| {
                c.spec.slow_tier.is_none() || (c.spec.is_slow_node(i as u32) == route_slow)
            })
            .collect();
        let mut switch_free: Vec<u32> = vec![0; c.nodes.len() / nps as usize + 1];
        for (i, n) in c.nodes.iter().enumerate() {
            switch_free[i / nps as usize] += n.gpus_free;
        }
        order.sort_by(|&a, &b| {
            c.nodes[b]
                .gpus_free
                .cmp(&c.nodes[a].gpus_free)
                .then(switch_free[b / nps as usize].cmp(&switch_free[a / nps as usize]))
                .then(a.cmp(&b))
        });
        if g_total == 1 {
            order.sort_by(|&a, &b| {
                let key = |n: &NodeState| match n.gpus_free {
                    0 => u32::MAX,
                    f => f,
                };
                key(&c.nodes[a]).cmp(&key(&c.nodes[b])).then(a.cmp(&b))
            });
        }
        let mut remaining = g_total;
        let mut parts = Vec::new();
        for idx in order {
            if remaining == 0 {
                break;
            }
            let n = &c.nodes[idx];
            if n.gpus_free == 0 {
                continue;
            }
            let take_g = n.gpus_free.min(remaining);
            let cpus = (job.cpus * take_g).div_ceil(g_total);
            let mem = job.mem_gib * take_g as f64 / g_total as f64;
            if n.cpus_free < cpus || n.mem_free_gib < mem {
                continue;
            }
            parts.push(NodeAlloc { node: NodeId(idx as u32), gpus: take_g, cpus, mem_gib: mem });
            remaining -= take_g;
        }
        if remaining == 0 {
            Some(Allocation { parts })
        } else {
            None
        }
    }

    /// splitmix64, the seeded stream behind the random cluster states
    /// (and the scheduler's random allocate/finish sequences).
    pub(crate) struct Mix(pub(crate) u64);

    impl Mix {
        pub(crate) fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// A random cluster: 1–4 GPUs per node, 0–9 nodes per switch, with
    /// or without a slow tier and CPU-only nodes, some nodes offline and
    /// random partial GPU, CPU and memory allocations on the rest.
    fn random_state(rng: &mut Mix) -> ClusterState {
        let mut spec = ClusterSpec::supercloud();
        spec.node.gpus = 1 + rng.below(4) as u32;
        spec.nodes = 1 + rng.below(40) as u32;
        spec.nodes_per_switch = rng.below(10) as u32;
        if rng.below(2) == 0 {
            spec.slow_tier = Some(SlowTierSpec { nodes: rng.below(12) as u32, speed: 0.5 });
        }
        spec.cpu_only_nodes = rng.below(4) as u32;
        let mut c = ClusterState::new(spec);
        for i in 0..c.nodes.len() {
            let node = NodeId(i as u32);
            if rng.below(8) == 0 {
                c.set_offline(node);
                continue;
            }
            if rng.below(2) == 0 {
                continue;
            }
            let n = c.nodes[i];
            let gpus = rng.below(u64::from(n.gpus_free) + 1) as u32;
            let cpus = rng.below(u64::from(n.cpus_free) + 1) as u32;
            let mem_gib = n.mem_free_gib * rng.below(101) as f64 / 100.0;
            c.allocate(&Allocation { parts: vec![NodeAlloc { node, gpus, cpus, mem_gib }] });
        }
        c
    }

    /// A job of 0–15 GPUs, a third of them 1-GPU jobs, asking for a thin
    /// or a wide CPU and memory share.
    fn random_job(rng: &mut Mix) -> JobSpec {
        let gpus = if rng.below(3) == 0 { 1 } else { rng.below(16) as u32 };
        let wide = rng.below(4) == 0;
        let cpus = 1 + rng.below(if wide { 80 } else { 16 }) as u32;
        let mem_gib = 1.0 + rng.below(if wide { 380 } else { 64 }) as f64;
        JobSpec { gpus, cpus, mem_gib, ..gpu_job(1, 1) }
    }

    #[test]
    fn placement_matches_the_sorted_reference_on_random_states() {
        let mut rng = Mix(42);
        let (mut tried, mut placed, mut spanning) = (0usize, 0usize, 0usize);
        for _ in 0..4_000 {
            let mut c = random_state(&mut rng);
            for _ in 0..25 {
                let job = random_job(&mut rng);
                let route_slow = rng.below(2) == 0;
                let got = c.try_place_gpu_routed(&job, route_slow);
                let want = sorted_reference(&c, &job, route_slow);
                assert_eq!(got, want, "job {job:?}, route_slow {route_slow}, state {c:?}");
                tried += 1;
                if let Some(a) = got {
                    placed += 1;
                    spanning += usize::from(a.node_count() > 1);
                    // Keep half the placements, so later jobs meet a
                    // fuller cluster.
                    if rng.below(2) == 0 {
                        c.allocate(&a);
                    }
                }
            }
        }
        // Not vacuous: both outcomes, and multi-node packings, occur.
        assert!(placed > tried / 2 && placed < tried, "placed {placed} of {tried}");
        assert!(spanning > tried / 10, "{spanning} multi-node placements of {tried}");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_job() -> impl Strategy<Value = JobSpec> {
            (0u32..=8, 1u32..=80, 1.0f64..380.0).prop_map(|(gpus, cpus, mem)| JobSpec {
                gpus,
                cpus,
                mem_gib: mem,
                ..gpu_job(1, 1)
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn prop_place_allocate_release_conserves(jobs in proptest::collection::vec(arb_job(), 1..40)) {
                let mut c = small_cluster(6);
                let gpus_before = c.gpus_free();
                let mut allocs = Vec::new();
                for j in &jobs {
                    if let Some(a) = c.try_place(j) {
                        // The allocation delivers exactly what was asked.
                        if j.is_gpu_job() {
                            prop_assert_eq!(a.total_gpus(), j.gpus);
                        }
                        c.allocate(&a);
                        allocs.push(a);
                    }
                }
                // Free never negative is enforced by type; release all.
                for a in &allocs {
                    c.release(a);
                }
                prop_assert_eq!(c.gpus_free(), gpus_before);
                for n in c.nodes() {
                    prop_assert_eq!(n.cpus_free, 80);
                    prop_assert!((n.mem_free_gib - 384.0).abs() < 1e-6);
                }
            }

            #[test]
            fn prop_placement_never_exceeds_node_capacity(jobs in proptest::collection::vec(arb_job(), 1..40)) {
                let mut c = small_cluster(4);
                for j in &jobs {
                    if let Some(a) = c.try_place(j) {
                        c.allocate(&a); // panics on over-allocation
                    }
                }
                for n in c.nodes() {
                    prop_assert!(n.gpus_free <= 2);
                    prop_assert!(n.cpus_free <= 80);
                    prop_assert!(n.mem_free_gib <= 384.0 + 1e-6);
                }
            }

            #[test]
            fn prop_gpu_parts_are_consistent(g in 1u32..=8, cpus in 1u32..=16) {
                let c = small_cluster(6);
                let j = gpu_job(g, cpus);
                if let Some(a) = c.try_place(&j) {
                    prop_assert_eq!(a.total_gpus(), g);
                    // CPU shares across parts cover the request.
                    let cpu_total: u32 = a.parts.iter().map(|p| p.cpus).sum();
                    prop_assert!(cpu_total >= cpus);
                    // Dense placement: no more nodes than strictly needed.
                    prop_assert!(a.node_count() <= g.div_ceil(2) as usize);
                }
            }
        }
    }

    #[test]
    fn conservation_under_allocate_release_cycles() {
        let mut c = small_cluster(4);
        let total_before = c.gpus_free();
        let jobs: Vec<JobSpec> = (1..=4).map(|g| gpu_job(g, 8)).collect();
        let mut allocs = Vec::new();
        for j in &jobs {
            if let Some(a) = c.try_place(j) {
                c.allocate(&a);
                allocs.push(a);
            }
        }
        for a in &allocs {
            c.release(a);
        }
        assert_eq!(c.gpus_free(), total_before);
        for n in c.nodes() {
            assert_eq!(n.cpus_free, 80);
            assert!((n.mem_free_gib - 384.0).abs() < 1e-6);
        }
    }
}
