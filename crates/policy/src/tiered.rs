//! Closed-loop tier routing by lifecycle class.
//!
//! The simulator's built-in two-tier support routes by *interface*
//! (interactive sessions go slow). The paper's recommendation routes by
//! *lifecycle class* — non-mature work tolerates slower GPUs. This
//! policy overrides placement with
//! [`sc_cluster::ClusterState::try_place_gpu_routed`] under
//! [`RoutingPolicy::DemoteNonMature`], and reports a
//! `tier_route` decision whenever the class-based route differs from the
//! interface-based default. The slow tier's run-time stretch is the
//! simulator's own physics (`active/speed + (1 - active)`), identical in
//! both A/B arms.
//!
//! The simulator knows each job's true class (it planned the outcome);
//! a real scheduler would use a predictor. This is the oracle upper
//! bound, as in the paper's offline study.

use sc_cluster::{Allocation, ClusterSpec, ClusterState, Dispatch, Policy, PolicyDecision};
use sc_opportunity::tiering::RoutingPolicy;
use sc_telemetry::record::SubmissionInterface;
use sc_workload::JobSpec;

/// Routes GPU jobs between tiers by lifecycle class: every class but
/// mature work goes slow.
#[derive(Debug, Clone, PartialEq)]
pub struct TieredPolicy {
    spec: ClusterSpec,
}

impl TieredPolicy {
    /// Builds the policy over the cluster spec the simulation runs with
    /// (the spec's slow-tier layout decides which nodes are slow). With
    /// no slow tier configured the policy is a no-op.
    pub fn new(spec: ClusterSpec) -> Self {
        TieredPolicy { spec }
    }
}

impl Policy for TieredPolicy {
    fn place(&mut self, job: &JobSpec, cluster: &ClusterState) -> Option<Allocation> {
        if job.gpus == 0 || self.spec.slow_tier.is_none() {
            return None;
        }
        let demote = job.class.is_some_and(|c| RoutingPolicy::DemoteNonMature.demotes(c));
        // Preferred tier full -> None, and the scheduler falls back to
        // the cluster's interface-based routing (spillover, not starve).
        cluster.try_place_gpu_routed(job, demote)
    }

    fn dispatch(&mut self, job: &JobSpec, alloc: &Allocation) -> Dispatch {
        if job.gpus == 0 || self.spec.slow_tier.is_none() {
            return Dispatch::default();
        }
        let slow = alloc.parts.iter().any(|p| self.spec.is_slow_node(p.node.0));
        let default_slow = job.interface == SubmissionInterface::Interactive;
        if slow == default_slow {
            return Dispatch::default();
        }
        Dispatch { decision: Some(PolicyDecision::TierRoute { slow }), ..Dispatch::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_cluster::SlowTierSpec;
    use sc_telemetry::record::{JobId, UserId};
    use sc_workload::{LifecycleClass, PlannedOutcome};

    fn two_tier_spec() -> ClusterSpec {
        let mut spec = ClusterSpec::supercloud();
        spec.slow_tier = Some(SlowTierSpec { nodes: 32, speed: 0.5 });
        spec
    }

    fn job(class: LifecycleClass) -> JobSpec {
        JobSpec {
            job_id: JobId(1),
            user: UserId(0),
            arrival: 0.0,
            interface: SubmissionInterface::Other,
            gpus: 1,
            cpus: 4,
            mem_gib: 16.0,
            time_limit: 3600.0,
            class: Some(class),
            outcome: PlannedOutcome::Complete { work_secs: 600.0 },
            archetype: None,
            truth_params: None,
            idle_gpus: 0,
            truth_seed: 0,
            checkpointable: false,
            max_restarts: 0,
        }
    }

    #[test]
    fn development_jobs_go_slow_and_report_the_route() {
        let spec = two_tier_spec();
        let mut p = TieredPolicy::new(spec.clone());
        let cluster = ClusterState::new(spec.clone());
        let dev = job(LifecycleClass::Development);
        let alloc = p.place(&dev, &cluster).expect("slow tier has room");
        assert!(spec.is_slow_node(alloc.parts[0].node.0), "non-mature work is demoted");
        let d = p.dispatch(&dev, &alloc);
        assert_eq!(d.decision, Some(PolicyDecision::TierRoute { slow: true }));
        assert_eq!(d.stretch, 1.0, "the simulator's tier physics applies the slowdown");
    }

    #[test]
    fn mature_jobs_stay_fast_without_a_decision() {
        let spec = two_tier_spec();
        let mut p = TieredPolicy::new(spec.clone());
        let cluster = ClusterState::new(spec.clone());
        let mature = job(LifecycleClass::Mature);
        let alloc = p.place(&mature, &cluster).expect("fast tier has room");
        assert!(!spec.is_slow_node(alloc.parts[0].node.0));
        assert_eq!(p.dispatch(&mature, &alloc), Dispatch::default());
    }

    #[test]
    fn single_tier_cluster_is_a_no_op() {
        let spec = ClusterSpec::supercloud();
        let mut p = TieredPolicy::new(spec.clone());
        let cluster = ClusterState::new(spec.clone());
        let dev = job(LifecycleClass::Development);
        assert!(p.place(&dev, &cluster).is_none());
    }
}
