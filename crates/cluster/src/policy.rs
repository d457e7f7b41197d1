//! Closed-loop scheduling-policy hooks for the event loop.
//!
//! The opportunity studies (power capping, GPU sharing, tiering) score
//! policies *offline*, from the joined dataset. This module is the
//! *closed-loop* counterpart: a [`Policy`] rides inside the
//! discrete-event loop and changes what the simulated cluster actually
//! does — placements, dispatch-time stretch factors, per-job power caps
//! — so an A/B harness can measure what the analytic models only
//! predict.
//!
//! Hooks are deliberately narrow and deterministic:
//!
//! - [`Policy::admit`] observes every submission (and resubmission).
//! - [`Policy::place`] may override placement for one job; returning
//!   `None` falls through to the cluster's own packing.
//! - [`Policy::dispatch`] runs once per started attempt and returns a
//!   [`Dispatch`]: an extra run-time stretch, an optional per-job power
//!   cap (applied to the job's synthesized telemetry), and the
//!   [`PolicyDecision`] that the loop records as an `sc-obs` event.
//! - [`Policy::tick`] observes scheduler wake-ups.
//! - [`Policy::release`] observes attempts leaving the cluster, so
//!   stateful policies (co-location slots) can clean up.
//!
//! Every hook runs on the single-threaded event loop and must be a pure
//! function of the simulation state it has seen — no wall clock, no
//! ambient randomness — so policy runs stay byte-identical at any
//! `sc_par` thread budget.

use crate::resources::{Allocation, ClusterState};
use sc_telemetry::record::JobId;
use sc_workload::JobSpec;

/// What [`Policy::dispatch`] tells the event loop about one started
/// attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct Dispatch {
    /// Extra run-time stretch factor, multiplied onto any tier stretch.
    /// Values below 1 are clamped to 1 — a policy cannot speed a job up.
    pub stretch: f64,
    /// Per-job GPU power cap, watts. The epilog clamps the job's
    /// synthesized power telemetry to this value, so capped jobs report
    /// capped boards downstream (energy accounting, Fig. 9 analyses).
    pub power_cap_w: Option<f64>,
    /// The decision to record as an `sc-obs` event, if the policy acted
    /// on this job.
    pub decision: Option<PolicyDecision>,
}

impl Default for Dispatch {
    fn default() -> Self {
        Dispatch { stretch: 1.0, power_cap_w: None, decision: None }
    }
}

/// One policy decision, recorded as an `sc-obs` event by the event loop
/// (`cap_throttle`, `coshare_place`, `tier_route`) and counted in
/// [`crate::sim::SimStats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyDecision {
    /// The job's predicted peak power exceeds the cap; its run stretches
    /// by the DVFS slowdown model.
    CapThrottle {
        /// The enforced cap, watts.
        cap_w: f64,
        /// The applied slowdown factor (≥ 1).
        slowdown: f64,
    },
    /// The job was placed as a guest on a GPU already running `host`.
    CosharePlace {
        /// The job whose GPU this guest shares.
        host: JobId,
        /// The guest's interference slowdown factor (≥ 1).
        slowdown: f64,
    },
    /// The job was routed between tiers by a routing policy.
    TierRoute {
        /// Whether it landed on the slow tier.
        slow: bool,
    },
}

/// A closed-loop scheduling policy, driven by the event loop through
/// [`crate::sim::Simulation::run_observed`].
///
/// All methods default to no-ops so a policy implements only the hooks
/// it needs. Implementations must be deterministic (see the module
/// docs).
pub trait Policy: std::fmt::Debug {
    /// Short stable name, used in reports and trace labels.
    fn name(&self) -> &'static str;

    /// A job was submitted (or resubmitted after a failure) at `now`.
    fn admit(&mut self, _job: &JobSpec, _now: f64) {}

    /// Optionally overrides placement for `job`. Returning `None` lets
    /// the cluster's own dense packing run; returning `Some` commits
    /// the allocation as-is (it must fit — the cluster asserts).
    fn place(&mut self, _job: &JobSpec, _cluster: &ClusterState) -> Option<Allocation> {
        None
    }

    /// Runs once per started attempt, after placement.
    fn dispatch(&mut self, _job: &JobSpec, _alloc: &Allocation, _now: f64) -> Dispatch {
        Dispatch::default()
    }

    /// A scheduler wake-up at `now` (periodic observation point).
    fn tick(&mut self, _now: f64, _cluster: &ClusterState) {}

    /// The job's current attempt left the cluster (finished or was
    /// killed) at `now`.
    fn release(&mut self, _job: JobId, _now: f64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Noop;
    impl Policy for Noop {
        fn name(&self) -> &'static str {
            "noop"
        }
    }

    #[test]
    fn default_dispatch_is_identity() {
        let d = Dispatch::default();
        assert_eq!(d.stretch, 1.0);
        assert_eq!(d.power_cap_w, None);
        assert!(d.decision.is_none());
    }

    #[test]
    fn noop_policy_defaults_do_nothing() {
        let mut p = Noop;
        assert_eq!(p.name(), "noop");
        let cluster = ClusterState::new(crate::spec::ClusterSpec::supercloud());
        let job = sc_workload::JobSpec {
            job_id: JobId(1),
            user: sc_telemetry::record::UserId(0),
            arrival: 0.0,
            interface: sc_telemetry::record::SubmissionInterface::Other,
            gpus: 1,
            cpus: 4,
            mem_gib: 16.0,
            time_limit: 3600.0,
            class: None,
            outcome: sc_workload::PlannedOutcome::Complete { work_secs: 100.0 },
            archetype: None,
            truth_params: None,
            idle_gpus: 0,
            truth_seed: 0,
            checkpointable: false,
            max_restarts: 0,
        };
        p.admit(&job, 0.0);
        assert!(p.place(&job, &cluster).is_none());
        assert_eq!(p.dispatch(&job, &Allocation::default(), 0.0), Dispatch::default());
        p.tick(1.0, &cluster);
        p.release(JobId(1), 2.0);
    }
}
