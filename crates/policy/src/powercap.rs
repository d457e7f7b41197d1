//! Closed-loop per-GPU power-cap enforcement.
//!
//! The offline [`sc_opportunity::powercap::OverProvisionStudy`] predicts,
//! from recorded aggregates, how much each job would slow under a cap.
//! This policy applies the *same* DVFS model inside the event loop: at
//! dispatch it scores the job's ground-truth power profile against the
//! cap, stretches the run by the worst per-GPU slowdown, and tags the
//! attempt so its synthesized telemetry reports capped boards. The
//! acceptance suite checks the closed-loop outcome lands within a
//! documented band of the offline prediction.

use sc_cluster::{Allocation, Dispatch, Policy, PolicyDecision};
use sc_opportunity::powercap::job_slowdown;
use sc_telemetry::gpu_power::V100_IDLE_W;
use sc_workload::JobSpec;

/// Enforces one facility-wide per-GPU power cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerCapPolicy {
    /// The enforced per-GPU cap, watts. [`crate::PolicySpec::parse`]
    /// admits only caps at or above the V100's idle draw.
    pub cap_w: f64,
}

impl Policy for PowerCapPolicy {
    fn dispatch(&mut self, job: &JobSpec, _alloc: &Allocation) -> Dispatch {
        // CPU jobs draw no board power; nothing to cap.
        let Some(truth) = job.ground_truth() else { return Dispatch::default() };
        // Score the same analytic aggregates the epilog will record, over
        // the job's natural (uncapped) run — matching what the offline
        // study sees in the baseline arm.
        let run = job.outcome.run_time(job.time_limit).max(60.0);
        let slowdown = truth
            .analytic_aggregates(run)
            .iter()
            .map(|a| job_slowdown(a.power_w.mean, a.power_w.max, V100_IDLE_W, self.cap_w))
            .fold(1.0, f64::max);
        Dispatch {
            stretch: slowdown,
            power_cap_w: Some(self.cap_w),
            decision: (slowdown > 1.0 + 1e-9)
                .then_some(PolicyDecision::CapThrottle { cap_w: self.cap_w, slowdown }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_telemetry::record::{JobId, SubmissionInterface, UserId};
    use sc_workload::{JobSpec, PlannedOutcome, ResourceLevels, TruthParams};

    fn gpu_job(sm: f64) -> JobSpec {
        JobSpec {
            job_id: JobId(7),
            user: UserId(0),
            arrival: 0.0,
            interface: SubmissionInterface::Other,
            gpus: 1,
            cpus: 8,
            mem_gib: 32.0,
            time_limit: 7200.0,
            class: None,
            outcome: PlannedOutcome::Complete { work_secs: 3600.0 },
            archetype: None,
            truth_params: Some(TruthParams {
                duration: 4000.0,
                active_fraction: 0.95,
                mean_levels: ResourceLevels {
                    sm,
                    mem: 60.0,
                    mem_size: 50.0,
                    pcie_tx: 200.0,
                    pcie_rx: 200.0,
                },
                ..Default::default()
            }),
            idle_gpus: 0,
            truth_seed: 42,
            checkpointable: true,
            max_restarts: 0,
        }
    }

    #[test]
    fn hot_job_throttles_under_a_tight_cap() {
        let mut p = PowerCapPolicy { cap_w: 120.0 };
        let d = p.dispatch(&gpu_job(90.0), &Allocation::default());
        assert!(d.stretch > 1.0, "a 90% SM job must throttle under 120 W, got {}", d.stretch);
        assert_eq!(d.power_cap_w, Some(120.0));
        assert!(matches!(d.decision, Some(PolicyDecision::CapThrottle { .. })));
    }

    #[test]
    fn generous_cap_leaves_jobs_alone() {
        let mut p = PowerCapPolicy { cap_w: 300.0 };
        let d = p.dispatch(&gpu_job(30.0), &Allocation::default());
        assert_eq!(d.stretch, 1.0);
        // Telemetry is still tagged: a capped facility caps every board.
        assert_eq!(d.power_cap_w, Some(300.0));
        assert!(d.decision.is_none());
    }

    #[test]
    fn cpu_jobs_pass_through() {
        let mut p = PowerCapPolicy { cap_w: 120.0 };
        let mut job = gpu_job(90.0);
        job.gpus = 0;
        job.truth_params = None;
        assert_eq!(p.dispatch(&job, &Allocation::default()), Dispatch::default());
    }
}
