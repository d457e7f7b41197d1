//! Closed-loop GPU sharing: pack predicted-low-utilization single-GPU
//! jobs two per GPU.
//!
//! The offline [`sc_opportunity::colocation`] study scores pairing
//! policies over completed jobs. This policy makes the pairing live:
//! when a single-GPU job with low predicted SM utilization starts, its
//! GPU becomes an open *host slot*; a later eligible job is placed as a
//! zero-GPU *guest* on the same node and stretched by the interference
//! slowdown the phase-overlap model ([`simulate_pair`]) predicts for
//! that concrete pair of telemetry ground truths.
//!
//! Documented approximations (kept deliberately one-sided so the
//! acceptance band against the offline study is meaningful):
//!
//! - The host is assumed undisturbed; only the guest stretches.
//! - The guest's stretch is fixed at pairing time from a bounded
//!   interference window of 30 minutes per side, not re-evaluated as
//!   phases drift.
//! - Guests hold zero scheduler GPUs (the host owns the board), so the
//!   goodput ledger and Xid fault targeting see only the host's GPU.

use std::collections::HashMap;

use sc_cluster::{Allocation, ClusterState, Dispatch, NodeAlloc, NodeId, Policy, PolicyDecision};
use sc_learn::ArchetypePredictor;
use sc_opportunity::colocation::simulate_pair;
use sc_telemetry::record::JobId;
use sc_workload::{GpuGroundTruth, JobSpec, WorkloadArchetype};

/// Mean SM utilization (percent) below which [`ShareGate::MeanSm`]
/// lets a job share.
const SHARE_BELOW_MEAN_SM: f64 = 25.0;

/// Interference window, seconds: pair slowdowns are evaluated over at
/// most this much overlap per side.
const INTERFERENCE_WINDOW_SECS: f64 = 1800.0;

/// How [`CosharePolicy`] decides a single-GPU job may share a board.
#[derive(Debug, Clone)]
pub enum ShareGate {
    /// Oracle utilization: the job's ground-truth mean SM level is
    /// below 25 %.
    MeanSm,
    /// Archetype labels ([`shareable_archetype`]) read from the spec's
    /// ground truth: the oracle-label arm.
    ArchetypeLabel,
    /// The same rule on a classifier's labels: each job's memoized
    /// [`ArchetypePredictor::predict_job`], or the job's own label when
    /// that is `None`. An A/B against [`ShareGate::ArchetypeLabel`]
    /// isolates exactly the cost of classifier error.
    PredictedLabel(ArchetypePredictor),
}

/// Whether an archetype is a sharing candidate under the label gates:
/// mostly-idle sessions and short bursty work interleave well; periodic
/// trainers and plateau jobs keep their boards.
pub fn shareable_archetype(archetype: WorkloadArchetype) -> bool {
    matches!(archetype, WorkloadArchetype::IdleHeavy | WorkloadArchetype::BurstyDev)
}

/// One GPU with spare capacity: a running low-utilization single-GPU job.
#[derive(Debug, Clone)]
struct HostSlot {
    host: JobId,
    node: NodeId,
    truth: GpuGroundTruth,
    duration: f64,
}

/// Packs predicted-low-utilization single-GPU jobs two per GPU.
#[derive(Debug)]
pub struct CosharePolicy {
    /// Eligibility rule for both sides of a pairing.
    gate: ShareGate,
    /// [`ShareGate::PredictedLabel`]'s predictions by job. Prediction
    /// streams up to an hour of the job's telemetry, and a job is gated
    /// once per placement probe and dispatch.
    predictions: HashMap<JobId, Option<WorkloadArchetype>>,
    /// Open host slots, oldest first (FIFO matching).
    slots: Vec<HostSlot>,
    /// Guests placed but not yet dispatched: guest id -> (host, stretch).
    pending: HashMap<JobId, (JobId, f64)>,
}

impl Default for CosharePolicy {
    /// The `coshare` arm: the [`ShareGate::MeanSm`] gate.
    fn default() -> Self {
        CosharePolicy::with_gate(ShareGate::MeanSm)
    }
}

impl CosharePolicy {
    /// Builds the policy with an explicit eligibility gate.
    pub fn with_gate(gate: ShareGate) -> Self {
        CosharePolicy {
            gate,
            predictions: HashMap::new(),
            slots: Vec::new(),
            pending: HashMap::new(),
        }
    }

    /// Whether `job` may participate in sharing (either side).
    fn eligible(&mut self, job: &JobSpec) -> bool {
        if job.gpus != 1 || job.idle_gpus != 0 {
            return false;
        }
        match &self.gate {
            ShareGate::MeanSm => {
                job.truth_params.as_ref().is_some_and(|t| t.mean_levels.sm < SHARE_BELOW_MEAN_SM)
            }
            ShareGate::ArchetypeLabel => job.archetype.is_some_and(shareable_archetype),
            ShareGate::PredictedLabel(predictor) => {
                let predicted = *self
                    .predictions
                    .entry(job.job_id)
                    .or_insert_with(|| predictor.predict_job(job));
                predicted.or(job.archetype).is_some_and(shareable_archetype)
            }
        }
    }
}

/// The job's run time as the interference model sees it: at least a
/// minute, at most the interference window.
fn bounded_run(job: &JobSpec) -> f64 {
    job.outcome.run_time(job.time_limit).clamp(60.0, INTERFERENCE_WINDOW_SECS)
}

impl Policy for CosharePolicy {
    fn place(&mut self, job: &JobSpec, cluster: &ClusterState) -> Option<Allocation> {
        if self.slots.is_empty() || !self.eligible(job) {
            return None;
        }
        // Oldest open slot whose node still has CPU and memory headroom
        // for the guest (the GPU itself is the host's).
        let nodes = cluster.nodes();
        let idx = self.slots.iter().position(|s| {
            let n = &nodes[s.node.0 as usize];
            n.cpus_free >= job.cpus && n.mem_free_gib >= job.mem_gib
        })?;
        let guest_truth = job.ground_truth()?;
        let slot = self.slots.remove(idx);
        let pair =
            simulate_pair(&slot.truth, &guest_truth.gpus[0], slot.duration, bounded_run(job));
        let slowdown = pair.slowdown_b.max(1.0);
        self.pending.insert(job.job_id, (slot.host, slowdown));
        Some(Allocation {
            parts: vec![NodeAlloc {
                node: slot.node,
                gpus: 0,
                cpus: job.cpus,
                mem_gib: job.mem_gib,
            }],
        })
    }

    fn dispatch(&mut self, job: &JobSpec, alloc: &Allocation) -> Dispatch {
        if let Some((host, slowdown)) = self.pending.remove(&job.job_id) {
            return Dispatch {
                stretch: slowdown,
                power_cap_w: None,
                decision: Some(PolicyDecision::CosharePlace { host, slowdown }),
            };
        }
        // A low-utilization single that got a whole GPU opens a slot.
        if self.eligible(job) && alloc.total_gpus() == 1 {
            if let Some(truth) = job.ground_truth() {
                self.slots.push(HostSlot {
                    host: job.job_id,
                    node: alloc.parts[0].node,
                    truth: truth.gpus[0].clone(),
                    duration: bounded_run(job),
                });
            }
        }
        Dispatch::default()
    }

    fn release(&mut self, job: JobId) {
        self.slots.retain(|s| s.host != job);
        self.pending.remove(&job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_cluster::ClusterSpec;
    use sc_learn::ClassifierConfig;
    use sc_telemetry::record::{SubmissionInterface, UserId};
    use sc_workload::{PlannedOutcome, ResourceLevels, Trace, TruthParams, WorkloadSpec};

    fn low_sm_job(id: u64, seed: u64) -> JobSpec {
        JobSpec {
            job_id: JobId(id),
            user: UserId(0),
            arrival: 0.0,
            interface: SubmissionInterface::Other,
            gpus: 1,
            cpus: 4,
            mem_gib: 16.0,
            time_limit: 3600.0,
            class: None,
            outcome: PlannedOutcome::Complete { work_secs: 1200.0 },
            archetype: None,
            truth_params: Some(TruthParams {
                duration: 1400.0,
                active_fraction: 0.4,
                mean_levels: ResourceLevels {
                    sm: 12.0,
                    mem: 8.0,
                    mem_size: 10.0,
                    pcie_tx: 50.0,
                    pcie_rx: 50.0,
                },
                ..Default::default()
            }),
            idle_gpus: 0,
            truth_seed: seed,
            checkpointable: true,
            max_restarts: 0,
        }
    }

    #[test]
    fn host_then_guest_pairs_on_the_same_node() {
        let mut p = CosharePolicy::default();
        let cluster = ClusterState::new(ClusterSpec::supercloud());
        let host = low_sm_job(1, 11);
        let host_alloc = cluster.try_place(&host).expect("fits empty cluster");
        assert_eq!(p.dispatch(&host, &host_alloc), Dispatch::default());

        let guest = low_sm_job(2, 22);
        let alloc = p.place(&guest, &cluster).expect("guest should co-place");
        assert_eq!(alloc.total_gpus(), 0, "guest borrows the host's GPU");
        assert_eq!(alloc.parts[0].node, host_alloc.parts[0].node);

        let d = p.dispatch(&guest, &alloc);
        assert!(d.stretch >= 1.0);
        match d.decision {
            Some(PolicyDecision::CosharePlace { host: h, slowdown }) => {
                assert_eq!(h, JobId(1));
                assert!(slowdown >= 1.0);
            }
            other => panic!("expected CosharePlace, got {other:?}"),
        }
    }

    #[test]
    fn busy_jobs_and_multi_gpu_jobs_never_pair() {
        let mut p = CosharePolicy::default();
        let cluster = ClusterState::new(ClusterSpec::supercloud());
        let mut hot = low_sm_job(1, 11);
        hot.truth_params.as_mut().unwrap().mean_levels.sm = 80.0;
        let alloc = cluster.try_place(&hot).unwrap();
        p.dispatch(&hot, &alloc);
        assert!(p.place(&low_sm_job(2, 22), &cluster).is_none(), "no slot was opened");

        let quiet = low_sm_job(3, 33);
        let qa = cluster.try_place(&quiet).unwrap();
        p.dispatch(&quiet, &qa);
        let mut wide = low_sm_job(4, 44);
        wide.gpus = 2;
        assert!(p.place(&wide, &cluster).is_none(), "multi-GPU jobs keep whole boards");
    }

    #[test]
    fn label_gate_ignores_sm_and_reads_archetypes() {
        let mut p = CosharePolicy::with_gate(ShareGate::ArchetypeLabel);
        let cluster = ClusterState::new(ClusterSpec::supercloud());

        // Hot but idle-heavy-labeled: shares under the label gate.
        let mut host = low_sm_job(1, 11);
        host.truth_params.as_mut().unwrap().mean_levels.sm = 80.0;
        host.archetype = Some(sc_workload::WorkloadArchetype::IdleHeavy);
        let alloc = cluster.try_place(&host).unwrap();
        p.dispatch(&host, &alloc);

        // Quiet but periodic-labeled: keeps its board.
        let mut trainer = low_sm_job(2, 22);
        trainer.archetype = Some(sc_workload::WorkloadArchetype::CnnPeriodic);
        assert!(p.place(&trainer, &cluster).is_none(), "periodic trainers never share");

        let mut dev = low_sm_job(3, 33);
        dev.archetype = Some(sc_workload::WorkloadArchetype::BurstyDev);
        let alloc = p.place(&dev, &cluster).expect("bursty-dev rides along");
        assert_eq!(alloc.total_gpus(), 0);
    }

    #[test]
    fn release_closes_the_slot() {
        let mut p = CosharePolicy::default();
        let cluster = ClusterState::new(ClusterSpec::supercloud());
        let host = low_sm_job(1, 11);
        let alloc = cluster.try_place(&host).unwrap();
        p.dispatch(&host, &alloc);
        p.release(JobId(1));
        assert!(p.place(&low_sm_job(2, 22), &cluster).is_none(), "slot died with its host");
    }

    #[test]
    fn predicted_gate_follows_the_classifier_over_the_label() {
        use sc_workload::WorkloadArchetype::{CnnPeriodic, IdleHeavy};
        let trace = Trace::generate(&WorkloadSpec::supercloud().scaled(0.004), 5);
        let (predictor, _) =
            ArchetypePredictor::train(&trace, &ClassifierConfig::default()).unwrap();
        let mut p = CosharePolicy::with_gate(ShareGate::PredictedLabel(predictor.clone()));
        let mut wide = low_sm_job(1, 11);
        wide.gpus = 2;
        wide.archetype = Some(IdleHeavy);
        assert!(!p.eligible(&wide), "multi-GPU jobs keep whole boards");
        assert!(p.predictions.is_empty(), "only single-GPU jobs are classified");

        let singles: Vec<&JobSpec> =
            trace.gpu_jobs().filter(|j| j.gpus == 1 && j.idle_gpus == 0).take(20).collect();
        assert!(!singles.is_empty());
        for job in &singles {
            let predicted = predictor.predict_job(job).expect("GPU jobs get a prediction");
            // A label of the opposite kind: the gate must read the
            // prediction, on every call.
            let mut relabeled = (*job).clone();
            let share = shareable_archetype(predicted);
            relabeled.archetype = Some(if share { CnnPeriodic } else { IdleHeavy });
            assert_eq!(p.eligible(&relabeled), share, "job {:?}", job.job_id);
            assert_eq!(p.eligible(&relabeled), share, "job {:?}", job.job_id);
        }
        assert_eq!(p.predictions.len(), singles.len(), "one prediction per job");
    }
}
