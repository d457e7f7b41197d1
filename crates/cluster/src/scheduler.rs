//! The FCFS + EASY-backfill scheduler.
//!
//! Supercloud ran "a single job queue for all jobs" (Sec. II). We model
//! FCFS order with EASY backfill: when the head job cannot start, a
//! *shadow time* is computed from the running jobs' wall-clock limits
//! and later jobs may jump ahead only if their own limit guarantees they
//! finish before the shadow time. Estimates use requested limits — never
//! actual run times — so the scheduler cannot cheat.

use crate::policy::Policy;
use crate::resources::{Allocation, ClusterState, NodeId};
use sc_telemetry::record::JobId;
use sc_workload::JobSpec;
use std::collections::HashMap;

/// A queued job: the trace index plus its submit time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedJob {
    /// Index into the trace job list.
    pub trace_idx: usize,
    /// Submission time.
    pub submit_time: f64,
}

/// A running job's bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct RunningJob {
    /// Index into the trace job list.
    pub trace_idx: usize,
    /// The held allocation.
    pub alloc: Allocation,
    /// Actual start time.
    pub start_time: f64,
    /// Scheduler's upper bound on the end (start + requested limit).
    pub estimated_end: f64,
    /// Run-time stretch factor of the tier the job landed on (1.0 on
    /// the fast tier) — needed to convert elapsed wall-clock back into
    /// completed work when a failure interrupts the job.
    pub stretch: f64,
    /// Per-job power cap imposed by a dispatch policy, watts. Carried
    /// here so the completion record (and hence the telemetry epilog)
    /// knows to clamp the job's synthesized power.
    pub power_cap_w: Option<f64>,
}

/// Decisions produced by one scheduling pass, and the work it did.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SchedulePass {
    /// `(trace_idx, allocation)` of jobs to start now, in order.
    pub started: Vec<(usize, Allocation)>,
    /// Pending entries the pass examined.
    pub scanned: u64,
    /// Candidates the pass tried to place, by the policy or by the
    /// cluster.
    pub placement_calls: u64,
}

/// The scheduler state: pending queue and running set.
#[derive(Debug, Default)]
pub struct Scheduler {
    pending: Vec<QueuedJob>,
    running: HashMap<JobId, RunningJob>,
    /// Per node index, the running jobs holding resources there, sorted
    /// by id, each with whether it holds a GPU on that node — the
    /// victims of a fault, without a scan of the running set.
    residents: Vec<Vec<Resident>>,
}

/// A running job's presence on one node.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Resident {
    job_id: JobId,
    holds_gpu: bool,
}

impl Scheduler {
    /// An empty scheduler.
    pub fn new() -> Self {
        Scheduler::default()
    }

    /// Enqueues a submitted job.
    pub fn submit(&mut self, trace_idx: usize, submit_time: f64) {
        self.pending.push(QueuedJob { trace_idx, submit_time });
    }

    /// Registers a started job, replacing its bookkeeping if it was
    /// already running.
    pub fn mark_running(&mut self, job_id: JobId, running: RunningJob) {
        if let Some(replaced) = self.running.remove(&job_id) {
            self.leave_nodes(job_id, &replaced.alloc);
        }
        for part in &running.alloc.parts {
            let node = part.node.0 as usize;
            if self.residents.len() <= node {
                self.residents.resize_with(node + 1, Vec::new);
            }
            let list = &mut self.residents[node];
            let holds_gpu = part.gpus > 0;
            match list.binary_search_by_key(&job_id, |r| r.job_id) {
                Ok(at) => list[at].holds_gpu |= holds_gpu,
                Err(at) => list.insert(at, Resident { job_id, holds_gpu }),
            }
        }
        self.running.insert(job_id, running);
    }

    /// Removes a finished job, returning its bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics if the job is not running (an event-ordering bug).
    pub fn finish(&mut self, job_id: JobId) -> RunningJob {
        let running = self.running.remove(&job_id).expect("finished job must be running");
        self.leave_nodes(job_id, &running.alloc);
        running
    }

    /// Takes `job_id` off the resident list of every node in `alloc`.
    fn leave_nodes(&mut self, job_id: JobId, alloc: &Allocation) {
        for part in &alloc.parts {
            if let Some(list) = self.residents.get_mut(part.node.0 as usize) {
                if let Ok(at) = list.binary_search_by_key(&job_id, |r| r.job_id) {
                    list.remove(at);
                }
            }
        }
    }

    /// Whether `job_id` has a running attempt.
    pub fn is_running(&self, job_id: JobId) -> bool {
        self.running.contains_key(&job_id)
    }

    /// Number of queued jobs.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Number of running jobs.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Runs one FCFS + EASY-backfill pass at time `now` against the
    /// cluster state, committing allocations for every job it starts and
    /// removing them from the queue. `jobs` is the full trace job list.
    ///
    /// With a closed-loop `policy`, its [`Policy::place`] is tried first
    /// for every candidate (head and backfill alike) and the cluster's
    /// own packing is the fallback.
    pub fn schedule(
        &mut self,
        now: f64,
        cluster: &mut ClusterState,
        jobs: &[JobSpec],
        mut policy: Option<&mut (dyn Policy + '_)>,
    ) -> SchedulePass {
        let mut placement_calls = 0;
        let mut place = |cluster: &ClusterState, job: &JobSpec| -> Option<Allocation> {
            placement_calls += 1;
            if let Some(p) = policy.as_deref_mut() {
                if let Some(alloc) = p.place(job, cluster) {
                    return Some(alloc);
                }
            }
            cluster.try_place(job)
        };
        let mut pass = SchedulePass::default();
        let mut blocked_shadow: Option<f64> = None;
        let mut i = 0;
        while i < self.pending.len() {
            pass.scanned += 1;
            let q = self.pending[i];
            let job = &jobs[q.trace_idx];
            match blocked_shadow {
                None => {
                    if let Some(alloc) = place(cluster, job) {
                        cluster.allocate(&alloc);
                        pass.started.push((q.trace_idx, alloc));
                        self.pending.remove(i);
                        continue; // do not advance i; next job shifted in
                    }
                    // Head-of-line blocking: compute the shadow time and
                    // switch to backfill mode.
                    blocked_shadow = Some(self.shadow_time(now));
                    i += 1;
                }
                Some(shadow) => {
                    // Backfill candidates must be guaranteed (by their
                    // requested limit) to clear out before the shadow.
                    if now + job.time_limit <= shadow {
                        if let Some(alloc) = place(cluster, job) {
                            cluster.allocate(&alloc);
                            pass.started.push((q.trace_idx, alloc));
                            self.pending.remove(i);
                            continue;
                        }
                    }
                    i += 1;
                }
            }
        }
        pass.placement_calls = placement_calls;
        pass
    }

    /// Earliest time the blocked head job might start: the minimum
    /// estimated end among running jobs (conservative single-resource
    /// approximation of EASY's reservation computation). With nothing
    /// running there is nothing to wait for; schedule eagerly.
    fn shadow_time(&self, now: f64) -> f64 {
        self.running.values().map(|r| r.estimated_end).fold(f64::INFINITY, f64::min).max(now)
    }

    /// Queue snapshot (for tests and instrumentation).
    pub fn pending(&self) -> &[QueuedJob] {
        &self.pending
    }

    /// Running jobs holding resources on `node`, sorted by id — the
    /// blast radius of a node failure.
    pub fn running_on_node(&self, node: NodeId) -> Vec<JobId> {
        self.residents_of(node).map(|r| r.job_id).collect()
    }

    /// Running jobs holding at least one GPU on `node`, sorted by id —
    /// the candidate victims of a single-GPU Xid fault there.
    pub fn gpu_residents_on_node(&self, node: NodeId) -> Vec<JobId> {
        self.residents_of(node).filter(|r| r.holds_gpu).map(|r| r.job_id).collect()
    }

    fn residents_of(&self, node: NodeId) -> impl Iterator<Item = &Resident> {
        self.residents.get(node.0 as usize).into_iter().flatten()
    }

    /// [`Scheduler::running_on_node`] by a scan of the running set: the
    /// reference the per-node lists are checked against.
    #[cfg(test)]
    fn running_on_node_by_scan(&self, node: NodeId) -> Vec<JobId> {
        let mut ids: Vec<JobId> = self
            .running
            .iter()
            .filter(|(_, r)| r.alloc.parts.iter().any(|p| p.node == node))
            .map(|(id, _)| *id)
            .collect();
        ids.sort();
        ids
    }

    /// [`Scheduler::gpu_residents_on_node`] by a scan of the running
    /// set.
    #[cfg(test)]
    fn gpu_residents_on_node_by_scan(&self, node: NodeId) -> Vec<JobId> {
        let mut ids: Vec<JobId> = self
            .running
            .iter()
            .filter(|(_, r)| r.alloc.parts.iter().any(|p| p.node == node && p.gpus > 0))
            .map(|(id, _)| *id)
            .collect();
        ids.sort();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::tests::Mix;
    use crate::resources::NodeAlloc;
    use crate::spec::ClusterSpec;
    use sc_telemetry::record::{SubmissionInterface, UserId};
    use sc_workload::PlannedOutcome;

    fn job(id: u64, gpus: u32, cpus: u32, limit: f64) -> JobSpec {
        JobSpec {
            job_id: JobId(id),
            user: UserId(0),
            arrival: 0.0,
            interface: SubmissionInterface::Other,
            gpus,
            cpus,
            mem_gib: 16.0,
            time_limit: limit,
            class: None,
            outcome: PlannedOutcome::Complete { work_secs: limit / 2.0 },
            archetype: None,
            truth_params: None,
            idle_gpus: 0,
            truth_seed: 0,
            checkpointable: false,
            max_restarts: 0,
        }
    }

    fn one_node_cluster() -> ClusterState {
        let mut spec = ClusterSpec::supercloud();
        spec.nodes = 1; // 2 GPUs
        ClusterState::new(spec)
    }

    fn two_node_cluster() -> ClusterState {
        let mut spec = ClusterSpec::supercloud();
        spec.nodes = 2; // 4 GPUs
        ClusterState::new(spec)
    }

    #[test]
    fn fcfs_starts_jobs_in_order_when_space_allows() {
        let jobs = vec![job(1, 1, 4, 3600.0), job(2, 1, 4, 3600.0)];
        let mut cluster = one_node_cluster();
        let mut s = Scheduler::new();
        s.submit(0, 0.0);
        s.submit(1, 0.0);
        let pass = s.schedule(0.0, &mut cluster, &jobs, None);
        assert_eq!(pass.started.len(), 2);
        assert_eq!(pass.started[0].0, 0);
        assert_eq!(pass.started[1].0, 1);
        assert_eq!(s.pending_len(), 0);
    }

    #[test]
    fn head_of_line_blocks_non_backfillable_jobs() {
        // 4-GPU cluster. Job A holds 3 GPUs until t=1000 (limit), one
        // GPU stays free. Head job B needs 4 GPUs; job C (1 GPU, long
        // limit) physically fits in the free GPU but must NOT jump ahead
        // because it would outlive the shadow time.
        let jobs = vec![job(1, 3, 8, 1000.0), job(2, 4, 8, 1000.0), job(3, 1, 4, 5000.0)];
        let mut cluster = two_node_cluster();
        let mut s = Scheduler::new();
        s.submit(0, 0.0);
        let p = s.schedule(0.0, &mut cluster, &jobs, None);
        assert_eq!(p.started.len(), 1);
        s.mark_running(
            JobId(1),
            RunningJob {
                trace_idx: 0,
                alloc: p.started[0].1.clone(),
                start_time: 0.0,
                estimated_end: 1000.0,
                stretch: 1.0,
                power_cap_w: None,
            },
        );
        s.submit(1, 1.0);
        s.submit(2, 2.0);
        let p = s.schedule(2.0, &mut cluster, &jobs, None);
        assert!(p.started.is_empty(), "nothing may start: head blocked, C too long");
        assert_eq!(s.pending_len(), 2);
    }

    #[test]
    fn short_job_backfills_ahead_of_blocked_head() {
        // Same as above but C's limit (500 s) fits before the shadow
        // time (1000 s), so it backfills into the free GPU.
        let jobs = vec![job(1, 3, 8, 1000.0), job(2, 4, 8, 1000.0), job(3, 1, 4, 500.0)];
        let mut cluster = two_node_cluster();
        let mut s = Scheduler::new();
        s.submit(0, 0.0);
        let p = s.schedule(0.0, &mut cluster, &jobs, None);
        s.mark_running(
            JobId(1),
            RunningJob {
                trace_idx: 0,
                alloc: p.started[0].1.clone(),
                start_time: 0.0,
                estimated_end: 1000.0,
                stretch: 1.0,
                power_cap_w: None,
            },
        );
        s.submit(1, 1.0);
        s.submit(2, 2.0);
        let p = s.schedule(2.0, &mut cluster, &jobs, None);
        assert_eq!(p.started.len(), 1);
        assert_eq!(p.started[0].0, 2, "the short job backfills");
        // FCFS order preserved for the blocked head.
        assert_eq!(s.pending()[0].trace_idx, 1);
    }

    #[test]
    fn pass_counts_scanned_entries_and_placement_calls() {
        // Head B blocks; C is examined but too long to backfill, D is
        // short and backfills. An empty queue costs nothing.
        let jobs = vec![
            job(1, 3, 8, 1000.0),
            job(2, 4, 8, 1000.0),
            job(3, 1, 4, 5000.0),
            job(4, 1, 4, 500.0),
        ];
        let mut cluster = two_node_cluster();
        let mut s = Scheduler::new();
        s.submit(0, 0.0);
        let p = s.schedule(0.0, &mut cluster, &jobs, None);
        assert_eq!((p.scanned, p.placement_calls), (1, 1));
        s.mark_running(
            JobId(1),
            RunningJob {
                trace_idx: 0,
                alloc: p.started[0].1.clone(),
                start_time: 0.0,
                estimated_end: 1000.0,
                stretch: 1.0,
                power_cap_w: None,
            },
        );
        for idx in 1..=3 {
            s.submit(idx, 1.0);
        }
        let p = s.schedule(2.0, &mut cluster, &jobs, None);
        assert_eq!(p.started.len(), 1);
        assert_eq!((p.scanned, p.placement_calls), (3, 2));
        let p = Scheduler::new().schedule(3.0, &mut cluster, &jobs, None);
        assert_eq!((p.scanned, p.placement_calls), (0, 0));
    }

    #[test]
    fn finish_releases_bookkeeping() {
        let jobs = vec![job(1, 1, 4, 100.0)];
        let mut cluster = one_node_cluster();
        let mut s = Scheduler::new();
        s.submit(0, 0.0);
        let p = s.schedule(0.0, &mut cluster, &jobs, None);
        s.mark_running(
            JobId(1),
            RunningJob {
                trace_idx: 0,
                alloc: p.started[0].1.clone(),
                start_time: 0.0,
                estimated_end: 100.0,
                stretch: 1.0,
                power_cap_w: None,
            },
        );
        assert_eq!(s.running_len(), 1);
        assert!(s.is_running(JobId(1)));
        let r = s.finish(JobId(1));
        cluster.release(&r.alloc);
        assert_eq!(s.running_len(), 0);
        assert!(!s.is_running(JobId(1)));
        assert_eq!(cluster.gpus_in_use(), 0);
    }

    /// A running job on 1–3 random nodes of `nodes`, each slice with 0–2
    /// GPUs; a node may repeat, as two slices of one allocation.
    fn random_running(rng: &mut Mix, nodes: u64) -> RunningJob {
        let parts = (0..1 + rng.below(3))
            .map(|_| NodeAlloc {
                node: NodeId(rng.below(nodes) as u32),
                gpus: rng.below(3) as u32,
                cpus: 1,
                mem_gib: 1.0,
            })
            .collect();
        RunningJob {
            trace_idx: 0,
            alloc: Allocation { parts },
            start_time: 0.0,
            estimated_end: 1.0,
            stretch: 1.0,
            power_cap_w: None,
        }
    }

    #[test]
    fn resident_lists_match_the_running_set_scan() {
        let mut rng = Mix(16);
        let (mut checked, mut gpu_victims, mut cpu_only) = (0usize, 0usize, 0usize);
        for _ in 0..200 {
            let nodes = 1 + rng.below(12);
            let mut s = Scheduler::new();
            let mut live: Vec<JobId> = Vec::new();
            for step in 0..60 {
                // Start a job (sometimes re-marking a running one), or
                // finish a random running one.
                if live.is_empty() || rng.below(3) > 0 {
                    let id = if !live.is_empty() && rng.below(10) == 0 {
                        live[rng.below(live.len() as u64) as usize]
                    } else {
                        JobId(1_000 * step + rng.below(1_000))
                    };
                    if !live.contains(&id) {
                        live.push(id);
                    }
                    s.mark_running(id, random_running(&mut rng, nodes));
                } else {
                    let id = live.swap_remove(rng.below(live.len() as u64) as usize);
                    s.finish(id);
                }
                // One node past the fleet has no residents either way.
                for n in 0..=nodes as u32 {
                    let node = NodeId(n);
                    let all = s.running_on_node(node);
                    let gpu = s.gpu_residents_on_node(node);
                    assert_eq!(all, s.running_on_node_by_scan(node), "node {n}");
                    assert_eq!(gpu, s.gpu_residents_on_node_by_scan(node), "node {n}");
                    checked += 1;
                    gpu_victims += gpu.len();
                    cpu_only += all.len() - gpu.len();
                }
            }
        }
        // Not vacuous: GPU holders and CPU-only residents both occur.
        assert!(checked > 10_000 && gpu_victims > checked && cpu_only > checked / 10);
    }

    #[test]
    #[should_panic(expected = "finished job must be running")]
    fn finishing_unknown_job_is_a_bug() {
        let mut s = Scheduler::new();
        let _ = s.finish(JobId(99));
    }
}
