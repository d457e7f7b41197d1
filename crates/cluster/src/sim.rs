//! The simulation driver: replays a generated trace through the
//! scheduler and the telemetry pipeline, producing the joined dataset
//! the characterization consumes.
//!
//! A run has two stages. The event-loop stage ([`Simulation::replay`])
//! schedules every job, injects the failures and settles the ledgers,
//! returning a [`Replay`]: the scheduler records in completion order,
//! [`SimStats`], the goodput and reliability ledgers, the fates and the
//! timeline. The telemetry stage turns a replay into a [`SimOutput`]:
//! it regenerates each job's ground truth, synthesizes its GPU
//! aggregates (and the detailed subset's phase statistics) in parallel,
//! and joins the [`Dataset`]. [`Simulation::run_observed`] is the one
//! stage followed by the other, so a reader that needs only the ledgers
//! calls [`Simulation::replay`] and skips the telemetry.

use crate::event::{Event, EventQueue, Popped};
use crate::failure::{FailureModel, FailureStream, ScheduledFailure};
use crate::policy::{Dispatch, Policy, PolicyDecision};
use crate::reliability::{ReliabilityStats, SIZE_BUCKET_EDGES};
use crate::resources::{Allocation, ClusterState, NodeId};
use crate::scheduler::{RunningJob, Scheduler};
use crate::spec::ClusterSpec;
use sc_obs::{Obs, Timeline, TimelineSample, Value};
use sc_stats::hash::hash_unit;
use sc_telemetry::dataset::{is_analyzed, Dataset};
use sc_telemetry::phases::{ActiveVariability, PhaseStats};
use sc_telemetry::record::{ExitStatus, FailureCause, GpuJobRecord, JobId, SchedulerRecord};
use sc_telemetry::sampler::GPU_SAMPLE_PERIOD_SECS;
use sc_telemetry::stream::{stream_detail, TelemetryStreamSummary};
use sc_workload::{JobGroundTruth, JobSpec, PlannedOutcome, Trace};

/// Simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Cluster hardware.
    pub cluster: ClusterSpec,
    /// Target size of the detailed time-series subset (2,149 jobs in the
    /// paper). Membership is decided by a deterministic hash so the
    /// subset is "a representative fraction of jobs".
    pub detailed_series_jobs: usize,
    /// Optional failure-injection model. `None` (the default) matches
    /// the paper's measurement window, where hardware accounted for
    /// under 0.5% of job failures and those are already injected
    /// per-job by the trace; enable this for reliability and goodput
    /// studies.
    pub failures: Option<FailureModel>,
    /// Optional checkpoint/restart policy. With it set, checkpointable
    /// jobs killed by an injected failure resume from their last
    /// completed interval instead of restarting from scratch; the saved
    /// work counts as useful in the goodput ledger.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Job-size class edges (GPU-count upper bounds) for the
    /// [`ReliabilityStats`] accumulator; defaults to the canonical
    /// [`SIZE_BUCKET_EDGES`].
    pub size_bucket_edges: Vec<u32>,
}

/// Delay between a submission and the scheduling pass that can start
/// it, seconds — Slurm's scheduler loop latency. The paper's median
/// single-GPU queue wait of 3 seconds on an underloaded cluster is
/// exactly this constant.
const SCHED_LATENCY_SECS: f64 = 3.0;

/// Periodic checkpointing as the event loop models it: a fixed
/// wall-clock interval between checkpoint writes. Derive the interval
/// from a [`sc_stats`]-style optimum (Young/Daly) or set it directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointPolicy {
    /// Wall-clock seconds between checkpoint writes.
    pub interval_secs: f64,
    /// Seconds one checkpoint write takes (reported as overhead in the
    /// goodput ledger; it does not stretch the simulated run).
    pub write_secs: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cluster: ClusterSpec::supercloud(),
            detailed_series_jobs: 2_149,
            failures: None,
            checkpoint: None,
            size_bucket_edges: SIZE_BUCKET_EDGES.to_vec(),
        }
    }
}

/// Phase statistics extracted from one detailed-subset job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetailedJobStats {
    /// The job.
    pub job_id: JobId,
    /// Active/idle phase statistics (Fig. 6).
    pub phases: PhaseStats,
    /// Within-active-phase utilization variability (Fig. 7a); `None`
    /// for jobs with no active samples.
    pub variability: Option<ActiveVariability>,
}

/// Aggregate simulation health statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimStats {
    /// Events processed.
    pub events: u64,
    /// Scheduling passes run.
    pub sched_passes: u64,
    /// Pending queue entries the scheduling passes examined.
    pub queue_scanned: u64,
    /// Placement attempts the scheduling passes made, by the policy or
    /// by the cluster.
    pub placement_calls: u64,
    /// Peak concurrent GPUs in use.
    pub peak_gpus_in_use: u32,
    /// Total GPU-hours delivered.
    pub gpu_hours: f64,
    /// Jobs that ended via hardware failure.
    pub hardware_failures: usize,
    /// Simulated makespan (end of the last job), seconds.
    pub makespan_secs: f64,
    /// Jobs placed on the slow tier (0 without a configured tier).
    pub slow_tier_jobs: usize,
    /// Injected failures that killed at least one job attempt.
    pub injected_failures: u64,
    /// Injected failures that struck an empty or already-down target
    /// and killed nothing.
    pub absorbed_faults: u64,
    /// Automatic requeues issued by the retry policy.
    pub requeues: u64,
    /// Attempts that resumed from checkpoint-preserved work instead of
    /// starting from scratch.
    pub checkpoint_restores: u64,
    /// Closed-loop policy: attempts throttled by a power cap.
    pub policy_cap_throttles: u64,
    /// Closed-loop policy: guest attempts placed onto a shared GPU.
    pub policy_coshares: u64,
    /// Closed-loop policy: attempts tier-routed by a routing policy.
    pub policy_tier_routes: u64,
}

/// The goodput ledger: every allocated GPU-second attributed to exactly
/// one bucket, across **all** attempts of every job (the joined dataset
/// only shows final attempts).
///
/// `useful` is active GPU time whose work survived — the attempt
/// reached its natural end, or a checkpoint preserved it. `lost` is
/// active GPU time destroyed by an infrastructure failure. `idle` is
/// allocated-but-idle GPU time (the paper's Fig. 6 idle phases, plus
/// wholly idle GPUs of multi-GPU jobs). By construction
/// `useful + lost + idle == allocated`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GoodputAccounting {
    /// Total allocated GPU-seconds over all attempts.
    pub allocated_gpu_secs: f64,
    /// Active GPU-seconds whose work survived.
    pub useful_gpu_secs: f64,
    /// Active GPU-seconds destroyed by failures.
    pub lost_gpu_secs: f64,
    /// Allocated GPU-seconds the GPUs sat idle.
    pub idle_gpu_secs: f64,
    /// GPU-seconds spent writing checkpoints (informational; a subset
    /// of `useful`, not a fourth bucket).
    pub checkpoint_write_gpu_secs: f64,
    /// `lost_gpu_secs` attributed per cause, indexed by
    /// [`FailureCause::index`].
    pub lost_by_cause_gpu_secs: [f64; 3],
    /// Job-attempt deaths per cause, indexed by [`FailureCause::index`].
    pub deaths_by_cause: [u64; 3],
}

impl GoodputAccounting {
    /// Absolute imbalance of the ledger:
    /// `|allocated − (useful + lost + idle)|`. Zero up to float
    /// rounding; tests assert it stays below `1e-6 × allocated`.
    pub fn balance_error(&self) -> f64 {
        (self.allocated_gpu_secs - (self.useful_gpu_secs + self.lost_gpu_secs + self.idle_gpu_secs))
            .abs()
    }

    /// Goodput as a fraction of allocated GPU time (1.0 with nothing
    /// allocated — nothing was wasted).
    pub fn goodput_fraction(&self) -> f64 {
        if self.allocated_gpu_secs <= 0.0 {
            1.0
        } else {
            self.useful_gpu_secs / self.allocated_gpu_secs
        }
    }

    /// Total injected deaths across causes.
    pub fn total_deaths(&self) -> u64 {
        self.deaths_by_cause.iter().sum()
    }
}

/// How one job's life ended, across all its attempts — the
/// failure-attribution record the goodput report aggregates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobFate {
    /// The job.
    pub job_id: JobId,
    /// Attempts started (1 = never disturbed).
    pub attempts: u32,
    /// Injected failures that killed one of its attempts.
    pub injected_failures: u32,
    /// Final exit status (what the accounting log shows).
    pub exit: ExitStatus,
    /// Cause of the last injected death, if any. Set together with a
    /// terminal `NodeFailure` exit when the retry budget ran out; also
    /// set for jobs that recovered and later ended some other way.
    pub last_cause: Option<FailureCause>,
}

/// Everything the simulation produces.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// The joined scheduler + telemetry dataset (30 s filter applied).
    pub dataset: Dataset,
    /// Detailed time-series statistics for the sampled subset.
    pub detailed: Vec<DetailedJobStats>,
    /// Simulation health counters.
    pub stats: SimStats,
    /// Per-job fates in completion order (every job exactly once).
    pub fates: Vec<JobFate>,
    /// The goodput ledger over all attempts.
    pub goodput: GoodputAccounting,
    /// Cluster state time-series sampled from the event loop (queue
    /// depth, running jobs, GPU occupancy, nodes down, failure and
    /// restore counters) — the substrate of the ClusterTimeline figure.
    pub timeline: Timeline,
    /// Mergeable one-pass summary of the telemetry stage, folded in
    /// input order over the epilogs of the parallel batch —
    /// aggregate state only, byte-identical at any thread budget.
    pub telemetry_summary: TelemetryStreamSummary,
    /// Per-job-size reliability accounting (ETTF/ETTR, failure rates,
    /// restart overhead), accumulated entirely inside the
    /// single-threaded event loop — deterministic across
    /// `SC_PAR_THREADS` by construction.
    pub reliability: ReliabilityStats,
}

/// What the event-loop stage produces: the scheduler records and every
/// ledger, without telemetry. The telemetry stage reads a replay and
/// changes none of it, so each ledger equals its namesake in the
/// [`SimOutput`] that [`Simulation::run_observed`] builds, and the
/// records are that output's dataset records before the 30 s GPU-job
/// filter, whatever the detailed subset's size.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// One scheduler record per job, in completion order, before the
    /// dataset's 30 s GPU-job filter.
    pub records: Vec<SchedulerRecord>,
    /// Simulation health counters, `gpu_hours` and `hardware_failures`
    /// included.
    pub stats: SimStats,
    /// Per-job fates in completion order (every job exactly once).
    pub fates: Vec<JobFate>,
    /// The goodput ledger over all attempts.
    pub goodput: GoodputAccounting,
    /// Cluster state time-series sampled from the event loop.
    pub timeline: Timeline,
    /// Per-job-size reliability accounting.
    pub reliability: ReliabilityStats,
    /// What each record's telemetry epilog needs beyond the record, in
    /// record order.
    completions: Vec<Completion>,
}

/// Wall-clock timings of one simulation run, split by stage.
///
/// Kept separate from [`SimStats`] on purpose: stats are part of the
/// deterministic output contract (tests assert equality across runs and
/// thread counts), while timings vary run to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTimings {
    /// Discrete-event loop (scheduling + event processing), seconds.
    pub event_loop_secs: f64,
    /// Batch telemetry synthesis (ground-truth regeneration, analytic
    /// aggregates, detailed-subset sampling), seconds.
    pub telemetry_secs: f64,
}

/// A job termination recorded by the event loop, beside its scheduler
/// record: what the telemetry epilog for it, which runs later in the
/// parallel batch, needs beyond the record.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Completion {
    trace_idx: usize,
    /// Power cap the final attempt ran under, if a policy imposed one.
    cap_w: Option<f64>,
}

/// Per-job recovery bookkeeping, indexed by trace index.
#[derive(Debug, Clone, Copy, Default)]
struct JobProgress {
    /// Attempts started so far.
    attempts: u32,
    /// Requeues consumed so far.
    retries: u32,
    /// Injected failures that killed one of this job's attempts.
    injected_failures: u32,
    /// Work-seconds (un-stretched) preserved by checkpoints.
    completed_work: f64,
    /// Cause of the last injected death.
    last_cause: Option<FailureCause>,
    /// When an injected failure killed the last attempt; consumed when
    /// the next attempt starts to measure the kill-to-restart gap
    /// (ETTR: backoff + queue wait + scheduling latency).
    killed_at: Option<f64>,
}

/// Everything the epilog derives from one completion — a pure function
/// of the job spec and its realized `[start, end)` window, so the batch
/// can run on any number of threads without changing a byte.
struct JobEpilog {
    gpu: Option<GpuJobRecord>,
    detailed: Option<DetailedJobStats>,
}

/// The discrete-event simulation.
#[derive(Debug, Clone)]
pub struct Simulation {
    config: SimConfig,
}

impl Simulation {
    /// A simulation with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        Simulation { config }
    }

    /// A simulation of the full Supercloud (Table I hardware, 2,149-job
    /// detailed subset).
    pub fn supercloud() -> Self {
        Simulation::new(SimConfig::default())
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Replays `trace` to completion and builds the dataset.
    pub fn run(&self, trace: &Trace) -> SimOutput {
        self.run_observed(trace, &Obs::off(), None).0
    }

    /// Like [`Simulation::run`], also reporting per-stage wall-clock
    /// timings. The output is identical to `run`'s for the same trace.
    pub fn run_timed(&self, trace: &Trace) -> (SimOutput, SimTimings) {
        self.run_observed(trace, &Obs::off(), None)
    }

    /// Like [`Simulation::run_timed`], emitting trace records into
    /// `obs` as the event loop runs, with an optional closed-loop
    /// [`Policy`] riding inside it: [`Simulation::replay`], then the
    /// telemetry batch over its result.
    pub fn run_observed(
        &self,
        trace: &Trace,
        obs: &Obs<'_>,
        policy: Option<&mut (dyn Policy + '_)>,
    ) -> (SimOutput, SimTimings) {
        let wall = std::time::Instant::now();
        let replay = self.replay(trace, obs, policy);
        let event_loop_secs = wall.elapsed().as_secs_f64();
        let batch_t0 = std::time::Instant::now();
        let out = self.synthesize(trace, replay);
        let telemetry_secs = batch_t0.elapsed().as_secs_f64();
        (out, SimTimings { event_loop_secs, telemetry_secs })
    }

    /// The event-loop stage: replays `trace` to completion and returns
    /// the scheduler records and the ledgers, without the telemetry
    /// batch. `obs` and `policy` act as in [`Simulation::run_observed`].
    ///
    /// Every trace record is keyed to sim time and emitted from the
    /// single-threaded event loop, so for a given trace the record
    /// stream is byte-identical at any `sc_par` thread budget. Tracing
    /// changes no result, and with [`Obs::off`] each instrumentation
    /// site costs one enum compare.
    ///
    /// The policy sees every admission, scheduler tick, and release;
    /// may override placement; and its dispatch directives (stretch,
    /// per-job power cap) change the simulated outcomes. Each decision
    /// is recorded as an `sc-obs` event (`cap_throttle`,
    /// `coshare_place`, `tier_route`) and counted in [`SimStats`].
    pub fn replay(
        &self,
        trace: &Trace,
        obs: &Obs<'_>,
        policy: Option<&mut (dyn Policy + '_)>,
    ) -> Replay {
        let mut replay = EventLoop::new(self, trace, *obs, policy);
        while let Some((now, popped)) = replay.queue.pop() {
            replay.stats.events += 1;
            let pass = match popped {
                Popped::Fault(f) => replay.fault(now, f),
                Popped::Event(Event::Submit(idx)) => replay.submit(now, idx),
                Popped::Event(Event::Tick) => replay.tick(now),
                Popped::Event(Event::Finish { trace_idx, attempt, exit }) => {
                    replay.finish(now, trace_idx, attempt, exit)
                }
                Popped::Event(Event::NodeRepair(node)) => replay.repair(now, node),
            };
            if pass {
                replay.schedule(now);
            }
        }
        replay.close();
        let EventLoop {
            records, completions, fates, stats, goodput, timeline, reliability, ..
        } = replay;
        Replay { records, stats, fates, goodput, timeline, reliability, completions }
    }

    /// The telemetry stage: synthesizes each replayed job's telemetry
    /// and joins the dataset. Each epilog is a pure function of (job
    /// spec, record, power cap), so `par_map` synthesizes them on any
    /// thread budget and returns them in completion order.
    fn synthesize(&self, trace: &Trace, replay: Replay) -> SimOutput {
        let Replay { records, stats, fates, goodput, timeline, reliability, completions } = replay;
        let jobs = trace.jobs();
        // The detailed subset is drawn from the *analyzed* GPU jobs
        // (post 30 s filter), so discount the short-job slice.
        let expected_analyzed = (trace.spec().expected_gpu_jobs() as f64
            * (1.0 - trace.spec().short_gpu_job_fraction))
            .max(1.0);
        let detailed_fraction =
            (self.config.detailed_series_jobs as f64 / expected_analyzed).min(1.0);
        let inputs: Vec<(&SchedulerRecord, &Completion)> =
            records.iter().zip(&completions).collect();
        let epilogs = sc_par::par_map(&inputs, |&(sched, c)| {
            self.synthesize_epilog(&jobs[c.trace_idx], sched, c.cap_w, detailed_fraction)
        });
        // A sequential map synthesized on this thread, whose sine tape
        // the workers' exit would not free.
        sc_telemetry::stream::free_sine_tape();
        // The streaming summary folds in input order, so float addition
        // order (and therefore every output byte) is the same at any
        // thread count.
        let mut gpu_records: Vec<GpuJobRecord> = Vec::new();
        let mut detailed: Vec<DetailedJobStats> = Vec::new();
        let mut telemetry_summary = TelemetryStreamSummary::new();
        for (sched, epilog) in records.iter().zip(epilogs) {
            if let Some(gpu) = &epilog.gpu {
                telemetry_summary.record_gpu_job(sched.run_time(), &gpu.per_gpu);
            }
            if let Some(d) = &epilog.detailed {
                telemetry_summary.record_detail(&d.phases);
            }
            gpu_records.extend(epilog.gpu);
            detailed.extend(epilog.detailed);
        }
        SimOutput {
            dataset: Dataset::join(records, gpu_records),
            detailed,
            stats,
            fates,
            goodput,
            timeline,
            telemetry_summary,
            reliability,
        }
    }

    /// Wall-clock seconds of an `elapsed`-second attempt that a
    /// checkpoint preserved: the last completed interval boundary, or 0
    /// when the job does not checkpoint.
    fn checkpoint_saved_wall(&self, job: &JobSpec, elapsed: f64) -> f64 {
        match self.config.checkpoint {
            Some(cp) if job.checkpointable && cp.interval_secs > 0.0 => {
                ((elapsed / cp.interval_secs).floor() * cp.interval_secs).min(elapsed)
            }
            _ => 0.0,
        }
    }

    /// Decides when and how a started job ends. `stretch ≥ 1` scales
    /// the job's productive run (slow-tier placement); the wall-clock
    /// limit is a property of the queue and never stretches.
    /// `completed_work` is checkpoint-preserved work (un-stretched
    /// seconds) from earlier attempts; with it zero the result is
    /// bit-identical to a fresh start.
    fn decide_end(
        &self,
        trace: &Trace,
        job: &JobSpec,
        start: f64,
        stretch: f64,
        completed_work: f64,
    ) -> (f64, ExitStatus) {
        if trace.is_hardware_victim(job.job_id) {
            // The node dies somewhere inside the natural run time.
            let natural =
                ((job.outcome.run_time(job.time_limit) - completed_work) * stretch).max(1.0);
            let frac = 0.05 + 0.9 * hash_unit(job.truth_seed ^ 0xdead_beef);
            return (start + natural * frac, ExitStatus::NodeFailure);
        }
        let stretched = |secs: f64| (secs - completed_work) * stretch;
        let (run, exit) = match job.outcome {
            PlannedOutcome::Complete { work_secs } => {
                if stretched(work_secs) < job.time_limit {
                    (stretched(work_secs), ExitStatus::Completed)
                } else {
                    (job.time_limit, ExitStatus::Timeout)
                }
            }
            PlannedOutcome::Cancel { after_secs } => {
                if stretched(after_secs) < job.time_limit {
                    (stretched(after_secs), ExitStatus::Cancelled)
                } else {
                    (job.time_limit, ExitStatus::Timeout)
                }
            }
            PlannedOutcome::Fail { after_secs } => {
                if stretched(after_secs) < job.time_limit {
                    (stretched(after_secs), ExitStatus::Failed)
                } else {
                    (job.time_limit, ExitStatus::Timeout)
                }
            }
            // A session runs to its (fresh, per-attempt) limit no
            // matter how much earlier work a checkpoint preserved.
            PlannedOutcome::RunUntilTimeout => (job.time_limit, ExitStatus::Timeout),
        };
        (start + run.max(1.0), exit)
    }

    /// The epilog of one finished job: analytic telemetry aggregates,
    /// and — for the detailed subset — the 100 ms sampled series reduced
    /// to phase statistics. `cap_w` is the power cap its final attempt
    /// ran under. Pure with respect to its inputs (the ground truth
    /// regenerates from the job's seed), which is what lets the batch
    /// run in parallel.
    fn synthesize_epilog(
        &self,
        job: &JobSpec,
        sched: &SchedulerRecord,
        cap_w: Option<f64>,
        detailed_fraction: f64,
    ) -> JobEpilog {
        let run_time = sched.run_time();
        let mut gpu = None;
        let mut detailed = None;
        if sched.is_gpu_job() && is_analyzed(sched) {
            if let Some(truth) = job.ground_truth() {
                let mut per_gpu = truth.analytic_aggregates(run_time);
                if let Some(cap) = cap_w {
                    // A capped board reports capped power: the cap
                    // clamps what telemetry sees (utilizations are
                    // untouched — capping slows the clock, it does not
                    // idle the SMs).
                    for a in &mut per_gpu {
                        *a = a.with_power_cap(cap);
                    }
                }
                gpu = Some(GpuJobRecord { job_id: job.job_id, per_gpu });
                if hash_unit(job.truth_seed ^ 0x5eed_cafe) < detailed_fraction {
                    detailed = detail_stats(job.job_id, &truth, run_time);
                }
            }
        }
        JobEpilog { gpu, detailed }
    }
}

/// A detailed-subset job's phase statistics: its ground truth streams
/// job-level ticks straight into the detail reducer — bit-identical to
/// materializing the series and running `phase_stats` /
/// `active_variability`, without storing a tick (tested in
/// sc-workload).
///
/// `None` when the stream does not reduce: no tick in the run, or a
/// non-finite level. Such a job keeps its scheduler and GPU records and
/// is left out of the detailed subset.
fn detail_stats(job_id: JobId, truth: &JobGroundTruth, run_time: f64) -> Option<DetailedJobStats> {
    let (phases, variability) =
        stream_detail(|sink| truth.stream_util3(run_time, GPU_SAMPLE_PERIOD_SECS, sink)).ok()?;
    Some(DetailedJobStats { job_id, phases, variability })
}

/// One replay of a trace: everything the event loop mutates, with one
/// handler per [`Event`]. Each handler returns whether a scheduling
/// pass follows the event.
struct EventLoop<'a, 'p> {
    sim: &'a Simulation,
    trace: &'a Trace,
    /// The trace's jobs; every `idx` below indexes this list.
    jobs: &'a [JobSpec],
    obs: Obs<'a>,
    policy: Option<&'a mut (dyn Policy + 'p)>,
    cluster: ClusterState,
    scheduler: Scheduler,
    queue: EventQueue<FailureStream>,
    progress: Vec<JobProgress>,
    stats: SimStats,
    goodput: GoodputAccounting,
    reliability: ReliabilityStats,
    timeline: Timeline,
    /// Failure-requeued jobs waiting out their backoff.
    requeue_backlog: u64,
    /// Scheduler records of the retired jobs, in event order.
    records: Vec<SchedulerRecord>,
    /// What the telemetry batch needs of each record beyond it.
    completions: Vec<Completion>,
    fates: Vec<JobFate>,
}

impl<'a, 'p> EventLoop<'a, 'p> {
    /// A replay with every submission queued and the injected
    /// failures ready to draw.
    fn new(
        sim: &'a Simulation,
        trace: &'a Trace,
        obs: Obs<'a>,
        policy: Option<&'a mut (dyn Policy + 'p)>,
    ) -> Self {
        let cfg = &sim.config;
        let jobs = trace.jobs();
        // Injected failures, if enabled, are drawn as the run reaches
        // them; the sequence is a pure function of (model, fleet,
        // horizon) — see [`FailureModel::stream`]. At equal times the
        // queue pops submissions (in trace order) before faults.
        let faults = match &cfg.failures {
            Some(model) => model.stream(
                cfg.cluster.total_nodes(),
                cfg.cluster.total_gpus(),
                trace.spec().duration_secs() * 1.2,
            ),
            None => FailureStream::default(),
        };
        let queue = EventQueue::new(
            jobs.iter().enumerate().map(|(i, j)| (j.arrival, Event::Submit(i))),
            faults,
        );
        EventLoop {
            sim,
            trace,
            jobs,
            obs,
            policy,
            cluster: ClusterState::new(cfg.cluster.clone()),
            scheduler: Scheduler::new(),
            queue,
            progress: vec![JobProgress::default(); jobs.len()],
            stats: SimStats::default(),
            goodput: GoodputAccounting::default(),
            reliability: ReliabilityStats::new(&cfg.size_bucket_edges),
            // One timeline point per ~1/512 of the horizon: enough for
            // the figure, bounded memory at any scale. Collected even
            // with tracing off — the ClusterTimeline figure always needs
            // it and the cost is one float compare per event.
            timeline: Timeline::new((trace.spec().duration_secs() / 512.0).max(1.0)),
            requeue_backlog: 0,
            records: Vec::with_capacity(jobs.len()),
            completions: Vec::with_capacity(jobs.len()),
            fates: Vec::with_capacity(jobs.len()),
        }
    }

    /// A job arrives, or returns from a requeue backoff. The scheduling
    /// loop wakes up a beat later, so no pass runs now.
    fn submit(&mut self, now: f64, idx: usize) -> bool {
        let job = &self.jobs[idx];
        // Only a requeue resubmits a job that already started an attempt.
        let requeued = self.progress[idx].attempts > 0;
        if requeued {
            self.requeue_backlog -= 1;
        }
        self.obs.event(now, "submit", || {
            vec![
                ("job", job.job_id.0.into()),
                ("gpus", job.gpus.into()),
                ("requeued", u64::from(requeued).into()),
            ]
        });
        if let Some(p) = self.policy.as_deref_mut() {
            p.admit(job, now);
        }
        self.scheduler.submit(idx, now);
        self.queue.push(now + SCHED_LATENCY_SECS, Event::Tick);
        false
    }

    /// The scheduler wakes up.
    fn tick(&mut self, now: f64) -> bool {
        if let Some(p) = self.policy.as_deref_mut() {
            p.tick(now, &self.cluster);
        }
        true
    }

    /// Attempt `attempt` of job `idx` reaches the end decided when it
    /// started. The finish is stale, and absorbed, when that attempt
    /// already died to an injected failure: the job is no longer
    /// running, or a later attempt replaced it.
    fn finish(&mut self, now: f64, idx: usize, attempt: u32, exit: ExitStatus) -> bool {
        let job = self.jobs[idx].job_id;
        if self.progress[idx].attempts != attempt || !self.scheduler.is_running(job) {
            return false;
        }
        let running = self.end_attempt(now, job, exit_cause(exit));
        self.retire(now, &running, now, exit, exit_cause(exit));
        self.obs.end(now, "attempt", || {
            vec![("job", job.0.into()), ("attempt", attempt.into()), ("exit", exit.label().into())]
        });
        true
    }

    /// Injected failure `f` strikes. A fault on a node already under
    /// repair, or a GPU fault with no GPU-holding resident, is absorbed.
    fn fault(&mut self, now: f64, f: ScheduledFailure) -> bool {
        self.obs.event(now, "fault", || {
            vec![("cause", f.cause.label().into()), ("node", f.node.0.into())]
        });
        if self.cluster.is_down(f.node) {
            self.stats.absorbed_faults += 1;
            return false; // node already out of service
        }
        if f.cause == FailureCause::GpuXid {
            // A single GPU faults: exactly one GPU-holding resident
            // dies; the node stays in service.
            let victims = self.scheduler.gpu_residents_on_node(f.node);
            if victims.is_empty() {
                self.stats.absorbed_faults += 1;
                return false;
            }
            self.kill(now, victims[(f.pick % victims.len() as u64) as usize], f.cause);
        } else {
            // Whole-node event: every resident dies and the node leaves
            // service for repair.
            let residents = self.scheduler.running_on_node(f.node);
            if residents.is_empty() {
                self.stats.absorbed_faults += 1;
            }
            for job in residents {
                self.kill(now, job, f.cause);
            }
            self.cluster.set_offline(f.node);
            self.obs.begin(now, "node_down", || {
                vec![("node", f.node.0.into()), ("cause", f.cause.label().into())]
            });
            self.queue.push(now + f.repair_secs.max(1.0), Event::NodeRepair(f.node));
        }
        true
    }

    /// A failed node returns to service.
    fn repair(&mut self, now: f64, node: NodeId) -> bool {
        self.cluster.set_online(node);
        self.obs.end(now, "node_down", || vec![("node", node.0.into())]);
        true
    }

    /// One scheduling pass at `now`: adds its work to the counters,
    /// starts every attempt it places, then records the post-event
    /// observations (peak occupancy, makespan, queue depth, timeline).
    fn schedule(&mut self, now: f64) {
        let pass =
            self.scheduler.schedule(now, &mut self.cluster, self.jobs, self.policy.as_deref_mut());
        self.stats.sched_passes += 1;
        self.stats.queue_scanned += pass.scanned;
        self.stats.placement_calls += pass.placement_calls;
        for (idx, alloc) in pass.started {
            self.start(now, idx, alloc);
        }
        self.stats.peak_gpus_in_use = self.stats.peak_gpus_in_use.max(self.cluster.gpus_in_use());
        if now > self.stats.makespan_secs {
            self.stats.makespan_secs = now;
        }
        self.timeline.observe_depth(self.scheduler.pending_len() as u64);
        self.timeline.maybe_sample(now, || {
            sample(now, &self.scheduler, &self.cluster, &self.stats, self.requeue_backlog)
        });
    }

    /// Starts an attempt of job `idx` on `alloc`: applies the tier
    /// stretch and the policy's dispatch directive, then queues the
    /// attempt's end.
    fn start(&mut self, now: f64, idx: usize, alloc: Allocation) {
        let job = &self.jobs[idx];
        let cluster = &self.sim.config.cluster;
        // Slow-tier physics: compute-bound work stretches by 1/speed;
        // idle (data/CPU) time is speed-invariant.
        let tier_stretch = match cluster.slow_tier {
            Some(tier) if alloc.parts.iter().any(|p| cluster.is_slow_node(p.node.0)) => {
                self.stats.slow_tier_jobs += 1;
                let af =
                    job.truth_params.as_ref().map_or(0.0, |p| p.active_fraction.clamp(0.0, 1.0));
                af / tier.speed.max(1e-6) + (1.0 - af)
            }
            _ => 1.0,
        };
        // Dispatch directive: the policy may stretch the run further
        // (DVFS throttling, co-location interference) and impose a
        // per-job power cap on its telemetry.
        let directive = match self.policy.as_deref_mut() {
            Some(p) => p.dispatch(job, &alloc, now),
            None => Dispatch::default(),
        };
        let stretch = tier_stretch * directive.stretch.max(1.0);
        if let Some(decision) = directive.decision {
            let stats = &mut self.stats;
            let (count, name, field, slowdown) = match decision {
                PolicyDecision::CapThrottle { cap_w, slowdown } => (
                    &mut stats.policy_cap_throttles,
                    "cap_throttle",
                    ("cap_w", Value::from(cap_w)),
                    Some(slowdown),
                ),
                PolicyDecision::CosharePlace { host, slowdown } => (
                    &mut stats.policy_coshares,
                    "coshare_place",
                    ("host", Value::from(host.0)),
                    Some(slowdown),
                ),
                PolicyDecision::TierRoute { slow } => (
                    &mut stats.policy_tier_routes,
                    "tier_route",
                    ("slow", Value::from(u64::from(slow))),
                    None,
                ),
            };
            *count += 1;
            self.obs.event(now, name, || {
                let mut fields = vec![("job", job.job_id.0.into()), field];
                fields.extend(slowdown.map(|s| ("slowdown", s.into())));
                fields
            });
        }
        let prog = &mut self.progress[idx];
        prog.attempts += 1;
        let attempt = prog.attempts;
        self.reliability.observe_attempt_start(job.gpus);
        if let Some(killed_at) = prog.killed_at.take() {
            self.reliability.observe_recovery(job.gpus, (now - killed_at).max(0.0));
        }
        let saved_work = prog.completed_work;
        if saved_work > 0.0 {
            self.stats.checkpoint_restores += 1;
            self.obs.event(now, "checkpoint_restore", || {
                vec![
                    ("job", job.job_id.0.into()),
                    ("attempt", attempt.into()),
                    ("saved_work_secs", saved_work.into()),
                ]
            });
        }
        self.obs.begin(now, "attempt", || {
            vec![
                ("job", job.job_id.0.into()),
                ("attempt", attempt.into()),
                ("gpus", job.gpus.into()),
            ]
        });
        let (end_time, exit) = self.sim.decide_end(self.trace, job, now, stretch, saved_work);
        self.scheduler.mark_running(
            job.job_id,
            RunningJob {
                trace_idx: idx,
                alloc,
                start_time: now,
                estimated_end: now + job.time_limit,
                stretch,
                power_cap_w: directive.power_cap_w,
            },
        );
        self.queue.push(end_time, Event::Finish { trace_idx: idx, attempt, exit });
    }

    /// Takes `job`'s running attempt off the cluster at `now` — the one
    /// place an attempt leaves, finished or killed: frees its
    /// allocation, tells the policy, and settles the attempt in the
    /// goodput and reliability ledgers. `failure` is the cause when an
    /// infrastructure failure ended it.
    fn end_attempt(&mut self, now: f64, job: JobId, failure: Option<FailureCause>) -> RunningJob {
        let running = self.scheduler.finish(job);
        self.cluster.release(&running.alloc);
        if let Some(p) = self.policy.as_deref_mut() {
            p.release(job, now);
        }
        let spec = &self.jobs[running.trace_idx];
        self.settle_attempt(spec, now - running.start_time, failure);
        running
    }

    /// Kills `job`'s running attempt at `now` because of an injected
    /// failure: banks any checkpointed work, then either requeues the
    /// job (with exponential backoff) or, once the retry budget is
    /// spent, retires it as a node-failure death.
    fn kill(&mut self, now: f64, job: JobId, cause: FailureCause) {
        let running = self.end_attempt(now, job, Some(cause));
        let idx = running.trace_idx;
        let spec = &self.jobs[idx];
        let elapsed = (now - running.start_time).max(0.0);
        let saved_wall = self.sim.checkpoint_saved_wall(spec, elapsed);
        let prog = &mut self.progress[idx];
        // Saved wall-clock converts back to work units through the
        // tier's stretch factor, so a checkpoint taken on the slow tier
        // resumes correctly anywhere.
        prog.completed_work += saved_wall / running.stretch;
        prog.injected_failures += 1;
        prog.last_cause = Some(cause);
        self.stats.injected_failures += 1;
        self.obs.event(now, "kill", || {
            vec![
                ("job", job.0.into()),
                ("cause", cause.label().into()),
                ("elapsed_secs", elapsed.into()),
                ("saved_secs", saved_wall.into()),
            ]
        });
        let attempt = prog.attempts;
        self.obs.end(now, "attempt", || {
            vec![
                ("job", job.0.into()),
                ("attempt", attempt.into()),
                ("exit", "killed".into()),
                ("cause", cause.label().into()),
            ]
        });
        let retry = self.sim.config.failures.as_ref().expect("kill implies failures on").retry;
        if prog.retries < retry.max_retries.min(spec.max_restarts) {
            prog.retries += 1;
            prog.killed_at = Some(now);
            self.stats.requeues += 1;
            self.requeue_backlog += 1;
            let retries = prog.retries;
            let backoff = retry.backoff_secs(retries);
            self.obs.event(now, "requeue", || {
                vec![
                    ("job", job.0.into()),
                    ("retry", retries.into()),
                    ("backoff_secs", backoff.into()),
                ]
            });
            self.queue.push(now + backoff, Event::Submit(idx));
        } else {
            let end_time = now.max(running.start_time + 1.0);
            self.retire(now, &running, end_time, ExitStatus::NodeFailure, Some(cause));
        }
    }

    /// Records a job's last attempt, `running`, ended at `end_time`
    /// with `exit`: its scheduler record (folded into `gpu_hours` and
    /// `hardware_failures`), what its telemetry epilog needs, and its
    /// fate. `cause` is the failure cause of that attempt, if any;
    /// without one the fate keeps the job's last injected cause.
    fn retire(
        &mut self,
        now: f64,
        running: &RunningJob,
        end_time: f64,
        exit: ExitStatus,
        cause: Option<FailureCause>,
    ) {
        let idx = running.trace_idx;
        let job = &self.jobs[idx];
        let prog = self.progress[idx];
        self.obs.event(now, "finish", || {
            vec![("job", job.job_id.0.into()), ("exit", exit.label().into())]
        });
        self.fates.push(JobFate {
            job_id: job.job_id,
            attempts: prog.attempts,
            injected_failures: prog.injected_failures,
            exit,
            last_cause: cause.or(prog.last_cause),
        });
        let record = SchedulerRecord {
            job_id: job.job_id,
            user: job.user,
            interface: job.interface,
            gpus_requested: job.gpus,
            cpus_requested: job.cpus,
            mem_requested_gib: job.mem_gib,
            submit_time: job.arrival,
            start_time: running.start_time,
            end_time,
            time_limit: job.time_limit,
            exit,
        };
        self.stats.gpu_hours += record.gpu_hours();
        if exit == ExitStatus::NodeFailure {
            self.stats.hardware_failures += 1;
        }
        self.records.push(record);
        self.completions.push(Completion { trace_idx: idx, cap_w: running.power_cap_w });
    }

    /// Posts one finished attempt to the goodput ledger and the
    /// per-size reliability accumulator. `failure` is the cause if an
    /// infrastructure failure ended the attempt; `None` means the work
    /// survived. Both see identical split values, so the per-size sums
    /// reconcile with the global totals.
    fn settle_attempt(&mut self, job: &JobSpec, elapsed: f64, failure: Option<FailureCause>) {
        let goodput = &mut self.goodput;
        let d = elapsed.max(0.0);
        let gpus = job.gpus as f64;
        let idle_g = job.idle_gpus.min(job.gpus) as f64;
        let active_g = gpus - idle_g;
        let mut idle = idle_g * d;
        goodput.allocated_gpu_secs += gpus * d;
        let (mut useful, lost) = match failure {
            None => (active_g * d, 0.0),
            Some(cause) => {
                let saved = self.sim.checkpoint_saved_wall(job, d);
                let lost = active_g * (d - saved);
                goodput.lost_by_cause_gpu_secs[cause.index()] += lost;
                goodput.deaths_by_cause[cause.index()] += 1;
                (active_g * saved, lost)
            }
        };
        // Completed checkpoint writes stall the active GPUs for
        // `write_secs` each — whether or not the attempt later failed —
        // so they are debited from useful into idle time. This is the
        // overhead side of the Young/Daly tradeoff: short intervals
        // bound lost work but pay more write stalls.
        if let Some(cp) = self.sim.config.checkpoint {
            if job.checkpointable && cp.interval_secs > 0.0 {
                let writes = (d / cp.interval_secs).floor() * cp.write_secs * active_g;
                let write = writes.min(useful);
                goodput.checkpoint_write_gpu_secs += write;
                useful -= write;
                idle += write;
            }
        }
        goodput.idle_gpu_secs += idle;
        goodput.useful_gpu_secs += useful;
        goodput.lost_gpu_secs += lost;
        self.reliability.settle_attempt(job.gpus, d, useful, lost, idle, failure.is_some());
    }

    /// Ends the replay: checks that every job terminated exactly once,
    /// then records the closing timeline point and `sim_end`.
    fn close(&mut self) {
        assert_eq!(self.scheduler.running_len(), 0, "all jobs must terminate");
        assert_eq!(self.scheduler.pending_len(), 0, "no job may be left queued");
        assert_eq!(self.fates.len(), self.jobs.len(), "every job must have exactly one fate");
        for j in self.jobs {
            self.reliability.observe_job(j.gpus);
        }
        let stats = self.stats;
        let end = sample(
            stats.makespan_secs,
            &self.scheduler,
            &self.cluster,
            &stats,
            self.requeue_backlog,
        );
        self.timeline.sample_final(end);
        self.obs.event(stats.makespan_secs, "sim_end", || {
            vec![
                ("events", stats.events.into()),
                ("injected_failures", stats.injected_failures.into()),
                ("absorbed_faults", stats.absorbed_faults.into()),
                ("requeues", stats.requeues.into()),
                ("checkpoint_restores", stats.checkpoint_restores.into()),
            ]
        });
        debug_assert!(
            self.goodput.balance_error() <= 1e-6 * self.goodput.allocated_gpu_secs.max(1.0),
            "goodput ledger out of balance: {:?}",
            self.goodput
        );
    }
}

/// The cluster state at `t`, as one timeline point.
fn sample(
    t: f64,
    scheduler: &Scheduler,
    cluster: &ClusterState,
    stats: &SimStats,
    requeue_backlog: u64,
) -> TimelineSample {
    TimelineSample {
        t,
        queued: scheduler.pending_len() as u64,
        running: scheduler.running_len() as u64,
        gpus_in_use: cluster.gpus_in_use() as u64,
        gpus_free: cluster.gpus_free() as u64,
        nodes_down: cluster.nodes_down() as u64,
        requeue_backlog,
        injected_failures: stats.injected_failures,
        checkpoint_restores: stats.checkpoint_restores,
    }
}

/// The failure cause attributed to a naturally-decided exit: the
/// trace's per-job hardware victims die to node hardware; every other
/// exit is user or queue behaviour, not an infrastructure death.
fn exit_cause(exit: ExitStatus) -> Option<FailureCause> {
    (exit == ExitStatus::NodeFailure).then_some(FailureCause::NodeHardware)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_workload::WorkloadSpec;

    fn run_small(seed: u64) -> (Trace, SimOutput) {
        let spec = WorkloadSpec::supercloud().scaled(0.01);
        let trace = Trace::generate(&spec, seed);
        let sim = Simulation::new(SimConfig { detailed_series_jobs: 60, ..Default::default() });
        let out = sim.run(&trace);
        (trace, out)
    }

    #[test]
    fn a_truth_that_does_not_reduce_is_left_out_of_the_detailed_subset() {
        use sc_workload::truth::Phase;
        use sc_workload::{GpuGroundTruth, PowerModel, ResourceLevels};
        let truth = |sm: f64, mem: f64| JobGroundTruth {
            gpus: vec![GpuGroundTruth::new(vec![Phase {
                start: 0.0,
                len: 60.0,
                active: true,
                levels: ResourceLevels { sm, mem, mem_size: 30.0, ..Default::default() },
                wave_frac: 0.0,
                wave_period: 1.0,
                wave_shift: 0.0,
                spikes: Vec::new(),
            }])],
            power: PowerModel::v100(),
        };
        let id = JobId(7);
        let stats = detail_stats(id, &truth(50.0, 20.0), 60.0).expect("finite levels reduce");
        assert_eq!((stats.job_id, stats.phases.active_fraction), (id, 1.0));
        // A non-finite SM level fails the segmentation, a non-finite
        // memory level the active-phase CoV, and a zero-length run has
        // no tick at all: none of them panics.
        assert_eq!(detail_stats(id, &truth(f64::NAN, 20.0), 60.0), None);
        assert_eq!(detail_stats(id, &truth(50.0, f64::INFINITY), 60.0), None);
        assert_eq!(detail_stats(id, &truth(50.0, 20.0), 0.0), None);
    }

    #[test]
    fn every_job_terminates_exactly_once() {
        let (trace, out) = run_small(1);
        assert_eq!(out.dataset.funnel().total_jobs, trace.jobs().len());
        // Records are unique by job id.
        let mut ids: Vec<u64> = out.dataset.records().iter().map(|r| r.sched.job_id.0).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn starts_never_precede_submission() {
        let (_, out) = run_small(2);
        for r in out.dataset.records() {
            assert!(r.sched.start_time >= r.sched.submit_time - 1e-9);
            assert!(r.sched.end_time > r.sched.start_time);
            assert!(r.sched.run_time() <= r.sched.time_limit + 1e-6);
        }
    }

    #[test]
    fn gpu_capacity_never_exceeded() {
        let (_, out) = run_small(3);
        assert!(out.stats.peak_gpus_in_use <= 448);
        assert!(out.stats.gpu_hours > 0.0);
    }

    #[test]
    fn exit_statuses_cover_all_lifecycles() {
        let (_, out) = run_small(4);
        let mut seen = std::collections::HashSet::new();
        for r in out.dataset.records() {
            seen.insert(r.sched.exit);
        }
        assert!(seen.contains(&ExitStatus::Completed));
        assert!(seen.contains(&ExitStatus::Cancelled));
        assert!(seen.contains(&ExitStatus::Failed));
        assert!(seen.contains(&ExitStatus::Timeout));
    }

    #[test]
    fn hardware_failures_are_rare() {
        let (_, out) = run_small(5);
        let frac = out.stats.hardware_failures as f64 / out.dataset.funnel().total_jobs as f64;
        assert!(frac < 0.02, "hardware failure fraction {frac}");
    }

    #[test]
    fn detailed_subset_collected() {
        let (_, out) = run_small(6);
        assert!(!out.detailed.is_empty(), "detailed subset must not be empty");
        for d in &out.detailed {
            assert!((0.0..=1.0).contains(&d.phases.active_fraction));
        }
    }

    #[test]
    fn ide_jobs_timeout_on_interactive_interface() {
        let (_, out) = run_small(7);
        let ide_like = out
            .dataset
            .records()
            .iter()
            .filter(|r| {
                r.sched.exit == ExitStatus::Timeout
                    && r.sched.interface == sc_telemetry::record::SubmissionInterface::Interactive
            })
            .count();
        assert!(ide_like > 0, "expected some interactive timeouts (IDE jobs)");
    }

    #[test]
    fn slow_tier_hosts_interactive_jobs_and_stretches_work() {
        use crate::spec::SlowTierSpec;
        let spec = WorkloadSpec::supercloud().scaled(0.01);
        let trace = Trace::generate(&spec, 2_024);
        let mut cluster = ClusterSpec::supercloud();
        cluster.slow_tier = Some(SlowTierSpec { nodes: 32, speed: 0.5 });
        let tiered =
            Simulation::new(SimConfig { cluster, detailed_series_jobs: 0, ..Default::default() })
                .run(&trace);
        let flat = Simulation::new(SimConfig { detailed_series_jobs: 0, ..Default::default() })
            .run(&trace);
        // Interactive jobs landed on the tier.
        assert!(tiered.stats.slow_tier_jobs > 0, "no jobs routed to slow tier");
        assert_eq!(flat.stats.slow_tier_jobs, 0);
        // Non-interactive run times are untouched; interactive,
        // non-timeout runs stretch (timeouts are reaped at the same
        // wall-clock limit either way).
        let runtimes = |out: &SimOutput| -> std::collections::HashMap<u64, (f64, bool)> {
            out.dataset
                .records()
                .iter()
                .map(|r| {
                    (
                        r.sched.job_id.0,
                        (
                            r.sched.run_time(),
                            r.sched.interface
                                == sc_telemetry::record::SubmissionInterface::Interactive,
                        ),
                    )
                })
                .collect()
        };
        let a = runtimes(&tiered);
        let b = runtimes(&flat);
        let mut stretched = 0;
        for (id, (rt_tiered, interactive)) in &a {
            let (rt_flat, _) = b[id];
            if *interactive {
                assert!(*rt_tiered >= rt_flat - 1e-6, "interactive job {id} sped up");
                if *rt_tiered > rt_flat + 1.0 {
                    stretched += 1;
                }
            } else {
                assert!(
                    (*rt_tiered - rt_flat).abs() < 1e-6,
                    "fast-tier job {id} changed: {rt_tiered} vs {rt_flat}"
                );
            }
        }
        assert!(stretched > 0, "no interactive job stretched");
    }

    #[test]
    fn node_failures_kill_residents_and_nodes_recover() {
        let spec = WorkloadSpec::supercloud().scaled(0.01);
        let trace = Trace::generate(&spec, 77);
        let sim = Simulation::new(SimConfig {
            detailed_series_jobs: 0,
            // Aggressive MTBF so the 125-day window sees many failures
            // even at 1% job scale.
            failures: Some(FailureModel::nodes_only(3_000_000.0, 4.0 * 3600.0, 5)),
            ..Default::default()
        });
        let out = sim.run(&trace);
        // Every job still terminates exactly once.
        assert_eq!(out.dataset.funnel().total_jobs, trace.jobs().len());
        assert_eq!(out.fates.len(), trace.jobs().len());
        assert!(out.stats.injected_failures > 0, "no failures injected");
        // The retry policy requeued victims, and most of them survived:
        // terminal node-failure deaths stay rare.
        assert!(out.stats.requeues > 0, "no victims were requeued");
        assert!(out.fates.iter().any(|f| f.attempts > 1 && f.exit != ExitStatus::NodeFailure));
        let node_deaths = out
            .dataset
            .records()
            .iter()
            .filter(|r| r.sched.exit == ExitStatus::NodeFailure)
            .count();
        let frac = node_deaths as f64 / out.dataset.funnel().total_jobs as f64;
        assert!(frac < 0.1, "node failures dominate: {frac}");
        // The goodput ledger balances and attributes the losses.
        assert!(out.goodput.lost_gpu_secs > 0.0);
        assert!(
            out.goodput.balance_error() <= 1e-6 * out.goodput.allocated_gpu_secs,
            "ledger imbalance: {:?}",
            out.goodput
        );
        assert_eq!(
            out.goodput.deaths_by_cause[FailureCause::NodeHardware.index()],
            out.goodput.total_deaths(),
            "nodes-only model must attribute everything to node hardware"
        );
        // Determinism holds with failures enabled.
        let out2 = sim.run(&trace);
        assert_eq!(out.dataset.records().len(), out2.dataset.records().len());
        assert_eq!(out.stats, out2.stats);
        assert_eq!(out.fates, out2.fates);
        assert_eq!(out.goodput, out2.goodput);
    }

    #[test]
    fn full_taxonomy_attributes_losses_per_cause() {
        let spec = WorkloadSpec::supercloud().scaled(0.01);
        let trace = Trace::generate(&spec, 21);
        let sim = Simulation::new(SimConfig {
            detailed_series_jobs: 0,
            failures: Some(FailureModel::supercloud(9).scaled_mtbf(0.05)),
            ..Default::default()
        });
        let out = sim.run(&trace);
        assert_eq!(out.fates.len(), trace.jobs().len());
        assert!(out.stats.injected_failures > 0);
        // With all three classes at stress rates, at least two causes
        // should claim victims over a 125-day window.
        let active_causes = out.goodput.deaths_by_cause.iter().filter(|&&d| d > 0).count();
        assert!(active_causes >= 2, "deaths: {:?}", out.goodput.deaths_by_cause);
        assert!(out.goodput.balance_error() <= 1e-6 * out.goodput.allocated_gpu_secs);
    }

    #[test]
    fn checkpointing_converts_lost_work_into_useful_work() {
        let spec = WorkloadSpec::supercloud().scaled(0.01);
        let trace = Trace::generate(&spec, 42);
        let failures = Some(FailureModel::supercloud(3).scaled_mtbf(0.05));
        let base = Simulation::new(SimConfig {
            detailed_series_jobs: 0,
            failures: failures.clone(),
            ..Default::default()
        })
        .run(&trace);
        let ckpt = Simulation::new(SimConfig {
            detailed_series_jobs: 0,
            failures,
            checkpoint: Some(CheckpointPolicy { interval_secs: 1800.0, write_secs: 30.0 }),
            ..Default::default()
        })
        .run(&trace);
        assert!(base.goodput.lost_gpu_secs > 0.0);
        assert!(
            ckpt.goodput.lost_gpu_secs < base.goodput.lost_gpu_secs,
            "checkpointing must reduce lost work: {} vs {}",
            ckpt.goodput.lost_gpu_secs,
            base.goodput.lost_gpu_secs
        );
        assert!(ckpt.goodput.checkpoint_write_gpu_secs > 0.0);
        assert!(ckpt.goodput.balance_error() <= 1e-6 * ckpt.goodput.allocated_gpu_secs);
    }

    #[test]
    fn reliability_stats_reconcile_with_the_goodput_ledger() {
        let spec = WorkloadSpec::supercloud().scaled(0.01);
        let trace = Trace::generate(&spec, 17);
        let sim = Simulation::new(SimConfig {
            detailed_series_jobs: 0,
            failures: Some(FailureModel::supercloud(9).scaled_mtbf(0.05)),
            ..Default::default()
        });
        let out = sim.run(&trace);
        let rel = &out.reliability;
        assert_eq!(rel.buckets.len(), SIZE_BUCKET_EDGES.len() + 1);
        // Every job counted once; attempts >= jobs (restarts only add).
        assert_eq!(rel.total(|b| b.jobs as f64) as usize, trace.jobs().len());
        let attempts: u64 = rel.buckets.iter().map(|b| b.attempts).sum();
        let expected: u64 = out.fates.iter().map(|f| u64::from(f.attempts)).sum();
        assert_eq!(attempts, expected);
        // Failure counts agree with the goodput ledger's deaths.
        assert_eq!(rel.total_failures(), out.goodput.total_deaths());
        // Per-size sums reconcile with the global ledger (same floats,
        // so tolerance only covers summation order).
        let tol = 1e-6 * out.goodput.allocated_gpu_secs.max(1.0);
        assert!((rel.total(|b| b.exposed_gpu_secs) - out.goodput.allocated_gpu_secs).abs() < tol);
        assert!((rel.total(|b| b.useful_gpu_secs) - out.goodput.useful_gpu_secs).abs() < tol);
        assert!((rel.total(|b| b.lost_gpu_secs) - out.goodput.lost_gpu_secs).abs() < tol);
        assert!((rel.total(|b| b.idle_gpu_secs) - out.goodput.idle_gpu_secs).abs() < tol);
        for (i, b) in rel.buckets.iter().enumerate() {
            assert!(b.balance_error() < tol, "bucket {i} ledger imbalance");
        }
        // Requeues produced recoveries with a sane ETTR: at least the
        // base backoff plus scheduler latency.
        let recoveries: u64 = rel.buckets.iter().map(|b| b.recoveries).sum();
        assert!(recoveries > 0, "expected kill-to-restart recoveries");
        assert!(recoveries <= out.stats.requeues);
        for b in rel.buckets.iter().filter(|b| b.recoveries > 0) {
            assert!(b.ettr_secs().unwrap() >= 60.0, "ETTR below base backoff");
        }
        // Rendering is pure text and deterministic across runs.
        assert_eq!(out.reliability.render(), sim.run(&trace).reliability.render());
    }

    #[test]
    fn custom_size_bucket_edges_flow_into_the_accumulator() {
        let spec = WorkloadSpec::supercloud().scaled(0.005);
        let trace = Trace::generate(&spec, 23);
        let out = Simulation::new(SimConfig {
            detailed_series_jobs: 0,
            size_bucket_edges: vec![4],
            ..Default::default()
        })
        .run(&trace);
        assert_eq!(out.reliability.buckets.len(), 2);
        assert_eq!(out.reliability.label(0), "0-4 GPU");
        assert_eq!(out.reliability.label(1), ">4 GPU");
        assert_eq!(out.reliability.total(|b| b.jobs as f64) as usize, trace.jobs().len());
    }

    #[test]
    fn disabled_model_keeps_goodput_ledger_clean() {
        let (_, out) = run_small(11);
        assert_eq!(out.stats.injected_failures, 0);
        assert_eq!(out.stats.requeues, 0);
        assert!(out.fates.iter().all(|f| f.attempts == 1 && f.injected_failures == 0));
        // Only the trace's own hardware victims register as losses.
        assert_eq!(
            out.goodput.total_deaths() as usize,
            out.stats.hardware_failures,
            "without injection, deaths are exactly the trace victims"
        );
        assert!(out.goodput.balance_error() <= 1e-6 * out.goodput.allocated_gpu_secs);
    }

    #[test]
    fn output_is_identical_across_thread_budgets() {
        // The deterministic-parallelism rule: the batch telemetry
        // synthesis must produce the same records, detailed subset, and
        // stats (including order-sensitive float sums) on 1 thread and
        // on many.
        let spec = WorkloadSpec::supercloud().scaled(0.005);
        let trace = Trace::generate(&spec, 31);
        let sim = Simulation::new(SimConfig { detailed_series_jobs: 30, ..Default::default() });
        let saved = sc_par::current_threads();
        sc_par::set_max_threads(1);
        let (single, timings) = sim.run_timed(&trace);
        sc_par::set_max_threads(4);
        let multi = sim.run(&trace);
        sc_par::set_max_threads(saved);
        assert_eq!(single.dataset.records(), multi.dataset.records());
        assert_eq!(single.detailed, multi.detailed);
        assert_eq!(single.stats, multi.stats);
        assert!(timings.event_loop_secs >= 0.0 && timings.telemetry_secs >= 0.0);
    }

    #[test]
    fn observed_run_emits_records_without_changing_output() {
        use sc_obs::{RingSink, TraceLevel};
        let spec = WorkloadSpec::supercloud().scaled(0.005);
        let trace = Trace::generate(&spec, 13);
        let sim = Simulation::new(SimConfig {
            detailed_series_jobs: 0,
            failures: Some(FailureModel::supercloud(6).scaled_mtbf(0.05)),
            checkpoint: Some(CheckpointPolicy { interval_secs: 1800.0, write_secs: 30.0 }),
            ..Default::default()
        });
        let plain = sim.run(&trace);
        let ring = RingSink::new(TraceLevel::Events, 1_000_000);
        let (observed, _) = sim.run_observed(&trace, &Obs::new(&ring), None);
        assert_eq!(plain.stats, observed.stats);
        assert_eq!(plain.fates, observed.fates);
        assert_eq!(plain.goodput, observed.goodput);
        assert_eq!(plain.timeline, observed.timeline);
        let records = ring.records();
        assert!(!records.is_empty());
        let names: std::collections::HashSet<&str> = records.iter().map(|r| r.name).collect();
        for expected in ["submit", "attempt", "finish", "fault", "kill", "requeue", "sim_end"] {
            assert!(names.contains(expected), "missing {expected} in {names:?}");
        }
        // Records arrive in event order: sim time never goes backwards.
        for pair in records.windows(2) {
            assert!(pair[1].t >= pair[0].t - 1e-9);
        }
        // The timeline saw the whole run and its counters are coherent.
        let last = *observed.timeline.samples().last().unwrap();
        assert_eq!(last.injected_failures, observed.stats.injected_failures);
        assert_eq!(last.checkpoint_restores, observed.stats.checkpoint_restores);
        assert_eq!(last.queued, 0);
        assert_eq!(last.running, 0);
        assert!(observed.stats.checkpoint_restores > 0, "checkpoint restores must register");
    }

    #[test]
    fn deterministic_output() {
        let (_, a) = run_small(8);
        let (_, b) = run_small(8);
        assert_eq!(a.dataset.records().len(), b.dataset.records().len());
        for (ra, rb) in a.dataset.records().iter().zip(b.dataset.records()) {
            assert_eq!(ra.sched, rb.sched);
        }
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn gpu_jobs_wait_less_than_cpu_jobs() {
        let (_, out) = run_small(9);
        let gpu_waits: Vec<f64> = out.dataset.gpu_jobs().map(|r| r.sched.queue_wait()).collect();
        let cpu_waits: Vec<f64> = out.dataset.cpu_jobs().map(|r| r.sched.queue_wait()).collect();
        assert!(!gpu_waits.is_empty() && !cpu_waits.is_empty());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        // The paper's headline scheduling result, directionally: GPU
        // jobs clear the queue at (or near) the scheduler latency.
        assert!(
            mean(&gpu_waits) <= mean(&cpu_waits) + 5.0,
            "gpu mean wait {} vs cpu {}",
            mean(&gpu_waits),
            mean(&cpu_waits)
        );
        let median = |v: &[f64]| {
            let mut s = v.to_vec();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s[s.len() / 2]
        };
        assert!(median(&gpu_waits) <= 10.0, "gpu median wait {}", median(&gpu_waits));
    }
}
