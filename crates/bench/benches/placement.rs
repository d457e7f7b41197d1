//! The scheduler placement hot path, with and without the closed-loop
//! co-sharing policy.
//!
//! Each iteration replays the event loop's placement work over a
//! contended backlog: a fill pass packs the cluster solid, every started
//! job is dispatched and marked running (so EASY has a real shadow
//! time), and a second pass then probes the whole remaining queue for
//! backfill. The baseline arm runs the cluster's own packing; the
//! coshare arm additionally consults [`CosharePolicy`] on every probe —
//! slot scans, ground-truth synthesis, and pair-interference scoring
//! included, exactly as `Simulation::run_observed` would. The delta
//! between the two medians is the policy's placement overhead, which
//! `scripts/check_bench.py --placement` gates in CI.

use criterion::{criterion_group, criterion_main, Criterion};
use sc_bench::bench_trace;
use sc_cluster::{ClusterSpec, ClusterState, Policy, RunningJob, Scheduler};
use sc_policy::CosharePolicy;
use sc_workload::JobSpec;
use std::hint::black_box;

/// A GPU-job backlog large enough to leave a deep queue behind the fill
/// pass on the benchmark cluster.
const BACKLOG_JOBS: usize = 600;

/// Cluster deliberately an order of magnitude smaller than the backlog
/// (32 nodes = 64 GPUs) so the second pass runs fully contended.
fn bench_cluster_spec() -> ClusterSpec {
    let mut spec = ClusterSpec::supercloud();
    spec.nodes = 32;
    spec
}

fn backlog() -> Vec<JobSpec> {
    bench_trace().gpu_jobs().take(BACKLOG_JOBS).cloned().collect()
}

/// One fill pass plus one fully contended pass, mirroring the event
/// loop's schedule → dispatch → mark-running sequence. Returns the
/// number of started jobs so the optimizer cannot discard the work.
fn contended_passes(
    jobs: &[JobSpec],
    spec: &ClusterSpec,
    mut policy: Option<&mut (dyn Policy + '_)>,
) -> usize {
    let mut cluster = ClusterState::new(spec.clone());
    let mut sched = Scheduler::new();
    for i in 0..jobs.len() {
        sched.submit(i, 0.0);
    }
    let mut started = 0;
    for _ in 0..2 {
        let pass = sched.schedule(0.0, &mut cluster, jobs, policy.as_deref_mut());
        for (idx, alloc) in &pass.started {
            let job = &jobs[*idx];
            if let Some(p) = policy.as_deref_mut() {
                black_box(p.dispatch(job, alloc));
            }
            sched.mark_running(
                job.job_id,
                RunningJob {
                    trace_idx: *idx,
                    alloc: alloc.clone(),
                    start_time: 0.0,
                    estimated_end: job.time_limit,
                    stretch: 1.0,
                    power_cap_w: None,
                },
            );
        }
        started += pass.started.len();
    }
    started
}

fn bench_placement(c: &mut Criterion) {
    let mut g = c.benchmark_group("placement");
    g.sample_size(10);
    let jobs = backlog();
    let spec = bench_cluster_spec();
    g.bench_function("contended_pass_baseline", |b| {
        b.iter(|| black_box(contended_passes(&jobs, &spec, None)))
    });
    g.bench_function("contended_pass_coshare", |b| {
        // Fresh policy each iteration: host slots are consumed as guests
        // pair, and the event loop likewise starts every run empty.
        b.iter(|| {
            let mut p = CosharePolicy::default();
            black_box(contended_passes(&jobs, &spec, Some(&mut p)))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_placement);
criterion_main!(benches);
