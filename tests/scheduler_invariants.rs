//! Scheduler conservation laws under pressure: run the full trace on a
//! deliberately tiny cluster so the queue is always deep, and check the
//! invariants the resource accountant enforces.

use sc_repro::prelude::*;

fn pressured_sim() -> (Trace, SimOutput) {
    let mut spec = WorkloadSpec::supercloud().scaled(0.01);
    spec.users = 32;
    let trace = Trace::generate(&spec, 9_009);
    let mut cluster = ClusterSpec::supercloud();
    cluster.nodes = 16; // 32 GPUs for a workload sized for 448
    let sim =
        Simulation::new(SimConfig { cluster, detailed_series_jobs: 20, ..Default::default() });
    let out = sim.run(&trace);
    (trace, out)
}

#[test]
fn all_jobs_terminate_even_under_pressure() {
    let (trace, out) = pressured_sim();
    assert_eq!(out.dataset.funnel().total_jobs, trace.jobs().len());
    // Makespan extends beyond the trace window (the queue drains late)
    // but stays finite and every record is well-formed.
    for r in out.dataset.records() {
        assert!(r.sched.start_time.is_finite());
        assert!(r.sched.end_time > r.sched.start_time);
    }
}

#[test]
fn capacity_is_never_exceeded() {
    let (_, out) = pressured_sim();
    assert!(out.stats.peak_gpus_in_use <= 32, "peak {}", out.stats.peak_gpus_in_use);
    // A meaningful share of the tiny cluster is exercised. Full
    // saturation is *not* expected: conservative EASY backfill holds
    // GPUs open for blocked wide jobs (exactly the head-of-line
    // behaviour real schedulers trade against utilization).
    assert!(out.stats.peak_gpus_in_use >= 8, "peak {}", out.stats.peak_gpus_in_use);
}

#[test]
fn waits_grow_when_capacity_shrinks() {
    let (_, small) = pressured_sim();
    let mut spec = WorkloadSpec::supercloud().scaled(0.01);
    spec.users = 32;
    let trace = Trace::generate(&spec, 9_009);
    let big = Simulation::supercloud().run(&trace);
    let mean_wait = |out: &SimOutput| {
        let waits: Vec<f64> = out
            .dataset
            .records()
            .iter()
            .filter(|r| r.sched.is_gpu_job())
            .map(|r| r.sched.queue_wait())
            .collect();
        waits.iter().sum::<f64>() / waits.len() as f64
    };
    // The full cluster's mean wait is floored at the 3 s scheduler
    // latency, so the growth factor is bounded by pressure alone; 5× is
    // the robust directional bar (measured ≈7× on this trace).
    assert!(
        mean_wait(&small) > 5.0 * mean_wait(&big).max(1.0),
        "small-cluster mean wait {} vs full {}",
        mean_wait(&small),
        mean_wait(&big)
    );
}

#[test]
fn run_times_are_invariant_to_queueing() {
    // The same job runs for the same duration whether it waited or not:
    // queueing delays starts, never stretches execution.
    let mut spec = WorkloadSpec::supercloud().scaled(0.01);
    spec.users = 32;
    let trace = Trace::generate(&spec, 9_009);
    let (_, small) = pressured_sim();
    let big = Simulation::supercloud().run(&trace);
    let runtime_of = |out: &SimOutput| {
        let mut v: Vec<(u64, f64)> =
            out.dataset.records().iter().map(|r| (r.sched.job_id.0, r.sched.run_time())).collect();
        v.sort_by_key(|(id, _)| *id);
        v
    };
    for ((ida, ra), (idb, rb)) in runtime_of(&small).iter().zip(runtime_of(&big).iter()) {
        assert_eq!(ida, idb);
        assert!((ra - rb).abs() < 1e-6, "job {ida}: {ra} vs {rb}");
    }
}

#[test]
fn cpu_only_expansion_cuts_cpu_waits_without_touching_gpu_jobs() {
    // Sec. II's system evolution: adding CPU-only nodes absorbs the
    // full-node CPU campaigns. CPU waits must drop materially; GPU
    // waits are already at the scheduler latency and must stay there.
    let mut spec = WorkloadSpec::supercloud().scaled(0.02);
    spec.users = 48;
    let trace = Trace::generate(&spec, 3_141);
    let run = |cluster: ClusterSpec| {
        let out =
            Simulation::new(SimConfig { cluster, detailed_series_jobs: 0, ..Default::default() })
                .run(&trace);
        let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let cpu = mean(out.dataset.cpu_jobs().map(|r| r.sched.queue_wait()).collect());
        let gpu = mean(
            out.dataset
                .records()
                .iter()
                .filter(|r| r.sched.is_gpu_job())
                .map(|r| r.sched.queue_wait())
                .collect(),
        );
        (cpu, gpu)
    };
    let (cpu_base, gpu_base) = run(ClusterSpec::supercloud());
    let (cpu_exp, gpu_exp) = run(ClusterSpec::supercloud_expanded(128));
    assert!(cpu_exp < 0.7 * cpu_base, "CPU mean wait {cpu_exp} vs baseline {cpu_base}");
    assert!((gpu_exp - gpu_base).abs() < 5.0, "GPU waits moved: {gpu_base} → {gpu_exp}");
}

/// A 0.01-scale trace run under an aggressive failure model: node
/// hardware faults every few simulated minutes fleet-wide, so every
/// recovery path — absorption, requeue, cap exhaustion — is exercised.
fn violent_failure_sim() -> (Trace, SimOutput) {
    let mut spec = WorkloadSpec::supercloud().scaled(0.01);
    spec.users = 32;
    let trace = Trace::generate(&spec, 9_009);
    let sim = Simulation::new(SimConfig {
        detailed_series_jobs: 0,
        failures: Some(FailureModel::nodes_only(5.0e4, 600.0, 77)),
        checkpoint: Some(CheckpointPolicy { interval_secs: 1_800.0, write_secs: 30.0 }),
        ..Default::default()
    });
    let out = sim.run(&trace);
    (trace, out)
}

#[test]
fn double_failures_are_absorbed_and_every_job_terminates_exactly_once() {
    let (trace, out) = violent_failure_sim();
    assert!(out.stats.injected_failures > 0, "model must fire");
    // With failures every ~220 s fleet-wide and 10-minute repairs, some
    // faults must strike nodes that are already down or empty; those are
    // absorbed, never double-killing an attempt.
    assert!(out.stats.absorbed_faults > 0, "stats: {:?}", out.stats);
    // Exactly one accounting record and one fate per submitted job, no
    // matter how many attempts it took.
    assert_eq!(out.dataset.funnel().total_jobs, trace.jobs().len());
    assert_eq!(out.fates.len(), trace.jobs().len());
    let mut seen = std::collections::HashSet::new();
    for fate in &out.fates {
        assert!(seen.insert(fate.job_id), "job {:?} terminated twice", fate.job_id);
        assert!(fate.attempts >= 1);
    }
}

#[test]
fn requeued_jobs_recover_after_node_repair() {
    let (_, out) = violent_failure_sim();
    assert!(out.stats.requeues > 0, "stats: {:?}", out.stats);
    // Recovery works: some job lost an attempt to a node fault, was
    // requeued with backoff, and still finished with a normal exit.
    let recovered =
        out.fates.iter().filter(|f| f.attempts > 1 && f.exit == ExitStatus::Completed).count();
    assert!(recovered > 0, "no requeued job ever completed");
}

#[test]
fn retry_caps_are_exhausted_but_never_exceeded() {
    let (_, out) = violent_failure_sim();
    let retry = RetryPolicy::default();
    let exhausted = out
        .fates
        .iter()
        .filter(|f| f.exit == ExitStatus::NodeFailure && f.injected_failures > 0)
        .collect::<Vec<_>>();
    assert!(!exhausted.is_empty(), "under this barrage some job must run out of retries");
    for fate in &out.fates {
        // attempts = 1 + retries, and retries never exceed the policy cap.
        assert!(
            fate.attempts <= 1 + retry.max_retries,
            "job {:?} got {} attempts (cap {})",
            fate.job_id,
            fate.attempts,
            1 + retry.max_retries
        );
    }
}

#[test]
fn timeline_occupancy_accounts_for_every_gpu() {
    // 224 two-GPU nodes: at every sample each GPU is either held by an
    // allocation, free on an online node, or on a node under repair —
    // exactly one of the three.
    let (_, out) = violent_failure_sim();
    let samples = out.timeline.samples();
    assert!(samples.iter().any(|s| s.nodes_down > 0), "no sample saw a node under repair");
    for s in samples {
        assert_eq!(s.gpus_in_use + s.gpus_free + 2 * s.nodes_down, 448, "sample {s:?}");
    }
}

#[test]
fn gpu_seconds_never_leak_from_the_goodput_ledger() {
    // The ISSUE's balance criterion: useful + lost + idle == allocated,
    // with and without injection.
    let check = |out: &SimOutput, label: &str| {
        let g = &out.goodput;
        let total = g.useful_gpu_secs + g.lost_gpu_secs + g.idle_gpu_secs;
        assert!(
            (g.allocated_gpu_secs - total).abs() <= 1e-6 * g.allocated_gpu_secs.max(1.0),
            "{label}: allocated {} != useful {} + lost {} + idle {}",
            g.allocated_gpu_secs,
            g.useful_gpu_secs,
            g.lost_gpu_secs,
            g.idle_gpu_secs
        );
        assert!(g.allocated_gpu_secs > 0.0, "{label}: nothing was allocated");
    };
    let (_, clean) = pressured_sim();
    check(&clean, "no injection");
    assert_eq!(clean.stats.injected_failures, 0);
    // Without injection the only infrastructure deaths are the trace's
    // hardware victims, all attributed to the node-hardware bucket.
    assert_eq!(clean.goodput.lost_by_cause_gpu_secs[FailureCause::GpuXid.index()], 0.0);
    assert_eq!(clean.goodput.lost_by_cause_gpu_secs[FailureCause::InfraTransient.index()], 0.0);
    let (_, violent) = violent_failure_sim();
    check(&violent, "violent injection");
    assert!(violent.goodput.lost_gpu_secs > 0.0);
}

mod goodput_fuzz {
    //! Fuzz the goodput ledger: whatever failure model, checkpoint
    //! policy, and seed the strategy draws, the conservation laws must
    //! hold exactly. Each case is a full (small) simulation, so the
    //! case count is modest; the determinism of the vendored proptest
    //! keeps every draw reproducible.

    use super::*;
    use proptest::prelude::*;
    use proptest::strategy::weighted_bool;

    fn fuzzed_sim(seed: u64, mtbf_factor: f64, nodes_only: bool, checkpoint: bool) -> SimOutput {
        let mut spec = WorkloadSpec::supercloud().scaled(0.005);
        spec.users = 24;
        let trace = Trace::generate(&spec, seed);
        let failures = if nodes_only {
            // mtbf_factor in (0, 1] maps onto a fleet-wide MTBF of
            // 5e4..5e5 simulated seconds with ten-minute repairs.
            FailureModel::nodes_only(5.0e4 / mtbf_factor, 600.0, seed)
        } else {
            FailureModel::supercloud(seed).scaled_mtbf(mtbf_factor)
        };
        Simulation::new(SimConfig {
            detailed_series_jobs: 0,
            failures: Some(failures),
            checkpoint: checkpoint
                .then_some(CheckpointPolicy { interval_secs: 1_800.0, write_secs: 30.0 }),
            ..Default::default()
        })
        .run(&trace)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// useful + lost + idle == allocated, per-cause losses sum to
        /// the lost bucket, and per-cause deaths sum to the death
        /// total — for any failure model, seed, and checkpoint policy.
        #[test]
        fn prop_ledger_balances_under_any_failure_regime(
            seed in 0..100_000u64,
            mtbf_factor in 0.02..0.3f64,
            nodes_only in weighted_bool(0.3),
            checkpoint in weighted_bool(0.5),
        ) {
            let out = fuzzed_sim(seed, mtbf_factor, nodes_only, checkpoint);
            let g = &out.goodput;

            prop_assert!(g.allocated_gpu_secs > 0.0, "nothing was allocated");
            prop_assert!(
                g.balance_error() <= 1e-6 * g.allocated_gpu_secs,
                "ledger imbalance {} on allocated {}",
                g.balance_error(),
                g.allocated_gpu_secs,
            );

            let by_cause: f64 = g.lost_by_cause_gpu_secs.iter().sum();
            prop_assert!(
                (by_cause - g.lost_gpu_secs).abs() <= 1e-6 * g.lost_gpu_secs.max(1.0),
                "per-cause losses {} != lost bucket {}",
                by_cause,
                g.lost_gpu_secs,
            );

            let deaths: u64 = g.deaths_by_cause.iter().sum();
            prop_assert_eq!(deaths, g.total_deaths());

            // Every bucket is non-negative and checkpoint write stalls
            // are a subset of idle time (debited from useful at settle),
            // never a fourth bucket.
            for v in [g.useful_gpu_secs, g.lost_gpu_secs, g.idle_gpu_secs] {
                prop_assert!(v >= 0.0, "negative bucket in {g:?}");
            }
            prop_assert!(
                g.checkpoint_write_gpu_secs <= g.idle_gpu_secs + 1e-6,
                "checkpoint writes {} exceed idle {}",
                g.checkpoint_write_gpu_secs,
                g.idle_gpu_secs,
            );

            // Deaths only happen when the injector actually fired, and
            // lost time requires at least one death.
            if out.stats.injected_failures == 0 {
                prop_assert_eq!(g.total_deaths(), 0);
            }
            if g.lost_gpu_secs > 0.0 {
                prop_assert!(g.total_deaths() > 0, "lost time without a death: {g:?}");
            }
        }
    }
}

#[test]
fn fcfs_order_is_respected_for_equal_requests() {
    // Among single-GPU jobs (identical GPU footprint), a job submitted
    // strictly earlier must not start strictly later than one submitted
    // after it — backfill can only reorder jobs with different
    // resource/limit envelopes.
    let (_, out) = pressured_sim();
    let mut singles: Vec<_> = out
        .dataset
        .records()
        .iter()
        .filter(|r| r.sched.gpus_requested == 1 && r.sched.time_limit == 86_400.0)
        .collect();
    singles.sort_by(|a, b| a.sched.submit_time.partial_cmp(&b.sched.submit_time).unwrap());
    let mut violations = 0;
    for w in singles.windows(2) {
        // Same limits, same GPU need: cpu/mem differences can still let
        // a later job slip in, so allow a small violation budget.
        if w[1].sched.start_time + 1e-6 < w[0].sched.start_time {
            violations += 1;
        }
    }
    let frac = violations as f64 / singles.len().max(1) as f64;
    assert!(frac < 0.10, "FCFS violation fraction {frac}");
}

// Metamorphic identities: each pair of configurations below must
// replay to the same `SimOutput`, compared whole through its `Debug`
// rendering (every float at round-trip precision).

/// The identities' world: a 1%-scale, seed-42 trace.
fn identity_trace() -> Trace {
    Trace::generate(&WorkloadSpec::supercloud().scaled(0.01), 42)
}

/// Replays `trace` with a 20-job detailed subset under the given
/// failure model and checkpoint policy.
fn identity_run(
    trace: &Trace,
    failures: Option<FailureModel>,
    checkpoint: Option<CheckpointPolicy>,
) -> SimOutput {
    Simulation::new(SimConfig {
        detailed_series_jobs: 20,
        failures,
        checkpoint,
        ..Default::default()
    })
    .run(trace)
}

/// Asserts that two replays produced the same output, naming the first
/// place their `Debug` renderings part.
fn assert_same_output(a: &SimOutput, b: &SimOutput, identity: &str) {
    let (a, b) = (format!("{a:?}"), format!("{b:?}"));
    if let Some(at) = a.bytes().zip(b.bytes()).position(|(x, y)| x != y) {
        let near = |s: &str| {
            String::from_utf8_lossy(&s.as_bytes()[at.saturating_sub(120)..(at + 80).min(s.len())])
                .into_owned()
        };
        panic!("{identity}: outputs part at byte {at}:\n  {}\n  {}", near(&a), near(&b));
    }
    assert_eq!(a.len(), b.len(), "{identity}: one output is a prefix of the other");
}

#[test]
fn failure_model_without_classes_equals_failures_off() {
    let trace = identity_trace();
    let off = identity_run(&trace, None, None);
    assert!(!off.detailed.is_empty(), "the detailed subset must be exercised");
    let empty = FailureModel { classes: Vec::new(), ..FailureModel::supercloud(42) };
    assert_same_output(&identity_run(&trace, Some(empty), None), &off, "no failure classes");
}

#[test]
fn astronomically_long_mtbf_equals_failures_off() {
    let trace = identity_trace();
    let model = FailureModel::supercloud(42).scaled_mtbf(1e9);
    let cluster = ClusterSpec::supercloud();
    let horizon = trace.spec().duration_secs() * 1.2;
    assert!(
        model.schedule(cluster.total_nodes(), cluster.total_gpus(), horizon).is_empty(),
        "the model must never fire inside the horizon"
    );
    assert_same_output(
        &identity_run(&trace, Some(model), None),
        &identity_run(&trace, None, None),
        "MTBF x 1e9",
    );
}

#[test]
fn checkpoint_interval_beyond_the_horizon_equals_no_checkpointing() {
    let trace = identity_trace();
    let model = FailureModel::supercloud(42).scaled_mtbf(0.1);
    let never = CheckpointPolicy { interval_secs: 1e12, write_secs: 30.0 };
    let without = identity_run(&trace, Some(model.clone()), None);
    assert!(without.stats.requeues > 0, "failures must kill and requeue jobs");
    assert_same_output(
        &identity_run(&trace, Some(model), Some(never)),
        &without,
        "checkpoint interval 1e12 s",
    );
}

#[test]
fn two_replays_in_one_process_are_equal() {
    let trace = identity_trace();
    let sim = Simulation::new(SimConfig {
        detailed_series_jobs: 20,
        failures: Some(FailureModel::supercloud(42).scaled_mtbf(0.1)),
        checkpoint: Some(CheckpointPolicy { interval_secs: 3_600.0, write_secs: 30.0 }),
        ..Default::default()
    });
    let first = sim.run(&trace);
    assert!(first.stats.checkpoint_restores > 0, "checkpoint restores must be exercised");
    assert_same_output(&sim.run(&trace), &first, "second replay");
}
