//! Reliability-accounting invariants: for any failure profile, seed,
//! size mix, and bucket-edge list, the per-size-class ledger balances
//! (`useful + lost + idle == exposed` GPU-seconds per bucket), the
//! class sums reconcile with the global goodput ledger, and the
//! derived ETTF/failure-rate metrics are consistent with the raw
//! exposure sums they were computed from.
//!
//! Each case runs its own small failure-injected simulation (0.4%
//! scale), so the case count is deliberately modest.

use proptest::prelude::*;
use sc_repro::prelude::*;

/// The non-off failure profiles the properties sweep.
const PROFILES: [&str; 3] = ["supercloud", "stress", "transient"];

/// Bucket-edge lists the properties sweep: canonical, coarse, shifted,
/// and fine.
const EDGE_SETS: [&[u32]; 4] = [&[1, 2, 8], &[4], &[2, 8, 32], &[1, 2, 4, 8, 16]];

/// One failure-injected run with a configurable size mix and bucket
/// edges. MTBF is scaled down so even the mild profiles actually fire
/// at this scale.
fn run_case(profile: &str, seed: u64, gpu_job_fraction: f64, edges: &[u32]) -> SimOutput {
    let mut spec = WorkloadSpec::supercloud().scaled(0.004);
    spec.users = 16;
    spec.gpu_job_fraction = gpu_job_fraction;
    let trace = Trace::generate(&spec, seed);
    let model = FailureModel::profile(profile, seed)
        .expect("profile name from the registry")
        .expect("non-off profile")
        .scaled_mtbf(0.05);
    Simulation::new(SimConfig {
        detailed_series_jobs: 0,
        failures: Some(model),
        checkpoint: Some(CheckpointPolicy { interval_secs: 1_800.0, write_secs: 30.0 }),
        size_bucket_edges: edges.to_vec(),
        ..Default::default()
    })
    .run(&trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole ledger identity, per size class: every allocated
    /// GPU-second an attempt exposed is attributed to exactly one of
    /// useful / lost / idle within its job's bucket, for any profile,
    /// seed, GPU-job mix, and bucket-edge list.
    #[test]
    fn per_size_class_ledger_balances_for_any_profile_seed_and_mix(
        profile_idx in 0usize..PROFILES.len(),
        edges_idx in 0usize..EDGE_SETS.len(),
        seed in 0u64..100_000,
        gpu_job_fraction in 0.2f64..0.9,
    ) {
        let profile = PROFILES[profile_idx];
        let edges = EDGE_SETS[edges_idx];
        let out = run_case(profile, seed, gpu_job_fraction, edges);
        let rel = &out.reliability;

        prop_assert_eq!(rel.buckets.len(), edges.len() + 1);
        for (i, b) in rel.buckets.iter().enumerate() {
            let tol = 1e-6 * b.exposed_gpu_secs.max(1.0);
            prop_assert!(
                b.balance_error() <= tol,
                "{profile} seed {seed} bucket {} ({}): useful {} + lost {} + idle {} vs exposed {}",
                i,
                rel.label(i),
                b.useful_gpu_secs,
                b.lost_gpu_secs,
                b.idle_gpu_secs,
                b.exposed_gpu_secs
            );
        }

        // Class sums reconcile with the global goodput ledger, whatever
        // the edge list (re-bucketing moves work between classes but
        // never creates or destroys it).
        let tol = 1e-6 * out.goodput.allocated_gpu_secs.max(1.0);
        prop_assert!((rel.total(|b| b.exposed_gpu_secs) - out.goodput.allocated_gpu_secs).abs() <= tol);
        prop_assert!((rel.total(|b| b.useful_gpu_secs) - out.goodput.useful_gpu_secs).abs() <= tol);
        prop_assert!((rel.total(|b| b.lost_gpu_secs) - out.goodput.lost_gpu_secs).abs() <= tol);
        prop_assert!((rel.total(|b| b.idle_gpu_secs) - out.goodput.idle_gpu_secs).abs() <= tol);
        prop_assert_eq!(rel.total_failures(), out.goodput.total_deaths());
    }

    /// Derived-metric consistency: ETTF times failure count recovers
    /// the class's exposed wall-clock exactly, and the per-1k-GPU-days
    /// rate times exposed GPU-days recovers the failure count — the
    /// derived metrics never drift from the raw sums they summarize.
    #[test]
    fn ettf_and_failure_rate_track_raw_exposure(
        profile_idx in 0usize..PROFILES.len(),
        seed in 0u64..100_000,
    ) {
        let profile = PROFILES[profile_idx];
        let out = run_case(profile, seed, 0.55, &[1, 2, 8]);
        let mut saw_failure = false;
        for b in &out.reliability.buckets {
            if let Some(ettf) = b.ettf_secs() {
                saw_failure = true;
                let recovered = ettf * b.failures as f64;
                prop_assert!(
                    (recovered - b.exposed_wall_secs).abs() <= 1e-6 * b.exposed_wall_secs.max(1.0),
                    "{profile} seed {seed}: ettf {ettf} x {} failures = {recovered} vs wall {}",
                    b.failures,
                    b.exposed_wall_secs
                );
            }
            let rate = b.failures_per_1k_gpu_days();
            if rate > 0.0 {
                let gpu_days = b.exposed_gpu_secs / 86_400.0;
                let recovered = rate * gpu_days / 1000.0;
                prop_assert!(
                    (recovered - b.failures as f64).abs() <= 1e-6 * (b.failures as f64).max(1.0),
                    "{profile} seed {seed}: rate {rate} over {gpu_days} gpu-days vs {} failures",
                    b.failures
                );
            }
            if let Some(ettr) = b.ettr_secs() {
                prop_assert!(ettr >= 0.0 && ettr.is_finite());
            }
        }
        // The scaled models fire at this scale; if that ever regresses
        // the properties above would pass vacuously.
        prop_assert!(saw_failure, "{profile} seed {seed}: no bucket saw a failure");
    }
}

/// Deterministic rendering outside proptest: the per-size table is a
/// pure function of (trace, config), so two identical runs render
/// byte-identical text.
#[test]
fn reliability_render_is_reproducible() {
    let a = run_case("stress", 42, 0.55, &[1, 2, 8]);
    let b = run_case("stress", 42, 0.55, &[1, 2, 8]);
    assert_eq!(a.reliability.render(), b.reliability.render());
    assert_eq!(a.reliability, b.reliability);
}

/// Metamorphic identity: a growth factor of 1.0 is a plain replay of
/// the study's configuration — failures on, no checkpointing — whatever
/// arm the study replays beside it. The base config carries a
/// checkpoint policy, which the study must clear, and the default
/// detailed subset, which no study arm reads.
#[test]
fn growth_factor_one_equals_a_plain_replay() {
    let trace = Trace::generate(&WorkloadSpec::supercloud().scaled(0.004), 42);
    let base = SimConfig {
        checkpoint: Some(CheckpointPolicy { interval_secs: 1_800.0, write_secs: 30.0 }),
        ..Default::default()
    };
    let model = FailureModel::supercloud(42).scaled_mtbf(0.05);
    let (fig, _) = sc_repro::core::reliability::growth_study(&trace, &base, &model, &[1.0, 8.0]);
    let row = fig.expect("two growth rows").rows[0].clone();

    let cfg =
        SimConfig { failures: Some(model), checkpoint: None, detailed_series_jobs: 0, ..base };
    let out = Simulation::new(cfg.clone()).run(&trace);
    assert!(out.stats.injected_failures > 0, "no failure fired, so the identity is vacuous");
    let mut waits: Vec<f64> = out.dataset.records().iter().map(|r| r.sched.queue_wait()).collect();
    waits.sort_by(|a, b| a.partial_cmp(b).expect("finite waits"));
    assert_eq!(row.factor, 1.0);
    assert_eq!((row.nodes, row.gpus), (cfg.cluster.total_nodes(), cfg.cluster.total_gpus()));
    assert_eq!(row.median_wait_secs, waits[waits.len() / 2]);
    assert_eq!(row.mean_wait_secs, waits.iter().sum::<f64>() / waits.len() as f64);
    assert_eq!(row.goodput_fraction, out.goodput.goodput_fraction());
    assert_eq!(row.makespan_days, out.stats.makespan_secs / 86_400.0);
    assert_eq!(row.events, out.stats.events);
}
