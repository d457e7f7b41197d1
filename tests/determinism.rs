//! Seed determinism: the entire reproduction — trace, schedule,
//! telemetry, figures — is a pure function of (spec, seed).

use sc_repro::prelude::*;

fn run(seed: u64) -> (Trace, SimOutput) {
    let mut spec = WorkloadSpec::supercloud().scaled(0.01);
    spec.users = 32;
    let trace = Trace::generate(&spec, seed);
    let out =
        Simulation::new(SimConfig { detailed_series_jobs: 30, ..Default::default() }).run(&trace);
    (trace, out)
}

#[test]
fn identical_seeds_reproduce_bit_for_bit() {
    let (ta, a) = run(77);
    let (tb, b) = run(77);
    assert_eq!(ta.jobs(), tb.jobs());
    assert_eq!(a.dataset.records().len(), b.dataset.records().len());
    for (ra, rb) in a.dataset.records().iter().zip(b.dataset.records()) {
        assert_eq!(ra.sched, rb.sched);
        assert_eq!(ra.gpu, rb.gpu);
    }
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.detailed, b.detailed);
    // Rendered figures are textually identical.
    let fa = AnalysisReport::try_from_sim(&a).unwrap().render_text();
    let fb = AnalysisReport::try_from_sim(&b).unwrap().render_text();
    assert_eq!(fa, fb);
}

#[test]
fn different_seeds_differ() {
    let (ta, _) = run(1);
    let (tb, _) = run(2);
    assert_ne!(ta.jobs(), tb.jobs());
}

#[test]
fn ground_truth_regeneration_is_stable() {
    let (trace, _) = run(3);
    for job in trace.gpu_jobs().take(25) {
        let a = job.ground_truth().expect("gpu job");
        let b = job.ground_truth().expect("gpu job");
        assert_eq!(a, b, "job {} truth must be seed-stable", job.job_id);
    }
}

#[test]
fn figure_statistics_are_stable_across_reruns() {
    let (_, a) = run(4);
    let (_, b) = run(4);
    let va = gpu_views(&a.dataset);
    let vb = gpu_views(&b.dataset);
    let ua = user_stats(&va);
    let ub = user_stats(&vb);
    assert_eq!(ua, ub);
}

/// The N-thread side of the 1-vs-N comparisons. The CI determinism
/// matrix sets `SC_PAR_THREADS` to sweep budgets (1, 4, 8); local runs
/// fall back to 4.
fn alt_thread_budget() -> usize {
    std::env::var("SC_PAR_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(4)
}

/// The deterministic-parallelism rule, end to end: a 1-thread run and
/// an N-thread run must agree byte for byte on both the exported
/// Dataset JSON and the rendered figure text. Work is distributed
/// dynamically but merged in input order, so the thread budget can only
/// change wall time, never output.
#[test]
fn thread_budget_never_changes_output() {
    let saved = sc_repro::par::current_threads();

    sc_repro::par::set_max_threads(1);
    let (_, a) = run(5);
    let json_a = a.dataset.to_json();
    let text_a = AnalysisReport::try_from_sim(&a).unwrap().render_text();

    sc_repro::par::set_max_threads(alt_thread_budget());
    let (_, b) = run(5);
    let json_b = b.dataset.to_json();
    let text_b = AnalysisReport::try_from_sim(&b).unwrap().render_text();

    sc_repro::par::set_max_threads(saved);

    assert_eq!(json_a, json_b, "Dataset JSON must not depend on the thread budget");
    assert_eq!(text_a, text_b, "figure text must not depend on the thread budget");
    // The one-pass streaming summary folds the epilogs in input order,
    // so its rendered text obeys the same rule.
    assert_eq!(
        a.telemetry_summary.render(),
        b.telemetry_summary.render(),
        "streaming summary must not depend on the thread budget"
    );
    assert_eq!(
        sc_repro::core::StreamingTelemetryFig::try_compute(&a).unwrap().render(),
        sc_repro::core::StreamingTelemetryFig::try_compute(&b).unwrap().render(),
        "streaming cross-validation must not depend on the thread budget"
    );
}

/// The streaming engine under the batch contract: the detailed-subset
/// statistics the producers fold one tick at a time must equal — bit
/// for bit, not approximately — what the pre-streaming batch path
/// (materialize the full sample series, then aggregate) computes for
/// the same jobs, and the streamed one-pass aggregates must sit within
/// their documented error bounds of the materialized dataset.
#[test]
fn streamed_detail_stats_equal_batch_recomputation() {
    use sc_repro::telemetry::phases::{active_variability, phase_stats};
    use sc_repro::telemetry::GpuSampler;

    let (trace, out) = run(42);
    assert!(!out.detailed.is_empty(), "the detailed subset must be sampled");
    let sampler = GpuSampler::new();
    for d in &out.detailed {
        let job = trace
            .jobs()
            .iter()
            .find(|j| j.job_id == d.job_id)
            .expect("detailed stats always belong to a trace job");
        let truth = job.ground_truth().expect("detailed jobs are GPU jobs");
        let run_time = out
            .dataset
            .records()
            .iter()
            .find(|r| r.sched.job_id == d.job_id)
            .expect("detailed jobs pass the dataset filter")
            .sched
            .run_time();
        let series = sampler.sample_series(&truth, run_time);
        let phases = phase_stats(&series).expect("non-empty series");
        let variability = active_variability(&series).expect("finite series");
        assert_eq!(
            d.phases, phases,
            "job {}: streamed phase stats must be bit-identical",
            d.job_id
        );
        assert_eq!(
            d.variability, variability,
            "job {}: streamed variability must be bit-identical",
            d.job_id
        );
    }

    let fig = sc_repro::core::StreamingTelemetryFig::try_compute(&out).unwrap();
    assert!(fig.passes(), "streamed aggregates must honour their error bounds:\n{}", fig.render());
}

/// One failure-injected run at the current thread budget.
fn run_with_failures(seed: u64) -> SimOutput {
    let mut spec = WorkloadSpec::supercloud().scaled(0.01);
    spec.users = 32;
    let trace = Trace::generate(&spec, seed);
    Simulation::new(SimConfig {
        detailed_series_jobs: 30,
        failures: Some(FailureModel::supercloud(seed).scaled_mtbf(0.05)),
        checkpoint: Some(CheckpointPolicy { interval_secs: 1_800.0, write_secs: 30.0 }),
        ..Default::default()
    })
    .run(&trace)
}

/// A small failure-injected run traced at `TraceLevel::Events`,
/// returning the raw JSONL bytes. Deliberately tiny (0.2% scale, 10
/// days) so the golden file stays a few tens of kilobytes while still
/// exercising submits, faults, kills, requeues and checkpoint restores.
fn traced_jsonl(seed: u64) -> Vec<u8> {
    let mut spec = WorkloadSpec::supercloud().scaled(0.002);
    spec.users = 16;
    spec.duration_days = 10.0;
    let trace = Trace::generate(&spec, seed);
    let sim = Simulation::new(SimConfig {
        detailed_series_jobs: 10,
        failures: Some(FailureModel::supercloud(seed).scaled_mtbf(0.1)),
        checkpoint: Some(CheckpointPolicy { interval_secs: 1_800.0, write_secs: 30.0 }),
        ..Default::default()
    });
    let sink = JsonlSink::new(TraceLevel::Events, Vec::new());
    let (_out, _timings) = sim.run_observed(&trace, &Obs::new(&sink), None);
    sink.into_inner().expect("Vec<u8> writes cannot fail")
}

const GOLDEN_TRACE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/trace_scale0002_seed42.jsonl");

/// Golden-trace regression: the traced event stream for a fixed seed
/// must match the committed bytes exactly. Any intentional change to
/// the trace vocabulary, field order, or float formatting must
/// regenerate the golden file (set `SC_REGEN_GOLDEN=1` and rerun) and
/// justify the diff in review.
#[test]
fn golden_trace_matches_committed_bytes() {
    let bytes = traced_jsonl(42);
    assert!(!bytes.is_empty());
    if std::env::var("SC_REGEN_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_TRACE, &bytes).expect("write golden trace");
        return;
    }
    let golden = std::fs::read(GOLDEN_TRACE).expect("golden trace committed at tests/golden/");
    assert_eq!(
        bytes.len(),
        golden.len(),
        "trace length changed vs golden ({} vs {} bytes); regenerate with SC_REGEN_GOLDEN=1 \
         if intentional",
        bytes.len(),
        golden.len()
    );
    if bytes != golden {
        let line = bytes
            .split(|&b| b == b'\n')
            .zip(golden.split(|&b| b == b'\n'))
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        panic!("trace diverges from golden at line {}", line + 1);
    }
}

/// The trace stream itself obeys the deterministic-parallelism rule:
/// byte-identical JSONL at a 1-thread and an N-thread budget (the CI
/// matrix sweeps N over 1, 4, 8 via `SC_PAR_THREADS`).
#[test]
fn trace_bytes_identical_across_thread_budgets() {
    let saved = sc_repro::par::current_threads();

    sc_repro::par::set_max_threads(1);
    let a = traced_jsonl(42);
    sc_repro::par::set_max_threads(alt_thread_budget());
    let b = traced_jsonl(42);
    sc_repro::par::set_max_threads(saved);

    assert!(!a.is_empty());
    assert_eq!(a, b, "JSONL trace bytes must not depend on the thread budget");
}

/// The policy engine under the same rule: for every built-in policy the
/// A/B harness's dataset JSON and rendered delta figure must be
/// byte-identical between a 1-thread and an N-thread run (the CI matrix
/// sweeps N over 1, 4, 8 via `SC_PAR_THREADS`). Policies run on the
/// single-threaded event loop; only telemetry synthesis and analysis
/// fan out, and those merge in input order.
#[test]
fn policy_runs_are_deterministic_across_thread_budgets() {
    let mut spec = WorkloadSpec::supercloud().scaled(0.01);
    spec.users = 32;
    let trace = Trace::generate(&spec, 9);
    let run_all = || -> Vec<(String, String)> {
        [PolicySpec::PowerCap { cap_w: 250.0 }, PolicySpec::Coshare, PolicySpec::Tiered]
            .iter()
            .map(|&s| {
                let exp = PolicyExperiment::new(
                    SimConfig { detailed_series_jobs: 0, ..Default::default() },
                    s,
                );
                let r = exp.run(&trace).unwrap();
                (r.policy.dataset.to_json(), r.fig.render())
            })
            .collect()
    };

    let saved = sc_repro::par::current_threads();
    sc_repro::par::set_max_threads(1);
    let a = run_all();
    sc_repro::par::set_max_threads(alt_thread_budget());
    let b = run_all();
    sc_repro::par::set_max_threads(saved);

    for ((json_a, fig_a), (json_b, fig_b)) in a.iter().zip(&b) {
        assert_eq!(json_a, json_b, "policy-arm Dataset JSON must not depend on threads");
        assert_eq!(fig_a, fig_b, "PolicyAbFig text must not depend on threads");
    }
}

/// The data-quality subsystem under the same rule: the corrupt ->
/// ingest -> re-analyze round trip must be byte-identical between a
/// 1-thread and an N-thread run — corruption coins are hash-derived
/// from (job id, seed, fault class), repair walks the canonical order,
/// and the figure fan-out merges in slot order, so the thread budget
/// can only change wall time.
#[test]
fn data_quality_round_trip_is_deterministic_across_thread_budgets() {
    let run_dq = || {
        let (_, out) = run(11);
        let (ingested, injected) =
            corrupt_and_ingest(&out.dataset, DataQualityProfile::Lossy, 11, &Obs::off())
                .expect("lossy ingest succeeds");
        let (clean, recovered) = (&out.dataset, &ingested.dataset);
        let fig =
            DataQualityFig::compute("lossy", injected, ingested.report, clean, recovered, None)
                .expect("both pipelines");
        (ingested.dataset.to_json(), fig.render(), out.telemetry_summary)
    };

    let saved = sc_repro::par::current_threads();
    sc_repro::par::set_max_threads(1);
    let (json_a, fig_a, summary_a) = run_dq();
    sc_repro::par::set_max_threads(alt_thread_budget());
    let (json_b, fig_b, summary_b) = run_dq();
    sc_repro::par::set_max_threads(saved);

    assert_eq!(json_a, json_b, "repaired Dataset JSON must not depend on the thread budget");
    assert_eq!(fig_a, fig_b, "DataQualityFig text must not depend on the thread budget");
    assert!(fig_a.contains("ledger balanced: yes"), "the lossy ledger must balance");
    assert_eq!(
        summary_a.render(),
        summary_b.render(),
        "streaming summary under lossy ingest must not depend on the thread budget"
    );
}

const GOLDEN_LEDGER: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/ingest_ledger_lossy_seed42.txt");

/// Golden-ledger regression: the rendered ingest repair ledger for the
/// lossy profile at a fixed seed must match the committed bytes
/// exactly. Any intentional change to the fault taxonomy, repair
/// strategies, or ledger formatting must regenerate the golden file
/// (run `scripts/update_golden.sh`, or set `SC_REGEN_GOLDEN=1` and
/// rerun) and justify the diff in review.
#[test]
fn golden_ingest_ledger_matches_committed_bytes() {
    let (_, out) = run(42);
    let (ingested, injected) =
        corrupt_and_ingest(&out.dataset, DataQualityProfile::Lossy, 42, &Obs::off())
            .expect("lossy ingest succeeds");
    assert!(ingested.report.balances_against(&injected));
    let rendered = ingested.report.render();
    if std::env::var("SC_REGEN_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_LEDGER, &rendered).expect("write golden ledger");
        return;
    }
    let golden =
        std::fs::read_to_string(GOLDEN_LEDGER).expect("golden ledger committed at tests/golden/");
    assert_eq!(
        rendered, golden,
        "ingest ledger diverges from golden; regenerate with scripts/update_golden.sh if \
         intentional"
    );
}

const GOLDEN_SERIES_STUDY: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/series_study_lossy_seed42_n16.txt");

/// Golden series micro-study: 16 synthetic jobs drawn from one seeded
/// stream, sampled, corrupted under the lossy profile and repaired. The
/// `{:?}` form keeps every float at full precision, so a change to any
/// draw in `JobGroundTruth::generate` (which shifts every later job in
/// the stream) or to the series repair shows here. Regenerate with
/// `scripts/update_golden.sh` only for an intended change.
#[test]
fn golden_series_study_matches_committed_bytes() {
    let study =
        sc_repro::core::ingest::series_study(DataQualityProfile::Lossy, 42, 16, 1_800.0, 0.1)
            .expect("series study succeeds");
    let rendered = format!("{study:?}\n");
    if std::env::var("SC_REGEN_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_SERIES_STUDY, &rendered).expect("write golden series study");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_SERIES_STUDY)
        .expect("golden series study committed at tests/golden/");
    assert_eq!(
        rendered, golden,
        "series micro-study diverges from golden; regenerate with scripts/update_golden.sh if \
         intentional"
    );
}

const GOLDEN_SCENARIO_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");

/// Golden scenario summaries: the rendered summary of each committed
/// preset — name, content hash, cluster/workload/arrivals/failure
/// lines — must match the committed bytes exactly. The summary hash is
/// the serve cache-key dimension, so an unintentional drift here means
/// previously cached responses silently stop being addressable. Any
/// intentional change to a preset or to the summary format must
/// regenerate (run `scripts/update_golden.sh`, or set
/// `SC_REGEN_GOLDEN=1` and rerun) and justify the diff in review.
#[test]
fn golden_scenario_summaries_match_committed_bytes() {
    for name in Scenario::preset_names() {
        let sc = Scenario::preset(name).expect("embedded preset parses");
        let rendered = sc.render_summary();
        let path = format!("{GOLDEN_SCENARIO_DIR}/scenario_{name}.txt");
        if std::env::var("SC_REGEN_GOLDEN").is_ok() {
            std::fs::write(&path, &rendered).expect("write golden scenario summary");
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("golden summary committed at {path}: {e}"));
        assert_eq!(
            rendered, golden,
            "scenario summary for {name} diverges from golden; regenerate with \
             scripts/update_golden.sh if intentional"
        );
    }
}

/// One query service over a 1%-scale world at the current thread
/// budget. `threads` sizes both the sc_par pool consulted during the
/// build and the request executor.
fn build_service(threads: usize) -> std::sync::Arc<Service> {
    std::sync::Arc::new(Service::build(ServeConfig {
        scale: 0.01,
        seed: 13,
        threads,
        users_floor: 32,
        ..ServeConfig::default()
    }))
}

/// The serving layer under the same rule: every response on the
/// standard query surface — points, figures, policy A/B arms,
/// data-quality what-ifs — must be byte-identical between a 1-thread
/// and an N-thread service (the CI matrix sweeps N over 1, 4, 8 via
/// `SC_PAR_THREADS`), and byte-identical between the cold (uncached),
/// warm (cache hit), and executor-submitted paths of the same service.
/// The query trace digest the CI serve leg compares across runs is
/// exactly the fold of these bytes, so it is asserted too.
#[test]
fn served_responses_are_deterministic_across_thread_budgets() {
    use sc_repro::serve::Digest;

    let serve_all = |svc: &std::sync::Arc<Service>| -> (Vec<String>, String) {
        let mut digest = Digest::new();
        let bodies: Vec<String> = Query::standard_queries()
            .into_iter()
            .map(|q| {
                let body = svc.submit(q).wait().response.body;
                digest.update(body.as_bytes());
                (*body).clone()
            })
            .collect();
        (bodies, digest.hex())
    };

    let saved = sc_repro::par::current_threads();
    sc_repro::par::set_max_threads(1);
    let one = build_service(1);
    let (bodies_one, digest_one) = serve_all(&one);
    sc_repro::par::set_max_threads(alt_thread_budget());
    let alt = build_service(alt_thread_budget());
    let (bodies_alt, digest_alt) = serve_all(&alt);
    sc_repro::par::set_max_threads(saved);

    assert_eq!(bodies_one.len(), bodies_alt.len());
    for ((q, a), b) in Query::standard_queries().iter().zip(&bodies_one).zip(&bodies_alt) {
        assert_eq!(a, b, "response for {} must not depend on the thread budget", q.token());
    }
    assert_eq!(digest_one, digest_alt, "query-trace digest must not depend on the thread budget");

    // Cold, warm, and submitted answers of one service agree byte for
    // byte: the cache can only change latency, never content.
    for q in Query::standard_queries() {
        let cold = alt.query_uncached(&q);
        let warm = alt.query_blocking(&q);
        assert_eq!(cold, warm.body, "cold and warm bytes for {} must agree", q.token());
    }
}

/// The pool answers from job views its body built once and shares
/// across its workers; the calling thread builds its own. So every
/// standard query's submitted body must equal its uncached body, with
/// the cache on and with it off, on a pool of the CI matrix's size
/// (`SC_PAR_THREADS`). All requests are in flight at once, so the
/// workers read the shared views concurrently.
#[test]
fn submitted_bodies_equal_uncached_bodies() {
    for cache in [true, false] {
        let svc = std::sync::Arc::new(Service::build(ServeConfig {
            scale: 0.01,
            seed: 13,
            threads: alt_thread_budget(),
            users_floor: 32,
            cache,
            ..ServeConfig::default()
        }));
        let pending: Vec<_> =
            Query::standard_queries().into_iter().map(|q| (q, svc.submit(q))).collect();
        for (q, p) in pending {
            assert_eq!(
                p.wait().response.body,
                svc.query_uncached(&q),
                "pool and calling-thread bytes for {} (cache {cache})",
                q.token()
            );
        }
    }
}

/// Single-flight coalescing: concurrent identical requests for an
/// uncached heavy query must produce exactly one computation — every
/// other request waits for that flight or hits the filled cache — and
/// all of them the same bytes.
#[test]
fn concurrent_identical_queries_coalesce_onto_one_computation() {
    let svc = build_service(4);
    // A policy A/B arm re-simulates the trace twice, so the flight is
    // slow enough that the concurrent submissions genuinely overlap.
    let q = Query::parse("ab:coshare").expect("valid token");
    let before = svc.cache_stats();
    let pending: Vec<_> = (0..8).map(|_| svc.submit(q)).collect();
    let bodies: Vec<_> = pending.into_iter().map(|p| p.wait().response.body).collect();
    let delta = svc.cache_stats().since(&before);
    assert_eq!(delta.misses, 1, "one flight computes, the rest share: {delta:?}");
    assert_eq!(delta.hits + delta.coalesced, 7, "{delta:?}");
    for b in &bodies {
        assert_eq!(b, &bodies[0], "coalesced responses must share bytes");
    }
}

const GOLDEN_CLASSIFIER: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/classifier_confusion_scale001_seed42.txt"
);

/// One classifier evaluation over the standard 1%-scale world: train
/// the seeded forest with the stock [`ClassifierConfig`] and render the
/// confusion-matrix figure.
fn classifier_report(seed: u64) -> ClassifierFig {
    let mut spec = WorkloadSpec::supercloud().scaled(0.01);
    spec.users = 32;
    let trace = Trace::generate(&spec, seed);
    let (_, eval) = ArchetypePredictor::train(&trace, &ClassifierConfig::default());
    eval.to_fig()
}

/// Golden-classifier regression: the rendered confusion matrix for the
/// stock config at a fixed seed must match the committed bytes exactly.
/// The render covers the train/test split sizes, per-archetype
/// precision/recall, and both forest and centroid accuracy, so any
/// drift in features, split hashing, or tree training shows up here.
/// Intentional changes regenerate via `scripts/update_golden.sh` (or
/// `SC_REGEN_GOLDEN=1`) and justify the diff in review.
#[test]
fn golden_classifier_confusion_matches_committed_bytes() {
    let rendered = classifier_report(42).render();
    if std::env::var("SC_REGEN_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_CLASSIFIER, &rendered).expect("write golden classifier report");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_CLASSIFIER)
        .expect("golden classifier report committed at tests/golden/");
    assert_eq!(
        rendered, golden,
        "classifier confusion report diverges from golden; regenerate with \
         scripts/update_golden.sh if intentional"
    );
}

/// The learning subsystem under the deterministic-parallelism rule:
/// feature extraction fans out across jobs but merges in input order,
/// and the forest's bootstrap/feature draws are seeded per tree, so the
/// evaluation report — rendered text and SVG alike — must be
/// byte-identical between a 1-thread and an N-thread run (the CI
/// matrix sweeps N over 1, 4, 8 via `SC_PAR_THREADS`).
#[test]
fn classifier_training_is_deterministic_across_thread_budgets() {
    let saved = sc_repro::par::current_threads();
    sc_repro::par::set_max_threads(1);
    let a = classifier_report(7);
    sc_repro::par::set_max_threads(alt_thread_budget());
    let b = classifier_report(7);
    sc_repro::par::set_max_threads(saved);

    assert_eq!(a, b, "classifier evaluation must not depend on the thread budget");
    assert_eq!(a.render(), b.render(), "confusion report text must not depend on threads");
    assert_eq!(a.to_svg(), b.to_svg(), "confusion heatmap SVG must not depend on threads");
}

/// The closed loop under the same rule: the predicted-label co-share
/// arm trains a classifier, routes on its labels, and runs the oracle
/// arm beside it, and every artifact of that run — both policy-arm
/// dataset JSONs, both delta figures, and the embedded classifier
/// evaluation — must be byte-identical between a 1-thread and an
/// N-thread run.
#[test]
fn coshare_predicted_policy_is_deterministic_across_thread_budgets() {
    let mut spec = WorkloadSpec::supercloud().scaled(0.01);
    spec.users = 32;
    let trace = Trace::generate(&spec, 9);
    let run_predicted = || {
        let exp = PolicyExperiment::new(
            SimConfig { detailed_series_jobs: 0, ..Default::default() },
            PolicySpec::CosharePredicted,
        );
        let r = exp.run(&trace).unwrap();
        let oracle = r.oracle.as_ref().expect("predicted arm always runs its oracle twin");
        let oracle_fig = r.oracle_fig.as_ref().expect("oracle delta figure");
        let eval = r.classifier_eval.as_ref().expect("predicted arm trains a classifier");
        (
            r.policy.dataset.to_json(),
            oracle.dataset.to_json(),
            r.fig.render(),
            oracle_fig.render(),
            eval.to_fig().render(),
        )
    };

    let saved = sc_repro::par::current_threads();
    sc_repro::par::set_max_threads(1);
    let a = run_predicted();
    sc_repro::par::set_max_threads(alt_thread_budget());
    let b = run_predicted();
    sc_repro::par::set_max_threads(saved);

    assert_eq!(a.0, b.0, "predicted-arm Dataset JSON must not depend on threads");
    assert_eq!(a.1, b.1, "oracle-arm Dataset JSON must not depend on threads");
    assert_eq!(a.2, b.2, "predicted delta figure must not depend on threads");
    assert_eq!(a.3, b.3, "oracle delta figure must not depend on threads");
    assert_eq!(a.4, b.4, "embedded classifier evaluation must not depend on threads");
}

const GOLDEN_POLICY_ARMS: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/policy_arms_scale0005_seed42.txt");

/// One line per built-in policy arm: label, byte length and FNV-1a
/// digest of the arm's Events-level JSONL trace, over a failure-injected
/// world with checkpointing on. The trace records every admission,
/// decision (`cap_throttle`, `coshare_place`, `tier_route`), kill,
/// requeue and finish in event order, so the digest pins each arm's
/// decisions and its recovery path without committing the full traces.
fn policy_arm_digests(seed: u64) -> String {
    let mut spec = WorkloadSpec::supercloud().scaled(0.005);
    spec.users = 16;
    spec.duration_days = 20.0;
    let trace = Trace::generate(&spec, seed);
    let base = SimConfig {
        detailed_series_jobs: 10,
        failures: Some(FailureModel::supercloud(seed).scaled_mtbf(0.1)),
        checkpoint: Some(CheckpointPolicy { interval_secs: 1_800.0, write_secs: 30.0 }),
        ..Default::default()
    };
    let mut lines = String::new();
    for s in [PolicySpec::PowerCap { cap_w: 150.0 }, PolicySpec::Coshare, PolicySpec::Tiered] {
        let sink = JsonlSink::new(TraceLevel::Events, Vec::new());
        PolicyExperiment::new(base.clone(), s)
            .run_observed(&trace, &Obs::new(&sink))
            .expect("both arms produce records");
        let bytes = sink.into_inner().expect("Vec<u8> writes cannot fail");
        let digest = sc_repro::serve::fnv1a64(&bytes);
        lines.push_str(&format!("{} {} {digest:016x}\n", s.label(), bytes.len()));
    }
    lines
}

/// Golden policy-arm regression: each arm's decision trace under
/// failures must match the committed length and digest exactly. This
/// is the path the event loop's policy hooks (`admit`, `place`,
/// `dispatch`, `tick`, `release`) and its kill/requeue handling share,
/// so a reordering there shows up as a changed digest. Intentional
/// changes regenerate via `scripts/update_golden.sh` (or
/// `SC_REGEN_GOLDEN=1`) and justify the diff in review.
#[test]
fn golden_policy_arms_match_committed_digests() {
    let rendered = policy_arm_digests(42);
    if std::env::var("SC_REGEN_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_POLICY_ARMS, &rendered).expect("write golden policy arms");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_POLICY_ARMS)
        .expect("golden policy-arm digests committed at tests/golden/");
    assert_eq!(
        rendered, golden,
        "policy-arm traces diverge from golden; regenerate with scripts/update_golden.sh if \
         intentional"
    );
}

const GOLDEN_RELIABILITY: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/reliability_report_scale001_seed42.txt"
);

/// One reliability study over the standard 1%-scale world: a stressed
/// supercloud failure model, a two-point MTBF frontier, a three-point
/// Young/Daly sweep, and a 2x growth leg. Small enough to run in the
/// test suite, rich enough that every figure family renders rows.
fn reliability_study(seed: u64) -> ReliabilityReport {
    let mut spec = WorkloadSpec::supercloud().scaled(0.01);
    spec.users = 32;
    let trace = Trace::generate(&spec, seed);
    let base = SimConfig { detailed_series_jobs: 0, ..Default::default() };
    let model = FailureModel::supercloud(seed).scaled_mtbf(0.05);
    let cfg = ReliabilityConfig {
        mtbf_factors: vec![1.0, 0.2],
        sweep_points: 3,
        sweep_span: 2.0,
        growth_factors: vec![2.0],
        write_secs: 30.0,
    };
    run_reliability_study(&trace, &base, &model, &cfg)
}

/// Golden-reliability regression: the rendered reliability report —
/// per-size-class ETTF/ETTR table, goodput frontier, checkpoint sweep
/// with its Young/Daly verdicts, and the growth rows — for a fixed
/// seed must match the committed bytes exactly. Wall-clock timings are
/// excluded from the render by construction. Intentional changes
/// regenerate via `scripts/update_golden.sh` (or `SC_REGEN_GOLDEN=1`)
/// and justify the diff in review.
#[test]
fn golden_reliability_report_matches_committed_bytes() {
    let rendered = reliability_study(42).render();
    if std::env::var("SC_REGEN_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_RELIABILITY, &rendered).expect("write golden reliability report");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_RELIABILITY)
        .expect("golden reliability report committed at tests/golden/");
    assert_eq!(
        rendered, golden,
        "reliability report diverges from golden; regenerate with scripts/update_golden.sh if \
         intentional"
    );
}

/// The reliability study under the deterministic-parallelism rule: the
/// study's independent replays fan out one per worker, each replay's
/// accumulation happens on its own single-threaded event loop (with its
/// telemetry batch on the same worker), and results come back in input
/// order, so the rendered report must be byte-identical between a
/// 1-thread and an N-thread run (the CI matrix sweeps N over 1, 4, 8
/// via `SC_PAR_THREADS`).
#[test]
fn reliability_report_is_deterministic_across_thread_budgets() {
    let saved = sc_repro::par::current_threads();
    sc_repro::par::set_max_threads(1);
    let a = reliability_study(7);
    sc_repro::par::set_max_threads(alt_thread_budget());
    let b = reliability_study(7);
    sc_repro::par::set_max_threads(saved);

    assert_eq!(a.render(), b.render(), "reliability report must not depend on the thread budget");
}

/// The failure subsystem under the same rule: the failure schedule,
/// every requeue decision (job fates), the goodput ledger, and the
/// rendered figures must be byte-identical between a 1-thread and an
/// N-thread run.
#[test]
fn failure_injection_is_deterministic_across_thread_budgets() {
    let saved = sc_repro::par::current_threads();

    // The schedule itself is a pure function of (model, fleet, horizon).
    let model = FailureModel::supercloud(6).scaled_mtbf(0.05);
    let sched_a = model.schedule(224, 448, 1.0e7);
    let sched_b = model.schedule(224, 448, 1.0e7);
    assert_eq!(sched_a, sched_b, "failure schedule must be deterministic");
    assert!(!sched_a.is_empty());

    sc_repro::par::set_max_threads(1);
    let a = run_with_failures(6);
    sc_repro::par::set_max_threads(alt_thread_budget());
    let b = run_with_failures(6);
    sc_repro::par::set_max_threads(saved);

    assert!(a.stats.injected_failures > 0, "model must fire");
    assert!(a.stats.requeues > 0, "recovery path must be exercised");
    assert_eq!(a.stats, b.stats, "injection counters must not depend on threads");
    assert_eq!(a.fates, b.fates, "attempt/requeue decisions must not depend on threads");
    assert_eq!(a.goodput, b.goodput, "the goodput ledger must not depend on threads");
    assert_eq!(
        a.dataset.to_json(),
        b.dataset.to_json(),
        "Dataset JSON must not depend on the thread budget"
    );
    assert_eq!(
        AnalysisReport::try_from_sim(&a).unwrap().render_text(),
        AnalysisReport::try_from_sim(&b).unwrap().render_text(),
        "figure text must not depend on the thread budget"
    );
    assert_eq!(
        a.telemetry_summary.render(),
        b.telemetry_summary.render(),
        "streaming summary under failure injection must not depend on the thread budget"
    );
}

/// The failure-injected worlds the event-loop stage is checked on: the
/// supercloud and stress taxonomies, with checkpointing off and on, a
/// slow tier, and a power-cap policy arm.
fn replay_worlds() -> Vec<(&'static str, SimConfig, Option<PolicySpec>)> {
    let checkpoint = Some(CheckpointPolicy { interval_secs: 1_800.0, write_secs: 30.0 });
    let supercloud = FailureModel::supercloud(42).scaled_mtbf(0.05);
    let stress = FailureModel::profile("stress", 42)
        .flatten()
        .expect("stress injects failures")
        .scaled_mtbf(0.5);
    let mut tiered = ClusterSpec::supercloud();
    tiered.slow_tier = Some(sc_repro::cluster::SlowTierSpec { nodes: 32, speed: 0.5 });
    let world = |failures: &FailureModel, checkpoint, cluster| SimConfig {
        cluster,
        failures: Some(failures.clone()),
        checkpoint,
        ..Default::default()
    };
    let flat = ClusterSpec::supercloud;
    let power_cap = Some(PolicySpec::PowerCap { cap_w: 150.0 });
    vec![
        ("supercloud, no checkpoints", world(&supercloud, None, flat()), None),
        ("stress, checkpoints", world(&stress, checkpoint, flat()), None),
        ("supercloud, slow tier, checkpoints", world(&supercloud, checkpoint, tiered), None),
        ("stress, power cap 150 W", world(&stress, None, flat()), power_cap),
    ]
}

/// The event-loop stage against the full run, and the sixth metamorphic
/// identity: the detailed subset changes nothing the reliability arms
/// read. On each world, `Simulation::replay` with the detailed subset
/// off equals the replay with the paper's 2,149-job subset. Both equal
/// the ledgers and scheduler records inside the full run's `SimOutput`
/// at thread budgets 1, 2 and 8, on a run whose subset is not empty.
/// The growth study's queue waits, taken from the replay's records by
/// the analyzed-population rule, equal those of the full run's dataset.
#[test]
fn replay_equals_the_full_run_whatever_the_detailed_subset() {
    use sc_repro::telemetry::dataset::is_analyzed;
    let mut spec = WorkloadSpec::supercloud().scaled(0.003);
    spec.users = 32;
    let trace = Trace::generate(&spec, 42);
    let saved = sc_repro::par::current_threads();
    for (world, cfg, policy) in replay_worlds() {
        let sim = |detailed_series_jobs| {
            Simulation::new(SimConfig { detailed_series_jobs, ..cfg.clone() })
        };
        let arm = || policy.and_then(|p| p.build(&cfg.cluster));
        let replay = sim(0).replay(&trace, &Obs::off(), arm().as_deref_mut());
        assert!(replay.stats.injected_failures > 0, "{world}: no failure fired");
        assert!(replay.stats.requeues > 0, "{world}: no job was requeued");
        let detailed = sim(2_149).replay(&trace, &Obs::off(), arm().as_deref_mut());
        assert_eq!(replay, detailed, "{world}: the detailed subset changed the replay");
        let waits: Vec<f64> =
            replay.records.iter().filter(|r| is_analyzed(r)).map(|r| r.queue_wait()).collect();
        for budget in [1, 2, 8] {
            sc_repro::par::set_max_threads(budget);
            let (out, _) = sim(2_149).run_observed(&trace, &Obs::off(), arm().as_deref_mut());
            assert!(!out.detailed.is_empty(), "{world}: the detailed subset is empty");
            assert_eq!(replay.stats, out.stats, "{world} at {budget} threads: stats");
            assert_eq!(replay.fates, out.fates, "{world} at {budget} threads: fates");
            assert_eq!(replay.goodput, out.goodput, "{world} at {budget} threads: goodput");
            assert_eq!(replay.timeline, out.timeline, "{world} at {budget} threads: timeline");
            assert_eq!(replay.reliability, out.reliability, "{world} at {budget} threads");
            let analyzed: Vec<_> = replay.records.iter().filter(|r| is_analyzed(r)).collect();
            let joined: Vec<_> = out.dataset.records().iter().map(|r| &r.sched).collect();
            assert_eq!(analyzed, joined, "{world} at {budget} threads: scheduler records");
            assert_eq!(out.dataset.funnel().total_jobs, replay.records.len(), "{world}");
            let joined_waits: Vec<f64> =
                out.dataset.records().iter().map(|r| r.sched.queue_wait()).collect();
            assert_eq!(waits, joined_waits, "{world} at {budget} threads: queue waits");
        }
    }
    sc_repro::par::set_max_threads(saved);
}

const GOLDEN_WORK_COUNTERS: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/work_counters_scale002_seed42.txt");

/// Golden work counters: the event loop's deterministic counts of
/// events, scheduling passes, queue entries scanned and placement calls
/// for the growth study's world (a 2%-scale trace, the supercloud
/// failure taxonomy at 0.2x MTBF, no detailed subset) on the Table I
/// fleet and on 8x and 32x of it. Unlike wall-clock timings they read
/// the same on any machine, so a change in how much work a replay does
/// is a reviewed diff. Regenerate via `scripts/update_golden.sh` (or
/// `SC_REGEN_GOLDEN=1`).
#[test]
fn golden_work_counters_match_committed_bytes() {
    let trace = Trace::generate(&WorkloadSpec::supercloud().scaled(0.02), 42);
    let model = FailureModel::supercloud(42).scaled_mtbf(0.2);
    let mut rendered = String::new();
    for factor in [1, 8, 32] {
        let mut cfg = SimConfig {
            detailed_series_jobs: 0,
            failures: Some(model.clone()),
            ..Default::default()
        };
        cfg.cluster.nodes *= factor;
        cfg.cluster.cpu_only_nodes *= factor;
        let s = Simulation::new(cfg).run(&trace).stats;
        rendered.push_str(&format!(
            "{factor}x events={} sched_passes={} queue_scanned={} placement_calls={}\n",
            s.events, s.sched_passes, s.queue_scanned, s.placement_calls
        ));
    }
    if std::env::var("SC_REGEN_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_WORK_COUNTERS, &rendered).expect("write golden work counters");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_WORK_COUNTERS)
        .expect("golden work counters committed at tests/golden/");
    assert_eq!(
        rendered, golden,
        "work counters diverge from golden; regenerate with scripts/update_golden.sh if \
         intentional"
    );
}
