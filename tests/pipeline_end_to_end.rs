//! End-to-end smoke test: generate → schedule → sample → join →
//! classify → every figure → every opportunity study.

use sc_repro::prelude::*;

fn run() -> SimOutput {
    let mut spec = WorkloadSpec::supercloud().scaled(0.02);
    spec.users = 64;
    let trace = Trace::generate(&spec, 2_022);
    Simulation::new(SimConfig { detailed_series_jobs: 100, ..Default::default() }).run(&trace)
}

#[test]
fn whole_pipeline_produces_every_figure() {
    let out = run();
    let report = AnalysisReport::try_from_sim(&out).unwrap();
    let text = report.render_text();
    for marker in [
        "Table I",
        "Fig. 3(a)",
        "Fig. 4(b)",
        "Fig. 5(a)",
        "Fig. 6(b)",
        "Fig. 7(b)",
        "Fig. 8(b)",
        "Fig. 9(b)",
        "Fig. 10",
        "Fig. 11",
        "Fig. 12",
        "Fig. 13",
        "Fig. 14(b)",
        "Fig. 15",
        "Fig. 16",
        "Fig. 17(b)",
    ] {
        assert!(text.contains(marker), "missing {marker} in rendered report");
    }
    // The experiments markdown carries one comparison table per figure.
    let md = report.experiments_markdown();
    assert_eq!(md.matches("### Fig.").count(), 15);
}

#[test]
fn opportunity_studies_run_on_pipeline_output() {
    let out = run();
    let views = gpu_views(&out.dataset);
    let report = OpportunityReport::run(&views, 60);
    let text = report.render();
    assert!(text.contains("Over-provisioning"));
    assert!(text.contains("Two-tier"));
    assert!(report.powercap.outcomes.len() == 5);
}

#[test]
fn classification_covers_every_job_and_matches_ground_truth() {
    let mut spec = WorkloadSpec::supercloud().scaled(0.02);
    spec.users = 64;
    let trace = Trace::generate(&spec, 2_023);
    let out = Simulation::supercloud().run(&trace);
    // Rebuild the generator's hidden class per job id and compare with
    // the observational classification. Hardware-failure victims are
    // legitimately misclassified (the accounting log cannot tell a
    // crash from a node death) — everything else must agree.
    let truth: std::collections::HashMap<_, _> =
        trace.jobs().iter().filter_map(|j| j.class.map(|c| (j.job_id, c))).collect();
    let mut checked = 0;
    let mut mismatches = 0;
    for record in out.dataset.gpu_jobs() {
        let inferred = classify_record(&record.sched);
        if let Some(&actual) = truth.get(&record.sched.job_id) {
            checked += 1;
            if inferred != actual && !trace.is_hardware_victim(record.sched.job_id) {
                mismatches += 1;
            }
        }
    }
    assert!(checked > 500, "checked {checked}");
    assert_eq!(mismatches, 0, "classification must invert the generator exactly");
}

#[test]
fn dataset_funnel_is_consistent() {
    let out = run();
    let f = out.dataset.funnel();
    assert_eq!(
        f.total_jobs,
        f.cpu_jobs + f.gpu_jobs + f.gpu_jobs_filtered_out,
        "funnel partitions the trace"
    );
    assert_eq!(f.gpu_jobs_unfiltered, f.gpu_jobs + f.gpu_jobs_filtered_out);
    assert_eq!(f.gpu_jobs_missing_telemetry, 0, "every analyzed job was monitored");
    assert!(f.unique_users <= 64);
}

#[test]
fn detailed_subset_carries_phase_statistics() {
    let out = run();
    assert!(!out.detailed.is_empty());
    let with_alternation =
        out.detailed.iter().filter(|d| d.phases.active_interval_cov.is_some()).count();
    assert!(with_alternation > 0, "some jobs alternate phases");
    for d in &out.detailed {
        assert!((0.0..=1.0).contains(&d.phases.active_fraction));
        if let Some(v) = d.variability {
            assert!(v.sm_cov >= 0.0);
        }
    }
}
