//! Cross-system shape test: the Philly-like baseline (Jeon et al.,
//! reference 23 of the paper) run through the identical pipeline must
//! reproduce the comparison points Sec. V cites.

use sc_core::figures::fig13::SizeBucket;
use sc_repro::prelude::*;

fn philly_views() -> (SimOutput, WorkloadSpec) {
    let mut spec = WorkloadSpec::philly().scaled(0.05);
    spec.users = 96;
    let trace = Trace::generate(&spec, 23);
    let out =
        Simulation::new(SimConfig { detailed_series_jobs: 80, ..Default::default() }).run(&trace);
    (out, spec)
}

#[test]
fn philly_is_more_single_gpu_than_supercloud() {
    let (out, _) = philly_views();
    let views = gpu_views(&out.dataset);
    let users = user_stats(&views);
    let fig13 = sc_core::figures::Fig13::try_compute(&views, &users).unwrap();
    let single = fig13.row(SizeBucket::One).job_share;
    // "93% of the jobs are run on one GPU" — allow generator noise.
    assert!((single - 0.93).abs() < 0.05, "philly single-GPU share {single}");

    // And strictly more single-GPU than the Supercloud population on
    // the same seed.
    let mut sc_spec = WorkloadSpec::supercloud().scaled(0.05);
    sc_spec.users = 96;
    let sc_trace = Trace::generate(&sc_spec, 23);
    let sc_out =
        Simulation::new(SimConfig { detailed_series_jobs: 0, ..Default::default() }).run(&sc_trace);
    let sc_views = gpu_views(&sc_out.dataset);
    let sc_users = user_stats(&sc_views);
    let sc_fig13 = sc_core::figures::Fig13::try_compute(&sc_views, &sc_users).unwrap();
    assert!(
        single > sc_fig13.row(SizeBucket::One).job_share + 0.03,
        "philly {} vs supercloud {}",
        single,
        sc_fig13.row(SizeBucket::One).job_share
    );
}

#[test]
fn philly_has_almost_no_ide_tier() {
    let (out, _) = philly_views();
    let views = gpu_views(&out.dataset);
    let fig15 = sc_core::figures::Fig15::try_compute(&views).unwrap();
    let ide = fig15.share(LifecycleClass::Ide).job_share;
    // Philly is a batch-training cluster: the IDE phenomenon the paper
    // highlights on Supercloud is essentially absent.
    assert!(ide < 0.02, "philly IDE share {ide}");
    assert!(fig15.share(LifecycleClass::Mature).job_share > 0.6);
}

#[test]
fn philly_runs_through_the_full_pipeline() {
    let (out, _) = philly_views();
    let report = AnalysisReport::try_from_sim(&out).unwrap();
    let text = report.render_text();
    assert!(text.contains("Fig. 13"));
    assert!(text.contains("Fig. 15"));
}
