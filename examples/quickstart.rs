//! Quickstart: generate a Supercloud-like trace, run the cluster
//! simulation, and print the headline characterization numbers.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sc_repro::prelude::*;

fn main() {
    // A 5%-scale version of the paper's 125-day trace (~3,700 jobs)
    // keeps this example under a few seconds.
    let mut spec = WorkloadSpec::supercloud().scaled(0.05);
    spec.users = 96;
    let trace = Trace::generate(&spec, 42);
    println!(
        "generated {} jobs from {} users over {} days",
        trace.jobs().len(),
        trace.users().len(),
        spec.duration_days
    );

    let out = Simulation::supercloud().run(&trace);
    let funnel = out.dataset.funnel();
    println!(
        "scheduled to completion: {} GPU jobs analyzed ({} filtered <30 s), {} CPU jobs",
        funnel.gpu_jobs, funnel.gpu_jobs_filtered_out, funnel.cpu_jobs
    );

    // The paper's headline characterization, in four lines.
    let views = gpu_views(&out.dataset);
    let runtime = Ecdf::new(views.iter().map(|v| v.run_minutes()).collect()).expect("jobs");
    let sm = Ecdf::new(views.iter().map(|v| v.agg.sm_util.mean).collect()).expect("jobs");
    let power = Ecdf::new(views.iter().map(|v| v.agg.power_w.mean).collect()).expect("jobs");
    println!("median GPU-job run time : {:.0} min (paper: 30 min)", runtime.median());
    println!("median SM utilization   : {:.1} % (paper: 16 %)", sm.median());
    println!("median average power    : {:.0} W of 300 W TDP (paper: 45 W)", power.median());

    let mature = views.iter().filter(|v| v.class == LifecycleClass::Mature).count();
    println!(
        "mature jobs             : {:.0} % of jobs (paper: ~60 %) — the rest is \
         exploratory/development/IDE work",
        100.0 * mature as f64 / views.len() as f64
    );

    // And the full figure pipeline, if you want everything at once:
    let report = AnalysisReport::try_from_sim(&out).expect("every figure population present");
    let (_, fig15) = report
        .figures
        .iter()
        .find(|(id, _)| *id == FigureId::Fig15)
        .expect("Fig. 15 in the report");
    println!("\n{}", fig15.render());
}
