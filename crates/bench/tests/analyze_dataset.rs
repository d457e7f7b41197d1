//! `analyze_dataset` on outside input: a well-formed dataset that lacks
//! a population some figure needs must exit 1 with the failing stage
//! named, never panic.

use sc_cluster::{SimConfig, Simulation};
use sc_telemetry::Dataset;
use sc_workload::{Trace, WorkloadSpec};
use std::process::Command;

#[test]
fn gpu_only_dataset_exits_1_naming_the_stage() {
    let trace = Trace::generate(&WorkloadSpec::supercloud().scaled(0.004), 7);
    let out =
        Simulation::new(SimConfig { detailed_series_jobs: 0, ..SimConfig::default() }).run(&trace);
    let gpu_jobs = out.dataset.records().iter().filter(|r| r.sched.is_gpu_job());
    let sched = gpu_jobs.clone().map(|r| r.sched.clone()).collect();
    let gpu = gpu_jobs.filter_map(|r| r.gpu.clone()).collect();
    let dataset = Dataset::join(sched, gpu);
    assert!(dataset.funnel().gpu_jobs > 0 && dataset.cpu_jobs().next().is_none());

    let path =
        std::env::temp_dir().join(format!("analyze_dataset_gpu_only_{}.json", std::process::id()));
    std::fs::write(&path, dataset.to_json().unwrap()).unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_analyze_dataset")).arg(&path).output().unwrap();
    std::fs::remove_file(&path).unwrap();

    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("pipeline stage fig3"), "stderr: {stderr}");
}
