//! `analyze_dataset` on outside input: a well-formed dataset that lacks
//! a population some figure needs must exit 1 with the failing stage
//! named, and a dataset the loader rejects must exit 1 saying why;
//! neither may panic.

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

#[test]
fn gpu_record_without_per_gpu_aggregates_exits_1() {
    // Written by hand: `Dataset::join` asserts on a GPU record with no
    // GPUs, so only outside input can carry one.
    let json = r#"{"records": [{
        "sched": {"job_id": 7, "user": 1, "interface": "Other", "gpus_requested": 1,
                  "cpus_requested": 4, "mem_requested_gib": 16.0, "submit_time": 0.0,
                  "start_time": 10.0, "end_time": 610.0, "time_limit": 86400.0,
                  "exit": "Completed"},
        "gpu": {"job_id": 7, "per_gpu": []}}],
      "funnel": {"total_jobs": 1, "cpu_jobs": 0, "gpu_jobs_unfiltered": 1,
                 "gpu_jobs_filtered_out": 0, "gpu_jobs": 1,
                 "gpu_jobs_missing_telemetry": 0, "unique_users": 1}}"#;
    let path = std::env::temp_dir()
        .join(format!("analyze_dataset_empty_per_gpu_{}.json", std::process::id()));
    std::fs::write(&path, json).unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_analyze_dataset")).arg(&path).output().unwrap();
    std::fs::remove_file(&path).unwrap();

    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("invalid dataset JSON"), "stderr: {stderr}");
    assert!(stderr.contains("job-7"), "stderr: {stderr}");
}
