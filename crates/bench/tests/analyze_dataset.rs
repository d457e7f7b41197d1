//! `analyze_dataset` on outside input: a well-formed dataset that lacks
//! a population some figure needs must exit 1 with the failing stage
//! named, and a dataset the loader rejects must exit 1 saying why and
//! where; neither may panic or abort.

use sc_cluster::{SimConfig, Simulation};
use sc_telemetry::Dataset;
use sc_workload::{Trace, WorkloadSpec};
use std::process::Command;

/// Runs `analyze_dataset` on a file holding `json`, giving its exit
/// code and stderr.
fn analyze(name: &str, json: &str) -> (Option<i32>, String) {
    let path =
        std::env::temp_dir().join(format!("analyze_dataset_{name}_{}.json", std::process::id()));
    std::fs::write(&path, json).unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_analyze_dataset")).arg(&path).output().unwrap();
    std::fs::remove_file(&path).unwrap();
    (run.status.code(), String::from_utf8_lossy(&run.stderr).into_owned())
}

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

    let (code, stderr) = analyze("gpu_only", &dataset.to_json());
    assert_eq!(code, Some(1), "stderr: {stderr}");
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
    let (code, stderr) = analyze("empty_per_gpu", json);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.contains("invalid dataset JSON"), "stderr: {stderr}");
    assert!(stderr.contains("GPU record of job-7 has no per-GPU aggregates at byte "), "{stderr}");
}

#[test]
fn deeply_nested_input_exits_1_with_an_offset() {
    let deep = "[".repeat(50_000);
    for (name, json) in [
        ("nested_top", deep.clone()),
        ("nested_records", format!("{{\"records\":{deep}")),
        ("nested_unknown", format!("{{\"zzz\":{deep}")),
    ] {
        let (code, stderr) = analyze(name, &json);
        assert_eq!(code, Some(1), "{name}: {stderr}");
        assert!(stderr.starts_with("analyze_dataset: invalid dataset JSON: "), "{name}: {stderr}");
        assert!(
            stderr
                .trim_end()
                .rsplit_once(" at byte ")
                .is_some_and(|(_, n)| n.parse::<usize>().is_ok()),
            "{name}: {stderr}"
        );
    }
}

#[test]
fn a_funnel_that_disagrees_with_its_records_exits_1() {
    let path = std::env::temp_dir().join(format!("export_funnel_{}.json", std::process::id()));
    let export = Command::new(env!("CARGO_BIN_EXE_export_dataset"))
        .args(["--scale", "0.02", "--seed", "42", "--out"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(export.status.success(), "{}", String::from_utf8_lossy(&export.stderr));
    let json = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    // The funnel closes the release; set two of its members.
    let at = json.rfind("\"funnel\":").unwrap() + "\"funnel\":".len();
    let mut funnel = json[at..].to_string();
    for (member, value) in [("gpu_jobs", "999999"), ("unique_users", "0")] {
        let key = format!("\"{member}\":");
        let start = funnel.find(&key).unwrap() + key.len();
        let end = start + funnel[start..].find([',', '}']).unwrap();
        funnel.replace_range(start..end, value);
    }
    let (code, stderr) = analyze("funnel", &format!("{}{funnel}", &json[..at]));
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("invalid dataset JSON: funnel `gpu_jobs` is 999999, but the records hold "),
        "stderr: {stderr}"
    );
    assert!(stderr.trim_end().ends_with(&format!(" at byte {at}")), "stderr: {stderr}");
}
