//! Shared fixtures for the benchmark harness.
//!
//! Every Criterion bench measures an analysis stage over the same
//! deterministic simulation output, built once per process by
//! [`bench_sim`].

#![warn(missing_docs)]

use sc_cluster::{SimConfig, SimOutput, Simulation};
use sc_workload::{Trace, WorkloadSpec};
use std::sync::OnceLock;

static SIM: OnceLock<SimOutput> = OnceLock::new();

/// A cached 4%-scale Supercloud simulation (≈3,000 jobs, 64 users) —
/// large enough that every figure's population is non-degenerate, small
/// enough that the bench suite stays in seconds.
pub fn bench_sim() -> &'static SimOutput {
    SIM.get_or_init(|| {
        Simulation::new(SimConfig { detailed_series_jobs: 90, ..Default::default() })
            .run(&bench_trace())
    })
}

/// The bench trace itself (for generator/scheduler benches).
pub fn bench_trace() -> Trace {
    let mut spec = WorkloadSpec::supercloud().scaled(0.04);
    spec.users = 64;
    Trace::generate(&spec, 20_230_101)
}

/// Peak resident set size of this process in bytes, from the kernel's
/// high-water mark (`VmHWM` in `/proc/self/status`). Returns 0 where
/// procfs is unavailable (non-Linux), which downstream gates treat as
/// "not measured".
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}
