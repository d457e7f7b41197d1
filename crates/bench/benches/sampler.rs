//! Telemetry-sampler benchmarks: the materialized series, and that
//! series folded into per-GPU aggregates, at a short (1 h) and a long
//! (20 h) job duration.
//!
//! Run `cargo bench -p sc-bench --bench sampler`. `GpuSampler` is the
//! naive reference that the streaming producers are checked against: it
//! polls the ground truth at every tick, 720,000 ticks per GPU for the
//! 20-hour case at the 100 ms production period. These benches time that
//! reference, not the streamed telemetry stage of a full run.

use criterion::{criterion_group, criterion_main, Criterion};
use sc_bench::bench_trace;
use sc_telemetry::sampler::GpuSampler;
use sc_workload::JobGroundTruth;
use std::hint::black_box;

const HOUR_SECS: f64 = 3_600.0;

/// Ground truth of the first multi-GPU job in the bench trace — a real
/// phase/spike structure rather than a synthetic constant source.
fn bench_truth() -> JobGroundTruth {
    let trace = bench_trace();
    trace
        .jobs()
        .iter()
        .filter(|j| j.gpus >= 2)
        .find_map(|j| j.ground_truth())
        .expect("bench trace contains a multi-GPU job")
}

fn bench_sampler(c: &mut Criterion) {
    let truth = bench_truth();
    let sampler = GpuSampler::new();

    let mut g = c.benchmark_group("sampler");
    g.sample_size(10);

    for (label, hours) in [("1h", 1.0), ("20h", 20.0)] {
        let duration = hours * HOUR_SECS;
        g.bench_function(&format!("aggregates_{label}"), |b| {
            b.iter(|| black_box(sampler.sample_series(&truth, duration).aggregates()))
        });
        g.bench_function(&format!("series_{label}"), |b| {
            b.iter(|| black_box(sampler.sample_series(&truth, duration)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sampler);
criterion_main!(benches);
