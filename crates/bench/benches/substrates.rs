//! Benchmarks of the substrates the reproduction had to build: the
//! workload generator, the discrete-event scheduler, the telemetry
//! samplers/aggregators, and the statistics primitives.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sc_bench::bench_trace;
use sc_cluster::{SimConfig, Simulation};
use sc_stats::dist::Sample;
use sc_telemetry::sampler::GpuSampler;
use sc_workload::{Trace, TruthParams, WorkloadSpec};
use std::hint::black_box;

fn bench_workload(c: &mut Criterion) {
    let mut g = c.benchmark_group("workload");
    g.sample_size(10);
    g.bench_function("generate_trace_1pct", |b| {
        let spec = WorkloadSpec::supercloud().scaled(0.01);
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(Trace::generate(&spec, seed))
        })
    });
    g.bench_function("ground_truth_one_job", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        let params = TruthParams { duration: 7200.0, ..Default::default() };
        b.iter(|| black_box(sc_workload::truth::generate_gpu_truth(&mut rng, &params)))
    });
    g.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler");
    g.sample_size(10);
    let trace = bench_trace();
    g.bench_function("simulate_4pct_trace", |b| {
        let sim = Simulation::new(SimConfig { detailed_series_jobs: 0, ..Default::default() });
        b.iter(|| black_box(sim.run(&trace)))
    });
    g.finish();
}

fn bench_telemetry(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry");
    let mut rng = StdRng::seed_from_u64(8);
    let params = TruthParams { duration: 1800.0, ..Default::default() };
    let truth = sc_workload::JobGroundTruth::generate(&mut rng, &params, 2, 0, 0.05);
    // The two data paths of Sec. II: streaming 100 ms sampling vs the
    // exact analytic aggregation that replaces it for the bulk dataset.
    g.bench_function("sample_100ms_30min_2gpu", |b| {
        let sampler = GpuSampler::new();
        b.iter(|| black_box(sampler.sample_series(&truth, 1800.0).aggregates()))
    });
    g.bench_function("analytic_aggregates_30min_2gpu", |b| {
        b.iter(|| black_box(truth.analytic_aggregates(1800.0)))
    });
    g.finish();
}

fn bench_stats(c: &mut Criterion) {
    let mut g = c.benchmark_group("stats");
    let mut rng = StdRng::seed_from_u64(3);
    let lognormal = sc_stats::dist::LogNormal::new(3.0, 1.5).unwrap();
    let data: Vec<f64> = lognormal.sample_n(&mut rng, 47_120);
    g.bench_function("ecdf_47k", |b| {
        b.iter(|| black_box(sc_stats::Ecdf::from_slice(&data).unwrap()))
    });
    g.bench_function("spearman_47k", |b| {
        let ys: Vec<f64> = data.iter().map(|x| x.sqrt()).collect();
        b.iter(|| black_box(sc_stats::spearman(&data, &ys).unwrap()))
    });
    g.bench_function("segmentation_36k_samples", |b| {
        let series: Vec<f64> =
            (0..36_000).map(|i| if (i / 600) % 2 == 0 { 80.0 } else { 0.0 }).collect();
        b.iter(|| black_box(sc_stats::segment_intervals(&series, 0.5, 10).unwrap()))
    });
    g.finish();
}

criterion_group!(benches, bench_workload, bench_scheduler, bench_telemetry, bench_stats);
criterion_main!(benches);
