//! One benchmark per table and figure of the paper: each measures
//! regenerating that figure's data from the (cached) simulated dataset.
//!
//! Run `cargo bench -p sc-bench --bench figures`. The companion binary
//! `repro_figures` prints the actual series and the paper-vs-measured
//! comparison; these benches time the analysis itself.

use criterion::{criterion_group, criterion_main, Criterion};
use sc_bench::bench_sim;
use sc_cluster::ClusterSpec;
use sc_core::figures::*;
use sc_core::{gpu_views, user_stats};
use std::hint::black_box;

fn bench_figures(c: &mut Criterion) {
    let out = bench_sim();
    let views = gpu_views(&out.dataset);
    let users = user_stats(&views);

    let mut g = c.benchmark_group("figures");
    g.sample_size(20);

    g.bench_function("table1_system_spec", |b| {
        b.iter(|| black_box(ClusterSpec::supercloud().table1()))
    });
    g.bench_function("fig03_runtimes_and_waits", |b| {
        b.iter(|| black_box(Fig3::try_compute(&out.dataset).unwrap()))
    });
    g.bench_function("fig04_utilization_cdfs", |b| {
        b.iter(|| black_box(Fig4::try_compute(&views).unwrap()))
    });
    g.bench_function("fig05_interface_boxes", |b| {
        b.iter(|| black_box(Fig5::try_compute(&views).unwrap()))
    });
    g.bench_function("fig06_phases", |b| {
        b.iter(|| black_box(Fig6::try_compute(&out.detailed).unwrap()))
    });
    g.bench_function("fig07_variability_bottlenecks", |b| {
        b.iter(|| black_box(Fig7::try_compute(&out.detailed, &views).unwrap()))
    });
    g.bench_function("fig08_bottleneck_pairs", |b| {
        b.iter(|| black_box(Fig8::try_compute(&views).unwrap()))
    });
    g.bench_function("fig09_power", |b| b.iter(|| black_box(Fig9::try_compute(&views).unwrap())));
    g.bench_function("fig10_user_averages", |b| {
        b.iter(|| black_box(Fig10::try_compute(&users).unwrap()))
    });
    g.bench_function("fig11_user_variability", |b| {
        b.iter(|| black_box(Fig11::try_compute(&users).unwrap()))
    });
    g.bench_function("fig12_spearman", |b| {
        b.iter(|| black_box(Fig12::try_compute(&users).unwrap()))
    });
    g.bench_function("fig13_multi_gpu", |b| {
        b.iter(|| black_box(Fig13::try_compute(&views, &users).unwrap()))
    });
    g.bench_function("fig14_cross_gpu_balance", |b| {
        b.iter(|| black_box(Fig14::try_compute(&views).unwrap()))
    });
    g.bench_function("fig15_lifecycle_mix", |b| {
        b.iter(|| black_box(Fig15::try_compute(&views).unwrap()))
    });
    g.bench_function("fig16_class_boxes", |b| {
        b.iter(|| black_box(Fig16::try_compute(&views).unwrap()))
    });
    g.bench_function("fig17_user_mixes", |b| {
        b.iter(|| black_box(Fig17::try_compute(&users).unwrap()))
    });
    g.finish();

    // The whole evaluation at once — the cost of `AnalysisReport`.
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    g.bench_function("all_figures", |b| {
        b.iter(|| black_box(sc_core::AnalysisReport::try_from_sim(out).unwrap()))
    });
    g.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
