//! One benchmark per table and figure of the paper, named by its
//! [`FigureId`] token: each measures regenerating that figure's data
//! from the (cached) simulated dataset.
//!
//! Run `cargo bench -p sc-bench --bench figures`. The companion binary
//! `repro_figures` prints the actual series and the paper-vs-measured
//! comparison; these benches time the analysis itself.

use criterion::{criterion_group, criterion_main, Criterion};
use sc_bench::bench_sim;
use sc_cluster::ClusterSpec;
use sc_core::{gpu_views, user_stats, FigureId, Inputs};
use std::hint::black_box;

fn bench_figures(c: &mut Criterion) {
    let out = bench_sim();
    let views = gpu_views(&out.dataset);
    let users = user_stats(&views);
    let input = Inputs { dataset: &out.dataset, views: &views, users: &users, sim: Some(out) };

    let mut g = c.benchmark_group("figures");
    g.sample_size(20);

    g.bench_function("table1_system_spec", |b| {
        b.iter(|| black_box(ClusterSpec::supercloud().table1()))
    });
    for id in FigureId::ALL {
        g.bench_function(id.name(), |b| b.iter(|| black_box(id.compute(&input).unwrap())));
    }
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
