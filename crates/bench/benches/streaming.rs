//! Benchmarks of the streaming telemetry engine: the mergeable one-pass
//! aggregators in sc-stats and the end-to-end producer-to-aggregator
//! path that replaced the materialize-everything batch stage.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_stats::{LogQuantileSketch, MergeHistogram, Welford};
use sc_telemetry::stream_detail;
use sc_workload::TruthParams;
use std::hint::black_box;

/// A deterministic lognormal-ish value stream for the aggregators.
fn values(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| (rng.gen::<f64>() * 6.0).exp()).collect()
}

fn bench_aggregators(c: &mut Criterion) {
    let mut g = c.benchmark_group("streaming_aggregators");
    let data = values(100_000, 11);
    // Each bench folds the stream through 8 shards and merges them, the
    // shape the parallel collector produces.
    g.bench_function("sketch_push_merge_100k", |b| {
        b.iter(|| {
            let mut shards: Vec<_> =
                (0..8).map(|_| LogQuantileSketch::new(0.02).expect("valid alpha")).collect();
            for (i, chunk) in data.chunks(data.len() / 8).enumerate() {
                for &v in chunk {
                    shards[i.min(7)].push(v);
                }
            }
            let mut whole = shards.swap_remove(0);
            for s in &shards {
                whole.merge(s).expect("same alpha");
            }
            black_box(whole.quantile(0.5))
        })
    });
    g.bench_function("welford_push_merge_100k", |b| {
        b.iter(|| {
            let mut shards = vec![Welford::new(); 8];
            for (i, chunk) in data.chunks(data.len() / 8).enumerate() {
                for &v in chunk {
                    shards[i.min(7)].push(v);
                }
            }
            let mut whole = shards.swap_remove(0);
            for s in &shards {
                whole.merge(s);
            }
            black_box(whole.cov_percent())
        })
    });
    g.bench_function("histogram_push_merge_100k", |b| {
        b.iter(|| {
            let mut shards: Vec<_> = (0..8)
                .map(|_| MergeHistogram::new(0.0, 500.0, 50).expect("valid bounds"))
                .collect();
            for (i, chunk) in data.chunks(data.len() / 8).enumerate() {
                for &v in chunk {
                    shards[i.min(7)].push(v);
                }
            }
            let mut whole = shards.swap_remove(0);
            for s in &shards {
                whole.merge(s).expect("same bounds");
            }
            black_box(whole.count())
        })
    });
    g.finish();
}

fn bench_stream_detail(c: &mut Criterion) {
    let mut g = c.benchmark_group("streaming_detail");
    g.sample_size(20);
    let mut rng = StdRng::seed_from_u64(8);
    let params = TruthParams { duration: 1800.0, ..Default::default() };
    let truth = sc_workload::JobGroundTruth::generate(&mut rng, &params, 2, 0, 0.05);
    // The end-to-end streamed path of one detailed-subset job: producer
    // synthesizes 100 ms ticks straight into the segmentation builder
    // and CoV folds, no materialized series.
    g.bench_function("stream_detail_30min_2gpu", |b| {
        b.iter(|| {
            black_box(
                stream_detail(|sink| truth.stream_util3(1800.0, 0.1, sink))
                    .expect("finite non-empty stream"),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_aggregators, bench_stream_detail);
criterion_main!(benches);
