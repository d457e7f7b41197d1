//! Sampling-period ablation: the paper chose 100 ms GPU sampling as "a
//! compromise between data volume and usability" (Sec. II). This
//! example quantifies that compromise: for one job, sweep the sampling
//! period and report (a) data volume, (b) aggregate error against the
//! exact analytic values, and (c) whether a 2-second SM spike — the
//! Fig. 7b bottleneck signal — is still caught.
//!
//! ```text
//! cargo run --release -p sc-repro --example monitoring_overhead
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use sc_repro::telemetry::metrics::GpuResource;
use sc_repro::telemetry::sampler::GpuSampler;
use sc_repro::workload::truth::generate_gpu_truth;
use sc_repro::workload::{PowerModel, ResourceLevels, TruthParams};

fn main() {
    // A one-hour job with a saturation spike, like the paper's
    // SM-bottlenecked population.
    let mut rng = StdRng::seed_from_u64(2022);
    let params = TruthParams {
        duration: 3_600.0,
        active_fraction: 0.8,
        mean_levels: ResourceLevels {
            sm: 22.0,
            mem: 3.0,
            mem_size: 12.0,
            pcie_tx: 8.0,
            pcie_rx: 10.0,
        },
        spike_resources: vec![GpuResource::Sm],
        ..Default::default()
    };
    let truth = generate_gpu_truth(&mut rng, &params);
    let power = PowerModel::v100();
    let exact = truth.analytic_aggregates(3_600.0, &power);
    println!(
        "ground truth (analytic): SM mean {:.2}%, SM max {:.0}%, power mean {:.1} W",
        exact.sm_util.mean, exact.sm_util.max, exact.power_w.mean
    );
    println!();
    println!("period     samples   data/job     SM-mean err   spike caught?");

    struct Wrapper<'a>(&'a sc_repro::workload::GpuGroundTruth, PowerModel);
    impl sc_repro::telemetry::MetricSource for Wrapper<'_> {
        fn gpu_count(&self) -> u32 {
            1
        }
        fn gpu_state(&self, _g: u32, t: f64) -> sc_repro::telemetry::GpuMetricSample {
            self.0.state_at(t, &self.1)
        }
    }
    let source = Wrapper(&truth, power);

    for period in [0.1, 0.5, 1.0, 5.0, 30.0, 120.0] {
        let sampler = GpuSampler::with_period(period);
        let agg = &sampler.sample_series(&source, 3_600.0).aggregates()[0];
        let samples = agg.sm_util.count;
        // 6 metrics × f32 in the production CSV ≈ 24 bytes per sample.
        let bytes = samples * 24;
        let err = (agg.sm_util.mean - exact.sm_util.mean).abs();
        let spike = agg.sm_util.max >= 99.5;
        println!(
            "{:>6.1} s  {:>8}   {:>7.1} KiB   {:>9.3} pp   {}",
            period,
            samples,
            bytes as f64 / 1024.0,
            err,
            if spike { "yes" } else { "NO — bottleneck invisible" }
        );
    }
    println!();
    println!(
        "The paper's 100 ms choice keeps the mean error at noise level and never \
         misses a 2 s saturation spike, at ~0.8 MiB/hour/GPU; by 30 s sampling the \
         Fig. 7b bottleneck signal is already unreliable."
    );
}
