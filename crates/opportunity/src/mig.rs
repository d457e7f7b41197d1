//! Multi-Instance-GPU (MIG) style partitioning (Sec. VIII).
//!
//! "Multi-Instance GPU (MIG) support in Nvidia GPUs is a useful step
//! toward mitigating the low-utilization challenge via co-location. …
//! resetting MIG configurations require GPUs to be idle and takes up to
//! few seconds with user intervention, and determining the optimal
//! configuration … requires multiple manual resetting trials and model
//! checkpointing overhead."
//!
//! The study: size each job's *slice demand* from its observed peak
//! compute and memory-capacity use, pack demands onto 7-slice GPUs with
//! first-fit-decreasing, and price the repartitioning overhead the
//! paper complains about — quantifying both the upside (fewer GPUs for
//! the same resident set) and the friction (reset + checkpoint cost per
//! reconfiguration).

use sc_core::GpuJobView;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// MIG configuration parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigConfig {
    /// Slices per physical GPU (A100: 7).
    pub slices_per_gpu: u32,
    /// Seconds a reconfiguration keeps the GPU idle.
    pub reset_secs: f64,
    /// Seconds of checkpoint/restore around a reconfiguration.
    pub checkpoint_secs: f64,
}

impl Default for MigConfig {
    fn default() -> Self {
        MigConfig { slices_per_gpu: 7, reset_secs: 5.0, checkpoint_secs: 30.0 }
    }
}

/// Slices a job needs: the max of its compute and memory-capacity
/// demands, each sized from the job's *peak* (not average) usage so a
/// packed job is never starved at its own high-water mark.
pub fn slice_demand(peak_sm: f64, peak_mem_size: f64, slices_per_gpu: u32) -> u32 {
    assert!(slices_per_gpu >= 1, "need at least one slice per GPU");
    let frac = (peak_sm.max(peak_mem_size) / 100.0).clamp(0.0, 1.0);
    ((frac * slices_per_gpu as f64).ceil() as u32).clamp(1, slices_per_gpu)
}

/// Outcome of the packing study.
#[derive(Debug, Clone, PartialEq)]
pub struct MigStudy {
    /// GPUs needed with exclusive assignment (one job instance per GPU).
    pub gpus_exclusive: usize,
    /// GPUs needed with MIG packing (first-fit decreasing on slices).
    pub gpus_packed: usize,
    /// `gpus_exclusive / gpus_packed` — the capacity multiplier.
    pub packing_ratio: f64,
    /// Mean slices demanded per job instance.
    pub mean_slices: f64,
    /// Histogram of slice demands, index = slices − 1.
    pub demand_histogram: Vec<usize>,
    /// Overhead of one reconfiguration per placed instance, as a
    /// fraction of the delivered GPU-time (the paper's friction).
    pub repartition_overhead_fraction: f64,
}

/// Runs the packing study over the analyzed jobs' GPU instances.
///
/// Each GPU of a multi-GPU job is one instance (MIG packs per physical
/// GPU). Think of the result as a capacity-planning snapshot: how many
/// physical GPUs would the same resident set need?
///
/// # Panics
///
/// Panics if `views` is empty.
pub fn evaluate(views: &[GpuJobView<'_>], cfg: MigConfig) -> MigStudy {
    assert!(!views.is_empty(), "need jobs");
    let mut demands: Vec<u32> = Vec::new();
    let mut delivered_secs = 0.0;
    for v in views {
        for g in v.per_gpu {
            demands.push(slice_demand(g.sm_util.max, g.mem_size_util.max, cfg.slices_per_gpu));
            delivered_secs += v.sched.run_time();
        }
    }
    let gpus_exclusive = demands.len();
    // First-fit decreasing bin packing on slice demands.
    let mut sorted = demands.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let gpus_packed = first_fit(&sorted, cfg.slices_per_gpu).len().max(1);
    let mut hist = vec![0usize; cfg.slices_per_gpu as usize];
    for d in &demands {
        hist[(*d - 1) as usize] += 1;
    }
    let overhead_secs = gpus_exclusive as f64 * (cfg.reset_secs + cfg.checkpoint_secs);
    MigStudy {
        gpus_exclusive,
        gpus_packed,
        packing_ratio: gpus_exclusive as f64 / gpus_packed as f64,
        mean_slices: demands.iter().map(|d| *d as f64).sum::<f64>() / demands.len() as f64,
        demand_histogram: hist,
        repartition_overhead_fraction: overhead_secs / delivered_secs.max(1e-9),
    }
}

/// First-fit packing of `demands`, in order, onto GPUs of `slices`
/// slices each. Returns the free slices left on each opened GPU.
///
/// Each demand takes the lowest-indexed GPU with room. The open GPUs
/// sit in one min-heap of indices per free-slice count, so that GPU is
/// the smallest heap top among the counts the demand fits, found in
/// O(slices · log n) instead of a scan of every open GPU. Full GPUs
/// leave the heaps.
fn first_fit(demands: &[u32], slices: u32) -> Vec<u32> {
    let mut free: Vec<u32> = Vec::new();
    let mut open: Vec<BinaryHeap<Reverse<usize>>> = vec![BinaryHeap::new(); slices as usize + 1];
    for &d in demands {
        let fit = (d..=slices).filter_map(|f| open[f as usize].peek().map(|&Reverse(g)| g)).min();
        let gpu = match fit {
            Some(gpu) => {
                open[free[gpu] as usize].pop();
                gpu
            }
            None => {
                free.push(slices);
                free.len() - 1
            }
        };
        free[gpu] -= d;
        if free[gpu] > 0 {
            open[free[gpu] as usize].push(Reverse(gpu));
        }
    }
    free
}

/// Renders the study as text.
pub fn render(study: &MigStudy, cfg: MigConfig) -> String {
    let mut s = format!(
        "MIG packing study ({} slices/GPU):\n  exclusive GPUs needed: {}\n  packed GPUs needed:    {}\n  capacity multiplier:   {:.2}×\n  mean slice demand:     {:.2}\n  slice-demand histogram:",
        cfg.slices_per_gpu, study.gpus_exclusive, study.gpus_packed, study.packing_ratio, study.mean_slices
    );
    for (i, n) in study.demand_histogram.iter().enumerate() {
        s.push_str(&format!(" {}:{n}", i + 1));
    }
    s.push_str(&format!(
        "\n  one-repartition-per-instance overhead: {:.3}% of delivered GPU-time\n",
        study.repartition_overhead_fraction * 100.0
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_demand_rounds_up_and_clamps() {
        assert_eq!(slice_demand(0.0, 0.0, 7), 1);
        assert_eq!(slice_demand(14.0, 5.0, 7), 1);
        assert_eq!(slice_demand(15.0, 5.0, 7), 2);
        assert_eq!(slice_demand(50.0, 90.0, 7), 7); // memory binds
        assert_eq!(slice_demand(100.0, 0.0, 7), 7);
        assert_eq!(slice_demand(300.0, 0.0, 7), 7); // clamped
    }

    #[test]
    #[should_panic(expected = "at least one slice")]
    fn zero_slices_rejected() {
        let _ = slice_demand(10.0, 10.0, 0);
    }

    /// First fit by scanning every open GPU, full ones included: the
    /// reference [`first_fit`] must reproduce.
    fn first_fit_reference(demands: &[u32], slices: u32) -> Vec<u32> {
        let mut bins: Vec<u32> = Vec::new();
        for &d in demands {
            match bins.iter_mut().find(|free| **free >= d) {
                Some(free) => *free -= d,
                None => bins.push(slices - d),
            }
        }
        bins
    }

    #[test]
    fn ffd_packs_small_demands_tightly() {
        // 7 one-slice jobs fit one GPU; a 7-slice job needs its own.
        let mut demands = vec![1u32, 1, 1, 1, 1, 1, 1, 7];
        demands.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(first_fit(&demands, 7), vec![0, 0]);
    }

    proptest::proptest! {
        #[test]
        fn prop_first_fit_matches_the_scan(
            (slices, raw) in (1u32..9, proptest::collection::vec(0u32..1000, 0..400)),
            decreasing in proptest::strategy::weighted_bool(0.5),
        ) {
            let mut demands: Vec<u32> = raw.iter().map(|r| 1 + r % slices).collect();
            if decreasing {
                demands.sort_unstable_by(|a, b| b.cmp(a));
            }
            proptest::prop_assert_eq!(
                first_fit(&demands, slices),
                first_fit_reference(&demands, slices)
            );
        }
    }
}
