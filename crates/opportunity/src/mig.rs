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
    let mut bins: Vec<u32> = Vec::new(); // free slices per open GPU
    for d in sorted {
        match bins.iter_mut().find(|free| **free >= d) {
            Some(free) => *free -= d,
            None => bins.push(cfg.slices_per_gpu - d),
        }
    }
    let gpus_packed = bins.len().max(1);
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

    #[test]
    fn ffd_packs_small_demands_tightly() {
        // Direct FFD check through the public API is covered by the
        // integration path; here verify the demand math composes.
        // 7 one-slice jobs fit one GPU; a 7-slice job needs its own.
        let demands = [1u32, 1, 1, 1, 1, 1, 1, 7];
        let mut bins: Vec<u32> = Vec::new();
        let mut sorted = demands.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        for d in sorted {
            match bins.iter_mut().find(|free| **free >= d) {
                Some(free) => *free -= d,
                None => bins.push(7 - d),
            }
        }
        assert_eq!(bins.len(), 2);
    }
}
