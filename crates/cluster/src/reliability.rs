//! Per-job-size reliability accounting: ETTF/ETTR, failure rates per
//! 1k GPU-days, and restart overhead, bucketed by allocated GPU count.
//!
//! "Revisiting Reliability in Large-Scale ML Research Clusters"
//! (arXiv 2410.21680) shows that per-job failure hazard grows with the
//! job's hardware footprint: a job spanning N nodes is exposed to N
//! nodes' worth of hardware faults. This module gives the simulator a
//! first-class accumulator for that size dependence. The event loop
//! feeds it single-threaded, so every derived metric is deterministic
//! across `SC_PAR_THREADS` budgets by construction.
//!
//! Size classes are half-open GPU-count intervals defined by a sorted
//! edge list: edges `[1, 2, 8]` produce the four canonical buckets
//! `<=1`, `2`, `3-8`, and `>8` GPUs. CPU-only jobs (0 GPUs) land in
//! the first bucket alongside single-GPU jobs; their exposure is
//! wall-clock only (zero GPU-seconds) but they still fail and restart.

/// The canonical size-bucket edges: the default of
/// [`SimConfig::size_bucket_edges`](crate::SimConfig::size_bucket_edges)
/// and of [`ReliabilityStats::default`].
pub const SIZE_BUCKET_EDGES: [u32; 3] = [1, 2, 8];

/// Seconds per day, used by the failures-per-1k-GPU-days rate.
const SECS_PER_DAY: f64 = 86_400.0;

fn bucket_for(edges: &[u32], gpus: u32) -> usize {
    edges.iter().position(|&e| gpus <= e).unwrap_or(edges.len())
}

fn label_for(edges: &[u32], i: usize) -> String {
    if edges.is_empty() {
        return "all".to_string();
    }
    if i == 0 {
        if edges[0] <= 1 {
            return format!("<={} GPU", edges[0]);
        }
        return format!("0-{} GPU", edges[0]);
    }
    if i >= edges.len() {
        return format!(">{} GPU", edges[edges.len() - 1]);
    }
    let lo = edges[i - 1] + 1;
    let hi = edges[i];
    if lo == hi {
        format!("{lo} GPU")
    } else {
        format!("{lo}-{hi} GPU")
    }
}

/// Reliability counters for one job-size class.
///
/// All fields are raw sums accumulated by the event loop; the derived
/// metrics (ETTF, ETTR, rates) are computed on demand so the struct
/// stays mergeable and `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SizeClassStats {
    /// Distinct jobs whose GPU count falls in this bucket.
    pub jobs: u64,
    /// Execution attempts started (first runs plus restarts).
    pub attempts: u64,
    /// Attempts killed by an injected failure.
    pub failures: u64,
    /// Wall-clock seconds of attempt exposure (sum of attempt durations).
    pub exposed_wall_secs: f64,
    /// GPU-seconds of attempt exposure (`wall x allocated GPUs`).
    pub exposed_gpu_secs: f64,
    /// GPU-seconds of completed, non-discarded work.
    pub useful_gpu_secs: f64,
    /// GPU-seconds discarded when attempts were killed (restart overhead).
    pub lost_gpu_secs: f64,
    /// GPU-seconds allocated but idle within attempts.
    pub idle_gpu_secs: f64,
    /// Wall-clock seconds between a failure kill and the restart of the
    /// next attempt (backoff + queue wait + scheduling latency).
    pub recovery_secs: f64,
    /// Number of observed kill-to-restart recoveries.
    pub recoveries: u64,
}

impl SizeClassStats {
    /// Effective (observed) time to failure: mean wall-clock exposure
    /// between injected failures. `None` when the class saw no failure.
    pub fn ettf_secs(&self) -> Option<f64> {
        if self.failures == 0 {
            None
        } else {
            Some(self.exposed_wall_secs / self.failures as f64)
        }
    }

    /// Effective time to recovery: mean kill-to-restart gap. `None`
    /// when no killed attempt was restarted (e.g. retries exhausted).
    pub fn ettr_secs(&self) -> Option<f64> {
        if self.recoveries == 0 {
            None
        } else {
            Some(self.recovery_secs / self.recoveries as f64)
        }
    }

    /// Failure rate normalized to 1000 GPU-days of exposure, the unit
    /// used by arXiv 2410.21680. Zero when the class has no GPU exposure.
    pub fn failures_per_1k_gpu_days(&self) -> f64 {
        let gpu_days = self.exposed_gpu_secs / SECS_PER_DAY;
        if gpu_days <= 0.0 {
            0.0
        } else {
            self.failures as f64 / gpu_days * 1000.0
        }
    }

    /// Mean GPU-seconds of work discarded per failure. `None` when the
    /// class saw no failure.
    pub fn restart_overhead_gpu_secs(&self) -> Option<f64> {
        if self.failures == 0 {
            None
        } else {
            Some(self.lost_gpu_secs / self.failures as f64)
        }
    }

    /// Goodput fraction for this class: useful / exposed GPU-seconds.
    /// `None` when the class has no GPU exposure (e.g. CPU-only jobs).
    pub fn goodput_fraction(&self) -> Option<f64> {
        if self.exposed_gpu_secs <= 0.0 {
            None
        } else {
            Some(self.useful_gpu_secs / self.exposed_gpu_secs)
        }
    }

    /// Absolute error of the per-class ledger identity
    /// `useful + lost + idle == exposed` (GPU-seconds).
    pub fn balance_error(&self) -> f64 {
        (self.useful_gpu_secs + self.lost_gpu_secs + self.idle_gpu_secs - self.exposed_gpu_secs)
            .abs()
    }
}

/// Reliability accumulator over configurable job-size classes.
///
/// Built once per simulation from the configured bucket edges and fed
/// exclusively by the single-threaded event loop, so rendering it is
/// byte-identical across `SC_PAR_THREADS` budgets.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityStats {
    /// Sorted, strictly increasing GPU-count upper edges; `edges.len()+1`
    /// buckets, the last one open-ended.
    pub edges: Vec<u32>,
    /// Per-class counters, index `i` covering the `i`-th interval.
    pub buckets: Vec<SizeClassStats>,
}

impl Default for ReliabilityStats {
    fn default() -> Self {
        Self::new(&SIZE_BUCKET_EDGES)
    }
}

impl ReliabilityStats {
    /// Build an empty accumulator over the given bucket edges. Edges
    /// must be strictly increasing (validated upstream by the scenario
    /// layer); an empty slice collapses to a single `all` bucket.
    pub fn new(edges: &[u32]) -> Self {
        Self { edges: edges.to_vec(), buckets: vec![SizeClassStats::default(); edges.len() + 1] }
    }

    /// Bucket index for a job allocating `gpus` GPUs.
    pub fn bucket_index(&self, gpus: u32) -> usize {
        bucket_for(&self.edges, gpus)
    }

    /// Label for bucket `i`, derived from the edge list.
    pub fn label(&self, i: usize) -> String {
        label_for(&self.edges, i)
    }

    /// Record a distinct job with the given GPU allocation.
    pub fn observe_job(&mut self, gpus: u32) {
        let i = self.bucket_index(gpus);
        self.buckets[i].jobs += 1;
    }

    /// Record the start of an execution attempt.
    pub fn observe_attempt_start(&mut self, gpus: u32) {
        let i = self.bucket_index(gpus);
        self.buckets[i].attempts += 1;
    }

    /// Record a kill-to-restart recovery gap.
    pub fn observe_recovery(&mut self, gpus: u32, gap_secs: f64) {
        let i = self.bucket_index(gpus);
        self.buckets[i].recovery_secs += gap_secs;
        self.buckets[i].recoveries += 1;
    }

    /// Settle one finished (or killed) attempt into the per-class
    /// ledger. `failed` marks attempts ended by an injected failure.
    #[allow(clippy::too_many_arguments)]
    pub fn settle_attempt(
        &mut self,
        gpus: u32,
        wall_secs: f64,
        useful_gpu_secs: f64,
        lost_gpu_secs: f64,
        idle_gpu_secs: f64,
        failed: bool,
    ) {
        let b = &mut self.buckets[bucket_for(&self.edges, gpus)];
        b.exposed_wall_secs += wall_secs;
        b.exposed_gpu_secs += wall_secs * gpus as f64;
        b.useful_gpu_secs += useful_gpu_secs;
        b.lost_gpu_secs += lost_gpu_secs;
        b.idle_gpu_secs += idle_gpu_secs;
        if failed {
            b.failures += 1;
        }
    }

    /// Sum of a field across all classes, for cross-checks against the
    /// global goodput ledger.
    pub fn total<F: Fn(&SizeClassStats) -> f64>(&self, f: F) -> f64 {
        self.buckets.iter().map(f).sum()
    }

    /// Total injected-failure kills across all classes.
    pub fn total_failures(&self) -> u64 {
        self.buckets.iter().map(|b| b.failures).sum()
    }

    /// Fixed-width text table of the per-size-class metrics, suitable
    /// for golden tests (deterministic formatting, no wall-clock).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("reliability by job size class\n");
        s.push_str(
            "  class      jobs  attempts  failures  per-1k-gpu-days  ettf-h  ettr-min  lost/fail-gpu-h  goodput\n",
        );
        for (i, b) in self.buckets.iter().enumerate() {
            let ettf = b
                .ettf_secs()
                .map(|v| format!("{:7.2}", v / 3600.0))
                .unwrap_or_else(|| format!("{:>7}", "-"));
            let ettr = b
                .ettr_secs()
                .map(|v| format!("{:8.2}", v / 60.0))
                .unwrap_or_else(|| format!("{:>8}", "-"));
            let overhead = b
                .restart_overhead_gpu_secs()
                .map(|v| format!("{:15.3}", v / 3600.0))
                .unwrap_or_else(|| format!("{:>15}", "-"));
            let goodput = b
                .goodput_fraction()
                .map(|v| format!("{v:7.4}"))
                .unwrap_or_else(|| format!("{:>7}", "-"));
            s.push_str(&format!(
                "  {:<9} {:>5} {:>9} {:>9} {:>16.3} {} {} {} {}\n",
                self.label(i),
                b.jobs,
                b.attempts,
                b.failures,
                b.failures_per_1k_gpu_days(),
                ettf,
                ettr,
                overhead,
                goodput,
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_buckets_partition_gpu_counts() {
        let r = ReliabilityStats::default();
        assert_eq!(r.bucket_index(0), 0);
        assert_eq!(r.bucket_index(1), 0);
        assert_eq!(r.bucket_index(2), 1);
        assert_eq!(r.bucket_index(3), 2);
        assert_eq!(r.bucket_index(8), 2);
        assert_eq!(r.bucket_index(9), 3);
        assert_eq!(r.bucket_index(4096), 3);
        assert_eq!(r.label(0), "<=1 GPU");
        assert_eq!(r.label(1), "2 GPU");
        assert_eq!(r.label(2), "3-8 GPU");
        assert_eq!(r.label(3), ">8 GPU");
    }

    #[test]
    fn custom_edges_and_degenerate_edge_lists_work() {
        let r = ReliabilityStats::new(&[4, 16]);
        assert_eq!(r.buckets.len(), 3);
        assert_eq!(r.bucket_index(0), 0);
        assert_eq!(r.bucket_index(4), 0);
        assert_eq!(r.bucket_index(5), 1);
        assert_eq!(r.bucket_index(17), 2);
        assert_eq!(r.label(0), "0-4 GPU");
        assert_eq!(r.label(1), "5-16 GPU");
        assert_eq!(r.label(2), ">16 GPU");

        let all = ReliabilityStats::new(&[]);
        assert_eq!(all.buckets.len(), 1);
        assert_eq!(all.bucket_index(123), 0);
        assert_eq!(all.label(0), "all");
    }

    #[test]
    fn derived_metrics_match_hand_computation() {
        let mut r = ReliabilityStats::default();
        r.observe_job(2);
        r.observe_attempt_start(2);
        // One failed attempt: 1000 s wall on 2 GPUs, 1200 useful,
        // 600 lost, 200 idle GPU-seconds.
        r.settle_attempt(2, 1000.0, 1200.0, 600.0, 200.0, true);
        r.observe_recovery(2, 90.0);
        r.observe_attempt_start(2);
        r.settle_attempt(2, 500.0, 900.0, 0.0, 100.0, false);

        let b = &r.buckets[1];
        assert_eq!(b.jobs, 1);
        assert_eq!(b.attempts, 2);
        assert_eq!(b.failures, 1);
        assert!((b.exposed_wall_secs - 1500.0).abs() < 1e-9);
        assert!((b.exposed_gpu_secs - 3000.0).abs() < 1e-9);
        assert!((b.ettf_secs().unwrap() - 1500.0).abs() < 1e-9);
        assert!((b.ettr_secs().unwrap() - 90.0).abs() < 1e-9);
        assert!((b.restart_overhead_gpu_secs().unwrap() - 600.0).abs() < 1e-9);
        assert!((b.goodput_fraction().unwrap() - 0.7).abs() < 1e-9);
        assert!(b.balance_error() < 1e-9);
        // 3000 GPU-s = 3000/86400 GPU-days; 1 failure.
        let expected = 1000.0 / (3000.0 / 86_400.0);
        assert!((b.failures_per_1k_gpu_days() - expected).abs() < 1e-6);
        assert_eq!(r.total_failures(), 1);
    }

    #[test]
    fn empty_classes_render_dashes() {
        let r = ReliabilityStats::default();
        let text = r.render();
        assert!(text.contains("reliability by job size class"));
        assert!(text.contains(">8 GPU"));
        assert!(text.contains(" - "));
    }
}
