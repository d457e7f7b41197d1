//! Reliability at scale — the job-size-aware figure family.
//!
//! Not figures of the HPCA 2022 paper: the Supercloud window saw too
//! few hardware deaths to resolve a size dependence. These carry the
//! analysis of "Revisiting Reliability in Large-Scale ML Research
//! Clusters" (arXiv 2410.21680) onto the simulated fleet: failure
//! rates and recovery cost by job-size class, the goodput frontier as
//! jobs grow, and a checkpoint-interval sweep against the Young/Daly
//! analytic optimum.
//!
//! The per-run figure ([`ReliabilitySizeFig`]) computes from one run's
//! [`ReliabilityStats`]; the frontier, sweep, and growth figures are
//! built by the [`crate::reliability`] study driver, which runs the
//! event loop once per grid point and hands the assembled rows here.

use sc_cluster::ReliabilityStats;
use sc_stats::StatsError;

/// Reliability metrics for one job-size class.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeRow {
    /// Class label (e.g. `"3-8 GPU"`).
    pub label: String,
    /// Distinct jobs in the class.
    pub jobs: u64,
    /// Attempts started.
    pub attempts: u64,
    /// Attempts killed by an injected failure.
    pub failures: u64,
    /// Failure rate per 1000 GPU-days of exposure.
    pub failures_per_1k_gpu_days: f64,
    /// Mean wall-clock hours between failures; `None` without failures.
    pub ettf_hours: Option<f64>,
    /// Mean kill-to-restart minutes; `None` without recoveries.
    pub ettr_minutes: Option<f64>,
    /// Mean GPU-hours discarded per failure; `None` without failures.
    pub restart_overhead_gpu_hours: Option<f64>,
    /// Useful / exposed GPU time; `None` without GPU exposure.
    pub goodput_fraction: Option<f64>,
}

/// Reliability-vs-job-size curves: the per-class ETTF/ETTR, failure
/// rate, and restart overhead of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilitySizeFig {
    /// One row per size class, smallest first.
    pub rows: Vec<SizeRow>,
}

impl ReliabilitySizeFig {
    /// Computes the figure from one run's reliability ledger. Total: a
    /// run with no jobs yields zero counts and `None` ratios in every
    /// row.
    pub fn compute(rel: &ReliabilityStats) -> Self {
        let rows = rel
            .buckets
            .iter()
            .enumerate()
            .map(|(i, b)| SizeRow {
                label: rel.label(i),
                jobs: b.jobs,
                attempts: b.attempts,
                failures: b.failures,
                failures_per_1k_gpu_days: b.failures_per_1k_gpu_days(),
                ettf_hours: b.ettf_secs().map(|s| s / 3600.0),
                ettr_minutes: b.ettr_secs().map(|s| s / 60.0),
                restart_overhead_gpu_hours: b.restart_overhead_gpu_secs().map(|s| s / 3600.0),
                goodput_fraction: b.goodput_fraction(),
            })
            .collect();
        ReliabilitySizeFig { rows }
    }

    /// Text rendering of the per-class table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("Reliability vs job size (per size class)\n");
        s.push_str(
            "  class      jobs  attempts  failures  per-1k-gpu-days   ettf-h  ettr-min  lost/fail-gpu-h  goodput\n",
        );
        for r in &self.rows {
            s.push_str(&format!(
                "  {:<9} {:>5} {:>9} {:>9} {:>16.3} {} {} {} {}\n",
                r.label,
                r.jobs,
                r.attempts,
                r.failures,
                r.failures_per_1k_gpu_days,
                opt(r.ettf_hours, 8, 2),
                opt(r.ettr_minutes, 9, 2),
                opt(r.restart_overhead_gpu_hours, 16, 3),
                opt(r.goodput_fraction, 8, 4),
            ));
        }
        s
    }
}

/// Goodput at one MTBF setting, across the size classes.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierRow {
    /// MTBF scale factor applied to the failure model (1.0 = baseline;
    /// smaller = less reliable fleet).
    pub mtbf_factor: f64,
    /// Per-class goodput fraction; `None` for classes with no GPU
    /// exposure in the trace.
    pub goodput_by_class: Vec<Option<f64>>,
    /// Whole-fleet goodput fraction at this setting.
    pub overall: f64,
}

/// The goodput frontier: goodput fraction vs job GPU-count at several
/// MTBF settings — how fast large jobs fall off the cliff as the fleet
/// degrades.
#[derive(Debug, Clone, PartialEq)]
pub struct GoodputFrontierFig {
    /// Size-class labels, smallest first.
    pub class_labels: Vec<String>,
    /// Representative GPU count per class (the x-axis of the frontier).
    pub class_gpus: Vec<u32>,
    /// One row per MTBF setting, in sweep order.
    pub rows: Vec<FrontierRow>,
}

impl GoodputFrontierFig {
    /// Assembles the frontier from study-driver rows.
    pub fn try_new(
        class_labels: Vec<String>,
        class_gpus: Vec<u32>,
        rows: Vec<FrontierRow>,
    ) -> Result<Self, StatsError> {
        if rows.is_empty() || class_labels.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        Ok(GoodputFrontierFig { class_labels, class_gpus, rows })
    }

    /// Largest increase in goodput from one size class to the next
    /// larger one, across all MTBF settings. The frontier should be
    /// non-increasing in job size (bigger jobs expose more hardware),
    /// so this is ~0 up to sampling noise; the bench gate puts a
    /// ceiling on it.
    pub fn monotone_violation(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for row in &self.rows {
            let populated: Vec<f64> = row.goodput_by_class.iter().filter_map(|g| *g).collect();
            for w in populated.windows(2) {
                worst = worst.max(w[1] - w[0]);
            }
        }
        worst
    }

    /// Text rendering: one line per MTBF setting, one column per class.
    pub fn render(&self) -> String {
        let headers: Vec<String> = self
            .class_labels
            .iter()
            .zip(&self.class_gpus)
            .map(|(l, g)| format!("{l}(~{g}g)"))
            .collect();
        let mut s = String::new();
        s.push_str("Goodput frontier (goodput fraction vs job size, per MTBF setting)\n");
        s.push_str("  mtbf-factor");
        for h in &headers {
            s.push_str("  ");
            s.push_str(h);
        }
        s.push_str("  overall\n");
        for row in &self.rows {
            s.push_str(&format!("  {:>11.3}", row.mtbf_factor));
            for (g, h) in row.goodput_by_class.iter().zip(&headers) {
                let width = h.len();
                match g {
                    Some(v) => s.push_str(&format!("  {v:>width$.4}")),
                    None => s.push_str(&format!("  {:>width$}", "-")),
                }
            }
            s.push_str(&format!("  {:>7.4}\n", row.overall));
        }
        s
    }
}

/// Goodput at one checkpoint interval of the sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Checkpoint interval, seconds.
    pub interval_secs: f64,
    /// Whole-fleet goodput fraction at this interval.
    pub overall_goodput: f64,
    /// Per-class goodput fraction; `None` for unexposed classes.
    pub goodput_by_class: Vec<Option<f64>>,
    /// GPU-hours lost to failures at this interval.
    pub lost_gpu_hours: f64,
    /// GPU-hours spent writing checkpoints at this interval.
    pub write_gpu_hours: f64,
}

/// Simulated-vs-analytic verdict for one size class.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepClassVerdict {
    /// Class label.
    pub label: String,
    /// Representative GPU count the analytic optimum was computed for.
    pub gpus: u32,
    /// Young/Daly analytic optimum `sqrt(2 * write * MTTI)`, seconds,
    /// using the class's footprint-scaled MTTI.
    pub analytic_secs: f64,
    /// Grid interval that maximized the class's simulated goodput
    /// (smallest on ties); `None` when the class never registered GPU
    /// exposure.
    pub simulated_secs: Option<f64>,
}

impl SweepClassVerdict {
    /// `simulated / analytic`, when both exist and are positive.
    pub fn ratio(&self) -> Option<f64> {
        match self.simulated_secs {
            Some(sim) if self.analytic_secs > 0.0 => Some(sim / self.analytic_secs),
            _ => None,
        }
    }
}

/// The checkpoint-interval sweep: the event loop run at a grid of
/// intervals around the Young/Daly optimum, with the per-size-class
/// simulated optimum overlaid on the analytic prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointSweepFig {
    /// One row per grid interval, ascending.
    pub rows: Vec<SweepRow>,
    /// Per-class verdicts, smallest class first.
    pub classes: Vec<SweepClassVerdict>,
}

impl CheckpointSweepFig {
    /// Assembles the sweep from study-driver rows.
    pub fn try_new(
        rows: Vec<SweepRow>,
        classes: Vec<SweepClassVerdict>,
    ) -> Result<Self, StatsError> {
        if rows.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        Ok(CheckpointSweepFig { rows, classes })
    }

    /// Worst simulated/analytic disagreement across classes with a
    /// verdict: `max(ratio, 1/ratio)`. `None` when no class produced
    /// both numbers. The bench gate bounds this by the grid span — the
    /// simulated optimum must land within the decade the analytic
    /// formula predicts.
    pub fn worst_ratio(&self) -> Option<f64> {
        self.classes
            .iter()
            .filter_map(|c| c.ratio())
            .map(|r| r.max(1.0 / r))
            .fold(None, |acc: Option<f64>, r| Some(acc.map_or(r, |a| a.max(r))))
    }

    /// Text rendering: the grid table, then per-class verdicts.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("Checkpoint-interval sweep (Young/Daly overlay)\n");
        s.push_str("  interval-s  goodput  lost-gpu-h  write-gpu-h\n");
        for r in &self.rows {
            s.push_str(&format!(
                "  {:>10.0} {:>8.4} {:>11.1} {:>12.1}\n",
                r.interval_secs, r.overall_goodput, r.lost_gpu_hours, r.write_gpu_hours
            ));
        }
        s.push_str("  per size class: simulated optimum vs Young/Daly analytic\n");
        for c in &self.classes {
            let sim = match c.simulated_secs {
                Some(v) => format!("{v:.0}s"),
                None => "-".to_string(),
            };
            let ratio = match c.ratio() {
                Some(r) => format!("{r:.2}x"),
                None => "-".to_string(),
            };
            s.push_str(&format!(
                "    {:<9} analytic {:>7.0}s  simulated {:>8}  ratio {:>6}\n",
                c.label, c.analytic_secs, sim, ratio
            ));
        }
        s
    }
}

/// One cluster-growth study point: the same workload replayed on a
/// scaled-up fleet. Only deterministic metrics — wall-clock throughput
/// lives in the bench JSON, not the figure.
#[derive(Debug, Clone, PartialEq)]
pub struct GrowthRow {
    /// Fleet scale factor relative to the Table I cluster.
    pub factor: f64,
    /// GPU nodes at this scale.
    pub nodes: u32,
    /// GPUs at this scale.
    pub gpus: u32,
    /// Median queue wait across all jobs, seconds.
    pub median_wait_secs: f64,
    /// Mean queue wait across all jobs, seconds.
    pub mean_wait_secs: f64,
    /// Whole-fleet goodput fraction.
    pub goodput_fraction: f64,
    /// Simulated makespan, days.
    pub makespan_days: f64,
    /// Events the loop processed (scale proxy for work done).
    pub events: u64,
}

/// The cluster-growth study: queue wait, goodput, and event-loop load
/// as the same workload replays on 2x/8x/32x the Table I fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct GrowthStudyFig {
    /// One row per growth factor, ascending.
    pub rows: Vec<GrowthRow>,
}

impl GrowthStudyFig {
    /// Assembles the study from driver rows.
    pub fn try_new(rows: Vec<GrowthRow>) -> Result<Self, StatsError> {
        if rows.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        Ok(GrowthStudyFig { rows })
    }

    /// Text rendering of the growth table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("Cluster-growth study (same workload, scaled fleet)\n");
        s.push_str(
            "  factor  nodes   gpus  median-wait-s  mean-wait-s  goodput  makespan-d    events\n",
        );
        for r in &self.rows {
            s.push_str(&format!(
                "  {:>6.1} {:>6} {:>6} {:>14.1} {:>12.1} {:>8.4} {:>11.2} {:>9}\n",
                r.factor,
                r.nodes,
                r.gpus,
                r.median_wait_secs,
                r.mean_wait_secs,
                r.goodput_fraction,
                r.makespan_days,
                r.events
            ));
        }
        s
    }
}

fn opt(v: Option<f64>, width: usize, prec: usize) -> String {
    match v {
        Some(v) => format!("{v:>width$.prec$}"),
        None => format!("{:>width$}", "-"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::small_sim;
    use sc_cluster::{FailureModel, SimConfig, Simulation};
    use sc_workload::{Trace, WorkloadSpec};

    #[test]
    fn size_fig_computes_on_failure_free_runs() {
        let out = small_sim();
        let fig = ReliabilitySizeFig::compute(&out.reliability);
        assert!(!fig.rows.is_empty());
        let text = fig.render();
        assert!(text.contains("Reliability vs job size"));
        // Failure-free run: trace hardware victims are the only deaths.
        let total_jobs: u64 = fig.rows.iter().map(|r| r.jobs).sum();
        assert_eq!(total_jobs as usize, out.fates.len());
    }

    #[test]
    fn size_fig_is_total_on_a_run_without_jobs() {
        let rel = ReliabilityStats::default();
        let fig = ReliabilitySizeFig::compute(&rel);
        assert_eq!(fig.rows.len(), rel.buckets.len());
        for r in &fig.rows {
            assert_eq!((r.jobs, r.attempts, r.failures), (0, 0, 0), "{}", r.label);
            assert_eq!(r.failures_per_1k_gpu_days, 0.0);
            assert!(r.ettf_hours.is_none() && r.ettr_minutes.is_none());
            assert!(r.restart_overhead_gpu_hours.is_none() && r.goodput_fraction.is_none());
        }
    }

    #[test]
    fn size_fig_shows_rate_growth_under_injection() {
        let spec = WorkloadSpec::supercloud().scaled(0.01);
        let trace = Trace::generate(&spec, 2);
        let out = Simulation::new(SimConfig {
            detailed_series_jobs: 0,
            failures: Some(FailureModel::supercloud(2).scaled_mtbf(0.05)),
            ..Default::default()
        })
        .run(&trace);
        let fig = ReliabilitySizeFig::compute(&out.reliability);
        assert!(fig.rows.iter().any(|r| r.failures > 0), "stress run must fail jobs");
        assert!(fig.render().contains("per-1k-gpu-days"));
    }

    #[test]
    fn frontier_detects_monotone_violations() {
        let mk = |g: Vec<Option<f64>>, f: f64| FrontierRow {
            mtbf_factor: f,
            goodput_by_class: g,
            overall: 0.9,
        };
        let fig = GoodputFrontierFig::try_new(
            vec!["a".into(), "b".into(), "c".into()],
            vec![1, 2, 8],
            vec![
                mk(vec![Some(0.99), Some(0.97), Some(0.90)], 1.0),
                mk(vec![Some(0.95), None, Some(0.97)], 0.1),
            ],
        )
        .unwrap();
        // Second row skips the unexposed class: 0.95 -> 0.97 violates.
        assert!((fig.monotone_violation() - 0.02).abs() < 1e-9);
        assert!(fig.render().contains("mtbf-factor"));
        assert!(GoodputFrontierFig::try_new(vec![], vec![], vec![]).is_err());
    }

    #[test]
    fn sweep_worst_ratio_is_symmetric() {
        let rows = vec![SweepRow {
            interval_secs: 600.0,
            overall_goodput: 0.9,
            goodput_by_class: vec![Some(0.9)],
            lost_gpu_hours: 1.0,
            write_gpu_hours: 0.5,
        }];
        let classes = vec![
            SweepClassVerdict {
                label: "small".into(),
                gpus: 1,
                analytic_secs: 1200.0,
                simulated_secs: Some(600.0),
            },
            SweepClassVerdict {
                label: "big".into(),
                gpus: 16,
                analytic_secs: 200.0,
                simulated_secs: Some(600.0),
            },
            SweepClassVerdict {
                label: "empty".into(),
                gpus: 2,
                analytic_secs: 900.0,
                simulated_secs: None,
            },
        ];
        let fig = CheckpointSweepFig::try_new(rows, classes).unwrap();
        // Ratios 0.5 and 3.0 -> symmetric worst is 3.0.
        assert!((fig.worst_ratio().unwrap() - 3.0).abs() < 1e-9);
        let text = fig.render();
        assert!(text.contains("Young/Daly"));
        assert!(text.contains("ratio"));
        assert!(CheckpointSweepFig::try_new(vec![], vec![]).is_err());
    }

    #[test]
    fn growth_fig_renders_rows() {
        let fig = GrowthStudyFig::try_new(vec![GrowthRow {
            factor: 2.0,
            nodes: 448,
            gpus: 896,
            median_wait_secs: 3.0,
            mean_wait_secs: 40.0,
            goodput_fraction: 0.98,
            makespan_days: 125.0,
            events: 123_456,
        }])
        .unwrap();
        let text = fig.render();
        assert!(text.contains("Cluster-growth study"));
        assert!(text.contains("896"));
        assert!(GrowthStudyFig::try_new(vec![]).is_err());
    }
}
