//! The reliability-at-scale study driver.
//!
//! Orchestrates the event loop across the grids the reliability figure
//! family needs: one baseline run for the per-size table, one run per
//! MTBF setting for the goodput frontier, one run per checkpoint
//! interval for the Young/Daly sweep, and one run per fleet scale for
//! the cluster-growth study. Every run replays the *same* trace.
//!
//! An arm reads only what the event loop produces: the goodput and
//! reliability ledgers, [`sc_cluster::SimStats`] and the scheduler
//! records' queue waits. So each arm runs [`Simulation::replay`], the
//! event-loop stage alone, and never builds a ground truth, a GPU
//! telemetry record or a dataset; its memory is O(jobs) records plus
//! the ledgers at any fleet size.
//!
//! A study's arms are independent replays, so each function replays
//! them in parallel through [`sc_par::par_map_coarse`], one arm per
//! worker, and gets the results back in input order.
//!
//! Everything a figure renders is deterministic (pure function of
//! trace + config), so it is byte-identical at any thread budget;
//! wall-clock timings are returned separately in [`GrowthTiming`] for
//! the bench JSON and never enter figure text.

use crate::figures::reliability::{
    CheckpointSweepFig, FrontierRow, GoodputFrontierFig, GrowthRow, GrowthStudyFig,
    ReliabilitySizeFig, SweepClassVerdict, SweepRow,
};
use sc_cluster::{CheckpointPolicy, FailureModel, ReliabilityStats, Replay, SimConfig, Simulation};
use sc_obs::Obs;
use sc_telemetry::dataset::is_analyzed;
use sc_telemetry::record::SchedulerRecord;
use sc_workload::Trace;

/// Knobs of the reliability study; `Default` matches the
/// `repro_figures --reliability` defaults and the `[reliability]`
/// scenario section's fallbacks.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityConfig {
    /// MTBF scale factors for the goodput frontier (1.0 = the model as
    /// given; smaller = less reliable fleet).
    pub mtbf_factors: Vec<f64>,
    /// Number of checkpoint intervals in the Young/Daly sweep grid.
    pub sweep_points: usize,
    /// Geometric half-span of the sweep grid: intervals run from
    /// `min analytic optimum / span` to `max analytic optimum * span`.
    pub sweep_span: f64,
    /// Fleet scale factors for the cluster-growth study; empty skips it.
    pub growth_factors: Vec<f64>,
    /// Checkpoint write cost used by the sweep, seconds.
    pub write_secs: f64,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            mtbf_factors: vec![1.0, 0.2, 0.05],
            sweep_points: 5,
            sweep_span: 4.0,
            growth_factors: Vec::new(),
            write_secs: 30.0,
        }
    }
}

/// Wall-clock timings of one growth-study run — bench-JSON material,
/// deliberately kept out of the deterministic figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrowthTiming {
    /// Fleet scale factor.
    pub factor: f64,
    /// Jobs replayed.
    pub jobs: usize,
    /// Event-loop wall-clock, seconds.
    pub event_loop_secs: f64,
    /// Telemetry-stage wall-clock, seconds: always 0 for a study arm,
    /// which runs the event loop alone ([`Simulation::replay`]).
    pub telemetry_secs: f64,
}

impl GrowthTiming {
    /// Event-loop throughput, jobs per wall-clock second.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.event_loop_secs <= 0.0 {
            0.0
        } else {
            self.jobs as f64 / self.event_loop_secs
        }
    }
}

/// Everything the reliability study produces.
#[derive(Debug, Clone)]
pub struct ReliabilityReport {
    /// Per-size-class reliability table from the baseline run.
    pub size_fig: ReliabilitySizeFig,
    /// Goodput fraction vs job size at several MTBF settings.
    pub frontier: GoodputFrontierFig,
    /// Checkpoint-interval sweep with the Young/Daly overlay.
    pub sweep: CheckpointSweepFig,
    /// Cluster-growth study; `None` when no growth factors were asked.
    pub growth: Option<GrowthStudyFig>,
    /// Wall-clock timings of the growth runs (bench material only).
    pub growth_timings: Vec<GrowthTiming>,
}

impl ReliabilityReport {
    /// Concatenated figure renders — deterministic text, byte-identical
    /// across `SC_PAR_THREADS` budgets (timings are excluded).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&self.size_fig.render());
        s.push('\n');
        s.push_str(&self.frontier.render());
        s.push('\n');
        s.push_str(&self.sweep.render());
        if let Some(g) = &self.growth {
            s.push('\n');
            s.push_str(&g.render());
        }
        s
    }
}

/// Young/Daly optimal checkpoint interval: `sqrt(2 * write * MTTI)`.
pub fn young_daly_secs(write_secs: f64, mtti_secs: f64) -> f64 {
    (2.0 * write_secs * mtti_secs).sqrt()
}

/// The study's base configuration: the caller's config with failures
/// set and checkpointing as given. Its detailed subset does not matter:
/// only the telemetry stage reads it, and no arm runs that stage.
fn study_config(
    base: &SimConfig,
    model: &FailureModel,
    checkpoint: Option<CheckpointPolicy>,
) -> SimConfig {
    SimConfig { failures: Some(model.clone()), checkpoint, ..base.clone() }
}

/// One study arm: the event-loop stage of `cfg` over `trace`.
fn replay(cfg: SimConfig, trace: &Trace) -> Replay {
    Simulation::new(cfg).replay(trace, &Obs::off(), None)
}

/// Representative GPU count per size class: the class's upper edge
/// (double the last edge for the open-ended class), used for the
/// frontier x-axis and the per-class analytic MTTI footprint.
fn class_gpus(edges: &[u32]) -> Vec<u32> {
    if edges.is_empty() {
        return vec![8];
    }
    let mut reps: Vec<u32> = edges.iter().map(|&e| e.max(1)).collect();
    reps.push(edges[edges.len() - 1].saturating_mul(2).max(1));
    reps
}

/// Nodes a job with `gpus` GPUs spans on this cluster (dense packing).
fn nodes_for_gpus(base: &SimConfig, gpus: u32) -> u32 {
    let per_node = base.cluster.node.gpus.max(1);
    gpus.div_ceil(per_node).max(1)
}

/// Per-class goodput fractions of one run, in bucket order.
fn class_goodput(rel: &ReliabilityStats) -> Vec<Option<f64>> {
    rel.buckets.iter().map(|b| b.goodput_fraction()).collect()
}

/// The size-class labels of the study's buckets, in bucket order.
fn class_labels(base: &SimConfig) -> Vec<String> {
    let rel = ReliabilityStats::new(&base.size_bucket_edges);
    (0..rel.buckets.len()).map(|i| rel.label(i)).collect()
}

/// The baseline per-size-class reliability figure: one event-loop run
/// with the model as given and no checkpointing.
pub fn reliability_size_fig(
    trace: &Trace,
    base: &SimConfig,
    model: &FailureModel,
) -> ReliabilitySizeFig {
    ReliabilitySizeFig::compute(&replay(study_config(base, model, None), trace).reliability)
}

/// The goodput frontier: one run per MTBF scale factor, in parallel.
pub fn goodput_frontier(
    trace: &Trace,
    base: &SimConfig,
    model: &FailureModel,
    factors: &[f64],
) -> GoodputFrontierFig {
    let rows = sc_par::par_map_coarse(factors, |&f| {
        let arm = replay(study_config(base, &model.scaled_mtbf(f), None), trace);
        FrontierRow {
            mtbf_factor: f,
            goodput_by_class: class_goodput(&arm.reliability),
            overall: arm.goodput.goodput_fraction(),
        }
    });
    let gpus = class_gpus(&base.size_bucket_edges);
    GoodputFrontierFig::try_new(class_labels(base), gpus, rows).expect("at least one MTBF factor")
}

/// The checkpoint-interval sweep: a geometric grid spanning the
/// per-class Young/Daly optima, one event-loop run per interval (in
/// parallel), and the per-class simulated argmax overlaid on the
/// analytic prediction.
pub fn checkpoint_sweep(
    trace: &Trace,
    base: &SimConfig,
    model: &FailureModel,
    cfg: &ReliabilityConfig,
) -> CheckpointSweepFig {
    let reps = class_gpus(&base.size_bucket_edges);
    let analytic: Vec<f64> = reps
        .iter()
        .map(|&g| young_daly_secs(cfg.write_secs, model.job_mtti_secs(nodes_for_gpus(base, g), g)))
        .collect();
    let finite: Vec<f64> = analytic.iter().copied().filter(|t| t.is_finite() && *t > 0.0).collect();
    // Fallback grid center for a degenerate model (no classes): 1 hour.
    let (tau_min, tau_max) = if finite.is_empty() {
        (3600.0, 3600.0)
    } else {
        (
            finite.iter().cloned().fold(f64::INFINITY, f64::min),
            finite.iter().cloned().fold(0.0, f64::max),
        )
    };
    let points = cfg.sweep_points.max(2);
    let span = cfg.sweep_span.max(1.0 + 1e-9);
    let lo = (tau_min / span).max(1.0);
    let hi = (tau_max * span).max(lo * (1.0 + 1e-9));
    let step = (hi / lo).powf(1.0 / (points - 1) as f64);
    let intervals: Vec<f64> = (0..points).map(|i| lo * step.powi(i as i32)).collect();
    let rows = sc_par::par_map_coarse(&intervals, |&interval| {
        let cp = CheckpointPolicy { interval_secs: interval, write_secs: cfg.write_secs };
        let arm = replay(study_config(base, model, Some(cp)), trace);
        SweepRow {
            interval_secs: interval,
            overall_goodput: arm.goodput.goodput_fraction(),
            goodput_by_class: class_goodput(&arm.reliability),
            lost_gpu_hours: arm.goodput.lost_gpu_secs / 3600.0,
            write_gpu_hours: arm.goodput.checkpoint_write_gpu_secs / 3600.0,
        }
    });
    let labels = class_labels(base);
    let classes = (0..labels.len())
        .map(|c| {
            // Simulated optimum: grid argmax of the class's goodput,
            // smallest interval on ties (strict > keeps the first max).
            let mut best: Option<(f64, f64)> = None;
            for r in &rows {
                if let Some(g) = r.goodput_by_class[c] {
                    if best.is_none_or(|(_, bg)| g > bg) {
                        best = Some((r.interval_secs, g));
                    }
                }
            }
            SweepClassVerdict {
                label: labels[c].clone(),
                gpus: reps.get(c).copied().unwrap_or(0),
                analytic_secs: analytic.get(c).copied().unwrap_or(f64::INFINITY),
                simulated_secs: best.map(|(t, _)| t),
            }
        })
        .collect();
    CheckpointSweepFig::try_new(rows, classes).expect("at least two grid points")
}

/// The cluster-growth study: replay the same trace on a fleet scaled
/// by each factor (GPU and CPU-only nodes alike), in parallel,
/// reporting queue wait, goodput, and makespan per scale — plus
/// wall-clock timings for the bench JSON. Replays that overlap each
/// time only their own work, so the timings can sum to more than the
/// call's wall time.
///
/// The queue waits are those of the analyzed population
/// ([`is_analyzed`]), the records a full run's dataset would keep.
pub fn growth_study(
    trace: &Trace,
    base: &SimConfig,
    model: &FailureModel,
    factors: &[f64],
) -> (Option<GrowthStudyFig>, Vec<GrowthTiming>) {
    let arms = sc_par::par_map_coarse(factors, |&k| {
        let mut cfg = study_config(base, model, None);
        cfg.cluster.nodes = ((cfg.cluster.nodes as f64) * k).round().max(1.0) as u32;
        cfg.cluster.cpu_only_nodes = ((cfg.cluster.cpu_only_nodes as f64) * k).round() as u32;
        let wall = std::time::Instant::now();
        let arm = replay(cfg.clone(), trace);
        let event_loop_secs = wall.elapsed().as_secs_f64();
        let mut waits: Vec<f64> = arm
            .records
            .iter()
            .filter(|r| is_analyzed(r))
            .map(SchedulerRecord::queue_wait)
            .collect();
        waits.sort_by(|a, b| a.partial_cmp(b).expect("finite waits"));
        let median = if waits.is_empty() { 0.0 } else { waits[waits.len() / 2] };
        let mean =
            if waits.is_empty() { 0.0 } else { waits.iter().sum::<f64>() / waits.len() as f64 };
        let row = GrowthRow {
            factor: k,
            nodes: cfg.cluster.total_nodes(),
            gpus: cfg.cluster.total_gpus(),
            median_wait_secs: median,
            mean_wait_secs: mean,
            goodput_fraction: arm.goodput.goodput_fraction(),
            makespan_days: arm.stats.makespan_secs / 86_400.0,
            events: arm.stats.events,
        };
        let timing = GrowthTiming {
            factor: k,
            jobs: trace.jobs().len(),
            event_loop_secs,
            telemetry_secs: 0.0,
        };
        (row, timing)
    });
    let (rows, timings): (Vec<_>, Vec<_>) = arms.into_iter().unzip();
    (GrowthStudyFig::try_new(rows).ok(), timings)
}

/// Runs the full reliability study: baseline size table, goodput
/// frontier, Young/Daly checkpoint sweep, and (when factors are given)
/// the cluster-growth study.
pub fn run_reliability_study(
    trace: &Trace,
    base: &SimConfig,
    model: &FailureModel,
    cfg: &ReliabilityConfig,
) -> ReliabilityReport {
    let size_fig = reliability_size_fig(trace, base, model);
    let frontier = goodput_frontier(trace, base, model, &cfg.mtbf_factors);
    let sweep = checkpoint_sweep(trace, base, model, cfg);
    let (growth, growth_timings) = if cfg.growth_factors.is_empty() {
        (None, Vec::new())
    } else {
        growth_study(trace, base, model, &cfg.growth_factors)
    };
    ReliabilityReport { size_fig, frontier, sweep, growth, growth_timings }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_cluster::FailureModel;
    use sc_workload::{Trace, WorkloadSpec};

    fn stress_setup() -> (Trace, SimConfig, FailureModel) {
        let spec = WorkloadSpec::supercloud().scaled(0.004);
        let trace = Trace::generate(&spec, 5);
        let base = SimConfig { detailed_series_jobs: 0, ..Default::default() };
        let model = FailureModel::supercloud(5).scaled_mtbf(0.02);
        (trace, base, model)
    }

    #[test]
    fn young_daly_matches_closed_form() {
        assert!(
            (young_daly_secs(30.0, 86_400.0) - (2.0 * 30.0 * 86_400.0_f64).sqrt()).abs() < 1e-9
        );
    }

    #[test]
    fn study_produces_all_figures_and_is_deterministic() {
        let (trace, base, model) = stress_setup();
        let cfg = ReliabilityConfig {
            mtbf_factors: vec![1.0, 0.2],
            sweep_points: 3,
            growth_factors: vec![2.0],
            ..Default::default()
        };
        let a = run_reliability_study(&trace, &base, &model, &cfg);
        assert_eq!(a.frontier.rows.len(), 2);
        assert_eq!(a.sweep.rows.len(), 3);
        assert!(a.growth.is_some());
        assert_eq!(a.growth_timings.len(), 1);
        assert!(a.growth_timings[0].jobs_per_sec() > 0.0);
        // Grid intervals ascend; the sweep found a simulated optimum
        // for at least one class with failures.
        for w in a.sweep.rows.windows(2) {
            assert!(w[0].interval_secs < w[1].interval_secs);
        }
        assert!(a.sweep.worst_ratio().is_some(), "no class produced a verdict");
        let b = run_reliability_study(&trace, &base, &model, &cfg);
        assert_eq!(a.render(), b.render(), "study text must be deterministic");
    }

    #[test]
    fn frontier_degrades_with_mtbf() {
        let (trace, base, model) = stress_setup();
        let fig = goodput_frontier(&trace, &base, &model, &[1.0, 0.05]);
        // Scaling MTBF down by 20x must not improve overall goodput.
        assert!(
            fig.rows[1].overall <= fig.rows[0].overall + 1e-9,
            "goodput rose as the fleet degraded: {} -> {}",
            fig.rows[0].overall,
            fig.rows[1].overall
        );
    }

    #[test]
    fn growth_scales_the_fleet_and_drains_the_queue_faster() {
        let (trace, base, _) = stress_setup();
        // Baseline failure rates: waits are capacity-driven, so a
        // bigger fleet can only shorten them. (Under a stress model the
        // extra fleet-wide faults inflate requeue waits instead.)
        let model = FailureModel::supercloud(5);
        let (fig, timings) = growth_study(&trace, &base, &model, &[1.0, 8.0]);
        let fig = fig.unwrap();
        assert_eq!(fig.rows.len(), 2);
        assert_eq!(fig.rows[1].gpus, fig.rows[0].gpus * 8);
        // More capacity can only shorten queues (same workload).
        assert!(fig.rows[1].mean_wait_secs <= fig.rows[0].mean_wait_secs + 1e-6);
        assert!(fig.rows[1].median_wait_secs <= fig.rows[0].median_wait_secs + 1e-6);
        assert_eq!(timings.len(), 2);
    }
}
