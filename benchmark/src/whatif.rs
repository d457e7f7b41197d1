//! `whatif_growth`: the reliability study with fleet growth.
//!
//! Set-up generates a scale-0.02 trace, afresh before every operation
//! so that its median samples the whole run rather than one moment.
//! One operation is a whole
//! reliability study under the Supercloud failure taxonomy at 0.2x
//! MTBF: the per-size table, the goodput frontier, the checkpoint
//! sweep and the 8x/32x fleet-growth replays, each through its public
//! `sc_core::reliability` function. Every replay runs without the
//! detailed subset, so telemetry is analytic and the event loop
//! dominates. Failures strike the whole fleet over the trace's 125 days
//! whatever its job count, so the 32x replay, mostly failure events, is
//! most of an operation even on a small trace. A telemetry change
//! should not move this workload; an event-loop change should. An
//! untimed warm-up generates the trace and runs one study while counting
//! the heap, for `peak_heap_mib`; every timed study must render the same
//! text as the warm-up.

use crate::measure::{heap_window, HighWater};
use crate::spans::Tracer;
use crate::{set_up_trace, Outcome, Run, THREADS};
use sc_cluster::{FailureModel, SimConfig};
use sc_core::reliability::{
    checkpoint_sweep, goodput_frontier, growth_study, reliability_size_fig,
};
use sc_core::{ReliabilityConfig, ReliabilityReport};
use sc_serve::fnv1a64;
use sc_workload::{Trace, WorkloadSpec};

#[derive(Debug)]
pub struct Config {
    pub scale: f64,
    /// Scales every failure class's MTBF in the Supercloud taxonomy.
    pub mtbf_factor: f64,
    pub growth_factors: &'static [f64],
    pub sweep_points: usize,
}

pub const FULL: Config =
    Config { scale: 0.02, mtbf_factor: 0.2, growth_factors: &[8.0, 32.0], sweep_points: 5 };

#[cfg(test)]
pub const TINY: Config =
    Config { scale: 0.002, mtbf_factor: 1.0, growth_factors: &[2.0], sweep_points: 2 };

impl Config {
    fn study(&self) -> ReliabilityConfig {
        ReliabilityConfig {
            sweep_points: self.sweep_points,
            growth_factors: self.growth_factors.to_vec(),
            ..ReliabilityConfig::default()
        }
    }
}

/// One operation: the four study parts, then the rendered report.
/// Returns the text and the growth replays' event count.
fn study(
    tr: &mut Tracer,
    trace: &Trace,
    base: &SimConfig,
    model: &FailureModel,
    cfg: &ReliabilityConfig,
    request: u64,
) -> (String, u64) {
    let root = tr.open("op", request, false);
    let size_fig = tr
        .time("core.reliability.size", request, true, || reliability_size_fig(trace, base, model));
    let frontier = tr.time("core.reliability.frontier", request, true, || {
        goodput_frontier(trace, base, model, &cfg.mtbf_factors)
    });
    let sweep = tr.time("core.reliability.sweep", request, true, || {
        checkpoint_sweep(trace, base, model, cfg)
    });
    let call = tr.open("core.reliability.growth", request, true);
    let mut at = tr.now();
    let (growth, growth_timings) = growth_study(trace, base, model, &cfg.growth_factors);
    tr.close(call);
    // Each replay's event loop then telemetry, in order inside the call.
    for g in &growth_timings {
        let loop_end = at + g.event_loop_secs;
        tr.record("cluster.event_loop", Some(call), request, 0, at, loop_end);
        at = loop_end + g.telemetry_secs;
        tr.record("telemetry.synthesis", Some(call), request, 0, loop_end, at);
    }
    let events = growth.as_ref().map_or(0, |g| g.rows.iter().map(|r| r.events).sum());
    let report = ReliabilityReport { size_fig, frontier, sweep, growth, growth_timings };
    let text = tr.time("core.render", request, true, || report.render());
    tr.close(root);
    (text, events)
}

pub fn run(cfg: &Config, run: &Run) -> Outcome {
    sc_par::set_max_threads(THREADS);
    let mut outcome = Outcome::default();
    let mut tracer = if run.trace { Tracer::new(HighWater::new()) } else { Tracer::off() };
    let spec = WorkloadSpec::supercloud().scaled(cfg.scale);
    let base = SimConfig { detailed_series_jobs: 0, ..SimConfig::default() };
    let model = FailureModel::supercloud(run.seed).scaled_mtbf(cfg.mtbf_factor);
    let study_cfg = cfg.study();

    let (reference, heap) = heap_window(|| {
        let trace = Trace::generate(&spec, run.seed);
        study(&mut Tracer::off(), &trace, &base, &model, &study_cfg, 0).0
    });
    outcome.end_to_end.peak_heap_mib = heap.peak_mib;
    outcome.check_digest("whatif_growth", run.seed, fnv1a64(reference.as_bytes()));
    let mut events = 0;
    let mut off = Tracer::off();
    let mut jobs = 0;
    run.repeat(|i, traced| {
        let trace = set_up_trace(&mut tracer, &spec, run.seed, i, &mut outcome.end_to_end.setup_s);
        jobs = trace.jobs().len();
        let tr = if traced { &mut tracer } else { &mut off };
        let (text, n) =
            outcome.end_to_end.measure(traced, || study(tr, &trace, &base, &model, &study_cfg, i));
        outcome.attempted += 1;
        events = n;
        if text != reference {
            outcome.failed += 1;
        }
    });
    eprintln!(
        "{jobs} jobs; studies: {} untraced, {} traced",
        outcome.end_to_end.op_ms.len(),
        outcome.end_to_end.traced_op_ms.len()
    );
    if run.trace {
        outcome.finish_trace(tracer, |l| {
            l.events = events;
        });
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_study_in_parts_renders_like_run_reliability_study() {
        let trace = Trace::generate(&WorkloadSpec::supercloud().scaled(TINY.scale), 11);
        let base = SimConfig { detailed_series_jobs: 0, ..SimConfig::default() };
        let model = FailureModel::supercloud(11).scaled_mtbf(TINY.mtbf_factor);
        let cfg = TINY.study();
        let (text, events) = study(&mut Tracer::off(), &trace, &base, &model, &cfg, 0);
        let whole = sc_core::run_reliability_study(&trace, &base, &model, &cfg);
        assert_eq!(text, whole.render());
        assert!(events > 0);
    }
}
