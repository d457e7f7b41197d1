//! `repro_full`: the paper reproduction, the pipeline users run, at a
//! quarter of the paper's scale (18,705 jobs, a 537-job detailed
//! subset).
//!
//! Each operation gets a fresh seeded trace: the run's own seed first,
//! then seeds drawn from it. Generating that trace is the operation's
//! set-up. An untimed warm-up generates the first trace and runs one
//! pass over it while counting the heap, for `peak_heap_mib`; the timed
//! operations then generate it again. The operation replays it through `Simulation::run_timed`,
//! then `AnalysisReport::try_from_sim` and `render_text`. Telemetry
//! synthesis is most of an operation and the event loop most of the
//! rest, so a telemetry or event-loop change shows here. How long the
//! detailed subset takes depends strongly on which long jobs it draws,
//! so a run measures many traces and reports medians rather than
//! replaying one.
//!
//! Every operation must analyze cleanly and its streamed telemetry
//! aggregates must agree with the batch dataset. The first trace also
//! gets an untimed one-thread reference pass that the warm-up's and the
//! timed passes' text must equal, and whose digest is checked against
//! the table.

use crate::measure::{heap_window, median, HighWater, SplitMix64};
use crate::spans::Tracer;
use crate::{set_up_trace, timed, Outcome, Run, THREADS};
use sc_cluster::{SimConfig, SimOutput, Simulation};
use sc_core::paper::dataset::DETAILED_SERIES_JOBS;
use sc_core::{AnalysisReport, StreamingTelemetryFig};
use sc_serve::fnv1a64;
use sc_workload::{Trace, WorkloadSpec};

#[derive(Debug)]
pub struct Config {
    pub scale: f64,
}

pub const FULL: Config = Config { scale: 0.25 };

#[cfg(test)]
pub const TINY: Config = Config { scale: 0.01 };

/// The detailed-subset size `repro_figures` uses at `scale`.
fn detailed_jobs(scale: f64) -> usize {
    ((DETAILED_SERIES_JOBS as f64 * scale).round() as usize).max(50)
}

/// The rendered report, or the reason there is none.
fn analyze(tr: &mut Tracer, out: &SimOutput, request: u64) -> String {
    match tr.time("core.analysis", request, true, || AnalysisReport::try_from_sim(out)) {
        Ok(report) => tr.time("core.render", request, true, || report.render_text()),
        Err(e) => format!("ERROR {e}"),
    }
}

/// Whether the streamed telemetry aggregates hold their error bounds.
fn streaming_agrees(out: &SimOutput) -> bool {
    StreamingTelemetryFig::try_compute(out).is_ok_and(|fig| fig.passes())
}

/// One operation: replay, analyze, render.
fn pipeline(tr: &mut Tracer, sim: &Simulation, trace: &Trace, request: u64) -> (SimOutput, String) {
    let root = tr.open("op", request, false);
    let call = tr.open("cluster.run_timed", request, true);
    let start = tr.now();
    let (out, t) = sim.run_timed(trace);
    tr.close(call);
    let loop_end = start + t.event_loop_secs;
    tr.record("cluster.event_loop", Some(call), request, 0, start, loop_end);
    tr.record("telemetry.synthesis", Some(call), request, 0, loop_end, loop_end + t.telemetry_secs);
    let text = analyze(tr, &out, request);
    tr.close(root);
    (out, text)
}

pub fn run(cfg: &Config, run: &Run) -> Outcome {
    sc_par::set_max_threads(THREADS);
    let mut outcome = Outcome::default();
    let mut tracer = if run.trace { Tracer::new(HighWater::new()) } else { Tracer::off() };
    let spec = WorkloadSpec::supercloud().scaled(cfg.scale);
    let sim = Simulation::new(SimConfig {
        detailed_series_jobs: detailed_jobs(cfg.scale),
        ..SimConfig::default()
    });
    let (warm_up, heap) = heap_window(|| {
        let trace = Trace::generate(&spec, run.seed);
        pipeline(&mut Tracer::off(), &sim, &trace, 0).1
    });
    outcome.end_to_end.peak_heap_mib = heap.peak_mib;
    let mut input =
        (0, set_up_trace(&mut tracer, &spec, run.seed, 0, &mut outcome.end_to_end.setup_s));

    // The first trace's reference pass: one thread, untimed.
    sc_par::set_max_threads(1);
    let ((ref_out, ref_timings), ref_secs) = timed(|| sim.run_timed(&input.1));
    let reference = analyze(&mut Tracer::off(), &ref_out, 0);
    sc_par::set_max_threads(THREADS);
    eprintln!(
        "reference pass (1 thread): {ref_secs:.3} s, telemetry {:.3} s, {} jobs, {} detailed",
        ref_timings.telemetry_secs,
        input.1.jobs().len(),
        ref_out.detailed.len()
    );
    if reference.starts_with("ERROR") {
        outcome.problems.push(format!("reference pass failed: {reference}"));
    }
    if warm_up != reference {
        outcome.problems.push("the warm-up pass differs from the reference pass".into());
    }
    if !streaming_agrees(&ref_out) {
        outcome
            .problems
            .push("reference pass: streamed telemetry diverges from the dataset".into());
    }
    outcome.check_digest("repro_full", run.seed, fnv1a64(reference.as_bytes()));
    drop(ref_out);

    let mut seeds = SplitMix64::new(run.seed);
    let mut events = Vec::new();
    let mut off = Tracer::off();
    run.repeat(|i, traced| {
        // A traced run measures each trace twice, untraced then traced.
        let wanted = if run.trace { i / 2 } else { i };
        if wanted != input.0 {
            let seed = seeds.next_u64();
            let setup_s = &mut outcome.end_to_end.setup_s;
            input = (wanted, set_up_trace(&mut tracer, &spec, seed, wanted, setup_s));
        }
        let tr = if traced { &mut tracer } else { &mut off };
        let (out, text) = outcome.end_to_end.measure(traced, || pipeline(tr, &sim, &input.1, i));
        outcome.attempted += 1;
        let wrong = text.starts_with("ERROR") || (input.0 == 0 && text != reference);
        if wrong || !streaming_agrees(&out) {
            outcome.failed += 1;
        }
        events.push(out.stats.events as f64);
    });
    eprintln!(
        "{} traces; operations: {} untraced, {} traced",
        input.0 + 1,
        outcome.end_to_end.op_ms.len(),
        outcome.end_to_end.traced_op_ms.len()
    );
    if run.trace {
        outcome.finish_trace(tracer, |l| {
            l.events = median(&events).unwrap_or(0.0) as u64;
        });
    }
    outcome
}
