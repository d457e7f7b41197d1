//! Streaming telemetry ingestion: one-pass consumers for the detailed
//! time-series subset and mergeable run-level summaries.
//!
//! The batch pipeline materialized every detailed job's full
//! [`GpuTimeSeries`](crate::sampler::GpuTimeSeries) — per-GPU sample
//! structs with all six metrics — only to reduce it to a handful of
//! phase statistics. This module is the consuming half of the streaming
//! replacement:
//!
//! - [`Util3Sink`] is the producer/consumer contract: producers (the
//!   workload crate's ground-truth processes) push the **job-level**
//!   `[sm, mem, mem_size]` utilization triple per 100 ms tick, forward
//!   constant spans and blocks of wave ticks in one call each, and take
//!   their wave sines from the sink.
//! - [`DetailSink`] and [`stream_detail`] reduce one job's stream to
//!   exactly the [`PhaseStats`] / [`ActiveVariability`] the batch path
//!   computed without storing its ticks. The first walk segments the SM
//!   series, sums the samples that are active before smoothing, and
//!   records each sine on a thread-local tape (8 bytes per wave tick).
//!   The CoV's variance pass replays the producer against the tape, and
//!   so does the mean when smoothing merged a run (a replay computes no
//!   sine). The tape is reused across jobs on the same worker, so a run
//!   holds one tape per worker rather than one series per job.
//! - [`TelemetryStreamSummary`] folds per-job aggregates into mergeable
//!   one-pass sketches ([`Welford`], [`LogQuantileSketch`],
//!   [`MergeHistogram`]) as jobs complete — the aggregate state the
//!   figure pipeline can render without ever seeing a raw series.
//!
//! # Determinism contract
//!
//! For identical tick streams, [`stream_detail`] is **bit-identical**
//! to segmenting and reducing the materialized series: the segmentation
//! shares `sc_stats`'s smoothing pass with the batch function, and the
//! variability folds replay the exact index-order float accumulation of
//! the batch formulas (sum from 0.0 in sample order, two-pass variance,
//! the `mean == 0 → CoV 0` convention). A replay re-runs the producer,
//! a pure function of its job, with the first walk's sines, so it
//! pushes the first walk's values bit for bit. Tests in this module and
//! in the workload crate assert equality, not approximation.

use crate::phases::{ActiveVariability, PhaseStats, ACTIVE_SM_THRESHOLD, MIN_PHASE_SAMPLES};
use sc_stats::segment::{Interval, IntervalKind, SegmentBuilder};
use sc_stats::{LogQuantileSketch, MergeHistogram, StatsError, Welford};
use std::cell::RefCell;
use std::ops::Range;

/// Consumer of a job-level utilization stream: one `[sm, mem,
/// mem_size]` triple per sampler tick, in tick order.
///
/// The bulk [`push_run`](Util3Sink::push_run) and
/// [`push_block`](Util3Sink::push_block) entry points let producers
/// forward whole constant spans and blocks of wave ticks in one call;
/// their default implementations degrade to repeated
/// [`push`](Util3Sink::push) calls, and implementations must preserve
/// that equivalence.
pub trait Util3Sink {
    /// Consumes the triple for the next tick.
    fn push(&mut self, v: [f64; 3]);

    /// Consumes `count` consecutive ticks that all carry `v`.
    fn push_run(&mut self, v: [f64; 3], count: usize) {
        for _ in 0..count {
            self.push(v);
        }
    }

    /// Consumes consecutive ticks, in order.
    fn push_block(&mut self, block: &[[f64; 3]]) {
        for &v in block {
            self.push(v);
        }
    }

    /// Fills `out[i]` with `angle(i).sin()`: the producer's wave sines
    /// for its next block of ticks.
    ///
    /// A sink may serve the sines an earlier walk over the same stream
    /// recorded instead of calling `angle` ([`DetailSink`]'s replays
    /// do), so a producer takes every sine through this hook and asks
    /// for the same angles, in the same order, on every walk.
    fn sines(&mut self, out: &mut [f64], angle: impl FnMut(usize) -> f64) {
        eval_sines(out, angle);
    }
}

/// `out[i] = angle(i).sin()`, in index order.
#[inline]
fn eval_sines(out: &mut [f64], mut angle: impl FnMut(usize) -> f64) {
    for (i, s) in out.iter_mut().enumerate() {
        *s = angle(i).sin();
    }
}

/// Streaming consumer for one detailed-subset job. [`stream_detail`]
/// runs the producer against it once to segment the stream and record
/// its sines, then once per replay to fold the active samples.
#[derive(Debug)]
pub struct DetailSink<'a>(Walk<'a>);

/// The walk a [`DetailSink`] is on.
#[derive(Debug)]
enum Walk<'a> {
    /// Segments the SM series, folds the mean of the samples that are
    /// active before smoothing, and records every sine on the tape.
    First { seg: &'a mut SegmentBuilder, mean: &'a mut MeanFold, tape: &'a mut Vec<f64> },
    /// Serves the sines from the tape and folds the samples the
    /// finished segmentation calls active.
    Replay {
        tape: &'a [f64],
        intervals: &'a [Interval],
        at: &'a mut Cursor,
        fold: &'a mut dyn ActiveFold,
    },
}

impl Util3Sink for DetailSink<'_> {
    #[inline]
    fn push(&mut self, v: [f64; 3]) {
        self.push_block(&[v]);
    }

    fn push_run(&mut self, v: [f64; 3], count: usize) {
        match &mut self.0 {
            Walk::First { seg, mean, .. } => {
                seg.push_run(v[0], count);
                if v[0] > ACTIVE_SM_THRESHOLD {
                    for _ in 0..count {
                        mean.add(&v);
                    }
                }
            }
            Walk::Replay { intervals, at, fold, .. } => {
                at.for_active(intervals, count, |piece| fold.run(v, piece.len()));
            }
        }
    }

    fn push_block(&mut self, block: &[[f64; 3]]) {
        match &mut self.0 {
            Walk::First { seg, mean, .. } => {
                for v in block {
                    seg.push(v[0]);
                    if v[0] > ACTIVE_SM_THRESHOLD {
                        mean.add(v);
                    }
                }
            }
            Walk::Replay { intervals, at, fold, .. } => {
                at.for_active(intervals, block.len(), |piece| fold.slice(&block[piece]));
            }
        }
    }

    fn sines(&mut self, out: &mut [f64], angle: impl FnMut(usize) -> f64) {
        match &mut self.0 {
            Walk::First { tape, .. } => {
                eval_sines(out, angle);
                tape.extend_from_slice(out);
            }
            Walk::Replay { tape, at, .. } => {
                let next = at.read + out.len();
                out.copy_from_slice(&tape[at.read..next]);
                at.read = next;
            }
        }
    }
}

/// A replay's position: the next tape entry, the ticks consumed, and
/// the interval holding the next tick.
#[derive(Debug, Default)]
struct Cursor {
    read: usize,
    pos: usize,
    iv: usize,
}

impl Cursor {
    /// Advances over the next `len` ticks, handing each piece of them
    /// that lies in an active interval to `f` as offsets into the `len`.
    #[inline]
    fn for_active(&mut self, intervals: &[Interval], len: usize, mut f: impl FnMut(Range<usize>)) {
        let mut off = 0;
        while off < len {
            let Some(iv) = intervals.get(self.iv) else {
                // More ticks than the first walk pushed; `stream_detail`
                // debug-asserts the tick count.
                self.pos += len - off;
                return;
            };
            let end = iv.start + iv.len;
            let take = (end - self.pos).min(len - off);
            if iv.kind == IntervalKind::Active {
                f(off..off + take);
            }
            off += take;
            self.pos += take;
            if self.pos == end {
                self.iv += 1;
            }
        }
    }
}

/// A replay's fold over the active samples, fed in sample order.
trait ActiveFold: std::fmt::Debug {
    /// Folds consecutive samples.
    fn slice(&mut self, vs: &[[f64; 3]]);

    /// Folds `count` consecutive samples that all carry `v`.
    fn run(&mut self, v: [f64; 3], count: usize) {
        for _ in 0..count {
            self.slice(std::slice::from_ref(&v));
        }
    }
}

/// The mean's fold, as `sc_stats::mean` sums: in sample order, one
/// chain per metric, plus each metric's first non-finite sample.
#[derive(Debug, Default)]
struct MeanFold {
    sums: [f64; 3],
    first_bad: [Option<usize>; 3],
    seen: usize,
}

impl MeanFold {
    #[inline]
    fn add(&mut self, v: &[f64; 3]) {
        if !(v[0].is_finite() && v[1].is_finite() && v[2].is_finite()) {
            for (bad, x) in self.first_bad.iter_mut().zip(v) {
                if !x.is_finite() && bad.is_none() {
                    *bad = Some(self.seen);
                }
            }
        }
        self.sums[0] += v[0];
        self.sums[1] += v[1];
        self.sums[2] += v[2];
        self.seen += 1;
    }

    /// The three means. The batch path computes the metrics one after
    /// another, so a non-finite sm sample errors before mem is ever
    /// touched: the error names the first bad sample of the first
    /// metric, in metric order, that has one.
    fn means(&self) -> Result<[f64; 3], StatsError> {
        if let Some(index) = self.first_bad.iter().flatten().next() {
            return Err(StatsError::NonFinite { index: *index });
        }
        let n = self.seen as f64;
        Ok(self.sums.map(|s| s / n))
    }
}

impl ActiveFold for MeanFold {
    fn slice(&mut self, vs: &[[f64; 3]]) {
        for v in vs {
            self.add(v);
        }
    }
}

/// The variance's fold, as `sc_stats::std_dev` sums `(v - m) * (v - m)`:
/// in sample order, one chain per metric.
#[derive(Debug)]
struct VarianceFold {
    means: [f64; 3],
    sq: [f64; 3],
}

impl ActiveFold for VarianceFold {
    fn slice(&mut self, vs: &[[f64; 3]]) {
        let m = self.means;
        for v in vs {
            let d = [v[0] - m[0], v[1] - m[1], v[2] - m[2]];
            self.sq[0] += d[0] * d[0];
            self.sq[1] += d[1] * d[1];
            self.sq[2] += d[2] * d[2];
        }
    }
}

thread_local! {
    /// Per-worker sine tape, reused across jobs: it holds one job's
    /// wave sines (8 bytes a wave tick) at a time.
    static SINE_TAPE: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Frees the calling thread's sine tape.
///
/// A worker's tape goes with its thread. A batch that may have run
/// [`stream_detail`] on the calling thread, such as a map at a thread
/// budget of one, calls this when it ends, so that thread does not keep
/// the largest job's tape for as long as it lives.
pub fn free_sine_tape() {
    SINE_TAPE.with(|tape| *tape.borrow_mut() = Vec::new());
}

/// Runs `produce` against [`DetailSink`]s and reduces the stream it
/// pushes to the batch pipeline's per-job detail statistics.
///
/// Equivalent — bit for bit — to materializing the job-level series,
/// calling `phase_stats`, and calling `active_variability`, without
/// storing a tick. `produce` runs once to segment the stream and then,
/// when the job has active samples, once per fold the CoV still needs:
/// the variance, and first the mean when smoothing merged a run. It
/// must push the same ticks and ask for the same sines every time.
///
/// # Errors
///
/// Exactly the batch path's errors: [`StatsError::EmptyInput`] if no
/// tick was pushed and [`StatsError::NonFinite`] if a pushed value was
/// NaN or infinite.
pub fn stream_detail<F>(
    mut produce: F,
) -> Result<(PhaseStats, Option<ActiveVariability>), StatsError>
where
    F: FnMut(&mut DetailSink<'_>),
{
    SINE_TAPE.with(|cell| {
        let mut tape = cell.borrow_mut();
        tape.clear();
        let mut seg = SegmentBuilder::new(ACTIVE_SM_THRESHOLD, MIN_PHASE_SAMPLES);
        let mut mean = MeanFold::default();
        produce(&mut DetailSink(Walk::First { seg: &mut seg, mean: &mut mean, tape: &mut tape }));
        let (ticks, raw_runs) = (seg.samples(), seg.runs());
        let seg = seg.finish()?;
        let phases = PhaseStats {
            active_fraction: seg.active_fraction(),
            active_interval_cov: seg.interval_cov(IntervalKind::Active),
            idle_interval_cov: seg.interval_cov(IntervalKind::Idle),
            active_intervals: seg.count_of(IntervalKind::Active),
            idle_intervals: seg.count_of(IntervalKind::Idle),
        };
        let active_samples: usize = seg
            .intervals()
            .iter()
            .filter(|iv| iv.kind == IntervalKind::Active)
            .map(|iv| iv.len)
            .sum();
        if active_samples == 0 {
            return Ok((phases, None));
        }
        let tape = tape.as_slice();
        let mut replay = |fold: &mut dyn ActiveFold| {
            let mut at = Cursor::default();
            produce(&mut DetailSink(Walk::Replay {
                tape,
                intervals: seg.intervals(),
                at: &mut at,
                fold,
            }));
            debug_assert_eq!(at.read, tape.len(), "a replay reads the whole tape");
            debug_assert_eq!(at.pos, ticks, "a replay pushes the first walk's ticks");
        };
        if seg.intervals().len() < raw_runs {
            // Smoothing flipped a run, so the first walk summed a
            // different sample set than the active intervals hold.
            mean = MeanFold::default();
            replay(&mut mean);
        }
        debug_assert_eq!(mean.seen, active_samples);
        let means = mean.means()?;
        let mut covs = [0.0f64; 3];
        if means.iter().any(|&m| m != 0.0) {
            let mut var = VarianceFold { means, sq: [0.0; 3] };
            replay(&mut var);
            let n = active_samples as f64;
            for j in 0..3 {
                // A zero mean short-circuits before the deviation pass
                // in the batch path; its sum of squares goes unread.
                if means[j] != 0.0 {
                    covs[j] = (var.sq[j] / n).sqrt() / means[j].abs() * 100.0;
                }
            }
        }
        let [sm_cov, mem_cov, mem_size_cov] = covs;
        Ok((phases, Some(ActiveVariability { sm_cov, mem_cov, mem_size_cov })))
    })
}

/// Number of bins in the per-job peak-SM histogram.
const SM_PEAK_BINS: usize = 20;

/// Relative-error parameter of the run-time quantile sketch: quantile
/// estimates are within ±2% of the true per-job run time.
const RUN_TIME_SKETCH_ALPHA: f64 = 0.02;

/// Mergeable one-pass summary of the telemetry stage, folded as jobs
/// complete.
///
/// Everything in here is aggregate state — Welford accumulators, a
/// log-bucket quantile sketch, a fixed-bin histogram — so the memory
/// cost is constant in the number of jobs and two summaries built from
/// disjoint job sets merge exactly (order-independently) into the
/// summary of the union. Folded in completion order by the simulation,
/// it is byte-identical across thread budgets.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryStreamSummary {
    /// GPU jobs folded in.
    pub gpu_jobs: u64,
    /// Sketch of per-job run times (seconds).
    pub run_time: LogQuantileSketch,
    /// Per-job mean SM utilization (%), averaged across the job's GPUs.
    pub sm_mean: Welford,
    /// Per-job mean board power (W), averaged across the job's GPUs.
    pub power_mean: Welford,
    /// Histogram of per-job peak SM utilization (%), over `[0, 100]`.
    pub sm_peak: MergeHistogram,
    /// Detailed-subset jobs folded in.
    pub detailed_jobs: u64,
    /// Active-time fraction over the detailed subset.
    pub active_fraction: Welford,
}

impl Default for TelemetryStreamSummary {
    fn default() -> Self {
        TelemetryStreamSummary::new()
    }
}

impl TelemetryStreamSummary {
    /// An empty summary.
    #[allow(
        clippy::expect_used,
        reason = "the sketch's alpha and the histogram's bounds are constants that both \
                  constructors accept, as the summary's unit tests show"
    )]
    pub fn new() -> Self {
        TelemetryStreamSummary {
            gpu_jobs: 0,
            run_time: LogQuantileSketch::new(RUN_TIME_SKETCH_ALPHA)
                .expect("compile-time alpha is valid"),
            sm_mean: Welford::new(),
            power_mean: Welford::new(),
            sm_peak: MergeHistogram::new(0.0, 100.0, SM_PEAK_BINS)
                .expect("compile-time bounds are valid"),
            detailed_jobs: 0,
            active_fraction: Welford::new(),
        }
    }

    /// Folds one GPU job's end-of-run aggregates. `sm_means`,
    /// `power_means` and `sm_maxes` are per-GPU values; the job-level
    /// value is their mean (peak for `sm_maxes`).
    pub fn record_gpu_job(&mut self, run_time_secs: f64, per_gpu: &[crate::GpuAggregates]) {
        self.gpu_jobs += 1;
        self.run_time.push(run_time_secs);
        if !per_gpu.is_empty() {
            let g = per_gpu.len() as f64;
            self.sm_mean.push(per_gpu.iter().map(|a| a.sm_util.mean).sum::<f64>() / g);
            self.power_mean.push(per_gpu.iter().map(|a| a.power_w.mean).sum::<f64>() / g);
            self.sm_peak.push(per_gpu.iter().map(|a| a.sm_util.max).fold(0.0, f64::max));
        }
    }

    /// Folds one detailed-subset job's phase statistics.
    pub fn record_detail(&mut self, phases: &PhaseStats) {
        self.detailed_jobs += 1;
        self.active_fraction.push(phases.active_fraction);
    }

    /// Merges another summary built from a disjoint job set. Exact and
    /// order-independent for the sketch and histogram; the Welford
    /// merge uses the standard pairwise combination.
    ///
    /// # Errors
    ///
    /// Returns an error if the sketch or histogram parameters differ.
    pub fn merge(&mut self, other: &TelemetryStreamSummary) -> Result<(), StatsError> {
        self.run_time.merge(&other.run_time)?;
        self.sm_peak.merge(&other.sm_peak)?;
        self.gpu_jobs += other.gpu_jobs;
        self.sm_mean.merge(&other.sm_mean);
        self.power_mean.merge(&other.power_mean);
        self.detailed_jobs += other.detailed_jobs;
        self.active_fraction.merge(&other.active_fraction);
        Ok(())
    }

    /// Renders the summary as stable plain text (one `key value` pair
    /// per line) for reports and determinism tests.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let fmt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.4}"));
        out.push_str(&format!("gpu_jobs {}\n", self.gpu_jobs));
        out.push_str(&format!(
            "run_time_p50_s {}\n",
            self.run_time.quantile(0.5).map_or_else(|| "-".to_string(), |v| format!("{v:.1}"))
        ));
        out.push_str(&format!(
            "run_time_p95_s {}\n",
            self.run_time.quantile(0.95).map_or_else(|| "-".to_string(), |v| format!("{v:.1}"))
        ));
        out.push_str(&format!("sm_mean_pct {}\n", fmt(self.sm_mean.mean())));
        out.push_str(&format!("sm_mean_cov_pct {}\n", fmt(self.sm_mean.cov_percent())));
        out.push_str(&format!("power_mean_w {}\n", fmt(self.power_mean.mean())));
        let saturated: u64 = self
            .sm_peak
            .counts()
            .iter()
            .enumerate()
            .filter(|(i, _)| self.sm_peak.bin_lo(*i) >= 95.0)
            .map(|(_, c)| c)
            .sum();
        out.push_str(&format!("sm_peak_ge95_jobs {}\n", saturated + self.sm_peak.above()));
        out.push_str(&format!("detailed_jobs {}\n", self.detailed_jobs));
        out.push_str(&format!("active_fraction_mean {}\n", fmt(self.active_fraction.mean())));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::GpuAggregates;
    use crate::metrics::GpuMetricSample;
    use crate::phases::{active_variability, phase_stats};
    use crate::sampler::GpuTimeSeries;
    use proptest::prelude::*;

    fn series_from_triples(triples: &[[f64; 3]]) -> GpuTimeSeries {
        GpuTimeSeries {
            period_secs: 0.1,
            per_gpu: vec![triples
                .iter()
                .map(|&[sm, mem, msize]| GpuMetricSample {
                    sm_util: sm,
                    mem_util: mem,
                    mem_size_util: msize,
                    ..Default::default()
                })
                .collect()],
        }
    }

    fn batch_reference(triples: &[[f64; 3]]) -> (PhaseStats, Option<ActiveVariability>) {
        let series = series_from_triples(triples);
        (phase_stats(&series).unwrap(), active_variability(&series).unwrap())
    }

    #[test]
    fn stream_matches_batch_on_mixed_series() {
        let mut triples = Vec::new();
        for k in 0..40 {
            triples.push([0.0, 0.0, 5.0 + k as f64 * 0.01]);
        }
        for k in 0..60 {
            let w = (k as f64 * 0.3).sin();
            triples.push([60.0 + 10.0 * w, 30.0 + 5.0 * w, 40.0]);
        }
        for _ in 0..25 {
            triples.push([0.0, 0.0, 0.0]);
        }
        let (bp, bv) = batch_reference(&triples);
        let (sp, sv) = stream_detail(|sink| {
            for &t in &triples {
                sink.push(t);
            }
        })
        .unwrap();
        assert_eq!(sp, bp);
        assert_eq!(sv, bv);
    }

    #[test]
    fn bulk_runs_match_per_tick_pushes() {
        let pieces: &[([f64; 3], usize)] =
            &[([0.0, 0.0, 0.0], 30), ([70.0, 20.0, 35.0], 45), ([0.0, 1.0, 2.0], 12)];
        let bulk = stream_detail(|sink| {
            for &(v, n) in pieces {
                sink.push_run(v, n);
            }
        })
        .unwrap();
        let single = stream_detail(|sink| {
            for &(v, n) in pieces {
                for _ in 0..n {
                    sink.push(v);
                }
            }
        })
        .unwrap();
        assert_eq!(bulk, single);
    }

    #[test]
    fn all_idle_stream_has_no_variability() {
        let (phases, variability) =
            stream_detail(|sink| sink.push_run([0.0, 0.0, 0.0], 50)).unwrap();
        assert_eq!(phases.active_fraction, 0.0);
        assert_eq!(variability, None);
        let (bp, bv) = batch_reference(&vec![[0.0, 0.0, 0.0]; 50]);
        assert_eq!(phases, bp);
        assert_eq!(variability, bv);
    }

    #[test]
    fn empty_stream_is_an_error() {
        assert_eq!(stream_detail(|_| {}), Err(StatsError::EmptyInput));
    }

    #[test]
    fn non_finite_tick_is_an_error() {
        let err = stream_detail(|sink| {
            sink.push([1.0, 0.0, 0.0]);
            sink.push([f64::NAN, 0.0, 0.0]);
        });
        assert_eq!(err, Err(StatsError::NonFinite { index: 1 }));
    }

    #[test]
    fn scratch_is_reused_across_jobs() {
        // Two consecutive jobs on the same thread must not see each
        // other's ticks or sines.
        for (amp, period) in [(20.0, 0.02), (5.0, 0.3)] {
            let mut triples = Vec::new();
            let got = stream_detail(|sink| {
                triples.clear();
                wave(sink, &mut triples, 300, amp, period, &mut 0);
            })
            .unwrap();
            assert_eq!(got, batch_reference(&triples));
        }
        let idle = stream_detail(|sink| sink.push_run([0.0, 0.0, 0.0], 40)).unwrap();
        assert_eq!(idle.0.active_fraction, 0.0);
    }

    /// Pushes `ticks` wave ticks in blocks of up to 256 whose sines come
    /// through the hook, appending them to `pushed` and counting the
    /// angle evaluations in `angles` — a producer as the workload
    /// crate's is.
    fn wave(
        sink: &mut impl Util3Sink,
        pushed: &mut Vec<[f64; 3]>,
        ticks: usize,
        amp: f64,
        period: f64,
        angles: &mut usize,
    ) {
        let mut sines = [0.0; 256];
        let mut k = 0;
        while k < ticks {
            let len = (ticks - k).min(sines.len());
            sink.sines(&mut sines[..len], |i| {
                *angles += 1;
                period * (k + i) as f64
            });
            let block: Vec<[f64; 3]> =
                sines[..len].iter().map(|s| [50.0 + amp * s, 30.0 + 5.0 * s, 12.5]).collect();
            sink.push_block(&block);
            pushed.extend_from_slice(&block);
            k += len;
        }
    }

    /// The memory contract, checked by counting rather than timing: a
    /// job's ticks are never stored, the replays re-run the producer
    /// and read every sine back from the tape, and the tape holds one
    /// `f64` per wave tick.
    #[test]
    fn replays_read_the_sine_tape() {
        const WAVE_TICKS: usize = 1000;
        // Without a flicker, smoothing merges nothing: the first walk's
        // mean stands and one replay folds the variance. A 3-tick idle
        // flicker inside the wave is merged into the active phase, so
        // the mean is folded again on a replay of its own.
        for (flicker, expected_walks) in [(0, 2), (3, 3)] {
            let (mut walks, mut angles) = (0, 0);
            let mut triples = Vec::new();
            let got = stream_detail(|sink| {
                walks += 1;
                triples.clear();
                sink.push_run([0.0; 3], 40);
                triples.extend(std::iter::repeat_n([0.0; 3], 40));
                wave(sink, &mut triples, WAVE_TICKS / 2, 20.0, 0.01, &mut angles);
                sink.push_run([0.0, 1.0, 2.0], flicker);
                triples.extend(std::iter::repeat_n([0.0, 1.0, 2.0], flicker));
                wave(sink, &mut triples, WAVE_TICKS / 2, 20.0, 0.01, &mut angles);
            })
            .unwrap();
            assert_eq!(got, batch_reference(&triples), "flicker {flicker}");
            assert_eq!(walks, expected_walks, "flicker {flicker}: producer runs");
            assert_eq!(angles, WAVE_TICKS, "flicker {flicker}: a replay evaluated an angle");
            let tape = SINE_TAPE.with(|t| t.borrow().len());
            assert_eq!(tape, WAVE_TICKS, "flicker {flicker}: tape entries");
        }
    }

    /// One producer call.
    #[derive(Debug, Clone)]
    enum Op {
        Push([f64; 3]),
        Run([f64; 3], usize),
        Block(Vec<[f64; 3]>),
    }

    impl Op {
        fn feed(&self, sink: &mut impl Util3Sink) {
            match self {
                Op::Push(v) => sink.push(*v),
                Op::Run(v, n) => sink.push_run(*v, *n),
                Op::Block(b) => sink.push_block(b),
            }
        }

        fn ticks(&self) -> Vec<[f64; 3]> {
            match self {
                Op::Push(v) => vec![*v],
                Op::Run(v, n) => vec![*v; *n],
                Op::Block(b) => b.clone(),
            }
        }
    }

    /// Raw draws for one tick: a pick and three magnitudes in
    /// `[0, 100)`.
    type TickSeed = (u8, f64, f64, f64);

    fn tick_seed() -> impl Strategy<Value = TickSeed> {
        (0u8..4, 0.0..100.0f64, 0.0..100.0f64, 0.0..100.0f64)
    }

    /// A tick on one side of the activity threshold. Idle SM values
    /// include the threshold itself, and mem and mem_size are
    /// sometimes zero.
    fn tick(active: bool, (pick, x, y, z): TickSeed) -> [f64; 3] {
        let sm = match (active, pick) {
            (true, 0) => ACTIVE_SM_THRESHOLD + 0.01,
            (true, _) => 0.6 + x * 0.994,
            (false, 0) => 0.0,
            (false, 1) => ACTIVE_SM_THRESHOLD,
            (false, _) => x / 200.0,
        };
        [sm, if pick == 3 { 0.0 } else { y }, if pick == 2 { 0.0 } else { z }]
    }

    /// One op of one activity: a push, a run or a block, from one to 39
    /// ticks long, so many streams hold phases shorter than
    /// `MIN_PHASE_SAMPLES`.
    fn op() -> impl Strategy<Value = Op> {
        (
            0u8..3,
            proptest::strategy::weighted_bool(0.5),
            proptest::collection::vec(tick_seed(), 1..40),
        )
            .prop_map(|(kind, active, seeds)| match kind {
                0 => Op::Push(tick(active, seeds[0])),
                1 => Op::Run(tick(active, seeds[0]), seeds.len()),
                _ => Op::Block(seeds.into_iter().map(|s| tick(active, s)).collect()),
            })
    }

    /// A stream of ops, with mem or mem_size zeroed throughout (a zero
    /// mean) and up to two NaN or infinite values planted at
    /// `(op, metric)`.
    fn stream() -> impl Strategy<Value = Vec<Op>> {
        let zero = (proptest::strategy::weighted_bool(0.2), proptest::strategy::weighted_bool(0.2));
        let bad = (
            proptest::strategy::weighted_bool(0.4),
            proptest::collection::vec((0usize..1000, 0usize..3, 0u8..3), 1..3),
        );
        let ops = proptest::collection::vec(op(), 1..14);
        (ops, zero, bad).prop_map(|(mut ops, zero, (planted, bad))| {
            for op in &mut ops {
                let vs: Vec<&mut [f64; 3]> = match op {
                    Op::Push(v) | Op::Run(v, _) => vec![v],
                    Op::Block(b) => b.iter_mut().collect(),
                };
                for v in vs {
                    if zero.0 {
                        v[1] = 0.0;
                    }
                    if zero.1 {
                        v[2] = 0.0;
                    }
                }
            }
            // The op's first tick takes the value, so bad values land
            // in active and idle samples alike.
            for &(at, metric, kind) in bad.iter().filter(|_| planted) {
                let x = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][kind as usize];
                let n = ops.len();
                match &mut ops[at % n] {
                    Op::Push(v) | Op::Run(v, _) => v[metric] = x,
                    Op::Block(b) => b[0][metric] = x,
                }
            }
            ops
        })
    }

    proptest::proptest! {
        /// `stream_detail` agrees with `phase_stats` +
        /// `active_variability` on the materialized series, values and
        /// `NonFinite { index }` errors alike, for any mix of entry
        /// points.
        #[test]
        fn prop_stream_matches_batch_reference(ops in stream()) {
            let triples: Vec<[f64; 3]> = ops.iter().flat_map(Op::ticks).collect();
            let series = series_from_triples(&triples);
            let expected = phase_stats(&series)
                .and_then(|p| active_variability(&series).map(|v| (p, v)));
            let got = stream_detail(|sink| ops.iter().for_each(|op| op.feed(sink)));
            prop_assert_eq!(got, expected);
        }
    }

    /// The differential test above is only as good as its streams:
    /// over the same number of draws, they reach every branch the
    /// satellite cases name.
    #[test]
    fn stream_generator_reaches_every_case() {
        use sc_stats::segment::segment_intervals;
        let mut rng =
            proptest::test_runner::TestRng::for_test("stream_generator_reaches_every_case");
        let mut seen = [0usize; 8];
        for _ in 0..256 {
            let triples: Vec<[f64; 3]> =
                stream().generate(&mut rng).iter().flat_map(Op::ticks).collect();
            let series = series_from_triples(&triples);
            let sm: Vec<f64> = triples.iter().map(|v| v[0]).collect();
            let merged = match (
                segment_intervals(&sm, ACTIVE_SM_THRESHOLD, MIN_PHASE_SAMPLES),
                segment_intervals(&sm, ACTIVE_SM_THRESHOLD, 1),
            ) {
                (Ok(smooth), Ok(raw)) => smooth != raw,
                _ => false,
            };
            let has_bad = triples.iter().flatten().any(|x| !x.is_finite());
            let case = match (phase_stats(&series), active_variability(&series)) {
                (Err(_), _) => 0,
                (Ok(_), Err(_)) => 1,
                (Ok(_), Ok(_)) if has_bad => 2,
                (Ok(_), Ok(Some(v))) if v.mem_cov == 0.0 || v.mem_size_cov == 0.0 => 3,
                (Ok(_), Ok(Some(_))) if merged => 4,
                (Ok(_), Ok(Some(_))) => 5,
                (Ok(_), Ok(None)) => 6,
            };
            seen[case] += 1;
            if triples.len() == 1 {
                seen[7] += 1;
            }
        }
        // Non-finite sm; non-finite mem or mem_size in an active
        // sample; non-finite values only in idle samples; a zero mean;
        // a merged run; a plain stream; an all-idle stream; one tick.
        assert!(seen.iter().all(|&n| n > 0), "cases never drawn: {seen:?}");
    }

    #[test]
    fn summary_merge_matches_single_fold() {
        let mk_agg = |sm_mean: f64, sm_max: f64, power: f64| {
            let mut a = GpuAggregates::new();
            a.sm_util.mean = sm_mean;
            a.sm_util.max = sm_max;
            a.power_w.mean = power;
            a
        };
        let jobs: Vec<(f64, Vec<GpuAggregates>)> = (0..32)
            .map(|i| {
                let rt = 40.0 + i as f64 * 13.7;
                let aggs =
                    vec![mk_agg(10.0 + i as f64, 50.0 + i as f64, 120.0), mk_agg(8.0, 97.0, 90.0)];
                (rt, aggs)
            })
            .collect();
        let mut whole = TelemetryStreamSummary::new();
        for (rt, aggs) in &jobs {
            whole.record_gpu_job(*rt, aggs);
        }
        let mut left = TelemetryStreamSummary::new();
        let mut right = TelemetryStreamSummary::new();
        for (i, (rt, aggs)) in jobs.iter().enumerate() {
            if i % 2 == 0 { &mut left } else { &mut right }.record_gpu_job(*rt, aggs);
        }
        left.merge(&right).unwrap();
        assert_eq!(whole.gpu_jobs, left.gpu_jobs);
        assert_eq!(whole.run_time, left.run_time, "sketch merges are exact");
        assert_eq!(whole.sm_peak, left.sm_peak, "histogram merges are exact");
        assert_eq!(whole.sm_mean.count(), left.sm_mean.count());
        let (a, b) = (whole.sm_mean.mean().unwrap(), left.sm_mean.mean().unwrap());
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn summary_render_is_stable() {
        let mut s = TelemetryStreamSummary::new();
        let mut a = GpuAggregates::new();
        a.sm_util.mean = 42.0;
        a.sm_util.max = 99.9;
        a.power_w.mean = 200.0;
        s.record_gpu_job(120.0, &[a]);
        s.record_detail(&PhaseStats {
            active_fraction: 0.75,
            active_interval_cov: None,
            idle_interval_cov: None,
            active_intervals: 1,
            idle_intervals: 1,
        });
        let text = s.render();
        assert!(text.contains("gpu_jobs 1\n"), "{text}");
        assert!(text.contains("sm_peak_ge95_jobs 1\n"), "{text}");
        assert!(text.contains("active_fraction_mean 0.7500\n"), "{text}");
        assert_eq!(text, s.render());
    }
}
