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
//!   `[sm, mem, mem_size]` utilization triple per 100 ms tick, with a
//!   bulk entry point for constant spans.
//! - [`DetailSink`] consumes the stream into an incremental
//!   run-length segmentation plus a run-length-encoded spill of the
//!   triples — `O(#runs)` memory instead of `O(#ticks x #gpus)` sample
//!   structs — and [`stream_detail`] reduces it to exactly the
//!   [`PhaseStats`] / [`ActiveVariability`] the batch path computed.
//!   The spill buffer is thread-local scratch, reused across jobs on
//!   the same worker, so a million-job run holds one buffer per worker
//!   rather than one series per job.
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
//! the `mean == 0 → CoV 0` convention). Tests in this module and in the
//! workload crate assert equality, not approximation.

use crate::phases::{ActiveVariability, PhaseStats, ACTIVE_SM_THRESHOLD, MIN_PHASE_SAMPLES};
use sc_stats::segment::{IntervalKind, SegmentBuilder, Segmentation};
use sc_stats::{LogQuantileSketch, MergeHistogram, StatsError, Welford};
use std::cell::RefCell;

/// Consumer of a job-level utilization stream: one `[sm, mem,
/// mem_size]` triple per sampler tick, in tick order.
///
/// The bulk [`push_run`](Util3Sink::push_run) entry point lets
/// producers forward whole constant spans (idle phases, flat active
/// phases) in one call; the default implementation degrades to
/// repeated [`push`](Util3Sink::push) calls, and implementations must
/// preserve that equivalence.
pub trait Util3Sink {
    /// Consumes the triple for the next tick.
    fn push(&mut self, v: [f64; 3]);

    /// Consumes `count` consecutive ticks that all carry `v`.
    fn push_run(&mut self, v: [f64; 3], count: usize) {
        for _ in 0..count {
            self.push(v);
        }
    }
}

/// Run-length-encoded spill of one job's tick stream: one `[sm, mem,
/// mem_size]` value per entry, with a sparse side list of bulk counts.
///
/// Per-tick wave samples (the overwhelming majority of entries) cost
/// 24 bytes each; constant spans — a handful per job — cost one entry
/// plus one `(index, count)` pair. Keeping the counts out of line
/// shrinks the hot push and the reduction walks by a quarter of their
/// memory traffic versus an inline-count layout.
#[derive(Debug, Default)]
struct Spill {
    /// One entry per run, in tick order.
    values: Vec<[f64; 3]>,
    /// `(index into values, tick count)` for entries covering more than
    /// one tick, in ascending index order.
    bulks: Vec<(u32, u32)>,
}

/// Streaming consumer for one detailed-subset job: an incremental
/// SM-series segmentation plus a run-length-encoded spill of the
/// triples, from which [`stream_detail`] reproduces the batch phase
/// statistics exactly.
#[derive(Debug)]
pub struct DetailSink<'a> {
    seg: SegmentBuilder,
    spill: &'a mut Spill,
}

impl<'a> DetailSink<'a> {
    /// A sink spilling into `spill` (cleared first), segmenting with
    /// the paper's [`ACTIVE_SM_THRESHOLD`] / [`MIN_PHASE_SAMPLES`].
    fn new(spill: &'a mut Spill) -> Self {
        spill.values.clear();
        spill.bulks.clear();
        DetailSink { seg: SegmentBuilder::new(ACTIVE_SM_THRESHOLD, MIN_PHASE_SAMPLES), spill }
    }

    /// Ticks consumed so far.
    pub fn ticks(&self) -> usize {
        self.seg.samples()
    }
}

impl Util3Sink for DetailSink<'_> {
    #[inline]
    fn push(&mut self, v: [f64; 3]) {
        self.seg.push(v[0]);
        self.spill.values.push(v);
    }

    fn push_run(&mut self, v: [f64; 3], count: usize) {
        if count == 0 {
            return;
        }
        if count == 1 {
            self.push(v);
            return;
        }
        self.seg.push_run(v[0], count);
        let mut count = count;
        while count > 0 {
            let take = count.min(u32::MAX as usize);
            let index =
                u32::try_from(self.spill.values.len()).expect("spill entries stay under 2^32");
            self.spill.values.push(v);
            if take > 1 {
                self.spill.bulks.push((index, take as u32));
            }
            count -= take;
        }
    }
}

thread_local! {
    /// Per-worker spill scratch, reused across jobs (the "bounded spill
    /// window": peak memory is one job's run list per worker, not one
    /// series per job).
    static SPILL_SCRATCH: RefCell<Spill> =
        const { RefCell::new(Spill { values: Vec::new(), bulks: Vec::new() }) };
}

/// Runs `produce` against a thread-local [`DetailSink`] and reduces the
/// consumed stream to the batch pipeline's per-job detail statistics.
///
/// Equivalent — bit for bit — to materializing the job-level series,
/// calling `phase_stats`, and calling `active_variability`, but in one
/// pass over the stream with `O(#runs)` memory.
///
/// # Errors
///
/// Exactly the batch path's errors: [`StatsError::EmptyInput`] if no
/// tick was pushed and [`StatsError::NonFinite`] if a pushed value was
/// NaN or infinite.
pub fn stream_detail<F>(produce: F) -> Result<(PhaseStats, Option<ActiveVariability>), StatsError>
where
    F: FnOnce(&mut DetailSink<'_>),
{
    SPILL_SCRATCH.with(|cell| {
        let mut spill = cell.borrow_mut();
        let mut sink = DetailSink::new(&mut spill);
        produce(&mut sink);
        let DetailSink { seg, spill } = sink;
        finish_detail(seg, spill)
    })
}

/// Reduces a consumed stream (segmentation builder + spill runs) to
/// phase statistics, replicating the batch formulas exactly.
fn finish_detail(
    seg: SegmentBuilder,
    spill: &Spill,
) -> Result<(PhaseStats, Option<ActiveVariability>), StatsError> {
    let seg = seg.finish()?;
    let phases = PhaseStats {
        active_fraction: seg.active_fraction(),
        active_interval_cov: seg.interval_cov(IntervalKind::Active),
        idle_interval_cov: seg.interval_cov(IntervalKind::Idle),
        active_intervals: seg.count_of(IntervalKind::Active),
        idle_intervals: seg.count_of(IntervalKind::Idle),
    };
    let active_samples: usize =
        seg.intervals().iter().filter(|iv| iv.kind == IntervalKind::Active).map(|iv| iv.len).sum();
    if active_samples == 0 {
        return Ok((phases, None));
    }
    let [sm_cov, mem_cov, mem_size_cov] = active_covs(spill, &seg, active_samples)?;
    Ok((phases, Some(ActiveVariability { sm_cov, mem_cov, mem_size_cov })))
}

/// CoV (%) of all three metrics over the active-phase samples,
/// replaying the batch accumulation order exactly: per metric, the
/// picked values are the active intervals' samples in index order; the
/// mean is a sequential sum from 0.0; the variance is a second
/// sequential pass of `(v - m) * (v - m)`; and a zero mean
/// short-circuits to 0 before the standard deviation is computed,
/// matching [`sc_stats::coefficient_of_variation`].
///
/// The three per-metric folds are independent accumulation chains, so
/// they share one walk per pass (two walks total instead of six)
/// without perturbing any chain's operation order — each stays
/// bit-identical to a standalone fold.
fn active_covs(
    spill: &Spill,
    seg: &Segmentation,
    active_samples: usize,
) -> Result<[f64; 3], StatsError> {
    const NONE: usize = usize::MAX;
    let mut sums = [0.0f64; 3];
    let mut bad = [NONE; 3];
    let mut pos = 0usize;
    for_each_active(spill, seg, |piece| match piece {
        Piece::Slice(vs) => {
            for v in vs {
                if !(v[0].is_finite() && v[1].is_finite() && v[2].is_finite()) {
                    for j in 0..3 {
                        if !v[j].is_finite() && bad[j] == NONE {
                            bad[j] = pos;
                        }
                    }
                }
                sums[0] += v[0];
                sums[1] += v[1];
                sums[2] += v[2];
                pos += 1;
            }
        }
        Piece::Run(v, count) => {
            if !(v[0].is_finite() && v[1].is_finite() && v[2].is_finite()) {
                for j in 0..3 {
                    if !v[j].is_finite() && bad[j] == NONE {
                        bad[j] = pos;
                    }
                }
            }
            for _ in 0..count {
                sums[0] += v[0];
                sums[1] += v[1];
                sums[2] += v[2];
            }
            pos += count;
        }
    });
    // The batch path computes the metrics one after another, so a
    // non-finite sm sample errors before mem is ever touched: report
    // the first bad metric in metric order.
    for &first_bad in &bad {
        if first_bad != NONE {
            return Err(StatsError::NonFinite { index: first_bad });
        }
    }
    let n = active_samples as f64;
    let means = [sums[0] / n, sums[1] / n, sums[2] / n];
    let mut covs = [0.0f64; 3];
    if means.iter().any(|&m| m != 0.0) {
        let mut sq = [0.0f64; 3];
        for_each_active(spill, seg, |piece| match piece {
            Piece::Slice(vs) => {
                for v in vs {
                    let d = [v[0] - means[0], v[1] - means[1], v[2] - means[2]];
                    sq[0] += d[0] * d[0];
                    sq[1] += d[1] * d[1];
                    sq[2] += d[2] * d[2];
                }
            }
            Piece::Run(v, count) => {
                let d = [v[0] - means[0], v[1] - means[1], v[2] - means[2]];
                let dd = [d[0] * d[0], d[1] * d[1], d[2] * d[2]];
                for _ in 0..count {
                    sq[0] += dd[0];
                    sq[1] += dd[1];
                    sq[2] += dd[2];
                }
            }
        });
        for j in 0..3 {
            // A zero mean short-circuited before the deviation pass in
            // the batch path; its sq fold is discarded unseen here.
            if means[j] != 0.0 {
                covs[j] = (sq[j] / n).sqrt() / means[j].abs() * 100.0;
            }
        }
    }
    Ok(covs)
}

/// A maximal piece of the active-sample walk: either a slice of
/// consecutive unit entries (one tick each, in index order) or one bulk
/// run (`count` ticks of the same value).
enum Piece<'a> {
    /// Consecutive unit-count entries.
    Slice(&'a [[f64; 3]]),
    /// One bulk run: the value and its tick count (clipped to the
    /// enclosing interval).
    Run([f64; 3], usize),
}

/// Visits the spilled runs restricted to active intervals, in sample
/// index order, as [`Piece`]s. The segmentation's intervals partition
/// the sample range, so a merged walk over entries, bulk counts and
/// intervals covers everything; runs of unit entries are handed out as
/// whole slices so the reduction's hot loop carries no per-entry
/// bookkeeping.
fn for_each_active(spill: &Spill, seg: &Segmentation, mut f: impl FnMut(Piece<'_>)) {
    let mut bulks = spill.bulks.iter().peekable();
    let mut entry = 0usize; // index of the next spill entry
    let mut carry = 0usize; // ticks left in a started bulk entry
    let mut pos = 0usize; // sample position of the walk
    for iv in seg.intervals() {
        let iv_end = iv.start + iv.len;
        let active = iv.kind == IntervalKind::Active;
        while pos < iv_end {
            if carry > 0 {
                let take = carry.min(iv_end - pos);
                if active {
                    f(Piece::Run(spill.values[entry], take));
                }
                pos += take;
                carry -= take;
                if carry == 0 {
                    entry += 1;
                }
                continue;
            }
            match bulks.peek() {
                Some(&&(bi, count)) if bi as usize == entry => {
                    carry = count as usize;
                    bulks.next();
                }
                next => {
                    // Unit entries until the interval ends or the next
                    // bulk entry starts.
                    let until = match next {
                        Some(&&(bi, _)) => bi as usize,
                        None => spill.values.len(),
                    };
                    let m = (iv_end - pos).min(until - entry);
                    if m == 0 {
                        // The segmentation partitions the pushed
                        // samples; entries only run out at the end.
                        debug_assert_eq!(entry, spill.values.len());
                        return;
                    }
                    if active {
                        f(Piece::Slice(&spill.values[entry..entry + m]));
                    }
                    entry += m;
                    pos += m;
                }
            }
        }
    }
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
        // other's ticks.
        let first = stream_detail(|sink| sink.push_run([80.0, 40.0, 20.0], 40)).unwrap();
        let second = stream_detail(|sink| sink.push_run([0.0, 0.0, 0.0], 40)).unwrap();
        assert_eq!(first.0.active_fraction, 1.0);
        assert_eq!(second.0.active_fraction, 0.0);
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
