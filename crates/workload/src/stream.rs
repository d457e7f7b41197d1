//! Streaming producer for the detailed-telemetry pipeline.
//!
//! [`JobGroundTruth::stream_util3`] walks a job's ground truth tick by
//! tick and pushes the **job-level** `[sm, mem, mem_size]` utilization
//! triple of every 100 ms sample into a [`Util3Sink`] — the exact
//! values the batch path obtained by materializing the per-GPU
//! [`GpuTimeSeries`](sc_telemetry::sampler::GpuTimeSeries) and
//! averaging across GPUs, but computed in one pass with `O(#GPUs)`
//! state.
//!
//! Two structural facts make this fast without changing a single bit:
//!
//! 1. **Shared phase skeletons.** [`JobGroundTruth::generate`] clones
//!    one reference process across the job's active GPUs, scaling only
//!    the base levels; phase boundaries, wave periods, wave shifts and
//!    spike schedules are identical. All eight `sin` evaluations the
//!    batch sampler performed per tick per GPU therefore evaluate the
//!    sine of the *same angle* — one `sin` per skeleton per tick
//!    serves every member GPU. GPUs that do not share structure (idle
//!    GPUs, hand-built truths) simply form one-member skeletons, so
//!    the walk is exact for arbitrary inputs.
//! 2. **Constant spans.** Idle phases and flat active phases (no wave
//!    amplitude on any member) hold a constant triple between spike
//!    boundaries; those spans are forwarded through
//!    [`Util3Sink::push_run`] in one call, using the same strict
//!    `k * period < end` tick arithmetic as the batch sampler's fast
//!    path.
//!
//! Per-member levels go through the same [`Phase::amplitude`] /
//! clamp arithmetic as [`Phase::level_at`], in the same operation
//! order, so every pushed value is the f64 the batch sampler produced.
//! The workload crate's tests assert bit equality against
//! `sample_series` + `phase_stats` + `active_variability` across
//! seeds, GPU mixes, spikes, and duration edge cases.

use crate::truth::{JobGroundTruth, Phase, Spike};
use sc_telemetry::metrics::GpuResource;
use sc_telemetry::sampler::tick_count;
use sc_telemetry::stream::Util3Sink;

/// One GPU inside a skeleton: its own per-phase levels, with the
/// current phase's base levels and wave amplitudes cached.
struct Member<'a> {
    /// Index into the job's GPU list (job-level averaging is in
    /// ascending GPU order, so the output slot matters).
    gpu: usize,
    phases: &'a [Phase],
    base: [f64; 3],
    amp: [f64; 3],
}

/// A group of GPUs sharing one phase structure (boundaries, waves,
/// spikes), walked with a single cursor and a single `sin` per tick.
struct Skeleton<'a> {
    /// Structure source (the first member's phases).
    phases: &'a [Phase],
    members: Vec<Member<'a>>,
    /// Current phase index; advances monotonically with `t`.
    pi: usize,
    // Caches for `phases[pi]`:
    active: bool,
    start: f64,
    /// Phase end, or `+inf` on the last phase (`phase_at` clamps past
    /// the covered range, so the final state extends forever).
    end: f64,
    wave_period: f64,
    wave_shift: f64,
    spikes: &'a [Spike],
    /// Whether any member has a non-zero utilization wave amplitude in
    /// the current phase — the only case that needs a `sin`.
    any_wave: bool,
    /// Whether this skeleton needs a per-tick evaluation in the current
    /// sub-span (set by [`Skeleton::prepare_span`]). Constant skeletons
    /// have their member values written once into the shared slots.
    waving: bool,
}

/// The three streamed resources, in output order.
const UTIL3: [GpuResource; 3] = [GpuResource::Sm, GpuResource::Memory, GpuResource::MemorySize];

/// Whether two phase lists share structure: equal boundaries, activity,
/// wave geometry and spike schedules (base levels are free — they stay
/// per-member).
fn same_structure(a: &[Phase], b: &[Phase]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.start == y.start
                && x.len == y.len
                && x.active == y.active
                && x.wave_period == y.wave_period
                && x.wave_shift == y.wave_shift
                && x.spikes == y.spikes
        })
}

impl<'a> Skeleton<'a> {
    fn new(phases: &'a [Phase], gpu: usize) -> Self {
        Skeleton {
            phases,
            members: vec![Member { gpu, phases, base: [0.0; 3], amp: [0.0; 3] }],
            pi: 0,
            active: false,
            start: 0.0,
            end: 0.0,
            wave_period: 1.0,
            wave_shift: 0.0,
            spikes: &[],
            any_wave: false,
            waving: false,
        }
    }

    /// Recomputes the phase caches after `pi` changed.
    fn refresh(&mut self) {
        let ph = &self.phases[self.pi];
        self.active = ph.active;
        self.start = ph.start;
        self.end = if self.pi + 1 == self.phases.len() { f64::INFINITY } else { ph.end() };
        self.wave_period = ph.wave_period;
        self.wave_shift = ph.wave_shift;
        self.spikes = &ph.spikes;
        let mut any_wave = false;
        for m in &mut self.members {
            let mp = &m.phases[self.pi];
            m.base = [mp.levels.sm, mp.levels.mem, mp.levels.mem_size];
            for (j, r) in UTIL3.iter().enumerate() {
                m.amp[j] = mp.amplitude(*r);
                any_wave |= m.amp[j] != 0.0;
            }
        }
        self.any_wave = any_wave;
    }

    /// Advances the cursor to the phase containing `t` (monotone `t`
    /// makes this equivalent to the batch path's binary search, which
    /// clamps past the last phase).
    fn advance_to(&mut self, t: f64) {
        let mut moved = false;
        while self.pi + 1 < self.phases.len() && self.phases[self.pi].end() <= t {
            self.pi += 1;
            moved = true;
        }
        if moved {
            self.refresh();
        }
    }

    /// Spike mask for the three streamed resources at time `t`.
    fn spike_mask(&self, rel: f64) -> [bool; 3] {
        let mut mask = [false; 3];
        for s in self.spikes {
            if rel >= s.offset && rel < s.offset + s.len {
                match s.resource {
                    GpuResource::Sm => mask[0] = true,
                    GpuResource::Memory => mask[1] = true,
                    GpuResource::MemorySize => mask[2] = true,
                    _ => {}
                }
            }
        }
        mask
    }

    /// Prepares the skeleton for the sub-span starting at `t` and
    /// returns the span end (`> t`, absolute time) up to which its
    /// prepared state is valid:
    ///
    /// - Idle phases are constant until the phase ends: member slots in
    ///   `vals` are written once (zeros) and `true` is returned.
    /// - Flat active phases (no member wave) are constant until the
    ///   phase ends or the next utilization spike boundary: member
    ///   slots are written once and `true` is returned.
    /// - Waving phases return `false`; the caller evaluates every tick
    ///   via [`Skeleton::eval_wave`] until the phase ends.
    ///
    /// Values match [`Phase::level_at`] bit for bit: `100.0` under a
    /// spike, the unclamped base when the amplitude is zero.
    fn prepare_span(&mut self, t: f64, vals: &mut [[f64; 3]]) -> (f64, bool) {
        if !self.active {
            self.waving = false;
            for m in &self.members {
                vals[m.gpu] = [0.0; 3];
            }
            return (self.end, true);
        }
        if self.any_wave {
            self.waving = true;
            return (self.end, false);
        }
        self.waving = false;
        let rel = t - self.start;
        let mask = self.spike_mask(rel);
        let mut end = self.end;
        for s in self.spikes {
            if matches!(s.resource, GpuResource::Sm | GpuResource::Memory | GpuResource::MemorySize)
            {
                for b in [s.offset, s.offset + s.len] {
                    if b > rel {
                        end = end.min(self.start + b);
                    }
                }
            }
        }
        for m in &self.members {
            let mut v = [0.0; 3];
            for j in 0..3 {
                v[j] = if mask[j] { 100.0 } else { m.base[j] };
            }
            vals[m.gpu] = v;
        }
        (end, true)
    }

    /// Writes every member's `[sm, mem, mem_size]` sample at time `t`
    /// into its GPU slot — the same arithmetic, in the same order, as
    /// [`Phase::level_at`], with the sine evaluated once. Only called
    /// while [`Skeleton::waving`], so the phase caches are valid and a
    /// wave is running; the spike mask is re-derived per tick exactly
    /// like the batch path.
    fn eval_wave(&self, t: f64, vals: &mut [[f64; 3]]) {
        let rel = t - self.start;
        let mask = self.spike_mask(rel);
        let angle = 2.0 * std::f64::consts::PI * rel / self.wave_period + self.wave_shift;
        let sin = angle.sin();
        for m in &self.members {
            let mut v = [0.0; 3];
            for j in 0..3 {
                v[j] = if mask[j] {
                    100.0
                } else if m.amp[j] == 0.0 {
                    m.base[j]
                } else {
                    (m.base[j] + m.amp[j] * sin).clamp(0.0, 100.0)
                };
            }
            vals[m.gpu] = v;
        }
    }
}

impl JobGroundTruth {
    /// Streams the job-level `[sm, mem, mem_size]` triple of every
    /// sampler tick over `[0, duration)` into `sink`, in tick order.
    ///
    /// Produces exactly the triples of
    /// `GpuSampler::with_period(period_secs).sample_series(self, duration)`
    /// reduced by `job_level_series` — bit for bit — without
    /// materializing the series: ticks follow the same strict
    /// `k * period < duration` contract, constant spans go through
    /// [`Util3Sink::push_run`], and per-tick values reuse one sine per
    /// shared phase skeleton.
    pub fn stream_util3<S: Util3Sink>(&self, duration: f64, period_secs: f64, sink: &mut S) {
        let n = tick_count(duration, period_secs);
        if n == 0 || self.gpus.is_empty() {
            return;
        }
        let mut skeletons: Vec<Skeleton<'_>> = Vec::new();
        for (gi, gpu) in self.gpus.iter().enumerate() {
            let phases = gpu.phases();
            match skeletons.iter_mut().find(|s| same_structure(s.phases, phases)) {
                Some(s) => {
                    s.members.push(Member { gpu: gi, phases, base: [0.0; 3], amp: [0.0; 3] })
                }
                None => skeletons.push(Skeleton::new(phases, gi)),
            }
        }
        for s in &mut skeletons {
            s.refresh();
        }
        let g = self.gpus.len() as f64;
        // When the GPU count is a power of two, dividing by it and
        // multiplying by its (exact) reciprocal are both the correctly
        // rounded result of the same real number — bit-identical — and
        // the multiply is several cycles cheaper per tick.
        let inv_g = self.gpus.len().is_power_of_two().then(|| 1.0 / g);
        let scale = move |sum: f64| match inv_g {
            Some(r) => sum * r,
            None => sum / g,
        };
        let mut vals = vec![[0.0f64; 3]; self.gpus.len()];
        let mut k = 0usize;
        while k < n {
            let t = k as f64 * period_secs;
            let mut constant = true;
            let mut span = f64::INFINITY;
            for s in &mut skeletons {
                s.advance_to(t);
                let (end, c) = s.prepare_span(t, &mut vals);
                span = span.min(end);
                constant &= c;
            }
            // Ticks covered by the sub-span — every tick strictly
            // before `span`: replicate the batch fast path's
            // `while k < n && k * period < end` exactly (the float
            // estimate is corrected against the defining inequality in
            // both directions). Spans end strictly after `t`, so
            // `kb > k` and the walk always progresses.
            let kb = if span.is_finite() {
                let mut j = ((span / period_secs).ceil() as usize).clamp(k + 1, n);
                while j > k + 1 && ((j - 1) as f64) * period_secs >= span {
                    j -= 1;
                }
                while j < n && (j as f64) * period_secs < span {
                    j += 1;
                }
                j
            } else {
                n
            };
            if constant {
                // All member slots were written by `prepare_span`.
                sink.push_run(job_level(&vals, scale), kb - k);
            } else if skeletons.len() == 1 {
                // One skeleton covering every GPU — the dominant case.
                // Fold member values straight into the job-level sums
                // (members are in ascending GPU order, so each metric's
                // chain is the exact `job_level_series` fold) without
                // the `vals` round trip.
                //
                // Whether any utilization spike can fire inside the
                // sub-span is decided up front: the per-tick `rel` is
                // monotone nondecreasing in the tick index (subtraction
                // and rounding are both monotone), so comparing the
                // first and last tick's `rel` against each spike window
                // is exact — every tick the per-tick test would mask is
                // inside `[rel_first, rel_last]`. Spans without spikes
                // (almost all of them) then skip the mask entirely.
                let s = &skeletons[0];
                let rel_first = (k as f64) * period_secs - s.start;
                let rel_last = ((kb - 1) as f64) * period_secs - s.start;
                let masked = s.spikes.iter().any(|sp| {
                    matches!(
                        sp.resource,
                        GpuResource::Sm | GpuResource::Memory | GpuResource::MemorySize
                    ) && sp.offset <= rel_last
                        && sp.offset + sp.len > rel_first
                });
                if !masked {
                    if let [m] = s.members.as_slice() {
                        // Single GPU, no spikes: everything hoisted into
                        // locals. The job-level fold for one member is
                        // `0.0 + v` and no value here is `-0.0`, so
                        // pushing `v` directly is bit-identical.
                        let [b0, b1, b2] = m.base;
                        let [a0, a1, a2] = m.amp;
                        for kk in k..kb {
                            let t = kk as f64 * period_secs;
                            let rel = t - s.start;
                            let angle =
                                2.0 * std::f64::consts::PI * rel / s.wave_period + s.wave_shift;
                            let sin = angle.sin();
                            let v0 = if a0 == 0.0 { b0 } else { (b0 + a0 * sin).clamp(0.0, 100.0) };
                            let v1 = if a1 == 0.0 { b1 } else { (b1 + a1 * sin).clamp(0.0, 100.0) };
                            let v2 = if a2 == 0.0 { b2 } else { (b2 + a2 * sin).clamp(0.0, 100.0) };
                            sink.push([scale(v0), scale(v1), scale(v2)]);
                        }
                    } else {
                        for kk in k..kb {
                            let t = kk as f64 * period_secs;
                            let rel = t - s.start;
                            let angle =
                                2.0 * std::f64::consts::PI * rel / s.wave_period + s.wave_shift;
                            let sin = angle.sin();
                            let mut sum = [0.0f64; 3];
                            for m in &s.members {
                                for (j, sum_j) in sum.iter_mut().enumerate() {
                                    *sum_j += if m.amp[j] == 0.0 {
                                        m.base[j]
                                    } else {
                                        (m.base[j] + m.amp[j] * sin).clamp(0.0, 100.0)
                                    };
                                }
                            }
                            sink.push([scale(sum[0]), scale(sum[1]), scale(sum[2])]);
                        }
                    }
                    k = kb;
                    continue;
                }
                for kk in k..kb {
                    let t = kk as f64 * period_secs;
                    let rel = t - s.start;
                    let mask = s.spike_mask(rel);
                    let angle = 2.0 * std::f64::consts::PI * rel / s.wave_period + s.wave_shift;
                    let sin = angle.sin();
                    let mut sum = [0.0f64; 3];
                    for m in &s.members {
                        for j in 0..3 {
                            sum[j] += if mask[j] {
                                100.0
                            } else if m.amp[j] == 0.0 {
                                m.base[j]
                            } else {
                                (m.base[j] + m.amp[j] * sin).clamp(0.0, 100.0)
                            };
                        }
                    }
                    sink.push([scale(sum[0]), scale(sum[1]), scale(sum[2])]);
                }
            } else {
                // Waving skeletons re-evaluate per tick; constant ones
                // keep the slots `prepare_span` filled. No phase ends
                // before `span`, so the per-tick phase search of the
                // batch path is hoisted out of the loop.
                for kk in k..kb {
                    let t = kk as f64 * period_secs;
                    for s in &skeletons {
                        if s.waving {
                            s.eval_wave(t, &mut vals);
                        }
                    }
                    sink.push(job_level(&vals, scale));
                }
            }
            k = kb;
        }
    }
}

/// Job-level averaging in ascending GPU order — the exact fold of
/// `job_level_series` (a sequential sum from 0.0 scaled by the GPU
/// count).
#[inline]
fn job_level(vals: &[[f64; 3]], scale: impl Fn(f64) -> f64) -> [f64; 3] {
    let mut triple = [0.0f64; 3];
    for (j, out) in triple.iter_mut().enumerate() {
        let mut sum = 0.0f64;
        for v in vals {
            sum += v[j];
        }
        *out = scale(sum);
    }
    triple
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::PowerModel;
    use crate::truth::{generate_gpu_truth, GpuGroundTruth, ResourceLevels, TruthParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sc_telemetry::phases::{active_variability, phase_stats};
    use sc_telemetry::sampler::GpuSampler;
    use sc_telemetry::stream::stream_detail;

    /// Collects every pushed triple, expanding runs — the literal
    /// job-level series.
    struct VecSink(Vec<[f64; 3]>);

    impl Util3Sink for VecSink {
        fn push(&mut self, v: [f64; 3]) {
            self.0.push(v);
        }
    }

    fn batch_triples(truth: &JobGroundTruth, duration: f64, period: f64) -> Vec<[f64; 3]> {
        let series = GpuSampler::with_period(period).sample_series(truth, duration);
        let sm = series.job_level_series(|s| s.sm_util);
        let mem = series.job_level_series(|s| s.mem_util);
        let msize = series.job_level_series(|s| s.mem_size_util);
        (0..series.len()).map(|k| [sm[k], mem[k], msize[k]]).collect()
    }

    fn assert_stream_matches_batch(truth: &JobGroundTruth, duration: f64, period: f64, tag: &str) {
        let mut sink = VecSink(Vec::new());
        truth.stream_util3(duration, period, &mut sink);
        let batch = batch_triples(truth, duration, period);
        assert_eq!(sink.0.len(), batch.len(), "{tag}: tick count diverged");
        for (k, (s, b)) in sink.0.iter().zip(&batch).enumerate() {
            assert_eq!(s, b, "{tag}: tick {k} diverged (bit equality required)");
        }
    }

    #[test]
    fn stream_is_bit_identical_to_batch_series() {
        for seed in [3u64, 7, 21, 42] {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = TruthParams {
                duration: 900.0,
                active_fraction: 0.5,
                spike_resources: vec![GpuResource::Sm, GpuResource::Memory],
                ..Default::default()
            };
            let truth = JobGroundTruth::generate(&mut rng, &p, 3, 1, 0.05);
            assert_stream_matches_batch(&truth, 900.0, 0.1, &format!("seed {seed}"));
        }
    }

    #[test]
    fn stream_matches_batch_across_gpu_mixes() {
        for (gpus, idle, jitter) in [(1u32, 0u32, 0.0), (2, 0, 0.3), (4, 2, 0.05), (8, 7, 0.1)] {
            let mut rng = StdRng::seed_from_u64(1000 + gpus as u64);
            let p = TruthParams { duration: 600.0, ..Default::default() };
            let truth = JobGroundTruth::generate(&mut rng, &p, gpus, idle, jitter);
            assert_stream_matches_batch(&truth, 600.0, 0.1, &format!("gpus {gpus} idle {idle}"));
        }
    }

    #[test]
    fn stream_matches_batch_on_duration_edge_cases() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = TruthParams { duration: 400.0, ..Default::default() };
        let truth = JobGroundTruth::generate(&mut rng, &p, 2, 0, 0.1);
        // An inexact tick multiple (3.0 * 0.1 != 0.3 exactly), a
        // sub-tick duration, a truncated run, and a run past the truth's
        // covered range (phase_at clamps to the final phase).
        for duration in [3.0 * 0.1, 0.05, 137.77, 400.0, 550.0] {
            assert_stream_matches_batch(&truth, duration, 0.1, &format!("duration {duration}"));
        }
        // Zero-duration runs stream nothing, like the batch sampler.
        let mut sink = VecSink(Vec::new());
        truth.stream_util3(0.0, 0.1, &mut sink);
        assert!(sink.0.is_empty());
    }

    #[test]
    fn stream_matches_batch_on_non_generated_truths() {
        // Hand-built truths exercise the no-shared-skeleton path: a
        // fully idle job and a job whose GPUs have unrelated phases.
        let idle = JobGroundTruth {
            gpus: vec![GpuGroundTruth::idle(120.0), GpuGroundTruth::idle(120.0)],
            power: PowerModel::v100(),
        };
        assert_stream_matches_batch(&idle, 120.0, 0.1, "all idle");

        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(99);
        let p = TruthParams {
            duration: 300.0,
            spike_resources: vec![GpuResource::MemorySize, GpuResource::PcieTx],
            ..Default::default()
        };
        let unrelated = JobGroundTruth {
            gpus: vec![generate_gpu_truth(&mut rng_a, &p), generate_gpu_truth(&mut rng_b, &p)],
            power: PowerModel::v100(),
        };
        assert_stream_matches_batch(&unrelated, 300.0, 0.1, "unrelated structures");
    }

    #[test]
    fn stream_matches_batch_with_flat_levels() {
        // wave_frac 0 makes every active phase flat: the whole job
        // should stream as constant spans and still match.
        let mut rng = StdRng::seed_from_u64(17);
        let p = TruthParams {
            duration: 500.0,
            wave_frac: 0.0,
            spike_resources: vec![GpuResource::Sm],
            ..Default::default()
        };
        let truth = JobGroundTruth::generate(&mut rng, &p, 2, 0, 0.2);
        assert_stream_matches_batch(&truth, 500.0, 0.1, "flat levels");
    }

    #[test]
    fn streamed_detail_stats_match_batch_pipeline() {
        // End-to-end: the streaming producer into the streaming
        // consumer must reproduce phase_stats + active_variability of
        // the materialized series exactly.
        for seed in [2u64, 13, 64] {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = TruthParams {
                duration: 1200.0,
                active_fraction: 0.6,
                spike_resources: vec![GpuResource::Sm],
                ..Default::default()
            };
            let truth = JobGroundTruth::generate(&mut rng, &p, 2, 1, 0.05);
            let (sp, sv) =
                stream_detail(|sink| truth.stream_util3(1200.0, 0.1, sink)).expect("ticks pushed");
            let series = GpuSampler::new().sample_series(&truth, 1200.0);
            let bp = phase_stats(&series).expect("non-empty");
            let bv = active_variability(&series).expect("non-empty");
            assert_eq!(sp, bp, "seed {seed}: phase stats diverged");
            assert_eq!(sv, bv, "seed {seed}: variability diverged");
        }
    }

    #[test]
    fn stream_matches_batch_for_mostly_idle_low_activity() {
        let mut rng = StdRng::seed_from_u64(23);
        let p = TruthParams {
            duration: 800.0,
            active_fraction: 0.05,
            mean_levels: ResourceLevels { sm: 3.0, mem: 0.5, mem_size: 2.0, ..Default::default() },
            ..Default::default()
        };
        let truth = JobGroundTruth::generate(&mut rng, &p, 1, 0, 0.0);
        assert_stream_matches_batch(&truth, 800.0, 0.1, "mostly idle");
    }
}
