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
//!    sine of the *same angle* — one sine per skeleton per tick
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
//! Every other span goes through one blocked loop: per block of up to
//! 256 ticks, each waving skeleton takes its sines from
//! [`Util3Sink::sines`] (a sink may serve them from a tape instead of
//! computing them), the GPUs are folded into the job-level triple in
//! ascending order, and the block goes to [`Util3Sink::push_block`].
//! Per-member levels go through the same [`Phase::amplitude`] / clamp
//! arithmetic as [`Phase::level_at`], in the same operation order, so
//! every pushed value is the f64 the batch sampler produced. The
//! workload crate's tests assert bit equality against `sample_series` +
//! `phase_stats` + `active_variability` across seeds, GPU mixes,
//! spikes, and duration edge cases.

use crate::truth::{JobGroundTruth, Phase, Spike};
use sc_telemetry::metrics::GpuResource;
use sc_telemetry::sampler::tick_count;
use sc_telemetry::stream::Util3Sink;

/// Ticks per block of the waving loop: enough to amortize the per-block
/// skeleton and sink calls, small enough that a block's triples and
/// sines stay in L1.
const BLOCK: usize = 256;

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
/// spikes), walked with a single cursor and a single sine per tick.
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
    /// the current phase — the only case that needs a sine.
    any_wave: bool,
    /// Whether this skeleton needs a per-tick evaluation in the current
    /// sub-span (set by [`Skeleton::prepare_span`]). Constant skeletons
    /// have their member values written once into the shared slots.
    waving: bool,
    /// The current block's sines, one per tick (set by
    /// [`Skeleton::wave_block`]).
    sines: Vec<f64>,
    /// The current block's per-tick spike masks; empty when no
    /// utilization spike touches the block.
    masks: Vec<[bool; 3]>,
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

/// Spike mask for the three streamed resources at phase-relative time
/// `rel`.
fn spike_mask(spikes: &[Spike], rel: f64) -> [bool; 3] {
    let mut mask = [false; 3];
    for s in spikes {
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

/// Whether a spike on `r` masks one of the streamed resources.
fn masks_util3(r: GpuResource) -> bool {
    matches!(r, GpuResource::Sm | GpuResource::Memory | GpuResource::MemorySize)
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
            sines: Vec::new(),
            masks: Vec::new(),
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

    /// Prepares the skeleton for the sub-span starting at `t` and
    /// returns the span end (`> t`, absolute time) up to which its
    /// prepared state is valid:
    ///
    /// - Idle phases are constant until the phase ends: member slots in
    ///   `vals` are written once (zeros) and `true` is returned.
    /// - Flat active phases (no member wave) are constant until the
    ///   phase ends or the next utilization spike boundary: member
    ///   slots are written once and `true` is returned.
    /// - Waving phases return `false`; the blocked loop evaluates every
    ///   tick through [`Skeleton::wave_block`] and
    ///   [`Skeleton::add_member`] until the phase ends.
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
        let mask = spike_mask(self.spikes, rel);
        let mut end = self.end;
        for s in self.spikes {
            if masks_util3(s.resource) {
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

    /// Fills the sines and spike masks of the `len` ticks from tick
    /// `k0` of a waving sub-span: the angle is [`Phase::level_at`]'s,
    /// and the sines come from the sink.
    ///
    /// Masks are only built when some utilization spike window can
    /// overlap the block: the per-tick `rel` is nondecreasing in the
    /// tick index (subtraction and rounding are both monotone), so
    /// comparing the first and last tick's `rel` against each window is
    /// exact — every tick the per-tick test would mask lies inside
    /// `[rel_first, rel_last]`.
    fn wave_block<S: Util3Sink>(&mut self, k0: usize, len: usize, period: f64, sink: &mut S) {
        let (start, wave_period, wave_shift) = (self.start, self.wave_period, self.wave_shift);
        let rel = |k: usize| k as f64 * period - start;
        self.sines.resize(len, 0.0);
        sink.sines(&mut self.sines, |i| {
            2.0 * std::f64::consts::PI * rel(k0 + i) / wave_period + wave_shift
        });
        self.masks.clear();
        let (rel_first, rel_last) = (rel(k0), rel(k0 + len - 1));
        let spikes = self.spikes;
        if spikes.iter().any(|sp| {
            masks_util3(sp.resource) && sp.offset <= rel_last && sp.offset + sp.len > rel_first
        }) {
            self.masks.extend((k0..k0 + len).map(|k| spike_mask(spikes, rel(k))));
        }
    }

    /// Adds member `mi`'s `[sm, mem, mem_size]` at every tick of the
    /// current block to `out` — the same arithmetic, in the same order,
    /// as [`Phase::level_at`], with the skeleton's one sine per tick. A
    /// skeleton that is constant over the sub-span adds the value
    /// [`Skeleton::prepare_span`] left in `vals`.
    fn add_member(&self, mi: usize, vals: &[[f64; 3]], out: &mut [[f64; 3]]) {
        let m = &self.members[mi];
        if !self.waving {
            let v = vals[m.gpu];
            for o in out.iter_mut() {
                o[0] += v[0];
                o[1] += v[1];
                o[2] += v[2];
            }
            return;
        }
        if self.masks.is_empty() {
            // The amplitude test is hoisted out of the ticks.
            for j in 0..3 {
                let (base, amp) = (m.base[j], m.amp[j]);
                if amp == 0.0 {
                    out.iter_mut().for_each(|o| o[j] += base);
                } else {
                    for (o, &sin) in out.iter_mut().zip(&self.sines) {
                        o[j] += (base + amp * sin).clamp(0.0, 100.0);
                    }
                }
            }
        } else {
            for ((o, &sin), mask) in out.iter_mut().zip(&self.sines).zip(&self.masks) {
                for j in 0..3 {
                    o[j] += if mask[j] {
                        100.0
                    } else if m.amp[j] == 0.0 {
                        m.base[j]
                    } else {
                        (m.base[j] + m.amp[j] * sin).clamp(0.0, 100.0)
                    };
                }
            }
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
    /// [`Util3Sink::push_run`], and waving spans go through
    /// [`Util3Sink::push_block`] with one sine per shared phase skeleton
    /// and tick, taken from [`Util3Sink::sines`]. The walk is a pure
    /// function of the truth, so a sink may run it more than once.
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
        // Each GPU's `(skeleton, member)`, in ascending GPU order: the
        // order of the job-level fold.
        let mut slots = vec![(0, 0); self.gpus.len()];
        for (si, s) in skeletons.iter_mut().enumerate() {
            s.refresh();
            for (mi, m) in s.members.iter().enumerate() {
                slots[m.gpu] = (si, mi);
            }
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
        let mut block = [[0.0f64; 3]; BLOCK];
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
            // Ticks covered by the sub-span — every tick `j < n` with
            // `j * period < span`, the inequality `tick_count` defines
            // (the float estimate is corrected against it in both
            // directions). Spans end strictly after `t`, so `kb > k`
            // and the walk always progresses.
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
                k = kb;
                continue;
            }
            // No phase ends before `span`, so the batch path's per-tick
            // phase search is hoisted out of the blocks. Each tick's
            // job-level sum is one chain per metric, fed in ascending
            // GPU order from 0.0 — the `job_level` fold.
            while k < kb {
                let len = (kb - k).min(BLOCK);
                for s in skeletons.iter_mut().filter(|s| s.waving) {
                    s.wave_block(k, len, period_secs, sink);
                }
                let out = &mut block[..len];
                out.fill([0.0; 3]);
                for &(si, mi) in &slots {
                    skeletons[si].add_member(mi, &vals, out);
                }
                for v in out.iter_mut() {
                    *v = v.map(scale);
                }
                sink.push_block(out);
                k += len;
            }
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

    /// Counts the ticks each entry point carries and the sines asked
    /// for.
    #[derive(Default)]
    struct CountSink {
        pushed: usize,
        run_ticks: usize,
        block_ticks: usize,
        sines: usize,
    }

    impl Util3Sink for CountSink {
        fn push(&mut self, _: [f64; 3]) {
            self.pushed += 1;
        }

        fn push_run(&mut self, _: [f64; 3], count: usize) {
            self.run_ticks += count;
        }

        fn push_block(&mut self, block: &[[f64; 3]]) {
            assert!(!block.is_empty() && block.len() <= BLOCK);
            self.block_ticks += block.len();
        }

        fn sines(&mut self, out: &mut [f64], mut angle: impl FnMut(usize) -> f64) {
            self.sines += out.len();
            for (i, s) in out.iter_mut().enumerate() {
                *s = angle(i).sin();
            }
        }
    }

    #[test]
    fn every_wave_tick_takes_its_sine_through_the_hook() {
        // Two active GPUs share one skeleton and the idle one never
        // waves, so each block asks for exactly one sine per tick.
        let mut rng = StdRng::seed_from_u64(31);
        let p = TruthParams { duration: 900.0, active_fraction: 0.6, ..Default::default() };
        let truth = JobGroundTruth::generate(&mut rng, &p, 3, 1, 0.05);
        let mut sink = CountSink::default();
        truth.stream_util3(900.0, 0.1, &mut sink);
        assert_eq!(sink.pushed, 0, "single ticks bypass the bulk entry points");
        assert_eq!(sink.run_ticks + sink.block_ticks, tick_count(900.0, 0.1));
        assert!(sink.block_ticks > 0, "the job waves");
        assert_eq!(sink.sines, sink.block_ticks);
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
