//! Per-job ground truth: the piecewise phase process that telemetry
//! observes.
//!
//! A job's GPU behaviour is modeled as alternating **active** and
//! **idle** phases (Sec. III of the paper) whose lengths follow
//! lognormal distributions (matching the high interval-length CoVs of
//! Fig. 6b). Within an active phase each resource holds a base level
//! modulated by a coherent sinusoid (Fig. 7a's within-run variability)
//! plus optional **spikes** to 100% (Fig. 7b/8's bottleneck events).
//!
//! Because the process is piecewise-analytic, the end-of-job
//! min/mean/max aggregates can be computed *exactly* in `O(#phases)` —
//! see [`GpuGroundTruth::analytic_aggregates`] — which is what lets the
//! full 74,820-job trace run in seconds while the 100 ms sampler is
//! still exercised over the detailed time-series subset, exactly like
//! the paper's two-tier collection.

use crate::power::PowerModel;
use rand::Rng;
use sc_stats::dist::{LogNormal, Sample};
use sc_telemetry::aggregate::{Aggregate, GpuAggregates};
use sc_telemetry::metrics::{GpuMetricSample, GpuResource};
use sc_telemetry::source::MetricSource;

/// Base utilization levels (percent) for the five non-power resources.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceLevels {
    /// SM utilization %.
    pub sm: f64,
    /// Memory-bandwidth utilization %.
    pub mem: f64,
    /// Memory-size utilization %.
    pub mem_size: f64,
    /// PCIe Tx utilization %.
    pub pcie_tx: f64,
    /// PCIe Rx utilization %.
    pub pcie_rx: f64,
}

impl ResourceLevels {
    /// Reads the level of one resource.
    ///
    /// # Panics
    ///
    /// Panics for [`GpuResource::Power`]: power is derived, not a level.
    pub fn get(&self, r: GpuResource) -> f64 {
        match r {
            GpuResource::Sm => self.sm,
            GpuResource::Memory => self.mem,
            GpuResource::MemorySize => self.mem_size,
            GpuResource::PcieTx => self.pcie_tx,
            GpuResource::PcieRx => self.pcie_rx,
            GpuResource::Power => panic!("power is derived from the other levels"),
        }
    }

    /// Returns levels scaled by `factor`, clamped to `[0, max]`.
    pub fn scaled_clamped(&self, factor: f64, max: f64) -> ResourceLevels {
        let c = |v: f64| (v * factor).clamp(0.0, max);
        ResourceLevels {
            sm: c(self.sm),
            mem: c(self.mem),
            mem_size: c(self.mem_size),
            pcie_tx: c(self.pcie_tx),
            pcie_rx: c(self.pcie_rx),
        }
    }
}

/// Fraction of the utilization wave that reaches board power (thermal
/// damping; see [`Phase::power_level_at`]).
pub const POWER_WAVE_DAMP: f64 = 0.4;

/// A momentary excursion of one resource to 100% inside an active phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spike {
    /// The resource that saturates.
    pub resource: GpuResource,
    /// Offset from the phase start, seconds.
    pub offset: f64,
    /// Spike length, seconds.
    pub len: f64,
}

/// One phase of the ground-truth process.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Phase start, seconds from job start.
    pub start: f64,
    /// Phase length, seconds.
    pub len: f64,
    /// Active (GPU in use) or idle.
    pub active: bool,
    /// Base levels during the phase (all-zero for idle phases).
    pub levels: ResourceLevels,
    /// Sinusoid amplitude as a fraction of each base level.
    pub wave_frac: f64,
    /// Sinusoid period, seconds.
    pub wave_period: f64,
    /// Sinusoid phase shift, radians.
    pub wave_shift: f64,
    /// Saturation spikes inside this phase.
    pub spikes: Vec<Spike>,
}

impl Phase {
    /// Phase end time.
    pub fn end(&self) -> f64 {
        self.start + self.len
    }

    /// The effective wave amplitude for a resource: proportional to the
    /// base level, suppressed entirely for phases shorter than one wave
    /// period (they never complete a cycle), and clamped so the wave
    /// stays inside `[0, 100]`.
    pub fn amplitude(&self, r: GpuResource) -> f64 {
        if !self.active || self.len < self.wave_period {
            return 0.0;
        }
        // Memory footprint is far steadier than compute (Fig. 7a:
        // memory-size CoV median 8.2% vs SM 14%): damp its wave.
        let damp = match r {
            GpuResource::MemorySize => 0.35,
            _ => 1.0,
        };
        // Cap the wave peak just below the 100% ceiling so that only
        // explicit spikes register as bottlenecks (Fig. 7b's criterion).
        let base = self.levels.get(r);
        (self.wave_frac * damp * base).min(99.0 - base).min(base).max(0.0)
    }

    /// Ground-truth level of `r` at absolute time `t` (must lie in the
    /// phase).
    pub fn level_at(&self, r: GpuResource, t: f64) -> f64 {
        if !self.active {
            return 0.0;
        }
        let rel = t - self.start;
        for s in &self.spikes {
            if s.resource == r && rel >= s.offset && rel < s.offset + s.len {
                return 100.0;
            }
        }
        let base = self.levels.get(r);
        let amp = self.amplitude(r);
        if amp == 0.0 {
            return base;
        }
        let angle = 2.0 * std::f64::consts::PI * rel / self.wave_period + self.wave_shift;
        (base + amp * angle.sin()).clamp(0.0, 100.0)
    }

    /// Like [`Phase::level_at`] but with the wave damped by
    /// [`POWER_WAVE_DAMP`] — the input used for the power model. Board
    /// power integrates over seconds of thermal mass, so fast occupancy
    /// oscillations move it far less than their full swing; spikes (long
    /// saturations) still pass through at full strength.
    pub fn power_level_at(&self, r: GpuResource, t: f64) -> f64 {
        if !self.active {
            return 0.0;
        }
        let rel = t - self.start;
        for s in &self.spikes {
            if s.resource == r && rel >= s.offset && rel < s.offset + s.len {
                return 100.0;
            }
        }
        let base = self.levels.get(r);
        let amp = self.amplitude(r) * POWER_WAVE_DAMP;
        if amp == 0.0 {
            return base;
        }
        let angle = 2.0 * std::f64::consts::PI * rel / self.wave_period + self.wave_shift;
        (base + amp * angle.sin()).clamp(0.0, 100.0)
    }

    /// Whether any spike on `r` overlaps `[0, within]` (phase-relative).
    fn has_spike_within(&self, r: GpuResource, within: f64) -> bool {
        self.spikes.iter().any(|s| s.resource == r && s.offset < within)
    }

    /// Spike time on `r` overlapping `[0, within]`, seconds.
    fn spike_time_within(&self, r: GpuResource, within: f64) -> f64 {
        self.spikes
            .iter()
            .filter(|s| s.resource == r && s.offset < within)
            .map(|s| s.len.min(within - s.offset))
            .sum()
    }
}

/// The full ground-truth process of one GPU over one job.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuGroundTruth {
    phases: Vec<Phase>,
}

impl GpuGroundTruth {
    /// Builds from a contiguous, ordered phase list.
    ///
    /// # Panics
    ///
    /// Panics if phases are empty, unordered, or non-contiguous.
    pub fn new(phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "ground truth needs at least one phase");
        let mut t = phases[0].start;
        for p in &phases {
            assert!((p.start - t).abs() < 1e-6, "phases must be contiguous");
            assert!(p.len > 0.0, "phase length must be positive");
            t = p.end();
        }
        GpuGroundTruth { phases }
    }

    /// A single all-idle phase spanning `duration` — the truth of an
    /// idle GPU in a multi-GPU job (Fig. 14a).
    pub fn idle(duration: f64) -> Self {
        GpuGroundTruth::new(vec![Phase {
            start: 0.0,
            len: duration.max(1e-3),
            active: false,
            levels: ResourceLevels::default(),
            wave_frac: 0.0,
            wave_period: 1.0,
            wave_shift: 0.0,
            spikes: Vec::new(),
        }])
    }

    /// The phases.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total covered duration.
    pub fn total_len(&self) -> f64 {
        self.phases.last().expect("non-empty").end() - self.phases[0].start
    }

    /// The phase containing time `t` (clamped to the covered range).
    pub fn phase_at(&self, t: f64) -> &Phase {
        let idx = self.phases.partition_point(|p| p.end() <= t);
        &self.phases[idx.min(self.phases.len() - 1)]
    }

    /// Ground-truth sample at time `t`.
    pub fn state_at(&self, t: f64, power: &PowerModel) -> GpuMetricSample {
        let phase = self.phase_at(t);
        let sm = phase.level_at(GpuResource::Sm, t);
        let mem = phase.level_at(GpuResource::Memory, t);
        let mem_size = phase.level_at(GpuResource::MemorySize, t);
        GpuMetricSample {
            sm_util: sm,
            mem_util: mem,
            mem_size_util: mem_size,
            pcie_tx: phase.level_at(GpuResource::PcieTx, t),
            pcie_rx: phase.level_at(GpuResource::PcieRx, t),
            power_w: power.power_w(
                phase.power_level_at(GpuResource::Sm, t),
                phase.power_level_at(GpuResource::Memory, t),
                phase.power_level_at(GpuResource::MemorySize, t),
            ),
        }
    }

    /// Exact min/mean/max aggregates over `[0, duration]`, computed
    /// analytically from the phase structure. Equivalent to sampling at
    /// an infinite rate; agrees with the 100 ms sampler to within the
    /// wave quantization (tested in this module).
    pub fn analytic_aggregates(&self, duration: f64, power: &PowerModel) -> GpuAggregates {
        let duration = duration.min(self.total_len()).max(1e-9);
        let mut agg = GpuAggregates::new();
        let mut acc: [(f64, f64, f64); 5] = [(f64::INFINITY, 0.0, f64::NEG_INFINITY); 5];
        let mut pw = (f64::INFINITY, 0.0, f64::NEG_INFINITY);
        let mut covered = 0.0;
        for phase in &self.phases {
            if phase.start >= duration {
                break;
            }
            let overlap = (duration - phase.start).min(phase.len);
            covered += overlap;
            let w = overlap / duration;
            let mut phase_stats = [(0.0, 0.0, 0.0); 5]; // (min, mean, max) per resource
            for (i, r) in GpuResource::UTILIZATION.iter().enumerate() {
                let (mn, mean, mx) = if phase.active {
                    let base = phase.levels.get(*r);
                    let amp = phase.amplitude(*r);
                    let spike_time = phase.spike_time_within(*r, overlap);
                    let mean = base + (100.0 - base) * spike_time / overlap.max(1e-9);
                    let mx = if phase.has_spike_within(*r, overlap) { 100.0 } else { base + amp };
                    (base - amp, mean.min(100.0), mx)
                } else {
                    (0.0, 0.0, 0.0)
                };
                phase_stats[i] = (mn, mean, mx);
                acc[i].0 = acc[i].0.min(mn);
                acc[i].1 += mean * w;
                acc[i].2 = acc[i].2.max(mx);
            }
            // Power: linear in (sm, mem, mem_size) -> the mean maps
            // through exactly; extremes use the coherent-wave property
            // with the thermally damped amplitude of `power_level_at`.
            let (sm, mem, msz) = (phase_stats[0], phase_stats[1], phase_stats[2]);
            let damped = |r: GpuResource| phase.amplitude(r) * POWER_WAVE_DAMP;
            let p_min = if phase.active {
                power.power_w(
                    (phase.levels.sm - damped(GpuResource::Sm)).max(0.0),
                    (phase.levels.mem - damped(GpuResource::Memory)).max(0.0),
                    (phase.levels.mem_size - damped(GpuResource::MemorySize)).max(0.0),
                )
            } else {
                power.power_w(sm.0, mem.0, msz.0)
            };
            let p_mean = power.power_w(sm.1, mem.1, msz.1);
            let mut p_max = power.power_w(
                phase.levels.sm + damped(GpuResource::Sm),
                phase.levels.mem + damped(GpuResource::Memory),
                phase.levels.mem_size + damped(GpuResource::MemorySize),
            );
            if phase.active {
                // A spike saturates one resource while the others sit at
                // their base level.
                for (r, base_mem) in [
                    (GpuResource::Sm, (100.0, phase.levels.mem, phase.levels.mem_size)),
                    (GpuResource::Memory, (phase.levels.sm, 100.0, phase.levels.mem_size)),
                    (GpuResource::MemorySize, (phase.levels.sm, phase.levels.mem, 100.0)),
                ] {
                    if phase.has_spike_within(r, overlap) {
                        p_max = p_max.max(power.power_w(base_mem.0, base_mem.1, base_mem.2));
                    }
                }
            } else {
                p_max = p_max.max(power.idle_power_w());
            }
            pw.0 = pw.0.min(p_min);
            pw.1 += p_mean * w;
            pw.2 = pw.2.max(p_max);
        }
        debug_assert!((covered - duration).abs() < 1e-3, "phases must cover the duration");
        let count = (duration / 0.1).ceil() as u64; // nominal 100 ms samples
        let mk = |(min, mean, max): (f64, f64, f64)| Aggregate { min, mean, max, count };
        agg.sm_util = mk(acc[0]);
        agg.mem_util = mk(acc[1]);
        agg.mem_size_util = mk(acc[2]);
        agg.pcie_tx = mk(acc[3]);
        agg.pcie_rx = mk(acc[4]);
        agg.power_w = mk(pw);
        agg
    }
}

/// Parameters for generating one job's ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct TruthParams {
    /// Total duration to cover (the job's wall-clock limit), seconds.
    pub duration: f64,
    /// Target fraction of time in active phases, `[0, 1]`.
    pub active_fraction: f64,
    /// Mean active-interval length, seconds.
    pub mean_active_secs: f64,
    /// Log-space sigma of active-interval lengths (Fig. 6b target:
    /// median CoV 169% → σ ≈ 1.16).
    pub sigma_active: f64,
    /// Log-space sigma of idle-interval lengths (median CoV 126% →
    /// σ ≈ 1.0).
    pub sigma_idle: f64,
    /// Target *job-mean* levels (averaged over the whole run including
    /// idle time). Active-phase levels are scaled up by
    /// `1 / active_fraction` to hit these means.
    pub mean_levels: ResourceLevels,
    /// Log-space sigma of the per-phase level multiplier.
    pub phase_level_sigma: f64,
    /// Within-phase wave amplitude as a fraction of the base level.
    pub wave_frac: f64,
    /// Within-phase wave period, seconds.
    pub wave_period: f64,
    /// Resources that saturate to 100% at least once during the run.
    pub spike_resources: Vec<GpuResource>,
    /// Spike length in seconds.
    pub spike_len: f64,
}

impl Default for TruthParams {
    fn default() -> Self {
        TruthParams {
            duration: 1800.0,
            active_fraction: 0.8,
            mean_active_secs: 180.0,
            sigma_active: 1.16,
            sigma_idle: 1.0,
            mean_levels: ResourceLevels {
                sm: 16.0,
                mem: 2.0,
                mem_size: 9.0,
                pcie_tx: 10.0,
                pcie_rx: 12.0,
            },
            phase_level_sigma: 0.35,
            wave_frac: 0.22,
            wave_period: 45.0,
            spike_resources: Vec::new(),
            spike_len: 2.0,
        }
    }
}

/// Generates one GPU's ground truth from the parameters.
///
/// # Panics
///
/// Panics if `duration <= 0` or `active_fraction` is outside `[0, 1]`.
pub fn generate_gpu_truth<R: Rng + ?Sized>(rng: &mut R, p: &TruthParams) -> GpuGroundTruth {
    assert!(p.duration > 0.0, "duration must be positive");
    assert!((0.0..=1.0).contains(&p.active_fraction), "active_fraction must be in [0, 1]");
    if p.active_fraction < 0.005 {
        return GpuGroundTruth::idle(p.duration);
    }
    let f = p.active_fraction.min(0.995);
    // Active-phase levels hit the job-mean targets after dilution by f.
    let active_levels = p.mean_levels.scaled_clamped(1.0 / f, 92.0);
    let mean_idle_secs = (p.mean_active_secs * (1.0 - f) / f).max(1.0);
    // LogNormal with target mean m: mu = ln(m) - sigma^2/2.
    let active_dist = LogNormal::new(
        p.mean_active_secs.ln() - p.sigma_active * p.sigma_active / 2.0,
        p.sigma_active,
    )
    .expect("valid lognormal");
    let idle_dist =
        LogNormal::new(mean_idle_secs.ln() - p.sigma_idle * p.sigma_idle / 2.0, p.sigma_idle)
            .expect("valid lognormal");
    let level_mult =
        LogNormal::new(-p.phase_level_sigma * p.phase_level_sigma / 2.0, p.phase_level_sigma)
            .expect("valid lognormal");

    let mut phases = Vec::new();
    let mut t = 0.0;
    let mut active = rng.gen::<f64>() < f;
    while t < p.duration {
        let raw = if active { active_dist.sample(rng) } else { idle_dist.sample(rng) };
        let len = raw.clamp(1.0, p.duration).min(p.duration - t).max(1e-3);
        let levels = if active {
            active_levels.scaled_clamped(level_mult.sample(rng), 96.0)
        } else {
            ResourceLevels::default()
        };
        phases.push(Phase {
            start: t,
            len,
            active,
            levels,
            wave_frac: p.wave_frac,
            wave_period: p.wave_period * rng.gen_range(0.7..1.4),
            wave_shift: rng.gen_range(0.0..std::f64::consts::TAU),
            spikes: Vec::new(),
        });
        t += len;
        active = !active;
    }
    // Plant one saturation spike per spiking resource in a random active
    // phase long enough to host it.
    let active_idx: Vec<usize> = phases
        .iter()
        .enumerate()
        .filter(|(_, ph)| ph.active && ph.len > 2.0 * p.spike_len)
        .map(|(i, _)| i)
        .collect();
    if !active_idx.is_empty() {
        for &r in &p.spike_resources {
            let pi = active_idx[rng.gen_range(0..active_idx.len())];
            let phase_len = phases[pi].len;
            let offset = rng.gen_range(0.0..(phase_len - p.spike_len));
            phases[pi].spikes.push(Spike { resource: r, offset, len: p.spike_len });
        }
    }
    GpuGroundTruth::new(phases)
}

/// The ground truth of a whole job: one process per GPU, implementing
/// [`MetricSource`] for the telemetry sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct JobGroundTruth {
    /// Per-GPU processes.
    pub gpus: Vec<GpuGroundTruth>,
    /// Power model shared by the job's GPUs.
    pub power: PowerModel,
}

impl JobGroundTruth {
    /// Generates the job truth: `gpu_count - idle_gpus` active GPUs share
    /// one phase schedule with per-GPU level jitter (`gpu_jitter`
    /// lognormal sigma — Fig. 14b shows active GPUs behave uniformly),
    /// while `idle_gpus` GPUs sit fully idle (Fig. 14a's pathology).
    ///
    /// # Panics
    ///
    /// Panics if `idle_gpus >= gpu_count` and `gpu_count > 0` is violated.
    pub fn generate<R: Rng + ?Sized>(
        rng: &mut R,
        params: &TruthParams,
        gpu_count: u32,
        idle_gpus: u32,
        gpu_jitter: f64,
    ) -> Self {
        assert!(gpu_count > 0, "a GPU job needs at least one GPU");
        assert!(idle_gpus < gpu_count, "at least one GPU must be active");
        let reference = generate_gpu_truth(rng, params);
        let jitter_dist =
            LogNormal::new(-gpu_jitter * gpu_jitter / 2.0, gpu_jitter).expect("valid lognormal");
        let mut gpus = Vec::with_capacity(gpu_count as usize);
        for g in 0..gpu_count {
            if g >= gpu_count - idle_gpus {
                gpus.push(GpuGroundTruth::idle(params.duration));
                continue;
            }
            if g == 0 {
                gpus.push(reference.clone());
                continue;
            }
            let mult = jitter_dist.sample(rng);
            let phases = reference
                .phases()
                .iter()
                .map(|ph| Phase {
                    levels: ph.levels.scaled_clamped(mult, 98.0),
                    spikes: ph.spikes.clone(),
                    ..*ph
                })
                .collect();
            gpus.push(GpuGroundTruth::new(phases));
        }
        // A discarded draw that keeps the stream's position: callers
        // that generate several truths from one stream (the ingest
        // series study) would otherwise see every later truth shift.
        let _: f64 = rng.gen_range(2.0..60.0);
        JobGroundTruth { gpus, power: PowerModel::v100() }
    }

    /// Exact per-GPU aggregates over `[0, duration]`.
    pub fn analytic_aggregates(&self, duration: f64) -> Vec<GpuAggregates> {
        self.gpus.iter().map(|g| g.analytic_aggregates(duration, &self.power)).collect()
    }
}

impl MetricSource for JobGroundTruth {
    fn gpu_count(&self) -> u32 {
        self.gpus.len() as u32
    }

    fn gpu_state(&self, gpu_index: u32, t: f64) -> GpuMetricSample {
        self.gpus[gpu_index as usize].state_at(t, &self.power)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sc_telemetry::sampler::GpuSampler;

    fn params() -> TruthParams {
        TruthParams { duration: 3600.0, ..Default::default() }
    }

    #[test]
    fn phases_cover_duration_contiguously() {
        let mut rng = StdRng::seed_from_u64(1);
        let truth = generate_gpu_truth(&mut rng, &params());
        assert!((truth.total_len() - 3600.0).abs() < 1e-6);
        let mut t = 0.0;
        for ph in truth.phases() {
            assert!((ph.start - t).abs() < 1e-6);
            t = ph.end();
        }
    }

    #[test]
    fn active_fraction_close_to_target() {
        let mut rng = StdRng::seed_from_u64(2);
        // Long job so the renewal process converges.
        let p = TruthParams { duration: 400_000.0, active_fraction: 0.7, ..Default::default() };
        let truth = generate_gpu_truth(&mut rng, &p);
        let active: f64 = truth.phases().iter().filter(|p| p.active).map(|p| p.len).sum();
        let frac = active / truth.total_len();
        assert!((frac - 0.7).abs() < 0.12, "active fraction {frac}");
    }

    #[test]
    fn analytic_mean_hits_job_mean_targets() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = TruthParams { duration: 2_000_000.0, ..Default::default() };
        let truth = generate_gpu_truth(&mut rng, &p);
        let agg = truth.analytic_aggregates(p.duration, &PowerModel::v100());
        // Job-mean SM should approach the 16% target (renewal + level
        // noise makes this stochastic; wide band).
        assert!((agg.sm_util.mean - 16.0).abs() < 5.0, "sm mean {}", agg.sm_util.mean);
        assert!(agg.mem_util.mean < 6.0);
        assert!(agg.sm_util.min >= 0.0 && agg.sm_util.max <= 100.0);
    }

    #[test]
    fn sampled_aggregates_agree_with_analytic() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = TruthParams { duration: 600.0, ..Default::default() };
        let truth = JobGroundTruth::generate(&mut rng, &p, 1, 0, 0.05);
        let analytic = &truth.analytic_aggregates(600.0)[0];
        let sampled = &GpuSampler::new().sample_series(&truth, 600.0).aggregates()[0];
        assert!(
            (analytic.sm_util.mean - sampled.sm_util.mean).abs() < 2.5,
            "mean: analytic {} vs sampled {}",
            analytic.sm_util.mean,
            sampled.sm_util.mean
        );
        assert!((analytic.sm_util.max - sampled.sm_util.max).abs() < 3.0);
        assert!((analytic.power_w.mean - sampled.power_w.mean).abs() < 4.0);
    }

    #[test]
    fn spikes_reach_100_in_both_paths() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = TruthParams {
            duration: 1200.0,
            active_fraction: 0.95,
            spike_resources: vec![GpuResource::Sm],
            ..Default::default()
        };
        let truth = JobGroundTruth::generate(&mut rng, &p, 1, 0, 0.0);
        let analytic = &truth.analytic_aggregates(1200.0)[0];
        assert_eq!(analytic.sm_util.max, 100.0);
        let sampled = &GpuSampler::new().sample_series(&truth, 1200.0).aggregates()[0];
        assert_eq!(sampled.sm_util.max, 100.0, "100 ms sampling must catch a 2 s spike");
    }

    #[test]
    fn idle_gpus_report_zero() {
        let mut rng = StdRng::seed_from_u64(6);
        let truth = JobGroundTruth::generate(&mut rng, &params(), 4, 2, 0.05);
        assert_eq!(truth.gpu_count(), 4);
        let aggs = truth.analytic_aggregates(3600.0);
        assert_eq!(aggs[3].sm_util.max, 0.0);
        assert_eq!(aggs[2].sm_util.max, 0.0);
        assert!(aggs[0].sm_util.mean > 0.0);
        // Idle GPU still draws its idle-power floor.
        assert!((aggs[3].power_w.mean - 20.0).abs() < 1e-9);
    }

    #[test]
    fn active_gpus_are_uniform() {
        let mut rng = StdRng::seed_from_u64(7);
        let truth = JobGroundTruth::generate(&mut rng, &params(), 4, 0, 0.05);
        let aggs = truth.analytic_aggregates(3600.0);
        let means: Vec<f64> = aggs.iter().map(|a| a.sm_util.mean).collect();
        let cov = sc_stats::coefficient_of_variation(&means).unwrap();
        assert!(cov < 15.0, "active-GPU CoV {cov}%");
    }

    #[test]
    fn fully_idle_truth_for_zero_active_fraction() {
        let mut rng = StdRng::seed_from_u64(8);
        let p = TruthParams { active_fraction: 0.0, ..params() };
        let truth = generate_gpu_truth(&mut rng, &p);
        assert_eq!(truth.phases().len(), 1);
        assert!(!truth.phases()[0].active);
    }

    #[test]
    fn state_is_deterministic_in_t() {
        let mut rng = StdRng::seed_from_u64(9);
        let truth = JobGroundTruth::generate(&mut rng, &params(), 2, 0, 0.05);
        let a = truth.gpu_state(0, 123.456);
        let b = truth.gpu_state(0, 123.456);
        assert_eq!(a, b);
        assert!(a.is_valid());
    }

    #[test]
    fn truncated_aggregates_use_partial_overlap() {
        let mut rng = StdRng::seed_from_u64(10);
        let truth = generate_gpu_truth(&mut rng, &params());
        let full = truth.analytic_aggregates(3600.0, &PowerModel::v100());
        let half = truth.analytic_aggregates(1800.0, &PowerModel::v100());
        // Means differ in general; bounds still respected.
        assert!(half.sm_util.max <= full.sm_util.max + 1e-9);
        assert!(half.sm_util.min >= 0.0);
    }
}
