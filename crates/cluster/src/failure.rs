//! Failure injection: the taxonomy, interarrival models, and the
//! deterministic fleet-wide failure schedule.
//!
//! The paper's measurement window saw hardware behind fewer than 0.5%
//! of job deaths, but reliability studies of comparable fleets (Kokolis
//! et al.; Cankur et al.) show failure attribution and goodput dominate
//! operational cost at scale. This module injects a three-class
//! taxonomy — single-GPU Xid faults, whole-node hardware failures, and
//! transient infrastructure blips — with per-class exponential or
//! Weibull interarrivals.
//!
//! Everything is pre-scheduled: [`FailureModel::schedule`] expands the
//! model into a sorted event list from its own seeded RNG *before* the
//! event loop runs, so the failure sequence is a pure function of
//! `(model, fleet, horizon)` — byte-identical at any thread count and
//! independent of every other RNG stream in the pipeline.

use crate::resources::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_stats::dist::{Exponential, Sample, Weibull};
pub use sc_telemetry::record::FailureCause;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Typed rejection of an invalid failure-model parameter.
///
/// The scenario layer converts these into `ScenarioError` range
/// diagnostics (`line N: [failures] key: ...`), so a malformed config
/// key reports like every other field instead of panicking deep inside
/// the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureConfigError {
    /// Which parameter was rejected (e.g. `"mtbf_factor"`).
    pub param: &'static str,
    /// Why it was rejected, in user-facing terms.
    pub reason: String,
}

impl FailureConfigError {
    fn new(param: &'static str, reason: impl Into<String>) -> Self {
        FailureConfigError { param, reason: reason.into() }
    }
}

impl fmt::Display for FailureConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.param, self.reason)
    }
}

impl std::error::Error for FailureConfigError {}

/// Interarrival law for one failure class, parameterized by the mean
/// time between failures of a single unit (node or GPU).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Interarrival {
    /// Memoryless arrivals — transient faults with a constant hazard.
    Exponential {
        /// Mean time between failures per unit, seconds.
        mtbf_secs: f64,
    },
    /// Weibull arrivals — hardware wear with a non-constant hazard
    /// (`shape < 1`: infant mortality; `shape > 1`: wear-out).
    Weibull {
        /// Characteristic life per unit (the 63.2nd percentile),
        /// seconds.
        mtbf_secs: f64,
        /// Weibull shape parameter `k`.
        shape: f64,
    },
}

impl Interarrival {
    /// Samples one fleet-level gap: a fleet of `units` identical parts
    /// fails `units` times as often as one part.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are non-positive (a config bug).
    fn sample_gap<R: Rng + ?Sized>(&self, rng: &mut R, units: f64) -> f64 {
        match *self {
            Interarrival::Exponential { mtbf_secs } => {
                Exponential::with_mean(mtbf_secs / units).expect("positive MTBF").sample(rng)
            }
            Interarrival::Weibull { mtbf_secs, shape } => {
                Weibull::new(shape, mtbf_secs / units).expect("valid Weibull").sample(rng)
            }
        }
    }

    /// The per-unit MTBF parameter, seconds.
    pub fn mtbf_secs(&self) -> f64 {
        match *self {
            Interarrival::Exponential { mtbf_secs } => mtbf_secs,
            Interarrival::Weibull { mtbf_secs, .. } => mtbf_secs,
        }
    }

    /// Validates the law's parameters, returning the typed error the
    /// scenario layer surfaces as a range diagnostic. `sample_gap`
    /// still panics on bad inputs — `validate` exists so config paths
    /// reject them long before any sampling happens.
    pub fn validate(&self) -> Result<(), FailureConfigError> {
        let mtbf = self.mtbf_secs();
        if !(mtbf.is_finite() && mtbf > 0.0) {
            return Err(FailureConfigError::new(
                "mtbf_secs",
                format!("must be positive and finite, got {mtbf}"),
            ));
        }
        if let Interarrival::Weibull { shape, .. } = *self {
            if !(shape.is_finite() && shape > 0.0) {
                return Err(FailureConfigError::new(
                    "shape",
                    format!("Weibull shape must be positive and finite, got {shape}"),
                ));
            }
        }
        Ok(())
    }

    /// Constant-hazard approximation for one unit: `1 / mtbf_secs`.
    /// Exact for the exponential law; for Weibull it treats the
    /// characteristic life as the mean, which is what the Young/Daly
    /// analytic overlay needs (a single effective rate).
    pub fn hazard_per_unit_sec(&self) -> f64 {
        1.0 / self.mtbf_secs()
    }
}

/// One class of the failure taxonomy: its cause label, interarrival
/// law, and how long the struck node stays out of service.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassModel {
    /// The cause recorded against victims.
    pub cause: FailureCause,
    /// Interarrival law, per unit (GPU for [`FailureCause::GpuXid`],
    /// node otherwise).
    pub interarrival: Interarrival,
    /// Node downtime after the event, seconds; 0 means the node never
    /// leaves service (a GPU reset, not a repair ticket).
    pub repair_secs: f64,
}

/// Automatic-requeue policy applied to victims of injected failures.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Global cap on requeues per job; the effective cap is the minimum
    /// of this and the job's own `max_restarts`.
    pub max_retries: u32,
    /// Delay before the first requeue, seconds.
    pub backoff_base_secs: f64,
    /// Multiplier applied per additional retry (exponential backoff).
    pub backoff_factor: f64,
}

impl RetryPolicy {
    /// Backoff before requeue number `retry` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `retry` is zero.
    pub fn backoff_secs(&self, retry: u32) -> f64 {
        assert!(retry >= 1, "retries are 1-based");
        self.backoff_base_secs * self.backoff_factor.powi(retry as i32 - 1)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 3, backoff_base_secs: 60.0, backoff_factor: 2.0 }
    }
}

/// The complete failure-injection model: taxonomy classes, the retry
/// policy, and the schedule seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureModel {
    /// Seed for the failure schedule (independent of the trace seed).
    pub seed: u64,
    /// Active taxonomy classes.
    pub classes: Vec<ClassModel>,
    /// Requeue policy for victims.
    pub retry: RetryPolicy,
}

impl FailureModel {
    /// The default taxonomy, calibrated to a healthy production fleet:
    /// node hardware fails with a slightly decreasing hazard (post
    /// burn-in Weibull, `k = 0.9`) about once per ~92 node-days, GPUs
    /// throw Xid faults about once per ~170 GPU-days, and transient
    /// infra blips hit a node about once per ~60 node-days but clear in
    /// minutes.
    pub fn supercloud(seed: u64) -> Self {
        FailureModel {
            seed,
            classes: vec![
                ClassModel {
                    cause: FailureCause::NodeHardware,
                    interarrival: Interarrival::Weibull { mtbf_secs: 8.0e6, shape: 0.9 },
                    repair_secs: 4.0 * 3600.0,
                },
                ClassModel {
                    cause: FailureCause::GpuXid,
                    interarrival: Interarrival::Exponential { mtbf_secs: 1.5e7 },
                    repair_secs: 0.0,
                },
                ClassModel {
                    cause: FailureCause::InfraTransient,
                    interarrival: Interarrival::Exponential { mtbf_secs: 5.0e6 },
                    repair_secs: 300.0,
                },
            ],
            retry: RetryPolicy::default(),
        }
    }

    /// A nodes-only model — the pre-taxonomy behaviour, for ablations
    /// and the whole-node failure studies.
    pub fn nodes_only(node_mtbf_secs: f64, repair_secs: f64, seed: u64) -> Self {
        FailureModel {
            seed,
            classes: vec![ClassModel {
                cause: FailureCause::NodeHardware,
                interarrival: Interarrival::Exponential { mtbf_secs: node_mtbf_secs },
                repair_secs,
            }],
            retry: RetryPolicy::default(),
        }
    }

    /// Returns a copy with every class's MTBF scaled by `factor` —
    /// `0.1` makes the fleet ten times less reliable. Used by the
    /// `--mtbf` sweep flag.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and positive. Config paths that
    /// must not panic (the scenario parser) use
    /// [`FailureModel::try_scaled_mtbf`] instead.
    pub fn scaled_mtbf(&self, factor: f64) -> Self {
        self.try_scaled_mtbf(factor).expect("MTBF scale must be positive")
    }

    /// Fallible form of [`FailureModel::scaled_mtbf`]: rejects a
    /// non-finite or non-positive factor with a typed error instead of
    /// panicking, so malformed `[failures] mtbf_factor` keys surface as
    /// range diagnostics.
    pub fn try_scaled_mtbf(&self, factor: f64) -> Result<Self, FailureConfigError> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(FailureConfigError::new(
                "mtbf_factor",
                format!("MTBF scale must be positive and finite, got {factor}"),
            ));
        }
        let mut out = self.clone();
        for c in &mut out.classes {
            c.interarrival = match c.interarrival {
                Interarrival::Exponential { mtbf_secs } => {
                    Interarrival::Exponential { mtbf_secs: mtbf_secs * factor }
                }
                Interarrival::Weibull { mtbf_secs, shape } => {
                    Interarrival::Weibull { mtbf_secs: mtbf_secs * factor, shape }
                }
            };
        }
        Ok(out)
    }

    /// Validates every class's interarrival law, repair time, and the
    /// retry policy. Returns the first violation as a typed error.
    pub fn validate(&self) -> Result<(), FailureConfigError> {
        for c in &self.classes {
            c.interarrival.validate()?;
            if !(c.repair_secs.is_finite() && c.repair_secs >= 0.0) {
                return Err(FailureConfigError::new(
                    "repair_secs",
                    format!("must be non-negative and finite, got {}", c.repair_secs),
                ));
            }
        }
        if !(self.retry.backoff_base_secs.is_finite() && self.retry.backoff_base_secs >= 0.0) {
            return Err(FailureConfigError::new(
                "backoff_base_secs",
                format!("must be non-negative and finite, got {}", self.retry.backoff_base_secs),
            ));
        }
        if !(self.retry.backoff_factor.is_finite() && self.retry.backoff_factor >= 1.0) {
            return Err(FailureConfigError::new(
                "backoff_factor",
                format!("must be >= 1 and finite, got {}", self.retry.backoff_factor),
            ));
        }
        Ok(())
    }

    /// Aggregate failure hazard (events/sec) seen by a job occupying
    /// `nodes` nodes and `gpus` GPUs — the Meta rate-vs-size law made
    /// explicit: each class contributes `units / MTBF`, where units is
    /// the job's GPU count for [`FailureCause::GpuXid`] and its node
    /// count otherwise. A job spanning N nodes is exposed to N nodes'
    /// worth of hardware hazard.
    pub fn job_hazard_per_sec(&self, nodes: u32, gpus: u32) -> f64 {
        self.classes
            .iter()
            .map(|c| {
                let units = match c.cause {
                    FailureCause::GpuXid => gpus as f64,
                    _ => nodes as f64,
                };
                units * c.interarrival.hazard_per_unit_sec()
            })
            .sum()
    }

    /// Mean time to interrupt for a job with the given footprint:
    /// `1 / job_hazard_per_sec`. Infinite for an empty footprint or an
    /// empty taxonomy — callers treat that as "no checkpointing needed".
    pub fn job_mtti_secs(&self, nodes: u32, gpus: u32) -> f64 {
        let h = self.job_hazard_per_sec(nodes, gpus);
        if h <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / h
        }
    }

    /// Looks up a named failure profile: `off` (no injection),
    /// `supercloud` (the default taxonomy), `stress` (10× failure
    /// rates), or `transient` (blip-dominated). Returns `None` for an
    /// unknown name; `Some(None)` means injection disabled.
    pub fn profile(name: &str, seed: u64) -> Option<Option<FailureModel>> {
        match name {
            "off" | "none" => Some(None),
            "supercloud" | "default" => Some(Some(FailureModel::supercloud(seed))),
            "stress" => Some(Some(FailureModel::supercloud(seed).scaled_mtbf(0.1))),
            "transient" => {
                let mut m = FailureModel::supercloud(seed);
                m.classes.retain(|c| c.cause == FailureCause::InfraTransient);
                m.classes[0].interarrival = Interarrival::Exponential { mtbf_secs: 1.0e6 };
                Some(Some(m))
            }
            _ => None,
        }
    }

    /// Names accepted by [`FailureModel::profile`], for usage messages.
    pub const PROFILE_NAMES: &'static str = "off|supercloud|stress|transient";

    /// Expands the model into the fleet-wide failure schedule over the
    /// half-open interval `[0, horizon)`, sorted by time with
    /// deterministic tie-breaking.
    ///
    /// The horizon bound is strict: an event drawn exactly at the
    /// boundary is excluded, so for `h1 < h2` the `h1` schedule is a
    /// prefix of the `h2` schedule (per class) and growth-study runs at
    /// different horizons can never double-count a boundary fault.
    ///
    /// Each class samples from its own `StdRng` stream (derived from
    /// the model seed and the class index), so adding or removing a
    /// class never perturbs the others' arrival times.
    pub fn schedule(&self, nodes: u32, gpus: u32, horizon: f64) -> Vec<ScheduledFailure> {
        let mut out = Vec::new();
        for class in &self.classes {
            let units = match class.cause {
                FailureCause::GpuXid => gpus as f64,
                _ => nodes as f64,
            };
            if units <= 0.0 {
                continue;
            }
            // Stream seeded by the taxonomy slot (not the list
            // position): adding or removing another class never
            // perturbs this one's arrivals.
            let slot = class.cause.index() as u64 + 1;
            let mut rng = StdRng::seed_from_u64(self.seed ^ slot.wrapping_mul(0x9e37_79b9));
            let mut t = 0.0;
            loop {
                t += class.interarrival.sample_gap(&mut rng, units);
                if t >= horizon {
                    break;
                }
                out.push(ScheduledFailure {
                    time: t,
                    cause: class.cause,
                    node: NodeId(rng.gen_range(0..nodes)),
                    pick: rng.gen::<u64>(),
                    repair_secs: class.repair_secs,
                });
            }
        }
        // Total order: time, then taxonomy slot, then node — every key
        // is deterministic, so ties cannot depend on sort internals.
        out.sort_by(|a, b| {
            a.time
                .partial_cmp(&b.time)
                .expect("finite failure times")
                .then(a.cause.index().cmp(&b.cause.index()))
                .then(a.node.cmp(&b.node))
        });
        out
    }
}

/// One pre-scheduled failure event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduledFailure {
    /// When it strikes, seconds from trace start.
    pub time: f64,
    /// Taxonomy class.
    pub cause: FailureCause,
    /// The struck node.
    pub node: NodeId,
    /// Victim-selection entropy (which resident job a GPU fault hits).
    pub pick: u64,
    /// Node downtime, seconds; 0 keeps the node in service.
    pub repair_secs: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_sorted() {
        let m = FailureModel::supercloud(7);
        let a = m.schedule(224, 448, 1.0e7);
        let b = m.schedule(224, 448, 1.0e7);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "expected failures over a 115-day horizon");
        for w in a.windows(2) {
            assert!(w[0].time <= w[1].time, "schedule must be sorted");
        }
        for f in &a {
            assert!(f.node.0 < 224);
            assert!(f.time >= 0.0 && f.time < 1.0e7);
        }
    }

    #[test]
    fn class_streams_are_independent() {
        // Removing one class must not move the others' arrival times.
        let full = FailureModel::supercloud(3);
        let mut no_xid = full.clone();
        no_xid.classes.retain(|c| c.cause != FailureCause::GpuXid);
        let times = |s: &[ScheduledFailure], cause: FailureCause| -> Vec<f64> {
            s.iter().filter(|f| f.cause == cause).map(|f| f.time).collect()
        };
        let a = full.schedule(224, 448, 5.0e6);
        let b = no_xid.schedule(224, 448, 5.0e6);
        assert_eq!(times(&a, FailureCause::NodeHardware), times(&b, FailureCause::NodeHardware));
        assert_eq!(
            times(&a, FailureCause::InfraTransient),
            times(&b, FailureCause::InfraTransient)
        );
        assert!(times(&b, FailureCause::GpuXid).is_empty());
    }

    #[test]
    fn rate_tracks_fleet_size_and_mtbf() {
        let m = FailureModel::nodes_only(1.0e6, 3600.0, 1);
        let horizon = 2.0e7;
        let small = m.schedule(10, 20, horizon).len() as f64;
        let big = m.schedule(100, 200, horizon).len() as f64;
        // Expected counts: nodes * horizon / mtbf = 200 and 2000.
        assert!((small - 200.0).abs() < 60.0, "small fleet count {small}");
        assert!((big / small - 10.0).abs() < 2.0, "rate must scale with nodes");
        let fast = m.scaled_mtbf(0.5).schedule(10, 20, horizon).len() as f64;
        assert!((fast / small - 2.0).abs() < 0.5, "halving MTBF must double failures");
    }

    #[test]
    fn backoff_grows_exponentially() {
        let r = RetryPolicy { max_retries: 3, backoff_base_secs: 60.0, backoff_factor: 2.0 };
        assert_eq!(r.backoff_secs(1), 60.0);
        assert_eq!(r.backoff_secs(2), 120.0);
        assert_eq!(r.backoff_secs(3), 240.0);
    }

    #[test]
    fn horizon_is_half_open_and_schedules_nest_by_prefix() {
        // Satellite fix: `[0, horizon)` is strict, so a shorter-horizon
        // schedule must be an exact prefix of a longer one per class and
        // no event may land at or past the bound.
        let m = FailureModel::supercloud(11);
        let long = m.schedule(224, 448, 8.0e6);
        for h in [0.0, 1.0e5, 2.5e6, 8.0e6] {
            let short = m.schedule(224, 448, h);
            for f in &short {
                assert!(f.time < h, "event at {} must be excluded at horizon {h}", f.time);
            }
            let expected: Vec<_> = long.iter().copied().filter(|f| f.time < h).collect();
            assert_eq!(short, expected, "horizon {h} schedule must be a prefix of the long one");
        }
        assert!(m.schedule(224, 448, 0.0).is_empty(), "zero horizon schedules nothing");
        // An event drawn exactly at the boundary is excluded: replay the
        // first NodeHardware arrival and use its time as the horizon.
        let first = long.iter().find(|f| f.cause == FailureCause::NodeHardware).unwrap();
        let at_boundary = m.schedule(224, 448, first.time);
        assert!(
            !at_boundary.iter().any(|f| f.cause == FailureCause::NodeHardware),
            "event exactly at the horizon must not be scheduled"
        );
    }

    #[test]
    fn validation_rejects_bad_parameters_with_typed_errors() {
        assert!(Interarrival::Exponential { mtbf_secs: 1.0 }.validate().is_ok());
        let err = Interarrival::Exponential { mtbf_secs: 0.0 }.validate().unwrap_err();
        assert_eq!(err.param, "mtbf_secs");
        let err = Interarrival::Exponential { mtbf_secs: f64::NAN }.validate().unwrap_err();
        assert!(err.to_string().contains("positive"));
        let err = Interarrival::Weibull { mtbf_secs: 1.0, shape: -2.0 }.validate().unwrap_err();
        assert_eq!(err.param, "shape");

        let m = FailureModel::supercloud(1);
        assert!(m.validate().is_ok());
        assert!(m.try_scaled_mtbf(0.5).is_ok());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = m.try_scaled_mtbf(bad).unwrap_err();
            assert_eq!(err.param, "mtbf_factor");
            assert!(err.to_string().contains("positive"), "message: {err}");
        }
        let mut broken = m.clone();
        broken.retry.backoff_factor = 0.5;
        assert_eq!(broken.validate().unwrap_err().param, "backoff_factor");
        broken = m.clone();
        broken.classes[0].repair_secs = f64::NAN;
        assert_eq!(broken.validate().unwrap_err().param, "repair_secs");
    }

    #[test]
    fn job_hazard_scales_with_footprint() {
        let m = FailureModel::supercloud(1);
        let one = m.job_hazard_per_sec(1, 2);
        let eight = m.job_hazard_per_sec(8, 16);
        assert!(one > 0.0);
        assert!((eight / one - 8.0).abs() < 1e-9, "8x footprint => 8x hazard");
        assert!((m.job_mtti_secs(1, 2) - 1.0 / one).abs() < 1e-6);
        assert_eq!(m.job_mtti_secs(0, 0), f64::INFINITY);
        // Hand check: 1 node / 2 GPU exposure under the supercloud taxonomy.
        let expected = 1.0 / 8.0e6 + 2.0 / 1.5e7 + 1.0 / 5.0e6;
        assert!((one - expected).abs() < 1e-12);
    }

    #[test]
    fn profiles_resolve() {
        assert!(FailureModel::profile("off", 1).unwrap().is_none());
        assert!(FailureModel::profile("supercloud", 1).unwrap().is_some());
        let stress = FailureModel::profile("stress", 1).unwrap().unwrap();
        let base = FailureModel::supercloud(1);
        assert!(
            stress.classes[0].interarrival.mtbf_secs() < base.classes[0].interarrival.mtbf_secs()
        );
        let transient = FailureModel::profile("transient", 1).unwrap().unwrap();
        assert_eq!(transient.classes.len(), 1);
        assert!(FailureModel::profile("bogus", 1).is_none());
    }
}
