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
//! Faults are drawn on demand: [`FailureModel::stream`] yields the
//! fleet-wide failure schedule in time order, drawing from each class's
//! own seeded RNG as faults are taken and staying one draw ahead per
//! class. A replay therefore holds a few pending faults per class,
//! never the whole schedule, and nothing is sorted. The sequence is
//! still a pure function of `(model, fleet, horizon)` — byte-identical
//! at any thread count and independent of every other RNG stream in
//! the pipeline. [`FailureModel::schedule`] collects it into a list.

use crate::resources::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_stats::dist::{Exponential, Sample, Weibull};
pub use sc_telemetry::record::FailureCause;
use std::cmp::{Ordering, Reverse};
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// The law of one fleet-level gap: a fleet of `units` identical
    /// parts fails `units` times as often as one part.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are non-positive (a config bug).
    fn fleet_gap(&self, units: f64) -> FleetGap {
        match *self {
            Interarrival::Exponential { mtbf_secs } => FleetGap::Exponential(
                Exponential::with_mean(mtbf_secs / units).expect("positive MTBF"),
            ),
            Interarrival::Weibull { mtbf_secs, shape } => {
                FleetGap::Weibull(Weibull::new(shape, mtbf_secs / units).expect("valid Weibull"))
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

/// [`Interarrival`] built for a whole fleet, once per class.
#[derive(Debug, Clone, Copy)]
enum FleetGap {
    Exponential(Exponential),
    Weibull(Weibull),
}

impl Sample for FleetGap {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            FleetGap::Exponential(law) => law.sample(rng),
            FleetGap::Weibull(law) => law.sample(rng),
        }
    }
}

/// One class of the failure taxonomy: its cause label, interarrival
/// law, and how long the struck node stays out of service.
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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

    /// The whole failure schedule over `[0, horizon)`: every fault of
    /// [`FailureModel::stream`], collected in its order.
    pub fn schedule(&self, nodes: u32, gpus: u32, horizon: f64) -> Vec<ScheduledFailure> {
        self.stream(nodes, gpus, horizon).collect()
    }

    /// The fleet-wide failure schedule over the half-open interval
    /// `[0, horizon)`, drawn on demand and yielded in `(time, cause,
    /// node)` order.
    ///
    /// The horizon bound is strict: an event drawn exactly at the
    /// boundary is excluded, so for `h1 < h2` the `h1` schedule is a
    /// prefix of the `h2` schedule (per class) and growth-study runs at
    /// different horizons can never double-count a boundary fault.
    ///
    /// Each class samples from its own `StdRng` stream (derived from
    /// the model seed and the class's taxonomy slot), so adding or
    /// removing a class never perturbs the others' arrival times. A
    /// class with no units to strike (a GPU class on a CPU-only fleet)
    /// draws nothing.
    pub fn stream(&self, nodes: u32, gpus: u32, horizon: f64) -> FailureStream {
        let classes = self.classes.iter().filter_map(|class| {
            let units = match class.cause {
                FailureCause::GpuXid => gpus as f64,
                _ => nodes as f64,
            };
            if units <= 0.0 {
                return None;
            }
            // Stream seeded by the taxonomy slot (not the list
            // position): adding or removing another class never
            // perturbs this one's arrivals.
            let slot = class.cause.index() as u64 + 1;
            let rng = StdRng::seed_from_u64(self.seed ^ slot.wrapping_mul(0x9e37_79b9));
            let gap = class.interarrival.fleet_gap(units);
            Some(ClassDraws { class: *class, gap, nodes, horizon, rng, t: 0.0 })
        });
        FailureStream(Merge::new(classes))
    }
}

/// The fleet-wide failure schedule, drawn on demand: see
/// [`FailureModel::stream`].
#[derive(Debug)]
pub struct FailureStream(Merge<ClassDraws>);

impl Default for FailureStream {
    /// A stream without classes, which yields nothing: the schedule of
    /// a replay with failures off.
    fn default() -> Self {
        FailureStream(Merge::new([]))
    }
}

impl Iterator for FailureStream {
    type Item = ScheduledFailure;

    fn next(&mut self) -> Option<ScheduledFailure> {
        self.0.next()
    }
}

/// One class's faults in draw order, below the horizon.
#[derive(Debug)]
struct ClassDraws {
    class: ClassModel,
    gap: FleetGap,
    nodes: u32,
    horizon: f64,
    rng: StdRng,
    /// Time of the latest draw; at or past `horizon` once the class is
    /// done, so it stays done.
    t: f64,
}

impl Iterator for ClassDraws {
    type Item = ScheduledFailure;

    fn next(&mut self) -> Option<ScheduledFailure> {
        if self.t >= self.horizon {
            return None;
        }
        self.t += self.gap.sample(&mut self.rng);
        if self.t >= self.horizon {
            return None;
        }
        Some(ScheduledFailure {
            time: self.t,
            cause: self.class.cause,
            node: NodeId(self.rng.gen_range(0..self.nodes)),
            pick: self.rng.gen::<u64>(),
            repair_secs: self.class.repair_secs,
        })
    }
}

/// The schedule's total order: time, then taxonomy slot, then node —
/// every key is deterministic, so ties cannot depend on draw timing.
fn schedule_order(a: &ScheduledFailure, b: &ScheduledFailure) -> Ordering {
    a.time.total_cmp(&b.time).then(a.cause.index().cmp(&b.cause.index())).then(a.node.cmp(&b.node))
}

/// Merges per-class fault sequences, each in draw order, into one
/// sequence in [`schedule_order`].
///
/// A class's times never decrease, so only its earliest pending faults
/// compete. Faults of one class at one time form a run that is yielded
/// by node; a run needs a gap of exactly zero (drawn when the uniform
/// variate is 0) or one too small to move the clock. On a full tie the
/// class listed first goes first, and within a class the earlier draw:
/// the order a stable sort of every fault gives.
#[derive(Debug)]
struct Merge<D: Iterator<Item = ScheduledFailure>> {
    classes: Vec<ClassQueue<D>>,
}

impl<D: Iterator<Item = ScheduledFailure>> Merge<D> {
    fn new(classes: impl IntoIterator<Item = D>) -> Self {
        Merge { classes: classes.into_iter().map(ClassQueue::new).collect() }
    }
}

impl<D: Iterator<Item = ScheduledFailure>> Iterator for Merge<D> {
    type Item = ScheduledFailure;

    fn next(&mut self) -> Option<ScheduledFailure> {
        let mut first: Option<(usize, &ScheduledFailure)> = None;
        for (i, class) in self.classes.iter().enumerate() {
            if let Some(head) = class.run.last() {
                if first.is_none_or(|(_, best)| schedule_order(head, best).is_lt()) {
                    first = Some((i, head));
                }
            }
        }
        let (i, _) = first?;
        self.classes[i].pop()
    }
}

/// One class's pending faults.
#[derive(Debug)]
struct ClassQueue<D> {
    draws: D,
    /// The faults at the class's earliest pending time, the next to
    /// yield last.
    run: Vec<ScheduledFailure>,
    /// The first draw after the run, held back until the run empties.
    next: Option<ScheduledFailure>,
}

impl<D: Iterator<Item = ScheduledFailure>> ClassQueue<D> {
    fn new(mut draws: D) -> Self {
        let next = draws.next();
        let mut queue = ClassQueue { draws, run: Vec::new(), next };
        queue.refill();
        queue
    }

    fn pop(&mut self) -> Option<ScheduledFailure> {
        let fault = self.run.pop();
        if self.run.is_empty() {
            self.refill();
        }
        fault
    }

    /// Moves the held-back draw, and every later draw at its time, into
    /// the run.
    fn refill(&mut self) {
        let Some(first) = self.next.take() else { return };
        self.run.push(first);
        self.next = self.draws.next();
        while let Some(fault) = self.next.filter(|f| f.time == first.time) {
            self.run.push(fault);
            self.next = self.draws.next();
        }
        if self.run.len() > 1 {
            // Yield by node, then in draw order: reverse the draws, then
            // a stable sort by descending node puts both orders last-first.
            self.run.reverse();
            self.run.sort_by_key(|f| Reverse(f.node));
        }
    }
}

/// One injected failure event.
#[derive(Debug, Clone, Copy, PartialEq)]
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

    /// The sort-based schedule [`FailureModel::stream`] replaced, kept
    /// as its reference: every class's faults drawn up front, then
    /// stably sorted by `(time, cause, node)`.
    fn sorted_reference(
        m: &FailureModel,
        nodes: u32,
        gpus: u32,
        horizon: f64,
    ) -> Vec<ScheduledFailure> {
        let mut out = Vec::new();
        for class in &m.classes {
            let units = match class.cause {
                FailureCause::GpuXid => gpus as f64,
                _ => nodes as f64,
            };
            if units <= 0.0 {
                continue;
            }
            let slot = class.cause.index() as u64 + 1;
            let mut rng = StdRng::seed_from_u64(m.seed ^ slot.wrapping_mul(0x9e37_79b9));
            let mut t = 0.0;
            loop {
                t += class.interarrival.fleet_gap(units).sample(&mut rng);
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
        out.sort_by(|a, b| {
            a.time
                .partial_cmp(&b.time)
                .expect("finite failure times")
                .then(a.cause.index().cmp(&b.cause.index()))
                .then(a.node.cmp(&b.node))
        });
        out
    }

    #[test]
    fn stream_matches_the_sorted_reference_on_random_models() {
        const CAUSES: [FailureCause; 3] =
            [FailureCause::GpuXid, FailureCause::NodeHardware, FailureCause::InfraTransient];
        // Most faults any class may expect over the horizon; a factor
        // that would draw more is raised to this, to keep the test fast.
        const MAX_EXPECTED: f64 = 20_000.0;
        let horizons = [0.0, 1.0, 1.2 * 125.0 * 86_400.0];
        let mut rng = StdRng::seed_from_u64(0x5eed_f417);
        let (mut faults, mut mixed) = (0usize, 0usize);
        for case in 0..600 {
            let nodes = 10f64.powf(rng.gen_range(0.0..4.0)).round() as u32;
            let gpus = nodes * rng.gen_range(0..=8u32);
            let horizon = horizons[case % horizons.len()];
            // 0-3 classes; a cause may repeat, which shares one RNG slot.
            let classes: Vec<ClassModel> = (0..rng.gen_range(0..=3))
                .map(|_| {
                    let mtbf_secs = 10f64.powf(rng.gen_range(5.0..7.5));
                    let interarrival = if rng.gen::<bool>() {
                        Interarrival::Exponential { mtbf_secs }
                    } else {
                        Interarrival::Weibull { mtbf_secs, shape: rng.gen_range(0.5..2.0) }
                    };
                    ClassModel {
                        cause: CAUSES[rng.gen_range(0..CAUSES.len())],
                        interarrival,
                        repair_secs: rng.gen_range(0.0..1.0e4),
                    }
                })
                .collect();
            let base = FailureModel { seed: rng.gen(), classes, retry: RetryPolicy::default() };
            let fewest_secs = base
                .classes
                .iter()
                .map(|c| {
                    let units = if c.cause == FailureCause::GpuXid { gpus } else { nodes };
                    units as f64 * horizon / (MAX_EXPECTED * c.interarrival.mtbf_secs())
                })
                .fold(0.0, f64::max);
            let factor = 10f64.powf(rng.gen_range(-3.0..9.0)).max(fewest_secs);
            let m = base.scaled_mtbf(factor);
            let reference = sorted_reference(&m, nodes, gpus, horizon);
            let streamed: Vec<_> = m.stream(nodes, gpus, horizon).collect();
            assert_eq!(streamed, reference, "case {case}: {nodes} nodes, {gpus} GPUs, {m:?}");
            faults += reference.len();
            mixed += usize::from(reference.windows(2).any(|w| w[0].cause != w[1].cause));
        }
        assert!(faults > 100_000, "only {faults} faults compared");
        assert!(mixed > 30, "only {mixed} cases interleave classes");
    }

    #[test]
    fn merge_orders_ties_by_cause_then_node_then_class_and_draw() {
        // Hand-built draws: a stream cannot draw a zero gap on demand.
        // Class 0 has three faults at t=1 (two on node 5), class 1 two
        // at t=2 on one node, and class 3 repeats class 0's cause.
        let f = |time: f64, cause: FailureCause, node: u32, pick: u64| ScheduledFailure {
            time,
            cause,
            node: NodeId(node),
            pick,
            repair_secs: 0.0,
        };
        let (hw, infra) = (FailureCause::NodeHardware, FailureCause::InfraTransient);
        let classes = [
            vec![
                f(1.0, infra, 5, 0),
                f(1.0, infra, 2, 1),
                f(1.0, infra, 5, 2),
                f(3.0, infra, 0, 3),
            ],
            vec![f(1.0, hw, 9, 4), f(2.0, hw, 1, 5), f(2.0, hw, 1, 6), f(3.0, hw, 7, 7)],
            vec![],
            vec![f(1.0, infra, 2, 8), f(3.0, infra, 0, 9)],
        ];
        let merged: Vec<_> = Merge::new(classes.iter().map(|c| c.clone().into_iter())).collect();
        let picks: Vec<u64> = merged.iter().map(|f| f.pick).collect();
        assert_eq!(picks, [4, 1, 8, 0, 2, 5, 6, 7, 3, 9]);
        let mut sorted = classes.concat();
        sorted.sort_by(schedule_order);
        assert_eq!(merged, sorted, "the merge must equal a stable sort");
    }

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
