//! Closed-loop scheduling policies and the deterministic A/B harness.
//!
//! The paper's Section VII opportunity analyses (power capping, GPU
//! sharing, tier routing) are *offline* what-ifs scored against the
//! measured dataset. This crate closes the loop: each opportunity
//! becomes a [`sc_cluster::Policy`] that rides inside the discrete-event
//! loop and changes what the simulated cluster actually does, and
//! [`PolicyExperiment`] replays the *same* seeded trace twice — once as
//! the production baseline, once with the policy — to measure the deltas
//! the analytic models only predict.
//!
//! - [`PowerCapPolicy`]: per-GPU power-cap enforcement; capped jobs
//!   stretch by the [`sc_opportunity::powercap`] DVFS slowdown model and
//!   report capped telemetry.
//! - [`CosharePolicy`]: packs predicted-low-utilization single-GPU jobs
//!   two per GPU, with interference drawn from the
//!   [`sc_opportunity::colocation`] phase-overlap model. Its
//!   [`ShareGate`] decides which jobs share: ground-truth mean SM
//!   utilization (`coshare`), or archetype labels — an `sc-learn`
//!   classifier's predictions for `coshare-predicted`, the ground truth
//!   for that arm's oracle twin, so the A/B between the two isolates
//!   the cost of classifier error.
//! - [`TieredPolicy`]: routes non-mature lifecycle classes to the slow
//!   tier ([`sc_opportunity::tiering::RoutingPolicy::DemoteNonMature`]).
//!
//! [`PolicySpec::build`] builds every arm, and never panics.
//!
//! Every policy is a pure function of the simulation state it observes
//! (ground truth is regenerated from per-job seeds), so policy runs are
//! byte-identical at any `sc_par` thread budget.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Building and running an arm surfaces degenerate input as a typed
// error, never a panic; tests are exempt (unwrap there is an assertion).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod coshare;
pub mod experiment;
pub mod powercap;
pub mod tiered;

pub use coshare::{shareable_archetype, CosharePolicy, ShareGate};
pub use experiment::{ExperimentResult, PolicyExperiment};
pub use powercap::PowerCapPolicy;
pub use tiered::TieredPolicy;

use sc_cluster::{ClusterSpec, Policy};
use sc_learn::{ArchetypePredictor, ClassifierConfig, EvalReport};
use sc_stats::StatsError;
use sc_telemetry::gpu_power::V100_IDLE_W;
use sc_workload::Trace;

/// A parsed `--policy` selection, as accepted by `repro_figures`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicySpec {
    /// No policy: the A/B harness runs two identical baselines.
    Off,
    /// Enforce a per-GPU power cap, watts.
    PowerCap {
        /// The cap, watts.
        cap_w: f64,
    },
    /// Pack low-utilization single-GPU jobs two per GPU.
    Coshare,
    /// Route non-mature classes to a slow tier (the harness gives both
    /// arms the same two-tier hardware so only routing differs).
    Tiered,
    /// Label-gated co-sharing driven by a classifier's *predicted*
    /// archetypes instead of ground truth. The experiment harness also
    /// runs the oracle-label arm so the report can show what classifier
    /// error costs.
    CosharePredicted,
}

impl PolicySpec {
    /// The standard what-if arms a query service exposes: the power cap
    /// that actually bites this workload (mean board power sits far
    /// below TDP, so 250 W throttles nothing), co-sharing, and tier
    /// routing. [`PolicySpec::Off`] is excluded — an off arm is two
    /// identical baselines, not a what-if.
    pub const STANDARD_ARMS: [PolicySpec; 3] =
        [PolicySpec::PowerCap { cap_w: 150.0 }, PolicySpec::Coshare, PolicySpec::Tiered];

    /// The selectors [`PolicySpec::parse`] accepts, for messages.
    pub const NAMES: &'static str = "off | powercap:<watts> | coshare | coshare-predicted | tiered";

    /// Parses a selector: `off`, `powercap:<watts>`, `coshare`,
    /// `coshare-predicted` or `tiered`. A cap must be finite and at
    /// least the V100's idle draw ([`V100_IDLE_W`]): a board cannot draw
    /// less than it idles at, so a lower cap would only clamp the
    /// telemetry below what the GPUs burn.
    ///
    /// # Errors
    ///
    /// A [`PolicyParseError`] saying which part is wrong; each entry
    /// point words it for its own syntax.
    pub fn parse(s: &str) -> Result<PolicySpec, PolicyParseError> {
        match s {
            "off" => Ok(PolicySpec::Off),
            "coshare" => Ok(PolicySpec::Coshare),
            "coshare-predicted" => Ok(PolicySpec::CosharePredicted),
            "tiered" => Ok(PolicySpec::Tiered),
            _ => {
                let Some(w) = s.strip_prefix("powercap:") else {
                    return Err(PolicyParseError::UnknownName(s.to_string()));
                };
                let cap_w: f64 =
                    w.parse().map_err(|_| PolicyParseError::BadWatts(w.to_string()))?;
                if !(V100_IDLE_W..f64::INFINITY).contains(&cap_w) {
                    return Err(PolicyParseError::WattsOutOfRange(w.to_string()));
                }
                Ok(PolicySpec::PowerCap { cap_w })
            }
        }
    }

    /// Display label (`powercap:250` style). The watts print exactly,
    /// so the label parses back to this spec and two caps never share
    /// a label.
    pub fn label(&self) -> String {
        match self {
            PolicySpec::Off => "off".to_string(),
            PolicySpec::PowerCap { cap_w } => format!("powercap:{cap_w}"),
            PolicySpec::Coshare => "coshare".to_string(),
            PolicySpec::CosharePredicted => "coshare-predicted".to_string(),
            PolicySpec::Tiered => "tiered".to_string(),
        }
    }

    /// Builds the arm.
    ///
    /// `cluster` must be the spec the simulation will actually run with
    /// (tier routing reads its slow-tier layout).
    /// [`PolicySpec::CosharePredicted`] first trains its classifier on
    /// `trace` with `classifier`; every other arm ignores both.
    ///
    /// # Errors
    ///
    /// [`StatsError::EmptyInput`] when the predicted arm's trace leaves
    /// a classifier split without a labeled GPU job.
    pub fn build(
        &self,
        cluster: &ClusterSpec,
        trace: &Trace,
        classifier: &ClassifierConfig,
    ) -> Result<Arm, StatsError> {
        let mut classifier_eval = None;
        let policy: Option<Box<dyn Policy>> = match *self {
            PolicySpec::Off => None,
            PolicySpec::PowerCap { cap_w } => Some(Box::new(PowerCapPolicy { cap_w })),
            PolicySpec::Coshare => Some(Box::new(CosharePolicy::default())),
            PolicySpec::CosharePredicted => {
                let (predictor, eval) = ArchetypePredictor::train(trace, classifier)?;
                classifier_eval = Some(eval);
                Some(Box::new(CosharePolicy::with_gate(ShareGate::PredictedLabel(predictor))))
            }
            PolicySpec::Tiered => Some(Box::new(TieredPolicy::new(cluster.clone()))),
        };
        Ok(Arm { policy, classifier_eval })
    }
}

/// One built policy arm, as [`PolicySpec::build`] returns it.
#[derive(Debug)]
pub struct Arm {
    /// The policy; `None` for [`PolicySpec::Off`].
    pub policy: Option<Box<dyn Policy>>,
    /// Held-out evaluation of the classifier the arm trained
    /// ([`PolicySpec::CosharePredicted`] only).
    pub classifier_eval: Option<EvalReport>,
}

/// Why a selector is not a [`PolicySpec`]. The message names no entry
/// point: `--policy`, a scenario's `[policy] arm` and `ab:` queries each
/// word it for their own syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyParseError {
    /// The selector names no policy.
    UnknownName(String),
    /// The text after `powercap:` is not a number.
    BadWatts(String),
    /// The watts after `powercap:` parse, but are not finite or sit
    /// below [`V100_IDLE_W`].
    WattsOutOfRange(String),
}

impl std::fmt::Display for PolicyParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyParseError::UnknownName(s) => {
                write!(f, "unknown policy {s:?}: expected {}", PolicySpec::NAMES)
            }
            PolicyParseError::BadWatts(w) => write!(f, "bad watts {w:?} in powercap:<watts>"),
            PolicyParseError::WattsOutOfRange(w) => write!(
                f,
                "powercap needs finite watts at or above the V100 idle draw of {V100_IDLE_W} W, \
                 got {w}"
            ),
        }
    }
}

impl std::error::Error for PolicyParseError {}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_workload::WorkloadSpec;

    #[test]
    fn parse_accepts_the_cli_matrix() {
        assert_eq!(PolicySpec::parse("off").unwrap(), PolicySpec::Off);
        assert_eq!(PolicySpec::parse("coshare").unwrap(), PolicySpec::Coshare);
        assert_eq!(PolicySpec::parse("tiered").unwrap(), PolicySpec::Tiered);
        assert_eq!(
            PolicySpec::parse("powercap:250").unwrap(),
            PolicySpec::PowerCap { cap_w: 250.0 }
        );
        assert_eq!(PolicySpec::parse("powercap:250").unwrap().label(), "powercap:250");
        assert_eq!(PolicySpec::parse("powercap:20").unwrap(), PolicySpec::PowerCap { cap_w: 20.0 });
    }

    #[test]
    fn standard_arm_labels_round_trip_through_parse() {
        // Query tokens are built from labels, so every standard arm's
        // label must parse back to the same spec.
        for arm in PolicySpec::STANDARD_ARMS {
            assert_eq!(PolicySpec::parse(&arm.label()).unwrap(), arm, "{}", arm.label());
        }
    }

    #[test]
    fn predicted_label_round_trips_but_build_needs_a_trace() {
        assert_eq!(PolicySpec::parse("coshare-predicted").unwrap(), PolicySpec::CosharePredicted);
        assert_eq!(PolicySpec::CosharePredicted.label(), "coshare-predicted");
        let (cluster, cfg) = (ClusterSpec::supercloud(), ClassifierConfig::default());
        // No GPU job, so nothing to train on: a typed error, no panic.
        let mut spec = WorkloadSpec::supercloud().scaled(0.002);
        spec.gpu_job_fraction = 0.0;
        let cpu_only = Trace::generate(&spec, 5);
        let built = PolicySpec::CosharePredicted.build(&cluster, &cpu_only, &cfg);
        assert_eq!(built.err(), Some(StatsError::EmptyInput));
        let trace = Trace::generate(&WorkloadSpec::supercloud().scaled(0.004), 5);
        let arm = PolicySpec::CosharePredicted.build(&cluster, &trace, &cfg).unwrap();
        assert!(format!("{:?}", arm.policy).contains("PredictedLabel"), "{arm:?}");
        assert!(
            arm.classifier_eval.expect("the predicted arm reports its classifier").test_count > 0
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        let bad = |w: &str| PolicyParseError::BadWatts(w.to_string());
        let range = |w: &str| PolicyParseError::WattsOutOfRange(w.to_string());
        assert_eq!(PolicySpec::parse("powercap:banana"), Err(bad("banana")));
        assert_eq!(PolicySpec::parse("powercap:"), Err(bad("")));
        assert_eq!(PolicySpec::parse("powercap:-5"), Err(range("-5")));
        assert_eq!(PolicySpec::parse("powercap:0"), Err(range("0")));
        assert_eq!(PolicySpec::parse("powercap:19.9"), Err(range("19.9")));
        assert_eq!(PolicySpec::parse("powercap:inf"), Err(range("inf")));
        assert_eq!(PolicySpec::parse("powercap:NaN"), Err(range("NaN")));
        assert_eq!(
            PolicySpec::parse("turbo"),
            Err(PolicyParseError::UnknownName("turbo".to_string()))
        );
        // The messages name no entry point.
        assert_eq!(
            range("1").to_string(),
            "powercap needs finite watts at or above the V100 idle draw of 20 W, got 1"
        );
        for e in [bad("x"), range("1"), PolicyParseError::UnknownName("turbo".into())] {
            assert!(!e.to_string().contains("--policy"), "{e}");
        }
    }

    #[test]
    fn build_matches_spec() {
        let cluster = ClusterSpec::supercloud();
        let trace = Trace::generate(&WorkloadSpec::supercloud().scaled(0.002), 5);
        let build = |spec: PolicySpec| {
            let arm = spec.build(&cluster, &trace, &ClassifierConfig::default()).unwrap();
            assert!(arm.classifier_eval.is_none(), "only the predicted arm trains a classifier");
            arm.policy.map(|p| format!("{p:?}"))
        };
        assert_eq!(build(PolicySpec::Off), None);
        assert_eq!(
            build(PolicySpec::PowerCap { cap_w: 250.0 }).unwrap(),
            "PowerCapPolicy { cap_w: 250.0 }"
        );
        assert!(build(PolicySpec::Coshare).unwrap().contains("gate: MeanSm"));
        assert!(build(PolicySpec::Tiered).unwrap().starts_with("TieredPolicy"));
    }
}
