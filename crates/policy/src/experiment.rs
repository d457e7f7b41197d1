//! The deterministic A/B what-if harness.
//!
//! [`PolicyExperiment`] replays one seeded trace through two arms of the
//! same simulator configuration: the production baseline (no policy) and
//! the policy arm. Because the trace, hardware, failure schedule, and
//! telemetry seeds are identical, every delta in the resulting
//! [`PolicyAbFig`] is attributable to the policy — the closed-loop
//! analogue of the paper's offline what-if studies.
//!
//! For [`PolicySpec::Tiered`] *both* arms get the same two-tier hardware
//! (32 slow nodes at half speed by default): the A/B then compares
//! class-based routing against the simulator's interface-based default
//! on identical capacity, rather than confounding routing with a
//! hardware change.

use crate::coshare::CosharePolicy;
use crate::predicted::PredictedClassPolicy;
use crate::PolicySpec;
use sc_cluster::{Policy, SimConfig, SimOutput, Simulation, SlowTierSpec};
use sc_core::figures::PolicyAbFig;
use sc_learn::{ArchetypePredictor, ClassifierConfig, EvalReport};
use sc_obs::Obs;
use sc_stats::StatsError;
use sc_workload::Trace;

/// Slow-tier layout injected for [`PolicySpec::Tiered`] when the base
/// configuration has none: 32 nodes at half speed.
pub const DEFAULT_SLOW_TIER: SlowTierSpec = SlowTierSpec { nodes: 32, speed: 0.5 };

/// One policy A/B experiment: a base configuration plus the policy under
/// test.
#[derive(Debug, Clone)]
pub struct PolicyExperiment {
    /// Simulator configuration shared by both arms.
    pub base: SimConfig,
    /// The policy under test.
    pub spec: PolicySpec,
    /// Classifier configuration, used only by
    /// [`PolicySpec::CosharePredicted`].
    pub classifier: ClassifierConfig,
}

/// Both arms' outputs plus the delta figure.
#[derive(Debug)]
pub struct ExperimentResult {
    /// The no-policy arm.
    pub baseline: SimOutput,
    /// The policy arm.
    pub policy: SimOutput,
    /// The computed deltas.
    pub fig: PolicyAbFig,
    /// The oracle-label arm ([`PolicySpec::CosharePredicted`] only):
    /// the same gating rule as the policy arm, fed ground-truth labels.
    pub oracle: Option<SimOutput>,
    /// Baseline-vs-oracle deltas, when the oracle arm ran.
    pub oracle_fig: Option<PolicyAbFig>,
    /// Held-out evaluation of the classifier the policy arm trained,
    /// when one did.
    pub classifier_eval: Option<EvalReport>,
}

impl ExperimentResult {
    /// Predicted-arm-vs-oracle-arm goodput delta, percentage points
    /// (`None` unless the oracle arm ran). Negative means classifier
    /// error cost goodput relative to perfect labels.
    pub fn predicted_vs_oracle_goodput_pp(&self) -> Option<f64> {
        let oracle = self.oracle_fig.as_ref()?;
        Some((self.fig.policy.goodput_fraction - oracle.policy.goodput_fraction) * 100.0)
    }

    /// Predicted-arm-vs-oracle-arm mean queue-wait delta, seconds
    /// (`None` unless the oracle arm ran).
    pub fn predicted_vs_oracle_wait_secs(&self) -> Option<f64> {
        let oracle = self.oracle_fig.as_ref()?;
        Some(self.fig.policy.mean_queue_wait_secs - oracle.policy.mean_queue_wait_secs)
    }
}

impl PolicyExperiment {
    /// Builds an experiment over a base configuration.
    pub fn new(base: SimConfig, spec: PolicySpec) -> Self {
        PolicyExperiment { base, spec, classifier: ClassifierConfig::default() }
    }

    /// The configuration both arms actually run (tiered experiments get
    /// the default slow tier if the base has none).
    pub fn config(&self) -> SimConfig {
        let mut cfg = self.base.clone();
        if self.spec == PolicySpec::Tiered && cfg.cluster.slow_tier.is_none() {
            cfg.cluster.slow_tier = Some(DEFAULT_SLOW_TIER);
        }
        cfg
    }

    /// Runs both arms without tracing.
    ///
    /// # Errors
    ///
    /// Same as [`PolicyExperiment::run_observed`].
    pub fn run(&self, trace: &Trace) -> Result<ExperimentResult, StatsError> {
        self.run_observed(trace, &Obs::off())
    }

    /// Runs both arms; the *policy* arm emits into `obs`, so policy
    /// decision events land in the trace without baseline noise.
    ///
    /// For [`PolicySpec::CosharePredicted`] this trains the classifier
    /// on the trace, runs the predicted-label arm as the policy arm,
    /// and runs a third *oracle-label* arm (same gating rule, ground
    /// truth labels) so the result can report what classifier error
    /// cost.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] when an arm produced no
    /// records (an empty trace).
    pub fn run_observed(
        &self,
        trace: &Trace,
        obs: &Obs<'_>,
    ) -> Result<ExperimentResult, StatsError> {
        let cfg = self.config();
        let baseline = Simulation::new(cfg.clone()).run(trace);
        let mut classifier_eval = None;
        let mut arm: Option<Box<dyn Policy>> = if self.spec == PolicySpec::CosharePredicted {
            let (predictor, eval) = ArchetypePredictor::train(trace, &self.classifier);
            classifier_eval = Some(eval);
            Some(Box::new(PredictedClassPolicy::coshare(predictor)))
        } else {
            self.spec.build(&cfg.cluster)
        };
        let (policy, _) = Simulation::new(cfg.clone()).run_observed(trace, obs, arm.as_deref_mut());
        let fig = PolicyAbFig::try_compute(&self.spec.label(), &baseline, &policy)?;
        let (oracle, oracle_fig) = if self.spec == PolicySpec::CosharePredicted {
            let mut p = CosharePolicy::label_gated();
            let (out, _) = Simulation::new(cfg).run_observed(trace, &Obs::off(), Some(&mut p));
            let fig = PolicyAbFig::try_compute("coshare-oracle", &baseline, &out)?;
            (Some(out), Some(fig))
        } else {
            (None, None)
        };
        Ok(ExperimentResult { baseline, policy, fig, oracle, oracle_fig, classifier_eval })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_workload::WorkloadSpec;

    fn small_trace() -> Trace {
        Trace::generate(&WorkloadSpec::supercloud().scaled(0.004), 7)
    }

    fn small_config() -> SimConfig {
        SimConfig { detailed_series_jobs: 0, ..SimConfig::default() }
    }

    #[test]
    fn off_spec_yields_identical_arms() {
        let exp = PolicyExperiment::new(small_config(), PolicySpec::Off);
        let r = exp.run(&small_trace()).unwrap();
        assert_eq!(r.baseline.dataset.records().len(), r.policy.dataset.records().len());
        for (name, _, _, d) in r.fig.rows() {
            assert_eq!(d, 0.0, "{name} must not drift with no policy");
        }
    }

    #[test]
    fn powercap_arm_throttles_and_stretches() {
        let exp = PolicyExperiment::new(small_config(), PolicySpec::PowerCap { cap_w: 150.0 });
        let r = exp.run(&small_trace()).unwrap();
        assert!(r.policy.stats.policy_cap_throttles > 0, "a 150 W cap must bite");
        assert_eq!(r.baseline.stats.policy_cap_throttles, 0);
        for rec in r.policy.dataset.records() {
            if let Some(g) = &rec.gpu {
                for a in &g.per_gpu {
                    assert!(a.power_w.max <= 150.0 + 1e-9, "telemetry must be clamped at the cap");
                }
            }
        }
        // Throttled runs stretch; with an identical trace and no failure
        // injection every job's run time is monotone under the cap.
        // (Records land in completion order, so match the arms by id.)
        let by_id: std::collections::HashMap<_, _> =
            r.baseline.dataset.records().iter().map(|rec| (rec.sched.job_id, rec)).collect();
        for p in r.policy.dataset.records() {
            let b = by_id.get(&p.sched.job_id).expect("same jobs in both arms");
            assert!(p.sched.run_time() >= b.sched.run_time() - 1e-9);
        }
        assert!(r.fig.render().contains("powercap:150"));
    }

    #[test]
    fn predicted_experiment_runs_three_arms_and_reports_deltas() {
        let exp = PolicyExperiment::new(small_config(), PolicySpec::CosharePredicted);
        let r = exp.run(&small_trace()).unwrap();
        let eval = r.classifier_eval.as_ref().expect("predicted arm trains a classifier");
        assert!(eval.accuracy > 0.6, "confusion: {:?}", eval.confusion);
        let oracle = r.oracle.as_ref().expect("oracle arm runs alongside");
        assert!(oracle.stats.policy_coshares > 0, "label gate must pair some jobs");
        assert!(r.policy.stats.policy_coshares > 0, "predicted gate must pair some jobs");
        let goodput_pp = r.predicted_vs_oracle_goodput_pp().expect("oracle deltas available");
        assert!(goodput_pp.abs() < 20.0, "predicted vs oracle goodput delta: {goodput_pp}pp");
        assert!(r.predicted_vs_oracle_wait_secs().is_some());
        assert!(r.fig.render().contains("coshare-predicted"));
        assert_eq!(r.oracle_fig.as_ref().unwrap().policy.label, "coshare-oracle");
    }

    #[test]
    fn non_predicted_experiments_have_no_oracle_arm() {
        let exp = PolicyExperiment::new(small_config(), PolicySpec::Coshare);
        let r = exp.run(&small_trace()).unwrap();
        assert!(r.oracle.is_none() && r.oracle_fig.is_none() && r.classifier_eval.is_none());
        assert_eq!(r.predicted_vs_oracle_goodput_pp(), None);
    }

    #[test]
    fn tiered_experiment_gives_both_arms_the_slow_tier() {
        let exp = PolicyExperiment::new(small_config(), PolicySpec::Tiered);
        let cfg = exp.config();
        assert_eq!(cfg.cluster.slow_tier, Some(DEFAULT_SLOW_TIER));
        let r = exp.run(&small_trace()).unwrap();
        assert!(r.policy.stats.policy_tier_routes > 0, "routing must reroute some jobs");
        assert!(
            r.fig.policy.slow_tier_jobs > r.fig.baseline.slow_tier_jobs,
            "class routing demotes more work than interface routing"
        );
    }
}
