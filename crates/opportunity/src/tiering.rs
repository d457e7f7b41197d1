//! Multi-tier GPU cluster economics (Sec. VIII recommendations).
//!
//! "Instead of buying only the latest-and-fastest GPUs, it might be
//! more cost-effective to mix them with some less-expensive,
//! less-powerful, or even less-reliable GPUs for exploratory and IDE
//! jobs. … This approach also increases the capacity of the data center
//! under the same cost budget and reduces the job wait time."
//!
//! The model: a budget buys a mix of fast GPUs (V100-class, speed 1.0,
//! unit cost 1.0) and slow GPUs (speed `s`, cost `c < s`… or even
//! `c < 1`). A routing policy sends lifecycle classes to tiers. A job
//! routed to the slow tier stretches by the compute-bound share of its
//! time: `slowdown = active · (1/s) + (1 − active)` — idle time does
//! not care how fast the silicon is, which is exactly why dev/IDE jobs
//! are cheap to demote.

use sc_core::GpuJobView;
use sc_workload::LifecycleClass;

/// A GPU tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tier {
    /// Relative speed (fast tier = 1.0).
    pub speed: f64,
    /// Relative unit cost (fast tier = 1.0).
    pub cost: f64,
}

/// Which classes go to the slow tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingPolicy {
    /// Everything on fast GPUs (the single-tier baseline).
    AllFast,
    /// Exploratory, development, and IDE jobs on the slow tier — the
    /// paper's recommendation.
    DemoteNonMature,
    /// Only development and IDE jobs demoted (conservative variant).
    DemoteDevIde,
}

impl RoutingPolicy {
    /// All policies.
    pub const ALL: [RoutingPolicy; 3] =
        [RoutingPolicy::AllFast, RoutingPolicy::DemoteNonMature, RoutingPolicy::DemoteDevIde];

    /// Whether a class is demoted under this policy.
    pub fn demotes(&self, class: LifecycleClass) -> bool {
        match self {
            RoutingPolicy::AllFast => false,
            RoutingPolicy::DemoteNonMature => class != LifecycleClass::Mature,
            RoutingPolicy::DemoteDevIde => {
                matches!(class, LifecycleClass::Development | LifecycleClass::Ide)
            }
        }
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            RoutingPolicy::AllFast => "all-fast",
            RoutingPolicy::DemoteNonMature => "demote-non-mature",
            RoutingPolicy::DemoteDevIde => "demote-dev/IDE",
        }
    }
}

/// Outcome of one routing policy under a fixed budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierOutcome {
    /// The policy.
    pub policy: RoutingPolicy,
    /// Fraction of GPU demand routed to the slow tier.
    pub demand_slow_fraction: f64,
    /// Cost to serve the whole workload's GPU-hours, relative to the
    /// all-fast baseline (provisioned capacity ∝ demand per tier).
    pub relative_cost: f64,
    /// Mean slowdown of demoted jobs.
    pub demoted_mean_slowdown: f64,
    /// Mean slowdown of mature jobs (should stay 1.0 — the point of the
    /// design).
    pub mature_mean_slowdown: f64,
    /// Extra capacity (fraction) the saved budget buys in fast GPUs if
    /// reinvested.
    pub capacity_gain: f64,
}

/// Per-job slowdown on a tier: idle time is speed-invariant.
pub fn tier_slowdown(active_fraction: f64, speed: f64) -> f64 {
    assert!(speed > 0.0, "tier speed must be positive");
    let active = active_fraction.clamp(0.0, 1.0);
    active / speed + (1.0 - active)
}

/// Evaluates routing policies over the analyzed jobs.
///
/// `active_fraction` per job is estimated from its SM duty cycle
/// (mean/max when the max is positive), the observable proxy for how
/// compute-bound the job is.
///
/// # Panics
///
/// Panics if `views` is empty or tier parameters are non-positive.
pub fn evaluate(views: &[GpuJobView<'_>], slow: Tier) -> Vec<TierOutcome> {
    assert!(!views.is_empty(), "need jobs");
    assert!(slow.speed > 0.0 && slow.cost > 0.0, "tier parameters must be positive");
    let total_hours: f64 = views.iter().map(|v| v.gpu_hours()).sum();
    RoutingPolicy::ALL
        .iter()
        .map(|&policy| {
            let mut slow_hours = 0.0;
            let mut demoted_slow = Vec::new();
            for v in views {
                if policy.demotes(v.class) {
                    let duty = if v.agg.sm_util.max > 0.0 {
                        (v.agg.sm_util.mean / v.agg.sm_util.max).clamp(0.0, 1.0)
                    } else {
                        0.0
                    };
                    let sd = tier_slowdown(duty, slow.speed);
                    demoted_slow.push(sd);
                    // Demand stretches by the slowdown on the slow tier.
                    slow_hours += v.gpu_hours() * sd;
                }
            }
            let fast_hours: f64 =
                views.iter().filter(|v| !policy.demotes(v.class)).map(|v| v.gpu_hours()).sum();
            let relative_cost = (fast_hours * 1.0 + slow_hours * slow.cost) / total_hours.max(1e-9);
            let demoted_mean = if demoted_slow.is_empty() {
                1.0
            } else {
                demoted_slow.iter().sum::<f64>() / demoted_slow.len() as f64
            };
            TierOutcome {
                policy,
                demand_slow_fraction: slow_hours / (slow_hours + fast_hours).max(1e-9),
                relative_cost,
                demoted_mean_slowdown: demoted_mean,
                mature_mean_slowdown: 1.0,
                capacity_gain: (1.0 - relative_cost).max(0.0),
            }
        })
        .collect()
}

/// Renders the study as a text table.
pub fn render(outcomes: &[TierOutcome], slow: Tier) -> String {
    let mut s = format!(
        "Two-tier cluster study (slow tier: speed {:.2}, cost {:.2}):\n  policy              slow-demand%  rel-cost  demoted-slowdown  capacity-gain\n",
        slow.speed, slow.cost
    );
    for o in outcomes {
        s.push_str(&format!(
            "  {:<18} {:>11.1}  {:>8.3}  {:>16.3}  {:>12.1}%\n",
            o.policy.label(),
            o.demand_slow_fraction * 100.0,
            o.relative_cost,
            o.demoted_mean_slowdown,
            o.capacity_gain * 100.0
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_jobs_do_not_slow_on_slow_tier() {
        assert_eq!(tier_slowdown(0.0, 0.5), 1.0);
        // Fully compute-bound doubles on a half-speed GPU.
        assert_eq!(tier_slowdown(1.0, 0.5), 2.0);
        // Half duty: 1.5×.
        assert_eq!(tier_slowdown(0.5, 0.5), 1.5);
    }

    #[test]
    #[should_panic(expected = "tier speed must be positive")]
    fn zero_speed_rejected() {
        let _ = tier_slowdown(0.5, 0.0);
    }
}
