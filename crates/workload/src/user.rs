//! The user population model (Sec. IV of the paper).
//!
//! Users differ along four calibrated axes:
//!
//! 1. **Activity** — heavy-tailed lognormal weights ("top 5% of the
//!    users submit 44% of the jobs, and top 20% of the users submit
//!    83.2%").
//! 2. **Skill** — a latent expertise correlated with activity, which
//!    lifts average utilization (Fig. 12's positive Spearman between
//!    jobs/GPU-hours and average SM/memory utilization) without making
//!    behaviour more predictable (the CoV correlations stay low).
//! 3. **Lifecycle mix** — a Dirichlet draw around the global mix with
//!    low concentration, producing Fig. 17's extreme heterogeneity.
//! 4. **Run-time scale** — a lognormal multiplier spreading per-user
//!    average run times across orders of magnitude (Fig. 10).

use crate::spec::{LifecycleClass, WorkloadSpec};
use rand::Rng;
use sc_stats::dist::{Categorical, Gamma, LogNormal, Normal, Sample};
use sc_telemetry::record::UserId;

/// One synthetic user.
#[derive(Debug, Clone, PartialEq)]
pub struct UserProfile {
    /// Anonymized identity.
    pub id: UserId,
    /// Relative job-submission weight (Pareto-distributed).
    pub activity_weight: f64,
    /// Latent expertise in `[0, 1]`; correlated with activity.
    pub skill: f64,
    /// Per-user lifecycle mix in [`LifecycleClass::ALL`] order.
    pub class_mix: [f64; 4],
    /// Multiplier applied to the user's job run times.
    pub runtime_scale: f64,
    /// Largest GPU count this user's jobs ever request (Sec. V: only
    /// 60% of users run any multi-GPU job; 5.2% reach nine or more).
    pub gpu_ceiling: u32,
}

impl UserProfile {
    /// Probability that this user's next job belongs to `class`.
    pub fn class_probability(&self, class: LifecycleClass) -> f64 {
        let idx = LifecycleClass::ALL.iter().position(|c| *c == class).expect("known class");
        self.class_mix[idx]
    }
}

/// The generated population with its sampling tables.
#[derive(Debug, Clone)]
pub struct UserPopulation {
    users: Vec<UserProfile>,
    activity: Categorical,
}

impl UserPopulation {
    /// Generates the population described by `spec`.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, spec: &WorkloadSpec) -> Self {
        let noise = Normal::new(0.0, 0.8).expect("valid normal");
        let scale_dist =
            LogNormal::new(0.0, spec.user_runtime_scale_sigma).expect("valid lognormal");
        let shares = spec.class_shares();
        let ceiling_values: Vec<u32> =
            spec.user_gpu_ceiling_weights.iter().map(|(c, _)| *c).collect();
        let base_ceiling_weights: Vec<f64> =
            spec.user_gpu_ceiling_weights.iter().map(|(_, w)| *w).collect();

        // Activity weights: the deterministic lognormal quantile
        // staircase, randomly assigned to users. Plugging in quantiles
        // (rather than i.i.d. draws) pins the realized concentration,
        // which i.i.d. samples of only 191 users routinely miss by 10+
        // points; the lognormal shape interpolates the paper's
        // top-5% = 44% / top-20% = 83.2% pair better than a Pareto.
        let n = spec.users.max(1);
        let mut staircase: Vec<f64> = (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                (spec.user_activity_log_sigma * sc_stats::dist::standard_normal_quantile(u)).exp()
            })
            .collect();
        // Fisher–Yates shuffle so user ids are not rank-ordered.
        for i in (1..staircase.len()).rev() {
            let j = rng.gen_range(0..=i);
            staircase.swap(i, j);
        }
        let weights = staircase;
        let max_ln = weights.iter().map(|w| w.ln()).fold(f64::NEG_INFINITY, f64::max);
        let min_ln = weights.iter().map(|w| w.ln()).fold(f64::INFINITY, f64::min);
        let span = (max_ln - min_ln).max(1e-9);

        // Activity percentile ranks (0 = least active user).
        let ranks = sc_stats::correlation::fractional_ranks(&weights);
        let rank_scale = (spec.users.max(2) - 1) as f64;

        let mut users = Vec::with_capacity(spec.users);
        for (i, &w) in weights.iter().enumerate() {
            // Skill: normalized log-activity plus noise, squashed to (0, 1).
            let z = 2.5 * ((w.ln() - min_ln) / span - 0.5) + noise.sample(rng);
            let skill = 1.0 / (1.0 + (-z).exp());
            // Dirichlet draw around an activity-adjusted lifecycle mix:
            // the busiest users skew strongly mature, casual users skew
            // development/IDE. The cubic rank curve is what reconciles
            // the 60% job-weighted mature share with Fig. 17a's ">50% of
            // users have <40% mature jobs" — job volume concentrates in
            // the top ranks.
            let rank = ((ranks[i] - 1.0) / rank_scale).clamp(0.0, 1.0);
            let boost = rank.powi(3);
            let f_mature = (0.26 + 0.95 * boost).max(0.05);
            let f_expl = 0.79;
            let f_dev = (1.35 - 0.37 * boost).max(0.35);
            let f_ide = (1.60 - 0.90 * boost).max(0.15);
            let adjusted =
                [shares[0] * f_mature, shares[1] * f_expl, shares[2] * f_dev, shares[3] * f_ide];
            let adj_total: f64 = adjusted.iter().sum();
            let mut mix = [0.0; 4];
            let mut total = 0.0;
            for (k, &share) in adjusted.iter().enumerate() {
                let g =
                    Gamma::new((spec.user_mix_concentration * share / adj_total * 4.0).max(0.02))
                        .expect("positive shape");
                mix[k] = g.sample(rng).max(1e-12);
                total += mix[k];
            }
            for m in &mut mix {
                *m /= total;
            }
            users.push(UserProfile {
                id: UserId(i as u32),
                activity_weight: w,
                skill,
                class_mix: mix,
                runtime_scale: scale_dist.sample(rng),
                gpu_ceiling: {
                    // Expert users scale out more readily: tilt the
                    // ceiling weights with activity rank while keeping
                    // the rank-averaged user fractions on the Sec. V
                    // targets (the tilt factors integrate to 1 over
                    // uniform rank). This also stabilizes the realized
                    // job-size mix: the bulk of jobs comes from users
                    // whose ceilings are (near-)deterministic in rank.
                    let tilted: Vec<f64> = ceiling_values
                        .iter()
                        .zip(&base_ceiling_weights)
                        .map(|(&c, &w)| {
                            let tilt = if c == 1 {
                                1.6 - 1.2 * rank
                            } else if c <= 2 {
                                1.0
                            } else {
                                0.2 + 1.6 * rank
                            };
                            w * tilt.max(0.05)
                        })
                        .collect();
                    let dist = Categorical::new(&tilted).expect("positive weights");
                    ceiling_values[dist.sample_index(rng)]
                },
            });
        }
        let activity = Categorical::new(&weights).expect("positive weights");
        UserPopulation { users, activity }
    }

    /// All users.
    pub fn users(&self) -> &[UserProfile] {
        &self.users
    }

    /// Number of users.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Draws the submitter of the next job, proportional to activity.
    pub fn sample_user<R: Rng + ?Sized>(&self, rng: &mut R) -> &UserProfile {
        &self.users[self.activity.sample_index(rng)]
    }

    /// Looks up a user by id.
    pub fn user(&self, id: UserId) -> Option<&UserProfile> {
        self.users.get(id.0 as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sc_stats::{spearman, Lorenz};

    fn population(seed: u64) -> UserPopulation {
        let mut rng = StdRng::seed_from_u64(seed);
        UserPopulation::generate(&mut rng, &WorkloadSpec::supercloud())
    }

    #[test]
    fn population_size_matches_spec() {
        let pop = population(1);
        assert_eq!(pop.len(), 191);
        assert!(!pop.is_empty());
        assert!(pop.user(UserId(0)).is_some());
        assert!(pop.user(UserId(191)).is_none());
    }

    #[test]
    fn activity_concentration_is_pareto_like() {
        let pop = population(2);
        let weights: Vec<f64> = pop.users().iter().map(|u| u.activity_weight).collect();
        let l = Lorenz::new(weights).unwrap();
        let top20 = l.top_share(0.2);
        // Paper: top 20% of users submit 83.2% of jobs. Finite-sample
        // draws scatter around the theoretical share.
        assert!((0.60..0.97).contains(&top20), "top-20% share {top20}");
    }

    #[test]
    fn class_mixes_are_probability_vectors() {
        let pop = population(3);
        for u in pop.users() {
            let total: f64 = u.class_mix.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
            assert!(u.class_mix.iter().all(|m| *m >= 0.0));
            assert!((0.0..=1.0).contains(&u.skill));
            assert!(u.runtime_scale > 0.0);
        }
    }

    #[test]
    fn mixes_are_heterogeneous_across_users() {
        // Fig. 17a: for more than 50% of users the mature share is below
        // 40% even though the global mature share is ~60%.
        let pop = population(4);
        let below_40 = pop
            .users()
            .iter()
            .filter(|u| u.class_probability(LifecycleClass::Mature) < 0.4)
            .count();
        let frac = below_40 as f64 / pop.len() as f64;
        assert!(frac > 0.35, "fraction of users with <40% mature mix: {frac}");
    }

    #[test]
    fn skill_correlates_with_activity() {
        let pop = population(5);
        let act: Vec<f64> = pop.users().iter().map(|u| u.activity_weight.ln()).collect();
        let skill: Vec<f64> = pop.users().iter().map(|u| u.skill).collect();
        let r = spearman(&act, &skill).unwrap();
        assert!(r.rho > 0.3, "skill-activity rho {}", r.rho);
    }

    #[test]
    fn sampling_respects_weights() {
        let pop = population(6);
        let mut rng = StdRng::seed_from_u64(100);
        let mut counts = vec![0usize; pop.len()];
        for _ in 0..20_000 {
            counts[pop.sample_user(&mut rng).id.0 as usize] += 1;
        }
        // The most active user must be sampled more than the least.
        let max_w_user = pop
            .users()
            .iter()
            .max_by(|a, b| a.activity_weight.partial_cmp(&b.activity_weight).unwrap())
            .unwrap();
        let min_w_user = pop
            .users()
            .iter()
            .min_by(|a, b| a.activity_weight.partial_cmp(&b.activity_weight).unwrap())
            .unwrap();
        assert!(counts[max_w_user.id.0 as usize] > counts[min_w_user.id.0 as usize]);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = population(7);
        let b = population(7);
        assert_eq!(a.users(), b.users());
    }
}
