//! The calibrated workload specification.
//!
//! Every constant here is traceable to a number the paper reports; the
//! doc comment on each field cites it. [`WorkloadSpec::supercloud`] is
//! the 125-day Supercloud population; [`WorkloadSpec::philly`] is the
//! Microsoft Philly baseline used for the cross-system comparison
//! (Sec. V cites Jeon et al., reference 23 of the paper: "93% of the jobs are run on one GPU
//! and only 2.5% of the jobs run on more than four GPUs").

/// Per-lifecycle-class calibration: run-time distribution and resource
/// behaviour (Secs. III and VI).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassSpec {
    /// Share of all GPU jobs in this class (Fig. 15a).
    pub job_share: f64,
    /// Median run time in minutes ("a median exploratory job (62
    /// minutes) runs longer than a median mature job (36 minutes)").
    pub runtime_median_min: f64,
    /// Log-space sigma of the lognormal run-time distribution.
    pub runtime_sigma: f64,
    /// Median SM utilization % during active phases (Fig. 16a: 21 / 15 /
    /// 0 / 0 for mature / exploratory / development / IDE).
    pub sm_median: f64,
    /// Concentration of the per-job SM-level beta draw (lower = more
    /// bathtub-shaped spread).
    pub sm_kappa: f64,
    /// Median memory-bandwidth utilization % (Fig. 16b; overall median
    /// 2%).
    pub mem_median: f64,
    /// Median memory-size utilization % (Fig. 16c; overall median 9%).
    pub mem_size_median: f64,
    /// Mean fraction of run time spent in active phases (Fig. 6a:
    /// overall median 84%, p25 14% — development/IDE jobs sit mostly
    /// idle).
    pub active_fraction_mean: f64,
    /// Beta concentration of the per-job active-fraction draw.
    pub active_fraction_kappa: f64,
}

/// The paper's four development life-cycle classes (Sec. VI, Fig. 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LifecycleClass {
    /// "Completed with a zero exit code" — around 60% of jobs.
    Mature,
    /// "Terminated by the user before completion as they deem the jobs
    /// to be suboptimal … (e.g., hyper-parameter tuning)" — about 18%.
    Exploratory,
    /// "Run while the algorithm is being developed and the code is being
    /// debugged" — about 19%.
    Development,
    /// "Interactive jobs that run for a long time and timeout" — 3.5%.
    Ide,
}

impl LifecycleClass {
    /// All classes in the paper's presentation order.
    pub const ALL: [LifecycleClass; 4] = [
        LifecycleClass::Mature,
        LifecycleClass::Exploratory,
        LifecycleClass::Development,
        LifecycleClass::Ide,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            LifecycleClass::Mature => "mature",
            LifecycleClass::Exploratory => "exploratory",
            LifecycleClass::Development => "development",
            LifecycleClass::Ide => "IDE",
        }
    }
}

impl std::fmt::Display for LifecycleClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The hidden workload archetype behind a GPU job's telemetry shape.
///
/// The MIT Supercloud dataset spawned a workload-classification
/// challenge (Weiss et al., arXiv:2204.05839): infer what *kind* of
/// program produced a job's CPU/GPU/memory time series. The generator
/// mirrors that setup — each GPU job carries a hidden archetype that
/// shapes its phase skeleton (wave geometry and phase lengths only;
/// mean levels and active fractions stay on the paper's calibrated
/// class targets), and `sc-learn` tries to recover the label from the
/// sampled series alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadArchetype {
    /// CNN-style training: short, strongly periodic epochs — a
    /// pronounced utilization wave with a tens-of-seconds period.
    CnnPeriodic,
    /// Transformer-style training: long, flat utilization plateaus with
    /// barely any within-phase oscillation.
    TransformerPlateau,
    /// Interactive development / debugging: short bursts of activity
    /// with choppy, fast oscillation between them.
    BurstyDev,
    /// Idle-heavy notebook (IDE) sessions: the GPU sits near-idle in
    /// long flat stretches.
    IdleHeavy,
}

impl WorkloadArchetype {
    /// All archetypes, in presentation (and label-index) order.
    pub const ALL: [WorkloadArchetype; 4] = [
        WorkloadArchetype::CnnPeriodic,
        WorkloadArchetype::TransformerPlateau,
        WorkloadArchetype::BurstyDev,
        WorkloadArchetype::IdleHeavy,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadArchetype::CnnPeriodic => "cnn-periodic",
            WorkloadArchetype::TransformerPlateau => "transformer-plateau",
            WorkloadArchetype::BurstyDev => "bursty-dev",
            WorkloadArchetype::IdleHeavy => "idle-heavy",
        }
    }

    /// The archetype's index in [`WorkloadArchetype::ALL`].
    pub fn index(&self) -> usize {
        WorkloadArchetype::ALL.iter().position(|a| a == self).expect("archetype present in ALL")
    }
}

impl std::fmt::Display for WorkloadArchetype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Multi-GPU size distribution (Fig. 13a): `(gpu_count, weight)` pairs.
pub type GpuCountMix = Vec<(u32, f64)>;

/// The shape of the job-arrival intensity over the trace window.
///
/// [`ArrivalProcess::Diurnal`] is the paper's calibrated process
/// (time-of-day rhythm times conference-deadline surges) and the
/// default everywhere; the other variants open the scenario space the
/// DSL needs — a memoryless baseline, periodic spike bursts, and
/// up-and-down load cycles in the spirit of the cloud-simulator
/// exemplar scenarios.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals: constant intensity, no rhythm.
    Poisson,
    /// The calibrated non-homogeneous process: diurnal rhythm modulated
    /// by deadline surges ([`WorkloadSpec::diurnal_amplitude`],
    /// [`WorkloadSpec::deadline_surge_amplitude`],
    /// [`WorkloadSpec::deadline_days`]).
    #[default]
    Diurnal,
    /// Periodic spike bursts riding on a flat base load: every
    /// `period_days` the intensity ramps through a Gaussian bump of
    /// relative height `amplitude` and width `width_days`.
    Spikes {
        /// Days between successive spike centres (> 0).
        period_days: f64,
        /// Gaussian width of one spike, days (> 0).
        width_days: f64,
        /// Spike height relative to the base intensity (>= 0).
        amplitude: f64,
    },
    /// Alternating high/low load plateaus: the first half of every
    /// `period_days` cycle runs at full intensity, the second half at
    /// `low` times it — workload cycles with planned quiet windows.
    UpAndDown {
        /// Days per high+low cycle (> 0).
        period_days: f64,
        /// Relative intensity of the low plateau, in (0, 1].
        low: f64,
    },
}

impl ArrivalProcess {
    /// Short display label (`poisson`, `diurnal`, `spikes`,
    /// `up-and-down`).
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson => "poisson",
            ArrivalProcess::Diurnal => "diurnal",
            ArrivalProcess::Spikes { .. } => "spikes",
            ArrivalProcess::UpAndDown { .. } => "up-and-down",
        }
    }
}

/// The complete generative specification of one cluster's workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Human-readable name ("supercloud", "philly").
    pub name: String,
    /// Trace length in days (125 in the paper).
    pub duration_days: f64,
    /// Unique users (191 in the paper).
    pub users: usize,
    /// Total jobs across the trace, CPU jobs included (74,820).
    pub total_jobs: usize,
    /// Fraction of jobs that are GPU jobs before the 30 s filter.
    /// The paper's funnel (74,820 total, 47,120 analyzed GPU jobs plus
    /// filtered short GPU jobs) implies roughly 68%.
    pub gpu_job_fraction: f64,
    /// Fraction of GPU jobs shorter than 30 s ("no activity is observed
    /// for these very short jobs"); they exist in the trace and are
    /// dropped by the dataset filter.
    pub short_gpu_job_fraction: f64,
    /// Log-space sigma of the lognormal user-activity weights. The
    /// paper's concentration pair (top 5% submit 44%, top 20% submit
    /// 83.2%) is flatter at the very top than any Pareto; a lognormal
    /// with sigma ≈ 1.65 interpolates both.
    pub user_activity_log_sigma: f64,
    /// Dirichlet-like concentration of per-user lifecycle mixes around
    /// the global mix. Small values give the extreme user heterogeneity
    /// of Fig. 17 (">50% of users have <40% mature jobs").
    pub user_mix_concentration: f64,
    /// Log-space sigma of the per-user run-time scale multiplier
    /// (drives the per-user averages spread of Fig. 10).
    pub user_runtime_scale_sigma: f64,
    /// Strength of the expert-skill → utilization link (drives the
    /// positive Spearman correlations of Fig. 12).
    pub skill_utilization_gain: f64,
    /// Per-class calibration, indexed by [`LifecycleClass::ALL`] order.
    pub classes: [ClassSpec; 4],
    /// Interface shares for jobs *not* forced to interactive
    /// (map-reduce, batch, other); IDE jobs always use the interactive
    /// interface and a thin slice of completing interactive jobs is
    /// added to reach the 4% interactive share of Sec. III.
    pub interface_weights: [f64; 3],
    /// Fraction of non-IDE jobs submitted interactively (completing
    /// notebook sessions). 0.5% closes the gap between the 4% interactive
    /// share and the 3.5% IDE share.
    pub interactive_non_ide_fraction: f64,
    /// GPU-count *draw* weights, applied before clamping to the user's
    /// [`WorkloadSpec::user_gpu_ceiling_weights`] tier. Multi-GPU draws
    /// are deliberately over-weighted because clamping by the (mostly
    /// single-GPU) user population pushes the realized mix back onto
    /// Fig. 13a's 84% single-GPU / ~2.4% above-two-GPU shares.
    pub gpu_count_mix: GpuCountMix,
    /// Per-user largest-job tier: `(ceiling, weight)`. Calibrated to
    /// Sec. V's user statistics: 60% of users run at least one
    /// multi-GPU job, 13% reach three GPUs, 5.2% reach nine or more.
    pub user_gpu_ceiling_weights: Vec<(u32, f64)>,
    /// Extra log-space sigma added to multi-GPU job run times. Medians
    /// stay comparable (Sec. V: "no significant difference") while the
    /// heavier tail lets multi-GPU jobs reach ≈50% of all GPU hours
    /// (Fig. 13b).
    pub multi_gpu_runtime_sigma_boost: f64,
    /// Probability that a multi-GPU job leaves half or more of its GPUs
    /// idle (Fig. 14: "about 40% of the jobs experience very high CoV …
    /// because these jobs have half or more of their GPUs idle").
    pub multi_gpu_idle_probability: f64,
    /// CPU-job run-time median in minutes (Fig. 3a: 8 minutes).
    pub cpu_runtime_median_min: f64,
    /// CPU-job run-time lognormal sigma.
    pub cpu_runtime_sigma: f64,
    /// Mean number of jobs per CPU submission burst. CPU workloads
    /// arrive as campaign bursts (map-reduce arrays, parameter sweeps),
    /// which combined with their full-node requests produces the longer
    /// queue waits of Fig. 3b.
    pub cpu_burst_mean: f64,
    /// IDE/interactive wall-clock limits in hours ("the timeout limit is
    /// 12 hours or 24 hours, depending on the requested amount").
    pub ide_timeout_hours: [f64; 2],
    /// Probability a job is killed by a hardware failure ("less than
    /// 0.5% job failures", Sec. II).
    pub hardware_failure_probability: f64,
    /// Relative amplitude of the diurnal arrival modulation.
    pub diurnal_amplitude: f64,
    /// Relative surge in arrivals near conference deadlines ("usage of
    /// the system often increases closer to the deadlines of popular
    /// deep learning conferences like ICML and NeurIPS").
    pub deadline_surge_amplitude: f64,
    /// Days (since trace start) of conference deadlines within the
    /// 125-day window.
    pub deadline_days: Vec<f64>,
    /// Shape of the arrival intensity. [`ArrivalProcess::Diurnal`]
    /// reproduces the paper's calibrated process exactly; the other
    /// variants are scenario-DSL extensions.
    pub arrival_process: ArrivalProcess,
}

impl WorkloadSpec {
    /// The calibrated MIT Supercloud population of the paper.
    pub fn supercloud() -> Self {
        WorkloadSpec {
            name: "supercloud".to_string(),
            duration_days: 125.0,
            users: 191,
            total_jobs: 74_820,
            gpu_job_fraction: 0.68,
            short_gpu_job_fraction: 0.074,
            // Solved from "top 20% submit 83.2%": alpha ≈ 1.13.
            user_activity_log_sigma: 1.65,
            user_mix_concentration: 1.1,
            user_runtime_scale_sigma: 0.9,
            skill_utilization_gain: 0.65,
            classes: [
                // Mature: 60% of jobs, median 36 min.
                ClassSpec {
                    job_share: 0.595,
                    runtime_median_min: 36.0,
                    runtime_sigma: 1.62,
                    sm_median: 22.0,
                    sm_kappa: 1.1,
                    mem_median: 3.0,
                    mem_size_median: 12.0,
                    active_fraction_mean: 0.86,
                    active_fraction_kappa: 3.0,
                },
                // Exploratory: 18%, median 62 min.
                ClassSpec {
                    job_share: 0.18,
                    runtime_median_min: 62.0,
                    runtime_sigma: 2.55,
                    sm_median: 16.0,
                    sm_kappa: 1.2,
                    mem_median: 2.2,
                    mem_size_median: 10.0,
                    active_fraction_mean: 0.82,
                    active_fraction_kappa: 3.0,
                },
                // Development: 19%, short debug runs, near-zero
                // utilization (Fig. 16 median SM 0%).
                ClassSpec {
                    job_share: 0.19,
                    runtime_median_min: 5.0,
                    runtime_sigma: 2.4,
                    sm_median: 0.8,
                    sm_kappa: 0.6,
                    mem_median: 0.3,
                    mem_size_median: 2.0,
                    active_fraction_mean: 0.10,
                    active_fraction_kappa: 1.2,
                },
                // IDE: 3.5%, runs to the 12/24 h timeout, idle GPUs
                // (Fig. 16: even the p75 SM utilization is 0%).
                ClassSpec {
                    job_share: 0.035,
                    runtime_median_min: 720.0, // superseded by timeout
                    runtime_sigma: 0.0,
                    sm_median: 0.35,
                    sm_kappa: 0.5,
                    mem_median: 0.15,
                    mem_size_median: 1.5,
                    active_fraction_mean: 0.04,
                    active_fraction_kappa: 1.0,
                },
            ],
            // map-reduce : batch : other among non-interactive jobs,
            // scaled so the global mix lands on 1% / 30% / 65%.
            interface_weights: [1.0, 30.0, 65.0],
            interactive_non_ide_fraction: 0.005,
            gpu_count_mix: vec![
                (1, 116.0),
                (2, 13.0),
                (3, 2.4),
                (4, 3.6),
                (6, 2.4),
                (8, 2.4),
                (9, 1.35),
                (12, 1.95),
                (16, 1.95),
                (24, 1.35),
                (32, 0.68),
            ],
            user_gpu_ceiling_weights: vec![(1, 0.40), (2, 0.47), (8, 0.078), (32, 0.052)],
            multi_gpu_runtime_sigma_boost: 1.1,
            multi_gpu_idle_probability: 0.45,
            cpu_runtime_median_min: 8.0,
            cpu_runtime_sigma: 1.9,
            cpu_burst_mean: 500.0,
            ide_timeout_hours: [12.0, 24.0],
            hardware_failure_probability: 0.004,
            diurnal_amplitude: 0.55,
            deadline_surge_amplitude: 1.1,
            // ICML-like and NeurIPS-like deadlines inside the window.
            deadline_days: vec![28.0, 97.0],
            arrival_process: ArrivalProcess::Diurnal,
        }
    }

    /// The Microsoft Philly baseline (Jeon et al., reference 23 of the paper), used to
    /// reproduce the paper's cross-system comparison: more single-GPU
    /// jobs (93%), almost no interactive/IDE load, and long queue waits
    /// driven by exclusive scheduling of a saturated cluster.
    pub fn philly() -> Self {
        let mut spec = WorkloadSpec::supercloud();
        spec.name = "philly".to_string();
        // "On Microsoft's Philly clusters, 93% of the jobs are run on one
        // GPU and only 2.5% of the jobs run on more than four GPUs."
        spec.gpu_count_mix = vec![(1, 88.0), (2, 4.0), (4, 3.0), (8, 3.0), (16, 1.3), (32, 0.7)];
        // Philly's DNN-training users scale out more readily.
        spec.user_gpu_ceiling_weights = vec![(1, 0.25), (2, 0.25), (8, 0.25), (32, 0.25)];
        // Philly is a batch DNN-training cluster: no IDE tier, a larger
        // mature share, and higher average utilization.
        spec.classes[0].job_share = 0.70;
        spec.classes[1].job_share = 0.20;
        spec.classes[2].job_share = 0.095;
        spec.classes[3].job_share = 0.005;
        spec.interactive_non_ide_fraction = 0.001;
        spec.gpu_job_fraction = 0.95;
        spec
    }

    /// Scales the population by `factor` (jobs and users), keeping
    /// every distributional parameter — for fast tests, examples, and
    /// large-scale stress runs.
    ///
    /// Factors above 1 also extend the trace window proportionally, so
    /// arrival intensity — and with it cluster contention — stays in
    /// the calibrated regime while the job population grows (a longer
    /// campaign, not an overloaded cluster).
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is positive and finite. A factor from
    /// outside the program goes through [`WorkloadSpec::check_scale`]
    /// first.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor.is_finite(), "factor must be positive and finite");
        self.total_jobs = ((self.total_jobs as f64 * factor).round() as usize).max(50);
        self.users = ((self.users as f64 * factor).round() as usize).max(8);
        if factor > 1.0 {
            self.duration_days *= factor;
        }
        self
    }

    /// The largest factor [`WorkloadSpec::check_scale`] accepts: 100
    /// times a preset, 7.5 million jobs for Supercloud. The largest
    /// documented run, `--scale 13.366` (1M jobs), sits well inside it.
    /// Without a ceiling, a factor such as `1e308` saturates
    /// [`WorkloadSpec::scaled`]'s `users` and `total_jobs` at
    /// `usize::MAX`, and trace generation would try to build them.
    pub const MAX_SCALE: f64 = 100.0;

    /// Checks a scale factor given from outside, such as a `--scale`
    /// flag or a scenario's `scale` key: positive, finite, and at most
    /// [`WorkloadSpec::MAX_SCALE`].
    ///
    /// # Errors
    ///
    /// A message naming the accepted range and the factor given, for
    /// the caller's usage or line error.
    pub fn check_scale(factor: f64) -> Result<f64, String> {
        if factor > 0.0 && factor <= Self::MAX_SCALE {
            Ok(factor)
        } else {
            Err(format!("must be a positive factor of at most {}, got {factor:?}", Self::MAX_SCALE))
        }
    }

    /// The class spec for a lifecycle class.
    pub fn class(&self, class: LifecycleClass) -> &ClassSpec {
        let idx =
            LifecycleClass::ALL.iter().position(|c| *c == class).expect("class present in ALL");
        &self.classes[idx]
    }

    /// Global lifecycle shares, normalized.
    pub fn class_shares(&self) -> [f64; 4] {
        let total: f64 = self.classes.iter().map(|c| c.job_share).sum();
        [
            self.classes[0].job_share / total,
            self.classes[1].job_share / total,
            self.classes[2].job_share / total,
            self.classes[3].job_share / total,
        ]
    }

    /// Trace duration in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.duration_days * 86_400.0
    }

    /// Expected number of GPU jobs (before the 30 s filter).
    pub fn expected_gpu_jobs(&self) -> usize {
        (self.total_jobs as f64 * self.gpu_job_fraction).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supercloud_class_shares_match_paper() {
        let spec = WorkloadSpec::supercloud();
        let shares = spec.class_shares();
        assert!((shares[0] - 0.595).abs() < 0.01, "mature {}", shares[0]);
        assert!((shares[1] - 0.18).abs() < 0.01);
        assert!((shares[2] - 0.19).abs() < 0.01);
        assert!((shares[3] - 0.035).abs() < 0.005);
        let total: f64 = shares.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gpu_count_draw_weights_are_sane() {
        // The *realized* (post-ceiling) mix is asserted in the job
        // factory tests; here we sanity-check the draw table itself.
        let spec = WorkloadSpec::supercloud();
        let total: f64 = spec.gpu_count_mix.iter().map(|(_, w)| w).sum();
        assert!(total > 0.0);
        let single = spec.gpu_count_mix.iter().find(|(g, _)| *g == 1).unwrap().1 / total;
        assert!(single > 0.6, "single-GPU draw weight {single}");
        // Multi-GPU draws are over-weighted relative to the realized 16%.
        assert!(1.0 - single > 0.16);
    }

    #[test]
    fn user_ceiling_weights_match_sec5_user_stats() {
        let spec = WorkloadSpec::supercloud();
        let total: f64 = spec.user_gpu_ceiling_weights.iter().map(|(_, w)| w).sum();
        let frac = |pred: fn(u32) -> bool| -> f64 {
            spec.user_gpu_ceiling_weights
                .iter()
                .filter(|(c, _)| pred(*c))
                .map(|(_, w)| w / total)
                .sum()
        };
        // 60% of users can run multi-GPU, 13% reach 3+, 5.2% reach 9+.
        assert!((frac(|c| c >= 2) - 0.60).abs() < 0.01);
        assert!((frac(|c| c >= 3) - 0.13).abs() < 0.01);
        assert!((frac(|c| c >= 9) - 0.052).abs() < 0.005);
    }

    #[test]
    fn philly_draws_skew_single_gpu() {
        let spec = WorkloadSpec::philly();
        let total: f64 = spec.gpu_count_mix.iter().map(|(_, w)| w).sum();
        let single = spec.gpu_count_mix.iter().find(|(g, _)| *g == 1).unwrap().1 / total;
        assert!(single > 0.85, "philly single-GPU draw weight {single}");
    }

    #[test]
    fn scaled_preserves_parameters() {
        let spec = WorkloadSpec::supercloud().scaled(0.01);
        assert_eq!(spec.total_jobs, 748);
        assert!(spec.users >= 2);
        assert_eq!(spec.classes[0].runtime_median_min, 36.0);
    }

    #[test]
    #[should_panic(expected = "factor must be positive and finite")]
    fn scaled_rejects_bad_factor() {
        let _ = WorkloadSpec::supercloud().scaled(0.0);
    }

    #[test]
    fn check_scale_accepts_positive_factors_up_to_the_ceiling() {
        for ok in [1e-9, 0.02, 1.0, 13.366, WorkloadSpec::MAX_SCALE] {
            assert_eq!(WorkloadSpec::check_scale(ok), Ok(ok));
        }
        let above = f64::from_bits(WorkloadSpec::MAX_SCALE.to_bits() + 1);
        for bad in [0.0, -0.0, -1.0, above, 1e308, f64::INFINITY, f64::NAN] {
            let err = WorkloadSpec::check_scale(bad).unwrap_err();
            assert_eq!(
                err,
                format!("must be a positive factor of at most 100, got {bad:?}"),
                "{bad}"
            );
        }
    }

    #[test]
    fn scaled_up_extends_the_window_at_constant_intensity() {
        let base = WorkloadSpec::supercloud();
        let spec = WorkloadSpec::supercloud().scaled(13.366);
        assert_eq!(spec.total_jobs, 1_000_044);
        assert_eq!(spec.users, 2_553);
        let base_rate = base.total_jobs as f64 / base.duration_days;
        let rate = spec.total_jobs as f64 / spec.duration_days;
        assert!((rate / base_rate - 1.0).abs() < 1e-3, "arrival intensity drifted: {rate}");
        assert_eq!(spec.classes[0].runtime_median_min, 36.0);
    }

    #[test]
    fn class_lookup() {
        let spec = WorkloadSpec::supercloud();
        assert_eq!(spec.class(LifecycleClass::Mature).runtime_median_min, 36.0);
        assert_eq!(spec.class(LifecycleClass::Ide).job_share, 0.035);
        assert_eq!(LifecycleClass::Ide.to_string(), "IDE");
    }
}
