//! Full-trace generation: users + arrivals + jobs, 125 days in one call.

use crate::arrivals::ArrivalIntensity;
use crate::job::{JobFactory, JobSpec};
use crate::spec::WorkloadSpec;
use crate::user::{UserPopulation, UserProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sc_stats::hash::fmix64;
use sc_telemetry::record::JobId;

/// A generated trace: the population and every job, sorted by arrival.
#[derive(Debug, Clone)]
pub struct Trace {
    spec: WorkloadSpec,
    users: Vec<UserProfile>,
    jobs: Vec<JobSpec>,
    seed: u64,
}

impl Trace {
    /// Generates the complete trace for `spec`, deterministically in
    /// `seed`.
    ///
    /// GPU jobs arrive individually following the diurnal/deadline
    /// intensity; CPU jobs arrive in campaign bursts. Job ids are
    /// assigned in arrival order, like a monotonically increasing Slurm
    /// job counter.
    pub fn generate(spec: &WorkloadSpec, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let population = UserPopulation::generate(&mut rng, spec);
        let intensity = ArrivalIntensity::from_spec(spec);
        let factory = JobFactory::new(spec);

        let gpu_jobs = spec.expected_gpu_jobs();
        let cpu_jobs = spec.total_jobs.saturating_sub(gpu_jobs);

        let mut arrivals: Vec<(f64, bool)> = Vec::with_capacity(spec.total_jobs);
        for t in intensity.sample_arrivals(&mut rng, gpu_jobs) {
            arrivals.push((t, true));
        }
        for t in intensity.sample_burst_arrivals(&mut rng, cpu_jobs, spec.cpu_burst_mean) {
            arrivals.push((t, false));
        }
        arrivals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));

        let mut jobs = Vec::with_capacity(arrivals.len());
        for (i, (t, is_gpu)) in arrivals.into_iter().enumerate() {
            let user = population.sample_user(&mut rng).clone();
            let id = JobId(i as u64 + 1);
            let job = if is_gpu {
                factory.gpu_job(&mut rng, id, &user, t)
            } else {
                factory.cpu_job(&mut rng, id, &user, t)
            };
            jobs.push(job);
        }
        Trace { spec: spec.clone(), users: population.users().to_vec(), jobs, seed }
    }

    /// The generating spec.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The user population.
    pub fn users(&self) -> &[UserProfile] {
        &self.users
    }

    /// All jobs sorted by arrival time.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// GPU jobs only.
    pub fn gpu_jobs(&self) -> impl Iterator<Item = &JobSpec> {
        self.jobs.iter().filter(|j| j.is_gpu_job())
    }

    /// CPU jobs only.
    pub fn cpu_jobs(&self) -> impl Iterator<Item = &JobSpec> {
        self.jobs.iter().filter(|j| !j.is_gpu_job())
    }

    /// Deterministically selects which jobs die to hardware failures
    /// (<0.5% on Supercloud): hashes each job id against the trace seed
    /// so the scheduler and tests agree without shared state.
    pub fn is_hardware_victim(&self, job_id: JobId) -> bool {
        let h = fmix64(self.seed ^ job_id.0.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        (h as f64 / u64::MAX as f64) < self.spec.hardware_failure_probability
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trace(seed: u64) -> Trace {
        Trace::generate(&WorkloadSpec::supercloud().scaled(0.02), seed)
    }

    #[test]
    fn trace_has_requested_volume() {
        let t = small_trace(1);
        assert_eq!(t.jobs().len(), t.spec().total_jobs);
        let gpu = t.gpu_jobs().count();
        let expected = t.spec().expected_gpu_jobs();
        assert!((gpu as i64 - expected as i64).unsigned_abs() < 5, "gpu jobs {gpu}");
        assert_eq!(t.gpu_jobs().count() + t.cpu_jobs().count(), t.jobs().len());
    }

    #[test]
    fn jobs_sorted_by_arrival_with_sequential_ids() {
        let t = small_trace(2);
        for w in t.jobs().windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
            assert!(w[0].job_id < w[1].job_id);
        }
        assert_eq!(t.jobs()[0].job_id, JobId(1));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = small_trace(3);
        let b = small_trace(3);
        assert_eq!(a.jobs(), b.jobs());
        let c = small_trace(4);
        assert_ne!(a.jobs(), c.jobs());
    }

    #[test]
    fn hardware_victims_are_rare_and_deterministic() {
        let t = small_trace(5);
        let victims = t.jobs().iter().filter(|j| t.is_hardware_victim(j.job_id)).count();
        let frac = victims as f64 / t.jobs().len() as f64;
        assert!(frac < 0.015, "victim fraction {frac}");
        for j in t.jobs().iter().take(50) {
            assert_eq!(t.is_hardware_victim(j.job_id), t.is_hardware_victim(j.job_id));
        }
    }

    #[test]
    fn arrivals_within_trace_window() {
        let t = small_trace(6);
        let horizon = t.spec().duration_secs();
        for j in t.jobs() {
            assert!(j.arrival >= 0.0 && j.arrival <= horizon);
        }
    }
}
