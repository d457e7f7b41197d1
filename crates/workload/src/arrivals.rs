//! Job arrival processes: diurnal rhythm, conference-deadline surges,
//! and bursty CPU campaign submissions.
//!
//! "The usage of the system often increases closer to the deadlines of
//! popular deep learning conferences like ICML and NeurIPS … We account
//! for this effect in our analysis" (Sec. II).

use crate::spec::{ArrivalProcess, WorkloadSpec};
use rand::Rng;
use sc_stats::dist::{Exponential, Sample};

/// Seconds per day.
const DAY_SECS: f64 = 86_400.0;

/// A non-homogeneous arrival intensity over the trace window.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalIntensity {
    duration_secs: f64,
    diurnal_amplitude: f64,
    surge_amplitude: f64,
    deadline_days: Vec<f64>,
    process: ArrivalProcess,
}

impl ArrivalIntensity {
    /// Builds the intensity described by a workload spec.
    pub fn from_spec(spec: &WorkloadSpec) -> Self {
        ArrivalIntensity {
            duration_secs: spec.duration_secs(),
            diurnal_amplitude: spec.diurnal_amplitude,
            surge_amplitude: spec.deadline_surge_amplitude,
            deadline_days: spec.deadline_days.clone(),
            process: spec.arrival_process,
        }
    }

    /// Relative intensity at time `t` seconds (unit mean over a flat
    /// profile; not normalized exactly but bounded by
    /// [`ArrivalIntensity::max_intensity`]).
    pub fn intensity(&self, t: f64) -> f64 {
        let day = t / DAY_SECS;
        match self.process {
            ArrivalProcess::Poisson => 1.0,
            ArrivalProcess::Diurnal => {
                let day_frac = (t / DAY_SECS).fract();
                // Activity peaks mid-afternoon, troughs pre-dawn.
                let diurnal = 1.0
                    + self.diurnal_amplitude
                        * (2.0 * std::f64::consts::PI * (day_frac - 0.625)).cos();
                // Gaussian surge ramping up over ~10 days before each
                // deadline.
                let mut surge = 1.0;
                for &d in &self.deadline_days {
                    let lead = d - day;
                    if (0.0..=21.0).contains(&lead) {
                        surge += self.surge_amplitude * (-((lead - 2.0) / 5.0).powi(2)).exp();
                    }
                }
                diurnal * surge
            }
            ArrivalProcess::Spikes { period_days, width_days, amplitude } => {
                // One Gaussian bump per period, centred mid-cycle so a
                // spike never straddles the window edges.
                let phase = (day / period_days).fract() * period_days;
                let centre = period_days / 2.0;
                1.0 + amplitude * (-((phase - centre) / width_days).powi(2)).exp()
            }
            ArrivalProcess::UpAndDown { period_days, low } => {
                if (day / period_days).fract() < 0.5 {
                    1.0
                } else {
                    low
                }
            }
        }
    }

    /// Upper bound on [`ArrivalIntensity::intensity`] for rejection
    /// sampling.
    pub fn max_intensity(&self) -> f64 {
        match self.process {
            ArrivalProcess::Poisson | ArrivalProcess::UpAndDown { .. } => 1.0,
            ArrivalProcess::Diurnal => {
                (1.0 + self.diurnal_amplitude) * (1.0 + self.surge_amplitude)
            }
            ArrivalProcess::Spikes { amplitude, .. } => 1.0 + amplitude,
        }
    }

    /// Draws one arrival time from the normalized intensity via
    /// rejection sampling.
    pub fn sample_arrival<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let max = self.max_intensity();
        loop {
            let t = rng.gen_range(0.0..self.duration_secs);
            if rng.gen::<f64>() * max <= self.intensity(t) {
                return t;
            }
        }
    }

    /// Draws `n` sorted arrival times.
    pub fn sample_arrivals<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        let mut out: Vec<f64> = (0..n).map(|_| self.sample_arrival(rng)).collect();
        out.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        out
    }

    /// Draws `n` arrival times grouped into campaign bursts: burst
    /// centres follow the intensity, members trail the centre by
    /// exponential gaps of a few seconds (array submissions). Used for
    /// CPU jobs, whose full-node requests then pile up in the queue
    /// (Fig. 3b).
    pub fn sample_burst_arrivals<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        n: usize,
        mean_burst: f64,
    ) -> Vec<f64> {
        assert!(mean_burst >= 1.0, "mean burst size must be at least 1");
        let gap = Exponential::with_mean(1.0).expect("valid mean");
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let centre = self.sample_arrival(rng);
            // Geometric-ish burst size with the requested mean.
            let size = 1
                + (mean_burst - 1.0).max(0.0) as usize
                + (Exponential::with_mean(mean_burst.max(1.001) - 1.0)
                    .map(|d| d.sample(rng) as usize)
                    .unwrap_or(0));
            let mut t = centre;
            for _ in 0..size {
                if out.len() >= n {
                    break;
                }
                out.push(t.min(self.duration_secs - 1.0));
                t += gap.sample(rng);
            }
        }
        out.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        out
    }

    /// Trace window length in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.duration_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn intensity() -> ArrivalIntensity {
        ArrivalIntensity::from_spec(&crate::spec::WorkloadSpec::supercloud())
    }

    #[test]
    fn intensity_bounded_and_positive() {
        let i = intensity();
        let max = i.max_intensity();
        for k in 0..2000 {
            let t = k as f64 / 2000.0 * i.duration_secs();
            let v = i.intensity(t);
            assert!(v > 0.0 && v <= max + 1e-9, "intensity {v} at t={t}");
        }
    }

    #[test]
    fn deadline_surge_raises_rate() {
        let i = intensity();
        // Two days before the day-28 deadline vs a quiet day, at the
        // same time of day.
        let surge_t = 26.0 * DAY_SECS;
        let quiet_t = 60.0 * DAY_SECS;
        assert!(i.intensity(surge_t) > 1.3 * i.intensity(quiet_t));
    }

    #[test]
    fn arrivals_fall_in_window_and_are_sorted() {
        let i = intensity();
        let mut rng = StdRng::seed_from_u64(1);
        let arr = i.sample_arrivals(&mut rng, 5000);
        assert_eq!(arr.len(), 5000);
        for w in arr.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(arr[0] >= 0.0);
        assert!(*arr.last().unwrap() <= i.duration_secs());
    }

    #[test]
    fn diurnal_pattern_visible_in_samples() {
        let i = intensity();
        let mut rng = StdRng::seed_from_u64(2);
        let arr = i.sample_arrivals(&mut rng, 40_000);
        // Count arrivals in the peak quarter-day vs trough quarter-day.
        let mut peak = 0;
        let mut trough = 0;
        for t in arr {
            let frac = (t / DAY_SECS).fract();
            if (0.5..0.75).contains(&frac) {
                peak += 1;
            } else if (0.0..0.25).contains(&frac) {
                trough += 1;
            }
        }
        assert!(peak as f64 > 1.25 * trough as f64, "peak {peak} vs trough {trough}");
    }

    #[test]
    fn bursts_cluster_in_time() {
        let i = intensity();
        let mut rng = StdRng::seed_from_u64(3);
        let arr = i.sample_burst_arrivals(&mut rng, 2000, 20.0);
        assert_eq!(arr.len(), 2000);
        // Median inter-arrival gap is tiny compared to the uniform case.
        let mut gaps: Vec<f64> = arr.windows(2).map(|w| w[1] - w[0]).collect();
        gaps.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median_gap = gaps[gaps.len() / 2];
        let uniform_gap = i.duration_secs() / 2000.0;
        assert!(median_gap < uniform_gap / 10.0, "median gap {median_gap}");
    }

    #[test]
    #[should_panic(expected = "mean burst size must be at least 1")]
    fn burst_mean_validated() {
        let i = intensity();
        let mut rng = StdRng::seed_from_u64(4);
        let _ = i.sample_burst_arrivals(&mut rng, 10, 0.5);
    }

    fn with_process(process: crate::spec::ArrivalProcess) -> ArrivalIntensity {
        let mut spec = crate::spec::WorkloadSpec::supercloud();
        spec.arrival_process = process;
        ArrivalIntensity::from_spec(&spec)
    }

    #[test]
    fn poisson_intensity_is_flat() {
        let i = with_process(crate::spec::ArrivalProcess::Poisson);
        for k in 0..500 {
            let t = k as f64 / 500.0 * i.duration_secs();
            assert_eq!(i.intensity(t), 1.0);
        }
        assert_eq!(i.max_intensity(), 1.0);
    }

    #[test]
    fn spikes_peak_once_per_period() {
        let i = with_process(crate::spec::ArrivalProcess::Spikes {
            period_days: 10.0,
            width_days: 1.0,
            amplitude: 3.0,
        });
        // Mid-cycle (day 5, 15, ...) is the spike centre; cycle edges
        // sit at the base load.
        assert!(i.intensity(5.0 * DAY_SECS) > 3.9);
        assert!(i.intensity(15.0 * DAY_SECS) > 3.9);
        assert!(i.intensity(0.1 * DAY_SECS) < 1.01);
        assert!(i.max_intensity() >= i.intensity(5.0 * DAY_SECS));
    }

    #[test]
    fn up_and_down_alternates_plateaus() {
        let i =
            with_process(crate::spec::ArrivalProcess::UpAndDown { period_days: 8.0, low: 0.25 });
        assert_eq!(i.intensity(1.0 * DAY_SECS), 1.0); // high half
        assert_eq!(i.intensity(5.0 * DAY_SECS), 0.25); // low half
        assert_eq!(i.intensity(9.0 * DAY_SECS), 1.0); // next cycle
        assert_eq!(i.max_intensity(), 1.0);
    }

    #[test]
    fn diurnal_process_matches_legacy_formula() {
        // The Diurnal arm must reproduce the paper-calibrated process
        // bit for bit — the scenario DSL's byte-identity guarantee for
        // the default pipeline rests on this.
        let spec = crate::spec::WorkloadSpec::supercloud();
        let i = ArrivalIntensity::from_spec(&spec);
        for k in 0..2000 {
            let t = k as f64 / 2000.0 * i.duration_secs();
            let day_frac = (t / DAY_SECS).fract();
            let diurnal = 1.0
                + spec.diurnal_amplitude * (2.0 * std::f64::consts::PI * (day_frac - 0.625)).cos();
            let day = t / DAY_SECS;
            let mut surge = 1.0;
            for &d in &spec.deadline_days {
                let lead = d - day;
                if (0.0..=21.0).contains(&lead) {
                    surge += spec.deadline_surge_amplitude * (-((lead - 2.0) / 5.0).powi(2)).exp();
                }
            }
            assert_eq!(i.intensity(t), diurnal * surge, "t={t}");
        }
    }
}
