//! Arrival-pattern analysis: diurnal rhythm and conference-deadline
//! surges.
//!
//! Sec. II: "The usage of the system often increases closer to the
//! deadlines of popular deep learning conferences like ICML and NeurIPS
//! and there are requests for increased allocations. We account for
//! this effect in our analysis." This module recovers both effects from
//! the scheduler log: the submissions-per-day series with its
//! deadline-window surge ratio, and the hour-of-day profile.

use sc_telemetry::dataset::Dataset;

/// Seconds per day.
const DAY_SECS: f64 = 86_400.0;

/// Arrival-pattern statistics recovered from the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalAnalysis {
    /// Submissions per day, day 0 first.
    pub daily: Vec<usize>,
    /// GPU-job submissions per day, day 0 first. The deadline surge is
    /// measured on this series: CPU campaign bursts land hundreds of
    /// jobs on a single arbitrary day (Fig. 3b behaviour), which would
    /// swamp a mean over all submissions.
    pub daily_gpu: Vec<usize>,
    /// Submissions per hour-of-day, hour 0 first (24 bins).
    pub hourly_profile: [usize; 24],
    /// Mean daily submissions.
    pub mean_daily: f64,
    /// Peak-day over mean-day ratio.
    pub peak_ratio: f64,
    /// Ratio of hour-of-day peak to trough (diurnal swing).
    pub diurnal_ratio: f64,
}

impl ArrivalAnalysis {
    /// Computes the analysis from the joined dataset's submit times.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn compute(dataset: &Dataset) -> Self {
        assert!(!dataset.records().is_empty(), "need jobs");
        let last_day = dataset
            .records()
            .iter()
            .map(|r| (r.sched.submit_time / DAY_SECS) as usize)
            .max()
            .expect("non-empty");
        let mut daily = vec![0usize; last_day + 1];
        let mut daily_gpu = vec![0usize; last_day + 1];
        let mut hourly = [0usize; 24];
        for r in dataset.records() {
            let t = r.sched.submit_time;
            let day = (t / DAY_SECS) as usize;
            daily[day] += 1;
            if r.sched.is_gpu_job() {
                daily_gpu[day] += 1;
            }
            hourly[((t % DAY_SECS) / 3_600.0) as usize % 24] += 1;
        }
        let mean_daily = daily.iter().sum::<usize>() as f64 / daily.len() as f64;
        let peak = daily.iter().copied().max().unwrap_or(0) as f64;
        let h_peak = hourly.iter().copied().max().unwrap_or(0) as f64;
        let h_trough = hourly.iter().copied().min().unwrap_or(0).max(1) as f64;
        ArrivalAnalysis {
            daily,
            daily_gpu,
            hourly_profile: hourly,
            mean_daily,
            peak_ratio: if mean_daily > 0.0 { peak / mean_daily } else { 0.0 },
            diurnal_ratio: h_peak / h_trough,
        }
    }

    /// Mean GPU-job submissions per day inside `±window` days of any
    /// deadline, relative to the mean outside — the surge factor.
    ///
    /// Measured on the GPU-only series because the deadline ramp drives
    /// interactive/training submissions; CPU campaigns arrive in
    /// planted bursts of hundreds of jobs on arbitrary days, and a
    /// single such day outside the window would otherwise swamp the
    /// outside mean.
    ///
    /// # Panics
    ///
    /// Panics if `deadline_days` is empty.
    pub fn deadline_surge(&self, deadline_days: &[f64], window: f64) -> f64 {
        assert!(!deadline_days.is_empty(), "need deadlines");
        let mut inside = Vec::new();
        let mut outside = Vec::new();
        for (day, &n) in self.daily_gpu.iter().enumerate() {
            let d = day as f64;
            if deadline_days.iter().any(|&dd| (d - dd).abs() <= window) {
                inside.push(n as f64);
            } else {
                outside.push(n as f64);
            }
        }
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let out = mean(&outside).max(1e-9);
        mean(&inside) / out
    }

    /// Renders the analysis compactly.
    pub fn render(&self, deadline_days: &[f64]) -> String {
        let surge =
            if deadline_days.is_empty() { 1.0 } else { self.deadline_surge(deadline_days, 7.0) };
        let mut s = format!(
            "Arrival patterns:\n  mean submissions/day: {:.0}; peak day: {:.1}× mean\n  \
             diurnal peak/trough: {:.1}×\n  deadline-week surge: {:.2}× baseline\n  hourly profile:",
            self.mean_daily, self.peak_ratio, self.diurnal_ratio, surge
        );
        for (h, n) in self.hourly_profile.iter().enumerate() {
            if h % 6 == 0 {
                s.push_str(&format!("\n    {:02}:00", h));
            }
            s.push_str(&format!(" {n:>5}"));
        }
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::small_sim;

    #[test]
    fn daily_series_covers_trace_and_conserves_jobs() {
        let a = ArrivalAnalysis::compute(&small_sim().dataset);
        let total: usize = a.daily.iter().sum();
        assert_eq!(total, small_sim().dataset.records().len());
        assert!(a.daily.len() >= 100, "days {}", a.daily.len());
        let hourly_total: usize = a.hourly_profile.iter().sum();
        assert_eq!(hourly_total, total);
    }

    #[test]
    fn diurnal_rhythm_is_visible() {
        let a = ArrivalAnalysis::compute(&small_sim().dataset);
        // The generator's 0.55 diurnal amplitude must show up as a
        // clear peak/trough swing.
        assert!(a.diurnal_ratio > 1.5, "diurnal ratio {}", a.diurnal_ratio);
    }

    #[test]
    fn deadline_weeks_surge() {
        let a = ArrivalAnalysis::compute(&small_sim().dataset);
        // The spec plants deadlines at days 28 and 97 with a 1.1×
        // amplitude ramp; the surge factor must exceed baseline.
        let surge = a.deadline_surge(&[28.0, 97.0], 7.0);
        assert!(surge > 1.1, "deadline surge {surge}");
    }

    #[test]
    fn render_mentions_the_surge() {
        let a = ArrivalAnalysis::compute(&small_sim().dataset);
        let text = a.render(&[28.0, 97.0]);
        assert!(text.contains("deadline-week surge"));
        assert!(text.contains("hourly profile"));
    }
}
