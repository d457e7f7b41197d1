//! Fig. 17 — per-user lifecycle structure: stacked job-mix and
//! GPU-hour-mix distributions.

use crate::figures::Figure;
use crate::paper::fig17 as paper;
use crate::report::Comparison;
use crate::userstats::UserStats;
use sc_stats::StatsError;

/// Per-user stacked mixes, sorted for the paper's presentation.
#[derive(Debug, Clone)]
pub struct Fig17 {
    /// Per-user job mixes `[mature, exploratory, development, IDE]`
    /// sorted ascending by mature share (Fig. 17a's x-axis).
    pub job_mixes: Vec<[f64; 4]>,
    /// Per-user GPU-hour mixes, sorted ascending by mature share
    /// (Fig. 17b).
    pub hour_mixes: Vec<[f64; 4]>,
    /// Fraction of users whose mature job share is below 40%.
    pub users_mature_below_40: f64,
    /// Fraction of users for whom non-mature jobs consume over 60% of
    /// their GPU hours.
    pub users_nonmature_hours_above_60: f64,
}

impl Fig17 {
    /// Computes the figure from per-user statistics.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] when `stats` is empty.
    pub fn try_compute(stats: &[UserStats]) -> Result<Self, StatsError> {
        if stats.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let mut job_mixes: Vec<[f64; 4]> = stats.iter().map(|s| s.class_job_mix).collect();
        let mut hour_mixes: Vec<[f64; 4]> = stats.iter().map(|s| s.class_hours_mix).collect();
        job_mixes.sort_by(|a, b| a[0].total_cmp(&b[0]));
        hour_mixes.sort_by(|a, b| a[0].total_cmp(&b[0]));
        let n = stats.len() as f64;
        let below_40 = job_mixes.iter().filter(|m| m[0] < 0.40).count() as f64 / n;
        let nonmature_60 = hour_mixes.iter().filter(|m| (1.0 - m[0]) > 0.60).count() as f64 / n;
        Ok(Fig17 {
            job_mixes,
            hour_mixes,
            users_mature_below_40: below_40,
            users_nonmature_hours_above_60: nonmature_60,
        })
    }
}

impl Figure for Fig17 {
    /// Paper-vs-measured rows.
    fn comparisons(&self) -> Vec<Comparison> {
        vec![
            Comparison::new(
                "users with <40% mature jobs",
                paper::USERS_MATURE_BELOW_40PCT,
                self.users_mature_below_40,
                "frac",
            ),
            Comparison::new(
                "users with >60% non-mature GPU hours",
                paper::USERS_NONMATURE_HOURS_ABOVE_60PCT,
                self.users_nonmature_hours_above_60,
                "frac",
            ),
        ]
    }

    /// Renders deciles of the stacked distributions as text.
    fn render(&self) -> String {
        let decile = |mixes: &[[f64; 4]], q: f64| -> [f64; 4] {
            let idx = ((mixes.len() - 1) as f64 * q) as usize;
            mixes[idx]
        };
        let fmt = |m: [f64; 4]| {
            format!(
                "mature {:>4.1}% expl {:>4.1}% dev {:>4.1}% IDE {:>4.1}%",
                m[0] * 100.0,
                m[1] * 100.0,
                m[2] * 100.0,
                m[3] * 100.0
            )
        };
        let mut s = String::from("Fig. 17(a) per-user job mix (users sorted by mature share):\n");
        for q in [0.1, 0.3, 0.5, 0.7, 0.9] {
            s.push_str(&format!("  p{:>2.0}: {}\n", q * 100.0, fmt(decile(&self.job_mixes, q))));
        }
        s.push_str("Fig. 17(b) per-user GPU-hour mix:\n");
        for q in [0.1, 0.3, 0.5, 0.7, 0.9] {
            s.push_str(&format!("  p{:>2.0}: {}\n", q * 100.0, fmt(decile(&self.hour_mixes, q))));
        }
        s.push_str(&format!(
            "  users with <40% mature jobs: {:.1}%; users with >60% non-mature GPU hours: {:.1}%\n",
            self.users_mature_below_40 * 100.0,
            self.users_nonmature_hours_above_60 * 100.0
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::small_user_stats;

    #[test]
    fn mixes_sorted_and_normalized() {
        let stats = small_user_stats();
        let fig = Fig17::try_compute(&stats).unwrap();
        for w in fig.job_mixes.windows(2) {
            assert!(w[0][0] <= w[1][0] + 1e-12);
        }
        for m in &fig.job_mixes {
            let total: f64 = m.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn many_users_are_mostly_non_mature() {
        let stats = small_user_stats();
        let fig = Fig17::try_compute(&stats).unwrap();
        // Paper: >50% of users below 40% mature; we require a clear
        // plurality under small-sample noise.
        assert!(fig.users_mature_below_40 > 0.30, "{}", fig.users_mature_below_40);
        assert!(
            fig.users_nonmature_hours_above_60 > 0.20,
            "{}",
            fig.users_nonmature_hours_above_60
        );
    }

    #[test]
    fn render_shows_both_panels() {
        let stats = small_user_stats();
        let text = Fig17::try_compute(&stats).unwrap().render();
        assert!(text.contains("Fig. 17(a)"));
        assert!(text.contains("Fig. 17(b)"));
    }
}
