//! Percentile-bootstrap confidence intervals.
//!
//! The paper prints point estimates; a reproduction should know how
//! much of any deviation is sampling noise. [`bootstrap_ci`] resamples
//! a statistic with replacement and reports the percentile interval —
//! used by the calibration suite to check that paper values fall inside
//! (or near) the measured statistic's uncertainty band.

use crate::error::{ensure_sample, StatsError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A bootstrap confidence interval for one statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapCi {
    /// Point estimate on the original sample.
    pub estimate: f64,
    /// Lower percentile bound.
    pub lo: f64,
    /// Upper percentile bound.
    pub hi: f64,
    /// Confidence level, e.g. `0.95`.
    pub level: f64,
    /// Bootstrap replicates drawn.
    pub replicates: usize,
}

impl BootstrapCi {
    /// Whether `value` lies inside the interval.
    pub fn contains(&self, value: f64) -> bool {
        self.lo <= value && value <= self.hi
    }

    /// Interval half-width.
    pub fn half_width(&self) -> f64 {
        (self.hi - self.lo) / 2.0
    }
}

/// Percentile-bootstrap CI for an arbitrary statistic.
///
/// `statistic` receives each resample (same length as the input, drawn
/// with replacement) and returns a scalar. Deterministic in `seed`.
///
/// # Errors
///
/// Returns the usual sample-validity errors, and
/// [`StatsError::InvalidParameter`] for `replicates == 0` or a level
/// outside `(0, 1)`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), sc_stats::StatsError> {
/// use sc_stats::bootstrap::bootstrap_ci;
///
/// let runtimes: Vec<f64> = (1..=500).map(|i| i as f64).collect();
/// let ci = bootstrap_ci(
///     &runtimes,
///     |s| sc_stats::percentile(s, 50.0).expect("non-empty"),
///     200,
///     0.95,
///     7,
/// )?;
/// assert!(ci.contains(250.5));
/// # Ok(())
/// # }
/// ```
pub fn bootstrap_ci<F: Fn(&[f64]) -> f64>(
    data: &[f64],
    statistic: F,
    replicates: usize,
    level: f64,
    seed: u64,
) -> Result<BootstrapCi, StatsError> {
    ensure_sample(data)?;
    if replicates == 0 {
        return Err(StatsError::InvalidParameter { name: "replicates", value: 0.0 });
    }
    if !(level > 0.0 && level < 1.0) {
        return Err(StatsError::InvalidProbability { value: level });
    }
    let estimate = statistic(data);
    let mut rng = StdRng::seed_from_u64(seed);
    let n = data.len();
    let mut resample = vec![0.0; n];
    let mut stats: Vec<f64> = Vec::with_capacity(replicates);
    for _ in 0..replicates {
        for slot in &mut resample {
            *slot = data[rng.gen_range(0..n)];
        }
        stats.push(statistic(&resample));
    }
    stats.sort_by(|a, b| a.partial_cmp(b).expect("finite statistic"));
    let alpha = (1.0 - level) / 2.0;
    let idx = |q: f64| ((stats.len() - 1) as f64 * q).round() as usize;
    Ok(BootstrapCi {
        estimate,
        lo: stats[idx(alpha)],
        hi: stats[idx(1.0 - alpha)],
        level,
        replicates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{LogNormal, Sample};

    #[test]
    fn interval_brackets_the_estimate() {
        let data: Vec<f64> = (0..300).map(|i| (i as f64 * 0.37).sin() * 10.0 + 20.0).collect();
        let ci = bootstrap_ci(&data, |s| crate::mean(s).unwrap(), 300, 0.95, 1).unwrap();
        assert!(ci.lo <= ci.estimate && ci.estimate <= ci.hi);
        assert!(ci.half_width() > 0.0);
    }

    #[test]
    fn true_median_usually_covered() {
        let mut rng = <StdRng as SeedableRng>::seed_from_u64(9);
        let d = LogNormal::new(30.0f64.ln(), 1.0).unwrap();
        let data = d.sample_n(&mut rng, 800);
        let ci =
            bootstrap_ci(&data, |s| crate::percentile(s, 50.0).unwrap(), 400, 0.95, 2).unwrap();
        assert!(ci.contains(30.0), "95% CI [{}, {}] misses 30", ci.lo, ci.hi);
    }

    #[test]
    fn deterministic_per_seed() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let a = bootstrap_ci(&data, |s| crate::mean(s).unwrap(), 100, 0.9, 3).unwrap();
        let b = bootstrap_ci(&data, |s| crate::mean(s).unwrap(), 100, 0.9, 3).unwrap();
        assert_eq!(a, b);
        let c = bootstrap_ci(&data, |s| crate::mean(s).unwrap(), 100, 0.9, 4).unwrap();
        assert_ne!(a.lo, c.lo);
    }

    #[test]
    fn width_shrinks_with_sample_size() {
        let small: Vec<f64> = (0..40).map(|i| (i % 17) as f64).collect();
        let large: Vec<f64> = (0..4000).map(|i| (i % 17) as f64).collect();
        let ws =
            bootstrap_ci(&small, |s| crate::mean(s).unwrap(), 200, 0.95, 5).unwrap().half_width();
        let wl =
            bootstrap_ci(&large, |s| crate::mean(s).unwrap(), 200, 0.95, 5).unwrap().half_width();
        assert!(wl < ws, "large-sample width {wl} vs small {ws}");
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(bootstrap_ci(&[], |_| 0.0, 10, 0.9, 0).is_err());
        assert!(bootstrap_ci(&[1.0], |_| 0.0, 0, 0.9, 0).is_err());
        assert!(bootstrap_ci(&[1.0], |_| 0.0, 10, 1.0, 0).is_err());
    }
}
