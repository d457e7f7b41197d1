//! Two-sample Kolmogorov–Smirnov test.
//!
//! Used by the calibration suite to compare distribution *shapes* — e.g.
//! that the sampled telemetry path and the analytic aggregation path
//! produce the same per-job utilization distribution, or that two seeds
//! of the generator agree.

use crate::error::{ensure_sample, StatsError};

/// Result of a two-sample KS test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsResult {
    /// The KS statistic: the supremum distance between the two empirical
    /// CDFs, in `[0, 1]`.
    pub statistic: f64,
    /// Asymptotic two-sided p-value (Kolmogorov distribution; accurate
    /// for `n, m ≳ 20`).
    pub p_value: f64,
    /// Size of the first sample.
    pub n: usize,
    /// Size of the second sample.
    pub m: usize,
}

impl KsResult {
    /// Whether the two samples are distinguishable at level `alpha`.
    pub fn rejects_same_distribution(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Two-sample KS test.
///
/// # Errors
///
/// Returns the usual sample-validity errors for either input.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), sc_stats::StatsError> {
/// let a: Vec<f64> = (0..200).map(|i| i as f64).collect();
/// let b: Vec<f64> = (0..200).map(|i| i as f64 + 0.5).collect();
/// let r = sc_stats::kstest::ks_two_sample(&a, &b)?;
/// assert!(r.statistic < 0.05); // nearly identical distributions
/// assert!(!r.rejects_same_distribution(0.05));
/// # Ok(())
/// # }
/// ```
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> Result<KsResult, StatsError> {
    ensure_sample(a)?;
    ensure_sample(b)?;
    let mut xa = a.to_vec();
    let mut xb = b.to_vec();
    xa.sort_by(|p, q| p.partial_cmp(q).expect("finite"));
    xb.sort_by(|p, q| p.partial_cmp(q).expect("finite"));
    let (n, m) = (xa.len(), xb.len());
    let mut i = 0;
    let mut j = 0;
    let mut d: f64 = 0.0;
    while i < n && j < m {
        let x = xa[i].min(xb[j]);
        while i < n && xa[i] <= x {
            i += 1;
        }
        while j < m && xb[j] <= x {
            j += 1;
        }
        let fa = i as f64 / n as f64;
        let fb = j as f64 / m as f64;
        d = d.max((fa - fb).abs());
    }
    let ne = (n as f64 * m as f64) / (n as f64 + m as f64);
    let lambda = (ne.sqrt() + 0.12 + 0.11 / ne.sqrt()) * d;
    Ok(KsResult { statistic: d, p_value: kolmogorov_sf(lambda), n, m })
}

/// Survival function of the Kolmogorov distribution:
/// `Q(λ) = 2 Σ_{k≥1} (-1)^{k-1} exp(-2 k² λ²)`.
fn kolmogorov_sf(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64).powi(2) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{LogNormal, Normal, Sample};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identical_samples_have_zero_distance() {
        let a = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let r = ks_two_sample(&a, &a).unwrap();
        assert_eq!(r.statistic, 0.0);
        assert!((r.p_value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn same_distribution_not_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = LogNormal::new(1.0, 0.8).unwrap();
        let a = d.sample_n(&mut rng, 800);
        let b = d.sample_n(&mut rng, 800);
        let r = ks_two_sample(&a, &b).unwrap();
        assert!(!r.rejects_same_distribution(0.01), "p={}", r.p_value);
    }

    #[test]
    fn shifted_distribution_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Normal::new(0.0, 1.0).unwrap().sample_n(&mut rng, 500);
        let b = Normal::new(0.8, 1.0).unwrap().sample_n(&mut rng, 500);
        let r = ks_two_sample(&a, &b).unwrap();
        assert!(r.rejects_same_distribution(0.001), "p={}", r.p_value);
        assert!(r.statistic > 0.2);
    }

    #[test]
    fn kolmogorov_sf_reference_values() {
        // Q(1.36) ≈ 0.049 (the classic 5% critical value).
        assert!((kolmogorov_sf(1.36) - 0.049).abs() < 0.002);
        assert!(kolmogorov_sf(0.0) == 1.0);
        assert!(kolmogorov_sf(3.0) < 1e-6);
    }

    #[test]
    fn statistic_bounded() {
        let a = vec![1.0, 2.0];
        let b = vec![100.0, 200.0, 300.0];
        let r = ks_two_sample(&a, &b).unwrap();
        assert_eq!(r.statistic, 1.0);
        assert!(r.rejects_same_distribution(0.2));
    }

    #[test]
    fn rejects_invalid_input() {
        assert!(ks_two_sample(&[], &[1.0]).is_err());
        assert!(ks_two_sample(&[1.0], &[f64::NAN]).is_err());
    }
}
