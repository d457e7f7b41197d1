//! Lognormal distribution, the workhorse for heavy-tailed run times.
//!
//! The paper reports run-time quantiles (GPU jobs: p25 = 4 min, median =
//! 30 min, p75 = 300 min). [`LogNormal::from_quantiles`] solves (μ, σ)
//! directly from two such quantiles, which is how the workload generator
//! is calibrated.

use super::{standard_normal_quantile, Normal, Sample};
use crate::error::StatsError;
use rand::Rng;

/// A lognormal distribution: `exp(N(mu, sigma^2))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a lognormal with log-space mean `mu` and log-space standard
    /// deviation `sigma`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `sigma` is negative or
    /// either parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, StatsError> {
        if !mu.is_finite() {
            return Err(StatsError::InvalidParameter { name: "mu", value: mu });
        }
        if !sigma.is_finite() || sigma < 0.0 {
            return Err(StatsError::InvalidParameter { name: "sigma", value: sigma });
        }
        Ok(LogNormal { mu, sigma })
    }

    /// Solves the lognormal whose `q1`-quantile is `v1` and whose
    /// `q2`-quantile is `v2`.
    ///
    /// For example, the paper's GPU-job run times (median 30 min,
    /// p75 = 300 min):
    ///
    /// ```
    /// # fn main() -> Result<(), sc_stats::StatsError> {
    /// use sc_stats::dist::LogNormal;
    /// let d = LogNormal::from_quantiles(0.5, 30.0, 0.75, 300.0)?;
    /// assert!((d.median() - 30.0).abs() < 1e-9);
    /// assert!((d.quantile(0.75) - 300.0).abs() < 1e-6);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if the quantile levels are
    /// not strictly inside `(0, 1)` and distinct, or the values are not
    /// positive and ordered consistently with the levels.
    pub fn from_quantiles(q1: f64, v1: f64, q2: f64, v2: f64) -> Result<Self, StatsError> {
        for (name, q) in [("q1", q1), ("q2", q2)] {
            if !(q > 0.0 && q < 1.0) {
                return Err(StatsError::InvalidParameter { name, value: q });
            }
        }
        if q1 == q2 {
            return Err(StatsError::InvalidParameter { name: "q2", value: q2 });
        }
        for (name, v) in [("v1", v1), ("v2", v2)] {
            if v <= 0.0 || !v.is_finite() {
                return Err(StatsError::InvalidParameter { name, value: v });
            }
        }
        if (q1 < q2) != (v1 < v2) {
            return Err(StatsError::InvalidParameter { name: "v2", value: v2 });
        }
        let z1 = standard_normal_quantile(q1);
        let z2 = standard_normal_quantile(q2);
        let sigma = (v2.ln() - v1.ln()) / (z2 - z1);
        let mu = v1.ln() - sigma * z1;
        LogNormal::new(mu, sigma)
    }

    /// Log-space mean.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Log-space standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Median, `exp(mu)`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// Arithmetic mean, `exp(mu + sigma^2 / 2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    /// Quantile function.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not strictly inside `(0, 1)`.
    pub fn quantile(&self, q: f64) -> f64 {
        (self.mu + self.sigma * standard_normal_quantile(q)).exp()
    }
}

impl Sample for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * Normal::standard_variate(rng)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn median_matches_mu() {
        let d = LogNormal::new(30.0f64.ln(), 1.0).unwrap();
        assert!((d.median() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn from_quantiles_paper_runtimes() {
        // p25 = 4 min, p75 = 300 min (Fig. 3a prose).
        let d = LogNormal::from_quantiles(0.25, 4.0, 0.75, 300.0).unwrap();
        assert!((d.quantile(0.25) - 4.0).abs() < 1e-6);
        assert!((d.quantile(0.75) - 300.0).abs() < 1e-4);
        // Geometric midpoint: median = sqrt(4 * 300) ≈ 34.6 min, close to
        // the reported 30 min median — the paper's run-time distribution is
        // nearly (though not exactly) lognormal.
        assert!((d.median() - (4.0f64 * 300.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn sample_median_converges() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let d = LogNormal::from_quantiles(0.5, 30.0, 0.75, 300.0).unwrap();
        let mut xs = d.sample_n(&mut rng, 100_001);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!((median - 30.0).abs() / 30.0 < 0.05, "median={median}");
    }

    #[test]
    fn samples_are_positive() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let d = LogNormal::new(0.0, 2.0).unwrap();
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn from_quantiles_rejects_inconsistent_input() {
        assert!(LogNormal::from_quantiles(0.5, 30.0, 0.75, 10.0).is_err());
        assert!(LogNormal::from_quantiles(0.5, 30.0, 0.5, 40.0).is_err());
        assert!(LogNormal::from_quantiles(0.0, 30.0, 0.75, 40.0).is_err());
        assert!(LogNormal::from_quantiles(0.5, -1.0, 0.75, 40.0).is_err());
    }
}
