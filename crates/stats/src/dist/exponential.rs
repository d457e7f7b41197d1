//! Exponential distribution for arrival processes and phase lengths.

use super::Sample;
use crate::error::StatsError;
use rand::Rng;

/// An exponential distribution with rate `lambda` (mean `1 / lambda`).
///
/// Used for Poisson job inter-arrival times in the cluster simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given rate.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless `rate` is finite
    /// and strictly positive.
    pub fn new(rate: f64) -> Result<Self, StatsError> {
        if !rate.is_finite() || rate <= 0.0 {
            return Err(StatsError::InvalidParameter { name: "rate", value: rate });
        }
        Ok(Exponential { rate })
    }

    /// Creates an exponential distribution with the given mean.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless `mean` is finite
    /// and strictly positive.
    pub fn with_mean(mean: f64) -> Result<Self, StatsError> {
        if !mean.is_finite() || mean <= 0.0 {
            return Err(StatsError::InvalidParameter { name: "mean", value: mean });
        }
        Exponential::new(1.0 / mean)
    }

    /// Rate parameter λ.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Mean, `1 / lambda`.
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }
}

impl Sample for Exponential {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse-CDF; 1 - u in (0, 1] avoids ln(0).
        let u: f64 = 1.0 - rng.gen::<f64>();
        -u.ln() / self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn mean_converges() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let d = Exponential::with_mean(12.5).unwrap();
        let xs = d.sample_n(&mut rng, 100_000);
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((m - 12.5).abs() / 12.5 < 0.02, "mean={m}");
    }

    #[test]
    fn samples_non_negative() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let d = Exponential::new(3.0).unwrap();
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn memoryless_cov_is_one() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let d = Exponential::new(1.0).unwrap();
        let xs = d.sample_n(&mut rng, 100_000);
        let cov = crate::coefficient_of_variation(&xs).unwrap();
        assert!((cov - 100.0).abs() < 2.0, "cov={cov}");
    }

    #[test]
    fn rejects_invalid_rate() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::with_mean(0.0).is_err());
    }
}
