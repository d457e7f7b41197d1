//! Normal distribution via the Box–Muller transform.

use super::Sample;
use crate::error::StatsError;
use rand::Rng;

/// A normal (Gaussian) distribution `N(mean, std_dev^2)`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), sc_stats::StatsError> {
/// use rand::SeedableRng;
/// use sc_stats::dist::{Normal, Sample};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let n = Normal::new(10.0, 2.0)?;
/// let x = n.sample(&mut rng);
/// assert!(x.is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `std_dev` is negative
    /// or either parameter is non-finite.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, StatsError> {
        if !mean.is_finite() {
            return Err(StatsError::InvalidParameter { name: "mean", value: mean });
        }
        if !std_dev.is_finite() || std_dev < 0.0 {
            return Err(StatsError::InvalidParameter { name: "std_dev", value: std_dev });
        }
        Ok(Normal { mean, std_dev })
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Normal { mean: 0.0, std_dev: 1.0 }
    }

    /// Mean parameter.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard-deviation parameter.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Draws one standard-normal variate via Box–Muller.
    pub(crate) fn standard_variate<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        // u1 in (0, 1] to avoid ln(0).
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

impl Sample for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * Self::standard_variate(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn moments_converge() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let n = Normal::new(5.0, 3.0).unwrap();
        let xs = n.sample_n(&mut rng, 200_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean={mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.05, "sd={}", var.sqrt());
    }

    #[test]
    fn zero_std_dev_is_degenerate() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let n = Normal::new(7.0, 0.0).unwrap();
        for _ in 0..10 {
            assert_eq!(n.sample(&mut rng), 7.0);
        }
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(0.0, f64::INFINITY).is_err());
    }
}
