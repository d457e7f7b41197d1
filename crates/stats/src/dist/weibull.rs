//! Weibull distribution for hardware-failure interarrival times.
//!
//! Reliability studies of large GPU fleets (Kokolis et al., 2024) find
//! node-hardware failures are not memoryless: early-life ("infant
//! mortality") and wear-out regimes give interarrival times a Weibull
//! shape, with `k < 1` (decreasing hazard) after burn-in and `k > 1`
//! (increasing hazard) near end of life. The failure-injection subsystem
//! samples per-class interarrivals from this distribution.

use super::Sample;
use crate::error::StatsError;
use rand::Rng;

/// A two-parameter Weibull distribution with shape `k` and scale
/// (characteristic life) `lambda`.
///
/// `k = 1` reduces to the exponential distribution with mean `lambda`;
/// `k < 1` has a decreasing hazard rate, `k > 1` an increasing one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Creates a Weibull distribution with the given shape and scale.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless both parameters
    /// are finite and strictly positive.
    pub fn new(shape: f64, scale: f64) -> Result<Self, StatsError> {
        if !shape.is_finite() || shape <= 0.0 {
            return Err(StatsError::InvalidParameter { name: "shape", value: shape });
        }
        if !scale.is_finite() || scale <= 0.0 {
            return Err(StatsError::InvalidParameter { name: "scale", value: scale });
        }
        Ok(Weibull { shape, scale })
    }

    /// Shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale parameter `lambda` (the 63.2nd percentile for any shape).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Median, `lambda * ln(2)^(1/k)`.
    pub fn median(&self) -> f64 {
        self.scale * std::f64::consts::LN_2.powf(1.0 / self.shape)
    }
}

impl Sample for Weibull {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse-CDF: x = lambda * (-ln(1 - u))^(1/k); 1 - u in (0, 1]
        // avoids ln(0).
        let u: f64 = 1.0 - rng.gen::<f64>();
        self.scale * (-u.ln()).powf(1.0 / self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn shape_one_is_exponential() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let d = Weibull::new(1.0, 250.0).unwrap();
        let xs = d.sample_n(&mut rng, 100_000);
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((m - 250.0).abs() / 250.0 < 0.02, "mean={m}");
    }

    #[test]
    fn empirical_median_matches_closed_form() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for &shape in &[0.7, 1.0, 1.5, 3.0] {
            let d = Weibull::new(shape, 100.0).unwrap();
            let mut xs = d.sample_n(&mut rng, 50_000);
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let med = xs[xs.len() / 2];
            let expect = d.median();
            assert!((med - expect).abs() / expect < 0.05, "k={shape}: {med} vs {expect}");
        }
    }

    #[test]
    fn low_shape_has_heavier_tail_than_exponential() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let heavy = Weibull::new(0.6, 100.0).unwrap().sample_n(&mut rng, 50_000);
        let expo = Weibull::new(1.0, 100.0).unwrap().sample_n(&mut rng, 50_000);
        let p99 = |xs: &[f64]| {
            let mut s = xs.to_vec();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s[(s.len() as f64 * 0.99) as usize]
        };
        assert!(p99(&heavy) > p99(&expo), "k<1 must have a heavier tail");
    }

    #[test]
    fn samples_non_negative() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let d = Weibull::new(0.8, 5.0).unwrap();
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(Weibull::new(0.0, 1.0).is_err());
        assert!(Weibull::new(1.0, 0.0).is_err());
        assert!(Weibull::new(-1.0, 1.0).is_err());
        assert!(Weibull::new(f64::NAN, 1.0).is_err());
    }
}
